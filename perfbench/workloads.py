"""The benchmark's workloads: generated INI configs, CLI command sequences and output checks.

A workload is fixed work at a stated clip shape (3x32x32 frames, batch as in
the config). The workload seed picks the dataset, split and training seeds;
the program only ever sees the generated config file.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

PROTOCOLS = ("linear_probe", "fine_tune", "supervised")
REPORT_FILES = (
    "table_backbone_interval.csv",
    "table_backbone_interval.txt",
    "table_loss_variants.csv",
    "table_loss_variants.txt",
)
PROBE_TRAIN_WINDOWS = 256  # non-overlapping train windows the ridge read-out is fitted on


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str
    t: int
    loss: str
    videos: int
    frames_per_video: int = 240
    pretrain_epochs: int = 1
    downstream_epochs: int = 0  # 0: the workload runs `pretrain` only
    batch_size: int = 16
    downstream_batch_size: int = 32
    # Quality differs between training seeds by more than its bound allows, so
    # an untraced run trains this many pass seeds and reports their mean.
    quality_passes: int = 4

    @property
    def has_downstream(self) -> bool:
        return self.downstream_epochs > 0

    def config_text(self, seed: int, out_dir: Path) -> str:
        return f"""; generated by perfbench for workload {self.name}, seed {seed}
[dataset]
videos = {self.videos}
frames_per_video = {self.frames_per_video}
seed = {seed}
split_seed = {seed}

[backbone]
family = {self.family}
embed_dim = 64
recurrent_hidden = 64

[distill]
t = {self.t}
t_pred = {self.t}
loss_variant = {self.loss}
learning_rate = 0.005
sgd_momentum = 0.9
batch_size = {self.batch_size}
epochs = {self.pretrain_epochs}
momentum_start = 0.996
momentum_end = 1.0
projection_head = true

[downstream]
task = prediction
epochs = {max(1, self.downstream_epochs)}
learning_rate = 0.02
sgd_momentum = 0.9
batch_size = {self.downstream_batch_size}

[run]
seeds = {seed}
out_dir = {out_dir}
"""

    def commands(self, config: Path, out_dir: Path, seed: int) -> list[list[str]]:
        """The CLI calls `scripts/run_main.py` issues for one seed, or `pretrain` alone."""
        cmds = [["pretrain", "--config", str(config), "--seed", str(seed), "--out", str(out_dir)]]
        if not self.has_downstream:
            return cmds
        ckpt = out_dir / f"{self.stem(seed)}.ckpt"
        for protocol in PROTOCOLS:
            argv = ["finetune", "--config", str(config), "--protocol", protocol, "--seed", str(seed), "--out", str(out_dir)]
            if protocol != "supervised":
                argv += ["--checkpoint", str(ckpt)]
            cmds.append(argv)
        cmds.append(["report", "--metrics", str(out_dir / "metrics.csv"), "--out", str(out_dir / "report")])
        return cmds

    def stem(self, seed: int) -> str:
        return f"{self.family}_t{self.t}p{self.t}_{self.loss}_seed{seed}"

    # -- expected work, from the program's own split and window rules ------

    def split_sizes(self, seed: int) -> tuple[int, int, int]:
        from futuredistill.synthdata import split_dataset

        train, val, test = split_dataset(list(range(self.videos)), seed=seed)
        return len(train), len(val), len(test)

    def windows_per_video(self) -> int:
        from futuredistill.synthdata import eval_clip_starts

        return len(eval_clip_starts(self.frames_per_video, self.t, self.t))

    def pretrain_steps(self, seed: int) -> int:
        n_train = self.split_sizes(seed)[0]
        per_epoch = max(1, n_train * self.frames_per_video // (self.batch_size * 2 * self.t))
        return self.pretrain_epochs * per_epoch

    def downstream_clips(self, seed: int) -> int:
        """Clips that enter a downstream optimizer step, over all three protocols."""
        if not self.has_downstream:
            return 0
        return len(PROTOCOLS) * self.downstream_epochs * self.split_sizes(seed)[0] * self.windows_per_video()

    def expected_steps(self, seed: int) -> list[int]:
        """Optimizer steps each command of `commands()` takes."""
        if not self.has_downstream:
            return [self.pretrain_steps(seed)]
        windows = self.split_sizes(seed)[0] * self.windows_per_video()
        per_protocol = self.downstream_epochs * math.ceil(windows / self.downstream_batch_size)
        return [self.pretrain_steps(seed), *[per_protocol] * len(PROTOCOLS), 0]

    def expected_test_frames(self, seed: int) -> int:
        return self.split_sizes(seed)[2] * self.windows_per_video() * self.t


@dataclass
class PassOutputs:
    """What one pass produced, checked against the workload's expectations."""

    failures: list[tuple[int, str]]  # (index of the failed command, reason)
    final_loss: float | None
    digest: str
    precision: dict[str, float]


def check_outputs(wl: Workload, seed: int, out_dir: Path, exit_codes: list[int]) -> PassOutputs:
    """Mark an operation (one CLI command, indexed as in `commands()`) failed on any check below."""
    from futuredistill.checkpoint import read_checkpoint
    from futuredistill.reporting import read_metrics

    failed = [(k, f"command {k} exited {code}") for k, code in enumerate(exit_codes) if code != 0]
    digest = hashlib.sha256()
    final_loss = None
    ckpt = out_dir / f"{wl.stem(seed)}.ckpt"
    log_path = out_dir / f"{wl.stem(seed)}_train_log.csv"
    if exit_codes[0] == 0:
        losses = _read_losses(log_path)
        if not losses or not all(math.isfinite(v) for v in losses):
            failed.append((0, "pretrain: training log missing or has a non-finite loss"))
        else:
            final_loss = losses[-1]
        _, pre_params = read_checkpoint(ckpt)
        for name in sorted(pre_params):
            digest.update(name.encode())
            digest.update(pre_params[name].tobytes())
    precision: dict[str, float] = {}
    if wl.has_downstream:
        rows = read_metrics(out_dir / "metrics.csv") if (out_dir / "metrics.csv").exists() else []
        by_protocol = {r.protocol: r for r in rows}
        expected_frames = wl.expected_test_frames(seed)
        for op, protocol in enumerate(PROTOCOLS, start=1):
            row = by_protocol.get(protocol)
            if row is None:
                failed.append((op, f"{protocol}: no metrics row"))
            elif not 0.0 <= row.macro_precision <= 1.0:
                failed.append((op, f"{protocol}: macro_precision {row.macro_precision} outside [0, 1]"))
            elif row.n_frames != expected_frames:
                failed.append((op, f"{protocol}: n_frames {row.n_frames} != {expected_frames}"))
            else:
                precision[protocol] = row.macro_precision
                digest.update(f"{protocol}={row.macro_precision!r}".encode())
        probe_ckpt = out_dir / f"{wl.stem(seed)}_linear_probe.ckpt"
        if exit_codes[0] == 0 and probe_ckpt.exists():
            _, probe_params = read_checkpoint(probe_ckpt)
            backbone = {k: v for k, v in pre_params.items() if k.startswith("backbone.")}
            probed = {k: v for k, v in probe_params.items() if k.startswith("backbone.")}
            same = backbone.keys() == probed.keys() and all(
                backbone[k].tobytes() == probed[k].tobytes() for k in backbone
            )
            if not same:
                failed.append((1, "linear_probe: backbone arrays differ from the pretrain checkpoint"))
        else:
            failed.append((1, "linear_probe: checkpoint missing"))
        missing = [f for f in REPORT_FILES if not (out_dir / "report" / f).is_file()]
        if missing:
            failed.append((4, f"report: missing {missing}"))
    return PassOutputs(failures=failed, final_loss=final_loss, digest=digest.hexdigest(), precision=precision)


def _read_losses(path: Path) -> list[float]:
    if not path.is_file():
        return []
    with path.open(newline="") as fh:
        return [float(rec["loss"]) for rec in csv.DictReader(fh)]


def ridge_probe_precision(wl: Workload, seed: int, ckpt: Path) -> float:
    """Macro precision of a closed-form ridge read-out of the frozen pretrained backbone.

    The pretrain-only workloads have no downstream stage, so their quality is
    measured here, outside the timed passes: embed train and test windows once,
    fit standardized embeddings to one-hot future-frame labels, predict the
    test windows and score them with the program's `evaluate_precision`.
    """
    import numpy as np
    from futuredistill.autodiff import Tensor, no_grad
    from futuredistill.checkpoint import load_backbone_checkpoint
    from futuredistill.downstream import evaluate_precision
    from futuredistill.synthdata import N_ACTIONS, clip_at, eval_clip_starts, make_dataset, split_dataset

    backbone, _, _ = load_backbone_checkpoint(ckpt)
    videos = make_dataset(seed, wl.videos, wl.frames_per_video)
    train, _, test = split_dataset(videos, seed=seed)

    def embed(split, stride, limit):
        clips, labels = [], []
        for video in split:
            for start in eval_clip_starts(len(video), wl.t, wl.t, stride):
                clip = clip_at(video, start, wl.t, wl.t)
                clips.append(clip.past)
                labels.append(clip.future_labels)
        clips, labels = clips[:limit], labels[:limit]
        feats = []
        for lo in range(0, len(clips), 64):
            with no_grad():
                feats.append(backbone.forward(Tensor(np.stack(clips[lo : lo + 64]))).data)
        return np.concatenate(feats).astype(np.float64), np.stack(labels).astype(np.int64)

    z_train, y_train = embed(train, 2 * wl.t, PROBE_TRAIN_WINDOWS)
    z_test, y_test = embed(test, wl.t, None)
    mu, sigma = z_train.mean(axis=0), z_train.std(axis=0) + 1e-6

    def design(z):
        return np.hstack([(z - mu) / sigma, np.ones((len(z), 1))])

    x = design(z_train)
    targets = np.eye(N_ACTIONS)[y_train].reshape(len(x), -1)  # [N, t * classes]
    weights = np.linalg.solve(x.T @ x + np.eye(x.shape[1]), x.T @ targets)
    scores = (design(z_test) @ weights).reshape(len(z_test), wl.t, N_ACTIONS)
    return evaluate_precision(scores.argmax(axis=-1).ravel(), y_test.ravel(), N_ACTIONS).macro_precision


WORKLOADS = (
    Workload(
        name="main-c2r-t12",
        why=(
            "run_main.py for one seed: pretrain, 3 protocols, report; Conv2dRecurrent t=12. "
            "Stresses downstream, conv2d, LSTM, no-grad forward, data regen; not conv3d or attention."
        ),
        family="Conv2dRecurrent",
        t=12,
        loss="cosine",
        videos=30,
        pretrain_epochs=1,
        downstream_epochs=1,
        quality_passes=5,  # its fine_tune and supervised rows spread most between seeds
    ),
    Workload(
        name="pretrain-c3d-t6",
        why=(
            "pretrain only, Conv3dResidual t=6 cosine (Table-2 cell). Stresses conv3d forward "
            "and backward; no LSTM, no attention, no downstream, checkpoint load or report."
        ),
        family="Conv3dResidual",
        t=6,
        loss="cosine",
        videos=30,
        pretrain_epochs=1,
    ),
    Workload(
        name="pretrain-tt-t6-ce",
        why=(
            "pretrain only, TemporalTransformer t=6, cross_entropy loss with centering. Stresses "
            "matmul, softmax, layer_norm, gelu, tape sweep; no conv, no LSTM, no downstream."
        ),
        family="TemporalTransformer",
        t=6,
        loss="cross_entropy",
        videos=30,
        pretrain_epochs=2,
    ),
)
BY_NAME = {wl.name: wl for wl in WORKLOADS}
