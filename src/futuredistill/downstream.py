"""Downstream training and evaluation under three protocols.

Prediction: one embedding of the past t frames maps to per-frame logits for
the next t_pred frames. Recognition: one embedding maps to a single clip-level
label (majority per-frame label). Both minimize cross-entropy; macro precision
is the headline metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import SgdState, Tape, Tensor, backward, no_grad, sgd_step
from .errors import ConfigurationError, DimensionError, DivergenceError
from .models import BackboneSpec, PredictionHead, RecognitionHead, build_backbone
from .synthdata import N_ACTIONS, SyntheticVideo, clip_at, eval_clip_starts


class Protocol(Enum):
    FULL_SUPERVISED = "supervised"
    LINEAR_PROBE = "linear_probe"
    FINE_TUNE = "fine_tune"

    @classmethod
    def parse(cls, name: str) -> "Protocol":
        for p in cls:
            if p.value == name or p.name.lower() == name.lower():
                return p
        raise ConfigurationError(f"unknown protocol {name!r}; pick from {[p.value for p in cls]}")


TASKS = ("prediction", "recognition")


@dataclass
class FinetuneConfig:
    """Supervised-stage hyperparameters (shared by all three protocols)."""

    task: str = "prediction"
    t: int = 12
    t_pred: int = 12
    epochs: int = 10
    learning_rate: float = 0.02
    sgd_momentum: float = 0.9
    batch_size: int = 32
    n_classes: int = N_ACTIONS

    def validate(self) -> None:
        if self.task not in TASKS:
            raise ConfigurationError(f"unknown task {self.task!r}; pick one of {TASKS}")
        if self.t < 1 or (self.task == "prediction" and self.t_pred < 1):
            raise ConfigurationError(f"bad horizon: t={self.t}, t_pred={self.t_pred}")

    @property
    def span(self) -> int:
        return self.t + self.t_pred if self.task == "prediction" else self.t


@dataclass
class EvalResult:
    macro_precision: float
    per_class: np.ndarray  # [C]
    confusion: np.ndarray  # [C, C] counts, rows=gold, cols=pred
    n_frames: int


def evaluate_precision(preds, golds, n_classes: int) -> EvalResult:
    """Macro precision with zero-prediction classes counted as 0."""
    preds = np.asarray(preds, dtype=np.int64)
    golds = np.asarray(golds, dtype=np.int64)
    if preds.shape != golds.shape or preds.ndim != 1:
        raise DimensionError(f"preds {preds.shape} and golds {golds.shape} must be equal 1-D arrays")
    if preds.size == 0:
        raise ConfigurationError("evaluate_precision: empty input")
    if preds.min() < 0 or preds.max() >= n_classes or golds.min() < 0 or golds.max() >= n_classes:
        raise ConfigurationError(f"labels must lie in [0, {n_classes})")
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (golds, preds), 1)
    predicted_per_class = confusion.sum(axis=0)
    true_positive = np.diag(confusion)
    per_class = np.where(predicted_per_class > 0, true_positive / np.maximum(predicted_per_class, 1), 0.0)
    return EvalResult(
        macro_precision=float(per_class.mean()),
        per_class=per_class,
        confusion=confusion,
        n_frames=int(preds.size),
    )


def majority_label(labels: np.ndarray) -> int:
    """Most frequent label; ties break to the lowest class index."""
    return int(np.bincount(np.asarray(labels), minlength=N_ACTIONS).argmax())


# ---------------------------------------------------------------------------
# clip window plumbing


@dataclass
class _Window:
    video: SyntheticVideo
    start: int


def _windows(videos: list[SyntheticVideo], cfg: FinetuneConfig, stride: int | None = None) -> list[_Window]:
    span = cfg.span
    stride = stride if stride is not None else max(1, cfg.t_pred if cfg.task == "prediction" else cfg.t)
    out = []
    for video in videos:
        for start in eval_clip_starts(len(video), cfg.t, span - cfg.t, stride):
            out.append(_Window(video, start))
    if not out:
        raise ConfigurationError(f"no clips of {span} frames fit the given videos")
    return out


def _batch_arrays(windows: list[_Window], cfg: FinetuneConfig) -> tuple[np.ndarray, np.ndarray]:
    clips, labels = [], []
    for w in windows:
        clip = clip_at(w.video, w.start, cfg.t, cfg.span - cfg.t)
        clips.append(clip.past)
        if cfg.task == "prediction":
            labels.append(clip.future_labels)
        else:
            labels.append(majority_label(clip.past_labels))
    return np.stack(clips), np.asarray(labels, dtype=np.int64)


def make_head(cfg: FinetuneConfig, embed_dim: int, rng) -> nn.Module:
    if cfg.task == "prediction":
        return PredictionHead(embed_dim, cfg.t_pred, cfg.n_classes, rng)
    return RecognitionHead(embed_dim, cfg.n_classes, rng)


class StandardizedHead(nn.Module):
    """Fixed affine feature standardization in front of a trainable head.

    (z - mu) / sigma keeps the composed map affine (no added capacity) but
    conditions the optimization: frozen-backbone embeddings concentrate around
    a large constant component that otherwise swamps the head's gradients.
    """

    def __init__(self, inner: nn.Module, mu: np.ndarray, sigma: np.ndarray):
        self.inner = inner
        self.mu = mu.astype(np.float32)
        self.sigma = sigma.astype(np.float32)

    def __call__(self, z) -> Tensor:
        shifted = ad.mul(ad.add(z, Tensor(-self.mu)), Tensor(1.0 / self.sigma))
        return self.inner(shifted)


def feature_stats(backbone, videos: list[SyntheticVideo], cfg: FinetuneConfig, max_windows: int = 512):
    """Per-dimension embedding mean/std over train windows, label-free."""
    windows = _windows(videos, cfg)[:max_windows]
    feats = []
    for lo in range(0, len(windows), 64):
        clips, _ = _batch_arrays(windows[lo : lo + 64], cfg)
        with no_grad():
            feats.append(backbone.forward(Tensor(clips)).data)
    z = np.concatenate(feats)
    sigma = z.std(axis=0)
    floor = max(1e-6, 1e-3 * float(sigma.mean()))
    return z.mean(axis=0), np.maximum(sigma, floor)


class ModelWithHead(nn.Module):
    def __init__(self, backbone, head):
        self.backbone = backbone
        self.head = head

    def forward(self, clips) -> Tensor:
        return self.head(self.backbone.forward(clips))


@dataclass
class FinetuneLogRow:
    epoch: int
    loss: float


def finetune(
    backbone,
    head,
    protocol: Protocol,
    train_videos: list[SyntheticVideo],
    cfg: FinetuneConfig,
    seed: int = 0,
) -> tuple[ModelWithHead, list[FinetuneLogRow]]:
    """Cross-entropy training; LINEAR_PROBE leaves every backbone bit untouched.

    Only LINEAR_PROBE standardizes the head's input: a frozen backbone needs
    the fixed affine feature conditioning, while trainable backbones adapt on
    their own and the amplified 1/sigma backprop would destabilize them.
    """
    cfg.validate()
    freeze_backbone = protocol is Protocol.LINEAR_PROBE
    if freeze_backbone:
        mu, sigma = feature_stats(backbone, train_videos, cfg)
        head = StandardizedHead(head, mu, sigma)
    model = ModelWithHead(backbone, head)
    params = head.parameters() if freeze_backbone else model.parameters()
    opt = SgdState(learning_rate=cfg.learning_rate, momentum=cfg.sgd_momentum)
    rng = np.random.default_rng([seed, 3])
    windows = _windows(train_videos, cfg)
    log: list[FinetuneLogRow] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(windows))
        epoch_losses = []
        for lo in range(0, len(order), cfg.batch_size):
            batch = [windows[i] for i in order[lo : lo + cfg.batch_size]]
            clips, labels = _batch_arrays(batch, cfg)
            if freeze_backbone:
                with no_grad():
                    z = backbone.forward(Tensor(clips))
                z = z.detach()
                tape = Tape()
                with tape:
                    loss = _task_loss(head(z), labels, cfg)
            else:
                tape = Tape()
                with tape:
                    loss = _task_loss(model.forward(Tensor(clips)), labels, cfg)
            val = loss.item()
            if not math.isfinite(val):
                raise DivergenceError(f"fine-tuning diverged at epoch {epoch} (loss={val!r})")
            for p in params:
                p.zero_grad()
            backward(loss, tape)
            sgd_step(params, [p.grad for p in params], opt)
            epoch_losses.append(val)
        log.append(FinetuneLogRow(epoch=epoch, loss=float(np.mean(epoch_losses))))
    return model, log


def _task_loss(logits: Tensor, labels: np.ndarray, cfg: FinetuneConfig) -> Tensor:
    if cfg.task == "prediction":
        flat = ad.reshape(logits, (-1, cfg.n_classes))
        return ad.cross_entropy(flat, labels.reshape(-1))
    return ad.cross_entropy(logits, labels)


def evaluate_model(
    backbone,
    head,
    videos: list[SyntheticVideo],
    cfg: FinetuneConfig,
    batch_size: int = 64,
) -> EvalResult:
    """Argmax predictions over deterministic strided windows of the given videos."""
    cfg.validate()
    windows = _windows(videos, cfg)
    preds, golds = [], []
    for lo in range(0, len(windows), batch_size):
        batch = windows[lo : lo + batch_size]
        clips, labels = _batch_arrays(batch, cfg)
        with no_grad():
            logits = head(backbone.forward(Tensor(clips)))
        picked = np.argmax(logits.data, axis=-1)
        preds.append(picked.reshape(-1))
        golds.append(labels.reshape(-1))
    return evaluate_precision(np.concatenate(preds), np.concatenate(golds), cfg.n_classes)


# ---------------------------------------------------------------------------
# one protocol arm


@dataclass
class MetricsRow:
    backbone: str
    interval: int
    protocol: str
    loss_variant: str
    seed: int
    macro_precision: float
    n_frames: int


def run_single_protocol(
    backbone_spec: BackboneSpec,
    student,
    protocol: Protocol,
    splits,
    tune_cfg: FinetuneConfig,
    seed: int,
    loss_variant: str = "cosine",
) -> tuple[MetricsRow, ModelWithHead]:
    """Train one protocol arm from `student` (ignored when FULL_SUPERVISED)."""
    train_videos, _, test_videos = splits
    if protocol is Protocol.FULL_SUPERVISED:
        arm_backbone = build_backbone(backbone_spec, seed)
    elif student is None:
        raise ConfigurationError(f"protocol {protocol.value} needs a pretrained student")
    else:
        arm_backbone = student.copy()
    head = make_head(tune_cfg, backbone_spec.embed_dim, np.random.default_rng(seed + 1000))
    model, _ = finetune(arm_backbone, head, protocol, train_videos, tune_cfg, seed=seed)
    result_eval = evaluate_model(model.backbone, model.head, test_videos, tune_cfg)
    row = MetricsRow(
        backbone=backbone_spec.family,
        interval=tune_cfg.t,
        protocol=protocol.value,
        loss_variant=loss_variant,
        seed=seed,
        macro_precision=result_eval.macro_precision,
        n_frames=result_eval.n_frames,
    )
    return row, model
