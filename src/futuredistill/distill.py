"""Student-teacher pretraining with future context.

The student embeds the past t frames. The teacher embeds the full t + t_pred
window downsampled back to t frames, so both nets share one architecture while
the teacher sees ahead. The student minimizes an embedding-matching loss
against the detached teacher output; the teacher follows the student by
exponential moving average under a cosine momentum schedule.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import SgdState, Tape, Tensor, backward, no_grad, sgd_step
from .errors import ConfigurationError, DimensionError, DivergenceError
from .models import BackboneSpec, build_backbone
from .synthdata import SyntheticVideo, sample_clip

LOSS_VARIANTS = ("cosine", "cross_entropy", "mse")


@dataclass
class DistillConfig:
    """Hyperparameters of the pretraining stage."""

    t: int = 12
    t_pred: int = 12
    loss_variant: str = "cosine"
    temperature_student: float = 0.1  # cross_entropy variant only
    temperature_teacher: float = 0.04  # cross_entropy variant only
    center_momentum: float = 0.9  # cross_entropy variant only
    learning_rate: float = 0.005
    sgd_momentum: float = 0.9
    batch_size: int = 16
    epochs: int = 20
    momentum_start: float = 0.996
    momentum_end: float = 1.0
    projection_head: bool = False

    def validate(self) -> None:
        if self.t < 1 or self.t_pred < 1:
            raise ConfigurationError(f"t and t_pred must be >= 1, got {self.t}, {self.t_pred}")
        if self.loss_variant not in LOSS_VARIANTS:
            raise ConfigurationError(
                f"unknown loss variant {self.loss_variant!r}; pick one of {LOSS_VARIANTS}"
            )
        if self.temperature_student <= 0 or self.temperature_teacher <= 0:
            raise ConfigurationError("softmax temperatures must be positive")
        if not 0.0 <= self.center_momentum < 1.0:
            raise ConfigurationError(f"center_momentum must be in [0, 1), got {self.center_momentum}")
        for m in (self.momentum_start, self.momentum_end):
            if not 0.0 < m <= 1.0:
                raise ConfigurationError(f"EMA momentum endpoints must be in (0, 1], got {m}")


def momentum_at(step: int, total_steps: int, m_start: float, m_end: float) -> float:
    """Cosine ramp from m_start at step 0 to m_end at total_steps."""
    if total_steps < 1:
        raise ConfigurationError(f"total_steps must be >= 1, got {total_steps}")
    if step < 0 or step > total_steps:
        warnings.warn(
            f"momentum_at: step {step} outside [0, {total_steps}], clamping",
            RuntimeWarning,
            stacklevel=2,
        )
        step = min(max(step, 0), total_steps)
    phase = (math.cos(math.pi * step / total_steps) + 1.0) / 2.0
    return m_end - (m_end - m_start) * phase


# ---------------------------------------------------------------------------
# teacher-sequence downsampling


def downsample_indices(t: int, t_pred: int) -> np.ndarray:
    """Pick t of t+t_pred frame indices at sampling frequency (t+t_pred)/t.

    idx_j = round-half-up(j * freq), clamped into range; strictly increasing
    whenever t_pred >= 0.
    """
    if t < 1 or t_pred < 0:
        raise ConfigurationError(f"need t >= 1 and t_pred >= 0, got {t}, {t_pred}")
    freq = (t + t_pred) / t
    idx = np.floor(np.arange(t) * freq + 0.5).astype(np.int64)
    return np.minimum(idx, t + t_pred - 1)


def downsample_teacher_sequence(frames, t: int, t_pred: int):
    """Select t frames out of a [(t+t_pred), ...] block along axis 0."""
    data = frames.data if isinstance(frames, Tensor) else np.asarray(frames)
    if data.shape[0] != t + t_pred:
        raise DimensionError(
            f"expected {t + t_pred} frames along axis 0, got {data.shape[0]}"
        )
    picked = data[downsample_indices(t, t_pred)]
    return Tensor(picked) if isinstance(frames, Tensor) else picked


# ---------------------------------------------------------------------------
# distillation losses


def _cosine_rows(s: Tensor, tch_data: np.ndarray, rows: np.ndarray) -> Tensor:
    """Clipped cosine similarity of the selected batch rows."""
    s_rows = s[rows]
    t_rows = Tensor(tch_data[rows])
    dot = ad.sum_(ad.mul(s_rows, t_rows), axis=1)
    s_norm = ad.sqrt(ad.sum_(ad.mul(s_rows, s_rows), axis=1))
    t_norm = np.linalg.norm(tch_data[rows], axis=1)
    return ad.clip(ad.div(dot, ad.mul(s_norm, Tensor(t_norm.astype(s.dtype)))), -1.0, 1.0)


def fpd_loss(student_emb, teacher_emb, cfg: DistillConfig, center: np.ndarray | None = None) -> Tensor:
    """Embedding-matching loss between student and detached teacher batches.

    cosine: mean(1 - cos), in [0, 2]; zero-norm rows contribute exactly 1.
    mse: mean squared elementwise difference.
    cross_entropy: H(softmax((teacher - center)/tau_t), log_softmax(student/tau_s)).
    """
    s = student_emb if isinstance(student_emb, Tensor) else Tensor(student_emb)
    tch = teacher_emb.detach() if isinstance(teacher_emb, Tensor) else Tensor(np.asarray(teacher_emb))
    if s.ndim != 2 or s.shape != tch.shape:
        raise DimensionError(f"expected matching [B, d] embeddings, got {s.shape} vs {tch.shape}")
    batch = s.shape[0]
    if cfg.loss_variant == "mse":
        diff = ad.add(s, ad.mul(tch, -1.0))
        return ad.mean(ad.mul(diff, diff))
    if cfg.loss_variant == "cross_entropy":
        c = np.zeros(s.shape[1], dtype=np.float64) if center is None else center
        shifted = (tch.data.astype(np.float64) - c) / cfg.temperature_teacher
        shifted -= shifted.max(axis=1, keepdims=True)
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        log_q = ad.log_softmax(s, temperature=cfg.temperature_student, axis=-1)
        per_row = ad.sum_(ad.mul(log_q, Tensor(p.astype(s.dtype))), axis=1)
        return ad.mul(ad.mean(per_row), -1.0)
    # cosine
    s_norm_sq = np.einsum("bd,bd->b", s.data, s.data)
    t_norm_sq = np.einsum("bd,bd->b", tch.data, tch.data)
    ok = (s_norm_sq > 0) & (t_norm_sq > 0)
    if ok.all():
        cos = _cosine_rows(s, tch.data, np.arange(batch))
        return ad.mean(ad.add(ad.mul(cos, -1.0), 1.0))
    warnings.warn(
        f"cosine loss: {int((~ok).sum())} zero-norm embedding rows contribute loss 1",
        RuntimeWarning,
        stacklevel=2,
    )
    n_zero = int((~ok).sum())
    if n_zero == batch:
        return Tensor(np.asarray(1.0, dtype=s.dtype))
    cos = _cosine_rows(s, tch.data, np.nonzero(ok)[0])
    live = ad.sum_(ad.add(ad.mul(cos, -1.0), 1.0))
    return ad.mul(ad.add(live, float(n_zero)), 1.0 / batch)


def update_center(center: np.ndarray | None, teacher_batch: np.ndarray, momentum: float) -> np.ndarray:
    """EMA of teacher batch means; the anti-collapse centering state."""
    batch_mean = np.asarray(teacher_batch, dtype=np.float64).mean(axis=0)
    if center is None:
        return batch_mean
    return momentum * np.asarray(center, dtype=np.float64) + (1.0 - momentum) * batch_mean


# ---------------------------------------------------------------------------
# student-teacher pair


class DistillModel(nn.Module):
    """Backbone plus optional projection MLP used only during pretraining."""

    def __init__(self, backbone, projector=None):
        self.backbone = backbone
        self.projector = projector

    def forward(self, clips) -> Tensor:
        z = self.backbone.forward(clips)
        return self.projector(z) if self.projector is not None else z


@dataclass
class StudentTeacherPair:
    student: nn.Module
    teacher: nn.Module
    step: int = 0

    @classmethod
    def from_student(cls, student: nn.Module) -> "StudentTeacherPair":
        return cls(student=student, teacher=student.copy(), step=0)


def ema_update(pair: StudentTeacherPair, m: float) -> None:
    """Teacher <- m * teacher + (1 - m) * student, elementwise, no gradients."""
    if not 0.0 <= m <= 1.0:
        raise ConfigurationError(f"EMA momentum must be in [0, 1], got {m}")
    student = dict(pair.student.named_parameters())
    for name, tp in pair.teacher.named_parameters():
        sp = student.get(name)
        if sp is None or sp.data.shape != tp.data.shape:
            raise RuntimeError(f"student/teacher structure mismatch at {name}")
        if m == 0.0:
            tp.data = sp.data.copy()
        elif m != 1.0:
            mm = tp.data.dtype.type(m)
            one_minus = tp.data.dtype.type(1.0 - m)
            tp.data = mm * tp.data + one_minus * sp.data


# ---------------------------------------------------------------------------
# pretraining loop


@dataclass
class PretrainLogRow:
    step: int
    loss: float
    momentum: float
    embed_std: float


@dataclass
class PretrainResult:
    pair: StudentTeacherPair
    log: list[PretrainLogRow]
    config: DistillConfig
    seed: int

    @property
    def student_backbone(self):
        student = self.pair.student
        return student.backbone if isinstance(student, DistillModel) else student


def steps_per_epoch(n_videos: int, frames_per_video: int, cfg: DistillConfig) -> int:
    frames = n_videos * frames_per_video
    return max(1, frames // (cfg.batch_size * (cfg.t + cfg.t_pred)))


def pretrain(
    backbone_spec: BackboneSpec,
    dataset: list[SyntheticVideo],
    cfg: DistillConfig,
    seed: int = 0,
) -> PretrainResult:
    """Run the full distillation loop; the teacher starts as a copy of the student."""
    cfg.validate()
    if not dataset:
        raise ConfigurationError("pretrain: empty dataset")
    span = cfg.t + cfg.t_pred
    if min(len(v) for v in dataset) < span:
        raise ConfigurationError(f"pretrain: every video must have at least {span} frames")

    backbone = build_backbone(backbone_spec, seed)
    projector = None
    if cfg.projection_head:
        proj_rng = np.random.default_rng([seed, 2])
        projector = nn.Mlp(backbone_spec.embed_dim, backbone_spec.embed_dim, backbone_spec.embed_dim, proj_rng)
    student = DistillModel(backbone, projector)
    pair = StudentTeacherPair.from_student(student)

    per_epoch = steps_per_epoch(len(dataset), min(len(v) for v in dataset), cfg)
    total_steps = cfg.epochs * per_epoch

    sample_rng = np.random.default_rng([seed, 1])
    params = pair.student.parameters()
    opt = SgdState(learning_rate=cfg.learning_rate, momentum=cfg.sgd_momentum)
    center: np.ndarray | None = None
    log: list[PretrainLogRow] = []

    for step in range(total_steps):
        past, combined = _sample_batch(dataset, cfg, sample_rng)
        with no_grad():
            tch = pair.teacher.forward(Tensor(combined))
        tape = Tape()
        with tape:
            s = pair.student.forward(Tensor(past))
            loss = fpd_loss(s, tch, cfg, center)
        loss_val = loss.item()
        if not math.isfinite(loss_val):
            raise DivergenceError(
                f"pretraining diverged at step {step}: loss={loss_val!r}, config={cfg}"
            )
        pair.student.zero_grads()
        backward(loss, tape)
        sgd_step(params, [p.grad for p in params], opt)
        m = momentum_at(pair.step, total_steps, cfg.momentum_start, cfg.momentum_end)
        ema_update(pair, m)
        pair.step += 1
        if cfg.loss_variant == "cross_entropy":
            center = update_center(center, tch.data, cfg.center_momentum)
        log.append(
            PretrainLogRow(
                step=step,
                loss=loss_val,
                momentum=m,
                embed_std=float(s.data.std(axis=0).mean()),
            )
        )
    return PretrainResult(pair=pair, log=log, config=cfg, seed=seed)


def _sample_batch(dataset, cfg: DistillConfig, rng) -> tuple[np.ndarray, np.ndarray]:
    """Stack one batch of (past, downsampled-combined) clip arrays."""
    idx = downsample_indices(cfg.t, cfg.t_pred)
    pasts, combineds = [], []
    for _ in range(cfg.batch_size):
        video = dataset[int(rng.integers(len(dataset)))]
        clip = sample_clip(video, cfg.t, cfg.t_pred, rng)
        pasts.append(clip.past)
        combineds.append(clip.combined[idx])
    return np.stack(pasts), np.stack(combineds)


def write_training_log(path: str | Path, log: list[PretrainLogRow]) -> None:
    """CSV with one row per logged step: step,loss,momentum,embed_std."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss", "momentum", "embed_std"])
        for row in log:
            writer.writerow([row.step, f"{row.loss:.6f}", f"{row.momentum:.6f}", f"{row.embed_std:.6f}"])
