"""Student-teacher pretraining with future context.

The student embeds the past t frames. The teacher embeds the full t + t_pred
window downsampled back to t frames, so both nets share one architecture while
the teacher sees ahead. The student minimizes an embedding-matching loss
against the detached teacher output; the teacher follows the student by
exponential moving average under a cosine momentum schedule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import SgdState, Tape, Tensor, backward, no_grad, sgd_step
from .errors import ConfigurationError, DimensionError, DivergenceError
from .models import BackboneSpec, build_backbone
from .synthdata import CHANNELS, FRAME_SIZE, SyntheticVideo, render, sample_clip

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
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigurationError(
                f"distill.batch_size must be >= 1 and distill.epochs >= 0, "
                f"got {self.batch_size}, {self.epochs}"
            )
        if self.learning_rate <= 0 or not 0.0 <= self.sgd_momentum < 1.0:
            raise ConfigurationError(
                f"distill.learning_rate must be > 0 and distill.sgd_momentum in [0, 1), "
                f"got {self.learning_rate}, {self.sgd_momentum}"
            )
        if self.temperature_student <= 0 or self.temperature_teacher <= 0:
            raise ConfigurationError(
                f"distill.temperature_student and distill.temperature_teacher must be > 0, "
                f"got {self.temperature_student}, {self.temperature_teacher}"
            )
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


# ---------------------------------------------------------------------------
# distillation losses


def fpd_loss(student_emb, teacher_emb, cfg: DistillConfig, center: np.ndarray | None = None) -> Tensor:
    """Embedding-matching loss between student and detached teacher batches.

    cosine: mean(1 - cos), in [0, 2], with cos the clipped per-row cosine of
    autodiff.cosine_similarity; five tape entries. A row whose student or
    teacher embedding has zero norm has cos 0, so it adds exactly 1 / B and
    no gradient; such rows raise one RuntimeWarning per call.
    mse: mean squared elementwise difference.
    cross_entropy: the mean over rows of H(softmax((teacher - center)/tau_t),
    softmax(student/tau_s)) as one autodiff.cross_entropy tape entry, whose
    probability target is the teacher softmax, computed here in float64.
    """
    s = student_emb if isinstance(student_emb, Tensor) else Tensor(student_emb)
    tch = teacher_emb.detach() if isinstance(teacher_emb, Tensor) else Tensor(np.asarray(teacher_emb))
    if s.ndim != 2 or s.shape != tch.shape:
        raise DimensionError(f"expected matching [B, d] embeddings, got {s.shape} vs {tch.shape}")
    if cfg.loss_variant == "mse":
        diff = ad.add(s, ad.mul(tch, -1.0))
        return ad.mean(ad.mul(diff, diff))
    if cfg.loss_variant == "cross_entropy":
        c = np.zeros(s.shape[1], dtype=np.float64) if center is None else center
        shifted = (tch.data.astype(np.float64) - c) / cfg.temperature_teacher
        shifted -= shifted.max(axis=1, keepdims=True)
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        return ad.cross_entropy(s, p, temperature=cfg.temperature_student)
    # cosine; n_zero counts the rows whose norm product cosine_similarity finds zero
    n_zero = np.count_nonzero(np.linalg.norm(s.data, axis=1) * np.linalg.norm(tch.data, axis=1) == 0)
    if n_zero:
        warnings.warn(
            f"cosine loss: {n_zero} zero-norm embedding rows contribute loss 1",
            RuntimeWarning,
            stacklevel=2,
        )
    return ad.mean(ad.add(ad.mul(ad.cosine_similarity(s, tch), -1.0), 1.0))


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
    """Teacher <- m * teacher + (1 - m) * student, elementwise and in place, no gradients."""
    if not 0.0 <= m <= 1.0:
        raise ConfigurationError(f"EMA momentum must be in [0, 1], got {m}")
    student = dict(pair.student.named_parameters())
    for name, tp in pair.teacher.named_parameters():
        sp = student.get(name)
        if sp is None or sp.data.shape != tp.data.shape:
            raise RuntimeError(f"student/teacher structure mismatch at {name}")
        tp.data *= tp.data.dtype.type(m)
        tp.data += tp.data.dtype.type(1.0 - m) * sp.data


# ---------------------------------------------------------------------------
# pretraining loop


@dataclass
class PretrainLogRow:
    """One pretraining step: its loss, the EMA momentum it applied and the student's spread.

    embed_std is the mean over dimensions of the per-dimension std, over the
    batch, of the student's training output: the projector output when
    projection_head is true, otherwise the backbone embedding.
    """

    step: int
    loss: float
    momentum: float
    embed_std: float


@dataclass
class PretrainResult:
    pair: StudentTeacherPair
    log: list[PretrainLogRow]


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
        sgd_step(params, backward(loss, tape, params), opt)
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
        # the tape holds every activation of the student forward; freed here, it
        # does not live through the next step's batch render and teacher forward
        del tape, loss, s
    return PretrainResult(pair=pair, log=log)


def _sample_batch(dataset, cfg: DistillConfig, rng) -> tuple[np.ndarray, np.ndarray]:
    """One batch of (past, downsampled-combined) clips; each of the two batches is rendered by one call."""
    idx = downsample_indices(cfg.t, cfg.t_pred)
    clips = []
    for _ in range(cfg.batch_size):
        video = dataset[int(rng.integers(len(dataset)))]
        clips.append(sample_clip(video, cfg.t, cfg.t_pred, rng))
    shape = (cfg.batch_size, cfg.t, CHANNELS, FRAME_SIZE, FRAME_SIZE)
    past = render([(c.video, slice(c.start, c.start + cfg.t)) for c in clips], np.empty(shape, np.float32))
    combined = render([(c.video, c.start + idx) for c in clips], np.empty(shape, np.float32))
    return past, combined

