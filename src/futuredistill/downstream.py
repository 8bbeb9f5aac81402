"""Downstream action prediction under three protocols.

One embedding of the past t frames maps to per-frame logits for the next
t_pred frames, trained with cross-entropy over every predicted frame; macro
precision over those frames is the headline metric.
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
from .models import BackboneSpec, PredictionHead, build_backbone
from .synthdata import CHANNELS, FRAME_SIZE, N_ACTIONS, ClipSample, SyntheticVideo, clip_at, eval_clip_starts, render

TASK = "prediction"  # the only downstream task


class Protocol(Enum):
    """The protocol arms, in the order a cell runs them and a report lists them."""

    LINEAR_PROBE = "linear_probe"
    FINE_TUNE = "fine_tune"
    FULL_SUPERVISED = "supervised"

    @classmethod
    def parse(cls, name: str) -> "Protocol":
        for p in cls:
            if p.value == name or p.name.lower() == name.lower():
                return p
        raise ConfigurationError(f"unknown protocol {name!r}; pick from {[p.value for p in cls]}")


@dataclass
class FinetuneConfig:
    """Supervised-stage hyperparameters shared by all three protocols: the [downstream] section.

    The horizon is not here: the clips carry t and t_pred, which [distill]
    decides, and the head predicts N_ACTIONS classes. task names the
    downstream task, and action prediction is the only one.
    """

    task: str = TASK
    epochs: int = 10
    learning_rate: float = 0.02
    sgd_momentum: float = 0.9
    batch_size: int = 32

    def validate(self) -> None:
        if self.task != TASK:
            raise ConfigurationError(f"unknown downstream.task {self.task!r}; the only task is {TASK!r}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigurationError(
                f"downstream.batch_size must be >= 1 and downstream.epochs >= 0, "
                f"got {self.batch_size}, {self.epochs}"
            )
        if self.learning_rate <= 0 or not 0.0 <= self.sgd_momentum < 1.0:
            raise ConfigurationError(
                f"downstream.learning_rate must be > 0 and downstream.sgd_momentum in [0, 1), "
                f"got {self.learning_rate}, {self.sgd_momentum}"
            )


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


# ---------------------------------------------------------------------------
# clip window plumbing


def window_clips(videos: list[SyntheticVideo], t: int, t_pred: int) -> list[ClipSample]:
    """The deterministic strided windows of the videos as clips of t past and t_pred future frames."""
    clips = [
        clip_at(video, start, t, t_pred) for video in videos for start in eval_clip_starts(len(video), t, t_pred)
    ]
    if not clips:
        raise ConfigurationError(f"no clips of {t + t_pred} frames fit the given videos")
    return clips


def _batch_arrays(clips: list[ClipSample]) -> tuple[np.ndarray, np.ndarray]:
    """The clips' past frames [N, t, 3, 32, 32], rendered by one call, and future labels [N, t_pred]."""
    t = clips[0].t
    frames = np.empty((len(clips), t, CHANNELS, FRAME_SIZE, FRAME_SIZE), np.float32)
    render([(c.video, slice(c.start, c.start + t)) for c in clips], frames)
    return frames, np.array([clip.future_labels for clip in clips], np.int64)


def embed_windows(backbone, clips: list[ClipSample]) -> tuple[np.ndarray, np.ndarray]:
    """No-grad embeddings z [N, d] of the clips, in order and 64 at a time, with their labels."""
    feats, targets = [], []
    for lo in range(0, len(clips), 64):
        frames, labels = _batch_arrays(clips[lo : lo + 64])
        with no_grad():
            feats.append(backbone.forward(Tensor(frames)).data)
        targets.append(labels)
    return np.concatenate(feats), np.concatenate(targets)


def feature_stats(z: np.ndarray):
    """Per-dimension mean/std of the first 512 embedding rows, label-free."""
    z = z[:512]
    sigma = z.std(axis=0)
    floor = max(1e-6, 1e-3 * float(sigma.mean()))
    return z.mean(axis=0), np.maximum(sigma, floor)


def fold_standardization(linear: nn.Linear, mu: np.ndarray, inv_sigma: np.ndarray) -> None:
    """Fold the input map z -> (z - mu) * inv_sigma into `linear`, in place.

    The layer then maps raw z to the same outputs: W' = diag(inv_sigma) W and
    b' = b - (mu * inv_sigma) W, computed in float64 and stored in the
    layer's float32.
    """
    w = linear.weight.data.astype(np.float64)
    scale = inv_sigma.astype(np.float64)
    linear.bias.data = (linear.bias.data - (mu.astype(np.float64) * scale) @ w).astype(np.float32)
    linear.weight.data = (w * scale[:, None]).astype(np.float32)


class ModelWithHead(nn.Module):
    def __init__(self, backbone, head):
        self.backbone = backbone
        self.head = head

    def forward(self, clips) -> Tensor:
        return self.head(self.backbone.forward(clips))


@dataclass
class FinetuneLogRow:
    """One fine-tune epoch and its mean train loss."""

    epoch: int
    loss: float


def finetune(
    backbone,
    head,
    protocol: Protocol,
    train_clips: list[ClipSample],
    cfg: FinetuneConfig,
    seed: int = 0,
) -> tuple[ModelWithHead, list[FinetuneLogRow]]:
    """Cross-entropy training on `train_clips`; LINEAR_PROBE leaves every backbone bit untouched.

    The clips decide the horizon: the backbone reads their t past frames and
    each step's loss is autodiff.cross_entropy of the head's [N, t_pred, C]
    logits against their [N, t_pred] future labels, the mean over every
    predicted frame. cfg gives the epochs, batch size and optimizer.

    Only LINEAR_PROBE standardizes the head's input: frozen-backbone
    embeddings concentrate around a large constant component that otherwise
    swamps the head's gradients, while trainable backbones adapt on their own
    and the amplified 1/sigma backprop would destabilize them. The probe
    trains the head on (z - mu) * (1/sigma), with feature_stats' mu and sigma,
    then folds that affine map into the head's linear layer, so the returned
    head reads raw embeddings like every other arm's.
    """
    cfg.validate()
    freeze_backbone = protocol is Protocol.LINEAR_PROBE
    if freeze_backbone:
        # the frozen backbone embeds each clip once; every epoch trains the head on these rows,
        # standardized in place in float32
        z, targets = embed_windows(backbone, train_clips)
        mu, sigma = feature_stats(z)
        inv_sigma = 1.0 / sigma
        z -= mu
        z *= inv_sigma
    model = ModelWithHead(backbone, head)
    params = head.parameters() if freeze_backbone else model.parameters()
    trained = head if freeze_backbone else model.forward
    opt = SgdState(learning_rate=cfg.learning_rate, momentum=cfg.sgd_momentum)
    rng = np.random.default_rng([seed, 3])
    log: list[FinetuneLogRow] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_clips))
        epoch_losses = []
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo : lo + cfg.batch_size]
            if freeze_backbone:
                inputs, labels = z[batch], targets[batch]
            else:
                inputs, labels = _batch_arrays([train_clips[i] for i in batch])
            tape = Tape()
            with tape:
                loss = ad.cross_entropy(trained(Tensor(inputs)), labels)
            val = loss.item()
            if not math.isfinite(val):
                raise DivergenceError(f"fine-tuning diverged at epoch {epoch} (loss={val!r})")
            sgd_step(params, backward(loss, tape, params), opt)
            epoch_losses.append(val)
            del tape, loss  # the step's activations, freed before the next batch is rendered
        log.append(FinetuneLogRow(epoch=epoch, loss=float(np.mean(epoch_losses))))
    if freeze_backbone:
        fold_standardization(head.linear, mu, inv_sigma)
    return model, log


def evaluate_model(backbone, head, clips: list[ClipSample]) -> EvalResult:
    """Argmax predictions for the future frames of the clips, as built by window_clips."""
    z, golds = embed_windows(backbone, clips)
    with no_grad():
        logits = head(Tensor(z))
    preds = np.argmax(logits.data, axis=-1)
    return evaluate_precision(preds.reshape(-1), golds.reshape(-1), N_ACTIONS)


# ---------------------------------------------------------------------------
# one protocol arm


def run_single_protocol(
    backbone_spec: BackboneSpec,
    student,
    protocol: Protocol,
    clips: tuple[list[ClipSample], list[ClipSample]],
    tune_cfg: FinetuneConfig,
    seed: int,
) -> tuple[EvalResult, ModelWithHead, list[FinetuneLogRow]]:
    """Train one protocol arm from `student` (ignored when FULL_SUPERVISED) on the (train, test) clips.

    Returns the arm's test result, the trained model and its per-epoch
    fine-tune losses.
    """
    train_clips, test_clips = clips
    if protocol is Protocol.FULL_SUPERVISED:
        arm_backbone = build_backbone(backbone_spec, seed)
    elif student is None:
        raise ConfigurationError(f"protocol {protocol.value} needs a pretrained student")
    else:
        arm_backbone = student.copy()
    rng = np.random.default_rng(seed + 1000)
    head = PredictionHead(backbone_spec.embed_dim, train_clips[0].t_pred, N_ACTIONS, rng)
    model, tune_log = finetune(arm_backbone, head, protocol, train_clips, tune_cfg, seed=seed)
    return evaluate_model(model.backbone, model.head, test_clips), model, tune_log
