"""Four toy video backbones plus the downstream prediction head.

Two families consume the clip jointly (3D conv net, temporal transformer over
all frame patches); two encode frames independently and aggregate with a
recurrent cell (2D conv + LSTM, per-frame patch transformer + LSTM). Every
family maps a [T, C, H, W] clip to an embed_dim vector.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .errors import ConfigurationError, DimensionError

log = logging.getLogger(__name__)

@dataclass
class BackboneSpec:
    """Architecture hyperparameters; frames fixes the clip length the net accepts."""

    family: str = "Conv2dRecurrent"
    frames: int = 12
    embed_dim: int = 64
    channels: int = 3
    frame_size: int = 32
    conv_widths: tuple[int, int] = (8, 16)
    patch_size: int = 8
    recurrent_hidden: int = 64
    heads: int = 2
    blocks: int = 2

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown backbone family {self.family!r}; pick one of {FAMILIES}")
        if self.frames < 1 or self.embed_dim < 1:
            raise ConfigurationError(f"frames and embed_dim must be positive, got {self.frames}, {self.embed_dim}")
        if len(self.conv_widths) != 2 or min(self.conv_widths) < 1:
            raise ConfigurationError(f"backbone.conv_widths must be two ints >= 1, got {self.conv_widths}")
        for key in ("patch_size", "recurrent_hidden"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"backbone.{key} must be >= 1, got {getattr(self, key)}")
        attention = self.family in ("TemporalTransformer", "PatchTransformerRecurrent")
        if attention and (self.heads < 1 or self.embed_dim % self.heads):
            raise ConfigurationError(
                f"backbone.heads must be >= 1 and divide embed_dim {self.embed_dim} for {self.family}, got {self.heads}"
            )
        unit = self.patch_size if attention else 8  # conv: two stride-2 stages, then 2x2 pooling
        if self.frame_size < 1 or self.frame_size % unit:
            raise ConfigurationError(
                f"backbone.frame_size must be a positive multiple of {unit} for {self.family}, got {self.frame_size}"
            )


class Backbone(nn.Module):
    """Common clip-shape validation; subclasses implement _forward on [B,T,C,H,W]."""

    def __init__(self, spec: BackboneSpec):
        self.spec_frames = spec.frames
        self.spec_channels = spec.channels
        self.spec_size = spec.frame_size

    def forward(self, clips) -> Tensor:
        clips = clips if isinstance(clips, Tensor) else Tensor(clips)
        if clips.ndim != 5:
            raise DimensionError(f"expected [B, T, C, H, W] clips, got shape {clips.shape}")
        _, t, c, h, w = clips.shape
        if t != self.spec_frames:
            raise DimensionError(f"clip has {t} frames but this backbone was built for {self.spec_frames}")
        if (c, h, w) != (self.spec_channels, self.spec_size, self.spec_size):
            raise DimensionError(
                f"frame dims {(c, h, w)} do not match spec "
                f"{(self.spec_channels, self.spec_size, self.spec_size)}"
            )
        if clips.shape[0] == 1:
            # one clip runs as row 0 of a batch of two copies: at batch 1 numpy
            # runs the LSTM's one-row products as GEMVs and reduces the
            # batch-innermost conv activations and layer-norm rows in another
            # order, so the embedding would round unlike its row of a larger batch
            return self._forward(ad.mul(clips, np.ones((2, 1, 1, 1, 1), clips.dtype)))[:1]
        return self._forward(clips)

    __call__ = forward

    def _forward(self, clips: Tensor) -> Tensor:
        raise NotImplementedError


class ResidualConv3dBlock(nn.Module):
    """Residual 3D conv pair; the branch scale starts at zero for stability."""

    def __init__(self, width: int, rng):
        self.conv1 = nn.Conv(width, width, (3, 3, 3), 1, 1, rng, relu=True)
        self.conv2 = nn.Conv(width, width, (3, 3, 3), 1, 1, rng, relu=False)
        self.scale = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)

    def __call__(self, x) -> Tensor:
        y = self.conv2(self.conv1(x))
        return ad.relu(ad.add(x, ad.mul(y, self.scale)))


class Conv3dResidual(Backbone):
    """3D conv net with residual blocks; joint space-time receptive field."""

    def __init__(self, spec: BackboneSpec, rng):
        super().__init__(spec)
        w1, w2 = spec.conv_widths
        self.stem = nn.Conv(spec.channels, w1, (3, 3, 3), (1, 2, 2), 1, rng, relu=True)
        self.block1 = ResidualConv3dBlock(w1, rng)
        self.down = nn.Conv(w1, w2, (3, 3, 3), (2, 2, 2), 1, rng, relu=True)
        self.block2 = ResidualConv3dBlock(w2, rng)
        grid = spec.frame_size // 8  # two stride-2 stages then 2x2 pooling
        self.norm = nn.LayerNorm(w2 * grid * grid)
        self.proj = nn.Linear(w2 * grid * grid, spec.embed_dim, rng)

    def _forward(self, clips: Tensor) -> Tensor:
        x = ad.transpose(clips, (0, 2, 1, 3, 4))  # [B, C, T, H, W]
        x = self.block1(self.stem(x))
        x = self.block2(self.down(x))
        x = _pool2x2(ad.mean(x, axis=2))  # time-pooled, coarse spatial grid kept
        flat = ad.reshape(x, (x.shape[0], -1))
        return self.proj(self.norm(flat))


def _patchify(clips: Tensor, patch: int) -> Tensor:
    """[B, T, C, H, W] -> [B, T*P, C*patch*patch] with P patches per frame."""
    b, t, c, h, w = clips.shape
    g = h // patch
    x = ad.reshape(clips, (b, t, c, g, patch, g, patch))
    x = ad.transpose(x, (0, 1, 3, 5, 2, 4, 6))  # [B, T, g, g, C, p, p]
    return ad.reshape(x, (b, t * g * g, c * patch * patch))


def _pool2x2(x: Tensor) -> Tensor:
    """Average-pool the trailing two spatial dims by a factor of 2.

    The window mean rounds by x's memory layout as well as its values: it adds
    (x00 + x01) + (x10 + x11) on a C-contiguous x and ((x00 + x01) + x10) + x11
    on a batch-innermost one. So a contiguous copy of an activation upstream
    moves Conv3dResidual's outputs, as it does through layer_norm.
    """
    *lead, h, w = x.shape
    y = ad.reshape(x, (*lead, h // 2, 2, w // 2, 2))
    return ad.mean(y, axis=(-3, -1))


class TemporalTransformer(Backbone):
    """Attention over every patch of every frame: joint spatio-temporal mixing."""

    def __init__(self, spec: BackboneSpec, rng):
        super().__init__(spec)
        dm = spec.embed_dim
        grid = spec.frame_size // spec.patch_size
        self.patch = spec.patch_size
        tokens = spec.frames * grid * grid
        self.embed = nn.Linear(spec.channels * spec.patch_size**2, dm, rng)
        self.pos = nn.uniform_init(rng, (tokens, dm), dm)
        self.blocks = [nn.TransformerBlock(dm, spec.heads, rng) for _ in range(spec.blocks)]
        self.norm = nn.LayerNorm(dm)
        self.proj = nn.Linear(dm, spec.embed_dim, rng)

    def _forward(self, clips: Tensor) -> Tensor:
        x = ad.add(self.embed(_patchify(clips, self.patch)), self.pos)
        for block in self.blocks:
            x = block(x)
        pooled = ad.mean(self.norm(x), axis=1)  # [B, dm]
        return self.proj(pooled)


class FrameConvEncoder(nn.Module):
    """Small strided 2D conv stack mapping one frame to a coarse-grid feature vector."""

    def __init__(self, channels: int, frame_size: int, widths: tuple[int, int], rng):
        w1, w2 = widths
        self.conv1 = nn.Conv(channels, w1, (3, 3), 2, 1, rng, relu=True)
        self.conv2 = nn.Conv(w1, w2, (3, 3), 2, 1, rng, relu=True)
        grid = frame_size // 8  # two stride-2 stages then 2x2 pooling
        self.out_dim = w2 * grid * grid

    def __call__(self, frames) -> Tensor:
        x = self.conv2(self.conv1(frames))
        x = _pool2x2(x)  # [N, w2, grid, grid]
        return ad.reshape(x, (x.shape[0], -1))


class Conv2dRecurrent(Backbone):
    """Per-frame 2D conv encoder followed by an LSTM over time."""

    def __init__(self, spec: BackboneSpec, rng):
        super().__init__(spec)
        self.encoder = FrameConvEncoder(spec.channels, spec.frame_size, spec.conv_widths, rng)
        self.feat_norm = nn.LayerNorm(self.encoder.out_dim)
        self.rnn = nn.LstmCell(self.encoder.out_dim, spec.recurrent_hidden, rng)
        self.norm = nn.LayerNorm(spec.recurrent_hidden)
        self.proj = nn.Linear(spec.recurrent_hidden, spec.embed_dim, rng)

    def _forward(self, clips: Tensor) -> Tensor:
        b, t, c, h, w = clips.shape
        frames = ad.reshape(clips, (b * t, c, h, w))
        feats = self.feat_norm(ad.reshape(self.encoder(frames), (b, t, self.encoder.out_dim)))
        return self.proj(self.norm(self.rnn.run(feats)))


class PatchTransformerRecurrent(Backbone):
    """Per-frame patch transformer (spatial attention only) plus an LSTM over time."""

    def __init__(self, spec: BackboneSpec, rng):
        super().__init__(spec)
        dm = spec.embed_dim
        grid = spec.frame_size // spec.patch_size
        self.patch = spec.patch_size
        self.embed = nn.Linear(spec.channels * spec.patch_size**2, dm, rng)
        self.pos = nn.uniform_init(rng, (grid * grid, dm), dm)
        self.block = nn.TransformerBlock(dm, spec.heads, rng)
        self.norm = nn.LayerNorm(dm)
        self.rnn = nn.LstmCell(dm, spec.recurrent_hidden, rng)
        self.state_norm = nn.LayerNorm(spec.recurrent_hidden)
        self.proj = nn.Linear(spec.recurrent_hidden, spec.embed_dim, rng)

    def _forward(self, clips: Tensor) -> Tensor:
        b, t, c, h, w = clips.shape
        grid_tokens = (h // self.patch) ** 2
        patches = _patchify(clips, self.patch)  # [B, T*P, pdim]
        patches = ad.reshape(patches, (b * t, grid_tokens, patches.shape[-1]))
        x = self.block(ad.add(self.embed(patches), self.pos))
        frame_feats = ad.mean(self.norm(x), axis=1)  # [B*T, dm]
        feats = ad.reshape(frame_feats, (b, t, frame_feats.shape[-1]))
        return self.proj(self.state_norm(self.rnn.run(feats)))


_FAMILY_CLASSES = {
    "Conv3dResidual": Conv3dResidual,
    "TemporalTransformer": TemporalTransformer,
    "Conv2dRecurrent": Conv2dRecurrent,
    "PatchTransformerRecurrent": PatchTransformerRecurrent,
}
FAMILIES = tuple(_FAMILY_CLASSES)


def build_backbone(spec: BackboneSpec, seed: int) -> Backbone:
    """Deterministically initialize a backbone; same (spec, seed) -> same bits."""
    spec.validate()
    rng = np.random.default_rng(seed)
    backbone = _FAMILY_CLASSES[spec.family](spec, rng)
    log.info("built %s: %d parameters", spec.family, backbone.parameter_count())
    return backbone


class PredictionHead(nn.Module):
    """Affine map from one embedding to per-future-frame class logits."""

    def __init__(self, embed_dim: int, horizon: int, n_classes: int, rng):
        self.linear = nn.Linear(embed_dim, horizon * n_classes, rng)
        self.horizon = horizon
        self.n_classes = n_classes

    def __call__(self, z) -> Tensor:
        logits = self.linear(z)
        lead = logits.shape[:-1]
        return ad.reshape(logits, (*lead, self.horizon, self.n_classes))
