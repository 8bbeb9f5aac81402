"""Backbone zoo: shape contracts, determinism, trainability, head arithmetic."""

import numpy as np
import pytest

from futuredistill import autodiff as ad
from futuredistill import nn
from futuredistill.autodiff import (
    SgdState,
    Tape,
    Tensor,
    backward,
    sgd_step,
)
from futuredistill.errors import ConfigurationError, DimensionError
from futuredistill.models import (
    FAMILIES,
    BackboneSpec,
    PredictionHead,
    build_backbone,
)

from oracles import finite_difference_gradient, max_relative_error


def random_clip(rng, t, size=32):
    """A batch of one [T, C, H, W] clip."""
    return rng.random((1, t, 3, size, size)).astype(np.float32)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("t", [3, 6, 12])
def test_shape_contract(family, t):
    spec = BackboneSpec(family=family, frames=t)
    backbone = build_backbone(spec, seed=0)
    z = backbone.forward(random_clip(np.random.default_rng(1), t))
    assert z.shape == (1, spec.embed_dim)
    assert np.all(np.isfinite(z.data))


@pytest.mark.parametrize("family", FAMILIES)
def test_deterministic_build_and_embed(family):
    spec = BackboneSpec(family=family, frames=6)
    b1 = build_backbone(spec, seed=42)
    b2 = build_backbone(spec, seed=42)
    for (n1, p1), (n2, p2) in zip(b1.named_parameters(), b2.named_parameters()):
        assert n1 == n2
        assert p1.data.tobytes() == p2.data.tobytes()
    clip = random_clip(np.random.default_rng(0), 6)
    assert b1.forward(clip).data.tobytes() == b2.forward(clip).data.tobytes()


@pytest.mark.parametrize("family", FAMILIES)
def test_one_clip_embeds_as_its_row_of_a_batch(family):
    # a one-row product would run as a GEMV, which rounds unlike a row of a GEMM
    backbone = build_backbone(BackboneSpec(family=family, frames=6), seed=0)
    clips = np.random.default_rng(4).random((5, 6, 3, 32, 32)).astype(np.float32)
    with ad.no_grad():
        batch = backbone.forward(clips).data
        for i in range(len(clips)):
            assert backbone.forward(clips[i : i + 1]).data.tobytes() == batch[i : i + 1].tobytes(), i


@pytest.mark.parametrize("family", FAMILIES)
def test_one_clip_trains_through_getitem(family):
    # distill.batch_size = 1, or a one-window last batch: the clip runs as row 0
    # of a two-row batch, and Tensor.__getitem__ takes that row back out
    spec = BackboneSpec(family=family, frames=6)
    backbone = build_backbone(spec, seed=0)
    tape = Tape()
    with tape:
        z = backbone.forward(random_clip(np.random.default_rng(2), 6))
        loss = ad.sum_(ad.mul(z, z))
    assert z.shape == (1, spec.embed_dim)
    assert any(entry.backward_rule.__qualname__ == "getitem.<locals>.rule" for entry in tape.entries)
    names, params = zip(*backbone.named_parameters())
    for name, g in zip(names, backward(loss, tape, params)):
        assert g is not None and np.all(np.isfinite(g)), name


def test_different_seeds_differ():
    spec = BackboneSpec(family="Conv2dRecurrent", frames=6)
    b1 = build_backbone(spec, seed=0)
    b2 = build_backbone(spec, seed=1)
    assert not np.array_equal(b1.proj.weight.data, b2.proj.weight.data)


@pytest.mark.parametrize("family", FAMILIES)
def test_zero_final_projection_gives_zero_embedding(family):
    backbone = build_backbone(BackboneSpec(family=family, frames=3), seed=0)
    backbone.proj.weight.data[:] = 0.0
    backbone.proj.bias.data[:] = 0.0
    z = backbone.forward(random_clip(np.random.default_rng(2), 3))
    assert np.array_equal(z.data, np.zeros_like(z.data))


def test_conv3d_family_is_temporally_sensitive():
    backbone = build_backbone(BackboneSpec(family="Conv3dResidual", frames=6), seed=0)
    rng = np.random.default_rng(3)
    for _ in range(3):
        clip = random_clip(rng, 6)
        z_fwd = backbone.forward(clip).data
        z_rev = backbone.forward(clip[:, ::-1].copy()).data
        assert np.linalg.norm(z_fwd - z_rev) > 1e-6


def test_frame_count_mismatch_raises():
    backbone = build_backbone(BackboneSpec(family="Conv2dRecurrent", frames=6), seed=0)
    with pytest.raises(DimensionError):
        backbone.forward(random_clip(np.random.default_rng(0), 12))


def test_unknown_family_rejected():
    with pytest.raises(ConfigurationError):
        build_backbone(BackboneSpec(family="Resnet50", frames=6), seed=0)


# the conv families halve the frame twice, then pool 2x2; attention cuts it into 4x4 patches here
FITTING_FRAME_SIZES = {
    "Conv3dResidual": {16, 24, 32},
    "Conv2dRecurrent": {16, 24, 32},
    "TemporalTransformer": {4, 12, 16, 20, 24, 32},
    "PatchTransformerRecurrent": {4, 12, 16, 20, 24, 32},
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("frame_size", [0, 4, 12, 16, 20, 24, 32])
def test_frame_size_the_family_cannot_pool_is_rejected(family, frame_size):
    spec = BackboneSpec(family=family, frames=3, embed_dim=16, frame_size=frame_size, patch_size=4, recurrent_hidden=16)
    if frame_size not in FITTING_FRAME_SIZES[family]:
        with pytest.raises(ConfigurationError, match="backbone.frame_size"):
            build_backbone(spec, seed=0)
        return
    z = build_backbone(spec, seed=0).forward(random_clip(np.random.default_rng(4), 3, size=frame_size))
    assert z.shape == (1, 16) and np.all(np.isfinite(z.data))


def test_parameter_count_hand_audit():
    # Conv2dRecurrent, widths (8, 16), 4x4 feature grid, hidden 64, embed 64:
    feat_dim = 16 * 4 * 4
    conv1 = 8 * 3 * 3 * 3 + 8
    conv2 = 16 * 8 * 3 * 3 + 16
    feat_norm = feat_dim + feat_dim
    lstm = feat_dim * 4 * 64 + 64 * 4 * 64 + 4 * 64
    state_norm = 64 + 64
    proj = 64 * 64 + 64
    expected = conv1 + conv2 + feat_norm + lstm + state_norm + proj
    backbone = build_backbone(BackboneSpec(family="Conv2dRecurrent", frames=6), seed=0)
    assert backbone.parameter_count() == expected


@pytest.mark.parametrize("family", FAMILIES)
def test_backbone_trains_on_separable_toy_task(family):
    # class 1 clips carry a bright top-left block; 50 steps must cut the loss
    spec = BackboneSpec(family=family, frames=3)
    backbone = build_backbone(spec, seed=0)
    head = nn.Linear(spec.embed_dim, 2, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    params = backbone.parameters() + head.parameters()
    state = SgdState(learning_rate=0.05, momentum=0.9)
    losses = []
    for _ in range(50):
        clips = rng.random((8, 3, 3, 32, 32)).astype(np.float32) * 0.2
        labels = rng.integers(0, 2, size=8)
        clips[labels == 1, :, :, :16, :16] += 0.8
        tape = Tape()
        with tape:
            z = backbone.forward(Tensor(clips))
            loss = ad.cross_entropy(head(z), labels)
        sgd_step(params, backward(loss, tape, params), state)
        losses.append(loss.item())
    assert np.mean(losses[-10:]) < 0.8 * np.mean(losses[:10])


class TestHeads:
    def test_zero_weights_zero_logits_argmax_lowest(self):
        head = PredictionHead(4, horizon=3, n_classes=7, rng=np.random.default_rng(0))
        head.linear.weight.data[:] = 0.0
        head.linear.bias.data[:] = 0.0
        logits = head(Tensor(np.ones(4, dtype=np.float32)))
        assert logits.shape == (3, 7)
        assert np.array_equal(logits.data, np.zeros((3, 7), dtype=np.float32))
        assert np.all(np.argmax(logits.data, axis=1) == 0)

    def test_hand_product_d1(self):
        head = PredictionHead(1, horizon=2, n_classes=2, rng=np.random.default_rng(0))
        head.linear.weight.data = np.array([[1.0, 2.0, 3.0, 4.0]], dtype=np.float32)
        head.linear.bias.data = np.array([0.5, 0.0, -0.5, 1.0], dtype=np.float32)
        logits = head(Tensor(np.array([2.0], dtype=np.float32)))
        assert np.allclose(logits.data, [[2.5, 4.0], [5.5, 9.0]])

    def test_ce_gradient_through_head_weights(self):
        rng = np.random.default_rng(5)
        head = PredictionHead(4, horizon=3, n_classes=5, rng=rng)
        head.linear.to_dtype(np.float64)
        z = Tensor(rng.normal(size=(6, 4)))
        labels = rng.integers(0, 5, size=(6, 3))

        def loss_fn():
            logits = head(Tensor(z.data.astype(np.float64)))
            flat = ad.reshape(logits, (6 * 3, 5))
            return ad.cross_entropy(flat, labels.reshape(-1))

        tape = Tape()
        with tape:
            loss = loss_fn()
        w = head.linear.weight
        (gw,) = backward(loss, tape, [w])

        def f(t):
            saved = w.data
            w.data = t.data
            try:
                return loss_fn()
            finally:
                w.data = saved

        fd = finite_difference_gradient(f, w)
        assert max_relative_error(fd.data, gw) < 1e-4
