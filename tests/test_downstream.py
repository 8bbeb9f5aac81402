"""Protocols, macro-precision metric, and the evaluation plumbing."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from futuredistill import autodiff as ad
from futuredistill.autodiff import Tensor
from futuredistill.downstream import (
    FinetuneConfig,
    Protocol,
    evaluate_model,
    evaluate_precision,
    finetune,
    majority_label,
    make_head,
)
from futuredistill.errors import ConfigurationError, DimensionError
from futuredistill.models import BackboneSpec, build_backbone
from futuredistill.synthdata import make_dataset, split_dataset


def brute_force_precision(preds, golds, n_classes):
    """Independent oracle: explicit per-class TP/FP counting."""
    per_class = []
    for c in range(n_classes):
        tp = sum(1 for p, g in zip(preds, golds) if p == c and g == c)
        fp = sum(1 for p, g in zip(preds, golds) if p == c and g != c)
        per_class.append(tp / (tp + fp) if (tp + fp) > 0 else 0.0)
    return sum(per_class) / n_classes, per_class


def params_hash(module):
    h = hashlib.sha256()
    for name, p in module.named_parameters():
        h.update(name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


class TestEvaluatePrecision:
    def test_perfect_predictions(self):
        labels = np.array([0, 1, 2, 3, 4, 5, 6] * 3)
        result = evaluate_precision(labels, labels, 7)
        assert result.macro_precision == 1.0
        assert np.all(result.per_class == 1.0)

    def test_always_class_zero_on_balanced_binary(self):
        golds = np.array([0, 1] * 10)
        preds = np.zeros(20, dtype=int)
        result = evaluate_precision(preds, golds, 2)
        assert result.per_class.tolist() == [0.5, 0.0]
        assert result.macro_precision == 0.25

    def test_matches_brute_force_on_random_labels(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 7, size=1000)
        golds = rng.integers(0, 7, size=1000)
        result = evaluate_precision(preds, golds, 7)
        macro, per_class = brute_force_precision(preds, golds, 7)
        assert abs(result.macro_precision - macro) < 1e-12
        assert np.allclose(result.per_class, per_class, atol=1e-12)

    def test_confusion_marginals(self):
        rng = np.random.default_rng(1)
        preds = rng.integers(0, 4, size=200)
        golds = rng.integers(0, 4, size=200)
        result = evaluate_precision(preds, golds, 4)
        assert result.confusion.sum() == 200
        assert np.array_equal(result.confusion.sum(axis=1), np.bincount(golds, minlength=4))
        assert np.array_equal(result.confusion.sum(axis=0), np.bincount(preds, minlength=4))

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigurationError):
            evaluate_precision(np.array([], dtype=int), np.array([], dtype=int), 7)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            evaluate_precision(np.zeros(3, dtype=int), np.zeros(4, dtype=int), 7)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_joint_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        preds = rng.integers(0, 5, size=120)
        golds = rng.integers(0, 5, size=120)
        perm = rng.permutation(120)
        a = evaluate_precision(preds, golds, 5)
        b = evaluate_precision(preds[perm], golds[perm], 5)
        assert a.macro_precision == b.macro_precision
        assert np.array_equal(a.confusion, b.confusion)


def test_majority_label_ties_to_lowest():
    assert majority_label(np.array([2, 2, 5, 5])) == 2
    assert majority_label(np.array([6, 6, 6, 1])) == 6


@pytest.fixture(scope="module")
def small_world():
    videos = make_dataset(master_seed=2, n_videos=6, frames_per_video=96)
    return split_dataset(videos, ratios=(0.5, 0.25, 0.25), seed=0)


def quick_cfg(**kw):
    base = dict(task="prediction", t=6, t_pred=6, epochs=1, learning_rate=0.02, batch_size=16)
    base.update(kw)
    return FinetuneConfig(**base)


class TestFinetune:
    def test_linear_probe_freezes_backbone_bits(self, small_world):
        train, _, _ = small_world
        spec = BackboneSpec(family="Conv2dRecurrent", frames=6)
        backbone = build_backbone(spec, seed=0)
        before = params_hash(backbone)
        head = make_head(quick_cfg(), spec.embed_dim, np.random.default_rng(9))
        head_before = params_hash(head)
        finetune(backbone, head, Protocol.LINEAR_PROBE, train, quick_cfg(), seed=0)
        assert params_hash(backbone) == before
        assert params_hash(head) != head_before  # the head did train

    def test_zero_epochs_is_identity(self, small_world):
        train, _, _ = small_world
        spec = BackboneSpec(family="Conv2dRecurrent", frames=6)
        backbone = build_backbone(spec, seed=0)
        head = make_head(quick_cfg(), spec.embed_dim, np.random.default_rng(9))
        before = params_hash(backbone), params_hash(head)
        finetune(backbone, head, Protocol.FINE_TUNE, train, quick_cfg(epochs=0), seed=0)
        assert (params_hash(backbone), params_hash(head)) == before

    def test_fine_tune_updates_backbone(self, small_world):
        train, _, _ = small_world
        spec = BackboneSpec(family="Conv2dRecurrent", frames=6)
        backbone = build_backbone(spec, seed=0)
        before = params_hash(backbone)
        head = make_head(quick_cfg(), spec.embed_dim, np.random.default_rng(9))
        finetune(backbone, head, Protocol.FINE_TUNE, train, quick_cfg(), seed=0)
        assert params_hash(backbone) != before

    def test_recognition_task_trains_and_evaluates(self, small_world):
        train, _, test = small_world
        spec = BackboneSpec(family="Conv2dRecurrent", frames=6)
        cfg = quick_cfg(task="recognition", epochs=2)
        backbone = build_backbone(spec, seed=0)
        head = make_head(cfg, spec.embed_dim, np.random.default_rng(9))
        model, log = finetune(backbone, head, Protocol.FULL_SUPERVISED, train, cfg, seed=0)
        assert len(log) == 2
        result = evaluate_model(model.backbone, model.head, test, cfg)
        assert 0.0 <= result.macro_precision <= 1.0

    def test_identical_model_evaluates_identically(self, small_world):
        _, _, test = small_world
        spec = BackboneSpec(family="Conv2dRecurrent", frames=6)
        backbone = build_backbone(spec, seed=1)
        head = make_head(quick_cfg(), spec.embed_dim, np.random.default_rng(5))
        a = evaluate_model(backbone, head, test, quick_cfg())
        b = evaluate_model(backbone, head, test, quick_cfg())
        assert a.macro_precision == b.macro_precision
        assert np.array_equal(a.confusion, b.confusion)

    def test_protocol_parse(self):
        assert Protocol.parse("linear_probe") is Protocol.LINEAR_PROBE
        assert Protocol.parse("FINE_TUNE") is Protocol.FINE_TUNE
        with pytest.raises(ConfigurationError):
            Protocol.parse("zero_shot")
