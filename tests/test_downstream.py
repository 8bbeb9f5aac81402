"""Protocols, macro-precision metric, and the evaluation plumbing."""

import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from futuredistill import autodiff as ad
from futuredistill import downstream
from futuredistill.autodiff import SgdState, Tape, Tensor, backward, no_grad, sgd_step
from futuredistill.downstream import (
    FinetuneConfig,
    Protocol,
    _batch_arrays,
    evaluate_model,
    evaluate_precision,
    feature_stats,
    finetune,
    fold_standardization,
    window_clips,
)
from futuredistill.errors import ConfigurationError, DimensionError
from futuredistill.models import BackboneSpec, PredictionHead, build_backbone
from futuredistill.synthdata import N_ACTIONS, ClipSample, eval_clip_starts, make_dataset, split_dataset


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


T, T_PRED = 6, 6  # the horizon of every clip below


@pytest.fixture(scope="module")
def small_world():
    """(train, val, test) windows of six short videos, as clips of T past and T_PRED future frames."""
    videos = make_dataset(master_seed=2, n_videos=6, frames_per_video=96)
    return tuple(window_clips(split, T, T_PRED) for split in split_dataset(videos, ratios=(0.5, 0.25, 0.25), seed=0))


def quick_cfg(**kw):
    base = dict(task="prediction", epochs=1, learning_rate=0.02, batch_size=16)
    base.update(kw)
    return FinetuneConfig(**base)


def make_head(spec, seed):
    return PredictionHead(spec.embed_dim, T_PRED, N_ACTIONS, np.random.default_rng(seed))


class TestFinetune:
    def test_linear_probe_freezes_backbone_bits(self, small_world):
        train, _, _ = small_world
        spec = BackboneSpec(family="Conv2dRecurrent", frames=T)
        backbone = build_backbone(spec, seed=0)
        before = params_hash(backbone)
        cfg = quick_cfg()
        head = make_head(spec, 9)
        head_before = params_hash(head)
        finetune(backbone, head, Protocol.LINEAR_PROBE, train, cfg, seed=0)
        assert params_hash(backbone) == before
        assert params_hash(head) != head_before  # the head did train

    def test_folded_head_gives_the_standardized_logits(self):
        # frozen embeddings: a large constant component, and one constant dimension whose sigma is the floor
        rng = np.random.default_rng(4)
        z = (4.0 + rng.normal(0.0, 0.5, (600, 64)) * rng.uniform(0.1, 2.0, 64)).astype(np.float32)
        z[:, 3] = 7.25
        mu, sigma = feature_stats(z)
        assert sigma[3] == np.float32(1e-3 * float(z[:512].std(axis=0).mean()))
        head = PredictionHead(64, T_PRED, N_ACTIONS, rng)
        w, b = head.linear.weight.data.astype(np.float64), head.linear.bias.data.astype(np.float64)
        want = (z - mu.astype(np.float64)) / sigma.astype(np.float64) @ w + b
        fold_standardization(head.linear, mu, 1.0 / sigma)
        with no_grad():
            got = head(Tensor(z)).data.reshape(want.shape)
        # float32 rounds each term of z @ W' + b', and the 1/sigma-sized terms of a floored
        # dimension cancel: allow 16 float32 ulps of the sum of the terms' magnitudes
        terms = np.abs(z) @ np.abs(head.linear.weight.data.astype(np.float64)) + np.abs(head.linear.bias.data)
        assert np.all(np.abs(got - want) <= 16 * np.finfo(np.float32).eps * terms)

    def test_zero_epochs_is_identity(self, small_world):
        train, _, _ = small_world
        spec = BackboneSpec(family="Conv2dRecurrent", frames=T)
        backbone = build_backbone(spec, seed=0)
        cfg = quick_cfg(epochs=0)
        head = make_head(spec, 9)
        before = params_hash(backbone), params_hash(head)
        finetune(backbone, head, Protocol.FINE_TUNE, train, cfg, seed=0)
        assert (params_hash(backbone), params_hash(head)) == before

    def test_fine_tune_updates_backbone(self, small_world):
        train, _, _ = small_world
        spec = BackboneSpec(family="Conv2dRecurrent", frames=T)
        backbone = build_backbone(spec, seed=0)
        before = params_hash(backbone)
        cfg = quick_cfg()
        head = make_head(spec, 9)
        finetune(backbone, head, Protocol.FINE_TUNE, train, cfg, seed=0)
        assert params_hash(backbone) != before

    def test_step_tape_is_freed_before_the_next_batch(self, small_world, monkeypatch):
        # step k's tape holds every backbone activation; none may be alive while
        # step k + 1 renders its batch
        tapes, alive_at_batch = [], []

        class TrackedTape(Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        def checking_batch(*args):
            alive_at_batch.append(sum(ref() is not None for ref in tapes))
            return _batch_arrays(*args)

        monkeypatch.setattr(downstream, "Tape", TrackedTape)
        monkeypatch.setattr(downstream, "_batch_arrays", checking_batch)
        train, _, _ = small_world
        spec = BackboneSpec(family="Conv2dRecurrent", frames=T)
        cfg = quick_cfg()
        head = make_head(spec, 9)
        finetune(build_backbone(spec, seed=0), head, Protocol.FINE_TUNE, train, cfg, seed=0)
        assert len(tapes) == len(alive_at_batch) >= 2
        assert alive_at_batch == [0] * len(tapes)

    def test_identical_model_evaluates_identically(self, small_world):
        _, _, test = small_world
        spec = BackboneSpec(family="Conv2dRecurrent", frames=T)
        backbone = build_backbone(spec, seed=1)
        cfg = quick_cfg()
        head = make_head(spec, 5)
        a = evaluate_model(backbone, head, test)
        b = evaluate_model(backbone, head, test)
        assert a.macro_precision == b.macro_precision
        assert np.array_equal(a.confusion, b.confusion)

    def test_batch_arrays_equal_slices_of_fully_decoded_videos(self, small_world):
        clips = small_world[0][3:40]
        frames, labels = _batch_arrays(clips)
        want = np.stack([c.video.decode()[c.start : c.start + T] for c in clips])
        assert frames.dtype == np.float32 and frames.tobytes() == want.tobytes()
        want_labels = [c.video.labels[c.start + T : c.start + T + T_PRED] for c in clips]
        assert labels.dtype == np.int64 and np.array_equal(labels, want_labels)

    def test_window_clips_are_the_strided_windows_of_each_video(self):
        videos = make_dataset(master_seed=2, n_videos=2, frames_per_video=40)
        clips = window_clips(videos, 5, 3)
        want = [(v, s) for v in videos for s in eval_clip_starts(len(v), 5, 3)]
        assert [(c.video, c.start) for c in clips] == want
        assert all(type(c) is ClipSample and (c.t, c.t_pred) == (5, 3) for c in clips)
        with pytest.raises(ConfigurationError, match="no clips of 41 frames"):
            window_clips(videos, 38, 3)

    def test_clips_are_built_once_not_per_batch(self, small_world, monkeypatch):
        calls = []
        monkeypatch.setattr(downstream, "clip_at", lambda *args: calls.append(args))
        train, _, test = small_world
        spec = BackboneSpec(family="Conv2dRecurrent", frames=T)
        for protocol in (Protocol.LINEAR_PROBE, Protocol.FINE_TUNE):
            model, _ = finetune(build_backbone(spec, seed=0), make_head(spec, 9), protocol, train, quick_cfg(), seed=0)
            evaluate_model(model.backbone, model.head, test)
        assert calls == []

    def test_protocol_parse(self):
        assert Protocol.parse("linear_probe") is Protocol.LINEAR_PROBE
        assert Protocol.parse("FINE_TUNE") is Protocol.FINE_TUNE
        with pytest.raises(ConfigurationError):
            Protocol.parse("zero_shot")


def reference_linear_probe(backbone, head, windows, cfg, seed):
    """The per-batch probe: mu and sigma from a separate pass, every window re-embedded and standardized each epoch.

    Returns the bare head as trained on (z - mu) * (1 / sigma), the epoch
    losses, mu and sigma.
    """
    first = windows[:512]
    feats = []
    for lo in range(0, len(first), 64):
        clips, _ = _batch_arrays(first[lo : lo + 64])
        with no_grad():
            feats.append(backbone.forward(Tensor(clips)).data)
    z = np.concatenate(feats)
    mu, sigma = z.mean(axis=0), z.std(axis=0)
    sigma = np.maximum(sigma, max(1e-6, 1e-3 * float(sigma.mean())))
    params = head.parameters()
    opt = SgdState(learning_rate=cfg.learning_rate, momentum=cfg.sgd_momentum)
    rng = np.random.default_rng([seed, 3])
    losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(windows))
        epoch_losses = []
        for lo in range(0, len(order), cfg.batch_size):
            clips, labels = _batch_arrays([windows[i] for i in order[lo : lo + cfg.batch_size]])
            with no_grad():
                z = backbone.forward(Tensor(clips)).data
            tape = Tape()
            with tape:
                loss = ad.cross_entropy(head(Tensor((z - mu) * (1.0 / sigma))), labels)
            sgd_step(params, backward(loss, tape, params), opt)
            epoch_losses.append(loss.item())
        losses.append(float(np.mean(epoch_losses)))
    return head, losses, mu, sigma


def reference_evaluate(backbone, head, windows):
    """Argmax predictions with the head applied chunk by chunk, 64 windows at a time."""
    preds, golds = [], []
    for lo in range(0, len(windows), 64):
        clips, labels = _batch_arrays(windows[lo : lo + 64])
        with no_grad():
            logits = head(backbone.forward(Tensor(clips)))
        preds.append(np.argmax(logits.data, axis=-1).reshape(-1))
        golds.append(labels.reshape(-1))
    return evaluate_precision(np.concatenate(preds), np.concatenate(golds), N_ACTIONS)


class TestEmbedOnce:
    def test_linear_probe_embeds_each_train_window_once(self, small_world, monkeypatch):
        train, _, _ = small_world
        cfg = quick_cfg(epochs=2)
        spec = BackboneSpec(family="Conv2dRecurrent", frames=T)
        backbone = build_backbone(spec, seed=0)
        rows = []
        forward = backbone.forward

        def counting_forward(clips):
            rows.append(clips.shape[0])
            return forward(clips)

        monkeypatch.setattr(backbone, "forward", counting_forward)
        head = make_head(spec, 9)
        finetune(backbone, head, Protocol.LINEAR_PROBE, train, cfg)
        assert sum(rows) == len(train)

    @pytest.mark.parametrize("family", ["Conv2dRecurrent", "TemporalTransformer"])
    def test_probe_and_evaluation_bitwise_equal_to_per_batch_reference(self, small_world, family):
        train, _, test = small_world
        cfg = quick_cfg(epochs=2)
        spec = BackboneSpec(family=family, frames=T)
        backbone = build_backbone(spec, seed=0)
        head = make_head(spec, 9)
        ref_head, ref_losses, mu, sigma = reference_linear_probe(backbone, head.copy(), train, cfg, seed=0)
        fold_standardization(ref_head.linear, mu, 1.0 / sigma)
        model, log = finetune(backbone, head, Protocol.LINEAR_PROBE, train, cfg, seed=0)
        assert [row.loss for row in log] == ref_losses
        assert params_hash(model.head) == params_hash(ref_head)
        got = evaluate_model(backbone, model.head, test)
        want = reference_evaluate(backbone, ref_head, test)
        assert got.macro_precision == want.macro_precision
        assert got.n_frames == want.n_frames
        assert np.array_equal(got.per_class, want.per_class)
        assert np.array_equal(got.confusion, want.confusion)
