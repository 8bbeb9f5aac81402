"""Distillation engine: downsampling rule, losses, EMA, schedule, pretrain loop."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from futuredistill import autodiff as ad
from futuredistill import distill as ds
from futuredistill import synthdata
from futuredistill.autodiff import (
    Tape,
    Tensor,
    backward,
)
from futuredistill.distill import (
    DistillConfig,
    StudentTeacherPair,
    downsample_indices,
    ema_update,
    fpd_loss,
    momentum_at,
    pretrain,
    update_center,
)
from futuredistill.errors import ConfigurationError, DimensionError, DivergenceError
from futuredistill.models import BackboneSpec, build_backbone
from futuredistill.reporting import read_log, write_log
from futuredistill.synthdata import make_dataset

from oracles import finite_difference_gradient, max_relative_error


class TestDownsampling:
    def test_equal_past_future_gives_step_two(self):
        idx = downsample_indices(t=12, t_pred=12)
        assert idx.tolist() == list(range(0, 24, 2))

    def test_degenerate_no_future_is_identity(self):
        assert downsample_indices(t=12, t_pred=0).tolist() == list(range(12))

    def test_fractional_frequency_rounds_half_up(self):
        # freq 1.5: round-half-up of 0, 1.5, 3, 4.5, ... = 0,2,3,5,6,8,9,11,12,14,15,17
        idx = downsample_indices(t=12, t_pred=6)
        assert idx.tolist() == [0, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17]

    @pytest.mark.parametrize("t", [3, 6, 12])
    @pytest.mark.parametrize("t_pred", [3, 6, 12])
    def test_length_bounds_monotonic(self, t, t_pred):
        idx = downsample_indices(t, t_pred)
        assert len(idx) == t
        assert np.all(np.diff(idx) > 0)
        assert idx[0] == 0 and idx[-1] <= t + t_pred - 1

    @pytest.mark.parametrize("t, t_pred", [(6, 6), (6, 2)])
    def test_sample_batch_gives_past_to_student_and_downsampled_window_to_teacher(self, t, t_pred):
        # frame f of video v paints its heading tick, the only 0.7 pixel, at flat
        # canvas position 24 v + f, so a batch reveals which frames it got
        videos = make_dataset(master_seed=0, n_videos=3, frames_per_video=24)
        for v, video in enumerate(videos):
            ids = 24 * v + np.arange(24)
            video.paint[:, synthdata.TICK_ROW], video.paint[:, synthdata.TICK_COL] = divmod(ids, synthdata.FRAME_SIZE)
            video.paint[:, synthdata.CUE] = -1
        cfg = DistillConfig(t=t, t_pred=t_pred, batch_size=8)
        past, teacher = ds._sample_batch(videos, cfg, np.random.default_rng(4))
        assert past.shape == teacher.shape == (8, t, 3, 32, 32)

        def frame_ids(batch):
            return np.argmax(batch[:, :, 0].reshape(*batch.shape[:2], -1) == np.float32(0.7), axis=-1)

        starts = set()
        for s_ids, t_ids in zip(frame_ids(past), frame_ids(teacher)):
            v, s = divmod(int(s_ids[0]), 24)
            starts.add(s)
            assert s_ids.tolist() == [24 * v + f for f in range(s, s + t)]
            assert t_ids.tolist() == [24 * v + s + i for i in downsample_indices(t, t_pred)]
        assert len(starts) > 1  # starts are sampled, not fixed

    @pytest.mark.parametrize("t, t_pred", [(6, 6), (12, 12), (6, 2)])
    def test_sample_batch_equals_slices_of_fully_decoded_videos(self, t, t_pred):
        videos = make_dataset(master_seed=5, n_videos=3, frames_per_video=48)
        decoded = [v.decode() for v in videos]
        cfg = DistillConfig(t=t, t_pred=t_pred, batch_size=8)
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        past, teacher = ds._sample_batch(videos, cfg, rng)
        want_past, want_teacher = [], []
        for _ in range(cfg.batch_size):
            v = int(ref_rng.integers(len(videos)))
            s = int(ref_rng.integers(0, 48 - (t + t_pred) + 1))
            want_past.append(decoded[v][s : s + t])
            want_teacher.append(decoded[v][s : s + t + t_pred][downsample_indices(t, t_pred)])
        assert past.dtype == teacher.dtype == np.float32
        assert past.tobytes() == np.stack(want_past).tobytes()
        assert teacher.tobytes() == np.stack(want_teacher).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestFpdLoss:
    def cfg(self, variant="cosine"):
        return DistillConfig(loss_variant=variant)

    def test_cosine_identical_vectors(self):
        v = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]], dtype=np.float64)
        loss = fpd_loss(Tensor(v), Tensor(v.copy()), self.cfg())
        assert abs(loss.item()) < 1e-12

    def test_cosine_orthogonal_and_opposite(self):
        s = Tensor(np.array([[1.0, 0.0]], dtype=np.float64))
        t_orth = Tensor(np.array([[0.0, 1.0]], dtype=np.float64))
        t_opp = Tensor(np.array([[-1.0, 0.0]], dtype=np.float64))
        assert fpd_loss(s, t_orth, self.cfg()).item() == pytest.approx(1.0, abs=1e-12)
        assert fpd_loss(s, t_opp, self.cfg()).item() == pytest.approx(2.0, abs=1e-12)

    def test_cross_entropy_uniform_is_log_d(self):
        s = Tensor(np.zeros((3, 4), dtype=np.float64))
        tch = Tensor(np.ones((3, 4), dtype=np.float64) * 0.7)
        loss = fpd_loss(s, tch, self.cfg("cross_entropy"), center=np.zeros(4))
        assert loss.item() == pytest.approx(np.log(4.0), abs=1e-9)

    def test_mse_hand_value(self):
        s = Tensor(np.array([[1.0, 3.0]], dtype=np.float64))
        tch = Tensor(np.array([[0.0, 1.0]], dtype=np.float64))
        loss = fpd_loss(s, tch, self.cfg("mse"))
        assert loss.item() == pytest.approx((1.0 + 4.0) / 2.0, abs=1e-12)

    def test_zero_norm_rows_contribute_one_with_warning(self):
        s = Tensor(np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.float64))
        tch = Tensor(np.array([[1.0, 1.0], [1.0, 0.0]], dtype=np.float64))
        with pytest.warns(RuntimeWarning, match="zero-norm"):
            loss = fpd_loss(s, tch, self.cfg())
        assert loss.item() == pytest.approx(0.5, abs=1e-12)  # (1 + 0) / 2

    def test_all_zero_student_rows_give_loss_one_on_the_tape(self):
        x = Tensor(np.zeros((3, 4), dtype=np.float64), requires_grad=True)
        tch = Tensor(np.ones((3, 4), dtype=np.float64))
        tape = Tape()
        with tape:
            s = ad.mul(x, 2.0)  # a student output recorded on the tape, as in pretraining
            with pytest.warns(RuntimeWarning, match="3 zero-norm"):
                loss = fpd_loss(s, tch, self.cfg())
        (gx,) = backward(loss, tape, [x])
        assert loss.item() == 1.0
        assert np.array_equal(gx, np.zeros((3, 4)))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_cosine_range_and_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.normal(size=(4, 8))
        tch = rng.normal(size=(4, 8))
        base = fpd_loss(Tensor(s), Tensor(tch), self.cfg()).item()
        assert 0.0 <= base <= 2.0
        for alpha in (0.5, 2.0, 10.0):
            scaled = fpd_loss(Tensor(alpha * s), Tensor(tch), self.cfg()).item()
            assert abs(scaled - base) < 1e-6

    @pytest.mark.parametrize("variant", ["cosine", "cross_entropy", "mse"])
    def test_gradient_matches_finite_differences(self, variant):
        rng = np.random.default_rng(11)
        tch = Tensor(rng.normal(size=(5, 6)))
        cfg = self.cfg(variant)
        center = rng.normal(size=6) * 0.1

        def f(t):
            return fpd_loss(t, tch, cfg, center=center)

        s = Tensor(rng.normal(size=(5, 6)), requires_grad=True, dtype=np.float64)
        tape = Tape()
        with tape:
            loss = f(s)
        (gs,) = backward(loss, tape, [s])
        fd = finite_difference_gradient(f, s)
        assert max_relative_error(fd.data, gs) < 1e-4

    def test_gradients_flow_to_student_only(self):
        rng = np.random.default_rng(3)
        s = Tensor(rng.normal(size=(4, 5)).astype(np.float32), requires_grad=True)
        tch = Tensor(rng.normal(size=(4, 5)).astype(np.float32), requires_grad=True)
        tape = Tape()
        with tape:
            loss = fpd_loss(s, tch, self.cfg())
        gs, g_tch = backward(loss, tape, [s, tch])
        assert gs is not None
        assert g_tch is None  # detached inside the loss

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            fpd_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), self.cfg())


class TestCentering:
    def test_center_converges_to_constant_teacher_mean(self):
        v = np.array([1.0, -2.0, 0.5, 3.0])
        center = None
        for _ in range(200):
            center = update_center(center, np.tile(v, (8, 1)), momentum=0.9)
        assert np.allclose(center, v, atol=1e-8)

    def test_constant_teacher_distribution_tends_uniform(self):
        # with the center at the constant output, softmax((v - c)/tau) is uniform
        v = np.array([2.0, -1.0, 0.3, 0.9])
        cfg = DistillConfig(loss_variant="cross_entropy")
        center = None
        for _ in range(300):
            center = update_center(center, np.tile(v, (8, 1)), cfg.center_momentum)
        shifted = (v - center) / cfg.temperature_teacher
        p = np.exp(shifted - shifted.max())
        p /= p.sum()
        assert np.allclose(p, 0.25, atol=1e-6)


class TestMomentumSchedule:
    def test_endpoints(self):
        assert momentum_at(0, 100, 0.996, 1.0) == pytest.approx(0.996, abs=1e-15)
        assert momentum_at(100, 100, 0.996, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_midpoint(self):
        assert momentum_at(50, 100, 0.9, 1.0) == pytest.approx(0.95, abs=1e-12)

    def test_out_of_range_clamps_and_warns(self):
        with pytest.warns(RuntimeWarning, match="clamping"):
            assert momentum_at(11, 10, 0.9, 1.0) == pytest.approx(1.0)
        with pytest.warns(RuntimeWarning, match="clamping"):
            assert momentum_at(-1, 10, 0.9, 1.0) == pytest.approx(0.9)

    @given(st.integers(1, 500))
    @settings(max_examples=30, deadline=None)
    def test_monotone_nondecreasing(self, total):
        values = [momentum_at(i, total, 0.9, 0.999) for i in range(total + 1)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestEmaUpdate:
    def make_pair(self):
        spec = BackboneSpec(family="Conv2dRecurrent", frames=3)
        student = build_backbone(spec, seed=0)
        pair = StudentTeacherPair.from_student(student)
        for p in pair.student.parameters():  # make them differ
            p.data = p.data + 0.25
        return pair

    def test_m_one_freezes_teacher(self):
        pair = self.make_pair()
        before = [p.data.copy() for p in pair.teacher.parameters()]
        ema_update(pair, 1.0)
        for b, p in zip(before, pair.teacher.parameters()):
            assert np.array_equal(b, p.data)

    def test_m_zero_copies_student(self):
        pair = self.make_pair()
        ema_update(pair, 0.0)
        for sp, tp in zip(pair.student.parameters(), pair.teacher.parameters()):
            assert np.array_equal(sp.data, tp.data)

    def test_arithmetic(self):
        pair = self.make_pair()
        phi = pair.teacher.parameters()[0]
        theta = pair.student.parameters()[0]
        phi.data = np.ones_like(phi.data)
        theta.data = np.zeros_like(theta.data)
        ema_update(pair, 0.996)
        assert np.allclose(phi.data, 0.996, atol=1e-7)

    def test_linearity_then_copy(self):
        pair = self.make_pair()
        ema_update(pair, 0.5)
        ema_update(pair, 0.0)
        for sp, tp in zip(pair.student.parameters(), pair.teacher.parameters()):
            assert np.array_equal(sp.data, tp.data)

    def test_in_place_bitwise_as_out_of_place_and_never_aliases_the_student(self):
        pair = StudentTeacherPair.from_student(build_backbone(BackboneSpec(family="Conv2dRecurrent", frames=3), seed=0))
        pairs = list(zip(pair.student.parameters(), pair.teacher.parameters()))
        for sp, tp in pairs:
            assert not np.shares_memory(sp.data, tp.data)
            sp.data += 0.25
        for m in (0.996, 0.5, 0.0):
            arrays = [tp.data for _, tp in pairs]
            expect = [np.float32(m) * tp.data + np.float32(1.0 - m) * sp.data for sp, tp in pairs]
            ema_update(pair, m)
            for (sp, tp), arr, e in zip(pairs, arrays, expect):
                assert tp.data is arr
                assert tp.data.tobytes() == e.tobytes()
                assert not np.shares_memory(sp.data, tp.data)

    def test_structure_mismatch_detected(self):
        pair = self.make_pair()
        pair.teacher.parameters()[0].data = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(RuntimeError, match="mismatch"):
            ema_update(pair, 0.5)


@pytest.fixture(scope="module")
def tiny_dataset():
    return make_dataset(master_seed=1, n_videos=2, frames_per_video=24)


class TestPretrain:
    def cfg(self, **kw):
        base = dict(
            t=6, t_pred=6, loss_variant="cosine", batch_size=2, epochs=1,
            learning_rate=0.01, sgd_momentum=0.0,
        )
        base.update(kw)
        return DistillConfig(**base)

    def test_zero_epochs_returns_initialization(self, tiny_dataset):
        spec = BackboneSpec(family="Conv2dRecurrent", frames=6)
        result = pretrain(spec, tiny_dataset, self.cfg(epochs=0), seed=3)
        fresh = build_backbone(spec, seed=3)
        for (n1, p1), (n2, p2) in zip(result.pair.student.backbone.named_parameters(), fresh.named_parameters()):
            assert n1 == n2 and np.array_equal(p1.data, p2.data)
        for sp, tp in zip(result.pair.student.parameters(), result.pair.teacher.parameters()):
            assert np.array_equal(sp.data, tp.data)

    def test_one_step_m_one_freezes_teacher_moves_student(self, tiny_dataset):
        spec = BackboneSpec(family="Conv2dRecurrent", frames=6)
        cfg = self.cfg(momentum_start=1.0, momentum_end=1.0)
        result = pretrain(spec, tiny_dataset, cfg, seed=3)
        assert result.pair.step >= 1
        fresh = build_backbone(spec, seed=3)
        teacher_same = all(
            np.array_equal(p.data, q.data)
            for p, q in zip(result.pair.teacher.parameters(), fresh.parameters())
        )
        student_same = all(
            np.array_equal(p.data, q.data)
            for p, q in zip(result.pair.student.parameters(), fresh.parameters())
        )
        assert teacher_same and not student_same

    def test_no_gradient_reaches_teacher(self, tiny_dataset, monkeypatch):
        steps = []

        def recording_backward(loss, tape, wrt):
            steps.append((loss, tape))
            return backward(loss, tape, wrt)

        monkeypatch.setattr(ds, "backward", recording_backward)
        spec = BackboneSpec(family="Conv2dRecurrent", frames=6)
        result = pretrain(spec, tiny_dataset, self.cfg(), seed=0)
        student, teacher = result.pair.student.parameters(), result.pair.teacher.parameters()
        assert steps
        for loss, tape in steps:
            assert all(g is not None for g in backward(loss, tape, student))
            assert all(g is None for g in backward(loss, tape, teacher))

    def test_log_schema_and_length(self, tiny_dataset):
        spec = BackboneSpec(family="Conv2dRecurrent", frames=6)
        cfg = self.cfg(epochs=2)
        result = pretrain(spec, tiny_dataset, cfg, seed=0)
        assert len(result.log) == result.pair.step > 0
        for row in result.log:
            assert np.isfinite(row.loss) and 0 < row.momentum <= 1.0
            assert row.embed_std >= 0.0

    def test_determinism(self, tiny_dataset):
        spec = BackboneSpec(family="Conv2dRecurrent", frames=6)
        r1 = pretrain(spec, tiny_dataset, self.cfg(), seed=5)
        r2 = pretrain(spec, tiny_dataset, self.cfg(), seed=5)
        assert [r.loss for r in r1.log] == [r.loss for r in r2.log]
        for p, q in zip(r1.pair.student.parameters(), r2.pair.student.parameters()):
            assert np.array_equal(p.data, q.data)

    def test_divergence_reported_with_step(self, tiny_dataset):
        spec = BackboneSpec(family="Conv2dRecurrent", frames=6)
        cfg = self.cfg(loss_variant="mse", learning_rate=1e9, epochs=5)
        # the blow-up overflows before the loss check sees a non-finite value
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
            pretrain(spec, tiny_dataset, cfg, seed=0)

    def test_projection_head_variant_runs(self, tiny_dataset):
        spec = BackboneSpec(family="Conv2dRecurrent", frames=6)
        result = pretrain(spec, tiny_dataset, self.cfg(projection_head=True), seed=0)
        assert result.pair.student.projector is not None
        names = [name for name, _ in result.pair.student.named_parameters()]
        assert any(n.startswith("backbone.") for n in names) and any(n.startswith("projector.") for n in names)

    def test_step_tape_is_freed_before_the_next_batch(self, tiny_dataset, monkeypatch):
        # step k's tape holds every student activation; none may be alive while
        # step k + 1 renders its batch and runs the teacher forward
        tapes, alive_at_sample = [], []

        class TrackedTape(Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        sample = ds._sample_batch

        def checking_sample(*args):
            alive_at_sample.append(sum(ref() is not None for ref in tapes))
            return sample(*args)

        monkeypatch.setattr(ds, "Tape", TrackedTape)
        monkeypatch.setattr(ds, "_sample_batch", checking_sample)
        spec = BackboneSpec(family="Conv2dRecurrent", frames=6)
        result = pretrain(spec, tiny_dataset, self.cfg(epochs=2), seed=0)
        assert len(tapes) == result.pair.step >= 2
        assert alive_at_sample == [0] * result.pair.step

    def test_training_log_csv(self, tiny_dataset, tmp_path):
        spec = BackboneSpec(family="Conv2dRecurrent", frames=6)
        result = pretrain(spec, tiny_dataset, self.cfg(), seed=0)
        out = tmp_path / "log.csv"
        write_log(out, ds.PretrainLogRow, result.log)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,loss,momentum,embed_std"
        assert len(lines) == len(result.log) + 1
        assert read_log(out, ds.PretrainLogRow) == result.log  # every float at full precision
