"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The file gates criteria 1 (finite-difference gradient suite), 2 (EMA
exactness), 3 (teacher downsampling rule), 4 (loss identities), 8 (macro
precision oracle) and 10 (checkpoint persistence). No end-to-end criterion
that trains a full model and compares protocols is gated here yet.
"""

import time

import numpy as np
import pytest

from futuredistill import autodiff as ad
from futuredistill import synthdata as sd
from futuredistill.autodiff import (
    Tape,
    Tensor,
    backward,
)
from futuredistill.checkpoint import read_checkpoint, save_checkpoint
from futuredistill.distill import (
    DistillConfig,
    StudentTeacherPair,
    downsample_indices,
    ema_update,
    fpd_loss,
    pretrain,
)
from futuredistill.downstream import FinetuneConfig, evaluate_precision
from futuredistill.errors import CheckpointError
from futuredistill.models import BackboneSpec, build_backbone

from oracles import finite_difference_gradient, max_relative_error


def report(criterion: int, text: str) -> None:
    print(f"\nPASS criterion {criterion}: {text}")


@pytest.fixture(scope="module")
def world():
    videos = sd.make_dataset(master_seed=0, n_videos=60, frames_per_video=240)
    return sd.split_dataset(videos, seed=0)


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


def _grad_check(make_loss, x: Tensor) -> float:
    tape = Tape()
    x64 = Tensor(x.data.astype(np.float64), requires_grad=True)
    with tape:
        loss = make_loss(x64)
    (grad,) = backward(loss, tape, [x64])
    fd = finite_difference_gradient(make_loss, x64)
    return max_relative_error(fd.data, grad)


def test_criterion_1_gradient_suite():
    start = time.time()
    tol = 1e-3
    worst: dict[str, float] = {}

    def record(name, err):
        worst[name] = max(worst.get(name, 0.0), err)
        assert err < tol, f"{name}: relative error {err:.2e} >= {tol}"

    for i in range(10):
        rng = np.random.default_rng(100 + i)
        m, k, n = rng.integers(2, 6, size=3)
        b = Tensor(rng.normal(size=(k, n)))
        record("matmul", _grad_check(
            lambda t, b=b: ad.sum_(ad.mul(ad.matmul(t, b), ad.matmul(t, b))),
            Tensor(rng.normal(size=(m, k))),
        ))

        cin, cout = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        kern = Tensor(rng.normal(size=(cout, cin, 2, 3, 3)))
        record("conv3d", _grad_check(
            lambda t, kern=kern: ad.sum_(ad.mul(ad.conv3d(t, kern, stride=1, padding=1), 0.5)),
            Tensor(rng.normal(size=(cin, 3, 5, 5))),
        ))

        d_in, d_h = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        wx = Tensor(rng.normal(size=(d_in, 4 * d_h)))
        wh = Tensor(rng.normal(size=(d_h, 4 * d_h)))
        bias = Tensor(rng.normal(size=4 * d_h))
        h0 = Tensor(np.zeros((3, d_h), dtype=np.float64))
        c0 = Tensor(rng.normal(size=(3, d_h)))

        def lstm_loss(t, wx=wx, wh=wh, bias=bias, h0=h0, c0=c0):
            h, c = ad.recurrent_step(t, h0, c0, wx, wh, bias)
            return ad.add(ad.sum_(ad.mul(h, h)), ad.sum_(c))

        record("recurrent", _grad_check(lstm_loss, Tensor(rng.normal(size=(3, d_in)))))

        def lstm_sequence_loss(t, wx=wx, wh=wh, bias=bias):
            h = ad.lstm_sequence(t, wx, wh, bias)
            return ad.sum_(ad.mul(h, h))

        # from its own generator, so the inputs of the checks below stay as they were
        xs = np.random.default_rng(200 + i).normal(size=(1 + i % 3, 3, d_in))
        record("lstm_sequence", _grad_check(lstm_sequence_loss, Tensor(xs)))

        w = Tensor(rng.normal(size=6))
        record("softmax", _grad_check(
            lambda t, w=w: ad.sum_(ad.mul(ad.softmax(t, temperature=0.5), w)),
            Tensor(rng.normal(size=(2, 6))),
        ))

        teacher = Tensor(rng.normal(size=(4, 5)))
        center = rng.normal(size=5) * 0.2
        for variant in ("cosine", "cross_entropy", "mse"):
            cfg = DistillConfig(loss_variant=variant)
            record(f"fpd_{variant}", _grad_check(
                lambda t, cfg=cfg, teacher=teacher, center=center: fpd_loss(t, teacher, cfg, center),
                Tensor(rng.normal(size=(4, 5))),
            ))

        labels = rng.integers(0, 4, size=5)
        record("cross_entropy", _grad_check(
            lambda t, labels=labels: ad.cross_entropy(t, labels),
            Tensor(rng.normal(size=(5, 4))),
        ))

        gain = Tensor(rng.normal(size=6))
        lbias = Tensor(rng.normal(size=6))
        record("layer_norm", _grad_check(
            lambda t, gain=gain, lbias=lbias: ad.sum_(
                ad.mul(ad.layer_norm(t, gain, lbias), ad.layer_norm(t, gain, lbias))
            ),
            Tensor(rng.normal(size=(3, 6))),
        ))

        w1 = Tensor(rng.normal(size=(4, 6)))
        b1 = Tensor(rng.normal(size=6))
        w2 = Tensor(rng.normal(size=(6, 2)))
        b2 = Tensor(rng.normal(size=2))
        record("two_layer_net", _grad_check(
            lambda t: ad.sum_(ad.mul(
                ad.add(ad.matmul(ad.tanh(ad.add(ad.matmul(t, w1), b1)), w2), b2),
                ad.add(ad.matmul(ad.tanh(ad.add(ad.matmul(t, w1), b1)), w2), b2),
            )),
            Tensor(rng.normal(size=(3, 4))),
        ))

        # drawn last so the inputs of the checks above stay as they were
        kern2 = Tensor(rng.normal(size=(cout, cin, 3, 2)))
        x2 = Tensor(rng.normal(size=(2, cin, 5, 6)))
        record("conv2d", _grad_check(
            lambda t, kern2=kern2: ad.sum_(ad.mul(ad.conv2d(t, kern2, stride=(1, 2), padding=(1, 0)), 0.5)),
            x2,
        ))
        record("conv2d", _grad_check(
            lambda t, x2=x2: ad.sum_(ad.mul(ad.conv2d(x2, t, stride=(1, 2), padding=(1, 0)), 0.5)),
            kern2,
        ))

        # likewise drawn after everything above
        record("gelu", _grad_check(
            lambda t: ad.sum_(ad.mul(ad.gelu(t), ad.gelu(t))),
            Tensor(rng.normal(size=(3, 5)) * 3.0),
        ))
        rows = rng.integers(0, 4, size=6)
        w_rows = Tensor(rng.normal(size=(6, 5)))
        record("getitem", _grad_check(
            lambda t, rows=rows, w_rows=w_rows: ad.add(
                ad.sum_(ad.mul(t[1:, ::2], t[1:, ::2])),
                ad.sum_(ad.mul(ad.mul(t[rows], t[rows]), w_rows)),
            ),
            Tensor(rng.normal(size=(4, 5))),
        ))

    elapsed = time.time() - start
    assert elapsed < 120, f"gradient suite took {elapsed:.0f}s >= 2 min"
    summary = ", ".join(f"{k}={v:.1e}" for k, v in sorted(worst.items()))
    report(1, f"all ops match finite differences < 1e-3 over 10 instances each "
              f"in {elapsed:.0f}s (worst: {summary})")


def test_criterion_2_ema_exactness():
    spec = BackboneSpec(family="Conv2dRecurrent", frames=3, embed_dim=16, recurrent_hidden=16)
    pair = StudentTeacherPair.from_student(build_backbone(spec, seed=0))
    for p in pair.student.parameters():
        p.data = p.data + 0.125
    phi0 = [p.data.copy() for p in pair.teacher.parameters()]
    theta = [p.data.copy() for p in pair.student.parameters()]

    m = 0.996
    ema_update(pair, m)
    for old_phi, th, p in zip(phi0, theta, pair.teacher.parameters()):
        expected = np.float32(m) * old_phi + np.float32(1.0 - m) * th
        assert np.array_equal(p.data, expected)  # identical combining arithmetic
        reference = m * old_phi.astype(np.float64) + (1.0 - m) * th.astype(np.float64)
        assert np.max(np.abs(p.data - reference)) <= 2e-7  # one f32 rounding step

    pair2 = StudentTeacherPair.from_student(build_backbone(spec, seed=1))
    for p in pair2.student.parameters():
        p.data = p.data + 1.0
    frozen = [p.data.copy() for p in pair2.teacher.parameters()]
    ema_update(pair2, 1.0)
    assert all(np.array_equal(a, p.data) for a, p in zip(frozen, pair2.teacher.parameters()))
    ema_update(pair2, 0.0)
    for sp, tp in zip(pair2.student.parameters(), pair2.teacher.parameters()):
        assert np.array_equal(sp.data, tp.data)
    report(2, "EMA reproduces m*phi + (1-m)*theta exactly; m=1 freezes, m=0 copies")


def test_criterion_3_downsampling_rule():
    for t in (3, 6, 12):
        for t_pred in (3, 6, 12):
            idx = downsample_indices(t, t_pred)
            assert len(idx) == t
            assert np.all(np.diff(idx) > 0)
            assert idx[0] >= 0 and idx[-1] <= t + t_pred - 1
    assert downsample_indices(12, 12).tolist() == list(range(0, 24, 2))
    report(3, "teacher downsampling: t strictly increasing in-bounds indices for all "
              "(t, t_pred) in {3,6,12}^2; worked example t=12,t_pred=12 -> step 2")


def test_criterion_4_loss_identities():
    rng = np.random.default_rng(7)
    cos_cfg = DistillConfig(loss_variant="cosine")
    x = Tensor(rng.normal(size=(6, 9)))
    assert abs(fpd_loss(x, Tensor(x.data.copy()), cos_cfg).item()) < 1e-6
    for _ in range(50):
        s = rng.normal(size=(5, 8))
        tch = rng.normal(size=(5, 8))
        val = fpd_loss(Tensor(s), Tensor(tch), cos_cfg).item()
        assert 0.0 <= val <= 2.0
        for alpha in (0.5, 2.0, 10.0):
            assert abs(fpd_loss(Tensor(alpha * s), Tensor(tch), cos_cfg).item() - val) < 1e-6

    ce_cfg = DistillConfig(loss_variant="cross_entropy")
    uniform_teacher = Tensor(np.full((4, 7), 0.3, dtype=np.float64))
    uniform_student = Tensor(np.zeros((4, 7), dtype=np.float64))
    val = fpd_loss(uniform_student, uniform_teacher, ce_cfg, center=np.zeros(7)).item()
    assert val == pytest.approx(np.log(7.0), abs=1e-9)
    report(4, f"cosine in [0,2] with loss(x,x)=0 and scale invariance; "
              f"CE on uniform 7-way logits = ln 7 = {val:.6f}")


def test_criterion_8_metric_oracle():
    rng = np.random.default_rng(3)

    def brute_force(preds, golds, n_classes):
        per_class = []
        for c in range(n_classes):
            tp = int(np.sum((preds == c) & (golds == c)))
            fp = int(np.sum((preds == c) & (golds != c)))
            per_class.append(tp / (tp + fp) if tp + fp else 0.0)
        return float(np.mean(per_class)), np.array(per_class)

    checked = 0
    for trial in range(25):
        n_classes = int(rng.integers(2, 9))
        size = int(rng.integers(5, 120))
        # bias some trials so whole classes receive zero predictions
        hi = n_classes if trial % 2 == 0 else max(1, n_classes // 2)
        preds = rng.integers(0, hi, size=size)
        golds = rng.integers(0, n_classes, size=size)
        mine = evaluate_precision(preds, golds, n_classes)
        macro, per_class = brute_force(preds, golds, n_classes)
        assert abs(mine.macro_precision - macro) < 1e-12
        assert np.max(np.abs(mine.per_class - per_class)) < 1e-12
        checked += size
    big_preds = rng.integers(0, 7, size=1000)
    big_golds = rng.integers(0, 7, size=1000)
    mine = evaluate_precision(big_preds, big_golds, 7)
    macro, per_class = brute_force(big_preds, big_golds, 7)
    assert abs(mine.macro_precision - macro) < 1e-12
    assert np.max(np.abs(mine.per_class - per_class)) < 1e-12
    report(8, f"macro precision matches brute-force confusion-matrix oracle within 1e-12 "
              f"({checked + 1000} labels, zero-prediction convention included)")


def test_criterion_10_persistence(tmp_path):
    spec = BackboneSpec(family="Conv2dRecurrent", frames=3, embed_dim=16, recurrent_hidden=16)
    backbone = build_backbone(spec, seed=5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, backbone, spec, step=7, config_hash="h")
    header, params = read_checkpoint(path)
    for name, p in backbone.named_parameters():
        assert params[name].tobytes() == p.data.tobytes()
    assert header["step"] == 7
    raw = path.read_bytes()
    rejected = 0
    for cut in range(0, len(raw), max(1, len(raw) // 23)):
        if cut == len(raw):
            continue
        trunc = tmp_path / "trunc.ckpt"
        trunc.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError):
            read_checkpoint(trunc)
        rejected += 1
    report(10, f"checkpoint round-trip bitwise lossless; {rejected} truncation points all refused")
