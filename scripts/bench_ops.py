#!/usr/bin/env python3
"""Time single autodiff ops, forward plus backward and no-grad forward, at the shapes the backbones run.

Each of the four backbone families is built at the config's [backbone] and
[distill] settings and run once on a [batch_size, t, C, S, S] clip batch, and
its [batch_size, embed_dim] output goes through the cosine and the
cross_entropy fpd_loss, as in a pretrain step. Then [downstream] batch_size x
t_pred x N_ACTIONS logits go through cross_entropy with labels, as in a
fine-tune step. That pass records every distinct call of conv2d, conv3d,
lstm_sequence, layer_norm, gelu, attention, linear and the losses'
cosine_similarity and cross_entropy: the shapes and memory layouts of its
Tensor arguments, positional or keyword (such as a conv layer's bias=), which
of them need a gradient, the shape and dtype of an array argument (the
cross_entropy target, whose recorded values are reused), and its other
arguments (such as relu= or attention's head count). Each recorded call is
then timed on random float32 data of the same layout in two ways: one
forward on a tape plus the backward rule of its one tape entry, and one
forward under no_grad, as the teacher, probe and evaluation forwards run it.
The table gives the median and the quartiles [q1, q3] in ms of each. For a
conv it also gives the columns its chunk loop computes (grid positions times
batch items) and the share of them that are valid outputs, from
autodiff._conv_grid, and the GEMMs of one forward: its tap groups
(autodiff._tap_groups) times its column chunks. Other ops print
"-" there.

A second table times the clip-batch builders on the config's train split,
median and quartiles [q1, q3] in ms per call: distill._sample_batch at the
[distill] batch (past and teacher clips), and downstream._batch_arrays at
the [downstream] batch and at the 64-window batch that embed_windows reads,
both from the clips that downstream.window_clips builds once for the split.

BLAS is pinned to one thread before numpy loads, and glibc's malloc
thresholds are fixed as every futuredistill command fixes them; the core and
BLAS thread counts are printed above the tables.
Usage: python scripts/bench_ops.py [--config PATH] [--repeats N]
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from futuredistill import autodiff as ad  # noqa: E402
from futuredistill import cli, distill, downstream  # noqa: E402
from futuredistill.autodiff import Tape, Tensor, no_grad  # noqa: E402
from futuredistill.config import load_config  # noqa: E402
from futuredistill.distill import DistillConfig, fpd_loss  # noqa: E402
from futuredistill.models import FAMILIES, build_backbone  # noqa: E402
from futuredistill.synthdata import N_ACTIONS  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OPS = (
    "conv2d",
    "conv3d",
    "lstm_sequence",
    "layer_norm",
    "gelu",
    "attention",
    "linear",
    "cosine_similarity",
    "cross_entropy",
)
WARMUP = 3


class TensorSpec(NamedTuple):
    """A recorded Tensor argument: an uninitialised array of its layout and its requires_grad flag."""

    template: np.ndarray
    requires_grad: bool


def _spec(a):
    return TensorSpec(np.empty_like(a.data), a.requires_grad) if isinstance(a, Tensor) else a


def _layout(a):
    if isinstance(a, Tensor):
        return (a.shape, a.data.strides, a.requires_grad)
    return (a.shape, a.dtype.str) if isinstance(a, np.ndarray) else repr(a)


def record_calls(cfg) -> list[tuple[str, str, list, dict]]:
    """(family, op, args, kwargs) of each distinct op call in one pretrain forward and loss of every family.

    The fine-tune loss on a prediction head's logits is recorded as family PredictionHead.
    Each Tensor argument, positional or keyword, is kept as a TensorSpec.
    """
    calls, seen = [], set()
    originals = {name: getattr(ad, name) for name in OPS}

    def recorder(name):
        def call(*args, **kwargs):
            key = (name, tuple(map(_layout, args)), tuple((k, _layout(v)) for k, v in sorted(kwargs.items())))
            if key not in seen:
                seen.add(key)
                calls.append((family, name, list(map(_spec, args)), {k: _spec(v) for k, v in kwargs.items()}))
            return originals[name](*args, **kwargs)

        return call

    spec = cfg.backbone
    clips = Tensor(np.zeros((cfg.distill.batch_size, cfg.distill.t, spec.channels, spec.frame_size, spec.frame_size)))
    try:
        for name in OPS:
            setattr(ad, name, recorder(name))
        for family in FAMILIES:
            spec.family = family
            with Tape():
                z = build_backbone(spec, seed=0)(clips)
                for variant in ("cosine", "cross_entropy"):
                    fpd_loss(z, z.data, DistillConfig(loss_variant=variant))
        family = "PredictionHead"
        shape = (cfg.downstream.batch_size, cfg.distill.t_pred)
        logits = Tensor(np.zeros((*shape, N_ACTIONS)), requires_grad=True)
        ad.cross_entropy(logits, np.zeros(shape, np.int64))
    finally:
        for name, fn in originals.items():
            setattr(ad, name, fn)
    return calls


def _materialise(a, rng):
    if not isinstance(a, TensorSpec):
        return a
    data = np.empty_like(a.template, dtype=np.float32)
    data[...] = rng.normal(size=a.template.shape)
    return Tensor(data, requires_grad=a.requires_grad)


def time_call(name: str, args: list, kwargs: dict, repeats: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Seconds per forward plus backward, and per no-grad forward, of one op call.

    `repeats` samples of each after a warm-up; the two are interleaved.
    """
    inputs = [_materialise(a, rng) for a in args]
    kw = {k: _materialise(v, rng) for k, v in kwargs.items()}
    op = getattr(ad, name)
    g = rng.normal(size=op(*inputs, **kw).shape).astype(np.float32)
    grad_s, nograd_s = [], []
    for _ in range(WARMUP + repeats):
        t0 = time.perf_counter()
        tape = Tape()
        with tape:
            op(*inputs, **kw)
        tape.entries[0].backward_rule(g)
        del tape
        t1 = time.perf_counter()
        with no_grad():
            op(*inputs, **kw)
        nograd_s.append(time.perf_counter() - t1)
        grad_s.append(t1 - t0)
    return np.array(grad_s[WARMUP:]), np.array(nograd_s[WARMUP:])


def _describe(args: list, kwargs: dict) -> str:
    """Tensor and array shapes, then each keyword Tensor by name and each keyword set to True, e.g. `bias=8 relu`."""
    arrays = [a.template if isinstance(a, TensorSpec) else a for a in args]
    parts = ["x".join(map(str, a.shape)) for a in arrays if isinstance(a, np.ndarray)]
    for k, v in kwargs.items():
        if isinstance(v, TensorSpec):
            parts.append(f"{k}=" + "x".join(map(str, v.template.shape)))
        elif v is True:
            parts.append(k)
    return " ".join(parts)


def conv_columns(args: list, kwargs: dict) -> tuple[int, float, int]:
    """(computed columns, valid share, forward GEMMs) of a recorded conv2d/conv3d call.

    Columns as its phase grid lays them out; one GEMM per tap group and column chunk.
    """
    x, k = args[0].template, args[1].template
    n = k.ndim - 2
    strides, pads = ((v,) * n if isinstance(v, int) else tuple(v) for v in (kwargs["stride"], kwargs["padding"]))
    out_dims, _, computed = ad._conv_grid(x.shape[-n:], k.shape[2:], strides, pads)
    n_cols = computed * (x.shape[0] if x.ndim == n + 2 else 1)
    groups, _ = ad._tap_groups(k.shape[1], k.shape[2:], strides)
    return n_cols, np.prod(out_dims) / computed, len(groups) * -(-n_cols // ad._CONV_CHUNK)


def time_batch_builders(cfg, repeats: int) -> list[tuple[str, str, np.ndarray]]:
    """(builder, batch, seconds per call) of each clip-batch builder on the config's train split, after a warm-up."""
    train = cli.build_splits(cfg, "train")[0]
    pre, tune = cfg.distill, cfg.downstream
    windows = downstream.window_clips(train, pre.t, pre.t_pred)
    embed = windows[:64]  # embed_windows' batch, or every window of a smaller split
    rng = np.random.default_rng(0)
    tune_batch = windows[: tune.batch_size]
    cases = [
        ("distill._sample_batch", f"{pre.batch_size} x {pre.t} frames, twice",
         lambda: distill._sample_batch(train, pre, rng)),
        ("downstream._batch_arrays", f"{len(tune_batch)} x {pre.t} frames",
         lambda: downstream._batch_arrays(tune_batch)),
        ("downstream._batch_arrays", f"{len(embed)} x {pre.t} frames (embed)",
         lambda: downstream._batch_arrays(embed)),
    ]
    rows = []
    for name, batch, build in cases:
        seconds = []
        for _ in range(WARMUP + repeats):
            t0 = time.perf_counter()
            build()
            seconds.append(time.perf_counter() - t0)
        rows.append((name, batch, np.array(seconds[WARMUP:])))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=str(ROOT / "configs" / "default.ini"))
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args(argv)

    cfg = load_config(args.config)
    cli._retain_freed_heap()
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    print(f"cores: {os.cpu_count()} (usable {usable}); BLAS threads: {BLAS_THREADS}; numpy {np.__version__}")
    print(f"config: {args.config}; batch {cfg.distill.batch_size}, t {cfg.distill.t}; {args.repeats} repeats")
    print(
        f"{'family':<26} {'op':<17} {'inputs':<44} {'fwd+bwd ms':>10}  {'[q1, q3]':<18} {'no-grad fwd ms':>14}  "
        f"{'[q1, q3]':<18} {'columns':>8} {'valid':>6} {'gemms':>6}"
    )
    rng = np.random.default_rng(0)
    for family, name, call_args, kwargs in record_calls(cfg):
        cols = []
        for ms in time_call(name, call_args, kwargs, args.repeats, rng):
            q1, med, q3 = np.percentile(ms * 1e3, [25, 50, 75])
            cols.append((med, f"[{q1:.3f}, {q3:.3f}]"))
        (g_med, g_iqr), (f_med, f_iqr) = cols
        n_cols, valid, gemms = "-", "-", "-"
        if name in ("conv2d", "conv3d"):
            n_cols, share, gemms = conv_columns(call_args, kwargs)
            valid = f"{share:.1%}"
        print(
            f"{family:<26} {name:<17} {_describe(call_args, kwargs):<44} {g_med:>10.3f}  {g_iqr:<18} "
            f"{f_med:>14.3f}  {f_iqr:<18} {n_cols:>8} {valid:>6} {gemms:>6}"
        )
    print(f"\n{'clip-batch builder':<26} {'batch':<30} {'ms':>8}  [q1, q3]")
    for name, batch, seconds in time_batch_builders(cfg, args.repeats):
        q1, med, q3 = np.percentile(seconds * 1e3, [25, 50, 75])
        print(f"{name:<26} {batch:<30} {med:>8.3f}  [{q1:.3f}, {q3:.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
