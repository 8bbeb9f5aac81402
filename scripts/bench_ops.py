#!/usr/bin/env python3
"""Time single autodiff ops, forward plus backward, at the shapes the backbones run.

Each of the four backbone families is built at the config's [backbone] and
[distill] settings and run once on a [batch_size, t, C, S, S] clip batch. That
pass records every distinct call of conv2d, conv3d, lstm_sequence, layer_norm
and gelu, and every attention matmul (both operands 4-D): the argument
shapes, memory layouts and which inputs need a gradient. Each recorded call is
then timed on random float32 data of the same layout, as one forward and the
backward rule of its one tape entry. The table gives the median and the
quartiles [q1, q3] in ms.

BLAS is pinned to one thread before numpy loads; the core and BLAS thread
counts are printed above the table.
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

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from futuredistill import autodiff as ad  # noqa: E402
from futuredistill.autodiff import Tape, Tensor  # noqa: E402
from futuredistill.config import load_config  # noqa: E402
from futuredistill.models import FAMILIES, build_backbone  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OPS = ("conv2d", "conv3d", "lstm_sequence", "layer_norm", "gelu", "matmul")
WARMUP = 3


def record_calls(cfg) -> list[tuple[str, str, list, dict]]:
    """(family, op, args, kwargs) of each distinct op call in one forward of every family.

    A Tensor argument is kept as an uninitialised array of its layout, paired
    with its requires_grad flag.
    """
    calls, seen = [], set()
    originals = {name: getattr(ad, name) for name in OPS}

    def recorder(name):
        def call(*args, **kwargs):
            args_t = [a for a in args if isinstance(a, Tensor)]
            if name != "matmul" or all(a.ndim == 4 for a in args_t):
                key = (name, tuple((a.shape, a.data.strides, a.requires_grad) for a in args_t), repr(kwargs))
                if key not in seen:
                    seen.add(key)
                    kept = [(np.empty_like(a.data), a.requires_grad) if isinstance(a, Tensor) else a for a in args]
                    calls.append((family, name, kept, kwargs))
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
                build_backbone(spec, seed=0)(clips)
    finally:
        for name, fn in originals.items():
            setattr(ad, name, fn)
    return calls


def time_call(name: str, args: list, kwargs: dict, repeats: int, rng) -> np.ndarray:
    """Seconds per forward plus backward of one op call, `repeats` samples after a warm-up."""
    inputs = []
    for a in args:
        if isinstance(a, tuple):
            template, grad = a
            data = np.empty_like(template, dtype=np.float32)
            data[...] = rng.normal(size=template.shape)
            a = Tensor(data, requires_grad=grad)
        inputs.append(a)
    op = getattr(ad, name)
    g = rng.normal(size=op(*inputs, **kwargs).shape).astype(np.float32)
    samples = []
    for _ in range(WARMUP + repeats):
        t0 = time.perf_counter()
        tape = Tape()
        with tape:
            op(*inputs, **kwargs)
        tape.entries[0].backward_rule(g)
        samples.append(time.perf_counter() - t0)
    return np.array(samples[WARMUP:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=str(ROOT / "configs" / "default.ini"))
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args(argv)

    cfg = load_config(args.config)
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    print(f"cores: {os.cpu_count()} (usable {usable}); BLAS threads: {BLAS_THREADS}; numpy {np.__version__}")
    print(f"config: {args.config}; batch {cfg.distill.batch_size}, t {cfg.distill.t}; {args.repeats} repeats")
    print(f"{'family':<26} {'op':<14} {'input shapes':<40} {'median ms':>10}  [q1, q3]")
    rng = np.random.default_rng(0)
    for family, name, call_args, kwargs in record_calls(cfg):
        shapes = " ".join("x".join(map(str, a[0].shape)) for a in call_args if isinstance(a, tuple))
        ms = time_call(name, call_args, kwargs, args.repeats, rng) * 1e3
        q1, med, q3 = np.percentile(ms, [25, 50, 75])
        print(f"{family:<26} {name:<14} {shapes:<40} {med:>10.3f}  [{q1:.3f}, {q3:.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
