"""In-memory span tracer that wraps futuredistill's public functions from outside.

Nothing in the program is edited: `Tracer.install()` replaces module and class
attributes with timing wrappers and `Tracer.restore()` puts every original
back. A span is (name, start, end, parent, run); spans of one benchmark pass
share a run id. Self time is a span's duration minus its child spans.

Two places need care when wrapping:

* `cli`, `distill` and `downstream` import several functions by name
  (`make_dataset`, `pretrain`, the checkpoint functions, `sample_clip`,
  `clip_at`, `backward`, `sgd_step`), so each importing module's binding is
  patched, not only the defining module's.
* `Backbone.__call__` is bound to `forward` when the class is defined, so both
  class attributes are patched.

Autodiff ops do their backward work later, inside `backward()`. The op
wrappers therefore also wrap the backward rules of the tape entries each op
recorded, so that an op's time is its forward plus its backward.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

AUTODIFF_OPS = (
    "conv2d",
    "conv3d",
    "matmul",
    "recurrent_step",
    "layer_norm",
    "gelu",
    "softmax",
    "cross_entropy",
)
BACKWARD_SUFFIX = ".backward"


class Patcher:
    """Replaces attributes and restores the originals in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, wrapper_factory) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._saved)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Records spans and counters for the futuredistill layers."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run_id = 0
        self._stack = [-1]
        self._patcher = Patcher()

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.runs.append(self.run_id)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[self.run_id][key] += n

    def _wrap(self, fn, name, after=None):
        """Span around fn; `name` may be a callable (args, kwargs, out) -> str."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(name if isinstance(name, str) else "?")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if not isinstance(name, str):
                tracer.names[i] = name(args, kwargs, out)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _wrap_op(self, fn, op: str, ad):
        """Span around an autodiff op plus spans around the backward rules it recorded."""
        tracer = self
        name = f"autodiff.{op}"
        bwd_name = name + BACKWARD_SUFFIX

        def timed_rule(rule):
            def rule_traced(g):
                i = tracer.open(bwd_name)
                try:
                    return rule(g)
                finally:
                    tracer.close(i)

            rule_traced.perfbench_traced = True
            return rule_traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # the active tape is module state of autodiff; ops append to the top one
            tape = ad._TAPE_STACK[-1] if ad._TAPE_STACK else None
            n0 = len(tape.entries) if tape is not None else 0
            i = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            tracer.count(f"{name}_calls")
            if tape is not None:
                # inner wrapped ops claimed their own entries already
                for entry in tape.entries[n0:]:
                    if not getattr(entry.backward_rule, "perfbench_traced", False):
                        entry.backward_rule = timed_rule(entry.backward_rule)
            if op in ("conv2d", "conv3d"):
                tracer._count_conv(args, kwargs, out)
            return out

        return traced

    def _count_conv(self, args, kwargs, out) -> None:
        """Forward FLOPs and bytes, computed from argument shapes (not measured)."""
        x, k = args[0], args[1]
        padding = kwargs.get("padding", args[3] if len(args) > 3 else 0)
        spatial = len(k.shape) - 2
        pads = (padding,) * spatial if isinstance(padding, int) else tuple(padding)
        x_shape = tuple(x.shape) if len(x.shape) == spatial + 2 else (1, *x.shape)
        y_shape = tuple(out.shape) if len(out.shape) == spatial + 2 else (1, *out.shape)
        batch, c_in = x_shape[:2]
        c_out = k.shape[0]
        taps = math.prod(k.shape[2:])
        out_points = math.prod(y_shape[2:])
        item = out.data.itemsize
        padded = math.prod(n + 2 * p for n, p in zip(x_shape[2:], pads))
        self.count("conv.fwd_flop", 2 * batch * c_out * out_points * c_in * taps)
        self.count("conv.input_bytes", batch * c_in * padded * item)
        self.count("conv.window_bytes", batch * c_in * out_points * taps * item)
        self.count("conv.output_bytes", out.data.nbytes)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        # checkpoint and synthdata functions are patched where cli, distill and downstream bound them
        from futuredistill import autodiff, cli, distill, downstream, models, nn

        p = self._patcher
        w = self._wrap

        p.patch(cli, "load_config", lambda f: w(f, "config.load"))
        p.patch(cli, "make_dataset", lambda f: w(f, "synthdata.make_dataset", self._counter("synthdata.make_dataset_calls")))
        p.patch(cli, "pretrain", lambda f: w(f, "distill.pretrain"))
        p.patch(cli, "save_checkpoint", lambda f: w(f, "checkpoint.save", self._bytes_written))
        p.patch(cli, "load_backbone_checkpoint", lambda f: w(f, "checkpoint.load"))
        p.patch(cli, "read_checkpoint", lambda f: w(f, "checkpoint.load"))
        p.patch(cli, "append_metrics", lambda f: w(f, "reporting.append_metrics"))
        p.patch(cli, "generate_report", lambda f: w(f, "reporting.report"))

        p.patch(distill, "sample_clip", lambda f: w(f, "synthdata.sample_clip", self._counter("synthdata.sample_clip_calls")))
        p.patch(distill, "fpd_loss", lambda f: w(f, "distill.fpd_loss"))
        p.patch(distill, "ema_update", lambda f: w(f, "distill.ema_update"))
        p.patch(distill.DistillModel, "forward", lambda f: w(f, _grad_name("distill.student_forward", "distill.teacher_forward")))
        p.patch(downstream, "clip_at", lambda f: w(f, "synthdata.clip_at", self._counter("synthdata.clip_at_calls")))
        p.patch(downstream, "feature_stats", lambda f: w(f, "downstream.feature_stats"))
        p.patch(downstream, "finetune", lambda f: w(f, _protocol_name))
        p.patch(downstream, "evaluate_model", lambda f: w(f, "downstream.evaluate"))
        for mod, caller in ((distill, "distill"), (downstream, "downstream")):
            p.patch(mod, "backward", lambda f: w(f, "autodiff.backward", self._tape_entries))
            p.patch(mod, "sgd_step", lambda f, c=caller: w(f, "autodiff.sgd_step", self._counter(f"{c}.steps")))

        forward_name = _grad_name("models.forward_grad", "models.forward_nograd")
        for attr in ("forward", "__call__"):
            p.patch(models.Backbone, attr, lambda f: w(f, forward_name, self._clips))
        p.patch(nn.SelfAttention, "__call__", lambda f: w(f, "nn.attention"))
        p.patch(nn.LstmCell, "run", lambda f: w(f, "nn.lstm_run"))

        for op in AUTODIFF_OPS:
            p.patch(autodiff, op, lambda f, op=op: self._wrap_op(f, op, autodiff))

    def patched(self):
        return self._patcher.patched()

    def restore(self) -> None:
        self._patcher.restore()

    def _counter(self, key: str):
        return lambda args, kwargs, out: self.count(key)

    def _bytes_written(self, args, kwargs, out) -> None:
        self.count("checkpoint.bytes_written", os.path.getsize(args[0]))

    def _tape_entries(self, args, kwargs, out) -> None:
        self.count("autodiff.backward_calls")
        self.count("autodiff.tape_entries", len(args[1]))

    def _clips(self, args, kwargs, out) -> None:
        kind = "grad" if out.requires_grad else "nograd"
        self.count(f"models.forward_{kind}_clips", out.shape[0])

    # -- analysis ----------------------------------------------------------

    def spans_of(self, run_id: int) -> range:
        idx = [i for i, r in enumerate(self.runs) if r == run_id]
        return range(idx[0], idx[-1] + 1) if idx else range(0)

    def times(self, run_id: int, window: tuple[float, float] | None = None):
        """Per span name: (self seconds, inclusive seconds of outermost spans).

        With a window, every span is first clipped to it, so the self times of
        all names add up to the part of the window that spans cover.
        """
        lo, hi = window if window is not None else (float("-inf"), float("inf"))
        span_ids = self.spans_of(run_id)
        dur = {}
        for i in span_ids:
            dur[i] = max(0.0, min(self.ends[i], hi) - max(self.starts[i], lo))
        self_s: Counter = Counter()
        incl_s: Counter = Counter()
        for i in span_ids:
            name = self.names[i]
            self_s[name] += dur[i]
            parent = self.parents[i]
            if parent in dur:
                self_s[self.names[parent]] -= dur[i]
            if not self._has_ancestor_named(i, name):
                incl_s[name] += dur[i]
        return self_s, incl_s

    def covered(self, run_id: int, window: tuple[float, float]) -> float:
        """Seconds of the window covered by top-level spans of the run."""
        lo, hi = window
        top = [i for i in self.spans_of(run_id) if self.parents[i] == -1]
        return sum(max(0.0, min(self.ends[i], hi) - max(self.starts[i], lo)) for i in top)

    def _has_ancestor_named(self, i: int, name: str) -> bool:
        p = self.parents[i]
        while p != -1:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def write(self, path: Path, meta: dict) -> None:
        """Write all spans as rows of (name id, start, end, parent, run), times from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        names = sorted(set(self.names))
        index = {n: k for k, n in enumerate(names)}
        rows = [
            [index[n], round(s - t0, 7), round(e - t0, 7), p, r]
            for n, s, e, p, r in zip(self.names, self.starts, self.ends, self.parents, self.runs)
        ]
        payload = {
            "meta": meta,
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent", "run"],
            "spans": rows,
            "counts": {str(r): dict(c) for r, c in self.counts.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))


def _grad_name(grad: str, nograd: str):
    return lambda args, kwargs, out: grad if out.requires_grad else nograd


def _protocol_name(args, kwargs, out) -> str:
    protocol = kwargs.get("protocol", args[2] if len(args) > 2 else None)
    return f"downstream.{protocol.value}"
