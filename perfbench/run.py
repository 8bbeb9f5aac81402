#!/usr/bin/env python3
"""Benchmark of the futuredistill CLI: end-to-end timings, or a traced per-layer split.

Usage (from the repository root):

    python3 perfbench/run.py --workload main-c2r-t12 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each workload feeds `futuredistill.cli.main` an INI config generated from the
seed and repeats its fixed command sequence (one "pass") while the next pass
still fits in `--seconds`: a closed loop with one client. Each untraced pass
trains on its own pass seed, derived from `--seed`, and `macro_precision` is
the mean over the workload's first `quality_passes` of them. `--trace 0` reports
the end-to-end metrics with tracing off. `--trace 1` alternates untraced and
traced passes and reports the per-layer metrics of the traced ones. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics. Scratch files go to `.bench_build/perfbench/` under the repository
root; the span file of a traced run stays there.
"""

from __future__ import annotations

import os
import time

PROCESS_START = time.perf_counter()
# One process and one BLAS thread, fixed before numpy is first imported, so
# timings do not depend on how many cores the machine has or lends out.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(HERE))
from tracer import BACKWARD_SUFFIX, AUTODIFF_OPS, Patcher, Tracer  # noqa: E402
from workloads import BY_NAME, WORKLOADS, Workload, check_outputs, ridge_probe_precision  # noqa: E402


def pass_seed(seed: int, k: int) -> int:
    """Workload seed of pass k in a run with --seed `seed`; distinct across runs for k < 1000."""
    return 1000 * seed + k


# end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "train_clips_per_s": "clips/s",
    "pretrain_step_ms_p50": "ms",
    "pretrain_step_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "macro_precision": "fraction",
}

# Per-layer metrics from the traced passes. `_s` metrics of kernel layers
# (autodiff, synthdata, checkpoint, config, reporting) are self times; those of
# the composite layers (models, nn, distill, downstream) are inclusive, since
# their work happens in the kernels they call.
SELF_LAYERS = {
    "synthdata.make_dataset_s": "synthdata.make_dataset",
    "synthdata.sample_clip_s": "synthdata.sample_clip",
    "autodiff.backward_s": "autodiff.backward",
    "autodiff.sgd_step_s": "autodiff.sgd_step",
    "checkpoint.save_s": "checkpoint.save",
    "checkpoint.load_s": "checkpoint.load",
    "reporting.report_s": "reporting.report",
    "config.load_s": "config.load",
}
INCLUSIVE_LAYERS = {
    "models.forward_grad_s": "models.forward_grad",
    "models.forward_nograd_s": "models.forward_nograd",
    "nn.attention_s": "nn.attention",
    "nn.lstm_run_s": "nn.lstm_run",
    "distill.pretrain_s": "distill.pretrain",
    "distill.teacher_forward_s": "distill.teacher_forward",
    "distill.student_forward_s": "distill.student_forward",
    "distill.fpd_loss_s": "distill.fpd_loss",
    "distill.ema_update_s": "distill.ema_update",
    "downstream.feature_stats_s": "downstream.feature_stats",
    "downstream.linear_probe_s": "downstream.linear_probe",
    "downstream.fine_tune_s": "downstream.fine_tune",
    "downstream.supervised_s": "downstream.supervised",
    "downstream.evaluate_s": "downstream.evaluate",
}
COUNTS = {
    "synthdata.make_dataset_calls": "count",
    "synthdata.sample_clip_calls": "count",
    "synthdata.clip_at_calls": "count",
    "models.forward_grad_clips": "count",
    "models.forward_nograd_clips": "count",
    "distill.steps": "count",
    "downstream.steps": "count",
    "checkpoint.bytes_written": "B",
    "cli.commands": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in (*SELF_LAYERS, *INCLUSIVE_LAYERS)}
    for op in AUTODIFF_OPS:
        units[f"autodiff.{op}_s"] = "s"
        units[f"autodiff.{op}_calls"] = "count"
    units.update(COUNTS)
    units.update(
        {
            "autodiff.tape_entries_per_backward": "entries",
            "autodiff.conv_fwd_gflop": "GFLOP_calc",
            "autodiff.conv_fwd_gflop_per_s": "GFLOP/s_calc",
            "autodiff.conv_input_mb": "MB_calc",
            "autodiff.conv_window_mb": "MB_calc",
            "autodiff.conv_output_mb": "MB_calc",
            "trace.run_s": "s",
            "trace.remainder_s": "s",
            "trace.overhead_share": "fraction",
        }
    )
    return units


# ---------------------------------------------------------------------------
# environment record


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
    }


def git_sha(root: Path) -> str | None:
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


# ---------------------------------------------------------------------------
# one pass


class StepClock:
    """Timestamps each `sgd_step` return in pretraining and in the downstream stage.

    This is the only hook in an untraced pass; it adds one clock read per step.
    """

    def __init__(self):
        self.stamps: list[tuple[int, str, float]] = []  # (command index, tag, time)
        self.command = 0
        self._patcher = Patcher()

    def start(self) -> None:
        from futuredistill import distill, downstream

        self.stamps = []
        for mod, tag in ((distill, "pretrain"), (downstream, "downstream")):
            self._patcher.patch(mod, "sgd_step", lambda fn, tag=tag: self._stamped(fn, tag))

    def _stamped(self, fn, tag):
        stamps = self.stamps

        def stamped(*args, **kwargs):
            out = fn(*args, **kwargs)
            stamps.append((self.command, tag, time.perf_counter()))
            return out

        return stamped

    def stop(self) -> list[tuple[int, str, float]]:
        self._patcher.restore()
        return self.stamps


@dataclass
class PassRecord:
    run_id: int
    seed: int
    traced: bool
    t0: float
    t1: float
    stamps: list[tuple[int, str, float]]
    exit_codes: list[int]
    failures: list[tuple[int, str]]
    digest: str
    final_loss: float | None
    precision: dict[str, float]

    @property
    def first_step(self) -> float | None:
        return next((t for _, tag, t in self.stamps if tag == "pretrain"), None)

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0

    @property
    def run_s(self) -> float:
        first = self.first_step
        return self.t1 - first if first is not None else math.nan

    def setup_s(self, import_s: float) -> float:
        first = self.first_step
        return import_s + first - self.t0 if first is not None else math.nan

    def step_intervals_ms(self) -> list[float]:
        times = [t for _, tag, t in self.stamps if tag == "pretrain"]
        return [1000.0 * (b - a) for a, b in zip(times, times[1:])]

    def steps(self, tag: str) -> int:
        return sum(1 for _, s, _ in self.stamps if s == tag)

    @property
    def failed(self) -> int:
        """Operations with at least one failure."""
        return len({op for op, _ in self.failures})


def run_pass(wl: Workload, seed: int, work_dir: Path, run_id: int, tracer: Tracer | None) -> PassRecord:
    from futuredistill import cli

    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    config = work_dir / "workload.ini"
    config.write_text(wl.config_text(seed, work_dir))
    commands = wl.commands(config, work_dir, seed)
    clock = StepClock()
    clock.start()
    if tracer is not None:
        tracer.run_id = run_id
        tracer.install()
    exit_codes = []
    t0 = time.perf_counter()
    try:
        for k, argv in enumerate(commands):
            clock.command = k
            span = tracer.open(f"cli.{argv[0]}") if tracer is not None else None
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    exit_codes.append(cli.main(argv))
            except Exception:  # an operation that raises counts as failed; keep measuring
                traceback.print_exc(file=sys.stderr)
                exit_codes.append(-1)
            finally:
                if span is not None:
                    tracer.close(span)
                    tracer.count("cli.commands")
    finally:
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.restore()
        stamps = clock.stop()
    try:
        out = check_outputs(wl, seed, work_dir, exit_codes)
        failures, digest, final_loss, precision = out.failures, out.digest, out.final_loss, out.precision
    except Exception as exc:  # unreadable outputs fail every operation of the pass, not the benchmark
        failures = [(k, f"output check raised {exc!r}") for k in range(len(commands))]
        digest, final_loss, precision = "", None, {}
    for k, expected in enumerate(wl.expected_steps(seed)):
        taken = sum(1 for op, _, _ in stamps if op == k)
        if taken != expected and exit_codes[k] == 0:
            failures.append((k, f"{commands[k][0]} took {taken} optimizer steps, expected {expected}"))
    return PassRecord(run_id, seed, tracer is not None, t0, t1, stamps, exit_codes, failures, digest, final_loss, precision)


# ---------------------------------------------------------------------------
# a measured run of one workload


@dataclass
class Result:
    workload: str
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    samples: dict[str, str]
    problems: list[str]
    shares: list[tuple[str, float, float]]


def measure(wl: Workload, seed: int, seconds: float, trace: bool, import_s: float) -> Result:
    """Repeat the workload's passes while the next one fits in `seconds`."""
    work_dir = WORK / f"{wl.name}-s{seed}-p{os.getpid()}"
    probe_dir = work_dir.with_name(work_dir.name + "-probe")
    tracer = Tracer() if trace else None
    passes: list[PassRecord] = []
    probe_ckpts: list[tuple[int, Path]] = []
    begin = time.perf_counter()
    try:
        while True:
            k = len(passes)
            traced = trace and k % 2 == 1
            # traced and untraced passes share one seed so that their outputs can be compared
            record = run_pass(wl, pass_seed(seed, 0 if trace else k), work_dir, k, tracer if traced else None)
            passes.append(record)
            if not trace and not wl.has_downstream and k < wl.quality_passes and record.exit_codes[0] == 0:
                probe_dir.mkdir(parents=True, exist_ok=True)
                probe_ckpts.append((record.seed, Path(shutil.copy(work_dir / f"{wl.stem(record.seed)}.ckpt", probe_dir))))
            elapsed = time.perf_counter() - begin
            next_pass = max(p.wall_s for p in passes[-2:])
            # The first pass warms up allocator and caches; it counts for setup_s
            # only. A traced run also needs a warm untraced pass to compare with.
            if len(passes) >= (3 if trace else wl.quality_passes) and elapsed + next_pass > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if wl.has_downstream:
            quality = [statistics.fmean(p.precision.values()) for p in passes[: wl.quality_passes] if len(p.precision) == 3]
        else:
            quality = [ridge_probe_precision(wl, s, ckpt) for s, ckpt in probe_ckpts]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        shutil.rmtree(probe_dir, ignore_errors=True)

    problems = [f"pass {p.run_id}: {msg}" for p in passes for _, msg in p.failures]
    for s in sorted({p.seed for p in passes}):
        if len({p.digest for p in passes if p.seed == s and not p.failures}) > 1:
            problems.append(f"passes with seed {s} gave different outputs (traced vs untraced or nondeterminism)")
    attempted = sum(len(p.exit_codes) for p in passes)
    failed = sum(p.failed for p in passes)
    untraced = [p for p in passes if not p.traced]
    shares = []
    if trace:
        traced_passes = [p for p in passes if p.traced]
        # the first pass pays one-off warm-up costs, so compare with the later untraced ones
        metrics, samples = per_layer_metrics(tracer, traced_passes, untraced[1:])
        shares = layer_shares(tracer, traced_passes[0].run_id, traced_passes[0].wall_s)
        meta = {"workload": wl.name, "seed": seed, "environment": environment()}
        tracer.write(WORK / f"trace-{wl.name}-s{seed}.json", meta)
    else:
        metrics, samples = end_to_end_metrics(wl, untraced, import_s, quality, peak_rss_mb)
    if not all(math.isfinite(v) for v in metrics.values()):
        problems.append("a metric is not finite")
    return Result(wl.name, not problems, attempted, failed, metrics, samples, problems, shares)


def end_to_end_metrics(wl, passes, import_s, quality, peak_rss_mb):
    ok = [p for p in passes if p.first_step is not None]
    warm = [p for p in ok if p.run_id > 0]
    intervals = sorted(x for p in warm for x in p.step_intervals_ms())
    clips = [
        ((p.steps("pretrain") - 1) * wl.batch_size + wl.downstream_clips(p.seed)) / p.run_s for p in warm
    ]
    level = tail_level(len(intervals))
    source = (
        "the three protocol rows of metrics.csv"
        if wl.has_downstream
        else "a ridge read-out of the final checkpoint, outside the timed passes"
    )
    quality_note = f"mean over {len(quality)} pass seeds of {source}: " + ", ".join(f"{v:.4f}" for v in quality)
    metrics = {
        "setup_s": median(p.setup_s(import_s) for p in ok),
        "run_s": median(p.run_s for p in warm),
        "train_clips_per_s": median(clips),
        "pretrain_step_ms_p50": percentile(intervals, 50),
        "pretrain_step_ms_p90": percentile(intervals, level),
        "peak_rss_mb": peak_rss_mb,
        "macro_precision": statistics.fmean(quality) if len(quality) == wl.quality_passes else math.nan,
    }
    n = f"median of {len(warm)} passes after the first"
    beyond = sum(1 for x in intervals if x > metrics["pretrain_step_ms_p90"])
    samples = {
        "setup_s": f"median of {len(ok)} passes; includes {import_s:.3f} s of imports",
        "run_s": n,
        "train_clips_per_s": f"{n}; 3x32x32 frames, t={wl.t}, batch {wl.batch_size}",
        "pretrain_step_ms_p50": f"{len(intervals)} step intervals",
        "pretrain_step_ms_p90": f"p{level:g} of {len(intervals)} step intervals, {beyond} beyond",
        "peak_rss_mb": "process maximum over the passes",
        "macro_precision": quality_note,
    }
    return metrics, samples


def per_layer_metrics(tracer: Tracer, traced: list[PassRecord], untraced: list[PassRecord]):
    per_pass = []
    for p in traced:
        self_s, incl_s = tracer.times(p.run_id)
        counts = tracer.counts[p.run_id]
        m = {name: self_s[span] for name, span in SELF_LAYERS.items()}
        m.update({name: incl_s[span] for name, span in INCLUSIVE_LAYERS.items()})
        conv_fwd_s = 0.0
        for op in AUTODIFF_OPS:
            span = f"autodiff.{op}"
            m[f"{span}_s"] = self_s[span] + self_s[span + BACKWARD_SUFFIX]
            m[f"{span}_calls"] = counts[f"{span}_calls"]
            if op in ("conv2d", "conv3d"):
                conv_fwd_s += self_s[span]
        m.update({name: counts[name] for name in COUNTS})
        backward_calls = counts["autodiff.backward_calls"]
        m["autodiff.tape_entries_per_backward"] = counts["autodiff.tape_entries"] / backward_calls if backward_calls else 0.0
        gflop = counts["conv.fwd_flop"] / 1e9
        m["autodiff.conv_fwd_gflop"] = gflop
        m["autodiff.conv_fwd_gflop_per_s"] = gflop / conv_fwd_s if conv_fwd_s > 0 else 0.0
        m["autodiff.conv_input_mb"] = counts["conv.input_bytes"] / 1e6
        m["autodiff.conv_window_mb"] = counts["conv.window_bytes"] / 1e6
        m["autodiff.conv_output_mb"] = counts["conv.output_bytes"] / 1e6
        window = (p.first_step, p.t1)
        m["trace.run_s"] = p.run_s
        m["trace.remainder_s"] = p.run_s - tracer.covered(p.run_id, window)
        per_pass.append(m)
    metrics = {name: median(m[name] for m in per_pass) for name in per_pass[0]} if per_pass else {}
    untraced_run = median(p.run_s for p in untraced)
    metrics["trace.overhead_share"] = metrics.get("trace.run_s", math.nan) / untraced_run - 1.0
    samples = {name: f"median of {len(per_pass)} traced passes" for name in metrics}
    samples["trace.overhead_share"] = f"{len(per_pass)} traced vs {len(untraced)} untraced passes"
    return metrics, samples


def layer_shares(tracer: Tracer, run_id: int, wall_s: float, top: int = 14) -> list[tuple[str, float, float]]:
    """Largest self times of one traced pass, with their share of the pass."""
    self_s, _ = tracer.times(run_id)
    backward_rules = {f"autodiff.{op}{BACKWARD_SUFFIX}": f"autodiff.{op}" for op in AUTODIFF_OPS}
    merged: dict[str, float] = {}
    for name, value in self_s.items():
        key = backward_rules.get(name, name)
        merged[key] = merged.get(key, 0.0) + value
    ranked = sorted(merged.items(), key=lambda kv: -kv[1])[:top]
    return [(name, value, value / wall_s) for name, value in ranked]


def tail_level(n: int) -> float:
    """p90, or the highest whole percentile with at least ten samples beyond it."""
    if n == 0:
        return 90.0
    return float(max(50, min(90, math.floor(100.0 * (1.0 - 10.0 / n)))))


def percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return math.nan
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


# ---------------------------------------------------------------------------
# entry point


def print_result(res: Result, units: dict[str, str], trace: bool) -> None:
    mode = "traced per-layer" if trace else "end-to-end, untraced"
    print(f"== {res.workload} ({mode}): {res.attempted} operations, {res.failed} failed")
    share = res.failed / res.attempted if res.attempted else math.nan
    print(f"   failed_share = {share:.4f} ({res.failed}/{res.attempted} CLI commands)")
    for name, value in res.metrics.items():
        print(f"   {name:38s} {value:14.6f} {units.get(name, ''):12s} {res.samples.get(name, '')}")
    if res.shares:
        print("   largest self times of the first traced pass (share of its wall time):")
        for name, value, frac in res.shares:
            print(f"     {name:36s} {value:9.3f} s {100 * frac:6.1f}%")
    for problem in res.problems:
        print(f"   PROBLEM: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*BY_NAME, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "futuredistill" / "cli.py").is_file():
        print(f"perfbench: no futuredistill sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import futuredistill.cli  # noqa: F401

    import_s = time.perf_counter() - PROCESS_START
    logging.disable(logging.INFO)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))

    chosen = WORKLOADS if args.workload == "all" else (BY_NAME[args.workload],)
    trace = bool(args.trace)
    units = per_layer_units() if trace else END_TO_END
    results = [measure(wl, args.seed, args.seconds, trace, import_s) for wl in chosen]
    for res in results:
        print_result(res, units, trace)
    record = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace, "environment": env,
              "results": [vars(r) for r in results]}
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"result-{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    single = len(results) == 1
    metrics = {
        # a failed run can leave a metric undefined; JSON has no NaN, so it becomes null
        (name if single else f"{res.workload}/{name}"): {"value": value if math.isfinite(value) else None, "unit": units[name]}
        for res in results
        for name, value in res.metrics.items()
    }
    print(
        json.dumps(
            {
                "correct": all(r.correct for r in results),
                "attempted": sum(r.attempted for r in results),
                "failed": sum(r.failed for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
