"""Checks of the benchmark itself, at tiny budgets.

Run from the repository root with `python3 -m pytest -q perfbench`.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import BY_NAME, check_outputs  # noqa: E402

# Same layers as the real workloads, shrunk so one pass takes about a second.
TINY = {
    "main": replace(BY_NAME["main-c2r-t12"], t=4, videos=5, frames_per_video=48, batch_size=4, downstream_batch_size=8),
    "c3d": replace(BY_NAME["pretrain-c3d-t6"], t=2, videos=5, frames_per_video=32, batch_size=2),
    "tt": replace(BY_NAME["pretrain-tt-t6-ce"], t=2, videos=5, frames_per_video=32, batch_size=4, pretrain_epochs=1),
}
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def work_dir(tmp_path):
    return tmp_path / "pass"


def _owners():
    from futuredistill import autodiff, cli, distill, downstream, models, nn

    return [autodiff, cli, distill, downstream, models.Backbone, distill.DistillModel, nn.SelfAttention, nn.LstmCell]


def test_every_patched_attribute_is_restored():
    before = [dict(vars(owner)) for owner in _owners()]
    tracer = Tracer()
    tracer.install()
    patched = tracer.patched()
    assert len(patched) > 30
    for owner, attr, original in patched:
        assert vars(owner)[attr] is not original, f"{owner}.{attr} was not replaced"
    tracer.restore()
    assert tracer.patched() == []
    after = [dict(vars(owner)) for owner in _owners()]
    for snap_before, snap_after in zip(before, after):
        assert snap_before.keys() == snap_after.keys()
        for key, value in snap_before.items():
            assert snap_after[key] is value, f"{key} differs after restore"


def test_clock_and_tracer_restore_after_a_failing_pass(work_dir):
    from futuredistill import distill

    original = vars(distill)["sgd_step"]
    wl = replace(TINY["tt"], loss="no_such_loss")  # the CLI rejects the config: exit code 2
    record = run.run_pass(wl, 0, work_dir, 0, Tracer())
    assert record.exit_codes == [2]
    assert record.failures
    assert vars(distill)["sgd_step"] is original


@pytest.mark.parametrize("kind", ["main", "tt"])
def test_traced_pass_is_bitwise_equal_to_untraced(work_dir, kind):
    wl = TINY[kind]
    plain = run.run_pass(wl, 3, work_dir, 0, None)
    traced = run.run_pass(wl, 3, work_dir, 1, Tracer())
    assert plain.failures == [] and traced.failures == []
    assert plain.final_loss is not None and plain.final_loss == traced.final_loss
    assert plain.precision == traced.precision
    assert plain.digest == traced.digest
    if kind == "main":
        assert set(plain.precision) == {"linear_probe", "fine_tune", "supervised"}


def test_self_times_plus_remainder_sum_to_traced_run_s(work_dir):
    tracer = Tracer()
    record = run.run_pass(TINY["main"], 1, work_dir, 0, tracer)
    window = (record.first_step, record.t1)
    self_s, _ = tracer.times(0, window)
    remainder = record.run_s - tracer.covered(0, window)
    assert all(v >= -1e-9 for v in self_s.values())
    assert math.isclose(sum(self_s.values()) + remainder, record.run_s, rel_tol=1e-9, abs_tol=1e-9)
    assert 0.0 <= remainder < 0.05 * record.run_s
    whole_self, _ = tracer.times(0)
    assert math.isclose(sum(whole_self.values()), tracer.covered(0, (record.t0, record.t1)), rel_tol=1e-9)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("kind", ["main", "c3d"])
def test_every_benchmark_metric_is_emitted_with_its_unit(kind, trace):
    result = run.measure(TINY[kind], 2, 0.0, bool(trace), import_s=0.25)
    assert result.correct, result.problems
    assert result.failed == 0 and result.attempted >= 2
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = run.per_layer_units() if trace else run.END_TO_END
    assert set(result.metrics) == {m["name"] for m in declared}
    for m in declared:
        assert units[m["name"]] == m["unit"]
        assert math.isfinite(result.metrics[m["name"]])
    if not trace:
        assert all(result.metrics[m["name"]] > 0 for m in declared)
        assert f"mean over {TINY[kind].quality_passes} pass seeds" in result.samples["macro_precision"]


def test_output_checks_count_each_broken_output(work_dir):
    from futuredistill.checkpoint import read_checkpoint

    wl = TINY["main"]
    record = run.run_pass(wl, 0, work_dir, 0, None)
    assert record.failures == []
    codes = record.exit_codes

    # parameters are stored backbone first, head last: a flipped head bit is allowed
    probe = work_dir / f"{wl.stem(0)}_linear_probe.ckpt"
    raw = bytearray(probe.read_bytes())
    raw[-1] ^= 0x01
    probe.write_bytes(bytes(raw))
    assert check_outputs(wl, 0, work_dir, codes).failures == []

    _, params = read_checkpoint(probe)
    assert next(iter(params)).startswith("backbone.")
    body_start = len(raw) - 4 * sum(a.size for a in params.values())
    raw[body_start] ^= 0x01
    probe.write_bytes(bytes(raw))
    assert (1, "linear_probe: backbone arrays differ from the pretrain checkpoint") in check_outputs(wl, 0, work_dir, codes).failures

    metrics = work_dir / "metrics.csv"
    text = metrics.read_text().splitlines()
    text[2] = ",".join(text[2].split(",")[:-1] + ["1"])  # wrong n_frames on the linear_probe row
    metrics.write_text("\n".join(text) + "\n")
    (work_dir / "report" / "table_loss_variants.txt").unlink()
    failed = check_outputs(wl, 0, work_dir, codes).failures
    assert any(op == 1 and "n_frames" in msg for op, msg in failed)
    assert any(op == 4 and "report: missing" in msg for op, msg in failed)

    log = work_dir / f"{wl.stem(0)}_train_log.csv"
    lines = log.read_text().splitlines()
    lines[-1] = ",".join([lines[-1].split(",")[0], "nan"] + lines[-1].split(",")[2:])
    log.write_text("\n".join(lines) + "\n")
    assert (0, "pretrain: training log missing or has a non-finite loss") in check_outputs(wl, 0, work_dir, codes).failures
    assert (1, "command 1 exited 3") in check_outputs(wl, 0, work_dir, [0, 3, 0, 0, 0]).failures


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_level(1000) == 90
    assert run.tail_level(42) == 76
    for n in (20, 42, 63, 99, 150):
        level = run.tail_level(n)
        values = sorted(float(i) for i in range(n))
        beyond = sum(1 for v in values if v > run.percentile(values, level))
        assert beyond >= 10


def test_exits_nonzero_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "main-c2r-t12", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(BY_NAME)
    for wl in BENCHMARK["workloads"]:
        assert wl["why"] == BY_NAME[wl["name"]].why and len(wl["why"]) <= 200
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
