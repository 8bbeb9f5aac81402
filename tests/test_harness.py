"""Config round-trip, checkpoint persistence, metrics/report, CLI contracts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from futuredistill import cli
from futuredistill.checkpoint import (
    load_backbone_checkpoint,
    read_checkpoint,
    save_checkpoint,
)
from futuredistill.config import (
    ExperimentConfig,
    config_hash,
    dump_config,
    load_config,
    load_grid_config,
    parse_config,
)
from futuredistill.downstream import MetricsRow
from futuredistill.errors import CheckpointError, ConfigurationError, DivergenceError
from futuredistill.models import BackboneSpec, build_backbone
from futuredistill.reporting import (
    append_metrics,
    generate_report,
    read_metrics,
    svg_line_plot,
    table_by_interval,
    table_by_loss,
)

QUICK_CONFIG = """
[dataset]
videos = 5
frames_per_video = 48
seed = 1

[backbone]
family = Conv2dRecurrent
embed_dim = 32
recurrent_hidden = 32

[distill]
t = 6
t_pred = 6
loss_variant = cosine
batch_size = 4
epochs = 1
learning_rate = 0.005

[downstream]
task = prediction
epochs = 1
learning_rate = 0.02
batch_size = 16

[run]
seeds = 0
out_dir = runs/quick
"""


class TestConfig:
    def test_round_trip(self):
        cfg = parse_config(QUICK_CONFIG)
        again = parse_config(dump_config(cfg))
        assert dump_config(cfg) == dump_config(again)
        assert config_hash(cfg) == config_hash(again)

    def test_values_parsed(self):
        cfg = parse_config(QUICK_CONFIG)
        assert cfg.dataset.videos == 5
        assert cfg.backbone.family == "Conv2dRecurrent"
        assert cfg.backbone.frames == 6  # derived from distill.t
        assert cfg.distill.t_pred == 6
        assert cfg.run.seeds == (0,)

    def test_unknown_key_rejected(self):
        broken = QUICK_CONFIG.replace("loss_variant = cosine", "loss_variant = cosine\nwarmup = 5")
        with pytest.raises(ConfigurationError, match="unknown key distill.warmup"):
            parse_config(broken)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError, match=r"unknown config section \[optimizer\]"):
            parse_config(QUICK_CONFIG + "\n[optimizer]\nlr = 1\n")

    def test_bad_value_names_field(self):
        broken = QUICK_CONFIG.replace("epochs = 1\nlearning_rate = 0.02", "epochs = soon\nlearning_rate = 0.02")
        with pytest.raises(ConfigurationError, match="epochs"):
            parse_config(broken)

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.ini"
        with pytest.raises(ConfigurationError, match="nope.ini"):
            load_config(missing)

    def test_loss_alias(self):
        cfg = parse_config(QUICK_CONFIG.replace("loss_variant = cosine", "loss_variant = CE"))
        assert cfg.distill.loss_variant == "cross_entropy"

    def test_grid_section(self, tmp_path):
        text = QUICK_CONFIG + "\n[grid]\nbackbones = Conv2dRecurrent,Conv3dResidual\nintervals = 3,6\nlosses = cosine\n"
        path = tmp_path / "grid.ini"
        path.write_text(text)
        base, grid = load_grid_config(path)
        cells = list(grid.cells(base))
        assert len(cells) == 4
        combos = {(c.backbone.family, c.distill.t, c.distill.loss_variant) for c in cells}
        assert ("Conv3dResidual", 3, "cosine") in combos
        for c in cells:
            assert c.distill.t == c.distill.t_pred  # grid intervals set both horizons

    def test_hash_changes_with_content(self):
        a = parse_config(QUICK_CONFIG)
        b = parse_config(QUICK_CONFIG.replace("epochs = 1", "epochs = 2", 1))
        assert config_hash(a) != config_hash(b)


class TestCheckpoint:
    def make_backbone(self):
        spec = BackboneSpec(family="Conv2dRecurrent", frames=6, embed_dim=32, recurrent_hidden=32)
        return build_backbone(spec, seed=7), spec

    def test_round_trip_bitwise(self, tmp_path):
        backbone, spec = self.make_backbone()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, backbone, spec, step=42, config_hash="abc")
        loaded, loaded_spec, header = load_backbone_checkpoint(path)
        assert header["step"] == 42
        assert header["config_hash"] == "abc"
        assert loaded_spec == spec
        for (n1, p1), (n2, p2) in zip(backbone.named_parameters(), loaded.named_parameters()):
            assert n1 == n2
            assert p1.data.tobytes() == p2.data.tobytes()

    def test_save_is_atomic_no_tmp_left(self, tmp_path):
        backbone, spec = self.make_backbone()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, backbone, spec)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_truncated_file_refuses_to_load(self, tmp_path):
        backbone, spec = self.make_backbone()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, backbone, spec)
        raw = path.read_bytes()
        for cut in (10, len(raw) // 2, len(raw) - 4):
            (tmp_path / "cut.ckpt").write_bytes(raw[:cut])
            with pytest.raises(CheckpointError):
                read_checkpoint(tmp_path / "cut.ckpt")

    def test_bad_magic_and_version(self, tmp_path):
        backbone, spec = self.make_backbone()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, backbone, spec)
        raw = bytearray(path.read_bytes())
        bad_magic = tmp_path / "magic.ckpt"
        bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(bad_magic)
        bad_version = tmp_path / "version.ckpt"
        raw[4] = 99
        bad_version.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(bad_version)

    def test_config_hash_mismatch_refused(self, tmp_path):
        backbone, spec = self.make_backbone()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, backbone, spec, config_hash="aaaa")
        with pytest.raises(CheckpointError, match="hash mismatch"):
            load_backbone_checkpoint(path, expect_config_hash="bbbb")


def sample_rows():
    rows = []
    for seed in (0, 1):
        for protocol, p in (("linear_probe", 0.3), ("fine_tune", 0.6), ("supervised", 0.5)):
            rows.append(
                MetricsRow(
                    backbone="Conv2dRecurrent",
                    interval=12,
                    protocol=protocol,
                    loss_variant="cosine",
                    seed=seed,
                    macro_precision=p + 0.01 * seed,
                    n_frames=100,
                )
            )
    return rows


class TestMetricsAndReport:
    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / "metrics.csv"
        rows = sample_rows()
        append_metrics(path, rows[:3])
        append_metrics(path, rows[3:])
        back = read_metrics(path)
        assert len(back) == len(rows)
        assert back[0].protocol == "linear_probe"
        assert back[-1].macro_precision == pytest.approx(0.51)
        assert path.read_text().splitlines()[0] == "#metrics-v1"

    def test_improvement_recomputed_matches(self, tmp_path):
        rows = sample_rows()
        table = table_by_interval(rows)
        assert len(table) == 1
        row = table[0]
        ft = np.mean([r.macro_precision for r in rows if r.protocol == "fine_tune"])
        sup = np.mean([r.macro_precision for r in rows if r.protocol == "supervised"])
        assert row.improvement == pytest.approx(ft - sup, abs=1e-12)

    def test_loss_table_groups_variants(self):
        rows = sample_rows()
        for r in sample_rows():
            r.loss_variant = "mse"
            rows.append(r)
        table = table_by_loss(rows)
        assert {r.key for r in table} == {("Conv2dRecurrent", "cosine"), ("Conv2dRecurrent", "mse")}

    def test_single_seed_omits_std(self, tmp_path):
        rows = [r for r in sample_rows() if r.seed == 0]
        table = table_by_interval(rows)
        assert table[0].fine_tune[1] is None  # no std with one seed
        out = tmp_path / "t.csv"
        from futuredistill.reporting import write_table_csv

        write_table_csv(out, table, ["backbone", "interval"])
        rec = out.read_text().splitlines()[1].split(",")
        assert rec[3] == ""  # empty std cell

    def test_report_files_written(self, tmp_path):
        path = tmp_path / "metrics.csv"
        append_metrics(path, sample_rows())
        (tmp_path / "a_train_log.csv").write_text("step,loss,momentum,embed_std\n0,1.0,0.996,0.1\n1,0.8,0.996,0.1\n")
        written = generate_report(path, tmp_path / "report", logs_dir=tmp_path)
        names = {p.name for p in written}
        assert names == {
            "table_backbone_interval.csv",
            "table_backbone_interval.txt",
            "table_loss_variants.csv",
            "table_loss_variants.txt",
            "loss_curves.svg",
            "loss_curves.csv",
        }
        svg = (tmp_path / "report" / "loss_curves.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_svg_plot_rejects_empty(self, tmp_path):
        with pytest.raises(ConfigurationError):
            svg_line_plot({}, tmp_path / "x.svg")

    def test_read_rejects_bad_version(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("#metrics-v9\nbackbone\n")
        with pytest.raises(ConfigurationError, match="version"):
            read_metrics(path)


@pytest.fixture()
def quick_config_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(QUICK_CONFIG + f"\n[run]\nseeds = 0\nout_dir = {tmp_path / 'out'}\n".replace("[run]\n", ""))
    # rewrite run section cleanly instead of appending a duplicate
    cfg = QUICK_CONFIG.replace("out_dir = runs/quick", f"out_dir = {tmp_path / 'out'}")
    path.write_text(cfg)
    return path


class TestCli:
    def run_cli(self, *argv):
        return cli.main(list(argv))

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = self.run_cli("pretrain", "--config", str(tmp_path / "absent.ini"))
        assert code == cli.EXIT_CONFIG
        assert "absent.ini" in capsys.readouterr().err

    def test_pretrain_writes_checkpoint_and_log(self, quick_config_file, tmp_path):
        code = self.run_cli("pretrain", "--config", str(quick_config_file))
        assert code == cli.EXIT_OK
        out = tmp_path / "out"
        ckpts = list(out.glob("*.ckpt"))
        logs = list(out.glob("*_train_log.csv"))
        assert len(ckpts) == 1 and len(logs) == 1
        assert len(logs[0].read_text().splitlines()) >= 2

    def test_finetune_all_protocols_and_row_counts(self, quick_config_file, tmp_path):
        assert self.run_cli("pretrain", "--config", str(quick_config_file)) == cli.EXIT_OK
        out = tmp_path / "out"
        ckpt = next(iter(out.glob("*.ckpt")))
        ckpt_bytes = ckpt.read_bytes()
        for protocol in ("linear_probe", "fine_tune", "supervised"):
            argv = ["finetune", "--config", str(quick_config_file), "--protocol", protocol]
            if protocol != "supervised":
                argv += ["--checkpoint", str(ckpt)]
            assert self.run_cli(*argv) == cli.EXIT_OK
        assert ckpt.read_bytes() == ckpt_bytes  # input checkpoint never mutated
        rows = read_metrics(out / "metrics.csv")
        assert len(rows) == 3  # 3 protocols x 1 seed
        assert {r.protocol for r in rows} == {"linear_probe", "fine_tune", "supervised"}

    def test_probe_requires_checkpoint(self, quick_config_file, capsys):
        code = self.run_cli("finetune", "--config", str(quick_config_file), "--protocol", "linear_probe")
        assert code == cli.EXIT_CONFIG

    def test_spec_mismatch_exits_4(self, quick_config_file, tmp_path):
        assert self.run_cli("pretrain", "--config", str(quick_config_file)) == cli.EXIT_OK
        ckpt = next(iter((tmp_path / "out").glob("*.ckpt")))
        other = tmp_path / "other.ini"
        other.write_text(
            quick_config_file.read_text().replace("family = Conv2dRecurrent", "family = Conv3dResidual")
        )
        code = self.run_cli(
            "finetune", "--config", str(other), "--protocol", "fine_tune", "--checkpoint", str(ckpt)
        )
        assert code == cli.EXIT_MISMATCH

    def test_evaluate_finetuned_checkpoint(self, quick_config_file, tmp_path, capsys):
        assert self.run_cli("pretrain", "--config", str(quick_config_file)) == cli.EXIT_OK
        out = tmp_path / "out"
        ckpt = next(iter(out.glob("*.ckpt")))
        assert self.run_cli(
            "finetune", "--config", str(quick_config_file), "--protocol", "fine_tune",
            "--checkpoint", str(ckpt),
        ) == cli.EXIT_OK
        tuned = next(iter(out.glob("*_fine_tune.ckpt")))
        code = self.run_cli("evaluate", "--config", str(quick_config_file), "--checkpoint", str(tuned))
        assert code == cli.EXIT_OK
        assert "macro_precision=" in capsys.readouterr().out

    def test_evaluate_head_mismatch_exits_4(self, quick_config_file, tmp_path, capsys):
        assert self.run_cli("pretrain", "--config", str(quick_config_file)) == cli.EXIT_OK
        out = tmp_path / "out"
        ckpt = next(iter(out.glob("*.ckpt")))
        assert self.run_cli(
            "finetune", "--config", str(quick_config_file), "--protocol", "fine_tune",
            "--checkpoint", str(ckpt),
        ) == cli.EXIT_OK
        tuned = next(iter(out.glob("*_fine_tune.ckpt")))
        other = tmp_path / "recognition.ini"
        other.write_text(
            quick_config_file.read_text().replace("task = prediction", "task = recognition")
        )
        capsys.readouterr()
        code = self.run_cli("evaluate", "--config", str(other), "--checkpoint", str(tuned))
        assert code == cli.EXIT_MISMATCH
        err = capsys.readouterr().err
        assert "'task': 'prediction'" in err and "'task': 'recognition'" in err

    def test_finetune_appends_each_seed_before_a_later_one_diverges(
        self, quick_config_file, tmp_path, monkeypatch
    ):
        quick_config_file.write_text(quick_config_file.read_text().replace("seeds = 0", "seeds = 0,1"))
        real = cli.run_single_protocol

        def diverge_on_seed_1(*args):
            if args[5] == 1:
                raise DivergenceError("fine-tuning diverged (injected)")
            return real(*args)

        monkeypatch.setattr(cli, "run_single_protocol", diverge_on_seed_1)
        code = self.run_cli("finetune", "--config", str(quick_config_file), "--protocol", "supervised")
        assert code == cli.EXIT_DIVERGENCE
        rows = read_metrics(tmp_path / "out" / "metrics.csv")
        assert [(r.protocol, r.seed) for r in rows] == [("supervised", 0)]

    def test_ablate_and_finetune_produce_the_same_cell(self, tmp_path):
        def config(out_dir):
            return QUICK_CONFIG.replace("out_dir = runs/quick", f"out_dir = {out_dir}")

        grid_path = tmp_path / "grid.ini"
        grid_path.write_text(
            config(tmp_path / "grid")
            + "\n[grid]\nbackbones = Conv2dRecurrent\nintervals = 6\nlosses = cosine\n"
        )
        assert self.run_cli("ablate", "--config", str(grid_path)) == cli.EXIT_OK
        single_path = tmp_path / "single.ini"
        single_path.write_text(config(tmp_path / "single"))
        assert self.run_cli("pretrain", "--config", str(single_path)) == cli.EXIT_OK
        stem = cli.cell_stem(load_config(single_path), 0)
        for protocol in ("linear_probe", "fine_tune", "supervised"):
            argv = ["finetune", "--config", str(single_path), "--protocol", protocol]
            if protocol != "supervised":
                argv += ["--checkpoint", str(tmp_path / "single" / f"{stem}.ckpt")]
            assert self.run_cli(*argv) == cli.EXIT_OK

        metrics = [(tmp_path / run / "metrics.csv").read_text() for run in ("grid", "single")]
        assert metrics[0] == metrics[1]
        rows = read_metrics(tmp_path / "grid" / "metrics.csv")
        assert [r.protocol for r in rows] == ["linear_probe", "fine_tune", "supervised"]
        for row in rows:
            assert (row.backbone, row.interval, row.loss_variant, row.seed) == (
                "Conv2dRecurrent", 6, "cosine", 0,
            )
            assert 0.0 <= row.macro_precision <= 1.0
        for protocol in ("linear_probe", "fine_tune", "supervised"):
            name = f"{stem}_{protocol}.ckpt"
            grid_header, grid_params = read_checkpoint(tmp_path / "grid" / name)
            single_header, single_params = read_checkpoint(tmp_path / "single" / name)
            # the config hash covers run.out_dir, which differs between the two runs
            del grid_header["config_hash"], single_header["config_hash"]
            assert grid_header == single_header
            assert grid_params.keys() == single_params.keys()
            assert any(k.startswith("backbone.") for k in grid_params)
            assert any(k.startswith("head.") for k in grid_params)
            for key, arr in grid_params.items():
                assert arr.tobytes() == single_params[key].tobytes(), (protocol, key)

    def test_report_empty_metrics_exits_5(self, tmp_path, capsys):
        code = self.run_cli("report", "--metrics", str(tmp_path / "none.csv"), "--out", str(tmp_path))
        assert code == cli.EXIT_EMPTY_METRICS

    def test_ablate_runs_and_reruns_idempotently(self, tmp_path):
        cfg_text = QUICK_CONFIG.replace("out_dir = runs/quick", f"out_dir = {tmp_path / 'grid'}")
        cfg_text += "\n[grid]\nbackbones = Conv2dRecurrent\nintervals = 6\nlosses = cosine\n"
        path = tmp_path / "grid.ini"
        path.write_text(cfg_text)
        assert self.run_cli("ablate", "--config", str(path)) == cli.EXIT_OK
        rows = read_metrics(tmp_path / "grid" / "metrics.csv")
        assert len(rows) == 3
        # second run: all cells complete, no new rows, no retraining
        mtimes = {p.name: p.stat().st_mtime_ns for p in (tmp_path / "grid").glob("*.ckpt")}
        assert self.run_cli("ablate", "--config", str(path)) == cli.EXIT_OK
        assert len(read_metrics(tmp_path / "grid" / "metrics.csv")) == 3
        assert mtimes == {p.name: p.stat().st_mtime_ns for p in (tmp_path / "grid").glob("*.ckpt")}

    def test_out_root_env_override(self, quick_config_file, tmp_path, monkeypatch):
        root = tmp_path / "redirected"
        monkeypatch.setenv(cli.OUT_ROOT_ENV, str(root))
        cfg_text = quick_config_file.read_text().replace(str(tmp_path / "out"), "relative_out")
        quick_config_file.write_text(cfg_text)
        assert self.run_cli("pretrain", "--config", str(quick_config_file)) == cli.EXIT_OK
        assert (root / "relative_out").is_dir()
        assert list((root / "relative_out").glob("*.ckpt"))

    def test_console_entry_point(self):
        # the child imports the same package as this process, installed or not
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "futuredistill.cli", "--help"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        for sub_cmd in ("pretrain", "finetune", "evaluate", "ablate", "report"):
            assert sub_cmd in proc.stdout
