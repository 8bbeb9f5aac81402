"""Config round-trip, checkpoint persistence, metrics/report, CLI contracts."""

import configparser
import csv
import io
import json
import os
import resource
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from futuredistill import cli
from futuredistill.checkpoint import (
    MAGIC,
    VERSION,
    load_backbone_checkpoint,
    read_checkpoint,
    save_checkpoint,
)
from futuredistill.config import (
    ExperimentConfig,
    GridConfig,
    config_hash,
    dump_config,
    load_config,
    load_grid_config,
    parse_config,
)
from futuredistill.downstream import MetricsRow, Protocol
from futuredistill.errors import CheckpointError, ConfigurationError, DivergenceError
from futuredistill.models import BackboneSpec, build_backbone
from futuredistill.reporting import (
    aggregate,
    append_metrics,
    generate_report,
    read_metrics,
    svg_line_plot,
    write_table_csv,
    write_table_text,
)
from futuredistill.synthdata import make_dataset, split_dataset

ROOT = Path(__file__).resolve().parents[1]

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

    def test_four_videos_rejected_before_any_work(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        path = tmp_path / "four.ini"
        path.write_text(
            QUICK_CONFIG.replace("videos = 5", "videos = 4").replace("out_dir = runs/quick", f"out_dir = {out_dir}")
        )
        with pytest.raises(ConfigurationError, match=r"dataset.videos must be >= 5 .* got 4"):
            load_config(path)
        assert cli.main(["pretrain", "--config", str(path)]) == cli.EXIT_CONFIG
        assert "dataset.videos" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("downstream", "task", "foo"),
            ("downstream", "task", "recognition"),
            ("downstream", "batch_size", "0"),
            ("downstream", "epochs", "-1"),
            ("downstream", "learning_rate", "0"),
            ("downstream", "sgd_momentum", "1"),
            ("distill", "batch_size", "0"),
            ("distill", "epochs", "-1"),
            ("distill", "learning_rate", "0"),
            ("distill", "sgd_momentum", "-0.1"),
        ],
    )
    def test_bad_stage_value_exits_2_before_any_work(self, tmp_path, capsys, section, key, value):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(QUICK_CONFIG)
        parser.set(section, key, value)
        out_dir = tmp_path / "out"
        parser.set("run", "out_dir", str(out_dir))
        path = tmp_path / "bad.ini"
        with path.open("w") as fh:
            parser.write(fh)
        with pytest.raises(ConfigurationError, match=f"{section}.{key}"):
            load_config(path)
        assert cli.main(["ablate", "--config", str(path)]) == cli.EXIT_CONFIG
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "grid",
        ["foo = 1", "intervals = 3,x", "backbones = Conv2dRecurrent, Nope"],
        ids=["unknown_key", "bad_interval", "bad_cell"],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["pretrain"],
            ["finetune", "--protocol", "supervised"],
            ["evaluate", "--checkpoint", "absent.ckpt"],
            ["ablate"],
        ],
        ids=["pretrain", "finetune", "evaluate", "ablate"],
    )
    def test_bad_grid_exits_2_from_every_command(self, tmp_path, capsys, grid, command):
        out_dir = tmp_path / "out"
        path = tmp_path / "bad_grid.ini"
        path.write_text(QUICK_CONFIG.replace("out_dir = runs/quick", f"out_dir = {out_dir}") + f"\n[grid]\n{grid}\n")
        with pytest.raises(ConfigurationError, match=r"grid\."):
            load_config(path)
        assert cli.main([command[0], "--config", str(path), *command[1:]]) == cli.EXIT_CONFIG
        assert "grid." in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.ini")), ids=lambda p: p.name)
    def test_shipped_config_loads_and_derives_its_grid(self, path):
        cfg = load_config(path)
        base, grid = load_grid_config(path)
        assert dump_config(base) == dump_config(cfg)
        cells = list(grid.cells(base))
        assert len(cells) == max(1, len(grid.backbones)) * max(1, len(grid.intervals)) * max(1, len(grid.losses))
        if grid == GridConfig():
            (cell,) = cells  # a config without [grid] is one cell, the base config
            assert dump_config(cell) == dump_config(base)

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.ini")), ids=lambda p: p.name)
    def test_shipped_cell_hashes_match_a_reparsed_dump(self, path):
        # a cell's config_hash, which checkpoint headers record, is the hash of
        # the base's dump re-parsed with the cell's values set
        base, grid = load_grid_config(path)
        for cell in grid.cells(base):
            ref = parse_config(dump_config(base))
            ref.backbone.family = cell.backbone.family
            ref.distill.t, ref.distill.t_pred = cell.distill.t, cell.distill.t_pred
            ref.distill.loss_variant = cell.distill.loss_variant
            ref.validate()
            assert config_hash(cell) == config_hash(ref)

    def test_grid_without_intervals_keeps_the_base_horizons(self, tmp_path):
        path = tmp_path / "t_pred6.ini"
        path.write_text(
            (ROOT / "configs" / "default.ini").read_text().replace("t_pred = 12", "t_pred = 6")
            + "\n[grid]\nbackbones = Conv2dRecurrent\n"
        )
        base, grid = load_grid_config(path)
        (cell,) = grid.cells(base)
        assert (base.distill.t, base.distill.t_pred) == (12, 6)
        assert (cell.distill.t, cell.distill.t_pred) == (12, 6)
        assert (cell.downstream.t, cell.downstream.t_pred) == (12, 6)
        assert dump_config(cell) == dump_config(base)

    def test_hash_changes_with_content(self):
        a = parse_config(QUICK_CONFIG)
        b = parse_config(QUICK_CONFIG.replace("epochs = 1", "epochs = 2", 1))
        assert config_hash(a) != config_hash(b)

    @pytest.mark.parametrize(
        "section, key, value, same",
        [
            ("run", "seeds", "0,1,2", True),
            ("run", "out_dir", "elsewhere", True),
            ("dataset", "seed", "2", False),
            ("backbone", "embed_dim", "16", False),
            ("distill", "learning_rate", "0.01", False),
            ("downstream", "learning_rate", "0.5", False),
        ],
    )
    def test_hash_ignores_run_and_covers_every_other_section(self, section, key, value, same):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(QUICK_CONFIG)
        parser.set(section, key, value)
        buf = io.StringIO()
        parser.write(buf)
        edited = parse_config(buf.getvalue())
        assert getattr(edited, section) != getattr(parse_config(QUICK_CONFIG), section)
        assert (config_hash(edited) == config_hash(parse_config(QUICK_CONFIG))) == same

    @pytest.mark.parametrize(
        "edit, grid, match",
        [
            ({"frames_per_video = 48": "frames_per_video = 30", "t = 6\nt_pred = 6": "t = 16\nt_pred = 16"}, "",
             r"distill.t \+ distill.t_pred = 32 exceeds dataset.frames_per_video = 30"),
            ({}, "\n[grid]\nintervals = 6,30\n",
             r"grid.intervals = 30: distill.t \+ distill.t_pred = 60 exceeds dataset.frames_per_video = 48"),
        ],
        ids=["base", "grid_interval"],
    )
    @pytest.mark.parametrize("command", ["pretrain", "ablate"])
    def test_clip_longer_than_a_video_exits_2_before_any_work(self, tmp_path, capsys, edit, grid, match, command):
        out_dir = tmp_path / "out"
        text = QUICK_CONFIG.replace("out_dir = runs/quick", f"out_dir = {out_dir}")
        for old, new in edit.items():
            text = text.replace(old, new)
        path = tmp_path / "long_clip.ini"
        path.write_text(text + grid)
        with pytest.raises(ConfigurationError, match=match):
            load_config(path)
        assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG
        assert "dataset.frames_per_video" in capsys.readouterr().err
        assert not out_dir.exists()


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
        table = aggregate(rows, ("backbone", "interval"))
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
        table = aggregate(rows, ("backbone", "loss_variant"))
        assert {r.key for r in table} == {("Conv2dRecurrent", "cosine"), ("Conv2dRecurrent", "mse")}

    def test_single_seed_omits_std(self, tmp_path):
        rows = [r for r in sample_rows() if r.seed == 0]
        table = aggregate(rows, ("backbone", "interval"))
        assert table[0].arms[Protocol.FINE_TUNE][1] is None  # no std with one seed
        out = tmp_path / "t.csv"
        write_table_csv(out, table, ["backbone", "interval"])
        rec = out.read_text().splitlines()[1].split(",")
        assert rec[3] == ""  # empty std cell

    def test_missing_arm_reads_empty_and_dash(self, tmp_path):
        rows = [r for r in sample_rows() if r.protocol != "fine_tune"]
        table = aggregate(rows, ("backbone", "interval"))
        write_table_csv(tmp_path / "t.csv", table, ["backbone", "interval"])
        write_table_text(tmp_path / "t.txt", table, ["backbone", "interval"], "title")
        # the fine_tune mean and std and the improvement that needs the mean are all empty
        assert (tmp_path / "t.csv").read_text().splitlines()[1] == (
            "Conv2dRecurrent,12,0.305000,0.005000,,,0.505000,0.005000,"
        )
        # and read "-" in text
        rec = (tmp_path / "t.txt").read_text().splitlines()[-1].split()
        assert rec == ["Conv2dRecurrent", "12", "0.3050", "+-", "0.0050", "-", "0.5050", "+-", "0.0050", "-"]

    def test_report_files_written(self, tmp_path):
        path = tmp_path / "metrics.csv"
        append_metrics(path, sample_rows())
        (tmp_path / "a_train_log.csv").write_text("step,loss,momentum,embed_std\n0,1.0,0.996,0.1\n1,0.8,0.996,0.1\n")
        written = generate_report(path, tmp_path / "report")
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

    def test_report_renders_finetune_curves(self, tmp_path):
        path = tmp_path / "metrics.csv"
        append_metrics(path, sample_rows())
        (tmp_path / "a_train_log.csv").write_text("step,loss,momentum,embed_std\n0,1.0,0.996,0.1\n")
        for arm, losses in (("fine_tune", (1.95, 1.7)), ("supervised", (1.9, 1.8))):
            rows = "".join(f"{e},{loss!r}\n" for e, loss in enumerate(losses))
            (tmp_path / f"a_seed0_{arm}_finetune_log.csv").write_text("epoch,loss\n" + rows)
        written = {p.name for p in generate_report(path, tmp_path / "report")}
        assert {"loss_curves.csv", "finetune_curves.svg", "finetune_curves.csv"} <= written
        report = tmp_path / "report"
        assert (report / "finetune_curves.csv").read_text().splitlines() == [
            "run,epoch,loss",
            "a_seed0_fine_tune,0,1.950000",
            "a_seed0_fine_tune,1,1.700000",
            "a_seed0_supervised,0,1.900000",
            "a_seed0_supervised,1,1.800000",
        ]
        svg = (report / "finetune_curves.svg").read_text()
        assert svg.count("<polyline") == 2 and ">epoch</text>" in svg
        # the pretrain curves keep skipping the fine-tune logs
        assert (report / "loss_curves.csv").read_text().splitlines() == ["run,step,loss", "a,0,1.000000"]

    def test_svg_plot_rejects_empty(self, tmp_path):
        with pytest.raises(ConfigurationError):
            svg_line_plot({}, tmp_path / "x.svg")

    def test_read_rejects_bad_version(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("#metrics-v9\nbackbone\n")
        with pytest.raises(ConfigurationError, match="version"):
            read_metrics(path)

    @pytest.mark.parametrize(
        "bad, match",
        [
            ("Conv2dRecurrent,12,linear_probe,cosine,0", "5 fields, expected 7"),
            ("Conv2dRecurrent,twelve,linear_probe,cosine,0,0.5,100", "invalid literal for int"),
            ("Conv2dRecurrent,12,linear_probe,cosine,0,high,100", "could not convert string to float"),
        ],
        ids=["short_row", "bad_int", "bad_float"],
    )
    def test_bad_row_names_its_line_and_report_exits_5(self, tmp_path, capsys, bad, match):
        path = tmp_path / "metrics.csv"
        append_metrics(path, sample_rows()[:2])
        with path.open("a") as fh:
            fh.write(bad + "\n")
        # version line, header, two rows: the bad row is line 5
        with pytest.raises(ConfigurationError, match=f"metrics.csv, line 5: {match}"):
            read_metrics(path)
        assert cli.main(["report", "--metrics", str(path)]) == cli.EXIT_EMPTY_METRICS
        assert "line 5" in capsys.readouterr().err


@pytest.fixture()
def quick_config_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(QUICK_CONFIG + f"\n[run]\nseeds = 0\nout_dir = {tmp_path / 'out'}\n".replace("[run]\n", ""))
    # rewrite run section cleanly instead of appending a duplicate
    cfg = QUICK_CONFIG.replace("out_dir = runs/quick", f"out_dir = {tmp_path / 'out'}")
    path.write_text(cfg)
    return path


@pytest.fixture(scope="module")
def supervised_checkpoint(tmp_path_factory):
    """(config, checkpoint) of one supervised arm at the default embed_dim, trained once per module."""
    tmp = tmp_path_factory.mktemp("supervised")
    config = tmp / "exp.ini"
    text = QUICK_CONFIG.replace("embed_dim = 32", "embed_dim = 64")
    config.write_text(text.replace("out_dir = runs/quick", f"out_dir = {tmp / 'out'}"))
    assert cli.main(["finetune", "--config", str(config), "--protocol", "supervised"]) == cli.EXIT_OK
    ckpt = next((tmp / "out").glob("*_supervised.ckpt"))
    assert cli.main(["evaluate", "--config", str(config), "--checkpoint", str(ckpt)]) == cli.EXIT_OK
    return config, ckpt


class TestCli:
    def run_cli(self, *argv):
        return cli.main(list(argv))

    def test_build_splits_generates_only_the_named_splits(self):
        cfg = parse_config(QUICK_CONFIG)
        d = cfg.dataset
        full = split_dataset(make_dataset(d.seed, d.videos, d.frames_per_video), seed=d.split_seed)
        assert [len(s) for s in full] == [3, 1, 1]
        for needed in (("train",), ("test",), ("train", "test"), cli.SPLIT_NAMES):
            part = cli.build_splits(cfg, *needed)
            for name, videos, ref in zip(cli.SPLIT_NAMES, part, full):
                if name not in needed:
                    assert videos is None
                    continue
                assert [v.video_id for v in videos] == [v.video_id for v in ref]
                for a, b in zip(videos, ref):
                    assert a.codes.tobytes() == b.codes.tobytes()
                    assert a.labels.tobytes() == b.labels.tobytes()

    def test_default_splits_fit_the_memory_budget(self):
        # the uint8 codes of the 48 default train and test videos take 35.4 MB; float32 frames took 4x that
        cfg = load_config(ROOT / "configs" / "default.ini")
        tracemalloc.start()
        try:
            splits = cli.build_splits(cfg, "train", "test")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(s) for s in splits if s) == 48
        assert peak < 40e6, f"build_splits peaked at {peak / 1e6:.1f} MB"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="sets glibc's malloc thresholds")
    def test_freed_heap_is_reused_without_page_faults(self):
        cli._retain_freed_heap()
        np.ones(2 << 20, np.float32)  # 8 MB, like one training step's temporaries, freed at once
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        np.ones(2 << 20, np.float32)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100

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

    def test_finetune_writes_each_arms_loss_curve(self, quick_config_file, tmp_path, monkeypatch):
        text = quick_config_file.read_text()
        quick_config_file.write_text(text.replace("task = prediction\nepochs = 1", "task = prediction\nepochs = 3"))
        real = cli.run_single_protocol
        returned = []

        def record(*args):
            result = real(*args)
            returned.append(result[2])
            return result

        monkeypatch.setattr(cli, "run_single_protocol", record)
        argv = ["finetune", "--config", str(quick_config_file), "--protocol", "supervised"]
        assert self.run_cli(*argv) == cli.EXIT_OK
        out = tmp_path / "out"
        (path,) = out.glob("*_finetune_log.csv")
        assert path.name == "Conv2dRecurrent_t6p6_cosine_seed0_supervised_finetune_log.csv"
        assert not path.match("*train_log.csv")  # report's pretrain-curve glob skips it
        with path.open(newline="") as fh:
            recs = list(csv.DictReader(fh))
        assert [int(r["epoch"]) for r in recs] == [0, 1, 2]
        losses = [float(r["loss"]) for r in recs]
        assert all(np.isfinite(losses))
        assert losses == [row.loss for row in returned[0]]

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

    @pytest.mark.parametrize(
        "header,match",
        [
            ({"params": [], "backbone_spec": {}}, "total_floats"),
            (
                {"params": [{"name": "w", "shape": [3, 2], "offset": 1}], "total_floats": 4, "backbone_spec": {}},
                "runs past",
            ),
            ([], "not an object"),
            ({"params": [], "total_floats": 4}, "no backbone_spec"),
            ({"params": [], "total_floats": 4, "backbone_spec": {"depth": 3}}, "does not fit BackboneSpec"),
        ],
        ids=["no_total_floats", "param_past_blob", "list_header", "no_backbone_spec", "unknown_spec_key"],
    )
    def test_malformed_header_exits_4(self, quick_config_file, tmp_path, capsys, header, match):
        raw = json.dumps(header).encode()
        path = tmp_path / "bad.ckpt"
        path.write_bytes(struct.pack("<4sII", MAGIC, VERSION, len(raw)) + raw + bytes(16))
        code = self.run_cli("evaluate", "--config", str(quick_config_file), "--checkpoint", str(path))
        assert code == cli.EXIT_MISMATCH
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h["backbone_spec"].update(family="Nope"),
            lambda h: h["backbone_spec"].update(frame_size=30),
            lambda h: h["backbone_spec"].pop("embed_dim"),
            lambda h: h["head"].pop("task"),
            lambda h: h.update(head="x"),
            lambda h: h["backbone_spec"].update(conv_widths=5),
            lambda h: h["head"].update(standardizer={"mu": [0.0] * 64}),
            lambda h: h["head"].update(standardizer={"mu": [0.0] * 3, "sigma": [1.0] * 3}),
            lambda h: h.update(params=[p for p in h["params"] if not p["name"].startswith("head.")]),
        ],
        ids=[
            "unknown_family", "bad_frame_size", "no_embed_dim", "no_head_task", "head_not_object",
            "int_conv_widths", "no_standardizer_sigma", "short_standardizer", "no_head_params",
        ],
    )
    def test_bad_supervised_header_exits_4(self, supervised_checkpoint, tmp_path, capsys, edit):
        config, ckpt = supervised_checkpoint
        raw = ckpt.read_bytes()
        _, _, n = struct.unpack_from("<4sII", raw)
        header = json.loads(raw[12 : 12 + n])
        edit(header)
        head = json.dumps(header).encode()
        path = tmp_path / "bad.ckpt"
        path.write_bytes(struct.pack("<4sII", MAGIC, VERSION, len(head)) + head + raw[12 + n :])
        code = self.run_cli("evaluate", "--config", str(config), "--checkpoint", str(path))
        assert code == cli.EXIT_MISMATCH
        assert "checkpoint error" in capsys.readouterr().err

    def test_evaluate_reproduces_every_arms_metrics_row(self, quick_config_file, tmp_path, capsys):
        assert self.run_cli("pretrain", "--config", str(quick_config_file)) == cli.EXIT_OK
        out = tmp_path / "out"
        stem = cli.cell_stem(load_config(quick_config_file), 0)
        for protocol in ("linear_probe", "fine_tune", "supervised"):
            argv = ["finetune", "--config", str(quick_config_file), "--protocol", protocol]
            if protocol != "supervised":
                argv += ["--checkpoint", str(out / f"{stem}.ckpt")]
            assert self.run_cli(*argv) == cli.EXIT_OK
        rows = read_metrics(out / "metrics.csv")
        assert [r.protocol for r in rows] == ["linear_probe", "fine_tune", "supervised"]
        for row in rows:
            capsys.readouterr()
            ckpt = out / f"{stem}_{row.protocol}.ckpt"
            argv = ["evaluate", "--config", str(quick_config_file), "--checkpoint", str(ckpt)]
            assert self.run_cli(*argv) == cli.EXIT_OK
            first = capsys.readouterr().out.splitlines()[0]
            assert first == f"macro_precision={row.macro_precision:.6f} n_frames={row.n_frames}", row.protocol

    def test_evaluate_head_mismatch_exits_4(self, quick_config_file, tmp_path, capsys):
        assert self.run_cli("pretrain", "--config", str(quick_config_file)) == cli.EXIT_OK
        out = tmp_path / "out"
        ckpt = next(iter(out.glob("*.ckpt")))
        assert self.run_cli(
            "finetune", "--config", str(quick_config_file), "--protocol", "fine_tune",
            "--checkpoint", str(ckpt),
        ) == cli.EXIT_OK
        tuned = next(iter(out.glob("*_fine_tune.ckpt")))
        other = tmp_path / "short_horizon.ini"
        other.write_text(quick_config_file.read_text().replace("t_pred = 6", "t_pred = 3"))
        capsys.readouterr()
        code = self.run_cli("evaluate", "--config", str(other), "--checkpoint", str(tuned))
        assert code == cli.EXIT_MISMATCH
        err = capsys.readouterr().err
        assert "'t_pred': 6" in err and "'t_pred': 3" in err

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

    def test_report_counts_a_rerun_finetune_once(self, quick_config_file, tmp_path):
        argv = ["finetune", "--config", str(quick_config_file), "--protocol", "supervised"]
        assert self.run_cli(*argv) == cli.EXIT_OK
        assert self.run_cli(*argv) == cli.EXIT_OK
        metrics = tmp_path / "out" / "metrics.csv"
        assert [(r.protocol, r.seed) for r in read_metrics(metrics)] == [("supervised", 0)] * 2
        assert self.run_cli("report", "--metrics", str(metrics), "--out", str(tmp_path / "report")) == cli.EXIT_OK
        with (tmp_path / "report" / "table_backbone_interval.csv").open(newline="") as fh:
            (rec,) = list(csv.DictReader(fh))
        assert rec["supervised_mean"] != "" and rec["supervised_std"] == ""

    def test_ablate_keeps_a_finished_arm_when_a_later_one_diverges(self, tmp_path, monkeypatch):
        path = tmp_path / "grid.ini"
        path.write_text(
            QUICK_CONFIG.replace("out_dir = runs/quick", f"out_dir = {tmp_path / 'grid'}")
            + "\n[grid]\nbackbones = Conv2dRecurrent\nintervals = 6\nlosses = cosine\n"
        )
        real = cli.run_single_protocol

        def diverge_on_fine_tune(*args):
            if args[2] is Protocol.FINE_TUNE:
                raise DivergenceError("fine-tuning diverged (injected)")
            return real(*args)

        monkeypatch.setattr(cli, "run_single_protocol", diverge_on_fine_tune)
        assert self.run_cli("ablate", "--config", str(path)) == cli.EXIT_PARTIAL
        rows = read_metrics(tmp_path / "grid" / "metrics.csv")
        assert [r.protocol for r in rows] == ["linear_probe"]
        assert json.loads((tmp_path / "grid" / "failures.json").read_text())[0]["error"].endswith("(injected)")
        # the partial run still reports the arm that finished
        with (tmp_path / "grid" / "report" / "table_backbone_interval.csv").open(newline="") as fh:
            (rec,) = list(csv.DictReader(fh))
        assert rec["linear_probe_mean"] == f"{rows[0].macro_precision:.6f}" and rec["fine_tune_mean"] == ""

        calls = []

        def record(*args):
            calls.append(args[2].value)
            return real(*args)

        monkeypatch.setattr(cli, "run_single_protocol", record)
        assert self.run_cli("ablate", "--config", str(path)) == cli.EXIT_OK
        assert calls == ["fine_tune", "supervised"]
        rows = read_metrics(tmp_path / "grid" / "metrics.csv")
        assert [r.protocol for r in rows] == ["linear_probe", "fine_tune", "supervised"]

    def _ablate_matches_the_commands(self, tmp_path, text, grid=""):
        """`ablate` on `text` + `grid` writes the files of `pretrain`, 3 x `finetune` per seed and `report` on `text`."""
        ablate_path = tmp_path / "ablate.ini"
        ablate_path.write_text(text.replace("out_dir = runs/quick", f"out_dir = {tmp_path / 'ablate'}") + grid)
        assert self.run_cli("ablate", "--config", str(ablate_path)) == cli.EXIT_OK
        single_path = tmp_path / "single.ini"
        single_path.write_text(text.replace("out_dir = runs/quick", f"out_dir = {tmp_path / 'single'}"))
        cfg = load_config(single_path)
        assert self.run_cli("pretrain", "--config", str(single_path)) == cli.EXIT_OK
        for seed in cfg.run.seeds:
            for protocol in Protocol:
                argv = ["finetune", "--config", str(single_path), "--protocol", protocol.value, "--seed", str(seed)]
                if protocol is not Protocol.FULL_SUPERVISED:
                    argv += ["--checkpoint", str(tmp_path / "single" / f"{cli.cell_stem(cfg, seed)}.ckpt")]
                assert self.run_cli(*argv) == cli.EXIT_OK
        metrics = tmp_path / "single" / "metrics.csv"
        assert self.run_cli("report", "--metrics", str(metrics), "--out", str(metrics.parent / "report")) == cli.EXIT_OK

        def files(run):
            return sorted(p.relative_to(tmp_path / run) for p in (tmp_path / run).rglob("*") if p.is_file())

        assert files("ablate") == files("single")
        # per seed: pretrain checkpoint and log, 3 arm checkpoints and logs; metrics.csv; 8 report files
        assert len(files("ablate")) == 8 * len(cfg.run.seeds) + 9
        for rel in files("ablate"):
            if rel.suffix != ".ckpt":
                assert (tmp_path / "ablate" / rel).read_bytes() == (tmp_path / "single" / rel).read_bytes(), rel
                continue
            ablate_header, ablate_params = read_checkpoint(tmp_path / "ablate" / rel)
            single_header, single_params = read_checkpoint(tmp_path / "single" / rel)
            assert ablate_header == single_header
            assert ablate_params.keys() == single_params.keys()
            assert any(k.startswith("backbone.") for k in ablate_params)
            is_arm = rel.stem.endswith(tuple(p.value for p in Protocol))
            assert any(k.startswith("head.") for k in ablate_params) == is_arm
            for key, arr in ablate_params.items():
                assert arr.tobytes() == single_params[key].tobytes(), (rel, key)
        rows = read_metrics(tmp_path / "ablate" / "metrics.csv")
        order = ("linear_probe", "fine_tune", "supervised")
        assert [(r.seed, r.protocol) for r in rows] == [(s, p) for s in cfg.run.seeds for p in order]
        for row in rows:
            assert (row.backbone, row.interval, row.loss_variant) == ("Conv2dRecurrent", cfg.distill.t, "cosine")
            assert 0.0 <= row.macro_precision <= 1.0
        return cfg

    def test_ablate_and_finetune_produce_the_same_cell(self, tmp_path):
        grid = "\n[grid]\nbackbones = Conv2dRecurrent\nintervals = 6\nlosses = cosine\n"
        self._ablate_matches_the_commands(tmp_path, QUICK_CONFIG, grid)

    def test_ablate_without_grid_is_the_main_run(self, tmp_path):
        # no [grid]: one cell, the base config, with its own t_pred kept
        text = QUICK_CONFIG.replace("seeds = 0", "seeds = 0,1").replace("t_pred = 6", "t_pred = 3")
        cfg = self._ablate_matches_the_commands(tmp_path, text)
        assert (cfg.distill.t, cfg.distill.t_pred, cfg.run.seeds) == (6, 3, (0, 1))
        header, _ = read_checkpoint(tmp_path / "ablate" / f"{cli.cell_stem(cfg, 1)}_fine_tune.ckpt")
        assert header["head"]["t_pred"] == 3

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
        report = tmp_path / "grid" / "report" / "table_backbone_interval.csv"
        report.unlink()
        assert self.run_cli("ablate", "--config", str(path)) == cli.EXIT_OK
        assert len(read_metrics(tmp_path / "grid" / "metrics.csv")) == 3
        assert mtimes == {p.name: p.stat().st_mtime_ns for p in (tmp_path / "grid").glob("*.ckpt")}
        assert report.is_file()  # a rerun that trains nothing still reports

    @staticmethod
    def _ablate_calls(monkeypatch):
        """Record the (stage, seed) of every pretraining and protocol arm that `ablate` trains."""
        calls = []
        real_pretrain, real_protocol = cli.pretrain, cli.run_single_protocol

        def pretrain(*args, seed):
            calls.append(("pretrain", seed))
            return real_pretrain(*args, seed=seed)

        def protocol(*args):
            calls.append((args[2].value, args[5]))
            return real_protocol(*args)

        monkeypatch.setattr(cli, "pretrain", pretrain)
        monkeypatch.setattr(cli, "run_single_protocol", protocol)
        return calls

    @staticmethod
    def _mtimes(out):
        return {p.name: p.stat().st_mtime_ns for p in out.glob("*.ckpt")}

    def test_ablate_retrains_a_cell_after_a_config_edit(self, tmp_path, monkeypatch):
        path = tmp_path / "exp.ini"
        text = QUICK_CONFIG.replace("out_dir = runs/quick", f"out_dir = {tmp_path / 'out'}")
        path.write_text(text)
        assert self.run_cli("ablate", "--config", str(path)) == cli.EXIT_OK
        before = self._mtimes(tmp_path / "out")
        assert len(before) == 4
        path.write_text(text.replace("learning_rate = 0.02", "learning_rate = 0.5"))
        calls = self._ablate_calls(monkeypatch)
        assert self.run_cli("ablate", "--config", str(path)) == cli.EXIT_OK
        assert calls == [("pretrain", 0), ("linear_probe", 0), ("fine_tune", 0), ("supervised", 0)]
        after = self._mtimes(tmp_path / "out")
        assert after.keys() == before.keys() and all(after[k] != before[k] for k in before)
        want = config_hash(load_config(path))
        assert all(read_checkpoint(tmp_path / "out" / name)[0]["config_hash"] == want for name in after)
        rows = read_metrics(tmp_path / "out" / "metrics.csv")
        assert len(rows) == 6
        with (tmp_path / "out" / "report" / "table_backbone_interval.csv").open(newline="") as fh:
            (rec,) = list(csv.DictReader(fh))
        for row in rows[3:]:  # the report shows the rerun's rows
            assert rec[f"{row.protocol}_mean"] == f"{row.macro_precision:.6f}"

    def test_ablate_trains_only_an_added_seed(self, tmp_path, monkeypatch):
        path = tmp_path / "exp.ini"
        text = QUICK_CONFIG.replace("out_dir = runs/quick", f"out_dir = {tmp_path / 'out'}")
        path.write_text(text)
        assert self.run_cli("ablate", "--config", str(path)) == cli.EXIT_OK
        before = self._mtimes(tmp_path / "out")
        path.write_text(text.replace("seeds = 0", "seeds = 0,1"))
        calls = self._ablate_calls(monkeypatch)
        assert self.run_cli("ablate", "--config", str(path)) == cli.EXIT_OK
        assert calls == [("pretrain", 1), ("linear_probe", 1), ("fine_tune", 1), ("supervised", 1)]
        after = self._mtimes(tmp_path / "out")
        assert {k: after[k] for k in before} == before and len(after) == 8
        assert [r.seed for r in read_metrics(tmp_path / "out" / "metrics.csv")] == [0, 0, 0, 1, 1, 1]

    def test_ablate_ignores_an_out_dir_edit(self, tmp_path, monkeypatch):
        path = tmp_path / "exp.ini"
        path.write_text(QUICK_CONFIG)
        out = tmp_path / "out"
        assert self.run_cli("ablate", "--config", str(path), "--out", str(out)) == cli.EXIT_OK
        before = self._mtimes(out)
        path.write_text(QUICK_CONFIG.replace("out_dir = runs/quick", "out_dir = runs/elsewhere"))
        calls = self._ablate_calls(monkeypatch)
        assert self.run_cli("ablate", "--config", str(path), "--out", str(out)) == cli.EXIT_OK
        assert calls == [] and self._mtimes(out) == before
        assert len(read_metrics(out / "metrics.csv")) == 3

    def test_ablate_refuses_a_corrupt_metrics_file_before_training(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(QUICK_CONFIG.replace("out_dir = runs/quick", f"out_dir = {tmp_path / 'out'}"))
        (tmp_path / "out").mkdir()
        append_metrics(tmp_path / "out" / "metrics.csv", sample_rows()[:1])
        with (tmp_path / "out" / "metrics.csv").open("a") as fh:
            fh.write("Conv2dRecurrent,6,linear_probe\n")
        calls = self._ablate_calls(monkeypatch)
        assert self.run_cli("ablate", "--config", str(path)) == cli.EXIT_CONFIG
        assert "metrics.csv, line 4" in capsys.readouterr().err
        assert calls == [] and not list((tmp_path / "out").glob("*.ckpt"))

    def test_ablate_fails_only_the_seed_with_an_unreadable_header(self, tmp_path, monkeypatch):
        path = tmp_path / "exp.ini"
        path.write_text(QUICK_CONFIG.replace("out_dir = runs/quick", f"out_dir = {tmp_path / 'out'}"))
        out = tmp_path / "out"
        assert self.run_cli("ablate", "--config", str(path)) == cli.EXIT_OK
        cfg = load_config(path)
        probe = out / f"{cli.cell_stem(cfg, 0)}_linear_probe.ckpt"
        raw = probe.read_bytes()
        _, _, n = struct.unpack_from("<4sII", raw)
        probe.write_bytes(raw[:12] + b"{" * n + raw[12 + n :])
        path.write_text(path.read_text().replace("seeds = 0", "seeds = 0,1"))
        calls = self._ablate_calls(monkeypatch)
        assert self.run_cli("ablate", "--config", str(path)) == cli.EXIT_PARTIAL
        (failure,) = json.loads((out / "failures.json").read_text())
        assert failure["cell"] == cli.cell_stem(cfg, 0) and "corrupt header" in failure["error"]
        assert {seed for _, seed in calls} == {1}
        assert (out / "report" / "table_backbone_interval.csv").is_file()

    def test_ablate_redoes_an_arm_whose_checkpoint_was_not_saved(self, tmp_path, monkeypatch):
        path = tmp_path / "exp.ini"
        path.write_text(QUICK_CONFIG.replace("out_dir = runs/quick", f"out_dir = {tmp_path / 'out'}"))
        real = cli.save_checkpoint

        def crash_on_fine_tune(ckpt_path, *args, **kwargs):
            if ckpt_path.name.endswith("_fine_tune.ckpt"):
                raise CheckpointError("disk gone (injected)")
            return real(ckpt_path, *args, **kwargs)

        monkeypatch.setattr(cli, "save_checkpoint", crash_on_fine_tune)
        assert self.run_cli("ablate", "--config", str(path)) == cli.EXIT_PARTIAL
        metrics = tmp_path / "out" / "metrics.csv"
        assert [r.protocol for r in read_metrics(metrics)] == ["linear_probe", "fine_tune"]  # row before checkpoint
        monkeypatch.setattr(cli, "save_checkpoint", real)
        calls = self._ablate_calls(monkeypatch)
        assert self.run_cli("ablate", "--config", str(path)) == cli.EXIT_OK
        assert calls == [("fine_tune", 0), ("supervised", 0)]
        rows = read_metrics(metrics)
        assert [r.protocol for r in rows] == ["linear_probe", "fine_tune", "fine_tune", "supervised"]
        with (tmp_path / "out" / "report" / "table_backbone_interval.csv").open(newline="") as fh:
            (rec,) = list(csv.DictReader(fh))
        assert rec["fine_tune_mean"] == f"{rows[2].macro_precision:.6f}" and rec["fine_tune_std"] == ""

    @pytest.mark.parametrize("key, value", [("frame_size", 16), ("channels", 1)])
    @pytest.mark.parametrize(
        "command",
        [["pretrain"], ["finetune", "--protocol", "supervised"], ["evaluate", "--checkpoint", "absent.ckpt"], ["ablate"]],
        ids=["pretrain", "finetune", "evaluate", "ablate"],
    )
    def test_frame_shape_other_than_the_videos_exits_2_before_any_work(
        self, tmp_path, monkeypatch, capsys, key, value, command
    ):
        out_dir = tmp_path / "out"
        path = tmp_path / "shape.ini"
        path.write_text(
            QUICK_CONFIG.replace("out_dir = runs/quick", f"out_dir = {out_dir}")
            .replace("embed_dim = 32", f"embed_dim = 32\n{key} = {value}")
        )
        assert getattr(load_config(path).backbone, key) == value  # valid as a config; bench_ops accepts it

        def no_data(*args, **kwargs):
            raise AssertionError("data built")

        monkeypatch.setattr(cli, "make_dataset", no_data)
        assert self.run_cli(command[0], "--config", str(path), *command[1:]) == cli.EXIT_CONFIG
        assert f"backbone.{key}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_out_root_env_override(self, quick_config_file, tmp_path, monkeypatch):
        root = tmp_path / "redirected"
        monkeypatch.setenv(cli.OUT_ROOT_ENV, str(root))
        cfg_text = quick_config_file.read_text().replace(str(tmp_path / "out"), "relative_out")
        quick_config_file.write_text(cfg_text)
        assert self.run_cli("pretrain", "--config", str(quick_config_file)) == cli.EXIT_OK
        assert (root / "relative_out").is_dir()
        assert list((root / "relative_out").glob("*.ckpt"))

    def test_ablate_honours_out_root_with_relative_out(self, tmp_path, monkeypatch):
        config = tmp_path / "exp.ini"
        config.write_text(QUICK_CONFIG)
        root, cwd = tmp_path / "root", tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.setenv(cli.OUT_ROOT_ENV, str(root))
        monkeypatch.chdir(cwd)
        assert self.run_cli("ablate", "--config", str(config), "--out", "rel") == cli.EXIT_OK
        assert (root / "rel" / "report" / "table_backbone_interval.csv").is_file()
        assert len(read_metrics(root / "rel" / "metrics.csv")) == 3
        assert not any(cwd.iterdir())

    def test_bench_ops_times_every_op_at_tiny_shapes(self, tmp_path):
        config = tmp_path / "tiny.ini"
        config.write_text(
            QUICK_CONFIG.replace("embed_dim = 32", "embed_dim = 16\nframe_size = 16\nconv_widths = 2,4")
            .replace("t = 6\nt_pred = 6", "t = 3\nt_pred = 3")
            .replace("batch_size = 4", "batch_size = 2")
        )
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "bench_ops.py"), "--config", str(config), "--repeats", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("cores: ") and "BLAS threads: 1;" in lines[0]
        rows = [line.split() for line in lines[3:]]
        assert {row[1] for row in rows} == {"conv2d", "conv3d", "lstm_sequence", "layer_norm", "gelu", "attention", "linear"}
        for row in rows:
            median, q1, q3 = float(row[-5]), float(row[-4].strip("[,")), float(row[-3].strip("]"))
            assert 0 < q1 <= median <= q3
            if row[1] in ("conv2d", "conv3d"):
                assert int(row[-2]) > 0 and 0 < float(row[-1].rstrip("%")) <= 100
            else:
                assert row[-2:] == ["-", "-"]
        # the residual block's convs: 2 clips of 3 frames at 8 x 8, stride 1, padding 1. The
        # H and W rows share their padding on a (3 + 2 + 1, 9, 9) grid, so the chunk loop
        # computes 2 * (1 + 2 * 81 + 7 * 9 + 7) columns for 2 * 3 * 8 * 8 outputs
        block = [row for row in rows if row[1:4] == ["conv3d", "2x2x3x8x8", "2x2x3x3x3"]]
        assert len(block) == 2 and {tuple(row[-2:]) for row in block} == {("466", "82.4%")}

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
