"""Command-line entry points: pretrain, finetune, evaluate, ablate, report.

`ablate` is the experiment driver. It runs every cell of the config's [grid]
(a config without [grid] is one cell, the base config) through pretraining and
the three protocol arms, skips each arm whose checkpoint records the cell's
config hash, and writes the report to `<out>/report`, also after a failure.

Exit codes: 0 ok, 1 partial grid failure, 2 invalid config, 3 training
divergence, 4 checkpoint/config mismatch, 5 empty or missing metrics input.
The FUTUREDISTILL_OUT_ROOT environment variable re-roots relative output dirs.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import sys
from pathlib import Path

from .checkpoint import (
    load_backbone_checkpoint,
    read_checkpoint,
    restore_backbone,
    restore_head,
    save_checkpoint,
)
from .config import ExperimentConfig, config_hash, load_config, load_grid_config
from .distill import pretrain, write_training_log
from .downstream import Protocol, evaluate_model, run_single_protocol, write_finetune_log
from .errors import CheckpointError, ConfigurationError, DivergenceError
from .models import BackboneSpec
from .reporting import append_metrics, generate_report, read_metrics
from .synthdata import CHANNELS, FRAME_SIZE, make_dataset, split_dataset

log = logging.getLogger("futuredistill")

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_MISMATCH = 4
EXIT_EMPTY_METRICS = 5

OUT_ROOT_ENV = "FUTUREDISTILL_OUT_ROOT"

SPLIT_NAMES = ("train", "val", "test")

# glibc's mallopt parameters and the values main() fixes them at. By default
# glibc sets its mmap threshold to the largest mmap-served block freed so far
# and returns the free top of the heap to the OS once it exceeds twice that.
# The blocks a command frees are a few MB at most, so the tens of MB of
# temporaries each training step frees would go back to the OS and fault in
# again as zero pages on the next step. The fixed values are the largest that
# glibc's adaptation reaches on 64-bit systems.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def resolve_out_dir(cfg_out: str, flag_out: str | None) -> Path:
    chosen = Path(flag_out) if flag_out else Path(cfg_out)
    root = os.environ.get(OUT_ROOT_ENV)
    if root and not chosen.is_absolute():
        chosen = Path(root) / chosen
    return chosen


def _check_frames(cfg: ExperimentConfig) -> None:
    """Raise ConfigurationError unless the backbone reads frames of the synthetic videos' shape."""
    for key, world in (("frame_size", FRAME_SIZE), ("channels", CHANNELS)):
        value = getattr(cfg.backbone, key)
        if value != world:
            raise ConfigurationError(f"backbone.{key} must be {world} for the synthetic videos, got {value}")


def build_splits(cfg: ExperimentConfig, *needed: str):
    """The (train, val, test) video lists of the config's dataset.

    The video ids are split first; only the videos of the `needed` splits
    (named as in SPLIT_NAMES) are generated, and the other splits are None.
    Each video is the same whichever splits are built with it.
    """
    d = cfg.dataset
    id_splits = split_dataset(list(range(d.videos)), seed=d.split_seed)
    kept = [ids if name in needed else None for name, ids in zip(SPLIT_NAMES, id_splits)]
    videos = make_dataset(d.seed, d.videos, d.frames_per_video, ids=[i for ids in kept if ids for i in ids])
    by_id = {v.video_id: v for v in videos}
    return tuple(None if ids is None else [by_id[i] for i in ids] for ids in kept)


def cell_stem(cfg: ExperimentConfig, seed: int) -> str:
    d = cfg.distill
    return f"{cfg.backbone.family}_t{d.t}p{d.t_pred}_{d.loss_variant}_seed{seed}"


def _pretrain_one(cfg: ExperimentConfig, splits, seed: int, out_dir: Path) -> None:
    """Train one seed and write checkpoint + training log."""
    result = pretrain(cfg.backbone, splits[0], cfg.distill, seed=seed)
    stem = cell_stem(cfg, seed)
    ckpt_path = out_dir / f"{stem}.ckpt"
    save_checkpoint(
        ckpt_path, result.pair.student, cfg.backbone, step=result.pair.step, config_hash=config_hash(cfg)
    )
    write_training_log(out_dir / f"{stem}_train_log.csv", result.log)
    final = result.log[-1] if result.log else None
    log.info(
        "pretrained %s: %d steps, final loss %s",
        stem,
        result.pair.step,
        f"{final.loss:.5f}" if final else "n/a",
    )


def _run_protocols(cfg: ExperimentConfig, splits, seed: int, protocols, student, out_dir: Path) -> None:
    """Train, test and checkpoint each protocol arm of one (cell config, seed).

    Each arm appends its `metrics.csv` row, then writes its per-epoch loss
    curve to `<stem>_<protocol>_finetune_log.csv` and its `<stem>_<protocol>.ckpt`,
    which marks it done for `ablate`; a crash in between makes a rerun redo the
    arm and append a row that replaces the first in the report. `student` may
    be None only for FULL_SUPERVISED.
    """
    for protocol in protocols:
        row, model, tune_log = run_single_protocol(
            cfg.backbone, student, protocol, splits, cfg.downstream, seed, cfg.distill.loss_variant
        )
        arm = f"{cell_stem(cfg, seed)}_{protocol.value}"
        append_metrics(out_dir / "metrics.csv", [row])
        write_finetune_log(out_dir / f"{arm}_finetune_log.csv", tune_log)
        save_checkpoint(
            out_dir / f"{arm}.ckpt",
            model,
            cfg.backbone,
            config_hash=config_hash(cfg),
            head_cfg=cfg.downstream,
        )
        log.info("%s seed %d: macro precision %.4f", protocol.value, seed, row.macro_precision)


def cmd_pretrain(args) -> int:
    cfg = load_config(args.config)
    _check_frames(cfg)
    out_dir = resolve_out_dir(cfg.run.out_dir, args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    splits = build_splits(cfg, "train")
    seeds = [args.seed] if args.seed is not None else list(cfg.run.seeds)
    for seed in seeds:
        _pretrain_one(cfg, splits, seed, out_dir)
    return EXIT_OK


def _check_backbone(cfg: ExperimentConfig, spec: BackboneSpec) -> None:
    if spec != cfg.backbone:
        raise CheckpointError(
            f"checkpoint backbone {spec} does not match config backbone {cfg.backbone}"
        )


def _load_student_for(cfg: ExperimentConfig, checkpoint: str | Path | None):
    if checkpoint is None:
        return None
    backbone, spec, _header = load_backbone_checkpoint(checkpoint)
    _check_backbone(cfg, spec)
    return backbone


def cmd_finetune(args) -> int:
    cfg = load_config(args.config)
    _check_frames(cfg)
    out_dir = resolve_out_dir(cfg.run.out_dir, args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    protocol = Protocol.parse(args.protocol)
    if protocol is not Protocol.FULL_SUPERVISED and not args.checkpoint:
        raise ConfigurationError(f"protocol {protocol.value} requires --checkpoint")
    student = _load_student_for(cfg, args.checkpoint)
    splits = build_splits(cfg, "train", "test")
    seeds = [args.seed] if args.seed is not None else list(cfg.run.seeds)
    for seed in seeds:
        _run_protocols(cfg, splits, seed, [protocol], student, out_dir)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    _check_frames(cfg)
    header, params = read_checkpoint(args.checkpoint)
    backbone, spec = restore_backbone(args.checkpoint, header, params)
    _check_backbone(cfg, spec)
    head = restore_head(args.checkpoint, header, params, cfg.downstream, spec)
    test_videos = build_splits(cfg, "test")[2]
    result = evaluate_model(backbone, head, test_videos, cfg.downstream)
    print(f"macro_precision={result.macro_precision:.6f} n_frames={result.n_frames}")
    for cls, p in enumerate(result.per_class):
        print(f"  class {cls}: precision {p:.4f}")
    return EXIT_OK


def _is_current(ckpt_path: Path, want_hash: str) -> bool:
    """Whether the checkpoint exists with `want_hash` in its header; logs a stale one."""
    if not ckpt_path.exists():
        return False
    stale = read_checkpoint(ckpt_path)[0].get("config_hash") != want_hash
    if stale:
        log.info("stale %s: written under another config; training it again", ckpt_path.name)
    return not stale


def cmd_ablate(args) -> int:
    base, grid = load_grid_config(args.config)
    _check_frames(base)  # grid cells keep the base's frame shape
    out_dir = resolve_out_dir(base.run.out_dir, args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.csv"
    if metrics_path.exists():
        read_metrics(metrics_path)  # the report reads it at the end; refuse a corrupt one before training
    failures = []
    for cell in grid.cells(base):
        want_hash = config_hash(cell)
        splits = None
        for seed in cell.run.seeds:
            stem = cell_stem(cell, seed)
            try:
                missing = [p for p in Protocol if not _is_current(out_dir / f"{stem}_{p.value}.ckpt", want_hash)]
                if not missing:
                    log.info("skipping completed cell %s", stem)
                    continue
                if splits is None:
                    splits = build_splits(cell, "train", "test")
                ckpt_path = out_dir / f"{stem}.ckpt"
                if not _is_current(ckpt_path, want_hash):
                    _pretrain_one(cell, splits, seed, out_dir)
                student = _load_student_for(cell, ckpt_path)
                _run_protocols(cell, splits, seed, missing, student, out_dir)
            except (ConfigurationError, DivergenceError, CheckpointError) as exc:
                log.error("cell %s failed: %s", stem, exc)
                failures.append({"cell": stem, "error": str(exc)})
    if metrics_path.exists():
        generate_report(metrics_path, out_dir / "report")
    if failures:
        (out_dir / "failures.json").write_text(json.dumps(failures, indent=2))
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_report(args) -> int:
    out_dir = Path(args.out) if args.out else Path(args.metrics).parent / "report"
    try:
        written = generate_report(args.metrics, out_dir)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_METRICS
    for path in written:
        print(path)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="futuredistill",
        description="Future-context distillation experiments on a synthetic driving world",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="run distillation pretraining, write checkpoint + log")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("finetune", help="train one protocol arm and append metrics")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--protocol", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("evaluate", help="evaluate a finetuned checkpoint on the test split")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("ablate", help="run the config's grid (one cell without [grid]) and report; resumable")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("report", help="aggregate a metrics CSV into tables and plot data")
    p.add_argument("--metrics", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_report)
    return parser


def _retain_freed_heap() -> None:
    """Keep freed heap memory for reuse instead of returning it to the OS after every step (glibc only)."""
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    _retain_freed_heap()
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
