"""Command-line entry points: pretrain, finetune, evaluate, ablate, report.

Exit codes: 0 ok, 1 partial grid failure, 2 invalid config, 3 training
divergence, 4 checkpoint/config mismatch, 5 empty or missing metrics input.
The FUTUREDISTILL_OUT_ROOT environment variable re-roots relative output dirs.
"""

from __future__ import annotations

import argparse
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
from .downstream import MetricsRow, Protocol, evaluate_model, run_single_protocol
from .errors import CheckpointError, ConfigurationError, DivergenceError
from .models import BackboneSpec
from .reporting import append_metrics, completed_cells, generate_report, read_metrics
from .synthdata import make_dataset, split_dataset

log = logging.getLogger("futuredistill")

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_MISMATCH = 4
EXIT_EMPTY_METRICS = 5

OUT_ROOT_ENV = "FUTUREDISTILL_OUT_ROOT"

# the order in which `ablate` runs a cell's protocol arms and appends their rows
CELL_PROTOCOLS = (Protocol.LINEAR_PROBE, Protocol.FINE_TUNE, Protocol.FULL_SUPERVISED)


def resolve_out_dir(cfg_out: str, flag_out: str | None) -> Path:
    chosen = Path(flag_out) if flag_out else Path(cfg_out)
    root = os.environ.get(OUT_ROOT_ENV)
    if root and not chosen.is_absolute():
        chosen = Path(root) / chosen
    return chosen


def build_splits(cfg: ExperimentConfig):
    videos = make_dataset(cfg.dataset.seed, cfg.dataset.videos, cfg.dataset.frames_per_video)
    return split_dataset(videos, seed=cfg.dataset.split_seed)


def cell_stem(cfg: ExperimentConfig, seed: int) -> str:
    d = cfg.distill
    return f"{cfg.backbone.family}_t{d.t}p{d.t_pred}_{d.loss_variant}_seed{seed}"


def _pretrain_one(cfg: ExperimentConfig, splits, seed: int, out_dir: Path) -> Path:
    """Train one seed and write checkpoint + training log; returns checkpoint path."""
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
    return ckpt_path


def _run_protocols(
    cfg: ExperimentConfig, splits, seed: int, protocols, student, out_dir: Path
) -> list[MetricsRow]:
    """Train, test and checkpoint each protocol arm of one (cell config, seed).

    Each arm is written to `<stem>_<protocol>.ckpt`; returns one metrics row
    per protocol, in order. `student` may be None only for FULL_SUPERVISED.
    """
    tune_cfg = cfg.finetune_config()
    rows = []
    for protocol in protocols:
        row, model = run_single_protocol(
            cfg.backbone, student, protocol, splits, tune_cfg, seed, cfg.distill.loss_variant
        )
        save_checkpoint(
            out_dir / f"{cell_stem(cfg, seed)}_{protocol.value}.ckpt",
            model,
            cfg.backbone,
            config_hash=config_hash(cfg),
            head_cfg=tune_cfg,
        )
        log.info("%s seed %d: macro precision %.4f", protocol.value, seed, row.macro_precision)
        rows.append(row)
    return rows


def cmd_pretrain(args) -> int:
    cfg = load_config(args.config)
    out_dir = resolve_out_dir(cfg.run.out_dir, args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    splits = build_splits(cfg)
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
    out_dir = resolve_out_dir(cfg.run.out_dir, args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    protocol = Protocol.parse(args.protocol)
    if protocol is not Protocol.FULL_SUPERVISED and not args.checkpoint:
        raise ConfigurationError(f"protocol {protocol.value} requires --checkpoint")
    student = _load_student_for(cfg, args.checkpoint)
    splits = build_splits(cfg)
    seeds = [args.seed] if args.seed is not None else list(cfg.run.seeds)
    for seed in seeds:
        rows = _run_protocols(cfg, splits, seed, [protocol], student, out_dir)
        append_metrics(out_dir / "metrics.csv", rows)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    tune_cfg = cfg.finetune_config()
    header, params = read_checkpoint(args.checkpoint)
    backbone, spec = restore_backbone(args.checkpoint, header, params)
    _check_backbone(cfg, spec)
    head = restore_head(args.checkpoint, header, params, tune_cfg)
    splits = build_splits(cfg)
    result = evaluate_model(backbone, head, splits[2], tune_cfg)
    print(f"macro_precision={result.macro_precision:.6f} n_frames={result.n_frames}")
    for cls, p in enumerate(result.per_class):
        print(f"  class {cls}: precision {p:.4f}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    base, grid = load_grid_config(args.config)
    out_dir = resolve_out_dir(base.run.out_dir, args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.csv"
    done = completed_cells(read_metrics(metrics_path)) if metrics_path.exists() else set()
    failures = []
    any_ran = False
    for cell in grid.cells(base):
        splits = None
        for seed in cell.run.seeds:
            stem = cell_stem(cell, seed)
            d = cell.distill
            missing = [
                p for p in CELL_PROTOCOLS
                if (cell.backbone.family, d.t, p.value, d.loss_variant, seed) not in done
            ]
            if not missing:
                log.info("skipping completed cell %s", stem)
                continue
            any_ran = True
            try:
                if splits is None:
                    splits = build_splits(cell)
                ckpt_path = out_dir / f"{stem}.ckpt"
                if not ckpt_path.exists():
                    _pretrain_one(cell, splits, seed, out_dir)
                student = _load_student_for(cell, ckpt_path)
                rows = _run_protocols(cell, splits, seed, missing, student, out_dir)
                append_metrics(metrics_path, rows)
                done |= completed_cells(rows)
            except (ConfigurationError, DivergenceError, CheckpointError) as exc:
                log.error("cell %s failed: %s", stem, exc)
                failures.append({"cell": stem, "error": str(exc)})
    if failures:
        (out_dir / "failures.json").write_text(json.dumps(failures, indent=2))
        return EXIT_PARTIAL
    if not any_ran:
        log.info("all grid cells already complete; nothing to do")
    return EXIT_OK


def cmd_report(args) -> int:
    out_dir = Path(args.out) if args.out else Path(args.metrics).parent / "report"
    try:
        written = generate_report(args.metrics, out_dir, logs_dir=args.logs)
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

    p = sub.add_parser("ablate", help="run a backbone x interval x loss grid, resumable")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("report", help="aggregate a metrics CSV into tables and plot data")
    p.add_argument("--metrics", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--logs", default=None)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
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
