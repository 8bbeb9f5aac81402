"""The run's records, each row a dataclass whose fields name and type its CSV columns, and the report on them.

`metrics.csv` is append-only: a version line, the MetricsRow header, then one
row per (protocol, seed) evaluation, floats at 6 decimals. A rerun appends a
second row for the same cell and seed; reports count only the last one, which
belongs to the checkpoint the rerun overwrote. `write_log` writes each training
log (PretrainLogRow, FinetuneLogRow) whole, floats at full precision. Readers
raise ConfigurationError naming the file and line of a bad header, field count
or value. Reports aggregate seeds as mean and std per Protocol and emit the
REPORT_TABLES (a missing arm reads `-`, or an empty CSV cell) plus both logs'
loss curves as CSV and SVG. Reports are pure functions of their inputs.
"""

from __future__ import annotations

import csv
import functools
import io
import os
from collections import defaultdict
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence, get_type_hints

import numpy as np

from .distill import PretrainLogRow
from .downstream import FinetuneLogRow, Protocol
from .errors import ConfigurationError

METRICS_VERSION_LINE = "#metrics-v1"


@dataclass
class MetricsRow:
    """The test result of one protocol arm of one (cell config, seed)."""

    backbone: str
    interval: int
    protocol: str
    loss_variant: str
    seed: int
    macro_precision: float
    n_frames: int


@functools.cache
def _columns(row_type: type) -> tuple[list[str], list[type]]:
    """The field names of the dataclass row_type, its CSV header, and their types, each its column's parser."""
    hints = get_type_hints(row_type)
    return [f.name for f in fields(row_type)], [hints[f.name] for f in fields(row_type)]


def _record(row, float_text: Callable[[float], str]) -> list[str]:
    """The row's CSV record: a float field by float_text(float(v)), any other field by str."""
    names, kinds = _columns(type(row))
    values = (getattr(row, name) for name in names)
    return [float_text(float(v)) if kind is float else str(v) for kind, v in zip(kinds, values)]


def _parse_rows(path: str | Path, lines: list[str], row_type: type, first_line: int) -> list:
    """The row_type rows of the CSV lines, a header then records, whose first line is line first_line of path."""
    names, kinds = _columns(row_type)
    reader = csv.reader(lines)
    header = next(reader, None)
    if header != names:
        raise ConfigurationError(f"{path}, line {first_line}: bad header {header}, expected {names}")
    rows = []
    for rec in reader:
        if not rec:
            continue
        line = first_line + reader.line_num - 1  # the header is line first_line
        if len(rec) != len(names):
            raise ConfigurationError(f"{path}, line {line}: {len(rec)} fields, expected {len(names)}")
        try:
            rows.append(row_type(*(kind(value) for kind, value in zip(kinds, rec))))
        except ValueError as exc:
            raise ConfigurationError(f"{path}, line {line}: {exc}") from None
    return rows


def format_row(row: MetricsRow) -> list[str]:
    """One metrics.csv record: a float field with 6 decimals, any other field by str."""
    return _record(row, "{:.6f}".format)


def append_metrics(path: str | Path, rows: list[MetricsRow]) -> None:
    """Append rows, preceded by the version/header preamble when the file is empty."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    preamble, body = io.StringIO(), io.StringIO()
    preamble.write(METRICS_VERSION_LINE + "\n")
    csv.writer(preamble).writerow(_columns(MetricsRow)[0])
    csv.writer(body).writerows(map(format_row, rows))
    with path.open("a", newline="") as fh:
        _locked_append(fh, preamble.getvalue(), body.getvalue())


def _locked_append(fh, preamble: str, payload: str) -> None:
    """Append payload, preceded by preamble when the file is empty, under an exclusive flock where flock exists.

    Nothing runs grid cells in parallel; the lock guards the appends of
    concurrent commands that share one out dir, such as two `finetune` arms.
    The file's size is read under the lock, so only the first of them to
    append writes the preamble.
    """
    try:
        import fcntl
    except ImportError:  # non-POSIX: single-process appends only
        fcntl = None
    if fcntl is not None:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
    try:
        if os.fstat(fh.fileno()).st_size == 0:
            fh.write(preamble)
        fh.write(payload)
        fh.flush()
    finally:
        if fcntl is not None:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def read_metrics(path: str | Path) -> list[MetricsRow]:
    """The rows of a metrics.csv; an empty file holds none (append_metrics writes its preamble first)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"metrics file not found: {path}")
    lines = path.read_text().splitlines()
    if not lines:
        return []
    if not lines[0].startswith("#metrics-v"):
        raise ConfigurationError(f"{path}: missing metrics version line")
    if lines[0] != METRICS_VERSION_LINE:
        raise ConfigurationError(f"{path}: unsupported metrics version {lines[0]!r}")
    return _parse_rows(path, lines[1:], MetricsRow, first_line=2)


def write_log(path: str | Path, row_type: type, rows: Sequence) -> None:
    """Write rows as CSV under row_type's header: a float field by repr(float(v)), never np.float64(...)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_columns(row_type)[0])
        writer.writerows(_record(row, repr) for row in rows)


def read_log(path: str | Path, row_type: type) -> list:
    """The row_type rows of a log written by write_log."""
    return _parse_rows(path, Path(path).read_text().splitlines(), row_type, first_line=1)


# ---------------------------------------------------------------------------
# aggregated tables

# (file stem, key fields, title) of each report table
REPORT_TABLES = (
    (
        "table_backbone_interval",
        ("backbone", "interval"),
        "Macro precision by backbone and input length (mean over seeds)",
    ),
    (
        "table_loss_variants",
        ("backbone", "loss_variant"),
        "Macro precision by backbone and pretraining loss (mean over seeds)",
    ),
)


@dataclass
class TableRow:
    """One table row; arms maps each Protocol, in order, to (mean or nan without rows, std or None for one seed)."""

    key: tuple
    arms: dict[Protocol, tuple[float, float | None]]

    @property
    def improvement(self) -> float:
        return self.arms[Protocol.FINE_TUNE][0] - self.arms[Protocol.FULL_SUPERVISED][0]


def aggregate(rows: list[MetricsRow], key_names: Sequence[str]) -> list[TableRow]:
    """One TableRow per distinct value of the key_names fields, sorted by it."""
    grouped: dict[tuple, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    # a rerun's row replaces the earlier one of its (backbone, interval, protocol, loss, seed)
    latest = {(r.backbone, r.interval, r.protocol, r.loss_variant, r.seed): r for r in rows}
    for row in latest.values():
        grouped[tuple(getattr(row, name) for name in key_names)][row.protocol].append(row.macro_precision)
    return [TableRow(key, {p: _mean_std(grouped[key][p.value]) for p in Protocol}) for key in sorted(grouped)]


def _mean_std(vals: list[float]) -> tuple[float, float | None]:
    if not vals:
        return float("nan"), None
    return float(np.mean(vals)), float(np.std(vals)) if len(vals) > 1 else None


def _csv_cell(v: float | None) -> str:
    return "" if v is None or np.isnan(v) else f"{v:.6f}"


def _fmt_cell(ms: tuple[float, float | None]) -> str:
    mean, std = ms
    if np.isnan(mean):
        return "-"
    return f"{mean:.4f}" if std is None else f"{mean:.4f} +- {std:.4f}"


def write_table_csv(path: str | Path, table: list[TableRow], key_names: Sequence[str]) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = list(key_names)
        for protocol in Protocol:
            header += [f"{protocol.value}_mean", f"{protocol.value}_std"]
        writer.writerow(header + ["improvement"])
        for row in table:
            rec = [str(k) for k in row.key]
            for mean, std in row.arms.values():
                rec += [_csv_cell(mean), _csv_cell(std)]
            writer.writerow(rec + [_csv_cell(row.improvement)])


def write_table_text(path: str | Path, table: list[TableRow], key_names: Sequence[str], title: str) -> None:
    cols = list(key_names) + [p.value for p in Protocol] + ["improvement"]
    body = []
    for row in table:
        gain = "-" if np.isnan(row.improvement) else f"{row.improvement:+.4f}"
        body.append([str(k) for k in row.key] + [_fmt_cell(ms) for ms in row.arms.values()] + [gain])
    widths = [max(len(c), *(len(r[i]) for r in body)) if body else len(c) for i, c in enumerate(cols)]
    lines = [title, ""]
    lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for rec in body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(rec, widths)))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# loss-curve plot data


def svg_line_plot(
    series: dict[str, tuple[list[float], list[float]]],
    path: str | Path,
    title: str = "",
    x_label: str = "step",
) -> None:
    """Minimal dependency-free SVG polyline chart of loss over x_label, 640x400 pixels."""
    width, height, margin = 640, 400, 56
    xs_all = [x for xs, _ in series.values() for x in xs]
    ys_all = [y for _, ys in series.values() for y in ys]
    if not xs_all:
        raise ConfigurationError("svg_line_plot: no data points")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" font-size="12">{x_label}</text>',
        f'<text x="16" y="{height // 2}" font-size="12" transform="rotate(-90 16 {height // 2})" text-anchor="middle">loss</text>',
        f'<text x="{margin}" y="{height - margin + 16}" font-size="10" text-anchor="middle">{x_lo:g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" font-size="10" text-anchor="middle">{x_hi:g}</text>',
        f'<text x="{margin - 4}" y="{height - margin}" font-size="10" text-anchor="end">{y_lo:.4g}</text>',
        f'<text x="{margin - 4}" y="{margin + 4}" font-size="10" text-anchor="end">{y_hi:.4g}</text>',
    ]
    for i, (name, (xs, ys)) in enumerate(sorted(series.items())):
        color = palette[i % len(palette)]
        points = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 14 * i + 10}" font-size="10" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


def collect_logs(directory: str | Path, tag: str, row_type: type) -> dict[str, tuple[list[float], list[float]]]:
    """Each *<tag>.csv log of row_type under directory with rows, as loss over row_type's first field, by run stem."""
    x_key = fields(row_type)[0].name
    series = {}
    for log_path in sorted(Path(directory).rglob(f"*{tag}.csv")):
        rows = read_log(log_path, row_type)
        if rows:
            series[log_path.stem.replace(f"_{tag}", "")] = ([getattr(r, x_key) for r in rows], [r.loss for r in rows])
    return series


def _write_curves(out_dir: Path, name: str, series, x_key: str, title: str) -> list[Path]:
    """Write series as <name>.svg and <name>.csv (run,<x_key>,loss); returns both paths."""
    svg_path = out_dir / f"{name}.svg"
    svg_line_plot(series, svg_path, title=title, x_label=x_key)
    csv_path = out_dir / f"{name}.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", x_key, "loss"])
        for run, (xs, ys) in sorted(series.items()):
            for x, y in zip(xs, ys):
                writer.writerow([run, int(x), f"{y:.6f}"])
    return [svg_path, csv_path]


def generate_report(metrics_path: str | Path, out_dir: str | Path) -> list[Path]:
    """Emit the REPORT_TABLES plus the loss curves of the logs beside metrics_path; returns the files written."""
    rows = read_metrics(metrics_path)
    if not rows:
        raise ConfigurationError(f"{metrics_path}: no metrics rows to report")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for stem, key_names, title in REPORT_TABLES:
        table = aggregate(rows, key_names)
        write_table_csv(out_dir / f"{stem}.csv", table, key_names)
        write_table_text(out_dir / f"{stem}.txt", table, key_names, title)
        written += [out_dir / f"{stem}.csv", out_dir / f"{stem}.txt"]

    # "*train_log.csv" does not match the fine-tune arms' "*_finetune_log.csv".
    curves = (
        ("train_log", PretrainLogRow, "loss_curves", "Pretraining loss"),
        ("finetune_log", FinetuneLogRow, "finetune_curves", "Fine-tune train loss"),
    )
    for tag, row_type, name, title in curves:
        series = collect_logs(Path(metrics_path).parent, tag, row_type)
        if series:
            written += _write_curves(out_dir, name, series, fields(row_type)[0].name, title)
    return written
