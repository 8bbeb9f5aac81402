"""Experiment configuration: flat key = value sections, strict round-trip.

The on-disk format is INI-style for diff-friendliness. Every section, [grid]
included, is parsed by every loader: unknown sections or keys are rejected with
the offending name, and values are coerced from the target dataclass field
types.
"""

from __future__ import annotations

import configparser
import copy
import hashlib
import io
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .distill import DistillConfig
from .downstream import FinetuneConfig
from .errors import ConfigurationError
from .models import BackboneSpec

_LOSS_ALIASES = {"ce": "cross_entropy", "crossentropy": "cross_entropy", "cos": "cosine"}


@dataclass
class DatasetConfig:
    videos: int = 60
    frames_per_video: int = 240
    seed: int = 0
    split_seed: int = 0

    def validate(self) -> None:
        if self.videos < 5:
            raise ConfigurationError(
                f"dataset.videos must be >= 5 so the 60/20/20 split gives val and test a video each, "
                f"got {self.videos}"
            )
        if self.frames_per_video < 24:
            raise ConfigurationError(f"dataset.frames_per_video must be >= 24, got {self.frames_per_video}")
        if self.seed < 0 or self.split_seed < 0:
            raise ConfigurationError(
                f"dataset.seed and dataset.split_seed must be non-negative, got {self.seed}, {self.split_seed}"
            )


@dataclass
class RunConfig:
    seeds: tuple[int, ...] = (0,)
    out_dir: str = "runs/default"


@dataclass
class GridConfig:
    backbones: tuple[str, ...] = ()
    intervals: tuple[int, ...] = ()
    losses: tuple[str, ...] = ()

    def cells(self, base: "ExperimentConfig") -> list["ExperimentConfig"]:
        """One derived, validated ExperimentConfig per grid cell.

        A key the grid leaves empty keeps the base value, so a config without
        [grid] is one cell equal to the base. A cell that does not validate
        raises ConfigurationError naming the grid keys and values that made it.
        """
        backbones = self.backbones or (base.backbone.family,)
        intervals = self.intervals or (None,)
        losses = self.losses or (base.distill.loss_variant,)
        cells = []
        for family in backbones:
            for interval in intervals:
                for loss in losses:
                    try:
                        cells.append(derive_cell(base, family, interval, loss))
                    except ConfigurationError as exc:
                        values = {"backbones": family, "intervals": interval, "losses": loss}
                        named = ", ".join(f"grid.{key} = {v}" for key, v in values.items() if getattr(self, key))
                        raise ConfigurationError(f"{named or 'grid'}: {exc}") from None
        return cells


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    backbone: BackboneSpec = field(default_factory=BackboneSpec)
    distill: DistillConfig = field(default_factory=DistillConfig)
    downstream: FinetuneConfig = field(default_factory=FinetuneConfig)
    run: RunConfig = field(default_factory=RunConfig)

    def validate(self) -> None:
        self.dataset.validate()
        self.backbone.frames = self.distill.t  # the student always sees t frames
        self.backbone.validate()
        self.distill.validate()
        self.downstream.validate()
        span, length = self.distill.t + self.distill.t_pred, self.dataset.frames_per_video
        if span > length:
            raise ConfigurationError(f"distill.t + distill.t_pred = {span} exceeds dataset.frames_per_video = {length}")
        if not self.run.seeds:
            raise ConfigurationError("run.seeds must list at least one seed")
        if min(self.run.seeds) < 0:
            raise ConfigurationError(f"run.seeds must be non-negative, got {', '.join(map(str, self.run.seeds))}")


def derive_cell(base: ExperimentConfig, family: str, interval: int | None, loss: str) -> ExperimentConfig:
    """`base` with the cell's overrides; an interval sets both horizons, None keeps the base's."""
    cell = copy.deepcopy(base)
    cell.backbone.family = family
    if interval is not None:
        cell.distill.t = cell.distill.t_pred = interval
    cell.distill.loss_variant = loss
    cell.validate()
    return cell


_SECTIONS = ("dataset", "backbone", "distill", "downstream", "run")
# keys a config file never holds: ExperimentConfig.validate sets backbone.frames from distill.t
_HIDDEN_KEYS = {"backbone": {"frames"}}


def _coerce(section: str, key: str, raw: str, target_type):
    raw = raw.strip()
    try:
        if target_type is bool:
            if raw.lower() in ("true", "yes", "1", "on"):
                return True
            if raw.lower() in ("false", "no", "0", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        if target_type is str:
            return raw
        # tuples: comma-separated, element type inferred from the annotation
        origin = getattr(target_type, "__origin__", None)
        if origin is tuple:
            elem = target_type.__args__[0]
            items = [s.strip() for s in raw.split(",") if s.strip()]
            return tuple(elem(s) for s in items)
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"{section}.{key}: cannot parse {raw!r} ({exc})") from None
    raise ConfigurationError(f"{section}.{key}: unsupported field type {target_type}")


def _parse_section(parser: configparser.ConfigParser, section: str, target) -> None:
    """Set the section's keys on the dataclass `target`, coerced to its field types."""
    hints = typing.get_type_hints(type(target))
    known = {f.name for f in fields(target)} - _HIDDEN_KEYS.get(section, set())
    for key, raw in parser.items(section):
        if key not in known:
            raise ConfigurationError(f"unknown key {section}.{key}")
        value = _coerce(section, key, raw, hints[key])
        if key == "loss_variant":
            value = _loss_name(value)
        elif key == "losses":
            value = tuple(map(_loss_name, value))
        setattr(target, key, value)


def _loss_name(name: str) -> str:
    return _LOSS_ALIASES.get(name.lower(), name.lower())


def _parse(text: str) -> tuple[ExperimentConfig, GridConfig]:
    """The validated experiment sections of `text` and its [grid] section (empty when absent)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config syntax error: {exc}") from None
    cfg, grid = ExperimentConfig(), GridConfig()
    for section in parser.sections():
        if section == "grid":
            target = grid
        elif section in _SECTIONS:
            target = getattr(cfg, section)
        else:
            raise ConfigurationError(f"unknown config section [{section}]")
        _parse_section(parser, section, target)
    cfg.validate()
    grid.cells(cfg)
    return cfg, grid


def parse_config(text: str) -> ExperimentConfig:
    return _parse(text)[0]


def _read_config_file(path: str | Path) -> str:
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    return path.read_text()


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(_read_config_file(path))


def dump_config(cfg: ExperimentConfig) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    for section in _SECTIONS:
        parser.add_section(section)
        hidden = _HIDDEN_KEYS.get(section, set())
        for key, value in asdict(getattr(cfg, section)).items():
            if key in hidden:
                continue
            if isinstance(value, (tuple, list)):
                value = ",".join(str(v) for v in value)
            parser.set(section, key, str(value))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def config_hash(cfg: ExperimentConfig) -> str:
    """SHA-256 of the config's dump with [run] at its defaults: seeds and out_dir decide no result."""
    return hashlib.sha256(dump_config(replace(cfg, run=RunConfig())).encode()).hexdigest()


def load_grid_config(path: str | Path) -> tuple[ExperimentConfig, GridConfig]:
    """Read the base experiment plus its [grid] section (empty when absent)."""
    return _parse(_read_config_file(path))
