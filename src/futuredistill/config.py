"""Experiment configuration: flat key = value sections, strict round-trip.

The on-disk format is INI-style for diff-friendliness. Unknown sections or
keys are rejected with the offending name; values are coerced from the target
dataclass field types.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import asdict, dataclass, field, fields
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
        if self.videos < 3:
            raise ConfigurationError(f"dataset.videos must be >= 3 for a 60/20/20 split, got {self.videos}")
        if self.frames_per_video < 24:
            raise ConfigurationError(f"dataset.frames_per_video must be >= 24, got {self.frames_per_video}")


@dataclass
class DownstreamConfig:
    task: str = "prediction"
    epochs: int = 10
    learning_rate: float = 0.02
    sgd_momentum: float = 0.9
    batch_size: int = 32

    def to_finetune(self, t: int, t_pred: int) -> FinetuneConfig:
        return FinetuneConfig(
            task=self.task,
            t=t,
            t_pred=t_pred,
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            sgd_momentum=self.sgd_momentum,
            batch_size=self.batch_size,
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

    def cells(self, base: "ExperimentConfig"):
        """Yield one derived ExperimentConfig per grid cell."""
        backbones = self.backbones or (base.backbone.family,)
        intervals = self.intervals or (base.distill.t,)
        losses = self.losses or (base.distill.loss_variant,)
        for family in backbones:
            for interval in intervals:
                for loss in losses:
                    yield derive_cell(base, family, interval, loss)


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    backbone: BackboneSpec = field(default_factory=BackboneSpec)
    distill: DistillConfig = field(default_factory=DistillConfig)
    downstream: DownstreamConfig = field(default_factory=DownstreamConfig)
    run: RunConfig = field(default_factory=RunConfig)

    def validate(self) -> None:
        self.dataset.validate()
        self.backbone.frames = self.distill.t  # the student always sees t frames
        self.backbone.validate()
        self.distill.validate()
        if not self.run.seeds:
            raise ConfigurationError("run.seeds must list at least one seed")

    def finetune_config(self) -> FinetuneConfig:
        return self.downstream.to_finetune(self.distill.t, self.distill.t_pred)


def derive_cell(base: ExperimentConfig, family: str, interval: int, loss: str) -> ExperimentConfig:
    cell = parse_config(dump_config(base))  # deep copy via round-trip
    cell.backbone.family = family
    cell.distill.t = interval
    cell.distill.t_pred = interval
    cell.distill.loss_variant = loss
    cell.validate()
    return cell


_SECTION_TYPES = {
    "dataset": DatasetConfig,
    "backbone": BackboneSpec,
    "distill": DistillConfig,
    "downstream": DownstreamConfig,
    "run": RunConfig,
}
# backbone.frames is derived from distill.t, never written or read
_HIDDEN_KEYS = {"backbone": {"frames"}}


def _coerce(section: str, key: str, raw: str, target_type):
    raw = raw.strip()
    try:
        if target_type is bool or target_type == "bool":
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


def _resolved_types(cls) -> dict:
    import typing

    return typing.get_type_hints(cls)


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config syntax error: {exc}") from None
    cfg = ExperimentConfig()
    for section in parser.sections():
        if section == "grid":
            continue  # handled by load_grid_config
        if section not in _SECTION_TYPES:
            raise ConfigurationError(f"unknown config section [{section}]")
        target = getattr(cfg, section)
        hints = _resolved_types(_SECTION_TYPES[section])
        known = {f.name for f in fields(_SECTION_TYPES[section])} - _HIDDEN_KEYS.get(section, set())
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigurationError(f"unknown key {section}.{key}")
            value = _coerce(section, key, raw, hints[key])
            if section == "distill" and key == "loss_variant":
                value = _LOSS_ALIASES.get(str(value).lower(), str(value).lower())
            setattr(target, key, value)
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    return parse_config(path.read_text())


def dump_config(cfg: ExperimentConfig) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    for section, obj in (
        ("dataset", cfg.dataset),
        ("backbone", cfg.backbone),
        ("distill", cfg.distill),
        ("downstream", cfg.downstream),
        ("run", cfg.run),
    ):
        parser.add_section(section)
        hidden = _HIDDEN_KEYS.get(section, set())
        for key, value in asdict(obj).items():
            if key in hidden:
                continue
            if isinstance(value, (tuple, list)):
                value = ",".join(str(v) for v in value)
            parser.set(section, key, str(value))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()


def load_grid_config(path: str | Path) -> tuple[ExperimentConfig, GridConfig]:
    """Read the base experiment plus an optional [grid] section."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    text = path.read_text()
    base = parse_config(text)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    grid = GridConfig()
    if parser.has_section("grid"):
        known = {f.name for f in fields(GridConfig)}
        hints = _resolved_types(GridConfig)
        for key, raw in parser.items("grid"):
            if key not in known:
                raise ConfigurationError(f"unknown key grid.{key}")
            value = _coerce("grid", key, raw, hints[key])
            if key == "losses":
                value = tuple(_LOSS_ALIASES.get(v.lower(), v.lower()) for v in value)
            setattr(grid, key, value)
    return base, grid
