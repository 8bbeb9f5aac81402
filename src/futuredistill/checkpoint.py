"""Versioned binary checkpoints: JSON header plus one flat float32 blob.

Layout: magic | u32 version | u32 header length | header JSON | parameter
bytes (little-endian float32, concatenated in named_parameters order). Writes
go to a temp file first and are renamed into place, so a crash never leaves a
loadable truncated file.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .downstream import FinetuneConfig, StandardizedHead, make_head
from .errors import CheckpointError
from .models import BackboneSpec, build_backbone
from .nn import Module

MAGIC = b"FDCK"
VERSION = 1
_PREFIX = struct.Struct("<4sII")


def save_checkpoint(
    path: str | Path,
    module: Module,
    backbone_spec: BackboneSpec,
    *,
    step: int = 0,
    config_hash: str = "",
    head_cfg: FinetuneConfig | None = None,
) -> None:
    """Atomically persist module parameters plus identifying metadata.

    With head_cfg, `module` is a finetuned ModelWithHead: the header is of kind
    'finetuned' and describes the head (see `_describe_head`); without it the
    checkpoint is a 'pretrain' one with no head.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    index = []
    chunks = []
    offset = 0
    for name, p in module.named_parameters():
        arr = np.ascontiguousarray(p.data, dtype="<f4")
        index.append({"name": name, "shape": list(arr.shape), "offset": offset})
        chunks.append(arr.tobytes())
        offset += arr.size
    header = {
        "kind": "pretrain" if head_cfg is None else "finetuned",
        "backbone_spec": dataclasses.asdict(backbone_spec),
        "head": None if head_cfg is None else _describe_head(module.head, head_cfg),
        "step": step,
        "config_hash": config_hash,
        "params": index,
        "total_floats": offset,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    payload = _PREFIX.pack(MAGIC, VERSION, len(header_bytes)) + header_bytes + b"".join(chunks)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def read_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Return (header, name -> float32 array); validates magic/version/length."""
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"checkpoint not found: {path}")
    raw = path.read_bytes()
    if len(raw) < _PREFIX.size:
        raise CheckpointError(f"{path}: file too short to be a checkpoint")
    magic, version, header_len = _PREFIX.unpack_from(raw)
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}, not a checkpoint")
    if version != VERSION:
        raise CheckpointError(f"{path}: format version {version} unsupported (expected {VERSION})")
    body_start = _PREFIX.size + header_len
    if len(raw) < body_start:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[_PREFIX.size : body_start])
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc})") from None
    expected = body_start + header["total_floats"] * 4
    if len(raw) != expected:
        raise CheckpointError(
            f"{path}: blob length mismatch (file {len(raw)} bytes, expected {expected}); "
            "the file is truncated or corrupt"
        )
    flat = np.frombuffer(raw, dtype="<f4", offset=body_start)
    params = {}
    for entry in header["params"]:
        size = int(np.prod(entry["shape"])) if entry["shape"] else 1
        arr = flat[entry["offset"] : entry["offset"] + size]
        params[entry["name"]] = arr.reshape(entry["shape"]).copy()
    return header, params


def load_backbone_checkpoint(path: str | Path, expect_config_hash: str | None = None):
    """Read a checkpoint and rebuild its backbone; returns (backbone, spec, header).

    Pass expect_config_hash to refuse resuming under a different configuration.
    """
    header, params = read_checkpoint(path)
    if expect_config_hash is not None and header["config_hash"] != expect_config_hash:
        raise CheckpointError(
            f"{path}: config hash mismatch "
            f"(checkpoint {header['config_hash'][:12]}.., expected {expect_config_hash[:12]}..)"
        )
    backbone, spec = restore_backbone(path, header, params)
    return backbone, spec, header


def restore_backbone(path: str | Path, header: dict, params: dict[str, np.ndarray]):
    """Rebuild the backbone named in a read header; returns (backbone, spec).

    Only 'backbone.*' parameters (or unprefixed ones) are restored.
    """
    spec = BackboneSpec(**header["backbone_spec"])
    spec.conv_widths = tuple(spec.conv_widths)
    backbone = build_backbone(spec, seed=0)
    prefix = "backbone."
    own = dict(backbone.named_parameters())
    restored = {}
    for name, arr in params.items():
        key = name[len(prefix) :] if name.startswith(prefix) else name
        if key in own:
            restored[key] = arr
    missing = set(own) - set(restored)
    if missing:
        raise CheckpointError(f"{path}: checkpoint lacks parameters {sorted(missing)[:4]}")
    backbone.load_state_arrays(restored)
    return backbone, spec


def _describe_head(head: Module, cfg: FinetuneConfig) -> dict:
    """The header's head entry: task, t_pred, n_classes and any standardizer mu/sigma."""
    info = {"task": cfg.task, "t_pred": cfg.t_pred, "n_classes": cfg.n_classes}
    if isinstance(head, StandardizedHead):
        info["standardizer"] = {"mu": head.mu.tolist(), "sigma": head.sigma.tolist()}
    return info


def restore_head(
    path: str | Path, header: dict, params: dict[str, np.ndarray], head_cfg: FinetuneConfig
) -> Module:
    """Rebuild a finetuned checkpoint's head from the description in its header.

    Raises CheckpointError when the checkpoint has no head, or when the stored
    task, t_pred or n_classes disagree with head_cfg.
    """
    info = header.get("head")
    if not info:
        raise CheckpointError(
            f"{path}: {header.get('kind')} checkpoint has no head; need a finetuned one"
        )
    stored = {key: info[key] for key in ("task", "t_pred", "n_classes")}
    wanted = {"task": head_cfg.task, "t_pred": head_cfg.t_pred, "n_classes": head_cfg.n_classes}
    if stored != wanted:
        raise CheckpointError(f"{path}: checkpoint head {stored} does not match config head {wanted}")
    embed_dim = header["backbone_spec"]["embed_dim"]
    head = make_head(FinetuneConfig(**stored), embed_dim, np.random.default_rng(0))
    std = info.get("standardizer")
    if std:
        head = StandardizedHead(head, np.asarray(std["mu"]), np.asarray(std["sigma"]))
    prefix = "head."
    head.load_state_arrays(
        {name[len(prefix) :]: arr for name, arr in params.items() if name.startswith(prefix)}
    )
    return head
