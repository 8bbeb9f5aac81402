"""Versioned binary checkpoints: JSON header plus one flat float32 blob.

Layout: magic | u32 version | u32 header length | header JSON | parameter
bytes (little-endian float32, concatenated in named_parameters order). Writes
go to a temp file first and are renamed into place, so a crash never leaves a
loadable truncated file.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .downstream import TASK, ModelWithHead
from .errors import CheckpointError, ConfigurationError
from .models import BackboneSpec, PredictionHead, build_backbone
from .nn import Module
from .synthdata import N_ACTIONS

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
) -> None:
    """Atomically persist module parameters plus identifying metadata.

    A finetuned ModelWithHead gets a header entry that describes its head
    (see `_describe_head`); any other module is a pretrain checkpoint, whose
    header `head` is null.
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
    finetuned = isinstance(module, ModelWithHead)
    header = {
        "backbone_spec": dataclasses.asdict(backbone_spec),
        "head": _describe_head(module.head) if finetuned else None,
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
    _check_header(path, header)
    expected = body_start + header["total_floats"] * 4
    if len(raw) != expected:
        raise CheckpointError(
            f"{path}: blob length mismatch (file {len(raw)} bytes, expected {expected}); "
            "the file is truncated or corrupt"
        )
    flat = np.frombuffer(raw, dtype="<f4", offset=body_start)
    params = {}
    for entry in header["params"]:
        arr = flat[entry["offset"] : entry["offset"] + math.prod(entry["shape"])]
        params[entry["name"]] = arr.reshape(entry["shape"]).copy()
    return header, params


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_header(path: Path, header) -> None:
    """Raise CheckpointError unless the header has a backbone spec and params that fit in its blob."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is a {type(header).__name__}, not an object")
    if not isinstance(header.get("backbone_spec"), dict):
        raise CheckpointError(f"{path}: header has no backbone_spec object")
    total = header.get("total_floats")
    if not _is_count(total):
        raise CheckpointError(f"{path}: header total_floats {total!r} is not a non-negative integer")
    if not isinstance(header.get("params"), list):
        raise CheckpointError(f"{path}: header has no params list")
    for entry in header["params"]:
        ok = (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(_is_count(d) for d in entry["shape"])
            and _is_count(entry.get("offset"))
        )
        if not ok or entry["offset"] + math.prod(entry["shape"]) > total:
            raise CheckpointError(
                f"{path}: param entry {entry!r} is malformed or runs past the {total}-float blob"
            )


def load_backbone_checkpoint(path: str | Path):
    """Read a checkpoint and rebuild its backbone; returns (backbone, spec, header)."""
    header, params = read_checkpoint(path)
    backbone, spec = restore_backbone(path, header, params)
    return backbone, spec, header


def restore_backbone(path: str | Path, header: dict, params: dict[str, np.ndarray]):
    """Rebuild the backbone named in a read header; returns (backbone, spec).

    Only 'backbone.*' parameters (or unprefixed ones) are restored. A spec
    with a missing or unknown field, or one that builds no backbone, and a
    missing parameter or one of another shape raise CheckpointError.
    """
    stored = header["backbone_spec"]
    absent = [f.name for f in dataclasses.fields(BackboneSpec) if f.name not in stored]
    if absent:
        raise CheckpointError(f"{path}: header backbone_spec does not fit BackboneSpec (missing {absent})")
    # A spec that parses but names no buildable backbone is the checkpoint's fault, not the config's.
    try:
        spec = BackboneSpec(**stored)
        spec.conv_widths = tuple(spec.conv_widths)
        backbone = build_backbone(spec, seed=0)
    except (TypeError, ValueError, ConfigurationError) as exc:
        raise CheckpointError(f"{path}: header backbone_spec does not fit BackboneSpec ({exc})") from None
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
    try:
        backbone.load_state_arrays(restored)
    except ValueError as exc:
        raise CheckpointError(f"{path}: checkpoint backbone parameters do not fit the backbone ({exc})") from None
    return backbone, spec


def _describe_head(head: PredictionHead) -> dict:
    """The header's head entry: task, the predicted frames t_pred and n_classes."""
    return {"task": TASK, "t_pred": head.horizon, "n_classes": head.n_classes}


def restore_head(path: str | Path, header: dict, params: dict[str, np.ndarray], spec: BackboneSpec) -> PredictionHead:
    """Rebuild a finetuned checkpoint's head, of the horizon its header records, on the restored backbone `spec`.

    Raises CheckpointError when the checkpoint has no head, when its head entry
    is not an object with exactly task, t_pred and n_classes (an older
    linear-probe checkpoint, whose head entry also holds the probe's feature
    mean and std, is refused rather than evaluated without them), when it is
    not a prediction head over the N_ACTIONS classes, or when its parameters
    do not fit the head.
    """
    info = header.get("head")
    if not info:
        raise CheckpointError(f"{path}: checkpoint has no head; need a finetuned one")
    keys = ("task", "t_pred", "n_classes")
    if not isinstance(info, dict) or any(key not in info for key in keys):
        raise CheckpointError(f"{path}: header head {info!r} is not an object with {', '.join(keys)}")
    unknown = sorted(set(info) - set(keys))
    if unknown:
        raise CheckpointError(f"{path}: header head has unknown key(s) {unknown}; it holds only {', '.join(keys)}")
    t_pred = info["t_pred"]
    if info["task"] != TASK or info["n_classes"] != N_ACTIONS or not (_is_count(t_pred) and t_pred > 0):
        raise CheckpointError(f"{path}: checkpoint head {info} is not a {TASK!r} head over {N_ACTIONS} classes")
    head = PredictionHead(spec.embed_dim, t_pred, N_ACTIONS, np.random.default_rng(0))
    prefix = "head."
    try:
        head.load_state_arrays(
            {name[len(prefix) :]: arr for name, arr in params.items() if name.startswith(prefix)}
        )
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"{path}: checkpoint head parameters do not fit the head ({exc})") from None
    return head
