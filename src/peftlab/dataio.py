"""Durable formats: binary tensor checkpoints, experiment config files, CSV.

Checkpoint layout (little-endian, normative):
  magic "RLRRCKPT" (8 bytes) | version u32 | entry count u32
  per entry, sorted by name:
    name length u32 | name UTF-8 | dtype tag u16 (0=f32, 1=f64) | rank u16
    extents u64 * rank | raw data

Files are written atomically (temp + rename).  Round trips are bitwise.
"""

from __future__ import annotations

import csv
import io
import os
import struct
import tempfile

import numpy as np

__all__ = [
    "CheckpointFormatError",
    "CheckpointVersionError",
    "ConfigParseError",
    "save_checkpoint",
    "load_checkpoint",
    "ExperimentConfig",
    "parse_config",
    "format_config",
    "write_csv",
]

MAGIC = b"RLRRCKPT"
VERSION = 1
_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class CheckpointFormatError(ValueError):
    pass


class CheckpointVersionError(CheckpointFormatError):
    pass


def save_checkpoint(tensors: dict[str, np.ndarray], path: str) -> None:
    """Write named arrays to a single file; names must be unique (dict keys are)."""
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<II", VERSION, len(tensors)))
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        if arr.dtype not in _DTYPE_TAGS:
            raise CheckpointFormatError(
                f"tensor {name!r} has unsupported dtype {arr.dtype}; use float32/float64"
            )
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<I", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<HH", _DTYPE_TAGS[arr.dtype], arr.ndim))
        buf.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        buf.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())
    try:
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
        with os.fdopen(fd, "wb") as f:
            f.write(buf.getvalue())
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write checkpoint {path}: {exc}") from exc


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    """Read a checkpoint; raises CheckpointFormatError on any corruption."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise OSError(f"cannot read checkpoint {path}: {exc}") from exc

    def need(offset, count, what):
        if offset + count > len(data):
            raise CheckpointFormatError(f"{path}: truncated while reading {what}")
        return data[offset : offset + count]

    if need(0, 8, "magic") != MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic bytes")
    version, count = struct.unpack("<II", need(8, 8, "header"))
    if version > VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version} is newer than supported {VERSION}"
        )
    offset = 16
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", need(offset, 4, "name length"))
        offset += 4
        name = need(offset, name_len, "name").decode("utf-8")
        offset += name_len
        tag, rank = struct.unpack("<HH", need(offset, 4, "dtype/rank"))
        offset += 4
        if tag not in _TAG_DTYPES:
            raise CheckpointFormatError(f"{path}: unknown dtype tag {tag} for {name!r}")
        shape = struct.unpack(f"<{rank}Q", need(offset, 8 * rank, "extents"))
        offset += 8 * rank
        dtype = _TAG_DTYPES[tag]
        numel = 1
        for extent in shape:
            numel *= extent
        raw = need(offset, dtype.itemsize * numel, f"data of {name!r}")
        offset += dtype.itemsize * numel
        if name in out:
            raise CheckpointFormatError(f"{path}: duplicate tensor name {name!r}")
        out[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if offset != len(data):
        raise CheckpointFormatError(f"{path}: {len(data) - offset} trailing bytes")
    return out


def bind_tensors(loaded: dict[str, np.ndarray], targets: dict[str, "object"]) -> None:
    """Copy loaded arrays into model tensors, validating names, shapes and dtypes.

    Every target must be present and every loaded name must have a target,
    so a checkpoint that does not match its model is rejected, not partly
    loaded.  Loading f64 data into an f32 tensor is refused.
    """
    for name in loaded:
        if name not in targets:
            raise CheckpointFormatError(f"checkpoint tensor {name!r} has no slot in the model")
    for name, target in targets.items():
        if name not in loaded:
            raise CheckpointFormatError(f"checkpoint is missing tensor {name!r}")
        arr = loaded[name]
        if tuple(arr.shape) != tuple(target.shape):
            raise CheckpointFormatError(
                f"shape mismatch for slot {name!r}: checkpoint {arr.shape}, model {target.shape}"
            )
        if arr.dtype.itemsize > target.data.dtype.itemsize:
            raise CheckpointFormatError(
                f"refusing to narrow {name!r} from {arr.dtype} to {target.data.dtype}"
            )
        target.data[...] = arr.astype(target.data.dtype)


# -- experiment config -------------------------------------------------

# key -> (type, default); None default means required
_SCHEMA: dict[str, tuple] = {
    "image_h": (int, 8),
    "image_w": (int, 8),
    "channels": (int, 1),
    "patch": (int, 4),
    "dim": (int, 64),
    "layers": (int, 2),
    "heads": (int, 4),
    "classes": (int, 8),
    "method": (str, "rlrr"),
    "rank": (int, None),
    "bottleneck": (int, None),
    "prompts": (int, None),
    "matrix_slots": (str, "q,k,v,o,fc1,fc2"),
    "include_layernorm": (bool, True),
    "layer_start": (int, None),
    "layer_stop": (int, None),
    "init": (str, "zero"),
    "init_scale": (float, 0.02),
    "scale_left": (bool, True),
    "scale_right": (bool, True),
    "residual": (bool, True),
    "learning_rate": (float, 0.01),
    "weight_decay": (float, 0.0),
    "dropout_rate": (float, 0.0),
    "batch_size": (int, 16),
    "epochs": (int, 20),
    "warmup_epochs": (int, 2),
    "max_steps": (int, None),
    "precision": (str, "f32"),
    "seed": (int, 0),
    "task_seed": (int, 11),
    "images_per_class": (int, 24),
    "noise": (float, 0.6),
    "shift_mix": (float, 0.8),
    "shift_gain": (float, 0.9),
    "downstream_noise": (float, 0.8),
    "pretrain_lr": (float, 0.003),
    "pretrain_epochs": (int, 12),
}

# keys that only make sense for certain methods
_METHOD_KEYS = {
    "rank": ("rankr_rlrr", "rlrr_no_residual", "lora"),
    "bottleneck": ("adapter",),
    "prompts": ("vpt_shallow", "vpt_deep"),
}


class ConfigParseError(ValueError):
    """Carries every config error, each tagged with its line number."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


class ExperimentConfig:
    def __init__(self, values: dict):
        self.values = values

    def __getattr__(self, key):
        try:
            return self.__dict__["values"][key]
        except KeyError:
            raise AttributeError(key) from None


def _parse_value(kind, raw: str):
    if kind is bool:
        lowered = raw.lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    return kind(raw)


def parse_config(text: str) -> ExperimentConfig:
    """Parse `key = value` lines; collects all errors instead of stopping at the first."""
    errors: list[str] = []
    seen: dict[str, int] = {}
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in seen:
            errors.append(f"line {lineno}: duplicate key {key!r} (first set on line {seen[key]})")
            continue
        seen[key] = lineno
        kind, _ = _SCHEMA[key]
        try:
            values[key] = _parse_value(kind, raw)
        except ValueError as exc:
            errors.append(f"line {lineno}: bad value for {key!r}: {exc}")

    for key, (kind, default) in _SCHEMA.items():
        if key not in values:
            values[key] = default

    method = values.get("method")
    for key, methods in _METHOD_KEYS.items():
        if values.get(key) is not None and method not in methods:
            line = seen.get(key, "?")
            errors.append(
                f"line {line}: key {key!r} is not valid for method {method!r} "
                f"(applies to {', '.join(methods)})"
            )
    if errors:
        raise ConfigParseError(errors)
    return ExperimentConfig(values)


def format_config(config: ExperimentConfig) -> str:
    """Inverse of parse_config; parse(format(parse(t))) is a fixpoint."""
    lines = []
    for key in _SCHEMA:
        value = config.values.get(key)
        if value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """CSV with comma separator, dot decimals, LF endings, mandatory header."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
