"""Durable formats: binary tensor checkpoints, experiment config files, CSV.

Checkpoint layout (little-endian, normative):
  magic "RLRRCKPT" (8 bytes) | version u32 | entry count u32
  per entry, sorted by name:
    name length u32 | name UTF-8 | dtype tag u16 (0=f32, 1=f64) | rank u16
    extents u64 * rank | raw data

Files are written atomically (temp + rename).  Round trips are bitwise.

Experiment configs are `key = value` lines.  `ExperimentConfig` has one
typed field per key, whose default is the file default, and builds every
typed record (ViT, method, training, task, pretraining) from them when it
is constructed, so each command validates the whole file.
"""

from __future__ import annotations

import csv
import io
import math
import os
import struct
import tempfile
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from .peft import MethodSpec, count_trainable
from .train import SyntheticTaskSpec, TrainingConfig
from .vit import ConfigError, ViTConfig

__all__ = [
    "CheckpointFormatError",
    "CheckpointVersionError",
    "ConfigParseError",
    "save_checkpoint",
    "load_checkpoint",
    "bind_tensors",
    "upgrade_adapter_tensors",
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
        raw_name = need(offset, name_len, "name")
        offset += name_len
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointFormatError(f"{path}: tensor name {raw_name!r} is not UTF-8") from None
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
        try:
            out[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        except ValueError:  # the one reshape error left: more axes than numpy allows
            raise CheckpointFormatError(
                f"{path}: {name!r} has rank {rank}, more than numpy supports") from None
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


def upgrade_adapter_tensors(tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Read older rlrr adapter files: `*.s_left (m,)` and `*.s_right (n,)` become
    the rank-1 factors `*.S_left (m, 1)` and `*.S_right (1, n)`; other names pass through."""
    out: dict[str, np.ndarray] = {}
    for name, arr in tensors.items():
        stem, _, leaf = name.rpartition(".")
        if leaf == "s_left":
            name, arr = f"{stem}.S_left", arr.reshape(-1, 1)
        elif leaf == "s_right":
            name, arr = f"{stem}.S_right", arr.reshape(1, -1)
        if name in out:
            raise CheckpointFormatError(
                f"adapter holds {name!r} in both the old and the new layout"
            )
        out[name] = arr
    return out


# -- experiment config -------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a field per config key, typed, with the file default.

    Construction builds every typed record from the fields (`vit`, `spec`,
    `train`, `task`, `pretrain`) and checks the method's sizes against the
    geometry, so every command accepts and rejects the same configs.
    `dataclasses.replace` builds and checks them again.  Each default is
    the record's own, so a key has one default.
    """

    # ViTConfig; the task reads the image extents and classes too
    image_h: int = ViTConfig.image_h
    image_w: int = ViTConfig.image_w
    channels: int = ViTConfig.channels
    patch: int = ViTConfig.patch
    dim: int = ViTConfig.dim
    layers: int = ViTConfig.layers
    heads: int = ViTConfig.heads
    classes: int = ViTConfig.classes
    # MethodSpec; an unset rank, bottleneck, prompts or matrix_slots takes the
    # spec's default, and an empty matrix_slots adapts no matrix
    method: str = MethodSpec.method
    rank: int | None = None
    bottleneck: int | None = None
    prompts: int | None = None
    matrix_slots: str | None = None
    include_layernorm: bool = MethodSpec.include_layernorm
    layer_start: int | None = None  # set both or neither
    layer_stop: int | None = None
    init: str = MethodSpec.init
    init_scale: float = MethodSpec.init_scale
    scale_left: bool = MethodSpec.scale_left
    scale_right: bool = MethodSpec.scale_right
    residual: bool = MethodSpec.residual
    # TrainingConfig
    learning_rate: float = TrainingConfig.learning_rate
    weight_decay: float = TrainingConfig.weight_decay
    dropout_rate: float = TrainingConfig.dropout_rate
    batch_size: int = TrainingConfig.batch_size
    epochs: int = TrainingConfig.epochs
    warmup_epochs: int = TrainingConfig.warmup_epochs
    max_steps: int | None = TrainingConfig.max_steps
    precision: str = TrainingConfig.precision
    seed: int = TrainingConfig.seed
    # SyntheticTaskSpec
    task_seed: int = SyntheticTaskSpec.seed
    images_per_class: int = SyntheticTaskSpec.images_per_class
    noise: float = SyntheticTaskSpec.noise
    shift_mix: float = SyntheticTaskSpec.shift_mix
    shift_gain: float = SyntheticTaskSpec.shift_gain
    downstream_noise: float = SyntheticTaskSpec.downstream_noise
    # pretrain-toy's TrainingConfig
    pretrain_lr: float = 0.003
    pretrain_epochs: int = 12

    vit: ViTConfig = field(init=False, repr=False, compare=False)
    spec: MethodSpec = field(init=False, repr=False, compare=False)
    train: TrainingConfig = field(init=False, repr=False, compare=False)
    task: SyntheticTaskSpec = field(init=False, repr=False, compare=False)
    pretrain: TrainingConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.layer_start is None) != (self.layer_stop is None):
            missing = "layer_stop" if self.layer_stop is None else "layer_start"
            raise ConfigError(f"layer_start and layer_stop go together; {missing} is not set")
        vit = self._record(ViTConfig)
        spec = self._record(
            MethodSpec,
            matrix_slots=None if self.matrix_slots is None
            else tuple(s.strip() for s in self.matrix_slots.split(",") if s.strip()),
            layer_range=None if self.layer_start is None else (self.layer_start, self.layer_stop),
        )
        count_trainable(spec, vit)  # the size checks that `attach` makes
        train = self._record(TrainingConfig)
        if self.task_seed < 0:  # checked here too, since the task record names it `seed`
            raise ConfigError(f"task_seed must be non-negative, got {self.task_seed}")
        task = self._record(SyntheticTaskSpec, seed=self.task_seed)
        if self.pretrain_epochs < 1:
            raise ConfigError(f"pretrain_epochs must be at least 1, got {self.pretrain_epochs}")
        if self.pretrain_lr < 0:
            raise ConfigError(f"pretrain_lr must be non-negative, got {self.pretrain_lr}")
        pretrain = TrainingConfig(
            learning_rate=self.pretrain_lr, batch_size=self.batch_size,
            epochs=self.pretrain_epochs, warmup_epochs=min(2, self.pretrain_epochs - 1),
            seed=self.seed, precision=self.precision,
        )
        for name, record in (("vit", vit), ("spec", spec), ("train", train), ("task", task),
                             ("pretrain", pretrain)):
            object.__setattr__(self, name, record)

    def _record(self, cls, **given):
        """A `cls` from the keys named like its fields, then `given`; an unset
        (None) key leaves its field at the record's default."""
        keys = {f.name: getattr(self, f.name) for f in fields(cls)
                if f.name in _KEY_TYPES and f.name not in given}
        return cls(**{k: v for k, v in keys.items() if v is not None}, **given)


def _value_type(hint) -> type:
    """The type a key's value parses as; an optional key (`int | None`) parses as int."""
    return typing.get_args(hint)[0] if typing.get_args(hint) else hint


_HINTS = typing.get_type_hints(ExperimentConfig)
# config key -> value type, in file order
_KEY_TYPES = {f.name: _value_type(_HINTS[f.name]) for f in fields(ExperimentConfig) if f.init}

# keys that only make sense for certain methods; checked at parse time, with
# line numbers, so `dataclasses.replace(cfg, method=...)` does not trip them
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


def _parse_value(kind, raw: str):
    if kind is bool:
        lowered = raw.lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    value = kind(raw)
    if kind is float and not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def parse_config(text: str) -> ExperimentConfig:
    """Parse `key = value` lines; collects all errors instead of stopping at the first.

    Syntax, unknown keys, duplicates, value types and method keys set for
    another method are reported together as one `ConfigParseError`, each
    with its line number.  A file that passes these builds `ExperimentConfig`,
    whose records raise their own one-line `ConfigError`, which names the key.
    """
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
        if key not in _KEY_TYPES:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in seen:
            errors.append(f"line {lineno}: duplicate key {key!r} (first set on line {seen[key]})")
            continue
        seen[key] = lineno
        try:
            values[key] = _parse_value(_KEY_TYPES[key], raw)
        except ValueError as exc:
            errors.append(f"line {lineno}: bad value for {key!r}: {exc}")

    method = values.get("method", ExperimentConfig.method)
    for key, methods in _METHOD_KEYS.items():
        if key in values and method not in methods:
            errors.append(
                f"line {seen[key]}: key {key!r} is not valid for method {method!r} "
                f"(applies to {', '.join(methods)})"
            )
    if errors:
        raise ConfigParseError(errors)
    return ExperimentConfig(**values)


def format_config(config: ExperimentConfig) -> str:
    """Inverse of parse_config; parse(format(parse(t))) is a fixpoint."""
    lines = []
    for key in _KEY_TYPES:
        value = getattr(config, key)
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
