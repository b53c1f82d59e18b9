"""Deterministic fine-tuning loop: AdamW, cosine warmup schedule,
linear-probe / full fine-tuning baselines, and synthetic tasks.

Synthetic tasks come in a pretrain/downstream distribution pair: the
backbone is pretrained on the first, fine-tuning methods adapt to the
second, so adaptation quality is measurable without external datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff
from .autodiff import ShapeError, Tensor, cross_entropy_logits, no_grad, zero_grads
from .vit import ConfigError, ViTConfig, ViTModel, init_model

__all__ = [
    "TrainingConfig",
    "SyntheticTaskSpec",
    "Dataset",
    "TrainingDiverged",
    "adamw_step",
    "AdamWState",
    "cosine_warmup_lr",
    "make_synthetic_task",
    "pretrain_backbone",
    "train",
    "linear_probe",
    "full_finetune",
    "evaluate",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, step: int, loss: float):
        self.epoch = epoch
        self.step = step
        super().__init__(f"non-finite loss {loss} at epoch {epoch}, step {step}")


@dataclass
class TrainingConfig:
    learning_rate: float = 0.01
    weight_decay: float = 0.0
    dropout_rate: float = 0.0
    batch_size: int = 16
    epochs: int = 20
    warmup_epochs: int = 2
    seed: int = 0
    precision: str = "f32"
    max_steps: int | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError(f"max_steps must be at least 1 when set, got {self.max_steps}")
        if self.warmup_epochs < 0:
            raise ConfigError(f"warmup_epochs must be non-negative, got {self.warmup_epochs}")
        if self.warmup_epochs >= self.epochs:
            raise ConfigError(
                f"warmup_epochs {self.warmup_epochs} must be below epochs {self.epochs}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        for key in ("learning_rate", "weight_decay", "dropout_rate"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be non-negative, got {getattr(self, key)}")
        if self.dropout_rate >= 1:
            # no unit would be kept: at 1 the 1/keep scale divides by zero
            raise ConfigError(f"dropout_rate must be below 1, got {self.dropout_rate}")
        if self.precision not in ("f32", "f64"):
            raise ConfigError(f"precision must be f32 or f64, got {self.precision!r}")

    @property
    def dtype(self):
        return np.float32 if self.precision == "f32" else np.float64


# -- optimizer ---------------------------------------------------------


class AdamWState:
    """AdamW's step count and moments over one flat arena of the trainable tensors.

    The tensors of `params` that require grad are copied, in sorted-name
    order, into `flat`, one buffer of their dtype, and each tensor's `.data`
    becomes a view of its slice, so one whole-buffer op updates them all.
    The moments, the gathered gradient and the update's scratch are flat
    float64 buffers; `m[name]` and `v[name]` view one tensor's moments.
    Trainable tensors of mixed dtypes are rejected.
    """

    def __init__(self, params: dict[str, Tensor]):
        tensors = {k: params[k] for k in sorted(params) if params[k].requires_grad}
        dtypes = sorted({t.dtype.name for t in tensors.values()})
        if len(dtypes) > 1:
            raise ShapeError(f"mixed precision trainable tensors: {' vs '.join(dtypes)}")
        dtype = np.dtype(dtypes[0] if dtypes else np.float64)
        size = sum(t.numel() for t in tensors.values())
        self.step = 0
        self.flat = np.empty(size, dtype)
        self._m, self._v, self._grad, self._update, self._denom = (
            np.zeros(size) for _ in range(5)
        )
        self._cast = None if dtype == np.float64 else np.empty(size, dtype)
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self._slices: dict[str, tuple[slice, np.ndarray]] = {}  # name -> (slice, grad view)
        start = 0
        for name, t in tensors.items():
            part = slice(start, start + t.numel())
            start = part.stop
            view = self.flat[part].reshape(t.shape)
            view[...] = t.data
            t.data = view
            self.m[name] = self._m[part].reshape(t.shape)
            self.v[name] = self._v[part].reshape(t.shape)
            self._slices[name] = (part, self._grad[part].reshape(t.shape))


def adamw_step(
    state: AdamWState, grads: dict[str, np.ndarray], lr: float, weight_decay: float = 0.0
) -> None:
    """One AdamW update of `state`'s arena: decoupled decay first, then bias-corrected Adam.

    Every element takes the steps of a per-tensor update in the same order,
    with the gradient converted to float64 and the update cast to the
    arena's dtype, so the result equals that loop's bitwise.  Tensors
    outside the arena are untouched, and an arena tensor without a gradient
    entry keeps its value and its moments.  Refuses to run inside
    `no_grad`, whose read-only views of the arena a write to `flat` would
    bypass.
    """
    if autodiff._block_weights is not None:
        raise RuntimeError("adamw_step inside no_grad: the arena's views are read-only there")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    p, g, m, v, u, d = state.flat, state._grad, state._m, state._v, state._update, state._denom
    kept = []
    for name, (part, grad) in state._slices.items():
        if name in grads:
            grad[...] = grads[name]
        else:
            kept.append((part, p[part].copy(), m[part].copy(), v[part].copy()))
    m *= ADAM_BETA1
    np.multiply(g, 1.0 - ADAM_BETA1, out=u)
    m += u
    v *= ADAM_BETA2
    np.multiply(g, 1.0 - ADAM_BETA2, out=u)
    u *= g
    v += u
    if weight_decay > 0.0:
        p *= np.asarray(1.0 - lr * weight_decay, dtype=p.dtype)
    np.divide(m, bc1, out=u)
    np.divide(v, bc2, out=d)
    np.sqrt(d, out=d)
    d += ADAM_EPS
    u /= d
    u *= lr
    if state._cast is not None:  # round to the arena's dtype before the subtraction
        state._cast[...] = u
        u = state._cast
    p -= u
    for part, p0, m0, v0 in kept:
        p[part], m[part], v[part] = p0, m0, v0


def cosine_warmup_lr(epoch: int, config: TrainingConfig) -> float:
    """Linear ramp to the peak over warmup, then cosine decay to zero."""
    if not (0 <= epoch < config.epochs):
        raise ValueError(f"epoch {epoch} outside 0..{config.epochs - 1}")
    peak = config.learning_rate
    if epoch < config.warmup_epochs:
        return peak * epoch / config.warmup_epochs
    span = config.epochs - config.warmup_epochs
    t = (epoch - config.warmup_epochs) / span
    return peak * 0.5 * (1.0 + math.cos(math.pi * t))


# -- synthetic tasks ---------------------------------------------------


@dataclass
class SyntheticTaskSpec:
    seed: int = 11
    classes: int = 8
    images_per_class: int = 24
    val_per_class: int = 8
    test_per_class: int = 8
    image_h: int = 8
    image_w: int = 8
    channels: int = 1
    noise: float = 0.6
    shift_mix: float = 0.8  # 0 = downstream equals pretrain distribution
    shift_gain: float = 0.9  # amplitude of the fixed multiplicative pixel field
    downstream_noise: float | None = 0.8  # None: the downstream split uses `noise`

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for key in ("images_per_class", "val_per_class", "test_per_class"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)}")
        for key in ("noise", "downstream_noise"):
            value = getattr(self, key)
            if value is not None and value < 0:
                raise ConfigError(f"{key} must be non-negative, got {value}")


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


def _sample_split(rng, prototypes, per_class, noise):
    xs, ys = [], []
    for c, proto in enumerate(prototypes):
        for _ in range(per_class):
            xs.append(proto + rng.normal(0.0, noise, proto.shape))
            ys.append(c)
    xs = np.stack(xs)
    ys = np.asarray(ys, dtype=np.int64)
    order = rng.permutation(len(ys))
    return xs[order], ys[order]


def make_synthetic_task(spec: SyntheticTaskSpec, downstream: bool = False) -> Dataset:
    """Seeded class-prototype images plus Gaussian noise.

    The downstream distribution rotates each prototype toward a fresh
    pattern (by `shift_mix`) and applies a fixed random multiplicative
    pixel field (strength `shift_gain`), so frozen features degrade while
    the class structure stays learnable.
    """
    rng = np.random.default_rng(spec.seed)
    shape = (spec.image_h, spec.image_w, spec.channels)
    prototypes = [rng.normal(0.0, 1.0, shape) for _ in range(spec.classes)]
    fresh = [rng.normal(0.0, 1.0, shape) for _ in range(spec.classes)]
    gain_field = 1.0 + spec.shift_gain * rng.normal(0.0, 1.0, shape)

    noise = spec.noise
    if downstream:
        theta = spec.shift_mix * math.pi / 2.0
        prototypes = [
            (math.cos(theta) * p + math.sin(theta) * q) * gain_field
            for p, q in zip(prototypes, fresh)
        ]
        if spec.downstream_noise is not None:
            noise = spec.downstream_noise

    split_rng = np.random.default_rng(spec.seed + (1_000_003 if downstream else 0))
    train_x, train_y = _sample_split(split_rng, prototypes, spec.images_per_class, noise)
    val_x, val_y = _sample_split(split_rng, prototypes, spec.val_per_class, noise)
    test_x, test_y = _sample_split(split_rng, prototypes, spec.test_per_class, noise)
    return Dataset(train_x, train_y, val_x, val_y, test_x, test_y)


# -- training loop -----------------------------------------------------


def evaluate(forward_fn, xs, ys, batch: int = 1) -> float:
    """Accuracy of `forward_fn` over `xs`, run without a tape.

    With `batch = 1` (the default) each call takes one `(H, W, C)` image and
    costs what one inference costs, which is what the benchmark's eval
    timings read per call.  A larger `batch` passes `(≤batch, H, W, C)`
    chunks; the last one holds the remainder.  All calls run in one
    `no_grad` block, so an attached adapter builds each adapted weight once
    per pass, not once per call.
    """
    if batch < 1:
        raise ConfigError(f"batch must be at least 1, got {batch}")
    correct = 0
    with no_grad():
        for s in range(0, len(ys), batch):
            logits = forward_fn(xs[s] if batch == 1 else xs[s : s + batch])
            correct += int(np.count_nonzero(np.argmax(logits.data, axis=-1) == ys[s : s + batch]))
    return correct / len(ys)


def train(model, task: Dataset, config: TrainingConfig) -> list[dict]:
    """Train `model.trainable()` on a task; returns per-epoch metric rows.

    `model` is a `ViTModel` or an attached `PeftModel`.  Each step is one
    `model.forward` over the `(B, H, W, C)` batch with dropout at
    `config.dropout_rate`, one mean cross-entropy and one backward.  Each
    epoch ends with one validation pass without dropout, `evaluate` in
    chunks of `config.batch_size` without a tape.  `train_acc` counts the
    images the epoch stepped on, fewer than the split when `max_steps` ends it.
    For the run, the trainable tensors' `.data` become views into one flat
    arena (`AdamWState`), so a caller that holds an old `.data` array does
    not see the updates.
    Aborts with TrainingDiverged on a non-finite loss; numpy's overflow and
    invalid-value warnings on the way there are silenced, since that error
    reports the divergence.
    """
    params = model.trainable()
    rng = np.random.default_rng(config.seed)
    state = AdamWState(params)
    history: list[dict] = []
    steps_done = 0
    n = len(task.train_y)
    for epoch in range(config.epochs):
        lr = cosine_warmup_lr(epoch, config)
        order = rng.permutation(n)
        losses = []
        correct = seen = 0
        for start in range(0, n, config.batch_size):
            if config.max_steps is not None and steps_done >= config.max_steps:
                break
            idx = order[start : start + config.batch_size]
            ys = task.train_y[idx]
            zero_grads(params)
            with np.errstate(over="ignore", invalid="ignore"):
                logits = model.forward(task.train_x[idx], drop_rate=config.dropout_rate, rng=rng)
                correct += int(np.count_nonzero(np.argmax(logits.data, axis=-1) == ys))
                loss = cross_entropy_logits(logits, ys)
                value = loss.item()
                if not math.isfinite(value):
                    raise TrainingDiverged(epoch, steps_done, value)
                loss.backward()
            grads = {
                k: p.grad for k, p in params.items() if p.grad is not None and p.requires_grad
            }
            adamw_step(state, grads, lr, config.weight_decay)
            losses.append(value)
            seen += len(idx)
            steps_done += 1
        if not losses:
            break
        val_acc = evaluate(model.forward, task.val_x, task.val_y, batch=config.batch_size)
        history.append(
            {
                "epoch": epoch,
                "lr": lr,
                "train_loss": float(np.mean(losses)),
                "train_acc": correct / seen,
                "val_acc": val_acc,
            }
        )
        if config.max_steps is not None and steps_done >= config.max_steps:
            break
    return history


def linear_probe(model: ViTModel, task: Dataset, config: TrainingConfig) -> list[dict]:
    """Train the classification head only, without dropout; everything else frozen."""
    model.freeze_all()
    model.slot("head").unfreeze()
    return train(model, task, replace(config, dropout_rate=0.0))


def full_finetune(model: ViTModel, task: Dataset, config: TrainingConfig) -> list[dict]:
    """Update every parameter of the model."""
    model.unfreeze_all()
    return train(model, task, config)


def pretrain_backbone(vit_config: ViTConfig, task: Dataset, config: TrainingConfig) -> ViTModel:
    """Produce the frozen 'pretrained' backbone by full fine-tuning on `task`,
    the pretrain distribution (`make_synthetic_task(spec, downstream=False)`);
    `config.seed` seeds both its initialization and its training."""
    model = init_model(vit_config, seed=config.seed, dtype=config.dtype)
    full_finetune(model, task, config)
    model.freeze_all()
    return model
