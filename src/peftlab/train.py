"""Deterministic fine-tuning loop: AdamW, cosine warmup schedule,
linear-probe / full fine-tuning baselines, and synthetic tasks.

Synthetic tasks come in a pretrain/downstream distribution pair: the
backbone is pretrained on the first, fine-tuning methods adapt to the
second, so adaptation quality is measurable without external datasets.
"""

from __future__ import annotations

import contextvars
import math
import os
import queue
import threading
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
# The fewest elements an arena part may hold.  Two parts broke even with one at
# about 32,768 elements and were faster from 40,960 (the curve is in CHANGES.md),
# so every PEFT arena at the smoke geometry, 11,528 elements at most, is one part.
ADAMW_PART_MIN = 20_480


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
    The moments, the gradients `adamw_step` gathers for every tensor and the
    update's scratch are flat float64 buffers; `m[name]` and `v[name]` view
    one tensor's moments.  Trainable tensors of mixed dtypes are rejected.

    The arena is cut into equal contiguous parts, one per usable core but
    none below `ADAMW_PART_MIN` elements, so an arena under twice that (every
    PEFT arena at the smoke geometry) is one part and no thread is started.
    The calling thread updates the first part and one worker thread each of
    the others.  The workers start at the first step of a split arena and
    stop at `close`, which `train` calls when it ends; a step after `close`
    starts them again.
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
        self._grads: dict[str, np.ndarray] = {}
        start = 0
        for name, t in tensors.items():
            part = slice(start, start + t.numel())
            start = part.stop
            view = self.flat[part].reshape(t.shape)
            view[...] = t.data
            t.data = view
            self.m[name] = self._m[part].reshape(t.shape)
            self.v[name] = self._v[part].reshape(t.shape)
            self._grads[name] = self._grad[part].reshape(t.shape)
        count = max(1, min(_usable_cores(), size // ADAMW_PART_MIN))
        bounds = [size * i // count for i in range(count + 1)]
        buffers = (self.flat, self._grad, self._m, self._v, self._update, self._denom, self._cast)
        # per part, its views of the buffers in `_adamw_part`'s argument order
        self._parts = [tuple(None if a is None else a[lo:hi] for a in buffers)
                       for lo, hi in zip(bounds, bounds[1:])]
        self._jobs: list[queue.SimpleQueue] = []  # one per worker, in part order
        self._done: queue.SimpleQueue | None = None
        self._threads: list[threading.Thread] = []

    def _start_workers(self) -> None:
        self._done = queue.SimpleQueue()
        self._jobs = [queue.SimpleQueue() for _ in self._parts[1:]]
        # daemon threads: a state that is never closed does not keep the process alive
        self._threads = [threading.Thread(target=_serve_parts, args=(jobs, self._done),
                                          name="peftlab-adamw", daemon=True)
                         for jobs in self._jobs]
        for thread in self._threads:
            thread.start()

    def close(self) -> None:
        """Stop the worker threads, if a step started them, and wait for them to end."""
        for jobs in self._jobs:
            jobs.put(None)
        for thread in self._threads:
            thread.join()
        self._jobs, self._threads = [], []


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve_parts(jobs: queue.SimpleQueue, done: queue.SimpleQueue) -> None:
    """A worker thread's loop: run each `(context, args)` job's part until a None job."""
    while (job := jobs.get()) is not None:
        context, args = job
        try:
            context.run(_adamw_part, *args)
        except BaseException as error:  # raised again on the calling thread
            done.put(error)
        else:
            done.put(None)


def _adamw_part(p, g, m, v, u, d, cast, lr, weight_decay, bc1, bc2) -> None:
    """`adamw_step`'s passes over one part's views of the arena buffers, in place."""
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
    if cast is not None:  # round to the arena's dtype before the subtraction
        cast[...] = u
        u = cast
    p -= u


def adamw_step(
    state: AdamWState, grads: dict[str, np.ndarray], lr: float, weight_decay: float = 0.0
) -> None:
    """One AdamW update of `state`'s arena: decoupled decay first, then bias-corrected Adam.

    Every element takes the steps of a per-tensor update in the same order,
    with the gradient converted to float64 and the update cast to the
    arena's dtype, so the result equals that loop's bitwise, whether the
    arena is one part or several (`AdamWState`).  `grads` needs an entry for
    every arena tensor; entries for other tensors are ignored, and those
    tensors are untouched.  A missing entry raises `KeyError` naming the
    tensor before anything changes: the gradients are gathered on the
    calling thread before any part starts.  Each worker runs its part in a
    copy of the caller's context, so numpy's error state (`np.errstate`)
    holds there too; the step returns or raises only after every part has
    ended, and a worker's exception is raised here.  Refuses to run inside
    `no_grad`: a block's merged backbone was built from the arena's views,
    which it makes read-only, and a write to `flat` would bypass that.
    """
    if autodiff._block_values is not None:
        raise RuntimeError("adamw_step inside no_grad: the arena's views are read-only there")
    for name, grad in state._grads.items():
        grad[...] = grads[name]
    state.step += 1
    t = state.step
    scalars = (lr, weight_decay, 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t)
    first, *rest = state._parts
    if rest and not state._threads:
        state._start_workers()
    for jobs, part in zip(state._jobs, rest):
        jobs.put((contextvars.copy_context(), part + scalars))
    try:
        _adamw_part(*first, *scalars)
    finally:  # every part ends, also when this thread's own part raised
        errors = [state._done.get() for _ in rest]
    for error in errors:
        if error is not None:
            raise error


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
    """Sizes, noise and shift of a seeded pretrain/downstream task pair; the
    pretrain splits draw their pixel noise with `noise`, the downstream ones
    with `downstream_noise`."""

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
    downstream_noise: float = 0.8

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for key in ("classes", "images_per_class", "val_per_class", "test_per_class",
                    "image_h", "image_w", "channels"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)}")
        for key in ("noise", "downstream_noise"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be non-negative, got {getattr(self, key)}")
        if not 0 <= self.shift_mix <= 1:
            # an angle of shift_mix * π/2: outside [0, 1] it aliases, and 4 is 0
            raise ConfigError(f"shift_mix must be in [0, 1], got {self.shift_mix}")


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


def _sample_split(rng, prototypes, per_class, noise):
    """`per_class` noisy copies of each prototype, drawn as one class-major
    block, then shuffled by one permutation."""
    classes, shape = len(prototypes), prototypes.shape[1:]
    xs = prototypes[:, None] + rng.normal(0.0, noise, (classes, per_class) + shape)
    order = rng.permutation(classes * per_class)
    ys = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    return xs.reshape((-1,) + shape)[order], ys[order]


def make_synthetic_task(spec: SyntheticTaskSpec, downstream: bool = False) -> Dataset:
    """Seeded class-prototype images plus Gaussian noise.

    The downstream distribution rotates each prototype toward a fresh
    pattern (by `shift_mix`) and applies a fixed random multiplicative
    pixel field (strength `shift_gain`), so frozen features degrade while
    the class structure stays learnable.

    The task's generator draws, in this order, the `(classes, H, W, C)`
    prototypes block, the same-shape fresh block and the `(H, W, C)` gain
    field; a second generator then draws, per split (train, val, test), one
    class-major `(classes, per_class, H, W, C)` noise block and one
    permutation of its images.  A block draw reads the stream in C order,
    as one draw per image did, and the seeded goldens rest on this order.
    """
    rng = np.random.default_rng(spec.seed)
    shape = (spec.image_h, spec.image_w, spec.channels)
    prototypes = rng.normal(0.0, 1.0, (spec.classes,) + shape)
    fresh = rng.normal(0.0, 1.0, (spec.classes,) + shape)
    gain_field = 1.0 + spec.shift_gain * rng.normal(0.0, 1.0, shape)

    noise = spec.downstream_noise if downstream else spec.noise
    if downstream:
        theta = spec.shift_mix * math.pi / 2.0
        prototypes = (math.cos(theta) * prototypes + math.sin(theta) * fresh) * gain_field

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
    `no_grad` block, so an attached mergeable adapter merges its backbone
    once per pass, inside the first call, and each call runs the plain
    forward on it.
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
    `config.dropout_rate`, one mean cross-entropy, and one backward whose
    gradients `autodiff.gradients` collects for `adamw_step`.  Each
    epoch ends with one validation pass without dropout, `evaluate` in
    chunks of `config.batch_size` without a tape.  `train_acc` counts the
    images the epoch stepped on, fewer than the split when `max_steps` ends it.
    For the run, the trainable tensors' `.data` become views into one flat
    arena (`AdamWState`), so a caller that holds an old `.data` array does
    not see the updates; the arena's worker threads, if it started any, stop
    before `train` returns or raises.
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
    try:
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
                    logits = model.forward(task.train_x[idx], drop_rate=config.dropout_rate,
                                           rng=rng)
                    correct += int(np.count_nonzero(np.argmax(logits.data, axis=-1) == ys))
                    loss = cross_entropy_logits(logits, ys)
                    value = loss.item()
                    if not math.isfinite(value):
                        raise TrainingDiverged(epoch, steps_done, value)
                    grads = autodiff.gradients(loss, params)
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
    finally:
        state.close()
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


def pretrain_backbone(
    vit_config: ViTConfig, task: Dataset, config: TrainingConfig
) -> tuple[ViTModel, list[dict]]:
    """Produce the frozen 'pretrained' backbone by full fine-tuning on `task`,
    the pretrain distribution (`make_synthetic_task(spec, downstream=False)`);
    `config.seed` seeds both its initialization and its training.  Returns
    the model and `train`'s per-epoch rows."""
    model = init_model(vit_config, seed=config.seed, dtype=config.dtype)
    history = full_finetune(model, task, config)
    model.freeze_all()
    return model, history
