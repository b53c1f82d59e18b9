"""Deterministic fine-tuning loop: AdamW, cosine warmup schedule,
linear-probe / full fine-tuning baselines, and synthetic tasks.

Synthetic tasks come in a pretrain/downstream distribution pair: the
backbone is pretrained on the first, fine-tuning methods adapt to the
second, so adaptation quality is measurable without external datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, cross_entropy_logits, no_grad, zero_grads
from .peft import PeftModel
from .vit import ConfigError, ViTConfig, ViTModel, forward, init_model

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
    batch_size: int = 32
    epochs: int = 100
    warmup_epochs: int = 10
    seed: int = 0
    precision: str = "f32"
    max_steps: int | None = None

    def __post_init__(self):
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
    def __init__(self):
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adamw_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamWState,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One AdamW update: decoupled decay first, then bias-corrected Adam.

    Frozen tensors and tensors without a gradient entry are untouched.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name in sorted(params):
        p = params[name]
        if not p.requires_grad or name not in grads:
            continue
        g = grads[name].astype(np.float64)
        if name not in state.m:
            state.m[name] = np.zeros(p.shape, dtype=np.float64)
            state.v[name] = np.zeros(p.shape, dtype=np.float64)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        if weight_decay > 0.0:
            p.data *= np.asarray(1.0 - lr * weight_decay, dtype=p.dtype)
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p.data -= (lr * update).astype(p.dtype)


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
    seed: int = 0
    classes: int = 4
    images_per_class: int = 32
    val_per_class: int = 8
    test_per_class: int = 8
    image_h: int = 8
    image_w: int = 8
    channels: int = 1
    noise: float = 0.35
    shift_mix: float = 0.0  # 0 = downstream equals pretrain distribution
    shift_gain: float = 0.0  # amplitude of the fixed multiplicative pixel field
    downstream_noise: float | None = None

    def __post_init__(self):
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


def _batch_loss(forward_fn, xs, ys) -> tuple[Tensor, int]:
    """Mean loss and correct count of one batch, from one forward over all of `xs`."""
    logits = forward_fn(xs)
    correct = int(np.count_nonzero(np.argmax(logits.data, axis=-1) == ys))
    return cross_entropy_logits(logits, ys), correct


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


def run_training(
    params: dict[str, Tensor],
    train_forward,
    eval_forward,
    task: Dataset,
    config: TrainingConfig,
) -> list[dict]:
    """Shared epoch loop; returns per-epoch metric rows.

    `train_forward(xs, rng)` takes a batch `(B, H, W, C)` and returns
    `(B, classes)` logits; it may apply dropout.  Each step is that one
    forward, one mean cross-entropy and one backward.  `eval_forward(xs)`
    takes a batch too and must not apply dropout; each epoch ends with one
    validation pass, `evaluate` in chunks of `config.batch_size` without a
    tape.
    Aborts with TrainingDiverged on a non-finite loss; numpy's overflow and
    invalid-value warnings on the way there are silenced, since that error
    reports the divergence.
    """
    rng = np.random.default_rng(config.seed)
    state = AdamWState()
    history: list[dict] = []
    steps_done = 0
    n = len(task.train_y)
    for epoch in range(config.epochs):
        lr = cosine_warmup_lr(epoch, config)
        order = rng.permutation(n)
        losses = []
        correct = 0
        for start in range(0, n, config.batch_size):
            if config.max_steps is not None and steps_done >= config.max_steps:
                break
            idx = order[start : start + config.batch_size]
            zero_grads(params)
            with np.errstate(over="ignore", invalid="ignore"):
                loss, batch_correct = _batch_loss(
                    lambda xs: train_forward(xs, rng), task.train_x[idx], task.train_y[idx]
                )
                value = loss.item()
                if not math.isfinite(value):
                    raise TrainingDiverged(epoch, steps_done, value)
                loss.backward()
            grads = {
                k: p.grad for k, p in params.items() if p.grad is not None and p.requires_grad
            }
            adamw_step(params, grads, state, lr, config.weight_decay)
            losses.append(value)
            correct += batch_correct
            steps_done += 1
        if not losses:
            break
        val_acc = evaluate(eval_forward, task.val_x, task.val_y, batch=config.batch_size)
        history.append(
            {
                "epoch": epoch,
                "lr": lr,
                "train_loss": float(np.mean(losses)),
                "train_acc": correct / n,
                "val_acc": val_acc,
            }
        )
        if config.max_steps is not None and steps_done >= config.max_steps:
            break
    return history


def train(pm: PeftModel, task: Dataset, config: TrainingConfig) -> list[dict]:
    """Fine-tune attached method parameters (plus head) on a task."""
    params = pm.trainable()

    def train_forward(xs, rng):
        return pm.forward(xs, drop_rate=config.dropout_rate, rng=rng)

    return run_training(params, train_forward, pm.forward, task, config)


def linear_probe(model: ViTModel, task: Dataset, config: TrainingConfig) -> list[dict]:
    """Train the classification head only; everything else frozen."""
    model.freeze_all()
    model.slot("head").unfreeze()
    params = model.trainable()

    def fwd(x, rng=None):
        return forward(x, model)

    return run_training(params, fwd, fwd, task, config)


def full_finetune(model: ViTModel, task: Dataset, config: TrainingConfig) -> list[dict]:
    """Update every parameter of the model."""
    model.unfreeze_all()
    params = model.trainable()

    def train_forward(xs, rng):
        return forward(xs, model, drop_rate=config.dropout_rate, rng=rng)

    def eval_forward(xs):
        return forward(xs, model)

    return run_training(params, train_forward, eval_forward, task, config)


def pretrain_backbone(vit_config: ViTConfig, task: Dataset, config: TrainingConfig) -> ViTModel:
    """Produce the frozen 'pretrained' backbone by full fine-tuning on `task`,
    the pretrain distribution (`make_synthetic_task(spec, downstream=False)`);
    `config.seed` seeds both its initialization and its training."""
    model = init_model(vit_config, seed=config.seed, dtype=config.dtype)
    full_finetune(model, task, config)
    model.freeze_all()
    return model
