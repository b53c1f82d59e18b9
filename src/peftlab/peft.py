"""Parameter-efficient fine-tuning methods over frozen ViT weight slots.

The headline method is residual low-rank rescaling of a frozen matrix W:

    x (W + ΔW) + b + f,   ΔW = (S_left S_right) ⊙ W,   S_left (m, r), S_right (r, n)

`rlrr` is its rank-1 case (dual-sided rescaling), `rankr_rlrr` the rank-r
case, and `rlrr_no_residual` drops the ⊙W coupling (ΔW = S_left S_right).
LoRA (ΔW = W_down W_up) is the same map without the residual or the shift.
All four share one forward and one merge; rank, residual, the shift and the
one-sided ablations (a factor fixed to ones) are data in `MethodSpec`.
Each slot's method tensors are one `{name: Tensor}` record, and the names
say what the slot is: `s` and `f` an SSF pair, `S_left` and `S_right` (and
`f` when the slot has a shift) a rescaling or LoRA map, `W_down` and `W_up`
an adapter, `theta` prompts.  Every matrix slot, plain, adapted or wrapped
by `ssf`, runs as one `autodiff.matmul` tape node: an adapted slot passes
its factors and its shift, an SSF slot its scale and shift.  Merge builds
W' with the same `autodiff.adapted_weight` the node uses.
Alongside: SSF-style scale/shift, sequential adapters and prompt tokens,
all slot-level wrappers with exact identity at neutral initialization,
closed-form parameter counting, and lossless merge back into the host
weights where the map is linear.  `attach` and `count_trainable` read one
slot layout, `_slots`, which holds every check of a spec's sizes against
the geometry, so the count rejects exactly the specs that `attach` rejects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import vit
from .autodiff import Tensor, adapted_weight, gelu, layer_norm, matmul
from .vit import (
    LN_KINDS,
    MATRIX_KINDS,
    ConfigError,
    ForwardHooks,
    ParamMatrix,
    ViTConfig,
    ViTModel,
)

__all__ = [
    "MethodSpec",
    "PeftModel",
    "attach",
    "adapter_forward",
    "count_trainable",
    "ParamCountReport",
    "merge_model",
    "combine",
]

METHODS = (
    "rlrr",
    "rankr_rlrr",
    "rlrr_no_residual",
    "lora",
    "ssf",
    "adapter",
    "vpt_shallow",
    "vpt_deep",
)
RESCALING = ("rlrr", "rankr_rlrr", "rlrr_no_residual")
ADAPTED_MAP = RESCALING + ("lora",)  # each slot holds factors S_left and S_right
INITS = ("lora", "normal")
ADAPTER_POSITIONS = ("mha", "ffn")  # the blocks an adapter can follow


@dataclass
class MethodSpec:
    """Which method to attach, where, and with what hyperparameters."""

    method: str = "rlrr"
    layer_range: tuple[int, int] | None = None  # inclusive start, exclusive stop
    matrix_slots: tuple[str, ...] | None = None  # None: the method's default, `kinds`
    include_layernorm: bool = True
    rank: int = 4  # lora / rankr_rlrr / rlrr_no_residual; rlrr is rank 1
    bottleneck: int = 4  # adapter
    prompts: int = 4  # vpt
    adapter_positions: tuple[str, ...] = ADAPTER_POSITIONS
    init: str = "lora"  # one of INITS; rescaling factors only, LoRA keeps its own
    init_scale: float = 0.02
    scale_left: bool = True  # rescaling ablation axes: False fixes that factor to ones
    scale_right: bool = True
    residual: bool = True  # rescaling: ΔW = prod ⊙ W; False gives ΔW = prod

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.method == "lora":
            # LoRA trains both factors and has no residual, whatever the rescaling keys say
            self.scale_left = self.scale_right = True
        if self.method in ("lora", "rlrr_no_residual"):
            self.residual = False
        bad = set(self.kinds) - set(MATRIX_KINDS)
        if bad:
            raise ConfigError(f"unknown matrix slots {sorted(bad)}")
        bad = set(self.adapter_positions) - set(ADAPTER_POSITIONS)
        if bad:
            raise ConfigError(f"unknown adapter_positions {sorted(bad)}; "
                              f"expected some of {ADAPTER_POSITIONS}")
        if not (self.scale_left or self.scale_right):
            raise ConfigError("at least one of scale_left/scale_right must be set")
        if self.init == "zero":
            raise ConfigError("init 'zero' is a saddle: with S_left = S_right = 0 neither "
                              "factor gets a gradient; use 'lora', the default")
        if self.init not in INITS:
            raise ConfigError(f"unknown init {self.init!r}; expected one of {INITS}")
        if self.init_scale < 0:
            raise ConfigError(f"init_scale must be non-negative, got {self.init_scale}")
        for key, least in (("rank", 1), ("bottleneck", 1), ("prompts", 0)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be at least {least}, got {getattr(self, key)}")

    @property
    def kinds(self) -> tuple[str, ...]:
        """The matrix kinds adapted in each layer: `matrix_slots` when set,
        else q and v for LoRA (its conventional attachment) and all six for
        every other method."""
        if self.matrix_slots is not None:
            return self.matrix_slots
        return ("q", "v") if self.method == "lora" else MATRIX_KINDS

    @property
    def scale_rank(self) -> int:
        """Rank r of the rescaling factors: 1 for rlrr, `rank` otherwise."""
        return 1 if self.method == "rlrr" else self.rank

    def layers(self, config: ViTConfig) -> range:
        if self.layer_range is None:
            return range(config.layers)
        lo, hi = self.layer_range
        if not (0 <= lo < hi <= config.layers):
            raise ConfigError(f"layer range {self.layer_range} outside 0..{config.layers}")
        return range(lo, hi)


# -- forward primitives ------------------------------------------------


def adapter_forward(x_block_out: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Bottleneck map of a block output: GELU(y W_down) W_up.

    Collapses to zeros when W_up is zero; the attach wiring adds this to the
    block output so zero-initialized adapters leave the model unchanged.
    """
    return matmul(gelu(matmul(x_block_out, p["W_down"])), p["W_up"])


# -- attachment --------------------------------------------------------


def _initial(name: str, shape, spec: MethodSpec, rng: np.random.Generator, dtype) -> np.ndarray:
    """Initial values of the method tensor `name`, drawing from `rng` where it is random.

    Under `init = lora` (and always for LoRA) S_left ~ N(0, init_scale) and
    S_right = 0 (Hu et al. 2021), so ΔW = 0 but S_right gets a gradient;
    `init = normal` draws both rescaling factors from N(0, init_scale).
    """
    if name == "s":
        return np.ones(shape, dtype=dtype)
    normal = spec.init == "normal" and spec.method in RESCALING
    if name in ("S_left", "W_down", "theta") or (normal and name == "S_right"):
        drawn = rng.normal(0.0, spec.init_scale, shape).astype(dtype)
        if name == "S_left" and not spec.scale_right and not normal:
            # S_right is fixed to ones, so a zero S_left keeps ΔW = 0 at init
            return np.zeros_like(drawn)
        return drawn
    return np.zeros(shape, dtype=dtype)  # S_right, f, W_up


def _method_tensor(init: np.ndarray, trainable: bool) -> Tensor:
    # a factor switched off by a one-sided ablation is a frozen constant of ones;
    # its initial values are still drawn so the generator stays in step
    return Tensor(init, requires_grad=True) if trainable else Tensor(np.ones_like(init))


def _frozen_factors(spec: MethodSpec) -> set[str]:
    """Factors a one-sided ablation fixes to ones: neither trained, saved nor counted."""
    return {name for name, on in (("S_left", spec.scale_left), ("S_right", spec.scale_right))
            if not on}


# LoRA saves its factors under its own names
_LORA_NAMES = {"S_left": "W_down", "S_right": "W_up"}


class PeftModel:
    """A frozen backbone plus attached method parameters, forward-ready.

    `params` maps each slot key to its record `{tensor name: Tensor}`.  A
    factor that a one-sided ablation fixes to ones stays in the record,
    frozen, and is not a method tensor: it is never saved, bound or counted.
    """

    def __init__(self, base: ViTModel, spec: MethodSpec, params: dict[str, dict[str, Tensor]]):
        self.base = base
        self.spec = spec
        self.params = params
        self.hooks = _MethodHooks(self)

    @property
    def config(self) -> ViTConfig:
        return self.base.config

    def forward(self, image, drop_rate: float = 0.0, rng=None) -> Tensor:
        # `vit.forward` is looked up per call, so a wrapper installed on it applies here too
        return vit.forward(image, self.base, self.hooks, drop_rate=drop_rate, rng=rng)

    def method_tensors(self) -> dict[str, Tensor]:
        """The trainable tensors, slot by slot in key order, then in `_slots`' field order."""
        method = self.spec.method
        rename = _LORA_NAMES if method == "lora" else {}
        return {f"peft.{method}.{key}.{rename.get(name, name)}": t
                for key, p in sorted(self.params.items()) for name, t in p.items()
                if t.requires_grad}

    def trainable(self) -> dict[str, Tensor]:
        """Method tensors plus the per-task head: the contents of an adapter file."""
        head = self.base.slot("head")
        return {**self.method_tensors(), "head.w": head.w, "head.b": head.b}


def _matrix_dims(kind: str, config: ViTConfig) -> tuple[int, int]:
    D, H = config.dim, config.hidden
    return {"fc1": (D, H), "fc2": (H, D)}.get(kind, (D, D))


def _slots(spec: MethodSpec, config: ViTConfig):
    """Yield `(key, {tensor name: shape})` for each slot `spec` adapts, in attach order.

    The names are the slot record's keys, so a LoRA slot holds `S_left` and
    `S_right`.  Every check of the spec's sizes against the geometry is here,
    so `attach` and `count_trainable` accept and reject the same specs.
    """
    method = spec.method
    D = config.dim
    layers = spec.layers(config)
    if method in ADAPTED_MAP + ("ssf",):
        for l in layers:
            for kind in spec.kinds:
                key = f"l{l:02d}.{kind}"
                m, n = _matrix_dims(kind, config)
                r = spec.scale_rank
                if method == "ssf":
                    yield key, {"s": (n,), "f": (n,)}
                elif method == "lora":
                    if r >= min(m, n):
                        raise ConfigError(f"lora rank {r} must be below min dim of slot {key}")
                    yield key, {"S_left": (m, r), "S_right": (r, n)}
                else:
                    if r > min(m, n):
                        raise ConfigError(f"rank {r} exceeds min dim of slot {key}")
                    yield key, {"S_left": (m, r), "S_right": (r, n), "f": (n,)}
    if spec.include_layernorm and method in RESCALING + ("ssf",):
        ln_keys = [f"l{l:02d}.{kind}" for l in layers for kind in LN_KINDS]
        if layers.stop == config.layers:
            ln_keys.append("final_ln")
        for key in ln_keys:
            yield key, {"s": (D,), "f": (D,)}
    if method == "adapter":
        Dp = spec.bottleneck
        if Dp >= D:
            raise ConfigError(f"adapter bottleneck {Dp} must be below dim {D}")
        for l in layers:
            for pos in spec.adapter_positions:
                yield f"l{l:02d}.{pos}_adapter", {"W_down": (D, Dp), "W_up": (Dp, D)}
    if method in ("vpt_shallow", "vpt_deep") and spec.prompts > 0:
        for l in [0] if method == "vpt_shallow" else layers:
            yield f"l{l:02d}.prompt", {"theta": (spec.prompts, D)}


def attach(spec: MethodSpec, model: ViTModel, seed: int = 0) -> PeftModel:
    """Freeze the backbone and attach trainable method parameters.

    The head stays trainable (per-task).  Neutral initialization leaves the
    forward map identical to the frozen model.  A spec that does not fit the
    model raises before the model is touched.
    """
    rng = np.random.default_rng(seed)
    slots = list(_slots(spec, model.config))
    frozen = _frozen_factors(spec)
    model.freeze_all()
    model.slot("head").unfreeze()
    params = {
        key: {name: _method_tensor(_initial(name, shape, spec, rng, model.dtype),
                                   name not in frozen)
              for name, shape in shapes.items()}
        for key, shapes in slots
    }
    return PeftModel(model, spec, params)


class _MethodHooks(ForwardHooks):
    def __init__(self, pm: PeftModel):
        self.model = pm

    def linear(self, key: str, x: Tensor, host: ParamMatrix) -> Tensor:
        p = self.model.params.get(key)
        if p is None or "s" in p:  # a plain slot, or an SSF pair: (x W + b) ⊙ s^T + f^T
            return matmul(x, host.w, host.b, None if p is None else (p["s"], p["f"]))
        f = p.get("f")  # x (W + ΔW) + b + f^T; LoRA has no shift
        return matmul(x, host.w, host.b, None if f is None else (None, f),
                      (p["S_left"], p["S_right"]), self.model.spec.residual)

    def layer_norm(self, key: str, x: Tensor, host: ParamMatrix) -> Tensor:
        p = self.model.params.get(key)  # None or an SSF pair
        return layer_norm(x, host.w, host.b, None if p is None else (p["s"], p["f"]))

    def after_block(self, key: str, y: Tensor) -> Tensor:
        p = self.model.params.get(f"{key}_adapter")
        return y if p is None else y + adapter_forward(y, p)

    def enter_layer(self, layer: int, x: Tensor) -> Tensor:
        p = self.model.params.get(f"l{layer:02d}.prompt")
        base_tokens = self.model.config.tokens + 1
        if self.model.spec.method == "vpt_deep" and x.shape[-2] > base_tokens:
            # discard the previous layer's prompt outputs before re-injecting
            x = x.slice_rows(0, base_tokens)
        if p is None:
            return x
        return Tensor.concat_rows([x, p["theta"]])


# -- parameter counting ------------------------------------------------


@dataclass
class ParamCountReport:
    """Itemized trainable-parameter accounting for one method spec.

    `items` maps slot keys to exact per-slot counts; `backbone_total` is their
    sum and always equals tensor enumeration.  `paper_form_total` evaluates a
    published closed form where one exists: `rlrr`'s 3 d* L + LayerNorm,
    three vectors per adapted output, which is exact on the D x D slots but
    over-counts fc1 (12D against 9D) and under-counts fc2 (3D against 6D);
    and LoRA's 2 D r per wrapped matrix, as if every one were D x D.  Every
    other method reports `backbone_total`.  Head and LayerNorm terms are
    itemized separately.
    """

    method: str
    items: dict[str, int] = field(default_factory=dict)
    ln_items: dict[str, int] = field(default_factory=dict)
    head_params: int = 0
    paper_form_total: int = 0

    @property
    def backbone_total(self) -> int:
        return sum(self.items.values()) + sum(self.ln_items.values())

    @property
    def total_with_head(self) -> int:
        return self.backbone_total + self.head_params


def count_trainable(spec: MethodSpec, config: ViTConfig) -> ParamCountReport:
    """Closed-form trainable-parameter counts for a method on a given geometry.

    Sums the shapes `attach` would allocate, without allocating them, and
    rejects exactly the specs `attach` rejects.
    """
    D = config.dim
    report = ParamCountReport(method=spec.method, head_params=D * config.classes + config.classes)
    frozen = _frozen_factors(spec)
    for key, shapes in _slots(spec, config):
        is_ln = key.rpartition(".")[2] in LN_KINDS + ("final_ln",)
        items = report.ln_items if is_ln else report.items
        items[key] = sum(math.prod(shape) for name, shape in shapes.items() if name not in frozen)

    if spec.method == "rlrr":  # 3 scale/shift vectors per adapted operation output
        dstar = sum(_matrix_dims(kind, config)[1] for kind in spec.kinds)
        ln = sum(report.ln_items.values())
        report.paper_form_total = 3 * dstar * len(spec.layers(config)) + ln
    elif spec.method == "lora":  # 2 D r per wrapped matrix, as if every one were D x D
        report.paper_form_total = 2 * len(report.items) * D * spec.rank
    else:
        report.paper_form_total = report.backbone_total
    return report


# -- merge (re-parameterization) ---------------------------------------


def merge_model(pm: PeftModel) -> ViTModel:
    """Absorb attached parameters into a new frozen backbone (zero inference cost).

    Only linear methods merge; adapters and prompts raise.
    """
    spec = pm.spec
    if spec.method in ("adapter", "vpt_shallow", "vpt_deep"):
        raise ConfigError(f"method {spec.method!r} is not linearly mergeable")
    merged = pm.base.copy()
    for key, p in pm.params.items():
        w, b = merged.slot(key).w.data, merged.slot(key).b.data
        if "s" in p:
            # an SSF pair: W_re = W ⊙ (1 s^T), b_re = b ⊙ s + f; `s` scales W's last
            # axis, so a LayerNorm slot's gamma (D,) folds the same way as a matrix
            w, b = w * p["s"].data, b * p["s"].data + p["f"].data
        else:
            # W_re = W + ΔW with the forward's ΔW, b_re = b + f; without a shift
            # (LoRA) b_re is b itself, so a -0.0 stays -0.0
            w = adapted_weight(w, p["S_left"].data, p["S_right"].data, spec.residual)
            b = b + p["f"].data if "f" in p else b
        merged.slots[key] = ParamMatrix(key, Tensor(w), Tensor(b))
    merged.freeze_all()
    return merged


# -- combination of multiple adapters ----------------------------------


def combine(pms: list[PeftModel], weights: list[float], mode: str = "weighted") -> PeftModel:
    """Combine dual-sided rescaling adapters attached under one spec into one.

    The result is attached to a copy of the first input's base.  Every
    tensor, the head included, is the weighted sum Σ_k w_k a_k in input
    order, except the factors under `sum_of_products`: that mode keeps the
    exact sum Σ_k w_k S_left^k S_right^k by stacking the factors side by side
    (column block k of S_left scaled by w_k), so the result is a `rankr_rlrr`
    adapter whose rank is the sum of the inputs' ranks.  `weighted` sums the
    factors too, the literal product-of-sums form, cross terms included.
    """
    spec = pms[0].spec
    if spec.method not in RESCALING or not (spec.scale_left and spec.scale_right):
        raise ConfigError("combine takes dual-sided rescaling adapters "
                          f"({', '.join(RESCALING)})")
    stack = mode == "sum_of_products"
    if stack:
        spec = replace(spec, method="rankr_rlrr", rank=spec.scale_rank * len(pms))
    elif mode != "weighted":
        raise ConfigError(f"unknown combination mode {mode!r}")
    out = attach(spec, pms[0].base.copy())
    inputs = [pm.trainable().values() for pm in pms]
    # every model lists its tensors slot by slot, field by field, then the head
    for (name, t), *parts in zip(out.trainable().items(), *inputs):
        leaf = name.rpartition(".")[2]
        if stack and leaf == "S_left":
            t.data[...] = np.concatenate([w * a.data for w, a in zip(weights, parts)], axis=1)
        elif stack and leaf == "S_right":
            t.data[...] = np.concatenate([a.data for a in parts], axis=0)
        else:
            t.data[...] = sum(w * a.data for w, a in zip(weights, parts))
    return out
