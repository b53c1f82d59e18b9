"""Parameter-efficient fine-tuning methods over frozen ViT weight slots.

The headline method is residual low-rank rescaling of a frozen matrix W:

    x (W + ΔW) + b + f,   ΔW = (S_left S_right) ⊙ W,   S_left (m, r), S_right (r, n)

`rlrr` is its rank-1 case (dual-sided rescaling), `rankr_rlrr` the rank-r
case, and `rlrr_no_residual` drops the ⊙W coupling (ΔW = S_left S_right).
All three share one container, forward, merge and combine; rank, residual
and the one-sided ablations (a factor fixed to ones) are data in
`MethodSpec`.  Alongside: LoRA, SSF-style scale/shift, sequential
adapters and prompt tokens, all slot-level wrappers with exact identity at
neutral initialization, closed-form parameter counting, and lossless
merge back into the host weights where the map is linear.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, gelu, matmul
from .vit import (
    LN_KINDS,
    MATRIX_KINDS,
    ConfigError,
    ForwardHooks,
    ParamMatrix,
    ViTConfig,
    ViTModel,
    WeightSlot,
)

__all__ = [
    "MethodSpec",
    "RescaleParams",
    "LoraParams",
    "SsfParams",
    "AdapterParams",
    "PromptParams",
    "PeftModel",
    "BindingError",
    "attach",
    "rescale_forward",
    "lora_forward",
    "ssf_forward",
    "adapter_forward",
    "count_trainable",
    "ParamCountReport",
    "merge_rescale",
    "merge_ssf",
    "merge_lora",
    "merge_model",
    "combine_rlrr",
    "upgrade_adapter_tensors",
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


class BindingError(ValueError):
    """Raised when method parameters do not fit their host slot."""


@dataclass
class MethodSpec:
    """Which method to attach, where, and with what hyperparameters."""

    method: str = "rlrr"
    layer_range: tuple[int, int] | None = None  # inclusive start, exclusive stop
    matrix_slots: tuple[str, ...] = MATRIX_KINDS
    include_layernorm: bool = True
    rank: int = 4  # lora / rankr_rlrr / rlrr_no_residual; rlrr is rank 1
    bottleneck: int = 4  # adapter
    prompts: int = 4  # vpt
    adapter_positions: tuple[str, ...] = ("mha", "ffn")
    init: str = "zero"  # zero | normal | uniform | constant
    init_scale: float = 0.02
    scale_left: bool = True  # rescaling ablation axes: False fixes that factor to ones
    scale_right: bool = True
    residual: bool = True  # rescaling: ΔW = prod ⊙ W; False gives ΔW = prod

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        bad = set(self.matrix_slots) - set(MATRIX_KINDS)
        if bad:
            raise ConfigError(f"unknown matrix slots {sorted(bad)}")
        if not (self.scale_left or self.scale_right):
            raise ConfigError("at least one of scale_left/scale_right must be set")
        if self.method == "rlrr_no_residual":
            self.residual = False

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


# -- parameter containers ----------------------------------------------


@dataclass
class RescaleParams:
    """Rescaling factors S_left (m, r), S_right (r, n) and output shift f (n,) for one matrix.

    A factor that a one-sided ablation fixes to ones is frozen and is not a
    method tensor: it is never saved, bound or counted.
    """

    S_left: Tensor
    S_right: Tensor
    f: Tensor

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        named = {"S_left": self.S_left, "S_right": self.S_right, "f": self.f}
        return {f"{prefix}.{k}": t for k, t in named.items() if t.requires_grad}


@dataclass
class LoraParams:
    W_down: Tensor
    W_up: Tensor

    @property
    def rank(self) -> int:
        return self.W_down.shape[1]

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.W_down": self.W_down, f"{prefix}.W_up": self.W_up}


@dataclass
class SsfParams:
    s: Tensor
    f: Tensor

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.s": self.s, f"{prefix}.f": self.f}


@dataclass
class AdapterParams:
    W_down: Tensor
    W_up: Tensor

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.W_down": self.W_down, f"{prefix}.W_up": self.W_up}


@dataclass
class PromptParams:
    theta: Tensor

    @property
    def count(self) -> int:
        return self.theta.shape[0]

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.theta": self.theta}


# -- forward primitives ------------------------------------------------


def rescale_forward(
    x: Tensor, host: ParamMatrix, p: RescaleParams, residual: bool = True
) -> Tensor:
    """x (W + ΔW) + b^T + f^T with ΔW = (S_left S_right) ⊙ W, or S_left S_right
    without the residual."""
    m, n = host.w.shape
    if p.S_left.shape[0] != m or p.S_right.shape[1] != n:
        raise BindingError(
            f"scale factor shapes {p.S_left.shape}/{p.S_right.shape} do not fit W {host.w.shape}"
        )
    prod = matmul(p.S_left, p.S_right)
    y = matmul(x, host.w + (prod * host.w if residual else prod))
    if host.b is not None:
        y = y + host.b
    return y + p.f


def lora_forward(x: Tensor, host: ParamMatrix, p: LoraParams) -> Tensor:
    """x (W + W_down W_up) + b^T."""
    y = matmul(x, host.w + matmul(p.W_down, p.W_up))
    if host.b is not None:
        y = y + host.b
    return y


def ssf_forward(x: Tensor, host: ParamMatrix, p: SsfParams) -> Tensor:
    """(x W + b^T) ⊙ s^T + f^T."""
    y = matmul(x, host.w)
    if host.b is not None:
        y = y + host.b
    return y * p.s + p.f


def adapter_forward(x_block_out: Tensor, p: AdapterParams) -> Tensor:
    """Bottleneck map of a block output: GELU(y W_down) W_up.

    Collapses to zeros when W_up is zero; the attach wiring adds this to the
    block output so zero-initialized adapters leave the model unchanged.
    """
    return matmul(gelu(matmul(x_block_out, p.W_down)), p.W_up)


# -- attachment --------------------------------------------------------


def _init_scale_vec(n: int, spec: MethodSpec, rng: np.random.Generator, dtype) -> np.ndarray:
    if spec.init == "zero":
        return np.zeros(n, dtype=dtype)
    if spec.init == "normal":
        return rng.normal(0.0, spec.init_scale, n).astype(dtype)
    if spec.init == "uniform":
        return rng.uniform(-spec.init_scale, spec.init_scale, n).astype(dtype)
    if spec.init == "constant":
        return np.full(n, spec.init_scale, dtype=dtype)
    raise ConfigError(f"unknown init scheme {spec.init!r}")


def _scale_factor(init: np.ndarray, trainable: bool) -> Tensor:
    # a factor switched off by a one-sided ablation is a frozen constant of ones;
    # its initial values are still drawn so the generator stays in step
    return Tensor(init, requires_grad=True) if trainable else Tensor(np.ones_like(init))


class PeftModel:
    """A frozen backbone plus attached method parameters, forward-ready."""

    def __init__(self, base: ViTModel, spec: MethodSpec, params: dict[str, object]):
        self.base = base
        self.spec = spec
        self.params = params
        self.hooks = _MethodHooks(self)

    @property
    def config(self) -> ViTConfig:
        return self.base.config

    def forward(self, image, drop_rate: float = 0.0, rng=None) -> Tensor:
        from .vit import forward as vit_forward

        return vit_forward(image, self.base, self.hooks, drop_rate=drop_rate, rng=rng)

    def method_tensors(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for key, p in sorted(self.params.items()):
            out.update(p.tensors(f"peft.{self.spec.method}.{key}"))
        return out

    def trainable(self) -> dict[str, Tensor]:
        out = self.method_tensors()
        out = {k: t for k, t in out.items() if t.requires_grad}
        head = self.base.slot("head")
        out["head.w"] = head.w
        out["head.b"] = head.b
        return out


def _wrapped_matrix_keys(spec: MethodSpec, config: ViTConfig) -> list[str]:
    keys = []
    slots = spec.matrix_slots
    if spec.method == "lora" and spec.matrix_slots == MATRIX_KINDS:
        slots = ("q", "v")  # conventional default attachment
    for l in spec.layers(config):
        for kind in slots:
            keys.append(WeightSlot(l, kind).key)
    return keys


def _wrapped_ln_keys(spec: MethodSpec, config: ViTConfig) -> list[str]:
    if not spec.include_layernorm or spec.method not in RESCALING + ("ssf",):
        return []
    keys = []
    for l in spec.layers(config):
        for kind in LN_KINDS:
            keys.append(WeightSlot(l, kind).key)
    if spec.layer_range is None or spec.layer_range[1] == config.layers:
        keys.append("final_ln")
    return keys


def _matrix_dims(key: str, config: ViTConfig) -> tuple[int, int]:
    kind = key.split(".")[-1]
    D, H = config.dim, config.hidden
    if kind in ("q", "k", "v", "o"):
        return D, D
    if kind == "fc1":
        return D, H
    if kind == "fc2":
        return H, D
    raise ConfigError(f"slot {key!r} is not a weight matrix")


def attach(spec: MethodSpec, model: ViTModel, seed: int = 0) -> PeftModel:
    """Freeze the backbone and attach trainable method parameters.

    The head stays trainable (per-task).  Neutral initialization leaves the
    forward map identical to the frozen model.
    """
    rng = np.random.default_rng(seed)
    dtype = model.dtype
    config = model.config
    model.freeze_all()
    model.slot("head").unfreeze()

    params: dict[str, object] = {}
    method = spec.method

    for key in _wrapped_matrix_keys(spec, config):
        m, n = _matrix_dims(key, config)
        if method in RESCALING:
            r = spec.scale_rank
            if r > min(m, n):
                raise ConfigError(f"rank {r} exceeds min dim of slot {key}")
            if method == "rlrr":
                left = _init_scale_vec(m, spec, rng, dtype).reshape(m, 1)
                right = _init_scale_vec(n, spec, rng, dtype).reshape(1, n)
            else:
                left = rng.normal(0.0, spec.init_scale, (m, r)).astype(dtype)
                right = np.zeros((r, n), dtype=dtype)
                if not spec.scale_right:
                    # S_right is fixed to ones, so a zero S_left keeps ΔW = 0 at init
                    left = np.zeros_like(left)
            params[key] = RescaleParams(
                S_left=_scale_factor(left, spec.scale_left),
                S_right=_scale_factor(right, spec.scale_right),
                f=Tensor(np.zeros(n, dtype=dtype), requires_grad=True),
            )
        elif method == "lora":
            r = spec.rank
            if r >= min(m, n):
                raise ConfigError(f"lora rank {r} must be below min dim of slot {key}")
            params[key] = LoraParams(
                W_down=Tensor(rng.normal(0.0, spec.init_scale, (m, r)).astype(dtype),
                              requires_grad=True),
                W_up=Tensor(np.zeros((r, n), dtype=dtype), requires_grad=True),
            )
        elif method == "ssf":
            params[key] = SsfParams(
                s=Tensor(np.ones(n, dtype=dtype), requires_grad=True),
                f=Tensor(np.zeros(n, dtype=dtype), requires_grad=True),
            )

    for key in _wrapped_ln_keys(spec, config):
        D = config.dim
        params[key] = SsfParams(
            s=Tensor(np.ones(D, dtype=dtype), requires_grad=True),
            f=Tensor(np.zeros(D, dtype=dtype), requires_grad=True),
        )

    if method == "adapter":
        Dp = spec.bottleneck
        D = config.dim
        if Dp >= D:
            raise ConfigError(f"adapter bottleneck {Dp} must be below dim {D}")
        for l in spec.layers(config):
            for pos in spec.adapter_positions:
                params[f"l{l:02d}.{pos}_adapter"] = AdapterParams(
                    W_down=Tensor(rng.normal(0.0, spec.init_scale, (D, Dp)).astype(dtype),
                                  requires_grad=True),
                    W_up=Tensor(np.zeros((Dp, D), dtype=dtype), requires_grad=True),
                )

    if method in ("vpt_shallow", "vpt_deep"):
        T = spec.prompts
        D = config.dim
        inject_layers = [0] if method == "vpt_shallow" else list(spec.layers(config))
        for l in inject_layers:
            if T > 0:
                params[f"l{l:02d}.prompt"] = PromptParams(
                    theta=Tensor(rng.normal(0.0, spec.init_scale, (T, D)).astype(dtype),
                                 requires_grad=True)
                )

    return PeftModel(model, spec, params)


class _MethodHooks(ForwardHooks):
    def __init__(self, pm: PeftModel):
        self.model = pm

    def linear(self, key: str, x: Tensor, host: ParamMatrix) -> Tensor:
        p = self.model.params.get(key)
        if p is None:
            return super().linear(key, x, host)
        if isinstance(p, RescaleParams):
            return rescale_forward(x, host, p, residual=self.model.spec.residual)
        if isinstance(p, LoraParams):
            return lora_forward(x, host, p)
        if isinstance(p, SsfParams):
            return ssf_forward(x, host, p)
        raise BindingError(f"slot {key!r} carries unexpected params {type(p).__name__}")

    def layer_norm(self, key: str, x: Tensor, host: ParamMatrix, eps: float = 1e-6) -> Tensor:
        y = super().layer_norm(key, x, host, eps=eps)
        p = self.model.params.get(key)
        if p is None:
            return y
        return y * p.s + p.f

    def after_mha(self, layer: int, y: Tensor) -> Tensor:
        p = self.model.params.get(f"l{layer:02d}.mha_adapter")
        if p is None:
            return y
        return y + adapter_forward(y, p)

    def after_ffn(self, layer: int, y: Tensor) -> Tensor:
        p = self.model.params.get(f"l{layer:02d}.ffn_adapter")
        if p is None:
            return y
        return y + adapter_forward(y, p)

    def enter_layer(self, layer: int, x: Tensor) -> Tensor:
        p = self.model.params.get(f"l{layer:02d}.prompt")
        base_tokens = self.model.config.tokens + 1
        if self.model.spec.method == "vpt_deep" and x.shape[-2] > base_tokens:
            # discard the previous layer's prompt outputs before re-injecting
            x = x.slice_rows(0, base_tokens)
        if p is None:
            return x
        return Tensor.concat_rows([x, p.theta])


# -- parameter counting ------------------------------------------------


@dataclass
class ParamCountReport:
    """Itemized trainable-parameter accounting for one method spec.

    `items` maps slot keys to exact per-slot counts; `backbone_total` is their
    sum and always equals tensor enumeration.  `paper_form_total` evaluates
    the published closed form (which for dual-sided rescaling over-counts
    non-square matrices); head and LayerNorm terms are itemized separately.
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
    """Closed-form trainable-parameter counts for a method on a given geometry."""
    report = ParamCountReport(method=spec.method)
    D = config.dim
    nlayers = len(spec.layers(config))
    report.head_params = D * config.classes + config.classes

    method = spec.method
    if method in RESCALING:
        r = spec.scale_rank
        for key in _wrapped_matrix_keys(spec, config):
            m, n = _matrix_dims(key, config)
            # shift f plus each factor a one-sided ablation leaves trainable
            report.items[key] = n + m * r * spec.scale_left + r * n * spec.scale_right
        if method == "rlrr":
            # paper form: 3 scale/shift vectors per adapted operation output
            dstar = sum(_matrix_dims(f"x.{k}", config)[1] for k in spec.matrix_slots)
            report.paper_form_total = 3 * dstar * nlayers
        else:
            report.paper_form_total = sum(report.items.values())
    elif method == "lora":
        r = spec.rank
        keys = _wrapped_matrix_keys(spec, config)
        for key in keys:
            m, n = _matrix_dims(key, config)
            report.items[key] = m * r + r * n
        w = len(keys) // max(nlayers, 1)
        report.paper_form_total = 2 * w * D * r * nlayers
    elif method == "ssf":
        for key in _wrapped_matrix_keys(spec, config):
            _, n = _matrix_dims(key, config)
            report.items[key] = 2 * n
        dstar = sum(_matrix_dims(f"x.{k}", config)[1] for k in spec.matrix_slots)
        report.paper_form_total = 2 * dstar * nlayers
    elif method == "adapter":
        Dp = spec.bottleneck
        for l in spec.layers(config):
            for pos in spec.adapter_positions:
                report.items[f"l{l:02d}.{pos}_adapter"] = 2 * D * Dp
        report.paper_form_total = len(spec.adapter_positions) * 2 * D * Dp * nlayers
    elif method == "vpt_shallow":
        if spec.prompts > 0:
            report.items["l00.prompt"] = spec.prompts * D
        report.paper_form_total = spec.prompts * D
    elif method == "vpt_deep":
        for l in spec.layers(config):
            if spec.prompts > 0:
                report.items[f"l{l:02d}.prompt"] = spec.prompts * D
        report.paper_form_total = spec.prompts * D * nlayers

    for key in _wrapped_ln_keys(spec, config):
        report.ln_items[key] = 2 * D
    if method in ("rlrr", "ssf"):
        report.paper_form_total += sum(report.ln_items.values())
    return report


# -- merge (re-parameterization) ---------------------------------------


def merge_rescale(host: ParamMatrix, p: RescaleParams, residual: bool = True) -> ParamMatrix:
    """W_re = W + ΔW with the forward's ΔW, b_re = b + f; result frozen."""
    w = host.w.data
    prod = p.S_left.data @ p.S_right.data
    w_re = w + (prod * w if residual else prod)
    b = host.b.data if host.b is not None else np.zeros(w.shape[1], dtype=w.dtype)
    return ParamMatrix(host.slot, Tensor(w_re), Tensor(b + p.f.data))


def merge_ssf(host: ParamMatrix, p: SsfParams) -> ParamMatrix:
    """W_re = W ⊙ (1 s^T), b_re = b ⊙ s + f."""
    w = host.w.data
    w_re = w * p.s.data[None, :]
    b = host.b.data if host.b is not None else np.zeros(w.shape[1], dtype=w.dtype)
    return ParamMatrix(host.slot, Tensor(w_re), Tensor(b * p.s.data + p.f.data))


def merge_lora(host: ParamMatrix, p: LoraParams) -> ParamMatrix:
    """W_re = W + W_down W_up; bias unchanged."""
    w_re = host.w.data + p.W_down.data @ p.W_up.data
    b = Tensor(host.b.data.copy()) if host.b is not None else None
    return ParamMatrix(host.slot, Tensor(w_re), b)


def _merge_ln(host: ParamMatrix, p: SsfParams) -> ParamMatrix:
    # LN affine followed by scale/shift folds into the affine parameters
    gamma = host.w.data * p.s.data
    beta = host.b.data * p.s.data + p.f.data
    return ParamMatrix(host.slot, Tensor(gamma), Tensor(beta))


def merge_model(pm: PeftModel) -> ViTModel:
    """Absorb attached parameters into a new frozen backbone (zero inference cost).

    Only linear methods merge; adapters and prompts raise.
    """
    spec = pm.spec
    if spec.method in ("adapter", "vpt_shallow", "vpt_deep"):
        raise ConfigError(f"method {spec.method!r} is not linearly mergeable")
    merged = pm.base.copy()
    for key, p in pm.params.items():
        host = merged.slot(key)
        if isinstance(p, RescaleParams):
            new = merge_rescale(host, p, residual=spec.residual)
        elif isinstance(p, LoraParams):
            new = merge_lora(host, p)
        elif isinstance(p, SsfParams):
            kind = key.split(".")[-1]
            new = _merge_ln(host, p) if kind in LN_KINDS + ("final_ln",) else merge_ssf(host, p)
        else:
            raise BindingError(f"cannot merge params of type {type(p).__name__}")
        merged.slots[key] = new
    merged.freeze_all()
    return merged


# -- combination of multiple adapters ----------------------------------


def combine_rlrr(
    adapters: list[RescaleParams], weights: list[float], mode: str = "weighted"
) -> RescaleParams:
    """Combine several rescaling adapters for the same host matrix into one.

    weighted: each factor is the weighted sum of the adapters' factors (the
    literal product-of-sums form, cross terms included).  sum_of_products:
    the exact sum Σ_k w_k S_left^k S_right^k, stacking the factors side by
    side (column block k of S_left scaled by w_k), so the rank is the sum
    of the adapters' ranks.  The shift is the weighted sum of shifts in both
    modes.
    """
    if not adapters:
        raise BindingError("combine_rlrr needs at least one adapter")
    if len(weights) != len(adapters):
        raise BindingError(f"{len(weights)} weights for {len(adapters)} adapters")
    ref = adapters[0]
    for a in adapters[1:]:
        if a.S_left.shape != ref.S_left.shape or a.S_right.shape != ref.S_right.shape:
            raise BindingError("adapters bind to different host shapes")

    def weighted_sum(tensors):
        return sum(w * t.data for w, t in zip(weights, tensors))

    if mode == "weighted":
        S_left = weighted_sum(a.S_left for a in adapters)
        S_right = weighted_sum(a.S_right for a in adapters)
    elif mode == "sum_of_products":
        S_left = np.concatenate([w * a.S_left.data for w, a in zip(weights, adapters)], axis=1)
        S_right = np.concatenate([a.S_right.data for a in adapters], axis=0)
    else:
        raise ConfigError(f"unknown combination mode {mode!r}")
    f = weighted_sum(a.f for a in adapters)
    return RescaleParams(*(Tensor(t, requires_grad=True) for t in (S_left, S_right, f)))


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
            raise BindingError(f"adapter holds {name!r} in both the old and the new layout")
        out[name] = arr
    return out
