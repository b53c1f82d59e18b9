"""Toy Vision Transformer with every weight matrix exposed as a named slot.

Pre-norm encoder wiring: x' = MHA(LN(x)) + x, out = FFN(LN(x')) + x'.
Classification reads the class token through a final LayerNorm and a linear
head, so the last layer computes only the class-token row: its k and v still
project every token, which that row attends to, and everything else in it
runs on the one row.  The forward pass routes every linear map and LayerNorm
output through a hook object so fine-tuning methods can wrap individual slots
without touching the backbone code.  In the plain hooks each matrix slot is one
`matmul` tape node with its bias, and each LayerNorm slot one `layer_norm`;
a method's hooks keep that count, since `matmul` also takes a slot's
adapting factors and its SSF scale and shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, attention, dropout, gelu, layer_norm, matmul

__all__ = [
    "ConfigError",
    "ViTConfig",
    "ParamMatrix",
    "ViTModel",
    "ForwardHooks",
    "init_model",
    "extract_patches",
    "patch_embed",
    "mha",
    "ffn",
    "encoder_layer",
    "forward",
]

MATRIX_KINDS = ("q", "k", "v", "o", "fc1", "fc2")
LN_KINDS = ("ln1", "ln2")


class ConfigError(ValueError):
    """Raised when a model configuration or input does not fit together."""


@dataclass(frozen=True)
class ViTConfig:
    image_h: int = 8
    image_w: int = 8
    channels: int = 1
    patch: int = 4
    dim: int = 64
    layers: int = 2
    heads: int = 4
    classes: int = 8

    def __post_init__(self):
        # positivity first: the divisibility checks below divide by patch and heads
        if min(self.image_h, self.image_w, self.channels, self.patch, self.dim,
               self.layers, self.heads, self.classes) < 1:
            raise ConfigError("all config extents must be positive")
        if self.image_h % self.patch or self.image_w % self.patch:
            raise ConfigError(
                f"patch {self.patch} must divide image {self.image_h}x{self.image_w}"
            )
        if self.dim % self.heads:
            raise ConfigError(f"heads {self.heads} must divide dim {self.dim}")

    @property
    def tokens(self) -> int:
        return (self.image_h * self.image_w) // (self.patch * self.patch)

    @property
    def hidden(self) -> int:
        return 4 * self.dim

    @property
    def patch_dim(self) -> int:
        return self.patch * self.patch * self.channels


class ParamMatrix:
    """Weight matrix plus bias bound to one slot key (`l03.fc1`, or `head` for
    a global slot); freezable as a unit.

    For LayerNorm slots `w` holds gamma and `b` holds beta.
    """

    def __init__(self, key: str, w: Tensor, b: Tensor | None):
        self.key = key
        self.w = w
        self.b = b

    def freeze(self):
        self.w.requires_grad = False
        if self.b is not None:
            self.b.requires_grad = False

    def unfreeze(self):
        self.w.requires_grad = True
        if self.b is not None:
            self.b.requires_grad = True

    def tensors(self) -> dict[str, Tensor]:
        out = {f"{self.key}.w": self.w}
        if self.b is not None:
            out[f"{self.key}.b"] = self.b
        return out


class ViTModel:
    def __init__(self, config: ViTConfig, slots: dict[str, ParamMatrix], dtype=np.float32):
        self.config = config
        self.slots = slots
        self.dtype = dtype

    def slot(self, key: str) -> ParamMatrix:
        try:
            return self.slots[key]
        except KeyError:
            raise ConfigError(f"unknown weight slot {key!r}") from None

    def named_tensors(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for pm in self.slots.values():
            out.update(pm.tensors())
        return out

    def trainable(self) -> dict[str, Tensor]:
        return {k: t for k, t in self.named_tensors().items() if t.requires_grad}

    def freeze_all(self):
        for pm in self.slots.values():
            pm.freeze()

    def unfreeze_all(self):
        for pm in self.slots.values():
            pm.unfreeze()

    def forward(self, image, drop_rate: float = 0.0, rng=None) -> Tensor:
        return forward(image, self, drop_rate=drop_rate, rng=rng)

    def copy(self) -> "ViTModel":
        slots = {}
        for key, pm in self.slots.items():
            w = Tensor(pm.w.data.copy(), requires_grad=pm.w.requires_grad)
            b = (
                Tensor(pm.b.data.copy(), requires_grad=pm.b.requires_grad)
                if pm.b is not None
                else None
            )
            slots[key] = ParamMatrix(key, w, b)
        return ViTModel(self.config, slots, dtype=self.dtype)


def init_model(config: ViTConfig, seed: int = 0, dtype=np.float32) -> ViTModel:
    """Seeded random backbone: weight matrices and embeddings are N(0, 0.02),
    biases and LayerNorm betas zero, LayerNorm gammas one, and the head zero."""
    rng = np.random.default_rng(seed)

    def mat(rows, cols):
        return Tensor(rng.normal(0.0, 0.02, (rows, cols)).astype(dtype), requires_grad=True)

    def vec(n, fill=0.0):
        return Tensor(np.full(n, fill, dtype=dtype), requires_grad=True)

    D, Dh, C = config.dim, config.hidden, config.classes
    slots: dict[str, ParamMatrix] = {}

    def add(key, w, b):
        slots[key] = ParamMatrix(key, w, b)

    add("patch_proj", mat(config.patch_dim, D), vec(D))
    add("cls_token", mat(1, D), None)
    add("pos_embed", mat(config.tokens + 1, D), None)
    for l in range(config.layers):
        add(f"l{l:02d}.ln1", vec(D, 1.0), vec(D))
        add(f"l{l:02d}.q", mat(D, D), vec(D))
        add(f"l{l:02d}.k", mat(D, D), vec(D))
        add(f"l{l:02d}.v", mat(D, D), vec(D))
        add(f"l{l:02d}.o", mat(D, D), vec(D))
        add(f"l{l:02d}.ln2", vec(D, 1.0), vec(D))
        add(f"l{l:02d}.fc1", mat(D, Dh), vec(Dh))
        add(f"l{l:02d}.fc2", mat(Dh, D), vec(D))
    add("final_ln", vec(D, 1.0), vec(D))
    add("head", Tensor(np.zeros((D, C), dtype=dtype), requires_grad=True), vec(C))
    return ViTModel(config, slots, dtype=dtype)


class ForwardHooks:
    """Plain backbone behaviour; fine-tuning methods override pieces."""

    def linear(self, key: str, x: Tensor, pm: ParamMatrix) -> Tensor:
        return matmul(x, pm.w, pm.b)

    def layer_norm(self, key: str, x: Tensor, pm: ParamMatrix) -> Tensor:
        return layer_norm(x, pm.w, pm.b)

    def after_block(self, key: str, y: Tensor) -> Tensor:
        """The output `y` of block `key`, `l03.mha` or `l03.ffn`."""
        return y

    def enter_layer(self, layer: int, x: Tensor) -> Tensor:
        return x


_PLAIN = ForwardHooks()


def extract_patches(image: np.ndarray, config: ViTConfig) -> np.ndarray:
    """Flatten the patch grid row-major; each patch row-major over (row, col, channel).

    Takes one `(H, W, C)` image or a stack `(..., H, W, C)` and returns
    `(..., tokens, patch_dim)`.
    """
    H, W, C, P = config.image_h, config.image_w, config.channels, config.patch
    image = np.asarray(image)
    if image.ndim < 3 or image.shape[-3:] != (H, W, C):
        raise ConfigError(f"image shape {image.shape} does not match config ({H},{W},{C})")
    lead = image.shape[:-3]
    patches = image.reshape(lead + (H // P, P, W // P, P, C)).swapaxes(-4, -3)
    return patches.reshape(lead + (config.tokens, config.patch_dim))


def patch_embed(image: np.ndarray, model: ViTModel, hooks: ForwardHooks = _PLAIN) -> Tensor:
    """Project patches, prepend the class token, add position embeddings.

    A stack of images gives `(..., T + 1, D)`; the class token and position
    embeddings are shared by every image.
    """
    config = model.config
    patches = Tensor(extract_patches(image, config).astype(model.dtype))
    projected = hooks.linear("patch_proj", patches, model.slot("patch_proj"))
    tokens = Tensor.concat_rows([model.slot("cls_token").w, projected])
    return tokens + model.slot("pos_embed").w


def mha(
    x: Tensor, model: ViTModel, layer: int, hooks: ForwardHooks = _PLAIN, rows: int | None = None
) -> Tensor:
    """Multi-head attention over fused q/k/v/o projections.

    Head h is column block h of the fused D x D matrices, so slot-level
    wrappers apply to a whole logical matrix at once.  The q, k and v
    projections go through `hooks.linear`; `autodiff.attention` runs all
    heads on them as one tape node, and the o projection maps the
    concatenated heads back.  `x` is one (T, D) token matrix or a batch
    (B, T, D).  T is read from `x`, so prompt rows that a hook added are
    attended like any other token.  With `rows`, only the first `rows`
    tokens query: k and v still project all T rows, and the output is
    (..., rows, D).
    """
    prefix = f"l{layer:02d}."
    queries = x if rows is None else x.slice_rows(0, rows)
    q = hooks.linear(prefix + "q", queries, model.slot(prefix + "q"))
    k = hooks.linear(prefix + "k", x, model.slot(prefix + "k"))
    v = hooks.linear(prefix + "v", x, model.slot(prefix + "v"))
    concat = attention(q, k, v, model.config.heads)
    return hooks.linear(prefix + "o", concat, model.slot(prefix + "o"))


def ffn(
    x: Tensor,
    model: ViTModel,
    layer: int,
    hooks: ForwardHooks = _PLAIN,
    drop_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    h = gelu(hooks.linear(f"l{layer:02d}.fc1", x, model.slot(f"l{layer:02d}.fc1")))
    h = dropout(h, drop_rate, rng)
    return hooks.linear(f"l{layer:02d}.fc2", h, model.slot(f"l{layer:02d}.fc2"))


def encoder_layer(
    x: Tensor,
    model: ViTModel,
    layer: int,
    hooks: ForwardHooks = _PLAIN,
    drop_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    rows: int | None = None,
) -> Tensor:
    """One pre-norm block; with `rows`, it returns only the first `rows` token
    rows, which attend to every row (see `mha`)."""
    x = hooks.enter_layer(layer, x)
    normed = hooks.layer_norm(f"l{layer:02d}.ln1", x, model.slot(f"l{layer:02d}.ln1"))
    attn = mha(normed, model, layer, hooks, rows)
    attn = hooks.after_block(f"l{layer:02d}.mha", attn)
    attn = dropout(attn, drop_rate, rng)
    if rows is not None:
        x = x.slice_rows(0, rows)
    x = attn + x
    normed = hooks.layer_norm(f"l{layer:02d}.ln2", x, model.slot(f"l{layer:02d}.ln2"))
    out = ffn(normed, model, layer, hooks, drop_rate=drop_rate, rng=rng)
    out = hooks.after_block(f"l{layer:02d}.ffn", out)
    return out + x


def forward(
    image: np.ndarray,
    model: ViTModel,
    hooks: ForwardHooks = _PLAIN,
    drop_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Full forward pass of one `(H, W, C)` image or a batch `(B, H, W, C)`.

    Returns logits `(classes,)` for one image and `(B, classes)` for a
    batch.  A batch is one graph, so each weight (and each adapted weight a
    hook builds) enters it once, and dropout draws one mask per batched
    activation.  The head reads only the class token, so the last layer
    runs with `rows = 1` (see `mha`).  Its dropout masks cover only the
    class-token rows, so a seeded run with `drop_rate > 0` draws a
    different random stream than an all-rows last layer would, from the
    same distribution.
    """
    x = patch_embed(image, model, hooks)
    last = model.config.layers - 1
    for l in range(model.config.layers):
        x = encoder_layer(x, model, l, hooks, drop_rate=drop_rate, rng=rng,
                          rows=1 if l == last else None)
    cls = hooks.layer_norm("final_ln", x, model.slot("final_ln"))
    logits = hooks.linear("head", cls, model.slot("head"))
    return logits.reshape(*x.shape[:-2], model.config.classes)
