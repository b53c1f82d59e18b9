"""Dense tensors with reverse-mode automatic differentiation.

Small numpy-backed tape: every differentiable op records its parents and a
local backward rule on the result node.  One backward pass per forward
graph; the graph is released afterwards so a tape cannot be replayed.
At these shapes the cost is per node, not per flop, so the encoder's
compound steps are single nodes with closed-form backwards: a linear map
(`matmul`), multi-head attention (`attention`) and a LayerNorm
(`layer_norm`).  `matmul` takes the bias, an optional pair of low-rank
factors that adapt its weight (`adapted_weight`), and an optional SSF scale
and shift, whose rule is written once (`_scale_shift`) and shared with
`layer_norm`; so every weight slot, plain or adapted, is one node.
Inside `no_grad()` nothing is recorded, so inference builds no tape, and
each adapted weight is built once per block.

Precision is per-tensor (float32 for training, float64 for verification);
mixing dtypes in one op is an error so verification runs stay pure doubles.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "GradientError",
    "no_grad",
    "matmul",
    "adapted_weight",
    "attention",
    "layer_norm",
    "gelu",
    "dropout",
    "cross_entropy_logits",
    "gradients",
    "zero_grads",
    "finite_diff_check",
    "FiniteDiffReport",
]

_DTYPES = {np.float32, np.float64}

# None in grad mode.  Inside `no_grad`, the adapted weights built so far in
# the outermost block (see `matmul`).
_block_weights: dict | None = None


@contextmanager
def no_grad():
    """Build no tape inside the block: op outputs get no parents, no backward
    rule and `requires_grad = False`.

    The outermost block also opens an empty map of adapted weights, so a
    `matmul` with factors builds its `W'` once per block.  While the map lives,
    the `W`, `left` and `right` arrays behind a stored `W'` are read-only, so
    an in-place write to one raises numpy's `ValueError` instead of leaving
    a stale `W'`.  Exiting the outermost block, also when it raises, drops
    the map and makes writeable again exactly the arrays it made read-only.
    A nested block shares the outer map and its exit keeps it.
    """
    global _block_weights
    if _block_weights is not None:
        yield
        return
    _block_weights = {}
    try:
        yield
    finally:
        entries, _block_weights = _block_weights, None
        frozen = [a for _, _, made_read_only in entries.values() for a in made_read_only]
        # an array before its views: numpy refuses a writeable view of a read-only base
        for a in sorted(frozen, key=lambda a: a.base is not None):
            a.flags.writeable = True


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class GradientError(RuntimeError):
    """Raised on backward-pass contract violations (non-scalar loss, reused tape)."""


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, inverting numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _tape_released(grad):
    raise GradientError("backward already ran on this graph; rebuild the forward pass")


class Tensor:
    """Dense row-major array node in an autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.type not in _DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def numel(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"

    # -- graph plumbing ------------------------------------------------

    def _make(self, data: np.ndarray, parents: tuple, backward) -> "Tensor":
        out = Tensor(data)
        if _block_weights is None and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    @staticmethod
    def _coerce(other, dtype) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=dtype))

    def _check_dtype(self, other: "Tensor"):
        if self.dtype != other.dtype:
            raise ShapeError(
                f"mixed precision operands: {self.dtype.name} vs {other.dtype.name}"
            )

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other, self.dtype)
        self._check_dtype(other)
        data = self.data + other.data

        def backward(grad):
            return (_unbroadcast(grad, self.shape), _unbroadcast(grad, other.shape))

        return self._make(data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other, self.dtype)
        self._check_dtype(other)
        data = self.data * other.data

        def backward(grad):
            return (
                _unbroadcast(grad * other.data, self.shape),
                _unbroadcast(grad * self.data, other.shape),
            )

        return self._make(data, (self, other), backward)

    __rmul__ = __mul__

    # -- shape ops -----------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        old = self.shape
        data = self.data.reshape(*shape)

        def backward(grad):
            return (grad.reshape(old),)

        return self._make(data, (self,), backward)

    def slice_rows(self, start: int, stop: int) -> "Tensor":
        """Rows start:stop of the token axis (-2), for any leading stack."""
        data = self.data[..., start:stop, :]

        def backward(grad):
            full = np.zeros_like(self.data)
            full[..., start:stop, :] = grad
            return (full,)

        return self._make(data, (self,), backward)

    @staticmethod
    def concat_rows(parts: list["Tensor"]) -> "Tensor":
        """Join parts along the token axis (-2).

        A part with fewer leading axes than the widest one (a class token or
        prompt rows next to a batch) is broadcast over them, and its gradient
        is summed back.
        """
        if not parts:
            raise ShapeError("concat_rows of empty list")
        arrays = [p.data for p in parts]
        lead = max([a.shape for a in arrays], key=len)[:-2]
        data = np.concatenate(
            [a if a.ndim == len(lead) + 2 else np.broadcast_to(a, lead + a.shape[-2:])
             for a in arrays],
            axis=-2,
        )
        splits = np.cumsum([a.shape[-2] for a in arrays])[:-1]

        def backward(grad):
            return tuple(
                _unbroadcast(g, p.shape) for g, p in zip(np.split(grad, splits, axis=-2), parts)
            )

        return parts[0]._make(data, tuple(parts), backward)

    # -- reductions ----------------------------------------------------

    def sum(self) -> "Tensor":
        def backward(grad):
            return (np.full_like(self.data, grad),)

        return self._make(np.asarray(self.data.sum(), dtype=self.dtype), (self,), backward)

    # -- backward pass -------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode pass from a scalar; fills .grad on every reachable leaf.

        The recorded graph is released afterwards, so a second call on the
        same forward pass raises.
        """
        if self.data.size != 1:
            raise GradientError(f"backward requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise GradientError(
                "loss does not depend on any trainable tensor (or was built under no_grad)"
            )
        if self._backward is None and self._parents == ():
            # scalar leaf: gradient of itself
            self.grad = np.ones_like(self.data)
            return

        topo: list[Tensor] = []
        seen = set()

        def visit(node: Tensor):
            stack = [(node, False)]
            while stack:
                cur, expanded = stack.pop()
                if expanded:
                    topo.append(cur)
                    continue
                if id(cur) in seen:
                    continue
                seen.add(id(cur))
                stack.append((cur, True))
                for p in cur._parents:
                    if p.requires_grad and id(p) not in seen:
                        stack.append((p, False))

        visit(self)

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data).reshape(self.data.shape)}
        for node in reversed(topo):
            grad = grads.pop(id(node), None)
            if grad is None:
                continue
            if node._backward is None:
                node.grad = grad if node.grad is None else node.grad + grad
                continue
            parent_grads = node._backward(grad)
            for parent, pg in zip(node._parents, parent_grads):
                if not parent.requires_grad or pg is None:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg.copy() if pg.base is not None else pg
        # clear the tape: one backward per forward
        for node in topo:
            if node._parents:
                node._parents = ()
                node._backward = _tape_released


# -- free-function primitives ------------------------------------------


def matmul(
    x: Tensor,
    w: Tensor,
    b: Tensor | None = None,
    scale_shift: tuple[Tensor | None, Tensor] | None = None,
    factors: tuple[Tensor, Tensor] | None = None,
    residual: bool = True,
) -> Tensor:
    """The linear map `x W'`, then `+ b` and `* s + f` where given, as one tape node.

    `x` is `(..., m, k)` rows and `W` one 2-D matrix `(k, n)`, with no
    broadcasting: a stack runs as one product over the flattened rows, and so
    does the weight gradient, which sums over the stack.  `W'` is `W`, or,
    with `factors = (left, right)` of shapes `(k, r)` and `(r, n)`,
    `adapted_weight(W, left, right, residual)`: built once per call, or once
    per `no_grad` block for the same arrays and `residual`.  `b`, `s` and `f`
    must broadcast into the `(..., n)` product; `(None, f)` is a shift with
    no scale.  The steps run in the order of the separate ops, so the node
    equals `(matmul(x, W') + b) * s + f` bitwise.
    """
    if x.data.ndim < 2 or w.data.ndim != 2:
        raise ShapeError(
            f"matmul needs (..., m, k) rows and a 2-D matrix, got {x.shape} and {w.shape}"
        )
    k, n = w.shape
    if x.shape[-1] != k:
        raise ShapeError(f"matmul inner extents differ: {x.shape} x {w.shape}")
    parents = (x, w) + ((b,) if b is not None else ()) + (factors or ())
    if scale_shift is not None:
        parents += scale_shift if scale_shift[0] is not None else scale_shift[1:]
    for t in parents[1:]:
        x._check_dtype(t)
    weight, weight_grad = w.data, w.requires_grad
    if factors is not None:
        left, right = factors
        if left.shape[0] != k or right.shape[1] != n or left.shape[1] != right.shape[0]:
            raise ShapeError(f"factors {left.shape} @ {right.shape} do not fit W {w.shape}")
        build = adapted_weight if _block_weights is None else _block_weight
        weight = build(weight, left.data, right.data, residual)
        weight_grad = weight_grad or left.requires_grad or right.requires_grad
    rows = x.data.reshape(-1, k)
    data = (rows @ weight).reshape(x.shape[:-1] + (n,))
    try:
        if b is not None:
            data += b.data
        if scale_shift is not None:
            y, data = data, _scale_shift(data, scale_shift)
    except ValueError as err:  # in place, so an operand wider than the product cannot fit
        raise ShapeError(f"bias, scale or shift does not fit the matmul output {data.shape}: "
                         f"{err}") from None

    def backward(grad):
        grads = ()
        if scale_shift is not None:
            grad, grads = _scale_shift_backward(grad, y, scale_shift)
        flat = grad.reshape(-1, n)
        gw = rows.T @ flat if weight_grad else None
        if factors is not None:
            gw, gleft, gright = _adapted_weight_backward(gw, w, left, right, residual)
            grads = (gleft, gright) + grads
        if b is not None:
            grads = (_unbroadcast(grad, b.shape) if b.requires_grad else None,) + grads
        gx = (flat @ weight.T).reshape(x.shape) if x.requires_grad else None
        return (gx, gw) + grads

    return x._make(data, parents, backward)


def _scale_shift(y: np.ndarray, scale_shift: tuple[Tensor | None, Tensor]) -> np.ndarray:
    """The SSF epilogue `y s + f` (Lian et al. 2022) of a fused node's output.

    Without a scale the shift is added into `y` in place.  The result has
    `y`'s shape: a scale or shift that broadcasts wider raises numpy's
    `ValueError`, which each caller reports as a `ShapeError`.
    """
    s, f = scale_shift
    if s is None:
        y += f.data
        return y
    out = np.multiply(y, s.data, out=np.empty_like(y))
    out += f.data
    return out


def _scale_shift_backward(grad: np.ndarray, y: np.ndarray, scale_shift: tuple):
    """The gradient `_scale_shift` passes back to `y`, and those of its `s` (if any) and `f`."""
    s, f = scale_shift
    gf = _unbroadcast(grad, f.shape)
    if s is None:
        return grad, (gf,)
    return grad * s.data, (_unbroadcast(grad * y, s.shape), gf)


def _factor_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    # rank 1: the broadcast outer product equals the k = 1 GEMM value for value
    # (only a zero's sign can differ) and, on a 2-core x86 VM, costs 5-19 µs
    # against the GEMM's 15 µs at 64×64 and 52-57 µs at 64×256 or 256×64
    # (k = 2-8 GEMMs take 2-4 µs)
    return left * right if left.shape[1] == 1 else left @ right


def adapted_weight(
    w: np.ndarray, left: np.ndarray, right: np.ndarray, residual: bool = True
) -> np.ndarray:
    """`W' = W + (left @ right) ⊙ W`, or `W + left @ right` without the
    residual, on plain arrays, as a new array."""
    out = _factor_product(left, right)
    if residual:
        out *= w
    out += w  # in place: the same sum as W + ΔW, one temporary fewer
    return out


def _adapted_weight_backward(g, w: Tensor, left: Tensor, right: Tensor, residual: bool):
    """The gradients `adapted_weight` passes to `W`, `left` and `right` from `g`,
    the gradient of `W'`, which is None when none of them requires grad."""
    if g is None:
        return None, None, None
    gprod = g * w.data if residual else g
    gw = None
    if w.requires_grad:
        gw = g + g * _factor_product(left.data, right.data) if residual else g
    gleft = gprod @ right.data.T if left.requires_grad else None
    gright = left.data.T @ gprod if right.requires_grad else None
    return gw, gleft, gright


def _block_weight(w: np.ndarray, left: np.ndarray, right: np.ndarray, residual: bool):
    """`adapted_weight` built once per `no_grad` block.

    The entry holds the three arrays, so their ids cannot be reused while the
    map lives, and it makes them read-only, so they cannot change under it.
    """
    key = (id(w), id(left), id(right), residual)
    entry = _block_weights.get(key)
    if entry is None:
        inputs = (w, left, right)
        made_read_only = [a for a in inputs if a.flags.writeable]
        entry = (adapted_weight(w, left, right, residual), inputs, made_read_only)
        for a in made_read_only:
            a.flags.writeable = False
        _block_weights[key] = entry
    return entry[0]


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one tape node.

    `q`, `k` and `v` are `(..., T, D)` projections; head h is column block h
    of width `D / heads`.  Returns the heads' outputs concatenated back to
    `(..., T, D)`.  The forward splits the heads into `(..., H, T, Dh)`
    stacks (`k` as `(..., H, Dh, T)`), takes the stacked `q k` product times
    `1 / sqrt(Dh)`, a max-subtracted row softmax, and its product with `v`.
    The backward is the chain rule of those steps written out, with the
    softmax kept from the forward, as in the FlashAttention backward (Dao et
    al. 2022) without the tiling.
    """
    shape = q.shape
    if k.shape != shape or v.shape != shape or len(shape) < 2:
        raise ShapeError(f"attention needs equal (..., T, D) operands, got {q.shape}, "
                         f"{k.shape}, {v.shape}")
    if heads < 1 or shape[-1] % heads:
        raise ShapeError(f"{heads} heads do not divide width {shape[-1]}")
    q._check_dtype(k)
    q._check_dtype(v)
    split = shape[:-1] + (heads, shape[-1] // heads)
    qh = q.data.reshape(split).swapaxes(-3, -2)
    kh = np.moveaxis(k.data.reshape(split), -3, -1)
    vh = v.data.reshape(split).swapaxes(-3, -2)
    c = np.asarray(1.0 / math.sqrt(split[-1]), dtype=q.dtype)
    scores = (qh @ kh) * c
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    data = (probs @ vh).swapaxes(-3, -2).reshape(shape)

    def backward(grad):
        gout = grad.reshape(split).swapaxes(-3, -2)
        gq = gk = gv = None
        if q.requires_grad or k.requires_grad:
            gprobs = gout @ vh.swapaxes(-1, -2)
            gscores = probs * (gprobs - (gprobs * probs).sum(axis=-1, keepdims=True)) * c
            if q.requires_grad:
                gq = (gscores @ kh.swapaxes(-1, -2)).swapaxes(-3, -2).reshape(shape)
            if k.requires_grad:
                gk = np.moveaxis(qh.swapaxes(-1, -2) @ gscores, -1, -3).reshape(shape)
        if v.requires_grad:
            gv = (probs.swapaxes(-1, -2) @ gout).swapaxes(-3, -2).reshape(shape)
        return (gq, gk, gv)

    return q._make(data, (q, k, v), backward)


LN_EPS = 1e-6


def layer_norm(
    x: Tensor, gamma: Tensor, beta: Tensor, scale_shift: tuple[Tensor, Tensor] | None = None
) -> Tensor:
    """Per-row standardization followed by an affine map, `x̂ γ + β`, as one
    tape node.

    With a `(s, f)` pair the node computes `(x̂ γ + β) s + f`: the SSF
    rescaling of a LayerNorm slot.  A constant row maps to beta (or `β s + f`):
    LN_EPS keeps the variance denominator finite.
    """
    if x.shape[-1] < 2:
        raise ShapeError(f"layer_norm needs feature dimension >= 2, got {x.shape}")
    parents = (x, gamma, beta) + (scale_shift or ())
    for t in parents[1:]:
        x._check_dtype(t)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    data = xhat * gamma.data + beta.data
    if data.shape != x.shape:
        raise ShapeError(f"gamma {gamma.shape} or beta {beta.shape} does not fit the "
                         f"layer_norm input {x.shape}")
    if scale_shift is not None:
        try:
            normed, data = data, _scale_shift(data, scale_shift)
        except ValueError as err:
            raise ShapeError(f"scale or shift does not fit the layer_norm output "
                             f"{data.shape}: {err}") from None

    def backward(grad):
        n = x.shape[-1]
        grads = ()
        if scale_shift is not None:
            grad, grads = _scale_shift_backward(grad, normed, scale_shift)
        gg = grad * gamma.data
        dxhat_sum = gg.sum(axis=-1, keepdims=True)
        dxhat_dot = (gg * xhat).sum(axis=-1, keepdims=True)
        dx = inv * (gg - dxhat_sum / n - xhat * dxhat_dot / n)
        dgamma = _unbroadcast(grad * xhat, gamma.shape)
        dbeta = _unbroadcast(grad, beta.shape)
        return (dx, dgamma, dbeta) + grads

    return x._make(data, parents, backward)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

try:  # vectorized erf without a scipy hard dependency
    from scipy.special import erf as _erf
except ImportError:  # pragma: no cover
    _erf = np.vectorize(math.erf)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU: x * Phi(x)."""
    phi = (0.5 * (1.0 + _erf(x.data * _INV_SQRT2))).astype(x.dtype)
    data = x.data * phi

    def backward(grad):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        return (grad * (phi + x.data * pdf),)

    return x._make(data, (x,), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; call only at train time."""
    if rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep

    def backward(grad):
        return (grad * mask,)

    return x._make(x.data * mask, (x,), backward)


def cross_entropy_logits(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy of `(B, C)` logit rows against `(B,)` integer labels.

    One `(C,)` row with an int label is the B = 1 case.
    """
    rows = logits.data.reshape(-1, logits.shape[-1])
    labels = np.asarray(labels).reshape(-1)
    if labels.shape[0] != rows.shape[0]:
        raise ShapeError(f"{labels.shape[0]} labels for {rows.shape[0]} logit rows")
    picked = (np.arange(rows.shape[0]), labels)
    m = rows.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(rows - m).sum(axis=1, keepdims=True))
    data = np.asarray((lse[:, 0] - rows[picked]).mean(), dtype=logits.dtype)
    probs = np.exp(rows - lse)

    def backward(grad):
        g = probs.copy()
        g[picked] -= 1.0
        return ((g * (grad / rows.shape[0])).reshape(logits.shape).astype(logits.dtype),)

    return logits._make(data, (logits,), backward)


def gradients(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Run backward and collect gradients for a named parameter set.

    Parameters the loss does not depend on get zero gradients.
    """
    loss.backward()
    out = {}
    for name, p in params.items():
        out[name] = p.grad if p.grad is not None else np.zeros_like(p.data)
    return out


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


# -- finite-difference verification ------------------------------------


class FiniteDiffReport:
    """Per-parameter comparison of analytic vs central-difference gradients."""

    def __init__(self, tol: float):
        self.tol = tol
        self.entries: dict[str, dict] = {}

    def add(self, name: str, max_rel_err: float, max_abs_err: float, worst_index: tuple):
        self.entries[name] = {
            "max_rel_err": max_rel_err,
            "max_abs_err": max_abs_err,
            "worst_index": worst_index,
        }

    @property
    def max_rel_err(self) -> float:
        if not self.entries:
            return 0.0
        return max(e["max_rel_err"] for e in self.entries.values())

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol

    def __repr__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"FiniteDiffReport({status}, max_rel_err={self.max_rel_err:.3e}, tol={self.tol:g})"


def finite_diff_check(
    f, params: dict[str, Tensor], h: float = 1e-5, tol: float = 1e-4
) -> FiniteDiffReport:
    """Compare analytic gradients of scalar `f()` against central differences.

    `f` must rebuild its forward graph from the live values in `params` on
    every call.  Frozen tensors (requires_grad False) are skipped.  Run at
    float64 for meaningful tolerances.
    """
    if not (1e-6 <= h <= 1e-3):
        raise ValueError(f"step h={h} outside the supported [1e-6, 1e-3] range")
    active = {k: p for k, p in params.items() if p.requires_grad}
    zero_grads(active)
    loss = f()
    analytic = gradients(loss, active)

    report = FiniteDiffReport(tol)
    for name, p in active.items():
        ana = analytic[name]
        num = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        nflat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = f().item()
            flat[i] = orig - h
            lo = f().item()
            flat[i] = orig
            nflat[i] = (hi - lo) / (2.0 * h)
        denom = np.maximum(np.abs(ana) + np.abs(num), 1e-8)
        rel = np.abs(ana - num) / denom
        idx = np.unravel_index(int(np.argmax(rel)), rel.shape) if rel.size else ()
        report.add(
            name,
            float(rel.max()) if rel.size else 0.0,
            float(np.abs(ana - num).max()) if rel.size else 0.0,
            idx,
        )
    return report
