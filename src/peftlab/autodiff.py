"""Dense tensors with reverse-mode automatic differentiation.

Small numpy-backed tape: every differentiable op records its parents and a
local backward rule on the result node.  One backward pass per forward
graph; the graph is released afterwards so a tape cannot be replayed.
`Tensor.backward` runs the interior nodes in reverse post-order, each
node's parents taken last-first.  An interior gradient accumulates on its
node's `.grad` until the node passes it on; only a leaf's `.grad` outlives
the pass, in memory of its own (a view is copied there and nowhere else).
At these shapes the cost is per node, not per flop, so the encoder's
compound steps are single nodes with closed-form backwards: a linear map
(`matmul`), multi-head attention (`attention`) and a LayerNorm
(`layer_norm`).  `matmul` takes the bias, an optional pair of low-rank
factors that adapt its weight (`adapted_weight`), and an optional SSF scale
and shift, whose rule is written once (`_scale_shift`) and shared with
`layer_norm`; so every weight slot, plain or adapted, is one node.
Inside `no_grad()` nothing is recorded, so inference builds no tape, and
`once_per_block` keeps one value per owner for the outermost block: an
attached model's merged backbone (`peft.PeftModel.forward`), so inference
merges once per block and then runs the plain forward.

Precision is per-tensor (float32 for training, float64 for verification);
mixing dtypes in one op is an error so verification runs stay pure doubles.
Every operand of an op is a `Tensor`, and any other value is a `TypeError`:
the binary ops `+` and `*` take two tensors, so a constant operand is
wrapped in a `Tensor` of the other operand's dtype by the caller.
`gelu`'s Gaussian CDF uses the exact erf (scipy's, or `math.erf` without
scipy) in float64, and in float32 a rational kernel within 5e-7 of it.
A constant inside an op is a cached read-only 0-d array of the op's dtype
(`_scalar`), equal to the value NEP 50 rounds a Python scalar operand to,
so numpy skips its per-call handling of a Python scalar.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "GradientError",
    "no_grad",
    "once_per_block",
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

# None in grad mode.  Inside `no_grad`, the outermost block's map from an
# owner's id to `(value, owner, arrays made read-only)` (see `once_per_block`).
_block_values: dict | None = None


@contextmanager
def no_grad():
    """Build no tape inside the block: op outputs get no parents, no backward
    rule and `requires_grad = False`.

    The outermost block also opens an empty map for `once_per_block`, so an
    attached model merges its backbone once per block.  Exiting the
    outermost block, also when it raises, drops the map and makes writeable
    again exactly the arrays its entries made read-only.  A nested block
    shares the outer map and its exit keeps it.
    """
    global _block_values
    if _block_values is not None:
        yield
        return
    _block_values = {}
    try:
        yield
    finally:
        entries, _block_values = _block_values, None
        frozen = [a for _, _, made_read_only in entries.values() for a in made_read_only]
        # an array before its views: numpy refuses a writeable view of a read-only base
        for a in sorted(frozen, key=lambda a: a.base is not None):
            a.flags.writeable = True


def once_per_block(owner, build):
    """None in grad mode.  Inside `no_grad`, `build(owner)`'s value, built
    once per outermost block for this `owner`.

    `build` returns `(value, arrays)`, where `arrays` are the arrays the
    value was built from.  While the block lives they are read-only, so an
    in-place write to one raises numpy's `ValueError` instead of leaving a
    stale value, and the entry holds `owner`, so its id is not reused.  A
    tensor whose `.data` is rebound to a new array inside the block is not
    seen until the next block.
    """
    if _block_values is None:
        return None
    entry = _block_values.get(id(owner))
    if entry is None:
        value, arrays = build(owner)
        made_read_only = [a for a in arrays if a.flags.writeable]
        for a in made_read_only:
            a.flags.writeable = False
        entry = _block_values[id(owner)] = (value, owner, made_read_only)
    return entry[0]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class GradientError(RuntimeError):
    """Raised on backward-pass contract violations (non-scalar loss, reused tape)."""


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, inverting numpy broadcasting.

    The reductions are `np.add.reduce`, what `ndarray.sum` calls, without its
    Python wrapper.
    """
    while grad.ndim > len(shape):
        grad = np.add.reduce(grad, axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = np.add.reduce(grad, axis=axis, keepdims=True)
    return grad


def _check_dtype(op: str, operands: tuple) -> np.dtype:
    """The one dtype of `op`'s `operands`.

    An operand that is not a `Tensor` raises `TypeError`, and two dtypes
    raise `ShapeError`.
    """
    try:
        dtype = operands[0].data.dtype
        for t in operands[1:]:
            if t.data.dtype != dtype:
                raise ShapeError(f"mixed precision operands: {dtype.name} vs {t.data.dtype.name}")
    except AttributeError:
        kinds = ", ".join(type(t).__name__ for t in operands)
        raise TypeError(f"{op}: operands must be Tensors, got {kinds}") from None
    return dtype


@functools.cache
def _scalar(value: float, dtype) -> np.ndarray:
    """`value` as a read-only 0-d array of `dtype`, one object per pair.

    An op with it gives bitwise what the op with the Python scalar gives:
    NEP 50 rounds that scalar to the array operand's dtype too.  The 0-d
    array skips that per-call conversion (on a (5, 1) float32 array, `a / 64`
    takes 1.1 µs and `a / _scalar(64, dtype)` 0.5 µs, 2-core x86 VM).  The
    cache compares values, so -0.0 would get 0.0's array: pass no signed zero.
    """
    out = np.array(value, dtype=dtype)
    out.flags.writeable = False
    return out


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
        # `data` is already of the operands' dtype, so `__init__`'s coercion is
        # skipped; only a 0-d op's numpy scalar is made an array again
        out = Tensor.__new__(Tensor)
        out.data = data if type(data) is np.ndarray else np.asarray(data)
        out.grad = None
        if _block_values is None:
            for p in parents:
                if p.requires_grad:
                    out.requires_grad, out._parents, out._backward = True, parents, backward
                    return out
        out.requires_grad, out._parents, out._backward = False, (), None
        return out

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Tensor"):
        _check_dtype("+", (self, other))
        data = self.data + other.data

        def backward(grad):
            return (_unbroadcast(grad, self.shape), _unbroadcast(grad, other.shape))

        return self._make(data, (self, other), backward)

    def __mul__(self, other: "Tensor"):
        _check_dtype("*", (self, other))
        data = self.data * other.data

        def backward(grad):
            return (
                _unbroadcast(grad * other.data, self.shape),
                _unbroadcast(grad * self.data, other.shape),
            )

        return self._make(data, (self, other), backward)

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

        def backward(grad):
            splits = np.cumsum([a.shape[-2] for a in arrays])[:-1]
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
        """Reverse-mode pass from a scalar; adds this pass's gradient to the
        .grad of every reachable leaf that requires grad.

        The interior nodes run in reverse post-order of one depth-first
        search that takes each node's parents last-first, so a node passes
        its gradient on after all of its consumers have, and each gradient
        sums its parts in the order its consumers run.  An interior node's
        gradient accumulates on its `.grad`, which is cleared, and its tape
        released, when the node passes it on: a second call on the same
        forward pass raises.  A leaf's parts are summed apart; its `.grad`
        becomes an array equal to its value before the pass (if any) plus
        that sum, in memory of its own (a part that is a view is copied).
        """
        if self.data.size != 1:
            raise GradientError(f"backward requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise GradientError(
                "loss does not depend on any trainable tensor (or was built under no_grad)"
            )
        leaves: dict[Tensor, np.ndarray] = {}  # this pass's sum for each leaf
        order: list[Tensor] = []
        if self._backward is None:  # a leaf that is its own loss
            leaves[self] = np.ones_like(self.data)
        else:
            self.grad = np.ones_like(self.data)
            seen = {self}
            stack = [(self, reversed(self._parents))]
            while stack:
                node, parents = stack[-1]
                for p in parents:
                    if p.requires_grad and p._backward is not None and p not in seen:
                        seen.add(p)
                        stack.append((p, reversed(p._parents)))
                        break
                else:
                    order.append(stack.pop()[0])
        for node in reversed(order):
            grad, parents, backward = node.grad, node._parents, node._backward
            node.grad, node._parents, node._backward = None, (), _tape_released
            if grad is None:
                continue
            for p, pg in zip(parents, backward(grad)):
                if pg is None or not p.requires_grad:
                    continue
                if p._backward is None:
                    total = leaves.get(p)
                    leaves[p] = pg if total is None else total + pg
                else:
                    p.grad = pg if p.grad is None else p.grad + pg
        for leaf, total in leaves.items():
            if leaf.grad is not None:
                total = leaf.grad + total
            # a sum of 0-d arrays is a numpy scalar; .grad stays an array
            total = np.asarray(total)
            leaf.grad = total.copy() if total.base is not None else total


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
    `adapted_weight(W, left, right, residual)`, built on every call; an
    attached model runs this path in grad mode only, since under `no_grad`
    it forwards its merged backbone instead.  `b`, `s` and `f`
    must broadcast into the `(..., n)` product; `(None, f)` is a shift with
    no scale.  The steps run in the order of the separate ops, so the node
    equals `(matmul(x, W') + b) * s + f` bitwise.
    """
    parents = (x, w) + ((b,) if b is not None else ()) + (factors or ())
    if scale_shift is not None:
        parents += scale_shift if scale_shift[0] is not None else scale_shift[1:]
    _check_dtype("matmul", parents)
    xd, weight, weight_grad = x.data, w.data, w.requires_grad
    shape = xd.shape
    if xd.ndim < 2 or weight.ndim != 2:
        raise ShapeError(
            f"matmul needs (..., m, k) rows and a 2-D matrix, got {shape} and {weight.shape}"
        )
    k, n = weight.shape
    if shape[-1] != k:
        raise ShapeError(f"matmul inner extents differ: {shape} x {weight.shape}")
    if factors is not None:
        left, right = factors
        if left.shape[0] != k or right.shape[1] != n or left.shape[1] != right.shape[0]:
            raise ShapeError(f"factors {left.shape} @ {right.shape} do not fit W {w.shape}")
        weight = adapted_weight(weight, left.data, right.data, residual)
        weight_grad = weight_grad or left.requires_grad or right.requires_grad
    # one image's rows, or the head's class-token row, are already the 2-D operand
    stack = xd.ndim > 2
    rows = xd.reshape(-1, k) if stack else xd
    data = rows @ weight
    if stack:
        data = data.reshape(shape[:-1] + (n,))
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
            upstream = x.requires_grad or weight_grad or (b is not None and b.requires_grad)
            grad, grads = _scale_shift_backward(grad, y, scale_shift, upstream)
            if grad is None:
                return (None,) * (len(parents) - len(grads)) + grads
        flat = grad.reshape(-1, n) if stack else grad
        gw = rows.T @ flat if weight_grad else None
        if factors is not None:
            gw, gleft, gright = _adapted_weight_backward(gw, w, left, right, residual)
            grads = (gleft, gright) + grads
        if b is not None:
            grads = (_unbroadcast(grad, b.shape) if b.requires_grad else None,) + grads
        gx = None
        if x.requires_grad:
            gx = flat @ weight.T
            if stack:
                gx = gx.reshape(shape)
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


def _scale_shift_backward(grad: np.ndarray, y: np.ndarray, scale_shift: tuple, upstream: bool):
    """The gradient `_scale_shift` passes back to `y`, and those of its `s` (if any) and `f`.

    The first is None when nothing `upstream` of `y` requires grad: the node
    would drop it.
    """
    s, f = scale_shift
    gf = _unbroadcast(grad, f.shape)
    if s is None:
        return grad, (gf,)
    return (grad * s.data if upstream else None), (_unbroadcast(grad * y, s.shape), gf)


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


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one tape node.

    `k` and `v` are `(..., T, D)` projections and `q` a `(..., Tq, D)` one
    with the same leading axes and width; `Tq` may be below `T`, so only the
    query rows a caller reads are computed.  Head h is column block h of
    width `D / heads`.  Returns the heads' outputs concatenated back to `q`'s
    shape.  The forward splits the heads into `(..., H, Tq, Dh)` stacks
    (`k` as `(..., H, Dh, T)`), takes the stacked `q k` product times
    `1 / sqrt(Dh)`, a max-subtracted row softmax, and its product with `v`.
    The backward is the chain rule of those steps written out, with the
    softmax kept from the forward, as in the FlashAttention backward (Dao et
    al. 2022) without the tiling.
    """
    dtype = _check_dtype("attention", (q, k, v))
    qd, kd, vd = q.data, k.data, v.data
    shape, kv = qd.shape, kd.shape
    if (len(shape) < 2 or len(kv) != len(shape) or vd.shape != kv or shape[:-2] != kv[:-2]
            or shape[-1] != kv[-1]):
        raise ShapeError(f"attention needs (..., Tq, D) q and equal (..., T, D) k and v, got "
                         f"{shape}, {kv}, {vd.shape}")
    if heads < 1 or shape[-1] % heads:
        raise ShapeError(f"{heads} heads do not divide width {shape[-1]}")
    split = (heads, shape[-1] // heads)
    qh = qd.reshape(shape[:-1] + split).swapaxes(-3, -2)
    kh = kd.reshape(kv[:-1] + split).swapaxes(-3, -2).swapaxes(-2, -1)
    vh = vd.reshape(kv[:-1] + split).swapaxes(-3, -2)
    # the softmax in place in the scores; the ufunc reductions are what
    # ndarray.max and ndarray.sum call, without their Python wrappers
    c = _scalar(1.0 / math.sqrt(split[-1]), dtype)
    probs = qh @ kh
    probs *= c
    probs -= np.maximum.reduce(probs, axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)
    data = (probs @ vh).swapaxes(-3, -2).reshape(shape)

    def backward(grad):
        gout = grad.reshape(shape[:-1] + split).swapaxes(-3, -2)
        gq = gk = gv = None
        if q.requires_grad or k.requires_grad:
            gprobs = gout @ vh.swapaxes(-1, -2)
            gscores = probs * (gprobs - np.add.reduce(gprobs * probs, axis=-1, keepdims=True)) * c
            if q.requires_grad:
                gq = (gscores @ kh.swapaxes(-1, -2)).swapaxes(-3, -2).reshape(shape)
            if k.requires_grad:
                gk = qh.swapaxes(-1, -2) @ gscores
                gk = gk.swapaxes(-2, -1).swapaxes(-3, -2).reshape(kv)
        if v.requires_grad:
            gv = (probs.swapaxes(-1, -2) @ gout).swapaxes(-3, -2).reshape(kv)
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
    parents = (x, gamma, beta) + (scale_shift or ())
    dtype = _check_dtype("layer_norm", parents)
    if x.shape[-1] < 2:
        raise ShapeError(f"layer_norm needs feature dimension >= 2, got {x.shape}")
    n = _scalar(x.shape[-1], dtype)
    # bitwise ndarray.mean without its Python wrapper (2.9 µs against 5.7-6.9
    # µs on (5, 64) f32, 2-core x86 VM): mean sums with np.add.reduce too, and
    # its float64 quotient by the count rounds to the float32 quotient here
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / n
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv = _scalar(1.0, dtype) / np.sqrt(var + _scalar(LN_EPS, dtype))
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
        grads = ()
        if scale_shift is not None:
            upstream = x.requires_grad or gamma.requires_grad or beta.requires_grad
            grad, grads = _scale_shift_backward(grad, normed, scale_shift, upstream)
        dx = dgamma = dbeta = None
        if x.requires_grad:
            gg = grad * gamma.data
            dxhat_sum = np.add.reduce(gg, axis=-1, keepdims=True)
            dxhat_dot = np.add.reduce(gg * xhat, axis=-1, keepdims=True)
            dx = inv * (gg - dxhat_sum / n - xhat * dxhat_dot / n)
        if gamma.requires_grad:
            dgamma = _unbroadcast(grad * xhat, gamma.shape)
        if beta.requires_grad:
            dbeta = _unbroadcast(grad, beta.shape)
        return (dx, dgamma, dbeta) + grads

    return x._make(data, parents, backward)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

try:  # vectorized erf without a scipy hard dependency
    from scipy.special import erf as _erf
except ImportError:
    _erf = np.vectorize(math.erf)

# float32 Φ(x) = 1/2 + x P(x²) / Q(x²) on |x| ≤ 4√2, beyond which Φ is within
# 8e-9 of 0 or 1; P has degree 5, Q degree 5 with Q(0) = 1, so the 1/√2 of
# erf and the 1/2 of Φ are folded in.  Fit in float64 against math.erf: 8
# rounds of Sanathanan–Koerner weighted linear least squares of
# x P - (Φ - 1/2) Q = 0 (weights 1/Q of the round before) in u = x²/32 at
# x = k·4√2/4000, k = 1..4000, then u = x²/32 folded into the coefficients
# (tests/test_autodiff.py refits them).  The fit is within 3.6e-8 of Φ;
# evaluated in float32, with the coefficients rounded to it, within 2.3e-7.
_PHI_CLAMP = 4.0 * math.sqrt(2.0)
_PHI_P = (0.3989422375773946, 0.033998437167691846, 0.004683131008175786,
          0.00016994052903099034, 6.323920865492653e-06, 2.239516925960441e-08)
_PHI_Q = (1.0, 0.25188739256556175, 0.028721470354862243, 0.0018907066277008427,
          7.382374762135602e-05, 1.185168244222893e-06)
# the constants of the two kernels, as the 0-d arrays their ops take
_F32, _F64 = np.dtype(np.float32), np.dtype(np.float64)
_PHI_LOW32, _PHI_HIGH32 = _scalar(-_PHI_CLAMP, _F32), _scalar(_PHI_CLAMP, _F32)
_PHI_P32 = tuple(_scalar(c, _F32) for c in _PHI_P)
_PHI_Q32 = tuple(_scalar(c, _F32) for c in _PHI_Q)
_ZERO32, _HALF32, _ONE32 = (_scalar(c, _F32) for c in (0.0, 0.5, 1.0))
_HALF64, _ONE64, _INV_SQRT2_64 = (_scalar(c, _F64) for c in (0.5, 1.0, _INV_SQRT2))


def _horner(t: np.ndarray, coeffs: tuple) -> np.ndarray:
    """`Σ c_k t^k` for `coeffs = (c_0, ..., c_d)`, d ≥ 1, in place in one new array."""
    acc = t * coeffs[-1]
    for c in coeffs[-2:0:-1]:
        acc += c
        acc *= t
    acc += coeffs[0]
    return acc


def _phi(x: np.ndarray) -> np.ndarray:
    """Φ(x), the standard normal CDF, in x's dtype: `0.5 (1 + erf(x / √2))`
    with the exact erf in float64, the rational kernel above in float32."""
    if x.dtype == np.float64:
        return _HALF64 * (_ONE64 + _erf(x * _INV_SQRT2_64))
    xc = np.maximum(x.reshape(-1), _PHI_LOW32)  # 1-D, so a 0-d x stays an array
    np.minimum(xc, _PHI_HIGH32, out=xc)
    t = xc * xc
    phi = _horner(t, _PHI_P32)
    phi *= xc
    phi /= _horner(t, _PHI_Q32)
    phi += _HALF32
    # float32 rounding can carry the tails a few ulp past 0 or 1
    np.minimum(phi, _ONE32, out=phi)
    return np.maximum(phi, _ZERO32, out=phi).reshape(x.shape)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU (Hendrycks & Gimpel 2016): x Φ(x).

    Φ uses scipy's exact erf in float64 and, in float32, a clamped rational
    kernel within 5e-7 of it (`_phi`).  The backward is `Φ(x) + x φ(x)`, with
    the forward's Φ.
    """
    phi = _phi(x.data)
    data = x.data * phi

    def backward(grad):
        # grad (Φ + x φ(x)), φ(x) = exp(-x²/2) / √(2π), in place in one buffer
        # with the factors in the order `grad * (phi + x * (exp(-0.5 x x) c))`
        xd = x.data
        out = np.multiply(_scalar(-0.5, xd.dtype), xd, out=np.empty_like(xd))
        out *= xd
        np.exp(out, out=out)
        out *= _scalar(_INV_SQRT2PI, xd.dtype)
        out *= xd
        out += phi
        out *= grad
        return (out,)

    return x._make(data, (x,), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout at train time; at a rate of 0 or below it returns `x` itself."""
    if rate <= 0.0:
        return x
    if rng is None:
        raise ValueError(f"dropout at rate {rate} needs a random generator, got None")
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
    # the ufunc reductions of ndarray.max, .sum and .mean without their Python
    # wrappers; the mean's quotient by the count rounds as in layer_norm
    count = _scalar(rows.shape[0], rows.dtype)
    m = np.maximum.reduce(rows, axis=1, keepdims=True)
    lse = m + np.log(np.add.reduce(np.exp(rows - m), axis=1, keepdims=True))
    data = np.asarray(np.add.reduce(lse[:, 0] - rows[picked]) / count, dtype=logits.dtype)
    probs = np.exp(rows - lse)

    def backward(grad):
        g = probs.copy()
        g[picked] -= 1.0
        return ((g * (grad / count)).reshape(logits.shape).astype(logits.dtype, copy=False),)

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

# The stencil step.  Roundoff in a difference quotient is ≈ eps |loss| / h.
# Against the 1e-8 denominator floor that is ≈4e-5 relative at h = 1e-3, which
# is what the rescaling gradients near the floor read.  At such a step the
# two-point stencil's O(h²) truncation error fails prompt tokens behind
# attention (`vpt_deep`): 1.0e-2 at h = 1e-3, falling as h² to 9e-6 at
# h = 3e-5.  The four-point stencil's truncation error is O(h⁴), so the step
# can stay large enough for roundoff.  At h = 1e-3 it still read 8.0e-5, and
# 2e-3 halves the roundoff.
FD_STEP = 2e-3
FD_TOL = 1e-4  # the release gate on the relative error


class FiniteDiffReport:
    """Per-parameter worst relative error of the analytic gradient against
    the finite difference, `entries = {name: max_rel_err}`."""

    def __init__(self, entries: dict[str, float]):
        self.entries = entries

    @property
    def max_rel_err(self) -> float:
        return max(self.entries.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < FD_TOL

    def __repr__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"FiniteDiffReport({status}, max_rel_err={self.max_rel_err:.3e}, tol={FD_TOL:g})"


def finite_diff_check(f, params: dict[str, Tensor]) -> FiniteDiffReport:
    """Compare analytic gradients of scalar `f()` against finite differences.

    Each entry's derivative is the fourth-order central difference
    `(8 (f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / 12h` at the one step
    `FD_STEP`; the report passes below the relative error `FD_TOL`, with
    the denominator floored at 1e-8.  `f` must rebuild its forward graph
    from the live values in `params` on every call.  Frozen tensors
    (requires_grad False) are skipped.  Run at float64 for meaningful
    tolerances.
    """
    active = {k: p for k, p in params.items() if p.requires_grad}
    zero_grads(active)
    analytic = gradients(f(), active)

    h = FD_STEP
    entries = {}
    for name, p in active.items():
        num = np.empty_like(p.data)
        flat = p.data.reshape(-1)
        nflat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            at = []
            for step in (h, -h, 2 * h, -2 * h):
                flat[i] = orig + step
                at.append(f().item())
            flat[i] = orig
            nflat[i] = (8.0 * (at[0] - at[1]) - (at[2] - at[3])) / (12.0 * h)
        ana = analytic[name]
        rel = np.abs(ana - num) / np.maximum(np.abs(ana) + np.abs(num), 1e-8)
        entries[name] = float(rel.max(initial=0.0))
    return FiniteDiffReport(entries)
