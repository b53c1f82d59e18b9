"""Dense tensors with reverse-mode automatic differentiation.

Small numpy-backed tape: every differentiable op records its parents and a
local backward rule on the result node.  One backward pass per forward
graph; the graph is released afterwards so a tape cannot be replayed.
Inside `no_grad()` nothing is recorded, so inference builds no tape.

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
    "softmax_rows",
    "layer_norm",
    "gelu",
    "gradients",
    "finite_diff_check",
    "FiniteDiffReport",
]

_DTYPES = {np.float32, np.float64}

_grad_enabled = True


@contextmanager
def no_grad():
    """Build no tape inside the block: op outputs get no parents, no backward
    rule and `requires_grad = False`.  The previous mode is restored on exit,
    also when the block raises, so blocks nest."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


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

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
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
        if _grad_enabled and any(p.requires_grad for p in parents):
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

    def __neg__(self):
        def backward(grad):
            return (-grad,)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other):
        other = self._coerce(other, self.dtype)
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other, self.dtype) + (-self)

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

    def __truediv__(self, scalar):
        if isinstance(scalar, Tensor):
            raise TypeError("tensor/tensor division not supported; multiply by reciprocal")
        return self * (1.0 / float(scalar))

    def __matmul__(self, other):
        return matmul(self, other)

    # -- shape ops -----------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        old = self.shape
        data = self.data.reshape(*shape)

        def backward(grad):
            return (grad.reshape(old),)

        return self._make(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        """Permute the last len(axes) axes; leading (batch) axes stay in front.

        The backward applies the inverse permutation.
        """
        lead = self.data.ndim - len(axes)
        if lead:
            axes = (*range(lead), *(lead + a for a in axes))
        inverse = tuple(np.argsort(axes))

        def backward(grad):
            return (grad.transpose(inverse),)

        return self._make(self.data.transpose(axes), (self,), backward)

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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of 2-D operands, of stacks with equal leading axes, or
    of a stack `(..., m, k)` with one 2-D `(k, n)` matrix.

    No other broadcasting.  A stack times a matrix runs as one product over
    the flattened rows, and so does the matrix's gradient, which sums over
    the stack.
    """
    if b.data.ndim == 2 and a.data.ndim > 2:
        if a.shape[-1] != b.shape[0]:
            raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
        a._check_dtype(b)
        k, n = b.shape
        rows = a.data.reshape(-1, k)
        data = (rows @ b.data).reshape(a.shape[:-1] + (n,))

        def backward(grad):
            flat = grad.reshape(-1, n)
            return ((flat @ b.data.T).reshape(a.shape), rows.T @ flat)

        return a._make(data, (a, b), backward)
    if a.data.ndim != b.data.ndim or a.data.ndim < 2 or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul needs 2-D operands or equal stacks, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    a._check_dtype(b)
    data = a.data @ b.data

    def backward(grad):
        return (grad @ b.data.swapaxes(-1, -2), a.data.swapaxes(-1, -2) @ grad)

    return a._make(data, (a, b), backward)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction for stability."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def backward(grad):
        dot = (grad * data).sum(axis=-1, keepdims=True)
        return (data * (grad - dot),)

    return x._make(data, (x,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Per-row standardization followed by an affine map.

    A constant row maps to beta: eps keeps the variance denominator finite.
    """
    if x.shape[-1] < 2:
        raise ShapeError(f"layer_norm needs feature dimension >= 2, got {x.shape}")
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    x._check_dtype(gamma)
    x._check_dtype(beta)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gamma.data + beta.data

    def backward(grad):
        n = x.shape[-1]
        gg = grad * gamma.data
        dxhat_sum = gg.sum(axis=-1, keepdims=True)
        dxhat_dot = (gg * xhat).sum(axis=-1, keepdims=True)
        dx = inv * (gg - dxhat_sum / n - xhat * dxhat_dot / n)
        dgamma = _unbroadcast(grad * xhat, gamma.shape)
        dbeta = _unbroadcast(grad, beta.shape)
        return (dx, dgamma, dbeta)

    return x._make(data, (x, gamma, beta), backward)


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

    return x._make(data.astype(x.dtype), (x,), backward)


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
