import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peftlab.autodiff import (
    GradientError,
    ShapeError,
    Tensor,
    cross_entropy_logits,
    dropout,
    finite_diff_check,
    gelu,
    gradients,
    layer_norm,
    matmul,
    no_grad,
    softmax_rows,
    zero_grads,
)


def t(data, requires_grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def test_add_broadcast_grad():
    a = t(np.ones((3, 4)))
    b = t(np.arange(4.0))
    out = (a + b).sum()
    out.backward()
    assert np.array_equal(a.grad, np.ones((3, 4)))
    assert np.array_equal(b.grad, np.full(4, 3.0))


def test_mul_and_scalar_div():
    a = t([2.0, 3.0])
    b = t([4.0, 5.0])
    out = ((a * b) / 2.0).sum()
    out.backward()
    assert np.allclose(a.grad, [2.0, 2.5])
    assert np.allclose(b.grad, [1.0, 1.5])


def test_matmul_grad():
    a = t(np.arange(6.0).reshape(2, 3))
    b = t(np.arange(12.0).reshape(3, 4))
    out = matmul(a, b).sum()
    out.backward()
    assert np.allclose(a.grad, np.ones((2, 4)) @ b.data.T)
    assert np.allclose(b.grad, a.data.T @ np.ones((2, 4)))


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))


@pytest.mark.parametrize(
    "a_shape,b_shape",
    [((2, 3, 4), (3, 4, 5)), ((3, 4), (2, 4, 5))],
    ids=["stacks_differ", "ranks_differ"],
)
def test_matmul_rejects_unequal_stacks(a_shape, b_shape):
    # no broadcasting: stack axes must match exactly, and so must the ranks
    with pytest.raises(ShapeError):
        matmul(t(np.ones(a_shape)), t(np.ones(b_shape)))


def test_stacked_matmul_matches_per_slice_2d():
    rng = np.random.default_rng(0)
    a = t(rng.normal(size=(3, 2, 4)))
    b = t(rng.normal(size=(3, 4, 5)))
    w = rng.normal(size=(3, 2, 5))
    (matmul(a, b) * w).sum().backward()
    for i in range(3):
        ai, bi = t(a.data[i]), t(b.data[i])
        out = matmul(ai, bi)
        assert np.array_equal(out.data, a.data[i] @ b.data[i])
        (out * w[i]).sum().backward()
        assert np.allclose(a.grad[i], ai.grad, rtol=1e-14, atol=0)
        assert np.allclose(b.grad[i], bi.grad, rtol=1e-14, atol=0)


def test_stack_times_matrix_matches_flattened_product():
    rng = np.random.default_rng(1)
    a = t(rng.normal(size=(3, 2, 4)))
    b = t(rng.normal(size=(4, 5)))
    w = rng.normal(size=(3, 2, 5))
    out = matmul(a, b)
    rows = a.data.reshape(6, 4)
    assert out.shape == (3, 2, 5)
    assert np.allclose(out.data, (rows @ b.data).reshape(3, 2, 5), rtol=1e-14, atol=0)
    (out * w).sum().backward()
    assert np.allclose(a.grad, (w.reshape(6, 5) @ b.data.T).reshape(3, 2, 4), rtol=1e-14, atol=0)
    # the matrix's gradient sums over every slice of the stack
    expected = sum(a.data[i].T @ w[i] for i in range(3))
    assert np.allclose(b.grad, expected, rtol=1e-12, atol=0)


def test_mixed_dtype_is_error():
    a = Tensor(np.ones(2, dtype=np.float32))
    b = Tensor(np.ones(2, dtype=np.float64))
    with pytest.raises(ShapeError):
        a + b


def test_transpose_and_reshape():
    a = t(np.arange(6.0).reshape(2, 3))
    out = a.transpose(1, 0).reshape(6).sum()
    out.backward()
    assert a.grad.shape == (2, 3)
    assert np.array_equal(a.grad, np.ones((2, 3)))


def test_transpose_backward_inverts_permutation():
    # (1, 2, 0) is not its own inverse, so applying `axes` again in the
    # backward would give the wrong layout (and here the wrong shape)
    a = t(np.arange(24.0).reshape(2, 3, 4))
    out = a.transpose(1, 2, 0)
    assert out.shape == (3, 4, 2)
    assert np.array_equal(out.data, np.transpose(a.data, (1, 2, 0)))
    w = np.arange(24.0).reshape(3, 4, 2)
    (out * w).sum().backward()
    assert a.grad.shape == (2, 3, 4)
    assert np.array_equal(a.grad, np.transpose(w, (2, 0, 1)))
    # fewer axes than the rank permute the trailing ones; a batch axis stays in front
    b = t(np.arange(48.0).reshape(2, 2, 3, 4))
    out = b.transpose(1, 2, 0)
    assert np.array_equal(out.data, np.transpose(b.data, (0, 2, 3, 1)))
    (out * w).sum().backward()
    assert np.array_equal(b.grad, np.broadcast_to(np.transpose(w, (2, 0, 1)), (2, 2, 3, 4)))


def test_concat_and_slice_rows():
    a = t(np.ones((2, 3)))
    b = t(2 * np.ones((1, 3)))
    cat = Tensor.concat_rows([a, b])
    assert cat.shape == (3, 3)
    top = cat.slice_rows(0, 2).sum()
    top.backward()
    assert np.array_equal(a.grad, np.ones((2, 3)))
    assert np.array_equal(b.grad, np.zeros((1, 3)))


def test_concat_and_slice_rows_broadcast_part_over_batch():
    rng = np.random.default_rng(2)
    x = t(rng.normal(size=(3, 4, 2)))
    part = t(rng.normal(size=(1, 2)))  # a class token shared by the batch
    cat = Tensor.concat_rows([part, x])
    assert cat.shape == (3, 5, 2)
    for i in range(3):
        assert np.array_equal(cat.data[i], np.concatenate([part.data, x.data[i]]))
    w = rng.normal(size=(3, 3, 2))
    (cat.slice_rows(1, 4) * w).sum().backward()
    assert np.array_equal(part.grad, np.zeros((1, 2)))
    expected = np.zeros((3, 4, 2))
    expected[:, :3] = w
    assert np.array_equal(x.grad, expected)

    x.grad = part.grad = None
    w = rng.normal(size=(3, 5, 2))
    (Tensor.concat_rows([part, x]) * w).sum().backward()
    assert np.allclose(part.grad, w[:, :1].sum(axis=0), rtol=1e-14, atol=0)
    assert np.array_equal(x.grad, w[:, 1:])


def test_backward_clears_tape():
    a = t([1.0, 2.0])
    out = (a * a).sum()
    out.backward()
    first = a.grad.copy()
    with pytest.raises(GradientError):
        out.backward()
    assert np.array_equal(a.grad, first)


def test_backward_requires_scalar():
    a = t(np.ones((2, 2)))
    with pytest.raises(GradientError):
        (a * 2.0).backward()


def _no_grad_outputs():
    """One output of every recording op, from inputs that all require grad."""
    rng = np.random.default_rng(0)
    m = t(rng.normal(size=(3, 4)))
    w = t(rng.normal(size=(4, 5)))
    stack = t(rng.normal(size=(2, 3, 4)))
    gamma, beta = t(np.ones(4)), t(np.zeros(4))
    return {
        "matmul_2d": matmul(m, w),
        "matmul_stacked": matmul(stack, t(rng.normal(size=(2, 4, 5)))),
        "matmul_stack_x_matrix": matmul(stack, w),
        "add": m + m,
        "mul": m * 2.0,
        "reshape": m.reshape(4, 3),
        "transpose": stack.transpose(1, 0),
        "slice_rows": stack.slice_rows(1, 3),
        "concat_rows": Tensor.concat_rows([t(rng.normal(size=(1, 4))), stack]),
        "softmax_rows": softmax_rows(m),
        "layer_norm": layer_norm(m, gamma, beta),
        "gelu": gelu(m),
        "cross_entropy": cross_entropy_logits(m, np.array([0, 1, 3])),
    }


def test_no_grad_records_no_tape():
    with no_grad():
        outputs = _no_grad_outputs()
    for op, out in outputs.items():
        assert out._parents == () and out._backward is None, op
        assert not out.requires_grad, op
    # the same ops outside the block do record
    for op, out in _no_grad_outputs().items():
        assert out._parents and out.requires_grad, op


def test_no_grad_restores_mode_after_raise_and_nesting():
    a = t([1.0, 2.0])
    with pytest.raises(ShapeError):
        with no_grad():
            matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))
    assert (a * a).requires_grad
    with no_grad():
        with no_grad():
            assert not (a * a).requires_grad
        assert not (a * a).requires_grad  # the inner exit keeps the outer mode
    out = (a * a).sum()
    assert out.requires_grad
    out.backward()
    assert np.array_equal(a.grad, [2.0, 4.0])


def test_backward_on_no_grad_output_raises():
    a = t([1.0, 2.0])
    with no_grad():
        out = (a * a).sum()
    with pytest.raises(GradientError):
        out.backward()
    assert a.grad is None


@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_softmax_rows_sum_to_one(rows, cols, seed):
    x = Tensor(np.random.default_rng(seed).normal(0, 5, (rows, cols)))
    out = softmax_rows(x)
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
    assert (out.data >= 0).all()


def test_softmax_shift_invariance():
    x = np.array([[1.0, 2.0, 3.0]])
    a = softmax_rows(Tensor(x)).data
    b = softmax_rows(Tensor(x + 1000.0)).data
    assert np.allclose(a, b, atol=1e-12)


def test_layer_norm_statistics():
    x = Tensor(np.random.default_rng(0).normal(3, 2, (5, 8)))
    gamma = t(np.ones(8))
    beta = t(np.zeros(8))
    out = layer_norm(x, gamma, beta)
    assert np.allclose(out.data.mean(axis=1), 0.0, atol=1e-10)
    assert np.allclose(out.data.var(axis=1), 1.0, atol=1e-3)


def test_gelu_reference_values():
    x = Tensor(np.array([0.0, 1.0, -1.0]))
    out = gelu(x)
    phi = lambda v: 0.5 * (1 + math.erf(v / math.sqrt(2)))
    expected = [0.0, 1.0 * phi(1.0), -1.0 * phi(-1.0)]
    assert np.allclose(out.data, expected, atol=1e-12)


def test_gelu_preserves_dtype():
    x = Tensor(np.ones(3, dtype=np.float32))
    assert gelu(x).dtype == np.float32


def test_dropout_inverted_scaling():
    rng = np.random.default_rng(0)
    x = Tensor(np.ones((100, 100)))
    out = dropout(x, 0.5, rng)
    kept = out.data != 0
    assert abs(kept.mean() - 0.5) < 0.05
    assert np.allclose(out.data[kept], 2.0)


def test_dropout_zero_rate_is_identity():
    x = Tensor(np.random.default_rng(1).normal(size=(4, 4)))
    out = dropout(x, 0.0, np.random.default_rng(0))
    assert np.array_equal(out.data, x.data)


def test_cross_entropy_matches_manual():
    logits = t([1.0, 2.0, 0.5])
    loss = cross_entropy_logits(logits, 1)
    probs = np.exp(logits.data) / np.exp(logits.data).sum()
    assert np.isclose(loss.data, -np.log(probs[1]))
    loss.backward()
    expected = probs.copy()
    expected[1] -= 1.0
    assert np.allclose(logits.grad, expected)


def test_batched_cross_entropy_is_mean_of_rows():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(4, 3))
    labels = np.array([2, 0, 1, 2])
    batch = t(rows)
    loss = cross_entropy_logits(batch, labels)
    loss.backward()
    singles = [t(r) for r in rows]
    per_row = [cross_entropy_logits(r, int(y)) for r, y in zip(singles, labels)]
    assert np.isclose(loss.item(), np.mean([l.item() for l in per_row]), rtol=1e-14, atol=0)
    for r, l in zip(singles, per_row):
        l.backward()
    expected = np.stack([r.grad for r in singles]) / len(labels)
    assert np.allclose(batch.grad, expected, rtol=1e-14, atol=0)
    with pytest.raises(ShapeError):
        cross_entropy_logits(t(rows), labels[:3])


def test_gradients_zero_for_uninvolved_param():
    a = t([1.0, 2.0])
    unused = t([5.0])
    loss = (a * a).sum()
    grads = gradients(loss, {"a": a, "unused": unused})
    assert np.allclose(grads["a"], 2 * a.data)
    assert np.array_equal(grads["unused"], np.zeros(1))


def test_zero_grads():
    a = t([1.0])
    (a * a).sum().backward()
    assert a.grad is not None
    zero_grads({"a": a})
    assert a.grad is None


def test_finite_diff_check_passes_on_quadratic():
    p = t(np.array([1.0, -2.0, 0.5]))
    report = finite_diff_check(lambda: (p * p).sum(), {"p": p})
    assert report.passed
    assert report.max_rel_err < 1e-6


def test_finite_diff_check_rejects_bad_step():
    p = t([1.0])
    with pytest.raises(ValueError):
        finite_diff_check(lambda: (p * p).sum(), {"p": p}, h=1e-9)


def test_finite_diff_check_skips_frozen():
    frozen = Tensor(np.ones(2), requires_grad=False)
    live = t([3.0])
    report = finite_diff_check(lambda: (live * live).sum(), {"f": frozen, "l": live})
    assert set(report.entries) == {"l"}


def test_finite_diff_detects_wrong_gradient():
    p = t([1.0, 2.0])

    def bad_loss():
        out = (p * p).sum()
        # corrupt the backward rule: claim gradient 3p instead of 2p
        parent_backward = out._backward
        out._backward = lambda g: tuple(1.5 * gr for gr in parent_backward(g))
        return out

    report = finite_diff_check(bad_loss, {"p": p})
    assert not report.passed
