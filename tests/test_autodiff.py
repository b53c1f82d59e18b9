import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peftlab import autodiff
from peftlab.autodiff import (
    LN_EPS,
    GradientError,
    ShapeError,
    Tensor,
    adapted_weight,
    attention,
    cross_entropy_logits,
    dropout,
    finite_diff_check,
    gelu,
    gradients,
    layer_norm,
    matmul,
    no_grad,
    zero_grads,
)
from peftlab.peft import MethodSpec, attach
from peftlab.train import AdamWState
from peftlab.vit import init_model

from conftest import attention_reference, composed_linear, tape


def t(data, requires_grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def test_add_broadcast_grad():
    a = t(np.ones((3, 4)))
    b = t(np.arange(4.0))
    out = (a + b).sum()
    out.backward()
    assert np.array_equal(a.grad, np.ones((3, 4)))
    assert np.array_equal(b.grad, np.full(4, 3.0))


def test_add_keepdims_broadcast_grad():
    # a (3, 1) operand broadcast along its unit axis gets a (3, 1) gradient
    a = t(np.arange(3.0).reshape(3, 1))
    b = t(np.ones((3, 4)))
    (a + b).sum().backward()
    assert a.grad.shape == (3, 1)
    assert np.array_equal(a.grad, np.full((3, 1), 4.0))
    assert np.array_equal(b.grad, np.ones((3, 4)))


def test_mul_and_scalar_div():
    # Tensor has no `/`: a scalar divides as a product with its reciprocal,
    # a constant 0-d tensor, since `*` takes tensors only
    a = t([2.0, 3.0])
    b = t([4.0, 5.0])
    out = ((a * b) * t(0.5, requires_grad=False)).sum()
    out.backward()
    assert np.allclose(a.grad, [2.0, 2.5])
    assert np.allclose(b.grad, [1.0, 1.5])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))
    # an operand broadcasting wider than the (3, 2) product cannot be added into it
    x, w, wide = t(np.ones((3, 2))), t(np.ones((2, 2))), t(np.ones((4, 3, 2)))
    factors = (t(np.ones((2, 1))), t(np.ones((1, 2))))
    for extra in ({}, {"factors": factors}):
        with pytest.raises(ShapeError):
            matmul(x, w, wide, **extra)
        with pytest.raises(ShapeError):
            matmul(x, w, t(np.ones(2)), (None, wide), **extra)


def test_matmul_rejects_a_scale_wider_than_the_product():
    x, w, b = t(np.ones((3, 2))), t(np.ones((2, 2))), t(np.ones(2))
    with pytest.raises(ShapeError, match="^bias, scale or shift does not fit"):
        matmul(x, w, b, (t(np.ones((4, 3, 2))), t(np.ones(2))))


@pytest.mark.parametrize(
    "a_shape,b_shape",
    [((2, 3, 4), (3, 4, 5)), ((3, 4), (2, 4, 5)), ((3, 2, 4), (3, 4, 5)), ((4,), (4, 5))],
    ids=["stacks_differ", "ranks_differ", "equal_stacks", "vector_rows"],
)
def test_matmul_rejects_unequal_stacks(a_shape, b_shape):
    # no broadcasting: the right operand is one 2-D matrix, the left one at least 2-D
    with pytest.raises(ShapeError):
        matmul(t(np.ones(a_shape)), t(np.ones(b_shape)))


def test_matrix_times_matrix_is_the_plain_product_bitwise():
    rng = np.random.default_rng(0)
    a = t(rng.normal(size=(2, 4)))
    b = t(rng.normal(size=(4, 5)))
    w = rng.normal(size=(2, 5))
    out = matmul(a, b)
    assert out.data.tobytes() == (a.data @ b.data).tobytes()
    (out * t(w, requires_grad=False)).sum().backward()
    assert a.grad.tobytes() == (w @ b.data.T).tobytes()
    assert b.grad.tobytes() == (a.data.T @ w).tobytes()


def test_stack_times_matrix_matches_flattened_product():
    rng = np.random.default_rng(1)
    a = t(rng.normal(size=(3, 2, 4)))
    b = t(rng.normal(size=(4, 5)))
    w = rng.normal(size=(3, 2, 5))
    out = matmul(a, b)
    rows = a.data.reshape(6, 4)
    assert out.shape == (3, 2, 5)
    assert np.allclose(out.data, (rows @ b.data).reshape(3, 2, 5), rtol=1e-14, atol=0)
    (out * t(w, requires_grad=False)).sum().backward()
    assert np.allclose(a.grad, (w.reshape(6, 5) @ b.data.T).reshape(3, 2, 4), rtol=1e-14, atol=0)
    # the matrix's gradient sums over every slice of the stack
    expected = sum(a.data[i].T @ w[i] for i in range(3))
    assert np.allclose(b.grad, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_matrix_rows_equal_a_one_item_stack_bitwise(dtype):
    # 2-D rows skip the flattening reshapes a stack takes: same values, same gradients
    rng = np.random.default_rng(2)
    x, w, b, grad = (rng.normal(size=shape).astype(dtype) for shape in ((5, 4), (4, 3), 3, (5, 3)))
    runs = []
    for lead in ((), (1,)):
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x.reshape(lead + x.shape), w, b))
        out = matmul(xt, wt, bt)
        (out * Tensor(grad.reshape(out.shape))).sum().backward()
        runs.append((out.data.reshape(5, 3), xt.grad.reshape(5, 4), wt.grad, bt.grad))
    for name, got, want in zip(("value", "grad x", "grad W", "grad b"), *runs):
        _assert_bitwise(name, got, want)


def _fused_linear(x, w, b, left, right, shift=None, residual=True):
    """The adapted linear map as one `matmul` node with factors and a scale-free shift."""
    return matmul(x, w, b, None if shift is None else (None, shift), (left, right), residual)


# (rank, residual, shift, left trainable, right trainable), one per rescaling
# variant: rlrr, rankr_rlrr, rlrr_no_residual, rlrr left-only and right-only,
# rlrr with residual = false, rankr_rlrr left-only, lora
ADAPTED_CASES = {
    "rlrr": (1, True, True, True, True),
    "rankr_rlrr": (3, True, True, True, True),
    "rlrr_no_residual": (3, False, True, True, True),
    "rlrr-right_only": (1, True, True, False, True),
    "rlrr-left_only": (1, True, True, True, False),
    "rlrr-residual_off": (1, False, True, True, True),
    "rankr_rlrr-left_only": (3, True, True, True, False),
    "lora": (3, False, False, True, True),
}


def _adapted_inputs(case, dtype, x_shape, seed=0):
    rank, residual, with_shift, train_left, train_right = ADAPTED_CASES[case]
    rng = np.random.default_rng(seed)
    m, n = x_shape[-1], 5

    def leaf(shape, trainable=True):
        return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=trainable)

    # a factor a one-sided ablation switches off is a frozen constant of ones
    left = leaf((m, rank)) if train_left else Tensor(np.ones((m, rank), dtype=dtype))
    right = leaf((rank, n)) if train_right else Tensor(np.ones((rank, n), dtype=dtype))
    return dict(x=leaf(x_shape), w=leaf((m, n), False), b=leaf(n, False), left=left,
                right=right, shift=leaf(n) if with_shift else None, residual=residual)


def _value_and_grads(fn, inputs, weight):
    for v in inputs.values():
        if isinstance(v, Tensor):
            v.grad = None
    out = fn(**inputs)
    (out * Tensor(weight)).sum().backward()
    grads = {k: v.grad for k, v in inputs.items() if isinstance(v, Tensor) and v.requires_grad}
    return out.data, grads


def _assert_bitwise(name, got, want):
    """Fail unless `got` and `want` are bitwise equal, saying how many elements
    differ and where the largest |difference| is."""
    assert (got.dtype, got.shape) == (want.dtype, want.shape), name
    unequal = got.view(f"u{got.itemsize}") != want.view(f"u{want.itemsize}")
    if unequal.any():
        diff = np.abs(got.astype(np.float64) - want.astype(np.float64))
        at = tuple(int(i) for i in np.unravel_index(np.argmax(diff), diff.shape))
        pytest.fail(f"{name}: {unequal.sum()} of {got.size} elements differ; "
                    f"largest |difference| {diff[at]:.3e} at {at}")


@pytest.mark.parametrize("x_shape", [(4, 6), (3, 4, 6)], ids=["2d", "batched"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("case", sorted(ADAPTED_CASES))
def test_adapted_linear_matches_composed_ops_bitwise(case, dtype, x_shape):
    inputs = _adapted_inputs(case, dtype, x_shape)
    weight = np.random.default_rng(1).normal(size=x_shape[:-1] + (5,)).astype(dtype)
    fused, fused_grads = _value_and_grads(_fused_linear, inputs, weight)
    ref, ref_grads = _value_and_grads(composed_linear, inputs, weight)
    assert fused.dtype == dtype
    _assert_bitwise("value", fused, ref)
    assert set(fused_grads) == set(ref_grads)
    for k, g in ref_grads.items():
        assert fused_grads[k].dtype == dtype, k
        _assert_bitwise(f"grad {k}", fused_grads[k], g)


@pytest.mark.parametrize("residual", [True, False])
def test_adapted_linear_host_gradients_match_composed_ops(residual):
    inputs = _adapted_inputs("rankr_rlrr", np.float64, (3, 4, 6), seed=2)
    inputs["residual"] = residual
    inputs["w"].requires_grad = inputs["b"].requires_grad = True  # a host unfrozen by hand
    weight = np.random.default_rng(3).normal(size=(3, 4, 5))
    _, fused = _value_and_grads(_fused_linear, inputs, weight)
    _, ref = _value_and_grads(composed_linear, inputs, weight)
    assert set(fused) == {"x", "w", "b", "left", "right", "shift"}
    for k in ref:
        assert np.allclose(fused[k], ref[k], rtol=1e-12, atol=0.0), k


@pytest.mark.parametrize("residual", [True, False])
def test_adapted_linear_finite_differences(residual):
    inputs = _adapted_inputs("rankr_rlrr", np.float64, (2, 3, 6), seed=4)
    inputs["residual"] = residual
    inputs["w"].requires_grad = inputs["b"].requires_grad = True
    weight = Tensor(np.random.default_rng(5).normal(size=(2, 3, 5)))
    params = {k: v for k, v in inputs.items() if isinstance(v, Tensor)}
    report = finite_diff_check(lambda: (_fused_linear(**inputs) * weight).sum(), params)
    assert set(report.entries) == set(params)
    assert report.passed, report.entries


def test_rank1_broadcast_product_equals_gemm():
    rng = np.random.default_rng(6)
    for dtype in (np.float32, np.float64):
        for m, n in ((64, 64), (64, 256), (256, 64), (3, 1)):
            left = rng.normal(size=(m, 1)).astype(dtype)
            right = rng.normal(size=(1, n)).astype(dtype)
            left[::5] = 0.0
            right[:, ::3] *= -1.0
            right[:, 1::7] = 0.0
            w = rng.normal(size=(m, n)).astype(dtype)
            prod, gemm = left * right, left @ right
            # equal values; only the sign of an exact zero product may differ,
            # and adding it to a nonzero W erases that difference
            assert np.array_equal(prod, gemm)
            nonzero = gemm != 0
            assert prod[nonzero].tobytes() == gemm[nonzero].tobytes()
            for residual in (True, False):
                expected = w + (gemm * w if residual else gemm)
                assert adapted_weight(w, left, right, residual).tobytes() == expected.tobytes()


def test_adapted_linear_rejects_misfit_shapes():
    x, w = t(np.ones((2, 6))), t(np.ones((6, 4)))
    with pytest.raises(ShapeError):
        matmul(t(np.ones((2, 5))), w, factors=(t(np.ones((6, 1))), t(np.ones((1, 4)))))
    with pytest.raises(ShapeError):
        matmul(t(np.ones(6)), w, factors=(t(np.ones((6, 1))), t(np.ones((1, 4)))))
    with pytest.raises(ShapeError):
        matmul(x, w, factors=(t(np.ones((4, 1))), t(np.ones((1, 4)))))
    with pytest.raises(ShapeError):
        matmul(x, w, factors=(t(np.ones((6, 2))), t(np.ones((3, 4)))))
    with pytest.raises(ShapeError):
        matmul(x, w, factors=(t(np.ones((6, 1))), Tensor(np.ones((1, 4), np.float32))))


def test_mixed_dtype_is_error():
    a = Tensor(np.ones(2, dtype=np.float32))
    b = Tensor(np.ones(2, dtype=np.float64))
    for op in (a.__add__, a.__mul__):
        with pytest.raises(ShapeError, match="^mixed precision operands: float32 vs float64$"):
            op(b)
    # the fused ops check every operand position: one float32 operand among float64 ones
    x = t(np.ones((3, 2)))
    cases = [
        (lambda o: matmul(x, o["w"], o["b"], (o["s"], o["f"]), (o["left"], o["right"])),
         {"w": t(np.ones((2, 2))), "b": t(np.ones(2)), "s": t(np.ones(2)), "f": t(np.ones(2)),
          "left": t(np.ones((2, 1))), "right": t(np.ones((1, 2)))}),
        (lambda o: attention(x, o["k"], o["v"], heads=1),
         {"k": t(np.ones((3, 2))), "v": t(np.ones((3, 2)))}),
        (lambda o: layer_norm(x, o["gamma"], o["beta"], (o["s"], o["f"])),
         {"gamma": t(np.ones(2)), "beta": t(np.zeros(2)), "s": t(np.ones(2)), "f": t(np.ones(2))}),
    ]
    for op, operands in cases:
        assert op(operands).dtype == np.float64
        for name, operand in operands.items():
            narrowed = {**operands, name: Tensor(operand.data.astype(np.float32))}
            with pytest.raises(ShapeError, match="^mixed precision operands: float64 vs float32$"):
                op(narrowed)


def test_an_operand_that_is_not_a_tensor_is_a_type_error():
    a = t([1.0, 2.0])
    with pytest.raises(TypeError, match=r"^\*: operands must be Tensors, got Tensor, float$"):
        a * 2.0
    with pytest.raises(TypeError, match=r"^\+: operands must be Tensors, got Tensor, ndarray$"):
        a + np.ones(2)
    with pytest.raises(TypeError, match="^matmul: operands must be Tensors, got Tensor, ndarray$"):
        matmul(t(np.ones((3, 2))), np.ones((2, 2)))


def test_reshape_backward_restores_shape():
    a = t(np.arange(6.0).reshape(2, 3))
    out = a.reshape(3, 2).reshape(6).sum()
    out.backward()
    assert a.grad.shape == (2, 3)
    assert np.array_equal(a.grad, np.ones((2, 3)))


def test_concat_and_slice_rows():
    a = t(np.ones((2, 3)))
    b = t(2 * np.ones((1, 3)))
    cat = Tensor.concat_rows([a, b])
    assert cat.shape == (3, 3)
    top = cat.slice_rows(0, 2).sum()
    top.backward()
    assert np.array_equal(a.grad, np.ones((2, 3)))
    assert np.array_equal(b.grad, np.zeros((1, 3)))


def test_concat_rows_rejects_an_empty_list():
    with pytest.raises(ShapeError, match="^concat_rows of empty list$"):
        Tensor.concat_rows([])


def test_concat_and_slice_rows_broadcast_part_over_batch():
    rng = np.random.default_rng(2)
    x = t(rng.normal(size=(3, 4, 2)))
    part = t(rng.normal(size=(1, 2)))  # a class token shared by the batch
    cat = Tensor.concat_rows([part, x])
    assert cat.shape == (3, 5, 2)
    for i in range(3):
        assert np.array_equal(cat.data[i], np.concatenate([part.data, x.data[i]]))
    w = rng.normal(size=(3, 3, 2))
    (cat.slice_rows(1, 4) * t(w, requires_grad=False)).sum().backward()
    assert np.array_equal(part.grad, np.zeros((1, 2)))
    expected = np.zeros((3, 4, 2))
    expected[:, :3] = w
    assert np.array_equal(x.grad, expected)

    x.grad = part.grad = None
    w = rng.normal(size=(3, 5, 2))
    (Tensor.concat_rows([part, x]) * t(w, requires_grad=False)).sum().backward()
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


def test_backward_on_a_scalar_leaf_accumulates():
    # a 0-d leaf is its own loss; its grad adds up over passes as any leaf's does
    a = t(2.0)
    a.backward()
    a.backward()
    assert type(a.grad) is np.ndarray
    assert a.grad.shape == () and a.grad == 2.0
    a.grad[...] = 0.0  # an array after two passes, so in-place writes work
    assert a.grad == 0.0
    c = t(2.0)  # a 0-d leaf reached twice in one pass
    for passes in (1, 2):
        (c * c).backward()
        assert type(c.grad) is np.ndarray and c.grad == 4.0 * passes
    b = t([2.0])
    (b * b).sum().backward()
    (b * b).sum().backward()
    assert np.array_equal(b.grad, [8.0])


def test_backward_leaves_gradients_on_leaves_only_in_their_own_memory(tiny_config):
    # one image through vpt_deep: each layer's prompt gradient is rows of the
    # concat_rows node's gradient, a view, when it reaches theta
    pm = attach(MethodSpec(method="vpt_deep", prompts=2), init_model(tiny_config, seed=0), seed=1)
    image = np.random.default_rng(0).normal(size=(8, 8, 1))
    loss = cross_entropy_logits(pm.forward(image), 1)
    interior, leaves = tape(loss)
    loss.backward()
    # kills an interior .grad kept after it passes on
    assert [n for n in interior if n.grad is not None] == []
    # kills a view's copy dropped: theta's .grad would be a view of the concat's gradient
    assert {id(t) for t in leaves} == {id(t) for t in pm.trainable().values()}
    assert all(t.grad.base is None for t in leaves)
    with pytest.raises(GradientError, match="^backward already ran on this graph"):
        loss.backward()

    # one leaf fed to three consumers: its parts add in the order the walk
    # reaches the consumers, ((1 + 1e16) - 1e16) = 0 here, where the reverse
    # order gives 1; kills the parents taken first-first
    x = t([1.0])
    parts = [x * t([k], requires_grad=False) for k in (1.0, 1e16, -1e16)]
    ((parts[0] + parts[1]) + parts[2]).sum().backward()
    assert np.array_equal(x.grad, (np.array([1.0]) + 1e16) + -1e16)
    assert x.grad[0] == 0.0


def test_backward_requires_scalar():
    a = t(np.ones((2, 2)))
    with pytest.raises(GradientError):
        (a * t(2.0, requires_grad=False)).backward()


def _no_grad_outputs():
    """One output of every recording op, from inputs that all require grad."""
    rng = np.random.default_rng(0)
    m = t(rng.normal(size=(3, 4)))
    w = t(rng.normal(size=(4, 5)))
    stack = t(rng.normal(size=(2, 3, 4)))
    gamma, beta = t(np.ones(4)), t(np.zeros(4))
    qkv = [t(rng.normal(size=(2, 3, 4))) for _ in range(3)]
    adapted = (w, t(np.ones(5)), (None, t(np.ones(5))),
               (t(rng.normal(size=(4, 2))), t(rng.normal(size=(2, 5)))))
    return {
        "matmul_2d": matmul(m, w),
        "matmul_stack_x_matrix": matmul(stack, w),
        "matmul_bias": matmul(stack, w, t(np.ones(5))),
        "matmul_scale_shift": matmul(stack, w, t(np.ones(5)), (t(np.full(5, 2.0)), t(np.ones(5)))),
        "matmul_factors": matmul(stack, *adapted),
        # the same slot again: `matmul` keeps no W', so it builds it again
        "matmul_factors_again": matmul(stack, *adapted),
        "add": m + m,
        "mul": m * t(2.0, requires_grad=False),
        "reshape": m.reshape(4, 3),
        "slice_rows": stack.slice_rows(1, 3),
        "concat_rows": Tensor.concat_rows([t(rng.normal(size=(1, 4))), stack]),
        "attention": attention(*qkv, heads=2),
        "layer_norm": layer_norm(m, gamma, beta),
        "layer_norm_scale_shift": layer_norm(m, gamma, beta, (t(np.ones(4)), t(np.zeros(4)))),
        "gelu": gelu(m),
        "cross_entropy": cross_entropy_logits(m, np.array([0, 1, 3])),
        "sum": m.sum(),
        "mul_0d": t(2.0) * t(3.0),
        "dropout": dropout(m, 0.5, rng),
    }


def test_no_grad_records_no_tape():
    with no_grad():
        outputs = _no_grad_outputs()
    for op, out in outputs.items():
        assert out._parents == () and out._backward is None, op
        assert not out.requires_grad, op
    # the same ops outside the block do record
    recorded = _no_grad_outputs()
    for op, out in recorded.items():
        assert out._parents and out.requires_grad, op
    # both modes compute the same array, of the operands' dtype, also for a 0-d result
    for op, out in outputs.items():
        assert type(out.data) is np.ndarray and out.data.dtype == np.float64, op
        assert out.shape == recorded[op].shape, op
        assert out.data.tobytes() == recorded[op].data.tobytes(), op


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


def _slot():
    """x, W, b, (None, shift), (left, right) of one 6x4 rank-1 slot, the `matmul`
    arguments of a frozen host with trainable factors and shift."""
    rng = np.random.default_rng(0)

    def leaf(shape, trainable):
        return Tensor(rng.normal(size=shape), requires_grad=trainable)

    return (leaf((3, 6), False), leaf((6, 4), False), leaf(4, False), (None, leaf(4, True)),
            (leaf((6, 1), True), leaf((1, 4), True)))


def _attached(config, seed=2):
    """An f64 rlrr model whose factors are all nonzero, so every W' differs from W."""
    spec = MethodSpec(method="rlrr", init="normal", init_scale=0.05)
    return attach(spec, init_model(config, seed=0, dtype=np.float64), seed=seed)


def _image():
    return np.random.default_rng(5).normal(size=(8, 8, 1))


def test_no_grad_builds_each_adapted_weight_once_per_block(tiny_config, weight_builds):
    pm, other = _attached(tiny_config), _attached(tiny_config, seed=3)
    img = _image()
    with no_grad():
        first = pm.forward(img)
        second = pm.forward(img)
        other.forward(img)
        assert len(autodiff._block_values) == 2  # one merged backbone per model
    assert len(weight_builds) == 24  # 2 layers x 6 slots, once per model
    assert first.data.tobytes() == second.data.tobytes()
    with no_grad():  # a fresh block merges again
        third = pm.forward(img)
    assert len(weight_builds) == 36
    for _ in range(2):  # the attached grad-mode forward builds on every call
        pm.forward(img)
    assert len(weight_builds) == 60
    assert third.data.tobytes() == first.data.tobytes()


def test_inner_no_grad_exit_keeps_the_outer_map(tiny_config, weight_builds):
    pm = _attached(tiny_config)
    w = pm.base.slot("l00.q").w.data
    with no_grad():
        pm.forward(_image())
        with no_grad():
            pm.forward(_image())
        assert not w.flags.writeable  # still guarded by the outer block
        pm.forward(_image())
    assert len(weight_builds) == 12
    assert w.flags.writeable


@pytest.mark.parametrize("target", ["w", "b", "left", "right", "f"])
def test_no_grad_makes_adapted_inputs_read_only_for_the_block(tiny_config, target):
    pm = _attached(tiny_config)
    host, p = pm.base.slot("l00.q"), pm.params["l00.q"]
    arrays = {"w": host.w.data, "b": host.b.data, "left": p["S_left"].data,
              "right": p["S_right"].data, "f": p["f"].data}
    with no_grad():
        pm.forward(_image())
        with pytest.raises(ValueError):
            arrays[target][...] = 1.0
        # a slot the method does not adapt is shared, not merged, so it stays writeable
        pm.base.slot("pos_embed").w.data[0, 0] = 1.0
    assert all(a.flags.writeable for a in arrays.values())
    # also after an exit through an exception
    with pytest.raises(RuntimeError):
        with no_grad():
            pm.forward(_image())
            assert not arrays[target].flags.writeable
            raise RuntimeError("leave the block")
    assert all(a.flags.writeable for a in arrays.values())
    arrays[target][...] = 2.0


def test_no_grad_restores_only_what_it_made_read_only(tiny_config):
    pm = _attached(tiny_config)
    state = AdamWState(pm.trainable())  # the method tensors become views of one arena
    views = [t.data for t in pm.method_tensors().values()]
    w = pm.base.slot("l00.q").w.data
    w.flags.writeable = False  # read-only before the block: stays so
    with no_grad():
        pm.forward(_image())
        assert not any(v.flags.writeable for v in views)
        assert state.flat.flags.writeable  # the arena itself is not read by the merge
    assert not w.flags.writeable
    assert all(v.flags.writeable for v in views)
    assert state.flat.flags.writeable and pm.base.slot("l00.k").w.data.flags.writeable


def test_no_grad_restores_a_base_before_its_view(tiny_config):
    pm = _attached(tiny_config)
    state = AdamWState(pm.trainable())  # views of an arena that no entry holds
    # tie l00.q's W to l01.q's: the view is read first, in slot order, and numpy
    # refuses a writeable view of a read-only base
    base = pm.base.slot("l01.q").w.data
    pm.base.slot("l00.q").w.data = view = base[:]
    with no_grad():
        pm.forward(_image())
        assert not base.flags.writeable and not view.flags.writeable
    assert base.flags.writeable and view.flags.writeable
    assert all(t.data.flags.writeable for t in pm.method_tensors().values())
    assert state.flat.flags.writeable


def test_adapted_linear_checks_inputs_when_its_weight_is_stored():
    x, w, b, (_, shift), (left, right) = _slot()
    with no_grad():
        matmul(x, w, b, (None, shift), (left, right))
        with pytest.raises(ShapeError):
            matmul(t(np.ones((3, 5)), False), w, b, (None, shift), (left, right))
        with pytest.raises(ShapeError):
            matmul(t(np.ones(6), False), w, b, (None, shift), (left, right))
        with pytest.raises(ShapeError):
            matmul(Tensor(x.data.astype(np.float32)), w, b, (None, shift), (left, right))
        with pytest.raises(ShapeError):
            matmul(x, w, Tensor(b.data.astype(np.float32)), (None, shift), (left, right))
        with pytest.raises(ShapeError):
            matmul(x, w, b, (None, Tensor(shift.data.astype(np.float32))), (left, right))


def test_backward_on_no_grad_output_raises():
    a = t([1.0, 2.0])
    with no_grad():
        out = (a * a).sum()
    with pytest.raises(GradientError):
        out.backward()
    assert a.grad is None


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("shape, heads", [((5, 64), 4), ((16, 5, 64), 4), ((9, 16), 2)],
                         ids=["image", "batch", "prompted"])
def test_attention_matches_per_head_reference_bitwise(dtype, shape, heads):
    rng = np.random.default_rng(20)
    q, k, v = (rng.normal(size=shape).astype(dtype) for _ in range(3))
    out = attention(Tensor(q), Tensor(k), Tensor(v), heads)
    assert out.shape == shape and out.dtype == dtype
    assert out.data.tobytes() == attention_reference(q, k, v, heads).tobytes()


@pytest.mark.parametrize("shape", [(5, 8), (3, 5, 8), (2, 5 + 3, 8)],
                         ids=["image", "batch", "prompted_batch"])
def test_attention_finite_differences(shape):
    rng = np.random.default_rng(21)
    if shape[-2] > 5:  # three prompt rows joined in front of five token rows, as VPT does
        prompts, tokens = t(rng.normal(size=(3, 8))), t(rng.normal(size=shape[:-2] + (5, 8)))
        x = lambda: Tensor.concat_rows([prompts, tokens])
        params = {"prompts": prompts, "tokens": tokens}
    else:
        tokens = t(rng.normal(size=shape))
        x = lambda: tokens
        params = {"tokens": tokens}
    proj = {kind: t(rng.normal(0.0, 0.5, (8, 8))) for kind in "qkv"}
    params.update(proj)
    weight = Tensor(rng.normal(size=shape))

    def loss():
        rows = x()
        q, k, v = (matmul(rows, proj[kind]) for kind in "qkv")
        return (attention(q, k, v, heads=2) * weight).sum()

    report = finite_diff_check(loss, params)
    assert set(report.entries) == set(params)
    assert report.passed, report.entries


def test_attention_gives_gradients_only_to_tensors_that_require_them():
    rng = np.random.default_rng(22)
    q, k, v = t(rng.normal(size=(4, 6))), t(rng.normal(size=(4, 6)), False), t(rng.normal(size=(4, 6)))
    attention(q, k, v, heads=3).sum().backward()
    assert q.grad.shape == (4, 6) and v.grad.shape == (4, 6) and k.grad is None


def test_attention_rejects_misfit_operands():
    a = t(np.ones((4, 6)))
    with pytest.raises(ShapeError):
        attention(a, t(np.ones((5, 6))), a, heads=2)
    for heads in (0, 4):
        with pytest.raises(ShapeError):
            attention(a, a, a, heads=heads)
    with pytest.raises(ShapeError):
        attention(a, a, Tensor(np.ones((4, 6), np.float32)), heads=2)
    # a query with fewer rows still needs k and v of one shape, its width and its leading axes
    kv = t(np.ones((3, 5, 6)))
    for q, k, v in [(t(np.ones((3, 1, 6))), kv, t(np.ones((3, 4, 6)))),
                    (t(np.ones((3, 1, 8))), kv, kv),
                    (t(np.ones((2, 1, 6))), kv, kv),
                    (t(np.ones((1, 6))), kv, kv),
                    (a, t(np.ones(6)), t(np.ones(6)))]:
        with pytest.raises(ShapeError):
            attention(q, k, v, heads=2)


QUERY_ROWS = [((2, 5, 8), (2, 1, 8)), ((9, 8), (3, 8))]


@pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-14)],
                         ids=["f32", "f64"])
@pytest.mark.parametrize("kv_shape, q_shape", QUERY_ROWS, ids=["batch", "image"])
def test_attention_with_fewer_query_rows_is_those_rows_of_the_full_output(
        dtype, rtol, kv_shape, q_shape):
    rng = np.random.default_rng(25)
    q, k, v = (rng.normal(size=kv_shape).astype(dtype) for _ in range(3))
    rows = q_shape[-2]
    full = attention(Tensor(q), Tensor(k), Tensor(v), heads=2).data
    out = attention(Tensor(q[..., :rows, :]), Tensor(k), Tensor(v), heads=2)
    assert out.shape == q_shape and out.dtype == dtype
    want = full[..., :rows, :]
    assert np.abs(out.data - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("kv_shape, q_shape", QUERY_ROWS, ids=["batch", "image"])
def test_attention_with_fewer_query_rows_finite_differences(kv_shape, q_shape):
    rng = np.random.default_rng(26)
    params = {"q": t(rng.normal(size=q_shape)), "k": t(rng.normal(size=kv_shape)),
              "v": t(rng.normal(size=kv_shape))}
    weight = Tensor(rng.normal(size=q_shape))

    def loss():
        return (attention(params["q"], params["k"], params["v"], heads=2) * weight).sum()

    report = finite_diff_check(loss, params)
    assert set(report.entries) == set(params)
    assert report.passed, report.entries


@given(st.integers(1, 5), st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_attention_rows_sum_to_one(rows, heads, seed):
    # every v row equal: the output is that row wherever the weights sum to one
    rng = np.random.default_rng(seed)
    width = 2 * heads
    q, k = (Tensor(rng.normal(0, 5, (rows, width))) for _ in range(2))
    row = rng.normal(size=width)
    out = attention(q, k, Tensor(np.tile(row, (rows, 1))), heads)
    assert np.allclose(out.data, np.broadcast_to(row, (rows, width)), rtol=0.0, atol=1e-12)


def test_attention_shift_invariance():
    # adding one vector u to every k row adds q·u to a whole row of scores
    rng = np.random.default_rng(23)
    q, k, v = (rng.normal(size=(2, 5, 8)) for _ in range(3))
    u = rng.normal(0.0, 10.0, 8)
    a = attention(Tensor(q), Tensor(k), Tensor(v), heads=2).data
    b = attention(Tensor(q), Tensor(k + u), Tensor(v), heads=2).data
    assert np.allclose(a, b, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_attention_is_stable_at_large_scores(dtype):
    # scores near 1000: exp without the max subtraction would overflow
    rng = np.random.default_rng(24)
    q = np.full((4, 8), 22.5, dtype=dtype)
    k = (22.5 + rng.normal(size=(4, 8))).astype(dtype)
    scores = q[:, :4] @ k[:, :4].T / 2.0
    assert 900.0 < scores.min() and scores.max() < 1100.0
    out = attention(Tensor(q), Tensor(k), Tensor(rng.normal(size=(4, 8)).astype(dtype)), heads=2)
    assert np.isfinite(out.data).all()


def test_layer_norm_rejects_width_one():
    # one feature has zero variance by construction: every row would map to beta
    with pytest.raises(ShapeError, match=r"^layer_norm needs feature dimension >= 2, got \(3, 1\)"):
        layer_norm(t(np.ones((3, 1))), t(np.ones(1)), t(np.zeros(1)))


def test_layer_norm_rejects_a_scale_wider_than_its_output():
    # the backward would otherwise leave x.grad with the scale's (4, 3, 2) shape
    x, gamma, beta = t(np.arange(6.0).reshape(3, 2)), t(np.ones(2)), t(np.zeros(2))
    with pytest.raises(ShapeError, match="^scale or shift does not fit the layer_norm output"):
        layer_norm(x, gamma, beta, (t(np.ones((4, 3, 2))), t(np.ones(2))))


@pytest.mark.parametrize("gamma_shape, beta_shape", [
    pytest.param((4, 3, 2), (2,), id="wide_gamma"),
    pytest.param((2,), (4, 3, 2), id="wide_beta"),
])
def test_layer_norm_rejects_an_affine_wider_than_its_input(gamma_shape, beta_shape):
    # the backward would otherwise leave x.grad with the affine's (4, 3, 2) shape
    x = t(np.arange(6.0).reshape(3, 2))
    with pytest.raises(ShapeError, match=r"^gamma \(.*\) does not fit the layer_norm input"):
        layer_norm(x, t(np.ones(gamma_shape)), t(np.zeros(beta_shape)))


def test_layer_norm_computes_no_gradient_for_frozen_operands():
    # every PEFT method freezes gamma and beta, and layer 0's input is the frozen patch embedding
    rng = np.random.default_rng(27)
    x, gamma, beta = (t(rng.normal(size=shape), False) for shape in ((2, 5, 8), 8, 8))
    out = layer_norm(x, gamma, beta, (t(rng.normal(size=8)), t(rng.normal(size=8))))
    dx, dgamma, dbeta, ds, df = out._backward(rng.normal(size=(2, 5, 8)))
    assert dx is None and dgamma is None and dbeta is None
    assert ds.shape == df.shape == (8,)


def test_layer_norm_statistics():
    x = Tensor(np.random.default_rng(0).normal(3, 2, (5, 8)))
    gamma = t(np.ones(8))
    beta = t(np.zeros(8))
    out = layer_norm(x, gamma, beta)
    assert np.allclose(out.data.mean(axis=1), 0.0, atol=1e-10)
    assert np.allclose(out.data.var(axis=1), 1.0, atol=1e-3)


def _scale_shift_node(op, x, first, second, s, f, fused=True):
    """`layer_norm(x, γ, β)` or `matmul(x, W, b)`, then `* s + f`: as one node,
    or from the separate ops with a bias-free `matmul`."""
    if fused:
        return {"layer_norm": layer_norm, "matmul": matmul}[op](x, first, second, (s, f))
    y = layer_norm(x, first, second) if op == "layer_norm" else matmul(x, first) + second
    return y * s + f


# x (..., 8) maps to width 8 through a LayerNorm and to width 5 through a matrix
SCALE_SHIFT_WIDTH = {"layer_norm": 8, "matmul": 5}


@pytest.mark.parametrize("op, shape", [
    pytest.param("layer_norm", (5, 8), id="image"),
    pytest.param("layer_norm", (2, 5, 8), id="batch"),
    pytest.param("matmul", (5, 8), id="matmul-image"),
    pytest.param("matmul", (2, 5, 8), id="matmul-batch"),
])
def test_layer_norm_scale_shift_finite_differences(op, shape):
    rng = np.random.default_rng(25)
    n = SCALE_SHIFT_WIDTH[op]
    x = t(rng.normal(3, 2, shape))
    first = t(rng.normal(1, 0.2, 8) if op == "layer_norm" else rng.normal(size=(8, n)))
    params = {"x": x, "first": first, "second": t(rng.normal(size=n)),
              "s": t(rng.normal(1, 0.2, n)), "f": t(rng.normal(size=n))}
    weight = Tensor(rng.normal(size=shape[:-1] + (n,)))
    report = finite_diff_check(lambda: (_scale_shift_node(op, **params) * weight).sum(), params)
    assert set(report.entries) == set(params)
    assert report.passed, report.entries


@pytest.mark.parametrize("op, shape, dtype", [
    pytest.param("layer_norm", (2, 5, 8), np.float32, id="f32"),
    pytest.param("layer_norm", (2, 5, 8), np.float64, id="f64"),
] + [
    pytest.param("matmul", shape, dtype, id=f"matmul-{rows}-{precision}")
    for rows, shape in (("2d", (5, 8)), ("stack", (2, 5, 8)))
    for dtype, precision in ((np.float32, "f32"), (np.float64, "f64"))
])
def test_layer_norm_scale_shift_matches_composed_ops_bitwise(op, shape, dtype):
    rng = np.random.default_rng(26)
    n = SCALE_SHIFT_WIDTH[op]
    x = Tensor(rng.normal(3, 2, shape).astype(dtype), requires_grad=True)
    inputs = {"x": x}
    for name, extent in (("first", 8 if op == "layer_norm" else (8, n)), ("second", n),
                         ("s", n), ("f", n)):
        inputs[name] = Tensor(rng.normal(size=extent).astype(dtype), requires_grad=True)
    weight = Tensor(rng.normal(size=shape[:-1] + (n,)).astype(dtype))
    runs = []
    for fused in (True, False):
        zero_grads(inputs)
        y = _scale_shift_node(op, **inputs, fused=fused)
        (y * weight).sum().backward()
        runs.append([y.data] + [a.grad for a in inputs.values()])
    for got, ref in zip(*runs):
        assert got.dtype == dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("op", ["layer_norm", "matmul"])
def test_scale_shift_passes_back_only_a_gradient_that_is_read(op, monkeypatch):
    # layer 0's ln1 under rlrr and ssf: its input, gamma and beta are frozen, only (s, f) train
    original, passed_back = autodiff._scale_shift_backward, []
    monkeypatch.setattr(autodiff, "_scale_shift_backward",
                        lambda *args: passed_back.append(original(*args)) or passed_back[-1])
    rng = np.random.default_rng(28)
    n = SCALE_SHIFT_WIDTH[op]
    x = t(rng.normal(3, 2, (2, 5, 8)), False)
    first = t(rng.normal(size=8 if op == "layer_norm" else (8, n)), False)
    second, s, f = (t(rng.normal(size=n), trains) for trains in (False, True, True))
    weight = Tensor(rng.normal(size=(2, 5, n)))
    grads = []
    for fused in (True, False):
        zero_grads({"s": s, "f": f})
        (_scale_shift_node(op, x, first, second, s, f, fused) * weight).sum().backward()
        grads.append(s.grad.tobytes() + f.grad.tobytes())
    assert grads[0] == grads[1]
    assert len(passed_back) == 1 and passed_back[0][0] is None


def test_gelu_reference_values():
    x = Tensor(np.array([0.0, 1.0, -1.0]))
    out = gelu(x)
    phi = lambda v: 0.5 * (1 + math.erf(v / math.sqrt(2)))
    expected = [0.0, 1.0 * phi(1.0), -1.0 * phi(-1.0)]
    assert np.allclose(out.data, expected, atol=1e-12)


def test_gelu_preserves_dtype():
    x = Tensor(np.linspace(-3, 3, 7, dtype=np.float32), requires_grad=True)
    y = gelu(x)
    y.sum().backward()
    assert y.dtype == np.float32 and x.grad.dtype == np.float32
    assert gelu(Tensor(np.float32(1.0))).dtype == np.float32


def _phi_exact(x: np.ndarray) -> np.ndarray:
    """Φ(x) in float64 from math.erf, one value at a time."""
    return np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x.astype(np.float64)])


def _phi32(x) -> np.ndarray:
    return autodiff._phi(np.asarray(x, dtype=np.float32))


def test_phi_kernel_within_5e7_of_erf():
    x = np.linspace(-10, 10, 400_001, dtype=np.float32)
    assert np.abs(_phi32(x) - _phi_exact(x)).max() <= 5e-7


def test_phi_kernel_is_symmetric():
    x = np.linspace(0, 10, 100_001, dtype=np.float32)
    total = _phi32(x).astype(np.float64) + _phi32(-x)
    assert np.abs(total - 1.0).max() <= np.finfo(np.float32).eps


def test_phi_kernel_stays_in_the_unit_interval_and_is_flat_beyond_the_clamp():
    # every float32 from 4 to the clamp, where rounding is closest to 0 and 1
    bits = np.float32([4.0, autodiff._PHI_CLAMP]).view(np.int32)
    tail = np.arange(bits[0], bits[1] + 1, dtype=np.int32).view(np.float32)
    x = np.concatenate([np.linspace(-10, 10, 100_001, dtype=np.float32), tail, -tail])
    phi = _phi32(x)
    assert phi.min() >= 0.0 and phi.max() <= 1.0
    beyond = np.float32([autodiff._PHI_CLAMP, 6.0, 1e3, 3e38, np.inf])
    assert np.array_equal(_phi32(beyond), np.ones(5))
    assert np.array_equal(_phi32(-beyond), np.zeros(5))


def test_phi_kernel_coefficients_are_the_fit():
    """Refit `autodiff._PHI_P` / `_PHI_Q` the way their comment says."""
    clamp, points, rounds = 4.0 * math.sqrt(2.0), 4000, 8
    x = np.arange(1, points + 1) * (clamp / points)
    y = _phi_exact(x) - 0.5
    u = (x / clamp) ** 2
    degree = len(autodiff._PHI_P) - 1
    powers = u[:, None] ** np.arange(degree + 1)
    weight = np.ones_like(x)
    for _ in range(rounds):
        a = np.hstack([x[:, None] * powers, -y[:, None] * powers[:, 1:]])
        coef = np.linalg.lstsq(a * weight[:, None], y * weight, rcond=None)[0]
        q = np.concatenate([[1.0], coef[degree + 1:]])
        weight = 1.0 / (powers @ q)
    fold = clamp ** (-2.0 * np.arange(degree + 1))
    assert np.allclose(coef[:degree + 1] * fold, autodiff._PHI_P, rtol=1e-8, atol=0)
    assert np.allclose(q * fold, autodiff._PHI_Q, rtol=1e-8, atol=0)


# every (value, dtype) pair an op takes as a `_scalar`: LayerNorm widths, LN_EPS and 1,
# attention's 1 / sqrt(Dh), and the GELU kernels' constants; 1e-6, most 1 / sqrt(Dh)
# and the Φ coefficients round in float32
SCALAR_VALUES = ([8, 15, 16, 32, 48, 64, 256, LN_EPS, 1.0, 0.0, 0.5, -0.5]
                 + [1.0 / math.sqrt(dh) for dh in (2, 3, 4, 8, 16)]
                 + [autodiff._PHI_CLAMP, -autodiff._PHI_CLAMP, autodiff._INV_SQRT2,
                    autodiff._INV_SQRT2PI, *autodiff._PHI_P, *autodiff._PHI_Q])


def test_scalar_is_one_read_only_array_per_value_and_dtype():
    c = autodiff._scalar(LN_EPS, np.dtype(np.float32))
    assert c is autodiff._scalar(LN_EPS, np.dtype(np.float32))
    assert c is not autodiff._scalar(LN_EPS, np.dtype(np.float64))
    assert (c.shape, c.dtype) == ((), np.float32)
    with pytest.raises(ValueError):
        c[...] = 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("op", [np.add, np.subtract, np.multiply, np.divide, np.maximum,
                                np.minimum], ids=lambda op: op.__name__)
def test_scalar_operand_equals_the_python_scalar_bitwise(op, dtype):
    # NEP 50 rounds a Python scalar to the array operand's dtype, as `_scalar` does
    rng = np.random.default_rng(34)
    x = np.concatenate([rng.normal(0.0, 3.0, 64), rng.normal(0.0, 1e-4, 16),
                        [0.0, -0.0, 1e30, -1e30, np.inf, -np.inf]]).astype(dtype)
    for v in SCALAR_VALUES:
        c = autodiff._scalar(v, np.dtype(dtype))
        with np.errstate(all="ignore"):  # 0 · inf and x / 0 give their NaN and inf bits too
            pairs = ((op(x, c), op(x, v)), (op(c, x), op(v, x)))
        for (got, want), side in zip(pairs, ("x op v", "v op x")):
            _assert_bitwise(f"{op.__name__}, {side}, v = {v!r}", got, want)


def _gelu_and_grad(x: np.ndarray, weight: np.ndarray):
    xt = Tensor(x, requires_grad=True)
    y = gelu(xt)
    (y * Tensor(weight)).sum().backward()
    return y.data, xt.grad


def test_f64_gelu_is_the_scipy_formula_bitwise():
    erf = pytest.importorskip("scipy.special").erf
    rng = np.random.default_rng(31)
    x, weight = rng.normal(0, 3, (16, 5, 32)), rng.normal(size=(16, 5, 32))
    phi = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
    pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    y, gx = _gelu_and_grad(x, weight)
    assert y.tobytes() == (x * phi).tobytes()
    assert gx.tobytes() == (weight * (phi + x * pdf)).tobytes()


def test_f64_gelu_without_scipy_uses_math_erf(monkeypatch):
    erf = pytest.importorskip("scipy.special").erf
    rng = np.random.default_rng(32)
    x, weight = rng.normal(0, 3, (5, 32)), rng.normal(size=(5, 32))
    phi = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
    pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    monkeypatch.setattr(autodiff, "_erf", np.vectorize(math.erf))
    y, gx = _gelu_and_grad(x, weight)
    assert y.dtype == np.float64
    assert np.abs(y - x * phi).max() <= 1e-15
    assert np.abs(gx - weight * (phi + x * pdf)).max() <= 1e-15


_WITHOUT_SCIPY = """
import math, sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
import numpy as np
from peftlab import autodiff
from peftlab.cli import run
assert isinstance(autodiff._erf, np.vectorize)
x = np.random.default_rng(33).normal(0, 3, (5, 32))
phi = 0.5 * (1.0 + np.vectorize(math.erf)(x * (1.0 / math.sqrt(2.0))))
y = autodiff.gelu(autodiff.Tensor(x)).data
assert y.dtype == np.float64 and np.abs(y - x * phi).max() == 0.0
sys.exit(run(["count-params", "--config", sys.argv[1]]))
"""


def test_the_package_runs_without_scipy(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dim = 16\nlayers = 1\nheads = 2\n")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(cfg)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "total with head" in done.stdout


def _leading_sum(a: np.ndarray) -> np.ndarray:
    while a.ndim > 1:
        a = a.sum(axis=0)
    return a


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("shape", [(1, 2), (5, 64), (16, 5, 64), (4, 1, 64), (3, 5, 48)],
                         ids=lambda s: "x".join(map(str, s)))
def test_layer_norm_matches_an_ndarray_mean_reference_bitwise(shape, dtype):
    rng = np.random.default_rng(33)
    n = shape[-1]
    x, grad = (rng.normal(0.5, 2.0, shape).astype(dtype) for _ in range(2))
    gamma, beta = (rng.normal(1.0, 0.3, n).astype(dtype) for _ in range(2))
    xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
    y = layer_norm(xt, gt, bt)
    (y * Tensor(grad)).sum().backward()
    # the reference takes its statistics with ndarray.mean
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + LN_EPS)
    xhat = xc * inv
    gg = grad * gamma
    dx = inv * (gg - gg.sum(axis=-1, keepdims=True) / n
                - xhat * (gg * xhat).sum(axis=-1, keepdims=True) / n)
    expected = (xhat * gamma + beta, dx, _leading_sum(grad * xhat), _leading_sum(grad))
    for got, ref in zip((y.data, xt.grad, gt.grad, bt.grad), expected):
        assert got.dtype == dtype and got.tobytes() == ref.tobytes()


def test_dropout_inverted_scaling():
    rng = np.random.default_rng(0)
    x = Tensor(np.ones((100, 100)))
    out = dropout(x, 0.5, rng)
    kept = out.data != 0
    assert abs(kept.mean() - 0.5) < 0.05
    assert np.allclose(out.data[kept], 2.0)


def test_dropout_backward_is_upstream_times_mask_over_keep():
    rate, keep = 0.3, 0.7
    x = t(np.random.default_rng(1).normal(size=(3, 5, 4)))
    upstream = np.random.default_rng(2).normal(size=x.shape)
    mask = np.random.default_rng(0).random(x.shape) < keep  # the draw dropout makes
    assert mask.any() and not mask.all()
    out = dropout(x, rate, np.random.default_rng(0))
    (out * Tensor(upstream)).sum().backward()
    assert np.array_equal(x.grad, upstream * (mask / keep))


def test_an_integer_array_becomes_float64():
    assert Tensor(np.arange(3)).dtype == np.float64


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


def test_finite_diff_check_is_fourth_order():
    # the derivative of x⁴ near 0.1: a two-point stencil at the same step is
    # off by h²/x² ≈ 4e-4 relative (2e-4 on the check's |ana| + |num| scale),
    # while the four-point stencil is exact on a quartic up to roundoff
    p = t(np.array([0.1, -0.12, 0.09]))
    report = finite_diff_check(lambda: (p * p * p * p).sum(), {"p": p})
    assert report.passed
    x, h = 0.1, autodiff.FD_STEP
    two_point = ((x + h) ** 4 - (x - h) ** 4) / (2 * h)
    assert abs(two_point - 4 * x**3) / (8 * x**3) > autodiff.FD_TOL


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
