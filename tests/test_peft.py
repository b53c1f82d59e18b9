import numpy as np
import pytest

from peftlab.autodiff import (
    Tensor,
    cross_entropy_logits,
    gradients,
    layer_norm,
    matmul,
    no_grad,
    zero_grads,
)
from peftlab.peft import (
    BindingError,
    MethodSpec,
    METHODS,
    RescaleParams,
    _MethodHooks,
    attach,
    combine_rlrr,
    count_trainable,
    merge_model,
    rescale_forward,
    upgrade_adapter_tensors,
)
from peftlab.spectral import effective_rank
from peftlab.train import SyntheticTaskSpec, TrainingConfig, evaluate, make_synthetic_task, train
from peftlab.vit import ConfigError, forward, init_model


def fresh_model(tiny_config, dtype=np.float64):
    model = init_model(tiny_config, seed=0, dtype=dtype)
    rng = np.random.default_rng(7)
    model.slot("head").w.data[:] = rng.normal(0.0, 0.1, model.slot("head").w.shape)
    return model


def random_images(n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(8, 8, 1)) for _ in range(n)]


def rank1_adapter(rng, m, n, f=True):
    """A random rlrr adapter: rank-1 factors (m, 1), (1, n) and a shift."""
    return RescaleParams(
        S_left=Tensor(rng.normal(size=(m, 1))),
        S_right=Tensor(rng.normal(size=(1, n))),
        f=Tensor(rng.normal(size=n) if f else np.zeros(n)),
    )


@pytest.mark.parametrize("method, options", [
    pytest.param(method, {}, id=method) for method in METHODS
] + [
    pytest.param("rankr_rlrr", {"scale_right": False}, id="rankr_rlrr-left_only"),
    pytest.param("rlrr_no_residual", {"scale_right": False}, id="rlrr_no_residual-left_only"),
    pytest.param("rankr_rlrr", {"scale_left": False}, id="rankr_rlrr-right_only"),
])
def test_identity_at_init(tiny_config, method, options):
    base = fresh_model(tiny_config)
    reference = [forward(img, base).data.copy() for img in random_images(5)]
    # prompt tuning has no parameter value that leaves attention untouched;
    # its neutral configuration is zero prompt tokens
    spec = MethodSpec(method=method, prompts=0 if method.startswith("vpt") else 4, **options)
    pm = attach(spec, fresh_model(tiny_config), seed=1)
    for img, ref in zip(random_images(5), reference):
        out = pm.forward(img).data
        assert np.array_equal(out, ref), method


def test_attach_freezes_backbone(tiny_config):
    pm = attach(MethodSpec(method="rlrr"), fresh_model(tiny_config), seed=0)
    for name, t in pm.base.named_tensors().items():
        if name.startswith("head."):
            assert t.requires_grad
        else:
            assert not t.requires_grad, name
    assert all(t.requires_grad for t in pm.method_tensors().values())


def test_method_tensor_naming(tiny_config):
    pm = attach(MethodSpec(method="rlrr"), fresh_model(tiny_config), seed=0)
    names = set(pm.method_tensors())
    assert "peft.rlrr.l00.q.S_left" in names
    assert pm.method_tensors()["peft.rlrr.l00.q.S_left"].shape == (16, 1)
    assert "peft.rlrr.l00.ln1.s" in names
    assert "peft.rlrr.final_ln.f" in names


def test_randomised_init_breaks_identity(tiny_config):
    base = fresh_model(tiny_config)
    img = random_images(1)[0]
    ref = forward(img, base).data.copy()
    spec = MethodSpec(method="rlrr", init="normal", init_scale=0.1)
    pm = attach(spec, fresh_model(tiny_config), seed=1)
    assert not np.array_equal(pm.forward(img).data, ref)


@pytest.mark.parametrize("method, options", [
    pytest.param(method, {}, id=method)
    for method in ("rlrr", "rankr_rlrr", "rlrr_no_residual", "ssf", "lora")
] + [
    pytest.param("rankr_rlrr", {"residual": False}, id="rankr_rlrr-residual_off"),
    pytest.param("rlrr", {"residual": False}, id="rlrr-residual_off"),
    pytest.param("rlrr", {"scale_left": False}, id="rlrr-right_only"),
    pytest.param("rlrr", {"scale_right": False}, id="rlrr-left_only"),
])
def test_merge_matches_unmerged(tiny_config, method, options):
    spec = MethodSpec(method=method, init="normal", init_scale=0.05, **options)
    pm = attach(spec, fresh_model(tiny_config), seed=2)
    # the zero-initialized factors (rankr_rlrr, lora) need values for a nonzero delta
    rng = np.random.default_rng(8)
    for t in pm.method_tensors().values():
        t.data += rng.normal(0.0, 0.05, t.shape)
    merged = merge_model(pm)
    # a merged checkpoint must load into the backbone it came from
    layout = {k: (t.shape, t.dtype) for k, t in pm.base.named_tensors().items()}
    assert {k: (t.shape, t.dtype) for k, t in merged.named_tensors().items()} == layout
    for img in random_images(10, seed=3):
        a = pm.forward(img).data
        b = forward(img, merged).data
        assert np.abs(a - b).max() < 1e-10, (method, options)


def noisy_method(tiny_config, method, dtype=np.float64):
    """An attached model whose method tensors all carry N(0, 0.05) noise."""
    pm = attach(MethodSpec(method=method, prompts=2), fresh_model(tiny_config, dtype), seed=2)
    rng = np.random.default_rng(10)
    for t in pm.method_tensors().values():
        t.data += rng.normal(0.0, 0.05, t.shape).astype(dtype)
    return pm


@pytest.mark.parametrize("method", METHODS)
def test_batched_forward_matches_per_image(tiny_config, method):
    pm = noisy_method(tiny_config, method)
    images = np.stack(random_images(3, seed=11))
    logits = pm.forward(images)
    assert logits.shape == (3, tiny_config.classes)
    for b, img in enumerate(images):
        assert np.allclose(logits.data[b], pm.forward(img).data, rtol=1e-12, atol=0), method


@pytest.mark.parametrize("method", METHODS)
def test_batched_evaluate_matches_per_image(tiny_config, method):
    pm = noisy_method(tiny_config, method)
    images = np.stack(random_images(7, seed=13))  # batch 4 leaves a ragged chunk of 3
    labels = np.random.default_rng(14).integers(0, tiny_config.classes, size=7)
    # the default passes single (H, W, C) images, one inference per call
    expected_shapes = {1: [(8, 8, 1)] * 7, 4: [(4, 8, 8, 1), (3, 8, 8, 1)], 32: [(7, 8, 8, 1)]}
    results = {}
    for batch, shapes in expected_shapes.items():
        chunks = []

        def spy(xs):
            logits = pm.forward(xs)
            chunks.append((xs.shape, logits.data.reshape(-1, tiny_config.classes)))
            return logits

        acc = evaluate(spy, images, labels, batch=batch)
        assert [shape for shape, _ in chunks] == shapes, (method, batch)
        results[batch] = acc, np.concatenate([rows for _, rows in chunks])
    acc1, logits1 = results[1]
    for batch in (4, 32):
        acc, logits = results[batch]
        assert acc == acc1, (method, batch)
        assert np.allclose(logits, logits1, rtol=1e-12, atol=0), (method, batch)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("method", METHODS)
def test_no_grad_blocks_give_grad_mode_logits_bitwise(tiny_config, method, dtype):
    pm = noisy_method(tiny_config, method, dtype)
    images = random_images(2, seed=15)
    expected = [pm.forward(img.astype(dtype)).data for img in images]  # grad mode
    for _ in range(2):  # the second block starts from an empty map
        with no_grad():
            for img, ref in zip(images, expected):
                out = pm.forward(img.astype(dtype)).data
                assert out.dtype == dtype and out.tobytes() == ref.tobytes(), method


def test_next_no_grad_block_sees_a_changed_factor(tiny_config):
    spec = MethodSpec(method="rlrr", init="normal", init_scale=0.05)
    pm = attach(spec, fresh_model(tiny_config), seed=2)
    img = random_images(1, seed=16)[0]
    with no_grad():
        before = pm.forward(img).data
    pm.method_tensors()["peft.rlrr.l00.q.S_left"].data *= 3.0
    with no_grad():
        after = pm.forward(img).data
        merged = forward(img, merge_model(pm)).data
    assert not np.array_equal(after, before)
    assert np.abs(after - merged).max() < 1e-10


def test_evaluate_builds_each_adapted_weight_once(tiny_config, weight_builds):
    pm = attach(MethodSpec(method="rlrr", init="normal"), fresh_model(tiny_config), seed=2)
    images = np.stack(random_images(8, seed=17))
    labels = np.zeros(8, dtype=int)
    evaluate(pm.forward, images, labels)  # batch = 1: eight single-image calls, one block
    assert len(weight_builds) == 12  # one W' per adapted slot (2 layers x 6), not per image


@pytest.mark.parametrize("method", METHODS)
def test_spec_rejects_an_unknown_init(method):
    with pytest.raises(ConfigError, match="init"):
        MethodSpec(method=method, init="bogus")


@pytest.mark.parametrize("positions", [("attn",), ("mha", "ffn", "head")])
def test_spec_rejects_an_unknown_adapter_position(positions):
    # no hook reads an adapter placed anywhere but after the MHA or FFN block
    with pytest.raises(ConfigError, match=r"^unknown adapter_positions \['(attn|head)'\]"):
        MethodSpec(method="adapter", bottleneck=2, adapter_positions=positions)


@pytest.mark.parametrize("method", METHODS)
def test_batched_gradient_is_mean_of_per_image(tiny_config, method):
    pm = noisy_method(tiny_config, method)
    images = np.stack(random_images(3, seed=12))
    labels = np.array([2, 0, 3])
    params = pm.trainable()
    batched = gradients(cross_entropy_logits(pm.forward(images), labels), params)
    batched = {k: g.copy() for k, g in batched.items()}
    mean = {k: 0.0 for k in params}
    for img, y in zip(images, labels):
        zero_grads(params)
        grads = gradients(cross_entropy_logits(pm.forward(img), int(y)), params)
        for k in params:
            mean[k] = mean[k] + grads[k] / len(labels)
    # atol: a shift on k moves every score of a query equally, so its true
    # gradient is 0 and both sides hold only rounding (~1e-20)
    for k in params:
        assert np.allclose(batched[k], mean[k], rtol=1e-12, atol=1e-15), (method, k)


class ComposedHooks(_MethodHooks):
    """Adapted linear maps and LayerNorm slots built from separate autodiff
    ops: the reference for the fused `adapted_linear` and `layer_norm` nodes."""

    def linear(self, key, x, host):
        p = self.model.params.get(key)
        if not isinstance(p, RescaleParams):
            return super().linear(key, x, host)
        left, right, shift, residual = p.S_left, p.S_right, p.f, self.model.spec.residual
        prod = matmul(left, right)
        y = matmul(x, host.w + (prod * host.w if residual else prod))
        if host.b is not None:
            y = y + host.b
        return y if shift is None else y + shift

    def layer_norm(self, key, x, host):
        p = self.model.params.get(key)
        if p is None:
            return super().layer_norm(key, x, host)
        return layer_norm(x, host.w, host.b) * p.s + p.f


FUSED_VARIANTS = [
    pytest.param("rlrr", {}, id="rlrr"),
    pytest.param("rankr_rlrr", {}, id="rankr_rlrr"),
    pytest.param("rlrr_no_residual", {}, id="rlrr_no_residual"),
    pytest.param("rlrr", {"scale_left": False}, id="rlrr-right_only"),
    pytest.param("rlrr", {"residual": False}, id="rlrr-residual_off"),
    pytest.param("rankr_rlrr", {"scale_right": False}, id="rankr_rlrr-left_only"),
    pytest.param("lora", {}, id="lora"),
    pytest.param("ssf", {}, id="ssf"),
]


@pytest.mark.parametrize("batched", [False, True], ids=["image", "batch"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("method, options", FUSED_VARIANTS)
def test_fused_hooks_match_composed_ops_bitwise(tiny_config, method, options, dtype, batched):
    # one image runs (T, D) rows through each adapted slot, a batch (B, T, D)
    images = np.stack(random_images(3, seed=15))
    labels = np.array([1, 3, 0])
    x, y = (images, labels) if batched else (images[0], int(labels[0]))
    runs = []
    for hooks in (_MethodHooks, ComposedHooks):
        spec = MethodSpec(method=method, rank=2, **options)
        pm = attach(spec, fresh_model(tiny_config, dtype), seed=2)
        rng = np.random.default_rng(16)
        for t in pm.method_tensors().values():
            t.data += rng.normal(0.0, 0.05, t.shape).astype(dtype)
        pm.hooks = hooks(pm)
        logits = pm.forward(x)
        loss = cross_entropy_logits(logits, y)
        grads = gradients(loss, pm.trainable())
        runs.append((logits.data, loss.data, {k: g.copy() for k, g in grads.items()}))
    (logits, loss, grads), (ref_logits, ref_loss, ref_grads) = runs
    assert logits.dtype == dtype and logits.tobytes() == ref_logits.tobytes()
    assert loss.tobytes() == ref_loss.tobytes()
    assert grads.keys() == ref_grads.keys()
    for k, g in ref_grads.items():
        assert grads[k].tobytes() == g.tobytes(), k


def _tape(root):
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or not node._parents:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


def test_each_adapted_slot_is_one_tape_node(tiny_config):
    for method, slots_per_layer in (("rlrr", 6), ("lora", 2)):  # lora: q and v, no shift
        pm = noisy_method(tiny_config, method)
        nodes = _tape(pm.forward(random_images(1, seed=17)[0]))
        slots = [(key, p) for key, p in pm.params.items() if isinstance(p, RescaleParams)]
        assert len(slots) == slots_per_layer * tiny_config.layers, method
        for key, p in slots:
            tensors = (pm.base.slot(key).w, p.S_left, p.S_right, p.f)
            inputs = {id(t) for t in tensors if t is not None}
            users = [n for n in nodes if inputs & {id(q) for q in n._parents}]
            assert len(users) == 1, f"{method} {key} spreads over {len(users)} tape nodes"
            assert inputs <= {id(q) for q in users[0]._parents}, (method, key)


def test_training_step_tape_node_counts(tiny_config):
    # a B = 16 step at L = 2: per layer, attention is one node and each of the
    # rlrr's five LayerNorm slots is one node with its scale and shift
    images = np.stack(random_images(16, seed=18))
    labels = np.arange(16) % tiny_config.classes
    base = fresh_model(tiny_config)
    pm = attach(MethodSpec(method="rlrr"), fresh_model(tiny_config), seed=0)
    counts = {name: len(_tape(cross_entropy_logits(forward_fn(images), labels)))
              for name, forward_fn in (("rlrr", pm.forward), ("full", lambda x: forward(x, base)))}
    assert counts == {"rlrr": 30, "full": 46}


@pytest.mark.parametrize("method", ["rlrr", "lora"])
def test_train_steps_match_composed_ops_bitwise(tiny_config, method):
    task = make_synthetic_task(SyntheticTaskSpec(
        seed=0, classes=4, images_per_class=4, val_per_class=1, test_per_class=1,
        noise=0.35, shift_mix=0.0, shift_gain=0.0, downstream_noise=None,
    ), downstream=True)
    cfg = TrainingConfig(learning_rate=0.01, epochs=2, warmup_epochs=0, seed=3,
                         batch_size=4, max_steps=3)
    runs = []
    for hooks in (_MethodHooks, ComposedHooks):
        pm = attach(MethodSpec(method=method, init="normal"), fresh_model(tiny_config, np.float32),
                    seed=2)
        before = {k: t.data.copy() for k, t in pm.method_tensors().items()}
        pm.hooks = hooks(pm)
        history = train(pm, task, cfg)
        after = {k: t.data.copy() for k, t in pm.trainable().items()}
        assert all(not np.array_equal(after[k], v) for k, v in before.items())
        runs.append((history, after))
    (history, after), (ref_history, ref_after) = runs
    assert history == ref_history
    for k, v in ref_after.items():
        assert after[k].dtype == np.float32 and after[k].tobytes() == v.tobytes(), k


def test_residual_flag_changes_the_map(tiny_config):
    img = random_images(1, seed=4)[0]
    outs = []
    for residual in (True, False):
        spec = MethodSpec(method="rlrr", init="normal", init_scale=0.1, residual=residual)
        outs.append(attach(spec, fresh_model(tiny_config), seed=2).forward(img).data)
    assert not np.allclose(outs[0], outs[1])
    assert not MethodSpec(method="rlrr_no_residual").residual


@pytest.mark.parametrize("method", ["adapter", "vpt_shallow", "vpt_deep"])
def test_merge_rejects_nonlinear_methods(tiny_config, method):
    pm = attach(MethodSpec(method=method), fresh_model(tiny_config), seed=0)
    with pytest.raises(ConfigError):
        merge_model(pm)


def test_rlrr_forward_formula():
    from peftlab.vit import ParamMatrix

    rng = np.random.default_rng(0)
    w = rng.normal(size=(6, 4))
    x = Tensor(rng.normal(size=(3, 6)))
    host = ParamMatrix("l00.q", Tensor(w), Tensor(rng.normal(size=4)))
    for rank, residual in ((1, True), (3, True), (2, False)):
        S_left = rng.normal(size=(6, rank))
        S_right = rng.normal(size=(rank, 4))
        f = rng.normal(size=4)
        p = RescaleParams(S_left=Tensor(S_left), S_right=Tensor(S_right), f=Tensor(f))
        out = rescale_forward(x, host, p, residual=residual).data
        delta = S_left @ S_right * w if residual else S_left @ S_right
        expected = x.data @ (w + delta) + host.b.data + f
        assert np.allclose(out, expected, atol=1e-12), (rank, residual)


def test_rescale_forward_rejects_misfit_factors():
    from peftlab.vit import ParamMatrix

    host = ParamMatrix("l00.q", Tensor(np.ones((6, 4))), None)
    p = rank1_adapter(np.random.default_rng(0), 4, 4)
    with pytest.raises(BindingError):
        rescale_forward(Tensor(np.ones((2, 6))), host, p)


@pytest.mark.parametrize("seed, m, n, ranks", [
    pytest.param(1, 10, 8, (1, 2, 3), id="rankr_rlrr"),
    pytest.param(2, 12, 12, (1, 2, 4), id="lora"),
])
def test_low_rank_product_effective_rank_bounded(seed, m, n, ranks):
    # ΔW = S_left S_right, or W_down W_up under LoRA, has effective rank at most r
    rng = np.random.default_rng(seed)
    for r in ranks:
        S_left = rng.normal(size=(m, r))
        S_right = rng.normal(size=(r, n))
        assert effective_rank(S_left @ S_right) <= r


def test_count_matches_enumeration_all_methods(tiny_config):
    for method in METHODS:
        spec = MethodSpec(method=method)
        report = count_trainable(spec, tiny_config)
        pm = attach(spec, fresh_model(tiny_config), seed=0)
        enumerated = sum(t.numel() for t in pm.method_tensors().values())
        assert report.backbone_total == enumerated, method
        head = sum(
            t.numel() for n, t in pm.base.named_tensors().items() if n.startswith("head.")
        )
        assert report.head_params == head


@pytest.mark.parametrize("side", ["scale_left", "scale_right"])
def test_count_matches_enumeration_one_sided(tiny_config, side):
    spec = MethodSpec(method="rlrr", **{side: False})
    pm = attach(spec, fresh_model(tiny_config), seed=0)
    enumerated = sum(t.numel() for t in pm.method_tensors().values())
    assert count_trainable(spec, tiny_config).backbone_total == enumerated
    assert enumerated == sum(t.numel() for n, t in pm.trainable().items()
                             if not n.startswith("head."))


@pytest.mark.parametrize("method", METHODS)
def test_count_raises_exactly_when_attach_raises(tiny_config, method):
    D = tiny_config.dim  # the min dim of every matrix slot: fc1 and fc2 are D x 4D
    sizes = [dict(rank=r) for r in (D - 1, D, D + 1)] + [dict(bottleneck=b) for b in (D - 1, D)]
    for size in sizes:
        spec = MethodSpec(method=method, **size)
        model = fresh_model(tiny_config)
        flags = {n: t.requires_grad for n, t in model.named_tensors().items()}
        try:
            pm = attach(spec, model, seed=0)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as counted:
                count_trainable(spec, tiny_config)
            assert str(counted.value) == str(exc), size
            # a spec that does not fit is rejected before the backbone is frozen
            assert {n: t.requires_grad for n, t in model.named_tensors().items()} == flags
            continue
        enumerated = sum(t.numel() for t in pm.method_tensors().values())
        assert count_trainable(spec, tiny_config).backbone_total == enumerated, size


def test_count_scales_with_layer_range(tiny_config):
    full = count_trainable(MethodSpec(method="rlrr"), tiny_config)
    half = count_trainable(
        MethodSpec(method="rlrr", layer_range=(0, 1)), tiny_config
    )
    assert half.backbone_total < full.backbone_total


def test_attach_rejects_bad_layer_range(tiny_config):
    with pytest.raises(ConfigError):
        count_trainable(MethodSpec(method="rlrr", layer_range=(1, 0)), tiny_config)


def test_one_hot_combination_is_exact():
    rng = np.random.default_rng(4)
    adapters = [rank1_adapter(rng, 6, 4) for _ in range(3)]
    combined = combine_rlrr(adapters, [0.0, 1.0, 0.0], mode="weighted")
    assert np.array_equal(combined.S_left.data, adapters[1].S_left.data)
    assert np.array_equal(combined.S_right.data, adapters[1].S_right.data)
    assert np.array_equal(combined.f.data, adapters[1].f.data)


def test_sum_of_products_matches_dense_oracle():
    rng = np.random.default_rng(5)
    adapters = [rank1_adapter(rng, 6, 4) for _ in range(3)]
    weights = [0.5, -1.25, 2.0]
    combined = combine_rlrr(adapters, weights, mode="sum_of_products")
    assert isinstance(combined, RescaleParams)
    assert combined.S_left.shape == (6, 3) and combined.S_right.shape == (3, 4)
    dense = sum(
        w * np.outer(a.S_left.data, a.S_right.data) for w, a in zip(weights, adapters)
    )
    stacked = combined.S_left.data @ combined.S_right.data
    assert np.abs(dense - stacked).max() < 1e-10
    f_hat = sum(w * a.f.data for w, a in zip(weights, adapters))
    assert np.abs(combined.f.data - f_hat).max() < 1e-12


def test_weighted_combination_has_cross_terms():
    rng = np.random.default_rng(6)
    a, b = (rank1_adapter(rng, 5, 5, f=False) for _ in range(2))
    combined = combine_rlrr([a, b], [1.0, 1.0], mode="weighted")
    dense_sum = a.S_left.data @ a.S_right.data + b.S_left.data @ b.S_right.data
    merged_outer = combined.S_left.data @ combined.S_right.data
    # the single weighted adapter includes cross products; it is not the sum
    assert not np.allclose(merged_outer, dense_sum, atol=1e-6)


def test_combine_rejects_mismatched_weights():
    p = rank1_adapter(np.random.default_rng(0), 2, 2)
    with pytest.raises(BindingError):
        combine_rlrr([p], [1.0, 2.0])


def test_upgrade_adapter_tensors_maps_old_rlrr_layout():
    old = {"peft.rlrr.l00.q.s_left": np.arange(3.0), "peft.rlrr.l00.q.s_right": np.arange(2.0),
           "peft.rlrr.l00.q.f": np.zeros(2), "head.b": np.ones(2)}
    new = upgrade_adapter_tensors(old)
    assert sorted(new) == ["head.b", "peft.rlrr.l00.q.S_left", "peft.rlrr.l00.q.S_right",
                           "peft.rlrr.l00.q.f"]
    assert new["peft.rlrr.l00.q.S_left"].shape == (3, 1)
    assert new["peft.rlrr.l00.q.S_right"].shape == (1, 2)
    with pytest.raises(BindingError):
        upgrade_adapter_tensors({**old, "peft.rlrr.l00.q.S_left": np.zeros((3, 1))})


def test_vpt_deep_differs_from_shallow(tiny_config):
    img = random_images(1, seed=9)[0]
    outs = {}
    for method in ("vpt_shallow", "vpt_deep"):
        spec = MethodSpec(method=method, prompts=2, init="normal", init_scale=0.5)
        pm = attach(spec, fresh_model(tiny_config), seed=3)
        outs[method] = pm.forward(img).data
    assert not np.array_equal(outs["vpt_shallow"], outs["vpt_deep"])
