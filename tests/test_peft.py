import numpy as np
import pytest

from peftlab import vit
from peftlab.autodiff import (
    cross_entropy_logits,
    gradients,
    layer_norm,
    matmul,
    no_grad,
    zero_grads,
)
from peftlab.peft import (
    INITS,
    MethodSpec,
    MERGEABLE,
    METHODS,
    PeftModel,
    _MethodHooks,
    _slots,
    attach,
    combine,
    count_trainable,
    merge_model,
)
from peftlab.spectral import effective_rank
from peftlab.train import SyntheticTaskSpec, TrainingConfig, evaluate, make_synthetic_task, train
from peftlab.vit import MATRIX_KINDS, ConfigError, ForwardHooks, ViTConfig, forward

from conftest import composed_linear, fresh_model, tape


def random_images(n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(8, 8, 1)) for _ in range(n)]


def random_rlrr_models(tiny_config, rng, n):
    """`n` rlrr models on one backbone, each method tensor and the head drawn from `rng`."""
    pms = [attach(MethodSpec(method="rlrr"), fresh_model(tiny_config)) for _ in range(n)]
    for pm in pms:
        for t in pm.trainable().values():
            t.data[...] = rng.normal(size=t.shape)
    return pms


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
    if method.startswith("vpt"):  # zero prompt tokens attach no tensor at all
        assert not pm.method_tensors()
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
    variants = [(method, {}) for method in METHODS] + [
        ("rlrr", {"scale_left": False}), ("rankr_rlrr", {"scale_right": False}),
        ("rlrr_no_residual", {"scale_right": False}),
    ]
    for method, options in variants:
        spec = MethodSpec(method=method, rank=2, prompts=2, **options)
        pm = attach(spec, fresh_model(tiny_config), seed=0)
        # each slot record holds exactly the names and shapes `_slots` yields, in its order
        assert [(key, [(name, t.shape) for name, t in p.items()]) for key, p in pm.params.items()] \
            == [(key, list(shapes.items())) for key, shapes in _slots(spec, tiny_config)]
        fixed = {"S_left": not spec.scale_left, "S_right": not spec.scale_right}
        saved_as = {"S_left": "W_down", "S_right": "W_up"} if method == "lora" else {}
        expected, frozen = [], 0
        for key, p in sorted(pm.params.items()):
            assert method != "lora" or "f" not in p, key  # LoRA has no shift
            for name, t in p.items():
                if fixed.get(name):  # in the record, frozen to ones, not a method tensor
                    assert not t.requires_grad and np.all(t.data == 1), (method, key, name)
                    frozen += 1
                else:
                    expected.append(f"peft.{method}.{key}.{saved_as.get(name, name)}")
        assert (frozen > 0) == bool(options), (method, options)
        # sorted slot keys, then each slot's field order: the order `combine` zips
        assert list(pm.method_tensors()) == expected, (method, options)


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
    # the zero-initialized factor (lora's W_up) needs values for a nonzero delta
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
    """An attached model whose method tensors all carry N(0, 0.05) noise; for
    "full", the backbone itself, with every tensor trainable and noisy."""
    if method == "full":  # init_model leaves every tensor trainable
        pm = fresh_model(tiny_config, dtype)
        tensors = pm.trainable()
    else:
        pm = attach(MethodSpec(method=method, prompts=2), fresh_model(tiny_config, dtype), seed=2)
        tensors = pm.method_tensors()
    rng = np.random.default_rng(10)
    for t in tensors.values():
        t.data += rng.normal(0.0, 0.05, t.shape).astype(dtype)
    return pm


@pytest.mark.parametrize("method", METHODS + ("full",))
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


def _all_rows_forward(images, model, hooks):
    """The forward with every token row through every layer, then the class
    token sliced: the reference for `forward`'s class-token last layer."""
    x = vit.patch_embed(images, model, hooks)
    for layer in range(model.config.layers):
        x = vit.encoder_layer(x, model, layer, hooks)
    cls = hooks.layer_norm("final_ln", x.slice_rows(0, 1), model.slot("final_ln"))
    logits = hooks.linear("head", cls, model.slot("head"))
    return logits.reshape(*x.shape[:-2], model.config.classes)


@pytest.mark.parametrize("method", METHODS + ("full",))
def test_class_token_last_layer_matches_the_all_rows_forward(tiny_config, method, monkeypatch):
    pm = noisy_method(tiny_config, method)
    model, hooks = (pm, ForwardHooks()) if method == "full" else (pm.base, pm.hooks)
    run, params = pm.forward, pm.trainable()
    images = np.stack(random_images(3, seed=20))
    labels = np.array([1, 3, 0])
    gelu_inputs = []
    gelu = vit.gelu
    monkeypatch.setattr(vit, "gelu", lambda x: gelu_inputs.append(x.shape) or gelu(x))
    results = []
    for fn in (run, lambda x: _all_rows_forward(x, model, hooks)):
        zero_grads(params)
        logits = fn(images)
        grads = gradients(cross_entropy_logits(logits, labels), params)
        results.append((logits.data.copy(), {k: g.copy() for k, g in grads.items()}))
    hidden, rows = tiny_config.hidden, gelu_inputs[0][-2]
    assert gelu_inputs == [(3, rows, hidden), (3, 1, hidden), (3, rows, hidden), (3, rows, hidden)]
    (logits, grads), (ref_logits, ref_grads) = results
    assert np.abs(logits - ref_logits).max() <= 1e-12 * np.abs(ref_logits).max()
    step_max = max(np.abs(g).max() for g in ref_grads.values())
    for k, ref in ref_grads.items():
        # a k bias or shift moves every score of a query equally: its true gradient is 0
        scale = step_max if k.endswith((".k.b", ".k.f")) else np.abs(ref).max()
        assert np.abs(grads[k] - ref).max() <= 1e-12 * scale, (method, k)


def noisy_biases(pm, seed=18):
    """`pm`, with N(0, 0.05) in every bias of its backbone: a zero bias makes
    `b + f` and `f` the same number, which hides a difference in the order of the adds."""
    rng = np.random.default_rng(seed)
    for slot in pm.base.slots.values():
        if slot.b is not None:
            slot.b.data += rng.normal(0.0, 0.05, slot.b.shape).astype(slot.b.dtype)
    return pm


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("method", METHODS)
def test_no_grad_blocks_give_grad_mode_logits_bitwise(tiny_config, method, dtype):
    # a mergeable method runs its merged backbone inside no_grad, so the grad-mode
    # reference is that backbone's forward; adapters and prompts stay attached
    pm = noisy_biases(noisy_method(tiny_config, method, dtype))
    images = [img.astype(dtype) for img in random_images(2, seed=15)]
    reference = (lambda img: forward(img, merge_model(pm))) if method in MERGEABLE else pm.forward
    expected = [reference(img).data for img in images]  # grad mode
    for _ in range(2):  # the second block starts from an empty map
        with no_grad():
            for img, ref in zip(images, expected):
                out = pm.forward(img).data
                assert out.dtype == dtype and out.tobytes() == ref.tobytes(), method


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-10)],
                         ids=["f32", "f64"])
@pytest.mark.parametrize("method", MERGEABLE)
def test_no_grad_logits_of_a_mergeable_method_agree_with_its_attached_forward(
        tiny_config, method, dtype, tol):
    # the merged slot adds b + f once where the attached node adds b, then f, and
    # SSF scales W and b before the product rather than the product after it
    pm = noisy_biases(noisy_method(tiny_config, method, dtype))
    images = np.stack(random_images(4, seed=19)).astype(dtype)
    attached = pm.forward(images).data  # grad mode
    with no_grad():
        merged = pm.forward(images).data
    assert merged.dtype == dtype and np.abs(merged - attached).max() < tol, method
    assert np.array_equal(merged.argmax(axis=-1), attached.argmax(axis=-1)), method


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
    # one W' per adapted slot (2 layers x 6), built by the block's merge, not per image
    assert len(weight_builds) == 12


@pytest.mark.parametrize("keys, message", [
    pytest.param({"method": "bogus"}, "unknown method 'bogus'", id="method"),
    pytest.param({"matrix_slots": ("q", "x")}, "unknown matrix slots ['x']", id="slot"),
    pytest.param({"scale_left": False, "scale_right": False},
                 "at least one of scale_left/scale_right must be set", id="no-side"),
    # a repeated slot would count and draw its factors twice
    pytest.param({"matrix_slots": ("q", "v", "q")}, "matrix_slots lists 'q' more than once",
                 id="repeated-slot"),
    pytest.param({"method": "adapter", "adapter_positions": ("ffn", "mha", "ffn")},
                 "adapter_positions lists 'ffn' more than once", id="repeated-position"),
    # no hook reads an adapter placed anywhere but after the MHA or FFN block
    *[pytest.param({"method": "adapter", "bottleneck": 2, "adapter_positions": positions},
                   f"unknown adapter_positions [{bad!r}]", id=f"position-{bad}")
      for positions, bad in ((("attn",), "attn"), (("mha", "ffn", "head"), "head"))],
    *[pytest.param({"method": method, "init": "bogus"},
                   "unknown init 'bogus'; expected one of ('lora', 'normal')",
                   id=f"init-{method}") for method in METHODS],
])
def test_spec_rejects_a_bad_key(keys, message):
    with pytest.raises(ConfigError) as info:
        MethodSpec(**keys)
    assert str(info.value).startswith(message), info.value


@pytest.mark.parametrize("method", METHODS + ("full",))
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
    # atol: a bias or shift on k moves every score of a query equally, so its
    # true gradient is 0 and both sides hold only rounding (~1e-20)
    for k in params:
        assert np.allclose(batched[k], mean[k], rtol=1e-12, atol=1e-15), (method, k)


class ComposedHooks(_MethodHooks):
    """Matrix and LayerNorm slots built from separate autodiff ops, with a
    bias-free `matmul`: the reference for the fused `matmul` and `layer_norm`
    nodes."""

    def linear(self, key, x, host):
        p = self.model.params.get(key)
        if p is not None and "S_left" in p:
            return composed_linear(x, host.w, host.b, p["S_left"], p["S_right"], p.get("f"),
                                   self.model.spec.residual)
        y = matmul(x, host.w) + host.b
        return y if p is None else y * p["s"] + p["f"]  # a plain slot, or an SSF pair

    def layer_norm(self, key, x, host):
        p = self.model.params.get(key)
        if p is None:
            return super().layer_norm(key, x, host)
        return layer_norm(x, host.w, host.b) * p["s"] + p["f"]


FUSED_VARIANTS = [
    pytest.param("rlrr", {}, id="rlrr"),
    pytest.param("rankr_rlrr", {}, id="rankr_rlrr"),
    pytest.param("rlrr_no_residual", {}, id="rlrr_no_residual"),
    pytest.param("rlrr", {"scale_left": False}, id="rlrr-right_only"),
    pytest.param("rlrr", {"residual": False}, id="rlrr-residual_off"),
    pytest.param("rankr_rlrr", {"scale_right": False}, id="rankr_rlrr-left_only"),
    pytest.param("lora", {}, id="lora"),
    pytest.param("ssf", {}, id="ssf"),
    pytest.param("full", {}, id="full"),  # the plain backbone, every weight trainable
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
    for composed in (False, True):
        if method == "full":
            pm = PeftModel(fresh_model(tiny_config, dtype), MethodSpec(), {})
            fused = ForwardHooks()
        else:
            spec = MethodSpec(method=method, rank=2, **options)
            pm = attach(spec, fresh_model(tiny_config, dtype), seed=2)
            rng = np.random.default_rng(16)
            for t in pm.method_tensors().values():
                t.data += rng.normal(0.0, 0.05, t.shape).astype(dtype)
            fused = pm.hooks
        pm.hooks = ComposedHooks(pm) if composed else fused
        logits = pm.forward(x)
        loss = cross_entropy_logits(logits, y)
        grads = gradients(loss, {**pm.method_tensors(), **pm.base.trainable()})
        runs.append((logits.data, loss.data, {k: g.copy() for k, g in grads.items()}))
    (logits, loss, grads), (ref_logits, ref_loss, ref_grads) = runs
    assert logits.dtype == dtype and logits.tobytes() == ref_logits.tobytes()
    assert loss.tobytes() == ref_loss.tobytes()
    assert grads.keys() == ref_grads.keys()
    for k, g in ref_grads.items():
        assert grads[k].tobytes() == g.tobytes(), k


def test_each_adapted_slot_is_one_tape_node(tiny_config):
    img = random_images(1, seed=17)[0]
    base = fresh_model(tiny_config)
    # full: every slot of the plain backbone, all trainable, with its w and b
    runs = {"full": (forward(img, base), {key: (host, None) for key, host in base.slots.items()})}
    for method in ("rlrr", "lora", "ssf"):  # with their LayerNorm slots; lora: q and v
        pm = noisy_method(tiny_config, method)
        runs[method] = (pm.forward(img),
                        {key: (pm.base.slot(key), p) for key, p in pm.params.items()})
    matrix_slots_per_layer = {"full": 6, "rlrr": 6, "lora": 2, "ssf": 6}
    for method, (logits, slots) in runs.items():
        nodes = tape(logits)[0]
        matrix_slots = [k for k in slots if k.rpartition(".")[2] in MATRIX_KINDS]
        assert len(matrix_slots) == matrix_slots_per_layer[method] * tiny_config.layers, method
        for key, (host, p) in slots.items():
            tensors = (host.w, host.b) + (tuple(p.values()) if p is not None else ())
            inputs = {id(t) for t in tensors if t is not None}
            users = [n for n in nodes if inputs & {id(q) for q in n._parents}]
            assert len(users) == 1, f"{method} {key} spreads over {len(users)} tape nodes"
            assert inputs <= {id(q) for q in users[0]._parents}, (method, key)


def test_training_step_tape_node_counts(tiny_config):
    # a B = 16 step at L = 2: per layer, attention is one node, and each matrix
    # slot and each LayerNorm slot is one node with its bias and any scale and shift;
    # the last layer slices its class-token rows twice (q's input and the residual)
    images = np.stack(random_images(16, seed=18))
    labels = np.arange(16) % tiny_config.classes
    base = fresh_model(tiny_config)
    forward_fns = {"full": lambda x: forward(x, base)}
    for method in ("rlrr", "ssf"):
        forward_fns[method] = attach(MethodSpec(method=method), fresh_model(tiny_config),
                                     seed=0).forward
    counts = {name: len(tape(cross_entropy_logits(forward_fn(images), labels))[0])
              for name, forward_fn in forward_fns.items()}
    assert counts == {"rlrr": 30, "ssf": 30, "full": 33}


@pytest.mark.parametrize("method", ["rlrr", "lora"])
def test_train_steps_match_composed_ops_bitwise(tiny_config, method):
    task = make_synthetic_task(SyntheticTaskSpec(
        seed=0, classes=4, images_per_class=4, val_per_class=1, test_per_class=1,
        noise=0.35, shift_mix=0.0, shift_gain=0.0, downstream_noise=0.35,
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


@pytest.mark.parametrize("init", INITS)
def test_default_spec_trains_both_rescaling_factors(tiny_config, init):
    # ΔW = (S_left S_right) ⊙ W is bilinear: from S_left = S_right = 0 neither moves
    task = make_synthetic_task(SyntheticTaskSpec(
        seed=0, classes=4, images_per_class=4, val_per_class=1, test_per_class=1,
        noise=0.35, shift_mix=0.0, shift_gain=0.0, downstream_noise=0.35,
    ), downstream=True)
    pm = attach(MethodSpec(init=init), fresh_model(tiny_config), seed=2)
    factors = {k: t for k, t in pm.method_tensors().items()
               if k.endswith((".S_left", ".S_right"))}
    start = {k: t.data.copy() for k, t in factors.items()}
    train(pm, task, TrainingConfig(learning_rate=0.01, epochs=1, warmup_epochs=0, seed=3,
                                   batch_size=4, max_steps=3))
    assert len(factors) == 24  # 2 layers x 6 matrix slots x 2 factors
    for name, t in factors.items():
        assert np.all(t.data != 0), name
        assert np.all(t.data != start[name]), name


@pytest.mark.parametrize("method", ["adapter", "vpt_shallow", "vpt_deep"])
def test_merge_rejects_nonlinear_methods(tiny_config, method):
    pm = attach(MethodSpec(method=method), fresh_model(tiny_config), seed=0)
    with pytest.raises(ConfigError):
        merge_model(pm)


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


# D = 16, L = 1, rank 2, bottleneck 4, prompts 4, LayerNorm pairs on
PAPER_FORM_D16_L1 = {"rlrr": 528, "rankr_rlrr": 816, "rlrr_no_residual": 816, "lora": 128,
                     "ssf": 384, "adapter": 256, "vpt_shallow": 64, "vpt_deep": 64}


def d16_l1_config():
    return ViTConfig(image_h=8, image_w=8, channels=1, patch=4, dim=16, layers=1, heads=2,
                     classes=4)


@pytest.mark.parametrize("method", METHODS)
def test_paper_form_total(method):
    # rlrr's 3 d* L + LayerNorm and LoRA's 2 |slots| D r are the published forms;
    # every other method reports its exact count, LayerNorm pairs included
    report = count_trainable(MethodSpec(method=method, rank=2), d16_l1_config())
    assert report.paper_form_total == PAPER_FORM_D16_L1[method]
    if method not in ("rlrr", "lora"):
        assert report.paper_form_total == report.backbone_total


@pytest.mark.parametrize("method, slot, paper_form, exact", [
    ("rlrr", "fc1", 3 * 64 + 96, 16 + 64 + 64 + 96),  # 12D against 9D, plus 3 LayerNorm pairs
    ("rlrr", "fc2", 3 * 16 + 96, 64 + 16 + 16 + 96),  # 3D against 6D
    ("lora", "fc1", 2 * 16 * 2, 16 * 2 + 2 * 64),  # as if fc1 were D x D
])
def test_paper_form_total_miscounts_a_non_square_slot(method, slot, paper_form, exact):
    report = count_trainable(MethodSpec(method=method, rank=2, matrix_slots=(slot,)),
                             d16_l1_config())
    assert (report.paper_form_total, report.backbone_total) == (paper_form, exact)


@pytest.mark.parametrize("method, options", [
    pytest.param(method, {}, id=method) for method in METHODS
] + [
    pytest.param("rlrr", {"scale_right": False}, id="rlrr-left_only"),
    pytest.param("rlrr", {"scale_left": False}, id="rlrr-right_only"),
])
def test_count_raises_exactly_when_attach_raises(tiny_config, method, options):
    D = tiny_config.dim  # the min dim of every matrix slot: fc1 and fc2 are D x 4D
    sizes = [dict(rank=r) for r in (D - 1, D, D + 1)] + [dict(bottleneck=b) for b in (D - 1, D)]
    for size in sizes:
        spec = MethodSpec(method=method, **size, **options)
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
        report = count_trainable(spec, tiny_config)
        assert report.backbone_total == sum(t.numel() for t in pm.method_tensors().values()), size
        assert report.total_with_head == sum(t.numel() for t in pm.trainable().values()), size


def test_count_scales_with_layer_range(tiny_config):
    full = count_trainable(MethodSpec(method="rlrr"), tiny_config)
    half = count_trainable(
        MethodSpec(method="rlrr", layer_range=(0, 1)), tiny_config
    )
    assert half.backbone_total < full.backbone_total


def test_attach_rejects_bad_layer_range(tiny_config):
    with pytest.raises(ConfigError):
        count_trainable(MethodSpec(method="rlrr", layer_range=(1, 0)), tiny_config)


def test_sum_of_products_matches_dense_oracle(tiny_config):
    pms = random_rlrr_models(tiny_config, np.random.default_rng(5), 3)
    weights = [0.5, -1.25, 2.0]
    combined = combine(pms, weights, mode="sum_of_products")
    assert (combined.spec.method, combined.spec.rank) == ("rankr_rlrr", 3)
    for key, p in combined.params.items():
        parts = [pm.params[key] for pm in pms]
        f_hat = sum(w * q["f"].data for w, q in zip(weights, parts))
        assert np.abs(p["f"].data - f_hat).max() < 1e-12, key
        if "S_left" not in p:
            continue
        assert p["S_left"].shape == (parts[0]["S_left"].shape[0], 3)
        assert p["S_right"].shape == (3, parts[0]["S_right"].shape[1])
        dense = sum(w * q["S_left"].data @ q["S_right"].data for w, q in zip(weights, parts))
        assert np.abs(dense - p["S_left"].data @ p["S_right"].data).max() < 1e-10, key


def test_combine_rejects_an_unknown_mode(tiny_config):
    pms = random_rlrr_models(tiny_config, np.random.default_rng(7), 2)
    with pytest.raises(ConfigError, match="^unknown combination mode 'bogus'$"):
        combine(pms, [0.5, 0.5], mode="bogus")


def test_weighted_combination_has_cross_terms(tiny_config):
    a, b = random_rlrr_models(tiny_config, np.random.default_rng(6), 2)
    combined = combine([a, b], [1.0, 1.0], mode="weighted")
    assert combined.spec == a.spec
    for key, p in combined.params.items():
        if "S_left" not in p:
            continue
        dense_sum = sum(q["S_left"].data @ q["S_right"].data
                        for q in (a.params[key], b.params[key]))
        # the single weighted adapter includes cross products; it is not the sum
        assert not np.allclose(p["S_left"].data @ p["S_right"].data, dense_sum, atol=1e-6), key


def test_vpt_deep_differs_from_shallow(tiny_config):
    img = random_images(1, seed=9)[0]
    outs = {}
    for method in ("vpt_shallow", "vpt_deep"):
        spec = MethodSpec(method=method, prompts=2, init="normal", init_scale=0.5)
        pm = attach(spec, fresh_model(tiny_config), seed=3)
        outs[method] = pm.forward(img).data
    assert not np.array_equal(outs["vpt_shallow"], outs["vpt_deep"])
