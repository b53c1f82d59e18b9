import numpy as np
import pytest

import peftlab.train as train_module
from peftlab.autodiff import ShapeError, Tensor, cross_entropy_logits, gradients, no_grad
from peftlab.peft import MethodSpec, attach
from peftlab.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamWState,
    SyntheticTaskSpec,
    TrainingConfig,
    TrainingDiverged,
    adamw_step,
    cosine_warmup_lr,
    evaluate,
    linear_probe,
    make_synthetic_task,
    train,
)
from peftlab.vit import ConfigError, ViTConfig, forward, init_model


def small_task():
    spec = SyntheticTaskSpec(
        seed=0, classes=3, images_per_class=6, val_per_class=2, test_per_class=2,
        image_h=8, image_w=8, channels=1, noise=0.35, shift_mix=0.0, shift_gain=0.0,
        downstream_noise=None,
    )
    return make_synthetic_task(spec)


def test_adamw_matches_manual_reference():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    g = np.array([0.5, 0.25])
    state = AdamWState({"p": p})
    adamw_step(state, {"p": g}, lr=0.1, weight_decay=0.01)

    m = (1 - ADAM_BETA1) * g
    v = (1 - ADAM_BETA2) * g * g
    expected = np.array([1.0, -2.0]) * (1 - 0.1 * 0.01)
    expected -= 0.1 * (m / (1 - ADAM_BETA1)) / (np.sqrt(v / (1 - ADAM_BETA2)) + ADAM_EPS)
    assert np.allclose(p.data, expected, atol=1e-12)


def test_adamw_decay_is_decoupled():
    # with zero gradient the only effect is the multiplicative decay
    p = Tensor(np.array([4.0]), requires_grad=True)
    adamw_step(AdamWState({"p": p}), {"p": np.zeros(1)}, lr=0.5, weight_decay=0.1)
    assert np.isclose(p.data[0], 4.0 * (1 - 0.5 * 0.1))


def test_adamw_skips_frozen():
    p = Tensor(np.array([1.0]), requires_grad=False)
    q = Tensor(np.array([1.0]), requires_grad=True)
    data = p.data
    state = AdamWState({"p": p, "q": q})
    adamw_step(state, {"p": np.ones(1), "q": np.ones(1)}, lr=0.1, weight_decay=0.1)
    assert p.data is data and p.data[0] == 1.0  # not moved into the arena
    assert sorted(state.m) == ["q"] and q.data[0] != 1.0


def test_adamw_moments_are_float64():
    p = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    state = AdamWState({"p": p})
    adamw_step(state, {"p": np.ones(2, dtype=np.float32)}, lr=0.01)
    assert state.m["p"].dtype == np.float64
    assert state.v["p"].dtype == np.float64
    assert p.dtype == np.float32


def test_the_arena_holds_the_trainable_tensors_as_views_in_sorted_order():
    b = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    a = Tensor(np.array([7.0, 8.0]), requires_grad=True)
    state = AdamWState({"b": b, "a": a})
    assert np.array_equal(state.flat, [7.0, 8.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    assert a.data.base is state.flat and b.data.base is state.flat
    assert b.shape == (2, 3) and np.array_equal(b.data, np.arange(6.0).reshape(2, 3))
    assert state.m["b"].shape == (2, 3) and state.m["b"].base is state.m["a"].base


def test_a_tensor_without_a_gradient_keeps_its_value_and_moments():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    q = Tensor(np.array([3.0]), requires_grad=True)
    state = AdamWState({"p": p, "q": q})
    adamw_step(state, {"p": np.array([0.5, 0.25]), "q": np.array([0.5])}, lr=0.1,
               weight_decay=0.01)
    kept = p.data.copy(), state.m["p"].copy(), state.v["p"].copy()
    q_before = q.data.copy()
    adamw_step(state, {"q": np.array([0.5])}, lr=0.1, weight_decay=0.01)
    for now, then in zip((p.data, state.m["p"], state.v["p"]), kept):
        assert np.array_equal(now, then)
    assert q.data[0] != q_before[0]  # the tensor with a gradient still steps


def test_the_arena_rejects_mixed_dtypes():
    params = {"a": Tensor(np.ones(2, dtype=np.float32), requires_grad=True),
              "b": Tensor(np.ones(2), requires_grad=True)}
    with pytest.raises(ShapeError, match="^mixed precision trainable tensors: float32 vs float64$"):
        AdamWState(params)


def test_adamw_refuses_to_run_inside_no_grad(tiny_model):
    # no_grad makes the arena views behind a cached W' read-only; a write to
    # the flat buffer would change them under the cache
    pm = attach(MethodSpec(method="rlrr"), tiny_model, seed=0)
    params = pm.trainable()
    state = AdamWState(params)
    before = state.flat.copy()
    grads = {k: np.ones(p.shape) for k, p in params.items()}
    with no_grad():
        pm.forward(small_task().val_x[:2])
        with pytest.raises(RuntimeError, match="^adamw_step inside no_grad"):
            adamw_step(state, grads, lr=0.1)
    assert np.array_equal(state.flat, before) and state.step == 0
    adamw_step(state, grads, lr=0.1)  # outside the block the views are writeable again
    assert not np.array_equal(state.flat, before)


def reference_adamw(params):
    """The per-tensor AdamW loop the arena replaced, on plain numpy: a
    stand-in for `train.adamw_step` with its own moments."""
    ref = {"step": 0, "m": {}, "v": {}}

    def step(state, grads, lr, weight_decay=0.0):
        ref["step"] += 1
        t = ref["step"]
        bc1 = 1.0 - ADAM_BETA1**t
        bc2 = 1.0 - ADAM_BETA2**t
        for name in sorted(params):
            p = params[name]
            if not p.requires_grad or name not in grads:
                continue
            g = grads[name].astype(np.float64)
            if name not in ref["m"]:
                ref["m"][name] = np.zeros(p.shape, dtype=np.float64)
                ref["v"][name] = np.zeros(p.shape, dtype=np.float64)
            m = ref["m"][name]
            v = ref["v"][name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            if weight_decay > 0.0:
                p.data *= np.asarray(1.0 - lr * weight_decay, dtype=p.dtype)
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            p.data -= (lr * update).astype(p.dtype)

    return step, ref


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("method", ["full", "rlrr", "lora", "ssf"])
def test_the_arena_equals_the_per_tensor_loop_bitwise(method, precision, monkeypatch):
    config = ViTConfig(image_h=8, image_w=8, channels=1, patch=4, dim=16, layers=1, heads=2,
                       classes=3)
    cfg = TrainingConfig(learning_rate=0.01, weight_decay=0.05, dropout_rate=0.1, epochs=2,
                         warmup_epochs=1, seed=3, batch_size=6, precision=precision)

    def run(reference):
        model = init_model(config, seed=1, dtype=cfg.dtype)
        head = model.slot("head").w
        head.data[...] = np.random.default_rng(7).normal(0.0, 0.1, head.shape)
        if method == "full":
            model.unfreeze_all()
        else:
            model.freeze_all()
            model = attach(MethodSpec(method=method), model, seed=2)
        params = model.trainable()
        states = []
        step, ref = reference_adamw(params)
        if not reference:
            step = lambda state, *args: (states.append(state), adamw_step(state, *args))
        with monkeypatch.context() as patch:
            patch.setattr(train_module, "adamw_step", step)
            history = train(model, small_task(), cfg)
        moments = (states[0].m, states[0].v) if states else (ref["m"], ref["v"])
        return history, {k: p.data for k, p in params.items()}, moments

    (h_arena, p_arena, (m_arena, v_arena)), (h_ref, p_ref, (m_ref, v_ref)) = run(False), run(True)
    assert h_arena == h_ref and len(h_arena) == 2
    assert sorted(m_arena) == sorted(m_ref) == sorted(p_ref)
    for k in p_ref:
        for a, b in ((p_arena[k], p_ref[k]), (m_arena[k], m_ref[k]), (v_arena[k], v_ref[k])):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), k


def test_cosine_warmup_schedule_shape():
    cfg = TrainingConfig(learning_rate=1.0, epochs=10, warmup_epochs=4, seed=0)
    assert cosine_warmup_lr(0, cfg) == 0.0
    assert np.isclose(cosine_warmup_lr(2, cfg), 0.5)
    assert np.isclose(cosine_warmup_lr(4, cfg), 1.0)  # peak right after warmup
    assert cosine_warmup_lr(9, cfg) < cosine_warmup_lr(5, cfg)
    with pytest.raises(ValueError):
        cosine_warmup_lr(10, cfg)


def test_training_config_validation():
    with pytest.raises(ConfigError, match="^precision"):
        TrainingConfig(learning_rate=0.1, precision="f16")
    for batch_size in (0, -4):
        with pytest.raises(ConfigError, match="^batch_size"):
            TrainingConfig(batch_size=batch_size)
    for epochs in (0, -2):
        with pytest.raises(ConfigError, match="^epochs"):
            TrainingConfig(epochs=epochs, warmup_epochs=0)
    for max_steps in (0, -1):
        with pytest.raises(ConfigError, match="^max_steps"):
            TrainingConfig(max_steps=max_steps)
    with pytest.raises(ConfigError, match="^warmup_epochs"):
        TrainingConfig(warmup_epochs=-3)
    with pytest.raises(ConfigError, match="^warmup_epochs 5 must be below epochs 5"):
        TrainingConfig(epochs=5, warmup_epochs=5)
    assert TrainingConfig(epochs=1, warmup_epochs=0, max_steps=1).max_steps == 1


@pytest.mark.parametrize("key", ["learning_rate", "weight_decay", "dropout_rate"])
def test_a_negative_rate_names_its_key(key):
    with pytest.raises(ConfigError, match=f"^{key} must be non-negative, got -0.5$"):
        TrainingConfig(**{key: -0.5})


@pytest.mark.parametrize("rate", [1.0, 1.5])
def test_a_dropout_rate_that_keeps_no_unit_is_rejected(rate):
    with pytest.raises(ConfigError, match=f"^dropout_rate must be below 1, got {rate}$"):
        TrainingConfig(dropout_rate=rate)
    assert TrainingConfig(dropout_rate=0.99).dropout_rate == 0.99


def test_synthetic_task_shapes_and_determinism():
    a = small_task()
    b = small_task()
    assert a.train_x.shape == (18, 8, 8, 1)
    assert len(a.val_y) == 6 and len(a.test_y) == 6
    assert np.array_equal(a.train_x, b.train_x)
    assert sorted(np.unique(a.train_y)) == [0, 1, 2]


def test_downstream_task_differs_from_pretrain():
    spec = SyntheticTaskSpec(seed=0, classes=3, images_per_class=4, noise=0.35,
                             shift_mix=0.5, shift_gain=0.5, downstream_noise=None)
    pre = make_synthetic_task(spec, downstream=False)
    down = make_synthetic_task(spec, downstream=True)
    assert not np.allclose(pre.train_x, down.train_x)


def test_linear_probe_only_moves_head(tiny_model):
    before = {k: t.data.copy() for k, t in tiny_model.named_tensors().items()}
    cfg = TrainingConfig(learning_rate=0.01, epochs=2, warmup_epochs=1, seed=0,
                         batch_size=4, precision="f64")
    linear_probe(tiny_model, small_task(), cfg)
    for key, old in before.items():
        now = tiny_model.named_tensors()[key].data
        if key.startswith("head."):
            assert not np.array_equal(now, old)
        else:
            assert np.array_equal(now, old), key


def test_linear_probe_ignores_the_dropout_rate(tiny_config):
    def probe(dropout_rate):
        model = init_model(tiny_config, seed=1, dtype=np.float64)
        cfg = TrainingConfig(learning_rate=0.01, epochs=2, warmup_epochs=1, seed=0,
                             batch_size=4, precision="f64", dropout_rate=dropout_rate)
        history = linear_probe(model, small_task(), cfg)
        return history, {k: t.data.copy() for k, t in model.slot("head").tensors().items()}

    (h0, head0), (h5, head5) = probe(0.0), probe(0.5)
    assert h0 == h5
    for k in head0:
        assert np.array_equal(head0[k], head5[k]), k


def test_train_is_seed_deterministic(tiny_config):
    def one_run():
        model = init_model(tiny_config, seed=1, dtype=np.float64)
        pm = attach(MethodSpec(method="ssf"), model, seed=2)
        cfg = TrainingConfig(learning_rate=0.01, epochs=2, warmup_epochs=1,
                             seed=3, batch_size=4, precision="f64")
        history = train(pm, small_task(), cfg)
        return history, {k: t.data.copy() for k, t in pm.method_tensors().items()}

    h1, p1 = one_run()
    h2, p2 = one_run()
    assert h1 == h2
    for k in p1:
        assert np.array_equal(p1[k], p2[k])


def test_max_steps_truncates(tiny_config):
    model = init_model(tiny_config, seed=1, dtype=np.float64)
    pm = attach(MethodSpec(method="ssf"), model, seed=2)
    cfg = TrainingConfig(learning_rate=0.01, epochs=50, warmup_epochs=1,
                         seed=3, batch_size=4, max_steps=3)
    history = train(pm, small_task(), cfg)
    assert len(history) <= 1


def test_train_acc_of_a_truncated_epoch_counts_the_images_stepped_on(tiny_config):
    task = small_task()  # 18 images; max_steps = 3 stops epoch 0 after 3 batches of 4
    model = init_model(tiny_config, seed=1, dtype=np.float64)
    pm = attach(MethodSpec(method="ssf"), model, seed=2)
    plain_forward = pm.forward
    stepped = []

    def spy(xs, drop_rate=0.0, rng=None):
        logits = plain_forward(xs, drop_rate=drop_rate, rng=rng)
        if rng is not None:
            rows = [np.flatnonzero((task.train_x == x).all(axis=(1, 2, 3)))[0] for x in xs]
            stepped.append(np.argmax(logits.data, axis=-1) == task.train_y[rows])
        return logits

    pm.forward = spy
    cfg = TrainingConfig(learning_rate=0.01, epochs=50, warmup_epochs=1,
                         seed=3, batch_size=4, max_steps=3)
    history = train(pm, task, cfg)
    hits = np.concatenate(stepped)
    assert len(history) == 1 and len(hits) == 12
    assert history[0]["train_acc"] == np.count_nonzero(hits) / 12 == 5 / 12


def test_divergence_raises(tiny_config):
    model = init_model(tiny_config, seed=1, dtype=np.float64)
    pm = attach(MethodSpec(method="ssf"), model, seed=2)
    pm.method_tensors()["peft.ssf.l00.q.s"].data[:] = np.inf
    cfg = TrainingConfig(learning_rate=0.01, epochs=1, warmup_epochs=0,
                         seed=3, batch_size=4)
    with pytest.raises(TrainingDiverged):
        train(pm, small_task(), cfg)


def test_evaluate_counts_accuracy():
    xs = np.zeros((4, 1))
    ys = np.array([0, 1, 0, 1])
    fixed = Tensor(np.array([1.0, 0.0]))
    assert evaluate(lambda x: fixed, xs, ys) == 0.5
    with pytest.raises(ConfigError, match="^batch must be at least 1, got 0$"):
        evaluate(lambda x: fixed, xs, ys, batch=0)


def test_step_after_evaluate_has_the_same_gradients(tiny_config):
    task = small_task()
    xs, ys = task.train_x[:4], task.train_y[:4]
    grads = []
    for validate_first in (False, True):
        model = init_model(tiny_config, seed=1, dtype=np.float64)
        head = model.slot("head").w  # a zero head would zero every backbone gradient
        head.data[:] = np.random.default_rng(7).normal(0.0, 0.1, head.shape)
        params = model.trainable()
        if validate_first:
            evaluate(lambda x: forward(x, model), task.val_x, task.val_y, batch=4)
        step = gradients(cross_entropy_logits(forward(xs, model), ys), params)
        grads.append({k: g.copy() for k, g in step.items()})
    for k in grads[0]:
        assert np.array_equal(grads[0][k], grads[1][k]), k


def test_each_step_is_one_batched_forward(tiny_model):
    task = small_task()  # 18 images: batches of 4, 4, 4, 4, 2
    cfg = TrainingConfig(learning_rate=0.01, epochs=2, warmup_epochs=1, seed=0,
                         batch_size=4, precision="f64")
    shapes = []

    def spy(xs, drop_rate=0.0, rng=None):
        if rng is not None:  # a training step; validation passes no generator
            shapes.append(xs.shape)
        return forward(xs, tiny_model)

    tiny_model.forward = spy
    train(tiny_model, task, cfg)
    assert shapes == [(4, 8, 8, 1)] * 4 + [(2, 8, 8, 1)] + [(4, 8, 8, 1)] * 4 + [(2, 8, 8, 1)]


def test_validation_runs_in_batches_without_a_tape(tiny_model):
    task = small_task()  # 6 validation images: ceil(6 / 4) = 2 calls per epoch
    cfg = TrainingConfig(learning_rate=0.01, epochs=2, warmup_epochs=1, seed=0,
                         batch_size=4, precision="f64")
    calls = []

    def spy(xs, drop_rate=0.0, rng=None):
        logits = forward(xs, tiny_model)
        if rng is None:
            calls.append((xs.shape, logits.requires_grad))
        return logits

    tiny_model.forward = spy
    history = train(tiny_model, task, cfg)
    assert len(history) == 2
    assert calls == [((4, 8, 8, 1), False), ((2, 8, 8, 1), False)] * 2


def test_dropout_step_trains_and_validation_runs_without_dropout(tiny_model):
    task = small_task()
    pm = attach(MethodSpec(method="rlrr", init="normal"), tiny_model, seed=0)
    plain_forward = pm.forward
    train_calls, val_logits = [], []

    def spy(xs, drop_rate=0.0, rng=None):
        logits = plain_forward(xs, drop_rate=drop_rate, rng=rng)
        if drop_rate:
            with no_grad():
                train_calls.append(not np.array_equal(logits.data, plain_forward(xs).data))
        else:
            val_logits.append((xs, logits.data))
        return logits

    pm.forward = spy
    cfg = TrainingConfig(learning_rate=0.01, epochs=1, warmup_epochs=0, seed=3, batch_size=4,
                         precision="f64", dropout_rate=0.5, max_steps=1)
    history = train(pm, task, cfg)
    assert train_calls == [True]  # one step, and its dropout changed the logits
    assert len(history) == 1 and np.isfinite(history[0]["train_loss"])
    assert sum(len(xs) for xs, _ in val_logits) == len(task.val_y)
    with no_grad():
        for xs, logits in val_logits:
            assert np.array_equal(logits, plain_forward(xs).data)
