import numpy as np
import pytest

from peftlab.autodiff import Tensor
from peftlab.vit import (
    ConfigError,
    MATRIX_KINDS,
    ViTConfig,
    extract_patches,
    forward,
    init_model,
    mha,
)


def test_config_properties(tiny_config):
    assert tiny_config.tokens == 4  # patch grid only; cls is prepended later
    assert tiny_config.dim // tiny_config.heads == 8
    assert tiny_config.hidden == 64
    assert tiny_config.patch_dim == 16


def test_config_rejects_bad_geometry():
    with pytest.raises(ConfigError):
        ViTConfig(image_h=9, image_w=8, channels=1, patch=4,
                  dim=16, layers=1, heads=2, classes=2)
    with pytest.raises(ConfigError):
        ViTConfig(image_h=8, image_w=8, channels=1, patch=4,
                  dim=15, layers=1, heads=2, classes=2)  # dim % heads != 0


def test_extract_patches_row_major():
    # 4x4 image, 2x2 patches: top-left patch first, scanning rows
    cfg = ViTConfig(image_h=4, image_w=4, channels=1, patch=2,
                    dim=8, layers=1, heads=2, classes=2)
    img = np.arange(16.0).reshape(4, 4, 1)
    patches = extract_patches(img, cfg)
    assert patches.shape == (4, 4)
    assert np.array_equal(patches[0], [0, 1, 4, 5])
    assert np.array_equal(patches[1], [2, 3, 6, 7])
    assert np.array_equal(patches[2], [8, 9, 12, 13])


def test_init_model_slot_inventory(tiny_config):
    model = init_model(tiny_config, seed=0)
    keys = set(model.slots)
    for layer in range(tiny_config.layers):
        for kind in MATRIX_KINDS + ("ln1", "ln2"):
            assert f"l{layer:02d}.{kind}" in keys
    assert {"patch_proj", "pos_embed", "cls_token", "head", "final_ln"} <= keys


def test_init_model_deterministic(tiny_config):
    a = init_model(tiny_config, seed=5)
    b = init_model(tiny_config, seed=5)
    for key, t in a.named_tensors().items():
        assert np.array_equal(t.data, b.named_tensors()[key].data), key
    c = init_model(tiny_config, seed=6)
    assert not np.array_equal(
        a.slot("l00.q").w.data, c.slot("l00.q").w.data
    )


def test_head_starts_at_zero(tiny_config):
    model = init_model(tiny_config, seed=0)
    assert np.array_equal(model.slot("head").w.data, np.zeros_like(model.slot("head").w.data))


def test_forward_shape_and_determinism(tiny_config, tiny_model):
    rng = np.random.default_rng(0)
    image = rng.normal(size=(8, 8, 1))
    logits = forward(image, tiny_model)
    assert logits.shape == (tiny_config.classes,)
    again = forward(image, tiny_model)
    assert np.array_equal(logits.data, again.data)


def test_forward_rejects_wrong_image_shape(tiny_model):
    with pytest.raises(ConfigError):
        forward(np.zeros((7, 8, 1)), tiny_model)


def test_dropout_only_in_training_mode(tiny_model):
    image = np.random.default_rng(1).normal(size=(8, 8, 1))
    eval_logits = forward(image, tiny_model)
    train_logits = forward(
        image, tiny_model, drop_rate=0.5, rng=np.random.default_rng(0)
    )
    assert not np.array_equal(eval_logits.data, train_logits.data)


def test_model_forward_is_the_module_forward(tiny_model):
    images = np.random.default_rng(1).normal(size=(3, 8, 8, 1))
    for drop_rate in (0.0, 0.5):
        got = tiny_model.forward(images, drop_rate, np.random.default_rng(4))
        ref = forward(images, tiny_model, drop_rate=drop_rate, rng=np.random.default_rng(4))
        assert got.data.tobytes() == ref.data.tobytes()


def test_freeze_all_blocks_gradients(tiny_model):
    tiny_model.freeze_all()
    assert tiny_model.trainable() == {}
    for t in tiny_model.named_tensors().values():
        assert not t.requires_grad


def test_model_copy_is_deep(tiny_model):
    clone = tiny_model.copy()
    clone.slot("l00.q").w.data[0, 0] += 1.0
    assert clone.slot("l00.q").w.data[0, 0] != tiny_model.slot("l00.q").w.data[0, 0]


def _mha_reference(x, model, layer):
    """Per-head loop over column blocks of the fused projections, in plain numpy."""

    def linear(kind, a):
        pm = model.slot(f"l{layer:02d}.{kind}")
        return a @ pm.w.data + pm.b.data

    q, k, v = linear("q", x), linear("k", x), linear("v", x)
    Dh = model.config.dim // model.config.heads
    heads = []
    for h in range(model.config.heads):
        cols = slice(h * Dh, (h + 1) * Dh)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(Dh)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        heads.append(e / e.sum(axis=1, keepdims=True) @ v[:, cols])
    return linear("o", np.concatenate(heads, axis=1))


@pytest.mark.parametrize("extra_rows", [0, 3], ids=["tokens", "with_prompts"])
def test_mha_matches_per_head_reference(tiny_config, tiny_model, extra_rows):
    rng = np.random.default_rng(4)
    for kind in ("q", "k", "v", "o"):
        pm = tiny_model.slot(f"l01.{kind}")
        pm.w.data[:] = rng.normal(0.0, 0.5, pm.w.shape)
        pm.b.data[:] = rng.normal(0.0, 0.1, pm.b.shape)
    x = rng.normal(size=(tiny_config.tokens + 1 + extra_rows, tiny_config.dim))
    out = mha(Tensor(x), tiny_model, 1)
    assert out.shape == x.shape
    assert np.allclose(out.data, _mha_reference(x, tiny_model, 1), rtol=1e-12, atol=1e-14)


def test_batched_forward_matches_per_image(tiny_config, tiny_model):
    images = np.random.default_rng(5).normal(size=(3, 8, 8, 1))
    logits = forward(images, tiny_model)
    assert logits.shape == (3, tiny_config.classes)
    for b, image in enumerate(images):
        assert np.allclose(logits.data[b], forward(image, tiny_model).data, rtol=1e-12, atol=0)


def test_batched_gradient_is_mean_of_per_image(tiny_model):
    from peftlab.autodiff import cross_entropy_logits, gradients, zero_grads

    images = np.random.default_rng(6).normal(size=(3, 8, 8, 1))
    labels = np.array([0, 3, 1])
    params = tiny_model.trainable()
    batched = gradients(cross_entropy_logits(forward(images, tiny_model), labels), params)
    batched = {k: g.copy() for k, g in batched.items()}
    mean = {k: 0.0 for k in params}
    for image, y in zip(images, labels):
        zero_grads(params)
        grads = gradients(cross_entropy_logits(forward(image, tiny_model), int(y)), params)
        for k in params:
            mean[k] = mean[k] + grads[k] / len(labels)
    # atol: the k bias has a true gradient of 0, so both sides hold only rounding
    for k in params:
        assert np.allclose(batched[k], mean[k], rtol=1e-12, atol=1e-15), k


def test_gradient_flows_to_all_trainable(tiny_config, tiny_model):
    from peftlab.autodiff import cross_entropy_logits, gradients

    image = np.random.default_rng(2).normal(size=(8, 8, 1))
    loss = cross_entropy_logits(forward(image, tiny_model), 0)
    params = tiny_model.trainable()
    grads = gradients(loss, params)
    nonzero = [k for k, g in grads.items() if np.abs(g).max() > 0]
    # every weight participates in the forward pass
    assert len(nonzero) == len(params)
