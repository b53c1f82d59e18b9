import math

import numpy as np
import pytest

from peftlab.autodiff import matmul
from peftlab.vit import ViTConfig, init_model


@pytest.fixture
def tiny_config():
    return ViTConfig(
        image_h=8, image_w=8, channels=1, patch=4,
        dim=16, layers=2, heads=2, classes=4,
    )


def fresh_model(config, dtype=np.float64):
    model = init_model(config, seed=0, dtype=dtype)
    # a zero head makes every class equally likely; randomize it so logits
    # actually depend on the features
    rng = np.random.default_rng(7)
    model.slot("head").w.data[:] = rng.normal(0.0, 0.1, model.slot("head").w.shape)
    return model


@pytest.fixture
def tiny_model(tiny_config):
    return fresh_model(tiny_config)


@pytest.fixture
def weight_builds(monkeypatch):
    """The shapes of the adapted weights that `matmul` and the merge build, one
    entry per build."""
    import peftlab.autodiff as autodiff
    import peftlab.peft as peft

    builds = []
    original = autodiff.adapted_weight

    def spy(w, left, right, residual=True):
        builds.append(w.shape)
        return original(w, left, right, residual)

    monkeypatch.setattr(autodiff, "adapted_weight", spy)
    monkeypatch.setattr(peft, "adapted_weight", spy)
    return builds


def tape(loss):
    """The interior nodes and the leaves that require grad, reachable from `loss`."""
    interior, leaves, stack = {}, {}, [loss]
    while stack:
        node = stack.pop()
        if node.requires_grad and id(node) not in interior and id(node) not in leaves:
            (interior if node._parents else leaves)[id(node)] = node
            stack.extend(node._parents)
    return list(interior.values()), list(leaves.values())


def composed_linear(x, w, b, left, right, shift=None, residual=True):
    """The adapted linear map built from separate ops: the reference for the fused node."""
    prod = matmul(left, right)
    y = matmul(x, w + (prod * w if residual else prod))
    if b is not None:
        y = y + b
    return y if shift is None else y + shift


def attention_reference(q, k, v, heads):
    """Per-head loop over column blocks in plain numpy: the same dot products
    as the stacked products, in the same order."""
    Dh = q.shape[-1] // heads
    c = np.asarray(1.0 / math.sqrt(Dh), dtype=q.dtype)
    outs = []
    for h in range(heads):
        cols = slice(h * Dh, (h + 1) * Dh)
        scores = (q[..., cols] @ k[..., cols].swapaxes(-1, -2)) * c
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        outs.append(e / e.sum(axis=-1, keepdims=True) @ v[..., cols])
    return np.concatenate(outs, axis=-1)
