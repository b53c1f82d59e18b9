import numpy as np
import pytest

from peftlab.vit import ViTConfig, init_model


@pytest.fixture
def tiny_config():
    return ViTConfig(
        image_h=8, image_w=8, channels=1, patch=4,
        dim=16, layers=2, heads=2, classes=4,
    )


@pytest.fixture
def tiny_model(tiny_config):
    model = init_model(tiny_config, seed=0, dtype=np.float64)
    # a zero head makes every class equally likely; randomize it so logits
    # actually depend on the features
    rng = np.random.default_rng(7)
    model.slot("head").w.data[:] = rng.normal(0.0, 0.1, model.slot("head").w.shape)
    return model


@pytest.fixture
def weight_builds(monkeypatch):
    """The shapes of the adapted weights `matmul` builds, one entry per build."""
    import peftlab.autodiff as autodiff

    builds = []
    original = autodiff.adapted_weight

    def spy(w, left, right, residual=True):
        builds.append(w.shape)
        return original(w, left, right, residual)

    monkeypatch.setattr(autodiff, "adapted_weight", spy)
    return builds
