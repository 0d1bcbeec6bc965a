"""Tests for the model zoo."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLP, MODEL_REGISTRY, SmallCNN, build_model


class TestSmallModels:
    def test_mlp_shapes(self):
        model = MLP(input_dim=20, hidden_dims=(8, 8), num_classes=5, rng=0)
        out = model.forward(np.random.default_rng(0).normal(size=(3, 20)))
        assert out.shape == (3, 5)

    def test_mlp_parameter_count(self):
        model = MLP(input_dim=20, hidden_dims=(8, 6), num_classes=5, rng=0)
        assert model.num_params == (20 * 8 + 8) + (8 * 6 + 6) + (6 * 5 + 5)

    def test_mlp_without_hidden_layers_is_softmax_regression(self):
        model = MLP(input_dim=10, hidden_dims=(), num_classes=4, rng=0)
        assert len(model) == 1
        assert model.num_params == 10 * 4 + 4

    def test_mlp_rejects_wrong_input_dim(self):
        with pytest.raises(ShapeError):
            MLP(input_dim=20, num_classes=5, rng=0).forward(np.zeros((2, 19)))

    def test_small_cnn_parameter_count(self):
        """Two 5x5 conv layers, then the hidden and output layers."""
        model = SmallCNN(rng=0, channels=1, image_size=28, conv_channels=(4, 8),
                         hidden=32, num_classes=10)
        conv = (1 * 4 * 25 + 4) + (4 * 8 * 25 + 8)
        dense = (7 * 7 * 8 * 32 + 32) + (32 * 10 + 10)
        assert model.num_params == conv + dense

    def test_small_cnn_forward(self):
        model = SmallCNN(rng=0, channels=1, image_size=8, num_classes=3)
        out = model.forward(np.random.default_rng(0).normal(size=(2, 64)))
        assert out.shape == (2, 3)

    def test_small_cnn_takes_flat_or_image_shaped_rgb_input(self):
        model = SmallCNN(rng=0, channels=3, image_size=8, num_classes=3)
        images = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
        flat = model.forward(images.reshape(2, -1))
        assert flat.shape == (2, 3)
        assert np.array_equal(model.forward(images), flat)

    def test_small_cnn_rejects_wrong_input_dim(self):
        with pytest.raises(ShapeError):
            SmallCNN(rng=0).forward(np.zeros((2, 100)))

    def test_mlp_learns_separable_data(self):
        """A couple of gradient steps on separable data should reduce the loss."""
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(-2, 0.3, size=(30, 4)), rng.normal(2, 0.3, size=(30, 4))])
        y = np.array([0] * 30 + [1] * 30)
        model = MLP(input_dim=4, hidden_dims=(8,), num_classes=2, rng=0)
        loss = CrossEntropyLoss()
        initial = loss.value(model.forward(x), y)
        for _ in range(30):
            model.zero_grad()
            value, grad_pred = loss.value_and_grad(model.forward(x), y)
            model.backward(grad_pred)
            flat = model.get_flat_params() - 0.5 * model.get_flat_grad()
            model.set_flat_params(flat)
        assert loss.value(model.forward(x), y) < initial * 0.5


class TestRegistry:
    def test_registry_holds_the_mlp_and_the_small_cnn(self):
        assert set(MODEL_REGISTRY) == {"mlp", "small_cnn"}

    def test_build_model_mlp(self):
        model = build_model("mlp", rng=0, input_dim=6, num_classes=3)
        assert model.num_params > 0

    def test_build_model_small_cnn_by_any_case(self):
        model = build_model("Small_CNN", rng=0, image_size=8, num_classes=3)
        assert isinstance(model, SmallCNN)
        assert model.num_params == SmallCNN(rng=0, image_size=8, num_classes=3).num_params

    def test_build_model_unknown(self):
        with pytest.raises(ConfigurationError):
            build_model("transformer")

    def test_same_seed_same_init(self):
        a = build_model("mlp", rng=3, input_dim=6)
        b = build_model("mlp", rng=3, input_dim=6)
        assert np.array_equal(a.get_flat_params(), b.get_flat_params())
