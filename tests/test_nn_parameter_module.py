"""Tests for Parameter and Module flat-packing behaviour."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ShapeError
from repro.nn.functional import log_softmax, one_hot, softmax
from repro.nn.layers import Conv2D, Flatten, Linear, MaxPool2D, ReLU, Sequential, Tanh
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLP, SmallCNN, _ImageReshape
from repro.nn.module import Module
from repro.nn.parameter import Parameter


class TestParameter:
    def test_grad_initialised_to_zero(self):
        param = Parameter(np.ones((2, 3)))
        assert param.grad.shape == (2, 3)
        assert np.all(param.grad == 0)

    def test_zero_grad(self):
        param = Parameter(np.ones(4))
        param.grad += 1.0
        param.zero_grad()
        assert np.all(param.grad == 0)

    def test_assign_checks_shape(self):
        param = Parameter(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            param.assign(np.ones(3))

    def test_size(self):
        assert Parameter(np.ones((3, 5))).size == 15


class TestModuleFlatPacking:
    def _model(self):
        return Sequential(Linear(4, 3, rng=0), ReLU(), Linear(3, 2, rng=1))

    def test_num_params(self):
        model = self._model()
        assert model.num_params == 4 * 3 + 3 + 3 * 2 + 2

    def test_flat_roundtrip(self):
        model = self._model()
        flat = model.get_flat_params()
        model.set_flat_params(np.zeros_like(flat))
        assert np.all(model.get_flat_params() == 0)
        model.set_flat_params(flat)
        assert np.array_equal(model.get_flat_params(), flat)

    def test_set_flat_params_wrong_size(self):
        model = self._model()
        with pytest.raises(ShapeError):
            model.set_flat_params(np.zeros(model.num_params + 1))

    def test_flat_grad_roundtrip(self):
        model = self._model()
        grad = np.arange(model.num_params, dtype=float)
        model.set_flat_grad(grad)
        assert np.array_equal(model.get_flat_grad(), grad)

    def test_zero_grad_clears_all(self):
        model = self._model()
        model.set_flat_grad(np.ones(model.num_params))
        model.zero_grad()
        assert np.all(model.get_flat_grad() == 0)

    def test_parameters_order_stable(self):
        model = self._model()
        names = [id(p) for p in model.parameters()]
        assert names == [id(p) for p in model.parameters()]

    def test_set_flat_params_does_not_alias_input(self):
        model = self._model()
        flat = np.zeros(model.num_params)
        model.set_flat_params(flat)
        flat += 5.0
        assert np.all(model.get_flat_params() == 0)


def _tanh_conv():
    """The conv / tanh / pool stack the vectorized ``fedadmm+conv`` pin trains."""
    return Sequential(
        _ImageReshape(1, 6, 6),
        Conv2D(1, 2, kernel_size=3, padding=1, rng=0),
        Tanh(),
        MaxPool2D(2),
        Flatten(),
        Linear(2 * 3 * 3, 3, rng=1),
    )


#: name -> (builder, input width, classes): every model in the zoo — the
#: MLP also with no hidden layer, the small CNN also on three channels —
#: and the one Tanh stack.
ZOO = {
    "mlp": (lambda: MLP(12, (8, 6), num_classes=4, rng=0), 12, 4),
    "linear": (lambda: MLP(12, (), num_classes=4, rng=0), 12, 4),
    "small_cnn": (lambda: SmallCNN(rng=0, conv_channels=(2, 3), hidden=8), 784, 10),
    "small_cnn_rgb": (
        lambda: SmallCNN(rng=0, channels=3, image_size=8, num_classes=5,
                         conv_channels=(2, 3), hidden=8),
        3 * 8 * 8,
        5,
    ),
    "tanh_conv": (_tanh_conv, 36, 3),
}


def _zoo(name):
    """A fresh model from the zoo, a matching two-sample batch, its classes."""
    build, width, num_classes = ZOO[name]
    return build(), np.random.default_rng(0).normal(size=(2, width)), num_classes


def _backward(model, features, num_classes, seed=1):
    labels = np.random.default_rng(seed).integers(0, num_classes, size=len(features))
    model.zero_grad()
    _, grad = CrossEntropyLoss().value_and_grad(model.forward(features), labels)
    model.backward(grad)


def _assert_flat_backed(model, features, num_classes):
    """The invariants the federated step relies on, for one model object."""
    x = np.random.default_rng(2).normal(size=model.num_params)
    model.set_flat_params(x)
    flat = model._flat()
    assert flat.value.size == flat.grad.size == x.size
    offset = 0
    for param in model.parameters():
        chunk = x[offset : offset + param.size].reshape(param.shape)
        assert np.array_equal(param.value, chunk)
        assert np.shares_memory(param.value, flat.value)
        assert np.shares_memory(param.grad, flat.grad)
        offset += param.size
    assert offset == x.size
    _backward(model, features, num_classes)
    expected = np.concatenate([p.grad.ravel() for p in model.parameters()])
    assert np.any(expected != 0)
    assert np.array_equal(model.get_flat_grad(), expected)
    # get_flat_* hand out copies the caller owns.
    assert not np.shares_memory(model.get_flat_params(), flat.value)
    assert not np.shares_memory(model.get_flat_grad(), flat.grad)


class TestFlatBackedStorage:
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_parameters_are_views_of_one_buffer(self, name):
        model, features, num_classes = _zoo(name)
        _assert_flat_backed(model, features, num_classes)

    @pytest.mark.parametrize("name", sorted(ZOO))
    @pytest.mark.parametrize("homed_first", [False, True])
    def test_aliasing_survives_deepcopy_and_pickle(self, name, homed_first):
        # The thread executor deep-copies the template per task, and a
        # pickled model must load as well; a copy whose parameters no
        # longer alias its flat buffer trains nothing.
        model, features, num_classes = _zoo(name)
        if homed_first:
            model.get_flat_params()
        for clone in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            before = model.get_flat_params()
            _assert_flat_backed(clone, features, num_classes)
            assert not np.shares_memory(clone._flat().value, model._flat().value)
            assert not np.shares_memory(clone._flat().grad, model._flat().grad)
            assert np.array_equal(model.get_flat_params(), before)

    def test_pickle_carries_no_flat_buffer(self):
        model = MLP(12, (8,), num_classes=4, rng=0)
        cold = len(pickle.dumps(model))
        model.get_flat_params()
        assert len(pickle.dumps(model)) == cold

    def test_append_after_flat_access_rehomes(self):
        model = Sequential(Linear(4, 3, rng=0), ReLU())
        assert model.num_params == 15
        model.append(Linear(3, 2, rng=1))
        assert model.num_params == 15 + 8
        x = np.arange(23, dtype=float)
        model.set_flat_params(x)
        assert np.array_equal(model[2].bias.value, x[-2:])
        assert np.array_equal(model[0].weight.value, x[:12].reshape(4, 3))
        assert all(
            np.shares_memory(p.value, model._flat().value) for p in model.parameters()
        )

    def test_append_to_nested_container_reaches_the_outer_model(self):
        inner = Sequential(Linear(4, 3, rng=0))
        outer = Sequential(inner, ReLU())
        assert outer.num_params == 15
        inner.append(Linear(3, 2, rng=1))
        assert outer.num_params == 23
        outer.set_flat_params(np.arange(23, dtype=float))
        assert np.array_equal(inner[1].bias.value, [21.0, 22.0])

    def test_layer_flat_access_stays_attached_to_the_model(self):
        model = Sequential(Linear(4, 3, rng=0), ReLU(), Linear(3, 2, rng=1))
        for order in ("model_first", "layer_first"):
            if order == "layer_first":
                model = copy.deepcopy(model)
                model[2].get_flat_params()
            model.set_flat_params(np.zeros(23))
            model[2].set_flat_params(np.ones(8))
            assert np.array_equal(model.get_flat_params()[-8:], np.ones(8))
            model.set_flat_params(np.full(23, 2.0))
            assert np.array_equal(model[2].get_flat_params(), np.full(8, 2.0))

    def test_in_place_parameter_step_moves_the_flat_vector(self):
        model = Sequential(Linear(4, 3, rng=0), ReLU(), Linear(3, 2, rng=1))
        before = model.get_flat_params()
        model.set_flat_grad(np.ones(model.num_params))
        for param in model.parameters():
            param.value -= 0.5 * param.grad
        assert np.array_equal(model.get_flat_params(), before - 0.5)

    def test_num_params_and_parameters_do_not_rewalk_the_tree(self, monkeypatch):
        model = MLP(12, (8, 6), num_classes=4, rng=0)
        model.get_flat_params()
        walks = []
        original = Module._collect_parameters
        monkeypatch.setattr(
            Module,
            "_collect_parameters",
            lambda self: walks.append(self) or original(self),
        )
        model.set_flat_params(model.get_flat_params())
        model.zero_grad()
        model.get_flat_grad()
        assert model.num_params == len(model.get_flat_params())
        assert len(model.parameters()) == 6
        assert walks == []


class TestStepArithmeticUnchanged:
    """The fused loss and the shortened backward are the old arithmetic, bitwise."""

    @given(
        n=st.integers(min_value=1, max_value=40),
        num_classes=st.integers(min_value=1, max_value=12),
        scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_fused_cross_entropy_equals_composed_expression(
        self, n, num_classes, scale, seed
    ):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=scale, size=(n, num_classes))
        labels = rng.integers(0, num_classes, size=n)
        loss = CrossEntropyLoss()
        value, grad = loss.value_and_grad(logits, labels)
        expected_value = -float(log_softmax(logits)[np.arange(n), labels].mean())
        expected_grad = (softmax(logits) - one_hot(labels, num_classes)) / n
        assert value == expected_value
        assert loss.value(logits, labels) == expected_value
        assert grad.tobytes() == expected_grad.tobytes()

    @given(
        name=st.sampled_from(sorted(ZOO)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_parameter_gradients_equal_full_backward(self, name, seed):
        model, features, num_classes = _zoo(name)
        model.set_flat_params(
            np.random.default_rng(seed).normal(scale=0.3, size=model.num_params)
        )
        _backward(model, features, num_classes, seed=seed)
        full = model.get_flat_grad()
        labels = np.random.default_rng(seed).integers(0, num_classes, size=len(features))
        model.zero_grad()
        _, grad = CrossEntropyLoss().value_and_grad(model.forward(features), labels)
        assert model.backward_params(grad) is None
        assert model.get_flat_grad().tobytes() == full.tobytes()

    def test_module_default_falls_back_to_backward(self):
        class Scale(Module):
            def __init__(self):
                super().__init__()
                self.gain = Parameter(np.ones(1))

            def forward(self, x):
                self._x = x
                return x * self.gain.value

            def backward(self, grad_output):
                self.gain.grad += (grad_output * self._x).sum()
                return grad_output * self.gain.value

        layer = Scale()
        layer.forward(np.full((2, 2), 3.0))
        layer.backward_params(np.ones((2, 2)))
        assert layer.get_flat_grad()[0] == 12.0
