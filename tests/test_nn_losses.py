"""Tests for loss functions."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.nn.functional import softmax
from repro.nn.losses import CrossEntropyLoss, MSELoss


class TestCrossEntropyLoss:
    def test_uniform_logits_loss_is_log_k(self):
        loss = CrossEntropyLoss()
        logits = np.zeros((5, 4))
        labels = np.array([0, 1, 2, 3, 0])
        value = loss.value(logits, labels)
        assert np.isclose(value, np.log(4))

    def test_perfect_prediction_loss_near_zero(self):
        loss = CrossEntropyLoss()
        logits = np.full((3, 3), -50.0)
        labels = np.array([0, 1, 2])
        logits[np.arange(3), labels] = 50.0
        assert loss.value(logits, labels) < 1e-6

    def test_gradient_matches_softmax_minus_onehot(self):
        loss = CrossEntropyLoss()
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 5))
        labels = rng.integers(0, 5, size=6)
        _, grad = loss.value_and_grad(logits, labels)
        expected = softmax(logits).copy()
        expected[np.arange(6), labels] -= 1.0
        expected /= 6
        assert np.allclose(grad, expected)

    def test_gradient_sums_to_zero_per_row(self):
        loss = CrossEntropyLoss()
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        _, grad = loss.value_and_grad(logits, labels)
        assert np.allclose(grad.sum(axis=1), 0.0)

    def test_batch_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            CrossEntropyLoss().value_and_grad(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_non_2d_logits_rejected(self):
        with pytest.raises(ShapeError):
            CrossEntropyLoss().value_and_grad(np.zeros(3), np.zeros(3, dtype=int))

    @pytest.mark.parametrize("labels", [[0, 3], [0, -1]])
    @pytest.mark.parametrize("method", ["value", "value_and_grad"])
    def test_out_of_range_label_rejected(self, method, labels):
        # A label >= num_classes used to escape as a raw IndexError because
        # it indexed the log-probabilities before the range was checked.
        with pytest.raises(ShapeError):
            getattr(CrossEntropyLoss(), method)(np.zeros((2, 3)), np.array(labels))

    def test_non_1d_labels_rejected(self):
        with pytest.raises(ShapeError):
            CrossEntropyLoss().value_and_grad(
                np.zeros((2, 3)), np.zeros((2, 1), dtype=int)
            )

    def test_value_equals_value_and_grad_bitwise(self):
        loss = CrossEntropyLoss()
        rng = np.random.default_rng(2)
        logits = rng.normal(scale=5.0, size=(33, 7))
        labels = rng.integers(0, 7, size=33)
        assert loss.value(logits, labels) == loss.value_and_grad(logits, labels)[0]

    def test_value_does_not_build_the_gradient(self, monkeypatch):
        loss = CrossEntropyLoss()
        monkeypatch.setattr(
            loss, "value_and_grad", lambda *a: pytest.fail("gradient computed")
        )
        assert np.isclose(loss.value(np.zeros((2, 4)), np.array([1, 2])), np.log(4))


class TestMSELoss:
    def test_zero_for_equal_inputs(self):
        x = np.ones((3, 2))
        assert MSELoss().value(x, x) == 0.0

    def test_value_and_gradient(self):
        loss = MSELoss()
        pred = np.array([[1.0, 2.0]])
        target = np.array([[0.0, 0.0]])
        value, grad = loss.value_and_grad(pred, target)
        assert np.isclose(value, (1 + 4) / 2)
        assert np.allclose(grad, [[1.0, 2.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            MSELoss().value_and_grad(np.zeros((2, 2)), np.zeros((2, 3)))
