"""The in-place per-client step against the copying step it replaced.

The oracle below is the per-client training step as it stood at commit
``87f311a`` — ``run_local_sgd``, ``LocalProblem.loss_and_grad``,
``iterate_minibatches`` and the two accumulating layer backward passes,
bodies copied verbatim — so this file is the one place that says what "the
same step" means: equal parameters and equal mean loss, for every model
family, with and without an extra gradient term, mini-batch and full-batch.
The other sections pin the contracts the in-place step leans on: gradients
are assigned, batches are per-epoch slices, and nothing handed back aliases
the model's storage.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import ALGORITHM_REGISTRY, build_algorithm
from repro.algorithms.base import LocalTrainingConfig, run_local_sgd
from repro.datasets.base import Dataset, iterate_minibatches
from repro.exceptions import ShapeError
from repro.federated.client import ClientState
from repro.federated.local_problem import LocalProblem
from repro.nn.gradcheck import check_gradients
from repro.nn.layers import Conv2D, Linear
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLP, SmallCNN
from repro.utils.rng import as_rng


# --------------------------------------------------------------------------- #
# The oracle: parent bodies, verbatim (``self`` spelled ``problem``/``layer``)
# --------------------------------------------------------------------------- #
def oracle_iterate_minibatches(features, labels, batch_size, rng=None, shuffle=True):
    n = features.shape[0]
    if n == 0:
        return
    if batch_size is None or batch_size >= n:
        yield features, labels
        return
    if batch_size <= 0:
        raise ShapeError(f"batch_size must be positive or None, got {batch_size}")
    order = np.arange(n)
    if shuffle:
        order = as_rng(rng).permutation(n)
    for start in range(0, n, batch_size):
        batch = order[start : start + batch_size]
        yield features[batch], labels[batch]


def _oracle_linear_backward_params(self, grad_output):
    if self._input is None:
        raise ShapeError("backward called before forward on Linear")
    self.weight.grad += self._input.T @ grad_output
    self.bias.grad += grad_output.sum(axis=0)


def _oracle_conv_accumulate(self, grad_output):
    if self._cols is None or self._input_shape is None:
        raise ShapeError("backward called before forward on Conv2D")
    grad_mat = grad_output.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
    self.weight.grad += (grad_mat.T @ self._cols).reshape(self.weight.shape)
    self.bias.grad += grad_mat.sum(axis=0)
    return grad_mat


@contextlib.contextmanager
def accumulating_layers():
    """Run the body with the parent's ``+=`` backward passes installed."""
    saved = Linear.backward_params, Conv2D._assign
    Linear.backward_params = _oracle_linear_backward_params
    Conv2D._assign = _oracle_conv_accumulate
    try:
        yield
    finally:
        Linear.backward_params, Conv2D._assign = saved


def oracle_loss_and_grad(problem, params, features, labels):
    model = problem.model
    model.set_flat_params(params)
    model.zero_grad()
    predictions = model.forward(features)
    value, grad_predictions = problem.loss.value_and_grad(predictions, labels)
    model.backward_params(grad_predictions)
    return value, model.get_flat_grad()


def oracle_run_local_sgd(problem, start_params, config, rng, extra_grad=None):
    params = np.array(start_params, dtype=np.float64, copy=True)
    losses: list[float] = []
    for _ in range(config.epochs):
        for features, labels in oracle_iterate_minibatches(
            problem.dataset.features,
            problem.dataset.labels,
            config.batch_size,
            rng=as_rng(rng),
            shuffle=True,
        ):
            loss_value, grad = oracle_loss_and_grad(problem, params, features, labels)
            losses.append(loss_value)
            if extra_grad is not None:
                grad += extra_grad(params)
            grad *= config.learning_rate
            params -= grad
            del grad
    mean_loss = float(np.mean(losses)) if losses else float("nan")
    return params, mean_loss


# --------------------------------------------------------------------------- #
# Problems: two model families, inputs that put -0.0 into gradients
# --------------------------------------------------------------------------- #
NUM_CLASSES = 3


def _model(family: str, seed: int):
    if family == "mlp":
        return MLP(6, (5,), num_classes=NUM_CLASSES, rng=seed)
    return SmallCNN(
        rng=seed, image_size=4, num_classes=NUM_CLASSES, conv_channels=(2, 3), hidden=4
    )


def _problem(family: str, seed: int, inputs: str, n: int = 11) -> LocalProblem:
    rng = np.random.default_rng(seed)
    width = 16 if family == "small_cnn" else 6
    features = rng.normal(size=(n, width))
    if inputs == "zeros":
        # x.T @ g is all signed zeros: assign keeps the sign, 0.0 + g drops it.
        features[:] = 0.0
    elif inputs == "negative":
        features = -np.abs(features)
    elif inputs == "sparse":
        features[:, ::2] = 0.0
        features[::3] = -0.0
    return LocalProblem(
        model=_model(family, seed),
        loss=CrossEntropyLoss(),
        dataset=Dataset(
            features=features, labels=rng.integers(0, NUM_CLASSES, size=n), name="t"
        ),
    )


def _start(problem: LocalProblem, seed: int, dead_relu: bool) -> np.ndarray:
    start = np.random.default_rng(seed).normal(scale=0.5, size=problem.dim)
    if dead_relu:
        # Hidden biases far below zero: the ReLU masks whole columns, the
        # upstream gradient is ``g * False`` = -0.0 wherever g < 0.
        biases = [p for p in problem.model.parameters() if p.name.endswith("bias")]
        for param in biases[:-1]:
            param.value.fill(-50.0)
        biased = problem.model.get_flat_params()
        start = np.where(biased == -50.0, biased, start)
    return start


def _extra(start: np.ndarray):
    theta = start + 0.25
    return lambda params: 0.7 * (params - theta)


class TestInPlaceStepEqualsCopyingStep:
    @given(
        family=st.sampled_from(["mlp", "small_cnn"]),
        inputs=st.sampled_from(["normal", "zeros", "negative", "sparse"]),
        dead_relu=st.booleans(),
        batch_size=st.sampled_from([None, 1, 4, 11, 64]),
        epochs=st.integers(min_value=1, max_value=3),
        with_extra=st.booleans(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_params_and_mean_loss(
        self, family, inputs, dead_relu, batch_size, epochs, with_extra, seed
    ):
        config = LocalTrainingConfig(
            epochs=epochs, batch_size=batch_size, learning_rate=0.05
        )
        results = []
        for run in (oracle_run_local_sgd, run_local_sgd):
            problem = _problem(family, seed, inputs)
            start = _start(problem, seed, dead_relu)
            extra = _extra(start) if with_extra else None
            with accumulating_layers() if run is oracle_run_local_sgd else (
                contextlib.nullcontext()
            ):
                results.append(
                    run(problem, start, config, np.random.default_rng(seed), extra)
                )
        (expected, expected_loss), (params, loss) = results
        assert np.array_equal(params, expected)
        assert loss == expected_loss

    def test_the_inputs_do_reach_negative_zero(self, monkeypatch):
        """The oracle comparison covers the case it says it covers: signed
        zeros do flow into the reductions that are now assigned."""
        problem = _problem("mlp", 3, "zeros")
        start = _start(problem, 3, dead_relu=True)
        features, labels = problem.dataset.features, problem.dataset.labels
        seen = []
        original = Linear.backward_params
        monkeypatch.setattr(
            Linear,
            "backward_params",
            lambda self, grad: seen.append(grad) or original(self, grad),
        )
        _, grad = problem.loss_and_grad(start, features, labels)
        monkeypatch.undo()
        upstream = seen[-1]  # what the first layer reduces
        assert np.any(np.signbit(upstream) & (upstream == 0.0))
        with accumulating_layers():
            _, accumulated = oracle_loss_and_grad(problem, start, features, labels)
        assert np.array_equal(grad, accumulated)


# --------------------------------------------------------------------------- #
# The gradient contract: assigned, live, valid until the next call
# --------------------------------------------------------------------------- #
class TestGradientContract:
    def test_linear_backward_params_assigns(self):
        layer = Linear(4, 3, rng=0)
        rng = np.random.default_rng(0)
        layer.forward(rng.normal(size=(5, 4)))
        layer.backward_params(rng.normal(size=(5, 3)))
        x, g = rng.normal(size=(5, 4)), rng.normal(size=(5, 3))
        layer.forward(x)
        layer.backward_params(g)
        assert np.array_equal(layer.weight.grad, x.T @ g)
        assert np.array_equal(layer.bias.grad, g.sum(axis=0))

    def test_conv_backward_params_assigns(self):
        rng = np.random.default_rng(1)
        x, g = rng.normal(size=(2, 2, 5, 5)), rng.normal(size=(2, 3, 5, 5))
        once = Conv2D(2, 3, kernel_size=3, padding=1, rng=0)
        once.forward(x)
        once.backward_params(g)
        twice = Conv2D(2, 3, kernel_size=3, padding=1, rng=0)
        twice.forward(rng.normal(size=(2, 2, 5, 5)))
        twice.backward(rng.normal(size=(2, 3, 5, 5)))
        twice.forward(x)
        twice.backward(g)
        assert np.array_equal(twice.weight.grad, once.weight.grad)
        assert np.array_equal(twice.bias.grad, once.bias.grad)
        assert np.any(once.weight.grad != 0)

    def test_loss_and_grad_returns_the_live_gradient_vector(self):
        problem = _problem("mlp", 0, "normal")
        features, labels = problem.dataset.features, problem.dataset.labels
        params = problem.model.get_flat_params()
        _, grad = problem.loss_and_grad(params, features, labels)
        assert grad is problem.model.flat_grad
        kept = grad.copy()
        _, again = problem.loss_and_grad(params + 0.5, features, labels)
        assert again is grad
        assert not np.array_equal(grad, kept)  # overwritten by the next call

    def test_holders_of_a_gradient_get_a_copy(self):
        problem = _problem("mlp", 0, "normal")
        features, labels = problem.dataset.features, problem.dataset.labels
        params = problem.model.get_flat_params()
        held = problem.batch_gradient(params, features, labels)
        _, full = problem.full_loss_and_grad(params)
        for vector in (held, full):
            assert not np.shares_memory(vector, problem.model.flat_grad)
        expected = held.copy()
        problem.loss_and_grad(params + 1.0, features, labels)
        assert np.array_equal(held, expected)

    def test_bound_vector_skips_the_load(self, monkeypatch):
        problem = _problem("mlp", 0, "normal")
        live = problem.bind(np.full(problem.dim, 0.1))
        assert live is problem.model.flat_value
        loads = []
        monkeypatch.setattr(
            type(problem.model), "set_flat_params", lambda self, flat: loads.append(1)
        )
        assert problem.bind(live) is live
        problem.loss_and_grad(live, problem.dataset.features, problem.dataset.labels)
        assert loads == []
        problem.loss_and_grad(
            live.copy(), problem.dataset.features, problem.dataset.labels
        )
        assert loads == [1]

    @pytest.mark.parametrize("family", ["mlp", "small_cnn"])
    def test_gradcheck_needs_no_zero_grad(self, family):
        problem = _problem(family, 0, "normal")
        model = problem.model
        model.set_flat_grad(np.full(model.num_params, 1e6))  # stale garbage
        error = check_gradients(
            model, problem.loss, problem.dataset.features, problem.dataset.labels
        )
        assert error < 1e-5


# --------------------------------------------------------------------------- #
# Batches: one gather per epoch is the per-batch gather
# --------------------------------------------------------------------------- #
class TestEpochGatherEqualsBatchGather:
    @given(
        n=st.integers(min_value=1, max_value=40),
        batch_size=st.one_of(st.none(), st.integers(min_value=1, max_value=45)),
        four_d=st.booleans(),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_shuffled(self, n, batch_size, four_d, seed):
        data = np.random.default_rng(seed)
        features = data.normal(size=(n, 2, 3, 3) if four_d else (n, 5))
        labels = data.integers(0, 7, size=n)
        ours_rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
        ours = list(iterate_minibatches(features, labels, batch_size, rng=ours_rng))
        oracle = list(
            oracle_iterate_minibatches(features, labels, batch_size, rng=oracle_rng)
        )
        assert len(ours) == len(oracle)
        for (x, y), (expected_x, expected_y) in zip(ours, oracle):
            assert x.shape == expected_x.shape and y.shape == expected_y.shape
            assert x.dtype == expected_x.dtype and y.dtype == expected_y.dtype
            assert np.array_equal(x, expected_x) and np.array_equal(y, expected_y)
            assert x.flags.c_contiguous and y.flags.c_contiguous
        # Same RNG consumption: the streams are in the same place afterwards.
        assert ours_rng.random() == oracle_rng.random()

    @pytest.mark.parametrize("shape", [(10, 4), (10, 1, 3, 3)])
    def test_unshuffled_batches_are_slices_of_the_input(self, shape):
        features = np.random.default_rng(0).normal(size=shape)
        labels = np.arange(10)
        rng = np.random.default_rng(0)
        batches = list(iterate_minibatches(features, labels, 4, rng=rng, shuffle=False))
        oracle = list(oracle_iterate_minibatches(features, labels, 4, shuffle=False))
        assert [len(y) for _, y in batches] == [4, 4, 2]
        for (x, y), (expected_x, expected_y) in zip(batches, oracle):
            assert np.array_equal(x, expected_x) and np.array_equal(y, expected_y)
            assert np.shares_memory(x, features) and np.shares_memory(y, labels)
            assert x.flags.c_contiguous
        assert rng.random() == np.random.default_rng(0).random()  # no draw


# --------------------------------------------------------------------------- #
# Aliasing: what comes back is the caller's, the model is only a workspace
# --------------------------------------------------------------------------- #
class TestNothingAliasesTheModel:
    def test_run_local_sgd_returns_its_own_array(self):
        problem = _problem("mlp", 0, "normal")
        storage = problem.model._flat().storage
        start = problem.model.get_flat_params()
        before = start.copy()
        config = LocalTrainingConfig(epochs=2, batch_size=4, learning_rate=0.1)
        params, _ = run_local_sgd(problem, start, config, rng=0)
        assert np.array_equal(start, before)
        for vector in (storage.value, storage.grad):
            assert not np.shares_memory(params, vector)
        kept = params.copy()
        run_local_sgd(problem, start + 1.0, config, rng=1)
        assert np.array_equal(params, kept)

    @pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY))
    def test_second_local_update_cannot_see_the_first(self, name):
        """Two updates on one ``LocalProblem`` == the second one on a fresh one."""
        config = LocalTrainingConfig(epochs=2, batch_size=4, learning_rate=0.1)
        algorithm = build_algorithm(name)

        def update(problem, seed):
            theta = np.random.default_rng(seed).normal(scale=0.3, size=problem.dim)
            client = ClientState(client_id=0, dataset=problem.dataset)
            message = algorithm.local_update(
                problem, client, theta, algorithm.init_server_state(theta, 1), config,
                rng=seed,
            )
            return message, client

        shared = _problem("mlp", 0, "normal")
        storage = shared.model._flat().storage
        first, first_client = update(shared, 1)
        first_payload = {key: value.copy() for key, value in first.payload.items()}
        second, second_client = update(shared, 2)
        fresh, _ = update(_problem("mlp", 0, "normal"), 2)
        for key, value in second.payload.items():
            assert np.array_equal(value, fresh.payload[key])
        held = list(first.payload.values()) + list(second.payload.values())
        for client in (first_client, second_client):
            held += list(client.variables.values())
        for vector in held:
            assert not np.shares_memory(vector, storage.value)
            assert not np.shares_memory(vector, storage.grad)
        for key, value in first.payload.items():
            assert np.array_equal(value, first_payload[key])
