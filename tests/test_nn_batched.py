"""Direct unit tests for the stack-bound model in ``repro.nn.batched``.

The executor-level tests (``test_vectorized_executor.py``) cover the MLP +
cross-entropy path end to end; these run each layer and loss with a client
axis against the same layer without one — Tanh, Flatten, MSE, nested
containers — and pin the binding rules (what :func:`build_batched_model`
accepts and rejects, what a stack-bound copy shares and refuses).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import build_algorithm
from repro.algorithms.base import LocalTrainingConfig
from repro.datasets.base import Dataset
from repro.exceptions import ShapeError
from repro.federated.client import ClientState
from repro.federated.local_problem import LocalProblem
from repro.nn.batched import (
    BatchedCohort,
    batched_run_local_sgd,
    build_batched_model,
)
from repro.nn.gradcheck import check_gradients
from repro.nn.layers import (
    Conv2D,
    Flatten,
    Linear,
    MaxPool2D,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.losses import CrossEntropyLoss, MSELoss
from repro.nn.models import MLP, SmallCNN, _ImageReshape
from repro.nn.module import Module


def make_template(rng):
    """A model using every supported layer type, with a nested container."""
    return Sequential(
        Flatten(),
        Linear(6, 5, rng=rng),
        Tanh(),
        Sequential(Linear(5, 4, rng=rng), Tanh()),
        Linear(4, 3, rng=rng),
    )


def serial_loss_and_grad(model, loss, params, features, labels):
    model.set_flat_params(params)
    model.zero_grad()
    predictions = model.forward(features)
    value, grad_predictions = loss.value_and_grad(predictions, labels)
    model.backward(grad_predictions)
    return value, model.get_flat_grad()


class TestBatchedModelKernels:
    def test_stacked_loss_and_grad_matches_serial_per_client(self):
        rng = np.random.default_rng(0)
        model = make_template(rng)
        loss = CrossEntropyLoss()
        batched = build_batched_model(model, loss)
        assert batched is not None
        assert batched.dim == model.num_params

        cohort_size, n = 4, 9
        features = rng.normal(size=(cohort_size, n, 6))
        labels = rng.integers(0, 3, size=(cohort_size, n))
        params = rng.normal(size=(cohort_size, model.num_params))

        losses, grads = batched.loss_and_grad(params, features, labels)
        for c in range(cohort_size):
            value, grad = serial_loss_and_grad(
                model, loss, params[c], features[c], labels[c]
            )
            assert abs(losses[c] - value) < 1e-10
            np.testing.assert_allclose(grads[c], grad, atol=1e-10, rtol=0)

    @pytest.mark.parametrize("hidden_dims", [(), (5,), (5, 4)], ids=["0", "1", "2"])
    def test_mlp_of_any_depth_matches_serial_per_client(self, hidden_dims):
        rng = np.random.default_rng(4)
        model = MLP(input_dim=6, hidden_dims=hidden_dims, num_classes=3, rng=rng)
        loss = CrossEntropyLoss()
        batched = build_batched_model(model, loss)
        assert batched.dim == model.num_params
        features = rng.normal(size=(3, 7, 6))
        labels = rng.integers(0, 3, size=(3, 7))
        params = rng.normal(size=(3, model.num_params))
        losses, grads = batched.loss_and_grad(params, features, labels)
        for c in range(3):
            value, grad = serial_loss_and_grad(
                model, loss, params[c], features[c], labels[c]
            )
            assert abs(losses[c] - value) < 1e-10
            np.testing.assert_allclose(grads[c], grad, atol=1e-10, rtol=0)

    def test_full_loss_and_grad_matches_chunked_serial(self):
        rng = np.random.default_rng(1)
        model = MLP(input_dim=6, hidden_dims=(5,), num_classes=3, rng=rng)
        loss = CrossEntropyLoss()
        batched = build_batched_model(model, loss)
        features = rng.normal(size=(3, 10, 6))
        labels = rng.integers(0, 3, size=(3, 10))
        shared = rng.normal(size=model.num_params)

        cohort = BatchedCohort(model=batched, features=features, labels=labels,
                               epochs=np.ones(3))
        losses, grads = cohort.full_loss_and_grad(shared, batch_size=4)
        for c in range(3):
            # Serial reference with the same chunk-weighted accumulation.
            total_loss, total_grad, count = 0.0, np.zeros(model.num_params), 0
            for start in range(0, 10, 4):
                x, y = features[c, start:start + 4], labels[c, start:start + 4]
                value, grad = serial_loss_and_grad(model, loss, shared, x, y)
                total_loss += value * len(y)
                total_grad += grad * len(y)
                count += len(y)
            assert abs(losses[c] - total_loss / count) < 1e-10
            np.testing.assert_allclose(
                grads[c], total_grad / count, atol=1e-10, rtol=0
            )

    def test_mse_with_a_client_axis_matches_each_client_alone(self):
        rng = np.random.default_rng(2)
        predictions = rng.normal(size=(3, 7, 2))
        targets = rng.normal(size=(3, 7, 2))
        loss = MSELoss()
        losses, grads = loss.value_and_grad(predictions, targets, client_axes=1)
        assert losses.shape == (3,)
        for c in range(3):
            value, grad = loss.value_and_grad(predictions[c], targets[c])
            assert abs(losses[c] - value) < 1e-12
            np.testing.assert_allclose(grads[c], grad, atol=1e-12, rtol=0)

    def test_sgd_with_extra_grad_matches_serial_updates(self):
        rng = np.random.default_rng(3)
        model = MLP(input_dim=6, hidden_dims=(5,), num_classes=3, rng=rng)
        batched = build_batched_model(model, CrossEntropyLoss())
        features = rng.normal(size=(2, 8, 6))
        labels = rng.integers(0, 3, size=(2, 8))
        start = rng.normal(size=(2, model.num_params))
        anchor = rng.normal(size=model.num_params)

        class Config:
            batch_size = None  # full batch: no orders needed
            learning_rate = 0.1

        cohort = BatchedCohort(model=batched, features=features, labels=labels,
                               epochs=np.full(2, 2))
        params, losses = batched_run_local_sgd(
            cohort, start, Config,
            extra_grad=lambda p: 0.5 * (p - anchor[None, :]),
        )
        # Serial reference: the same two full-batch steps per client.
        for c in range(2):
            w = start[c].copy()
            batch_losses = []
            for _ in range(2):
                value, grad = serial_loss_and_grad(
                    model, CrossEntropyLoss(), w, features[c], labels[c]
                )
                batch_losses.append(value)
                w -= 0.1 * (grad + 0.5 * (w - anchor))
            np.testing.assert_allclose(params[c], w, atol=1e-10, rtol=0)
            assert abs(losses[c] - np.mean(batch_losses)) < 1e-10


class SgdConfig:
    """The two fields ``batched_run_local_sgd`` reads off a training config."""

    def __init__(self, batch_size, learning_rate=0.1):
        self.batch_size = batch_size
        self.learning_rate = learning_rate


def make_ragged_cohort(batched, epochs, batch_size, seed, n=8):
    """A cohort over ``epochs`` (sorted here) plus each client's raw shuffles."""
    rng = np.random.default_rng(seed)
    epochs = np.array(sorted(epochs, reverse=True))
    clients = len(epochs)
    features = rng.normal(size=(clients, n, 6))
    labels = rng.integers(0, 3, size=(clients, n))
    start = rng.normal(size=(clients, batched.dim))
    shuffles = [
        np.stack([rng.permutation(n) for _ in range(count)]) for count in epochs
    ]
    orders = None
    if batch_size is not None and batch_size < n:
        orders = [
            np.stack([shuffles[c][epoch] for c in range(clients) if epochs[c] > epoch])
            for epoch in range(epochs[0])
        ]
    cohort = BatchedCohort(model=batched, features=features, labels=labels,
                           epochs=epochs, epoch_orders=orders)
    return cohort, start, shuffles


class TestActivePrefix:
    """Clients of one cohort run different epoch counts: each epoch trains
    the contiguous prefix of still-active clients, nobody else."""

    def _batched(self):
        model = MLP(input_dim=6, hidden_dims=(5,), num_classes=3,
                    rng=np.random.default_rng(20))
        return model, build_batched_model(model, CrossEntropyLoss())

    @settings(max_examples=30, deadline=None)
    @given(
        epochs=st.lists(st.integers(1, 5), min_size=1, max_size=7),
        batch_size=st.sampled_from([None, 3, 4, 8]),
        with_extra=st.booleans(),
        shared_start=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_ragged_cohort_equals_every_client_alone(
        self, epochs, batch_size, with_extra, shared_start, seed
    ):
        model, batched = self._batched()
        cohort, start, shuffles = make_ragged_cohort(
            batched, epochs, batch_size, seed
        )
        if shared_start:  # every client from the global model: a broadcast
            start = np.broadcast_to(start[0], start.shape)
        anchor = np.random.default_rng(seed + 1).normal(size=batched.dim)
        pulls = np.random.default_rng(seed + 2).normal(size=start.shape)

        def extra_for(rows):
            if not with_extra:
                return None
            # Per-client constants are sliced to the prefix handed in.
            return lambda live: rows[: live.shape[0]] + 0.5 * (live - anchor)

        config = SgdConfig(batch_size)
        params, losses = batched_run_local_sgd(
            cohort, start, config, extra_grad=extra_for(pulls)
        )
        loss = CrossEntropyLoss()
        for c, count in enumerate(cohort.epochs):
            # (a) A client's row does not depend on who shares the stack:
            # the same client as a cohort of one gives the same bits.
            alone = BatchedCohort(
                model=batched.clone(),
                features=cohort.features[c:c + 1],
                labels=cohort.labels[c:c + 1],
                epochs=cohort.epochs[c:c + 1],
                epoch_orders=None if cohort.epoch_orders is None else [
                    shuffles[c][epoch][None, :] for epoch in range(count)
                ],
            )
            alone_params, alone_losses = batched_run_local_sgd(
                alone, start[c:c + 1], config, extra_grad=extra_for(pulls[c:c + 1])
            )
            np.testing.assert_array_equal(params[c], alone_params[0])
            assert losses[c] == alone_losses[0]
            # (b) ... and it is the serial loop: `count` epochs, no more.
            w, seen = start[c].copy(), []
            for epoch in range(count):
                x, y = cohort.features[c], cohort.labels[c]
                step = len(y)
                if cohort.epoch_orders is not None:
                    x, y = x[shuffles[c][epoch]], y[shuffles[c][epoch]]
                    step = batch_size
                for begin in range(0, len(y), step):
                    value, grad = serial_loss_and_grad(
                        model, loss, w, x[begin:begin + step], y[begin:begin + step]
                    )
                    seen.append(value)
                    if with_extra:
                        grad = grad + pulls[c] + 0.5 * (w - anchor)
                    w -= 0.1 * grad
            np.testing.assert_allclose(params[c], w, atol=1e-10, rtol=0)
            assert abs(losses[c] - np.mean(seen)) < 1e-10

    def test_kernels_run_exactly_the_client_epochs_asked_for(self):
        # No mask, no padding: one call per epoch, on the active prefix only.
        _, batched = self._batched()
        cohort, start, _ = make_ragged_cohort(batched, [5, 1, 3, 3, 2], None, 0)
        stack_sizes = []
        original = batched.loss_and_grad

        def counting(params, features, labels):
            assert params.flags.c_contiguous and features.flags.c_contiguous
            assert np.shares_memory(features, cohort.features)  # a view
            stack_sizes.append(params.shape[0])
            return original(params, features, labels)

        batched.loss_and_grad = counting
        # A broadcast start must still train on contiguous prefixes.
        batched_run_local_sgd(
            cohort, np.broadcast_to(start[0], start.shape), SgdConfig(None)
        )
        assert stack_sizes == [5, 4, 3, 1, 1]
        assert sum(stack_sizes) == cohort.epochs.sum()

    def test_unsorted_or_misshapen_epochs_are_refused(self):
        _, batched = self._batched()
        features, labels = np.zeros((3, 4, 6)), np.zeros((3, 4), dtype=np.int64)
        for bad in ([1, 2, 2], [3, 1, 2], [2, 2], [2, 2, 2, 2]):
            with pytest.raises(ShapeError):
                BatchedCohort(model=batched, features=features, labels=labels,
                              epochs=np.array(bad))


class TestOneBodyTwoCohorts:
    """An algorithm's one ClientUpdate gives client *i* the same upload and
    state whether it trains alone (``local_update``, a cohort of one over the
    per-client kernels) or as row *i* of a stacked ragged cohort."""

    STACKED = {"fedavg": {}, "fedprox": {"rho": 0.3}, "fedsgd": {},
               "fedadmm": {"rho": 0.3}, "fedpd": {"rho": 0.3}, "scaffold": {}}
    STATE_KEYS = ("w", "y", "control")

    @pytest.mark.parametrize("name", sorted(STACKED))
    @settings(max_examples=12, deadline=None)
    @given(
        epochs=st.lists(st.integers(1, 4), min_size=1, max_size=5),
        batch_size=st.sampled_from([None, 3]),
        seed=st.integers(0, 2**16),
    )
    def test_local_update_is_row_i_of_the_stacked_update(
        self, name, epochs, batch_size, seed
    ):
        rng = np.random.default_rng(seed)
        model = MLP(input_dim=6, hidden_dims=(5,), num_classes=3, rng=rng)
        loss = CrossEntropyLoss()
        epochs = sorted(epochs, reverse=True)
        n, count, round_index = 8, len(epochs), 2
        algorithm = build_algorithm(name, **self.STACKED[name])
        theta = rng.normal(size=model.num_params)
        server_state = {
            key: rng.normal(size=value.shape)
            for key, value in algorithm.init_server_state(theta, count).items()
        }
        datasets = [
            Dataset(rng.normal(size=(n, 6)), rng.integers(0, 3, size=n))
            for _ in range(count)
        ]
        # Mid-run state: every persistent variable an algorithm may keep.
        variables = [
            {key: rng.normal(size=theta.shape) for key in self.STATE_KEYS}
            for _ in range(count)
        ]

        def fresh_clients():
            return [
                ClientState(index, dataset, {k: v.copy() for k, v in state.items()})
                for index, (dataset, state) in enumerate(zip(datasets, variables))
            ]

        def config(index):
            return LocalTrainingConfig(epochs[index], batch_size, learning_rate=0.1)

        alone = fresh_clients()
        messages = [
            algorithm.local_update(
                LocalProblem(model, loss, datasets[index]), alone[index], theta,
                server_state, config(index), round_index,
                rng=np.random.default_rng(seed + index),
            )
            for index in range(count)
        ]

        # Epoch shuffles pre-drawn per client from the same task streams, in
        # the order VectorizedExecutor._draw_epoch_orders uses.
        orders = None
        if algorithm.shuffles_minibatches and batch_size is not None:
            shuffles = []
            for index in range(count):
                task_rng = np.random.default_rng(seed + index)
                shuffles.append([task_rng.permutation(n) for _ in range(epochs[index])])
            orders = [
                np.stack([drawn[epoch] for drawn in shuffles if len(drawn) > epoch])
                for epoch in range(epochs[0])
            ]
        cohort = BatchedCohort(
            model=build_batched_model(model, loss),
            features=np.stack([dataset.features for dataset in datasets]),
            labels=np.stack([dataset.labels for dataset in datasets]),
            epochs=np.array(epochs),
            epoch_orders=orders,
        )
        stacked = fresh_clients()
        rows = algorithm.batched_local_update(
            cohort, stacked, theta, server_state, config(0), round_index
        )

        assert len(rows) == count
        for message, row, client, twin in zip(messages, rows, alone, stacked):
            assert message.payload.keys() == row.payload.keys()
            for key, vector in message.payload.items():
                np.testing.assert_allclose(row.payload[key], vector, atol=1e-8, rtol=0)
            for key in self.STATE_KEYS:
                np.testing.assert_allclose(
                    twin.get(key), client.get(key), atol=1e-8, rtol=0
                )
            assert abs(row.train_loss - message.train_loss) < 1e-8
            assert (row.client_id, row.local_epochs, row.num_samples, row.metadata) == (
                message.client_id, message.local_epochs, message.num_samples,
                message.metadata,
            )
            assert (twin.rounds_participated, twin.local_work_done) == (
                client.rounds_participated, client.local_work_done
            )


class TestCompilationRules:
    def test_supported_models_compile(self):
        rng = np.random.default_rng(0)
        for model in (
            MLP(input_dim=4, hidden_dims=(3,), num_classes=2, rng=rng),
            MLP(input_dim=4, hidden_dims=(), num_classes=2, rng=rng),
            make_template(rng),
        ):
            assert build_batched_model(model, CrossEntropyLoss()) is not None

    def test_non_sequential_module_is_rejected(self):
        assert build_batched_model(Linear(3, 2), CrossEntropyLoss()) is None

    def test_convolutional_model_compiles(self):
        rng = np.random.default_rng(0)
        model = SmallCNN(rng=rng, channels=1, image_size=8,
                         conv_channels=(2, 3), hidden=5, num_classes=2)
        batched = build_batched_model(model, CrossEntropyLoss())
        assert batched is not None
        assert batched.dim == model.num_params

    def test_custom_layer_is_rejected(self):
        class Scaler(Module):
            def forward(self, x):  # pragma: no cover - never run
                return 2.0 * x

        model = Sequential(Linear(4, 3), Scaler(), Linear(3, 2))
        assert build_batched_model(model, CrossEntropyLoss()) is None

    def test_loss_subclass_is_rejected(self):
        class TweakedLoss(CrossEntropyLoss):
            def value_and_grad(self, predictions, targets):  # pragma: no cover
                return super().value_and_grad(predictions, targets)

        model = MLP(input_dim=4, hidden_dims=(3,), num_classes=2,
                    rng=np.random.default_rng(0))
        assert build_batched_model(model, TweakedLoss()) is None

    def test_mse_loss_is_supported(self):
        model = MLP(input_dim=4, hidden_dims=(3,), num_classes=2,
                    rng=np.random.default_rng(0))
        assert build_batched_model(model, MSELoss()) is not None

    def test_shape_errors_on_mismatched_input(self):
        from repro.exceptions import ShapeError

        model = MLP(input_dim=4, hidden_dims=(3,), num_classes=2,
                    rng=np.random.default_rng(0))
        batched = build_batched_model(model, CrossEntropyLoss())
        params = np.zeros((2, model.num_params))
        with pytest.raises(ShapeError):
            batched.loss_and_grad(
                params, np.zeros((2, 5, 7)), np.zeros((2, 5), dtype=np.int64)
            )

    @pytest.mark.parametrize("bad_label", [-1, 4])
    def test_cross_entropy_refuses_labels_outside_the_classes(self, bad_label):
        # A label of -1 would wrap to class K-1 and train silently; one past
        # the end was a bare IndexError.  Same refusal, same line, as the
        # per-client loss gives for these labels.
        model = MLP(input_dim=4, hidden_dims=(3,), num_classes=4,
                    rng=np.random.default_rng(0))
        batched = build_batched_model(model, CrossEntropyLoss())
        params = np.zeros((2, model.num_params))
        labels = np.array([[0, 1, bad_label], [2, 3, 1]])
        with pytest.raises(ShapeError) as stacked:
            batched.loss_and_grad(params, np.zeros((2, 3, 4)), labels)
        with pytest.raises(ShapeError) as per_client:
            CrossEntropyLoss().value_and_grad(np.zeros((6, 4)), labels.reshape(-1))
        assert str(stacked.value) == str(per_client.value)
        assert f"[{labels.min()}, {labels.max()}]" in str(stacked.value)


    def test_cross_entropy_refuses_labels_of_another_shape(self):
        # One label column against five rows a client used to broadcast
        # through the stacked gather and train every row of a client on
        # that client's first label; the per-client loss always refused.
        model = MLP(input_dim=4, hidden_dims=(3,), num_classes=4,
                    rng=np.random.default_rng(0))
        batched = build_batched_model(model, CrossEntropyLoss())
        params = np.zeros((3, model.num_params))
        features = np.zeros((3, 5, 4))
        with pytest.raises(ShapeError, match="batch mismatch"):
            batched.loss_and_grad(params, features, np.ones((3, 1), dtype=np.int64))
        with pytest.raises(ShapeError, match="batch mismatch"):
            CrossEntropyLoss().value_and_grad(
                np.zeros((5, 4)), np.ones((5, 1), dtype=np.int64)
            )
        batched.loss_and_grad(params, features, np.ones((3, 5), dtype=np.int64))


class _StackAsOneModel:
    """A stack-bound model behind the flat-vector interface that
    ``check_gradients`` drives: every client's parameters as one vector."""

    def __init__(self, batched, cohort):
        self.batched = batched
        self.params = np.random.default_rng(0).normal(
            scale=0.3, size=(cohort, batched.dim)
        )

    def get_flat_params(self):
        return self.params.reshape(-1).copy()

    def set_flat_params(self, flat):
        self.params[...] = flat.reshape(self.params.shape)

    def forward(self, x):
        self.batched._bind(self.params)
        for layer in self.batched.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_output):
        for layer in reversed(self.batched.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    def get_flat_grad(self):
        return self.batched._param_grads.reshape(-1).copy()


class _SummedOverClients(CrossEntropyLoss):
    """The scalar whose gradient is every client's own, side by side."""

    def value(self, predictions, targets):
        return self.value_and_grad(predictions, targets)[0]

    def value_and_grad(self, predictions, targets):
        losses, grad = super().value_and_grad(predictions, targets, client_axes=1)
        return float(losses.sum()), grad


class TestStackBoundLayers:
    """What a private copy bound to ``(C, d)`` rows shares, refuses and computes."""

    def _template(self):
        rng = np.random.default_rng(12)
        return Sequential(
            _ImageReshape(1, 4, 4),
            Conv2D(1, 2, kernel_size=3, padding=1, rng=rng),
            Tanh(),
            MaxPool2D(2),
            Flatten(),
            Linear(8, 3, rng=rng),
        )

    @staticmethod
    def _arrays(layers):
        found = []
        for layer in layers:
            for value in vars(layer).values():
                if isinstance(value, np.ndarray):
                    found.append(value)
                elif hasattr(value, "grad"):
                    found += [value.value, value.grad]
        return found

    def test_a_copy_shares_no_array_with_the_template_or_another_clone(self):
        template = self._template()
        rng = np.random.default_rng(13)
        features, labels = rng.normal(size=(2, 5, 16)), rng.integers(0, 3, size=(2, 5))
        # The template has cached activations by the time it is bound.
        template.backward(template.forward(features[0]))
        batched = build_batched_model(template, CrossEntropyLoss())
        clone = batched.clone()
        theirs = self._arrays(template.layers)
        assert len(theirs) > 8
        for model in (batched, clone):
            for array in self._arrays(model.layers):  # before any call ...
                assert not any(np.shares_memory(array, other) for other in theirs)
        params = rng.normal(size=(2, batched.dim))
        batched.loss_and_grad(params, features, labels)
        clone.loss_and_grad(params.copy(), features, labels)
        mine, others = self._arrays(batched.layers), self._arrays(clone.layers)
        for array in mine:  # ... and with activations cached on both
            assert not any(np.shares_memory(array, other) for other in theirs + others)

    def test_parameters_are_views_of_the_callers_rows_and_the_workspace(self):
        batched = build_batched_model(self._template(), CrossEntropyLoss())
        rng = np.random.default_rng(14)
        params = rng.normal(size=(3, batched.dim))
        _, grads = batched.loss_and_grad(
            params, rng.normal(size=(3, 5, 16)), rng.integers(0, 3, size=(3, 5))
        )
        conv, linear = batched.layers[1], batched.layers[5]
        assert conv.weight.value.shape == (3, 2, 1, 3, 3)
        assert linear.bias.grad.shape == (3, 3)
        for layer in (conv, linear):
            for param in (layer.weight, layer.bias):
                assert np.shares_memory(param.value, params)
                assert np.shares_memory(param.grad, grads)
        # A step on the caller's rows is a step on the layers' parameters.
        params -= 1.0
        np.testing.assert_array_equal(
            linear.bias.value, params[:, -3:]
        )

    def test_a_stack_bound_layer_never_rehomes_into_a_flat_vector(self):
        batched = build_batched_model(self._template(), CrossEntropyLoss())
        params = np.zeros((2, batched.dim))
        batched.loss_and_grad(
            params, np.zeros((2, 5, 16)), np.zeros((2, 5), dtype=np.int64)
        )
        linear = batched.layers[5]
        bound = linear.weight.value
        for access in (
            lambda: linear.num_params,
            linear.parameters,
            linear.get_flat_params,
            linear.zero_grad,
            lambda: Sequential(*batched.layers).num_params,
        ):
            with pytest.raises(ShapeError, match="bound to a stack"):
                access()
        assert linear.weight.value is bound and np.shares_memory(bound, params)

    def test_each_rank_refuses_the_others_input(self):
        template = self._template()
        batched = build_batched_model(template, CrossEntropyLoss())
        batched.loss_and_grad(
            np.zeros((2, batched.dim)), np.zeros((2, 5, 16)),
            np.zeros((2, 5), dtype=np.int64),
        )
        shapes = {0: (5, 16), 1: (5, 1, 4, 4), 3: (5, 2, 4, 4), 5: (5, 8)}
        for index, shape in shapes.items():
            with pytest.raises(ShapeError):  # a client axis on a per-client layer
                template[index].forward(np.zeros((2,) + shape))
            with pytest.raises(ShapeError):  # none on a stack-bound one
                batched.layers[index].forward(np.zeros(shape))
        # Flatten cannot tell by rank; it keeps the axes its storage has.
        assert template[4].forward(np.zeros((2, 5, 8))).shape == (2, 40)
        assert batched.layers[4].forward(np.zeros((2, 5, 8))).shape == (2, 5, 8)
        with pytest.raises(ShapeError):
            CrossEntropyLoss().value_and_grad(
                np.zeros((2, 5, 3)), np.zeros((2, 5), dtype=np.int64)
            )

    @pytest.mark.parametrize("kind", ["linear", "conv", "pool"])
    def test_stacked_gradients_match_finite_differences(self, kind):
        # ``gradcheck`` had only ever seen one client.
        rng = np.random.default_rng(15)
        if kind == "linear":
            template = Sequential(Linear(5, 4, rng=rng), Tanh(), Linear(4, 3, rng=rng))
        elif kind == "pool":
            template = Sequential(
                _ImageReshape(2, 4, 4),
                Conv2D(2, 3, kernel_size=3, padding=1, rng=rng),
                Tanh(),
                MaxPool2D(2),
                Flatten(),
                Linear(3 * 2 * 2, 3, rng=rng),
            )
        else:
            template = Sequential(
                _ImageReshape(2, 4, 4),
                Conv2D(2, 3, kernel_size=3, stride=2, padding=1, rng=rng),
                Tanh(),
                Conv2D(3, 2, kernel_size=2, rng=rng),
                Flatten(),
                Linear(2, 3, rng=rng),
            )
        width = 5 if kind == "linear" else 32
        loss = _SummedOverClients()
        model = _StackAsOneModel(build_batched_model(template, CrossEntropyLoss()), 3)
        features = rng.normal(size=(3, 6, width))
        labels = rng.integers(0, 3, size=(3, 6))
        assert check_gradients(model, loss, features, labels, max_params=None) < 1e-6


class TestConvKernels:
    """The im2col conv/pool stack against the serial layers, per client."""

    def test_conv_pool_stack_matches_serial_per_client(self):
        rng = np.random.default_rng(4)
        model = Sequential(
            _ImageReshape(1, 6, 6),
            Conv2D(1, 2, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Linear(2 * 3 * 3, 3, rng=rng),
        )
        loss = CrossEntropyLoss()
        batched = build_batched_model(model, loss)
        assert batched is not None and batched.dim == model.num_params

        cohort_size, n = 3, 5
        features = rng.normal(size=(cohort_size, n, 36))
        labels = rng.integers(0, 3, size=(cohort_size, n))
        params = 0.3 * rng.normal(size=(cohort_size, model.num_params))

        losses, grads = batched.loss_and_grad(params, features, labels)
        for c in range(cohort_size):
            value, grad = serial_loss_and_grad(
                model, loss, params[c], features[c], labels[c]
            )
            assert abs(losses[c] - value) < 1e-10
            np.testing.assert_allclose(grads[c], grad, atol=1e-10, rtol=0)

    def test_small_cnn_matches_serial_per_client(self):
        rng = np.random.default_rng(5)
        model = SmallCNN(rng=rng, channels=1, image_size=8,
                         conv_channels=(2, 3), hidden=6, num_classes=3)
        loss = CrossEntropyLoss()
        batched = build_batched_model(model, loss)
        assert batched is not None

        cohort_size, n = 2, 4
        features = rng.normal(size=(cohort_size, n, 64))
        labels = rng.integers(0, 3, size=(cohort_size, n))
        params = 0.3 * rng.normal(size=(cohort_size, model.num_params))

        losses, grads = batched.loss_and_grad(params, features, labels)
        for c in range(cohort_size):
            value, grad = serial_loss_and_grad(
                model, loss, params[c], features[c], labels[c]
            )
            assert abs(losses[c] - value) < 1e-10
            np.testing.assert_allclose(grads[c], grad, atol=1e-10, rtol=0)

    def test_strided_unpadded_conv_matches_serial(self):
        rng = np.random.default_rng(6)
        model = Sequential(
            _ImageReshape(2, 5, 5),
            Conv2D(2, 3, kernel_size=3, stride=2, padding=0, rng=rng),
            Flatten(),
            Linear(3 * 2 * 2, 2, rng=rng),
        )
        loss = MSELoss()
        batched = build_batched_model(model, loss)
        assert batched is not None

        features = rng.normal(size=(2, 3, 50))
        targets = rng.normal(size=(2, 3, 2))
        params = 0.3 * rng.normal(size=(2, model.num_params))
        losses, grads = batched.loss_and_grad(params, features, targets)
        for c in range(2):
            value, grad = serial_loss_and_grad(
                model, loss, params[c], features[c], targets[c]
            )
            assert abs(losses[c] - value) < 1e-10
            np.testing.assert_allclose(grads[c], grad, atol=1e-10, rtol=0)


class TestWorkspaceReuse:
    """The reused (C, dim) gradient buffer must never corrupt results."""

    def _setup(self):
        rng = np.random.default_rng(11)
        model = MLP(input_dim=6, hidden_dims=(5,), num_classes=3, rng=rng)
        batched = build_batched_model(model, CrossEntropyLoss())
        make = lambda seed: (  # noqa: E731 - tiny local factory
            np.random.default_rng(seed).normal(size=(3, 8, 6)),
            np.random.default_rng(seed + 1).integers(0, 3, size=(3, 8)),
            np.random.default_rng(seed + 2).normal(size=(3, model.num_params)),
        )
        return batched, make

    def test_sequential_cohorts_share_the_buffer_without_corruption(self):
        batched, make = self._setup()
        xa, ya, pa = make(0)
        xb, yb, pb = make(100)

        _, grads_a = batched.loss_and_grad(pa, xa, ya)
        saved_a = grads_a.copy()
        _, grads_b = batched.loss_and_grad(pb, xb, yb)

        # Same cohort size -> the very same workspace memory, now holding
        # cohort B's gradients (the documented ownership contract).
        assert np.shares_memory(grads_b, grads_a)
        np.testing.assert_array_equal(grads_a, grads_b)

        fresh = batched.clone()
        _, ref_a = fresh.loss_and_grad(pa, xa, ya)
        np.testing.assert_allclose(saved_a, ref_a, atol=0, rtol=0)
        fresh_b = batched.clone()
        _, ref_b = fresh_b.loss_and_grad(pb, xb, yb)
        # B computed into A's dirty (unzeroed) buffer must equal B computed
        # into a fresh buffer: every backward assigns its full slice.
        np.testing.assert_allclose(grads_b, ref_b, atol=0, rtol=0)

    def test_clones_have_independent_workspaces(self):
        batched, make = self._setup()
        a, b = batched.clone(), batched.clone()
        xa, ya, pa = make(0)
        xb, yb, pb = make(100)
        _, grads_a = a.loss_and_grad(pa, xa, ya)
        _, grads_b = b.loss_and_grad(pb, xb, yb)
        assert grads_a is not grads_b
        # a's buffer still holds a's result after b ran.
        _, ref_a = batched.clone().loss_and_grad(pa, xa, ya)
        np.testing.assert_allclose(grads_a, ref_a, atol=0, rtol=0)

    def test_every_cohort_size_is_a_prefix_of_one_buffer(self):
        # The active prefix shrinks epoch by epoch: a buffer per size would
        # pile up one array per prefix length.  One allocation at the
        # largest size seen serves every smaller stack as a prefix view;
        # the loss holds no per-shape buffer at all.
        batched, make = self._setup()
        xa, ya, pa = make(0)
        _, grads_full = batched.loss_and_grad(pa, xa, ya)
        grads_buffer = batched._grads._flat
        expected_full = grads_full.copy()
        for size in (2, 1, 3, 2):
            _, grads = batched.loss_and_grad(pa[:size], xa[:size], ya[:size])
            assert grads.shape == (size, batched.dim)
            assert grads.flags.c_contiguous
            assert np.shares_memory(grads, grads_buffer)
            # A prefix call leaves exactly what a fresh model computes.
            _, reference = batched.clone().loss_and_grad(
                pa[:size], xa[:size], ya[:size]
            )
            np.testing.assert_array_equal(grads, reference)
            np.testing.assert_array_equal(grads, expected_full[:size])
        assert batched._grads._flat is grads_buffer
        assert vars(batched.loss) == {}
        assert grads_buffer.size == 3 * batched.dim
