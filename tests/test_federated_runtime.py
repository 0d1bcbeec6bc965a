"""Tests for the federated runtime: local problems, clients, samplers,
heterogeneity policies, messages, history, evaluation."""

import numpy as np
import pytest

from repro.datasets.base import Dataset
from repro.datasets.synthetic import make_blobs
from repro.exceptions import ConfigurationError
from repro.federated.client import ClientState, build_clients
from repro.federated.evaluation import evaluate_model
from repro.federated.heterogeneity import (
    FixedEpochs,
    PerClientEpochs,
    UniformRandomEpochs,
)
from repro.federated.history import RoundRecord, TrainingHistory
from repro.federated.local_problem import LocalProblem
from repro.federated.messages import BYTES_PER_FLOAT, ClientMessage, CommunicationLedger
from repro.federated.sampler import (
    BernoulliSampler,
    FixedScheduleSampler,
    UniformFractionSampler,
)
from repro.nn.losses import CrossEntropyLoss, Loss
from tests.conftest import make_model


class TestLocalProblem:
    def test_dimensions(self, local_problem):
        assert local_problem.dim == local_problem.model.num_params
        assert local_problem.num_samples == 60

    def test_full_gradient_matches_batch_average(self, local_problem):
        params = local_problem.model.get_flat_params()
        loss_full, grad_full = local_problem.full_loss_and_grad(params, batch_size=None)
        loss_chunked, grad_chunked = local_problem.full_loss_and_grad(params, batch_size=7)
        assert np.isclose(loss_full, loss_chunked)
        assert np.allclose(grad_full, grad_chunked)

    @pytest.mark.parametrize("batch_size", [None, 7, 256])
    def test_full_loss_is_the_gradient_free_value(
        self, local_problem, batch_size, monkeypatch
    ):
        params = local_problem.model.get_flat_params() + 0.1
        reference, _ = local_problem.full_loss_and_grad(params, batch_size=batch_size)

        def no_backward(*args, **kwargs):
            raise AssertionError("full_loss ran a backward pass")

        monkeypatch.setattr(type(local_problem.model), "backward_params", no_backward)
        monkeypatch.setattr(type(local_problem.model), "backward", no_backward)
        value = local_problem.full_loss(params, batch_size=batch_size)
        # CrossEntropyLoss.value and .value_and_grad associate the log-sum-exp
        # differently: same number to the last few ulps.
        assert abs(value - reference) <= 1e-12

    def test_full_loss_is_exact_where_the_value_path_is_shared(self, local_problem):
        # A loss without a gradient-free override: Loss.value *is*
        # value_and_grad()[0], so chunk for chunk the two agree exactly.
        class GradOnlyLoss(Loss):
            def value_and_grad(self, predictions, targets):
                return CrossEntropyLoss().value_and_grad(predictions, targets)

        problem = LocalProblem(
            local_problem.model, GradOnlyLoss(), local_problem.dataset
        )
        params = problem.model.get_flat_params()
        for batch_size in (None, 16):
            assert problem.full_loss(params, batch_size=batch_size) == \
                problem.full_loss_and_grad(params, batch_size=batch_size)[0]

    def test_gradient_descent_on_problem_reduces_loss(self, local_problem):
        params = local_problem.model.get_flat_params()
        initial = local_problem.full_loss(params)
        for _ in range(15):
            _, grad = local_problem.full_loss_and_grad(params)
            params = params - 0.2 * grad
        assert local_problem.full_loss(params) < initial

    def test_minibatches_cover_dataset(self, local_problem):
        batches = list(local_problem.minibatches(batch_size=16, rng=0))
        total = sum(len(labels) for _, labels in batches)
        assert total == local_problem.num_samples

    def test_empty_dataset_rejected(self, blobs_split):
        empty = blobs_split.train.subset(np.array([], dtype=np.int64))
        with pytest.raises(ConfigurationError):
            LocalProblem(make_model(), CrossEntropyLoss(), empty)


class TestClientState:
    def test_build_clients_counts(self, blobs_split, iid_partition):
        clients = build_clients(blobs_split.train, iid_partition)
        assert len(clients) == 8
        assert sum(c.num_samples for c in clients) == len(blobs_split.train)

    def test_variable_storage_is_copied(self):
        client = ClientState(client_id=0, dataset=make_blobs(n_train=10, n_test=2, rng=0).train)
        value = np.ones(3)
        client.set("w", value)
        value += 1.0
        assert np.array_equal(client.get("w"), np.ones(3))

    def test_missing_variable_raises(self):
        client = ClientState(client_id=0, dataset=make_blobs(n_train=10, n_test=2, rng=0).train)
        with pytest.raises(ConfigurationError):
            client.get("w")
        assert not client.has("w")

    def test_record_participation(self):
        client = ClientState(client_id=0, dataset=make_blobs(n_train=10, n_test=2, rng=0).train)
        client.record_participation(epochs=3)
        client.record_participation(epochs=2)
        assert client.rounds_participated == 2
        assert client.local_work_done == 5


class TestSamplers:
    def test_uniform_fraction_size(self):
        sampler = UniformFractionSampler(0.2)
        selected = sampler.sample(0, 50, rng=0)
        assert selected.size == 10
        assert len(np.unique(selected)) == 10

    def test_uniform_fraction_minimum_one(self):
        assert UniformFractionSampler(0.01).sample(0, 20, rng=0).size == 1

    def test_uniform_fraction_rounds_to_at_least_one(self):
        # Any fraction, however tiny, and any population always yield >= 1.
        for num_clients in (1, 2, 9, 1000):
            sampler = UniformFractionSampler(1e-6)
            assert sampler.num_selected(num_clients) == 1
            assert sampler.sample(0, num_clients, rng=0).size == 1
        # Round-half-up (not truncation, not banker's rounding) governs
        # the count above the floor: C·m = 2.5 means a 3-client cohort.
        assert UniformFractionSampler(0.25).num_selected(10) == 3
        assert UniformFractionSampler(0.26).num_selected(10) == 3
        assert UniformFractionSampler(1.0).num_selected(7) == 7

    def test_uniform_fraction_deterministic_under_fixed_seed(self):
        sampler = UniformFractionSampler(0.3)
        first = sampler.sample(0, 40, rng=123)
        second = sampler.sample(0, 40, rng=123)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, sampler.sample(0, 40, rng=124))

    def test_uniform_fraction_pmin(self):
        assert UniformFractionSampler(0.1).min_participation_probability(100) == pytest.approx(0.1)

    def test_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            UniformFractionSampler(0.0)

    def test_bernoulli_never_empty(self):
        sampler = BernoulliSampler(0.0001)
        for round_index in range(5):
            assert sampler.sample(round_index, 30, rng=round_index).size >= 1

    def test_bernoulli_per_client_probabilities(self):
        sampler = BernoulliSampler([0.0, 1.0, 1.0])
        selected = sampler.sample(0, 3, rng=0)
        assert set(selected.tolist()) <= {0, 1, 2}
        assert {1, 2} <= set(selected.tolist())
        assert sampler.min_participation_probability(3) == 0.0

    def test_bernoulli_wrong_length_rejected(self):
        with pytest.raises(ConfigurationError):
            BernoulliSampler([0.5, 0.5]).sample(0, 3, rng=0)

    def test_fixed_schedule_cycles(self):
        sampler = FixedScheduleSampler([[0, 1], [2]])
        assert np.array_equal(sampler.sample(0, 5), [0, 1])
        assert np.array_equal(sampler.sample(1, 5), [2])
        assert np.array_equal(sampler.sample(2, 5), [0, 1])

    def test_fixed_schedule_pmin(self):
        full = FixedScheduleSampler([[0], [1], [2]])
        assert full.min_participation_probability(3) == pytest.approx(1 / 3)
        partial = FixedScheduleSampler([[0], [1]])
        assert partial.min_participation_probability(3) == 0.0

    def test_fixed_schedule_out_of_range(self):
        with pytest.raises(ConfigurationError):
            FixedScheduleSampler([[7]]).sample(0, 3)


class TestHeterogeneity:
    def test_fixed_epochs(self):
        policy = FixedEpochs(4)
        assert policy.epochs(0, 0) == 4
        assert policy.max_epochs == 4

    def test_uniform_random_epochs_range(self):
        policy = UniformRandomEpochs(max_epochs=5)
        draws = {policy.epochs(0, r, rng=r) for r in range(200)}
        assert draws <= set(range(1, 6))
        assert len(draws) >= 4  # nearly all values appear

    def test_per_client_profile(self):
        policy = PerClientEpochs([1, 3, 5])
        assert policy.epochs(1, 0) == 3
        assert policy.max_epochs == 5
        with pytest.raises(ConfigurationError):
            policy.epochs(7, 0)

    def test_invalid_policies(self):
        with pytest.raises(ConfigurationError):
            FixedEpochs(0)
        with pytest.raises(ConfigurationError):
            UniformRandomEpochs(max_epochs=2, min_epochs=3)
        with pytest.raises(ConfigurationError):
            PerClientEpochs([0, 1])


class TestMessagesAndLedger:
    def test_upload_floats_counts_all_payload(self):
        message = ClientMessage(
            client_id=0,
            payload={"a": np.zeros(10), "b": np.zeros(5)},
            num_samples=3,
            local_epochs=1,
            train_loss=0.5,
        )
        assert message.upload_floats == 15

    def test_upload_floats_empty_payload(self):
        message = ClientMessage(
            client_id=0, payload={}, num_samples=3, local_epochs=1, train_loss=0.5
        )
        assert message.upload_floats == 0

    def test_upload_floats_multi_entry_mixed_shapes(self):
        message = ClientMessage(
            client_id=0,
            payload={
                "delta": np.zeros(7),
                "control": np.zeros((2, 3)),
                "scalar": np.zeros(1),
            },
            num_samples=3,
            local_epochs=1,
            train_loss=0.5,
        )
        assert message.upload_floats == 7 + 6 + 1

    def test_ledger_accumulates(self):
        ledger = CommunicationLedger()
        ledger.record_round(uploads=10, downloads=20)
        ledger.record_round(uploads=5, downloads=5)
        assert ledger.upload_floats == 15
        assert ledger.download_floats == 25
        assert ledger.rounds == 2
        assert ledger.total_floats == 40
        assert ledger.total_bytes == 40 * BYTES_PER_FLOAT
        assert ledger.per_round_upload == [10, 5]

    def test_ledger_byte_accounting(self):
        ledger = CommunicationLedger()
        ledger.record_round(uploads=100, downloads=50)
        assert ledger.upload_bytes == 100 * BYTES_PER_FLOAT
        assert ledger.download_bytes == 50 * BYTES_PER_FLOAT
        assert ledger.total_bytes == ledger.upload_bytes + ledger.download_bytes
        # Without an explicit wire size, the wire totals equal raw float32.
        assert ledger.upload_wire_bytes == ledger.upload_bytes
        assert ledger.download_wire_bytes == ledger.download_bytes
        assert ledger.upload_compression_ratio == 1.0

    def test_ledger_wire_bytes_tracked_separately(self):
        ledger = CommunicationLedger()
        ledger.record_round(
            uploads=100, downloads=50, upload_wire_bytes=100, download_wire_bytes=200
        )
        ledger.record_round(
            uploads=100, downloads=50, upload_wire_bytes=60, download_wire_bytes=200
        )
        assert ledger.upload_floats == 200
        assert ledger.upload_wire_bytes == 160
        assert ledger.download_wire_bytes == 400
        assert ledger.total_wire_bytes == 560
        assert ledger.per_round_upload_wire_bytes == [100, 60]
        assert ledger.upload_compression_ratio == pytest.approx(
            200 * BYTES_PER_FLOAT / 160
        )

    def test_ledger_empty_compression_ratio_is_nan(self):
        assert np.isnan(CommunicationLedger().upload_compression_ratio)


class TestHistory:
    def _history(self, accuracies):
        history = TrainingHistory(algorithm="test")
        for index, accuracy in enumerate(accuracies, start=1):
            history.append(
                RoundRecord(
                    round_index=index,
                    test_accuracy=accuracy,
                    test_loss=None if accuracy is None else 1.0 - accuracy,
                    train_loss=0.5,
                    num_selected=2,
                    upload_floats=10,
                    download_floats=10,
                    mean_local_epochs=1.0,
                )
            )
        return history

    def test_rounds_to_accuracy(self):
        history = self._history([0.2, 0.5, 0.8, 0.9])
        assert history.rounds_to_accuracy(0.8) == 3
        assert history.rounds_to_accuracy(0.95) is None

    def test_skipped_evaluations_are_nan(self):
        history = self._history([0.2, None, 0.8])
        accuracies = history.accuracies
        assert np.isnan(accuracies[1])
        assert history.best_accuracy() == 0.8
        assert history.final_accuracy() == 0.8

    def test_total_upload(self):
        assert self._history([0.1, 0.2]).total_upload_floats() == 20

    def test_accuracy_series_skips_none(self):
        series = self._history([0.1, None, 0.3]).accuracy_series()
        assert series == [(1, 0.1), (3, 0.3)]


class TestEvaluation:
    def test_evaluate_model_bounds(self, blobs_split):
        model = make_model()
        result = evaluate_model(
            model, CrossEntropyLoss(), model.get_flat_params(), blobs_split.test
        )
        assert 0.0 <= result.accuracy <= 1.0
        assert result.num_samples == len(blobs_split.test)
        assert result.loss > 0

    def test_evaluate_model_scores_the_params_it_is_given(self, blobs_split):
        model, other = make_model(seed=0), make_model(seed=1)
        params = other.get_flat_params()
        result = evaluate_model(model, CrossEntropyLoss(), params, blobs_split.test)
        logits = other.forward(blobs_split.test.features)
        labels = blobs_split.test.labels
        assert result.accuracy == float((logits.argmax(axis=1) == labels).mean())
        assert result.loss == pytest.approx(CrossEntropyLoss().value(logits, labels))
        assert np.array_equal(model.get_flat_params(), params)

    @pytest.mark.parametrize("batch_size", [None, 1, 7])
    def test_evaluation_does_not_depend_on_the_batch_size(self, blobs_split, batch_size):
        model = make_model()
        params = model.get_flat_params()
        whole = evaluate_model(model, CrossEntropyLoss(), params, blobs_split.test)
        batched = evaluate_model(
            model, CrossEntropyLoss(), params, blobs_split.test, batch_size=batch_size
        )
        assert batched.accuracy == whole.accuracy
        assert batched.num_samples == whole.num_samples
        assert batched.loss == pytest.approx(whole.loss, rel=1e-12)

    def test_an_empty_dataset_scores_nan(self, blobs_split):
        model = make_model()
        empty = Dataset(features=np.zeros((0, blobs_split.test.features.shape[1])),
                        labels=np.zeros(0, dtype=np.int64))
        result = evaluate_model(model, CrossEntropyLoss(), model.get_flat_params(), empty)
        assert result.num_samples == 0
        assert np.isnan(result.accuracy) and np.isnan(result.loss)
