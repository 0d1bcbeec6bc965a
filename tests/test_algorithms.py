"""Tests for the federated algorithms' local updates and aggregation rules."""

import tracemalloc

import numpy as np
import pytest

from repro.algorithms import (
    ALGORITHM_REGISTRY,
    FedADMM,
    FedAvg,
    FedPD,
    FedProx,
    FedSGD,
    Scaffold,
    build_algorithm,
)
from repro.algorithms import base as algorithms_base
from repro.algorithms.base import LocalTrainingConfig, OneClientCohort, run_local_sgd
from repro.core.admm_client import admm_client_update
from repro.core.rho import PiecewiseRho
from repro.core.stepsize import ParticipationScaledStepSize
from repro.datasets.base import Dataset
from repro.exceptions import ConfigurationError
from repro.federated.client import ClientState
from repro.federated.local_problem import LocalProblem
from repro.federated.messages import ClientMessage
from repro.nn.layers import Linear
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLP
from repro.nn.module import Module
from tests.conftest import make_model


@pytest.fixture()
def problem_and_client(blobs_split, iid_partition):
    dataset = iid_partition.client_dataset(blobs_split.train, 0)
    model = make_model(seed=0)
    problem = LocalProblem(model=model, loss=CrossEntropyLoss(), dataset=dataset)
    client = ClientState(client_id=0, dataset=dataset)
    return problem, client


def _message(payload, client_id=0):
    return ClientMessage(
        client_id=client_id,
        payload=payload,
        num_samples=10,
        local_epochs=1,
        train_loss=0.1,
    )


class TestRegistry:
    def test_all_paper_algorithms_registered(self):
        assert set(ALGORITHM_REGISTRY) == {
            "fedsgd",
            "fedavg",
            "fedprox",
            "scaffold",
            "fedadmm",
            "fedpd",
        }

    def test_build_algorithm(self):
        assert isinstance(build_algorithm("fedadmm", rho=0.5), FedADMM)
        with pytest.raises(ConfigurationError):
            build_algorithm("fedrandom")


class TestLocalTrainingConfig:
    def test_valid(self):
        config = LocalTrainingConfig(epochs=3, batch_size=None, learning_rate=0.1)
        assert config.epochs == 3

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            LocalTrainingConfig(epochs=0, batch_size=8, learning_rate=0.1)
        with pytest.raises(ConfigurationError):
            LocalTrainingConfig(epochs=1, batch_size=0, learning_rate=0.1)
        with pytest.raises(ConfigurationError):
            LocalTrainingConfig(epochs=1, batch_size=8, learning_rate=0.0)


class TestRunLocalSgd:
    def test_reduces_local_loss(self, problem_and_client, training_config):
        problem, _ = problem_and_client
        start = problem.model.get_flat_params()
        params, _ = run_local_sgd(problem, start, training_config, rng=0)
        assert problem.full_loss(params) < problem.full_loss(start)

    def test_does_not_mutate_start(self, problem_and_client, training_config):
        problem, _ = problem_and_client
        start = problem.model.get_flat_params()
        original = start.copy()
        run_local_sgd(problem, start, training_config, rng=0)
        assert np.array_equal(start, original)

    def test_extra_grad_changes_result(self, problem_and_client, training_config):
        problem, _ = problem_and_client
        start = problem.model.get_flat_params()
        plain, _ = run_local_sgd(problem, start, training_config, rng=0)
        pulled, _ = run_local_sgd(
            problem, start, training_config, rng=0, extra_grad=lambda w: 10.0 * (w - start)
        )
        assert not np.allclose(plain, pulled)
        # The strong pull keeps the iterate closer to the start.
        assert np.linalg.norm(pulled - start) < np.linalg.norm(plain - start)


class TestLocalStepCost:
    """Timing-free pins on what one local SGD step is allowed to do."""

    @pytest.fixture()
    def wide_problem(self):
        # 784 -> 32 -> 10 (d = 25,450): wide enough that model-sized arrays
        # dwarf the 4-sample batches in the memory test.
        rng = np.random.default_rng(0)
        dataset = Dataset(
            features=rng.normal(size=(8, 784)),
            labels=rng.integers(0, 10, size=8),
            name="wide",
        )
        model = MLP(784, (32,), num_classes=10, rng=0)
        return LocalProblem(model=model, loss=CrossEntropyLoss(), dataset=dataset)

    def test_no_parameter_tree_walk_per_step(self, wide_problem, monkeypatch):
        problem = wide_problem
        params = problem.model.get_flat_params()
        features, labels = problem.dataset.features, problem.dataset.labels
        problem.loss_and_grad(params, features, labels)  # warm-up
        walks = []
        for name in ("parameters", "_collect_parameters"):
            original = getattr(Module, name)
            monkeypatch.setattr(
                Module,
                name,
                lambda self, _original=original: walks.append(self) or _original(self),
            )
        for _ in range(3):
            problem.loss_and_grad(params, features, labels)
        assert walks == []

    def test_first_layer_input_gradient_is_not_computed(
        self, wide_problem, monkeypatch
    ):
        problem = wide_problem
        returned = []
        original = Linear.backward
        monkeypatch.setattr(
            Linear,
            "backward",
            lambda self, grad: returned.append(original(self, grad)) or returned[-1],
        )
        problem.loss_and_grad(
            problem.model.get_flat_params(),
            problem.dataset.features,
            problem.dataset.labels,
        )
        # Only the output layer hands a gradient upstream: (n, hidden), never
        # the (n, 784) product that nothing reads.
        assert [grad.shape for grad in returned] == [(8, 32)]

    def test_fedadmm_steps_allocate_no_model_sized_temporaries(
        self, wide_problem, monkeypatch
    ):
        problem = wide_problem
        theta = problem.model.get_flat_params()
        config = LocalTrainingConfig(epochs=25, batch_size=4, learning_rate=0.01)
        growth = []

        def measured(problem, start, config, rng, extra_grad, out=None):
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                result = run_local_sgd(
                    problem, start, config, rng=rng, extra_grad=extra_grad, out=out
                )
                growth.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
            return result

        def update():
            # The update trains ``w`` in place: it is the new local model.
            w = theta[None].copy()
            admm_client_update(
                OneClientCohort(problem, config.epochs, rng=0),
                w, np.zeros((1, theta.size)), theta, 0.3, config,
            )
            return w

        expected = update()  # warm-up: the model moves into flat storage once
        monkeypatch.setattr(algorithms_base, "run_local_sgd", measured)
        assert np.array_equal(update(), expected)
        # 50 steps live in the iterate plus one gradient or matmul product
        # at a time: measured 2.1 model-sized arrays, where the allocating
        # step `params -= lr * (grad + y + rho * (w - theta))` peaked at 4.1.
        assert growth[0] / theta.nbytes < 3.0


class TestSeedCoercion:
    @pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY))
    def test_integer_seed_is_one_stream_across_epochs(self, name, problem_and_client):
        # An int handed down to ``minibatches`` was re-coerced every epoch
        # and replayed the first epoch's shuffle three times.
        problem, _ = problem_and_client
        assert problem.num_samples > 4
        theta = problem.model.get_flat_params()
        config = LocalTrainingConfig(epochs=3, batch_size=4, learning_rate=0.1)
        algorithm = build_algorithm(name)
        server_state = algorithm.init_server_state(theta, 1)
        seeded, streamed = (
            algorithm.local_update(
                problem, ClientState(client_id=0, dataset=problem.dataset), theta,
                server_state, config, rng=rng,
            )
            for rng in (5, np.random.default_rng(5))
        )
        assert seeded.payload.keys() == streamed.payload.keys()
        for key, vector in seeded.payload.items():
            np.testing.assert_array_equal(vector, streamed.payload[key])
        assert seeded.train_loss == streamed.train_loss


class TestFedSGD:
    def test_message_is_full_gradient(self, problem_and_client, training_config):
        problem, client = problem_and_client
        algorithm = FedSGD(server_learning_rate=0.5)
        theta = problem.model.get_flat_params()
        message = algorithm.local_update(problem, client, theta, {}, training_config, rng=0)
        _, expected = problem.full_loss_and_grad(theta)
        assert np.allclose(message.payload["gradient"], expected)

    def test_aggregate_applies_mean_gradient_step(self):
        algorithm = FedSGD(server_learning_rate=0.1)
        theta = np.zeros(3)
        messages = [
            _message({"gradient": np.array([1.0, 0.0, 0.0])}),
            _message({"gradient": np.array([0.0, 1.0, 0.0])}, client_id=1),
        ]
        new_theta = algorithm.aggregate(theta, {}, messages, 10, 0)
        assert np.allclose(new_theta, [-0.05, -0.05, 0.0])

    def test_invalid_lr(self):
        with pytest.raises(ConfigurationError):
            FedSGD(server_learning_rate=0.0)


class TestFedAvgAndFedProx:
    def test_fedavg_aggregate_is_plain_average(self):
        algorithm = FedAvg()
        messages = [
            _message({"params": np.array([0.0, 0.0])}),
            _message({"params": np.array([2.0, 4.0])}, client_id=1),
        ]
        assert np.allclose(algorithm.aggregate(np.zeros(2), {}, messages, 10, 0), [1.0, 2.0])

    def test_fedavg_sample_weighting(self):
        algorithm = FedAvg(weighting="samples")
        messages = [
            ClientMessage(0, {"params": np.array([0.0])}, num_samples=30, local_epochs=1, train_loss=0.0),
            ClientMessage(1, {"params": np.array([4.0])}, num_samples=10, local_epochs=1, train_loss=0.0),
        ]
        assert np.allclose(algorithm.aggregate(np.zeros(1), {}, messages, 10, 0), [1.0])

    def test_fedprox_stays_closer_to_global_model(self, problem_and_client, training_config):
        """The proximal pull keeps FedProx's local model nearer theta than FedAvg's."""
        problem, client = problem_and_client
        theta = problem.model.get_flat_params()
        fedavg_msg = FedAvg().local_update(problem, client, theta, {}, training_config, rng=0)
        fedprox_msg = FedProx(rho=10.0).local_update(
            problem, ClientState(client_id=0, dataset=client.dataset), theta, {}, training_config, rng=0
        )
        drift_avg = np.linalg.norm(fedavg_msg.payload["params"] - theta)
        drift_prox = np.linalg.norm(fedprox_msg.payload["params"] - theta)
        assert drift_prox < drift_avg

    def test_fedprox_rho_zero_matches_fedavg(self, problem_and_client, training_config):
        """Section III-B: FedProx with rho=0 is exactly FedAvg's local problem."""
        problem, client = problem_and_client
        theta = problem.model.get_flat_params()
        avg = FedAvg().local_update(problem, client, theta, {}, training_config, rng=123)
        prox = FedProx(rho=0.0).local_update(
            problem, ClientState(client_id=0, dataset=client.dataset), theta, {}, training_config, rng=123
        )
        assert np.allclose(avg.payload["params"], prox.payload["params"])

    def test_invalid_weighting(self):
        with pytest.raises(ConfigurationError):
            FedAvg(weighting="volume")
        with pytest.raises(ConfigurationError):
            FedProx(rho=-1.0)

    def test_upload_cost_is_one_model(self, problem_and_client, training_config):
        problem, client = problem_and_client
        theta = problem.model.get_flat_params()
        message = FedAvg().local_update(problem, client, theta, {}, training_config, rng=0)
        assert message.upload_floats == theta.size


class TestScaffold:
    def test_control_variates_initialised_to_zero(self, problem_and_client):
        _, client = problem_and_client
        algorithm = Scaffold()
        algorithm.init_client_state(client, np.zeros(5))
        assert np.array_equal(client.get("control"), np.zeros(5))
        state = algorithm.init_server_state(np.zeros(5), 10)
        assert np.array_equal(state["control"], np.zeros(5))

    def test_upload_and_download_are_doubled(self):
        algorithm = Scaffold()
        assert algorithm.upload_floats(100) == 200
        assert algorithm.download_floats(100) == 200

    def test_message_contains_two_vectors(self, problem_and_client, training_config):
        problem, client = problem_and_client
        algorithm = Scaffold()
        theta = problem.model.get_flat_params()
        state = algorithm.init_server_state(theta, 8)
        message = algorithm.local_update(problem, client, theta, state, training_config, rng=0)
        assert set(message.payload) == {"delta_params", "delta_control"}
        assert message.upload_floats == 2 * theta.size

    def test_aggregate_updates_server_control(self, problem_and_client, training_config):
        problem, client = problem_and_client
        algorithm = Scaffold()
        theta = problem.model.get_flat_params()
        state = algorithm.init_server_state(theta, 8)
        message = algorithm.local_update(problem, client, theta, state, training_config, rng=0)
        new_theta = algorithm.aggregate(theta, state, [message], 8, 0)
        assert not np.allclose(new_theta, theta)
        assert np.linalg.norm(state["control"]) > 0

    def test_control_refresh_option_two_identity(self, problem_and_client, training_config):
        """Option II: c_i+ = c_i - c + (theta - w)/(K*lr)."""
        problem, client = problem_and_client
        algorithm = Scaffold()
        theta = problem.model.get_flat_params()
        state = algorithm.init_server_state(theta, 8)
        message = algorithm.local_update(problem, client, theta, state, training_config, rng=0)
        new_params = theta + message.payload["delta_params"]
        steps = int(np.ceil(client.num_samples / training_config.batch_size)) * training_config.epochs
        expected_control = (theta - new_params) / (steps * training_config.learning_rate)
        assert np.allclose(client.get("control"), expected_control)


class TestFedPD:
    def test_holds_primal_dual_pair(self, problem_and_client, training_config):
        problem, client = problem_and_client
        algorithm = FedPD(rho=0.1)
        theta = problem.model.get_flat_params()
        algorithm.local_update(problem, client, theta, {}, training_config, rng=0)
        assert client.has("w") and client.has("y")

    def test_aggregate_averages_augmented_models(self):
        algorithm = FedPD(rho=0.5, communication_probability=1.0)
        messages = [
            _message({"augmented_model": np.array([1.0, 1.0])}),
            _message({"augmented_model": np.array([3.0, 5.0])}, client_id=1),
        ]
        assert np.allclose(algorithm.aggregate(np.zeros(2), {}, messages, 2, 0), [2.0, 3.0])

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            FedPD(rho=0.0)
        with pytest.raises(ConfigurationError):
            FedPD(communication_probability=0.0)


class TestFedADMM:
    def test_client_state_initialised_per_paper(self, problem_and_client):
        _, client = problem_and_client
        algorithm = FedADMM(rho=0.1)
        theta = np.arange(4, dtype=float)
        algorithm.init_client_state(client, theta)
        assert np.array_equal(client.get("w"), theta)
        assert np.array_equal(client.get("y"), np.zeros(4))

    def test_local_update_stores_new_state_and_uploads_one_vector(
        self, problem_and_client, training_config
    ):
        problem, client = problem_and_client
        algorithm = FedADMM(rho=0.1)
        theta = problem.model.get_flat_params()
        message = algorithm.local_update(problem, client, theta, {}, training_config, rng=0)
        assert set(message.payload) == {"delta"}
        assert message.upload_floats == theta.size  # same cost as FedAvg/Prox
        assert np.allclose(
            client.get("y"), 0 + 0.1 * (client.get("w") - theta)
        )

    def test_duals_accumulate_across_participations(self, problem_and_client, training_config):
        problem, client = problem_and_client
        algorithm = FedADMM(rho=0.5)
        theta = problem.model.get_flat_params()
        algorithm.local_update(problem, client, theta, {}, training_config, round_index=0, rng=0)
        y_after_first = client.get("y").copy()
        algorithm.local_update(problem, client, theta, {}, training_config, round_index=1, rng=1)
        assert not np.allclose(client.get("y"), y_after_first)

    def test_aggregate_tracking_update(self):
        algorithm = FedADMM(rho=0.1, server_step_size=1.0)
        theta = np.zeros(2)
        messages = [
            _message({"delta": np.array([2.0, 0.0])}),
            _message({"delta": np.array([0.0, 4.0])}, client_id=1),
        ]
        assert np.allclose(algorithm.aggregate(theta, {}, messages, 20, 0), [1.0, 2.0])

    def test_participation_scaled_step_size(self):
        algorithm = FedADMM(rho=0.1, server_step_size="participation")
        assert isinstance(algorithm.step_size_policy, ParticipationScaledStepSize)
        theta = np.zeros(1)
        messages = [_message({"delta": np.array([10.0])})]
        # eta = |S|/m = 1/10 -> update is mean(delta) * 0.1 = 1.0
        assert np.allclose(algorithm.aggregate(theta, {}, messages, 10, 0), [1.0])

    def test_rho_schedule_is_used(self, problem_and_client, training_config):
        problem, client = problem_and_client
        schedule = PiecewiseRho(values=[0.01, 1.0], boundaries=[5])
        algorithm = FedADMM(rho=schedule)
        theta = problem.model.get_flat_params()
        early = algorithm.local_update(
            problem, client, theta, {}, training_config, round_index=0, rng=0
        )
        late = algorithm.local_update(
            problem, client, theta, {}, training_config, round_index=7, rng=0
        )
        assert early.metadata["rho"] == 0.01
        assert late.metadata["rho"] == 1.0

    def test_disable_duals_matches_fedprox_local_training(
        self, problem_and_client, training_config
    ):
        """Section III-B: with y == 0, FedADMM's local problem is FedProx's."""
        problem, client = problem_and_client
        theta = problem.model.get_flat_params()
        rho = 0.37
        admm = FedADMM(rho=rho, use_duals=False, warm_start=False)
        admm_msg = admm.local_update(problem, client, theta, {}, training_config, rng=999)
        prox = FedProx(rho=rho)
        prox_msg = prox.local_update(
            problem, ClientState(client_id=0, dataset=client.dataset), theta, {}, training_config, rng=999
        )
        assert np.allclose(client.get("w"), prox_msg.payload["params"])

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            FedADMM(rho="large")
        with pytest.raises(ConfigurationError):
            FedADMM(server_step_size="huge")
        with pytest.raises(ConfigurationError):
            FedADMM(rho=0.1).aggregate(np.zeros(2), {}, [], 10, 0)
