"""Integration tests: the full simulation engine across all algorithms."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro.algorithms import build_algorithm
from repro.exceptions import ConfigurationError, SimulationError
from repro.experiments.configs import AlgorithmSpec, preset_config
from repro.experiments.runner import run_single
from repro.federated.engine import FederatedSimulation
from repro.federated.heterogeneity import FixedEpochs, UniformRandomEpochs
from repro.federated.rounds import finalise_round
from repro.federated.sampler import FixedScheduleSampler, UniformFractionSampler
from repro.nn.losses import CrossEntropyLoss
from tests.conftest import NUM_CLASSES, make_model


def _simulation(algorithm_name, clients, test_dataset, seed=0, fraction=0.5, **kwargs):
    return FederatedSimulation(
        algorithm=build_algorithm(algorithm_name, **kwargs),
        model=make_model(seed=seed),
        clients=clients,
        test_dataset=test_dataset,
        loss=CrossEntropyLoss(),
        sampler=UniformFractionSampler(fraction),
        local_work=FixedEpochs(2),
        batch_size=16,
        learning_rate=0.2,
        seed=seed,
    )


ALL_ALGORITHMS = ["fedadmm", "fedavg", "fedprox", "scaffold", "fedsgd"]


class TestEndToEndTraining:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_learns_above_chance_iid(self, algorithm, iid_clients, blobs_split):
        sim = _simulation(algorithm, iid_clients, blobs_split.test)
        result = sim.run(10)
        chance = 1.0 / NUM_CLASSES
        assert result.final_evaluation.accuracy > chance + 0.2
        assert result.rounds_run == 10
        assert len(result.history) == 10

    @pytest.mark.parametrize("algorithm", ["fedadmm", "fedavg", "scaffold"])
    def test_learns_above_chance_non_iid(self, algorithm, shard_clients, blobs_split):
        kwargs = {"rho": 0.3} if algorithm == "fedadmm" else {}
        sim = _simulation(algorithm, shard_clients, blobs_split.test, **kwargs)
        result = sim.run(12)
        assert result.final_evaluation.accuracy > 1.0 / NUM_CLASSES + 0.15

    def test_fedpd_with_full_participation(self, iid_clients, blobs_split):
        sim = _simulation("fedpd", iid_clients, blobs_split.test, fraction=1.0, rho=0.1)
        result = sim.run(10)
        assert result.final_evaluation.accuracy > 1.0 / NUM_CLASSES + 0.2


class TestDeterminism:
    def test_same_seed_same_result(self, blobs_split, iid_partition):
        from repro.federated.client import build_clients

        results = []
        for _ in range(2):
            clients = build_clients(blobs_split.train, iid_partition)
            sim = _simulation("fedadmm", clients, blobs_split.test, seed=5, rho=0.3)
            results.append(sim.run(4))
        assert np.allclose(results[0].final_params, results[1].final_params)
        assert results[0].history.accuracies.tolist() == results[1].history.accuracies.tolist()

    def test_different_seed_different_result(self, blobs_split, iid_partition):
        from repro.federated.client import build_clients

        finals = []
        for seed in (1, 2):
            clients = build_clients(blobs_split.train, iid_partition)
            sim = _simulation("fedavg", clients, blobs_split.test, seed=seed)
            finals.append(sim.run(3).final_params)
        assert not np.allclose(finals[0], finals[1])


class TestCommunicationAccounting:
    def test_fedadmm_upload_equals_fedavg_and_half_scaffold(self, iid_clients, blobs_split):
        """The paper's headline communication claim, measured end to end."""
        uploads = {}
        for name in ("fedadmm", "fedavg", "scaffold"):
            from repro.federated.client import build_clients

            sim = _simulation(name, list(iid_clients), blobs_split.test)
            result = sim.run(3)
            uploads[name] = result.ledger.upload_floats
        assert uploads["fedadmm"] == uploads["fedavg"]
        assert uploads["scaffold"] == 2 * uploads["fedavg"]

    def test_ledger_matches_history(self, iid_clients, blobs_split):
        sim = _simulation("fedavg", iid_clients, blobs_split.test)
        result = sim.run(4)
        assert result.ledger.rounds == 4
        assert result.ledger.upload_floats == result.history.total_upload_floats()


class TestEngineBehaviour:
    def test_stop_at_target(self, iid_clients, blobs_split):
        sim = _simulation("fedavg", iid_clients, blobs_split.test)
        result = sim.run(30, target_accuracy=0.5, stop_at_target=True)
        assert result.rounds_to_target is not None
        assert result.rounds_run == result.rounds_to_target
        assert result.reached_target

    def test_eval_every_skips_evaluations(self, iid_clients, blobs_split):
        sim = FederatedSimulation(
            algorithm=build_algorithm("fedavg"),
            model=make_model(),
            clients=iid_clients,
            test_dataset=blobs_split.test,
            sampler=UniformFractionSampler(0.5),
            local_work=FixedEpochs(1),
            batch_size=16,
            learning_rate=0.1,
            seed=0,
            eval_every=3,
        )
        result = sim.run(6)
        accuracies = result.history.accuracies
        # Rounds 1, 3, 6 evaluated; rounds 2, 4, 5 skipped.
        assert not np.isnan(accuracies[0])
        assert np.isnan(accuracies[1])
        assert not np.isnan(accuracies[2])

    def test_fixed_schedule_sampler_integration(self, iid_clients, blobs_split):
        sampler = FixedScheduleSampler([[0, 1], [2, 3], [4, 5]])
        sim = FederatedSimulation(
            algorithm=build_algorithm("fedadmm", rho=0.3),
            model=make_model(),
            clients=iid_clients,
            test_dataset=blobs_split.test,
            sampler=sampler,
            local_work=FixedEpochs(1),
            batch_size=16,
            learning_rate=0.1,
            seed=0,
        )
        result = sim.run(3)
        assert all(record.num_selected == 2 for record in result.history.records)

    def test_system_heterogeneity_varies_epochs(self, iid_clients, blobs_split):
        sim = FederatedSimulation(
            algorithm=build_algorithm("fedadmm", rho=0.3),
            model=make_model(),
            clients=iid_clients,
            test_dataset=blobs_split.test,
            sampler=UniformFractionSampler(0.5),
            local_work=UniformRandomEpochs(max_epochs=6),
            batch_size=16,
            learning_rate=0.1,
            seed=0,
        )
        result = sim.run(6)
        epochs = [record.mean_local_epochs for record in result.history.records]
        assert len(set(epochs)) > 1  # realised local work varies across rounds

    def test_invalid_construction(self, blobs_split):
        with pytest.raises(ConfigurationError):
            FederatedSimulation(
                algorithm=build_algorithm("fedavg"),
                model=make_model(),
                clients=[],
                test_dataset=blobs_split.test,
            )

    def test_invalid_round_count(self, iid_clients, blobs_split):
        sim = _simulation("fedavg", iid_clients, blobs_split.test)
        with pytest.raises(ConfigurationError):
            sim.run(0)

    def test_diverged_run_stops_with_one_line(self):
        # A huge step overflows the MLP by round 2; the run must stop there
        # instead of carrying on at chance accuracy with a NaN model.
        config = preset_config("table3", "blobs", True).with_overrides(learning_rate=1e6)
        with np.errstate(all="ignore"), pytest.raises(SimulationError) as error:
            run_single(config, AlgorithmSpec("fedavg"))
        message = str(error.value)
        assert len(message.splitlines()) == 1
        assert message.startswith("round ") and "fedavg" in message
        assert "non-finite" in message
        assert re.search(
            r"first non-finite value in parameter \d+ of 4 \(linear\.\w+, shape \(", message
        )

    @pytest.mark.parametrize("position", [1, 3, 4])
    def test_divergence_names_the_first_non_finite_parameter(self, position):
        model = make_model()
        parameters = model.parameters()
        params = model.get_flat_params()
        end = sum(parameter.size for parameter in parameters[:position])
        params[end - 1] = np.nan  # the last entry of parameter `position`
        if position < len(parameters):
            params[end] = np.inf  # a later one is not the first
        engine = SimpleNamespace(
            state=SimpleNamespace(params=params, rounds_run=3),
            algorithm=SimpleNamespace(name="fedadmm"),
            model=model,
        )
        with pytest.raises(SimulationError) as error:
            finalise_round(
                engine, evaluation=None, train_losses=[], num_selected=0,
                uploads=0, downloads=0, upload_wire_bytes=0,
                download_wire_bytes=0, epochs_used=[], simulated_seconds=0.0,
                dropped=[],
            )
        parameter = parameters[position - 1]
        assert str(error.value) == (
            "round 3: fedadmm produced a non-finite global model; the run "
            f"diverged; first non-finite value in parameter {position} of "
            f"{len(parameters)} ({parameter.name}, shape {parameter.shape})"
        )


class TestFedAdmmInvariants:
    def test_theta_tracks_mean_augmented_model_under_analysed_step(
        self, iid_clients, blobs_split
    ):
        """With eta = |S_t|/m and the paper's initialisation, theta_t equals the
        average of all clients' augmented models (the key identity behind
        eq. 20 in the proof)."""
        rho = 0.5
        algorithm = build_algorithm("fedadmm", rho=rho, server_step_size="participation")
        sim = FederatedSimulation(
            algorithm=algorithm,
            model=make_model(seed=3),
            clients=iid_clients,
            test_dataset=blobs_split.test,
            sampler=UniformFractionSampler(0.25),
            local_work=FixedEpochs(2),
            batch_size=16,
            learning_rate=0.1,
            seed=3,
        )
        sim.run(5)
        augmented = [
            client.get("w") + client.get("y") / rho for client in iid_clients
        ]
        assert np.allclose(sim.global_params, np.mean(augmented, axis=0), atol=1e-8)

    def test_dual_variables_sum_stays_balanced_direction(self, iid_clients, blobs_split):
        """Duals are zero-initialised; their mean norm stays finite and the
        per-client dual equals rho times the accumulated consensus gaps."""
        rho = 0.5
        algorithm = build_algorithm("fedadmm", rho=rho)
        sim = FederatedSimulation(
            algorithm=algorithm,
            model=make_model(seed=1),
            clients=iid_clients,
            test_dataset=blobs_split.test,
            sampler=UniformFractionSampler(0.5),
            local_work=FixedEpochs(1),
            batch_size=16,
            learning_rate=0.1,
            seed=1,
        )
        sim.run(6)
        duals = np.stack([client.get("y") for client in iid_clients])
        assert np.isfinite(duals).all()
        assert np.linalg.norm(duals) > 0  # participation actually updated duals
