"""Tests for the client-systems layer: codecs, transport, network model,
fault injection, executors, and their integration into the engine."""

import hashlib

import numpy as np
import pytest

from repro.algorithms import build_algorithm
from repro.exceptions import ConfigurationError, SimulationError
from repro.federated.engine import FederatedSimulation
from repro.federated.heterogeneity import FixedEpochs
from repro.federated.messages import BYTES_PER_FLOAT, ClientMessage
from repro.federated.sampler import UniformFractionSampler
from repro.metrics.communication import compressed_upload_bytes
from repro.nn.losses import CrossEntropyLoss
from repro.systems import (
    CODEC_REGISTRY,
    EXECUTOR_REGISTRY,
    ClientSystemProfile,
    FaultInjector,
    Float16Codec,
    HomogeneousNetwork,
    IdentityCodec,
    LogNormalNetwork,
    QSGDCodec,
    SignSGDCodec,
    SerialExecutor,
    TopKCodec,
    Transport,
    build_codec,
    build_executor,
    build_network,
)
from tests.conftest import make_model


def _vector(dim=64, seed=0):
    return np.random.default_rng(seed).normal(size=dim)


class TestCodecs:
    def test_identity_roundtrip_is_exact(self):
        vector = _vector()
        decoded, wire = IdentityCodec().roundtrip(vector)
        assert np.array_equal(decoded, vector)
        assert wire == vector.size * BYTES_PER_FLOAT

    def test_float16_roundtrip_close_and_half_size(self):
        vector = _vector()
        decoded, wire = Float16Codec().roundtrip(vector)
        assert np.allclose(decoded, vector, atol=1e-2)
        assert wire == vector.size * 2

    def test_topk_keeps_largest_magnitudes(self):
        vector = np.array([0.1, -5.0, 0.2, 3.0, -0.05])
        codec = TopKCodec(k=2)
        decoded, wire = codec.roundtrip(vector)
        assert decoded[1] == -5.0 and decoded[3] == 3.0
        assert decoded[0] == decoded[2] == decoded[4] == 0.0
        assert wire == 2 * 8

    def test_topk_fraction_counts(self):
        codec = TopKCodec(fraction=0.1)
        assert codec.num_kept(100) == 10
        assert codec.num_kept(3) == 1  # never fewer than one coordinate

    def test_topk_full_fraction_is_lossless_support(self):
        vector = _vector(dim=8)
        decoded, _ = TopKCodec(fraction=1.0).roundtrip(vector)
        assert np.allclose(decoded, vector.astype(np.float32))

    def test_qsgd_deterministic_given_rng_and_unbiased(self):
        vector = _vector(dim=256, seed=3)
        codec = QSGDCodec(levels=8)
        first, _ = codec.roundtrip(vector, rng=7)
        second, _ = codec.roundtrip(vector, rng=7)
        assert np.array_equal(first, second)
        # Stochastic rounding is unbiased: the mean over many draws recovers
        # the input well beyond single-draw quantisation error.
        draws = np.mean(
            [codec.roundtrip(vector, rng=seed)[0] for seed in range(200)], axis=0
        )
        assert np.allclose(draws, vector, atol=0.05 * np.linalg.norm(vector))

    def test_qsgd_zero_vector(self):
        decoded, _ = QSGDCodec().roundtrip(np.zeros(10), rng=0)
        assert np.array_equal(decoded, np.zeros(10))

    def test_signsgd_reconstruction(self):
        vector = np.array([2.0, -4.0, 6.0])
        decoded, wire = SignSGDCodec().roundtrip(vector)
        assert np.array_equal(np.sign(decoded), np.sign(vector))
        assert np.allclose(np.abs(decoded), 4.0)  # mean magnitude scale
        assert wire == 1 + 4  # ceil(3/8) sign bytes + one scale float

    @pytest.mark.parametrize("codec", [QSGDCodec(256), SignSGDCodec()], ids=str)
    def test_finite_vector_whose_norm_overflows_round_trips(self, codec):
        # ||v||_2 and sum|v| overflow float64 here; every coordinate is finite.
        vector = np.array([1e308, 1e308, 0.5])
        encoded = codec.encode(vector, rng=0)
        decoded = codec.decode(encoded)
        assert np.isfinite(decoded).all()
        assert (decoded[:2] > 0).all() and decoded[2] >= 0
        # The served path parses the same bytes into the same vector.
        served = codec.decode(codec.unpack(vector.size, codec.pack(encoded)))
        assert served.tobytes() == decoded.tobytes()

    def test_qsgd_overflow_branch_scales_by_the_largest_coordinate(self):
        vector = np.array([1e308, 1e308, 0.5])
        norm = float(QSGDCodec(256).encode(vector, rng=0).data["norm"][0])
        assert norm == pytest.approx(np.sqrt(2.0) * 1e308, rel=1e-15)
        scale = float(SignSGDCodec().encode(vector).data["scale"][0])
        assert scale == pytest.approx(1e308 * (2 / 3), rel=1e-15)

    @pytest.mark.parametrize("codec", [QSGDCodec(256), SignSGDCodec()], ids=str)
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_vector_is_refused(self, codec, bad):
        with pytest.raises(SimulationError, match=codec.name) as caught:
            codec.encode(np.array([bad, 1.0, 0.0]), rng=0)
        assert "\n" not in str(caught.value)

    def test_qsgd_norm_beyond_float64_is_refused(self):
        with pytest.raises(SimulationError, match="qsgd"):
            QSGDCodec(256).encode(np.full(4, 1.7e308), rng=0)

    @pytest.mark.parametrize("name", ["float16", "topk", "qsgd", "signsgd"])
    def test_compressive_codecs_beat_raw_float32(self, name):
        dim = 1000
        codec = build_codec(name)
        assert codec.wire_bytes(dim) < dim * BYTES_PER_FLOAT

    def test_registry_contents_and_unknown_name(self):
        assert set(CODEC_REGISTRY) == {"identity", "float16", "topk", "qsgd", "signsgd"}
        with pytest.raises(ConfigurationError):
            build_codec("gzip")

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            TopKCodec(fraction=0.0)
        with pytest.raises(ConfigurationError):
            TopKCodec(k=0)
        with pytest.raises(ConfigurationError):
            QSGDCodec(levels=0)


class TestTransport:
    def test_compress_message_roundtrips_every_payload_entry(self):
        message = ClientMessage(
            client_id=0,
            payload={"a": _vector(40, seed=1), "b": _vector(30, seed=2)},
            num_samples=5,
            local_epochs=1,
            train_loss=0.3,
        )
        transport = Transport(Float16Codec())
        compressed, wire = transport.compress_message(message)
        assert wire == 40 * 2 + 30 * 2
        assert compressed.metadata["codec"] == "float16"
        assert compressed.metadata["wire_bytes"] == wire
        assert compressed.payload["a"].size == 40
        # The original message is untouched (float64 payload preserved).
        assert message.payload["a"].dtype == np.float64
        assert "codec" not in message.metadata

    def test_non_flat_payloads_keep_their_shape(self):
        matrix = np.arange(12, dtype=np.float64).reshape(3, 4)
        message = ClientMessage(
            client_id=0,
            payload={"m": matrix},
            num_samples=5,
            local_epochs=1,
            train_loss=0.3,
        )
        for name in ("identity", "float16", "topk", "qsgd", "signsgd"):
            compressed, wire = Transport(build_codec(name)).compress_message(
                message, rng=0
            )
            assert compressed.payload["m"].shape == (3, 4)
            assert wire == build_codec(name).wire_bytes(12)

    def test_default_codec_is_identity(self):
        transport = Transport()
        assert transport.codec.name == "identity"
        assert transport.upload_wire_bytes(10) == 10 * BYTES_PER_FLOAT


class TestNetworkModel:
    def test_profile_round_seconds_components(self):
        profile = ClientSystemProfile(
            downlink_bytes_per_s=100.0,
            uplink_bytes_per_s=50.0,
            latency_s=1.0,
            seconds_per_sample_epoch=0.5,
        )
        seconds = profile.round_seconds(
            download_bytes=200, upload_bytes=100, num_samples=4, epochs=2
        )
        assert seconds == pytest.approx(2.0 + 2.0 + 4.0 + 2.0)

    def test_invalid_profile(self):
        with pytest.raises(ConfigurationError):
            ClientSystemProfile(uplink_bytes_per_s=0.0)
        with pytest.raises(ConfigurationError):
            ClientSystemProfile(latency_s=-1.0)

    def test_homogeneous_profiles_identical(self):
        profiles = HomogeneousNetwork().profiles(5, rng=0)
        assert len(profiles) == 5
        assert len(set(profiles)) == 1

    def test_lognormal_profiles_heterogeneous_and_deterministic(self):
        network = LogNormalNetwork(compute_sigma=0.5, bandwidth_sigma=0.5)
        first = network.profiles(20, rng=3)
        second = network.profiles(20, rng=3)
        assert first == second
        speeds = {p.seconds_per_sample_epoch for p in first}
        assert len(speeds) == 20  # continuous draws: all distinct

    def test_network_registry(self):
        assert isinstance(build_network("homogeneous"), HomogeneousNetwork)
        assert isinstance(build_network("lognormal"), LogNormalNetwork)
        with pytest.raises(ConfigurationError):
            build_network("5g")


class TestFaultInjector:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultInjector(dropout_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultInjector(dropout_rate=-0.1)
        with pytest.raises(ConfigurationError):
            FaultInjector(deadline_s=-1.0)
        # The extremes are legal: certain dropout and an instant deadline.
        assert FaultInjector(dropout_rate=1.0).crashes(5, rng=0).all()
        assert FaultInjector(deadline_s=0.0).stragglers(np.array([0.1])).all()

    def test_zero_rate_never_crashes(self):
        injector = FaultInjector(dropout_rate=0.0)
        assert not injector.crashes(100, rng=0).any()
        assert not injector.active

    def test_crash_rate_is_calibrated(self):
        injector = FaultInjector(dropout_rate=0.3)
        crashed = injector.crashes(20_000, rng=0)
        assert crashed.mean() == pytest.approx(0.3, abs=0.02)
        assert injector.active

    def test_stragglers_against_deadline(self):
        injector = FaultInjector(deadline_s=10.0)
        mask = injector.stragglers(np.array([5.0, 10.0, 15.0]))
        assert mask.tolist() == [False, False, True]
        assert not FaultInjector().stragglers(np.array([1e9])).any()


class TestExecutors:
    def test_registry(self):
        assert isinstance(build_executor("serial"), SerialExecutor)
        assert build_executor("thread", max_workers=2).isolated
        with pytest.raises(ConfigurationError):
            build_executor("gpu")
        with pytest.raises(ConfigurationError):
            build_executor("thread", max_workers=0)

    def test_process_is_not_an_executor(self):
        # Thread and process pools gave bit-identical runs; threads stay.
        assert sorted(EXECUTOR_REGISTRY) == ["serial", "thread", "vectorized"]
        with pytest.raises(ConfigurationError, match="unknown executor 'process'"):
            build_executor("process", max_workers=2)

    @staticmethod
    def _thread_run(clients, blobs_split, max_workers):
        sim = FederatedSimulation(
            algorithm=build_algorithm("fedadmm", rho=0.3),
            model=make_model(seed=0),
            clients=clients,
            test_dataset=blobs_split.test,
            loss=CrossEntropyLoss(),
            sampler=UniformFractionSampler(0.5),
            local_work=FixedEpochs(1),
            batch_size=16,
            learning_rate=0.1,
            seed=4,
            executor=build_executor("thread", max_workers=max_workers),
        )
        return sim.run(3).final_params

    @pytest.mark.parametrize("max_workers", [2, 4])
    def test_thread_executor_is_worker_count_invariant(
        self, max_workers, blobs_split, iid_partition
    ):
        """Every task is seeded on its own and trains a private model copy,
        so the pool size and thread schedule cannot change a single bit."""
        from repro.federated.client import build_clients

        runs = {}
        for workers in (1, max_workers):
            clients = build_clients(blobs_split.train, iid_partition)
            final = self._thread_run(clients, blobs_split, workers)
            rows = [client.get("y").tobytes() for client in clients]
            runs[workers] = (final.tobytes(), rows)
        assert runs[max_workers] == runs[1]

    def test_thread_executor_merges_client_state(self, iid_clients, blobs_split):
        """Persistent FedADMM variables updated on pool threads must be
        visible in the caller's client states afterwards."""
        sim = FederatedSimulation(
            algorithm=build_algorithm("fedadmm", rho=0.3),
            model=make_model(seed=0),
            clients=iid_clients,
            test_dataset=blobs_split.test,
            loss=CrossEntropyLoss(),
            sampler=UniformFractionSampler(1.0),
            local_work=FixedEpochs(1),
            batch_size=16,
            learning_rate=0.1,
            seed=0,
            executor=build_executor("thread", max_workers=2),
        )
        sim.run(2)
        assert all(client.rounds_participated == 2 for client in iid_clients)
        assert all(np.linalg.norm(client.get("y")) > 0 for client in iid_clients)


def _systems_simulation(
    algorithm_name,
    clients,
    test_dataset,
    seed=0,
    codec="topk",
    dropout=0.2,
    executor="serial",
    deadline_s=None,
    **algorithm_kwargs,
):
    return FederatedSimulation(
        algorithm=build_algorithm(algorithm_name, **algorithm_kwargs),
        model=make_model(seed=seed),
        clients=clients,
        test_dataset=test_dataset,
        loss=CrossEntropyLoss(),
        sampler=UniformFractionSampler(0.5),
        local_work=FixedEpochs(2),
        batch_size=16,
        learning_rate=0.2,
        seed=seed,
        transport=Transport(build_codec(codec)) if codec else None,
        network=build_network("lognormal"),
        faults=FaultInjector(dropout_rate=dropout, deadline_s=deadline_s),
        executor=build_executor(executor, max_workers=2),
    )


class TestEngineIntegration:
    def test_dropout_recorded_and_costs_still_paid(self, iid_clients, blobs_split):
        sim = _systems_simulation(
            "fedavg", iid_clients, blobs_split.test, dropout=0.5, seed=1
        )
        result = sim.run(8)
        dropped = result.history.total_dropped()
        assert dropped > 0
        # Dropped clients never upload but did download the global model.
        dim = result.final_params.size
        selected_per_round = 4  # 8 clients at fraction 0.5
        assert result.ledger.download_floats == 8 * selected_per_round * dim
        assert result.ledger.upload_floats == (8 * selected_per_round - dropped) * dim
        # Per-record invariant: num_selected is |S_t|, so the download charge
        # for every sampled client divides through exactly.
        for rec in result.history.records:
            assert rec.num_selected == selected_per_round
            assert rec.download_floats == rec.num_selected * dim
            assert rec.upload_floats == rec.num_aggregated * dim

    def test_round_with_no_survivors_is_abandoned(self, iid_clients, blobs_split):
        sim = _systems_simulation(
            "fedavg", iid_clients, blobs_split.test, dropout=0.9, seed=0
        )
        result = sim.run(6)
        abandoned = [rec for rec in result.history.records if rec.num_aggregated == 0]
        assert abandoned, "expected at least one fully-dropped round at 90% dropout"
        assert all(rec.num_selected > 0 for rec in abandoned)  # |S_t| is kept
        assert all(np.isnan(rec.train_loss) for rec in abandoned)
        assert all(rec.upload_floats == 0 for rec in abandoned)
        assert all(rec.download_floats > 0 for rec in abandoned)

    def test_deadline_drops_stragglers(self, iid_clients, blobs_split):
        # A deadline below any client's possible round time drops everyone as
        # a straggler and the round closes exactly at the deadline.
        sim = _systems_simulation(
            "fedavg", iid_clients, blobs_split.test, dropout=0.0, deadline_s=1e-6
        )
        record = sim.run_round()
        assert record.num_selected == 4
        assert record.num_aggregated == 0
        assert record.num_dropped == 4
        assert record.simulated_seconds == pytest.approx(1e-6)

    def test_deadline_without_network_rejected(self, iid_clients, blobs_split):
        """A deadline is meaningless without a clock: constructing the engine
        with faults.deadline_s but no network model must fail loudly instead
        of silently never dropping a straggler."""
        with pytest.raises(ConfigurationError):
            FederatedSimulation(
                algorithm=build_algorithm("fedavg"),
                model=make_model(),
                clients=iid_clients,
                test_dataset=blobs_split.test,
                sampler=UniformFractionSampler(0.5),
                local_work=FixedEpochs(1),
                batch_size=16,
                learning_rate=0.1,
                seed=0,
                faults=FaultInjector(deadline_s=0.001),
            )

    def test_scaffold_straggler_estimate_matches_per_vector_ledger(
        self, iid_clients, blobs_split
    ):
        """The time model costs SCAFFOLD's two payload vectors separately, so
        its nominal upload bytes agree with what the transport later records."""
        transport = Transport(build_codec("signsgd"))
        sim = FederatedSimulation(
            algorithm=build_algorithm("scaffold"),
            model=make_model(),
            clients=iid_clients,
            test_dataset=blobs_split.test,
            sampler=UniformFractionSampler(0.5),
            local_work=FixedEpochs(1),
            batch_size=16,
            learning_rate=0.1,
            seed=0,
            transport=transport,
            network=build_network("homogeneous"),
        )
        record = sim.run_round()
        dim = sim.global_params.size
        per_client = sum(
            transport.upload_wire_bytes(d)
            for d in sim.algorithm.upload_vector_dims(dim)
        )
        assert record.upload_wire_bytes == per_client * record.num_aggregated

    def test_wire_bytes_default_to_raw_without_transport(
        self, iid_clients, blobs_split
    ):
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
        )
        result = sim.run(2)
        assert result.ledger.upload_wire_bytes == result.ledger.upload_bytes
        assert result.ledger.download_wire_bytes == result.ledger.download_bytes
        assert result.simulated_seconds == 0.0

    def test_final_evaluation_reuses_last_round_evaluation(
        self, iid_clients, blobs_split, monkeypatch
    ):
        """With eval_every=1 the final evaluation must not re-run
        evaluate_model on the identical parameters."""
        import repro.federated.engine as engine_module

        calls = []
        real_evaluate = engine_module.evaluate_model

        def counting_evaluate(*args, **kwargs):
            calls.append(1)
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(engine_module, "evaluate_model", counting_evaluate)
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
        )
        result = sim.run(3)
        assert len(calls) == 3  # one per round, none at the end
        assert result.final_evaluation is not None
        assert result.final_evaluation.accuracy == result.history.final_accuracy()

    def test_final_evaluation_runs_when_last_round_skipped(
        self, iid_clients, blobs_split
    ):
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
            eval_every=2,
        )
        result = sim.run(3)  # rounds 1 and 2 evaluate; round 3 does not
        assert result.history.records[-1].test_accuracy is None
        assert result.final_evaluation is not None


class TestEndToEndScenario:
    """The acceptance scenario: FedADMM + compression + dropout + thread pool."""

    @pytest.mark.parametrize("codec", ["topk", "qsgd"])
    def test_full_stack_deterministic_with_wire_savings(
        self, codec, blobs_split, iid_partition
    ):
        from repro.federated.client import build_clients

        results = []
        for _ in range(2):
            clients = build_clients(blobs_split.train, iid_partition)
            sim = _systems_simulation(
                "fedadmm",
                clients,
                blobs_split.test,
                seed=11,
                codec=codec,
                dropout=0.2,
                executor="thread",
                rho=0.3,
            )
            results.append(sim.run(5))
        first, second = results
        assert np.array_equal(first.final_params, second.final_params)
        assert first.history.accuracies.tolist() == second.history.accuracies.tolist()
        assert [r.dropped_clients for r in first.history.records] == [
            r.dropped_clients for r in second.history.records
        ]
        # Post-compression wire bytes are strictly below the raw ledger total.
        assert 0 < first.ledger.upload_wire_bytes < first.ledger.upload_bytes
        # Every round has a positive simulated wall-clock duration.
        assert (first.history.simulated_seconds > 0).all()
        # And training still works through the lossy transport.
        assert first.final_evaluation.accuracy > 0.5


#: One FedADMM run per registry codec (3 rounds, serial, seed 11): the
#: final-params sha256, the per-round test accuracies and the upload wire
#: bytes.  Recorded at cddf63d, before QSGD's encode lost its mask scatter
#: and float floor; a codec rewrite must leave every run bit for bit.
CODEC_RUN_GOLDENS = {
    "float16": (
        "82eb6a43e8b9e2a66c112ff2ea9a8991c41f415b051f4b6d3dda0666f378dbc6",
        [1.0, 1.0, 1.0],
        5520,
    ),
    "identity": (
        "39807a656cede61eaa20c59ddccba5335e464b6d189697def53f782c29b17802",
        [1.0, 1.0, 1.0],
        11040,
    ),
    "qsgd": (
        "40174eeaee9aa410a48a9677bd03eb1c746da659f52cc181a0413a96478b8c7a",
        [1.0, 1.0, 1.0],
        2110,
    ),
    "signsgd": (
        "ef7dfcf0e5191f10fdcdf54ff439aff1dbeeb8022ea6ff38ade82c49fc29da80",
        [0.9375, 0.99375, 1.0],
        390,
    ),
    "topk": (
        "ab012d37710f35f32230fba7abad88559b4704669409466aa7b0d9c8d2241af5",
        [1.0, 1.0, 1.0],
        2240,
    ),
}


def test_codec_run_goldens_cover_the_registry():
    assert set(CODEC_RUN_GOLDENS) == set(CODEC_REGISTRY)


@pytest.mark.parametrize("codec", sorted(CODEC_RUN_GOLDENS))
def test_codec_run_is_pinned(codec, blobs_split, iid_partition):
    from repro.federated.client import build_clients

    sim = _systems_simulation(
        "fedadmm",
        build_clients(blobs_split.train, iid_partition),
        blobs_split.test,
        seed=11,
        codec=codec,
        executor="serial",
        rho=0.3,
    )
    result = sim.run(3)
    assert (
        hashlib.sha256(result.final_params.tobytes()).hexdigest(),
        [record.test_accuracy for record in result.history.records],
        result.ledger.upload_wire_bytes,
    ) == CODEC_RUN_GOLDENS[codec]


class TestCommunicationMetrics:
    def test_compressed_upload_bytes(self):
        codec = build_codec("float16")
        assert compressed_upload_bytes(codec, dim=100, num_selected=3, num_rounds=2) == (
            100 * 2 * 3 * 2
        )
        assert compressed_upload_bytes(
            codec, dim=100, num_selected=3, num_rounds=2, vectors_per_upload=2
        ) == 100 * 2 * 3 * 2 * 2
        with pytest.raises(ConfigurationError):
            compressed_upload_bytes(codec, dim=0, num_selected=3, num_rounds=2)
