"""Adversary subsystem: behaviours, selection, defenses, and determinism.

The contracts under test:

* behaviours corrupt *copies* (honest inputs are never mutated) and every
  corruption draws from its own ``(client, round)`` RNG stream, so a
  corrupted run is bit-identical across the isolated thread executor's
  ``max_workers`` settings and close to serial under vectorization,
* defenses are pure cohort transforms with known closed forms,
* a defended flat run — spelled ``plan="flat"`` or as a one-shard
  hierarchy — reproduces the values pinned before the flat and sharded
  round loops became one,
* configs fail fast on unknown/invalid adversary and defense settings.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.algorithms import ALGORITHM_REGISTRY, build_algorithm
from repro.datasets.base import Dataset
from repro.exceptions import ConfigurationError
from repro.experiments.configs import AlgorithmSpec, preset_config
from repro.experiments.registry import ALL_ADVERSARIES
from repro.experiments.runner import run_single
from repro.federated.messages import ClientMessage
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import observe
from repro.obs.trace import Tracer
from repro.systems.adversaries import (
    ADVERSARY_REGISTRY,
    DEFENSE_REGISTRY,
    AdversaryModel,
    CoordinateMedianDefense,
    DefendedAlgorithm,
    GaussianNoiseAdversary,
    LabelFlipAdversary,
    NormClipDefense,
    ScaleAdversary,
    SignFlipAdversary,
    TrimmedMeanDefense,
    build_adversary,
    build_defense,
    screen_cohort,
)


def rng(seed=0):
    return np.random.default_rng(seed)


# --------------------------------------------------------------------------- #
# Behaviours
# --------------------------------------------------------------------------- #
class TestBehaviours:
    def test_registry_matches_the_pinned_tuple(self):
        # The study layer advertises ALL_ADVERSARIES without importing this
        # module; the two must never drift apart.
        assert tuple(ADVERSARY_REGISTRY) == ALL_ADVERSARIES

    def test_sign_flip_negates_and_scales(self):
        direction = np.array([1.0, -2.0, 0.5])
        out = SignFlipAdversary(scale=3.0).corrupt_direction(direction, rng())
        np.testing.assert_array_equal(out, np.array([-3.0, 6.0, -1.5]))
        np.testing.assert_array_equal(direction, [1.0, -2.0, 0.5])

    def test_gaussian_noise_is_seeded_and_nonzero(self):
        direction = np.zeros(16)
        a = GaussianNoiseAdversary(sigma=2.0).corrupt_direction(direction, rng(7))
        b = GaussianNoiseAdversary(sigma=2.0).corrupt_direction(direction, rng(7))
        np.testing.assert_array_equal(a, b)
        assert np.linalg.norm(a) > 0

    def test_scale_supports_model_replacement_and_ipm(self):
        direction = np.array([1.0, -1.0])
        boosted = ScaleAdversary(factor=10.0).corrupt_direction(direction, rng())
        flipped = ScaleAdversary(factor=-0.5).corrupt_direction(direction, rng())
        np.testing.assert_array_equal(boosted, [10.0, -10.0])
        np.testing.assert_array_equal(flipped, [-0.5, 0.5])
        with pytest.raises(ConfigurationError):
            ScaleAdversary(factor=0.0)

    def test_label_flip_poisons_a_copy(self):
        dataset = Dataset(
            features=np.zeros((4, 2)),
            labels=np.array([0, 1, 2, 3]),
            name="toy",
        )
        poisoned = LabelFlipAdversary().poison_dataset(dataset)
        np.testing.assert_array_equal(poisoned.labels, [3, 2, 1, 0])
        np.testing.assert_array_equal(dataset.labels, [0, 1, 2, 3])
        assert poisoned.name == "toy-labelflip"
        assert poisoned.features is dataset.features  # no feature copy needed

    def test_label_flip_with_pinned_num_classes(self):
        dataset = Dataset(
            features=np.zeros((2, 2)), labels=np.array([0, 1]), name="toy"
        )
        poisoned = LabelFlipAdversary(num_classes=10).poison_dataset(dataset)
        np.testing.assert_array_equal(poisoned.labels, [9, 8])


# --------------------------------------------------------------------------- #
# The adversary model
# --------------------------------------------------------------------------- #
class TestAdversaryModel:
    def test_fraction_bounds(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError):
                AdversaryModel(SignFlipAdversary(), bad)

    def test_selection_is_seed_deterministic_and_clamped(self):
        model = AdversaryModel(SignFlipAdversary(), 0.25)
        assert model.select(8, rng(3)) == model.select(8, rng(3))
        assert len(model.select(8, rng(3))) == 2
        # Tiny fractions still produce at least one adversary; fraction 1
        # corrupts everyone.
        assert len(AdversaryModel(SignFlipAdversary(), 0.01).select(8, rng(0))) == 1
        assert AdversaryModel(SignFlipAdversary(), 1.0).select(4, rng(0)) == {
            0, 1, 2, 3,
        }

    def _message(self, payload):
        return ClientMessage(
            client_id=0, payload=payload, num_samples=10, local_epochs=1,
            train_loss=0.5,
        )

    def test_direction_payloads_are_corrupted_in_place(self):
        model = AdversaryModel(SignFlipAdversary(scale=1.0), 0.5)
        theta = np.array([1.0, 1.0])
        message = self._message({"delta": np.array([0.5, -0.5])})
        out = model.corrupt_message(message, theta, rng())
        np.testing.assert_array_equal(out.payload["delta"], [-0.5, 0.5])
        np.testing.assert_array_equal(message.payload["delta"], [0.5, -0.5])
        assert out.num_samples == 10

    def test_model_payloads_are_corrupted_in_direction_space(self):
        # params = theta + d; sign flip must return theta - d, not -params.
        model = AdversaryModel(SignFlipAdversary(scale=1.0), 0.5)
        theta = np.array([10.0, 10.0])
        message = self._message({"params": np.array([11.0, 9.0])})
        out = model.corrupt_message(message, theta, rng())
        np.testing.assert_array_equal(out.payload["params"], [9.0, 11.0])

    def test_unknown_payload_keys_fail_loudly(self):
        model = AdversaryModel(SignFlipAdversary(), 0.5)
        with pytest.raises(ConfigurationError, match="mystery"):
            model.corrupt_message(
                self._message({"mystery": np.zeros(2)}), np.zeros(2), rng()
            )

    def test_a_mask_key_is_refused_like_any_unknown_key(self):
        # No payload key is passed through uncorrupted: a masked upload
        # would need a semantics of its own here first.
        model = AdversaryModel(ScaleAdversary(factor=2.0), 0.5)
        message = self._message(
            {"params": np.array([1.0, 0.0, 2.0]), "mask": np.array([1.0, 0.0, 1.0])}
        )
        with pytest.raises(ConfigurationError, match="mask"):
            model.corrupt_message(message, np.zeros(3), rng())

    @pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY))
    def test_every_registered_algorithms_uploads_are_corrupted(self, name):
        # Every key a shipped algorithm uploads has a known semantics, and
        # corrupting it changes the run.
        attacked = tiny_robustness_cfg(adversary="sign_flip").with_overrides(num_rounds=2)
        clean = attacked.with_overrides(adversary=None, adversary_fraction=0.0)
        spec = AlgorithmSpec(name)
        clean, attacked = (
            run_single(cfg, spec, stop_at_target=False) for cfg in (clean, attacked)
        )
        assert not np.array_equal(clean.final_params, attacked.final_params)

    def test_build_adversary_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError, match="unknown adversary"):
            build_adversary("nope", fraction=0.2)


# --------------------------------------------------------------------------- #
# Defenses
# --------------------------------------------------------------------------- #
class TestDefenses:
    def test_registry_contents(self):
        assert sorted(DEFENSE_REGISTRY) == ["median", "norm_clip", "trimmed_mean"]
        with pytest.raises(ConfigurationError, match="unknown defense"):
            build_defense("nope")

    def test_median_broadcasts_the_coordinate_median(self):
        vectors = np.array([[1.0, 10.0], [2.0, 20.0], [100.0, -5.0]])
        defended, rejected = CoordinateMedianDefense().apply(vectors)
        np.testing.assert_array_equal(defended, np.tile([2.0, 10.0], (3, 1)))
        assert rejected == 2

    def test_trimmed_mean_cuts_each_tail(self):
        vectors = np.array([[0.0], [1.0], [2.0], [100.0]])
        defended, rejected = TrimmedMeanDefense(trim=0.25).apply(vectors)
        np.testing.assert_array_equal(defended, np.full((4, 1), 1.5))
        assert rejected == 2

    def test_trimmed_mean_never_trims_everything(self):
        # With two rows a 0.4 trim would cut 0 from each end (floor), and
        # even aggressive trims must leave at least one row.
        vectors = np.array([[0.0], [10.0]])
        defended, rejected = TrimmedMeanDefense(trim=0.4).apply(vectors)
        np.testing.assert_array_equal(defended, np.full((2, 1), 5.0))
        assert rejected == 0
        with pytest.raises(ConfigurationError):
            TrimmedMeanDefense(trim=0.5)

    def test_norm_clip_caps_at_the_median_norm(self):
        vectors = np.array([[3.0, 4.0], [0.6, 0.8], [30.0, 40.0]])
        defended, rejected = NormClipDefense().apply(vectors)
        norms = np.linalg.norm(defended, axis=1)
        np.testing.assert_allclose(norms, [5.0, 1.0, 5.0])
        # directions preserved
        np.testing.assert_allclose(defended[2] / norms[2], vectors[2] / 50.0)
        assert rejected == 1


# --------------------------------------------------------------------------- #
# Defended aggregation
# --------------------------------------------------------------------------- #
def tiny_robustness_cfg(**overrides):
    base = preset_config("robustness", "blobs", non_iid=True, seed=4)
    return base.with_overrides(
        num_clients=8,
        n_train=320,
        n_test=120,
        num_rounds=3,
        client_fraction=0.5,
        **overrides,
    )


#: Recorded on commit ``f091116`` (dedicated flat ``SyncPlan``, batch
#: ``DefendedAlgorithm.aggregate``) from the flat run of each config below.
DEFENDED_FLAT_PINS = {
    ("fedadmm", "median"): (
        "453a3d00c3169954b1cbd7460e300d2a984efd56ebc7663cd56b20c420eb05ec",
        [0.45, 0.225, 0.38333333333333336],
    ),
    ("fedavg", "trimmed_mean"): (
        "878175482ae9c71783761e7b79eda1534c897c9b55b5621914fda96f52f37ee5",
        [0.375, 0.3333333333333333, 0.425],
    ),
}


class TestDefendedAlgorithm:
    def test_wrapper_surfaces(self):
        defended = DefendedAlgorithm(
            build_algorithm("fedadmm", rho=0.3), build_defense("median")
        )
        assert defended.name == "fedadmm"
        assert defended.supports_async is False
        assert defended.supports_plan("sync")
        assert defended.supports_plan("hierarchical")
        assert not defended.supports_plan("async")
        assert not defended.supports_plan("semisync")

    @pytest.mark.parametrize(
        ("algorithm", "defense"),
        [("fedadmm", "median"), ("fedavg", "trimmed_mean")],
    )
    def test_flat_equals_one_shard_hierarchy(self, algorithm, defense):
        spec = AlgorithmSpec(
            algorithm, {"rho": 0.3} if algorithm == "fedadmm" else {}
        )
        for spelling in ({}, {"plan": "hierarchical", "num_shards": 1}):
            result = run_single(
                tiny_robustness_cfg(defense=defense, **spelling),
                spec,
                stop_at_target=False,
            )
            digest = hashlib.sha256(result.final_params.tobytes()).hexdigest()
            accuracies = [r.test_accuracy for r in result.history.records]
            assert (digest, accuracies) == DEFENDED_FLAT_PINS[algorithm, defense]
            # One shard is the flat plan: no shard keys either way.
            assert "num_shards" not in result.metadata

    @pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY))
    def test_a_defended_algorithm_trains_batched(self, name):
        # The wrapper routes ClientUpdate to the inner algorithm, so a
        # defended run is stacked wherever the model is: every task of the
        # run is counted batched, none as a fallback.
        metrics = MetricsRegistry()
        with observe(metrics=metrics):
            result = run_single(
                tiny_robustness_cfg(defense="median", executor="vectorized"),
                AlgorithmSpec(name),
                stop_at_target=False,
            )
        counters = metrics.snapshot()["counters"]
        assert counters["executor.batched_tasks"] == sum(
            record.num_selected for record in result.history.records
        )
        assert not [key for key in counters if key.startswith("executor.fallback.")]

    def test_median_neutralises_a_huge_outlier(self):
        # One boosted update must not move the defended aggregate: the
        # coordinate median of {d, d, 1000d} is d for every coordinate.
        theta = np.zeros(2)
        honest = np.array([1.0, -1.0])
        messages = [
            ClientMessage(client_id=i, payload={"delta": honest.copy()},
                          num_samples=5, local_epochs=1, train_loss=0.1)
            for i in range(2)
        ]
        messages.append(
            ClientMessage(client_id=2, payload={"delta": honest * 1000.0},
                          num_samples=5, local_epochs=1, train_loss=0.1)
        )
        out, rejected = screen_cohort(build_defense("median"), theta, messages)
        for message in out:
            np.testing.assert_array_equal(message.payload["delta"], honest)
        assert rejected == 2

    def test_obs_counters_and_span(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        cfg = tiny_robustness_cfg(defense="median")
        with observe(tracer=tracer, metrics=metrics):
            run_single(
                cfg, AlgorithmSpec("fedavg", {}), stop_at_target=False
            )
        counters = metrics.snapshot()["counters"]
        assert counters["adversary.corrupted_updates"] > 0
        assert counters["defense.rejected_updates"] > 0
        assert any(r.name == "defense" for r in tracer.sorted_records())


# --------------------------------------------------------------------------- #
# Determinism of corrupted runs
# --------------------------------------------------------------------------- #
def fingerprint(result):
    return {
        "accuracies": [r.test_accuracy for r in result.history.records],
        "train_losses": [r.train_loss for r in result.history.records],
        "params": result.final_params.tobytes(),
    }


class TestCorruptedRunDeterminism:
    SPEC = AlgorithmSpec("fedadmm", {"rho": 0.3})

    def sync_cfg(self, **overrides):
        return tiny_robustness_cfg(adversary="sign_flip", **overrides)

    def test_sync_thread_is_max_workers_invariant(self):
        one = run_single(
            self.sync_cfg(executor="thread", max_workers=1),
            self.SPEC, stop_at_target=False,
        )
        four = run_single(
            self.sync_cfg(executor="thread", max_workers=4),
            self.SPEC, stop_at_target=False,
        )
        assert fingerprint(one) == fingerprint(four)

    def test_sync_serial_close_to_vectorized(self):
        serial = run_single(self.sync_cfg(), self.SPEC, stop_at_target=False)
        vectorized = run_single(
            self.sync_cfg(executor="vectorized"), self.SPEC, stop_at_target=False
        )
        np.testing.assert_allclose(
            vectorized.final_params, serial.final_params, atol=1e-8, rtol=0
        )

    def test_poisoned_runs_are_serial_thread_identical(self):
        # label_flip corrupts data, not uploads: determinism must hold for
        # the poisoning path too (the thread executor seeds per task;
        # compare it across worker counts).
        cfg = tiny_robustness_cfg(adversary="label_flip")
        one = run_single(
            cfg.with_overrides(executor="thread", max_workers=1),
            self.SPEC, stop_at_target=False,
        )
        four = run_single(
            cfg.with_overrides(executor="thread", max_workers=4),
            self.SPEC, stop_at_target=False,
        )
        assert fingerprint(one) == fingerprint(four)

    @pytest.mark.slow
    def test_async_corrupted_identical_across_executors(self):
        def run(executor):
            cfg = preset_config("async", "blobs", non_iid=True, seed=4).with_overrides(
                num_clients=8,
                n_train=320,
                n_test=120,
                num_rounds=4,
                buffer_size=2,
                max_concurrency=4,
                executor=executor,
                max_workers=2,
                adversary="sign_flip",
                adversary_fraction=0.25,
            )
            return run_single(cfg, self.SPEC, stop_at_target=False)

        serial, thread = run("serial"), run("thread")
        assert fingerprint(serial) == fingerprint(thread)

    def test_adversarial_subset_is_a_seed_property(self):
        # Same seed, different executors: the chosen adversaries agree.
        from repro.experiments.runner import build_simulation

        cfg = self.sync_cfg()
        serial = build_simulation(cfg, self.SPEC)
        thread = build_simulation(cfg.with_overrides(executor="thread"), self.SPEC)
        assert serial.pipeline.adversarial == thread.pipeline.adversarial
        assert len(serial.pipeline.adversarial) == 2  # 25% of 8


# --------------------------------------------------------------------------- #
# Config validation
# --------------------------------------------------------------------------- #
class TestConfigValidation:
    def test_unknown_adversary_and_defense(self):
        with pytest.raises(ConfigurationError, match="unknown adversary"):
            tiny_robustness_cfg(adversary="nope")
        with pytest.raises(ConfigurationError, match="unknown defense"):
            tiny_robustness_cfg(defense="nope")

    def test_adversary_needs_a_positive_fraction(self):
        with pytest.raises(ConfigurationError, match="adversary_fraction"):
            tiny_robustness_cfg(adversary_fraction=0.0)
        with pytest.raises(ConfigurationError, match="adversary_fraction"):
            tiny_robustness_cfg(adversary_fraction=1.5)

    def test_defense_is_sync_only(self):
        with pytest.raises(ConfigurationError, match="sync"):
            preset_config("async", "blobs").with_overrides(defense="median")
