"""The one server-side reduction: its laws and its contract surface.

Every algorithm aggregates through the single
:class:`~repro.algorithms.base.UpdateAccumulator` (running sums per payload
vector) plus its own closed-form ``server_step``.  The invariants are
stated once here and property-tested for *every* entry of
``ALGORITHM_REGISTRY``:

* accumulate-all + ``finalise`` (and the list form, ``aggregate``) equals
  the paper-equation reference in :mod:`repro.core.admm_server` — or the
  explicit stacked formula — **bit for bit** for any vector of two or more
  coordinates (a one-element column is the one shape NumPy reduces
  pairwise; no model in the zoo is that small);
* ``merge`` over any split into shards, in any shard order, matches the
  single accumulator within the documented ``1e-12``;
* ``count`` is the cohort size, and server-side effects — SCAFFOLD's
  control-variate write, FedPD's communication coin — happen exactly once
  per round, at ``finalise``, however many shards were merged;
* an empty ``finalise`` is a :class:`ConfigurationError`;
* a *stale* upload needs no second rule: :func:`~repro.federated.staleness.rebase`
  moves it onto the current model and the same reduction yields the
  buffered closed form ``θ + Σ sᵢδᵢ / n`` (FedADMM: the paper-equation
  reference bit for bit), which is all the buffered plans do.

The surface tests pin the shape of the contract itself: one ``aggregate``
(the base class's), one accumulator class, a defense that only decorates
that accumulator, a sharded plan that hands executors whole cohorts, one
client update per algorithm (``local_update`` is the base class's
cohort-of-one), and no buffered-plan hook, second engine class or second
plan spelling anywhere.
"""

from __future__ import annotations

import dataclasses
import importlib.util
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import ALGORITHM_REGISTRY, build_algorithm
from repro.algorithms.base import FederatedAlgorithm, UpdateAccumulator
from repro.core.admm_server import admm_server_update, average_aggregate
from repro.exceptions import ConfigurationError
from repro.federated.client import build_clients
from repro.federated.engine import FederatedSimulation
from repro.federated.messages import ClientMessage
from repro.federated.plans import HierarchicalPlan
from repro.federated.sampler import UniformFractionSampler
from repro.federated.staleness import rebase
from repro.obs.metrics import MetricsRegistry
from repro.systems.adversaries import (
    DefendedAlgorithm,
    ScreenedAccumulator,
    build_defense,
)
from repro.systems.executor import VectorizedExecutor
from repro.utils.rng import as_rng

from conftest import make_model

NUM_CLIENTS = 40
ROUND_INDEX = 3
MERGE_ATOL = 1e-12


# --------------------------------------------------------------------------- #
# Reference server steps: the stacked formulas the sums must reproduce
# --------------------------------------------------------------------------- #
def _stack(messages, key):
    return np.stack([message.payload[key] for message in messages])


def _models(messages):
    return [message.payload["params"] for message in messages]


def ref_average(algorithm, theta, control, messages):
    return average_aggregate(_models(messages)), control


def ref_weighted_average(algorithm, theta, control, messages):
    weights = [message.num_samples for message in messages]
    return average_aggregate(_models(messages), weights=weights), control


def ref_fedsgd(algorithm, theta, control, messages):
    step = algorithm.server_learning_rate * _stack(messages, "gradient").mean(axis=0)
    return theta - step, control


def ref_fedadmm(algorithm, theta, control, messages):
    deltas = [message.payload["delta"] for message in messages]
    eta = algorithm.step_size_policy.value(ROUND_INDEX, len(messages), NUM_CLIENTS)
    return admm_server_update(theta, deltas, eta), control


def ref_scaffold(algorithm, theta, control, messages):
    new_params = theta + algorithm.server_step_size * _stack(
        messages, "delta_params"
    ).mean(axis=0)
    new_control = control + (len(messages) / NUM_CLIENTS) * _stack(
        messages, "delta_control"
    ).mean(axis=0)
    return new_params, new_control


def ref_fedpd(algorithm, theta, control, messages):
    # The first draw of the algorithm's fixed-seed communication stream.
    if as_rng(0).random() >= algorithm.communication_probability:
        return np.array(theta, copy=True), control
    return _stack(messages, "augmented_model").mean(axis=0), control


@dataclass(frozen=True)
class Rule:
    """One aggregation rule: how to build it, what it uploads, its reference."""

    algorithm: str
    kwargs: dict
    keys: tuple[str, ...]
    reference: Callable


RULES = {
    "fedsgd": Rule("fedsgd", {"server_learning_rate": 0.3}, ("gradient",), ref_fedsgd),
    "fedavg": Rule("fedavg", {}, ("params",), ref_average),
    "fedavg-samples": Rule(
        "fedavg", {"weighting": "samples"}, ("params",), ref_weighted_average
    ),
    "fedprox": Rule("fedprox", {"rho": 0.1}, ("params",), ref_average),
    "fedprox-samples": Rule(
        "fedprox", {"rho": 0.1, "weighting": "samples"}, ("params",),
        ref_weighted_average,
    ),
    "scaffold": Rule(
        "scaffold", {"server_step_size": 0.7},
        ("delta_params", "delta_control"), ref_scaffold,
    ),
    "fedadmm": Rule("fedadmm", {"rho": 0.3}, ("delta",), ref_fedadmm),
    "fedadmm-participation": Rule(
        "fedadmm", {"rho": 0.3, "server_step_size": "participation"},
        ("delta",), ref_fedadmm,
    ),
    # as_rng(0)'s first draw is ~0.637: one probability on each side of it.
    "fedpd-communicates": Rule(
        "fedpd", {"communication_probability": 0.9}, ("augmented_model",), ref_fedpd
    ),
    "fedpd-silent": Rule(
        "fedpd", {"communication_probability": 0.5}, ("augmented_model",), ref_fedpd
    ),
}


def test_every_registered_algorithm_has_a_rule():
    assert {rule.algorithm for rule in RULES.values()} == set(ALGORITHM_REGISTRY)


# --------------------------------------------------------------------------- #
# Generated rounds
# --------------------------------------------------------------------------- #
@dataclass
class Round:
    """One generated cohort plus a split of it into ordered shards."""

    theta: np.ndarray
    control: np.ndarray
    messages: list[ClientMessage]
    shards: list[list[ClientMessage]]


@st.composite
def rounds(draw, keys):
    seed = draw(st.integers(0, 2**31 - 1))
    count = draw(st.integers(1, 12))
    dim = draw(st.integers(2, 24))
    rng = np.random.default_rng(seed)
    messages = []
    for client_id in range(count):
        payload = {key: rng.normal(scale=3.0, size=dim) for key in keys}
        if "mask" in payload:
            payload["mask"] = (rng.random(dim) >= 0.4).astype(np.float64)
            payload["params"] = payload["params"] * payload["mask"]
        messages.append(
            ClientMessage(
                client_id=client_id,
                payload=payload,
                num_samples=int(rng.integers(1, 200)),
                local_epochs=1,
                train_loss=0.0,
            )
        )
    # Any split into contiguous shards (empty ones included), in any order.
    cuts = sorted(draw(st.lists(st.integers(0, count), max_size=4)))
    bounds = [0, *cuts, count]
    shards = [messages[a:b] for a, b in zip(bounds, bounds[1:])]
    shards = draw(st.permutations(shards))
    return Round(
        theta=rng.normal(size=dim),
        control=rng.normal(size=dim),
        messages=messages,
        shards=list(shards),
    )


def make_accumulator(algorithm, generated, server_state):
    return algorithm.make_accumulator(
        generated.theta, server_state, NUM_CLIENTS, ROUND_INDEX
    )


def reduce_sharded(algorithm, generated, server_state):
    """The plan's reduction: one partial per shard, merged into a root."""
    root = make_accumulator(algorithm, generated, server_state)
    for shard in generated.shards:
        partial = make_accumulator(algorithm, generated, server_state)
        for message in shard:
            partial.accumulate(message)
        root.merge(partial)
    return root


def rule_cases(test):
    """Run a ``(rule, data)`` property once per rule, 25 generated rounds each."""
    test = settings(max_examples=25, deadline=None)(given(data=st.data())(test))
    return pytest.mark.parametrize("rule", RULES.values(), ids=list(RULES))(test)


class TestReductionLaws:
    @rule_cases
    def test_accumulate_all_matches_reference_bitwise(self, rule, data):
        generated = data.draw(rounds(rule.keys))
        algorithm = build_algorithm(rule.algorithm, **rule.kwargs)
        expected, expected_control = rule.reference(
            algorithm, generated.theta, generated.control, generated.messages
        )

        state = {"control": generated.control}
        accumulator = make_accumulator(algorithm, generated, state)
        for message in generated.messages:
            accumulator.accumulate(message)
        assert accumulator.count == len(generated.messages)
        np.testing.assert_array_equal(accumulator.finalise(), expected)
        np.testing.assert_array_equal(state["control"], expected_control)

        # The list form is the same reduction (fresh instance: fresh coin).
        state = {"control": generated.control}
        listed = build_algorithm(rule.algorithm, **rule.kwargs).aggregate(
            generated.theta, state, generated.messages, NUM_CLIENTS, ROUND_INDEX
        )
        np.testing.assert_array_equal(listed, expected)
        np.testing.assert_array_equal(state["control"], expected_control)

    @rule_cases
    def test_merge_over_any_split_matches_single_accumulator(self, rule, data):
        generated = data.draw(rounds(rule.keys))
        algorithm = build_algorithm(rule.algorithm, **rule.kwargs)
        expected, expected_control = rule.reference(
            algorithm, generated.theta, generated.control, generated.messages
        )
        state = {"control": generated.control}
        root = reduce_sharded(algorithm, generated, state)
        assert root.count == len(generated.messages)
        np.testing.assert_allclose(
            root.finalise(), expected, atol=MERGE_ATOL, rtol=0
        )
        np.testing.assert_allclose(
            state["control"], expected_control, atol=MERGE_ATOL, rtol=0
        )

    @settings(max_examples=25, deadline=None)
    @given(generated=rounds(("delta_params", "delta_control")))
    def test_scaffold_control_written_once_at_finalise(self, generated):
        algorithm = build_algorithm("scaffold")
        state = {"control": generated.control}
        root = reduce_sharded(algorithm, generated, state)
        # Accumulating and merging any number of shards writes nothing ...
        assert state["control"] is generated.control
        root.finalise()
        # ... and finalise applies the refresh once, not once per shard.
        _, expected = ref_scaffold(
            algorithm, generated.theta, generated.control, generated.messages
        )
        np.testing.assert_allclose(
            state["control"], expected, atol=MERGE_ATOL, rtol=0
        )

    @settings(max_examples=25, deadline=None)
    @given(generated=rounds(("augmented_model",)))
    def test_fedpd_coin_flipped_once_at_finalise(self, generated):
        algorithm = build_algorithm("fedpd", communication_probability=0.9)
        stream = as_rng(0)
        first, second = stream.random(), stream.random()
        root = reduce_sharded(algorithm, generated, {})
        untouched = algorithm._comm_rng.bit_generator.state
        assert untouched == as_rng(0).bit_generator.state
        root.finalise()
        assert first < 0.9  # this round communicated on the first draw
        assert algorithm._comm_rng.random() == second

    @pytest.mark.parametrize("rule", RULES.values(), ids=list(RULES))
    @pytest.mark.parametrize("defended", [False, True], ids=["plain", "defended"])
    def test_empty_finalise_raises(self, rule, defended):
        algorithm = build_algorithm(rule.algorithm, **rule.kwargs)
        if defended:
            algorithm = DefendedAlgorithm(algorithm, build_defense("median"))
        accumulator = algorithm.make_accumulator(np.zeros(4), {}, NUM_CLIENTS, 0)
        with pytest.raises(ConfigurationError):
            accumulator.finalise()
        with pytest.raises(ConfigurationError):
            algorithm.aggregate(np.zeros(4), {}, [], NUM_CLIENTS, 0)


# --------------------------------------------------------------------------- #
# Stale uploads: rebase, then the same reduction
# --------------------------------------------------------------------------- #
#: The rules whose payloads follow the key convention (model-valued
#: ``"params"``; update-valued ``"delta"`` / ``"gradient"``).
BUFFERED_RULES = {
    name: rule for name, rule in RULES.items()
    if set(rule.keys) <= {"params", "delta", "gradient"}
}
REBASE_ATOL = 1e-12


@st.composite
def buffers(draw, keys):
    """A generated round plus, per message, a stale anchor and a weight."""
    generated = draw(rounds(keys))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    bases = [rng.normal(size=generated.theta.size) for _ in generated.messages]
    weights = [float(w) for w in rng.uniform(0.05, 1.0, len(generated.messages))]
    return generated, bases, weights


def rebased_aggregate(algorithm, generated, bases, weights):
    return algorithm.aggregate(
        generated.theta, {},
        [
            rebase(message, base, weight, generated.theta)
            for message, base, weight in zip(generated.messages, bases, weights)
        ],
        NUM_CLIENTS, ROUND_INDEX,
    )


def step_of(algorithm, message, base):
    """δᵢ: the additive model update one upload encodes against its anchor."""
    payload = message.payload
    if "params" in payload:
        return payload["params"] - base
    if "gradient" in payload:
        return -algorithm.server_learning_rate * payload["gradient"]
    return payload["delta"]


def buffered_cases(test):
    test = settings(max_examples=25, deadline=None)(given(data=st.data())(test))
    return pytest.mark.parametrize(
        "rule", BUFFERED_RULES.values(), ids=list(BUFFERED_RULES)
    )(test)


class TestRebaseLaws:
    def test_buffered_rules_are_the_plan_ready_algorithms(self):
        assert {rule.algorithm for rule in BUFFERED_RULES.values()} == {
            name for name, cls in ALGORITHM_REGISTRY.items()
            if cls.supports_plan("async")
        }

    @buffered_cases
    def test_rebased_aggregate_is_the_buffered_closed_form(self, rule, data):
        generated, bases, weights = data.draw(buffers(rule.keys))
        algorithm = build_algorithm(rule.algorithm, **rule.kwargs)
        messages = generated.messages
        # θ + Σ cᵢ sᵢ δᵢ / Σ cᵢ, with cᵢ the sample count or 1.
        volumes = [
            float(m.num_samples) if algorithm.weighting == "samples" else 1.0
            for m in messages
        ]
        total = sum(
            c * s * step_of(algorithm, m, b)
            for c, s, m, b in zip(volumes, weights, messages, bases)
        )
        eta = 1.0
        if rule.algorithm == "fedadmm":
            eta = algorithm.step_size_policy.value(
                ROUND_INDEX, len(messages), NUM_CLIENTS
            )
        np.testing.assert_allclose(
            rebased_aggregate(algorithm, generated, bases, weights),
            generated.theta + eta * total / sum(volumes),
            atol=REBASE_ATOL, rtol=0,
        )

    @buffered_cases
    def test_fresh_full_weight_rebase_is_the_lockstep_aggregate(self, rule, data):
        generated = data.draw(rounds(rule.keys))
        algorithm = build_algorithm(rule.algorithm, **rule.kwargs)
        count = len(generated.messages)
        np.testing.assert_allclose(
            rebased_aggregate(
                algorithm, generated, [generated.theta] * count, [1.0] * count
            ),
            algorithm.aggregate(
                generated.theta, {}, generated.messages, NUM_CLIENTS, ROUND_INDEX
            ),
            atol=REBASE_ATOL, rtol=0,
        )

    @settings(max_examples=25, deadline=None)
    @given(buffer=buffers(("delta",)))
    @pytest.mark.parametrize("step", [1.0, "participation"])
    def test_fedadmm_matches_the_paper_reference_bitwise(self, step, buffer):
        generated, bases, weights = buffer
        algorithm = build_algorithm("fedadmm", rho=0.3, server_step_size=step)
        eta = algorithm.step_size_policy.value(
            ROUND_INDEX, len(generated.messages), NUM_CLIENTS
        )
        # Never differenced against the stale anchor: s·Δ into eq. (5).
        deltas = [
            weight * message.payload["delta"]
            for message, weight in zip(generated.messages, weights)
        ]
        np.testing.assert_array_equal(
            rebased_aggregate(algorithm, generated, bases, weights),
            admm_server_update(generated.theta, deltas, eta),
        )

    @pytest.mark.parametrize(
        "rule", [r for r in RULES.values() if r not in BUFFERED_RULES.values()],
        ids=[n for n in RULES if n not in BUFFERED_RULES],
    )
    def test_unknown_payload_keys_refuse(self, rule):
        message = ClientMessage(
            client_id=0, payload={key: np.ones(4) for key in rule.keys},
            num_samples=1, local_epochs=1, train_loss=0.0,
        )
        with pytest.raises(ConfigurationError, match="cannot rebase payload keys"):
            rebase(message, np.zeros(4), 1.0, np.zeros(4))

    def test_rebase_leaves_the_upload_untouched(self):
        payload = {"params": np.arange(4.0)}
        message = ClientMessage(
            client_id=3, payload=payload, num_samples=7, local_epochs=2,
            train_loss=0.5,
        )
        rebased = rebase(message, np.ones(4), 0.5, np.full(4, 2.0))
        np.testing.assert_array_equal(payload["params"], np.arange(4.0))
        np.testing.assert_array_equal(
            rebased.payload["params"], 2.0 + 0.5 * (np.arange(4.0) - 1.0)
        )
        assert (rebased.client_id, rebased.num_samples, rebased.train_loss) == (
            3, 7, 0.5
        )


# --------------------------------------------------------------------------- #
# Contract surface
# --------------------------------------------------------------------------- #
def classes_below_base(cls):
    """``cls`` and its bases, up to but excluding ``FederatedAlgorithm``."""
    return [
        klass for klass in cls.__mro__
        if issubclass(klass, FederatedAlgorithm) and klass is not FederatedAlgorithm
    ]


class TestContractSurface:
    @pytest.mark.parametrize(
        "cls", [*ALGORITHM_REGISTRY.values(), DefendedAlgorithm],
        ids=[*ALGORITHM_REGISTRY, "defended"],
    )
    def test_aggregate_is_defined_once_in_the_base_class(self, cls):
        for klass in classes_below_base(cls):
            assert "aggregate" not in vars(klass)
        assert cls.aggregate is FederatedAlgorithm.aggregate

    @pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY))
    def test_one_accumulator_class_sums_payloads(self, name):
        cls = ALGORITHM_REGISTRY[name]
        for klass in classes_below_base(cls):
            assert "make_accumulator" not in vars(klass)
        assert "server_step" in vars(classes_below_base(cls)[-1])
        accumulator = cls().make_accumulator(np.zeros(4), {}, NUM_CLIENTS, 0)
        assert type(accumulator) is UpdateAccumulator
        assert UpdateAccumulator.__subclasses__() == []

    def test_defense_only_decorates_the_accumulator(self):
        # Of the algorithm contract, the wrapper defines the accumulator
        # factory and its sync-only flag — no per-method forwarders.
        contract = {
            name for name in vars(FederatedAlgorithm) if not name.startswith("_")
        }
        assert set(vars(DefendedAlgorithm)) & contract == {
            "make_accumulator", "supports_async",
        }
        inner = build_algorithm("scaffold")
        defended = DefendedAlgorithm(inner, build_defense("trimmed_mean"))
        accumulator = defended.make_accumulator(np.zeros(4), {}, NUM_CLIENTS, 0)
        assert isinstance(accumulator, ScreenedAccumulator)
        assert type(accumulator.inner) is UpdateAccumulator
        assert accumulator.inner.algorithm is inner
        # Everything else is the inner algorithm's, generically.
        assert defended.name == "scaffold"
        assert defended.download_floats(10) == inner.download_floats(10) == 20
        assert defended.local_update == inner.local_update

    # --- PR 18: the client half collapsed too ---------------------------- #
    def test_one_client_update_per_algorithm(self):
        def shipped(cls):
            for sub in cls.__subclasses__():
                if sub.__module__.startswith("repro.algorithms"):
                    yield sub
                yield from shipped(sub)

        subclasses = set(shipped(FederatedAlgorithm))
        assert set(ALGORITHM_REGISTRY.values()) <= subclasses
        # ``local_update`` is the base class's cohort-of-one, never
        # overridden: every algorithm's ClientUpdate is its
        # ``batched_local_update``, and nothing declares whether it batches.
        assert not [cls for cls in subclasses if "local_update" in vars(cls)]
        for cls in ALGORITHM_REGISTRY.values():
            assert "batched_local_update" in vars(cls)
            assert not hasattr(cls, "supports_batched")

    # --- PR 16: the buffered half of the contract collapsed too ---------- #
    @pytest.mark.parametrize(
        "cls",
        [FederatedAlgorithm, *ALGORITHM_REGISTRY.values(), DefendedAlgorithm],
        ids=["base", *ALGORITHM_REGISTRY, "defended"],
    )
    def test_no_buffered_plan_hooks_on_the_algorithm_contract(self, cls):
        for hook in ("aggregate_async", "message_delta"):
            assert not hasattr(cls, hook)

    def test_one_engine_class(self):
        import repro
        import repro.federated

        for package in (repro, repro.federated):
            assert "AsyncFederatedSimulation" not in package.__all__
            assert not hasattr(package, "AsyncFederatedSimulation")
        assert importlib.util.find_spec("repro.federated.async_engine") is None
        assert FederatedSimulation.__subclasses__() == []

    def test_mode_is_the_one_plan_spelling(self):
        from repro.experiments.configs import ExperimentConfig, preset_config

        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert "async_mode" not in fields and len(fields) == 37
        # Configs served or stored before the field went are folded on load,
        # not by re-adding it.
        config = preset_config("serve")
        record = dataclasses.asdict(config)
        assert ExperimentConfig.from_record(record) == config
        legacy = {**record, "mode": "async", "async_mode": True}
        assert ExperimentConfig.from_record(legacy).mode == "async"
        legacy = {**record, "mode": "semisync", "async_mode": False}
        assert ExperimentConfig.from_record(legacy).mode == "semisync"
        with pytest.raises(TypeError):
            ExperimentConfig(**legacy)

    def test_array_backend_is_not_a_config_field(self):
        from repro.experiments.configs import ExperimentConfig, preset_config

        # The stacked kernels are NumPy: no field, and records written while
        # there was one (``None`` by default, ``"numpy"`` at most) still load.
        with pytest.raises(TypeError):
            ExperimentConfig(name="x", backend="numpy")
        config = preset_config("serve")
        record = dataclasses.asdict(config)
        assert "backend" not in record
        for legacy in (None, "numpy"):
            loaded = ExperimentConfig.from_record({**record, "backend": legacy})
            assert loaded == config

    def test_sharded_plan_dispatches_one_cohort_per_shard(
        self, blobs_split, iid_partition
    ):
        num_shards, num_rounds = 4, 2
        executor = VectorizedExecutor()
        metrics = MetricsRegistry()
        simulation = FederatedSimulation(
            algorithm=build_algorithm("fedadmm", rho=0.3),
            model=make_model(seed=0),
            clients=build_clients(blobs_split.train, iid_partition),
            test_dataset=blobs_split.test,
            sampler=UniformFractionSampler(1.0),
            batch_size=16,
            seed=0,
            executor=executor,
            plan=HierarchicalPlan(num_shards=num_shards),
            metrics=metrics,
        )
        calls: list[int] = []
        run_tasks = executor.run_tasks

        def counting_run_tasks(tasks, **kwargs):
            calls.append(len(tasks))
            return run_tasks(tasks, **kwargs)

        executor.run_tasks = counting_run_tasks
        simulation.run(num_rounds)

        # 8 clients in 4 shards, full participation: each shard's cohort
        # of two reaches the executor as one dispatch.
        assert calls == [2] * (num_shards * num_rounds)
        counters = metrics.snapshot()["counters"]
        assert not [name for name in counters if name.startswith("executor.fallback.")]
