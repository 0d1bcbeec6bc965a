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
* an empty ``finalise`` is a :class:`ConfigurationError`.

The surface tests pin the shape of the contract itself: one ``aggregate``
(the base class's), one accumulator class, a defense that only decorates
that accumulator, and a sharded plan that hands executors whole cohorts.
"""

from __future__ import annotations

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


def ref_feddropoutavg(algorithm, theta, control, messages):
    masked_total = _stack(messages, "params").sum(axis=0)
    mask_total = _stack(messages, "mask").sum(axis=0)
    out = np.array(theta, copy=True)
    reported = mask_total > 0
    out[reported] = masked_total[reported] / mask_total[reported]
    return out, control


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
    "feddropoutavg": Rule("feddropoutavg", {}, ("params", "mask"), ref_feddropoutavg),
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

        def counting_run_tasks(tasks):
            calls.append(len(tasks))
            return run_tasks(tasks)

        executor.run_tasks = counting_run_tasks
        simulation.run(num_rounds)

        # 8 clients in 4 shards, full participation: each shard's cohort
        # of two reaches the executor as one dispatch.
        assert calls == [2] * (num_shards * num_rounds)
        counters = metrics.snapshot()["counters"]
        assert not [name for name in counters if name.startswith("executor.fallback.")]
