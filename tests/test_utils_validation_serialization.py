"""Tests for repro.utils.validation and repro.utils.serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.algorithms import build_algorithm
from repro.algorithms.base import LocalTrainingConfig
from repro.core.admm_client import admm_client_update
from repro.core.augmented_lagrangian import AugmentedLagrangian
from repro.core.dual import augmented_model, dual_update
from repro.core.rho import PiecewiseRho
from repro.core.stepsize import PiecewiseStepSize
from repro.exceptions import ConfigurationError, ShapeError
from repro.experiments.configs import ExperimentConfig
from repro.utils.serialization import (
    dumps_strict,
    load_json,
    save_json,
    to_jsonable,
)
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
    check_same_length,
)


class TestValidation:
    def test_check_positive_accepts(self):
        assert check_positive(1.5, "x") == 1.5

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            check_positive(0, "x")

    def test_check_non_negative_accepts_zero(self):
        assert check_non_negative(0, "x") == 0

    def test_check_non_negative_rejects(self):
        with pytest.raises(ConfigurationError):
            check_non_negative(-1, "x")

    def test_check_fraction_bounds(self):
        assert check_fraction(1.0, "c") == 1.0
        with pytest.raises(ConfigurationError):
            check_fraction(0.0, "c")
        with pytest.raises(ConfigurationError):
            check_fraction(1.2, "c")

    def test_check_probability_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0
        with pytest.raises(ConfigurationError):
            check_probability(-0.1, "p")

    def test_check_same_length(self):
        check_same_length([1, 2], (3, 4), "a", "b")
        with pytest.raises(ShapeError):
            check_same_length([1], [1, 2], "a", "b")


def _piecewise(cls):
    return lambda value: cls([1.0, value], [2])


#: Every ρ / η / learning-rate guard, each handed one bad value.
NON_FINITE_GUARDS = {
    "check_positive": lambda value: check_positive(value, "x"),
    "check_non_negative": lambda value: check_non_negative(value, "x"),
    "fedadmm.rho": lambda value: build_algorithm("fedadmm", rho=value),
    "fedadmm.server_step_size": lambda value: build_algorithm(
        "fedadmm", server_step_size=value
    ),
    "fedprox.rho": lambda value: build_algorithm("fedprox", rho=value),
    "fedpd.rho": lambda value: build_algorithm("fedpd", rho=value),
    "scaffold.server_step_size": lambda value: build_algorithm(
        "scaffold", server_step_size=value
    ),
    "fedsgd.server_learning_rate": lambda value: build_algorithm(
        "fedsgd", server_learning_rate=value
    ),
    "PiecewiseRho": _piecewise(PiecewiseRho),
    "PiecewiseStepSize": _piecewise(PiecewiseStepSize),
    "AugmentedLagrangian": AugmentedLagrangian,
    "admm_client_update.rho": lambda value: admm_client_update(
        None, np.zeros((1, 2)), np.zeros((1, 2)), np.zeros(2), value, None
    ),
    "dual_update.rho": lambda value: dual_update(
        np.zeros(2), np.zeros(2), np.zeros(2), value
    ),
    "augmented_model.rho": lambda value: augmented_model(
        np.zeros(2), np.zeros(2), value
    ),
    "LocalTrainingConfig.learning_rate": lambda value: LocalTrainingConfig(
        epochs=1, batch_size=None, learning_rate=value
    ),
    "ExperimentConfig.learning_rate": lambda value: ExperimentConfig(
        name="x", learning_rate=value
    ),
}


class TestNonFiniteHyperparameters:
    # ``x <= 0`` is false for NaN: every guard must refuse it, and infinities.
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("guard", sorted(NON_FINITE_GUARDS))
    def test_refused(self, guard, value):
        with pytest.raises(ConfigurationError, match="finite"):
            NON_FINITE_GUARDS[guard](value)

    def test_fedprox_keeps_rho_zero(self):
        assert build_algorithm("fedprox", rho=0.0).rho == 0.0


@dataclasses.dataclass
class _Sample:
    name: str
    values: np.ndarray


class TestSerialization:
    def test_numpy_scalars_and_arrays(self):
        obj = {"a": np.float64(1.5), "b": np.int64(3), "c": np.arange(3)}
        encoded = to_jsonable(obj)
        assert encoded == {"a": 1.5, "b": 3, "c": [0, 1, 2]}

    def test_dataclass(self):
        encoded = to_jsonable(_Sample(name="x", values=np.array([1.0, 2.0])))
        assert encoded == {"name": "x", "values": [1.0, 2.0]}

    def test_nested_sequences(self):
        assert to_jsonable([(1, 2), {3}]) == [[1, 2], [3]]

    def test_round_trip_file(self, tmp_path):
        payload = {"rounds": [1, 2, 3], "accuracy": np.float64(0.5)}
        path = save_json(payload, tmp_path / "out" / "result.json")
        assert load_json(path) == {"rounds": [1, 2, 3], "accuracy": 0.5}

    def test_unknown_objects_become_strings(self):
        class Opaque:
            def __str__(self):
                return "opaque"

        assert to_jsonable(Opaque()) == "opaque"


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant: {token}")


def loads_strict(text):
    """json.loads that refuses the NaN/Infinity extension tokens."""
    return json.loads(text, parse_constant=_reject_constant)


class TestStrictJson:
    """Non-finite floats must never reach the wire as bare NaN/Infinity
    tokens — jq and strict parsers reject them.  They serialise as null."""

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")]
    )
    def test_nonfinite_python_floats_become_null(self, value):
        assert to_jsonable(value) is None
        assert to_jsonable({"train_loss": value}) == {"train_loss": None}

    def test_nonfinite_numpy_values_become_null(self):
        assert to_jsonable(np.float64("nan")) is None
        assert to_jsonable(np.float32("inf")) is None
        assert to_jsonable(np.array([1.0, np.nan, np.inf])) == [1.0, None, None]

    def test_finite_floats_unchanged(self):
        assert to_jsonable(0.5) == 0.5
        assert to_jsonable(np.float64(-1.25)) == -1.25

    def test_dumps_strict_output_parses_strictly(self):
        payload = {"loss": float("nan"), "acc": [0.5, float("inf")]}
        text = dumps_strict(payload)
        assert "NaN" not in text and "Infinity" not in text
        assert loads_strict(text) == {"loss": None, "acc": [0.5, None]}

    def test_loads_strict_rejects_legacy_tokens(self):
        # Sanity: the strict parser really does reject what the default
        # json.dumps would have emitted.
        with pytest.raises(ValueError, match="non-standard"):
            loads_strict('{"loss": NaN}')

    def test_save_json_is_strict(self, tmp_path):
        path = save_json(
            {"train_loss": float("nan")}, tmp_path / "result.json"
        )
        assert loads_strict(path.read_text()) == {"train_loss": None}
