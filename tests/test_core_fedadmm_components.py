"""Tests for the FedADMM core: augmented Lagrangian, dual mechanics,
client/server updates, step-size and rho schedules."""

import numpy as np
import pytest

from repro.algorithms.base import LocalTrainingConfig, OneClientCohort
from repro.core.admm_client import admm_client_update
from repro.core.admm_server import admm_server_update, average_aggregate
from repro.core.augmented_lagrangian import AugmentedLagrangian
from repro.core.dual import (
    augmented_model,
    dual_update,
    kkt_residuals,
    update_message,
)
from repro.core.rho import ConstantRho, PiecewiseRho
from repro.core.stepsize import (
    ConstantStepSize,
    ParticipationScaledStepSize,
    PiecewiseStepSize,
)
from repro.exceptions import ConfigurationError


class TestAugmentedLagrangian:
    def test_penalty_value_zero_at_consensus(self):
        lagrangian = AugmentedLagrangian(rho=0.5)
        w = np.ones(4)
        assert lagrangian.penalty_value(w, np.zeros(4), w) == 0.0

    def test_penalty_gradient_formula(self):
        lagrangian = AugmentedLagrangian(rho=2.0)
        w, y, theta = np.array([1.0, 2.0]), np.array([0.5, -0.5]), np.zeros(2)
        grad = lagrangian.penalty_gradient(w, y, theta)
        assert np.allclose(grad, y + 2.0 * w)

    def test_penalty_gradient_is_derivative_of_value(self):
        lagrangian = AugmentedLagrangian(rho=0.7)
        rng = np.random.default_rng(0)
        w, y, theta = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        eps = 1e-6
        numeric = np.zeros(3)
        for i in range(3):
            w_plus, w_minus = w.copy(), w.copy()
            w_plus[i] += eps
            w_minus[i] -= eps
            numeric[i] = (
                lagrangian.penalty_value(w_plus, y, theta)
                - lagrangian.penalty_value(w_minus, y, theta)
            ) / (2 * eps)
        assert np.allclose(numeric, lagrangian.penalty_gradient(w, y, theta), atol=1e-5)

    def test_full_gradient_includes_local_loss(self, local_problem):
        lagrangian = AugmentedLagrangian(rho=0.5)
        params = local_problem.model.get_flat_params()
        y = np.zeros_like(params)
        grad = lagrangian.gradient(local_problem, params, y, params)
        _, grad_f = local_problem.full_loss_and_grad(params)
        assert np.allclose(grad, grad_f)

    def test_inexactness_decreases_with_training(self, local_problem):
        """Running gradient descent on L_i drives eq. (6)'s epsilon down."""
        lagrangian = AugmentedLagrangian(rho=1.0)
        theta = local_problem.model.get_flat_params()
        y = np.zeros_like(theta)
        w = theta.copy()
        initial = lagrangian.inexactness(local_problem, w, y, theta)
        for _ in range(25):
            w = w - 0.1 * lagrangian.gradient(local_problem, w, y, theta)
        assert lagrangian.inexactness(local_problem, w, y, theta) < initial

    def test_strong_convexity_condition(self):
        assert AugmentedLagrangian(rho=2.0).is_strongly_convex(lipschitz_constant=1.0)
        assert not AugmentedLagrangian(rho=0.5).is_strongly_convex(lipschitz_constant=1.0)
        assert AugmentedLagrangian(rho=3.0).strong_convexity_modulus(1.0) == 2.0

    def test_negative_rho_rejected(self):
        with pytest.raises(ConfigurationError):
            AugmentedLagrangian(rho=-0.1)


class TestDualMechanics:
    def test_dual_update_formula(self):
        y = np.array([1.0, -1.0])
        w = np.array([2.0, 0.0])
        theta = np.array([1.0, 1.0])
        assert np.allclose(dual_update(y, w, theta, rho=0.5), y + 0.5 * (w - theta))

    def test_augmented_model_formula(self):
        w, y = np.array([1.0, 2.0]), np.array([0.2, -0.4])
        assert np.allclose(augmented_model(w, y, rho=0.1), w + 10.0 * y)

    def test_update_message_matches_eq4(self):
        rng = np.random.default_rng(0)
        w_old, y_old = rng.normal(size=4), rng.normal(size=4)
        theta = rng.normal(size=4)
        rho = 0.3
        w_new = rng.normal(size=4)
        y_new = dual_update(y_old, w_new, theta, rho)
        delta = update_message(w_new, y_new, w_old, y_old, rho)
        expected = (w_new + y_new / rho) - (w_old + y_old / rho)
        assert np.allclose(delta, expected)
        # Algebraic identity: delta = (w_new - w_old) + (w_new - theta).
        assert np.allclose(delta, (w_new - w_old) + (w_new - theta))

    def test_zero_rho_rejected(self):
        with pytest.raises(ConfigurationError):
            dual_update(np.zeros(2), np.zeros(2), np.zeros(2), rho=0.0)
        with pytest.raises(ConfigurationError):
            augmented_model(np.zeros(2), np.zeros(2), rho=0.0)

    def test_kkt_residuals_zero_at_consensus_optimum(self):
        theta = np.array([1.0, -1.0])
        params = [theta.copy(), theta.copy()]
        duals = [np.array([0.5, 0.0]), np.array([-0.5, 0.0])]
        grads = [-duals[0], -duals[1]]
        residuals = kkt_residuals(params, duals, theta, grads)
        assert residuals.primal == 0.0
        assert residuals.dual_balance == 0.0
        assert residuals.stationarity == 0.0

    def test_kkt_residuals_positive_off_optimum(self):
        theta = np.zeros(2)
        residuals = kkt_residuals([np.ones(2)], [np.ones(2)], theta)
        assert residuals.primal > 0
        assert residuals.dual_balance > 0
        assert residuals.stationarity is None

    def test_kkt_residuals_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            kkt_residuals([np.zeros(2)], [], np.zeros(2))


def _cohort(problem, config):
    """The problem as the cohort of one ``admm_client_update`` trains on."""
    return OneClientCohort(problem, config.epochs, rng=0)


class TestAdmmClientUpdate:
    def test_dual_and_message_consistency(self, local_problem, training_config):
        theta = local_problem.model.get_flat_params()
        w_old = theta.copy()
        y_old = np.zeros_like(theta)
        rho = 0.5
        # The update writes the new state into the arrays it is given.
        w_new, y_new = w_old[None].copy(), y_old[None].copy()
        result = admm_client_update(
            _cohort(local_problem, training_config), w_new, y_new, theta, rho,
            training_config,
        )
        assert np.allclose(y_new[0], y_old + rho * (w_new[0] - theta))
        expected_delta = (w_new[0] + y_new[0] / rho) - (w_old + y_old / rho)
        assert np.allclose(result.delta[0], expected_delta)
        assert np.isfinite(result.train_loss[0])

    def test_training_reduces_local_loss(self, local_problem, training_config):
        theta = local_problem.model.get_flat_params()
        config = LocalTrainingConfig(epochs=5, batch_size=16, learning_rate=0.2)
        w = theta[None].copy()
        admm_client_update(
            _cohort(local_problem, config),
            w,
            np.zeros((1, theta.size)),
            theta,
            rho=0.1,
            config=config,
        )
        assert local_problem.full_loss(w[0]) < local_problem.full_loss(theta)

    def test_warm_start_vs_restart_differ_for_stale_local_model(
        self, local_problem, training_config
    ):
        theta = local_problem.model.get_flat_params()
        stale_w = (theta + 1.0)[None]  # pretend the client trained long ago
        y = np.zeros((1, theta.size))
        # The update trains the arrays it is given: each call gets copies.
        warm, restart = stale_w.copy(), stale_w.copy()
        admm_client_update(
            _cohort(local_problem, training_config), warm, y.copy(),
            theta, 0.5, training_config, warm_start=True,
        )
        admm_client_update(
            _cohort(local_problem, training_config), restart, y.copy(),
            theta, 0.5, training_config, warm_start=False,
        )
        assert not np.allclose(warm, restart)

    def test_invalid_rho_rejected(self, local_problem, training_config):
        theta = local_problem.model.get_flat_params()
        with pytest.raises(ConfigurationError):
            admm_client_update(
                _cohort(local_problem, training_config), theta[None].copy(),
                np.zeros((1, theta.size)), theta, 0.0, training_config,
            )


class TestAdmmServerUpdate:
    def test_tracking_update_formula(self):
        theta = np.zeros(3)
        deltas = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 2.0, 0.0])]
        new_theta = admm_server_update(theta, deltas, eta=1.0)
        assert np.allclose(new_theta, [0.5, 1.0, 0.0])

    def test_eta_scales_update(self):
        theta = np.zeros(2)
        deltas = [np.ones(2)]
        assert np.allclose(admm_server_update(theta, deltas, eta=0.5), 0.5 * np.ones(2))

    def test_empty_messages_rejected(self):
        with pytest.raises(ConfigurationError):
            admm_server_update(np.zeros(2), [], eta=1.0)
        with pytest.raises(ConfigurationError):
            admm_server_update(np.zeros(2), [np.zeros(2)], eta=0.0)

    def test_average_aggregate_uniform_and_weighted(self):
        models = [np.array([0.0, 0.0]), np.array([2.0, 4.0])]
        assert np.allclose(average_aggregate(models), [1.0, 2.0])
        assert np.allclose(average_aggregate(models, weights=[3, 1]), [0.5, 1.0])

    def test_average_aggregate_invalid_weights(self):
        with pytest.raises(ConfigurationError):
            average_aggregate([np.zeros(2)], weights=[1, 2])
        with pytest.raises(ConfigurationError):
            average_aggregate([np.zeros(2)], weights=[0.0])


class TestStepSizePolicies:
    def test_constant(self):
        assert ConstantStepSize(1.5).value(3, 5, 50) == 1.5

    def test_participation_scaled(self):
        assert ParticipationScaledStepSize().value(0, 10, 100) == pytest.approx(0.1)

    def test_piecewise_switches_at_boundaries(self):
        policy = PiecewiseStepSize(values=[1.0, 0.5, 0.25], boundaries=[10, 20])
        assert policy.value(5, 1, 10) == 1.0
        assert policy.value(10, 1, 10) == 0.5
        assert policy.value(25, 1, 10) == 0.25

    def test_invalid_policies(self):
        with pytest.raises(ConfigurationError):
            ConstantStepSize(0.0)
        with pytest.raises(ConfigurationError):
            PiecewiseStepSize(values=[1.0], boundaries=[5])
        with pytest.raises(ConfigurationError):
            PiecewiseStepSize(values=[1.0, -1.0], boundaries=[5])
        with pytest.raises(ConfigurationError):
            PiecewiseStepSize(values=[1.0, 0.5, 0.2], boundaries=[20, 10])

    def test_describe(self):
        assert "eta" in ConstantStepSize(1.0).describe()
        assert "S_t" in ParticipationScaledStepSize().describe()


class TestRhoSchedules:
    def test_constant(self):
        assert ConstantRho(0.01).value(100) == 0.01

    def test_piecewise(self):
        schedule = PiecewiseRho(values=[0.01, 0.1], boundaries=[15])
        assert schedule.value(0) == 0.01
        assert schedule.value(15) == 0.1

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            ConstantRho(0.0)
        with pytest.raises(ConfigurationError):
            PiecewiseRho(values=[0.1], boundaries=[2])
