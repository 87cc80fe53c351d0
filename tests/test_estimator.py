import numpy as np
import pytest

from kincal.estimator import (DegenerateUpdateError, EstimatorState, GradientConfig,
                              NoiseConfig, apply_stabilizing_noise, gradient_update,
                              prediction_error, rls_update)
from kincal.kinematics import ChainObservationModel, ChainParams, Pose, Twist


class LinearModel:
    """h(x, q) = M[q] @ x; q indexes the per-step matrix."""

    def __init__(self, matrices):
        self.matrices = [np.atleast_2d(np.asarray(m, dtype=float)) for m in matrices]

    def predict(self, x, q):
        return self.matrices[q] @ x

    def jacobian(self, x, q):
        return self.matrices[q]


class ZeroModel:
    def __init__(self, dim, out_dim=3):
        self.dim = dim
        self.out_dim = out_dim

    def predict(self, x, q):
        return np.zeros(self.out_dim)

    def jacobian(self, x, q):
        return np.zeros((self.out_dim, self.dim))

    def predict_batch(self, x, configs):
        return np.zeros((len(configs), self.out_dim))


def batch_tikhonov(x0, p0, steps, obs_variance):
    """Weighted least squares with the prior as a Tikhonov term.

    steps: list of (H, y). Returns (mean, covariance).
    """
    info = np.linalg.inv(p0)
    rhs = info @ x0
    for mat, y in steps:
        mat = np.atleast_2d(mat)
        info = info + mat.T @ mat / obs_variance
        rhs = rhs + mat.T @ np.atleast_1d(y) / obs_variance
    cov = np.linalg.inv(info)
    return cov @ rhs, cov


def information_form_update(cov, mat, obs_variance):
    mat = np.atleast_2d(mat)
    info = np.linalg.inv(cov) + mat.T @ mat / obs_variance
    return np.linalg.inv(info)


def random_spd(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return scale * (a @ a.T + n * np.eye(n))


def small_chain_model(rng, n=1):
    twists = []
    for _ in range(n):
        w = rng.normal(size=3)
        w /= np.linalg.norm(w)
        twists.append(Twist(w, rng.normal(size=3)))
    chain = ChainParams(twists, Pose(np.eye(3), rng.normal(size=3)))
    return chain, ChainObservationModel.from_chain(chain)


class TestRlsUpdate:
    def test_zero_jacobian_changes_nothing(self):
        rng = np.random.default_rng(0)
        state = EstimatorState(rng.normal(size=6), random_spd(rng, 6))
        noise = NoiseConfig(obs_variance=1e-2)
        out = rls_update(state, 0, np.zeros(3), noise, ZeroModel(6))
        np.testing.assert_array_equal(out.mean, state.mean)
        np.testing.assert_allclose(out.covariance, state.covariance, atol=1e-12)

    def test_state_noise_added_before_update(self):
        rng = np.random.default_rng(1)
        state = EstimatorState(rng.normal(size=4), random_spd(rng, 4))
        noise = NoiseConfig(obs_variance=1.0, state_noise_variance=0.03)
        out = rls_update(state, 0, np.zeros(3), noise, ZeroModel(4))
        np.testing.assert_allclose(out.covariance,
                                   state.covariance + 0.03 * np.eye(4), atol=1e-12)

    def test_scalar_running_average(self):
        # nearly flat prior: the posterior mean tracks the sample mean
        rng = np.random.default_rng(2)
        model = LinearModel([np.eye(1)] * 40)
        state = EstimatorState(np.zeros(1), 1e6 * np.eye(1))
        noise = NoiseConfig(obs_variance=1.0)
        ys = rng.normal(1.7, 0.3, size=40)
        for t, y in enumerate(ys):
            state = rls_update(state, t, np.array([y]), noise, model)
        assert abs(state.mean[0] - ys.mean()) < 1e-6

    def test_huge_obs_variance_freezes_mean(self):
        rng = np.random.default_rng(3)
        state = EstimatorState(rng.normal(size=3), np.eye(3))
        model = LinearModel([np.eye(3)])
        y = state.mean + np.array([5.0, -3.0, 2.0])
        out = rls_update(state, 0, y, NoiseConfig(obs_variance=1e12), model)
        shift = np.linalg.norm(out.mean - state.mean)
        assert shift <= 1e-6 * np.linalg.norm(y - state.mean)

    def test_matches_batch_tikhonov(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            dim = int(rng.integers(1, 13))
            horizon = int(rng.integers(1, 51))
            obs_variance = float(rng.uniform(0.05, 2.0))
            x0 = rng.normal(size=dim)
            p0 = random_spd(rng, dim)
            mats = [rng.normal(size=(3, dim)) for _ in range(horizon)]
            ys = [rng.normal(size=3) for _ in range(horizon)]
            model = LinearModel(mats)
            state = EstimatorState(x0, p0)
            noise = NoiseConfig(obs_variance=obs_variance)
            for t in range(horizon):
                state = rls_update(state, t, ys[t], noise, model)
            mean_ref, cov_ref = batch_tikhonov(x0, p0, list(zip(mats, ys)),
                                               obs_variance)
            np.testing.assert_allclose(state.mean, mean_ref, atol=1e-8)
            np.testing.assert_allclose(state.covariance, cov_ref, atol=1e-8)

    def test_matches_information_form_single_step(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dim = int(rng.integers(2, 10))
            cov = random_spd(rng, dim)
            mat = rng.normal(size=(3, dim))
            state = EstimatorState(rng.normal(size=dim), cov)
            out = rls_update(state, 0, rng.normal(size=3),
                             NoiseConfig(obs_variance=0.1), LinearModel([mat]))
            ref = information_form_update(cov, mat, 0.1)
            np.testing.assert_allclose(out.covariance, ref, atol=1e-8)

    def test_information_never_decreases_along_measured_directions(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            dim = 5
            state = EstimatorState(rng.normal(size=dim), random_spd(rng, dim))
            mat = rng.normal(size=(2, dim))
            out = rls_update(state, 0, rng.normal(size=2),
                             NoiseConfig(obs_variance=0.5), LinearModel([mat]))
            for direction in np.eye(dim):
                before = direction @ state.covariance @ direction
                after = direction @ out.covariance @ direction
                assert after <= before + 1e-12

    def test_covariance_stays_symmetric_psd_under_nonlinear_updates(self):
        rng = np.random.default_rng(7)
        chain, model = small_chain_model(rng)
        state = EstimatorState(chain.to_vector() + rng.normal(0, 0.2, 6), np.eye(6))
        noise = NoiseConfig(obs_variance=1e-3, state_noise_variance=1e-6)
        for _ in range(500):
            q = rng.uniform(-0.7, 0.7, 1)
            y = model.predict(chain.to_vector(), q) + rng.normal(0, 0.03, 3)
            state = rls_update(state, q, y, noise, model)
        assert state.symmetry_defect() <= 1e-10
        assert state.min_eigenvalue() >= -1e-9

    def test_mismatched_observation_rejected(self):
        state = EstimatorState(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            rls_update(state, 0, np.zeros(3), NoiseConfig(), LinearModel([np.eye(2)]))

    def test_degenerate_innovation_raises(self):
        # corrupted (indefinite) covariance with zero measurement noise
        state = EstimatorState(np.zeros(1), np.array([[-1.0]]))
        model = LinearModel([np.eye(1)])
        with pytest.raises(DegenerateUpdateError):
            rls_update(state, 0, np.ones(1), NoiseConfig(obs_variance=0.0), model)

    def test_non_finite_innovation_raises(self):
        state = EstimatorState(np.zeros(1), np.array([[np.inf]]))
        model = LinearModel([np.eye(1)])
        with pytest.raises(DegenerateUpdateError):
            rls_update(state, 0, np.ones(1), NoiseConfig(), model)

    def test_overflowing_update_raises_instead_of_poisoning(self):
        # finite inputs, finite innovation covariance, but the residual
        # overflows; the caller must get an error, not a NaN state
        state = EstimatorState(np.full(1, -1.7e308), np.eye(1))
        model = LinearModel([np.eye(1)])
        with pytest.raises(DegenerateUpdateError):
            rls_update(state, 0, np.full(1, 1.7e308), NoiseConfig(), model)


class TestStabilizingNoise:
    def test_adds_to_diagonal_only(self):
        rng = np.random.default_rng(8)
        state = EstimatorState(rng.normal(size=4), random_spd(rng, 4))
        noise = NoiseConfig(stabilizing_variance=0.25)
        out = apply_stabilizing_noise(state, noise)
        np.testing.assert_array_equal(out.mean, state.mean)
        np.testing.assert_allclose(out.covariance - state.covariance,
                                   0.25 * np.eye(4), atol=1e-15)


class TestGradientUpdate:
    def test_scalar_step(self):
        model = LinearModel([np.eye(1)])
        out = gradient_update(np.zeros(1), 0, np.ones(1),
                              GradientConfig(learning_rate=0.5), model)
        np.testing.assert_allclose(out, [0.5])

    def test_convergence_divergence_bracket(self):
        # x' = (1 - rate) x + rate y converges iff rate < 2
        model = LinearModel([np.eye(1)])
        target = np.array([2.0])

        x = np.array([10.0])
        for step in range(400):
            x = gradient_update(x, 0, target, GradientConfig(learning_rate=1.9),
                                model, step)
        assert abs(x[0] - 2.0) < 1e-6

        x = np.array([10.0])
        for step in range(100):
            x = gradient_update(x, 0, target, GradientConfig(learning_rate=2.1),
                                model, step)
        assert abs(x[0] - 2.0) > 1e3

    def test_non_finite_step_raises(self):
        # finite residual -4e307, but the step 10 * 4 * -4e307 overflows
        model = LinearModel([4.0 * np.eye(1)])
        with pytest.raises(DegenerateUpdateError):
            gradient_update(np.array([1e307]), 0, np.zeros(1),
                            GradientConfig(learning_rate=10.0), model)

    def test_decay_schedule(self):
        cfg = GradientConfig(learning_rate=1.0, decay=0.5)
        assert cfg.rate_at(0) == 1.0
        assert cfg.rate_at(2) == 0.5
        model = LinearModel([np.eye(1)])
        out = gradient_update(np.zeros(1), 0, np.ones(1), cfg, model, step=2)
        np.testing.assert_allclose(out, [0.5])


class TestPredictionError:
    def test_single_probe_is_residual_norm(self):
        model = ZeroModel(2)
        err = prediction_error(np.zeros(2), [(0, np.array([3.0, 4.0, 0.0]))], model)
        assert err == pytest.approx(5.0)

    def test_rms_over_probes(self):
        model = ZeroModel(2)
        data = [(0, np.array([3.0, 4.0, 0.0])), (1, np.array([0.0, 0.0, 1.0]))]
        err = prediction_error(np.zeros(2), data, model)
        assert err == pytest.approx(np.sqrt((25.0 + 1.0) / 2.0))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            prediction_error(np.zeros(2), [], ZeroModel(2))


class TestStateAndConfigs:
    def test_noise_config_validation(self):
        with pytest.raises(ValueError):
            NoiseConfig(obs_variance=-1.0)
        with pytest.raises(ValueError):
            NoiseConfig(stabilizing_period=0)

    def test_gradient_config_validation(self):
        with pytest.raises(ValueError):
            GradientConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientConfig(learning_rate=0.1, decay=-1.0)

    def test_state_shape_validation(self):
        with pytest.raises(ValueError):
            EstimatorState(np.zeros(3), np.eye(2))
