import numpy as np
import pytest

from kincal.estimator import (DegenerateUpdateError, EstimatorState, GradientConfig,
                              NoiseConfig, _solve_innovation, apply_stabilizing_noise,
                              gradient_update, kalman_terms, prediction_error, rls_update)
from kincal.kinematics import ChainObservationModel, ChainParams, Pose, Twist
from kincal.sim import FIXTURE_NAMES, builtin_chain, make_rng, measure, random_config


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


def dense_joseph_update(state, q, y, noise, model):
    """Slow reference for rls_update: the same gain from kalman_terms, with
    the Joseph covariance (I - K H) P (I - K H)^T + r K K^T formed from
    dense d x d products. Returns (mean, covariance)."""
    jac = np.atleast_2d(np.asarray(model.jacobian(state.mean, q), dtype=float))
    _, solved, ok = kalman_terms(state.covariance, jac[None], noise.obs_variance)
    assert ok[0]
    gain = solved[0].T
    mean = state.mean + gain @ (np.asarray(y, dtype=float) - model.predict(state.mean, q))
    ikh = np.eye(state.mean.size) - gain @ jac
    cov = ikh @ state.covariance @ ikh.T + noise.obs_variance * (gain @ gain.T)
    return mean, 0.5 * (cov + cov.T)


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
        noise = NoiseConfig(obs_variance=1e-3)
        for _ in range(500):
            q = rng.uniform(-0.7, 0.7, 1)
            y = model.predict(chain.to_vector(), q) + rng.normal(0, 0.03, 3)
            state = rls_update(state, q, y, noise, model)
        assert state.symmetry_defect() <= 1e-10
        assert state.min_eigenvalue() >= -1e-9

    @pytest.mark.parametrize("obs_variance", [0.0, 1e-8, 1e2])
    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("dim", [18, 36, 72])
    def test_rank_m_joseph_matches_dense(self, dim, rows, obs_variance):
        rng = np.random.default_rng(1000 * dim + 10 * rows + int(obs_variance > 0))
        state = EstimatorState(rng.normal(size=dim), random_spd(rng, dim))
        model = LinearModel([rng.normal(size=(rows, dim))])
        y = rng.normal(size=rows)
        noise = NoiseConfig(obs_variance=obs_variance)
        out = rls_update(state, 0, y, noise, model)
        mean_ref, cov_ref = dense_joseph_update(state, 0, y, noise, model)
        np.testing.assert_array_equal(out.mean, mean_ref)
        defect = np.abs(out.covariance - cov_ref).max()
        assert defect <= 1e-12 * np.abs(cov_ref).max()

    @pytest.mark.parametrize("prior, obs_variance", [(1e6, 1e-12), (1e8, 1e-8)])
    def test_joseph_form_keeps_a_tiny_posterior_variance(self, prior, obs_variance):
        # with H = 1, S = p + r rounds to p or to its next float, and the
        # short form P - K H P cancels to 0.0 or to 1.49e-8; the Joseph
        # form keeps the exact posterior variance p r / (p + r)
        state = EstimatorState(np.zeros(1), np.array([[prior]]))
        out = rls_update(state, 0, np.zeros(1), NoiseConfig(obs_variance=obs_variance),
                         LinearModel([np.eye(1)]))
        exact = prior * obs_variance / (prior + obs_variance)
        np.testing.assert_allclose(out.covariance, [[exact]], rtol=1e-6, atol=0.0)

    def test_covariance_stays_symmetric_psd_over_arm12_run(self):
        gt = builtin_chain("arm12")
        model = ChainObservationModel.from_chain(gt.params)
        rng = make_rng(11)
        truth = gt.params.to_vector()
        state = EstimatorState(truth + rng.uniform(-0.2, 0.2, truth.size),
                               0.0133 * np.eye(truth.size))
        noise = NoiseConfig(obs_variance=gt.obs_variance)
        for _ in range(1000):
            q = random_config(gt, rng)
            state = rls_update(state, q, measure(gt, q, rng), noise, model)
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


def spd_stack(rng, k, m, floor=0.1):
    a = rng.normal(size=(k, m, m))
    return a @ a.transpose(0, 2, 1) / m + floor * np.eye(m)


class TestInnovationSolve:
    """_solve_innovation against np.linalg.solve, the slow reference, and
    kalman_terms entry by entry against its own one-entry calls."""

    @pytest.mark.parametrize("k, m, r", [(13, 3, 36), (3, 3, 18), (1, 3, 72), (40, 2, 5)])
    def test_matches_solve_on_spd_stacks(self, k, m, r):
        rng = np.random.default_rng(k * 100 + r)
        s = spd_stack(rng, k, m)
        rhs = rng.normal(size=(k, m, r))
        x, ok = _solve_innovation(s, rhs)
        assert ok.all() and x.shape == (k, m, r)
        np.testing.assert_allclose(x, np.linalg.solve(s, rhs), rtol=1e-12, atol=0)

    def test_non_finite_and_indefinite_entries_get_zeros(self):
        rng = np.random.default_rng(3)
        s = spd_stack(rng, 4, 3)
        s[1, 0, 2] = s[1, 2, 0] = np.nan
        s[2] = np.diag([1.0, -1.0, 1.0])
        rhs = rng.normal(size=(4, 3, 6))
        x, ok = _solve_innovation(s, rhs)
        np.testing.assert_array_equal(ok, [True, False, False, True])
        np.testing.assert_array_equal(x[[1, 2]], 0.0)
        good = [0, 3]
        np.testing.assert_allclose(x[good], np.linalg.solve(s[good], rhs[good]),
                                   rtol=1e-12, atol=0)

    def test_singular_entry_is_not_ok(self):
        # no repair is tried: an S with no Cholesky factor gets zeros, and
        # the rest of the stack is solved as before
        s = np.array([[[1.0, 1.0], [1.0, 1.0]], [[2.0, 0.0], [0.0, 1.0]]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(s[0])
        rhs = np.array([[[1.0, 2.0], [1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]]])
        x, ok = _solve_innovation(s, rhs)
        np.testing.assert_array_equal(ok, [False, True])
        np.testing.assert_array_equal(x[0], 0.0)
        np.testing.assert_allclose(x[1], np.linalg.solve(s[1], rhs[1]), rtol=1e-12)

    @pytest.mark.parametrize("stack", ["clean", "fallback", "empty"])
    def test_entries_match_their_own_calls(self, stack):
        rng = np.random.default_rng(17)
        dim = 12
        cov = random_spd(rng, dim, scale=0.01)
        jac = rng.normal(size=(9, 3, dim))
        obs_variance = 1e-4
        if stack == "fallback":
            # a negative variance seen only by entry 1 makes its S
            # indefinite and sends the stack entry by entry; a NaN makes
            # entry 4 non-finite, and a repeated row with no noise makes
            # entry 6 singular, so it fails the gate too
            cov[0, :] = cov[:, 0] = 0.0
            cov[0, 0] = -1.0
            jac[:, :, 0] = 0.0
            jac[1] = 0.0
            jac[1, :, 0] = 1.0
            jac[4, 0, 1] = np.nan
            jac[6, 1] = jac[6, 0]
            obs_variance = 0.0
        elif stack == "empty":
            jac = jac[:0]
        hp, solved, ok = kalman_terms(cov, jac, obs_variance)
        assert hp.shape == solved.shape == jac.shape and ok.shape == (len(jac),)
        if stack == "fallback":
            np.testing.assert_array_equal(ok, [True, False, True, True, False,
                                               True, False, True, True])
            np.testing.assert_array_equal(solved[[1, 4, 6]], 0.0)
        for i in range(len(jac)):
            one = kalman_terms(cov, jac[i:i + 1], obs_variance)
            for stacked, own in zip((hp, solved, ok), one):
                np.testing.assert_array_equal(stacked[i], own[0])


class TestStabilizingNoise:
    def test_adds_to_diagonal_only(self):
        rng = np.random.default_rng(8)
        cov = random_spd(rng, 4)
        cov[0, 1] = cov[1, 0] = -0.0        # adding 0.0 would turn it into +0.0
        state = EstimatorState(rng.normal(size=4), cov)
        noise = NoiseConfig(stabilizing_variance=0.25)
        out = apply_stabilizing_noise(state, noise)
        np.testing.assert_array_equal(out.mean, state.mean)
        off = ~np.eye(4, dtype=bool)
        assert out.covariance[off].tobytes() == state.covariance[off].tobytes()
        np.testing.assert_array_equal(np.diag(out.covariance),
                                      np.diag(state.covariance) + 0.25)


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


@pytest.mark.parametrize("y", [np.zeros(1), 0.0, np.zeros(4), np.zeros((1, 3))],
                         ids=["one", "scalar", "four", "row"])
def test_both_updates_reject_mismatched_observations(y):
    gt = builtin_chain("planar3")
    model = ChainObservationModel.from_chain(gt.params)
    x = gt.params.to_vector()
    q = np.zeros(gt.n_joints)
    with pytest.raises(ValueError, match="observation shape"):
        rls_update(EstimatorState(x, np.eye(x.size)), q, y, NoiseConfig(), model)
    with pytest.raises(ValueError, match="observation shape"):
        gradient_update(x, q, y, GradientConfig(learning_rate=0.05), model)


class TestPredictionError:
    def test_single_probe_is_residual_norm(self):
        model = ZeroModel(2)
        err = prediction_error(np.zeros(2), np.zeros((1, 1)), np.array([[3.0, 4.0, 0.0]]),
                               model)
        assert err == pytest.approx(5.0)

    def test_rms_over_probes(self):
        model = ZeroModel(2)
        targets = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
        err = prediction_error(np.zeros(2), np.array([[0.0], [1.0]]), targets, model)
        assert err == pytest.approx(np.sqrt((25.0 + 1.0) / 2.0))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            prediction_error(np.zeros(2), np.zeros((0, 1)), np.zeros((0, 3)), ZeroModel(2))

    @pytest.mark.parametrize("shape", [(1, 3), (5, 1)])
    def test_targets_must_match_predictions(self, shape):
        # numpy would broadcast these against the (5, 3) predictions
        chain = builtin_chain("planar3").params
        configs = np.random.default_rng(3).uniform(-1.0, 1.0, size=(5, 3))
        with pytest.raises(ValueError, match="do not match"):
            prediction_error(chain.to_vector(), configs, np.zeros(shape),
                             ChainObservationModel.from_chain(chain))

    @pytest.mark.parametrize("name", FIXTURE_NAMES + ("random",))
    def test_stack_matches_single_calls(self, name, perturbed_stack):
        rng = np.random.default_rng(89)
        if name == "random":
            twists = [Twist(rng.normal(size=3), rng.normal(size=3)) for _ in range(5)]
            chain = ChainParams(twists, Pose(np.eye(3), rng.normal(size=3)))
        else:
            chain = builtin_chain(name).params
        model = ChainObservationModel.from_chain(chain)
        x = chain.to_vector()
        configs = rng.uniform(-1.5, 1.5, size=(20, chain.n_joints))
        targets = model.predict_batch(x, configs) + rng.normal(scale=0.01, size=(20, 3))
        stack = perturbed_stack(rng, x)
        rms = prediction_error(stack, configs, targets, model)
        assert rms.shape == (len(stack),)
        for row, mean in enumerate(stack):
            single = prediction_error(mean, configs, targets, model)
            assert type(single) is float and single == rms[row]


class TestStateAndConfigs:
    def test_noise_config_validation(self):
        with pytest.raises(ValueError):
            NoiseConfig(obs_variance=-1.0)
        with pytest.raises(ValueError):
            NoiseConfig(stabilizing_variance=-1.0)

    def test_gradient_config_validation(self):
        with pytest.raises(ValueError):
            GradientConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientConfig(learning_rate=0.1, decay=-1.0)

    def test_state_shape_validation(self):
        with pytest.raises(ValueError):
            EstimatorState(np.zeros(3), np.eye(2))
        with pytest.raises(ValueError, match="1-D"):
            EstimatorState(np.zeros((1, 18)), np.eye(18))
        with pytest.raises(ValueError, match="1-D"):
            EstimatorState(np.float64(0.0), np.eye(1))
