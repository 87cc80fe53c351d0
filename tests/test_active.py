from dataclasses import replace

import numpy as np
import pytest

from kincal import active, direct, kinematics
from kincal.active import (SelectionProblem, lookahead_cost, lookahead_costs, select_lockstep,
                           select_next)
from kincal.direct import DirectConfig
from kincal.estimator import (DegenerateUpdateError, EstimatorState, NoiseConfig,
                              apply_stabilizing_noise, rls_update)
from kincal.fov import FovConfig
from kincal.kinematics import (ChainObservationModel, ChainParams, Pose, Twist,
                               rotation_exp)
from kincal.sim import builtin_chain


class LinearModel:
    """h(x, q) = rows @ x with a caller-chosen jacobian. Given several
    observation matrices, q[0] picks one, so one batch can mix kinds of
    candidates."""

    def __init__(self, *rows):
        self.rows = np.array([np.atleast_2d(r) for r in rows], dtype=float)

    def predict(self, x, q):
        return self.jacobian(x, q) @ np.asarray(x, dtype=float)

    def jacobian(self, x, q):
        return self.rows[int(q[0])]

    def terms(self, means):
        return means

    def linearize(self, means, configs, index):
        rows = self.rows[np.asarray(configs)[:, 0].astype(int)]
        return (rows @ np.asarray(means, dtype=float)[index][..., None])[..., 0], rows


def costs_of(problem, configs):
    """lookahead_costs of a block of one problem's candidates."""
    return lookahead_costs(problem, configs, 0)[0]


def joseph_trace(problem, q):
    """Reference cost: trace of the full rls_update at a zero innovation."""
    state, model = problem.state, problem.model
    updated = rls_update(state, q, model.predict(state.mean, q), problem.noise, model)
    return float(np.trace(updated.covariance))


def random_chain(rng, n_joints):
    joints = []
    for _ in range(n_joints):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        joints.append(Twist(axis, rng.normal(size=3)))
    zero = Pose(rotation_exp(rng.normal(size=3)), rng.normal(size=3))
    return ChainParams(joints, zero)


def random_spd(rng, n, floor=0.1):
    a = rng.normal(size=(n, n))
    return a @ a.T / n + floor * np.eye(n)


def chain_problem(seed, n_joints=3, budget=100, fov=None):
    rng = np.random.default_rng(seed)
    chain = random_chain(rng, n_joints)
    mean = chain.to_vector() + 0.05 * rng.normal(size=6 * n_joints)
    state = EstimatorState(mean, random_spd(rng, 6 * n_joints))
    limits = np.array([[-1.0, 1.0]] * n_joints)
    return SelectionProblem(state, ChainObservationModel.from_chain(chain),
                            NoiseConfig(obs_variance=1e-2), limits, fov=fov,
                            optimizer=DirectConfig(max_evaluations=budget)), rng


class TestLookaheadCost:
    def test_uninformative_row_leaves_inflated_prior(self):
        state = EstimatorState(np.zeros(3), np.diag([1.0, 2.0, 3.0]))
        noise = NoiseConfig(obs_variance=1.0, stabilizing_variance=0.25)
        state = apply_stabilizing_noise(state, noise)
        problem = SelectionProblem(state, LinearModel(np.zeros((1, 3))), noise,
                                   [[-1.0, 1.0]])
        cost = lookahead_cost(problem, np.zeros(1))
        assert cost == pytest.approx(6.0 + 3 * 0.25, abs=1e-12)

    def test_scalar_kalman_arithmetic(self):
        state = EstimatorState(np.zeros(1), np.eye(1))
        problem = SelectionProblem(state, LinearModel([[1.0]]),
                                   NoiseConfig(obs_variance=1.0), [[-1.0, 1.0]])
        assert lookahead_cost(problem, np.zeros(1)) == pytest.approx(0.5, abs=1e-12)

        # on a prior inflated by s the posterior variance is (1+s)/(2+s)
        problem.state = apply_stabilizing_noise(state, NoiseConfig(stabilizing_variance=0.5))
        assert lookahead_cost(problem, np.zeros(1)) == pytest.approx(0.6, abs=1e-12)

    def test_matches_information_form(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            problem, _ = chain_problem(int(rng.integers(1 << 30)))
            q = rng.uniform(-1.0, 1.0, size=3)
            cost = lookahead_cost(problem, q)

            p = problem.state.covariance
            h = problem.model.jacobian(problem.state.mean, q)
            info = np.linalg.inv(p) + h.T @ h / problem.noise.obs_variance
            oracle = float(np.trace(np.linalg.inv(info)))
            assert cost == pytest.approx(oracle, abs=1e-8)

    def test_out_of_view_candidate_pays_double_prior(self):
        fov = FovConfig(camera_position=[100.0, 0.0, 0.0], axis=[1.0, 0.0, 0.0],
                        half_angle=1e-3)
        problem, _ = chain_problem(7, fov=fov)
        prior = float(np.trace(problem.state.covariance))
        assert lookahead_cost(problem, np.zeros(3)) == pytest.approx(2 * prior)

    def test_degenerate_update_pays_double_prior(self):
        state = EstimatorState(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
        row = np.array([[1.0, -1.0]]) / np.sqrt(2.0)
        problem = SelectionProblem(state, LinearModel(row),
                                   NoiseConfig(obs_variance=0.0),
                                   [[-1.0, 1.0], [-1.0, 1.0]])
        assert lookahead_cost(problem, np.zeros(2)) == pytest.approx(4.0)

    def test_visible_candidate_beats_blocked_one(self):
        fov = FovConfig(camera_position=[0.0, 0.0, -5.0], axis=[0.0, 0.0, 1.0],
                        half_angle=np.pi / 2)
        problem, rng = chain_problem(11, fov=fov)
        costs = [lookahead_cost(problem, rng.uniform(-1, 1, size=3))
                 for _ in range(50)]
        prior = float(np.trace(problem.state.covariance))
        visible = [c for c in costs if c < 2 * prior]
        assert visible and max(visible) < 2 * prior


class TestLookaheadCosts:
    @pytest.mark.parametrize("chain", ["planar3", "arm6", "arm12"])
    @pytest.mark.parametrize("inflation", [0.0, 0.05])
    def test_matches_joseph_update(self, chain, inflation):
        gt = builtin_chain(chain)
        model = ChainObservationModel.from_chain(gt.params)
        truth = gt.params.to_vector()
        rng = np.random.default_rng(97)
        lo, hi = gt.joint_limits[:, 0], gt.joint_limits[:, 1]
        for _ in range(4):
            state = EstimatorState(truth + 0.1 * rng.normal(size=truth.size),
                                   random_spd(rng, truth.size))
            noise = NoiseConfig(obs_variance=float(rng.uniform(1e-6, 1e-2)),
                                stabilizing_variance=inflation)
            state = apply_stabilizing_noise(state, noise)
            problem = SelectionProblem(state, model, noise, gt.joint_limits)
            configs = rng.uniform(lo, hi, size=(7, gt.n_joints))
            costs = costs_of(problem, configs)
            assert costs.shape == (7,)
            for q, cost in zip(configs, costs):
                assert abs(cost - joseph_trace(problem, q)) <= 1e-10
                assert cost == lookahead_cost(problem, q)

    @pytest.mark.parametrize("inflation", [0.0, 0.5])
    @pytest.mark.parametrize("obs_variance", [0.1, 0.0])
    def test_mixed_batch_penalizes_only_bad_candidates(self, inflation, obs_variance):
        # P is indefinite: rows along u = (1, 1, 0)/sqrt2 and e3 see a
        # positive S, a row along (1, -1, 0)/sqrt2 a negative one. With no
        # measurement noise the visible S are singular (parallel rows), so
        # they are bad candidates too.
        cov = (np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
               + inflation * np.eye(3))
        u = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        w = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        e3 = np.array([0.0, 0.0, 1.0])
        rows = [np.stack([u, u, e3]),          # visible
                np.stack([u, u, -e3]),         # predicts (0, 0, -1): out of view
                np.stack([w, w, e3]),          # visible, S not SPD
                np.stack([0.5 * u, u, e3])]    # visible
        problem = SelectionProblem(
            EstimatorState(e3, cov), LinearModel(*rows),
            NoiseConfig(obs_variance=obs_variance),
            [[0.0, 3.0]],
            fov=FovConfig(camera_position=[0.0, 0.0, 0.0], axis=e3, half_angle=np.pi / 4))
        configs = np.array([[0.0], [1.0], [2.0], [3.0], [0.0]])
        costs = costs_of(problem, configs)

        penalty = 2 * np.trace(cov)
        singular = [] if obs_variance else [0, 3, 4]
        for i in [2] + singular:
            with pytest.raises(DegenerateUpdateError):
                joseph_trace(problem, configs[i])
        for i in range(5):
            if i in [1, 2] + singular:
                assert costs[i] == penalty
            else:
                assert costs[i] < penalty
                assert abs(costs[i] - joseph_trace(problem, configs[i])) <= 1e-10
        assert costs[4] == costs[0]


class TestSelectNext:
    def test_agrees_with_dense_grid_on_one_joint(self):
        problem, _ = chain_problem(3, n_joints=1, budget=200)
        problem.joint_limits = np.array([[-0.2, 1.0]])

        grid = np.linspace(-0.2, 1.0, 1201)
        costs = [lookahead_cost(problem, np.array([g])) for g in grid]
        best = int(np.argmin(costs))

        result = select_next(problem)
        assert abs(result.config[0] - grid[best]) < 0.05
        assert result.cost <= costs[best] + 1e-3

    def test_beats_random_sampling(self):
        wins = 0
        for seed in range(10):
            problem, rng = chain_problem(seed)
            result = select_next(problem)
            rand_best = min(lookahead_cost(problem, rng.uniform(-1, 1, size=3))
                            for _ in range(300))
            wins += result.cost <= rand_best
        assert wins >= 9

    def test_respects_joint_limits_and_budget(self):
        problem, _ = chain_problem(29, budget=30)
        problem.joint_limits = np.array([[0.1, 0.4], [-0.3, -0.1], [2.0, 2.5]])
        result = select_next(problem)
        lo, hi = problem.joint_limits[:, 0], problem.joint_limits[:, 1]
        assert (result.config >= lo).all() and (result.config <= hi).all()
        assert 0 < result.evaluations <= 30
        assert result.duration >= 0.0

    def test_blind_problem_returns_center(self):
        fov = FovConfig(camera_position=[1e6, 0.0, 0.0], axis=[1.0, 0.0, 0.0],
                        half_angle=1e-6)
        problem, _ = chain_problem(5, fov=fov, budget=40)
        problem.joint_limits = np.array([[-0.4, 0.8], [0.0, 1.0], [-1.0, -0.5]])
        result = select_next(problem)
        np.testing.assert_allclose(result.config, [0.2, 0.5, -0.75])
        prior = float(np.trace(problem.state.covariance))
        assert result.cost == pytest.approx(2 * prior)

    @pytest.mark.parametrize("chain, fov", [
        ("arm6", None),
        ("planar3", FovConfig(camera_position=[0.35, 0.0, 1.0], axis=[0.0, 0.0, -1.0],
                              half_angle=0.5)),
    ])
    def test_one_lookahead_call_per_sweep(self, monkeypatch, chain, fov):
        # the box center needs no call of its own: it rides in the first
        # sweep's, so a 30-evaluation selection makes one call per sweep
        gt = builtin_chain(chain)
        dim = 6 * gt.n_joints
        rng = np.random.default_rng(13)
        state = EstimatorState(gt.params.to_vector() + 0.1 * rng.normal(size=dim),
                               0.01 * np.eye(dim))
        limits = np.array([[-3.14, 3.14]] * gt.n_joints)
        problem = SelectionProblem(state, ChainObservationModel.from_chain(gt.params),
                                   NoiseConfig(), limits, fov=fov,
                                   optimizer=DirectConfig(max_evaluations=30,
                                                          variant="direct_l"))
        calls, sweeps = [], []
        costs, run = active.lookahead_costs, direct.sweeps

        def counted(problem, configs, index, beliefs):
            calls.append(np.array(configs))
            return costs(problem, configs, index, beliefs)

        def on_iteration(_, rects, selected):
            if selected:
                sweeps.append(sum(2 * int((rects[i].depth == rects[i].depth.min()).sum())
                                  for i in selected))

        monkeypatch.setattr(active, "lookahead_costs", counted)
        monkeypatch.setattr(direct, "sweeps", lambda cfg: run(cfg, on_iteration))
        result = select_next(problem)
        assert len(calls) == len(sweeps) > 1
        np.testing.assert_array_equal(calls[0][0], limits.mean(axis=1))
        sizes = [len(c) for c in calls]
        assert sizes[0] == 1 + sweeps[0] and sizes[1:-1] == sweeps[1:-1]
        assert sizes[-1] <= sweeps[-1]
        assert sum(sizes) == result.evaluations == 30

    def test_limit_validation(self):
        state = EstimatorState(np.zeros(1), np.eye(1))
        with pytest.raises(ValueError):
            SelectionProblem(state, LinearModel([[1.0]]), NoiseConfig(),
                             np.zeros(3))
        with pytest.raises(ValueError):
            SelectionProblem(state, LinearModel([[1.0]]), NoiseConfig(),
                             [[1.0, -1.0]])
        # a pinned joint leaves DIRECT no box to search: refused here, not
        # later inside select_next
        problem, _ = chain_problem(2)
        with pytest.raises(ValueError, match="low < high"):
            SelectionProblem(problem.state, problem.model, problem.noise,
                             [[0.0, 0.0], [-1.0, 1.0], [-1.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            SelectionProblem(problem.state, problem.model, problem.noise,
                             [[-np.inf, 1.0], [-1.0, 1.0], [-1.0, 1.0]])

    def test_rejects_optimizer_bounds(self):
        state = EstimatorState(np.zeros(1), np.eye(1))
        optimizer = DirectConfig(bounds=[(-1.0, 1.0)], max_evaluations=10)
        with pytest.raises(ValueError, match="optimizer.bounds"):
            SelectionProblem(state, LinearModel([[1.0]]), NoiseConfig(), [[-0.5, 0.5]],
                             optimizer=optimizer)


PLANAR3_CONE = FovConfig(camera_position=[0.35, 0.0, 1.0], axis=[0.0, 0.0, -1.0],
                         half_angle=0.5)
BLIND_CONE = FovConfig(camera_position=[1e6, 0.0, 0.0], axis=[1.0, 0.0, 0.0],
                       half_angle=1e-6)


class TestHandoff:
    """select_next hands the chosen candidate's innovation row to
    rls_update, which then makes no kernel or Kalman-terms call."""

    @pytest.mark.parametrize("chain, fov", [("arm6", None), ("planar3", PLANAR3_CONE),
                                            ("planar3", BLIND_CONE)])
    def test_update_from_the_chosen_row_matches_a_fresh_update(self, chain, fov):
        gt = builtin_chain(chain)
        model = ChainObservationModel.from_chain(gt.params)
        truth = gt.params.to_vector()
        rng = np.random.default_rng(23)
        noise = NoiseConfig(obs_variance=1e-4)
        state = EstimatorState(truth + 0.1 * rng.normal(size=truth.size),
                               0.01 * np.eye(truth.size))
        limits = np.array([[-3.14, 3.14]] * gt.n_joints)
        out_of_view = 0
        for _ in range(6):
            problem = SelectionProblem(state, model, noise, limits, fov=fov,
                                       optimizer=DirectConfig(max_evaluations=30,
                                                              variant="direct_l"))
            chosen = select_next(problem)
            q, row = chosen.config, chosen.innovation
            assert q.base is None and all(a.base is None for a in row)
            _, own_row = lookahead_costs(problem, q[None], 0)
            for kept, own in zip(row, own_row):
                np.testing.assert_array_equal(kept, own)
            out_of_view += fov is not None and not fov.contains(row.predicted[0])

            y = gt.positions(q[None])[0] + 0.01 * rng.normal(size=3)
            handed = rls_update(state, q, y, noise, model, row)
            fresh = rls_update(state, q, y, noise, model)
            np.testing.assert_array_equal(handed.mean, fresh.mean)
            np.testing.assert_array_equal(handed.covariance, fresh.covariance)
            state = handed
        if fov is BLIND_CONE:
            assert out_of_view == 6

    def test_degenerate_chosen_row_raises_as_before(self):
        # every candidate is degenerate: under an indefinite P, and under
        # an SPD P with a repeated row and no noise, which makes S singular
        for cov, rows in ((np.array([[1.0, 2.0], [2.0, 1.0]]),
                           np.array([[1.0, -1.0]]) / np.sqrt(2.0)),
                          (np.array([[2.0, 0.5], [0.5, 1.0]]),
                           np.array([[1.0, 0.0], [1.0, 0.0]]))):
            state = EstimatorState(np.zeros(2), cov)
            problem = SelectionProblem(state, LinearModel(rows), NoiseConfig(obs_variance=0.0),
                                       [[-1.0, 1.0], [-1.0, 1.0]],
                                       optimizer=DirectConfig(max_evaluations=10))
            chosen = select_next(problem)
            assert not chosen.innovation.ok[0]
            assert chosen.cost == 2 * np.trace(cov)
            y = np.zeros(len(rows))
            with pytest.raises(DegenerateUpdateError) as handed:
                rls_update(state, chosen.config, y, problem.noise, problem.model,
                           chosen.innovation)
            with pytest.raises(DegenerateUpdateError) as fresh:
                rls_update(state, chosen.config, y, problem.noise, problem.model)
            assert str(handed.value) == str(fresh.value)

    def test_chosen_row_is_the_first_minimum_of_the_trace(self, monkeypatch):
        # every q[0] < 1 sees the second parameter, the best row, so many
        # candidates share the best cost after the center (q[0] = 1.45):
        # the row is the first's, the one DIRECT reports
        e1, e2 = np.eye(3)[:1], np.eye(3)[1:2]
        problem = SelectionProblem(EstimatorState(np.zeros(3), np.diag([1.0, 2.0, 3.0])),
                                   LinearModel(e2, e1, e1), NoiseConfig(obs_variance=1.0),
                                   [[0.0, 2.9]], optimizer=DirectConfig(max_evaluations=20))
        traces = []
        result_of = direct.result_of

        def traced(trace):
            traces.append(trace)
            return result_of(trace)

        monkeypatch.setattr(direct, "result_of", traced)
        chosen = select_next(problem)
        values = [value for _, value in traces[0]]
        first = values.index(min(values))
        assert first > 0 and values.count(min(values)) > 1
        np.testing.assert_array_equal(chosen.config, traces[0][first][0])
        np.testing.assert_array_equal(chosen.innovation.jacobian, e2[None])


def assert_same_selection(got, alone):
    """Two SelectionResults agree bit for bit on all but duration."""
    assert got.config.tobytes() == alone.config.tobytes()
    assert got.cost == alone.cost and got.evaluations == alone.evaluations
    for field, a, b in zip(got.innovation._fields, got.innovation, alone.innovation):
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field


def lockstep_beliefs(chain, fov, variant, budget, count=4):
    """(problem, states): a selection setting on one chain and count
    beliefs to select for; the last one's covariance is negative definite,
    so every S it scores fails the Cholesky gate. The box is off center:
    at q = 0 every Jacobian is zero and S = R."""
    gt = builtin_chain(chain)
    truth = gt.params.to_vector()
    rng = np.random.default_rng(len(truth) + budget)
    model = ChainObservationModel.from_chain(gt.params)
    noise = NoiseConfig(obs_variance=1e-4, stabilizing_variance=1e-3)
    optimizer = DirectConfig(max_evaluations=budget, variant=variant)
    limits = np.array([[-3.14, 2.5]] * gt.n_joints)
    states = []
    for k in range(count):
        cov = float(rng.uniform(0.005, 0.05)) * random_spd(rng, truth.size)
        states.append(EstimatorState(truth + 0.1 * rng.normal(size=truth.size),
                                     -cov if k == count - 1 else cov))
    return SelectionProblem(states[0], model, noise, limits, fov=fov,
                            optimizer=optimizer), states


class TestLockstep:
    """select_lockstep gives each belief its lone select_next result, bit
    for bit, with one lookahead_costs call per step across the beliefs."""

    @pytest.mark.parametrize("budget_of", [lambda dim: 1, lambda dim: 2 * dim,
                                           lambda dim: 1 + 2 * dim, lambda dim: 30],
                             ids=["1", "2dim", "1+2dim", "30"])
    @pytest.mark.parametrize("variant", direct.VARIANTS)
    @pytest.mark.parametrize("chain, fov", [("planar3", None), ("planar3", PLANAR3_CONE),
                                            ("arm6", None), ("arm12", None)])
    def test_each_problem_gets_its_lone_result(self, monkeypatch, chain, fov, variant,
                                               budget_of):
        problem, states = lockstep_beliefs(chain, fov, variant,
                                           budget_of(builtin_chain(chain).n_joints))
        calls = []
        costs = active.lookahead_costs

        def counted(problem, configs, index, beliefs):
            rows = np.broadcast_to(index, len(configs))
            calls.append(np.bincount(rows, minlength=len(states)))
            return costs(problem, configs, index, beliefs)

        monkeypatch.setattr(active, "lookahead_costs", counted)
        together = select_lockstep(problem, states)
        steps, lone_steps = calls[:], []
        for state, got in zip(states, together):
            del calls[:]
            assert_same_selection(got, select_next(replace(problem, state=state)))
            assert got.duration >= 0.0
            lone_steps.append(len(calls))
        assert not together[-1].innovation.ok[0]
        # a step per sweep of the longest run, each candidate scored once
        assert len(steps) == max(lone_steps)
        assert np.sum(steps, axis=0).tolist() == [r.evaluations for r in together]

    def test_one_call_builds_its_stack_terms_once(self, monkeypatch):
        # every step of a lockstep call linearizes about the same stack of
        # means, so the call builds that stack's kernel terms once
        problem, states = lockstep_beliefs("planar3", None, "direct_l", 30)
        stack = np.stack([state.mean for state in states])
        built, steps = [], []
        twist_terms, costs = kinematics._twist_terms, active.lookahead_costs

        def counted_terms(*args):
            built.append(np.array(args[0], dtype=float))
            return twist_terms(*args)

        def counted_costs(*args):
            steps.append(len(args[1]))
            return costs(*args)

        monkeypatch.setattr(kinematics, "_twist_terms", counted_terms)
        monkeypatch.setattr(active, "lookahead_costs", counted_costs)
        select_lockstep(problem, states)
        assert len(steps) > 1
        assert [x.tobytes() for x in built] == [stack.tobytes()]

    def test_no_problems_no_results(self):
        problem, _ = lockstep_beliefs("planar3", None, "direct_l", 30, count=1)
        assert select_lockstep(problem, []) == []
