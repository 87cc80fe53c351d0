"""Whole-package acceptance gates.

One test per gate, each finishing with a single printed PASS line that
carries its headline numbers (run pytest with -s to watch them live).
Gates 07 and 08 rerun the bundled strategy-comparison experiments and
dominate the suite's runtime; every other gate finishes in seconds.
"""

import math
import time
from dataclasses import replace

import numpy as np
from scipy.linalg import expm

from kincal.active import SelectionProblem, lookahead_cost, select_next
from kincal.cli import (config_from_dict, iterations_to_threshold, main,
                        run_experiment)
from kincal.direct import DirectConfig, minimize, potentially_optimal
from kincal.estimator import EstimatorState, NoiseConfig, rls_update
from kincal.kinematics import (ChainObservationModel, ChainParams, Pose, Twist,
                               observation_jacobian, observe, skew, twist_exp)
from kincal.sim import builtin_chain

ORIENTATION_THRESHOLD = 0.05


def _passline(gate: str, text: str) -> None:
    print(f"[{gate}] PASS  {text}")


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _random_chain(rng, n):
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(rot) < 0:
        rot[:, 0] *= -1
    twists = [Twist(_unit(rng.normal(size=3)), rng.normal(size=3)) for _ in range(n)]
    return ChainParams(twists, Pose(rot, rng.normal(size=3)))


# ---------------------------------------------------------------- gate 01

def test_01_twist_exponential_matches_matrix_exponential():
    rng = np.random.default_rng(11)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(1000):
        w = _unit(rng.normal(size=3))
        v = rng.normal(size=3)
        angle = rng.uniform(-2 * np.pi, 2 * np.pi)
        generator = np.zeros((4, 4))
        generator[:3, :3] = skew(w)
        generator[:3, 3] = v
        got = twist_exp(Twist(w, v), angle).matrix()
        worst = max(worst, float(np.abs(got - expm(generator * angle)).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"worst deviation {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _passline("01", f"1000 twists, worst |diff| {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------- gate 02

def test_02_analytic_jacobian_matches_finite_differences():
    rng = np.random.default_rng(23)
    step = 1e-6
    worst_ratio = 0.0
    for _ in range(100):
        params = _random_chain(rng, 6)
        q = rng.uniform(-np.pi, np.pi, 6)
        analytic = observation_jacobian(params, q)
        x = params.to_vector()
        fd = np.zeros_like(analytic)
        for j in range(x.size):
            hi, lo = x.copy(), x.copy()
            hi[j] += step
            lo[j] -= step
            fd[:, j] = (observe(ChainParams.from_vector(hi, params.zero_pose), q)
                        - observe(ChainParams.from_vector(lo, params.zero_pose), q)) / (2 * step)
        tol = np.maximum(1e-5 * np.abs(fd), 1e-8)
        excess = np.abs(analytic - fd) - tol
        worst_ratio = max(worst_ratio, float((np.abs(analytic - fd) / tol).max()))
        assert (excess <= 0).all(), f"worst tolerance excess {excess.max():.3e}"
    _passline("02", f"100 six-joint chains, worst |analytic - fd| / tol {worst_ratio:.2e}")


# ---------------------------------------------------------------- gate 03

class _SinusoidModel:
    """Small smooth nonlinear observation model with an exact Jacobian."""

    def __init__(self, rng, dim):
        self.a = rng.normal(size=dim)
        self.b = rng.normal(size=dim)
        self.c = rng.normal(size=dim)

    def predict(self, x, q):
        return np.array([math.sin(self.a @ x + q),
                         math.cos(self.b @ x - q),
                         math.tanh(self.c @ x)])

    def jacobian(self, x, q):
        return np.stack([math.cos(self.a @ x + q) * self.a,
                         -math.sin(self.b @ x - q) * self.b,
                         (1.0 - math.tanh(self.c @ x) ** 2) * self.c])


class _MatrixSequenceModel:
    """Linear model y = H[q] x with a per-step observation matrix."""

    def __init__(self, mats):
        self.mats = mats

    def predict(self, x, q):
        return self.mats[q] @ x

    def jacobian(self, x, q):
        return self.mats[q]


def test_03_recursive_updates_equal_batch_regularized_least_squares():
    rng = np.random.default_rng(37)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 13))
        steps = int(rng.integers(5, 51))
        obs_var = float(rng.uniform(1e-4, 1e-2))
        prior_var = float(rng.uniform(0.5, 2.0))
        x0 = rng.normal(size=dim)
        x_true = x0 + rng.normal(size=dim) * 0.3
        mats = rng.normal(size=(steps, 3, dim))
        ys = np.einsum("tij,j->ti", mats, x_true) \
            + rng.normal(size=(steps, 3)) * math.sqrt(obs_var)

        model = _MatrixSequenceModel(mats)
        noise = NoiseConfig(obs_variance=obs_var)
        state = EstimatorState(x0, prior_var * np.eye(dim))
        for t in range(steps):
            state = rls_update(state, t, ys[t], noise, model)

        info = np.eye(dim) / prior_var
        rhs = x0 / prior_var
        for t in range(steps):
            info += mats[t].T @ mats[t] / obs_var
            rhs += mats[t].T @ ys[t] / obs_var
        batch = np.linalg.solve(info, rhs)
        worst = max(worst, float(np.abs(state.mean - batch).max()))
        assert worst <= 1e-8, f"mean deviates from batch solve by {worst:.3e}"

    # long-haul conditioning: the covariance must stay symmetric PSD
    model = _SinusoidModel(rng, 6)
    noise = NoiseConfig(obs_variance=1e-4)
    x_true = rng.normal(size=6)
    state = EstimatorState(x_true + rng.normal(size=6) * 0.1, np.eye(6))
    for _ in range(10_000):
        q = float(rng.uniform(-3.0, 3.0))
        y = model.predict(x_true, q) + rng.normal(size=3) * 1e-2
        state = rls_update(state, q, y, noise, model)
    sym = state.symmetry_defect()
    low = state.min_eigenvalue()
    assert sym <= 1e-10, f"symmetry defect {sym:.3e}"
    assert low >= -1e-10, f"covariance eigenvalue {low:.3e}"
    _passline("03", f"batch match {worst:.2e}; after 1e4 updates "
                    f"symmetry {sym:.1e}, min eig {low:.1e}")


# ---------------------------------------------------------------- gate 04

_SPHERE_CENTER = np.array([0.3, 0.5, 0.7])


def _sphere(x):
    d = np.asarray(x) - _SPHERE_CENTER
    return float(d @ d)


def test_04_direct_beats_dense_grid_and_keeps_partition_invariant():
    cfg = DirectConfig(bounds=[(0.0, 1.0)] * 3, max_evaluations=500)

    volume_errors = []

    def check_partition(_iteration, rects, _selected):
        volume = sum(float(np.prod(r.side_lengths)) for r in rects)
        volume_errors.append(abs(volume - 1.0))
        centers = {tuple(np.round(r.center, 12)) for r in rects}
        assert len(centers) == len(rects), "duplicate cell centers"

    result = minimize(_sphere, cfg, on_iteration=check_partition)
    assert result.evaluations_used <= 500
    assert result.best_value < 1e-4, f"best value {result.best_value:.3e}"
    assert max(volume_errors) <= 1e-9, "cells stopped tiling the unit cube"

    axes = np.linspace(0.0, 1.0, 101)
    gx, gy, gz = np.meshgrid(axes, axes, axes, indexing="ij")
    grid_best = float(((gx - 0.3) ** 2 + (gy - 0.5) ** 2 + (gz - 0.7) ** 2).min())
    assert result.best_value <= grid_best + 1e-4, (
        f"{result.best_value:.3e} vs dense-grid {grid_best:.3e}")

    first = minimize(_sphere, cfg, collect_trace=True).trace
    second = minimize(_sphere, cfg, collect_trace=True).trace
    assert [(p.tolist(), v) for p, v in first] == [(p.tolist(), v) for p, v in second]

    _passline("04", f"best {result.best_value:.2e} in {result.evaluations_used} evals "
                    f"(grid oracle {grid_best:.2e}); partition exact; trace stable")


# ---------------------------------------------------------------- gate 05

def _bumpy(x):
    x = np.asarray(x)
    return (float((x[0] - 0.13) ** 2 + 2.0 * (x[1] - 0.55) ** 2)
            + 0.2 * math.sin(9.0 * x[0]) * math.sin(7.0 * x[1]) + 0.2)


def test_05_locally_biased_variant_selects_at_most_one_cell_per_class():
    checked = 0
    for f, dim in ((_sphere, 3), (_bumpy, 2)):
        snapshots = []

        def snap(_iteration, rects, selected):
            if selected:
                snapshots.append((list(rects), list(selected)))

        minimize(f, DirectConfig(bounds=[(0.0, 1.0)] * dim, max_evaluations=400),
                 on_iteration=snap)
        for rects, plain_selected in snapshots:
            f_min = min(r.value for r in rects)
            replayed = potentially_optimal(rects, f_min, 1e-4, "direct")
            assert replayed == plain_selected
            frugal = potentially_optimal(rects, f_min, 1e-4, "direct_l")
            assert len(frugal) <= len(plain_selected), (len(frugal), len(plain_selected))
            classes = [rects[i].measure_class() for i in frugal]
            assert len(set(classes)) == len(classes), "two cells share a measure class"
            checked += 1
    _passline("05", f"{checked} selection sweeps: frugal variant never exceeds "
                    f"the plain one, one cell per class")


# ---------------------------------------------------------------- gate 06

def test_06_lookahead_cost_equals_information_form_trace():
    rng = np.random.default_rng(53)
    worst = 0.0
    for _ in range(100):
        params = _random_chain(rng, 3)
        model = ChainObservationModel.from_chain(params)
        dim = 18
        basis = rng.normal(size=(dim, dim))
        cov = basis @ basis.T / dim + 0.1 * np.eye(dim)
        mean = params.to_vector() + rng.normal(size=dim) * 0.05
        obs_var = float(rng.uniform(1e-6, 1e-2))
        state = EstimatorState(mean, cov)
        noise = NoiseConfig(obs_variance=obs_var)
        q = rng.uniform(-np.pi, np.pi, 3)

        problem = SelectionProblem(state, model, noise, [(-np.pi, np.pi)] * 3)
        cost = lookahead_cost(problem, q)

        jac = model.jacobian(mean, q)
        info = np.linalg.inv(cov) + jac.T @ jac / obs_var
        oracle = float(np.trace(np.linalg.inv(info)))
        worst = max(worst, abs(cost - oracle))
        assert worst <= 1e-8, f"lookahead deviates from information form by {worst:.3e}"
    _passline("06", f"100 random states, worst |cost - oracle| {worst:.2e}")


# ------------------------------------------------------- experiment presets

def _centered_box(chain: str, width: float):
    truth = builtin_chain(chain).params.to_vector()
    return np.stack([truth - width, truth + width], axis=1).tolist()


def _comparison_config(chain, strategy, width, iterations, n_seeds,
                       matched_prior, learning_rate=None):
    """Strategy-comparison presets.

    Both strategies in a comparison share every knob except the
    selection rule. Initial guesses are drawn from a hypercube centered
    on the true parameters (recovery is only expected from a bounded
    initial error); the arm presets match the prior variance to the box
    spread (width^2 / 3) while the planar preset keeps the diffuse
    default prior.
    """
    doc = {
        "chain": chain,
        "strategy": strategy,
        "iterations": iterations,
        "seeds": list(range(n_seeds)),
        "noise": {"obs_variance": 1e-4, "stabilizing_variance": 1e-3},
        "probe_set_size": 20,
        "init_hypercube": _centered_box(chain, width),
        "joint_limits": 3.14,
    }
    if matched_prior:
        doc["init_variance"] = round(width * width / 3.0, 4)
    if strategy == "active_rls":
        doc["optimizer"] = {"max_evaluations": 30, "variant": "direct_l"}
    if learning_rate is not None:
        doc["gradient"] = {"learning_rate": learning_rate, "decay": 0.0}
    return config_from_dict(doc)


def _median_iterations(cfg):
    records = run_experiment(cfg)
    hits = iterations_to_threshold(records, "orientation_error",
                                   ORIENTATION_THRESHOLD)
    values = list(hits.values())
    assert len(values) == len(cfg.seeds), "a seed failed outright"
    return float(np.median(values))


# ---------------------------------------------------------------- gate 07

def test_07_active_selection_beats_random_sampling():
    start = time.perf_counter()
    planar_random = _median_iterations(
        _comparison_config("planar3", "random_rls", 0.3, 300, 20, False))
    planar_active = _median_iterations(
        _comparison_config("planar3", "active_rls", 0.3, 300, 20, False))
    arm_random = _median_iterations(
        _comparison_config("arm6", "random_rls", 0.2, 500, 10, True))
    arm_active = _median_iterations(
        _comparison_config("arm6", "active_rls", 0.2, 500, 10, True))
    elapsed = time.perf_counter() - start

    assert planar_active < planar_random, (planar_active, planar_random)
    assert planar_active <= 0.5 * planar_random, (planar_active, planar_random)
    assert arm_active < arm_random, (arm_active, arm_random)
    _passline("07", f"planar3 medians {planar_active:g} vs {planar_random:g} "
                    f"(ratio {planar_active / planar_random:.2f}); "
                    f"arm6 {arm_active:g} vs {arm_random:g}; {elapsed:.0f}s")


# ---------------------------------------------------------------- gate 08

def test_08_recursive_estimator_beats_gradient_baseline():
    rls = _median_iterations(
        _comparison_config("arm12", "random_rls", 0.2, 1000, 5, True))
    grad = _median_iterations(
        _comparison_config("arm12", "random_gradient", 0.2, 1000, 5, True,
                           learning_rate=0.05))
    assert rls < grad, (rls, grad)
    note = "censored at the horizon" if math.isinf(grad) else f"{grad:g}"
    _passline("08", f"arm12 medians: recursive {rls:g} vs gradient {note}")


# ---------------------------------------------------------------- gate 09

def test_09_selection_stays_within_evaluation_budget():
    gt = builtin_chain("arm12")
    rng = np.random.default_rng(71)
    truth = gt.params.to_vector()
    state = EstimatorState(truth + rng.uniform(-0.2, 0.2, truth.size),
                           0.0133 * np.eye(truth.size))
    problem = SelectionProblem(
        state, ChainObservationModel.from_chain(gt.params),
        NoiseConfig(obs_variance=1e-4, stabilizing_variance=1e-3),
        gt.joint_limits,
        optimizer=DirectConfig(max_evaluations=200, variant="direct_l"))
    result = select_next(problem)
    assert result.evaluations <= 200, result.evaluations

    calls = []

    def counted(q):
        calls.append(1)
        return lookahead_cost(problem, q)

    recount = minimize(counted, replace(problem.optimizer, bounds=gt.joint_limits))
    assert len(calls) == recount.evaluations_used == result.evaluations
    _passline("09", f"{result.evaluations} candidate evaluations (budget 200), "
                    f"selection took {result.duration:.3f}s wall clock")


# ---------------------------------------------------------------- gate 10

def test_10_identical_configs_reproduce_byte_identical_records(tmp_path):
    import json

    for name, doc in (
        ("passive", {"chain": "planar3", "strategy": "random_rls",
                     "iterations": 30, "seeds": [0, 1],
                     "noise": {"obs_variance": 1e-4, "stabilizing_variance": 1e-3},
                     "probe_set_size": 10}),
        ("active", {"chain": "planar3", "strategy": "active_rls",
                    "iterations": 6, "seeds": [0],
                    "noise": {"obs_variance": 1e-4, "stabilizing_variance": 1e-3},
                    "probe_set_size": 10,
                    "optimizer": {"max_evaluations": 15, "variant": "direct_l"}}),
    ):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(doc))
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}-{run}.jsonl"
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
            outs.append(out)
        first, second = outs
        assert first.read_bytes() == second.read_bytes(), f"{name} records differ"
        assert (first.with_suffix(".csv").read_bytes()
                == second.with_suffix(".csv").read_bytes()), f"{name} csv differs"
    _passline("10", "record and csv files byte-identical across re-runs")
