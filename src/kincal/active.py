"""A-optimal selection of the next measurement configuration.

The value of probing a configuration is the trace of the covariance
that a measurement there would leave. Only the covariance changes, so
no update is run: with H the observation Jacobian at the current mean,
the posterior trace is the closed form
    tr(P) - sum((H P) * S^-1 (H P)),    S = H P H^T + R,
whose terms come from estimator.kalman_terms, the innovation algebra
rls_update applies: a Cholesky factorization gates S, then S is
inverted. Each DIRECT sweep lists its candidates first, so a whole
sweep is scored in one call: one kernel call for the predicted points
and Jacobians, then one stacked Kalman-terms call over every candidate.
A candidate costs 2 tr(P) when its predicted observation falls outside
the field of view, when its S fails the innovation solve (not finite,
or no Cholesky factor, as for a numerically singular S), or when its
result is not finite. So visible candidates always win when any exist.
Visibility decides only the cost: every candidate has its innovation
row. select_next keeps every sweep's rows and hands the chosen one's,
found by its trace index, to the update, which then runs with no
kernel or Kalman-terms call of its own.

Models provide linearize(x, configs), returning predicted points (k, m)
and Jacobians (k, m, d) for a (k, n) block of configurations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import direct
# rls_update is unused here; the benchmark's --trace 1 mode looks it up on this module
from .estimator import (EstimatorState, Innovation, NoiseConfig, kalman_terms,  # noqa: F401
                        rls_update)
from .fov import FovConfig


@dataclass
class SelectionProblem:
    """Everything lookahead needs: belief, model, noise, and the search box.

    The search box is joint_limits, so optimizer must leave bounds unset.
    """

    state: EstimatorState
    model: object
    noise: NoiseConfig
    joint_limits: np.ndarray
    fov: FovConfig = None
    optimizer: direct.DirectConfig = None

    def __post_init__(self):
        self.joint_limits = np.asarray(self.joint_limits, dtype=float)
        if self.joint_limits.ndim != 2 or self.joint_limits.shape[1] != 2:
            raise ValueError("joint_limits must be (n, 2) low/high pairs")
        # DIRECT searches an open box: a pinned joint (low == high) has none
        if not (np.isfinite(self.joint_limits).all()
                and (self.joint_limits[:, 0] < self.joint_limits[:, 1]).all()):
            raise ValueError("joint limits need finite low < high")
        if self.optimizer is None:
            self.optimizer = direct.DirectConfig()
        elif self.optimizer.bounds is not None:
            raise ValueError("optimizer.bounds must be unset; the search box is joint_limits")


@dataclass
class SelectionResult:
    """The chosen configuration and its cost; innovation is its one-entry
    Innovation row, copied out of its sweep, for rls_update."""

    config: np.ndarray
    cost: float
    evaluations: int
    duration: float
    innovation: Innovation


def lookahead_costs(problem: SelectionProblem, configs, rows: list = None) -> np.ndarray:
    """Posterior covariance traces (k,) for a (k, n) block of candidates.

    Visibility is judged on the point predicted from the current mean,
    not the unknown truth. Invisible candidates, candidates whose S fails
    the innovation solve, and non-finite results cost 2 tr(P). rows, if
    a list, gets the block's Innovation appended.
    """
    configs = np.asarray(configs, dtype=float)
    cov = problem.state.covariance
    prior_trace = float(np.trace(cov))

    predicted, jac = problem.model.linearize(problem.state.mean, configs)
    hp, solved, ok = kalman_terms(cov, jac, problem.noise.obs_variance)
    with np.errstate(over="ignore", invalid="ignore"):
        posterior = prior_trace - np.einsum("kij,kij->k", hp, solved)
    keep = ok & np.isfinite(posterior)
    if problem.fov is not None:
        keep &= problem.fov.contains_points(predicted)
    if rows is not None:
        rows.append(Innovation(predicted, jac, hp, solved, ok))
    return np.where(keep, posterior, prior_trace + prior_trace)


def lookahead_cost(problem: SelectionProblem, q) -> float:
    """Trace of the covariance after a hypothetical measurement at q: the
    one-candidate view of lookahead_costs."""
    return float(lookahead_costs(problem, np.asarray(q, dtype=float)[None])[0])


def select_next(problem: SelectionProblem) -> SelectionResult:
    """Minimize lookahead cost over the joint-limit box, scoring each
    DIRECT sweep in one lookahead_costs call. The result carries the
    chosen candidate's innovation row, taken from the sweeps' stacked
    rows by its trace index."""
    cfg = replace(problem.optimizer, bounds=problem.joint_limits)
    rows = []
    start = time.perf_counter()
    result = direct.minimize_batch(lambda configs: lookahead_costs(problem, configs, rows), cfg)
    duration = time.perf_counter() - start
    stacked = Innovation(*map(np.concatenate, zip(*rows)))
    return SelectionResult(config=result.best_point.copy(), cost=result.best_value,
                           evaluations=result.evaluations_used, duration=duration,
                           innovation=stacked.row(result.best_index))
