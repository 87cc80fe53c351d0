"""A-optimal selection of the next measurement configuration.

The value of probing a configuration is judged by simulating the
estimator update that would follow: predict the observation from the
current mean, feed it back as if measured (zero innovation, so only the
covariance changes), and score the trace of the posterior covariance.
Configurations whose predicted observation falls outside the field of
view get the prior trace plus an equal penalty, so visible candidates
always win when any exist. The DIRECT optimizer searches the joint-limit
box for the lowest lookahead cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import direct
from .estimator import DegenerateUpdateError, EstimatorState, NoiseConfig, rls_update
from .fov import FovConfig


@dataclass
class SelectionProblem:
    """Everything lookahead needs: belief, model, noise, and the search box.

    optimizer.bounds is ignored; the search box is always joint_limits.
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
        if not (self.joint_limits[:, 0] <= self.joint_limits[:, 1]).all():
            raise ValueError("joint limits need low <= high")
        if self.optimizer is None:
            self.optimizer = direct.DirectConfig(max_evaluations=100)


@dataclass
class SelectionResult:
    config: np.ndarray
    cost: float
    evaluations: int
    duration: float


def lookahead_cost(problem: SelectionProblem, q) -> float:
    """Trace of the covariance after a hypothetical measurement at q.

    The predicted observation is checked against the field of view with
    the current mean, not the unknown truth; invisible or degenerate
    candidates cost trace(P) plus a penalty of the same size.
    """
    prior_trace = float(np.trace(problem.state.covariance))
    predicted = problem.model.predict(problem.state.mean, q)
    if problem.fov is not None and not problem.fov.contains(predicted):
        return prior_trace + prior_trace
    try:
        updated = rls_update(problem.state, q, predicted, problem.noise, problem.model)
    except DegenerateUpdateError:
        return prior_trace + prior_trace
    return float(np.trace(updated.covariance))


def select_next(problem: SelectionProblem) -> SelectionResult:
    """Minimize lookahead cost over the joint-limit box."""
    cfg = replace(problem.optimizer, bounds=problem.joint_limits)
    start = time.perf_counter()
    result = direct.minimize(lambda q: lookahead_cost(problem, q), cfg)
    duration = time.perf_counter() - start
    return SelectionResult(config=result.best_point, cost=result.best_value,
                           evaluations=result.evaluations_used, duration=duration)
