"""A-optimal selection of the next measurement configuration.

The value of probing a configuration is the trace of the covariance
that a measurement there would leave. Only the covariance changes, so
no update is run: with H the observation Jacobian at the current mean,
the posterior trace is the closed form
    tr(P) - sum((H P) * S^-1 (H P)),    S = H P H^T + R,
whose terms come from estimator.kalman_terms, the innovation algebra
rls_update applies: a Cholesky factorization gates S, then S is
inverted. A candidate costs 2 tr(P) when its predicted observation
falls outside the field of view, when its S fails the innovation solve
(not finite, or no Cholesky factor, as for a numerically singular S),
or when its result is not finite. So visible candidates always win when
any exist. Visibility decides only the cost: every candidate has its
innovation row.

Selections run in lockstep. select_lockstep takes one problem, whose
model, noise, field of view, optimizer and joint limits are the shared
setting, and a list of beliefs, and runs one direct.sweeps generator
per belief. Each DIRECT sweep lists its candidates first, so at each
step the live runs' blocks become one (k, n) block with a (k,) row ->
belief index, scored in one lookahead_costs call: one kernel call about
the stack of the beliefs' means, one Kalman-terms call over each row's
covariance and one field-of-view call. Each run is sent its slice of
the costs. Every row has the bits it has when its belief is selected
for alone, so a belief's result does not depend on the beliefs it runs
with, and select_next is the one-belief call on the problem's own
state. A run keeps its blocks' innovation rows and hands the chosen
one's, found by its trace index, to the update, which then runs with no
kernel or Kalman-terms call of its own.

Models provide terms(means), built once per call for its (S, d) stack
of means, and linearize(terms, configs, index), returning predicted
points (k, m) and Jacobians (k, m, d) for a (k, n) block of
configurations, configuration i about row index[i] of the stack.
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
    Innovation row, copied out of its block, for rls_update. duration is
    the belief's share of its selection call's wall time: the call's time
    over the number of beliefs it selected for."""

    config: np.ndarray
    cost: float
    evaluations: int
    duration: float
    innovation: Innovation


def _beliefs(model, states) -> tuple:
    """The model's terms of the states' means, covariances (S, d, d) and
    covariance traces (S,), built once for all the blocks of a selection call."""
    covariances = np.stack([state.covariance for state in states])
    return (model.terms(np.stack([state.mean for state in states])), covariances,
            np.array([np.trace(cov) for cov in covariances]))


def lookahead_costs(problem: SelectionProblem, configs, index, beliefs: tuple = None):
    """Posterior covariance traces (k,) for a (k, n) block of candidates,
    candidate i scored for belief index[i], and the block's Innovation.
    index is a (k,) row -> belief index, or one belief's index when the
    block is that belief's alone; then its mean's terms and its
    covariance serve every row as they are, with no gather.

    beliefs is _beliefs(problem.model, states), by default of
    [problem.state]; the problem gives model, noise and field of view.
    Visibility is judged on the point predicted from the current mean,
    not the unknown truth. Invisible candidates, candidates whose S fails
    the innovation solve, and non-finite results cost 2 tr(P).
    """
    configs = np.asarray(configs, dtype=float)
    terms, covariances, traces = beliefs or _beliefs(problem.model, [problem.state])
    prior = traces[index]

    predicted, jac = problem.model.linearize(terms, configs, index)
    hp, solved, ok = kalman_terms(covariances[index], jac, problem.noise.obs_variance)
    with np.errstate(over="ignore", invalid="ignore"):
        posterior = prior - np.einsum("kij,kij->k", hp, solved)
    keep = ok & np.isfinite(posterior)
    if problem.fov is not None:
        keep &= problem.fov.contains_points(predicted)
    return np.where(keep, posterior, prior + prior), Innovation(predicted, jac, hp, solved, ok)


def lookahead_cost(problem: SelectionProblem, q) -> float:
    """Trace of the covariance after a hypothetical measurement at q: the
    one-candidate view of lookahead_costs."""
    costs, _ = lookahead_costs(problem, np.asarray(q, dtype=float)[None], 0)
    return float(costs[0])


def _chosen_row(blocks, i: int) -> Innovation:
    """Entry i of a run's trace, whose blocks are the (Innovation, start,
    stop) row slices of the steps that scored them, in order."""
    for innovation, start, stop in blocks:
        if i < stop - start:
            return innovation.row(start + i)
        i -= stop - start


def select_lockstep(problem: SelectionProblem, states) -> list:
    """A SelectionResult per EstimatorState in states: lookahead cost
    minimized over the joint-limit box by one DIRECT run per state, the
    runs stepped together, each step's blocks scored in one
    lookahead_costs call. problem gives the shared setting; its own state
    is not read. Each result is select_next(replace(problem, state=s))
    for its state s, bit for bit, but for duration.
    """
    states = list(states)
    if not states:
        return []
    cfg = replace(problem.optimizer, bounds=problem.joint_limits)
    start = time.perf_counter()
    beliefs = _beliefs(problem.model, states)
    runs = [direct.sweeps(cfg) for _ in states]
    blocks = {i: next(run) for i, run in enumerate(runs)}   # the live runs' next blocks
    scored = [[] for _ in states]           # (Innovation, start, stop) per block
    chosen = [None] * len(states)           # (DirectResult, innovation row)
    while blocks:
        live, sizes = list(blocks), [len(block) for block in blocks.values()]
        index = live[0] if len(live) == 1 else np.repeat(live, sizes)
        costs, innovation = lookahead_costs(problem, np.concatenate(list(blocks.values())),
                                            index, beliefs)
        stop = 0
        for i, size in zip(live, sizes):
            begin, stop = stop, stop + size
            scored[i].append((innovation, begin, stop))
            try:
                blocks[i] = runs[i].send(costs[begin:stop])
            except StopIteration as done:
                result = direct.result_of(done.value)
                chosen[i] = result, _chosen_row(scored[i], result.best_index)
                scored[i] = None
                del blocks[i]
    share = (time.perf_counter() - start) / len(states)
    return [SelectionResult(config=result.best_point.copy(), cost=result.best_value,
                            evaluations=result.evaluations_used, duration=share, innovation=row)
            for result, row in chosen]


def select_next(problem: SelectionProblem) -> SelectionResult:
    """The one-belief call of select_lockstep, on the problem's own state."""
    return select_lockstep(problem, [problem.state])[0]
