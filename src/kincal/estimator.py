"""Online estimators for chain parameters.

Two updates over the same observation model:

  * rls_update: extended recursive least squares. Linearizes h at the
    current mean, then applies a Kalman step with Joseph-form covariance
    propagation. The Joseph product (I - K H) P (I - K H)^T + r K K^T is
    taken in rank-m form, A + (r K - A H^T) K^T with A = P - K (H P) from
    the H P the innovation already needs, so an update on d parameters
    and m observation rows costs O(d^2 m), with no d x d x d product. Its
    innovation algebra (kalman_terms) works on a stack of Jacobians, so
    active selection scores a whole sweep of hypothetical measurements
    with the same code. Each innovation covariance S passes a Cholesky
    factorization as its SPD gate and is then inverted, one small m x m
    inverse per stack entry in place of a solve against all d columns
    of H P. An S that fails the gate, numerically singular ones
    included, is degenerate: no repair is tried. The terms come as an
    Innovation stack, and an update given its row, from a selection or
    from a stacked call over several estimators, reuses it: no kernel or
    kalman_terms call of its own.
  * gradient_update: plain stochastic gradient on the squared residual,
    kept as a baseline. No covariance. It too may be given its
    linearization.

Models are duck-typed: anything with predict(x, q) and jacobian(x, q);
prediction_error also needs predict_batch(x, configs), which takes a
stack of parameter vectors when prediction_error is given one. An update
that is given no linearization asks the model for the Jacobian and the
prediction at (x, q), one call each.
Observations may have any dimension; the chain model returns 3-vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class DegenerateUpdateError(RuntimeError):
    """Innovation covariance is numerically singular or non-finite, or an
    update step leaves non-finite parameters."""


@dataclass
class EstimatorState:
    """Gaussian belief over the parameter vector."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        if self.mean.ndim != 1:
            raise ValueError(f"mean must be a 1-D vector, not shape {self.mean.shape}")
        n = self.mean.size
        if self.covariance.shape != (n, n):
            raise ValueError("covariance shape must match mean")

    def symmetry_defect(self) -> float:
        return float(np.abs(self.covariance - self.covariance.T).max())

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.covariance + self.covariance.T)).min())


@dataclass
class NoiseConfig:
    """Variances driving the recursive estimator.

    obs_variance          isotropic measurement noise R = obs_variance * I
    stabilizing_variance  added to the covariance diagonal every 10th
                          accepted update (by the driver)
    """

    obs_variance: float = 1e-4
    stabilizing_variance: float = 0.0

    def __post_init__(self):
        if not (0 <= self.obs_variance < np.inf and 0 <= self.stabilizing_variance < np.inf):
            raise ValueError("variances must be finite and non-negative")


@dataclass
class GradientConfig:
    learning_rate: float
    decay: float = 0.0

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and positive")
        if not 0 <= self.decay < np.inf:
            raise ValueError("decay must be finite and non-negative")

    def rate_at(self, step: int) -> float:
        """Effective learning rate at a 0-based update count."""
        return self.learning_rate / (1.0 + self.decay * step)


def _solve_innovation(s, rhs):
    """s[i]^-1 @ rhs[i] over a (k, m, m) stack of symmetric s.

    Returns the solutions (k, m, r) and a boolean ok mask (k,). Entry i
    is ok when s[i] is finite and passes a Cholesky factorization, the
    SPD gate; it is then inverted, since an m x m inverse then one
    product costs less than an LU solve against the r columns, and for
    an SPD matrix its error is of the same order. Entries that are not
    ok, a numerically singular s[i] among them, get zeros. A finite
    stack is tried at once, and entry by entry only when that fails; an
    entry's solution is the same either way.
    """
    s = np.asarray(s, dtype=float)
    ok = np.isfinite(s).all(axis=(1, 2))
    if ok.all():
        try:
            np.linalg.cholesky(s)
            return np.linalg.inv(s) @ rhs, ok
        except np.linalg.LinAlgError:
            pass
    x = np.zeros(np.shape(rhs))
    for i in np.flatnonzero(ok):
        try:
            np.linalg.cholesky(s[i])
            x[i] = np.linalg.inv(s[i]) @ rhs[i]
        except np.linalg.LinAlgError:
            ok[i] = False
    return x, ok


def kalman_terms(cov, jac, obs_variance):
    """(H P, S^-1 H P, ok mask of _solve_innovation) for a (k, m, d) stack
    of Jacobians H and one covariance P, or a (k, d, d) stack of them,
    one per Jacobian, with S = H P H^T + obs_variance I symmetrized.
    Products are taken per stack entry, so an entry's terms do not
    depend on the rest of the stack: a stack in which some S fails the
    gate still gives every other entry the bits of its own call."""
    cov_ht = cov @ jac.transpose(0, 2, 1)
    s = jac @ cov_ht + obs_variance * np.eye(jac.shape[1])
    s = 0.5 * (s + s.transpose(0, 2, 1))
    hp = cov_ht.transpose(0, 2, 1)
    solved, ok = _solve_innovation(s, hp)
    return hp, solved, ok


class Innovation(NamedTuple):
    """The innovation terms of a stack of k measurements at one mean and
    covariance: predicted observations (k, m), Jacobians H (k, m, d), and
    kalman_terms' H P (k, m, d), S^-1 H P (k, m, d) and ok (k,)."""

    predicted: np.ndarray
    jacobian: np.ndarray
    hp: np.ndarray
    solved: np.ndarray
    ok: np.ndarray

    def row(self, i: int) -> "Innovation":
        """Entry i as a one-entry stack of copies, holding nothing of this one."""
        if not 0 <= i < len(self.ok):
            raise IndexError(f"entry {i} of a stack of {len(self.ok)}")
        return Innovation(*(a[i:i + 1].copy() for a in self))


def _observation(y, jac) -> np.ndarray:
    """y as a float array, checked against the rows of an (m, d) Jacobian."""
    y = np.asarray(y, dtype=float)
    if y.shape != jac.shape[:1]:
        raise ValueError(f"observation shape {y.shape} does not match the model's {jac.shape[:1]}")
    return y


def rls_update(state: EstimatorState, q, y, noise: NoiseConfig, model,
               innovation: Innovation = None) -> EstimatorState:
    """One recursive least-squares step on observation y at configuration q.

    Returns a new state; the input is untouched. The covariance is
    propagated in Joseph form and re-symmetrized, which keeps it
    symmetric positive semidefinite over long update sequences. The
    Joseph form is expanded in rank m: with A = P - K (H P),
    (I - K H) P (I - K H)^T = A - (A H^T) K^T, so
    P+ = A - (A H^T) K^T + r K K^T = A + (r K - A H^T) K^T. Every product
    has m as one of its dimensions, O(d^2 m) in all for d parameters.

    innovation, when given, is the one-entry Innovation of (state, q)
    under noise.obs_variance, as selection scored it or a stacked
    linearization gave it; the step then calls neither the model nor
    kalman_terms. Without it the model is linearized at (state.mean, q),
    which gives the same terms.
    """
    mean = state.mean
    cov = state.covariance
    if innovation is None:
        jac = np.atleast_2d(np.asarray(model.jacobian(mean, q), dtype=float))
        predicted = np.asarray(model.predict(mean, q), dtype=float)
        innovation = Innovation(predicted[None], jac[None],
                                *kalman_terms(cov, jac[None], noise.obs_variance))
    predicted, jac, hp, solved, ok = (a[0] for a in innovation)
    y = _observation(y, jac)
    if not ok:
        raise DegenerateUpdateError("innovation covariance is non-finite or numerically singular")
    gain = solved.T

    with np.errstate(over="ignore", invalid="ignore"):
        new_mean = mean + gain @ (y - predicted)
        a = cov - gain @ hp
        new_cov = a + (noise.obs_variance * gain - a @ jac.T) @ gain.T
        new_cov = 0.5 * (new_cov + new_cov.T)
    # a runaway linearization can overflow without tripping the SPD gate;
    # refuse to hand back a poisoned state
    if not (np.isfinite(new_mean).all() and np.isfinite(new_cov).all()):
        raise DegenerateUpdateError("update produced non-finite state")
    return EstimatorState(new_mean, new_cov)


def apply_stabilizing_noise(state: EstimatorState, noise: NoiseConfig) -> EstimatorState:
    """Re-inflate the covariance diagonal to keep the filter plastic."""
    cov = state.covariance.copy()
    # a copy is C-contiguous, so every (d+1)-th element of its flat view
    # is the diagonal; a basic slice, unlike fancy indexing, allocates
    # nothing
    cov.reshape(-1)[::cov.shape[0] + 1] += noise.stabilizing_variance
    return EstimatorState(state.mean.copy(), cov)


def gradient_update(mean, q, y, cfg: GradientConfig, model, step: int = 0,
                    linearization=None) -> np.ndarray:
    """One gradient step x + rate * H^T (y - h(x, q)) on the residual.
    linearization, when given, is (h(x, q), H) and the model is not called."""
    mean = np.asarray(mean, dtype=float)
    if linearization is None:
        linearization = model.predict(mean, q), model.jacobian(mean, q)
    predicted, jac = linearization
    jac = np.atleast_2d(np.asarray(jac, dtype=float))
    residual = _observation(y, jac) - predicted
    with np.errstate(over="ignore", invalid="ignore"):
        new_mean = mean + cfg.rate_at(step) * (jac.T @ residual)
    if not np.isfinite(new_mean).all():
        raise DegenerateUpdateError("gradient step produced non-finite parameters")
    return new_mean


def prediction_error(means, configs, targets, model):
    """RMS residual norm of the model at a mean over a probe set: a (k, n)
    array of configurations and the (k, m) array of their targets. For a
    (T, d) stack of means, the (T,) array of their RMS errors, each
    bit-identical to its own call; the model's predict_batch then takes
    the stack and returns (T, k, m)."""
    if len(configs) == 0:
        raise ValueError("prediction_error needs a non-empty probe set")
    means = np.asarray(means, dtype=float)
    predictions = model.predict_batch(means, configs)
    if np.shape(targets) != predictions.shape[-2:]:
        raise ValueError(f"targets of shape {np.shape(targets)} do not match the "
                         f"predictions' {predictions.shape[-2:]}")
    residuals = targets - predictions
    totals = np.sum(residuals * residuals, axis=(-2, -1))
    rms = np.sqrt(totals / len(configs))
    return float(rms) if means.ndim == 1 else rms
