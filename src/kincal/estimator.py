"""Online estimators for chain parameters.

Two updates over the same observation model:

  * rls_update: extended recursive least squares. Linearizes h at the
    current mean, then applies a Kalman step with Joseph-form covariance
    propagation. The Joseph product (I - K H) P (I - K H)^T + r K K^T is
    taken in rank-m form from the H P the innovation already needs, so
    an update on d parameters and m observation rows costs O(d^2 m),
    with no d x d x d product. Its innovation algebra (kalman_terms)
    works on a stack of Jacobians, so active selection scores a whole
    sweep of hypothetical measurements with the same code.
  * gradient_update: plain stochastic gradient on the squared residual,
    kept as a baseline. No covariance.

Models are duck-typed: anything with predict(x, q) and jacobian(x, q);
prediction_error also needs predict_batch(x, configs), which takes a
stack of parameter vectors when prediction_error is given one. Both
updates ask for the Jacobian first and then the prediction at the same
(x, q), so a model can answer the second from the linearization behind
the first.
Observations may have any dimension; the chain model returns 3-vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_JITTER = 1e-12


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
        if not (self.obs_variance >= 0 and self.stabilizing_variance >= 0):
            raise ValueError("variances must be non-negative")


@dataclass
class GradientConfig:
    learning_rate: float
    decay: float = 0.0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not self.decay >= 0:
            raise ValueError("decay must be non-negative")

    def rate_at(self, step: int) -> float:
        """Effective learning rate at a 0-based update count."""
        return self.learning_rate / (1.0 + self.decay * step)


def _solve_one(s, rhs):
    """(x, True) for s @ x = rhs on the first of s and s + jitter that has
    a Cholesky factorization and solves, else (zeros, False)."""
    for attempt in (s, s + _JITTER * np.eye(s.shape[0])):
        try:
            np.linalg.cholesky(attempt)
            return np.linalg.solve(attempt, rhs), True
        except np.linalg.LinAlgError:
            pass
    return np.zeros(np.shape(rhs)), False


def _solve_innovation(s, rhs):
    """Solve s[i] @ x[i] = rhs[i] over a (k, m, m) stack of symmetric s.

    Returns the solutions (k, m, r) and a boolean ok mask (k,). Entry i
    is ok when s[i] is finite, has a Cholesky factorization and solves,
    as given or after one retry with a diagonal jitter; its solution uses
    the matrix that passed. Entries that are not ok get zeros. A finite
    stack is tried at once, and entry by entry only when that fails.
    """
    s = np.asarray(s, dtype=float)
    ok = np.isfinite(s).all(axis=(1, 2))
    if ok.all():
        try:
            np.linalg.cholesky(s)
            return np.linalg.solve(s, rhs), ok
        except np.linalg.LinAlgError:
            pass
    x = np.zeros(np.shape(rhs))
    for i in np.flatnonzero(ok):
        x[i], ok[i] = _solve_one(s[i], rhs[i])
    return x, ok


def kalman_terms(cov, jac, obs_variance):
    """(H P, S^-1 H P, ok mask of _solve_innovation) for a (k, m, d) stack
    of Jacobians H and one covariance P, with S = H P H^T + obs_variance I
    symmetrized. Products are taken per stack entry, so an entry's terms
    do not depend on the rest of the stack."""
    cov_ht = cov @ jac.transpose(0, 2, 1)
    s = jac @ cov_ht + obs_variance * np.eye(jac.shape[1])
    s = 0.5 * (s + s.transpose(0, 2, 1))
    hp = cov_ht.transpose(0, 2, 1)
    solved, ok = _solve_innovation(s, hp)
    return hp, solved, ok


def _observation(y, jac) -> np.ndarray:
    """y as a float array, checked against the rows of an (m, d) Jacobian."""
    y = np.asarray(y, dtype=float)
    if y.shape != jac.shape[:1]:
        raise ValueError(f"observation shape {y.shape} does not match the model's {jac.shape[:1]}")
    return y


def rls_update(state: EstimatorState, q, y, noise: NoiseConfig, model) -> EstimatorState:
    """One recursive least-squares step on observation y at configuration q.

    Returns a new state; the input is untouched. The covariance is
    propagated in Joseph form and re-symmetrized, which keeps it
    symmetric positive semidefinite over long update sequences. The
    Joseph form is expanded in rank m: with A = P - K (H P),
    (I - K H) P (I - K H)^T = A - (A H^T) K^T, so
    P+ = A - (A H^T) K^T + r K K^T. Every product has m as one of its
    dimensions, O(d^2 m) in all for d parameters.
    """
    mean = state.mean
    cov = state.covariance
    jac = np.atleast_2d(np.asarray(model.jacobian(mean, q), dtype=float))
    predicted = model.predict(mean, q)
    y = _observation(y, jac)

    hp, solved, ok = kalman_terms(cov, jac[None], noise.obs_variance)
    if not ok[0]:
        raise DegenerateUpdateError("innovation covariance is non-finite or numerically singular")
    gain = solved[0].T

    with np.errstate(over="ignore", invalid="ignore"):
        new_mean = mean + gain @ (y - predicted)
        a = cov - gain @ hp[0]
        new_cov = a - (a @ jac.T) @ gain.T + noise.obs_variance * (gain @ gain.T)
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


def gradient_update(mean, q, y, cfg: GradientConfig, model, step: int = 0) -> np.ndarray:
    """One gradient step x + rate * H^T (y - h(x, q)) on the residual."""
    mean = np.asarray(mean, dtype=float)
    jac = np.atleast_2d(np.asarray(model.jacobian(mean, q), dtype=float))
    residual = _observation(y, jac) - model.predict(mean, q)
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
    residuals = targets - model.predict_batch(means, configs)
    totals = np.sum(residuals * residuals, axis=(-2, -1))
    rms = np.sqrt(totals / len(configs))
    return float(rms) if means.ndim == 1 else rms
