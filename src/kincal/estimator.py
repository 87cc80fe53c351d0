"""Online estimators for chain parameters.

Two updates over the same observation model:

  * rls_update: extended recursive least squares. Linearizes h at the
    current mean, inflates the covariance by the state noise, then
    applies a Kalman step with Joseph-form covariance propagation.
  * gradient_update: plain stochastic gradient on the squared residual,
    kept as a baseline. No covariance.

Models are duck-typed: anything with predict(x, q) and jacobian(x, q);
prediction_error also needs predict_batch(x, configs). Observations may
have any dimension; the chain model returns 3-vectors.
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
        n = self.mean.size
        if self.covariance.shape != (n, n):
            raise ValueError("covariance shape must match mean")

    def copy(self) -> "EstimatorState":
        return EstimatorState(self.mean.copy(), self.covariance.copy())

    def symmetry_defect(self) -> float:
        return float(np.abs(self.covariance - self.covariance.T).max())

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.covariance + self.covariance.T)).min())


@dataclass
class NoiseConfig:
    """Variances driving the recursive estimator.

    obs_variance          isotropic measurement noise R = obs_variance * I
    stabilizing_variance  added to the covariance diagonal every
                          stabilizing_period updates (by the driver)
    state_noise_variance  added to the covariance diagonal before every
                          measurement update (prediction step for
                          parameters that are nominally static)
    """

    obs_variance: float = 1e-4
    stabilizing_variance: float = 0.0
    state_noise_variance: float = 0.0
    stabilizing_period: int = 10

    def __post_init__(self):
        if self.obs_variance < 0 or self.stabilizing_variance < 0 or self.state_noise_variance < 0:
            raise ValueError("variances must be non-negative")
        if self.stabilizing_period < 1:
            raise ValueError("stabilizing_period must be a positive integer")


@dataclass
class GradientConfig:
    learning_rate: float
    decay: float = 0.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.decay < 0:
            raise ValueError("decay must be non-negative")

    def rate_at(self, step: int) -> float:
        """Effective learning rate at a 0-based update count."""
        return self.learning_rate / (1.0 + self.decay * step)


def _solve_innovation(s, rhs):
    """Solve s @ x = rhs for symmetric s, gated on an SPD factorization.

    One retry with a diagonal jitter; a second failure (or non-finite
    entries) raises DegenerateUpdateError.
    """
    if not np.isfinite(s).all():
        raise DegenerateUpdateError("innovation covariance has non-finite entries")
    try:
        np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        s = s + _JITTER * np.eye(s.shape[0])
        try:
            np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            raise DegenerateUpdateError("innovation covariance is numerically singular") from None
    return np.linalg.solve(s, rhs)


def rls_update(state: EstimatorState, q, y, noise: NoiseConfig, model) -> EstimatorState:
    """One recursive least-squares step on observation y at configuration q.

    Returns a new state; the input is untouched. The covariance is
    propagated in Joseph form and re-symmetrized, which keeps it
    symmetric positive semidefinite over long update sequences.
    """
    y = np.asarray(y, dtype=float)
    mean = state.mean
    cov = state.covariance
    if noise.state_noise_variance > 0.0:
        cov = cov + noise.state_noise_variance * np.eye(cov.shape[0])

    predicted = model.predict(mean, q)
    jac = np.atleast_2d(np.asarray(model.jacobian(mean, q), dtype=float))
    m = jac.shape[0]
    if y.shape != (m,):
        raise ValueError(f"observation shape {y.shape} does not match model output ({m},)")

    cov_ht = cov @ jac.T
    s = jac @ cov_ht + noise.obs_variance * np.eye(m)
    s = 0.5 * (s + s.T)
    gain = _solve_innovation(s, cov_ht.T).T

    with np.errstate(over="ignore", invalid="ignore"):
        new_mean = mean + gain @ (y - predicted)
        ikh = np.eye(cov.shape[0]) - gain @ jac
        new_cov = ikh @ cov @ ikh.T + noise.obs_variance * (gain @ gain.T)
        new_cov = 0.5 * (new_cov + new_cov.T)
    # a runaway linearization can overflow without tripping the SPD gate;
    # refuse to hand back a poisoned state
    if not (np.isfinite(new_mean).all() and np.isfinite(new_cov).all()):
        raise DegenerateUpdateError("update produced non-finite state")
    return EstimatorState(new_mean, new_cov)


def apply_stabilizing_noise(state: EstimatorState, noise: NoiseConfig) -> EstimatorState:
    """Re-inflate the covariance diagonal to keep the filter plastic."""
    n = state.covariance.shape[0]
    return EstimatorState(state.mean.copy(),
                          state.covariance + noise.stabilizing_variance * np.eye(n))


def gradient_update(mean, q, y, cfg: GradientConfig, model, step: int = 0) -> np.ndarray:
    """One gradient step x + rate * H^T (y - h(x, q)) on the residual."""
    mean = np.asarray(mean, dtype=float)
    y = np.asarray(y, dtype=float)
    residual = y - model.predict(mean, q)
    jac = np.atleast_2d(np.asarray(model.jacobian(mean, q), dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        new_mean = mean + cfg.rate_at(step) * (jac.T @ residual)
    if not np.isfinite(new_mean).all():
        raise DegenerateUpdateError("gradient step produced non-finite parameters")
    return new_mean


def prediction_error(mean, dataset, model) -> float:
    """RMS residual norm of the model at mean over (q, y) pairs."""
    pairs = list(dataset)
    if not pairs:
        raise ValueError("prediction_error needs a non-empty dataset")
    configs = np.asarray([np.asarray(q, dtype=float) for q, _ in pairs])
    targets = np.asarray([np.asarray(y, dtype=float) for _, y in pairs])
    residuals = targets - model.predict_batch(np.asarray(mean, dtype=float), configs)
    total = float(np.sum(residuals * residuals))
    return float(np.sqrt(total / len(pairs)))
