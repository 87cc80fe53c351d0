"""Ground-truth chains, noisy measurements, and calibration metrics.

Fixtures are defined by joint axis directions and points the axes pass
through; the moment vectors follow as v = p x w. All randomness flows
through numpy PCG64 generators built by make_rng, so a seed pins the
exact stream on any platform.

Metrics compare a raw estimated parameter vector, or a stack of them,
against the truth, all joints and joint pairs at once in array
operations:

  * orientation error: mean absolute difference, over joint pairs i < j,
    between the estimated and true inter-axis angles arccos(d_i . d_j).
    A pair with a degenerate estimated axis scores pi/2. Invariant to the
    scale of the estimated axis vectors; 0 for a single joint.
  * location error: mean distance between the estimated and true axis
    lines {w x v + s * w / |w|}: |gap . (d_true x d_est)| / sin for skew
    lines, else |gap|, where gap is the difference of the points w x v.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .fov import FovConfig
from .kinematics import (ChainParams, Pose, Twist, _chain_terms, _matvec, _row_dot,
                         _twist_terms, skew)

logger = logging.getLogger(__name__)

DEFAULT_JOINT_LIMIT = math.radians(40.0)

# Estimated axis vectors shorter than this are degenerate: orientation
# pairs involving one contribute pi/2, location falls back to the
# distance between the lines' origin-closest points.
_DEGENERATE_AXIS_TOL = 1e-12

_PARALLEL_TOL = 1e-8


def make_rng(seed) -> np.random.Generator:
    """PCG64 generator from an int or a SeedSequence; equal seeds give equal streams."""
    return np.random.Generator(np.random.PCG64(seed))


@dataclass
class GroundTruth:
    """A canonical chain plus the measurement setup around it. The truth is
    fixed once built, so what depends on it alone is built once too:
    axis_lines holds its joint axes, axis_pairs the joint pairs i < j
    and pair_angles their inter-axis angles, all for metrics; twist_terms
    holds the chain kernel's parameter-only terms (kinematics._twist_terms)
    that positions, the one evaluator of the true chain, reads."""

    params: ChainParams
    joint_limits: np.ndarray
    fov: FovConfig = None
    obs_variance: float = 1e-4
    axis_lines: tuple = field(init=False, repr=False, compare=False)
    axis_pairs: tuple = field(init=False, repr=False, compare=False)
    pair_angles: np.ndarray = field(init=False, repr=False, compare=False)
    twist_terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.joint_limits = np.asarray(self.joint_limits, dtype=float)
        n = self.params.n_joints
        if self.joint_limits.shape != (n, 2):
            raise ValueError(f"joint_limits must be ({n}, 2)")
        if not (np.isfinite(self.joint_limits).all()
                and (self.joint_limits[:, 0] <= self.joint_limits[:, 1]).all()):
            raise ValueError("joint limits need finite low <= high")
        if not 0 <= self.obs_variance < np.inf:
            raise ValueError("obs_variance must be finite and non-negative")
        for i, t in enumerate(self.params.twists):
            if abs(np.linalg.norm(t.w) - 1.0) > 1e-6:
                raise ValueError(f"joint {i}: ground-truth axis must be unit norm")
        x = self.params.to_vector()
        self.axis_lines = _axis_lines(x.reshape(n, 6))
        self.axis_pairs = np.triu_indices(n, 1)
        self.pair_angles = _pair_angles(self.axis_lines[1], self.axis_pairs)
        self.twist_terms = _twist_terms(x, False)

    @property
    def n_joints(self) -> int:
        return self.params.n_joints

    def positions(self, configs) -> np.ndarray:
        """True end-effector positions (k, 3) of a (k, n) block of
        configurations, each row bit-identical to observe(params, q)."""
        return _chain_terms(self.twist_terms, self.params.zero_pose.translation, configs)


def measure(gt: GroundTruth, q, rng: np.random.Generator):
    """Noisy end-effector position, or None when out of view.

    gt.fov.contains decides visibility on the true position from
    gt.positions. The noise draw happens only for visible measurements, so
    a fixed seed and query sequence reproduce the identical observation stream.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (gt.n_joints,):
        raise ValueError(f"expected {gt.n_joints} joint angles")
    if (q < gt.joint_limits[:, 0]).any() or (q > gt.joint_limits[:, 1]).any():
        raise ValueError("configuration violates joint limits")
    true_pos = gt.positions(q[None])[0]
    if gt.fov is not None and not gt.fov.contains(true_pos):
        return None
    return true_pos + rng.normal(0.0, math.sqrt(gt.obs_variance), 3)


def random_config(gt: GroundTruth, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw inside the joint-limit box: Generator.uniform's formula
    low + (high - low) * u on the same stream, without its call overhead."""
    low = gt.joint_limits[:, 0]
    return low + (gt.joint_limits[:, 1] - low) * rng.random(gt.n_joints)


# name -> (description, [(axis, point on axis), ...], end-effector point)
_FIXTURES = {
    "planar3": (
        "3R planar chain, all axes +z, links 0.3/0.25/0.15 m along x",
        [((0.0, 0.0, 1.0), (0.0, 0.0, 0.0)),
         ((0.0, 0.0, 1.0), (0.3, 0.0, 0.0)),
         ((0.0, 0.0, 1.0), (0.55, 0.0, 0.0))],
        (0.7, 0.0, 0.0),
    ),
    "arm6": (
        "6-dof arm: 3-axis shoulder, elbow pitch, forearm roll, wrist pitch",
        [((0.0, 0.0, 1.0), (0.0, 0.0, 0.3)),
         ((0.0, 1.0, 0.0), (0.0, 0.0, 0.3)),
         ((1.0, 0.0, 0.0), (0.0, 0.0, 0.3)),
         ((0.0, 1.0, 0.0), (0.3, 0.0, 0.3)),
         ((1.0, 0.0, 0.0), (0.55, 0.0, 0.3)),
         ((0.0, 1.0, 0.0), (0.55, 0.0, 0.3))],
        (0.65, 0.0, 0.3),
    ),
    "arm12": (
        "12-dof chain: 3-axis torso, 3-axis shoulder, 2-axis elbow, "
        "3-axis wrist, hand pitch",
        [((0.0, 0.0, 1.0), (0.0, 0.0, 0.1)),
         ((0.0, 1.0, 0.0), (0.0, 0.0, 0.1)),
         ((1.0, 0.0, 0.0), (0.0, 0.0, 0.1)),
         ((0.0, 0.0, 1.0), (0.0, 0.15, 0.35)),
         ((0.0, 1.0, 0.0), (0.0, 0.15, 0.35)),
         ((1.0, 0.0, 0.0), (0.0, 0.15, 0.35)),
         ((0.0, 1.0, 0.0), (0.25, 0.15, 0.35)),
         ((1.0, 0.0, 0.0), (0.25, 0.15, 0.35)),
         ((0.0, 0.0, 1.0), (0.45, 0.15, 0.35)),
         ((0.0, 1.0, 0.0), (0.45, 0.15, 0.35)),
         ((1.0, 0.0, 0.0), (0.45, 0.15, 0.35)),
         ((0.0, 1.0, 0.0), (0.55, 0.15, 0.35))],
        (0.62, 0.15, 0.35),
    ),
}

FIXTURE_NAMES = tuple(_FIXTURES)


def fixture_description(name: str) -> str:
    return _FIXTURES[name][0]


def builtin_chain(name: str) -> GroundTruth:
    """Named ground-truth chain with default limits and noise."""
    if name not in _FIXTURES:
        raise ValueError(f"unknown chain fixture {name!r}; have {sorted(_FIXTURES)}")
    _, axes, effector = _FIXTURES[name]
    twists = []
    for axis, point in axes:
        w = np.asarray(axis, dtype=float)
        p = np.asarray(point, dtype=float)
        twists.append(Twist(w, np.cross(p, w)))
    params = ChainParams(twists, Pose(np.eye(3), np.asarray(effector, dtype=float)))
    limits = np.tile([-DEFAULT_JOINT_LIMIT, DEFAULT_JOINT_LIMIT], (len(twists), 1))
    return GroundTruth(params, limits)


def _axis_lines(rows):
    """(points w x v, unit directions, degenerate mask) of (..., n, 6)
    [w, v] rows; a degenerate row keeps its raw w as direction."""
    w, v = rows[..., :3], rows[..., 3:]
    norms = np.sqrt(_row_dot(w, w))
    degenerate = norms < _DEGENERATE_AXIS_TOL
    directions = w / np.where(degenerate, 1.0, norms)[..., None]
    return _matvec(skew(w), v), directions, degenerate


def _pair_angles(directions, pairs):
    """Angles arccos(d_i . d_j) (..., p) between the (..., n, 3) directions
    of each joint pair (i, j) in pairs."""
    i, j = pairs
    dots = _row_dot(directions[..., i, :], directions[..., j, :])
    return np.arccos(np.clip(dots, -1.0, 1.0))


def _row_means(a):
    """Means over the last axis. Taken on a C-ordered copy, so each row is
    summed pairwise, as np.mean sums it alone: the pair angles of a stack
    come out F-ordered (from directions[..., i, :]), and over an F-ordered
    array the row sums run sequentially."""
    return np.mean(np.ascontiguousarray(a), axis=-1)


def metrics(estimates, gt: GroundTruth):
    """(orientation_error, location_error) of a raw parameter vector; for a
    (T, 6n) stack of them, a pair of (T,) arrays, each row bit-identical
    to its own call."""
    estimates = np.asarray(estimates, dtype=float)
    n = gt.n_joints
    if estimates.ndim not in (1, 2) or estimates.shape[-1] != 6 * n:
        raise ValueError(f"estimate must have {6 * n} entries, or be a stack of such rows")
    rows = estimates.reshape(estimates.shape[:-1] + (n, 6))
    est_points, est_dirs, degenerate = _axis_lines(rows)
    true_points, true_dirs, _ = gt.axis_lines
    flat = degenerate.reshape(-1, n)
    for row in flat[flat.any(axis=1)]:
        logger.warning("degenerate estimated axes at joints %s", np.flatnonzero(row).tolist())

    i, j = gt.axis_pairs
    angle_terms = np.where(degenerate[..., i] | degenerate[..., j], math.pi / 2.0,
                           np.abs(_pair_angles(est_dirs, gt.axis_pairs) - gt.pair_angles))
    if angle_terms.shape[-1]:
        orientation_error = _row_means(angle_terms)
    else:
        orientation_error = np.zeros(angle_terms.shape[:-1])

    # near-parallel lines and degenerate estimates keep |gap|
    gap = est_points - true_points
    cross = _matvec(skew(true_dirs), est_dirs)
    sin_angle = np.sqrt(_row_dot(cross, cross))
    distances = np.sqrt(_row_dot(gap, gap))
    skew_lines = ~degenerate & (sin_angle >= _PARALLEL_TOL)
    distances[skew_lines] = (np.abs(_row_dot(gap, cross)[skew_lines])
                             / sin_angle[skew_lines])
    location_error = _row_means(distances)
    if estimates.ndim == 1:
        return float(orientation_error), float(location_error)
    return orientation_error, location_error
