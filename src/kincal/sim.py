"""Ground-truth chains, noisy measurements, and calibration metrics.

Fixtures are defined by joint axis directions and points the axes pass
through; the moment vectors follow as v = p x w. All randomness flows
through numpy PCG64 generators built by make_rng, so a seed pins the
exact stream on any platform.

Metrics compare a raw estimated parameter vector against the truth,
all joints and joint pairs at once in array operations:

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
from dataclasses import dataclass

import numpy as np

from .fov import FovConfig
from .kinematics import ChainParams, Pose, Twist, _matvec, observe, skew

logger = logging.getLogger(__name__)

DEFAULT_JOINT_LIMIT = math.radians(40.0)

# Estimated axis vectors shorter than this are degenerate: orientation
# pairs involving one contribute pi/2, location falls back to the
# distance between the lines' origin-closest points.
_DEGENERATE_AXIS_TOL = 1e-12

_PARALLEL_TOL = 1e-8


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator; a given seed reproduces the identical stream."""
    return np.random.Generator(np.random.PCG64(seed))


@dataclass
class GroundTruth:
    """A canonical chain plus the measurement setup around it."""

    params: ChainParams
    joint_limits: np.ndarray
    fov: FovConfig = None
    obs_variance: float = 1e-4

    def __post_init__(self):
        self.joint_limits = np.asarray(self.joint_limits, dtype=float)
        n = self.params.n_joints
        if self.joint_limits.shape != (n, 2):
            raise ValueError(f"joint_limits must be ({n}, 2)")
        if not (self.joint_limits[:, 0] <= self.joint_limits[:, 1]).all():
            raise ValueError("joint limits need low <= high")
        if self.obs_variance < 0:
            raise ValueError("obs_variance must be non-negative")
        for i, t in enumerate(self.params.twists):
            if abs(np.linalg.norm(t.w) - 1.0) > 1e-6:
                raise ValueError(f"joint {i}: ground-truth axis must be unit norm")

    @property
    def n_joints(self) -> int:
        return self.params.n_joints


def measure(gt: GroundTruth, q, rng: np.random.Generator):
    """Noisy end-effector position, or None when out of view.

    Visibility is decided on the true position. The noise draw happens
    only for visible measurements, so a fixed seed and query sequence
    reproduce the identical observation stream.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (gt.n_joints,):
        raise ValueError(f"expected {gt.n_joints} joint angles")
    if (q < gt.joint_limits[:, 0]).any() or (q > gt.joint_limits[:, 1]).any():
        raise ValueError("configuration violates joint limits")
    true_pos = observe(gt.params, q)
    if gt.fov is not None and not gt.fov.contains(true_pos):
        return None
    return true_pos + rng.normal(0.0, math.sqrt(gt.obs_variance), 3)


def random_config(gt: GroundTruth, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw inside the joint-limit box."""
    return rng.uniform(gt.joint_limits[:, 0], gt.joint_limits[:, 1])


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


def _row_dot(a, b):
    """Dot products of matching rows, each summed as np.dot sums one pair."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _axis_lines(rows):
    """(points w x v, unit directions, degenerate mask) of (n, 6) [w, v]
    rows; a degenerate row keeps its raw w as direction."""
    w, v = rows[:, :3], rows[:, 3:]
    norms = np.sqrt(_row_dot(w, w))
    degenerate = norms < _DEGENERATE_AXIS_TOL
    directions = w / np.where(degenerate, 1.0, norms)[:, None]
    return _matvec(skew(w), v), directions, degenerate


def metrics(estimate, gt: GroundTruth):
    """(orientation_error, location_error) of a raw parameter vector."""
    estimate = np.asarray(estimate, dtype=float)
    n = gt.n_joints
    if estimate.shape != (6 * n,):
        raise ValueError(f"estimate must have {6 * n} entries")
    est_points, est_dirs, degenerate = _axis_lines(estimate.reshape(n, 6))
    true_points, true_dirs, _ = _axis_lines(gt.params.to_vector().reshape(n, 6))
    if degenerate.any():
        logger.warning("degenerate estimated axes at joints %s",
                       np.flatnonzero(degenerate).tolist())

    i, j = np.triu_indices(n, 1)
    est_angles, true_angles = (np.arccos(np.clip(_row_dot(d[i], d[j]), -1.0, 1.0))
                               for d in (est_dirs, true_dirs))
    angle_terms = np.where(degenerate[i] | degenerate[j], math.pi / 2.0,
                           np.abs(est_angles - true_angles))
    orientation_error = float(np.mean(angle_terms)) if angle_terms.size else 0.0

    # near-parallel lines and degenerate estimates keep |gap|
    gap = est_points - true_points
    cross = _matvec(skew(true_dirs), est_dirs)
    sin_angle = np.sqrt(_row_dot(cross, cross))
    distances = np.sqrt(_row_dot(gap, gap))
    skew_lines = ~degenerate & (sin_angle >= _PARALLEL_TOL)
    distances[skew_lines] = (np.abs(_row_dot(gap, cross)[skew_lines])
                             / sin_angle[skew_lines])
    return orientation_error, float(np.mean(distances))
