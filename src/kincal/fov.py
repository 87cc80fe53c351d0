"""Circular-cone field-of-view predicate.

A point is visible when the angle between the camera axis and the ray
to the point is strictly below half_angle. A zero half_angle therefore
sees nothing; the camera point itself is visible to a positive
half_angle.

contains_points applies the predicate to a (k, 3) block of points and
contains is its one-point view, so there is one rule. It gates simulated
measurements, filters the probe set, and penalizes a whole sweep of
candidate configurations during selection in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import _row_dot


@dataclass
class FovConfig:
    camera_position: np.ndarray
    axis: np.ndarray
    half_angle: float

    def __post_init__(self):
        self.camera_position = np.asarray(self.camera_position, dtype=float)
        if self.camera_position.shape != (3,) or not np.isfinite(self.camera_position).all():
            raise ValueError("fov camera_position must be a finite 3-vector")
        axis = np.asarray(self.axis, dtype=float)
        norm = np.linalg.norm(axis)
        if axis.shape != (3,) or norm == 0.0 or not np.isfinite(norm):
            raise ValueError("fov axis must be a nonzero finite 3-vector")
        self.axis = axis / norm
        if not 0.0 <= self.half_angle <= math.pi:
            raise ValueError("half_angle must lie in [0, pi]")

    def contains(self, point) -> bool:
        """Visibility of one point: the one-row view of contains_points."""
        return bool(self.contains_points(np.asarray(point, dtype=float)[None])[0])

    def contains_points(self, points) -> np.ndarray:
        """Visibility mask (k,) of a (k, 3) block of points."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must be a (k, 3) block, got shape {points.shape}")
        ray = points - self.camera_position
        dists = np.sqrt(_row_dot(ray, ray)).tolist()
        dots = _row_dot(ray, self.axis).tolist()
        return np.array([self._sees(dist, dot) for dist, dot in zip(dists, dots)], dtype=bool)

    def _sees(self, dist: float, dot: float) -> bool:
        """The rule for one ray of length dist and axis component dot."""
        if dist == 0.0:
            return self.half_angle > 0.0
        # math.acos, not np.arccos: the two differ in the last bit on some
        # inputs, which would flip points within about 1e-15 rad of the cone
        return math.acos(min(1.0, max(-1.0, dot / dist))) < self.half_angle
