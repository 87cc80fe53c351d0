"""DIRECT and DIRECT-l global minimization over a box.

Deterministic, derivative-free, budgeted by function evaluations. The
search box is mapped to the unit cube; rectangles are trisected along
their longest sides, new center values are assigned so the best values
get the largest children, and each sweep subdivides every potentially
optimal rectangle (Jones, Perttunen, Stuckman 1993). The direct_l
variant subdivides at most one rectangle per measure class per sweep
(Gablonsky's locally biased rule).

Side lengths are exact powers of 1/3, tracked as integer trisection
depths, so measure classes group exactly with no float comparisons.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

VARIANTS = ("direct", "direct_l")


@dataclass
class HyperRect:
    """Axis-aligned cell of the unit cube.

    center is in unit-cube coordinates; depth counts trisections per
    dimension, so side_lengths are 3**-depth. measure is the distance
    from the center to a corner, half the diagonal.
    """

    center: np.ndarray
    depth: np.ndarray
    value: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.depth = np.asarray(self.depth, dtype=int)
        if self.center.shape != self.depth.shape or self.center.ndim != 1:
            raise ValueError("center and depth must be matching 1-D arrays")
        if (self.depth < 0).any():
            raise ValueError("trisection depths must be non-negative")

    @property
    def side_lengths(self) -> np.ndarray:
        return 3.0 ** (-self.depth.astype(float))

    @property
    def measure(self) -> float:
        return 0.5 * float(np.linalg.norm(self.side_lengths))

    def measure_class(self) -> tuple:
        """Exact grouping key: the multiset of per-dimension depths."""
        return tuple(sorted(self.depth.tolist()))


@dataclass
class DirectConfig:
    """Search box and budget. bounds is a sequence of (low, high) pairs;
    it may be left None when a caller supplies the box itself."""

    bounds: object = None
    max_evaluations: int = 100
    epsilon: float = 1e-4
    variant: str = "direct"

    def __post_init__(self):
        if self.max_evaluations < 1:
            raise ValueError("max_evaluations must be a positive integer")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.bounds is not None:
            b = np.asarray(self.bounds, dtype=float)
            if b.ndim != 2 or b.shape[1] != 2 or b.shape[0] < 1:
                raise ValueError("bounds must be a non-empty sequence of (low, high) pairs")
            if not (b[:, 0] < b[:, 1]).all():
                raise ValueError("each bound must satisfy low < high")
            self.bounds = b


@dataclass
class DirectResult:
    best_point: np.ndarray
    best_value: float
    evaluations_used: int
    trace: list = None


class _Evaluator:
    """Counts evaluations, tracks the first strictly-best point, maps
    NaN to +inf with a warning. Returns None once the budget is spent."""

    def __init__(self, f, lower, span, budget, collect_trace):
        self.f = f
        self.lower = lower
        self.span = span
        self.budget = budget
        self.count = 0
        self.best_point = None
        self.best_value = math.inf
        self.trace = [] if collect_trace else None

    def __call__(self, unit_point):
        if self.count >= self.budget:
            return None
        x = self.lower + unit_point * self.span
        value = float(self.f(x))
        if math.isnan(value):
            logger.warning("objective returned NaN at %s; treating as +inf", x)
            value = math.inf
        self.count += 1
        if self.trace is not None:
            self.trace.append((x, value))
        if value < self.best_value:
            self.best_value = value
            self.best_point = x
        return value


def potentially_optimal(rects, f_min: float, epsilon: float, variant: str = "direct"):
    """Indices of rectangles worth subdividing, ascending.

    A rectangle qualifies if some weight K > 0 makes its value minus
    K times its measure at least as low as every other rectangle's, and
    that lower bound also undercuts f_min - epsilon*|f_min|. Ties on
    (measure class, value) are all kept by the direct variant; direct_l
    keeps one rectangle per measure class, lowest value then lowest
    index.
    """
    if not rects:
        return []
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")

    classes = {}
    for idx, rect in enumerate(rects):
        key = rect.measure_class()
        entry = classes.get(key)
        if entry is None:
            classes[key] = [rect.measure, rect.value, idx, [idx]]
        else:
            if rect.value < entry[1]:
                entry[1] = rect.value
                entry[2] = idx
            entry[3].append(idx)

    candidates = sorted(classes.values(), key=lambda e: e[0])
    measures = [e[0] for e in candidates]
    values = [e[1] for e in candidates]
    threshold = f_min - epsilon * abs(f_min)

    selected = []
    for k, entry in enumerate(candidates):
        d_k, f_k = measures[k], values[k]
        lower_slope = -math.inf
        for i in range(k):
            lower_slope = max(lower_slope, (f_k - values[i]) / (d_k - measures[i]))
        upper_slope = math.inf
        for i in range(k + 1, len(candidates)):
            upper_slope = min(upper_slope, (values[i] - f_k) / (measures[i] - d_k))
        if upper_slope <= 0.0 or lower_slope > upper_slope:
            continue
        if math.isfinite(upper_slope) and f_k - upper_slope * d_k > threshold:
            continue
        if variant == "direct_l":
            selected.append(entry[2])
        else:
            selected.extend(i for i in entry[3] if rects[i].value == f_k)
    return sorted(selected)


def _trisect(rect: HyperRect, try_eval):
    """Subdivide rect along its longest sides.

    try_eval(unit_point) -> value or None once the budget is gone. Only
    dimensions whose both offset centers got evaluated are split; with
    none completed the rectangle is left intact and [] is returned.
    """
    depth_min = rect.depth.min()
    split_dims = np.flatnonzero(rect.depth == depth_min)
    delta = 3.0 ** (-(depth_min + 1.0))

    completed = []
    for dim in split_dims:
        plus = rect.center.copy()
        plus[dim] += delta
        minus = rect.center.copy()
        minus[dim] -= delta
        v_plus = try_eval(plus)
        if v_plus is None:
            break
        v_minus = try_eval(minus)
        if v_minus is None:
            break
        completed.append((min(v_plus, v_minus), dim, plus, v_plus, minus, v_minus))
    if not completed:
        return []

    # Best new value splits first and keeps the largest child; the sort
    # is stable, so equal values fall back to dimension order.
    completed.sort(key=lambda item: item[0])
    children = []
    depth = rect.depth.copy()
    for _, dim, plus, v_plus, minus, v_minus in completed:
        depth[dim] += 1
        children.append(HyperRect(plus, depth.copy(), v_plus))
        children.append(HyperRect(minus, depth.copy(), v_minus))
    children.append(HyperRect(rect.center.copy(), depth, rect.value))
    return children


def trisect(rect: HyperRect, f):
    """Subdivide rect, evaluating f at the new unit-cube centers."""
    return _trisect(rect, lambda p: float(f(p)))


def minimize(f, cfg: DirectConfig, on_iteration=None, collect_trace: bool = False) -> DirectResult:
    """Minimize f over cfg.bounds with at most cfg.max_evaluations calls.

    Deterministic: identical configs and a deterministic f reproduce the
    identical evaluation trace. on_iteration(iteration, rects, selected)
    is called before each sweep's subdivisions and once more after the
    final sweep with an empty selection.
    """
    if cfg.bounds is None:
        raise ValueError("minimize requires cfg.bounds")
    bounds = np.asarray(cfg.bounds, dtype=float)
    dim = bounds.shape[0]
    lower = bounds[:, 0]
    span = bounds[:, 1] - lower

    ev = _Evaluator(f, lower, span, cfg.max_evaluations, collect_trace)
    center = np.full(dim, 0.5)
    first = ev(center)
    rects = [HyperRect(center, np.zeros(dim, dtype=int), first)]

    iteration = 0
    while ev.count < cfg.max_evaluations:
        selected = potentially_optimal(rects, ev.best_value, cfg.epsilon, cfg.variant)
        if on_iteration is not None:
            on_iteration(iteration, rects, selected)
        if not selected:
            break
        split = set()
        new_rects = []
        for idx in selected:
            children = _trisect(rects[idx], ev)
            if children:
                split.add(idx)
                new_rects.extend(children)
            if ev.count >= cfg.max_evaluations:
                break
        survivors = [r for i, r in enumerate(rects) if i not in split]
        rects = survivors + new_rects
        iteration += 1

    if on_iteration is not None:
        on_iteration(iteration, rects, [])
    return DirectResult(best_point=ev.best_point, best_value=ev.best_value,
                        evaluations_used=ev.count, trace=ev.trace)
