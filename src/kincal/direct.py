"""DIRECT and DIRECT-l global minimization over a box.

Deterministic, derivative-free, budgeted by function evaluations. The
search box is mapped to the unit cube. Each sweep subdivides every
potentially optimal rectangle (Jones, Perttunen, Stuckman 1993) in three
steps: list the offset centers along each selected rectangle's longest
sides; have them all evaluated as one block, in selection, dimension,
plus-then-minus order, cut to the budget left; split each rectangle
along the dimensions whose two offsets both got a value, the best new
values keeping the largest children. The run is one ask/tell loop, the
sweeps generator: it yields each sweep's block of points and takes the
block's values back by send, so the caller decides how a block is
evaluated, and result_of picks the best point of the trace it returns.
minimize_batch drives it with one batch objective call per block, and
minimize wraps a scalar objective as one; a caller may also drive several
runs together, as active selection does. The box center
needs no block of its own: the lone first rectangle is always selected,
so the center leads the first block. on_iteration sees each sweep's
rectangles and selection after the sweep's values come back and before
its subdivisions. The direct_l variant subdivides at most one rectangle
per measure class per sweep (Gablonsky's locally biased rule).

Side lengths are exact powers of 1/3, tracked as integer trisection
depths, so measure classes group exactly with no float comparisons.
During a run the rectangles are one list of (center, depth, class key,
value) records of plain Python values: the center a tuple of floats, the
depths a tuple of ints, the class key the sorted depths, each depth
tuple's measure computed once. An offset center is its rectangle's
center with one coordinate c replaced by c + delta or c - delta, the
same float operation on an array would give; each block is one array of
those tuples, scaled to the box. At DIRECT's usual few dozen rectangles
tuples cost less than numpy arrays. HyperRect objects exist only at the
edges, on fresh arrays: the views handed to on_iteration, which cannot
reach the run's records, and the arguments of potentially_optimal, which
turns them into the same records, so there is one selection rule.
"""

from __future__ import annotations

import functools
import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

VARIANTS = ("direct", "direct_l")
_EPSILON = 1e-4   # Jones's epsilon in the potentially_optimal rule minimize_batch applies


@dataclass
class HyperRect:
    """Axis-aligned cell of the unit cube.

    center is in unit-cube coordinates; depth counts trisections per
    dimension, so side_lengths are 3**-depth. A cell's measure, which
    _measure computes, is the distance from the center to a corner, half
    the diagonal.
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

    def measure_class(self) -> tuple:
        """Exact grouping key: the multiset of per-dimension depths."""
        return tuple(sorted(self.depth.tolist()))


@dataclass
class DirectConfig:
    """Search box, budget and variant; Jones's epsilon is fixed at 1e-4.
    bounds, (low, high) pairs, may be None when a caller supplies the box."""

    bounds: object = None
    max_evaluations: int = 100
    variant: str = "direct"

    def __post_init__(self):
        evals = self.max_evaluations
        if isinstance(evals, bool) or not isinstance(evals, numbers.Integral) or evals < 1:
            raise ValueError(f"max_evaluations must be a positive integer, got {evals!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.bounds is not None:
            b = np.asarray(self.bounds, dtype=float)
            if b.ndim != 2 or b.shape[1] != 2 or b.shape[0] < 1:
                raise ValueError("bounds must be a non-empty sequence of (low, high) pairs")
            if not (np.isfinite(b).all() and (b[:, 0] < b[:, 1]).all()):
                raise ValueError("each bound must satisfy finite low < high")
            self.bounds = b


@dataclass
class DirectResult:
    """The first minimum of the trace, best_point and best_value, at its
    index best_index in evaluation order."""

    best_point: np.ndarray
    best_value: float
    evaluations_used: int
    trace: list = None
    best_index: int = None


@functools.lru_cache(maxsize=1024)
def _measure(depth: tuple) -> float:
    """Half the diagonal of a cell with these trisection depths."""
    return 0.5 * float(np.linalg.norm(3.0 ** (-np.array(depth, dtype=float))))


def potentially_optimal(rects, f_min: float, epsilon: float, variant: str = "direct"):
    """Indices of rectangles worth subdividing, ascending.

    A rectangle qualifies if some weight K > 0 makes its value minus
    K times its measure at least as low as every other rectangle's, and
    that lower bound also undercuts f_min - epsilon*|f_min|. Ties on
    (measure class, value) are all kept by the direct variant; direct_l
    keeps one rectangle per measure class, lowest value then lowest
    index.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    depths = (tuple(rect.depth.tolist()) for rect in rects)
    return _select([(None, depth, tuple(sorted(depth)), rect.value)
                    for rect, depth in zip(rects, depths)], f_min, epsilon, variant)


def _select(rects, f_min, epsilon, variant):
    """potentially_optimal over (center, depth, class key, value) records."""
    classes = {}
    for idx, (_, depth, key, value) in enumerate(rects):
        entry = classes.get(key)
        if entry is None:
            # the first member's own depths, not the sorted key: the last
            # bit of a norm can depend on the order of its terms
            classes[key] = [_measure(depth), value, idx, [idx]]
        else:
            if value < entry[1]:
                entry[1], entry[2] = value, idx
            entry[3].append(idx)

    candidates = sorted(classes.values(), key=lambda e: e[0])
    threshold = f_min - epsilon * abs(f_min)

    # A NaN slope (two +inf minima) compares false, so it never replaces
    # a bound. A class whose upper slope reaches 0 fails whatever its
    # lower slope, so its scans stop there.
    selected = []
    for k, (d_k, f_k, best, members) in enumerate(candidates):
        upper_slope = math.inf
        for d_i, f_i, _, _ in candidates[k + 1:]:
            slope = (f_i - f_k) / (d_i - d_k)
            if slope < upper_slope:
                upper_slope = slope
                if slope <= 0.0:
                    break
        if upper_slope <= 0.0:
            continue
        lower_slope = -math.inf
        for d_i, f_i, _, _ in candidates[:k]:
            slope = (f_k - f_i) / (d_k - d_i)
            if slope > lower_slope:
                lower_slope = slope
        if lower_slope > upper_slope:
            continue
        if upper_slope < math.inf and f_k - upper_slope * d_k > threshold:
            continue
        if variant == "direct_l":
            selected.append(best)
        else:
            selected.extend(i for i in members if rects[i][3] == f_k)
    return sorted(selected)


def _offset_centers(center, depth) -> list:
    """(dim, plus, minus) unit-cube centers one third of a side away from
    center, for each longest side (least depth) in dimension order."""
    depth_min = min(depth)
    delta = 3.0 ** (-(depth_min + 1.0))
    offsets = []
    for dim, d in enumerate(depth):
        if d == depth_min:
            plus, minus = list(center), list(center)
            plus[dim] += delta
            minus[dim] -= delta
            offsets.append((dim, tuple(plus), tuple(minus)))
    return offsets


def _split(rect, offsets, values) -> list:
    """Child records (center, depth, class key, value) of a rectangle's
    record from its offset centers and their values.

    values yields plus, minus per entry of offsets and may stop short; an
    iterator is advanced past the values used, so rectangles can take
    theirs from one iterator in turn. Only dimensions with both values
    are split; with none complete the rectangle stays intact and [] is
    returned. The last child is the rectangle itself, shrunk.
    """
    values = iter(values)
    center, depth, _, value = rect
    completed = [(min(v_plus, v_minus), dim, plus, v_plus, minus, v_minus)
                 for (dim, plus, minus), v_plus, v_minus in zip(offsets, values, values)]
    if not completed:
        return []

    # Best new value splits first and keeps the largest child; equal
    # values fall back to dimension order, which is unique.
    completed.sort()
    children = []
    depth = list(depth)
    for _, dim, plus, v_plus, minus, v_minus in completed:
        depth[dim] += 1
        shrunk, key = tuple(depth), tuple(sorted(depth))
        children += (plus, shrunk, key, v_plus), (minus, shrunk, key, v_minus)
    children.append((center, shrunk, key, value))
    return children


def _views(records) -> list:
    """HyperRect views of (center, depth, class key, value) records, on
    fresh arrays: a callback that changes one leaves the run alone."""
    return [HyperRect(center, depth, value) for center, depth, _, value in records]


def minimize(f, cfg: DirectConfig, on_iteration=None, collect_trace: bool = False) -> DirectResult:
    """minimize_batch with a scalar objective f, evaluated point by point."""
    return minimize_batch(lambda points: [float(f(x)) for x in points], cfg,
                          on_iteration, collect_trace)


def minimize_batch(f_batch, cfg: DirectConfig, on_iteration=None,
                   collect_trace: bool = False) -> DirectResult:
    """Minimize over cfg.bounds with at most cfg.max_evaluations evaluations
    by driving sweeps(cfg, on_iteration).

    f_batch maps a (k, dim) array of points to k values; it is called once
    per block that sweeps yields, and what it raises reaches the caller.
    The best point is the first minimum of the trace: the first center when
    every value is +inf.
    """
    run, values = sweeps(cfg, on_iteration), None
    while True:
        try:
            points = run.send(values)
        except StopIteration as done:
            return result_of(done.value, collect_trace)
        values = f_batch(points)


def result_of(trace, collect_trace: bool = False) -> DirectResult:
    """The DirectResult of a trace that sweeps returned: the first minimum,
    the first point when every value is +inf."""
    values = [value for _, value in trace]
    best_index = values.index(min(values))
    best_point, best_value = trace[best_index]
    return DirectResult(best_point=best_point, best_value=best_value,
                        evaluations_used=len(trace), trace=trace if collect_trace else None,
                        best_index=best_index)


def sweeps(cfg: DirectConfig, on_iteration=None):
    """DIRECT over cfg.bounds as an ask/tell generator.

    It yields one block of points per sweep, a (k, dim) array of that
    sweep's offset centers in evaluation order, the first block led by the
    box center, never more than cfg.max_evaluations has left; send takes
    the block's k values back. NaN counts as +inf, with a warning, and a
    wrong number of values is a ValueError. When the budget is spent it
    returns the trace, the (point, value) pairs in evaluation order.
    Deterministic: identical configs and values give the identical trace.
    on_iteration(iteration, rects, selected) gets HyperRect views once per
    sweep, after the sweep's values are told and before its subdivisions,
    which are the first change to a rectangle; then once more after the
    final sweep with an empty selection.
    """
    if cfg.bounds is None:
        raise ValueError("minimize requires cfg.bounds")
    lower, upper = np.asarray(cfg.bounds, dtype=float).T
    span = upper - lower
    center, depth = (0.5,) * len(lower), (0,) * len(lower)
    # the rectangles, as (center, depth, class key, value) records. The
    # lone first one is the largest class, so it is selected, and its
    # center leads the first block; its value is +inf until then.
    rects, lead = [(center, depth, depth, math.inf)], [center]
    trace, f_min, iteration = [], math.inf, 0
    while len(trace) < cfg.max_evaluations:
        selected = _select(rects, f_min, _EPSILON, cfg.variant)
        offsets = {idx: _offset_centers(*rects[idx][:2]) for idx in selected}
        unit = lead + [p for o in offsets.values() for _, plus, minus in o for p in (plus, minus)]
        points = lower + np.array(unit[:cfg.max_evaluations - len(trace)], dtype=float) * span
        values = list(map(float, (yield points)))
        if len(values) != len(points):
            raise ValueError(f"objective returned {len(values)} values for {len(points)} points")
        for i in [i for i, v in enumerate(values) if v != v]:
            logger.warning("objective returned NaN at %s; treating as +inf", points[i])
            values[i] = math.inf
        trace += zip(points, values)
        f_min = min(f_min, *values)
        new_values = iter(values)
        if lead:
            rects, lead = [(center, depth, depth, next(new_values))], []
        if len(trace) == 1:  # a budget of 1: the center alone, no sweep
            break
        if on_iteration is not None:
            on_iteration(iteration, _views(rects), selected)
        children = {idx: split for idx, o in offsets.items()
                    if (split := _split(rects[idx], o, new_values))}
        rects = ([rect for idx, rect in enumerate(rects) if idx not in children]
                 + [child for split in children.values() for child in split])
        iteration += 1

    if on_iteration is not None:
        on_iteration(iteration, _views(rects), [])
    return trace
