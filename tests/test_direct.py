import hashlib
import itertools
import logging
import math

import numpy as np
import pytest

from kincal.direct import (VARIANTS, DirectConfig, HyperRect, _offset_centers, _split, _views,
                           minimize, minimize_batch, potentially_optimal, sweeps)


def rect1(depth, value):
    """1-D rect at a valid center for the given depth (leftmost cell)."""
    side = 3.0 ** (-depth)
    return HyperRect(np.array([side / 2.0]), np.array([depth]), value)


def trisect(rect, f):
    """HyperRect views of rect's children, split as minimize_batch
    splits a rectangle once f has valued every offset center."""
    center, depth = tuple(rect.center.tolist()), tuple(rect.depth.tolist())
    offsets = _offset_centers(center, depth)
    values = [float(f(np.array(p))) for _, plus, minus in offsets for p in (plus, minus)]
    return _views(_split((center, depth, tuple(sorted(depth)), rect.value), offsets, values))


def po_bruteforce(rects, f_min, epsilon):
    """Scan a dense grid of weights K > 0 for rects whose weighted lower
    bound beats every other rect's and undercuts the f_min guard."""
    selected = set()
    threshold = f_min - epsilon * abs(f_min)
    half_diagonals = [0.5 * np.linalg.norm(r.side_lengths) for r in rects]
    for weight in np.geomspace(1e-9, 1e9, 8001):
        bounds = [r.value - weight * h for r, h in zip(rects, half_diagonals)]
        best = min(bounds)
        for i, b in enumerate(bounds):
            if b <= best + 1e-12 and b <= threshold + 1e-12:
                selected.add(i)
    return selected


def sphere(x):
    x = np.asarray(x)
    return float(((x - 0.3) ** 2).sum())


class TestHyperRect:
    def test_sides_and_measure(self):
        rect = HyperRect(np.array([0.5, 0.5]), np.array([0, 0]), 1.0)
        np.testing.assert_array_equal(rect.side_lengths, [1.0, 1.0])
        assert 0.5 * np.linalg.norm(rect.side_lengths) == pytest.approx(0.5 * np.sqrt(2.0))
        deep = HyperRect(np.array([1 / 6, 0.5]), np.array([1, 0]), 1.0)
        np.testing.assert_array_equal(deep.side_lengths, [1 / 3, 1.0])
        assert 0.5 * np.linalg.norm(deep.side_lengths) == pytest.approx(0.5 * np.sqrt(1 / 9 + 1))

    def test_measure_class_groups_exactly(self):
        a = HyperRect(np.array([1 / 6, 0.5]), np.array([1, 0]), 1.0)
        b = HyperRect(np.array([0.5, 1 / 6]), np.array([0, 1]), 2.0)
        assert a.measure_class() == b.measure_class()

    def test_validation(self):
        with pytest.raises(ValueError):
            HyperRect(np.array([0.5]), np.array([0, 0]), 1.0)
        with pytest.raises(ValueError):
            HyperRect(np.array([0.5]), np.array([-1]), 1.0)


class TestTrisect:
    def test_interval_centers(self):
        parent = HyperRect(np.array([0.5]), np.array([0]), 0.5)
        children = trisect(parent, lambda p: float(p[0]))
        centers = sorted(c.center[0] for c in children)
        np.testing.assert_allclose(centers, [1 / 6, 0.5, 5 / 6])
        assert all(c.depth[0] == 1 for c in children)
        middle = [c for c in children if c.center[0] == 0.5][0]
        assert middle.value == 0.5  # parent value is reused, not re-evaluated

    def test_square_constant_objective(self):
        parent = HyperRect(np.array([0.5, 0.5]), np.array([0, 0]), 3.0)
        children = trisect(parent, lambda p: 3.0)
        assert len(children) == 5
        # equal new values: dimension 0 splits first and keeps full height
        tall = [c for c in children if tuple(c.depth) == (1, 0)]
        small = [c for c in children if tuple(c.depth) == (1, 1)]
        assert len(tall) == 2 and len(small) == 3
        assert {round(c.center[0], 12) for c in tall} == {round(1 / 6, 12),
                                                          round(5 / 6, 12)}

    def test_best_value_gets_largest_child(self):
        parent = HyperRect(np.array([0.5, 0.5]), np.array([0, 0]), 1.0)
        # dimension 1 offers the better (lower) candidate values
        children = trisect(parent, lambda p: 0.1 if p[1] != 0.5 else 2.0)
        for child in children:
            if child.value == 0.1:
                np.testing.assert_array_equal(child.depth, [0, 1])

    def test_partition_of_random_rects(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            dim = int(rng.integers(1, 5))
            depth = rng.integers(0, 3, size=dim)
            side = 3.0 ** (-depth.astype(float))
            # center = odd multiple of half the side length in each dim
            center = (2 * rng.integers(0, 3 ** depth.max(), size=dim) + 1) * side / 2
            center = np.minimum(center, 1 - side / 2)
            parent = HyperRect(center, depth, 0.0)
            children = trisect(parent, lambda p: float(rng.normal()))

            parent_volume = float(np.prod(parent.side_lengths))
            child_volumes = sum(float(np.prod(c.side_lengths)) for c in children)
            assert child_volumes == pytest.approx(parent_volume, rel=1e-12)

            lo = parent.center - parent.side_lengths / 2
            points = lo + rng.uniform(0, 1, size=(50, dim)) * parent.side_lengths
            for point in points:
                holders = sum(
                    bool((np.abs(point - c.center) < c.side_lengths / 2 - 1e-12).all())
                    for c in children)
                assert holders <= 1


class TestPotentiallyOptimal:
    def test_single_rect_always_selected(self):
        rect = rect1(0, 42.0)
        assert potentially_optimal([rect], 42.0, 1e-4) == [0]

    def test_equal_measure_dominance(self):
        rects = [rect1(1, 2.0), rect1(1, 1.0)]
        assert potentially_optimal(rects, 1.0, 0.0) == [1]

    def test_known_three_point_hull(self):
        rects = [rect1(4, 0.52), rect1(3, 0.80), rect1(2, 0.525),
                 rect1(1, 0.75), rect1(0, 0.60)]
        expected = [0, 2, 4]
        for eps in (0.0, 1e-4):
            assert potentially_optimal(rects, 0.52, eps) == expected
            assert sorted(po_bruteforce(rects, 0.52, eps)) == expected

    def test_matches_bruteforce_on_random_sets(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            rects = [rect1(int(rng.integers(0, 5)), float(rng.uniform(0, 2)))
                     for _ in range(8)]
            f_min = min(r.value for r in rects)
            got = potentially_optimal(rects, f_min, 0.0)
            assert set(got) == po_bruteforce(rects, f_min, 0.0)

    def test_epsilon_guard_with_negative_minimum(self):
        rects = [rect1(1, -1.02), rect1(0, -1.0)]
        assert potentially_optimal(rects, -1.02, 0.0) == [0, 1]
        assert potentially_optimal(rects, -1.02, 0.1) == [1]

    def test_value_ties_direct_keeps_all_direct_l_keeps_first(self):
        rects = [rect1(1, 0.4), rect1(1, 0.4), rect1(0, 0.5)]
        assert potentially_optimal(rects, 0.4, 0.0, "direct") == [0, 1, 2]
        assert potentially_optimal(rects, 0.4, 0.0, "direct_l") == [0, 2]

    def test_direct_l_one_per_class(self):
        rng = np.random.default_rng(23)
        rects = [rect1(int(rng.integers(0, 4)), float(rng.uniform(0, 1)))
                 for _ in range(12)]
        f_min = min(r.value for r in rects)
        chosen = potentially_optimal(rects, f_min, 1e-4, "direct_l")
        classes = [rects[i].measure_class() for i in chosen]
        assert len(classes) == len(set(classes))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_keeps_a_member_of_the_largest_class(self, variant):
        # so every sweep selects something, and the lone first rectangle
        # is selected: the largest class has no upper slope to fail
        rng = np.random.default_rng(29)
        for trial in range(300):
            dim, count = int(rng.integers(1, 5)), int(rng.integers(1, 12))
            depths = rng.integers(0, 4, size=(count, dim))
            values = rng.choice([0.0, 0.5, 1.0, -2.0, np.inf], size=count)  # ties
            if trial % 3 == 0:
                values[:] = np.inf
            elif trial % 3 == 1:
                values = rng.normal(size=count)
            rects = [HyperRect(np.full(dim, 0.5), d, float(v)) for d, v in zip(depths, values)]
            measures = [0.5 * np.linalg.norm(r.side_lengths) for r in rects]
            largest = {i for i, m in enumerate(measures) if m == max(measures)}
            for eps in (0.0, 1e-4):
                chosen = potentially_optimal(rects, float(values.min()), eps, variant)
                assert chosen and set(chosen) & largest, (trial, chosen)

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            potentially_optimal([rect1(0, 1.0)], 1.0, 0.0, "direct_xl")
        with pytest.raises(ValueError):
            potentially_optimal([], 1.0, 0.0, "direct_xl")
        assert potentially_optimal([], 1.0, 0.0, "direct_l") == []


class TestMinimize:
    def test_constant_objective(self):
        cfg = DirectConfig(bounds=[(-1.0, 3.0), (0.0, 2.0)], max_evaluations=30)
        result = minimize(lambda x: 3.0, cfg)
        assert result.best_value == 3.0
        np.testing.assert_allclose(result.best_point, [1.0, 1.0])  # first center
        assert result.evaluations_used == 30

    def test_budget_of_one(self):
        cfg = DirectConfig(bounds=[(0.0, 1.0)], max_evaluations=1)
        result = minimize(sphere, cfg)
        assert result.evaluations_used == 1
        np.testing.assert_allclose(result.best_point, [0.5])

    def test_first_sweep_pattern_2d(self):
        snapshots = []
        cfg = DirectConfig(bounds=[(0.0, 1.0), (0.0, 1.0)], max_evaluations=5)
        minimize(sphere, cfg, on_iteration=lambda i, rects, sel: snapshots.append(
            (i, [tuple(np.round(r.center, 12)) for r in rects])))
        final = dict(snapshots)[1]
        expected = {(round(1 / 6, 12), 0.5), (round(5 / 6, 12), 0.5),
                    (0.5, round(1 / 6, 12)), (0.5, round(5 / 6, 12)), (0.5, 0.5)}
        assert set(final) == expected

    def test_sphere_beats_dense_grid(self):
        cfg = DirectConfig(bounds=[(0.0, 1.0)] * 3, max_evaluations=500)
        result = minimize(sphere, cfg)
        assert result.evaluations_used <= 500
        assert result.best_value < 1e-4

        # the dense grid bounds the true minimum from above
        axis = np.linspace(0.0, 1.0, 41)
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
        grid_best = float(((grid - 0.3) ** 2).sum(axis=-1).min())
        assert result.best_value < grid_best + 1e-4

    def test_partition_invariant_throughout(self):
        checks = []

        def check(_i, rects, _sel):
            total = sum(float(np.prod(r.side_lengths)) for r in rects)
            checks.append(total)

        cfg = DirectConfig(bounds=[(0.0, 1.0), (0.0, 1.0)], max_evaluations=200)
        minimize(sphere, cfg, on_iteration=check)
        assert checks and all(t == pytest.approx(1.0, rel=1e-12) for t in checks)

    def test_deterministic_traces(self):
        cfg = DirectConfig(bounds=[(-2.0, 1.0)] * 2, max_evaluations=120)
        a = minimize(sphere, cfg, collect_trace=True)
        b = minimize(sphere, cfg, collect_trace=True)
        assert len(a.trace) == len(b.trace) == 120
        for (pa, va), (pb, vb) in zip(a.trace, b.trace):
            assert va == vb
            np.testing.assert_array_equal(pa, pb)

    def test_power_of_two_scaling_keeps_the_trace(self):
        # a power-of-two factor scales every value, slope and epsilon
        # threshold exactly, so each comparison DIRECT makes comes out
        # the same; the objective is negative, so the threshold's |f_min|
        # is taken too
        def shifted(x):
            return sphere(x) - 1.0

        for dim, variant in itertools.product((2, 3), VARIANTS):
            cfg = DirectConfig(bounds=[(0.0, 1.0)] * dim, max_evaluations=150, variant=variant)
            base = minimize(shifted, cfg, collect_trace=True)
            for factor in (4.0, 0.25, 1024.0):
                scaled = minimize(lambda x: factor * shifted(x), cfg, collect_trace=True)
                assert len(scaled.trace) == len(base.trace) == 150
                for (pa, va), (pb, vb) in zip(base.trace, scaled.trace):
                    np.testing.assert_array_equal(pa, pb)
                    assert vb == factor * va

    def test_best_value_monotone_along_trace(self):
        cfg = DirectConfig(bounds=[(0.0, 1.0)] * 2, max_evaluations=200)
        result = minimize(sphere, cfg, collect_trace=True)
        running = np.minimum.accumulate([v for _, v in result.trace])
        assert (np.diff(running) <= 0).all()
        assert running[-1] == result.best_value

    def test_nan_becomes_penalty_with_warning(self, caplog):
        def spiky(x):
            return np.nan if x[0] > 0.6 else sphere(x)

        cfg = DirectConfig(bounds=[(0.0, 1.0)], max_evaluations=60)
        with caplog.at_level(logging.WARNING, logger="kincal.direct"):
            result = minimize(spiky, cfg)
        assert any("NaN" in message for message in caplog.messages)
        assert np.isfinite(result.best_value)
        assert result.best_value < 1e-3

    def test_budget_cut_mid_pair_splits_completed_dimensions_only(self):
        snapshots = []
        cfg = DirectConfig(bounds=[(0.0, 1.0)] * 2, max_evaluations=4)
        result = minimize(lambda x: -float(x[1]), cfg, collect_trace=True,
                          on_iteration=lambda i, rects, sel: snapshots.append(list(rects)))
        # center, dimension 0 plus and minus, then dimension 1 plus only
        np.testing.assert_allclose([p for p, _ in result.trace],
                                   [[1 / 2, 1 / 2], [5 / 6, 1 / 2], [1 / 6, 1 / 2],
                                    [1 / 2, 5 / 6]], rtol=0, atol=1e-15)
        assert result.evaluations_used == 4
        final = snapshots[-1]
        assert len(final) == 3
        assert all(tuple(r.depth) == (1, 0) for r in final)
        # the unpaired plus is not split but still counts toward the best
        np.testing.assert_allclose(result.best_point, [1 / 2, 5 / 6], rtol=0, atol=1e-15)
        assert result.best_value == result.trace[3][1]
        assert result.best_index == 3

    def test_all_nan_objective_returns_first_center(self, caplog):
        cfg = DirectConfig(bounds=[(-1.0, 3.0), (0.0, 2.0)], max_evaluations=20)
        with caplog.at_level(logging.WARNING, logger="kincal.direct"):
            result = minimize(lambda x: np.nan, cfg)
        assert any("NaN" in message for message in caplog.messages)
        assert result.best_value == np.inf
        np.testing.assert_array_equal(result.best_point, [1.0, 1.0])
        assert result.best_index == 0
        assert result.evaluations_used == 20

    @pytest.mark.parametrize("variant, expected", [
        ("direct", [(9, 9), (15, 9), (3, 9), (9, 15), (9, 3), (3, 15), (3, 3), (15, 15),
                    (15, 3), (5, 3), (1, 3), (3, 5), (3, 1), (11, 3), (7, 3), (9, 5),
                    (9, 1), (5, 9), (1, 9), (3, 11), (3, 7), (5, 5), (5, 1), (11, 9),
                    (7, 9)]),
        ("direct_l", [(9, 9), (15, 9), (3, 9), (9, 15), (9, 3), (3, 15), (3, 3), (15, 15),
                      (15, 3), (5, 3), (1, 3), (3, 5), (3, 1), (11, 3), (7, 3), (9, 5),
                      (9, 1), (5, 5), (5, 1), (5, 9), (1, 9), (3, 11), (3, 7), (7, 5),
                      (7, 1)]),
    ])
    def test_frozen_evaluation_order(self, variant, expected):
        # unit points in eighteenths: selected index, dimension, plus
        # before minus
        cfg = DirectConfig(bounds=[(0.0, 1.0)] * 2, max_evaluations=25, variant=variant)
        result = minimize(sphere, cfg, collect_trace=True)
        np.testing.assert_allclose([p for p, _ in result.trace], np.array(expected) / 18.0,
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("variant, expected", [
        ("direct", [
            (27, 27, 27, 27), (45, 27, 27, 27), (9, 27, 27, 27), (27, 45, 27, 27),
            (27, 9, 27, 27), (27, 27, 45, 27), (27, 27, 9, 27), (27, 27, 27, 45),
            (27, 27, 27, 9), (9, 45, 27, 27), (9, 9, 27, 27), (9, 27, 45, 27),
            (9, 27, 9, 27), (9, 27, 27, 45), (9, 27, 27, 9), (45, 45, 27, 27),
            (45, 9, 27, 27), (45, 27, 45, 27), (45, 27, 9, 27), (45, 27, 27, 45),
            (45, 27, 27, 9), (27, 45, 27, 45), (27, 9, 27, 45), (27, 27, 45, 45),
            (27, 27, 9, 45), (9, 45, 45, 27), (9, 45, 9, 27), (9, 45, 27, 45),
            (9, 45, 27, 9), (27, 45, 27, 9), (27, 9, 27, 9), (27, 27, 45, 9),
            (27, 27, 9, 9), (9, 9, 45, 27), (9, 9, 9, 27), (9, 9, 27, 45),
            (9, 9, 27, 9), (9, 27, 9, 45), (9, 27, 9, 9), (27, 45, 45, 45),
            (27, 45, 9, 45), (9, 45, 45, 45), (9, 45, 9, 45), (27, 45, 45, 27),
            (27, 45, 9, 27), (33, 27, 27, 27), (21, 27, 27, 27), (27, 33, 27, 27),
            (27, 21, 27, 27), (27, 27, 33, 27), (27, 27, 21, 27), (27, 27, 27, 33),
            (27, 27, 27, 21), (15, 27, 27, 45), (3, 27, 27, 45), (9, 33, 27, 45),
            (9, 21, 27, 45), (9, 27, 33, 45), (9, 27, 21, 45), (9, 27, 27, 51)]),
        ("direct_l", [
            (27, 27, 27, 27), (45, 27, 27, 27), (9, 27, 27, 27), (27, 45, 27, 27),
            (27, 9, 27, 27), (27, 27, 45, 27), (27, 27, 9, 27), (27, 27, 27, 45),
            (27, 27, 27, 9), (9, 45, 27, 27), (9, 9, 27, 27), (9, 27, 45, 27),
            (9, 27, 9, 27), (9, 27, 27, 45), (9, 27, 27, 9), (45, 45, 27, 27),
            (45, 9, 27, 27), (45, 27, 45, 27), (45, 27, 9, 27), (45, 27, 27, 45),
            (45, 27, 27, 9), (27, 45, 27, 45), (27, 9, 27, 45), (27, 27, 45, 45),
            (27, 27, 9, 45), (9, 45, 45, 27), (9, 45, 9, 27), (9, 45, 27, 45),
            (9, 45, 27, 9), (27, 45, 27, 9), (27, 9, 27, 9), (27, 27, 45, 9),
            (27, 27, 9, 9), (9, 27, 9, 45), (9, 27, 9, 9), (9, 9, 45, 27),
            (9, 9, 9, 27), (9, 9, 27, 45), (9, 9, 27, 9), (27, 45, 45, 45),
            (27, 45, 9, 45), (45, 45, 45, 27), (45, 45, 9, 27), (45, 45, 27, 45),
            (45, 45, 27, 9), (9, 45, 45, 45), (9, 45, 9, 45), (27, 45, 45, 27),
            (27, 45, 9, 27), (33, 27, 27, 27), (21, 27, 27, 27), (27, 33, 27, 27),
            (27, 21, 27, 27), (27, 27, 33, 27), (27, 27, 21, 27), (27, 27, 27, 33),
            (27, 27, 27, 21), (45, 9, 45, 27), (45, 9, 9, 27), (45, 9, 27, 45)]),
    ])
    def test_frozen_evaluation_order_4d_with_ties_and_inf(self, variant, expected):
        # unit points in 54ths. The objective is +inf where x0 > 0.8 and a
        # squared distance floored to eighths elsewhere, so most values tie.
        def terraced(x):
            if x[0] > 0.8:
                return np.inf
            return np.floor(8.0 * ((x - [0.3, 0.6, 0.4, 0.7]) ** 2).sum()) / 8.0

        cfg = DirectConfig(bounds=[(0.0, 1.0)] * 4, max_evaluations=60, variant=variant)
        result = minimize(terraced, cfg, collect_trace=True)
        np.testing.assert_allclose([p for p, _ in result.trace], np.array(expected) / 54.0,
                                   rtol=0, atol=1e-15)
        assert np.isinf([v for _, v in result.trace]).any()
        np.testing.assert_array_equal(result.best_point, [0.5] * 4)
        assert result.best_value == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DirectConfig(bounds=[(0.0, 1.0)], max_evaluations=0)
        with pytest.raises(ValueError):
            DirectConfig(bounds=[(0.0, 1.0)], variant="newton")
        with pytest.raises(ValueError):
            DirectConfig(bounds=[(1.0, 0.0)])
        with pytest.raises(ValueError):
            DirectConfig(bounds=[])
        # an infinite box would have DIRECT evaluate f at inf
        with pytest.raises(ValueError):
            DirectConfig(bounds=[(0.0, math.inf)], max_evaluations=5)
        with pytest.raises(ValueError):
            minimize(sphere, DirectConfig(max_evaluations=5))


class TestMinimizeBatch:
    # the 2-D budget-25 cases are the frozen evaluation order above; every
    # case ends with a sweep cut short by the budget
    @pytest.mark.parametrize("dim, budget, variant", [
        (2, 25, "direct"), (2, 25, "direct_l"), (3, 40, "direct"), (1, 10, "direct"),
    ])
    def test_one_call_per_sweep_within_budget(self, dim, budget, variant):
        cfg = DirectConfig(bounds=[(0.0, 1.0)] * dim, max_evaluations=budget, variant=variant)
        calls, planned = [], []

        def sphere_batch(points):
            assert points.shape[1] == dim
            assert 0 < len(points) <= budget - sum(calls)
            calls.append(len(points))
            return ((points - 0.3) ** 2).sum(axis=1)

        def on_iteration(_, rects, selected):
            planned.append(sum(2 * int((rects[i].depth == rects[i].depth.min()).sum())
                               for i in selected))

        batch = minimize_batch(sphere_batch, cfg, on_iteration=on_iteration,
                               collect_trace=True)
        # the box center rides in the first sweep's call
        sweeps = [n for n in planned if n]
        assert len(calls) == len(sweeps)
        assert calls[0] == 1 + sweeps[0] and calls[1:-1] == sweeps[1:-1]
        assert calls[-1] < sweeps[-1] and sum(calls) == budget

        scalar = minimize(sphere, cfg, collect_trace=True)
        assert len(batch.trace) == len(scalar.trace) == batch.evaluations_used
        for (x_b, v_b), (x_s, v_s) in zip(batch.trace, scalar.trace):
            np.testing.assert_array_equal(x_b, x_s)
            assert v_b == v_s
        np.testing.assert_array_equal(batch.best_point, scalar.best_point)
        assert batch.best_value == scalar.best_value

    @pytest.mark.parametrize("budget, splits, depths", [
        (1, [], [(0, 0)]),                      # the center alone, no sweep
        (4, [[0]], [(1, 0)] * 3),               # second dimension cut short
        (5, [[0]], [(1, 0)] * 2 + [(1, 1)] * 3),  # the whole first sweep
    ])
    def test_first_call_carries_center_and_first_sweep(self, budget, splits, depths):
        cfg = DirectConfig(bounds=[(0.0, 1.0)] * 2, max_evaluations=budget)
        calls, snapshots = [], []

        def sphere_batch(points):
            calls.append(points.copy())
            return ((points - 0.3) ** 2).sum(axis=1)

        def on_iteration(i, rects, selected):
            snapshots.append((i, sorted(tuple(r.depth.tolist()) for r in rects), selected))

        result = minimize_batch(sphere_batch, cfg, on_iteration=on_iteration)
        assert len(calls) == 1 and len(calls[0]) == budget
        np.testing.assert_array_equal(calls[0][0], [0.5, 0.5])
        # on_iteration sees the center alone before the first split
        assert snapshots[:-1] == [(0, [(0, 0)], s) for s in splits]
        assert snapshots[-1] == (len(splits), depths, [])
        assert result.evaluations_used == budget

    def test_rejects_wrong_number_of_values(self):
        cfg = DirectConfig(bounds=[(0.0, 1.0)] * 2, max_evaluations=9)
        with pytest.raises(ValueError, match="values for"):
            minimize_batch(lambda points: np.zeros(len(points) + 1), cfg)


class TestSweeps:
    def test_send_reproduces_minimize_batch(self):
        for dim, budget, variant in ((1, 10, "direct"), (2, 25, "direct_l"), (3, 40, "direct")):
            cfg = DirectConfig(bounds=[(-1.0, 2.0)] * dim, max_evaluations=budget,
                               variant=variant)
            blocks = []
            run = sweeps(cfg)
            try:
                points = next(run)
                while True:
                    blocks.append(len(points))
                    points = run.send([sphere(x) for x in points])
            except StopIteration as done:
                trace = done.value
            batch = minimize_batch(lambda points: [sphere(x) for x in points], cfg,
                                   collect_trace=True)
            assert sum(blocks) == len(trace) == batch.evaluations_used == budget
            for (x_g, v_g), (x_b, v_b) in zip(trace, batch.trace):
                np.testing.assert_array_equal(x_g, x_b)
                assert v_g == v_b

    @pytest.mark.parametrize("extra", [1, -1])
    def test_rejects_wrong_number_of_values(self, extra):
        run = sweeps(DirectConfig(bounds=[(0.0, 1.0)] * 2, max_evaluations=9))
        points = next(run)
        with pytest.raises(ValueError, match=f"{len(points) + extra} values for {len(points)}"):
            run.send([0.0] * (len(points) + extra))

    def test_budget_of_one_yields_the_center_alone(self):
        snapshots = []
        run = sweeps(DirectConfig(bounds=[(0.0, 4.0), (-1.0, 1.0)], max_evaluations=1),
                     on_iteration=lambda i, rects, sel: snapshots.append((i, len(rects), sel)))
        np.testing.assert_array_equal(next(run), [[2.0, 0.0]])
        with pytest.raises(StopIteration) as done:
            run.send([7.0])
        assert len(done.value.value) == 1 and done.value.value[0][1] == 7.0
        assert snapshots == [(0, 1, [])]

    def test_objective_error_reaches_the_caller(self):
        class Failure(Exception):
            pass

        error = Failure("objective failed")
        calls = []

        def failing(points):
            calls.append(len(points))
            if len(calls) == 3:
                raise error
            return ((points - 0.3) ** 2).sum(axis=1)

        with pytest.raises(Failure) as caught:
            minimize_batch(failing, DirectConfig(bounds=[(0.0, 1.0)] * 2, max_evaluations=40))
        assert caught.value is error and len(calls) == 3


def rugged(x):
    """Pure-Python objective on (-1, 2)^dim: +inf where x0 > 1.4, NaN
    where the last coordinate is below -0.4, elsewhere the squared distance
    to (0.2, 0.5, ..., 0.5) floored to sixteenths. Many values tie, the two
    offsets of a side along every dimension but the first among them, so
    the variants part ways; the first sweep already reaches both regions."""
    x = [float(v) for v in x]
    if x[0] > 1.4:
        return math.inf
    if x[-1] < -0.4:
        return math.nan
    return math.floor(16.0 * sum((v - (0.5 if i else 0.2)) ** 2
                                 for i, v in enumerate(x))) / 16.0


def sweeps_digest(dim, variant):
    """sha256 over rugged runs at budgets 1, 2·dim, 1 + 2·dim and 37:
    each block's shape, every on_iteration argument (centers and depths
    as bytes, values as hex) and the returned trace's point bytes and
    values."""
    digest = hashlib.sha256()

    def snapshot(iteration, rects, selected):
        digest.update(repr((iteration, selected)).encode())
        for rect in rects:
            digest.update(rect.center.tobytes() + rect.depth.astype(np.int64).tobytes())
            digest.update(float(rect.value).hex().encode())

    for budget in sorted({1, 2 * dim, 1 + 2 * dim, 37}):
        cfg = DirectConfig(bounds=[(-1.0, 2.0)] * dim, max_evaluations=budget,
                           variant=variant)
        run = sweeps(cfg, snapshot)
        points = next(run)
        try:
            while True:
                digest.update(repr(points.shape).encode())
                points = run.send([rugged(x) for x in points])
        except StopIteration as done:
            trace = done.value
        for x, value in trace:
            digest.update(x.tobytes() + value.hex().encode())
    return digest.hexdigest()


class TestBitForBit:
    # digests taken when each run center was a numpy array; a change to
    # DIRECT's bookkeeping must not move a bit. At dim 7 the budget of 37
    # ends before the variants part ways.
    DIGESTS = {
        (1, "direct"): "be500fa7a12713e669ecdc6a18b3c677ff0b6e77f4c96bbb7283f58796c7a21c",
        (1, "direct_l"): "1ee99cacd2e8a3a01cc2981079ade4bf912b89e5896d945e1cce811efdf85ef4",
        (2, "direct"): "e0aa49850c972a779e175b825ee0c6ea4bb38d2f2c1c972f3ed34ae52cd3b505",
        (2, "direct_l"): "2436fdaa73cbfe1105a51051333e8c6f20d6bc9baa5ad101ffcfd97ad0329987",
        (3, "direct"): "e3d7027b91bd4c27fd6c370b39ea033dc5015d86924ebed467d8128d72dd8c6e",
        (3, "direct_l"): "452f9d461a9e5c013fdb0a753d09218092f1f22f3784e5937ae79b89028b3f66",
        (4, "direct"): "0e68240dccf332967a0ba08dfef9bfffc8c2c749bc934cacbf9eed5eecc311bb",
        (4, "direct_l"): "363677c5866c1d7e1579fe4b78e7dd1c882aa6dc34263e6382195999a1a25f59",
        (5, "direct"): "589a308337a34c539edc0c07549a765873139c2ada09be32d3200fdebab1dd4e",
        (5, "direct_l"): "4887c72b0004653f5edf793a37ad581c13259c8c60b30006d8f98ae2bf3e38f3",
        (6, "direct"): "9a3a8ee83ca7d926491113c0cc8d315e0f6fa6f0a7b6fe2b39f37bc0e145e4ac",
        (6, "direct_l"): "cfd3c4b3a6a8c54e94e1b6419bd9ae8ce3cb7dac88a40402bb9b21e2199cfd60",
        (7, "direct"): "6c99c52357d50288fbe5ad28c08692530d0df6acef6b999bc440dea394d3a74c",
        (7, "direct_l"): "6c99c52357d50288fbe5ad28c08692530d0df6acef6b999bc440dea394d3a74c",
    }

    @pytest.mark.parametrize("dim", range(1, 8))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_traces_blocks_and_snapshots_are_frozen(self, dim, variant, caplog):
        with caplog.at_level(logging.ERROR, logger="kincal.direct"):
            assert sweeps_digest(dim, variant) == self.DIGESTS[dim, variant]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_callback_that_mutates_its_views_leaves_the_run_alone(self, variant):
        def vandal(_, rects, selected):
            for rect in rects:
                rect.center += 1.0
                rect.depth += 1

        cfg = DirectConfig(bounds=[(-1.0, 2.0)] * 3, max_evaluations=60, variant=variant)
        calm = minimize(rugged, cfg, collect_trace=True)
        disturbed = minimize(rugged, cfg, on_iteration=vandal, collect_trace=True)
        assert disturbed.evaluations_used == calm.evaluations_used == 60
        for (x_d, v_d), (x_c, v_c) in zip(disturbed.trace, calm.trace):
            np.testing.assert_array_equal(x_d, x_c)
            assert v_d == v_c
        np.testing.assert_array_equal(disturbed.best_point, calm.best_point)
        assert (disturbed.best_index, disturbed.best_value) == (calm.best_index,
                                                                 calm.best_value)


class TestVariantStructure:
    def test_direct_l_selects_no_more_than_direct(self):
        snapshots = []
        cfg = DirectConfig(bounds=[(0.0, 1.0)] * 2, max_evaluations=300)
        minimize(sphere, cfg,
                 on_iteration=lambda i, rects, sel: snapshots.append(list(rects)))
        assert len(snapshots) > 3
        for rects in snapshots:
            f_min = min(r.value for r in rects)
            plain = potentially_optimal(rects, f_min, 1e-4, "direct")
            local = potentially_optimal(rects, f_min, 1e-4, "direct_l")
            assert len(local) <= len(plain)
            assert set(local) <= set(plain)
            classes = [rects[i].measure_class() for i in local]
            assert len(classes) == len(set(classes))
