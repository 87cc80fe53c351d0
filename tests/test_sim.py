import logging
import math

import numpy as np
import pytest

from kincal.fov import FovConfig
from kincal.kinematics import ChainParams, Pose, Twist, observe
from kincal.sim import (DEFAULT_JOINT_LIMIT, FIXTURE_NAMES, GroundTruth,
                        builtin_chain, fixture_description, make_rng, measure,
                        metrics, random_config)


def single_z_joint(obs_variance=0.0, fov=None, limit=np.pi):
    params = ChainParams([Twist([0.0, 0.0, 1.0], [0.0, 0.0, 0.0])],
                         Pose(np.eye(3), [1.0, 0.0, 0.0]))
    return GroundTruth(params, [[-limit, limit]], fov=fov,
                       obs_variance=obs_variance)


class TestFov:
    def test_boundaries(self):
        fov = FovConfig([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], np.pi / 4,
                        near=1.0, far=2.0)
        assert fov.contains([1.0, 0.0, 0.0])       # near edge is inside
        assert fov.contains([2.0, 0.0, 0.0])       # far edge is inside
        assert not fov.contains([0.999, 0.0, 0.0])
        assert not fov.contains([2.001, 0.0, 0.0])
        assert not fov.contains([1.0, 1.0, 0.0])   # exactly on the cone edge
        assert fov.contains([1.0, 0.99, 0.0])

    def test_zero_half_angle_sees_nothing(self):
        fov = FovConfig([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 0.0)
        assert not fov.contains([1.0, 0.0, 0.0])
        assert not fov.contains([0.0, 0.0, 0.0])

    def test_camera_point_itself(self):
        fov = FovConfig([1.0, 2.0, 3.0], [0.0, 0.0, 1.0], 0.5)
        assert fov.contains([1.0, 2.0, 3.0])
        assert not FovConfig([1.0, 2.0, 3.0], [0.0, 0.0, 1.0], 0.5,
                             near=0.1).contains([1.0, 2.0, 3.0])

    def test_axis_normalized(self):
        fov = FovConfig([0.0, 0.0, 0.0], [0.0, 0.0, 10.0], 0.3)
        np.testing.assert_allclose(fov.axis, [0.0, 0.0, 1.0])

    def test_roundtrip(self):
        fov = FovConfig([1.0, 0.0, -2.0], [0.0, 1.0, 0.0], 0.7, near=0.2)
        again = FovConfig.from_dict(fov.to_dict())
        np.testing.assert_array_equal(again.camera_position, fov.camera_position)
        np.testing.assert_array_equal(again.axis, fov.axis)
        assert (again.half_angle, again.near) == (0.7, 0.2)
        assert math.isinf(again.far)
        finite = FovConfig([0.0] * 3, [1.0, 0.0, 0.0], 0.7, far=3.0)
        assert FovConfig.from_dict(finite.to_dict()).far == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FovConfig([0.0] * 3, [0.0] * 3, 0.5)
        with pytest.raises(ValueError):
            FovConfig([0.0] * 3, [1.0, 0.0, 0.0], -0.1)
        with pytest.raises(ValueError):
            FovConfig([0.0] * 3, [1.0, 0.0, 0.0], 4.0)
        with pytest.raises(ValueError):
            FovConfig([0.0] * 3, [1.0, 0.0, 0.0], 0.5, near=2.0, far=1.0)
        with pytest.raises(ValueError, match="missing \\['camera_position'\\]"):
            FovConfig.from_dict({"camera": [0.0] * 3, "axis": [1.0, 0.0, 0.0],
                                 "half_angle": 0.5})


class TestMeasure:
    def test_noiseless_is_exact(self):
        gt = single_z_joint()
        q = np.array([0.3])
        np.testing.assert_array_equal(measure(gt, q, make_rng(0)),
                                      observe(gt.params, q))

    def test_noise_statistics(self):
        gt = single_z_joint(obs_variance=1e-4)
        rng = make_rng(7)
        q = np.zeros(1)
        true_pos = observe(gt.params, q)
        samples = np.array([measure(gt, q, rng) for _ in range(100_000)])
        residuals = samples - true_pos
        assert np.abs(residuals.mean(axis=0)).max() < 5e-4
        np.testing.assert_allclose(residuals.var(axis=0), 1e-4, rtol=0.05)

    def test_seed_reproducibility(self):
        gt = single_z_joint(obs_variance=1e-2)
        qs = [np.array([x]) for x in (0.1, -0.4, 0.9)]
        first = [measure(gt, q, make_rng(3)) for q in qs]
        second = [measure(gt, q, make_rng(3)) for q in qs]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_blocked_view_returns_none(self):
        fov = FovConfig([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 0.0)
        gt = single_z_joint(fov=fov)
        assert measure(gt, np.zeros(1), make_rng(0)) is None

    def test_no_noise_consumed_when_blocked(self):
        # only points with x > 0 are visible
        fov = FovConfig([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], np.pi / 2)
        gt = single_z_joint(obs_variance=1e-2, fov=fov)
        blocked, visible = np.array([math.pi]), np.array([0.0])
        assert measure(gt, blocked, make_rng(11)) is None

        rng = make_rng(11)
        assert measure(gt, blocked, rng) is None
        after_block = measure(gt, visible, rng)
        fresh = measure(gt, visible, make_rng(11))
        np.testing.assert_array_equal(after_block, fresh)

    def test_visibility_matches_fov_predicate(self):
        fov = FovConfig([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], np.pi / 4,
                        near=0.1, far=2.0)
        gt = single_z_joint(fov=fov)
        rng = make_rng(5)
        for q in np.linspace(-np.pi, np.pi, 61):
            got = measure(gt, np.array([q]), rng)
            expected = fov.contains(observe(gt.params, np.array([q])))
            assert (got is not None) == expected

    def test_input_validation(self):
        gt = single_z_joint(limit=0.5)
        with pytest.raises(ValueError):
            measure(gt, np.zeros(2), make_rng(0))
        with pytest.raises(ValueError):
            measure(gt, np.array([0.6]), make_rng(0))


class TestRandomConfig:
    def test_bounds_and_determinism(self):
        gt = builtin_chain("arm6")
        rng = make_rng(21)
        draws = np.array([random_config(gt, rng) for _ in range(200)])
        assert (draws >= gt.joint_limits[:, 0]).all()
        assert (draws <= gt.joint_limits[:, 1]).all()
        again = np.array([random_config(gt, make_rng(21))
                          for _ in range(1)])
        np.testing.assert_array_equal(draws[0], again[0])

    def test_uniform_over_shifted_box(self):
        params = builtin_chain("planar3").params
        gt = GroundTruth(params, np.tile([0.2, 0.8], (3, 1)))
        rng = make_rng(2)
        draws = np.array([random_config(gt, rng) for _ in range(4000)])
        np.testing.assert_allclose(draws.mean(axis=0), 0.5, atol=0.01)

    def test_degenerate_limits(self):
        params = builtin_chain("planar3").params
        gt = GroundTruth(params, np.zeros((3, 2)))
        np.testing.assert_array_equal(random_config(gt, make_rng(0)), np.zeros(3))


class TestFixtures:
    def test_inventory(self):
        assert FIXTURE_NAMES == ("planar3", "arm6", "arm12")
        for name, joints in (("planar3", 3), ("arm6", 6), ("arm12", 12)):
            gt = builtin_chain(name)
            assert gt.n_joints == joints
            assert fixture_description(name)
            for twist in gt.params.twists:
                assert np.linalg.norm(twist.w) == pytest.approx(1.0)
            np.testing.assert_array_equal(
                gt.joint_limits,
                np.tile([-DEFAULT_JOINT_LIMIT, DEFAULT_JOINT_LIMIT], (joints, 1)))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_chain("arm13")

    def test_planar3_geometry(self):
        gt = builtin_chain("planar3")
        # limits widened so the probe angles are reachable
        gt = GroundTruth(gt.params, np.tile([-np.pi, np.pi], (3, 1)))
        np.testing.assert_allclose(observe(gt.params, np.zeros(3)),
                                   [0.7, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(observe(gt.params, [np.pi / 2, 0.0, 0.0]),
                                   [0.0, 0.7, 0.0], atol=1e-14)
        np.testing.assert_allclose(observe(gt.params, [0.0, np.pi / 2, 0.0]),
                                   [0.3, 0.4, 0.0], atol=1e-14)
        np.testing.assert_allclose(observe(gt.params, [0.0, 0.0, np.pi]),
                                   [0.4, 0.0, 0.0], atol=1e-14)

    def test_arm_zero_configs(self):
        np.testing.assert_allclose(observe(builtin_chain("arm6").params,
                                           np.zeros(6)), [0.65, 0.0, 0.3])
        np.testing.assert_allclose(observe(builtin_chain("arm12").params,
                                           np.zeros(12)), [0.62, 0.15, 0.35])

    def test_arm6_workspace_bounded(self):
        gt = builtin_chain("arm6")
        rng = make_rng(9)
        configs = rng.uniform(gt.joint_limits[:, 0], gt.joint_limits[:, 1],
                              size=(10_000, 6))
        for q in configs[:500]:
            assert np.linalg.norm(observe(gt.params, q)) <= 1.2


class TestMetrics:
    def test_exact_estimate(self):
        gt = builtin_chain("planar3")
        assert metrics(gt.params.to_vector(), gt) == (0.0, 0.0)

    def test_scale_changes_location_only(self):
        gt = builtin_chain("planar3")
        vec = gt.params.to_vector() * 2.0
        orientation, location = metrics(vec, gt)
        assert orientation == pytest.approx(0.0, abs=1e-12)
        # each axis point w x v scales by 4; lines stay parallel, so the
        # per-joint distance is 3 |w x v| = 3 * (0, 0.3, 0.55) from the base
        assert location == pytest.approx((0.0 + 0.9 + 1.65) / 3, abs=1e-12)

    def test_tilted_middle_axis(self):
        gt = builtin_chain("planar3")
        vec = gt.params.to_vector().copy()
        phi = 0.1
        vec[6:9] = [0.0, -math.sin(phi), math.cos(phi)]  # axis tilted about x
        orientation, location = metrics(vec, gt)
        assert orientation == pytest.approx(2 * phi / 3, abs=1e-12)
        # joint 1 line now passes through (0.3 cos(phi), 0, 0)
        assert location == pytest.approx(0.1 * (1 - math.cos(phi)), abs=1e-12)

    def test_tilted_base_axis_of_six_joints(self):
        gt = builtin_chain("arm6")
        vec = gt.params.to_vector().copy()
        phi = 0.1
        w = np.array([0.0, -math.sin(phi), math.cos(phi)])  # axis tilted about x
        vec[0:6] = np.concatenate([w, np.cross([0.0, 0.0, 0.3], w)])
        orientation, location = metrics(vec, gt)
        # of the 15 pairs, joint 0 with the y axes of joints 1, 3 and 5
        # changes by phi; its pairs with the x axes of joints 2 and 4 keep pi/2
        assert orientation == pytest.approx(phi / 5, abs=1e-12)
        assert location == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_axis_penalized_and_logged(self, caplog):
        gt = builtin_chain("planar3")
        vec = gt.params.to_vector().copy()
        vec[6:12] = 0.0
        with caplog.at_level(logging.WARNING, logger="kincal.sim"):
            orientation, location = metrics(vec, gt)
        assert orientation == pytest.approx(math.pi / 3, abs=1e-12)
        assert location == pytest.approx(0.1, abs=1e-12)
        assert any("degenerate" in m for m in caplog.messages)

    def test_translation_offset(self):
        gt = single_z_joint()
        vec = gt.params.to_vector().copy()
        vec[3:6] = [0.2, 0.0, 0.0]  # v = p x w for p = (0, 0.2, 0)
        orientation, location = metrics(vec, gt)
        assert orientation == 0.0
        assert location == pytest.approx(0.2, abs=1e-12)

    def test_shape_check(self):
        gt = builtin_chain("planar3")
        with pytest.raises(ValueError):
            metrics(np.zeros(17), gt)


class TestGroundTruthValidation:
    def test_limit_shape(self):
        params = builtin_chain("planar3").params
        with pytest.raises(ValueError):
            GroundTruth(params, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            GroundTruth(params, np.tile([1.0, -1.0], (3, 1)))

    def test_unit_axis_required(self):
        params = ChainParams([Twist([0.0, 0.0, 2.0], [0.0, 0.0, 0.0])],
                             Pose(np.eye(3), [1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            GroundTruth(params, [[-1.0, 1.0]])

    def test_negative_variance(self):
        params = builtin_chain("planar3").params
        with pytest.raises(ValueError):
            GroundTruth(params, np.tile([-1.0, 1.0], (3, 1)), obs_variance=-1.0)
