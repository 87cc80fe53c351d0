import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from kincal.kinematics import (ChainObservationModel, ChainParams, Pose, Twist,
                               _chain_terms, _twist_terms, chain_from_dict, chain_to_dict,
                               load_chain, observation_jacobian, observation_jacobian_fd,
                               observe, save_chain, skew, twist_exp)
from kincal.sim import FIXTURE_NAMES, builtin_chain


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_twist(rng, unit_w=True):
    w = rng.normal(size=3)
    if unit_w:
        w = unit(w)
    return Twist(w, rng.normal(size=3))


def random_chain(rng, n):
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(rot) < 0:
        rot[:, 0] *= -1
    return ChainParams([random_twist(rng) for _ in range(n)],
                       Pose(rot, rng.normal(size=3)))


def stepwise_pose(chain, q):
    """4x4 end-effector pose: the product of twist_exp(xi, angle).matrix()
    over the joints, proximal first, times the zero pose."""
    pose = np.eye(4)
    for xi, angle in zip(chain.twists, q):
        pose = pose @ twist_exp(xi, angle).matrix()
    return pose @ chain.zero_pose.matrix()


def twist_exp_oracle(xi, angle):
    """Matrix exponential of the 4x4 twist generator."""
    gen = np.zeros((4, 4))
    gen[:3, :3] = skew(xi.w)
    gen[:3, 3] = xi.v
    return expm(gen * angle)


class TestTwistExp:
    def test_z_axis_quarter_turn(self):
        pose = twist_exp(Twist([0, 0, 1], [0, 0, 0]), np.pi / 2)
        np.testing.assert_allclose(pose.rotation,
                                   [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)
        np.testing.assert_allclose(pose.translation, 0.0, atol=1e-15)

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            xi = random_twist(rng)
            angle = rng.uniform(-2 * np.pi, 2 * np.pi)
            got = twist_exp(xi, angle).matrix()
            np.testing.assert_allclose(got, twist_exp_oracle(xi, angle),
                                       rtol=0, atol=1e-9)

    def test_zero_axis_is_pure_translation(self):
        pose = twist_exp(Twist([0, 0, 0], [1.0, -2.0, 0.5]), 0.25)
        np.testing.assert_array_equal(pose.rotation, np.eye(3))
        np.testing.assert_allclose(pose.translation, [0.25, -0.5, 0.125])

    def test_axis_through_point_is_fixed(self):
        # v = p x w pins the axis through p; p must not move
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = unit(rng.normal(size=3))
            p = rng.normal(size=3)
            pose = twist_exp(Twist(w, np.cross(p, w)), rng.uniform(-3, 3))
            np.testing.assert_allclose(pose.rotation @ p + pose.translation, p, atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            twist_exp(Twist([np.nan, 0, 1], [0, 0, 0]), 0.1)
        with pytest.raises(ValueError):
            twist_exp(Twist([0, 0, 1], [0, 0, 0]), np.inf)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(-6.0, 6.0), st.floats(-6.0, 6.0))
    def test_composition_is_additive(self, seed, a, b):
        rng = np.random.default_rng(seed)
        xi = random_twist(rng)
        lhs = twist_exp(xi, a).matrix() @ twist_exp(xi, b).matrix()
        rhs = twist_exp(xi, a + b).matrix()
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(-6.283, 6.283))
    def test_result_is_rigid(self, seed, angle):
        xi = random_twist(np.random.default_rng(seed))
        pose = twist_exp(xi, angle)
        assert pose.rigidity_defect() <= 1e-9
        identity = pose.matrix() @ twist_exp(xi, -angle).matrix()
        np.testing.assert_allclose(identity, np.eye(4), atol=1e-9)


class TestForwardKinematics:
    def test_zero_config_returns_zero_pose_exactly(self):
        rng = np.random.default_rng(5)
        chain = random_chain(rng, 4)
        np.testing.assert_array_equal(observe(chain, np.zeros(4)),
                                      chain.zero_pose.translation)

    def test_planar_2r_frozen_values(self):
        chain = ChainParams(
            [Twist([0, 0, 1], [0, 0, 0]), Twist([0, 0, 1], [0, -0.5, 0])],
            Pose(np.eye(3), [1.0, 0, 0]))
        np.testing.assert_allclose(observe(chain, [np.pi / 2, 0.0]), [0, 1, 0],
                                   atol=1e-12)
        np.testing.assert_allclose(observe(chain, [0.0, np.pi / 2]), [0.5, 0.5, 0],
                                   atol=1e-12)

    def test_matches_stepwise_composition(self):
        rng = np.random.default_rng(17)
        for n in (1, 3, 6):
            chain = random_chain(rng, n)
            q = rng.uniform(-2, 2, n)
            np.testing.assert_allclose(observe(chain, q), stepwise_pose(chain, q)[:3, 3],
                                       atol=1e-12)

    def test_joint_order_matters(self):
        rng = np.random.default_rng(23)
        chain = random_chain(rng, 3)
        flipped = ChainParams(list(reversed(chain.twists)), chain.zero_pose)
        q = np.array([0.4, -0.7, 1.1])
        a = observe(chain, q)
        b = observe(flipped, q[::-1])
        assert np.abs(a - b).max() > 1e-3

    def test_dimension_mismatch_rejected(self):
        chain = random_chain(np.random.default_rng(2), 3)
        with pytest.raises(ValueError):
            observe(chain, np.zeros(4))
        with pytest.raises(ValueError):
            observe(chain, np.zeros(2))
        with pytest.raises(ValueError):
            observe(chain, np.zeros((1, 3)))
        with pytest.raises(ValueError):
            observe(chain, [0.1, np.nan, 0.2])
        model = ChainObservationModel.from_chain(chain)
        with pytest.raises(ValueError):
            model.predict(np.zeros(12), np.zeros(3))
        with pytest.raises(ValueError):
            model.predict(np.full(18, np.inf), np.zeros(3))
        with pytest.raises(ValueError):
            model.predict_batch(chain.to_vector(), np.zeros(3))
        with pytest.raises(ValueError):
            model.predict_batch(chain.to_vector(), np.zeros((2, 4)))


class TestObservationJacobian:
    def test_analytic_matches_finite_difference(self):
        rng = np.random.default_rng(29)
        for n in (1, 2, 6):
            for trial in range(10):
                chain = random_chain(rng, n)
                q = rng.uniform(-1.5, 1.5, n)
                smooth = np.ones(6 * n, dtype=bool)
                if trial == 8:
                    q[-1] = 1e-9                        # tiny rotation angle
                if trial == 9:
                    # a zero axis is the pure-translation limit; a step in w
                    # leaves it, so only its v columns have a derivative
                    chain.twists[0] = Twist(np.zeros(3), rng.normal(size=3))
                    smooth[:3] = False
                jac = observation_jacobian(chain, q)
                ref = observation_jacobian_fd(chain, q)
                tol = np.maximum(1e-5 * np.abs(ref), 1e-8)
                assert (np.abs(jac - ref) <= tol)[:, smooth].all()

    def test_zero_angle_joint_has_zero_columns(self):
        # e^{xi * 0} = I for every twist, so those parameters are blind
        rng = np.random.default_rng(31)
        chain = random_chain(rng, 3)
        q = np.array([0.7, 0.0, 0.0])
        jac = observation_jacobian(chain, q)
        np.testing.assert_allclose(jac[:, 6:12], 0.0, atol=1e-14)
        np.testing.assert_allclose(jac[:, 12:18], 0.0, atol=1e-14)

    def test_mixed_rotating_and_pure_translation_joints(self):
        # _twist_terms holds a pure translation's limit form in its rows,
        # so _chain_terms has no branch; its positions and v-columns must
        # still follow twist_exp's pure-translation branch
        rng = np.random.default_rng(61)
        chain = random_chain(rng, 5)
        chain.twists[1] = Twist(np.zeros(3), rng.normal(size=3))
        chain.twists[3] = Twist(1e-13 * unit(rng.normal(size=3)), rng.normal(size=3))
        configs = rng.uniform(-1.5, 1.5, size=(6, 5))
        positions, jacs = _chain_terms(_twist_terms(chain.to_vector()),
                                       chain.zero_pose.translation, configs, jacobian=True)
        columns = np.arange(30).reshape(5, 6)
        smooth = np.concatenate([columns[:, 3:].ravel(), columns[[0, 2, 4], :3].ravel()])
        for q, position, jac in zip(configs, positions, jacs):
            np.testing.assert_allclose(position, stepwise_pose(chain, q)[:3, 3],
                                       rtol=0, atol=1e-12)
            ref = observation_jacobian_fd(chain, q)
            np.testing.assert_allclose(jac[:, smooth], ref[:, smooth], rtol=1e-5, atol=1e-8)
            np.testing.assert_array_equal(jac[:, columns[[1, 3], :3].ravel()], 0.0)

    def test_terms_keep_no_view_of_x(self):
        # the model caches _twist_terms per x, so they must not alias the
        # caller's array
        rng = np.random.default_rng(67)
        chain = random_chain(rng, 4)
        x = chain.to_vector()
        configs = rng.uniform(-1.5, 1.5, size=(3, 4))
        terms = _twist_terms(x)
        before = _chain_terms(terms, chain.zero_pose.translation, configs, jacobian=True)
        x[:] = rng.normal(size=x.size)
        after = _chain_terms(terms, chain.zero_pose.translation, configs, jacobian=True)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)

    def test_zero_axis_branch(self):
        chain = ChainParams([Twist([0, 0, 0], [0.2, 0, 0.4])],
                            Pose(np.eye(3), [0.5, 0, 0]))
        q = np.array([0.9])
        jac = observation_jacobian(chain, q)
        np.testing.assert_allclose(jac[:, 3:], 0.9 * np.eye(3), atol=1e-15)
        np.testing.assert_allclose(jac[:, :3], 0.0, atol=1e-15)


class TestParameterVector:
    def test_roundtrip_and_layout(self):
        chain = random_chain(np.random.default_rng(37), 3)
        x = chain.to_vector()
        assert x.shape == (18,)
        np.testing.assert_array_equal(x[:3], chain.twists[0].w)
        np.testing.assert_array_equal(x[3:6], chain.twists[0].v)
        np.testing.assert_array_equal(x[12:15], chain.twists[2].w)
        back = ChainParams.from_vector(x, chain.zero_pose)
        np.testing.assert_array_equal(back.to_vector(), x)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            ChainParams.from_vector(np.zeros(7), Pose(np.eye(3), np.zeros(3)))


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        chain = random_chain(np.random.default_rng(41), 4)
        path = tmp_path / "chain.json"
        save_chain(chain, path)
        loaded = load_chain(path)
        np.testing.assert_allclose(loaded.to_vector(), chain.to_vector(), atol=1e-15)
        np.testing.assert_allclose(loaded.zero_pose.matrix(), chain.zero_pose.matrix(),
                                   atol=1e-15)

    def test_layout_is_documented_shape(self):
        chain = random_chain(np.random.default_rng(43), 2)
        doc = chain_to_dict(chain)
        assert len(doc["joints"]) == 2
        assert all(len(j) == 6 for j in doc["joints"])
        assert len(doc["zero_pose"]) == 12
        np.testing.assert_array_equal(np.asarray(doc["zero_pose"][:9]).reshape(3, 3),
                                      chain.zero_pose.rotation)

    def test_bad_documents_rejected(self):
        joint, pose = [0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0]
        chain_from_dict({"joints": [joint], "zero_pose": pose})
        # the config's number rule: finite, and neither a string nor a boolean
        for doc in ({"joints": [], "zero_pose": pose},
                    {"joints": [joint], "zero_pose": pose[:11]},
                    {"joints": [joint[:5]], "zero_pose": pose},
                    [1, 2],
                    "chain",
                    {"joints": [joint[:5] + [{"v": 0}]], "zero_pose": pose},
                    {"joints": [joint], "zero_pose": pose[:11] + [{"t": 0}]},
                    {"joints": [joint[:5] + ["0.5"]], "zero_pose": pose},
                    {"joints": [joint], "zero_pose": pose[:11] + ["0.5"]},
                    {"joints": [[True] + joint[1:]], "zero_pose": pose},
                    {"joints": [joint], "zero_pose": [True] + pose[1:]},
                    {"joints": [joint[:5] + [float("nan")]], "zero_pose": pose},
                    {"joints": [joint], "zero_pose": pose[:11] + [float("inf")]},
                    {"joints": [joint[:5] + [10 ** 400]], "zero_pose": pose}):
            with pytest.raises(ValueError):
                chain_from_dict(doc)

    def test_non_orthonormal_zero_pose_rejected(self):
        doc = {"joints": [[0, 0, 1, 0, 0, 0]],
               "zero_pose": [1, 0, 0, 0, 1, 1e-6, 0, 0, 1, 0, 0, 0]}
        with pytest.raises(ValueError):
            chain_from_dict(doc)


class TestObservationModel:
    def test_predict_and_jacobian_match_chain_ops(self):
        rng = np.random.default_rng(47)
        chain = random_chain(rng, 3)
        model = ChainObservationModel.from_chain(chain)
        x = chain.to_vector()
        q = rng.uniform(-1, 1, 3)
        np.testing.assert_array_equal(model.predict(x, q), observe(chain, q))
        np.testing.assert_array_equal(model.jacobian(x, q),
                                      observation_jacobian(chain, q))

    def test_kept_terms_follow_the_parameters(self):
        # the model keeps the last x's terms; changing x, even in place,
        # must give what a fresh model gives, bit for bit
        rng = np.random.default_rng(59)
        chain = random_chain(rng, 4)
        model = ChainObservationModel.from_chain(chain)
        x = rng.normal(size=24)
        x[:3] = 0.0                       # a pure translation first joint
        configs = rng.uniform(-1.0, 1.0, size=(5, 4))
        for _ in range(3):
            before = x.copy()
            got = model.linearize(x, configs)
            fresh = ChainObservationModel.from_chain(chain).linearize(before, configs)
            for a, b in zip(got, fresh):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(model.predict(x, configs[0]), fresh[0][0])
            np.testing.assert_array_equal(model.jacobian(x, configs[0]), fresh[1][0])
            x += rng.normal(scale=0.1, size=24)
            for a, b in zip(model.linearize(before, configs), fresh):
                np.testing.assert_array_equal(a, b)
        with pytest.raises(ValueError):
            model.linearize(np.full(24, np.nan), configs)
        with pytest.raises(ValueError):
            model.linearize(x[:18], configs)

    def test_predict_after_jacobian_reuses_its_positions(self, monkeypatch):
        # an update asks for jacobian, then predict, at one (x, q): one
        # kernel call, and the same bits as a fresh model's predict
        rng = np.random.default_rng(67)
        chain = random_chain(rng, 4)
        model = ChainObservationModel.from_chain(chain)
        x = rng.normal(size=24)
        q = rng.uniform(-1.0, 1.0, 4)
        kernel_calls = []

        def counted(*args, **kwargs):
            kernel_calls.append(kwargs.get("jacobian", False))
            return _chain_terms(*args, **kwargs)

        monkeypatch.setattr("kincal.kinematics._chain_terms", counted)
        model.jacobian(x, q)
        first = model.predict(x, q)
        first[:] = np.nan                       # callers get a copy
        np.testing.assert_array_equal(model.predict(x, q),
                                      ChainObservationModel.from_chain(chain).predict(x, q))
        assert kernel_calls == [True, False]    # the jacobian and the fresh model
        # another configuration or parameter vector runs the kernel again
        model.predict(x, q + 0.1)
        model.predict(x + 0.1, q)
        assert kernel_calls == [True, False, False, False]

    def test_predict_batch_matches_loop(self):
        rng = np.random.default_rng(53)
        chain = random_chain(rng, 5)
        model = ChainObservationModel.from_chain(chain)
        x = rng.normal(size=30)
        configs = rng.uniform(-1.2, 1.2, size=(40, 5))
        batch = model.predict_batch(x, configs)
        single = np.array([model.predict(x, q) for q in configs])
        np.testing.assert_allclose(batch, single, atol=1e-12)
        _, jac_batch = _chain_terms(_twist_terms(x), chain.zero_pose.translation, configs,
                                    jacobian=True)
        jac_single = np.array([model.jacobian(x, q) for q in configs])
        np.testing.assert_allclose(jac_batch, jac_single, atol=1e-12)


class TestStackedParameters:
    """A stack of parameter vectors gives each row the bits of its own call."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES + ("random",))
    def test_terms_and_positions_match_single_vectors(self, name, perturbed_stack):
        rng = np.random.default_rng(71)
        chain = random_chain(rng, 5) if name == "random" else builtin_chain(name).params
        stack = perturbed_stack(rng, chain.to_vector())
        configs = rng.uniform(-2.0, 2.0, size=(9, chain.n_joints))
        zero = chain.zero_pose.translation
        terms = _twist_terms(stack)
        positions = _chain_terms(terms, zero, configs)
        assert terms.n == chain.n_joints and positions.shape == (len(stack), 9, 3)
        for row, x in enumerate(stack):
            single = _twist_terms(x)
            for field, stacked, alone in zip(single._fields[1:], terms[1:], single[1:]):
                np.testing.assert_array_equal(stacked[row], alone, err_msg=field)
            np.testing.assert_array_equal(positions[row], _chain_terms(single, zero, configs))
        deeper = _chain_terms(_twist_terms(stack.reshape(2, -1, stack.shape[1])), zero, configs)
        np.testing.assert_array_equal(deeper.reshape(positions.shape), positions)

    def test_jacobians_refuse_a_stack(self):
        chain = random_chain(np.random.default_rng(73), 3)
        stack = np.tile(chain.to_vector(), (2, 1))
        with pytest.raises(ValueError, match="stack"):
            _chain_terms(_twist_terms(stack), chain.zero_pose.translation,
                         np.zeros((1, 3)), jacobian=True)
        with pytest.raises(ValueError, match="stack"):
            ChainObservationModel.from_chain(chain).linearize(stack, np.zeros((1, 3)))
        with pytest.raises(ValueError, match="multiple of 6"):
            _twist_terms(np.zeros((2, 17)))

    def test_model_stack_keeps_the_current_terms(self, monkeypatch, perturbed_stack):
        rng = np.random.default_rng(79)
        chain = random_chain(rng, 4)
        model = ChainObservationModel.from_chain(chain)
        x = chain.to_vector()
        q = rng.uniform(-1.0, 1.0, 4)
        configs = rng.uniform(-1.0, 1.0, size=(6, 4))
        stack = perturbed_stack(rng, x)
        before = model.predict(x, q)
        term_calls = []

        def counted(*args):
            term_calls.append(np.shape(args[0]))
            return _twist_terms(*args)

        monkeypatch.setattr("kincal.kinematics._twist_terms", counted)
        positions = model.predict_batch(stack, configs)
        np.testing.assert_array_equal(model.predict(x, q), before)
        assert term_calls == [stack.shape]     # fresh stack terms; x's were kept
        for row, xr in enumerate(stack):
            np.testing.assert_array_equal(
                positions[row], ChainObservationModel.from_chain(chain).predict_batch(xr, configs))


class TestChainLengthSweep:
    """Every chain length from 1 to 17 joints: n + 1 blocks at and next to
    powers of two, where the tree and the scans change shape."""

    @staticmethod
    def chains(rng, n):
        """Random chains of n joints, together holding a zero axis and a
        1e-13 axis (pure translations), with their joint indices."""
        tiny = 1e-13 * unit(rng.normal(size=3))
        rows = [0] if n == 1 else [n // 2, n - 1]
        axes = [[np.zeros(3)], [tiny]] if n == 1 else [[np.zeros(3), tiny]]
        for chosen in axes:
            chain = random_chain(rng, n)
            for row, w in zip(rows, chosen):
                chain.twists[row] = Twist(w, rng.normal(size=3))
            yield chain, rows[:len(chosen)]

    @pytest.mark.parametrize("n", range(1, 18))
    def test_kernel_matches_references(self, n, perturbed_stack):
        rng = np.random.default_rng(300 + n)
        for chain, translates in self.chains(rng, n):
            x, zero = chain.to_vector(), chain.zero_pose.translation
            configs = rng.uniform(-2.0, 2.0, size=(3, n))
            terms = _twist_terms(x)
            positions = _chain_terms(terms, zero, configs)
            jac_positions, jacs = _chain_terms(terms, zero, configs, jacobian=True)
            np.testing.assert_array_equal(jac_positions, positions)
            columns = np.arange(6 * n).reshape(n, 6)
            smooth = np.ones(6 * n, dtype=bool)
            smooth[columns[translates, :3].ravel()] = False
            for q, position, jac in zip(configs, positions, jacs):
                # a configuration's bits do not depend on the block it is in
                alone = _chain_terms(terms, zero, q[None], jacobian=True)
                np.testing.assert_array_equal(alone[0][0], position)
                np.testing.assert_array_equal(alone[1][0], jac)
                np.testing.assert_allclose(position, stepwise_pose(chain, q)[:3, 3],
                                           rtol=0, atol=1e-12)
                ref = observation_jacobian_fd(chain, q)
                np.testing.assert_allclose(jac[:, smooth], ref[:, smooth], rtol=1e-5, atol=1e-8)
                np.testing.assert_array_equal(jac[:, ~smooth], 0.0)
                # joint i's block is its prefix rotation, composed by
                # twist_exp, times the first block of the chain i..n-1
                prefix = np.eye(3)
                for i, (xi, angle) in enumerate(zip(chain.twists, q)):
                    suffix = ChainParams(chain.twists[i:], chain.zero_pose)
                    first = observation_jacobian(suffix, q[i:])[:, :6]
                    np.testing.assert_allclose(jac[:, 6 * i:6 * i + 6], prefix @ first,
                                               rtol=0, atol=1e-12)
                    prefix = prefix @ twist_exp(xi, angle).rotation
            stack = perturbed_stack(rng, x, rows=6)
            stacked = _chain_terms(_twist_terms(stack, False), zero, configs)
            for row, xr in enumerate(stack):
                np.testing.assert_array_equal(stacked[row],
                                              _chain_terms(_twist_terms(xr), zero, configs))
