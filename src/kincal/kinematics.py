"""Twist-based kinematics of serial chains.

A joint is a twist (w, v): w points along the rotation axis and v fixes
the location of the axis in space. For a unit-norm w and an axis passing
through a point p, v = p x w, and the axis is the line {w x v + s * w}.
A chain is an ordered list of twists, proximal to distal, plus the pose
of the end effector when every joint angle is zero.

The observation function maps a parameter vector and a joint
configuration to the 3D position of the end effector. The parameter
vector stacks the per-joint twists as [w_1, v_1, ..., w_n, v_n] (6n
entries). Nothing here constrains the parameters to unit axis norm: the
estimators operate on the raw vector. Positions and Jacobians for any
block of configurations come from one vectorized kernel in two parts:
_twist_terms holds the input checks and every array that depends on the
parameters only, among them the generators of each joint's homogeneous
4x4 block and of its Jacobian block, and _chain_terms the work per
configuration: it builds the blocks and composes them with no loop over
joints, by a strided tree for positions and by one Hillis-Steele scan for
Jacobians, which also gives every joint's prefix rotation, so that
positions have the same bits either way. Positions also take a stack of
parameter vectors, one block of configurations for each, and
linearizations a stack with one configuration per vector; every row gives
the same bits as the row alone.
ChainObservationModel keeps the first part for the last parameter vector
it saw. twist_exp is the scalar reference the kernel is checked against.

Chain files are JSON: {"joints": [[wx, wy, wz, vx, vy, vz], ...],
"zero_pose": [12 numbers, row-major rotation then translation]}.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Below this axis norm a twist is treated as a pure translation, the
# limit form v * angle. The closed-form rotational branch is used
# everywhere else, so the map stays smooth on the estimation domain.
_ZERO_AXIS_TOL = 1e-12

# Central-difference step of the reference Jacobian.
_FD_STEP = 1e-6

_EYE3 = np.eye(3)
_EYE4 = np.eye(4)
_SIGNS = np.array([-1.0, 1.0])[:, None, None]


def skew(a):
    """3x3 matrix S with S @ x == cross(a, x), over the last axis of a."""
    a = np.asarray(a, dtype=float)
    s = np.zeros(a.shape + (3,))
    s[..., 0, 1], s[..., 0, 2] = -a[..., 2], a[..., 1]
    s[..., 1, 0], s[..., 1, 2] = a[..., 2], -a[..., 0]
    s[..., 2, 0], s[..., 2, 1] = -a[..., 1], a[..., 0]
    return s


def rotation_exp(r):
    """Rodrigues formula: rotation matrix for a rotation vector r."""
    angle = np.linalg.norm(r)
    if angle < _ZERO_AXIS_TOL:
        return _EYE3 + skew(r)
    k = skew(r / angle)
    return _EYE3 + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


@dataclass
class Twist:
    """One joint: axis direction w and axis moment v."""

    w: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.w.shape != (3,) or self.v.shape != (3,):
            raise ValueError("twist components must be 3-vectors")


@dataclass
class Pose:
    """Rigid transform: orthonormal rotation (det +1) and translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float)
        if self.rotation.shape != (3, 3) or self.translation.shape != (3,):
            raise ValueError("pose needs a 3x3 rotation and a 3-vector translation")

    def matrix(self):
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def rigidity_defect(self) -> float:
        """Max abs deviation of R^T R from I and of det(R) from +1."""
        gram = self.rotation.T @ self.rotation
        return max(float(np.abs(gram - _EYE3).max()),
                   abs(float(np.linalg.det(self.rotation)) - 1.0))


@dataclass
class ChainParams:
    """Ordered joint twists plus the pose at the all-zero configuration."""

    twists: list
    zero_pose: Pose

    @property
    def n_joints(self) -> int:
        return len(self.twists)

    def to_vector(self) -> np.ndarray:
        """Stack twists as [w_1, v_1, ..., w_n, v_n]."""
        return np.concatenate([np.concatenate([t.w, t.v]) for t in self.twists])

    @classmethod
    def from_vector(cls, x, zero_pose: Pose) -> "ChainParams":
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size % 6:
            raise ValueError("parameter vector length must be a multiple of 6")
        rows = x.reshape(-1, 6)
        return cls([Twist(r[:3], r[3:]) for r in rows], zero_pose)


def twist_exp(xi: Twist, angle: float) -> Pose:
    """Rigid motion of a twist through a joint angle.

    Uses the closed form
        R = exp(skew(w) * angle)
        t = (I - R) (w x v) + w (w . v) angle
    which for unit-norm w equals the matrix exponential of the 4x4 twist
    generator. Axis norms below _ZERO_AXIS_TOL fall back to the pure
    translation v * angle (the limit form); that branch is not smooth
    against the rotational one, which only matters at exactly zero axis.
    """
    if not (np.isfinite(xi.w).all() and np.isfinite(xi.v).all() and np.isfinite(angle)):
        raise ValueError("twist_exp requires finite inputs")
    w, v = xi.w, xi.v
    if np.linalg.norm(w) < _ZERO_AXIS_TOL:
        return Pose(np.eye(3), v * angle)
    r = rotation_exp(w * angle)
    t = (_EYE3 - r) @ (skew(w) @ v) + w * ((w @ v) * angle)
    return Pose(r, t)


def _matvec(a, b):
    """a @ b for stacks of 3x3 matrices and 3-vectors, broadcast over leading axes."""
    return (a @ b[..., None])[..., 0]


def _row_dot(a, b):
    """Dot products of matching rows, each summed as np.dot sums one pair;
    b may be one vector for all rows."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


class _TwistTerms(NamedTuple):
    """Kernel arrays that depend on the parameters only, one row per joint.

    The shapes below are those of one parameter vector; the terms of a
    stack of vectors (..., 6n) carry the same leading axes.

    For the joint angle q let sin, cos = sin(|w| q), cos(|w| q) and
    vers = 1 - cos. With K = skew(w / |w|) and the Rodrigues rotation
    R = I + sin K + vers K^2, twist_exp's motion [[R, t], [0, 1]],
    t = (I - R)(w x v) + q w (w . v), is the homogeneous block
        sin G_sin + vers G_vers + q G_q + I,
        G_sin = [[K, -K (w x v)], [0, 0]], G_vers = [[K^2, -K^2 (w x v)], [0, 0]],
        G_q = [[0, w (w . v)], [0, 0]].
    gen holds G_sin, G_vers, G_q and I, each flattened to 16 numbers.
    The joint's 3x6 Jacobian block before the prefix rotation (see
    _chain_terms) is linear in 15 coefficients: q cos z_j, q sin z_j,
    sin z_j and vers z_j for j = 0, 1, 2, then sin, vers and q, where
    z = s_{i+1} - w x v. jac_gen holds its generators, one row of 18
    numbers per coefficient; only Jacobians read it.

    A pure translation (|w| < _ZERO_AXIS_TOL) has zero K, so every
    rotational row vanishes for it; G_q and the q row of jac_gen hold its
    limit form instead, so the kernel needs no branch: translation q v,
    zero w-partials and v-partial q I.
    """

    n: int                  # joints
    norm: np.ndarray        # |w| (n,)
    wxv: np.ndarray         # w x v (n, 3)
    gen: np.ndarray         # G_sin, G_vers, G_q, I (n, 4, 16)
    jac_gen: np.ndarray     # Jacobian generators (n, 15, 18), or None (positions only)


def _twist_terms(x, jacobian=True) -> _TwistTerms:
    """Check the raw parameter vector x = [w_1, v_1, ..., w_n, v_n], or a
    stack (..., 6n) of them, and compute every array of _chain_terms that
    does not depend on the configurations, so callers that hold x fixed
    can reuse them. jacobian=False leaves jac_gen None, for callers that
    only ask for positions. Each term is computed row by row, so a
    vector's terms are bit-identical whether it comes alone or in a
    stack."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] % 6:
        raise ValueError(f"parameter vector length must be a multiple of 6, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("parameters must be finite")
    n = x.shape[-1] // 6
    twists = x.reshape(x.shape[:-1] + (n, 6))
    w, v = twists[..., :3], twists[..., 3:]
    norm = np.sqrt(np.einsum("...j,...j->...", w, w))
    translates = norm < _ZERO_AXIS_TOL
    inv_norm = np.divide(1.0, norm, out=np.zeros(norm.shape), where=~translates)
    k = w * inv_norm[..., None]
    rot = np.empty(norm.shape + (2, 3, 3))         # K, K^2
    rot[..., 0, :, :] = skew(k)
    np.matmul(rot[..., 0, :, :], rot[..., 0, :, :], out=rot[..., 1, :, :])
    wxv = norm[..., None] * _matvec(rot[..., 0, :, :], v)
    wv = np.einsum("...j,...j->...", w, v)

    gen = np.zeros(norm.shape + (4, 4, 4))
    gen[..., :2, :3, :3] = rot
    gen[..., :2, :3, 3] = -_matvec(rot, wxv[..., None, :])
    np.multiply(w, wv[..., None], out=gen[..., 2, :3, 3])
    gen[..., 3, :, :] = _EYE4
    if translates.any():        # the limit form (see _TwistTerms)
        gen[translates, 2, :3, 3] = v[translates]
    gen = gen.reshape(norm.shape + (4, 16))
    if not jacobian:
        return _TwistTerms(n, norm, wxv, gen, None)

    # jac_gen[..., c, j] is the 3x6 block [d/dw, d/dv] of one coefficient
    # (see _TwistTerms); D(z) of _chain_terms expanded by K^3 = -K gives
    #   z_j q cos:  [K e_j k^T, 0]      z_j sin:  -[k e_j^T K^T + k_j K, 0] / |w|
    #   z_j q sin:  [K^2 e_j k^T, 0]    z_j vers: -[k e_j^T K^2 + k_j K^2, 0] / |w|
    #   sin: [K skew(v), -|w| K^2]   vers: [K^2 skew(v), |w| K]   q: [(w . v) I + w v^T, w w^T]
    jac_gen = np.zeros(norm.shape + (5, 3, 3, 6))
    d_w, d_v = jac_gen[..., :3], jac_gen[..., 4, :, :, 3:]
    rot_t = rot.swapaxes(-1, -2)                    # rot_t[..., c, j, a] = rot[..., c, a, j]
    kn = -inv_norm[..., None] * k                   # -w / |w|^2
    np.multiply(rot_t[..., :, :, :, None], k[..., None, None, None, :], out=d_w[..., :2, :, :, :])
    np.multiply(kn[..., None, None, :, None], rot_t[..., :, :, None, :], out=d_w[..., 2:4, :, :, :])
    d_w[..., 2:4, :, :, :] += kn[..., None, :, None, None] * rot[..., :, None, :, :]
    np.matmul(rot, skew(v)[..., None, :, :], out=d_w[..., 4, :2, :, :])
    np.multiply(w[..., :, None], v[..., None, :], out=d_w[..., 4, 2, :, :])
    jac_gen.reshape(norm.shape + (5, 3, 18))[..., 4, 2, 0:15:7] += wv[..., None]   # + (w . v) I
    np.multiply(norm[..., None, None, None] * _SIGNS, rot[..., ::-1, :, :], out=d_v[..., :2, :, :])
    np.multiply(w[..., :, None], w[..., None, :], out=d_v[..., 2, :, :])
    if translates.any():
        d_w[translates, 4, 2] = 0.0
        d_v[translates, 2] = _EYE3
    return _TwistTerms(n, norm, wxv, gen, jac_gen.reshape(norm.shape + (15, 18)))


def _chain_terms(terms: _TwistTerms, zero_translation, Q, jacobian=False):
    """End-effector positions, and optionally their Jacobians, for a block of configurations.

    terms is _twist_terms of the raw parameter vector x, Q an (m, n)
    block of joint angles and zero_translation the end-effector position
    at the all-zero configuration. Returns the positions (m, 3); with
    jacobian=True returns (positions, Jacobians (m, 3, 6n) w.r.t. x).
    Positions also take the terms of a stack (..., 6n) of parameter
    vectors and return (..., m, 3), the block Q for every vector. With
    Jacobians, a stack (m, 6n) gives each vector its own configuration,
    the row of Q with its index.

    Joint i moves by R_i = exp(skew(w_i) q_i) and
    t_i = (I - R_i)(w_i x v_i) + q_i w_i (w_i . v_i), or by the pure
    translation v_i q_i when |w_i| < _ZERO_AXIS_TOL; this is twist_exp.
    Every configuration gets n + 1 homogeneous 4x4 blocks: block i < n
    is joint i's [[R_i, t_i], [0, 1]], the coefficients [sin, vers, q, 1]
    times the generators in terms.gen (which hold the pure translation's
    limit form, so one expression serves both kinds of joint), and block
    n is the end effector [[I, p0], [0, 1]], p0 = zero_translation. The
    product of blocks i..n has s_i, the end effector in the input frame
    of joint i, as its translation, and s_0 is the position. No loop runs
    over the joints:
      * positions only: a strided tree. At step k = 1, 2, 4, ... blocks
        0, 2k, 4k, ... take the product with the block k after them,
        n products in ceil(log2(n + 1)) stacked matmul calls.
      * with Jacobians: the Hillis-Steele suffix scan. At step k every
        block i takes the product with block i + k, so block i ends as
        the product of blocks i..n: it holds s_i and the rotation
        R_i ... R_{n-1}, so P_i = R_0 ... R_{i-1} is one stacked
        product, block 0's rotation times the transpose of block i's.
    Block 0 meets the same operands in the same order in the tree and
    in the scan, so positions are bit-identical with and without
    Jacobians. Every product is one 4x4 (or 3x3, or coefficient row)
    product per entry, so a configuration's bits do not depend on the
    block it comes in, and each row of a stack keeps the bits of its
    own call. The Jacobian path lays the terms out joints first, then a
    row axis: of size 1 for one vector, broadcast over the block, and of
    size m for a stack, matched row by row.

    The blocks of joint i are
        d/dw_i = P_i (D(s_{i+1} - w x v) + (R - I) skew(v) + q ((w . v) I + w v^T))
        d/dv_i = P_i ((I - R) skew(w) + q w w^T)
    where D(z), with columns dR/dw_j z, is the rotation-vector partial of
    Gallego and Yezzi (2015) contracted with z:
        D(z) = (q (w x Rz) w^T - w (Rz - z)^T + (w . z)(I - R)) / |w|^2.
    It carries no division by the angle, so it needs no small-angle
    series. Expanded by K^3 = -K, the block before P_i is linear in the
    coefficients that terms.jac_gen lists, one product with them.
    """
    t = terms
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2:
        raise ValueError(f"configurations must be an (m, n) block, got shape {Q.shape}")
    m, n = Q.shape
    if n != t.n:
        raise ValueError(f"expected {6 * n} parameters for {n} joints, got {6 * t.n}")
    if not np.isfinite(Q).all():
        raise ValueError("joint angles must be finite")
    if not jacobian:
        # joints, then a row axis of 1 that serves the whole block; a
        # stack's axes lead
        norm, gen = t.norm[..., None], t.gen[..., None, :, :]
    elif t.jac_gen is None:
        raise ValueError("these terms were built for positions only")
    elif t.norm.ndim == 1:
        # joints first, then a row axis of 1 that serves the whole block
        norm, wxv, gen, jac_gen = (a[:, None] for a in t[1:])
    elif t.norm.shape[:-1] == (m,):
        # joints first, then one row per configuration of the stack
        norm, wxv, gen, jac_gen = (a.swapaxes(0, 1) for a in t[1:])
    else:
        raise ValueError(f"Jacobians take one parameter vector or a stack of {m}, one per "
                         f"configuration; got a stack of shape {t.norm.shape[:-1]}")

    angle = norm * Q.T                                  # (..., n, m)
    # coefficients q cos, q sin (Jacobians only), then sin, vers, q and 1
    coef = np.empty(angle.shape + (6,))
    sin = np.sin(angle, out=coef[..., 2])
    cos = np.cos(angle)
    np.subtract(1.0, cos, out=coef[..., 3])
    coef[..., 4] = Q.T
    coef[..., 5] = 1.0
    flat = np.empty(angle.shape[:-2] + (n + 1, m, 16))
    np.matmul(coef[..., None, 2:], gen, out=flat[..., :n, :, None, :])
    blocks = flat.reshape(flat.shape[:-1] + (4, 4))       # (..., n + 1, m, 4, 4)
    blocks[..., n, :, :, :] = _EYE4
    blocks[..., n, :, :3, 3] = zero_translation

    k = 1
    while k <= n:
        stride = 1 if jacobian else 2 * k
        head = blocks[..., :n + 1 - k:stride, :, :, :]
        head[...] = head @ blocks[..., k::stride, :, :, :]
        k *= 2
    if not jacobian:
        return blocks[..., 0, :, :3, 3]

    rot = blocks[:n, :, :3, :3]                         # R_i ... R_{n-1}
    prefix = rot[0] @ rot.swapaxes(-1, -2)              # P_i (n, m, 3, 3)
    np.multiply(coef[..., 4], cos, out=coef[..., 0])
    np.multiply(coef[..., 4], sin, out=coef[..., 1])
    z = blocks[1:, :, :3, 3] - wxv                    # s_{i+1} - w x v (n, m, 3)
    u = np.empty((n, m, 5, 3))                         # jac_gen's coefficients
    np.multiply(coef[..., :4, None], z[..., None, :], out=u[..., :4, :])
    u[..., 4, :] = coef[..., 2:5]
    d = u.reshape(n, m, 1, 15) @ jac_gen
    jac = prefix @ d.reshape(n, m, 3, 6)                # (n, m, 3, 6)
    return blocks[0, :, :3, 3], jac.transpose(1, 2, 0, 3).reshape(m, 3, 6 * n)


def _one_config(q, n_joints):
    q = np.asarray(q, dtype=float)
    if q.shape != (n_joints,):
        raise ValueError(f"expected {n_joints} joint angles, got shape {q.shape}")
    return q[None]


def observe(params: ChainParams, q) -> np.ndarray:
    """3D end-effector position at configuration q."""
    return _chain_terms(_twist_terms(params.to_vector(), False), params.zero_pose.translation,
                        _one_config(q, params.n_joints))[0]


def observation_jacobian(params: ChainParams, q) -> np.ndarray:
    """3 x 6n Jacobian of observe() w.r.t. the stacked parameter vector."""
    _, jac = _chain_terms(_twist_terms(params.to_vector()), params.zero_pose.translation,
                          _one_config(q, params.n_joints), jacobian=True)
    return jac[0]


def observation_jacobian_fd(params: ChainParams, q) -> np.ndarray:
    """Central differences of observe(): the reference for the analytic Jacobian."""
    x0 = params.to_vector()
    columns = [observe(ChainParams.from_vector(x0 + step, params.zero_pose), q)
               - observe(ChainParams.from_vector(x0 - step, params.zero_pose), q)
               for step in _FD_STEP * np.eye(x0.size)]
    return np.array(columns).T / (2.0 * _FD_STEP)


class ChainObservationModel:
    """h(x, q) = end-effector position for raw parameter vector x.

    The zero pose is fixed and known; only the 6n twist entries are
    estimated. predict/jacobian is the interface the estimators expect;
    linearize is the batched form that selection scores candidates with,
    and that the experiment driver linearizes a round's seeds with, one
    mean per configuration. The model keeps the _twist_terms of the last
    x it saw, matched bit for bit, so the sweeps of one selection, which
    all linearize about one mean, compute them once. A stack of
    parameter vectors gets fresh terms and leaves the kept ones in place.
    """

    def __init__(self, zero_pose: Pose, n_joints: int):
        self.zero_pose = zero_pose
        self.n_joints = n_joints
        self._key = None        # (shape, bytes) of the last x seen
        self._terms = None      # and its _twist_terms

    @classmethod
    def from_chain(cls, params: ChainParams) -> "ChainObservationModel":
        return cls(params.zero_pose, params.n_joints)

    def _terms_of(self, x, jacobian=True) -> _TwistTerms:
        x = np.asarray(x, dtype=float)
        if x.ndim > 1:
            return _twist_terms(x, jacobian)
        key = (x.shape, x.tobytes())
        if key != self._key:
            self._terms = _twist_terms(x)
            self._key = key
        return self._terms

    def predict(self, x, q) -> np.ndarray:
        return _chain_terms(self._terms_of(x), self.zero_pose.translation,
                            _one_config(q, self.n_joints))[0]

    def jacobian(self, x, q) -> np.ndarray:
        return self.linearize(x, _one_config(q, self.n_joints))[1][0]

    def predict_batch(self, x, configs) -> np.ndarray:
        """Positions (m, 3) for an (m, n) block of configurations; for a
        stack (..., 6n) of parameter vectors, (..., m, 3)."""
        return _chain_terms(self._terms_of(x, False), self.zero_pose.translation, configs)

    def linearize(self, x, configs):
        """Positions (m, 3) and Jacobians (m, 3, 6n) for an (m, n) block of
        configurations, about one parameter vector x or, for an (m, 6n)
        stack, about the row of x with each configuration's index."""
        return _chain_terms(self._terms_of(x), self.zero_pose.translation, configs,
                            jacobian=True)


def chain_to_dict(params: ChainParams) -> dict:
    zp = params.zero_pose
    flat = np.concatenate([zp.rotation.reshape(-1), zp.translation])
    return {
        "joints": [np.concatenate([t.w, t.v]).tolist() for t in params.twists],
        "zero_pose": flat.tolist(),
    }


def is_number(value) -> bool:
    """A finite number that fits a float: JSON parsing takes NaN, Infinity
    and integers of any size, and true/false are ints."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _numbers(value, count: int) -> bool:
    """value is a list of count numbers, each passing is_number."""
    return isinstance(value, (list, tuple)) and len(value) == count and all(map(is_number, value))


def chain_from_dict(doc: dict) -> ChainParams:
    """The chain of a chain document; ValueError for anything else."""
    if not isinstance(doc, dict):
        raise ValueError("chain document must be an object")
    joints = doc.get("joints")
    if not isinstance(joints, list) or not joints:
        raise ValueError("chain document needs a non-empty 'joints' list")
    if not _numbers(doc.get("zero_pose"), 12):
        raise ValueError("chain document needs a 'zero_pose' of 12 finite numbers")
    if not all(_numbers(row, 6) for row in joints):
        raise ValueError("each joint must be 6 finite numbers [w, v]")
    twists = [Twist(row[:3], row[3:]) for row in joints]
    zp = np.asarray(doc["zero_pose"], dtype=float)
    pose = Pose(zp[:9].reshape(3, 3), zp[9:])
    if pose.rigidity_defect() > 1e-9:
        raise ValueError("zero_pose rotation is not orthonormal with det +1")
    return ChainParams(twists, pose)


def save_chain(params: ChainParams, path) -> None:
    with open(path, "w") as fh:
        json.dump(chain_to_dict(params), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_chain(path) -> ChainParams:
    with open(path) as fh:
        return chain_from_dict(json.load(fh))
