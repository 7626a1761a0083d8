"""Homotopy class of closed rotation loops via lifting through the double cover.

A loop of special-orthogonal matrices R(t) in SO(m), m >= 3, is either
contractible or not; the two cases are told apart by lifting the loop
continuously to the double cover Spin(m) and checking whether the lift
closes on +1 or on -1. Rotations near the identity have a canonical lift
(the rotor with positive scalar part), so the loop is walked in small
relative steps R_{k+1} R_k^T, each step lifted canonically, and the lifts
are multiplied (later steps act on the left).

Spin(m) lives in the even part of the Clifford algebra Cl(m), generated by
e_1..e_m with e_i e_i = +1 and e_i e_j = -e_j e_i. Only the d coordinates
that the loop moves (at least 3) take part, and the lift is computed in the
spin representation of Cl(d): the Jordan-Wigner gamma matrices, Pauli
strings of size 2^floor(d/2) written as real matrices of size
N = 2^(floor(d/2)+1) (Lawson-Michelsohn, Spin Geometry, 1989, ch. I;
Jordan-Wigner, 1928). Every product of two gammas is a signed permutation,
so one Givens factorization run over the whole stack of steps at once
yields every step's rotor by gathers and sign flips, and the rotors are
multiplied as a pairwise tree.

For m = 3 there is an entirely separate lift through unit quaternions
(quaternion_loop_class), used as an independent cross-check of the spin
representation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    LiftInconsistent,
    NotNearIdentity,
    NotOrthogonal,
    RefinementExhausted,
)
from .numkit import DEFAULT_TOL, Tolerances, _note_add, _note_max

_MAX_DIM = 12
_MAX_REFINE_DEPTH = 24
_ORTHO_CHECK = 1e-8
# Steps lifted per batch. The batch holds (_CHUNK, N, N) arrays, 8 MB each
# at N = 128 (twelve moving coordinates).
_CHUNK = 64


class Z2(int):
    """An element of Z/2 with xor as the group operation."""

    def __new__(cls, bit):
        b = int(bit)
        if b not in (0, 1):
            raise ValueError("Z2 takes the values 0 and 1")
        return super().__new__(cls, b)

    @property
    def bit(self) -> int:
        return int(self)

    def __xor__(self, other):
        return Z2(int(self) ^ _z2_bit(other))

    __rxor__ = __xor__
    # Group addition in Z/2 is xor.
    __add__ = __xor__
    __radd__ = __xor__

    def __neg__(self):
        return self

    def __repr__(self):
        return f"Z2({int(self)})"


def _z2_bit(value) -> int:
    b = int(value)
    if b not in (0, 1):
        raise ValueError(f"not a Z2 value: {value!r}")
    return b


def _check_special_orthogonal(R: np.ndarray) -> np.ndarray:
    """One (m, m) rotation or a (K, m, m) stack of them, checked and returned as float.

    A stack is checked with one matmul and one batched determinant; the
    error names the first failing sample and, as a sample-by-sample check
    would, the first test it fails there (orthogonality before sign).
    """
    R = np.asarray(R, dtype=float)
    if R.ndim not in (2, 3) or R.shape[-1] != R.shape[-2]:
        raise NotOrthogonal("rotation sample is not square")
    defect = np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(R.shape[-1])).max(axis=(-2, -1))
    skewed = ~(defect <= _ORTHO_CHECK)  # also catches non-finite entries
    bad = skewed | (np.linalg.det(R) <= 0.0)
    if bad.any():
        k = np.argmax(bad)
        at = "" if R.ndim == 2 else f"sample {k}: "
        if np.ravel(skewed)[k]:
            raise NotOrthogonal(f"{at}orthogonality defect {np.ravel(defect)[k]:.3e}")
        raise NotOrthogonal(f"{at}determinant is not positive")
    return R


@dataclass
class RotationLoop:
    """Cyclic sequence of SO(m) samples, optionally refinable.

    samples may be given as a sequence of (m, m) matrices or as a (K, m, m)
    array; it is stored as the checked (K, m, m) float array, a copy.
    params are sample parameters in [0, 1), strictly increasing; the loop
    closes from the last sample back to the first. refiner(t) must return
    the underlying rotation at any parameter t in [0, 1) and is used to
    subdivide steps that rotate too far, re-evaluating the geometry rather
    than interpolating matrices.
    """

    samples: np.ndarray
    refiner: Callable[[float], np.ndarray] | None = None
    params: Sequence[float] | None = None

    def __post_init__(self):
        if len(self.samples) < 1:
            raise ValueError("a rotation loop needs at least one sample")
        shapes = {np.shape(R) for R in self.samples}
        if any(len(shape) != 2 or shape[0] != shape[1] for shape in shapes):
            raise NotOrthogonal("rotation sample is not square")
        if len(shapes) > 1:
            raise DimensionMismatch("samples have mixed dimensions")
        self.samples = _check_special_orthogonal(np.array(self.samples, dtype=float))
        if self.params is None:
            k = len(self.samples)
            self.params = [i / k for i in range(k)]
        else:
            self.params = [float(t) for t in self.params]
            if len(self.params) != len(self.samples):
                raise ValueError("params and samples must have equal length")
            if any(not 0.0 <= t < 1.0 for t in self.params):
                raise ValueError("params must lie in [0, 1)")
            if any(b <= a for a, b in zip(self.params, self.params[1:])):
                raise ValueError("params must be strictly increasing")

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def __len__(self) -> int:
        return len(self.samples)


def _angle_step_bound(lift_angle_max: float) -> float:
    # A rotation whose principal angles are all <= theta satisfies
    # |R - I|_F <= 2*sqrt(2)*sin(theta/2) with equality on a single plane,
    # so bounding the Frobenius defect bounds every principal angle. The
    # relative slack of 1e-12 accepts a step of exactly lift_angle_max
    # whatever the rounding of its defect.
    return 2.0 * math.sqrt(2.0) * math.sin(lift_angle_max / 2.0) * (1.0 + 1e-12)


def _refined_steps(loop: RotationLoop, tol: Tolerances) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Consecutive sample pairs around the cycle, subdivided to the angle bound.

    The bound is tested on all sample-to-sample steps at once; only steps
    over it are split, one refiner evaluation at a time.
    """
    bound = _angle_step_bound(tol.lift_angle_max)
    k = len(loop)
    eye = np.eye(loop.dim)
    samples = loop.samples
    steps = np.roll(samples, -1, axis=0) @ samples.transpose(0, 2, 1)
    within = np.linalg.norm(steps - eye, axis=(1, 2)) <= bound
    for idx in range(k):
        t0 = loop.params[idx]
        r0 = samples[idx]
        if idx + 1 < k:
            t1 = loop.params[idx + 1]
            r1 = samples[idx + 1]
        else:
            t1 = loop.params[0] + 1.0
            r1 = samples[0]
        stack = [(t0, r0, t1, r1, 0)]
        while stack:
            a_t, a_r, b_t, b_r, depth = stack.pop()
            if within[idx] if depth == 0 else np.linalg.norm(b_r @ a_r.T - eye) <= bound:
                _note_add("lift_steps", 1)
                _note_max("refinement_depth", depth)
                yield a_r, b_r
                continue
            if loop.refiner is None:
                raise RefinementExhausted(
                    f"step at parameter {a_t % 1.0:.6f} exceeds the angle bound "
                    "and the loop has no refiner"
                )
            if depth >= _MAX_REFINE_DEPTH:
                raise RefinementExhausted(
                    f"refinement depth {depth} exhausted near parameter {a_t % 1.0:.6f}"
                )
            m_t = 0.5 * (a_t + b_t)
            m_r = _check_special_orthogonal(loop.refiner(m_t % 1.0))
            stack.append((m_t, m_r, b_t, b_r, depth + 1))
            stack.append((a_t, a_r, m_t, m_r, depth + 1))


def _gammas(d: int) -> list[np.ndarray]:
    """Jordan-Wigner generators of Cl(d) as real matrices of size 2^(d//2 + 1).

    With n = d // 2, gamma_{2k} and gamma_{2k+1} are the Pauli strings
    Z^k X I^(n-k-1) and Z^k Y I^(n-k-1), and for odd d the last one is Z^n.
    A complex entry a + ib is written as the real block a*1 + b*J with
    J = [[0, -1], [1, 0]]; Y = iJ, so a Y string is its real J string
    tensored with J, and every other string is tensored with 1.
    """
    one = np.eye(2)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.diag([1.0, -1.0])
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    n = d // 2

    def string(k: int, middle: np.ndarray, unit: np.ndarray) -> np.ndarray:
        factors = [z] * k + [middle] + [one] * (n - k - 1)
        return np.kron(functools.reduce(np.kron, factors), unit)

    out = []
    for k in range(n):
        out += [string(k, x, one), string(k, j, j)]
    if d % 2:
        out.append(np.kron(functools.reduce(np.kron, [z] * n), one))
    return out


@functools.cache
def _spin_tables(d: int) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """Givens planes of R^d and their spin generators as signed permutations.

    planes lists the pairs (j, i), j < i, in elimination order. Column q of
    the matrix of gamma_j gamma_i for planes[p] is zero except for
    sign[p, q] in row perm[p, q], so right-multiplying a rotor by it is
    rotor[..., perm[p]] * sign[p]. Built on first use and read-only.
    """
    gammas = _gammas(d)
    planes = [(j, i) for j in range(d - 1) for i in range(j + 1, d)]
    products = np.array([gammas[j] @ gammas[i] for j, i in planes])
    perm = np.argmax(np.abs(products), axis=1)
    sign = np.take_along_axis(products, perm[:, None, :], axis=1)[:, 0, :]
    perm.setflags(write=False)
    sign.setflags(write=False)
    return planes, perm, sign


def _normalized(rotors: np.ndarray) -> np.ndarray:
    """Rotor matrices divided by their norm sqrt(tr(R R^T) / N)."""
    size = rotors.shape[-1]
    return rotors / np.sqrt(np.sum(rotors * rotors, axis=(-2, -1), keepdims=True) / size)


def _step_rotors(steps: np.ndarray) -> np.ndarray:
    """Canonical rotor matrices (positive scalar part) of a (K, d, d) step stack.

    Every step is factored into Givens rotations by eliminating its
    below-diagonal entries column by column, all steps at once; the factor
    by theta in the (e_j, e_i) plane has the exact rotor
    cos(theta/2) - sin(theta/2) gamma_j gamma_i, and the factors are
    multiplied in order. Raises NotNearIdentity when a step's scalar part
    (trace / N) is too small for the sign choice to be trustworthy (some
    principal angle is close to pi).
    """
    planes, perm, sign = _spin_tables(steps.shape[1])
    M = steps.copy()
    rotors = np.tile(np.eye(perm.shape[1]), (len(steps), 1, 1))
    for p, (j, i) in enumerate(planes):
        a = M[:, j, j]
        b = M[:, i, j]
        r = np.hypot(a, b)
        skip = (r < 1e-300) | ((np.abs(b) <= 1e-15 * r) & (a > 0.0))
        if skip.all():
            continue
        r = np.where(skip, 1.0, r)
        c = np.where(skip, 1.0, a / r)[:, None]
        s = np.where(skip, 0.0, b / r)[:, None]
        M[:, j, :], M[:, i, :] = c * M[:, j, :] + s * M[:, i, :], -s * M[:, j, :] + c * M[:, i, :]
        half = 0.5 * np.arctan2(s, c)[:, :, None]
        rotors = np.cos(half) * rotors - np.sin(half) * (rotors[:, :, perm[p]] * sign[p])
    residue = np.max(np.abs(M - np.eye(steps.shape[1])), axis=(1, 2))
    scalar = np.trace(rotors, axis1=1, axis2=2) / rotors.shape[1]
    bad = (residue > 1e-6) | (np.abs(scalar) < 0.1)
    if bad.any():
        k = int(np.argmax(bad))
        if residue[k] > 1e-6:
            raise NotNearIdentity("a principal rotation angle is at pi; no canonical lift")
        raise NotNearIdentity(f"rotor scalar part {scalar[k]:.3e} too small for a canonical sign")
    return _normalized(np.where(scalar < 0.0, -1.0, 1.0)[:, None, None] * rotors)


def _ordered_product(rotors: np.ndarray) -> np.ndarray:
    """rotors[-1] @ ... @ rotors[0], multiplied pairwise as a tree."""
    while len(rotors) > 1:
        even = len(rotors) - len(rotors) % 2
        paired = rotors[1:even:2] @ rotors[0:even:2]
        rotors = _normalized(np.concatenate([paired, rotors[even:]]))
    return rotors[0]


def _moved_coordinates(steps: np.ndarray) -> np.ndarray:
    """The steps restricted to the coordinates some step moves, at least 3.

    A coordinate that no step moves has an exact identity row and column in
    every step. Each step then rotates only the span of the kept
    coordinates, so both of its lifts lie in the Clifford algebra of that
    span, and the canonical one (positive scalar part) is the same rotor
    there as in Cl(m). The comparison is exact; there is no tolerance.
    """
    changed = steps != np.eye(steps.shape[1])
    moved = changed.any(axis=(0, 1)) | changed.any(axis=(0, 2))
    keep = np.flatnonzero(moved)
    if keep.size < 3:
        keep = np.sort(np.concatenate([keep, np.flatnonzero(~moved)[: 3 - keep.size]]))
    return steps[:, keep[:, None], keep]


def loop_class(loop: RotationLoop, tol: Tolerances = DEFAULT_TOL) -> Z2:
    """Class of a closed SO(m) loop in its fundamental group, as a Z2 bit.

    Walks the cycle in relative steps R_{k+1} R_k^T, lifts each step to the
    canonical rotor and multiplies the lifts (later steps act on the left),
    _CHUNK steps at a time. On closure the product projects to the identity,
    so it must be +-1; 0 means the lift closed on +1, 1 means it closed on
    -1. The distance to +-1 is |G -+ I|_F / sqrt(N), which equals the
    distance of the multivector's coefficients, because the even blades are
    orthonormal under tr(A^T B) / N.
    """
    m = loop.dim
    if not 3 <= m <= _MAX_DIM:
        raise DimensionMismatch(f"loop classification needs dimension in [3, {_MAX_DIM}], got {m}")
    pairs = list(_refined_steps(loop, tol))
    before = np.array([a for a, _ in pairs])
    steps = _moved_coordinates(np.array([b for _, b in pairs]) @ before.transpose(0, 2, 1))
    # A step is a product of two checked samples, so its determinant is
    # positive, but the two orthogonality defects add up.
    defect = np.max(np.abs(steps.transpose(0, 2, 1) @ steps - np.eye(steps.shape[1])))
    if defect > _ORTHO_CHECK:
        raise NotOrthogonal(f"orthogonality defect {defect:.3e}")
    eye = np.eye(2 ** (steps.shape[1] // 2 + 1))
    g = eye
    for start in range(0, len(steps), _CHUNK):
        g = _ordered_product(np.concatenate([g[None], _step_rotors(steps[start:start + _CHUNK])]))
    d_plus = np.linalg.norm(g - eye) / math.sqrt(len(eye))
    d_minus = np.linalg.norm(g + eye) / math.sqrt(len(eye))
    if min(d_plus, d_minus) > 1e-4:
        raise LiftInconsistent(
            f"lift closed at distance {min(d_plus, d_minus):.3e} from both +1 and -1"
        )
    return Z2(0 if d_plus <= d_minus else 1)


def _quat_from_matrix(R: np.ndarray) -> np.ndarray:
    """One of the two unit quaternions (w, x, y, z) covering R in SO(3)."""
    t = R[0, 0] + R[1, 1] + R[2, 2]
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
        )
    elif R[1, 1] >= R[2, 2]:
        s = math.sqrt(1.0 - R[0, 0] + R[1, 1] - R[2, 2]) * 2.0
        q = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 - R[0, 0] - R[1, 1] + R[2, 2]) * 2.0
        q = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    return q / np.linalg.norm(q)


def quaternion_loop_class(loop: RotationLoop, tol: Tolerances = DEFAULT_TOL) -> Z2:
    """Same contract as loop_class for m = 3, lifted through unit quaternions.

    Every sample is converted to a quaternion independently and the sign
    ambiguity is resolved by nearest-lift continuity; the Clifford algebra
    is never touched, so this is a genuinely separate route to the bit.
    """
    if loop.dim != 3:
        raise DimensionMismatch("the quaternion lift is specific to SO(3)")
    q_start = None
    q_prev = None
    for r_prev, r_next in _refined_steps(loop, tol):
        if q_start is None:
            q_start = _quat_from_matrix(r_prev)
            for x in q_start:
                if abs(x) > 1e-8:
                    if x < 0.0:
                        q_start = -q_start
                    break
            q_prev = q_start
        q_next = _quat_from_matrix(r_next)
        d = float(q_next @ q_prev)
        if abs(d) < 0.05:
            raise LiftInconsistent("consecutive quaternion lifts are nearly orthogonal")
        if d < 0.0:
            q_next = -q_next
        q_prev = q_next
    if q_start is None:
        return Z2(0)
    d = float(q_prev @ q_start)
    if abs(d) < 0.9:
        raise LiftInconsistent(f"quaternion lift closed at |dot| = {abs(d):.3f}")
    return Z2(0 if d > 0.0 else 1)


def stabilize_loop(loop: RotationLoop, target: int) -> RotationLoop:
    """Block-embed an SO(m) loop into SO(target) as diag(R, I)."""
    m = loop.dim
    if not m <= target <= _MAX_DIM:
        raise DimensionMismatch(f"target {target} must lie in [{m}, {_MAX_DIM}]")

    def embed(R: np.ndarray) -> np.ndarray:
        out = np.eye(target)
        out[:m, :m] = R
        return out

    refiner = None
    if loop.refiner is not None:
        inner = loop.refiner
        refiner = lambda t: embed(inner(t))  # noqa: E731
    return RotationLoop([embed(R) for R in loop.samples], refiner, list(loop.params))


def concatenate_loops(first: RotationLoop, second: RotationLoop) -> RotationLoop:
    """Traverse first then second, each compressed into half the parameter range."""
    if first.dim != second.dim:
        raise DimensionMismatch("loops have different dimensions")
    params = [0.5 * t for t in first.params] + [0.5 + 0.5 * t for t in second.params]
    samples = np.concatenate([first.samples, second.samples])
    refiner = None
    if first.refiner is not None and second.refiner is not None:
        f, s = first.refiner, second.refiner

        def refiner(t: float) -> np.ndarray:
            if t < 0.5:
                return f(2.0 * t)
            return s(2.0 * t - 1.0)

    return RotationLoop(samples, refiner, params)


def plane_rotation(m: int, i: int, j: int, theta: float) -> np.ndarray:
    """Rotation of R^m by theta in the oriented (e_i, e_j) coordinate plane."""
    if not (0 <= i < m and 0 <= j < m and i != j):
        raise ValueError("plane indices out of range")
    R = np.eye(m)
    c, s = math.cos(theta), math.sin(theta)
    R[i, i] = c
    R[j, j] = c
    R[j, i] = s
    R[i, j] = -s
    return R


def _so3_log(R: np.ndarray) -> np.ndarray:
    """Rotation vector (axis * angle) of an SO(3) matrix, angle in [0, pi)."""
    c = (np.trace(R) - 1.0) / 2.0
    c = min(1.0, max(-1.0, c))
    angle = math.acos(c)
    if angle < 1e-12:
        return np.zeros(3)
    if angle > math.pi - 1e-6:
        raise ValueError("rotation angle at pi; geodesic midpoint is ambiguous")
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return w * (angle / (2.0 * math.sin(angle)))


def _so3_exp(w: np.ndarray) -> np.ndarray:
    angle = float(np.linalg.norm(w))
    if angle < 1e-12:
        return np.eye(3)
    k = w / angle
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def so3_geodesic_loop(waypoints: Sequence[np.ndarray], samples_per_leg: int = 16) -> RotationLoop:
    """Closed piecewise-geodesic loop through SO(3) waypoints, with exact refiner.

    The loop visits each waypoint in order and returns to the first; every
    leg is the shortest geodesic, so the refiner re-evaluates the true
    underlying path at any parameter.
    """
    pts = [_check_special_orthogonal(np.asarray(w, dtype=float)) for w in waypoints]
    if len(pts) < 1:
        raise ValueError("need at least one waypoint")
    legs = len(pts)
    logs = []
    for i in range(legs):
        a = pts[i]
        b = pts[(i + 1) % legs]
        logs.append(_so3_log(a.T @ b))

    def at(t: float) -> np.ndarray:
        u = (t % 1.0) * legs
        i = min(int(u), legs - 1)
        s = u - i
        return pts[i] @ _so3_exp(s * logs[i])

    params = []
    samples = []
    total = legs * samples_per_leg
    for k in range(total):
        t = k / total
        params.append(t)
        samples.append(at(t))
    return RotationLoop(samples, at, params)
