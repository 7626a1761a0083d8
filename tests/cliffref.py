"""Sparse Clifford-algebra lift, kept as a reference for the batched kernel.

Multivectors of Cl(m) are dicts from blade bitmasks to coefficients, with
e_i e_i = +1 and e_i e_j = -e_j e_i. rotor_from_rotation lifts one
near-identity rotation by a Givens factorization, one Python product per
factor, and sparse_loop_class multiplies the canonical lifts of a loop's
steps and reads the bit off the product, where fbk.spinlift.loop_class
lifts every sample and counts sign changes; both read the same refined
sample stack and must give the same bit, which the tests compare.

givens_reference, rotors_reference and refined_reference are the batched
kernel as it was written before it worked in place: one fresh array per
arithmetic step of every Givens plane, the half-angle cosines and sines
taken plane by plane, and the refined stack grown by np.insert. The kernel
performs the same floating-point operations in the same order, so the
tests require its rotors, overlaps and stacks to equal these bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from fbk.errors import (
    DimensionMismatch,
    LiftInconsistent,
    NotNearIdentity,
    NotOrthogonal,
    RefinementExhausted,
)
from fbk.numkit import DEFAULT_TOL, Tolerances, _note_add, _note_max, _successors
from fbk.spinlift import (
    _MAX_DIM,
    _MAX_REFINE_DEPTH,
    RotationLoop,
    Z2,
    _angle_step_bound,
    _check_special_orthogonal,
    _refined,
    _rotation_stack,
    _spin_tables,
)


def _blade_sign(a: int, b: int) -> int:
    """Sign of e_a * e_b from counting transpositions between blade bitmasks."""
    a >>= 1
    total = 0
    while a:
        total += (a & b).bit_count()
        a >>= 1
    return -1 if total & 1 else 1


@dataclass
class CliffordElement:
    """Sparse multivector in Cl(m): blade bitmask -> real coefficient."""

    dim: int
    coeffs: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if not 3 <= self.dim <= _MAX_DIM:
            raise DimensionMismatch(f"Clifford dimension {self.dim} outside [3, {_MAX_DIM}]")
        self.coeffs = {b: float(c) for b, c in self.coeffs.items() if c != 0.0}

    @classmethod
    def scalar(cls, dim: int, value: float) -> "CliffordElement":
        return cls(dim, {0: float(value)})

    @classmethod
    def blade(cls, dim: int, bits: int, value: float = 1.0) -> "CliffordElement":
        return cls(dim, {bits: float(value)})

    @classmethod
    def vector(cls, dim: int, coords: Sequence[float]) -> "CliffordElement":
        return cls(dim, {1 << i: float(c) for i, c in enumerate(coords)})

    @property
    def scalar_part(self) -> float:
        return self.coeffs.get(0, 0.0)

    def norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.coeffs.values()))

    def reverse(self) -> "CliffordElement":
        out = {}
        for bits, c in self.coeffs.items():
            k = bits.bit_count()
            out[bits] = -c if (k * (k - 1) // 2) & 1 else c
        return CliffordElement(self.dim, out)

    def grade(self, k: int) -> "CliffordElement":
        return CliffordElement(
            self.dim, {b: c for b, c in self.coeffs.items() if b.bit_count() == k}
        )

    def __mul__(self, other):
        if isinstance(other, CliffordElement):
            return geometric_product(self, other)
        return CliffordElement(self.dim, {b: c * float(other) for b, c in self.coeffs.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        if self.dim != other.dim:
            raise DimensionMismatch("cannot add elements of different dimension")
        out = dict(self.coeffs)
        for b, c in other.coeffs.items():
            out[b] = out.get(b, 0.0) + c
        return CliffordElement(self.dim, out)

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return self + (other * -1.0)

    def distance_to_scalar(self, value: float) -> float:
        diff = dict(self.coeffs)
        diff[0] = diff.get(0, 0.0) - value
        return math.sqrt(sum(c * c for c in diff.values()))

    def apply_to_vector(self, v: Sequence[float]) -> np.ndarray:
        """Sandwich action r v reverse(r), returning the grade-1 part."""
        x = CliffordElement.vector(self.dim, v)
        out = geometric_product(geometric_product(self, x), self.reverse())
        res = np.zeros(self.dim)
        for i in range(self.dim):
            res[i] = out.coeffs.get(1 << i, 0.0)
        return res

    def rotation_matrix(self) -> np.ndarray:
        """Matrix of the sandwich action on the standard basis (columns)."""
        cols = [self.apply_to_vector(np.eye(self.dim)[i]) for i in range(self.dim)]
        return np.column_stack(cols)

    def normalized_rotor(self) -> "CliffordElement":
        s = geometric_product(self, self.reverse()).scalar_part
        if s <= 0.0:
            raise LiftInconsistent("rotor norm collapsed while renormalizing")
        return self * (1.0 / math.sqrt(s))


def geometric_product(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """Bilinear Clifford product with e_i e_i = +1 and e_i e_j = -e_j e_i."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    out: dict[int, float] = {}
    for ba, ca in a.coeffs.items():
        for bb, cb in b.coeffs.items():
            key = ba ^ bb
            out[key] = out.get(key, 0.0) + _blade_sign(ba, bb) * ca * cb
    if out:
        top = max(abs(c) for c in out.values())
        cutoff = 1e-16 * top
        out = {b: c for b, c in out.items() if abs(c) > cutoff}
    return CliffordElement(a.dim, out)


def rotor_from_rotation(R: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> CliffordElement:
    """Canonical rotor (positive scalar part) for a near-identity rotation.

    R is factored into Givens rotations by eliminating below-diagonal
    entries column by column; each factor has the exact rotor
    cos(theta/2) - sin(theta/2) e_i e_j, and the factors are multiplied in
    order. Raises NotNearIdentity when the resulting scalar part is too
    small for the sign choice to be trustworthy (some principal angle is
    close to pi).
    """
    R = _check_special_orthogonal(R)
    m = R.shape[0]
    if not 3 <= m <= _MAX_DIM:
        raise DimensionMismatch(f"rotation dimension {m} outside [3, {_MAX_DIM}]")
    M = R.copy()
    rotor = CliffordElement.scalar(m, 1.0)
    for j in range(m - 1):
        for i in range(j + 1, m):
            a = M[j, j]
            b = M[i, j]
            r = math.hypot(a, b)
            if r < 1e-300 or (abs(b) <= 1e-15 * r and a > 0.0):
                continue
            c = a / r
            s = b / r
            rj = c * M[j, :] + s * M[i, :]
            ri = -s * M[j, :] + c * M[i, :]
            M[j, :] = rj
            M[i, :] = ri
            theta = math.atan2(s, c)
            factor = CliffordElement(
                m, {0: math.cos(theta / 2.0), (1 << j) | (1 << i): -math.sin(theta / 2.0)}
            )
            rotor = rotor * factor
    if np.max(np.abs(M - np.eye(m))) > 1e-6:
        raise NotNearIdentity("a principal rotation angle is at pi; no canonical lift")
    s0 = rotor.scalar_part
    if abs(s0) < 0.1:
        raise NotNearIdentity(f"rotor scalar part {s0:.3e} too small for a canonical sign")
    if s0 < 0.0:
        rotor = rotor * -1.0
    return rotor.normalized_rotor()


def sparse_loop_class(loop: RotationLoop, tol: Tolerances = DEFAULT_TOL) -> Z2:
    """Class of a closed SO(m) loop in its fundamental group, as a Z2 bit.

    Walks the cycle in relative steps R_{k+1} R_k^T, lifts each step to the
    canonical rotor and accumulates the lifts (later steps act on the
    left). On closure the product projects to the identity, so it must be
    +-1; 0 means the lift closed on +1, 1 means it closed on -1.
    """
    if loop.dim < 3:
        raise DimensionMismatch("loop classification needs dimension >= 3")
    g = CliffordElement.scalar(loop.dim, 1.0)
    count = 0
    samples = _refined(loop, tol)
    for r_prev, r_next in zip(samples, np.roll(samples, -1, axis=0)):
        step = rotor_from_rotation(r_next @ r_prev.T, tol)
        g = step * g
        count += 1
        if count % 64 == 0:
            g = g.normalized_rotor()
    d_plus = g.distance_to_scalar(1.0)
    d_minus = g.distance_to_scalar(-1.0)
    if min(d_plus, d_minus) > 1e-4:
        raise LiftInconsistent(
            f"lift closed at distance {min(d_plus, d_minus):.3e} from both +1 and -1"
        )
    return Z2(0 if d_plus <= d_minus else 1)


def givens_reference(M: np.ndarray) -> list:
    """spinlift._givens as a list of (j, i, theta), each plane's row pair reassigned."""
    planes = []
    for j in range(len(M) - 1):
        for i in range(j + 1, len(M)):
            theta = np.arctan2(M[i, j], M[j, j])
            c, s = np.cos(theta), np.sin(theta)
            M[j], M[i] = c * M[j] + s * M[i], c * M[i] - s * M[j]
            planes.append((j, i, theta))
    return planes


def rotors_reference(rotations: np.ndarray) -> np.ndarray:
    """spinlift._rotors with a fresh coefficient array per step of every plane."""
    tables = _spin_tables(rotations.shape[1])
    sign = tables.sign[:, :, None]
    M = rotations.transpose(1, 2, 0).copy()
    rotors = np.zeros((len(tables.blades), len(rotations)))
    rotors[0] = 1.0
    for p, (_, _, theta) in enumerate(givens_reference(M)):
        half = 0.5 * theta
        rotors = np.cos(half) * rotors - np.sin(half) * rotors[tables.perm[p]] * sign[p]
    residue = np.max(np.abs(M - np.eye(rotations.shape[1])[:, :, None]), axis=(0, 1))
    if residue.max() > 1e-6:
        k = int(np.argmax(residue > 1e-6))
        raise NotOrthogonal(f"sample {k}: Givens elimination left residue {residue[k]:.3e}")
    return np.divide(rotors.T, np.sqrt(np.sum(rotors * rotors, axis=0))[:, None], order="C")


def refined_reference(loop: RotationLoop, tol: Tolerances) -> np.ndarray:
    """spinlift._refined growing the stack by np.insert, with no cap on its samples."""
    bound = _angle_step_bound(tol.lift_angle_max)
    eye = np.eye(loop.dim)
    samples = loop.samples
    params = np.array(loop.params)
    depth = 0
    while True:
        steps = _successors(samples) @ samples.transpose(0, 2, 1)
        over = np.flatnonzero(np.linalg.norm(steps - eye, axis=(1, 2)) > bound)
        if not over.size:
            break
        start = float(params[over[0]]) % 1.0
        if loop.refiner is None:
            raise RefinementExhausted(
                f"step at parameter {start:.6f} exceeds the angle bound and the loop has no refiner"
            )
        if depth >= _MAX_REFINE_DEPTH:
            raise RefinementExhausted(f"refinement depth {depth} exhausted near parameter {start:.6f}")
        # Params stay unwrapped: the closing step ends at params[0] + 1.
        mid = 0.5 * (params[over] + np.append(params[1:], params[0] + 1.0)[over])
        wrapped = [t % 1.0 for t in mid.tolist()]
        new = _rotation_stack([loop.refiner(t) for t in wrapped], wrapped, loop.dim)
        samples = np.insert(samples, over + 1, new, axis=0)
        params = np.insert(params, over + 1, mid)
        depth += 1
    _note_add("lift_steps", len(samples))
    _note_max("refinement_depth", depth)
    return samples
