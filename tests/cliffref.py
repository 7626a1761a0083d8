"""Sparse Clifford-algebra lift, kept as a reference for the batched kernel.

Multivectors of Cl(m) are dicts from blade bitmasks to coefficients, with
e_i e_i = +1 and e_i e_j = -e_j e_i. rotor_from_rotation lifts one
near-identity rotation by a Givens factorization, one Python product per
factor, and sparse_loop_class multiplies the canonical lifts of a loop's
steps and reads the bit off the product, where fbk.spinlift.loop_class
lifts every sample and counts sign changes; both read the same refined
sample stack and must give the same bit, which the tests compare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from fbk.errors import DimensionMismatch, LiftInconsistent, NotNearIdentity
from fbk.numkit import DEFAULT_TOL, Tolerances
from fbk.spinlift import (
    _MAX_DIM,
    RotationLoop,
    Z2,
    _check_special_orthogonal,
    _refined,
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
