"""Homotopy class of closed rotation loops via lifting through the double cover.

A loop R(t) in SO(m), m >= 3, is contractible or not as its continuous
lift to the double cover Spin(m) closes on +1 or on -1. Spin(m) -> SO(m) is
a covering map, so a path lifts uniquely once its start is chosen
(Lawson-Michelsohn, Spin Geometry, 1989, ch. I): the loop is refined until
neighbouring samples are close, every sample is lifted on its own, and the
signs of the lifts are chosen by continuity.

Spin(m) lives in the even part of the Clifford algebra Cl(m), generated by
e_1..e_m with e_i e_i = +1 and e_i e_j = -e_j e_i. Only the d coordinates
that the loop moves (at least 3) take part. A rotor is carried as its
2^(d-1) coefficients on the even blades of Cl(d); right-multiplying by a
bivector e_j e_i is a signed permutation of them, read from a cached table,
so one Givens elimination (_givens) run over a whole stack of samples
yields every rotor by gathers and sign flips (Doran-Lasenby, Geometric
Algebra for Physicists, 2003, ch. 4). The elimination returns the angles
of all planes as one table, so a kernel call (_rotors) takes one table of
half-angle cosines and one of sines and updates its rotors in place
through one gather buffer: no coefficient array is allocated per plane.
Every loop is lifted relative to its first sample, so it starts at the
rotor 1, and the loops a report
lifts (_loop_classes; loop_class is the batch of one) form one cyclic
chain per moved-coordinate count. For m = 3, quaternion_loop_class lifts
through unit quaternions instead, as an independent cross-check.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    LiftInconsistent,
    NotNearIdentity,
    NotOrthogonal,
    RefinementExhausted,
    ValidationError,
)
from .numkit import DEFAULT_TOL, Tolerances, _note_add, _note_max, _successors, _values

_MAX_DIM = 12
_MAX_REFINE_DEPTH = 24
# Samples of one loop's refined stack, a bound on refinement's work: 16
# samples refined 24 levels deep would be 2^28 of them.
_MAX_REFINED_SAMPLES = 1 << 14
_ORTHO_CHECK = 1e-8
# Rotor coefficients per pass of the lift, a bound on memory: a pass holds
# (rows, 2^(d-1)) coefficient arrays of at most this size, 1 MB each (64
# rows at d = 12 moving coordinates, 1024 at d = 8), and only one rotor is
# carried from pass to pass.
_PASS_COEFFS = 64 << 11


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


@functools.cache
def _identity(m: int) -> np.ndarray:
    """The (m, m) identity, built on first use and read-only."""
    eye = np.eye(m)
    eye.setflags(write=False)
    return eye


def _check_special_orthogonal(R: np.ndarray, params: Sequence[float] | None = None) -> np.ndarray:
    """One (m, m) rotation or a (K, m, m) stack of them, checked and returned as float.

    The shape is the caller's to check (_rotation_stack does). A stack is
    checked with one matmul and one batched determinant of the samples
    that pass the orthogonality test; the error names the first failing
    sample (by its parameter, when refiner outputs at params are checked)
    and, as a sample-by-sample check would, the first test it fails there
    (orthogonality before sign).
    """
    R = np.asarray(R, dtype=float)
    stack = R.reshape(-1, *R.shape[-2:])
    defect = np.abs(stack.transpose(0, 2, 1) @ stack - _identity(R.shape[-1]))
    defect = np.maximum.reduce(defect, axis=(1, 2))
    orthogonal = defect <= _ORTHO_CHECK  # False on non-finite entries too
    bad = ~orthogonal
    # only the orthogonal samples have their determinant taken: numpy warns
    # on a non-finite one, which has failed already
    bad[orthogonal] = np.linalg.det(stack[orthogonal]) <= 0.0
    if bad.any():
        k = np.argmax(bad)
        if R.ndim == 2:
            at = ""
        elif params is None:
            at = f"sample {k}: "
        else:
            at = f"refiner output at parameter {params[k]:.6f}: "
        if not orthogonal[k]:
            raise NotOrthogonal(f"{at}orthogonality defect {defect[k]:.3e}")
        raise NotOrthogonal(f"{at}determinant is not positive")
    return R


def _checked_params(params, count: int) -> list[float]:
    """Sample parameters as a list of Python floats.

    params must be count numbers in [0, 1), strictly increasing; anything
    else, a nested or ragged list included, is a ValidationError.
    """
    try:
        t = np.array(params, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError("params must be a list of numbers") from exc
    if t.shape != (count,):
        raise ValidationError("params and samples must have equal length")
    if not np.all((t >= 0.0) & (t < 1.0)):
        raise ValidationError("params must lie in [0, 1)")
    if np.any(t[1:] <= t[:-1]):
        raise ValidationError("params must be strictly increasing")
    return t.tolist()


def _rotation_stack(
    samples, params: Sequence[float] | None = None, dim: int | None = None
) -> np.ndarray:
    """A sequence or (K, m, m) array of rotations, checked and returned as a float stack.

    An array is checked by its shape, a sequence by the set of its samples'
    shapes: every sample must be square, all of one size, and of size dim
    when dim is given. params name the samples in errors, as in
    _check_special_orthogonal.
    """
    if isinstance(samples, np.ndarray):
        shapes = {samples.shape[1:]}
    else:
        shapes = {np.shape(R) for R in samples}
    if any(len(shape) != 2 or shape[0] != shape[1] for shape in shapes):
        raise NotOrthogonal("rotation sample is not square")
    if len(shapes) > 1:
        raise DimensionMismatch("samples have mixed dimensions")
    stack = _check_special_orthogonal(np.array(samples, dtype=float), params)
    if dim is not None and stack.shape[1] != dim:
        raise DimensionMismatch(f"samples are {stack.shape[1]}-dimensional, expected {dim}")
    return stack


@dataclass
class RotationLoop:
    """Cyclic sequence of SO(m) samples, optionally refinable.

    samples may be given as a sequence of (m, m) matrices or as a (K, m, m)
    array; it is stored as the checked (K, m, m) float array, a copy.
    params are sample parameters in [0, 1), strictly increasing (else a
    ValidationError); the loop closes from the last sample back to the
    first. refiner(t) must return the underlying rotation at any parameter
    t in [0, 1) and is used to subdivide steps that rotate too far,
    re-evaluating the geometry rather than interpolating matrices.
    """

    samples: np.ndarray
    refiner: Callable[[float], np.ndarray] | None = None
    params: Sequence[float] | None = None

    def __post_init__(self):
        if len(self.samples) < 1:
            raise ValueError("a rotation loop needs at least one sample")
        self.samples = _rotation_stack(self.samples)
        if self.params is None:
            k = len(self.samples)
            self.params = [i / k for i in range(k)]
        else:
            self.params = _checked_params(self.params, len(self.samples))

    @classmethod
    def _prechecked(
        cls, samples: np.ndarray, refiner: Callable[[float], np.ndarray] | None, params: list[float]
    ) -> RotationLoop:
        """A loop of a (K, m, m) float stack and params that the caller has already checked.

        Runs neither the SO(m) test nor the params test: frame_matrix_loop's
        frames are the Q of a QR whose determinants it has tested, and its
        params are a SampledLoop's checked ones. The refiner's outputs are
        still checked where the lift asks for them.
        """
        loop = cls.__new__(cls)
        loop.samples, loop.refiner, loop.params = samples, refiner, params
        return loop

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


def _refined(loop: RotationLoop, tol: Tolerances) -> np.ndarray:
    """The loop's cyclic (K', m, m) sample stack, every step subdivided to the angle bound.

    A step is stack[k+1] stack[k]^T, the last closing back on stack[0].
    Refinement runs level by level: one batched bound test on all steps,
    then one refiner evaluation at the midpoint of every step over the
    bound, all checked at once and scattered in after their steps. The stack is
    the one a depth-first split of each step would reach, sample for sample. When
    several steps fail, the error raised is one of the shallowest level at
    which any step fails, not necessarily the earliest step's: a bad refiner
    output at level 1 is raised before an earlier step exhausts the depth.
    A level that would take the stack past _MAX_REFINED_SAMPLES is not
    evaluated; like a level past _MAX_REFINE_DEPTH, it is RefinementExhausted.
    """
    bound = _angle_step_bound(tol.lift_angle_max)
    eye = _identity(loop.dim)
    samples = loop.samples
    params = np.array(loop.params)
    depth = 0
    while True:
        defects = _successors(samples) @ samples.transpose(0, 2, 1)
        defects -= eye
        defects *= defects
        # the Frobenius norm as np.linalg.norm computes it
        over = (np.sqrt(np.add.reduce(defects, axis=(1, 2))) > bound).nonzero()[0]
        if not over.size:
            break
        start = float(params[over[0]]) % 1.0
        if loop.refiner is None:
            raise RefinementExhausted(
                f"step at parameter {start:.6f} exceeds the angle bound and the loop has no refiner"
            )
        if depth >= _MAX_REFINE_DEPTH:
            raise RefinementExhausted(f"refinement depth {depth} exhausted near parameter {start:.6f}")
        count = len(samples) + over.size
        if count > _MAX_REFINED_SAMPLES:
            raise RefinementExhausted(
                f"refinement to {count} samples passes the cap of {_MAX_REFINED_SAMPLES} near "
                f"parameter {start:.6f}; lift_angle_max = {tol.lift_angle_max:g} is too small "
                "for this loop"
            )
        # Params stay unwrapped: the closing step ends at params[0] + 1.
        ends = np.concatenate((params[1:], params[:1] + 1.0))
        mid = 0.5 * (params[over] + ends[over])
        wrapped = [t % 1.0 for t in mid.tolist()]
        new = _rotation_stack([loop.refiner(t) for t in wrapped], wrapped, loop.dim)
        # step over[k]'s midpoint goes right after it, to over[k] + 1 + k
        inserted = over + np.arange(1, over.size + 1)
        kept = np.ones(count, dtype=bool)
        kept[inserted] = False
        stack = np.empty((count, loop.dim, loop.dim))
        stack[inserted] = new
        stack[kept] = samples
        grown = np.empty(count)
        grown[inserted] = mid
        grown[kept] = params
        samples, params = stack, grown
        depth += 1
    _note_add("lift_steps", len(samples))
    _note_max("refinement_depth", depth)
    return samples


class _SpinTables(NamedTuple):
    """Even-blade tables of Cl(d); see _spin_tables."""

    planes: list[tuple[int, int]]
    blades: np.ndarray
    perm: np.ndarray
    sign: np.ndarray


@functools.cache
def _spin_tables(d: int) -> _SpinTables:
    """Givens planes of R^d and their actions on even coefficients.

    Coefficient k of an even multivector belongs to the blade whose low d-1
    bits are k and whose top bit makes the grade even (blades[k]); k = 0 is
    the scalar. planes lists the pairs (j, i), j < i, in elimination order.
    Right-multiplying coefficients r by e_j e_i for planes[p] gives
    r[..., perm[p]] * sign[p]: blade A times e_j e_i is blade A ^ {i, j},
    with the sign of the transpositions that bring it into order. Built on
    first use and read-only.
    """
    half = 1 << (d - 1)
    index = np.arange(half)
    # parity[b]: the parity of the number of set bits of b < 2^d
    parity = np.array([b.bit_count() & 1 for b in range(1 << d)], dtype=np.intp)
    blades = index | parity[index] << (d - 1)

    planes = [(j, i) for j in range(d - 1) for i in range(j + 1, d)]
    perm = np.empty((len(planes), half), dtype=np.intp)
    sign = np.empty((len(planes), half))
    for p, (j, i) in enumerate(planes):
        source = blades ^ (1 << j | 1 << i)
        perm[p] = source & (half - 1)
        swaps = parity[source >> (j + 1)] ^ parity[source >> (i + 1)]
        sign[p] = 1.0 - 2.0 * swaps
    for table in (blades, perm, sign):
        table.setflags(write=False)
    return _SpinTables(planes, blades, perm, sign)


def _givens(M: np.ndarray) -> np.ndarray:
    """Reduce a (d, d, K) rotation stack M to I in place; the (planes, K) table of its angles.

    Column by column, the rotation G by theta = atan2(M[i, j], M[j, j]) (a
    (K,) row of the table) in the (e_j, e_i) plane zeroes M[i, j] of M = G ... R
    (Golub and Van Loan, Matrix Computations, 5.1.8), in the order of
    _spin_tables(d).planes. Each column j leaves row j = e_j, M being
    orthogonal, and the last diagonal entry is det R: a reflection is not
    reduced to I.
    """
    d = len(M)
    thetas = np.empty((d * (d - 1) // 2, M.shape[2]))
    p = 0
    for j in range(d - 1):
        Mj = M[j]
        for i in range(j + 1, d):
            Mi = M[i]
            theta = np.arctan2(Mi[j], Mj[j], out=thetas[p])
            c, s = np.cos(theta), np.sin(theta)
            new_j = c * Mj + s * Mi
            Mi *= c
            Mi -= s * Mj
            Mj[...] = new_j
            p += 1
    return thetas


def _rotors(rotations: np.ndarray) -> np.ndarray:
    """Unit rotors covering a (K, d, d) rotation stack, as (K, 2^(d-1)) even coefficients.

    Coefficients are in the order of _spin_tables(d).blades. Every rotation
    is factored into Givens rotations by eliminating its below-diagonal
    entries column by column, all rotations at once (_givens); the factor by theta in
    the (e_j, e_i) plane has the exact rotor cos(theta/2) - sin(theta/2) e_j e_i,
    and the factors are multiplied in order. Every rotation factors so,
    whatever its angles, and its rotor is either of its two lifts. Raises
    NotOrthogonal when the elimination does not reach the identity (a
    reflection does not).
    """
    d = rotations.shape[1]
    tables = _spin_tables(d)
    sign = tables.sign[:, :, None]
    # The rotations run along the last axis of M and of rotors, so each row
    # M[j] and each plane's gather rotors[perm[p]] moves contiguous runs.
    M = rotations.transpose(1, 2, 0).copy()
    half = 0.5 * _givens(M)
    cosines, sines = np.cos(half), np.sin(half)
    rotors = np.zeros((len(tables.blades), len(rotations)))
    rotors[0] = 1.0
    gathered = np.empty_like(rotors)
    # rotors <- cos * rotors - (sin * rotors[perm]) * sign, in place and in
    # that order, so each plane rounds as the expression does
    for p in range(len(half)):
        rotors.take(tables.perm[p], axis=0, out=gathered)
        np.multiply(sines[p], gathered, out=gathered)
        gathered *= sign[p]
        rotors *= cosines[p]
        rotors -= gathered
    M -= _identity(d)[:, :, None]
    residue = np.maximum.reduce(np.abs(M, out=M), axis=(0, 1))
    if np.maximum.reduce(residue) > 1e-6:
        k = int(np.argmax(residue > 1e-6))
        raise NotOrthogonal(f"sample {k}: Givens elimination left residue {residue[k]:.3e}")
    # one rotor per contiguous row, the layout _overlaps sums over
    np.multiply(rotors, rotors, out=gathered)
    return np.divide(rotors.T, np.sqrt(np.add.reduce(gathered, axis=0))[:, None], order="C")


def _overlaps(rotations: np.ndarray) -> np.ndarray:
    """The rotor overlaps of a (K, d, d) rotation stack as one cyclic chain.

    Overlap k is the coefficient dot product of the rotors of row k and of
    row k + 1, the last row closing on row 0. A loop that starts at exactly
    I, as _lift_overlaps' loops do, starts at the exact rotor 1, so the
    overlap into it from the row before is that row's scalar part, the
    closing overlap of the loop that row ends. _rotors runs in passes of
    balanced lengths, each of at most _PASS_COEFFS coefficients (a whole
    link at d <= 8 takes one), and the last rotor of a pass is carried into
    the next. Every overlap is the row sum of the product of two contiguous
    coefficient rows, so a loop's overlaps are bit for bit the same
    wherever the passes cut the stack and whatever loops share it, as long
    as no pass holds a single row (only a stack of one rotation does).
    """
    n, d = rotations.shape[:2]
    passes = -(-n * (1 << (d - 1)) // _PASS_COEFFS)
    overlaps = np.empty(n)
    cuts = [n * p // passes for p in range(passes + 1)]
    for lo, hi in zip(cuts, cuts[1:]):
        fresh = _rotors(rotations[lo:hi])
        if lo:
            rotors = np.concatenate((rotors[-1:], fresh))
        else:
            rotors, first = fresh, fresh[0].copy()
        overlaps[max(lo - 1, 0) : hi - 1] = np.add.reduce(rotors[1:] * rotors[:-1], axis=1)
    overlaps[-1:] = np.add.reduce(rotors[-1:] * first, axis=1)
    return overlaps


def _sign_changes(overlaps: np.ndarray) -> int:
    """How often the rotors L_k of a cyclic rotation loop change sign along it, from _overlaps.

    With s_k the canonical rotor (positive scalar part) of the step
    R_{k+1} R_k^T, L_{k+1} = eps_k s_k L_k for a sign eps_k, so the
    coefficient dot product of L_{k+1} and L_k is eps_k times the scalar
    part of s_k. The count of negative products, the closing pair (K-1, 0)
    included, is odd exactly when the continuous lift closes on -1. Raises
    NotNearIdentity when a product is too small for a trustworthy sign.
    """
    small = np.abs(overlaps) < 0.1
    if small.any():
        raise NotNearIdentity(
            f"rotor scalar part {overlaps[np.argmax(small)]:.3e} too small for a canonical sign"
        )
    return int(np.count_nonzero(overlaps < 0.0))


def _moved_coordinates(rotations: np.ndarray) -> np.ndarray:
    """The rotations restricted to the coordinates some rotation moves, at least 3.

    A coordinate that no rotation moves has an exact identity row and
    column in every rotation, so the rotations, their lifts and the steps'
    canonical rotors all lie in the span of the kept coordinates and its
    Clifford algebra. The comparison is exact; there is no tolerance.
    """
    changed = rotations != _identity(rotations.shape[1])
    moved = changed.any(axis=(0, 1)) | changed.any(axis=(0, 2))
    keep = moved.nonzero()[0]
    if keep.size < 3:
        keep = np.sort(np.concatenate([keep, (~moved).nonzero()[0][: 3 - keep.size]]))
    return rotations[:, keep[:, None], keep]


def _lift_overlaps(loops: Sequence[RotationLoop], tol: Tolerances) -> tuple:
    """The rotor overlaps (see _overlaps) of the loops before the first failing one, and its error.

    Each loop in turn has its dimension checked and is refined with its own
    refiner; its refined samples S_k give the relative stack P_k =
    S_k S_0^T, P_0 the exact identity, restricted to the coordinates the
    P_k move and checked orthogonal. The first loop to fail stops these
    steps, and its error is returned (None when none fails). The loops
    before it that move the same number d of coordinates are lifted as one
    cyclic chain: one _overlaps run per d. A loop is never padded into more
    coordinates, which would reorder its coefficients and the rounding of
    its sums, so its overlaps are bit for bit those it gets alone.
    """
    relative = []
    failure = None
    for loop in loops:
        try:
            if not 3 <= loop.dim <= _MAX_DIM:
                raise DimensionMismatch(
                    f"loop classification needs dimension in [3, {_MAX_DIM}], got {loop.dim}"
                )
            samples = _refined(loop, tol)
            P = samples @ samples[0].T
            P[0] = _identity(loop.dim)
            P = _moved_coordinates(P)
            # P_k is a product of two checked samples, so its determinant is
            # positive, but the two orthogonality defects add up.
            defect = np.abs(P.transpose(0, 2, 1) @ P - _identity(P.shape[1])).max()
            if defect > _ORTHO_CHECK:
                raise NotOrthogonal(f"orthogonality defect {defect:.3e}")
        except Exception as exc:  # noqa: BLE001 - its refiner may raise anything
            failure = exc
            break
        relative.append(P)
    groups: dict[int, list[int]] = {}
    for i, P in enumerate(relative):
        groups.setdefault(P.shape[1], []).append(i)
    out: list = [None] * len(relative)
    for members in groups.values():
        stacks = [relative[i] for i in members]
        overlaps = _overlaps(stacks[0] if len(stacks) == 1 else np.concatenate(stacks))
        ends = itertools.accumulate(len(P) for P in stacks)
        for i, end, P in zip(members, ends, stacks):
            out[i] = overlaps[end - len(P) : end]
    return out, failure


def _loop_classes(loops: Sequence[RotationLoop], tol: Tolerances = DEFAULT_TOL) -> tuple:
    """loop_class of the loops before the first failing one, and its error, from one lift.

    Each loop's refinement, lift and sign test come before the next loop's,
    as classifying the loops one after another meets them.
    """
    overlaps, failure = _lift_overlaps(loops, tol)
    classes = []
    for c in overlaps:
        try:
            classes.append(Z2(_sign_changes(c) & 1))
        except NotNearIdentity as exc:
            return classes, exc
    return classes, failure


def loop_class(loop: RotationLoop, tol: Tolerances = DEFAULT_TOL) -> Z2:
    """Class of a closed SO(m) loop in its fundamental group, as a Z2 bit.

    Lifts every refined sample S_k relative to the first, P_k = S_k S_0^T,
    in the coordinates the P_k move, and counts the lifts' sign changes
    around the cycle; 0 means the continuous lift closes on +1, 1 on -1.
    The batch of one of _loop_classes.
    """
    return _values(_loop_classes([loop], tol))[0]


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
    samples = _refined(loop, tol)
    q_start = _quat_from_matrix(samples[0])
    for x in q_start:
        if abs(x) > 1e-8:
            if x < 0.0:
                q_start = -q_start
            break
    q_prev = q_start
    for r_next in np.roll(samples, -1, axis=0):
        q_next = _quat_from_matrix(r_next)
        d = float(q_next @ q_prev)
        if abs(d) < 0.05:
            raise LiftInconsistent("consecutive quaternion lifts are nearly orthogonal")
        if d < 0.0:
            q_next = -q_next
        q_prev = q_next
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
