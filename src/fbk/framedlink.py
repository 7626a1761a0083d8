"""Framed links in a presented ambient manifold and their Z2 invariants.

A link component is a sampled closed curve together with framing fields of
its normal bundle, whose shapes _check_component holds to the ambient for
a FramedLink, a link file and frame assembly alike. The ambient manifold
enters through three pieces of data: how many dimensions the embedding
space has, unit normal fields of the manifold inside that space, and a
spin-twist evaluator that scores loops by the chosen spin structure (zero
for the reference structure).

The index of a framed circle is computed by assembling, at every sample,
the square matrix whose rows are [manifold normals, curve tangent, framing
fields] (_frame_rows) orthonormalized, classifying that rotation loop, and
flipping the bit once (plus the spin twist). A report's frames, of link
circles or of a section's two-term zero circles, go through _frame_bits:
one (samples, N, N) stack, one batched QR per frame size, whose
Householder count gives each frame's orientation, and one lift; a frame
loop's refiner goes through the same assembly one refinement level at a
time. A frame loop without refiner is assembled in the coordinates it
moves: a framing field that is a constant coordinate vector e_c, with
coordinate c zero in every other row, is dropped with c before the QR
(_inert_reductions), since the frame is then a constant permutation of
B + I and its loop has the class of B's (Freudenthal suspension); a
refiner's frames at new params need not keep such pairs. Each stage returns
the results of the components before the first failing one, and its
error, which the report raises. kappa of a link is the xor of the
component indices; on Euclidean ambients it agrees with the classical
count that also adds the number of components mod 2.
"""

from __future__ import annotations

import bisect
import itertools
import math
import struct
from dataclasses import asdict, dataclass, field as dataclass_field
from functools import cached_property, reduce
from typing import Callable, NamedTuple, Sequence

import numpy as np
import orjson

from .errors import (
    AmbientMismatch,
    EvaluationFailure,
    OrientationMismatch,
    RankDeficient,
    TooFewFields,
    ValidationError,
    ParseError,
)
from .numkit import (
    DEFAULT_TOL,
    Tolerances,
    _note_add,
    _on_stack,
    _one_or_stack,
    _orthonormal_sets,
    _predecessors,
    _row_norms,
    _successors,
    _values,
    recording,
    stacked,
)
from .spinlift import _MAX_DIM, RotationLoop, Z2, _checked_params, _loop_classes

_MIN_SAMPLES = 16
_NORMAL_ORTHO_CHECK = 1e-8
# Tangents of sample-only loops come from three-point differences, so the
# check against manifold normals must absorb their O(h^2) error.
_NORMAL_TANGENT_CHECK = 1e-4
# A link file's frame rows [manifold normals, sample tangent, framing fields]
# must have |det| / (product of row norms) above this at every sample: the
# ratio is 1 for orthogonal rows and 0 for dependent ones, which frame
# assembly would reject later as a numerical failure. The ratio is read in
# the coordinates the frames move, with their inert pairs dropped: the same
# quantity, since an inert row is e_c with column c zero in the other rows.
_MIN_FRAME_VOLUME = 1e-6
# Orthonormalizing those rows leaves each a residual |R_ii| of at least its
# norm times that ratio (the ratio is the product of the per-row residual
# fractions, each at most 1). Normals and tangent enter with unit norm, so
# framing fields longer than this keep every residual above ortho_tol.
_MIN_FIELD_NORM = DEFAULT_TOL.ortho_tol / _MIN_FRAME_VOLUME
# Components are disjoint when no sample comes closer than this to another
# component's polyline and no two of their segments come this close,
# relative to the link's radius (the largest distance of a sample from the
# centroid, at least 1). Each distance is the norm of a difference of
# centered points, exact to a few units of rounding of that radius.
_MIN_SEPARATION = 1e-6
# Candidate segment pairs per block of that check, times the dimension:
# each of its temporaries, pair indices or the pairs' coordinates, is then
# at most 16 MB.
_DISTANCE_BLOCK_PAIRS = 1 << 20
# Its sweep widens every interval by half the separation and by this much
# of the radius, far above the rounding of the interval ends, so no pair
# within the separation falls outside the candidates.
_SWEEP_SLACK = 1e-12


def _identity(value):
    return value


def _step_lengths(points: np.ndarray) -> np.ndarray:
    """Lengths of the steps points[k + 1] - points[k] of a closed (K, N) stack, the last closing."""
    return np.linalg.norm(_successors(points) - points, axis=1)


def _arc_fractions(lengths: np.ndarray) -> np.ndarray:
    """Normalized cumulative arclength before each step of the (K,) step lengths (starts at 0)."""
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    return cum[:-1] / cum[-1]


@dataclass
class SampledLoop:
    """Closed curve in R^N: cyclic samples plus an optional exact resampler.

    resample maps a parameter to its point and resample_tangent to its unit
    tangent; either may be declared with numkit's `stacked`, and then maps
    a (K,) array of params to a (K, N) stack in one call.
    tangents, when given, are the unit tangents at the samples as a (K, N)
    array, stored read-only; a traced loop carries the kernel tangents its
    tracer found, and its resample_tangent is the kernel at the resampled
    point, so on and between samples it has one tangent. tangent(t) is
    resample_tangent, else central differences of the resampler. The
    tangents at the samples come from one cached place, _sample_tangents.
    The cycled, reversed, transformed and translated copies carry tangents
    and both resamplers along, stack-native and also taking one param;
    with_samples drops the carried tangents.
    """

    points: np.ndarray
    resample: Callable[[float | np.ndarray], np.ndarray] | None = None
    params: Sequence[float] | None = None
    tangents: np.ndarray | None = None
    resample_tangent: Callable[[float | np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2:
            raise ValidationError("loop points must be a list of equal-length vectors")
        if not np.all(np.isfinite(self.points)):
            raise ValidationError("loop points must be finite")
        k = self.points.shape[0]
        if k < _MIN_SAMPLES:
            raise ValidationError(f"a loop needs at least {_MIN_SAMPLES} samples, got {k}")
        if np.any(self._segment_lengths == 0.0):
            raise ValidationError("consecutive loop points must be distinct")
        if self.params is None:
            self.params = [i / k for i in range(k)]
        else:
            self.params = _checked_params(self.params, k)
        if self.tangents is not None:
            self.tangents = np.array(self.tangents, dtype=float)
            if self.tangents.shape != self.points.shape:
                raise ValidationError(
                    f"loop tangents must have the points' shape {self.points.shape}, "
                    f"got {self.tangents.shape}"
                )
            if not np.all(np.isfinite(self.tangents)):
                raise ValidationError("loop tangents must be finite")
            self.tangents.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def length(self) -> float:
        return float(np.sum(self._segment_lengths))

    def point(self, t: float) -> np.ndarray:
        return self._points_at(np.array([t]))[0]

    def _points_at(self, ts: np.ndarray) -> np.ndarray:
        """The points at a (K,) array of params, as (K, N), from one resampler call."""
        if self.resample is None:
            raise ValidationError("loop has no resample callback")
        return _on_stack(self.resample, ts % 1.0, "resampler", self.dimension)

    def _tangents_at(self, ts: np.ndarray) -> np.ndarray:
        """Unit tangents at a (K,) array of params, as (K, N).

        resample_tangent when the loop has one, else central differences:
        one resampler call on the params shifted by +h and by -h.
        """
        if self.resample_tangent is not None:
            return _on_stack(self.resample_tangent, ts % 1.0, "resampled tangent", self.dimension)
        if self.resample is None:
            raise ValidationError("loop has no resample callback")
        h = 0.25 * self._gap
        shifted = self._points_at(np.concatenate([ts + h, ts - h]))
        d = shifted[: len(ts)] - shifted[len(ts) :]
        nrm = _row_norms(d)
        flat = np.flatnonzero(nrm == 0.0)
        if flat.size:
            raise ValidationError(f"degenerate tangent at parameter {ts[flat[0]] % 1.0:.6f}")
        return d / nrm[:, None]

    # points and params are never reassigned after __post_init__, so the
    # values that depend only on them are computed once per loop.
    @cached_property
    def _segment_lengths(self) -> np.ndarray:
        """Lengths of the steps points[k + 1] - points[k], the last one closing on points[0]."""
        return _step_lengths(self.points)

    @cached_property
    def _knots(self) -> np.ndarray:
        """Sample params closed by the wrap-around sample's, params[0] + 1."""
        return np.asarray(list(self.params) + [self.params[0] + 1.0])

    @cached_property
    def _gap(self) -> float:
        return float(np.min(np.diff(self._knots)))

    @cached_property
    def _closed_arc_fractions(self) -> np.ndarray:
        return np.concatenate([self.arc_fractions(), [1.0]])

    def _unwrapped(self, t):
        """t moved by a whole number into [params[0], params[0] + 1); t may be an array."""
        u = t % 1.0
        return u + (u < self.params[0])

    def _segment(self, t):
        """Segment i, from sample i to sample i + 1 (cyclically), holding parameter t.

        Returns i and the weight w of the segment's end at t, so that t is
        (1 - w) params[i] + w params[i + 1], modulo 1; elementwise for an array t.
        """
        ts = self._knots
        u = self._unwrapped(t)
        i = np.minimum(np.searchsorted(ts, u, side="right") - 1, len(ts) - 2)
        return i, (u - ts[i]) / (ts[i + 1] - ts[i])

    @cached_property
    def _sample_tangents(self) -> np.ndarray:
        """Unit tangents at the samples, read-only.

        The carried tangents, else central differences of the resampler, else
        a^2 (p+ - p) + b^2 (p - p-) normalized: the derivative of the quadratic
        through each sample p and its neighbours p-, p+ at distances a, b,
        second order on any spacing (Fornberg, Math. Comp. 51, 1988).
        """
        if self.tangents is not None:
            return self.tangents
        if self.resample is not None:
            out = self._tangents_at(np.asarray(self.params))
        else:
            ahead = _successors(self.points) - self.points
            squares = np.square(self._segment_lengths)[:, None]
            d = _predecessors(squares) * ahead + squares * _predecessors(ahead)
            out = d / _row_norms(d)[:, None]
        out.setflags(write=False)
        return out

    def tangent_at_sample(self, k: int) -> np.ndarray:
        return self._sample_tangents[k].copy()

    def tangent(self, t: float) -> np.ndarray:
        return self._tangents_at(np.array([t]))[0]

    def arc_fractions(self) -> np.ndarray:
        """Normalized cumulative polygonal arclength at each sample (starts at 0)."""
        return _arc_fractions(self._segment_lengths)

    def arc_fraction(self, t):
        """Arc fraction at parameter t (or an array of them), linear between samples."""
        return np.interp(self._unwrapped(t), self._knots, self._closed_arc_fractions)

    def with_samples(self, count: int) -> "SampledLoop":
        if self.resample is None:
            raise ValidationError("resampling a loop requires its resample callback")
        params = np.arange(count) / count
        return SampledLoop(
            self._points_at(params), self.resample, params.tolist(), None, self.resample_tangent
        )

    def _resamplers(self, param, point=_identity, tangent=_identity):
        """A copy's resample and resample_tangent, each None when this loop's is.

        The copy at parameter t is this loop at param(t), with point and
        tangent mapping this loop's values to the copy's, each on a stack;
        the copy's callbacks call this loop's once per stack.
        """

        resample = resample_tangent = None
        if self.resample is not None:
            resample = _one_or_stack(lambda ts: point(self._points_at(param(ts))))
        if self.resample_tangent is not None:
            resample_tangent = _one_or_stack(lambda ts: tangent(self._tangents_at(param(ts))))
        return resample, resample_tangent

    def cycled(self, shift: int) -> "SampledLoop":
        k = len(self)
        shift %= k
        pts = np.roll(self.points, -shift, axis=0)
        base = self.params[shift]
        params = [(self.params[(shift + i) % k] - base) % 1.0 for i in range(k)]
        resample, resample_tangent = self._resamplers(lambda t: (t + base) % 1.0)
        tangents = None if self.tangents is None else np.roll(self.tangents, -shift, axis=0)
        return SampledLoop(pts, resample, params, tangents, resample_tangent)

    def transformed(self, Q: np.ndarray) -> "SampledLoop":
        Q = np.asarray(Q, dtype=float)

        def point(P):
            # one matrix-vector product per row, as Q @ p rounds
            return (Q @ P[:, :, None])[:, :, 0]

        def tangent(V):
            V = point(V)
            return V / _row_norms(V)[:, None]

        resample, resample_tangent = self._resamplers(_identity, point, tangent)
        tangents = None
        if self.tangents is not None:
            tangents = self.tangents @ Q.T
            tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
        return SampledLoop(
            self.points @ Q.T, resample, list(self.params), tangents, resample_tangent
        )

    def translated(self, offset: np.ndarray) -> "SampledLoop":
        offset = np.asarray(offset, dtype=float)
        resample, resample_tangent = self._resamplers(_identity, lambda p: p + offset)
        return SampledLoop(
            self.points + offset, resample, list(self.params), self.tangents, resample_tangent
        )

    def reversed(self) -> "SampledLoop":
        k = len(self)
        idx = [0] + list(range(k - 1, 0, -1))
        pts = self.points[idx]
        params = [0.0] + [1.0 - self.params[i] for i in range(k - 1, 0, -1)]
        resample, resample_tangent = self._resamplers(
            lambda t: (1.0 - t) % 1.0, tangent=lambda v: -v
        )
        tangents = None if self.tangents is None else -self.tangents[idx]
        return SampledLoop(pts, resample, params, tangents, resample_tangent)


@dataclass
class NormalFraming:
    """k vector fields along a loop of K samples in R^N, as one (k, K, N) array.

    fields[i] is field i at every sample, and fields[:, s] all fields at
    sample s. A sequence of k (K, N) arrays is accepted too and stacked into
    that array. The array is stored read-only, since at_sample returns views
    of it. at_sample(s) and at(t) give the fields at one place as a (k, N)
    array; a resampler returns that layout, or a (K, k, N) stack at a (K,)
    array of params when declared with numkit's `stacked`.
    """

    fields: np.ndarray
    resample: Callable[[float | np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        fields = [np.asarray(f, dtype=float) for f in self.fields]
        if not fields:
            raise ValidationError("a framing needs at least one field")
        shape = fields[0].shape
        if len(shape) != 2:
            raise ValidationError("each framing field must be a (samples x dim) array")
        if any(f.shape != shape for f in fields):
            raise ValidationError("framing fields must share one shape")
        self.fields = np.stack(fields)
        if not np.isfinite(self.fields).all():
            raise ValidationError("framing fields must be finite")
        self.fields.setflags(write=False)

    @property
    def count(self) -> int:
        return self.fields.shape[0]

    @property
    def sample_count(self) -> int:
        return self.fields.shape[1]

    def at_sample(self, k: int) -> np.ndarray:
        return self.fields[:, k]

    def at(self, t: float) -> np.ndarray:
        """The resampler's (count, N) fields at t; another shape is an EvaluationFailure."""
        return self._fields_at(np.array([t]))[0]

    def _fields_at(self, ts: np.ndarray) -> np.ndarray:
        """The fields at a (K,) array of params, as (K, count, N), from one resampler call."""
        if self.resample is None:
            raise ValidationError("framing has no resample callback")
        return _on_stack(self.resample, ts % 1.0, "framing resampler", *self.fields.shape[::2])

    def transformed(self, Q: np.ndarray) -> "NormalFraming":
        Q = np.asarray(Q, dtype=float)
        fields = self.fields @ Q.T
        resample = None
        if self.resample is not None:
            resample = _one_or_stack(lambda ts: self._fields_at(ts) @ Q.T)
        return NormalFraming(fields, resample)

    def reversed(self) -> "NormalFraming":
        k = self.sample_count
        idx = [0] + list(range(k - 1, 0, -1))
        fields = self.fields[:, idx]
        resample = None
        if self.resample is not None:
            resample = _one_or_stack(lambda ts: self._fields_at(1.0 - ts))
        return NormalFraming(fields, resample)


@dataclass
class AmbientPresentation:
    """How the ambient manifold sits in R^N.

    manifold_normals are callables giving pointwise-orthonormal unit normal
    fields of the manifold inside R^N along any curve, each called once per
    stack of points when declared with numkit's `stacked` (the sphere's and
    the cylinder's are); spin_twist evaluates the chosen spin structure on
    a loop (constant 0 for the reference structure). Ambients with a
    periodic coordinate declare the plane in which winding is counted,
    which is also what the non-reference spin structure pairs with.
    """

    dimension: int
    manifold_normals: list[Callable[[np.ndarray], np.ndarray]] = dataclass_field(
        default_factory=list
    )
    spin_twist: Callable[[SampledLoop], Z2] = lambda loop: Z2(0)
    kind: str = "custom"
    periodic_plane: tuple[int, int] | None = None

    @property
    def framing_count(self) -> int:
        return self.dimension - len(self.manifold_normals) - 1


def euclidean_ambient(dimension: int) -> AmbientPresentation:
    return AmbientPresentation(dimension, [], lambda loop: Z2(0), kind="euclidean")


def sphere_ambient(dimension: int) -> AmbientPresentation:
    """Unit sphere in R^dimension; the radial field is the single normal.

    radial is stack-native and also takes one point, returning one row.
    """

    @stacked
    def radial(P: np.ndarray) -> np.ndarray:
        P = np.asarray(P, dtype=float)
        return P / _row_norms(P)[..., None]

    return AmbientPresentation(dimension, [radial], lambda loop: Z2(0), kind="sphere")


def cylinder_ambient(dimension: int, spin: str = "standard") -> AmbientPresentation:
    """S^1 x R^(N-2) in R^N, the circle factor unit-sized in coordinates (0, 1).

    The reference ("standard") spin structure is the one that extends over
    the filled disc of the circle factor, so its twist evaluator is
    constantly zero; the non-standard structure pairs a loop with its
    winding parity around the circle factor. Its radial normal, like the
    sphere's, is stack-native and also takes one point.
    """
    if spin not in ("standard", "nonstandard"):
        raise ValidationError(f"unknown spin structure {spin!r}")

    @stacked
    def radial(P: np.ndarray) -> np.ndarray:
        P = np.asarray(P, dtype=float)
        out = np.zeros_like(P)
        out[..., :2] = P[..., :2] / np.hypot(P[..., 0], P[..., 1])[..., None]
        return out

    if spin == "standard":
        twist = lambda loop: Z2(0)  # noqa: E731
    else:
        twist = lambda loop: winding_parity(loop, (0, 1))  # noqa: E731
    return AmbientPresentation(dimension, [radial], twist, kind="cylinder", periodic_plane=(0, 1))


def winding_parity(loop: SampledLoop, plane: tuple[int, int] = (0, 1)) -> Z2:
    """Parity of the winding number of the loop around 0 in a coordinate plane."""
    return Z2(winding_number(loop, plane) & 1)


def winding_number(loop: SampledLoop, plane: tuple[int, int] = (0, 1)) -> int:
    i, j = plane
    x = loop.points[:, i]
    y = loop.points[:, j]
    if np.any(np.hypot(x, y) == 0.0):
        raise ValidationError("winding is undefined through the axis of the plane")
    ang = np.arctan2(y, x)
    d = np.diff(np.concatenate([ang, ang[:1]]))
    d = (d + math.pi) % (2.0 * math.pi) - math.pi
    if np.any(np.abs(d) > 2.5):
        raise ValidationError("loop is sampled too coarsely for a reliable winding count")
    return int(round(float(np.sum(d)) / (2.0 * math.pi)))


def _check_component(
    loop: SampledLoop,
    framing: NormalFraming,
    ambient: AmbientPresentation,
    at: str = "",
    more_fields: bool = False,
):
    """Raise a ValidationError led by at unless the points and framing fields fit the ambient.

    With more_fields, as frame assembly checks its parts, more fields than
    the ambient requires pass, to fail the rank rule (N + 1 rows in R^N).
    """
    want = ambient.framing_count
    if loop.dimension != ambient.dimension:
        raise ValidationError(
            f"{at}points live in R^{loop.dimension}, ambient is R^{ambient.dimension}"
        )
    if framing.count < want or (framing.count > want and not more_fields):
        raise ValidationError(f"{at}framing has {framing.count} fields, ambient requires {want}")
    if framing.sample_count != len(loop):
        raise ValidationError(
            f"{at}framing sampled at {framing.sample_count} points, loop at {len(loop)}"
        )
    if framing.fields.shape[2] != loop.dimension:
        raise ValidationError(f"{at}framing vectors have the wrong dimension")


@dataclass
class FramedLink:
    """Disjoint framed circles sharing one ambient presentation."""

    components: list[tuple[SampledLoop, NormalFraming]]
    ambient: AmbientPresentation

    def __post_init__(self):
        for n, (loop, framing) in enumerate(self.components):
            _check_component(loop, framing, self.ambient, f"component {n}: ")
        if len(self.components) > 1:
            _check_disjoint([loop.points for loop, _ in self.components])


def _point_gaps(
    starts: np.ndarray, chords: np.ndarray, lengths: np.ndarray, query: np.ndarray, other: np.ndarray
) -> np.ndarray:
    """Distance from sample starts[query[k]] to segment other[k], for every k.

    Segment s runs from starts[s] along chords[s], of squared length
    lengths[s] > 0; the distance is |p - a - t d| at the projection
    parameter t clamped to [0, 1].
    """
    offset = starts[query] - starts[other]
    d = chords[other]
    t = np.clip(np.einsum("kn,kn->k", offset, d) / lengths[other], 0.0, 1.0)
    gap = offset - t[:, None] * d
    return np.sqrt(np.einsum("kn,kn->k", gap, gap))


def _segment_gaps(
    starts: np.ndarray, chords: np.ndarray, lengths: np.ndarray, query: np.ndarray, other: np.ndarray
) -> np.ndarray:
    """Distance between segment query[k] and segment other[k], for every k.

    Segment s runs from starts[s] along chords[s], of squared length
    lengths[s] > 0. The closest points are the clamped solution of the two
    segments' normal equations (Ericson, Real-Time Collision Detection,
    2005, section 5.1.9): the unconstrained parameter on the first segment
    clamped to [0, 1], the second's projected from it, and where that one
    clamps, the first's projected back.
    """
    u, v = chords[query], chords[other]
    r = starts[query] - starts[other]
    a, e = lengths[query], lengths[other]
    b = np.einsum("kn,kn->k", u, v)
    c = np.einsum("kn,kn->k", u, r)
    f = np.einsum("kn,kn->k", v, r)
    denom = a * e - b * b
    s = np.divide(b * f - c * e, denom, out=np.zeros_like(denom), where=denom > 0.0)
    s = np.clip(s, 0.0, 1.0)
    t = (b * s + f) / e
    s = np.where(t < 0.0, np.clip(-c / a, 0.0, 1.0), s)
    s = np.where(t > 1.0, np.clip((b - c) / a, 0.0, 1.0), s)
    gap = r + s[:, None] * u - np.clip(t, 0.0, 1.0)[:, None] * v
    return np.sqrt(np.einsum("kn,kn->k", gap, gap))


def _check_disjoint(point_sets: Sequence[np.ndarray]):
    """Raise ValidationError when two components come within the separation of each other.

    A sample within it of another component's polyline is reported first,
    at the lowest component and sample. Otherwise two segments of different
    components that come that close (they cross between samples) are
    reported, at the lowest segment and then the lowest segment it meets.

    The candidate pairs come from one sort-and-sweep along the coordinate
    where the samples spread widest. Each segment's interval there, widened
    by half the separation and a rounding slack, is sorted by its lower end;
    two intervals overlap exactly when the later one starts inside the
    earlier, so each segment's candidates are the intervals that start
    inside its own, one binary search away. The pairs are expanded in
    blocks of at most _DISTANCE_BLOCK_PAIRS / dimension, so memory stays
    bounded even when all intervals overlap. Pairs within one component, and
    pairs whose boxes (the segments' ranges in every coordinate, widened the
    same way) do not meet, are dropped; the rest are tested by their exact
    clamped distances: each segment's start sample to the other segment,
    then segment to segment. The candidate pairs are noted as
    disjoint_pairs.
    """
    starts = np.concatenate(point_sets)
    center = np.mean(starts, axis=0)
    starts = starts - center
    ends = np.concatenate([_successors(p) for p in point_sets]) - center
    chords = ends - starts
    lengths = np.einsum("kn,kn->k", chords, chords)
    sizes = [len(p) for p in point_sets]
    owner = np.repeat(np.arange(len(sizes)), sizes)
    firsts = np.cumsum([0] + sizes[:-1])
    radius = max(1.0, float(np.max(np.linalg.norm(starts, axis=1))))
    limit = _MIN_SEPARATION * radius
    axis = int(np.argmax(np.max(starts, axis=0) - np.min(starts, axis=0)))
    pad = 0.5 * limit + _SWEEP_SLACK * radius
    # each segment's box, its coordinate ranges widened by pad, as center and half-widths
    middles, halves = 0.5 * (starts + ends), 0.5 * np.abs(chords) + pad
    low = np.minimum(starts[:, axis], ends[:, axis]) - pad
    order = np.argsort(low, kind="stable")
    low = low[order]
    high = np.maximum(starts[order, axis], ends[order, axis]) + pad
    counts = np.searchsorted(low, high, "right") - np.arange(1, len(low) + 1)
    bounds = np.cumsum(counts)
    _note_add("disjoint_pairs", int(bounds[-1]))
    block = max(1, _DISTANCE_BLOCK_PAIRS // starts.shape[1])
    samples, crossings = [], []
    first = 0
    while first < len(low):
        done = int(bounds[first - 1]) if first else 0
        last = max(first + 1, int(np.searchsorted(bounds, done + block, "right")))
        reps = counts[first:last]
        left = np.repeat(np.arange(first, last), reps)
        right = left + 1 + np.arange(int(bounds[last - 1]) - done)
        right -= np.repeat(bounds[first:last] - reps - done, reps)
        a, b = order[left], order[right]
        keep = owner[a] != owner[b]
        a, b = a[keep], b[keep]
        keep = np.all(np.abs(middles[a] - middles[b]) <= halves[a] + halves[b], axis=1)
        a, b = a[keep], b[keep]
        first = last
        if not a.size:
            continue
        query, other = np.concatenate([a, b]), np.concatenate([b, a])
        near = query[_point_gaps(starts, chords, lengths, query, other) <= limit]
        if near.size:
            samples.append(int(np.min(near)))
        elif not samples:
            met = _segment_gaps(starts, chords, lengths, a, b) <= limit
            if np.any(met):
                lower, upper = np.minimum(a[met], b[met]), np.maximum(a[met], b[met])
                crossings.append((int(np.min(lower)), int(np.min(upper[lower == np.min(lower)]))))
    if samples:
        sample = min(samples)
        n = int(owner[sample])
        raise ValidationError(
            f"component {n}: sample {sample - firsts[n]} lies within {limit:.1e} of "
            "another component; components must be disjoint"
        )
    if crossings:
        s, t = min(crossings)
        n, m = int(owner[s]), int(owner[t])
        raise ValidationError(
            f"component {n}: segment {s - firsts[n]} comes within {limit:.1e} of "
            f"component {m}: segment {t - firsts[m]}; components must be disjoint"
        )


def _normals_at(manifold_normals: Sequence[Callable], points: np.ndarray) -> np.ndarray:
    """The manifold normal fields at a (K, N) stack of points, as (K, count, N).

    One adapter call per field, so a stack-native field is called once per
    stack.
    """
    k, dim = points.shape
    normals = [_on_stack(n, points, "manifold normal", dim) for n in manifold_normals]
    return np.stack(normals, axis=1) if normals else np.empty((k, 0, dim))


class _FramePart(NamedTuple):
    """One frame loop to assemble: frame_matrix_loop's arguments, and its rank error.

    rank_error, when given, maps the place of a rank error of the part's
    frames ("sample k" or "parameter t") to the exception raised instead of
    RankDeficient, at the samples and in the refiner alike.
    """

    loop: SampledLoop
    framing: NormalFraming
    middle: Callable[[np.ndarray], np.ndarray] | None = None
    rank_error: Callable[[str], Exception] | None = None


def _frame_rows(ambient: AmbientPresentation, points, middles, fields) -> np.ndarray:
    """The (K, N, N) rows [manifold normals, middle row, framing fields] at (K, N) points."""
    normals = _normals_at(ambient.manifold_normals, points)
    return np.concatenate([normals, middles[:, None], fields], axis=1)


def _middle_rows(part: _FramePart, points: np.ndarray, tangents: Callable[[], np.ndarray]):
    """The part's middle rows at (K, N) points: tangents(), or its middle row map there."""
    if part.middle is None:
        return tangents()
    return _on_stack(part.middle, points, "middle row", points.shape[1])


def _inversions(order: list[int]) -> int:
    """The pairs i < j with order[i] > order[j]: their parity is the permutation's."""
    return sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])


def _reduction(pairs: np.ndarray) -> tuple | None:
    """The kept (frame rows, coordinates) and pairing parity of an (N, N) inert-pair mask.

    Pairs are dropped highest row first, down to at least 3 kept rows;
    None when none is dropped. The frame's determinant is B's times the
    signs of ordering its rows and its columns as [kept, dropped pair by
    pair], which makes it B + I; odd is whether that sign is -1.
    """
    dim = len(pairs)
    rows, cols = (index.tolist() for index in pairs.nonzero())
    kept = max(0, 3 - (dim - len(rows)))
    if len(rows) <= kept:
        return None
    rows, cols = rows[kept:], cols[kept:]
    keep_rows = [r for r in range(dim) if r not in rows]
    keep_cols = [c for c in range(dim) if c not in cols]
    odd = (_inversions(keep_rows + rows) + _inversions(keep_cols + cols)) % 2 == 1
    return np.array(keep_rows), np.array(keep_cols), odd


def _inert_reductions(
    stack: np.ndarray, ends: Sequence[int], reducible: Sequence[bool], count: int
) -> list:
    """Each part's _reduction: its kept frame rows and coordinates, and their parity, or None.

    A framing-field row r and a coordinate c are an inert pair of a part
    when row r is exactly e_c at every sample and column c is exactly zero
    in every other row; count is the number of manifold normals, whose rows
    and the middle row never pair. Up to constant permutations of its rows
    and columns such a frame is B + I, B its kept rows and coordinates, so
    its orthonormalized frame is B's plus I, and its loop has B's class in
    pi1(SO(m)) for m >= 3 (Freudenthal suspension). Only the parts flagged
    in reducible, of the parts of the stack that end at ends, are reduced.
    One pass over the stack finds the pairs of all parts: the entries that
    are 1 at every sample of a part, and those that are 0.
    """
    out: list = [None] * len(ends)
    dim = stack.shape[2]
    if dim <= 3 or stack.shape[1] != dim or not any(reducible[: len(ends)]):
        return out
    starts = [0, *ends[:-1]]
    zeros = np.logical_and.reduceat(stack == 0.0, starts, axis=0)
    if not zeros[:, count].any():  # the middle row moves every coordinate
        return out
    ones = np.logical_and.reduceat(stack == 1.0, starts, axis=0)
    inert = ones & (zeros.sum(axis=2) == dim - 1)[:, :, None]
    inert &= (zeros.sum(axis=1) == dim - 1)[:, None, :]
    inert[:, : count + 1] = False
    found: dict[bytes, tuple | None] = {}
    for p in np.flatnonzero(inert.any(axis=(1, 2))):
        if reducible[p]:
            key = inert[p].tobytes()
            if key not in found:
                found[key] = _reduction(inert[p])
            out[p] = found[key]
    return out


def _reduced_rows(rows: np.ndarray, keep_rows, keep_cols, odd: bool) -> np.ndarray:
    """The kept rows and coordinates of a part's rows; an odd pairing negates the last kept row.

    With that row negated the reduced frame has the full frame's
    determinant, so the QR's orientation is the full frame's, and its loop
    is B's conjugated by a constant reflection, of the same class.
    """
    out = rows[:, keep_rows[:, None], keep_cols]
    if odd:
        out[:, -1] *= -1.0
    return out


def _reduced_groups(stack: np.ndarray, ends: Sequence[int], reductions: Sequence):
    """The parts' frame rows grouped by frame size: (members, rows, firsts) per size.

    members are the group's parts in stack order, rows their rows as one
    (rows, m, m) stack, a part with a reduction entering as its
    _reduced_rows, and firsts[i] where member i starts in it, the group's
    end last. Without reductions the stack is the one group.
    """
    bounds = [0, *ends]
    groups: dict[int, list[int]] = {}
    for p, reduction in enumerate(reductions):
        groups.setdefault(-1 if reduction is None else len(reduction[0]), []).append(p)

    def part_rows(p: int) -> np.ndarray:
        rows = stack[bounds[p] : bounds[p + 1]]
        return rows if reductions[p] is None else _reduced_rows(rows, *reductions[p])

    for members in groups.values():
        if not any(reductions):
            rows = stack
        else:
            sets = [part_rows(p) for p in members]
            rows = sets[0] if len(sets) == 1 else np.concatenate(sets)
        yield members, rows, [0, *itertools.accumulate(bounds[p + 1] - bounds[p] for p in members)]


def _frame_sets(stack: np.ndarray, ends: Sequence[int], reductions: Sequence, tol: Tolerances):
    """The QR of the parts' frame rows: their frames, each row's orientation, the first rank error.

    Each group of _reduced_groups, the parts of one frame size, is one
    _orthonormal_sets call; a reduced part numbers its vectors by their
    rows among all N. Returns each part's frames, a (rows,) bool array
    that is True where det < 0, and (row in the stack, RankDeficient) of
    the first dependent row, or None.
    """
    bounds = [0, *ends]
    frames: list = [None] * len(ends)
    flipped = np.zeros(len(stack), dtype=bool)
    dependent = None
    for members, group, firsts in _reduced_groups(stack, ends, reductions):
        vectors = None if reductions[members[0]] is None else [reductions[p][0] for p in members]
        (q, orientation), failed = _orthonormal_sets(group, tol.ortho_tol, firsts[:-1], vectors)
        for p, a, b in zip(members, firsts, firsts[1:]):
            frames[p] = q[a:b]
            if orientation is not None:
                flipped[bounds[p] : bounds[p + 1]] = orientation[a:b]
        if failed is not None:
            n = bisect.bisect_right(firsts, failed.index) - 1
            row = bounds[members[n]] + failed.index - firsts[n]
            if dependent is None or row < dependent[0]:
                dependent = row, failed
    return frames, flipped, dependent


def _assemble_frames(
    ambient: AmbientPresentation,
    parts: Sequence[_FramePart],
    rows: Sequence[np.ndarray],
    tol: Tolerances,
    where: Callable[[int], str],
    reducible: Sequence[bool] = (),
) -> tuple[list[np.ndarray], Exception | None]:
    """The frames of the parts before the first failing one, and its error.

    rows holds the _frame_rows of the first parts. Each check runs over
    the parts that passed the earlier ones: finite rows, orthonormal
    normals orthogonal to the middle row, rank (or the part's rank_error),
    orientation (det < 0, the parity that the QR gives). A failing row cuts
    the stack before its part, and the error names it as where(k), k in
    the part. A part flagged in reducible has its inert pairs dropped
    (_inert_reductions) before the QR, and its frames are (K, m, m);
    parts of one frame size share one QR. A rank error still numbers the
    vectors among all N rows, and the orientation is the full frame's.
    """
    if not rows:
        return [], None
    count = len(ambient.manifold_normals)
    ends = list(itertools.accumulate(map(len, rows)))
    stack = rows[0] if len(rows) == 1 else np.concatenate(rows)
    failure = None

    def cut(row: int) -> tuple[_FramePart, int]:
        """Cut the stack before the part of row; that part, and row counted in it."""
        nonlocal stack
        p = bisect.bisect_right(ends, row)
        k = row - (ends[p - 1] if p else 0)
        del ends[p:]
        stack = stack[: ends[-1] if ends else 0]
        return parts[p], k

    if not np.isfinite(stack).all():
        finite = np.isfinite(stack).all(axis=2)
        row = int(np.argmin(finite.all(axis=1)))
        i = int(np.argmin(finite[row]))
        name = "manifold normal" if i < count else "middle row" if i == count else "framing field"
        failure = EvaluationFailure(f"non-finite {name} at {where(cut(row)[1])}")
    normals = stack[:, :count]
    gram = normals @ normals.transpose(0, 2, 1)
    skewed = np.any(np.abs(gram - np.eye(count)) > _NORMAL_ORTHO_CHECK, axis=(1, 2))
    leaning = np.abs(np.einsum("kan,kn->ka", normals, stack[:, count])) > _NORMAL_TANGENT_CHECK
    bad = skewed | leaning.any(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        at = where(cut(row)[1])
        if skewed[row]:
            failure = ValidationError(f"manifold normals are not orthonormal at {at}")
        else:
            failure = ValidationError(
                f"manifold normal {np.argmax(leaning[row])} is not orthogonal to the curve at {at}"
            )
    reductions = _inert_reductions(stack, ends, reducible, count)
    frames, flipped, dependent = _frame_sets(stack, ends, reductions, tol)
    if dependent is not None:
        part, k = cut(dependent[0])
        failure = RankDeficient(
            f"frame rows [manifold normals, {_middle_name(part.middle)}, framing fields] are "
            f"dependent at {where(k)}: {dependent[1]}",
            index=k,
        )
        if part.rank_error is not None:
            cause, failure = failure, part.rank_error(where(k))
            failure.__cause__ = cause
    if not ends:  # every part failed; with more rows than N, frames is not square
        return [], failure
    flipped = flipped[: len(stack)]
    if flipped.any():
        part, k = cut(int(np.argmax(flipped)))
        failure = OrientationMismatch(
            f"assembled frame has determinant -1 at {where(k)}; row order is "
            f"[manifold normals, {_middle_name(part.middle)}, framing fields]"
        )
    return frames[: len(ends)], failure


def _frame_loops(
    parts: Sequence[_FramePart], ambient: AmbientPresentation, tol: Tolerances
) -> tuple[list[RotationLoop], Exception | None]:
    """frame_matrix_loop of the parts before the first failing one, and its error (or None).

    Each part in turn meets _check_component and runs its callbacks, once
    per stack; a breach, or a callback that raises, fails its part. Each
    RotationLoop holds a view of the frames and its part's refiner. A part
    without a refiner is assembled in the coordinates it moves: its inert
    pairs are dropped (_inert_reductions), since a refiner's frames at new
    params need not keep them. Nothing is noted.
    """
    refiners = [_frame_refiner(part, ambient, tol) for part in parts]
    rows, failure = [], None
    for part in parts:
        loop = part.loop
        try:
            _check_component(loop, part.framing, ambient, more_fields=True)
            middles = _middle_rows(part, loop.points, lambda: loop._sample_tangents)
            fields = part.framing.fields.transpose(1, 0, 2)
            rows.append(_frame_rows(ambient, loop.points, middles, fields))
        except Exception as exc:  # noqa: BLE001 - a geometry callback's error is its part's
            failure = exc
            break
    frames, assembly_failure = _assemble_frames(
        ambient, parts, rows, tol, lambda k: f"sample {k}", [r is None for r in refiners]
    )
    # _assemble_frames has checked the frames and SampledLoop the params
    loops = [
        RotationLoop._prechecked(f, refiner, list(part.loop.params))
        for part, f, refiner in zip(parts, frames, refiners)
    ]
    return loops, assembly_failure or failure


def _middle_name(middle) -> str:
    return "tangent" if middle is None else "middle row"


def _frame_refiner(part: _FramePart, ambient: AmbientPresentation, tol: Tolerances):
    """The part's frames at a (K,) array of params, as at the samples; None unless both resample."""
    loop, framing = part.loop, part.framing
    if loop.resample is None or framing.resample is None:
        return None

    @_one_or_stack
    def refiner(ts: np.ndarray) -> np.ndarray:
        points = loop._points_at(ts)
        middles = _middle_rows(part, points, lambda: loop._tangents_at(ts))
        rows = _frame_rows(ambient, points, middles, framing._fields_at(ts))
        where = lambda k: f"parameter {ts[k] % 1.0:.6f}"  # noqa: E731
        (frames,) = _values(_assemble_frames(ambient, [part], [rows], tol, where))
        _note_add("frames_assembled", len(ts))
        return frames

    return refiner


def frame_matrix_loop(
    loop: SampledLoop,
    framing: NormalFraming,
    ambient: AmbientPresentation,
    tol: Tolerances = DEFAULT_TOL,
    middle: Callable[[np.ndarray], np.ndarray] | None = None,
) -> RotationLoop:
    """Rotation loop of assembled frames [manifold normals, middle row, framing].

    The middle row is the curve tangent (the one tangent_at_sample
    returns), or middle(point) when a map from points to middle rows is
    given. Each sample yields the N x N matrix whose rows are the
    orthonormalized frame in the standard basis, of determinant +1; all
    samples are assembled as one stack. When both the loop and the framing
    resample, the loop carries a refiner that assembles the frames at a
    stack of params the same way. Otherwise the frames are those rows and
    coordinates that are not inert pairs (a framing field that is e_c at
    every sample, coordinate c zero in every other row), at least 3: the
    samples are (K, m, m), of the class of the N x N loop, the last kept
    row negated where the pairing is odd. Every assembled frame is noted
    as frames_assembled. The reports assemble the frame loops of all their
    components as one stack, of which this is the stack of one: the loop
    a report lifts.
    """
    (rl,) = _values(_frame_loops([_FramePart(loop, framing, middle)], ambient, tol))
    _note_add("frames_assembled", len(rl))
    return rl


def _frame_bits(
    parts: Sequence[_FramePart],
    group: int,
    ambient: AmbientPresentation,
    tol: Tolerances,
    bit: Callable[[Z2, SampledLoop], Z2],
) -> list[Z2]:
    """bit(xor of its parts' classes, its first loop) of every component of group consecutive parts.

    A link circle is one part, a section's zero circle two. One frame stack
    and one lift for all; a component is lifted only when all its parts'
    frames pass. The error raised, and the frames noted, are those of the
    components one after another up to the first failing one.
    """
    loops, failure = _frame_loops(parts, ambient, tol)
    classes, lift_failure = _loop_classes(loops[: len(loops) // group * group], tol)
    bits = []
    done = len(classes) // group * group
    for c in range(0, done, group):
        _note_add("frames_assembled", sum(map(len, loops[c : c + group])))
        bits.append(bit(reduce(lambda a, b: a ^ b, classes[c : c + group]), parts[c].loop))
    if loops[done:]:
        _note_add("frames_assembled", sum(map(len, loops[done : done + group])))
    return _values((bits, lift_failure or failure))


def _circle_indices(components, ambient: AmbientPresentation, tol: Tolerances) -> list[Z2]:
    """index_of_circle of every (loop, framing) component, through _frame_bits."""
    twisted = lambda cls, loop: cls ^ Z2(1) ^ ambient.spin_twist(loop)  # noqa: E731
    return _frame_bits([_FramePart(*c) for c in components], 1, ambient, tol, twisted)


def index_of_circle(
    loop: SampledLoop,
    framing: NormalFraming,
    ambient: AmbientPresentation,
    tol: Tolerances = DEFAULT_TOL,
) -> Z2:
    """Index of one framed circle: frame-loop class, flipped once, plus twist."""
    return _circle_indices([(loop, framing)], ambient, tol)[0]


def kappa(link: FramedLink, tol: Tolerances = DEFAULT_TOL) -> Z2:
    """Degree of a framed link: xor of the component indices (empty link: 0)."""
    return reduce(lambda a, b: a ^ b, _circle_indices(link.components, link.ambient, tol), Z2(0))


def delta_pontryagin(link: FramedLink, tol: Tolerances = DEFAULT_TOL) -> Z2:
    """Classical Z2 count for Euclidean ambients.

    Sum (xor) of the frame-loop classes of all components plus the number
    of components mod 2. Agrees with kappa on every Euclidean link.
    """
    if link.ambient.kind != "euclidean" or link.ambient.manifold_normals:
        raise AmbientMismatch("this count is defined on Euclidean ambients only")
    parts = [_FramePart(*c) for c in link.components]
    classes = _frame_bits(parts, 1, link.ambient, tol, lambda cls, loop: cls)
    return reduce(lambda a, b: a ^ b, classes, Z2(len(link.components) & 1))


def _recombined(
    framing: NormalFraming, params: Sequence[float], mix: Callable[[np.ndarray], np.ndarray]
) -> NormalFraming:
    """Framing whose field i is sum_j mix(t)[i, j] field j at parameter t.

    mix takes a (K,) array of parameters to the (K, count, count) stack of
    matrices there. It is applied to all sample params in one call, and
    inside the resampler, when the framing has one, to its params.
    """
    fields = mix(np.asarray(params, dtype=float)) @ framing.fields.transpose(1, 0, 2)
    resample = None
    if framing.resample is not None:
        resample = _one_or_stack(lambda ts: mix(ts % 1.0) @ framing._fields_at(ts))
    return NormalFraming(fields.transpose(1, 0, 2), resample)


def twist_framing(loop: SampledLoop, framing: NormalFraming, turns: int) -> NormalFraming:
    """Compose a framing with rotation by 2*pi*turns in its first two fields.

    The rotation angle advances with normalized arclength, so a whole
    number of turns keeps the framing cyclically continuous; any other
    number is a ValidationError.
    """
    if framing.count < 2:
        raise TooFewFields("twisting needs at least two framing fields")
    if not float(turns).is_integer():
        raise ValidationError(f"a twist needs a whole number of turns, got {turns!r}")
    turns = int(turns)

    def mix(ts: np.ndarray) -> np.ndarray:
        a = 2.0 * math.pi * turns * loop.arc_fraction(ts)
        c, s = np.cos(a), np.sin(a)
        out = np.tile(np.eye(framing.count), (len(ts), 1, 1))
        out[:, :2, :2] = np.stack([c, s, -s, c], axis=-1).reshape(-1, 2, 2)
        return out

    return _recombined(framing, loop.params, mix)


@dataclass
class ComponentReport:
    index: int
    winding: int | None
    samples: int
    length: float

    def to_dict(self) -> dict:
        return {
            "index": int(self.index),
            "winding": self.winding,
            "samples": self.samples,
            "length": self.length,
        }


@dataclass
class InvariantReport:
    components: list[ComponentReport]
    kappa: Z2
    nonzero_count_mod2: Z2
    diagnostics: dict

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "components": [c.to_dict() for c in self.components],
            "kappa": int(self.kappa),
            "nonzero_count_mod2": int(self.nonzero_count_mod2),
            "diagnostics": self.diagnostics,
        }


def _report(
    bits: Sequence[Z2],
    loops: Sequence[SampledLoop],
    ambient: AmbientPresentation,
    tol: Tolerances,
    record: dict,
    traced: bool = False,
) -> InvariantReport:
    """The one InvariantReport builder.

    bits and loops hold each component's bit and loop, and record the
    recording scope the caller opened around computing them. The
    diagnostics carry the deepest lift refinement; for traced links also
    the largest corrector residual and the closure error of each kept
    component, and the number of skipped seeds.
    """
    comps = []
    for bit, loop in zip(bits, loops, strict=True):
        winding = None
        if ambient.periodic_plane is not None:
            winding = int(winding_parity(loop, ambient.periodic_plane))
        comps.append(ComponentReport(int(bit), winding, len(loop), loop.length()))
    total = reduce(lambda a, b: a ^ b, bits, Z2(0))
    nonzero = Z2(sum(int(b) for b in bits) & 1)
    diagnostics = {
        "max_residual": record.get("max_residual"),
        "refinement_depth": record.get("refinement_depth", 0),
        "tolerances": asdict(tol),
    }
    if traced:
        diagnostics["closure_errors"] = record.get("closure_errors", [])
        diagnostics["seeds_skipped"] = record.get("seeds_skipped", 0)
    return InvariantReport(comps, total, nonzero, diagnostics)


def invariant_report(link: FramedLink, tol: Tolerances = DEFAULT_TOL) -> InvariantReport:
    """Per-component indices, winding parity where defined, and kappa."""
    with recording() as record:
        bits = _circle_indices(link.components, link.ambient, tol)
    return _report(bits, [loop for loop, _ in link.components], link.ambient, tol, record)


def _require(condition: bool, message: str):
    if not condition:
        raise ValidationError(message)


def load_link(document: dict) -> FramedLink:
    """Build a FramedLink from a parsed link document (see load_link_file).

    Each component's points and framing are converted to float arrays
    (_float_array) and checked in turn: their shapes against the ambient,
    then the sphere's or the cylinder's radius, up to the first component
    that fails. The frame volume and handedness rule then runs once over
    the frames of the components before it (_frame_volume_error), in the
    coordinates the frames move, and its error goes first; then that
    component's error, then FramedLink's disjointness check.
    """
    _require(isinstance(document, dict), "top level must be an object")
    _require("ambient" in document, "missing field: ambient")
    _require("components" in document, "missing field: components")
    amb = document["ambient"]
    _require(isinstance(amb, dict), "ambient must be an object")
    _require("kind" in amb, "missing field: ambient.kind")
    _require("dimension" in amb, "missing field: ambient.dimension")
    kind = amb["kind"]
    dim = amb["dimension"]
    _require(
        isinstance(dim, int) and 3 <= dim <= _MAX_DIM,
        f"ambient.dimension must be an integer in [3, {_MAX_DIM}]",
    )
    spin = amb.get("spin_twist", "standard")
    if kind == "euclidean":
        _require(spin == "standard", "euclidean space has a unique spin structure")
        ambient = euclidean_ambient(dim)
    elif kind == "sphere":
        _require(spin == "standard", "spheres have a unique spin structure")
        ambient = sphere_ambient(dim)
    elif kind == "cylinder":
        ambient = cylinder_ambient(dim, spin)
    else:
        raise ValidationError(f"unknown ambient kind {kind!r}")
    _require(isinstance(document["components"], list), "components must be a list")
    comps, rows, failure = [], [], None
    for n, comp in enumerate(document["components"]):
        try:
            loop, framing = _loaded_component(n, comp, ambient)
            fields = framing.fields.transpose(1, 0, 2)
            rows.append(_frame_rows(ambient, loop.points, loop._sample_tangents, fields))
        except Exception as exc:  # noqa: BLE001 - raised after the volume rule of those before
            failure = exc
            break
        comps.append((loop, framing))
    volume_error = _frame_volume_error(rows, ambient)
    if volume_error is not None:
        raise volume_error
    if failure is not None:
        raise failure
    return FramedLink(comps, ambient)


def _loaded_component(n: int, comp, ambient: AmbientPresentation):
    """Component n of a link document as its loop and framing, checked up to its frames' volume."""
    _require(isinstance(comp, dict), f"component {n} must be an object")
    _require("points" in comp, f"component {n}: missing field points")
    _require("framing" in comp, f"component {n}: missing field framing")
    try:
        pts = _float_array(comp["points"], 2)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"component {n}: points are not numeric") from exc
    _require(pts.ndim == 2, f"component {n}: points must be a list of vectors")
    try:
        fields = _float_array(comp["framing"], 3)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"component {n}: framing is not numeric") from exc
    _require(fields.ndim == 3, f"component {n}: framing must be [field][sample][coordinate]")
    loop, framing = SampledLoop(pts), NormalFraming(fields)
    _check_component(loop, framing, ambient, f"component {n}: ")
    if ambient.kind == "sphere":
        radii = np.linalg.norm(pts, axis=1)
        _require(
            bool(np.max(np.abs(radii - 1.0)) < 1e-6),
            f"component {n}: points must lie on the unit sphere",
        )
    if ambient.kind == "cylinder":
        rho = np.hypot(pts[:, 0], pts[:, 1])
        _require(
            bool(np.max(np.abs(rho - 1.0)) < 1e-6),
            f"component {n}: points must lie on the unit circle factor",
        )
    return loop, framing


def _float_array(value, depth: int) -> np.ndarray:
    """np.asarray(value, dtype=float), bit for bit, packed when value is a plain nested list.

    A list nested depth deep, with equal lengths at every level, as a
    parsed document holds its rows, is flattened level by level and its
    numbers are packed into one float64 buffer by struct, whose "d" format
    stores the double float() gives each number, as numpy does, without
    numpy's walk of the nested sequences. Anything else goes through
    np.asarray, which accepts or raises as it would alone: another nesting
    or type, a ragged row, and a leaf struct refuses (a numeric string,
    None, a list, a dict, an integer past the double range).
    """
    level, shape = [value], []
    for d in range(depth):
        if not level or set(map(type, level)) != {list} or len(set(map(len, level))) != 1:
            return np.asarray(value, dtype=float)
        shape.append(len(level[0]))
        if d < depth - 1:
            level = list(itertools.chain.from_iterable(level))
    out = np.empty(math.prod(shape))
    try:
        struct.pack_into(f"{len(out)}d", out, 0, *itertools.chain.from_iterable(level))
    except (struct.error, TypeError, OverflowError):
        return np.asarray(value, dtype=float)
    return out.reshape(shape)


def _frame_volume_error(
    rows: Sequence[np.ndarray], ambient: AmbientPresentation
) -> ValidationError | None:
    """load_link's error for the first component whose frames are degenerate or left-handed.

    rows holds the components' _frame_rows, checked as one stack. A frame is
    degenerate where |det| / (product of row norms) is at most
    _MIN_FRAME_VOLUME or a framing field is at most _MIN_FIELD_NORM long,
    and left-handed where det < 0. Both are read in the coordinates the
    frames move: the inert pairs of every component (_inert_reductions)
    are dropped, and each frame size takes one det. That is the same
    quantity: an inert row is e_c with column c zero in every other row,
    so dropping it with c keeps |det|, _reduced_rows keeps its sign, and a
    kept row loses only zeros, the dropped row's norm being 1. The error
    names the first failing component and its first failing sample; a
    degenerate frame goes before a left-handed one.
    """
    if not rows:
        return None
    count = len(ambient.manifold_normals)
    ends = list(itertools.accumulate(map(len, rows)))
    stack = rows[0] if len(rows) == 1 else np.concatenate(rows)
    reductions = _inert_reductions(stack, ends, [True] * len(ends), count)
    bad = np.empty(len(stack), dtype=bool)
    flipped = np.empty(len(stack), dtype=bool)
    bounds = [0, *ends]
    for members, frames, firsts in _reduced_groups(stack, ends, reductions):
        norms = np.linalg.norm(frames, axis=2)
        det = np.linalg.det(frames)
        degenerate = np.abs(det) <= _MIN_FRAME_VOLUME * np.prod(norms, axis=1)
        degenerate |= np.any(norms[:, count + 1 :] <= _MIN_FIELD_NORM, axis=1)
        for p, a, b in zip(members, firsts, firsts[1:]):
            bad[bounds[p] : bounds[p + 1]] = degenerate[a:b]
            flipped[bounds[p] : bounds[p + 1]] = det[a:b] < 0.0
    failing = bad | flipped
    if not failing.any():
        return None
    n = bisect.bisect_right(ends, int(np.argmax(failing)))
    part = slice(bounds[n], ends[n])
    if bad[part].any():
        return ValidationError(
            f"component {n}: frame [manifold normals, tangent, framing] is degenerate "
            f"at sample {np.argmax(bad[part])}; |det| / row norms must exceed "
            f"{_MIN_FRAME_VOLUME:.0e} and framing fields must be longer than {_MIN_FIELD_NORM:.0e}"
        )
    return ValidationError(
        f"component {n}: frame [manifold normals, tangent, framing] is left-handed "
        f"at sample {np.argmax(flipped[part])}; its determinant must be positive"
    )


def load_link_file(path: str) -> FramedLink:
    """Parse a JSON link file and validate it into a FramedLink.

    The file is UTF-8, strict RFC 8259 JSON, decoded by orjson, whose
    floats are correctly rounded as Python's own. A file that is not
    (invalid UTF-8, a byte order mark, NaN or Infinity, or a number that
    overflows to infinity) is a ParseError naming the line and column.
    """
    try:
        with open(path, "rb") as fh:
            document = orjson.loads(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except orjson.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return load_link(document)
