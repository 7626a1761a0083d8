"""Framed links in a presented ambient manifold and their Z2 invariants.

A link component is a sampled closed curve together with framing fields of
its normal bundle. The ambient manifold enters through three pieces of
data: how many dimensions the embedding space has, unit normal fields of
the manifold inside that space, and a spin-twist evaluator that scores
loops by the chosen spin structure (zero for the reference structure).

The index of a framed circle is computed by assembling, at every sample,
the square matrix whose rows are [manifold normals, curve tangent, framing
fields] orthonormalized, classifying that rotation loop, and flipping the
bit once (plus the spin twist). A loop's frames are assembled as one
(samples, N, N) stack, with one batched QR and one batched determinant;
the refiner goes through the same code one parameter at a time. kappa of
a link is the xor of the component indices; on Euclidean ambients it
agrees with the classical count that also adds the number of components
mod 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field as dataclass_field
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AmbientMismatch,
    EvaluationFailure,
    OrientationMismatch,
    RankDeficient,
    TooFewFields,
    ValidationError,
    ParseError,
)
from .numkit import DEFAULT_TOL, Tolerances, _note_add, orthonormalize, recording
from .spinlift import _MAX_DIM, RotationLoop, Z2, loop_class

_MIN_SAMPLES = 16
_NORMAL_ORTHO_CHECK = 1e-8
# Tangents of sample-only loops come from chord differences, so the check
# against manifold normals must absorb the O(h^2) differencing error.
_NORMAL_TANGENT_CHECK = 1e-4
# A link file's frame rows [manifold normals, chord tangent, framing fields]
# must have |det| / (product of row norms) above this at every sample: the
# ratio is 1 for orthogonal rows and 0 for dependent ones, which frame
# assembly would reject later as a numerical failure.
_MIN_FRAME_VOLUME = 1e-6
# Orthonormalizing those rows leaves each a residual |R_ii| of at least its
# norm times that ratio (the ratio is the product of the per-row residual
# fractions, each at most 1). Normals and tangent enter with unit norm, so
# framing fields longer than this keep every residual above ortho_tol.
_MIN_FIELD_NORM = DEFAULT_TOL.ortho_tol / _MIN_FRAME_VOLUME
# Components are disjoint when no sample comes closer than this to another
# component's polyline, relative to the link's radius (the largest distance
# of a sample from the centroid, at least 1). The distances come from inner
# products of centered points, exact to about 2e-8 of that radius.
_MIN_SEPARATION = 1e-6
# Point-segment pairs per block of that check: each of its float64
# temporaries is then at most 8 MB.
_DISTANCE_BLOCK_PAIRS = 1 << 20


@dataclass
class SampledLoop:
    """Closed curve in R^N: cyclic samples plus an optional exact resampler.

    tangents, when given, are the unit tangents at the samples as a (K, N)
    array, stored read-only; a traced loop carries the kernel tangents its
    tracer found. The tangents at the samples come from one cached place,
    read by tangent_at_sample and frame_matrix_loop: the carried tangents,
    else central differences of the resampler, else chords. The cycled,
    reversed, transformed and translated copies carry them along;
    with_samples drops them.
    """

    points: np.ndarray
    resample: Callable[[float], np.ndarray] | None = None
    params: Sequence[float] | None = None
    tangents: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2:
            raise ValidationError("loop points must be a list of equal-length vectors")
        if not np.all(np.isfinite(self.points)):
            raise ValidationError("loop points must be finite")
        k = self.points.shape[0]
        if k < _MIN_SAMPLES:
            raise ValidationError(f"a loop needs at least {_MIN_SAMPLES} samples, got {k}")
        steps = np.roll(self.points, -1, axis=0) - self.points
        norms = np.linalg.norm(steps, axis=1)
        if np.any(norms == 0.0):
            raise ValidationError("consecutive loop points must be distinct")
        if self.params is None:
            self.params = [i / k for i in range(k)]
        else:
            self.params = [float(t) for t in self.params]
            if len(self.params) != k:
                raise ValidationError("loop params and points must have equal length")
            if any(not 0.0 <= t < 1.0 for t in self.params):
                raise ValidationError("loop params must lie in [0, 1)")
            if any(b <= a for a, b in zip(self.params, self.params[1:])):
                raise ValidationError("loop params must be strictly increasing")
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
        steps = np.roll(self.points, -1, axis=0) - self.points
        return float(np.sum(np.linalg.norm(steps, axis=1)))

    def point(self, t: float) -> np.ndarray:
        if self.resample is None:
            raise ValidationError("loop has no resample callback")
        return np.asarray(self.resample(t % 1.0), dtype=float)

    # points and params are never reassigned after __post_init__, so the
    # values that depend only on them are computed once per loop.
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

    def _unwrapped(self, t: float) -> float:
        """t moved by a whole number into [params[0], params[0] + 1)."""
        u = t % 1.0
        return u + 1.0 if u < self.params[0] else u

    def _segment(self, t: float) -> tuple[int, float]:
        """Segment i, from sample i to sample i + 1 (cyclically), holding parameter t.

        Returns i and the weight w of the segment's end at t, so that t is
        (1 - w) params[i] + w params[i + 1], modulo 1.
        """
        ts = self._knots
        u = self._unwrapped(t)
        i = min(int(np.searchsorted(ts, u, side="right")) - 1, len(ts) - 2)
        return i, (u - ts[i]) / (ts[i + 1] - ts[i])

    @cached_property
    def _sample_tangents(self) -> np.ndarray:
        """Unit tangents at the samples, read-only.

        The carried tangents, else central differences of the resampler, else
        unit chords from each sample's predecessor to its successor.
        """
        if self.tangents is not None:
            return self.tangents
        if self.resample is not None:
            out = np.array([self.tangent(t) for t in self.params])
        else:
            d = np.roll(self.points, -1, axis=0) - np.roll(self.points, 1, axis=0)
            out = d / np.linalg.norm(d, axis=1, keepdims=True)
        out.setflags(write=False)
        return out

    def tangent_at_sample(self, k: int) -> np.ndarray:
        return self._sample_tangents[k].copy()

    def tangent(self, t: float) -> np.ndarray:
        if self.resample is None:
            raise ValidationError("loop has no resample callback")
        h = 0.25 * self._gap
        d = self.point(t + h) - self.point(t - h)
        nrm = np.linalg.norm(d)
        if nrm == 0.0:
            raise ValidationError(f"degenerate tangent at parameter {t % 1.0:.6f}")
        return d / nrm

    def arc_fractions(self) -> np.ndarray:
        """Normalized cumulative polygonal arclength at each sample (starts at 0)."""
        steps = np.roll(self.points, -1, axis=0) - self.points
        seg = np.linalg.norm(steps, axis=1)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        return cum[:-1] / cum[-1]

    def arc_fraction(self, t: float) -> float:
        """Arc fraction at parameter t, linearly interpolated between samples."""
        i, w = self._segment(t)
        fr = self._closed_arc_fractions
        return float((1.0 - w) * fr[i] + w * fr[i + 1])

    def with_samples(self, count: int) -> "SampledLoop":
        if self.resample is None:
            raise ValidationError("resampling a loop requires its resample callback")
        pts = np.array([self.point(i / count) for i in range(count)])
        return SampledLoop(pts, self.resample, [i / count for i in range(count)])

    def cycled(self, shift: int) -> "SampledLoop":
        k = len(self)
        shift %= k
        pts = np.roll(self.points, -shift, axis=0)
        base = self.params[shift]
        params = [(self.params[(shift + i) % k] - base) % 1.0 for i in range(k)]
        resample = None
        if self.resample is not None:
            inner = self.resample
            resample = lambda t, b=base: inner((t + b) % 1.0)  # noqa: E731
        tangents = None if self.tangents is None else np.roll(self.tangents, -shift, axis=0)
        return SampledLoop(pts, resample, params, tangents)

    def transformed(self, Q: np.ndarray) -> "SampledLoop":
        Q = np.asarray(Q, dtype=float)
        resample = None
        if self.resample is not None:
            inner = self.resample
            resample = lambda t: Q @ inner(t)  # noqa: E731
        tangents = None
        if self.tangents is not None:
            tangents = self.tangents @ Q.T
            tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
        return SampledLoop(self.points @ Q.T, resample, list(self.params), tangents)

    def translated(self, offset: np.ndarray) -> "SampledLoop":
        offset = np.asarray(offset, dtype=float)
        resample = None
        if self.resample is not None:
            inner = self.resample
            resample = lambda t: inner(t) + offset  # noqa: E731
        return SampledLoop(self.points + offset, resample, list(self.params), self.tangents)

    def reversed(self) -> "SampledLoop":
        k = len(self)
        idx = [0] + list(range(k - 1, 0, -1))
        pts = self.points[idx]
        params = [0.0] + [1.0 - self.params[i] for i in range(k - 1, 0, -1)]
        resample = None
        if self.resample is not None:
            inner = self.resample
            resample = lambda t: inner((1.0 - t) % 1.0)  # noqa: E731
        tangents = None if self.tangents is None else -self.tangents[idx]
        return SampledLoop(pts, resample, params, tangents)


@dataclass
class NormalFraming:
    """k vector fields along a loop of K samples in R^N, as one (k, K, N) array.

    fields[i] is field i at every sample, and fields[:, s] all fields at
    sample s. A sequence of k (K, N) arrays is accepted too and stacked into
    that array. The array is stored read-only, since at_sample returns views
    of it. at_sample(s) and at(t) give the fields at one place as a (k, N)
    array; a resampler returns that layout.
    """

    fields: np.ndarray
    resample: Callable[[float], np.ndarray] | None = None

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
        if self.resample is None:
            raise ValidationError("framing has no resample callback")
        return np.asarray(self.resample(t % 1.0), dtype=float)

    def cycled_with(self, loop: SampledLoop, shift: int) -> "NormalFraming":
        base = loop.params[shift % len(loop)]
        fields = np.roll(self.fields, -(shift % len(loop)), axis=1)
        resample = None
        if self.resample is not None:
            inner = self.resample
            resample = lambda t, b=base: inner((t + b) % 1.0)  # noqa: E731
        return NormalFraming(fields, resample)

    def transformed(self, Q: np.ndarray) -> "NormalFraming":
        Q = np.asarray(Q, dtype=float)
        fields = self.fields @ Q.T
        resample = None
        if self.resample is not None:
            inner = self.resample
            resample = lambda t: np.asarray(inner(t)) @ Q.T  # noqa: E731
        return NormalFraming(fields, resample)

    def reversed(self) -> "NormalFraming":
        k = self.sample_count
        idx = [0] + list(range(k - 1, 0, -1))
        fields = self.fields[:, idx]
        resample = None
        if self.resample is not None:
            inner = self.resample
            resample = lambda t: inner((1.0 - t) % 1.0)  # noqa: E731
        return NormalFraming(fields, resample)


@dataclass
class AmbientPresentation:
    """How the ambient manifold sits in R^N.

    manifold_normals are callables giving pointwise-orthonormal unit normal
    fields of the manifold inside R^N along any curve; spin_twist evaluates
    the chosen spin structure on a loop (constant 0 for the reference
    structure). Ambients with a periodic coordinate declare the plane in
    which winding is counted, which is also what the non-reference spin
    structure pairs with.
    """

    dimension: int
    manifold_normals: list[Callable[[np.ndarray], np.ndarray]] = dataclass_field(
        default_factory=list
    )
    spin_twist: Callable[[SampledLoop], Z2] = lambda loop: Z2(0)
    kind: str = "custom"
    spin_name: str = "standard"
    periodic_plane: tuple[int, int] | None = None

    @property
    def framing_count(self) -> int:
        return self.dimension - len(self.manifold_normals) - 1


def euclidean_ambient(dimension: int) -> AmbientPresentation:
    return AmbientPresentation(dimension, [], lambda loop: Z2(0), kind="euclidean")


def sphere_ambient(dimension: int) -> AmbientPresentation:
    """Unit sphere in R^dimension; the radial field is the single normal."""

    def radial(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return p / np.linalg.norm(p)

    return AmbientPresentation(dimension, [radial], lambda loop: Z2(0), kind="sphere")


def cylinder_ambient(dimension: int, spin: str = "standard") -> AmbientPresentation:
    """S^1 x R^(N-2) in R^N, the circle factor unit-sized in coordinates (0, 1).

    The reference ("standard") spin structure is the one that extends over
    the filled disc of the circle factor, so its twist evaluator is
    constantly zero; the non-standard structure pairs a loop with its
    winding parity around the circle factor.
    """
    if spin not in ("standard", "nonstandard"):
        raise ValidationError(f"unknown spin structure {spin!r}")

    def radial(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        out = np.zeros_like(p)
        rho = math.hypot(p[0], p[1])
        out[0] = p[0] / rho
        out[1] = p[1] / rho
        return out

    if spin == "standard":
        twist = lambda loop: Z2(0)  # noqa: E731
    else:
        twist = lambda loop: winding_parity(loop, (0, 1))  # noqa: E731
    return AmbientPresentation(
        dimension, [radial], twist, kind="cylinder", spin_name=spin, periodic_plane=(0, 1)
    )


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


@dataclass
class FramedLink:
    """Disjoint framed circles sharing one ambient presentation."""

    components: list[tuple[SampledLoop, NormalFraming]]
    ambient: AmbientPresentation

    def __post_init__(self):
        want = self.ambient.framing_count
        for n, (loop, framing) in enumerate(self.components):
            if loop.dimension != self.ambient.dimension:
                raise ValidationError(
                    f"component {n}: points live in R^{loop.dimension}, "
                    f"ambient is R^{self.ambient.dimension}"
                )
            if framing.count != want:
                raise ValidationError(
                    f"component {n}: framing has {framing.count} fields, "
                    f"ambient requires {want}"
                )
            if framing.sample_count != len(loop):
                raise ValidationError(
                    f"component {n}: framing sampled at {framing.sample_count} points, "
                    f"loop at {len(loop)}"
                )
            if framing.fields.shape[2] != loop.dimension:
                raise ValidationError(
                    f"component {n}: framing vectors have the wrong dimension"
                )
        if len(self.components) > 1:
            _check_disjoint([loop.points for loop, _ in self.components])


def _segment_distances(points: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Distance from each point to each segment [starts[s], ends[s]], as a matrix.

    Uses |p - a - t d|^2 = |p - a|^2 - 2 t (p - a).d + t^2 |d|^2, with t the
    clipped projection parameter, expanded into inner products so that no
    (points x segments x dimension) array is formed. Segments must have
    positive length.
    """
    d = ends - starts
    dd = np.einsum("sn,sn->s", d, d)
    wd = points @ d.T - np.einsum("sn,sn->s", starts, d)
    ww = (
        np.einsum("kn,kn->k", points, points)[:, None]
        - 2.0 * (points @ starts.T)
        + np.einsum("sn,sn->s", starts, starts)
    )
    t = np.clip(wd / dd, 0.0, 1.0)
    return np.sqrt(np.maximum(ww - 2.0 * t * wd + t * t * dd, 0.0))


def _check_disjoint(point_sets: Sequence[np.ndarray]):
    """Raise ValidationError when a sample of one loop lies on another loop's polyline.

    Samples are compared with all other loops' segments in row blocks of at
    most _DISTANCE_BLOCK_PAIRS point-segment pairs, so memory stays bounded
    however densely the loops are sampled.
    """
    center = np.mean(np.concatenate(point_sets), axis=0)
    centered = [p - center for p in point_sets]
    radius = max(1.0, max(float(np.max(np.linalg.norm(p, axis=1))) for p in centered))
    limit = _MIN_SEPARATION * radius
    for n, points in enumerate(centered):
        others = [q for m, q in enumerate(centered) if m != n]
        starts = np.concatenate(others)
        ends = np.concatenate([np.roll(q, -1, axis=0) for q in others])
        rows = max(1, _DISTANCE_BLOCK_PAIRS // len(starts))
        for first in range(0, len(points), rows):
            block = _segment_distances(points[first : first + rows], starts, ends)
            close = np.flatnonzero(np.min(block, axis=1) <= limit)
            if close.size:
                raise ValidationError(
                    f"component {n}: sample {first + close[0]} lies within {limit:.1e} of "
                    "another component; components must be disjoint"
                )


def _assemble_frame(
    ambient: AmbientPresentation,
    points: np.ndarray,
    middles: np.ndarray,
    fields: np.ndarray,
    tol: Tolerances,
    where: Callable[[int], str],
) -> np.ndarray:
    """Frames [manifold normals, middle row, framing fields] at K points, as (K, N, N).

    points and middles are (K, N) and fields is (K, k, N). The manifold
    normals are evaluated point by point; the checks then run over the whole
    stack, each in turn, and an error names where(first failing index). A
    non-finite normal, middle row or field is an EvaluationFailure, checked
    first.
    """
    count = len(ambient.manifold_normals)
    normals = np.array(
        [[n(p) for n in ambient.manifold_normals] for p in points], dtype=float
    ).reshape(len(points), count, points.shape[1])
    rows = np.concatenate([normals, middles[:, None], fields], axis=1)
    if not np.isfinite(rows).all():
        k, i = np.argwhere(~np.isfinite(rows).all(axis=2))[0]
        name = "manifold normal" if i < count else "middle row" if i == count else "framing field"
        raise EvaluationFailure(f"non-finite {name} at {where(k)}")
    gram = normals @ normals.transpose(0, 2, 1)
    skewed = np.any(np.abs(gram - np.eye(count)) > _NORMAL_ORTHO_CHECK, axis=(1, 2))
    leaning = np.abs(np.einsum("kan,kn->ka", normals, middles)) > _NORMAL_TANGENT_CHECK
    bad = np.flatnonzero(skewed | leaning.any(axis=1))
    if bad.size:
        k = bad[0]
        if skewed[k]:
            raise ValidationError(f"manifold normals are not orthonormal at {where(k)}")
        raise ValidationError(
            f"manifold normal {np.argmax(leaning[k])} is not orthogonal to the curve "
            f"at {where(k)}"
        )
    try:
        frames = orthonormalize(rows, tol)
    except RankDeficient as exc:
        if exc.index is None:
            raise
        raise RankDeficient(
            f"frame rows [manifold normals, tangent, framing fields] are dependent at "
            f"{where(exc.index)}: {exc}"
        ) from exc
    flipped = np.flatnonzero(np.linalg.det(frames) < 0.0)
    if flipped.size:
        raise OrientationMismatch(
            f"assembled frame has determinant -1 at {where(flipped[0])}; row order is "
            "[manifold normals, tangent, framing fields]"
        )
    return frames


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
    orthonormalized frame expressed in the standard basis; the determinant
    must be +1 at every sample. All samples are assembled as one stack.
    When both the loop and the framing can be resampled, the returned loop
    carries a refiner that re-evaluates the geometry through the same
    assembly (the refiner's tangents are central differences of the
    resampler). Every assembled frame is noted as frames_assembled.
    """
    if middle is not None:
        middles = np.array([middle(p) for p in loop.points], dtype=float)
    else:
        middles = loop._sample_tangents
    samples = _assemble_frame(
        ambient,
        loop.points,
        middles,
        framing.fields.transpose(1, 0, 2),
        tol,
        where=lambda k: f"sample {k}",
    )
    _note_add("frames_assembled", len(loop))
    refiner = None
    if loop.resample is not None and framing.resample is not None:

        def refiner(t: float) -> np.ndarray:
            p = loop.point(t)
            frame = _assemble_frame(
                ambient,
                p[None],
                np.asarray(loop.tangent(t) if middle is None else middle(p), dtype=float)[None],
                framing.at(t)[None],
                tol,
                where=lambda _: f"parameter {t % 1.0:.6f}",
            )
            _note_add("frames_assembled", 1)
            return frame[0]

    return RotationLoop(samples, refiner, list(loop.params))


def index_of_circle(
    loop: SampledLoop,
    framing: NormalFraming,
    ambient: AmbientPresentation,
    tol: Tolerances = DEFAULT_TOL,
) -> Z2:
    """Index of one framed circle: frame-loop class, flipped once, plus twist."""
    cls = loop_class(frame_matrix_loop(loop, framing, ambient, tol), tol)
    return cls ^ Z2(1) ^ ambient.spin_twist(loop)


def kappa(link: FramedLink, tol: Tolerances = DEFAULT_TOL) -> Z2:
    """Degree of a framed link: xor of the component indices (empty link: 0)."""
    bits = [
        index_of_circle(loop, framing, link.ambient, tol)
        for loop, framing in link.components
    ]
    return reduce(lambda a, b: a ^ b, bits, Z2(0))


def delta_pontryagin(link: FramedLink, tol: Tolerances = DEFAULT_TOL) -> Z2:
    """Classical Z2 count for Euclidean ambients.

    Sum (xor) of the frame-loop classes of all components plus the number
    of components mod 2. Agrees with kappa on every Euclidean link.
    """
    if link.ambient.kind != "euclidean" or link.ambient.manifold_normals:
        raise AmbientMismatch("this count is defined on Euclidean ambients only")
    total = Z2(len(link.components) & 1)
    for loop, framing in link.components:
        total = total ^ loop_class(frame_matrix_loop(loop, framing, link.ambient, tol), tol)
    return total


def _recombined(
    framing: NormalFraming, params: Sequence[float], mix: Callable[[float], np.ndarray]
) -> NormalFraming:
    """Framing whose field i is sum_j mix(t)[i, j] field j at parameter t.

    mix(t) is a (count, count) matrix. It is applied at the sample params,
    and inside the resampler when the framing has one.
    """
    mixes = np.array([mix(t) for t in params], dtype=float)
    fields = (mixes @ framing.fields.transpose(1, 0, 2)).transpose(1, 0, 2)
    resample = None
    if framing.resample is not None:
        inner = framing.resample
        resample = lambda t: mix(t % 1.0) @ np.asarray(inner(t % 1.0), dtype=float)  # noqa: E731
    return NormalFraming(fields, resample)


def twist_framing(loop: SampledLoop, framing: NormalFraming, turns: int) -> NormalFraming:
    """Compose a framing with rotation by 2*pi*turns in its first two fields.

    The rotation angle advances with normalized arclength, so integer turns
    keep the framing cyclically continuous.
    """
    if framing.count < 2:
        raise TooFewFields("twisting needs at least two framing fields")
    turns = int(turns)

    def mix(t: float) -> np.ndarray:
        a = 2.0 * math.pi * turns * loop.arc_fraction(t)
        c, s = math.cos(a), math.sin(a)
        out = np.eye(framing.count)
        out[:2, :2] = [[c, s], [-s, c]]
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
    pairs: Sequence[tuple[Z2, SampledLoop]],
    ambient: AmbientPresentation,
    tol: Tolerances,
    record: dict,
    traced: bool = False,
) -> InvariantReport:
    """The one InvariantReport builder.

    pairs holds (bit, loop) per component, and record the recording scope
    the caller opened around computing them. The diagnostics carry the
    deepest lift refinement; for traced links also the largest corrector
    residual and the closure error of each kept component, and the number
    of skipped seeds.
    """
    comps = []
    for bit, loop in pairs:
        winding = None
        if ambient.periodic_plane is not None:
            winding = int(winding_parity(loop, ambient.periodic_plane))
        comps.append(ComponentReport(int(bit), winding, len(loop), loop.length()))
    bits = [bit for bit, _ in pairs]
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
        pairs = [
            (index_of_circle(loop, framing, link.ambient, tol), loop)
            for loop, framing in link.components
        ]
    return _report(pairs, link.ambient, tol, record)


def _require(condition: bool, message: str):
    if not condition:
        raise ValidationError(message)


def load_link(document: dict) -> FramedLink:
    """Build a FramedLink from a parsed link document (see load_link_file)."""
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
    comps = []
    _require(isinstance(document["components"], list), "components must be a list")
    for n, comp in enumerate(document["components"]):
        _require(isinstance(comp, dict), f"component {n} must be an object")
        _require("points" in comp, f"component {n}: missing field points")
        _require("framing" in comp, f"component {n}: missing field framing")
        try:
            pts = np.asarray(comp["points"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"component {n}: points are not numeric") from exc
        _require(pts.ndim == 2, f"component {n}: points must be a list of vectors")
        _require(
            pts.shape[1] == dim,
            f"component {n}: points live in R^{pts.shape[1]}, ambient is R^{dim}",
        )
        # directions of the manifold normals; only directions enter the frame check
        normals = np.zeros((len(pts), len(ambient.manifold_normals), dim))
        if kind == "sphere":
            radii = np.linalg.norm(pts, axis=1)
            _require(
                bool(np.max(np.abs(radii - 1.0)) < 1e-6),
                f"component {n}: points must lie on the unit sphere",
            )
            normals[:, 0] = pts
        if kind == "cylinder":
            rho = np.hypot(pts[:, 0], pts[:, 1])
            _require(
                bool(np.max(np.abs(rho - 1.0)) < 1e-6),
                f"component {n}: points must lie on the unit circle factor",
            )
            normals[:, 0, :2] = pts[:, :2]
        loop = SampledLoop(pts)
        try:
            fields_raw = np.asarray(comp["framing"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"component {n}: framing is not numeric") from exc
        _require(
            fields_raw.ndim == 3,
            f"component {n}: framing must be [field][sample][coordinate]",
        )
        _require(
            fields_raw.shape[0] == ambient.framing_count,
            f"component {n}: framing has {fields_raw.shape[0]} fields, "
            f"ambient requires {ambient.framing_count}",
        )
        _require(
            fields_raw.shape[1] == len(loop) and fields_raw.shape[2] == dim,
            f"component {n}: framing shape does not match the loop",
        )
        chords = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
        rows = np.concatenate([normals, chords[:, None], fields_raw.transpose(1, 0, 2)], axis=1)
        norms = np.linalg.norm(rows, axis=2)
        bad = np.abs(np.linalg.det(rows)) <= _MIN_FRAME_VOLUME * np.prod(norms, axis=1)
        bad |= np.any(norms[:, -fields_raw.shape[0] :] <= _MIN_FIELD_NORM, axis=1)
        flat = np.flatnonzero(bad)
        if flat.size:
            raise ValidationError(
                f"component {n}: frame [manifold normals, tangent, framing] is degenerate "
                f"at sample {flat[0]}; |det| / row norms must exceed {_MIN_FRAME_VOLUME:.0e} "
                f"and framing fields must be longer than {_MIN_FIELD_NORM:.0e}"
            )
        framing = NormalFraming(fields_raw)
        comps.append((loop, framing))
    return FramedLink(comps, ambient)


def load_link_file(path: str) -> FramedLink:
    """Parse a JSON link file and validate it into a FramedLink."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return load_link(document)
