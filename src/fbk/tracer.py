"""Numerical extraction of framed links from analytic input.

Two sources are supported. Regular-value preimages: a map into a sphere or
into R^n is traced through the one-dimensional preimage of a regular value
with a tangent-predictor / Newton-corrector walk, and the derivative of the
map pulls a fixed basis of the target tangent space back to a framing of
the traced curve. Section zero loci: a transverse section of the subbundle
of a sphere's tangent bundle orthogonal to a unit splitting field is traced
through its zeros by the same walk, as a map from the unit sphere into its
ambient space, and the index of each zero circle is assembled from two
frame loops, one carrying an auxiliary frame of the curve's normal space
(transported round the circle and closed along a Givens factorization of
its holonomy), the other carrying the derivative of the section applied to
that frame. The auxiliary frame drops out of the final bit, which the
closure-twist invariance suite checks explicitly.

A traced report is its spec and its seeds. Both sources trace the seeds
through one loop, and the domain fixes the ambient: R^N or the unit sphere
S^(N-1), each with exactly one spin structure. One rule orients every frame
loop of a traced report, a preimage circle's and both terms of a zero
circle's alike: the circle is kept as traced, and a frame that is
left-handed at sample 0 has its first field negated. Neither a constant
rotation nor the direction of travel changes a frame loop's class.

Sphere-valued maps are reduced near the regular value to R^n-valued
residuals by projecting onto the tangent space of the target at that value;
the same projection basis defines the induced framing, and changing it by a
constant rotation does not move the computed class.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DuplicateComponent,
    EvaluationFailure,
    FbkError,
    NoConvergence,
    NonTransverse,
    NotClosed,
    RankDeficient,
    Singular,
    ValidationError,
)
from .framedlink import (
    FramedLink,
    InvariantReport,
    NormalFraming,
    SampledLoop,
    _arc_fractions,
    _circle_indices,
    _frame_bits,
    _frame_rows,
    _FramePart,
    _normals_at,
    _recombined,
    _report,
    _step_lengths,
    euclidean_ambient,
    sphere_ambient,
    twist_framing,
)
from .numkit import (
    DEFAULT_TOL,
    Tolerances,
    _mgs,
    _norm,
    _note_add,
    _note_append,
    _note_max,
    _on_stack,
    _one_or_stack,
    _orthonormal_sets,
    _qr,
    _require_finite,
    _svd,
    _values,
    jacobian_fd,
    recording,
)
from .spinlift import _MAX_REFINED_SAMPLES, Z2, _givens


@dataclass
class MapSpec:
    """A smooth map together with the data needed to trace a preimage.

    target is "rn" (regular value 0 in R^n) or "sphere" (regular value on
    the unit sphere of the evaluator's output space). domain is "euclidean"
    or "unit_sphere"; in the latter case the sphere equation joins the
    traced system, so the traced curve lies on the unit sphere of
    R^dimension, but the evaluator must be defined near the sphere as well:
    Newton predictors and finite-difference probes leave it. An analytic
    jacobian of the raw evaluator takes precedence over finite differences;
    it is compared with them once per traced seed, and a mismatch above
    _JACOBIAN_CHECK_TOL is an EvaluationFailure. A sphere target's regular
    value must be nonzero and finite, and the evaluator's values must have
    its length.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    dimension: int
    target: str = "rn"
    regular_value: np.ndarray | None = None
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    domain: str = "euclidean"

    def __post_init__(self):
        if self.target not in ("rn", "sphere"):
            raise ValueError(f"unknown target kind {self.target!r}")
        if self.domain not in ("euclidean", "unit_sphere"):
            raise ValueError(f"unknown domain constraint {self.domain!r}")
        if self.target == "sphere":
            if self.regular_value is None:
                raise ValueError("sphere targets need a regular value")
            x0 = np.asarray(self.regular_value, dtype=float)
            norm = np.linalg.norm(x0)
            if not 0.0 < norm < math.inf:
                raise ValueError("a sphere target's regular value must be nonzero and finite")
            self.regular_value = x0 / norm


@dataclass
class SectionSpec:
    """Splitting field v and section w on the unit sphere M = S^(n+1) in R^(n+2).

    v must be a unit tangent field of the sphere; w must be tangent,
    orthogonal to v, and transverse to zero. The traced object is the zero
    locus of w; the bundle whose degree is computed is the orthogonal
    complement of v inside the tangent bundle.

    jacobian, when given, is the section's ambient Jacobian: the derivative
    of w as a map R^(n+2) -> R^(n+2), an (n+2) x (n+2) matrix. The walk
    along the zeros uses it, and so does dw, the section's derivative on
    the normal space of a zero circle. Without it both use central
    differences of w (jacobian_fd). It is compared with them once per traced
    seed, as a map's is.
    """

    sphere_dimension: int
    splitting_field: Callable[[np.ndarray], np.ndarray]
    section: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def embedding_dimension(self) -> int:
        return self.sphere_dimension + 1


@dataclass
class TraceOptions:
    seeds: list = dataclass_field(default_factory=list)
    initial_step: float = 0.05
    min_step: float = 1e-5
    max_step: float = 0.1
    max_steps: int = 4000
    tolerances: Tolerances = dataclass_field(default_factory=Tolerances)

    def __post_init__(self):
        if not 0.0 < self.min_step <= self.initial_step <= self.max_step:
            raise ValueError("need 0 < min_step <= initial_step <= max_step")
        if self.max_steps < 64:
            raise ValueError("max_steps must be at least 64")


def target_basis(spec: MapSpec, target_dim: int) -> np.ndarray:
    """Deterministic orthonormal basis of the target tangent space (rows).

    For R^n targets this is the standard basis. For sphere targets the
    coordinate directions are projected onto the tangent space at the
    regular value and orthonormalized in index order, keeping the first
    independent ones.
    """
    if spec.target == "rn":
        return np.eye(target_dim)
    x0 = spec.regular_value
    basis = _mgs([x0, *np.eye(x0.size)], 1e-8)
    return np.vstack(basis[1 : target_dim + 1])


class _TracedSystem:
    """Residual/Jacobian pair whose zero set is the traced curve.

    residual(p) is the system's residual at p, one call per point.
    raw_jacobian(p) is the derivative of the caller's map (its analytic
    Jacobian, else central differences), noted as one jacobian_evaluation;
    every derivative of the map the tracer takes goes through it.
    assemble(p, raw) builds the system Jacobian from it, and factored(p,
    where) is the one call per point of the walk and the corrector: the raw
    Jacobian, and the _factored assembled one, which must be finite (else an
    EvaluationFailure "non-finite Jacobian " + where). basis is the
    target_basis the residual is projected onto for sphere targets, None for
    R^n targets. check(seed) compares an analytic Jacobian with central
    differences at a seed (_map_system); a system without one checks nothing.
    spec is the MapSpec _map_system built it from, None for any other.
    """

    def __init__(self, residual, raw_jacobian, assemble, dimension, basis, check=None, spec=None):
        self.residual = residual
        self.raw_jacobian = raw_jacobian
        self.assemble = assemble
        self.dimension = dimension
        self.basis = basis
        self.check = check or (lambda seed: None)
        self.spec = spec

    def factored(self, p: np.ndarray, where: str):
        raw = self.raw_jacobian(p)
        J = self.assemble(p, raw)
        # counting the finite entries takes half the time of .all() at these sizes
        if np.count_nonzero(np.isfinite(J)) != J.size:
            raise EvaluationFailure(f"non-finite Jacobian {where}")
        return raw, _factored(J)


# An analytic Jacobian J fails its check against the central differences F
# at a seed when max|J - F| > _JACOBIAN_CHECK_TOL * (1 + max|F|). Central
# differences agree with the registry's exact Jacobians to about 1e-9
# relative, and a wrong entry is off by the size of the entry.
_JACOBIAN_CHECK_TOL = 1e-6


def _evaluated(fn, p: np.ndarray, what: str):
    """fn(p); an error other than an FbkError is an EvaluationFailure naming what and p."""
    try:
        return fn(p)
    except FbkError:
        raise
    except Exception as exc:  # noqa: BLE001
        raise EvaluationFailure(f"{what} failed at {p.tolist()}") from exc


def _map_system(spec: MapSpec) -> _TracedSystem:
    """The traced system of spec, built once per report.

    The residual is the map's value, projected onto target_basis minus the
    regular value for a sphere target (whose values must have the regular
    value's length), with the sphere equation (|p|^2 - 1) / 2 last for a
    unit-sphere domain: one call per point for each (domain, target) pair.
    raw_jacobian is spec's Jacobian (analytic, else jacobian_fd), noted and
    shaped as (outputs, N). outputs is the length of the evaluator's values,
    read from one extra evaluation at the first analytic Jacobian
    (jacobian_fd's rows are those values). A vector of length N is one row;
    any other shape is an EvaluationFailure naming it and the point's. The
    Jacobian and the row probe are _evaluated: an error they raise is an
    EvaluationFailure naming the point.

    check(seed) evaluates an analytic Jacobian at the seed on the same shape
    rule, notes it as one jacobian_checks (not as a jacobian_evaluation),
    and compares it with jacobian_fd there. A mismatch above
    _JACOBIAN_CHECK_TOL is an EvaluationFailure naming the seed, the entry
    and both values. A non-finite Jacobian is left to the walk, which
    refuses it; without an analytic Jacobian there is nothing to check.
    """
    evaluator, jacobian, dimension = spec.evaluator, spec.jacobian, spec.dimension
    on_sphere = spec.domain == "unit_sphere"
    x0 = basis = rows = None
    if spec.target == "sphere":
        x0 = spec.regular_value
        basis = target_basis(spec, x0.size - 1)

    def residual(p):
        value = np.asarray(evaluator(p), dtype=float)
        if basis is not None:
            if value.size != x0.size:
                raise EvaluationFailure(
                    f"map values have length {value.size}, the regular value {x0.size}"
                )
            value = basis.dot(value - x0)
        if not on_sphere:
            return value
        r = np.empty(len(value) + 1)
        r[:-1] = value
        r[-1] = (float(p.dot(p)) - 1.0) / 2.0
        return r

    def analytic(p):
        nonlocal rows
        J = np.asarray(_evaluated(jacobian, p, "map Jacobian"), dtype=float)
        if rows is None:
            rows = np.asarray(_evaluated(evaluator, p, "map evaluation"), dtype=float).size
        if J.shape == (dimension,) and rows == 1:
            return J[None]
        if J.shape != (rows, dimension):
            raise EvaluationFailure(
                f"map Jacobian returned shape {J.shape} at a point of shape {np.shape(p)}; "
                f"expected {(rows, dimension)}"
            )
        return J

    def raw_jacobian(p):
        _note_add("jacobian_evaluations", 1)
        return jacobian_fd(evaluator, p) if jacobian is None else analytic(p)

    def assemble(p, raw):
        J = raw if basis is None else basis.dot(raw)
        if not on_sphere:
            return J
        stacked = np.empty((J.shape[0] + 1, J.shape[1]))
        stacked[:-1] = J
        stacked[-1] = p
        return stacked

    def check(seed):
        if jacobian is None:
            return
        _note_add("jacobian_checks", 1)
        J = analytic(seed)
        if not np.isfinite(J).all():
            return
        F = jacobian_fd(evaluator, seed)
        # a non-finite difference is a mismatch too
        gap = np.nan_to_num(np.abs(J - F), nan=math.inf)
        i, j = np.unravel_index(np.argmax(gap), gap.shape)
        if not gap[i, j] <= _JACOBIAN_CHECK_TOL * (1.0 + np.max(np.abs(F))):
            raise EvaluationFailure(
                f"map Jacobian disagrees with central differences at the seed {seed.tolist()}: "
                f"entry ({i}, {j}) is {J[i, j]:.10g}, central differences give {F[i, j]:.10g}"
            )

    return _TracedSystem(residual, raw_jacobian, assemble, dimension, basis, check, spec)


def _section_map(spec: SectionSpec) -> MapSpec:
    """The section as a map from the unit sphere to R^(n+2); its zeros are traced."""
    return MapSpec(
        spec.section, spec.embedding_dimension, jacobian=spec.jacobian, domain="unit_sphere"
    )


# Singular values of a system Jacobian at most this fraction of the largest
# count as zero: the Newton step does not invert them, and at an accepted
# point the rank left must be one less than the dimension. Central
# differences (jacobian_fd) are exact to about 1e-10 relative, so a system
# that is rank deficient by construction (a section's is 7 x 6 of rank 5)
# keeps a noise singular value near 1e-12, which a cut of a few machine
# epsilons would invert into a huge step.
_NEWTON_RCOND = 1e-8

# A correction step that leaves more than this fraction of the residual
# norm it started from makes _newton refactor the Jacobian at the iterate.
# A chord step contracts by about the distance the factorization was taken
# from times the curvature of the map; at the walk's longest steps
# (max_step 0.1) the twisted quadric's chord contracts by about 0.1 a step,
# which a factor of 0.25 would accept, taking the walk's whole iteration cap.
_CHORD_CONTRACTION = 0.05

# A seed's correction that stalls at a residual norm at or below this
# fraction of the map's scale there (NoConvergence.scale) has come within
# rounding of a zero, short of a newton_tol set below the rounding floor; a
# seed far from every zero stalls at a residual of the order of that scale.
# The bound is tied to the machine epsilon and to the map's own scale, not
# to newton_tol: under newton_tol = 1e-300 a stall at the rounding floor
# lies far above sqrt(newton_tol), and a map whose values are of order 1e-9
# stalls far from its zeros below any fixed floor.
_SEED_STALL_FLOOR = math.sqrt(np.finfo(float).eps)


def _factored(J: np.ndarray):
    """(V, Ut, S, rank, Vt) of a finite system Jacobian: its SVD, cut to its rank.

    The rank counts the singular values above _NEWTON_RCOND times the
    largest. V, Ut and S are the views Vt[:rank].T, U[:, :rank].T and
    S[:rank] of the full SVD U diag(S) Vt (numkit's `_svd`), taken once
    here so that every chord step is two matrix-vector products and one
    division; Vt is the full right factor, whose last row is the kernel
    tangent. Every step, tangent and rank test of the walk comes from one
    such factorization. An SVD that fails in LAPACK is an EvaluationFailure.
    """
    U, S, Vt = _svd(J)
    values = S.tolist()
    cut = _NEWTON_RCOND * values[0]
    rank = len([s for s in values if s > cut])
    return Vt[:rank].T, U[:, :rank].T, S[:rank], rank, Vt


def _descent(factored, r: np.ndarray) -> np.ndarray:
    """J^+ r, J^+ the pseudo-inverse cut to the factored rank: the Newton step is its negative.

    Up to rounding, -_descent(factored, r) is np.linalg.lstsq(J, -r,
    rcond=_NEWTON_RCOND); bit for bit it is Vt[:rank].T @ ((U[:, :rank].T
    @ r) / S[:rank]), the views kept as views: a contiguous copy of a
    factor changes the BLAS kernel and the rounding of the product. The
    outer product is V.dot, which gives the bits of V @ at about half the
    dispatch cost. Ut @ r stays a matmul: Ut is a transposed view, and
    where the rank is cut (U[:, :rank] not contiguous) Ut.dot(r) takes
    another BLAS route and rounds differently from Ut @ r; so does
    Ut.dot(r) on a contiguous copy of Ut, and r.dot(U[:, :rank]) at ranks
    2 and 3.
    """
    V, Ut, S = factored[:3]
    return V.dot((Ut @ r) / S)


def _newton(
    system: _TracedSystem,
    start: np.ndarray,
    tol: Tolerances,
    max_iter: int = 12,
    max_move: float | None = None,
    first=None,
):
    """Gauss-Newton-chord correction onto the solution set; returns (point, residual).

    Every step subtracts the _descent of one held _factored Jacobian: first
    when given (the walk passes the one of the point it predicted start
    from), else the Jacobian at start. The held factorization takes the
    next step as long as the last one shrank the residual norm by at least
    the factor _CHORD_CONTRACTION; after a step that contracted less, the
    Jacobian at the iterate is evaluated and factored, and the steps go on
    from it (the chord method with a contraction-triggered refresh: Kelley,
    Solving Nonlinear Equations with Newton's Method, 2003, ch. 5).
    max_move bounds the total correction distance; it turns the correction
    into a local operation so that seeds far from the solution set fail
    instead of wandering onto an arbitrary component. A non-finite
    residual norm (a map value that is NaN or infinite) or Jacobian is an
    EvaluationFailure, as a map that raises is; on _evaluated's rule, the
    error names the point and an FbkError of the map's goes through as it
    is. Counts its correction steps and notes them as newton_iterations,
    with one newton_calls, once when it returns or raises. start is not
    copied: it may be returned as the point, so a caller that keeps its
    start passes a copy (the walk's predictor is its own).
    """
    iterations = 0
    try:
        # p and every descent are contiguous, so sqrt(x.dot(x)) is _norm(x)
        p = np.ascontiguousarray(start, dtype=float)
        scale = 1.0 + math.sqrt(p.dot(p))
        budget = 10.0 * scale if max_move is None else max_move
        moved = 0.0
        factored = first
        previous = math.inf
        for step in range(max_iter + 1):
            try:
                r = system.residual(p)
            except FbkError:
                raise
            except Exception as exc:  # noqa: BLE001
                raise EvaluationFailure(
                    f"map evaluation failed during correction at {p.tolist()}"
                ) from exc
            rn = _norm(r)
            if not math.isfinite(rn):
                raise EvaluationFailure(f"non-finite map value during correction at {p.tolist()}")
            if rn < tol.newton_tol:
                return p, rn
            if step == max_iter:
                S = factored[2]
                size = (float(S[0]) if S.size else 0.0) * (1.0 + _norm(p))
                raise NoConvergence(
                    f"corrector stalled at residual {rn:.3e}", residual=rn, scale=size
                )
            if factored is None or rn > _CHORD_CONTRACTION * previous:
                factored = system.factored(p, "during correction")[1]
            previous = rn
            iterations += 1
            descent = _descent(factored, r)
            sn = math.sqrt(descent.dot(descent))
            if not math.isfinite(sn) or sn > 2.0 * scale:
                raise NoConvergence("correction step diverged")
            p = p - descent
            moved += sn
            if moved > budget:
                raise NoConvergence("correction wandered too far from the start point")
    finally:
        _note_add("newton_calls", 1)
        if iterations:
            _note_add("newton_iterations", iterations)


def _newton_aligned(system, start, anchor, direction, tol):
    """Newton correction onto the curve intersected with a transverse hyperplane."""

    def residual(p):
        return np.concatenate([system.residual(p), [(p - anchor).dot(direction)]])

    def assemble(p, raw):
        return np.vstack([system.assemble(p, raw), direction])

    aligned = _TracedSystem(residual, system.raw_jacobian, assemble, system.dimension, system.basis)
    return _newton(aligned, start, tol)


def _tangent_of(system: _TracedSystem, p: np.ndarray, previous, tol: Tolerances):
    """Unit kernel tangent at p, its raw Jacobian and factorization, and its dot with previous.

    The tangent is the last right singular vector of the system Jacobian,
    whose rank must be one less than the dimension (else Singular). It
    points along previous when given and not orthogonal to it; otherwise
    its first entry larger than ortho_tol in magnitude is positive, or its
    largest entry where none is (a unit vector has one of at least
    1/sqrt(N)), and the dot returned is 0.
    """
    raw, factored = system.factored(p, "along the curve")
    rank, Vt = factored[3:]
    n = Vt.shape[0]
    if rank != n - 1:
        raise Singular(
            f"rank drop along the curve: the Jacobian has rank {rank}, expected {n - 1}; "
            "transversality violated"
        )
    t = Vt[n - 1]
    d = along = 0.0 if previous is None else float(t.dot(previous))
    if d == 0.0:
        a = np.abs(t)
        i = int(np.argmax(a > tol.ortho_tol))
        d = t[i if a[i] > tol.ortho_tol else np.argmax(a)]
    return (-t if d < 0.0 else t), raw, factored, abs(along)


class _TracedLoop(SampledLoop):
    """A loop _trace walked through _system, with the map's raw Jacobians of its tangents.

    _jacobians are the walk's at the samples, read-only (K, rows, N), and
    _jacobians_at(ts) the tangent resampler's at a (K,) array of params.
    """


class _NoZeroNear(NoConvergence):
    """A seed whose correction shows no zero of the map near it: _traced_components skips it."""


def _trace(system: _TracedSystem, seed: np.ndarray, opts: TraceOptions):
    """The traced loop (a _TracedLoop), its closure error and largest residual.

    An analytic Jacobian is checked at the seed (system.check) before the
    seed is corrected. The correction distance is capped, so that a seed
    far from the solution set fails instead of wandering onto an arbitrary
    component: the cap running out, a diverging step or a stall above
    _SEED_STALL_FLOOR times the map's scale raise _NoZeroNear. A stall at
    or below it is a NoConvergence that names the residual reached and
    newton_tol. The loop carries the unit kernel tangent found at each of
    its samples and the raw Jacobian (system.raw_jacobian) that tangent
    came from. That Jacobian's factorization is the chord the next
    predictor's correction holds, retries after a halved step included:
    _newton takes every step from it and evaluates a new Jacobian only
    after a step that contracts too little, so most accepted points cost
    the one Jacobian of their tangent. Between samples the loop resamples
    its points by Newton correction, and its tangent and raw Jacobian by
    _tangent_of at the resampled point, signed along the carried tangent of
    the segment's first sample: one of each per param.
    """
    tol = opts.tolerances
    seed = np.asarray(seed, dtype=float)
    if seed.size != system.dimension:
        raise ValueError(f"seed has dimension {seed.size}, expected {system.dimension}")
    system.check(seed)
    try:
        p0, rn0 = _newton(system, seed.copy(), tol, max_move=max(8.0 * opts.initial_step, 0.25))
    except NoConvergence as exc:
        if exc.residual is not None and exc.residual <= _SEED_STALL_FLOOR * exc.scale:
            raise NoConvergence(
                f"seed correction stalled at residual {exc.residual:.3e}, within rounding of a "
                f"zero but above newton_tol {tol.newton_tol:.3e}"
            ) from exc
        raise _NoZeroNear(str(exc)) from exc
    t0, raw0, factored, _ = _tangent_of(system, p0, None, tol)
    points = [p0]
    tangents = [t0]
    raws = [raw0]
    residuals = [rn0]
    p, t = p0, t0
    h = opts.initial_step
    escaped = False
    closure_error = None
    for _step in range(opts.max_steps):
        predictor = p + h * t
        failure = None
        try:
            q, rn = _newton(system, predictor, tol, max_iter=8, first=factored)
            gap = _norm(q - predictor)
            ok = gap <= max(h, 1e3 * tol.newton_tol)
        except (NoConvergence, EvaluationFailure) as exc:
            q, rn, ok, failure = None, None, False, exc
        if ok:
            t_new, raw, factored_new, along = _tangent_of(system, q, t, tol)
            ok = along >= 0.2
        if not ok:
            h *= 0.5
            if h < opts.min_step:
                # a curve that runs into points where the map cannot be
                # evaluated is a failure, not an empty preimage
                if isinstance(failure, EvaluationFailure):
                    raise EvaluationFailure(
                        f"corrector kept failing at the minimum step size: {failure}"
                    ) from failure
                raise NoConvergence("corrector kept failing at the minimum step size")
            continue
        dist0 = _norm(q - p0)
        if not escaped and dist0 > max(4.0 * opts.initial_step, 100.0 * tol.closure_tol):
            escaped = True
        if escaped and dist0 < 1.5 * h and float(t_new.dot(t0)) > 0.9:
            try:
                closer, _ = _newton_aligned(system, q.copy(), p0, t0, tol)
                err = _norm(closer - p0)
            except (NoConvergence, EvaluationFailure):
                err = math.inf
            if err < tol.closure_tol:
                closure_error = err
                break
        points.append(q)
        tangents.append(t_new)
        raws.append(raw)
        residuals.append(rn)
        p, t, factored = q, t_new, factored_new
        if gap < 0.1 * h:
            h = min(2.0 * h, opts.max_step)
    if closure_error is None:
        raise NotClosed(f"no closure within {opts.max_steps} steps")
    pts = np.asarray(points)
    carried = np.asarray(tangents)
    # every stack of params resampled, keyed on its bytes: its corrected
    # points and, once asked for, their tangents and raw Jacobians. A lift's
    # refiner asks for the points, the tangents and the fields at one stack
    # in turn, and both terms of a zero circle refine this one loop at the
    # same stacks, the second after the first has refined all its levels.
    # The stacks kept hold at most _MAX_REFINED_SAMPLES params, the params
    # of one refinement to the cap; the oldest go first.
    stacks: dict[bytes, dict] = {}

    def resampled(ts: np.ndarray, key: str) -> np.ndarray:
        entry = stacks.get(ts.tobytes())
        if entry is None:
            held = sum(len(kept["points"]) for kept in stacks.values())
            while stacks and held + len(ts) > _MAX_REFINED_SAMPLES:
                held -= len(stacks.pop(next(iter(stacks)))["points"])
            i, w = loop._segment(ts)
            starts = (1.0 - w)[:, None] * pts[i] + w[:, None] * pts[(i + 1) % len(pts)]
            entry = {"points": np.array([_newton(system, x.copy(), tol)[0] for x in starts])}
            stacks[ts.tobytes()] = entry
        if key not in entry:
            previous = carried[loop._segment(ts)[0]]
            found = [_tangent_of(system, p, t, tol)[:2] for p, t in zip(entry["points"], previous)]
            entry["tangents"], entry["jacobians"] = map(np.array, zip(*found))
        return entry[key].copy()

    resample = _one_or_stack(lambda ts: resampled(ts, "points"))
    resample_tangent = _one_or_stack(lambda ts: resampled(ts, "tangents"))
    loop = _TracedLoop(pts, resample, _arc_fractions(_step_lengths(pts)), carried, resample_tangent)
    loop._system, loop._jacobians = system, np.asarray(raws)
    loop._jacobians.setflags(write=False)
    # keyed as SampledLoop._points_at and _tangents_at call the resamplers
    loop._jacobians_at = lambda ts: resampled(ts % 1.0, "jacobians")
    return loop, closure_error, max(residuals)


def suggest_seeds(
    spec,
    opts: TraceOptions | None = None,
    bounds: Sequence[tuple[float, float]] | None = None,
    per_axis: int = 5,
    dedup_radius: float = 0.25,
) -> list[np.ndarray]:
    """Coarse scan proposing seeds near the solution set.

    Candidates come from a grid over `bounds` (Euclidean domains, default
    [-2, 2] per axis) or from a fixed pseudo-random spread of directions
    (sphere domains and sections); each candidate is Newton-corrected with
    the same locality cap as a traced seed and kept when it lands.
    Completeness is NOT guaranteed, and nearby suggestions may still lie on
    one component: curating the list is the caller's responsibility.
    """
    opts = opts or TraceOptions()
    if isinstance(spec, SectionSpec):
        spec = _section_map(spec)
    system = _map_system(spec)
    dim = system.dimension
    if spec.domain == "unit_sphere":
        gen = np.random.default_rng(0)
        count = max(128, 16 * dim)
        candidates = gen.normal(size=(count, dim))
        candidates /= np.linalg.norm(candidates, axis=1)[:, None]
    else:
        if bounds is None:
            bounds = [(-2.0, 2.0)] * dim
        axes = [np.linspace(lo, hi, per_axis) for lo, hi in bounds]
        candidates = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    kept: list[np.ndarray] = []
    cap = max(8.0 * opts.initial_step, 0.25)
    for cand in candidates:
        try:
            p, _ = _newton(system, cand.copy(), opts.tolerances, max_move=cap)
        except (NoConvergence, EvaluationFailure):
            continue
        if all(np.linalg.norm(p - q) > dedup_radius for q in kept):
            kept.append(p)
    return kept


def trace_component(
    spec: MapSpec, seed: np.ndarray, opts: TraceOptions, *, system=None
) -> SampledLoop:
    """Trace the closed solution curve through the component nearest a seed.

    An analytic spec.jacobian is first compared with central differences at
    the seed; a mismatch is an EvaluationFailure (_map_system). The seed is
    then Newton-corrected onto the solution set (NoConvergence when
    that fails); the curve is then walked with an Euler predictor along the
    Jacobian kernel and a Gauss-Newton corrector, halving the step on
    corrector failure and doubling it after easy steps, until the walk
    returns to the start point with an aligned tangent. The returned loop
    carries the unit kernel tangent of the Jacobian at every sample, as the
    walk found it (oriented along the walk), and resamples itself between
    samples by re-running the corrector, its tangent there being the kernel
    at the resampled point. The loop also carries the map's Jacobian at
    every traced point (spec.jacobian or its finite-difference stand-in, as
    the walk and the tangent resampler evaluated it for the tangent), which
    induced_framing and the section's dw take for this spec. system is the
    traced system of spec (_map_system) when the caller has built it, as a
    report does once for all its seeds; else one is built here.
    """
    loop, closure_error, max_residual = _trace(system or _map_system(spec), seed, opts)
    if spec.target == "sphere":
        x0 = spec.regular_value
        value = _evaluated(spec.evaluator, loop.points[0], "map evaluation")
        val = float(np.asarray(value, dtype=float).dot(x0))
        if val <= 0.0:
            raise _NoZeroNear("seed converged to the preimage of the antipodal value")
    _note_append("closure_errors", closure_error)
    _note_max("max_residual", max_residual)
    return loop


def _raw_jacobians(system: _TracedSystem, loop: SampledLoop, ts: np.ndarray | None = None):
    """(K, N) points and (K, rows, N) raw Jacobians of a loop's samples, or of (K,) params ts.

    A loop traced from system's spec carries the Jacobians (_TracedLoop);
    any other loop's are evaluated here through system.raw_jacobian.
    """
    points = loop.points if ts is None else loop._points_at(ts)
    traced_by = getattr(loop, "_system", None)  # None unless _trace made the loop
    if traced_by is not None and system.spec is not None and traced_by.spec is system.spec:
        return points, (loop._jacobians if ts is None else loop._jacobians_at(ts))
    return points, np.array([system.raw_jacobian(p) for p in points])


def induced_framing(
    spec: MapSpec, loop: SampledLoop, basis: np.ndarray | None = None
) -> NormalFraming:
    """Pull a fixed target-tangent basis back through the map's derivative.

    At every sample, field i is the minimum-norm solution of
    (constrained jacobian) . phi = b_i; it lies in the row space of the
    constrained Jacobian, hence is tangent to the domain manifold and
    orthogonal to the curve. A caller may supply a different orthonormal
    basis of the target tangent space (rows); the default is target_basis.
    All samples are solved at once: J^T = Q R from numkit's `_qr`, the
    batched QR that orthonormalizes frames, then x = Q R^-T b from one
    batched solve with the lower-triangular R^T. A failure of its rank rule
    (some |R_ii| below ortho_tol, or more rows than dimensions) is
    Singular, and a non-finite Jacobian an EvaluationFailure, each naming
    the sample; the resampler runs the same solve at its params' points.
    The map's derivatives are _raw_jacobians, carried by a loop traced from
    spec, whose traced system this takes instead of building another.
    """
    system = getattr(loop, "_system", None)  # None unless _trace made the loop
    if system is None or system.spec is not spec:
        system = _map_system(spec)
    B = system.basis
    if B is not None:
        src = B if basis is None else np.asarray(basis, dtype=float)
        # right-hand sides in the reduced target coordinates
        rhs = src @ B.T
    else:
        rhs = None if basis is None else np.asarray(basis, dtype=float)

    def fields_at(points: np.ndarray, raw: np.ndarray, where: Callable[[int], str]) -> np.ndarray:
        """Fields at K points, from the map's raw Jacobians there, as (K, count, N)."""
        # the reduced map's derivatives, restricted to the domain's tangent space
        J = raw if B is None else B @ raw
        if spec.domain == "unit_sphere":
            J = J - (J @ points[:, :, None]) * points[:, None, :]
        broken = np.flatnonzero(~np.isfinite(J).reshape(len(J), -1).all(axis=1))
        if broken.size:
            raise EvaluationFailure(f"non-finite map derivative at {where(broken[0])}")
        Q, R, _, dependent = _qr(J, DEFAULT_TOL.ortho_tol)
        if dependent is not None:
            raise Singular(
                f"rank drop of the map derivative at {where(dependent.index)} along the curve: "
                f"{dependent}"
            ) from dependent
        b = np.eye(J.shape[1]) if rhs is None else rhs
        C = np.linalg.solve(R.transpose(0, 2, 1), np.broadcast_to(b.T, (len(J), *b.T.shape)))
        return (Q @ C).transpose(0, 2, 1)

    X = fields_at(*_raw_jacobians(system, loop), lambda k: f"sample {k}")
    resample = None
    if loop.resample is not None:

        @_one_or_stack
        def resample(ts: np.ndarray) -> np.ndarray:
            where = lambda k: f"parameter {ts[k] % 1.0:.6f}"  # noqa: E731
            return fields_at(*_raw_jacobians(system, loop, ts), where)

    return NormalFraming(X.transpose(1, 0, 2), resample)


def _oriented(loop, framing, ambient, middle=None):
    """(loop, framing), the framing's first field negated unless its frame at sample 0 has det > 0.

    The frame is the rows [manifold normals, middle row, fields], the middle
    row the loop's tangent, or middle(point) when given. The one orientation
    rule of a traced report: a preimage circle with its induced framing, and
    both terms of a zero circle. The loop is kept as traced.
    """
    points = loop.points[:1]
    if middle is None:
        middles = loop.tangent_at_sample(0)[None]
    else:
        middles = _on_stack(middle, points, "middle row", loop.dimension)
    rows = _frame_rows(ambient, points, middles, framing.fields[:, :1].transpose(1, 0, 2))
    if np.linalg.det(rows[0]) > 0.0:
        return loop, framing
    flip = np.diag([-1.0] + [1.0] * (framing.count - 1))
    return loop, _recombined(
        framing, loop.params, lambda ts: np.broadcast_to(flip, (len(ts), *flip.shape))
    )


def _point_to_curve_distance(p: np.ndarray, b: SampledLoop) -> float:
    """Distance from a point to a loop, refined through the loop's resampler.

    Starts from the nearest stored sample and golden-sections the distance
    along the parameter, between the params of that sample's two neighbours
    (wrapping across 1), so unevenly spaced params are bracketed too;
    without a resampler the nearest sample distance is returned. Needed
    because sample-set distances between two traces of one curve are of the
    order of the step size, far above closure tolerances.
    """
    d = np.linalg.norm(b.points - p, axis=1)
    j = int(np.argmin(d))
    if b.resample is None:
        return float(d[j])
    ts = b._knots
    lo = ts[j - 1] if j > 0 else ts[-2] - 1.0
    hi = ts[j + 1]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1 = float(np.linalg.norm(b.point(x1) - p))
    f2 = float(np.linalg.norm(b.point(x2) - p))
    for _ in range(36):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = float(np.linalg.norm(b.point(x1) - p))
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = float(np.linalg.norm(b.point(x2) - p))
    return min(f1, f2, float(d[j]))


def hausdorff_distance(a: SampledLoop, b: SampledLoop, probes: int = 16) -> float:
    """Approximate symmetric Hausdorff distance between two loops.

    Probes a spread of samples on each loop against the other loop's curve
    (resample-refined when available, nearest sample otherwise).
    """

    def one_sided(src: SampledLoop, dst: SampledLoop) -> float:
        stride = max(1, len(src) // probes)
        return max(
            _point_to_curve_distance(src.points[k], dst)
            for k in range(0, len(src), stride)
        )

    return max(one_sided(a, b), one_sided(b, a))


def _check_distinct(loops: Sequence[SampledLoop], tol: Tolerances):
    # two traced components of one regular preimage are equal or disjoint,
    # so one point of the later loop decides
    for i in range(len(loops)):
        for j in range(i + 1, len(loops)):
            if _point_to_curve_distance(loops[j].points[0], loops[i]) <= 10.0 * tol.closure_tol:
                raise DuplicateComponent(f"seeds {i} and {j} traced the same component")


def _traced_components(system: _TracedSystem, opts: TraceOptions) -> list[SampledLoop]:
    """The traced loop of every seed, through trace_component and one traced system.

    A seed with no zero of the map near it (_NoZeroNear: its correction ran
    out of its distance cap, diverged or stalled far from rounding, or a
    sphere-valued map's seed reached the preimage of the antipodal value)
    is skipped and noted as seeds_skipped (an empty preimage contributes
    nothing); any other failure, a walk's after its seed converged
    included, is raised. Two seeds tracing one component raise
    DuplicateComponent.
    """
    traced = []
    for seed in opts.seeds:
        try:
            traced.append(trace_component(system.spec, seed, opts, system=system))
        except _NoZeroNear:
            _note_add("seeds_skipped", 1)
    _check_distinct(traced, opts.tolerances)
    return traced


def kappa_of_map(spec: MapSpec, opts: TraceOptions) -> InvariantReport:
    """Trace all seeds, frame the preimage circles, and report their indices.

    The circles are framed in the ambient the map's domain fixes: the unit
    sphere of R^dimension, else R^dimension, each with its one spin
    structure. The report's odd-index component count mod 2 equals kappa
    by construction.
    """
    tol = opts.tolerances
    if spec.domain == "unit_sphere":
        ambient = sphere_ambient(spec.dimension)
    else:
        ambient = euclidean_ambient(spec.dimension)
    system = _map_system(spec)
    with recording() as record:
        loops = _traced_components(system, opts)
        link = FramedLink(
            [_oriented(loop, induced_framing(spec, loop), ambient) for loop in loops], ambient
        )
        bits = _circle_indices(link.components, ambient, tol)
    return _report(bits, loops, ambient, tol, record, traced=True)


# The transport's rank threshold: a frame direction is lost where a
# projection leaves less than this fraction of it, and a manifold normal,
# the tangent or a coordinate direction is dependent where its unit vector
# keeps a residual below it.
_TRANSPORT_TOL = 1e-8

# How far the projections of one transport chain may stretch the condition
# number of the carried frame before the chain is orthonormalized and the
# next one starts from its last frame. The batched QR recovers every frame
# of a chain to about this factor times the machine epsilon.
_TRANSPORT_STRETCH = 1e3


def _transported(frames: np.ndarray, bases: np.ndarray):
    """Orthonormal (K, count, N) frames carried through the complements of (K, L, b, N) bases.

    Each frame is carried unnormalized, A_i = A_(i-1) (I - B_i^T B_i), one
    product per projection, and every chain [frame, A_1, ..., A_L] is
    orthonormalized by one batched _qr. Returns the (K, L, count, N)
    orthonormal frames, and a (K, L) bool array, True where a projection
    leaves some |R_jj| below _TRANSPORT_TOL times the one before it.
    """
    k, count, dim = frames.shape
    projectors = np.eye(dim) - bases.swapaxes(-1, -2) @ bases
    chains = np.empty((k, bases.shape[1] + 1, count, dim))
    chains[:, 0] = frames
    for i in range(bases.shape[1]):
        np.matmul(chains[:, i], projectors[:, i], out=chains[:, i + 1])
    Q, R, _, _ = _qr(chains.reshape(-1, count, dim), 0.0)
    diag = np.abs(np.diagonal(R, axis1=1, axis2=2)).reshape(chains.shape[:3])
    dropped = (diag[:, 1:] < _TRANSPORT_TOL * diag[:, :-1]).any(axis=2)
    return Q.transpose(0, 2, 1).reshape(chains.shape)[:, 1:], dropped


def _chain_slices(cosines: np.ndarray):
    """Slices of consecutive projections, each stretching the frame by at most _TRANSPORT_STRETCH.

    A projection between spans whose smallest principal-angle cosine is c
    stretches the condition number of the carried frame by at most 1 / c.
    Every slice holds at least one projection.
    """
    limit = math.log(_TRANSPORT_STRETCH)
    start, total = 0, 0.0
    for i, stretch in enumerate((-np.log(np.maximum(cosines, _TRANSPORT_TOL))).tolist()):
        if i > start and total + stretch > limit:
            yield slice(start, i)
            start, total = i, 0.0
        total += stretch
    yield slice(start, len(cosines))


def transport_closed_frame(
    loop: SampledLoop,
    normals_of_M: Sequence[Callable[[np.ndarray], np.ndarray]],
    tol: Tolerances = DEFAULT_TOL,
) -> NormalFraming:
    """Closed orthonormal frame of the curve's normal space inside the manifold.

    The frame starts from coordinate projections (one _mgs of the
    coordinate directions after the manifold normals and the tangent), is
    carried along the loop by projection transport (project the previous
    frame onto the current normal space and re-orthonormalize), and is
    closed along the Givens factorization of the resulting holonomy H:
    the frame at parameter t is turned by _givens_path at u = t - params[0]
    (t unwrapped), which is I at sample 0 and H^-1 where the loop returns
    to it. Any closed, continuous frame gives the same section index; this
    path turns the frame by at most |t' - t| sum_p |theta_p| between t and
    t', more than the geodesic from I to H^-1 would, but needs no logarithm.

    The bases B_i of [manifold normals, tangent] at all samples come from
    one _qr, and _transported carries the frame round the loop back to
    sample 0. That equals re-orthonormalizing after every projection: if
    F_(i-1) = L A_(i-1) with L lower triangular with a positive diagonal,
    projecting F_(i-1) gives L A_i, and the orthonormal rows with diag(R)
    > 0 do not change under such an L (Golub-Van Loan, Matrix
    Computations, 5.2). The same identity keeps _transported's rank rule
    per sample: sample i loses a dimension (RankDeficient, index i, 0 for
    the closing projection).
    A projection stretches the condition number of the unnormalized frame
    by at most the inverse of the smallest principal-angle cosine between
    the two spans it goes between, so the chain is cut where the product
    of those factors would pass _TRANSPORT_STRETCH, and the next chain
    starts from the last orthonormal frame: a smooth loop, such as every
    traced circle of the scenario registry, is one chain, and a loop whose
    tangent turns by tens of degrees from sample to sample is several.
    The resampler carries the frame of the segment's first sample to the
    resampled point as a chain of one projection.
    """
    k = len(loop)
    dim = loop.dimension
    count = dim - len(normals_of_M) - 1
    if count < 1:
        raise ValueError("the curve has no normal directions inside the manifold")

    def fixed(points: np.ndarray, tangents: np.ndarray) -> np.ndarray:
        """Rows [normals of M, tangent] at a (K, N) stack of points, as (K, count, N)."""
        rows = np.concatenate([_normals_at(normals_of_M, points), tangents[:, None]], axis=1)
        _require_finite(rows)
        return rows

    def bases(rows: np.ndarray) -> np.ndarray:
        """Orthonormal rows spanning each set of fixed rows."""
        return _values(_orthonormal_sets(rows, _TRANSPORT_TOL))[0]

    lost_a_dimension = "normal space of the curve lost a dimension at"
    rows = fixed(loop.points, loop._sample_tangents)
    initial = _mgs([*rows[0], *np.eye(dim)], _TRANSPORT_TOL)
    if len(initial) != len(normals_of_M) + 1 + count:
        raise RankDeficient("could not complete an initial normal frame")
    B = bases(rows)
    # projection i carries the frame from sample i to sample i + 1 (mod k)
    steps = np.roll(B, -1, axis=0)
    # the smallest principal-angle cosine between the spans of each projection
    cosines = np.linalg.svd(B @ steps.transpose(0, 2, 1), compute_uv=False)[:, -1]
    carried = [np.array(initial[-count:])[None]]
    for part in _chain_slices(cosines):
        frames, dropped = _transported(carried[-1][-1:], steps[None, part])
        if dropped.any():
            sample = (part.start + int(np.argmax(dropped)) + 1) % k
            raise RankDeficient(f"{lost_a_dimension} sample {sample}", index=sample)
        carried.append(frames[0])
    frames = np.concatenate(carried)
    raw = frames[:k]
    H = frames[k] @ raw[0].T
    if np.linalg.det(H) < 0.0:
        raise RankDeficient("transport around the loop reversed orientation")
    planes = _givens_planes(H)
    resample = None
    if loop.resample is not None:

        @_one_or_stack
        def resample(ts: np.ndarray) -> np.ndarray:
            basis = bases(fixed(loop._points_at(ts), loop._tangents_at(ts)))
            frames, dropped = _transported(raw[loop._segment(ts)[0]], basis[:, None])
            if dropped.any():
                raise RankDeficient(f"{lost_a_dimension} parameter {ts[np.argmax(dropped)] % 1.0:.6f}")
            return frames[:, 0]

    def closing(ts: np.ndarray) -> np.ndarray:
        # u runs from 0 at sample 0 to 1 where the last segment meets it again
        return _givens_path(planes, count, loop._unwrapped(ts) - loop.params[0])

    return _recombined(NormalFraming(raw.transpose(1, 0, 2), resample), loop.params, closing)


def _givens_planes(H: np.ndarray) -> list[tuple[int, int, float]]:
    """Planes (j, i) and angles theta whose Givens rotations take an SO(n) matrix H to I.

    The elimination of spinlift._givens, which the lift runs on its rotor
    stacks, run on a stack of one: G_p ... G_1 H = I for the returned
    (j, i, theta) in order.
    """
    thetas = _givens(H[:, :, None].copy())[:, 0].tolist()
    return [(j, i, theta) for (j, i), theta in zip(itertools.combinations(range(len(H)), 2), thetas)]


def _givens_path(planes, n: int, u: np.ndarray) -> np.ndarray:
    """The (K, n, n) stack G_p(u theta_p) ... G_1(u theta_1) at a (K,) array u.

    planes are _givens_planes(H): the path is exactly I at u = 0 and H^-1
    at u = 1. It is not a one-parameter group, so only its ends are fixed.
    """
    P = np.tile(np.eye(n), (len(u), 1, 1))
    for j, i, theta in planes:
        c, s = np.cos(u * theta)[:, None], np.sin(u * theta)[:, None]
        P[:, j], P[:, i] = c * P[:, j] + s * P[:, i], c * P[:, i] - s * P[:, j]
    return P


def _check_section_invariants(spec: SectionSpec, loop: SampledLoop):
    """Check v and w at every (len(loop) // 16)-th sample; the first failing one raises."""
    X = loop.points[:: max(1, len(loop) // 16)]
    dim = loop.dimension
    V = _on_stack(spec.splitting_field, X, "splitting field", dim)
    W = _on_stack(spec.section, X, "section", dim)

    def dots(A, B):
        return np.abs((A[:, None, :] @ B[:, :, None])[:, 0, 0])

    bad_v = (np.abs(dots(V, V) - 1.0) > 1e-8) | (dots(V, X) > 1e-8)
    bad_w = (dots(W, X) > 1e-6) | (dots(W, V) > 1e-6)
    first = np.flatnonzero(bad_v | bad_w)
    if first.size and bad_v[first[0]]:
        raise ValidationError("splitting field must be a unit tangent field of the sphere")
    if first.size:
        raise ValidationError(
            "section values must be tangent and orthogonal to the splitting field"
        )


def _section_derivative_fields(
    spec: SectionSpec, system: _TracedSystem, loop: SampledLoop, aux: NormalFraming
) -> NormalFraming:
    """dw applied to the auxiliary frame, projected into the bundle fibers.

    dw is the section's Jacobian, _raw_jacobians of the traced system, at
    the samples and in the resampler at its params' points; the splitting
    field is evaluated on the stack of points.
    """

    def tau_at(X: np.ndarray, U: np.ndarray, raw: np.ndarray) -> np.ndarray:
        """(K, count, N) fields at the points X from the frames U and Jacobians raw."""
        V = _on_stack(spec.splitting_field, X, "splitting field", X.shape[1])
        D = U @ raw.transpose(0, 2, 1)
        # at zeros of the section the covariant derivative is the plain
        # directional derivative projected into the fiber; D @ x is one
        # matrix-vector product per sample
        return D - (D @ X[:, :, None]) * X[:, None] - (D @ V[:, :, None]) * V[:, None]

    X, raw = _raw_jacobians(system, loop)
    fields = tau_at(X, aux.fields.transpose(1, 0, 2), raw)
    resample = None
    if loop.resample is not None and aux.resample is not None:

        @_one_or_stack
        def resample(ts: np.ndarray) -> np.ndarray:
            U = aux._fields_at(ts)
            X, raw = _raw_jacobians(system, loop, ts)
            return tau_at(X, U, raw)

    return NormalFraming(fields.transpose(1, 0, 2), resample)


def _section_parts(spec, system, loop, ambient, tol, aux_twist_turns):
    """The frame loops of one zero circle, term 1 and term 2, as _FrameParts.

    Term 1 is [position, tangent, aux], term 2 [position, v, dw(aux)], each
    _oriented on the traced circle; a rank error of term 2's frames, at a
    sample or in its refiner, is the section failing to be transverse
    (NonTransverse).
    """
    v_of = spec.splitting_field
    aux = transport_closed_frame(loop, ambient.manifold_normals, tol)
    if aux_twist_turns:
        aux = twist_framing(loop, aux, aux_twist_turns)
    tau = _section_derivative_fields(spec, system, loop, aux)
    term1 = _FramePart(*_oriented(loop, aux, ambient))
    return term1, _FramePart(*_oriented(loop, tau, ambient, v_of), v_of, _non_transverse)


def _non_transverse(where: str) -> NonTransverse:
    """Term 2's rank error at where: the section's derivative is not transverse there."""
    return NonTransverse(f"section derivative degenerates on the normal space at {where}")


def _section_indices(spec, system, circles, ambient, tol, aux_twist_turns) -> list[Z2]:
    """The index of every zero circle, given as its loop; system is the section's traced system.

    Both terms of every circle, up to the first whose checks or transport
    fail, go through _frame_bits as one component of two parts. The error
    raised, and the frames noted, are those of the circles one after
    another: checks, transport, term 1's frames, term 2's frames, term 1's
    lift, term 2's lift.
    """
    parts, failure = [], None
    for loop in circles:
        try:
            _check_section_invariants(spec, loop)
            parts += _section_parts(spec, system, loop, ambient, tol, aux_twist_turns)
        except Exception as exc:  # noqa: BLE001 - a callback's error is its circle's
            failure = exc
            break
    bits = _frame_bits(parts, 2, ambient, tol, lambda cls, loop: cls ^ Z2(1))
    return _values((bits, failure))


def section_zero_loops(spec: SectionSpec, opts: TraceOptions) -> list[SampledLoop]:
    """Traced zero circles of the section, one per converging seed.

    The section is traced as a map from the unit sphere (_traced_components):
    seeds with no zero near are skipped (noted as seeds_skipped), and
    seeds reaching one component twice raise DuplicateComponent.
    """
    return _traced_components(_map_system(_section_map(spec)), opts)


def section_index(
    spec: SectionSpec,
    opts: TraceOptions,
    aux_twist_turns: int = 0,
) -> InvariantReport:
    """Degree of the v-complement bundle from the zero locus of the section.

    Traces the zeros of the section on the sphere; every zero circle
    contributes loop_class([position, tangent, aux]) xor
    loop_class([position, v, dw(aux)]) xor 1, and the degree is the xor
    over components (an empty zero locus gives 0).
    """
    tol = opts.tolerances
    ambient = sphere_ambient(spec.embedding_dimension)
    # the circles traced through this system carry the section's Jacobians for dw
    system = _map_system(_section_map(spec))
    with recording() as record:
        circles = _traced_components(system, opts)
        bits = _section_indices(spec, system, circles, ambient, tol, aux_twist_turns)
    return _report(bits, circles, ambient, tol, record, traced=True)


def write_loop_csv(loop: SampledLoop, path: str):
    """One row per sample: parameter, then the point coordinates."""
    with open(path, "w", encoding="utf-8") as fh:
        cols = ",".join(f"x{i}" for i in range(loop.dimension))
        fh.write(f"t,{cols}\n")
        for t, p in zip(loop.params, loop.points):
            coords = ",".join(repr(float(c)) for c in p)
            fh.write(f"{t!r},{coords}\n")
