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
S^(N-1), each with exactly one spin structure. One rule orients a traced
circle, a preimage circle with its induced framing and term 1 of a zero
circle with its auxiliary frame alike.

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
    _circle_indices,
    _frame_bits,
    _frame_rows,
    _FramePart,
    _normals_at,
    _recombined,
    _report,
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
    _orthonormal_sets,
    _qr,
    _require_finite,
    _svd,
    _values,
    jacobian_fd,
    recording,
)
from .spinlift import Z2, _givens


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

    raw_jacobian(p) is the derivative of the caller's map (its analytic
    Jacobian, else central differences), noted as one jacobian_evaluation;
    every derivative of the map the tracer takes goes through it.
    assemble(p, raw) builds the system Jacobian from it. basis is the
    target_basis the residual is projected onto for sphere targets, None for
    R^n targets. check(seed) compares an analytic Jacobian with central
    differences at a seed (_counted); a system without one checks nothing.
    """

    def __init__(self, residual, raw_jacobian, assemble, dimension, basis, check=None):
        self.residual = residual
        self.raw_jacobian = raw_jacobian
        self.assemble = assemble
        self.dimension = dimension
        self.basis = basis
        self.check = check or (lambda seed: None)

    def jacobian(self, p: np.ndarray) -> np.ndarray:
        return self.assemble(p, self.raw_jacobian(p))


# An analytic Jacobian J fails its check against the central differences F
# at a seed when max|J - F| > _JACOBIAN_CHECK_TOL * (1 + max|F|). Central
# differences agree with the registry's exact Jacobians to about 1e-9
# relative, and a wrong entry is off by the size of the entry.
_JACOBIAN_CHECK_TOL = 1e-6


def _counted(spec: MapSpec):
    """spec's raw Jacobian (analytic, else jacobian_fd), noted and shaped as (outputs, N).

    outputs is the length of the evaluator's values, read from one extra
    evaluation at the first analytic Jacobian (jacobian_fd's rows are those
    values). A vector of length N is one row; any other shape is an
    EvaluationFailure naming it and the point's.

    Returned with it is the seed check: check(seed) evaluates an analytic
    Jacobian at the seed on the same shape rule, notes it as one
    jacobian_checks (not as a jacobian_evaluation), and compares it with
    jacobian_fd there. A mismatch above _JACOBIAN_CHECK_TOL is an
    EvaluationFailure naming the seed, the entry and both values. A
    non-finite Jacobian is left to the walk, which refuses it; without an
    analytic Jacobian there is nothing to check.
    """
    dimension = spec.dimension
    rows = None

    def analytic(p):
        nonlocal rows
        J = np.asarray(spec.jacobian(p), dtype=float)
        if rows is None:
            rows = np.asarray(spec.evaluator(p), dtype=float).size
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
        if spec.jacobian is None:
            return jacobian_fd(spec.evaluator, p)
        return analytic(p)

    def check(seed):
        if spec.jacobian is None:
            return
        _note_add("jacobian_checks", 1)
        J = analytic(seed)
        if not np.isfinite(J).all():
            return
        F = jacobian_fd(spec.evaluator, seed)
        # a non-finite difference is a mismatch too
        gap = np.nan_to_num(np.abs(J - F), nan=math.inf)
        i, j = np.unravel_index(np.argmax(gap), gap.shape)
        if not gap[i, j] <= _JACOBIAN_CHECK_TOL * (1.0 + np.max(np.abs(F))):
            raise EvaluationFailure(
                f"map Jacobian disagrees with central differences at the seed {seed.tolist()}: "
                f"entry ({i}, {j}) is {J[i, j]:.10g}, central differences give {F[i, j]:.10g}"
            )

    return raw_jacobian, check


def _map_system(spec: MapSpec) -> _TracedSystem:
    raw_jacobian, check = _counted(spec)
    basis = None
    if spec.target == "sphere":
        x0 = spec.regular_value
        basis = target_basis(spec, x0.size - 1)

        def f_target(p):
            value = np.asarray(spec.evaluator(p), dtype=float)
            if value.size != x0.size:
                raise EvaluationFailure(
                    f"map values have length {value.size}, the regular value {x0.size}"
                )
            return basis @ (value - x0)

        def j_target(raw):
            return basis @ raw

    else:

        def f_target(p):
            return np.asarray(spec.evaluator(p), dtype=float)

        def j_target(raw):
            return raw

    if spec.domain == "unit_sphere":

        def residual(p):
            f = f_target(p)
            r = np.empty(len(f) + 1)
            r[:-1] = f
            r[-1] = (p @ p - 1.0) / 2.0
            return r

        def assemble(p, raw):
            rows = j_target(raw)
            J = np.empty((rows.shape[0] + 1, rows.shape[1]))
            J[:-1] = rows
            J[-1] = p
            return J

    else:
        residual = f_target

        def assemble(p, raw):
            return j_target(raw)

    return _TracedSystem(residual, raw_jacobian, assemble, spec.dimension, basis, check)


def _section_map(spec: SectionSpec) -> MapSpec:
    """The section as a map from the unit sphere to R^(n+2); its zeros are traced."""
    return MapSpec(
        spec.section, spec.embedding_dimension, jacobian=spec.jacobian, domain="unit_sphere"
    )


def _frame_jacobian(
    spec: MapSpec, system: _TracedSystem, points: np.ndarray, raw=None
) -> np.ndarray:
    """Derivatives of the reduced map restricted to the domain tangent space.

    points is (K, N) and the result (K, rows, N). raw holds the map's
    Jacobians at the points when the caller has them; otherwise they are
    evaluated here through system.raw_jacobian.
    """
    if raw is None:
        raw = [system.raw_jacobian(p) for p in points]
    J = np.array(raw, dtype=float)
    if system.basis is not None:
        J = system.basis @ J
    if spec.domain == "unit_sphere":
        J = J - (J @ points[:, :, None]) * points[:, None, :]
    return J


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
    rank = int(np.count_nonzero(S > _NEWTON_RCOND * S[0]))
    return Vt[:rank].T, U[:, :rank].T, S[:rank], rank, Vt


def _descent(factored, r: np.ndarray) -> np.ndarray:
    """J^+ r, J^+ the pseudo-inverse cut to the factored rank: the Newton step is its negative.

    Up to rounding, -_descent(factored, r) is np.linalg.lstsq(J, -r,
    rcond=_NEWTON_RCOND); bit for bit it is Vt[:rank].T @ ((U[:, :rank].T
    @ r) / S[:rank]), the views kept as views: a contiguous copy of a
    factor changes the BLAS kernel and the rounding of the product.
    """
    V, Ut, S = factored[:3]
    return V @ ((Ut @ r) / S)


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
    Jacobian is an EvaluationFailure. Counts its correction steps and notes
    them as newton_iterations, with one newton_calls, once when it returns
    or raises.
    """
    iterations = 0
    try:
        # p and every descent are contiguous, so sqrt(x @ x) is _norm(x)
        p = np.asarray(start, dtype=float).copy()
        scale = 1.0 + math.sqrt(p @ p)
        budget = 10.0 * scale if max_move is None else max_move
        moved = 0.0
        factored = first
        previous = math.inf
        for _ in range(max_iter):
            try:
                r = system.residual(p)
            except EvaluationFailure:
                raise
            except Exception as exc:  # noqa: BLE001
                raise EvaluationFailure("map evaluation failed during correction") from exc
            rn = _norm(r)
            if rn < tol.newton_tol:
                return p, rn
            if factored is None or rn > _CHORD_CONTRACTION * previous:
                J = system.jacobian(p)
                if not np.isfinite(J).all():
                    raise EvaluationFailure("non-finite Jacobian during correction")
                factored = _factored(J)
            previous = rn
            iterations += 1
            descent = _descent(factored, r)
            sn = math.sqrt(descent @ descent)
            if not math.isfinite(sn) or sn > 2.0 * scale:
                raise NoConvergence("correction step diverged")
            p = p - descent
            moved += sn
            if moved > budget:
                raise NoConvergence("correction wandered too far from the start point")
        rn = _norm(system.residual(p))
        if rn < tol.newton_tol:
            return p, rn
        raise NoConvergence(f"corrector stalled at residual {rn:.3e}")
    finally:
        _note_add("newton_calls", 1)
        if iterations:
            _note_add("newton_iterations", iterations)


def _newton_aligned(system, start, anchor, direction, tol):
    """Newton correction onto the curve intersected with a transverse hyperplane."""

    def residual(p):
        return np.concatenate([system.residual(p), [(p - anchor) @ direction]])

    def assemble(p, raw):
        return np.vstack([system.assemble(p, raw), direction])

    aligned = _TracedSystem(residual, system.raw_jacobian, assemble, system.dimension, system.basis)
    return _newton(aligned, start, tol)


def _tangent_of(system: _TracedSystem, p: np.ndarray, previous, tol: Tolerances):
    """Unit kernel tangent at p, the raw Jacobian it came from, and its factorization.

    The tangent is the last right singular vector of the system Jacobian,
    whose rank must be one less than the dimension (else Singular). It
    points along previous when given and not orthogonal to it, otherwise
    its first entry larger than ortho_tol in magnitude is positive.
    """
    raw = system.raw_jacobian(p)
    J = system.assemble(p, raw)
    if not np.isfinite(J).all():
        raise EvaluationFailure("non-finite Jacobian along the curve")
    factored = _factored(J)
    rank, Vt = factored[3:]
    n = Vt.shape[0]
    if rank != n - 1:
        raise Singular(
            f"rank drop along the curve: the Jacobian has rank {rank}, expected {n - 1}; "
            "transversality violated"
        )
    t = Vt[n - 1]
    d = 0.0 if previous is None else float(t @ previous)
    if d == 0.0:
        d = t[np.abs(t) > tol.ortho_tol][0]
    return (-t if d < 0.0 else t), raw, factored


def _trace(system: _TracedSystem, seed: np.ndarray, opts: TraceOptions):
    """The traced loop, its raw Jacobians, closure error and largest residual.

    An analytic Jacobian is checked at the seed (system.check) before the
    seed is corrected. The loop carries the unit kernel tangent found at
    each of its samples; the list holds the raw Jacobian
    (system.raw_jacobian) that tangent came from, one per sample. That
    Jacobian's factorization is the chord the next predictor's correction
    holds, retries after a halved step included: _newton takes every step
    from it and evaluates a new Jacobian only after a step that contracts
    too little, so most accepted points cost the one Jacobian of their
    tangent. Between samples the loop resamples its points by Newton
    correction and its tangents as the kernel at the resampled point,
    signed along the carried tangent of the segment's first sample.
    """
    tol = opts.tolerances
    seed = np.asarray(seed, dtype=float)
    if seed.size != system.dimension:
        raise ValueError(f"seed has dimension {seed.size}, expected {system.dimension}")
    system.check(seed)
    # seeds must sit near their component: cap the correction distance
    p0, _ = _newton(system, seed, tol, max_move=max(8.0 * opts.initial_step, 0.25))
    t0, raw0, factored = _tangent_of(system, p0, None, tol)
    points = [p0]
    tangents = [t0]
    raws = [raw0]
    residuals = [_norm(system.residual(p0))]
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
            t_new, raw, factored_new = _tangent_of(system, q, t, tol)
            if float(t_new @ t) < 0.2:
                ok = False
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
        if escaped and dist0 < 1.5 * h and float(t_new @ t0) > 0.9:
            try:
                closer, _ = _newton_aligned(system, q, p0, t0, tol)
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
    # the latest parameter resampled and its point: the lift's refiners ask
    # for the point, the tangent and the frames at one parameter in turn
    last: list = [None, None]

    def resample(t_val: float) -> np.ndarray:
        if t_val != last[0]:
            i, w = loop._segment(t_val)
            start = (1.0 - w) * pts[i] + w * pts[(i + 1) % len(pts)]
            last[:] = t_val, _newton(system, start, tol)[0]
        return last[1].copy()

    def resample_tangent(t_val: float) -> np.ndarray:
        i, _ = loop._segment(t_val)
        return _tangent_of(system, resample(t_val), carried[i], tol)[0]

    loop = SampledLoop(
        pts, resample, SampledLoop(pts).arc_fractions(), carried, resample_tangent
    )
    return loop, raws, closure_error, max(residuals)


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
            p, _ = _newton(system, cand, opts.tolerances, max_move=cap)
        except (NoConvergence, EvaluationFailure):
            continue
        if all(np.linalg.norm(p - q) > dedup_radius for q in kept):
            kept.append(p)
    return kept


def trace_component(
    spec: MapSpec, seed: np.ndarray, opts: TraceOptions, jacobians: list | None = None
) -> SampledLoop:
    """Trace the closed solution curve through the component nearest a seed.

    An analytic spec.jacobian is first compared with central differences at
    the seed; a mismatch is an EvaluationFailure (_counted). The seed is
    then Newton-corrected onto the solution set (NoConvergence when
    that fails); the curve is then walked with an Euler predictor along the
    Jacobian kernel and a Gauss-Newton corrector, halving the step on
    corrector failure and doubling it after easy steps, until the walk
    returns to the start point with an aligned tangent. The returned loop
    carries the unit kernel tangent of the Jacobian at every sample, as the
    walk found it (oriented along the walk), and resamples itself between
    samples by re-running the corrector, its tangent there being the kernel
    at the resampled point. When a list is passed as
    jacobians, the map's Jacobian at every sample (spec.jacobian or its
    finite-difference stand-in, as the walk evaluated it for the tangent)
    is appended to it in sample order; induced_framing takes them.
    """
    system = _map_system(spec)
    loop, raws, closure_error, max_residual = _trace(system, seed, opts)
    if spec.target == "sphere":
        x0 = spec.regular_value
        val = float(np.asarray(spec.evaluator(loop.points[0]), dtype=float) @ x0)
        if val <= 0.0:
            raise NoConvergence("seed converged to the preimage of the antipodal value")
    _note_append("closure_errors", closure_error)
    _note_max("max_residual", max_residual)
    if jacobians is not None:
        jacobians.extend(raws)
    return loop


def induced_framing(
    spec: MapSpec,
    loop: SampledLoop,
    basis: np.ndarray | None = None,
    jacobians: Sequence[np.ndarray] | None = None,
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
    the sample. The resampler runs the same solve at one point.

    jacobians, when given, are the map's Jacobians at the samples, as
    trace_component collects them for this loop; they are used instead of
    evaluating the map's derivative there again. The resampler always
    evaluates it.
    """
    if jacobians is not None and len(jacobians) != len(loop):
        raise ValueError(f"{len(jacobians)} Jacobians for a loop of {len(loop)} samples")
    system = _map_system(spec)
    B = system.basis
    if B is not None:
        src = B if basis is None else np.asarray(basis, dtype=float)
        # right-hand sides in the reduced target coordinates
        rhs = src @ B.T
    else:
        rhs = None if basis is None else np.asarray(basis, dtype=float)

    def fields_at(points: np.ndarray, where: Callable[[int], str], raw=None) -> np.ndarray:
        """Fields at K points as (K, count, N)."""
        J = _frame_jacobian(spec, system, points, raw)
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

    X = fields_at(loop.points, lambda k: f"sample {k}", jacobians)
    resample = None
    if loop.resample is not None:

        def resample(t: float) -> np.ndarray:
            return fields_at(loop.point(t)[None], lambda _: f"parameter {t % 1.0:.6f}")[0]

    return NormalFraming(X.transpose(1, 0, 2), resample)


def _frame_det(loop, middle, framing, ambient, k) -> float:
    """Sign-relevant determinant of the raw frame rows at sample k."""
    fields = framing.fields[:, k : k + 1].transpose(1, 0, 2)
    rows = _frame_rows(ambient, loop.points[k : k + 1], middle[None], fields)
    return float(np.linalg.det(rows[0]))


def _oriented(loop, framing, ambient):
    """(loop, framing), both reversed unless [normals, tangent, fields] at sample 0 has det > 0.

    The one orientation rule of a traced circle: a preimage circle with its
    induced framing, and term 1 of a zero circle with its auxiliary frame.
    """
    d = _frame_det(loop, loop.tangent_at_sample(0), framing, ambient, 0)
    if d > 0.0:
        return loop, framing
    return loop.reversed(), framing.reversed()


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
    for i in range(len(loops)):
        for j in range(i + 1, len(loops)):
            if hausdorff_distance(loops[i], loops[j]) <= 10.0 * tol.closure_tol:
                raise DuplicateComponent(f"seeds {i} and {j} traced the same component")


def _traced_components(spec: MapSpec, opts: TraceOptions) -> list[tuple[SampledLoop, list]]:
    """(loop, the map's Jacobians at its samples) for every seed, through trace_component.

    Seeds whose correction fails to converge are skipped and noted as
    seeds_skipped (an empty preimage contributes nothing); two seeds tracing
    one component raise DuplicateComponent.
    """
    traced = []
    for seed in opts.seeds:
        jacobians: list = []
        try:
            loop = trace_component(spec, np.asarray(seed, dtype=float), opts, jacobians)
        except NoConvergence:
            _note_add("seeds_skipped", 1)
            continue
        traced.append((loop, jacobians))
    _check_distinct([loop for loop, _ in traced], opts.tolerances)
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
    with recording() as record:
        # the walk's Jacobians at the samples: each is evaluated once
        components = [
            _oriented(loop, induced_framing(spec, loop, jacobians=jacobians), ambient)
            for loop, jacobians in _traced_components(spec, opts)
        ]
        link = FramedLink(components, ambient)
        bits = _circle_indices(link.components, ambient, tol)
    return _report(bits, [loop for loop, _ in components], ambient, tol, record, traced=True)


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


def _transported(frame: np.ndarray, bases: np.ndarray):
    """An orthonormal frame carried through the complements of bases, orthonormalized.

    frame is an orthonormal (count, N) set and bases an (L, b, N) stack of
    orthonormal rows. The frame is carried unnormalized, A_i = A_(i-1)
    (I - B_i^T B_i), one matmul per projection with the projectors built
    as one stack, and the chain [frame, A_1, ..., A_L] is orthonormalized
    by one batched _qr. Returns (frames, lost): the (L, count, N)
    orthonormal frames, and the first i (from 0) whose projection leaves
    some |R_jj| below _TRANSPORT_TOL times the one before it, or None.
    """
    projectors = np.eye(frame.shape[1]) - bases.transpose(0, 2, 1) @ bases
    chain = np.empty((len(bases) + 1, *frame.shape))
    chain[0] = frame
    for i, projector in enumerate(projectors):
        np.matmul(chain[i], projector, out=chain[i + 1])
    Q, R, _, _ = _qr(chain, 0.0)
    diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
    dropped = (diag[1:] < _TRANSPORT_TOL * diag[:-1]).any(axis=1)
    lost = int(np.argmax(dropped)) if dropped.any() else None
    return Q[1:].transpose(0, 2, 1), lost


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
    one _qr. The frame is carried unnormalized, A_i = A_(i-1) (I - B_i^T
    B_i), round the loop back to sample 0, and the chain of carried
    frames is orthonormalized by one batched _qr. That equals
    re-orthonormalizing after every projection: if F_(i-1) = L A_(i-1)
    with L lower triangular with a positive diagonal, projecting F_(i-1)
    gives L A_i, and the orthonormal rows with diag(R) > 0 do not change
    under such an L (Golub-Van Loan, Matrix Computations, 5.2). The same
    identity keeps the rank rule per sample: the residual of frame
    direction j after the projection at sample i is |R_jj(i)| / |R_jj(i-1)|
    of the chain's QR, and sample i loses a dimension (RankDeficient,
    index i, 0 for the closing projection) when some ratio is below 1e-8.
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
        frames, lost = _transported(carried[-1][-1], steps[part])
        if lost is not None:
            sample = (part.start + lost + 1) % k
            raise RankDeficient(f"{lost_a_dimension} sample {sample}", index=sample)
        carried.append(frames)
    frames = np.concatenate(carried)
    raw = frames[:k]
    H = frames[k] @ raw[0].T
    if np.linalg.det(H) < 0.0:
        raise RankDeficient("transport around the loop reversed orientation")
    planes = _givens_planes(H)
    resample = None
    if loop.resample is not None:

        def resample(t: float) -> np.ndarray:
            i, _ = loop._segment(t)
            basis = bases(fixed(loop.point(t)[None], loop.tangent(t)[None]))
            frames, lost = _transported(raw[i], basis)
            if lost is not None:
                raise RankDeficient(f"{lost_a_dimension} parameter {t % 1.0:.6f}")
            return frames[0]

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
    spec: SectionSpec, system: _TracedSystem, loop: SampledLoop, aux: NormalFraming, raws
) -> NormalFraming:
    """dw applied to the auxiliary frame, projected into the bundle fibers.

    raws are the section's Jacobians at the samples, as the walk evaluated
    them and _traced_components collects them; the resampler evaluates one
    per point through system.raw_jacobian. The splitting field is evaluated
    on the stack of samples.
    """

    def tau_at(X: np.ndarray, U: np.ndarray, raw: np.ndarray) -> np.ndarray:
        """(K, count, N) fields at the points X from the frames U and Jacobians raw."""
        V = _on_stack(spec.splitting_field, X, "splitting field", X.shape[1])
        D = U @ raw.transpose(0, 2, 1)
        # at zeros of the section the covariant derivative is the plain
        # directional derivative projected into the fiber; D @ x is one
        # matrix-vector product per sample
        return D - (D @ X[:, :, None]) * X[:, None] - (D @ V[:, :, None]) * V[:, None]

    fields = tau_at(loop.points, aux.fields.transpose(1, 0, 2), np.asarray(raws, dtype=float))
    resample = None
    if loop.resample is not None and aux.resample is not None:

        def resample(t: float) -> np.ndarray:
            x = loop.point(t)[None]
            return tau_at(x, aux.at(t)[None], system.raw_jacobian(x[0])[None])[0]

    return NormalFraming(fields.transpose(1, 0, 2), resample)


def _section_parts(spec, system, loop, ambient, tol, aux_twist_turns, raws):
    """The frame loops of one zero circle, term 1 and term 2, as _FrameParts.

    Term 1 is [position, tangent, aux], term 2 [position, v, dw(aux)]; a
    rank error of term 2's frames, at a sample or in its refiner, is the
    section failing to be transverse (NonTransverse).
    """
    v_of = spec.splitting_field
    aux = transport_closed_frame(loop, ambient.manifold_normals, tol)
    if aux_twist_turns:
        aux = twist_framing(loop, aux, aux_twist_turns)
    tau = _section_derivative_fields(spec, system, loop, aux, raws)
    v0 = _on_stack(v_of, loop.points[:1], "splitting field", loop.dimension)[0]
    if _frame_det(loop, v0, tau, ambient, 0) < 0.0:
        flip = np.diag([-1.0] + [1.0] * (aux.count - 1))
        flips = lambda ts: np.broadcast_to(flip, (len(ts), *flip.shape))  # noqa: E731
        aux = _recombined(aux, loop.params, flips)
        tau = _recombined(tau, loop.params, flips)
    # Only term 1's middle row, the tangent, depends on the direction of
    # travel; a loop traversed backwards has the same class.
    term1 = _FramePart(*_oriented(loop, aux, ambient))
    return term1, _FramePart(loop, tau, v_of, _non_transverse)


def _non_transverse(where: str) -> NonTransverse:
    """Term 2's rank error at where: the section's derivative is not transverse there."""
    return NonTransverse(f"section derivative degenerates on the normal space at {where}")


def _section_indices(spec, system, circles, ambient, tol, aux_twist_turns) -> list[Z2]:
    """The index of every zero circle, given as (loop, the section's Jacobians at its samples).

    Both terms of every circle, up to the first whose checks or transport
    fail, go through _frame_bits as one component of two parts. The error
    raised, and the frames noted, are those of the circles one after
    another: checks, transport, term 1's frames, term 2's frames, term 1's
    lift, term 2's lift.
    """
    parts, failure = [], None
    for loop, raws in circles:
        try:
            _check_section_invariants(spec, loop)
            parts += _section_parts(spec, system, loop, ambient, tol, aux_twist_turns, raws)
        except Exception as exc:  # noqa: BLE001 - a callback's error is its circle's
            failure = exc
            break
    bits = _frame_bits(parts, 2, ambient, tol, lambda cls, loop: cls ^ Z2(1))
    return _values((bits, failure))


def section_zero_loops(spec: SectionSpec, opts: TraceOptions) -> list[SampledLoop]:
    """Traced zero circles of the section, one per converging seed.

    The section is traced as a map from the unit sphere (_traced_components):
    seeds whose correction diverges are skipped (noted as seeds_skipped), and
    seeds reaching one component twice raise DuplicateComponent.
    """
    return [loop for loop, _ in _traced_components(_section_map(spec), opts)]


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
    traced = _section_map(spec)
    # dw's resampler evaluates the section's Jacobian through this system
    system = _map_system(traced)
    with recording() as record:
        # dw at the samples takes the walk's Jacobians there
        circles = _traced_components(traced, opts)
        bits = _section_indices(spec, system, circles, ambient, tol, aux_twist_turns)
    return _report(bits, [loop for loop, _ in circles], ambient, tol, record, traced=True)


def write_loop_csv(loop: SampledLoop, path: str):
    """One row per sample: parameter, then the point coordinates."""
    with open(path, "w", encoding="utf-8") as fh:
        cols = ",".join(f"x{i}" for i in range(loop.dimension))
        fh.write(f"t,{cols}\n")
        for t, p in zip(loop.params, loop.points):
            coords = ",".join(repr(float(c)) for c in p)
            fh.write(f"{t!r},{coords}\n")
