"""Numerical extraction of framed links from analytic input.

Two sources are supported. Regular-value preimages: a map into a sphere or
into R^n is traced through the one-dimensional preimage of a regular value
with a tangent-predictor / Newton-corrector walk, and the derivative of the
map pulls a fixed basis of the target tangent space back to a framing of
the traced curve. Section zero loci: a transverse section of the subbundle
of a sphere's tangent bundle orthogonal to a unit splitting field is traced
through its zeros by the same walk, as a map from the unit sphere into its
ambient space, and the index of each zero circle is assembled from two
frame loops, one carrying an auxiliary transported frame of the curve's
normal space, the other carrying the derivative of the section applied to
that frame. The auxiliary frame drops out of the final bit, which the
closure-twist invariance suite checks explicitly.

Sphere-valued maps are reduced near the regular value to R^n-valued
residuals by projecting onto the tangent space of the target at that value;
the same projection basis defines the induced framing, and changing it by a
constant rotation does not move the computed class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AmbientMismatch,
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
    AmbientPresentation,
    FramedLink,
    InvariantReport,
    NormalFraming,
    SampledLoop,
    _recombined,
    _report,
    frame_matrix_loop,
    index_of_circle,
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
    jacobian_fd,
    kernel_direction,
    orthonormalize,
    recording,
)
from .spinlift import Z2, loop_class


@dataclass
class MapSpec:
    """A smooth map together with the data needed to trace a preimage.

    target is "rn" (regular value 0 in R^n) or "sphere" (regular value on
    the unit sphere of the evaluator's output space). domain is "euclidean"
    or "unit_sphere"; in the latter case the sphere equation joins the
    traced system, so the traced curve lies on the unit sphere of
    R^dimension, but the evaluator must be defined near the sphere as well:
    Newton predictors and finite-difference probes leave it. An analytic
    jacobian of the raw evaluator takes precedence over finite differences.
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
            self.regular_value = x0 / np.linalg.norm(x0)


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
    differences of w (jacobian_fd).
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
    basis, _ = _mgs([x0, *np.eye(x0.size)], 1e-8, drop_dependent=True)
    return np.vstack(basis[1 : target_dim + 1])


class _TracedSystem:
    """Residual/Jacobian pair whose zero set is the traced curve.

    raw_jacobian(p) is the derivative of the caller's map (its analytic
    Jacobian, else central differences), noted as one jacobian_evaluation;
    every derivative of the map the tracer takes goes through it.
    assemble(p, raw) builds the system Jacobian from it. basis is the
    target_basis the residual is projected onto for sphere targets, None for
    R^n targets.
    """

    def __init__(self, residual, raw_jacobian, assemble, dimension, basis):
        self.residual = residual
        self.raw_jacobian = raw_jacobian
        self.assemble = assemble
        self.dimension = dimension
        self.basis = basis

    def jacobian(self, p: np.ndarray) -> np.ndarray:
        return self.assemble(p, self.raw_jacobian(p))


def _counted(raw_jac):
    def raw_jacobian(p):
        _note_add("jacobian_evaluations", 1)
        return np.asarray(raw_jac(p), dtype=float)

    return raw_jacobian


def _map_system(spec: MapSpec) -> _TracedSystem:
    raw_jacobian = _counted(spec.jacobian or (lambda p: jacobian_fd(spec.evaluator, p)))
    basis = None
    if spec.target == "sphere":
        x0 = spec.regular_value
        basis = target_basis(spec, x0.size - 1)

        def f_target(p):
            return basis @ (np.asarray(spec.evaluator(p), dtype=float) - x0)

        def j_target(raw):
            return basis @ raw

    else:

        def f_target(p):
            return np.asarray(spec.evaluator(p), dtype=float)

        def j_target(raw):
            return raw

    if spec.domain == "unit_sphere":

        def residual(p):
            return np.concatenate([f_target(p), [(p @ p - 1.0) / 2.0]])

        def assemble(p, raw):
            return np.vstack([j_target(raw), p])

    else:
        residual = f_target

        def assemble(p, raw):
            return j_target(raw)

    return _TracedSystem(residual, raw_jacobian, assemble, spec.dimension, basis)


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


# The Newton step drops singular values of the system Jacobian below this
# fraction of the largest. Central differences (jacobian_fd) are exact to
# about 1e-10 relative, so a system that is rank deficient by construction
# (a section's is 7 x 6 of rank 5) keeps a noise singular value near 1e-12,
# which lstsq's default cutoff of a few machine epsilons would invert into
# a huge step.
_NEWTON_RCOND = 1e-8


def _newton(
    system: _TracedSystem,
    start: np.ndarray,
    tol: Tolerances,
    max_iter: int = 12,
    max_move: float | None = None,
):
    """Gauss-Newton correction onto the solution set; returns (point, residual).

    max_move bounds the total correction distance; it turns the correction
    into a local operation so that seeds far from the solution set fail
    instead of wandering onto an arbitrary component. A non-finite Jacobian
    is an EvaluationFailure. Notes newton_calls and, per correction step,
    newton_iterations.
    """
    _note_add("newton_calls", 1)
    p = np.asarray(start, dtype=float).copy()
    scale = 1.0 + _norm(p)
    budget = 10.0 * scale if max_move is None else max_move
    moved = 0.0
    for _ in range(max_iter):
        try:
            r = system.residual(p)
        except Exception as exc:  # noqa: BLE001
            raise EvaluationFailure("map evaluation failed during correction") from exc
        rn = _norm(r)
        if rn < tol.newton_tol:
            return p, rn
        J = system.jacobian(p)
        if not np.all(np.isfinite(J)):
            raise EvaluationFailure("non-finite Jacobian during correction")
        _note_add("newton_iterations", 1)
        step, *_ = np.linalg.lstsq(J, -r, rcond=_NEWTON_RCOND)
        sn = _norm(step)
        if not np.isfinite(sn) or sn > 2.0 * scale:
            raise NoConvergence("correction step diverged")
        p = p + step
        moved += sn
        if moved > budget:
            raise NoConvergence("correction wandered too far from the start point")
    rn = _norm(system.residual(p))
    if rn < tol.newton_tol:
        return p, rn
    raise NoConvergence(f"corrector stalled at residual {rn:.3e}")


def _newton_aligned(system, start, anchor, direction, tol):
    """Newton correction onto the curve intersected with a transverse hyperplane."""

    def residual(p):
        return np.concatenate([system.residual(p), [(p - anchor) @ direction]])

    def assemble(p, raw):
        return np.vstack([system.assemble(p, raw), direction])

    aligned = _TracedSystem(residual, system.raw_jacobian, assemble, system.dimension, system.basis)
    return _newton(aligned, start, tol)


def _tangent_of(system: _TracedSystem, p: np.ndarray, previous, tol: Tolerances):
    """Unit kernel tangent at p, and the raw Jacobian it came from."""
    raw = system.raw_jacobian(p)
    J = system.assemble(p, raw)
    if not np.all(np.isfinite(J)):
        raise EvaluationFailure("non-finite Jacobian along the curve")
    try:
        return kernel_direction(J, previous, tol), raw
    except RankDeficient as exc:
        raise Singular("rank drop along the curve; transversality violated") from exc


def _trace(system: _TracedSystem, seed: np.ndarray, opts: TraceOptions):
    """The traced loop, its raw Jacobians, closure error and largest residual.

    The loop carries the unit kernel tangent found at each of its samples;
    the list holds the raw Jacobian (system.raw_jacobian) that tangent came
    from, one per sample.
    """
    tol = opts.tolerances
    seed = np.asarray(seed, dtype=float)
    if seed.size != system.dimension:
        raise ValueError(f"seed has dimension {seed.size}, expected {system.dimension}")
    # seeds must sit near their component: cap the correction distance
    p0, _ = _newton(system, seed, tol, max_move=max(8.0 * opts.initial_step, 0.25))
    t0, raw0 = _tangent_of(system, p0, None, tol)
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
            q, rn = _newton(system, predictor, tol, max_iter=8)
            ok = _norm(q - predictor) <= max(h, 1e3 * tol.newton_tol)
        except (NoConvergence, EvaluationFailure) as exc:
            q, rn, ok, failure = None, None, False, exc
        if ok:
            t_new, raw = _tangent_of(system, q, t, tol)
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
        p, t = q, t_new
        if _norm(q - predictor) < 0.1 * h:
            h = min(2.0 * h, opts.max_step)
    if closure_error is None:
        raise NotClosed(f"no closure within {opts.max_steps} steps")
    pts = np.asarray(points)

    def resample(t_val: float) -> np.ndarray:
        i, w = loop._segment(t_val)
        out, _ = _newton(system, (1.0 - w) * pts[i] + w * pts[(i + 1) % len(pts)], tol)
        return out

    loop = SampledLoop(pts, resample, SampledLoop(pts).arc_fractions(), np.asarray(tangents))
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

    The seed is Newton-corrected onto the solution set (NoConvergence when
    that fails); the curve is then walked with an Euler predictor along the
    Jacobian kernel and a Gauss-Newton corrector, halving the step on
    corrector failure and doubling it after easy steps, until the walk
    returns to the start point with an aligned tangent. The returned loop
    carries the unit kernel tangent of the Jacobian at every sample, as the
    walk found it (oriented along the walk), and resamples itself between
    samples by re-running the corrector. When a list is passed as
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
    All samples are solved at once: one batched QR of the transposed
    Jacobians J^T = Q R, then x = Q R^-T b from one batched solve with the
    lower-triangular R^T. Any |R_ii| below ortho_tol is Singular, and a
    non-finite Jacobian an EvaluationFailure, each naming the sample. The
    resampler runs the same solve at one point.

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
        rows, dim = J.shape[1:]
        if rows > dim:
            raise Singular(f"{rows} derivative rows cannot be independent in R^{dim}")
        Q, R = np.linalg.qr(J.transpose(0, 2, 1))
        diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
        low = np.flatnonzero(~np.all(diag >= DEFAULT_TOL.ortho_tol, axis=1))
        if low.size:
            k = low[0]
            raise Singular(
                f"rank drop of the map derivative along the curve at {where(k)} "
                f"(|R_ii| = {np.min(diag[k]):.3e})"
            )
        b = np.eye(rows) if rhs is None else rhs
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
    normals = [np.asarray(n(loop.points[k]), dtype=float) for n in ambient.manifold_normals]
    rows = normals + [middle, *framing.at_sample(k)]
    return float(np.linalg.det(np.vstack(rows)))


def _oriented(loop, framing, ambient):
    """Reverse a traced loop when its induced frame is left-handed."""
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


def kappa_of_map(
    spec: MapSpec, opts: TraceOptions, ambient: AmbientPresentation
) -> InvariantReport:
    """Trace all seeds, frame the preimage circles, and report their indices.

    Seeds whose correction fails to converge are skipped (an empty preimage
    contributes nothing); two seeds tracing one component raise
    DuplicateComponent. The report's odd-index component count mod 2 equals
    kappa by construction.
    """
    tol = opts.tolerances
    want_normals = 1 if spec.domain == "unit_sphere" else 0
    if len(ambient.manifold_normals) != want_normals or ambient.dimension != spec.dimension:
        raise AmbientMismatch("ambient presentation does not match the map's domain")
    with recording() as record:
        traced = []
        for seed in opts.seeds:
            jacobians: list = []
            try:
                loop = trace_component(spec, np.asarray(seed, dtype=float), opts, jacobians)
            except NoConvergence:
                _note_add("seeds_skipped", 1)
                continue
            traced.append((loop, jacobians))
        _check_distinct([loop for loop, _ in traced], tol)
        # the walk's Jacobians at the samples: each is evaluated once
        components = [
            _oriented(loop, induced_framing(spec, loop, jacobians=jacobians), ambient)
            for loop, jacobians in traced
        ]
        pairs = [
            (index_of_circle(loop, framing, ambient, tol), loop)
            for loop, framing in FramedLink(components, ambient).components
        ]
    return _report(pairs, ambient, tol, record, traced=True)


def transport_closed_frame(
    loop: SampledLoop,
    normals_of_M: Sequence[Callable[[np.ndarray], np.ndarray]],
    tol: Tolerances = DEFAULT_TOL,
) -> NormalFraming:
    """Closed orthonormal frame of the curve's normal space inside the manifold.

    The frame starts from coordinate projections, is carried along the loop
    by projection transport (project the previous frame onto the current
    normal space and re-orthonormalize), and is closed by distributing the
    inverse of the resulting holonomy along the loop via the principal
    logarithm of the holonomy rotation.
    """
    k = len(loop)
    dim = loop.dimension
    count = dim - len(normals_of_M) - 1
    if count < 1:
        raise ValueError("the curve has no normal directions inside the manifold")

    def normal_directions(candidates, p: np.ndarray, tangent: np.ndarray):
        """Orthonormal directions the candidates add to [normals of M, tangent]."""
        fixed = [np.asarray(n(p), dtype=float) for n in normals_of_M] + [tangent]
        basis, _ = _mgs([*fixed, *candidates], 1e-8, drop_dependent=True)
        return basis[len(fixed) :]

    def project(vecs: Sequence[np.ndarray], p: np.ndarray, tangent: np.ndarray):
        frame = normal_directions(vecs, p, tangent)
        if len(frame) != len(vecs):
            raise RankDeficient("normal space of the curve lost a dimension")
        return frame

    def initial_frame(p: np.ndarray, tangent: np.ndarray):
        frame = normal_directions(np.eye(dim), p, tangent)
        if len(frame) != count:
            raise RankDeficient("could not complete an initial normal frame")
        return frame

    raw = [initial_frame(loop.points[0], loop.tangent_at_sample(0))]
    for i in range(1, k):
        raw.append(project(raw[i - 1], loop.points[i], loop.tangent_at_sample(i)))
    closed = project(raw[-1], loop.points[0], loop.tangent_at_sample(0))
    H = np.array([[float(a @ b) for b in raw[0]] for a in closed])
    if np.linalg.det(H) < 0.0:
        raise RankDeficient("transport around the loop reversed orientation")
    blocks = _principal_log_blocks(H)
    resample = None
    if loop.resample is not None:

        def resample(t: float) -> np.ndarray:
            i, _ = loop._segment(t)
            return np.array(project(raw[i], loop.point(t), loop.tangent(t)))

    # unwrapped, so past the last sample raw[k - 1] meets the rotation near u = 1
    closing = lambda t: _rotation_power(blocks, -loop._unwrapped(t))  # noqa: E731
    return _recombined(NormalFraming(np.swapaxes(raw, 0, 1), resample), loop.params, closing)


# Eigenvalues of (H + H^T)/2 closer than this (about the square root of the
# machine epsilon) are one cluster; see _principal_log_blocks.
_COSINE_CLUSTER_TOL = 1e-8


def _principal_log_blocks(H: np.ndarray):
    """Rotation planes and angles in [0, pi] of an SO(n) matrix: its principal log.

    H is normal, so S = (H + H^T)/2 and K = (H - H^T)/2 commute (Golub and
    Van Loan, Matrix Computations, sections 7.4 and 8.1). S acts on each
    rotation plane as cos(theta), so the eigenspaces of S, clustered by
    eigenvalue, are invariant under K, which turns each of their planes a
    quarter turn and scales it by sin(theta). In every cluster, the direction
    u with the largest |K u| and its partner w, K u projected back into the
    cluster and normalized, span one plane, with angle atan2(w.Hu, u.Hu); K
    separates angles near 0 and pi that cos(theta) cannot. Directions where
    |K u| is at most 1e-10 are fixed or reversed, and reversed ones, paired
    since det H = 1, form pi-planes. Returns (Q, planes): Q orthogonal and
    planes (a, b, theta) indexing the columns of Q.
    """
    n = H.shape[0]
    K = (H - H.T) / 2.0
    cosines, V = np.linalg.eigh((H + H.T) / 2.0)
    columns: list[np.ndarray] = []
    planes = []
    start = 0
    for stop in range(1, n + 1):
        if stop < n and cosines[stop] - cosines[stop - 1] < _COSINE_CLUSTER_TOL:
            continue
        C = V[:, start:stop]
        while C.shape[1] > 1:
            Kc = C.T @ K @ C
            _, sing, vt = np.linalg.svd(Kc)
            if sing[0] <= 1e-10:
                break
            # complete QR of [a, Kc a]: the partner, orthogonal to a, and the
            # rest of the cluster in its last columns
            a = vt[0]
            Qc, _ = np.linalg.qr(np.column_stack([a, Kc @ a]), mode="complete")
            u, w = C @ Qc[:, 0], C @ Qc[:, 1]
            planes.append((len(columns), len(columns) + 1, math.atan2(w @ H @ u, u @ H @ u)))
            columns += [u, w]
            C = C @ Qc[:, 2:]
        if cosines[start] < 0.0:
            for j in range(0, C.shape[1] - 1, 2):
                planes.append((len(columns) + j, len(columns) + j + 1, math.pi))
        columns += list(C.T)
        start = stop
    return np.column_stack(columns), planes


def _rotation_power(blocks, power: float) -> np.ndarray:
    Q, planes = blocks
    B = np.eye(Q.shape[0])
    for (a, b, theta) in planes:
        c = math.cos(power * theta)
        s = math.sin(power * theta)
        B[a, a] = c
        B[b, b] = c
        B[b, a] = s
        B[a, b] = -s
    return Q @ B @ Q.T


def _check_section_invariants(spec: SectionSpec, loop: SampledLoop):
    stride = max(1, len(loop) // 16)
    for idx in range(0, len(loop), stride):
        x = loop.points[idx]
        v = np.asarray(spec.splitting_field(x), dtype=float)
        w = np.asarray(spec.section(x), dtype=float)
        if abs(float(v @ v) - 1.0) > 1e-8 or abs(float(v @ x)) > 1e-8:
            raise ValidationError("splitting field must be a unit tangent field of the sphere")
        if abs(float(w @ x)) > 1e-6 or abs(float(w @ v)) > 1e-6:
            raise ValidationError(
                "section values must be tangent and orthogonal to the splitting field"
            )


def _section_derivative_fields(
    spec: SectionSpec, system: _TracedSystem, loop: SampledLoop, aux: NormalFraming
) -> NormalFraming:
    """dw applied to the auxiliary frame, projected into the bundle fibers.

    The section's Jacobian comes from system.raw_jacobian, one per point.
    """

    def tau_at(x: np.ndarray, U: np.ndarray) -> np.ndarray:
        v = np.asarray(spec.splitting_field(x), dtype=float)
        D = U @ system.raw_jacobian(x).T
        # at zeros of the section the covariant derivative is the plain
        # directional derivative projected into the fiber
        return D - np.outer(D @ x, x) - np.outer(D @ v, v)

    stacked = np.array([tau_at(loop.points[i], aux.at_sample(i)) for i in range(len(loop))])
    resample = None
    if loop.resample is not None and aux.resample is not None:
        resample = lambda t: tau_at(loop.point(t), aux.at(t))  # noqa: E731
    return NormalFraming(stacked.transpose(1, 0, 2), resample)


def _component_section_index(spec, system, loop, ambient, tol, aux_twist_turns):
    def v_of(p: np.ndarray) -> np.ndarray:
        return np.asarray(spec.splitting_field(p), dtype=float)

    aux = transport_closed_frame(loop, ambient.manifold_normals, tol)
    if aux_twist_turns:
        aux = twist_framing(loop, aux, aux_twist_turns)
    tau = _section_derivative_fields(spec, system, loop, aux)
    try:
        orthonormalize(tau.at_sample(0), tol)
    except RankDeficient as exc:
        raise NonTransverse("section derivative degenerates on the normal space") from exc
    if _frame_det(loop, v_of(loop.points[0]), tau, ambient, 0) < 0.0:
        flip = np.diag([-1.0] + [1.0] * (aux.count - 1))
        aux = _recombined(aux, loop.params, lambda t: flip)
        tau = _recombined(tau, loop.params, lambda t: flip)
    # Normal spaces do not depend on the direction of travel, and reversal
    # keeps sample 0, so the reversed frames keep term 2's sign at sample 0.
    if _frame_det(loop, loop.tangent_at_sample(0), aux, ambient, 0) < 0.0:
        loop, aux, tau = loop.reversed(), aux.reversed(), tau.reversed()
    term1 = frame_matrix_loop(loop, aux, ambient, tol)
    term2 = frame_matrix_loop(loop, tau, ambient, tol, middle=v_of)
    return loop_class(term1, tol) ^ loop_class(term2, tol) ^ Z2(1)


def section_zero_loops(spec: SectionSpec, opts: TraceOptions) -> list[SampledLoop]:
    """Traced zero circles of the section, one per converging seed.

    Seeds whose correction diverges are skipped (noted as seeds_skipped);
    seeds reaching one component twice raise DuplicateComponent.
    """
    system = _map_system(_section_map(spec))
    loops = []
    for seed in opts.seeds:
        try:
            loop, _, closure_error, residual = _trace(system, np.asarray(seed, dtype=float), opts)
        except NoConvergence:
            _note_add("seeds_skipped", 1)
            continue
        _note_append("closure_errors", closure_error)
        _note_max("max_residual", residual)
        loops.append(loop)
    _check_distinct(loops, opts.tolerances)
    return loops


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
    system = _map_system(_section_map(spec))
    with recording() as record:
        pairs = []
        for loop in section_zero_loops(spec, opts):
            _check_section_invariants(spec, loop)
            bit = _component_section_index(spec, system, loop, ambient, tol, aux_twist_turns)
            pairs.append((bit, loop))
    return _report(pairs, ambient, tol, record, traced=True)


def write_loop_csv(loop: SampledLoop, path: str):
    """One row per sample: parameter, then the point coordinates."""
    with open(path, "w", encoding="utf-8") as fh:
        cols = ",".join(f"x{i}" for i in range(loop.dimension))
        fh.write(f"t,{cols}\n")
        for t, p in zip(loop.params, loop.points):
            coords = ",".join(repr(float(c)) for c in p)
            fh.write(f"{t!r},{coords}\n")
