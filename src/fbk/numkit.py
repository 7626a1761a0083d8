"""Small dense linear algebra used everywhere else.

Everything here works on plain float64 numpy arrays (1-d vectors, 2-d
matrices) at desk scale (dimension <= 12). There is one factorization of
each kind. `_qr` is the batched Householder QR (Golub-Van Loan, Matrix
Computations, 5.2) of a (K, c, N) stack of ordered vector sets, with the
signs fixed so that diag(R) > 0, the orientation of square sets, and one
rank rule, |R_ii| >= ortho_tol, whose failure it returns as a value: frame
assembly takes its Q and orientation, orthonormalize its Q, the tracer's
induced framing solves a whole loop's minimum-norm systems with its Q and
R, and its transported normal frame is one batched `_qr` of a chain of
projected frames (the whole loop, unless the loop turns sharply). `_mgs`
is the Gram-Schmidt for the one-off bases: modified Gram-Schmidt with one
re-orthogonalization pass, which is plenty stable at these sizes, skipping
dependent inputs; only the tracer's target_basis and the transported
frame's initial coordinate completion call it, with their own 1e-8
threshold. (The tracer's walk factors its Jacobians by `_svd`, with its own
relative rank cut, and its Newton corrector keeps one factorization as a
chord while its steps contract, so a walk correction factors a Jacobian
of its own only where the chord contracts slowly.)
Every rank decision here compares a residual norm (|R_ii| for the QR) with
a tolerance. Non-finite input is an EvaluationFailure; a wrong shape stays
a ValueError.

The geometry callbacks (manifold normals, resamplers of loops and of
framings, splitting and framing fields, frame_matrix_loop's middle row,
refiners) follow one calling convention, as scipy.integrate.solve_ivp's
`vectorized=True` does: a callback declared with `stacked` takes a (K, N)
stack of points, or a (K,) array of params, and returns K values; any
other is called input by input by `_called`, the only place that loops
over inputs to call one. fbk's own resamplers and refiners are stacked.

The tracer calls jacobian_fd at every Jacobian of a walk whose map has no
analytic Jacobian (and once per seed of one that has, to check it), _norm
at every residual and _svd at every Jacobian it factors, so these avoid
per-call overhead without changing one rounding: _norm is np.linalg.norm's
own sqrt(x.dot(x)) without its dispatch (the corrector takes the same dot
itself on its own contiguous iterate and steps, which need no layout
check), and _row_norms is the same per row of a stack. The walk's other
per-point vector and matrix-vector products are ndarray.dot calls too,
not the @ operator: on its operands of 3 to 12 entries the matmul ufunc's
dispatch costs about as much again as the BLAS call (on a 2-core Xeon VM
700 ns for p @ p against 400 ns for p.dot(p)), and .dot makes the same
BLAS call with the same bits, which the tests pin at every such site.
The exception is the U[:, :rank].T @ r of the tracer's chord step: on
that transposed view, where the rank is cut, .dot takes another BLAS
route and rounds differently. So does a 1-d .dot of a reversed view,
which the walk's fresh contiguous vectors never are. Batched (3-d)
products stay matmuls. _svd and _qr call the LAPACK gufuncs of
np.linalg.svd and np.linalg.qr on the same inputs, without those
wrappers' dispatch (on a 2-core Xeon VM, 4-6 us of the
16-23 us np.linalg.svd takes on a 3 x 4 to 7 x 6 matrix), and _qr keeps
the Householder scalars tau that np.linalg.qr drops: each reflector
I - tau v v^T of LAPACK's dgeqrf is the identity when tau = 0 and has
determinant -1 otherwise (LAPACK Users' Guide, 3rd ed., on elementary
reflectors), so the orientation of a square set is a parity and needs no
determinant. jacobian_fd calls f once per row of one (2N, N) stack of
perturbations, p + h I on top of p - h I, and makes one array of the 2N
values. The traced map stays a per-point callable because the walk
evaluates its residual one point at a time: on a 2-core Xeon VM a
stacked suspended-Hopf map cost 54 us at K = 1 against 12 us per point,
and stacking jacobian_fd saved 0.05 s per 3 scenarios rounds while the
residual lost 0.11 s. The dot products of
_mgs stay one 1-d `q @ w` at a time: the BLAS dot rounds differently from
a matrix-vector product, einsum or a row sum (it fuses multiply-adds even
at length 2), so a vectorized projection would move the bits of the two
bases _mgs builds. The transported frame's projections are matrix
products; its frames agree with per-sample Gram-Schmidt to rounding, not
bit for bit, and drop out of every reported bit.

recording() is the package's one diagnostics path: _note_max, _note_add
and _note_append write a value into every open recording scope and do
nothing when none is open. The report builders open one around their work.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import EvaluationFailure, RankDeficient


def _gufunc_pair(name: str, wide: str, other: str) -> tuple:
    """numpy's LAPACK gufunc for wide matrices and for the others, as numpy.linalg picks them.

    numpy 2 has one gufunc, `name`, for both; numpy 1.x has `wide` for an
    (m, n) matrix with m < n (m <= n for the QR) and `other` for the rest.
    """
    if hasattr(_umath_linalg, name):
        return (getattr(_umath_linalg, name),) * 2
    return getattr(_umath_linalg, wide), getattr(_umath_linalg, other)


# np.linalg.svd's gufunc for full matrices, and the first stage of np.linalg.qr
_SVD_GUFUNCS = _gufunc_pair("svd_f", "svd_m_f", "svd_n_f")
_QR_RAW_GUFUNCS = _gufunc_pair("qr_r_raw", "qr_r_raw_m", "qr_r_raw_n")


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by the whole pipeline.

    ortho_tol: residual norm below which a vector counts as dependent.
    newton_tol: corrector residual accepted as "on the solution set".
    closure_tol: distance at which a traced loop counts as closed.
    lift_angle_max: largest per-step rotation angle accepted while lifting.
    """

    ortho_tol: float = 1e-10
    newton_tol: float = 1e-10
    closure_tol: float = 1e-6
    lift_angle_max: float = math.pi / 4

    def __post_init__(self):
        for f in fields(self):
            if not 0.0 < getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be strictly positive and finite")
        if not self.lift_angle_max < math.pi / 2:
            raise ValueError("lift_angle_max must be below pi/2")


DEFAULT_TOL = Tolerances()

# The dicts of the open recording scopes, innermost last.
_SCOPES: ContextVar[tuple[dict, ...]] = ContextVar("fbk_recording_scopes", default=())


@contextmanager
def recording() -> Iterator[dict]:
    """Collect the diagnostics noted inside the block into the yielded dict.

    Keys appear only when something notes them: refinement_depth (deepest
    lift refinement) and lift_steps (lifted steps), noted once per loop
    when its refinement is done (a refinement that fails notes neither);
    frames_assembled (the frames of frame_matrix_loop and of the reports'
    components, their refiners included); closure_errors (a list) and max_residual from every traced
    component that is kept; seeds_skipped from seeds whose trace did not
    converge. Four work counters come from the tracer: newton_calls
    (Newton corrections started), newton_iterations (their correction
    steps), jacobian_evaluations (evaluations of a map's or section's
    Jacobian at one point, analytic or by finite differences: one at every
    corrected point where the walk takes the tangent, one where a Newton
    correction starts without a factorization in hand, and one at every
    refresh, where a correction step shrank the residual by less than the
    chord's contraction factor. A walk correction starts from the
    factorization of the last accepted point, so an accepted point whose
    chord steps all contract costs one. A traced loop carries the ones of
    its tangents: the pull-back and dw take the walk's at the samples, and
    a resampled point's tangent, pull-back and dw share one; on a loop not
    traced from their spec, they evaluate one per point) and
    jacobian_checks (the analytic Jacobians compared with central
    differences, one per traced seed of a map or section that has one; they
    are not jacobian_evaluations). disjoint_pairs counts the candidate
    segment pairs of a link's disjointness check. Scopes nest, and a note
    reaches every open one.

    A report that fails notes the work of its components up to the failing
    one, as running them one after another would, with one exception. Its
    lift refines every loop, in order up to the first that cannot be
    refined, before it tests any loop's signs. So when a component fails
    after its refinement (its lift's sign test, or its spin twist), the
    refinement of the loops after it is noted too: their lift_steps and
    refinement_depth, and the frames and Jacobian evaluations their
    refiners note.
    """
    record: dict = {}
    token = _SCOPES.set(_SCOPES.get() + (record,))
    try:
        yield record
    finally:
        _SCOPES.reset(token)


def _note_max(key: str, value) -> None:
    for record in _SCOPES.get():
        record[key] = max(record[key], value) if key in record else value


def _note_add(key: str, value: int) -> None:
    for record in _SCOPES.get():
        record[key] = record.get(key, 0) + value


def _note_append(key: str, value) -> None:
    for record in _SCOPES.get():
        record.setdefault(key, []).append(value)


def _as_vec(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim != 1 or a.size < 1:
        raise ValueError("expected a 1-d vector")
    _require_finite(a)
    return a


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise EvaluationFailure("vector has non-finite entries")


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-d float vector, bit for bit np.linalg.norm(v).

    np.linalg.norm returns sqrt(x.dot(x)) of x = v.ravel(order="K"), a
    contiguous copy when v is strided; the copy matters, because BLAS sums
    a strided dot in another order.
    """
    if not v.flags.c_contiguous:
        v = v.ravel(order="K")
    return math.sqrt(float(v.dot(v)))


def _row_norms(V: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a (K, N) float stack, each bit for bit _norm(row).

    The (1, N) @ (N, 1) products of the batched matmul are BLAS dots, as
    _norm's `v.dot(v)` is; a row sum or einsum would round differently. A
    single (N,) row gives its norm as a 0-d array.
    """
    V = np.ascontiguousarray(V)
    return np.sqrt((V[..., None, :] @ V[..., :, None])[..., 0, 0])


def stacked(fn):
    """Declare a geometry callback stack-native, and return it.

    A stack-native callback takes a (K, N) stack of points, or a (K,) array
    of params, and returns K values, value i at input i; fbk then calls it
    once per stack instead of once per input. fn must accept attributes,
    as functions and lambdas do.
    """
    fn.fbk_stacked = True
    return fn


def _one_or_stack(on_params):
    """on_params, which maps (K,) params to K values, `stacked` and also mapping one param."""

    def callback(ts):
        ts = np.asarray(ts, dtype=float)
        return on_params(ts) if ts.ndim else on_params(ts[None])[0]

    return stacked(callback)


def _called(fn, inputs: np.ndarray):
    """fn at (K, N) points or (K,) params: one call if `stacked`, else a list (params as floats)."""
    if getattr(fn, "fbk_stacked", False):
        return fn(inputs)
    return [fn(x) for x in (inputs.tolist() if inputs.ndim == 1 else inputs)]


def _on_stack(fn, inputs: np.ndarray, role: str, *shape: int) -> np.ndarray:
    """fn at every input, as one (K, *shape) float array.

    fn is _called on inputs. A result of any other shape is an
    EvaluationFailure naming role and the shapes (a fn called param by
    param: its values' shape and first param); nothing is broadcast.
    """
    values = _called(fn, inputs)
    try:
        out = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise EvaluationFailure(f"{role} returned values that are not one float array") from exc
    want = (len(inputs), *shape)
    if out.shape == want:
        return out
    if inputs.ndim == 1 and len(inputs) and not getattr(fn, "fbk_stacked", False):
        at = f"parameter {inputs[0]:.6f}"
        raise EvaluationFailure(f"{role} returned shape {out.shape[1:]} at {at}; expected {shape}")
    raise EvaluationFailure(
        f"{role} returned shape {out.shape} for inputs of shape {inputs.shape}; expected {want}"
    )


def _successors(a: np.ndarray) -> np.ndarray:
    """The rows of a cycled up by one, row k being a[k + 1] and the last a[0].

    np.roll(a, -1, axis=0) as one slice concatenation, which costs a fifth of it.
    """
    return np.concatenate((a[1:], a[:1]))


def _predecessors(a: np.ndarray) -> np.ndarray:
    """The rows of a cycled down by one: np.roll(a, 1, axis=0), row k being a[k - 1]."""
    return np.concatenate((a[-1:], a[:-1]))


def _values(outcome: tuple):
    """The values of a batched stage's (values, error or None) outcome; its error is raised."""
    values, failure = outcome
    if failure is not None:
        raise failure
    return values


def _mgs(vectors: Sequence[np.ndarray] | np.ndarray, tol: float) -> list[np.ndarray]:
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    vectors is a sequence of equal-length 1-d vectors or a 2-d array of
    rows; the stack is validated once. Returns the orthonormal basis the
    inputs span, in input order: an input whose residual after projection
    is below tol is dependent on its predecessors and skipped.
    """
    try:
        V = np.array(vectors, dtype=float)
    except ValueError as exc:
        raise ValueError("vectors must share one dimension") from exc
    if V.ndim != 2 or V.shape[1] < 1:
        raise ValueError("expected a stack of 1-d vectors")
    _require_finite(V)
    basis: list[np.ndarray] = []
    for w in V:  # rows of the private copy, safe to update in place
        for _pass in range(2):
            for q in basis:
                w -= float(q @ w) * q
        r = _norm(w)
        if r >= tol:
            basis.append(w / r)
    return basis


def _svd(J: np.ndarray) -> tuple:
    """U, S, Vt of the full SVD of a finite float matrix, bit for bit np.linalg.svd(J).

    The gufunc np.linalg.svd calls, under the same invalid-value trap: a
    LAPACK failure (an SVD that does not converge; a NaN entry makes one)
    is an EvaluationFailure naming the factorization.
    """
    try:
        with np.errstate(invalid="raise"):
            return _SVD_GUFUNCS[J.shape[0] >= J.shape[1]](J, signature="d->ddd")
    except FloatingPointError as exc:
        raise EvaluationFailure(
            f"the SVD of a {J.shape[0]} x {J.shape[1]} matrix failed in LAPACK"
        ) from exc


def _qr(stack: np.ndarray, tol: float, starts: Sequence[int] = (0,)) -> tuple:
    """Q (K, N, c), R (K, c, c), orientation and rank failure of the transposed (K, c, N) stack.

    Q and R are np.linalg.qr's of the transposed stack, bit for bit, with
    each column of Q and row of R flipped so that diag(R) > 0: column i of
    Q keeps a positive inner product with input i after the preceding
    directions are projected out, as Gram-Schmidt gives. The orientation
    is None unless the sets are square (c = N); then it is a (K,) bool
    array, True where det Q < 0: det Q = (-1)^(n + f), n the reflectors
    with tau != 0 and f the flipped columns. The failure is None, or the
    RankDeficient of the first set with some |R_ii| < tol, index its place
    in the stack and counted in its message from the last of starts at or
    before it; the sets before it keep their Q and R. When c > N it is the
    whole stack's, index 0, and Q and R hold no sets. A non-finite stack,
    or a failure inside LAPACK, is an EvaluationFailure.
    """
    _require_finite(stack)
    count, dim = stack.shape[1:]
    if count > dim:
        failure = RankDeficient(f"{count} vectors cannot be independent in R^{dim}", index=0)
        return np.empty((0, dim, count)), np.empty((0, count, count)), None, failure
    # qr_r_raw overwrites its input with R and the reflectors, so it gets
    # a private copy, laid out as np.linalg.qr lays out its own
    A = stack.transpose(0, 2, 1).copy(order="K")
    try:
        with np.errstate(invalid="raise"):
            tau = _QR_RAW_GUFUNCS[dim > count](A, signature="d->d")
            Q = _umath_linalg.qr_reduced(A, tau, signature="dd->d")
    except FloatingPointError as exc:
        raise EvaluationFailure(f"the QR of a {stack.shape} stack failed in LAPACK") from exc
    R = np.triu(A[:, :count, :])
    diag = np.diagonal(R, axis1=1, axis2=2)
    dependent = np.abs(diag) < tol
    failure = None
    if dependent.any():
        k, i = np.argwhere(dependent)[0]
        failure = RankDeficient(
            f"vector {i} of set {k - max(s for s in starts if s <= k)} is dependent on its "
            f"predecessors (residual {abs(diag[k, i]):.3e})",
            index=int(k),
        )
    sign = np.sign(diag)
    flipped = None
    if count == dim:
        parity = np.count_nonzero(tau, axis=1) + np.count_nonzero(sign < 0.0, axis=1)
        flipped = parity % 2 == 1
    # in place: Q and R are this call's own arrays, and a report's frame
    # stack makes them the largest temporaries of its assembly
    Q *= sign[:, None, :]
    R *= sign[:, :, None]
    return Q, R, flipped, failure


def _orthonormal_sets(V: np.ndarray, tol: float, starts: Sequence[int] = (0,)) -> tuple:
    """((sets, orientation), failure) of `_qr`: its Q as the (K, c, N) orthonormal sets of V."""
    Q, _, flipped, failure = _qr(V, tol, starts)
    return (Q.transpose(0, 2, 1), flipped), failure


def orthonormalize(vectors, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormalize a (K, c, N) stack of ordered vector sets, preserving order and orientation.

    Returns the (K, c, N) stack of orthonormal sets: the Q of `_qr`, whose
    rank rule raises RankDeficient naming the first failing set, which is
    also the exception's `index`.
    """
    V = np.asarray(vectors, dtype=float)
    if V.ndim != 3 or V.shape[-1] < 1:
        raise ValueError("expected a (sets, vectors, dimension) stack")
    return _values(_orthonormal_sets(V, tol.ortho_tol))[0]


def jacobian_fd(
    f: Callable[[np.ndarray], np.ndarray],
    p: np.ndarray,
    h: float | None = None,
) -> np.ndarray:
    """Central-difference Jacobian of f at p; entry (i, j) = df_i/dx_j.

    The default step is 1e-6 * (1 + |p|). Analytic Jacobians, when a caller
    has them, should be preferred; this is the fallback. f is evaluated at
    the 2N rows of one stack, p + h I on top of p - h I, in row order, and
    its values make one array. The result is C-contiguous, the layout of
    the arrays analytic Jacobians return. A non-finite p, or an f that
    raises, is an EvaluationFailure.
    """
    p = _as_vec(p)
    n = p.size
    if h is None:
        h = 1e-6 * (1.0 + _norm(p))
    if not h > 0.0:
        raise ValueError("step h must be positive")
    steps = h * np.eye(n)
    try:
        F = np.array([f(x) for x in np.concatenate((p + steps, p - steps))], dtype=float)
    except Exception as exc:  # noqa: BLE001 - wrap into a typed failure
        raise EvaluationFailure(f"map evaluation failed near {p!r}") from exc
    # row j holds column j of the Jacobian
    columns = ((F[:n] - F[n:]) / (2.0 * h)).reshape(n, -1)
    return np.ascontiguousarray(columns.T)
