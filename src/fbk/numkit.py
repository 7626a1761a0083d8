"""Small dense linear algebra used everywhere else.

Everything here works on plain float64 numpy arrays (1-d vectors, 2-d
matrices) at desk scale (dimension <= 12). orthonormalize, which frame
assembly uses, takes one ordered vector set or a stack of them and runs one
batched Householder QR (Golub-Van Loan, Matrix Computations, 5.2), with
the signs fixed so that diag(R) > 0. `_mgs` is the Gram-Schmidt for the
one-off factorizations: modified Gram-Schmidt with one re-orthogonalization
pass, which is plenty stable at these sizes. least_squares and
kernel_direction are built on it; the tracer's target_basis and
transport_closed_frame call it directly with their own 1e-8 threshold.
The tracer's induced framing solves a whole loop's minimum-norm systems with
one batched QR of its own; least_squares is the one-system form.
Every rank decision compares a residual norm (|R_ii| for the QR) with a
tolerance. Non-finite input is an EvaluationFailure; a wrong shape stays a
ValueError.

The tracer calls kernel_direction and jacobian_fd at every step of its
walk, so both avoid per-call overhead without changing one rounding:
kernel_direction completes the row basis by projecting exactly only the
coordinate directions whose estimated residual, 1 - sum_j basis[j][i]^2,
is within 1e-9 of the largest (the winner is always among them), and
_norm is np.linalg.norm's own sqrt(x @ x) without its dispatch. The dot
products stay one 1-d `q @ w` at a time: the BLAS dot rounds differently
from a matrix-vector product, einsum or a row sum (it fuses multiply-adds
even at length 2), so a vectorized projection would move the bits of every
traced sample.

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

from .errors import EvaluationFailure, RankDeficient


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
            if not getattr(self, f.name) > 0.0:
                raise ValueError(f"{f.name} must be strictly positive")
        if not self.lift_angle_max < math.pi / 2:
            raise ValueError("lift_angle_max must be below pi/2")


DEFAULT_TOL = Tolerances()

# The dicts of the open recording scopes, innermost last.
_SCOPES: ContextVar[tuple[dict, ...]] = ContextVar("fbk_recording_scopes", default=())


@contextmanager
def recording() -> Iterator[dict]:
    """Collect the diagnostics noted inside the block into the yielded dict.

    Keys appear only when something notes them: refinement_depth (deepest
    lift refinement) and lift_steps (lifted steps) from every loop_class
    call; frames_assembled (frames built by frame_matrix_loop, its refiner
    included); closure_errors (a list) and max_residual from every traced
    component that is kept; seeds_skipped from seeds whose trace did not
    converge. Three work counters come from the tracer: newton_calls
    (Newton corrections started), newton_iterations (their correction
    steps) and jacobian_evaluations (evaluations of a map's or section's
    Jacobian at one point, analytic or by finite differences: one per
    correction step and one at every corrected point where the walk takes
    the tangent; kappa_of_map pulls its framing back through the ones taken
    at the samples, while induced_framing on its own evaluates one per
    sample; section_index evaluates the section's Jacobian once more at
    every sample of a zero circle for dw, and those count too). Scopes
    nest, and a note reaches every open one.
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

    np.linalg.norm returns sqrt(x @ x) of x = v.ravel(order="K"), a
    contiguous copy when v is strided; the copy matters, because BLAS sums
    a strided dot in another order.
    """
    if not v.flags.c_contiguous:
        v = v.ravel(order="K")
    return math.sqrt(float(v @ v))


def _mgs(vectors: Sequence[np.ndarray] | np.ndarray, tol: float, drop_dependent: bool = False):
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    vectors is a sequence of equal-length 1-d vectors or a 2-d array of
    rows; the stack is validated once. Returns (basis, coeffs) where
    basis[j] are orthonormal and vectors[i] = sum_j coeffs[i][j] * basis[j]
    for every input i that produced a basis vector. Dependent inputs either
    raise RankDeficient or, with drop_dependent, are skipped (their
    coefficient rows are still recorded).
    """
    try:
        V = np.array(vectors, dtype=float)
    except ValueError as exc:
        raise ValueError("vectors must share one dimension") from exc
    if V.ndim != 2 or V.shape[1] < 1:
        raise ValueError("expected a stack of 1-d vectors")
    _require_finite(V)
    count, dim = V.shape
    if count > dim and not drop_dependent:
        raise RankDeficient(f"{count} vectors cannot be independent in R^{dim}")
    basis: list[np.ndarray] = []
    coeffs: list[list[float]] = []
    for i in range(count):
        w = V[i]  # a row of the private copy, safe to update in place
        row = [0.0] * len(basis)
        for _pass in range(2):
            for j, q in enumerate(basis):
                c = float(q @ w)
                w -= c * q
                row[j] += c
        r = _norm(w)
        coeffs.append(row)
        if r < tol:
            if drop_dependent:
                continue
            raise RankDeficient(
                f"vector {i} is dependent on its predecessors (residual {r:.3e})"
            )
        basis.append(w / r)
        row.append(r)
    return basis, coeffs


def orthonormalize(vectors, tol: Tolerances = DEFAULT_TOL):
    """Orthonormalize ordered vector sets, preserving order and orientation.

    vectors is one set (a sequence of equal-length vectors or a (c, N)
    array), for which a list of c orthonormal vectors is returned, or a
    (K, c, N) stack of sets, for which a (K, c, N) array is returned. All
    sets are factored by one batched QR of the transposed stack, and each
    column of Q is flipped so that diag(R) > 0: each output keeps a
    positive inner product with its input after the preceding directions
    are projected out, as Gram-Schmidt gives. Raises RankDeficient when
    some |R_ii| drops below ortho_tol; for a stack, the message names the
    first failing set and its index is the exception's `index`.
    """
    if len(vectors) == 0:
        return []
    try:
        V = np.array(vectors, dtype=float)
    except ValueError as exc:
        raise ValueError("vectors must share one dimension") from exc
    single = V.ndim == 2
    if V.ndim not in (2, 3) or V.shape[-1] < 1:
        raise ValueError("expected a vector set or a stack of vector sets")
    _require_finite(V)
    count, dim = V.shape[-2:]
    if count > dim:
        raise RankDeficient(f"{count} vectors cannot be independent in R^{dim}")
    stack = V[None] if single else V
    Q, R = np.linalg.qr(stack.transpose(0, 2, 1))
    diag = np.diagonal(R, axis1=1, axis2=2)
    dependent = np.abs(diag) < tol.ortho_tol
    if dependent.any():
        k, i = np.argwhere(dependent)[0]
        which = f"vector {i}" if single else f"vector {i} of set {k}"
        raise RankDeficient(
            f"{which} is dependent on its predecessors (residual {abs(diag[k, i]):.3e})",
            index=None if single else int(k),
        )
    basis = (Q * np.sign(diag)[:, None, :]).transpose(0, 2, 1)
    return list(basis[0]) if single else basis


def least_squares(A: np.ndarray, b: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Minimum-norm solution of A x = b for a full-row-rank A.

    Uses the Gram-Schmidt factorization A = L Q (L lower triangular, Q rows
    orthonormal): forward-substitute L c = b, then x = Q^T c, which lies in
    the row space and therefore has minimal norm. Raises RankDeficient when
    the rows are dependent within ortho_tol.
    """
    A = np.asarray(A, dtype=float)
    b = _as_vec(b)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    k, _ = A.shape
    if b.size != k:
        raise ValueError("right-hand side length must match the row count")
    basis, coeffs = _mgs(A, tol.ortho_tol)
    c = np.zeros(k)
    for i in range(k):
        s = b[i] - sum(coeffs[i][j] * c[j] for j in range(len(coeffs[i]) - 1))
        c[i] = s / coeffs[i][-1]
    x = np.zeros(A.shape[1])
    for j, q in enumerate(basis):
        x += c[j] * q
    return x


# Estimated squared residuals within this of the largest one are projected
# exactly by kernel_direction. The estimates are off by a few ulps of 1 for
# an orthonormal basis, far inside the window, so the exact winner is never
# pruned.
_COMPLETION_WINDOW = 1e-9


def kernel_direction(
    J: np.ndarray,
    previous: np.ndarray | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Unit vector spanning the one-dimensional kernel of J.

    Rows of J may be dependent (they are dropped); the kernel must end up
    one-dimensional or RankDeficient is raised. The sign follows `previous`
    when given, otherwise the first coordinate larger than ortho_tol in
    magnitude is made positive.
    """
    J = np.asarray(J, dtype=float)
    if J.ndim != 2:
        raise ValueError("J must be a matrix")
    n = J.shape[1]
    basis, _ = _mgs(J, tol.ortho_tol, drop_dependent=True)
    rank = len(basis)
    if n - rank != 1:
        raise RankDeficient(f"kernel dimension is {n - rank}, expected 1")
    # Complete the row basis with the coordinate direction of largest
    # residual, the best-conditioned completion. Only the directions whose
    # estimated residual (squared) is within _COMPLETION_WINDOW of the
    # largest are projected exactly; the first one with the largest exact
    # residual wins, as if every direction had been projected.
    B = np.array(basis).reshape(rank, n)
    estimate = 1.0 - np.einsum("ji,ji->i", B, B)
    best = None
    best_norm = 0.0
    for i in np.flatnonzero(estimate >= estimate.max() - _COMPLETION_WINDOW):
        w = np.zeros(n)
        w[i] = 1.0
        for _pass in range(2):
            for q in basis:
                w -= (q @ w) * q
        r = _norm(w)
        if r > best_norm:
            best_norm = r
            best = w
    t = best / best_norm
    if previous is not None:
        prev = _as_vec(previous)
        d = float(t @ prev)
        if d < 0.0:
            t = -t
        if d != 0.0:
            return t
    for x in t:
        if abs(x) > tol.ortho_tol:
            if x < 0.0:
                t = -t
            break
    return t


def jacobian_fd(
    f: Callable[[np.ndarray], np.ndarray],
    p: np.ndarray,
    h: float | None = None,
) -> np.ndarray:
    """Central-difference Jacobian of f at p; entry (i, j) = df_i/dx_j.

    The default step is 1e-6 * (1 + |p|). Analytic Jacobians, when a caller
    has them, should be preferred; this is the fallback. f is evaluated at
    the rows of p + h I, then of p - h I. The result is C-contiguous: it
    feeds _mgs, whose dot products round by memory layout. A non-finite p,
    or an f that raises, is an EvaluationFailure.
    """
    p = _as_vec(p)
    if h is None:
        h = 1e-6 * (1.0 + _norm(p))
    if not h > 0.0:
        raise ValueError("step h must be positive")
    steps = h * np.eye(p.size)
    try:
        fp = np.array([f(x) for x in p + steps], dtype=float)
        fm = np.array([f(x) for x in p - steps], dtype=float)
    except Exception as exc:  # noqa: BLE001 - wrap into a typed failure
        raise EvaluationFailure(f"map evaluation failed near {p!r}") from exc
    # row j holds column j of the Jacobian
    columns = ((fp - fm) / (2.0 * h)).reshape(p.size, -1)
    return np.ascontiguousarray(columns.T)
