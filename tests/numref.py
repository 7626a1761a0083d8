"""One-system linear algebra, kept as a reference for fbk's factorizations.

least_squares solves one minimum-norm system A x = b by its own
Gram-Schmidt factorization, one row and one right-hand side at a time,
where fbk.tracer.induced_framing solves a whole loop's systems with one
batched QR and the tracer's Newton step takes a truncated SVD.
kernel_direction finds the kernel of an (n - 1) x n system by
Gram-Schmidt and a coordinate completion, where the tracer takes the last
right singular vector. The tests compare each pair.
"""

from __future__ import annotations

import numpy as np

from fbk.errors import EvaluationFailure, RankDeficient
from fbk.numkit import DEFAULT_TOL, Tolerances, _mgs


def _finite(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    if not np.isfinite(a).all():
        raise EvaluationFailure("input has non-finite entries")
    return a


def gram_schmidt_lq(A: np.ndarray, tol: float):
    """A = L Q by modified Gram-Schmidt with one re-orthogonalization pass.

    Returns (Q, L): the rows of Q are orthonormal and L is lower triangular
    with a positive diagonal. A row whose residual is below tol is
    RankDeficient.
    """
    rows, dim = A.shape
    Q = np.zeros((rows, dim))
    L = np.zeros((rows, rows))
    for i in range(rows):
        w = A[i].copy()
        for _pass in range(2):
            for j in range(i):
                c = float(Q[j] @ w)
                w -= c * Q[j]
                L[i, j] += c
        r = float(np.linalg.norm(w))
        if r < tol:
            raise RankDeficient(f"row {i} is dependent on its predecessors (residual {r:.3e})")
        Q[i] = w / r
        L[i, i] = r
    return Q, L


def least_squares(A, b, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Minimum-norm solution of A x = b for a full-row-rank A.

    With A = L Q, forward-substitute L c = b, then x = Q^T c, which lies in
    the row space and therefore has minimal norm. Raises RankDeficient when
    the rows are dependent within ortho_tol, EvaluationFailure on
    non-finite input and ValueError on mismatched shapes.
    """
    A = _finite(A)
    b = _finite(b)
    if A.ndim != 2 or b.ndim != 1:
        raise ValueError("A must be a matrix and b a vector")
    if b.size != A.shape[0]:
        raise ValueError("right-hand side length must match the row count")
    Q, L = gram_schmidt_lq(A, tol.ortho_tol)
    c = np.zeros(len(b))
    for i in range(len(b)):
        c[i] = (b[i] - L[i, :i] @ c[:i]) / L[i, i]
    return Q.T @ c


def kernel_direction(J, previous=None, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Unit vector spanning the one-dimensional kernel of J.

    The rows of J are orthonormalized by Gram-Schmidt, dropping the ones
    whose residual is below ortho_tol; the kernel must end up
    one-dimensional, else RankDeficient. The row basis is completed by
    projecting every coordinate direction in turn, and the first with the
    largest residual gives the kernel. Its sign follows previous when given
    and not orthogonal to it, otherwise the first entry larger than
    ortho_tol in magnitude is made positive. Non-finite input is an
    EvaluationFailure, a J that is not a matrix a ValueError.
    """
    J = np.asarray(J, dtype=float)
    if J.ndim != 2:
        raise ValueError("J must be a matrix")
    n = J.shape[1]
    basis = _mgs(J, tol.ortho_tol)
    if n - len(basis) != 1:
        raise RankDeficient(f"kernel dimension is {n - len(basis)}, expected 1")
    best, best_norm = None, 0.0
    for i in range(n):
        w = np.zeros(n)
        w[i] = 1.0
        for _pass in range(2):
            for q in basis:
                w -= (q @ w) * q
        r = float(np.linalg.norm(w))
        if r > best_norm:
            best, best_norm = w, r
    t = best / best_norm
    d = 0.0 if previous is None else float(t @ _finite(previous))
    if d == 0.0:
        d = t[np.abs(t) > tol.ortho_tol][0]
    return -t if d < 0.0 else t
