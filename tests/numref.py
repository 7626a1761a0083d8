"""One-system linear algebra, kept as a reference for fbk's batched solves.

least_squares solves one minimum-norm system A x = b by its own
Gram-Schmidt factorization, one row and one right-hand side at a time,
where fbk.tracer.induced_framing solves a whole loop's systems with one
batched QR; the tests compare the two.
"""

from __future__ import annotations

import numpy as np

from fbk.errors import EvaluationFailure, RankDeficient
from fbk.numkit import DEFAULT_TOL, Tolerances


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
