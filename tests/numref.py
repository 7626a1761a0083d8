"""One-system linear algebra, kept as a reference for fbk's factorizations.

least_squares solves one minimum-norm system A x = b by its own
Gram-Schmidt factorization, one row and one right-hand side at a time,
where fbk.tracer.induced_framing solves a whole loop's systems with one
batched QR and the tracer's Newton step takes a truncated SVD.
kernel_direction finds the kernel of an (n - 1) x n system by
Gram-Schmidt and a coordinate completion, where the tracer takes the last
right singular vector. projection_transport carries a closed normal frame
around a loop by one Gram-Schmidt projection per sample, where
fbk.tracer.transport_closed_frame carries the unnormalized frame and
orthonormalizes the whole chain with one batched QR. check_disjoint
compares every sample with every segment of the other components, and
every segment with every other component's segments, where
fbk.framedlink._check_disjoint tests only the candidates of one
sort-and-sweep. three_point_tangents differentiates the Lagrange
quadratic through each sample and its neighbours by its own weights,
one sample at a time, where fbk.framedlink.SampledLoop takes a scaled
combination of the steps for all samples at once. The tests compare each
pair.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from fbk import tracer
from fbk.errors import EvaluationFailure, RankDeficient, ValidationError
from fbk.framedlink import _MIN_SEPARATION, NormalFraming, SampledLoop, _recombined
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


def projection_transport(
    loop: SampledLoop,
    normals_of_M: Sequence[Callable[[np.ndarray], np.ndarray]],
    tol: Tolerances = DEFAULT_TOL,
) -> NormalFraming:
    """Closed orthonormal frame of the curve's normal space inside the manifold.

    The frame starts from coordinate projections, is carried along the loop
    by projection transport (project the previous frame onto the current
    normal space and re-orthonormalize by Gram-Schmidt, one sample at a
    time), and is closed along the Givens factorization of the inverse of
    the resulting holonomy, as transport_closed_frame closes its frame. A
    projection that loses a dimension is RankDeficient, whose index is the
    sample (0 for the closing projection). The holonomy goes through
    tracer._givens_planes and the closing through tracer._givens_path, both
    looked up at call time.
    """
    k = len(loop)
    dim = loop.dimension
    count = dim - len(normals_of_M) - 1
    if count < 1:
        raise ValueError("the curve has no normal directions inside the manifold")

    def normal_directions(candidates, p: np.ndarray, tangent: np.ndarray):
        """Orthonormal directions the candidates add to [normals of M, tangent]."""
        fixed = [np.asarray(n(p), dtype=float) for n in normals_of_M] + [tangent]
        return _mgs([*fixed, *candidates], 1e-8)[len(fixed) :]

    def project(vecs: Sequence[np.ndarray], p: np.ndarray, tangent: np.ndarray, i=None):
        frame = normal_directions(vecs, p, tangent)
        if len(frame) != len(vecs):
            raise RankDeficient("normal space of the curve lost a dimension", index=i)
        return frame

    def initial_frame(p: np.ndarray, tangent: np.ndarray):
        frame = normal_directions(np.eye(dim), p, tangent)
        if len(frame) != count:
            raise RankDeficient("could not complete an initial normal frame")
        return frame

    raw = [initial_frame(loop.points[0], loop.tangent_at_sample(0))]
    for i in range(1, k):
        raw.append(project(raw[i - 1], loop.points[i], loop.tangent_at_sample(i), i))
    closed = project(raw[-1], loop.points[0], loop.tangent_at_sample(0), 0)
    H = np.array([[float(a @ b) for b in raw[0]] for a in closed])
    if np.linalg.det(H) < 0.0:
        raise RankDeficient("transport around the loop reversed orientation")
    planes = tracer._givens_planes(H)
    resample = None
    if loop.resample is not None:

        def resample(t: float) -> np.ndarray:
            i, _ = loop._segment(t)
            return np.array(project(raw[i], loop.point(t), loop.tangent(t)))

    def closing(ts: np.ndarray) -> np.ndarray:
        # u runs from 0 at sample 0 to 1 where the last segment meets it again
        return tracer._givens_path(planes, count, loop._unwrapped(ts) - loop.params[0])

    return _recombined(NormalFraming(np.swapaxes(raw, 0, 1), resample), loop.params, closing)


def three_point_tangents(points: np.ndarray) -> np.ndarray:
    """Unit tangents of a closed polygon at its samples, from the quadratic through three samples.

    At sample k, with a and b the lengths of the segments behind and ahead
    of it, the Lagrange quadratic through p(-a) = points[k - 1], p(0) =
    points[k] and p(b) = points[k + 1] has the derivative
    -b / (a (a + b)) p(-a) + (b - a) / (a b) p(0) + a / (b (a + b)) p(b)
    at 0, normalized here (Fornberg, Math. Comp. 51, 1988).
    """
    points = np.asarray(points, dtype=float)
    k = len(points)
    out = np.empty_like(points)
    for i in range(k):
        before, here, after = points[i - 1], points[i], points[(i + 1) % k]
        a = float(np.linalg.norm(here - before))
        b = float(np.linalg.norm(after - here))
        d = -b / (a * (a + b)) * before + (b - a) / (a * b) * here + a / (b * (a + b)) * after
        out[i] = d / np.linalg.norm(d)
    return out


def segment_distances(points: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
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


def segment_gaps(
    firsts: np.ndarray, lasts: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Distance from each segment [firsts[i], lasts[i]] to each [starts[j], ends[j]], as a matrix.

    The smallest of the four endpoint-to-segment distances and, where the
    stationary point of |firsts[i] + s u - starts[j] - t v|^2 has both
    parameters inside (0, 1), its distance, from the 2 x 2 normal
    equations by Cramer's rule.
    """
    best = np.minimum.reduce(
        [
            segment_distances(firsts, starts, ends),
            segment_distances(lasts, starts, ends),
            segment_distances(starts, firsts, lasts).T,
            segment_distances(ends, firsts, lasts).T,
        ]
    )
    u, v = lasts - firsts, ends - starts
    r = firsts[:, None] - starts[None]
    uu, vv, uv = np.einsum("in,in->i", u, u)[:, None], np.einsum("jn,jn->j", v, v), u @ v.T
    ur, vr = np.einsum("ijn,in->ij", r, u), np.einsum("ijn,jn->ij", r, v)
    det = uu * vv - uv * uv
    inside = det > 0.0
    safe = np.where(inside, det, 1.0)
    s = np.where(inside, uv * vr - vv * ur, 0.0) / safe
    t = np.where(inside, uu * vr - uv * ur, 0.0) / safe
    inside &= (s > 0.0) & (s < 1.0) & (t > 0.0) & (t < 1.0)
    gap = r + s[..., None] * u[:, None] - t[..., None] * v[None]
    return np.where(inside, np.minimum(best, np.linalg.norm(gap, axis=2)), best)


def check_disjoint(point_sets: Sequence[np.ndarray]):
    """fbk.framedlink._check_disjoint's rule, by comparing every pair.

    The samples of each component in turn are compared with all segments
    of the other components; the first sample within the separation
    raises. Otherwise each segment, in order, is compared with the
    segments of every other component; the first pair within it raises.
    """
    center = np.mean(np.concatenate(point_sets), axis=0)
    centered = [p - center for p in point_sets]
    segment_ends = [np.roll(p, -1, axis=0) for p in centered]
    radius = max(1.0, max(float(np.max(np.linalg.norm(p, axis=1))) for p in centered))
    limit = _MIN_SEPARATION * radius
    for n, points in enumerate(centered):
        starts = np.concatenate([q for m, q in enumerate(centered) if m != n])
        ends = np.concatenate([q for m, q in enumerate(segment_ends) if m != n])
        close = np.flatnonzero(np.min(segment_distances(points, starts, ends), axis=1) <= limit)
        if close.size:
            raise ValidationError(
                f"component {n}: sample {close[0]} lies within {limit:.1e} of "
                "another component; components must be disjoint"
            )
    for n, points in enumerate(centered[:-1]):
        later = [(m, j) for m in range(n + 1, len(centered)) for j in range(len(centered[m]))]
        gaps = segment_gaps(
            points,
            segment_ends[n],
            np.concatenate(centered[n + 1 :]),
            np.concatenate(segment_ends[n + 1 :]),
        )
        met = np.argwhere(gaps <= limit)
        if met.size:
            i, (m, j) = met[0][0], later[met[0][1]]
            raise ValidationError(
                f"component {n}: segment {i} comes within {limit:.1e} of "
                f"component {m}: segment {j}; components must be disjoint"
            )
