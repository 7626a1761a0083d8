"""Shared builders for randomized geometry used across the test modules."""

import math
from typing import Sequence

import numpy as np
import pytest

from fbk.errors import DimensionMismatch
from fbk.framedlink import NormalFraming, SampledLoop
from fbk.spinlift import RotationLoop, _check_special_orthogonal


def plane_rotation(m: int, i: int, j: int, theta: float) -> np.ndarray:
    """Rotation of R^m by theta in the oriented (e_i, e_j) coordinate plane."""
    if not (0 <= i < m and 0 <= j < m and i != j):
        raise ValueError("plane indices out of range")
    R = np.eye(m)
    c, s = math.cos(theta), math.sin(theta)
    R[i, i] = c
    R[j, j] = c
    R[j, i] = s
    R[i, j] = -s
    return R


def concatenate_loops(first: RotationLoop, second: RotationLoop) -> RotationLoop:
    """Traverse first then second, each compressed into half the parameter range."""
    if first.dim != second.dim:
        raise DimensionMismatch("loops have different dimensions")
    params = [0.5 * t for t in first.params] + [0.5 + 0.5 * t for t in second.params]
    samples = np.concatenate([first.samples, second.samples])
    refiner = None
    if first.refiner is not None and second.refiner is not None:
        f, s = first.refiner, second.refiner

        def refiner(t: float) -> np.ndarray:
            if t < 0.5:
                return f(2.0 * t)
            return s(2.0 * t - 1.0)

    return RotationLoop(samples, refiner, params)


def _so3_log(R: np.ndarray) -> np.ndarray:
    """Rotation vector (axis * angle) of an SO(3) matrix, angle in [0, pi)."""
    c = (np.trace(R) - 1.0) / 2.0
    c = min(1.0, max(-1.0, c))
    angle = math.acos(c)
    if angle < 1e-12:
        return np.zeros(3)
    if angle > math.pi - 1e-6:
        raise ValueError("rotation angle at pi; geodesic midpoint is ambiguous")
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return w * (angle / (2.0 * math.sin(angle)))


def _so3_exp(w: np.ndarray) -> np.ndarray:
    angle = float(np.linalg.norm(w))
    if angle < 1e-12:
        return np.eye(3)
    k = w / angle
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def so3_geodesic_loop(waypoints: Sequence[np.ndarray], samples_per_leg: int = 16) -> RotationLoop:
    """Closed piecewise-geodesic loop through SO(3) waypoints, with exact refiner.

    The loop visits each waypoint in order and returns to the first; every
    leg is the shortest geodesic, so the refiner re-evaluates the true
    underlying path at any parameter.
    """
    pts = [_check_special_orthogonal(np.asarray(w, dtype=float)) for w in waypoints]
    if len(pts) < 1:
        raise ValueError("need at least one waypoint")
    legs = len(pts)
    logs = []
    for i in range(legs):
        a = pts[i]
        b = pts[(i + 1) % legs]
        logs.append(_so3_log(a.T @ b))

    def at(t: float) -> np.ndarray:
        u = (t % 1.0) * legs
        i = min(int(u), legs - 1)
        s = u - i
        return pts[i] @ _so3_exp(s * logs[i])

    params = []
    samples = []
    total = legs * samples_per_leg
    for k in range(total):
        t = k / total
        params.append(t)
        samples.append(at(t))
    return RotationLoop(samples, at, params)


def random_rotation(rng: np.random.Generator, m: int) -> np.ndarray:
    """Haar-ish random SO(m) matrix via Gram-Schmidt of a Gaussian matrix."""
    A = rng.normal(size=(m, m))
    Q = np.zeros_like(A)
    for i in range(m):
        w = A[i]
        for j in range(i):
            w = w - (Q[j] @ w) * Q[j]
        Q[i] = w / np.linalg.norm(w)
    if np.linalg.det(Q) < 0.0:
        Q[-1] = -Q[-1]
    return Q


def random_waypoint_loop(rng: np.random.Generator, legs: int = 4, per_leg: int = 12) -> RotationLoop:
    """Closed piecewise-geodesic SO(3) loop through random waypoints."""
    waypoints = [random_rotation(rng, 3) for _ in range(legs)]
    return so3_geodesic_loop(waypoints, per_leg)


def generic_loop(rng: np.random.Generator, m: int, turns: int, samples: int,
                 wobble: float = 0.15) -> RotationLoop:
    """Loop Q P(turns) Q^T C(t) in SO(m), with refiner; its class is turns mod 2.

    P turns `turns` times in the (e_0, e_1) plane and Q is random, so the
    turning plane is random; C is the Cayley image of a small random
    skew-symmetric trigonometric loop, which contracts by scaling and adds
    nothing to the class. Every coordinate moves. With 12 samples per turn
    no step refines; with 6, each step is split once.
    """
    Q = random_rotation(rng, m)
    harmonics = []
    for k in (1, 2):
        a = rng.normal(size=(m, m))
        b = rng.normal(size=(m, m))
        harmonics.append((k, a - a.T, b - b.T))
    scale = wobble / (2.0 * sum(np.linalg.norm(a) + np.linalg.norm(b) for _, a, b in harmonics))
    eye = np.eye(m)

    def at(t: float) -> np.ndarray:
        ang = 2.0 * math.pi * t
        W = sum(scale * (math.cos(k * ang) * A + math.sin(k * ang) * B) for k, A, B in harmonics)
        P = eye.copy()
        P[0, 0] = P[1, 1] = math.cos(turns * ang)
        P[1, 0] = math.sin(turns * ang)
        P[0, 1] = -P[1, 0]
        return Q @ P @ Q.T @ np.linalg.solve(eye - W, eye + W)

    params = [i / samples for i in range(samples)]
    return RotationLoop([at(t) for t in params], at, params)


def wavy_circle(rng: np.random.Generator, dim: int = 4, samples: int = 96,
                amplitude: float = 0.02) -> SampledLoop:
    """Embedded trigonometric loop: a plane circle plus small higher harmonics.

    Traversal is clockwise so that the radial+constant framing of
    standard_framing assembles with determinant +1.
    """
    harms = []
    for m in (2, 3):
        harms.append((m, rng.normal(size=dim) * amplitude, rng.normal(size=dim) * amplitude))

    def point(t: float) -> np.ndarray:
        a = 2.0 * math.pi * (t % 1.0)
        p = np.zeros(dim)
        p[0] = math.cos(a)
        p[1] = -math.sin(a)
        for (m, u, v) in harms:
            p = p + math.cos(m * a) * u + math.sin(m * a) * v
        return p

    pts = np.array([point(i / samples) for i in range(samples)])
    return SampledLoop(pts, point, [i / samples for i in range(samples)])


def framing_from_callables(loop: SampledLoop, fns) -> NormalFraming:
    fields = [
        np.vstack([np.asarray(fn(loop.points[k], loop.params[k]), dtype=float)
                   for k in range(len(loop))])
        for fn in fns
    ]

    def resample(t: float) -> np.ndarray:
        return np.vstack([np.asarray(fn(loop.point(t), t), dtype=float) for fn in fns])

    return NormalFraming(fields, resample)


def cycled_with(framing: NormalFraming, loop: SampledLoop, shift: int) -> NormalFraming:
    """The framing moved along with loop.cycled(shift): sample shift becomes sample 0."""
    base = loop.params[shift % len(loop)]
    fields = np.roll(framing.fields, -(shift % len(loop)), axis=1)
    resample = None
    if framing.resample is not None:
        inner = framing.resample
        resample = lambda t: inner((t + base) % 1.0)  # noqa: E731
    return NormalFraming(fields, resample)


def standard_framing(loop: SampledLoop, dim: int = 4) -> NormalFraming:
    """Radial-plus-constant framing for origin-centered near-circular loops."""
    fns = [lambda p, t: p]
    for i in range(2, dim):
        e = np.zeros(dim)
        e[i] = 1.0
        fns.append(lambda p, t, e=e: e)
    return framing_from_callables(loop, fns)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
