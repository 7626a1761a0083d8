import math

import numpy as np
import pytest

from fbk.errors import EvaluationFailure, RankDeficient
from fbk.numkit import (
    DEFAULT_TOL,
    Tolerances,
    _mgs,
    _norm,
    jacobian_fd,
    kernel_direction,
    least_squares,
    orthonormalize,
)


class TestOrthonormalize:
    def test_already_orthogonal_rescaled(self):
        out = orthonormalize([np.array([1.0, 0, 0]), np.array([0.0, 2, 0])])
        assert np.allclose(out[0], [1, 0, 0])
        assert np.allclose(out[1], [0, 1, 0])

    def test_closed_form_pair(self):
        s = 1 / math.sqrt(2)
        out = orthonormalize([np.array([1.0, 1, 0]), np.array([1.0, 0, 0])])
        assert np.allclose(out[0], [s, s, 0])
        assert np.allclose(out[1], [s, -s, 0])

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            orthonormalize([np.array([1.0, 0]), np.array([1.0, 1e-16])])

    def test_too_many_vectors(self):
        with pytest.raises(RankDeficient):
            orthonormalize([np.ones(2), np.array([1.0, 2.0]), np.array([0.0, 1.0])])

    def test_random_full_rank_orthonormality(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n + 1))
            vecs = [rng.normal(size=n) for _ in range(k)]
            out = orthonormalize(vecs)
            G = np.array([[a @ b for b in out] for a in out])
            assert np.max(np.abs(G - np.eye(k))) < 1e-12

    def test_orientation_preserved(self, rng):
        for _ in range(20):
            vecs = [rng.normal(size=5) for _ in range(4)]
            out = orthonormalize(vecs)
            # each output has positive inner product with its input after
            # the predecessors are projected out
            for i, u in enumerate(out):
                w = vecs[i].copy()
                for q in out[:i]:
                    w = w - (q @ w) * q
                assert u @ w > 0


class TestBatchedOrthonormalize:
    def test_matches_gram_schmidt_per_set(self, rng):
        for n in range(3, 13):
            for c in range(1, n + 1):
                stack = rng.normal(size=(4, c, n))
                out = orthonormalize(stack)
                assert out.shape == (4, c, n)
                for k in range(4):
                    basis, _ = _mgs(stack[k], DEFAULT_TOL.ortho_tol)
                    assert np.max(np.abs(out[k] - np.array(basis))) < 1e-12

    def test_triangular_factor_has_positive_diagonal(self, rng):
        for n in (3, 7, 12):
            stack = rng.normal(size=(8, n, n))
            out = orthonormalize(stack)
            R = stack @ out.transpose(0, 2, 1)  # lower triangular: V = R Q
            assert np.max(np.abs(np.triu(R, 1))) < 1e-12
            assert np.all(np.diagonal(R, axis1=1, axis2=2) > 0.0)

    def test_single_set_agrees_with_stack(self, rng):
        vecs = rng.normal(size=(3, 5))
        single = orthonormalize(list(vecs))
        assert isinstance(single, list) and len(single) == 3
        assert np.array_equal(np.array(single), orthonormalize(vecs[None])[0])

    def test_too_many_vectors_in_a_stack(self):
        with pytest.raises(RankDeficient, match="cannot be independent"):
            orthonormalize(np.ones((5, 4, 3)))

    def test_dependent_set_is_named(self, rng):
        stack = rng.normal(size=(6, 3, 5))
        stack[4, 2] = 2.0 * stack[4, 0] - stack[4, 1]
        stack[5, 1] = stack[5, 0]
        with pytest.raises(RankDeficient, match="vector 2 of set 4 ") as info:
            orthonormalize(stack)
        assert info.value.index == 4


class TestLeastSquares:
    def test_identity(self):
        x = least_squares(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(x, [1, 2, 3])

    def test_minimum_norm(self):
        A = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        x = least_squares(A, np.array([5.0, 7.0]))
        assert np.allclose(x, [5, 7, 0])

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            least_squares(np.array([[2.0, 0], [0, 0.0]]), np.array([1.0, 1.0]))

    def test_residual_on_consistent_systems(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(k, 8))
            A = rng.normal(size=(k, n))
            b = rng.normal(size=k)
            x = least_squares(A, b)
            assert np.linalg.norm(A @ x - b) < DEFAULT_TOL.newton_tol * (
                1 + np.linalg.norm(b)
            )

    def test_minimum_norm_among_solutions(self, rng):
        A = rng.normal(size=(2, 5))
        b = rng.normal(size=2)
        x = least_squares(A, b)
        # adding any kernel direction should not shorten the solution
        expected = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.allclose(x, expected, atol=1e-10)


class TestKernelDirection:
    def test_plain(self):
        t = kernel_direction(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        assert np.allclose(t, [0, 0, 1])

    def test_sign_continuity(self):
        t = kernel_direction(
            np.array([[1.0, 0, 0], [0, 1.0, 0]]), previous=np.array([0.0, 0, -0.9])
        )
        assert np.allclose(t, [0, 0, -1])

    def test_kernel_too_big(self):
        with pytest.raises(RankDeficient):
            kernel_direction(np.array([[1.0, 0, 0], [1.0, 0, 0]]))

    def test_kernel_properties(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 9))
            J = rng.normal(size=(n - 1, n))
            t = kernel_direction(J)
            assert np.linalg.norm(J @ t) < 1e-10
            assert abs(np.linalg.norm(t) - 1.0) < 1e-12

    def test_dependent_rows_dropped(self, rng):
        J = rng.normal(size=(3, 4))
        J2 = np.vstack([J, J[0] + 2 * J[1]])
        t = kernel_direction(J2)
        assert np.linalg.norm(J2 @ t) < 1e-10


class TestJacobianFd:
    def test_identity_map(self):
        J = jacobian_fd(lambda x: x, np.array([0.3, -0.7, 2.0]))
        assert np.max(np.abs(J - np.eye(3))) < 1e-9

    def test_square_and_linear(self):
        J = jacobian_fd(
            lambda x: np.array([x[0] ** 2, x[1]]), np.array([1.0, 1.0]), h=1e-5
        )
        assert np.max(np.abs(J - np.array([[2.0, 0], [0, 1.0]]))) < 1e-8

    def test_product(self):
        J = jacobian_fd(lambda x: np.array([x[0] * x[1]]), np.array([2.0, 3.0]))
        assert np.max(np.abs(J - np.array([[3.0, 2.0]]))) < 1e-8

    def test_second_order_accuracy(self, rng):
        # degree-2 maps with unit-scale inputs: observed error < 100 h^2
        for _ in range(20):
            A = rng.normal(size=(3, 4))
            B = rng.normal(size=(3, 4, 4)) * 0.5

            def f(x):
                return A @ x + np.einsum("ijk,j,k->i", B, x, x)

            p = rng.normal(size=4) * 0.5
            h = 1e-4
            J = jacobian_fd(f, p, h=h)
            exact = A + np.einsum("ijk,k->ij", B + np.transpose(B, (0, 2, 1)), p)
            assert np.max(np.abs(J - exact)) < 100 * h * h


def full_completion_kernel_direction(J, previous=None, tol=DEFAULT_TOL):
    """kernel_direction as it was before the completion was pruned: every
    coordinate direction is projected, and np.linalg.norm takes the norms."""
    J = np.asarray(J, dtype=float)
    n = J.shape[1]
    basis, _ = _mgs(J, tol.ortho_tol, drop_dependent=True)
    if n - len(basis) != 1:
        raise RankDeficient("kernel is not one-dimensional")
    best = None
    best_norm = 0.0
    for i in range(n):
        w = np.zeros(n)
        w[i] = 1.0
        for _pass in range(2):
            for q in basis:
                w -= (q @ w) * q
        r = float(np.linalg.norm(w))
        if r > best_norm:
            best_norm = r
            best = w
    t = best / best_norm
    if previous is not None:
        d = float(t @ previous)
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


def column_by_column_jacobian_fd(f, p, h=None):
    """jacobian_fd as it was before the perturbations were stacked."""
    p = np.asarray(p, dtype=float)
    if h is None:
        h = 1e-6 * (1.0 + float(np.linalg.norm(p)))
    cols = []
    for j in range(p.size):
        e = np.zeros(p.size)
        e[j] = h
        fp = np.asarray(f(p + e), dtype=float)
        fm = np.asarray(f(p - e), dtype=float)
        cols.append((fp - fm) / (2.0 * h))
    return np.column_stack(cols)


def kernel_cases(rng):
    """(J, previous) pairs: generic, with a dependent row, integer-valued, and
    with the kernel spanned by e_0 + e_1, where residuals tie."""
    for k in range(2200):
        n = int(rng.integers(3, 13))
        kind = k % 4
        if kind == 0:
            J = rng.normal(size=(n - 1, n))
        elif kind == 1:
            J = rng.normal(size=(n - 1, n))
            J = np.vstack([J, J[0] - 3.0 * J[-1]])
        elif kind == 2:
            J = rng.integers(-2, 3, size=(n - 1, n)).astype(float)
        else:
            # rows orthogonal to e_0 + e_1, integer-valued every other case
            if k % 8 == 3:
                J = rng.integers(-2, 3, size=(n - 1, n)).astype(float)
                J[:, 1] = -J[:, 0]
            else:
                J = rng.normal(size=(n - 1, n))
                J -= np.outer(J[:, 0] + J[:, 1], [0.5, 0.5] + [0.0] * (n - 2))
        previous = None if k % 3 == 0 else rng.normal(size=n)
        yield J, previous


class TestBitwiseReferences:
    def test_pruned_completion_matches_the_full_one(self, rng):
        compared = 0
        for J, previous in kernel_cases(rng):
            try:
                want = full_completion_kernel_direction(J, previous)
            except RankDeficient:
                with pytest.raises(RankDeficient):
                    kernel_direction(J, previous)
                continue
            got = kernel_direction(J, previous)
            assert np.array_equal(got, want), (J, previous)
            compared += 1
        assert compared >= 2000

    def test_stacked_fd_matches_column_by_column(self, rng):
        from fbk.scenarios import _quadric_twisted, _suspended_hopf

        def on_sphere(n):
            p = rng.normal(size=n)
            return p / np.linalg.norm(p)

        def gaussian(n):
            return rng.normal(size=n)

        cases = [(_suspended_hopf, on_sphere, 5), (_quadric_twisted, gaussian, 4)]
        for n, m in [(3, 1), (4, 3), (6, 5), (12, 4)]:
            A = rng.normal(size=(m, n))
            B = rng.normal(size=(m, n, n))

            def f(x, A=A, B=B):
                return A @ np.sin(x) + np.einsum("ijk,j,k->i", B, x, x)

            cases.append((f, gaussian, n))
        for f, draw, n in cases:
            for _ in range(40):
                p = draw(n)
                got = jacobian_fd(f, p)
                assert got.flags.c_contiguous
                assert np.array_equal(got, column_by_column_jacobian_fd(f, p))

    def test_scalar_map_gives_one_row(self):
        p = np.array([2.0, 3.0, -1.0])
        J = jacobian_fd(lambda x: x[0] * x[1] + x[2], p)
        assert J.shape == (1, 3) and J.flags.c_contiguous
        assert np.array_equal(J, column_by_column_jacobian_fd(lambda x: x[0] * x[1] + x[2], p))

    def test_norm_is_bitwise_numpy_norm(self, rng):
        for n in range(1, 25):
            for _ in range(60):
                M = rng.normal(size=(n, n + 1)) * 10.0 ** rng.integers(-8, 9)
                for v in (M[0], M[:, 0], M[0, ::-1], M[0, ::2]):
                    assert _norm(v) == float(np.linalg.norm(v))


class TestNonFiniteInput:
    def test_orthonormalize(self):
        with pytest.raises(EvaluationFailure):
            orthonormalize([[1.0, 0.0, 0.0], [0.0, np.nan, 1.0]])
        with pytest.raises(EvaluationFailure):
            orthonormalize(np.full((2, 2, 3), np.inf))
        with pytest.raises(ValueError):
            orthonormalize(np.zeros((2, 2, 2, 3)))

    def test_least_squares(self):
        A = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]])
        with pytest.raises(EvaluationFailure):
            least_squares(A, np.array([1.0, np.inf]))
        with pytest.raises(EvaluationFailure):
            least_squares(A * np.nan, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            least_squares(A, np.array([1.0, 2.0, 3.0]))

    def test_kernel_direction(self):
        J = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(EvaluationFailure):
            kernel_direction(J, previous=np.array([0.0, 0.0, np.nan]))
        J[1, 2] = -np.inf
        with pytest.raises(EvaluationFailure):
            kernel_direction(J)
        with pytest.raises(ValueError):
            kernel_direction(np.zeros(3))

    def test_jacobian_fd(self):
        with pytest.raises(EvaluationFailure):
            jacobian_fd(lambda x: x, np.array([0.0, np.nan]))
        with pytest.raises(ValueError):
            jacobian_fd(lambda x: x, np.zeros((2, 2)))


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.ortho_tol == 1e-10
        assert tol.newton_tol == 1e-10
        assert tol.closure_tol == 1e-6
        assert tol.lift_angle_max == pytest.approx(math.pi / 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            Tolerances(ortho_tol=0.0)
        with pytest.raises(ValueError):
            Tolerances(lift_angle_max=math.pi)
