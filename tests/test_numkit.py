import math

import numpy as np
import pytest

from fbk.errors import RankDeficient
from fbk.numkit import (
    DEFAULT_TOL,
    Tolerances,
    _mgs,
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
                    basis, _, _ = _mgs(stack[k], DEFAULT_TOL.ortho_tol)
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
