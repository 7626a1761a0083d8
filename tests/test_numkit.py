import math
import warnings

import numpy as np
import pytest

from fbk.errors import EvaluationFailure, RankDeficient
from fbk.numkit import (
    DEFAULT_TOL,
    Tolerances,
    _mgs,
    _norm,
    _qr,
    _svd,
    jacobian_fd,
    orthonormalize,
)
from numref import kernel_direction, least_squares


def orthonormalize_one(vecs) -> np.ndarray:
    """One vector set orthonormalized as a stack of one."""
    return orthonormalize(np.array(vecs, dtype=float)[None])[0]


class TestOrthonormalize:
    def test_already_orthogonal_rescaled(self):
        out = orthonormalize_one([[1.0, 0, 0], [0.0, 2, 0]])
        assert np.allclose(out[0], [1, 0, 0])
        assert np.allclose(out[1], [0, 1, 0])

    def test_closed_form_pair(self):
        s = 1 / math.sqrt(2)
        out = orthonormalize_one([[1.0, 1, 0], [1.0, 0, 0]])
        assert np.allclose(out[0], [s, s, 0])
        assert np.allclose(out[1], [s, -s, 0])

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            orthonormalize_one([[1.0, 0], [1.0, 1e-16]])

    def test_too_many_vectors(self):
        with pytest.raises(RankDeficient):
            orthonormalize_one([np.ones(2), [1.0, 2.0], [0.0, 1.0]])

    def test_random_full_rank_orthonormality(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n + 1))
            vecs = [rng.normal(size=n) for _ in range(k)]
            out = orthonormalize_one(vecs)
            G = np.array([[a @ b for b in out] for a in out])
            assert np.max(np.abs(G - np.eye(k))) < 1e-12

    def test_orientation_preserved(self, rng):
        for _ in range(20):
            vecs = [rng.normal(size=5) for _ in range(4)]
            out = orthonormalize_one(vecs)
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
                    basis = _mgs(stack[k], DEFAULT_TOL.ortho_tol)
                    assert np.max(np.abs(out[k] - np.array(basis))) < 1e-12

    def test_triangular_factor_has_positive_diagonal(self, rng):
        for n in (3, 7, 12):
            stack = rng.normal(size=(8, n, n))
            out = orthonormalize(stack)
            R = stack @ out.transpose(0, 2, 1)  # lower triangular: V = R Q
            assert np.max(np.abs(np.triu(R, 1))) < 1e-12
            assert np.all(np.diagonal(R, axis1=1, axis2=2) > 0.0)

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


def sign_fixed_qr(stack):
    """np.linalg.qr of the transposed (K, c, N) stack, flipped so that diag(R) > 0."""
    Q, R = np.linalg.qr(stack.transpose(0, 2, 1))
    sign = np.sign(np.diagonal(R, axis1=1, axis2=2))
    return Q * sign[:, None, :], R * sign[:, :, None]


def reflection(rng, n):
    u = rng.normal(size=n)
    return np.eye(n) - 2.0 * np.outer(u, u) / (u @ u)


class TestLapackEntries:
    """_svd and _qr call numpy's LAPACK gufuncs directly: np.linalg's bits, typed failures."""

    # the walk's Jacobians (quadrics, Hopf, the S^5 sections, of rank 5)
    # and the closing's aligned systems
    @pytest.mark.parametrize("shape, rank", [
        ((3, 4), 3), ((4, 5), 4), ((7, 6), 5), ((4, 4), 4), ((5, 5), 5), ((8, 6), 6)
    ])
    def test_svd_is_numpy_svd_bit_for_bit(self, rng, shape, rank):
        for _ in range(50):
            J = rng.normal(size=(shape[0], rank)) @ rng.normal(size=(rank, shape[1]))
            for ours, numpys in zip(_svd(J), np.linalg.svd(J)):
                assert np.array_equal(ours, numpys)

    def test_qr_is_sign_fixed_numpy_qr_bit_for_bit(self, rng):
        for n in range(3, 13):
            for c in sorted({1, n - 1, n}):
                stack = rng.normal(size=(5, c, n))
                Q, R, flipped, failure = _qr(stack, DEFAULT_TOL.ortho_tol)
                ref_Q, ref_R = sign_fixed_qr(stack)
                assert np.array_equal(Q, ref_Q) and np.array_equal(R, ref_R)
                assert failure is None
                if c < n:
                    assert flipped is None
                else:
                    assert np.array_equal(flipped, np.linalg.det(Q) < 0.0)

    def test_qr_leaves_its_input_alone(self, rng):
        stack = rng.normal(size=(3, 4, 4))
        kept = stack.copy()
        _qr(stack, DEFAULT_TOL.ortho_tol)
        assert np.array_equal(stack, kept)

    def test_orientation_is_the_sign_of_det_q(self, rng):
        frames = [rng.normal(size=(n, n)) for n in rng.integers(3, 13, size=440)]
        frames += [reflection(rng, n) for n in range(3, 13)]
        frames += [np.eye(n)[rng.permutation(n)] for n in rng.integers(3, 13, size=20)]
        # sets whose transpose, the matrix factored, is already upper
        # triangular: every tau is 0 and only the sign fix flips
        frames += [np.triu(rng.normal(size=(n, n))).T for n in rng.integers(3, 13, size=20)]
        frames += [np.eye(n) for n in range(3, 13)]
        frames.append(np.diag([1.0, 2.0, 3.0, -1.0]))
        assert len(frames) == 501
        for frame in frames:
            Q, _, flipped, failure = _qr(frame[None], DEFAULT_TOL.ortho_tol)
            assert failure is None
            assert flipped.tolist() == [np.linalg.det(Q[0]) < 0.0], frame

    def test_nan_is_an_evaluation_failure(self):
        # not numpy's LinAlgError, and no RuntimeWarning on the way
        J = np.arange(20.0).reshape(4, 5)
        J[1, 2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationFailure, match="SVD of a 4 x 5 matrix failed"):
                _svd(J)
            with pytest.raises(EvaluationFailure, match="non-finite"):
                _qr(J[None, :, :4], DEFAULT_TOL.ortho_tol)


# the private gufunc names numkit reads, with their numpy 1.x spellings
GUFUNC_NAMES = {
    "svd_f": ("svd_f", "svd_m_f", "svd_n_f"),
    "qr_r_raw": ("qr_r_raw", "qr_r_raw_m", "qr_r_raw_n"),
    "qr_reduced": ("qr_reduced",),
}


class TestLapackFallback(TestLapackEntries):
    """Every test of TestLapackEntries, with numkit imported as if numpy had moved its gufuncs."""

    @pytest.fixture(autouse=True, params=["module", *GUFUNC_NAMES])
    def moved(self, request, monkeypatch):
        """numkit reloaded without numpy.linalg._umath_linalg, or without one of its names.

        The reload runs in numkit's own module dict, which the functions
        imported above read; the dict is restored afterwards.
        """
        import importlib
        import sys
        import types

        import numpy.linalg

        import fbk.numkit as numkit

        real = numpy.linalg._umath_linalg
        if request.param == "module":
            monkeypatch.setitem(sys.modules, real.__name__, None)
            monkeypatch.delattr(numpy.linalg, "_umath_linalg")
        else:
            stripped = types.ModuleType(real.__name__)
            for name in dir(real):
                if name not in GUFUNC_NAMES[request.param]:
                    setattr(stripped, name, getattr(real, name))
            monkeypatch.setattr(numpy.linalg, "_umath_linalg", stripped)
        saved = dict(vars(numkit))
        try:
            importlib.reload(numkit)
            assert numkit._SVD_GUFUNCS is numkit._QR_RAW_GUFUNCS is numkit._QR_REDUCED is None
            yield
        finally:
            vars(numkit).clear()
            vars(numkit).update(saved)

    def test_calls_go_through_numpy_linalg(self, rng, monkeypatch):
        calls = []
        for name in ("svd", "qr"):

            def spy(*args, real=getattr(np.linalg, name), name=name, **kwargs):
                calls.append((name, kwargs.get("mode")))
                return real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        _svd(rng.normal(size=(3, 4)))
        _qr(rng.normal(size=(2, 3, 3)), DEFAULT_TOL.ortho_tol)
        assert calls == [("svd", None), ("qr", "raw"), ("qr", None)]


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
    """tests/numref.py's kernel, the oracle for the tracer's SVD tangent."""

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


class TestBitwiseReferences:
    def test_stacked_fd_matches_column_by_column(self, rng):
        from fbk.scenarios import _quadric_twisted, _suspended_hopf

        def on_sphere(n):
            p = rng.normal(size=n)
            return p / np.linalg.norm(p)

        def gaussian(n):
            return rng.normal(size=n)

        cases = [
            (_suspended_hopf, on_sphere, 5),
            (_quadric_twisted, gaussian, 4),
            (lambda x: x[0] * x[1] + x[2], gaussian, 3),
        ]
        for n, m in [(3, 1), (4, 3), (6, 5), (12, 4)]:
            A = rng.normal(size=(m, n))
            B = rng.normal(size=(m, n, n))

            def f(x, A=A, B=B):
                return A @ np.sin(x) + np.einsum("ijk,j,k->i", B, x, x)

            cases.append((f, gaussian, n))
        for f, draw, n in cases:
            for _ in range(40):
                p = draw(n)
                for h in (None, 1e-4):
                    got = jacobian_fd(f, p, h)
                    assert got.flags.c_contiguous
                    assert np.array_equal(got, column_by_column_jacobian_fd(f, p, h))

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

    def test_vector_dots_keep_the_bits_of_matmul(self, rng):
        # the walk's 1-d products (_norm, the corrector's norms, the tangent
        # tests, the closure hyperplane, the sphere equation and the
        # antipodal check) are ndarray.dot on contiguous operands; strided
        # ones with a positive stride give the same bits too (a reversed
        # view does not: there .dot and @ sum in different orders)
        for n in range(1, 25):
            for _ in range(60):
                M = rng.normal(size=(n, n + 1)) * 10.0 ** rng.integers(-8, 9)
                for a, b in ((M[0], M[-1]), (M[:, 0], M[:, 1]), (M[0, ::2], M[-1, ::2])):
                    assert np.array(a.dot(b)).tobytes() == np.array(a @ b).tobytes()
                    assert a.dot(b).__class__ is (a @ b).__class__
                v = M[0]
                assert _norm(v) == math.sqrt(float(v @ v))


class TestNonFiniteInput:
    def test_orthonormalize(self):
        with pytest.raises(EvaluationFailure):
            orthonormalize([[[1.0, 0.0, 0.0], [0.0, np.nan, 1.0]]])
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
        with pytest.raises(ValueError, match="newton_tol must be strictly positive and finite"):
            Tolerances(newton_tol=math.inf)
        with pytest.raises(ValueError):
            Tolerances(lift_angle_max=math.pi)
