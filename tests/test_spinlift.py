import math

import numpy as np
import pytest

from cliffref import (
    CliffordElement,
    geometric_product,
    givens_reference,
    refined_reference,
    rotor_from_rotation,
    rotors_reference,
    sparse_loop_class,
)
from conftest import (
    concatenate_loops,
    generic_loop,
    plane_rotation,
    random_rotation,
    random_waypoint_loop,
    so3_geodesic_loop,
)
from fbk import framedlink, spinlift
from fbk.errors import (
    DimensionMismatch,
    NotNearIdentity,
    NotOrthogonal,
    RefinementExhausted,
    ValidationError,
)
from fbk.framedlink import SampledLoop
from fbk.numkit import _SCOPES, DEFAULT_TOL, Tolerances, _values, recording
from fbk.spinlift import (
    _MAX_REFINE_DEPTH,
    _MAX_REFINED_SAMPLES,
    RotationLoop,
    Z2,
    _angle_step_bound,
    _check_special_orthogonal,
    _givens,
    _identity,
    _lift_overlaps,
    _loop_classes,
    _moved_coordinates,
    _overlaps,
    _refined,
    _rotors,
    _sign_changes,
    _spin_tables,
    loop_class,
    quaternion_loop_class,
    stabilize_loop,
)


def sign_changes(rotations: np.ndarray) -> int:
    """_sign_changes of one cyclic rotation stack."""
    return _sign_changes(_overlaps(rotations))


def rotation_loop_in_plane(total_angle: float, samples: int, m: int = 3) -> RotationLoop:
    def at(t: float) -> np.ndarray:
        return plane_rotation(m, 0, 1, total_angle * (t % 1.0))

    return RotationLoop(
        [at(k / samples) for k in range(samples)], at, [k / samples for k in range(samples)]
    )


class TestZ2:
    def test_values(self):
        assert int(Z2(0)) == 0 and int(Z2(1)) == 1
        with pytest.raises(ValueError):
            Z2(2)

    def test_xor_is_addition(self):
        assert Z2(1) ^ Z2(1) == Z2(0)
        assert Z2(1) + Z2(1) == 0
        assert Z2(1) + Z2(0) == 1
        assert -Z2(1) == Z2(1)


class TestGeometricProduct:
    def test_generator_squares_to_one(self):
        e1 = CliffordElement.blade(3, 0b001)
        out = geometric_product(e1, e1)
        assert out.coeffs == {0: 1.0}

    def test_anticommutation(self):
        e1 = CliffordElement.blade(3, 0b001)
        e2 = CliffordElement.blade(3, 0b010)
        assert geometric_product(e1, e2).coeffs == {0b011: 1.0}
        assert geometric_product(e2, e1).coeffs == {0b011: -1.0}

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            geometric_product(CliffordElement.scalar(3, 1.0), CliffordElement.scalar(4, 1.0))

    def test_plane_rotor_composition(self, rng):
        # oracle: expand (a + b e1e2)(c + d e1e2) by hand. The only
        # non-trivial term is (e1e2)(e1e2) = -(e1e1)(e2e2) = -1 (one swap
        # of the middle pair), so the product is (ac - bd) + (ad + bc) e1e2,
        # which is the angle-addition formula.
        for _ in range(20):
            alpha, beta = rng.uniform(-2, 2, size=2)
            a, b = math.cos(alpha), -math.sin(alpha)
            c, d = math.cos(beta), -math.sin(beta)
            expected = {0: a * c - b * d, 0b011: a * d + b * c}
            left = CliffordElement(3, {0: a, 0b011: b})
            right = CliffordElement(3, {0: c, 0b011: d})
            out = geometric_product(left, right)
            assert out.coeffs[0] == pytest.approx(expected[0], abs=1e-15)
            assert out.coeffs[0b011] == pytest.approx(expected[0b011], abs=1e-15)
            # and the hand expansion equals the angle-addition closed form
            assert expected[0] == pytest.approx(math.cos(alpha + beta), abs=1e-15)
            assert expected[0b011] == pytest.approx(-math.sin(alpha + beta), abs=1e-15)


class TestRotorFromRotation:
    def test_identity(self):
        r = rotor_from_rotation(np.eye(4))
        assert r.coeffs == {0: 1.0}

    def test_givens_closed_form(self):
        r = rotor_from_rotation(plane_rotation(4, 0, 1, math.pi / 3))
        assert r.scalar_part == pytest.approx(math.cos(math.pi / 6), abs=1e-14)
        assert r.coeffs[0b011] == pytest.approx(-math.sin(math.pi / 6), abs=1e-14)

    def test_sandwich_reproduces_rotation(self, rng):
        # verify by applying the sandwich map to every basis vector
        for _ in range(20):
            m = int(rng.integers(3, 7))
            i1, j1 = sorted(rng.choice(m, size=2, replace=False))
            i2, j2 = sorted(rng.choice(m, size=2, replace=False))
            R = plane_rotation(m, i1, j1, rng.uniform(-0.6, 0.6)) @ plane_rotation(
                m, i2, j2, rng.uniform(-0.6, 0.6)
            )
            r = rotor_from_rotation(R)
            assert r.scalar_part > 0
            assert all(bits.bit_count() % 2 == 0 for bits in r.coeffs)
            assert np.max(np.abs(r.rotation_matrix() - R)) < 1e-8
            rr = geometric_product(r, r.reverse())
            assert rr.distance_to_scalar(1.0) < 1e-9

    def test_not_near_identity(self):
        with pytest.raises(NotNearIdentity):
            rotor_from_rotation(plane_rotation(3, 0, 1, math.pi))

    def test_not_orthogonal(self):
        M = np.eye(3)
        M[0, 1] = 0.1
        with pytest.raises(NotOrthogonal):
            rotor_from_rotation(M)


class TestLoopClass:
    def test_constant_loop(self):
        loop = RotationLoop([np.eye(3)] * 4)
        assert loop_class(loop) == Z2(0)

    def test_full_turn_is_nontrivial(self):
        loop = rotation_loop_in_plane(2 * math.pi, 64)
        assert loop_class(loop) == Z2(1)
        # independent oracle route
        assert quaternion_loop_class(loop) == Z2(1)

    def test_double_turn_is_trivial(self):
        loop = rotation_loop_in_plane(4 * math.pi, 128)
        assert loop_class(loop) == Z2(0)
        assert quaternion_loop_class(loop) == Z2(0)

    def test_so2_rejected(self):
        with pytest.raises((DimensionMismatch, NotOrthogonal)):
            loop_class(RotationLoop([np.eye(2)] * 4))

    def test_refinement_exhausted_without_refiner(self):
        samples = [plane_rotation(3, 0, 1, 2 * math.pi * k / 4) for k in range(4)]
        with pytest.raises(RefinementExhausted):
            loop_class(RotationLoop(samples))

    def test_refiner_fixes_coarse_loop(self):
        at = lambda t: plane_rotation(3, 0, 1, 2 * math.pi * t)  # noqa: E731
        samples = [at(k / 4) for k in range(4)]
        loop = RotationLoop(samples, at, [k / 4 for k in range(4)])
        with recording() as record:
            assert loop_class(loop) == Z2(1)
        assert record["refinement_depth"] >= 1


class TestRotationLoopValidation:
    def test_bad_sample_is_named(self):
        samples = rotation_loop_in_plane(2 * math.pi, 32).samples
        skewed = list(samples)
        skewed[5] = skewed[5] + 1e-6
        with pytest.raises(NotOrthogonal, match="sample 5: orthogonality defect"):
            RotationLoop(skewed)
        reflected = list(samples)
        reflected[9] = reflected[9] @ np.diag([1.0, 1.0, -1.0])
        reflected[20] = reflected[20] + 1e-6
        with pytest.raises(NotOrthogonal, match="sample 9: determinant is not positive"):
            RotationLoop(reflected)

    def test_non_finite_sample(self):
        samples = list(rotation_loop_in_plane(2 * math.pi, 32).samples)
        samples[5] = np.full((3, 3), np.nan)
        with pytest.raises(NotOrthogonal, match="sample 5: orthogonality defect nan"):
            RotationLoop(samples)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_sample_is_typed_without_a_warning(self):
        # the determinant is taken of the orthogonal samples only; numpy
        # warns on that of a non-finite one
        with pytest.raises(NotOrthogonal, match="orthogonality defect inf"):
            _check_special_orthogonal(np.full((3, 3), np.inf))
        with pytest.raises(NotOrthogonal, match="sample 0: orthogonality defect nan"):
            RotationLoop([np.full((3, 3), np.nan)] * 4)

        def at(t):
            return np.full((3, 3), np.nan) if t == 0.375 else plane_rotation(3, 0, 1, 2 * math.pi * t)

        loop = RotationLoop([at(k / 4) for k in range(4)], at, [k / 4 for k in range(4)])
        with pytest.raises(
            NotOrthogonal, match="refiner output at parameter 0.375000: orthogonality defect nan"
        ):
            loop_class(loop)

    def test_validated_samples_are_float_matrices(self):
        loop = RotationLoop([np.eye(3, dtype=int)] * 4)
        assert all(R.dtype == float and R.shape == (3, 3) for R in loop.samples)

    def test_samples_are_the_checked_float_stack(self):
        samples = np.array([np.eye(3, dtype=int)] * 4)
        loop = RotationLoop(samples)
        assert isinstance(loop.samples, np.ndarray)
        assert loop.samples.dtype == float and loop.samples.shape == (4, 3, 3)
        samples[0, 0, 0] = 5
        assert np.array_equal(loop.samples, np.array([np.eye(3)] * 4))

    def test_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch):
            RotationLoop([np.eye(3), np.eye(4), np.eye(3)])

    def test_non_square_sample(self):
        with pytest.raises(NotOrthogonal, match="not square"):
            RotationLoop([np.eye(3), np.eye(3)[:2]])
        with pytest.raises(NotOrthogonal, match="not square"):
            RotationLoop([np.eye(3)[:2]] * 4)


class TestRotationLoopParams:
    def test_params_messages(self):
        # one validator serves both loop types; 16 samples is the least a
        # SampledLoop takes
        rotations = rotation_loop_in_plane(2 * math.pi, 16).samples
        points = np.array([[math.cos(a), math.sin(a), 0.0] for a in np.arange(16) * math.pi / 8])
        builders = (
            lambda params: RotationLoop(rotations, None, params),
            lambda params: SampledLoop(points, None, params),
        )
        good = [k / 16 for k in range(16)]

        def changed(k, value):
            out = list(good)
            out[k] = value
            return out

        for params, message in (
            (good[:-1], "equal length"),
            ([good[:8], good[8:]], "equal length"),
            (changed(15, 1.0), r"lie in \[0, 1\)"),
            (changed(0, -0.1), r"lie in \[0, 1\)"),
            (changed(2, np.nan), r"lie in \[0, 1\)"),
            (changed(2, good[1]), "strictly increasing"),
            (changed(1, 0.6), "strictly increasing"),
        ):
            for make in builders:
                for given in (params, np.array(params)):
                    with pytest.raises(ValidationError, match=message):
                        make(given)

    def test_params_become_floats(self):
        loop = RotationLoop(rotation_loop_in_plane(2 * math.pi, 4).samples, None,
                            np.array([0, 0.25, 0.5, 0.75], dtype=np.float32))
        assert loop.params == [0.0, 0.25, 0.5, 0.75]
        assert all(type(t) is float for t in loop.params)

    def test_stack_of_wrong_rank(self):
        with pytest.raises(NotOrthogonal, match="not square"):
            RotationLoop(np.eye(3))
        with pytest.raises(NotOrthogonal, match="not square"):
            RotationLoop(np.zeros((4, 3, 2)))


class TestRecording:
    # Four quarter turns against a step bound just above pi/4: each is split
    # once.
    COARSE = {"refinement_depth": 1, "lift_steps": 8}
    TOL = Tolerances(lift_angle_max=0.8)

    def test_coarse_loop_counts(self):
        with recording() as record:
            loop_class(rotation_loop_in_plane(2 * math.pi, 4), self.TOL)
        assert record == self.COARSE

    def test_step_of_exactly_the_default_bound_is_not_split(self):
        # the halves of a quarter turn are exactly pi/4, the default bound
        with recording() as record:
            assert loop_class(rotation_loop_in_plane(2 * math.pi, 4)) == Z2(1)
        assert record == self.COARSE

    def test_no_scope_records_nothing(self):
        assert loop_class(rotation_loop_in_plane(2 * math.pi, 4)) == Z2(1)
        assert _SCOPES.get() == ()
        with recording() as record:
            assert _SCOPES.get() == (record,)
        assert record == {}
        assert _SCOPES.get() == ()

    def test_nested_scopes_both_see_inner_notes(self):
        with recording() as outer:
            loop_class(rotation_loop_in_plane(2 * math.pi, 16))
            with recording() as inner:
                loop_class(rotation_loop_in_plane(2 * math.pi, 4), self.TOL)
        assert inner == self.COARSE
        assert outer == {"refinement_depth": 1, "lift_steps": 16 + 8}

    def test_sequential_scopes_do_not_share_state(self):
        with recording() as first:
            loop_class(rotation_loop_in_plane(2 * math.pi, 4), self.TOL)
        with recording() as second:
            loop_class(rotation_loop_in_plane(2 * math.pi, 16))
        assert first == self.COARSE
        assert second == {"refinement_depth": 0, "lift_steps": 16}

    def test_scope_closes_on_error(self):
        with pytest.raises(RefinementExhausted):
            with recording():
                loop_class(RotationLoop(rotation_loop_in_plane(2 * math.pi, 4).samples))
        assert _SCOPES.get() == ()


def as_element(coeffs: np.ndarray) -> CliffordElement:
    """A rotor of the coefficient kernel as a sparse multivector.

    Coefficients of rounding size, below 1e-15, are dropped, so that a
    rotor that is sparse up to rounding stays sparse; this moves a unit
    rotor by less than 5e-14 even at d = 12.
    """
    d = len(coeffs).bit_length()  # 2^(d-1) coefficients
    blades = _spin_tables(d).blades.tolist()
    return CliffordElement(d, {b: c for b, c in zip(blades, coeffs) if abs(c) > 1e-15})


def cayley_rotation(rng, m: int, size: float) -> np.ndarray:
    a = rng.normal(size=(m, m))
    A = size * (a - a.T) / np.linalg.norm(a - a.T)
    return np.linalg.solve(np.eye(m) - A, np.eye(m) + A)


def conjugated_stabilization(loop: RotationLoop, Q: np.ndarray) -> RotationLoop:
    """Q diag(R, I) Q^T for every R of the loop: dense in every coordinate."""
    inner = stabilize_loop(loop, Q.shape[0])
    return RotationLoop(
        [Q @ R @ Q.T for R in inner.samples],
        lambda t: Q @ inner.refiner(t) @ Q.T,
        list(inner.params),
    )


class TestSpinRepresentation:
    def test_step_rotors_match_sparse_rotors(self, rng):
        # the rotor of step k is L_{k+1} reverse(L_k), the canonical one up
        # to sign; its scalar part is the overlap that _sign_changes tests
        for _ in range(20):
            m = int(rng.integers(3, 9))
            samples = [random_rotation(rng, m)]
            steps = [cayley_rotation(rng, m, rng.uniform(0.05, 0.7)) for _ in range(3)]
            for step in steps:
                samples.append(step @ samples[-1])
            coeffs = _rotors(np.array(samples))
            lifts = [as_element(c) for c in coeffs]
            for k, step in enumerate(steps):
                rotor = geometric_product(lifts[k + 1], lifts[k].reverse())
                sign = math.copysign(1.0, rotor.scalar_part)
                assert (rotor * sign - rotor_from_rotation(step)).norm() < 1e-12
                assert coeffs[k + 1] @ coeffs[k] == pytest.approx(rotor.scalar_part, abs=1e-12)

    def test_pi_step_not_near_identity(self):
        steps = np.array([np.eye(4), plane_rotation(4, 1, 3, math.pi), np.eye(4)])
        with pytest.raises(NotNearIdentity, match="too small for a canonical sign"):
            sign_changes(steps)

    def test_small_scalar_part_not_near_identity(self):
        # two principal angles of 2.9: no angle at pi, scalar part cos(1.45)^2
        step = plane_rotation(4, 0, 1, 2.9) @ plane_rotation(4, 2, 3, 2.9)
        with pytest.raises(NotNearIdentity, match="rotor scalar part 1.452e-02 too small"):
            sign_changes(np.array([np.eye(4), step]))

    def test_uneliminated_sample_is_not_orthogonal(self):
        # a reflection has no Givens factorization: the last diagonal entry stays -1
        with pytest.raises(NotOrthogonal, match="sample 1: Givens elimination left residue 2.000e"):
            _rotors(np.array([np.eye(3), np.diag([1.0, 1.0, -1.0])]))

    def test_non_orthogonal_refiner_output(self):
        shear = np.eye(3)
        shear[0, 1] = 0.1  # (R shear)^T (R shear) - I has largest entry 0.1
        at = lambda t: plane_rotation(3, 0, 1, 2 * math.pi * t) @ shear  # noqa: E731
        samples = [plane_rotation(3, 0, 1, 2 * math.pi * k / 4) for k in range(4)]
        with pytest.raises(NotOrthogonal, match="refiner output at parameter 0.125000: orthogonality"):
            loop_class(RotationLoop(samples, at, [k / 4 for k in range(4)]))

    def test_refiner_output_of_another_dimension(self):
        at = lambda t: plane_rotation(4, 0, 1, 2 * math.pi * t)  # noqa: E731
        samples = [plane_rotation(3, 0, 1, 2 * math.pi * k / 4) for k in range(4)]
        with pytest.raises(DimensionMismatch):
            loop_class(RotationLoop(samples, at, [k / 4 for k in range(4)]))
        mixed = lambda t: plane_rotation(3 if t < 0.5 else 4, 0, 1, 2 * math.pi * t)  # noqa: E731
        with pytest.raises(DimensionMismatch, match="mixed dimensions"):
            loop_class(RotationLoop(samples, mixed, [k / 4 for k in range(4)]))
        with pytest.raises(NotOrthogonal, match="not square"):
            loop_class(RotationLoop(samples, lambda t: np.eye(3)[:2], [k / 4 for k in range(4)]))

    def test_frame_loop_lifts_its_moved_coordinates_only(self, monkeypatch):
        # one twisted circle in R^12 whose motion stays in coordinates 0-3,
        # as in a link file; the bit cannot tell whether its frames were
        # lifted in 4 coordinates or in 12, so the kernel's input is watched
        ang = 2.0 * math.pi * np.arange(64) / 64
        pts = np.zeros((64, 12))
        pts[:, 0], pts[:, 1], pts[:, 3] = np.cos(ang), -np.sin(ang), 0.05 * np.sin(2.0 * ang)
        fields = np.zeros((11, 64, 12))
        fields[0, :, :2] = pts[:, :2]
        for i in range(1, 11):
            fields[i, :, i + 1] = 1.0
        c, s = np.cos(ang)[:, None], np.sin(ang)[:, None]
        fields[0], fields[1] = c * fields[0] + s * fields[1], c * fields[1] - s * fields[0]
        link = framedlink.load_link({
            "ambient": {"kind": "euclidean", "dimension": 12},
            "components": [{"points": pts.tolist(), "framing": fields.tolist()}],
        })
        kernel = spinlift._rotors
        dims = []

        def spy(rotations):
            dims.append(rotations.shape[1])
            return kernel(rotations)

        monkeypatch.setattr(spinlift, "_rotors", spy)
        assert framedlink.invariant_report(link).kappa == Z2(1)
        assert dims and max(dims) <= 4

    def test_constant_loop_moves_no_coordinate(self):
        for m in (3, 7, 12):
            assert loop_class(RotationLoop([np.eye(m)] * 4)) == Z2(0)

    def test_dimension_above_cap(self):
        with pytest.raises(DimensionMismatch):
            loop_class(RotationLoop([np.eye(13)] * 4))


def two_plane_step(rng, m: int) -> np.ndarray:
    """Q diag(two plane rotations, I) Q^T: a step that moves all m coordinates."""
    Q = random_rotation(rng, m)
    R = plane_rotation(m, 0, 1, rng.uniform(-0.7, 0.7)) @ plane_rotation(
        m, 2, 3, rng.uniform(-0.7, 0.7)
    )
    return Q @ R @ Q.T


class TestCoefficientKernel:
    def assert_matches_sparse(self, steps):
        blades = _spin_tables(steps.shape[1]).blades
        for R, coeffs in zip(steps, _rotors(steps)):
            sparse = rotor_from_rotation(R)
            assert set(sparse.coeffs) <= set(blades.tolist())
            want = np.array([sparse.coeffs.get(int(b), 0.0) for b in blades])
            assert np.max(np.abs(coeffs - want)) < 1e-12

    @pytest.mark.parametrize("m", range(3, 9))
    def test_blade_by_blade_generic_steps(self, rng, m):
        steps = np.array([cayley_rotation(rng, m, rng.uniform(0.05, 0.7)) for _ in range(4)])
        self.assert_matches_sparse(steps)

    def test_blade_by_blade_conjugated_two_plane_steps_m12(self, rng):
        self.assert_matches_sparse(np.array([two_plane_step(rng, 12) for _ in range(2)]))

    def test_scalar_is_coefficient_zero_and_norm_is_one(self, rng):
        steps = np.array([cayley_rotation(rng, 6, 0.5) for _ in range(5)])
        coeffs = _rotors(steps)
        assert _spin_tables(6).blades[0] == 0
        assert np.all(coeffs[:, 0] > 0.1)
        assert np.allclose(np.linalg.norm(coeffs, axis=1), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d", range(3, 13))
    def test_tables(self, d):
        tables = _spin_tables(d)
        half = 1 << (d - 1)
        assert len(tables.planes) == d * (d - 1) // 2
        blades = tables.blades.tolist()
        assert sorted(b & (half - 1) for b in blades) == list(range(half))
        assert all(b.bit_count() % 2 == 0 and b < 1 << d for b in blades)
        every = np.arange(half)
        for perm, sign in zip(tables.perm, tables.sign):
            # a signed permutation of the coefficients ...
            assert np.array_equal(np.sort(perm), every)
            assert np.all(np.abs(sign) == 1.0)
            # ... that squares to minus the identity: (e_j e_i)^2 = -1
            assert np.array_equal(perm[perm], every)
            assert np.all(sign * sign[perm] == -1.0)

    def test_tables_build_without_numpy_2(self, monkeypatch):
        # fbk supports numpy >= 1.24, which has no np.bitwise_count
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        _spin_tables.cache_clear()
        for d in (3, 8, 12):
            assert len(_spin_tables(d).blades) == 1 << (d - 1)

    def test_tables_are_read_only(self):
        tables = _spin_tables(5)
        with pytest.raises(ValueError):
            tables.perm[0, 0] = 1

    def assert_lifts(self, rotations):
        coeffs = _rotors(rotations)
        assert np.allclose(np.linalg.norm(coeffs, axis=1), 1.0, rtol=0, atol=1e-12)
        for R, c in zip(rotations, coeffs):
            assert np.max(np.abs(as_element(c).rotation_matrix() - R)) < 1e-12

    @pytest.mark.parametrize("m", range(3, 9))
    def test_arbitrary_rotations(self, rng, m):
        # Haar-like samples, far from the identity: any rotation factors
        self.assert_lifts(np.array([random_rotation(rng, m) for _ in range(4)]))

    def test_arbitrary_conjugated_rotations_m12(self, rng):
        # dense in every coordinate, so all 66 planes are eliminated; one
        # turning plane keeps the rotor, and its sandwich, sparse
        Q = random_rotation(rng, 12)
        R = plane_rotation(12, 0, 1, 2.8)
        self.assert_lifts(np.array([Q @ R @ Q.T, Q.T @ R.T @ Q]))

    @pytest.mark.parametrize("angle", (math.pi, math.pi - 1e-9))
    def test_principal_angle_at_or_near_pi(self, rng, angle):
        for m in (3, 4, 6):
            Q = random_rotation(rng, m)
            R = plane_rotation(m, 0, 1, angle)
            self.assert_lifts(np.array([R, Q @ R @ Q.T]))
            if m > 3:
                two = R @ plane_rotation(m, 2, 3, angle)
                self.assert_lifts(np.array([two, Q @ two @ Q.T]))


def depth_first_refined_steps(loop: RotationLoop, tol: Tolerances):
    """Consecutive sample pairs and their depths, split one step at a time, depth first.

    The refinement fbk.spinlift used before the level-by-level stack, kept
    as its reference: the stack must hold the first sample of every pair,
    in order, bit for bit.
    """
    bound = _angle_step_bound(tol.lift_angle_max)
    k = len(loop)
    eye = np.eye(loop.dim)
    samples = loop.samples
    steps = np.roll(samples, -1, axis=0) @ samples.transpose(0, 2, 1)
    within = np.linalg.norm(steps - eye, axis=(1, 2)) <= bound
    for idx in range(k):
        t0 = loop.params[idx]
        r0 = samples[idx]
        if idx + 1 < k:
            t1 = loop.params[idx + 1]
            r1 = samples[idx + 1]
        else:
            t1 = loop.params[0] + 1.0
            r1 = samples[0]
        stack = [(t0, r0, t1, r1, 0)]
        while stack:
            a_t, a_r, b_t, b_r, depth = stack.pop()
            if within[idx] if depth == 0 else np.linalg.norm(b_r @ a_r.T - eye) <= bound:
                yield a_r, b_r, depth
                continue
            if loop.refiner is None:
                raise RefinementExhausted(
                    f"step at parameter {a_t % 1.0:.6f} exceeds the angle bound "
                    "and the loop has no refiner"
                )
            if depth >= _MAX_REFINE_DEPTH:
                raise RefinementExhausted(
                    f"refinement depth {depth} exhausted near parameter {a_t % 1.0:.6f}"
                )
            m_t = 0.5 * (a_t + b_t)
            m_r = _check_special_orthogonal(loop.refiner(m_t % 1.0))
            stack.append((m_t, m_r, b_t, b_r, depth + 1))
            stack.append((a_t, a_r, m_t, m_r, depth + 1))


def resampled(loop: RotationLoop, params) -> RotationLoop:
    return RotationLoop([loop.refiner(t) for t in params], loop.refiner, list(params))


class TestRefinedStack:
    def assert_matches_depth_first(self, loop, tol=DEFAULT_TOL, depths=None):
        pairs = list(depth_first_refined_steps(loop, tol))
        with recording() as record:
            stack = _refined(loop, tol)
        assert np.array_equal(stack, np.array([a for a, _, _ in pairs]))
        assert np.array_equal(np.roll(stack, -1, axis=0), np.array([b for _, b, _ in pairs]))
        assert record == {
            "lift_steps": len(pairs),
            "refinement_depth": max(depth for _, _, depth in pairs),
        }
        if depths is not None:
            assert sorted({depth for _, _, depth in pairs}) == depths

    @pytest.mark.parametrize("tol", (DEFAULT_TOL, Tolerances(lift_angle_max=0.8)))
    def test_coarse_loops(self, rng, tol):
        self.assert_matches_depth_first(rotation_loop_in_plane(2 * math.pi, 4), tol, [1])
        for m in (3, 4, 6, 8):
            for turns in (1, 2):
                loop = generic_loop(rng, m, turns, 6 * turns)
                self.assert_matches_depth_first(loop, tol, [1])
                self.assert_matches_depth_first(generic_loop(rng, m, turns, 12 * turns), tol, [0])

    def test_params_starting_after_zero(self, rng):
        # the closing step runs from params[-1] to params[0] + 1, a 0.79 turn
        # split three times; its midpoints lie above 1 and the refiner sees
        # them wrapped
        for m in (3, 5):
            loop = generic_loop(rng, m, 1, 12)
            for start in (0.3, 0.71):
                params = [start + 0.25 * k / 6 for k in range(6)]
                moved = resampled(loop, params)
                self.assert_matches_depth_first(moved, depths=[0, 3])

    def test_mixed_depths(self, rng):
        # steps of 144, 72 and 36 degrees split twice, once and not at all
        loop = generic_loop(rng, 4, 1, 12)
        params = [0.0, 0.4, 0.6, 0.7, 0.8, 0.9]
        self.assert_matches_depth_first(resampled(loop, params), depths=[0, 1, 2])
        self.assert_matches_depth_first(
            resampled(loop, [0.05, 0.2, 0.6, 0.7, 0.75]), depths=[0, 1, 2]
        )

    def test_exhausted_without_refiner(self):
        loop = RotationLoop([plane_rotation(3, 0, 1, 2 * math.pi * k / 4) for k in range(4)], None,
                            [0.1 + k / 4 for k in range(4)])
        with pytest.raises(RefinementExhausted) as want:
            list(depth_first_refined_steps(loop, DEFAULT_TOL))
        with pytest.raises(RefinementExhausted) as got:
            _refined(loop, DEFAULT_TOL)
        assert str(got.value) == str(want.value)
        assert str(got.value) == (
            "step at parameter 0.100000 exceeds the angle bound and the loop has no refiner"
        )

    def test_exhausted_at_depth_limit(self):
        # a quarter-turn jump at t = 0.37 stays over the bound however fine the split
        def at(t):
            return plane_rotation(3, 0, 1, 2 * math.pi * t + (math.pi / 2 if t >= 0.37 else 0.0))

        loop = RotationLoop([at(k / 16) for k in range(16)], at, [k / 16 for k in range(16)])
        with pytest.raises(RefinementExhausted) as want:
            list(depth_first_refined_steps(loop, DEFAULT_TOL))
        with pytest.raises(RefinementExhausted) as got:
            _refined(loop, DEFAULT_TOL)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"refinement depth {_MAX_REFINE_DEPTH} exhausted near")


    def test_first_error_is_of_the_shallowest_failing_level(self):
        # quarter-turn jumps at 0.37 and 0.65: the step at 0.3125 exhausts
        # the depth, and the refiner output at 0.65625, the midpoint of the
        # step at 0.625, is not orthogonal; the depth-first split meets the
        # first failure first, the level-by-level one the second
        shear = np.eye(3)
        shear[0, 1] = 0.1

        def at(t):
            jumps = (t >= 0.37) + (t >= 0.65)
            R = plane_rotation(3, 0, 1, 2 * math.pi * t + jumps * math.pi / 2)
            return R @ shear if 0.65 <= t < 0.66 else R

        loop = RotationLoop([at(k / 16) for k in range(16)], at, [k / 16 for k in range(16)])
        with pytest.raises(RefinementExhausted, match="exhausted near parameter 0.3"):
            list(depth_first_refined_steps(loop, DEFAULT_TOL))
        with pytest.raises(NotOrthogonal, match="refiner output at parameter 0.656250: orthogonality"):
            _refined(loop, DEFAULT_TOL)

    def test_level_past_the_sample_cap_is_not_evaluated(self):
        # 16 steps of 22.5 degrees under a 1e-7 bound would split 22 levels
        # deep; the level from 16384 to 32768 samples is refused unevaluated
        evaluations = []

        def at(t):
            evaluations.append(t)
            return plane_rotation(3, 0, 1, 2 * math.pi * t)

        loop = RotationLoop([at(k / 16) for k in range(16)], at, [k / 16 for k in range(16)])
        with pytest.raises(RefinementExhausted) as got:
            _refined(loop, Tolerances(lift_angle_max=1e-7))
        assert str(got.value) == (
            f"refinement to 32768 samples passes the cap of {_MAX_REFINED_SAMPLES} near parameter "
            "0.000000; lift_angle_max = 1e-07 is too small for this loop"
        )
        assert len(evaluations) == _MAX_REFINED_SAMPLES

    def test_stack_may_reach_the_sample_cap(self, monkeypatch):
        # four quarter turns under a 0.3 bound split three levels deep, to 32 samples
        loop = rotation_loop_in_plane(2 * math.pi, 4)
        tol = Tolerances(lift_angle_max=0.3)
        monkeypatch.setattr(spinlift, "_MAX_REFINED_SAMPLES", 32)
        assert len(_refined(loop, tol)) == 32
        monkeypatch.setattr(spinlift, "_MAX_REFINED_SAMPLES", 31)
        with pytest.raises(RefinementExhausted, match="refinement to 32 samples passes the cap of 31"):
            _refined(loop, tol)


def refinement_outcome(refine, loop: RotationLoop):
    """The stack and recorder notes of refine(loop), or the type and message of its error."""
    with recording() as record:
        try:
            return refine(loop, DEFAULT_TOL), record
        except (NotOrthogonal, RefinementExhausted) as exc:
            return type(exc), str(exc)


class TestKernelReference:
    """The in-place kernel equals its allocating reference in cliffref, bit for bit."""

    @pytest.mark.parametrize("d", range(3, 13))
    def test_rotors(self, rng, d):
        for count in (1, 2, 17, 300 if d <= 8 else 48):
            rotations = np.array([random_rotation(rng, d) for _ in range(count)])
            M = rotations.transpose(1, 2, 0).copy()
            M_reference = M.copy()
            thetas = _givens(M)
            planes = givens_reference(M_reference)
            assert [(j, i) for j, i, _ in planes] == _spin_tables(d).planes
            assert np.array_equal(thetas, np.array([theta for _, _, theta in planes]))
            assert np.array_equal(M, M_reference)
            assert np.array_equal(_rotors(rotations), rotors_reference(rotations))

    def test_residue_error(self):
        rotations = np.array([np.eye(4), np.diag([1.0, 1.0, 1.0, -1.0]), np.eye(4)])
        with pytest.raises(NotOrthogonal) as got:
            _rotors(rotations)
        with pytest.raises(NotOrthogonal) as want:
            rotors_reference(rotations)
        assert str(got.value) == str(want.value)

    def test_overlaps_of_mixed_batches(self, rng, monkeypatch):
        # loops moving 3 to 12 coordinates in one batch, refined 0 to 3 levels deep
        batch = [TestBatchLift.mixed_loop(rng, m) for m in (3, 12, 5, 8, 4, 12, 6)]
        for m in (4, 7):
            loop = generic_loop(rng, m, 1, 12)
            batch.append(resampled(loop, [0.0, 0.4, 0.6, 0.7, 0.8, 0.9]))
            batch.append(resampled(loop, [0.3 + 0.25 * k / 6 for k in range(6)]))
        assert {refinement_outcome(_refined, loop)[1]["refinement_depth"] for loop in batch} == {
            0, 1, 2, 3
        }
        got = _values(_lift_overlaps(batch, DEFAULT_TOL))
        monkeypatch.setattr(spinlift, "_rotors", rotors_reference)
        monkeypatch.setattr(spinlift, "_refined", refined_reference)
        want = _values(_lift_overlaps(batch, DEFAULT_TOL))
        assert len(got) == len(want) == len(batch)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_refined_stacks_and_errors(self, rng):
        loops = [rotation_loop_in_plane(2 * math.pi, 4), generic_loop(rng, 5, 2, 12)]
        loop = generic_loop(rng, 4, 1, 12)
        loops.append(resampled(loop, [0.0, 0.4, 0.6, 0.7, 0.8, 0.9]))
        loops.append(resampled(loop, [0.3 + 0.25 * k / 6 for k in range(6)]))
        loops.append(RotationLoop(loops[0].samples))
        # a step that never refines below the bound, and the same plus a
        # bad refiner output one level down: the shallower error wins
        shear = np.eye(3)
        shear[0, 1] = 0.1
        for bad in (False, True):

            def at(t, bad=bad):
                jumps = (t >= 0.37) + (t >= 0.65)
                R = plane_rotation(3, 0, 1, 2 * math.pi * t + jumps * math.pi / 2)
                return R @ shear if bad and 0.65 <= t < 0.66 else R

            loops.append(RotationLoop([at(k / 16) for k in range(16)], at, [k / 16 for k in range(16)]))
        outcomes = [refinement_outcome(_refined, loop) for loop in loops]
        assert [outcome[1]["refinement_depth"] for outcome in outcomes[:4]] == [1, 1, 2, 3]
        assert [outcome[0] for outcome in outcomes[4:]] == [
            RefinementExhausted, RefinementExhausted, NotOrthogonal
        ]
        for loop, (got, notes) in zip(loops, outcomes):
            want, want_notes = refinement_outcome(refined_reference, loop)
            if isinstance(got, np.ndarray):
                assert np.array_equal(got, want) and notes == want_notes
            else:
                assert (got, notes) == (want, want_notes)

    def test_identity_is_read_only(self):
        eye = _identity(5)
        assert np.array_equal(eye, np.eye(5)) and _identity(5) is eye
        with pytest.raises(ValueError, match="read-only"):
            eye[0, 0] = 2.0

    def test_half_angle_table_rounds_as_its_rows(self, rng):
        # one np.cos and one np.sin over the (planes, K) table must give each
        # row what a call on that row alone gives, wherever a vector block
        # of the CPU's SIMD path crosses a row boundary
        for planes in (3, 28, 66):
            for count in (1, 2, 3, 5, 7, 8, 9, 16, 17, 31, 64, 300):
                half = 0.5 * rng.uniform(-math.pi, math.pi, size=(planes, count))
                cosines, sines = np.cos(half), np.sin(half)
                for p in range(planes):
                    assert np.array_equal(cosines[p], np.cos(half[p]))
                    assert np.array_equal(sines[p], np.sin(half[p]))


class TestSparseAgreement:
    @pytest.mark.parametrize("m", (3, 4, 5, 6))
    def test_generic_loops(self, rng, m):
        # 13 samples a turn make odd cycles, on which counting the positive
        # overlaps instead of the negative ones would flip the bit
        for turns in (0, 1, 2, 3):
            for per_turn in (12, 6, 13, 25):
                loop = generic_loop(rng, m, turns, per_turn * max(turns, 1))
                bit = loop_class(loop)
                assert bit == sparse_loop_class(loop) == Z2(turns % 2)
                # the signs counted from the samples themselves, not relative
                # to the first one, wherever the cycle starts: the lifts
                # change sign at some pair of every odd loop, and one of the
                # starts makes it the closing pair
                samples = _refined(loop, DEFAULT_TOL)
                for start in range(len(samples)):
                    assert sign_changes(np.roll(samples, -start, axis=0)) % 2 == bit
                if m == 3:
                    assert bit == quaternion_loop_class(loop)

    def test_generic_loops_m8(self, rng):
        for turns, samples in ((1, 6), (0, 8)):
            loop = generic_loop(rng, 8, turns, samples)
            assert loop_class(loop) == sparse_loop_class(loop) == Z2(turns)


class TestConjugatedStabilization:
    def test_up_to_m8(self, rng):
        for m in range(4, 9):
            loop = random_waypoint_loop(rng)
            Q = random_rotation(rng, m)
            assert loop_class(conjugated_stabilization(loop, Q)) == quaternion_loop_class(loop)

    def test_m12(self, rng):
        loop = generic_loop(rng, 3, 1, 12)
        moved = conjugated_stabilization(loop, random_rotation(rng, 12))
        assert loop_class(moved) == quaternion_loop_class(loop) == Z2(1)


class TestQuaternionLoopClass:
    def test_constant_loop(self):
        assert quaternion_loop_class(RotationLoop([np.eye(3)] * 4)) == Z2(0)

    def test_full_turn_closed_form(self):
        # the lift of the plane rotation by 2*pi*t is cos(pi t) + sin(pi t) e12-dual,
        # whose endpoint is cos(pi) = -1: expected bit 1 by exact arithmetic
        assert math.cos(math.pi) == -1.0
        loop = rotation_loop_in_plane(2 * math.pi, 64)
        assert quaternion_loop_class(loop) == Z2(1)

    def test_back_and_forth_is_trivial(self):
        def at(t: float) -> np.ndarray:
            u = t % 1.0
            angle = 2 * math.pi * (2 * u if u < 0.5 else 2 - 2 * u)
            return plane_rotation(3, 0, 1, angle)

        samples = [at(k / 128) for k in range(128)]
        loop = RotationLoop(samples, at, [k / 128 for k in range(128)])
        assert quaternion_loop_class(loop) == Z2(0)
        assert loop_class(loop) == Z2(0)

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            quaternion_loop_class(RotationLoop([np.eye(4)] * 4))


class TestStabilize:
    def test_identity_embedding(self):
        loop = stabilize_loop(RotationLoop([np.eye(3)] * 4), 8)
        assert loop.dim == 8
        assert loop_class(loop) == Z2(0)

    def test_full_turn_class_preserved(self):
        loop = rotation_loop_in_plane(2 * math.pi, 64)
        assert loop_class(stabilize_loop(loop, 6)) == Z2(1)

    def test_random_loops_preserved(self, rng):
        for _ in range(5):
            loop = random_waypoint_loop(rng)
            base = loop_class(loop)
            for m in (4, 6, 8):
                assert loop_class(stabilize_loop(loop, m)) == base

    def test_bad_target(self):
        with pytest.raises(DimensionMismatch):
            stabilize_loop(RotationLoop([np.eye(4)] * 4), 3)


class TestLoopProperties:
    def test_oracle_agreement_sample(self, rng):
        for _ in range(15):
            loop = random_waypoint_loop(rng, legs=int(rng.integers(3, 6)))
            assert loop_class(loop) == quaternion_loop_class(loop)

    def test_concatenation_additivity(self, rng):
        base = random_rotation(rng, 3)
        for _ in range(5):
            l1 = so3_geodesic_loop([base] + [random_rotation(rng, 3) for _ in range(2)], 12)
            l2 = so3_geodesic_loop([base] + [random_rotation(rng, 3) for _ in range(2)], 12)
            both = concatenate_loops(l1, l2)
            assert loop_class(both) == loop_class(l1) ^ loop_class(l2)

    def test_left_translation_invariance(self, rng):
        for _ in range(5):
            loop = random_waypoint_loop(rng)
            P = random_rotation(rng, 3)
            inner = loop.refiner
            moved = RotationLoop(
                [P @ R for R in loop.samples],
                (lambda t: P @ inner(t)),
                list(loop.params),
            )
            assert loop_class(moved) == loop_class(loop)


def lone_overlaps(loop: RotationLoop) -> np.ndarray:
    (overlaps,) = _values(_lift_overlaps([loop], DEFAULT_TOL))
    return overlaps


class TestBatchLift:
    """Loops lifted together keep, bit for bit, the overlaps each gets alone."""

    @staticmethod
    def mixed_loop(rng, m: int) -> RotationLoop:
        # a generic loop in k <= m coordinates, block-embedded in SO(m): the
        # lift moves k coordinates, and some steps split once
        k = int(rng.integers(3, m + 1))
        turns = int(rng.integers(0, 3))
        per_turn = 6 if rng.random() < 0.3 else 12
        return stabilize_loop(generic_loop(rng, k, turns, per_turn * max(turns, 1)), m)

    def test_batches_of_mixed_loops(self, rng):
        for _ in range(12):
            m = int(rng.integers(3, 9))
            batch = [self.mixed_loop(rng, m) for _ in range(int(rng.integers(1, 6)))]
            alone = [lone_overlaps(loop) for loop in batch]
            together = _values(_lift_overlaps(batch, DEFAULT_TOL))
            assert len(together) == len(batch)
            for a, b in zip(alone, together):
                assert np.array_equal(a, b)
            assert _values(_loop_classes(batch)) == [loop_class(loop) for loop in batch]
            if m <= 4:
                assert _values(_loop_classes(batch)) == [sparse_loop_class(loop) for loop in batch]

    def test_closing_overlap_is_the_scalar_part_of_the_last_rotor(self, rng):
        # every loop starts at exactly I, the rotor 1, so the chain's pair
        # from a loop's last row into the next loop's first row, and the
        # last loop's pair back to row 0, are the closing overlaps
        for _ in range(8):
            m = int(rng.integers(3, 9))
            batch = [self.mixed_loop(rng, m) for _ in range(5)]
            for loop, overlaps in zip(batch, _values(_lift_overlaps(batch, DEFAULT_TOL))):
                samples = _refined(loop, DEFAULT_TOL)
                last = _rotors(_moved_coordinates(samples @ samples[0].T))[-1]
                assert overlaps[-1] == last[0]

    def test_loop_not_starting_at_identity_closes_on_its_first_row(self, rng, monkeypatch):
        # passes of at most 5 rows at d = 5: row 0's rotor is carried to the end
        rotations = generic_loop(rng, 5, 1, 24).samples @ random_rotation(rng, 5)
        rotors = _rotors(rotations)
        assert abs(rotors[0, 0]) < 0.99
        pairs = np.add.reduce(rotors * np.roll(rotors, -1, axis=0), axis=1)
        assert np.array_equal(_overlaps(rotations), pairs)
        monkeypatch.setattr(spinlift, "_PASS_COEFFS", 5 << 4)
        assert np.array_equal(_overlaps(rotations), pairs)

    def test_loops_of_several_dimensions(self, rng):
        batch = [self.mixed_loop(rng, m) for m in (8, 3, 5, 3, 6)]
        together = _values(_lift_overlaps(batch, DEFAULT_TOL))
        for loop, overlaps in zip(batch, together):
            assert np.array_equal(overlaps, lone_overlaps(loop))

    def test_loop_of_twelve_coordinates_in_a_batch(self, rng):
        # 70 samples at d = 12 take two passes alone, cut after row 35;
        # behind 20 samples of two other loops the cut falls after its row 25
        big = generic_loop(rng, 12, 1, 70)
        others = [generic_loop(rng, 12, 0, 8), generic_loop(rng, 12, 1, 12)]
        assert [moved_count(loop) for loop in (*others, big)] == [12, 12, 12]
        together = _values(_lift_overlaps([*others, big], DEFAULT_TOL))
        assert np.array_equal(together[2], lone_overlaps(big))
        assert [_sign_changes(c) % 2 for c in together] == [0, 1, 1]

    def test_pass_boundaries(self, rng, monkeypatch):
        # passes of at most 5 rows at d = 3 and 2 at d = 4 carry one rotor
        # from pass to pass; a loop's overlaps do not see where they cut
        batch = [self.mixed_loop(rng, 4) for _ in range(4)]
        batch += [generic_loop(rng, 3, 3, 25), generic_loop(rng, 4, 1, 13)]
        expected = [lone_overlaps(loop) for loop in batch]
        bits = _values(_loop_classes(batch))
        calls = []
        kernel = spinlift._rotors

        def spy(rotations):
            calls.append(len(rotations))
            return kernel(rotations)

        monkeypatch.setattr(spinlift, "_rotors", spy)
        monkeypatch.setattr(spinlift, "_PASS_COEFFS", 5 << 2)
        assert np.array_equal(lone_overlaps(batch[4]), expected[4])
        for overlaps, want in zip(_values(_lift_overlaps(batch, DEFAULT_TOL)), expected):
            assert np.array_equal(overlaps, want)
        assert 1 < max(calls) <= 5 and len(calls) > len(batch)
        assert _values(_loop_classes(batch)) == bits
        assert bits[4:] == [Z2(1), Z2(1)]

    def test_one_kernel_call_per_coordinate_count(self, rng, monkeypatch):
        batch = [self.mixed_loop(rng, 6) for _ in range(5)]
        counts = {moved_count(loop) for loop in batch}
        dims = []
        kernel = spinlift._rotors

        def spy(rotations):
            dims.append(rotations.shape[1])
            return kernel(rotations)

        monkeypatch.setattr(spinlift, "_rotors", spy)
        _values(_loop_classes(batch))
        assert sorted(dims) == sorted(counts)

    def test_first_failing_loop_raises(self, rng, monkeypatch):
        # with the step bound raised to a Frobenius defect of 2.9, half-turn
        # steps in one plane pass refinement and fail the sign test, and
        # 2/3-turn steps in two planes exceed the bound
        monkeypatch.setattr(spinlift, "_angle_step_bound", lambda angle: 2.9)
        fine = generic_loop(rng, 4, 1, 12)
        sign = RotationLoop([plane_rotation(3, 0, 1, math.pi * k) for k in range(4)])
        double = [plane_rotation(4, 0, 1, a) @ plane_rotation(4, 2, 3, a) for a in (0.0, 2.1, 4.2)]
        coarse = RotationLoop(double)
        wrong = RotationLoop([np.eye(13)] * 4)
        for loops, error in (
            ([fine, sign, coarse], NotNearIdentity),
            ([fine, coarse, sign], RefinementExhausted),
            ([sign, wrong], NotNearIdentity),
            ([wrong, sign], DimensionMismatch),
            ([coarse, wrong, fine], RefinementExhausted),
        ):
            with pytest.raises(error):
                _values(_loop_classes(loops))

    def test_failing_batch_notes_the_refinement_of_later_loops(self, monkeypatch):
        # the lift refines every loop before it tests any loop's signs, so a
        # loop behind one that fails its sign test is refined, and noted:
        # its 2/3-turn steps in two planes split once into 6 steps
        monkeypatch.setattr(spinlift, "_angle_step_bound", lambda angle: 2.9)
        sign = RotationLoop([plane_rotation(3, 0, 1, math.pi * k) for k in range(4)])

        def double(t: float) -> np.ndarray:
            a = 2.0 * math.pi * t
            return plane_rotation(4, 0, 1, a) @ plane_rotation(4, 2, 3, a)

        coarse = RotationLoop([double(k / 3) for k in range(3)], double)
        with recording() as each:
            with pytest.raises(NotNearIdentity):
                loop_class(sign)
            loop_class(coarse)
        assert each == {"lift_steps": 4 + 6, "refinement_depth": 1}
        with recording() as record:
            classes, failure = _loop_classes([sign, coarse])
        assert classes == [] and isinstance(failure, NotNearIdentity)
        assert record == each


def moved_count(loop: RotationLoop) -> int:
    """How many coordinates the lift of the loop moves."""
    samples = _refined(loop, DEFAULT_TOL)
    return spinlift._moved_coordinates(samples @ samples[0].T).shape[1]
