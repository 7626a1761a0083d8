import math

import numpy as np
import pytest

from cliffref import CliffordElement, geometric_product, rotor_from_rotation, sparse_loop_class
from conftest import generic_loop, random_rotation, random_waypoint_loop
from fbk.errors import (
    DimensionMismatch,
    NotNearIdentity,
    NotOrthogonal,
    RefinementExhausted,
)
from fbk.numkit import _SCOPES, Tolerances, recording
from fbk.spinlift import (
    RotationLoop,
    Z2,
    _gammas,
    _step_rotors,
    concatenate_loops,
    loop_class,
    plane_rotation,
    quaternion_loop_class,
    so3_geodesic_loop,
    stabilize_loop,
)


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

    @pytest.mark.filterwarnings("ignore:invalid value encountered in det")
    def test_non_finite_sample(self):
        samples = list(rotation_loop_in_plane(2 * math.pi, 32).samples)
        samples[5] = np.full((3, 3), np.nan)
        with pytest.raises(NotOrthogonal, match="sample 5: orthogonality defect nan"):
            RotationLoop(samples)

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


def dense_image(r: CliffordElement) -> np.ndarray:
    """Matrix of a sparse multivector in the spin representation: sum of c_S gamma_S."""
    gammas = _gammas(r.dim)
    out = np.zeros_like(gammas[0])
    for bits, c in r.coeffs.items():
        blade = np.eye(len(out))
        for i in range(r.dim):
            if bits >> i & 1:
                blade = blade @ gammas[i]
        out += c * blade
    return out


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
    def test_gamma_relations(self):
        for d in range(3, 13):
            gammas = _gammas(d)
            eye = np.eye(2 ** (d // 2 + 1))
            for i, gi in enumerate(gammas):
                assert np.array_equal(gi @ gi, eye)
                for gj in gammas[i + 1:]:
                    assert np.array_equal(gi @ gj, -gj @ gi)

    def test_even_blades_orthonormal(self):
        # tr(A^T B) / N is the blade-coefficient inner product, so the
        # closing distance |G -+ I|_F / sqrt(N) is the coefficient distance.
        for d in (3, 4, 5, 6):
            even = [b for b in range(1 << d) if b.bit_count() % 2 == 0]
            mats = [dense_image(CliffordElement.blade(d, b)) for b in even]
            n = len(mats[0])
            gram = np.array([[np.trace(a.T @ b) / n for b in mats] for a in mats])
            assert np.array_equal(gram, np.eye(len(even)))

    def test_step_rotors_match_sparse_rotors(self, rng):
        for _ in range(20):
            m = int(rng.integers(3, 9))
            steps = np.array([cayley_rotation(rng, m, rng.uniform(0.05, 0.7)) for _ in range(3)])
            dense = _step_rotors(steps)
            for R, rotor in zip(steps, dense):
                sparse = rotor_from_rotation(R)
                assert np.max(np.abs(rotor - dense_image(sparse))) < 1e-12
                assert np.trace(rotor) / len(rotor) == pytest.approx(sparse.scalar_part, abs=1e-12)

    def test_flip_to_positive_scalar_part(self):
        # The Givens factors of this step multiply to scalar part -0.54;
        # the canonical rotor is its negative.
        R = plane_rotation(3, 0, 1, -3.0) @ plane_rotation(3, 0, 2, -1.5) @ plane_rotation(
            3, 1, 2, 2.0
        )
        rotor = _step_rotors(R[None])[0]
        assert np.trace(rotor) / 4 == pytest.approx(0.5441776519095698, abs=1e-12)
        assert np.max(np.abs(rotor - dense_image(rotor_from_rotation(R)))) < 1e-12

    def test_pi_step_not_near_identity(self):
        steps = np.array([np.eye(4), plane_rotation(4, 1, 3, math.pi), np.eye(4)])
        with pytest.raises(NotNearIdentity):
            _step_rotors(steps)

    def test_non_orthogonal_refiner_output(self):
        shear = np.eye(3)
        shear[0, 1] = 0.1  # (R shear)^T (R shear) - I has largest entry 0.1
        at = lambda t: plane_rotation(3, 0, 1, 2 * math.pi * t) @ shear  # noqa: E731
        samples = [plane_rotation(3, 0, 1, 2 * math.pi * k / 4) for k in range(4)]
        with pytest.raises(NotOrthogonal):
            loop_class(RotationLoop(samples, at, [k / 4 for k in range(4)]))

    def test_constant_loop_moves_no_coordinate(self):
        for m in (3, 7, 12):
            assert loop_class(RotationLoop([np.eye(m)] * 4)) == Z2(0)

    def test_dimension_above_cap(self):
        with pytest.raises(DimensionMismatch):
            loop_class(RotationLoop([np.eye(13)] * 4))


class TestSparseAgreement:
    @pytest.mark.parametrize("m", (3, 4, 5, 6))
    def test_generic_loops(self, rng, m):
        for turns in (0, 1, 2, 3):
            for per_turn in (12, 6):
                loop = generic_loop(rng, m, turns, per_turn * max(turns, 1))
                bit = loop_class(loop)
                assert bit == sparse_loop_class(loop) == Z2(turns % 2)
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
