"""Acceptance suite: one test per criterion, each printing its pass line.

Bits are exact (no tolerance); numerical diagnostics are held to the stated
thresholds and wall-clock budgets are asserted directly.
"""

import time

import numpy as np
from conftest import (
    cycled_with,
    random_rotation,
    random_waypoint_loop,
    standard_framing,
    wavy_circle,
)
from fbk.framedlink import (
    FramedLink,
    NormalFraming,
    delta_pontryagin,
    euclidean_ambient,
    index_of_circle,
    kappa,
    twist_framing,
)
from fbk.scenarios import run_scenario
from fbk.spinlift import loop_class, quaternion_loop_class, stabilize_loop
from fbk.tracer import (
    SectionSpec,
    TraceOptions,
    hausdorff_distance,
    section_index,
    section_zero_loops,
)


def announce(criterion: int, message: str):
    print(f"ACCEPTANCE {criterion}: PASS  {message}")


def test_criterion_1_pontryagin_suite(rng):
    worst = 0.0
    for turns, expected in [(0, 0), (1, 1), (2, 0), (3, 1)]:
        start = time.perf_counter()
        report = run_scenario("pontryagin-circle", {"turns": turns})
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert int(report.kappa) == expected, f"turns={turns}"
        assert report.diagnostics["delta"] == expected, f"turns={turns}"
        assert elapsed < 1.0, f"turns={turns} took {elapsed:.2f}s"
    # the two counts agree on every Euclidean link, not just the registry one
    for _ in range(6):
        loop = wavy_circle(rng)
        framing = twist_framing(loop, standard_framing(loop), int(rng.integers(0, 4)))
        link = FramedLink([(loop, framing)], euclidean_ambient(4))
        assert delta_pontryagin(link) == kappa(link)
    announce(1, f"kappa = 0,1,0,1 over turns 0..3; delta = kappa; worst {worst:.2f}s < 1s")


def test_criterion_2_oracle_equivalence(rng):
    start = time.perf_counter()
    agreements = 0
    for _ in range(100):
        loop = random_waypoint_loop(rng, legs=int(rng.integers(3, 6)))
        if loop_class(loop) == quaternion_loop_class(loop):
            agreements += 1
    elapsed = time.perf_counter() - start
    assert agreements == 100
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    announce(2, f"clifford and quaternion lifts agree 100/100 in {elapsed:.2f}s < 5s")


def test_criterion_3_stabilization(rng):
    checked = 0
    for _ in range(20):
        loop = random_waypoint_loop(rng)
        base = loop_class(loop)
        for m in range(4, 9):
            assert loop_class(stabilize_loop(loop, m)) == base
            checked += 1
    announce(3, f"loop class invariant under block embedding, {checked} checks exact")


def test_criterion_4_sphere_example():
    report = run_scenario("sphere-great-circle", {})
    assert int(report.kappa) == 0
    assert [c.index for c in report.components] == [0]
    announce(4, "great circle with constant framing has kappa = 0")


def test_criterion_5_cylinder_spin_dependence():
    one_std = run_scenario("cylinder-spin", {"spin": "standard", "circles": 1})
    one_non = run_scenario("cylinder-spin", {"spin": "nonstandard", "circles": 1})
    assert int(one_std.kappa) == 0
    assert int(one_non.kappa) == 1
    two_std = run_scenario("cylinder-spin", {"spin": "standard", "circles": 2})
    two_non = run_scenario("cylinder-spin", {"spin": "nonstandard", "circles": 2})
    assert int(two_std.kappa) == int(two_non.kappa) == 0
    announce(5, "one circle: kappa 0 (standard) / 1 (nonstandard); two circles agree")


def test_criterion_6_suspended_hopf():
    start = time.perf_counter()
    reports = {
        which: run_scenario("suspended-hopf", {"regular_value": which})
        for which in ("default", "alt")
    }
    elapsed = time.perf_counter() - start
    for which, report in reports.items():
        assert int(report.kappa) == 1, which
        assert int(report.nonzero_count_mod2) == 1, which
        assert all(e < 1e-6 for e in report.diagnostics["closure_errors"]), which
        assert report.diagnostics["max_residual"] < 1e-7, which
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    announce(6, f"kappa = 1 at two regular values, closure/residuals in bound, {elapsed:.1f}s < 30s")


def test_criterion_7_vector_field_obstruction():
    start = time.perf_counter()
    first = run_scenario("s5-vector-fields", {})
    second = run_scenario("s5-alt-section", {})
    assert int(first.kappa) == 1
    assert int(second.kappa) == 1
    # the two sections vanish on geometrically different circles
    from fbk.scenarios import (
        _S5_SECTION_JAC,
        _s5_alt_section,
        _s5_alt_section_jac,
        _s5_section,
        _s5_splitting,
    )

    loops_a = section_zero_loops(
        SectionSpec(5, _s5_splitting, _s5_section, jacobian=lambda x: _S5_SECTION_JAC),
        TraceOptions(seeds=[np.array([0.97, 0.12, 0.05, -0.04, 0.06, -0.02])]),
    )
    loops_b = section_zero_loops(
        SectionSpec(5, _s5_splitting, _s5_alt_section, jacobian=_s5_alt_section_jac),
        TraceOptions(seeds=[np.array([0.05, -0.04, 0.97, 0.12, 0.04, -0.03])]),
    )
    separation = hausdorff_distance(loops_a[0], loops_b[0])
    assert separation > 0.5
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    announce(
        7,
        f"kappa(E) = 1 for both sections, zero circles {separation:.2f} apart, "
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_8_invariance_suite(rng):
    start = time.perf_counter()
    ambient = euclidean_ambient(4)
    cases = 0
    flips = 0

    for _ in range(50):
        samples = 96
        loop = wavy_circle(rng, samples=samples)
        framing = twist_framing(loop, standard_framing(loop), int(rng.integers(0, 3)))
        base = index_of_circle(loop, framing, ambient)

        shift = int(rng.integers(1, samples))
        if index_of_circle(loop.cycled(shift), cycled_with(framing, loop, shift),
                           ambient) != base:
            flips += 1
        cases += 1

        dense = loop.with_samples(2 * samples)
        stacked = np.array([framing.resample(t) for t in dense.params])
        dense_framing = NormalFraming(
            [stacked[:, i, :] for i in range(framing.count)], framing.resample
        )
        if index_of_circle(dense, dense_framing, ambient) != base:
            flips += 1
        cases += 1

        Q = random_rotation(rng, 4)
        if index_of_circle(loop.transformed(Q), framing.transformed(Q), ambient) != base:
            flips += 1
        cases += 1

        offsets = [rng.normal(size=4) for _ in range(framing.count)]
        offsets = [0.9 * 0.05 * o / np.linalg.norm(o) for o in offsets]
        inner = framing.resample
        perturbed = NormalFraming(
            [f + o for f, o in zip(framing.fields, offsets)],
            lambda t, inner=inner, off=np.vstack(offsets): np.asarray(inner(t)) + off,
        )
        if index_of_circle(loop, perturbed, ambient) != base:
            flips += 1
        cases += 1

    # auxiliary-frame closure twist on the section pipeline
    from fbk.scenarios import _S5_SECTION_JAC, _s5_section, _s5_splitting

    spec = SectionSpec(5, _s5_splitting, _s5_section, jacobian=lambda x: _S5_SECTION_JAC)
    opts = TraceOptions(seeds=[np.array([0.97, 0.12, 0.05, -0.04, 0.06, -0.02])])
    plain = section_index(spec, opts)
    for turns in (1, 2):
        twisted = section_index(spec, opts, aux_twist_turns=turns)
        if int(twisted.kappa) != int(plain.kappa):
            flips += 1
        cases += 1

    elapsed = time.perf_counter() - start
    assert cases >= 200
    assert flips == 0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    announce(8, f"{cases} randomized invariance cases, 0 flips, {elapsed:.1f}s < 60s")


def test_criterion_9_additivity(rng):
    ambient = euclidean_ambient(4)
    pool = []
    for _ in range(12):
        loop = wavy_circle(rng, samples=64)
        framing = twist_framing(loop, standard_framing(loop), int(rng.integers(0, 3)))
        pool.append((loop, framing, kappa(FramedLink([(loop, framing)], ambient))))
    checked = 0
    for _ in range(50):
        i, j = rng.integers(0, len(pool), size=2)
        l1, f1, k1 = pool[i]
        l2, f2, k2 = pool[j]
        moved = l2.translated(np.array([5.0, 0.0, 0.0, 0.0]))
        union = FramedLink([(l1, f1), (moved, f2)], ambient)
        assert kappa(union) == k1 ^ k2
        checked += 1
    announce(9, f"kappa additive over {checked} random disjoint unions, exact")
