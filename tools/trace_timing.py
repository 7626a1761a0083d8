"""Per-layer timings of the tracer: the walk per component, the corrector per call.

    python tools/trace_timing.py
    python tools/trace_timing.py --repeat 1

fbk is imported from `src/` of the checkout this file sits in. For every
registered scenario that traces (and suspended-hopf with its other regular
value) the tool builds the traced system and seed the scenario's run hands
the tracer (`Scenario.traced`) and prints one line:

  - K, the samples of the traced component;
  - trace_ms: milliseconds per `tracer._trace` call, the whole walk from the
    seed's correction to closure, for the one component;
  - point_us: trace_ms in microseconds per sample (trace_ms * 1000 / K),
    the walk's cost of one accepted point;
  - newton_us: microseconds per `tracer._newton` call over the walk's
    corrections, replayed from the traced loop: from every sample, the
    predictor at the distance of the next sample along the carried tangent,
    holding that sample's factorization as the walk does (taken before the
    clock starts);
  - step_us: the same replay's time per Newton iteration, one residual
    and one chord step (plus a refactorization where the chord contracts
    too slowly), the per-step cost of the corrector;
  - residual_us: microseconds per residual of the traced system at the
    samples (its `residual`: the map's value, projected onto the target
    basis for a sphere target, with the sphere equation for a unit-sphere
    domain), the part of step_us that evaluates the map;
  - map_us: microseconds per call of the map's evaluator alone at the
    samples, so residual_us - map_us is what the residual adds to the map;
  - tangent_us: microseconds per `tracer._tangent_of` call at the samples,
    signed along the previous sample's tangent as the walk does: one map
    Jacobian, its assembly and one SVD;
  - jacobian_us: microseconds per raw Jacobian of the map at the samples
    (the traced system's `raw_jacobian`: the scenario's analytic Jacobian,
    else `numkit.jacobian_fd`), the Jacobian layer on its own;
  - newton_calls, newton_iterations, jacobian_evaluations and
    jacobian_checks (the seed's analytic Jacobian compared with central
    differences, 0 for a map without one) of one `_trace` call, as
    fbk.recording() notes them;
  - svds: the calls of `numkit._svd` (the walk's one SVD entry) during
    one more `_trace` call, counted by a wrapper around the tracer's name
    for it, outside the timings. The walk factors every Jacobian it
    evaluates once, so this equals jacobian_evaluations;
  - svd_us: microseconds per `_svd` call on the system Jacobians at the
    samples, the factorization on its own;
  - on the S^5 zero circles (the cases that trace a section), transport_ms:
    milliseconds per `tracer.transport_closed_frame` call on the traced
    circle, the section index's auxiliary frame; closing_deg: the largest
    rotation, in degrees, that the transport's closing adds to that frame
    between two consecutive samples (the closing segment included), next
    to lift_deg, the case's lift_angle_max in degrees, which bounds every
    step of the lift; and dw_ms: milliseconds per
    `tracer._section_derivative_fields` call, dw applied to that frame at
    the samples from the Jacobians the walk took there, which the traced
    loop carries. Other cases print "-".

Times are the minimum over --repeat repeats; nothing is asserted about them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from fbk import recording, tracer  # noqa: E402
from fbk.scenarios import REGISTRY, resolve_options  # noqa: E402
from fbk.framedlink import sphere_ambient  # noqa: E402
from fbk.tracer import (  # noqa: E402
    SectionSpec,
    _map_system,
    _newton,
    _section_derivative_fields,
    _section_map,
    _tangent_of,
    _trace,
    transport_closed_frame,
)

# The walk's cap on the iterations of one correction (tracer._trace).
WALK_MAX_ITER = 8


def traced_cases():
    """(label, traced system, TraceOptions, SectionSpec or None) per traced scenario run."""
    runs = [(name, {}) for name, scenario in REGISTRY.items() if scenario.traced]
    for name, overrides in runs + [("suspended-hopf", {"regular_value": "alt"})]:
        scenario = REGISTRY[name]
        spec, opts = scenario.traced(resolve_options(scenario, overrides))
        section = spec if isinstance(spec, SectionSpec) else None
        if section is not None:
            spec = _section_map(section)
        label = name + "".join(f" {key}={value}" for key, value in overrides.items())
        yield label, _map_system(spec), opts, section


def best_of(repeat: int, fn) -> float:
    """Seconds of one fn() call, the minimum over repeats."""
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def svd_calls(fn) -> int:
    """Calls of the walk's SVD, numkit._svd as the tracer names it, while fn() runs."""
    svd = tracer._svd
    count = [0]

    def counted(J):
        count[0] += 1
        return svd(J)

    tracer._svd = counted
    try:
        fn()
    finally:
        tracer._svd = svd
    return count[0]


def closing_degrees(loop, normals, tol) -> float:
    """Largest rotation angle of P(u_(k+1)) P(u_k)^T over the closing path of the transport.

    u_k = params[k] - params[0] at the samples and 1 where the loop returns
    to sample 0; the holonomy's Givens planes are caught by a wrapper
    around tracer._givens_planes during one transport. The largest
    rotation angle of a rotation R is 2 arcsin(|R - I|_2 / 2).
    """
    caught = []
    givens_planes = tracer._givens_planes

    def catching(H):
        caught.append(givens_planes(H))
        return caught[-1]

    tracer._givens_planes = catching
    try:
        aux = transport_closed_frame(loop, normals, tol)
    finally:
        tracer._givens_planes = givens_planes
    u = np.append(np.asarray(loop.params) - loop.params[0], 1.0)
    P = tracer._givens_path(caught[0], aux.count, u)
    steps = P[1:] @ P[:-1].transpose(0, 2, 1) - np.eye(aux.count)
    largest = float(np.max(np.linalg.norm(steps, ord=2, axis=(1, 2))))
    return math.degrees(2.0 * math.asin(min(1.0, largest / 2.0)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="repeats per timing (default 5)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    print(f"{'case':<36} {'K':>3} {'trace_ms':>8} {'point_us':>8} {'newton_us':>9} {'step_us':>7} "
          f"{'residual_us':>11} {'map_us':>6} {'tangent_us':>10} {'jacobian_us':>11} "
          f"{'newton_calls':>12} "
          f"{'newton_iterations':>17} {'jacobian_evaluations':>20} {'jacobian_checks':>15} "
          f"{'svds':>5} {'svd_us':>6} "
          f"{'transport_ms':>12} {'closing_deg':>11} {'lift_deg':>8} {'dw_ms':>6}")
    for label, system, opts, section in traced_cases():
        seed, tol = opts.seeds[0], opts.tolerances
        with recording() as record:
            loop, _, _ = _trace(system, seed, opts)
        svds = svd_calls(lambda: _trace(system, seed, opts))
        trace_s = best_of(args.repeat, lambda: _trace(system, seed, opts))
        points, tangents = loop.points, loop.tangents
        steps = np.linalg.norm(np.roll(points, -1, axis=0) - points, axis=1)
        predictors = points + steps[:, None] * tangents
        chords = [system.factored(p, "at a sample")[1] for p in points]

        def corrections():
            for predictor, chord in zip(predictors, chords):
                _newton(system, predictor, tol, max_iter=WALK_MAX_ITER, first=chord)

        with recording() as replayed:
            corrections()
        corrections_s = best_of(args.repeat, corrections)
        newton_s = corrections_s / len(loop)
        step_s = corrections_s / replayed["newton_iterations"]

        def residuals_at_samples():
            for p in points:
                system.residual(p)

        residual_s = best_of(args.repeat, residuals_at_samples) / len(loop)
        evaluator = system.spec.evaluator

        def maps_at_samples():
            for p in points:
                evaluator(p)

        map_s = best_of(args.repeat, maps_at_samples) / len(loop)
        previous = np.roll(tangents, 1, axis=0)

        def tangents_at_samples():
            for p, t in zip(points, previous):
                _tangent_of(system, p, t, tol)

        tangent_s = best_of(args.repeat, tangents_at_samples) / len(loop)

        def jacobians_at_samples():
            for p in points:
                system.raw_jacobian(p)

        jacobian_s = best_of(args.repeat, jacobians_at_samples) / len(loop)
        system_jacobians = [system.assemble(p, system.raw_jacobian(p)) for p in points]

        def svds_at_samples():
            for J in system_jacobians:
                tracer._svd(J)

        svd_s = best_of(args.repeat, svds_at_samples) / len(loop)
        transport_ms = closing_deg = lift_deg = dw_ms = "-"
        if section is not None:
            normals = sphere_ambient(section.embedding_dimension).manifold_normals
            aux = transport_closed_frame(loop, normals, tol)
            transport_s = best_of(args.repeat, lambda: transport_closed_frame(loop, normals, tol))
            dw_s = best_of(
                args.repeat, lambda: _section_derivative_fields(section, system, loop, aux)
            )
            transport_ms, dw_ms = f"{transport_s * 1e3:.2f}", f"{dw_s * 1e3:.2f}"
            closing_deg = f"{closing_degrees(loop, normals, tol):.2g}"
            lift_deg = f"{math.degrees(tol.lift_angle_max):.1f}"
        print(f"{label:<36} {len(loop):>3} {trace_s * 1e3:>8.2f} {trace_s * 1e6 / len(loop):>8.1f} "
              f"{newton_s * 1e6:>9.1f} {step_s * 1e6:>7.1f} {residual_s * 1e6:>11.1f} "
              f"{map_s * 1e6:>6.1f} {tangent_s * 1e6:>10.1f} "
              f"{jacobian_s * 1e6:>11.1f} "
              f"{record['newton_calls']:>12} {record['newton_iterations']:>17} "
              f"{record['jacobian_evaluations']:>20} {record.get('jacobian_checks', 0):>15} "
              f"{svds:>5} {svd_s * 1e6:>6.1f} {transport_ms:>12} "
              f"{closing_deg:>11} {lift_deg:>8} {dw_ms:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
