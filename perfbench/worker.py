"""One workload in one fresh, single-threaded process.

The worker imports fbk, builds the seeded cases, prints `ready` and then
acts as a single closed-loop client: each case starts only after the
previous one has finished and been checked. The timed region covers
`case.run()` only. Before it, a garbage collection; after it, checking the
bits and one calibration slice (see calibration.py). The heap built during
set-up is frozen (gc.freeze), so the collector's work in a case does not
depend on which cases ran before it. The last line of standard output is a
JSON object for run.py.

  --trace 0: one warm-up round, timed rounds until --seconds have passed,
             then one traced round that yields the work-count fingerprint.
  --trace 1: one warm-up round, untraced rounds for half of --seconds, then
             the same number of rounds traced, for per-layer numbers and
             the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = os.path.join(HERE, ".work")
# The benchmark's own span around each case; its self time is unattributed.
CASE_SPAN = "bench.case"

FINGERPRINT = (
    ("lift_steps", "spinlift.rotor_from_rotation"),
    ("refiner_evaluations", "spinlift.refine"),
    ("frames_assembled", "numkit.orthonormalize"),
    ("kernel_direction_calls", "numkit.kernel_direction"),
    ("jacobian_fd_calls", "numkit.jacobian_fd"),
)


class Tally:
    """Outcomes and timings of the cases run in one phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.untyped = 0
        self.bits = 0
        self.case_s: list[float] = []
        self.slice_s: list[float] = []
        self.outputs: list = []

    @property
    def busy_s(self) -> float:
        return sum(self.case_s)

    @property
    def scale(self) -> float:
        return calibration.scale(self.slice_s)


def bits_of(output):
    if hasattr(output, "kappa"):
        return [int(output.kappa), [int(c.index) for c in output.components]]
    return int(output)


def run_round(cases, tally: Tally, fbk_error, recorder=None, labels=None):
    for case in cases:
        gc.collect()
        run_case(case, tally, fbk_error, recorder, labels)
        tally.slice_s.append(calibration.timed_slice())


def run_case(case, tally: Tally, fbk_error, recorder, labels):
    if recorder is not None:
        recorder.case = len(labels)
        labels.append(case.case_id)
    tally.attempted += 1
    start = time.perf_counter()
    try:
        if recorder is None:
            output = case.run()
        else:
            output = recorder.span(CASE_SPAN, case.run)
    except fbk_error as exc:
        tally.case_s.append(time.perf_counter() - start)
        tally.failed += 1
        tally.outputs.append(None)
        print(f"case {case.case_id}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return
    except Exception:  # noqa: BLE001 - an untyped error fails the run; keep going
        tally.case_s.append(time.perf_counter() - start)
        tally.failed += 1
        tally.untyped += 1
        tally.outputs.append(None)
        print(f"case {case.case_id}: untyped error", file=sys.stderr)
        traceback.print_exc()
        return
    tally.case_s.append(time.perf_counter() - start)
    tally.outputs.append(bits_of(output))
    problems = case.mismatches(output)
    if problems:
        tally.failed += 1
        tally.wrong += 1
        print(f"case {case.case_id}: wrong bit: {'; '.join(problems)}", file=sys.stderr)
    else:
        tally.bits += case.bits


def rounds_for(cases, tally: Tally, fbk_error, seconds: float) -> int:
    """Whole rounds until `seconds` of wall time have passed (at least one)."""
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        run_round(cases, tally, fbk_error)
        rounds += 1
    return rounds


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def per_round(value, rounds: int):
    return value // rounds if value % rounds == 0 else value / rounds


def fingerprint(summary: dict, traced_samples: int, rounds: int) -> dict:
    out = {key: per_round(summary.get(name, {}).get("calls", 0), rounds) for key, name in FINGERPRINT}
    out["traced_samples"] = per_round(traced_samples, rounds)
    return out


def case_scales(timed: Tally) -> list:
    """Per case, the scale from the slices just before and just after it."""
    return [calibration.scale(timed.slice_s[max(0, i - 1):i + 1]) for i in range(len(timed.case_s))]


def end_to_end(timed: Tally, scales: list) -> dict:
    times_ms = [1e3 * f * s for f, s in zip(scales, timed.case_s)]
    return {
        "bits_per_s": timed.bits / (sum(times_ms) / 1e3),
        "case_p50_ms": quantile(times_ms, 0.50),
        "case_p90_ms": quantile(times_ms, 0.90),
    }


def layer_metrics(workload, cases, recorder, labels, rounds, scale) -> dict:
    """Per-layer numbers per round, times scaled like the end-to-end ones."""
    from workloads import SCENARIO_NAMES, scenario_name

    summary = recorder.summary()

    def stat(name, key):
        return summary.get(name, {}).get(key, 0)

    def calls(name):
        return stat(name, "calls") / rounds

    def self_ms(name):
        return scale * stat(name, "self_ns") / rounds / 1e6

    def us_per_call(name):
        n = stat(name, "calls")
        return scale * stat(name, "total_ns") / n / 1e3 if n else 0.0

    m = {}
    m["spinlift.loop_class.self_ms"] = self_ms("spinlift.loop_class")
    m["spinlift.rotor_from_rotation.calls"] = calls("spinlift.rotor_from_rotation")
    m["spinlift.rotor_from_rotation.us_per_call"] = us_per_call("spinlift.rotor_from_rotation")
    m["spinlift.refine.calls"] = calls("spinlift.refine")
    m["spinlift.refine.self_ms"] = self_ms("spinlift.refine")
    m["framedlink.frame_matrix_loop.self_ms"] = self_ms("framedlink.frame_matrix_loop")
    m["numkit.orthonormalize.calls"] = calls("numkit.orthonormalize")
    m["numkit.orthonormalize.us_per_call"] = us_per_call("numkit.orthonormalize")
    m["framedlink.invariant_report.self_ms"] = self_ms("framedlink.invariant_report")
    load_ms = 1e-3 * us_per_call("framedlink.load_link_file")
    m["framedlink.load_link_file.ms"] = load_ms
    bytes_per_load = sum(case.size_bytes for case in cases) / len(cases)
    m["framedlink.load_link_file.mb_per_s"] = bytes_per_load / 1e3 / load_ms if load_ms else 0.0
    m["tracer.trace_component.self_ms"] = self_ms("tracer.trace_component")
    m["tracer.trace_component.calls"] = calls("tracer.trace_component")
    m["tracer.section_zero_loops.self_ms"] = self_ms("tracer.section_zero_loops")
    m["tracer.induced_framing.self_ms"] = self_ms("tracer.induced_framing")
    m["tracer.transport_closed_frame.self_ms"] = self_ms("tracer.transport_closed_frame")
    m["tracer.traced_samples"] = recorder.traced_samples / rounds
    for name in ("kernel_direction", "least_squares", "jacobian_fd"):
        m[f"numkit.{name}.calls"] = calls(f"numkit.{name}")
        m[f"numkit.{name}.us_per_call"] = us_per_call(f"numkit.{name}")
    per_name: dict[str, list] = {name: [] for name in SCENARIO_NAMES}
    if workload == "scenarios":
        case_span = recorder.names.index(CASE_SPAN)
        for name_id, _parent, case, start, end in recorder.spans:
            if name_id == case_span:
                per_name[scenario_name(labels[case])].append(scale * (end - start) / 1e6)
    for name, times in per_name.items():
        m[f"scenarios.{name}.ms"] = statistics.fmean(times) if times else 0.0
    m["scenarios.unattributed_ms"] = self_ms("scenarios.run_scenario")
    m["trace.unattributed_ms"] = self_ms(CASE_SPAN)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import fbk

    src = os.path.join(os.path.dirname(HERE), "src")
    if os.path.commonpath([os.path.abspath(fbk.__file__), src]) != src:
        print(f"fbk was imported from {fbk.__file__}, not from {src}", file=sys.stderr)
        return 2
    import numpy
    import scipy
    from fbk.errors import FbkError

    import tracing
    from workloads import build_cases

    os.makedirs(WORKDIR, exist_ok=True)
    cases = build_cases(args.workload, args.seed, WORKDIR, args.tiny)
    gc.freeze()
    print("ready", flush=True)
    # Machine speed right after set-up, to scale the set-up time (run.py).
    setup_slices = [calibration.timed_slice() for _ in range(calibration.SETUP_SLICES)]
    if args.setup_only:
        print(json.dumps({"setup_slices": setup_slices}), flush=True)
        return 0

    warm = Tally()
    run_round(cases, warm, FbkError)
    result = {
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "cases_per_round": len(cases),
        "setup_slices": setup_slices,
    }
    recorder = tracing.Recorder()
    labels: list[str] = []
    if args.trace == 0:
        timed = Tally()
        rounds = rounds_for(cases, timed, FbkError, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        counted = Tally()
        recorder.install()
        try:
            run_round(cases, counted, FbkError, recorder, labels)
        finally:
            recorder.uninstall()
        result["fingerprint"] = fingerprint(recorder.summary(), recorder.traced_samples, 1)
        result["metrics"] = {**end_to_end(timed, case_scales(timed)), "peak_rss_mb": peak_rss_mb}
        result["unscaled"] = end_to_end(timed, [1.0] * len(timed.case_s))
        tallies = [warm, timed, counted]
    else:
        untraced = Tally()
        rounds = rounds_for(cases, untraced, FbkError, args.seconds / 2.0)
        timed = Tally()
        recorder.install()
        try:
            for _ in range(rounds):
                run_round(cases, timed, FbkError, recorder, labels)
        finally:
            recorder.uninstall()
        result["fingerprint"] = fingerprint(recorder.summary(), recorder.traced_samples, rounds)
        metrics = layer_metrics(args.workload, cases, recorder, labels, rounds, timed.scale)
        metrics["trace.overhead_share"] = (timed.scale * timed.busy_s) / (
            untraced.scale * untraced.busy_s
        )
        result["metrics"] = metrics
        result["spans"] = len(recorder.spans)
        recorder.save(os.path.join(WORKDIR, f"spans-{args.workload}-seed{args.seed}.npz"))
        tallies = [warm, untraced, timed]
    result["scale"] = timed.scale
    result["rounds"] = rounds
    result["attempted"] = timed.attempted
    result["failed"] = timed.failed
    result["correct"] = all(t.wrong == 0 and t.untyped == 0 for t in tallies)
    result["other_failures"] = sum(t.failed for t in tallies) - timed.failed
    digest = hashlib.sha256(json.dumps(warm.outputs).encode()).hexdigest()
    result["bits_digest"] = digest[:16]
    result["bits_repeat"] = all(
        t.outputs == warm.outputs * (len(t.outputs) // len(warm.outputs)) for t in tallies
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
