"""Per-layer timing of frame assembly: `frame_matrix_loop` per loop, and a link's report.

    python tools/frame_timing.py
    python tools/frame_timing.py --repeat 1

fbk is imported from `src/` of the checkout this file sits in. For every
registered scenario that frames closed-form circles (`Scenario.link`), at
its defaults and at the override variants of the acceptance suite, the tool
builds the scenario's FramedLink and prints one line:

  - K, the samples per component, and the number of components;
  - fresh_ms: milliseconds per `frame_matrix_loop` call on a freshly built
    loop, so the sample tangents (central differences of the loop's
    resampler) are computed inside the call;
  - cached_ms: milliseconds per call on the same loop again, its sample
    tangents cached;
  - frames_assembled: the frames one pass over the components assembles,
    as fbk.recording() notes them.

Each time is per component, the minimum over --repeat freshly built links.
Then, for the reports whose frame loops refine (sphere-great-circle on 16
samples under lift_angle_max = 0.05, and the traced refining runs of
`tools/report_digest.py`, TRACED_REFINERS), one line each:

  - report_ms: milliseconds per report (`Scenario.run`, tracing included
    for the traced ones), the minimum over --repeat calls;
  - refiner_calls: the calls of the frame loops' refiners, one per
    refinement level of each refining loop, whatever its number of params;
  - frames_assembled, lift_steps, newton_calls and jacobian_evaluations,
    as fbk.recording() notes them in one report: the frames of the samples
    and of every refined param, the lifted steps, the Newton corrections
    (the walk's, and one per refined param of a traced loop), and the
    map's Jacobians (the walk's, and at a refined param of a traced loop
    the ones of its correction and one that its tangent, pull-back,
    transport and dw share).

Then, for links shaped like link files (4 circles of 64 samples in R^4,
R^8 and R^12, moving 4 coordinates, without resamplers), one line each:

  - report_ms: milliseconds per `invariant_report` of the link, which
    assembles all its components' frames as one stack and lifts them
    together, the minimum over --repeat calls;
  - frames_assembled, as above; qr_calls, the calls of the batched QR
    `numkit._qr`; det_calls, the calls of `numpy.linalg.det` (0: the QR
    gives each frame's orientation); and givens_passes, the calls of the
    lift's Givens kernel `spinlift._rotors`, each in one report.

The R^8 link is run once more with its last component coarse (its framing
turned 16 more times, past the lift's angle bound at every step), so its
report raises RefinementExhausted: a failing report costs one pass too.

Last, the link-file load, for the same three links written as JSON link
files and for a dense Hopf link (two linked circles of 4000 and of 20000
samples), one line each:

  - parse_ms: milliseconds to read the file's bytes and decode them into
    a document with orjson, as `load_link_file` does;
  - validate_ms: milliseconds per `load_link` of that document (the
    arrays, the document's checks and the disjointness check), the rest
    of `load_link_file`;
  - disjoint_ms: milliseconds per disjointness check of its components'
    samples, `framedlink._check_disjoint`;
  - disjoint_pairs: the candidate segment pairs of that check's sweep, as
    fbk.recording() notes them.

Each time is the minimum over --repeat calls. Nothing is asserted about
the times.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time

import numpy as np
import orjson

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tools"))

from fbk import frame_matrix_loop, framedlink, numkit, recording, spinlift, stacked  # noqa: E402
from fbk.errors import RefinementExhausted  # noqa: E402
from fbk.framedlink import _check_disjoint, invariant_report, load_link  # noqa: E402
from fbk.cli import _parse_override  # noqa: E402
from fbk.scenarios import REGISTRY, resolve_options  # noqa: E402
from report_digest import ACCEPTANCE_OVERRIDES, TRACED_REFINERS  # noqa: E402


def resolved(runs):
    """(label, scenario, options) of (name, --set items) runs, parsed as the CLI parses `--set`."""
    for name, sets in runs:
        scenario = REGISTRY[name]
        overrides = dict(_parse_override(item) for item in sets)
        yield " ".join([name, *sets]), scenario, resolve_options(scenario, overrides)


def framed_cases():
    """(label, scenario, options) per framed scenario run.

    The defaults of every scenario with a `link`, then the acceptance
    overrides of those scenarios.
    """
    runs = [(name, ()) for name, scenario in sorted(REGISTRY.items()) if scenario.link]
    runs += [(name, sets) for name, sets in ACCEPTANCE_OVERRIDES if REGISTRY[name].link]
    return resolved(runs)


def refining_cases():
    """(label, scenario, options) of the reports whose frame loops refine."""
    coarse = ("sphere-great-circle", ("samples=16", "lift_angle_max=0.05"))
    return resolved([coarse, *TRACED_REFINERS])


def timed(scenario, options, repeat: int):
    """(K, components, fresh_ms, cached_ms, frames_assembled) of one case."""
    tol = options["tolerances"]
    fresh = cached = float("inf")
    for _ in range(repeat):
        link = scenario.link(options)
        first = second = 0.0
        for loop, framing in link.components:
            start = time.perf_counter()
            frame_matrix_loop(loop, framing, link.ambient, tol)
            middle = time.perf_counter()
            frame_matrix_loop(loop, framing, link.ambient, tol)
            first += middle - start
            second += time.perf_counter() - middle
        count = len(link.components)
        fresh = min(fresh, first / count)
        cached = min(cached, second / count)
    link = scenario.link(options)
    with recording() as record:
        for loop, framing in link.components:
            frame_matrix_loop(loop, framing, link.ambient, tol)
    k = len(link.components[0][0])
    return k, count, 1e3 * fresh, 1e3 * cached, record.get("frames_assembled", 0)


def timed_refining(scenario, options, repeat: int):
    """(report_ms, refiner_calls, frames, lift steps, Newton calls, Jacobians) of one report."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        scenario.run(options)
        best = min(best, time.perf_counter() - start)
    calls = 0
    make_refiner = framedlink._frame_refiner

    def counted_refiner(*args):
        refiner = make_refiner(*args)
        if refiner is None:
            return None

        @stacked
        def counted(ts):
            nonlocal calls
            calls += 1
            return refiner(ts)

        return counted

    framedlink._frame_refiner = counted_refiner
    try:
        with recording() as record:
            scenario.run(options)
    finally:
        framedlink._frame_refiner = make_refiner
    keys = ("frames_assembled", "lift_steps", "newton_calls", "jacobian_evaluations")
    return 1e3 * best, calls, *[record.get(key, 0) for key in keys]


def link_file_shaped(rng, dim: int, components: int = 4, samples: int = 64) -> dict:
    """A link document like a link file: twisted circles whose motion stays in coordinates 0-3.

    Component i is the clockwise circle in the (0, 1) plane with a small
    random wobble in coordinates 0-3, shifted by 3 i along e_3, framed by
    the radial field and e_2 .. e_{dim-1} with the first two fields turned
    i times.
    """
    ang = 2.0 * math.pi * np.arange(samples) / samples
    comps = []
    for i in range(components):
        pts = np.zeros((samples, dim))
        pts[:, 0], pts[:, 1] = np.cos(ang), -np.sin(ang)
        for k in (2, 3):
            u, v = rng.normal(size=(2, 4)) * 0.02
            pts[:, :4] += np.outer(np.cos(k * ang), u) + np.outer(np.sin(k * ang), v)
        pts[:, 3] += 3.0 * i
        fields = np.zeros((dim - 1, samples, dim))
        fields[0, :, :2] = pts[:, :2]
        for j in range(1, dim - 1):
            fields[j, :, j + 1] = 1.0
        c, s = np.cos(i * ang)[:, None], np.sin(i * ang)[:, None]
        fields[0], fields[1] = c * fields[0] + s * fields[1], c * fields[1] - s * fields[0]
        comps.append({"points": pts.tolist(), "framing": fields.tolist()})
    return {"ambient": {"kind": "euclidean", "dimension": dim}, "components": comps}


def hopf_link(samples: int) -> dict:
    """The link document of a Hopf link in R^4 with `samples` samples per circle.

    The clockwise unit circle in the (0, 1) plane, framed by its radial
    field, e_2 and e_3, and its image under the quarter turn of the (1, 2)
    plane moved by e_0, which threads it once.
    """
    ang = 2.0 * math.pi * np.arange(samples) / samples
    pts = np.zeros((samples, 4))
    pts[:, 0], pts[:, 1] = np.cos(ang), -np.sin(ang)
    fields = np.zeros((3, samples, 4))
    fields[0, :, :2] = pts[:, :2]
    fields[1, :, 2] = fields[2, :, 3] = 1.0
    turn = np.eye(4)[[0, 2, 1, 3]] * [1.0, -1.0, 1.0, 1.0]
    comps = [
        {"points": pts.tolist(), "framing": fields.tolist()},
        {"points": (pts @ turn.T + np.eye(4)[0]).tolist(), "framing": (fields @ turn.T).tolist()},
    ]
    return {"ambient": {"kind": "euclidean", "dimension": 4}, "components": comps}


def coarse_last(document: dict, turns: int = 16) -> dict:
    """The link document with its last component's first two fields turned `turns` more times."""
    comps = [dict(comp) for comp in document["components"]]
    fields = np.array(comps[-1]["framing"])
    ang = 2.0 * math.pi * turns * np.arange(fields.shape[1]) / fields.shape[1]
    c, s = np.cos(ang)[:, None], np.sin(ang)[:, None]
    fields[0], fields[1] = c * fields[0] + s * fields[1], c * fields[1] - s * fields[0]
    comps[-1]["framing"] = fields.tolist()
    return {**document, "components": comps}


def report(link):
    """invariant_report of the link; a link too coarse to lift raises RefinementExhausted."""
    try:
        invariant_report(link)
    except RefinementExhausted:
        pass


def timed_report(link, repeat: int):
    """(report_ms, frames_assembled, qr_calls, det_calls, givens_passes) of one link's report."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        report(link)
        best = min(best, time.perf_counter() - start)
    calls = {"_qr": 0, "det": 0, "_rotors": 0}
    spied = [(numkit, "_qr"), (np.linalg, "det"), (spinlift, "_rotors")]
    originals = [getattr(module, name) for module, name in spied]
    for (module, name), real in zip(spied, originals):

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        setattr(module, name, counted)
    try:
        with recording() as record:
            report(link)
    finally:
        for (module, name), real in zip(spied, originals):
            setattr(module, name, real)
    frames = record.get("frames_assembled", 0)
    return 1e3 * best, frames, calls["_qr"], calls["det"], calls["_rotors"]


def timed_load(document: dict, directory: str, repeat: int):
    """(parse_ms, validate_ms, disjoint_ms, disjoint_pairs) of one link document as a file."""
    path = os.path.join(directory, "link.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
    parse = validate = check = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        with open(path, "rb") as fh:
            parsed = orjson.loads(fh.read())
        middle = time.perf_counter()
        link = load_link(parsed)
        parse = min(parse, middle - start)
        validate = min(validate, time.perf_counter() - middle)
    points = [loop.points for loop, _ in link.components]
    for _ in range(repeat):
        start = time.perf_counter()
        _check_disjoint(points)
        check = min(check, time.perf_counter() - start)
    with recording() as record:
        _check_disjoint(points)
    return 1e3 * parse, 1e3 * validate, 1e3 * check, record.get("disjoint_pairs", 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=20, help="freshly built links per case")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    print(f"{'case':40s} {'K':>4s} {'loops':>5s} {'fresh_ms':>9s} {'cached_ms':>9s} "
          f"{'frames_assembled':>16s}")
    for label, scenario, options in framed_cases():
        k, count, fresh, cached, frames = timed(scenario, options, args.repeat)
        print(f"{label:40s} {k:4d} {count:5d} {fresh:9.3f} {cached:9.3f} {frames:16d}")
    print()
    print(f"{'refining report':52s} {'report_ms':>9s} {'refiner_calls':>13s} "
          f"{'frames_assembled':>16s} {'lift_steps':>10s} {'newton_calls':>12s} "
          f"{'jacobian_evaluations':>20s}")
    for label, scenario, options in refining_cases():
        report_ms, calls, frames, steps, newton, jacobians = timed_refining(
            scenario, options, args.repeat
        )
        print(f"{label:52s} {report_ms:9.3f} {calls:13d} {frames:16d} {steps:10d} {newton:12d} "
              f"{jacobians:20d}")
    print()
    print(f"{'link-file-shaped link':40s} {'K':>4s} {'loops':>5s} {'report_ms':>9s} "
          f"{'frames_assembled':>16s} {'qr_calls':>8s} {'det_calls':>9s} {'givens_passes':>13s}")
    rng = np.random.default_rng(7)
    documents = {}
    for dim in (4, 8, 12):
        documents[f"R{dim} 4x64"] = link_file_shaped(rng, dim)
    reports = {**documents, "R8 4x64, last coarse: raises": coarse_last(documents["R8 4x64"])}
    for label, document in reports.items():
        link = load_link(document)
        report_ms, frames, qr_calls, det_calls, passes = timed_report(link, args.repeat)
        count, k = len(link.components), len(link.components[0][0])
        print(f"{label:40s} {k:4d} {count:5d} {report_ms:9.3f} {frames:16d} {qr_calls:8d} "
              f"{det_calls:9d} {passes:13d}")
    for samples in (4000, 20000):
        documents[f"Hopf R4 2x{samples}"] = hopf_link(samples)
    print()
    print(f"{'link-file load':40s} {'K':>5s} {'loops':>5s} {'parse_ms':>9s} {'validate_ms':>11s} "
          f"{'disjoint_ms':>11s} {'disjoint_pairs':>14s}")
    with tempfile.TemporaryDirectory() as directory:
        for label, document in documents.items():
            parse_ms, validate_ms, disjoint_ms, pairs = timed_load(document, directory, args.repeat)
            comps = document["components"]
            print(f"{label:40s} {len(comps[0]['points']):5d} {len(comps):5d} {parse_ms:9.3f} "
                  f"{validate_ms:11.3f} {disjoint_ms:11.3f} {pairs:14d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
