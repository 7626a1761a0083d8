"""Per-layer timing of frame assembly: `frame_matrix_loop` per loop, with its frame count.

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

Each time is per component, the minimum over --repeat freshly built links;
nothing is asserted about it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tools"))

from fbk import frame_matrix_loop, recording  # noqa: E402
from fbk.cli import _parse_override  # noqa: E402
from fbk.scenarios import REGISTRY, resolve_options  # noqa: E402
from report_digest import ACCEPTANCE_OVERRIDES  # noqa: E402


def framed_cases():
    """(label, scenario, options) per framed scenario run.

    The defaults of every scenario with a `link`, then the acceptance
    overrides of those scenarios, parsed as the CLI parses `--set`.
    """
    runs = [(name, ()) for name, scenario in sorted(REGISTRY.items()) if scenario.link]
    runs += [(name, sets) for name, sets in ACCEPTANCE_OVERRIDES if REGISTRY[name].link]
    for name, sets in runs:
        scenario = REGISTRY[name]
        overrides = dict(_parse_override(item) for item in sets)
        yield " ".join([name, *sets]), scenario, resolve_options(scenario, overrides)


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
