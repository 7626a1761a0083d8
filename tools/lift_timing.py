"""Per-layer timings of the spin lift: the rotor kernel, whole loops, first-use tables.

    python tools/lift_timing.py
    python tools/lift_timing.py --repeat 1

fbk is imported from `src/` of the checkout this file sits in. For each m in
3, 4, 6, 8 and 12 the tool builds one generic loop Q P Q^T C(t), seed 0, in
SO(m) that moves every coordinate (P turns in a plane, C a small Cayley
wobble; the m = 3 loop is coarse, so each of its steps is split once) and
prints one line:

  - K, the loop's samples, and lift_steps and refinement_depth, as
    fbk.recording() notes them for one loop_class call;
  - tables_ms: the first call of _spin_tables(m) after clearing its cache;
  - lift_us: microseconds per sample of the rotor kernel _rotors on the
    loop's K samples relative to the first, restricted to the coordinates
    they move, as loop_class lifts them; one batch;
  - loop_class_ms: milliseconds per loop_class call, refinement included.

Times are the minimum over --repeat repeats, each of a fixed number of
calls; nothing is asserted about them.
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

from fbk import recording  # noqa: E402
from fbk.spinlift import (  # noqa: E402
    RotationLoop,
    _moved_coordinates,
    _rotors,
    _spin_tables,
    loop_class,
)

# (m, turns, K): the north star's m = 3, 4, 6 and 12, and m = 8, the largest
# dimension of the lift-generic benchmark workload.
LOOPS = ((3, 2, 12), (4, 2, 64), (6, 2, 24), (8, 1, 64), (12, 1, 16))
CALLS = 20


def generic_loop(rng: np.random.Generator, m: int, turns: int, samples: int) -> RotationLoop:
    """Q P(turns) Q^T C(t) with refiner; its class is turns mod 2."""
    Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    if np.linalg.det(Q) < 0.0:
        Q[:, 0] = -Q[:, 0]
    a, b = rng.normal(size=(2, m, m))
    a, b = a - a.T, b - b.T
    scale = 0.15 / (2.0 * (np.linalg.norm(a) + np.linalg.norm(b)))
    eye = np.eye(m)

    def at(t: float) -> np.ndarray:
        ang = 2.0 * math.pi * t
        W = scale * (math.cos(ang) * a + math.sin(ang) * b)
        P = eye.copy()
        P[0, 0] = P[1, 1] = math.cos(turns * ang)
        P[1, 0] = math.sin(turns * ang)
        P[0, 1] = -P[1, 0]
        return Q @ P @ Q.T @ np.linalg.solve(eye - W, eye + W)

    params = [k / samples for k in range(samples)]
    return RotationLoop([at(t) for t in params], at, params)


def best_of(repeat: int, fn, calls: int = CALLS) -> float:
    """Seconds per call, the minimum over repeats of `calls` calls each."""
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - start) / calls)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="repeats per timing (default 5)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    rng = np.random.default_rng(0)
    print(f"{'m':>3} {'K':>4} {'lift_steps':>10} {'refinement_depth':>16} "
          f"{'tables_ms':>9} {'lift_us':>7} {'loop_class_ms':>13}")
    for m, turns, samples in LOOPS:
        loop = generic_loop(rng, m, turns, samples)
        _spin_tables.cache_clear()
        start = time.perf_counter()
        _spin_tables(m)
        tables_s = time.perf_counter() - start
        with recording() as record:
            bit = loop_class(loop)
        if int(bit) != turns % 2:
            print(f"m = {m}: loop class {int(bit)}, expected {turns % 2}", file=sys.stderr)
            return 1
        s = loop.samples
        relative = _moved_coordinates(s @ s[0].T)
        lift_s = best_of(args.repeat, lambda: _rotors(relative)) / len(relative)
        loop_s = best_of(args.repeat, lambda: loop_class(loop))
        print(f"{m:>3} {len(loop):>4} {record['lift_steps']:>10} {record['refinement_depth']:>16} "
              f"{tables_s * 1e3:>9.2f} {lift_s * 1e6:>7.2f} {loop_s * 1e3:>13.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
