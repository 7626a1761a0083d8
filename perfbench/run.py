"""fbk benchmark: time to a verified Z2 bit, end to end and per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): `scenarios` runs the registry through
run_scenario, `lift-generic` classifies dense generic rotation loops with
loop_class, `link-files` loads JSON link files and builds their invariant
report. Each runs in one fresh worker process with BLAS threads pinned to 1,
as one closed-loop client. fbk is imported from `src/` of the checkout this
file sits in; without it the benchmark exits with code 2.

--trace 0 prints the end-to-end metrics. setup_s is the median, over
SETUP_PROBES fresh workers, of the time from starting the worker until it
is ready to run its first case (interpreter, `import fbk`, inputs).
All times are scaled by the calibration slice (calibration.py), timed in
the worker after every case and, for set-up, right after it.
--trace 1 prints the per-layer metrics from a traced run, plus the import
times parsed from `python -X importtime -c "import fbk"`.

Failures are counted in the result line as `failed` out of `attempted`; a
run with a wrong bit or an untyped error reports `"correct": false`. Each
run also prints a `record` line with the machine, the work-count
fingerprint and whether it matches perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import statistics
import subprocess
import sys
import time

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5
IMPORT_PROBES = 3
# A run, with all its workers, must end within 180 s.
RUN_BUDGET_S = 170.0
PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for pin in PINS:
        env[pin] = "1"
    return env


def run_worker(args, setup_only: bool, deadline: float) -> tuple[float, dict]:
    """Start a worker; return its set-up seconds and its result."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], deadline - time.monotonic())[0]:
            raise TimeoutError("worker set-up ran past the time budget")
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if first.strip() != "ready":
            raise RuntimeError(f"worker did not become ready (exit {proc.wait()})")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    return setup_s, json.loads(out.strip().splitlines()[-1])


def parse_importtime(text: str) -> dict:
    """Cumulative ms of `fbk` and of the outermost scipy modules, from -X importtime."""
    nodes = []  # (depth, name, cumulative_us, children); the log is post-order
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        depth = len(m.group(3)) // 2
        children = []
        while nodes and nodes[-1][0] > depth:
            children.insert(0, nodes.pop())
        nodes.append((depth, m.group(4), int(m.group(2)), children))

    def walk(node, inside_scipy: bool):
        _depth, name, cumulative, children = node
        is_scipy = name == "scipy" or name.startswith("scipy.")
        fbk_us = cumulative if name == "fbk" else 0
        scipy_us = cumulative if is_scipy and not inside_scipy else 0
        for child in children:
            f, s = walk(child, inside_scipy or is_scipy)
            fbk_us += f
            scipy_us += s
        return fbk_us, scipy_us

    fbk_us = scipy_us = 0
    for node in nodes:
        f, s = walk(node, False)
        fbk_us += f
        scipy_us += s
    return {"import.fbk_ms": fbk_us / 1e3, "import.scipy_ms": scipy_us / 1e3}


def import_times(deadline: float) -> dict:
    """Median over fresh interpreters, each scaled by slices run after the import."""
    probe = "import fbk\nimport calibration, json\nprint(json.dumps([calibration.timed_slice() for _ in range(%d)]))"
    env = worker_env()
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    probes = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", probe % calibration.SETUP_SLICES],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()), check=True,
        )
        scale = calibration.scale(json.loads(proc.stdout))
        probes.append({k: v * scale for k, v in parse_importtime(proc.stderr).items()})
    return {key: statistics.median(p[key] for p in probes) for key in probes[0]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(
        ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
        capture_output=True, text=True,
    )
    return proc.stdout.strip() or None


def machine(versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        **versions,
        "blas_pins": {pin: worker_env()[pin] for pin in PINS},
        "git_commit": git_commit(),
    }


def fingerprint_changes(workload: str, fingerprint: dict) -> list:
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        baseline = json.load(fh)["fingerprint"][workload]
    return sorted(k for k in set(baseline) | set(fingerprint) if baseline.get(k) != fingerprint.get(k))


def main(argv=None) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    spec = load_spec()
    parser = argparse.ArgumentParser(description="fbk benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fbk", "__init__.py")):
        print(f"no fbk sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    probes = []
    if args.trace == 0:
        probes = [run_worker(args, True, deadline) for _ in range(SETUP_PROBES - 1)]
    setup_s, result = run_worker(args, False, deadline)
    probes.append((setup_s, result))
    setups = [s * calibration.scale(r["setup_slices"]) for s, r in probes]

    metrics = result["metrics"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    changed = fingerprint_changes(args.workload, result["fingerprint"]) if not args.tiny else []
    if changed:
        print(f"work-count fingerprint differs from baseline in: {', '.join(changed)}",
              file=sys.stderr)
    if args.trace == 0:
        metrics["setup_s"] = statistics.median(setups)
    else:
        metrics.update(import_times(deadline))
        metrics["work.fingerprint_changed"] = len(changed)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(result.pop("versions")),
        "setup_probes_s": [s for s, _ in probes],
        "setup_scaled_s": setups,
        "fingerprint_changed": changed,
        **{k: v for k, v in result.items() if k != "metrics"},
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
