"""Benchmark of the polytorus command line: census, analyze, the ε-tube and
the cyclic-polytope realization.

    python3 bench/run.py --workload census-n9 --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  Each iteration runs the workload's job
list once, in a fresh interpreter (bench/worker.py), because the census is
memoized per process.  Iterations repeat while the next one is expected to
end within --seconds, and at least MIN_ITERATIONS run.

With --trace 0 the last stdout line reports the end-to-end metrics, each the
median over the iterations.  ``wall_ref`` and ``cpu_ref`` are the job list's
wall and CPU time in units of the worker's speed probe: the harmonic mean
time of a fixed reference computation sampled throughout the same timed
region.  On a shared host the speed of pure-Python code drifts by 20-40%
over minutes, and both times drift with it; their ratio does not.  The raw
seconds are in the line before the result.  With --trace 1 untraced and traced iterations
alternate; the last line reports the per-layer metrics of the traced ones
and ``trace.overhead_frac``, the traced ``wall_ref`` over the untraced one,
minus 1.  The line before it records the seed, git SHA, nproc, the Python
version and every iteration.  Spans of the last traced iteration are kept in
bench/_work/WORKLOAD/spans.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ITERATIONS = 2
SETUP_SAMPLES = 7
RUN_DEADLINE_S = 170

END_TO_END = {
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "ratio",
}


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, trace: bool, mode: str, deadline: float):
    """Run one worker; return (set-up seconds, report dict or None)."""
    workdir = BENCH / "_work" / workload
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), str(ROOT), workload, str(seed),
           str(workdir), "1" if trace else "0", mode]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker exceeded the run deadline: {cmd}") from None
    if proc.returncode != 0 or first != "ready\n":
        raise BenchError(f"worker failed with exit code {proc.returncode}: {cmd}")
    if mode == "setup":
        return setup, None
    try:
        return setup, json.loads(rest.splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"worker printed no report: {cmd}") from None


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    spawn(workload, seed, False, "setup", deadline)  # warm the bytecode and file caches
    iterations = []
    setups = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(iterations) % 2 == 1
        t0 = time.perf_counter()
        setup, report = spawn(workload, seed, traced, "run", deadline)
        longest = max(longest, time.perf_counter() - t0)
        report["traced"] = traced
        iterations.append(report)
        setups.append(setup)
        elapsed = time.perf_counter() - start
        if len(iterations) >= MIN_ITERATIONS and elapsed + longest > seconds:
            break
    if not trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(workload, seed, False, "setup", deadline)[0])

    attempted = sum(it["jobs"] for it in iterations)
    failures = [f for it in iterations for f in it["failures"]]
    if trace:
        traced_its = [it for it in iterations if it["traced"]]
        untraced = [it for it in iterations if not it["traced"]]
        units = metric_units()
        values = {name: statistics.median(it["layers"][name] for it in traced_its)
                  for name in units if name != "trace.overhead_frac"}
        values["trace.overhead_frac"] = (
            statistics.median(it["wall_s"] / it["probe_s"] for it in traced_its)
            / statistics.median(it["wall_s"] / it["probe_s"] for it in untraced) - 1)
    else:
        units = END_TO_END
        values = {f"{t}_ref": statistics.median(it[f"{t}_s"] / it["probe_s"] for it in iterations)
                  for t in ("wall", "cpu")}
        values["peak_rss_mib"] = statistics.median(it["peak_rss_mib"] for it in iterations)
        values["setup_s"] = statistics.median(setups)
        values["ok_frac"] = (attempted - len(failures)) / attempted
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "setup_s": setups,
        "iterations": [{k: v for k, v in it.items() if k != "layers"} for it in iterations],
    }
    return info, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("smoke",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "polytorus" / "cli.py").is_file():
        sys.stderr.write(f"error: no polytorus sources under {ROOT / 'src'}\n")
        return 2
    try:
        info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    for failure in (f for it in info["iterations"] for f in it["failures"]):
        sys.stderr.write(f"failed: {failure}\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
