"""Fast self-test of the benchmark harness on tiny inputs.

    python3 bench/selftest.py

Runs the ``smoke`` workload (census n=7, analyze on the minimal 3 x 5 torus,
cyclic k=4, tube on the triangle unknot) untraced once and traced twice with
one seed.  It checks that BENCHMARK.json names the metrics and units the
harness reports, that the outputs pass their checks, that a wrong output
fails them, that inputs follow the seed, and that the traced counts repeat
exactly.  Exits 1 and lists the problems otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COUNT_UNITS = ("count", "bits", "ratio")


def bench_run(seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "smoke", "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def check_result(result: dict, units: dict[str, str], problems: list[str], label: str):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        problems.append(f"{label}: metrics {sorted(set(got) ^ set(units))} or units differ")


def check_benchmark_json(problems: list[str]) -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if end_to_end != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if per_layer != spans.metric_units():
        problems.append("BENCHMARK.json per_layer differs from spans.metric_units()")
    if tuple(w["name"] for w in spec["workloads"]) != workloads.WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return end_to_end, per_layer


def check_checks(problems: list[str]):
    """Inputs follow the seed, and each check rejects a wrong output."""
    with tempfile.TemporaryDirectory(dir=BENCH / "_work") as a, \
            tempfile.TemporaryDirectory(dir=BENCH / "_work") as b:
        jobs = workloads.build_jobs("smoke", 5, Path(a))
        workloads.build_jobs("smoke", 5, Path(b))
        same = all((Path(a) / f.name).read_text() == f.read_text() for f in Path(b).iterdir())
        workloads.build_jobs("smoke", 6, Path(b))
        differ = any((Path(a) / f.name).read_text() != f.read_text() for f in Path(b).iterdir())
        if not (same and differ):
            problems.append(f"inputs: same seed equal={same}, other seed differs={differ}")
        census, analyze, cyclic, _ = jobs
        wrong = {
            "census": census.check(0, '1,2,3\n{"by_type": {"3x3": 1}, "count": 1, "n": 7}\n'),
            "analyze": analyze.check(0, json.dumps({
                "n": 13, "m": 3, "s": 6, "type": "3x6", "bound_satisfied": True,
                "witnesses": {"m": [1, 2, 3], "s": [1, 2, 3, 4, 5, 6]},
                "layer_report": {"A": {}, "B": {}, "C": None, "D": {}, "E": {},
                                 "violated": []}})),
            "cyclic": cyclic.check(0, json.dumps({
                "kind": "cyclic", "embedded": False, "vertices": 10, "faces": 20,
                "determinant": 1})),
            "exit code": cyclic.check(1, ""),
        }
        for what, reason in wrong.items():
            if reason is None:
                problems.append(f"the {what} check accepted a wrong output")


def main() -> int:
    problems: list[str] = []
    (BENCH / "_work").mkdir(exist_ok=True)
    end_to_end, per_layer = check_benchmark_json(problems)
    check_checks(problems)
    check_result(bench_run(3, 0), end_to_end, problems, "untraced run")
    first, second = bench_run(3, 1), bench_run(3, 1)
    for label, result in (("traced run 1", first), ("traced run 2", second)):
        check_result(result, per_layer, problems, label)
    for name, unit in per_layer.items():
        if unit in COUNT_UNITS and name != "trace.overhead_frac":
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"count {name} did not repeat: {a} then {b}")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
