"""One measured iteration of a workload, in a fresh interpreter.

    python3 bench/worker.py ROOT WORKLOAD SEED WORKDIR TRACE MODE

Imports polytorus from ROOT/src, writes the seeded inputs into WORKDIR and
prints ``ready``: that is the end of set-up.  With MODE ``setup`` it stops
there.  Otherwise it runs the job list through ``polytorus.cli.main`` with
stdout captured, checks each output after the timed region, and prints one
JSON line with wall time, CPU time, the speed probe's time, peak RSS,
failures and, when TRACE is 1, the per-layer metrics.  A fresh process per
iteration matters: the census is memoized per process, so a warm process
would time a cache hit.

The speed probe times a fixed reference computation every PROBE_PERIOD_S
seconds of the timed region, from a SIGALRM handler in the same thread.  A
shared host changes the speed of pure-Python code by 20-40% from one
minute to the next; the probe's harmonic mean over the same interval
changes with it, so the job list's time divided by that mean does not.
Wall and CPU time are reported without the probe's own time.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from collections import deque
from fractions import Fraction
from pathlib import Path

PROBE_PERIOD_S = 0.05


def _grid_torus(w: int) -> dict[int, list[int]]:
    """Neighbours in the 6-regular triangulated w x w torus grid."""
    steps = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1))
    return {x * w + y: [(x + dx) % w * w + (y + dy) % w for dx, dy in steps]
            for x in range(w) for y in range(w)}


GRID = _grid_torus(8)


def reference():
    """A fixed computation of about a millisecond in the program's own mix:
    breadth-first relabeling with sorted tuple lists as in the canonical
    scans, tuple-keyed dicts and sets, and growing Fractions as in the exact
    geometry."""
    forms = []
    for start in (0, 9):
        labels = {start: 1}
        queue = deque([start])
        edges = []
        while queue:
            v = queue.popleft()
            for u in GRID[v]:
                if u not in labels:
                    labels[u] = len(labels) + 1
                    queue.append(u)
                edges.append(tuple(sorted((labels[v], labels[u]))))
        edges.sort()
        forms.append(tuple(edges))
    d = {}
    for i in range(300):
        k = (i % 17, i % 13, i % 5)
        d[k] = d.get(k, 0) + i
    seen = {k[0] * v for k, v in sorted(d.items())}
    f = Fraction(1)
    for i in range(1, 30):
        f = f * Fraction(2 * i + 1, 3 * i + 2) + 1
    return min(forms), len(seen), f


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []

    def sample(self, *_):
        t = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - t)

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def harmonic_mean(self) -> float:
        """The reference's time at the mean speed over the timed region.

        The job list's work is its time integrated against the speed, and
        the mean of 1/sample estimates the mean speed; the arithmetic mean
        of the samples would weight the slow stretches more than the job
        list feels them.
        """
        return len(self.samples) / sum(1 / t for t in self.samples)


def main(argv: list[str]) -> int:
    root, workload, seed, workdir, trace, mode = argv
    sys.path.insert(0, str(Path(root) / "src"))
    import polytorus.cli as cli
    import workloads

    workdir = Path(workdir)
    jobs = workloads.build_jobs(workload, int(seed), workdir)
    tracer = None
    if trace == "1":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    real_stdout = sys.stdout
    real_stdout.write("ready\n")
    real_stdout.flush()
    if mode == "setup":
        return 0

    results = []
    probe = SpeedProbe()
    probe.start()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i, job in enumerate(jobs):
        buf = io.StringIO()
        if tracer is not None:
            tracer.run_id = i
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(job.argv)
        except Exception:
            rc = None
            traceback.print_exc()
        results.append((rc, buf.getvalue()))
    probe.stop()
    probed = sum(probe.samples[1:])  # the first sample ran before the timed region
    wall = time.perf_counter() - wall0 - probed
    cpu = time.process_time() - cpu0 - probed

    failures = []
    classes = 0
    for job, (rc, out) in zip(jobs, results):
        try:
            reason = job.check(rc, out)
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason is not None:
            failures.append(f"{' '.join(job.argv)}: {reason}")
        elif job.argv[0] == "census":
            classes += json.loads(out.splitlines()[-1])["count"]
    report = {
        "wall_s": wall,
        "cpu_s": cpu,
        "probe_s": probe.harmonic_mean(),
        "probes": len(probe.samples),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": len(jobs),
        "failures": failures,
    }
    if tracer is not None:
        tracer.write(workdir / "spans.jsonl")
        layers = tracer.metrics()
        forms = layers["surfaces.canonical_form.calls"]
        layers["census.classes"] = classes
        layers["census.class_yield"] = classes / forms if forms else 0.0
        report["layers"] = layers
    real_stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
