"""In-memory span tracing of polytorus, installed from outside ``src/``.

``Tracer.install`` replaces each traced function by a wrapper in every
polytorus module namespace that holds it: the cross-module names, in the
namespace of the module that imports them (``polytorus.census.canonical_form``),
and the intra-module globals (``polytorus.realization.tube_construction``).
A span is (name, start, end, parent, run id); spans stay in memory and are
written out once, by ``Tracer.write``.  A traced name the program no longer
defines is skipped, so its counts read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
from fractions import Fraction
from time import perf_counter

# (span name = defining module + attribute path, namespaces to patch or None
# for every polytorus module, metric that replaces ``<span>.calls``, whether
# the span's times are reported).
SPANS = [
    ("surfaces.canonical_form", None, None, True),
    ("surfaces.automorphism_group", None, None, True),
    ("surfaces.vertex_orbits", None, None, True),
    ("surfaces._canonical_scan", None, "surfaces.canonical_scans", True),
    ("surfaces.validate_surface", None, None, True),
    # only the census's own orientation test of each completion is counted
    ("surfaces._orient_faces", ("census",), "census.orientation_tests", False),
    ("census.enumerate_tori", None, None, True),
    ("cycles.analysis_report", None, None, True),
    ("cycles.stick_number_and_type", None, None, True),
    ("cycles.shortest_nonseparating", None, None, True),
    ("cycles.marked_type", None, None, True),
    ("cycles.distance_layers", None, None, True),
    ("cycles.homology_basis", None, None, True),
    ("realization.choose_epsilon", None, None, True),
    ("realization.tube_construction", None, None, True),
    ("realization.complement_construction", None, None, True),
    ("realization.cyclic_polytope_realization", None, None, True),
    ("realization.verify_embedding", None, None, True),
    ("realization.export_mesh", None, None, True),
    ("realization.ExactRadius.halved", None, "realization.eps_halvings", False),
    ("geometry.triangles_conflict", None, None, True),
    ("geometry.plane_supports", None, None, True),
    ("diagrams.knot_determinant", None, None, True),
    ("cli.main", None, None, True),
]

LAYERS = ("surfaces", "census", "cycles", "realization", "geometry", "diagrams", "cli")

# per-layer metrics computed from outputs and probes rather than span sums
DERIVED = [
    ("census.classes", "count"),
    ("census.class_yield", "ratio"),
    ("realization.coord_bits_max", "bits"),
    ("geometry.us_per_pair", "us"),
    ("trace.overhead_frac", "ratio"),
]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, _, calls_alias, timed in SPANS:
        units[calls_alias or f"{name}.calls"] = "count"
        if timed:
            units[f"{name}.s"] = "s"
            units[f"{name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update(DERIVED)
    return units


def coord_bits(mesh) -> int:
    """Largest numerator or denominator bit length among the mesh's coordinates."""
    return max(max(Fraction(c).numerator.bit_length(), Fraction(c).denominator.bit_length())
               for p in mesh.coords.values() for c in p)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.run_id = None
        self.coord_bits_max = 0
        self._stack: list[int] = []

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "realization.verify_embedding":
                self.coord_bits_max = max(self.coord_bits_max, coord_bits(args[0]))
            idx = len(self.spans)
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id]
            self.spans.append(rec)
            self._stack.append(idx)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
        return traced

    def install(self):
        modules = {m: importlib.import_module(f"polytorus.{m}") for m in LAYERS}
        for name, namespaces, _, _ in SPANS:
            layer, attr = name.split(".", 1)
            home = modules[layer]
            owner_path, _, fn_name = attr.rpartition(".")
            owner = home
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            orig = getattr(owner, fn_name, None)
            if orig is None:
                continue
            wrapper = self.span(name, orig)
            if owner is not home:  # a method: patch the class
                setattr(owner, fn_name, wrapper)
                continue
            for mod_name, mod in modules.items():
                if namespaces is not None and mod_name not in namespaces:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)

    def metrics(self) -> dict[str, float]:
        """Counts, inclusive times and self times of the recorded spans.

        No traced function calls itself, directly or through another traced
        one, so summing span durations counts no interval twice.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start - child_time[i])
        out: dict[str, float] = {}
        for name, _, calls_alias, timed in SPANS:
            out[calls_alias or f"{name}.calls"] = calls.get(name, 0)
            if timed:
                out[f"{name}.s"] = total.get(name, 0.0)
                out[f"{name}.self_s"] = self_time.get(name, 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum((t for name, t in self_time.items()
                                          if name.split(".")[0] == layer), 0.0)
        out["realization.coord_bits_max"] = self.coord_bits_max
        pairs = out["geometry.triangles_conflict.calls"]
        out["geometry.us_per_pair"] = (
            1e6 * out["geometry.triangles_conflict.s"] / pairs if pairs else 0.0)
        return out

    def write(self, path):
        """One JSON object per span: name, start, end, parent index, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")
