#!/usr/bin/env python3
"""Exhaustive census of small torus triangulations.

Enumerates all torus triangulations on 7, 8, and 9 vertices with both
generation strategies, and verifies the vertex-minimality statement for
type 3x3 at census scale: the 7-vertex torus is the unique smallest
triangulation, and no 3x4 torus exists on 9 = 3*4-3 vertices.

The n=10 census (2109 classes, a few seconds) is exercised by the
acceptance suite; set TORUS_TIME_BUDGET_SECS to cap long runs.
"""

import time

from polytorus import census_verify_theorem31, enumerate_tori, lower_bound

for n in (7, 8, 9):
    t0 = time.time()
    records = enumerate_tori(n, "a")
    by_type = {}
    for r in records:
        by_type[r.type_str] = by_type.get(r.type_str, 0) + 1
    print(f"n={n}: {len(records)} triangulations, by type {by_type} "
          f"({time.time()-t0:.1f}s)")
    assert all(r.n >= lower_bound(r.m, r.s) for r in records)

t0 = time.time()
b_count = len(enumerate_tori(8, "b"))
print(f"\nindependent strategy at n=8 finds {b_count} classes "
      f"({time.time()-t0:.1f}s)")

print("\nTheorem check at k=3 (unique 7-vertex torus of type 3x3):")
rep = census_verify_theorem31(3)
print(f"  minimal_count={rep.minimal_count}, matches generator: "
      f"{rep.matches_generator}, ok={rep.ok}")
