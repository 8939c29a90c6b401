#!/usr/bin/env python3
"""Homology signatures, shortest non-separating cycles, and marked types.

Cutting along a cycle shows the homology machinery at work: a cycle with
zero signature disconnects the torus, a nonzero one opens it into a
cylinder with two boundary circles.
"""

from polytorus import (
    Cycle,
    analysis_report,
    cut_along_cycle,
    cycle_signature,
    distance_layers,
    empty_triangle_3k,
    homology_basis,
    lower_bound,
    marked_type,
    minimal_torus_3k,
    moebius_torus,
    shortest_nonseparating,
)

M = moebius_torus()
basis = homology_basis(M)

face = Cycle(M.faces[0])
print("face boundary signature:", tuple(cycle_signature(M, basis, face)))
cut = cut_along_cycle(M, face)
print("cutting along it disconnects the torus:", cut.n_components, "components")

m, witness = shortest_nonseparating(M, basis)
print(f"\nshortest non-separating cycle: length {m}, witness {witness.vertices}")
cut = cut_along_cycle(M, witness)
print(f"cutting along it gives a cylinder: {cut.n_components} component, "
      f"bounded by the left copy {tuple(cut.left_copy.values())} "
      f"and the right copy {tuple(cut.right_copy.values())}")

for k in (4, 6, 8):
    T = minimal_torus_3k(k)
    (mM, kM), _ = marked_type(T, empty_triangle_3k(k))
    print(f"\nminimal 3x{k} torus marked at the empty triangle: type {mM}x{kM}")
    print(f"  vertex bound for type {mM}x{kM}: {lower_bound(mM, kM)} "
          f"(actual {T.n_vertices})")
    rep = distance_layers(T, empty_triangle_3k(k), 1)
    print(f"  layer sizes: A={rep.a_sizes} B={rep.b_sizes} C={rep.c_size} "
          f"D={rep.d_sizes} E={rep.e_sizes}, violations: {rep.violated or 'none'}")

import json
print("\nfull JSON analysis of the 7-vertex torus:")
print(json.dumps(analysis_report(M), indent=2, sort_keys=True))
