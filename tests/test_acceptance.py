"""Acceptance suite: one test per criterion, exact tolerances, a printed
pass line each.

The heavy runs are the n=10 census under both strategies (criterion 2)
and the exact trefoil constructions (criteria 5 and 6).  Everything
asserts exact equalities; there are no numeric tolerances anywhere.
"""

import time

from oracles import oracle_marked, oracle_type, signed_cycles

from polytorus.census import census_counts_agree, census_verify_theorem31, enumerate_tori
from polytorus.cycles import (
    bound_strict_gap,
    cycle_signature,
    enumerate_simple_cycles,
    homology_basis,
    lower_bound,
    marked_type,
    shortest_nonseparating,
    stick_number_and_type,
)
from polytorus.diagrams import knot_determinant
from polytorus.generators import (
    cyclic_symmetry,
    hamiltonian_sequence,
    minimal_torus_3k,
    moebius_torus,
    tube_complex,
)
from polytorus.knots import trefoil_6stick, triangle_unknot
from polytorus.realization import (
    classify_cycle_in_tube,
    complement_construction,
    core_curve,
    cyclic_polytope_realization,
    tube_construction,
    verify_embedding,
)
from polytorus.surfaces import Cycle, is_isomorphic


def _report(name, detail):
    print(f"\nACCEPTANCE PASS {name}: {detail}")


def test_criterion_1_moebius_census():
    """Census at n=7: exactly one torus, the 7-vertex one, type 3x3."""
    t0 = time.time()
    records = enumerate_tori(7, "a")
    assert len(records) == 1
    rec = records[0]
    assert is_isomorphic(rec.torus(), moebius_torus()) is not None
    assert (rec.m, rec.s) == (3, 3)
    elapsed = time.time() - t0
    assert elapsed < 60
    _report("1 (7-vertex census)", f"count=1, type 3x3, {elapsed:.1f}s")


def test_criterion_2_theorem31_k4():
    """No type-3x4 torus on 9 vertices; exactly one on 10, the generator
    output; dual-strategy counts agree at n=8, 9 and 10."""
    t0 = time.time()
    ca8 = census_counts_agree(8)
    ca9 = census_counts_agree(9)
    ca10 = census_counts_agree(10)
    assert ca8[0] == ca8[1]
    assert ca9[0] == ca9[1]
    assert ca10 == (2109, 2109)

    records9 = enumerate_tori(9, "a")
    assert sum(1 for r in records9 if (r.m, r.s) == (3, 4)) == 0

    records10 = enumerate_tori(10, "a")
    minimal = [r for r in records10 if (r.m, r.s) == (3, 4)]
    assert len(minimal) == 1
    assert is_isomorphic(minimal[0].torus(), minimal_torus_3k(4)) is not None

    rep = census_verify_theorem31(4)
    assert rep.ok
    elapsed = time.time() - t0
    assert elapsed < 1800
    _report("2 (Theorem 3.1 at k=4)",
            f"n=8: {ca8[0]} classes, n=9: {ca9[0]} classes, n=10: {ca10[0]} classes "
            "(strategies agree), "
            f"n=9 has no 3x4, n=10 has exactly one = generator, {elapsed:.0f}s")


def test_criterion_3_generator_suite():
    """minimal_torus_3k(k) for k=3..12: vertex count, type, degree,
    cyclic symmetry, Hamiltonian cycle."""
    t0 = time.time()
    for k in range(3, 13):
        T = minimal_torus_3k(k)
        n = 3 * k - 2
        assert T.n_vertices == n
        assert {T.degree(v) for v in range(1, n + 1)} == {6}
        res = stick_number_and_type(T)
        assert (res.m, res.s) == (3, k)
        sigma = cyclic_symmetry(k)
        faces = set(T.faces)
        assert all(tuple(sorted(sigma[v] for v in f)) in faces for f in T.faces)
        seq = hamiltonian_sequence(k)
        assert sorted(seq) == list(range(1, n + 1))
        assert all(T.has_edge(seq[i], seq[(i + 1) % n]) for i in range(n))
    elapsed = time.time() - t0
    assert elapsed < 60
    _report("3 (generator suite k=3..12)", f"all exact checks, {elapsed:.1f}s")


def test_criterion_4_bound_suite():
    """|V| >= lower_bound(m, s) on the census through n=10; the strict gap
    holds for 4<=m<=k<=20, k>=6; hand-derived values match."""
    assert lower_bound(7, 12) == 61
    assert lower_bound(4, 6) == 17
    assert lower_bound(4, 6) > 3 * 6 - 2 == 16
    for k in range(6, 21):
        for m in range(4, k + 1):
            assert bound_strict_gap(m, k)
    checked = 0
    for n in (7, 8, 9, 10):
        for rec in enumerate_tori(n, "a"):
            assert rec.n >= lower_bound(rec.m, rec.s)
            checked += 1
    _report("4 (vertex bound suite)",
            f"bound holds on all {checked} census classes n<=10; "
            "lower_bound(7,12)=61, lower_bound(4,6)=17>16; gap sweep ok")


def test_criterion_5_tube_end_to_end():
    """Triangle: 9-vertex embedded tube, determinant 1.  Certified trefoil:
    18-vertex embedded tube, determinant 3, every non-separating cycle
    shorter than 6 is a meridian."""
    t0 = time.time()
    tri = triangle_unknot()
    mesh = tube_construction(tri)
    assert mesh.complex.n_vertices == 9
    assert verify_embedding(mesh).ok
    assert knot_determinant(core_curve(mesh)) == 1

    K = trefoil_6stick()
    tmesh = tube_construction(K)
    assert tmesh.complex.n_vertices == 18
    emb_t0 = time.time()
    assert verify_embedding(tmesh).ok
    assert time.time() - emb_t0 < 300
    assert knot_determinant(core_curve(tmesh)) == 3

    T = tmesh.complex
    basis = homology_basis(T)
    short_nonsep = 0
    for cyc in enumerate_simple_cycles(T, 5):
        C = Cycle(cyc)
        if cycle_signature(T, basis, C).is_zero():
            continue
        cls, _ = classify_cycle_in_tube(tmesh, C, certificate=False)
        assert cls == "meridian", cyc
        short_nonsep += 1
    assert short_nonsep > 0
    # spot-check the linking certificate on a few of them
    for cyc in list(enumerate_simple_cycles(T, 3))[:5]:
        C = Cycle(cyc)
        if not cycle_signature(T, basis, C).is_zero():
            cls, cert = classify_cycle_in_tube(tmesh, C)
            assert abs(cert["linking_with_core"]) == 1
    _report("5 (tube end-to-end)",
            f"triangle det 1; trefoil det 3, {short_nonsep} short non-separating "
            f"cycles all meridian, {time.time()-t0:.0f}s")


def test_criterion_6_complement():
    """Trefoil complement torus: 22 = 3k+4 vertices, closed orientable
    genus 1, embedded."""
    t0 = time.time()
    mesh = complement_construction(trefoil_6stick())
    rep = mesh.complex.report
    assert rep.n_vertices == 22
    assert rep.n_faces == 2 * 22
    assert rep.euler == 0
    assert rep.orientable and rep.genus == 1
    assert verify_embedding(mesh).ok
    _report("6 (complement construction)",
            f"22 vertices, euler 0, orientable, embedded, {time.time()-t0:.0f}s")


def test_criterion_7_cyclic_realization():
    """Gale-evenness face test and embedded Schlegel projection for
    k=3..6; recorded core determinant 1."""
    t0 = time.time()
    for k in range(3, 7):
        mesh = cyclic_polytope_realization(k)
        assert mesh.complex.n_vertices == 3 * k - 2
        assert verify_embedding(mesh).ok
        assert mesh.provenance["core_determinant"] == 1
    _report("7 (cyclic polytope realization k=3..6)",
            f"all faces in C_4(3k-2), embedded, det 1, {time.time()-t0:.0f}s")


def test_criterion_8_oracle_equivalence():
    """Search results equal exhaustive simple-cycle enumeration on every
    test complex with at most 12 vertices."""
    t0 = time.time()
    complexes = [moebius_torus(), minimal_torus_3k(3), minimal_torus_3k(4),
                 tube_complex(3), tube_complex(4)]
    complexes += [r.torus() for r in enumerate_tori(8, "a")]
    complexes += [r.torus() for r in enumerate_tori(9, "a")]
    checked = 0
    for T in complexes:
        assert T.n_vertices <= 12
        basis = homology_basis(T)
        res = stick_number_and_type(T, basis)
        signed = signed_cycles(T, basis)
        assert (res.m, res.s) == oracle_type(T, basis, signed)
        m, witness = shortest_nonseparating(T, basis)
        assert m == res.m and len(witness) == m
        (mM, kM), _ = marked_type(T, witness, basis)
        assert (mM, kM) == oracle_marked(T, basis, witness, signed)
        checked += 1
    _report("8 (oracle equivalence)",
            f"{checked} complexes <= 12 vertices agree with brute force, "
            f"{time.time()-t0:.0f}s")
