"""Homology signatures, shortest cycles, types, layers, and the bound."""

import random
import re

import pytest

from oracles import (
    _state_bfs,
    cut_separates,
    oracle_cut,
    oracle_marked,
    oracle_stick_number_and_type,
    oracle_type,
    signed_cycles,
)

from polytorus import cycles, surfaces
from polytorus.cycles import (
    analysis_report,
    bound_strict_gap,
    cut_along_cycle,
    cycle_signature,
    distance_layers,
    enumerate_simple_cycles,
    homology_basis,
    is_separating,
    lower_bound,
    marked_type,
    shortest_nonseparating,
    stick_number_and_type,
)
from polytorus.census import enumerate_tori
from polytorus.errors import InvalidType, MarkNotShortest, NotACycle, NotGenusOne, SeparatingMark
from polytorus.generators import (
    empty_triangle_3k,
    minimal_torus_3k,
    moebius_torus,
    ring_cycle,
    tube_complex,
)
from polytorus.surfaces import Cycle, SimplicialTorus


def test_basis_properties(moebius):
    basis = homology_basis(moebius)
    # tree edges are trivial, the two leftover edges carry the units
    for e in basis.tree_edges:
        assert basis.edge_sig[e] == (0, 0)
    units = sorted(basis.edge_sig[x] for x in basis.leftover_edges)
    assert units == [(0, 1), (1, 0)]
    # every face boundary sums to zero
    for f in moebius.faces:
        assert cycle_signature(moebius, basis, Cycle(f)).is_zero()


def test_sphere_has_no_basis():
    # boundary of the triangular bipyramid: a 5-vertex sphere
    faces = [(1, 2, 4), (2, 3, 4), (1, 3, 4), (1, 2, 5), (2, 3, 5), (1, 3, 5)]
    T = SimplicialTorus(faces, _skip_validation=True)
    assert T.n_vertices == 5 and len(T.edge_faces) == 9
    with pytest.raises(NotGenusOne):
        homology_basis(T)


def test_face_boundary_separates(moebius):
    basis = homology_basis(moebius)
    assert cycle_signature(moebius, basis, Cycle(moebius.faces[0])).is_zero()
    assert cut_separates(moebius, moebius.faces[0])


def test_signature_additivity(moebius):
    basis = homology_basis(moebius)

    def walk_signature(walk):
        p = q = 0
        for i in range(len(walk)):
            u, v = walk[i], walk[(i + 1) % len(walk)]
            sp, sq = basis.edge_sig[(u, v)]
            p += sp
            q += sq
        return (p, q)

    c1 = moebius.faces[0]
    res = shortest_nonseparating(moebius, basis)
    c2 = res[1].vertices
    # compose at a shared vertex (walks become one closed walk)
    shared = set(c1) & set(c2)
    if shared:
        v = min(shared)
        w1 = list(c1[c1.index(v):] + c1[:c1.index(v)])
        w2 = list(c2[c2.index(v):] + c2[:c2.index(v)])
        combined = w1 + w2
        s1, s2 = walk_signature(w1), walk_signature(w2)
        sc = walk_signature(combined)
        assert sc == (s1[0] + s2[0], s1[1] + s2[1])


def test_cut_along_nonseparating_gives_cylinder(moebius):
    _, witness = shortest_nonseparating(moebius)
    cut = cut_along_cycle(moebius, witness)
    assert cut.n_components == 1
    assert oracle_cut(moebius, witness.vertices)[1:] == (1, 2)


def test_is_separating_matches_face_walk(census8):
    """Homology and the cut's face walk agree on every simple cycle."""
    tori = [moebius_torus(), minimal_torus_3k(3)]
    tori += [r.torus() for r in enumerate_tori(7)] + [r.torus() for r in census8]
    for T in tori:
        basis = homology_basis(T)
        for cyc in enumerate_simple_cycles(T):
            C = Cycle(cyc)
            assert is_separating(T, C, basis) == (cut_along_cycle(T, C).n_components == 2)


def test_non_edge_pair_is_not_a_cycle():
    # a triangle w -> u -> v whose only non-edge is its second pair (u, v)
    T = minimal_torus_3k(4)
    u = 1
    v = next(x for x in range(2, T.n_vertices + 1) if not T.has_edge(u, x))
    w = next(x for x in T.neighbors[u] if T.has_edge(x, v))
    C = Cycle((w, u, v))
    message = re.escape(f"consecutive pair {(u, v)} is not an edge")
    with pytest.raises(NotACycle, match=message):
        cycle_signature(T, homology_basis(T), C)
    with pytest.raises(NotACycle, match=message):
        cut_along_cycle(T, C)


def test_cut_along_separating_disconnects(moebius):
    cut = cut_along_cycle(moebius, Cycle(moebius.faces[0]))
    assert cut.n_components == 2


def test_shortest_nonseparating_values():
    assert shortest_nonseparating(moebius_torus())[0] == 3
    assert shortest_nonseparating(minimal_torus_3k(5))[0] == 3
    m, witness = shortest_nonseparating(tube_complex(6))
    assert m == 3
    assert not cut_separates(tube_complex(6), witness.vertices)


def test_ring_cycles_nonseparating():
    T = tube_complex(4)
    basis = homology_basis(T)
    for r in range(4):
        ring = ring_cycle(4, r)
        assert not cycle_signature(T, basis, ring).is_zero()
        assert not cut_separates(T, ring.vertices)


def test_marked_type_values(moebius):
    (m, k), _ = marked_type(moebius, Cycle((1, 4, 6)))
    assert (m, k) == (3, 3)
    for kk in (4, 5, 6):
        T = minimal_torus_3k(kk)
        (mM, kM), _ = marked_type(T, empty_triangle_3k(kk))
        assert (mM, kM) == (3, kk)


def test_marked_type_rejects_separating(moebius):
    with pytest.raises(SeparatingMark):
        marked_type(moebius, Cycle(moebius.faces[0]))


def test_mark_witness_realizes_minimum(minimal5):
    basis = homology_basis(minimal5)
    m, witness = shortest_nonseparating(minimal5, basis)
    (mM, _), _ = marked_type(minimal5, witness, basis)
    assert mM == m == len(witness)


def test_types_of_named_complexes(moebius):
    assert stick_number_and_type(moebius).type_str == "3x3"
    for k in range(3, 9):
        assert stick_number_and_type(minimal_torus_3k(k)).type_str == f"3x{k}"
        assert stick_number_and_type(tube_complex(k)).type_str == f"3x{k}"


def test_type_result_invariants(minimal5):
    basis = homology_basis(minimal5)
    res = stick_number_and_type(minimal5, basis)
    assert res.m <= res.s
    assert len(res.witness_m) == res.m
    assert len(res.witness_s) == res.s
    sm = cycle_signature(minimal5, basis, res.witness_m)
    ss = cycle_signature(minimal5, basis, res.witness_s)
    assert not sm.proportional_to(ss)


def test_oracle_agreement_small():
    for T in (moebius_torus(), minimal_torus_3k(4), tube_complex(3)):
        basis = homology_basis(T)
        res = stick_number_and_type(T, basis)
        assert (res.m, res.s) == oracle_type(T, basis)
        om, ok = oracle_marked(T, basis, res.witness_m)
        (mM, kM), _ = marked_type(T, res.witness_m, basis)
        assert (mM, kM) == (om, ok)


def test_oracle_agreement_census8(census8):
    for rec in census8:
        T = rec.torus()
        basis = homology_basis(T)
        assert (rec.m, rec.s) == oracle_type(T, basis)


def _relabeled(T, rng):
    perm = list(range(1, T.n_vertices + 1))
    rng.shuffle(perm)
    return SimplicialTorus([tuple(perm[v - 1] for v in f) for f in T.faces])


def _type_tuple(T):
    res = stick_number_and_type(T)
    return res.m, res.s, res.witness_m, res.witness_s


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_type_matches_state_bfs_oracle_on_census(n):
    """Lengths and witnesses from BFS-tree loops equal the state BFS's on
    every census class, and on two relabelings of each class for n <= 9."""
    rng = random.Random(1700 + n)
    for rec in enumerate_tori(n):
        T = rec.torus()
        for X in [T] + ([_relabeled(T, rng), _relabeled(T, rng)] if n <= 9 else []):
            assert _type_tuple(X) == oracle_stick_number_and_type(X), rec.canonical_faces


def test_type_matches_state_bfs_oracle_on_generators(moebius):
    rng = random.Random(1711)
    tori = [moebius]
    for k in list(range(3, 13)) + [40]:
        for T in (minimal_torus_3k(k), tube_complex(k)):
            tori += [T, _relabeled(T, rng)]
    # on this relabeling the first shortest BFS-tree loop for s and the
    # covering-graph walk are different cycles: the witness is the walk
    tori.append(_relabeled(minimal_torus_3k(40), random.Random(27)))
    for T in tori:
        assert _type_tuple(T) == oracle_stick_number_and_type(T)


def test_analysis_report_builds_no_group(monkeypatch):
    """The type of a k=40 torus needs no automorphism group, nor the key
    scan that is its only source, and it walks the covering graph at most
    twice, each time from one root."""
    groups, searches = [], []
    search = cycles._closed_walk_search

    def counting_group(source):
        def counted(T):
            groups.append(T)
            return source(T)
        return counted

    def counting_search(T, basis, r, *rest):
        searches.append(r)
        return search(T, basis, r, *rest)

    for name in ("automorphism_group", "_key_scan"):
        monkeypatch.setattr(surfaces, name, counting_group(getattr(surfaces, name)))
    monkeypatch.setattr(cycles, "_closed_walk_search", counting_search)
    rng = random.Random(1712)
    for T in (minimal_torus_3k(40), tube_complex(40)):
        searches.clear()
        X = _relabeled(T, rng)
        report = analysis_report(X)
        assert report["type"] == "3x40"
        assert len(searches) <= 2 and all(1 <= r <= X.n_vertices for r in searches)
    assert groups == []


def test_layers_minimal6():
    T = minimal_torus_3k(6)
    rep = distance_layers(T, empty_triangle_3k(6), 1)
    assert rep.ok
    assert rep.a_sizes[0] == 1
    assert rep.m == 3 and rep.k == 6


def test_layers_all_census8(census8):
    for rec in census8:
        T = rec.torus()
        res = stick_number_and_type(T)
        v0 = min(res.witness_m.vertices)
        rep = distance_layers(T, res.witness_m, v0)
        assert rep.ok, (rec.canonical_faces, rep.violated)


def test_layers_mark_must_be_shortest(minimal5):
    basis = homology_basis(minimal5)
    res = stick_number_and_type(minimal5, basis)
    with pytest.raises(MarkNotShortest):
        distance_layers(minimal5, res.witness_s, res.witness_s.vertices[0], basis)


def test_lower_bound_values():
    assert lower_bound(7, 12) == 61
    assert [lower_bound(3, k) for k in (3, 4, 5, 6)] == [6, 9, 12, 15]
    assert lower_bound(4, 6) == 17
    assert lower_bound(4, 6) > 3 * 6 - 2


def test_lower_bound_rejects_bad_types():
    with pytest.raises(InvalidType):
        lower_bound(2, 5)
    with pytest.raises(InvalidType):
        lower_bound(5, 4)


def test_gap_sweep():
    for k in range(6, 21):
        for m in range(4, k + 1):
            assert bound_strict_gap(m, k)


def test_bound_on_census(census8):
    for rec in census8:
        assert rec.n >= lower_bound(rec.m, rec.s)


def test_enumerate_simple_cycles_unique(moebius):
    cycles = enumerate_simple_cycles(moebius, 4)
    seen = set()
    for cyc in cycles:
        canon = Cycle(cyc).canonical().vertices
        assert canon not in seen
        seen.add(canon)
    # each triangle face appears as a 3-cycle
    tri = {c for c in seen if len(c) == 3}
    assert all(tuple(sorted(f)) in {tuple(sorted(t)) for t in tri} for f in moebius.faces)


# the minimal 6-vertex projective plane: closed but non-orientable
RP2_6 = [(1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6), (1, 5, 6),
         (2, 3, 5), (2, 3, 6), (2, 4, 6), (3, 4, 5), (4, 5, 6)]


def test_nonorientable_surface_detected():
    from polytorus.surfaces import validate_surface
    rep = validate_surface(RP2_6)
    assert rep.euler == 1
    assert not rep.orientable


def test_torus_constructor_rejects_nonorientable():
    with pytest.raises(Exception):
        SimplicialTorus(RP2_6)


def test_marked_type_arbitrary_marks_vs_oracle(census8, moebius):
    """marked_type must match brute force for marks of every class and
    length, not only for shortest ones (exercises the fallback path)."""
    complexes = [moebius, tube_complex(3)] + [r.torus() for r in census8[:4]]
    for T in complexes:
        basis = homology_basis(T)
        seen_classes = set()
        marks = []
        for cyc in sorted(enumerate_simple_cycles(T), key=len):
            sig = cycle_signature(T, basis, Cycle(cyc))
            if sig.is_zero():
                continue
            key = (sig[0], sig[1], len(cyc) > 3)
            if key not in seen_classes:
                seen_classes.add(key)
                marks.append(Cycle(cyc))
            if len(marks) >= 8:
                break
        for M in marks:
            got, _ = marked_type(T, M, basis)
            want = oracle_marked(T, basis, M)
            assert got == want, (T, M.vertices, got, want)


# its least proportional walk is not simple, so marked_type falls back to
# the simple cycles of its class
FALLBACK_MARK = (1, 2, 7, 3, 5, 4, 8, 6)


def test_proportional_search_matches_state_bfs_from_every_root(moebius, census8):
    """The proportional search of marked_type, BFS-tree loops in the cyclic
    cover of det(c, x) and one witness walk, returns the length and witness
    of the state BFS run from every root in turn, and (m_M, k_M) match brute
    force.  Marks: the first simple cycle of each class and length on the
    Moebius torus (the n = 7 class) and the n = 8 classes, and
    FALLBACK_MARK on the second n = 8 class."""
    for i, T in enumerate([moebius] + [r.torus() for r in census8]):
        basis = homology_basis(T)
        signed = signed_cycles(T, basis)
        marks, keys = [], set()
        for cyc, sig in sorted(signed, key=lambda cs: len(cs[0])):
            key = (max(sig, -sig), len(cyc))
            if not sig.is_zero() and key not in keys:
                keys.add(key)
                marks.append(Cycle(cyc))
        if i == 2:
            marks.append(Cycle(FALLBACK_MARK))
        roots = range(1, T.n_vertices + 1)
        for M in marks:
            c = cycle_signature(T, basis, M)
            got = cycles._shortest_admissible(T, basis, roots, lambda p, q: True,
                                              len(M), M.vertices, (-c.q, c.p))
            want = _state_bfs(T, basis, roots, lambda p, q: p * c.q - q * c.p == 0,
                              len(M), M.vertices)
            assert got == want, (T.faces, M.vertices)
            if M.vertices == FALLBACK_MARK:
                assert len(set(got[1])) < got[0] < len(M)
            assert marked_type(T, M, basis)[0] == oracle_marked(T, basis, M, signed)


def test_marked_type_of_a_long_mark():
    T = minimal_torus_3k(40)
    basis = homology_basis(T)
    (m_M, k_M), _ = marked_type(T, stick_number_and_type(T, basis).witness_s, basis)
    assert (m_M, k_M) == (40, 3)


def test_shortest_simple_in_class_direct(moebius):
    from polytorus.cycles import _shortest_simple_in_class
    basis = homology_basis(moebius)
    _, witness = shortest_nonseparating(moebius, basis)
    c = cycle_signature(moebius, basis, witness)
    length, found = _shortest_simple_in_class(moebius, basis, c, 3, 7, witness)
    assert length == 3
    fsig = cycle_signature(moebius, basis, found)
    assert fsig == c or fsig == -c
