"""Combinatorial core: validation, canonical forms, isomorphism, links."""

import random
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import polytorus.surfaces as surfaces
from oracles import (
    canonical_labeling,
    link_cycle,
    oracle_automorphisms,
    oracle_cut,
    oracle_flag_forms,
    oracle_vertex_orbits,
)
from polytorus.census import _Budget, _completions, _generate_strategy_b, enumerate_tori
from polytorus.cycles import cut_along_cycle, homology_basis
from polytorus.errors import BadVertexLink, NonManifoldEdge, ParseError, PolytorusError
from polytorus.generators import minimal_torus_3k, moebius_torus, tube_complex
from polytorus.realization import cyclic_polytope_realization
from polytorus.surfaces import (
    Cycle,
    SimplicialTorus,
    automorphism_group,
    canonical_form,
    canonical_key,
    format_complex,
    is_isomorphic,
    load_complex,
    parse_complex,
    validate_surface,
    vertex_link,
)
from test_cycles import RP2_6

TETRA = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]


def relabeled(T, perm):
    mapping = {i + 1: perm[i] for i in range(T.n_vertices)}
    return SimplicialTorus([tuple(mapping[v] for v in f) for f in T.faces])


def test_moebius_counts(moebius):
    rep = moebius.report
    assert (rep.n_vertices, rep.n_edges, rep.n_faces) == (7, 21, 14)
    assert rep.euler == 0 and rep.orientable and rep.genus == 1


def test_tetrahedron_is_sphere():
    rep = validate_surface(TETRA)
    assert (rep.n_vertices, rep.n_edges, rep.n_faces) == (4, 6, 4)
    assert rep.euler == 2 and rep.genus == 0


def test_open_surface_rejected():
    with pytest.raises(NonManifoldEdge) as exc:
        validate_surface([(1, 2, 3), (1, 2, 4)])
    assert exc.value.count == 1  # an open edge, not an overused one


def test_pinched_links_rejected_in_vertex_order():
    """Three tetrahedra pinched at vertices 2 and 3: the fan walk reports the
    least bad vertex with the oracle link walk's reason.  Then a
    differential against that walk on the faces at each vertex alone: on
    every census class for n <= 9, strategy B's completions at n = 8, RP2_6,
    the 3 x 12 Klein bottle and seeded pinches of each (copies glued to it
    at one or two vertices), validate_surface raises BadVertexLink exactly
    when some link fails, at the least such vertex and with the same text."""
    faces = TETRA + [(3, 5, 6), (3, 5, 7), (3, 6, 7), (5, 6, 7),
                     (2, 8, 9), (2, 8, 10), (2, 9, 10), (8, 9, 10)]
    with pytest.raises(BadVertexLink) as exc:
        validate_surface(faces)
    with pytest.raises(BadVertexLink) as scan:
        link_cycle(faces, 2)
    assert exc.value.vertex == 2
    assert str(exc.value) == str(scan.value) == (
        "link of vertex 2 is not a single cycle (link has several components)")

    rng = random.Random(24)
    bases = [r.canonical_faces for n in (7, 8, 9) for r in enumerate_tori(n)]
    bases += list(_generate_strategy_b(8, _Budget(None)))
    bases += [RP2_6, _klein_bottle(3, 12)]
    pinched = []
    for faces in bases:
        n = max(map(max, faces))
        out = list(faces)
        for copy, v in enumerate(rng.sample(range(1, n + 1), rng.choice((1, 2))), start=1):
            out += [tuple(x if x == v else x + copy * n for x in f) for f in faces]
        rng.shuffle(out)
        pinched.append(out)
    rejected = 0
    for faces in bases + pinched:
        bad = None
        for v in sorted({x for f in faces for x in f}):
            try:
                link_cycle(faces, v)
            except BadVertexLink as err:
                bad = err
                break
        try:
            validate_surface(faces)
        except BadVertexLink as err:
            assert bad is not None and (err.vertex, str(err)) == (bad.vertex, str(bad))
            rejected += 1
        else:
            assert bad is None
    assert rejected == len(pinched)


def test_load_complex_rejects_non_utf8(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"7\n1 2 4\n\xff\xfe\n")
    with pytest.raises(ParseError) as exc:
        load_complex(path)
    assert exc.value.line_no == 3


def test_duplicate_face_rejected():
    with pytest.raises(PolytorusError):
        validate_surface(TETRA + [(2, 1, 3)])


def _shifted(faces, by):
    return [tuple(v + by for v in f) for f in faces]


@pytest.mark.parametrize("faces", [
    RP2_6 + _shifted(TETRA, 6),
    _shifted(TETRA, 6) + RP2_6,
    TETRA + _shifted(TETRA, 4),
], ids=["rp2-then-tetra", "tetra-then-rp2", "two-tetrahedra"])
def test_disconnected_union_rejected(faces):
    with pytest.raises(PolytorusError, match="^face complex is not connected$"):
        validate_surface(faces)


def _klein_bottle(a, b):
    """An a x b grid of squares, each cut by a diagonal, its rows glued into
    cycles and its first and last columns glued with the rows flipped."""
    def label(i, j):
        if i == a:
            i, j = 0, -j
        return 1 + i * b + j % b
    faces = []
    for i in range(a):
        for j in range(b):
            p, q, r, s = label(i, j), label(i + 1, j), label(i + 1, j + 1), label(i, j + 1)
            faces += [(p, q, r), (p, r, s)]
    return faces


@pytest.mark.parametrize("faces, euler", [(RP2_6, 1), (_klein_bottle(3, 12), 0)],
                         ids=["projective-plane", "klein-bottle"])
def test_nonorientable_surface_is_reported_not_raised(faces, euler):
    """The face walk goes on past the first face entered both ways.  On the
    long Klein bottle that face comes before the far faces are reached, so
    a walk that returned there would call it disconnected."""
    rep = validate_surface(faces)
    assert (rep.euler, rep.orientable, rep.genus) == (euler, False, 2 - euler)
    assert rep.oriented_faces is None


def test_face_walk_orients_coherently():
    """Every census class for n <= 9 and every strategy-B completion at
    n = 8: each directed edge lies in exactly one oriented face, each face
    keeps its vertices, face 0 runs as given, and a torus built without
    validation orients its faces the same way."""
    face_lists = [r.canonical_faces for n in (7, 8, 9) for r in enumerate_tori(n)]
    face_lists += list(_generate_strategy_b(8, _Budget(None)))
    for faces in face_lists:
        oriented = validate_surface(faces).oriented_faces
        assert oriented[0] == tuple(sorted(faces[0]))
        assert [sorted(t) for t in oriented] == [sorted(f) for f in faces]
        directed = {(u, v) for a, b, c in oriented for u, v in ((a, b), (b, c), (c, a))}
        assert len(directed) == 3 * len(oriented)
        assert all((v, u) in directed for u, v in directed)
        lazy = SimplicialTorus(faces, _skip_validation=True)
        assert lazy.oriented_faces == validate_surface(lazy.faces).oriented_faces


def test_torus_simplex_counts():
    # euler 0 with 3F = 2E forces F = 2V and E = 3V
    for T in (moebius_torus(), minimal_torus_3k(6), tube_complex(5)):
        assert len(T.faces) == 2 * T.n_vertices
        assert len(T.edges) == 3 * T.n_vertices


def test_canonical_form_relabeling_invariant(moebius):
    random.seed(11)
    base = canonical_form(moebius)
    for _ in range(5):
        perm = list(range(1, 8))
        random.shuffle(perm)
        assert canonical_form(relabeled(moebius, perm)) == base


def test_canonical_form_under_cyclic_symmetry(moebius):
    # the label rotation i -> i+1 mod 7 is an automorphism of the face list
    perm = [2, 3, 4, 5, 6, 7, 1]
    T2 = relabeled(moebius, perm)
    assert set(T2.faces) == set(moebius.faces)
    assert canonical_form(T2) == canonical_form(moebius)


def test_canonical_forms_distinct_for_distinct_classes(census8):
    forms = {r.canonical_faces for r in census8}
    assert len(forms) == len(census8)
    # canonical form of a canonical form is itself
    for r in census8:
        assert canonical_form(r.torus()) == r.canonical_faces


def test_canonical_scan_matches_unrestricted_scan(monkeypatch):
    """The pruned form scan against the oracle, which walks every flag to
    the end: equal forms and equal first labelings on a seeded relabeling of
    every census class for n = 7..10 and on seeded relabelings of
    minimal_torus_3k(5) and tube_complex(6).  Without a group the scan walks
    exactly the flags (a, b, c) with deg(a) = 3 when there are any, six per
    degree-3 vertex.  Else every flag's form starts (1,2,3), (1,2,4),
    (1,3,6), (1,4,y), and the scan walks exactly the flags with the least
    y, in flag order.  Tori of minimum degree 3, 4, 5 and 6 all occur.  Each
    torus but the n = 10 classes is scanned again with its key scan's ties,
    as the census scans its completions."""
    rng = random.Random(1610)

    def shuffled(T):
        perm = list(range(1, T.n_vertices + 1))
        rng.shuffle(perm)
        return relabeled(T, perm)

    tori = [shuffled(r.torus()) for n in range(7, 11) for r in enumerate_tori(n)]
    tori += [shuffled(T) for T in (minimal_torus_3k(5), tube_complex(6)) for _ in range(3)]
    walks = []
    original = surfaces._form_labels

    def counting(T, flag, best):
        walks.append(flag)
        return original(T, flag, best)

    monkeypatch.setattr(surfaces, "_form_labels", counting)
    min_degrees = set()
    for T in tori:
        scans = list(oracle_flag_forms(T))
        expected = min(scans, key=lambda scan: scan[0])  # as oracle_canonical_scan(T)
        del walks[:]
        assert surfaces._canonical_scan(T) == expected
        degrees = [len(ns) for ns in T.neighbors.values()]
        min_degrees.add(min(degrees))
        if 3 in degrees:
            assert len(walks) == 6 * degrees.count(3)
        else:
            heads = []
            for form, _ in scans:
                assert form[:3] == ((1, 2, 3), (1, 2, 4), (1, 3, 6)) and form[3][:2] == (1, 4)
                heads.append(form[3][2])
            flags = [flag for f in T.faces for flag in surfaces._flags(f)]
            assert walks == [flag for flag, y in zip(flags, heads) if y == min(heads)]
        if T.n_vertices != 10:
            assert surfaces._canonical_scan(T, surfaces._key_scan(T)[1]) == expected
    assert min_degrees == {3, 4, 5, 6}


def test_is_isomorphic_returns_valid_bijection(minimal5):
    random.seed(5)
    perm = list(range(1, minimal5.n_vertices + 1))
    random.shuffle(perm)
    T2 = relabeled(minimal5, perm)
    iso = is_isomorphic(minimal5, T2)
    assert iso is not None
    faces2 = set(T2.faces)
    assert all(tuple(sorted(iso[v] for v in f)) in faces2 for f in minimal5.faces)


def test_moebius_is_minimal3k_at_3(moebius):
    assert is_isomorphic(moebius, minimal_torus_3k(3)) is not None


def test_no_isomorphism_across_sizes(moebius, census8):
    assert is_isomorphic(moebius, census8[0].torus()) is None


def test_canonical_congruence_on_census(census8):
    # equal forms <=> bijection found, across all pairs of 8-vertex classes
    for i, a in enumerate(census8):
        for b in census8[i:]:
            iso = is_isomorphic(a.torus(), b.torus())
            same = a.canonical_faces == b.canonical_faces
            assert (iso is not None) == same


def test_vertex_links(moebius):
    for v in range(1, 8):
        assert len(vertex_link(moebius, v)) == 6
    tetra = validate_surface(TETRA)
    assert tetra.n_vertices == 4
    # an unvalidated torus builds its rotation from its own faces, so the
    # link works on a sphere too
    link = vertex_link(SimplicialTorus(TETRA, _skip_validation=True), 1)
    assert sorted(link.vertices) == [2, 3, 4]


def test_rotation_core_matches_face_scans():
    """The cached rotation system against face scans, on named tori, every
    census class for n <= 9 and a seeded relabeling of each: links, left
    and corner faces, the edge map, and cuts along every face boundary and
    both fundamental cycles."""
    rng = random.Random(4099)
    tori = [moebius_torus(), minimal_torus_3k(5), tube_complex(4)]
    tori += [r.torus() for n in (7, 8, 9) for r in enumerate_tori(n)]
    for T0 in tori:
        perm = list(range(1, T0.n_vertices + 1))
        rng.shuffle(perm)
        for T in (T0, relabeled(T0, perm)):
            rot = T.rotation
            assert len(rot) == 2 * len(T.edges)
            for (u, v), (i, w) in rot.items():
                a, b, c = T.oriented_faces[i]
                assert (u, v, w) in ((a, b, c), (b, c, a), (c, a, b))
                assert set(T.faces[i]) == {u, v, w}
            for v in range(1, T.n_vertices + 1):
                scanned = link_cycle(T.faces, v)
                assert vertex_link(T, v).vertices == tuple(scanned)
                walk = [scanned[0]]
                while (w := rot[v, walk[-1]][1]) != walk[0]:
                    walk.append(w)
                assert Cycle(walk).canonical() == Cycle(scanned).canonical()
            assert T.edge_faces == {
                e: [i for i, f in enumerate(T.faces) if set(e) <= set(f)]
                for e in T.edges}
            cycles = [Cycle(f) for f in T.faces]
            cycles += homology_basis(T).fundamental_cycles
            for C in cycles:
                cut = cut_along_cycle(T, C)
                faces, components, circles = oracle_cut(T, C.vertices)
                assert (cut.faces, cut.n_components, circles) == (faces, components, 2)


def test_handshake(tube4):
    degrees = [tube4.degree(v) for v in range(1, tube4.n_vertices + 1)]
    assert sum(degrees) == 2 * len(tube4.edges)
    assert all(len(vertex_link(tube4, v)) == d
               for v, d in zip(range(1, tube4.n_vertices + 1), degrees))


def test_automorphisms_and_orbits(moebius):
    autos = automorphism_group(moebius)
    assert len(autos) == 42
    faces = set(moebius.faces)
    for a in autos[:7]:
        assert all(tuple(sorted(a[v] for v in f)) in faces for f in moebius.faces)
    assert oracle_vertex_orbits(moebius, autos) == [tuple(range(1, 8))]


def test_automorphisms_match_oracle():
    """The key scan's tie group against the full-scan oracle, on named tori,
    every census class for n = 7 and 8, and seeded relabelings of each."""
    rng = random.Random(1281)
    tori = [moebius_torus(), minimal_torus_3k(5), tube_complex(4)]
    tori += [r.torus() for n in (7, 8) for r in enumerate_tori(n)]
    for T in tori:
        invariants = None
        for trial in range(3):
            if trial:
                perm = list(range(1, T.n_vertices + 1))
                rng.shuffle(perm)
                T = relabeled(T, perm)
            autos = automorphism_group(T)
            assert autos[0] == {v: v for v in range(1, T.n_vertices + 1)}
            faces = set(T.faces)
            for a in autos:
                assert {tuple(sorted(a[v] for v in f)) for f in T.faces} == faces
            got = {tuple(sorted(a.items())) for a in autos}
            oracle = oracle_automorphisms(T)
            assert len(got) == len(autos)
            assert got == {tuple(sorted(a.items())) for a in oracle}
            orbits = oracle_vertex_orbits(T, autos)
            assert orbits == oracle_vertex_orbits(T, oracle)
            here = (len(autos), sorted(len(o) for o in orbits))
            assert invariants in (None, here)
            invariants = here


def test_pruned_group_on_large_tori():
    """Both k = 40 tori, relabeled, and the torus of the k = 8 cyclic
    polytope against the full-scan oracle."""
    rng = random.Random(4001)
    large = []
    for T in (minimal_torus_3k(40), tube_complex(40)):
        perm = list(range(1, T.n_vertices + 1))
        rng.shuffle(perm)
        large.append(relabeled(T, perm))
    for T in large + [cyclic_polytope_realization(8).complex]:
        autos = automorphism_group(T)
        assert autos[0] == {v: v for v in range(1, T.n_vertices + 1)}
        faces = set(T.faces)
        for a in autos:
            assert {tuple(sorted(a[v] for v in f)) for f in T.faces} == faces
        got = {tuple(sorted(a.items())) for a in autos}
        oracle = oracle_automorphisms(T)
        assert len(got) == len(autos)
        assert got == {tuple(sorted(a.items())) for a in oracle}
        assert oracle_vertex_orbits(T, autos) == oracle_vertex_orbits(T, oracle)


@cache
def _relabeling_bases():
    """Named tori and every census class for n <= 8, each with its
    (canonical key, canonical form, |Aut|, sorted vertex-orbit sizes)."""
    tori = [moebius_torus(), minimal_torus_3k(5)]
    tori += [r.torus() for n in (7, 8) for r in enumerate_tori(n)]
    return [(T, _relabeling_invariants(T)) for T in tori]


def _relabeling_invariants(T):
    autos = automorphism_group(T)
    return (canonical_key(T), canonical_form(T), len(autos),
            sorted(len(o) for o in oracle_vertex_orbits(T, autos)))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_invariants_under_random_relabeling(data):
    """Key, form, |Aut| and the vertex-orbit sizes ignore the labels."""
    bases = _relabeling_bases()
    T, expected = bases[data.draw(st.integers(0, len(bases) - 1))]
    perm = data.draw(st.permutations(range(1, T.n_vertices + 1)))
    assert _relabeling_invariants(relabeled(T, perm)) == expected


def _assert_key_matches_form(tori):
    """Keys equal exactly when sorted forms are; the tie count is |Aut|,
    counted by the full-scan oracle."""
    key_form, form_key = {}, {}
    for T in tori:
        key, order = canonical_key(T)
        form = canonical_form(T)
        assert key_form.setdefault(key, form) == form
        assert form_key.setdefault(form, key) == key
        assert order == len(oracle_automorphisms(T))
    return len(key_form)


def test_canonical_key_matches_form_on_completions():
    """Every strategy-A and strategy-B completion at n = 7 and 8, taken
    before deduplication, against the slow sorted canonical form."""
    tori = [T for n in (7, 8) for strategy in ("a", "b")
            for T, _ in _completions(n, strategy, _Budget(None))]
    assert len(tori) > 2 * 8
    assert _assert_key_matches_form(tori) == 1 + 7


def test_canonical_key_relabeling_invariant():
    """Seeded relabelings of named tori and every census class for n <= 9."""
    rng = random.Random(3137)
    tori = [moebius_torus(), minimal_torus_3k(5)]
    tori += [r.torus() for n in (7, 8, 9) for r in enumerate_tori(n)]
    for T in tori:
        expected = canonical_key(T)
        for _ in range(2):
            perm = list(range(1, T.n_vertices + 1))
            rng.shuffle(perm)
            assert canonical_key(relabeled(T, perm)) == expected
    # the moebius torus is the n = 7 class
    assert _assert_key_matches_form(tori) == len(tori) - 1


def test_automorphism_group_returns_fresh_copies(minimal5):
    first = automorphism_group(minimal5)
    order = len(first)
    first[0][1] = 99
    first.clear()
    again = automorphism_group(minimal5)
    assert len(again) == order and again[0][1] == 1


def test_canonical_labeling_realizes_form(minimal5):
    lab = canonical_labeling(minimal5)
    relab = sorted(tuple(sorted(lab[v] for v in f)) for f in minimal5.faces)
    assert tuple(relab) == canonical_form(minimal5)


def test_text_roundtrip(minimal5):
    text = format_complex(minimal5)
    T2 = parse_complex("# a comment\n" + text)
    assert T2.faces == minimal5.faces


def test_parse_rejects_bad_header():
    with pytest.raises(PolytorusError):
        parse_complex("not a number\n1 2 3\n")


@pytest.mark.parametrize("old, new, line_no", [
    ("7\n", "0_7\n", 1),
    ("7\n", "\u0667\n", 1),
    ("\n1 2 4\n", "\n\u0661 2 4\n", 2),
    ("\n1 2 4\n", "\n1 2 0_4\n", 2),
], ids=["separator-header", "arabic-indic-header", "arabic-indic-label", "separator-label"])
def test_parse_complex_takes_only_ascii_integers(moebius, old, new, line_no):
    """int() reads each of these as the moebius torus; the grammar of
    parse_rational's tokens rejects them, naming the line."""
    text = format_complex(moebius).replace(old, new, 1)
    assert text != format_complex(moebius)
    with pytest.raises(PolytorusError, match=f"^line {line_no}: "):
        parse_complex(text)


@pytest.mark.parametrize("shift, line_no, label", [(1, 5, 8), (-1, 2, 0)])
def test_parse_complex_rejects_labels_outside_1_to_n(moebius, shift, line_no, label):
    """A file whose labels run 2..8 or 0..6 is refused at its first label
    outside 1..7, not compacted: reports would name other vertices."""
    faces = "".join(f"{a + shift} {b + shift} {c + shift}\n" for a, b, c in moebius.faces)
    with pytest.raises(PolytorusError, match=f"^line {line_no}: label {label} is outside 1..7$"):
        parse_complex("7\n" + faces)


def test_sparse_labels_compacted():
    T = SimplicialTorus([tuple(v * 10 for v in f) for f in moebius_torus().faces])
    assert T.n_vertices == 7
    assert T.relabeling[10] == 1


def test_cycle_validation():
    with pytest.raises(Exception):
        Cycle((1, 2))
    with pytest.raises(Exception):
        Cycle((1, 2, 2))
    assert Cycle((3, 1, 2)).canonical().vertices == (1, 2, 3)
