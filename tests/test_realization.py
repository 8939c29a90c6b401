"""Exact realizations: radius choice, tubes, complements, cyclic polytopes,
mesh I/O.  The expensive trefoil constructions live in the acceptance suite;
apart from one trefoil tube, everything here sticks to the triangle unknot
and small k."""

import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from oracles import (
    _facet_plane,
    face_points,
    oracle_circumcenter,
    oracle_encloses,
    oracle_faces_in_facets,
    oracle_first_conflict,
    oracle_gale_evenness,
    oracle_hull_facets,
    oracle_prism_faces,
    oracle_strict_edge_support,
    oracle_verify_embedding,
    oracle_viewpoint_sides,
    orient3d,
    supporting_plane_of_edge,
)
from polytorus.cycles import homology_basis, cycle_signature, stick_number_and_type
from polytorus.diagrams import polygon_determinant
from polytorus.errors import (
    DegenerateFace,
    DegenerateKnot,
    EnclosureFailure,
    EpsilonTooLarge,
    FaceNotInPolytope,
    ParseError,
    PolytorusError,
    SeparatingCycle,
)
from polytorus.generators import ring_cycle
from polytorus.geometry import (
    PAIR_RULES,
    add,
    collinear,
    dot,
    first_conflict,
    homogeneous_point,
    norm2,
    parse_rational,
    scale,
    sub,
)
from polytorus.knots import StickKnot, trefoil_6stick, triangle_unknot
import polytorus.realization as realization
from polytorus.realization import (
    ExactRadius,
    Mesh,
    choose_epsilon,
    classify_cycle_in_tube,
    core_curve,
    cyclic_facets,
    cyclic_polytope_realization,
    export_mesh,
    gale_evenness,
    import_off,
    tube_construction,
    verify_embedding,
)
from polytorus.surfaces import Cycle, SimplicialTorus, canonical_form


@pytest.fixture(scope="module")
def tri_tube():
    return tube_construction(triangle_unknot())


def test_epsilon_closed_form_bound():
    # right triangle (0,0,0),(1,0,0),(0,1,0): nearest vertex-edge distance
    # is from a leg vertex to the hypotenuse, squared 1/2; quartering the
    # distance squares the factor to 1/16
    bound = choose_epsilon(triangle_unknot())
    assert bound.sq == Fraction(1, 2) / 16


def test_epsilon_scale_covariant():
    base = choose_epsilon(triangle_unknot())
    for lam in (2, Fraction(3, 7), Fraction(5)):
        scaled = choose_epsilon(triangle_unknot().scaled(lam))
        assert scaled.sq == base.sq * lam ** 2


def test_exact_radius_arithmetic():
    r = ExactRadius.from_value(Fraction(3, 2))
    assert r.sq == Fraction(9, 4)
    assert r.halved().sq == Fraction(9, 16)


def test_tube_triangle(tri_tube):
    rep = tri_tube.complex.report
    assert (rep.n_vertices, rep.n_faces) == (9, 18)
    # the construction's own proof agrees with a fresh one
    assert tri_tube.embedding.ok
    assert verify_embedding(tri_tube).ok
    eps_sq = tri_tube.provenance["epsilon_sq"]
    assert eps_sq <= choose_epsilon(triangle_unknot()).sq
    K = triangle_unknot()
    normals = tri_tube.provenance["ring_normals"]
    radii = tri_tube.provenance["ring_radius_sq"]
    for r in range(3):
        v = K.vertices[r]
        n = normals[r]
        pts = [tri_tube.coords[3 * r + 1 + j] for j in range(3)]
        for p in pts:
            # exactly in the recorded ring plane, exactly on the ring circle
            assert dot(n, sub(p, v)) == 0
            assert norm2(sub(p, v)) == radii[r]
        assert radii[r] <= eps_sq


def test_tube_core_recovered_exactly(tri_tube):
    assert core_curve(tri_tube) == triangle_unknot()


def test_oversized_radius_rejected():
    with pytest.raises(EpsilonTooLarge):
        tube_construction(triangle_unknot(), ExactRadius.from_value(10))


def _dragged(tube):
    """The tube with one vertex dragged across it onto the knot."""
    coords = dict(tube.coords)
    coords[1] = triangle_unknot().vertices[1]
    return Mesh(coords, tube.complex, {})


def _pushed_through(tube, face):
    """The tube with ``face`` subdivided by a new vertex at the centroid
    reflected through the midpoint of the first stick, across the tube."""
    K = triangle_unknot()
    a, b, c = face
    g = scale(add(add(tube.coords[a], tube.coords[b]), tube.coords[c]), Fraction(1, 3))
    y = sub(add(K.vertices[0], K.vertices[1]), g)
    n = tube.complex.n_vertices + 1
    coords = dict(tube.coords)
    coords[n] = y
    faces = [f for f in tube.complex.faces if f != face]
    faces += [(a, b, n), (a, c, n), (b, c, n)]
    return Mesh(coords, SimplicialTorus(faces), {})


def _moved(mesh, lam, off, perm, signs):
    """``mesh`` under x -> lam * (signed permutation of x) + off."""
    coords = {v: tuple(lam * signs[i] * p[perm[i]] + off[i] for i in range(3))
              for v, p in mesh.coords.items()}
    return Mesh(coords, mesh.complex, {})


def _matches_oracles(mesh, report):
    """``report`` has the rational all-pairs oracle's verdict and face pair,
    and the pair loop oracle's reason for that pair."""
    want = oracle_verify_embedding(mesh)
    assert report.ok == want.ok
    if not report.ok:
        faces, labels = mesh.complex.faces, sorted(mesh.coords)
        index = {v: i for i, v in enumerate(labels)}
        (i, j, reason), _ = oracle_first_conflict(
            [homogeneous_point(mesh.coords[v]) for v in labels],
            [tuple(index[v] for v in f) for f in faces])
        assert report.witness == (*want.witness[:2], reason) == (faces[i], faces[j], reason)


def test_embedding_detects_collision(tri_tube):
    report = verify_embedding(_dragged(tri_tube))
    assert not report.ok
    assert report.witness is not None


def test_verify_rejects_coincident_vertices(tri_tube):
    coords = dict(tri_tube.coords)
    coords[1] = coords[2]
    mesh = Mesh(coords, tri_tube.complex, {})
    for verify in (verify_embedding, oracle_verify_embedding):
        with pytest.raises(PolytorusError, match="^coincident mesh vertices$"):
            verify(mesh)


@pytest.mark.parametrize("collapse", [(0,), (-1,), (-1, 4)], ids=["first", "last", "two"])
def test_verify_names_the_first_degenerate_face(tri_tube, collapse):
    """Faces made collinear by moving a corner onto the midpoint of the
    other two: the first of them in face order is named, before any face
    pair is decided, as the rational oracle names it."""
    faces = tri_tube.complex.faces
    coords = dict(tri_tube.coords)
    for k in collapse:
        a, b, c = faces[k]
        coords[a] = scale(add(coords[b], coords[c]), Fraction(1, 2))
    mesh = Mesh(coords, tri_tube.complex, {})
    first = faces[min(k % len(faces) for k in collapse)]
    assert first == next(f for f in faces if collinear(*face_points(mesh, f)))
    for verify in (verify_embedding, oracle_verify_embedding):
        with pytest.raises(DegenerateFace) as exc:
            verify(mesh)
        assert exc.value.face == first
        assert str(exc.value) == f"degenerate face {first}"


def test_verify_matches_oracle_on_constructed_meshes(monkeypatch):
    """Every mesh the constructions prove, failed candidates included, gets
    the rational all-pairs oracle's verdict and witness pair, and the pair
    loop oracle's reason."""
    from polytorus.realization import complement_construction
    proved = []

    def recording(mesh):
        report = verify_embedding(mesh)
        proved.append((mesh, report))
        return report

    monkeypatch.setattr(realization, "verify_embedding", recording)
    tube_construction(triangle_unknot())
    tube_construction(StickKnot([(0, 0, 0), (3, 0, 1), (3, 3, 0), (0, 3, 1)]))
    tube_construction(triangle_unknot().scaled(Fraction(7, 3)))
    complement_construction(triangle_unknot())
    for k in (3, 4, 5):
        cyclic_polytope_realization(k)
    assert len(proved) == 9  # the complement proves its tube, candidate and glued mesh
    for mesh, report in proved:
        _matches_oracles(mesh, report)


def test_verify_matches_oracle_on_colliding_meshes(tri_tube):
    """The dragged vertex, and subdivision candidates whose new vertex is
    pushed across the tube: the same verdicts, witness pairs and reasons
    as the oracles, failures among them."""
    meshes = [_dragged(tri_tube)] + [_pushed_through(tri_tube, f)
                                     for f in tri_tube.complex.faces[:6]]
    reports = [verify_embedding(m) for m in meshes]
    assert sum(not r.ok for r in reports) >= 3
    for mesh, report in zip(meshes, reports):
        _matches_oracles(mesh, report)


@pytest.mark.parametrize("lam, off, perm, signs", [
    (Fraction(2), (0, 0, 0), (0, 1, 2), (1, 1, 1)),
    (Fraction(3, 7), (Fraction(1, 3), -2, Fraction(5, 4)), (1, 2, 0), (1, -1, -1)),
    (Fraction(11, 5), (7, Fraction(-2, 9), 0), (2, 1, 0), (-1, 1, 1)),  # a reflection
], ids=["scale", "rotation", "reflection"])
def test_verdict_invariant_under_rational_motions(tri_tube, lam, off, perm, signs):
    """A similarity moves no face pair from one rule to another, and keeps
    every verdict and witness pair."""
    for mesh in (tri_tube, _dragged(tri_tube), _pushed_through(tri_tube, tri_tube.complex.faces[1])):
        base = verify_embedding(mesh)
        moved = verify_embedding(_moved(mesh, lam, off, perm, signs))
        assert moved.ok == base.ok
        assert moved.discharged == base.discharged
        if not base.ok:
            assert moved.witness[:2] == base.witness[:2]
            _matches_oracles(_moved(mesh, lam, off, perm, signs), moved)


def test_discharged_counts_cover_every_pair(tri_tube):
    for mesh in (tri_tube, cyclic_polytope_realization(4)):
        report = verify_embedding(mesh)
        n = len(mesh.complex.faces)
        assert report.ok and set(report.discharged) == set(PAIR_RULES)
        assert sum(report.discharged.values()) == n * (n - 1) // 2
        # the construction's own report carries the same certificate
        assert mesh.embedding.discharged == report.discharged


def test_classify_ring_meridian(tri_tube):
    cls, cert = classify_cycle_in_tube(tri_tube, ring_cycle(3))
    assert cls == "meridian"
    assert abs(cert["linking_with_core"]) == 1


def test_classify_longitudinal_cycle(tri_tube):
    T = tri_tube.complex
    basis = homology_basis(T)
    res = stick_number_and_type(T, basis)
    msig = cycle_signature(T, basis, ring_cycle(3))
    # witness_m and witness_s lie in non-proportional classes, so at least
    # one of them is not in the meridian class
    longish = next(c for c in (res.witness_m, res.witness_s)
                   if not cycle_signature(T, basis, c).proportional_to(msig))
    cls, _ = classify_cycle_in_tube(tri_tube, longish, certificate=False)
    assert cls == "non-meridian"


def test_classify_rejects_separating(tri_tube):
    with pytest.raises(SeparatingCycle):
        classify_cycle_in_tube(tri_tube, Cycle(tri_tube.complex.faces[0]))


def test_gale_evenness_examples():
    assert gale_evenness((1, 2, 4, 5), 7)
    assert not gale_evenness((1, 2, 4, 6), 7)
    assert gale_evenness((1, 4, 5, 7), 7)  # wrap-around pair {7,1}
    assert len(cyclic_facets(7)) == 14
    assert all(gale_evenness(f, 7) for f in cyclic_facets(7))


def test_cyclic_realization_small():
    mesh = cyclic_polytope_realization(3)
    assert mesh.complex.n_vertices == 7
    assert mesh.embedding.ok
    assert verify_embedding(mesh).ok
    assert mesh.provenance["core_determinant"] == 1


def test_cyclic_core_is_an_s_cycle_of_the_type_search():
    """For k = 3..40 the core whose determinant the cyclic realization
    prints, 1, 4, ..., 3k-2 (the first k entries of the Hamiltonian
    sequence), is a cycle of the torus of length s, in a class not
    proportional to the empty triangle (1, 2, 3)'s, and its determinant is
    that of the type search's s-witness, 1."""
    for k in range(3, 41):
        mesh = cyclic_polytope_realization(k)
        T = mesh.complex
        core = Cycle(realization.hamiltonian_sequence(k)[:k])
        T.require_cycle(core)
        res = stick_number_and_type(T)
        assert (res.m, res.s) == (3, len(core))
        basis = homology_basis(T)
        triangle = cycle_signature(T, basis, Cycle((1, 2, 3)))
        assert not cycle_signature(T, basis, core).proportional_to(triangle)
        witness = polygon_determinant(mesh.cycle_points(res.witness_s))
        assert mesh.provenance["core_determinant"] == witness == 1


def test_closed_form_facet_planes(monkeypatch):
    """For every facet of C_4(n), 7 <= n <= 40, the Plücker plane through
    the four moment points is the closed-form plane (N, c) times minus the
    Vandermonde product of the positions, which is the closed form with
    that lead; N.m(t) - c is the product of t - t_i at every position t,
    and the side of the centroid read from the power sums is the sum of the
    sides of the moment points.  The realization's projection plane, the
    normal its viewpoint moves along, is the Plücker plane of the facet
    (1, 2, 3, 4)."""
    for n in range(7, 41):
        total = [sum(t ** i for t in range(1, n + 1)) for i in range(1, 5)]
        for g in cyclic_facets(n):
            N, c = realization._moment_plane(g)
            lam = -math.prod(b - a for a, b in combinations(g, 2))
            assert _facet_plane(g) == (tuple(lam * x for x in N), lam * c)
            assert realization._moment_plane(g, lam) == _facet_plane(g)
            sides = [realization._dot4(N, realization._moment_point(t)) - c
                     for t in range(1, n + 1)]
            assert sides == [math.prod(t - ti for ti in g) for t in range(1, n + 1)]
            assert realization._dot4(N, total) - n * c == sum(sides)
    planes, normals = [], []
    moment_plane, viewpoint = realization._moment_plane, realization._schlegel_viewpoint
    monkeypatch.setattr(realization, "_moment_plane",
                        lambda *args: planes.append(moment_plane(*args)) or planes[-1])
    monkeypatch.setattr(realization, "_schlegel_viewpoint",
                        lambda fp, N, sides: normals.append(N) or viewpoint(fp, N, sides))
    cyclic_polytope_realization(5)
    N, c = _facet_plane((1, 2, 3, 4))
    assert planes.count((N, c)) == 1 and normals == [N]


def test_schlegel_viewpoint_strictly_beneath_every_facet():
    """A viewpoint on a facet hyperplane is refused, whichever side of it
    the centroid lies: here x's side 4^j (-1) + 4 is 0 at j = 1 and the
    centroid's side is negative, so j = 2 is the first viewpoint."""
    sum_fp, N = (10, 30, 100, 354), (600, -420, 120, -12)
    x4, w = realization._schlegel_viewpoint(sum_fp, N, [(-1, -1, 4)])
    assert w == 4 ** 3
    assert x4 == [16 * f + 4 * nn for f, nn in zip(sum_fp, N)]
    for sides in ([(-1, 0, 0)], [(1, 0, 0)], [(0, 1, 1)]):
        with pytest.raises(PolytorusError, match="no Schlegel viewpoint"):
            realization._schlegel_viewpoint(sum_fp, N, sides)


def test_cyclic_realization_face_membership():
    # every face of the relabeled torus is covered by a Gale facet; the
    # construction would raise FaceNotInPolytope otherwise
    for k in (4, 5):
        mesh = cyclic_polytope_realization(k)
        assert mesh.complex.n_vertices == 3 * k - 2


def test_cyclic_realization_face_outside_facets(monkeypatch):
    # swapping the last two positions of the k=4 sequence puts the torus
    # face (1, 8, 9) in no facet of C_4(10)
    monkeypatch.setattr(realization, "hamiltonian_sequence",
                        lambda k: (1, 4, 7, 10, 3, 6, 9, 2, 8, 5))
    with pytest.raises(FaceNotInPolytope, match=r"\(1, 8, 9\)"):
        cyclic_polytope_realization(4)


def test_off_roundtrip(tmp_path, tri_tube):
    path = tmp_path / "tube.off"
    export_mesh(tri_tube, path, "off", precision=15)
    text = path.read_text().splitlines()
    assert text[0] == "OFF"
    assert text[1] == "9 18 0"
    mesh2 = import_off(path)
    assert mesh2.embedding is None
    assert canonical_form(mesh2.complex) == canonical_form(tri_tube.complex)
    for v in range(1, 10):
        for a, b in zip(mesh2.coords[v], tri_tube.coords[v]):
            assert abs(a - b) <= Fraction(1, 10 ** 14)


def test_obj_export(tmp_path, tri_tube):
    path = tmp_path / "tube.obj"
    export_mesh(tri_tube, path, "obj", precision=6)
    lines = path.read_text().splitlines()
    vs = [l for l in lines if l.startswith("v ")]
    fs = [l for l in lines if l.startswith("f ")]
    assert len(vs) == 9 and len(fs) == 18
    # OBJ faces are 1-based
    assert all(min(int(x) for x in l.split()[1:]) >= 1 for l in fs)


def test_import_off_rejects_garbage(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("NOT_OFF\n")
    with pytest.raises(ParseError):
        import_off(path)


@pytest.mark.parametrize("text, line_no", [
    ("OFF\n", 1),                                           # header only
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n", 4),                      # vertex list cut short
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n", 5),               # face list cut short
    ("OFF\n3 x 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", 2),     # non-integer count
    ("OFF\n3 1 0\n0 0 0\n0 1 z\n0 1 0\n3 0 1 2\n", 4),     # non-numeric coordinate
    ("OFF\n3 1 0\n0 0 0\n1e99999999 0 0\n0 1 0\n3 0 1 2\n", 4),  # exponent out of range
    # int() takes these digits and separators; the integer grammar does not
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 \u0662\n", 6),  # Arabic-Indic 2
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 0_2\n", 6),
    ("OFF\n\uff13 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", 2),  # fullwidth 3
    ("OFF\n3 1 0_0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", 2),
], ids=["header-only", "truncated-vertices", "truncated-faces", "bad-count", "bad-coordinate",
        "huge-exponent", "non-ascii-index", "separator-index", "non-ascii-count",
        "separator-count"])
def test_import_off_malformed_reports_line(tmp_path, text, line_no):
    path = tmp_path / "bad.off"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        import_off(path)
    assert exc.value.line_no == line_no


def test_import_off_rejects_non_utf8(tmp_path):
    path = tmp_path / "bad.off"
    path.write_bytes(b"OFF\n3 1 0\n0 0 \xff\n")
    with pytest.raises(ParseError) as exc:
        import_off(path)
    assert exc.value.line_no == 3


def test_import_off_rejects_unused_vertex(tmp_path, tri_tube):
    path = tmp_path / "tube.off"
    export_mesh(tri_tube, path, "off", precision=15)
    lines = path.read_text().splitlines()
    # prepend a vertex no face uses and shift the face indices past it
    shifted = ["3 " + " ".join(str(int(j) + 1) for j in l.split()[1:]) for l in lines[11:]]
    path.write_text("\n".join(["OFF", "10 18 0", "5 5 5"] + lines[2:11] + shifted) + "\n")
    with pytest.raises(PolytorusError, match="faces use 9"):
        import_off(path)


def test_complement_triangle():
    from polytorus.realization import complement_construction
    mesh = complement_construction(triangle_unknot())
    rep = mesh.complex.report
    assert rep.n_vertices == 13
    assert rep.n_faces == 2 * 13
    assert rep.euler == 0 and rep.orientable
    assert mesh.embedding.ok
    assert verify_embedding(mesh).ok
    # the glued edge lies on the convex hull of the tube points
    v1, v2 = mesh.provenance["glued_edge"]
    tube_pts = [mesh.coords[i] for i in range(1, 10)]
    assert supporting_plane_of_edge(tube_pts, v1 - 1, v2 - 1) is not None


def test_tube_nonplanar_quad_unknot():
    """A second, four-stick input: nonplanar quadrilateral in general
    position."""
    from polytorus.diagrams import knot_determinant
    K = StickKnot([(0, 0, 0), (3, 0, 1), (3, 3, 0), (0, 3, 1)])
    assert K.is_general_position()
    mesh = tube_construction(K)
    assert mesh.complex.n_vertices == 12
    assert verify_embedding(mesh).ok
    assert core_curve(mesh) == K
    assert knot_determinant(core_curve(mesh)) == 1


def test_tube_invariant_under_scaling():
    """Determinant and embedding survive a rational scaling of the knot."""
    from polytorus.diagrams import knot_determinant
    K = triangle_unknot().scaled(Fraction(7, 3))
    mesh = tube_construction(K)
    assert verify_embedding(mesh).ok
    assert knot_determinant(core_curve(mesh)) == 1


@pytest.mark.parametrize("scale, what, eps", [
    ("1e400", "tube", None), ("1e400", "complement", None),
    ("1e-400", "tube", None), ("1e-400", "complement", None), ("1", "tube", "1e-400")])
def test_trefoil_certifies_at_extreme_scales(scale, what, eps):
    """``choose_epsilon`` is exactly scale-covariant, and the constructions
    follow it: the trefoil scaled by 10**400 and by 10**-400, tube and
    complement, and its tube at radius 10**-400 certify with the exact core
    and determinant 3.  The ring corners' floats once overflowed or
    underflowed to zero at these scales."""
    from polytorus.diagrams import knot_determinant
    from polytorus.realization import complement_construction
    K = trefoil_6stick().scaled(parse_rational(scale))
    if what == "tube":
        mesh = tube_construction(K, None if eps is None else ExactRadius.from_value(eps))
    else:
        mesh = complement_construction(K)
    assert mesh.embedding.ok
    assert core_curve(mesh) == K
    assert knot_determinant(core_curve(mesh)) == 3


def test_cyclic_facets_match_gale_predicate():
    """The pair-construction facet list must equal the evenness predicate
    over all 4-subsets: the face-membership check and the Schlegel
    viewpoint check both need it complete."""
    from itertools import combinations
    for n in range(5, 17):
        from_pairs = set(cyclic_facets(n))
        from_predicate = {s for s in combinations(range(1, n + 1), 4)
                          if gale_evenness(s, n)}
        assert from_pairs == from_predicate


def test_gale_evenness_matches_all_pairs_oracle():
    """Consecutive gaps decide evenness as all pairs of non-members do, on
    every subset of up to five positions, some out of range."""
    for n in range(1, 11):
        for size in range(6):
            for s in combinations(range(0, n + 2), size):
                assert gale_evenness(s, n) == oracle_gale_evenness(s, n), (n, s)


def test_cyclic_facets_count():
    for n in range(5, 41):
        facets = cyclic_facets(n)
        assert len(facets) == n * (n - 3) // 2
        assert facets == sorted(set(facets)) and facets[0] == (1, 2, 3, 4)


def test_face_membership_matches_facet_triples():
    """The circular-adjacency test equals membership in the set of every
    triple of every facet, over all 3-subsets of positions."""
    for n in range(7, 41):
        in_facet = oracle_faces_in_facets(n)
        for t in combinations(range(1, n + 1), 3):
            assert realization._in_facet(*t, n) == (t in in_facet), (n, t)


def test_viewpoint_sides_match_plane_and_dot_oracle(monkeypatch):
    """The closed-form ``sides`` equal the per-facet plane-and-dot list
    element for element, on the realization's own vectors and on seeded
    random ones (each entry is a linear form, whatever the vectors); and
    the realization passes the viewpoint exactly that list."""
    rng = random.Random(30)
    sum_fp = [sum(t ** i for t in range(1, 5)) for i in range(1, 5)]
    N = realization._moment_plane((1, 2, 3, 4), -12)[0]
    for n in range(7, 41):
        total = [sum(t ** i for t in range(1, n + 1)) for i in range(1, 5)]
        args = [(total, sum_fp, N)]
        args += [tuple([rng.randint(-10 ** 6, 10 ** 6) for _ in range(4)] for _ in range(3))
                 for _ in range(3)]
        for vectors in args:
            assert realization._viewpoint_sides(n, *vectors) == oracle_viewpoint_sides(n, *vectors)
    seen = []
    viewpoint = realization._schlegel_viewpoint
    monkeypatch.setattr(realization, "_schlegel_viewpoint",
                        lambda fp, N, sides: seen.append((fp, N, sides)) or viewpoint(fp, N, sides))
    for k in (3, 4, 5):
        cyclic_polytope_realization(k)
    for k, (fp, N, sides) in zip((3, 4, 5), seen):
        n = 3 * k - 2
        total = [sum(t ** i for t in range(1, n + 1)) for i in range(1, 5)]
        assert fp == sum_fp and sides == oracle_viewpoint_sides(n, total, sum_fp, N)


# proper signed axis permutations v -> (signs[i] * v[perm[i]]) whose image
# of the z-axis is the x-axis; (2, 0, 1) is even, (2, 1, 0) odd
Z_ONTO_X = [(perm, signs) for perm in ((2, 0, 1), (2, 1, 0))
            for signs in product((1, -1), repeat=3)
            if (1 if perm == (2, 0, 1) else -1) * signs[0] * signs[1] * signs[2] == 1]


@pytest.mark.parametrize("perm, signs", Z_ONTO_X, ids=[
    "".join(map(str, p)) + "".join("+" if x > 0 else "-" for x in s) for p, s in Z_ONTO_X])
def test_tube_rotated_z_onto_x(perm, signs):
    """These rotations put the triangle in the plane x = 0, where the
    frames started from the x-axis twist the rings against each other; each
    prism then finds its side quads' hull diagonals under its own corner
    matching."""
    from polytorus.diagrams import knot_determinant
    K = StickKnot([tuple(signs[i] * v[perm[i]] for i in range(3))
                   for v in triangle_unknot().vertices])
    mesh = tube_construction(K)
    assert mesh.embedding.ok
    assert verify_embedding(mesh).ok
    assert core_curve(mesh) == K
    assert knot_determinant(core_curve(mesh)) == 1


def _seeded_general_position_knots(count, seed=21, sticks=(4, 9), span=8):
    """Random integer polygons with ``sticks`` sticks (inclusive range) and
    coordinates in [-span, span], in general position with positive
    clearance, from a fixed seed."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(*sticks)
        pts = [tuple(rng.randint(-span, span) for _ in range(3)) for _ in range(k)]
        try:
            K = StickKnot(pts)
            if K.is_general_position():
                K.min_clearance_sq()
                out.append(K)
        except DegenerateKnot:
            continue
    return out



def test_radius_halvings_are_recorded(monkeypatch):
    """``provenance["halvings"]`` keeps the reason each larger radius failed,
    in order.  At the closed-form bound the trefoil's tube records none.
    From 64 times the bound, its tube records the prism and
    self-intersection failures ``_tube_at`` raised; its complement records
    the tube's, then its own, here two forced enclosure failures."""
    from polytorus.realization import complement_construction
    K = trefoil_6stick()
    assert tube_construction(K).provenance["halvings"] == []
    bound = choose_epsilon(K).sq
    monkeypatch.setattr(realization, "choose_epsilon", lambda K: ExactRadius(bound * 64 ** 2))
    raised = []

    def recording(step):
        def call(*args):
            try:
                return step(*args)
            except (EnclosureFailure, EpsilonTooLarge) as exc:
                raised.append(str(exc))
                raise
        return call
    monkeypatch.setattr(realization, "_tube_at", recording(realization._tube_at))
    tube = tube_construction(K)
    assert tube.provenance["halvings"] == raised
    assert any(r.startswith("self-intersection: ") for r in raised)
    assert tube.provenance["epsilon_sq"] == bound * 64 ** 2 / 4 ** len(raised)

    raised.clear()
    build, built = realization._build_complement, []

    def failing_twice(K, tube):
        built.append(tube)
        if len(built) <= 2:
            raise EnclosureFailure(f"forced failure {len(built)}")
        return build(K, tube)
    monkeypatch.setattr(realization, "_build_complement", recording(failing_twice))
    mesh = complement_construction(K)
    assert mesh.embedding.ok
    assert mesh.provenance["halvings"] == raised
    assert raised[-2:] == ["forced failure 1", "forced failure 2"]
    assert mesh.provenance["epsilon_sq"] == tube.provenance["epsilon_sq"] / 16

def test_tube_certifies_where_transported_frames_twist():
    """At sharp turns, and across the closing ring, consecutive frames may
    twist far against each other, so that corner i of a ring need not face
    corner i of the next one; each prism then matches its corners to the
    hull.  A general-position 5-stick unknot and ten seeded polygons all
    certify, with the exact core and its determinant recovered."""
    from polytorus.diagrams import knot_determinant
    five = StickKnot([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    assert five.is_general_position()
    knots = [five] + _seeded_general_position_knots(10)
    meshes = [tube_construction(K) for K in knots]
    for K, mesh in zip(knots, meshes):
        assert mesh.embedding.ok
        assert core_curve(mesh) == K
        assert knot_determinant(core_curve(mesh)) == knot_determinant(K)
    _matches_oracles(meshes[0], meshes[0].embedding)


def _coordinate_bits(mesh):
    return max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for p in mesh.coords.values() for c in p)


def test_tube_sweep_certifies_with_bounded_bits():
    """Sixty seeded polygons of 4 to 14 sticks, coordinates in [-20, 20]:
    every tube certifies at the closed-form radius, with no halving, with
    the exact core and its determinant, and the coordinates of the long
    knots are no larger than those of the short ones, since each ring frame
    is transported through a direction of FRAME_BITS bits.  No coordinate
    takes more than 327 bits, the largest with ring normals summed from
    NORMAL_BITS-bit directions (488 with 48-bit ones)."""
    from polytorus.diagrams import knot_determinant
    bits = {}
    for K in _seeded_general_position_knots(60, seed=7, sticks=(4, 14), span=20):
        mesh = tube_construction(K)
        assert mesh.embedding.ok
        assert mesh.provenance["halvings"] == []
        assert core_curve(mesh) == K
        assert knot_determinant(core_curve(mesh)) == knot_determinant(K)
        bits.setdefault(K.k, []).append(_coordinate_bits(mesh))
    short = max(b for k, bs in bits.items() if k <= 5 for b in bs)
    long = max(b for k, bs in bits.items() if k >= 10 for b in bs)
    assert long <= short + 32, (short, long)
    assert max(b for bs in bits.values() for b in bs) <= 327, bits


def test_complements_of_seeded_polygons_certify():
    """The complements of all 40 seeded polygons certify at their tube's
    closed-form radius, with no halving, 3k + 4 vertices and the exact
    core."""
    from polytorus.realization import complement_construction
    for K in _seeded_general_position_knots(40):
        mesh = complement_construction(K)
        assert mesh.embedding.ok
        assert mesh.provenance["halvings"] == []
        assert mesh.complex.n_vertices == 3 * K.k + 4
        assert core_curve(mesh) == K


def test_integer_circumcenter_matches_fraction_oracle():
    """``_circumcenter`` on integers over the common denominator returns the
    Fraction oracle's point: on every ring of the trefoil's tube and
    complement, and on seeded rational triangles with mixed denominators,
    obtuse and right ones among them."""
    from polytorus.realization import complement_construction
    triangles = []
    for mesh in (tube_construction(trefoil_6stick()), complement_construction(trefoil_6stick())):
        triangles += [tuple(mesh.coords[3 * r + j] for j in (1, 2, 3)) for r in range(6)]
    rng = random.Random(28)
    grid = [Fraction(n, d) for d in (1, 2, 3, 7, 2 ** 40) for n in range(-9, 10)]
    while len(triangles) < 400:
        tri = tuple(tuple(rng.choice(grid) for _ in range(3)) for _ in range(3))
        if not collinear(*tri):
            triangles.append(tri)
    triangles.append(((0, 0, 0), (Fraction(1, 3), 0, 0), (0, Fraction(1, 5), 0)))
    for a, b, c in triangles:
        a, b, c = (tuple(map(Fraction, p)) for p in (a, b, c))
        center = realization._circumcenter(a, b, c)
        assert center == oracle_circumcenter(a, b, c)
        assert norm2(sub(center, a)) == norm2(sub(center, b)) == norm2(sub(center, c))


@pytest.mark.parametrize("index", [None, 15], ids=["trefoil", "polygon15"])
def test_complement_records_failed_lifts(monkeypatch, index):
    """``provenance["failed_lifts"]`` holds (w, t, witness) for each lift
    candidate of the subdivision vertex y whose proof failed, in try order:
    on the trefoil's complement, and on seeded polygon 15, whose first
    face fails all 60 values of t.  Each t halves the one before on the
    same face and starts at 1/4 on a new one."""
    from polytorus.realization import complement_construction
    K = trefoil_6stick() if index is None else _seeded_general_position_knots(40)[index]
    proved = []

    def recording(mesh):
        report = verify_embedding(mesh)
        proved.append((mesh, report))
        return report
    monkeypatch.setattr(realization, "verify_embedding", recording)
    mesh = complement_construction(K)
    assert mesh.provenance["halvings"] == []
    y = 3 * K.k + 1
    lifts = [(m, r) for m, r in proved if m.complex.n_vertices == y]
    assert [r.ok for _, r in lifts] == [False] * (len(lifts) - 1) + [True]
    failed = mesh.provenance["failed_lifts"]
    assert [witness for _, _, witness in failed] == [r.witness for _, r in lifts[:-1]]
    v1, _ = mesh.provenance["glued_edge"]
    previous = None
    for (w, t, _), (cand, _) in zip(failed, lifts):
        assert tuple(sorted((v1, y, w))) in cand.complex.faces
        assert t == (previous[1] / 2 if previous and previous[0] == w else Fraction(1, 4))
        previous = (w, t)
    if index == 15:
        assert len(failed) == 60 and len({w for w, _, _ in failed}) == 1


@pytest.mark.parametrize("index", [6, 17, 18, 26])
def test_complement_tries_further_rings(index):
    """Seeded polygons where the ring of the least knot vertex once had, or
    still has, no edge on the hull: a later ring's edge is glued, and the
    complement certifies."""
    from polytorus.realization import complement_construction
    K = _seeded_general_position_knots(40)[index]
    mesh = complement_construction(K)
    assert mesh.embedding.ok
    assert mesh.complex.n_vertices == 3 * K.k + 4
    assert core_curve(mesh) == K


# the 8 signed axis permutations of determinant +1 that fix the x-axis
ROTATIONS_ABOUT_X = [(perm, signs) for perm in ((0, 1, 2), (0, 2, 1))
                     for signs in product((1, -1), repeat=3)
                     if (1 if perm == (0, 1, 2) else -1) * signs[0] * signs[1] * signs[2] == 1]


def _kernel_matches_oracle(points, faces):
    """``first_conflict`` returns the pair loop oracle's (conflict,
    discharged), the conflict's pair and reason included, or raises the
    same DegenerateFace; returns the conflict, or "degenerate"."""
    try:
        want = oracle_first_conflict(points, faces)
    except DegenerateFace as exc:
        with pytest.raises(DegenerateFace) as got:
            first_conflict(points, faces)
        assert got.value.face == exc.face
        return "degenerate"
    assert first_conflict(points, faces) == want
    return want[0]


def test_kernel_matches_pair_loop_oracle_on_constructions(monkeypatch):
    """Every proof of ``realize cyclic --k 3..14``; the tube and complement
    proofs of the triangle unknot and the trefoil under the 8 rotations
    about the x-axis; and every lift candidate and the final mesh of seeded
    polygon 15, whose failed lifts end in conflicts: the row-mask kernel
    returns the one-pair-at-a-time loop's first pair and per-rule counts."""
    from polytorus.realization import complement_construction
    calls = []
    kernel = realization.first_conflict

    def recording(points, faces):
        calls.append((points, faces))
        return kernel(points, faces)
    monkeypatch.setattr(realization, "first_conflict", recording)
    for k in range(3, 15):
        cyclic_polytope_realization(k)
    assert len(calls) == 12
    for K in (triangle_unknot(), trefoil_6stick()):
        for perm, signs in ROTATIONS_ABOUT_X:
            complement_construction(StickKnot([tuple(signs[i] * v[perm[i]] for i in range(3))
                                               for v in K.vertices]))
    complement_construction(_seeded_general_position_knots(40)[15])
    pairs = [_kernel_matches_oracle(points, faces) for points, faces in calls]
    assert sum(pair is not None for pair in pairs) >= 60


def _edge_searches_agree(pts, pairs):
    """``_strict_edge_support`` returns the ``Fraction`` oracle's normal, or
    its None, on each index pair; returns the oracle's answers."""
    H = [homogeneous_point(p) for p in pts]
    answers = []
    for i, j in pairs:
        answers.append(oracle_strict_edge_support(pts, i, j))
        assert realization._strict_edge_support(pts, H, i, j) == answers[-1], (pts, i, j)
    return answers


def test_edge_search_matches_fraction_oracle():
    """The integer edge search agrees with the ``Fraction`` one on every ring
    edge of the tubes of the 40 seeded polygons, and of the triangle unknot
    and the trefoil under the 8 rotations about the x-axis; and on every
    pair of the unit cube's corners and of seeded subsets of a 3x3x3 grid.
    Tube points are in general position, so each hull edge there lies in
    two hull facets; the grids add edges that lie in a hull facet with no
    plane through them supporting strictly."""
    knots = _seeded_general_position_knots(40) + [
        StickKnot([tuple(signs[i] * v[perm[i]] for i in range(3)) for v in K.vertices])
        for K in (triangle_unknot(), trefoil_6stick()) for perm, signs in ROTATIONS_ABOUT_X]
    on_hull = 0
    for K in knots:
        tube = tube_construction(K)
        pts = [tube.coords[v] for v in range(1, 3 * K.k + 1)]
        on_hull += sum(n is not None for n in _edge_searches_agree(
            pts, [(3 * r + a, 3 * r + b) for r in range(K.k) for a, b in ((0, 1), (0, 2), (1, 2))]))
    grid = [tuple(map(Fraction, p)) for p in product(range(3), repeat=3)]
    rng = random.Random(32)
    weak_only = 0
    for pts in [[p for p in grid if max(p) <= 1]] + [rng.sample(grid, rng.randint(5, 10))
                                                     for _ in range(20)]:
        pairs = list(combinations(range(len(pts)), 2))
        weak_only += sum(n is None and supporting_plane_of_edge(pts, i, j) is not None
                         for (i, j), n in zip(pairs, _edge_searches_agree(pts, pairs)))
    assert on_hull >= 300 and weak_only >= 100, (on_hull, weak_only)


def test_kernel_matches_pair_loop_oracle_on_perturbed_cyclic_mesh():
    """The k = 8 cyclic mesh with one to three points moved, each to a
    seeded point of its line through another point: at least 100 of the
    moved meshes conflict, and each gets the oracle's pair and counts."""
    mesh = cyclic_polytope_realization(8)
    labels = sorted(mesh.coords)
    index = {v: i for i, v in enumerate(labels)}
    faces = [tuple(index[v] for v in f) for f in mesh.complex.faces]
    rng = random.Random(27)
    outcomes = []
    while len(outcomes) < 300:
        pts = [mesh.coords[v] for v in labels]
        for _ in range(rng.randint(1, 3)):
            a, b = rng.sample(range(len(pts)), 2)
            pts[a] = add(pts[a], scale(sub(pts[b], pts[a]), Fraction(rng.randint(-8, 16), 8)))
        if len(set(pts)) == len(pts):
            outcomes.append(_kernel_matches_oracle([homogeneous_point(p) for p in pts], faces))
    assert sum(o is not None for o in outcomes) >= 100
    assert sum(o is None for o in outcomes) >= 10


def _rational(p):
    """The rational point of a homogeneous one."""
    return tuple(Fraction(c, p[3]) for c in p[:3])


def test_hull_certificates_match_oracle_on_constructions(monkeypatch):
    """Every prism set the tube and complement constructions certify or
    reject gets the Carathéodory oracle's verdict, reason and faces; every
    candidate octahedron its rational facets and enclosure verdict."""
    from polytorus.realization import complement_construction
    prisms, tables = [], []
    prism_faces, hull_table = realization._prism_faces, realization._hull_table

    def recorded_prisms(coords, k):
        prisms.append((dict(coords), k, prism_faces(coords, k)))
        return prisms[-1][2]

    def recorded_table(points):
        tables.append((points, hull_table(points)))
        return tables[-1][1]
    monkeypatch.setattr(realization, "_prism_faces", recorded_prisms)
    monkeypatch.setattr(realization, "_hull_table", recorded_table)
    for perm, signs in [((0, 1, 2), (1, 1, 1))] + Z_ONTO_X:
        K = StickKnot([tuple(signs[i] * v[perm[i]] for i in range(3))
                       for v in triangle_unknot().vertices])
        for eps in (None, "1", "1/2", "1/20"):
            try:
                tube_construction(K, eps and ExactRadius.from_value(eps))
            except EpsilonTooLarge:
                pass
    tube_construction(trefoil_6stick())
    with pytest.raises(EpsilonTooLarge, match="^ring point 7 inside prism hull 2$"):
        tube_construction(trefoil_6stick(), ExactRadius.from_value(2))
    complement_construction(triangle_unknot())
    reasons = set()
    for coords, k, got in prisms:
        assert got == oracle_prism_faces(coords, k)
        reasons.add(got[1] and " ".join(got[1].split()[:2]))
    assert reasons == {None, "ring point", "ring triangle"}
    octahedra = [(p, t) for p, t in tables if len(p) > 6]
    assert octahedra
    for points, table in octahedra:
        six, pts = [_rational(p) for p in points[:6]], [_rational(p) for p in points[6:]]
        facets = realization._hull_facets(table)
        assert facets == oracle_hull_facets(six)
        if facets:
            inside = [6 + m for m, p in enumerate(pts) if p not in six[:3]]
            assert realization._encloses(table, facets, inside) \
                == oracle_encloses(six, facets, pts, six[:3])


GRID = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3)))
GRID_POINT = st.tuples(GRID, GRID, GRID)


@st.composite
def prism_points(draw):
    """Six distinct points on a small rational grid that span space, as
    two rings of three; half the time the second ring is the first moved
    by one vector and jiggled, so that hull prisms are common."""
    ring_a = draw(st.lists(GRID_POINT, min_size=3, max_size=3))
    if draw(st.booleans()):
        move = draw(GRID_POINT)
        jiggle = st.sampled_from((Fraction(-1, 2), 0, 0, Fraction(1, 2)))
        ring_b = [tuple(c + m + draw(jiggle) for c, m in zip(p, move)) for p in ring_a]
    else:
        ring_b = draw(st.lists(GRID_POINT, min_size=3, max_size=3))
    pts = ring_a + ring_b
    assume(len(set(pts)) == 6)
    assume(any(orient3d(*q) for q in combinations(pts, 4)))
    return pts


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(prism_points())
def test_prism_certificate_matches_oracle(pts):
    """On two rings of three points that span space, both prisms of k = 2
    get the oracle's verdict, reason and faces."""
    coords = dict(enumerate(pts, start=1))
    assert realization._prism_faces(coords, 2) == oracle_prism_faces(coords, 2)


def test_prism_certificate_rejects_inner_and_repeated_points():
    """A point inside the tetrahedron of four others, or equal to another
    point, is no hull vertex; a second ring that is the first one mirrored
    has no corner matching whose side quads all lie on the hull."""
    F = Fraction
    tetra = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
    mirrored = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 2, 2), (2, 0, 2)]
    for pts, reason in (
            (tetra + [(F(1, 2), F(1, 2), F(1, 2)), (3, 3, 3)], "ring point 5 inside prism hull 0"),
            (tetra + [(2, 0, 0), (3, 3, 3)], "ring point 2 inside prism hull 0"),
            (mirrored, "side quad 1,2 of prism 0 has no hull diagonal")):
        coords = {i: tuple(map(F, p)) for i, p in enumerate(pts, start=1)}
        assert realization._prism_faces(coords, 2) == (None, reason) \
            == oracle_prism_faces(coords, 2)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=7, max_size=7, unique=True))
def test_hull_facets_match_oracle(points):
    """The side table's facets of six grid points are the rational ones,
    four coplanar points giving None in both; so is the verdict on whether
    their centroid, alone or with a seventh point, lies strictly inside."""
    pts = [tuple(map(Fraction, p)) for p in points]
    pts.append(tuple(sum(p[i] for p in pts[:6]) / 6 for i in range(3)))
    table = realization._hull_table([homogeneous_point(p) for p in pts])
    facets = realization._hull_facets(table)
    assert facets == oracle_hull_facets(pts[:6])
    if facets:
        for inside in ([7], [6, 7]):
            assert realization._encloses(table, facets, inside) == oracle_encloses(
                pts[:6], facets, [pts[i] for i in inside], pts[:3])
