"""Independent brute-force oracles for the test suite.

These deliberately avoid the code paths they check: separation by a face
walk with C as a wall (no homology), torus types come from exhaustive
simple-cycle enumeration, automorphism groups and the sorted canonical form
come from full traversals of every flag (no orbit skip, no early abort),
cutting along a cycle is redone from face scans (no rotation system), and
embeddings are proved by the rational all-pairs face test (no integer
kernel): ``triangles_conflict``, with its helpers ``_line_param`` and
``_triangle_line_interval``, kept as it was when ``src/`` still ran it to
word the witness of a conflict the kernel had found.  ``_facet_plane``,
the Plücker plane through four moment points that the cyclic realization
once took its projection facet from, checks the closed-form facet planes.
The cyclic realization's other two certificates are kept as it computed
them from the facet list: ``oracle_faces_in_facets`` is the set of every
triple of every facet that each torus face was looked up in, and
``oracle_viewpoint_sides`` builds each facet's plane with ``_moment_plane``
and takes three dot products with it, where ``src/`` now tests circular
adjacency and evaluates linear forms in the facet's elementary symmetric
polynomials.  ``oracle_gale_evenness`` counts the members between every
two non-members, where ``src/`` reads the gaps between consecutive ones.
``face_points`` is the former ``Mesh.face_points``.
Convex-hull certificates come from Carathéodory subset tests and
brute-force rational facet loops (no integer side table).  Knot
determinants are recomputed from the Alexander relation at t = -1, the
relation ``src/`` uses as well, but with their own walk over the crossing
events and their own ``Fraction`` elimination, on the crossings of
``FractionProjection``: the projection ``src/`` ran before it scaled the
polygons and the frame to integers, every test in ``Fraction`` arithmetic;
``oracle_simplify`` is the collinear-vertex removal of that time.
The values of the region-colouring Goeritz matrix that ``src/`` computed
before are pinned in ``test_diagrams.py``.
``oracle_census`` is the census's deduplication before either strategy
accepted each class once: a key scan of every completion and a dict of the
keys seen.  ``oracle_flag_forms`` walks every flag to the end.
``oracle_stick_number_and_type`` is the type search that ``src/`` ran
before it read per-root minima off BFS trees: a state BFS over
(vertex, p, q) in the signature-labelled covering graph from every root,
with one root per automorphism orbit for m.  Those orbits are
``oracle_vertex_orbits`` of ``automorphism_group``, the group read off the
canonical key's ties, which ``oracle_automorphisms`` checks separately.
``link_cycle`` walks one vertex link on its own link-edge lists
(``_link_edges``, ``_walk_link``), with a reason for each way a link can
fail, apart from the validator's fan walk on the edge map.
``canonical_labeling`` and ``supporting_plane_of_edge`` are test-only
certificates.  ``oracle_strict_edge_support`` is the complement's hull-edge
search as it ran before it read the integer side table: every plane
through the edge and a third point decided against every point in
``Fraction`` dot products.
The tube path's ``Fraction`` loops, before they ran on integers over a
common denominator, are kept as they were: ``oracle_sqrt_floor`` finds its
power-of-4 exponent one factor of 4 at a time, ``oracle_circumcenter``
solves for the ring centre in ``Fraction``, ``oracle_min_clearance_sq``
clamps segment parameters in ``segment_segment_dist2`` (also the oracle of
``geometry.segment_dist2``) and ``point_segment_dist2``, and
``oracle_is_general_position`` tests every triple and quadruple with
``collinear`` and ``orient3d``.
``oracle_rational_to_decimal`` is the mesh writer's decimal formatter as it
was when it took the sign and absolute value with ``Fraction`` operations.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations
from math import isqrt, lcm

from polytorus.census import CensusRecord, _Budget, _completions
from polytorus.cycles import (
    _separates,
    cycle_signature,
    enumerate_simple_cycles,
    homology_basis,
    stick_number_and_type,
)
from polytorus.errors import BadVertexLink, DegenerateFace, DegenerateKnot, NonGenericDirection
from polytorus.geometry import (
    PAIR_RULES,
    Vec,
    _coplanar_conflict,
    _line,
    _one_side,
    _plane,
    _segment_meets,
    _side_table,
    add,
    approx_unit,
    collinear,
    cross,
    dominant_axis,
    dot,
    drop_axis,
    is_zero,
    norm2,
    orient2d,
    perpendicular,
    point_in_triangle_2d,
    point_on_segment_2d,
    reduce_direction,
    scale,
    sub,
)
from polytorus.realization import (
    EmbeddingReport,
    _dot4,
    _moment_plane,
    _moment_point,
    cyclic_facets,
)
from polytorus.surfaces import (
    Cycle,
    _flags,
    _key_scan,
    _traverse_flag,
    automorphism_group,
    canonical_form,
)
from polytorus.diagrams import Crossing


def orient3d(a: Vec, b: Vec, c: Vec, d: Vec) -> int:
    """Sign of det[b-a; c-a; d-a]: +1, 0, or -1."""
    v = dot(cross(sub(b, a), sub(c, a)), sub(d, a))
    return (v > 0) - (v < 0)


def coplanar(a: Vec, b: Vec, c: Vec, d: Vec) -> bool:
    return orient3d(a, b, c, d) == 0


def dist2(a: Vec, b: Vec) -> Fraction:
    return norm2(sub(a, b))


def point_segment_dist2(p: Vec, a: Vec, b: Vec) -> Fraction:
    ab = sub(b, a)
    denom = norm2(ab)
    if denom == 0:
        return dist2(p, a)
    t = dot(sub(p, a), ab) / denom
    t = max(Fraction(0), min(Fraction(1), t))
    return dist2(p, add(a, scale(ab, t)))


def segment_segment_dist2(p1: Vec, p2: Vec, q1: Vec, q2: Vec) -> Fraction:
    """Exact squared distance between two closed segments."""
    d1 = sub(p2, p1)
    d2 = sub(q2, q1)
    r = sub(p1, q1)
    a = norm2(d1)
    e = norm2(d2)
    b = dot(d1, d2)
    c = dot(d1, r)
    f = dot(d2, r)
    best = None

    def consider(s, t):
        nonlocal best
        s = max(Fraction(0), min(Fraction(1), s))
        t = max(Fraction(0), min(Fraction(1), t))
        v = dist2(add(p1, scale(d1, s)), add(q1, scale(d2, t)))
        if best is None or v < best:
            best = v

    denom = a * e - b * b
    if denom != 0:
        s = (b * f - c * e) / denom
        t = (b * s + f) / e if e != 0 else Fraction(0)
        consider(s, t)
    # boundary candidates: clamp each parameter in turn
    if a != 0:
        consider(-c / a, Fraction(0))                     # t = 0
        consider((b - c) / a, Fraction(1))                # t = 1
    else:
        consider(Fraction(0), Fraction(0))
        consider(Fraction(0), Fraction(1))
    if e != 0:
        consider(Fraction(0), f / e)                      # s = 0
        consider(Fraction(1), (b + f) / e)                # s = 1
    else:
        consider(Fraction(0), Fraction(0))
        consider(Fraction(1), Fraction(0))
    return best


def oracle_rational_to_decimal(x: Fraction, digits: int) -> str:
    """Decimal string with ``digits`` places, rounding half away from zero."""
    if digits < 0:
        raise ValueError(f"digits must be >= 0, got {digits}")
    sign = "-" if x < 0 else ""
    x = abs(x)
    scaledx2 = x.numerator * 10 ** digits * 2 + x.denominator
    q = scaledx2 // (2 * x.denominator)
    s = str(q).rjust(digits + 1, "0")
    if digits == 0:
        return sign + s
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


def oracle_sqrt_floor(x: Fraction, bits: int = 64) -> Fraction:
    """Rational lower approximation of sqrt(x), ~bits of *relative* precision."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return Fraction(0)
    x = Fraction(x)
    e = 0
    while x < 1:
        x *= 4
        e -= 1
    while x >= 4:
        x /= 4
        e += 1
    scaled = (x.numerator << (2 * bits)) // x.denominator
    root = Fraction(isqrt(scaled), 1 << bits)
    return root * Fraction(2) ** e


def oracle_circumcenter(a: Vec, b: Vec, c: Vec) -> Vec:
    """Point in the plane of a,b,c equidistant from all three (exact)."""
    ab = sub(b, a)
    ac = sub(c, a)
    n = cross(ab, ac)
    # solve: x = a + s*ab + t*ac with |x-a|^2 = |x-b|^2 = |x-c|^2
    m11, m12 = norm2(ab), dot(ab, ac)
    m22 = norm2(ac)
    r1 = m11 / 2
    r2 = m22 / 2
    det = m11 * m22 - m12 * m12
    s = (r1 * m22 - r2 * m12) / det
    t = (m11 * r2 - m12 * r1) / det
    return add(a, add(scale(ab, s), scale(ac, t)))


def oracle_is_general_position(K) -> bool:
    """No 3 vertices collinear, no 4 coplanar."""
    v = K.vertices
    k = K.k
    for i in range(k):
        for j in range(i + 1, k):
            for l in range(j + 1, k):
                if collinear(v[i], v[j], v[l]):
                    return False
    for i in range(k):
        for j in range(i + 1, k):
            for l in range(j + 1, k):
                for m in range(l + 1, k):
                    if coplanar(v[i], v[j], v[l], v[m]):
                        return False
    return True


def oracle_min_clearance_sq(K) -> Fraction:
    """Squared minimum of: distance between non-adjacent edges, and
    distance from a vertex to a non-incident edge.  Zero means the
    polygon is self-intersecting or touching."""
    v = K.vertices
    k = K.k
    best = None
    for i in range(k):
        for j in range(i + 1, k):
            if j == i + 1 or (i == 0 and j == k - 1):
                continue  # adjacent edges share a vertex
            d = segment_segment_dist2(v[i], v[(i + 1) % k], v[j], v[(j + 1) % k])
            if best is None or d < best:
                best = d
    for i in range(k):
        for j in range(k):
            if j in (i, (i - 1) % k):
                continue  # incident edges
            d = point_segment_dist2(v[i], v[j], v[(j + 1) % k])
            if best is None or d < best:
                best = d
    if best == 0:
        raise DegenerateKnot("polygon self-intersects or touches itself")
    return best


def triangles_conflict(t1, t2, shared):
    """Whether two mesh triangles touch outside their shared simplex.

    ``shared`` is the tuple of common corner points (length 0, 1 or 2).
    Returns None when the contact is exactly the shared simplex (or empty),
    else a short description of the violation.
    """
    n1 = cross(sub(t1[1], t1[0]), sub(t1[2], t1[0]))
    n2 = cross(sub(t2[1], t2[0]), sub(t2[2], t2[0]))
    s2 = [dot(n1, sub(q, t1[0])) for q in t2]
    s1 = [dot(n2, sub(p, t2[0])) for p in t1]

    if all(v == 0 for v in s2):
        return _coplanar_conflict(t1, t2, shared, n1)
    if all(v > 0 for v in s2) or all(v < 0 for v in s2):
        return None
    if all(v > 0 for v in s1) or all(v < 0 for v in s1):
        return None

    if len(shared) == 2:
        # non-coplanar triangles sharing an edge meet exactly in that edge
        return None

    d = cross(n1, n2)
    i1 = _triangle_line_interval(t1, n2, dot(n2, t2[0]), d)
    i2 = _triangle_line_interval(t2, n1, dot(n1, t1[0]), d)
    if i1 is None or i2 is None:
        return None
    lo = max(i1[0], i2[0])
    hi = min(i1[1], i2[1])
    if lo > hi:
        return None
    if len(shared) == 1:
        v = shared[0]
        # the shared vertex lies on the intersection line; the contact must
        # be exactly that point
        tv = _line_param(v, d)
        if lo == hi == tv:
            return None
        return f"contact interval [{float(lo):.6g},{float(hi):.6g}] beyond shared vertex"
    return f"contact interval [{float(lo):.6g},{float(hi):.6g}] between disjoint faces"


def _line_param(point: Vec, d: Vec) -> Fraction:
    return dot(point, d) / norm2(d)


def _triangle_line_interval(tri, n_other, c_other, d):
    """Parameter interval of tri cut by the plane (n_other . x = c_other),
    measured along direction d (the plane-plane intersection line)."""
    sides = [dot(n_other, p) - c_other for p in tri]
    pts = []
    for i in range(3):
        j = (i + 1) % 3
        si, sj = sides[i], sides[j]
        if si == 0:
            pts.append(tri[i])
        if (si > 0 > sj) or (si < 0 < sj):
            t = si / (si - sj)
            pts.append(add(tri[i], scale(sub(tri[j], tri[i]), t)))
    if not pts:
        return None
    params = [_line_param(p, d) for p in pts]
    return (min(params), max(params))


def face_points(mesh, face):
    return tuple(mesh.coords[v] for v in face)


def oracle_verify_embedding(mesh):
    """The rational pairwise face test: every face pair through
    ``triangles_conflict``, the first conflict in (i, j) order as witness;
    collinear faces are found by rational cross products."""
    mesh.check_coords()
    faces = mesh.complex.faces
    for f in faces:
        if collinear(*face_points(mesh, f)):
            raise DegenerateFace(f)
    pts = [face_points(mesh, f) for f in faces]
    vsets = [set(f) for f in faces]
    for i in range(len(faces)):
        for j in range(i + 1, len(faces)):
            common = vsets[i] & vsets[j]
            shared = tuple(mesh.coords[v] for v in sorted(common))
            msg = triangles_conflict(pts[i], pts[j], shared)
            if msg is not None:
                return EmbeddingReport(False, (faces[i], faces[j], msg))
    return EmbeddingReport(True)


def oracle_first_conflict(points, faces):
    """``geometry.first_conflict`` as it ran before the row masks and the
    two-sign test, one pair at a time: the first face pair (i, j), i < j,
    in row order whose triangles meet outside their shared simplex, as
    (i, j, reason), or None; and the number of pairs each rule of
    PAIR_RULES decided up to it.  The reason is the one its own rule
    names: ``_coplanar_conflict``'s text, or the shared-vertex or disjoint
    text by the number of shared corners.

    ``points`` are distinct ``homogeneous_point``s and ``faces`` triples of
    indices into them.  A face whose corners are collinear has the zero
    plane vector; the first such face in face order raises DegenerateFace,
    with its index triple, before any pair is decided.
    """
    discharged = dict.fromkeys(PAIR_RULES, 0)
    table = _side_table(points, faces)
    for f, (plane, _) in zip(faces, table):
        if not any(plane):
            raise DegenerateFace(f)
    lines, edges = {}, []
    for f in faces:
        for uv in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            if uv not in lines:
                lines[uv] = _line(points[uv[0]], points[uv[1]])
        edges.append((lines[f[0], f[1]], lines[f[1], f[2]], lines[f[2], f[0]]))
    vsets = [set(f) for f in faces]
    for i, fi in enumerate(faces):
        si = table[i][1]
        for j in range(i + 1, len(faces)):
            fj = faces[j]
            sj = table[j][1]
            on_i = (si[fj[0]], si[fj[1]], si[fj[2]])  # corners of j against plane i
            on_j = (sj[fi[0]], sj[fi[1]], sj[fi[2]])
            common = sorted(vsets[i] & vsets[j])
            if on_i == (0, 0, 0):
                rule = "coplanar"
                # just this pair's points, scaled to integers by their W
                vs = vsets[i] | vsets[j]
                m = lcm(*(points[v][3] for v in vs))
                at = {v: tuple(c * (m // points[v][3]) for c in points[v][:3]) for v in vs}
                conflict = _coplanar_conflict(
                    tuple(at[v] for v in fi), tuple(at[v] for v in fj),
                    tuple(at[v] for v in common), table[i][0][:3])
            elif _one_side(on_i) or _one_side(on_j):
                rule, conflict = "one_side", None
            elif len(common) == 2:
                rule, conflict = "shared_edge", None
            elif len(common) == 1:
                # the edge opposite the shared corner k runs from corner
                # k + 1 to k + 2; these are its side signs
                ki, kj = fi.index(common[0]), fj.index(common[0])
                si_opp = (on_i[(kj + 1) % 3], on_i[(kj + 2) % 3])
                sj_opp = (on_j[(ki + 1) % 3], on_j[(ki + 2) % 3])
                if _one_side(sj_opp) or _one_side(si_opp):
                    rule, conflict = "shared_vertex", None
                else:
                    rule = "orientation"
                    if (_segment_meets(edges[i][(ki + 1) % 3], *sj_opp, edges[j])
                            or _segment_meets(edges[j][(kj + 1) % 3], *si_opp, edges[i])):
                        conflict = "faces meet beyond their shared vertex"
                    else:
                        conflict = None
            else:
                rule = "orientation"
                if (_edge_meets(edges[i], on_j, edges[j])
                        or _edge_meets(edges[j], on_i, edges[i])):
                    conflict = "disjoint faces meet"
                else:
                    conflict = None
            discharged[rule] += 1
            if conflict is not None:
                return (i, j, conflict), discharged
    return None, discharged


def _edge_meets(edges, sides, other) -> bool:
    """Some edge of a triangle not contained in the plane of ``other``
    meets ``other``; ``edges`` are the triangle's lines ab, bc, ca and
    ``sides`` its corners' side signs against that plane.

    For non-coplanar triangles this is exactly "the triangles meet": each
    end of the contact interval on the planes' common line lies on an edge
    of one triangle that crosses the other's plane in that point.
    """
    return any(_segment_meets(edges[k], sides[k], sides[(k + 1) % 3], other)
               for k in range(3))


def _facet_plane(positions):
    """Integer normal N and offset c of the hyperplane N.x = c through the
    moment points at four positions."""
    p = [_moment_point(t) for t in positions]
    a, b, c = (tuple(x - y for x, y in zip(q, p[0])) for q in p[1:])
    N = _plane(_line(a, b), c)  # orthogonal to a, b and c
    return N, _dot4(N, p[0])


def oracle_gale_evenness(subset, n: int) -> bool:
    """Facet test for the cyclic 4-polytope on n vertices: every two
    non-members are separated by an even number of members."""
    s = set(subset)
    if len(s) != 4:
        return False
    comp = [x for x in range(1, n + 1) if x not in s]
    for i in range(len(comp)):
        for j in range(i + 1, len(comp)):
            between = sum(1 for x in s if comp[i] < x < comp[j])
            if between % 2:
                return False
    return True


def oracle_faces_in_facets(n):
    """Every triple of positions that lies in a facet of C_4(n), from the
    facet list."""
    return {t for g in cyclic_facets(n) for t in combinations(g, 3)}


def oracle_viewpoint_sides(n, total, sum_fp, N):
    """The Schlegel viewpoint's ``sides`` from each facet's closed-form
    plane and three dot products."""
    facet_pos = (1, 2, 3, 4)
    planes = [_moment_plane(g) for g in cyclic_facets(n) if g != facet_pos]
    return [(_dot4(Ng, total) - n * cg, _dot4(Ng, sum_fp) - 4 * cg, 4 * _dot4(Ng, N))
            for Ng, cg in planes]


def supporting_plane_of_edge(points, i, j):
    """A plane through points[i], points[j] with every point weakly on one
    side, or None.  Certifies that the edge lies on the convex hull."""
    a, b = points[i], points[j]
    for k in range(len(points)):
        if k in (i, j):
            continue
        c = points[k]
        n = cross(sub(b, a), sub(c, a))
        if is_zero(n):
            continue
        lo = hi = 0
        for p in points:
            s = dot(n, sub(p, a))
            lo = min(lo, (s > 0) - (s < 0))
            hi = max(hi, (s > 0) - (s < 0))
        if lo >= 0 or hi <= 0:
            return (n, dot(n, a))
    return None


def oracle_strict_edge_support(points, i, j):
    """Outward normal of a plane through edge (i, j) with every other point
    strictly below, or None.  Interior directions of the edge's normal cone
    are found by averaging two distinct weakly-supporting normals."""
    a, b = points[i], points[j]
    normals = []
    for k in range(len(points)):
        if k in (i, j):
            continue
        n = cross(sub(b, a), sub(points[k], a))
        if is_zero(n):
            continue
        sides = [dot(n, sub(p, a)) for idx, p in enumerate(points) if idx not in (i, j)]
        if all(s <= 0 for s in sides):
            normals.append(n)
        elif all(s >= 0 for s in sides):
            normals.append(scale(n, -1))
    # dedup by direction
    distinct = []
    for n in normals:
        if not any(is_zero(cross(n, m)) and dot(n, m) > 0 for m in distinct):
            distinct.append(n)
    candidates = []
    if len(distinct) >= 2:
        for second in distinct[1:]:
            candidates.append(add(approx_unit(distinct[0]), approx_unit(second)))
    candidates.extend(distinct)
    for n in map(reduce_direction, candidates):
        if is_zero(n):
            continue
        sides = [dot(n, sub(p, a)) for idx, p in enumerate(points) if idx not in (i, j)]
        if all(s < 0 for s in sides):
            return n
    return None


def point_in_segment_3d(x, a, b) -> bool:
    if a == b:
        return x == a
    if not collinear(a, b, x):
        return False
    d = sub(b, a)
    t = dot(sub(x, a), d)
    return 0 <= t <= norm2(d)


def point_in_triangle_3d(x, a, b, c) -> bool:
    n = cross(sub(b, a), sub(c, a))
    if is_zero(n):
        return False
    if dot(n, sub(x, a)) != 0:
        return False
    axis = dominant_axis(n)
    return point_in_triangle_2d(drop_axis(x, axis), drop_axis(a, axis),
                                drop_axis(b, axis), drop_axis(c, axis))


def point_in_tetra(x, a, b, c, d) -> bool:
    s = orient3d(a, b, c, d)
    if s == 0:
        return False
    checks = (orient3d(x, b, c, d), orient3d(a, x, c, d),
              orient3d(a, b, x, d), orient3d(a, b, c, x))
    return all(v == 0 or v == s for v in checks)


def point_in_hull(x, points) -> bool:
    """x in conv(points), |points| small (Carathéodory over subsets)."""
    pts = list(points)
    for p in pts:
        if p == x:
            return True
    for a, b in combinations(pts, 2):
        if point_in_segment_3d(x, a, b):
            return True
    for a, b, c in combinations(pts, 3):
        if point_in_triangle_3d(x, a, b, c):
            return True
    for a, b, c, d in combinations(pts, 4):
        if point_in_tetra(x, a, b, c, d):
            return True
    return False


def is_hull_vertex(points, i: int) -> bool:
    others = [p for j, p in enumerate(points) if j != i]
    return not point_in_hull(points[i], others)


def plane_supports(points, tri) -> bool:
    """The plane of ``tri`` has every point weakly on one side."""
    a, b, c = tri
    n = cross(sub(b, a), sub(c, a))
    if is_zero(n):
        return False
    lo = hi = 0
    for p in points:
        s = dot(n, sub(p, a))
        sg = (s > 0) - (s < 0)
        lo = min(lo, sg)
        hi = max(hi, sg)
    return lo >= 0 or hi <= 0


def oracle_prism_faces(coords, k):
    """``realization._prism_faces`` by Carathéodory hull tests and
    supporting planes, on the six points of each prism times the least
    common multiple of their denominators: the same rule order, reasons,
    corner matchings (the next ring rotated by 0, 1, then 2 places) and
    diagonal preference."""
    faces = []
    for r in range(k):
        s = (r + 1) % k
        labels = [3 * r + 1, 3 * r + 2, 3 * r + 3, 3 * s + 1, 3 * s + 2, 3 * s + 3]
        m = lcm(*(c.denominator for x in labels for c in coords[x]))
        pts = [tuple(c.numerator * (m // c.denominator) for c in coords[x]) for x in labels]
        at = dict(zip(labels, pts))
        for i in range(6):
            if not is_hull_vertex(pts, i):
                return None, f"ring point {labels[i]} inside prism hull {r}"
        cap_a = (pts[0], pts[1], pts[2])
        cap_b = (pts[3], pts[4], pts[5])
        if not plane_supports(pts, cap_a) or not plane_supports(pts, cap_b):
            return None, f"ring triangle of prism {r} not a hull face"
        a = labels[:3]
        unplaced = []
        for shift in range(3):
            b = labels[3 + shift:] + labels[3:3 + shift]
            mantle = []
            for i in range(3):
                j = (i + 1) % 3
                for diag in (((a[i], a[j], b[i]), (a[j], b[j], b[i])),
                             ((a[i], a[j], b[j]), (a[i], b[j], b[i]))):
                    tris = [tuple(at[x] for x in t) for t in diag]
                    if all(plane_supports(pts, t) for t in tris):
                        mantle.extend(tuple(sorted(t)) for t in diag)
                        break
                else:
                    unplaced.append(i)
                    break
            if len(mantle) == 6:
                faces.extend(mantle)
                break
        else:
            i = unplaced[0]
            j = (i + 1) % 3
            return None, f"side quad {a[i]},{a[j]} of prism {r} has no hull diagonal"
    return faces, None


def oracle_hull_facets(points):
    """Facets of a 6-point hull by rational cross products, as index
    triples; None when four points are coplanar."""
    n = len(points)
    facets = set()
    for tri in combinations(range(n), 3):
        a, b, c = (points[i] for i in tri)
        nrm = cross(sub(b, a), sub(c, a))
        if is_zero(nrm):
            continue
        sides = []
        for i in range(n):
            if i in tri:
                continue
            s = dot(nrm, sub(points[i], a))
            sides.append((s > 0) - (s < 0))
        if 0 in sides:
            return None
        if all(s > 0 for s in sides) or all(s < 0 for s in sides):
            facets.add(frozenset(tri))
    return facets


def oracle_encloses(six, facets, pts, top):
    """All mesh points strictly inside every facet plane of the six points,
    except the three glued corners on their own facets, by rational cross
    products."""
    for tri in facets:
        a, b, c = (six[i] for i in sorted(tri))
        nrm = cross(sub(b, a), sub(c, a))
        off = next(i for i in range(6) if i not in tri)
        s = dot(nrm, sub(six[off], a))
        inner = (s > 0) - (s < 0)
        for p in pts:
            if p in top and six.index(p) in tri:
                continue
            s = dot(nrm, sub(p, a))
            if ((s > 0) - (s < 0)) != inner:
                return False
    return True


def oracle_canonical_scan(T):
    """The least sorted form over every flag, each walked to the end (no
    orbit skip, no degree rule, no early abort), and the first labeling in
    flag order that attains it."""
    return min(oracle_flag_forms(T), key=lambda scan: scan[0])


def canonical_labeling(T):
    """One labeling old->new realizing canonical_form(T)."""
    return oracle_canonical_scan(T)[1]


def _link_edges(faces):
    """Vertex -> its link edges (link vertex -> the link vertices joined to
    it), from one pass over the faces."""
    links: dict[int, dict[int, list[int]]] = {}
    for a, b, c in faces:
        for v, x, y in ((a, b, c), (b, a, c), (c, a, b)):
            adj = links.setdefault(v, {})
            adj.setdefault(x, []).append(y)
            adj.setdefault(y, []).append(x)
    return links


def _walk_link(v, adj):
    """The link of v as one cycle, from its edges ``adj``, or raise BadVertexLink."""
    if not adj:
        raise BadVertexLink(v, "isolated vertex")
    for w, nbrs in adj.items():
        if len(nbrs) != 2:
            raise BadVertexLink(v, f"link vertex {w} has degree {len(nbrs)}")
    start = min(adj)
    cycle = [start]
    prev, cur = None, start
    while True:
        a, b = adj[cur]
        nxt = b if a == prev else a
        if nxt == start:
            break
        cycle.append(nxt)
        prev, cur = cur, nxt
        if len(cycle) > len(adj):
            raise BadVertexLink(v, "link not a single cycle")
    if len(cycle) != len(adj):
        raise BadVertexLink(v, "link has several components")
    return cycle


def link_cycle(faces, v):
    """Neighbors of v in cyclic order, walked on the faces at v alone, or
    raise BadVertexLink."""
    return _walk_link(v, _link_edges([f for f in faces if v in f]).get(v, {}))


def oracle_link_paths(faces, v):
    """v's link in ``faces`` (triples in any order), walked from scratch:
    (its vertex set, the other end of each path end, whether it is one
    closed cycle).  Fails unless the link is disjoint paths or one cycle."""
    adj = {}
    for f in faces:
        if v in f:
            b, c = (x for x in f if x != v)
            adj.setdefault(b, set()).add(c)
            adj.setdefault(c, set()).add(b)
    assert all(len(nb) <= 2 for nb in adj.values())
    mates, covered = {}, set()
    for end in (b for b, nb in adj.items() if len(nb) == 1):
        prev, cur = end, next(iter(adj[end]))
        covered |= {end, cur}
        while len(adj[cur]) == 2:
            prev, cur = cur, next(x for x in adj[cur] if x != prev)
            covered.add(cur)
        mates[end] = cur
    closed = bool(adj) and not mates
    if closed:
        covered = set(link_cycle(faces, v))  # or BadVertexLink: several cycles
    assert covered == set(adj), f"link of {v} has a cycle beside its paths"
    return set(adj), mates, closed


def cut_separates(T, cycle_vertices) -> bool:
    return _separates(T, Cycle(cycle_vertices))


def oracle_cut(T, cycle_vertices):
    """(faces, n_components, boundary_circles) of cutting T along a cycle.

    Built from face scans only: each cycle vertex's link comes from
    ``link_cycle``, the faces around it and the left face of the directed
    cycle edge from searches of the face lists, and both counts from
    union-find.  Cycle vertex number i gets the right copy n + 1 + i.
    """
    cyc = list(cycle_vertices)
    m, n = len(cyc), T.n_vertices
    index = {f: i for i, f in enumerate(T.faces)}
    copy_in = {}
    for i, v in enumerate(cyc):
        nxt, prv = cyc[(i + 1) % m], cyc[i - 1]
        link = link_cycle(T.faces, v)
        deg = len(link)
        around = [index[tuple(sorted((v, link[j], link[(j + 1) % deg])))]
                  for j in range(deg)]
        left = next(fi for fi, (a, b, c) in enumerate(T.oriented_faces)
                    if (v, nxt) in ((a, b), (b, c), (c, a)))
        start = around.index(left)
        copy = v
        for step in range(deg):
            j = (start + step) % deg
            copy_in[around[j], v] = copy
            if link[(j + 1) % deg] in (prv, nxt):
                copy = n + 1 + i if copy == v else v
    faces = [tuple(sorted(copy_in.get((fi, v), v) for v in f))
             for fi, f in enumerate(T.faces)]

    def find(parent, x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    def union(parent, x, y):
        parent[find(parent, x)] = find(parent, y)

    edges = {}
    for fi, (a, b, c) in enumerate(faces):
        for e in ((a, b), (a, c), (b, c)):
            edges.setdefault(e, []).append(fi)
    face_sets, vertex_sets = {}, {}
    for fi in range(len(faces)):
        find(face_sets, fi)
    for (u, v), fs in edges.items():
        for fi in fs[1:]:
            union(face_sets, fs[0], fi)
        if len(fs) == 1:
            union(vertex_sets, u, v)
    components = len({find(face_sets, fi) for fi in range(len(faces))})
    circles = len({find(vertex_sets, x) for x in list(vertex_sets)})
    return faces, components, circles


def signed_cycles(T, basis):
    """Every simple cycle of T with its homology signature, enumerated and
    signed once so that both oracles below can share them."""
    return [(cyc, cycle_signature(T, basis, Cycle(cyc))) for cyc in enumerate_simple_cycles(T)]


def oracle_type(T, basis, signed=None):
    """(m, s) from exhaustive enumeration of all simple cycles.

    m: shortest cycle that does not separate (checked by cutting).
    s: max over realized non-separating classes c of the shortest simple
    cycle in a class not proportional to c.  ``signed`` is
    ``signed_cycles(T, basis)``, computed here when not given.

    The cycles are walked shortest first, so the first non-separating cycle
    of a class is its shortest, and a cycle is cut only while its class has
    none yet: a longer one could not change either minimum.
    """
    if signed is None:
        signed = signed_cycles(T, basis)
    shortest = {}  # class -> length of its shortest non-separating cycle
    for cyc, sig in sorted(signed, key=lambda item: len(item[0])):
        key = _class_key(sig)
        if key not in shortest and not cut_separates(T, cyc):
            shortest[key] = len(cyc)
    m = min(shortest.values())
    s = 0
    for key in shortest:
        k_c = min(k for other, k in shortest.items() if not _proportional(key, other))
        s = max(s, k_c)
    return m, s


def oracle_marked(T, basis, M, signed=None):
    """(m_M, k_M) from exhaustive enumeration; ``signed`` as in ``oracle_type``."""
    if signed is None:
        signed = signed_cycles(T, basis)
    msig = cycle_signature(T, basis, M)
    m_M = None
    k_M = None
    for cyc, sig in signed:
        if sig.is_zero():
            continue
        if sig == msig or sig == -msig:
            m_M = len(cyc) if m_M is None else min(m_M, len(cyc))
        elif not _proportional(_class_key(sig), _class_key(msig)):
            k_M = len(cyc) if k_M is None else min(k_M, len(cyc))
    return m_M, k_M


def _state_bfs(T, basis, roots, allowed, best_len, best_witness):
    """Shortest closed walk at a root whose nonzero class passes
    ``allowed``: BFS over (vertex, p, q) states from each root in turn,
    the bound carried over, a witness kept only when strictly shorter."""
    sig = basis.edge_sig
    nbrs = T.neighbors
    for r in roots:
        start = (r, 0, 0)
        parent = {start: None}
        frontier = deque([(start, 0)])
        while frontier:
            state, d = frontier.popleft()
            if d + 1 >= best_len:
                continue
            u, p, q = state
            for v in nbrs[u]:
                sp, sq = sig[(u, v)]
                np_, nq = p + sp, q + sq
                if v == r:
                    if (np_ or nq) and allowed(np_, nq) and d + 1 < best_len:
                        walk = []
                        s = state
                        while s is not None:
                            walk.append(s[0])
                            s = parent[s]
                        best_len = d + 1
                        best_witness = tuple(reversed(walk))
                    continue
                ns = (v, np_, nq)
                if ns not in parent and abs(np_) < best_len and abs(nq) < best_len:
                    parent[ns] = state
                    frontier.append((ns, d + 1))
    return best_len, best_witness


def oracle_stick_number_and_type(T):
    """(m, s, witness_m, witness_s) by the state BFS: m from the least
    vertex of each automorphism orbit, s from the vertices of witness_m,
    each bounded by the shorter admissible fundamental cycle."""
    basis = homology_basis(T)
    best = min(basis.fundamental_cycles, key=len)
    roots = [orbit[0] for orbit in oracle_vertex_orbits(T, automorphism_group(T))]
    m, wm = _state_bfs(T, basis, roots, lambda p, q: True, len(best), tuple(best.vertices))
    wm = Cycle(wm).canonical()
    c = cycle_signature(T, basis, wm)

    def free(p, q):
        return p * c.q - q * c.p != 0

    k_best = min((f for f in basis.fundamental_cycles
                  if free(*cycle_signature(T, basis, f))), key=len)
    s, ws = _state_bfs(T, basis, wm.vertices, free, len(k_best), tuple(k_best.vertices))
    return m, s, wm, Cycle(ws).canonical()


def _class_key(sig):
    return (sig[0], sig[1])


def _proportional(a, b):
    return a[0] * b[1] - a[1] * b[0] == 0


def oracle_flag_forms(T):
    """(sorted form, labeling) of every flag, in flag order."""
    for f in T.faces:
        for flag in _flags(f):
            code, labels = _traverse_flag(T, flag)
            yield tuple(sorted(code)), labels


def oracle_automorphisms(T):
    """Every flag whose full sorted form equals the minimum over all flags,
    mapped through the first flag attaining it."""
    scans = list(oracle_flag_forms(T))
    best = min(form for form, _ in scans)
    optimal = [labels for form, labels in scans if form == best]
    inv0 = {new: old for old, new in optimal[0].items()}
    return [{v: inv0[lab[v]] for v in lab} for lab in optimal]


def oracle_census(n, strategy="a"):
    """The census records as ``enumerate_tori`` built them before orderly
    acceptance, for either strategy: every completion takes a key scan, and
    the first completion of each key builds the class's record (``seen``)."""
    seen = {}
    for T, _ in _completions(n, strategy, _Budget(None)):
        key, ties = _key_scan(T)
        if key not in seen:
            res = stick_number_and_type(T)
            seen[key] = CensusRecord(
                # the ties are Aut(T): the form scan skips its orbits
                canonical_faces=canonical_form(T, ties),
                n=n,
                m=res.m,
                s=res.s,
                equivelar=len({len(nb) for nb in T.neighbors.values()}) == 1,
                automorphism_order=len(ties),
            )
    return sorted(seen.values(), key=lambda rec: rec.canonical_faces)


def oracle_start_flags(T):
    """The flags (a, b, c) of T, in flag order, where a has the least
    (degree, sorted neighbour degrees) of all vertices and b the least among
    a's neighbours: the key's start flags, from ``T.neighbors`` alone."""
    nb = T.neighbors

    def invariant(v):
        return len(nb[v]), sorted(len(nb[u]) for u in nb[v])

    low = min(invariant(v) for v in nb)
    return [(a, b, c) for f in T.faces for a, b, c in _flags(f)
            if invariant(a) == low and invariant(b) == min(invariant(u) for u in nb[a])]


def oracle_max_degree_flags(T):
    """The flags (a, b, c) of T, in flag order, where a has the maximum
    degree and b the maximum degree among a's neighbours: the flags strategy
    B keeps, from ``T.neighbors`` alone."""
    nb = T.neighbors
    top = max(len(nb[v]) for v in nb)
    return [(a, b, c) for f in T.faces for a, b, c in _flags(f)
            if len(nb[a]) == top and len(nb[b]) == max(len(nb[u]) for u in nb[a])]


def oracle_vertex_orbits(T, autos):
    """Vertex orbits of the group ``autos``, each sorted, ordered by least vertex."""
    orbits = []
    seen = set()
    for v in range(1, T.n_vertices + 1):
        if v not in seen:
            orbit = tuple(sorted({a[v] for a in autos}))
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


def oracle_simplify(points):
    """Drop vertices whose neighbors are collinear with them (3D): the
    ``diagrams._simplify`` that ran before it scaled the points to integers,
    with ``Fraction`` cross products."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    changed = True
    while changed and len(pts) > 3:
        changed = False
        for i in range(len(pts)):
            a = pts[i - 1]
            b = pts[i]
            c = pts[(i + 1) % len(pts)]
            if is_zero(cross(sub(b, a), sub(c, b))):
                pts.pop(i)
                changed = True
                break
    return pts


def _projection_frame(direction: Vec):
    d = tuple(Fraction(c) for c in direction)
    if is_zero(d):
        raise NonGenericDirection("zero direction")
    u = perpendicular(d)
    w = cross(d, u)
    return d, u, w


class FractionProjection:
    """Exact planar image of one or more closed polygons, in ``Fraction``
    arithmetic throughout: the diagram layer's projection before it moved
    to integers."""

    def __init__(self, polys, direction):
        d, u, w = _projection_frame(direction)
        self.direction = d
        self.polys = polys
        self.img = []     # per component: list of (x, y)
        self.height = []  # per component: list of heights along d
        for pts in polys:
            self.img.append([(dot(p, u), dot(p, w)) for p in pts])
            self.height.append([dot(p, d) for p in pts])
        self._check_vertices()
        self.crossings = self._find_crossings()

    def seg(self, comp, i):
        pts = self.img[comp]
        return pts[i], pts[(i + 1) % len(pts)]

    def _check_vertices(self):
        allv = [(p, ci) for ci, pts in enumerate(self.img) for p in pts]
        for i in range(len(allv)):
            for j in range(i + 1, len(allv)):
                if allv[i][0] == allv[j][0]:
                    raise NonGenericDirection("two vertices project together")
        for ci, pts in enumerate(self.img):
            k = len(pts)
            for i in range(k):
                if pts[i] == pts[(i + 1) % k]:
                    raise NonGenericDirection(f"segment {ci}:{i} projects to a point")
        # no vertex on the open image of a non-incident segment
        for ci, pts in enumerate(self.img):
            for vi, p in enumerate(pts):
                for cj, qts in enumerate(self.img):
                    k = len(qts)
                    for sj in range(k):
                        if ci == cj and vi in (sj, (sj + 1) % k):
                            continue
                        a, b = qts[sj], qts[(sj + 1) % k]
                        if point_on_segment_2d(p, a, b):
                            raise NonGenericDirection(
                                f"vertex {ci}:{vi} projects onto segment {cj}:{sj}")

    def _find_crossings(self):
        crossings = []
        segs = [(ci, si) for ci, pts in enumerate(self.img) for si in range(len(pts))]
        for a in range(len(segs)):
            for b in range(a + 1, len(segs)):
                ci, si = segs[a]
                cj, sj = segs[b]
                if ci == cj:
                    k = len(self.img[ci])
                    if si == (sj + 1) % k or sj == (si + 1) % k:
                        continue  # adjacent segments share only their vertex
                got = self._segment_crossing(ci, si, cj, sj)
                if got is not None:
                    crossings.append(got)
        pts = [c.point for c in crossings]
        if len(set(pts)) != len(pts):
            raise NonGenericDirection("two crossings share an image point")
        return crossings

    def _segment_crossing(self, ci, si, cj, sj):
        p1, p2 = self.seg(ci, si)
        q1, q2 = self.seg(cj, sj)
        o1 = orient2d(p1, p2, q1)
        o2 = orient2d(p1, p2, q2)
        o3 = orient2d(q1, q2, p1)
        o4 = orient2d(q1, q2, p2)
        if o1 == 0 and o2 == 0:
            # collinear images: overlap would have tripped the vertex checks
            # unless the segments are disjoint on the line
            return None
        if o1 * o2 > 0 or o3 * o4 > 0:
            return None
        if 0 in (o1, o2, o3, o4):
            raise NonGenericDirection(
                f"segments {ci}:{si} and {cj}:{sj} touch non-transversally")
        # proper interior crossing: solve for parameters
        dx1 = (p2[0] - p1[0], p2[1] - p1[1])
        dx2 = (q2[0] - q1[0], q2[1] - q1[1])
        denom = dx1[0] * dx2[1] - dx1[1] * dx2[0]
        rx, ry = q1[0] - p1[0], q1[1] - p1[1]
        s = (rx * dx2[1] - ry * dx2[0]) / denom
        t = (rx * dx1[1] - ry * dx1[0]) / denom
        h1 = self._height_at(ci, si, s)
        h2 = self._height_at(cj, sj, t)
        if h1 == h2:
            raise DegenerateKnot("curves intersect in space")
        point = (p1[0] + s * dx1[0], p1[1] + s * dx1[1])
        if h1 > h2:
            over, under = (ci, si, s), (cj, sj, t)
            d_over, d_under = dx1, dx2
        else:
            over, under = (cj, sj, t), (ci, si, s)
            d_over, d_under = dx2, dx1
        sign_ = d_over[0] * d_under[1] - d_over[1] * d_under[0]
        return Crossing(over, under, 1 if sign_ > 0 else -1, point)

    def _height_at(self, ci, si, t):
        hs = self.height[ci]
        k = len(hs)
        return hs[si] + t * (hs[(si + 1) % k] - hs[si])


def alexander_determinant(points, direction):
    """|Alexander polynomial at -1| from a generic projection.

    Arcs run between consecutive under-passages; each crossing imposes the
    relation 2*over - in - out = 0 at t = -1; any maximal minor's absolute
    determinant is the knot determinant.
    """
    proj = FractionProjection([list(points)], direction)
    crossings = proj.crossings
    if not crossings:
        return 1
    events = []
    for idx, c in enumerate(crossings):
        for role, (ci, si, t) in (("o", c.over), ("u", c.under)):
            events.append((si, t, idx, role))
    events.sort()
    n = len(events)
    # arc id for each event position: arcs are delimited by under events
    arc_of_pos = [None] * n
    unders = [i for i, ev in enumerate(events) if ev[3] == "u"]
    n_arcs = len(unders)
    for a, start in enumerate(unders):
        end = unders[(a + 1) % n_arcs]
        i = (start + 1) % n
        # the arc starts right after this under event and runs to the next
        arc_of_pos[start] = (a, (a + 1) % n_arcs)  # (incoming arc, outgoing arc)
        while i != end:
            if events[i][3] == "o":
                arc_of_pos[i] = (a + 1) % n_arcs
            i = (i + 1) % n
    rows = []
    for idx in range(len(crossings)):
        row = [0] * n_arcs
        over_arc = None
        in_arc = out_arc = None
        for pos, ev in enumerate(events):
            if ev[2] != idx:
                continue
            if ev[3] == "o":
                over_arc = arc_of_pos[pos]
            else:
                in_arc, out_arc = arc_of_pos[pos]
        row[over_arc] += 2
        row[in_arc] -= 1
        row[out_arc] -= 1
        rows.append(row)
    minor = [row[:-1] for row in rows[:-1]]
    return abs(_det_int(minor))


def _det_int(M):
    n = len(M)
    if n == 0:
        return 1
    A = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        det *= A[col][col]
        for r in range(col + 1, n):
            f = A[r][col] / A[col][col]
            for c2 in range(col, n):
                A[r][c2] -= f * A[col][c2]
    assert det.denominator == 1
    return det.numerator
