"""Exact polyhedral realizations: tubes, complements, cyclic polytopes.

Everything here runs in rational arithmetic.  Two constructions need care to
stay exact:

* Ring circles.  Equilateral rational triangles inscribed in a circle do not
  exist (rational rotations by 120 degrees do not exist), but rational
  points on the circle {x in the plane : |x|^2 = rho^2} are dense once one is
  known: a chord of rational slope through a rational point meets the conic
  in a second rational point.  Each ring therefore carries three exact
  circle points at near-equilateral angles, all at the same exact squared
  radius, and the ring's circumcenter is exactly the knot vertex, which the
  core recovery uses.

* Ring planes.  The exact angle bisector direction involves square roots of
  edge lengths, so the construction sums the two stick directions rounded
  to NORMAL_BITS bits and then checks the property that actually matters
  (the plane separates the two incident edges) exactly.  Ring points pay
  for the normal's bits: the trefoil's tube takes 311-bit homogeneous ints.

* Ring frames.  A frame only has to be transverse, since every prism
  chooses its own corner matching.  Each ring's frame is transported from
  the previous one through a direction rounded to FRAME_BITS bits, so the
  coordinates' size does not grow with the number of sticks.

The tube radius is handled as an exact *squared* value, which keeps the
bound from the clearance computation and every later comparison exact, and
makes the pre-verification bound exactly scale-covariant.

Each construction builds its mesh once and proves it embedded once; the
report of that proof travels with the mesh as ``Mesh.embedding``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .cycles import homology_basis, cycle_signature, stick_number_and_type
from .diagrams import linking_number, polygon_determinant
from .errors import (
    DegenerateFace,
    DegenerateKnot,
    EnclosureFailure,
    EpsilonTooLarge,
    FaceNotInPolytope,
    MissingProvenance,
    ParseError,
    PolytorusError,
    SeparatingCycle,
    read_input,
)
from .generators import hamiltonian_sequence, minimal_torus_3k, ring_cycle
from .geometry import (
    Vec,
    _side_table,
    add,
    approx_unit,
    collinear,
    cross,
    dot,
    first_conflict,
    homogeneous_point,
    is_zero,
    norm2,
    parse_rational,
    perpendicular,
    rational_to_decimal,
    reduce_direction,
    scale,
    scaled_to_integers,
    sqrt_floor,
    sub,
)
from .knots import StickKnot
from .surfaces import Cycle, SimplicialTorus, parse_int

MAX_EPS_HALVINGS = 16
# bits of the rounded direction each ring frame is transported from
FRAME_BITS = 30
# relative precision of the two stick directions summed into a ring normal
NORMAL_BITS = 16


class ExactRadius:
    """Tube radius represented by its exact square.

    Radii produced by clearance computations are square roots of rationals;
    carrying the square keeps every comparison exact and makes scaling by a
    rational factor exact as well.
    """

    def __init__(self, sq):
        sq = Fraction(sq)
        if sq <= 0:
            raise ValueError("radius square must be positive")
        self.sq = sq

    @classmethod
    def from_value(cls, value):
        """Radius from a positive rational, given as a number or as a
        literal such as '1/10'; anything else raises PolytorusError."""
        try:
            r = parse_rational(value) if isinstance(value, str) else Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise PolytorusError(
                f"tube radius must be a rational number, got {value!r}") from None
        if r <= 0:
            raise PolytorusError(f"tube radius must be positive, got {value!r}")
        return cls(r ** 2)

    def halved(self) -> "ExactRadius":
        return ExactRadius(self.sq / 4)

    def __eq__(self, other):
        return isinstance(other, ExactRadius) and self.sq == other.sq

    def __float__(self):
        return math.sqrt(float(self.sq))

    def __repr__(self):
        return f"ExactRadius(sq={self.sq})"


@dataclass
class Mesh:
    """Geometric realization: exact coordinates over a validated torus;
    ``embedding`` is the proof that certified it, if a construction built it."""

    coords: dict
    complex: SimplicialTorus
    provenance: dict = field(default_factory=dict)
    embedding: EmbeddingReport | None = None

    def cycle_points(self, cycle: Cycle):
        return [self.coords[v] for v in cycle.vertices]

    def check_coords(self):
        """Distinct vertices; degenerate faces are the embedding kernel's."""
        pts = list(self.coords.values())
        if len(set(pts)) != len(pts):
            raise PolytorusError("coincident mesh vertices")


@dataclass
class EmbeddingReport:
    """Verdict of one embedding proof, with the first conflicting face pair
    and the reason ``geometry.first_conflict`` gave for it as witness;
    ``discharged`` counts the pairs each rule of ``geometry.PAIR_RULES``
    decided, up to the verdict."""

    ok: bool
    witness: tuple | None = None
    discharged: dict | None = field(default=None, compare=False, repr=False)


def verify_embedding(mesh: Mesh) -> EmbeddingReport:
    """Exact pairwise face test: faces may meet only in shared simplices.

    Each point is written once as homogeneous ints (X, Y, Z, W) over its
    own denominator W > 0, which keeps every sign the test reads.
    ``geometry.first_conflict`` then decides the face pairs in (i, j)
    order from one plane per face and one vertex-side table.  Row masks
    over the faces settle the pairs with one triangle strictly on one side
    of the other's plane in bulk.  Of the pairs left, coplanar ones go to
    the 2D test, the ones sharing a corner to the table or to orientation
    signs from one Plücker line per edge, and disjoint ones to the
    two-sign test of Guigue and Devillers.  The rule that finds the first
    conflicting pair also names its reason, the witness's third entry.
    Coincident vertices raise first, then DegenerateFace for the first face
    whose corners are collinear (a zero plane), before any pair is decided.
    """
    mesh.check_coords()
    faces = mesh.complex.faces
    labels = sorted(mesh.coords)
    index = {v: i for i, v in enumerate(labels)}
    points = [homogeneous_point(mesh.coords[v]) for v in labels]
    try:
        conflict, discharged = first_conflict(points, [tuple(index[v] for v in f) for f in faces])
    except DegenerateFace as exc:
        raise DegenerateFace(tuple(labels[i] for i in exc.face)) from None
    if conflict is None:
        return EmbeddingReport(True, discharged=discharged)
    i, j, reason = conflict
    return EmbeddingReport(False, (faces[i], faces[j], reason), discharged)


# -- tube construction ----------------------------------------------------------


def _ring_planes(K: StickKnot):
    """Near-bisector normal at each knot vertex: the sum of its two stick
    directions, each ``approx_unit`` to NORMAL_BITS bits, as the shortest
    integer vector, checked transversal exactly.  A ring point projected
    onto the plane pays about twice its bits: the trefoil's tube takes 311
    bits as homogeneous ints (473 with 48-bit directions); with 8-bit ones,
    3 of the tests' 60 sweep polygons had no transversal plane at a vertex."""
    normals = []
    k = K.k
    for i in range(k):
        p, v, q = K.vertices[i - 1], K.vertices[i], K.vertices[(i + 1) % k]
        n = reduce_direction(add(approx_unit(sub(v, p), NORMAL_BITS),
                                 approx_unit(sub(q, v), NORMAL_BITS)))
        if dot(n, sub(v, p)) <= 0 or dot(n, sub(q, v)) <= 0:
            raise DegenerateKnot(f"cannot find transversal plane at vertex {i}")
        normals.append(n)
    return normals


def _project_to_plane(u: Vec, n: Vec) -> Vec:
    return sub(u, scale(n, dot(u, n) / norm2(n)))


def _rounded_direction(u: Vec) -> Vec:
    """Integer vector near the direction of u, its largest entry of
    magnitude 2**FRAME_BITS."""
    s = Fraction(2 ** FRAME_BITS) / max(abs(c) for c in u)
    return tuple(Fraction(round(c * s)) for c in u)


def _transported_frames(normals):
    """Per-ring frames (u, w), u exactly in the ring plane.

    u starts from the x-axis (see ``geometry.perpendicular``); each ring takes
    the previous ring's u rounded to FRAME_BITS bits (``_rounded_direction``)
    and projected exactly onto its own plane, so every frame has the same
    bit budget however long the knot.  A frame only has to be transverse:
    where consecutive frames twist far against each other, at sharp turns
    or across the closing ring, ``_prism_faces`` absorbs the twist by
    choosing each prism's corner matching.
    """
    frames = []
    u = perpendicular(normals[0])
    for n in normals:
        u = reduce_direction(_project_to_plane(_rounded_direction(u), n))
        if is_zero(u):
            u = perpendicular(n)
        frames.append((u, _balanced_cross(n, u)))
    return frames


def _balanced_cross(n: Vec, u: Vec) -> Vec:
    """cross(n, u) rescaled to roughly the length of u, keeping the frame
    isotropic for the corner parametrization."""
    w = cross(n, u)
    return scale(w, sqrt_floor(norm2(u) / norm2(w), 30))


def _conic_second_point(A, B, base, slope):
    """Second rational point of {A x^2 + B y^2 = r^2} on the line through
    ``base`` with rational ``slope`` (r^2 implied by the base point)."""
    a, b = base
    t = -2 * (A * a + B * b * slope) / (A + B * slope * slope)
    return (a + t, b + slope * t)


def _ring_points(center: Vec, frame, eps: ExactRadius):
    """Three near-equilateral points on the exact circle of squared radius
    <= eps.sq around ``center`` in the plane spanned by the frame.

    One rational point on the circle is easy (pick both frame coefficients
    freely); chords of rational slope through it then give rational points
    near any target angle.  An acute triangle keeps every prism side away
    from the circle's diameter planes, which the support certificates need.
    """
    u, w = frame
    A, B = norm2(u), norm2(w)
    # 2**e <= sqrt_floor(x) <= sqrt(x) for 4**e <= x: a, b > 0 and rho_sq <= eps.sq
    a = sqrt_floor(eps.sq / (2 * A), 40)
    b = sqrt_floor(eps.sq / (2 * B), 40)
    rho_sq = a * a * A + b * b * B
    fA, fB, fr = float(A), float(B), float(rho_sq)
    base = (a, b)  # roughly 45 degrees in the normalized frame
    params = []
    for target_deg in (90.0, 210.0, 330.0):
        phi = math.radians(target_deg)
        alpha_t = math.sqrt(fr / fA) * math.cos(phi)
        beta_t = math.sqrt(fr / fB) * math.sin(phi)
        scale_a = math.sqrt(fr / fA)
        denom = alpha_t - float(a)
        nudge = 0.0
        for _ in range(8):
            if abs(denom) > 1e-6 * scale_a:
                slope = Fraction(round((beta_t - float(b)) / denom * 2 ** 20 + nudge), 2 ** 20)
                pt = _conic_second_point(A, B, base, slope)
                if pt != base and pt not in params:
                    params.append(pt)
                    break
            nudge += 7.0
            denom += 0.01 * scale_a
        else:
            raise EpsilonTooLarge("could not place ring corner")
    pts = []
    for alpha, beta in params:
        assert alpha * alpha * A + beta * beta * B == rho_sq
        pts.append(add(center, add(scale(u, alpha), scale(w, beta))))
    if len(set(pts)) != 3 or collinear(*pts):
        raise EpsilonTooLarge("degenerate ring corners")
    angles = sorted(math.atan2(float(be) * math.sqrt(fB), float(al) * math.sqrt(fA))
                    for al, be in params)
    gaps = [angles[1] - angles[0], angles[2] - angles[1],
            2 * math.pi - (angles[2] - angles[0])]
    if min(gaps) < math.pi / 6:
        raise EpsilonTooLarge("ring corners too close together")
    return tuple(pts), rho_sq


# the index triples of six points, in the order the hull certificates read them
SIX_TRIPLES = tuple(combinations(range(6), 3))


def _hull_table(points):
    """``geometry._side_table`` of the triples of the first six homogeneous
    ``points`` against all of them, keyed by triple."""
    return dict(zip(SIX_TRIPLES, _side_table(points, SIX_TRIPLES)))


def _prism_faces(coords, k):
    """Mantle triangles for every prism, certified against the hull of its
    six points.

    The paper's cylinders are convex-hull boundaries minus the two ring
    caps, so the side quads and their diagonals are dictated by the hull.
    The six points must be hull vertices and both ring triangles hull faces
    first; neither depends on which corners the side quads join.  Then the
    next ring's corners are matched to this ring's in their three cyclic
    orders, unshifted first, and the first order whose three side quads
    all have a hull diagonal is taken.  In each quad the grid diagonal
    (toward the lower-indexed ring vertex) is preferred, and taken whenever
    its two triangles lie in supporting planes; otherwise the opposite
    diagonal is certified the same way.  Returns (faces, None) or
    (None, reason), where a prism with no matching gives the unshifted
    order's reason.

    Both certificates read one integer side table of the six points as
    homogeneous ints.  A triple supports the hull when no two points lie
    strictly on opposite sides of its plane.  A point is a hull vertex iff
    it differs from the other five and the normals of the supporting
    triples through it have rank 3.  That test is exact for six points that
    span space, and ``_ring_planes`` guarantees they do: the next ring's
    centre, the circumcentre of its corners, lies strictly off this ring's
    plane, so one of those corners does too.  A collinear triple has the
    zero plane, which adds nothing to a rank; once all six points are
    vertices no three are collinear, so no cap or diagonal has it.
    """
    faces = []
    for r in range(k):
        s = (r + 1) % k
        labels = [3 * r + 1, 3 * r + 2, 3 * r + 3, 3 * s + 1, 3 * s + 2, 3 * s + 3]
        pts = [homogeneous_point(coords[x]) for x in labels]
        table = _hull_table(pts)
        support = {t for t, (_, signs) in table.items() if not (1 in signs and -1 in signs)}
        for i in range(6):
            normals = [table[t][0][:3] for t in SIX_TRIPLES if i in t and t in support]
            if pts.count(pts[i]) > 1 or not any(
                    dot(cross(a, b), c) for a, b, c in combinations(normals, 3)):
                return None, f"ring point {labels[i]} inside prism hull {r}"
        if (0, 1, 2) not in support or (3, 4, 5) not in support:
            return None, f"ring triangle of prism {r} not a hull face"
        for shift in range(3):
            b = [3 + (i + shift) % 3 for i in range(3)]
            mantle = []
            for i in range(3):
                j = (i + 1) % 3
                diag = next((d for d in (((i, j, b[i]), (j, b[j], b[i])),
                                         ((i, j, b[j]), (i, b[j], b[i])))
                             if all(tuple(sorted(t)) in support for t in d)), None)
                if diag is None:
                    if shift == 0:
                        reason = (f"side quad {labels[i]},{labels[j]} of prism {r} "
                                  "has no hull diagonal")
                    break
                mantle.extend(tuple(sorted(labels[x] for x in t)) for t in diag)
            else:
                faces.extend(mantle)
                break
        else:
            return None, reason
    return faces, None


def tube_construction(K: StickKnot, eps: ExactRadius | None = None) -> Mesh:
    """Knotted polyhedral torus with 3k vertices around K, proved embedded.

    Rings of three vertices on exact circles in the (near-bisector) ring
    planes, joined by the hull mantles of consecutive ring pairs; the caps
    are the removed ring triangles.  With a radius, the tube certifies at
    that radius or EpsilonTooLarge is raised.  Without one, the radius
    starts at the bound of ``choose_epsilon`` and is halved up to
    MAX_EPS_HALVINGS times; the first certified tube is returned, its
    radius in ``provenance["epsilon_sq"]``, the reason each larger radius
    failed in ``provenance["halvings"]`` and its proof in ``embedding``.
    """
    if eps is not None:
        return _tube_at(K, eps)
    eps = choose_epsilon(K)
    halvings = []
    for _ in range(MAX_EPS_HALVINGS):
        try:
            mesh = _tube_at(K, eps)
        except EpsilonTooLarge as exc:
            halvings.append(str(exc))
            eps = eps.halved()
        else:
            mesh.provenance["halvings"] = halvings
            return mesh
    raise EpsilonTooLarge("no radius certified after repeated halving")


def _tube_at(K: StickKnot, eps: ExactRadius) -> Mesh:
    """The tube at one radius: rings in the one transported frame, prisms
    certified with their own corner matchings, the mesh proved embedded;
    EpsilonTooLarge with the reason when any of it fails."""
    k = K.k
    normals = _ring_planes(K)
    frames = _transported_frames(normals)
    coords = {}
    radii = []
    for i in range(k):
        pts, rho_sq = _ring_points(K.vertices[i], frames[i], eps)
        radii.append(rho_sq)
        for j in range(3):
            coords[3 * i + 1 + j] = pts[j]
    faces, reason = _prism_faces(coords, k)
    if faces is None:
        raise EpsilonTooLarge(reason)
    # the k prism mantles are annuli glued ring to ring by cyclic rotations
    # of the corners, so they always validate as a torus on 3k vertices
    mesh = Mesh(coords, SimplicialTorus(faces), {
        "kind": "tube",
        "knot": K,
        "epsilon_sq": eps.sq,
        "ring_radius_sq": radii,
        "ring_normals": normals,
        "meridian": ring_cycle(k),
        "halvings": [],
    })
    mesh.embedding = verify_embedding(mesh)
    if not mesh.embedding.ok:
        raise EpsilonTooLarge(f"self-intersection: {mesh.embedding.witness}")
    return mesh


def choose_epsilon(K: StickKnot) -> ExactRadius:
    """Closed-form radius bound: 1/4 of the polygon clearance, exactly
    covariant under rational scaling of K.  ``tube_construction`` halves it
    until a tube certifies."""
    if not K.is_general_position():
        raise DegenerateKnot("knot vertices not in general position")
    return ExactRadius(K.min_clearance_sq() / 16)


# -- tube analysis ----------------------------------------------------------------


def core_curve(mesh: Mesh) -> StickKnot:
    """Recover the source knot as the exact ring circumcenters."""
    prov = mesh.provenance
    if prov.get("kind") not in ("tube", "complement"):
        raise MissingProvenance("tube")
    k = prov["knot"].k
    centers = []
    for r in range(k):
        p1, p2, p3 = (mesh.coords[3 * r + 1 + j] for j in range(3))
        centers.append(_circumcenter(p1, p2, p3))
    return StickKnot(centers)


def _circumcenter(a: Vec, b: Vec, c: Vec) -> Vec:
    """Point in the plane of a, b, c equidistant from all three (exact).

    On the corners scaled to integers by their common denominator D it is
    a + s ab + t ac, where det2 s = m22 (m11 - m12) and det2 t = m11 (m22
    - m12) for the Gram matrix m of ab and ac, and det2 twice its
    determinant."""
    (a, b, c), D = scaled_to_integers((a, b, c))
    ab, ac = sub(b, a), sub(c, a)
    m11, m12, m22 = dot(ab, ab), dot(ab, ac), dot(ac, ac)
    det2 = 2 * (m11 * m22 - m12 * m12)
    s2, t2 = m22 * (m11 - m12), m11 * (m22 - m12)  # det2 s, det2 t
    return tuple(Fraction(det2 * x + s2 * y + t2 * z, det2 * D) for x, y, z in zip(a, ab, ac))


def classify_cycle_in_tube(mesh: Mesh, C: Cycle, certificate: bool = True):
    """'meridian' or 'non-meridian', by homology class against the recorded
    meridian; optionally with a linking-number certificate (the geometric
    cycle links the core once exactly for meridian classes)."""
    prov = mesh.provenance
    if "meridian" not in prov:
        raise MissingProvenance("meridian")
    T = mesh.complex
    basis = homology_basis(T)
    sig = cycle_signature(T, basis, C)
    if sig.is_zero():
        raise SeparatingCycle(C.vertices)
    msig = cycle_signature(T, basis, prov["meridian"])
    meridian = sig.proportional_to(msig)
    cert = {}
    if certificate:
        core = core_curve(mesh)
        cert["linking_with_core"] = linking_number(mesh.cycle_points(C), list(core.vertices))
    return ("meridian" if meridian else "non-meridian"), cert


# -- complement construction -------------------------------------------------------


def complement_construction(K: StickKnot) -> Mesh:
    """Torus of complement knot type with 3k+4 vertices: the tube with one
    subdivided hull triangle, glued to an enclosing octahedron boundary.
    The radius is halved while the complement fails; ``provenance["halvings"]``
    holds the tube's halvings, then the reason for each of these, and
    ``provenance["failed_lifts"]`` the (w, t, witness) of each failed lift
    of the subdivision vertex y in the build that certified, in try order."""
    tube = tube_construction(K)
    eps = ExactRadius(tube.provenance["epsilon_sq"])
    halvings = list(tube.provenance["halvings"])
    for _ in range(MAX_EPS_HALVINGS):
        try:
            if tube is None:
                tube = tube_construction(K, eps)
            mesh = _build_complement(K, tube)
        except (EnclosureFailure, EpsilonTooLarge) as exc:
            halvings.append(str(exc))
            tube, eps = None, eps.halved()
        else:
            mesh.provenance["halvings"] = halvings
            return mesh
    raise EnclosureFailure(f"complement failed after radius halvings ({halvings[-1]})")


def _build_complement(K: StickKnot, tube: Mesh) -> Mesh:
    k = K.k
    n_tube = 3 * k
    all_pts = [tube.coords[i] for i in range(1, n_tube + 1)]

    # a ring edge on the hull, from the rings in lexicographic order of
    # their knot vertex: the least vertex is extreme, so its ring comes first
    edges = ((3 * i + a, 3 * i + b) for i in sorted(range(k), key=lambda i: K.vertices[i])
             for a, b in ((1, 2), (1, 3), (2, 3)))
    choice = next(((v1, v2, plane_n) for v1, v2 in edges
                   if (plane_n := _strict_edge_support(all_pts, v1 - 1, v2 - 1)) is not None),
                  None)
    if choice is None:
        raise EnclosureFailure("no ring edge lies on the hull")
    v1, v2, plane_n = choice

    p1, p2 = tube.coords[v1], tube.coords[v2]
    c = dot(plane_n, p1)
    m = scale(add(p1, p2), Fraction(1, 2))

    # pick the mantle face at the edge whose outward lift meets the
    # supporting plane: y sits over that face close to the edge, *in* the
    # supporting plane, so v1-v2-y is in convex position by construction
    y_label = n_tube + 1
    sub_mesh, failed = None, []
    face_ids = tube.complex.edge_faces[(min(v1, v2), max(v1, v2))]
    for fi in sorted(face_ids, key=lambda i: tube.complex.faces[i]):
        f_old = tube.complex.faces[fi]
        w = next(x for x in f_old if x not in (v1, v2))
        pw = tube.coords[w]
        n_f = cross(sub(p2, p1), sub(pw, p1))
        if dot(n_f, plane_n) < 0:
            n_f = scale(n_f, -1)
        denom = dot(plane_n, n_f)
        slope = dot(plane_n, sub(pw, m))
        if denom == 0 or slope >= 0:
            continue
        new_faces = [f for f in tube.complex.faces if f != f_old]
        new_faces += [tuple(sorted(tr)) for tr in
                      ((v1, v2, y_label), (v1, y_label, w), (v2, y_label, w))]
        # one face split into three at a new vertex (a stellar subdivision)
        # keeps the torus a torus
        torus2 = SimplicialTorus(new_faces)
        t = Fraction(1, 4)
        for _ in range(60):
            h = -t * slope / denom
            y = add(m, add(scale(sub(pw, m), t), scale(n_f, h)))
            assert dot(plane_n, y) == c
            coords = dict(tube.coords)
            coords[y_label] = y
            cand = Mesh(coords, torus2, {})
            report = verify_embedding(cand)
            if report.ok:
                sub_mesh = (cand, y, w)
                break
            failed.append((w, t, report.witness))
            t /= 2
        if sub_mesh is not None:
            break
    if sub_mesh is None:
        raise EpsilonTooLarge("no lift of the subdivision vertex certified")
    cand, y, w = sub_mesh

    octa = _enclosing_octahedron(cand, (v1, v2, y_label), plane_n)
    z_labels = [n_tube + 2, n_tube + 3, n_tube + 4]
    coords = dict(cand.coords)
    for lbl, pt in zip(z_labels, octa["z_points"]):
        coords[lbl] = pt
    top = tuple(sorted((v1, v2, y_label)))
    faces = [f for f in cand.complex.faces if f != top]
    corner_label = {0: v1, 1: v2, 2: y_label, 3: z_labels[0], 4: z_labels[1], 5: z_labels[2]}
    for tri in octa["facets"]:
        lbl = tuple(sorted(corner_label[i] for i in tri))
        if lbl == top:
            continue
        faces.append(lbl)
    # a validated torus has F = 2V (Euler), and V = 3k + 4: each z label
    # lies in an octahedron facet other than the glued one
    mesh = Mesh(coords, SimplicialTorus(faces), {
        "kind": "complement",
        "knot": K,
        "epsilon_sq": tube.provenance["epsilon_sq"],
        "meridian": ring_cycle(k),
        "glued_edge": (v1, v2),
        "failed_lifts": failed,
    })
    mesh.embedding = verify_embedding(mesh)
    if not mesh.embedding.ok:
        raise EpsilonTooLarge(f"complement self-intersects: {mesh.embedding.witness}")
    return mesh


def _strict_edge_support(points, i, j):
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


def _enclosing_octahedron(mesh: Mesh, top_labels, plane_n):
    """Large triangle beyond the mesh joined to the lifted triangle; the six
    points must span a combinatorial octahedron enclosing the mesh.

    The large triangle's centre is the mesh centroid moved below the mesh
    and rounded to a grid of power-of-two step; its lateral scales are
    powers of two, so its corners stay coarse whatever the tube's bits.
    """
    pts = list(mesh.coords.values())
    top = [mesh.coords[v] for v in top_labels]
    d = plane_n  # outward: the mesh lies strictly below the glued plane
    lows = [dot(d, p) for p in pts]
    spread = max(lows) - min(lows) + 1
    e1 = reduce_direction(perpendicular(d))
    e2 = reduce_direction(cross(d, e1))
    centroid = tuple(sum(p[i] for p in pts) / len(pts) for i in range(3))
    c0 = add(centroid, scale(d, (min(lows) - spread - dot(d, centroid)) / norm2(d)))
    # c0 lies spread/|d| below the mesh; a grid step under 0.71 spread/|d|
    # moves it by less than that
    step = _coarse_sqrt(spread * spread / norm2(d)) / 2
    c0 = tuple(step * round(x / step) for x in c0)
    # comparable lateral scales for the two frame vectors
    s1 = _coarse_sqrt(spread * spread / norm2(e1))
    s2 = _coarse_sqrt(spread * spread / norm2(e2))
    # the mesh points follow the six in the side table; the glued corners
    # are among the six
    mesh_pts = [homogeneous_point(p) for p in pts]
    inside = [6 + m for m, p in enumerate(pts) if p not in top]
    R = Fraction(4)
    for _ in range(40):
        z = [add(c0, scale(e1, 2 * R * s1)),
             add(c0, add(scale(e1, -R * s1), scale(e2, R * s2))),
             add(c0, add(scale(e1, -R * s1), scale(e2, -R * s2)))]
        table = _hull_table([homogeneous_point(p) for p in top + z] + mesh_pts)
        facets = _hull_facets(table)
        if facets is not None and len(facets) == 8 \
                and frozenset((0, 1, 2)) in facets and frozenset((3, 4, 5)) in facets:
            if _encloses(table, facets, inside):
                return {"z_points": z, "facets": sorted(tuple(sorted(f)) for f in facets)}
        R *= 2
    raise EnclosureFailure("no enclosing octahedron found")


def _coarse_sqrt(x: Fraction) -> Fraction:
    """A power of two within a factor of two of sqrt(x), for rational x > 0."""
    return Fraction(2) ** ((x.numerator.bit_length() - x.denominator.bit_length()) // 2)


def _hull_facets(table):
    """Facets of the hull of six points, from their ``_hull_table``; None
    when four of them are coplanar."""
    facets = set()
    for tri, (plane, signs) in table.items():
        if not any(plane):
            continue
        six = signs[:6]
        if six.count(0) > 3:
            return None  # four coplanar points: jiggle the scale
        if not (1 in six and -1 in six):
            facets.add(frozenset(tri))
    return facets


def _encloses(table, facets, inside):
    """The points at the indices ``inside`` lie strictly on the inner side
    of every facet plane, the side of the six points off that facet."""
    for tri in facets:
        signs = table[tuple(sorted(tri))][1]
        inner = next(signs[i] for i in range(6) if i not in tri)
        if any(signs[i] != inner for i in inside):
            return False
    return True


# -- cyclic polytope realization -----------------------------------------------------


def gale_evenness(subset, n: int) -> bool:
    """Facet test for the cyclic 4-polytope on n vertices: every two
    non-members are separated by an even number of members."""
    s = set(subset)
    comp = [x for x in range(1, n + 1) if x not in s]
    # b - a - 1 members lie between consecutive non-members; other counts are sums
    return len(s) == 4 and all((b - a) % 2 for a, b in zip(comp, comp[1:]))


def cyclic_facets(n: int):
    """The n(n-3)/2 facets of C_4(n), n >= 5, sorted: two disjoint pairs {i, i+1} or {n, 1}."""
    wrap = [(1, j, j + 1, n) for j in range(2, n - 1)]
    return sorted([(i, i + 1, j, j + 1) for i in range(1, n) for j in range(i + 2, n)] + wrap)


def _in_facet(x, y, z, n):
    """Whether positions x < y < z lie in a facet of C_4(n), n >= 5."""
    # iff two are circularly adjacent: three of a facet's positions hold one of its
    # pairs, and a third position r has a neighbour outside any pair without r
    return y - x == 1 or z - y == 1 or z - x == n - 1


def _moment_point(t: int):
    return (t, t * t, t ** 3, t ** 4)


def _dot4(a, b):
    return sum(x * y for x, y in zip(a, b))


def _moment_plane(positions, lead=1):
    """The facet hyperplane N.x = c of C_4(n) through the moment points at
    four positions, in closed form (Gale): N = (-e3, e2, -e1, e0) and
    c = -e4 from their elementary symmetric polynomials e1..e4 times
    e0 = lead, so that N.m(t) - c is lead times the product of t - t_i."""
    e = [lead, 0, 0, 0, 0]
    for t in positions:
        for i in range(4, 0, -1):
            e[i] += e[i - 1] * t
    return (-e[3], e[2], -e[1], e[0]), -e[4]


def _viewpoint_sides(n, total, sum_fp, N):
    """(N_g.total - n c_g, N_g.sum_fp - 4 c_g, 4 N_g.N) for each facet g but
    the first, (1, 2, 3, 4): linear forms in g's e1..e4, from the closed-form
    plane N_g = (-e3, e2, -e1, 1), c_g = -e4 and the sums and products of two pairs."""
    (t1, t2, t3, t4), (f1, f2, f3, f4) = total, sum_fp
    m1, m2, m3, m4 = (4 * x for x in N)
    sides = []
    for a, b, c, d in cyclic_facets(n)[1:]:
        s, q, s2, q2 = a + b, a * b, c + d, c * d
        e1, e2, e3, e4 = s + s2, q + q2 + s * s2, q * s2 + q2 * s, q * q2
        sides.append((t4 - e1 * t3 + e2 * t2 - e3 * t1 + n * e4,
                      f4 - e1 * f3 + e2 * f2 - e3 * f1 + 4 * e4,
                      m4 - e1 * m3 + e2 * m2 - e3 * m1))
    return sides


def _schlegel_viewpoint(sum_fp, N, sides):
    """(x4, w) with x = x4 / w = sum_fp / 4 + N / 4^j for the least j < 80 at
    which sc * (4^j a + b) > 0 for every (sc, a, b) in ``sides``: positive
    multiples of the centroid's and of x's side of a facet, so that x lies
    strictly on the centroid's side, never on the facet hyperplane."""
    for j in range(80):
        s = 4 ** j
        if all(sc * (s * a + b) > 0 for sc, a, b in sides):
            return [s * f + 4 * nn for f, nn in zip(sum_fp, N)], 4 * s
    raise PolytorusError("no Schlegel viewpoint certified")


def cyclic_polytope_realization(k: int) -> Mesh:
    """Embed the minimal 3xk torus in the boundary of C_4(3k-2) and project
    it to rational 3D coordinates through one facet (Schlegel diagram).
    Face membership, facet support and the viewpoint's side of every other
    facet are certified in closed form from Gale's evenness criterion."""
    T = minimal_torus_3k(k)
    n = 3 * k - 2
    seq = hamiltonian_sequence(k)
    pos = {v: i + 1 for i, v in enumerate(seq)}

    # every torus face must lie in a facet of the cyclic polytope
    for face in T.faces:
        if not _in_facet(*sorted(pos[v] for v in face), n):
            raise FaceNotInPolytope(face)

    # moment points, facet planes and the viewpoint are integers; Fraction
    # enters only in the 3D coordinates, one division each
    pts4 = {v: _moment_point(pos[v]) for v in pos}
    facet_pos = (1, 2, 3, 4)
    assert gale_evenness(facet_pos, n)
    fp = [_moment_point(t) for t in facet_pos]
    # the viewpoint moves along N, so N keeps the Plücker plane's scale:
    # lead -12, minus the positions' Vandermonde product.  N = (600, -420,
    # 120, -12), c = 288 and N.m(t) - c < 0 at every other position t >= 5
    N, c = _moment_plane(facet_pos, -12)
    if any(_dot4(N, pts4[v]) - c >= 0 for v in pts4 if pos[v] not in facet_pos):
        raise PolytorusError("facet hyperplane did not support the polytope")

    # x = facet centre + N / 4^j is beyond the facet (N.x - c = |N|^2 / 4^j)
    # and, for j large enough, beneath every other facet (total: power sums)
    total = [sum(col) for col in zip(*pts4.values())]
    sum_fp = [sum(col) for col in zip(*fp)]
    x4, w = _schlegel_viewpoint(sum_fp, N, _viewpoint_sides(n, total, sum_fp, N))

    # p projects through the facet hyperplane to x + (c - N.x) / (N.p - N.x)
    # (p - x): the integer vector (N.p - c) x4 + (c w - N.x4) p over
    # w N.p - N.x4, which is p itself on the facet; its 3D frame coordinates
    # come from the frame's integer adjugate (Cramer's rule)
    nx = _dot4(N, x4)
    basis = [tuple(p - q for p, q in zip(fp[i], fp[0])) for i in (1, 2, 3)]
    rows, (f0, f1, f2) = _independent_rows(basis)
    adj = (cross(f1, f2), cross(f2, f0), cross(f0, f1))
    det = dot(adj[2], f2)
    coords = {}
    for v, p4 in pts4.items():
        np4 = _dot4(N, p4)
        den = w * np4 - nx
        q4 = [(np4 - c) * xi + (c * w - nx) * pi for xi, pi in zip(x4, p4)]
        rhs = [q4[r] - den * fp[0][r] for r in rows]
        coords[v] = tuple(Fraction(dot(a, rhs), det * den) for a in adj)

    mesh = Mesh(coords, T, {
        "kind": "cyclic",
        "k": k,
        "positions": pos,
        "facet": facet_pos,
    })
    res = stick_number_and_type(T)
    mesh.provenance["core_determinant"] = polygon_determinant(mesh.cycle_points(res.witness_s))
    mesh.embedding = verify_embedding(mesh)
    if not mesh.embedding.ok:
        raise PolytorusError(f"Schlegel projection self-intersects: {mesh.embedding.witness}")
    return mesh


def _independent_rows(basis):
    """Three coordinates in which the three 4-vectors ``basis`` stay
    independent, and the vectors read in those coordinates."""
    for rows in combinations(range(4), 3):
        frame = [tuple(b[r] for r in rows) for b in basis]
        if dot(cross(frame[0], frame[1]), frame[2]) != 0:
            return rows, frame
    raise PolytorusError("degenerate facet frame")


# -- mesh I/O --------------------------------------------------------------------


def export_mesh(mesh: Mesh, path, fmt: str = "off", precision: int = 12):
    fmt = fmt.lower()
    if fmt not in ("off", "obj"):
        raise ValueError(f"unsupported format {fmt!r}")
    n = mesh.complex.n_vertices
    lines = []
    if fmt == "off":
        lines.append("OFF")
        lines.append(f"{n} {len(mesh.complex.faces)} 0")
        for v in range(1, n + 1):
            lines.append(" ".join(rational_to_decimal(cc, precision)
                                  for cc in mesh.coords[v]))
        for a, b, c in mesh.complex.faces:
            lines.append(f"3 {a - 1} {b - 1} {c - 1}")
    else:
        for v in range(1, n + 1):
            lines.append("v " + " ".join(rational_to_decimal(cc, precision)
                                         for cc in mesh.coords[v]))
        for a, b, c in mesh.complex.faces:
            lines.append(f"f {a} {b} {c}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def import_off(path) -> Mesh:
    """Read an OFF triangle mesh; malformed input raises ParseError with its line."""
    tokens = []
    for line_no, raw in enumerate(read_input(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens.append((line_no, line))
    if not tokens or tokens[0][1] != "OFF":
        raise ParseError(tokens[0][0] if tokens else 0, "missing OFF header")

    def entry(i, what):
        if i >= len(tokens):
            raise ParseError(tokens[-1][0], f"end of file, expected {what}")
        return tokens[i]

    line_no, line = entry(1, "the counts line")
    try:
        nv, nf, _ = (parse_int(p) for p in line.split())
    except ValueError:
        raise ParseError(line_no, line) from None
    if nv < 0 or nf < 0:
        raise ParseError(line_no, line)
    coords = {}
    for i in range(nv):
        line_no, line = entry(2 + i, f"vertex {i + 1} of {nv}")
        try:
            x, y, z = (parse_rational(p) for p in line.split())
        except (ValueError, ZeroDivisionError):
            raise ParseError(line_no, line) from None
        coords[i + 1] = (x, y, z)
    faces = []
    for i in range(nf):
        line_no, line = entry(2 + nv + i, f"face {i + 1} of {nf}")
        try:
            size, *idx = (parse_int(p) for p in line.split())
        except ValueError:
            raise ParseError(line_no, line) from None
        if size != 3 or len(idx) != 3 or not all(0 <= j < nv for j in idx):
            raise ParseError(line_no, line)
        faces.append(tuple(j + 1 for j in idx))
    T = SimplicialTorus(faces)
    if T.n_vertices != nv:
        # labels would be compacted and no longer match the coordinates
        raise PolytorusError(f"OFF file lists {nv} vertices but its faces use {T.n_vertices}")
    return Mesh(coords, T, {"kind": "off-import"})
