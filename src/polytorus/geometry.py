"""Exact rational 3D geometry.

Points are triples of ``fractions.Fraction``; every predicate here is
decision-exact.  Square roots never appear: distances are compared through
their squares, "unit" vectors are replaced by rational approximations whose
defining inequalities (transversality, containment) are then checked
exactly, and circle membership is expressed as an equation between squared
norms.

The embedding test and the convex-hull certificates run on integers.
``homogeneous_point`` writes each point as (X, Y, Z, W) over its own
denominator W > 0, and det4(P, Q, R, S) = -Wp Wq Wr Ws orient3d(p, q, r, s);
the four W are positive, so the negated determinant has the rational sign,
from ints with no division and no gcd.  One integer side table,
``_side_table``, gives the plane of each index triple as a cofactor
4-vector and the side of every point against it.  The realization's prism
and octahedron certificates read it for the triples of six points.
``first_conflict`` reads it for the faces of a mesh, computes each directed
edge's Plücker line once, and decides each face pair from the table where
it can:

* one triangle strictly on one side of the other's plane: disjoint;
* a shared edge, not coplanar: they meet exactly in that edge;
* a shared vertex, and the other two corners of either triangle strictly
  on one side of the other's plane: they meet exactly in that vertex.

The pairs left are decided by orientation signs alone, each the permuted
inner product of two edge lines.  Two non-coplanar triangles meet iff an
edge of one meets the other.  When they share a vertex, they meet beyond
it iff the edge opposite it in one of them meets the other.  A coplanar
pair goes to ``_coplanar_conflict`` on its points times the least common
multiple of their W, a positive factor that keeps every sign it reads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import DegenerateFace

Vec = tuple[Fraction, Fraction, Fraction]


def vec(x, y, z) -> Vec:
    return (Fraction(x), Fraction(y), Fraction(z))


def add(a: Vec, b: Vec) -> Vec:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def sub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def scale(a: Vec, s) -> Vec:
    s = Fraction(s)
    return (a[0] * s, a[1] * s, a[2] * s)


def dot(a: Vec, b: Vec) -> Fraction:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a: Vec, b: Vec) -> Vec:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def norm2(a: Vec) -> Fraction:
    return dot(a, a)


def dist2(a: Vec, b: Vec) -> Fraction:
    return norm2(sub(a, b))


def is_zero(a: Vec) -> bool:
    return a[0] == 0 and a[1] == 0 and a[2] == 0


def perpendicular(n: Vec) -> Vec:
    """cross(n, e) for the first coordinate axis e (x, then y, then z) that
    is not parallel to n; n must be nonzero."""
    for axis in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        u = cross(n, vec(*axis))
        if not is_zero(u):
            return u


def collinear(a: Vec, b: Vec, c: Vec) -> bool:
    return is_zero(cross(sub(b, a), sub(c, a)))


def orient3d(a: Vec, b: Vec, c: Vec, d: Vec) -> int:
    """Sign of det[b-a; c-a; d-a]: +1, 0, or -1."""
    v = dot(cross(sub(b, a), sub(c, a)), sub(d, a))
    return (v > 0) - (v < 0)


def coplanar(a: Vec, b: Vec, c: Vec, d: Vec) -> bool:
    return orient3d(a, b, c, d) == 0


# -- rational approximations -------------------------------------------------


def sqrt_floor(x: Fraction, bits: int = 64) -> Fraction:
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


def approx_unit(a: Vec, bits: int = 48) -> Vec:
    """Rational vector close to a/|a| (not exactly unit length)."""
    n2 = norm2(a)
    if n2 == 0:
        raise ValueError("cannot normalize the zero vector")
    inv = sqrt_floor(Fraction(1) / n2, bits)
    return scale(a, inv)


def reduce_direction(a: Vec) -> Vec:
    """Shortest integer vector with the same direction (positive scaling)."""
    if is_zero(a):
        return a
    ints = homogeneous_point(a)[:3]
    g = gcd(*ints)
    return tuple(Fraction(v // g) for v in ints)


# -- distances between simplices (squared, exact) -------------------------------


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


# -- 2D helpers (exact, used after projecting away a coordinate) -----------------


def drop_axis(p: Vec, axis: int):
    return tuple(p[i] for i in range(3) if i != axis)


def dominant_axis(n: Vec) -> int:
    absn = [abs(n[0]), abs(n[1]), abs(n[2])]
    return absn.index(max(absn))


def orient2d(a, b, c) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def point_on_segment_2d(p, a, b) -> bool:
    """p on the closed segment ab (collinearity + box)."""
    if orient2d(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def segments_intersect_2d(a, b, c, d) -> bool:
    """Closed segments ab and cd share at least one point."""
    o1 = orient2d(a, b, c)
    o2 = orient2d(a, b, d)
    o3 = orient2d(c, d, a)
    o4 = orient2d(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    return (point_on_segment_2d(c, a, b) or point_on_segment_2d(d, a, b)
            or point_on_segment_2d(a, c, d) or point_on_segment_2d(b, c, d))


def point_in_triangle_2d(p, a, b, c, strict=False) -> bool:
    o1 = orient2d(a, b, p)
    o2 = orient2d(b, c, p)
    o3 = orient2d(c, a, p)
    if strict:
        return (o1 > 0 and o2 > 0 and o3 > 0) or (o1 < 0 and o2 < 0 and o3 < 0)
    return (o1 >= 0 and o2 >= 0 and o3 >= 0) or (o1 <= 0 and o2 <= 0 and o3 <= 0)


# -- triangle/triangle intersection beyond shared simplices -----------------------


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


def _coplanar_conflict(t1, t2, shared, n):
    axis = dominant_axis(n)
    a1 = [drop_axis(p, axis) for p in t1]
    a2 = [drop_axis(p, axis) for p in t2]
    sh = [drop_axis(p, axis) for p in shared]

    if len(shared) == 2:
        e1, e2 = sh
        apex1 = next(p for p in a1 if p not in sh)
        apex2 = next(p for p in a2 if p not in sh)
        o1 = orient2d(e1, e2, apex1)
        o2 = orient2d(e1, e2, apex2)
        if o1 == 0 or o2 == 0:
            return "degenerate coplanar neighbor"
        if o1 == o2:
            return "coplanar faces sharing an edge overlap"
        return None

    # shared vertex or nothing: any segment contact or containment beyond
    # the shared point is a violation
    for i in range(3):
        for j in range(3):
            p1, p2 = a1[i], a1[(i + 1) % 3]
            q1, q2 = a2[j], a2[(j + 1) % 3]
            if segments_intersect_2d(p1, p2, q1, q2):
                if len(shared) == 1 and _only_touch_at(p1, p2, q1, q2, sh[0]):
                    continue
                return "coplanar segments cross"
    for p in a1:
        if (not sh or p != sh[0]) and point_in_triangle_2d(p, *a2, strict=True):
            return "coplanar vertex inside other face"
    for q in a2:
        if (not sh or q != sh[0]) and point_in_triangle_2d(q, *a1, strict=True):
            return "coplanar vertex inside other face"
    return None


def _only_touch_at(p1, p2, q1, q2, v):
    """The two segments meet exactly in the single point v."""
    if v not in (p1, p2) or v not in (q1, q2):
        return False
    pa = p2 if p1 == v else p1
    qa = q2 if q1 == v else q1
    # the segments share endpoint v; they overlap beyond v only if collinear
    # with the other endpoints on the same side
    if orient2d(v, pa, qa) != 0:
        return True
    return dot2_sign(v, pa, qa) <= 0


def dot2_sign(v, a, b) -> int:
    d = (a[0] - v[0]) * (b[0] - v[0]) + (a[1] - v[1]) * (b[1] - v[1])
    return (d > 0) - (d < 0)


# -- the integer embedding kernel --------------------------------------------------

# the rules that discharge a face pair, in the order first_conflict tries them
PAIR_RULES = ("coplanar", "one_side", "shared_edge", "shared_vertex", "orientation")


def homogeneous_point(p: Vec) -> tuple[int, int, int, int]:
    """Integers (X, Y, Z, W) with p = (X/W, Y/W, Z/W), where W > 0 is the
    least common multiple of p's own coordinate denominators."""
    w = lcm(*(c.denominator for c in p))
    return tuple(c.numerator * (w // c.denominator) for c in p) + (w,)


def first_conflict(points, faces):
    """The first face pair (i, j), i < j, in row order whose triangles meet
    outside their shared simplex, or None; and the number of pairs each
    rule of PAIR_RULES decided up to it.

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
                    tuple(at[v] for v in common), table[i][0][:3]) is not None
            elif _one_side(on_i) or _one_side(on_j):
                rule, conflict = "one_side", False
            elif len(common) == 2:
                rule, conflict = "shared_edge", False
            elif len(common) == 1:
                # the edge opposite the shared corner k runs from corner
                # k + 1 to k + 2; these are its side signs
                ki, kj = fi.index(common[0]), fj.index(common[0])
                si_opp = (on_i[(kj + 1) % 3], on_i[(kj + 2) % 3])
                sj_opp = (on_j[(ki + 1) % 3], on_j[(ki + 2) % 3])
                if _one_side(sj_opp) or _one_side(si_opp):
                    rule, conflict = "shared_vertex", False
                else:
                    rule = "orientation"
                    conflict = (_segment_meets(edges[i][(ki + 1) % 3], *sj_opp, edges[j])
                                or _segment_meets(edges[j][(kj + 1) % 3], *si_opp, edges[i]))
            else:
                rule = "orientation"
                conflict = (_edge_meets(edges[i], on_j, edges[j])
                            or _edge_meets(edges[j], on_i, edges[i]))
            discharged[rule] += 1
            if conflict:
                return (i, j), discharged
    return None, discharged


def _side_table(points, triples):
    """For each index triple (a, b, c) into the homogeneous ``points``: the
    plane E = _plane(_line(a, b), c), zero iff a, b, c are collinear, and
    the sign of E . X for every point X, which is orient3d(a, b, c, x)."""
    table = []
    for a, b, c in triples:
        e0, e1, e2, e3 = plane = _plane(_line(points[a], points[b]), points[c])
        table.append((plane, [_sign(e0 * x + e1 * y + e2 * z + e3 * w) for x, y, z, w in points]))
    return table


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _one_side(signs) -> bool:
    """Every sign is +1, or every sign is -1."""
    first = signs[0]
    return first != 0 and all(s == first for s in signs)


def _line(p, q):
    """Plücker coordinates of the line from homogeneous point p to q: the
    minors p_i q_j - p_j q_i for ij = 01, 02, 03, 12, 13, 23."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return (p0 * q1 - p1 * q0, p0 * q2 - p2 * q0, p0 * q3 - p3 * q0,
            p1 * q2 - p2 * q1, p1 * q3 - p3 * q1, p2 * q3 - p3 * q2)


def _plane(ab, c):
    """The plane through the line ``ab`` and the point c, as the 4-vector
    of cofactors E with E . X = -det4(A, B, C, X)."""
    l01, l02, l03, l12, l13, l23 = ab
    c0, c1, c2, c3 = c
    return (l12 * c3 - l13 * c2 + l23 * c1, l03 * c2 - l02 * c3 - l23 * c0,
            l01 * c3 - l03 * c1 + l13 * c0, l02 * c1 - l01 * c2 - l12 * c0)


def _orient(pq, ab) -> int:
    """Sign of orient3d(p, q, a, b) from the lines pq and ab, whose permuted
    inner product is det4(P, Q, A, B); the sum below is its negative."""
    l01, l02, l03, l12, l13, l23 = pq
    m01, m02, m03, m12, m13, m23 = ab
    return _sign(l02 * m13 - l01 * m23 - l03 * m12 - l12 * m03 + l13 * m02 - l23 * m01)


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


def _segment_meets(pq, sp, sq, tri) -> bool:
    """The closed segment pq meets the closed triangle abc, given the side
    signs sp, sq of p and q against its plane, the line ``pq`` and the
    triangle's lines ``tri`` = (ab, bc, ca).

    A segment lying in the plane (sp = sq = 0) counts as not meeting; its
    callers never need it.  Otherwise pq meets the plane, if at all, in one
    point X, and the three signs orient3d(p, q, a, b), orient3d(p, q, b, c)
    and orient3d(p, q, c, a) are the sign of (q - p) . n times the 2D
    orientations of X against the edges, so X lies in the triangle iff no
    two of them differ strictly.  Reversing pq negates all three, which
    leaves the answer as it is.
    """
    if sp * sq > 0 or sp == sq == 0:
        return False
    ab, bc, ca = tri
    o1 = _orient(pq, ab)
    o2 = _orient(pq, bc)
    if o1 * o2 < 0:
        return False
    o3 = _orient(pq, ca)
    return (o1 >= 0 and o2 >= 0 and o3 >= 0) or (o1 <= 0 and o2 <= 0 and o3 <= 0)


def parse_rational(token: str) -> Fraction:
    """Parse 'p/q', integer, or decimal literals exactly; like int()'s digit
    limit, a decimal exponent above 4300 in absolute value is a ValueError.
    So is a token that is not ASCII or holds a '_': int() takes digit
    separators and non-ASCII digits, and Fraction() takes separators only
    from Python 3.11 on, so the grammar would depend on the version."""
    token = token.strip()
    if not token.isascii() or "_" in token:
        raise ValueError(f"not an ASCII rational literal: {token!r}")
    if "/" in token:
        num, den = token.split("/")
        return Fraction(int(num), int(den))
    _, e, exponent = token.lower().partition("e")
    if e and abs(int(exponent)) > 4300:
        raise ValueError(f"decimal exponent out of range in {token!r}")
    return Fraction(token)


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rational_to_decimal(x: Fraction, digits: int) -> str:
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
