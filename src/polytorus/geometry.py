"""Exact rational 3D geometry.

Points are triples of ``fractions.Fraction``; every predicate here is
decision-exact.  Square roots never appear: distances are compared through
their squares, "unit" vectors are replaced by rational approximations whose
defining inequalities (transversality, containment) are then checked
exactly, and circle membership is expressed as an equation between squared
norms.  Squared distances between segments are integer quotients (num, den)
on the points scaled to integers by their common denominator.

The embedding test and the convex-hull certificates run on integers.
``homogeneous_point`` writes each point as (X, Y, Z, W) over its own
denominator W > 0, and det4(P, Q, R, S) = -Wp Wq Wr Ws orient3d(p, q, r, s);
the four W are positive, so the negated determinant has the rational sign,
from ints with no division and no gcd.  One integer side table,
``_side_table``, gives the plane of each index triple as a cofactor
4-vector and the side of every point against it.  The realization's prism
and octahedron certificates read it for the triples of six points.
``first_conflict`` reads it for the faces of a mesh, computes each
directed edge's Plücker line once, and builds bit masks over the faces: the
faces holding each point, and the faces whose plane has the point strictly
above or below.  A few ORs and ANDs of these give, for row i, the faces
j > i coplanar with face i, and the ``one_side`` faces, where one triangle
lies strictly on one side of the other's plane (disjoint); those are
counted in bulk.  The other pairs are visited in increasing j, and the
first pair that meets is returned with the reason of the rule that found it:

* a coplanar pair goes to ``_coplanar_conflict`` on its points times the
  least common multiple of their W, a positive factor that keeps every
  sign it reads; the reason is that function's own text;
* a shared edge, not coplanar: they meet exactly in that edge;
* a shared vertex: they meet exactly in it if the other two corners of
  either triangle are strictly on one side of the other's plane, else
  iff the edge opposite it in one of them meets the other, by orientation
  signs, each the permuted inner product of two edge lines (VERTEX_MEET);
* no shared corner: the two-sign test of Guigue and Devillers (2003)
  (DISJOINT_MEET).

This kernel is the embedding proof's only decision path; the rational
triangle test, ``triangles_conflict`` in ``tests/oracles.py``, is its oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd, isqrt, lcm

from .errors import DegenerateFace

Vec = tuple[Fraction, Fraction, Fraction]


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


def is_zero(a: Vec) -> bool:
    return a[0] == 0 and a[1] == 0 and a[2] == 0


def perpendicular(n: Vec) -> Vec:
    """cross(n, e) for the first coordinate axis e (x, then y, then z) that
    is not parallel to n; n must be nonzero."""
    for axis in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        u = cross(n, axis)
        if not is_zero(u):
            return u


def collinear(a: Vec, b: Vec, c: Vec) -> bool:
    return is_zero(cross(sub(b, a), sub(c, a)))


# -- rational approximations -------------------------------------------------


def sqrt_floor(x: Fraction, bits: int = 64) -> Fraction:
    """Rational lower approximation of sqrt(x), ~bits of *relative* precision:
    2**e isqrt(floor(x 4**(bits - e))) / 2**bits, where 4**e <= x < 4**(e + 1)."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return Fraction(0)
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    # floor(log2 x) is d or d - 1, and it is d exactly when p >= q 2**d
    d = p.bit_length() - q.bit_length()
    e = (d - (p < q << d if d >= 0 else p << -d < q)) >> 1
    s = 2 * (bits - e)
    root = isqrt((p << s) // q if s >= 0 else p // (q << -s))
    return Fraction(root << e, 1 << bits) if e >= 0 else Fraction(root, 1 << (bits - e))


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


# -- distances between integer simplices (squared, as quotients) ----------------


def point_edge_dist2(p, a, b):
    """Squared distance (num, den), den > 0, from integer point p to the
    segment ab."""
    ab, r = sub(b, a), sub(p, a)
    t, L = dot(r, ab), dot(ab, ab)
    if t <= 0:
        return dot(r, r), 1
    if t >= L:
        return dot(r, r) - 2 * t + L, 1
    return dot(r, r) * L - t * t, L


def line_dist2(p1, p2, q1, q2):
    """Squared distance (num, den) of the lines of two integer segments
    p1 + s d1 and q1 + t d2, when their closest points lie on both
    segments, else None.  With r = p1 - q1 and n = d1 x d2, the closest
    points are at s = (b f - c e) / |n|^2 and t = (a f - b c) / |n|^2,
    for a = d1.d1, b = d1.d2, e = d2.d2, c = d1.r and f = d2.r, and their
    squared distance is (r.n)^2 / |n|^2."""
    d1, d2, r = sub(p2, p1), sub(q2, q1), sub(p1, q1)
    n = cross(d1, d2)
    den = dot(n, n)
    if den == 0:
        return None
    a, b, e, c, f = dot(d1, d1), dot(d1, d2), dot(d2, d2), dot(d1, r), dot(d2, r)
    if not (0 <= b * f - c * e <= den and 0 <= a * f - b * c <= den):
        return None
    return dot(r, n) ** 2, den


def segment_dist2(p1, p2, q1, q2):
    """Squared distance (num, den) between two integer segments: the least
    of each endpoint's distance to the other segment and, when it applies,
    the distance of their lines (a convex quadratic over the parameter
    square has its minimum inside or on an edge of it)."""
    found = [point_edge_dist2(p1, q1, q2), point_edge_dist2(p2, q1, q2),
             point_edge_dist2(q1, p1, p2), point_edge_dist2(q2, p1, p2)]
    line = line_dist2(p1, p2, q1, q2)
    return least_quotient(found if line is None else found + [line])


def least_quotient(quotients):
    """The least of integer quotients (num, den) with den > 0."""
    return min(quotients, key=cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1]))


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


def _coplanar_conflict(t1, t2, shared, n):
    """How coplanar triangles, normal n, meet outside their shared corners, or None."""
    axis = dominant_axis(n)
    a1 = [drop_axis(p, axis) for p in t1]
    a2 = [drop_axis(p, axis) for p in t2]
    sh = [drop_axis(p, axis) for p in shared]

    if len(shared) == 2:
        e1, e2 = sh
        apex1 = next(p for p in a1 if p not in sh)
        apex2 = next(p for p in a2 if p not in sh)
        # neither is 0: DegenerateFace precedes, and dropping the dominant axis keeps area
        if orient2d(e1, e2, apex1) == orient2d(e1, e2, apex2):
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
    return (pa[0] - v[0]) * (qa[0] - v[0]) + (pa[1] - v[1]) * (qa[1] - v[1]) <= 0


# -- the integer embedding kernel --------------------------------------------------

# the rules that discharge a face pair, in the order first_conflict tries them
PAIR_RULES = ("coplanar", "one_side", "shared_edge", "shared_vertex", "orientation")
# the reasons first_conflict gives for pairs that are not coplanar
VERTEX_MEET = "faces meet beyond their shared vertex"
DISJOINT_MEET = "disjoint faces meet"


def scaled_to_integers(points):
    """The points times D, the least common multiple of their coordinate
    denominators, as integer triples; and D."""
    D = lcm(*(c.denominator for p in points for c in p))
    return [tuple(c.numerator * (D // c.denominator) for c in p) for p in points], D


def homogeneous_point(p: Vec) -> tuple[int, int, int, int]:
    """Integers (X, Y, Z, W) with p = (X/W, Y/W, Z/W), where W > 0 is the
    least common multiple of p's own coordinate denominators."""
    w = lcm(*(c.denominator for c in p))
    return tuple(c.numerator * (w // c.denominator) for c in p) + (w,)


def first_conflict(points, faces):
    """The first face pair (i, j), i < j, in row order whose triangles meet
    outside their shared simplex, as (i, j, reason), or None; and the
    number of pairs each rule of PAIR_RULES decided up to it.  The reason
    is ``_coplanar_conflict``'s for a coplanar pair, else VERTEX_MEET or
    DISJOINT_MEET by whether the faces share a corner.

    ``points`` are distinct ``homogeneous_point``s and ``faces`` triples of
    indices into them.  A face whose corners are collinear has the zero
    plane vector; the first such face in face order raises DegenerateFace,
    with its index triple, before any pair is decided.

    Row i is decided with bit masks over the faces (see the module
    docstring); its ``one_side`` pairs are counted by popcount, and only
    those below j when the row conflicts at j, so that ``discharged``
    counts exactly the pairs up to the first conflict.
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
    # bit j of a mask is face j
    holds, above, below = [0] * len(points), [0] * len(points), [0] * len(points)
    for j, f in enumerate(faces):
        for v in f:
            holds[v] |= 1 << j
    flat, apart = [], []  # per face i: the faces all on plane i, all strictly on one side
    for i, (_, signs) in enumerate(table):
        pos = neg = zero = 0  # the faces with a corner above, below, on plane i
        for v, s in enumerate(signs):
            if s > 0:
                pos |= holds[v]
                above[v] |= 1 << i
            elif s < 0:
                neg |= holds[v]
                below[v] |= 1 << i
            else:
                zero |= holds[v]
        flat.append(~(pos | neg))
        apart.append(~(zero | neg) | ~(zero | pos))
    full = (1 << len(faces)) - 1
    for i, fi in enumerate(faces):
        p, q, r = fi
        later = full ^ ((2 << i) - 1)
        one_side = later & (apart[i] | above[p] & above[q] & above[r]
                            | below[p] & below[q] & below[r])
        si = table[i][1]
        rest = later & ~one_side
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            fj = faces[j]
            common = sorted(vsets[i] & vsets[j])
            if flat[i] & low:
                rule = "coplanar"
                # just this pair's points, scaled to integers by their W
                vs = vsets[i] | vsets[j]
                m = lcm(*(points[v][3] for v in vs))
                at = {v: tuple(c * (m // points[v][3]) for c in points[v][:3]) for v in vs}
                reason = _coplanar_conflict(
                    tuple(at[v] for v in fi), tuple(at[v] for v in fj),
                    tuple(at[v] for v in common), table[i][0][:3])
            elif len(common) == 2:
                rule, reason = "shared_edge", None
            else:
                sj = table[j][1]
                on_i = (si[fj[0]], si[fj[1]], si[fj[2]])  # corners of j against plane i
                on_j = (sj[p], sj[q], sj[r])
                rule = "orientation"
                if not common:
                    meet = _triangles_meet(edges[i], on_j, edges[j], on_i)
                else:
                    # the edge opposite the shared corner k runs from corner
                    # k + 1 to k + 2; these are its side signs
                    ki, kj = fi.index(common[0]), fj.index(common[0])
                    si_opp = (on_i[(kj + 1) % 3], on_i[(kj + 2) % 3])
                    sj_opp = (on_j[(ki + 1) % 3], on_j[(ki + 2) % 3])
                    if _one_side(sj_opp) or _one_side(si_opp):
                        rule, meet = "shared_vertex", False
                    else:
                        meet = (_segment_meets(edges[i][(ki + 1) % 3], *sj_opp, edges[j])
                                or _segment_meets(edges[j][(kj + 1) % 3], *si_opp, edges[i]))
                reason = (VERTEX_MEET if common else DISJOINT_MEET) if meet else None
            discharged[rule] += 1
            if reason:
                discharged["one_side"] += (one_side & (low - 1)).bit_count()
                return (i, j, reason), discharged
        discharged["one_side"] += one_side.bit_count()
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


def _lone_corner(signs):
    """(k, s) for side signs against a plane, not all equal: s * signs[k]
    >= 0 >= s times each other sign, and s * signs[k] = 0 only when both
    others are nonzero, so corner k is alone on its side."""
    for k in range(3):
        sk, o, p = signs[k], signs[k - 2], signs[k - 1]
        if sk and o != sk and p != sk:
            return k, sk
        if not sk and o == p:
            return k, -o


_LONE = {(x, y, z): _lone_corner((x, y, z)) for x in (-1, 0, 1) for y in (-1, 0, 1)
         for z in (-1, 0, 1) if not x == y == z}


def _triangles_meet(ei, on_j, ej, on_i) -> bool:
    """Triangles i and j, not coplanar, with no common corner and neither
    strictly on one side of the other's plane, meet: the two-sign test of
    Guigue and Devillers (J. Graphics Tools 8(1), 2003).  ``ei``, ``ej``
    are their lines ab, bc, ca; ``on_j`` gives i's corners' sides of plane
    j, ``on_i`` j's of plane i.

    Each triangle is rotated to put its lone corner p first, and the other
    has q and r swapped where that puts p on the + side of its plane.
    They meet iff orient3d(p1, q1, p2, q2) <= 0 and orient3d(r1, p1, p2,
    r2) <= 0; the edges p1 q1, r1 p1, p2 q2 and p2 r2 are face edge lines,
    negated when reversed, so the signs are t * _orient(a, b) and
    -t * _orient(a2, b2) with t = s1 s2.
    """
    k1, s1 = _LONE[on_j]
    k2, s2 = _LONE[on_i]
    a, a2 = (ei[k1], ei[k1 - 1]) if s2 > 0 else (ei[k1 - 1], ei[k1])
    b, b2 = (ej[k2], ej[k2 - 1]) if s1 > 0 else (ej[k2 - 1], ej[k2])
    t = s1 * s2
    return not (t * _orient(a, b) > 0 or t * _orient(a2, b2) < 0)


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
    num, den = x.numerator, x.denominator
    sign = "-" if num < 0 else ""
    q = (abs(num) * 10 ** digits * 2 + den) // (2 * den)
    s = str(q).rjust(digits + 1, "0")
    if digits == 0:
        return sign + s
    return f"{sign}{s[:-digits]}.{s[-digits:]}"
