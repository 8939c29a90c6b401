"""Knot diagrams from exact projections: Gauss codes, determinants, linking.

A projection direction is *generic* when no two vertices coincide in the
image, no vertex lands on another strand, all strand crossings are proper
interior crossings, and no two crossings share a point.  All of this is
checked exactly, on the polygons and the projection frame scaled to
integers, so over/under decisions and crossing signs are integer signs,
never subject to rounding.

The knot determinant |Delta(-1)| is read off the Gauss code alone: the
arcs between consecutive under-passages are the columns of the
arc-colouring matrix, each crossing contributes the row 2*over - in - out,
and the absolute determinant of any first minor is the knot determinant.
No planar map of the projection is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DegenerateKnot, IntersectingCurves, NonGenericDirection
from .geometry import (
    Vec,
    cross,
    dot,
    is_zero,
    orient2d,
    perpendicular,
    point_on_segment_2d,
    scaled_to_integers,
    segment_dist2,
    sub,
)
from .knots import StickKnot

# deterministic generic-direction candidates
DIRECTION_SEQUENCE = [
    (3, 5, 7), (1, 2, 3), (2, -5, 11), (7, 3, -2), (5, 8, -13), (-4, 9, 2),
    (10, 1, 6), (3, -7, 8), (12, 5, 9), (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (9, -2, 5), (6, 11, -3), (-8, 3, 10), (4, 4, 1), (13, -6, 2), (2, 9, 14),
    (11, 7, -5), (1, -1, 4), (15, 2, 3), (3, 13, -8), (-2, 7, 9), (8, 1, 12),
    (5, -9, 3), (14, 6, 1), (7, 10, -11), (2, 3, 17), (-6, 5, 8), (9, 4, 7),
    (16, -3, 5), (4, 12, 13),
]


@dataclass(frozen=True)
class Crossing:
    over: tuple   # (component, segment, parameter)
    under: tuple
    sign: int     # orientation of (over direction, under direction)
    point: tuple  # exact 2D image


@dataclass
class KnotDiagram:
    crossings: list
    gauss_code: tuple
    projection_direction: Vec
    n_segments: int


def _simplify(points):
    """Drop vertices whose neighbors are collinear with them (3D), testing
    the points scaled to integers by the lcm of their denominators; the
    lowest-indexed one goes first, while more than three are left.  A
    removal changes only its two neighbours' tests, so one forward scan
    steps back to the previous vertex, or after the last one goes, tests
    vertex 0 and then the new last vertex."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    ints, _ = scaled_to_integers(pts)
    i, wrapped = 0, False  # wrapped: testing vertex 0 after the last vertex went
    while i < len(ints) and len(ints) > 3:
        a, b, c = ints[i - 1], ints[i], ints[(i + 1) % len(ints)]
        if is_zero(cross(sub(b, a), sub(c, b))):
            pts.pop(i)
            ints.pop(i)
            if i == len(ints):
                i, wrapped = 0, True
            elif not wrapped:
                i = max(i - 1, 0)
        elif wrapped:
            i, wrapped = len(ints) - 1, False
        else:
            i += 1
    return pts


class _Projection:
    """Exact planar image of one or more closed polygons, in integers: the
    points are scaled by D, the lcm of their denominators, and the frame
    (d, u, w) of ``direction`` by positive integers that clear its
    denominators, one factor for u and w together and one for d.  Crossing
    parameters are exact fractions of these integers; crossing points are
    divided back by ``scale`` into the image of the given frame."""

    def __init__(self, polys, direction):
        d = tuple(Fraction(c) for c in direction)
        if is_zero(d):
            raise NonGenericDirection("zero direction")
        self.direction = d
        g = lcm(*(c.denominator for c in d))
        d = tuple(c.numerator * (g // c.denominator) for c in d)
        u = perpendicular(d)
        u, w = tuple(g * c for c in u), cross(d, u)  # g^2 times the given u, w
        ints, D = scaled_to_integers([p for pts in polys for p in pts])
        self.scale = D * g * g
        self.img = []     # per component: list of (x, y), scale times the image
        self.height = []  # per component: list of heights along d, times D g
        for n in map(len, polys):
            pts, ints = ints[:n], ints[n:]
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
        # proper interior crossing: s = sn / denom and t = tn / denom
        dx1 = (p2[0] - p1[0], p2[1] - p1[1])
        dx2 = (q2[0] - q1[0], q2[1] - q1[1])
        denom = dx1[0] * dx2[1] - dx1[1] * dx2[0]
        rx, ry = q1[0] - p1[0], q1[1] - p1[1]
        sn = rx * dx2[1] - ry * dx2[0]
        tn = rx * dx1[1] - ry * dx1[0]
        h1 = self._height_at(ci, si, sn, denom)
        h2 = self._height_at(cj, sj, tn, denom)
        if h1 == h2:
            raise DegenerateKnot("curves intersect in space")
        s, t = Fraction(sn, denom), Fraction(tn, denom)
        den = denom * self.scale
        point = (Fraction(p1[0] * denom + sn * dx1[0], den),
                 Fraction(p1[1] * denom + sn * dx1[1], den))
        if (h1 > h2) == (denom > 0):
            over, under = (ci, si, s), (cj, sj, t)
            d_over, d_under = dx1, dx2
        else:
            over, under = (cj, sj, t), (ci, si, s)
            d_over, d_under = dx2, dx1
        sign_ = d_over[0] * d_under[1] - d_over[1] * d_under[0]
        return Crossing(over, under, 1 if sign_ > 0 else -1, point)

    def _height_at(self, ci, si, num, den):
        """den times the height at parameter num / den along segment si."""
        hs = self.height[ci]
        k = len(hs)
        return hs[si] * den + num * (hs[(si + 1) % k] - hs[si])


def project_diagram(K: StickKnot, direction=None) -> KnotDiagram:
    """Regular diagram of K along ``direction``, or along the first generic
    direction of DIRECTION_SEQUENCE when none is given (exact over/under
    data)."""

    def attempt(d):
        proj = _Projection([list(K.vertices)], d)
        return KnotDiagram(
            crossings=proj.crossings,
            gauss_code=_gauss_code(proj, 0),
            projection_direction=proj.direction,
            n_segments=K.k,
        )

    return _with_retries(attempt, direction)


def _gauss_code(proj: _Projection, comp: int):
    events = []
    for idx, c in enumerate(proj.crossings):
        for role, (ci, si, t) in (("o", c.over), ("u", c.under)):
            if ci == comp:
                events.append((si, t, idx, role))
    events.sort()
    ids = {}
    code = []
    for _, _, idx, role in events:
        if idx not in ids:
            ids[idx] = len(ids) + 1
        code.append(ids[idx] if role == "o" else -ids[idx])
    return tuple(code)


def _with_retries(fn, direction=None):
    """fn(direction) if a direction is given, else fn on the first generic
    direction of DIRECTION_SEQUENCE: NonGenericDirection moves on to the next."""
    if direction is not None:
        return fn(direction)
    last = None
    for d in DIRECTION_SEQUENCE:
        try:
            return fn(d)
        except NonGenericDirection as exc:
            last = exc
    raise NonGenericDirection(f"no generic direction found ({last})")


def _colouring_determinant(proj: _Projection) -> int:
    """|det| of a first minor of the arc-colouring matrix of the knot's
    Gauss code.  Arcs run between consecutive under-passages (the arc after
    the last one is arc 0 again); crossing c gives the row
    2*over - in - out, Alexander's relation at t = -1."""
    code = _gauss_code(proj, 0)
    n = len(code) // 2
    if n == 0:
        return 1
    rows = [[0] * n for _ in range(n)]
    arc = 0
    for c in code:
        row = rows[abs(c) - 1]
        if c > 0:
            row[arc % n] += 2
        else:
            row[arc % n] -= 1
            arc += 1
            row[arc % n] -= 1
    return abs(_int_det([row[:-1] for row in rows[:-1]]))


def _int_det(M) -> int:
    """Bareiss fraction-free determinant of an integer matrix."""
    n = len(M)
    if n == 0:
        return 1
    A = [row[:] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def knot_determinant(K: StickKnot, direction=None) -> int:
    """|H1| of the double branched cover: 1 for the unknot, 3 for the
    trefoil; always odd for knots."""
    return polygon_determinant(K.vertices, direction)


def polygon_determinant(points, direction=None) -> int:
    """knot_determinant for a raw closed polyline (collinear runs allowed)."""
    pts = _simplify(points)
    return _with_retries(lambda d: _colouring_determinant(_Projection([pts], d)), direction)


def linking_number(curve_a, curve_b, direction=None) -> int:
    """Half the signed count of inter-curve crossings in a generic
    projection.  Symmetric; raises IntersectingCurves when the polygons
    touch in space."""
    pa = _simplify(_points_of(curve_a))
    pb = _simplify(_points_of(curve_b))
    ka, kb = len(pa), len(pb)
    ints, _ = scaled_to_integers(pa + pb)
    ia, ib = ints[:ka], ints[ka:]
    for i in range(ka):
        for j in range(kb):
            if segment_dist2(ia[i], ia[(i + 1) % ka], ib[j], ib[(j + 1) % kb])[0] == 0:
                raise IntersectingCurves(f"curves touch near segments {i},{j}")

    def attempt(d):
        proj = _Projection([pa, pb], d)
        total = 0
        for c in proj.crossings:
            if c.over[0] != c.under[0]:
                total += c.sign
        if total % 2 != 0:
            raise NonGenericDirection("odd inter-curve crossing sum")
        return total // 2

    return _with_retries(attempt, direction)


def _points_of(curve):
    if isinstance(curve, StickKnot):
        return list(curve.vertices)
    return list(curve)
