"""Knot diagrams from exact projections: Gauss codes, determinants, linking.

A projection direction is *generic* when no two vertices coincide in the
image, no vertex lands on another strand, all strand crossings are proper
interior crossings, and no two crossings share a point.  All of this is
checked exactly, so over/under decisions and crossing signs are never
subject to rounding.

The knot determinant is the absolute determinant of a Goeritz matrix: the
projected curve cuts the plane into regions, the regions are checkerboard
coloured, and each crossing contributes +-1 between the two regions of one
colour class according to which pair of opposite sectors they occupy
relative to the under-strand.  Either colour class yields the same absolute
value, as does any consistent sector convention, which keeps the
computation free of figure-matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from .errors import DegenerateKnot, IntersectingCurves, NonGenericDirection
from .geometry import (
    Vec,
    cross,
    dot,
    is_zero,
    orient2d,
    point_on_segment_2d,
    segment_segment_dist2,
    sub,
    vec,
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
MAX_DIRECTION_RETRIES = 32


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


def _projection_frame(direction: Vec):
    d = tuple(Fraction(c) for c in direction)
    if is_zero(d):
        raise NonGenericDirection("zero direction")
    for axis in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        u = cross(d, vec(*axis))
        if not is_zero(u):
            break
    w = cross(d, u)
    return d, u, w


def _simplify(points):
    """Drop vertices whose neighbors are collinear with them (3D)."""
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


class _Projection:
    """Exact planar image of one or more closed polygons."""

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

    def seg_dir(self, comp, i):
        a, b = self.seg(comp, i)
        return (b[0] - a[0], b[1] - a[1])

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


def project_diagram(K: StickKnot, direction) -> KnotDiagram:
    """Regular diagram of K along ``direction`` (exact over/under data)."""
    proj = _Projection([list(K.vertices)], direction)
    code = _gauss_code(proj, 0)
    return KnotDiagram(
        crossings=proj.crossings,
        gauss_code=code,
        projection_direction=proj.direction,
        n_segments=K.k,
    )


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
    for d in DIRECTION_SEQUENCE[:MAX_DIRECTION_RETRIES]:
        try:
            return fn(d)
        except NonGenericDirection as exc:
            last = exc
    raise NonGenericDirection(f"no generic direction found ({last})")


# -- planar map of the projected curve(s) ---------------------------------------


def _angle_cmp(a, b):
    """Counterclockwise comparison of nonzero 2D vectors."""
    ha = 0 if (a[1] > 0 or (a[1] == 0 and a[0] > 0)) else 1
    hb = 0 if (b[1] > 0 or (b[1] == 0 and b[0] > 0)) else 1
    if ha != hb:
        return -1 if ha < hb else 1
    cr = a[0] * b[1] - a[1] * b[0]
    if cr > 0:
        return -1
    if cr < 0:
        return 1
    return 0


class _PlanarMap:
    """Faces of the projected curves, with per-sector face lookup."""

    def __init__(self, proj: _Projection):
        self.proj = proj
        crossings = proj.crossings
        if not crossings:
            raise ValueError("planar map needs at least one crossing")
        # passages along each component, in curve order
        passages = {}  # component -> sorted list of (seg, t, crossing idx, role)
        for idx, c in enumerate(crossings):
            for role, (ci, si, t) in (("o", c.over), ("u", c.under)):
                passages.setdefault(ci, []).append((si, t, idx, role))
        for ci in passages:
            passages[ci].sort()
        self.passages = passages

        # arcs between consecutive passages; each arc yields two half-edges
        # (arc id, 0) from its start passage and (arc id, 1) from its end
        self.arcs = []
        half_at = {}  # crossing idx -> list of (ray, half-edge)
        for ci, plist in passages.items():
            npass = len(plist)
            for a in range(npass):
                si, t, idx, role = plist[a]
                sj, t2, idx2, role2 = plist[(a + 1) % npass]
                arc_id = len(self.arcs)
                self.arcs.append((ci, (si, t, idx, role), (sj, t2, idx2, role2)))
                d_start = proj.seg_dir(ci, si)
                d_end = proj.seg_dir(ci, sj)
                half_at.setdefault(idx, []).append((d_start, (arc_id, 0)))
                half_at.setdefault(idx2, []).append(
                    ((-d_end[0], -d_end[1]), (arc_id, 1)))

        # counterclockwise rotation of the four half-edges at each crossing
        self.next_ccw = {}
        for idx, items in half_at.items():
            if len(items) != 4:
                raise NonGenericDirection(f"crossing {idx} with {len(items)} ends")
            items.sort(key=cmp_to_key(lambda x, y: _angle_cmp(x[0], y[0])))
            for i, (_, h) in enumerate(items):
                self.next_ccw[h] = items[(i + 1) % 4][1]
        self.ray_of = {}
        for idx, items in half_at.items():
            for ray, h in items:
                self.ray_of[h] = (idx, ray)

        # face orbits: follow an arc to its far end, then turn to the next
        # half-edge clockwise (= three ccw steps) at the far crossing
        def twin(h):
            return (h[0], 1 - h[1])

        def nxt(h):
            t = twin(h)
            return self.next_ccw[self.next_ccw[self.next_ccw[t]]]

        self.face_of = {}
        faces = 0
        for h in list(self.next_ccw):
            if h in self.face_of:
                continue
            cur = h
            while cur not in self.face_of:
                self.face_of[cur] = faces
                cur = nxt(cur)
            faces += 1
        self.n_faces = faces
        n_cross = len(crossings)
        n_arcs = len(self.arcs)
        if n_cross - n_arcs + faces != 2:
            raise NonGenericDirection(
                f"projection not a planar map: V={n_cross} E={n_arcs} F={faces}")

        # checkerboard colouring: adjacent faces differ
        self.colour = self._checkerboard()

    def _checkerboard(self):
        adj = {}
        for arc_id in range(len(self.arcs)):
            f1 = self.face_of[(arc_id, 0)]
            f2 = self.face_of[(arc_id, 1)]
            adj.setdefault(f1, set()).add(f2)
            adj.setdefault(f2, set()).add(f1)
        colour = {0: 0}
        stack = [0]
        while stack:
            f = stack.pop()
            for g in adj.get(f, ()):
                if g not in colour:
                    colour[g] = 1 - colour[f]
                    stack.append(g)
                elif colour[g] == colour[f]:
                    raise NonGenericDirection("faces not two-colourable")
        return colour

    def sector_face(self, crossing_idx, ray):
        """Face of the sector swept counterclockwise from ``ray``."""
        items = [(r, h) for h, (idx, r) in self.ray_of.items() if idx == crossing_idx]
        items.sort(key=cmp_to_key(lambda x, y: _angle_cmp(x[0], y[0])))
        pos = next(i for i, (r, _) in enumerate(items)
                   if r[0] * ray[1] == r[1] * ray[0]
                   and r[0] * ray[0] + r[1] * ray[1] > 0)
        # the sector between this ray and the next ccw one belongs to the
        # face of the half-edge along this ray when faces are traversed with
        # the sector on their left; either consistent choice works, which the
        # alternating-colour assertion below guards
        return self.face_of[items[pos][1]]


def _goeritz_determinant(proj: _Projection) -> int:
    if not proj.crossings:
        return 1
    pm = _PlanarMap(proj)
    # sector colours around each crossing must alternate
    white_pairs = []
    for idx, c in enumerate(proj.crossings):
        ci, si, _ = c.under
        du = proj.seg_dir(ci, si)
        rays = [du, (-du[0], -du[1])]
        co, so, _ = c.over
        do = proj.seg_dir(co, so)
        rays += [do, (-do[0], -do[1])]
        f_sectors = [pm.sector_face(idx, r) for r in rays]
        cols = [pm.colour[f] for f in f_sectors]
        if cols[0] != cols[1] or cols[2] != cols[3] or cols[0] == cols[2]:
            raise NonGenericDirection("sector colours fail to alternate")
        # sectors ccw-adjacent to the under-strand rays share one colour;
        # call the crossing positive when that colour is colour 0, and pair
        # the two colour-0 sectors
        if cols[0] == 0:
            eta, pair = 1, (f_sectors[0], f_sectors[1])
        else:
            eta, pair = -1, (f_sectors[2], f_sectors[3])
        white_pairs.append((pair[0], pair[1], eta))

    whites = sorted({f for f, col in pm.colour.items() if col == 0})
    index = {f: i for i, f in enumerate(whites)}
    size = len(whites)
    G = [[0] * size for _ in range(size)]
    for fa, fb, eta in white_pairs:
        ia, ib = index[fa], index[fb]
        if ia == ib:
            continue
        G[ia][ib] -= eta
        G[ib][ia] -= eta
    for i in range(size):
        G[i][i] = -sum(G[i][j] for j in range(size) if j != i)
    minor = [row[1:] for row in G[1:]]
    return abs(_int_det(minor))


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
    return _with_retries(lambda d: _goeritz_determinant(_Projection([pts], d)), direction)


def linking_number(curve_a, curve_b, direction=None) -> int:
    """Half the signed count of inter-curve crossings in a generic
    projection.  Symmetric; raises IntersectingCurves when the polygons
    touch in space."""
    pa = _simplify(_points_of(curve_a))
    pb = _simplify(_points_of(curve_b))
    ka, kb = len(pa), len(pb)
    for i in range(ka):
        for j in range(kb):
            d = segment_segment_dist2(pa[i], pa[(i + 1) % ka], pb[j], pb[(j + 1) % kb])
            if d == 0:
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
