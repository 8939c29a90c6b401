"""Closed polygons in 3-space with exact rational coordinates."""

from __future__ import annotations

from fractions import Fraction

from .errors import DegenerateKnot, ParseError, read_input
from .geometry import (
    Vec,
    collinear,
    coplanar,
    cross,
    is_zero,
    parse_rational,
    format_rational,
    point_segment_dist2,
    segment_segment_dist2,
    sub,
)


class StickKnot:
    """Closed polygon: vertex list, edges between cyclically consecutive
    vertices.  Consecutive edges must not be collinear."""

    def __init__(self, vertices):
        verts = tuple(tuple(Fraction(c) for c in v) for v in vertices)
        if len(verts) < 3:
            raise DegenerateKnot(f"polygon needs >= 3 vertices, got {len(verts)}")
        if len(set(verts)) != len(verts):
            raise DegenerateKnot("coincident vertices")
        k = len(verts)
        for i in range(k):
            a, b, c = verts[i - 1], verts[i], verts[(i + 1) % k]
            if is_zero(cross(sub(b, a), sub(c, b))):
                raise DegenerateKnot(f"consecutive edges collinear at vertex {i}")
        self.vertices: tuple[Vec, ...] = verts
        self.k = k

    def is_general_position(self) -> bool:
        """No 3 vertices collinear, no 4 coplanar."""
        v = self.vertices
        k = self.k
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

    def min_clearance_sq(self) -> Fraction:
        """Squared minimum of: distance between non-adjacent edges, and
        distance from a vertex to a non-incident edge.  Zero means the
        polygon is self-intersecting or touching."""
        v = self.vertices
        k = self.k
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

    def scaled(self, factor) -> "StickKnot":
        f = Fraction(factor)
        return StickKnot([tuple(c * f for c in v) for v in self.vertices])

    def __len__(self):
        return self.k

    def __eq__(self, other):
        return isinstance(other, StickKnot) and self.vertices == other.vertices

    def __repr__(self):
        return f"StickKnot(k={self.k})"


def triangle_unknot() -> StickKnot:
    return StickKnot([(0, 0, 0), (1, 0, 0), (0, 1, 0)])


def trefoil_6stick() -> StickKnot:
    """A 6-stick trefoil with small integer coordinates, in general position.

    Certified in the test suite: the projection diagrams from many generic
    directions all have knot determinant 3, and a 6-stick knot is either an
    unknot (determinant 1) or a trefoil.
    """
    return StickKnot(TREFOIL_6STICK_COORDS)


TREFOIL_6STICK_COORDS = [
    (6, 1, 1),
    (-1, 2, -1),
    (-2, -6, 1),
    (2, 0, -1),
    (-4, 5, 1),
    (-1, -2, -1),
]


def parse_stick_knot(text: str) -> StickKnot:
    verts = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(line_no, raw)
        try:
            verts.append(tuple(parse_rational(p) for p in parts))
        except (ValueError, ZeroDivisionError):
            raise ParseError(line_no, raw) from None
    return StickKnot(verts)


def format_stick_knot(K: StickKnot) -> str:
    lines = [" ".join(format_rational(c) for c in v) for v in K.vertices]
    return "\n".join(lines) + "\n"


def load_stick_knot(path) -> StickKnot:
    return parse_stick_knot(read_input(path))
