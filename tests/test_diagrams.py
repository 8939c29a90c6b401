"""Projection diagrams, Gauss codes, determinants, linking numbers."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from oracles import FractionProjection, alexander_determinant, oracle_simplify
from test_realization import _seeded_general_position_knots

from polytorus.cycles import stick_number_and_type
from polytorus.diagrams import (
    DIRECTION_SEQUENCE,
    _colouring_determinant,
    _gauss_code,
    _Projection,
    _simplify,
    knot_determinant,
    linking_number,
    polygon_determinant,
    project_diagram,
)
from polytorus.errors import DegenerateKnot, IntersectingCurves, NonGenericDirection
from polytorus.knots import StickKnot, trefoil_6stick, triangle_unknot
from polytorus.realization import cyclic_polytope_realization

# star-shaped about the z-axis (strictly monotone angle, winding once),
# hence unknotted, but wildly non-planar: projections carry crossings of
# both signs
WIGGLY_UNKNOT = StickKnot([
    (5, 0, 0), (4, 3, 7), (1, 5, -3), (-3, 4, 5), (-5, 1, -6),
    (-4, -2, 4), (-2, -5, -2), (1, -6, 6), (4, -3, -5),
])


def test_planar_triangle_no_crossings():
    d = project_diagram(triangle_unknot(), (0, 0, 1))
    assert d.crossings == []
    assert d.gauss_code == ()


def test_direction_along_edge_rejected():
    K = triangle_unknot()
    with pytest.raises(NonGenericDirection):
        project_diagram(K, (1, 0, 0))  # parallel to the first edge
    # a direction given to the invariants is used as it is, never retried
    far = [(x + 5, y, z + 1) for x, y, z in K.vertices]
    for invariant in (lambda d: knot_determinant(K, d),
                      lambda d: polygon_determinant(K.vertices, d),
                      lambda d: linking_number(K, far, d)):
        with pytest.raises(NonGenericDirection):
            invariant((1, 0, 0))
        assert invariant(None) in (0, 1)


def test_trefoil_has_at_least_three_crossings():
    counts = []
    for d in DIRECTION_SEQUENCE[:6]:
        try:
            counts.append(len(project_diagram(trefoil_6stick(), d).crossings))
        except NonGenericDirection:
            continue
    assert counts and min(counts) >= 3


def test_gauss_code_structure():
    dg = project_diagram(trefoil_6stick(), (3, 5, 7))
    n = len(dg.crossings)
    assert len(dg.gauss_code) == 2 * n
    assert sorted(abs(x) for x in dg.gauss_code) == sorted(
        list(range(1, n + 1)) * 2)
    assert sum(1 for x in dg.gauss_code if x > 0) == n


def test_unknot_determinant_one_many_directions():
    dets = []
    for d in DIRECTION_SEQUENCE[:10]:
        try:
            dets.append(knot_determinant(WIGGLY_UNKNOT, d))
        except NonGenericDirection:
            continue
    assert len(dets) >= 6
    assert all(v == 1 for v in dets)


def test_triangle_determinant():
    assert knot_determinant(triangle_unknot()) == 1


def test_trefoil_determinant_direction_invariant():
    dets = []
    for d in DIRECTION_SEQUENCE[:8]:
        try:
            dets.append(knot_determinant(trefoil_6stick(), d))
        except NonGenericDirection:
            continue
    assert len(dets) >= 4
    assert all(v == 3 for v in dets)


def test_determinant_odd():
    for K in (triangle_unknot(), trefoil_6stick(), WIGGLY_UNKNOT):
        assert knot_determinant(K) % 2 == 1


def test_determinant_matches_alexander_oracle():
    for K in (trefoil_6stick(), WIGGLY_UNKNOT):
        checked = 0
        for d in DIRECTION_SEQUENCE[:8]:
            try:
                det = knot_determinant(K, d)
                alex = alexander_determinant(K.vertices, d)
            except NonGenericDirection:
                continue
            assert det == alex
            checked += 1
        assert checked >= 3


def _seeded_polygons(count):
    """Random integer polygons with positive clearance, from a fixed seed."""
    rng = random.Random(5)
    out = []
    while len(out) < count:
        k = rng.randint(5, 12)
        pts = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(k)]
        try:
            StickKnot(pts).min_clearance_sq()
        except DegenerateKnot:
            continue
        out.append(pts)
    return out


def test_determinants_match_recorded_region_colouring_values():
    # determinants of 60 seeded polygons in 8 directions each (None where
    # the direction is not generic), recorded from a Goeritz matrix of the
    # checkerboard-coloured regions of each projection
    values = []
    for pts in _seeded_polygons(60):
        for d in DIRECTION_SEQUENCE[:8]:
            try:
                values.append(polygon_determinant(pts, d))
            except NonGenericDirection:
                values.append(None)
    assert Counter(values) == {1: 436, 3: 15, 7: 7, None: 22}
    assert hashlib.sha256(json.dumps(values).encode()).hexdigest() == (
        "b568b5e0acd0720469bc65c4393d513a686db67ab680372e284afe7d8408dc54")


def test_linking_far_apart_squares_zero():
    a = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    b = [(10, 0, 5), (11, 0, 5), (11, 1, 5), (10, 1, 5)]
    assert linking_number(a, b) == 0


def test_linking_hopf_squares():
    a = [(-1, -1, 0), (1, -1, 0), (1, 1, 0), (-1, 1, 0)]
    b = [(0, 0, -1), (2, 0, -1), (2, 0, 1), (0, 0, 1)]
    lk = linking_number(a, b)
    assert abs(lk) == 1
    assert linking_number(b, a) == lk


def _diagram(projection, polys, d):
    """Crossings, the first component's Gauss code and, for a knot, the
    determinant of one projection, or the type and text of the exception it
    raises."""
    try:
        proj = projection(polys, d)
    except (NonGenericDirection, DegenerateKnot) as exc:
        return type(exc), str(exc)
    det = _colouring_determinant(proj) if len(polys) == 1 else None
    return proj.crossings, _gauss_code(proj, 0), det


def _projection_inputs():
    """The trefoil, the triangle unknot, ``WIGGLY_UNKNOT``, 40 seeded
    general-position polygons and the cyclic cores for k = 3..14."""
    knots = [K.vertices for K in [trefoil_6stick(), triangle_unknot(), WIGGLY_UNKNOT]
             + _seeded_general_position_knots(40)]
    for k in range(3, 15):
        mesh = cyclic_polytope_realization(k)
        knots.append(mesh.cycle_points(stick_number_and_type(mesh.complex).witness_s))
    return knots


def test_integer_simplify_matches_fraction_oracle():
    """``_simplify`` returns the Fraction oracle's points in its order on the
    projection inputs, on each with a point at 1/3 of every stick and a
    repeated vertex put in, and on each scaled by 2/7 with a midpoint at
    the closing stick."""
    removed = 0
    for pts in _projection_inputs():
        pts = [tuple(Fraction(c) for c in p) for p in pts]
        third = [q for a, b in zip(pts, pts[1:] + pts[:1])
                 for q in (a, tuple(x + (y - x) / 3 for x, y in zip(a, b)))]
        scaled = [tuple(c * Fraction(2, 7) for c in p) for p in pts]
        mid = tuple((x + y) / 2 for x, y in zip(scaled[-1], scaled[0]))
        for variant in (pts, third + [third[-1]], scaled + [mid]):
            got = _simplify(variant)
            assert got == oracle_simplify(variant), variant
            assert all(type(c) is Fraction for p in got for c in p)
            removed += len(variant) - len(got)
    assert removed > 0



@pytest.mark.parametrize("points, kept", [
    # fold-backs: a, b, a' on one line, the path reversing at b
    ([(0, 0, 0), (4, 0, 0), (2, 0, 0), (2, 3, 0), (0, 3, 0)], [0, 2, 3, 4]),
    ([(1, 0, 0), (3, 0, 0), (0, 0, 0), (0, 2, 0), (2, 2, 1)], [0, 2, 3, 4]),
    ([(4, 0, 0), (1, 0, 0), (1, 3, 0), (0, 3, 0), (2, 0, 0)], [1, 2, 3, 4]),
    # a run of five collinear points across the index 0 wrap
    ([(2, 0, 0), (3, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0), (0, 0, 0), (1, 0, 0)],
     [2, 3, 4, 5]),
    # a run of five across the wrap, reversing at two of its points
    ([(0, 0, 0), (3, 0, 0), (3, 3, 0), (0, 3, 1), (-1, 0, 0), (2, 0, 0), (1, 0, 0)],
     [1, 2, 3, 4]),
    # once the last point goes, a repeated point makes point 0 go too
    ([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 1), (0, 0, 0), (5, 5, 5)], [1, 2, 3, 4]),
    # every point on one line: the first ones go until three are left
    ([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0)], [2, 3, 4]),
])
def test_simplify_fold_backs_and_runs_across_the_wrap(points, kept):
    """The one-pass scan removes the Fraction oracle's vertices, the
    lowest-indexed first, where collinear runs and fold-backs cross the
    index 0 wrap."""
    got = _simplify(points)
    assert got == [tuple(Fraction(c) for c in points[i]) for i in kept]
    assert got == oracle_simplify(points)

def test_integer_projection_matches_fraction_oracle():
    """The integer projection finds the Fraction oracle's crossings (over,
    under, sign and point) and Gauss code, or raises the same exception
    with the same text, in every direction of DIRECTION_SEQUENCE, a
    rational direction and one along an edge of the triangle; determinants
    and Hopf linking numbers agree.  The cyclic cores and the rational
    direction scale the image by more than 1, so a crossing point not
    divided back, or a direction cut to integers, differs."""
    directions = DIRECTION_SEQUENCE + [(Fraction(3, 4), Fraction(-5, 6), Fraction(7, 10))]
    seen = Counter()
    for pts in _projection_inputs():
        pts = _simplify(pts)
        for d in directions + ([(1, 0, 0)] if len(pts) == 3 else []):
            got = _diagram(_Projection, [pts], d)
            assert got == _diagram(FractionProjection, [pts], d), (pts, d)
            if isinstance(got[0], list):
                seen["crossings"] += len(got[0])
            else:
                seen[got[0].__name__] += 1
    assert seen["crossings"] > 0 and seen["NonGenericDirection"] > 0, seen
    a = [(-1, -1, 0), (1, -1, 0), (1, 1, 0), (-1, 1, 0)]
    b = [(0, 0, -1), (2, 0, -1), (2, 0, 1), (0, 0, 1)]
    for d in directions:
        want = _diagram(FractionProjection, [a, b], d)
        assert _diagram(_Projection, [a, b], d) == want
        if isinstance(want[0], list):
            assert linking_number(a, b, d) == sum(
                c.sign for c in want[0] if c.over[0] != c.under[0]) // 2


def test_linking_rejects_touching_curves():
    a = [(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)]
    b = [(1, 0, 0), (3, 0, 1), (3, 1, -1)]
    with pytest.raises(IntersectingCurves):
        linking_number(a, b)
