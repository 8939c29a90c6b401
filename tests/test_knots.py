"""Stick knot validation and text I/O."""

import random
from fractions import Fraction

import pytest

from oracles import oracle_is_general_position, oracle_min_clearance_sq, point_segment_dist2
from polytorus.errors import DegenerateKnot, ParseError
from polytorus.geometry import parse_rational
from polytorus.knots import (
    StickKnot,
    format_stick_knot,
    load_stick_knot,
    parse_stick_knot,
    trefoil_6stick,
    triangle_unknot,
)
from test_realization import _seeded_general_position_knots


def test_triangle_valid():
    K = triangle_unknot()
    assert K.k == 3
    assert K.is_general_position()


def test_coincident_vertices_rejected():
    with pytest.raises(DegenerateKnot):
        StickKnot([(0, 0, 0), (1, 0, 0), (0, 0, 0)])


def test_collinear_consecutive_rejected():
    with pytest.raises(DegenerateKnot):
        StickKnot([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)])


def test_parse_rationals_exactly():
    K = parse_stick_knot("1/3 0.25 2\n0 1 0\n1 0 0\n")
    assert K.vertices[0] == (Fraction(1, 3), Fraction(1, 4), Fraction(2))


def test_decimal_exponents_bounded_by_the_int_digit_limit():
    assert parse_rational("1e4300") == 10 ** 4300
    assert parse_rational("-2E-4300") == Fraction(-2, 10 ** 4300)
    for token in ("1e4301", "1e-4301", "1e99999999"):
        with pytest.raises(ValueError, match="exponent"):
            parse_rational(token)


@pytest.mark.parametrize("token", ["1_0", "1_0.5", "2/1_0", "1e1_0", "\u0661\u0662"])
def test_digit_separators_and_non_ascii_digits_rejected(token):
    with pytest.raises(ValueError):
        parse_rational(token)
    with pytest.raises(ParseError) as exc:
        parse_stick_knot(f"0 0 0\n{token} 0 0\n0 1 0\n")
    assert exc.value.line_no == 2


def test_parse_error_carries_line():
    with pytest.raises(ParseError) as exc:
        parse_stick_knot("0 0 0\n1 0\n0 1 0\n")
    assert exc.value.line_no == 2


def test_load_rejects_non_utf8(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"0 0 0\n\xff 1 0\n")
    with pytest.raises(ParseError) as exc:
        load_stick_knot(path)
    assert exc.value.line_no == 2


def test_roundtrip():
    K = trefoil_6stick()
    assert parse_stick_knot(format_stick_knot(K)) == K


def test_trefoil_general_position():
    assert trefoil_6stick().is_general_position()


def test_clearance_scales_quadratically():
    K = triangle_unknot()
    assert K.scaled(2).min_clearance_sq() == 4 * K.min_clearance_sq()


def test_self_touching_polygon_rejected():
    quad = StickKnot([(0, 0, 0), (2, 0, 0), (2, 2, 1), (0, 2, -1)])
    assert quad.min_clearance_sq() > 0
    # planar bowtie: two non-adjacent edges cross at (1,0,0)
    with pytest.raises(DegenerateKnot):
        StickKnot([(0, 0, 0), (2, 0, 0), (1, 1, 0), (1, -1, 0)]).min_clearance_sq()


def _grid_polygons(count, seed):
    """Seeded polygons of 3 to 8 vertices, every other one on the grid of
    thirds and halves in [-2, 2]^3 and the rest on {-1, 0, 1}^3, which gives
    many collinear triples, coplanar quadruples, parallel sticks and
    touching sticks; those that StickKnot rejects are skipped."""
    rng = random.Random(seed)
    grids = (sorted({Fraction(n, d) for d in (1, 2, 3) for n in range(-2 * d, 2 * d + 1)}),
             (-1, 0, 1))
    out = []
    while len(out) < count:
        grid = grids[len(out) % 2]
        pts = [tuple(rng.choice(grid) for _ in range(3)) for _ in range(rng.randint(3, 8))]
        try:
            out.append(StickKnot(pts))
        except DegenerateKnot:
            continue
    return out


def _clearance(K, f):
    try:
        return f(K)
    except DegenerateKnot as exc:
        return str(exc)


def test_integer_clearance_and_general_position_match_fraction_oracles():
    """On seeded grid polygons, the trefoil scaled by 2/7 and the seeded
    general-position polygons, ``min_clearance_sq`` and
    ``is_general_position`` on integers over a common denominator return
    the Fraction oracles' values, or raise the same DegenerateKnot.  The
    grid polygons reach both outcomes of each, and clearances attained
    between two stick interiors as well as at a vertex."""
    knots = (_grid_polygons(400, 28) + [trefoil_6stick().scaled(Fraction(2, 7))]
             + _seeded_general_position_knots(40))
    outcomes = set()
    for K in knots:
        general = K.is_general_position()
        assert general == oracle_is_general_position(K)
        got = _clearance(K, StickKnot.min_clearance_sq)
        assert got == _clearance(K, oracle_min_clearance_sq)
        vertex = isinstance(got, Fraction) and any(
            point_segment_dist2(K.vertices[i], K.vertices[j], K.vertices[(j + 1) % K.k]) == got
            for i in range(K.k) for j in range(K.k))
        outcomes.add((general, type(got), vertex))
    assert {(True, Fraction), (False, Fraction), (False, str)} <= {o[:2] for o in outcomes}
    assert {(Fraction, True), (Fraction, False)} <= {o[1:] for o in outcomes}
