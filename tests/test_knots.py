"""Stick knot validation and text I/O."""

from fractions import Fraction

import pytest

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
