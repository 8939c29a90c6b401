"""Exact predicates: distances, intersections, hull certificates."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from oracles import (
    is_hull_vertex,
    oracle_sqrt_floor,
    orient3d,
    plane_supports,
    point_in_hull,
    point_in_tetra,
    point_segment_dist2,
    segment_segment_dist2,
)
from polytorus.geometry import (
    PAIR_RULES,
    _one_side,
    _side_table,
    collinear,
    first_conflict,
    homogeneous_point,
    rational_to_decimal,
    reduce_direction,
    scaled_to_integers,
    segment_dist2,
    segments_intersect_2d,
    sqrt_floor,
    triangles_conflict,
)

F = Fraction


def vec(x, y, z):
    """An exact test point."""
    return (F(x), F(y), F(z))


def test_segment_distances_exact():
    # parallel unit segments one apart
    assert segment_segment_dist2(vec(0, 0, 0), vec(1, 0, 0),
                                 vec(0, 1, 0), vec(1, 1, 0)) == 1
    # crossing segments touch
    assert segment_segment_dist2(vec(0, 0, 0), vec(2, 2, 0),
                                 vec(0, 2, 0), vec(2, 0, 0)) == 0
    # skew segments
    d = segment_segment_dist2(vec(0, 0, 0), vec(2, 0, 0),
                              vec(1, -1, 3), vec(1, 1, 3))
    assert d == 9
    assert point_segment_dist2(vec(0, 0, 7), vec(-1, 0, 0), vec(1, 0, 0)) == 49


def test_integer_segment_distance_matches_fraction_oracle():
    """``segment_dist2`` on the segments scaled to integers is the Fraction
    oracle's squared distance times D^2: on seeded segment pairs on a grid
    of thirds and halves and on {-1, 0, 1}^3, which hold touching, crossing,
    parallel, collinear and point-like segments, and pairs whose closest
    points lie inside both segments."""
    rng = random.Random(28)
    grids = ([F(n, d) for d in (1, 2, 3) for n in range(-2 * d, 2 * d + 1)], (-1, 0, 1))
    kinds = set()
    for m in range(3000):
        seg = [tuple(F(rng.choice(grids[m % 2])) for _ in range(3)) for _ in range(4)]
        ints, D = scaled_to_integers(seg)
        num, den = segment_dist2(*ints)
        want = segment_segment_dist2(*seg)
        assert F(num, den * D * D) == want, seg
        kinds.add((want == 0, den > 1))
    assert kinds == {(True, False), (True, True), (False, False), (False, True)}


def test_sqrt_floor_bounds():
    for x in (F(2), F(1, 3), F(10**12), F(1, 10**18), F(9)):
        r = sqrt_floor(x, 50)
        assert r * r <= x
        assert (r + F(1, 2**45)) ** 2 > x or r == 0


def test_sqrt_floor_matches_loop_oracle():
    """``sqrt_floor`` reads its power-of-4 exponent off the bit lengths and
    returns the oracle's value, which finds it one factor of 4 at a time:
    on seeded rationals from 2**-4000 to 2**4000, on powers of 4 and of 2,
    and just above and below the powers of 4, at 30, 40, 48 and 64 bits."""
    rng = random.Random(28)
    xs = []
    for _ in range(60):
        e = rng.randint(-4000, 4000)
        x = F(rng.getrandbits(rng.randint(1, 90)) + 1, rng.getrandbits(rng.randint(1, 90)) + 1)
        xs.append(x * F(2) ** e)
    for e in list(range(-12, 13)) + [-2001, -1000, -333, 334, 999, 2000]:
        x = F(4) ** e
        xs += [x, 2 * x, x * (1 + F(1, 2 ** 300)), x * (1 - F(1, 2 ** 300)),
               x + F(1, 2 ** 9000), x - F(1, 2 ** 9000)]
    for x in xs:
        for bits in (30, 40, 48, 64):
            assert sqrt_floor(x, bits) == oracle_sqrt_floor(x, bits), (x, bits)


def test_segments_intersect_2d_degenerate():
    # collinear but disjoint segments, aligned endpoints
    assert not segments_intersect_2d((0, 0), (1, 0), (2, 0), (3, 0))
    assert segments_intersect_2d((0, 0), (2, 0), (1, 0), (3, 0))
    # shared endpoint only
    assert segments_intersect_2d((0, 0), (1, 0), (1, 0), (1, 1))
    # the earlier false positive: touching lines but disjoint segments
    assert not segments_intersect_2d((0, 0), (1, 0), (2, 0), (4, 2))


def test_triangles_sharing_edge_ok():
    t1 = (vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0))
    t2 = (vec(0, 0, 0), vec(1, 0, 0), vec(0, -1, 1))
    assert triangles_conflict(t1, t2, (vec(0, 0, 0), vec(1, 0, 0))) is None


def test_coplanar_triangles_sharing_edge_overlap():
    t1 = (vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0))
    t2 = (vec(0, 0, 0), vec(1, 0, 0), vec(1, 1, 0))  # same side apexes
    assert triangles_conflict(t1, t2, (vec(0, 0, 0), vec(1, 0, 0))) is not None
    t3 = (vec(0, 0, 0), vec(1, 0, 0), vec(1, -1, 0))
    assert triangles_conflict(t1, t3, (vec(0, 0, 0), vec(1, 0, 0))) is None


def test_disjoint_triangles_piercing():
    t1 = (vec(0, 0, 0), vec(4, 0, 0), vec(0, 4, 0))
    t2 = (vec(1, 1, -1), vec(1, 1, 1), vec(3, 3, 1))
    assert triangles_conflict(t1, t2, ()) is not None
    t3 = (vec(0, 0, 5), vec(4, 0, 5), vec(0, 4, 5))
    assert triangles_conflict(t1, t3, ()) is None


def test_shared_vertex_only():
    t1 = (vec(0, 0, 0), vec(2, 0, 0), vec(0, 2, 0))
    t2 = (vec(0, 0, 0), vec(-2, 0, 1), vec(0, -2, 1))
    assert triangles_conflict(t1, t2, (vec(0, 0, 0),)) is None
    # same shared vertex but overlapping beyond it
    t3 = (vec(0, 0, 0), vec(2, 1, 0), vec(1, 2, 0))
    assert triangles_conflict(t1, t3, (vec(0, 0, 0),)) is not None


def test_hull_certificates():
    """The oracle's Carathéodory predicates, and the side table: its signs
    are orient3d's and its supporting planes the oracle's."""
    pts = [vec(0, 0, 0), vec(2, 0, 0), vec(0, 2, 0), vec(0, 0, 2),
           vec(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))]
    assert all(is_hull_vertex(pts, i) for i in range(4))
    assert not is_hull_vertex(pts, 4)
    assert point_in_hull(vec(1, 0, 0), pts)
    assert not point_in_hull(vec(-1, 0, 0), pts)
    assert point_in_tetra(vec(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
                          *pts[:4])
    tri = (pts[0], pts[1], pts[2])
    assert plane_supports(pts[:4], tri)
    # a plane through the interior point cuts the tetrahedron
    inner = (pts[0], pts[1], pts[4])
    assert not plane_supports(pts, inner)
    triples = list(combinations(range(5), 3)) + [(0, 0, 1)]
    table = _side_table([homogeneous_point(p) for p in pts], triples)
    for (a, b, c), (plane, signs) in zip(triples, table):
        assert signs == [orient3d(pts[a], pts[b], pts[c], p) for p in pts]
        supports = any(plane) and not (1 in signs and -1 in signs)
        assert supports == plane_supports(pts, (pts[a], pts[b], pts[c]))
    assert table[triples.index((0, 1, 2))][1] == [0, 0, 0, 1, 1]
    assert not any(table[-1][0])


def test_reduce_direction():
    """The shortest integer vector along a, by a positive factor."""
    assert reduce_direction(vec(F(1, 2), F(-1, 3), 2)) == (3, -2, 12)
    assert reduce_direction(vec(6, -4, 24)) == (3, -2, 12)
    assert reduce_direction(vec(F(-3, 4), 0, F(9, 8))) == (-2, 0, 3)
    assert reduce_direction(vec(0, F(5, 7), 0)) == (0, 1, 0)
    assert reduce_direction(vec(0, 0, 0)) == (0, 0, 0)
    assert all(type(c) is F for c in reduce_direction(vec(F(1, 2), 1, 0)))


def test_orient3d_signs():
    assert orient3d(vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)) == 1
    assert orient3d(vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, -1)) == -1
    assert orient3d(vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0), vec(1, 1, 0)) == 0


def test_rational_to_decimal():
    assert rational_to_decimal(F(1, 4), 3) == "0.250"
    assert rational_to_decimal(F(-1, 3), 6) == "-0.333333"
    assert rational_to_decimal(F(2, 3), 2) == "0.67"
    assert rational_to_decimal(F(5), 0) == "5"
    with pytest.raises(ValueError):
        rational_to_decimal(F(1, 4), -2)


def test_conflict_verdict_invariant_under_rational_motions():
    """Scaling, translating, and permuting coordinates never changes the
    intersection verdict."""
    import random

    from polytorus.geometry import sub as vsub

    random.seed(23)

    def rnd():
        return F(random.randint(-8, 8), random.choice((1, 2, 3)))

    def tri():
        return tuple((rnd(), rnd(), rnd()) for _ in range(3))

    def transform(t, lam, off, perm):
        return tuple(tuple(lam * p[perm[i]] + off[i] for i in range(3)) for p in t)

    checked = 0
    for _ in range(60):
        t1, t2 = tri(), tri()
        try:
            base = triangles_conflict(t1, t2, ()) is not None
        except ZeroDivisionError:
            continue
        lam = F(random.randint(1, 5), random.randint(1, 3))
        off = (rnd(), rnd(), rnd())
        perm = random.choice(([0, 1, 2], [1, 2, 0], [2, 0, 1]))
        try:
            moved = triangles_conflict(transform(t1, lam, off, perm),
                                       transform(t2, lam, off, perm), ()) is not None
        except ZeroDivisionError:
            continue
        assert moved == base
        checked += 1
    assert checked >= 40


POINT = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
# every point in the plane z = 0: coplanar pairs
FLAT_POINT = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.just(0))


@st.composite
def triangle_pairs(draw):
    """Two non-degenerate triangles on a 5x5x5 grid sharing 0, 1 or 2
    corners, as (points, the second face's indices into them); the first
    face is (0, 1, 2).  The small grid makes corners on the other plane,
    touching edges and coplanar pairs common."""
    point = draw(st.sampled_from((POINT, POINT, POINT, FLAT_POINT)))
    t1 = draw(st.lists(point, min_size=3, max_size=3, unique=True))
    assume(not collinear(*(vec(*p) for p in t1)))
    n_shared = draw(st.sampled_from((0, 0, 1, 1, 2)))
    keep = draw(st.permutations(range(3)))[:n_shared]
    new = draw(st.lists(point.filter(lambda p: p not in t1), min_size=3 - n_shared,
                        max_size=3 - n_shared, unique=True))
    points = t1 + new
    face = tuple(sorted(list(keep) + [3 + m for m in range(len(new))]))
    assume(not collinear(*(vec(*points[v]) for v in face)))
    return points, face


@settings(max_examples=600, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(triangle_pairs())
def test_kernel_matches_triangles_conflict(case):
    """The integer kernel's verdict on one face pair is the rational test's."""
    points, face = case
    t1 = tuple(vec(*points[v]) for v in (0, 1, 2))
    t2 = tuple(vec(*points[v]) for v in face)
    shared = tuple(vec(*points[v]) for v in sorted(set(face) & {0, 1, 2}))
    expected = triangles_conflict(t1, t2, shared) is not None
    pair, discharged = first_conflict([homogeneous_point(vec(*p)) for p in points],
                                      [(0, 1, 2), face])
    assert (pair is not None) == expected
    assert sum(discharged.values()) == 1 and set(discharged) == set(PAIR_RULES)


@st.composite
def rational_triangle_pairs(draw):
    """A ``triangle_pairs`` case with each grid point divided by its own
    denominator, so that the points' W differ from point to point."""
    points, face = draw(triangle_pairs())
    dens = draw(st.lists(st.sampled_from((1, 2, 3, 5, 7)), min_size=len(points),
                         max_size=len(points)))
    pts = [vec(*(F(c, d) for c in p)) for p, d in zip(points, dens)]
    assume(len(set(pts)) == len(pts))
    assume(not collinear(*pts[:3]) and not collinear(*(pts[v] for v in face)))
    return pts, face


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(rational_triangle_pairs())
def test_kernel_matches_triangles_conflict_on_rational_points(case):
    """The kernel's verdict on homogeneous points with unequal W is the
    rational test's."""
    pts, face = case
    shared = tuple(pts[v] for v in sorted(set(face) & {0, 1, 2}))
    expected = triangles_conflict(pts[:3], tuple(pts[v] for v in face), shared) is not None
    pair, _ = first_conflict([homogeneous_point(p) for p in pts], [(0, 1, 2), face])
    assert (pair is not None) == expected


def test_two_sign_test_reaches_every_side_sign_triple():
    """Seeded pairs of disjoint triangles on the 3x3x3 or the 5x5x5 grid,
    some points divided by 2 or 3 so that their W exceed 1, not coplanar and
    neither strictly on one side of the other's plane: each of the 24 side
    sign triples that reach the two-sign test occurs for each triangle, and
    every verdict is the rational test's."""
    rng = random.Random(2003)
    seen_i, seen_j = set(), set()
    met = 0
    for _ in range(2500):
        while True:
            r = rng.choice((1, 2))
            pts = [tuple(F(rng.randint(-r, r), rng.choice((1, 1, 2, 3))) for _ in range(3))
                   for _ in range(6)]
            if len(set(pts)) < 6 or collinear(*pts[:3]) or collinear(*pts[3:]):
                continue
            points = [homogeneous_point(p) for p in pts]
            (_, si), (_, sj) = _side_table(points, [(0, 1, 2), (3, 4, 5)])
            on_i, on_j = tuple(si[3:]), tuple(sj[:3])
            if on_i != (0, 0, 0) and not _one_side(on_i) and not _one_side(on_j):
                break
        pair, discharged = first_conflict(points, [(0, 1, 2), (3, 4, 5)])
        assert discharged["orientation"] == 1
        expected = triangles_conflict(pts[:3], pts[3:], ()) is not None
        assert (pair is not None) == expected, pts
        met += expected
        seen_i.add(on_i)
        seen_j.add(on_j)
    assert len(seen_i) == len(seen_j) == 24
    assert 500 <= met <= 2000, met
