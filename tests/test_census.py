"""Census plumbing at fast sizes; the full n=9/10 runs live in acceptance."""

import pytest

from polytorus.census import (
    TimeBudgetExceeded,
    census_verify_theorem31,
    enumerate_tori,
    no_torus_below_seven,
)
from polytorus.errors import OutOfRange, PolytorusError
from polytorus.surfaces import canonical_form, validate_surface


def test_census_n7_unique(moebius):
    records = enumerate_tori(7, "a")
    assert len(records) == 1
    assert records[0].canonical_faces == canonical_form(moebius)
    assert (records[0].m, records[0].s) == (3, 3)
    assert records[0].equivelar
    assert records[0].automorphism_order == 42


def test_census_strategies_agree_n7_n8(census8):
    assert len(enumerate_tori(7, "b")) == 1
    b = enumerate_tori(8, "b")
    assert {r.canonical_faces for r in census8} == {r.canonical_faces for r in b}
    assert len(census8) == 7


def test_census_records_valid(census8):
    for rec in census8:
        rep = validate_surface(rec.canonical_faces)
        assert rep.euler == 0 and rep.orientable and rep.genus == 1
        assert rep.n_vertices == 8


def test_census_range_checked():
    with pytest.raises(OutOfRange):
        enumerate_tori(6)
    with pytest.raises(OutOfRange):
        enumerate_tori(12)


def test_census_unknown_strategy():
    with pytest.raises(PolytorusError, match="strategy 'c'; expected one of a, b"):
        enumerate_tori(7, "c")


def test_env_time_budget(monkeypatch):
    import polytorus.census as census_mod
    monkeypatch.delenv(census_mod.TIME_BUDGET_ENV, raising=False)
    assert census_mod._env_budget() is None
    for raw, seconds in (("", None), ("2.5", 2.5), ("1e3", 1000.0)):
        monkeypatch.setenv(census_mod.TIME_BUDGET_ENV, raw)
        assert census_mod._env_budget() == seconds
    for raw in ("abc", "nan", "inf", "-inf", "0", "-1"):
        monkeypatch.setenv(census_mod.TIME_BUDGET_ENV, raw)
        with pytest.raises(PolytorusError, match=census_mod.TIME_BUDGET_ENV):
            census_mod._env_budget()


def test_no_torus_below_seven():
    # 3n edges would exceed the n(n-1)/2 available for n <= 6
    for n in range(3, 7):
        assert no_torus_below_seven(n)
    assert not no_torus_below_seven(7)


def test_theorem31_k3(moebius):
    rep = census_verify_theorem31(3)
    assert rep.ok
    assert rep.minimal_count == 1
    assert rep.matches_generator


def test_time_budget():
    import polytorus.census as census_mod
    saved = dict(census_mod._CENSUS_CACHE)
    census_mod._CENSUS_CACHE.clear()
    try:
        with pytest.raises(TimeBudgetExceeded):
            enumerate_tori(10, "a", time_budget=0.05)
    finally:
        census_mod._CENSUS_CACHE.update(saved)
