"""Census plumbing at fast sizes; the full n=9/10 runs live in acceptance."""

import copy
import dataclasses
import functools
import hashlib
import math
import os

import pytest
from oracles import (
    oracle_automorphisms,
    oracle_census,
    oracle_link_paths,
    oracle_max_degree_flags,
    oracle_start_flags,
)

import polytorus.census as census_mod
from polytorus.census import (
    TimeBudgetExceeded,
    census_verify_theorem31,
    enumerate_tori,
    no_torus_below_seven,
)
from polytorus.cycles import stick_number_and_type
from polytorus.errors import OutOfRange, PolytorusError
from polytorus.surfaces import (
    SimplicialTorus,
    _key_scan,
    _traverse_flag,
    canonical_form,
    validate_surface,
)


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


@pytest.mark.parametrize("strategy", ["a", "b"])
def test_time_budget(strategy):
    saved = dict(census_mod._CENSUS_CACHE)
    census_mod._CENSUS_CACHE.clear()
    try:
        with pytest.raises(TimeBudgetExceeded):
            enumerate_tori(10, strategy, time_budget=0.05)
    finally:
        census_mod._CENSUS_CACHE.update(saved)


# Strategy A's orientable completions before deduplication, as recorded from
# the DFS that built every completion, seeded at every minimum-degree flag,
# and filtered out the Klein bottles afterwards: count and sha256 of the
# sorted face lists, one per line.
ORIENTABLE_COMPLETIONS = {
    7: (2, "b62cf263c2cbc802914f6b490f137b27d06125494d89a089e85369197540a17a"),
    8: (31, "3d37f5ccefcc02b102b59f3b67d2ac341d7d90d3bcd9c2fc94c243fc8e533535"),
    9: (947, "c30bf0ac9239e1a6ea3ac7d554fae6abb87ddd005423fa87d738c99c1f74b482"),
}


# Strategy B's completions that pass the full validator, as recorded from the
# search that built every completion, Klein bottles and several-component
# links included, before its orientation rule, link screen and maximum-degree
# rule: count and sha256 of the sorted face lists, one per line.
STRATEGY_B_COMPLETIONS = {
    7: (2, "ecb3dabbbda97b23b99d6f7fcf5aff1ade29c9f75a4a760559c48a9e29313d9e"),
    8: (195, "227b1ffbb09719108c3eaec5be2c0ba0467a722a34cae93949e6bb68500cd0b8"),
    9: (8386, "a8614d19e33348a4a04f804408d2886be6922a9092e9af62378b612bd5e5cb82"),
}

# The same for the completions strategy B keeps under its maximum-degree
# rule (``_b_may_keep``).
STRATEGY_B_PRUNED = {
    7: (2, "ecb3dabbbda97b23b99d6f7fcf5aff1ade29c9f75a4a760559c48a9e29313d9e"),
    8: (20, "7342cd0a5f992cef3b521837852db11d4ad5abeab85e75793e86a3b7e6178c44"),
    9: (724, "5f749778edbb4ad79bdf6931f8e92ae876db3081e5cff5a7df66f99f93d9cda0"),
}


def _digest(face_lists):
    forms = sorted(tuple(sorted(tuple(sorted(f)) for f in faces)) for faces in face_lists)
    text = "\n".join(" ".join(f"{a},{b},{c}" for a, b, c in f) for f in forms)
    return len(forms), hashlib.sha256(text.encode()).hexdigest()


def _strategy_b_faces(n):
    return list(census_mod._generate_strategy_b(n, census_mod._Budget(None)))


@functools.cache
def _unpruned_strategy_b_faces(n):
    """Strategy B's completions with the maximum-degree rule switched off,
    searched once per n for the tests that read them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census_mod, "_b_may_keep", lambda link, closed, touched: True)
        return tuple(_strategy_b_faces(n))


def _assert_validated(raw, n, pin):
    assert _digest(raw) == pin
    for faces in raw:
        report = validate_surface(faces)
        assert (report.euler, report.orientable, report.n_vertices) == (0, True, n)


@pytest.mark.parametrize("n", sorted(STRATEGY_B_COMPLETIONS))
def test_strategy_b_yields_exactly_the_validated_completions(n):
    """With the maximum-degree rule switched off, every raw completion of
    strategy B passes the full validator, and they are exactly the
    validated completions of the unscreened search."""
    _assert_validated(_unpruned_strategy_b_faces(n), n, STRATEGY_B_COMPLETIONS[n])


@pytest.mark.parametrize("n", sorted(STRATEGY_B_PRUNED))
def test_strategy_b_keeps_the_recorded_pruned_completions(n):
    """Under the maximum-degree rule, every raw completion of strategy B
    passes the full validator, and they are the recorded ones."""
    _assert_validated(_strategy_b_faces(n), n, STRATEGY_B_PRUNED[n])


@pytest.mark.parametrize("n, count", [(7, 2), (8, 20), (9, 724)])
def test_max_degree_rule_yields_exactly_the_max_degree_flag_completions(n, count):
    """Strategy B's maximum-degree rule keeps exactly the unpruned
    completions whose flag (1, 2, 3) has vertex 1 of maximum degree and
    vertex 2 of maximum degree among vertex 1's neighbours, and as many as
    the classes' such flags divided by their automorphism orders."""
    def tori(face_lists):
        return [SimplicialTorus(faces, _skip_validation=True) for faces in face_lists]
    kept = sorted(T.faces for T in tori(_strategy_b_faces(n)))
    every = tori(_unpruned_strategy_b_faces(n))
    assert kept == sorted(T.faces for T in every if (1, 2, 3) in oracle_max_degree_flags(T))
    assert len(kept) == count == _flag_formula(enumerate_tori(n), oracle_max_degree_flags)


@pytest.mark.parametrize("n", [7, 8, 9])
def test_degree_sum_cut_keeps_every_strategy_b_completion(n, monkeypatch):
    """Strategy B with its degree-sum cut switched off finds the same
    completions, with its maximum-degree rule on and (n <= 8) off, and
    visits more nodes from n = 8 on (at n = 7 the cut drops none).  At
    every ``grow`` node the sum B keeps is the sum of max(deg u, 3) read
    off the links."""
    links = []

    def recording(link, closed, touched):
        links[:] = [link]
        return keep(link, closed, touched)

    def checked(total, n):
        if links:
            assert total == sum(max(len(adj), 3) for adj in links[0].values())
        return fit(total, n)

    def run():
        budget = census_mod._Budget(math.inf)  # counts every node
        return _digest(census_mod._generate_strategy_b(n, budget)), budget.counter

    keep, fit = census_mod._b_may_keep, census_mod._b_degrees_fit
    monkeypatch.setattr(census_mod, "_b_may_keep", recording)
    monkeypatch.setattr(census_mod, "_b_degrees_fit", checked)
    cut, cut_nodes = run()
    monkeypatch.setattr(census_mod, "_b_degrees_fit", lambda total, n: True)
    uncut, uncut_nodes = run()
    assert cut == uncut == STRATEGY_B_PRUNED[n]
    assert cut_nodes <= uncut_nodes and (cut_nodes < uncut_nodes) == (n > 7)
    if n <= 8:
        keep = lambda link, closed, touched: True  # noqa: E731
        assert run()[0] == STRATEGY_B_COMPLETIONS[n]


@pytest.mark.parametrize("index, change", [
    (3, lambda rec: dataclasses.replace(rec, automorphism_order=rec.automorphism_order + 1)),
    (3, lambda rec: dataclasses.replace(rec, equivelar=not rec.equivelar)),
    (5, lambda rec: None),
])
def test_counts_agree_names_the_first_differing_form(index, change, monkeypatch):
    records = enumerate_tori(8)
    assert census_mod.census_counts_agree(8) == (7, 7)
    real = census_mod.enumerate_tori

    def disagreeing(n, strategy="a", time_budget=None):
        got = real(n, strategy, time_budget)
        if strategy == "b":
            got[index] = change(got[index])
        return [r for r in got if r is not None]
    monkeypatch.setattr(census_mod, "enumerate_tori", disagreeing)
    with pytest.raises(PolytorusError, match="strategies disagree at n=8") as err:
        census_mod.census_counts_agree(8)
    assert f"first on {records[index].canonical_faces}:" in str(err.value)


def _directed(tri):
    a, b, c = tri
    return {(a, b), (b, c), (c, a)}


def _completion_faces(n):
    return sorted(T.faces for T, _ in census_mod._completions(n, "a", census_mod._Budget(None)))


def _every_seed(st, face=None):
    """The seed rule switched off: every node goes on, and a finished torus
    hands on all of its start pairs."""
    return True if face else census_mod._start_pairs(st.oe)


@pytest.mark.parametrize("n", sorted(ORIENTABLE_COMPLETIONS))
def test_pruned_dfs_yields_exactly_the_orientable_completions(n, monkeypatch):
    """With the seed rule accepting every flag, the orientation-pruned DFS
    against the unpruned one (recorded digest) and the full validator; its
    orientation is the validator's."""
    monkeypatch.setattr(census_mod, "_seed_may_start", _every_seed)
    tori = [T for T, _ in census_mod._completions(n, "a", census_mod._Budget(None))]
    assert _digest(T.faces for T in tori) == ORIENTABLE_COMPLETIONS[n]
    for T in tori:
        report = validate_surface(T.faces)
        assert (report.euler, report.orientable, report.n_vertices) == (0, True, n)
        assert T._oriented is not None
        handed = T.oriented_faces
        oracle = validate_surface(T.faces).oriented_faces
        assert [_directed(t) for t in handed] == [_directed(t) for t in oracle]


@pytest.mark.parametrize("n, strategy", [(7, "a"), (8, "a"), (9, "a"), (7, "b"), (8, "b")])
def test_class_torus_carries_the_completion_orientation(n, strategy, monkeypatch):
    """Every completion the census types reaches the type computation with
    an orientation equal, face by face, to the one the validator finds on
    its faces."""
    typed = []
    original = census_mod.stick_number_and_type

    def recording(T):
        typed.append((T, T._oriented))
        return original(T)
    monkeypatch.setattr(census_mod, "_CENSUS_CACHE", {})
    monkeypatch.setattr(census_mod, "stick_number_and_type", recording)
    records = enumerate_tori(n, strategy)
    assert len(typed) == len(records)
    for T, handed in typed:
        assert handed is not None
        oracle = validate_surface(T.faces).oriented_faces
        assert [_directed(t) for t in handed] == [_directed(t) for t in oracle]


@pytest.mark.parametrize("n, count", [(7, 2), (8, 15), (9, 252)])
def test_seed_rule_yields_exactly_the_start_flag_completions(n, count, monkeypatch):
    """The seed rule keeps exactly the completions whose seed flag (1, 2, 3)
    is a start flag of the key, and as many as the classes' start flags
    divided by their automorphism orders."""
    kept = _completion_faces(n)
    monkeypatch.setattr(census_mod, "_seed_may_start", _every_seed)
    every = [SimplicialTorus(faces, _skip_validation=True) for faces in _completion_faces(n)]
    assert kept == [T.faces for T in every if (1, 2, 3) in oracle_start_flags(T)]
    assert len(kept) == count == _flag_formula(enumerate_tori(n), oracle_start_flags)


@pytest.mark.parametrize("n, strategy", [
    *(pytest.param(n, "a", id=str(n)) for n in (7, 8, 9, 10)),
    *(pytest.param(n, "b", id=f"{n}-b") for n in (7, 8, 9))])
def test_orderly_acceptance_matches_key_dedup_oracle(n, strategy, monkeypatch):
    """Each strategy's records, each class accepted once, against the
    key-scan deduplication of every completion (``oracle_census``), record
    for record.  For n <= 9, each completion is accepted exactly when its
    seed flag (1, 2, 3) attains the least code over the flags the strategy
    keeps, and then with those flags' ties: for A the key scan's, for B the
    least of B's maximum-degree flags walked to the end, whose group, each
    tie read through the first, is the key scan's."""
    monkeypatch.setattr(census_mod, "_CENSUS_CACHE", {})
    assert enumerate_tori(n, strategy) == oracle_census(n, strategy)
    if n > 9:
        return
    for T, pairs in census_mod._completions(n, strategy, census_mod._Budget(None)):
        key_ties = _key_scan(T)[1]
        ties = census_mod._seed_ties(T, pairs)
        if strategy == "a":
            seed_is_tie = any(tie[1] == 1 and tie[2] == 2 and tie[3] == 3 for tie in key_ties)
            assert ties == (key_ties if seed_is_tie else None)
            continue
        flags = oracle_max_degree_flags(T)
        assert flags[0] == (1, 2, 3)
        walks = [_traverse_flag(T, flag) for flag in flags]
        least = min(code for code, _ in walks)
        assert ties == ([labels for code, labels in walks if code == least]
                        if walks[0][0] == least else None)
        if ties:
            assert _group(ties) == _group(key_ties)


def _group(ties):
    """The automorphisms of a tie list, each tie read through the first."""
    inv = {new: old for old, new in ties[0].items()}
    return {tuple(sorted((v, inv[new]) for v, new in tie.items())) for tie in ties}


def _flag_formula(records, flags_of):
    """The sum over classes of |flags_of(torus)| / |Aut|."""
    total = 0
    for rec in records:
        flags, rest = divmod(len(flags_of(rec.torus())), rec.automorphism_order)
        assert rest == 0
        total += flags
    return total


def _assert_links_match_faces(st):
    for v in range(1, st.n + 1):
        link, mates, closed = oracle_link_paths(st.faces, v)
        assert set(st.oe[v]) == link  # _start_pairs(st.oe) reads these keys
        assert (st.deg[v], st.nopen[v]) == (len(link), len(mates))
        assert (st.deg[v] > 0 and st.nopen[v] == 0) == closed
        assert {end: st.oe[v][end] for end in mates} == mates
    assert st.excess == sum(max(st.deg[v] - st.min_deg, 0) for v in range(1, st.n + 1))


def _assert_faces_are_not_legal_again(st):
    """``legal`` refuses each open edge's own face once the complex is more
    than that lone face (the proof in the ``_LinkState`` docstring)."""
    if len(st.faces) > 1:
        for a, b in st.open_edges:
            (x,) = {w for f in st.faces if a in f and b in f for w in f} - {a, b}
            assert not st.legal(a, b, x), (st.faces, (a, b, x))


def test_link_state_matches_its_faces_and_undo_restores_it(monkeypatch):
    """Through the whole n=8 strategy-A DFS: after every add, each vertex's
    degree, open-edge count, path-end pointers and closure match its link
    walked off the faces, the degree excess matches the degrees, ``legal``
    refuses the face on every open edge, and every undo restores every field
    to what it was before the matching add."""
    before = []

    class CheckedLinkState(census_mod._LinkState):
        def add(self, u, v, w):
            before.append(copy.deepcopy(vars(self)))
            rec = super().add(u, v, w)
            _assert_links_match_faces(self)
            _assert_faces_are_not_legal_again(self)
            return rec

        def undo(self, rec):
            super().undo(rec)
            assert vars(self) == before.pop()
    monkeypatch.setattr(census_mod, "_LinkState", CheckedLinkState)
    found = list(census_mod._generate_strategy_a(8, census_mod._Budget(None)))
    assert (len(found), before) == (15, [])


@pytest.mark.parametrize("n", [8, 9])
def test_degree_sum_cut_keeps_every_completion(n, monkeypatch):
    """Every completion ends with its degree excess at the cap n(6 - d),
    and the DFS with the cut switched off (the excess held at -inf) visits
    more nodes and finds the same completions, whether or not the seed rule
    filters them."""
    states = []

    class RecordedLinkState(census_mod._LinkState):
        def __init__(self, n, min_deg):
            super().__init__(n, min_deg)
            states.append(self)

    class UncutLinkState(census_mod._LinkState):
        # below any cap, and any count the cut adds to it
        excess = property(lambda self: -math.inf, lambda self, value: None)

    nodes = []
    dfs = census_mod._dfs_a

    def counted(st, *args):
        nodes.append(st)
        return dfs(st, *args)

    def run(state_class):
        monkeypatch.setattr(census_mod, "_LinkState", state_class)
        del nodes[:]
        found = []
        for faces, _ in census_mod._generate_strategy_a(n, census_mod._Budget(None)):
            if state_class is RecordedLinkState:
                assert states[-1].excess == n * (6 - states[-1].min_deg)
            found.append(faces)
        return _digest(found), len(nodes)

    monkeypatch.setattr(census_mod, "_dfs_a", counted)
    for seed_rule in (census_mod._seed_may_start, _every_seed):
        monkeypatch.setattr(census_mod, "_seed_may_start", seed_rule)
        cut, cut_nodes = run(RecordedLinkState)
        uncut, uncut_nodes = run(UncutLinkState)
        assert cut == uncut
        assert cut_nodes < uncut_nodes


@pytest.mark.parametrize("strategy", ["a", "b"])
def test_census_hands_over_the_key_scan_group(strategy, monkeypatch):
    """Every completion the census builds a record from for n <= 9 reaches
    the form scan with its acceptance's ties, whose group, each tie read
    through the first, equals the full-scan oracle's."""
    seen = []
    original = census_mod.canonical_form

    def recording(T, ties):
        seen.append((T, ties))
        return original(T, ties)

    monkeypatch.setattr(census_mod, "canonical_form", recording)
    monkeypatch.setattr(census_mod, "_CENSUS_CACHE", {})
    for n, count in ((7, 1), (8, 7), (9, 112)):
        del seen[:]
        by_form = {rec.canonical_faces: rec for rec in enumerate_tori(n, strategy)}
        assert len(seen) == len(by_form) == count
        for T, ties in seen:
            rec = by_form.pop(canonical_form(T))
            inv = {new: old for old, new in ties[0].items()}
            handed = [{v: inv[new] for v, new in tie.items()} for tie in ties]
            assert handed[0] == {v: v for v in range(1, n + 1)}
            got = {tuple(sorted(a.items())) for a in handed}
            assert len(got) == len(handed) == rec.automorphism_order
            assert got == {tuple(sorted(a.items())) for a in oracle_automorphisms(T)}


@pytest.mark.parametrize("n, strategy", [(7, "a"), (8, "a"), (9, "a"), (7, "b"), (8, "b")])
def test_records_match_their_form_torus(n, strategy, monkeypatch):
    """Each record, typed on the completion that found its class, gives the
    type, |Aut| and equivelar flag computed afresh on its form's torus."""
    monkeypatch.setattr(census_mod, "_CENSUS_CACHE", {})
    for rec in enumerate_tori(n, strategy):
        T = rec.torus()
        res = stick_number_and_type(T)
        assert (res.m, res.s) == (rec.m, rec.s)
        assert len(oracle_automorphisms(T)) == rec.automorphism_order
        assert (len({T.degree(v) for v in range(1, n + 1)}) == 1) == rec.equivelar


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("POLYTORUS_SLOW") != "1",
                    reason="the n=11 census takes minutes; set POLYTORUS_SLOW=1")
def test_census_published_counts_through_n11(monkeypatch):
    """Strategy A against the published counts for n = 7..11 (Lutz,
    arXiv:math/0506316), and strategy B against A at n = 11, under
    TORUS_TIME_BUDGET_SECS (default one hour) per run."""
    if not os.environ.get(census_mod.TIME_BUDGET_ENV):
        monkeypatch.setenv(census_mod.TIME_BUDGET_ENV, "3600")
    for n, count in zip(range(7, 11), (1, 7, 112, 2109)):
        assert len(enumerate_tori(n)) == count
    monkeypatch.setattr(census_mod, "_CENSUS_CACHE", {})
    calls, completions = [], 0
    accept = census_mod._seed_ties

    def counted(T, pairs):
        nonlocal completions
        completions += 1
        return accept(T, pairs)

    monkeypatch.setattr(census_mod, "_seed_ties", counted)
    records = enumerate_tori(11, progress=calls.append)
    assert len(records) == 37867
    assert calls == list(range(1, 37868))  # one progress call per class
    assert completions == _flag_formula(records, oracle_start_flags)
    assert census_mod.census_counts_agree(11) == (37867, 37867)
