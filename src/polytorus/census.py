"""Exhaustive isomorph-free enumeration of small torus triangulations.

Two independent generation strategies back each other up:

* strategy A (default): depth-first completion of the lexicographically
  smallest open edge, seeded by the link of a minimum-degree vertex labelled
  (2, 3, ..., d+1), with incremental pseudomanifold bookkeeping (open and
  full edges, and per vertex its open-edge count and the ends of its link
  paths, undone through one write log), first-use label ordering and a
  coherent orientation, which prunes Klein bottles before they are built.
  It also prunes by counting: open edges against the faces left, and the
  degree sum, which cannot pass 6n once every vertex is held to the seed
  degree (kept incrementally as ``excess``).  It keeps only completions
  whose seed flag (1, 2, 3) is a start flag of the key, so it builds each
  class once per Aut-orbit of those flags;

* strategy B (cross-check): closes the link of the smallest unfinished
  vertex in all admissible cyclic orders, with its own link bookkeeping
  (per-vertex link adjacency kept as faces come and go), its own coherent
  orientation rule, which never builds a Klein bottle, a screen that drops
  a link with a closed cycle beside its open paths, and a cut by the sum of
  max(degree, 3), which cannot pass 6n.  It keeps only completions where
  vertex 1 has the maximum degree and vertex 2 the maximum degree among
  vertex 1's neighbours, a rule A does not use, so it builds each class
  once per Aut-orbit of those flags.  Its search shares no code with A, and
  every completion still goes through the full surface validator.

Both accept a completion exactly when its seed flag attains the least
visit-order code over the flags the strategy keeps (orderly acceptance,
``_seed_ties``); A keeps the start flags of ``surfaces``' canonical key.
The flags attaining the code are one Aut-orbit, so each class is accepted
once, with no state shared between branches of the search, and its ties
are the group.  The record is built on that completion: the sorted
canonical form the records publish (handed the ties, the form scan walks
one flag per orbit of the group), and the type, from its own orientation.
The type, |Aut| and the equivelar flag are invariants, so the two
strategies' records agree though they accept different completions.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

from .cycles import stick_number_and_type
from .errors import OutOfRange, PolytorusError
from .generators import minimal_torus_3k
from .surfaces import (
    SimplicialTorus,
    _flags,
    _start_pairs,
    _traverse_flag,
    canonical_form,
    is_isomorphic,
)

N_MIN, N_MAX = 7, 11
K_MIN, K_MAX = 3, (N_MAX + 2) // 3  # Theorem 3.1's k, with 3k - 2 <= N_MAX

TIME_BUDGET_ENV = "TORUS_TIME_BUDGET_SECS"


class TimeBudgetExceeded(PolytorusError):
    def __init__(self, seconds):
        super().__init__(f"census exceeded the time budget of {seconds}s")


@dataclass(frozen=True)
class CensusRecord:
    """One isomorphism class of torus triangulations."""

    canonical_faces: tuple
    n: int
    m: int
    s: int
    equivelar: bool
    automorphism_order: int

    @property
    def type_str(self) -> str:
        return f"{self.m}x{self.s}"

    def torus(self) -> SimplicialTorus:
        return SimplicialTorus(self.canonical_faces, _skip_validation=True)


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.t0 = time.monotonic()
        self.counter = 0

    def check(self):
        if self.seconds is None:
            return
        self.counter += 1
        if self.counter % 4096 == 0 and time.monotonic() - self.t0 > self.seconds:
            raise TimeBudgetExceeded(self.seconds)


def _env_budget():
    """Seconds from TORUS_TIME_BUDGET_SECS, or None when it is unset or empty."""
    raw = os.environ.get(TIME_BUDGET_ENV)
    if not raw:
        return None
    try:
        seconds = float(raw)
    except ValueError:
        seconds = math.nan
    if not (math.isfinite(seconds) and seconds > 0):
        raise PolytorusError(
            f"{TIME_BUDGET_ENV} must be a positive number of seconds, got {raw!r}")
    return seconds


# -- strategy A ------------------------------------------------------------------


class _LinkState:
    """Incremental pseudomanifold state for the face DFS.

    Tracks the open edges (in one face) and the full ones (in two), and per
    vertex v its degree, its number of open edges ``nopen[v]`` and its link
    paths.  The ends of v's link paths are the far ends of its open edges,
    so v has ``nopen[v] / 2`` paths, and it is closed exactly when
    ``deg[v] > 0`` and ``nopen[v] == 0``.  ``oe[v]`` maps each path end to
    the path's other end; its keys are v's link vertices, and an interior
    vertex keeps a stale value.  A face addition is legal when its three
    link-edge insertions keep every link a disjoint union of paths, closing
    into a single cycle at most once per vertex.  ``add`` logs each pointer
    write with the value it replaced, and ``undo`` restores the log in
    reverse.

    ``open_edges`` maps each open edge to the direction its one face runs
    along it, and ``faces`` holds oriented triples.  Each face after the
    first is glued along an open edge and runs against the face there, so
    the connected complex stays coherently oriented.  A face running along
    another open edge the same way as the face on it is illegal: it would
    close a Moebius band, which no orientable closed surface contains.

    ``legal`` refuses a face the complex already has with no test of its
    own.  Such a face {u, v, x} is the one face on the open edge (u, v).
    If (u, x) or (v, x) is full, the full-edge rule refuses it.  Else at u
    the link edge v-x is a whole path, ``oe[u][v] == x``, and the link rule
    refuses it unless ``nopen[u] == 2``; likewise at v and x.  All three at
    2 put each in that face alone, then the whole connected complex; and a
    lone face is asked only about the second seed face, a new one.

    ``excess`` is the sum over all vertices of max(deg[v] - min_deg, 0).  A
    degree passes min_deg only by a new edge and falls back only when that
    edge goes, so ``add`` and ``undo`` keep the sum next to ``deg``.
    """

    def __init__(self, n, min_deg):
        self.n = n
        self.min_deg = min_deg
        self.oe = {v: {} for v in range(1, n + 1)}  # vertex -> {path end -> other end}
        self.deg = [0] * (n + 1)
        self.nopen = [0] * (n + 1)
        self.excess = 0
        self.open_edges = {}    # sorted open edge -> (a, b): its face runs a -> b
        self.full = set()       # sorted edges in two faces
        self.faces = []         # oriented triples
        self.maxlab = 0

    def _oriented(self, u, v, w):
        """Face {u,v,w} as it must run: against the face on the open edge
        (u, v), u < v, or as given when that edge is not open (first face)."""
        return (v, u, w) if self.open_edges.get((u, v)) == (u, v) else (u, v, w)

    def legal(self, u, v, w):
        """Check face {u,v,w} without mutating.  (u,v) is an open edge.

        Past the full-edge test no edge of the face is full, so each of its
        vertices sees the other two in its link as path ends or not at all.
        """
        if self.nopen[w] == 0 and self.deg[w]:
            return False  # w is closed
        if ((u, w) if u < w else (w, u)) in self.full \
                or ((v, w) if v < w else (w, v)) in self.full:
            return False
        a, b, c = self._oriented(u, v, w)
        oe = self.open_edges
        if oe.get((b, c) if b < c else (c, b)) == (b, c) \
                or oe.get((c, a) if c < a else (a, c)) == (c, a):
            return False  # runs along an open edge the way its face does
        for a, b, c in ((u, v, w), (v, u, w), (w, u, v)):
            # link edge (b, c) at vertex a
            if self.nopen[a] != 2 and self.oe[a].get(b) == c:
                return False  # would close a cycle besides open paths
        return True

    def add(self, u, v, w):
        """Apply face {u,v,w}, which ``legal`` accepts; returns an undo record."""
        tri = self._oriented(u, v, w)
        log = []  # (map, key, value before the write, None if absent)
        rec = (tri, log, self.maxlab)
        self.faces.append(tri)
        self.maxlab = max(self.maxlab, w)
        for a, b, c in ((u, v, w), (v, u, w), (w, u, v)):
            # link edge (b, c) at vertex a joins the path from b to x with
            # the one from c to y; a vertex new to the link is its own path
            oea = self.oe[a]
            x = oea.get(b, b)
            y = oea.get(c, c)
            if x != c:  # x == c: the edge closes b's path into a cycle
                log.append((oea, x, oea.get(x)))
                log.append((oea, y, oea.get(y)))
                oea[x] = y
                oea[y] = x
        a, b, c = tri
        deg, nopen, d = self.deg, self.nopen, self.min_deg
        for x, y in ((a, b), (b, c), (c, a)):
            e = (x, y) if x < y else (y, x)
            if e in self.open_edges:
                del self.open_edges[e]
                self.full.add(e)
                nopen[x] -= 1
                nopen[y] -= 1
            else:
                self.open_edges[e] = (x, y)
                deg[x] += 1
                deg[y] += 1
                nopen[x] += 1
                nopen[y] += 1
                self.excess += (deg[x] > d) + (deg[y] > d)
        return rec

    def undo(self, rec):
        tri, log, self.maxlab = rec
        self.faces.pop()
        a, b, c = tri
        deg, nopen, d = self.deg, self.nopen, self.min_deg
        for x, y in ((a, b), (b, c), (c, a)):
            e = (x, y) if x < y else (y, x)
            if e in self.full:
                self.full.remove(e)
                self.open_edges[e] = (y, x)  # the face left on e runs against tri
                nopen[x] += 1
                nopen[y] += 1
            else:
                del self.open_edges[e]
                self.excess -= (deg[x] > d) + (deg[y] > d)
                deg[x] -= 1
                deg[y] -= 1
                nopen[x] -= 1
                nopen[y] -= 1
        for oea, key, old in reversed(log):
            if old is None:
                del oea[key]
            else:
                oea[key] = old


def _generate_strategy_a(n, budget):
    """Yield the oriented face lists of all n-vertex torus triangulations
    (with labeled duplicates across symmetric discovery orders), each with
    its key's start pairs."""
    target_f = 2 * n
    for d in range(3, 7):
        st = _LinkState(n, d)
        seed = [(1, i, i + 1) for i in range(2, d + 1)] + [(1, d + 1, 2)]
        recs = []
        for (a, b, c) in seed:
            # seed faces follow the same legality rules
            if not st.legal(a, b, c):
                raise PolytorusError("illegal seed")
            recs.append(st.add(a, b, c))
        yield from _dfs_a(st, n, target_f, budget)
        for rec in reversed(recs):
            st.undo(rec)


def _seed_may_start(st, face=None):
    """Whether the seed flag (1, 2, 3) can be a start flag of the key
    (``surfaces._start_pairs``).  Exact on a finished torus, where the keys
    of ``st.oe[v]`` are v's neighbours: there it returns the key's start
    pairs when (1, 2) is among them, else an empty set, so the pairs are
    built once per completion.  Just after ``face`` was added, by degrees:
    deg[2] can only grow, so a u in 3..d+1 (vertex 1's other neighbours)
    with no open edge left, hence closed, and deg[u] < deg[2] rules vertex
    2 out."""
    if face is None:
        pairs = _start_pairs(st.oe)
        return pairs if (1, 2) in pairs else set()
    deg, nopen = st.deg, st.nopen
    near = range(3, st.min_deg + 2) if 2 in face else face  # verdicts that can change
    return not any(nopen[u] == 0 and deg[u] < deg[2] and 2 < u <= st.min_deg + 1 for u in near)


def _dfs_a(st, n, target_f, budget):
    """Complete ``st`` in every legal way, yielding each accepted torus as
    its oriented faces and its key's start pairs.

    A node is cut when its open edges or unlabelled vertices outnumber what
    the faces left can cover, and a child is cut when it can have no
    accepted completion:

    * min-degree seed rule: a vertex closes below the seed degree d;
    * degree sum: ``st.excess > n * (6 - d)``.  A torus on n vertices has
      3n edges, so its degrees sum to 6n.  Degrees only grow below a node,
      and by the rule above every vertex of a completion ends with degree at
      least d, so at least max(deg[v], d); an unlabelled vertex has degree
      0 now and at least d then.  The final sum is therefore at least
      n * d + excess, which exceeds 6n exactly when excess > n * (6 - d);
    * the seed flag (1, 2, 3) can no longer be a start flag
      (``_seed_may_start``).
    """
    budget.check()
    if not st.open_edges:
        if st.maxlab == n and len(st.faces) == target_f and (pairs := _seed_may_start(st)):
            yield list(st.faces), pairs
        return
    remaining = target_f - len(st.faces)
    if len(st.open_edges) > 3 * remaining:
        return
    if n - st.maxlab > remaining:
        return
    u, v = min(st.open_edges)
    hi = min(n, st.maxlab + 1)
    cap = n * (6 - st.min_deg)
    for w in range(2, hi + 1):
        if w == u or w == v:
            continue
        if not st.legal(u, v, w):
            continue
        rec = st.add(u, v, w)
        if st.excess <= cap \
                and not any(st.nopen[a] == 0 and st.deg[a] < st.min_deg for a in (u, v, w)) \
                and _seed_may_start(st, (u, v, w)):
            yield from _dfs_a(st, n, target_f, budget)
        st.undo(rec)


# -- strategy B ------------------------------------------------------------------


def _generate_strategy_b(n, budget):
    """Vertex-major generation: close links of vertices 1, 2, ... in turn.

    Control flow is organized around whole vertex links instead of open
    edges: the link of the smallest unfinished vertex is completed in every
    admissible cyclic order before the next vertex is touched, so the
    vertices below it are the closed ones.  Every vertex's link adjacency is
    kept up to date as faces come and go, and an edge's multiplicity is its
    degree in either endpoint's link.  ``runs`` maps each open edge to the
    direction its one face runs along it.  Each face is glued along the open
    edge {v, start} and runs against the face there; a face running along
    another open edge the way its face does would close a Moebius band, so
    it is never added.  A link holding a closed cycle beside open paths can
    never become one cycle, and is dropped.  The caller still runs the full
    surface validator on every completion.

    Maximum-degree rule (``_b_may_keep``).  The search labels a torus from
    its first face (1, 2, 3): vertex 1's link is closed from the flag
    (1, 2, 3) on, and each later face is fixed by the smallest unfinished
    vertex, the least path end of its link, and an old label or the next
    fresh one.  So the labeled completion is a function of the torus and
    its first flag, and the search yields exactly one completion per
    Aut-orbit of flags.  The rule keeps a completion exactly when its flag
    (1, 2, 3) = (a, b, c) has deg a = the maximum degree and deg b = the
    maximum degree over a's neighbours: once vertex 1 closes, its degree
    d1 is final, so d1 < 6 (below the average degree 6 of a torus) or a
    vertex of degree over d1 rules vertex 1 out; once vertex 2 closes, a
    neighbour of vertex 1 of degree over d2 rules vertex 2 out.  Degrees
    only grow below a node, so each cut is final and a completion meeting
    both conditions is never cut.  Such flags form whole Aut-orbits, since
    automorphisms keep degrees, and every torus has one, so every class
    survives, once per orbit of those flags.  The caller accepts a
    completion when its flag (1, 2, 3) attains the least visit-order code
    over the kept flags (``_b_start_pairs``, ``_seed_ties``).  Flags with
    equal codes relabel T to one face list, so they differ by an
    automorphism, which keeps codes: the kept flags attaining it are one
    Aut-orbit.  So exactly one completion per class passes, and its ties
    are Aut(T), which the form scan and |Aut| need.

    Degree-sum cut (``_b_degrees_fit``).  ``total`` is the sum over all n
    vertices of max(deg u, 3), where deg u is the size of u's link, kept as
    faces come and go.  A torus on n vertices has 3n edges (Euler), so its
    degrees sum to 6n.  Every vertex of a completion ends with degree at
    least 3, since its link is a cycle, and at least its degree now, since
    below a node faces are only added.  So no completion lies below a
    ``grow`` node with total > 6n, and such a node is cut.  This rests on
    Euler's relation alone, not on A's labeling.
    """
    target_f = 2 * n
    link = {v: {} for v in range(1, n + 1)}  # vertex -> link vertex -> its link neighbours
    runs = {}                                # sorted open edge -> (a, b): its face runs a -> b
    faces = []                               # oriented triples
    results = []
    total = 3 * n                            # sum of max(deg u, 3)

    def edge(a, b):
        return (a, b) if a < b else (b, a)

    def add_face(tri):
        nonlocal total
        faces.append(tri)
        a, b, c = tri
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            lx = link[x]
            before = len(lx)
            lx.setdefault(y, set()).add(z)
            lx.setdefault(z, set()).add(y)
            total += max(len(lx), 3) - max(before, 3)
            if runs.pop(edge(x, y), None) is None:
                runs[edge(x, y)] = (x, y)

    def pop_face(tri):
        nonlocal total
        faces.pop()
        a, b, c = tri
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            lx = link[x]
            before = len(lx)
            for p, q in ((y, z), (z, y)):
                lx[p].discard(q)
                if not lx[p]:
                    del lx[p]
            total -= max(before, 3) - max(len(lx), 3)
            e = edge(x, y)
            if e in runs:
                del runs[e]
            else:
                runs[e] = (y, x)  # the face left on e runs against tri

    def glue(v, start, b):
        """Face {v, start, b} running against the face on the open edge
        {v, start}, or None if the edge {start, b} is full or the face runs
        along an open edge the way that edge's face does.  The edge {v, b}
        is never full: b is a path end of v's link or outside it, so no link
        vertex gets a third neighbour and no face is added twice."""
        if len(link[start].get(b, ())) == 2:
            return None
        tri = (start, v, b) if runs[edge(v, start)] == (v, start) else (v, start, b)
        x, y, z = tri
        if runs.get(edge(y, z)) == (y, z) or runs.get(edge(z, x)) == (z, x):
            return None
        return tri

    def close_vertex(v, maxlab):
        budget.check()
        adj = link[v]
        ends = [a for a, nb in adj.items() if len(nb) == 1]
        # each path is walked from both its ends, a lone cycle once
        covered = (sum(_link_walk(adj, a)[1] for a in ends) // 2 if ends
                   else _link_walk(adj, next(iter(adj)))[1])
        if covered != len(adj):
            return  # a closed cycle beside the paths, or several cycles
        if ends:
            grow(v, maxlab, len(ends) // 2)
        else:
            advance(v, maxlab)

    def grow(v, maxlab, ncomp):
        budget.check()
        if len(faces) + ncomp > target_f or len(faces) + (n - maxlab) > target_f \
                or not _b_degrees_fit(total, n):
            return
        adj = link[v]
        start = min(a for a, nb in adj.items() if len(nb) == 1)
        mate = _link_walk(adj, start)[0]
        # closing move: one path left, join its two ends
        if ncomp == 1 and len(adj) >= 3:
            tri = glue(v, start, mate)
            if tri is not None:
                add_face(tri)
                if _b_may_keep(link, v - 1, tri):
                    advance(v, maxlab)
                pop_face(tri)
        # extension moves: endpoint of another path, an open vertex not yet
        # in the link, or one fresh label
        for b in range(v + 1, min(maxlab + 1, n) + 1):
            nb = adj.get(b)
            if nb is not None and (len(nb) == 2 or b == start or b == mate):
                continue
            tri = glue(v, start, b)
            if tri is None:
                continue
            add_face(tri)
            if _b_may_keep(link, v - 1, tri):
                grow(v, max(maxlab, b), ncomp if nb is None else ncomp - 1)
            pop_face(tri)

    def advance(v, maxlab):
        # vertex v has just closed: d1 or d2 is now fixed, so check everyone
        if v <= 2 and not _b_may_keep(link, v, link):
            return
        if v + 1 <= maxlab:
            close_vertex(v + 1, maxlab)
        elif maxlab == n and len(faces) == target_f and v == n:
            results.append(list(faces))

    # first face is (1,2,3) up to relabeling
    add_face((1, 2, 3))
    close_vertex(1, 3)
    pop_face((1, 2, 3))
    yield from results


def _b_degrees_fit(total, n):
    """Whether a sum ``total`` of max(deg u, 3) over n vertices leaves room
    for a torus, whose degrees sum to 6n."""
    return total <= 6 * n


def _b_may_keep(link, closed, touched):
    """Whether a completion can still give vertex 1 the maximum degree and
    vertex 2 the maximum degree among vertex 1's neighbours, with vertices
    1..``closed`` closed and only the vertices in ``touched`` grown since
    the last check.  Once vertex 1 is closed its degree d1 is final: it is
    at least 6, the average degree of a torus, and no vertex may pass it.
    Once vertex 2 is closed, no neighbour of vertex 1 may pass its degree
    d2, which the check on its closing left at most d1.  Degrees only grow,
    so a vertex over its cap stays over it."""
    if closed == 0:
        return True
    d1 = len(link[1])
    if d1 < 6:
        return False
    if closed == 1:
        return all(len(link[u]) <= d1 for u in touched)
    d2 = len(link[2])
    near = link[1]
    return all(len(link[u]) <= (d2 if u in near else d1) for u in touched)


def _b_start_pairs(nbrs) -> set:
    """(a, b) of B's kept flags: deg a is the maximum, deg b the maximum over a's neighbours."""
    top = max(map(len, nbrs.values()))
    return {(a, b) for a, ns in nbrs.items() if len(ns) == top
            for b in ns if len(nbrs[b]) == max(len(nbrs[u]) for u in ns)}


def _link_walk(adj, start):
    """Walk a link from ``start``, a path end or a vertex on a cycle, to the
    path's other end or back round to ``start``; return where the walk
    stopped and how many vertices it covered."""
    prev, cur, count = start, next(iter(adj[start])), 1
    while cur != start:
        count += 1
        for nxt in adj[cur]:
            if nxt != prev:
                break
        else:
            return cur, count
        prev, cur = cur, nxt
    return start, count


# -- public API -------------------------------------------------------------------


_STRATEGIES = ("a", "b")

_CENSUS_CACHE: dict = {}


def _completions(n, strategy, budget):
    """Every orientable completion the strategy finds, as a torus with the
    (a, b) of the start flags it keeps; isomorphic copies included."""
    if strategy == "b":
        for faces in _generate_strategy_b(n, budget):
            T = SimplicialTorus(faces)  # the full validator
            yield T, _b_start_pairs(T.neighbors)
        return
    for faces, pairs in _generate_strategy_a(n, budget):
        # the seed face (1, 2, 3) runs 1 -> 2 -> 3 and is the least face,
        # which the validator's face walk keeps as given, so no flip is needed
        T = SimplicialTorus(faces, _skip_validation=True)
        T._oriented = sorted(faces, key=sorted)
        yield T, pairs


def _seed_ties(T, pairs):
    """Orderly acceptance: the tie labelings, in flag order, of the least
    code over the start flags with (a, b) in ``pairs``, if the seed flag
    (1, 2, 3) attains it, else None.

    The seed flag comes first in flag order ((1, 2, 3) is T's least face),
    so it is walked first, and every other start flag is walked against its
    code: the first smaller one rejects T, and the equal ones are the ties.
    A's pairs are the key's (B's argument is with ``_generate_strategy_b``).
    A's labeling is a function of the torus and its seed flag: vertex 1 and
    its link come from the flag, and each later face is fixed by the least
    open edge and the first-use label order.  So the completions built from
    flags of one Aut-orbit are one labeled face list, one per orbit of
    start flags.  The flags attaining the key are one such orbit, so
    exactly one completion per class passes.
    """
    if (1, 2) not in pairs:
        return None
    code, ties = None, []
    for flag in (flag for f in T.faces for flag in _flags(f) if flag[:2] in pairs):
        if match := _traverse_flag(T, flag, code):
            if code is not None and match[0] != code:
                return None  # a start flag below the seed flag
            code = match[0]
            ties.append(match[1])
    return ties


def _record(T, ties):
    """The class record of completion T, from its acceptance's ties."""
    res = stick_number_and_type(T)
    return CensusRecord(
        # the ties are Aut(T): the form scan skips its orbits
        canonical_faces=canonical_form(T, ties),
        n=T.n_vertices,
        m=res.m,
        s=res.s,
        equivelar=len({len(nb) for nb in T.neighbors.values()}) == 1,
        automorphism_order=len(ties),
    )


def enumerate_tori(n: int, strategy: str = "a", time_budget: float | None = None,
                   progress=None) -> list[CensusRecord]:
    """All n-vertex torus triangulations up to isomorphism, 7 <= n <= 11.

    ``strategy`` picks the generation algorithm ("a" or "b"); results agree.
    ``time_budget`` (seconds; also env TORUS_TIME_BUDGET_SECS) aborts long
    runs with TimeBudgetExceeded.  ``progress`` is called with the number
    of classes so far each time a class is found.  Completed runs are
    memoized per process.
    """
    if not N_MIN <= n <= N_MAX:
        raise OutOfRange(n, N_MIN, N_MAX)
    if strategy not in _STRATEGIES:
        raise PolytorusError(f"unknown census strategy {strategy!r}; "
                             f"expected one of {', '.join(_STRATEGIES)}")
    budget = _Budget(time_budget if time_budget is not None else _env_budget())
    if (n, strategy) in _CENSUS_CACHE:
        return list(_CENSUS_CACHE[(n, strategy)])
    records = []
    for T, pairs in _completions(n, strategy, budget):
        if ties := _seed_ties(T, pairs):
            records.append(_record(T, ties))
            if progress is not None:
                progress(len(records))
    records.sort(key=lambda rec: rec.canonical_faces)
    _CENSUS_CACHE[(n, strategy)] = records
    return list(records)


def census_counts_agree(n: int, time_budget: float | None = None) -> tuple[int, int]:
    """Run both strategies; return the two counts.  Raise, naming the least
    form whose records differ, unless both give the same records."""
    a = enumerate_tori(n, "a", time_budget)
    b = enumerate_tori(n, "b", time_budget)
    if a != b:
        by_a = {r.canonical_faces: r for r in a}
        by_b = {r.canonical_faces: r for r in b}
        form = min(f for f in by_a.keys() | by_b.keys() if by_a.get(f) != by_b.get(f))
        raise PolytorusError(
            f"strategies disagree at n={n} ({len(a)} vs {len(b)} classes), first on "
            f"{form}: {_record_summary(by_a.get(form))} vs {_record_summary(by_b.get(form))}")
    return len(a), len(b)


def _record_summary(rec):
    if rec is None:
        return "absent"
    return f"{rec.type_str}, equivelar={rec.equivelar}, |Aut|={rec.automorphism_order}"


@dataclass
class Theorem31Report:
    k: int
    n_min: int
    below_counts: dict
    minimal_count: int
    matches_generator: bool

    @property
    def ok(self) -> bool:
        return (all(c == 0 for c in self.below_counts.values())
                and self.minimal_count == 1 and self.matches_generator)


def no_torus_below_seven(n: int) -> bool:
    """No torus triangulation exists on n <= 6 vertices: it would need
    E = 3n edges, more than the n(n-1)/2 available."""
    return 3 * n > n * (n - 1) // 2


def check_theorem31_k(k: int):
    """Raise OutOfRange unless the census reaches 3k-2 vertices for this k."""
    if not K_MIN <= k <= K_MAX:
        raise OutOfRange(k, K_MIN, K_MAX, "K")


def census_verify_theorem31(k: int, time_budget: float | None = None) -> Theorem31Report:
    """Check at census scale: no type-3xk torus below 3k-2 vertices, and a
    unique one (the generator output) at 3k-2."""
    check_theorem31_k(k)
    n_min = 3 * k - 2
    below = {}
    for n in range(max(N_MIN, 3 * k - 4), n_min):
        records = enumerate_tori(n, "a", time_budget)
        below[n] = sum(1 for r in records if r.m == 3 and r.s == k)
    for n in range(3, 7):
        if n >= 3 * k - 4 and not no_torus_below_seven(n):
            raise PolytorusError(f"counting argument failed at n={n}")
    records = enumerate_tori(n_min, "a", time_budget)
    minimal = [r for r in records if r.m == 3 and r.s == k]
    match = False
    if len(minimal) == 1:
        gen = minimal_torus_3k(k)
        match = is_isomorphic(minimal[0].torus(), gen) is not None
    return Theorem31Report(k, n_min, below, len(minimal), match)
