"""Homology signatures, shortest essential cycles, and torus types.

Signatures
----------
A tree-cotree decomposition of a triangulated torus leaves exactly two edges
that are neither in a spanning tree of the vertex graph nor in a spanning
tree of the dual graph.  Each leftover edge determines a cycle in the dual
tree; recording the signed crossings of those two dual cycles labels every
directed edge with a vector in {-1,0,1}^2.  Summing labels along a closed
walk gives its first-homology coordinates: face boundaries sum to (0,0), the
two leftover edges pick up the unit vectors, and a simple cycle separates
exactly when its signature vanishes.

Shortest cycles
---------------
Minima are computed as shortest closed walks in the signature-labelled
covering graph (states are (vertex, p, q)).  A shortest closed walk whose
signature class is admissible is automatically a *simple* cycle for the two
searches used here: splitting a non-simple walk at a repeated vertex yields
two shorter closed walks whose signatures add up, and at least one summand
stays admissible ("nonzero" and "not proportional to a fixed class" are both
preserved by at least one part of any split).  Walks not proportional to a
class c must share a vertex with any cycle realizing c (non-proportional
classes on the torus have nonzero intersection number), which keeps the
search rooted at the marking cycle only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import (
    InvalidType,
    MarkNotShortest,
    NotGenusOne,
    PolytorusError,
    SeparatingMark,
)
from .surfaces import Cycle, SimplicialTorus, _edge_map, _face_components, vertex_orbits


class HomologySignature(tuple):
    """Element (p, q) of the first homology lattice Z^2."""

    def __new__(cls, p, q):
        return super().__new__(cls, (p, q))

    @property
    def p(self):
        return self[0]

    @property
    def q(self):
        return self[1]

    def is_zero(self) -> bool:
        return self[0] == 0 and self[1] == 0

    def proportional_to(self, other) -> bool:
        """True when the two vectors are linearly dependent over Z."""
        return self[0] * other[1] - self[1] * other[0] == 0

    def __neg__(self):
        return HomologySignature(-self[0], -self[1])


@dataclass
class HomologyBasis:
    """Per-directed-edge signature assignment for one torus."""

    torus: SimplicialTorus
    edge_sig: dict  # (u, v) directed -> (p, q), antisymmetric
    tree_edges: frozenset
    cotree_edges: frozenset
    leftover_edges: tuple

    def signature(self, u: int, v: int) -> HomologySignature:
        p, q = self.edge_sig[(u, v)]
        return HomologySignature(p, q)


def homology_basis(T: SimplicialTorus) -> HomologyBasis:
    """Tree-cotree signature assignment; raises NotGenusOne off the torus."""
    # spanning tree of the vertex graph (BFS from vertex 1, sorted neighbors)
    parent = {1: None}
    queue = deque([1])
    tree = set()
    while queue:
        u = queue.popleft()
        for v in T.neighbors[u]:
            if v not in parent:
                parent[v] = u
                tree.add((min(u, v), max(u, v)))
                queue.append(v)
    if len(parent) != T.n_vertices:
        raise PolytorusError("vertex graph not connected")

    # spanning tree of the dual graph over the non-tree edges
    nontree = [e for e in T.edges if e not in tree]
    dual_adj: dict[int, list] = {}
    for e in nontree:
        f1, f2 = T.edge_faces[e]
        dual_adj.setdefault(f1, []).append((f2, e))
        dual_adj.setdefault(f2, []).append((f1, e))
    dual_parent = {0: (None, None)}
    queue = deque([0])
    cotree = set()
    while queue:
        f = queue.popleft()
        for g, e in sorted(dual_adj.get(f, [])):
            if g not in dual_parent:
                dual_parent[g] = (f, e)
                cotree.add(e)
                queue.append(g)
    leftover = [e for e in nontree if e not in cotree]
    if len(leftover) != 2:
        raise NotGenusOne(len(leftover))

    rot = T.rotation

    # signed crossings of the dual cycle through each leftover edge
    sig = {}
    for u, v in T.edges:
        sig[(u, v)] = [0, 0]
        sig[(v, u)] = [0, 0]
    for idx, x in enumerate(leftover):
        f1, f2 = T.edge_faces[x]
        crossings = [(f2, f1, x)]  # dual step f2 -> f1 through x
        # dual tree path f1 -> f2: climb both to the root, splice at the
        # first common face
        p1 = _dual_root_path(dual_parent, f1)
        p2 = _dual_root_path(dual_parent, f2)
        common = {node for node, _ in p1} & {node for node, _ in p2}
        i1 = next(i for i, (node, _) in enumerate(p1) if node in common)
        i2 = next(i for i, (node, _) in enumerate(p2) if node in common)
        for j in range(i1):
            crossings.append((p1[j][0], p1[j + 1][0], p1[j + 1][1]))
        for j in range(i2, 0, -1):
            crossings.append((p2[j][0], p2[j - 1][0], p2[j][1]))
        for f_from, f_to, e in crossings:
            u, v = e
            s = 1 if rot[u, v][0] == f_from else -1
            sig[(u, v)][idx] += s
            sig[(v, u)][idx] -= s

    # normalize: leftover edges carry +(1,0) and +(0,1) in sorted direction
    for idx, x in enumerate(leftover):
        if sig[x][idx] < 0:
            for key in sig:
                sig[key][idx] = -sig[key][idx]

    edge_sig = {k: tuple(v) for k, v in sig.items()}
    basis = HomologyBasis(
        torus=T,
        edge_sig=edge_sig,
        tree_edges=frozenset(tree),
        cotree_edges=frozenset(cotree),
        leftover_edges=tuple(leftover),
    )
    _check_basis(T, basis)
    return basis


def _dual_root_path(dual_parent, f):
    """Faces and crossing edges from f up to the dual-tree root."""
    path = [(f, None)]
    while dual_parent[path[-1][0]][0] is not None:
        pf, pe = dual_parent[path[-1][0]]
        path.append((pf, pe))
    return path


def _check_basis(T, basis):
    for tri in T.oriented_faces:
        a, b, c = tri
        p = basis.edge_sig[(a, b)][0] + basis.edge_sig[(b, c)][0] + basis.edge_sig[(c, a)][0]
        q = basis.edge_sig[(a, b)][1] + basis.edge_sig[(b, c)][1] + basis.edge_sig[(c, a)][1]
        if p != 0 or q != 0:
            raise PolytorusError(f"face {tri} has nonzero boundary signature ({p},{q})")
    for e in basis.tree_edges:
        if basis.edge_sig[e] != (0, 0):
            raise PolytorusError(f"tree edge {e} has nonzero signature")
    units = sorted(basis.edge_sig[x] for x in basis.leftover_edges)
    if units != [(0, 1), (1, 0)]:
        raise PolytorusError(f"leftover edges carry {units}, expected units")


def cycle_signature(T: SimplicialTorus, basis: HomologyBasis, C: Cycle) -> HomologySignature:
    """Sum of directed edge signatures along C."""
    T.require_cycle(C)
    p = q = 0
    for u, v in C.directed_edges():
        sp, sq = basis.edge_sig[(u, v)]
        p += sp
        q += sq
    return HomologySignature(p, q)


def is_separating(T: SimplicialTorus, C: Cycle, basis: HomologyBasis | None = None) -> bool:
    if basis is None:
        basis = homology_basis(T)
    return cycle_signature(T, basis, C).is_zero()


# -- cutting ------------------------------------------------------------------


@dataclass
class CutSurface:
    """Result of cutting a torus along a simple cycle."""

    faces: list
    left_copy: dict
    right_copy: dict
    n_components: int
    boundary_circles: int
    edge_faces: dict = field(repr=False)


def cut_along_cycle(T: SimplicialTorus, C: Cycle) -> CutSurface:
    """Duplicate the cycle vertices, separating left from right faces.

    Left/right are taken with respect to the global face orientation: the
    face whose oriented boundary contains the directed cycle edge (u, v)
    lies on the left.  At each cycle vertex v the rotation of T is walked
    once round, starting from the next cycle vertex: the faces met before
    the previous cycle vertex lie on the left, the rest on the right.  The
    cut surface's faces keep T's face indices; its edge map, built once,
    gives the components, the boundary circles and (in ``distance_layers``)
    the vertex adjacency.
    """
    T.require_cycle(C)
    rot = T.rotation
    cyc = list(C.vertices)
    m = len(cyc)
    n = T.n_vertices
    left_copy = {v: v for v in cyc}
    right_copy = {v: n + 1 + i for i, v in enumerate(cyc)}

    copy_in = {}  # (face index, cycle vertex) -> the copy of the vertex in it
    for i, v in enumerate(cyc):
        nxt, prv = cyc[(i + 1) % m], cyc[i - 1]
        copy, a = left_copy[v], nxt
        while True:
            fi, a = rot[v, a]
            copy_in[fi, v] = copy
            if a == nxt:
                break
            if a == prv:
                copy = right_copy[v]

    new_faces = [tuple(sorted(copy_in.get((fi, v), v) for v in f))
                 for fi, f in enumerate(T.faces)]
    edge_faces = _edge_map(new_faces)
    return CutSurface(new_faces, left_copy, right_copy,
                      _face_components(new_faces, edge_faces),
                      _boundary_circles(edge_faces), edge_faces)


def _boundary_circles(edge_faces):
    """Number of circles formed by the edges that lie in a single face."""
    adj = {}
    for (u, v), fs in edge_faces.items():
        if len(fs) == 1:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
    seen = set()
    circles = 0
    for start in adj:
        if start in seen:
            continue
        circles += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
    return circles


# -- shortest essential cycles ---------------------------------------------------


def _fundamental_cycles(T: SimplicialTorus, basis: HomologyBasis):
    """Simple cycles through the two leftover edges (tree path + edge)."""
    parent = {1: None}
    queue = deque([1])
    while queue:
        u = queue.popleft()
        for v in T.neighbors[u]:
            if v not in parent and (min(u, v), max(u, v)) in basis.tree_edges:
                parent[v] = u
                queue.append(v)

    def tree_path(u, v):
        au, av = [u], [v]
        su, sv = {u}, {v}
        while True:
            if au[-1] in sv:
                i = av.index(au[-1])
                return au + av[i - 1:: -1] if i > 0 else au
            if av[-1] in su:
                i = au.index(av[-1])
                return au[: i] + av[:: -1]
            if parent[au[-1]] is not None:
                au.append(parent[au[-1]])
                su.add(au[-1])
            if parent[av[-1]] is not None:
                av.append(parent[av[-1]])
                sv.add(av[-1])

    out = []
    for x in basis.leftover_edges:
        u, v = x
        path = tree_path(u, v)
        out.append(Cycle(tuple(path)))
    return out


def _closed_walk_search(T, basis, roots, allowed, best_len, best_witness):
    """Minimum-length closed walk whose signature satisfies ``allowed``.

    BFS over (vertex, p, q) states from each root; only walks closing at
    their own root are candidates, which suffices because minimal admissible
    walks are simple.
    """
    sig = basis.edge_sig
    nbrs = T.neighbors
    for r in roots:
        start = (r, 0, 0)
        parent = {start: None}
        frontier = deque([(start, 0)])
        while frontier:
            state, d = frontier.popleft()
            if d + 1 >= best_len:
                continue
            u, p, q = state
            for v in nbrs[u]:
                sp, sq = sig[(u, v)]
                np_, nq = p + sp, q + sq
                if v == r:
                    if (np_ or nq) and allowed(np_, nq) and d + 1 < best_len:
                        walk = []
                        s = state
                        while s is not None:
                            walk.append(s[0])
                            s = parent[s]
                        best_len = d + 1
                        best_witness = tuple(reversed(walk))
                    continue
                ns = (v, np_, nq)
                if ns not in parent and abs(np_) < best_len and abs(nq) < best_len:
                    parent[ns] = state
                    frontier.append((ns, d + 1))
    return best_len, best_witness


def shortest_nonseparating(T: SimplicialTorus, basis: HomologyBasis | None = None):
    """(m, witness): minimum length over all non-separating simple cycles."""
    if basis is None:
        basis = homology_basis(T)
    fund = _fundamental_cycles(T, basis)
    best = min(fund, key=len)
    best_len, witness = len(best), tuple(best.vertices)
    roots = [orbit[0] for orbit in vertex_orbits(T)]
    best_len, witness = _closed_walk_search(
        T, basis, roots, lambda p, q: True, best_len, witness)
    cyc = Cycle(witness).canonical()
    assert len(cyc) == best_len
    return best_len, cyc


def marked_type(T: SimplicialTorus, M: Cycle, basis: HomologyBasis | None = None):
    """(m_M, k_M) for the marked torus (T, M).

    m_M: shortest cycle in the class +-[M]; k_M: shortest non-separating
    cycle in a class not proportional to [M].
    """
    if basis is None:
        basis = homology_basis(T)
    T.require_cycle(M)
    c = cycle_signature(T, basis, M)
    if c.is_zero():
        raise SeparatingMark(M.vertices)

    # proportional search: admissible classes are the nonzero multiples of c
    best_len, witness = _closed_walk_search(
        T, basis, sorted(set(range(1, T.n_vertices + 1))),
        lambda p, q: (p * c.q - q * c.p == 0),
        len(M), tuple(M.vertices))
    wit_cycle = None
    if len(set(witness)) == len(witness):
        cand = Cycle(witness)
        wsig = cycle_signature(T, basis, cand)
        if wsig == c or wsig == -c:
            wit_cycle = cand
            m_M = best_len
    if wit_cycle is None:
        # the minimal proportional walk was non-simple or landed in a higher
        # multiple of [M]; fall back to a bounded exact-class search (M
        # itself caps the length)
        m_M, wit_cycle = _shortest_simple_in_class(T, basis, c, best_len, len(M), M)

    k_roots = list(M.vertices)
    fund = _fundamental_cycles(T, basis)
    k_best, k_wit = None, None
    for f in fund:
        fsig = cycle_signature(T, basis, f)
        if not fsig.proportional_to(c):
            if k_best is None or len(f) < k_best:
                k_best, k_wit = len(f), tuple(f.vertices)
    if k_best is None:
        # both unit classes proportional to c cannot happen (c != 0)
        raise PolytorusError("no admissible fundamental cycle")
    k_M, k_wit = _closed_walk_search(
        T, basis, k_roots,
        lambda p, q: (p * c.q - q * c.p != 0),
        k_best, k_wit)
    return (m_M, k_M), (wit_cycle.canonical(), Cycle(k_wit).canonical())


def _shortest_simple_in_class(T, basis, c, lo, hi, fallback_cycle):
    """Shortest simple cycle with signature exactly +-c, by bounded DFS."""
    sig = basis.edge_sig
    nbrs = T.neighbors
    for target_len in range(lo, hi):
        for root in range(1, T.n_vertices + 1):
            found = _dfs_cycle(T, sig, nbrs, root, target_len, c)
            if found is not None:
                return target_len, Cycle(found)
    return hi, fallback_cycle


def _dfs_cycle(T, sig, nbrs, root, target_len, c):
    path = [root]
    used = {root}

    def rec(u, p, q, depth):
        if depth == target_len:
            return None
        for v in nbrs[u]:
            sp, sq = sig[(u, v)]
            np_, nq = p + sp, q + sq
            if v == root and depth + 1 == target_len:
                if (np_, nq) == (c.p, c.q) or (np_, nq) == (-c.p, -c.q):
                    return list(path)
                continue
            if v in used or depth + 1 >= target_len:
                continue
            if abs(np_ - c.p) > target_len - depth - 1 and abs(np_ + c.p) > target_len - depth - 1:
                continue
            used.add(v)
            path.append(v)
            res = rec(v, np_, nq, depth + 1)
            path.pop()
            used.discard(v)
            if res is not None:
                return res
        return None

    return rec(root, 0, 0, 0)


@dataclass(frozen=True)
class TorusTypeResult:
    """Type m x s of a triangulated torus with witness cycles."""

    m: int
    s: int
    witness_m: Cycle
    witness_s: Cycle

    @property
    def type_str(self) -> str:
        return f"{self.m}x{self.s}"


def stick_number_and_type(T: SimplicialTorus, basis: HomologyBasis | None = None) -> TorusTypeResult:
    """Combinatorial stick number s(T) and type m x s(T).

    s(T) equals k_M for any shortest non-separating cycle M: at most one
    homotopy class contains cycles shorter than s(T), and a shortest cycle
    lies in it.
    """
    if basis is None:
        basis = homology_basis(T)
    m, wm = shortest_nonseparating(T, basis)
    (_, s), (_, ws) = marked_type(T, wm, basis)
    assert m <= s
    return TorusTypeResult(m, s, wm, ws)


# -- distance layers and the vertex bound ------------------------------------------


@dataclass
class DistanceLayerReport:
    """Sizes of the split BFS layers around a vertex of a shortest cycle."""

    m: int
    k: int
    a_sizes: dict = field(default_factory=dict)
    b_sizes: dict = field(default_factory=dict)
    c_size: int | None = None
    d_sizes: dict = field(default_factory=dict)
    e_sizes: dict = field(default_factory=dict)
    violated: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violated


def distance_layers(T: SimplicialTorus, M: Cycle, v: int,
                    basis: HomologyBasis | None = None,
                    ttype: TorusTypeResult | None = None) -> DistanceLayerReport:
    """Split the BFS distance classes around v along M and check the
    layer inequalities of the vertex bound.

    The split is defined through the cut-open cylinder: a vertex of distance
    class i belongs to the right part when it is reachable in i steps from
    the right copy of v without crossing M (vertices of M count as right);
    otherwise to the left part.  Split layers exist for i <= floor((k-1)/2),
    plus the single class at distance k/2 when k is even.

    ``ttype`` is T's ``stick_number_and_type`` result, computed when omitted.
    """
    if basis is None:
        basis = homology_basis(T)
    if v not in M.vertices:
        raise PolytorusError(f"vertex {v} not on the marking cycle")
    if ttype is None:
        ttype = stick_number_and_type(T, basis)
    m, k = ttype.m, ttype.s
    if len(M) > m:
        raise MarkNotShortest(len(M), m)

    dist = _bfs_dist(T.neighbors, v)
    cut = cut_along_cycle(T, M)
    dist_r = _bfs_dist(_adjacency(cut.edge_faces), cut.right_copy[v])

    on_cycle = set(M.vertices)
    half_ceil = (m + 1) // 2
    split_max = (k - 1) // 2

    right = {i: set() for i in range(split_max + 1)}
    left = {i: set() for i in range(split_max + 1)}
    for w in range(1, T.n_vertices + 1):
        i = dist[w]
        if i is None or i > split_max:
            continue
        if w in on_cycle:
            right[i].add(w)
        else:
            dr = dist_r.get(w)
            if dr is not None and dr == i:
                right[i].add(w)
            else:
                left[i].add(w)

    rep = DistanceLayerReport(m=m, k=k)
    for i in range(0, min(half_ceil - 1, split_max) + 1):
        rep.a_sizes[i] = len(right[i])
        if len(right[i]) < 2 * i + 1:
            rep.violated.append(f"|A_{i}| = {len(right[i])} < {2 * i + 1}")
    for i in range(half_ceil, split_max + 1):
        rep.b_sizes[i] = len(right[i])
        if len(right[i]) < m:
            rep.violated.append(f"|B_{i}| = {len(right[i])} < {m}")
    for i in range(1, min(half_ceil, split_max) + 1):
        rep.e_sizes[i] = len(left[i])
        if len(left[i]) < 2 * i - 1:
            rep.violated.append(f"|E_{i}| = {len(left[i])} < {2 * i - 1}")
    for i in range(half_ceil + 1, split_max + 1):
        rep.d_sizes[i] = len(left[i])
        if len(left[i]) < m:
            rep.violated.append(f"|D_{i}| = {len(left[i])} < {m}")
    if k % 2 == 0:
        vk = sum(1 for w in range(1, T.n_vertices + 1) if dist[w] == k // 2)
        rep.c_size = vk
        if vk < m:
            rep.violated.append(f"|C_{k // 2}| = {vk} < {m}")
    for i in range(0, k // 2 + 1):
        if not any(dist[w] == i for w in range(1, T.n_vertices + 1)):
            rep.violated.append(f"V_{i} empty")
    return rep


def _bfs_dist(adj, start):
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _adjacency(edge_faces):
    adj = {}
    for u, v in edge_faces:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def lower_bound(m: int, k: int) -> int:
    """Minimum vertex count of a torus of type m x k:
    2*ceil(m/2)^2 + (k - 2*ceil(m/2))*m + 1."""
    if m < 3 or m > k:
        raise InvalidType(m, k)
    c = (m + 1) // 2
    return 2 * c * c + (k - 2 * c) * m + 1


def bound_strict_gap(m: int, k: int) -> bool:
    """Whether the type m x k bound strictly exceeds 3k - 2, i.e.
    (m-3)k + 2*ceil(m/2)^2 - 2*ceil(m/2)*m + 3 > 0."""
    if m < 3 or m > k:
        raise InvalidType(m, k)
    c = (m + 1) // 2
    return (m - 3) * k + 2 * c * c - 2 * c * m + 3 > 0


# -- brute-force oracle ----------------------------------------------------------


def enumerate_simple_cycles(T: SimplicialTorus, max_len: int | None = None):
    """Every simple cycle of the edge graph, once, as a vertex tuple.

    Cycles are rooted at their minimum vertex with the smaller second
    endpoint first, which enumerates each undirected cycle exactly once.
    Exponential; meant as an independent oracle on small complexes.
    """
    nbrs = T.neighbors
    n = T.n_vertices
    limit = max_len if max_len is not None else n
    out = []
    for root in range(1, n + 1):
        path = [root]
        used = {root}

        def rec(u):
            for v in nbrs[u]:
                if v == root and len(path) >= 3 and path[1] < path[-1]:
                    out.append(tuple(path))
                    continue
                if v <= root or v in used or len(path) >= limit:
                    continue
                used.add(v)
                path.append(v)
                rec(v)
                path.pop()
                used.discard(v)

        rec(root)
    return out


# -- JSON report -----------------------------------------------------------------


def analysis_report(T: SimplicialTorus) -> dict:
    """Full combinatorial analysis of one torus, JSON-serializable."""
    basis = homology_basis(T)
    res = stick_number_and_type(T, basis)
    v0 = min(res.witness_m.vertices)
    layers = distance_layers(T, res.witness_m, v0, basis, res)
    bound = lower_bound(res.m, res.s)
    return {
        "schema": 1,
        "n": T.n_vertices,
        "m": res.m,
        "s": res.s,
        "type": res.type_str,
        "witnesses": {
            "m": list(res.witness_m.vertices),
            "s": list(res.witness_s.vertices),
        },
        "layer_report": {
            "A": {str(i): s for i, s in sorted(layers.a_sizes.items())},
            "B": {str(i): s for i, s in sorted(layers.b_sizes.items())},
            "C": layers.c_size,
            "D": {str(i): s for i, s in sorted(layers.d_sizes.items())},
            "E": {str(i): s for i, s in sorted(layers.e_sizes.items())},
            "violated": list(layers.violated),
        },
        "bound_value": bound,
        "bound_satisfied": T.n_vertices >= bound,
    }
