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
Both type searches want the shortest closed walk whose class lies outside a
subgroup H of Z^2: H = 0 for m, H = Qc meet Z^2 ("not proportional to
c = [M]") for k_M.  Such a walk is a simple cycle: split at a repeated vertex,
its two shorter parts have classes adding up to its own, and one is outside H.

Each root's minimum is read off its BFS tree (Thomassen's 3-path condition,
as Erickson and Har-Peled apply it).  With d(v) the depth of v and S(v) the
signature of the tree path r..v, edge uv closes a loop at r of length
d(u) + 1 + d(v) and class S(u) + sig(u, v) - S(v).  Lemma: the least loop
outside H is the least closed walk at r outside H.  Proof: the loop classes
of a walk's edges telescope to its class, so the loop of some edge uv, say
edge i (from 0) of a walk of length L, is outside H; and d(u) <= i,
d(v) <= L - i - 1, so that loop is no longer than the walk.  Edges between
vertices of depth >= D close loops of length >= 2D + 1, which ends the BFS.
The proof uses only that labels add along walks and that a BFS depth grows
by at most one per edge, so it holds in any graph labelled in Z^2.

m_M wants the shortest closed walk whose class is a nonzero multiple of c:
no complement of a subgroup of Z^2, but one in a cyclic cover.  c is
primitive, as the class of the simple cycle M, so phi(x) = det(c, x) has
kernel Zc.  The cover has vertices (v, t), t an integer, and an edge
(u, t) -> (v, t + phi(sig(u, v))) labelled sig(u, v) per directed edge uv.
A walk from r lifts to one walk from (r, 0), ending at (v, phi(x)) for x its
label sum.  So the closed walks at r whose class is a nonzero multiple of c
are the images of the closed walks at (r, 0) of nonzero label sum: the
cover's first homology is Zc, and H = 0 there.  By the lemma in the cover,
the least BFS-tree loop of nonzero class from (r, 0) is the least such walk
at r.  The BFS stops at half the bound, so it visits finitely many cover
vertices.  This walk need not be simple; a simple one has class +-c, as a
simple cycle's nonzero class is primitive.

The witness is walked in states (vertex, p, q) of the signature-labelled
covering graph, from one root.  Walks not proportional to c meet every
cycle realizing c (their intersection number is nonzero), so the k_M
search roots at M only.

Cutting
-------
Cutting along C splits each cycle vertex into left and right copies, and a
walk over the faces with C as a wall decides separation; both read the
rotation system, and no cut surface's edge map is built.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import (
    InvalidType,
    MarkNotShortest,
    NotACycle,
    NotGenusOne,
    PolytorusError,
    SeparatingMark,
)
from .surfaces import Cycle, SimplicialTorus


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

    edge_sig: dict  # (u, v) directed -> (p, q), antisymmetric
    tree_edges: frozenset
    leftover_edges: tuple
    fundamental_cycles: tuple  # per leftover edge (u, v): tree path u..v


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
    dual_parent = {0: None}
    queue = deque([0])
    cotree = set()
    while queue:
        f = queue.popleft()
        for g, e in sorted(dual_adj.get(f, [])):
            if g not in dual_parent:
                dual_parent[g] = f
                cotree.add(e)
                queue.append(g)
    leftover = [e for e in nontree if e not in cotree]
    if len(leftover) != 2:
        raise NotGenusOne(len(leftover))

    rot = T.rotation

    # signed crossings of the dual cycle through each leftover edge: f2 -> f1
    # across it, then back along the dual tree path f1 -> f2
    sig = {e: [0, 0] for u, v in T.edges for e in ((u, v), (v, u))}
    for idx, x in enumerate(leftover):
        f1, f2 = T.edge_faces[x]
        path = _tree_path(dual_parent, f1, f2)
        crossings = [(f2, x)] + [(f, tuple(sorted(set(T.faces[f]) & set(T.faces[g]))))
                                 for f, g in zip(path, path[1:])]
        for f_from, (u, v) in crossings:
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
        edge_sig=edge_sig,
        tree_edges=frozenset(tree),
        leftover_edges=tuple(leftover),
        fundamental_cycles=tuple(Cycle(tuple(_tree_path(parent, u, v))) for u, v in leftover),
    )
    _check_basis(T, basis)
    return basis


def _tree_path(parent, u, v):
    """Nodes of the tree path from u to v; ``parent`` maps each node to its
    parent and the root to None."""
    up = [u]
    while parent[up[-1]] is not None:
        up.append(parent[up[-1]])
    index = {x: i for i, x in enumerate(up)}
    down = [v]
    while down[-1] not in index:
        down.append(parent[down[-1]])
    return up[:index[down[-1]]] + down[::-1]


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
    """Sum of directed edge signatures along C; NotACycle at the first
    consecutive pair that is not an edge of T."""
    p = q = 0
    for e in C.directed_edges():
        s = basis.edge_sig.get(e)
        if s is None:
            raise NotACycle(f"consecutive pair {e} is not an edge")
        p += s[0]
        q += s[1]
    return HomologySignature(p, q)


def is_separating(T: SimplicialTorus, C: Cycle, basis: HomologyBasis | None = None) -> bool:
    if basis is None:
        basis = homology_basis(T)
    return cycle_signature(T, basis, C).is_zero()


# -- cutting ------------------------------------------------------------------


@dataclass
class CutSurface:
    """Result of cutting a torus along a simple cycle C.  It always has two
    boundary circles: C is two-sided on an orientable surface, so its left
    and right copies are the two circles."""

    faces: list
    left_copy: dict
    right_copy: dict
    n_components: int


def cut_along_cycle(T: SimplicialTorus, C: Cycle) -> CutSurface:
    """Duplicate the cycle vertices, separating left from right faces.

    Left/right are taken with respect to the global face orientation: the
    face whose oriented boundary contains the directed cycle edge (u, v)
    lies on the left.  At each cycle vertex v the rotation of T is walked
    once round, starting from the next cycle vertex: the faces met before
    the previous cycle vertex lie on the left, the rest on the right.  The
    cut surface's faces keep T's face indices; its components come from
    ``_separates``.
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
    return CutSurface(new_faces, left_copy, right_copy, 2 if _separates(T, C) else 1)


def _separates(T: SimplicialTorus, C: Cycle) -> bool:
    """Whether the simple cycle C separates T: a walk over the faces from
    the left face of C's first edge, never crossing C, misses its right face
    (each of the at most two components of the cut holds a boundary circle).
    Faces left of C run along C's edges in C's direction, so those directed
    edges alone keep the walk on the left side."""
    rot = T.rotation
    oriented = T.oriented_faces
    wall = set(C.directed_edges())
    u, v = C.vertices[0], C.vertices[1]
    start, goal = rot[u, v][0], rot[v, u][0]
    seen = {start}
    stack = [start]
    while stack:
        a, b, c = oriented[stack.pop()]
        for x, y in ((a, b), (b, c), (c, a)):
            if (x, y) not in wall:
                g = rot[y, x][0]
                if g == goal:
                    return False
                if g not in seen:
                    seen.add(g)
                    stack.append(g)
    return True


# -- shortest essential cycles ---------------------------------------------------


def _closed_walk_search(T, basis, r, allowed, bound, cover=(0, 0)):
    """The first closed walk at r shorter than ``bound``, in BFS order over
    the (vertex, p, q) states of the signature-labelled covering graph, whose
    class is nonzero, closes in the cover of the form ``cover`` and passes
    ``allowed``; None when there is none."""
    sig, nbrs = basis.edge_sig, T.neighbors
    a, b = cover
    start = (r, 0, 0)
    parent = {start: None}
    frontier = deque([(start, 0)])
    while frontier:
        state, d = frontier.popleft()
        if d + 1 >= bound:
            break
        u, p, q = state
        for v in nbrs[u]:
            sp, sq = sig[u, v]
            np_, nq = p + sp, q + sq
            if v == r:
                if (np_ or nq) and a * np_ + b * nq == 0 and allowed(np_, nq):
                    walk = []
                    while state is not None:
                        walk.append(state[0])
                        state = parent[state]
                    return tuple(reversed(walk))
                continue
            ns = (v, np_, nq)
            if ns not in parent:
                parent[ns] = state
                frontier.append((ns, d + 1))
    return None


def _shortest_admissible(T, basis, roots, allowed, best_len, best_witness, cover=(0, 0)):
    """(length, witness) of the least closed walk at a root, shorter than
    ``best_len``, in the cover of the form ``cover`` ((0, 0): T itself) and
    of a class that ``allowed`` accepts; (best_len, best_witness) if none.
    Each root's minimum is its least admissible BFS-tree loop (module
    docstring), the bound passed on from root to root.  The first root to
    attain the least minimum L walks the state BFS, with bound L + 1: its
    order to depth L does not depend on the bound, so it finds the witness
    of a state BFS from every root in turn."""
    sig, nbrs = basis.edge_sig, T.neighbors
    stride = T.n_vertices + 1  # cover vertex (v, t) is keyed v + stride * t
    a, b = stride * cover[0], stride * cover[1]
    bound, first = best_len, None
    for r in roots:
        tree = {r: (0, 0, 0)}  # cover vertex (v, t) -> d(v), S(v)
        queue = deque([r])
        while queue:
            x = queue.popleft()
            d, p, q = tree[x]
            if 2 * d + 1 >= bound:
                break
            u = x % stride
            for v in nbrs[u]:
                sp, sq = sig[u, v]
                np_, nq = p + sp, q + sq
                y = v + a * np_ + b * nq
                if y not in tree:
                    tree[y] = (d + 1, np_, nq)
                    queue.append(y)
                    continue
                dv, pv, qv = tree[y]
                if (np_ != pv or nq != qv) and d + 1 + dv < bound and allowed(np_ - pv, nq - qv):
                    bound, first = d + 1 + dv, r
    if first is None:
        return best_len, best_witness
    witness = _closed_walk_search(T, basis, first, allowed, bound + 1, cover)
    assert len(witness) == bound
    return bound, witness


def shortest_nonseparating(T: SimplicialTorus, basis: HomologyBasis | None = None):
    """(m, witness): minimum length over all non-separating simple cycles.
    Roots run 1..n: the first to attain m is the least of its orbit, so the
    witness is that of a search from orbit representatives, with no group."""
    if basis is None:
        basis = homology_basis(T)
    best = min(basis.fundamental_cycles, key=len)
    best_len, witness = _shortest_admissible(
        T, basis, range(1, T.n_vertices + 1), lambda p, q: True,
        len(best), tuple(best.vertices))
    cyc = Cycle(witness).canonical()
    assert len(cyc) == best_len
    return best_len, cyc


def marked_type(T: SimplicialTorus, M: Cycle, basis: HomologyBasis | None = None):
    """(m_M, k_M) for the marked torus (T, M).

    m_M: shortest cycle in the class +-[M]; k_M: shortest non-separating
    cycle in a class not proportional to [M].  m_M is read off BFS-tree
    loops in the cyclic cover of det([M], x) (module docstring); when the
    least such walk is not simple, a bounded search of the simple cycles of
    class +-[M] decides it.
    """
    if basis is None:
        basis = homology_basis(T)
    c = cycle_signature(T, basis, M)
    if c.is_zero():
        raise SeparatingMark(M.vertices)

    # proportional search: the nonzero classes of the cover of det(c, x)
    m_M, witness = _shortest_admissible(
        T, basis, range(1, T.n_vertices + 1), lambda p, q: True,
        len(M), tuple(M.vertices), (-c.q, c.p))
    if len(set(witness)) == len(witness):
        wit_cycle = Cycle(witness)
    else:
        # the least proportional walk is not simple: search the simple
        # cycles of class +-c, which M itself caps
        m_M, wit_cycle = _shortest_simple_in_class(T, basis, c, m_M, len(M), M)
    k_M, k_wit = _k_search(T, basis, M, c)
    return (m_M, k_M), (wit_cycle.canonical(), k_wit)


def _k_search(T, basis, M, c):
    """(k_M, witness): the shortest non-separating cycle through a vertex of
    M, in M's order, in a class not proportional to c = [M] != 0."""
    # the fundamental cycles carry the two unit classes, not both
    # proportional to c != 0
    k_best = min((f for f in basis.fundamental_cycles
                  if not cycle_signature(T, basis, f).proportional_to(c)), key=len)
    cp, cq = c
    k_M, k_wit = _shortest_admissible(
        T, basis, M.vertices, lambda p, q: p * cq - q * cp != 0,
        len(k_best), tuple(k_best.vertices))
    return k_M, Cycle(k_wit).canonical()


def _shortest_simple_in_class(T, basis, c, lo, hi, fallback_cycle):
    """(length, cycle): the first simple cycle of class +-c found by
    depth-first search, shortest first and root by root, over the lengths
    lo..hi - 1; (hi, fallback_cycle) when there is none."""
    sig, nbrs = basis.edge_sig, T.neighbors
    ends = {(c.p, c.q), (-c.p, -c.q)}

    def extend(path, p, q, left):  # left: edges still to walk
        u = path[-1]
        for v in nbrs[u]:
            sp, sq = sig[u, v]
            if left == 1:
                if v == path[0] and (p + sp, q + sq) in ends:
                    return path
            elif v not in path and min(abs(p + sp - c.p), abs(p + sp + c.p)) < left:
                found = extend(path + [v], p + sp, q + sq, left - 1)
                if found:
                    return found
        return None

    for length in range(lo, hi):
        for root in range(1, T.n_vertices + 1):
            found = extend([root], 0, 0, length)
            if found:
                return length, Cycle(found)
    return hi, fallback_cycle


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
    s, ws = _k_search(T, basis, wm, cycle_signature(T, basis, wm))
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
    dist_r = _bfs_dist(_adjacency(cut.faces), cut.right_copy[v])

    on_cycle = set(M.vertices)
    half_ceil = (m + 1) // 2
    split_max = (k - 1) // 2

    right = [0] * (split_max + 1)
    left = [0] * (split_max + 1)
    for w, i in dist.items():
        if i <= split_max:
            if w in on_cycle or dist_r.get(w) == i:
                right[i] += 1
            else:
                left[i] += 1

    rep = DistanceLayerReport(m=m, k=k)
    for i in range(0, min(half_ceil - 1, split_max) + 1):
        rep.a_sizes[i] = right[i]
        if right[i] < 2 * i + 1:
            rep.violated.append(f"|A_{i}| = {right[i]} < {2 * i + 1}")
    for i in range(half_ceil, split_max + 1):
        rep.b_sizes[i] = right[i]
        if right[i] < m:
            rep.violated.append(f"|B_{i}| = {right[i]} < {m}")
    for i in range(1, min(half_ceil, split_max) + 1):
        rep.e_sizes[i] = left[i]
        if left[i] < 2 * i - 1:
            rep.violated.append(f"|E_{i}| = {left[i]} < {2 * i - 1}")
    for i in range(half_ceil + 1, split_max + 1):
        rep.d_sizes[i] = left[i]
        if left[i] < m:
            rep.violated.append(f"|D_{i}| = {left[i]} < {m}")
    if k % 2 == 0:
        vk = sum(i == k // 2 for i in dist.values())
        rep.c_size = vk
        if vk < m:
            rep.violated.append(f"|C_{k // 2}| = {vk} < {m}")
    # BFS distance classes are contiguous: V_i is empty exactly past the last
    for i in range(max(dist.values()) + 1, k // 2 + 1):
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


def _adjacency(faces):
    """Vertex -> the vertices of its faces (itself included, which BFS skips)."""
    adj = {}
    for f in faces:
        for u in f:
            adj.setdefault(u, set()).update(f)
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
