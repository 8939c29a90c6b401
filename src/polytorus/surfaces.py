"""Triangulated closed surfaces as pure combinatorics.

A surface is a list of vertex triples on labels 1..n.  Validation enforces
the closed-pseudomanifold conditions (every edge in exactly two faces, every
vertex link a single cycle), computes the Euler characteristic and checks
orientability by propagating face orientations.

Isomorphism machinery works through a canonical labeling: a traversal of the
face-adjacency structure started from a *flag* (an ordered face) relabels the
vertices deterministically, and the lexicographic minimum over all flags is a
relabeling-invariant normal form.  The published form (``canonical_form``)
is the least sorted relabeled face list (``_canonical_scan`` prunes its walks).

The canonical key, which deduplicates census completions and decides
isomorphism, is cheaper.  It is the minimum of the *visit-order* codes, the
relabeled faces in the order the traversal visits them, and only the start
flags (a, b, c) are tried: a minimizes the invariant (degree, sorted
neighbour degrees), and b minimizes it among a's neighbours.  That set is
preserved by isomorphism.  Each traversal compares its faces with the best
code so far and stops at the first larger one.  The flags that tie the
minimum are one orbit of the automorphism group, so their number is |Aut|,
and the group is the key's tie set: each tie, read through the first, is one
automorphism (``automorphism_group``).

Combinatorial core
------------------
A ``SimplicialTorus`` keeps one edge map (sorted edge -> indices of its two
faces, in face order) and one orientation, both adopted from the validator
or, for unvalidated tori, built on first use.  From the orientation it
derives, once, its rotation system: for each directed edge (u, v), the face
whose oriented boundary runs u -> v -> w, and w.  That one map gives the
left face of each directed edge, the face at each corner, the vertex
opposite each face edge and the cyclic rotation (link) at each vertex; the
links, the homology signatures, cutting along cycles and every flag
traversal read it.  Face lists being validated get their edge map from
``_edge_map``, built once per list.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import (
    BadVertexLink,
    DuplicateFace,
    NonManifoldEdge,
    NotACycle,
    PolytorusError,
    read_input,
)

Face = tuple[int, int, int]
Edge = tuple[int, int]


def _norm_face(face) -> Face:
    a, b, c = face
    if a == b or b == c or a == c:
        raise PolytorusError(f"degenerate face {tuple(face)}")
    x, y, z = sorted((a, b, c))
    return (x, y, z)


def _face_edges(face: Face):
    a, b, c = face
    return ((a, b), (a, c), (b, c))


@dataclass(frozen=True)
class SurfaceReport:
    """Simplex counts and topological type of a validated closed surface.

    ``edge_faces`` and ``oriented_faces`` are the validator's edge map and
    orientation (None when the surface is not orientable); a
    ``SimplicialTorus`` adopts them instead of building its own.
    """

    n_vertices: int
    n_edges: int
    n_faces: int
    euler: int
    orientable: bool
    genus: int
    edge_faces: dict | None = field(default=None, repr=False, compare=False)
    oriented_faces: list | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class Cycle:
    """Simple closed edge path; the last vertex connects back to the first."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 3:
            raise NotACycle(f"cycle needs >= 3 vertices, got {verts}")
        if len(set(verts)) != len(verts):
            raise NotACycle(f"repeated vertex in cycle {verts}")

    def __len__(self):
        return len(self.vertices)

    def directed_edges(self):
        v = self.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def canonical(self) -> "Cycle":
        """Lexicographically least presentation over rotations and reflection."""
        v = list(self.vertices)
        best = None
        for seq in (v, v[::-1]):
            start = seq.index(min(seq))
            rot = tuple(seq[start:] + seq[:start])
            if best is None or rot < best:
                best = rot
        return Cycle(best)


def validate_surface(faces) -> SurfaceReport:
    """Check the closed-pseudomanifold conditions and report counts.

    Raises DuplicateFace / NonManifoldEdge / BadVertexLink with the offending
    simplex.  Accepts any closed surface (sphere, torus, Klein bottle, ...);
    callers wanting a torus check the report.
    """
    if not faces:
        raise PolytorusError("empty face list")
    norm = []
    seen = set()
    for f in faces:
        nf = _norm_face(f)
        if nf[0] < 1:
            raise PolytorusError(f"vertex labels must be positive, got {nf}")
        if nf in seen:
            raise DuplicateFace(nf)
        seen.add(nf)
        norm.append(nf)

    edge_faces = _edge_map(norm)
    for e, fs in edge_faces.items():
        if len(fs) != 2:
            raise NonManifoldEdge(e, len(fs))

    links = _link_edges(norm)
    vertices = sorted(links)
    for v in vertices:
        _walk_link(v, links[v])
    if _face_components(norm, edge_faces) != 1:
        raise PolytorusError("face complex is not connected")

    V, E, F = len(vertices), len(edge_faces), len(norm)
    euler = V - E + F
    oriented = _orient_faces(norm, edge_faces)
    orientable = oriented is not None
    genus = (2 - euler) // 2 if orientable else 2 - euler
    return SurfaceReport(V, E, F, euler, orientable, genus, edge_faces, oriented)


def _edge_map(faces) -> dict[Edge, list[int]]:
    """Sorted edge -> indices of the sorted faces containing it, in face order."""
    edge_faces: dict[Edge, list[int]] = {}
    for i, f in enumerate(faces):
        for e in _face_edges(f):
            edge_faces.setdefault(e, []).append(i)
    return edge_faces


def _face_components(faces, edge_faces) -> int:
    """Number of components of the faces, adjacent when they share an edge."""
    seen = [False] * len(faces)
    comps = 0
    for i in range(len(faces)):
        if seen[i]:
            continue
        comps += 1
        seen[i] = True
        queue = deque([i])
        while queue:
            for e in _face_edges(faces[queue.popleft()]):
                for j in edge_faces[e]:
                    if not seen[j]:
                        seen[j] = True
                        queue.append(j)
    return comps


def _link_edges(faces):
    """Vertex -> its link edges (link vertex -> the link vertices joined to
    it), from one pass over the faces."""
    links: dict[int, dict[int, list[int]]] = {}
    for a, b, c in faces:
        for v, x, y in ((a, b, c), (b, a, c), (c, a, b)):
            adj = links.setdefault(v, {})
            adj.setdefault(x, []).append(y)
            adj.setdefault(y, []).append(x)
    return links


def _walk_link(v, adj):
    """The link of v as one cycle, from its edges ``adj``, or raise BadVertexLink."""
    if not adj:
        raise BadVertexLink(v, "isolated vertex")
    for w, nbrs in adj.items():
        if len(nbrs) != 2:
            raise BadVertexLink(v, f"link vertex {w} has degree {len(nbrs)}")
    start = min(adj)
    cycle = [start]
    prev, cur = None, start
    while True:
        a, b = adj[cur]
        nxt = b if a == prev else a
        if nxt == start:
            break
        cycle.append(nxt)
        prev, cur = cur, nxt
        if len(cycle) > len(adj):
            raise BadVertexLink(v, "link not a single cycle")
    if len(cycle) != len(adj):
        raise BadVertexLink(v, "link has several components")
    return cycle


def _orient_faces(faces, edge_faces):
    """Globally consistent face orientations, or None if non-orientable.

    Returns a list of oriented triples: adjacent faces induce opposite
    directions on their shared edge.
    """
    oriented: list[tuple[int, int, int] | None] = [None] * len(faces)
    oriented[0] = faces[0]
    queue = deque([0])

    def directed(tri):
        a, b, c = tri
        return {(a, b), (b, c), (c, a)}

    while queue:
        i = queue.popleft()
        di = directed(oriented[i])
        for e in _face_edges(faces[i]):
            j = next(x for x in edge_faces[e] if x != i) if len(edge_faces[e]) == 2 else None
            if j is None:
                continue
            u, v = e
            # the neighbor must carry e in the opposite direction
            want = (u, v) if (v, u) in di else (v, u)
            a, b, c = faces[j]
            w = next(x for x in (a, b, c) if x not in e)
            tri = (want[0], want[1], w)
            if oriented[j] is None:
                oriented[j] = tri
                queue.append(j)
            elif directed(oriented[j]) != directed(tri):
                return None
    return oriented


class SimplicialTorus:
    """Immutable validated triangulation of the 2-torus.

    Vertices are the dense labels 1..n; sparse input labels are compacted on
    construction and the mapping is kept in ``relabeling`` (old -> new).
    """

    def __init__(self, faces, _skip_validation=False):
        compact, mapping = _compact_labels(faces)
        self.relabeling = mapping
        self.faces: tuple[Face, ...] = tuple(sorted(_norm_face(f) for f in compact))
        if not _skip_validation:
            report = validate_surface(self.faces)
            if report.euler != 0 or not report.orientable:
                raise PolytorusError(
                    f"not a torus: euler={report.euler}, orientable={report.orientable}")
        else:
            V = len({v for f in self.faces for v in f})
            report = SurfaceReport(V, 3 * V, 2 * V, 0, True, 1)
        self.report = report
        self.n_vertices = report.n_vertices
        self._edge_faces = report.edge_faces
        self._oriented = report.oriented_faces
        self._neighbors = None
        self._rotation = None

    # -- cached structure ---------------------------------------------------

    @property
    def edge_faces(self) -> dict[Edge, list[int]]:
        """Sorted edge -> indices of its two faces, in face order."""
        if self._edge_faces is None:
            self._edge_faces = _edge_map(self.faces)
        return self._edge_faces

    @property
    def edges(self):
        return sorted(self.edge_faces)

    @property
    def neighbors(self) -> dict[int, tuple[int, ...]]:
        if self._neighbors is None:
            nb: dict[int, set[int]] = {v: set() for v in range(1, self.n_vertices + 1)}
            for u, v in self.edge_faces:
                nb[u].add(v)
                nb[v].add(u)
            self._neighbors = {v: tuple(sorted(s)) for v, s in nb.items()}
        return self._neighbors

    @property
    def oriented_faces(self):
        """Face triples oriented consistently, or None if not orientable."""
        if self._oriented is None:
            self._oriented = _orient_faces(self.faces, self.edge_faces)
        return self._oriented

    @property
    def rotation(self) -> dict[Edge, tuple[int, int]]:
        """Directed edge (u, v) -> (i, w) where oriented face i runs u -> v -> w.

        Face i is the left face of (u, v) and the face at the corner of u
        between v and w; w is the vertex opposite (u, v) in it and follows v
        in the cyclic rotation at u.
        """
        if self._rotation is None:
            rot = {}
            for i, (a, b, c) in enumerate(self.oriented_faces):
                rot[a, b] = (i, c)
                rot[b, c] = (i, a)
                rot[c, a] = (i, b)
            self._rotation = rot
        return self._rotation

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edge_faces

    def require_cycle(self, cycle: Cycle):
        for e in cycle.directed_edges():
            if not self.has_edge(*e):
                raise NotACycle(f"consecutive pair {e} is not an edge")

    def __eq__(self, other):
        return isinstance(other, SimplicialTorus) and self.faces == other.faces

    def __hash__(self):
        return hash(self.faces)

    def __repr__(self):
        return f"SimplicialTorus(n={self.n_vertices}, F={len(self.faces)})"


def _compact_labels(faces):
    labels = sorted({v for f in faces for v in f})
    mapping = {old: i + 1 for i, old in enumerate(labels)}
    if all(old == new for old, new in mapping.items()):
        return faces, mapping
    return [tuple(mapping[v] for v in f) for f in faces], mapping


def vertex_link(T: SimplicialTorus, v: int) -> Cycle:
    """Cyclically ordered neighbors of v; length equals deg(v).

    The link starts at the least neighbor s and runs towards the third
    vertex of the first face on edge {v, s}, as the validator walks it.
    """
    if not 1 <= v <= T.n_vertices:
        raise PolytorusError(f"vertex {v} out of range 1..{T.n_vertices}")
    rot = T.rotation
    s = T.neighbors[v][0]
    link = [s]
    while (w := rot[v, link[-1]][1]) != s:
        link.append(w)
    if rot[v, s][0] != T.edge_faces[min(v, s), max(v, s)][0]:
        link[1:] = link[:0:-1]
    return Cycle(tuple(link))


# -- canonical form and isomorphism -------------------------------------------


def _flags(face):
    """The six oriented triples of a face, in a fixed order."""
    a, b, c = face
    return ((a, b, c), (b, c, a), (c, a, b), (a, c, b), (c, b, a), (b, a, c))


def _traverse_flag(T: SimplicialTorus, flag, best=None):
    """Deterministic relabeling induced by one oriented starting face.

    ``flag`` is an oriented triple (a, b, c) of some face.  Faces are visited
    breadth-first; crossing edge (x, y) of an oriented face enters the
    neighbor as (y, x, w), so the traversal depends only on the combinatorial
    structure.  Returns (code, labeling old->new), where the code lists the
    relabeled faces as sorted triples in visit order; sorted, it is the face
    list of the relabeled torus.  Every entered triple runs with the
    orientation iff the flag does, so the neighbor across (u, v) is the left
    face of (v, u) if the flag runs with the orientation, else of (u, v).

    With ``best`` (the code of another traversal), returns None at the first
    visited face above the face at the same place in ``best``; at the first
    face below it the traversal stops comparing and runs to the end.
    """
    rot = T.rotation
    a, b, c = flag
    labels = {a: 1, b: 2, c: 3}
    nxt = 4
    fi, w = rot[a, b]
    forward = w == c
    if not forward:
        fi = rot[b, a][0]
    visited = [False] * len(T.faces)
    visited[fi] = True
    queue = deque([(a, b, c)])
    out = []
    while queue:
        x, y, z = queue.popleft()
        p, q, r = labels[x], labels[y], labels[z]
        if p > q:
            p, q = q, p
        if q > r:
            q, r = r, q
            if p > q:
                p, q = q, p
        face = (p, q, r)
        if best is not None and face != best[len(out)]:
            if face > best[len(out)]:
                return None
            best = None
        out.append(face)
        for u, v in ((x, y), (y, z), (z, x)):
            j, w = rot[v, u] if forward else rot[u, v]
            if not visited[j]:
                visited[j] = True
                if w not in labels:
                    labels[w] = nxt
                    nxt += 1
                queue.append((v, u, w))
    return out, labels


def _form_labels(T: SimplicialTorus, flag, best):
    """``_traverse_flag``'s labeling, or None if its form is not below ``best``."""
    (a, b, c), rot, nbrs = flag, T.rotation, T.neighbors
    labels, order = {a: 1, b: 2, c: 3}, [0, a, b, c]  # order[m] is labeled m
    forward = rot[a, b][1] == c
    visited = {rot[a, b][0] if forward else rot[b, a][0]}
    queue = [flag]
    m, k = 1, 0  # the next block to compare, and where it starts in best
    for x, y, z in queue:  # breadth-first: the loop reaches appended faces
        for u, v in ((x, y), (y, z), (z, x)):
            j, w = rot[v, u] if forward else rot[u, v]
            if j not in visited:
                visited.add(j)
                queue.append((v, u, w))
                if w not in labels:
                    labels[w] = len(order)
                    order.append(w)
        while best and m < len(order) and all(u in labels for u in nbrs[order[m]]):
            vm = order[m]
            block = tuple(sorted((m, p, q) if p < q else (m, q, p) for u in nbrs[vm]
                                 if (p := labels[u]) > m and (q := labels[rot[vm, u][1]]) > m))
            if block > best[k:k + len(block)]:
                return None
            best = best if block == best[k:k + len(block)] else None
            m, k = m + 1, k + len(block)
    return None if best else labels


def _canonical_scan(T: SimplicialTorus, ties=None):
    """Least sorted form over all flags, with the first labeling attaining it
    in flag order.  Flag (a, b, c) gives (1,2,3), (1,2,4), (1,3,x), x = 4 iff
    the vertices across {a, b} and {a, c} agree, iff deg(a) = 3, else x = 5
    or 6: if T has a degree-3 vertex, only flags at one are walked.  Walks
    compare blocks (block m: faces with least label m, final once m's
    neighbours are labeled) with the best form's in order, to the first that
    differs.  Forms equal before block m have it as m's link cycle less the
    same edges, so neither is a proper prefix of the other.  Automorphisms
    keep degrees and forms: given the key scan's ``ties``, one flag per orbit
    of their group."""
    autos, done = _tie_group(ties)[1:] if ties else (), set()  # [0] is the identity
    degree3 = 3 in map(len, T.neighbors.values())
    form = labeling = None
    for f in T.faces:
        for flag in _flags(f):
            if flag in done or degree3 and T.degree(flag[0]) != 3:
                continue
            done.update(tuple(g[v] for v in flag) for g in autos)
            if labels := _form_labels(T, flag, form):
                labeling = labels
                form = tuple(sorted(tuple(sorted(labels[v] for v in t)) for t in T.faces))
    return form, labeling


def canonical_form(T: SimplicialTorus, ties=None):
    """Relabeling-invariant representative of the isomorphism class: the
    least sorted relabeled face list over all flags.  ``ties``, the tie
    labelings of T's key scan, let the scan skip the orbits of Aut(T)."""
    return _canonical_scan(T, ties)[0]


def _start_pairs(nbrs) -> set[Edge]:
    """The (a, b) of the key's start flags (a, b, c), from ``nbrs`` (vertex ->
    its neighbours): a minimizes the invariant (degree, sorted neighbour
    degrees), and b minimizes it among a's neighbours."""
    inv = {v: (len(ns), sorted(len(nbrs[u]) for u in ns)) for v, ns in nbrs.items()}
    low = min(inv.values())
    return {(a, b) for a, ns in nbrs.items() if inv[a] == low
            for b in ns if inv[b] == min(inv[u] for u in ns)}


def _key_scan(T: SimplicialTorus):
    """Minimum visit-order code over the start flags (``_start_pairs``).

    Each traversal stops at its first face above the best code so far.
    Returns the key (that code as a tuple) and the labelings of the flags
    attaining it, in flag order.
    """
    pairs = _start_pairs(T.neighbors)
    best = None
    ties = []
    for f in T.faces:
        for flag in _flags(f):
            if flag[:2] not in pairs:
                continue
            match = _traverse_flag(T, flag, best)
            if match is None:
                continue
            code, labels = match
            if code == best:
                ties.append(labels)
            else:
                best, ties = code, [labels]
    return tuple(best), ties


def canonical_key(T: SimplicialTorus) -> tuple[tuple[Face, ...], int]:
    """Relabeling-invariant key of the isomorphism class, and |Aut(T)|.

    The key is the least visit-order code over the start flags, which are
    defined by invariants, so two tori have equal keys exactly when they are
    isomorphic.  It differs from the sorted ``canonical_form`` and costs far
    less.  The flags that attain it form one orbit of the automorphism
    group, which acts freely on flags, so their number is the group order.
    """
    key, ties = _key_scan(T)
    return key, len(ties)


def _tie_group(ties) -> list[dict[int, int]]:
    """The automorphisms v -> inv0(tie(v)) of the key scan's tie labelings,
    where inv0 inverts the first tie; that one gives the identity."""
    inv = {new: old for old, new in ties[0].items()}
    return [{v: inv[new] for v, new in tie.items()} for tie in ties]


def automorphism_group(T: SimplicialTorus) -> list[dict[int, int]]:
    """All face-preserving vertex bijections, the identity first.

    The key's tie flags are one orbit of Aut, which acts freely on flags:
    each tie, read through the first, is one automorphism, and each
    automorphism arises from exactly one tie, in whose order the list runs.
    Each call runs the key scan and returns fresh dicts.
    """
    return _tie_group(_key_scan(T)[1])


def is_isomorphic(T1: SimplicialTorus, T2: SimplicialTorus):
    """A vertex bijection carrying faces of T1 onto faces of T2, or None."""
    if T1.n_vertices != T2.n_vertices or len(T1.faces) != len(T2.faces):
        return None
    key1, ties1 = _key_scan(T1)
    key2, ties2 = _key_scan(T2)
    if key1 != key2:
        return None
    inv2 = {new: old for old, new in ties2[0].items()}
    return {v: inv2[new] for v, new in ties1[0].items()}


# -- text format ----------------------------------------------------------------


def format_complex(T: SimplicialTorus) -> str:
    lines = [str(T.n_vertices)]
    lines += [f"{a} {b} {c}" for a, b, c in T.faces]
    return "\n".join(lines) + "\n"


def parse_int(token: str) -> int:
    """int() on the tokens ``parse_rational`` takes: ASCII, without '_'."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not an ASCII integer literal: {token!r}")
    return int(token)


def parse_complex(text: str) -> SimplicialTorus:
    """Parse the text format: first line n, then one face per line, each
    three labels in 1..n.

    Lines starting with '#' (and inline '#' tails) are comments.
    """
    n = None
    faces = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            try:
                (n,) = map(parse_int, parts)
            except ValueError:
                raise PolytorusError(
                    f"line {line_no}: expected vertex count, got {raw!r}") from None
            continue
        if len(parts) != 3:
            raise PolytorusError(f"line {line_no}: expected 3 vertex labels, got {raw!r}")
        try:
            face = tuple(parse_int(p) for p in parts)
        except ValueError:
            raise PolytorusError(f"line {line_no}: expected integers, got {raw!r}") from None
        for label in face:
            if not 1 <= label <= n:
                raise PolytorusError(f"line {line_no}: label {label} is outside 1..{n}")
        faces.append(face)
    if n is None:
        raise PolytorusError("missing vertex count line")
    T = SimplicialTorus(faces)
    if T.n_vertices != n:
        raise PolytorusError(
            f"header says {n} vertices but faces use {T.n_vertices}")
    return T


def load_complex(path) -> SimplicialTorus:
    return parse_complex(read_input(path))
