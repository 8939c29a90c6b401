"""Constructors for the named torus triangulations.

Three families:

* the 7-vertex torus (two cyclic families of triangles mod 7),
* the vertex-minimal torus of type 3xk on 3k-2 vertices, generated as two
  orbits of seed triangles under its cyclic symmetry,
* the 3k-vertex tube complex: k rings of three vertices, consecutive rings
  joined by six prism-mantle triangles.

The 3k-2 torus is *not* transcribed from a picture.  Its triangulation is
pinned down by two facts: the middle strip of the cut-open surface is forced
triangle by triangle (faces (2,3,5) and (3,5,6) start the two zigzag
families), and the full complex is invariant under the vertex cycle

    sigma = (1, 4, 7, ..., 3k-2, 3, 6, ..., 3k-3, 2, 5, ..., 3k-4).

Since sigma acts with two face orbits of full length, the whole face list is
the sigma-orbit of the two seed triangles.  Correctness is certified by the
test suite (isomorphism with the 7-vertex torus at k=3, census uniqueness at
k=4, recomputed type 3xk).
"""

from __future__ import annotations

from .errors import InvalidK
from .surfaces import Cycle, SimplicialTorus

# the largest k the constructors accept: 3k - 2 <= 29,998 vertices (k = 10,000
# took 0.6 s and 100 MB on a 2-core host); far larger k would die for lack of memory
K_MAX = 10_000


def _check_k(k: int, hi: int = K_MAX):
    """Raise InvalidK unless 3 <= k <= hi, before anything is built."""
    if not 3 <= k <= hi:
        raise InvalidK(k, None if k < 3 else hi)


def moebius_torus() -> SimplicialTorus:
    """The unique 7-vertex torus: faces {i,i+1,i+3} and {i,i+2,i+3} mod 7."""
    wrap = lambda x: (x - 1) % 7 + 1
    faces = []
    for i in range(1, 8):
        faces.append((i, wrap(i + 1), wrap(i + 3)))
        faces.append((i, wrap(i + 2), wrap(i + 3)))
    return SimplicialTorus(faces)


def cyclic_symmetry(k: int) -> dict[int, int]:
    """The order-(3k-2) vertex cycle acting on the minimal 3xk torus.

    Maps along the sequence 1,4,7,...,3k-2,3,6,...,3k-3,2,5,...,3k-4 and
    wraps around.
    """
    seq = hamiltonian_sequence(k)
    return {seq[i]: seq[(i + 1) % len(seq)] for i in range(len(seq))}


def hamiltonian_sequence(k: int) -> tuple[int, ...]:
    """Vertex order 1,4,...,3k-2,3,6,...,3k-3,2,5,...,3k-4 (one full cycle)."""
    _check_k(k)
    n = 3 * k - 2
    seq = list(range(1, n + 1, 3))        # 1, 4, ..., 3k-2
    seq += list(range(3, n, 3))           # 3, 6, ..., 3k-3
    seq += list(range(2, n - 1, 3))       # 2, 5, ..., 3k-4
    assert len(seq) == n
    return tuple(seq)


def minimal_torus_3k(k: int) -> SimplicialTorus:
    """The unique vertex-minimal torus of type 3xk, on 3k-2 vertices."""
    _check_k(k)
    sigma = cyclic_symmetry(k)
    faces = set()
    for seed in ((2, 3, 5), (3, 5, 6)):
        f = seed
        for _ in range(3 * k - 2):
            faces.add(tuple(sorted(f)))
            f = tuple(sigma[v] for v in f)
    T = SimplicialTorus(sorted(faces))
    assert T.n_vertices == 3 * k - 2 and len(T.faces) == 2 * (3 * k - 2)
    return T


def empty_triangle_3k(k: int) -> Cycle:
    """A length-3 non-separating cycle of minimal_torus_3k(k).

    The triangle (1,2,3) spans three edges of the complex without bounding
    a face, at every k >= 3.
    """
    _check_k(k)
    return Cycle((1, 2, 3))


def tube_complex(k: int) -> SimplicialTorus:
    """3k vertices in k rings of 3; six mantle triangles per prism.

    Ring r carries vertices 3r+1, 3r+2, 3r+3.  Between ring r and ring r+1
    (cyclically) each side quad is split toward the lower-indexed ring
    vertex, matching the geometric tube construction.
    """
    _check_k(k)
    faces = []
    for r in range(k):
        a = [3 * r + 1, 3 * r + 2, 3 * r + 3]
        s = (r + 1) % k
        b = [3 * s + 1, 3 * s + 2, 3 * s + 3]
        for i in range(3):
            j = (i + 1) % 3
            faces.append((a[i], a[j], b[i]))
            faces.append((a[j], b[j], b[i]))
    T = SimplicialTorus(faces)
    assert T.n_vertices == 3 * k and len(T.faces) == 6 * k
    return T


def ring_cycle(k: int, r: int = 0) -> Cycle:
    """The r-th meridian ring (3r+1, 3r+2, 3r+3) of tube_complex(k)."""
    return Cycle((3 * r + 1, 3 * r + 2, 3 * r + 3))
