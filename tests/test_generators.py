"""Named complexes: the 7-vertex torus, the minimal 3xk series, tubes."""

import pytest
from oracles import oracle_vertex_orbits

from polytorus.cycles import stick_number_and_type
from polytorus.errors import InvalidK
from polytorus.generators import (
    cyclic_symmetry,
    hamiltonian_sequence,
    minimal_torus_3k,
    tube_complex,
)
from polytorus.surfaces import automorphism_group, is_isomorphic


def test_moebius_structure(moebius):
    assert moebius.n_vertices == 7
    assert len(moebius.faces) == 14
    assert all(moebius.degree(v) == 6 for v in range(1, 8))
    assert stick_number_and_type(moebius).type_str == "3x3"


def test_minimal3k_counts_and_type():
    for k in list(range(3, 9)) + [100]:
        T = minimal_torus_3k(k)
        assert T.n_vertices == 3 * k - 2
        assert len(T.faces) == 2 * (3 * k - 2)
        assert stick_number_and_type(T).type_str == f"3x{k}"


def test_minimal3k_equivelar_degree6():
    for k in range(3, 13):
        T = minimal_torus_3k(k)
        assert {T.degree(v) for v in range(1, T.n_vertices + 1)} == {6}


def test_minimal3k_cyclic_automorphism():
    for k in range(3, 13):
        T = minimal_torus_3k(k)
        sigma = cyclic_symmetry(k)
        faces = set(T.faces)
        assert all(tuple(sorted(sigma[v] for v in f)) in faces for f in T.faces)


def test_minimal3k_hamiltonian_cycle():
    for k in range(3, 13):
        T = minimal_torus_3k(k)
        seq = hamiltonian_sequence(k)
        assert sorted(seq) == list(range(1, 3 * k - 1))
        assert all(T.has_edge(seq[i], seq[(i + 1) % len(seq)])
                   for i in range(len(seq)))


def test_minimal3k_k3_is_moebius(moebius):
    T = minimal_torus_3k(3)
    assert set(T.faces) == set(moebius.faces)
    assert is_isomorphic(T, moebius) is not None


def test_minimal3k_vertex_transitive():
    T = minimal_torus_3k(4)
    assert oracle_vertex_orbits(T, automorphism_group(T)) == [tuple(range(1, 11))]


def test_tube_complex_structure():
    for k in (3, 4, 6, 8):
        T = tube_complex(k)
        assert T.n_vertices == 3 * k
        assert len(T.faces) == 6 * k
        assert {T.degree(v) for v in range(1, 3 * k + 1)} == {6}


def test_tube_types():
    for k in list(range(3, 9)) + [100]:
        assert stick_number_and_type(tube_complex(k)).type_str == f"3x{k}"


def test_invalid_k():
    with pytest.raises(InvalidK):
        minimal_torus_3k(2)
    with pytest.raises(InvalidK):
        tube_complex(2)
