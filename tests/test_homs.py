import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from homdom.errors import EmptyGraph, MalformedInput
from homdom.graphs import Graph, disjoint_union, from_edges, path
from homdom.homs import (
    Homomorphism,
    average_degree,
    count_homs,
    enumerate_homs,
    normalized_walks,
    walk_count,
    walk_counts,
)
from homdom.checks import labeled_graphs
from conftest import complete, hom_density, matrix_walk_counts, random_graph


def test_homomorphism_validation():
    Homomorphism(path(1), path(2), (0, 1))
    with pytest.raises(MalformedInput):
        Homomorphism(path(1), path(2), (0, 0))  # collapses an edge
    with pytest.raises(MalformedInput):
        Homomorphism(path(1), path(2), (0, 2))  # non-edge image
    with pytest.raises(MalformedInput):
        Homomorphism(path(1), path(2), (0,))  # partial map


def test_enumerate_examples():
    G = random_graph(6, random.Random(5))
    assert sum(1 for _ in enumerate_homs(path(0), G)) == G.n
    assert sum(1 for _ in enumerate_homs(path(1), path(2))) == 4
    n5 = sum(1 for _ in enumerate_homs(path(5), path(3)))
    assert n5 == walk_count(path(3), 5)


def test_enumeration_is_lexicographic_and_duplicate_free():
    maps = [h.map for h in enumerate_homs(path(2), complete(3))]
    assert maps == sorted(maps)
    assert len(set(maps)) == len(maps)


def test_count_examples():
    assert count_homs(path(3), path(1)) == 2
    f1 = disjoint_union([(path(0), 2), (path(3), 1)])
    assert count_homs(f1, path(1)) == 2**2 * 2
    assert count_homs(path(1), complete(3)) == 6


def test_walk_count_examples():
    assert walk_count(path(2), 2) == 6
    assert walk_count(path(2), 3) == 8
    rng = random.Random(11)
    for _ in range(20):
        G = random_graph(rng.randint(0, 7), rng)
        assert walk_count(G, 0) == G.n


def _walk_counts_agree(n, edges, k_max=9):
    G = from_edges(n, edges)
    expected = matrix_walk_counts(n, edges, k_max)
    assert walk_counts(G, range(k_max + 1)) == dict(enumerate(expected))
    assert [walk_count(G, k) for k in range(k_max + 1)] == expected


def test_walk_counts_match_adjacency_matrix_powers():
    # every labeled graph with n <= 5, lengths 0..9
    for n in range(6):
        slots = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(slots)):
            _walk_counts_agree(n, [slots[b] for b in range(len(slots)) if mask >> b & 1])
    rng = random.Random(2024)
    for _ in range(50):
        n = 8
        _walk_counts_agree(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.5])
    # rows of 2^8 or more list their bits instead of reading the neighbour table
    for n in (9, 10, 11, 12):
        for _ in range(5):
            _walk_counts_agree(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.5])
    _walk_counts_agree(10, complete(10).edges())


def test_walk_counts_keep_only_the_vectors_they_read():
    # walks of length 4001 read only v_2000 and v_2001 of the chain; the
    # entries of v_a have about a bits, so keeping all 2,002 vectors peaks
    # at about 3.4 MB on P_9, and keeping the last two at about 10 KB
    G = path(9)
    tracemalloc.start()
    try:
        walk_counts(G, (4001,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_walk_counts_edge_cases():
    empty = Graph(0, ())
    assert walk_counts(empty, range(4)) == {0: 0, 1: 0, 2: 0, 3: 0}
    assert walk_count(empty, 0) == 0
    G = path(3)
    assert walk_counts(G, ()) == {}
    assert walk_counts(G, (5, 3, 5)) == {3: walk_count(G, 3), 5: walk_count(G, 5)}
    assert walk_count(G, 0) == G.n
    with pytest.raises(MalformedInput):
        walk_counts(G, (3, -1))
    with pytest.raises(MalformedInput):
        walk_count(G, -1)


def test_normalized_walks_examples():
    assert normalized_walks(path(2), 2) == 2
    assert normalized_walks(path(2), 1) == Fraction(4, 3)
    assert normalized_walks(complete(3), 5) == 32
    with pytest.raises(EmptyGraph):
        normalized_walks(Graph(0, ()), 1)


def test_hom_density_examples():
    G = random_graph(5, random.Random(3))
    assert hom_density(path(0), G) == 1
    assert hom_density(path(1), path(2)) == Fraction(4, 9)
    assert hom_density(path(2), complete(3)) == Fraction(12, 27)
    with pytest.raises(EmptyGraph):
        hom_density(path(1), Graph(0, ()))


def test_average_degree_examples():
    assert average_degree(path(2)) == Fraction(4, 3)
    assert average_degree(complete(3)) == 2
    assert average_degree(from_edges(5, [])) == 0


def test_oracle_equivalence_small():
    # full n <= 5 sweep lives in the acceptance suite
    for n in range(1, 5):
        for G in labeled_graphs(n):
            for k in range(0, 7):
                w = walk_count(G, k)
                assert count_homs(path(k), G) == w
                assert sum(1 for _ in enumerate_homs(path(k), G)) == w


def test_multiplicativity_over_unions():
    rng = random.Random(17)
    for _ in range(25):
        parts = [
            (random_graph(rng.randint(1, 4), rng), rng.randint(0, 2))
            for _ in range(rng.randint(1, 3))
        ]
        G = random_graph(rng.randint(1, 5), rng)
        expected = 1
        for g, m in parts:
            expected *= count_homs(g, G) ** m
        assert count_homs(disjoint_union(parts), G) == expected


def test_density_multiplicativity():
    rng = random.Random(23)
    for _ in range(25):
        f1 = random_graph(rng.randint(1, 4), rng)
        f2 = random_graph(rng.randint(1, 4), rng)
        G = random_graph(rng.randint(1, 5), rng)
        u = disjoint_union([(f1, 1), (f2, 1)])
        assert hom_density(u, G) == hom_density(f1, G) * hom_density(f2, G)


def test_walks_vs_degree_identities():
    rng = random.Random(31)
    for _ in range(40):
        G = random_graph(rng.randint(1, 7), rng)
        assert normalized_walks(G, 1) == average_degree(G)
    # d-regular graphs: w_k = d^k exactly
    four_cycle = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for G in (complete(4), complete(2), four_cycle):
        d = average_degree(G)
        for k in range(6):
            assert normalized_walks(G, k) == d**k


def test_no_edges_target_gives_zero():
    G = from_edges(4, [])
    assert count_homs(path(2), G) == 0
    assert count_homs(path(0), G) == 4


def test_enumeration_with_an_empty_target():
    empty = Graph(0, ())
    assert [h.map for h in enumerate_homs(empty, empty)] == [()]
    assert list(enumerate_homs(path(0), empty)) == []
    assert list(enumerate_homs(path(2), empty)) == []


def test_empty_source_graph():
    empty = Graph(0, ())
    assert count_homs(empty, path(3)) == 1
    assert [h.map for h in enumerate_homs(empty, path(3))] == [()]
