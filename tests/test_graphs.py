import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from homdom import graphs
from homdom.errors import GraphTooLarge, MalformedInput, NotChordal
from homdom.graphs import (
    Graph,
    bits_of,
    clique_tree,
    cycle,
    disjoint_union,
    expand_components,
    from_edges,
    is_chordal,
    is_series_parallel,
    maximal_cliques,
    parse_graph,
    parse_graph_spec,
    path,
    serialize_graph,
    star,
)
from conftest import (
    adjacency_fault, brute_force_chordal, brute_force_k4_minor, complete, has_edge,
    labeled_graphs, mask_of, random_graph,
)


def test_path_basics():
    p0 = path(0)
    assert p0.n == 1 and p0.edge_count == 0
    p1 = path(1)
    assert p1.n == 2 and p1.edges() == [(0, 1)]
    p3 = path(3)
    assert p3.n == 4 and p3.edges() == [(0, 1), (1, 2), (2, 3)]


def test_disjoint_union_counts():
    u = disjoint_union([(path(0), 2), (path(5), 3)])
    assert u.n == 20 and u.edge_count == 15

    # splitting a union of connected parts gives back the parts, equal
    # parts merged, in the order of their first copy
    rng = random.Random(5)
    pool = [path(0), path(1), path(3), cycle(3), cycle(4), star(3), complete(4)]
    for _ in range(300):
        parts = [(rng.choice(pool), rng.randint(0, 3)) for _ in range(rng.randint(1, 5))]
        expected = {}
        for g, m in parts:
            if m:
                expected[g] = expected.get(g, 0) + m
        assert expand_components(disjoint_union(parts)) == list(expected.items())

    g = path(4)
    assert disjoint_union([(g, 1)]).adj == g.adj

    two_edges = disjoint_union([(path(1), 2)])
    assert two_edges.n == 4 and two_edges.edges() == [(0, 1), (2, 3)]


class _Unbuilt:
    """A one-vertex part whose rows must not be read."""

    n = 1

    @property
    def adj(self):
        pytest.fail("the union built rows before it checked the vertex count")


def test_graphs_past_the_cap_are_refused_before_they_are_built():
    # n rows of up to n bits would take memory quadratic in n
    tracemalloc.start()
    try:
        for build in (path, cycle, star):
            with pytest.raises(GraphTooLarge):
                build(100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    for part in (_Unbuilt(), path(0)):
        with pytest.raises(GraphTooLarge):
            disjoint_union([(part, 10**9)])


def test_expand_components_groups_equal_parts():
    u = disjoint_union([(path(0), 2), (path(3), 1), (path(0), 1)])
    comps = dict((g.n, m) for g, m in expand_components(u))
    assert comps == {1: 3, 4: 1}
    # components come back relabeled from 0
    g = from_edges(5, [(0, 1), (3, 4)])
    comps = expand_components(g)
    assert sorted(m for _, m in comps) == [1, 2]


def test_maximal_cliques_examples():
    assert maximal_cliques(path(3)) == [0b0011, 0b0110, 0b1100]
    assert maximal_cliques(path(0)) == [0b1]
    assert maximal_cliques(complete(3)) == [0b111]


def test_maximal_cliques_random_invariants():
    rng = random.Random(20240811)
    for _ in range(200):
        n = rng.randint(1, 8)
        G = random_graph(n, rng)
        cliques = maximal_cliques(G)
        covered = 0
        for c in cliques:
            verts = bits_of(c)
            for i, u in enumerate(verts):
                for v in verts[i + 1 :]:
                    assert has_edge(G, u, v)
                    covered |= mask_of([u]) | mask_of([v])
        for a in cliques:
            for b in cliques:
                assert a == b or (a & b) not in (a, b)  # non-nested
        for u, v in G.edges():
            assert any((c >> u & 1) and (c >> v & 1) for c in cliques)


def test_is_chordal_examples():
    assert is_chordal(disjoint_union([(path(2), 2), (path(0), 1)]))[0]
    assert not is_chordal(cycle(4))[0]
    assert is_chordal(complete(4))[0]


def test_is_chordal_vs_brute_force_exhaustive_n5():
    for n in range(1, 6):
        for G in labeled_graphs(n):
            assert is_chordal(G)[0] == brute_force_chordal(G)


def test_is_chordal_vs_brute_force_sampled_n7():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(4, 7)
        G = random_graph(n, rng)
        assert is_chordal(G)[0] == brute_force_chordal(G)


def test_peo_is_returned_and_valid():
    ok, elim = is_chordal(path(3))
    assert ok and sorted(elim) == [0, 1, 2, 3]


def _check_running_intersection(G, tree):
    # cliques containing any fixed vertex must form a connected subforest
    adj = {i: set() for i in range(len(tree.cliques))}
    for a, b in tree.edges:
        adj[a].add(b)
        adj[b].add(a)
    for v in range(G.n):
        holds = [i for i, c in enumerate(tree.cliques) if c >> v & 1]
        if not holds:
            continue
        seen = {holds[0]}
        frontier = [holds[0]]
        while frontier:
            cur = frontier.pop()
            for nxt in adj[cur]:
                if nxt in holds and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert seen == set(holds), f"vertex {v} spans a disconnected clique set"


def test_clique_tree_examples():
    t = clique_tree(path(3))
    assert t.cliques == (0b0011, 0b0110, 0b1100)
    assert sorted(t.separators) == [0b0010, 0b0100]

    t0 = clique_tree(path(0))
    assert t0.cliques == (1,) and t0.edges == ()

    u = disjoint_union([(path(0), 2), (path(3), 1)])
    tu = clique_tree(u)
    assert len(tu.cliques) == 5
    assert len(tu.edges) == 2  # forest: only inside the P3 component
    seps = sorted(tu.separators)
    assert seps == [mask_of([3]), mask_of([4])]


def test_clique_tree_rejects_nonchordal():
    with pytest.raises(NotChordal):
        clique_tree(cycle(5))


def test_an_imperfect_ordering_is_refused_by_the_forest_walk(monkeypatch):
    # reversed, the visit order 0, 2, 1, 3 eliminates 1 before its
    # neighbours 0 and 2, which are not adjacent: not perfect at vertex 1
    monkeypatch.setattr(graphs, "max_cardinality_search", lambda G: (0, 2, 1, 3))
    assert is_chordal(path(3)) == (False, None)
    with pytest.raises(NotChordal):
        clique_tree(path(3))


def test_max_cardinality_search_visits_the_most_visited_neighbours_exhaustive_n6():
    # every labeled graph with n <= 6: each step visits an unvisited vertex
    # with the most visited neighbours, the smallest such vertex on a tie
    for n in range(0, 7):
        for G in labeled_graphs(n):
            order = graphs.max_cardinality_search(G)
            assert sorted(order) == list(range(n)), (G, order)
            for i, v in enumerate(order):
                visited = mask_of(order[:i])
                weight = {u: (G.adj[u] & visited).bit_count() for u in order[i:]}
                most = max(weight.values())
                assert v == min(u for u in weight if weight[u] == most), (G, order)


def test_clique_tree_running_intersection_random():
    rng = random.Random(99)
    found = 0
    while found < 60:
        n = rng.randint(1, 8)
        G = random_graph(n, rng)
        if not is_chordal(G)[0]:
            continue
        found += 1
        _check_running_intersection(G, clique_tree(G))


def test_clique_forest_is_parent_first_exhaustive_n6():
    # every chordal labeled graph with n <= 6: the ordering is a perfect
    # elimination ordering, the forest lists each parent before its child
    # over a nonzero separator, each component is one tree, and the cliques
    # are the maximal ones with running intersection; every other graph is
    # refused by clique_tree as well
    chordal = 0
    for n in range(0, 7):
        for G in labeled_graphs(n):
            ok, elim = is_chordal(G)
            if not ok:
                with pytest.raises(NotChordal):
                    clique_tree(G)
                continue
            chordal += 1
            for i, v in enumerate(elim):
                later = [u for u in elim[i + 1:] if has_edge(G, u, v)]
                assert all(has_edge(G, a, b) for a, b in combinations(later, 2)), (G, elim)
            tree = clique_tree(G)
            children = [child for _, child in tree.edges]
            assert len(set(children)) == len(children)
            for (parent, child), sep in zip(tree.edges, tree.separators):
                assert parent < child and sep == tree.cliques[parent] & tree.cliques[child] != 0
            roots = [i for i in range(len(tree.cliques)) if i not in children]
            for comp in G.connected_components():
                inside = [i for i in roots if tree.cliques[i] & mask_of(comp)]
                assert len(inside) == 1, (G, tree)
            assert len(set(tree.cliques)) == len(tree.cliques)
            assert set(tree.cliques) == set(maximal_cliques(G))
            _check_running_intersection(G, tree)
    assert chordal == 19049


def test_is_series_parallel_examples():
    assert is_series_parallel(path(5))
    assert not is_series_parallel(complete(4))
    assert is_series_parallel(cycle(4))
    assert is_series_parallel(disjoint_union([(path(0), 3), (cycle(3), 2)]))


def test_is_series_parallel_vs_brute_force():
    verdicts = Counter()
    for n in range(0, 6):  # every labeled graph with n <= 5: 1,100 graphs
        for G in labeled_graphs(n):
            verdict = is_series_parallel(G)
            verdicts[verdict] += 1
            assert verdict == (not brute_force_k4_minor(G))
    assert sum(verdicts.values()) == 1100
    rng = random.Random(46)
    for _ in range(200):
        G = random_graph(7, rng, rng.choice([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]))
        verdict = is_series_parallel(G)
        verdicts[verdict] += 1
        assert verdict == (not brute_force_k4_minor(G)), G
    assert min(verdicts.values()) > 100  # both verdicts are exercised


def test_parse_serialize_examples():
    g = parse_graph("3 2\n0 1\n1 2\n")
    assert g.adj == path(2).adj
    assert parse_graph("1 0\n").n == 1
    with pytest.raises(MalformedInput):
        parse_graph("2 1\n0 0\n")  # self-loop


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n",
        "3 2\n0 1\n",  # missing edge line
        "3 1\n1 0\n",  # unordered endpoints
        "3 1\n0 3\n",  # vertex out of range
        "3 2\n0 1\n0 1\n",  # duplicate edge
        "3 1\n0 1",  # missing trailing newline
        "3 1\n0  1\n",  # double space
        "3 1\n01 2\n",  # leading zero
        "2 1\n0 \u00b9\n",  # superscript one: str.isdigit accepts it, int does not
        "\u0663 0\n",  # Arabic-Indic three: int reads it as 3
        "2 1\n\u0660 1\n",  # Arabic-Indic zero
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(MalformedInput):
        parse_graph(text)


def test_round_trip_random():
    rng = random.Random(123)
    for _ in range(1000):
        n = rng.randint(0, 12)
        G = random_graph(n, rng)
        assert parse_graph(serialize_graph(G)) == G


def test_graph_spec_language():
    assert parse_graph_spec("path:4") == path(4)
    assert parse_graph_spec("cycle:5") == cycle(5)
    u = parse_graph_spec("union:2*path:0+3*path:5")
    assert u == disjoint_union([(path(0), 2), (path(5), 3)])
    # non-ASCII digits too: int rejects a superscript two, and reads an
    # Arabic-Indic three as 3, getting round the no-leading-zero rule
    for bad in ("", "path:", "path:x", "union:", "union:2*cycle:3", "blob", "path:\u00b2",
                "union:\u00b2*path:1", "union:1*path:\u00b2", "path:\u0663", "cycle:\u0663"):
        with pytest.raises(MalformedInput):
            parse_graph_spec(bad)
    # int refuses a numeral of more than 4,300 digits with a ValueError
    for long in ("path:" + "1" * 5000, "union:" + "1" * 5000 + "*path:0", "path:" + "0" * 19):
        with pytest.raises(MalformedInput, match="digits"):
            parse_graph_spec(long)


VALIDATION_SIZES = (1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 62, 63)  # each side of each stride


def _add_fault(kind: str, n: int, rows: list[int], rng: random.Random) -> None:
    v = rng.randrange(n)
    if kind == "range":  # a bit at or past n, up to past the widest stride
        rows[v] |= 1 << rng.randrange(n, n + 70)
    elif kind == "negative":
        rows[v] = ~rows[v] if rng.randrange(2) else -rng.randrange(1, 1 << n)
    elif kind == "loop":
        rows[v] |= 1 << v
    else:  # one bit off the diagonal flipped
        rows[v] ^= 1 << rng.choice([u for u in range(n) if u != v])


def test_graph_validation_agrees_with_the_row_and_pair_scan():
    with pytest.raises(MalformedInput, match=re.escape("not symmetric at {0,1}")):
        Graph(2, (0b10, 0b00))
    with pytest.raises(MalformedInput, match="self-loop at vertex 0"):
        Graph(1, (0b1,))
    with pytest.raises(MalformedInput, match=re.escape("edge (0,2) out of range for n=2")):
        from_edges(2, [(0, 2)])
    # of two faults the scan's first wins: any row fault before any pair, the
    # lower row, a range fault before a self-loop in one row, and of two
    # pairs the one whose larger vertex is smaller
    for n, rows, message in [
        (6, (0b100000, 0, 0, 0b10000, 0, 0), "adjacency not symmetric at {3,4}"),
        (6, (0b10, 0, 0, 0, 0b10000, 0), "self-loop at vertex 4"),
        (4, (0, 0b10, 0, 0b10000), "self-loop at vertex 1"),
        (4, (-1, 0, 0b10000, 0), "adjacency row 0 references missing vertices"),
        (3, (0, 0b1010, 0), "adjacency row 1 references missing vertices"),
    ]:
        assert adjacency_fault(n, rows) == message
        with pytest.raises(MalformedInput, match=re.escape(message)):
            Graph(n, rows)
    rng = random.Random(30)
    kinds = ("range", "negative", "loop", "flip")
    for n in VALIDATION_SIZES:
        seen = set()
        for _ in range(80):
            rows = list(random_graph(n, rng, Fraction(rng.randrange(1, 4), 4)).adj)
            for kind in rng.choices(kinds if n > 1 else kinds[:3], k=rng.randrange(3)):
                _add_fault(kind, n, rows, rng)
            rows = tuple(rows)
            fault = adjacency_fault(n, rows)
            seen.add(fault and re.sub(r"\d+", "#", fault))
            if fault is None:
                assert Graph(n, rows).adj == rows
            else:
                with pytest.raises(MalformedInput) as refusal:
                    Graph(n, rows)
                assert str(refusal.value) == fault, (n, rows)
        expected = {None, "adjacency row # references missing vertices", "self-loop at vertex #"}
        if n > 1:
            expected.add("adjacency not symmetric at {#,#}")
        assert seen == expected, n


def test_star_and_regularity_helpers():
    s = star(3)
    assert s.n == 4 and s.degree(0) == 3
    assert complete(4).is_regular()
    assert not s.is_regular()
