import random
import re
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import chain, zip_longest

import pytest

from homdom.errors import (
    BadIndex,
    BadParity,
    EmptyGraph,
    EmptyScope,
    GraphTooLarge,
    MalformedInput,
    NotMember,
    ScopeTooLarge,
)
from homdom.graphs import Graph, cycle, disjoint_union, from_edges, path, serialize_graph, star
from homdom.homs import count_homs, walk_counts
from homdom.polytope import SetFunction, indicator_point, p_star, random_vertex_point, separates
from homdom.checks import (
    SAMPLE_BUDGET,
    CheckReport,
    Scope,
    _decimal,
    _rat,
    check_hde_definition,
    check_lemma_identity,
    find_counterexample,
    path_form,
    prove_path_identity,
    sweep,
)
from homdom import checks
from conftest import (
    check_density_form, complete, counterexample_by_graph, definition_by_graph, fixed_value,
    labeled_blocks, labeled_graphs, labeled_graphs_by_mask, labeled_scope, matrix_walk_counts,
    random_graph, scope_graphs, sweep_by_graph, walked_graphs,
)


def test_blakley_roy_examples():
    # w_k >= d^k is the sweep at t = 1, since w_1 = d; its witness sides
    # are w_k and d^k
    rep = sweep(1, 3, Scope.graphs([path(2)]))
    assert rep.verdict == "holds"
    assert rep.witnesses[0]["lhs"] == "8/3" and rep.witnesses[0]["rhs"] == "64/27"

    for G in (complete(3), complete(4)):
        for k in range(1, 5):
            w = sweep(1, k, Scope.graphs([G])).witnesses[0]
            assert w["lhs"] == w["rhs"]  # regular graphs: equality

    rep = sweep(1, 3, Scope.graphs([from_edges(4, [])]))
    assert rep.verdict == "holds" and rep.witnesses[0]["lhs"] == "0/1"

    with pytest.raises(EmptyGraph):
        sweep(1, 2, Scope.graphs([Graph(0, ())]))


def test_walk_inequality_examples():
    assert sweep(1, 3, Scope.graphs([path(2)])).verdict == "holds"

    rep = sweep(2, 3, Scope.graphs([path(2)]))
    assert rep.verdict == "violated"
    assert rep.witnesses[0]["lhs"] == "64/9" and rep.witnesses[0]["rhs"] == "8/1"

    for t, k in ((1, 2), (2, 3), (2, 5)):
        w = sweep(t, k, Scope.graphs([complete(3)])).witnesses[0]
        assert w["lhs"] == w["rhs"]


def test_density_form_agrees_with_walk_form():
    # the CLI prints the walk sweeps for the density form; graph by graph,
    # the two forms must give the same verdict
    for t, k in ((1, 3), (2, 3), (3, 5), (2, 4)):
        verdicts = Counter()
        for G in scope_graphs(labeled_scope(Scope.exhaustive_upto(5))):
            verdict = check_density_form(G, t, k).verdict
            assert verdict == sweep(t, k, Scope.graphs([G])).verdict, (t, k, G)
            verdicts[verdict] += 1
        assert sum(verdicts.values()) == 1099
        # only the odd-k, even-t pair has violations at this scale
        assert bool(verdicts["violated"]) == ((t, k) == (2, 3))


def test_sweep_examples():
    rep = sweep(1, 3, Scope.exhaustive(4))
    assert rep.verdict == "holds" and rep.params["checked"] == 64

    rep = sweep(3, 5, Scope.exhaustive(5))
    assert rep.verdict == "holds" and rep.params["checked"] == 1024

    rep = sweep(2, 3, Scope.exhaustive(3))
    assert rep.verdict == "violated"
    assert rep.params["violations"] > 0
    assert Fraction(rep.params["worst_margin"]) < 0


def test_sweep_random_scope_is_reproducible():
    scope = Scope.random(25, 6, Fraction(1, 3), seed=42)
    a = sweep(1, 3, scope)
    b = sweep(1, 3, Scope.random(25, 6, Fraction(1, 3), seed=42))
    assert a.verdict == b.verdict == "holds"
    assert a.witnesses == b.witnesses


def test_scopes_compare_by_identity():
    # equal kinds with different parameters are different scopes
    pairs = [
        (Scope.exhaustive(3), Scope.exhaustive(5)),
        (Scope.random(3, 5, "1/2", 0), Scope.random(9, 7, "1/3", 1)),
    ]
    for a, b in pairs:
        assert a != b and a == a
        assert len({a, b}) == 2


def test_every_scope_kind_draws_the_same_graphs_on_every_iteration():
    # each iteration draws the graphs afresh, the random kind re-seeded
    scopes = {
        4: Scope.exhaustive(4),
        5: Scope.exhaustive_upto(5),
        6: Scope.random(20, 6, Fraction(1, 3), seed=5),
        7: Scope.graphs(g for g in [path(1), star(3), complete(7), path(0)]),
    }
    for n_max, scope in scopes.items():
        first = list(scope_graphs(scope))
        assert first and _same_sequence(first, scope_graphs(scope)), scope.describe()
        assert scope.max_vertices() == max(G.n for G in first) == n_max


def test_integer_margin_sweep_matches_fraction_sides():
    # the sweep compares integer margins; recompute every report field from
    # Fraction sides over matrix-power walk counts, keeping the first graph
    # with the smallest margin.  The sweep over each graph alone must give
    # that graph's verdict and sides
    graphs = list(scope_graphs(labeled_scope(Scope.exhaustive_upto(5))))
    walks = [matrix_walk_counts(G.n, G.edges(), 5) for G in graphs]
    first_violation = None
    for t, k in ((1, 3), (3, 5), (1, 5), (2, 3), (2, 5), (4, 5)):
        violations = 0
        worst = None  # (margin, graph, lhs, rhs)
        for index, (G, W) in enumerate(zip(graphs, walks), 1):
            lhs, rhs = Fraction(W[k], G.n) ** t, Fraction(W[t], G.n) ** k
            rep = sweep(t, k, Scope.graphs([G]))
            assert rep.verdict == ("holds" if lhs >= rhs else "violated"), (t, k, G)
            (w,) = rep.witnesses
            assert (Fraction(w["lhs"]), Fraction(w["rhs"])) == (lhs, rhs), (t, k, G)
            if lhs < rhs:
                violations += 1
                if (t, k) == (2, 3) and first_violation is None:
                    first_violation = index
            if worst is None or lhs - rhs < worst[0]:
                worst = (lhs - rhs, G, lhs, rhs)
        rep = sweep(t, k, Scope.exhaustive_upto(5))
        assert rep.verdict == ("holds" if violations == 0 else "violated")
        assert rep.params["checked"] == len(graphs)
        assert rep.params["violations"] == violations
        margin, G, lhs, rhs = worst
        assert rep.params["worst_margin"] == f"{margin.numerator}/{margin.denominator}"
        (w,) = rep.witnesses
        assert w["graph"] == serialize_graph(G)
        assert (Fraction(w["lhs"]), Fraction(w["rhs"])) == (lhs, rhs)
    rep = find_counterexample(2, 3, Scope.exhaustive_upto(5))
    assert rep.verdict == "counterexample-found"
    assert rep.params["checked"] == first_violation


def test_scope_graphs_accepts_a_generator():
    scope = Scope.graphs(g for g in [path(1), path(2)])
    assert scope.describe() == {"kind": "explicit", "count": 2}
    assert list(scope_graphs(scope)) == [path(1), path(2)]
    assert sweep(1, 3, scope).params["checked"] == 2


EMPTY_SCOPES = [Scope.graphs([]), Scope.random(0, 4, Fraction(1, 2), seed=0)]


@pytest.mark.parametrize("scope", EMPTY_SCOPES)
def test_sweep_refuses_an_empty_scope(scope):
    with pytest.raises(EmptyScope):
        sweep(1, 3, scope)


@pytest.mark.parametrize("scope", EMPTY_SCOPES)
def test_find_counterexample_refuses_an_empty_scope(scope):
    with pytest.raises(EmptyScope):
        find_counterexample(2, 3, scope)


@pytest.mark.parametrize("scope", EMPTY_SCOPES)
def test_hde_definition_refuses_an_empty_scope(scope):
    with pytest.raises(EmptyScope):
        check_hde_definition(path(1), path(1), Fraction(1), scope)


def test_scope_caps():
    with pytest.raises(ScopeTooLarge):
        Scope.exhaustive(7)
    with pytest.raises(ScopeTooLarge):
        Scope.exhaustive_upto(9)
    # the vertex cap, checked before any graph of the scope is drawn
    with pytest.raises(GraphTooLarge):
        Scope.random(1, 10**6, Fraction(1, 2), seed=0)


def test_random_scope_draw_budget(monkeypatch):
    # drawing is lazy, so building the largest scopes draws no graph
    monkeypatch.setattr(checks, "random_graph", _must_not_draw)
    for n in (1, 63):
        most = SAMPLE_BUDGET // (n * n + 20)
        assert Scope.random(most, n, Fraction(1, 2), seed=0).describe()["samples"] == most
        with pytest.raises(ScopeTooLarge, match=f"may be at most {SAMPLE_BUDGET}"):
            Scope.random(most + 1, n, Fraction(1, 2), seed=0)
    # the budget is checked after the scope's other refusals
    for n, prob, refusal in ((5, 2, MalformedInput), (64, 0, GraphTooLarge),
                             (-1, 0, MalformedInput), (0, 0, EmptyGraph)):
        with pytest.raises(refusal):
            Scope.random(10**18, n, prob, seed=0)


def _must_not_draw(*args):
    pytest.fail("a graph was drawn while the scope was built")


def test_scopes_refuse_a_negative_vertex_count():
    # when the scope is built, not when its first graph is drawn
    for build in (Scope.exhaustive, Scope.exhaustive_upto, lambda n: Scope.random(2, n, 0, 0)):
        with pytest.raises(MalformedInput, match="vertex count must be non-negative"):
            build(-1)


def test_scopes_refuse_a_graph_with_no_vertices():
    # when the scope is built: a check would otherwise divide by n = 0, or
    # say "holds" over empty graphs
    builds = (Scope.exhaustive, lambda n: Scope.random(3, n, Fraction(1, 2), 0),
              lambda n: Scope.random(0, n, 0, 0), lambda n: Scope.graphs([path(1), Graph(n, ())]))
    for build in builds:
        with pytest.raises(EmptyGraph, match="at least one vertex"):
            build(0)
    # up to n = 0 is a scope with no graphs, refused by the scan
    scope = Scope.exhaustive_upto(0)
    with pytest.raises(EmptyScope):
        sweep(1, 3, scope)
    with pytest.raises(EmptyGraph):
        sweep(1, 3, Scope.graphs([Graph(0, ())]))


def test_random_scope_describes_an_edge_probability_of_any_length():
    # written when the scope is built, as str() writes it, but past the
    # 4,300 digits str() allows: a sweep over this scope checks its graph
    # and then reports it
    for prob in (Fraction(1, 2), Fraction(2, 7), 1, 0):
        assert Scope.random(1, 3, prob, seed=0).describe()["edge_prob"] == str(Fraction(prob))
    rep = sweep(1, 3, Scope.random(1, 3, Fraction(1, 10**5000), seed=0))
    assert rep.verdict == "holds" and rep.params["checked"] == 1
    assert rep.params["scope"]["edge_prob"] == "1/1" + "0" * 5000


def test_random_scope_edge_probability_range():
    # 10^5000 is refused with a message that str() of an int that long
    # could not give
    for bad in (Fraction(3, 2), Fraction(-1, 2), 2, Fraction(10**5000)):
        with pytest.raises(MalformedInput):
            Scope.random(3, 5, bad, seed=0)
    # the ends of the range are valid: no edges, and the complete graph
    assert [G.edge_count for G in scope_graphs(Scope.random(3, 5, 0, seed=0))] == [0, 0, 0]
    assert [G.edge_count for G in scope_graphs(Scope.random(3, 5, 1, seed=0))] == [10, 10, 10]


def test_find_counterexample():
    stars_and_paths = Scope.graphs([path(1), path(2), star(2), path(3), star(3), path(4), star(4)])
    rep = find_counterexample(2, 3, stars_and_paths)
    assert rep.verdict == "counterexample-found"
    assert rep.witnesses[0]["graph"] == "3 2\n0 1\n1 2\n"  # P2 itself

    rep = find_counterexample(2, 5, stars_and_paths)
    assert rep.verdict == "counterexample-found"

    # walks alone do not decide a graph: P2 with an isolated vertex has
    # P2's walks, and holds where P2 is violated
    padded = disjoint_union([(path(2), 1), (path(0), 1)])
    rep = find_counterexample(2, 3, Scope.graphs([padded, path(2)]))
    assert (rep.verdict, rep.params["checked"]) == ("counterexample-found", 2)
    assert rep.witnesses[0]["graph"] == serialize_graph(path(2))

    regular_only = Scope.graphs([complete(2), complete(3), complete(4)])
    assert find_counterexample(2, 3, regular_only).verdict == "holds"

    with pytest.raises(BadParity):
        find_counterexample(1, 3, Scope.exhaustive(3))
    with pytest.raises(BadParity):
        find_counterexample(2, 4, Scope.exhaustive(3))
    with pytest.raises(BadParity):
        find_counterexample(4, 3, Scope.exhaustive(3))


def test_lemma_identity():
    # base case t=1: no inner terms, p(V) = p(edge)
    for seed in range(5):
        p = random_vertex_point(path(1), seed)
        rep = check_lemma_identity(1, p)
        assert rep.verdict == "holds"

    # even t, the |S|/(t+1) analogue of the averaged point
    p4 = SetFunction(5, tuple(Fraction(m.bit_count(), 5) for m in range(32)))
    assert check_lemma_identity(4, p4).verdict == "holds"

    for t in (2, 3):
        for i in range(t + 1):
            assert check_lemma_identity(t, indicator_point(path(t), i)).verdict == "holds"
        assert check_lemma_identity(t, p_star(t)).verdict == "holds"
        for seed in range(20):
            p = random_vertex_point(path(t), seed)
            assert check_lemma_identity(t, p).verdict == "holds"

    with pytest.raises(NotMember):
        bad = SetFunction(2, (Fraction(0), Fraction(1), Fraction(1), Fraction(2)))
        check_lemma_identity(1, bad)


def test_hde_definition_check():
    f1 = disjoint_union([(path(0), 2), (path(3), 1)])
    f2 = path(1)
    assert check_hde_definition(f1, f2, Fraction(3), Scope.exhaustive_upto(4)).verdict == "holds"

    rep = check_hde_definition(f1, f2, Fraction(31, 10), Scope.exhaustive_upto(3))
    assert rep.verdict == "violated"
    assert rep.witnesses  # a concrete witness graph is reported

    g = path(3)
    assert check_hde_definition(g, g, Fraction(1), Scope.exhaustive_upto(3)).verdict == "holds"

    # no count is 0 on a triangle, so a negative exponent would compare
    # floats there; it is refused before any graph is checked
    for c in (Fraction(-1), Fraction(-1, 2)):
        with pytest.raises(BadIndex):
            check_hde_definition(path(1), path(1), c, Scope.graphs([complete(3)]))

    # a non-path component on both sides, beside path components whose
    # counts come from one walk-count chain per graph: graph by graph
    # against count_homs
    f1 = disjoint_union([(complete(3), 1), (path(2), 2)])
    f2 = disjoint_union([(star(3), 1), (path(1), 1)])
    for c in (Fraction(1), Fraction(3, 2)):
        verdicts = Counter()
        for G in scope_graphs(labeled_scope(Scope.exhaustive_upto(4))):
            rep = check_hde_definition(f1, f2, c, Scope.graphs([G]))
            h1, h2 = count_homs(f1, G), count_homs(f2, G)
            holds = h1**c.denominator >= h2**c.numerator
            verdicts[rep.verdict] += 1
            assert rep.verdict == ("holds" if holds else "violated")
            assert rep.params["checked"] == 1
            if not holds:
                assert (rep.witnesses[0]["hom_f1"], rep.witnesses[0]["hom_f2"]) == (str(h1), str(h2))
        assert verdicts["holds"] and verdicts["violated"]

    # with a non-path component walks alone do not decide a graph: K3 + K1
    # and K_{1,3} have the same vertex and edge counts, and only the first
    # has a triangle
    scope = Scope.graphs([disjoint_union([(complete(3), 1), (path(0), 1)]), star(3)])
    rep = check_hde_definition(disjoint_union([(complete(3), 1), (path(1), 1)]), path(1), 1, scope)
    assert (rep.verdict, rep.params["checked"]) == ("violated", 2)
    assert rep.witnesses[0]["graph"] == serialize_graph(star(3))


def test_hde_definition_refuses_a_c_past_the_power_budget():
    # hom(P1; G) <= 2^2 on the graphs of at most 2 vertices, so c = a is
    # bounded by 2 * 2a bits: a = 2^18 is at the budget, one more is past it
    scope = Scope.exhaustive_upto(2)
    assert checks.POWER_BITS == 1 << 20
    assert check_hde_definition(path(1), path(1), Fraction(1 << 18), scope).verdict == "violated"
    for c in (Fraction((1 << 18) + 1), Fraction(1, (1 << 18) + 1), Fraction(10**30)):
        with pytest.raises(BadIndex, match="past 1048576 bits"):
            check_hde_definition(path(1), path(1), c, scope)
    # an explicit scope is bounded by its largest graph
    assert Scope.graphs([path(2), complete(4), path(0)]).max_vertices() == 4


def test_hde_definition_names_a_negative_c_of_any_length():
    # the refusal writes c in full even past the 4,300 digits str() allows
    scope = Scope.exhaustive_upto(2)
    for c, written in ((Fraction(-1, 2), "-1/2"), (Fraction(-10**5000), "-1" + "0" * 5000 + "/1")):
        with pytest.raises(BadIndex) as refused:
            check_hde_definition(path(1), path(1), c, scope)
        assert str(refused.value) == f"need c >= 0, got c={written}"


def test_even_k_regime_holds_at_desk_scale():
    # the second inequality is known for even k (any t <= k); confirm n <= 5
    for n in range(1, 6):
        for G in labeled_graphs(n):
            for k in (2, 4, 6):
                for t in range(1, k + 1):
                    assert sweep(t, k, Scope.graphs([G])).verdict == "holds"


def test_labeled_graph_enumeration_counts():
    assert sum(1 for _ in labeled_graphs(1)) == 1
    assert sum(1 for _ in labeled_graphs(3)) == 8
    assert sum(1 for _ in labeled_graphs(4)) == 64
    assert sum(1 for _ in labeled_graphs(5)) == 1024


def _same_sequence(left, right):
    missing = object()
    return all(a == b for a, b in zip_longest(left, right, fillvalue=missing))


def test_labeled_graphs_follow_edge_bitmask_order():
    # graph for graph against one from_edges call per bitmask, n = 0 ... 6
    for n in range(7):
        assert _same_sequence(labeled_graphs(n), labeled_graphs_by_mask(n)), n
    by_mask = chain.from_iterable(labeled_graphs_by_mask(n) for n in range(1, 7))
    assert _same_sequence(scope_graphs(labeled_scope(Scope.exhaustive_upto(6))), by_mask)


def _level_items(n, lengths):
    """(n, [W_l for l in lengths], a function that builds the graph) for
    each graph of the exhaustive level n, read out of its labeled draw."""
    for _, _, m, walks, graph_at in labeled_blocks(n, lengths):
        for index, graph_walks in enumerate(walks):
            yield m, list(graph_walks), partial(graph_at, index)


def _weighted(blocks):
    """The Counter of (n, walk tuple) over ``blocks``, each graph counted
    by its block's weight."""
    counts = Counter()
    for _, weight, n, walks, _ in blocks:
        for walk, count in Counter(walks).items():
            counts[n, walk] += weight * count
    return counts


def test_level_walks_match_matrix_powers():
    # the block kernel, graph for graph, against entry sums of adjacency
    # powers over every labeled graph with n <= 6 at lengths 0 ... 7; the
    # orbit scan's weights times its block sizes count them all
    lengths = tuple(range(8))
    for n in range(1, 7):
        count = 0
        for count, (_, walks, graph) in enumerate(_level_items(n, lengths), 1):
            G = graph()
            assert walks == matrix_walk_counts(n, G.edges(), 7), G
        assert count == 1 << n * (n - 1) // 2
        assert sum(_weighted(checks._labeled_blocks(n, lengths)).values()) == count


def test_orbit_scan_counts_the_walk_tuples_of_every_labeled_graph():
    # a level's walk tuples, counted by weight over one star of each size
    # of vertex n - 1, against the labeled draw over every star; (27, 28)
    # is past 64-bit lanes, so it takes the per-graph fallback
    for lengths, n_max in (((5, 3), 7), ((1, 2, 3, 4), 7), ((27, 28), 6)):
        for n in range(1, n_max + 1):
            orbits = _weighted(checks._labeled_blocks(n, lengths))
            assert orbits == _weighted(labeled_blocks(n, lengths)), (n, lengths)


def test_orbit_blocks_hold_the_graphs_at_their_scope_offsets(monkeypatch):
    # graph for graph against one from_edges call per bitmask: each block
    # holds the labeled graphs from its offset on, the fallback's in blocks
    # of _BLOCK_GRAPHS at lengths past 64-bit lanes; the weights times the
    # block sizes are the scope's size
    by_mask = list(chain.from_iterable(map(labeled_graphs_by_mask, range(1, 7))))
    monkeypatch.setattr(checks, "_BLOCK_GRAPHS", 100)
    for lengths in ((), (64,)):
        size = 0
        for offset, weight, n, walks, graph_at in Scope.exhaustive_upto(6)._draw(lengths):
            graphs = list(map(graph_at, range(len(walks))))
            assert graphs == by_mask[offset:offset + len(graphs)], (lengths, offset)
            size += weight * len(graphs)
        assert size == len(by_mask)


def test_star_graphs_decode_their_slot_bits_at_n7():
    # past the cap, each canonical star's graph g against one from_edges
    # call of g's edge slots and the star's edges, for the empty and the
    # full inner graph, each single slot, and each vertex's field all ones
    n, m = 7, 6
    slots = [(u, v) for v in range(m) for u in range(v)]
    fields = [((1 << u) - 1) << u * (u - 1) // 2 for u in range(1, m)]
    indices = [0, (1 << len(slots)) - 1, *(1 << s for s in range(len(slots))), *fields]
    blocks = list(checks._labeled_blocks(n, ()))
    assert [offset >> len(slots) for offset, *_ in blocks] == [(1 << s) - 1 for s in range(n)]
    for offset, _, _, walks, graph_at in blocks:
        nbhd = offset >> len(slots)
        assert len(walks) == 1 << len(slots)
        for g in indices:
            edges = [slots[s] for s in range(len(slots)) if g >> s & 1]
            edges += [(j, m) for j in range(m) if nbhd >> j & 1]
            assert graph_at(g) == from_edges(n, edges), (nbhd, g)


def test_a_draw_builds_only_the_graphs_asked_for(monkeypatch):
    # draining an n = 7 level constructs no Graph at all, its walks
    # counted from slot masks alone; reading one graph builds just that one
    built = Counter()

    def counted(n, rows):
        built[n] += 1
        return Graph(n, rows)

    monkeypatch.setattr(checks, "Graph", counted)
    blocks = list(checks._labeled_blocks(7, (5, 3)))
    assert built == {}
    _, _, _, walks, graph_at = blocks[3]
    graph_at(len(walks) - 1)
    assert built == {7: 1}


def test_orbit_scan_reports_as_the_labeled_draw_at_n7(monkeypatch):
    # through a private scope past the cap: every field of every report
    # over one star of each size equals the report over every star
    monkeypatch.setattr(checks, "EXHAUSTIVE_CAP", 7)
    scope = Scope.exhaustive(7)
    labeled = labeled_scope(scope)
    for t, k in ((1, 3), (2, 3), (3, 5)):
        assert sweep(t, k, scope) == sweep(t, k, labeled), (t, k)
    for t, k in ((2, 3), (2, 5)):
        assert find_counterexample(t, k, scope) == find_counterexample(t, k, labeled), (t, k)


def test_a_source_with_no_path_component_reads_canonical_stars_only():
    # with a component that is not a path the check builds every graph of
    # a block it reads; hom counts are isomorphism invariants, so the
    # canonical stars give the labeled draw's report
    scope = Scope.exhaustive_upto(6)
    labeled = labeled_scope(scope)
    triangle_and_edge = disjoint_union([(complete(3), 1), (path(1), 1)])
    for f1, f2 in ((cycle(3), cycle(3)), (triangle_and_edge, path(1))):
        assert check_hde_definition(f1, f2, 1, scope) == check_hde_definition(f1, f2, 1, labeled)


def test_level_walks_at_the_edge_of_64_bit_lanes(monkeypatch):
    # 6 * 5^26 < 2^64 <= 6 * 5^27, so at n = 6 the lengths up to 26 are
    # counted in 64-bit lanes and 27 graph by graph; both agree with one
    # walk_counts chain a graph, and the last block (vertex 5 joined to
    # all, K6 in its top lane) with the matrix powers
    assert checks._lane_width(6, 26) == 64 and checks._lane_width(6, 27) is None
    per_graph = Counter()

    def counted(G, lengths):
        per_graph[G.n] += 1
        return walk_counts(G, lengths)

    monkeypatch.setattr(checks, "walk_counts", counted)
    widest = list(_level_items(6, (26, 25)))
    assert not per_graph
    for _, walks, graph in widest:
        G = graph()
        chained = walk_counts(G, (25, 26))
        assert walks == [chained[26], chained[25]], G
    for _, walks, graph in widest[-1024:]:
        G = graph()
        powers = matrix_walk_counts(6, G.edges(), 26)
        assert walks == [powers[26], powers[25]], G
    assert widest[-1][1][0] == 6 * 5**26
    past = list(_level_items(6, (27,)))
    assert per_graph == {6: 1 << 15}
    assert [graph() for _, _, graph in past] == [graph() for _, _, graph in widest]
    assert past[-1][1] == [6 * 5**27]
    # the orbit scan's fallback counts the 1,024 graphs of each of the six
    # canonical stars, which stand for all 2^15
    per_graph.clear()
    assert sum(_weighted(checks._labeled_blocks(6, (27,))).values()) == 1 << 15
    assert per_graph == {6: 6 * 1024}


def test_lanes_read_lane_g_at_bit_g_times_the_width():
    # each lane's bytes differ, so a lane read from the wrong end of the
    # int, or with its bytes in the wrong order, reads another value
    for width in (8, 16, 32, 64):
        for count in (1, 2, 1024):
            values = [(2 * g + 1) % 251 << width - 8 | g % 256 for g in range(count)]
            total = sum(value << g * width for g, value in enumerate(values))
            assert checks._lanes(total, width, count) == values, (width, count)


def _lane_lengths(n):
    """The longest length at n that lands in each lane width, and the
    first past 64-bit lanes (None), up to 65."""
    lengths = {}
    for k in range(66):
        width = checks._lane_width(n, k)
        if width is not None or None not in lengths:
            lengths[width] = k
    return lengths


def _sample(n, count, seed):
    """``count`` graphs on n vertices, each edge drawn with probability 1/2."""
    rng = random.Random(seed)
    return [random_graph(n, rng) for _ in range(count)]


def test_block_walks_match_matrix_powers_and_walk_counts():
    # the kernel over an explicit scope's blocks, graph for graph, at every
    # Graph stride (8, 16, 32, 64 bits a row), at the longest length of
    # each lane width and past 64-bit lanes, with length 0 and one length
    # asked for twice (t = k); the edgeless and complete graphs take the
    # least and the most walks a lane must hold, n * (n - 1)^k
    assert _lane_lengths(3) == {8: 6, 16: 14, 32: 30, 64: 62, None: 63}
    assert _lane_lengths(63) == {8: 0, 16: 1, 32: 4, 64: 9, None: 10}
    for n in (1, 2, 3, 8, 9, 16, 17, 33, 63):
        graphs = [from_edges(n, []), complete(n), *_sample(n, 5, n)]
        scope = Scope.graphs(graphs)
        for width, k in _lane_lengths(n).items():
            for lengths in ((k, 0, k), (k,), ()):
                blocks = list(scope._draw(lengths))
                assert [block[:3] for block in blocks] == [(0, 1, n)], (n, lengths)
                walks = blocks[0][3]
                assert len(walks) == len(graphs)
                for G, walk in zip(graphs, walks):
                    chained = walk_counts(G, lengths)
                    assert walk == tuple(map(chained.__getitem__, lengths)), (n, width, G)
                assert walks[0] == tuple(n if l == 0 else 0 for l in lengths)
                assert walks[1] == tuple(n * (n - 1) ** l for l in lengths), (n, width)
        # matrix powers at lengths 0 ... 10, for every graph up to n = 17
        # and beyond it for one
        for G in graphs if n <= 17 else graphs[2:3]:
            (walk,) = next(Scope.graphs([G])._draw(tuple(range(11))))[3]
            assert list(walk) == matrix_walk_counts(n, G.edges(), 10), G


def test_block_runs_follow_the_scope_order():
    # an explicit scope of mixed n in runs, one run of _BLOCK_GRAPHS + 1
    # graphs: a block per run of up to _BLOCK_GRAPHS graphs of one n, at
    # its scope offset, its graphs and walk tuples in scope order
    runs = [_sample(8, checks._BLOCK_GRAPHS + 1, 1), _sample(3, 5, 2), [complete(63)],
            _sample(63, 3, 3), _sample(1, 2, 4), _sample(8, 2, 5)]
    graphs = list(chain.from_iterable(runs))
    lengths = (3, 5, 0)
    blocks = list(Scope.graphs(graphs)._draw(lengths))
    expected_shape = [(0, 1, 8, 1024), (1024, 1, 8, 1), (1025, 1, 3, 5), (1030, 1, 63, 4),
                      (1034, 1, 1, 2), (1036, 1, 8, 2)]
    assert [(o, w, n, len(walks)) for o, w, n, walks, _ in blocks] == expected_shape
    drawn, walked = [], []
    for _, _, _, walks, graph_at in blocks:
        drawn += map(graph_at, range(len(walks)))
        walked += walks
    assert drawn == graphs
    for G, walk in zip(graphs, walked):
        chained = walk_counts(G, lengths)
        assert walk == tuple(map(chained.__getitem__, lengths)), G


def test_random_and_explicit_checks_match_the_per_graph_oracles():
    # every field of every report over a random scope (across a block
    # boundary, at 16- and 64-bit strides) and an explicit scope of mixed
    # n, against one Fraction margin or one count_homs pair a graph over
    # matrix-power walk counts, sharing no scan code
    random_scopes = [(checks._BLOCK_GRAPHS + 76, 5, Fraction(1, 2), 7),
                     (150, 12, Fraction(1, 3), 8), (10, 33, Fraction(1, 2), 9)]
    cases = []
    for samples, n, edge_prob, seed in random_scopes:
        rng = random.Random(seed)
        graphs = [random_graph(n, rng, edge_prob) for _ in range(samples)]
        cases.append((Scope.random(samples, n, edge_prob, seed), graphs))
    mixed = [*_sample(5, 40, 10), *labeled_graphs_by_mask(3), path(2), *_sample(9, 30, 11),
             *_sample(5, 40, 12), complete(17)]
    cases.append((Scope.graphs(mixed), mixed))
    F1 = disjoint_union([(path(0), 2), (path(3), 1)])
    found = Counter()
    for scope, graphs in cases:
        walked = walked_graphs(graphs, 5)
        description = scope.describe()
        for t, k in ((1, 3), (2, 3), (3, 5), (2, 5), (5, 5)):
            assert sweep(t, k, scope) == sweep_by_graph(t, k, walked, description), (t, k)
        for t, k in ((2, 3), (2, 5)):
            report = find_counterexample(t, k, scope)
            assert report == counterexample_by_graph(t, k, walked, description), (t, k)
            found[report.verdict] += 1
        for c in (Fraction(3), Fraction(31, 10)):
            report = check_hde_definition(F1, path(1), c, scope)
            assert report == definition_by_graph(F1, path(1), c, graphs, description), c
            found[report.verdict] += 1
    assert found["counterexample-found"] and found["violated"] and found["holds"]


def _without_scope(report):
    return replace(report, params={**report.params, "scope": None})


def test_exhaustive_checks_match_the_per_graph_path():
    # the star blocks against the same graphs in an explicit scope, whose
    # edge masks the kernel reads from their packed rows and whose blocks
    # break at other graphs: every field of every report but the scope's
    # description; sweep(5, 5) asks for one length twice, and sweep(2, 3)
    # is violated
    exhaustive = Scope.exhaustive_upto(6)
    per_graph = Scope.graphs(chain.from_iterable(map(labeled_graphs, range(1, 7))))
    F1 = disjoint_union([(path(0), 2), (path(3), 1)])
    runs = [
        *(partial(sweep, t, k) for t, k in ((1, 3), (3, 5), (1, 5), (5, 5), (2, 3))),
        partial(find_counterexample, 2, 3),
        partial(find_counterexample, 2, 5),
        partial(check_hde_definition, F1, path(1), Fraction(3)),
        partial(check_hde_definition, F1, path(1), Fraction(31, 10)),
    ]
    for run in runs:
        by_level, by_graph = run(exhaustive), run(per_graph)
        assert by_level.params["scope"] == exhaustive.describe()
        assert _without_scope(by_level) == _without_scope(by_graph), by_level


def _counted_margins(monkeypatch):
    """A Counter of the (n, W_k, W_t) that ``checks._margin`` is asked
    to decide while the patch is in place."""
    decided = Counter()
    margin = checks._margin

    def counted(n, wk, wt, t, k):
        decided[n, wk, wt] += 1
        return margin(n, wk, wt, t, k)

    monkeypatch.setattr(checks, "_margin", counted)
    return decided


def _distinct(walked, t, k):
    return {(G.n, W[k], W[t]) for G, W in walked}


def test_block_checks_match_the_per_graph_oracle(monkeypatch):
    # every field of every report against one Fraction margin a graph over
    # matrix-power walk counts, sharing no scan code; each distinct
    # (n, W_k, W_t) is decided once a scan, across blocks, up to the stop
    by_mask = walked_graphs(chain.from_iterable(map(labeled_graphs_by_mask, range(1, 6))), 5)
    scope = Scope.exhaustive_upto(5)
    decided = _counted_margins(monkeypatch)
    for t, k in ((1, 3), (3, 5), (2, 3), (2, 5), (4, 5)):
        decided.clear()
        assert sweep(t, k, scope) == sweep_by_graph(t, k, by_mask, scope.describe()), (t, k)
        assert decided.keys() == _distinct(by_mask, t, k) and max(decided.values()) == 1
    for t, k in ((2, 3), (2, 5)):
        decided.clear()
        expected = counterexample_by_graph(t, k, by_mask, scope.describe())
        assert find_counterexample(t, k, scope) == expected, (t, k)
        stop = expected.params["checked"]
        assert 1 < stop < len(by_mask), (t, k)
        assert decided.keys() == _distinct(by_mask[:stop], t, k) and max(decided.values()) == 1
    six = walked_graphs(chain.from_iterable(map(labeled_graphs_by_mask, range(1, 7))), 3)
    scope = Scope.exhaustive_upto(6)
    assert sweep(2, 3, scope) == sweep_by_graph(2, 3, six, scope.describe())


def test_mixed_vertex_counts_match_the_per_graph_oracle(monkeypatch):
    # an explicit scope of runs n = 4, 3, 4: the worst (2, 3) tuple, on
    # n = 4, recurs in the last block, after a block with fewer vertices;
    # the witness stays its first graph, its repeats still count as
    # violations, and no (n, walks) is decided twice
    graphs = [*labeled_graphs_by_mask(4), *labeled_graphs_by_mask(3), *labeled_graphs_by_mask(4)]
    walked = walked_graphs(graphs, 3)
    scope = Scope.graphs(graphs)
    decided = _counted_margins(monkeypatch)
    for t, k in ((2, 3), (1, 3)):
        decided.clear()
        expected = sweep_by_graph(t, k, walked, scope.describe())
        assert sweep(t, k, scope) == expected, (t, k)
        assert decided.keys() == _distinct(walked, t, k) and max(decided.values()) == 1
    worst = sweep_by_graph(2, 3, walked, scope.describe()).witnesses[0]["graph"]
    assert worst.startswith("4 ") and [serialize_graph(G) for G in graphs].count(worst) == 2
    assert find_counterexample(2, 3, scope) == counterexample_by_graph(2, 3, walked,
                                                                       scope.describe())


def test_exhaustive_checks_refuse_a_malformed_graph(monkeypatch):
    # every graph of an exhaustive scope that a check reads is decoded and
    # handed to Graph, which validates it in full: the rows of the first
    # graph decoded are broken at vertex v, for each v < n, and each check
    # refuses it before it reports, naming the fault.  sweep(1, 3) and the
    # counterexample search read a witness only, sweep(1, 64) is past
    # 64-bit lanes at n = 4 and the cycle:3 check reads every graph
    n = 4

    def faults(v):  # (the bits flipped in row v, the refusal)
        u = (v + 1) % n
        yield 1 << u, f"adjacency not symmetric at {{{min(u, v)},{max(u, v)}}}"
        yield 1 << v, f"self-loop at vertex {v}"
        yield 1 << 62, f"adjacency row {v} references missing vertices"

    runs = (partial(sweep, 1, 3), partial(sweep, 1, 64), partial(find_counterexample, 2, 3),
            partial(check_hde_definition, cycle(3), cycle(3), 1))
    for vertex in range(n):
        for flip, refusal in faults(vertex):
            for run in runs:
                broken = []  # the rows of the one graph broken, the first decoded

                def corrupted(n, rows, vertex=vertex, flip=flip, broken=broken):
                    if not broken:
                        rows = list(rows)
                        rows[vertex] ^= flip
                        broken.append(rows)
                    return Graph(n, tuple(rows))

                monkeypatch.setattr(checks, "Graph", corrupted)
                with pytest.raises(MalformedInput, match=re.escape(refusal)):
                    run(Scope.exhaustive(n))
                assert broken, (vertex, run)


def test_a_source_with_no_path_component_reads_every_graph():
    # cycle:3 has no path component, so the check asks its scan for no
    # walk lengths; every graph is still read, as in an explicit scope
    for scope, checked in ((Scope.exhaustive_upto(4), 75), (Scope.exhaustive(5), 1024)):
        report = check_hde_definition(cycle(3), cycle(3), 1, scope)
        assert (report.verdict, report.params["checked"]) == ("holds", checked)
        per_graph = check_hde_definition(cycle(3), cycle(3), 1,
                                         Scope.graphs(scope_graphs(labeled_scope(scope))))
        assert _without_scope(report) == _without_scope(per_graph)


def test_report_is_reproducible_from_witness():
    from homdom.graphs import parse_graph
    from homdom.homs import normalized_walks

    rep = sweep(2, 3, Scope.graphs([path(2)]))
    w = rep.witnesses[0]
    G = parse_graph(w["graph"])
    assert normalized_walks(G, 3) ** 2 == Fraction(w["lhs"])
    assert normalized_walks(G, 2) ** 3 == Fraction(w["rhs"])


def test_decimal_writes_integers_past_the_conversion_limit():
    limit = sys.get_int_max_str_digits()
    cases = [0, 7, -7, 2**13000, 10**4000 - 1, 10**4000, 10**4000 + 1, 10**8000,
             -(10**9000) - 5, 4 * 3**10000, 12345 * 10**12345]
    try:
        sys.set_int_max_str_digits(0)  # the reference conversion only
        expected = [str(n) for n in cases]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [_decimal(n) for n in cases] == expected
    assert sys.get_int_max_str_digits() == limit


def _lemma_residual(t, form):
    """The fixed value of p(V) minus ``form`` over the polytope of P_t."""
    full = (1 << (t + 1)) - 1
    return fixed_value(path(t), [(full, 1)] + [(m, -c) for m, c in form])


def test_path_form_is_proved_from_the_equality_rows():
    for t in range(1, 9):
        assert _lemma_residual(t, path_form(t)) == 0
    # the proof's value is the form's value at every member it is tried on
    for t in range(1, 6):
        F2 = path(t)
        points = [indicator_point(F2, i) for i in range(t + 1)] + [p_star(t)]
        points += [random_vertex_point(F2, seed) for seed in range(4)]
        for p in points:
            assert p[p.full_mask] - sum(c * p[m] for m, c in path_form(t)) == 0
    with pytest.raises(BadIndex):
        path_form(0)


def test_path_form_with_an_edge_dropped_is_not_fixed():
    for t in range(1, 6):
        for i in range(t):
            edge = 1 << i | 1 << (i + 1)
            dropped = [(m, c) for m, c in path_form(t) if m != edge]
            # at t = 1 the one edge is V, and the residual left is p(V) = 1
            assert _lemma_residual(t, dropped) == (1 if t == 1 else None), (t, i)


def _chain_rows(monkeypatch, t):
    """The (A, B) pairs that ``prove_path_identity(t)`` hands to
    ``separates``, recorded as it proves the identity."""
    seen = []

    def spy(F2, A, B):
        seen.append((A, B))
        return separates(F2, A, B)

    monkeypatch.setattr(checks, "separates", spy)
    assert prove_path_identity(t), t
    return seen


def test_path_identity_chain_rows_are_equalities_of_the_polytope(monkeypatch):
    # each row p(A | B) + p(A & B) - p(A) - p(B) is fixed at 0 by the
    # polytope's own = rows, with the exact LP as the oracle
    for t in range(1, 10):
        rows = _chain_rows(monkeypatch, t)
        assert rows == [((1 << j + 1) - 1, 3 << j) for j in range(1, t)], t
        for A, B in rows:
            row = [(A | B, 1), (A & B, 1), (A, -1), (B, -1)]
            assert fixed_value(path(t), row) == 0, (t, A, B)
    monkeypatch.undo()
    # past the ground-set cap the proof needs no polytope, up to the
    # 63-vertex graph cap
    assert all(prove_path_identity(t) for t in range(10, 63))
    with pytest.raises(GraphTooLarge):
        prove_path_identity(63)


def test_path_identity_proof_rejects_a_broken_chain(monkeypatch):
    for t in range(2, 7):
        for j in range(1, t):
            # the pair of row j does not separate
            monkeypatch.setattr(
                checks, "separates", lambda F2, A, B, j=j: separates(F2, A, B) and B != 3 << j
            )
            assert not prove_path_identity(t), (t, j)
        monkeypatch.undo()
    for t in range(1, 7):
        form = path_form(t)
        for i in range(t):
            edge = 1 << i | 1 << (i + 1)
            for name, mutated in (
                ("edge dropped", [(m, c) for m, c in form if m != edge]),
                ("edge doubled", [(m, 2 * c if m == edge else c) for m, c in form]),
            ):
                monkeypatch.setattr(checks, "path_form", lambda t, mutated=mutated: mutated)
                assert not prove_path_identity(t), (t, i, name)
        monkeypatch.undo()


def test_check_lemma_identity_is_the_term_by_term_sum_at_the_acceptance_points():
    for t in range(1, 7):
        F2 = path(t)
        points = [indicator_point(F2, i) for i in range(t + 1)] + [p_star(t)]
        points += [random_vertex_point(F2, seed) for seed in range(100)]
        for p in points:
            lhs = p[p.full_mask]
            rhs = Fraction(0)
            for i in range(t):
                rhs += p[(1 << i) | (1 << (i + 1))]
            for i in range(1, t):
                rhs -= p[1 << i]
            expected = CheckReport(
                "lemma-identity", {"t": t}, "holds", ({"lhs": _rat(lhs), "rhs": _rat(rhs)},)
            )
            assert check_lemma_identity(t, p) == expected
