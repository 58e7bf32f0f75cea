from fractions import Fraction

import pytest

from homdom.errors import BadParity, EmptyGraph, EmptyScope, NotMember, ScopeTooLarge
from homdom.graphs import Graph, complete, disjoint_union, from_edges, path, serialize_graph
from homdom.polytope import SetFunction, indicator_point, p_star, random_vertex_point
from homdom.checks import (
    Scope,
    chain_exponents,
    check_blakley_roy,
    check_density_form,
    check_hde_definition,
    check_lemma_identity,
    check_walk_inequality,
    find_counterexample,
    labeled_graphs,
    sweep,
)
from conftest import matrix_walk_counts


def test_blakley_roy_examples():
    rep = check_blakley_roy(path(2), 3)
    assert rep.verdict == "holds"
    assert rep.witnesses[0]["lhs"] == "8/3" and rep.witnesses[0]["rhs"] == "64/27"

    for G in (complete(3), complete(4)):
        for k in range(5):
            w = check_blakley_roy(G, k).witnesses[0]
            assert w["lhs"] == w["rhs"]  # regular graphs: equality

    rep = check_blakley_roy(from_edges(4, []), 3)
    assert rep.verdict == "holds" and rep.witnesses[0]["lhs"] == "0/1"

    with pytest.raises(EmptyGraph):
        check_blakley_roy(Graph(0, ()), 2)


def test_walk_inequality_examples():
    assert check_walk_inequality(path(2), 1, 3).verdict == "holds"

    rep = check_walk_inequality(path(2), 2, 3)
    assert rep.verdict == "violated"
    assert rep.witnesses[0]["lhs"] == "64/9" and rep.witnesses[0]["rhs"] == "8/1"

    for t, k in ((1, 2), (2, 3), (2, 5)):
        w = check_walk_inequality(complete(3), t, k).witnesses[0]
        assert w["lhs"] == w["rhs"]


def test_density_form_agrees_with_walk_form():
    for t, k in ((1, 3), (2, 3), (3, 3)):
        for G in (path(2), complete(3), from_edges(4, [(0, 1)])):
            assert (
                check_density_form(G, t, k).verdict
                == check_walk_inequality(G, t, k).verdict
            )


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


def test_integer_margin_sweep_matches_fraction_sides():
    # the sweep compares integer margins; recompute every report field from
    # Fraction sides over matrix-power walk counts, keeping the first graph
    # with the smallest margin
    graphs = list(Scope.exhaustive_upto(5))
    walks = [matrix_walk_counts(G.n, G.edges(), 5) for G in graphs]
    first_violation = None
    for t, k in ((1, 3), (3, 5), (1, 5), (2, 3)):
        violations = 0
        worst = None  # (margin, graph, lhs, rhs)
        for index, (G, W) in enumerate(zip(graphs, walks), 1):
            lhs, rhs = Fraction(W[k], G.n) ** t, Fraction(W[t], G.n) ** k
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
    assert list(scope) == [path(1), path(2)]
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


def test_find_counterexample():
    rep = find_counterexample(2, 3, Scope.stars_and_paths(5))
    assert rep.verdict == "counterexample-found"
    assert rep.witnesses[0]["graph"] == "3 2\n0 1\n1 2\n"  # P2 itself

    rep = find_counterexample(2, 5, Scope.stars_and_paths(5))
    assert rep.verdict == "counterexample-found"

    regular_only = Scope.graphs([complete(2), complete(3), complete(4)])
    assert find_counterexample(2, 3, regular_only).verdict == "holds"

    with pytest.raises(BadParity):
        find_counterexample(1, 3, Scope.exhaustive(3))
    with pytest.raises(BadParity):
        find_counterexample(2, 4, Scope.exhaustive(3))
    with pytest.raises(BadParity):
        find_counterexample(4, 3, Scope.exhaustive(3))


def test_chain_exponents():
    assert chain_exponents(3, 7) == Fraction(7, 3)
    assert chain_exponents(1, 9) == 9
    assert chain_exponents(3, 3) == 1
    assert chain_exponents(1, 3, G=path(2)) == 3
    with pytest.raises(BadParity):
        chain_exponents(2, 4)
    with pytest.raises(BadParity):
        chain_exponents(5, 3)


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


def test_even_k_regime_holds_at_desk_scale():
    # the second inequality is known for even k (any t <= k); confirm n <= 5
    for n in range(1, 6):
        for G in labeled_graphs(n):
            for k in (2, 4, 6):
                for t in range(1, k + 1):
                    assert check_walk_inequality(G, t, k).verdict == "holds"


def test_labeled_graph_enumeration_counts():
    assert sum(1 for _ in labeled_graphs(1)) == 1
    assert sum(1 for _ in labeled_graphs(3)) == 8
    assert sum(1 for _ in labeled_graphs(4)) == 64
    assert sum(1 for _ in labeled_graphs(5)) == 1024


def test_report_is_reproducible_from_witness():
    from homdom.graphs import parse_graph
    from homdom.homs import normalized_walks

    rep = check_walk_inequality(path(2), 2, 3)
    w = rep.witnesses[0]
    G = parse_graph(w["graph"])
    assert normalized_walks(G, 3) ** 2 == Fraction(w["lhs"])
    assert normalized_walks(G, 2) ** 3 == Fraction(w["rhs"])
