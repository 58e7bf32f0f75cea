import sys
from collections import Counter
from fractions import Fraction
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
from homdom.graphs import Graph, disjoint_union, from_edges, path, serialize_graph, star
from homdom.homs import count_homs
from homdom.polytope import SetFunction, indicator_point, p_star, random_vertex_point, separates
from homdom.checks import (
    CheckReport,
    Scope,
    _decimal,
    _rat,
    chain_exponents,
    check_blakley_roy,
    check_hde_definition,
    check_lemma_identity,
    check_walk_inequality,
    find_counterexample,
    labeled_graphs,
    path_form,
    prove_path_identity,
    sweep,
)
from homdom import checks
from conftest import (
    check_density_form, complete, fixed_value, labeled_graphs_by_mask, matrix_walk_counts,
)


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
    # the CLI prints the walk sweeps for the density form; graph by graph,
    # the two forms must give the same verdict
    for t, k in ((1, 3), (2, 3), (3, 5), (2, 4)):
        verdicts = Counter()
        for G in Scope.exhaustive_upto(5):
            verdict = check_density_form(G, t, k).verdict
            assert verdict == check_walk_inequality(G, t, k).verdict, (t, k, G)
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
    # the vertex cap, checked before any graph of the scope is drawn
    with pytest.raises(GraphTooLarge):
        Scope.random(1, 10**6, Fraction(1, 2), seed=0)


def test_random_scope_edge_probability_range():
    # 10^5000 is refused with a message that str() of an int that long
    # could not give
    for bad in (Fraction(3, 2), Fraction(-1, 2), 2, Fraction(10**5000)):
        with pytest.raises(MalformedInput):
            Scope.random(3, 5, bad, seed=0)
    # the ends of the range are valid: no edges, and the complete graph
    assert [G.edge_count for G in Scope.random(3, 5, 0, seed=0)] == [0, 0, 0]
    assert [G.edge_count for G in Scope.random(3, 5, 1, seed=0)] == [10, 10, 10]


def test_find_counterexample():
    stars_and_paths = Scope.graphs([path(1), path(2), star(2), path(3), star(3), path(4), star(4)])
    rep = find_counterexample(2, 3, stars_and_paths)
    assert rep.verdict == "counterexample-found"
    assert rep.witnesses[0]["graph"] == "3 2\n0 1\n1 2\n"  # P2 itself

    rep = find_counterexample(2, 5, stars_and_paths)
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
    with pytest.raises(BadParity):
        chain_exponents(2, 4)
    with pytest.raises(BadParity):
        chain_exponents(5, 3)
    with pytest.raises(BadIndex):
        chain_exponents(-1, 3)
    # the product is not multiplied out, so a k past any loop's reach is instant
    assert chain_exponents(1, 10**12 + 1) == 10**12 + 1


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
        for G in Scope.exhaustive_upto(4):
            rep = check_hde_definition(f1, f2, c, Scope.graphs([G]))
            h1, h2 = count_homs(f1, G), count_homs(f2, G)
            holds = h1**c.denominator >= h2**c.numerator
            verdicts[rep.verdict] += 1
            assert rep.verdict == ("holds" if holds else "violated")
            assert rep.params["checked"] == 1
            if not holds:
                assert (rep.witnesses[0]["hom_f1"], rep.witnesses[0]["hom_f2"]) == (str(h1), str(h2))
        assert verdicts["holds"] and verdicts["violated"]


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
                    assert check_walk_inequality(G, t, k).verdict == "holds"


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
    assert _same_sequence(Scope.exhaustive_upto(6), by_mask)


def test_report_is_reproducible_from_witness():
    from homdom.graphs import parse_graph
    from homdom.homs import normalized_walks

    rep = check_walk_inequality(path(2), 2, 3)
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
