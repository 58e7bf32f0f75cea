from collections import Counter
from fractions import Fraction

import pytest

from homdom import lp as ratlp
from homdom.errors import (
    BadIndex,
    BadParity,
    NoHomomorphism,
    NotChordal,
    NotMember,
    NotSeriesParallel,
)
from homdom.graphs import (
    clique_tree,
    complete,
    cycle,
    disjoint_union,
    from_edges,
    mask_of,
    path,
)
from homdom.checks import Scope, check_hde_definition
from homdom.homs import Homomorphism, enumerate_homs
from homdom.polytope import SetFunction, build_polytope, indicator_point, is_member, p_star, random_vertex_point
from homdom.hde import (
    certify_lower,
    certify_upper,
    compute_hde,
    objective_clique_tree_form,
    phi_i,
    psi,
)
from conftest import objective_subset_form


def test_subset_form_single_clique():
    hom = Homomorphism(path(1), path(2), (1, 2))
    assert objective_subset_form(path(1), hom) == ((mask_of([1, 2]), Fraction(1)),)


def test_subset_form_p2_identity():
    hom = Homomorphism(path(2), path(2), (0, 1, 2))
    assert dict(objective_subset_form(path(2), hom)) == {
        mask_of([0, 1]): 1,
        mask_of([1, 2]): 1,
        mask_of([1]): -1,
    }


def test_subset_form_psi_t1_cancels_end_vertices():
    h = psi(1)
    assert dict(objective_subset_form(h.source, h)) == {mask_of([0, 1]): 3}


def test_clique_tree_form_path_identity_is_lemma_rhs():
    for t in (1, 2, 3, 4):
        hom = Homomorphism(path(t), path(t), tuple(range(t + 1)))
        prof = objective_clique_tree_form(clique_tree(path(t)), hom)
        expected = {mask_of([i, i + 1]): Fraction(1) for i in range(t)}
        for i in range(1, t):
            expected[mask_of([i])] = Fraction(-1)
        assert dict(prof.terms) == expected


def test_clique_tree_form_p0():
    hom = Homomorphism(path(0), path(2), (1,))
    prof = objective_clique_tree_form(clique_tree(path(0)), hom)
    assert prof.terms == ((mask_of([1]), Fraction(1)),)


def test_form_equivalence_on_the_stated_corpus():
    sources = [
        path(0),
        path(2),
        path(4),
        disjoint_union([(path(0), 2), (path(3), 1)]),
        disjoint_union([(path(0), 1), (path(2), 2)]),
    ]
    count = 0
    for t in range(1, 5):
        F2 = path(t)
        for F1 in sources:
            tree = clique_tree(F1)
            for hom in enumerate_homs(F1, F2):
                a = objective_subset_form(F1, hom)
                b = objective_clique_tree_form(tree, hom)
                assert a == b.terms
                count += 1
    assert count > 100


def test_compute_hde_flagship_t1():
    f1 = disjoint_union([(path(0), 2), (path(3), 1)])
    res = compute_hde(f1, path(1))
    assert res.value == 3
    ok, _ = is_member(res.point, path(1))
    assert ok
    # every component carries at least one argmax witness
    assert all(homs for _, _, homs in res.active)


def test_compute_hde_identity_case():
    assert compute_hde(path(1), path(1)).value == 1


def test_compute_hde_precondition_gates():
    with pytest.raises(NotChordal):
        compute_hde(cycle(4), path(2))
    with pytest.raises(NotSeriesParallel):
        compute_hde(path(2), complete(4))
    with pytest.raises(NoHomomorphism):
        compute_hde(path(1), from_edges(3, []))  # an edge cannot map to no edges


def test_component_decomposition_matches_expanded_lp():
    # P2^2 into P2: small enough to expand the full homomorphism set
    F1 = disjoint_union([(path(2), 2)])
    F2 = path(2)
    res = compute_hde(F1, F2)

    comp = path(2)
    tree = clique_tree(comp)
    profiles = [objective_clique_tree_form(tree, h) for h in enumerate_homs(comp, F2)]
    n_sub = 1 << F2.n
    full = n_sub - 1
    var_of = {m: i for i, m in enumerate(range(1, full))}
    rows = []
    for con in build_polytope(F2).constraints:
        terms, rhs = [], con.rhs
        for mask, coeff in con.terms:
            if mask == 0:
                continue
            if mask == full:
                rhs -= coeff
            else:
                terms.append((var_of[mask], coeff))
        if terms:
            rows.append((terms, con.rel, rhs))
    z = len(var_of)
    # one constraint per *global* homomorphism pair (the expanded set)
    for p1 in profiles:
        for p2 in profiles:
            acc = Counter()
            for mask, c in p1.terms:
                acc[mask] += c
            for mask, c in p2.terms:
                acc[mask] += c
            row = [(z, Fraction(1))]
            rhs = Fraction(0)
            for mask, c in acc.items():
                if mask == full:
                    rhs += c
                else:
                    row.append((var_of[mask], -c))
            rows.append((row, ">=", rhs))
    lp = ratlp.make_lp(
        z + 1,
        [(z, 1)],
        rows,
        lower_bounds=[Fraction(0)] * z + [None],
    )
    out = ratlp.solve(lp)
    assert out.status == "optimal"
    assert out.value == res.value


def test_phi_i_examples():
    assert phi_i(1, 1).map == (0, 1, 0, 1)
    assert phi_i(3, 2).map == (0, 1, 2, 1, 2, 3)
    visits = phi_i(3, 2).edge_visits()
    assert visits[(1, 2)] == 3
    with pytest.raises(BadIndex):
        phi_i(3, 0)
    with pytest.raises(BadIndex):
        phi_i(3, 4)


def test_phi_i_edge_visit_multiset():
    for t in (1, 3, 5):
        for i in range(1, t + 1):
            visits = phi_i(t, i).edge_visits()
            for e in range(t):
                expected = 3 if e == i - 1 else 1  # 1-based edge {i,i+1}
                assert visits[(e, e + 1)] == expected


def test_psi_assembly_and_coverage():
    for t in (1, 3, 5):
        h = psi(t)
        assert h.map[0] == 0 and h.map[1] == t  # the two isolated vertices
        visits = h.edge_visits()
        for e in range(t):
            assert visits[(e, e + 1)] == t + 2
        # inner-vertex coverage by images of inner vertices of the long paths
        inner_cover = Counter()
        for copy in range(t):
            base = 2 + copy * (t + 3)
            for j in range(1, t + 2):  # inner vertices of P_{t+2}
                inner_cover[h.map[base + j]] += 1
        for v in range(1, t):
            assert inner_cover[v] == t + 2
        assert inner_cover[0] == 1 and inner_cover[t] == 1
    with pytest.raises(BadParity):
        psi(2)


def test_certify_upper_examples():
    for t in range(1, 12, 2):
        assert certify_upper(t) == t + 2
    with pytest.raises(BadParity):
        certify_upper(4)


def test_certify_upper_is_constant_over_homs_at_p_star():
    t = 1
    F2 = path(t)
    star = p_star(t)
    f1_parts = ((path(0), 2), (path(3), t))
    for comp, _ in f1_parts:
        tree = clique_tree(comp)
        values = {
            objective_clique_tree_form(tree, h).evaluate(star)
            for h in enumerate_homs(comp, F2)
        }
        assert len(values) == 1


def test_certify_lower_examples():
    for t in (1, 3):
        for i in range(t + 1):
            assert certify_lower(t, indicator_point(path(t), i)) == t + 2
        assert certify_lower(t, p_star(t)) == t + 2
    assert certify_lower(5, random_vertex_point(path(5), 0)) == 7
    with pytest.raises(NotMember):
        bad = SetFunction(2, (Fraction(0), Fraction(1), Fraction(1), Fraction(2)))
        certify_lower(1, bad)


def test_active_witnesses_achieve_the_component_max():
    f1 = disjoint_union([(path(0), 2), (path(3), 1)])
    res = compute_hde(f1, path(1))
    total = Fraction(0)
    for comp, mult, homs in res.active:
        tree = clique_tree(comp)
        vals = {objective_clique_tree_form(tree, h).evaluate(res.point) for h in homs}
        assert len(vals) == 1
        best = max(
            objective_clique_tree_form(tree, h).evaluate(res.point)
            for h in enumerate_homs(comp, path(1))
        )
        assert vals == {best}
        total += mult * best
    assert total == res.value


def test_certify_lower_matches_the_subset_oracle_on_all_of_psi():
    for t in (1, 3, 5):
        h = psi(t)
        terms = objective_subset_form(h.source, h)
        F2 = path(t)
        for p in [indicator_point(F2, i) for i in range(t + 1)] + [p_star(t)]:
            expected = sum((c * p[mask] for mask, c in terms), Fraction(0))
            assert certify_lower(t, p) == expected == t + 2


def test_certify_lower_t7():
    # the source P0^2 P9^7 has 72 vertices, over the graph cap of 63
    assert certify_lower(7, p_star(7)) == 9
    assert certify_lower(7, indicator_point(path(7), 3)) == 9


def test_compute_hde_uses_graph_separation():
    # a polytope that made {0} and {2} of P3 modular overestimated both:
    # 3/2 for (P4, P2), which K2 refutes, and 25/6 for (P0^2 P16, P3)
    res = compute_hde(path(4), path(2))
    assert res.value == 1
    report = check_hde_definition(path(4), path(2), res.value, Scope.exhaustive_upto(4))
    assert report.verdict == "holds"
    assert compute_hde(disjoint_union([(path(0), 2), (path(16), 1)]), path(3)).value == 3
