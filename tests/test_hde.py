import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from homdom import hde
from homdom import lp as ratlp
from homdom.errors import (
    BadIndex,
    BadParity,
    NoHomomorphism,
    NotChordal,
    NotMember,
    NotSeriesParallel,
    RatlpError,
)
from homdom.graphs import (
    bits_of,
    clique_tree,
    cycle,
    disjoint_union,
    expand_components,
    from_edges,
    path,
)
from homdom.checks import Scope, check_hde_definition
from homdom.homs import Homomorphism, enumerate_homs
from homdom.polytope import (
    SetFunction, build_polytope, indicator_point, is_member, p_star, random_vertex_point,
)
from homdom.hde import (
    certify_lower,
    certify_upper,
    compute_hde,
    max_objective,
    objective_clique_tree_form,
    phi_i,
    profiles,
    psi_form,
)
from conftest import (
    _is_connected, brute_force_chordal, complete, edge_visits, fixed_value, grouped_profiles,
    labeled_graphs_by_mask, mask_of, max_objective_by_enumeration, objective_subset_form, psi,
    random_graph,
)


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
        assert dict(prof) == expected


def test_clique_tree_form_p0():
    hom = Homomorphism(path(0), path(2), (1,))
    prof = objective_clique_tree_form(clique_tree(path(0)), hom)
    assert prof == ((mask_of([1]), Fraction(1)),)


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
                assert a == b
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


def test_compute_hde_hands_the_polytope_rows_to_the_lp(monkeypatch):
    # catch the program on its way through lp.make_lp, as the benchmark's
    # tracer does
    programs = []

    def traced(*args, **kwargs):
        programs.append(make_lp(*args, **kwargs))
        return programs[-1]

    make_lp = ratlp.make_lp
    monkeypatch.setattr(ratlp, "make_lp", traced)
    for t in (1, 3):
        F1 = disjoint_union([(path(0), 2), (path(t + 2), t)])
        F2 = path(t)
        compute_hde(F1, F2)
        (rows,) = [program.rows for program in programs]
        programs.clear()
        polytope_rows = build_polytope(F2).constraints
        assert all(r is c for r, c in zip(rows, polytope_rows))
        n_p = 1 << F2.n
        expected = []
        for ci, comp in enumerate((path(0), path(t + 2))):
            expected += [
                (tuple((m, -c) for m, c in terms) + ((n_p + ci, Fraction(1)),), ">=", 0, "profile")
                for terms in grouped_profiles(comp, F2)
            ]
        profile_rows = rows[len(polytope_rows):]
        assert [(r.terms, r.rel, r.rhs, r.tag) for r in profile_rows] == expected


def _hde_corpus():
    triangle_pendant = from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    return [
        (disjoint_union([(path(0), 2), (path(t + 2), t)]), path(t)) for t in (1, 3, 5)
    ] + [
        (disjoint_union([(path(0), 2), (path(16), 1)]), path(3)),
        (disjoint_union([(path(0), 1), (path(3), 2)]), path(2)),  # (t, k) = (2, 3)
        (disjoint_union([(triangle_pendant, 1), (complete(3), 2), (path(1), 1)]), cycle(3)),
    ]


def test_profile_rows_and_argmax_maps_match_the_grouped_fraction_forms(monkeypatch):
    # compute_hde builds its profiles in ints, with no enumeration; the
    # oracle groups each component's homomorphisms by their form, in
    # enumeration order.  The rows come in that order, and the argmax
    # witnesses are the first map of each argmax group.
    programs = []

    def traced(*args, **kwargs):
        programs.append(make_lp(*args, **kwargs))
        return programs[-1]

    make_lp = ratlp.make_lp
    monkeypatch.setattr(ratlp, "make_lp", traced)
    for F1, F2 in _hde_corpus():
        res = compute_hde(F1, F2)
        (program,) = programs
        programs.clear()
        n_p = 1 << F2.n
        expected_rows = []
        assert len(res.active) == len(expand_components(F1))
        for ci, ((comp, mult), (a_comp, a_mult, argmax)) in enumerate(
            zip(expand_components(F1), res.active)
        ):
            assert (a_comp, a_mult) == (comp, mult)
            groups = grouped_profiles(comp, F2)
            z = ((n_p + ci, Fraction(1)),)
            expected_rows += [
                (tuple((m, -c) for m, c in terms) + z, Fraction(0), "profile") for terms in groups
            ]
            best = max(ratlp.evaluate(terms, res.point) for terms in groups)
            expected_maps = [
                maps[0] for terms, maps in groups.items() if ratlp.evaluate(terms, res.point) == best
            ]
            assert [h.map for h in argmax] == expected_maps
        rows = [(r.terms, r.rhs, r.tag) for r in program.rows if r.rel == ">="]
        assert rows == expected_rows


def test_compute_hde_enumerates_no_homomorphism(monkeypatch):
    # the same LP as rows grouped from enumerated maps: value, point and
    # shape are those compute_hde gets with the oracle's groups in place
    # of the DP's profiles
    def oracle(tree, F2):
        return {terms: maps[0] for terms, maps in grouped_profiles(comp_of[tree], F2).items()}

    def refuse(*args):
        raise AssertionError("a homomorphism was enumerated")

    for F1, F2 in _hde_corpus():
        comp_of = {clique_tree(comp): comp for comp, _ in expand_components(F1)}
        ratlp._presolve.cache_clear()  # so that neither run reads the other's presolve
        with monkeypatch.context() as m:
            m.setattr(hde, "profiles", oracle)
            expected = compute_hde(F1, F2)
        ratlp._presolve.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(hde, "enumerate_homs", refuse)
            m.setattr("homdom.homs.enumerate_homs", refuse)
            res = compute_hde(F1, F2)
        # value, point, lp_vars, lp_constraints, lp_pivots and active
        assert res == expected


@lru_cache(maxsize=None)
def _connected_chordal(n: int) -> tuple:
    return tuple(G for G in labeled_graphs_by_mask(n) if _is_connected(G) and brute_force_chordal(G))


def _profile_targets():
    return [path(k) for k in range(1, 5)] + [cycle(k) for k in range(3, 6)] + [
        from_edges(4, [(0, 1), (0, 2), (0, 3)]),  # K_{1,3}
        from_edges(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)]),  # K_{2,3}
        from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),  # the diamond
    ]


def _check_profiles(sources):
    outcomes = Counter()
    for F1 in sources:
        tree = clique_tree(F1)
        for F2 in _profile_targets():
            groups = grouped_profiles(F1, F2)
            if not groups:
                with pytest.raises(NoHomomorphism):
                    profiles(tree, F2)
                outcomes["none"] += 1
                continue
            # the same profiles, each with its group's first map as its
            # witness, in the order the enumeration first meets them
            expected = [(terms, maps[0]) for terms, maps in groups.items()]
            assert list(profiles(tree, F2).items()) == expected, (F1, F2)
            outcomes["maps"] += sum(map(len, groups.values()))
            outcomes["profiles"] += len(groups)
    return outcomes


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_profiles_match_the_grouped_forms_on_every_small_chordal_source(n):
    outcomes = _check_profiles(_connected_chordal(n))
    assert outcomes["profiles"] > 0
    if n >= 3:  # the triangle and up have no map into a path
        assert outcomes["none"] > 0
    if n == 5:
        assert outcomes["maps"] > outcomes["profiles"]


def test_profiles_match_the_grouped_forms_on_sampled_six_vertex_sources():
    rng = random.Random(6)
    sources = []
    while len(sources) < 25:
        G = random_graph(6, rng)
        if _is_connected(G) and brute_force_chordal(G):
            sources.append(G)
    assert _check_profiles(sources)["maps"] > 0


def test_profiles_of_a_forest_and_of_the_empty_source():
    # the trees of a clique forest are summed as the maps' independent parts
    F1 = disjoint_union([(path(0), 1), (path(2), 1), (complete(3), 1)])
    for F2 in (cycle(3), from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])):
        expected = [(terms, maps[0]) for terms, maps in grouped_profiles(F1, F2).items()]
        assert list(profiles(clique_tree(F1), F2).items()) == expected
    assert profiles(clique_tree(from_edges(0, [])), path(2)) == {(): ()}


def test_profiles_reach_past_enumeration():
    # P40 has about 8.7e8 maps into P3; its profiles come from the DP
    found = profiles(clique_tree(path(40)), path(3))
    assert len(found) > 1000
    assert next(iter(found.values())) == (0, 1) * 20 + (0,)


def _lifted(row):
    return ratlp.Row(
        tuple((j, Fraction(a)) for j, a in row.terms), row.rel, Fraction(row.rhs), row.tag
    )


def test_int_rows_and_their_fraction_lifts_give_the_same_hde(monkeypatch):
    # the polytope and profile rows reach lp.make_lp with int coefficients
    # and rhs; the same rows lifted to Fractions give the same exponent,
    # point, pivot count and argmax maps
    make_lp = ratlp.make_lp
    caught = []

    def catching(n_vars, objective, rows):
        caught.append(rows)
        return make_lp(n_vars, objective, rows)

    def lifting(n_vars, objective, rows):
        return make_lp(n_vars, objective, [_lifted(r) for r in rows])

    cases = [
        (disjoint_union([(path(0), 2), (path(t + 2), t)]), path(t)) for t in (1, 3, 5)
    ] + [
        (disjoint_union([(path(0), 2), (path(16), 1)]), path(3)),
        (path(2), cycle(4)),
        (cycle(3), cycle(3)),
    ]
    for F1, F2 in cases:
        monkeypatch.setattr(ratlp, "make_lp", catching)
        ratlp._presolve.cache_clear()  # so that neither run reads the other's presolve
        as_ints = compute_hde(F1, F2)
        (rows,) = caught
        caught.clear()
        polytope_rows = build_polytope(F2).constraints
        assert rows[:len(polytope_rows)] == polytope_rows
        assert {r.tag for r in rows[len(polytope_rows):]} == {"profile"}
        for r in rows:
            assert type(r.rhs) is int and all(type(a) is int for _, a in r.terms), r
        monkeypatch.setattr(ratlp, "make_lp", lifting)
        ratlp._presolve.cache_clear()
        as_fractions = compute_hde(F1, F2)
        assert as_fractions == as_ints
        assert as_fractions.lp_pivots == as_ints.lp_pivots
        assert [[h.map for h in homs] for _, _, homs in as_fractions.active] == [
            [h.map for h in homs] for _, _, homs in as_ints.active
        ]


def test_compute_hde_identity_case():
    assert compute_hde(path(1), path(1)).value == 1


def test_compute_hde_precondition_gates():
    with pytest.raises(NotChordal):
        compute_hde(cycle(4), path(2))
    with pytest.raises(NotSeriesParallel):
        compute_hde(path(2), complete(4))
    with pytest.raises(NoHomomorphism):
        compute_hde(path(1), from_edges(3, []))  # an edge cannot map to no edges


def test_a_non_chordal_component_is_refused_before_any_enumeration(monkeypatch):
    # P16 comes first and has 8,362 maps into P3; C4 after it is not chordal
    def refuse(F, G):
        raise AssertionError("homomorphisms enumerated before every forest was read")

    monkeypatch.setattr(hde, "enumerate_homs", refuse)
    with pytest.raises(NotChordal):
        compute_hde(disjoint_union([(path(16), 1), (cycle(4), 1)]), path(3))


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
            for mask, c in p1:
                acc[mask] += c
            for mask, c in p2:
                acc[mask] += c
            row = [(z, Fraction(1))]
            rhs = Fraction(0)
            for mask, c in acc.items():
                if mask == full:
                    rhs += c
                else:
                    row.append((var_of[mask], -c))
            rows.append((row, ">=", rhs))
    rows += [([(j, Fraction(1))], ">=", Fraction(0)) for j in range(z)]
    lp = ratlp.make_lp(z + 1, [(z, 1)], rows)
    out = ratlp.solve(lp)
    assert out.status == "optimal"
    assert out.value == res.value


def test_phi_i_examples():
    assert phi_i(1, 1).map == (0, 1, 0, 1)
    assert phi_i(3, 2).map == (0, 1, 2, 1, 2, 3)
    visits = edge_visits(phi_i(3, 2))
    assert visits[(1, 2)] == 3
    with pytest.raises(BadIndex):
        phi_i(3, 0)
    with pytest.raises(BadIndex):
        phi_i(3, 4)


def test_phi_i_edge_visit_multiset():
    for t in (1, 3, 5):
        for i in range(1, t + 1):
            visits = edge_visits(phi_i(t, i))
            for e in range(t):
                expected = 3 if e == i - 1 else 1  # 1-based edge {i,i+1}
                assert visits[(e, e + 1)] == expected


def test_psi_assembly_and_coverage():
    for t in (1, 3, 5):
        h = psi(t)
        assert h.map[0] == 0 and h.map[1] == t  # the two isolated vertices
        visits = edge_visits(h)
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
    for t in range(1, 22, 2):
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
            ratlp.evaluate(objective_clique_tree_form(tree, h), star)
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
        vals = {ratlp.evaluate(objective_clique_tree_form(tree, h), res.point) for h in homs}
        assert len(vals) == 1
        best = max(
            ratlp.evaluate(objective_clique_tree_form(tree, h), res.point)
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


@pytest.mark.parametrize("t", [1, 3, 5])
def test_hde_program_is_the_polytope_plus_one_row_per_profile(t):
    # every subset mask is a variable, p(empty) and p(V) included, and the
    # polytope rows enter unchanged beside one epigraph row per distinct
    # profile of each source component
    F2 = path(t)
    res = compute_hde(disjoint_union([(path(0), 2), (path(t + 2), t)]), F2)
    assert res.value == t + 2
    assert res.point == p_star(t)
    assert res.lp_vars == 2 ** (t + 1) + 2
    profiles = sum(
        len({objective_subset_form(comp, h) for h in enumerate_homs(comp, F2)})
        for comp in (path(0), path(t + 2))
    )
    assert res.lp_constraints == len(build_polytope(F2).constraints) + profiles


def test_flagship_lp_shape_is_pinned():
    # (value, variables, rows, pivots) of the LP behind the flagship
    # exponents t = 1, 3, 5 and HDE(P0^2 P16; P3)
    shapes = {
        (disjoint_union([(path(0), 2), (path(3), 1)]), path(1)): (3, 6, 8, 6),
        (disjoint_union([(path(0), 2), (path(5), 3)]), path(3)): (5, 18, 51, 26),
        (disjoint_union([(path(0), 2), (path(7), 5)]), path(5)): (7, 66, 360, 86),
        (disjoint_union([(path(0), 2), (path(16), 1)]), path(3)): (3, 18, 238, 36),
    }
    for (F1, F2), shape in shapes.items():
        res = compute_hde(F1, F2)
        assert (res.value, res.lp_vars, res.lp_constraints, res.lp_pivots) == shape


def test_max_objective_matches_enumeration():
    triangle_pendant = from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    sources = [
        path(0),
        path(1),
        path(4),
        path(7),
        from_edges(4, [(0, 1), (0, 2), (0, 3)]),  # the 3-star
        from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6)]),
        complete(3),
        complete(4),
        triangle_pendant,
        from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)]),  # fan
        from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),  # bowtie
    ]
    targets = [
        path(3),
        path(4),
        cycle(5),
        triangle_pendant,
        from_edges(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)]),  # K_{2,3}
    ]
    outcomes = Counter()
    for F2 in targets:
        points = [indicator_point(F2, i) for i in range(F2.n)]
        points += [random_vertex_point(F2, seed) for seed in range(4)]
        for F1 in sources:
            tree = clique_tree(F1)
            for p in points:
                expected = max_objective_by_enumeration(F1, F2, p)
                if expected is None:
                    with pytest.raises(NoHomomorphism):
                        max_objective(tree, F2, p)
                    outcomes["none"] += 1
                else:
                    assert max_objective(tree, F2, p) == expected
                    outcomes["max"] += 1
    assert outcomes["max"] > 250 and outcomes["none"] > 50
    with pytest.raises(NoHomomorphism):
        max_objective(clique_tree(complete(3)), path(3), indicator_point(path(3), 0))


@pytest.mark.parametrize("t", [1, 3, 5, 7])
def test_max_objective_at_a_modular_point_is_the_best_weight_sum(t):
    # at p(S) = sum of w_v over S the clique-tree objective of phi is
    # sum_v w_phi(v): each vertex's subtree of cliques has one more node
    # than edges, and phi is injective on every clique
    F2 = path(t)
    rng = random.Random(t)
    weights = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(F2.n)]
    modular = SetFunction(F2.n, tuple(
        sum((weights[v] for v in bits_of(mask)), Fraction(0)) for mask in range(1 << F2.n)
    ))
    for comp in (path(0), path(t + 2)):
        tree = clique_tree(comp)
        best = max(sum((weights[a] for a in h.map), Fraction(0)) for h in enumerate_homs(comp, F2))
        assert max_objective(tree, F2, modular) == best
        assert max_objective(tree, F2, p_star(t)) == Fraction(comp.n, t + 1)


def test_compute_hde_rechecks_each_epigraph_value(monkeypatch):
    monkeypatch.setattr(hde, "max_objective", lambda tree, F2, p: Fraction(-1))
    with pytest.raises(RatlpError, match="epigraph value"):
        compute_hde(disjoint_union([(path(0), 2), (path(3), 1)]), path(1))


def test_compute_hde_rejects_wrong_equality_duals(monkeypatch):
    # lp.verify checks the full program, so duals of the eliminated
    # equality rows that are not the true ones cannot pass
    monkeypatch.setattr(ratlp, "_equality_duals", lambda steps, excess: [Fraction(0)] * len(steps))
    with pytest.raises(RatlpError, match="failed verification"):
        compute_hde(disjoint_union([(path(0), 2), (path(3), 1)]), path(1))


def _form_of(parts):
    """The objective of the given per-component maps, term by term."""
    return [term for h in parts for term in objective_clique_tree_form(clique_tree(h.source), h)]


def test_psi_form_is_fixed_at_t_plus_2_on_the_polytope():
    for t in (1, 3, 5, 7, 9):
        assert fixed_value(path(t), psi_form(t)) == t + 2
    # the proof's value is the form's value at every member it is tried on
    for t in (1, 3, 5):
        F2 = path(t)
        points = [indicator_point(F2, i) for i in range(t + 1)] + [p_star(t)]
        points += [random_vertex_point(F2, seed) for seed in range(4)]
        for p in points:
            assert ratlp.evaluate(psi_form(t), p) == t + 2


def test_psi_form_mutations_are_not_fixed():
    for t in (3, 5, 7):
        ends, folds = hde._psi_parts(t)[:2], hde._psi_parts(t)[2:]
        mutations = {
            "phi_1 dropped": ends + folds[1:],
            "phi_2 replaced by phi_1": ends + folds[:1] * 2 + folds[2:],
            "one end dropped": ends[:1] + folds,
        }
        for name, parts in mutations.items():
            assert fixed_value(path(t), _form_of(parts)) is None, (t, name)


def test_certify_lower_is_the_sum_of_psi_parts_at_the_acceptance_points():
    for t in (1, 3, 5):
        F2 = path(t)
        points = [indicator_point(F2, i) for i in range(t + 1)] + [p_star(t)]
        points += [random_vertex_point(F2, seed) for seed in range(25)]
        for p in points:
            expected = sum(
                (ratlp.evaluate(objective_clique_tree_form(clique_tree(h.source), h), p)
                 for h in hde._psi_parts(t)),
                Fraction(0),
            )
            got = certify_lower(t, p)
            assert got == expected == t + 2 and type(got) is Fraction
