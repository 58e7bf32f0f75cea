"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
zero: all comparisons are exact rational or integer equalities.
"""

import random
import time
from fractions import Fraction

from homdom import lp as ratlp
from homdom.graphs import clique_tree, disjoint_union, path
from homdom.homs import count_homs, enumerate_homs, normalized_walks, walk_count
from homdom.polytope import indicator_point, p_star, random_vertex_point
from homdom.hde import (
    certify_lower,
    certify_upper,
    compute_hde,
    walk_form,
)
from homdom.checks import (
    Scope,
    check_hde_definition,
    check_lemma_identity,
    find_counterexample,
    labeled_graphs,
    prove_path_identity,
    sweep,
)
from conftest import brute_force_lp, objective_clique_tree_form, objective_subset_form, walk_parts

VERTEX_SEEDS = range(100)
SANDWICH_SEEDS = range(25)

_flagship_cache = {}


def _flagship(t):
    if t not in _flagship_cache:
        f1 = disjoint_union([(path(0), 2), (path(t + 2), t)])
        started = time.perf_counter()
        res = compute_hde(f1, path(t))
        _flagship_cache[t] = (res, time.perf_counter() - started)
    return _flagship_cache[t]


def _report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_flagship_reproduction():
    res1, secs1 = _flagship(1)
    res3, secs3 = _flagship(3)
    res5, secs5 = _flagship(5)  # stretch goal, cheap enough to always run
    ok = (
        res1.value == 3
        and secs1 < 10
        and res3.value == 5
        and secs3 < 300
        and res5.value == 7
    )
    _report(
        1,
        ok,
        "HDE(P0^2 P_{t+2}^t; P_t) = t+2 exactly for t=1 (%.2fs), t=3 (%.2fs), "
        "stretch t=5 (%.2fs)" % (secs1, secs3, secs5),
    )


def test_criterion_2_certificate_sandwich():
    ok = True
    for t in (1, 3, 5):
        upper = certify_upper(t)
        ok = ok and upper == t + 2
        F2 = path(t)
        for seed in SANDWICH_SEEDS:
            ok = ok and certify_lower(t, random_vertex_point(F2, seed)) == t + 2
        ok = ok and _flagship(t)[0].value == t + 2
    _report(
        2,
        ok,
        "certify_upper(t) = certify_lower(t, p) = compute_hde = t+2 exactly, "
        "t in {1,3,5}, 25 random polytope vertices each",
    )


def test_criterion_3_main_theorem_desk_check():
    started = time.perf_counter()
    pairs = ((1, 3), (1, 5), (3, 5), (3, 7))
    checked = 0
    ok = True
    for n in range(1, 6):
        for G in labeled_graphs(n):
            for t, k in pairs:
                ok = ok and sweep(t, k, Scope.graphs([G])).verdict == "holds"
                checked += 1
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120
    _report(
        3,
        ok,
        f"w_k^t >= w_t^k on all {checked} (graph, pair) cases with n <= 5 "
        f"in {elapsed:.1f}s (< 120s)",
    )


def test_criterion_4_blakley_roy_desk_check():
    ok = True
    equality_graphs = 0
    for n in range(1, 6):
        for G in labeled_graphs(n):
            d = Fraction(2 * G.edge_count, G.n)
            equal_all_k = True
            for k in range(0, 7):
                w = normalized_walks(G, k)
                ok = ok and w >= d**k
                equal_all_k = equal_all_k and w == d**k
            ok = ok and equal_all_k == G.is_regular()
            equality_graphs += equal_all_k
    _report(
        4,
        ok,
        f"w_k >= d^k for n <= 5, k <= 6; equality across all k on exactly "
        f"the {equality_graphs} regular graphs",
    )


def test_criterion_5_parity_counterexample():
    rep = find_counterexample(2, 3, Scope.exhaustive_upto(3))
    ok = rep.verdict == "counterexample-found"

    P2 = path(2)
    w2 = normalized_walks(P2, 2)
    w3 = normalized_walks(P2, 3)
    ok = ok and w2 == 2 and w3 == Fraction(8, 3)
    ok = ok and w3**2 == Fraction(64, 9) and w2**3 == 8 and w3**2 < w2**3
    _report(
        5,
        ok,
        "t=2,k=3 violated within exhaustive n <= 3; P2 gives "
        "w_3^2 = 64/9 < 8 = w_2^3 exactly",
    )


def test_criterion_6_identity_suite():
    ok = True
    points_checked = 0
    for t in range(1, 7):
        F2 = path(t)
        points = [indicator_point(F2, i) for i in range(t + 1)]
        points.append(p_star(t))
        points.extend(random_vertex_point(F2, seed) for seed in VERTEX_SEEDS)
        for p in points:
            ok = ok and check_lemma_identity(t, p).verdict == "holds"
            points_checked += 1
    _report(
        6,
        ok,
        f"p(V) = sum(edges) - sum(inner) on {points_checked} polytope points, "
        "t in 1..6 including even t",
    )


def test_criterion_7_chaining():
    # HDE(P0^{k-t} P_k^t; P_t) >= k gives w_k^t >= w_t^k by the entropy lemma
    ok = True
    pairs = 0
    for t in range(1, 16, 2):
        for k in range(t, 16, 2):
            form = walk_form(t, k)
            oracle = ratlp._norm_terms(
                term for h in walk_parts(t, k) for term in objective_subset_form(h.source, h)
            )
            ok = ok and form == oracle
            ok = ok and prove_path_identity(t, form, k) and not prove_path_identity(t, form, k - 1)
            pairs += 1
    _report(7, ok, f"the walks prove HDE(P0^(k-t) P_k^t; P_t) >= k, and not k-1, for all "
                   f"{pairs} pairs of odd t <= k <= 15")


def test_criterion_8_oracle_equivalences():
    ok = True
    # (a) three-way agreement of the path-homomorphism oracles
    for n in range(1, 6):
        for G in labeled_graphs(n):
            for k in range(0, 7):
                w = walk_count(G, k)
                ok = ok and count_homs(path(k), G) == w
                ok = ok and sum(1 for _ in enumerate_homs(path(k), G)) == w

    # (b) the two objective forms agree on the stated corpus
    sources = [
        path(0),
        path(2),
        path(4),
        disjoint_union([(path(0), 2), (path(3), 1)]),
        disjoint_union([(path(0), 1), (path(2), 2)]),
    ]
    for t in range(1, 5):
        F2 = path(t)
        for F1 in sources:
            tree = clique_tree(F1)
            for hom in enumerate_homs(F1, F2):
                a = objective_subset_form(F1, hom)
                b = objective_clique_tree_form(tree, hom)
                ok = ok and a == b

    # (c) the exact simplex against brute-force vertex enumeration
    rng = random.Random(20240812)
    agreements = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(1, 8 - n)
        rows = []
        for _ in range(m):
            terms = [(j, Fraction(rng.randint(-3, 3))) for j in range(n)]
            rel = rng.choice(["<=", "<=", ">=", ">=", "="])
            rows.append((terms, rel, Fraction(rng.randint(-3, 3))))
        for j in range(n):
            rows.append(([(j, Fraction(1))], "<=", Fraction(4)))
        objective = [(j, Fraction(rng.randint(-3, 3))) for j in range(n)]
        rows += [([(j, Fraction(1))], ">=", Fraction(-4)) for j in range(n)]
        lp = ratlp.make_lp(n, objective, rows)
        status, value = brute_force_lp(lp)
        out = ratlp.solve(lp)
        ok = ok and out.status == status
        if status == "optimal":
            ok = ok and out.value == value
        agreements += 1
    _report(
        8,
        ok,
        "count = walk = enumeration (n <= 5, k <= 6); subset form = clique-tree "
        f"form on the corpus; simplex = vertex enumeration on {agreements} LPs",
    )


def test_criterion_9_hde_definition_soundness():
    f1 = disjoint_union([(path(0), 2), (path(3), 1)])
    f2 = path(1)
    holds = check_hde_definition(f1, f2, Fraction(3), Scope.exhaustive_upto(5))
    violated = check_hde_definition(f1, f2, Fraction(31, 10), Scope.exhaustive_upto(3))
    ok = holds.verdict == "holds" and violated.verdict == "violated"
    ok = ok and bool(violated.witnesses)
    _report(
        9,
        ok,
        "Hom(P0^2 P3;G) >= Hom(P1;G)^3 on all n <= 5; c = 31/10 refuted by "
        "a witness in the searched scope",
    )
