import random
from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest

from conftest import (
    build_polytope_unpruned, complete, fixed_value, fraction_violated_rows, holds, mask_of,
    pivot_dual,
)
from homdom import lp as ratlp
from homdom.errors import BadVertex, GroundMismatch, GroundTooLarge, MalformedInput
from homdom.graphs import cycle, from_edges, path, star
from homdom.polytope import (
    VERTEX_CACHE_SIZE,
    SetFunction,
    build_polytope,
    dump_polytope,
    indicator_point,
    is_member,
    p_star,
    random_vertex_point,
    separates,
    vertex_by_lp,
    _random_objective,
)


def test_separates_examples():
    P3 = path(3)
    assert separates(P3, mask_of([0, 1, 2]), mask_of([2, 3]))
    assert not separates(P3, mask_of([0, 1]), mask_of([0, 2]))
    # {0} and {2} are joined through vertex 1, which their (empty)
    # intersection does not contain; {1} cuts {0} from {2}
    assert not separates(P3, mask_of([0]), mask_of([2]))
    assert separates(P3, mask_of([0, 1]), mask_of([1, 2]))


def test_build_polytope_p1_exact():
    cs = build_polytope(path(1))
    assert cs.n_vars == 4
    lines = dump_polytope(cs).splitlines()
    assert lines == [
        "normalization: 1/1*p[{}] = 0/1",
        "normalization: 1/1*p[{0,1}] = 1/1",
        "monotone: 1/1*p[{1}] - 1/1*p[{0,1}] <= 0/1",
        "monotone: 1/1*p[{0}] - 1/1*p[{0,1}] <= 0/1",
        "submodular: 1/1*p[{}] + 1/1*p[{0,1}] - 1/1*p[{0}] - 1/1*p[{1}] <= 0/1",
    ]


def test_elemental_row_count():
    # 2 normalization + n monotone + one row per pair and set of the others
    for F2 in [path(t) for t in range(1, 7)] + [cycle(5)]:
        n = F2.n
        assert len(build_polytope(F2).constraints) == 2 + n + comb(n, 2) * 2 ** (n - 2)
    assert len(build_polytope(path(6)).constraints) == 681


def test_build_polytope_p3_has_the_separation_equality():
    cs = build_polytope(path(3))
    assert cs.n_vars == 16

    def rows_on(a, b):
        return [
            c
            for c in cs.constraints
            if dict(c.terms).get(a) == -1 and dict(c.terms).get(b) == -1
        ]

    separated = rows_on(mask_of([0, 1]), mask_of([1, 2]))
    assert separated and all(
        c.tag == "modular-separation" and c.rel == "=" for c in separated
    )
    joined = rows_on(mask_of([0]), mask_of([2]))
    assert joined and all(c.tag == "submodular" and c.rel == "<=" for c in joined)


def test_edgeless_ground_forces_modular_functions():
    g = from_edges(2, [])
    cs = build_polytope(g)
    assert all(c.tag != "submodular" for c in cs.constraints)
    for seed in range(10):
        p = random_vertex_point(g, seed)
        assert p[0b11] == p[0b01] + p[0b10]


def test_indicator_point_examples():
    P1 = path(1)
    p = indicator_point(P1, 0)
    assert p[mask_of([0])] == 1 and p[mask_of([0, 1])] == 1
    assert p[0] == 0 and p[mask_of([1])] == 0

    P3 = path(3)
    p1 = indicator_point(P3, 1)
    assert p1[0] == 0 and p1[p1.full_mask] == 1
    assert p1[mask_of([0, 2])] == 0

    with pytest.raises(BadVertex):
        indicator_point(P3, 4)


def test_p_star_examples():
    p = p_star(3)
    for i in range(4):
        assert p[1 << i] == Fraction(1, 4)
    for i in range(3):
        assert p[mask_of([i, i + 1])] == Fraction(1, 2)
    assert p[p.full_mask] == 1


def test_membership_of_paper_points():
    for t in range(1, 8):
        F2 = path(t)
        for i in range(t + 1):
            ok, violated = is_member(indicator_point(F2, i), F2)
            assert ok, (t, i, violated[:3])
        ok, violated = is_member(p_star(t), F2)
        assert ok, (t, violated[:3])


def test_membership_reports_violations():
    P1 = path(1)
    bad = SetFunction(
        2, (Fraction(0), Fraction(1), Fraction(1), Fraction(2))
    )  # p(V) = 2
    ok, violated = is_member(bad, P1)
    assert not ok
    assert any(c.tag == "normalization" for c in violated)
    # exactly the rows whose predicate fails, in the system's order
    cs = build_polytope(P1)
    assert violated == tuple(c for c in cs.constraints if not holds(c, bad))
    assert all(holds(c, bad.values) for c in cs.constraints if c not in violated)
    with pytest.raises(GroundMismatch):
        is_member(bad, path(3))


def _moved(p: SetFunction, mask: int, delta: Fraction) -> SetFunction:
    values = list(p.values)
    values[mask] += delta
    return SetFunction(p.ground_size, tuple(values))


def test_membership_is_exact_at_the_boundary():
    # a vertex lies on many rows with equality; moved by 1/2^200 on one
    # coordinate it must break exactly the rows that the Fraction sums say
    eps = Fraction(1, 1 << 200)
    rng = random.Random(13)
    for F2 in [path(t) for t in range(1, 7)] + [cycle(5)]:
        rows = build_polytope(F2).constraints
        p = random_vertex_point(F2, 0)
        assert is_member(p, F2) == (True, ()) and fraction_violated_rows(rows, p.values) == ()
        full = (1 << F2.n) - 1
        masks = {0, full} | {rng.randrange(1, full) for _ in range(3)}
        for mask in sorted(masks):
            for delta in (eps, -eps):
                q = _moved(p, mask, delta)
                ok, violated = is_member(q, F2)
                assert violated == fraction_violated_rows(rows, q.values), (F2, mask, delta)
                assert ok is (not violated)
                if mask in (0, full):  # a normalization row pins it
                    assert not ok


def test_verify_is_exact_at_the_boundary():
    # p(empty) carries no cost, so moving it up by 1/2^200 keeps the value;
    # with no bounds on the variables, the row check must reject the point
    eps = Fraction(1, 1 << 200)
    F2 = path(3)
    cs = build_polytope(F2)
    objective = [(j, c) for j, c in _random_objective(cs.n_vars, 5) if j]
    program = ratlp.make_lp(cs.n_vars, objective, cs.constraints)
    out = ratlp.solve(program)
    assert out.status == "optimal" and ratlp.verify(program, out)
    for mask in range(cs.n_vars):
        for delta in (eps, -eps):
            point = list(out.point)
            point[mask] += delta
            moved = ratlp.LpOutcome(out.status, out.value, tuple(point), out.duals, out.pivots)
            assert not ratlp.verify(program, moved), (mask, delta)
            assert ratlp.violated_rows(program.rows, point) == fraction_violated_rows(program.rows, point)
    point = list(out.point)
    point[0] += eps
    assert ratlp.violated_rows(program.rows, point)[0] is cs.constraints[0]  # p(empty) = 0


def test_set_function_values_must_be_exact_rationals():
    for bad in (0.5, 1.0, Decimal(1), "1", None):
        with pytest.raises(MalformedInput):
            SetFunction(1, (Fraction(0), bad))
    # plain ints are exact, and membership reads them as such
    ints = SetFunction(2, (0, 1, 1, 1))
    assert is_member(ints, path(1)) == (True, ())
    assert is_member(SetFunction(2, (0, 1, 1, 2)), path(1))[0] is False


def test_make_lp_hands_over_the_polytope_rows_themselves():
    for F2 in (path(1), path(3), cycle(5)):
        cs = build_polytope(F2)
        rows = ratlp.make_lp(cs.n_vars, _random_objective(cs.n_vars, 0), cs.constraints).rows
        assert len(rows) == len(cs.constraints)
        assert all(r is c for r, c in zip(rows, cs.constraints))


def test_the_rows_alone_bound_every_subset_value():
    # every LP variable is free, so p >= 0 must follow from the rows
    # themselves: min p(S) is 0 below V and max p(S) is 1 above the empty set
    for F2 in (path(3), cycle(4), complete(3)):
        for cs in (build_polytope(F2), build_polytope_unpruned(F2)):
            full = cs.n_vars - 1
            for S in range(cs.n_vars):
                for sign, expected in ((1, int(S == full)), (-1, -int(S != 0))):
                    program = ratlp.make_lp(cs.n_vars, [(S, sign)], cs.constraints)
                    out = ratlp.solve(program)
                    assert (out.status, out.value) == ("optimal", expected), (F2, S, sign)
                    assert ratlp.verify(program, out)


def test_ground_cap():
    with pytest.raises(GroundTooLarge):
        build_polytope(from_edges(21, []))


def test_random_vertices_are_members_and_deterministic():
    for t in (1, 2, 3):
        F2 = path(t)
        for seed in range(8):
            p = random_vertex_point(F2, seed)
            ok, violated = is_member(p, F2)
            assert ok, (t, seed, violated[:3])
        assert random_vertex_point(F2, 0) == random_vertex_point(F2, 0)


def test_random_vertices_member_invariant_100_seeds():
    # random_vertex_point re-checks membership internally and raises on
    # failure, so completing all calls is the invariant; results are cached
    # across the suite
    for t in range(1, 6):
        F2 = path(t)
        for seed in range(100):
            random_vertex_point(F2, seed)


def test_rigged_objective_recovers_an_indicator_point():
    t = 3
    F2 = path(t)
    cs = build_polytope(F2)
    i = 1
    objective = [
        (mask, Fraction(-1) if mask >> i & 1 else Fraction(1))
        for mask in range(cs.n_vars)
    ]
    out = ratlp.solve(ratlp.make_lp(cs.n_vars, objective, cs.constraints))
    assert out.status == "optimal"
    assert SetFunction(F2.n, out.point) == indicator_point(F2, i)


def test_build_determinism_byte_level():
    a = dump_polytope(build_polytope(path(3)))
    b = dump_polytope(build_polytope(path(3)))
    # also across distinct but equal graph objects (cache miss path)
    c = dump_polytope(build_polytope_unpruned(path(3)))
    d = dump_polytope(build_polytope_unpruned(path(3)))
    assert a == b and c == d


def test_pruning_soundness_vertices_and_optima():
    rng = random.Random(2024)
    grounds = (
        path(2),
        path(3),
        complete(3),
        cycle(4),
        cycle(5),
        from_edges(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)]),  # K_{2,3}
        star(3),
        from_edges(3, []),
        from_edges(4, [(0, 1), (2, 3)]),  # 2K_2
    )
    for F2 in grounds:
        pruned = build_polytope(F2)
        unpruned = build_polytope_unpruned(F2)
        for seed in range(50):
            vp = vertex_by_lp(pruned, seed)
            vu = vertex_by_lp(unpruned, seed)
            assert vp == vu, (F2, seed)
            assert all(holds(c, vp) for c in unpruned.constraints)
            assert all(holds(c, vu) for c in pruned.constraints)
        for _ in range(20):
            objective = [
                (m, Fraction(rng.randint(-50, 50))) for m in range(pruned.n_vars)
            ]
            a = ratlp.solve(ratlp.make_lp(pruned.n_vars, objective, pruned.constraints))
            b = ratlp.solve(ratlp.make_lp(unpruned.n_vars, objective, unpruned.constraints))
            assert a.status == b.status == "optimal"
            assert a.value == b.value


def test_hull_lift_recovers_polytope_points():
    # every point of the polytope satisfies the equality rows; with each
    # coordinate pinned to the point as one more equality row, the
    # presolve eliminates them all and must lift the point back, as the
    # simplex run on the same program without a presolve finds it
    for F2 in (path(1), path(3), path(5), complete(3)):
        cs = build_polytope(F2)
        objective = _random_objective(cs.n_vars, 0)
        points = [indicator_point(F2, i) for i in range(F2.n)]
        if F2 == path(F2.n - 1):
            points.append(p_star(F2.n - 1))
        for p in points:
            pins = tuple(ratlp.make_row([(mask, 1)], "=", p[mask]) for mask in range(cs.n_vars))
            pinned = ratlp.make_lp(cs.n_vars, objective, cs.constraints + pins)
            lifted = ratlp.solve(pinned)
            reference = pivot_dual(pinned)
            assert lifted.point == reference.point == p.values
            assert lifted.value == reference.value
            assert ratlp.verify(pinned, lifted)


def test_vertex_by_lp_matches_the_whole_system_pivoted():
    # the reference pivots the whole system with no presolve
    for F2 in (path(2), path(3), path(4), complete(3)):
        for cs in (build_polytope(F2), build_polytope_unpruned(F2)):
            for seed in range(10):
                objective = _random_objective(cs.n_vars, seed)
                whole = pivot_dual(ratlp.make_lp(cs.n_vars, objective, cs.constraints))
                assert whole.status == "optimal"
                assert vertex_by_lp(cs, seed) == SetFunction(F2.n, whole.point)


def test_fixed_value_reads_the_normalization_and_refuses_a_free_form():
    for t in range(1, 6):
        F2 = path(t)
        full = (1 << F2.n) - 1
        assert fixed_value(F2, [(0, 1)]) == 0
        assert fixed_value(F2, [(full, 3), (0, 5)]) == 3
        # p({0}) is 1 at the indicator point of vertex 0 and 0 at another's
        assert fixed_value(F2, [(1, 1)]) is None
    with pytest.raises(GroundTooLarge):
        fixed_value(path(14), [(0, 1)])


def test_vertex_cache_is_bounded():
    # placed last in the module: sampling past the bound evicts the vertices
    # that earlier tests share through the cache
    assert random_vertex_point.cache_info().maxsize == VERTEX_CACHE_SIZE
    F2 = path(1)
    for seed in range(10_000, 10_000 + VERTEX_CACHE_SIZE + 50):
        random_vertex_point(F2, seed)
    assert random_vertex_point.cache_info().currsize <= VERTEX_CACHE_SIZE

