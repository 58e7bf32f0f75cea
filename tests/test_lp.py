import cProfile
import pstats
import random
from collections import Counter
from fractions import Fraction

import pytest

from homdom import hde, polytope
from homdom import lp as ratlp
from homdom.errors import RatlpError
from homdom.graphs import cycle, disjoint_union, path
from conftest import (
    FractionPresolve,
    FractionSimplex,
    brute_force_lp,
    fraction_violated_rows,
    holds,
    pivot_dual,
    simplex_duals,
    simplex_solution,
)


def _bound_rows(lower):
    """One ``x_j >= lb`` row per variable j with a lower bound lb (not None)."""
    return [([(j, 1)], ">=", lb) for j, lb in enumerate(lower) if lb is not None]


def _lp_ex2():
    # min x+y s.t. x+2y >= 3, x >= 0, y >= 0 -> 3/2 at (0, 3/2)
    return ratlp.make_lp(
        2,
        [(0, 1), (1, 1)],
        [([(0, 1), (1, 2)], ">=", 3)] + _bound_rows([0, 0]),
    )


def test_examples():
    p1 = ratlp.make_lp(1, [(0, 1)], [([(0, 1)], ">=", 1)])
    o1 = ratlp.solve(p1)
    assert (o1.status, o1.value) == ("optimal", 1)

    o2 = ratlp.solve(_lp_ex2())
    assert o2.status == "optimal"
    assert o2.value == Fraction(3, 2)
    assert o2.point == (0, Fraction(3, 2))

    p3 = ratlp.make_lp(1, [(0, -1)], [([(0, 1)], ">=", 0)])
    assert ratlp.solve(p3).status == "unbounded"

    p4 = ratlp.make_lp(1, [(0, 1)], [([(0, 1)], "<=", 0), ([(0, 1)], ">=", 1)])
    assert ratlp.solve(p4).status == "infeasible"


def test_make_row_and_make_lp_lift_int_input_to_fractions():
    # the constructors lift what they are handed; a Row keeps its values
    row = ratlp.make_row([(1, 2), (0, 3), (1, -2)], "<=", 4)
    assert row == ratlp.Row(((0, Fraction(3)),), "<=", Fraction(4))
    assert type(row.rhs) is Fraction and all(type(a) is Fraction for _, a in row.terms)
    kept = ratlp.Row(((0, 1),), ">=", 0)
    lp = ratlp.make_lp(2, [(1, 5), (0, 0)], [([(0, 1), (1, 1)], ">=", 1), kept])
    assert lp.objective == ((1, Fraction(5)),) and type(lp.objective[0][1]) is Fraction
    built = lp.rows[0]
    assert type(built.rhs) is Fraction and all(type(a) is Fraction for _, a in built.terms)
    assert lp.rows[1] is kept and type(kept.terms[0][1]) is int


def test_verify_accepts_and_rejects():
    lp = _lp_ex2()
    out = ratlp.solve(lp)
    assert ratlp.verify(lp, out)

    off_value = ratlp.LpOutcome(
        "optimal", out.value + 1, out.point, out.duals, out.pivots
    )
    assert not ratlp.verify(lp, off_value)

    off_point = ratlp.LpOutcome(
        "optimal",
        out.value,
        (Fraction(1), Fraction(1, 2)),
        out.duals,
        out.pivots,
    )
    assert not ratlp.verify(lp, off_point)

    tampered_row = ratlp.make_lp(
        2,
        [(0, 1), (1, 1)],
        [([(0, 1), (1, 2)], ">=", 4)] + _bound_rows([0, 0]),
    )
    assert not ratlp.verify(tampered_row, out)

    # feasible, with the right value and one sign-feasible dual per row,
    # each complementary to its row: only the reduced costs reject it
    suboptimal = ratlp.LpOutcome(
        "optimal",
        Fraction(3),
        (Fraction(3), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(0)),
        out.pivots,
    )
    assert len(suboptimal.duals) == len(lp.rows)
    assert not ratlp.verify(lp, suboptimal)


def _objective(rng: random.Random, n: int):
    """Random costs, negated on a "max" draw so that minimising them
    maximises the drawn costs."""
    costs = [(j, Fraction(rng.randint(-3, 3))) for j in range(n)]
    if rng.choice(["min", "max"]) == "max":
        costs = [(j, -c) for j, c in costs]
    return costs


def _random_lp(rng: random.Random):
    n = rng.randint(1, 4)
    m = rng.randint(1, 8 - n)
    rows = []
    for _ in range(m):
        terms = [(j, Fraction(rng.randint(-3, 3))) for j in range(n)]
        rel = rng.choice(["<=", "<=", ">=", ">=", "="])
        rows.append((terms, rel, Fraction(rng.randint(-3, 3))))
    for j in range(n):  # box keeps every instance bounded
        rows.append(([(j, Fraction(1))], "<=", Fraction(4)))
    return ratlp.make_lp(n, _objective(rng, n), rows + _bound_rows([Fraction(-4)] * n))


def test_random_lps_against_vertex_enumeration():
    rng = random.Random(20240812)
    solved = 0
    for _ in range(200):
        lp = _random_lp(rng)
        status, value = brute_force_lp(lp)
        out = ratlp.solve(lp)
        assert out.status == status
        if status == "optimal":
            solved += 1
            assert out.value == value
            assert ratlp.verify(lp, out)
    assert solved > 50  # the corpus must actually exercise the solver


def test_determinism():
    rng = random.Random(77)
    for _ in range(20):
        lp = _random_lp(rng)
        assert ratlp.solve(lp) == ratlp.solve(lp)
        assert repr(ratlp.solve(lp)) == repr(ratlp.solve(lp))


def test_equality_only_and_redundant_rows():
    # x + y = 2 stated twice plus an implied copy: the presolve finds both
    # copies empty once x is eliminated, and gives them dual 0
    lp = ratlp.make_lp(
        2,
        [(0, 1), (1, 2)],
        [
            ([(0, 1), (1, 1)], "=", 2),
            ([(0, 1), (1, 1)], "=", 2),
            ([(0, 2), (1, 2)], "=", 4),
        ]
        + _bound_rows([0, 0]),
    )
    out = ratlp.solve(lp)
    assert out.status == "optimal"
    assert out.value == 2
    assert ratlp.verify(lp, out)


def test_row_holds_at_above_and_below_the_rhs():
    # 2x - y at x = (2, 1) is 3; the rhs is then 3, 4 (above) and 2 (below)
    x = (Fraction(2), Fraction(1))
    expected = {
        "<=": {3: True, 4: True, 2: False},
        "=": {3: True, 4: False, 2: False},
        ">=": {3: True, 4: False, 2: True},
    }
    for rel, by_rhs in expected.items():
        for rhs, met in by_rhs.items():
            row = ratlp.Row(((0, Fraction(2)), (1, Fraction(-1))), rel, Fraction(rhs), "t")
            assert holds(row, x) is met, (rel, rhs)
            # any indexable point will do
            assert holds(row, dict(enumerate(x))) is met
    assert ratlp.evaluate(((0, Fraction(2)), (1, Fraction(-1))), x) == 3
    assert ratlp.evaluate((), x) == 0


def _rational(rng: random.Random, bits: int) -> Fraction:
    return Fraction(rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 1 << bits))


def _point(rng: random.Random, n: int, kind: str):
    """Plain ints, or Fractions of mixed denominators (small, up to 2^64,
    2^200 times a small one, and 3^127), negative values included."""
    if kind == "ints":
        return [rng.randint(-50, 50) for _ in range(n)]
    x = []
    for _ in range(n):
        den = rng.choice([1, rng.randint(2, 9), rng.randint(1, 1 << 64),
                          (1 << 200) * rng.randint(1, 9), 3 ** 127])
        x.append(Fraction(rng.randint(-(1 << 70), 1 << 70), den))
    return x


def _rows_at(rng: random.Random, x, count: int):
    """Rows over a random subset of x's coordinates, with coefficients and a
    rhs of denominators up to 2^64; the rhs is drawn at random, or set to
    the row's value at x, or moved off it by 1/2^64, so that every relation
    is met both with and without equality and broken on both sides.  Each
    row's tag is its index."""
    rows = []
    for i in range(count):
        coords = sorted(rng.sample(range(len(x)), rng.randint(0, len(x))))
        terms = tuple((j, _rational(rng, rng.choice([3, 64]))) for j in coords)
        value = sum((a * x[j] for j, a in terms), Fraction(0))
        rhs = rng.choice([_rational(rng, 64), value, value + Fraction(1, 1 << 64),
                          value - Fraction(1, 1 << 64)])
        rows.append(ratlp.Row(terms, rng.choice(ratlp.RELATIONS), rhs, str(i)))
    return rows


def test_violated_rows_match_the_fraction_sums():
    rng = random.Random(20261018)
    seen = Counter()
    for trial in range(150):
        n = rng.randint(1, 7)
        x = _point(rng, n, rng.choice(["ints", "fractions", "fractions"]))
        rows = _rows_at(rng, x, 12)
        expected = fraction_violated_rows(rows, x)
        got = ratlp.violated_rows(rows, x)
        # the same rows, in the same order
        assert [r.tag for r in got] == [r.tag for r in expected], trial
        for row in rows:
            met = row not in expected
            assert holds(row, x) is met and holds(row, dict(enumerate(x))) is met
            seen[row.rel, met] += 1
    # every relation is both met and broken
    assert all(seen[rel, met] >= 20 for rel in ratlp.RELATIONS for met in (True, False))


def test_violated_rows_reads_only_the_referenced_coordinates():
    # a row over x[1] alone holds or not by x[1] alone, whatever the
    # denominators of the other coordinates
    half = ratlp.Row(((1, Fraction(2, 3)),), "<=", Fraction(1, 3))
    for other in (Fraction(1, 3 ** 127), Fraction(-7, 1 << 200), 5):
        assert ratlp.violated_rows([half], [other, Fraction(1, 2), other]) == ()
        assert ratlp.violated_rows([half], [other, Fraction(1, 2) + Fraction(1, 1 << 200), other]) == (half,)
    assert ratlp.violated_rows([], [Fraction(1, 3)]) == ()
    assert ratlp.violated_rows([ratlp.Row((), ">=", Fraction(1, 1 << 64))], []) != ()


def test_verify_rejects_a_point_moved_off_a_row_by_2_to_the_minus_200():
    # min x1 s.t. 3 x0 = 1, x1 >= 2/7, x0 free and without cost: the
    # equality's dual is 0, so moving x0 keeps the value, the bounds and
    # every dual condition, and only the row check can reject the point
    lp = ratlp.make_lp(2, [(1, 1)], [([(0, 3)], "=", 1), ([(1, 1)], ">=", Fraction(2, 7))])
    out = ratlp.solve(lp)
    assert out.point == (Fraction(1, 3), Fraction(2, 7)) and out.duals == (0, 1)
    assert ratlp.verify(lp, out)
    for delta in (Fraction(1, 1 << 200), -Fraction(1, 1 << 200)):
        moved = out.point[0] + delta, out.point[1]
        assert not ratlp.verify(lp, ratlp.LpOutcome("optimal", out.value, moved, out.duals, out.pivots))
        assert ratlp.violated_rows(lp.rows, moved) == (lp.rows[0],)


@pytest.mark.parametrize("rel", [">=", "<="])
def test_verify_rejects_a_nonzero_dual_on_a_row_slack_by_2_to_the_minus_200(rel):
    # min x0 / 2^5 s.t. s (x0 / 3^41 + 5 x1 / 2^67) REL s 7 / 6^4 and
    # x1 = 1/3, for s = +-1: the first row, of mixed 3^k and 2^k
    # denominators, is tight at the optimum with a nonzero dual.  Its rhs
    # moved by 2^-200 to the slack side keeps the point feasible, the
    # value, the dual's sign and every reduced cost, so only complementary
    # slackness can reject the outcome
    s = 1 if rel == ">=" else -1
    terms = [(0, s * Fraction(1, 3 ** 41)), (1, s * Fraction(5, 2 ** 67))]

    def program(rhs):
        return ratlp.make_lp(2, [(0, Fraction(1, 2 ** 5))],
                             [(terms, rel, rhs), ([(1, 1)], "=", Fraction(1, 3))])

    tight = program(s * Fraction(7, 6 ** 4))
    out = ratlp.solve(tight)
    assert out.status == "optimal" and out.duals[0] != 0
    assert ratlp.verify(tight, out)
    slack = program(s * (Fraction(7, 6 ** 4) - Fraction(1, 1 << 200)))
    assert ratlp.violated_rows(slack.rows, out.point) == ()
    assert not ratlp.verify(slack, out)


def test_tags_do_not_keep_duplicate_reduced_rows_apart():
    # two copies of x + y >= 1 under different tags reduce to one row of
    # the presolved program, as two untagged copies do; with the two bound
    # rows, both programs reduce to three rows
    def program(tags):
        rows = [ratlp.Row(((0, Fraction(1)), (1, Fraction(1))), ">=", Fraction(1), tag)
                for tag in tags]
        return ratlp.make_lp(2, [(0, 1), (1, 2)], rows + _bound_rows([0, 0]))

    tagged, untagged = program(("a", "b")), program(("", ""))
    counts = [len(ratlp._presolve(tuple(lp.rows), lp.n_vars)[4]) for lp in (tagged, untagged)]
    assert counts == [3, 3]
    assert ratlp.solve(tagged) == ratlp.solve(untagged)
    assert ratlp.verify(tagged, ratlp.solve(tagged))


def test_free_variables_both_sides():
    # min y s.t. y >= x - 1, y >= -x - 1 with x, y free -> -1; free
    # variables give = lines of the dual, with and without the presolve
    lp = ratlp.make_lp(
        2,
        [(1, 1)],
        [
            ([(1, 1), (0, -1)], ">=", -1),
            ([(1, 1), (0, 1)], ">=", -1),
        ],
    )
    for out in (ratlp.solve(lp), pivot_dual(lp)):
        assert out.status == "optimal" and out.value == -1
        assert ratlp.verify(lp, out)


def test_unbounded_vs_infeasible_via_dual_side():
    unbounded = ratlp.make_lp(1, [(0, -1)], [([(0, 1)], ">=", 0)])
    assert ratlp.solve(unbounded).status == "unbounded"
    infeasible = ratlp.make_lp(
        1, [(0, 1)], [([(0, 1)], ">=", 2), ([(0, 1)], "<=", 1)]
    )
    assert ratlp.solve(infeasible).status == "infeasible"
    # = rows pivoted with no presolve: both duals are infeasible, and the
    # zero-cost probe tells the unbounded program from the infeasible one
    free_line = ratlp.make_lp(2, [(0, 1)], [([(0, 1), (1, 1)], "=", 1)])
    clash = ratlp.make_lp(
        2, [(0, 1), (1, -1)], [([(0, 1), (1, 1)], "=", 1), ([(0, 1), (1, 1)], "=", 2)]
    )
    for program, status in ((free_line, "unbounded"), (clash, "infeasible")):
        assert ratlp.solve(program).status == pivot_dual(program).status == status


def test_validation_errors():
    with pytest.raises(RatlpError):
        ratlp.make_lp(1, [(3, 1)], [])
    with pytest.raises(RatlpError):
        ratlp.make_lp(1, [(0, 1)], [([(0, 1)], "<", 1)])


def _equality_lp(rng: random.Random):
    """A bounded LP whose presolve has work to do.

    Variable 0 is free and leads the first equality row.  The second row
    is a row led by variable 1, which has a nonzero lower bound row, plus a
    multiple of the first row, so it leads with variable 1 only once
    variable 0 is eliminated.  The third row is a combination of the two,
    with its right-hand side off by one in about a quarter of the
    programs.  The objective weighs every variable, eliminated ones too.
    """
    n = rng.randint(3, 4)
    lower = [None, Fraction(rng.choice([-2, 1]))]
    lower += [rng.choice([None, Fraction(0), Fraction(-1)]) for _ in range(n - 2)]

    def led_by(first):
        lead = [(first, Fraction(rng.choice([-2, -1, 1, 3])))]
        return lead + [(j, Fraction(rng.randint(-2, 2))) for j in range(first + 1, n)]

    def combine(a, row_a, b, row_b):
        acc = {}
        for w, (terms, rhs) in ((a, row_a), (b, row_b)):
            for j, v in terms:
                acc[j] = acc.get(j, 0) + w * v
        return list(acc.items()), a * row_a[1] + b * row_b[1]

    first = (led_by(0), Fraction(rng.randint(-3, 3)))
    second = combine(1, (led_by(1), Fraction(rng.randint(-3, 3))), rng.randint(-2, 2), first)
    terms, rhs = combine(rng.choice([1, 2]), first, rng.choice([-1, 1]), second)
    if rng.random() < 0.25:
        rhs += 1
    rows = [(t, "=", r) for t, r in (first, second, (terms, rhs))]
    for _ in range(rng.randint(1, 2)):
        rows.append(([(j, Fraction(rng.randint(-3, 3))) for j in range(n)],
                     rng.choice(["<=", ">="]), Fraction(rng.randint(-3, 3))))
    for j in range(n):  # box keeps every instance bounded
        rows.append(([(j, Fraction(1))], "<=", Fraction(4)))
        if lower[j] is None:
            rows.append(([(j, Fraction(1))], ">=", Fraction(-4)))
    rng.shuffle(rows)
    return ratlp.make_lp(n, _objective(rng, n), rows + _bound_rows(lower))


def test_presolve_against_vertex_enumeration():
    # solved with the presolve, the outcome must be the brute-force optimum
    # and pass verify on the full program, duals of the eliminated rows and
    # the objective's constant included; pivoted with no presolve, the =
    # rows reach the dual as pairs of opposite columns
    rng = random.Random(20261018)
    statuses = Counter()
    for _ in range(60):
        lp = _equality_lp(rng)
        status, value = brute_force_lp(lp)
        statuses[status] += 1
        for out in (ratlp.solve(lp), pivot_dual(lp)):
            assert out.status == status
            if status == "optimal":
                assert out.value == value
                assert ratlp.verify(lp, out)
    assert statuses["optimal"] > 25 and statuses["infeasible"] > 10


# -- the integer simplex core against the Fraction core ----------------------


def _record_core_runs(monkeypatch, run):
    """Every ``lp._Simplex`` that ``run()`` builds and solves, in order,
    with the b and costs it was handed as ``b`` and ``costs``."""
    runs = []

    class Recording(ratlp._Simplex):
        def __init__(self, m, cols, b):
            super().__init__(m, cols, b)
            self.b = tuple(b)

        def solve_two_phase(self, costs):
            self.costs = tuple(costs)
            runs.append(self)
            return super().solve_two_phase(costs)

    with monkeypatch.context() as patched:
        patched.setattr(ratlp, "_Simplex", Recording)
        run()
    return runs


def _core_run(core, m, cols, b, costs):
    """``core`` on one program: its status, final basis, pivot count,
    every pivot's (row, entering column), basic values and duals."""
    trace = []

    class Traced(core):
        def _pivot(self, r, j, d):
            trace.append((r, j))
            super()._pivot(r, j, d)

    spx = Traced(m, cols, b)
    status = spx.solve_two_phase(costs)
    if core is FractionSimplex:
        return status, spx.basis, spx.pivots, trace, spx.solution(), spx.duals_for(costs)
    return status, spx.basis, spx.pivots, trace, simplex_solution(spx), simplex_duals(spx, costs)


def _assert_cores_agree(run):
    """The integer core and the Fraction core, on the program of a
    recorded run, make the same pivots and read the same values.  The
    Fraction core is handed the program as ``Fraction``s."""
    m, cols, b, costs = run.m, run.cols, run.b, run.costs
    exact = (
        m,
        [tuple((r, Fraction(v)) for r, v in col) for col in cols],
        [Fraction(v) for v in b],
        [Fraction(v) for v in costs],
    )
    got, expected = _core_run(ratlp._Simplex, m, cols, b, costs), _core_run(FractionSimplex, *exact)
    assert got == expected, (m, cols, b, costs)
    return got


def _flagship(t):
    return disjoint_union([(path(0), 2), (path(t + 2), t)])


def _core_corpus(also=None):
    """Hand ``lp.solve``, and ``also`` when given, every program of the
    random and equality corpora; then solve the flagship exponents t = 1, 3,
    5, seeded vertex LPs of P_3, P_5 and P_6, and HDE(P0^2 P16; P3)."""
    for seed, make, count in ((20240812, _random_lp, 200), (20261018, _equality_lp, 60)):
        rng = random.Random(seed)
        for _ in range(count):
            program = make(rng)
            ratlp.solve(program)
            if also:
                also(program)
    for t in (1, 3, 5):
        hde.compute_hde(_flagship(t), path(t))
    for n, seeds in ((3, range(6)), (5, range(3)), (6, range(2))):
        for seed in seeds:
            polytope.vertex_by_lp(polytope.build_polytope(path(n)), seed)
    hde.compute_hde(disjoint_union([(path(0), 2), (path(16), 1)]), path(3))


def test_integer_core_matches_the_fraction_core(monkeypatch):
    # every program the solver hands the core: the random and equality
    # corpora (presolved, and pivoted with no presolve), the flagship
    # exponents t = 1, 3, 5, seeded vertex LPs of P_3, P_5 and P_6, and
    # HDE(P0^2 P16; P3); both cores must take the same pivots in the same
    # order to the same basis and values, zero-cost probe runs included
    runs = _record_core_runs(monkeypatch, lambda: _core_corpus(also=pivot_dual))
    statuses = Counter()
    probes = pivots = 0
    for spx in runs:
        status, _, count, _, _, _ = _assert_cores_agree(spx)
        statuses[status] += 1
        probes += not any(spx.b)
        pivots += count
    # 482 runs, 2,255 pivots: 359 optimal, 123 unbounded, 22 probes
    assert len(runs) > 450 and pivots > 2000
    assert statuses["optimal"] > 300 and statuses["unbounded"] > 100 and probes > 15


def test_solve_hands_the_core_ints_and_one_column_per_reduced_row(monkeypatch):
    # every core run that ``solve`` alone makes over the core-agreement
    # corpus, zero-cost probes included: its columns, right-hand side and
    # costs hold only ints, and it has one column per reduced row of the
    # presolve, so no pair of opposite columns for an = row reaches the core
    solve = ratlp.solve
    solves = runs = 0

    def checking(program):
        nonlocal solves, runs
        outs = []
        recorded = _record_core_runs(monkeypatch, lambda: outs.append(solve(program)))
        presolved = ratlp._presolve(tuple(program.rows), program.n_vars)
        for spx in recorded:
            values = list(spx.b) + list(spx.costs) + [v for col in spx.cols for entry in col for v in entry]
            assert all(type(v) is int for v in values)
            assert len(spx.cols) == len(presolved[4])
        solves += 1
        runs += len(recorded)
        return outs[0]

    with monkeypatch.context() as patched:
        patched.setattr(ratlp, "solve", checking)
        _core_corpus()
    # 275 solves, 222 core runs
    assert solves == 200 + 60 + 3 + 11 + 1 and runs > 200


def _fraction_dual(lp):
    """``pivot_dual`` with no scaling: the dual of ``lp`` over ``Fraction``s,
    pivoted by the Fraction core.  Returns the status, pivot count and final
    basis, and on an optimal run x and y as ``pivot_dual`` reads them."""
    c = [Fraction(0)] * lp.n_vars
    for j, v in lp.objective:
        c[j] += v
    cols, costs, owner = [], [], []  # owner: per column, (row, sign of its multiplier in y)
    for i, row in enumerate(lp.rows):
        sign = -1 if row.rel == "<=" else 1
        entries = tuple((j, sign * a) for j, a in row.terms)
        cols.append(entries)
        costs.append(-sign * row.rhs)
        owner.append((i, sign))
        if row.rel == "=":
            cols.append(tuple((j, -a) for j, a in entries))
            costs.append(sign * row.rhs)
            owner.append((i, -1))
    spx = FractionSimplex(lp.n_vars, cols, c)
    status = spx.solve_two_phase(costs)
    if status != "optimal":
        return status, spx.pivots, spx.basis, None, None
    y = [Fraction(0)] * len(lp.rows)
    for k, v in spx.solution().items():
        i, sign = owner[k]
        y[i] += sign * v
    return status, spx.pivots, spx.basis, tuple(-v for v in spx.duals_for(costs)), tuple(y)


def _box_program(rng: random.Random, n: int):
    """A feasible, bounded program over n variables whose objective has
    denominators 3^40 and whose rows' coefficients and rhs have
    denominators up to 2^64, none divisible by 3: every row holds at a
    random point, with slack or tight, inside a box of half-width 2^-64
    times a random factor."""
    def dyadic(bits):
        return Fraction(rng.randint(-(1 << bits), 1 << bits), 1 << rng.randint(0, bits))

    x0 = [dyadic(64) for _ in range(n)]
    rows = []
    for _ in range(rng.randint(1, 4)):
        terms = [(j, dyadic(rng.choice([3, 64]))) for j in range(n)]
        value = sum((a * x0[j] for j, a in terms), Fraction(0))
        rel = rng.choice(ratlp.RELATIONS)
        slack = rng.choice([0, abs(dyadic(64))])
        rows.append((terms, rel, value + slack if rel == "<=" else value - slack if rel == ">=" else value))
    for j in range(n):
        width = abs(dyadic(64)) + Fraction(1, 1 << 64)
        rows.append(([(j, 1)], "<=", x0[j] + width))
        rows.append(([(j, 1)], ">=", x0[j] - width))
    objective = [(j, Fraction(rng.randint(-(3 ** 40), 3 ** 40), 3 ** 40)) for j in range(n)]
    return ratlp.make_lp(n, objective, rows)


def test_scaling_keeps_objective_and_row_denominators_exact(monkeypatch):
    # the integer core runs on the dual scaled column by column and by one
    # global factor; it must make the unscaled Fraction run's pivots and read
    # its point and duals exactly, although the objective's denominators
    # (3^40) appear in no row and the rows' reach 2^64
    rng = random.Random(3 ** 40)
    for _ in range(25):
        program = _box_program(rng, rng.randint(1, 3))
        status, value = brute_force_lp(program)
        assert status == "optimal"
        runs = _record_core_runs(monkeypatch, lambda: pivot_dual(program))
        out = pivot_dual(program)
        ref_status, ref_pivots, ref_basis, x, y = _fraction_dual(program)
        assert (out.status, out.pivots, out.point, out.duals) == (ref_status, ref_pivots, x, y)
        assert [spx.basis for spx in runs] == [ref_basis]
        assert out.value == value and ratlp.verify(program, out)
        solved = ratlp.solve(program)
        assert solved.value == value and ratlp.verify(program, solved)


def test_drive_out_pivot_on_a_negative_element():
    # phase 1 leaves the artificial of row 1 basic at level zero; the only
    # real column that meets its row of B^-1 does so at -1, so the drive-out
    # pivot divides by a negative element and the core negates its state to
    # keep det > 0
    cols = [((0, 1),), ((1, -1),)]
    pivots_at = []

    class Traced(ratlp._Simplex):
        def _pivot(self, r, j, d):
            pivots_at.append(d[r])
            super()._pivot(r, j, d)
            assert self.det > 0

    spx = Traced(2, cols, [1, 0])
    assert spx.solve_two_phase([1, 1]) == "optimal"
    assert pivots_at == [1, -1] and spx.det == 1 and spx.binv == [[1, 0], [0, -1]]
    assert simplex_solution(spx) == {0: 1, 1: 0} and simplex_duals(spx, [1, 1]) == [1, -1]
    assert _core_run(ratlp._Simplex, 2, cols, [1, 0], [1, 1]) == _core_run(
        FractionSimplex, 2, [((0, Fraction(1)),), ((1, Fraction(-1)),)],
        [Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)])


def test_core_edge_programs(monkeypatch):
    # m = 0 (no variable left after the presolve, or none at all), no
    # inequality row, an infeasible and an unbounded program: the status
    # of ``solve`` and of ``pivot_dual``, and every core run behind them, zero-
    # cost probes included, against the Fraction core
    third = Fraction(1, 3)
    programs = [
        (ratlp.make_lp(0, [], []), "optimal", 0),
        (ratlp.make_lp(2, [(1, 1)], [([(0, 3)], "=", 1), ([(0, 1), (1, 1)], "=", 2)]), "optimal", 5 * third),
        (ratlp.make_lp(2, [(0, 1), (1, 1)], [([(0, 1), (1, 1)], "=", third)]), "optimal", third),
        (ratlp.make_lp(2, [(0, 1), (1, 2)], [([(0, 1), (1, 1)], "=", third)]), "unbounded", None),
        (ratlp.make_lp(1, [(0, 1)], [([(0, 1)], ">=", 2), ([(0, 1)], "<=", 1)]), "infeasible", None),
        (ratlp.make_lp(1, [(0, -1)], [([(0, 1)], ">=", 0)]), "unbounded", None),
        (ratlp.make_lp(2, [(0, 1), (1, -1)], [([(0, 1), (1, 1)], "=", 1),
                                              ([(0, 1), (1, 1)], "=", 2)]), "infeasible", None),
    ]
    for program, status, value in programs:
        outs = []
        runs = _record_core_runs(monkeypatch, lambda: outs.extend((ratlp.solve(program), pivot_dual(program))))
        assert [(out.status, out.value) for out in outs] == [(status, value)] * 2
        if status == "optimal":
            assert all(ratlp.verify(program, out) for out in outs)
        for spx in runs:
            _assert_cores_agree(spx)
    # the core alone with no rows: an empty column of negative cost enters
    # and nothing bounds it
    for costs, status in (([1, -1], "unbounded"), ([0, 2], "optimal")):
        run = _core_run(ratlp._Simplex, 0, [(), ()], [], costs)
        assert run[0] == status
        assert run == _core_run(FractionSimplex, 0, [(), ()], [], [Fraction(c) for c in costs])


def _det(matrix) -> Fraction:
    """The determinant, by ``Fraction`` elimination with row swaps."""
    a = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(a)):
        piv = next((r for r in range(col, len(a)) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, len(a)):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return det


def test_state_is_the_adjugate_over_the_basis_determinant(monkeypatch):
    # after every pivot of seeded programs, det is |det B| for the basis
    # columns, binv B = det I and xb = binv b: B^-1 = binv / det exactly
    rng = random.Random(11)
    seeded = [_random_lp(rng) for _ in range(30)]

    def run():
        for program in seeded:
            pivot_dual(program)
        polytope.vertex_by_lp(polytope.build_polytope(path(5)), 0)

    checked = 0
    for recorded in _record_core_runs(monkeypatch, run):
        m, cols, b, k = recorded.m, recorded.cols, recorded.b, recorded.k

        def column(j):
            dense = [0] * m
            if j < k:
                for r, v in cols[j]:
                    dense[r] += v
            else:  # artificial of row j - k, signed like b
                dense[j - k] = 1 if b[j - k] >= 0 else -1
            return dense

        class Checked(ratlp._Simplex):
            def _pivot(self, r, j, d):
                nonlocal checked
                super()._pivot(r, j, d)
                B = [list(row) for row in zip(*(column(j) for j in self.basis))]
                assert self.det == abs(_det(B)) > 0
                for i, row in enumerate(self.binv):
                    assert [sum(a * B[t][s] for t, a in enumerate(row)) for s in range(m)] == [
                        self.det * (s == i) for s in range(m)]
                    assert sum(a * bt for a, bt in zip(row, b)) == self.xb[i]
                checked += 1

        Checked(m, cols, b).solve_two_phase(recorded.costs)
    assert checked > 150  # 180 pivots


# -- the integer presolve against the Fraction presolve ----------------------


def _record_solves(monkeypatch, run):
    """Every program that ``run()`` hands ``lp.solve``, in order."""
    programs = []
    solve = ratlp.solve

    def recording(program):
        programs.append(program)
        return solve(program)

    with monkeypatch.context() as patched:
        patched.setattr(ratlp, "solve", recording)
        run()
    return programs


def _assert_presolves_agree(program):
    """The integer presolve of ``program`` against ``FractionPresolve``: the
    same pivot rows and variables in order, each U row a nonzero multiple of
    the Fraction one, the same L multipliers, expressions and reduced rows
    as rationals, in order, and the same outcome of ``lp.solve``.  Returns
    the oracle and the outcome."""
    ref = FractionPresolve(program)
    got = ratlp._presolve(tuple(program.rows), program.n_vars)
    if ref.reduced is None:
        assert got is None
    else:
        eq_at, steps, exprs, index, rows, sources = got
        assert (eq_at, index) == (ref.eq_at, ref.index)
        assert [(i, e) for i, e, *_ in steps] == [(i, e) for i, e, *_ in ref.steps]
        for t, ((_, e, urow, rhs, lrow, alpha), (_, _, ref_urow, ref_rhs, ref_lrow)) in enumerate(
                zip(steps, ref.steps)):
            scale = Fraction(lrow[t], alpha)  # the Fraction U row over the integer one
            assert scale and urow[e] > 0 and all(type(a) is int for a in urow.values())
            assert {v: scale * a for v, a in urow.items()} == ref_urow and scale * rhs == ref_rhs
            multipliers = {s: Fraction(f * steps[s][5], alpha * steps[s][4][s])
                           for s, f in lrow.items() if s != t}
            assert multipliers == ref_lrow
        assert list(exprs) == list(ref.exprs)
        for e, (sub, k, q) in exprs.items():
            assert q > 0 and ({f: Fraction(w, q) for f, w in sub.items()}, Fraction(k, q)) == ref.exprs[e]
        as_fractions = [
            (ratlp.Row(tuple((j, Fraction(a, q)) for j, a in row.terms), row.rel, Fraction(row.rhs, q)), i)
            for row, (i, q) in zip(rows, sources)
        ]
        assert as_fractions == list(ref.reduced.items())
    out = ratlp.solve(program)
    expected = ref.solve()
    assert out == expected and repr(out) == repr(expected)
    return ref, out


def test_integer_presolve_matches_the_fraction_presolve(monkeypatch):
    # every program the solver is handed: the random, equality and box
    # corpora, the flagship exponents t = 1, 3, 5, seeded vertex LPs of P_3,
    # P_5 and P_6, and HDE(P0^2 P16; P3)
    def run():
        rng = random.Random(20240812)
        for _ in range(200):
            ratlp.solve(_random_lp(rng))
        rng = random.Random(20261018)
        for _ in range(60):
            ratlp.solve(_equality_lp(rng))
        rng = random.Random(3 ** 40)
        for _ in range(25):
            ratlp.solve(_box_program(rng, rng.randint(1, 3)))
        for t in (1, 3, 5):
            hde.compute_hde(_flagship(t), path(t))
        for n, seeds in ((3, range(6)), (5, range(3)), (6, range(2))):
            for seed in seeds:
                polytope.vertex_by_lp(polytope.build_polytope(path(n)), seed)
        hde.compute_hde(disjoint_union([(path(0), 2), (path(16), 1)]), path(3))

    statuses = Counter()
    unit = scaled = 0
    for program in _record_solves(monkeypatch, run):
        ref, out = _assert_presolves_agree(program)
        statuses[out.status] += 1
        for _, e, urow, _, _ in ref.steps or ():
            unit += urow[e] == 1
            scaled += urow[e] != 1
    assert sum(statuses.values()) == 200 + 60 + 25 + 3 + 11 + 1
    # 300 programs, 212 optimal and 88 infeasible; 474 unit and 180
    # non-unit pivots
    assert statuses["optimal"] > 200 and statuses["infeasible"] > 80
    assert unit > 400 and scaled > 150


def test_polytope_presolve_builds_no_fraction():
    # every pivot of a polytope's elimination is 1, and the elimination,
    # back substitution and row substitution run in ints throughout
    for F2 in (path(5), cycle(5)):
        system = polytope.build_polytope(F2)
        profile = cProfile.Profile()
        profile.enable()
        presolved = ratlp._presolve.__wrapped__(system.constraints, system.n_vars)
        profile.disable()
        built = [key for key in pstats.Stats(profile).stats
                 if key[0].endswith("fractions.py") and key[2] == "__new__"]
        assert built == []
        _, steps, exprs, _, rows, _ = presolved
        assert steps and all(urow[e] == 1 for _, e, urow, *_ in steps)
        assert all(q == 1 for _, _, q in exprs.values()) and rows


def test_reduced_rows_dedup_exactly_and_non_unit_pivots_rescale():
    # x0 = x1 turns x0 + x2 >= 1, 2 x1 + 2 x2 >= 2 and x0/2 + x2/2 >= 1/2
    # into r, 2 r and r / 2: three reduced rows, as the Fraction presolve
    # keeps them, although r and r / 2 share their ints; x1 + x2 >= 1
    # merges with r, and x1 >= 0 with x0 >= 0
    half, third = Fraction(1, 2), Fraction(1, 3)
    scaled_copies = ratlp.make_lp(3, [(0, 1), (1, 1), (2, 2)], [
        ([(0, 1), (1, -1)], "=", 0),
        ([(0, 1), (2, 1)], ">=", 1),
        ([(1, 2), (2, 2)], ">=", 2),
        ([(1, 1), (2, 1)], ">=", 1),
        ([(0, half), (2, half)], ">=", half),
    ] + _bound_rows([0, 0, 0]))
    ref, _ = _assert_presolves_agree(scaled_copies)
    rows, sources = ratlp._presolve(tuple(scaled_copies.rows), scaled_copies.n_vars)[4:]
    assert [(row.terms, q) for row, (_, q) in zip(rows[:3], sources)] == [
        (((0, 1), (1, 1)), 1), (((0, 2), (1, 2)), 1), (((0, 1), (1, 1)), 2)]
    assert [i for i, _ in sources] == [1, 2, 4, 5, 7] == list(ref.reduced.values())
    # x0 + x1/2 + x2/2 = 1 enters as 2 x0 + x1 + x2 = 2, a pivot of 2; then
    # 2/3 x0 + 4/3 x1 = 2/3 enters as 2 x0 + 4 x1 = 2, is cross-multiplied by
    # that pivot to 6 x1 - 2 x2 = 0 and divided by its gcd, a pivot of 3
    rescaled = ratlp.make_lp(3, [(0, 1), (1, -1), (2, third)], [
        ([(0, 1), (1, Fraction(1, 2)), (2, Fraction(1, 2))], "=", 1),
        ([(0, 2 * third), (1, 4 * third)], "=", 2 * third),
        ([(2, 1)], "<=", 3),
        ([(2, 1)], ">=", -3),
    ])
    _assert_presolves_agree(rescaled)
    steps = ratlp._presolve(tuple(rescaled.rows), rescaled.n_vars)[1]
    assert [(e, urow, rhs, lrow, alpha) for _, e, urow, rhs, lrow, alpha in steps] == [
        (0, {0: 2, 1: 1, 2: 1}, 2, {0: 1}, 2),
        (1, {1: 3, 2: -1}, 0, {0: 2, 1: 2}, 6),
    ]
    out = ratlp.solve(rescaled)
    assert out.status == "optimal" and ratlp.verify(rescaled, out)
