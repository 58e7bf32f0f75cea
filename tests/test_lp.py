import random
from collections import Counter
from fractions import Fraction

import pytest

from homdom import lp as ratlp
from homdom.errors import RatlpError
from conftest import brute_force_lp, fraction_violated_rows


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
        for rhs, holds in by_rhs.items():
            row = ratlp.Row(((0, Fraction(2)), (1, Fraction(-1))), rel, Fraction(rhs), "t")
            assert row.holds(x) is holds, (rel, rhs)
            # any indexable point will do
            assert row.holds(dict(enumerate(x))) is holds
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
            holds = row not in expected
            assert row.holds(x) is holds and row.holds(dict(enumerate(x))) is holds
            seen[row.rel, holds] += 1
    # every relation is both met and broken
    assert all(seen[rel, holds] >= 20 for rel in ratlp.RELATIONS for holds in (True, False))


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
    for out in (ratlp.solve(lp), ratlp._pivot(lp)):
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
        assert ratlp.solve(program).status == ratlp._pivot(program).status == status


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
        for out in (ratlp.solve(lp), ratlp._pivot(lp)):
            assert out.status == status
            if status == "optimal":
                assert out.value == value
                assert ratlp.verify(lp, out)
    assert statuses["optimal"] > 25 and statuses["infeasible"] > 10
