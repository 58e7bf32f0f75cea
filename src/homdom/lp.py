"""Exact rational linear programming.

Two-phase simplex with Bland's anti-cycling rule over
``fractions.Fraction``; every outcome is exact and deterministic given
the input ordering.  Every program is a minimization.

Every variable is free; a bound on a variable is stated as a row.

``solve`` presolves every program.  Gaussian elimination over the
equality rows, in order, solves each for its smallest remaining variable;
back substitution writes every eliminated variable as an affine function
of the free ones.  The other rows and the objective (keeping its
constant) are rewritten over the free variables.  The polytope programs
are mostly equalities (Shannon's elemental basis): on P6, 27 of 128
subset values are free.  The reduced program loses its duplicate rows and
is pivoted on its dual, which has one ``=`` line per remaining variable,
one column per inequality row and a pair of opposite columns per ``=``
row, and no slack columns; the primal optimum and its multipliers are
read exactly off the dual run.

Postsolve lifts the point back to every variable and recovers one dual
per original row.  An eliminated variable's reduced cost in the full
program must be 0, as every variable is free.  That is a square system in
the duals of the equality rows that found a pivot, and the elimination's
own triangular factors solve it.  An equality row that became empty (a
duplicate or a combination of earlier ones) gets dual 0; inconsistent
equalities make the program infeasible.  So ``verify`` checks the full program, while
``pivots`` counts the reduced one's run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import RatlpError

RELATIONS = ("<=", "=", ">=")


def evaluate(terms, x) -> Fraction:
    """``sum(a * x[j])`` over sparse terms, at any indexable point x."""
    return sum((a * x[j] for j, a in terms), Fraction(0))


def _over_common_denominator(values) -> tuple[int, list[int]]:
    """d, the lcm of the denominators of ``values`` (ints or Fractions), and
    each value times d, as ints."""
    d = lcm(*[v.denominator for v in values])
    return d, [v.numerator * (d // v.denominator) for v in values]


def violated_rows(rows, x) -> tuple[Row, ...]:
    """The rows that the point x violates, in row order.

    x is a sequence of ints or Fractions, one per variable.  The test is
    exact and runs in integers: x is brought over its common denominator d
    once, as the ints X = x * d, and each row is scaled by the lcm s of its
    coefficient and rhs denominators (1 for the polytope and profile rows).
    Comparing sum((a * s) * X[j]) with (rhs * s) * d multiplies both sides
    of the row by s * d > 0, so it decides exactly what the ``Fraction`` sum
    ``sum(a * x[j]) REL rhs`` decides, with no ``Fraction`` per term.
    """
    d, X = _over_common_denominator(x)
    return tuple(row for row in rows if not row._holds_at(X, d))


@dataclass(frozen=True)
class Row:
    """One linear constraint: sparse terms REL rhs.  ``tag`` names where
    the row comes from (a polytope row family, or ``profile``); the solver
    never reads it."""

    terms: tuple[tuple[int, Fraction], ...]
    rel: str
    rhs: Fraction
    tag: str = ""

    def holds(self, x) -> bool:
        """Whether the point x satisfies the row: the integer test of
        ``violated_rows`` for this one row, over the common denominator of
        the coordinates it reads.  x is any indexable of ints or Fractions,
        a dict included."""
        js = [j for j, _ in self.terms]
        d, X = _over_common_denominator([x[j] for j in js])
        return self._holds_at(dict(zip(js, X)), d)

    def _holds_at(self, X, d: int) -> bool:
        """Whether the row holds at the point X / d, for ints X and d > 0."""
        s = self.rhs.denominator
        lhs = 0
        for j, a in self.terms:
            q = a.denominator
            if s % q:  # widen s to the lcm of the denominators so far
                wider = lcm(s, q)
                lhs *= wider // s
                s = wider
            lhs += a.numerator * (s // q) * X[j]
        rhs = self.rhs.numerator * (s // self.rhs.denominator) * d
        if self.rel == "<=":
            return lhs <= rhs
        if self.rel == ">=":
            return lhs >= rhs
        return lhs == rhs


@dataclass(frozen=True)
class LinearProgram:
    n_vars: int
    objective: tuple[tuple[int, Fraction], ...]
    rows: tuple[Row, ...]

    def __post_init__(self):
        for j, _ in self.objective:
            if not 0 <= j < self.n_vars:
                raise RatlpError(f"objective references missing variable {j}")
        for row in self.rows:
            if row.rel not in RELATIONS:
                raise RatlpError(f"bad relation {row.rel!r}")
            for j, _ in row.terms:
                if not 0 <= j < self.n_vars:
                    raise RatlpError(f"row references missing variable {j}")


@dataclass(frozen=True)
class LpOutcome:
    """Exact solver result.

    ``duals`` has one entry per row.  ``pivots`` is the pivot count of
    the dual of the presolved program.  ``via_dual`` is True on every
    pivoted outcome, since every program is pivoted on its dual, and False
    only when the presolve alone finds the program infeasible.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    point: tuple[Fraction, ...] | None
    duals: tuple[Fraction, ...] | None
    pivots: int
    via_dual: bool = False


def _norm_terms(terms) -> tuple[tuple[int, Fraction], ...]:
    acc: dict[int, Fraction] = {}
    for j, v in terms:
        acc[j] = acc.get(j, Fraction(0)) + Fraction(v)
    return tuple((j, acc[j]) for j in sorted(acc) if acc[j] != 0)


def make_row(terms, rel: str, rhs) -> Row:
    return Row(_norm_terms(terms), rel, Fraction(rhs))


def make_lp(n_vars, objective, rows) -> LinearProgram:
    """Build a LinearProgram, normalizing all coefficients to Fraction.
    A ``Row`` goes in as it is; a (terms, rel, rhs) triple goes through
    ``make_row``."""
    built = tuple(r if isinstance(r, Row) else make_row(*r) for r in rows)
    return LinearProgram(n_vars, _norm_terms(objective), built)


# -- simplex core ---------------------------------------------------------


class _Simplex:
    """Revised two-phase simplex with Bland's rule on an equality form.

    ``cols`` are the real columns (sparse (row, value) entries, exact);
    artificial columns are managed internally and never re-enter once the
    basis leaves them.
    """

    def __init__(self, m: int, cols, b):
        self.m = m
        self.cols = cols
        self.k = len(cols)
        self.pivots = 0
        sign = [1 if b[i] >= 0 else -1 for i in range(m)]
        self.basis = [self.k + i for i in range(m)]  # artificial indices
        self.binv = [[0] * m for _ in range(m)]
        for i in range(m):
            self.binv[i][i] = sign[i]
        self.xb = [abs(b[i]) for i in range(m)]

    def _duals(self, cost):
        m = self.m
        y = [Fraction(0)] * m
        for i in range(m):
            ci = cost(self.basis[i])
            if ci:
                row = self.binv[i]
                for t in range(m):
                    if row[t]:
                        y[t] += ci * row[t]
        return y

    def _direction(self, j):
        m = self.m
        d = [0] * m
        for r, v in self.cols[j]:  # artificial columns never enter
            for i in range(m):
                if self.binv[i][r]:
                    d[i] += self.binv[i][r] * v
        return d

    def _pivot(self, r, j, d):
        binv = self.binv
        dr = d[r]
        inv = 1 / dr
        row = binv[r]
        for t in range(self.m):
            if row[t]:
                row[t] = row[t] * inv
        theta = self.xb[r] * inv
        self.xb[r] = theta
        for i in range(self.m):
            if i != r and d[i]:
                f = d[i]
                tgt = binv[i]
                for t in range(self.m):
                    if row[t]:
                        tgt[t] -= f * row[t]
                self.xb[i] -= f * theta
        self.basis[r] = j
        self.pivots += 1

    def _iterate(self, cost) -> str:
        """Pivot to optimality of the given cost; Bland's rule throughout."""
        while True:
            y = self._duals(cost)
            enter = -1
            for j in range(self.k):  # artificials never enter
                rc = cost(j)
                for r, v in self.cols[j]:
                    if y[r]:
                        rc -= y[r] * v
                if rc < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            d = self._direction(enter)
            leave = -1
            best = None
            for i in range(self.m):
                if d[i] > 0:
                    ratio = self.xb[i] / d[i]
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and self.basis[i] < self.basis[leave])
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded"
            self._pivot(leave, enter, d)

    def solve_two_phase(self, costs) -> str:
        m = self.m

        def phase1_cost(j):
            return 1 if j >= self.k else 0

        if m:
            status = self._iterate(phase1_cost)
            if status != "optimal":  # phase 1 is bounded below by 0
                raise RatlpError("phase 1 cannot be unbounded")
            infeas = 0
            for i in range(m):
                if self.basis[i] >= self.k:
                    infeas += self.xb[i]
            if infeas != 0:
                return "infeasible"
            self._drive_out_artificials()

        def phase2_cost(j):
            return costs[j] if j < self.k else 0

        return self._iterate(phase2_cost)

    def _drive_out_artificials(self):
        for i in range(self.m):
            if self.basis[i] < self.k:
                continue
            rho = self.binv[i]
            for j in range(self.k):
                t = 0
                for r, v in self.cols[j]:
                    if rho[r]:
                        t += rho[r] * v
                if t != 0:
                    self._pivot(i, j, self._direction(j))
                    break
            # no real column intersects this row: it is redundant and the
            # artificial stays basic at level zero

    def solution(self):
        vals = {}
        for i in range(self.m):
            if self.basis[i] < self.k:
                vals[self.basis[i]] = self.xb[i]
        return vals

    def duals_for(self, costs):
        return self._duals(lambda j: costs[j] if j < self.k else 0)


# -- presolve: elimination of the equality rows ---------------------------


def _eliminate(rows):
    """Gaussian elimination over ``=`` rows in order, each solved for its
    smallest remaining variable.

    Returns None when the equalities are inconsistent, else the steps and
    ``_back_substitute(steps)``.  There is one step per row that found a
    pivot, ``(row index, pivot variable, U row, rhs, L row)``: the U row is
    the row with every earlier pivot eliminated, and the L row maps each
    earlier step to the multiple of its U row that was subtracted.  So the
    pivot rows are L U with L unit lower triangular, and U restricted to
    the pivot variables is upper triangular.
    """
    steps = []
    step_of = {}
    for i, row in enumerate(rows):
        acc = {j: a for j, a in row.terms if a}
        rhs = row.rhs
        lrow = {}
        while True:
            # a U row holds no variable of an earlier step, so the
            # earliest step left in the row rises every time
            s = min((step_of[v] for v in acc if v in step_of), default=None)
            if s is None:
                break
            _, e, urow, urhs, _ = steps[s]
            f = acc[e] / urow[e]
            lrow[s] = f
            for v, a in urow.items():
                left = acc.get(v, 0) - f * a
                if left:
                    acc[v] = left
                else:
                    del acc[v]
            rhs -= f * urhs
        if acc:
            e = min(acc)
            step_of[e] = len(steps)
            steps.append((i, e, acc, rhs, lrow))
        elif rhs:
            return None
    return steps, _back_substitute(steps)


def _back_substitute(steps) -> dict:
    """Each pivot variable as ``(coeffs over free variables, constant)``,
    solved from the U rows last step first."""
    exprs = {}
    for _, e, urow, rhs, _ in reversed(steps):
        inv = 1 / urow[e]
        coeffs, const = _substitute(exprs, ((v, -a) for v, a in urow.items() if v != e))
        exprs[e] = ({f: w * inv for f, w in coeffs.items()}, (rhs + const) * inv)
    return exprs


def _substitute(exprs, terms):
    """``sum(a * x[j])`` over eliminated and free variables, as (coeffs over
    free variables, constant)."""
    coeffs: dict[int, Fraction] = {}
    const = Fraction(0)
    for j, a in terms:
        if j in exprs:
            sub, k = exprs[j]
            const += a * k
            for f, w in sub.items():
                coeffs[f] = coeffs.get(f, 0) + a * w
        else:
            coeffs[j] = coeffs.get(j, 0) + a
    return {f: w for f, w in coeffs.items() if w}, const


@lru_cache(maxsize=1)
def _presolve(rows: tuple[Row, ...], n_vars: int):
    """The presolve of a program's rows, or None when they are infeasible.
    The last one is kept: the vertex LPs of a polytope come one after
    another and differ only in their objective.

    Returns the positions of the ``=`` rows, the elimination's steps and
    pivot expressions, the reduced index of each free variable, and each
    distinct reduced row mapped to the index of its first source row.
    """
    eq_at = [i for i, row in enumerate(rows) if row.rel == "="]
    eliminated = _eliminate(tuple(rows[i] for i in eq_at))
    if eliminated is None:
        return None
    steps, exprs = eliminated
    index = {j: k for k, j in enumerate(j for j in range(n_vars) if j not in exprs)}
    reduced = {}
    for i, row in enumerate(rows):
        if row.rel == "=":
            continue
        coeffs, const = _substitute(exprs, row.terms)
        if coeffs:
            reduced.setdefault(Row(_over(index, coeffs), row.rel, row.rhs - const), i)
        elif not (const <= row.rhs if row.rel == "<=" else const >= row.rhs):
            return None
    return eq_at, steps, exprs, index, reduced


def _over(index, coeffs) -> tuple[tuple[int, Fraction], ...]:
    """Sorted terms over the reduced indices of the free variables."""
    return tuple(sorted((index[f], w) for f, w in coeffs.items()))


def _equality_duals(steps, excess) -> list[Fraction]:
    """Duals of the pivot rows: solve (L U_E)^T lam = excess, where
    ``excess[e]`` is what pivot variable e's reduced cost must lose.  First
    U_E^T mu = excess forward, then L^T lam = mu backward; both are
    triangular."""
    mu = []
    for t, (_, e, urow, _, _) in enumerate(steps):
        known = sum((steps[s][2][e] * mu[s] for s in range(t) if e in steps[s][2]), Fraction(0))
        mu.append((excess[e] - known) / urow[e])
    lam = [Fraction(0)] * len(steps)
    for s in reversed(range(len(steps))):
        later = range(s + 1, len(steps))
        lam[s] = mu[s] - sum((steps[t][4][s] * lam[t] for t in later if s in steps[t][4]), Fraction(0))
    return lam


# -- canonical form and the public solver ---------------------------------


def _cost_vector(lp: LinearProgram):
    c = [Fraction(0)] * lp.n_vars
    for j, v in lp.objective:
        c[j] += v
    return c


def solve(lp: LinearProgram) -> LpOutcome:
    """Exact optimum of ``lp``: presolve, pivot the dual, postsolve.

    Points may differ from another exact solver's only when the optimum
    is not unique; Bland's rule makes them deterministic.
    """
    c = _cost_vector(lp)
    presolved = _presolve(tuple(lp.rows), lp.n_vars)
    if presolved is None:
        return LpOutcome("infeasible", None, None, None, 0)
    eq_at, steps, exprs, index, reduced = presolved
    coeffs, offset = _substitute(exprs, enumerate(c))
    inner = _pivot(LinearProgram(len(index), _over(index, coeffs), tuple(reduced)))
    if inner.status != "optimal":
        return inner

    x = [Fraction(0)] * lp.n_vars
    for j, k in index.items():
        x[j] = inner.point[k]
    for e, (sub, k) in exprs.items():
        x[e] = k + sum((w * x[f] for f, w in sub.items()), Fraction(0))
    y = [Fraction(0)] * len(lp.rows)
    for i, yi in zip(reduced.values(), inner.duals):
        y[i] = yi
    rc = list(c)
    for yi, row in zip(y, lp.rows):
        if yi:
            for j, a in row.terms:
                rc[j] -= yi * a
    for (k, _, _, _, _), lam in zip(steps, _equality_duals(steps, rc)):
        y[eq_at[k]] = lam
    return LpOutcome("optimal", inner.value + offset, tuple(x), tuple(y), inner.pivots, inner.via_dual)


def _pivot(lp: LinearProgram) -> LpOutcome:
    """Exact optimum of ``lp`` by pivoting its dual as given: the solve
    path with no presolve.

    The dual has one ``=`` line per variable j, with right-hand side
    c[j].  Each row i gives a column signed so that its multiplier is
    >= 0: a ``<=`` row is negated, and an ``=`` row gives a pair of
    opposite columns.  x is read off the run's negated multipliers and y
    off its basic values.
    """
    c = _cost_vector(lp)
    sign = [-1 if row.rel == "<=" else 1 for row in lp.rows]
    cols = []
    costs = []
    first = []  # per row: the index of its (first) column
    for i, row in enumerate(lp.rows):
        first.append(len(cols))
        entries = tuple((j, sign[i] * a) for j, a in row.terms)
        cost = -sign[i] * row.rhs
        if row.rel == "=":
            cols += [entries, tuple((j, -a) for j, a in entries)]
            costs += [cost, -cost]
        else:
            cols.append(entries)
            costs.append(cost)

    spx = _Simplex(lp.n_vars, cols, c)
    status = spx.solve_two_phase(costs)
    pivots = spx.pivots
    if status != "optimal":
        if status == "unbounded":
            status = "infeasible"
        else:
            # primal is unbounded or infeasible; the dual with zero costs
            # c is feasible, and bounded exactly when the primal is feasible
            probe = _Simplex(lp.n_vars, cols, [Fraction(0)] * lp.n_vars)
            status = "unbounded" if probe.solve_two_phase(costs) == "optimal" else "infeasible"
            pivots += probe.pivots
        return LpOutcome(status, None, None, None, pivots, True)

    vals = spx.solution()
    zero = Fraction(0)
    y = []
    for i, k in enumerate(first):
        if lp.rows[i].rel == "=":
            y.append(vals.get(k, zero) - vals.get(k + 1, zero))
        else:
            y.append(sign[i] * vals.get(k, zero))
    x = [-d for d in spx.duals_for(costs)]
    value = sum((cj * xj for cj, xj in zip(c, x)), Fraction(0))
    if value != sum((row.rhs * yi for row, yi in zip(lp.rows, y)), Fraction(0)):
        raise RatlpError("dual-side recovery produced inconsistent objective values")
    return LpOutcome("optimal", value, tuple(x), tuple(y), pivots, True)


# -- independent verification ---------------------------------------------


def verify(lp: LinearProgram, outcome: LpOutcome) -> bool:
    """Exact re-check of an optimal outcome, independent of the solve path.

    Confirms primal feasibility (every row, through the integer test of
    ``violated_rows``), the stated objective value, and optimality through
    the dual values recovered from the final basis: sign feasibility,
    complementary slackness, and a zero reduced cost on every variable,
    all exact.
    """
    if outcome.status != "optimal":
        return False
    if outcome.point is None or outcome.duals is None or outcome.value is None:
        return False
    if len(outcome.point) != lp.n_vars or len(outcome.duals) != len(lp.rows):
        return False
    x = outcome.point
    y = outcome.duals
    c = _cost_vector(lp)

    if violated_rows(lp.rows, x):
        return False
    if sum((cj * xj for cj, xj in zip(c, x)), Fraction(0)) != outcome.value:
        return False

    for i, row in enumerate(lp.rows):
        if row.rel == "<=" and y[i] > 0:
            return False
        if row.rel == ">=" and y[i] < 0:
            return False
        if y[i] != 0 and evaluate(row.terms, x) != row.rhs:
            return False

    rc = list(c)
    for i, row in enumerate(lp.rows):
        if y[i]:
            for j, a in row.terms:
                rc[j] -= y[i] * a
    return not any(rc)
