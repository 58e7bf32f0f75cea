"""Exact rational linear programming.

Two-phase simplex with Bland's anti-cycling rule; every outcome is exact
and deterministic given the input ordering.  Every program is a
minimization.  The simplex core, ``_Simplex``, runs in integers: it keeps
B^-1 as an integer matrix over one common denominator, |det B|, and
pivots by exact division (Edmonds 1967, Bareiss 1968).  ``_pivot`` scales
each column of the dual with its cost to integers on the way in and
unscales the multipliers on the way out, so ``Fraction``s exist only at
the core's entry and exit, and the pivots are those of a ``Fraction``
B^-1.

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
    """Revised two-phase simplex with Bland's rule on an equality form, in
    integers.

    ``cols`` are the real columns, as sparse (row, value) entries, and
    ``b`` the right-hand side; values and costs are ints.  Artificial
    columns are managed internally and never re-enter once the basis
    leaves them.

    The state is fraction-free, after Edmonds (J. Res. NBS 71B, 1967) and
    Bareiss (Math. Comp. 1968): B^-1 = binv / det and x_B = xb / det, with
    binv and xb ints and det = |det B| > 0.  Prices are y * det = c_B binv,
    so a column's reduced cost has the sign of c_j det - (c_B binv) a_j,
    and a ratio test compares xb_i / d_i across rows by cross-multiplying.
    A pivot divides every updated entry exactly by the old det, so entries
    stay the size of the basis's minors, with no gcd taken.  These are
    the choices a ``Fraction`` B^-1 makes, pivot for pivot; ``Fraction``s
    appear only in ``solution`` and ``duals_for``.
    """

    def __init__(self, m: int, cols, b):
        self.m = m
        self.cols = cols
        self.k = len(cols)
        self.pivots = 0
        self.basis = [self.k + i for i in range(m)]  # artificial indices
        self.det = 1
        self.binv = [[0] * m for _ in range(m)]
        for i in range(m):
            self.binv[i][i] = 1 if b[i] >= 0 else -1
        self.xb = [abs(b[i]) for i in range(m)]

    def _prices(self, cost) -> list[int]:
        """y * det for y = c_B B^-1; ``cost`` has one entry per column,
        artificials last."""
        y = [0] * self.m
        for i, row in enumerate(self.binv):
            ci = cost[self.basis[i]]
            if ci:
                y = [yt + ci * a for yt, a in zip(y, row)]
        return y

    def _direction(self, j) -> list[int]:
        """B^-1 a_j times det, for a real column j."""
        col = self.cols[j]
        return [sum(row[r] * v for r, v in col) for row in self.binv]

    def _pivot(self, r, j, d):
        """Column j enters at row r, where d is its ``_direction``: row r
        keeps its entries, each other row i becomes
        (row_i * d_r - d_i * row_r) / det, exactly, and det becomes d_r;
        all change sign when d_r < 0."""
        det, dr = self.det, d[r]
        binv, xb = self.binv, self.xb
        prow, xr = binv[r], xb[r]
        for i in range(self.m):
            di = d[i]
            if i == r or (not di and dr == det):
                continue
            if di:
                binv[i] = [(a * dr - di * p) // det for a, p in zip(binv[i], prow)]
                xb[i] = (xb[i] * dr - di * xr) // det
            else:
                binv[i] = [a * dr // det for a in binv[i]]
                xb[i] = xb[i] * dr // det
        if dr < 0:
            self.binv = [[-a for a in row] for row in binv]
            self.xb = [-v for v in xb]
        self.det = abs(dr)
        self.basis[r] = j
        self.pivots += 1

    def _iterate(self, cost) -> str:
        """Pivot to optimality of the given cost; Bland's rule throughout."""
        while True:
            y = self._prices(cost)
            det = self.det
            enter = -1
            for j in range(self.k):  # artificials never enter
                rc = cost[j] * det
                for r, v in self.cols[j]:
                    if y[r]:
                        rc -= y[r] * v
                if rc < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            d = self._direction(enter)
            xb = self.xb
            leave = -1
            for i in range(self.m):
                if d[i] > 0:
                    if leave < 0:
                        leave = i
                        continue
                    # xb_i / d_i against xb_leave / d_leave
                    lhs, rhs = xb[i] * d[leave], xb[leave] * d[i]
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                        leave = i
            if leave < 0:
                return "unbounded"
            self._pivot(leave, enter, d)

    def solve_two_phase(self, costs) -> str:
        m, k = self.m, self.k
        if m:
            status = self._iterate([0] * k + [1] * m)
            if status != "optimal":  # phase 1 is bounded below by 0
                raise RatlpError("phase 1 cannot be unbounded")
            if any(self.xb[i] for i in range(m) if self.basis[i] >= k):
                return "infeasible"
            self._drive_out_artificials()
        return self._iterate(list(costs) + [0] * m)

    def _drive_out_artificials(self):
        for i in range(self.m):
            if self.basis[i] < self.k:
                continue
            rho = self.binv[i]
            for j in range(self.k):
                if sum(rho[r] * v for r, v in self.cols[j]):
                    self._pivot(i, j, self._direction(j))
                    break
            # no real column intersects this row: it is redundant and the
            # artificial stays basic at level zero

    def solution(self) -> dict[int, Fraction]:
        """The basic real columns' values."""
        return {
            j: Fraction(self.xb[i], self.det)
            for i, j in enumerate(self.basis)
            if j < self.k
        }

    def duals_for(self, costs) -> list[Fraction]:
        """y = c_B B^-1 for the given real-column costs."""
        return [Fraction(v, self.det) for v in self._prices(list(costs) + [0] * self.m)]


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
    triangular.  Each solve makes one pass over the factors: a solved
    unknown adds its multiple of its U row (forward) or L row (backward)
    to the sums that the later unknowns read."""
    pivot_vars = {e for _, e, _, _, _ in steps}
    known: dict[int, Fraction] = {}  # per pivot variable: sum over solved U rows
    mu = []
    for _, e, urow, _, _ in steps:
        mu_t = (excess[e] - known.get(e, 0)) / urow[e]
        mu.append(mu_t)
        if not mu_t:
            continue
        for v, a in urow.items():
            if v != e and v in pivot_vars:
                known[v] = known.get(v, 0) + a * mu_t
    later = [Fraction(0)] * len(steps)  # per step: sum over solved L rows
    lam = [Fraction(0)] * len(steps)
    for t in reversed(range(len(steps))):
        lam[t] = mu[t] - later[t]
        if not lam[t]:
            continue
        for s, f in steps[t][4].items():
            later[s] += f * lam[t]
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

    ``_Simplex`` runs in integers.  Row i's column and cost are scaled
    together by s_i, the lcm of the denominators of its terms and rhs, and
    c by L, the lcm of its denominators.  A column scaled by s_i > 0 has
    its reduced cost scaled by s_i, every ratio of a ratio test is scaled
    by the same factor, and c_B B^-1 is unchanged, so the run makes the
    unscaled run's pivots and reads the same x.  Row i's multiplier comes
    out times L / s_i.
    """
    c = _cost_vector(lp)
    scale, b = _over_common_denominator(c)
    sign = [-1 if row.rel == "<=" else 1 for row in lp.rows]
    cols = []
    costs = []
    first = []  # per row: the index of its (first) column
    unit = []  # per row: s_i / L, what one unit of its scaled multiplier is worth
    for i, row in enumerate(lp.rows):
        first.append(len(cols))
        s, ints = _over_common_denominator([a for _, a in row.terms] + [row.rhs])
        unit.append(Fraction(s, scale))
        entries = tuple((j, sign[i] * a) for (j, _), a in zip(row.terms, ints))
        cost = -sign[i] * ints[-1]
        if row.rel == "=":
            cols += [entries, tuple((j, -a) for j, a in entries)]
            costs += [cost, -cost]
        else:
            cols.append(entries)
            costs.append(cost)

    spx = _Simplex(lp.n_vars, cols, b)
    status = spx.solve_two_phase(costs)
    pivots = spx.pivots
    if status != "optimal":
        if status == "unbounded":
            status = "infeasible"
        else:
            # primal is unbounded or infeasible; the dual with zero costs
            # c is feasible, and bounded exactly when the primal is feasible
            probe = _Simplex(lp.n_vars, cols, [0] * lp.n_vars)
            status = "unbounded" if probe.solve_two_phase(costs) == "optimal" else "infeasible"
            pivots += probe.pivots
        return LpOutcome(status, None, None, None, pivots, True)

    vals = spx.solution()
    zero = Fraction(0)
    y = []
    for i, k in enumerate(first):
        if lp.rows[i].rel == "=":
            y.append((vals.get(k, zero) - vals.get(k + 1, zero)) * unit[i])
        else:
            y.append(sign[i] * vals.get(k, zero) * unit[i])
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
