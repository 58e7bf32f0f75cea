"""Exact rational linear programming.

Two-phase simplex with Bland's anti-cycling rule; every outcome is exact
and deterministic given the input ordering.  Every program is a
minimization, and every variable is free; a bound is stated as a row.
A ``Row`` keeps the ints or ``Fraction``s it is given (the polytope's are
ints); ``make_row`` and ``make_lp`` lift theirs to ``Fraction``s.  Every
check reads a row one way: by the sign of its excess at a point.

``solve`` presolves, pivots the reduced program's dual and postsolves,
all in integers by fraction-free exact arithmetic (Edmonds 1967, Bareiss
1968), so ``Fraction``s appear only at the entry and exit (and in the
postsolve's reduced costs, on a row given in ``Fraction``s).  The presolve
eliminates the ``=`` rows in order, each solved for its smallest
remaining variable, and rewrites the other rows and the objective over
the free variables (27 of 128 on P6, where every pivot is 1).  So the
reduced program has only inequality rows, in ints; it loses its
duplicate rows and is pivoted on its dual, with one ``=`` line per free
variable and one column per row.  The core, ``_Simplex``, keeps B^-1 as
ints over |det B|, and postsolve lifts the point over det.  An
eliminated variable's reduced cost must be 0, a square triangular system
in the duals of the pivot rows; an equality row that became empty gets
dual 0.  So ``verify`` checks the full program, while ``pivots`` counts
the reduced one's run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod

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

    x is a sequence of ints or Fractions, one per variable.  It is brought
    over its common denominator d once, and each row is read at X = x * d
    by the sign of its excess, a plain sum: in ints on an int row.
    """
    d, X = _over_common_denominator(x)
    return tuple(row for row in rows if not row._holds_at(X, d))


@dataclass(frozen=True, slots=True)
class Row:
    """One linear constraint: sparse terms REL rhs.  ``tag`` names where
    the row comes from (a polytope row family, or ``profile``); the solver
    never reads it."""

    terms: tuple[tuple[int, int | Fraction], ...]
    rel: str
    rhs: int | Fraction
    tag: str = ""

    def _excess_at(self, X, d: int):
        """``sum(a * X[j]) - rhs * d``, d times the row's excess at the
        point X / d: an int for an int row, a ``Fraction`` otherwise."""
        excess = -self.rhs * d
        for j, a in self.terms:
            excess += a * X[j]
        return excess

    def _holds_at(self, X, d: int) -> bool:
        """Whether the row holds at the point X / d, for ints X and d > 0."""
        excess = self._excess_at(X, d)
        if self.rel == "<=":
            return excess <= 0
        if self.rel == ">=":
            return excess >= 0
        return excess == 0


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
    """Exact solver result.  ``duals`` has one entry per row; ``pivots``
    counts the pivots of the presolved program's dual.  ``via_dual`` is
    False only when the presolve alone finds the program infeasible.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    point: tuple[Fraction, ...] | None
    duals: tuple[Fraction, ...] | None
    pivots: int
    via_dual: bool = False


def _norm_terms(terms) -> tuple[tuple[int, int | Fraction], ...]:
    """The terms merged per variable and sorted, zeros dropped; values keep their type."""
    acc = {}
    for j, v in terms:
        acc[j] = acc.get(j, 0) + v
    return tuple((j, acc[j]) for j in sorted(acc) if acc[j] != 0)


def make_row(terms, rel: str, rhs) -> Row:
    return Row(_norm_terms((j, Fraction(v)) for j, v in terms), rel, Fraction(rhs))


def make_lp(n_vars, objective, rows) -> LinearProgram:
    """Build a LinearProgram, normalizing all coefficients to Fraction.  A
    ``Row`` goes in as it is; a (terms, rel, rhs) triple through ``make_row``."""
    built = tuple(r if isinstance(r, Row) else make_row(*r) for r in rows)
    return LinearProgram(n_vars, _norm_terms((j, Fraction(v)) for j, v in objective), built)


# -- simplex core ---------------------------------------------------------


class _Simplex:
    """Revised two-phase simplex with Bland's rule on an equality form, in
    integers.  ``cols`` are the real columns, as sparse (row, value)
    entries, and ``b`` the right-hand side; values and costs are ints.
    Artificial columns are managed internally and never re-enter.

    The state is fraction-free (Edmonds, J. Res. NBS 71B, 1967; Bareiss,
    Math. Comp. 1968): B^-1 = binv / det and x_B = xb / det, ints, with
    det = |det B| > 0.  Prices are y * det = c_B binv, and a ratio test
    cross-multiplies.  A pivot divides exactly by the old det, so entries
    stay the size of the basis's minors.  The pivots are those of a
    ``Fraction`` B^-1.
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


# -- presolve: elimination of the equality rows, in integers ---------------


def _scaled(terms, rhs=0):
    """``(s, terms * s, rhs * s)``, ints, for s the lcm of the denominators."""
    s = lcm(rhs.denominator, *[a.denominator for _, a in terms])
    ints = [(j, a.numerator * (s // a.denominator)) for j, a in terms]
    return s, ints, rhs.numerator * (s // rhs.denominator)


def _eliminate(rows):
    """Fraction-free Gaussian elimination over ``=`` rows in order, each
    solved for its smallest remaining variable.

    Returns None when the equalities are inconsistent, else the steps and
    ``_back_substitute(steps)``: one ``(row index, pivot variable, U row,
    rhs, L row, alpha)`` in ints per row that found a pivot.  A row enters
    scaled to ints and crosses out each earlier U row it meets by
    cross-multiplying; over its gcd, with its pivot coefficient > 0, it is
    its U row, which holds no earlier pivot variable.  The L row maps each
    step s <= t to l_s with ``alpha * row = sum(l_s * U_s)``, so
    ``U_t * l_t / alpha`` is the U row of a ``Fraction`` elimination.
    """
    steps = []
    step_of = {}
    for i, row in enumerate(rows):
        alpha, terms, rhs = _scaled(row.terms, row.rhs)
        acc = {j: a for j, a in terms if a}
        lrow = {}
        # the steps of the row's pivot variables, earliest first; a step
        # whose variable has since cancelled out is skipped
        pending = [step_of[v] for v in acc if v in step_of]
        heapify(pending)
        while pending:
            s = heappop(pending)
            _, e, urow, urhs, _, _ = steps[s]
            if e not in acc:
                continue
            u, w = urow[e], acc[e]
            if u != 1:
                acc = {v: a * u for v, a in acc.items()}
                lrow = {t: f * u for t, f in lrow.items()}
                rhs *= u
                alpha *= u
            lrow[s] = w
            for v, a in urow.items():
                left = acc.get(v, 0) - w * a
                if left:
                    # a pivot variable entering the row has a step after s:
                    # U row s holds no earlier one
                    if v not in acc and v in step_of:
                        heappush(pending, step_of[v])
                    acc[v] = left
                else:
                    del acc[v]
            rhs -= w * urhs
        if acc:
            e = min(acc)
            g = gcd(rhs, *acc.values()) * (1 if acc[e] > 0 else -1)
            if g != 1:
                acc = {v: a // g for v, a in acc.items()}
                rhs //= g
            lrow[len(steps)] = g
            step_of[e] = len(steps)
            steps.append((i, e, acc, rhs, lrow, alpha))
        elif rhs:
            return None
    return steps, _back_substitute(steps)


def _back_substitute(steps) -> dict:
    """Each pivot variable as ``(coeffs over free variables, constant,
    denominator > 0)``, ints in lowest terms, from the last U row first."""
    exprs = {}
    for _, e, urow, rhs, _, _ in reversed(steps):
        coeffs, const, den = _substitute(exprs, [(v, -a) for v, a in urow.items() if v != e])
        const += rhs * den
        den *= urow[e]
        g = gcd(den, const, *coeffs.values())
        if g != 1:
            coeffs = {f: w // g for f, w in coeffs.items()}
            const //= g
            den //= g
        exprs[e] = (coeffs, const, den)
    return exprs


def _substitute(exprs, terms):
    """``sum(a * x[j])`` for int a, as ints ``(coeffs over free variables,
    constant, den)`` over the lcm of the eliminated variables' den."""
    den = lcm(*[exprs[j][2] for j, _ in terms if j in exprs])
    coeffs: dict[int, int] = {}
    const = 0
    for j, a in terms:
        if j in exprs:
            sub, k, q = exprs[j]
            a *= den // q
            const += a * k
            for f, w in sub.items():
                coeffs[f] = coeffs.get(f, 0) + a * w
        else:
            coeffs[j] = coeffs.get(j, 0) + a * den
    return {f: w for f, w in coeffs.items() if w}, const, den


@lru_cache(maxsize=1)
def _presolve(rows: tuple[Row, ...], n_vars: int):
    """The presolve of a program's rows, or None when they are infeasible.
    The last one is kept: the vertex LPs of a polytope come one after
    another and differ only in their objective.

    Returns the positions of the ``=`` rows, the elimination's steps and
    pivot expressions, the free variables' reduced indices, the distinct
    reduced rows, and per reduced row its first source row and scale q: it
    is q times the ``Fraction`` row, in lowest terms together with q, so r
    and 2r stay apart, as they do over ``Fraction``s.
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
        s, terms, rhs = _scaled(row.terms, row.rhs)
        coeffs, const, den = _substitute(exprs, terms)
        rhs = rhs * den - const
        if coeffs:
            g = gcd(s * den, rhs, *coeffs.values())
            reduced.setdefault((_over(index, coeffs, g), row.rel, rhs // g, s * den // g), i)
        elif not (rhs >= 0 if row.rel == "<=" else rhs <= 0):
            return None
    sources = tuple((i, q) for (_, _, _, q), i in reduced.items())
    return eq_at, steps, exprs, index, tuple(Row(*key[:3]) for key in reduced), sources


def _over(index, coeffs, g: int) -> tuple[tuple[int, int], ...]:
    """Sorted terms over the free variables' reduced indices, over g."""
    return tuple(sorted((index[f], w // g) for f, w in coeffs.items()))


def _equality_duals(steps, excess) -> list[Fraction]:
    """Duals of the pivot rows: solve (L U_E)^T lam = excess, where
    ``excess[e]`` is what pivot variable e's reduced cost must lose and L
    is the L rows T over their alphas.  U_E^T nu = excess forward, then
    T^T rho = nu backward, and lam_t = alpha_t rho_t.  For excess = E / D,
    passed as ints (D, E), nu * D * P and rho * D * P * G are ints by
    Cramer's rule, P and G the products of the diagonals of U_E and T."""
    pivot_vars = {e for _, e, _, _, _, _ in steps}
    D, E = excess
    P = prod(urow[e] for _, e, urow, _, _, _ in steps)
    known: dict[int, int] = {}  # per pivot variable: sum over solved U rows
    nu = []
    for _, e, urow, _, _, _ in steps:
        nu.append((E[e] * P - known.get(e, 0)) // urow[e])
        if nu[-1]:
            for v, a in urow.items():
                if v != e and v in pivot_vars:
                    known[v] = known.get(v, 0) + a * nu[-1]
    G = prod(step[4][t] for t, step in enumerate(steps))
    later = [0] * len(steps)  # per step: sum over solved L rows
    rho = [0] * len(steps)
    for t in reversed(range(len(steps))):
        lrow = steps[t][4]
        rho[t] = (nu[t] * G - later[t]) // lrow[t]
        if not rho[t]:
            continue
        for s, f in lrow.items():
            if s != t:
                later[s] += f * rho[t]
    return [Fraction(step[5] * r, D * P * G) for step, r in zip(steps, rho)]


# -- canonical form and the public solver ---------------------------------


def _cost_vector(lp: LinearProgram):
    c = [0] * lp.n_vars
    for j, v in lp.objective:
        c[j] += v
    return c


def solve(lp: LinearProgram) -> LpOutcome:
    """Exact optimum of ``lp``: presolve, pivot the dual, postsolve.

    The reduced program has only inequality rows, in ints.  Its dual has
    one ``=`` line per free variable, with right-hand side b, the
    substituted objective over its gcd g, and one column per reduced row,
    signed so that its multiplier is >= 0: a ``<=`` row is negated.  x * det
    is read off the run's negated prices and each multiplier * det off its
    basic value; strong duality is checked in ints before x and y are
    lifted over det.  When phase 2 does not end optimal, the same columns
    with zero costs b are feasible, and bounded exactly when the primal is
    feasible.

    Points may differ from another exact solver's only when the optimum
    is not unique; Bland's rule makes them deterministic.
    """
    presolved = _presolve(tuple(lp.rows), lp.n_vars)
    if presolved is None:
        return LpOutcome("infeasible", None, None, None, 0)
    eq_at, steps, exprs, index, rows, sources = presolved
    # objective (coeffs . x + const) / den, pivoted as b = coeffs / g
    s, terms, _ = _scaled(lp.objective)
    coeffs, const, den = _substitute(exprs, terms)
    den *= s
    g = gcd(den, *coeffs.values())
    m = len(index)
    b = [0] * m
    for k, w in _over(index, coeffs, g):
        b[k] = w
    sign = [-1 if row.rel == "<=" else 1 for row in rows]
    cols = [tuple((k, t * a) for k, a in row.terms) for t, row in zip(sign, rows)]
    costs = [-t * row.rhs for t, row in zip(sign, rows)]

    spx = _Simplex(m, cols, b)
    status = spx.solve_two_phase(costs)
    pivots = spx.pivots
    if status != "optimal":
        if status == "unbounded":
            status = "infeasible"
        else:
            probe = _Simplex(m, cols, [0] * m)
            status = "unbounded" if probe.solve_two_phase(costs) == "optimal" else "infeasible"
            pivots += probe.pivots
        return LpOutcome(status, None, None, None, pivots, True)

    det = spx.det
    X = [-v for v in spx._prices(costs + [0] * m)]
    Y = [0] * len(rows)
    for i, k in enumerate(spx.basis):
        if k < len(rows):
            Y[k] = sign[k] * spx.xb[i]
    bx = sum(c * v for c, v in zip(b, X))
    if bx != sum(row.rhs * v for row, v in zip(rows, Y)):
        raise RatlpError("dual-side recovery produced inconsistent objective values")

    x = [Fraction(0)] * lp.n_vars
    for j, k in index.items():
        x[j] = Fraction(X[k], det)
    for e, (sub, k, q) in exprs.items():
        x[e] = Fraction(k * det + sum(w * X[index[f]] for f, w in sub.items()), q * det)
    # the reduced costs times det * den, less the pivot rows': ints on int rows
    rc = [0] * lp.n_vars
    for j, a in terms:
        rc[j] += a * det * (den // s)
    y = [Fraction(0)] * len(lp.rows)
    for (i, q), v in zip(sources, Y):
        if v:
            y[i] = Fraction(v * q * g, det * den)
            for j, a in lp.rows[i].terms:
                rc[j] -= v * q * g * a
    D, E = _over_common_denominator(rc)
    for (k, _, _, _, _, _), lam in zip(steps, _equality_duals(steps, (D * det * den, E))):
        y[eq_at[k]] = lam
    value = Fraction(bx * g + const * det, det * den)
    return LpOutcome("optimal", value, tuple(x), tuple(y), pivots, True)


# -- independent verification ---------------------------------------------


def verify(lp: LinearProgram, outcome: LpOutcome) -> bool:
    """Exact re-check of an optimal outcome, independent of the solve path,
    with each row read by its excess at the point over its common
    denominator: primal feasibility, the stated value, and optimality by
    the duals: sign feasibility, complementary slackness and a zero reduced
    cost on every variable."""
    if outcome.status != "optimal":
        return False
    if outcome.point is None or outcome.duals is None or outcome.value is None:
        return False
    if len(outcome.point) != lp.n_vars or len(outcome.duals) != len(lp.rows):
        return False
    d, X = _over_common_denominator(outcome.point)

    if not all(row._holds_at(X, d) for row in lp.rows):
        return False
    if sum(a * X[j] for j, a in lp.objective) != outcome.value * d:
        return False

    rc = _cost_vector(lp)
    for row, y in zip(lp.rows, outcome.duals):
        if (row.rel == "<=" and y > 0) or (row.rel == ">=" and y < 0):
            return False
        if y:
            if row._excess_at(X, d):  # complementary slackness
                return False
            for j, a in row.terms:
                rc[j] -= y * a
    return not any(rc)
