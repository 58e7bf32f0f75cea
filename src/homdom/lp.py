"""Exact rational linear programming.

Two-phase simplex with Bland's anti-cycling rule over arbitrary-precision
rationals; every outcome is exact and deterministic given the input
ordering.  The only presolve is duplicate-row removal.

Variables are free by default; an optional exact lower bound may be given
per variable (upper bounds are not supported; callers encode them as
rows).  Tall programs (many more rows than columns, as produced by the
polytope builders) are pivoted on their dual, which has the small side as
its row count; the primal optimum and its dual multipliers are recovered
exactly from the dual run, so callers see one uniform interface.

Internally the pivoting arithmetic uses gmpy2.mpq when available (about
an order of magnitude faster); all public values are fractions.Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import RatlpError

try:  # pragma: no cover - exercised implicitly
    from gmpy2 import mpq as _R
except ImportError:  # pragma: no cover
    _R = Fraction

_R0 = _R(0)
_R1 = _R(1)

RELATIONS = ("<=", "=", ">=")


def _frac(x) -> Fraction:
    return Fraction(int(x.numerator), int(x.denominator))


@dataclass(frozen=True)
class Row:
    """One linear constraint: sparse terms REL rhs."""

    terms: tuple[tuple[int, Fraction], ...]
    rel: str
    rhs: Fraction


@dataclass(frozen=True)
class LinearProgram:
    n_vars: int
    objective: tuple[tuple[int, Fraction], ...]
    sense: str
    rows: tuple[Row, ...]
    lower_bounds: tuple  # one Fraction-or-None per variable

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise RatlpError(f"bad sense {self.sense!r}")
        if len(self.lower_bounds) != self.n_vars:
            raise RatlpError("one lower bound slot per variable required")
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

    ``value``/``point`` are in the program's own sense; ``duals`` (one per
    row) follow the minimization convention (negate the objective of a max
    program to interpret them).  ``basis`` is the final basic index set of
    the form that was pivoted; ``via_dual`` records whether that form was
    the dual.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    point: tuple[Fraction, ...] | None
    duals: tuple[Fraction, ...] | None
    basis: tuple | None
    pivots: int
    via_dual: bool = False


def _norm_terms(terms) -> tuple[tuple[int, Fraction], ...]:
    acc: dict[int, Fraction] = {}
    items = terms.items() if isinstance(terms, dict) else terms
    for j, v in items:
        acc[j] = acc.get(j, Fraction(0)) + Fraction(v)
    return tuple((j, acc[j]) for j in sorted(acc) if acc[j] != 0)


def make_row(terms, rel: str, rhs) -> Row:
    return Row(_norm_terms(terms), rel, Fraction(rhs))


def make_lp(n_vars, objective, rows, sense="min", lower_bounds=None) -> LinearProgram:
    """Build a LinearProgram, normalizing all coefficients to Fraction."""
    lbs = tuple(
        None if lb is None else Fraction(lb)
        for lb in (lower_bounds if lower_bounds is not None else [None] * n_vars)
    )
    built = tuple(r if isinstance(r, Row) else make_row(*r) for r in rows)
    return LinearProgram(n_vars, _norm_terms(objective), sense, built, lbs)


def dump_lp(lp: LinearProgram) -> str:
    """Plain-text dump: sense line, objective row, then constraint rows."""

    def side(terms):
        if not terms:
            return "0/1"
        return " + ".join(f"{v.numerator}/{v.denominator}*x{j}" for j, v in terms)

    lines = [lp.sense, f"obj: {side(lp.objective)}"]
    for i, row in enumerate(lp.rows):
        lines.append(
            f"r{i}: {side(row.terms)} {row.rel} {row.rhs.numerator}/{row.rhs.denominator}"
        )
    bounds = []
    for j, lb in enumerate(lp.lower_bounds):
        bounds.append(f"x{j} free" if lb is None else f"x{j} >= {lb.numerator}/{lb.denominator}")
    lines.append("bounds: " + ", ".join(bounds) if bounds else "bounds:")
    return "\n".join(lines) + "\n"


# -- simplex core ---------------------------------------------------------


class _Simplex:
    """Revised two-phase simplex with Bland's rule on an equality form.

    ``cols`` are the real columns (sparse (row, value) entries, exact);
    artificial columns are managed internally and never re-enter once the
    basis leaves them.
    """

    def __init__(self, m: int, cols, col_ids, b):
        self.m = m
        self.cols = cols
        self.col_ids = col_ids
        self.k = len(cols)
        self.b = b
        self.pivots = 0
        sign = [_R1 if b[i] >= 0 else -_R1 for i in range(m)]
        self.art_sign = sign
        self.basis = [self.k + i for i in range(m)]  # artificial indices
        self.binv = [[_R0] * m for _ in range(m)]
        for i in range(m):
            self.binv[i][i] = sign[i]
        self.xb = [abs(b[i]) for i in range(m)]

    def _col_entries(self, j):
        if j < self.k:
            return self.cols[j]
        i = j - self.k
        return ((i, self.art_sign[i]),)

    def _duals(self, cost):
        m = self.m
        y = [_R0] * m
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
        d = [_R0] * m
        for r, v in self._col_entries(j):
            for i in range(m):
                if self.binv[i][r]:
                    d[i] += self.binv[i][r] * v
        return d

    def _pivot(self, r, j, d):
        binv = self.binv
        dr = d[r]
        inv = _R1 / dr
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
            return _R1 if j >= self.k else _R0

        if m:
            status = self._iterate(phase1_cost)
            if status != "optimal":  # phase 1 is bounded below by 0
                raise RatlpError("phase 1 cannot be unbounded")
            infeas = _R0
            for i in range(m):
                if self.basis[i] >= self.k:
                    infeas += self.xb[i]
            if infeas != 0:
                return "infeasible"
            self._drive_out_artificials()

        def phase2_cost(j):
            return costs[j] if j < self.k else _R0

        return self._iterate(phase2_cost)

    def _drive_out_artificials(self):
        for i in range(self.m):
            if self.basis[i] < self.k:
                continue
            rho = self.binv[i]
            for j in range(self.k):
                t = _R0
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
        return self._duals(lambda j: costs[j] if j < self.k else _R0)

    def basis_ids(self):
        out = []
        for i in range(self.m):
            j = self.basis[i]
            out.append(self.col_ids[j] if j < self.k else ("art", j - self.k))
        return tuple(out)


# -- canonical form and the public solver ---------------------------------


def _dedup_rows(rows):
    """Duplicate-row removal (the only presolve).  Returns kept rows plus,
    for each original row, the kept index it maps to and whether it was the
    representative."""
    kept = []
    seen: dict = {}
    mapping = []
    for row in rows:
        key = (row.terms, row.rel, row.rhs)
        if key in seen:
            mapping.append((seen[key], False))
        else:
            seen[key] = len(kept)
            mapping.append((len(kept), True))
            kept.append(row)
    return kept, mapping


def _min_objective(lp: LinearProgram):
    c = [Fraction(0)] * lp.n_vars
    for j, v in lp.objective:
        c[j] += v if lp.sense == "min" else -v
    return c


def _split_col_count(lp: LinearProgram) -> int:
    return sum(2 if lb is None else 1 for lb in lp.lower_bounds)


def _should_dualize(lp: LinearProgram, nrows: int) -> bool:
    return nrows >= 2 * _split_col_count(lp)


def solve(lp: LinearProgram, side: str = "auto") -> LpOutcome:
    """Exact optimum of ``lp``.

    ``side`` selects the form to pivot: "primal", "dual", or "auto"
    (dualize tall programs).  All choices return the same exact value;
    points may differ between sides only when the optimum is not unique.
    """
    rows, mapping = _dedup_rows(lp.rows)
    c = _min_objective(lp)
    if side == "auto":
        side = "dual" if _should_dualize(lp, len(rows)) else "primal"
    if side == "dual":
        status, value, x, y, basis, pivots, via_dual = _solve_dual_side(lp, c, rows)
    else:
        status, value, x, y, basis, pivots = _solve_primal_side(lp, c, rows)
        via_dual = False
    if status != "optimal":
        return LpOutcome(status, None, None, None, None, pivots, via_dual)
    duals = tuple(y[k] if is_rep else Fraction(0) for k, is_rep in mapping)
    reported = value if lp.sense == "min" else -value
    return LpOutcome(status, reported, tuple(x), duals, basis, pivots, via_dual)


def _solve_primal_side(lp, c, rows):
    """Canonicalize (shift lower bounds, split free variables, add slacks)
    and pivot the primal."""
    n = lp.n_vars
    lower = lp.lower_bounds
    m = len(rows)
    b = [_R(row.rhs) for row in rows]
    for i, row in enumerate(rows):
        for j, a in row.terms:
            if lower[j] is not None and lower[j] != 0:
                b[i] -= _R(a) * _R(lower[j])

    col_ids = []
    col_entries = []
    col_cost = []
    var_cols = []  # per variable: ("pair", jp, jm) or ("single", jc)
    rows_by_var = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j, a in row.terms:
            rows_by_var[j].append((i, _R(a)))
    for j in range(n):
        entries = tuple(rows_by_var[j])
        if lower[j] is None:
            var_cols.append(("pair", len(col_ids), len(col_ids) + 1))
            col_ids.append(("x+", j))
            col_entries.append(entries)
            col_cost.append(_R(c[j]))
            col_ids.append(("x-", j))
            col_entries.append(tuple((i, -a) for i, a in entries))
            col_cost.append(-_R(c[j]))
        else:
            var_cols.append(("single", len(col_ids)))
            col_ids.append(("x", j))
            col_entries.append(entries)
            col_cost.append(_R(c[j]))
    for i, row in enumerate(rows):
        if row.rel == "<=":
            col_ids.append(("s", i))
            col_entries.append(((i, _R1),))
            col_cost.append(_R0)
        elif row.rel == ">=":
            col_ids.append(("s", i))
            col_entries.append(((i, -_R1),))
            col_cost.append(_R0)

    spx = _Simplex(m, col_entries, col_ids, b)
    status = spx.solve_two_phase(col_cost)
    if status != "optimal":
        return status, None, None, None, None, spx.pivots

    vals = spx.solution()
    x = []
    for j in range(n):
        kind = var_cols[j]
        if kind[0] == "pair":
            x.append(_frac(vals.get(kind[1], _R0) - vals.get(kind[2], _R0)))
        else:
            x.append(lower[j] + _frac(vals.get(kind[1], _R0)))
    value = sum((cj * xj for cj, xj in zip(c, x)), Fraction(0))
    y = [_frac(v) for v in spx.duals_for(col_cost)]
    return status, value, x, y, spx.basis_ids(), spx.pivots


def _dual_program(lp, c, rows):
    """Explicit dual of the lower-shifted minimization form.

    Row multiplier signs: >= rows give y >= 0, <= rows y <= 0 (stored
    negated so every dual variable has lower bound 0), = rows free.
    """
    n = lp.n_vars
    lower = lp.lower_bounds
    sign = [Fraction(-1) if row.rel == "<=" else Fraction(1) for row in rows]
    dual_rows = []
    terms_by_var = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j, a in row.terms:
            terms_by_var[j].append((i, sign[i] * a))
    for j in range(n):
        rel = "=" if lower[j] is None else "<="
        dual_rows.append(make_row(terms_by_var[j], rel, c[j]))
    objective = []
    for i, row in enumerate(rows):
        rhs = row.rhs
        for j, a in row.terms:
            if lower[j] is not None and lower[j] != 0:
                rhs -= a * lower[j]
        if rhs != 0:
            objective.append((i, sign[i] * rhs))
    bounds = [None if rows[i].rel == "=" else Fraction(0) for i in range(len(rows))]
    return LinearProgram(len(rows), _norm_terms(objective), "max", tuple(dual_rows), tuple(bounds)), sign


def _solve_dual_side(lp, c, rows):
    dual_lp, sign = _dual_program(lp, c, rows)
    inner = solve(dual_lp, side="primal")
    pivots = inner.pivots
    if inner.status == "unbounded":
        return "infeasible", None, None, None, None, pivots, True
    if inner.status == "infeasible":
        # primal is unbounded or infeasible; decide with the zero-objective dual
        feas_lp, _ = _dual_program(lp, [Fraction(0)] * lp.n_vars, rows)
        probe = solve(feas_lp, side="primal")
        pivots += probe.pivots
        status = "unbounded" if probe.status == "optimal" else "infeasible"
        return status, None, None, None, None, pivots, True
    # x recovered from the dual multipliers of the dual program (exact),
    # y from the dual program's own solution
    lower = lp.lower_bounds
    x = []
    for j in range(lp.n_vars):
        xj = -inner.duals[j]
        if lower[j] is not None:
            xj += lower[j]
        x.append(xj)
    y = [sign[i] * inner.point[i] for i in range(len(rows))]
    value = sum((cj * xj for cj, xj in zip(c, x)), Fraction(0))
    shift = sum(
        (cj * lb for cj, lb in zip(c, lower) if lb is not None),
        Fraction(0),
    )
    if value != inner.value + shift:
        raise RatlpError("dual-side recovery produced inconsistent objective values")
    return "optimal", value, x, y, inner.basis, pivots, True


# -- independent verification ---------------------------------------------


def verify(lp: LinearProgram, outcome: LpOutcome) -> bool:
    """Exact re-check of an optimal outcome, independent of the solve path.

    Confirms primal feasibility (rows and bounds), the stated objective
    value, and optimality through the dual values recovered from the final
    basis: sign feasibility, complementary slackness, and reduced-cost
    conditions, all over exact rationals.
    """
    if outcome.status != "optimal":
        return False
    if outcome.point is None or outcome.duals is None or outcome.value is None:
        return False
    if len(outcome.point) != lp.n_vars or len(outcome.duals) != len(lp.rows):
        return False
    x = outcome.point
    y = outcome.duals
    c = _min_objective(lp)
    target = outcome.value if lp.sense == "min" else -outcome.value

    for j, lb in enumerate(lp.lower_bounds):
        if lb is not None and x[j] < lb:
            return False
    slacks = []
    for row in lp.rows:
        lhs = sum((a * x[j] for j, a in row.terms), Fraction(0))
        if row.rel == "<=" and lhs > row.rhs:
            return False
        if row.rel == ">=" and lhs < row.rhs:
            return False
        if row.rel == "=" and lhs != row.rhs:
            return False
        slacks.append(lhs - row.rhs)
    if sum((cj * xj for cj, xj in zip(c, x)), Fraction(0)) != target:
        return False

    for i, row in enumerate(lp.rows):
        if row.rel == "<=" and y[i] > 0:
            return False
        if row.rel == ">=" and y[i] < 0:
            return False
        if y[i] != 0 and slacks[i] != 0:
            return False

    rc = list(c)
    for i, row in enumerate(lp.rows):
        if y[i]:
            for j, a in row.terms:
                rc[j] -= y[i] * a
    for j, lb in enumerate(lp.lower_bounds):
        if lb is None:
            if rc[j] != 0:
                return False
        else:
            if rc[j] < 0:
                return False
            if x[j] > lb and rc[j] != 0:
                return False
    return True
