"""Shared brute-force oracles and generators for the test suite.

Every oracle here is deliberately independent of the implementation it
checks: chordality by chordless-cycle enumeration, series-parallel by
explicit K4-minor search, LP solving by vertex enumeration over exact
rational linear algebra, the HDE objective by its subset form over
brute-force maximal cliques and its maximum by listing every
homomorphism, the polytope by one row for every pair of
subsets with separation found by breadth-first search, a row at a point
by its ``Fraction`` sum, walk counts by integer adjacency-matrix powers,
labeled graphs by an edge list per edge bitmask, the integer simplex
core and the integer presolve by the ``Fraction`` ones they replaced, the
presolved solve by the dual pivoted with no presolve, and the walk
inequality by its density form.  The exact LP over the polytope's
``=`` rows, ``fixed_value``, is the oracle for the chain-row proofs of
the path identity and ψ's objective.  The small graph helpers that only
the tests use live here too, and so does ψ itself as one homomorphism
from the whole union.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from types import SimpleNamespace

from homdom.checks import CheckReport, _witness
from homdom.errors import BadIndex, EmptyGraph, RatlpError
from homdom.graphs import Graph, bits_of, clique_tree, disjoint_union, from_edges, path
from homdom.hde import _flagship_source, _psi_parts, objective_clique_tree_form
from homdom.homs import Homomorphism, count_homs, enumerate_homs
import homdom.lp
from homdom import lp as ratlp
from homdom.lp import LinearProgram, LpOutcome, Row, _cost_vector, _over_common_denominator, _scaled
from homdom.polytope import ConstraintSystem, build_polytope


def has_edge(G: Graph, u: int, v: int) -> bool:
    return bool(G.adj[u] >> v & 1)


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def complete(k: int) -> Graph:
    return from_edges(k, [(i, j) for j in range(k) for i in range(j)])


def psi(t: int) -> Homomorphism:
    """The certificate map from P0^2 P_{t+2}^t onto P_t, assembled from
    its per-component parts."""
    source = _flagship_source(t)
    mapping = tuple(v for part in _psi_parts(t) for v in part.map)
    return Homomorphism(disjoint_union(source), path(t), mapping)


def edge_visits(h) -> Counter:
    """Multiset of target edges hit by the source edges of the
    homomorphism h (sorted pairs)."""
    c: Counter = Counter()
    for u, v in h.source.edges():
        a, b = h.map[u], h.map[v]
        c[(min(a, b), max(a, b))] += 1
    return c


def hom_density(F: Graph, G: Graph) -> Fraction:
    """|Hom(F;G)| / n^|V(F)| as an exact rational in [0, 1]."""
    if G.n == 0:
        raise EmptyGraph("homomorphism density needs a non-empty target")
    return Fraction(count_homs(F, G), G.n ** F.n)


def check_density_form(G: Graph, t: int, k: int) -> CheckReport:
    """t(P_k;G)^t >= t(P_t;G)^k: the walk inequality divided through by
    n^(tk), since t(P_j;G) = w_j / n^j."""
    if G.n == 0:
        raise EmptyGraph("density form needs at least one vertex")
    if not 1 <= t <= k:
        raise BadIndex(f"need 1 <= t <= k, got t={t}, k={k}")
    lhs = hom_density(path(k), G) ** t
    rhs = hom_density(path(t), G) ** k
    verdict = "holds" if lhs >= rhs else "violated"
    return CheckReport(
        "density-form",
        {"t": t, "k": k, "n": G.n},
        verdict,
        (_witness(G, lhs, rhs, "t(P_k)^t >= t(P_t)^k"),),
    )


def random_graph(n: int, rng: random.Random, edge_prob=Fraction(1, 2)) -> Graph:
    a, b = edge_prob.numerator, edge_prob.denominator
    edges = [(u, v) for v in range(n) for u in range(v) if rng.randrange(b) < a]
    return from_edges(n, edges)


def labeled_graphs_by_mask(n: int):
    """All 2^C(n,2) labeled graphs on n vertices, one ``from_edges`` call
    per edge bitmask, in bitmask order over the slots (u, v), v in range(n),
    u < v."""
    slots = [(u, v) for v in range(n) for u in range(v)]
    for mask in range(1 << len(slots)):
        yield from_edges(n, [slots[b] for b in range(len(slots)) if mask >> b & 1])


def matrix_walk_counts(n: int, edges, k_max: int) -> list[int]:
    """Entry sums of A^0, A^1, ..., A^k_max for the adjacency matrix A of
    the graph on n vertices with the given edges."""
    A = [[0] * n for _ in range(n)]
    for u, v in edges:
        A[u][v] = A[v][u] = 1
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    sums = []
    for _ in range(k_max + 1):
        sums.append(sum(map(sum, power)))
        power = [[sum(power[i][m] * A[m][j] for m in range(n)) for j in range(n)]
                 for i in range(n)]
    return sums


def _is_connected(G: Graph) -> bool:
    return G.n == 0 or len(G.connected_components()) == 1


def brute_force_chordal(G: Graph) -> bool:
    """No chordless cycle of length >= 4: check every induced subgraph."""
    for mask in range(1 << G.n):
        verts = bits_of(mask)
        if len(verts) < 4:
            continue
        sub = G.induced(verts)
        if all(sub.degree(v) == 2 for v in range(sub.n)) and _is_connected(sub):
            return False
    return True


def brute_force_k4_minor(G: Graph) -> bool:
    """Explicit search for four disjoint connected branch sets, pairwise
    joined by an edge."""
    conn = [
        m for m in range(1, 1 << G.n) if _is_connected(G.induced(bits_of(m)))
    ]

    def joined(m1: int, m2: int) -> bool:
        return any(G.adj[v] & m2 for v in bits_of(m1))

    def search(chosen: list[int], used: int, start: int) -> bool:
        if len(chosen) == 4:
            return True
        for idx in range(start, len(conn)):
            m = conn[idx]
            if m & used:
                continue
            if all(joined(m, c) for c in chosen):
                if search(chosen + [m], used | m, idx + 1):
                    return True
        return False

    return search([], 0, 0)


def brute_force_maximal_cliques(G: Graph) -> list[int]:
    """Every clique lies in the closed neighbourhood of its least vertex:
    try each subset of the higher neighbours of each vertex, then keep the
    cliques no other clique contains."""
    cliques = []
    for v in range(G.n):
        higher = bits_of(G.adj[v] >> (v + 1) << (v + 1))
        for size in range(len(higher) + 1):
            for rest in combinations(higher, size):
                verts = (v,) + rest
                if all(has_edge(G, a, b) for a, b in combinations(verts, 2)):
                    cliques.append(sum(1 << u for u in verts))
    return sorted(c for c in cliques if not any(c != d and c & d == c for d in cliques))


def objective_subset_form(F1: Graph, phi) -> tuple:
    """Oracle for the HDE objective of the homomorphism phi: F1 -> F2.

    Alternating sum over the sets S of maximal cliques of F1 with nonempty
    common intersection, sign -(-1)^|S|, accumulated on the image subset
    phi(intersection of S).  Returns the nonzero (image mask, coefficient)
    terms sorted by mask, the shape ``objective_clique_tree_form`` returns.
    """
    cliques = brute_force_maximal_cliques(F1)
    acc = {}

    def rec(start: int, inter: int, size: int):
        for idx in range(start, len(cliques)):
            ni = inter & cliques[idx]
            if not ni:
                continue  # all supersets share the empty intersection
            img = sum(1 << w for w in {phi.map[u] for u in bits_of(ni)})
            acc[img] = acc.get(img, 0) + (1 if (size + 1) % 2 else -1)
            rec(idx + 1, ni, size + 1)

    rec(0, (1 << F1.n) - 1, 0)
    return tuple((mask, Fraction(acc[mask])) for mask in sorted(acc) if acc[mask])


@lru_cache(maxsize=None)
def _subset_profiles(F1: Graph, F2: Graph) -> frozenset:
    """The distinct subset-form objectives of every homomorphism F1 -> F2,
    the maps grown one source vertex at a time over all target vertices."""
    maps = [()]
    for v in range(F1.n):
        maps = [
            m + (w,)
            for m in maps
            for w in range(F2.n)
            if all(has_edge(F2, m[u], w) for u in range(v) if has_edge(F1, u, v))
        ]
    return frozenset(objective_subset_form(F1, SimpleNamespace(map=m)) for m in maps)


def grouped_profiles(F1: Graph, F2: Graph) -> dict:
    """Oracle for ``hde.profiles``: every homomorphism F1 -> F2, in
    enumeration order, grouped by ``objective_clique_tree_form``.  Maps
    each distinct form, in order of first occurrence, to its maps in
    order."""
    tree = clique_tree(F1)
    groups = {}
    for h in enumerate_homs(F1, F2):
        groups.setdefault(objective_clique_tree_form(tree, h), []).append(h.map)
    return groups


def max_objective_by_enumeration(F1: Graph, F2: Graph, p):
    """Oracle for ``hde.max_objective``: the largest subset-form objective
    at p over every homomorphism F1 -> F2, or None when there is none."""
    profiles = _subset_profiles(F1, F2)
    if not profiles:
        return None
    return max(sum((c * p[mask] for mask, c in terms), Fraction(0)) for terms in profiles)


def _separated(F2: Graph, A: int, B: int) -> bool:
    """Breadth-first search from A\\B through vertices outside A & B;
    True iff it never reaches B\\A."""
    cut = A & B
    queue = list(bits_of(A & ~B))
    seen = set(queue)
    while queue:
        v = queue.pop(0)
        for u in range(F2.n):
            if not has_edge(F2, v, u) or cut >> u & 1 or u in seen:
                continue
            if B >> u & 1:
                return False
            seen.add(u)
            queue.append(u)
    return True


def build_polytope_unpruned(F2: Graph) -> ConstraintSystem:
    """Oracle for ``build_polytope``: the polytope from its definition.

    Normalization, a monotone row for every A strictly inside B, and for
    every incomparable pair (A, B) the submodular row, an equality when
    A & B separates A\\B from B\\A.  About 4^n rows.
    """
    n_sub = 1 << F2.n
    one, zero = Fraction(1), Fraction(0)
    cons = [
        Row(((0, one),), "=", zero, "normalization"),
        Row(((n_sub - 1, one),), "=", one, "normalization"),
    ]
    for A in range(n_sub):
        for B in range(A + 1, n_sub):
            if not A & ~B:
                cons.append(Row(((A, one), (B, -one)), "<=", zero, "monotone"))
    for A in range(1, n_sub):
        for B in range(A + 1, n_sub):
            if not A & ~B or not B & ~A:
                continue
            terms = ((A & B, one), (A | B, one), (A, -one), (B, -one))
            if _separated(F2, A, B):
                cons.append(Row(terms, "=", zero, "modular-separation"))
            else:
                cons.append(Row(terms, "<=", zero, "submodular"))
    return ConstraintSystem(F2.n, tuple(cons))


def fixed_value(F2: Graph, terms) -> Fraction | None:
    """The value that every polytope member gives the form sum(c * p(mask))
    over ``terms``, or None when the ``=`` rows of ``build_polytope(F2)``
    leave it free.  The form is minimized over those rows alone; at an
    optimum, ``lp.verify`` checks that their exact multipliers add up to
    the form (a zero reduced cost on every subset), so the form is constant
    on their affine hull, which holds the polytope."""
    system = build_polytope(F2)
    program = ratlp.make_lp(system.n_vars, terms, [r for r in system.constraints if r.rel == "="])
    outcome = ratlp.solve(program)
    if outcome.status != "optimal":
        return None
    if not ratlp.verify(program, outcome):  # pragma: no cover - safety net
        raise RatlpError("fixed-value LP outcome failed verification")
    return outcome.value


def holds(row: Row, x) -> bool:
    """Whether the point x (any indexable of ints or Fractions, a dict
    included) satisfies the row, by the integer test of ``violated_rows``."""
    js = [j for j, _ in row.terms]
    d, X = _over_common_denominator([x[j] for j in js])
    return row._holds_at(dict(zip(js, X)), d)


# -- exact rational linear algebra for the LP oracle ----------------------


def fraction_violated_rows(rows, x):
    """The rows that the point x violates, in row order, each decided by
    its ``Fraction`` sum ``sum(a * x[j]) REL rhs``."""

    def holds(row):
        lhs = sum((Fraction(a) * x[j] for j, a in row.terms), Fraction(0))
        return {"<=": lhs <= row.rhs, ">=": lhs >= row.rhs, "=": lhs == row.rhs}[row.rel]

    return tuple(row for row in rows if not holds(row))


def solve_square(matrix, rhs):
    """Solve an n x n rational system; None if singular."""
    n = len(rhs)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def brute_force_lp(lp):
    """Enumerate candidate vertices as intersections of n row hyperplanes;
    assumes a bounded feasible region so feasibility is equivalent to
    having a feasible vertex.

    Returns ("optimal", best value) or ("infeasible", None).
    """
    n = lp.n_vars
    facets = []
    for row in lp.rows:
        coeffs = [Fraction(0)] * n
        for j, a in row.terms:
            coeffs[j] += a
        facets.append((coeffs, row.rhs))

    obj = [Fraction(0)] * n
    for j, c in lp.objective:
        obj[j] += c

    best = None
    for subset in combinations(range(len(facets)), n):
        matrix = [facets[i][0] for i in subset]
        rhs = [facets[i][1] for i in subset]
        x = solve_square(matrix, rhs)
        if x is None or fraction_violated_rows(lp.rows, x):
            continue
        val = sum(c * xi for c, xi in zip(obj, x))
        if best is None or val < best:
            best = val
    if best is None:
        return "infeasible", None
    return "optimal", best


# -- the integer simplex core's state read as Fractions ---------------------


def simplex_solution(spx) -> dict[int, Fraction]:
    """The basic real columns' values of an ``lp._Simplex``, xb / det."""
    return {j: Fraction(spx.xb[i], spx.det) for i, j in enumerate(spx.basis) if j < spx.k}


def simplex_duals(spx, costs) -> list[Fraction]:
    """y = c_B B^-1 of an ``lp._Simplex`` for the given real-column costs."""
    return [Fraction(v, spx.det) for v in spx._prices(list(costs) + [0] * spx.m)]


# -- the Fraction simplex core, the oracle of the integer core --------------


class FractionSimplex:
    """Revised two-phase simplex with Bland's rule on an equality form,
    over ``Fraction``s: a dense B^-1 and x_B, each entry in lowest terms.
    It is the core that ``lp._Simplex`` replaced, with the same interface,
    and the oracle of its pivots, bases and values; its ``solution`` and
    ``duals_for`` read what ``simplex_solution`` and ``simplex_duals`` read
    off the integer core.

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


# -- the dual pivoted with no presolve -------------------------------------


def pivot_dual(lp: LinearProgram) -> LpOutcome:
    """Exact optimum of ``lp`` by pivoting its dual as given: the reference
    solve path, with no presolve, that ``lp.solve`` replaced.

    The dual has one ``=`` line per variable j, with right-hand side c[j].
    Each row gives a column signed so that its multiplier is >= 0: a
    ``<=`` row is negated, and an ``=`` row gives a pair of opposite
    columns.  x is read off the run's negated multipliers and y off its
    basic values.  Row i's column and cost are scaled to ints by s_i > 0,
    the lcm of its denominators, and c by L, the lcm of its own; that
    scales each ratio test uniformly and leaves c_B B^-1 as it is, so the
    pivots and x are the unscaled run's, and row i's multiplier comes out
    times L / s_i.
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
        s, terms, rhs = _scaled(row.terms, row.rhs)
        unit.append(Fraction(s, scale))
        entries = tuple((j, sign[i] * a) for j, a in terms)
        cost = -sign[i] * rhs
        if row.rel == "=":
            cols += [entries, tuple((j, -a) for j, a in entries)]
            costs += [cost, -cost]
        else:
            cols.append(entries)
            costs.append(cost)

    spx = homdom.lp._Simplex(lp.n_vars, cols, b)
    status = spx.solve_two_phase(costs)
    pivots = spx.pivots
    if status != "optimal":
        if status == "unbounded":
            status = "infeasible"
        else:
            # primal is unbounded or infeasible; the dual with zero costs
            # c is feasible, and bounded exactly when the primal is feasible
            probe = homdom.lp._Simplex(lp.n_vars, cols, [0] * lp.n_vars)
            status = "unbounded" if probe.solve_two_phase(costs) == "optimal" else "infeasible"
            pivots += probe.pivots
        return LpOutcome(status, None, None, None, pivots, True)

    vals = simplex_solution(spx)
    zero = Fraction(0)
    y = []
    for i, k in enumerate(first):
        if lp.rows[i].rel == "=":
            y.append((vals.get(k, zero) - vals.get(k + 1, zero)) * unit[i])
        else:
            y.append(sign[i] * vals.get(k, zero) * unit[i])
    x = [-d for d in simplex_duals(spx, costs)]
    value = sum((cj * xj for cj, xj in zip(c, x)), Fraction(0))
    if value != sum((row.rhs * yi for row, yi in zip(lp.rows, y)), Fraction(0)):
        raise RatlpError("dual-side recovery produced inconsistent objective values")
    return LpOutcome("optimal", value, tuple(x), tuple(y), pivots, True)


# -- the Fraction presolve, the oracle of the integer one --------------------


class FractionPresolve:
    """The presolve and postsolve of ``lp.solve`` over ``Fraction``s: the
    elimination, back substitution and row substitution that the integer
    ones replaced, and the oracle of their steps, expressions, reduced rows
    and outcomes.

    ``FractionPresolve(lp)`` eliminates the ``=`` rows of ``lp`` in order,
    each solved for its smallest remaining variable.  ``steps`` holds one
    ``(row index, pivot variable, U row, rhs, L row)`` per row that found a
    pivot, where the U row is the row with every earlier pivot eliminated
    and the L row maps each earlier step to the multiple of its U row that
    was subtracted; ``exprs`` maps each pivot variable to ``(coeffs over
    free variables, constant)``; ``reduced`` maps each distinct reduced
    row to the index of its first source row.  ``steps`` is None when the
    equalities are inconsistent, and ``reduced`` is None when the program
    is infeasible.
    """

    def __init__(self, lp):
        self.lp = lp
        self.eq_at = [i for i, row in enumerate(lp.rows) if row.rel == "="]
        self.steps = self.exprs = self.index = self.reduced = None
        eliminated = self.eliminate([lp.rows[i] for i in self.eq_at])
        if eliminated is None:
            return
        self.steps, self.exprs = eliminated
        n = lp.n_vars
        self.index = {j: k for k, j in enumerate(j for j in range(n) if j not in self.exprs)}
        reduced = {}
        for i, row in enumerate(lp.rows):
            if row.rel == "=":
                continue
            coeffs, const = self.substitute(self.exprs, row.terms)
            if coeffs:
                reduced.setdefault(Row(self.over(coeffs), row.rel, row.rhs - const), i)
            elif not (const <= row.rhs if row.rel == "<=" else const >= row.rhs):
                return
        self.reduced = reduced

    @classmethod
    def eliminate(cls, rows):
        steps = []
        step_of = {}
        for i, row in enumerate(rows):
            acc = {j: Fraction(a) for j, a in row.terms if a}
            rhs = Fraction(row.rhs)
            lrow = {}
            while True:
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
        return steps, cls.back_substitute(steps)

    @classmethod
    def back_substitute(cls, steps):
        exprs = {}
        for _, e, urow, rhs, _ in reversed(steps):
            inv = 1 / urow[e]
            coeffs, const = cls.substitute(exprs, ((v, -a) for v, a in urow.items() if v != e))
            exprs[e] = ({f: w * inv for f, w in coeffs.items()}, (rhs + const) * inv)
        return exprs

    @staticmethod
    def substitute(exprs, terms):
        coeffs = {}
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

    def over(self, coeffs):
        return tuple(sorted((self.index[f], w) for f, w in coeffs.items()))

    @staticmethod
    def equality_duals(steps, excess):
        """Solve (L U_E)^T lam = excess: U_E^T mu = excess forward, then
        L^T lam = mu backward."""
        pivot_vars = {e for _, e, _, _, _ in steps}
        known = {}
        mu = []
        for _, e, urow, _, _ in steps:
            mu_t = (excess[e] - known.get(e, 0)) / urow[e]
            mu.append(mu_t)
            if not mu_t:
                continue
            for v, a in urow.items():
                if v != e and v in pivot_vars:
                    known[v] = known.get(v, 0) + a * mu_t
        later = [Fraction(0)] * len(steps)
        lam = [Fraction(0)] * len(steps)
        for t in reversed(range(len(steps))):
            lam[t] = mu[t] - later[t]
            if not lam[t]:
                continue
            for s, f in steps[t][4].items():
                later[s] += f * lam[t]
        return lam

    def solve(self):
        """The outcome of ``lp.solve`` with this presolve: the reduced
        program pivoted by ``pivot_dual``, then the point lifted and the
        duals recovered over ``Fraction``s."""
        lp = self.lp
        if self.reduced is None:
            return LpOutcome("infeasible", None, None, None, 0)
        c = [Fraction(0)] * lp.n_vars
        for j, v in lp.objective:
            c[j] += v
        coeffs, offset = self.substitute(self.exprs, enumerate(c))
        inner = pivot_dual(LinearProgram(len(self.index), self.over(coeffs), tuple(self.reduced)))
        if inner.status != "optimal":
            return inner
        x = [Fraction(0)] * lp.n_vars
        for j, k in self.index.items():
            x[j] = inner.point[k]
        for e, (sub, k) in self.exprs.items():
            x[e] = k + sum((w * x[f] for f, w in sub.items()), Fraction(0))
        y = [Fraction(0)] * len(lp.rows)
        for i, yi in zip(self.reduced.values(), inner.duals):
            y[i] = yi
        rc = list(c)
        for yi, row in zip(y, lp.rows):
            if yi:
                for j, a in row.terms:
                    rc[j] -= yi * a
        for (k, _, _, _, _), lam in zip(self.steps, self.equality_duals(self.steps, rc)):
            y[self.eq_at[k]] = lam
        return LpOutcome("optimal", inner.value + offset, tuple(x), tuple(y), inner.pivots, inner.via_dual)
