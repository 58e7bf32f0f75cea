"""Shared brute-force oracles and generators for the test suite.

Every oracle here is deliberately independent of the implementation it
checks: chordality by chordless-cycle enumeration, series-parallel by
explicit K4-minor search, LP solving by vertex enumeration over exact
rational linear algebra, the HDE objective by its subset form over
brute-force maximal cliques, the polytope by one row for every pair of
subsets with separation found by breadth-first search, walk counts by
integer adjacency-matrix powers.
"""

import random
from fractions import Fraction
from itertools import combinations

from homdom.graphs import Graph, bits_of, from_edges
from homdom.polytope import Constraint, ConstraintSystem


def random_graph(n: int, rng: random.Random, edge_prob=Fraction(1, 2)) -> Graph:
    a, b = edge_prob.numerator, edge_prob.denominator
    edges = [(u, v) for v in range(n) for u in range(v) if rng.randrange(b) < a]
    return from_edges(n, edges)


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
                if all(G.has_edge(a, b) for a, b in combinations(verts, 2)):
                    cliques.append(sum(1 << u for u in verts))
    return sorted(c for c in cliques if not any(c != d and c & d == c for d in cliques))


def objective_subset_form(F1: Graph, phi) -> tuple:
    """Oracle for the HDE objective of the homomorphism phi: F1 -> F2.

    Alternating sum over the sets S of maximal cliques of F1 with nonempty
    common intersection, sign -(-1)^|S|, accumulated on the image subset
    phi(intersection of S).  Returns the nonzero (image mask, coefficient)
    terms sorted by mask, the shape of ``ObjectiveProfile.terms``.
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


def _separated(F2: Graph, A: int, B: int) -> bool:
    """Breadth-first search from A\\B through vertices outside A & B;
    True iff it never reaches B\\A."""
    cut = A & B
    queue = list(bits_of(A & ~B))
    seen = set(queue)
    while queue:
        v = queue.pop(0)
        for u in range(F2.n):
            if not F2.has_edge(v, u) or cut >> u & 1 or u in seen:
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
        Constraint("normalization", ((0, one),), "=", zero),
        Constraint("normalization", ((n_sub - 1, one),), "=", one),
    ]
    for A in range(n_sub):
        for B in range(A + 1, n_sub):
            if not A & ~B:
                cons.append(Constraint("monotone", ((A, one), (B, -one)), "<=", zero))
    for A in range(1, n_sub):
        for B in range(A + 1, n_sub):
            if not A & ~B or not B & ~A:
                continue
            terms = ((A & B, one), (A | B, one), (A, -one), (B, -one))
            if _separated(F2, A, B):
                cons.append(Constraint("modular-separation", terms, "=", zero))
            else:
                cons.append(Constraint("submodular", terms, "<=", zero))
    return ConstraintSystem(F2.n, tuple(cons))


# -- exact rational linear algebra for the LP oracle ----------------------


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
    """Enumerate candidate vertices as intersections of n constraint
    hyperplanes (rows plus lower-bound facets); assumes a bounded feasible
    region so feasibility is equivalent to having a feasible vertex.

    Returns ("optimal", best value) or ("infeasible", None).
    """
    n = lp.n_vars
    facets = []
    for row in lp.rows:
        coeffs = [Fraction(0)] * n
        for j, a in row.terms:
            coeffs[j] += a
        facets.append((coeffs, row.rhs))
    for j, lb in enumerate(lp.lower_bounds):
        if lb is not None:
            coeffs = [Fraction(0)] * n
            coeffs[j] = Fraction(1)
            facets.append((coeffs, lb))

    obj = [Fraction(0)] * n
    for j, c in lp.objective:
        obj[j] += c
    sign = 1 if lp.sense == "min" else -1

    def feasible(x):
        for row in lp.rows:
            lhs = sum(a * x[j] for j, a in row.terms)
            if row.rel == "<=" and lhs > row.rhs:
                return False
            if row.rel == ">=" and lhs < row.rhs:
                return False
            if row.rel == "=" and lhs != row.rhs:
                return False
        for j, lb in enumerate(lp.lower_bounds):
            if lb is not None and x[j] < lb:
                return False
        return True

    best = None
    for subset in combinations(range(len(facets)), n):
        matrix = [facets[i][0] for i in subset]
        rhs = [facets[i][1] for i in subset]
        x = solve_square(matrix, rhs)
        if x is None or not feasible(x):
            continue
        val = sign * sum(c * xi for c, xi in zip(obj, x))
        if best is None or val < best:
            best = val
    if best is None:
        return "infeasible", None
    return "optimal", sign * best
