"""Reference computations that share no code with homdom.

Everything here works on plain Python integers and fractions: matrix rows
packed into integers, subsets as bitmasks.  The benchmark uses these
functions to check the program's outputs after each timed operation;
none of them runs inside a timed region.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction


def edge_slots(n):
    """Vertex pairs in the order whose bitmask numbers the labeled graphs
    on n vertices (pair (u, v) with u < v, ordered by v, then u)."""
    return [(u, v) for v in range(n) for u in range(v)]


def labeled_graphs(n):
    """Every labeled graph on n vertices as (n, edge list), in edge-bitmask
    order."""
    slots = edge_slots(n)
    for mask in range(1 << len(slots)):
        yield n, [slots[b] for b in range(len(slots)) if mask >> b & 1]


def labeled_graphs_upto(n_max):
    for n in range(1, n_max + 1):
        yield from labeled_graphs(n)


def labeled_graph_count_upto(n_max):
    return sum(1 << (n * (n - 1) // 2) for n in range(1, n_max + 1))


def walk_counts(n, edges, lengths):
    """{k: number of walks with k edges}, the entry sum of the integer
    matrix power A^k.

    A^k is built row by row as A times A^(k-1): row i of the product is
    the sum of rows l of A^(k-1) over the neighbours l of i.  Each row is
    packed into one integer with a field per column, wide enough that no
    column sum of any power up to the longest length can carry over.
    """
    want = set(lengths)
    longest = max(want, default=0)
    width = (n * max(n - 1, 1) ** longest).bit_length() + 1
    mask = (1 << width) - 1
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    rows = [1 << (width * i) for i in range(n)]
    out = {}
    for k in range(longest + 1):
        if k:
            rows = [sum(rows[l] for l in nbrs[i]) for i in range(n)]
        if k in want:
            col_sums = sum(rows)
            out[k] = sum(col_sums >> (width * j) & mask for j in range(n))
    return out


def path_union_homs(components, walks):
    """Homomorphisms from a disjoint union of paths, given as
    {path length: multiplicity}, into a graph whose walk counts are in
    ``walks`` (walks[0] is its vertex count)."""
    total = 1
    for length, mult in components.items():
        total *= walks[length] ** mult
    return total


def first_definition_violation(components, t, c, table):
    """First target T in ``table`` (a list of (n, edges, walks)) with
    hom(F1;T)^b < hom(P_t;T)^a for c = a/b, or None."""
    a, b = c.numerator, c.denominator
    for n, edges, walks in table:
        if path_union_homs(components, walks) ** b < walks[t] ** a:
            return n, edges
    return None


def walk_table(n_max, lengths):
    """(n, edges, {k: walks}) for every labeled graph on 1..n_max vertices."""
    lengths = sorted(set(lengths) | {0})
    return [(n, e, walk_counts(n, e, lengths)) for n, e in labeled_graphs_upto(n_max)]


# -- walks in the target path and the path-source objective ----------------


def path_walk_profiles(m, t):
    """Walks with m edges in the path on vertices 0..t, grouped by profile.

    A walk's profile is the pair (edges used, inner vertices visited), each
    a sorted tuple of (item, multiplicity).  Returns a Counter mapping
    profile to the number of walks that have it; the Counter's total is
    the number of homomorphisms P_m -> P_t.
    """
    profiles: Counter = Counter()
    if m == 0:
        for v in range(t + 1):
            profiles[((), ((v, 1),))] += 1
        return profiles

    def extend(v, steps, edge_use, inner_use):
        if steps == m:
            profiles[(tuple(sorted(edge_use.items())), tuple(sorted(inner_use.items())))] += 1
            return
        for w in (v - 1, v + 1):
            if 0 <= w <= t:
                e = (min(v, w), max(v, w))
                edge_use[e] = edge_use.get(e, 0) + 1
                inner = steps + 1 < m
                if inner:
                    inner_use[w] = inner_use.get(w, 0) + 1
                extend(w, steps + 1, edge_use, inner_use)
                edge_use[e] -= 1
                if not edge_use[e]:
                    del edge_use[e]
                if inner:
                    inner_use[w] -= 1
                    if not inner_use[w]:
                        del inner_use[w]

    for start in range(t + 1):
        extend(start, 0, {}, {})
    return profiles


def path_objective(profile, p):
    """Sum over the walk's edges of p(edge image) minus the sum over its
    inner vertices of p(vertex image); an isolated source vertex scores
    p(its image).  ``p`` is indexed by subset bitmask."""
    edge_use, vertex_use = profile
    total = Fraction(0)
    for (u, v), mult in edge_use:
        total += mult * p[(1 << u) | (1 << v)]
    sign = 1 if not edge_use else -1
    for v, mult in vertex_use:
        total += sign * mult * p[1 << v]
    return total


def path_source_value(components, t, p, profile_cache):
    """max over homomorphisms of the path objective, summed over the
    components {length: multiplicity} of a union of paths mapped into P_t."""
    total = Fraction(0)
    for length, mult in components.items():
        key = (length, t)
        if key not in profile_cache:
            profile_cache[key] = path_walk_profiles(length, t)
        total += mult * max(path_objective(prof, p) for prof in profile_cache[key])
    return total


# -- the polytope, straight from its definition -----------------------------


def _path_adjacency_masks(t):
    return [((1 << (v - 1)) if v else 0) | ((1 << (v + 1)) if v < t else 0) for v in range(t + 1)]


def _reach(adj, start, allowed):
    seen = start & allowed
    frontier = seen
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        nxt &= allowed & ~seen
        seen |= nxt
        frontier = nxt
    return seen


class PathPolytope:
    """Membership in the polytope of normalized polymatroidal functions on
    the path with t edges, checked from the definition.

    Modular equalities are imposed on the pairs (A, B) whose intersection
    separates A minus B from B minus A in the graph sense: every path from
    one difference to the other passes through A and B's intersection.
    """

    def __init__(self, t):
        self.t = t
        self.n = t + 1
        self.full = (1 << self.n) - 1
        adj = _path_adjacency_masks(t)
        self.modular = []
        self.submodular = []
        for A in range(1, self.full + 1):
            for B in range(A + 1, self.full + 1):
                left, right = A & ~B, B & ~A
                if not left or not right:
                    continue
                outside = self.full & ~(A & B)
                if _reach(adj, left, outside) & right:
                    self.submodular.append((A, B))
                else:
                    self.modular.append((A, B))

    def violation(self, p):
        """None for a member, else a short description of a failed condition."""
        if len(p) != 1 << self.n:
            return f"expected {1 << self.n} values, got {len(p)}"
        if p[0] != 0:
            return "p(empty) != 0"
        if p[self.full] != 1:
            return "p(V) != 1"
        for A in range(self.full + 1):
            free = self.full & ~A
            while free:
                low = free & -free
                if p[A] > p[A | low]:
                    return f"not monotone at {A} -> {A | low}"
                free ^= low
        for A, B in self.submodular:
            if p[A] + p[B] < p[A & B] + p[A | B]:
                return f"not submodular at ({A}, {B})"
        for A, B in self.modular:
            if p[A] + p[B] != p[A & B] + p[A | B]:
                return f"not modular at separated pair ({A}, {B})"
        return None


def lemma_sides(t, p):
    """(p(V), sum over path edges minus sum over inner vertices)."""
    rhs = sum(p[(1 << i) | (1 << (i + 1))] for i in range(t)) - sum(
        p[1 << i] for i in range(1, t)
    )
    return p[(1 << (t + 1)) - 1], rhs


def averaged_indicator(t):
    """p*(S) = |S| / (t+1) on the path with t edges."""
    return [Fraction(bin(S).count("1"), t + 1) for S in range(1 << (t + 1))]


def indicator(t, i):
    return [Fraction(S >> i & 1) for S in range(1 << (t + 1))]


def linear_value(objective, p):
    return sum((c * p[j] for j, c in objective), Fraction(0))


# -- walk-inequality sweeps -------------------------------------------------


def margin(walks, n, t, k):
    """w_k^t - w_t^k with w_j = walks[j] / n."""
    return Fraction(walks[k], n) ** t - Fraction(walks[t], n) ** k


class SweepReference:
    """Reference result of a walk-inequality sweep, fed one graph at a time:
    graphs checked, violations, the worst margin and the first graph that
    attains it."""

    def __init__(self, t, k):
        self.t, self.k = t, k
        self.checked = self.violations = 0
        self.worst = self.worst_graph = None
        self._margins = {}

    def add(self, n, edges, walks):
        key = (n, walks[self.t], walks[self.k])
        if key not in self._margins:
            self._margins[key] = margin(walks, n, self.t, self.k)
        m = self._margins[key]
        self.checked += 1
        self.violations += m < 0
        if self.worst is None or m < self.worst:
            self.worst, self.worst_graph = m, (n, sorted(edges))


def parse_edge_list(text):
    """(n, sorted edges) from the "n m" header plus "u v" lines format."""
    lines = text.strip("\n").split("\n")
    n, m = map(int, lines[0].split())
    edges = sorted(tuple(map(int, line.split())) for line in lines[1:])
    if len(edges) != m:
        raise ValueError("edge count does not match header")
    return n, edges
