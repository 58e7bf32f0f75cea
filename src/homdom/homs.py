"""Exact enumeration and counting of graph homomorphisms and walks.

Counts are plain Python integers (arbitrary precision), densities and
normalized walk counts are ``fractions.Fraction``; nothing here ever
touches floating point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyGraph, MalformedInput
from .graphs import Graph, expand_components, _bits

__all__ = [
    "Homomorphism",
    "enumerate_homs",
    "count_homs",
    "walk_count",
    "normalized_walks",
    "hom_density",
    "average_degree",
]


@dataclass(frozen=True, slots=True)
class Homomorphism:
    """Total vertex map source -> target preserving adjacency."""

    source: Graph
    target: Graph
    map: tuple[int, ...]

    def __post_init__(self):
        if len(self.map) != self.source.n:
            raise MalformedInput("map must assign every source vertex")
        for u, v in self.source.edges():
            a, b = self.map[u], self.map[v]
            if a == b or not self.target.has_edge(a, b):
                raise MalformedInput(
                    f"map does not preserve edge {{{u},{v}}}: sends it to {{{a},{b}}}"
                )

    def image_mask(self, source_mask: int) -> int:
        """Bitmask of the images of the given source subset."""
        out = 0
        for v in _bits(source_mask):
            out |= 1 << self.map[v]
        return out

    def edge_visits(self) -> Counter:
        """Multiset of target edges hit by source edges (sorted pairs)."""
        c: Counter = Counter()
        for u, v in self.source.edges():
            a, b = self.map[u], self.map[v]
            c[(min(a, b), max(a, b))] += 1
        return c


def _enumerate_maps(F: Graph, G: Graph):
    """Yield raw map tuples in lexicographic order."""
    if F.n == 0:
        yield ()
        return
    if G.n == 0:
        return
    all_targets = (1 << G.n) - 1
    earlier = [F.adj[v] & ((1 << v) - 1) for v in range(F.n)]
    assignment = [0] * F.n

    def rec(v: int):
        if v == F.n:
            yield tuple(assignment)
            return
        allowed = all_targets
        for u in _bits(earlier[v]):
            allowed &= G.adj[assignment[u]]
            if not allowed:
                return
        for t in _bits(allowed):
            assignment[v] = t
            yield from rec(v + 1)

    yield from rec(0)


def enumerate_homs(F: Graph, G: Graph):
    """Stream every homomorphism F -> G exactly once, in lexicographic
    order of the map array.  Nothing is materialized."""
    for m in _enumerate_maps(F, G):
        yield Homomorphism(F, G, m)


def _is_path_shaped(g: Graph) -> bool:
    if g.n == 0:
        return False
    if g.edge_count != g.n - 1:
        return False
    if any(g.degree(v) > 2 for v in range(g.n)):
        return False
    return len(g.connected_components()) == 1


def _count_connected(F: Graph, G: Graph) -> int:
    if _is_path_shaped(F):
        return walk_count(G, F.n - 1)
    return sum(1 for _ in _enumerate_maps(F, G))


def count_homs(F: Graph, G: Graph) -> int:
    """Exact |Hom(F; G)|.

    Computed per connected component of F and multiplied; path-shaped
    components use the walk-count oracle, all others plain backtracking.
    """
    total = 1
    for comp, mult in expand_components(F):
        c = _count_connected(comp, G)
        if c == 0:
            return 0
        total *= c**mult
    return total


def walk_count(G: Graph, k: int) -> int:
    """Total number of walks with k edges in G, as an exact integer.

    Equals the sum of all entries of the k-th adjacency power, computed
    with k integer matrix-vector products.  walk_count(G, 0) == n.
    """
    if k < 0:
        raise MalformedInput("walk length must be non-negative")
    vec = [1] * G.n
    for _ in range(k):
        vec = [sum(vec[u] for u in _bits(G.adj[v])) for v in range(G.n)]
    return sum(vec)


def normalized_walks(G: Graph, k: int) -> Fraction:
    """Number of walks of length k divided by n."""
    if G.n == 0:
        raise EmptyGraph("normalized walk count needs at least one vertex")
    return Fraction(walk_count(G, k), G.n)


def hom_density(F: Graph, G: Graph) -> Fraction:
    """|Hom(F;G)| / n^|V(F)| as an exact rational in [0, 1]."""
    if G.n == 0:
        raise EmptyGraph("homomorphism density needs a non-empty target")
    return Fraction(count_homs(F, G), G.n ** F.n)


def average_degree(G: Graph) -> Fraction:
    if G.n == 0:
        raise EmptyGraph("average degree needs at least one vertex")
    return Fraction(2 * G.edge_count, G.n)
