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
    "HomPlan",
    "walk_counts",
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
        # Each source edge {u, v}, u < v, is tested once against the target's
        # row of u's image; targets are loopless, so this also rejects a == b.
        m, target = self.map, self.target.adj
        for u, row in enumerate(self.source.adj):
            row = row >> (u + 1) << (u + 1)
            if not row:
                continue
            a = m[u]
            image_row = target[a]
            while row:
                bit = row & -row
                row ^= bit
                v = bit.bit_length() - 1
                if not image_row >> m[v] & 1:
                    raise MalformedInput(
                        f"map does not preserve edge {{{u},{v}}}: sends it to {{{a},{m[v]}}}"
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


class HomPlan:
    """The connected components of a source F, split once into path
    lengths (counted as walks) and the rest (counted by backtracking), so
    that |Hom(F; G)| over many targets G does not re-decompose F."""

    __slots__ = ("paths", "others")

    def __init__(self, F: Graph):
        self.paths: dict[int, int] = {}  # walk length -> multiplicity
        self.others: list[tuple[Graph, int]] = []
        for comp, mult in expand_components(F):
            if _is_path_shaped(comp):
                k = comp.n - 1
                self.paths[k] = self.paths.get(k, 0) + mult
            else:
                self.others.append((comp, mult))

    def count(self, G: Graph) -> int:
        """Exact |Hom(F; G)|."""
        total = 1
        for k, w in walk_counts(G, self.paths).items():
            if w == 0:
                return 0
            total *= w ** self.paths[k]
        for comp, mult in self.others:
            c = sum(1 for _ in _enumerate_maps(comp, G))
            if c == 0:
                return 0
            total *= c**mult
        return total


def count_homs(F: Graph, G: Graph) -> int:
    """Exact |Hom(F;G)|.

    Computed per connected component of F and multiplied; path-shaped
    components use the walk counts, all others plain backtracking.
    """
    return HomPlan(F).count(G)


def walk_counts(G: Graph, lengths) -> dict[int, int]:
    """Total number of walks of each given length in G, as exact integers.

    With v_0 = 1, v_1 = the degrees and v_{a+1} = A·v_a, the number of
    walks with 2a edges is v_a·v_a and with 2a+1 edges v_a·v_{a+1}.  So
    every length up to k >= 1 comes from one chain of ⌈k/2⌉ − 1 integer
    matrix-vector products, one per neighbour-tuple pass over the rows.
    """
    lengths = sorted(set(lengths))
    if lengths and lengths[0] < 0:
        raise MalformedInput("walk length must be non-negative")
    if not lengths:
        return {}
    chain = [[1] * G.n, [row.bit_count() for row in G.adj]]
    top = (lengths[-1] + 1) // 2
    if top >= 2:
        rows = [tuple(_bits(row)) for row in G.adj]
        while len(chain) <= top:
            v = chain[-1]
            chain.append([sum([v[u] for u in row]) for row in rows])
    out = {}
    for k in lengths:
        a, b = chain[k // 2], chain[(k + 1) // 2]
        out[k] = sum([x * y for x, y in zip(a, b)])
    return out


def walk_count(G: Graph, k: int) -> int:
    """Total number of walks with k edges in G, as an exact integer:
    the sum of all entries of the k-th adjacency power.
    walk_count(G, 0) == n."""
    return walk_counts(G, (k,))[k]


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
