"""Exact enumeration and counting of graph homomorphisms and walks.

Counts are plain Python integers (arbitrary precision), normalized walk
counts and average degrees are ``fractions.Fraction``; nothing here ever
touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

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


def _enumerate_maps(F: Graph, G: Graph):
    """Yield raw map tuples in lexicographic order: the one empty map of
    an empty F, and none of a nonempty F into an empty G."""
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
    """Whether g, connected as ``expand_components`` gives it, is a path."""
    if g.edge_count != g.n - 1:
        return False
    return all(g.degree(v) <= 2 for v in range(g.n))


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

    def count(self, G: Graph, walks: dict[int, int]) -> int:
        """Exact |Hom(F; G)|, given ``walks``: the walk totals of G for at
        least the lengths in ``self.paths``, so that one ``walk_counts``
        chain can serve several plans over the same G."""
        total = 1
        for k, mult in self.paths.items():
            w = walks[k]
            if w == 0:
                return 0
            total *= w**mult
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
    plan = HomPlan(F)
    return plan.count(G, walk_counts(G, plan.paths))


# Neighbour tuples of every adjacency row on the first 8 vertices.
_TABLE_ROWS = 1 << 8
_NEIGHBOURS = tuple(tuple(_bits(row)) for row in range(_TABLE_ROWS))


def walk_counts(G: Graph, lengths) -> dict[int, int]:
    """Total number of walks of each given length in G, as exact integers.

    With v_0 = 1, v_1 = the degrees and v_{a+1} = A·v_a, the number of
    walks with 2a edges is v_a·v_a and with 2a+1 edges v_a·v_{a+1}.  So
    every length up to k >= 1 comes from one chain of ⌈k/2⌉ − 1 integer
    matrix-vector products, one per neighbour-tuple pass over the rows.
    A row below 2^8, as every row of a graph on at most 8 vertices is,
    takes its neighbour tuple from a module-level table; a wider row lists
    its bits.  The lengths are read in increasing order, each once the
    chain reaches v_⌈k/2⌉, so the chain keeps only its last two vectors:
    an entry of v_a has about a bits, and keeping every vector would take
    memory quadratic in the longest length.

    Random and explicit scopes and ``homdom walks`` count every graph
    here.  An exhaustive scope counts a block of graphs at a time
    (``checks._labeled_walks``) and comes here only at n <= 2, where a
    block is one graph, and for lengths past its 64-bit lanes.
    """
    lengths = sorted(set(lengths))
    if lengths and lengths[0] < 0:
        raise MalformedInput("walk length must be non-negative")
    if not lengths:
        return {}
    if lengths[-1] >= 3:
        rows = [_NEIGHBOURS[row] if row < _TABLE_ROWS else tuple(_bits(row))
                for row in G.adj]
    a, low, high = 1, [1] * G.n, [row.bit_count() for row in G.adj]  # v_{a-1}, v_a
    out = {}
    for k in lengths:
        while a < (k + 1) // 2:
            get = high.__getitem__
            low, high = high, [sum(map(get, row)) for row in rows]
            a += 1
        out[k] = sum(map(mul, low if k % 2 else high, high)) if k else G.n
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


def average_degree(G: Graph) -> Fraction:
    if G.n == 0:
        raise EmptyGraph("average degree needs at least one vertex")
    return Fraction(2 * G.edge_count, G.n)
