"""Undirected simple labeled graphs with bitmask adjacency rows.

Vertices are 0-based integers 0..n-1.  Row ``adj[v]`` is an integer whose
bit ``u`` is set iff {u, v} is an edge.  Graphs are immutable; every
operation returns a fresh Graph.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cache

from .errors import GraphTooLarge, MalformedInput, NotChordal

MAX_VERTICES = 63
# a numeral longer than this is refused before ``int`` reads it: it is far
# past every cap, and ``int`` refuses one of more than 4,300 digits
MAX_DIGITS = 18


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple loopless undirected graph on vertices 0..n-1.

    Validation packs the rows into one integer, row v at bits v*s up to
    (v+1)*s for a stride s = max(8, the smallest power of two >= n), and
    reads it in a few whole-integer steps rather than one per vertex pair:
    the packer refuses a negative row or one past bit s - 1, one mask
    holds every row's bits n to s - 1 and the diagonal, and symmetry is
    equality with the transpose, taken in log2(s) delta swaps (Warren,
    *Hacker's Delight*, 2nd ed., section 7-3).  That is 2 to 3 us a graph
    at n <= 8 and about 7 us at n = 63 (Python 3.11, one core).  Only a
    refusal scans the rows: it names the first row that reaches past
    vertex n - 1 or holds its own vertex, and failing that the asymmetric
    pair {u, v} of least v, then least u.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        n, adj = self.n, self.adj
        if n < 0:
            raise MalformedInput("vertex count must be non-negative")
        if n > MAX_VERTICES:
            raise GraphTooLarge(f"n={n} exceeds cap of {MAX_VERTICES}")
        if len(adj) != n:
            raise MalformedInput("adjacency must have one row per vertex")
        if not n:
            return
        pack, refused, stages, lower, stride = _layout(n)
        try:
            packed = int.from_bytes(pack(*adj), "little")
        except struct.error:  # a row is negative, or reaches past bit s - 1
            raise MalformedInput(_row_fault(n, adj)) from None
        if packed & refused:
            raise MalformedInput(_row_fault(n, adj))
        flipped = packed
        for shift, mask in stages:
            swap = (flipped ^ flipped >> shift) & mask
            flipped ^= swap ^ swap << shift
        if flipped != packed:
            diff = (flipped ^ packed) & lower
            v, u = divmod((diff & -diff).bit_length() - 1, stride)
            raise MalformedInput(f"adjacency not symmetric at {{{u},{v}}}")

    # -- basic accessors ------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            while row:
                v = (row & -row).bit_length() - 1
                out.append((u, v))
                row &= row - 1
        return out

    @property
    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def is_regular(self) -> bool:
        if self.n == 0:
            return True
        d = self.degree(0)
        return all(self.degree(v) == d for v in range(self.n))

    def connected_components(self) -> list[tuple[int, ...]]:
        """Vertex sets of the connected components, each sorted, ordered by minimum vertex."""
        seen = 0
        comps = []
        for start in range(self.n):
            if seen >> start & 1:
                continue
            mask = 1 << start
            frontier = mask
            while frontier:
                nxt = 0
                while frontier:
                    v = (frontier & -frontier).bit_length() - 1
                    frontier &= frontier - 1
                    nxt |= self.adj[v] & ~mask
                mask |= nxt
                frontier = nxt
            seen |= mask
            comps.append(tuple(_bits(mask)))
        return comps

    def induced(self, vertices: tuple[int, ...]) -> Graph:
        """Induced subgraph relabeled 0..k-1 in the order of the sorted vertex list."""
        verts = sorted(vertices)
        index = {v: i for i, v in enumerate(verts)}
        rows = [0] * len(verts)
        for v in verts:
            row = 0
            for u in _bits(self.adj[v]):
                if u in index:
                    row |= 1 << index[u]
            rows[index[v]] = row
        return Graph(len(verts), tuple(rows))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"


_ROW_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}  # struct codes of rows of s bits


@cache
def _layout(n: int) -> tuple:
    """How ``Graph`` validates n rows: the packer that writes them at
    stride s and refuses a row outside [0, 2^s); the mask of the packed
    bits it refuses, each row's bits n to s - 1 and the diagonal; the
    stride's transpose stages and strict lower triangle; and s."""
    stride = max(8, 1 << (n - 1).bit_length())
    pack = struct.Struct(f"<{n}{_ROW_CODES[stride]}").pack
    diag, stages, lower = _stride_masks(stride)
    past_n = (1 << stride) - (1 << n)
    refused = diag | sum(past_n << v * stride for v in range(n))
    return pack, refused, stages, lower, stride


@cache
def _stride_masks(s: int) -> tuple[int, tuple[tuple[int, int], ...], int]:
    """The masks of an s-by-s bit matrix, entry (r, c) at bit r*s + c:
    its diagonal, the delta-swap stages that transpose it, and its strict
    lower triangle c < r.  Stage d swaps each entry (r, c) with r & d == 0
    and c & d != 0 for entry (r + d, c - d), d*(s - 1) bits higher."""
    rows = range(s)
    diag = sum(1 << r * s + r for r in rows)
    stages = []
    d = s >> 1
    while d:
        columns = sum(1 << c for c in rows if c & d)
        stages.append((d * (s - 1), sum(columns << r * s for r in rows if not r & d)))
        d >>= 1
    lower = sum(((1 << r) - 1) << r * s for r in rows)
    return diag, tuple(stages), lower


def _row_fault(n: int, adj: tuple[int, ...]) -> str | None:
    """The refusal of the first row that reaches past vertex n - 1 or
    holds its own vertex."""
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        if row & ~full:
            return f"adjacency row {v} references missing vertices"
        if row >> v & 1:
            return f"self-loop at vertex {v}"
    return None


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def bits_of(mask: int) -> tuple[int, ...]:
    """Sorted vertices of a subset bitmask."""
    return tuple(_bits(mask))


def subset_label(mask: int) -> str:
    """Render a subset bitmask as a sorted vertex list, e.g. ``{0,2}``."""
    return "{" + ",".join(str(v) for v in _bits(mask)) + "}"


# -- constructors -------------------------------------------------------


def check_vertex_count(n: int) -> None:
    """Refuses a negative n, and n past ``MAX_VERTICES``, before a graph
    of n vertices is built."""
    if n < 0:
        raise MalformedInput("vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise GraphTooLarge(f"n={n} exceeds cap of {MAX_VERTICES}")


def from_edges(n: int, edges) -> Graph:
    check_vertex_count(n)  # before any edge is read: n rows of up to n bits
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise MalformedInput(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise MalformedInput(f"edge ({u},{v}) out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def path(k: int) -> Graph:
    """The path with k edges on vertices 0..k; path(0) is a single isolated vertex."""
    if k < 0:
        raise MalformedInput("path length must be non-negative")
    return from_edges(k + 1, ((i, i + 1) for i in range(k)))


def cycle(k: int) -> Graph:
    """The cycle with k edges on vertices 0..k-1; requires k >= 3."""
    if k < 3:
        raise MalformedInput("cycle needs at least 3 edges")
    return from_edges(k, ((i, (i + 1) % k) for i in range(k)))


def star(k: int) -> Graph:
    """The star with k leaves: center 0 joined to 1..k."""
    if k < 0:
        raise MalformedInput("star size must be non-negative")
    return from_edges(k + 1, ((0, i) for i in range(1, k + 1)))


def disjoint_union(parts) -> Graph:
    """Disjoint union of (graph, multiplicity) parts with shifted labels."""
    parts = list(parts)
    if any(m < 0 for _, m in parts):
        raise MalformedInput("multiplicity must be >= 0")
    check_vertex_count(sum(g.n * m for g, m in parts))
    rows: list[int] = []
    for g, m in parts:
        for _ in range(m):
            offset = len(rows)
            rows.extend(r << offset for r in g.adj)
    return Graph(len(rows), tuple(rows))


def expand_components(G: Graph) -> list[tuple[Graph, int]]:
    """Connected components with multiplicities, equal labeled graphs
    merged, in order of their smallest vertex."""
    counts: dict[Graph, int] = {}
    for verts in G.connected_components():
        part = G.induced(verts)
        counts[part] = counts.get(part, 0) + 1
    return list(counts.items())


# -- cliques and chordality ---------------------------------------------


def maximal_cliques(G: Graph) -> list[int]:
    """All inclusion-maximal cliques as bitmasks, sorted ascending.

    An isolated vertex is a maximal clique of size 1.
    """
    out: list[int] = []
    full = (1 << G.n) - 1

    def extend(r: int, p: int, x: int):
        if p == 0 and x == 0:
            out.append(r)
            return
        # pivot on the candidate with most neighbors in p
        pivot = -1
        best = -1
        pool = p | x
        while pool:
            v = (pool & -pool).bit_length() - 1
            pool &= pool - 1
            cnt = (G.adj[v] & p).bit_count()
            if cnt > best:
                best, pivot = cnt, v
        cand = p & ~G.adj[pivot]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            extend(r | 1 << v, p & G.adj[v], x & G.adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    if G.n:
        extend(0, full, 0)
    return sorted(out)


def max_cardinality_search(G: Graph) -> tuple[int, ...]:
    """Maximum cardinality search visit order: each step visits the
    unvisited vertex with the most visited neighbours, the smallest such
    vertex on a tie (Tarjan and Yannakakis, 1984)."""
    weight = [0] * G.n  # visited neighbours of each vertex; -1 once visited
    order = []
    for _ in range(G.n):
        v = weight.index(max(weight))
        weight[v] = -1
        order.append(v)
        for u in _bits(G.adj[v]):
            if weight[u] >= 0:
                weight[u] += 1
    return tuple(order)


@dataclass(frozen=True)
class CliqueTree:
    """Clique forest of a chordal graph: one tree per connected component.

    Invariant: ``edges[k] == (parent, child)`` with ``parent < child``,
    and its separator ``separators[k]`` is ``cliques[parent] &
    cliques[child]``, nonzero.  Each clique is the child of at most one
    edge, so a pass from the last clique to the first meets every child
    before its parent.
    """

    cliques: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    separators: tuple[int, ...]


def _clique_forest(G: Graph) -> tuple[tuple[int, ...], CliqueTree] | None:
    """The maximum cardinality search visit order of G and its clique
    forest, or None when G is not chordal.

    The reversed visit order is the elimination ordering, perfect exactly
    when G is chordal, and is walked backwards here (Blair and Peyton,
    1993).  A vertex v with later neighbours N joins the clique that holds
    N's first-eliminated vertex u when that clique is exactly N; otherwise
    N + v starts a new clique, the child of that one over the separator N,
    or a root when N is empty.  The ordering is perfect at v iff N lies
    inside u's clique: every other vertex of N is eliminated after u, so
    it is in u's clique iff it is adjacent to u.  The cliques are the
    maximal cliques of G, and the forest has the running-intersection
    property.
    """
    order = max_cardinality_search(G)
    rank = {v: i for i, v in enumerate(order)}
    cliques: list[int] = []
    edges = []
    seps = []
    home = {}  # vertex -> index of the clique that holds it
    later = 0  # the vertices eliminated after v
    for v in order:
        sep = G.adj[v] & later
        later |= 1 << v
        if sep:
            c = home[max(_bits(sep), key=rank.__getitem__)]
            if sep & ~cliques[c]:
                return None
            if cliques[c] == sep:
                cliques[c] |= 1 << v
                home[v] = c
                continue
            edges.append((c, len(cliques)))
            seps.append(sep)
        home[v] = len(cliques)
        cliques.append(sep | 1 << v)
    return order, CliqueTree(tuple(cliques), tuple(edges), tuple(seps))


def is_chordal(G: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """(True, perfect elimination ordering, first-eliminated first) or
    (False, None), by the walk of ``_clique_forest``: the ordering is the
    reversed maximum cardinality search order."""
    forest = _clique_forest(G)
    if forest is None:
        return False, None
    return True, tuple(reversed(forest[0]))


def clique_tree(G: Graph) -> CliqueTree:
    """The clique forest of ``_clique_forest``, which checks chordality in
    the same walk that reads the forest."""
    forest = _clique_forest(G)
    if forest is None:
        raise NotChordal("clique tree requires a chordal graph")
    return forest[1]


# -- series-parallel recognition ----------------------------------------


def is_series_parallel(G: Graph) -> bool:
    """True iff G has no K4 minor.

    Reduces a copy of the adjacency rows: delete a vertex of degree <= 1,
    or one of degree 2 after joining its two neighbours.  G is
    series-parallel iff this empties the graph; once every vertex left
    has degree >= 3 the graph has a K4 minor.
    """
    rows = list(G.adj)
    live = (1 << G.n) - 1
    changed = True
    while live and changed:
        changed = False
        for v in _bits(live):
            row = rows[v]
            degree = row.bit_count()
            if degree > 2:
                continue
            for u in _bits(row):
                rows[u] &= ~(1 << v)
            if degree == 2:
                a, b = _bits(row)
                rows[a] |= 1 << b
                rows[b] |= 1 << a
            live &= ~(1 << v)
            changed = True
    return not live


# -- file format and graph-spec mini-language ----------------------------


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: header "n m", then m lines "u v", LF endings."""
    if not text.endswith("\n"):
        raise MalformedInput("file must end with a newline")
    lines = text.split("\n")[:-1]
    if not lines:
        raise MalformedInput("missing header line")
    header = _split_pair(lines[0])
    n, m = header
    check_vertex_count(n)
    if len(lines) - 1 != m:
        raise MalformedInput(f"expected {m} edge lines, found {len(lines) - 1}")
    rows = [0] * n
    for line in lines[1:]:
        u, v = _split_pair(line)
        if u == v:
            raise MalformedInput(f"self-loop at vertex {u}")
        if not u < v:
            raise MalformedInput(f"edge endpoints must satisfy u < v: got {u} {v}")
        if v >= n:
            raise MalformedInput(f"vertex {v} out of range for n={n}")
        if rows[u] >> v & 1:
            raise MalformedInput(f"duplicate edge {u} {v}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def _split_pair(line: str) -> tuple[int, int]:
    parts = line.split(" ")
    if len(parts) != 2:
        raise MalformedInput(f"expected two fields: {line!r}")
    out = []
    for p in parts:
        if not (p.isascii() and p.isdigit()) or (len(p) > 1 and p[0] == "0"):
            raise MalformedInput(f"not a decimal integer: {p!r}")
        out.append(_numeral(p))
    return out[0], out[1]


def serialize_graph(G: Graph) -> str:
    lines = [f"{G.n} {G.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in G.edges())
    return "\n".join(lines) + "\n"


def parse_graph_spec(spec: str) -> Graph:
    """Parse the CLI mini-language: ``path:K``, ``cycle:K``, or
    ``union:M1*path:K1+M2*path:K2+...``."""
    if spec.startswith("path:"):
        return path(_spec_int(spec[5:]))
    if spec.startswith("cycle:"):
        return cycle(_spec_int(spec[6:]))
    if spec.startswith("union:"):
        parts = []
        for item in spec[6:].split("+"):
            mult, _, rest = item.partition("*")
            if not rest.startswith("path:"):
                raise MalformedInput(f"union items must be M*path:K, got {item!r}")
            parts.append((path(_spec_int(rest[5:])), _spec_int(mult)))
        if not parts:
            raise MalformedInput("empty union spec")
        return disjoint_union(parts)
    raise MalformedInput(f"unknown graph spec {spec!r}")


def _spec_int(s: str) -> int:
    if not (s.isascii() and s.isdigit()):
        raise MalformedInput(f"expected a number in graph spec, got {s!r}")
    return _numeral(s)


def _numeral(digits: str) -> int:
    if len(digits) > MAX_DIGITS:
        raise MalformedInput(f"number has {len(digits)} digits, more than {MAX_DIGITS}")
    return int(digits)
