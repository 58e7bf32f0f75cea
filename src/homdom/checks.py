"""Desk-scale verification harness for the walk inequalities and the
identities behind the domination-exponent computation.

Every comparison is exact: the walk inequality is decided on integer
margins, with rational sides built only for the reported witness,
fractional exponents are handled by raising both sides to the exponent's
denominator, and every verdict comes with a witness from which the
comparison can be reproduced.  Every check over a scope reads its graphs
through one scan, which raises ``EmptyScope`` for a scope with no graphs
instead of letting a check return a vacuous "holds".  The scan hands a
check a block of graphs at a time: the scope offset of its first graph,
its weight, the graphs' vertex count, their walk tuples and a function
that builds one of them.  The check decides each distinct (n, walks)
once, counts each graph weight times, and builds a graph only when it
needs more.  Every scope counts a block's walks together, bit-sliced,
in one kernel (``_walk_tuples``): a random or an explicit block's edge
masks are read from its graphs' packed rows, an exhaustive block's from
its edge slots.  An exhaustive scope walks one star of each size of its
last vertex, weighted by the number of stars of that size; the first
graph in scope order with any walk tuple lies in one of those stars, so
every report names the graph a walk over every labeled graph would name.
A star's graph g is held as its edge-slot index alone, bit s of g its
edge slot s, and decoded from the star and those bits only when a check
asks for it (``_slot_graph``); ``Graph`` validates it once, as it is
built.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, groupby, islice
from math import comb
from operator import attrgetter

from .errors import (
    BadIndex,
    BadParity,
    EmptyGraph,
    EmptyScope,
    MalformedInput,
    NotMember,
    ScopeTooLarge,
)
from .graphs import (
    _ROW_CODES,
    _layout,
    Graph,
    check_vertex_count,
    from_edges,
    path,
    serialize_graph,
)
# count_homs and normalized_walks are not called here; they stay module
# attributes so that bench/spans.py can rebind them like from_edges.
from .homs import HomPlan, count_homs, normalized_walks, walk_counts
from .lp import _norm_terms, evaluate
from .polytope import SetFunction, is_member, separates

EXHAUSTIVE_CAP = 6
# the most bits a power of a hom count may take in check_hde_definition:
# two powers of this size take 0.05 to 0.14 s (Python 3.11, one core)
POWER_BITS = 1 << 20
# the most samples * (n^2 + 20) a random scope may draw: a graph of n
# vertices takes about n^2 + 20 quarter-microseconds to draw, validate and
# sweep at t = 1, k = 3, and the largest such sweeps took 16 s at n = 1
# (4,761,904 samples) and 24 s at n = 63 (25,068 samples; 2 cores,
# Python 3.11.7), most of it drawing the graphs
SAMPLE_BUDGET = 10**8


def _lane_width(n: int, k: int) -> int | None:
    """The narrowest lane of ``_ROW_CODES`` that holds n * (n - 1)^k, the
    most walks with k edges of a graph on n vertices; None past 64 bits.
    For n > 2 a k past 64 is past 64 bits, so the power is cut there."""
    most = n * (n - 1) ** min(k, 64)
    return next((width for width in _ROW_CODES if most >> width == 0), None)


def _repeat(pattern: int, span: int, bits: int) -> int:
    """``pattern``, ``span`` bits wide, repeated up to ``bits`` bits by
    doubling; ``bits`` is ``span`` times a power of two."""
    while span < bits:
        pattern |= pattern << span
        span <<= 1
    return pattern


def _lanes(total: int, width: int, count: int) -> list[int]:
    """The ``count`` lanes of ``width`` bits of ``total``, lane g at bit
    g * width, read as native ints."""
    view = memoryview(total.to_bytes(width // 8 * count, sys.byteorder)).cast(_ROW_CODES[width])
    # a big-endian host writes the top lane first
    return (view if sys.byteorder == "little" else view[::-1]).tolist()


# the most consecutive graphs with one vertex count that a random or an
# explicit scope, or a star of an exhaustive level past 64-bit lanes, puts
# in one block: as many as a star's block at n = 6.  1,024 graphs on 63
# vertices take about 3 MB, and the edge masks of their 1,953 vertex pairs
# 8 KB each at 64-bit lanes, 16 MB, held while the block is counted
_BLOCK_GRAPHS = 1024

# for each bit b, the byte table that maps a byte to its bit b
_BIT_BYTES = tuple(bytes(x >> b & 1 for x in range(256)) for b in range(8))


def _walk_tuples(lengths: tuple[int, ...], width: int, count: int, terms: list) -> list:
    """The walk tuples of ``count`` graphs on n = len(terms) vertices,
    counted together, bit-sliced (Biham, FSE 1997): each holds a graph's
    number of walks with l edges for each l in ``lengths``.

    An entry of the walk vector v_a is one int with a lane of ``width``
    bits per graph, graph g's lane at bit g * width.  ``terms[i]`` lists
    (j, E_ij) for each j that some graph joins to i, E_ij all ones in the
    lanes whose graph has the edge {i, j}.  So v_0 = 1 and each step
    v_{a+1}[i] = sum_j (v_a[j] & E_ij) is a few whole-int operations, and
    W_a = sum_i v_a[i] is read out a lane at a time.  ``width`` must hold
    n * (n - 1)^k for the longest length k (``_lane_width``), so no lane
    carries into the next."""
    ones = int.from_bytes((1).to_bytes(width // 8, "little") * count, "little")
    v = [ones] * len(terms)
    totals = {0: ones * len(terms)}
    wanted = set(lengths)
    for a in range(1, max(lengths, default=0) + 1):
        v = [sum(v[j] & e for j, e in row) for row in terms]
        if a in wanted:
            totals[a] = sum(v)
    unpacked = {k: _lanes(totals[k], width, count) for k in wanted}
    return list(zip(*(unpacked[k] for k in lengths))) if lengths else [()] * count


def _edge_terms(n: int, width: int, graphs: list) -> list:
    """The terms of ``_walk_tuples`` for ``graphs``, each on n vertices:
    for each pair {i, j} that one of them joins, E_ij with a lane of
    ``width`` bits per graph, all ones where the graph has the edge.

    The graphs' rows are packed at ``Graph``'s stride s, one after the
    other, so the byte of row i that holds bit j recurs every n * s / 8
    bytes: a strided slice reads it for every graph, and a table maps it
    to bit j.  Strided assignment puts each graph's bit in the low byte of
    its lane, and one product with 2^width - 1 fills every lane that holds
    a 1.  All of it runs at C speed, with no step per graph; a pair that no
    graph joins gets no term."""
    pack, *_, stride = _layout(n)
    packed = b"".join([pack(*G.adj) for G in graphs])
    step, lane, count = n * stride // 8, width // 8, len(graphs)
    none, spread, fill = bytes(count), bytearray(lane * count), (1 << width) - 1
    terms = [[] for _ in range(n)]
    for j in range(n):
        table = _BIT_BYTES[j % 8]
        for i in range(j):
            column = packed[i * stride // 8 + j // 8::step].translate(table)
            if column == none:
                continue
            spread[::lane] = column
            mask = int.from_bytes(spread, "little") * fill
            terms[i].append((j, mask))
            terms[j].append((i, mask))
    return terms


def _graph_blocks(graphs, lengths: tuple[int, ...], weight: int = 1, offset: int = 0):
    """The blocks of ``graphs``, the first at scope offset ``offset``, each
    with ``weight``: one for each run of up to ``_BLOCK_GRAPHS``
    consecutive graphs with n vertices, in the block shape of ``Scope``.
    A graph's walk tuple holds its number of walks with l edges for each l
    in ``lengths``, counted a block at a time by ``_walk_tuples`` over the
    block's ``_edge_terms``, or past 64-bit lanes by one ``walk_counts``
    chain a graph."""
    for n, run in groupby(graphs, attrgetter("n")):
        width = _lane_width(n, max(lengths, default=0))
        while block := list(islice(run, _BLOCK_GRAPHS)):
            if width is None:
                walks = [tuple(map(walk_counts(G, lengths).__getitem__, lengths)) for G in block]
            else:
                walks = _walk_tuples(lengths, width, len(block), _edge_terms(n, width, block))
            yield offset, weight, n, walks, block.__getitem__
            offset += len(block)


def _slot_graph(n: int, nbhd: int, g: int) -> Graph:
    """The graph on n vertices whose edge slots below vertex n - 1 are the
    set bits of g, in the kernel's slot order, and whose vertex n - 1 is
    joined to the vertices of ``nbhd``, validated by ``Graph``.  Slot
    C(j, 2) + i is the pair {i, j}, so bits C(j, 2) ... C(j + 1, 2) - 1 of
    g are the neighbours of j below j."""
    m = n - 1
    rows = [0] * m + [nbhd]
    for j in range(m):
        below = g & ((1 << j) - 1)
        g >>= j
        rows[j] |= below | (nbhd >> j & 1) << m
        while below:
            low = below & -below
            rows[low.bit_length() - 1] |= 1 << j
            below ^= low
    return Graph(n, tuple(rows))


def _labeled_blocks(n: int, lengths: tuple[int, ...], start: int = 0):
    """The blocks of an exhaustive level: one per size s of vertex
    n - 1's star, for the labeled graphs on n >= 1 vertices that follow
    ``start`` graphs in scope order.

    A level's graphs fall into 2^(n-1) stars N of vertex n - 1, each with
    one graph per graph on the first n - 1 vertices, in edge-bitmask
    order.  A permutation of vertices 0 ... n - 2 that takes N to N' maps
    N's graphs onto N''s one to one, keeping every walk count and hom
    count, since the two graphs are isomorphic.  So the multiset of walk
    tuples of N's graphs depends only on s = |N|, and the level's is the
    sum over s of C(n - 1, s) times that of the canonical star
    N_s = {0, ..., s - 1}, the int 2^s - 1.  Only the canonical stars are
    walked, each weighted by C(n - 1, s), at its real offset, ``start``
    plus (2^s - 1) * 2^C(n-1,2).  As N_s is the first star with s bits in
    scope order, and every star before it has fewer, the first graph in
    scope order with a given walk tuple, or of any isomorphism-closed
    set, lies in a canonical star at its own index: a check's witness and
    its first failure stand in scope order.
    """
    return _star_blocks(n, lengths, start, [((1 << s) - 1, comb(n - 1, s)) for s in range(n)])


def _star_blocks(n: int, lengths: tuple[int, ...], start: int, stars: list):
    """The blocks of the labeled graphs on n >= 1 vertices whose vertex
    n - 1 has the neighbourhood N, for each (N, weight) in ``stars``, in
    the block shape of ``Scope``: N's graphs, one per graph g on the first
    n - 1 vertices, at scope offset ``start`` + N * 2^C(n-1,2), each
    standing for ``weight`` graphs.  A walk tuple holds the number of
    walks with l edges for each l in ``lengths``.

    A star's walks are counted together by ``_walk_tuples``, graph g in
    lane g, with no graph built.  Bit s of g is its edge slot s, so the
    mask of slot s is 2^s lanes without the edge, then 2^s with it, over
    and over; the edges of vertex n - 1 are the same in every lane, all
    ones for a neighbour in N and no term for the rest.  Past 64 bits each
    graph is built and gets its own ``walk_counts`` chain, in the blocks
    of ``_graph_blocks``.  At n = 6 a star has 1,024 graphs and each of
    its ints w/8 KB.

    A star's graph g is not built unless asked for, and then decoded from
    (N, g) by ``_slot_graph``, which ``Graph`` validates as it is built.
    """
    m = n - 1
    count = 1 << comb(m, 2)
    width = _lane_width(n, max(lengths, default=0))
    if width is None:
        for nbhd, weight in stars:
            graphs = map(partial(_slot_graph, n, nbhd), range(count))
            yield from _graph_blocks(graphs, lengths, weight, start + nbhd * count)
        return
    bits = width * count
    every = _repeat((1 << width) - 1, width, bits)
    slots = [[] for _ in range(m)]  # (j, E_ij) for each j != i below m
    for s, (i, j) in enumerate((i, j) for j in range(m) for i in range(j)):
        run = width << s
        mask = _repeat(((1 << run) - 1) << run, run << 1, bits)
        slots[i].append((j, mask))
        slots[j].append((i, mask))
    for nbhd, weight in stars:
        terms = [[*row, (m, every)] if nbhd >> i & 1 else row for i, row in enumerate(slots)]
        terms.append([(j, every) for j in range(m) if nbhd >> j & 1])
        walks = _walk_tuples(lengths, width, count, terms)
        yield start + nbhd * count, weight, n, walks, partial(_slot_graph, n, nbhd)


def random_graph(n: int, edge_prob: Fraction, rng: random.Random) -> Graph:
    """Erdos-Renyi sample with an exact rational edge probability."""
    a, b = edge_prob.numerator, edge_prob.denominator
    edges = [
        (u, v) for v in range(n) for u in range(v) if rng.randrange(b) < a
    ]
    return from_edges(n, edges)


def _check_exhaustive(n: int) -> None:
    """Refuses an exhaustive scope's n before the scope is built."""
    check_vertex_count(n)
    if n > EXHAUSTIVE_CAP:
        raise ScopeTooLarge(f"exhaustive scope capped at n={EXHAUSTIVE_CAP}")


def _check_vertices(n: int) -> None:
    """Refuses a scope's graph of n vertices: every check over a scope
    divides by n."""
    if n == 0:
        raise EmptyGraph("a scope's graphs need at least one vertex")


@dataclass(frozen=True, eq=False)
class Scope:
    """A reproducible collection of graphs to check, equal only to itself.
    It holds its description, the most vertices a graph of it can have,
    and a function that draws its graphs afresh on every draw, re-seeding
    a random scope.  The graphs are drawn a block at a time, a block being
    consecutive graphs with one vertex count n, as (the scope offset of
    its first graph, its weight, n, the walk tuples of its graphs at the
    lengths asked for, in scope order, a function from an index in the
    block to that graph as a validated ``Graph``).  Each graph of a block
    stands for ``weight`` graphs of the scope with its walk tuple, so the
    scope has the sum of weight * size graphs.  An exhaustive scope's
    blocks are the graphs under one canonical star of each size of vertex
    n - 1, weighted by the number of stars of that size (see
    ``_labeled_blocks``), each graph decoded from its star and edge-slot
    index, and validated, only when asked for; a random or an explicit
    scope groups runs of graphs with the same n as it draws them, with
    weight 1, and packs each run's rows as it draws it.  Both
    count a block's walks together in ``_walk_tuples``, and one graph at a
    time only past 64-bit lanes.  Every refusal is made when it is
    built."""

    _description: dict
    _max_vertices: int
    _draw: Callable[[tuple[int, ...]],
                    Iterator[tuple[int, int, int, Sequence[tuple[int, ...]],
                                   Callable[[int], Graph]]]]

    @staticmethod
    def exhaustive(n: int) -> "Scope":
        _check_exhaustive(n)
        _check_vertices(n)
        return Scope({"kind": "exhaustive", "n": n}, n,
                     lambda lengths: _labeled_blocks(n, lengths))

    @staticmethod
    def exhaustive_upto(n_max: int) -> "Scope":
        _check_exhaustive(n_max)
        # each level n follows the 2^C(j,2) graphs of every level j < n
        starts = {n: sum(1 << j * (j - 1) // 2 for j in range(1, n)) for n in range(1, n_max + 1)}
        return Scope({"kind": "exhaustive-upto", "n_max": n_max}, n_max,
                     lambda lengths: chain.from_iterable(
                         _labeled_blocks(n, lengths, start) for n, start in starts.items()))

    @staticmethod
    def random(samples: int, n: int, edge_prob, seed: int) -> "Scope":
        edge_prob = Fraction(edge_prob)
        if not 0 <= edge_prob <= 1:
            raise MalformedInput(f"edge probability must be in [0, 1], got {_rat(edge_prob)}")
        check_vertex_count(n)
        _check_vertices(n)
        if samples * (n * n + 20) > SAMPLE_BUDGET:
            raise ScopeTooLarge(f"{samples} samples at n={n} exceed the draw budget: "
                                f"samples * (n^2 + 20) may be at most {SAMPLE_BUDGET}")

        def draw(lengths):
            rng = random.Random(seed)
            return _graph_blocks((random_graph(n, edge_prob, rng) for _ in range(samples)),
                                 lengths)

        # as str() writes it ("1/2", "1", "0"), at any length
        prob = _rat(edge_prob) if edge_prob.denominator > 1 else _decimal(edge_prob.numerator)
        description = {"kind": "random", "samples": samples, "n": n, "edge_prob": prob,
                       "seed": seed}
        return Scope(description, n, draw)

    @staticmethod
    def graphs(items) -> "Scope":
        items = tuple(items)
        for G in items:
            _check_vertices(G.n)
        n_max = max((G.n for G in items), default=0)
        return Scope({"kind": "explicit", "count": len(items)}, n_max,
                     lambda lengths: _graph_blocks(items, lengths))

    def max_vertices(self) -> int:
        """The most vertices a graph of the scope can have."""
        return self._max_vertices

    def describe(self) -> dict:
        return dict(self._description)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check; every comparison is reproducible from the
    stored witness graphs and exact sides."""

    name: str
    params: dict
    verdict: str  # "holds" | "violated" | "counterexample-found"
    witnesses: tuple

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "params": self.params,
            "verdict": self.verdict,
            "witnesses": list(self.witnesses),
        }


def _decimal(n: int) -> str:
    """n in decimal at any length.  ``str`` refuses an int of more than
    4,300 digits by default; rather than lift that interpreter-wide limit,
    a longer n is written 4,000 digits at a time, split off by divmod."""
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() <= 13_000:  # n < 2^13000 < 10^3914
        return str(n)
    head, low = divmod(n, 10**4000)
    return _decimal(head) + f"{low:04000}" if head else str(low)


def _rat(q: Fraction) -> str:
    return f"{_decimal(q.numerator)}/{_decimal(q.denominator)}"


def _scan(scope: Scope, check: str, lengths: tuple[int, ...]):
    """The blocks that ``Scope`` draws, with walk tuples at ``lengths``; a
    scope that yields no block, and so no graph, raises ``EmptyScope``, so
    no check reports on it."""
    drawn = 0
    for block in scope._draw(lengths):
        yield block
        drawn += 1
    if not drawn:
        raise EmptyScope(f"{check} needs at least one graph")


def _first_indices(walks: Sequence) -> dict:
    """Each distinct walk tuple of ``walks`` with the index of its first
    graph, in order of first appearance, in two passes at C speed: the
    keys take their order from ``dict.fromkeys``, and the indices, written
    from the last graph back, leave each tuple its first."""
    first = dict.fromkeys(walks)
    first.update(zip(reversed(walks), range(len(walks) - 1, -1, -1)))
    return first


def _first_failure(name: str, params: dict, scope: Scope, check: str, failed: str,
                   lengths: tuple[int, ...], witness, needs_graph: bool = False) -> CheckReport:
    """The report of the first graph of the scope for which ``witness``,
    given its vertex count, its walk tuple at ``lengths`` and a function
    of no arguments that builds it, returns a witness, under the verdict
    ``failed``, or "holds" once every graph passes.  Unless
    ``needs_graph`` says that ``witness`` reads the graph itself, it
    decides a graph by its vertex count and walks alone: each block's
    distinct walk tuples are decided in order of first appearance, a
    tuple whose (n, walks) passed before is skipped, and a failing tuple
    stands for its first graph.  Every graph up to the failure, at the
    block's scope offset, or every graph of the scope, each block's
    weight times its size, counts as checked."""
    params = {**params, "scope": scope.describe()}
    checked = 0
    passed = set()  # (n, walks) that passed, kept unless needs_graph
    for offset, weight, n, walks, graph_at in _scan(scope, check, lengths):
        if needs_graph:
            tried = enumerate(walks)
        else:
            tried = ((i, w) for w, i in _first_indices(walks).items() if (n, w) not in passed)
        for index, w in tried:
            found = witness(n, w, partial(graph_at, index))
            if found is not None:
                return CheckReport(name, {**params, "checked": offset + index + 1}, failed,
                                   (found,))
            if not needs_graph:
                passed.add((n, w))
        checked += weight * len(walks)
    return CheckReport(name, {**params, "checked": checked}, "holds", ())


def _witness(G: Graph, lhs: Fraction, rhs: Fraction, relation: str) -> dict:
    return {
        "graph": serialize_graph(G),
        "lhs": _rat(lhs),
        "rhs": _rat(rhs),
        "relation": relation,
    }


def _check_indices(t: int, k: int) -> None:
    if not 1 <= t <= k:
        raise BadIndex(f"need 1 <= t <= k, got t={t}, k={k}")


def _margin(n: int, wk: int, wt: int, t: int, k: int) -> tuple[int, int]:
    """w_k^t - w_t^k, with w_j = W_j / n, as the integer pair
    (W_k^t * n^(k-t) - W_t^k, n^k)."""
    return wk**t * n ** (k - t) - wt**k, n**k


def _sides(n: int, wk: int, wt: int, t: int, k: int) -> tuple[Fraction, Fraction]:
    """(w_k^t, w_t^k) from the walk totals."""
    return Fraction(wk, n) ** t, Fraction(wt, n) ** k


def sweep(t: int, k: int, scope: Scope) -> CheckReport:
    """Run the walk inequality across a scope, keeping the worst-margin
    witness (the first graph with the smallest margin).

    Margins stay integer pairs (numerator, denominator) compared by
    cross-multiplication; only the reported witness is built as a graph
    and gets Fraction sides.  A margin is a function of (n, W_k, W_t), so
    each distinct triple is decided once per sweep, in order of first
    appearance: a block's walk tuples are counted together, each count,
    times the block's weight, whose triple is negative adds to the
    violations, and a triple seen before, its margin being no smaller
    than the worst so far, cannot be the witness.
    """
    _check_indices(t, k)
    checked = violated = 0
    worst = None  # (numerator, denominator, n, W_k, W_t, graph)
    negative = {}  # (n, W_k, W_t) -> whether its margin is negative
    for _, weight, n, walks, graph_at in _scan(scope, "sweep", (k, t)):
        checked += weight * len(walks)
        first = None  # the block's _first_indices, built once its witness moves
        for pair, count in Counter(walks).items():
            key = n, *pair
            below = negative.get(key)
            if below is None:
                wk, wt = pair
                num, den = _margin(n, wk, wt, t, k)
                below = negative[key] = num < 0
                if worst is None or num * worst[1] < worst[0] * den:
                    first = first or _first_indices(walks)
                    worst = (num, den, n, wk, wt, partial(graph_at, first[pair]))
            if below:
                violated += count * weight
    num, den, n, wk, wt, graph = worst
    params = {"t": t, "k": k, "scope": scope.describe(), "checked": checked,
              "violations": violated, "worst_margin": _rat(Fraction(num, den))}
    verdict = "holds" if violated == 0 else "violated"
    witnesses = (_witness(graph(), *_sides(n, wk, wt, t, k), "w_k^t >= w_t^k"),)
    return CheckReport("sweep", params, verdict, witnesses)


def find_counterexample(t: int, k: int, scope: Scope) -> CheckReport:
    """Search the odd-k/even-t regime for a violating graph; returns the
    first one found with exact margins."""
    if t % 2 != 0 or k % 2 == 0 or not t < k:
        raise BadParity(f"need t even, k odd, t < k; got t={t}, k={k}")
    _check_indices(t, k)

    def witness(n, walks, graph):
        wk, wt = walks
        if _margin(n, wk, wt, t, k)[0] < 0:
            return _witness(graph(), *_sides(n, wk, wt, t, k), "w_k^t < w_t^k")

    return _first_failure("counterexample", {"t": t, "k": k}, scope,
                          "counterexample search", "counterexample-found", (k, t), witness)


def _check_path_length(t: int) -> None:
    if t < 1:
        raise BadIndex(f"the path identity needs t >= 1, got {t}")


def path_form(t: int) -> tuple[tuple[int, int], ...]:
    """The right side of the path identity p(V) = sum(edges) - sum(inner
    vertices) as a linear form over the subsets of V(P_t), sorted by mask.
    At t = 0 the sums are empty and p(V) = 1, so the identity needs t >= 1."""
    _check_path_length(t)
    edges = [(1 << i | 1 << (i + 1), 1) for i in range(t)]
    inner = [(1 << i, -1) for i in range(1, t)]
    return tuple(sorted(edges + inner))


def prove_path_identity(t: int, form=None, multiple: int = 1) -> bool:
    """True iff ``form`` = ``multiple`` * p(V) follows from t - 1 modular
    rows of the polytope of P_t, so that it holds at every member; the
    form defaults to ``path_form(t)``.  Row j, for j = 1 ... t-1, is
    p(A | B) + p(A & B) = p(A) + p(B) with A = {0..j} and B = {j, j+1}; it
    is a row of the polytope when ``separates`` confirms that {j} cuts
    {0..j-1} from {j+1}.  The rows telescope: their sum is
    p(V) - ``path_form(t)``, so ``multiple`` times it, plus the form, less
    ``multiple`` * p(V), must leave the zero form.  A t below 1 and then
    a P_t past the vertex cap are refused before any form is built."""
    _check_path_length(t)
    F2 = path(t)
    form = path_form(t) if form is None else form
    rows = []
    for j in range(1, t):
        A, B = (1 << j + 1) - 1, 3 << j
        if not separates(F2, A, B):
            return False
        rows += [(A | B, multiple), (A & B, multiple), (A, -multiple), (B, -multiple)]
    return not _norm_terms([*form, ((1 << F2.n) - 1, -multiple), *rows])


def check_lemma_identity(t: int, p: SetFunction) -> CheckReport:
    """p(V) equals the sum over path edges minus the sum over inner
    vertices, for any member of the path polytope (t need not be odd)."""
    form = path_form(t)
    ok, violated = is_member(p, path(t))
    if not ok:
        raise NotMember(f"p violates {len(violated)} polytope constraints")
    lhs = p[p.full_mask]
    rhs = evaluate(form, p)
    verdict = "holds" if lhs == rhs else "violated"
    return CheckReport(
        "lemma-identity",
        {"t": t},
        verdict,
        ({"lhs": _rat(lhs), "rhs": _rat(rhs)},),
    )


def check_hde_definition(F1: Graph, F2: Graph, c: Fraction, scope: Scope) -> CheckReport:
    """|Hom(F1;G)| >= |Hom(F2;G)|^c over a scope, via integer powering
    with c = a/b checked as Hom(F1)^b >= Hom(F2)^a.  Both counts of a
    graph read the walk totals its scan hands it; the graph is built only
    for a component that is not a path, whose maps into it are
    enumerated, and for the witness.  A c whose powers could pass
    ``POWER_BITS`` on the scope's graphs is refused before any is taken."""
    c = Fraction(c)
    if c < 0:
        raise BadIndex(f"need c >= 0, got c={_rat(c)}")
    a, b = c.numerator, c.denominator
    # Hom(F;G) <= n^|V(F)| < 2^(|V(F)| * n.bit_length()) for G on n vertices
    if scope.max_vertices().bit_length() * max(a * F2.n, b * F1.n) > POWER_BITS:
        raise BadIndex(f"c={_rat(c)} would raise hom counts past {POWER_BITS} bits on this scope")
    plan1, plan2 = HomPlan(F1), HomPlan(F2)
    lengths = tuple(sorted(plan1.paths.keys() | plan2.paths.keys()))
    needs_graph = bool(plan1.others or plan2.others)

    def witness(n, walks, graph):
        G = graph() if needs_graph else None
        walks = dict(zip(lengths, walks))
        h1 = plan1.count(G, walks)
        h2 = plan2.count(G, walks)
        if h1**b < h2**a:
            return {
                "graph": serialize_graph(graph()),
                "hom_f1": _decimal(h1),
                "hom_f2": _decimal(h2),
                "relation": f"hom_f1^{b} < hom_f2^{a}",
            }

    return _first_failure("hde-definition", {"c": _rat(c)}, scope,
                          "definition check", "violated", lengths, witness, needs_graph)
