"""Desk-scale verification harness for the walk inequalities and the
identities behind the domination-exponent computation.

Every comparison is exact: the walk inequality is decided on integer
margins, with rational sides built only for the reported witness,
fractional exponents are handled by raising both sides to the exponent's
denominator, and every verdict comes with a witness from which the
comparison can be reproduced.  Every check over a scope reads its graphs
through one scan, which raises ``EmptyScope`` for a scope with no graphs
instead of letting a check return a vacuous "holds".
"""

from __future__ import annotations

import random
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import or_

from .errors import (
    BadIndex,
    BadParity,
    EmptyGraph,
    EmptyScope,
    MalformedInput,
    NotMember,
    ScopeTooLarge,
)
from .graphs import Graph, check_vertex_count, from_edges, path, serialize_graph
# count_homs is not called here; it stays a module attribute so that
# bench/spans.py can rebind it like from_edges and normalized_walks.
from .homs import (
    HomPlan,
    average_degree,
    count_homs,
    normalized_walks,
    walk_counts,
)
from .lp import _norm_terms, evaluate
from .polytope import SetFunction, is_member, separates

EXHAUSTIVE_CAP = 6
# the most bits a power of a hom count may take in check_hde_definition:
# two powers of this size take 0.05 to 0.14 s (Python 3.11, one core)
POWER_BITS = 1 << 20
# the most samples * (n^2 + 20) a random scope may draw: a graph of n
# vertices takes about n^2 + 20 half-microseconds to draw, validate and
# sweep at t = 1, k = 3, and the largest such sweeps took 40 s at n = 1
# (4,761,904 samples) and 57 s at n = 63 (25,068 samples; Python 3.11.7)
SAMPLE_BUDGET = 10**8


# the native unsigned lane of each width, as ``memoryview.cast`` names it
_LANE_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _add_vertex(graphs: list, m: int):
    """Adjacency rows of every graph on m + 1 vertices, from the rows of
    every graph on m vertices: vertex m's neighbourhood in the outer loop,
    the graph on the first m vertices in the inner one."""
    for nbhd in range(1 << m):
        new_bit = [(nbhd >> u & 1) << m for u in range(m)]
        for rows in graphs:
            yield (*map(or_, rows, new_bit), nbhd)


def labeled_graphs(n: int):
    """All 2^C(n,2) labeled graphs on n vertices, in edge-bitmask order.

    The edge slots run (u, v) for v in range(n), u < v, so the top n - 1
    bits of a mask are vertex n - 1's neighbourhood and the low bits are a
    graph on the first n - 1 vertices.  The graphs are therefore built one
    vertex at a time: the rows of the graphs on n - 1 vertices are listed
    once, and for each neighbourhood of the new vertex its bit is ORed into
    them and the neighbourhood appended as the last row.  Each graph still
    goes through ``Graph`` validation; only the smaller level is held.
    """
    if n == 0:
        yield Graph(0, ())
        return
    for G, _ in _labeled_walks(n, ()):
        yield G


def _lane_width(n: int, k: int) -> int | None:
    """The narrowest lane of ``_LANE_CODES`` that holds n * (n - 1)^k, the
    most walks with k edges of a graph on n vertices; None past 64 bits.
    For n > 2 a k past 64 is past 64 bits, so the power is cut there."""
    most = n * (n - 1) ** min(k, 64)
    return next((width for width in _LANE_CODES if most >> width == 0), None)


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
    view = memoryview(total.to_bytes(width // 8 * count, sys.byteorder)).cast(_LANE_CODES[width])
    # a big-endian host writes the top lane first
    return (view if sys.byteorder == "little" else view[::-1]).tolist()


def _graph_walks(graphs, lengths: tuple[int, ...]):
    """(G, [W_l for l in lengths]) for each graph G, W_l its number of
    walks with l edges, from one ``walk_counts`` chain a graph."""
    for G in graphs:
        walks = walk_counts(G, lengths)
        yield G, [walks[k] for k in lengths]


def _labeled_walks(n: int, lengths: tuple[int, ...]):
    """(G, [W_l for l in lengths]) for every labeled graph G on n >= 1
    vertices, in the order of ``labeled_graphs``, W_l being its number of
    walks with l edges.

    The graphs under one neighbourhood N of vertex n - 1 form a block, one
    graph per graph g on the first n - 1 vertices, and a block's walks are
    counted together, bit-sliced (Biham, FSE 1997).  An entry of the walk
    vector v_a is one int with a lane of w bits per g, g's lane at bit
    g * w; E_ij is all ones in the lanes whose g has the edge {i, j}.  So
    v_0 = 1 and each step v_{a+1}[i] = sum_j (v_a[j] & E_ij) + [i in N] *
    v_a[n - 1], v_{a+1}[n - 1] = sum_{j in N} v_a[j], is a few whole-int
    operations, and W_a = sum_i v_a[i] is read out a lane at a time.
    w is the narrowest lane that holds n * (n - 1)^k for the longest
    length k, so no lane carries into the next.  Past 64 bits, and at
    n <= 2, where a block is one graph and the chain takes half the steps,
    each graph gets its own ``walk_counts`` chain.  At n = 6 a block has
    1,024 graphs and each of its ints w/8 KB; nothing outlives the level.
    """
    m = n - 1
    inner = [()]
    for u in range(m):
        inner = list(_add_vertex(inner, u))
    count, top = len(inner), max(lengths, default=0)
    width = _lane_width(n, top)
    if width is None or count == 1:
        yield from _graph_walks((Graph(n, rows) for rows in _add_vertex(inner, m)), lengths)
        return
    bits = width * count
    ones = _repeat(1, width, bits)
    terms = [[] for _ in range(m)]  # (j, E_ij) for each j != i
    # bit s of g is its edge slot s: 2^s lanes without it, then 2^s with it
    for s, (i, j) in enumerate((i, j) for j in range(m) for i in range(j)):
        run = width << s
        mask = _repeat(((1 << run) - 1) << run, run << 1, bits)
        terms[i].append((j, mask))
        terms[j].append((i, mask))
    wanted = set(lengths)
    for nbhd in range(1 << m):
        joined = [nbhd >> i & 1 for i in range(m)]
        neighbours = [j for j in range(m) if joined[j]]
        v = [ones] * n
        totals = {0: ones * n}
        for a in range(1, top + 1):
            step = [sum(v[j] & e for j, e in terms[i]) + v[m] * joined[i] for i in range(m)]
            step.append(sum(v[j] for j in neighbours))
            v = step
            if a in wanted:
                totals[a] = sum(v)
        new_bit = [bit << m for bit in joined]
        unpacked = {k: _lanes(totals[k], width, count) for k in wanted}
        for rows, *walks in zip(inner, *(unpacked[k] for k in lengths)):
            yield Graph(n, (*map(or_, rows, new_bit), nbhd)), walks


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
    and a function that draws its graphs afresh on every iteration,
    re-seeding a random scope, each with its walk totals at the lengths
    asked for: an exhaustive scope counts them a block of graphs at a
    time, any other one graph at a time.  Every refusal is made when it
    is built."""

    _description: dict
    _max_vertices: int
    _draw: Callable[[tuple[int, ...]], Iterator[tuple[Graph, list[int]]]]

    @staticmethod
    def exhaustive(n: int) -> "Scope":
        _check_exhaustive(n)
        _check_vertices(n)
        return Scope({"kind": "exhaustive", "n": n}, n,
                     lambda lengths: _labeled_walks(n, lengths))

    @staticmethod
    def exhaustive_upto(n_max: int) -> "Scope":
        _check_exhaustive(n_max)
        ns = range(1, n_max + 1)
        return Scope({"kind": "exhaustive-upto", "n_max": n_max}, n_max,
                     lambda lengths: chain.from_iterable(
                         _labeled_walks(n, lengths) for n in ns))

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
            return _graph_walks((random_graph(n, edge_prob, rng) for _ in range(samples)),
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
                     lambda lengths: _graph_walks(items, lengths))

    def max_vertices(self) -> int:
        """The most vertices a graph of the scope can have."""
        return self._max_vertices

    def describe(self) -> dict:
        return dict(self._description)

    def __iter__(self) -> Iterator[Graph]:
        return (G for G, _ in self._draw(()))


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
    """(index from 1, graph, its walk totals at each of ``lengths``) over
    the scope's graphs; a scope that yields none raises ``EmptyScope``
    once it is exhausted."""
    index = 0
    for index, (G, walks) in enumerate(scope._draw(lengths), 1):
        yield index, G, walks
    if not index:
        raise EmptyScope(f"{check} needs at least one graph")


def _first_failure(name: str, params: dict, scope: Scope, check: str, failed: str,
                   lengths: tuple[int, ...], witness) -> CheckReport:
    """The report of the first graph of the scope for which ``witness``,
    given the graph and its walk totals at ``lengths``, returns a witness,
    under the verdict ``failed``, or "holds" once every graph passes."""
    found = ()
    for checked, G, walks in _scan(scope, check, lengths):
        w = witness(G, walks)
        if w is not None:
            found = (w,)
            break
    params = {**params, "scope": scope.describe(), "checked": checked}
    return CheckReport(name, params, failed if found else "holds", found)


def _witness(G: Graph, lhs: Fraction, rhs: Fraction, relation: str) -> dict:
    return {
        "graph": serialize_graph(G),
        "lhs": _rat(lhs),
        "rhs": _rat(rhs),
        "relation": relation,
    }


def check_blakley_roy(G: Graph, k: int) -> CheckReport:
    """w_k >= d^k with both sides exact."""
    if G.n == 0:
        raise EmptyGraph("Blakley-Roy needs at least one vertex")
    lhs = normalized_walks(G, k)
    rhs = average_degree(G) ** k
    verdict = "holds" if lhs >= rhs else "violated"
    return CheckReport(
        "blakley-roy",
        {"k": k, "n": G.n},
        verdict,
        (_witness(G, lhs, rhs, "w_k >= d^k"),),
    )


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
    cross-multiplication; only the reported witness gets Fraction sides.
    """
    _check_indices(t, k)
    violated = 0
    worst = None  # (numerator, denominator, graph, W_k, W_t)
    for checked, G, (wk, wt) in _scan(scope, "sweep", (k, t)):
        num, den = _margin(G.n, wk, wt, t, k)
        if num < 0:
            violated += 1
        if worst is None or num * worst[1] < worst[0] * den:
            worst = (num, den, G, wk, wt)
    num, den, G, wk, wt = worst
    params = {"t": t, "k": k, "scope": scope.describe(), "checked": checked,
              "violations": violated, "worst_margin": _rat(Fraction(num, den))}
    verdict = "holds" if violated == 0 else "violated"
    witnesses = (_witness(G, *_sides(G.n, wk, wt, t, k), "w_k^t >= w_t^k"),)
    return CheckReport("sweep", params, verdict, witnesses)


def check_walk_inequality(G: Graph, t: int, k: int) -> CheckReport:
    """w_k^t >= w_t^k, no parity restriction imposed: the sweep over G
    alone, reported under its own name."""
    report = sweep(t, k, Scope.graphs([G]))
    return CheckReport(
        "walk-inequality", {"t": t, "k": k, "n": G.n}, report.verdict, report.witnesses
    )


def find_counterexample(t: int, k: int, scope: Scope) -> CheckReport:
    """Search the odd-k/even-t regime for a violating graph; returns the
    first one found with exact margins."""
    if t % 2 != 0 or k % 2 == 0 or not t < k:
        raise BadParity(f"need t even, k odd, t < k; got t={t}, k={k}")
    _check_indices(t, k)

    def witness(G, walks):
        wk, wt = walks
        if _margin(G.n, wk, wt, t, k)[0] < 0:
            return _witness(G, *_sides(G.n, wk, wt, t, k), "w_k^t < w_t^k")

    return _first_failure("counterexample", {"t": t, "k": k}, scope,
                          "counterexample search", "counterexample-found", (k, t), witness)


def path_form(t: int) -> tuple[tuple[int, int], ...]:
    """The right side of the path identity p(V) = sum(edges) - sum(inner
    vertices) as a linear form over the subsets of V(P_t), sorted by mask.
    At t = 0 the sums are empty and p(V) = 1, so the identity needs t >= 1."""
    if t < 1:
        raise BadIndex(f"the path identity needs t >= 1, got {t}")
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
    ``multiple`` * p(V), must leave the zero form."""
    form = path_form(t) if form is None else form
    F2 = path(t)
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
    graph read the walk totals its scan hands it.  A c whose powers could pass
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

    def witness(G, walks):
        walks = dict(zip(lengths, walks))
        h1 = plan1.count(G, walks)
        h2 = plan2.count(G, walks)
        if h1**b < h2**a:
            return {
                "graph": serialize_graph(G),
                "hom_f1": _decimal(h1),
                "hom_f2": _decimal(h2),
                "relation": f"hom_f1^{b} < hom_f2^{a}",
            }

    return _first_failure("hde-definition", {"c": _rat(c)}, scope,
                          "definition check", "violated", lengths, witness)
