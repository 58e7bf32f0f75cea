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
    graphs = [()]
    for m in range(n - 1):
        graphs = list(_add_vertex(graphs, m))
    for rows in _add_vertex(graphs, n - 1):
        yield Graph(n, rows)


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
    re-seeding a random scope.  Every refusal is made when it is built."""

    _description: dict
    _max_vertices: int
    _draw: Callable[[], Iterator[Graph]]

    @staticmethod
    def exhaustive(n: int) -> "Scope":
        _check_exhaustive(n)
        _check_vertices(n)
        return Scope({"kind": "exhaustive", "n": n}, n, lambda: labeled_graphs(n))

    @staticmethod
    def exhaustive_upto(n_max: int) -> "Scope":
        _check_exhaustive(n_max)
        ns = range(1, n_max + 1)
        return Scope({"kind": "exhaustive-upto", "n_max": n_max}, n_max,
                     lambda: chain.from_iterable(map(labeled_graphs, ns)))

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

        def draw():
            rng = random.Random(seed)
            return (random_graph(n, edge_prob, rng) for _ in range(samples))

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
        return Scope({"kind": "explicit", "count": len(items)}, n_max, items.__iter__)

    def max_vertices(self) -> int:
        """The most vertices a graph of the scope can have."""
        return self._max_vertices

    def describe(self) -> dict:
        return dict(self._description)

    def __iter__(self) -> Iterator[Graph]:
        return self._draw()


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


def _scan(scope: Scope, check: str):
    """(index from 1, graph) over the scope's graphs; a scope that yields
    none raises ``EmptyScope`` once it is exhausted."""
    index = 0
    for index, G in enumerate(scope, 1):
        yield index, G
    if not index:
        raise EmptyScope(f"{check} needs at least one graph")


def _first_failure(name: str, params: dict, scope: Scope, check: str, failed: str,
                   witness) -> CheckReport:
    """The report of the first graph of the scope for which ``witness``
    returns a witness, under the verdict ``failed``, or "holds" once every
    graph passes."""
    found = ()
    for checked, G in _scan(scope, check):
        w = witness(G)
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


def _walk_totals(G: Graph, t: int, k: int) -> tuple[int, int]:
    """(W_k, W_t): the numbers of walks with k and with t edges in G, both
    from one walk-count chain."""
    walks = walk_counts(G, (t, k))
    return walks[k], walks[t]


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
    for checked, G in _scan(scope, "sweep"):
        wk, wt = _walk_totals(G, t, k)
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

    def witness(G):
        wk, wt = _walk_totals(G, t, k)
        if _margin(G.n, wk, wt, t, k)[0] < 0:
            return _witness(G, *_sides(G.n, wk, wt, t, k), "w_k^t < w_t^k")

    return _first_failure("counterexample", {"t": t, "k": k}, scope,
                          "counterexample search", "counterexample-found", witness)


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
    graph read one walk-count chain.  A c whose powers could pass
    ``POWER_BITS`` on the scope's graphs is refused before any is taken."""
    c = Fraction(c)
    if c < 0:
        raise BadIndex(f"need c >= 0, got c={_rat(c)}")
    a, b = c.numerator, c.denominator
    # Hom(F;G) <= n^|V(F)| < 2^(|V(F)| * n.bit_length()) for G on n vertices
    if scope.max_vertices().bit_length() * max(a * F2.n, b * F1.n) > POWER_BITS:
        raise BadIndex(f"c={_rat(c)} would raise hom counts past {POWER_BITS} bits on this scope")
    plan1, plan2 = HomPlan(F1), HomPlan(F2)
    lengths = plan1.paths.keys() | plan2.paths.keys()

    def witness(G):
        walks = walk_counts(G, lengths)
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
                          "definition check", "violated", witness)
