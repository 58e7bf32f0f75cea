"""Desk-scale verification harness for the walk inequalities and the
identities behind the domination-exponent computation.

Every comparison is exact: rationals are compared by integer
cross-multiplication (inside Fraction, or on the integer margins of a
sweep), fractional exponents are handled by raising both sides to the
exponent's denominator, and every verdict comes with a witness from which
the comparison can be reproduced.  A check over a scope with no graphs
raises ``EmptyScope`` instead of returning a vacuous "holds".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True, eq=False)
class Scope:
    """A reproducible collection of graphs to check, equal only to itself."""

    kind: str
    params: dict
    _graphs: tuple = ()

    @staticmethod
    def exhaustive(n: int) -> "Scope":
        if n > EXHAUSTIVE_CAP:
            raise ScopeTooLarge(f"exhaustive scope capped at n={EXHAUSTIVE_CAP}")
        return Scope("exhaustive", {"n": n})

    @staticmethod
    def exhaustive_upto(n_max: int) -> "Scope":
        if n_max > EXHAUSTIVE_CAP:
            raise ScopeTooLarge(f"exhaustive scope capped at n={EXHAUSTIVE_CAP}")
        return Scope("exhaustive-upto", {"n_max": n_max})

    @staticmethod
    def random(samples: int, n: int, edge_prob, seed: int) -> "Scope":
        edge_prob = Fraction(edge_prob)
        if not 0 <= edge_prob <= 1:
            raise MalformedInput(f"edge probability must be in [0, 1], got {_rat(edge_prob)}")
        check_vertex_count(n)
        return Scope(
            "random", {"samples": samples, "n": n, "edge_prob": edge_prob, "seed": seed}
        )

    @staticmethod
    def graphs(items) -> "Scope":
        items = tuple(items)
        return Scope("explicit", {"count": len(items)}, items)

    def max_vertices(self) -> int:
        """The most vertices a graph of the scope can have."""
        if self.kind == "explicit":
            return max((G.n for G in self._graphs), default=0)
        return self.params["n_max" if self.kind == "exhaustive-upto" else "n"]

    def describe(self) -> dict:
        out = {"kind": self.kind}
        for k, v in self.params.items():
            out[k] = str(v) if isinstance(v, Fraction) else v
        return out

    def __iter__(self):
        if self.kind == "exhaustive":
            yield from labeled_graphs(self.params["n"])
        elif self.kind == "exhaustive-upto":
            for n in range(1, self.params["n_max"] + 1):
                yield from labeled_graphs(n)
        elif self.kind == "random":
            rng = random.Random(self.params["seed"])
            for _ in range(self.params["samples"]):
                yield random_graph(self.params["n"], self.params["edge_prob"], rng)
        else:
            yield from self._graphs


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
    if G.n == 0:
        raise EmptyGraph("walk inequality needs at least one vertex")
    walks = walk_counts(G, (t, k))
    return walks[k], walks[t]


def _margin(n: int, wk: int, wt: int, t: int, k: int) -> tuple[int, int]:
    """w_k^t - w_t^k, with w_j = W_j / n, as the integer pair
    (W_k^t * n^(k-t) - W_t^k, n^k)."""
    return wk**t * n ** (k - t) - wt**k, n**k


def _sides(n: int, wk: int, wt: int, t: int, k: int) -> tuple[Fraction, Fraction]:
    """(w_k^t, w_t^k) from the walk totals."""
    return Fraction(wk, n) ** t, Fraction(wt, n) ** k


def _walk_sides(G: Graph, t: int, k: int) -> tuple[Fraction, Fraction]:
    """(w_k^t, w_t^k) for the walk inequality."""
    _check_indices(t, k)
    return _sides(G.n, *_walk_totals(G, t, k), t, k)


def check_walk_inequality(G: Graph, t: int, k: int) -> CheckReport:
    """w_k^t >= w_t^k, no parity restriction imposed."""
    lhs, rhs = _walk_sides(G, t, k)
    verdict = "holds" if lhs >= rhs else "violated"
    return CheckReport(
        "walk-inequality",
        {"t": t, "k": k, "n": G.n},
        verdict,
        (_witness(G, lhs, rhs, "w_k^t >= w_t^k"),),
    )


def sweep(t: int, k: int, scope: Scope) -> CheckReport:
    """Run the walk inequality across a scope, keeping the worst-margin
    witness (the first graph with the smallest margin).

    Margins stay integer pairs (numerator, denominator) compared by
    cross-multiplication; only the reported witness gets Fraction sides.
    """
    _check_indices(t, k)
    checked = 0
    violated = 0
    worst = None  # (numerator, denominator, graph, W_k, W_t)
    for G in scope:
        wk, wt = _walk_totals(G, t, k)
        num, den = _margin(G.n, wk, wt, t, k)
        checked += 1
        if num < 0:
            violated += 1
        if worst is None or num * worst[1] < worst[0] * den:
            worst = (num, den, G, wk, wt)
    if worst is None:
        raise EmptyScope("sweep needs at least one graph")
    num, den, G, wk, wt = worst
    params = {"t": t, "k": k, "scope": scope.describe(), "checked": checked,
              "violations": violated, "worst_margin": _rat(Fraction(num, den))}
    verdict = "holds" if violated == 0 else "violated"
    witnesses = (_witness(G, *_sides(G.n, wk, wt, t, k), "w_k^t >= w_t^k"),)
    return CheckReport("sweep", params, verdict, witnesses)


def find_counterexample(t: int, k: int, scope: Scope) -> CheckReport:
    """Search the odd-k/even-t regime for a violating graph; returns the
    first one found with exact margins."""
    if t % 2 != 0 or k % 2 == 0 or not t < k:
        raise BadParity(f"need t even, k odd, t < k; got t={t}, k={k}")
    _check_indices(t, k)
    checked = 0
    for G in scope:
        checked += 1
        wk, wt = _walk_totals(G, t, k)
        if _margin(G.n, wk, wt, t, k)[0] < 0:
            return CheckReport(
                "counterexample",
                {"t": t, "k": k, "scope": scope.describe(), "checked": checked},
                "counterexample-found",
                (_witness(G, *_sides(G.n, wk, wt, t, k), "w_k^t < w_t^k"),),
            )
    if not checked:
        raise EmptyScope("counterexample search needs at least one graph")
    return CheckReport(
        "counterexample",
        {"t": t, "k": k, "scope": scope.describe(), "checked": checked},
        "holds",
        (),
    )


def chain_exponents(t: int, k: int) -> Fraction:
    """Telescoping product (t+2)/t * (t+4)/(t+2) * ... * k/(k-2) = k/t."""
    if t % 2 == 0 or k % 2 == 0 or t > k:
        raise BadParity(f"need odd t <= odd k, got t={t}, k={k}")
    _check_indices(t, k)
    return Fraction(k, t)


def path_form(t: int) -> tuple[tuple[int, int], ...]:
    """The right side of the path identity p(V) = sum(edges) - sum(inner
    vertices) as a linear form over the subsets of V(P_t), sorted by mask.
    At t = 0 the sums are empty and p(V) = 1, so the identity needs t >= 1."""
    if t < 1:
        raise BadIndex(f"the path identity needs t >= 1, got {t}")
    edges = [(1 << i | 1 << (i + 1), 1) for i in range(t)]
    inner = [(1 << i, -1) for i in range(1, t)]
    return tuple(sorted(edges + inner))


def prove_path_identity(t: int) -> bool:
    """True iff p(V) = ``path_form(t)`` follows from t - 1 modular rows of
    the polytope of P_t, so that it holds at every member.  Row j, for
    j = 1 ... t-1, is p(A | B) + p(A & B) = p(A) + p(B) with A = {0..j} and
    B = {j, j+1}; it is a row of the polytope when ``separates`` confirms
    that {j} cuts {0..j-1} from {j+1}.  The rows telescope: their sum is
    p(V) - ``path_form(t)``, so that difference plus the form must leave
    the zero form."""
    form = path_form(t)
    F2 = path(t)
    rows = []
    for j in range(1, t):
        A, B = (1 << j + 1) - 1, 3 << j
        if not separates(F2, A, B):
            return False
        rows += [(A | B, 1), (A & B, 1), (A, -1), (B, -1)]
    return not _norm_terms([*form, ((1 << F2.n) - 1, -1), *rows])


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
    checked = 0
    for G in scope:
        checked += 1
        walks = walk_counts(G, lengths)
        h1 = plan1.count(G, walks)
        h2 = plan2.count(G, walks)
        if h1**b < h2**a:
            return CheckReport(
                "hde-definition",
                {"c": _rat(c), "scope": scope.describe(), "checked": checked},
                "violated",
                (
                    {
                        "graph": serialize_graph(G),
                        "hom_f1": _decimal(h1),
                        "hom_f2": _decimal(h2),
                        "relation": f"hom_f1^{b} < hom_f2^{a}",
                    },
                ),
            )
    if not checked:
        raise EmptyScope("definition check needs at least one graph")
    return CheckReport(
        "hde-definition",
        {"c": _rat(c), "scope": scope.describe(), "checked": checked},
        "holds",
        (),
    )
