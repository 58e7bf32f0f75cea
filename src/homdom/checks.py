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
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    BadIndex,
    BadParity,
    EmptyGraph,
    EmptyScope,
    HomdomError,
    NotMember,
    ScopeTooLarge,
)
from .graphs import Graph, from_edges, path, serialize_graph, star
# count_homs is not called here; it stays a module attribute so that
# bench/spans.py can rebind it like from_edges and normalized_walks.
from .homs import (
    HomPlan,
    average_degree,
    count_homs,
    hom_density,
    normalized_walks,
    walk_counts,
)
from .polytope import SetFunction, is_member

EXHAUSTIVE_CAP = 6


def labeled_graphs(n: int):
    """All 2^C(n,2) labeled graphs on n vertices, in edge-bitmask order."""
    slots = [(u, v) for v in range(n) for u in range(v)]
    for mask in range(1 << len(slots)):
        edges = [slots[b] for b in range(len(slots)) if mask >> b & 1]
        yield from_edges(n, edges)


def random_graph(n: int, edge_prob: Fraction, rng: random.Random) -> Graph:
    """Erdos-Renyi sample with an exact rational edge probability."""
    a, b = edge_prob.numerator, edge_prob.denominator
    edges = [
        (u, v) for v in range(n) for u in range(v) if rng.randrange(b) < a
    ]
    return from_edges(n, edges)


@dataclass(frozen=True)
class Scope:
    """A reproducible collection of graphs to check."""

    kind: str
    params: dict = field(compare=False)
    _graphs: tuple = field(default=(), compare=False)

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
        return Scope(
            "random",
            {"samples": samples, "n": n, "edge_prob": Fraction(edge_prob), "seed": seed},
        )

    @staticmethod
    def stars_and_paths(n_max: int) -> "Scope":
        return Scope("stars-and-paths", {"n_max": n_max})

    @staticmethod
    def graphs(items) -> "Scope":
        items = tuple(items)
        return Scope("explicit", {"count": len(items)}, items)

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
        elif self.kind == "stars-and-paths":
            for n in range(2, self.params["n_max"] + 1):
                yield path(n - 1)
                if n >= 3:
                    yield star(n - 1)
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
    runtime: float

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "params": self.params,
            "verdict": self.verdict,
            "witnesses": list(self.witnesses),
        }


def _rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _witness(G: Graph, lhs: Fraction, rhs: Fraction, relation: str) -> dict:
    return {
        "graph": serialize_graph(G),
        "lhs": _rat(lhs),
        "rhs": _rat(rhs),
        "relation": relation,
    }


def check_blakley_roy(G: Graph, k: int) -> CheckReport:
    """w_k >= d^k with both sides exact."""
    t0 = time.perf_counter()
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
        time.perf_counter() - t0,
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
    t0 = time.perf_counter()
    lhs, rhs = _walk_sides(G, t, k)
    verdict = "holds" if lhs >= rhs else "violated"
    return CheckReport(
        "walk-inequality",
        {"t": t, "k": k, "n": G.n},
        verdict,
        (_witness(G, lhs, rhs, "w_k^t >= w_t^k"),),
        time.perf_counter() - t0,
    )


def check_density_form(G: Graph, t: int, k: int) -> CheckReport:
    """t(P_k;G)^t >= t(P_t;G)^k; must agree with the walk form."""
    t0 = time.perf_counter()
    if G.n == 0:
        raise EmptyGraph("density form needs at least one vertex")
    if not 1 <= t <= k:
        raise BadIndex(f"need 1 <= t <= k, got t={t}, k={k}")
    lhs = hom_density(path(k), G) ** t
    rhs = hom_density(path(t), G) ** k
    verdict = "holds" if lhs >= rhs else "violated"
    walk = check_walk_inequality(G, t, k)
    if walk.verdict != verdict:  # pragma: no cover - algebraically impossible
        raise HomdomError("density and walk forms disagree; arithmetic bug")
    return CheckReport(
        "density-form",
        {"t": t, "k": k, "n": G.n, "agrees_with_walk_form": True},
        verdict,
        (_witness(G, lhs, rhs, "t(P_k)^t >= t(P_t)^k"),),
        time.perf_counter() - t0,
    )


def sweep(t: int, k: int, scope: Scope) -> CheckReport:
    """Run the walk inequality across a scope, keeping the worst-margin
    witness (the first graph with the smallest margin).

    Margins stay integer pairs (numerator, denominator) compared by
    cross-multiplication; only the reported witness gets Fraction sides.
    """
    t0 = time.perf_counter()
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
    return CheckReport("sweep", params, verdict, witnesses, time.perf_counter() - t0)


def find_counterexample(t: int, k: int, scope: Scope) -> CheckReport:
    """Search the odd-k/even-t regime for a violating graph; returns the
    first one found with exact margins."""
    t0 = time.perf_counter()
    if t % 2 != 0 or k % 2 == 0 or not t < k:
        raise BadParity(f"need t even, k odd, t < k; got t={t}, k={k}")
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
                time.perf_counter() - t0,
            )
    if not checked:
        raise EmptyScope("counterexample search needs at least one graph")
    return CheckReport(
        "counterexample",
        {"t": t, "k": k, "scope": scope.describe(), "checked": checked},
        "holds",
        (),
        time.perf_counter() - t0,
    )


def chain_exponents(t: int, k: int, G: Graph | None = None) -> Fraction:
    """Telescoping product (t+2)/t * (t+4)/(t+2) * ... * k/(k-2) = k/t.

    With a graph supplied, additionally re-derives the chained inequality
    t(P_k;G)^t >= t(P_t;G)^k by exact cross-powering.
    """
    if t % 2 == 0 or k % 2 == 0 or t > k:
        raise BadParity(f"need odd t <= odd k, got t={t}, k={k}")
    product = Fraction(1)
    step = t
    while step < k:
        product *= Fraction(step + 2, step)
        step += 2
    if product != Fraction(k, t):  # pragma: no cover - telescoping identity
        raise HomdomError("telescoping product failed to collapse")
    if G is not None:
        lhs = hom_density(path(k), G) ** t
        rhs = hom_density(path(t), G) ** k
        if lhs < rhs:
            raise HomdomError(
                f"chained inequality violated on supplied graph: {lhs} < {rhs}"
            )
    return product


def check_lemma_identity(t: int, p: SetFunction) -> CheckReport:
    """p(V) equals the sum over path edges minus the sum over inner
    vertices, for any member of the path polytope (t need not be odd)."""
    t0 = time.perf_counter()
    F2 = path(t)
    ok, violated = is_member(p, F2)
    if not ok:
        raise NotMember(f"p violates {len(violated)} polytope constraints")
    rhs = Fraction(0)
    for i in range(t):
        rhs += p[(1 << i) | (1 << (i + 1))]
    for i in range(1, t):
        rhs -= p[1 << i]
    lhs = p[p.full_mask]
    verdict = "holds" if lhs == rhs else "violated"
    return CheckReport(
        "lemma-identity",
        {"t": t},
        verdict,
        ({"lhs": _rat(lhs), "rhs": _rat(rhs)},),
        time.perf_counter() - t0,
    )


def check_hde_definition(F1: Graph, F2: Graph, c: Fraction, scope: Scope) -> CheckReport:
    """|Hom(F1;G)| >= |Hom(F2;G)|^c over a scope, via integer powering
    with c = a/b checked as Hom(F1)^b >= Hom(F2)^a."""
    t0 = time.perf_counter()
    c = Fraction(c)
    a, b = c.numerator, c.denominator
    plan1, plan2 = HomPlan(F1), HomPlan(F2)
    checked = 0
    for G in scope:
        checked += 1
        h1 = plan1.count(G)
        h2 = plan2.count(G)
        if h1**b < h2**a:
            return CheckReport(
                "hde-definition",
                {"c": _rat(c), "scope": scope.describe(), "checked": checked},
                "violated",
                (
                    {
                        "graph": serialize_graph(G),
                        "hom_f1": str(h1),
                        "hom_f2": str(h2),
                        "relation": f"hom_f1^{b} < hom_f2^{a}",
                    },
                ),
                time.perf_counter() - t0,
            )
    if not checked:
        raise EmptyScope("definition check needs at least one graph")
    return CheckReport(
        "hde-definition",
        {"c": _rat(c), "scope": scope.describe(), "checked": checked},
        "holds",
        (),
        time.perf_counter() - t0,
    )
