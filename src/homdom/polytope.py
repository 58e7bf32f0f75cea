"""The polytope of normalized polymatroidal set functions over a graph.

Subsets of the ground set V(F2) are bitmasks; the set-function value
vector is indexed by mask.  The polytope holds the p with p(empty) = 0,
p(V) = 1, p monotone, p submodular, and p modular on every pair (A, B)
whose intersection separates A\\B from B\\A in F2 (every path of F2 from
one difference to the other passes through A & B).

It is written in Shannon's elemental basis (Yeung, IEEE Trans. IT 1997):
p(V-i) <= p(V) for each vertex i, and p(C) + p(C+i+j) <= p(C+i) + p(C+j)
for each pair i < j and each set C of the other vertices, an equality
exactly when C separates i from j.  That is 2 + n + C(n,2) 2^(n-2) rows.
Every other monotone, submodular or modular row is a sum of these (chain
rule), and when A & B separates A\\B from B\\A, each C between A & B and
A | B that the sum uses separates its own i from its j; the test suite
checks the result against the system written from the definition.

So p >= 0 needs no row of its own: it follows from p(empty) = 0 and the
monotone rows that the elemental ones imply.  The rows bound the polytope
(0 <= p <= p(V) = 1), so an LP over them needs no variable bounds, and
its basic optima are vertices of the polytope itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import BadVertex, EmptyGraph, GroundMismatch, GroundTooLarge, MalformedInput, RatlpError
from .graphs import Graph, subset_label, _bits
from . import lp as ratlp
from .lp import Row

GROUND_CAP = 14  # the largest n whose build and vertex LP each stay under 60 s and 1 GB


@dataclass(frozen=True)
class SetFunction:
    """Map from subsets of the ground set (bitmask-indexed) to rationals.
    Every value is an int or a ``Fraction``, so that membership is decided
    exactly."""

    ground_size: int
    values: tuple[int | Fraction, ...]

    def __post_init__(self):
        if len(self.values) != 1 << self.ground_size:
            raise GroundMismatch(
                f"need {1 << self.ground_size} values, got {len(self.values)}"
            )
        for mask, v in enumerate(self.values):
            if not isinstance(v, (int, Fraction)):
                raise MalformedInput(
                    f"value at mask {mask} is a {type(v).__name__}, not an int or a Fraction"
                )

    def __getitem__(self, mask: int) -> int | Fraction:
        return self.values[mask]

    @property
    def full_mask(self) -> int:
        return (1 << self.ground_size) - 1


@dataclass(frozen=True)
class ConstraintSystem:
    """All constraints of the polytope for one ground set, as LP rows tagged
    normalization, monotone, submodular or modular-separation; one LP
    variable per subset bitmask."""

    ground_size: int
    constraints: tuple[Row, ...]

    @property
    def n_vars(self) -> int:
        return 1 << self.ground_size


def separates(F2: Graph, A: int, B: int) -> bool:
    """True iff A & B separates A\\B from B\\A in F2: no path of F2 that
    avoids A & B joins the two differences (vacuously true when either
    difference is empty).  For disjoint A and B this asks that no path
    join them at all."""
    cut = A & B
    right = B & ~A
    reached = frontier = A & ~B
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= F2.adj[v]
        if nxt & right:
            return False
        frontier = nxt & ~cut & ~reached
        reached |= frontier
    return True


def check_ground(F2: Graph) -> None:
    """Refuses a ground set past ``GROUND_CAP`` or of no vertices."""
    if F2.n > GROUND_CAP:
        raise GroundTooLarge(f"ground set of {F2.n} vertices exceeds cap {GROUND_CAP}")
    if F2.n == 0:  # p(empty) = 0 and p(V) = 1 would contradict each other
        raise EmptyGraph("the polytope needs at least one vertex")


@lru_cache(maxsize=None)
def build_polytope(F2: Graph) -> ConstraintSystem:
    """Constraint system of the polytope in the elemental basis, in
    deterministic order: normalization, p(V-i) <= p(V) per vertex i, then
    one row per pair i < j and set C of the other vertices."""
    check_ground(F2)
    full = (1 << F2.n) - 1
    cons = [
        Row(((0, 1),), "=", 0, "normalization"),
        Row(((full, 1),), "=", 1, "normalization"),
    ]
    for i in range(F2.n):
        cons.append(Row(((full & ~(1 << i), 1), (full, -1)), "<=", 0, "monotone"))
    for i, j in combinations(range(F2.n), 2):
        rest = full & ~(1 << i) & ~(1 << j)
        for C in range(rest + 1):
            if C & ~rest:
                continue
            A, B = C | 1 << i, C | 1 << j
            terms = ((C, 1), (A | B, 1), (A, -1), (B, -1))
            if separates(F2, A, B):
                cons.append(Row(terms, "=", 0, "modular-separation"))
            else:
                cons.append(Row(terms, "<=", 0, "submodular"))
    return ConstraintSystem(F2.n, tuple(cons))


def is_member(p: SetFunction, F2: Graph):
    """Exact membership check; returns (ok, violated constraints), the
    violated rows in the system's order.  The rows are checked by
    ``lp.violated_rows``: in integers, over the common denominator of p."""
    if p.ground_size != F2.n:
        raise GroundMismatch(
            f"set function on {p.ground_size} vertices, graph has {F2.n}"
        )
    violated = ratlp.violated_rows(build_polytope(F2).constraints, p.values)
    return not violated, violated


def indicator_point(F2: Graph, i: int) -> SetFunction:
    """The 0/1 function that is 1 exactly on subsets containing vertex i."""
    if not 0 <= i < F2.n:
        raise BadVertex(f"vertex {i} not in a graph on {F2.n} vertices")
    return SetFunction(F2.n, tuple(mask >> i & 1 for mask in range(1 << F2.n)))


def p_star(t: int) -> SetFunction:
    """Average of the t+1 indicator points on the path with t edges:
    every subset S gets |S|/(t+1)."""
    if t < 1:
        raise BadVertex("p* needs t >= 1")
    values = tuple(
        Fraction(mask.bit_count(), t + 1) for mask in range(1 << (t + 1))
    )
    return SetFunction(t + 1, values)


def _random_objective(n_vars: int, seed: int):
    rng = random.Random(seed)
    return [
        (j, Fraction(rng.randint(-(1 << 20), 1 << 20), rng.randint(1, 16)))
        for j in range(n_vars)
    ]


def vertex_by_lp(system: ConstraintSystem, seed: int) -> SetFunction:
    """Minimize a seeded pseudo-random rational objective over the system,
    one free LP variable per subset, with the system's rows as they are."""
    objective = _random_objective(system.n_vars, seed)
    outcome = ratlp.solve(ratlp.make_lp(system.n_vars, objective, system.constraints))
    if outcome.status != "optimal":
        raise RatlpError(f"polytope LP came back {outcome.status}")
    return SetFunction(system.ground_size, outcome.point)


# Bounded so that a long-lived caller does not keep every vertex it sampled.
# 1024 entries keep every reuse in the test suite (acceptance draws 100 seeds
# on each of P_1 ... P_6 and the polytope tests revisit the first 500): with
# an unbounded cache the suite solves no fewer vertex LPs.
VERTEX_CACHE_SIZE = 1024


@lru_cache(maxsize=VERTEX_CACHE_SIZE)
def random_vertex_point(F2: Graph, seed: int) -> SetFunction:
    """An exact vertex of the polytope, deterministic per seed."""
    p = vertex_by_lp(build_polytope(F2), seed)
    ok, violated = is_member(p, F2)
    if not ok:  # pragma: no cover - would indicate an LP bug
        raise RatlpError(f"LP vertex violates {len(violated)} constraints")
    return p


def dump_polytope(system: ConstraintSystem) -> str:
    """One constraint per line: ``tag: sum coeff*p[subset] REL rhs``."""
    lines = []
    for c in system.constraints:
        parts = []
        for mask, coeff in c.terms:
            if parts:
                parts.append("+" if coeff >= 0 else "-")
                coeff = abs(coeff)
            parts.append(f"{coeff.numerator}/{coeff.denominator}*p[{subset_label(mask)}]")
        lhs = " ".join(parts) if parts else "0/1"
        lines.append(f"{c.tag}: {lhs} {c.rel} {c.rhs.numerator}/{c.rhs.denominator}")
    return "\n".join(lines) + "\n"
