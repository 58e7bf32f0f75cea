"""The polytope of normalized polymatroidal set functions over a graph.

Subsets of the ground set V(F2) are bitmasks; the set-function value
vector is indexed by mask.  Constraints: zero at the empty set, one at
the full set, monotone, submodular, and modular (equality) on every
incomparable pair (A, B) whose intersection separates A\\B from B\\A in
the graph sense: every path of F2 from one difference to the other passes
through A & B.  Monotonicity is emitted for covering pairs only and the
submodular inequality is dropped where the modular equality subsumes it;
the pruned system defines the same feasible set (tested against the
unpruned one).

Vertex LPs run over the free coordinates of the equality rows: solving
those rows once per system writes every other subset value as an affine
function of the free ones, so the simplex pivots a far smaller program
(P6: 27 columns instead of 128) with the same feasible set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import BadVertex, GroundMismatch, GroundTooLarge, RatlpError
from .graphs import Graph, subset_label, _bits
from . import lp as ratlp

GROUND_CAP = 20


@dataclass(frozen=True)
class SetFunction:
    """Map from subsets of the ground set (bitmask-indexed) to rationals."""

    ground_size: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != 1 << self.ground_size:
            raise GroundMismatch(
                f"need {1 << self.ground_size} values, got {len(self.values)}"
            )

    def __getitem__(self, mask: int) -> Fraction:
        return self.values[mask]

    @property
    def full_mask(self) -> int:
        return (1 << self.ground_size) - 1


@dataclass(frozen=True)
class Constraint:
    """Sparse rational row over subset variables, tagged by provenance."""

    tag: str  # normalization | monotone | submodular | modular-separation
    terms: tuple[tuple[int, Fraction], ...]  # (subset mask, coefficient)
    rel: str  # "<=" or "="
    rhs: Fraction

    def evaluate(self, p: SetFunction) -> Fraction:
        return sum((c * p[mask] for mask, c in self.terms), Fraction(0))

    def satisfied_by(self, p: SetFunction) -> bool:
        lhs = self.evaluate(p)
        return lhs == self.rhs if self.rel == "=" else lhs <= self.rhs


@dataclass(frozen=True)
class ConstraintSystem:
    """All constraints of the polytope for one ground set; one LP variable
    per subset bitmask."""

    ground_size: int
    constraints: tuple[Constraint, ...]

    @property
    def n_vars(self) -> int:
        return 1 << self.ground_size

    @cached_property
    def hull(self) -> Hull:
        """The equality rows solved once; cached with the system."""
        return _hull(self)


@dataclass(frozen=True)
class Hull:
    """Free coordinates of a system's equality rows.

    ``pivots`` maps each solved subset mask to ``(coeffs, const)`` with
    p[mask] = const + sum(c * p[f] for f, c in coeffs.items()) over free
    masks only.  ``rows`` are the system's inequalities plus p[mask] >= 0
    for every solved mask, rewritten over LP variable k = ``free[k]``; with
    lower bound 0 on those variables they define the same feasible set as
    the whole system with every value nonnegative.
    """

    free: tuple[int, ...]
    pivots: dict
    rows: tuple[ratlp.Row, ...]

    def lift(self, z) -> tuple[Fraction, ...]:
        """Subset values from values of the free coordinates."""
        values = {mask: z[k] for k, mask in enumerate(self.free)}
        for mask, (coeffs, const) in self.pivots.items():
            values[mask] = const + sum(
                (c * values[f] for f, c in coeffs.items()), Fraction(0)
            )
        return tuple(values[mask] for mask in range(len(values)))


def _substitute(pivots, terms):
    """``sum(c * p[mask])`` over solved and free masks, as (coeffs over free
    masks, constant)."""
    coeffs: dict[int, Fraction] = {}
    const = Fraction(0)
    for mask, c in terms:
        if mask in pivots:
            sub, k = pivots[mask]
            const += c * k
            for f, w in sub.items():
                coeffs[f] = coeffs.get(f, 0) + c * w
        else:
            coeffs[mask] = coeffs.get(mask, 0) + c
    return {f: w for f, w in coeffs.items() if w}, const


def _hull(system: ConstraintSystem) -> Hull:
    """Gauss-Jordan over the equality rows in system order, solving each
    for its smallest remaining mask (which keeps P6's expressions to at
    most four terms)."""
    pivots: dict[int, tuple[dict[int, Fraction], Fraction]] = {}
    for c in system.constraints:
        if c.rel != "=":
            continue
        coeffs, const = _substitute(pivots, c.terms)
        rhs = c.rhs - const
        if not coeffs:
            if rhs:
                raise RatlpError("polytope equality rows are inconsistent")
            continue
        mask = min(coeffs)
        inv = 1 / coeffs.pop(mask)
        sub = {f: -w * inv for f, w in coeffs.items()}
        k = rhs * inv
        for other, (osub, ok) in pivots.items():
            w = osub.pop(mask, None)
            if w:
                for f, v in sub.items():
                    osub[f] = osub.get(f, 0) + w * v
                    if not osub[f]:
                        del osub[f]
                pivots[other] = (osub, ok + w * k)
        pivots[mask] = (sub, k)
    free = tuple(m for m in range(system.n_vars) if m not in pivots)
    index = {mask: k for k, mask in enumerate(free)}
    rows = []
    shared: dict = {}  # one object per distinct term and rhs: P6 has 5,475 rows
    bounds = [(c.terms, c.rel, c.rhs) for c in system.constraints if c.rel != "="]
    bounds += [(((m, Fraction(1)),), ">=", Fraction(0)) for m in pivots]
    for terms, rel, rhs in bounds:
        coeffs, const = _substitute(pivots, terms)
        if not coeffs:
            if not (const <= rhs if rel == "<=" else const >= rhs):
                raise RatlpError("polytope LP came back infeasible")
            continue
        terms = sorted((index[f], w) for f, w in coeffs.items())
        rows.append(
            ratlp.Row(
                tuple(shared.setdefault(term, term) for term in terms),
                rel,
                shared.setdefault(rhs - const, rhs - const),
            )
        )
    return Hull(free, pivots, tuple(rows))


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


def _pair_constraints(F2: Graph):
    """Submodular / modular constraints over incomparable pairs, in
    deterministic (A, B) order."""
    n_sub = 1 << F2.n
    out = []
    one, minus, zero = Fraction(1), Fraction(-1), Fraction(0)
    for A in range(1, n_sub):
        for B in range(A + 1, n_sub):
            if not (A & ~B) or not (B & ~A):
                continue  # comparable: the condition degenerates
            terms = ((A & B, one), (A | B, one), (A, minus), (B, minus))
            if separates(F2, A, B):
                out.append(Constraint("modular-separation", terms, "=", zero))
            else:
                out.append(Constraint("submodular", terms, "<=", zero))
    return out


def _monotone_constraints(F2: Graph, covering_only: bool):
    n_sub = 1 << F2.n
    one = Fraction(1)
    out = []
    for A in range(n_sub):
        if covering_only:
            free = (n_sub - 1) & ~A
            for v in _bits(free):
                B = A | (1 << v)
                out.append(
                    Constraint("monotone", ((A, one), (B, -one)), "<=", Fraction(0))
                )
        else:
            # all strict supersets of A
            for B in range(A + 1, n_sub):
                if A & ~B:
                    continue
                out.append(
                    Constraint("monotone", ((A, one), (B, -one)), "<=", Fraction(0))
                )
    return out


def _assemble(F2: Graph, covering_only: bool) -> ConstraintSystem:
    if F2.n > GROUND_CAP:
        raise GroundTooLarge(f"ground set of {F2.n} vertices exceeds cap {GROUND_CAP}")
    full = (1 << F2.n) - 1
    cons = [
        Constraint("normalization", ((0, Fraction(1)),), "=", Fraction(0)),
        Constraint("normalization", ((full, Fraction(1)),), "=", Fraction(1)),
    ]
    cons.extend(_monotone_constraints(F2, covering_only))
    cons.extend(_pair_constraints(F2))
    seen = set()
    dedup = []
    for c in cons:
        key = (c.terms, c.rel, c.rhs)
        if key not in seen:
            seen.add(key)
            dedup.append(c)
    return ConstraintSystem(F2.n, tuple(dedup))


@lru_cache(maxsize=None)
def build_polytope(F2: Graph) -> ConstraintSystem:
    """Constraint system of the polytope, deduplicated, deterministic order."""
    return _assemble(F2, covering_only=True)


def build_polytope_unpruned(F2: Graph) -> ConstraintSystem:
    """Reference system with monotonicity over every pair A subset-of B
    (defines the same feasible set; kept as a pruning-soundness oracle)."""
    return _assemble(F2, covering_only=False)


def is_member(p: SetFunction, F2: Graph):
    """Exact membership check; returns (ok, violated constraints)."""
    if p.ground_size != F2.n:
        raise GroundMismatch(
            f"set function on {p.ground_size} vertices, graph has {F2.n}"
        )
    violated = tuple(c for c in build_polytope(F2).constraints if not c.satisfied_by(p))
    return not violated, violated


def indicator_point(F2: Graph, i: int) -> SetFunction:
    """The 0/1 function that is 1 exactly on subsets containing vertex i."""
    if not 0 <= i < F2.n:
        raise BadVertex(f"vertex {i} not in a graph on {F2.n} vertices")
    values = tuple(
        Fraction(1) if mask >> i & 1 else Fraction(0) for mask in range(1 << F2.n)
    )
    return SetFunction(F2.n, values)


def p_star(t: int) -> SetFunction:
    """Average of the t+1 indicator points on the path with t edges:
    every subset S gets |S|/(t+1)."""
    if t < 1:
        raise BadVertex("p* needs t >= 1")
    values = tuple(
        Fraction(mask.bit_count(), t + 1) for mask in range(1 << (t + 1))
    )
    return SetFunction(t + 1, values)


def system_lp(system: ConstraintSystem, objective) -> ratlp.LinearProgram:
    """LP over the full subset-variable space with the given objective.

    All variables get lower bound 0, which the system already implies, so
    basic feasible solutions are vertices of the polytope itself.
    """
    rows = [(c.terms, c.rel, c.rhs) for c in system.constraints]
    return ratlp.make_lp(
        system.n_vars,
        objective,
        rows,
        sense="min",
        lower_bounds=[Fraction(0)] * system.n_vars,
    )


def _random_objective(n_vars: int, seed: int):
    rng = random.Random(seed)
    return [
        (j, Fraction(rng.randint(-(1 << 20), 1 << 20), rng.randint(1, 16)))
        for j in range(n_vars)
    ]


def vertex_by_lp(system: ConstraintSystem, seed: int) -> SetFunction:
    """Minimize a seeded pseudo-random rational objective over the system,
    pivoting over the free coordinates of its equality rows."""
    hull = system.hull
    coeffs, _ = _substitute(hull.pivots, _random_objective(system.n_vars, seed))
    index = {mask: k for k, mask in enumerate(hull.free)}
    program = ratlp.make_lp(
        len(hull.free),
        [(index[f], w) for f, w in coeffs.items()],
        hull.rows,
        sense="min",
        lower_bounds=[Fraction(0)] * len(hull.free),
    )
    outcome = ratlp.solve(program)
    if outcome.status != "optimal":
        raise RatlpError(f"polytope LP came back {outcome.status}")
    return SetFunction(system.ground_size, hull.lift(outcome.point))


@lru_cache(maxsize=None)
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
            piece = f"{coeff.numerator}/{coeff.denominator}*p[{subset_label(mask)}]"
            if parts:
                parts.append("+" if coeff >= 0 else "-")
                piece = f"{abs(coeff).numerator}/{abs(coeff).denominator}*p[{subset_label(mask)}]"
            parts.append(piece)
        lhs = " ".join(parts) if parts else "0/1"
        lines.append(f"{c.tag}: {lhs} {c.rel} {c.rhs.numerator}/{c.rhs.denominator}")
    return "\n".join(lines) + "\n"
