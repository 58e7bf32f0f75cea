"""Homomorphism domination exponents via the min-max linear program.

The exponent of (F1, F2) with F1 chordal and F2 series-parallel is the
minimum over the polytope of normalized polymatroidal functions p of the
maximum over homomorphisms phi: F1 -> F2 of an inclusion-exclusion
functional of p.  The max decomposes over connected components of F1, so
the LP gets one epigraph variable per distinct component instead of one
row per global homomorphism (whose number is a product over components
and must never be expanded).

The functional is read off a clique tree of the source component: one
positive term per clique, one negative term per separator.  The tree is
built once per distinct component and shared by all of its
homomorphisms; ``compute_hde`` and both certificates go through the one
builder ``objective_clique_tree_form``.  The equivalent subset form
(alternating sum over sets of maximal cliques with common intersection)
is kept in the test suite as the oracle this builder is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadIndex,
    BadParity,
    GroundTooLarge,
    NoHomomorphism,
    NotChordal,
    NotMember,
    NotSeriesParallel,
    RatlpError,
)
from .graphs import (
    CliqueTree,
    Graph,
    clique_tree,
    disjoint_union,
    expand_components,
    is_chordal,
    is_series_parallel,
    # unused here, but bench/spans.py traces calls through this name
    maximal_cliques,
    path,
)
from .homs import Homomorphism, enumerate_homs
from .polytope import GROUND_CAP, SetFunction, build_polytope, is_member, p_star
from . import lp as ratlp


@dataclass(frozen=True)
class ObjectiveProfile:
    """Linear functional p -> sum coeff * p(subset) induced by one
    homomorphism; the empty-set variable never appears."""

    terms: tuple[tuple[int, Fraction], ...]  # (target subset mask, coefficient)

    def evaluate(self, p: SetFunction) -> Fraction:
        return sum((c * p[mask] for mask, c in self.terms), Fraction(0))


def objective_clique_tree_form(tree: CliqueTree, phi: Homomorphism) -> ObjectiveProfile:
    """+1 per clique-tree node at the image of its clique, -1 per tree edge
    at the image of its separator; ``tree`` is ``clique_tree(phi.source)``
    (a forest for unions)."""
    acc: dict[int, int] = {}
    for cl in tree.cliques:
        img = phi.image_mask(cl)
        acc[img] = acc.get(img, 0) + 1
    for sep in tree.separators:
        img = phi.image_mask(sep)
        acc[img] = acc.get(img, 0) - 1
    return ObjectiveProfile(
        tuple((mask, Fraction(acc[mask])) for mask in sorted(acc) if acc[mask])
    )


@dataclass(frozen=True)
class HdeResult:
    """Exact domination exponent plus the certificates behind it."""

    value: Fraction
    point: SetFunction  # optimal p, a member of the polytope
    active: tuple  # per distinct component: (component, multiplicity, argmax homs)
    lp_vars: int
    lp_constraints: int
    lp_pivots: int


def compute_hde(F1: Graph, F2: Graph) -> HdeResult:
    """Exact HDE(F1; F2) for chordal F1 and series-parallel F2.

    Builds the LP with variables p(A) for nonempty proper subsets A of
    V(F2) (the empty set is fixed to 0, the full set substituted by 1) and
    one epigraph variable per distinct connected component of F1, bounded
    below by the objective of each homomorphism of that component.
    """
    ok, _ = is_chordal(F1)
    if not ok:
        raise NotChordal("HDE requires a chordal F1")
    if not is_series_parallel(F2):
        raise NotSeriesParallel("HDE requires a series-parallel F2")
    if F2.n > GROUND_CAP:
        raise GroundTooLarge(f"|V(F2)|={F2.n} exceeds cap {GROUND_CAP}")

    components = expand_components(F1)
    profiles_per_comp = []
    for comp, mult in components:
        tree = clique_tree(comp)
        by_terms: dict[tuple, list[Homomorphism]] = {}
        for hom in enumerate_homs(comp, F2):
            prof = objective_clique_tree_form(tree, hom)
            by_terms.setdefault(prof.terms, []).append(hom)
        if not by_terms:
            raise NoHomomorphism(
                f"component {comp!r} admits no homomorphism into the target"
            )
        profiles_per_comp.append(by_terms)

    n_sub = 1 << F2.n
    full = n_sub - 1
    var_of = {}
    for mask in range(1, full):
        var_of[mask] = len(var_of)
    n_p = len(var_of)
    z_of = [n_p + ci for ci in range(len(components))]
    n_vars = n_p + len(components)

    rows = []
    for con in build_polytope(F2).constraints:
        terms = []
        rhs = con.rhs
        for mask, coeff in con.terms:
            if mask == 0:
                continue  # p(empty) = 0
            if mask == full:
                rhs -= coeff  # p(V) = 1
                continue
            terms.append((var_of[mask], coeff))
        if not terms:
            satisfied = rhs == 0 if con.rel == "=" else rhs >= 0
            if not satisfied:  # pragma: no cover - the system is consistent
                raise RatlpError("polytope constraint became infeasible constant")
            continue
        rows.append((terms, con.rel, rhs))
    for ci, by_terms in enumerate(profiles_per_comp):
        for terms in by_terms:
            row = [(z_of[ci], Fraction(1))]
            rhs = Fraction(0)
            for mask, coeff in terms:
                if mask == full:
                    rhs += coeff
                else:
                    row.append((var_of[mask], -coeff))
            rows.append((row, ">=", rhs))

    objective = [(z_of[ci], Fraction(mult)) for ci, (_, mult) in enumerate(components)]
    bounds = [Fraction(0)] * n_p + [None] * len(components)
    program = ratlp.make_lp(n_vars, objective, rows, sense="min", lower_bounds=bounds)
    outcome = ratlp.solve(program)
    if outcome.status != "optimal":
        raise RatlpError(f"HDE linear program came back {outcome.status}")
    if not ratlp.verify(program, outcome):  # pragma: no cover - safety net
        raise RatlpError("HDE LP outcome failed verification")

    values = [Fraction(0)] * n_sub
    values[full] = Fraction(1)
    for mask, idx in var_of.items():
        values[mask] = outcome.point[idx]
    p_opt = SetFunction(F2.n, tuple(values))
    member, violated = is_member(p_opt, F2)
    if not member:  # pragma: no cover - safety net
        raise RatlpError(f"optimal p violates {len(violated)} polytope constraints")

    active = []
    for ci, (comp, mult) in enumerate(components):
        z_val = outcome.point[z_of[ci]]
        argmax: list[Homomorphism] = []
        for terms, homs in profiles_per_comp[ci].items():
            if ObjectiveProfile(terms).evaluate(p_opt) == z_val:
                argmax.extend(homs)
        active.append((comp, mult, tuple(argmax)))

    return HdeResult(
        value=outcome.value,
        point=p_opt,
        active=tuple(active),
        lp_vars=n_vars,
        lp_constraints=len(program.rows),
        lp_pivots=outcome.pivots,
    )


# -- the explicit certificates for HDE(P0^2 P_{t+2}^t; P_t) ---------------


def phi_i(t: int, i: int) -> Homomorphism:
    """The fold of the (t+2)-path onto the t-path that walks edge i of the
    target (1-based, as in {i, i+1}) three times and every other edge once:
    vertex j maps to j for j <= i and to j-2 afterwards (0-based)."""
    if t < 1:
        raise BadIndex("t must be at least 1")
    if not 1 <= i <= t:
        raise BadIndex(f"i must be in 1..{t}, got {i}")
    mapping = tuple(j if j <= i else j - 2 for j in range(t + 3))
    return Homomorphism(path(t + 2), path(t), mapping)


def _flagship_source(t: int) -> tuple[tuple[Graph, int], ...]:
    """The components of P0^2 P_{t+2}^t with their multiplicities."""
    if t < 1 or t % 2 == 0:
        raise BadParity(f"t must be odd and positive, got {t}")
    return ((path(0), 2), (path(t + 2), t))


def _psi_parts(t: int) -> list[Homomorphism]:
    """psi restricted to each component of P0^2 P_{t+2}^t, in the order of
    ``_flagship_source``: the two isolated vertices go to the two path
    ends, the i-th long-path copy folds via phi_i."""
    ends = [Homomorphism(path(0), path(t), (end,)) for end in (0, t)]
    return ends + [phi_i(t, i) for i in range(1, t + 1)]


def psi(t: int) -> Homomorphism:
    """The certificate map from P0^2 P_{t+2}^t onto P_t, assembled from
    its per-component parts."""
    source = _flagship_source(t)
    mapping = tuple(v for part in _psi_parts(t) for v in part.map)
    return Homomorphism(disjoint_union(source), path(t), mapping)


def certify_upper(t: int) -> Fraction:
    """Maximum objective value at the averaged indicator point, taken over
    all homomorphisms from P0^2 P_{t+2}^t via component decomposition.

    Certifies HDE <= t+2 (the returned maximum equals t+2).
    """
    source = _flagship_source(t)
    F2 = path(t)
    star = p_star(t)
    total = Fraction(0)
    for comp, mult in source:
        tree = clique_tree(comp)
        total += mult * max(
            objective_clique_tree_form(tree, hom).evaluate(star)
            for hom in enumerate_homs(comp, F2)
        )
    return total


def certify_lower(t: int, p: SetFunction) -> Fraction:
    """Objective value of the explicit map psi at an arbitrary polytope
    member p; equals (t+2) * p(V) = t+2, certifying HDE >= t+2.

    Summed one component of the source at a time, so the union itself
    (2 + t(t+3) vertices) is never built.
    """
    source = _flagship_source(t)
    ok, violated = is_member(p, path(t))
    if not ok:
        raise NotMember(f"p violates {len(violated)} polytope constraints")
    trees = {comp: clique_tree(comp) for comp, _ in source}
    return sum(
        (objective_clique_tree_form(trees[h.source], h).evaluate(p) for h in _psi_parts(t)),
        Fraction(0),
    )
