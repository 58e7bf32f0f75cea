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

The maximum of that functional at one fixed p needs no enumeration:
``max_objective`` runs the max-plus form of the tree-decomposition DP of
Diaz, Serna and Thilikos (Counting H-colorings of partial k-trees, TCS
2002) in one pass over the clique forest, children before parents.  A
clique's state is a map of its vertices onto a clique of the target; a
child passes up its best value for each image of the separator it
shares with its parent.  The cost is one table entry per (clique,
state) pair: at most 2|E(F2)| states for an edge clique, so
O(|V(F1)| |E(F2)|) for a path source, against the number of
homomorphisms (58,450 of P13 into P11).  The upper certificate is this
maximum at p*; ``compute_hde`` re-checks its optimum with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadIndex,
    BadParity,
    NoHomomorphism,
    NotMember,
    NotSeriesParallel,
    RatlpError,
)
from .graphs import (
    CliqueTree,
    Graph,
    bits_of,
    clique_tree,
    disjoint_union,
    expand_components,
    is_series_parallel,
    # unused here, but bench/spans.py traces calls through these names
    is_chordal,
    maximal_cliques,
    path,
)
from .homs import Homomorphism, enumerate_homs
from .polytope import SetFunction, build_polytope, check_ground, is_member
from . import lp as ratlp


def objective_clique_tree_form(
    tree: CliqueTree, phi: Homomorphism
) -> tuple[tuple[int, Fraction], ...]:
    """The linear functional p -> sum coeff * p(subset) induced by phi, as
    its nonzero (target subset mask, coefficient) terms sorted by mask: +1
    per clique-tree node at the image of its clique, -1 per tree edge at
    the image of its separator.  ``tree`` is ``clique_tree(phi.source)``
    (a forest for unions); the empty set never appears."""
    acc: dict[int, int] = {}
    for cl in tree.cliques:
        img = phi.image_mask(cl)
        acc[img] = acc.get(img, 0) + 1
    for sep in tree.separators:
        img = phi.image_mask(sep)
        acc[img] = acc.get(img, 0) - 1
    return tuple((mask, Fraction(acc[mask])) for mask in sorted(acc) if acc[mask])


def _clique_maps(F2: Graph, size: int) -> list[tuple[tuple[int, ...], int]]:
    """Every adjacency-preserving map of a clique on ``size`` sorted
    vertices into the loopless F2, as (images, image mask); each one is
    injective onto a clique of F2."""
    maps = [((), 0, (1 << F2.n) - 1)]  # (images, image mask, common neighbours)
    for _ in range(size):
        maps = [
            (img + (v,), mask | 1 << v, common & F2.adj[v])
            for img, mask, common in maps
            for v in bits_of(common)
        ]
    return [(img, mask) for img, mask, _ in maps]


def max_objective(tree: CliqueTree, F2: Graph, p) -> Fraction:
    """Exact maximum of sum_C p(phi(C)) - sum_S p(phi(S)) over every
    homomorphism phi of the chordal source of ``tree`` into F2.

    ``p`` is indexed only at clique masks of F2: the image of a clique or
    separator is a clique, since a homomorphism into the loopless F2 is
    injective on cliques.  So a ``SetFunction`` or any mapping defined on
    the nonempty cliques of F2 will do.

    Max-plus DP in one pass over the clique forest, from the last clique
    to the first, so every child comes before its parent.  A clique's
    table holds the best value of its subtree for each map of the clique
    into F2.  A child's table is reduced to its best value for each image
    of the separator it shares with its parent, less p of that image, and
    handed to the parent; a parent state whose separator image no child
    state reaches is dropped.  Trees are independent, so their root
    maxima add up.
    """
    parent_of = {child: (par, sep) for (par, child), sep in zip(tree.edges, tree.separators)}
    handed: list[list] = [[] for _ in tree.cliques]  # per clique: (separator, table) per child
    maps_by_size: dict[int, list] = {}
    total = Fraction(0)
    for c in reversed(range(len(tree.cliques))):
        verts = bits_of(tree.cliques[c])
        kids = [([verts.index(v) for v in bits_of(sep)], up) for sep, up in handed[c]]
        size = len(verts)
        if size not in maps_by_size:
            maps_by_size[size] = _clique_maps(F2, size)
        table = {}
        for img, mask in maps_by_size[size]:
            value = p[mask]
            for pos, up in kids:
                below = up.get(tuple(img[i] for i in pos))
                if below is None:
                    break
                value += below
            else:
                table[img] = value
        if not table:
            raise NoHomomorphism("the source admits no homomorphism into the target")
        if c not in parent_of:
            total += max(table.values())
            continue
        parent, sep = parent_of[c]
        pos = [verts.index(v) for v in bits_of(sep)]
        best: dict[tuple[int, ...], Fraction] = {}
        for img, value in table.items():
            key = tuple(img[i] for i in pos)
            if key not in best or value > best[key]:
                best[key] = value
        up = {key: value - p[sum(1 << v for v in key)] for key, value in best.items()}
        handed[parent].append((sep, up))
    return total


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

    The LP takes the rows of ``build_polytope(F2)`` as they are over one
    variable p(A) per subset mask A of V(F2), plus one epigraph variable
    per distinct connected component of F1, bounded below by the
    objective of each distinct profile of that component's
    homomorphisms: one ``>=`` row tagged ``profile`` per profile.  Every
    variable is free: p >= 0 follows from p(empty) = 0 and the elemental
    rows, and each epigraph variable is held up by its profile rows.

    F2 is refused before any work.  One pass over the distinct components
    reads each clique forest, which refuses a non-chordal one, and its
    profile rows; the polytope is built only after that pass.
    """
    if not is_series_parallel(F2):
        raise NotSeriesParallel("HDE requires a series-parallel F2")
    check_ground(F2)

    n_p = 1 << F2.n
    parts = []  # per distinct component: (component, multiplicity, forest, homs by profile)
    objective = []
    profile_rows = []
    for ci, (comp, mult) in enumerate(expand_components(F1)):
        tree = clique_tree(comp)
        by_terms: dict[tuple, list[Homomorphism]] = {}
        for hom in enumerate_homs(comp, F2):
            by_terms.setdefault(objective_clique_tree_form(tree, hom), []).append(hom)
        if not by_terms:
            raise NoHomomorphism(
                f"component {comp!r} admits no homomorphism into the target"
            )
        parts.append((comp, mult, tree, by_terms))
        objective.append((n_p + ci, Fraction(mult)))
        z = ((n_p + ci, Fraction(1)),)
        profile_rows += (
            ratlp.Row(tuple((mask, -c) for mask, c in terms) + z, ">=", Fraction(0), "profile")
            for terms in by_terms
        )

    rows = build_polytope(F2).constraints + tuple(profile_rows)
    program = ratlp.make_lp(n_p + len(parts), objective, rows)
    outcome = ratlp.solve(program)
    if outcome.status != "optimal":
        raise RatlpError(f"HDE linear program came back {outcome.status}")
    if not ratlp.verify(program, outcome):  # pragma: no cover - safety net
        raise RatlpError("HDE LP outcome failed verification")

    p_opt = SetFunction(F2.n, outcome.point[:n_p])
    member, violated = is_member(p_opt, F2)
    if not member:  # pragma: no cover - safety net
        raise RatlpError(f"optimal p violates {len(violated)} polytope constraints")
    active = []
    for ci, (comp, mult, tree, by_terms) in enumerate(parts):
        # The epigraph value must be the component's true maximum at
        # p_opt, found without the enumerated profiles: this proves they
        # covered every homomorphism's objective.
        z_val = outcome.point[n_p + ci]
        if max_objective(tree, F2, p_opt) != z_val:
            raise RatlpError(f"component {ci}: epigraph value is not the maximum objective")
        argmax: list[Homomorphism] = []
        for terms, homs in by_terms.items():
            if ratlp.evaluate(terms, p_opt) == z_val:
                argmax.extend(homs)
        active.append((comp, mult, tuple(argmax)))

    return HdeResult(
        value=outcome.value,
        point=p_opt,
        active=tuple(active),
        lp_vars=program.n_vars,
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
    """Maximum objective value at the averaged indicator point p*, taken
    over all homomorphisms from P0^2 P_{t+2}^t, summed over the components
    with their multiplicities.

    Certifies HDE <= t+2 (the returned maximum equals t+2).  Each
    component's maximum comes from ``max_objective`` on its clique tree,
    so no homomorphism is enumerated: P_{t+2} has t+2 edge cliques with
    2t states each, a few hundred table entries at t = 11 where the
    enumeration would visit 58,450 homomorphisms.  ``max_objective``
    reads p* only at the cliques of P_t, its vertices and edges, so p* is
    given there alone instead of on all 2^(t+1) subsets.
    """
    source = _flagship_source(t)
    F2 = path(t)
    cliques = [1 << v for v in range(F2.n)] + [1 << u | 1 << v for u, v in F2.edges()]
    star = {mask: Fraction(mask.bit_count(), t + 1) for mask in cliques}
    return sum(
        (mult * max_objective(clique_tree(comp), F2, star) for comp, mult in source),
        Fraction(0),
    )


def psi_form(t: int) -> tuple[tuple[int, Fraction], ...]:
    """The objective of psi as one linear form over the subsets of V(P_t),
    sorted by mask.  Summed one component of the source at a time, so the
    union itself (2 + t(t+3) vertices) is never built.  Every polytope
    member gives it (t+2) * p(V) = t+2, which certifies HDE >= t+2."""
    trees = {comp: clique_tree(comp) for comp, _ in _flagship_source(t)}
    return ratlp._norm_terms(
        term for h in _psi_parts(t) for term in objective_clique_tree_form(trees[h.source], h)
    )


def certify_lower(t: int, p: SetFunction) -> Fraction:
    """The objective of psi at a polytope member p, which is t+2."""
    form = psi_form(t)
    ok, violated = is_member(p, path(t))
    if not ok:
        raise NotMember(f"p violates {len(violated)} polytope constraints")
    return ratlp.evaluate(form, p)
