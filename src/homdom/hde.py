"""Homomorphism domination exponents via the min-max linear program.

The exponent of (F1, F2) with F1 chordal and F2 series-parallel is the
minimum over the polytope of normalized polymatroidal functions p of the
maximum over homomorphisms phi: F1 -> F2 of an inclusion-exclusion
functional of p.  The max decomposes over connected components of F1, so
the LP gets one epigraph variable per distinct component instead of one
row per global homomorphism (whose number is a product over components
and must never be expanded).

The functional is read off a clique tree of the source component: one
positive term per clique, one negative term per separator, as int terms
over the target's cliques.  The subset form (alternating sum over sets of
maximal cliques with common intersection) is the test suite's oracle for
it.  ``certify_upper`` uses ``max_objective``; the lower certificate,
``walk_form``, reads the functional of a path source off its walk.

Neither the LP's rows nor the maximum of the functional at one fixed p
needs the homomorphisms listed.  Both come from the tree-decomposition
DP of Diaz, Serna and Thilikos (Counting H-colorings of partial k-trees,
TCS 2002), one pass over the clique forest, children before parents
(``_clique_dp``).  A clique's state is a map of its vertices onto a
clique of the target, listed by the homomorphism enumerator as a map of
a complete graph; a child passes up what it has for each image of the
separator it shares with its parent.  ``max_objective`` runs the
max-plus form, one number per state: at most 2|E(F2)| states for an
edge clique, so O(|V(F1)| |E(F2)|) for a path source, against the
number of homomorphisms (58,450 of P13 into P11).  ``profiles`` runs
the set-valued form, one set of distinct profiles per state, each with
its lexicographically least map; ``compute_hde`` writes one LP row per
distinct profile (208 for P0^2 P16 into P3, from 8,366 maps).  The upper
certificate is the max-plus maximum at p*, and ``compute_hde``
re-checks its optimum with it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import itemgetter, or_

from .errors import (
    BadIndex,
    BadParity,
    NoHomomorphism,
    NotMember,
    NotSeriesParallel,
    RatlpError,
    ScopeTooLarge,
)
from .graphs import (
    CliqueTree,
    Graph,
    bits_of,
    clique_tree,
    expand_components,
    from_edges,
    is_series_parallel,
    path,
    # unused here, but bench/spans.py traces calls through these names
    is_chordal,
    maximal_cliques,
)
from .homs import (
    Homomorphism,
    _enumerate_maps,
    # unused here, but bench/spans.py traces calls through these names
    enumerate_homs,
)
from .polytope import SetFunction, build_polytope, check_ground, is_member
from . import lp as ratlp

PROFILE_CAP = 50_000  # the most distinct profiles one set of ``profiles`` may hold


def _clique_dp(tree: CliqueTree, F2: Graph, state, merge) -> list[dict]:
    """The table of each root of ``tree`` after one pass over the clique
    forest, from the last clique to the first, so every child comes
    before its parent.  ``max_objective`` and ``profiles`` differ only in
    what a table entry holds.

    A clique's states are the maps of its vertices ``verts``, taken in
    increasing order, into F2, as ``_enumerate_maps`` lists them for the
    complete graph on ``verts``, each with its image mask.
    ``state(verts, img, mask, belows)`` gives the entry of a state, where
    ``belows`` holds what each child handed up for the state's image of
    the separator they share; a state for which some child has nothing
    is dropped.  A child's entries are grouped by their image ``key`` of
    the separator's vertices ``sep`` (increasing), and ``merge(sep, key,
    entries)`` makes each group into the one entry handed up for ``key``.
    """
    parent_of = {child: (par, sep) for (par, child), sep in zip(tree.edges, tree.separators)}
    handed: list[list] = [[] for _ in tree.cliques]  # per clique: (separator, table) per child
    maps_by_size: dict[int, list] = {}  # clique size -> (images, image mask) per map
    roots = []
    for c in reversed(range(len(tree.cliques))):
        verts = bits_of(tree.cliques[c])
        kids = [([verts.index(v) for v in bits_of(sep)], up) for sep, up in handed[c]]
        size = len(verts)
        if size not in maps_by_size:
            K = from_edges(size, combinations(range(size), 2))
            maps = _enumerate_maps(K, F2)
            maps_by_size[size] = [(img, sum(1 << v for v in img)) for img in maps]
        table = {}
        for img, mask in maps_by_size[size]:
            belows = []
            for pos, up in kids:
                below = up.get(tuple(img[i] for i in pos))
                if below is None:
                    break
                belows.append(below)
            else:
                table[img] = state(verts, img, mask, belows)
        if not table:
            raise NoHomomorphism("the source admits no homomorphism into the target")
        if c not in parent_of:
            roots.append(table)
            continue
        parent, sep = parent_of[c]
        sep_verts = bits_of(sep)
        pos = [verts.index(v) for v in sep_verts]
        groups: dict[tuple[int, ...], list] = {}
        for img, entry in table.items():
            groups.setdefault(tuple(img[i] for i in pos), []).append(entry)
        handed[parent].append(
            (sep, {key: merge(sep_verts, key, entries) for key, entries in groups.items()})
        )
    return roots


def max_objective(tree: CliqueTree, F2: Graph, p) -> int | Fraction:
    """Exact maximum of sum_C p(phi(C)) - sum_S p(phi(S)) over every
    homomorphism phi of the chordal source of ``tree`` into F2.

    ``p`` is indexed only at clique masks of F2: the image of a clique or
    separator is a clique, since a homomorphism into the loopless F2 is
    injective on cliques.  So a ``SetFunction`` or any mapping defined on
    the nonempty cliques of F2 will do.  A positive scaling of p scales
    the maximum, so d * p in ints gives d times it, in ints.

    The max-plus form of ``_clique_dp``: a clique's table holds the best
    value of its subtree for each of its states, p at the state's image
    plus what each child hands up for it.  A child hands up its best
    value for each image of the separator it shares with its parent, less
    p of that image.  Trees are independent, so their root maxima add up.
    """

    def state(verts, img, mask, belows):
        return p[mask] + sum(belows)

    def merge(sep, key, values):
        return max(values) - p[sum(1 << v for v in key)]

    return sum(max(table.values()) for table in _clique_dp(tree, F2, state, merge))


def _capped(table: dict[int, int]) -> dict[int, int]:
    """``table``, once it is refused if it holds more than ``PROFILE_CAP``
    profiles."""
    if len(table) > PROFILE_CAP:
        raise ScopeTooLarge(f"the source's maps into the target pass the cap of "
                            f"{PROFILE_CAP} distinct profiles")
    return table


def _union(tables) -> dict[int, int]:
    """The profiles of all ``tables``, each with its least map."""
    out: dict[int, int] = {}
    for table in tables:
        for prof, least in table.items():
            old = out.get(prof)
            if old is None or least < old:
                out[prof] = least
    return _capped(out)


def _sum_sets(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The Minkowski sum of two tables over disjoint vertex sets: every
    sum of a profile of each, with the least sum of their maps."""
    out: dict[int, int] = {}
    for prof, least in a.items():
        for prof_b, least_b in b.items():
            total, joined = prof + prof_b, least + least_b
            old = out.get(total)
            if old is None or joined < old:
                out[total] = joined
    return _capped(out)


def profiles(tree: CliqueTree, F2: Graph) -> dict[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Every distinct profile of the homomorphisms of the chordal source
    of ``tree`` into F2, as its nonzero int terms sorted by mask, mapped
    to its lexicographically least map, in increasing order of those
    maps: the order in which ``enumerate_homs`` first meets each profile.
    No homomorphism is enumerated.

    The set-valued form of ``_clique_dp``: a table entry maps each
    profile of the clique's subtree, for that state of the clique, to its
    least map.  A state starts from +1 at its image, and each child is
    merged in by a Minkowski sum that keeps the lesser map of two equal
    sums.  A child hands up, for each image of its separator, the union
    of the sets of the states with that image, less 1 at it.  The trees
    of a forest are summed in the same way.

    Both halves of an entry are ints, so a Minkowski step is two
    additions.  A profile packs its coefficients as signed fields of
    ``wide`` bits, one per clique of F2 met.  A coefficient of a partial
    sum counts at most every clique and separator of the forest, fewer
    than 2^(wide-1), so the fields add without spilling.  A
    map packs its images in fields of ``digit`` bits, vertex 0 highest,
    so maps of the same vertices compare as ints in lexicographic order.
    The subtrees merged into one state have disjoint vertices besides the
    state's own, so their maps add field by field, and the least map of a
    sum is the least over its summands of the sum of their least maps:
    the witnesses are exact.

    A set of more than ``PROFILE_CAP`` profiles is refused with
    ``ScopeTooLarge`` as soon as it is built, before any LP is made.
    """
    n = reduce(or_, tree.cliques, 0).bit_length()
    digit = max(F2.n - 1, 1).bit_length()
    wide = (2 * len(tree.cliques)).bit_length() + 1
    unit: dict[int, int] = {}  # clique mask of F2 -> its packed unit vector

    def one(mask: int) -> int:
        if mask not in unit:
            unit[mask] = 1 << wide * len(unit)
        return unit[mask]

    def packed_map(verts, img) -> int:
        return sum(a << digit * (n - 1 - v) for v, a in zip(verts, img))

    def state(verts, img, mask, belows):
        table = {one(mask): packed_map(verts, img)}
        for below in belows:
            table = _sum_sets(table, below)
        return table

    def merge(sep, key, tables):
        drop, dropped = one(sum(1 << a for a in key)), packed_map(sep, key)
        return {prof - drop: least - dropped for prof, least in _union(tables).items()}

    total = {0: 0}
    for table in _clique_dp(tree, F2, state, merge):
        total = _sum_sets(total, _union(table.values()))

    masks = list(unit)  # in field order
    top, half, last = (1 << wide) - 1, 1 << (wide - 1), (1 << digit) - 1
    out = {}
    for prof, least in sorted(total.items(), key=itemgetter(1)):
        terms = []
        for mask in masks:
            coeff = prof & top
            if coeff >= half:
                coeff -= top + 1
            if coeff:
                terms.append((mask, coeff))
            prof = (prof - coeff) >> wide
        out[tuple(sorted(terms))] = tuple(least >> digit * (n - 1 - v) & last for v in range(n))
    return out


@dataclass(frozen=True)
class HdeResult:
    """Exact domination exponent plus the certificates behind it."""

    value: Fraction
    point: SetFunction  # optimal p, a member of the polytope
    # per distinct component: (component, multiplicity, one witness map
    # per argmax profile, the least map of each, in increasing order)
    active: tuple
    lp_vars: int
    lp_constraints: int
    lp_pivots: int


def compute_hde(F1: Graph, F2: Graph) -> HdeResult:
    """Exact HDE(F1; F2) for chordal F1 and series-parallel F2.

    The LP takes the rows of ``build_polytope(F2)`` as they are over one
    variable p(A) per subset mask A of V(F2), plus one epigraph variable
    per distinct connected component of F1, bounded below by the
    objective of each distinct profile of that component's
    homomorphisms: one ``>=`` row tagged ``profile`` per profile, in the
    int terms that ``profiles`` gives, in the order of their least maps.
    That is the order in which an enumeration of the maps would first
    meet each profile, so no homomorphism is enumerated.  Every variable
    is free: p >= 0 follows from p(empty) = 0 and the elemental rows, and
    each epigraph variable is held up by its profile rows.

    ``active`` gives, per distinct component, the least map of each
    profile whose objective is the component's maximum at the optimum,
    in the order of those maps.

    F2 is refused before any work.  The clique forest of every distinct
    component is read first, which refuses a non-chordal one before any
    profile is built.  Then one pass over the components reads their
    profile rows, refusing a component whose profile sets pass
    ``PROFILE_CAP``; the polytope is built only after that pass.
    """
    if not is_series_parallel(F2):
        raise NotSeriesParallel("HDE requires a series-parallel F2")
    check_ground(F2)

    n_p = 1 << F2.n
    parts = []  # per distinct component: (component, multiplicity, forest, least map by profile)
    objective = []
    profile_rows = []
    forests = [(comp, mult, clique_tree(comp)) for comp, mult in expand_components(F1)]
    for ci, (comp, mult, tree) in enumerate(forests):
        try:
            least = profiles(tree, F2)
        except NoHomomorphism:
            raise NoHomomorphism(
                f"component {comp!r} admits no homomorphism into the target"
            ) from None
        parts.append((comp, mult, tree, least))
        objective.append((n_p + ci, mult))
        z = ((n_p + ci, 1),)
        profile_rows += (
            ratlp.Row(tuple((m, -c) for m, c in terms) + z, ">=", 0, "profile") for terms in least
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
    _, X = ratlp._over_common_denominator(outcome.point)  # d * optimum, in ints
    active = []
    for ci, (comp, mult, tree, least) in enumerate(parts):
        # The epigraph value must be the component's true maximum at
        # p_opt, found by the max-plus DP without the profile sets: this
        # proves they covered every homomorphism's objective.
        z = X[n_p + ci]
        if max_objective(tree, F2, X) != z:
            raise RatlpError(f"component {ci}: epigraph value is not the maximum objective")
        witnesses = (
            Homomorphism(comp, F2, m)
            for terms, m in least.items() if sum(c * X[mask] for mask, c in terms) == z
        )
        active.append((comp, mult, tuple(witnesses)))

    return HdeResult(
        value=outcome.value,
        point=p_opt,
        active=tuple(active),
        lp_vars=program.n_vars,
        lp_constraints=len(program.rows),
        lp_pivots=outcome.pivots,
    )


# -- the explicit certificates for HDE(P0^{k-t} P_k^t; P_t) >= k -----------


def _flagship_source(t: int) -> tuple[tuple[Graph, int], ...]:
    """The components of P0^2 P_{t+2}^t with their multiplicities."""
    if t < 1 or t % 2 == 0:
        raise BadParity(f"t must be odd and positive, got {t}")
    return ((path(0), 2), (path(t + 2), t))


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
    given there alone, as the ints (t+1) p*(S) = |S| divided by t+1 once
    at the end, instead of on all 2^(t+1) subsets.
    """
    source = _flagship_source(t)
    F2 = path(t)
    cliques = [1 << v for v in range(F2.n)] + [1 << u | 1 << v for u, v in F2.edges()]
    scaled = {mask: mask.bit_count() for mask in cliques}  # (t+1) p*
    return Fraction(
        sum(mult * max_objective(clique_tree(comp), F2, scaled) for comp, mult in source), t + 1
    )


def walk_form(t: int, k: int) -> tuple[tuple[int, int], ...]:
    """The objective of a map of P0^{k-t} P_k^t into P_t, as one linear
    form over the subsets of V(P_t) sorted by mask: k * ``path_form(t)``,
    which every polytope member gives k * p(V) = k, so HDE >= k.

    With r = (k - t)/2, r isolated vertices go to 0 and r to t, and copy
    w of P_k (w < t) walks from 0 to t, going back and forth once on each
    of the edges w, w+1, ..., w+r-1 (mod t).  A walk gives +1 at each
    step's edge and -1 at each inner visit.  In all, each edge is walked
    k times and each inner vertex visited k times; the isolated vertices
    cancel the r inner visits of each end.  Each walk is checked as a map
    of ``path(k)``, which is built first, so a k past the vertex cap is
    refused before any walk.  At k = t + 2 this is psi.
    """
    if t < 1:
        raise BadIndex(f"walks onto P_t need t >= 1, got t={t}")
    if k < t:
        raise BadIndex(f"need t <= k, got t={t}, k={k}")
    if (k - t) % 2:
        raise BadParity(f"need k - t even, got t={t}, k={k}")
    source, target = path(k), path(t)
    r = (k - t) // 2
    terms = [(1, r), (1 << t, r)]
    for w in range(t):
        turns = Counter((w + i) % t for i in range(r))
        walk = [0]
        for e in range(t):
            walk += [e + 1] + [e, e + 1] * turns[e]
        Homomorphism(source, target, tuple(walk))
        terms += ((1 << a | 1 << b, 1) for a, b in zip(walk, walk[1:]))
        terms += ((1 << v, -1) for v in walk[1:-1])
    return ratlp._norm_terms(terms)


def certify_lower(t: int, p: SetFunction) -> Fraction:
    """The objective of psi, ``walk_form(t, t + 2)``, at a polytope member
    p, which is t+2.  An even t is refused, as ``certify_upper`` refuses
    it, and a p outside the polytope before the form is built."""
    _flagship_source(t)
    ok, violated = is_member(p, path(t))
    if not ok:
        raise NotMember(f"p violates {len(violated)} polytope constraints")
    return ratlp.evaluate(walk_form(t, t + 2), p)
