"""Exact homomorphism domination exponents and walk-inequality checks."""

__version__ = "0.1.0"

from .graphs import (
    CliqueTree,
    Graph,
    clique_tree,
    cycle,
    disjoint_union,
    from_edges,
    is_chordal,
    is_series_parallel,
    maximal_cliques,
    parse_graph,
    parse_graph_spec,
    path,
    serialize_graph,
    star,
)
from .homs import (
    Homomorphism,
    average_degree,
    count_homs,
    enumerate_homs,
    hom_density,
    normalized_walks,
    walk_count,
    walk_counts,
)
from .polytope import (
    Constraint,
    ConstraintSystem,
    SetFunction,
    build_polytope,
    dump_polytope,
    indicator_point,
    is_member,
    p_star,
    random_vertex_point,
    separates,
)
from .lp import LinearProgram, LpOutcome, Row, dump_lp, make_lp, make_row, solve, verify
from .hde import (
    HdeResult,
    ObjectiveProfile,
    certify_lower,
    certify_upper,
    compute_hde,
    objective_clique_tree_form,
    phi_i,
    psi,
)
from .checks import (
    CheckReport,
    Scope,
    chain_exponents,
    check_blakley_roy,
    check_density_form,
    check_hde_definition,
    check_lemma_identity,
    check_walk_inequality,
    find_counterexample,
    sweep,
)
