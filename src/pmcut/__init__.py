"""Perfect matching cuts on Barnette graphs.

Compile monotone NAE-3SAT-E4 formulas into perfect-matching-cut instances on
3-connected cubic bipartite planar graphs, decide those instances exactly,
and verify every structural property of the construction mechanically.
"""

from .formula import (
    NaeFormula,
    ag23_formula,
    ag23_spliced,
    canonical_n3_formula,
    nae_satisfies,
    parse_formula,
    random_e4_formula,
    serialize_formula,
    solve_nae,
    solve_nae_bruteforce,
    split_variable_cutvertices,
)
from .gadgets import (
    Gadget,
    build_clause_gadget,
    build_crossing_gadget,
    build_variable_gadget,
    census_types,
    clause_type,
    crossing_type_sets,
    enumerate_local_pmcs,
    side_relations,
)
from .graphs import (
    Cut,
    Graph,
    PlaneEmbedding,
    cut_from_edge_set,
    is_3_connected,
    is_bipartite,
    is_cubic,
    is_perfect_matching,
    is_planar_embedding,
    parse_graph,
    serialize_graph,
)
from .reduction import ReductionArtifact, build_h, layout, planarize, reduce_formula
from .render import render_dot, render_svg
from .solver import (
    BudgetExhausted,
    assignment_from_pmc,
    enumerate_pmcs,
    find_pmc,
    find_pmc_bruteforce,
    lemma_oracles,
    pmc_from_assignment,
    pmcs_bruteforce,
)

__version__ = "0.1.0"
