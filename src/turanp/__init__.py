"""turanp: degree-power Turan numbers for forbidden forests.

Library surface: bitset graphs and degree-power arithmetic (graphs),
extremal-family builders (families), exact forest-containment detectors
(patterns), closed-form evaluators with validity windows (formulas),
degree-power-increasing pendent rewrites (rewrites), and an exhaustive
small-n oracle (oracle).
"""
from .graphs import (
    CANON_CAP,
    Graph,
    Graph6Error,
    GraphCapError,
    VERTEX_CAP,
    canonical_code,
    disjoint_union,
    ep_value,
    g6_decode,
    g6_encode,
    graph_from_code,
    join,
)
from .families import (
    FamilySpec,
    broom_graph,
    build_family,
    clique_union,
    complete_graph,
    empty_graph,
    extremal_host,
    friendship_graph,
    g_star_join,
    h_linear_forest,
    h_path,
    k_join_matching,
    matching_graph,
    near_regular,
    parse_family,
    path_graph,
    star_graph,
    turan_graph,
    unbalanced_bipartite,
)
from .patterns import (
    BroomPattern,
    ForestPattern,
    LinearForestPattern,
    PathPattern,
    StarForestPattern,
    StarPattern,
    UNKNOWN,
    contains,
    contains_broom,
    contains_forest_generic,
    contains_linear_forest,
    contains_path,
    contains_star_forest,
    is_free,
    parse_pattern,
    unalias,
)
from .formulas import (
    FormulaResult,
    UnspecifiedBase,
    eg_bound,
    ex_broom4,
    ex_broom5_partial,
    ex_kP3,
    ex_linear_forest,
    ex_path,
    ex_star_forest,
    exp_broom,
    exp_kP3,
    exp_linear_forest,
    exp_path,
    exp_star,
    exp_star_forest,
    exp_turan_clique,
    formula_for_pattern,
    lemma_absorb_check,
    lemma_superadd_check,
)
from .rewrites import PendentSite, SiteError, apply_rewrite, demo_instance, find_sites
from .oracle import (
    ORACLE_CAP,
    OracleReport,
    max_ep,
    nonisomorphic_graphs,
)

__version__ = "0.1.0"

