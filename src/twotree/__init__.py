"""Exact effective resistance on linear 2-trees.

Delta-wye reduction with auditable traces, Laplacian-minor determinants,
Fibonacci/Lucas closed forms, spanning tree and 2-forest counts, non-edge
ranking for link prediction, and numerical probes of the asymptotics.
"""

from .fib import MAX_INDEX, check_all_identities, check_identity, fib, identity_names, lucas
from .graphs import (
    TriangularGrid,
    WeightedGraph,
    bent_linear_2tree,
    read_edge_list,
    straight_linear_2tree,
    straight_linear_ktree,
    triangular_grid,
    write_edge_list,
)
from .engine import (
    ReductionStep,
    ReductionTrace,
    ResistanceReport,
    brute_force_tree_enumeration,
    brute_force_two_forest_counts,
    reduce_straight,
    reduce_straight_all,
    replay_trace,
    resistance_all_pairs,
    resistance_det,
    resistance_float,
    spanning_tree_count,
    two_forest_count,
)
from .formulas import (
    StripWeights,
    bent_reading_evidence,
    forest_closed,
    min_resistance,
    r_bent,
    r_closed,
    r_diff,
    r_endpoints,
    r_sum,
    sbt,
    spanning_closed,
)
from .ranking import TieGroup, predict_links, rank_nonedges, rank_nonedges_graph, render_ranking
from .conjectures import (
    bent_diameter_growth,
    ktree_increments,
    triangle_grid_growth,
)

__version__ = "0.1.0"
