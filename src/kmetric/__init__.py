"""Exact k-metric dimension: solver, products, bounds, and generators."""

from .graphs import (
    DisconnectedError,
    DistanceMatrix,
    Graph,
    GraphError,
    IndexOutOfRangeError,
    SelfLoopError,
    all_pairs_distances,
    build_graph,
    complete_graph,
    cycle_graph,
    girth,
    is_rooted_path,
    path_graph,
)
from .products import (
    EmptyListError,
    ProductGraph,
    RootedGraph,
    bridge_path,
    hierarchical_distance,
    hierarchical_product,
    link,
    splice,
    through_root_distance,
)
from .solver import (
    INFINITE,
    DimResult,
    MulticoverInstance,
    SamePairError,
    SizeLimitExceededError,
    SolveStats,
    build_instance_full,
    build_instance_rooted,
    dim_k,
    dim_k_rooted,
    distinguishers,
    is_k_generator,
    max_k,
    oracle_solve,
    representation,
    solve_exact,
    sphere_pairs,
)
from .bounds import (
    BoundReport,
    OutOfRangeError,
    cycle_rooted_formula,
    nanotube_bound,
    path_rooted_formula,
    polyhex_bound,
    splice_link_lower,
    theorem1_upper,
    theorem2_exact,
)
from .chemgen import (
    BadRootSetError,
    armchair,
    bridge_path_uniform,
    cycle_with_even_roots,
    nanotube,
    path_with_even_roots,
    polyhex_row,
    polyhex_stack,
)

__version__ = "0.1.0"
