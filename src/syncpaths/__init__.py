"""Synchronization-path combinatorics for complete and complete bipartite graphs.

Simulates the linear (Laplacian) and Kuramoto flows, encodes threshold-
synchronized subnetworks as combinatorial codes, builds transition diagrams,
decides and counts realizable event orderings by exact rational feasibility,
computes exact path-length distributions, and constructs witness initial
conditions for any code.
"""

from .graphs import (
    Configuration,
    Family,
    GraphSpec,
    bipartite,
    complete,
    laplacian,
    sync_subnetwork,
)
from .codes import (
    catalan,
    decode_kn,
    decode_knn,
    dyck_area,
    encode_kn,
    encode_knn,
    enumerate_phi_n,
    enumerate_phi_nn,
    narayana_count,
    start_codes_knn,
    successors_kn,
    successors_knn,
    to_polyomino,
)
from .flows import (
    KuramotoParams,
    SyncEvent,
    SyncSequence,
    cross_party_crossing_times,
    kuramoto_sequence,
    laplacian_trajectory_kn,
    laplacian_trajectory_knn,
    order_parameter,
    switching_times_kn,
    switching_times_knn_balanced,
)
from .diagram import (
    TransitionDiagram,
    build_diagram,
    count_admissible_paths,
    export_dot,
    export_json,
)
from .realizability import (
    IncrementOrder,
    count_realizable_paths_kn,
    enumerate_realizable_orderings_kn,
    enumerate_realizable_orderings_knn,
    feasible,
    golomb_bounds,
    knn_path_upper_bound,
    path_to_ordering_kn,
    path_to_ordering_knn,
    ruler_from_configuration,
)
from .distributions import (
    LengthDistribution,
    carlitz_polynomials,
    cumulative,
    density_export,
    f_kn,
    f_knn,
    sloane_prefix_check,
    summary,
)
from .witness import forest_decomposition, witness_kn, witness_knn

__version__ = "0.1.0"
