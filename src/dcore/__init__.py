"""D-core ((k,l)-core) decomposition of directed graphs.

Centralized peeling plus two distributed algorithms (anchored coreness and
skyline coreness) executed on a deterministic vertex- or block-centric
superstep simulator with exact round and message accounting.
"""

from .anchored import anchored_decompose, compute_kmax, compute_lupp, refine
from .engine import (
    EngineMetrics,
    SuperstepLimitError,
    VertexProgram,
    run_program,
)
from .graph import (
    DirectedGraph,
    EdgeListError,
    PartitionMap,
    generate_random_digraph,
    hash_partition,
    induced_subgraph,
    make_partition,
    parse_edge_list,
    parse_edge_list_report,
    segment_partition,
    write_edge_list,
)
from .kernels import (
    d_index,
    d_index_over_sets,
    dominates_strict,
    dominates_weak,
    h_index,
    skyline_reduce,
)
from .peel import (
    AnchoredTable,
    anchored_to_skyline,
    dcore,
    in_core_numbers,
    out_core_numbers,
    peel_decompose,
)
from .skyline import skyline_decompose, tight_init

__all__ = [
    "AnchoredTable",
    "DirectedGraph",
    "EdgeListError",
    "EngineMetrics",
    "PartitionMap",
    "SuperstepLimitError",
    "VertexProgram",
    "anchored_decompose",
    "anchored_to_skyline",
    "compute_kmax",
    "compute_lupp",
    "d_index",
    "d_index_over_sets",
    "dcore",
    "dominates_strict",
    "dominates_weak",
    "generate_random_digraph",
    "h_index",
    "hash_partition",
    "in_core_numbers",
    "induced_subgraph",
    "make_partition",
    "out_core_numbers",
    "parse_edge_list",
    "parse_edge_list_report",
    "peel_decompose",
    "refine",
    "run_program",
    "segment_partition",
    "skyline_decompose",
    "skyline_reduce",
    "tight_init",
    "write_edge_list",
]
