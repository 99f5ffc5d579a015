"""Succinct interval-graph structures and algorithms.

Build-once query structures for interval graphs and their proper,
bounded-nesting, and circular-arc relatives, in near-optimal space:
navigation queries (degree, adjacent, neighborhood, shortest path) run on
rank/select directories instead of adjacency lists. All public positions
and vertex labels are 1-based.
"""

from .algorithms import (
    CliqueWitness,
    Coloring,
    bfs_order,
    build_d_sequence,
    dfs_order,
    greedy_coloring,
    max_clique,
    mis,
    mvc,
    peo,
)
from .bitvector import BitVector
from .circular import (
    ArcRealization,
    CircularArcGraph,
    anchor_arcs,
    random_arc_realization,
)
from .errors import (
    GraphInputError,
    NotProperError,
    QueryRangeError,
    SerializationError,
)
from .graph import SuccinctIntervalGraph
from .intervals import (
    IntervalRealization,
    normalize,
    parse_realization_text,
    random_proper_realization,
    random_realization,
)
from .oracle import OracleGraph
from .rmq import RangeMaxIndex, RangeMinIndex
from .variants import (
    MODE_IMPROPER,
    MODE_PROPER,
    KProperGraph,
    ProperIntervalGraph,
    check_proper,
    containment_depths,
)
from .verify import verify
from .wavelet import AlphabetSequence, PointGrid

__version__ = "0.1.0"

__all__ = [
    "AlphabetSequence",
    "ArcRealization",
    "BitVector",
    "CircularArcGraph",
    "CliqueWitness",
    "Coloring",
    "GraphInputError",
    "IntervalRealization",
    "KProperGraph",
    "MODE_IMPROPER",
    "MODE_PROPER",
    "NotProperError",
    "OracleGraph",
    "PointGrid",
    "ProperIntervalGraph",
    "QueryRangeError",
    "RangeMaxIndex",
    "RangeMinIndex",
    "SerializationError",
    "SuccinctIntervalGraph",
    "__version__",
    "anchor_arcs",
    "bfs_order",
    "build_d_sequence",
    "check_proper",
    "containment_depths",
    "dfs_order",
    "greedy_coloring",
    "max_clique",
    "mis",
    "mvc",
    "normalize",
    "parse_realization_text",
    "peo",
    "random_arc_realization",
    "random_proper_realization",
    "random_realization",
    "verify",
]
