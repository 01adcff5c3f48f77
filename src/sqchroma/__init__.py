"""Distance-2 coloring of convex bipartite graphs.

Library layout:

* ``core``       graph model, squares, half squares, text format
* ``convexity``  convex/biconvex recognition, <_A and <_B orderings
* ``coloring``   greedy interval phase + Kempe-change extension phase
* ``oracle``     exact chromatic/clique solvers and hole detectors
* ``structure``  executable checks of the hole-structure theorems
* ``reduction``  vertex-splitting reduction from general graphs
* ``generators`` named figures, seeded random families, girth-7 family
* ``cli``        one binary exposing everything as subcommands
"""

from .core import (
    BipartiteGraph,
    SimpleGraph,
    build_bipartite,
    complement,
    girth,
    half_square,
    induced_subgraph,
    max_degree,
    read_bipartite_text,
    read_graph_text,
    read_simple_text,
    square,
    square_simple,
    vertex_names,
    write_bipartite_text,
    write_simple_text,
)
from .convexity import (
    BiconvexLayout,
    ConvexLayout,
    NonConvexWitness,
    check_proper_ordering,
    layout_from_order,
    recognize_biconvex,
    recognize_convex,
)
from .coloring import (
    Coloring,
    ExtensionState,
    clique_number_square,
    color_square_convex,
    find_pivot,
    greedy_interval_coloring,
    kempe_swap,
    partner_color,
    verify_coloring,
    verify_square_coloring,
)
from .errors import (
    AlgorithmInvariantViolation,
    BudgetExceeded,
    LayoutMismatch,
    NotInducedCycle,
    RetryExhausted,
    SqchromaError,
)
from .generators import (
    gen_girth7,
    gen_lower_bound_H,
    gen_named,
    gen_random_biconvex,
    gen_random_convex,
)
from .oracle import (
    ExactStats,
    exact_chromatic,
    exact_clique,
    exact_stats,
    find_induced_cycles,
    has_odd_antihole_gt5,
    is_perfect_small,
)
from .reduction import (
    SplitMap,
    check_halfsquare_iso,
    check_omega_delta_girth,
    check_sandwich,
    split_reduction,
)
from .structure import (
    StructureReport,
    check_partite_count,
    cycle_spectrum_check,
    is_AB_path,
    partite_testable_antihole_check,
    perfectness_partite_tests,
    spectrum_contiguous,
    verify_cycle_structure,
)

__version__ = "0.1.0"
