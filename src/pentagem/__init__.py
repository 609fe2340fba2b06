"""pentagem: constructive maximum-degree-minus-one coloring of
(P5, gem)-free graphs, with the structure machinery and exact oracles
needed to check every step at desk scale."""

from .classify import ClassLabel, classify
from .coloring import (Coloring, back_degree_profile, color_with_independent_sets,
                       degeneracy_order, greedy_color, verify_coloring)
from .cographs import cograph_optimal_coloring, is_cograph
from .errors import (CliqueBoundError, DegreeRangeError, ForbiddenPatternError,
                     GraphFormatError, InternalInconsistencyError,
                     OracleCapExceeded, PentagemError, PreconditionError)
from .graph import (Graph, build_graph, complement, complete_graph, cycle_graph,
                    disjoint_union, empty_graph, induced_subgraph, is_connected,
                    join, path_graph)
from .instances import GenSpec, gallery_g1, gallery_g2, gen_class_instance, gen_target_delta
from .oracle import DEFAULT_ORACLE_CAP, colorable_with, exact_chromatic
from .patterns import (PatternWitness, clique_number, find_induced,
                       is_p5_gem_free, maximum_independent_set)
from .reductions import (brooks_color, copycat_extend, delta_reduce,
                         extend_list_coloring, find_copycat, find_d1_catalog,
                         find_low_degree, hitting_mis)
from .solver import color8, replay_trace, solve
from .strategies import apply_case_strategy, published_plan
from .structure import (TEMPLATES, CliqueReduction, check_bag_partition,
                        clique_reduce, lift_coloring, match_expansion, maximal_modules)
from .trace import ReductionTrace, TraceEvent, dumps_trace, loads_trace

__version__ = "1.0.0"
