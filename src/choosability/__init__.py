"""Graph 2-choosability toolkit.

Recognition of 2-choosable graphs through the core characterization, an
independent exhaustive oracle, exact and approximate deletion solvers, and
generators for the satisfiability reduction constructions.
"""

__version__ = "0.1.0"

from .approx import (CountedMultiGraph, approx_2_del,
                     is_2_choosable_via_preprocessing, preprocess)
from .errors import Budget, BudgetExceededError, InternalCheckError
from .exact import (Decomposition, decomposition_is_valid,
                    min_2_del_bruteforce, min_2_del_exact, min_near_3,
                    min_vertex_cover_exact, near_3_decide)
from .graphs import (Graph, connected_components, coloring_is_proper,
                     delete_vertices, diameter, induced_subgraph,
                     is_bipartite, is_triangle_free, shortest_cycle)
from .recognition import (CoreClassification, classify_core, compute_core,
                          format_list_assignment, is_2_choosable,
                          is_k_choosable_exhaustive, is_L_colorable,
                          parse_list_assignment)
from .reductions import (CnfFormula, ReductionArtifact, build_G_phi_p,
                         build_H_phi, build_clause_gadget_planar,
                         build_edge_gadget, build_forbidden_gadget,
                         compute_paper_p, constraint_graph_P,
                         decomposition_from_assignment,
                         deletion_set_from_assignment, triangle_reduction,
                         verify_lemma_2_2)

__all__ = [name for name in dir() if not name.startswith("_")]
