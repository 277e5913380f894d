"""Exact mixed graph state toolkit.

Construct Pauli stabilizer matrices of mixed graphs, enumerate the maximal
commutative subgroups of the dual group, build pure parent graph states by
minimal environmental extension, and derive child density matrices exactly,
with every construction cross-checked against an independent brute-force
route.
"""

from .f2 import BinMatrix, kernel, rank, row_reduce
from .graphs import (
    MixedGraph,
    GraphParseError,
    complete_multipartite_parts,
    dual_stabilizer,
    f4_matrix,
    maximal_independent_sets,
    mixed_rank,
    parse_graph,
    serialize_graph,
    stabilizer_matrix,
)
from .pauli import (
    BoundExceeded,
    DimensionError,
    GaussianMatrix,
    PauliWord,
    ordered_product,
)
from .subgroups import (
    GammaReduction,
    IsotropicSubspace,
    chi,
    commutes_via_gamma,
    enumerate_max_isotropic,
    gamma_order,
    gram_factor_search,
    membership_count,
    reduce_gamma,
    subgroup_isomorphism,
)
from .extension import (
    ExtensionError,
    ParentExtension,
    extend_e1,
    extend_for_subgroup,
    indicator,
    symmetrize,
    verify_full_commutation,
)
from .states import (
    ChildResult,
    DensityMatrix,
    child_from_partial_trace,
    child_from_pauli_sum,
    children_family_e1,
    convex_combine,
    sign_coefficients,
    stabilized_by,
)
from .signfree import commuting_subsets_oracle, e_direct, e_recursive

__version__ = "0.1.0"
