"""Exact mixed graph state toolkit.

Construct Pauli stabilizer matrices of mixed graphs, enumerate the maximal
commutative subgroups of the dual group, build pure parent graph states by
minimal environmental extension, and derive child density matrices exactly,
with every construction cross-checked against an independent brute-force
route.

No command calls the library API kept for the paper's side propositions.
Tier-1 tests check each claim, not ``verify``: a new check name would change
every ``verify`` report, and the benchmark pins those reports.

- ``commutes_via_gamma``: dual products v, v' commute iff v Gamma v'^T = 0.
- ``membership_count``: an element outside ker Gamma lies in chi(e - 1)
  maximal subgroups, and a kernel element in all chi(e).
- ``gamma_order``: an invertible gamma_tilde has even order.
- ``gram_factor_search``: no square Omega has Omega Omega^T = gamma_tilde.
- ``subgroup_isomorphism``, ``apply_row_map``: equal n and e make the dual
  groups isomorphic as commutation structures.
- ``convex_combine``: the uniform mixture of the e = 1 children is still
  fixed by every stabilizer row.
"""

from .f2 import BinMatrix, kernel, rank
from .graphs import (
    MixedGraph,
    GraphParseError,
    complete_multipartite_parts,
    dual_stabilizer,
    f4_matrix,
    maximal_independent_sets,
    mixed_rank,
    parse_graph,
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
    SubgroupBatch,
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
    ParentBatch,
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
    stabilized_by,
)
from .signfree import commuting_subsets_oracle, e_direct, e_recursive

__version__ = "0.1.0"
