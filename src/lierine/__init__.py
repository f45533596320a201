"""Exact computer algebra for Lie-Rinehart structures.

Everything computes over the rationals with no floating point: linear
algebra in `exactla`, finite-dimensional commutative algebras in
`calgebra`, Lie-Rinehart structures and their cohomology in `lrcore`,
the Gerstenhaber bracket and generating operators in `gerst`, two-sided
action pairs and their bicomplexes in `twilled`, dual pairs in `bialg`,
and the `lierine` command line in `cli`.
"""

from .calgebra import AElem, CommAlg, Derivation, alg_validate, derivation_validate
from .exactla import RatMatrix, SparseMatrix, mat_kernel_basis, mat_rank, mat_solve
from .reporting import Violation
from .lrcore import (
    AltForm,
    LieRinehart,
    LRModule,
    ce_differential,
    ce_matrix,
    cohomology_dims,
    lr_validate,
    trivial_coefficients,
)
from .gerst import (
    GeneratorOp,
    Multivector,
    TopConnection,
    connection_curvature,
    generator_from_connection,
    generator_square,
    generator_to_connection,
    generator_validate,
    schouten_bracket,
)
from .twilled import (
    AlmostTwilled,
    Bigraded,
    bicomplex_square_check,
    bigraded_generator_extend,
    bigraded_generator_validate,
    bv_commutator_check,
    crossed_bracket,
    dg_gerstenhaber_check,
    dg_lie_check,
    is_twilled,
    total_complex_cohomology_check,
    twilled_sum,
)
from .bialg import (
    DualPair,
    bialgebra_check,
    dual_module_action,
    matched_pair_from_bialgebra,
    semidirect_dual_pair,
    semidirect_duality_check,
    semidirect_product,
    twilled_vs_bialgebra_check,
)
from .cli import InstanceSet, parse_instance, serialize_instance

__version__ = "0.1.0"

__all__ = [
    "AElem",
    "AlmostTwilled",
    "AltForm",
    "Bigraded",
    "CommAlg",
    "Derivation",
    "DualPair",
    "GeneratorOp",
    "InstanceSet",
    "LieRinehart",
    "LRModule",
    "Multivector",
    "RatMatrix",
    "SparseMatrix",
    "TopConnection",
    "Violation",
    "alg_validate",
    "bialgebra_check",
    "bicomplex_square_check",
    "bigraded_generator_extend",
    "bigraded_generator_validate",
    "bv_commutator_check",
    "ce_differential",
    "ce_matrix",
    "cohomology_dims",
    "connection_curvature",
    "crossed_bracket",
    "derivation_validate",
    "dg_gerstenhaber_check",
    "dg_lie_check",
    "dual_module_action",
    "generator_from_connection",
    "generator_square",
    "generator_to_connection",
    "generator_validate",
    "is_twilled",
    "mat_kernel_basis",
    "mat_rank",
    "mat_solve",
    "lr_validate",
    "matched_pair_from_bialgebra",
    "parse_instance",
    "schouten_bracket",
    "semidirect_dual_pair",
    "semidirect_duality_check",
    "semidirect_product",
    "serialize_instance",
    "total_complex_cohomology_check",
    "twilled_sum",
    "twilled_vs_bialgebra_check",
    "trivial_coefficients",
]
