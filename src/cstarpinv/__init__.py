"""Operator calculus on finite-dimensional Hilbert C*-modules.

Moore-Penrose inverses, canonical block decompositions, and certified
reverse-order-law predicates for adjointable operators over block-diagonal
C*-algebras, together with a file-based CLI and a seeded fuzzing harness.
"""

from ._kernels import kernel_name
from .algebra import (
    AlgebraElement,
    AlgebraSignature,
    elem_adjoint,
    elem_is_positive,
    elem_mul,
    elem_norm,
)
from .canonical_forms import (
    ColBlockForm,
    Lemma1Form,
    RowBlockForm,
    col_block_form,
    lemma1_form,
    pinv_via_gram,
    row_block_form,
)
from .module_space import (
    ModuleVector,
    direct_sum,
    direct_sum_inner,
    inner_product,
    vector_norm,
)
from .operators import (
    AdjointableOp,
    Projection,
    adjoint_op,
    apply,
    compose,
    flatten,
    off_pattern_mass,
    op_norm,
    unflatten,
)
from .pinv import (
    PinvResult,
    SvdFactors,
    ThetaClassReport,
    moore_penrose,
    pinv_matrix,
    projection_onto_range,
    range_inclusion,
    svd_factor,
    theta_class,
)
from .reverse_order import (
    BlockConditionReport,
    ConditionCheck,
    RolCertificate,
    block_conditions,
    check_corollary,
    check_thm21,
    check_thm22,
    gen_instance,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "kernel_name",
    "AlgebraSignature",
    "AlgebraElement",
    "elem_mul",
    "elem_adjoint",
    "elem_norm",
    "elem_is_positive",
    "ModuleVector",
    "inner_product",
    "vector_norm",
    "direct_sum",
    "direct_sum_inner",
    "AdjointableOp",
    "Projection",
    "apply",
    "adjoint_op",
    "compose",
    "flatten",
    "unflatten",
    "op_norm",
    "off_pattern_mass",
    "range_inclusion",
    "projection_onto_range",
    "SvdFactors",
    "svd_factor",
    "PinvResult",
    "moore_penrose",
    "pinv_matrix",
    "ThetaClassReport",
    "theta_class",
    "Lemma1Form",
    "RowBlockForm",
    "ColBlockForm",
    "lemma1_form",
    "row_block_form",
    "col_block_form",
    "pinv_via_gram",
    "ConditionCheck",
    "RolCertificate",
    "BlockConditionReport",
    "check_thm21",
    "check_thm22",
    "check_corollary",
    "block_conditions",
    "gen_instance",
]
