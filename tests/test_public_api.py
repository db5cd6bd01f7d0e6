"""Snapshot of the public API: ``cstarpinv.__all__`` and the signature of
every public callable.

A failure here means a public name or option was added, removed or changed.
If that is intended, update the snapshot and record the change in
``CHANGES.md``; a name dropped from ``__all__`` needs such a line.
"""

import inspect

import cstarpinv

PUBLIC_NAMES = [
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

# str(inspect.signature(f)) of each public callable; classes by their constructor
SIGNATURES = {
    "kernel_name": '()',
    "AlgebraSignature": "(block_sizes: 'tuple') -> None",
    "AlgebraElement": '(signature, blocks)',
    "elem_mul": '(a, b)',
    "elem_adjoint": '(a)',
    "elem_norm": '(a)',
    "elem_is_positive": '(a, tol=1e-10)',
    "ModuleVector": '(components)',
    "inner_product": '(x, y)',
    "vector_norm": '(x)',
    "direct_sum": '(x, y)',
    "direct_sum_inner": '(p, q)',
    "AdjointableOp": '(entries=None, *, signature=None, blocks=None)',
    "Projection": '(op)',
    "apply": '(t, x)',
    "adjoint_op": '(t)',
    "compose": '(t, s)',
    "flatten": '(t)',
    "unflatten": '(matrix, signature, shape, tol=1e-08)',
    "op_norm": '(t)',
    "off_pattern_mass": '(matrix, signature, shape)',
    "range_inclusion": '(b, c, tol=1e-08)',
    "projection_onto_range": '(t)',
    "SvdFactors": "(U: 'np.ndarray', singular_values: 'np.ndarray', V: 'np.ndarray') -> None",
    "svd_factor": '(matrix)',
    "PinvResult": "(pseudoinverse: 'AdjointableOp', rank: 'int', singular_values: 'np.ndarray', penrose_residuals: 'tuple', boundary_flag: 'bool', cutoff: 'float') -> None",
    "moore_penrose": "(t, rank_tol='auto')",
    "pinv_matrix": "(matrix, rank_tol='auto')",
    "ThetaClassReport": "(satisfied: 'frozenset', residuals: 'tuple') -> None",
    "theta_class": '(t, x, tol=1e-08)',
    "Lemma1Form": "(signature: 'AlgebraSignature', basis_ran_Tstar: 'tuple', basis_ker_T: 'tuple', basis_ran_T: 'tuple', basis_ker_Tstar: 'tuple', T1: 'tuple', reconstruction_residual: 'float') -> None",
    "RowBlockForm": "(T1: 'tuple', T2: 'tuple', D: 'tuple', pinv_formula: 'AdjointableOp', residual_vs_pinv: 'float', domain_basis_1: 'tuple', domain_basis_2: 'tuple', range_basis: 'tuple') -> None",
    "ColBlockForm": "(T1: 'tuple', T2: 'tuple', Dfrak: 'tuple', pinv_formula: 'AdjointableOp', residual_vs_pinv: 'float', codomain_basis_1: 'tuple', codomain_basis_2: 'tuple', corange_basis: 'tuple') -> None",
    "lemma1_form": '(t)',
    "row_block_form": '(t, p)',
    "col_block_form": '(t, q)',
    "pinv_via_gram": '(t)',
    "ConditionCheck": "(residual: 'float', verdict: 'bool') -> None",
    "RolCertificate": "(residual_rol: 'float', rol_verdict: 'bool', thm21: 'tuple', thm22: 'tuple', greville: 'tuple', consistent: 'bool', boundary_flag: 'bool', tol: 'float') -> None",
    "BlockConditionReport": "(c1: 'float', c2: 'float', c3a: 'float', c3b: 'float', d1: 'float', d2a: 'float', d2b: 'float', d3: 'float', boundary_flag: 'bool', tol: 'float') -> None",
    "check_thm21": '(t_op, s_op, tol=1e-08)',
    "check_thm22": '(t_op, s_op, tol=1e-08)',
    "check_corollary": '(t_op, s_op, tol=1e-08)',
    "block_conditions": '(t_op, s_op, tol=1e-08)',
    "gen_instance": '(kind, dims, signature=None, seed=0)',
}


def test_public_names_are_pinned():
    assert list(cstarpinv.__all__) == PUBLIC_NAMES
    assert all(hasattr(cstarpinv, name) for name in PUBLIC_NAMES)


def test_public_signatures_are_pinned():
    callables = [name for name in PUBLIC_NAMES if callable(getattr(cstarpinv, name))]
    assert callables == list(SIGNATURES)
    for name, expected in SIGNATURES.items():
        assert str(inspect.signature(getattr(cstarpinv, name))) == expected, name
