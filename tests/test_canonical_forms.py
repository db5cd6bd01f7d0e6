import numpy as np
import pytest

from cstarpinv import (
    AdjointableOp,
    AlgebraSignature,
    adjoint_op,
    col_block_form,
    compose,
    flatten,
    lemma1_form,
    moore_penrose,
    pinv_via_gram,
    projection_onto_range,
    row_block_form,
)
from cstarpinv.errors import InvalidDecompositionError
from cstarpinv.operators import op_norm

from conftest import (
    SIG1,
    SIG2,
    SIG12,
    SIGNATURES,
    conditioned_operator,
    count_norm_batches,
    count_svd_factor,
    random_operator,
    random_operator_with_rank,
)


def op1(matrix):
    return AdjointableOp.from_complex_matrix(matrix)


def assert_unitary(m, tol=1e-12):
    assert np.linalg.norm(m.conj().T @ m - np.eye(m.shape[1]), 2) <= tol


def test_lemma1_invertible(rng):
    t = random_operator(SIG1, 4, 4, rng)
    form = lemma1_form(t)
    (t1,) = form.T1
    assert t1.shape == (4, 4)
    assert form.reconstruction_residual <= 1e-10
    # T1 is unitarily similar to T: same singular values (LAPACK oracle)
    np.testing.assert_allclose(
        np.linalg.svd(t1, compute_uv=False),
        np.linalg.svd(flatten(t), compute_uv=False),
        atol=1e-12 * (1 + op_norm(t)),
    )
    target = flatten(moore_penrose(t).pseudoinverse)
    assert np.linalg.norm(flatten(form.assemble_pinv()) - target, 2) <= 1e-9 * (
        1 + np.linalg.norm(target, 2)
    )


def test_lemma1_zero_operator():
    t = AdjointableOp.zero(SIG2, 2, 3)
    form = lemma1_form(t)
    (t1,) = form.T1
    (ker,) = form.basis_ker_T
    assert t1.shape == (0, 0)
    assert ker.shape[1] == 6  # 3 columns of block size 2
    assert form.reconstruction_residual == 0.0
    assert np.all(flatten(form.assemble_pinv()) == 0)


def test_lemma1_rank_one_block():
    form = lemma1_form(op1([[1, 1], [0, 0]]))
    (t1,) = form.T1
    assert t1.shape == (1, 1)
    assert abs(t1[0, 0]) == pytest.approx(np.sqrt(2), rel=1e-14)


def test_lemma1_bases_and_reassembly(rng):
    for i in range(40):
        sig = SIGNATURES[i % 3]
        m = 2 + int(rng.integers(0, 2))
        k = 2 + int(rng.integers(0, 2))
        rank = 1 + int(rng.integers(0, min(m, k)))
        t = conditioned_operator(sig, m, k, rank, rng)
        form = lemma1_form(t)
        for v1, v2, u1, u2, t1 in zip(
            form.basis_ran_Tstar, form.basis_ker_T, form.basis_ran_T, form.basis_ker_Tstar, form.T1
        ):
            assert_unitary(np.concatenate([v1, v2], axis=1))
            assert_unitary(np.concatenate([u1, u2], axis=1))
            assert np.linalg.svd(t1, compute_uv=False)[-1] > 0
        assert form.reconstruction_residual <= 1e-10
        target = flatten(moore_penrose(t).pseudoinverse)
        assert np.linalg.norm(flatten(form.assemble_pinv()) - target, 2) <= 1e-9 * (
            1 + np.linalg.norm(target, 2)
        )


def test_row_block_form_full_projection(rng):
    # P = I collapses the split: D = T1 T1* and the formula is T*(T T*)^+
    t = conditioned_operator(SIG1, 3, 4, 2, rng)
    form = row_block_form(t, AdjointableOp.identity(SIG1, 4))
    (t2,) = form.T2
    assert t2.shape[1] == 0
    gram_route = flatten(pinv_via_gram(t))
    assert np.linalg.norm(flatten(form.pinv_formula) - gram_route, 2) <= 1e-9 * (
        1 + np.linalg.norm(gram_route, 2)
    )
    assert form.residual_vs_pinv <= 1e-9


def test_row_block_form_zero_operator():
    t = AdjointableOp.zero(SIG1, 3, 4)
    form = row_block_form(t, AdjointableOp.identity(SIG1, 4))
    (d,) = form.D
    assert d.shape == (0, 0)
    assert np.all(flatten(form.pinv_formula) == 0)


def test_row_block_form_random(rng):
    for i in range(60):
        sig = SIGNATURES[i % 3]
        m = 2 + int(rng.integers(0, 2))
        k = 2 + int(rng.integers(0, 2))
        rank = 1 + int(rng.integers(0, min(m, k)))
        t = conditioned_operator(sig, m, k, rank, rng)
        proj_rank = 1 + int(rng.integers(0, k))
        p = projection_onto_range(random_operator(sig, k, proj_rank, rng))
        form = row_block_form(t, p)
        # D is positive and invertible on Ran(T)
        for d in form.D:
            eigs = np.linalg.eigvalsh(d)
            assert eigs.min() > 0
            d_inv = np.linalg.solve(d, np.eye(d.shape[0]))
            assert np.linalg.norm(d @ d_inv - np.eye(d.shape[0]), 2) <= 1e-10
        assert form.residual_vs_pinv <= 1e-9


def test_row_block_form_4x4_rank2(rng):
    # 4x4 rank-2 operator against a rank-2 projection, SVD-based oracle
    for i in range(10):
        t = conditioned_operator(SIG1, 4, 4, 2, rng)
        p = projection_onto_range(random_operator(SIG1, 4, 2, rng))
        form = row_block_form(t, p)
        oracle = np.linalg.pinv(flatten(t))
        err = np.linalg.norm(flatten(form.pinv_formula) - oracle, 2)
        assert err <= 1e-9 * (1 + np.linalg.norm(oracle, 2))
        assert form.residual_vs_pinv <= 1e-9


def test_row_block_rejects_non_projection(rng):
    t = random_operator(SIG1, 3, 4, rng)
    with pytest.raises(InvalidDecompositionError):
        row_block_form(t, random_operator(SIG1, 4, 4, rng))
    with pytest.raises(InvalidDecompositionError):
        row_block_form(t, AdjointableOp.identity(SIG1, 3))  # wrong side


def test_split_forms_validate_a_raw_projection_once(monkeypatch, rng):
    # a Projection was validated when it was made, so a form on one takes a
    # single norm batch, its residual against the SVD pseudoinverse; a raw
    # operator takes one more, its validation
    batches = count_norm_batches(monkeypatch)
    for sig, (rows, cols) in ((SIG1, (4, 3)), (SIG12, (3, 4))):
        t = random_operator_with_rank(sig, rows, cols, 2, rng)
        domain = projection_onto_range(random_operator(sig, cols, 2, rng))
        codomain = projection_onto_range(random_operator(sig, rows, 2, rng))
        for form, p in ((row_block_form, domain), (col_block_form, codomain)):
            batches.clear()
            validated = form(t, p)
            assert len(batches) == 1
            raw = form(t, p.op)
            assert len(batches) == 3
            assert validated.residual_vs_pinv == raw.residual_vs_pinv


def test_col_block_form_full_projection(rng):
    # Q = I: G = T*T on Ran(T*) and the formula is (T*T)^+ T*
    t = conditioned_operator(SIG1, 4, 3, 2, rng)
    form = col_block_form(t, AdjointableOp.identity(SIG1, 4))
    t_star = adjoint_op(t)
    gram = compose(t_star, t)
    alt = flatten(compose(moore_penrose(gram).pseudoinverse, t_star))
    assert np.linalg.norm(flatten(form.pinv_formula) - alt, 2) <= 1e-9 * (
        1 + np.linalg.norm(alt, 2)
    )
    assert form.residual_vs_pinv <= 1e-9


def test_col_block_form_random(rng):
    for i in range(60):
        sig = SIGNATURES[i % 3]
        m = 2 + int(rng.integers(0, 2))
        k = 2 + int(rng.integers(0, 2))
        rank = 1 + int(rng.integers(0, min(m, k)))
        t = conditioned_operator(sig, m, k, rank, rng)
        proj_rank = 1 + int(rng.integers(0, m))
        q = projection_onto_range(random_operator(sig, m, proj_rank, rng))
        form = col_block_form(t, q)
        for g in form.Dfrak:
            assert np.linalg.eigvalsh(g).min() > 0
        assert form.residual_vs_pinv <= 1e-9
        # zero operator edge
    form = col_block_form(AdjointableOp.zero(SIG1, 3, 2), AdjointableOp.identity(SIG1, 3))
    assert np.all(flatten(form.pinv_formula) == 0)


def test_gram_route_examples(rng):
    t = random_operator(SIG1, 3, 3, rng)
    inv = np.linalg.inv(flatten(t))
    assert np.linalg.norm(flatten(pinv_via_gram(t)) - inv, 2) <= 1e-11 * np.linalg.cond(
        flatten(t)
    ) * (1 + np.linalg.norm(inv, 2))
    # row vector: T = [1, 1] has T^+ = T*/2
    row = op1([[1, 1]])
    np.testing.assert_allclose(flatten(pinv_via_gram(row)), [[0.5], [0.5]], atol=1e-14)


def test_gram_route_random_agreement(rng):
    for i in range(60):
        sig = SIGNATURES[i % 3]
        m = 2 + int(rng.integers(0, 2))
        k = 2 + int(rng.integers(0, 2))
        rank = 1 + int(rng.integers(0, min(m, k)))
        t = conditioned_operator(sig, m, k, rank, rng)
        lhs = flatten(pinv_via_gram(t))
        rhs = flatten(moore_penrose(t).pseudoinverse)
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-9 * (1 + np.linalg.norm(rhs, 2))


def test_gram_block_structure(rng):
    # T T* in the (Ran(T), Ker(T*)) basis is [[D, 0], [0, 0]]
    for i in range(30):
        sig = SIGNATURES[i % 3]
        t = conditioned_operator(sig, 3, 3, 1 + (i % 3), rng)
        form = lemma1_form(t)
        for m, u1, u2, t1 in zip(t.blocks, form.basis_ran_T, form.basis_ker_Tstar, form.T1):
            basis = np.concatenate([u1, u2], axis=1)
            transformed = basis.conj().T @ (m @ m.conj().T) @ basis
            r = t1.shape[0]
            off = transformed.copy()
            off[:r, :r] = 0.0
            assert np.linalg.norm(off, 2) <= 1e-10 * (1 + op_norm(t) ** 2)


def test_three_routes_agree(rng):
    for i in range(30):
        sig = SIGNATURES[i % 3]
        t = conditioned_operator(sig, 3, 4, 1 + (i % 3), rng)
        reference = flatten(moore_penrose(t).pseudoinverse)
        scale = 1 + np.linalg.norm(reference, 2)
        routes = [
            flatten(lemma1_form(t).assemble_pinv()),
            flatten(row_block_form(t, projection_onto_range(adjoint_op(t))).pinv_formula),
            flatten(pinv_via_gram(t)),
        ]
        for route in routes:
            assert np.linalg.norm(route - reference, 2) <= 1e-9 * scale


def test_canonical_forms_build_no_flattening_and_no_entry_grid(rng, monkeypatch):
    # every form is computed per algebra block; the flattening and the
    # AlgebraElement grid are only views for importing and exporting
    import cstarpinv.algebra as algebra
    import cstarpinv.operators as operators

    cases = []
    for sig in (SIG12, AlgebraSignature((2, 2, 3))):
        t = conditioned_operator(sig, 3, 2, 1, rng)
        p = projection_onto_range(random_operator(sig, 2, 1, rng))
        q = projection_onto_range(random_operator(sig, 3, 2, rng))
        cases.append((t, p, q))

    def forbidden(*args, **kwargs):
        raise AssertionError("a canonical form built a flattening or an AlgebraElement")

    monkeypatch.setattr(operators, "_flat_matrix", forbidden)
    monkeypatch.setattr(operators, "_entry_grid", forbidden)
    monkeypatch.setattr(algebra.AlgebraElement, "__init__", forbidden)
    routes = [
        (
            lemma1_form(t).assemble_pinv(),
            row_block_form(t, p).pinv_formula,
            col_block_form(t, q).pinv_formula,
            pinv_via_gram(t),
        )
        for t, p, q in cases
    ]
    monkeypatch.undo()

    for (t, _, _), pinvs in zip(cases, routes):
        reference = flatten(moore_penrose(t).pseudoinverse)
        scale = 1 + np.linalg.norm(reference, 2)
        for route in pinvs:
            assert np.linalg.norm(flatten(route) - reference, 2) <= 1e-9 * scale


@pytest.mark.parametrize(
    "shape, per_block", [((3, 3), 1), ((3, 2), 2), ((2, 3), 2)], ids=("square", "tall", "wide")
)
def test_lemma1_form_factorizations_per_block(monkeypatch, rng, shape, per_block):
    # a square factor gives its complement as its own trailing columns; only
    # the long-side factor of a non-square block needs a projector factored
    t = random_operator_with_rank(SIG12, *shape, 1, rng)
    calls = count_svd_factor(monkeypatch)
    form = lemma1_form(t)
    assert len(calls) == per_block * len(t.blocks)
    for m, u1, u2, v1, v2 in zip(
        t.blocks, form.basis_ran_T, form.basis_ker_Tstar, form.basis_ran_Tstar, form.basis_ker_T
    ):
        for w1, w2 in ((u1, u2), (v1, v2)):
            w = np.concatenate([w1, w2], axis=1)
            assert np.linalg.norm(w.conj().T @ w - np.eye(w.shape[0]), 2) <= 1e-13
        assert np.linalg.norm(m @ v2, 2) <= 1e-13 and np.linalg.norm(u2.conj().T @ m, 2) <= 1e-13
    assert form.reconstruction_residual <= 1e-13
