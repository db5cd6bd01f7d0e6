import numpy as np
import pytest

from cstarpinv import (
    AdjointableOp,
    AlgebraElement,
    AlgebraSignature,
    ModuleVector,
    Projection,
    adjoint_op,
    apply,
    compose,
    flatten,
    inner_product,
    off_pattern_mass,
    range_inclusion,
    unflatten,
    vector_norm,
)
from cstarpinv.errors import ConformabilityError, InvalidDecompositionError, StructureError
from cstarpinv.module_space import stack_vector
from cstarpinv._numeric import spec_norm
from cstarpinv.operators import _unflatten_with_mass, op_norm
from cstarpinv.pinv import moore_penrose

from conftest import (
    SIG1,
    SIG2,
    SIG12,
    SIGNATURES,
    count_norm_batches,
    random_element,
    random_operator,
    random_operator_with_rank,
)


def op1(matrix):
    return AdjointableOp.from_complex_matrix(matrix)


def test_apply_examples(rng):
    ident = AdjointableOp.identity(SIG2, 3)
    x = ModuleVector([random_element(SIG2, rng) for _ in range(3)])
    assert vector_norm(apply(ident, x) - x) <= 1e-15
    zero = AdjointableOp.zero(SIG2, 2, 3)
    assert vector_norm(apply(zero, x)) == 0.0

    t = op1([[1, 1], [0, 0]])
    y = apply(t, ModuleVector([AlgebraElement(SIG1, [[[1]]]), AlgebraElement(SIG1, [[[1]]])]))
    np.testing.assert_allclose(stack_vector(y), [2.0, 0.0], atol=1e-15)


def test_apply_conformability():
    t = op1([[1, 1], [0, 0]])
    x = ModuleVector([AlgebraElement.identity(SIG1)] * 3)
    with pytest.raises(ConformabilityError):
        apply(t, x)


def test_adjoint_examples(rng):
    for sig in SIGNATURES:
        t = random_operator(sig, 3, 2, rng)
        assert op_norm(adjoint_op(adjoint_op(t)) - t) <= 1e-15
        ident = AdjointableOp.identity(sig, 2)
        assert op_norm(adjoint_op(ident) - ident) == 0.0


def test_adjoint_defining_identity(rng):
    # evaluate <Tx, y> and <x, T*y> through independent applications
    for sig in SIGNATURES:
        t = random_operator(sig, 3, 2, rng)
        x = ModuleVector([random_element(sig, rng) for _ in range(2)])
        y = ModuleVector([random_element(sig, rng) for _ in range(3)])
        lhs = inner_product(apply(t, x), y)
        rhs = inner_product(x, apply(adjoint_op(t), y))
        scale = 1 + vector_norm(x) * vector_norm(y) * op_norm(t)
        assert (lhs - rhs).norm() <= 1e-12 * scale


def test_compose_examples(rng):
    t = random_operator(SIG12, 3, 2, rng)
    ident = AdjointableOp.identity(SIG12, 2)
    assert op_norm(compose(t, ident) - t) <= 1e-15
    s = random_operator(SIG12, 2, 4, rng)
    ts = compose(t, s)
    # adjoint anti-homomorphism
    assert op_norm(adjoint_op(ts) - compose(adjoint_op(s), adjoint_op(t))) <= 1e-12 * (
        1 + op_norm(ts)
    )
    # flattening is multiplicative
    np.testing.assert_allclose(
        flatten(ts), flatten(t) @ flatten(s), atol=1e-13 * (1 + op_norm(t) * op_norm(s))
    )


def test_compose_conformability(rng):
    t = random_operator(SIG1, 3, 2, rng)
    with pytest.raises(ConformabilityError):
        compose(t, random_operator(SIG1, 3, 2, rng))
    with pytest.raises(ConformabilityError):
        compose(t, random_operator(SIG2, 2, 2, rng))
    b = random_operator(SIG1, 3, 2, rng)
    with pytest.raises(ValueError):
        range_inclusion(b, t, tol=0.0)


def test_flatten_signature_one_is_entry_matrix():
    matrix = np.array([[1 + 2j, 3], [0, -1j]])
    t = op1(matrix)
    np.testing.assert_array_equal(flatten(t), matrix)


def test_flatten_star_homomorphism(rng):
    for sig in SIGNATURES:
        t = random_operator(sig, 2, 3, rng)
        np.testing.assert_allclose(flatten(adjoint_op(t)), flatten(t).conj().T, atol=1e-15)


def test_flatten_left_multiplication_blocks(rng):
    # single entry a over signature [2]: the flattened 4x4 block sends the
    # column-stacked basis matrix E_ij to the stacking of a @ E_ij
    a = random_element(SIG2, rng)
    t = AdjointableOp([[a]])
    flat = flatten(t)
    basis = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
    for col, (i, j) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
        basis[col][i, j] = 1.0
    for col, e in enumerate(basis):
        image = flat @ e.flatten(order="F")
        expected = (a.blocks[0] @ e).flatten(order="F")
        np.testing.assert_allclose(image, expected, atol=1e-15)


def test_flatten_faithful_on_vectors(rng):
    for sig in SIGNATURES:
        t = random_operator(sig, 3, 2, rng)
        x = ModuleVector([random_element(sig, rng) for _ in range(2)])
        lhs = stack_vector(apply(t, x))
        rhs = flatten(t) @ stack_vector(x)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(rhs))


def test_right_action_commutes(rng):
    for sig in SIGNATURES:
        t = random_operator(sig, 3, 2, rng)
        x = ModuleVector([random_element(sig, rng) for _ in range(2)])
        a = random_element(sig, rng)
        lhs = apply(t, x.scale_right(a))
        rhs = apply(t, x).scale_right(a)
        assert vector_norm(lhs - rhs) <= 1e-12 * (1 + vector_norm(rhs))


def test_unflatten_roundtrip(rng):
    for sig in SIGNATURES:
        t = random_operator(sig, 2, 3, rng)
        back = unflatten(flatten(t), sig, (2, 3))
        assert op_norm(back - t) == 0.0
    zero = unflatten(np.zeros((4, 8)), SIG2, (1, 2), tol=1e-10)
    assert op_norm(zero) == 0.0


def test_unflatten_rejects_off_pattern():
    rng = np.random.default_rng(3)
    bad = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(StructureError):
        unflatten(bad, SIG2, (1, 1), tol=1e-8)
    with pytest.raises(ConformabilityError):
        unflatten(np.zeros((3, 4)), SIG2, (1, 1))


def test_pinv_of_flattening_is_in_pattern(rng):
    # independent oracle: numpy's pseudoinverse of the flattening must stay
    # inside the left-multiplication pattern (it commutes with the algebra)
    for sig in (SIG2, SIG12):
        t = random_operator_with_rank(sig, 3, 3, 2, rng)
        pinv = np.linalg.pinv(flatten(t))
        op = unflatten(pinv, sig, (3, 3), tol=1e-10)
        off = np.linalg.norm(pinv - flatten(op), 2)
        assert off <= 1e-10 * (1 + np.linalg.norm(pinv, 2))


def test_range_inclusion_examples(rng):
    b = random_operator(SIG1, 3, 2, rng)
    ident = AdjointableOp.identity(SIG1, 3)
    ok, residual = range_inclusion(b, ident, 1e-10)
    assert ok and residual <= 1e-14

    zero = AdjointableOp.zero(SIG1, 3, 2)
    ok, residual = range_inclusion(ident, zero, 1e-10)
    assert not ok and residual > 0.1

    b = op1([[1, 0], [0, 0]])
    c = op1([[1, 1], [0, 0]])
    ok, residual = range_inclusion(b, c, 1e-10)
    # both ranges are the first coordinate axis; (I - C C^+) B = 0
    assert ok and residual <= 1e-14

    with pytest.raises(ConformabilityError):
        range_inclusion(b, random_operator(SIG1, 4, 2, rng), 1e-10)


def test_kernel_range_decomposition(rng):
    # E = Ker(T) (+) Ran(T*) through the projections I - T^+T and T^+T
    for i in range(200):
        sig = SIGNATURES[i % 3]
        m, k = 2 + int(rng.integers(0, 2)), 2 + int(rng.integers(0, 2))
        rank = 1 + int(rng.integers(0, min(m, k)))
        t = random_operator_with_rank(sig, m, k, rank, rng)
        x = moore_penrose(t).pseudoinverse
        p_ranstar = flatten(x) @ flatten(t)
        p_ker = np.eye(p_ranstar.shape[0]) - p_ranstar
        assert np.linalg.norm(p_ker + p_ranstar - np.eye(p_ranstar.shape[0]), 2) <= 1e-10
        assert np.linalg.norm(p_ker @ p_ranstar, 2) <= 1e-10


def test_range_of_gram_equals_range(rng):
    # Ran(T) = Ran(T T*), certified by inclusion in both directions
    for i in range(200):
        sig = SIGNATURES[i % 3]
        m, k = 2 + int(rng.integers(0, 2)), 2 + int(rng.integers(0, 2))
        rank = 1 + int(rng.integers(0, min(m, k)))
        t = random_operator_with_rank(sig, m, k, rank, rng)
        gram = compose(t, adjoint_op(t))
        ok1, r1 = range_inclusion(t, gram, 1e-8)
        ok2, r2 = range_inclusion(gram, t, 1e-8)
        assert ok1 and ok2, (r1, r2)


def test_projection_validation(rng):
    t = random_operator_with_rank(SIG1, 4, 4, 2, rng)
    x = moore_penrose(t).pseudoinverse
    proj = compose(t, x)
    Projection(proj)  # valid
    with pytest.raises(InvalidDecompositionError):
        Projection(random_operator(SIG1, 4, 4, rng))


def test_projection_onto_range_reads_the_pseudoinverse_blocks(monkeypatch, rng):
    # T T^+ from the per-block pseudoinverses: bit for bit the product with
    # moore_penrose's pseudoinverse, without the Penrose residuals it would
    # evaluate and discard; the projection's three norms are one batch
    from cstarpinv import projection_onto_range

    batches = count_norm_batches(monkeypatch)
    for sig, shape in ((SIG1, (4, 3)), (SIG12, (3, 4)), (SIG2, (3, 3))):
        t = random_operator_with_rank(sig, *shape, 2, rng)
        fresh = [AdjointableOp.from_blocks(sig, t.blocks) for _ in range(2)]
        batches.clear()
        p = projection_onto_range(fresh[0])
        assert batches == [3 * len(sig.block_sizes)]
        old = Projection(fresh[1] @ moore_penrose(fresh[1]).pseudoinverse)
        assert len(batches) == 3
        for a, b in zip(p.op.blocks, old.op.blocks):
            assert a.tobytes() == b.tobytes()


def test_operator_immutable(rng):
    t = random_operator(SIG1, 2, 2, rng)
    with pytest.raises(AttributeError):
        t.rows = 5
    with pytest.raises(ValueError):
        flatten(t)[0, 0] = 1.0


def test_computed_operators_wrap_their_blocks(rng):
    t = random_operator(SIG12, 2, 3, rng)
    s = random_operator(SIG12, 3, 2, rng)
    computed = (
        t,
        t @ s,
        adjoint_op(t),
        t + t,
        t - t,
        t.scale(2j),
        random_operator_with_rank(SIG12, 2, 3, 1, rng),
    )
    for op in computed:
        copied = AdjointableOp.from_blocks(op.signature, op.blocks)
        for block, copy in zip(op.blocks, copied.blocks):
            assert not block.flags.writeable
            # the memory layout the copy would give, so no later product
            # reads its operands in another order
            assert (block.flags.c_contiguous, block.flags.f_contiguous) == (
                copy.flags.c_contiguous,
                copy.flags.f_contiguous,
            )
            assert block.dtype == complex and block.tobytes() == copy.tobytes()
    # blocks from outside the package are copied
    block = np.eye(2, dtype=complex)
    op = AdjointableOp.from_blocks(SIG1, [block])
    block[0, 0] = 5.0
    assert op.blocks[0][0, 0] == 1.0 and not np.shares_memory(op.blocks[0], block)


# The flattening map the package used before its one strided view: one index
# array per copy q of kron(I_n, T_i), element r*n + a of copy q at flattened
# row r*d + offset_i + q*n + a (the same map for the columns), read and
# written with np.ix_.  Kept here as the reference the view is pinned to.
def _reference_index(signature, count):
    d = signature.dim
    starts = np.arange(count)[:, None] * d
    return [
        [(starts + offset + q * n + np.arange(n)).ravel() for q in range(n)]
        for n, offset in zip(signature.block_sizes, signature.block_offsets)
    ]


def _reference_flatten(t):
    flat = np.zeros(t.flat_shape, dtype=complex)
    row_index = _reference_index(t.signature, t.rows)
    col_index = _reference_index(t.signature, t.cols)
    for block, rows, cols in zip(t.blocks, row_index, col_index):
        for r, c in zip(rows, cols):
            flat[np.ix_(r, c)] = block
    return flat


def _reference_unflatten_blocks(matrix, signature, shape):
    rows, cols = shape
    return [
        sum(matrix[np.ix_(r, c)] for r, c in zip(row_copies, col_copies)) / n
        for n, row_copies, col_copies in zip(
            signature.block_sizes,
            _reference_index(signature, rows),
            _reference_index(signature, cols),
        )
    ]


FLATTENING_SIGNATURES = tuple(
    AlgebraSignature(sizes) for sizes in ((1,), (2,), (1, 2), (2, 2, 3), (3, 1))
)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("sig", FLATTENING_SIGNATURES, ids=lambda s: str(list(s.block_sizes)))
@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 2), (2, 2)])
def test_flattening_map_matches_index_reference_bit_for_bit(sig, shape):
    rng = np.random.default_rng(sum(sig.block_sizes) * 100 + shape[0] * 10 + shape[1])
    rows, cols = shape
    t = random_operator(sig, rows, cols, rng)
    # signed zeros too: the copies' sum starts from 0, which turns -0.0 into 0.0
    blocks = [np.where(b.real > 0.5, complex(-0.0, -0.0), b) for b in t.blocks]
    for op in (t, AdjointableOp.from_blocks(sig, blocks), AdjointableOp.zero(sig, rows, cols)):
        flat = flatten(op)
        assert _same_bits(flat, _reference_flatten(op))
        noise = 1e-3 * (
            rng.standard_normal(flat.shape) + 1j * rng.standard_normal(flat.shape)
        )
        for matrix in (flat, flat + noise, np.asfortranarray(flat + noise)):
            back, off = _unflatten_with_mass(matrix, sig, shape)
            reference = _reference_unflatten_blocks(matrix, sig, shape)
            assert all(_same_bits(a, b) for a, b in zip(back.blocks, reference))
            expected_off = spec_norm(matrix - _reference_flatten(back))
            assert off == expected_off == off_pattern_mass(matrix, sig, shape)


@pytest.mark.parametrize("sizes", [(1,), (2,), (1, 2), (2, 2, 3)])
def test_random_operator_is_successive_random_element_draws(sizes):
    # an r x c operator is r*c successive element draws, row-major, bit for
    # bit, and leaves the stream where those draws leave it
    sig = AlgebraSignature(sizes)
    rows, cols = 3, 2
    whole_rng, entry_rng = np.random.default_rng(5), np.random.default_rng(5)
    whole = random_operator(sig, rows, cols, whole_rng)
    by_entry = AdjointableOp(
        [[random_element(sig, entry_rng) for _ in range(cols)] for _ in range(rows)]
    )
    for a, b in zip(whole.blocks, by_entry.blocks):
        assert a.tobytes() == b.tobytes()
    assert whole_rng.standard_normal() == entry_rng.standard_normal()
    # an element is complex Ginibre, block by block: real parts, then imaginary
    elem_rng, oracle = np.random.default_rng(6), np.random.default_rng(6)
    for n, block in zip(sizes, random_element(sig, elem_rng).blocks):
        re, im = oracle.standard_normal((n, n)), oracle.standard_normal((n, n))
        assert block.tobytes() == ((re + 1j * im) / np.sqrt(2.0)).tobytes()
