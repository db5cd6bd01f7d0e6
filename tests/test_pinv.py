import numpy as np
import pytest

from cstarpinv import (
    AdjointableOp,
    adjoint_op,
    compose,
    flatten,
    moore_penrose,
    pinv_matrix,
    svd_factor,
    theta_class,
)
from cstarpinv.errors import ConformabilityError, ParameterError
from cstarpinv.operators import op_norm, range_inclusion
from cstarpinv.pinv import orthogonal_complement, penrose_residuals, rank_decision

from conftest import (
    SIG1,
    SIG2,
    SIG12,
    SIGNATURES,
    assert_penrose,
    conditioned_operator,
    count_svd_factor,
    random_complex,
    random_operator,
    random_operator_with_rank,
)


def op1(matrix):
    return AdjointableOp.from_complex_matrix(matrix)


def test_svd_examples():
    f = svd_factor(np.eye(4))
    np.testing.assert_allclose(f.singular_values, np.ones(4))
    f = svd_factor(np.zeros((3, 3)))
    np.testing.assert_allclose(f.singular_values, np.zeros(3))
    # eigenvalues of M M^H for [[1,1],[0,0]] are {2, 0}
    f = svd_factor(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert f.singular_values[0] == pytest.approx(np.sqrt(2), rel=1e-14)
    assert f.singular_values[1] <= 1e-15


def test_moore_penrose_diagonal():
    result = moore_penrose(op1([[2, 0], [0, 0]]))
    np.testing.assert_allclose(flatten(result.pseudoinverse), [[0.5, 0], [0, 0]], atol=1e-15)
    assert result.rank == 1
    assert not result.boundary_flag


def test_moore_penrose_invertible(rng):
    t = random_operator(SIG1, 4, 4, rng)
    result = moore_penrose(t)
    # oracle: plain matrix inverse
    np.testing.assert_allclose(
        flatten(result.pseudoinverse),
        np.linalg.inv(flatten(t)),
        atol=1e-12 * np.linalg.cond(flatten(t)),
    )
    assert result.rank == 4


def test_moore_penrose_frozen_example():
    t = op1([[1, 1], [0, 0]])
    x = moore_penrose(t).pseudoinverse
    np.testing.assert_allclose(flatten(x), [[0.5, 0], [0.5, 0]], atol=1e-14)
    # substitution into all four defining equations (independent oracle)
    assert_penrose(flatten(t), [[0.5, 0], [0.5, 0]], tol=1e-15)


def test_penrose_residuals_random(rng):
    for i in range(60):
        sig = SIGNATURES[i % 3]
        m = 2 + int(rng.integers(0, 3))
        k = 2 + int(rng.integers(0, 3))
        rank = 1 + int(rng.integers(0, min(m, k)))
        t = random_operator_with_rank(sig, m, k, rank, rng)
        result = moore_penrose(t)
        assert result.rank == rank * sig.dim
        if not result.boundary_flag:
            assert max(result.penrose_residuals) <= 1e-10


def test_range_and_kernel_of_pinv(rng):
    # Ran(T^+) = Ran(T*) and Ker(T^+) = Ker(T*)
    t = random_operator_with_rank(SIG2, 3, 3, 2, rng)
    x = moore_penrose(t).pseudoinverse
    t_star = adjoint_op(t)
    ok1, _ = range_inclusion(x, t_star, 1e-8)
    ok2, _ = range_inclusion(t_star, x, 1e-8)
    assert ok1 and ok2
    # kernels agree iff ranges of the adjoints agree
    ok3, _ = range_inclusion(adjoint_op(x), t, 1e-8)
    ok4, _ = range_inclusion(t, adjoint_op(x), 1e-8)
    assert ok3 and ok4


def test_theta_class_full_set(rng):
    # the Moore-Penrose inverse is the unique {1,2,3,4}-inverse
    t = random_operator_with_rank(SIG12, 3, 2, 2, rng)
    x = moore_penrose(t).pseudoinverse
    report = theta_class(t, x, 1e-10)
    assert report.satisfied == frozenset({1, 2, 3, 4})


def test_theta_class_zero_candidate(rng):
    t = random_operator(SIG1, 3, 2, rng)
    zero = AdjointableOp.zero(SIG1, 2, 3)
    report = theta_class(t, zero, 1e-10)
    assert report.satisfied == frozenset({2, 3, 4})


def test_theta_class_product_candidate(rng):
    # membership determined by an independent dense substitution oracle
    t = op1([[1, 1], [0, 0]])
    s = op1([[1, 0], [1, 0]])
    ts = compose(t, s)
    candidate = compose(moore_penrose(s).pseudoinverse, moore_penrose(t).pseudoinverse)
    report = theta_class(ts, candidate, 1e-10)

    ts_m = flatten(ts)
    x_m = np.linalg.pinv(flatten(s)) @ np.linalg.pinv(flatten(t))
    tx = ts_m @ x_m
    xt = x_m @ ts_m
    defects = (
        np.linalg.norm(tx @ ts_m - ts_m),
        np.linalg.norm(xt @ x_m - x_m),
        np.linalg.norm(tx - tx.conj().T),
        np.linalg.norm(xt - xt.conj().T),
    )
    expected = frozenset(i + 1 for i, d in enumerate(defects) if d <= 1e-10)
    assert report.satisfied == expected


def test_theta_class_conformability(rng):
    t = random_operator(SIG1, 3, 2, rng)
    with pytest.raises(ConformabilityError):
        theta_class(t, random_operator(SIG1, 3, 2, rng), 1e-8)


def test_uniqueness_of_full_inverse(rng):
    for i in range(25):
        sig = SIGNATURES[i % 3]
        t = random_operator_with_rank(sig, 3, 3, 2, rng)
        # independent candidate from LAPACK, projected to the pattern
        from cstarpinv.operators import unflatten

        x = unflatten(np.linalg.pinv(flatten(t)), sig, (3, 3), tol=1e-8)
        assert theta_class(t, x, 1e-10).satisfied == frozenset({1, 2, 3, 4})
        ours = moore_penrose(t).pseudoinverse
        assert op_norm(x - ours) <= 1e-8 * (1 + op_norm(ours))


def test_pinv_involution_and_adjoint(rng):
    for i in range(200):
        sig = SIGNATURES[i % 3]
        m = 2 + int(rng.integers(0, 2))
        k = 2 + int(rng.integers(0, 2))
        rank = 1 + int(rng.integers(0, min(m, k)))
        t = random_operator_with_rank(sig, m, k, rank, rng)
        x = moore_penrose(t).pseudoinverse
        back = moore_penrose(x).pseudoinverse
        assert op_norm(back - t) <= 1e-10 * (1 + op_norm(t))
        lhs = moore_penrose(adjoint_op(t)).pseudoinverse
        assert op_norm(lhs - adjoint_op(x)) <= 1e-10 * (1 + op_norm(x))


def test_gram_identity(rng):
    # (T T*)^+ = (T*)^+ T^+ (reverse order law for S = T*); the identity
    # passes through the squared spectrum, so bounded conditioning is needed
    # at this tolerance
    for i in range(60):
        sig = SIGNATURES[i % 3]
        t = conditioned_operator(sig, 3, 3, 1 + (i % 3), rng)
        gram = compose(t, adjoint_op(t))
        lhs = flatten(moore_penrose(gram).pseudoinverse)
        tp = flatten(moore_penrose(t).pseudoinverse)
        rhs = tp.conj().T @ tp
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-9 * (1 + np.linalg.norm(lhs, 2))


def test_rank_decision_and_boundary_flag():
    # auto cutoff for shape (2,2) and s1=1 is 2*eps ~ 4.44e-16
    rank, cutoff, flag = rank_decision((2, 2), np.array([1.0, 3e-15]), "auto")
    assert rank == 2 and flag  # retained but within 10x of the cutoff
    rank, cutoff, flag = rank_decision((2, 2), np.array([1.0, 3e-16]), "auto")
    assert rank == 1 and flag  # discarded but within 10x of the cutoff
    rank, cutoff, flag = rank_decision((2, 2), np.array([1.0, 0.5]), "auto")
    assert rank == 2 and not flag
    rank, cutoff, flag = rank_decision((2, 2), np.array([0.0, 0.0]), "auto")
    assert rank == 0 and cutoff == 0.0 and not flag
    # explicit relative tolerance
    rank, cutoff, flag = rank_decision((2, 2), np.array([1.0, 1e-7]), 1e-6)
    assert rank == 1 and cutoff == 1e-6
    with pytest.raises(ValueError):
        rank_decision((2, 2), np.array([1.0, 0.5]), -1.0)


def test_pinv_matrix_matches_lapack(rng):
    for shape in [(5, 5), (6, 3), (3, 6)]:
        m = random_complex(rng, *shape)
        ours = pinv_matrix(m).pinv
        oracle = np.linalg.pinv(m)
        assert np.linalg.norm(ours - oracle, 2) <= 1e-11 * (1 + np.linalg.norm(oracle, 2))


def test_zero_operator_pinv():
    t = AdjointableOp.zero(SIG12, 2, 3)
    result = moore_penrose(t)
    assert result.rank == 0
    assert not result.boundary_flag
    assert op_norm(result.pseudoinverse) == 0.0
    assert max(result.penrose_residuals) == 0.0


def test_penrose_residuals_normalization(rng):
    t = random_complex(rng, 4, 4)
    x = np.linalg.pinv(t)
    residuals = penrose_residuals([t], [x])
    assert all(r <= 1e-12 for r in residuals)


def test_jacobi_non_convergence_raises(monkeypatch, rng):
    # named for the Jacobi kernel that LAPACK replaced; a LAPACK
    # non-convergence must still surface as a FactorizationError
    import cstarpinv.pinv as pinv_module
    from cstarpinv.errors import FactorizationError

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(pinv_module.np.linalg, "svd", failing)
    with pytest.raises(FactorizationError, match="SVD of a 8x8 matrix did not converge"):
        svd_factor(random_complex(rng, 8, 8))


def test_operator_svd_is_cached_and_read_only(rng):
    from cstarpinv.pinv import operator_svd

    t = random_operator(SIG12, 3, 2, rng)
    factors = operator_svd(t)
    assert operator_svd(t) is factors
    assert len(factors) == len(t.blocks) == 2
    for f, block in zip(factors, t.blocks):
        for array in (f.U, f.singular_values, f.V):
            with pytest.raises(ValueError):
                array[0] = 1.0
        fresh = svd_factor(block)
        for cached, direct in zip(
            (f.U, f.singular_values, f.V), (fresh.U, fresh.singular_values, fresh.V)
        ):
            np.testing.assert_array_equal(cached, direct)


def test_moore_penrose_rank_tol_on_cached_factors():
    # singular values 1, 1e-5, 1: rank 3 at the auto cutoff, 2 at 1e-3
    matrix = np.diag([1.0, 1e-5, 1.0]) + 0j
    t = op1(matrix)
    first = moore_penrose(t)
    second = moore_penrose(t, 1e-3)
    fresh = moore_penrose(op1(matrix), 1e-3)
    assert (first.rank, second.rank) == (3, 2)
    np.testing.assert_array_equal(flatten(second.pseudoinverse), flatten(fresh.pseudoinverse))
    np.testing.assert_array_equal(second.singular_values, fresh.singular_values)
    assert (second.rank, second.cutoff, second.boundary_flag, second.penrose_residuals) == (
        fresh.rank,
        fresh.cutoff,
        fresh.boundary_flag,
        fresh.penrose_residuals,
    )


def test_sweep_limit_on_negligible_column_is_not_an_error():
    # the second column's squared norm underflows to zero; this stalled the
    # Jacobi kernel at its sweep limit, and LAPACK must factor it cleanly
    tiny = 7.25651531e-244
    m = np.array([[1.0, tiny], [tiny, tiny]], dtype=complex)
    f = svd_factor(m)
    np.testing.assert_allclose(f.U @ np.diag(f.singular_values) @ f.V.conj().T, m, atol=1e-15)
    np.testing.assert_allclose(f.singular_values[0], 1.0, rtol=1e-15)


def _reference_pinv_matrix(matrix, rank_tol="auto"):
    # the standalone path pinv_matrix took before it went through
    # operator_pinv: one svd_factor, one rank_decision on the matrix's shape
    matrix = np.asarray(matrix, dtype=complex)
    f = svd_factor(matrix)
    s = f.singular_values
    rank, cutoff, flag = rank_decision(matrix.shape, s, rank_tol)
    if rank == 0:
        pinv = np.zeros((f.V.shape[0], f.U.shape[0]), dtype=complex)
    else:
        pinv = f.V[:, :rank] @ (f.U[:, :rank].conj().T / s[:rank, None])
    return pinv, rank, s, cutoff, flag


def test_pinv_matrix_matches_its_old_path_bit_for_bit(rng):
    low_rank = random_complex(rng, 5, 2) @ random_complex(rng, 2, 4)
    cases = [
        (random_complex(rng, 5, 5), "auto"),
        (random_complex(rng, 6, 3), "auto"),
        (random_complex(rng, 3, 6), "auto"),
        (random_complex(rng, 1, 1), "auto"),
        (low_rank, "auto"),
        (low_rank, 1e-6),
        (np.diag([1.0, 3e-16]), "auto"),  # a boundary flag
        (np.diag([1.0, 1e-7, 0.5]), 1e-6),
        (np.zeros((2, 3)), "auto"),
        ([[1, 2], [3, 4]], "auto"),  # integer input
    ]
    for matrix, rank_tol in cases:
        ours = pinv_matrix(matrix, rank_tol)
        pinv, rank, s, cutoff, flag = _reference_pinv_matrix(matrix, rank_tol)
        assert ours.pinv.shape == pinv.shape and ours.pinv.tobytes() == pinv.tobytes()
        assert ours.singular_values.tobytes() == s.tobytes()
        assert (ours.rank, ours.cutoff, ours.boundary_flag) == (rank, cutoff, flag)


def test_pinv_matrix_needs_a_nonempty_matrix():
    for bad in (np.ones(3), np.ones((2, 2, 2)), 1.0):
        with pytest.raises(ConformabilityError):
            pinv_matrix(bad)
    # an empty matrix is no operator: it used to give an empty pseudoinverse
    for empty in (np.zeros((0, 3)), np.zeros((3, 0))):
        with pytest.raises(ConformabilityError, match="at least one entry"):
            pinv_matrix(empty)


def test_moore_penrose_refuses_a_plain_matrix():
    # it used to end in AttributeError: 'numpy.ndarray' object has no attribute '_svd'
    with pytest.raises(ConformabilityError, match="pinv_matrix"):
        moore_penrose(np.eye(2))


def test_rank_tol_that_is_no_number_names_rank_tol():
    # float("x") used to escape with float's own message
    for call in (
        lambda: moore_penrose(op1(np.eye(2)), rank_tol="x"),
        lambda: rank_decision((2, 2), np.array([1.0, 0.5]), "x"),
        lambda: pinv_matrix(np.eye(2), rank_tol=None),
    ):
        with pytest.raises(ParameterError, match="rank_tol must be positive and finite"):
            call()
    assert pinv_matrix(np.eye(2), rank_tol="1e-3").rank == 2


@pytest.mark.parametrize("shape", [(6, 3), (3, 6), (4, 4)], ids=("tall", "wide", "square"))
def test_orthogonal_complement_of_svd_factors(monkeypatch, rng, shape):
    f = svd_factor(random_complex(rng, *shape))
    calls = count_svd_factor(monkeypatch)
    for basis in (f.U, f.V):
        n, k = basis.shape
        for rank in (0, k // 2, k):
            del calls[:]
            complement = orthogonal_complement(basis, rank)
            assert complement.shape == (n, n - rank)
            assert len(calls) == (0 if k == n else 1)
            eye = np.eye(n - rank)
            assert np.linalg.norm(complement.conj().T @ complement - eye, 2) <= 1e-14
            assert np.linalg.norm(basis[:, :rank].conj().T @ complement, 2) <= 1e-14
            if k == n:
                np.testing.assert_array_equal(complement, basis[:, rank:])
