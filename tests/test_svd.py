"""Contract tests for :func:`cstarpinv.pinv.svd_factor`.

`numpy.linalg.svd` on the whole matrix serves as the oracle for singular
values; orthogonality and reconstruction are checked directly.  The factors
are NumPy's own, with no phase convention imposed on them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cstarpinv.pinv import svd_factor

from conftest import random_complex


def check_factorization(m, atol_scale=1e-12):
    f = svd_factor(m)
    k = min(m.shape)
    s1 = f.singular_values[0] if k else 0.0
    scale = (1 + s1) * max(m.shape + (1,))
    recon = f.U @ np.diag(f.singular_values) @ f.V.conj().T
    assert np.linalg.norm(m - recon, 2) <= atol_scale * scale
    assert np.linalg.norm(f.U.conj().T @ f.U - np.eye(k), 2) <= 1e-12
    assert np.linalg.norm(f.V.conj().T @ f.V - np.eye(k), 2) <= 1e-12
    assert np.all(np.diff(f.singular_values) <= 0)
    # oracle: LAPACK singular values
    expected = np.linalg.svd(m, compute_uv=False)
    np.testing.assert_allclose(f.singular_values, expected, atol=1e-12 * (1 + s1))
    return f


@pytest.mark.parametrize("shape", [(1, 1), (4, 4), (7, 4), (4, 7), (12, 12), (9, 2)])
def test_random_matrices(shape, rng):
    check_factorization(random_complex(rng, *shape))


def test_real_rank_deficient():
    f = check_factorization(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert f.singular_values[0] == pytest.approx(np.sqrt(2), rel=1e-15)
    assert f.singular_values[1] <= 1e-16


def test_structured_cases(rng):
    check_factorization(np.zeros((3, 5)))
    check_factorization(np.eye(6, dtype=complex))
    low = random_complex(rng, 8, 3) @ random_complex(rng, 3, 8)
    check_factorization(low)
    col = random_complex(rng, 6, 6)
    col[:, 2] = 0.0  # exactly zero column
    check_factorization(col)


def test_extreme_scales(rng):
    for scale in (1e-80, 1e80):
        m = scale * random_complex(rng, 5, 5)
        f = svd_factor(m)
        recon = f.U @ np.diag(f.singular_values) @ f.V.conj().T
        assert np.linalg.norm(m - recon, 2) <= 1e-12 * f.singular_values[0] * 5


def _haar(n, rng):
    z = random_complex(rng, n, n)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_hard_spectra(rng):
    n = 12
    hard = [
        # graded over many orders of magnitude
        _haar(n, rng) @ np.diag(np.logspace(0, -60, n)) @ _haar(n, rng).conj().T,
        # tight cluster of singular values
        _haar(n, rng) @ np.diag(1 + 1e-14 * np.arange(n)) @ _haar(n, rng).conj().T,
        # graded columns
        random_complex(rng, n, n) * np.logspace(0, -40, n),
        # Jordan-like, nearly defective
        np.eye(n, dtype=complex) * 0.5 + np.diag(np.ones(n - 1), 1),
    ]
    for m in hard:
        f = svd_factor(m)
        s1 = f.singular_values[0]
        recon = f.U @ np.diag(f.singular_values) @ f.V.conj().T
        assert np.linalg.norm(m - recon, 2) <= 1e-13 * (1 + s1) * n
        assert np.linalg.norm(f.U.conj().T @ f.U - np.eye(n), 2) <= 1e-12
        assert np.linalg.norm(f.V.conj().T @ f.V - np.eye(n), 2) <= 1e-12
        # agreement with LAPACK down to the representational noise floor
        expected = np.linalg.svd(m, compute_uv=False)
        np.testing.assert_allclose(f.singular_values, expected, atol=1e-13 * (1 + s1))


def test_empty_matrices():
    for shape in [(0, 0), (0, 3), (3, 0)]:
        f = svd_factor(np.zeros(shape))
        assert f.U.shape == (shape[0], min(shape))
        assert f.V.shape == (shape[1], min(shape))
        assert f.singular_values.shape == (min(shape),)


def test_determinism(rng):
    m = random_complex(rng, 10, 6)
    f1 = svd_factor(m.copy())
    f2 = svd_factor(m.copy())
    assert np.array_equal(f1.U, f2.U)
    assert np.array_equal(f1.singular_values, f2.singular_values)
    assert np.array_equal(f1.V, f2.V)


@pytest.mark.parametrize("shape", [(6, 6), (7, 4), (4, 7), (1, 5)])
def test_factors_are_numpys(shape, rng):
    m = random_complex(rng, *shape)
    f = svd_factor(m)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    assert f.U.tobytes() == u.tobytes()
    assert f.singular_values.tobytes() == s.tobytes()
    assert f.V.tobytes() == vh.conj().T.tobytes()


def _norm2_safe(x):
    """Spectral norm that survives subnormal or near-overflow entries."""
    a = float(np.abs(x).max()) if x.size else 0.0
    if a == 0:
        return 0.0
    e = int(np.clip(np.floor(np.log2(a)), -1000, 1000))
    return float(np.linalg.norm(x * (2.0 ** -e), 2)) * (2.0 ** e)


def _assert_contract(m):
    f = svd_factor(m)
    k = min(m.shape)
    s1 = f.singular_values[0] if k else 0.0
    assert np.all(np.isfinite(f.singular_values))
    assert np.all(np.diff(f.singular_values) <= 0)
    assert np.all(f.singular_values >= 0)
    recon = f.U @ np.diag(f.singular_values) @ f.V.conj().T
    assert _norm2_safe(m - recon) <= 1e-12 * (1 + s1) * max(m.shape)
    assert np.linalg.norm(f.U.conj().T @ f.U - np.eye(k), 2) <= 1e-12
    assert np.linalg.norm(f.V.conj().T @ f.V - np.eye(k), 2) <= 1e-12


finite_entries = st.complex_numbers(
    min_magnitude=0, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)
wild_entries = st.complex_numbers(
    min_magnitude=0,
    max_magnitude=1e300,
    allow_nan=False,
    allow_infinity=False,
    allow_subnormal=True,
)


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda shape: arrays(np.complex128, shape, elements=finite_entries)
    )
)
def test_factorization_contract_property(m):
    _assert_contract(m)


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda shape: arrays(np.complex128, shape, elements=wild_entries)
    )
)
def test_factorization_contract_extreme_magnitudes(m):
    _assert_contract(m)


def test_subnormal_regressions():
    # found by property search: mixed subnormal/normal entries, entries
    # near overflow, and columns whose squared norm underflows
    tiny = 1.71633966e-131
    m = np.full((3, 3), 1j * tiny, dtype=complex)
    m[0, 1] = tiny
    _assert_contract(m)
    _assert_contract(np.array([[5e-324 + 0j]]))
    _assert_contract(np.array([[5e-324 + 2j]]))
    _assert_contract(np.array([[1.34078079e154 + 0j]]))
    _assert_contract(np.array([[8.0 + 0j, 2.22507386e-308], [2.22507386e-308, 2.22507386e-308]]))
    # the second column's squared norm underflows
    small = 7.25651531e-244
    m = np.array([[1.0 + 0j, small], [small, small]])
    _assert_contract(m)
    f = svd_factor(m)
    np.testing.assert_allclose(f.U @ np.diag(f.singular_values) @ f.V.conj().T, m, atol=1e-15)
    with pytest.raises(ValueError):
        svd_factor(np.array([[np.nan + 0j]]))
    with pytest.raises(ValueError):
        svd_factor(np.array([[np.inf + 0j, 1.0]]))


def test_input_not_mutated(rng):
    m = random_complex(rng, 6, 4)
    copy = m.copy()
    svd_factor(m)
    assert np.array_equal(m, copy)
