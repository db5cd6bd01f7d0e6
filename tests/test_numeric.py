"""Bit identity of the batched norm path and of the phase convention.

Every residual the package reports takes its norms through
:func:`cstarpinv._numeric.spec_norms`, one stacked LAPACK call per matrix
shape, and every factorization goes through :func:`cstarpinv.pinv._fix_phases`.
Both must reproduce the per-matrix and per-column computations they replaced
bit for bit, so that no certificate, report or fuzz record moves.
"""

import numpy as np
import pytest

from cstarpinv._numeric import block_norm, rel_residual, rel_residuals, spec_norm, spec_norms
from cstarpinv.errors import FactorizationError
from cstarpinv.pinv import _fix_phases, svd_factor

from conftest import random_complex


def _norm_by_matrix(m):
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def _rel_residual_by_matrix(lhs, rhs):
    """The residual as it was measured before batching: one norm per matrix."""
    lhs_norm = max(_norm_by_matrix(a) for a in lhs)
    if rhs is None:
        return lhs_norm / (1.0 + lhs_norm)
    return max(_norm_by_matrix(a - b) for a, b in zip(lhs, rhs)) / (1.0 + lhs_norm)


def _bits(values):
    return [float(v).hex() for v in values]


def _mixed_matrices(rng):
    """Mixed shapes, every third matrix scaled by 1e-16, a third of them
    non-contiguous ``.conj().T`` views, plus subnormal and real matrices."""
    shapes = ((4, 4), (8, 4), (12, 12), (0, 3))
    matrices = []
    for i in range(96):
        rows, cols = shapes[i % 4]
        if i % 3 == 1:
            matrices.append(random_complex(rng, cols, rows).conj().T)
        else:
            m = random_complex(rng, rows, cols)
            matrices.append(m * 1e-16 if i % 3 == 0 else m)
    matrices.append(random_complex(rng, 4, 4) * 1e-310)
    matrices.append(np.full((4, 4), 5e-324 + 0j))
    matrices.append(rng.standard_normal((4, 4)))
    matrices.append(rng.standard_normal((8, 4)).T)
    return matrices


def test_batched_norms_equal_per_matrix_norms(rng):
    matrices = _mixed_matrices(rng)
    assert any(not m.flags.c_contiguous for m in matrices)
    expected = [_norm_by_matrix(m) for m in matrices]
    assert _bits(spec_norms(matrices)) == _bits(expected)
    assert _bits(spec_norm(m) for m in matrices) == _bits(expected)
    assert _bits([block_norm(matrices)]) == _bits([max(expected)])
    assert spec_norms([]) == []


def test_batched_residuals_equal_per_matrix_residuals(rng):
    identities = []
    for i in range(30):
        shapes = [(4, 4), (8, 8), (4, 12)][: 1 + i % 3]
        lhs = [random_complex(rng, c, r).conj().T for r, c in shapes]
        if i % 3 == 0:
            lhs = [a * 1e-16 for a in lhs]
        rhs = None if i % 4 == 0 else [a + 1e-9 * random_complex(rng, *a.shape) for a in lhs]
        identities.append((lhs, rhs))
    expected = [_rel_residual_by_matrix(lhs, rhs) for lhs, rhs in identities]
    assert _bits(rel_residuals(identities)) == _bits(expected)
    assert _bits(rel_residual(lhs, rhs) for lhs, rhs in identities) == _bits(expected)


def _fix_phases_by_column(u, v):
    """The phase convention as one scalar rotation per column, in place."""
    for j in range(v.shape[1]):
        col = v[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size == 0:
            continue
        lead = col[nz[0]]
        phase = lead.conj() / abs(lead)
        v[:, j] = col * phase
        u[:, j] = u[:, j] * phase
    return u, v


def test_fix_phases_equals_the_column_loop():
    rng = np.random.default_rng(1500)
    with_zero_columns = 0
    for _ in range(1500):
        rows, cols = int(rng.integers(3, 25)), int(rng.integers(9, 25))
        a = random_complex(rng, rows, cols)
        if rng.random() < 0.3:
            a[:, rng.choice(cols, 2, replace=False)] = 0.0
            with_zero_columns += 1
        u, _, vh = np.linalg.svd(a, full_matrices=False)
        v = vh.conj().T
        got_u, got_v = _fix_phases(u.copy(), v.copy())
        want_u, want_v = _fix_phases_by_column(u.copy(), v.copy())
        assert got_u.tobytes() == want_u.tobytes()
        assert got_v.tobytes() == want_v.tobytes()
    assert 350 <= with_zero_columns <= 550


def test_non_finite_matrices_raise_factorization_errors():
    # a FactorizationError is also the ValueError svd_factor raised before
    assert issubclass(FactorizationError, ValueError)
    with pytest.raises(FactorizationError, match="must be finite"):
        svd_factor(np.array([[np.inf, 1.0]]))
    with np.errstate(all="ignore"), pytest.raises(FactorizationError, match="2x2 matrix"):
        spec_norms([np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]])])
