"""Bit identity of the batched norm path.

Every residual the package reports takes its norms through
:func:`cstarpinv._numeric.spec_norms`, one stacked LAPACK call per matrix
shape.  It must reproduce the per-matrix norms it replaced bit for bit, so
that no certificate, report or fuzz record moves.
"""

import numpy as np
import pytest

from cstarpinv._numeric import (
    block_norm,
    check_tolerance,
    rel_residual,
    rel_residuals,
    spec_norm,
    spec_norms,
)
from cstarpinv.errors import CstarPinvError, FactorizationError, ParameterError
from cstarpinv.pinv import svd_factor

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


def test_non_finite_matrices_raise_factorization_errors():
    # a FactorizationError is also the ValueError svd_factor raised before
    assert issubclass(FactorizationError, ValueError)
    with pytest.raises(FactorizationError, match="must be finite"):
        svd_factor(np.array([[np.inf, 1.0]]))
    with np.errstate(all="ignore"), pytest.raises(FactorizationError, match="2x2 matrix"):
        spec_norms([np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]])])


def test_check_tolerance_is_the_one_tolerance_rule():
    assert check_tolerance(1e-8, "tol") == 1e-8
    assert check_tolerance("1e-3", "--tol") == 1e-3
    for bad in (float("nan"), float("inf"), -float("inf"), 0.0, -1e-3, "nope", "", None):
        with pytest.raises(ParameterError, match="^rank_tol must be positive and finite") as info:
            check_tolerance(bad, "rank_tol")
        # the library promises ValueError; the CLI maps any CstarPinvError to exit 2
        assert isinstance(info.value, ValueError) and isinstance(info.value, CstarPinvError)
