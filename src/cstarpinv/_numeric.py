"""Small numeric helpers used across modules."""

import math

import numpy as np


def spec_norm(m):
    """Spectral norm; 0.0 for matrices with an empty dimension."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def block_norm(blocks):
    """Spectral norm of a block-diagonal matrix: the largest over its blocks."""
    return max(spec_norm(b) for b in blocks)


def rel_residual(lhs, rhs):
    """``||lhs - rhs||`` normalized by ``1 + ||lhs||`` (spectral norms).

    ``lhs`` and ``rhs`` are sequences of per-block matrices, and each norm
    is the largest over blocks.  ``lhs`` is the left operand of the identity
    being tested; pass ``None`` for ``rhs`` to measure an identity of the
    form ``lhs == 0``.
    """
    delta = lhs if rhs is None else [a - b for a, b in zip(lhs, rhs)]
    return block_norm(delta) / (1.0 + block_norm(lhs))


def inverse(m):
    """Inverse of a square matrix; an empty matrix is its own inverse."""
    return np.linalg.solve(m, np.eye(m.shape[0], dtype=complex)) if m.size else m


def positive_finite(value):
    """Whether ``value`` is a positive finite number (NaN is not)."""
    return 0.0 < value < math.inf


def check_tolerance(value, name):
    """Raise ``ValueError`` unless ``value`` is a positive finite number."""
    if not positive_finite(value):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
