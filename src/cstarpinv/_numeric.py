"""Small numeric helpers used across modules.

Every spectral norm in the package goes through :func:`spec_norms`, which
takes all the norms a caller needs in one LAPACK call per matrix shape;
:func:`rel_residuals` measures any number of identities with one such
batch.  The values are bit for bit those of ``numpy.linalg.norm(m, 2)``
per matrix.
"""

import math

import numpy as np

from .errors import FactorizationError, ParameterError


def spec_norms(matrices):
    """Spectral norms of many matrices, one LAPACK call per shape.

    Matrices of one shape and dtype are stacked and reduced by a single
    ``numpy.linalg.svd(stack, compute_uv=False)``, which runs the routine
    ``numpy.linalg.norm(m, 2)`` runs on each matrix, so every norm is bit
    for bit the per-matrix one.  Matrices with an empty dimension have norm
    0.0.  A norm that LAPACK reports as not converged (as it does for
    non-finite entries) raises :class:`FactorizationError`.
    """
    matrices = [np.asarray(m) for m in matrices]
    norms = [0.0] * len(matrices)
    groups = {}
    for i, m in enumerate(matrices):
        if m.size:
            groups.setdefault((m.shape, m.dtype), []).append((i, m))
    for (shape, _), members in groups.items():
        try:
            largest = np.linalg.svd(np.stack([m for _, m in members]), compute_uv=False)[:, 0]
        except np.linalg.LinAlgError:
            rows, cols = shape
            raise FactorizationError(
                f"spectral norm of a {rows}x{cols} matrix did not converge"
            ) from None
        for (i, _), value in zip(members, largest.tolist()):
            norms[i] = value
    return norms


def spec_norm(m):
    """Spectral norm; 0.0 for matrices with an empty dimension."""
    return spec_norms([m])[0]


def block_norm(blocks):
    """Spectral norm of a block-diagonal matrix: the largest over its blocks."""
    return max(spec_norms(blocks))


def rel_residuals(identities):
    """Relative residuals of many identities, with all norms in one batch.

    Each identity is a pair ``(lhs, rhs)`` of sequences of per-block
    matrices, measured as ``||lhs - rhs||`` normalized by ``1 + ||lhs||``;
    each norm is the largest over blocks, taken separately for the
    numerator and the denominator.  ``lhs`` is the left operand of the
    identity being tested; ``rhs`` is ``None`` for an identity of the form
    ``lhs == 0``.  Every norm of every identity goes through one
    :func:`spec_norms` call.
    """
    identities = list(identities)
    matrices, spans = [], []
    for lhs, rhs in identities:
        start = len(matrices)
        matrices.extend(lhs)
        mid = len(matrices)
        if rhs is not None:
            matrices.extend(a - b for a, b in zip(lhs, rhs))
        spans.append((start, mid, len(matrices)))
    norms = spec_norms(matrices)
    residuals = []
    for (lhs, rhs), (start, mid, end) in zip(identities, spans):
        lhs_norm = max(norms[start:mid])
        delta_norm = lhs_norm if rhs is None else max(norms[mid:end])
        residuals.append(delta_norm / (1.0 + lhs_norm))
    return residuals


def rel_residual(lhs, rhs):
    """The relative residual of one identity (see :func:`rel_residuals`)."""
    return rel_residuals([(lhs, rhs)])[0]


def inverse(m):
    """Inverse of a square matrix; an empty matrix is its own inverse."""
    return np.linalg.solve(m, np.eye(m.shape[0], dtype=complex)) if m.size else m


def check_tolerance(value, name):
    """``value`` as a float; :class:`ParameterError` naming ``name`` unless
    ``float(value)`` is a positive finite number (NaN is not)."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not 0.0 < number < math.inf:
        raise ParameterError(f"{name} must be positive and finite, got {value!r}")
    return number
