"""Small numeric helpers used across modules.

Every spectral norm in the package goes through :func:`spec_norms`, which
takes all the norms a caller needs in one LAPACK call per matrix shape;
:func:`rel_residuals` measures any number of identities with one such
batch, and a stack of ``N`` equal-shaped matrices measures ``N`` instances
of an identity at once.  The values are bit for bit those of
``numpy.linalg.norm(m, 2)`` per matrix.
"""

import math

import numpy as np

from .errors import FactorizationError, ParameterError


def spec_norms(matrices):
    """Spectral norms of many matrices, one LAPACK call per shape.

    Each item is a matrix, whose norm is a float, or an ``(N, rows, cols)``
    stack of matrices, whose norms are a list of ``N`` floats.  Matrices of
    one shape and dtype are stacked and reduced by a single
    ``numpy.linalg.svd(stack, compute_uv=False)``, which runs the routine
    ``numpy.linalg.norm(m, 2)`` runs on each matrix, so every norm is bit
    for bit the per-matrix one.  Matrices with an empty dimension have norm
    0.0.  A norm that LAPACK reports as not converged, or that is not
    finite (as for non-finite entries), raises :class:`FactorizationError`.
    """
    arrays = [np.asarray(m) for m in matrices]
    stacks = [m if m.ndim == 3 else m[None] for m in arrays]
    norms = [None] * len(stacks)
    groups = {}
    for i, m in enumerate(stacks):
        groups.setdefault((m.shape[1:], m.dtype), []).append(i)
    for ((rows, cols), _), members in groups.items():
        if rows == 0 or cols == 0:
            for i in members:
                norms[i] = [0.0] * len(stacks[i])
            continue
        batch = [stacks[i] for i in members]
        try:
            largest = np.linalg.svd(
                batch[0] if len(batch) == 1 else np.concatenate(batch), compute_uv=False
            )[:, 0]
        except np.linalg.LinAlgError:
            raise FactorizationError(
                f"spectral norm of a {rows}x{cols} matrix did not converge"
            ) from None
        values = largest.tolist()
        if not all(map(math.isfinite, values)):
            raise FactorizationError(f"spectral norm of a {rows}x{cols} matrix is not finite")
        start = 0
        for i in members:
            end = start + len(stacks[i])
            norms[i] = values[start:end]
            start = end
    return [n if m.ndim == 3 else n[0] for m, n in zip(arrays, norms)]


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
    ``lhs == 0``.  An identity whose blocks are ``(N, rows, cols)`` stacks
    holds ``N`` instances and its residual is a list of ``N`` floats, each
    that of one instance.  Every norm of every identity goes through one
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
    for start, mid, end in spans:
        lhs_norm = _largest(norms[start:mid])
        delta_norm = lhs_norm if mid == end else _largest(norms[mid:end])
        if isinstance(lhs_norm, float):
            residuals.append(delta_norm / (1.0 + lhs_norm))
        else:
            residuals.append([d / (1.0 + n) for d, n in zip(delta_norm, lhs_norm)])
    return residuals


def _largest(norms):
    """The largest of per-block norms: floats, or lists of floats (one per
    stacked instance) instance by instance."""
    if isinstance(norms[0], float):
        return max(norms)
    return [max(column) for column in zip(*norms)]


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
