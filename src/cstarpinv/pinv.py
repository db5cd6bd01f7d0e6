"""Rank-revealing factorization and Moore-Penrose inverses.

The factorization is a one-sided Jacobi SVD (compiled kernel when available,
NumPy fallback otherwise) with a fixed rotation schedule and a fixed phase
convention, so results are reproducible run to run.  A factorization that
reaches ``MAX_SWEEPS`` with two non-negligible columns still coherent raises
:class:`FactorizationError` rather than returning unconverged factors.

Operators are immutable, so each one is factored at most once: the SVD of
its flattening is cached on the operator by :func:`operator_svd` (the
arrays are read-only) and reused by every later pseudoinverse, range
inclusion and block decomposition of that operator.  The cache holds only
the factors; the rank decision is made again on every use, so any
``rank_tol`` can be applied to the same factors.  The pseudoinverse of a
module operator is computed on its flattening and mapped back through
``unflatten``, which certifies that the numerical result is still
algebra-linear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._numeric import spec_norm
from .errors import ConformabilityError, FactorizationError
from .operators import AdjointableOp, unflatten

__all__ = [
    "SvdFactors",
    "svd_factor",
    "operator_svd",
    "rank_decision",
    "PinvResult",
    "MatrixPinv",
    "pinv_matrix",
    "pinv_from_svd",
    "moore_penrose",
    "ThetaClassReport",
    "theta_class",
    "penrose_residuals",
]

# Convergence is certified by a final sweep that applies no rotation, so the
# pairwise coherence of the output columns is bounded by SWEEP_TOL.
SWEEP_TOL = 1e-15
MAX_SWEEPS = 64
EPS = 2.0 ** -52
# Columns of the orthogonalized matrix at or below this share of the largest
# are numerically zero: their left singular vectors are completed instead.
NEGLIGIBLE = 64.0 * EPS


@dataclass(frozen=True)
class SvdFactors:
    """Economy SVD ``M = U @ diag(s) @ V.conj().T``.

    ``U`` and ``V`` have orthonormal columns; singular values are sorted in
    descending order; the first nonzero component of every column of ``V``
    is real nonnegative.
    """

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray


def svd_factor(matrix):
    """Deterministic singular value factorization of a complex matrix."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2:
        raise ConformabilityError("svd_factor expects a matrix")
    if matrix.size and not np.isfinite(matrix).all():
        raise ValueError("matrix entries must be finite")
    m, n = matrix.shape
    if m == 0 or n == 0:
        k = min(m, n)
        return SvdFactors(
            np.zeros((m, k), dtype=complex),
            np.zeros(k),
            np.zeros((n, k), dtype=complex),
        )
    if m >= n:
        u, s, v = _jacobi_svd(matrix)
    else:
        v, s, u = _jacobi_svd(matrix.conj().T)
    u, v = _fix_phases(u, v)
    return SvdFactors(u, s, v)


def _jacobi_svd(matrix):
    """One-sided Jacobi on a tall matrix (m >= n)."""
    m, n = matrix.shape
    a = np.ascontiguousarray(matrix, dtype=complex)
    if a is matrix or not a.flags.owndata:
        a = a.copy()
    # Exact power-of-two scaling keeps squared column norms away from the
    # underflow/overflow range without perturbing the factors.  The max
    # modulus is used because a Frobenius norm can itself overflow; the
    # exponent is clamped so both the scale and its reciprocal stay normal.
    amax = float(np.abs(a).max())
    scale = 1.0
    if amax > 0 and not 1e-100 < amax < 1e100:
        exponent = int(np.clip(np.floor(np.log2(amax)), -1000, 1000))
        scale = 2.0 ** exponent
        a *= 2.0 ** (-exponent)
    v = np.eye(n, dtype=complex)
    pair_p, pair_q, offsets = _kernels.rotation_schedule(n)
    max_sweeps = MAX_SWEEPS
    sweeps = _kernels.orthogonalize_columns(
        a, v, pair_p, pair_q, offsets, SWEEP_TOL, max_sweeps
    )
    if sweeps >= max_sweeps and _coherent_columns(a):
        raise FactorizationError(
            f"Jacobi SVD of a {m}x{n} matrix did not converge in {max_sweeps} sweeps"
        )

    sigma = np.linalg.norm(a, axis=0)
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    a = a[:, order]
    v = v[:, order]

    smax = sigma[0] if n else 0.0
    floor = NEGLIGIBLE * smax
    u = np.zeros((m, n), dtype=complex)
    kept = sigma > floor if smax > 0 else np.zeros(n, dtype=bool)
    u[:, kept] = a[:, kept] / sigma[kept]
    for j in np.flatnonzero(~kept):
        u[:, j] = _complete_column(u, j)
    return u, sigma * scale, v


def _coherent_columns(a):
    """Whether two non-negligible columns of ``a`` still fail the sweep test.

    A sweep limit can also be reached by a pair whose smaller column is
    numerically zero (its squared norm underflows, so every sweep "rotates"
    it by a pure phase); such a stall leaves the factors intact.
    """
    sigma = np.linalg.norm(a, axis=0)
    live = sigma > NEGLIGIBLE * sigma.max()
    b, norms = a[:, live], sigma[live]
    coherence = np.abs(b.conj().T @ b)
    np.fill_diagonal(coherence, 0.0)
    return bool(np.any(coherence > SWEEP_TOL * np.outer(norms, norms)))


def operator_svd(t):
    """SVD factors of ``t.flat``, computed once and cached on ``t``.

    The cached arrays are read-only, since every later caller shares them.
    """
    f = t._svd
    if f is None:
        f = svd_factor(t.flat)
        for array in (f.U, f.singular_values, f.V):
            array.flags.writeable = False
        object.__setattr__(t, "_svd", f)
    return f


def _complete_column(u, j):
    """Deterministic unit vector orthogonal to the first ``j`` columns of u."""
    m = u.shape[0]
    basis = u[:, :j]
    residual_sq = 1.0 - np.sum(np.abs(basis.conj().T) ** 2, axis=0)
    best = int(np.argmax(residual_sq)) if j else 0
    w = np.zeros(m, dtype=complex)
    w[best] = 1.0
    for _ in range(2):
        w = w - basis @ (basis.conj().T @ w)
    return w / np.linalg.norm(w)


def _fix_phases(u, v):
    """Rotate each factor pair so V's first nonzero component is real >= 0."""
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


@dataclass(frozen=True)
class MatrixPinv:
    """Pseudoinverse of a plain complex matrix plus rank diagnostics."""

    pinv: np.ndarray
    rank: int
    singular_values: np.ndarray
    cutoff: float
    boundary_flag: bool


def rank_decision(shape, singular_values, rank_tol="auto"):
    """Numerical rank and boundary diagnostics for a singular spectrum.

    ``rank_tol`` is relative to the largest singular value; ``"auto"`` uses
    the scale-aware cutoff ``max(m, n) * eps * sigma_1``.  The boundary flag
    is set when any singular value falls within a factor of 10 of the
    cutoff, marking the rank decision as numerically fragile.
    """
    s = singular_values
    smax = float(s[0]) if s.size else 0.0
    if smax == 0.0:
        return 0, 0.0, False
    if rank_tol == "auto":
        cutoff = max(shape) * EPS * smax
    else:
        rank_tol = float(rank_tol)
        if rank_tol <= 0:
            raise ValueError("rank_tol must be positive")
        cutoff = rank_tol * smax
    rank = int(np.count_nonzero(s > cutoff))
    flag = bool(np.any((s >= cutoff / 10.0) & (s <= cutoff * 10.0)))
    return rank, cutoff, flag


def pinv_matrix(matrix, rank_tol="auto"):
    """Moore-Penrose inverse of a complex matrix via the Jacobi SVD."""
    matrix = np.asarray(matrix, dtype=complex)
    return pinv_from_svd(matrix.shape, svd_factor(matrix), rank_tol)


def pinv_from_svd(shape, f, rank_tol="auto"):
    """Moore-Penrose inverse of a ``shape`` matrix from its SVD factors ``f``.

    Retains singular values above the :func:`rank_decision` cutoff and
    inverts them on the factor bases.
    """
    s = f.singular_values
    rank, cutoff, flag = rank_decision(shape, s, rank_tol)
    if rank == 0:
        inv = np.zeros((shape[1], shape[0]), dtype=complex)
    else:
        inv = f.V[:, :rank] @ (f.U[:, :rank].conj().T / s[:rank, None])
    return MatrixPinv(inv, rank, s, cutoff, flag)


@dataclass(frozen=True)
class PinvResult:
    """Module-level pseudoinverse with certification data."""

    pseudoinverse: AdjointableOp
    rank: int
    singular_values: np.ndarray
    penrose_residuals: tuple
    boundary_flag: bool
    cutoff: float


def moore_penrose(t, rank_tol="auto"):
    """Moore-Penrose inverse of a module operator.

    Computed from the cached SVD of the flattening (see
    :func:`operator_svd`), then projected back to the
    left-multiplication pattern (off-pattern tolerance 1e-8 relative; the
    exact pseudoinverse commutes with the algebra action, so failure signals
    numerical breakdown rather than missing structure).  The four reported
    residuals correspond to the defining equations ``TXT = T``, ``XTX = X``,
    ``(TX)* = TX`` and ``(XT)* = XT``.
    """
    mp = pinv_from_svd(t.flat.shape, operator_svd(t), rank_tol)
    x = unflatten(mp.pinv, t.signature, (t.cols, t.rows), tol=1e-8)
    residuals = penrose_residuals(t.flat, x.flat)
    return PinvResult(x, mp.rank, mp.singular_values, residuals, mp.boundary_flag, mp.cutoff)


def penrose_residuals(t_flat, x_flat):
    """Relative residuals of the four defining equations."""
    tx = t_flat @ x_flat
    xt = x_flat @ t_flat
    r1 = spec_norm(tx @ t_flat - t_flat) / (1.0 + spec_norm(t_flat))
    r2 = spec_norm(xt @ x_flat - x_flat) / (1.0 + spec_norm(x_flat))
    r3 = spec_norm(tx - tx.conj().T) / (1.0 + spec_norm(tx))
    r4 = spec_norm(xt - xt.conj().T) / (1.0 + spec_norm(xt))
    return (r1, r2, r3, r4)


@dataclass(frozen=True)
class ThetaClassReport:
    """Which of the four defining equations a candidate inverse satisfies."""

    satisfied: frozenset
    residuals: tuple


def theta_class(t, x, tol=1e-8):
    """Classify ``x`` against the four defining equations for ``t``.

    ``satisfied`` collects the equation indices whose relative residual is
    at most ``tol``; the unique {1,2,3,4}-inverse is the Moore-Penrose
    inverse.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if t.signature != x.signature:
        raise ConformabilityError("signatures differ")
    if (x.rows, x.cols) != (t.cols, t.rows):
        raise ConformabilityError(
            f"candidate must map codomain to domain: got {x.rows}x{x.cols} "
            f"for operator {t.rows}x{t.cols}"
        )
    residuals = penrose_residuals(t.flat, x.flat)
    satisfied = frozenset(i + 1 for i, r in enumerate(residuals) if r <= tol)
    return ThetaClassReport(satisfied, residuals)
