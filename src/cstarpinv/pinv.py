"""Rank-revealing factorization and Moore-Penrose inverses.

Every factorization is one LAPACK SVD (``numpy.linalg.svd``, economy size)
followed by a fixed phase convention, so results are reproducible run to
run.  A factorization that LAPACK reports as not converged raises
:class:`FactorizationError` rather than returning unconverged factors.

A module operator is one matrix ``T_i`` per algebra block, and its
flattening is ``(+)_i kron(I_{n_i}, T_i)`` up to a permutation, so every
factorization runs on the blocks and never on the n_i-fold redundant
flattening.  The rank is still decided once per operator, on the spectrum
of the flattening (each block's singular values repeated ``n_i`` times,
sorted descending): the cutoff is ``max(m, n) * eps * sigma_1`` for the
flattened ``m x n`` shape and the largest singular value over all blocks,
and the boundary band is checked on every block (see
:func:`block_rank_decision`).  The pseudoinverse is built block by block
from the retained singular triplets, so it is module-linear by
construction.

Operators are immutable, so each one is factored at most once: the SVDs of
its blocks are cached on the operator by :func:`operator_svd` (the arrays
are read-only) and reused by every later pseudoinverse, range inclusion and
block decomposition of that operator.  The cache holds only the factors;
the rank decision is made again on every use, so any ``rank_tol`` can be
applied to the same factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numeric import check_tolerance, rel_residual
from .errors import ConformabilityError, FactorizationError
from .operators import AdjointableOp

__all__ = [
    "SvdFactors",
    "svd_factor",
    "operator_svd",
    "orthogonal_complement",
    "rank_decision",
    "RankDecision",
    "block_rank_decision",
    "operator_ranks",
    "PinvResult",
    "MatrixPinv",
    "BlockPinv",
    "pinv_matrix",
    "pinv_blocks",
    "operator_pinv",
    "moore_penrose",
    "ThetaClassReport",
    "theta_class",
    "penrose_residuals",
]

EPS = 2.0 ** -52


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
    try:
        u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    except np.linalg.LinAlgError:
        raise FactorizationError(f"SVD of a {m}x{n} matrix did not converge") from None
    u, v = _fix_phases(u, vh.conj().T)
    return SvdFactors(u, s, v)


def operator_svd(t):
    """SVD factors of each block of ``t``, computed once and cached on ``t``.

    Returns one :class:`SvdFactors` per algebra block.  The cached arrays
    are read-only, since every later caller shares them.
    """
    factors = t._svd
    if factors is None:
        factors = tuple(svd_factor(block) for block in t.blocks)
        for f in factors:
            for array in (f.U, f.singular_values, f.V):
                array.flags.writeable = False
        object.__setattr__(t, "_svd", factors)
    return factors


def orthogonal_complement(basis):
    """Orthonormal basis of the complement of ``Ran(basis)`` (``basis`` has
    orthonormal columns)."""
    n, r = basis.shape
    if r == 0:
        return np.eye(n, dtype=complex)
    if r == n:
        return np.zeros((n, 0), dtype=complex)
    proj = np.eye(n, dtype=complex) - basis @ basis.conj().T
    return svd_factor(proj).U[:, : n - r]


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
    if rank_tol != "auto":
        rank_tol = float(rank_tol)
        check_tolerance(rank_tol, "rank_tol")
    s = singular_values
    smax = float(s[0]) if s.size else 0.0
    if smax == 0.0:
        return 0, 0.0, False
    if rank_tol == "auto":
        cutoff = max(shape) * EPS * smax
    else:
        cutoff = rank_tol * smax
    rank = int(np.count_nonzero(s > cutoff))
    flag = bool(np.any((s >= cutoff / 10.0) & (s <= cutoff * 10.0)))
    return rank, cutoff, flag


@dataclass(frozen=True)
class RankDecision:
    """One rank decision for a block-diagonal matrix ``(+)_i kron(I_{n_i}, M_i)``.

    ``ranks`` counts the retained singular values of each block ``M_i``;
    ``rank``, ``singular_values``, ``cutoff`` and ``boundary_flag`` are those
    of the whole matrix.
    """

    ranks: tuple
    rank: int
    singular_values: np.ndarray
    cutoff: float
    boundary_flag: bool


def block_rank_decision(shape, factors, sizes, rank_tol="auto"):
    """:func:`rank_decision` for ``(+)_i kron(I_{n_i}, M_i)`` from the SVDs of the ``M_i``.

    ``shape`` is the shape of the whole matrix, and its spectrum is each
    block's singular values repeated ``n_i`` times, sorted descending, so
    the cutoff, the rank and the boundary flag are exactly those of a
    decision on the whole matrix.  Each block retains its singular values
    above the common cutoff.
    """
    spectrum = -np.sort(
        -np.concatenate([np.repeat(f.singular_values, n) for f, n in zip(factors, sizes)])
    )
    rank, cutoff, flag = rank_decision(shape, spectrum, rank_tol)
    ranks = tuple(int(np.count_nonzero(f.singular_values > cutoff)) for f in factors)
    return RankDecision(ranks, rank, spectrum, cutoff, flag)


def operator_ranks(t, rank_tol="auto"):
    """The rank decision of a module operator, on its cached block SVDs."""
    return block_rank_decision(t.flat_shape, operator_svd(t), t.signature.block_sizes, rank_tol)


def _pinv_from_factors(f, rank):
    if rank == 0:
        return np.zeros((f.V.shape[0], f.U.shape[0]), dtype=complex)
    return f.V[:, :rank] @ (f.U[:, :rank].conj().T / f.singular_values[:rank, None])


@dataclass(frozen=True)
class BlockPinv:
    """Per-block pseudoinverses with the rank decision they were cut at."""

    blocks: tuple
    decision: RankDecision


def pinv_blocks(shape, factors, sizes, rank_tol="auto"):
    """Pseudoinverse of ``(+)_i kron(I_{n_i}, M_i)``, block by block.

    Arguments are those of :func:`block_rank_decision`; each block keeps
    the singular values above the common cutoff and inverts them on its
    factor bases.
    """
    decision = block_rank_decision(shape, factors, sizes, rank_tol)
    blocks = tuple(_pinv_from_factors(f, r) for f, r in zip(factors, decision.ranks))
    return BlockPinv(blocks, decision)


def operator_pinv(t, rank_tol="auto"):
    """Per-block pseudoinverse of a module operator from its cached SVDs."""
    return pinv_blocks(t.flat_shape, operator_svd(t), t.signature.block_sizes, rank_tol)


def pinv_matrix(matrix, rank_tol="auto"):
    """Moore-Penrose inverse of a complex matrix via :func:`svd_factor`.

    Retains singular values above the :func:`rank_decision` cutoff and
    inverts them on the factor bases.
    """
    matrix = np.asarray(matrix, dtype=complex)
    f = svd_factor(matrix)
    s = f.singular_values
    rank, cutoff, flag = rank_decision(matrix.shape, s, rank_tol)
    return MatrixPinv(_pinv_from_factors(f, rank), rank, s, cutoff, flag)


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

    Computed block by block from the cached block SVDs (see
    :func:`operator_svd`) with one rank decision for the operator (see
    :func:`block_rank_decision`); ``rank``, ``singular_values`` and
    ``cutoff`` are those of the flattening.  The four reported residuals
    correspond to the defining equations ``TXT = T``, ``XTX = X``,
    ``(TX)* = TX`` and ``(XT)* = XT``.
    """
    mp = operator_pinv(t, rank_tol)
    x = AdjointableOp.from_blocks(t.signature, mp.blocks)
    residuals = penrose_residuals(t.blocks, x.blocks)
    d = mp.decision
    return PinvResult(x, d.rank, d.singular_values, residuals, d.boundary_flag, d.cutoff)


def penrose_residuals(t, x):
    """Relative residuals of the four defining equations.

    ``t`` and ``x`` are matrices, or sequences of the per-block matrices of
    two block-diagonal ones; every norm is then the largest over blocks.
    """
    if isinstance(t, np.ndarray):
        t, x = (t,), (x,)
    tx = [a @ b for a, b in zip(t, x)]
    xt = [b @ a for a, b in zip(t, x)]
    r1 = rel_residual(t, [p @ a for p, a in zip(tx, t)])
    r2 = rel_residual(x, [q @ b for q, b in zip(xt, x)])
    r3 = rel_residual(tx, [p.conj().T for p in tx])
    r4 = rel_residual(xt, [q.conj().T for q in xt])
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
    check_tolerance(tol, "tol")
    if t.signature != x.signature:
        raise ConformabilityError("signatures differ")
    if (x.rows, x.cols) != (t.cols, t.rows):
        raise ConformabilityError(
            f"candidate must map codomain to domain: got {x.rows}x{x.cols} "
            f"for operator {t.rows}x{t.cols}"
        )
    residuals = penrose_residuals(t.blocks, x.blocks)
    satisfied = frozenset(i + 1 for i, r in enumerate(residuals) if r <= tol)
    return ThetaClassReport(satisfied, residuals)
