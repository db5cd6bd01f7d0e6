"""Rank-revealing factorization and Moore-Penrose inverses.

Every factorization is one LAPACK SVD (``numpy.linalg.svd``, economy size)
with its factors as LAPACK returns them; LAPACK is deterministic, so results
are reproducible run to run.  Results read the factors only through norms and
products that no unit phase of a singular pair changes (``V S^+ U*``, ``U U*``).
A factorization that LAPACK reports as not converged raises
:class:`FactorizationError` rather than returning unconverged factors.

A module operator is one matrix ``T_i`` per algebra block, and its
flattening is ``(+)_i kron(I_{n_i}, T_i)`` up to a permutation, so every
factorization runs on the blocks and never on the n_i-fold redundant
flattening.  The rank is still decided once per operator, on the spectrum
of the flattening (each block's singular values repeated ``n_i`` times,
sorted descending): the cutoff is ``max(m, n) * eps * sigma_1`` for the
flattened ``m x n`` shape and the largest singular value over all blocks,
and the boundary band is checked on every block (see
:func:`operator_ranks`).  The pseudoinverse is built block by block
from the retained singular triplets, so it is module-linear by
construction.  It is the only pseudoinverse path: a plain matrix goes
through it as a one-block operator over signature [1] (:func:`pinv_matrix`).
A pseudoinverse is its blocks and the :class:`RankDecision` they were cut
at, the pair :func:`operator_pinv` returns; :class:`MatrixPinv` and
:class:`PinvResult` are the public results built from it, and only
:func:`moore_penrose` adds the Penrose residuals.

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

from ._numeric import check_tolerance, rel_residuals
from .errors import ConformabilityError, FactorizationError
from .operators import AdjointableOp

__all__ = [
    "SvdFactors",
    "svd_factor",
    "operator_svd",
    "orthogonal_complement",
    "rank_decision",
    "RankDecision",
    "operator_ranks",
    "PinvResult",
    "MatrixPinv",
    "pinv_matrix",
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

    ``U`` and ``V`` have orthonormal columns and singular values are sorted
    in descending order.  Each singular pair ``(u_j, v_j)`` is fixed only up
    to one common unit phase; the factors are NumPy's ``u`` and
    ``vh.conj().T`` unchanged.
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
        raise FactorizationError("matrix entries must be finite")
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
    return SvdFactors(u, s, vh.conj().T)


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


def orthogonal_complement(basis, rank):
    """Orthonormal basis of the complement of ``Ran(basis[:, :rank])``.

    ``basis`` has orthonormal columns (an SVD factor), so its columns past
    ``rank`` lie in the complement.  A square ``basis`` has nothing else to
    add and no factorization is made; otherwise they are followed by an
    orthonormal basis of the complement of all of ``Ran(basis)``.
    """
    n, k = basis.shape
    if k == n:
        return basis[:, rank:]
    rest = svd_factor(np.eye(n, dtype=complex) - basis @ basis.conj().T).U[:, : n - k]
    return np.concatenate([basis[:, rank:], rest], axis=1)


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
        rank_tol = check_tolerance(rank_tol, "rank_tol")
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
    """One rank decision for a module operator.

    ``ranks`` counts the retained singular values of each block matrix;
    ``rank``, ``singular_values``, ``cutoff`` and ``boundary_flag`` are those
    of the flattening.
    """

    ranks: tuple
    rank: int
    singular_values: np.ndarray
    cutoff: float
    boundary_flag: bool


def operator_ranks(t, rank_tol="auto"):
    """The rank decision of a module operator, on its cached block SVDs.

    :func:`rank_decision` runs on the spectrum of the flattening, each
    block's singular values repeated ``n_i`` times and sorted descending,
    so the cutoff, the rank and the boundary flag are exactly those of a
    decision on the flattening.  Each block retains its singular values
    above the common cutoff.
    """
    factors = operator_svd(t)
    spectrum = -np.sort(
        -np.concatenate(
            [np.repeat(f.singular_values, n) for f, n in zip(factors, t.signature.block_sizes)]
        )
    )
    rank, cutoff, flag = rank_decision(t.flat_shape, spectrum, rank_tol)
    ranks = tuple(int(np.count_nonzero(f.singular_values > cutoff)) for f in factors)
    return RankDecision(ranks, rank, spectrum, cutoff, flag)


def _pinv_from_factors(f, rank):
    return f.V[:, :rank] @ (f.U[:, :rank].conj().T / f.singular_values[:rank, None])


def operator_pinv(t, rank_tol="auto"):
    """Per-block pseudoinverse of a module operator from its cached SVDs.

    Returns the pair ``(blocks, decision)``: one pseudoinverse matrix per
    algebra block, and the :class:`RankDecision` of :func:`operator_ranks`
    they were cut at.  Each block keeps the singular values above the
    decision's common cutoff and inverts them on its factor bases.
    """
    decision = operator_ranks(t, rank_tol)
    blocks = tuple(_pinv_from_factors(f, r) for f, r in zip(operator_svd(t), decision.ranks))
    return blocks, decision


def pinv_matrix(matrix, rank_tol="auto"):
    """Moore-Penrose inverse of a complex matrix via :func:`operator_pinv`.

    Retains singular values above the :func:`rank_decision` cutoff and
    inverts them on the factor bases.  The matrix is the one block of an
    operator over signature [1], whose flattening is the matrix itself, so
    the cutoff is that of the matrix's shape; it needs a row and a column.
    """
    (block,), d = operator_pinv(AdjointableOp.from_complex_matrix(matrix), rank_tol)
    return MatrixPinv(block, d.rank, d.singular_values, d.cutoff, d.boundary_flag)


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
    :func:`operator_ranks`); ``rank``, ``singular_values`` and
    ``cutoff`` are those of the flattening.  The four reported residuals
    correspond to the defining equations ``TXT = T``, ``XTX = X``,
    ``(TX)* = TX`` and ``(XT)* = XT``.
    """
    if not isinstance(t, AdjointableOp):
        raise ConformabilityError(
            "moore_penrose takes an AdjointableOp; use pinv_matrix for a plain matrix"
        )
    blocks, d = operator_pinv(t, rank_tol)
    x = AdjointableOp.from_blocks(t.signature, blocks)
    residuals = penrose_residuals(t.blocks, x.blocks)
    return PinvResult(x, d.rank, d.singular_values, residuals, d.boundary_flag, d.cutoff)


def penrose_residuals(t, x):
    """Relative residuals of the four defining equations.

    ``t`` and ``x`` are sequences of the per-block matrices of two
    block-diagonal matrices; every norm is the largest over blocks, and all
    four residuals share one batch of norms.
    """
    return tuple(rel_residuals(penrose_identities(t, x)))


def penrose_identities(t, x):
    """The ``(lhs, rhs)`` pairs of ``TXT = T``, ``XTX = X``, ``(TX)* = TX``
    and ``(XT)* = XT``, for :func:`~cstarpinv._numeric.rel_residuals`."""
    tx = [a @ b for a, b in zip(t, x)]
    xt = [b @ a for a, b in zip(t, x)]
    return (
        (t, [p @ a for p, a in zip(tx, t)]),
        (x, [q @ b for q, b in zip(xt, x)]),
        (tx, [p.conj().T for p in tx]),
        (xt, [q.conj().T for q in xt]),
    )


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
    tol = check_tolerance(tol, "tol")
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
