"""Canonical block decompositions of an adjointable operator.

Singular bases of the flattening split the domain into ``Ran(T*) (+) Ker(T)``
and the codomain into ``Ran(T) (+) Ker(T*)``.  Against these splits the
operator is ``[[T1, 0], [0, 0]]`` with ``T1`` invertible, and its
pseudoinverse is ``[[T1^-1, 0], [0, 0]]`` in the reversed bases.  Against an
arbitrary orthogonal split of the domain (resp. codomain) the operator is a
block row (resp. column) and the pseudoinverse has the closed forms

    [[T1* D^-1, 0], [T2* D^-1, 0]]     with D = T1 T1* + T2 T2*,
    [[G^-1 T1*, G^-1 T2*], [0, 0]]     with G = T1* T1 + T2* T2,

where ``D`` and ``G`` are positive and invertible on ``Ran(T)`` and
``Ran(T*)``.  All block data live on the flattened complex representation
(see :attr:`AdjointableOp.flat`); the identities they certify are
representation-independent.  The operator's singular bases in flattened
coordinates are assembled from its cached per-block SVDs
(:func:`cstarpinv.pinv.operator_svd`), so the flattening itself is never
factored, and its rank is the one :func:`cstarpinv.pinv.moore_penrose`
decides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numeric import spec_norm
from .errors import InvalidDecompositionError
from .operators import Projection, adjoint_op, compose, flat_index
from .pinv import (
    SvdFactors,
    moore_penrose,
    operator_svd,
    orthogonal_complement,
    pinv_from_svd,
    rank_decision,
    svd_factor,
)

__all__ = [
    "Lemma1Form",
    "RowBlockForm",
    "ColBlockForm",
    "lemma1_form",
    "row_block_form",
    "col_block_form",
    "pinv_via_gram",
]


@dataclass(frozen=True)
class Lemma1Form:
    """Diagonal block form against the four canonical subspaces."""

    basis_ran_Tstar: np.ndarray
    basis_ker_T: np.ndarray
    basis_ran_T: np.ndarray
    basis_ker_Tstar: np.ndarray
    T1: np.ndarray
    reconstruction_residual: float

    def assemble_pinv(self):
        """Flattened pseudoinverse rebuilt as ``V1 T1^-1 U1^H``."""
        r = self.T1.shape[0]
        if r == 0:
            rows = self.basis_ran_Tstar.shape[0]
            cols = self.basis_ran_T.shape[0]
            return np.zeros((rows, cols), dtype=complex)
        t1_inv = np.linalg.solve(self.T1, np.eye(r, dtype=complex))
        return self.basis_ran_Tstar @ t1_inv @ self.basis_ran_T.conj().T


def lemma1_form(t, rank_tol="auto"):
    """Extract the canonical diagonal form from the flattening of ``t``.

    The zero operator is allowed and yields an empty ``T1``.
    """
    flat = t.flat
    f = _flat_svd(t)
    rank, _, _ = rank_decision(flat.shape, f.singular_values, rank_tol)
    u1, u2 = f.U[:, :rank], orthogonal_complement(f.U[:, :rank])
    v1, v2 = f.V[:, :rank], orthogonal_complement(f.V[:, :rank])
    t1 = u1.conj().T @ flat @ v1
    transformed = np.concatenate([u1, u2], axis=1).conj().T @ flat @ np.concatenate(
        [v1, v2], axis=1
    )
    off = transformed.copy()
    off[:rank, :rank] -= t1
    residual = spec_norm(off) / (1.0 + spec_norm(flat))
    return Lemma1Form(v1, v2, u1, u2, t1, residual)


def _flat_svd(t):
    """SVD of ``t.flat`` assembled from the cached per-block SVDs.

    The flattening is ``(+)_i kron(I_{n_i}, T_i)`` under the index map of
    :func:`cstarpinv.operators.flat_index`, so every singular triplet of
    ``T_i`` appears ``n_i`` times, once per copy.  The map keeps the order
    of each block's rows and columns, so ``V``'s phase convention carries
    over.
    """
    rows, cols = t.flat_shape
    row_index = flat_index(t.signature, t.rows)
    col_index = flat_index(t.signature, t.cols)
    us, ss, vs = [], [], []
    for f, row_copies, col_copies in zip(operator_svd(t), row_index, col_index):
        for r, c in zip(row_copies, col_copies):
            u = np.zeros((rows, f.U.shape[1]), dtype=complex)
            v = np.zeros((cols, f.V.shape[1]), dtype=complex)
            u[r] = f.U
            v[c] = f.V
            us.append(u)
            vs.append(v)
            ss.append(f.singular_values)
    s = np.concatenate(ss)
    order = np.argsort(-s, kind="stable")
    return SvdFactors(np.hstack(us)[:, order], s[order], np.hstack(vs)[:, order])


def _codomain_split(t, rank_tol):
    f = _flat_svd(t)
    rank, _, _ = rank_decision(t.flat_shape, f.singular_values, rank_tol)
    return f.U[:, :rank], orthogonal_complement(f.U[:, :rank]), f, rank


def _projection_bases(p_op):
    """Orthonormal bases of the range and kernel of a projection.

    ``p_op`` is validated as a :class:`Projection` (at 1e-8).
    """
    p = Projection(p_op).op.flat
    f = svd_factor(p)
    # Spectrum of a projection is {0, 1}; 1/2 separates the clusters.
    rank = int(np.count_nonzero(f.singular_values > 0.5))
    return f.U[:, :rank], orthogonal_complement(f.U[:, :rank])


@dataclass(frozen=True)
class RowBlockForm:
    """Block-row form of ``t`` against a split of its domain."""

    T1: np.ndarray
    T2: np.ndarray
    D: np.ndarray
    pinv_formula: np.ndarray
    residual_vs_pinv: float
    domain_basis_1: np.ndarray
    domain_basis_2: np.ndarray
    range_basis: np.ndarray


def row_block_form(t, p, rank_tol="auto"):
    """Blocks of ``t`` against ``Ran(p) (+) Ker(p)`` on the domain.

    ``p`` must be an orthogonal projection on the domain of ``t`` (accepted
    as :class:`Projection` or a raw operator, validated at 1e-8).  The
    assembled pseudoinverse ``(W1 T1* + W2 T2*) D^-1 U1^H`` is returned with
    its deviation from the SVD pseudoinverse.
    """
    p_op = p.op if isinstance(p, Projection) else p
    if p_op.rows != p_op.cols or p_op.cols != t.cols or p_op.signature != t.signature:
        raise InvalidDecompositionError("projection must act on the domain of t")
    w1, w2 = _projection_bases(p_op)
    flat = t.flat
    u1, _, f, rank = _codomain_split(t, rank_tol)
    t1 = u1.conj().T @ flat @ w1
    t2 = u1.conj().T @ flat @ w2
    d = t1 @ t1.conj().T + t2 @ t2.conj().T
    if rank == 0:
        formula = np.zeros((flat.shape[1], flat.shape[0]), dtype=complex)
    else:
        d_inv = np.linalg.solve(d, np.eye(rank, dtype=complex))
        formula = (w1 @ t1.conj().T + w2 @ t2.conj().T) @ d_inv @ u1.conj().T
    reference = pinv_from_svd(flat.shape, f, rank_tol).pinv
    residual = spec_norm(formula - reference) / (1.0 + spec_norm(reference))
    return RowBlockForm(t1, t2, d, formula, residual, w1, w2, u1)


@dataclass(frozen=True)
class ColBlockForm:
    """Block-column form of ``t`` against a split of its codomain."""

    T1: np.ndarray
    T2: np.ndarray
    Dfrak: np.ndarray
    pinv_formula: np.ndarray
    residual_vs_pinv: float
    codomain_basis_1: np.ndarray
    codomain_basis_2: np.ndarray
    corange_basis: np.ndarray


def col_block_form(t, q, rank_tol="auto"):
    """Blocks of ``t`` against ``Ran(q) (+) Ker(q)`` on the codomain.

    Dual of :func:`row_block_form`: the domain is split into
    ``Ran(T*) (+) Ker(T)`` and the assembled pseudoinverse is
    ``V1 G^-1 (T1* W1^H + T2* W2^H)`` with ``G = T1* T1 + T2* T2``.
    """
    q_op = q.op if isinstance(q, Projection) else q
    if q_op.rows != q_op.cols or q_op.cols != t.rows or q_op.signature != t.signature:
        raise InvalidDecompositionError("projection must act on the codomain of t")
    w1, w2 = _projection_bases(q_op)
    flat = t.flat
    f = _flat_svd(t)
    rank, _, _ = rank_decision(flat.shape, f.singular_values, rank_tol)
    v1 = f.V[:, :rank]
    t1 = w1.conj().T @ flat @ v1
    t2 = w2.conj().T @ flat @ v1
    g = t1.conj().T @ t1 + t2.conj().T @ t2
    if rank == 0:
        formula = np.zeros((flat.shape[1], flat.shape[0]), dtype=complex)
    else:
        g_inv = np.linalg.solve(g, np.eye(rank, dtype=complex))
        formula = v1 @ g_inv @ (t1.conj().T @ w1.conj().T + t2.conj().T @ w2.conj().T)
    reference = pinv_from_svd(flat.shape, f, rank_tol).pinv
    residual = spec_norm(formula - reference) / (1.0 + spec_norm(reference))
    return ColBlockForm(t1, t2, g, formula, residual, w1, w2, v1)


def pinv_via_gram(t):
    """Pseudoinverse through the Gram operator: ``T* (T T*)^+``."""
    t_star = adjoint_op(t)
    gram_pinv = moore_penrose(compose(t, t_star)).pseudoinverse
    return compose(t_star, gram_pinv)
