"""Canonical block decompositions of an adjointable operator.

The singular bases of ``T`` split the domain into ``Ran(T*) (+) Ker(T)``
and the codomain into ``Ran(T) (+) Ker(T*)``.  Against these splits the
operator is ``[[T1, 0], [0, 0]]`` with ``T1`` invertible, and its
pseudoinverse is ``[[T1^-1, 0], [0, 0]]`` in the reversed bases.  Against an
arbitrary orthogonal split of the domain (resp. codomain) the operator is a
block row (resp. column) and the pseudoinverse has the closed forms

    [[T1* D^-1, 0], [T2* D^-1, 0]]     with D = T1 T1* + T2 T2*,
    [[G^-1 T1*, G^-1 T2*], [0, 0]]     with G = T1* T1 + T2* T2,

where ``D`` and ``G`` are positive and invertible on ``Ran(T)`` and
``Ran(T*)``.  Over ``A = (+)_i M_{n_i}(C)`` every one of these submodules
splits per algebra block, so each form is one small decomposition per block
matrix of the operator (see :mod:`cstarpinv.operators`): every matrix field
holds one matrix per algebra block, the assembled pseudoinverses are
operators, and each residual's norms are the largest over blocks, taken
separately for the numerator and for the ``1 + ||.||`` denominator.  The
bases come from the operator's cached block SVDs
(:func:`cstarpinv.pinv.operator_svd`), cut at the one rank decision
:func:`cstarpinv.pinv.moore_penrose` makes, and no flattening is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numeric import block_norm, inverse, rel_residual
from .algebra import AlgebraSignature
from .errors import InvalidDecompositionError
from .operators import AdjointableOp, Projection, adjoint_op, compose
from .pinv import moore_penrose, operator_pinv, operator_ranks, operator_svd, orthogonal_complement

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
    """Diagonal block form against the four canonical subspaces, per algebra block."""

    signature: AlgebraSignature
    basis_ran_Tstar: tuple
    basis_ker_T: tuple
    basis_ran_T: tuple
    basis_ker_Tstar: tuple
    T1: tuple
    reconstruction_residual: float

    def assemble_pinv(self):
        """The pseudoinverse rebuilt as ``V1 T1^-1 U1^H`` on every block."""
        return AdjointableOp.from_blocks(
            self.signature,
            [
                v1 @ inverse(t1) @ u1.conj().T
                for v1, t1, u1 in zip(self.basis_ran_Tstar, self.T1, self.basis_ran_T)
            ],
        )


def lemma1_form(t):
    """Extract the canonical diagonal form of ``t``.

    The zero operator is allowed and yields empty ``T1`` blocks.
    """
    per_block = [
        _lemma1_block(*parts)
        for parts in zip(t.blocks, operator_svd(t), operator_ranks(t).ranks)
    ]
    v1, v2, u1, u2, t1, off = zip(*per_block)
    residual = block_norm(off) / (1.0 + block_norm(t.blocks))
    return Lemma1Form(t.signature, v1, v2, u1, u2, t1, residual)


def _lemma1_block(m, f, rank):
    """Bases, ``T1`` and the part of ``m`` outside ``T1`` for one algebra block."""
    u1, v1 = f.U[:, :rank], f.V[:, :rank]
    u2, v2 = orthogonal_complement(f.U, rank), orthogonal_complement(f.V, rank)
    t1 = u1.conj().T @ m @ v1
    off = np.concatenate([u1, u2], axis=1).conj().T @ m @ np.concatenate([v1, v2], axis=1)
    off[:rank, :rank] -= t1
    return v1, v2, u1, u2, t1, off


def _projection_bases(p_op):
    """Per-block orthonormal bases ``(W1, W2)`` of the range and kernel of a projection.

    ``p_op`` is validated as a :class:`Projection` (at 1e-8); its bases come
    from its own cached block SVDs.
    """
    Projection(p_op)
    bases = []
    for f in operator_svd(p_op):
        # Spectrum of a projection is {0, 1}; 1/2 separates the clusters.
        rank = int(np.count_nonzero(f.singular_values > 0.5))
        bases.append((f.U[:, :rank], orthogonal_complement(f.U, rank)))
    return bases


def _split_form(t, p_op, form_block):
    """Fields of a block-row or block-column form, in dataclass order.

    ``form_block(m, f, rank, (W1, W2))`` returns ``T1, T2``, the Gram block,
    the pseudoinverse formula, ``W1, W2`` and the canonical basis of one
    algebra block; the formula is compared with the SVD pseudoinverse.
    """
    bases = _projection_bases(p_op)
    reference = operator_pinv(t)
    per_block = [
        form_block(*parts)
        for parts in zip(t.blocks, operator_svd(t), reference.decision.ranks, bases)
    ]
    t1, t2, gram, formula, w1, w2, basis = zip(*per_block)
    residual = rel_residual(reference.blocks, formula)
    formula = AdjointableOp.from_blocks(t.signature, formula)
    return t1, t2, gram, formula, residual, w1, w2, basis


@dataclass(frozen=True)
class RowBlockForm:
    """Block-row form of ``t`` against a split of its domain, per algebra block."""

    T1: tuple
    T2: tuple
    D: tuple
    pinv_formula: AdjointableOp
    residual_vs_pinv: float
    domain_basis_1: tuple
    domain_basis_2: tuple
    range_basis: tuple


def row_block_form(t, p):
    """Blocks of ``t`` against ``Ran(p) (+) Ker(p)`` on the domain.

    ``p`` must be an orthogonal projection on the domain of ``t`` (accepted
    as :class:`Projection` or a raw operator, validated at 1e-8).  The
    assembled pseudoinverse ``(W1 T1* + W2 T2*) D^-1 U1^H`` is returned with
    its deviation from the SVD pseudoinverse.
    """
    p_op = p.op if isinstance(p, Projection) else p
    if p_op.rows != p_op.cols or p_op.cols != t.cols or p_op.signature != t.signature:
        raise InvalidDecompositionError("projection must act on the domain of t")
    return RowBlockForm(*_split_form(t, p_op, _row_block))


def _row_block(m, f, rank, bases):
    w1, w2 = bases
    u1 = f.U[:, :rank]
    t1 = u1.conj().T @ m @ w1
    t2 = u1.conj().T @ m @ w2
    d = t1 @ t1.conj().T + t2 @ t2.conj().T
    formula = (w1 @ t1.conj().T + w2 @ t2.conj().T) @ inverse(d) @ u1.conj().T
    return t1, t2, d, formula, w1, w2, u1


@dataclass(frozen=True)
class ColBlockForm:
    """Block-column form of ``t`` against a split of its codomain, per algebra block."""

    T1: tuple
    T2: tuple
    Dfrak: tuple
    pinv_formula: AdjointableOp
    residual_vs_pinv: float
    codomain_basis_1: tuple
    codomain_basis_2: tuple
    corange_basis: tuple


def col_block_form(t, q):
    """Blocks of ``t`` against ``Ran(q) (+) Ker(q)`` on the codomain.

    Dual of :func:`row_block_form`: the domain is split into
    ``Ran(T*) (+) Ker(T)`` and the assembled pseudoinverse is
    ``V1 G^-1 (T1* W1^H + T2* W2^H)`` with ``G = T1* T1 + T2* T2``.
    """
    q_op = q.op if isinstance(q, Projection) else q
    if q_op.rows != q_op.cols or q_op.cols != t.rows or q_op.signature != t.signature:
        raise InvalidDecompositionError("projection must act on the codomain of t")
    return ColBlockForm(*_split_form(t, q_op, _col_block))


def _col_block(m, f, rank, bases):
    w1, w2 = bases
    v1 = f.V[:, :rank]
    t1 = w1.conj().T @ m @ v1
    t2 = w2.conj().T @ m @ v1
    g = t1.conj().T @ t1 + t2.conj().T @ t2
    formula = v1 @ inverse(g) @ (t1.conj().T @ w1.conj().T + t2.conj().T @ w2.conj().T)
    return t1, t2, g, formula, w1, w2, v1


def pinv_via_gram(t):
    """Pseudoinverse through the Gram operator: ``T* (T T*)^+``."""
    t_star = adjoint_op(t)
    gram_pinv = moore_penrose(compose(t, t_star)).pseudoinverse
    return compose(t_star, gram_pinv)
