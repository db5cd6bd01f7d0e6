"""Adjointable operators between free Hilbert modules.

An operator from ``A^k`` to ``A^m`` over ``A = M_{n1}(C) (+) ... (+) M_{nr}(C)``
is exactly one complex matrix ``T_i`` of shape ``(m*n_i) x (k*n_i)`` per
algebra block (the structure theorem for finite-dimensional C*-algebras):
entry ``(r, c)`` of the operator contributes its block ``i`` at rows
``r*n_i ...`` and columns ``c*n_i ...`` of ``T_i``.  Operators store these
matrices, read-only, in ``blocks``; products, adjoints, norms and all
numerics run block by block, and an operator norm is the largest norm over
blocks.

Two derived views are built on demand, for importing and exporting only;
no computation in the package builds either, and this module is the only
one that builds or indexes a flattening:

* ``flat``, the faithful complex flattening in which algebra entry ``a``
  contributes, per algebra block of size ``n``, the ``n^2 x n^2`` matrix
  ``kron(I_n, a_block)`` (left multiplication under column-major stacking).
  Up to a fixed permutation of rows and columns it is ``(+)_i kron(I_{n_i},
  T_i)``, so its spectrum is each block's spectrum repeated ``n_i`` times.
* ``entries``, the ``rows x cols`` grid of :class:`AlgebraElement` objects.

:func:`unflatten` imports a foreign flattened matrix and certifies that it
is algebra-linear.

Operators are immutable, and each one also caches, lazily, the SVDs of its
blocks (filled by :func:`cstarpinv.pinv.operator_svd`) and the shared
pseudoinverse data of the last pair ``(self, S)`` it was the left factor of
(filled by :mod:`cstarpinv.reverse_order`), so the same matrix is never
factored twice.  Block matrices are limited to ``MAX_BLOCK_SIDE`` rows and
columns; :func:`check_block_size` rejects larger ones before allocating.
"""

from __future__ import annotations

import numpy as np

from ._numeric import block_norm, check_tolerance, rel_residual, spec_norm
from .algebra import AlgebraElement, AlgebraSignature
from .errors import ConformabilityError, InvalidDecompositionError, SizeLimitError, StructureError
from .module_space import ModuleVector

__all__ = [
    "MAX_BLOCK_SIDE",
    "check_block_size",
    "AdjointableOp",
    "Projection",
    "apply",
    "adjoint_op",
    "compose",
    "flatten",
    "unflatten",
    "op_norm",
    "off_pattern_mass",
    "range_inclusion",
    "projection_onto_range",
]


# Largest supported number of rows or columns of an operator's block
# matrices stacked block-diagonally, (+)_i T_i: a 2048x2048 complex matrix
# takes 64 MiB, and its SVD grows with its cube.  For one algebra block this
# bounds the block matrix itself; with many blocks it also bounds their sum.
MAX_BLOCK_SIDE = 2048


def check_block_size(signature, rows, cols):
    """Raise :class:`SizeLimitError` unless the block matrices of a
    ``rows x cols`` operator over ``signature``, stacked block-diagonally,
    have at most ``MAX_BLOCK_SIDE`` rows and columns."""
    n = sum(signature.block_sizes)
    if max(rows, cols) * n > MAX_BLOCK_SIDE:
        raise SizeLimitError(
            f"a {rows}x{cols} operator over signature {list(signature.block_sizes)} "
            f"has {rows * n}x{cols * n} block matrices stacked block-diagonally; at most "
            f"{MAX_BLOCK_SIDE} rows and columns are supported"
        )


def _freeze(matrix):
    out = np.array(matrix, dtype=complex)
    out.flags.writeable = False
    return out


class AdjointableOp:
    """Adjointable operator ``A^cols -> A^rows``, one matrix per algebra block.

    ``AdjointableOp(entries)`` takes a ``rows x cols`` grid of
    :class:`AlgebraElement` objects; :meth:`from_blocks` takes the per-block
    matrices directly.  ``_svd`` and ``_pair`` are lazily filled caches (see
    the module docstring).  Neither changes what the operator is: ``_svd`` is
    set once, and ``_pair`` is replaced when ``self`` is paired with another
    ``S``.
    """

    __slots__ = ("signature", "rows", "cols", "blocks", "_svd", "_pair")

    def __init__(self, entries=None, *, signature=None, blocks=None):
        if entries is not None:
            signature, blocks = _blocks_from_entries(entries)
        elif signature is None or blocks is None:
            raise ConformabilityError("operators need entries, or a signature and blocks")
        sizes = signature.block_sizes
        blocks = tuple(_freeze(b) for b in blocks)
        if len(blocks) != len(sizes) or any(b.ndim != 2 for b in blocks):
            raise ConformabilityError(f"expected {len(sizes)} block matrices")
        rows, cols = blocks[0].shape[0] // sizes[0], blocks[0].shape[1] // sizes[0]
        if rows < 1 or cols < 1:
            raise ConformabilityError("operators need at least one entry")
        for b, n in zip(blocks, sizes):
            if b.shape != (rows * n, cols * n):
                raise ConformabilityError(
                    f"block of shape {b.shape} does not fit a {rows}x{cols} operator "
                    f"over block size {n}"
                )
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_svd", None)
        object.__setattr__(self, "_pair", None)

    def __setattr__(self, name, value):
        raise AttributeError("AdjointableOp is immutable")

    @classmethod
    def from_blocks(cls, signature, blocks):
        """The operator whose block ``i`` is ``blocks[i]`` (copied and frozen)."""
        return cls(signature=signature, blocks=blocks)

    @property
    def flat_shape(self):
        """Shape of the flattening, without building it."""
        d = self.signature.dim
        return (self.rows * d, self.cols * d)

    @property
    def flat(self):
        """The complex flattening (built on each access, read-only)."""
        return _flat_matrix(self)

    @property
    def entries(self):
        """The ``rows x cols`` grid of algebra elements (built on each access)."""
        return _entry_grid(self)

    @classmethod
    def zero(cls, signature, rows, cols):
        sizes = signature.block_sizes
        return cls.from_blocks(signature, [np.zeros((rows * n, cols * n)) for n in sizes])

    @classmethod
    def identity(cls, signature, n):
        return cls.from_blocks(signature, [np.eye(n * size) for size in signature.block_sizes])

    @classmethod
    def from_complex_matrix(cls, matrix, signature=None):
        """Wrap a plain complex matrix as an operator over signature [1].

        Each scalar entry becomes a 1x1 algebra block; this is the bridge
        between ordinary matrices and the module-operator interface.
        """
        if signature is None:
            signature = AlgebraSignature((1,))
        if signature.block_sizes != (1,):
            raise ConformabilityError("from_complex_matrix requires signature [1]")
        return cls.from_blocks(signature, [np.atleast_2d(np.asarray(matrix, dtype=complex))])

    def __add__(self, other):
        _check_same_shape(self, other)
        return AdjointableOp.from_blocks(
            self.signature, [a + b for a, b in zip(self.blocks, other.blocks)]
        )

    def __sub__(self, other):
        _check_same_shape(self, other)
        return AdjointableOp.from_blocks(
            self.signature, [a - b for a, b in zip(self.blocks, other.blocks)]
        )

    def scale(self, scalar):
        return AdjointableOp.from_blocks(
            self.signature, [complex(scalar) * b for b in self.blocks]
        )

    def adjoint(self):
        return adjoint_op(self)

    def norm(self):
        return op_norm(self)

    def __matmul__(self, other):
        return compose(self, other)

    def __repr__(self):
        return (
            f"AdjointableOp({self.rows}x{self.cols}, "
            f"signature={self.signature.block_sizes})"
        )


def _blocks_from_entries(entries):
    """Signature and per-block matrices of a grid of algebra elements."""
    entries = tuple(tuple(row) for row in entries)
    if not entries or not entries[0]:
        raise ConformabilityError("operators need at least one entry")
    signature = entries[0][0].signature
    cols = len(entries[0])
    for row in entries:
        if len(row) != cols:
            raise ConformabilityError("ragged entry matrix")
        for e in row:
            if e.signature != signature:
                raise ConformabilityError("entries carry different signatures")
    blocks = [
        np.block([[e.blocks[i] for e in row] for row in entries])
        for i in range(len(signature.block_sizes))
    ]
    return signature, blocks


def _entry_grid(t):
    return tuple(
        tuple(
            AlgebraElement(
                t.signature,
                [
                    b[r * n : (r + 1) * n, c * n : (c + 1) * n]
                    for b, n in zip(t.blocks, t.signature.block_sizes)
                ],
            )
            for c in range(t.cols)
        )
        for r in range(t.rows)
    )


def flat_index(signature, count):
    """Where each block's copies sit in a flattening with ``count`` entry rows.

    Returns, per algebra block ``i``, one index array per copy ``q`` of
    ``kron(I_{n_i}, T_i)``: element ``r*n_i + a`` of copy ``q`` is flattened
    row ``r*d + offset_i + q*n_i + a``.  The same map serves the columns.
    """
    d = signature.dim
    starts = np.arange(count)[:, None] * d
    return [
        [(starts + offset + q * n + np.arange(n)).ravel() for q in range(n)]
        for n, offset in zip(signature.block_sizes, signature.block_offsets)
    ]


def _flat_matrix(t):
    flat = np.zeros(t.flat_shape, dtype=complex)
    row_index = flat_index(t.signature, t.rows)
    col_index = flat_index(t.signature, t.cols)
    for block, rows, cols in zip(t.blocks, row_index, col_index):
        for r, c in zip(rows, cols):
            flat[np.ix_(r, c)] = block
    flat.flags.writeable = False
    return flat


def _check_same_shape(t, s):
    if t.signature != s.signature:
        raise ConformabilityError("signatures differ")
    if (t.rows, t.cols) != (s.rows, s.cols):
        raise ConformabilityError(
            f"shapes differ: {t.rows}x{t.cols} vs {s.rows}x{s.cols}"
        )


class Projection:
    """An operator validated to satisfy ``P == P*`` and ``P @ P == P``."""

    __slots__ = ("op",)

    def __init__(self, op, tol=1e-8):
        scale = 1.0 + op_norm(op)
        if block_norm([p - p.conj().T for p in op.blocks]) > tol * scale:
            raise InvalidDecompositionError("operator is not self-adjoint")
        if block_norm([p @ p - p for p in op.blocks]) > tol * scale:
            raise InvalidDecompositionError("operator is not idempotent")
        object.__setattr__(self, "op", op)

    def __setattr__(self, name, value):
        raise AttributeError("Projection is immutable")


def apply(t, x):
    """Apply ``t`` to a module vector: ``(t x)_i = sum_j t_ij x_j``."""
    if t.signature != x.signature:
        raise ConformabilityError("signatures differ")
    if t.cols != len(x):
        raise ConformabilityError(f"operator has {t.cols} columns, vector length {len(x)}")
    images = [
        block @ np.vstack([comp.blocks[i] for comp in x.components])
        for i, block in enumerate(t.blocks)
    ]
    sizes = t.signature.block_sizes
    return ModuleVector(
        [
            AlgebraElement(
                t.signature, [y[r * n : (r + 1) * n] for y, n in zip(images, sizes)]
            )
            for r in range(t.rows)
        ]
    )


def adjoint_op(t):
    """The adjoint: transposed entries, each conjugate-transposed."""
    return AdjointableOp.from_blocks(t.signature, [b.conj().T for b in t.blocks])


def compose(t, s):
    """Operator product ``t s`` (apply ``s`` first)."""
    if t.signature != s.signature:
        raise ConformabilityError("signatures differ")
    if t.cols != s.rows:
        raise ConformabilityError(
            f"inner dimensions differ: {t.rows}x{t.cols} times {s.rows}x{s.cols}"
        )
    return AdjointableOp.from_blocks(t.signature, [a @ b for a, b in zip(t.blocks, s.blocks)])


def flatten(t):
    """The complex flattening (read-only)."""
    return t.flat


def unflatten(matrix, signature, shape, tol=1e-8):
    """Recover a module operator from a flattened complex matrix.

    The left-multiplication pattern is extracted by averaging the repeated
    diagonal blocks; the discarded off-pattern mass must satisfy
    ``||matrix - flatten(result)|| <= tol * (1 + ||matrix||)``, otherwise the
    input was not algebra-linear and a :class:`StructureError` is raised.
    """
    op, off = _unflatten_with_mass(matrix, signature, shape)
    if off > tol * (1.0 + spec_norm(matrix)):
        raise StructureError(
            f"off-pattern mass {off:.3e} exceeds tolerance; matrix is not module-linear"
        )
    return op


def _unflatten_with_mass(matrix, signature, shape):
    rows, cols = shape
    d = signature.dim
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (rows * d, cols * d):
        raise ConformabilityError(
            f"expected shape {(rows * d, cols * d)}, got {matrix.shape}"
        )
    blocks = [
        sum(matrix[np.ix_(r, c)] for r, c in zip(row_copies, col_copies)) / n
        for n, row_copies, col_copies in zip(
            signature.block_sizes, flat_index(signature, rows), flat_index(signature, cols)
        )
    ]
    op = AdjointableOp.from_blocks(signature, blocks)
    off = spec_norm(matrix - op.flat)
    return op, off


def op_norm(t):
    """Operator norm: the largest spectral norm over blocks."""
    return block_norm(t.blocks)


def off_pattern_mass(matrix, signature, shape):
    """Spectral distance from ``matrix`` to the left-multiplication pattern."""
    _, off = _unflatten_with_mass(matrix, signature, shape)
    return off


def range_inclusion(b, c, tol=1e-8):
    """Certify ``Ran(b) <= Ran(c)`` numerically.

    Returns ``(verdict, residual)`` with
    ``residual = ||(I - c c^+) b|| / (1 + ||b||)``.
    """
    from .pinv import operator_pinv

    if b.signature != c.signature:
        raise ConformabilityError("signatures differ")
    if b.rows != c.rows:
        raise ConformabilityError("operators must share a codomain")
    check_tolerance(tol, "tol")
    residual = range_inclusion_residual(b.blocks, c.blocks, operator_pinv(c).blocks)
    return residual <= tol, residual


def range_inclusion_residual(b_blocks, c_blocks, c_pinv_blocks):
    """Residual of ``Ran(b) <= Ran(c)`` given a precomputed pseudoinverse.

    All three arguments are sequences of per-block matrices.
    """
    projected = [c @ (cp @ b) for b, c, cp in zip(b_blocks, c_blocks, c_pinv_blocks)]
    return rel_residual(b_blocks, projected)


def projection_onto_range(t):
    """The orthogonal projection ``t t^+`` onto ``Ran(t)`` as an operator."""
    from .pinv import moore_penrose

    return Projection(compose(t, moore_penrose(t).pseudoinverse))
