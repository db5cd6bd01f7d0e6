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

* :func:`flatten`, the faithful complex flattening in which algebra entry
  ``a`` contributes, per algebra block of size ``n``, the ``n^2 x n^2``
  matrix ``kron(I_n, a_block)`` (left multiplication under column-major
  stacking).  Up to a fixed permutation of rows and columns it is
  ``(+)_i kron(I_{n_i}, T_i)``, so its spectrum is each block's spectrum
  repeated ``n_i`` times.
* ``entries``, the ``rows x cols`` grid of :class:`AlgebraElement` objects.

:func:`unflatten` imports a foreign flattened matrix and certifies that it
is algebra-linear.  Both directions go through one map, :func:`_copies`,
which views a flattening as the ``n_i`` copies of every block matrix.

Operators are immutable, and each one also caches, lazily, the SVDs of its
blocks (filled by :func:`cstarpinv.pinv.operator_svd`) and the shared
pseudoinverse data of the last pair ``(self, S)`` it was the left factor of
(filled by :mod:`cstarpinv.reverse_order`), so the same matrix is never
factored twice.  Block matrices are limited to ``MAX_BLOCK_SIDE`` rows and
columns; :func:`check_block_size` rejects larger ones before allocating.
"""

from __future__ import annotations

import numpy as np

from ._numeric import block_norm, check_tolerance, rel_residual, spec_norm, spec_norms
from .algebra import AlgebraElement, AlgebraSignature, _freeze
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
    def from_complex_matrix(cls, matrix):
        """Wrap a plain complex matrix as an operator over signature [1].

        Each scalar entry becomes a 1x1 algebra block; this is the bridge
        between ordinary matrices and the module-operator interface.  The
        matrix must be two-dimensional, with at least one row and column.
        """
        return cls.from_blocks(AlgebraSignature((1,)), [np.asarray(matrix, dtype=complex)])

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


def _copies(flat, signature, rows, cols):
    """Per algebra block, a view of a ``rows x cols`` flattening as
    ``[r, q, a, c, q', b]``.

    Element ``(r, q, a, c, q', b)`` of block ``i``'s view is flattened entry
    ``(r*d + offset_i + q*n_i + a, c*d + offset_i + q'*n_i + b)``; copy ``q``
    of ``kron(I_{n_i}, T_i)`` is ``[:, q, :, :, q, :]``, holding element
    ``(r*n_i + a, c*n_i + b)`` of ``T_i``.
    """
    d = signature.dim
    grid = flat.reshape(rows, d, cols, d)
    return [
        grid[:, o : o + n * n, :, o : o + n * n].reshape(rows, n, n, cols, n, n)
        for n, o in zip(signature.block_sizes, signature.block_offsets)
    ]


def _check_same_shape(t, s):
    if t.signature != s.signature:
        raise ConformabilityError("signatures differ")
    if (t.rows, t.cols) != (s.rows, s.cols):
        raise ConformabilityError(
            f"shapes differ: {t.rows}x{t.cols} vs {s.rows}x{s.cols}"
        )


class Projection:
    """An operator validated to satisfy ``P == P*`` and ``P @ P == P``, each
    to within ``1e-8 * (1 + ||P||)``."""

    __slots__ = ("op",)

    def __init__(self, op):
        blocks = op.blocks
        n = len(blocks)
        norms = spec_norms(
            [*blocks, *(p - p.conj().T for p in blocks), *(p @ p - p for p in blocks)]
        )
        bound = 1e-8 * (1.0 + max(norms[:n]))
        if max(norms[n : 2 * n]) > bound:
            raise InvalidDecompositionError("operator is not self-adjoint")
        if max(norms[2 * n :]) > bound:
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
    """The complex flattening, built on each call (read-only)."""
    return _flat_matrix(t)


def _flat_matrix(t):
    flat = np.zeros(t.flat_shape, dtype=complex)
    for block, view in zip(t.blocks, _copies(flat, t.signature, t.rows, t.cols)):
        n = view.shape[1]
        copy = np.arange(n)
        view[:, copy, :, :, copy, :] = block.reshape(t.rows, n, t.cols, n)
    flat.flags.writeable = False
    return flat


def unflatten(matrix, signature, shape, tol=1e-8):
    """Recover a module operator from a flattened complex matrix.

    The left-multiplication pattern is extracted by averaging the repeated
    diagonal blocks; the discarded off-pattern mass must satisfy
    ``||matrix - flatten(result)|| <= tol * (1 + ||matrix||)``, otherwise the
    input was not algebra-linear and a :class:`StructureError` is raised.
    """
    tol = check_tolerance(tol, "tol")
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
        sum(view[:, q, :, :, q, :] for q in range(n)).reshape(rows * n, cols * n) / n
        for n, view in zip(signature.block_sizes, _copies(matrix, signature, rows, cols))
    ]
    op = AdjointableOp.from_blocks(signature, blocks)
    off = spec_norm(matrix - _flat_matrix(op))
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
    tol = check_tolerance(tol, "tol")
    c_pinv, _ = operator_pinv(c)
    projected = [cb @ (cp @ bb) for bb, cb, cp in zip(b.blocks, c.blocks, c_pinv)]
    residual = rel_residual(b.blocks, projected)
    return residual <= tol, residual


def projection_onto_range(t):
    """The orthogonal projection ``t t^+`` onto ``Ran(t)`` as an operator."""
    from .pinv import operator_pinv

    t_pinv, _ = operator_pinv(t)
    blocks = [m @ x for m, x in zip(t.blocks, t_pinv)]
    return Projection(AdjointableOp.from_blocks(t.signature, blocks))
