"""Adjointable operators between free Hilbert modules.

An operator from ``A^k`` to ``A^m`` is an ``m x k`` matrix of algebra
elements acting by left multiplication.  Every operator caches a faithful
complex flattening at construction: algebra entry ``a`` contributes, per
algebra block of size ``n``, the ``n^2 x n^2`` matrix ``kron(I_n, a_block)``
(left multiplication under column-major stacking).  The flattening is a
*-homomorphism, so the adjoint becomes the conjugate transpose and all
numerics can run on ordinary complex matrices.

Operators are immutable, and each one also caches, lazily, the SVD of its
flattening (filled by :func:`cstarpinv.pinv.operator_svd`) and the shared
pseudoinverse data of the last pair ``(self, S)`` it was the left factor of
(filled by :mod:`cstarpinv.reverse_order`), so the same matrix is never
factored twice.  Flattenings are limited to ``MAX_FLAT_SIDE`` rows and
columns; :func:`check_flat_size` rejects larger ones before allocating.
"""

from __future__ import annotations

import numpy as np

from ._numeric import spec_norm
from .algebra import AlgebraElement, elem_adjoint, elem_mul
from .errors import ConformabilityError, SizeLimitError, StructureError
from .module_space import ModuleVector

__all__ = [
    "MAX_FLAT_SIDE",
    "check_flat_size",
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


# Largest supported number of rows or columns of a flattening; a 2048x2048
# complex matrix takes 64 MiB, and the Jacobi SVD grows with its cube.
MAX_FLAT_SIDE = 2048


def check_flat_size(signature, rows, cols):
    """Raise :class:`SizeLimitError` unless a ``rows x cols`` operator over
    ``signature`` flattens to at most ``MAX_FLAT_SIDE`` per side."""
    d = signature.dim
    if max(rows, cols) * d > MAX_FLAT_SIDE:
        raise SizeLimitError(
            f"a {rows}x{cols} operator over signature {list(signature.block_sizes)} "
            f"flattens to {rows * d}x{cols * d}; at most {MAX_FLAT_SIDE} rows and "
            f"columns are supported"
        )


def _entry_flat(a):
    """d x d complex matrix of left multiplication by algebra element a."""
    sizes = a.signature.block_sizes
    d = a.signature.dim
    out = np.zeros((d, d), dtype=complex)
    pos = 0
    for n, block in zip(sizes, a.blocks):
        out[pos : pos + n * n, pos : pos + n * n] = np.kron(np.eye(n), block)
        pos += n * n
    return out


class AdjointableOp:
    """Adjointable operator ``A^cols -> A^rows`` with cached flattening.

    ``_svd`` and ``_pair`` are lazily filled caches (see the module
    docstring).  Neither changes what the operator is: ``_svd`` is set once,
    and ``_pair`` is replaced when ``self`` is paired with another ``S``.
    """

    __slots__ = ("signature", "rows", "cols", "entries", "flat", "_svd", "_pair")

    def __init__(self, entries):
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
        rows = len(entries)
        d = signature.dim
        flat = np.zeros((rows * d, cols * d), dtype=complex)
        for i, row in enumerate(entries):
            for j, e in enumerate(row):
                flat[i * d : (i + 1) * d, j * d : (j + 1) * d] = _entry_flat(e)
        flat.flags.writeable = False
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "_svd", None)
        object.__setattr__(self, "_pair", None)

    def __setattr__(self, name, value):
        raise AttributeError("AdjointableOp is immutable")

    @classmethod
    def zero(cls, signature, rows, cols):
        z = AlgebraElement.zero(signature)
        return cls([[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, signature, n):
        z = AlgebraElement.zero(signature)
        e = AlgebraElement.identity(signature)
        return cls([[e if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_complex_matrix(cls, matrix, signature=None):
        """Wrap a plain complex matrix as an operator over signature [1].

        Each scalar entry becomes a 1x1 algebra block; this is the bridge
        between ordinary matrices and the module-operator interface.
        """
        from .algebra import AlgebraSignature

        if signature is None:
            signature = AlgebraSignature((1,))
        if signature.block_sizes != (1,):
            raise ConformabilityError("from_complex_matrix requires signature [1]")
        matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
        return cls(
            [
                [AlgebraElement(signature, [[[v]]]) for v in row]
                for row in matrix
            ]
        )

    def __add__(self, other):
        _check_same_shape(self, other)
        return AdjointableOp(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        _check_same_shape(self, other)
        return AdjointableOp(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def scale(self, scalar):
        return AdjointableOp([[scalar * e for e in row] for row in self.entries])

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
        from .errors import InvalidDecompositionError

        p = op.flat
        scale = 1.0 + spec_norm(p)
        if spec_norm(p - p.conj().T) > tol * scale:
            raise InvalidDecompositionError("operator is not self-adjoint")
        if spec_norm(p @ p - p) > tol * scale:
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
    comps = []
    for row in t.entries:
        acc = AlgebraElement.zero(t.signature)
        for e, c in zip(row, x.components):
            acc = acc + elem_mul(e, c)
        comps.append(acc)
    return ModuleVector(comps)


def adjoint_op(t):
    """The adjoint: transposed entries, each conjugate-transposed."""
    return AdjointableOp(
        [
            [elem_adjoint(t.entries[i][j]) for i in range(t.rows)]
            for j in range(t.cols)
        ]
    )


def compose(t, s):
    """Operator product ``t s`` (apply ``s`` first)."""
    if t.signature != s.signature:
        raise ConformabilityError("signatures differ")
    if t.cols != s.rows:
        raise ConformabilityError(
            f"inner dimensions differ: {t.rows}x{t.cols} times {s.rows}x{s.cols}"
        )
    rows = []
    for i in range(t.rows):
        row = []
        for j in range(s.cols):
            acc = AlgebraElement.zero(t.signature)
            for l in range(t.cols):
                acc = acc + elem_mul(t.entries[i][l], s.entries[l][j])
            row.append(acc)
        rows.append(row)
    return AdjointableOp(rows)


def flatten(t):
    """The cached complex flattening (read-only view)."""
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
    entries = []
    for i in range(rows):
        row = []
        for j in range(cols):
            cell = matrix[i * d : (i + 1) * d, j * d : (j + 1) * d]
            blocks = []
            pos = 0
            for n in signature.block_sizes:
                sub = cell[pos : pos + n * n, pos : pos + n * n]
                acc = np.zeros((n, n), dtype=complex)
                for r in range(n):
                    acc += sub[r * n : (r + 1) * n, r * n : (r + 1) * n]
                blocks.append(acc / n)
                pos += n * n
            row.append(AlgebraElement(signature, blocks))
        entries.append(row)
    op = AdjointableOp(entries)
    off = spec_norm(matrix - op.flat)
    return op, off


def op_norm(t):
    """Operator norm, i.e. the spectral norm of the flattening."""
    return spec_norm(t.flat)


def off_pattern_mass(matrix, signature, shape):
    """Spectral distance from ``matrix`` to the left-multiplication pattern."""
    _, off = _unflatten_with_mass(matrix, signature, shape)
    return off


def range_inclusion(b, c, tol=1e-8):
    """Certify ``Ran(b) <= Ran(c)`` numerically.

    Returns ``(verdict, residual)`` with
    ``residual = ||(I - c c^+) b|| / (1 + ||b||)``.
    """
    from .pinv import operator_svd, pinv_from_svd

    if b.signature != c.signature:
        raise ConformabilityError("signatures differ")
    if b.rows != c.rows:
        raise ConformabilityError("operators must share a codomain")
    if tol <= 0:
        raise ValueError("tol must be positive")
    c_pinv = pinv_from_svd(c.flat.shape, operator_svd(c)).pinv
    residual = range_inclusion_residual(b.flat, c.flat, c_pinv)
    return residual <= tol, residual


def range_inclusion_residual(b_flat, c_flat, c_pinv_flat):
    """Residual of ``Ran(b) <= Ran(c)`` given a precomputed pseudoinverse."""
    delta = b_flat - c_flat @ (c_pinv_flat @ b_flat)
    return spec_norm(delta) / (1.0 + spec_norm(b_flat))


def projection_onto_range(t):
    """The orthogonal projection ``t t^+`` onto ``Ran(t)`` as an operator."""
    from .pinv import moore_penrose

    return Projection(compose(t, moore_penrose(t).pseudoinverse))
