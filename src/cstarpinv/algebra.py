"""Finite-dimensional C*-algebra arithmetic.

An algebra is a direct sum of full complex matrix algebras, described by an
:class:`AlgebraSignature` (the list of block sizes).  Elements are stored as
one complex matrix per block; the involution is the block-wise conjugate
transpose and the norm is the largest singular value over all blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numeric import block_norm, check_tolerance
from .errors import ConformabilityError

__all__ = [
    "AlgebraSignature",
    "AlgebraElement",
    "elem_mul",
    "elem_scale",
    "elem_adjoint",
    "elem_norm",
    "elem_is_positive",
]


@dataclass(frozen=True)
class AlgebraSignature:
    """Block sizes of a direct sum of matrix algebras."""

    block_sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.block_sizes)
        if not sizes:
            raise ValueError("signature needs at least one block")
        if any(n < 1 for n in sizes):
            raise ValueError(f"block sizes must be >= 1, got {sizes}")
        object.__setattr__(self, "block_sizes", sizes)

    @property
    def dim(self):
        """Total complex dimension, sum of squared block sizes."""
        return sum(n * n for n in self.block_sizes)

    @property
    def block_offsets(self):
        """Start offset of each block inside the flattened dimension."""
        offsets = []
        pos = 0
        for n in self.block_sizes:
            offsets.append(pos)
            pos += n * n
        return tuple(offsets)


def _freeze(block):
    out = np.array(block, dtype=complex)
    out.flags.writeable = False
    return out


class AlgebraElement:
    """One element of a block-diagonal C*-algebra.

    Parameters
    ----------
    signature : AlgebraSignature
    blocks : sequence of array_like
        One square complex matrix per signature block.  Copied and frozen;
        elements are immutable after construction.
    """

    __slots__ = ("signature", "blocks")

    def __init__(self, signature, blocks):
        blocks = tuple(_freeze(b) for b in blocks)
        if len(blocks) != len(signature.block_sizes):
            raise ConformabilityError(
                f"expected {len(signature.block_sizes)} blocks, got {len(blocks)}"
            )
        for b, n in zip(blocks, signature.block_sizes):
            if b.shape != (n, n):
                raise ConformabilityError(
                    f"block of shape {b.shape} does not match size {n}"
                )
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    @classmethod
    def zero(cls, signature):
        return cls(signature, [np.zeros((n, n)) for n in signature.block_sizes])

    @classmethod
    def identity(cls, signature):
        return cls(signature, [np.eye(n) for n in signature.block_sizes])

    def __add__(self, other):
        _check_same_signature(self, other)
        return AlgebraElement(
            self.signature, [a + b for a, b in zip(self.blocks, other.blocks)]
        )

    def __sub__(self, other):
        _check_same_signature(self, other)
        return AlgebraElement(
            self.signature, [a - b for a, b in zip(self.blocks, other.blocks)]
        )

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return elem_mul(self, other)
        return elem_scale(self, other)

    def __rmul__(self, scalar):
        return elem_scale(self, scalar)

    def __neg__(self):
        return elem_scale(self, -1.0)

    def adjoint(self):
        return elem_adjoint(self)

    def norm(self):
        return elem_norm(self)

    def allclose(self, other, tol=1e-12):
        tol = check_tolerance(tol, "tol")
        _check_same_signature(self, other)
        scale = 1.0 + max(elem_norm(self), elem_norm(other))
        return elem_norm(self - other) <= tol * scale

    def __repr__(self):
        sizes = self.signature.block_sizes
        return f"AlgebraElement(signature={sizes}, norm={elem_norm(self):.4g})"


def _check_same_signature(a, b):
    if a.signature != b.signature:
        raise ConformabilityError(
            f"signatures differ: {a.signature.block_sizes} vs {b.signature.block_sizes}"
        )


def elem_mul(a, b):
    """Block-wise matrix product ``a @ b``."""
    _check_same_signature(a, b)
    return AlgebraElement(a.signature, [x @ y for x, y in zip(a.blocks, b.blocks)])


def elem_scale(a, scalar):
    return AlgebraElement(a.signature, [complex(scalar) * x for x in a.blocks])


def elem_adjoint(a):
    """Block-wise conjugate transpose; the involution of the algebra."""
    return AlgebraElement(a.signature, [x.conj().T for x in a.blocks])


def elem_norm(a):
    """C*-norm: the largest singular value over all blocks."""
    return block_norm(a.blocks)


def elem_is_positive(a, tol=1e-10):
    """Whether ``a`` is positive within ``tol``.

    Checks self-adjointness first (``||a - a*|| <= tol * (1 + ||a||)``) and
    then that every eigenvalue of the Hermitian part clears ``-tol * ||a||``.
    Non-self-adjoint elements are never classified as positive.
    """
    tol = check_tolerance(tol, "tol")
    norm_a = elem_norm(a)
    if elem_norm(a - elem_adjoint(a)) > tol * (1.0 + norm_a):
        return False
    for x in a.blocks:
        herm = 0.5 * (x + x.conj().T)
        if np.linalg.eigvalsh(herm).min() < -tol * norm_a:
            return False
    return True
