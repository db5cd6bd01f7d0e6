"""Seeded random algebra elements and operators.

All functions take an explicit ``numpy.random.Generator``; nothing here
touches global randomness, so callers control determinism by seeding.
Operators are drawn straight into their per-block matrices, consuming the
stream in the order of :func:`random_element` entry by entry (row-major),
so a seed gives the same operator whichever way it is assembled.
"""

from __future__ import annotations

import numpy as np

from ._numeric import block_norm
from .algebra import AlgebraElement
from .operators import AdjointableOp, compose

__all__ = [
    "random_element",
    "random_operator",
    "random_operator_with_rank",
]


def random_element(signature, rng):
    """Complex Ginibre blocks, entries N(0, 1) / sqrt(2) per part: the single
    entry of a 1x1 :func:`random_operator`."""
    return AlgebraElement(signature, random_operator(signature, 1, 1, rng).blocks)


def random_operator(signature, rows, cols, rng):
    """Operator whose entries are independent :func:`random_element` draws."""
    sizes = signature.block_sizes
    # Per entry, each block draws its n*n real parts and then its n*n
    # imaginary parts.
    draws = rng.standard_normal((rows, cols, 2 * signature.dim))
    blocks = []
    pos = 0
    for n in sizes:
        parts = draws[:, :, pos : pos + 2 * n * n].reshape(rows, cols, 2, n, n)
        entries = (parts[:, :, 0] + 1j * parts[:, :, 1]) / np.sqrt(2.0)
        blocks.append(entries.transpose(0, 2, 1, 3).reshape(rows * n, cols * n))
        pos += 2 * n * n
    return AdjointableOp.from_blocks(signature, blocks)


def random_operator_with_rank(signature, rows, cols, rank, rng):
    """Random operator factored through ``A^rank`` (module rank ``rank``),
    scaled to norm 1."""
    if rank < 1 or rank > min(rows, cols):
        raise ValueError(f"rank {rank} infeasible for {rows}x{cols}")
    op = compose(
        random_operator(signature, rows, rank, rng),
        random_operator(signature, rank, cols, rng),
    )
    norm = block_norm(op.blocks)
    return op.scale(1.0 / norm) if norm > 0 else op
