"""Operators as one complex matrix per algebra block, built with NumPy alone.

A module operator ``A^cols -> A^rows`` over ``A = M_{n1} (+) ... (+) M_{nr}``
is exactly one complex matrix ``T_i`` of shape ``(rows*n_i) x (cols*n_i)``
per algebra block: sub-block ``(r, c)`` of ``T_i`` is block ``i`` of entry
``(r, c)``.  Its pseudoinverse is ``pinv(T_i)`` block by block, and the
reverse order law holds on the module exactly when it holds on every block.

This module writes and reads the package's operator-file format itself and
computes every reference value with ``numpy.linalg``, so the benchmark's
inputs and checks do not move when the package's generators, parser or
factorization change.
"""

import json

import numpy as np

EPS = 2.0 ** -52


def flat_dim(signature):
    """Complex dimension of the algebra, the width of one flattened entry."""
    return sum(n * n for n in signature)


def blocks_from_entries(entries, signature, rows, cols):
    """Per-block matrices from ``entries[r][c][i]`` (an ``n_i x n_i`` array)."""
    out = []
    for i, n in enumerate(signature):
        mat = np.zeros((rows * n, cols * n), dtype=complex)
        for r in range(rows):
            for c in range(cols):
                mat[r * n : (r + 1) * n, c * n : (c + 1) * n] = entries[r][c][i]
        out.append(mat)
    return out


def blocks_from_op(op):
    """Per-block matrices of a package ``AdjointableOp`` (public attributes only)."""
    entries = [[e.blocks for e in row] for row in op.entries]
    return blocks_from_entries(entries, op.signature.block_sizes, op.rows, op.cols)


def operator_text(blocks, signature, rows, cols):
    """Operator-file JSON for per-block matrices."""
    entries = []
    for r in range(rows):
        for c in range(cols):
            entry = []
            for n, mat in zip(signature, blocks):
                sub = mat[r * n : (r + 1) * n, c * n : (c + 1) * n].reshape(-1)
                entry.append([[float(z.real), float(z.imag)] for z in sub])
            entries.append(entry)
    doc = {"signature": list(signature), "rows": rows, "cols": cols, "entries": entries}
    return json.dumps(doc) + "\n"


def read_operator(path):
    """Parse an operator file into ``(signature, rows, cols, blocks)``."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    signature = tuple(doc["signature"])
    rows, cols = doc["rows"], doc["cols"]
    flat_entries = doc["entries"]
    if len(flat_entries) != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} entries, got {len(flat_entries)}")
    entries = [
        [
            [
                np.array([complex(re, im) for re, im in pairs]).reshape(n, n)
                for n, pairs in zip(signature, flat_entries[r * cols + c], strict=True)
            ]
            for c in range(cols)
        ]
        for r in range(rows)
    ]
    return signature, rows, cols, blocks_from_entries(entries, signature, rows, cols)


def _gaussian(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def _well_conditioned_square(rng, n):
    """Unitary times a diagonal in [1, 2]: condition number at most 2."""
    q, _ = np.linalg.qr(_gaussian(rng, n, n))
    return q * rng.uniform(1.0, 2.0, size=n)


def random_pair(rng, signature, dims, holds):
    """Per-block ``(T, S)`` with ``T: A^m -> A^p`` and ``S: A^k -> A^m``.

    ``T`` is a full-rank Ginibre operator.  When ``holds``, ``S_i = T_i* G_i``
    with ``G_i`` invertible, so ``Ran(S) = Ran(T*)``; both of Greville's
    inclusions then hold and so does the law (this needs ``k >= p``).
    Otherwise ``S`` is an independent Ginibre operator, for which the law
    fails.  Full ranks keep every singular value far from the rank cutoff, so
    no input carries a boundary flag.
    """
    p, m, k = dims
    if holds and k < p:
        raise ValueError("a law-holding pair needs k >= p")
    t_blocks, s_blocks = [], []
    for n in signature:
        t = _gaussian(rng, p * n, m * n)
        if holds:
            g = _well_conditioned_square(rng, p * n)
            if k > p:
                g = np.hstack([g, _gaussian(rng, p * n, (k - p) * n)])
            s = t.conj().T @ g
        else:
            s = _gaussian(rng, m * n, k * n)
        t_blocks.append(t)
        s_blocks.append(s)
    return t_blocks, s_blocks
