"""Exact oracle for the thm21_only construction.

``reverse_order._build_thm21_only`` builds, on each algebra block,

    S = W R,    T = P1 R1 P_W + Q1 R2 Q_W,

with ``P_W`` the projector onto ``Ran(W) = Ran(S)``, ``P1`` the projector
onto the range of a random ``p x rank P1`` operator, and ``Q = I - P``.  The
builder draws only rank pairs with ``rank P1 < rank S`` on the claim that
triple A always holds and triple B fails exactly then.  Here the same
construction runs in exact rational arithmetic (stdlib ``fractions``) on
Gaussian-integer matrices, realified as ``[[X, -Y], [Y, X]]`` so that the
adjoint is the transpose, and the claim is checked through the triples'
range forms: triple A holds iff ``Ran(T*TS) <= Ran(S)`` and triple B iff
``Ran(SS*T*) <= Ran(T*)``.
"""

import random
from fractions import Fraction

import pytest


def gaussian_integer(rng, rows, cols):
    """Realified ``X + iY`` with integer entries in [-3, 3]."""
    x = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    y = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    return [xr + [-v for v in yr] for xr, yr in zip(x, y)] + [
        yr + xr for xr, yr in zip(x, y)
    ]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(u * v for u, v in zip(row, col)) for col in cols] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def combine(a, b, sign=1):
    return [[u + sign * v for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def row_echelon(a):
    """Row echelon form of ``a`` in exact arithmetic, and its rank."""
    rows = [[Fraction(v) for v in row] for row in a]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [u - factor * v for u, v in zip(rows[i], rows[rank])]
        rank += 1
    return rows, rank


def rank(a):
    return row_echelon(a)[1]


def inverse(a):
    n = len(a)
    reduced, r = row_echelon([row + e for row, e in zip(a, identity(n))])
    assert r == n, "singular Gram matrix"
    return [[v / row[i] for v in row[n:]] for i, row in enumerate(reduced)]


def projector(w):
    """``W (W*W)^-1 W*``, the orthogonal projector onto ``Ran(W)``."""
    wt = transpose(w)
    return matmul(matmul(w, inverse(matmul(wt, w))), wt)


def range_included(small, big):
    """Whether ``Ran(small) <= Ran(big)``."""
    return rank([rb + rs for rb, rs in zip(big, small)]) == rank(big)


def build(rng, n, p, m, k, rs, r1):
    """The construction on one algebra block of size ``n``: module dims
    ``(p, m, k)`` and module ranks ``rs``, ``r1`` are ``n`` times larger as
    matrix sizes (and twice that once realified)."""
    w = gaussian_integer(rng, m * n, rs * n)
    s = matmul(w, gaussian_integer(rng, rs * n, k * n))
    p_w = projector(w)
    q_w = combine(identity(len(p_w)), p_w, -1)
    g = gaussian_integer(rng, p * n, r1 * n)
    p1 = projector(g)
    q1 = combine(identity(len(p1)), p1, -1)
    t = combine(
        matmul(matmul(p1, gaussian_integer(rng, p * n, m * n)), p_w),
        matmul(matmul(q1, gaussian_integer(rng, p * n, m * n)), q_w),
    )
    assert rank(s) == 2 * rs * n and rank(p1) == 2 * r1 * n
    return t, s


def triples(t, s):
    tt, st = transpose(t), transpose(s)
    triple_a = range_included(matmul(matmul(tt, t), s), s)
    triple_b = range_included(matmul(matmul(s, st), tt), tt)
    return triple_a, triple_b


# rank S in 1..min(m, k), rank P1 in 1..max(1, p - 1), as the builder allows
RANK_PAIRS = [(rs, r1) for rs in range(1, 5) for r1 in range(1, 4)]


@pytest.mark.parametrize("rs, r1", RANK_PAIRS)
def test_triple_b_fails_exactly_below_rank_s_matrix_case(rs, r1):
    rng = random.Random(1000 * rs + r1)
    t, s = build(rng, 1, 4, 4, 4, rs, r1)
    assert triples(t, s) == (True, r1 >= rs)


def test_triple_b_fails_exactly_below_rank_s_module_block():
    # the n = 2 block of signature [1, 2] at dims 4,4,4 (16 x 16 realified)
    for rs, r1 in ((1, 1), (2, 1), (2, 2), (3, 1), (4, 3)):
        rng = random.Random(2000 * rs + r1)
        t, s = build(rng, 2, 4, 4, 4, rs, r1)
        assert triples(t, s) == (True, r1 >= rs), (rs, r1)
