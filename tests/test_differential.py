"""Differential gate: block-native certificates against a flattened oracle.

The package certifies a pair on its per-block matrices.  The oracle here
recomputes every rank, boundary flag and verdict on the flattenings
``flatten(T)`` and ``flatten(S)`` with ``numpy.linalg.svd`` and the
documented rank rule: cutoff ``max(m, n) * eps * sigma_1``, boundary flag
when a singular value lies within a factor of 10 of it.  Wherever neither
side is flagged, the two must agree exactly.
"""

import numpy as np
import pytest

from cstarpinv import (
    AlgebraSignature,
    block_conditions,
    check_corollary,
    compose,
    flatten,
    gen_instance,
    moore_penrose,
)
from cstarpinv.reverse_order import GENERATOR_KINDS

EPS = 2.0**-52
TOL = 1e-8
SIGNATURES = ((1,), (2,), (1, 2), (2, 2, 3))
SEEDS = range(3)


def _norm(m):
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def _rel(lhs, rhs=None):
    delta = lhs if rhs is None else lhs - rhs
    return _norm(delta) / (1.0 + _norm(lhs))


class _Factored:
    """LAPACK SVD of a matrix with the documented rank decision."""

    def __init__(self, m):
        self.u, self.s, vh = np.linalg.svd(m, full_matrices=True)
        self.v = vh.conj().T
        smax = float(self.s[0]) if self.s.size else 0.0
        cutoff = max(m.shape) * EPS * smax
        self.rank = int(np.count_nonzero(self.s > cutoff)) if smax > 0 else 0
        band = (self.s >= cutoff / 10.0) & (self.s <= cutoff * 10.0)
        self.flag = bool(smax > 0 and np.any(band))
        r = self.rank
        self.pinv = self.v[:, :r] @ (self.u[:, :r].conj().T / self.s[:r, None])


def _penrose(t, x):
    tx, xt = t @ x, x @ t
    return (_rel(t, tx @ t), _rel(x, xt @ x), _rel(tx, tx.conj().T), _rel(xt, xt.conj().T))


def _oracle_certificate(t, s):
    ts = t @ s
    ft, fs, fts = _Factored(t), _Factored(s), _Factored(ts)
    tp, sp, tsp = ft.pinv, fs.pinv, fts.pinv
    theta = _penrose(ts, sp @ tp)
    thm21 = (
        _rel(ts @ tsp, ts @ sp @ tp),
        _rel(t.conj().T @ ts, s @ (sp @ (t.conj().T @ ts))),
        max(theta[:3]),
    )
    thm22 = (
        _rel(tsp @ ts, sp @ tp @ ts),
        _rel(ts @ s.conj().T, ts @ s.conj().T @ tp @ t),
        max(theta[0], theta[1], theta[3]),
    )
    g1 = t.conj().T @ ts
    g2 = s @ s.conj().T @ t.conj().T
    greville = (_rel(g1, s @ (sp @ g1)), _rel(g2, tp @ (t @ g2)))
    return {
        "ranks": (ft.rank, fs.rank, fts.rank),
        "flags": (ft.flag, fs.flag, fts.flag),
        "flag": ft.flag or fs.flag or fts.flag,
        "rol": _rel(tsp, sp @ tp) <= TOL,
        "thm21": tuple(r <= TOL for r in thm21),
        "thm22": tuple(r <= TOL for r in thm22),
        "greville": tuple(r <= TOL for r in greville),
    }


def _oracle_block_verdicts(t, s):
    """Triple A and B verdicts of the proof-level block conditions, flattened."""
    fs, ft = _Factored(s), _Factored(t)
    rs, rt = fs.rank, ft.rank
    us1, us2, vs1 = fs.u[:, :rs], fs.u[:, rs:], fs.v[:, :rs]
    s1 = us1.conj().T @ s @ vs1
    ut1 = ft.u[:, :rt]
    t1, t2 = ut1.conj().T @ t @ us1, ut1.conj().T @ t @ us2
    d_inv = np.linalg.inv(t1 @ t1.conj().T + t2 @ t2.conj().T)
    s1_inv = np.linalg.inv(s1)
    ts1 = t1 @ s1
    fts1 = _Factored(ts1)
    p_ts1 = fts1.pinv
    t1t1, s1s1 = t1 @ t1.conj().T, s1 @ s1.conj().T
    core = t1.conj().T @ d_inv @ t1
    tss = t1 @ s1s1
    c1 = _rel(ts1 @ p_ts1, t1t1 @ d_inv)
    c2 = _rel(t2.conj().T @ t1)
    c3 = max(_rel(t1t1 @ d_inv @ t1, t1), _rel(t1t1 @ d_inv, d_inv @ t1t1))
    d1 = _rel(p_ts1 @ ts1, s1_inv @ t1.conj().T @ d_inv @ ts1)
    d2 = max(_rel(tss @ core, tss), _rel(tss @ t1.conj().T @ d_inv @ t2))
    d3 = max(_rel(t1t1 @ d_inv @ t1, t1), _rel(s1s1 @ core, core @ s1s1))
    verdicts = (
        (c1 <= TOL, c2 <= TOL, c3 <= TOL),
        (d1 <= TOL, d2 <= TOL, d3 <= TOL),
    )
    return verdicts, fs.flag or ft.flag or fts1.flag


@pytest.mark.parametrize("sizes", SIGNATURES, ids=lambda s: ",".join(map(str, s)))
def test_block_native_matches_flattened_oracle(sizes):
    signature = AlgebraSignature(sizes)
    compared = blocks_compared = total = 0
    for kind in GENERATOR_KINDS:
        for seed in SEEDS:
            t_op, s_op = gen_instance(kind, (3, 3, 3), signature=signature, seed=seed)
            t, s = flatten(t_op), flatten(s_op)
            total += 1
            where = f"{kind} seed {seed}"

            cert = check_corollary(t_op, s_op)
            oracle = _oracle_certificate(t, s)
            if not (cert.boundary_flag or oracle["flag"]):
                compared += 1
                results = [moore_penrose(op) for op in (t_op, s_op, compose(t_op, s_op))]
                assert tuple(r.rank for r in results) == oracle["ranks"], where
                assert tuple(r.boundary_flag for r in results) == oracle["flags"], where
                assert cert.rol_verdict == oracle["rol"], where
                assert tuple(c.verdict for c in cert.thm21) == oracle["thm21"], where
                assert tuple(c.verdict for c in cert.thm22) == oracle["thm22"], where
                assert tuple(c.verdict for c in cert.greville) == oracle["greville"], where

            report = block_conditions(t_op, s_op)
            verdicts, flag = _oracle_block_verdicts(t, s)
            if not (report.boundary_flag or flag):
                blocks_compared += 1
                assert (report.thm21_verdicts(), report.thm22_verdicts()) == verdicts, where
    # most instances must be comparable, or the gate shows nothing
    assert compared >= total // 2 and blocks_compared >= total // 2, (compared, blocks_compared)
