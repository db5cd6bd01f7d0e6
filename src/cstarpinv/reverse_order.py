"""Certified reverse-order-law predicates for operator pairs.

For composable operators ``T`` and ``S`` the reverse order law is
``(TS)^+ = S^+ T^+``.  It holds exactly when two range inclusions hold
(``Ran(T*TS) <= Ran(S)`` and ``Ran(SS*T*) <= Ran(T*)``), and splits into two
independent triples of equivalent conditions:

* triple A: ``TS(TS)^+ = TSS^+T^+``;  ``T*TS = SS^+T*TS``;
  ``S^+T^+`` is a {1,2,3}-inverse of ``TS``;
* triple B: ``(TS)^+TS = S^+T^+TS``;  ``TSS* = TSS*T^+T``;
  ``S^+T^+`` is a {1,2,4}-inverse of ``TS``.

Each check reports ``(residual, verdict)`` pairs; a certificate bundles all
of them with a consistency bit stating that the verdict groups agree the
way the equivalences demand.  Instances whose rank decisions are fragile
carry a boundary flag and are excluded from dichotomy statistics.

Every identity is evaluated block by block on the operators' per-block
matrices (see :mod:`cstarpinv.operators`): each norm in a residual is the
largest over blocks, taken separately for the numerator and for the
``1 + ||.||`` denominator, which is the spectral norm on the flattening.
All checks of one pair share a single set of block matrices and
pseudoinverses: it is cached on ``T`` for the last ``S`` it was paired with
(matched by identity), and built from the operators' cached SVDs, so
generation's verification, :func:`check_corollary`, the triple checks and
:func:`block_conditions` factor ``T``, ``S`` and ``TS`` once between them.
The shared data depend on neither ``tol`` nor anything else, so sharing
leaves every residual unchanged.

In infinite dimensions these equivalences require the ranges of ``T``,
``S`` and ``TS`` to be closed (equivalently, the pseudoinverses to be
bounded).  Every subspace of a finite-dimensional module is closed, so the
hypothesis is automatic here and no closedness predicate is exposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numeric import block_norm, check_tolerance, inverse, rel_residual
from .algebra import AlgebraSignature
from .errors import (
    ConformabilityError,
    DegenerateDecompositionError,
    GenerationError,
)
from .operators import AdjointableOp, adjoint_op, compose, range_inclusion_residual
from .pinv import (
    operator_pinv,
    operator_ranks,
    operator_svd,
    orthogonal_complement,
    penrose_residuals,
    pinv_blocks,
    svd_factor,
)
from .sampling import random_operator, random_operator_with_rank

__all__ = [
    "ConditionCheck",
    "RolCertificate",
    "BlockConditionReport",
    "check_thm21",
    "check_thm22",
    "check_corollary",
    "block_conditions",
    "gen_instance",
    "GENERATOR_KINDS",
]

DEFAULT_TOL = 1e-8
GENERATOR_KINDS = ("generic", "rol_holds", "thm21_only", "thm22_only", "s_adjoint")
_MAX_RETRIES = 100


@dataclass(frozen=True)
class ConditionCheck:
    residual: float
    verdict: bool


@dataclass(frozen=True)
class RolCertificate:
    """All residuals and verdicts for one operator pair."""

    residual_rol: float
    rol_verdict: bool
    thm21: tuple
    thm22: tuple
    greville: tuple
    consistent: bool
    boundary_flag: bool
    tol: float


@dataclass(frozen=True)
class _PairBlock:
    """One algebra block of a pair: ``T``, ``S``, ``TS`` and their pseudoinverses."""

    t: np.ndarray
    s: np.ndarray
    ts: np.ndarray
    tp: np.ndarray
    sp: np.ndarray
    tsp: np.ndarray


class _Pair:
    """Shared block matrices and pseudoinverses for one (T, S) pair.

    Obtain it through :func:`_pair`, which shares one per pair; its arrays
    are read-only.
    """

    def __init__(self, t_op, s_op):
        if t_op.signature != s_op.signature:
            raise ConformabilityError("signatures differ")
        if t_op.cols != s_op.rows:
            raise ConformabilityError(
                f"TS undefined: T is {t_op.rows}x{t_op.cols}, S is {s_op.rows}x{s_op.cols}"
            )
        ts_op = compose(t_op, s_op)
        t_mp, s_mp, ts_mp = (operator_pinv(op) for op in (t_op, s_op, ts_op))
        for array in t_mp.blocks + s_mp.blocks + ts_mp.blocks:
            array.flags.writeable = False
        self.blocks = tuple(
            _PairBlock(*parts)
            for parts in zip(
                t_op.blocks, s_op.blocks, ts_op.blocks, t_mp.blocks, s_mp.blocks, ts_mp.blocks
            )
        )
        self.boundary_flag = (
            t_mp.decision.boundary_flag
            or s_mp.decision.boundary_flag
            or ts_mp.decision.boundary_flag
        )


def _pair(t_op, s_op):
    """The :class:`_Pair` of ``(t_op, s_op)``, cached on ``t_op`` for the last ``s_op``."""
    cached = t_op._pair
    if cached is not None and cached[0] is s_op:
        return cached[1]
    pair = _Pair(t_op, s_op)
    object.__setattr__(t_op, "_pair", (s_op, pair))
    return pair


def _check(residual, tol):
    return ConditionCheck(float(residual), bool(residual <= tol))


def _theta_check(pair, which, tol):
    blocks = pair.blocks
    residuals = penrose_residuals([b.ts for b in blocks], [b.sp @ b.tp for b in blocks])
    picked = [residuals[i - 1] for i in which]
    return ConditionCheck(float(max(picked)), bool(all(r <= tol for r in picked)))


def _thm21_checks(pair, tol):
    blocks = pair.blocks
    lhs1 = [b.ts @ b.tsp for b in blocks]
    rhs1 = [b.ts @ b.sp @ b.tp for b in blocks]
    lhs2 = [b.t.conj().T @ b.ts for b in blocks]
    rhs2 = [b.s @ (b.sp @ lhs) for b, lhs in zip(blocks, lhs2)]
    return (
        _check(rel_residual(lhs1, rhs1), tol),
        _check(rel_residual(lhs2, rhs2), tol),
        _theta_check(pair, (1, 2, 3), tol),
    )


def _thm22_checks(pair, tol):
    blocks = pair.blocks
    lhs1 = [b.tsp @ b.ts for b in blocks]
    rhs1 = [b.sp @ b.tp @ b.ts for b in blocks]
    lhs2 = [b.ts @ b.s.conj().T for b in blocks]
    rhs2 = [lhs @ b.tp @ b.t for b, lhs in zip(blocks, lhs2)]
    return (
        _check(rel_residual(lhs1, rhs1), tol),
        _check(rel_residual(lhs2, rhs2), tol),
        _theta_check(pair, (1, 2, 4), tol),
    )


def check_thm21(t_op, s_op, tol=DEFAULT_TOL):
    """Residual/verdict pairs for the three conditions of triple A."""
    check_tolerance(tol, "tol")
    return _thm21_checks(_pair(t_op, s_op), tol)


def check_thm22(t_op, s_op, tol=DEFAULT_TOL):
    """Residual/verdict pairs for the three conditions of triple B."""
    check_tolerance(tol, "tol")
    return _thm22_checks(_pair(t_op, s_op), tol)


def check_corollary(t_op, s_op, tol=DEFAULT_TOL):
    """Full certificate: reverse order law, both triples, both inclusions.

    ``consistent`` asserts the equivalences: the three verdicts inside each
    triple agree, and (law holds) == (triple A and triple B hold) == (both
    range inclusions hold).  The assertion is only meaningful when
    ``boundary_flag`` is unset.
    """
    check_tolerance(tol, "tol")
    pair = _pair(t_op, s_op)
    thm21 = _thm21_checks(pair, tol)
    thm22 = _thm22_checks(pair, tol)

    blocks = pair.blocks
    residual_rol = rel_residual([b.tsp for b in blocks], [b.sp @ b.tp for b in blocks])
    rol_verdict = residual_rol <= tol

    g1_target = [b.t.conj().T @ b.ts for b in blocks]
    g1 = range_inclusion_residual(g1_target, [b.s for b in blocks], [b.sp for b in blocks])
    g2_target = [b.s @ b.s.conj().T @ b.t.conj().T for b in blocks]
    # Ran(T*) projector is (T^+ T); avoids factoring T* separately.
    g2 = rel_residual(g2_target, [b.tp @ (b.t @ g) for b, g in zip(blocks, g2_target)])
    greville = (_check(g1, tol), _check(g2, tol))

    agree21 = len({c.verdict for c in thm21}) == 1
    agree22 = len({c.verdict for c in thm22}) == 1
    all21 = all(c.verdict for c in thm21)
    all22 = all(c.verdict for c in thm22)
    both_greville = greville[0].verdict and greville[1].verdict
    consistent = (
        agree21
        and agree22
        and rol_verdict == (all21 and all22)
        and rol_verdict == both_greville
    )
    return RolCertificate(
        float(residual_rol),
        bool(rol_verdict),
        thm21,
        thm22,
        greville,
        bool(consistent),
        pair.boundary_flag,
        float(tol),
    )


@dataclass(frozen=True)
class BlockConditionReport:
    """Proof-level residuals in the canonical coordinates of the pair.

    ``S`` is reduced to its invertible block ``S1`` between ``Ran(S*)`` and
    ``Ran(S)``; ``T`` is written as a block row ``[T1, T2]`` against
    ``Ran(S) (+) Ker(S*)`` into ``Ran(T)``, with ``D = T1 T1* + T2 T2*``.
    The c-residuals are the proof equivalents of triple A, the d-residuals
    of triple B:

    * c1: ``T1 S1 (T1 S1)^+ - T1 T1* D^-1``
    * c2: ``T2* T1``
    * c3a, c3b: ``T1 T1* D^-1 T1 - T1`` and ``[T1 T1*, D^-1]``
    * d1: ``(T1 S1)^+ T1 S1 - S1^-1 T1* D^-1 T1 S1``
    * d2a, d2b: ``T1 S1 S1* T1* D^-1 T1 - T1 S1 S1*`` and ``T1 S1 S1* T1* D^-1 T2``
    * d3: ``[S1 S1*, T1* D^-1 T1]``
    """

    c1: float
    c2: float
    c3a: float
    c3b: float
    d1: float
    d2a: float
    d2b: float
    d3: float
    boundary_flag: bool
    tol: float

    def thm21_verdicts(self):
        return (
            self.c1 <= self.tol,
            self.c2 <= self.tol,
            max(self.c3a, self.c3b) <= self.tol,
        )

    def thm22_verdicts(self):
        return (
            self.d1 <= self.tol,
            max(self.d2a, self.d2b) <= self.tol,
            max(self.c3a, self.d3) <= self.tol,
        )


def block_conditions(t_op, s_op, tol=DEFAULT_TOL):
    """Evaluate the eight proof-level block residuals for a pair.

    ``S`` must be nonzero so that ``S1`` is a nonempty invertible block.
    The canonical coordinates are taken per algebra block, from the cached
    block SVDs and one rank decision per operator; each residual's norms
    are the largest over blocks.  The report is flagged when the pair's
    certificate is (a fragile rank of ``T``, ``S`` or ``TS``) or when the
    rank decision on ``T1 S1`` is fragile.
    """
    check_tolerance(tol, "tol")
    if t_op.signature != s_op.signature:
        raise ConformabilityError("signatures differ")
    if t_op.cols != s_op.rows:
        raise ConformabilityError("TS undefined")
    s_ranks = operator_ranks(s_op)
    if s_ranks.rank == 0:
        raise DegenerateDecompositionError("S is zero; no invertible block S1")
    t_ranks = operator_ranks(t_op)
    reduced = [
        _reduce_block(*parts)
        for parts in zip(
            t_op.blocks,
            s_op.blocks,
            operator_svd(t_op),
            operator_svd(s_op),
            t_ranks.ranks,
            s_ranks.ranks,
        )
    ]
    ts1_mp = pinv_blocks(
        (t_ranks.rank, s_ranks.rank),
        [svd_factor(t1 @ s1) for t1, _, s1 in reduced],
        t_op.signature.block_sizes,
    )
    per_block = [_block_terms(*parts, p) for parts, p in zip(reduced, ts1_mp.blocks)]
    residuals = []
    for terms in zip(*per_block):
        lhs = [a for a, _ in terms]
        rhs = None if terms[0][1] is None else [b for _, b in terms]
        residuals.append(float(rel_residual(lhs, rhs)))
    # The pair's flag covers the decisions on T, S and TS.  T1 S1 keeps the
    # rounding noise of TS as rank, so its own decision can miss a flag on TS.
    flag = _pair(t_op, s_op).boundary_flag or ts1_mp.decision.boundary_flag
    return BlockConditionReport(*residuals, bool(flag), float(tol))


def _reduce_block(t, s, ft, fs, rank_t, rank_s):
    """``T1``, ``T2`` and ``S1`` of one algebra block.

    ``S1`` maps ``Ran(S*)`` onto ``Ran(S)``; ``[T1, T2]`` maps
    ``Ran(S) (+) Ker(S*)`` into ``Ran(T)``.
    """
    us1 = fs.U[:, :rank_s]
    us2 = orthogonal_complement(us1)
    s1 = us1.conj().T @ s @ fs.V[:, :rank_s]
    ut1 = ft.U[:, :rank_t]
    return ut1.conj().T @ t @ us1, ut1.conj().T @ t @ us2, s1


def _block_terms(t1, t2, s1, p_ts1):
    """``(lhs, rhs)`` of the eight block residuals on one algebra block, in
    the order of :class:`BlockConditionReport`; ``rhs`` is ``None`` for an
    identity ``lhs == 0``."""
    d_inv = inverse(t1 @ t1.conj().T + t2 @ t2.conj().T)
    s1_inv = inverse(s1)
    ts1 = t1 @ s1
    t1t1 = t1 @ t1.conj().T
    s1s1 = s1 @ s1.conj().T
    core = t1.conj().T @ d_inv @ t1
    tss = t1 @ s1s1
    return (
        (ts1 @ p_ts1, t1t1 @ d_inv),
        (t2.conj().T @ t1, None),
        (t1t1 @ d_inv @ t1, t1),
        (t1t1 @ d_inv, d_inv @ t1t1),
        (p_ts1 @ ts1, s1_inv @ t1.conj().T @ d_inv @ ts1),
        (tss @ core, tss),
        (tss @ t1.conj().T @ d_inv @ t2, None),
        (s1s1 @ core, core @ s1s1),
    )


def gen_instance(kind, dims, ranks=None, signature=None, seed=0):
    """Generate a structured operator pair ``(T, S)`` with ``TS`` defined.

    ``dims = (p, m, k)`` gives ``T: A^m -> A^p`` and ``S: A^k -> A^m``.
    ``ranks`` optionally pins ``(rank_T, rank_S)`` (module-level ranks);
    unspecified ranks are drawn from the seeded stream.  Supported kinds:

    * ``generic``: unconstrained random pair.
    * ``rol_holds``: ``Ran(S) = Ran(T*)``, making both Greville inclusions
      (hence the reverse order law) hold.
    * ``thm21_only``: triple A holds, triple B fails.
    * ``thm22_only``: triple B holds, triple A fails (requires ``p, m >= 2``).
    * ``s_adjoint``: ``S = T*`` exactly (requires ``k == p``).

    Structured kinds are verified post hoc with the check operations and
    resampled up to 100 times; :class:`GenerationError` signals exhaustion.
    """
    p, m, k = (int(x) for x in dims)
    if min(p, m, k) < 1:
        raise ConformabilityError(f"dims must be positive, got {dims}")
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown kind {kind!r}; choose from {GENERATOR_KINDS}")
    sig = signature if signature is not None else AlgebraSignature((1,))
    rng = np.random.default_rng(seed)

    rank_t = rank_s = None
    if ranks is not None:
        rank_t, rank_s = ranks
        if rank_t is not None and not 1 <= rank_t <= min(p, m):
            raise ConformabilityError(f"rank_T={rank_t} infeasible for dims {dims}")
        if rank_s is not None and not 1 <= rank_s <= min(m, k):
            raise ConformabilityError(f"rank_S={rank_s} infeasible for dims {dims}")

    if kind == "s_adjoint" and k != p:
        raise ConformabilityError("s_adjoint requires k == p so that S = T* conforms")

    builder = {
        "generic": _build_generic,
        "rol_holds": _build_rol_holds,
        "thm21_only": _build_thm21_only,
        "thm22_only": _build_thm22_only,
        "s_adjoint": _build_s_adjoint,
    }[kind]
    for _ in range(_MAX_RETRIES):
        built = builder(sig, p, m, k, rank_t, rank_s, rng)
        if built is not None:
            return built
    raise GenerationError(f"could not generate a {kind!r} instance for dims {dims}")


def _draw_rank(pinned, upper, rng):
    if pinned is not None:
        return min(pinned, upper)
    return int(rng.integers(1, upper + 1))


def _build_generic(sig, p, m, k, rank_t, rank_s, rng):
    t = random_operator_with_rank(sig, p, m, _draw_rank(rank_t, min(p, m), rng), rng)
    s = random_operator_with_rank(sig, m, k, _draw_rank(rank_s, min(m, k), rng), rng)
    return t, s


def _build_s_adjoint(sig, p, m, k, rank_t, rank_s, rng):
    t = random_operator_with_rank(sig, p, m, _draw_rank(rank_t, min(p, m), rng), rng)
    return t, adjoint_op(t)


def _snap(op):
    """Rebuild an operator from its truncated SVD.

    Long products of projections leave rounding trash just above the
    boundary-flag band; rebuilding from the retained singular triplets sheds
    it without disturbing the constructed subspace relations (they survive
    an eps-size perturbation, and the post-hoc verdict checks remain the
    referee).  An operator of full rank is returned as it is.
    """
    decision = operator_ranks(op)
    if decision.rank == min(op.flat_shape):
        return op
    return AdjointableOp.from_blocks(
        op.signature,
        [
            (f.U[:, :r] * f.singular_values[:r]) @ f.V[:, :r].conj().T
            for f, r in zip(operator_svd(op), decision.ranks)
        ],
    )


def _finish_op(op):
    """Normalize and snap a constructed operator."""
    norm = block_norm(op.blocks)
    if norm > 0:
        op = AdjointableOp.from_blocks(op.signature, [b / norm for b in op.blocks])
    return _snap(op)


def _range_projector(op):
    """The orthogonal projector onto the range of ``op``."""
    bases = [f.U[:, :r] for f, r in zip(operator_svd(op), operator_ranks(op).ranks)]
    return AdjointableOp.from_blocks(op.signature, [u @ u.conj().T for u in bases])


def _build_rol_holds(sig, p, m, k, rank_t, rank_s, rng):
    shared = rank_t if rank_t is not None else rank_s
    r = _draw_rank(shared, min(p, m, k), rng)
    w = random_operator(sig, m, r, rng)
    s = _finish_op(w @ random_operator(sig, r, k, rng))
    t = _finish_op(adjoint_op(w @ random_operator(sig, r, p, rng)))
    cert = check_corollary(t, s)
    ok = cert.greville[0].verdict and cert.greville[1].verdict and cert.rol_verdict
    return (t, s) if ok else None


def _build_thm21_only(sig, p, m, k, rank_t, rank_s, rng):
    rs = _draw_rank(rank_s, min(m, k), rng)
    w = random_operator(sig, m, rs, rng)
    p_w = _range_projector(w)
    q_w = AdjointableOp.identity(sig, m) - p_w
    s = _finish_op(w @ random_operator(sig, rs, k, rng))

    r1 = _draw_rank(None, max(1, p - 1), rng)
    p1 = _range_projector(random_operator(sig, p, r1, rng))
    q1 = AdjointableOp.identity(sig, p) - p1
    t = _finish_op(
        p1 @ random_operator(sig, p, m, rng) @ p_w + q1 @ random_operator(sig, p, m, rng) @ q_w
    )

    ok21 = all(c.verdict for c in check_thm21(t, s))
    ok22 = all(c.verdict for c in check_thm22(t, s))
    return (t, s) if ok21 and not ok22 else None


def _build_thm22_only(sig, p, m, k, rank_t, rank_s, rng):
    if m < 2 or p < 2:
        raise ConformabilityError("thm22_only requires p >= 2 and m >= 2")
    rs = _draw_rank(rank_s, min(m - 1, k), rng)
    s0 = random_operator_with_rank(sig, m, k, rs, rng)
    # Polar isometry of S0, block by block; its reduced block S1 is unitary,
    # which trivializes the commutator condition.
    s = AdjointableOp.from_blocks(
        sig,
        [
            f.U[:, :r] @ f.V[:, :r].conj().T
            for f, r in zip(operator_svd(s0), operator_ranks(s0).ranks)
        ],
    )

    a = int(rng.integers(1, min(rs, p - 1) + 1))
    b = int(rng.integers(1, min(m - rs, p - a) + 1))
    v1 = s @ random_operator(sig, k, a, rng)
    q_w = AdjointableOp.identity(sig, m) - s @ adjoint_op(s)
    v2 = q_w @ random_operator(sig, m, b, rng)
    t = _finish_op(
        random_operator(sig, p, a, rng) @ adjoint_op(v1)
        + random_operator(sig, p, b, rng) @ adjoint_op(v2)
    )

    ok22 = all(c.verdict for c in check_thm22(t, s))
    ok21 = all(c.verdict for c in check_thm21(t, s))
    return (t, s) if ok22 and not ok21 else None
