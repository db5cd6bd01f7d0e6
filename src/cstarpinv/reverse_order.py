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
way the equivalences demand, and serializes (:func:`certificate_to_dict`)
together with the tool version, the tolerance used, and SHA-256 digests of
the inputs.  Instances whose verdicts cannot be certified
at the tolerance carry a boundary flag and are excluded from dichotomy
statistics: a rank decision of ``T``, ``S`` or ``TS`` is fragile, or the
pair is so ill-conditioned that rounding, ``eps * kappa`` with ``kappa``
the largest of the three condition numbers on the retained spectra, comes
within a factor 100 of ``tol``.

Every identity is evaluated block by block on the operators' per-block
matrices (see :mod:`cstarpinv.operators`): each norm in a residual is the
largest over blocks, taken separately for the numerator and for the
``1 + ||.||`` denominator, which is the spectral norm on the flattening.
All checks of one pair read one shared set of data: the rank decisions of
``T`` and ``S``, the pseudoinverse ``(TS)^+`` block by block, and the
residual of every identity of the certificate, each evaluated once when the
pair is built.  The norms of all those residuals are taken in one batch,
one LAPACK call per matrix shape (see
:func:`cstarpinv._numeric.rel_residuals`), and so are those of the eight
block conditions; the values are those of per-matrix norms bit for bit.  The data are cached on ``T`` for the last
``S`` it was paired with (matched by identity) and built from the
operators' cached SVDs, so generation's verification and every check of
the pair factor ``T``, ``S`` and ``TS`` once between them, and a
certificate at a second tolerance evaluates no residual.  The block
conditions make no rank decision or reduction of their own: ``(T1 S1)^+``
is read from the pair's ``(TS)^+``, ``T1``, ``T2`` and ``D^-1`` from the
block row of :mod:`cstarpinv.canonical_forms`.  The shared data depend on
neither ``tol`` nor anything else, so sharing changes no residual.

In infinite dimensions these equivalences require the ranges of ``T``,
``S`` and ``TS`` to be closed (equivalently, the pseudoinverses to be
bounded).  Every subspace of a finite-dimensional module is closed, so the
hypothesis is automatic here and no closedness predicate is exposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numeric import block_norm, check_tolerance, inverse, rel_residuals
from .algebra import AlgebraSignature
from .canonical_forms import _block_row
from .errors import (
    ConformabilityError,
    DegenerateDecompositionError,
    GenerationError,
    ParameterError,
)
from .operators import AdjointableOp, adjoint_op, compose
from .pinv import (
    EPS,
    operator_pinv,
    operator_ranks,
    operator_svd,
    orthogonal_complement,
    penrose_identities,
)
from .sampling import random_operator, random_operator_with_rank

__all__ = [
    "ConditionCheck",
    "RolCertificate",
    "BlockConditionReport",
    "check_thm21",
    "check_thm22",
    "check_corollary",
    "certificate_to_dict",
    "block_conditions",
    "gen_instance",
    "GENERATOR_KINDS",
]

DEFAULT_TOL = 1e-8
CERTIFICATE_FORMAT = "cstarpinv-certificate/1"
# Verdicts at ``tol`` are withheld once rounding, ``eps * kappa``, comes
# within this factor of ``tol``.  Over 4,850 unflagged ``S = T*`` pairs the
# residual never exceeded 9.15 times that floor.
_FLOOR_MARGIN = 100.0
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


class _Pair:
    """Everything the checks of one (T, S) pair read, computed once.

    The rank decisions of ``T`` and ``S``, the per-block ``(TS)^+`` (read-only,
    for :func:`block_conditions`), and the residual of every identity of the
    certificate: the law, each triple's three conditions and both Greville
    inclusions.  Triple A's second equation and the first inclusion are one
    residual, by the paper's equivalence
    ``T*TS = SS^+T*TS  <=>  Ran(T*TS) <= Ran(S)``, and each triple's third
    condition is the largest of three of the four Penrose residuals of
    ``(TS, X)`` with ``X = S^+ T^+``, so a pair evaluates ten residuals, all
    their norms in one batch.  A certificate at any tolerance only compares
    these residuals with it (see :func:`_certificate`), and is flagged by
    :meth:`flagged`, from the rank decisions' ``boundary_flag`` and the
    rounding ``floor`` (``eps * kappa``, the largest condition number of the
    three on their retained spectra); neither depends on ``tol``.  Obtain a
    pair through :func:`_pair`, which shares one per pair.
    """

    def __init__(self, t_op, s_op):
        ts_op = compose(t_op, s_op)
        (tp, t_decision), (sp, s_decision), (tsp, ts_decision) = (
            operator_pinv(op) for op in (t_op, s_op, ts_op)
        )
        for array in tsp:
            array.flags.writeable = False
        self.ts_pinv = tsp
        self.t_decision = t_decision
        self.s_decision = s_decision
        decisions = (t_decision, s_decision, ts_decision)
        self.boundary_flag = any(d.boundary_flag for d in decisions)
        self.floor = EPS * max(_condition(d) for d in decisions)

        t, s, ts = t_op.blocks, s_op.blocks, ts_op.blocks
        x = [a @ b for a, b in zip(sp, tp)]
        t_ts = [a.conj().T @ b for a, b in zip(t, ts)]
        ts_s = [a @ b.conj().T for a, b in zip(ts, s)]
        g2_target = [a @ a.conj().T @ b.conj().T for a, b in zip(s, t)]
        rol, thm21_a, inclusion_s, thm22_a, thm22_b, inclusion_t, r1, r2, r3, r4 = rel_residuals(
            [
                (tsp, x),
                ([a @ b for a, b in zip(ts, tsp)], [a @ b @ c for a, b, c in zip(ts, sp, tp)]),
                (t_ts, [a @ (b @ c) for a, b, c in zip(s, sp, t_ts)]),
                ([a @ b for a, b in zip(tsp, ts)], [a @ b for a, b in zip(x, ts)]),
                (ts_s, [a @ b @ c for a, b, c in zip(ts_s, tp, t)]),
                # Ran(T*) projector is (T^+ T); avoids factoring T* separately.
                (g2_target, [a @ (b @ c) for a, b, c in zip(tp, t, g2_target)]),
                *penrose_identities(ts, x),
            ]
        )
        self.residual_rol = rol
        self.thm21 = (thm21_a, inclusion_s, max(r1, r2, r3))
        self.thm22 = (thm22_a, thm22_b, max(r1, r2, r4))
        self.greville = (inclusion_s, inclusion_t)

    def flagged(self, tol):
        """Whether verdicts at ``tol`` are withheld: a rank decision of
        ``T``, ``S`` or ``TS`` is fragile, or rounding alone (``floor``)
        could carry a residual past ``tol``."""
        return self.boundary_flag or _FLOOR_MARGIN * self.floor >= tol


def _condition(decision):
    """``sigma_1 / sigma_rank`` on a decision's retained spectrum; 1 when
    nothing is retained."""
    if decision.rank == 0:
        return 1.0
    s = decision.singular_values
    return float(s[0] / s[decision.rank - 1])


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


def _certificate(pair, tol):
    """The certificate of a pair at ``tol``, from the residuals the pair holds."""
    thm21 = tuple(_check(r, tol) for r in pair.thm21)
    thm22 = tuple(_check(r, tol) for r in pair.thm22)
    greville = tuple(_check(r, tol) for r in pair.greville)
    rol_verdict = pair.residual_rol <= tol

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
        float(pair.residual_rol),
        bool(rol_verdict),
        thm21,
        thm22,
        greville,
        bool(consistent),
        pair.flagged(tol),
        float(tol),
    )


def check_thm21(t_op, s_op, tol=DEFAULT_TOL):
    """Residual/verdict pairs for the three conditions of triple A."""
    tol = check_tolerance(tol, "tol")
    return _certificate(_pair(t_op, s_op), tol).thm21


def check_thm22(t_op, s_op, tol=DEFAULT_TOL):
    """Residual/verdict pairs for the three conditions of triple B."""
    tol = check_tolerance(tol, "tol")
    return _certificate(_pair(t_op, s_op), tol).thm22


def check_corollary(t_op, s_op, tol=DEFAULT_TOL):
    """Full certificate: reverse order law, both triples, both inclusions.

    ``consistent`` asserts the equivalences: the three verdicts inside each
    triple agree, and (law holds) == (triple A and triple B hold) == (both
    range inclusions hold).  The assertion is only meaningful when
    ``boundary_flag`` is unset.
    """
    tol = check_tolerance(tol, "tol")
    return _certificate(_pair(t_op, s_op), tol)


def _check_to_dict(check):
    return {"residual": check.residual, "verdict": check.verdict}


def certificate_to_dict(cert, tool_version, digests):
    """Machine-readable certificate; lossless for the certificate fields."""
    return {
        "format": CERTIFICATE_FORMAT,
        "tool_version": tool_version,
        "tol": cert.tol,
        "input_digests": digests,
        "residual_rol": cert.residual_rol,
        "rol_verdict": cert.rol_verdict,
        "thm21": [_check_to_dict(c) for c in cert.thm21],
        "thm22": [_check_to_dict(c) for c in cert.thm22],
        "greville": [_check_to_dict(c) for c in cert.greville],
        "consistent": cert.consistent,
        "boundary_flag": cert.boundary_flag,
    }


@dataclass(frozen=True)
class BlockConditionReport:
    """Proof-level residuals in the canonical coordinates of the pair.

    ``S`` is reduced to its invertible block ``S1`` between ``Ran(S*)`` and
    ``Ran(S)``; ``T`` is written as a block row ``[T1, T2]`` against
    ``Ran(S) (+) Ker(S*)`` into ``Ran(T)``, with ``D = T1 T1* + T2 T2*``.
    ``(T1 S1)^+`` is the pair's ``(TS)^+`` written in these bases, and
    ``boundary_flag`` is the pair's certificate flag.  The c-residuals are
    the proof equivalents of triple A, the d-residuals of triple B:

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
    Everything is read from the pair's shared data (see :class:`_Pair`), cut
    at its rank decisions: ``T1``, ``T2`` and ``D^-1`` are the canonical
    forms' block row of ``T`` against ``S``'s cached split, and ``(T1 S1)^+``
    is the pair's ``(TS)^+`` in those coordinates (``T1 S1`` is ``TS``
    between ``Ran(S*)`` and ``Ran(T)``).  Each norm is the largest over
    blocks, and the report carries the pair's flag, the certificate's.
    """
    tol = check_tolerance(tol, "tol")
    pair = _pair(t_op, s_op)
    if pair.s_decision.rank == 0:
        raise DegenerateDecompositionError("S is zero; no invertible block S1")
    per_block = [
        _block_terms(*parts)
        for parts in zip(
            t_op.blocks,
            s_op.blocks,
            pair.ts_pinv,
            operator_svd(t_op),
            operator_svd(s_op),
            pair.t_decision.ranks,
            pair.s_decision.ranks,
        )
    ]
    identities = [
        ([a for a, _ in terms], None if terms[0][1] is None else [b for _, b in terms])
        for terms in zip(*per_block)
    ]
    return BlockConditionReport(*rel_residuals(identities), pair.flagged(tol), float(tol))


def _block_terms(t, s, tsp, ft, fs, rank_t, rank_s):
    """``(lhs, rhs)`` of the eight block residuals on one algebra block, in
    the order of :class:`BlockConditionReport`; ``rhs`` is ``None`` for an
    identity ``lhs == 0``.  ``T1``, ``T2`` and ``D^-1`` are ``T``'s block row
    against ``S``'s split, ``S1 = U_{S,1}* S V_{S,1}`` and
    ``(T1 S1)^+ = V_{S,1}* (TS)^+ U_{T,1}``."""
    us1, vs1, ut1 = fs.U[:, :rank_s], fs.V[:, :rank_s], ft.U[:, :rank_t]
    t1, t2, _, d_inv = _block_row(t, ut1, us1, orthogonal_complement(fs.U, rank_s))
    s1 = us1.conj().T @ s @ vs1
    p_ts1 = vs1.conj().T @ tsp @ ut1
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


def gen_instance(kind, dims, signature=None, seed=0):
    """Generate a structured operator pair ``(T, S)`` with ``TS`` defined.

    ``dims = (p, m, k)`` gives ``T: A^m -> A^p`` and ``S: A^k -> A^m``.
    Every rank is drawn from the seeded stream.  Supported kinds, each with
    the invariant its construction guarantees:

    * ``generic``: unconstrained random pair; no invariant.
    * ``rol_holds``: ``S = W R`` and ``T* = W R'``, so
      ``Ran(S) = Ran(T*) = Ran(W)`` and both Greville inclusions (hence the
      reverse order law) hold.
    * ``thm21_only``: ``T = P1 R1 P_W + Q1 R2 Q_W`` with ``P_W`` the
      projector onto ``Ran(S)``; ``T*T`` leaves ``Ran(S)`` invariant, so
      triple A holds, and ``rank P1 < rank S`` is drawn, so triple B fails
      (requires ``rank_S >= 2``, hence ``m, k >= 2``).
    * ``thm22_only``: ``S`` a partial isometry and ``T* = V1 A* + V2 B*``
      with ``Ran(V1) <= Ran(S)`` and ``Ran(V2) <= Ker(S*)``, so
      ``SS*T* = V1 A*`` and triple B holds; triple A generically fails, as
      ``T*TS`` has the component ``V2 B* A V1* S`` in ``Ker(S*)``
      (requires ``p, m >= 2``).
    * ``s_adjoint``: ``S = T*`` exactly, so the law holds (requires
      ``k == p``).

    Dims at which a kind cannot be built raise :class:`ConformabilityError`
    before anything is drawn.  Structured kinds are verified post hoc with
    the check operations and resampled up to 100 times; the invariants
    above make rejections rare (an attempt whose rank decisions are
    boundary noise).  :class:`GenerationError` signals exhaustion.
    """
    if (
        len(dims) != 3
        or any(isinstance(x, bool) or not isinstance(x, (int, np.integer)) for x in dims)
        or min(dims) < 1
    ):
        raise ConformabilityError(f"dims must be three positive integers p, m, k, got {dims}")
    p, m, k = (int(x) for x in dims)
    if kind not in GENERATOR_KINDS:
        raise ParameterError(f"unknown kind {kind!r}; choose from {GENERATOR_KINDS}")
    if kind == "s_adjoint" and k != p:
        raise ConformabilityError("s_adjoint requires k == p so that S = T* conforms")
    if kind == "thm21_only" and min(m, k) < 2:
        raise ConformabilityError("thm21_only requires m >= 2 and k >= 2")
    if kind == "thm22_only" and min(p, m) < 2:
        raise ConformabilityError("thm22_only requires p >= 2 and m >= 2")
    sig = AlgebraSignature((1,)) if signature is None else signature
    if not isinstance(sig, AlgebraSignature):
        raise ConformabilityError(f"signature must be an AlgebraSignature, got {signature!r}")
    rng = np.random.default_rng(seed)

    builder = {
        "generic": _build_generic,
        "rol_holds": _build_rol_holds,
        "thm21_only": _build_thm21_only,
        "thm22_only": _build_thm22_only,
        "s_adjoint": _build_s_adjoint,
    }[kind]
    for _ in range(_MAX_RETRIES):
        built = builder(sig, p, m, k, rng)
        if built is not None:
            return built
    raise GenerationError(f"could not generate a {kind!r} instance for dims {dims}")


def _draw_rank(upper, rng):
    """A rank drawn uniformly from ``1 .. upper``."""
    return int(rng.integers(1, upper + 1))


def _build_generic(sig, p, m, k, rng):
    t = random_operator_with_rank(sig, p, m, _draw_rank(min(p, m), rng), rng)
    s = random_operator_with_rank(sig, m, k, _draw_rank(min(m, k), rng), rng)
    return t, s


def _build_s_adjoint(sig, p, m, k, rng):
    t = random_operator_with_rank(sig, p, m, _draw_rank(min(p, m), rng), rng)
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
    return _rebuild(op, decision.ranks, lambda u, s, v: (u * s) @ v.conj().T)


def _rebuild(op, ranks, block_fn):
    """The operator whose block ``i`` is ``block_fn(U, s, V)`` on the
    factors of ``op``'s block ``i`` cut at ``ranks[i]``."""
    return AdjointableOp.from_blocks(
        op.signature,
        [
            block_fn(f.U[:, :r], f.singular_values[:r], f.V[:, :r])
            for f, r in zip(operator_svd(op), ranks)
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
    return _rebuild(op, operator_ranks(op).ranks, lambda u, *_: u @ u.conj().T)


def _build_rol_holds(sig, p, m, k, rng):
    r = _draw_rank(min(p, m, k), rng)
    w = random_operator(sig, m, r, rng)
    s = _finish_op(w @ random_operator(sig, r, k, rng))
    t = _finish_op(adjoint_op(w @ random_operator(sig, r, p, rng)))
    cert = check_corollary(t, s)
    ok = cert.greville[0].verdict and cert.greville[1].verdict and cert.rol_verdict
    return (t, s) if ok else None


def _build_thm21_only(sig, p, m, k, rng):
    # T = P1 R1 P_W + Q1 R2 Q_W maps Ran(S) = Ran(W) into Ran(P1) and its
    # complement into Ker(P1), so T*T leaves Ran(S) invariant and
    # Ran(T*TS) <= Ran(S) (triple A) always holds.  Ran(SS*T*) is SS* applied
    # to P_W R1* Ran(P1), a subspace of Ran(S) of dimension
    # min(rank P1, rank S), so Ran(SS*T*) <= Ran(T*) (triple B) generically
    # fails exactly when rank P1 < rank S: only such rank pairs are drawn,
    # uniformly.
    s_ranks = range(2, min(m, k) + 1)
    pairs = [(rs, r1) for rs in s_ranks for r1 in range(1, min(rs - 1, max(1, p - 1)) + 1)]
    rs, r1 = pairs[int(rng.integers(len(pairs)))]
    w = random_operator(sig, m, rs, rng)
    s = _finish_op(w @ random_operator(sig, rs, k, rng))
    # Ran(S) = Ran(W), so S's own (cached) factors give the projector.
    p_w = _range_projector(s)
    q_w = AdjointableOp.identity(sig, m) - p_w

    p1 = _range_projector(random_operator(sig, p, r1, rng))
    q1 = AdjointableOp.identity(sig, p) - p1
    t = _finish_op(
        p1 @ random_operator(sig, p, m, rng) @ p_w + q1 @ random_operator(sig, p, m, rng) @ q_w
    )

    ok21 = all(c.verdict for c in check_thm21(t, s))
    ok22 = all(c.verdict for c in check_thm22(t, s))
    return (t, s) if ok21 and not ok22 else None


def _build_thm22_only(sig, p, m, k, rng):
    rs = _draw_rank(min(m - 1, k), rng)
    s0 = random_operator_with_rank(sig, m, k, rs, rng)
    # Polar isometry of S0, block by block; its reduced block S1 is unitary,
    # which trivializes the commutator condition.
    s = _rebuild(s0, operator_ranks(s0).ranks, lambda u, _, v: u @ v.conj().T)

    a = _draw_rank(min(rs, p - 1), rng)
    b = _draw_rank(min(m - rs, p - a), rng)
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
