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

All checks of one pair share a single set of flattenings and
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

from ._numeric import rel_residual, spec_norm
from .algebra import AlgebraSignature
from .errors import (
    ConformabilityError,
    DegenerateDecompositionError,
    GenerationError,
)
from .operators import adjoint_op, range_inclusion_residual, unflatten
from .pinv import (
    operator_svd,
    penrose_residuals,
    pinv_from_svd,
    pinv_matrix,
    rank_decision,
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


class _Pair:
    """Shared flattenings and pseudoinverses for one (T, S) pair.

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
        self.t = t_op.flat
        self.s = s_op.flat
        self.ts = self.t @ self.s
        t_mp = pinv_from_svd(self.t.shape, operator_svd(t_op))
        s_mp = pinv_from_svd(self.s.shape, operator_svd(s_op))
        ts_mp = pinv_matrix(self.ts)
        self.tp = t_mp.pinv
        self.sp = s_mp.pinv
        self.tsp = ts_mp.pinv
        for array in (self.ts, self.tp, self.sp, self.tsp):
            array.flags.writeable = False
        self.boundary_flag = t_mp.boundary_flag or s_mp.boundary_flag or ts_mp.boundary_flag


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
    residuals = penrose_residuals(pair.ts, pair.sp @ pair.tp)
    picked = [residuals[i - 1] for i in which]
    return ConditionCheck(float(max(picked)), bool(all(r <= tol for r in picked)))


def _thm21_checks(pair, tol):
    lhs1 = pair.ts @ pair.tsp
    rhs1 = pair.ts @ pair.sp @ pair.tp
    lhs2 = pair.t.conj().T @ pair.ts
    rhs2 = pair.s @ (pair.sp @ lhs2)
    return (
        _check(rel_residual(lhs1, rhs1), tol),
        _check(rel_residual(lhs2, rhs2), tol),
        _theta_check(pair, (1, 2, 3), tol),
    )


def _thm22_checks(pair, tol):
    lhs1 = pair.tsp @ pair.ts
    rhs1 = pair.sp @ pair.tp @ pair.ts
    lhs2 = pair.ts @ pair.s.conj().T
    rhs2 = lhs2 @ pair.tp @ pair.t
    return (
        _check(rel_residual(lhs1, rhs1), tol),
        _check(rel_residual(lhs2, rhs2), tol),
        _theta_check(pair, (1, 2, 4), tol),
    )


def check_thm21(t_op, s_op, tol=DEFAULT_TOL):
    """Residual/verdict pairs for the three conditions of triple A."""
    _validate_tol(tol)
    return _thm21_checks(_pair(t_op, s_op), tol)


def check_thm22(t_op, s_op, tol=DEFAULT_TOL):
    """Residual/verdict pairs for the three conditions of triple B."""
    _validate_tol(tol)
    return _thm22_checks(_pair(t_op, s_op), tol)


def _validate_tol(tol):
    if tol <= 0:
        raise ValueError("tol must be positive")


def check_corollary(t_op, s_op, tol=DEFAULT_TOL):
    """Full certificate: reverse order law, both triples, both inclusions.

    ``consistent`` asserts the equivalences: the three verdicts inside each
    triple agree, and (law holds) == (triple A and triple B hold) == (both
    range inclusions hold).  The assertion is only meaningful when
    ``boundary_flag`` is unset.
    """
    _validate_tol(tol)
    pair = _pair(t_op, s_op)
    thm21 = _thm21_checks(pair, tol)
    thm22 = _thm22_checks(pair, tol)

    residual_rol = rel_residual(pair.tsp, pair.sp @ pair.tp)
    rol_verdict = residual_rol <= tol

    g1_target = pair.t.conj().T @ pair.ts
    g1 = range_inclusion_residual(g1_target, pair.s, pair.sp)
    g2_target = pair.s @ pair.s.conj().T @ pair.t.conj().T
    # Ran(T*) projector is (T^+ T); avoids factoring T* separately.
    g2 = spec_norm(g2_target - pair.tp @ (pair.t @ g2_target)) / (
        1.0 + spec_norm(g2_target)
    )
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
    """
    _validate_tol(tol)
    if t_op.signature != s_op.signature:
        raise ConformabilityError("signatures differ")
    if t_op.cols != s_op.rows:
        raise ConformabilityError("TS undefined")
    s = s_op.flat
    t = t_op.flat
    fs = operator_svd(s_op)
    rank_s, _, flag_s = rank_decision(s.shape, fs.singular_values, "auto")
    if rank_s == 0:
        raise DegenerateDecompositionError("S is zero; no invertible block S1")
    us1 = fs.U[:, :rank_s]
    us2 = _kernel_basis(fs.U[:, :rank_s])
    vs1 = fs.V[:, :rank_s]
    s1 = us1.conj().T @ s @ vs1

    ft = operator_svd(t_op)
    rank_t, _, flag_t = rank_decision(t.shape, ft.singular_values, "auto")
    ut1 = ft.U[:, :rank_t]
    t1 = ut1.conj().T @ t @ us1
    t2 = ut1.conj().T @ t @ us2

    d = t1 @ t1.conj().T + t2 @ t2.conj().T
    if rank_t:
        d_inv = np.linalg.solve(d, np.eye(rank_t, dtype=complex))
    else:
        d_inv = d
    s1_inv = np.linalg.solve(s1, np.eye(rank_s, dtype=complex))
    ts1 = t1 @ s1
    ts1_mp = pinv_matrix(ts1)
    p_ts1 = ts1_mp.pinv

    t1t1 = t1 @ t1.conj().T
    s1s1 = s1 @ s1.conj().T
    core = t1.conj().T @ d_inv @ t1

    c1 = rel_residual(ts1 @ p_ts1, t1t1 @ d_inv)
    c2 = rel_residual(t2.conj().T @ t1, None)
    c3a = rel_residual(t1t1 @ d_inv @ t1, t1)
    c3b = rel_residual(t1t1 @ d_inv, d_inv @ t1t1)
    d1 = rel_residual(p_ts1 @ ts1, s1_inv @ t1.conj().T @ d_inv @ ts1)
    tss = t1 @ s1s1
    d2a = rel_residual(tss @ core, tss)
    d2b = rel_residual(tss @ t1.conj().T @ d_inv @ t2, None)
    d3 = rel_residual(s1s1 @ core, core @ s1s1)

    flag = flag_s or flag_t or ts1_mp.boundary_flag
    return BlockConditionReport(
        float(c1),
        float(c2),
        float(c3a),
        float(c3b),
        float(d1),
        float(d2a),
        float(d2b),
        float(d3),
        bool(flag),
        float(tol),
    )


def _kernel_basis(range_basis):
    """Orthonormal basis of the orthogonal complement of ``Ran(range_basis)``."""
    n, r = range_basis.shape
    if r == 0:
        return np.eye(n, dtype=complex)
    if r == n:
        return np.zeros((n, 0), dtype=complex)
    proj = np.eye(n, dtype=complex) - range_basis @ range_basis.conj().T
    return svd_factor(proj).U[:, : n - r]


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


def _snap_flat(flat):
    """Rebuild a flattening from its truncated SVD.

    Long products of projections leave rounding trash just above the
    boundary-flag band; rebuilding from the retained singular triplets sheds
    it without disturbing the constructed subspace relations (they survive
    an eps-size perturbation, and the post-hoc verdict checks remain the
    referee).
    """
    f = svd_factor(flat)
    rank, _, _ = rank_decision(flat.shape, f.singular_values, "auto")
    if rank == min(flat.shape):
        return flat
    return (f.U[:, :rank] * f.singular_values[:rank]) @ f.V[:, :rank].conj().T


def _finish_op(flat, sig, rows, cols):
    """Normalize, snap and lift a constructed flattening to a module operator."""
    norm = spec_norm(flat)
    if norm > 0:
        flat = flat / norm
    return unflatten(_snap_flat(flat), sig, (rows, cols), tol=1e-8)


def _range_projector(flat):
    """Flattened orthogonal projector onto the range of ``flat``."""
    f = svd_factor(flat)
    rank, _, _ = rank_decision(flat.shape, f.singular_values, "auto")
    basis = f.U[:, :rank]
    return basis @ basis.conj().T


def _build_rol_holds(sig, p, m, k, rank_t, rank_s, rng):
    shared = rank_t if rank_t is not None else rank_s
    r = _draw_rank(shared, min(p, m, k), rng)
    w = random_operator(sig, m, r, rng).flat
    s = _finish_op(w @ random_operator(sig, r, k, rng).flat, sig, m, k)
    t = _finish_op((w @ random_operator(sig, r, p, rng).flat).conj().T, sig, p, m)
    cert = check_corollary(t, s)
    ok = cert.greville[0].verdict and cert.greville[1].verdict and cert.rol_verdict
    return (t, s) if ok else None


def _build_thm21_only(sig, p, m, k, rank_t, rank_s, rng):
    rs = _draw_rank(rank_s, min(m, k), rng)
    w = random_operator(sig, m, rs, rng).flat
    p_w = _range_projector(w)
    q_w = np.eye(p_w.shape[0], dtype=complex) - p_w
    s = _finish_op(w @ random_operator(sig, rs, k, rng).flat, sig, m, k)

    r1 = _draw_rank(None, max(1, p - 1), rng)
    p1 = _range_projector(random_operator(sig, p, r1, rng).flat)
    q1 = np.eye(p1.shape[0], dtype=complex) - p1
    t_flat = (
        p1 @ random_operator(sig, p, m, rng).flat @ p_w
        + q1 @ random_operator(sig, p, m, rng).flat @ q_w
    )
    t = _finish_op(t_flat, sig, p, m)

    ok21 = all(c.verdict for c in check_thm21(t, s))
    ok22 = all(c.verdict for c in check_thm22(t, s))
    return (t, s) if ok21 and not ok22 else None


def _build_thm22_only(sig, p, m, k, rank_t, rank_s, rng):
    if m < 2 or p < 2:
        raise ConformabilityError("thm22_only requires p >= 2 and m >= 2")
    rs = _draw_rank(rank_s, min(m - 1, k), rng)
    s0 = random_operator_with_rank(sig, m, k, rs, rng)
    fs = svd_factor(s0.flat)
    rank_f, _, _ = rank_decision(s0.flat.shape, fs.singular_values, "auto")
    iso = fs.U[:, :rank_f] @ fs.V[:, :rank_f].conj().T
    # Polar isometry of a module operator stays module-linear; its reduced
    # block S1 is unitary, which trivializes the commutator condition.
    s = unflatten(iso, sig, (m, k), tol=1e-8)

    a = int(rng.integers(1, min(rs, p - 1) + 1))
    b = int(rng.integers(1, min(m - rs, p - a) + 1))
    v1 = iso @ random_operator(sig, k, a, rng).flat
    q_w = np.eye(iso.shape[0], dtype=complex) - iso @ iso.conj().T
    v2 = q_w @ random_operator(sig, m, b, rng).flat
    t_flat = (
        random_operator(sig, p, a, rng).flat @ v1.conj().T
        + random_operator(sig, p, b, rng).flat @ v2.conj().T
    )
    t = _finish_op(t_flat, sig, p, m)

    ok22 = all(c.verdict for c in check_thm22(t, s))
    ok21 = all(c.verdict for c in check_thm21(t, s))
    return (t, s) if ok22 and not ok21 else None
