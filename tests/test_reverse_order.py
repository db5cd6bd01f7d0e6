import dataclasses
import itertools
import sys

import numpy as np
import pytest

import cstarpinv.reverse_order as ro
from cstarpinv import (
    AdjointableOp,
    adjoint_op,
    block_conditions,
    check_corollary,
    check_thm21,
    check_thm22,
    compose,
    flatten,
    gen_instance,
    moore_penrose,
)
from cstarpinv.errors import (
    ConformabilityError,
    DegenerateDecompositionError,
    GenerationError,
    ParameterError,
    SizeLimitError,
)
from cstarpinv.operators import op_norm

from conftest import (
    SIG1,
    SIG2,
    SIG12,
    assert_penrose,
    count_norm_batches,
    count_svd_factor,
    random_operator,
    random_operator_with_rank,
)


def op1(matrix):
    return AdjointableOp.from_complex_matrix(matrix)


# the spec sheet's worked pair and a genuinely failing one
HOLDS_T = [[1, 1], [0, 0]]
HOLDS_S = [[1, 0], [1, 0]]
FAILS_T = [[1, 0], [0, 0]]
FAILS_S = [[1, 0], [1, 0]]


def test_invertible_pair_all_true(rng):
    t = random_operator(SIG1, 3, 3, rng)
    s = random_operator(SIG1, 3, 3, rng)
    for check in check_thm21(t, s) + check_thm22(t, s):
        assert check.verdict and check.residual <= 1e-12
    cert = check_corollary(t, s)
    assert cert.rol_verdict and cert.consistent and cert.residual_rol <= 1e-12


def test_pair_with_matching_ranges_holds():
    # here Ran(S) = Ran(T*) = span{(1,1)}, so the Greville inclusions and
    # hence the reverse order law hold; verified by substitution below
    t, s = op1(HOLDS_T), op1(HOLDS_S)
    ts = flatten(compose(t, s))
    ts_pinv = flatten(moore_penrose(compose(t, s)).pseudoinverse)
    product = flatten(moore_penrose(s).pseudoinverse) @ flatten(
        moore_penrose(t).pseudoinverse
    )
    np.testing.assert_allclose(ts_pinv, [[0.5, 0], [0, 0]], atol=1e-14)
    np.testing.assert_allclose(product, [[0.5, 0], [0, 0]], atol=1e-14)
    assert_penrose(ts, ts_pinv, tol=1e-14)
    assert_penrose(ts, product, tol=1e-14)

    cert = check_corollary(t, s)
    assert cert.rol_verdict and cert.consistent and not cert.boundary_flag
    assert all(c.verdict for c in cert.thm21 + cert.thm22 + cert.greville)


def test_failure_pair_certificate():
    t, s = op1(FAILS_T), op1(FAILS_S)
    ts = flatten(compose(t, s))
    ts_pinv = flatten(moore_penrose(compose(t, s)).pseudoinverse)
    product = flatten(moore_penrose(s).pseudoinverse) @ flatten(
        moore_penrose(t).pseudoinverse
    )
    # frozen values, independently verified by Penrose substitution
    np.testing.assert_allclose(ts_pinv, [[1, 0], [0, 0]], atol=1e-14)
    np.testing.assert_allclose(product, [[0.5, 0], [0, 0]], atol=1e-14)
    assert_penrose(ts, ts_pinv, tol=1e-14)
    defects = np.linalg.norm(ts @ product @ ts - ts)
    assert defects > 0.1  # the product is not even a {1}-inverse

    cert = check_corollary(t, s)
    assert not cert.rol_verdict
    assert cert.residual_rol == pytest.approx(0.25, rel=1e-10)
    assert not any(c.verdict for c in cert.thm21 + cert.thm22 + cert.greville)
    assert cert.consistent and not cert.boundary_flag


def test_thm_checks_internal_agreement_small(rng):
    for i in range(60):
        sig = (SIG1, SIG2)[i % 2]
        t, s = gen_instance("generic", (4, 4, 4), signature=sig, seed=9000 + i)
        cert = check_corollary(t, s)
        if cert.boundary_flag:
            continue
        assert len({c.verdict for c in cert.thm21}) == 1
        assert len({c.verdict for c in cert.thm22}) == 1
        assert cert.consistent


def test_gram_pair_always_holds(rng):
    # the reverse order law always holds for S = T*
    for i in range(500):
        sig = (SIG1, SIG1, SIG1, SIG2)[i % 4]
        dims = ((4, 4, 4), (3, 4, 3), (5, 3, 5))[i % 3]
        t, _ = gen_instance("generic", dims, signature=sig, seed=500 + i)
        cert = check_corollary(t, adjoint_op(t))
        assert cert.rol_verdict and cert.consistent
        assert all(c.verdict for c in cert.thm21 + cert.thm22 + cert.greville)


def test_rol_verdict_matches_operator_level_oracle():
    # the certificate's law verdict must equal the direct module-level
    # comparison of the two pseudoinverses
    for i in range(60):
        kind = ("generic", "rol_holds", "s_adjoint")[i % 3]
        dims = (4, 4, 4)
        t, s = gen_instance(kind, dims, seed=8200 + i)
        cert = check_corollary(t, s)
        lhs = moore_penrose(compose(t, s)).pseudoinverse
        rhs = compose(
            moore_penrose(s).pseudoinverse, moore_penrose(t).pseudoinverse
        )
        direct = op_norm(lhs - rhs) / (1 + op_norm(lhs)) <= cert.tol
        assert cert.rol_verdict == direct


def test_conformability():
    t = op1([[1, 0], [0, 1]])
    s = AdjointableOp.zero(SIG1, 3, 2)
    with pytest.raises(ConformabilityError):
        check_thm21(t, s)
    with pytest.raises(ValueError):
        check_corollary(t, op1([[1, 0], [0, 1]]), tol=-1)


def test_block_conditions_full_rank_s(rng):
    # invertible S (a Ginibre draw), T of every rank: block verdicts must
    # match the theorem-level verdicts
    compared = 0
    for i in range(20):
        t = random_operator_with_rank(SIG1, 4, 4, 1 + i % 4, rng)
        s = random_operator(SIG1, 4, 4, rng)
        cert = check_corollary(t, s)
        report = block_conditions(t, s)
        if cert.boundary_flag or report.boundary_flag:
            continue
        compared += 1
        assert report.thm21_verdicts() == tuple(c.verdict for c in cert.thm21)
        assert report.thm22_verdicts() == tuple(c.verdict for c in cert.thm22)
    assert compared >= 10


def test_block_conditions_agree_generic(rng):
    matched = 0
    for i in range(100):
        t, s = gen_instance("generic", (4, 4, 3), seed=7000 + i)
        cert = check_corollary(t, s)
        report = block_conditions(t, s)
        if cert.boundary_flag or report.boundary_flag:
            continue
        matched += 1
        assert report.thm21_verdicts() == tuple(c.verdict for c in cert.thm21)
        assert report.thm22_verdicts() == tuple(c.verdict for c in cert.thm22)
    assert matched >= 50


def test_block_report_flagged_with_its_pair():
    # TS has rank 1 with one rounding-noise value in the boundary band.  A
    # separate decision on T1 S1 kept that noise as rank, so d1 read 0.5
    # while triple B holds to ~1e-15; (T1 S1)^+ read from the pair's (TS)^+
    # shares TS's decision, and the report agrees with both triples.
    t, s = gen_instance("thm22_only", (4, 4, 4), seed=23000143)
    report = block_conditions(t, s)  # before the certificate is asked for
    cert = check_corollary(t, s)
    assert cert.boundary_flag and report.boundary_flag
    assert report.d1 <= 1e-12
    assert report.thm21_verdicts() == tuple(c.verdict for c in cert.thm21)
    assert report.thm22_verdicts() == tuple(c.verdict for c in cert.thm22)


def test_ill_conditioned_gram_pair_is_flagged():
    # TS = T T* has rank 20 here and its smallest kept singular value is
    # 1e5 times the cutoff, so no rank decision is fragile; but kappa(TS) is
    # 2.6e9 and the residuals sit at eps * kappa, above tol = 1e-8
    t, s = gen_instance("s_adjoint", (4, 4, 4), signature=SIG12, seed=5001489)
    cert = check_corollary(t, s)
    assert cert.boundary_flag and block_conditions(t, s).boundary_flag
    assert not ro._pair(t, s).boundary_flag
    assert check_corollary(t, s, 1e-3).boundary_flag is False


def _with_condition_number(sig, dim, x, rng):
    """An operator on ``A^dim`` whose block of size ``n`` is ``U diag(s) V*``
    with ``s = logspace(0, -x, dim * n)`` and random unitaries ``U``, ``V``:
    condition number ``10^x``."""
    blocks = []
    for n in sig.block_sizes:
        d = dim * n
        u, v = (
            np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            for _ in range(2)
        )
        blocks.append((u * np.logspace(0, -x, d)) @ v.conj().T)
    return AdjointableOp.from_blocks(sig, blocks)


@pytest.mark.parametrize("sig", (SIG1, SIG12), ids=("1", "1,2"))
def test_ill_conditioned_gram_pairs_are_right_or_flagged(sig):
    # S = T* always satisfies the law; T's singular values are
    # logspace(0, -x) for kappa(T) = 10^x, so kappa(TS) = 10^(2x).  No pair
    # may be unflagged with a false or inconsistent verdict.
    rng = np.random.default_rng(5001489)
    unflagged = 0
    for x in range(1, 9):
        for _ in range(30):
            t = _with_condition_number(sig, 4, x, rng)
            s = adjoint_op(t)
            cert = check_corollary(t, s)
            report = block_conditions(t, s)
            assert report.boundary_flag == cert.boundary_flag
            if cert.boundary_flag:
                continue
            unflagged += 1
            assert cert.rol_verdict and cert.consistent, x
            assert all(c.verdict for c in cert.thm21 + cert.thm22 + cert.greville), x
            assert report.thm21_verdicts() == report.thm22_verdicts() == (True,) * 3
    # kappa(T) up to 10^2 stays certifiable
    assert unflagged >= 60


def test_block_conditions_failure_pair():
    report = block_conditions(op1(FAILS_T), op1(FAILS_S))
    assert report.c2 > 1e-8  # T2* T1 is far from zero
    assert report.thm21_verdicts() == (False, False, False)


def test_block_conditions_zero_s():
    t = op1([[1, 0], [0, 1]])
    with pytest.raises(DegenerateDecompositionError):
        block_conditions(t, AdjointableOp.zero(SIG1, 2, 2))


def test_proof_bridge_c3_implies_c2():
    # triple A proof direction (3) => (2): when both parts of (3) are small,
    # c2 must be small too; constructed instances realize the hypothesis
    found = 0
    for i in range(30):
        t, s = gen_instance("thm21_only", (4, 4, 4), seed=100 + i)
        report = block_conditions(t, s)
        if max(report.c3a, report.c3b) <= 1e-8:
            found += 1
            assert report.c2 <= 1e-8
    assert found >= 20


def test_gen_instance_kinds():
    t, s = gen_instance("s_adjoint", (3, 4, 3), seed=1)
    assert op_norm(s - adjoint_op(t)) == 0.0

    t, s = gen_instance("rol_holds", (5, 5, 5), seed=2)
    cert = check_corollary(t, s)
    assert cert.rol_verdict and all(c.verdict for c in cert.greville)

    t, s = gen_instance("thm21_only", (4, 4, 4), seed=3)
    assert all(c.verdict for c in check_thm21(t, s))
    assert not all(c.verdict for c in check_thm22(t, s))

    t, s = gen_instance("thm22_only", (4, 4, 4), seed=4)
    assert all(c.verdict for c in check_thm22(t, s))
    assert not all(c.verdict for c in check_thm21(t, s))


def test_gen_instance_module_signature():
    t, s = gen_instance("thm22_only", (3, 3, 3), signature=SIG2, seed=11)
    assert t.signature == SIG2
    assert all(c.verdict for c in check_thm22(t, s))
    assert not all(c.verdict for c in check_thm21(t, s))


def test_gen_instance_determinism():
    a = gen_instance("generic", (4, 3, 2), seed=77)
    b = gen_instance("generic", (4, 3, 2), seed=77)
    assert np.array_equal(flatten(a[0]), flatten(b[0]))
    assert np.array_equal(flatten(a[1]), flatten(b[1]))


def test_gen_instance_validation(monkeypatch):
    with pytest.raises(ConformabilityError):
        gen_instance("s_adjoint", (3, 4, 2), seed=0)  # k != p
    with pytest.raises(ConformabilityError):
        gen_instance("generic", (0, 4, 2), seed=0)
    with pytest.raises(ConformabilityError):
        gen_instance("thm22_only", (1, 1, 1), seed=0)
    # every refusal goes through the package's errors, never a stray
    # unpacking ValueError or AttributeError
    with pytest.raises(ParameterError, match="unknown kind 'bogus'") as info:
        gen_instance("bogus", (3, 3, 3), seed=0)
    assert isinstance(info.value, ValueError)
    with pytest.raises(ConformabilityError, match="dims"):
        gen_instance("generic", (3, 3), seed=0)
    for signature in ((1, 2), [1, 2]):
        with pytest.raises(ConformabilityError, match="signature"):
            gen_instance("generic", (3, 3, 3), signature=signature, seed=0)
    # dims are integers: a NumPy integer is one, a float, a bool or a string
    # is refused before any draw
    ints = gen_instance("generic", (3, 3, 3), seed=0)
    numpy_ints = gen_instance("generic", (np.int64(3),) * 3, seed=0)
    for a, b in zip(ints, numpy_ints):
        assert a.blocks[0].tobytes() == b.blocks[0].tobytes()
    attempts = _count_attempts(monkeypatch, kinds=("generic",))
    for dims in ((4.5, 4, 4), (True, 2, 2), ("4", "4", "4"), None, 5):
        with pytest.raises(ConformabilityError, match="dims must be three positive integers"):
            gen_instance("generic", dims, seed=0)
    assert attempts == []
    # seeds are non-negative integers, a NumPy integer among them: None
    # would draw from OS entropy and True would draw seed 1, so neither
    # reproduces its pair
    numpy_seed = gen_instance("generic", (3, 3, 3), seed=np.uint8(0))
    for a, b in zip(ints, numpy_seed):
        assert a.blocks[0].tobytes() == b.blocks[0].tobytes()
    # refused before any draw: a builder that fails at once stands in for
    # one that would allocate terabytes for a 10**6 x 1 operator
    monkeypatch.setattr(ro, "_build_generic", lambda *args: pytest.fail("drew a refused request"))
    for seed in (None, True, -1, 1.5, "a"):
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            gen_instance("generic", (3, 3, 3), seed=seed)
    for dims, signature in (((10**6, 1, 1), SIG1), ((1, 2, 1025), SIG2)):
        with pytest.raises(SizeLimitError, match="at most 2048"):
            gen_instance("generic", dims, signature=signature, seed=0)


def _count_attempts(monkeypatch, kinds=("thm21_only",)):
    """Patch the builders of ``kinds`` to log each attempt; returns the log."""
    attempts = []
    for kind in kinds:
        build = getattr(ro, f"_build_{kind}")

        def counting(*args, build=build):
            attempts.append(args)
            return build(*args)

        monkeypatch.setattr(ro, f"_build_{kind}", counting)
    return attempts


@pytest.mark.parametrize("sig, most", ((SIG1, 1.15), (SIG12, 1.05)), ids=("1", "1,2"))
def test_thm21_only_attempts_per_instance(monkeypatch, sig, most):
    # only rank pairs that break triple B are drawn; the rejections left are
    # attempts whose rank decisions are boundary-flagged noise (2.36 and
    # 1.99 attempts per instance while every rank pair was drawn)
    attempts = _count_attempts(monkeypatch)
    seeds = range(1000, 1400)
    for seed in seeds:
        gen_instance("thm21_only", (4, 4, 4), signature=sig, seed=seed)
    assert len(attempts) / len(seeds) <= most


# The dims each kind needs: thm21_only draws rank S > rank P1 >= 1, so
# m, k >= 2; thm22_only draws rank S <= m - 1 and T's ranks a, b >= 1 with
# a + b <= p, so p, m >= 2; s_adjoint needs S = T* to conform.
REFUSED = {
    "s_adjoint": lambda p, m, k: k != p,
    "thm21_only": lambda p, m, k: min(m, k) < 2,
    "thm22_only": lambda p, m, k: min(p, m) < 2,
}


def test_gen_instance_refuses_infeasible_dims_before_any_draw(monkeypatch):
    calls = _count_attempts(monkeypatch, ro.GENERATOR_KINDS)
    for kind in ro.GENERATOR_KINDS:
        for dims in itertools.product((1, 2, 3), repeat=3):
            calls.clear()
            if REFUSED.get(kind, lambda *_: False)(*dims):
                with pytest.raises(ConformabilityError):
                    gen_instance(kind, dims, seed=0)
                assert calls == [], (kind, dims)
            else:
                gen_instance(kind, dims, seed=0)
                assert calls, (kind, dims)
    t, s = gen_instance("thm21_only", (4, 2, 2), seed=0)
    assert ro._pair(t, s).s_decision.rank == 2
    assert all(c.verdict for c in check_thm21(t, s))
    assert not all(c.verdict for c in check_thm22(t, s))


def test_gen_instance_retry_exhaustion(monkeypatch):
    monkeypatch.setitem(gen_instance.__globals__, "_accepts", lambda kind, cert: False)
    with pytest.raises(GenerationError):
        gen_instance("generic", (3, 3, 3), seed=0)


def test_pair_entry_points_refuse_non_operators():
    # a non-operator T used to reach the pair cache's lookup first
    t = op1(FAILS_T)
    for check in (compose, check_thm21, check_thm22, check_corollary, block_conditions):
        for args, side in (((np.eye(2), t), "left"), ((t, np.eye(2)), "right")):
            with pytest.raises(ConformabilityError, match=f"the {side} factor must be an Adj"):
                check(*args)


def test_certificate_shape():
    cert = check_corollary(op1(FAILS_T), op1(FAILS_S), tol=1e-8)
    assert len(cert.thm21) == len(cert.thm22) == 3
    assert len(cert.greville) == 2
    assert cert.tol == 1e-8
    assert isinstance(cert, ro.RolCertificate)
    assert dataclasses.is_dataclass(cert)


def _fresh(op):
    """A new operator with the same entries and empty caches."""
    return AdjointableOp(op.entries)


def test_shared_pair_follows_the_right_factor(rng):
    t = random_operator(SIG1, 3, 4, rng)
    s1 = random_operator(SIG1, 4, 3, rng)
    s2 = compose(adjoint_op(t), random_operator(SIG1, 3, 3, rng))
    first = check_corollary(t, s1)
    second = check_corollary(t, s2)
    assert first == check_corollary(_fresh(t), _fresh(s1))
    assert second == check_corollary(_fresh(t), _fresh(s2))
    assert first.rol_verdict != second.rol_verdict
    # back to the first S, and a tolerance change, on the same cached data
    assert check_corollary(t, s1, 1e-3) == check_corollary(_fresh(t), _fresh(s1), 1e-3)
    assert block_conditions(t, s2) == block_conditions(_fresh(t), _fresh(s2))


def _patch_everywhere(monkeypatch, original, replacement):
    """Replace ``original`` at every binding in the loaded package modules,
    as the package imports functions by name."""
    for name, module in list(sys.modules.items()):
        if name.startswith("cstarpinv") and getattr(module, original.__name__, None) is original:
            monkeypatch.setattr(module, original.__name__, replacement)


# LAPACK SVD calls (stacks) of run_fuzz((4, 4, 4), 100, 1000, [1], all kinds),
# against 436 single-matrix calls while every pair was certified alone, and
# 165 while the pairs of a generation round shared one call per block shape
# but the builders factored one operator per call: each builder step of a
# round now shares one call per block shape too
LAPACK_CALLS_PER_FUZZ_CALL = 20


def test_fuzz_factors_each_matrix_once(monkeypatch):
    from cstarpinv.cli import run_fuzz

    calls = count_svd_factor(monkeypatch)
    count = 100
    _, summary = run_fuzz((4, 4, 4), count, 1000, SIG1, ro.GENERATOR_KINDS, 1e-8)
    assert summary["inconsistent"] == 0
    # 13.21 per instance when every caller factored T, S and TS afresh,
    # 7.37 while the block conditions factored T1 S1 again, 6.37 while
    # thm21_only drew rank pairs that cannot break triple B, and 5.09 while
    # the block conditions factored a projector for Ker(S*) that S's square
    # U already spans
    assert len(calls) / count <= 4.5
    assert len(calls.stacks) == LAPACK_CALLS_PER_FUZZ_CALL


def test_fuzz_batches_residual_norms(monkeypatch):
    from cstarpinv.cli import run_fuzz

    svd, norm = np.linalg.svd, np.linalg.norm
    calls = []

    def counting_svd(a, full_matrices=True, compute_uv=True, hermitian=False):
        if not compute_uv:
            calls.append("svd")
        return svd(a, full_matrices, compute_uv, hermitian)

    def counting_norm(*args, **kwargs):
        calls.append("norm")
        return norm(*args, **kwargs)

    _patch_everywhere(monkeypatch, svd, counting_svd)
    _patch_everywhere(monkeypatch, norm, counting_norm)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    count = 100
    # over [1,2], 86.1 norm LAPACK calls per instance while every matrix of
    # every residual took its own np.linalg.norm, 11.24 with one batch per
    # shape and pair, 4.47 with one batch per shape for all the pairs of a
    # generation round and one for all their block conditions (here three
    # batches of at most 34 instances each), and 1.05 now that each builder
    # step of a round takes one batch for all its operators; over [1], 2.09
    # and then 0.27
    for sig, most in ((SIG12, 1.05), (SIG1, 0.27)):
        calls.clear()
        _, summary = run_fuzz((4, 4, 4), count, 1000, sig, ro.GENERATOR_KINDS, 1e-8)
        assert summary["inconsistent"] == 0
        assert len(calls) / count <= most


@pytest.mark.parametrize("kind", ro.GENERATOR_KINDS)
def test_builder_lapack_calls_do_not_grow_with_the_round(monkeypatch, kind):
    # one round: every candidate is accepted
    monkeypatch.setitem(gen_instance.__globals__, "_accepts", lambda kind, cert: True)
    stacks, norms = count_svd_factor(monkeypatch), count_norm_batches(monkeypatch)
    pairs = ro._pairs

    def uncounted(candidates):
        counts = len(stacks.stacks), len(norms)
        built = pairs(candidates)
        del stacks.stacks[counts[0] :], norms[counts[1] :]
        return built

    # the round's calls, less those certifying its candidates
    monkeypatch.setattr(ro, "_pairs", uncounted)

    def calls(count):
        del stacks.stacks[:], norms[:]
        ro.generate_instances([(kind, (2, 3, 2), seed) for seed in range(count)], SIG12)
        return len(stacks.stacks), len(norms)

    # at (2, 3, 2) every kind factors the same block shapes on every draw
    # (thm21_only's S has full rank 2 and P1 rank 1), so the LAPACK calls of
    # one request are those of any number of them
    one = calls(1)
    assert calls(20) == one
    # every kind takes norms, and the kinds that snap or project factor
    assert one[1] >= 1 and (one[0] >= 1) == (kind not in ("generic", "s_adjoint"))


def test_pair_evaluates_each_residual_once(monkeypatch, rng):
    from cstarpinv._numeric import spec_norms

    batches = []

    def counting(matrices):
        matrices = list(matrices)
        batches.append(len(matrices))
        return spec_norms(matrices)

    pairs = [
        (random_operator(SIG1, 3, 4, rng), random_operator(SIG1, 4, 3, rng)),
        tuple(map(_fresh, gen_instance("thm22_only", (4, 4, 4), signature=SIG2, seed=5))),
        tuple(map(_fresh, gen_instance("thm21_only", (4, 4, 4), signature=SIG12, seed=5))),
    ]
    _patch_everywhere(monkeypatch, spec_norms, counting)
    for t, s in pairs:
        cert = check_corollary(t, s)
        # building the pair takes the norms of its ten residuals in one
        # batch: per algebra block, each residual's lhs and lhs - rhs
        assert batches == [20 * len(t.signature.block_sizes)]
        assert check_thm21(t, s) == cert.thm21
        assert check_thm22(t, s) == cert.thm22
        loose = check_corollary(t, s, 1e-3)
        assert loose.residual_rol == cert.residual_rol
        assert len(batches) == 1
        batches.clear()


# (signature, dims, seed, count): the fuzz corpora of the ROADMAP baseline
FUZZ_CORPORA = (
    ((1,), (4, 4, 4), 1000, 100),
    ((1, 2), (4, 4, 4), 1000, 100),
    ((2, 2, 3), (3, 3, 3), 7, 20),
    ((1,), (6, 5, 6), 3000, 100),
)


@pytest.mark.parametrize(
    "sizes, dims, seed, count", FUZZ_CORPORA, ids=("1", "1,2", "2,2,3", "1-dims6,5,6")
)
def test_fuzz_corpus_consistent_with_block_flag_of_the_pair(sizes, dims, seed, count):
    from cstarpinv.algebra import AlgebraSignature
    from cstarpinv.cli import run_fuzz

    results, summary = run_fuzz(
        dims, count, seed, AlgebraSignature(sizes), ro.GENERATOR_KINDS, 1e-8
    )
    assert summary["inconsistent"] == 0
    records = [record for record, _, _, _ in results]
    assert [r["block_boundary_flag"] for r in records] == [r["boundary_flag"] for r in records]
    # each kind's guarantee, on every unflagged instance
    for r in records:
        if r["boundary_flag"]:
            continue
        triple_a, triple_b = all(r["thm21_verdicts"]), all(r["thm22_verdicts"])
        if r["kind"] in ("rol_holds", "s_adjoint"):
            assert r["rol_verdict"], r
        elif r["kind"] == "thm21_only":
            assert triple_a and not triple_b, r
        elif r["kind"] == "thm22_only":
            assert triple_b and not triple_a, r


def _verdicts(t, s):
    """Everything a verdict reads for the pair, and the law residual."""
    cert = check_corollary(t, s)
    report = block_conditions(t, s)
    ranks = [(mp.rank, mp.cutoff, mp.boundary_flag) for mp in map(moore_penrose, (t, s))]
    verdicts = (
        cert.rol_verdict,
        [c.verdict for c in cert.thm21 + cert.thm22 + cert.greville],
        cert.consistent,
        cert.boundary_flag,
        report.thm21_verdicts(),
        report.thm22_verdicts(),
        report.boundary_flag,
        ranks,
    )
    return verdicts, cert.residual_rol


@pytest.mark.parametrize(
    "sizes, dims", [((1,), (4, 4, 4)), ((1, 2), (4, 4, 4)), ((2, 2, 3), (3, 3, 3))]
)
def test_no_verdict_reads_the_phase_of_a_singular_pair(monkeypatch, sizes, dims):
    # Each singular pair (u_j, v_j) is fixed only up to one unit phase, so
    # rotating every pair by a random phase must leave every verdict alone.
    import cstarpinv.pinv as pinv_module
    from cstarpinv.algebra import AlgebraSignature

    signature = AlgebraSignature(sizes)
    p, m, k = dims
    pairs = [
        gen_instance(
            kind, (p, m, p) if kind == "s_adjoint" else dims, signature=signature, seed=seed
        )
        for kind in ro.GENERATOR_KINDS
        for seed in range(4)
    ]
    expected = [_verdicts(t, s) for t, s in pairs]

    rng = np.random.default_rng(19)
    exact = pinv_module._svd_stack

    def rotated(stack):
        # every factorization is one matrix of a stack through _svd_stack
        u, s, v = exact(stack)
        phase = np.exp(2j * np.pi * rng.random(s.shape))[:, None, :]
        return u * phase, s, v * phase

    monkeypatch.setattr(pinv_module, "_svd_stack", rotated)
    for (t, s), (verdicts, residual) in zip(pairs, expected):
        # fresh copies carry no cached factors
        fresh = [AdjointableOp.from_blocks(op.signature, op.blocks) for op in (t, s)]
        got_verdicts, got_residual = _verdicts(*fresh)
        assert got_verdicts == verdicts
        assert abs(got_residual - residual) <= 1e-12


def test_block_conditions_and_row_block_form_share_one_reduction(monkeypatch):
    # T1, T2, D and D^-1 are formed in canonical_forms._block_row alone:
    # the block conditions and the block-row form each call it once per
    # algebra block, so a second copy of the reduction fails here
    from cstarpinv import AlgebraSignature, projection_onto_range, row_block_form
    from cstarpinv.canonical_forms import _block_row

    calls = []

    def counting(*args):
        calls.append(len(args))
        return _block_row(*args)

    _patch_everywhere(monkeypatch, _block_row, counting)
    for sig, dims in ((SIG12, (4, 4, 4)), (AlgebraSignature((2, 2, 3)), (3, 4, 3))):
        t, s = map(_fresh, gen_instance("generic", dims, signature=sig, seed=3))
        blocks = len(sig.block_sizes)
        block_conditions(t, s)
        assert len(calls) == blocks
        row_block_form(t, projection_onto_range(s))
        assert len(calls) == 2 * blocks
        calls.clear()


@pytest.mark.parametrize("dims, per_block", [((4, 4, 4), 3), ((4, 6, 4), 4)])
def test_block_conditions_factorizations_per_block(monkeypatch, dims, per_block):
    # T, S and TS once each; a tall S (m > k) has a non-square U, so its
    # Ker(S*) basis needs one more factorization
    rng = np.random.default_rng(11)
    p, m, k = dims
    t = random_operator_with_rank(SIG12, p, m, 2, rng)
    s = random_operator_with_rank(SIG12, m, k, 2, rng)
    calls = count_svd_factor(monkeypatch)
    report = block_conditions(t, s)
    assert len(calls) == per_block * len(t.blocks)
    assert not report.boundary_flag


# (signature, dims): s_adjoint is built at (p, m, p), so with k != p a batch
# holds pairs of two block shapes
BATCH_CASES = (((1,), (4, 4, 3)), ((1, 2), (4, 4, 3)), ((2, 2, 3), (3, 3, 2)))


def _bits(value):
    """Everything a pair, certificate or report holds, with floats as their bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return (value.shape, value.tobytes())
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return value


def _pair_bits(pair):
    return _bits(
        (
            pair.t_decision,
            pair.s_decision,
            pair.ts_pinv,
            pair.boundary_flag,
            pair.floor,
            pair.residual_rol,
            pair.thm21,
            pair.thm22,
            pair.greville,
        )
    )


@pytest.mark.parametrize("sizes, dims", BATCH_CASES, ids=("1", "1,2", "2,2,3"))
def test_a_batch_certifies_each_pair_as_a_batch_of_one(sizes, dims):
    from cstarpinv.algebra import AlgebraSignature

    signature = AlgebraSignature(sizes)
    p, m, _ = dims
    requests = [
        (kind, (p, m, p) if kind == "s_adjoint" else dims, seed)
        for seed in range(3)
        for kind in ro.GENERATOR_KINDS
    ]
    batch = ro.generate_instances(requests, signature)
    alone = [gen_instance(kind, d, signature=signature, seed=seed) for kind, d, seed in requests]
    assert [_bits([op.blocks for op in pair]) for pair in batch] == [
        _bits([op.blocks for op in pair]) for pair in alone
    ]
    # certified afresh: all pairs in one batch, and each pair alone
    together = [tuple(map(_fresh, pair)) for pair in batch]
    separate = [tuple(map(_fresh, pair)) for pair in batch]
    reports = ro._block_reports(together, 1e-8)
    for pair, report, (t, s) in zip(ro._pairs(together), reports, separate):
        assert _pair_bits(pair) == _pair_bits(ro._pair(t, s))
        assert _bits(report) == _bits(block_conditions(t, s))
    for (t, s), (t_alone, s_alone) in zip(together, separate):
        for tol in (1e-8, 1e-3):
            alone_cert = check_corollary(t_alone, s_alone, tol)
            assert _bits(check_corollary(t, s, tol)) == _bits(alone_cert)


@pytest.mark.parametrize("sizes, dims", BATCH_CASES, ids=("1", "1,2", "2,2,3"))
def test_fuzz_records_do_not_depend_on_batch_boundaries(monkeypatch, sizes, dims):
    import cstarpinv.cli as cli
    from cstarpinv.algebra import AlgebraSignature

    signature = AlgebraSignature(sizes)
    kinds = ro.GENERATOR_KINDS

    def records(count, seed):
        results, _ = cli.run_fuzz(dims, count, seed, signature, kinds, 1e-8)
        return [{k: v for k, v in r.items() if k != "index"} for r, _, _, _ in results]

    whole = records(15, 40)
    # calls of one kind cycle each, so instance i keeps its kind
    assert whole == records(5, 40) + records(5, 45) + records(5, 50)
    # batches of at most two instances (s_adjoint's larger pairs alone)
    p, m, k = dims
    size = sum(n * n for n in sizes) * (p * m + m * k + p * k)
    monkeypatch.setattr(ro, "BATCH_ELEMENTS", 2 * size)
    generate = ro.generate_instances
    batches = []

    def counting(requests, signature):
        batches.append(len(requests))
        return generate(requests, signature)

    monkeypatch.setattr(ro, "generate_instances", counting)
    assert records(15, 40) == whole
    assert sum(batches) == 15 and max(batches) == 2
