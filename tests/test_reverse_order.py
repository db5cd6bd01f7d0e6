import dataclasses
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
)
from cstarpinv.operators import op_norm

from conftest import (
    SIG1,
    SIG2,
    SIG12,
    assert_penrose,
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
    # invertible S: block verdicts must match the theorem-level verdicts
    for i in range(20):
        t, s = gen_instance("generic", (4, 4, 4), ranks=(None, 4), seed=40 + i)
        cert = check_corollary(t, s)
        report = block_conditions(t, s)
        if cert.boundary_flag or report.boundary_flag:
            continue
        assert report.thm21_verdicts() == tuple(c.verdict for c in cert.thm21)
        assert report.thm22_verdicts() == tuple(c.verdict for c in cert.thm22)


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

    t, s = gen_instance("rol_holds", (5, 5, 5), ranks=(2, 2), seed=2)
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


def test_gen_instance_validation():
    with pytest.raises(ConformabilityError):
        gen_instance("s_adjoint", (3, 4, 2), seed=0)  # k != p
    with pytest.raises(ConformabilityError):
        gen_instance("generic", (3, 4, 2), ranks=(5, 1), seed=0)
    with pytest.raises(ConformabilityError):
        gen_instance("generic", (0, 4, 2), seed=0)
    with pytest.raises(ValueError):
        gen_instance("bogus", (3, 3, 3), seed=0)
    with pytest.raises(ConformabilityError):
        gen_instance("thm22_only", (1, 1, 1), seed=0)


def _count_thm21_attempts(monkeypatch):
    """Patch the thm21_only builder to log each attempt; returns the log."""
    attempts = []
    build = ro._build_thm21_only

    def counting(*args):
        attempts.append(args)
        return build(*args)

    monkeypatch.setattr(ro, "_build_thm21_only", counting)
    return attempts


@pytest.mark.parametrize("sig, most", ((SIG1, 1.15), (SIG12, 1.05)), ids=("1", "1,2"))
def test_thm21_only_attempts_per_instance(monkeypatch, sig, most):
    # only rank pairs that break triple B are drawn; the rejections left are
    # attempts whose rank decisions are boundary-flagged noise (2.36 and
    # 1.99 attempts per instance while every rank pair was drawn)
    attempts = _count_thm21_attempts(monkeypatch)
    seeds = range(1000, 1400)
    for seed in seeds:
        gen_instance("thm21_only", (4, 4, 4), signature=sig, seed=seed)
    assert len(attempts) / len(seeds) <= most


def test_thm21_only_without_a_breaking_rank_pair_fails_at_once(monkeypatch):
    # rank P1 >= 1 and rank P1 < rank S need rank S >= 2
    attempts = _count_thm21_attempts(monkeypatch)
    with pytest.raises(GenerationError):
        gen_instance("thm21_only", (4, 4, 4), ranks=(None, 1), seed=0)
    with pytest.raises(GenerationError):
        gen_instance("thm21_only", (4, 4, 1), seed=0)
    assert len(attempts) == 2
    t, s = gen_instance("thm21_only", (4, 4, 4), ranks=(None, 2), seed=0)
    assert ro._pair(t, s).s_decision.rank == 2
    assert all(c.verdict for c in check_thm21(t, s))
    assert not all(c.verdict for c in check_thm22(t, s))


def test_gen_instance_retry_exhaustion(monkeypatch):
    monkeypatch.setitem(
        gen_instance.__globals__, "_build_generic", lambda *args: None
    )
    with pytest.raises(GenerationError):
        gen_instance("generic", (3, 3, 3), seed=0)


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


def test_fuzz_factors_each_matrix_once(monkeypatch):
    from cstarpinv.cli import run_fuzz
    from cstarpinv.pinv import svd_factor

    calls = []

    def counting(matrix):
        calls.append(np.shape(matrix))
        return svd_factor(matrix)

    _patch_everywhere(monkeypatch, svd_factor, counting)
    count = 100
    _, summary = run_fuzz((4, 4, 4), count, 1000, SIG1, ro.GENERATOR_KINDS, 1e-8)
    assert summary["inconsistent"] == 0
    # 13.21 per instance when every caller factored T, S and TS afresh,
    # 7.37 while the block conditions factored T1 S1 again, 6.37 while
    # thm21_only drew rank pairs that cannot break triple B, and 5.09 while
    # the block conditions factored a projector for Ker(S*) that S's square
    # U already spans
    assert len(calls) / count <= 4.5


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
    _, summary = run_fuzz((4, 4, 4), count, 1000, SIG12, ro.GENERATOR_KINDS, 1e-8)
    assert summary["inconsistent"] == 0
    # 86.1 norm LAPACK calls per instance while every matrix of every
    # residual took its own np.linalg.norm; 12.9 with one batch per shape
    assert len(calls) / count <= 14.0


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
    exact = pinv_module.svd_factor

    def rotated(matrix):
        f = exact(matrix)
        phase = np.exp(2j * np.pi * rng.random(f.singular_values.size))
        return pinv_module.SvdFactors(f.U * phase, f.singular_values, f.V * phase)

    monkeypatch.setattr(pinv_module, "svd_factor", rotated)
    for (t, s), (verdicts, residual) in zip(pairs, expected):
        # fresh copies carry no cached factors
        fresh = [AdjointableOp.from_blocks(op.signature, op.blocks) for op in (t, s)]
        got_verdicts, got_residual = _verdicts(*fresh)
        assert got_verdicts == verdicts
        assert abs(got_residual - residual) <= 1e-12


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
