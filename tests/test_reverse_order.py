import dataclasses

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

from conftest import SIG1, SIG2, assert_penrose, random_operator


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
    # TS has rank 1 with one rounding-noise value in the boundary band, and
    # T1 S1 keeps that noise as rank: d1 reads 0.5 while triple B holds to
    # ~1e-15.  An unflagged report must agree with both triples.
    t, s = gen_instance("thm22_only", (4, 4, 4), seed=23000143)
    report = block_conditions(t, s)  # before the certificate caches the pair
    cert = check_corollary(t, s)
    assert cert.boundary_flag
    assert report.boundary_flag or (
        report.thm21_verdicts() == tuple(c.verdict for c in cert.thm21)
        and report.thm22_verdicts() == tuple(c.verdict for c in cert.thm22)
    )


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


def test_fuzz_factors_each_matrix_once(monkeypatch):
    import sys

    from cstarpinv.cli import run_fuzz
    from cstarpinv.pinv import svd_factor

    calls = []

    def counting(matrix):
        calls.append(np.shape(matrix))
        return svd_factor(matrix)

    # every module that binds the name, as the package imports it by name
    for name, module in list(sys.modules.items()):
        if name.startswith("cstarpinv") and getattr(module, "svd_factor", None) is svd_factor:
            monkeypatch.setattr(module, "svd_factor", counting)
    count = 100
    _, summary = run_fuzz((4, 4, 4), count, 1000, SIG1, ro.GENERATOR_KINDS, 1e-8)
    assert summary["inconsistent"] == 0
    # 13.21 per instance when every caller factored T, S and TS afresh
    assert len(calls) / count <= 8.0
