"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Counts and tolerances
are pinned here; each criterion prints ``ACCEPTANCE n: PASS/FAIL``.
"""

import contextlib
import json
import time

import numpy as np

import cstarpinv.cli as cli
from cstarpinv import (
    AdjointableOp,
    adjoint_op,
    check_corollary,
    check_thm21,
    check_thm22,
    col_block_form,
    compose,
    flatten,
    gen_instance,
    lemma1_form,
    moore_penrose,
    pinv_via_gram,
    projection_onto_range,
    row_block_form,
)
from cstarpinv.fileio import write_operator_file
from cstarpinv.operators import off_pattern_mass
from cstarpinv.pinv import pinv_matrix

from conftest import (
    SIG1,
    SIG2,
    SIG12,
    assert_penrose,
    conditioned_operator,
    random_operator,
    random_operator_with_rank,
)


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL — {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS — {description}")


def op1(matrix):
    return AdjointableOp.from_complex_matrix(matrix)


def test_criterion_1_penrose_suite():
    rng = np.random.default_rng(101)
    with criterion(1, "Penrose residuals <= 1e-10 on 1000 random operators, < 60 s"):
        start = time.perf_counter()
        worst = 0.0
        for i in range(1000):
            if i % 5 < 3:
                sig = SIG1
                m = 1 + int(rng.integers(0, 32))
                k = 1 + int(rng.integers(0, 32))
            else:
                sig = SIG2 if i % 2 else SIG12
                m = 1 + int(rng.integers(0, 4))
                k = 1 + int(rng.integers(0, 4))
            if i % 2:
                t = random_operator(sig, m, k, rng)
            else:
                rank = 1 + int(rng.integers(0, min(m, k)))
                t = random_operator_with_rank(sig, m, k, rank, rng)
            result = moore_penrose(t)
            worst = max(worst, max(result.penrose_residuals))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-10, worst
        assert elapsed < 60.0, elapsed
        print(f"  worst residual {worst:.2e}, elapsed {elapsed:.1f}s", end="  ")


def test_criterion_2_lemma1():
    rng = np.random.default_rng(102)
    with criterion(2, "Lemma-1.1 form: reconstruction <= 1e-10, reassembled pinv <= 1e-9"):
        for i in range(200):
            sig = (SIG1, SIG2, SIG12)[i % 3]
            m = 2 + int(rng.integers(0, 3))
            k = 2 + int(rng.integers(0, 3))
            rank = 1 + int(rng.integers(0, min(m, k)))  # rank-deficient included
            t = conditioned_operator(sig, m, k, rank, rng)
            form = lemma1_form(t)
            assert form.reconstruction_residual <= 1e-10
            reference = flatten(moore_penrose(t).pseudoinverse)
            err = np.linalg.norm(flatten(form.assemble_pinv()) - reference, 2)
            assert err <= 1e-9 * (1 + np.linalg.norm(reference, 2))


def test_criterion_3_lemma2_block_forms():
    rng = np.random.default_rng(103)
    with criterion(3, "Lemma-1.2 forms: D invertible, formula pinvs <= 1e-9, 200 pairs each"):
        for i in range(200):
            sig = (SIG1, SIG2, SIG12)[i % 3]
            m = 2 + int(rng.integers(0, 3))
            k = 2 + int(rng.integers(0, 3))
            rank = 1 + int(rng.integers(0, min(m, k)))
            t = conditioned_operator(sig, m, k, rank, rng)

            p = projection_onto_range(random_operator(sig, k, 1 + int(rng.integers(0, k)), rng))
            row = row_block_form(t, p)
            for d in row.D:
                eigs = np.linalg.eigvalsh(d)
                assert eigs.min() > 0
                d_inv = np.linalg.solve(d, np.eye(d.shape[0]))
                assert np.linalg.norm(d @ d_inv - np.eye(d.shape[0]), 2) <= 1e-10
            assert row.residual_vs_pinv <= 1e-9

            q = projection_onto_range(random_operator(sig, m, 1 + int(rng.integers(0, m)), rng))
            col = col_block_form(t, q)
            for g in col.Dfrak:
                assert np.linalg.eigvalsh(g).min() > 0
            assert col.residual_vs_pinv <= 1e-9


def test_criterion_4_gram_route():
    rng = np.random.default_rng(104)
    with criterion(4, "Gram route: T*(TT*)^+ <= 1e-9 (200); (TT*)^+=(T*)^+T^+ <= 1e-9 (500)"):
        for i in range(200):
            sig = (SIG1, SIG2, SIG12)[i % 3]
            m = 2 + int(rng.integers(0, 3))
            k = 2 + int(rng.integers(0, 3))
            rank = 1 + int(rng.integers(0, min(m, k)))
            t = conditioned_operator(sig, m, k, rank, rng)
            lhs = flatten(pinv_via_gram(t))
            rhs = flatten(moore_penrose(t).pseudoinverse)
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-9 * (1 + np.linalg.norm(rhs, 2))
        for i in range(500):
            sig = (SIG1, SIG2, SIG12)[i % 3]
            m = 2 + int(rng.integers(0, 3))
            k = 2 + int(rng.integers(0, 3))
            rank = 1 + int(rng.integers(0, min(m, k)))
            t = conditioned_operator(sig, m, k, rank, rng)
            gram = compose(t, adjoint_op(t))
            lhs = flatten(moore_penrose(gram).pseudoinverse)
            tp = flatten(moore_penrose(t).pseudoinverse)
            rhs = tp.conj().T @ tp
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-9 * (1 + np.linalg.norm(lhs, 2))


def _collect_unflagged(count, kinds, seed0, signatures=(SIG1,), max_attempts=None):
    """Generate pairs until ``count`` unflagged certificates are collected."""
    dims_cycle = ((4, 4, 4), (5, 4, 3), (3, 4, 5), (5, 5, 5))
    max_attempts = max_attempts or count * 6
    collected = []
    attempt = 0
    while len(collected) < count and attempt < max_attempts:
        kind = kinds[attempt % len(kinds)]
        sig = signatures[attempt % len(signatures)]
        dims = dims_cycle[attempt % len(dims_cycle)]
        if kind == "s_adjoint":
            dims = (dims[0], dims[1], dims[0])
        t, s = gen_instance(kind, dims, signature=sig, seed=seed0 + attempt)
        cert = check_corollary(t, s)
        attempt += 1
        if not cert.boundary_flag:
            collected.append((t, s, cert))
    assert len(collected) == count, f"only {len(collected)} unflagged in {attempt} attempts"
    return collected


def test_criterion_5_thm21_equivalence():
    with criterion(5, "triple-A equivalence on 500 unflagged pairs + 100 constructed"):
        for _, _, cert in _collect_unflagged(500, ("generic",), 50_000, (SIG1, SIG2)):
            verdicts = {c.verdict for c in cert.thm21}
            assert len(verdicts) == 1, [c.residual for c in cert.thm21]
        for i in range(100):
            t, s = gen_instance("thm21_only", (4, 4, 4), seed=51_000 + i)
            assert all(c.verdict for c in check_thm21(t, s))
            assert not all(c.verdict for c in check_thm22(t, s))


def test_criterion_6_thm22_equivalence():
    with criterion(6, "triple-B equivalence on 500 unflagged pairs + 100 constructed"):
        for _, _, cert in _collect_unflagged(500, ("generic",), 60_000, (SIG1, SIG2)):
            verdicts = {c.verdict for c in cert.thm22}
            assert len(verdicts) == 1, [c.residual for c in cert.thm22]
        for i in range(100):
            t, s = gen_instance("thm22_only", (4, 4, 4), seed=61_000 + i)
            assert all(c.verdict for c in check_thm22(t, s))
            assert not all(c.verdict for c in check_thm21(t, s))


def test_criterion_7_corollary(tmp_path, capsys):
    with criterion(7, "corollary consistency on 1000 unflagged mixed pairs + worked pairs"):
        kinds = ("generic", "rol_holds", "thm21_only", "thm22_only", "s_adjoint")
        for _, _, cert in _collect_unflagged(1000, kinds, 70_000):
            assert cert.consistent

        # worked pair from the spec sheet: Ran(S) = Ran(T*) = span{(1,1)},
        # so the law holds; values verified by Penrose substitution
        t, s = op1([[1, 1], [0, 0]]), op1([[1, 0], [1, 0]])
        ts = flatten(compose(t, s))
        ts_pinv = flatten(moore_penrose(compose(t, s)).pseudoinverse)
        product = flatten(moore_penrose(s).pseudoinverse) @ flatten(
            moore_penrose(t).pseudoinverse
        )
        np.testing.assert_allclose(ts_pinv, [[0.5, 0], [0, 0]], atol=1e-14)
        np.testing.assert_allclose(product, [[0.5, 0], [0, 0]], atol=1e-14)
        assert_penrose(ts, ts_pinv, tol=1e-14)
        cert = check_corollary(t, s)
        assert cert.rol_verdict and cert.consistent

        # genuine failure pair: law fails, every condition group false,
        # certificate still consistent, cmd_check exits 1
        t, s = op1([[1, 0], [0, 0]]), op1([[1, 0], [1, 0]])
        ts = flatten(compose(t, s))
        ts_pinv = flatten(moore_penrose(compose(t, s)).pseudoinverse)
        product = flatten(moore_penrose(s).pseudoinverse) @ flatten(
            moore_penrose(t).pseudoinverse
        )
        np.testing.assert_allclose(ts_pinv, [[1, 0], [0, 0]], atol=1e-14)
        np.testing.assert_allclose(product, [[0.5, 0], [0, 0]], atol=1e-14)
        assert_penrose(ts, ts_pinv, tol=1e-14)
        cert = check_corollary(t, s)
        assert not cert.rol_verdict and cert.consistent
        assert not any(c.verdict for c in cert.thm21 + cert.thm22 + cert.greville)

        path_t, path_s = str(tmp_path / "T.json"), str(tmp_path / "S.json")
        write_operator_file(path_t, t)
        write_operator_file(path_s, s)
        code = cli.main(["check", path_t, path_s])
        capsys.readouterr()
        assert code == 1


def test_criterion_8_module_structure():
    rng = np.random.default_rng(108)
    with criterion(8, "module pattern preserved; module verdicts match flattened verdicts"):
        checked_ops = 0
        for i in range(100):
            sig = SIG2 if i % 2 else SIG12
            dims = ((3, 3, 3), (4, 3, 2), (2, 3, 4))[i % 3]
            t, s = gen_instance("generic", dims, signature=sig, seed=80_000 + i)
            for op in (t, s):
                mp = pinv_matrix(flatten(op))
                off = off_pattern_mass(mp.pinv, sig, (op.cols, op.rows))
                assert off <= 1e-10 * (1 + np.linalg.norm(mp.pinv, 2))
                checked_ops += 1

            cert_module = check_corollary(t, s)
            cert_flat = check_corollary(
                op1(flatten(t)), op1(flatten(s))
            )
            assert cert_module.rol_verdict == cert_flat.rol_verdict
            assert [c.verdict for c in cert_module.thm21] == [
                c.verdict for c in cert_flat.thm21
            ]
            assert [c.verdict for c in cert_module.thm22] == [
                c.verdict for c in cert_flat.thm22
            ]
            assert [c.verdict for c in cert_module.greville] == [
                c.verdict for c in cert_flat.greville
            ]
        assert checked_ops == 200


def test_criterion_9_fuzz_determinism(tmp_path, capsys, monkeypatch):
    with criterion(9, "fuzz --count 200 --seed 11 is byte-identical run to run"):
        monkeypatch.chdir(tmp_path)
        argv = ["fuzz", "--count", "200", "--seed", "11", "--machine"]
        outputs = []
        for _ in range(3):
            code = cli.main(argv)
            outputs.append(capsys.readouterr().out)
            assert code == 0
        assert outputs[0] == outputs[1] == outputs[2]
        payload = json.loads(outputs[0])
        assert payload["summary"]["count"] == 200
        assert payload["summary"]["inconsistent"] == 0
