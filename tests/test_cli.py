import dataclasses
import json
import sys

import numpy as np
import pytest

import cstarpinv.cli as cli
from cstarpinv import AdjointableOp, AlgebraSignature, check_corollary, flatten
from cstarpinv.fileio import (
    file_digest,
    operator_from_dict,
    operator_json,
    operator_to_dict,
    read_operator_file,
    write_operator_file,
)
from cstarpinv.errors import CstarPinvError, OperatorFileError
from cstarpinv.reverse_order import (
    GENERATOR_KINDS,
    certificate_to_dict,
    gen_instance,
)

from conftest import SIG12, random_operator


def op1(matrix):
    return AdjointableOp.from_complex_matrix(matrix)


def write(tmp_path, name, op):
    path = tmp_path / name
    write_operator_file(path, op)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_operator_file_roundtrip(tmp_path, rng):
    op = random_operator(SIG12, 2, 3, rng)
    path = write(tmp_path, "op.json", op)
    back = read_operator_file(path)
    assert np.array_equal(flatten(back), flatten(op))
    # the serialized text itself round-trips byte for byte
    text = operator_json(op)
    again = operator_json(operator_from_dict(json.loads(text)))
    assert text == again


def test_operator_file_validation():
    good = operator_to_dict(op1([[1, 0], [0, 1]]))
    bad = dict(good)
    bad["entries"] = good["entries"][:-1]
    with pytest.raises(OperatorFileError) as err:
        operator_from_dict(bad)
    assert "entries" in str(err.value)

    with pytest.raises(OperatorFileError) as err:
        operator_from_dict({"signature": [1], "rows": 1, "cols": 1})
    assert "entries" in str(err.value)

    bad = json.loads(json.dumps(good))
    bad["entries"][0][0][0] = [1.0]  # not a pair
    with pytest.raises(OperatorFileError) as err:
        operator_from_dict(bad)
    assert "entries[0]" in str(err.value)

    bad = json.loads(json.dumps(good))
    bad["signature"] = [0]
    with pytest.raises(OperatorFileError) as err:
        operator_from_dict(bad)
    assert "signature" in str(err.value)


def test_cmd_pinv_identity(tmp_path, capsys):
    ident = AdjointableOp.identity(AlgebraSignature((1,)), 2)
    path = write(tmp_path, "identity.json", ident)
    out_path = str(tmp_path / "pinv.json")
    code, out, _ = run(capsys, "pinv", path, "--out", out_path)
    assert code == 0
    assert "rank: 2" in out
    assert "boundary flag: False" in out
    back = read_operator_file(out_path)
    np.testing.assert_allclose(flatten(back), np.eye(2), atol=1e-14)


def test_cmd_pinv_zero(tmp_path, capsys):
    path = write(tmp_path, "zero.json", AdjointableOp.zero(AlgebraSignature((1,)), 2, 2))
    out_path = str(tmp_path / "out.json")
    code, out, _ = run(capsys, "pinv", path, "--out", out_path)
    assert code == 0
    assert "rank: 0" in out
    assert np.all(flatten(read_operator_file(out_path)) == 0)


def test_cmd_pinv_malformed(tmp_path, capsys):
    doc = operator_to_dict(op1([[1, 0], [0, 1]]))
    doc["entries"] = doc["entries"][:-1]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "pinv", str(path))
    assert code == 2
    assert "entries" in err
    code, _, err = run(capsys, "pinv", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize("target", ["missing/pinv.json", ""], ids=("no-parent", "directory"))
def test_cmd_pinv_unwritable_out_exits_2(tmp_path, capsys, target):
    path = write(tmp_path, "identity.json", AdjointableOp.identity(AlgebraSignature((1,)), 2))
    out_path = str(tmp_path / target)
    code, out, err = run(capsys, "pinv", path, "--out", out_path)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and out_path in err


def test_cmd_pinv_module_signature(tmp_path, capsys, rng):
    op = random_operator(SIG12, 2, 3, rng)
    path = write(tmp_path, "mod.json", op)
    out_path = str(tmp_path / "modpinv.json")
    code, out, _ = run(capsys, "pinv", path, "--out", out_path)
    assert code == 0
    assert "signature: [1, 2]" in out
    back = read_operator_file(out_path)
    assert back.signature == SIG12 and (back.rows, back.cols) == (3, 2)
    residual = np.linalg.norm(flatten(op) @ flatten(back) @ flatten(op) - flatten(op), 2)
    assert residual <= 1e-10 * (1 + np.linalg.norm(flatten(op), 2))


def test_cmd_check_module_signature(tmp_path, capsys, rng):
    from cstarpinv import adjoint_op

    t = random_operator(SIG12, 3, 2, rng)
    path_t = write(tmp_path, "Tm.json", t)
    path_s = write(tmp_path, "Sm.json", adjoint_op(t))
    code, out, _ = run(capsys, "check", path_t, path_s)
    assert code == 0
    assert "reverse order law: holds" in out


def test_cmd_pinv_bad_tol(tmp_path, capsys):
    path = write(tmp_path, "op.json", op1([[1, 0], [0, 1]]))
    code, _, err = run(capsys, "pinv", path, "--tol", "nope")
    assert code == 2
    code, _, _ = run(capsys, "pinv", path, "--tol", "1e-6")
    assert code == 0


def test_cmd_check_inverse_pair(tmp_path, capsys, rng):
    t = random_operator(AlgebraSignature((1,)), 3, 3, rng)
    t_inv = AdjointableOp.from_complex_matrix(np.linalg.inv(flatten(t)))
    path_t = write(tmp_path, "T.json", t)
    path_s = write(tmp_path, "S.json", t_inv)
    code, out, _ = run(capsys, "check", path_t, path_s)
    assert code == 0
    assert "reverse order law: holds" in out
    assert "consistent: True" in out


def test_cmd_check_failure_pair(tmp_path, capsys):
    path_t = write(tmp_path, "T.json", op1([[1, 0], [0, 0]]))
    path_s = write(tmp_path, "S.json", op1([[1, 0], [1, 0]]))
    code, out, _ = run(capsys, "check", path_t, path_s)
    assert code == 1
    assert "reverse order law: fails" in out
    assert "consistent: True" in out


CHECK_GOLDEN = {
    "holds": (
        0,
        """\
T: T.json (sha256 4cb54d94e81ecb78...)
S: S.json (sha256 bb6961fdfbea3e47...)
tolerance: 1e-08
reverse order law: holds  residual: 0.0
thm21: (1) ok r=0.000e+00, (2) ok r=0.000e+00, (3) ok r=0.000e+00
thm22: (1) ok r=0.000e+00, (2) ok r=0.000e+00, (3) ok r=0.000e+00
greville inclusions: (1) ok r=0.000e+00, (2) ok r=0.000e+00
consistent: True
boundary flag: False
""",
    ),
    "fails": (
        1,
        """\
T: T.json (sha256 0c8e5726991a1945...)
S: S.json (sha256 ff278acda0576a54...)
tolerance: 1e-08
reverse order law: fails  residual: 0.2500000000000001
thm21: (1) FAIL r=2.500e-01, (2) FAIL r=3.536e-01, (3) FAIL r=2.500e-01
thm22: (1) FAIL r=2.500e-01, (2) FAIL r=4.142e-01, (3) FAIL r=2.500e-01
greville inclusions: (1) FAIL r=3.536e-01, (2) FAIL r=4.142e-01
consistent: True
boundary flag: False
""",
    ),
}


@pytest.mark.parametrize("case", sorted(CHECK_GOLDEN))
def test_cmd_check_human_output_is_pinned(tmp_path, capsys, monkeypatch, case):
    # 2x2 operators over [1,2]: one block matrix of size 2 and one of size 4
    def op(b1, b2):
        return AdjointableOp.from_blocks(SIG12, [np.array(b1, complex), np.array(b2, complex)])

    if case == "holds":
        t = op([[2, 0], [0, 1]], np.diag([2, 1, 1, 0.5]))
        s = op([[1, 0], [0, 4]], np.diag([1, 1, 1, 4]))
    else:
        t = op([[1, 0], [0, 0]], np.kron([[1, 0], [0, 0]], np.eye(2)))
        s = op([[1, 0], [1, 0]], np.kron([[1, 0], [1, 0]], np.eye(2)))
    monkeypatch.chdir(tmp_path)
    write_operator_file("T.json", t)
    write_operator_file("S.json", s)
    assert run(capsys, "check", "T.json", "S.json") == (*CHECK_GOLDEN[case], "")


def test_cmd_check_machine_roundtrip(tmp_path, capsys):
    path_t = write(tmp_path, "T.json", op1([[1, 0], [0, 0]]))
    path_s = write(tmp_path, "S.json", op1([[1, 0], [1, 0]]))
    code, out, _ = run(capsys, "check", path_t, path_s, "--machine")
    assert code == 1
    payload = json.loads(out)
    assert payload["format"] == "cstarpinv-certificate/1"
    assert len(payload["input_digests"]["T"]) == 64
    # the library's certificate of the pair, serialized with the files' digests
    direct = check_corollary(op1([[1, 0], [0, 0]]), op1([[1, 0], [1, 0]]))
    digests = {"T": file_digest(path_t), "S": file_digest(path_s)}
    assert payload == certificate_to_dict(direct, cli.__version__, digests)


def test_cmd_check_reads_each_operator_file_once(tmp_path, capsys, monkeypatch):
    import builtins

    import cstarpinv.fileio as fileio

    path_t = write(tmp_path, "T.json", op1([[1, 0], [0, 0]]))
    path_s = str(tmp_path / "S.json")
    # CRLF line endings: the digest is that of the bytes on disk
    with open(path_s, "wb") as fh:
        fh.write(operator_json(op1([[1, 0], [1, 0]])).replace("\n", "\r\n").encode())
    digests = {"T": file_digest(path_t), "S": file_digest(path_s)}
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return builtins.open(file, *args, **kwargs)

    monkeypatch.setattr(fileio, "open", counting_open, raising=False)
    for flags in ((), ("--machine",)):
        opened.clear()
        code, out, _ = run(capsys, "check", path_t, path_s, *flags)
        assert code == 1
        assert sorted(opened) == sorted([path_t, path_s])
        if flags:
            assert json.loads(out)["input_digests"] == digests
        else:
            assert f"(sha256 {digests['S'][:16]}...)" in out


def test_cmd_check_shape_mismatch(tmp_path, capsys, rng):
    path_t = write(tmp_path, "T.json", random_operator(AlgebraSignature((1,)), 2, 2, rng))
    path_s = write(tmp_path, "S.json", random_operator(AlgebraSignature((2,)), 2, 2, rng))
    code, _, err = run(capsys, "check", path_t, path_s)
    assert code == 2
    assert "signature" in err
    # same signature, but T's 3 columns do not meet S's 2 rows: compose's refusal
    path_t = write(tmp_path, "T.json", random_operator(AlgebraSignature((1,)), 2, 3, rng))
    path_s = write(tmp_path, "S.json", random_operator(AlgebraSignature((1,)), 2, 3, rng))
    code, out, err = run(capsys, "check", path_t, path_s, "--machine")
    assert (code, out, err) == (2, "", "error: inner dimensions differ: 2x3 times 2x3\n")


def test_cmd_check_boundary_exit(tmp_path, capsys):
    # a singular value parked inside the flag band forces exit 3
    t = op1([[1, 0], [0, 3e-15]])
    path_t = write(tmp_path, "T.json", t)
    path_s = write(tmp_path, "S.json", AdjointableOp.identity(AlgebraSignature((1,)), 2))
    code, out, _ = run(capsys, "check", path_t, path_s)
    assert code == 3
    assert "boundary flag: True" in out


def test_cmd_fuzz_validation(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "fuzz", "--count", "0", "--seed", "1")
    assert code == 2
    code, _, err = run(capsys, "fuzz", "--count", "5", "--seed", "1", "--dims", "0,4,4")
    assert code == 2
    code, _, err = run(capsys, "fuzz", "--count", "5", "--seed", "1", "--dims", "4,4")
    assert code == 2
    code, _, err = run(capsys, "fuzz", "--count", "5", "--seed", "1", "--kinds", "nope")
    assert code == 2
    code, _, err = run(capsys, "fuzz", "--count", "5", "--seed", "1", "--signature", "1,x")
    assert code == 2
    # thm21_only needs rank S >= 2, so m, k >= 2: the generator's own message,
    # raised at the first thm21_only instance, before anything is printed
    code, out, err = run(
        capsys, "fuzz", "--count", "5", "--seed", "1", "--dims", "4,4,1",
        "--kinds", "generic,thm21_only",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: thm21_only requires m >= 2 and k >= 2")
    assert not tmp_path.joinpath("fuzz-failures").exists()


KIND_DIMS = [
    (kind, (p, m, k))
    for kind in GENERATOR_KINDS
    for p in (1, 2, 3)
    for m in (1, 2, 3)
    for k in (1, 2, 3)
]


@pytest.mark.parametrize(
    "kind, dims", KIND_DIMS, ids=[f"{kind}-{p},{m},{k}" for kind, (p, m, k) in KIND_DIMS]
)
def test_cmd_fuzz_refuses_exactly_what_gen_instance_cannot_build(
    tmp_path, capsys, monkeypatch, kind, dims
):
    p, m, k = dims
    try:
        gen_instance(kind, (p, m, p) if kind == "s_adjoint" else dims, seed=0)
        message = None
    except CstarPinvError as exc:
        message = f"error: {exc}\n"
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        capsys, "fuzz", "--kinds", kind, "--dims", f"{p},{m},{k}", "--count", "1", "--seed", "0"
    )
    if message is None:
        assert (code, err) == (0, "")
    else:
        assert (code, out, err) == (2, "", message)


def test_main_reuses_one_parser_and_prints_what_a_fresh_one_prints(
    tmp_path, capsys, monkeypatch
):
    from cstarpinv import adjoint_op

    monkeypatch.chdir(tmp_path)
    t = random_operator(SIG12, 2, 3, np.random.default_rng(9))
    path_t, path_s = write(tmp_path, "T.json", t), write(tmp_path, "S.json", adjoint_op(t))
    calls = (
        ["pinv", path_t],
        ["check", path_t, path_s, "--machine"],
        ["fuzz", "--count", "2", "--seed", "1", "--dims", "0,4,4"],
        ["fuzz", "--count", "x", "--seed", "1"],  # refused by argparse itself
        ["fuzz", "--count", "6", "--seed", "5", "--machine"],
    )

    def outputs():
        results = []
        for argv in calls:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    cli._parser.cache_clear()
    reused = outputs()
    assert (cli._parser.cache_info().misses, cli._parser.cache_info().hits) == (1, 4)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert outputs() == reused
    assert [code for code, _, _ in reused] == [0, 0, 2, 2, 0]
    assert cli.build_parser() is not cli.build_parser()


def test_cmd_fuzz_s_adjoint(tmp_path, capsys, monkeypatch):
    # the law always holds for S = T*: 100/100 all-true
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys,
        "fuzz", "--count", "100", "--seed", "42", "--kinds", "s_adjoint", "--machine",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["inconsistent"] == 0
    assert all(r["rol_verdict"] for r in payload["instances"])


def test_cmd_fuzz_generic_batch(tmp_path, capsys, monkeypatch):
    # a large generic batch must finish with zero unflagged inconsistencies;
    # any hit would be a bug reproducer dumped for replay
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys,
        "fuzz", "--count", "1000", "--seed", "7", "--kinds", "generic",
    )
    assert code == 0
    assert "unflagged inconsistencies: 0" in out
    assert not (tmp_path / "fuzz-failures").exists()


def test_cmd_fuzz_module_signature(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys,
        "fuzz", "--count", "10", "--seed", "3", "--signature", "2",
        "--dims", "3,3,3",
    )
    assert code == 0
    assert "unflagged inconsistencies: 0" in out
    code, _, err = run(capsys, "fuzz", "--count", "5", "--seed", "1", "--signature", "0")
    assert code == 2


def test_cmd_fuzz_machine_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["fuzz", "--count", "30", "--seed", "11", "--machine"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical run to run
    payload = json.loads(out1)
    assert payload["summary"]["count"] == 30
    assert payload["summary"]["inconsistent"] == 0


def _misreporting_check(t, s, tol=1e-8):
    """A checker that misreports consistency, so the dump path runs."""
    cert = check_corollary(t, s, tol)
    if not cert.boundary_flag:
        cert = dataclasses.replace(cert, consistent=False)
    return cert


def test_fuzz_dump_and_replay(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_corollary", _misreporting_check)
    records, summary = cli.run_fuzz(
        (4, 4, 4), 6, 123, AlgebraSignature((1,)), ("generic",), 1e-8
    )
    assert summary["inconsistent"] >= 1

    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys,
        "fuzz",
        "--count",
        "6",
        "--seed",
        "123",
        "--kinds",
        "generic",
        "--dump-dir",
        "dumps",
    )
    assert code == 1
    dumped = sorted((tmp_path / "dumps").glob("inst*_T.json"))
    assert dumped
    # replay: the dumped pair reproduces the same certificate byte for byte
    stem = str(dumped[0])[: -len("_T.json")]
    monkeypatch.undo()
    code1, out1, _ = run(capsys, "check", stem + "_T.json", stem + "_S.json", "--machine")
    code2, out2, _ = run(capsys, "check", stem + "_T.json", stem + "_S.json", "--machine")
    assert out1 == out2
    assert code1 == code2


def test_fuzz_dump_dir_that_is_a_file_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_corollary", _misreporting_check)
    blocker = tmp_path / "dumps"
    blocker.write_text("")
    argv = ("fuzz", "--count", "6", "--seed", "123", "--kinds", "generic")
    code, out, err = run(capsys, *argv, "--dump-dir", str(blocker))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(blocker) in err


def test_console_entrypoint_subprocess(tmp_path, child_env):
    import subprocess

    result = subprocess.run(
        [sys.executable, "-m", "cstarpinv", "--version"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env,
    )
    assert result.returncode == 0
    assert "cstarpinv" in result.stdout


def test_fuzz_determinism_across_processes(tmp_path, child_env):
    import subprocess

    argv = [
        sys.executable,
        "-m",
        "cstarpinv",
        "fuzz",
        "--count",
        "15",
        "--seed",
        "77",
        "--machine",
    ]
    runs = [
        subprocess.run(argv, capture_output=True, cwd=tmp_path, env=child_env, timeout=120)
        for _ in range(2)
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    payload = json.loads(runs[0].stdout)
    assert payload["format"] == "cstarpinv-fuzz/1"
    assert len(payload["instances"]) == 15
    assert runs[0].stdout == runs[1].stdout


def test_fuzz_determinism_across_blas_threads(tmp_path, child_env):
    import subprocess

    argv = [
        sys.executable,
        "-m",
        "cstarpinv",
        "fuzz",
        "--signature",
        "2,2,3",
        "--dims",
        "5,6,5",
        "--count",
        "30",
        "--seed",
        "11",
        "--machine",
    ]
    runs = [
        subprocess.run(
            argv,
            capture_output=True,
            cwd=tmp_path,
            env=dict(child_env, OPENBLAS_NUM_THREADS=threads),
            timeout=120,
        )
        for threads in ("1", "2")
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    payload = json.loads(runs[0].stdout)
    assert payload["format"] == "cstarpinv-fuzz/1"
    assert len(payload["instances"]) == 30
    assert runs[0].stdout == runs[1].stdout


def test_cmd_pinv_non_convergence_exit(tmp_path, capsys, monkeypatch):
    import cstarpinv.pinv as pinv_module

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    rng = np.random.default_rng(8)
    path = write(tmp_path, "T.json", op1(rng.standard_normal((8, 8))))
    monkeypatch.setattr(pinv_module.np.linalg, "svd", failing)
    code, _, err = run(capsys, "pinv", path)
    assert code == 2
    assert "did not converge" in err


# Signature [1025] has block size 1025, so two rows give a 2050x2050 block
# matrix, just over the 2048 limit; without the guard that is a 67 MB matrix.
OVERSIZED_SIGNATURE = AlgebraSignature((1025,))


def test_block_size_limit_boundary():
    from cstarpinv.errors import SizeLimitError
    from cstarpinv.operators import MAX_BLOCK_SIDE, check_block_size

    assert MAX_BLOCK_SIDE == 2048
    check_block_size(AlgebraSignature((1024,)), 2, 2)  # exactly 2048: allowed
    check_block_size(AlgebraSignature((32, 1)), 62, 62)  # 62 * (32 + 1) = 2046
    with pytest.raises(SizeLimitError, match="2050x1025"):
        check_block_size(OVERSIZED_SIGNATURE, 2, 1)
    # many small blocks add up: 2049 blocks of size 1 at one row
    with pytest.raises(SizeLimitError, match="2049x2049"):
        check_block_size(AlgebraSignature((1,) * 2049), 1, 1)


def test_cmd_fuzz_rejects_oversized_dims(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_fuzz", lambda *a, **k: pytest.fail("size guard missed"))
    code, out, err = run(
        capsys, "fuzz", "--signature", "1025", "--dims", "2,2,2", "--count", "1", "--seed", "0"
    )
    assert code == 2
    assert out == ""
    assert "at most 2048" in err


def test_cmd_fuzz_admits_large_blocks(tmp_path, capsys, monkeypatch):
    # 64x64 and 2x2 block matrices: a 2050-wide flattening, never built
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        capsys, "fuzz", "--signature", "32,1", "--dims", "2,2,2", "--count", "2", "--seed", "0"
    )
    assert code == 0, err
    assert "unflagged inconsistencies: 0" in out


def test_operator_file_rejects_oversized_shape(tmp_path, capsys, monkeypatch):
    doc = {"signature": [1], "rows": 2049, "cols": 1, "entries": [[[1.0, 0.0]]] * 2049}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(OperatorFileError) as info:
        read_operator_file(str(path))
    assert info.value.field == "rows"
    assert "2049x1" in str(info.value)
    monkeypatch.setattr(cli, "moore_penrose", lambda *a, **k: pytest.fail("size guard missed"))
    code, _, err = run(capsys, "pinv", str(path))
    assert code == 2
    assert "at most 2048" in err


def test_run_fuzz_keeps_operators_of_inconsistent_instances_only(monkeypatch):
    def broken_check(t, s, tol=1e-8):
        cert = check_corollary(t, s, tol)
        if cert.rol_verdict and not cert.boundary_flag:
            cert = dataclasses.replace(cert, consistent=False)
        return cert

    monkeypatch.setattr(cli, "check_corollary", broken_check)
    results, summary = cli.run_fuzz(
        (3, 3, 3), 6, 5, AlgebraSignature((1,)), ("generic", "rol_holds"), 1e-8
    )
    assert 0 < summary["inconsistent"] < 6
    for record, _, t_op, s_op in results:
        if record["inconsistent"]:
            assert isinstance(t_op, AdjointableOp) and isinstance(s_op, AdjointableOp)
        else:
            assert t_op is None and s_op is None


def test_cmd_pinv_rejects_non_finite_tol(tmp_path, capsys):
    # NaN used to pass a "<= 0" test and report rank 0 for the identity
    path = write(tmp_path, "one.json", op1([[1.0]]))
    for tol in ("nan", "inf", "-inf", "0", "-1e-3"):
        code, out, err = run(capsys, "pinv", path, f"--tol={tol}")
        assert code == 2, tol
        assert out == "" and err.startswith("error: --tol"), (tol, err)


def test_cmd_check_and_fuzz_reject_non_finite_tol(tmp_path, capsys, monkeypatch):
    path_t = write(tmp_path, "T.json", op1([[1, 0], [0, 0]]))
    path_s = write(tmp_path, "S.json", op1([[1, 0], [1, 0]]))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_fuzz", lambda *a, **k: pytest.fail("bad --tol reached run_fuzz"))
    for tol in ("nan", "inf"):
        code, out, err = run(capsys, "check", path_t, path_s, f"--tol={tol}", "--machine")
        assert (code, out) == (2, ""), tol
        assert "error: --tol must be positive and finite" in err
        code, out, err = run(capsys, "fuzz", "--count", "3", "--seed", "1", f"--tol={tol}")
        assert (code, out) == (2, ""), tol
        assert "error: --tol must be positive and finite" in err


def test_library_rejects_non_finite_tolerances():
    from cstarpinv import (
        AlgebraElement,
        Projection,
        elem_is_positive,
        range_inclusion,
        theta_class,
        unflatten,
    )
    from cstarpinv.errors import InvalidDecompositionError
    from cstarpinv.pinv import moore_penrose, rank_decision
    from cstarpinv.reverse_order import block_conditions, check_corollary, check_thm21

    t = op1([[1, 0], [0, 1]])
    zero = AdjointableOp.zero(AlgebraSignature((1,)), 2, 2)
    sig2 = AlgebraSignature((2,))
    nilpotent = AlgebraElement(sig2, [[[0, 1], [0, 0]]])
    one = AlgebraElement.identity(sig2)
    not_linear = np.arange(16.0).reshape(4, 4)
    # Projection's tolerance is fixed at 1e-8; it takes none
    with pytest.raises(InvalidDecompositionError):
        Projection(op1([[1, 2], [3, 4]]))
    with pytest.raises(TypeError):
        Projection(op1([[1, 2], [3, 4]]), tol=float("nan"))
    for bad in (float("nan"), float("inf"), 0.0, -1.0):
        for elem in (nilpotent, -one):
            with pytest.raises(ValueError):
                elem_is_positive(elem, bad)
        with pytest.raises(ValueError):
            unflatten(not_linear, sig2, (1, 1), tol=bad)
        with pytest.raises(ValueError):
            one.allclose(5.0 * one, tol=bad)
        with pytest.raises(ValueError):
            rank_decision((2, 2), np.array([1.0, 0.5]), bad)
        with pytest.raises(ValueError):
            rank_decision((2, 2), np.zeros(2), bad)  # the zero spectrum too
        with pytest.raises(ValueError):
            moore_penrose(zero, bad)
        for check in (check_corollary, check_thm21, block_conditions):
            with pytest.raises(ValueError):
                check(t, t, bad)
        with pytest.raises(ValueError):
            range_inclusion(t, t, bad)
        with pytest.raises(ValueError):
            theta_class(t, t, bad)


def test_unreadable_operator_files_exit_2(tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"signature": [1], "comment": "caf\xe9"}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    good = write(tmp_path, "good.json", op1([[1.0]]))
    for path, reason in ((not_utf8, "not UTF-8"), (deep, "too deeply")):
        with pytest.raises(OperatorFileError) as info:
            read_operator_file(str(path))
        assert info.value.field == "file" and reason in str(info.value)
        code, out, err = run(capsys, "pinv", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: file:") and "Traceback" not in err
        code, _, err = run(capsys, "check", good, str(path), "--machine")
        assert code == 2 and err.startswith("error: file:")


def test_cli_paths_build_no_flattening_and_no_entry_grid(tmp_path, capsys, monkeypatch):
    # the flattening and the AlgebraElement grid are derived views for the
    # public API; fuzz, pinv and check run on the per-block matrices alone
    import cstarpinv.algebra as algebra
    import cstarpinv.operators as operators
    from cstarpinv import adjoint_op

    sig = AlgebraSignature((2, 2, 3))
    t = random_operator(sig, 2, 3, np.random.default_rng(5))
    path_t = write(tmp_path, "T.json", t)
    path_s = write(tmp_path, "S.json", adjoint_op(t))
    out_path = str(tmp_path / "pinv.json")

    def forbidden(*args, **kwargs):
        raise AssertionError("a flattening or an AlgebraElement was built on a CLI path")

    monkeypatch.setattr(operators, "_flat_matrix", forbidden)
    monkeypatch.setattr(operators, "_entry_grid", forbidden)
    monkeypatch.setattr(algebra.AlgebraElement, "__init__", forbidden)
    monkeypatch.chdir(tmp_path)
    argv = ["fuzz", "--signature", "1,2", "--dims", "3,3,3", "--count", "10", "--seed", "3"]
    code, out, _ = run(capsys, *argv, "--machine")
    assert code == 0 and json.loads(out)["summary"]["inconsistent"] == 0
    code, out, _ = run(capsys, "pinv", path_t, "--out", out_path)
    assert code == 0 and "rank: 34" in out  # module rank 2, d = 17
    code, out, _ = run(capsys, "check", path_t, path_s, "--machine")
    assert code == 0 and json.loads(out)["rol_verdict"]
    monkeypatch.undo()

    x = read_operator_file(out_path)
    defect = np.linalg.norm(flatten(t) @ flatten(x) @ flatten(t) - flatten(t), 2)
    assert defect <= 1e-10 * (1 + np.linalg.norm(flatten(t), 2))


@pytest.mark.parametrize(
    "value, command",
    [(1e200, "check"), (1e-200, "check"), (1e-310, "pinv"), (1e-310, "check")],
)
def test_extreme_valid_operator_exits_2_without_traceback(tmp_path, capsys, value, command):
    # TS overflows at 1e200; at 1e-200 and 1e-310 a pseudoinverse overflows
    # and LAPACK refuses its norm.  Warnings are errors under pytest, so a
    # RuntimeWarning escaping the command would fail this test as well.
    path = write(tmp_path, "d.json", op1(np.diag([value, value])))
    argv = [command, path, path] if command == "check" else [command, path]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err

