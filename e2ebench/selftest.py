#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 e2ebench/selftest.py

Runs the package's CLI on small inputs (signature [1]), confirms that every
check accepts the genuine outputs, then corrupts one output at a time and
confirms that the check rejects it.  Exits 1 if any corruption gets through
or any genuine output is rejected.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # first: it pins BLAS to one thread before NumPy loads
import checks


def _mutated_json(text, mutate):
    doc = json.loads(text)
    mutate(doc)
    return json.dumps(doc)


def _perturb_entry(path):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    doc["entries"][0][0][0][0] += 1e-3
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def main():
    cstarpinv = run.import_package()
    (run.HERE / "work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.HERE / "work")
    failures = []

    def expect(label, problems, rejected):
        ok = bool(problems) == rejected
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {problems[:1] if problems else 'accepted'}")
        if not ok:
            failures.append(label)

    try:
        bench = run.Bench("fuzz-matrix", 0, workdir, cstarpinv.cli, cstarpinv)
        _, pinv_op, check_op = bench.round_ops(0)[:3]
        # A longer fuzz call, so that an unflagged instance of every kind appears.
        fuzz_seed, count = 4242, 40
        fuzz_argv = ["fuzz", "--signature", "1", "--count", str(count), "--seed", str(fuzz_seed),
                     "--machine", "--dump-dir", str(Path(workdir) / "dumps")]
        fuzz = bench.call("fuzz", fuzz_argv, None)
        pinv = bench.call(*pinv_op)
        cert = bench.call(*check_op)
        _, t_path, _, out_path = pinv_op[1]
        _, _, s_path, _ = check_op[1]
        ref = pinv_op[2].keywords["ref"]
        law = check_op[2].keywords["law"]

        def fuzz_check(text):
            return checks.check_fuzz(0, text, count, fuzz_seed, run.FUZZ_DIMS, (1,))

        def cert_check(text, rc=cert.rc):
            return checks.check_certificate(rc, text, t_path, s_path, law)

        instances = json.loads(fuzz.stdout)["instances"]
        unflagged = [r for r in instances if not r["boundary_flag"]]
        thm21_index = next(r["index"] for r in unflagged if r["kind"] == "thm21_only")
        comparable = next(
            r for r in unflagged
            if checks.regenerated_law(r, (1,), cstarpinv.gen_instance,
                                      cstarpinv.AlgebraSignature).verdict() is not None
        )

        expect("genuine fuzz payload", fuzz_check(fuzz.stdout), False)
        expect("genuine pinv output", checks.check_pinv(pinv.rc, pinv.stdout, out_path, ref), False)
        expect("genuine certificate", cert_check(cert.stdout), False)
        expect("genuine regenerated instance",
               checks.check_regenerated(comparable, (1,), cstarpinv.gen_instance,
                                        cstarpinv.AlgebraSignature), False)

        wrong_rank = pinv.stdout.replace(f"rank: {ref.rank}\n", f"rank: {ref.rank + 1}\n")
        expect("printed rank off by one", checks.check_pinv(pinv.rc, wrong_rank, out_path, ref), True)
        _perturb_entry(out_path)
        expect("perturbed pseudoinverse entry",
               checks.check_pinv(pinv.rc, pinv.stdout, out_path, ref), True)

        def flip_rol(doc):
            doc["rol_verdict"] = not doc["rol_verdict"]

        expect("flipped certificate verdict", cert_check(_mutated_json(cert.stdout, flip_rol)), True)
        expect("exit code that contradicts the certificate", cert_check(cert.stdout, rc=1), True)

        def flip_all(doc):
            # Consistent in itself and with the exit code; only LAPACK disagrees.
            doc["rol_verdict"] = not doc["rol_verdict"]
            for key in ("thm21", "thm22", "greville"):
                for c in doc[key]:
                    c["verdict"] = doc["rol_verdict"]

        flipped_rc = 0 if cert.rc == 1 else 1
        expect("self-consistent certificate against LAPACK",
               cert_check(_mutated_json(cert.stdout, flip_all), rc=flipped_rc), True)

        def wrong_digest(doc):
            doc["input_digests"]["T"] = checks.sha256_file(s_path)

        expect("wrong input digest", cert_check(_mutated_json(cert.stdout, wrong_digest)), True)

        def flip_instance(doc):
            rec = doc["instances"][unflagged[0]["index"]]
            rec["rol_verdict"] = not rec["rol_verdict"]

        expect("flipped fuzz verdict", fuzz_check(_mutated_json(fuzz.stdout, flip_instance)), True)

        def break_kind(doc):
            # Consistent with every equivalence; only the kind guarantee is broken.
            rec = doc["instances"][thm21_index]
            rec["rol_verdict"] = True
            for key, n in (("thm21_verdicts", 3), ("thm22_verdicts", 3), ("greville_verdicts", 2)):
                rec[key] = [True] * n

        expect("thm21_only instance with both triples",
               fuzz_check(_mutated_json(fuzz.stdout, break_kind)), True)
        expect("regenerated instance with a flipped verdict",
               checks.check_regenerated({**comparable, "rol_verdict": not comparable["rol_verdict"]},
                                        (1,), cstarpinv.gen_instance, cstarpinv.AlgebraSignature),
               True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if failures:
        print(f"self-test failed: {', '.join(failures)}")
        return 1
    print("self-test passed: every check rejects its corrupted output")
    return 0


if __name__ == "__main__":
    sys.exit(main())
