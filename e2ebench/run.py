#!/usr/bin/env python3
"""End-to-end benchmark of the cstarpinv command line.

    python3 e2ebench/run.py --workload fuzz-module --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  Each run is one fresh
process: it times ``import cstarpinv.cli`` in child processes (``setup_s``),
writes its operator files from ``--seed`` with NumPy alone, makes one
untimed warm-up round, and then calls ``cstarpinv.cli.main`` with the
arguments a user would type, in whole rounds, until ``--seconds`` have
passed.  A fixed unit of calibration work runs before and after every call,
and each call's time is scaled to a host of reference speed (see
``calibrate.py``).  Every output is checked afterwards (see ``checks.py``).

With ``--trace 1`` the run instead replays a fixed number of rounds twice,
untraced and then with spans around the package's public functions, and
reports per-layer metrics (see ``tracing.py``).

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import argparse
import contextlib
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

# One BLAS thread: the machine has two cores and no matrix is wider than
# about 100, so threading only adds noise.  Must be set before NumPy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from blocks import operator_text, random_pair  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    index: int  # mixed into the input seed, so workloads never share inputs
    signature: tuple
    fuzz_count: int  # instances per `fuzz` call; 0 means no fuzz call
    round_s: float  # untraced seconds per round on the reference machine


# Every round: one `fuzz` call (if any), then `pinv` and `check` on one
# law-holding and one law-failing pair of operator files.
WORKLOADS = {
    "fuzz-matrix": Workload(0, (1,), 20, 0.75),
    "fuzz-module": Workload(1, (1, 2), 5, 1.25),
    "files-large": Workload(2, (2, 2, 3), 0, 0.80),
}
FUZZ_DIMS = (4, 4, 4)
FILE_DIMS = (4, 6, 4)  # T: A^6 -> A^4, S: A^4 -> A^6
POOL_PAIRS = 8  # holding and failing pairs each; rounds cycle through them
SAMPLES_PER_FUZZ_CALL = 5  # instances regenerated from the first and last fuzz call
SETUP_SAMPLES = 7
SEED_STRIDE = 10**6

# Times the import first, in a fresh interpreter, then three warm-up and five
# timed calibration units (NumPy is loaded by then, so the import is
# unaffected); the import is scaled by the median of the five.
IMPORT_TIMER = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import cstarpinv.cli\n"
    "seconds = time.perf_counter() - t0\n"
    "import statistics, calibrate\n"
    "cal = calibrate.Calibration()\n"
    "for _ in range(3):\n"
    "    cal.unit()\n"
    "print(repr(seconds), repr(statistics.median(cal.unit() for _ in range(5))))\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p)
    return env


def measure_setup():
    """Median time to import ``cstarpinv.cli`` in a fresh interpreter.

    Returns the median scaled to the reference host and the raw median.
    """
    times, raw = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        seconds, unit = map(float, proc.stdout.split()[-2:])
        raw.append(seconds)
        times.append(seconds * calibrate.REFERENCE_S / unit)
    return statistics.median(times), statistics.median(raw)


def import_package():
    sys.path.insert(0, str(SRC))
    import cstarpinv
    import cstarpinv.cli

    if Path(cstarpinv.__file__).resolve().parent != SRC / "cstarpinv":
        raise ImportError(f"imported cstarpinv from {cstarpinv.__file__}, not from {SRC}")
    return cstarpinv


def blas_threads():
    """Thread count that the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def run_record(cstarpinv):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "kernel_backend": cstarpinv.kernel_name(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
    }


@dataclass
class Outcome:
    kind: str  # "fuzz", "pinv" or "check"
    rc: object  # exit code, or None if the call raised
    seconds: float
    stdout: str
    verify: object  # verify(rc, stdout) -> list of problems
    error: str = ""
    problems: list = field(default_factory=list)
    scale: float = 1.0  # reference-host seconds per second of this call

    @property
    def scaled_seconds(self):
        return self.seconds * self.scale


class Bench:
    """One workload's inputs, rounds and checks."""

    def __init__(self, name, seed, workdir, cli, cstarpinv):
        self.spec = WORKLOADS[name]
        self.workdir = workdir
        self.cli = cli
        self.cstarpinv = cstarpinv
        self.fuzz_base = (seed + 1) * SEED_STRIDE
        self.calls = 0
        self.calibration = calibrate.Calibration()
        self.units = []  # seconds of every calibration unit run so far
        rng = np.random.default_rng([seed, self.spec.index])
        self.pairs = {True: [], False: []}
        for holds in (True, False):
            for j in range(POOL_PAIRS + 1):  # the last pair is for the warm-up
                self.pairs[holds].append(self._write_pair(rng, holds, j))

    def _write_pair(self, rng, holds, j):
        sig, (p, m, k) = self.spec.signature, FILE_DIMS
        t_blocks, s_blocks = random_pair(rng, sig, FILE_DIMS, holds)
        stem = os.path.join(self.workdir, f"{'holds' if holds else 'fails'}{j}")
        t_path, s_path = stem + "_T.json", stem + "_S.json"
        with open(t_path, "w", encoding="utf-8") as fh:
            fh.write(operator_text(t_blocks, sig, p, m))
        with open(s_path, "w", encoding="utf-8") as fh:
            fh.write(operator_text(s_blocks, sig, m, k))
        law = checks.LawReference(t_blocks, s_blocks, sig, FILE_DIMS)
        if law.verdict() is not holds:
            raise RuntimeError(f"input pair {stem} does not have the law verdict {holds}")
        return t_path, s_path, checks.Reference(t_blocks, sig, p, m), law

    def round_ops(self, j):
        """The ``(kind, argv, verify)`` calls of round ``j``; ``j = -1`` is the warm-up."""
        ops = []
        count = self.spec.fuzz_count
        if count:
            fuzz_seed = self.fuzz_base + j * count
            argv = ["fuzz", "--dims", ",".join(map(str, FUZZ_DIMS)), "--count", str(count),
                    "--seed", str(fuzz_seed), "--signature", ",".join(map(str, self.spec.signature)),
                    "--machine", "--dump-dir", os.path.join(self.workdir, "dumps")]
            verify = partial(checks.check_fuzz, count=count, seed=fuzz_seed, dims=FUZZ_DIMS,
                             signature=self.spec.signature)
            ops.append(("fuzz", argv, verify))
        pick = POOL_PAIRS if j < 0 else j % POOL_PAIRS
        for holds in (True, False):
            t_path, s_path, ref, law = self.pairs[holds][pick]
            self.calls += 1
            out = os.path.join(self.workdir, f"pinv{self.calls:05d}.json")
            ops.append(("pinv", ["pinv", t_path, "--out", out],
                        partial(checks.check_pinv, out_path=out, ref=ref)))
            ops.append(("check", ["check", t_path, s_path, "--machine"],
                        partial(checks.check_certificate, t_path=t_path, s_path=s_path, law=law)))
        return ops

    def call(self, kind, argv, verify):
        stdout, stderr = io.StringIO(), io.StringIO()
        error = ""
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code
        except Exception:
            rc, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
        if rc not in (0, 1, 3) and not error:
            error = stderr.getvalue()
        return Outcome(kind, rc, seconds, stdout.getvalue(), verify, error)

    def calibrate(self):
        self.units.append(self.calibration.unit())
        return self.units[-1]

    def run_rounds(self, rounds=None, seconds=None):
        """Whole rounds: ``rounds`` of them, or as many as start within ``seconds``.

        A calibration unit runs before the first call and after every call;
        each call is scaled by the mean of its two neighbouring units.
        """
        outcomes = []
        start = time.perf_counter()
        before = self.calibrate()
        j = 0
        while True:
            if rounds is not None and j == rounds:
                break
            if seconds is not None and j and time.perf_counter() - start >= seconds:
                break
            for op in self.round_ops(j):
                outcome = self.call(*op)
                after = self.calibrate()
                outcome.scale = calibrate.REFERENCE_S / ((before + after) / 2)
                outcomes.append(outcome)
                before = after
            j += 1
        return outcomes

    def sample_problems(self, outcomes):
        """Regenerate a sample of fuzz instances from their seeds; compare with LAPACK."""
        fuzz = [o for o in outcomes if o.kind == "fuzz" and not o.problems]
        problems = []
        for outcome in fuzz[:1] + fuzz[1:][-1:]:
            for rec in json.loads(outcome.stdout)["instances"][:SAMPLES_PER_FUZZ_CALL]:
                try:
                    found = checks.check_regenerated(
                        rec, self.spec.signature, self.cstarpinv.gen_instance,
                        self.cstarpinv.AlgebraSignature)
                except Exception:  # a fault in regeneration is a failed check, not a crash
                    found = [f"regenerating seed {rec['seed']} raised: {traceback.format_exc()}"]
                outcome.problems += found
                problems += found
        return problems


def verify(outcomes):
    """Attach problems to each outcome; returns the problems of completed calls."""
    problems = []
    for o in outcomes:
        if o.error or o.rc == 2:
            o.problems = [f"{o.kind} failed (exit {o.rc}): {o.error.strip()[-400:]}"]
            continue
        try:
            o.problems = o.verify(o.rc, o.stdout)
        except Exception:  # output the checks could not even parse
            o.problems = [f"{o.kind} output unreadable: {traceback.format_exc()}"]
        problems += o.problems
    return problems


def pair_counts(outcomes):
    """Pairs certified and pairs given a verdict (no boundary flag)."""
    pairs = verdicts = 0
    for o in outcomes:
        if o.problems:
            continue
        if o.kind == "fuzz":
            instances = json.loads(o.stdout)["instances"]
            pairs += len(instances)
            verdicts += sum(1 for r in instances if not r["boundary_flag"])
        elif o.kind == "check":
            pairs += 1
            verdicts += not json.loads(o.stdout)["boundary_flag"]
    return pairs, verdicts


def latency_ms(outcomes, kind, scaled=True):
    return statistics.median(
        (o.scaled_seconds if scaled else o.seconds) * 1e3 for o in outcomes if o.kind == kind)


def busy_seconds(outcomes, scaled=True):
    """Seconds spent inside the CLI calls, calibration units left out."""
    return sum(o.scaled_seconds if scaled else o.seconds for o in outcomes)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(bench, seconds):
    outcomes = bench.run_rounds(seconds=seconds)
    problems = verify(outcomes) + bench.sample_problems(outcomes)
    pairs, verdicts = pair_counts(outcomes)
    busy = busy_seconds(outcomes)
    metrics = {
        "instances_per_s": metric(pairs / busy, "1/s"),
        "verdicts_per_s": metric(verdicts / busy, "1/s"),
        "pinv_ms.p50": metric(latency_ms(outcomes, "pinv"), "ms"),
        "check_ms.p50": metric(latency_ms(outcomes, "check"), "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    raw = {
        "instances_per_s": pairs / busy_seconds(outcomes, scaled=False),
        "verdicts_per_s": verdicts / busy_seconds(outcomes, scaled=False),
        "pinv_ms.p50": latency_ms(outcomes, "pinv", scaled=False),
        "check_ms.p50": latency_ms(outcomes, "check", scaled=False),
    }
    return outcomes, problems, metrics, raw


def traced_run(bench, seconds, trace_path):
    rounds = max(1, round(seconds / 2.0 / bench.spec.round_s))
    plain = bench.run_rounds(rounds=rounds)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = bench.run_rounds(rounds=rounds)
    finally:
        tracer.uninstall()
    outcomes = plain + traced
    problems = verify(outcomes) + bench.sample_problems(traced)
    metrics = tracer.metrics()
    overhead_s = busy_seconds(traced) - busy_seconds(plain)
    metrics["trace.overhead_ms"] = metric(overhead_s * 1e3, "ms")
    metrics["ref.numpy_svd_ms"] = metric(numpy_svd_ms(tracer.kernel_shapes), "ms")
    tracer.write(trace_path)
    return outcomes, problems, metrics, {}


def numpy_svd_ms(shapes):
    """LAPACK SVD time on the shapes the Jacobi kernel factored (reference only)."""
    rng = np.random.default_rng(0)
    mats = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
    start = time.perf_counter()
    for mat in mats:
        np.linalg.svd(mat, full_matrices=False)
    return (time.perf_counter() - start) * 1e3


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cstarpinv" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a cstarpinv checkout",
              file=sys.stderr)
        return 2
    setup_s, raw_setup_s = measure_setup()
    cstarpinv = import_package()
    record = run_record(cstarpinv)

    (HERE / "work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "work")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        bench = Bench(args.workload, args.seed, workdir, cstarpinv.cli, cstarpinv)
        warmup = [bench.call(*op) for op in bench.round_ops(-1)]
        for _ in range(3):
            bench.calibrate()
        warmup_problems = verify(warmup)
        bench.units.clear()
        if args.trace:
            (HERE / "traces").mkdir(exist_ok=True)
            outcomes, problems, metrics, raw = traced_run(
                bench, args.seconds, HERE / "traces" / f"{tag}.jsonl")
        else:
            outcomes, problems, metrics, raw = timed_run(bench, args.seconds)
            metrics = {"setup_s": metric(setup_s, "s"), **metrics}
            raw = {"setup_s": raw_setup_s, **raw}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for o in warmup + outcomes:
        for problem in o.problems:
            print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": not (problems or warmup_problems),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.problems),
        "metrics": metrics,
    }
    # Unscaled figures and the calibration units, for reading the scaling.
    record["unscaled"] = raw
    record["calibration_ms"] = {
        "reference": calibrate.REFERENCE_S * 1e3,
        "p50": statistics.median(bench.units) * 1e3,
        "min": min(bench.units) * 1e3,
        "max": max(bench.units) * 1e3,
    }
    (HERE / "results").mkdir(exist_ok=True)
    with open(HERE / "results" / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"run_record": record, "result": result}, fh, indent=2)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
