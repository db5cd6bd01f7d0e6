"""Command-line front end: ``pinv``, ``check`` and ``fuzz``.

Exit codes follow the decision-procedure contract: 0 when the queried
property holds, 1 when it fails, 2 for invalid input, 3 when a boundary
flag prevented a verdict.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__
from ._numeric import check_tolerance
from .algebra import AlgebraSignature
from .errors import CstarPinvError, OperatorFileError
from .fileio import (
    dumps_canonical,
    file_digest,
    read_operator_file,
    read_operator_file_with_digest,
    write_operator_file,
)
from .operators import check_block_size
from .pinv import moore_penrose
from .reverse_order import (
    DEFAULT_TOL,
    GENERATOR_KINDS,
    certificate_to_dict,
    certify_requests,
    check_corollary,
)

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3

FUZZ_FORMAT = "cstarpinv-fuzz/1"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cstarpinv",
        description="Moore-Penrose inverses and reverse-order-law certificates "
        "for operators on finite-dimensional Hilbert C*-modules.",
    )
    parser.add_argument("--version", action="version", version=f"cstarpinv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pinv = sub.add_parser("pinv", help="pseudoinverse report for one operator file")
    p_pinv.add_argument("file")
    p_pinv.add_argument(
        "--tol",
        default="auto",
        help="relative rank cutoff (default: auto = max(m,n)*eps)",
    )
    p_pinv.add_argument("--out", help="write the pseudoinverse to this operator file")

    p_check = sub.add_parser("check", help="certify the reverse order law for a pair")
    p_check.add_argument("fileT")
    p_check.add_argument("fileS")
    p_check.add_argument("--tol", type=float, default=DEFAULT_TOL, help="verdict tolerance")
    p_check.add_argument(
        "--machine", action="store_true", help="emit the machine-readable certificate"
    )

    p_fuzz = sub.add_parser("fuzz", help="batch-verify the theorem equivalences")
    p_fuzz.add_argument("--dims", default="4,4,4", help="module dimensions p,m,k")
    p_fuzz.add_argument("--count", type=int, required=True)
    p_fuzz.add_argument("--seed", type=int, required=True)
    p_fuzz.add_argument("--signature", default="1", help="algebra block sizes n1,n2,...")
    p_fuzz.add_argument(
        "--kinds",
        default=",".join(GENERATOR_KINDS),
        help=f"comma-separated mix from {','.join(GENERATOR_KINDS)}",
    )
    p_fuzz.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_fuzz.add_argument("--machine", action="store_true")
    p_fuzz.add_argument(
        "--dump-dir",
        default="fuzz-failures",
        help="directory for inconsistent-instance replay files",
    )
    return parser


@functools.cache
def _parser():
    """The parser :func:`main` uses, built on its first call and kept for
    the process; ``parse_args`` leaves a parser unchanged."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    # Overflow or underflow in a valid file surfaces as a FactorizationError
    # (exit 2), not as a RuntimeWarning on stderr.
    try:
        with np.errstate(all="ignore"):
            if args.command == "pinv":
                return _cmd_pinv(args)
            if args.command == "check":
                return _cmd_check(args)
            return _cmd_fuzz(args)
    except (CstarPinvError, OSError) as exc:
        # An OSError is a path refused for writing (--out, --dump-dir); it names the path.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main():
    sys.exit(main())


def _cmd_pinv(args):
    op = read_operator_file(args.file)
    rank_tol = args.tol if args.tol == "auto" else check_tolerance(args.tol, "--tol")
    result = moore_penrose(op, rank_tol)
    # Written before the report, so an unwritable --out leaves stdout empty.
    if args.out:
        write_operator_file(args.out, result.pseudoinverse)
    print(f"file: {args.file}")
    print(f"signature: {list(op.signature.block_sizes)}  shape: {op.rows}x{op.cols}")
    print(f"rank: {result.rank}")
    print(f"rank cutoff: {result.cutoff!r} (tol {args.tol})")
    print(f"singular values: {[float(s) for s in result.singular_values]!r}")
    labels = ("TXT=T", "XTX=X", "(TX)*=TX", "(XT)*=XT")
    residuals = ", ".join(
        f"{lab}: {r!r}" for lab, r in zip(labels, result.penrose_residuals)
    )
    print(f"penrose residuals: {residuals}")
    print(f"boundary flag: {result.boundary_flag}")
    if args.out:
        print(f"pseudoinverse written to: {args.out}")
    return EXIT_HOLDS


def _cmd_check(args):
    t_op, t_digest = read_operator_file_with_digest(args.fileT)
    s_op, s_digest = read_operator_file_with_digest(args.fileS)
    check_tolerance(args.tol, "--tol")
    cert = check_corollary(t_op, s_op, args.tol)
    digests = {"T": t_digest, "S": s_digest}
    payload = certificate_to_dict(cert, __version__, digests)
    if args.machine:
        sys.stdout.write(dumps_canonical(payload))
    else:
        _print_certificate(args, cert, digests)
    if cert.boundary_flag:
        return EXIT_INDETERMINATE
    return EXIT_HOLDS if cert.rol_verdict else EXIT_FAILS


def _print_certificate(args, cert, digests):
    print(f"T: {args.fileT} (sha256 {digests['T'][:16]}...)")
    print(f"S: {args.fileS} (sha256 {digests['S'][:16]}...)")
    print(f"tolerance: {cert.tol!r}")
    verdict = "holds" if cert.rol_verdict else "fails"
    print(f"reverse order law: {verdict}  residual: {cert.residual_rol!r}")
    for name, checks in (
        ("thm21", cert.thm21),
        ("thm22", cert.thm22),
        ("greville inclusions", cert.greville),
    ):
        parts = ", ".join(
            f"({i}) {'ok' if c.verdict else 'FAIL'} r={c.residual:.3e}"
            for i, c in enumerate(checks, start=1)
        )
        print(f"{name}: {parts}")
    print(f"consistent: {cert.consistent}")
    print(f"boundary flag: {cert.boundary_flag}")


def _parse_int_list(text, field):
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise OperatorFileError(field, f"expected comma-separated integers, got {text!r}")
    if not values or min(values) < 1:
        raise OperatorFileError(field, f"expected integers >= 1, got {text!r}")
    return values


def run_fuzz(dims, count, seed, signature, kinds, tol):
    """Generate and verify ``count`` instances; returns (results, summary).

    ``results`` holds one ``(record, certificate, T, S)`` per instance; the
    operators are kept only for inconsistent instances (the ones worth
    dumping) and are ``None`` otherwise, so memory does not grow with
    ``count`` beyond the records.  Instance ``index`` is generated from the
    seed ``seed + index``; a request
    :func:`~cstarpinv.reverse_order.gen_instance` cannot build
    raises its error at the first instance of that kind.  The instances are
    generated and certified in batches (see
    :func:`~cstarpinv.reverse_order.certify_requests`), and each record is
    the one its instance gives alone.
    """
    p, m, k = dims
    requests = []
    for index in range(count):
        kind = kinds[index % len(kinds)]
        inst_dims = (p, m, p) if kind == "s_adjoint" else (p, m, k)
        requests.append((kind, inst_dims, seed + index))

    results = []
    for t_op, s_op, cert, report in certify_requests(requests, signature, tol):
        index = len(results)
        kind, inst_dims, inst_seed = requests[index]
        thm21_verdicts = tuple(c.verdict for c in cert.thm21)
        thm22_verdicts = tuple(c.verdict for c in cert.thm22)
        # The block report carries the pair's flag, which is the certificate's.
        block_match = None
        if not cert.boundary_flag:
            block_match = (report.thm21_verdicts() == thm21_verdicts) and (
                report.thm22_verdicts() == thm22_verdicts
            )
        inconsistent = not cert.boundary_flag and not (cert.consistent and block_match)
        record = {
            "index": index,
            "kind": kind,
            "seed": inst_seed,
            "dims": list(inst_dims),
            "boundary_flag": cert.boundary_flag,
            "consistent": cert.consistent,
            "rol_verdict": cert.rol_verdict,
            "residual_rol": cert.residual_rol,
            "thm21_verdicts": list(thm21_verdicts),
            "thm22_verdicts": list(thm22_verdicts),
            "greville_verdicts": [c.verdict for c in cert.greville],
            "block_boundary_flag": report.boundary_flag,
            "block_match": block_match,
            "inconsistent": inconsistent,
        }
        if not inconsistent:
            t_op = s_op = None
        results.append((record, cert, t_op, s_op))

    records = [r for r, _, _, _ in results]
    flagged = sum(1 for r in records if r["boundary_flag"])
    unflagged = [r for r in records if not r["boundary_flag"]]

    def rate(items, predicate):
        if not items:
            return None
        return sum(1 for r in items if predicate(r)) / len(items)

    summary = {
        "count": count,
        "per_kind": {kind: sum(1 for r in records if r["kind"] == kind) for kind in kinds},
        "flagged": flagged,
        "unflagged": len(unflagged),
        "agreement_rates": {
            "thm21_internal": rate(unflagged, lambda r: len(set(r["thm21_verdicts"])) == 1),
            "thm22_internal": rate(unflagged, lambda r: len(set(r["thm22_verdicts"])) == 1),
            "corollary_consistent": rate(unflagged, lambda r: r["consistent"]),
            "block_vs_theorems": rate(unflagged, lambda r: r["block_match"]),
        },
        "inconsistent": sum(1 for r in records if r["inconsistent"]),
        "inconsistent_indices": [r["index"] for r in records if r["inconsistent"]],
    }
    return results, summary


def _cmd_fuzz(args):
    if args.count < 1:
        raise CstarPinvError("--count must be >= 1")
    if args.seed < 0:
        raise CstarPinvError("--seed must be >= 0")
    check_tolerance(args.tol, "--tol")
    dims = _parse_int_list(args.dims, "--dims")
    if len(dims) != 3:
        raise CstarPinvError("--dims needs exactly three integers p,m,k")
    sig_sizes = _parse_int_list(args.signature, "--signature")
    signature = AlgebraSignature(tuple(sig_sizes))
    # T is p x m and S is m x k; no intermediate matrix is wider than these.
    p, m, k = dims
    check_block_size(signature, p, m)
    check_block_size(signature, m, k)
    kinds = tuple(part for part in args.kinds.split(",") if part)
    unknown = [kind for kind in kinds if kind not in GENERATOR_KINDS]
    if not kinds or unknown:
        raise CstarPinvError(f"unknown kinds {unknown}")

    results, summary = run_fuzz(tuple(dims), args.count, args.seed, signature, kinds, args.tol)

    dumped = []
    for record, cert, t_op, s_op in results:
        if not record["inconsistent"]:
            continue
        os.makedirs(args.dump_dir, exist_ok=True)
        stem = f"inst{record['index']:05d}"
        t_path = os.path.join(args.dump_dir, f"{stem}_T.json")
        s_path = os.path.join(args.dump_dir, f"{stem}_S.json")
        write_operator_file(t_path, t_op)
        write_operator_file(s_path, s_op)
        cert_path = os.path.join(args.dump_dir, f"{stem}_certificate.json")
        digests = {"T": file_digest(t_path), "S": file_digest(s_path)}
        with open(cert_path, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(certificate_to_dict(cert, __version__, digests)))
        dumped.append(stem)

    payload = {
        "format": FUZZ_FORMAT,
        "tool_version": __version__,
        "parameters": {
            "dims": list(dims),
            "count": args.count,
            "seed": args.seed,
            "signature": sig_sizes,
            "kinds": list(kinds),
            "tol": args.tol,
        },
        "instances": [record for record, _, _, _ in results],
        "summary": summary,
        "dumped": dumped,
    }
    if args.machine:
        sys.stdout.write(dumps_canonical(payload))
    else:
        _print_fuzz_summary(summary, dumped, args)
    return EXIT_HOLDS if summary["inconsistent"] == 0 else EXIT_FAILS


def _print_fuzz_summary(summary, dumped, args):
    print(f"instances: {summary['count']}  (seed {args.seed}, dims {args.dims}, "
          f"signature [{args.signature}])")
    for kind, n in summary["per_kind"].items():
        print(f"  {kind}: {n}")
    print(f"boundary-flagged: {summary['flagged']}  unflagged: {summary['unflagged']}")
    for name, value in summary["agreement_rates"].items():
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"agreement {name}: {shown}")
    print(f"unflagged inconsistencies: {summary['inconsistent']}")
    if dumped:
        print(f"dumped {len(dumped)} instances to {args.dump_dir}: {', '.join(dumped)}")


if __name__ == "__main__":
    console_main()
