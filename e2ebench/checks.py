"""Output checks made apart from the package.

Every reference value comes from ``numpy.linalg`` on the per-block matrices
of :mod:`blocks` and from the equivalences the package certifies, never from
a stored copy of earlier output.  Rank decisions follow the package's
documented rule: cutoff ``max(m, n) * eps * sigma_1`` for the flattened
``m x n`` shape and the largest singular value over all blocks, and a
boundary flag when a singular value lies within a factor of 10 of it.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

import hashlib
import json

import numpy as np

from blocks import EPS, blocks_from_op, flat_dim, read_operator

TOL = 1e-8  # the default verdict tolerance of `check` and `fuzz`
PINV_RTOL = 1e-8  # allowed distance of a written pseudoinverse from the reference
FUZZ_FORMAT = "cstarpinv-fuzz/1"
CERT_FORMAT = "cstarpinv-certificate/1"
KINDS = ("generic", "rol_holds", "thm21_only", "thm22_only", "s_adjoint")


def _norm(mat):
    return float(np.linalg.norm(mat, 2)) if mat.size else 0.0


class Reference:
    """Pseudoinverse, rank and boundary flag of one operator, per block."""

    def __init__(self, blocks, signature, rows, cols):
        d = flat_dim(signature)
        svds = [np.linalg.svd(b, full_matrices=False) for b in blocks]
        smax = max((float(s[0]) for _, s, _ in svds if s.size), default=0.0)
        cutoff = max(rows * d, cols * d) * EPS * smax
        self.rank = 0
        self.flagged = False
        self.pinv = []
        for n, (u, s, vh) in zip(signature, svds):
            r = int(np.count_nonzero(s > cutoff)) if smax > 0 else 0
            self.rank += n * r
            if smax > 0:
                self.flagged |= bool(np.any((s >= cutoff / 10.0) & (s <= cutoff * 10.0)))
            self.pinv.append(vh[:r].conj().T @ (u[:, :r].conj().T / s[:r, None]))


class LawReference:
    """Reverse-order-law residual of a pair, as the package defines it.

    ``residual = ||(TS)^+ - S^+ T^+|| / (1 + ||(TS)^+||)`` in the spectral
    norm of the flattening, which is the largest norm over blocks.
    """

    def __init__(self, t_blocks, s_blocks, signature, dims):
        p, m, k = dims
        t = Reference(t_blocks, signature, p, m)
        s = Reference(s_blocks, signature, m, k)
        ts = Reference([a @ b for a, b in zip(t_blocks, s_blocks)], signature, p, k)
        diff = max(_norm(x - y @ z) for x, y, z in zip(ts.pinv, s.pinv, t.pinv))
        self.residual = diff / (1.0 + max(_norm(x) for x in ts.pinv))
        self.flagged = t.flagged or s.flagged or ts.flagged

    def verdict(self, tol=TOL):
        """The law's verdict, or ``None`` where it is too close to call.

        A verdict is given only when no reference rank decision is flagged
        and the residual lies at least 100x away from ``tol``.
        """
        if self.flagged or tol / 100.0 < self.residual < tol * 100.0:
            return None
        return self.residual <= tol


def _line_value(stdout, label):
    for line in stdout.splitlines():
        if line.startswith(label + ":"):
            return line[len(label) + 1 :].strip()
    return None


def check_pinv(rc, stdout, out_path, ref):
    """``pinv FILE --out OUT``: exit code, printed rank, written pseudoinverse."""
    problems = []
    if rc != 0:
        return [f"pinv exited {rc}"]
    flag = _line_value(stdout, "boundary flag")
    if flag not in ("True", "False"):
        problems.append(f"pinv printed no boundary flag: {flag!r}")
    rank = _line_value(stdout, "rank")
    if not ref.flagged and rank != str(ref.rank):
        problems.append(f"pinv printed rank {rank}, reference rank is {ref.rank}")
    try:
        _, _, _, written = read_operator(out_path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return problems + [f"pinv output file unreadable: {exc}"]
    if ref.flagged:
        return problems
    if [w.shape for w in written] != [x.shape for x in ref.pinv]:
        return problems + ["pinv output has the wrong shape"]
    err = max(_norm(w - x) for w, x in zip(written, ref.pinv))
    scale = 1.0 + max(_norm(x) for x in ref.pinv)
    if err > PINV_RTOL * scale:
        problems.append(f"written pseudoinverse is {err / scale:.3e} from the reference")
    return problems


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _verdict_problems(where, rol, thm21, thm22, greville):
    """The paper's equivalences on one unflagged verdict set."""
    problems = []
    if len(set(thm21)) != 1:
        problems.append(f"{where}: triple A disagrees within itself {thm21}")
    if len(set(thm22)) != 1:
        problems.append(f"{where}: triple B disagrees within itself {thm22}")
    if rol != all(greville):
        problems.append(f"{where}: law verdict {rol} but Greville inclusions {greville}")
    if rol != (all(thm21) and all(thm22)):
        problems.append(f"{where}: law verdict {rol} but triple A {thm21}, triple B {thm22}")
    return problems


def check_certificate(rc, stdout, t_path, s_path, law):
    """``check T S --machine``: exit code, digests, equivalences, LAPACK verdict."""
    if rc not in (0, 1, 3):
        return [f"check exited {rc}"]
    try:
        cert = json.loads(stdout)
        problems = []
        if cert["format"] != CERT_FORMAT:
            problems.append(f"certificate format {cert['format']!r}")
        expected_rc = 3 if cert["boundary_flag"] else (0 if cert["rol_verdict"] else 1)
        if rc != expected_rc:
            problems.append(f"check exited {rc}, its certificate implies {expected_rc}")
        digests = {"T": sha256_file(t_path), "S": sha256_file(s_path)}
        if cert["input_digests"] != digests:
            problems.append("certificate digests differ from sha256 of the inputs")
        if not cert["boundary_flag"]:
            verdicts = [[c["verdict"] for c in cert[key]] for key in ("thm21", "thm22", "greville")]
            problems += _verdict_problems("certificate", cert["rol_verdict"], *verdicts)
            if not cert["consistent"]:
                problems.append("unflagged certificate is not consistent")
        expected = law.verdict()
        if expected is not None and cert["rol_verdict"] != expected:
            problems.append(
                f"law verdict {cert['rol_verdict']}, LAPACK residual {law.residual:.3e}"
            )
    except (ValueError, KeyError, TypeError) as exc:
        return [f"certificate unreadable: {exc!r}"]
    return problems


def _kind_problems(rec):
    kind = rec["kind"]
    all21, all22 = all(rec["thm21_verdicts"]), all(rec["thm22_verdicts"])
    where = f"instance {rec['index']} ({kind})"
    if kind in ("rol_holds", "s_adjoint") and not rec["rol_verdict"]:
        return [f"{where}: the law must hold by construction"]
    if kind == "thm21_only" and not (all21 and not all22):
        return [f"{where}: needs triple A without triple B"]
    if kind == "thm22_only" and not (all22 and not all21):
        return [f"{where}: needs triple B without triple A"]
    return []


def check_fuzz(rc, stdout, count, seed, dims, signature):
    """``fuzz --machine``: payload shape, equivalences, kind guarantees."""
    if rc not in (0, 1):
        return [f"fuzz exited {rc}"]
    try:
        payload = json.loads(stdout)
        problems = []
        if payload["format"] != FUZZ_FORMAT:
            problems.append(f"fuzz format {payload['format']!r}")
        params = payload["parameters"]
        if (params["count"], params["seed"], params["signature"]) != (count, seed, list(signature)):
            problems.append(f"fuzz parameters {params} do not echo the request")
        instances = payload["instances"]
        if len(instances) != count:
            problems.append(f"{len(instances)} instances, {count} requested")
        if payload["summary"]["inconsistent"] != 0 or rc != 0:
            problems.append(f"fuzz reports {payload['summary']['inconsistent']} inconsistencies")
        p, m, k = dims
        for i, rec in enumerate(instances):
            kind = KINDS[i % len(KINDS)]
            want = (i, kind, seed + i, [p, m, p] if kind == "s_adjoint" else [p, m, k])
            if (rec["index"], rec["kind"], rec["seed"], rec["dims"]) != want:
                problems.append(f"instance {i}: index/kind/seed/dims {rec} != {want}")
                continue
            if rec["inconsistent"]:
                problems.append(f"instance {i} is marked inconsistent")
            if rec["boundary_flag"]:
                continue
            problems += _verdict_problems(
                f"instance {i}",
                rec["rol_verdict"],
                rec["thm21_verdicts"],
                rec["thm22_verdicts"],
                rec["greville_verdicts"],
            )
            problems += _kind_problems(rec)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"fuzz payload unreadable: {exc!r}"]
    return problems


def regenerated_law(rec, signature, gen_instance, make_signature):
    """Regenerate one fuzz instance from its recorded seed; its :class:`LawReference`."""
    t_op, s_op = gen_instance(
        rec["kind"], tuple(rec["dims"]), signature=make_signature(signature), seed=rec["seed"]
    )
    return LawReference(blocks_from_op(t_op), blocks_from_op(s_op), signature, rec["dims"])


def check_regenerated(rec, signature, gen_instance, make_signature):
    """Compare a fuzz instance's law verdict with LAPACK on the regenerated pair."""
    law = regenerated_law(rec, signature, gen_instance, make_signature)
    expected = law.verdict()
    if expected is None or rec["boundary_flag"]:
        return []
    if rec["rol_verdict"] != expected:
        return [
            f"instance seed {rec['seed']} ({rec['kind']}): law verdict {rec['rol_verdict']}, "
            f"LAPACK residual {law.residual:.3e}"
        ]
    return []
