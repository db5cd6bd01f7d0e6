"""On-disk operator and certificate formats.

Operator files are JSON with explicit ``[re, im]`` pairs, one flat row-major
pair list per algebra block, so files are diffable and round-trip exactly
(Python serializes binary64 floats with shortest-round-trip decimals).
Entries are read into and written from the operator's per-block matrices
directly.
Certificates render a :class:`RolCertificate` together with the tool
version, the tolerance used, and SHA-256 digests of the inputs.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .algebra import AlgebraSignature
from .errors import OperatorFileError, SizeLimitError
from .operators import AdjointableOp, check_block_size
from .reverse_order import ConditionCheck, RolCertificate

__all__ = [
    "operator_to_dict",
    "operator_from_dict",
    "operator_json",
    "write_operator_file",
    "read_operator_file",
    "file_digest",
    "certificate_to_dict",
    "certificate_from_dict",
    "dumps_canonical",
]

CERTIFICATE_FORMAT = "cstarpinv-certificate/1"


def dumps_canonical(payload):
    """Canonical JSON text: fixed key order, two-space indent, newline."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def operator_to_dict(op):
    # pairs[i][r, c] lists the [re, im] pairs of block i of entry (r, c), row-major.
    pairs = [
        np.stack([b.real, b.imag], axis=-1)
        .reshape(op.rows, n, op.cols, n, 2)
        .transpose(0, 2, 1, 3, 4)
        .reshape(op.rows, op.cols, n * n, 2)
        .tolist()
        for b, n in zip(op.blocks, op.signature.block_sizes)
    ]
    entries = [
        [block_pairs[r][c] for block_pairs in pairs]
        for r in range(op.rows)
        for c in range(op.cols)
    ]
    return {
        "signature": list(op.signature.block_sizes),
        "rows": op.rows,
        "cols": op.cols,
        "entries": entries,
    }


def _expect(condition, field, message):
    if not condition:
        raise OperatorFileError(field, message)


def operator_from_dict(data):
    """Parse and validate the operator-file dictionary.

    Raises :class:`OperatorFileError` naming the first offending field.
    """
    _expect(isinstance(data, dict), "document", "expected a JSON object")
    for key in ("signature", "rows", "cols", "entries"):
        _expect(key in data, key, "missing required field")

    sig_raw = data["signature"]
    _expect(
        isinstance(sig_raw, list) and sig_raw,
        "signature",
        "expected a nonempty list of block sizes",
    )
    for i, n in enumerate(sig_raw):
        _expect(
            isinstance(n, int) and not isinstance(n, bool) and n >= 1,
            f"signature[{i}]",
            f"block size must be a positive integer, got {n!r}",
        )
    signature = AlgebraSignature(tuple(sig_raw))

    rows, cols = data["rows"], data["cols"]
    for name, value in (("rows", rows), ("cols", cols)):
        _expect(
            isinstance(value, int) and not isinstance(value, bool) and value >= 1,
            name,
            f"must be a positive integer, got {value!r}",
        )
    try:
        check_block_size(signature, rows, cols)
    except SizeLimitError as exc:
        raise OperatorFileError("rows" if rows >= cols else "cols", str(exc)) from None

    entries_raw = data["entries"]
    _expect(isinstance(entries_raw, list), "entries", "expected a list")
    _expect(
        len(entries_raw) == rows * cols,
        "entries",
        f"expected rows*cols = {rows * cols} entries, got {len(entries_raw)}",
    )

    sizes = signature.block_sizes
    blocks = [np.zeros((rows * n, cols * n), dtype=complex) for n in sizes]
    for idx, entry in enumerate(entries_raw):
        field = f"entries[{idx}]"
        _expect(
            isinstance(entry, list) and len(entry) == len(signature.block_sizes),
            field,
            f"expected {len(signature.block_sizes)} blocks, got "
            f"{len(entry) if isinstance(entry, list) else type(entry).__name__}",
        )
        r, c = divmod(idx, cols)
        for b, (n, pairs) in enumerate(zip(sizes, entry)):
            bfield = f"{field}.blocks[{b}]"
            _expect(
                isinstance(pairs, list) and len(pairs) == n * n,
                bfield,
                f"expected {n * n} [re, im] pairs, got "
                f"{len(pairs) if isinstance(pairs, list) else type(pairs).__name__}",
            )
            values = []
            for j, pair in enumerate(pairs):
                pfield = f"{bfield}[{j}]"
                _expect(
                    isinstance(pair, list)
                    and len(pair) == 2
                    and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair),
                    pfield,
                    "expected a [re, im] pair of numbers",
                )
                try:
                    re, im = float(pair[0]), float(pair[1])
                except OverflowError:
                    re = im = np.inf
                _expect(
                    np.isfinite(re) and np.isfinite(im),
                    pfield,
                    "entries must be finite",
                )
                values.append(complex(re, im))
            blocks[b][r * n : (r + 1) * n, c * n : (c + 1) * n] = np.reshape(values, (n, n))
    return AdjointableOp.from_blocks(signature, blocks)


def operator_json(op):
    """Operator-file text, one entry per line for diffability."""
    doc = operator_to_dict(op)
    lines = [
        "{",
        f'  "signature": {json.dumps(doc["signature"])},',
        f'  "rows": {doc["rows"]},',
        f'  "cols": {doc["cols"]},',
        '  "entries": [',
    ]
    last = len(doc["entries"]) - 1
    for i, entry in enumerate(doc["entries"]):
        comma = "," if i < last else ""
        lines.append("    " + json.dumps(entry) + comma)
    lines.extend(["  ]", "}"])
    return "\n".join(lines) + "\n"


def write_operator_file(path, op):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(operator_json(op))


def read_operator_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise OperatorFileError("file", f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise OperatorFileError("file", f"{path} is not UTF-8 text: {exc}") from exc
    except RecursionError:
        raise OperatorFileError("file", f"{path} nests JSON too deeply") from None
    except ValueError as exc:  # json.JSONDecodeError, or an integer too long to convert
        raise OperatorFileError("file", f"{path} is not valid JSON: {exc}") from exc
    return operator_from_dict(data)


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def _check_to_dict(check):
    return {"residual": check.residual, "verdict": check.verdict}


def certificate_to_dict(cert, tool_version, digests=None):
    """Machine-readable certificate; lossless for the certificate fields."""
    return {
        "format": CERTIFICATE_FORMAT,
        "tool_version": tool_version,
        "tol": cert.tol,
        "input_digests": digests or {},
        "residual_rol": cert.residual_rol,
        "rol_verdict": cert.rol_verdict,
        "thm21": [_check_to_dict(c) for c in cert.thm21],
        "thm22": [_check_to_dict(c) for c in cert.thm22],
        "greville": [_check_to_dict(c) for c in cert.greville],
        "consistent": cert.consistent,
        "boundary_flag": cert.boundary_flag,
    }


def certificate_from_dict(data):
    def checks(items):
        return tuple(ConditionCheck(c["residual"], c["verdict"]) for c in items)

    return RolCertificate(
        data["residual_rol"],
        data["rol_verdict"],
        checks(data["thm21"]),
        checks(data["thm22"]),
        checks(data["greville"]),
        data["consistent"],
        data["boundary_flag"],
        data["tol"],
    )
