"""On-disk operator format.

Operator files are JSON with explicit ``[re, im]`` pairs, one flat row-major
pair list per algebra block, so files are diffable and round-trip exactly
(Python serializes binary64 floats with shortest-round-trip decimals).
Entries are read into and written from the operator's per-block matrices
directly.  A valid document is read one algebra block at a time: one type
pass over the block's lists, pairs and numbers of every entry, one float
array of its ``rows*cols*n*n`` ``[re, im]`` pairs, one ``isfinite`` test
over that array, and one ``view(complex)``, reshape and transpose that turn
it into the ``(rows*n) x (cols*n)`` block matrix, so ``-0.0`` and every other
value keep their bits.  Only a document that this
pass refuses is walked entry by entry, block by block and pair by pair, to
name its first offending field.
The file layer reads and writes operators only; a certificate's
serialization sits beside the certificate, in
:mod:`cstarpinv.reverse_order`.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from itertools import chain

import numpy as np

from .algebra import AlgebraSignature
from .errors import OperatorFileError, SizeLimitError
from .operators import AdjointableOp, check_block_size

__all__ = [
    "operator_to_dict",
    "operator_from_dict",
    "operator_json",
    "write_operator_file",
    "read_operator_file",
    "read_operator_file_with_digest",
    "file_digest",
    "dumps_canonical",
]


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

    blocks = _read_blocks(entries_raw, signature.block_sizes, rows, cols)
    if blocks is None:
        _raise_first_fault(entries_raw, signature.block_sizes)
    return AdjointableOp.from_blocks(signature, blocks)


_NUMBER = (int, float)


def _only(types, allowed):
    """Whether every type in ``types`` is one of ``allowed`` or a subclass
    of one, ``bool`` excluded."""
    return all(
        t in allowed or (issubclass(t, allowed) and not issubclass(t, bool)) for t in types
    )


def _lists_of(items, length):
    """Whether every one of ``items`` is a list of ``length`` elements."""
    return _only(set(map(type, items)), (list,)) and set(map(len, items)) == {length}


def _read_blocks(entries_raw, sizes, rows, cols):
    """The block matrices of a valid ``entries`` list, or ``None`` when it
    has any fault; :func:`_raise_first_fault` names the fault."""
    if not _lists_of(entries_raw, len(sizes)):
        return None
    blocks = []
    for n, lists in zip(sizes, zip(*entries_raw)):
        if not _lists_of(lists, n * n):
            return None
        pairs = list(chain.from_iterable(lists))
        if not _lists_of(pairs, 2):
            return None
        numbers = list(chain.from_iterable(pairs))
        if not _only(set(map(type, numbers)), _NUMBER):
            return None
        try:
            parts = np.array(numbers, dtype=float)
        except OverflowError:  # an integer beyond the float range
            return None
        if not np.isfinite(parts).all():
            return None
        # pair ((r*cols + c)*n + i)*n + j holds element (i, j) of entry (r, c)
        blocks.append(
            parts.view(complex)
            .reshape(rows, cols, n, n)
            .transpose(0, 2, 1, 3)
            .reshape(rows * n, cols * n)
        )
    return blocks


def _raise_first_fault(entries_raw, sizes):
    """Raise :class:`OperatorFileError` for the first faulty entry, block or
    pair of ``entries``, in that order, with an entry checked before its
    blocks and a block before its pairs."""
    for idx, entry in enumerate(entries_raw):
        field = f"entries[{idx}]"
        _expect(
            isinstance(entry, list) and len(entry) == len(sizes),
            field,
            f"expected {len(sizes)} blocks, got "
            f"{len(entry) if isinstance(entry, list) else type(entry).__name__}",
        )
        for b, (n, pairs) in enumerate(zip(sizes, entry)):
            bfield = f"{field}.blocks[{b}]"
            _expect(
                isinstance(pairs, list) and len(pairs) == n * n,
                bfield,
                f"expected {n * n} [re, im] pairs, got "
                f"{len(pairs) if isinstance(pairs, list) else type(pairs).__name__}",
            )
            for j, pair in enumerate(pairs):
                pfield = f"{bfield}[{j}]"
                _expect(
                    isinstance(pair, list) and len(pair) == 2 and _only(map(type, pair), _NUMBER),
                    pfield,
                    "expected a [re, im] pair of numbers",
                )
                try:
                    finite = math.isfinite(float(pair[0])) and math.isfinite(float(pair[1]))
                except OverflowError:
                    finite = False
                _expect(finite, pfield, "entries must be finite")


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
    return _read_operator(path)[0]


def read_operator_file_with_digest(path):
    """The operator in the file at ``path`` and the SHA-256 hex digest of
    the bytes it was parsed from (:func:`file_digest` of the file), from
    one read of the file."""
    op, raw = _read_operator(path)
    return op, hashlib.sha256(raw).hexdigest()


def _read_operator(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        # decoded as a text-mode read decodes: UTF-8 with universal newlines
        data = json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    except OSError as exc:
        raise OperatorFileError("file", f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise OperatorFileError("file", f"{path} is not UTF-8 text: {exc}") from exc
    except RecursionError:
        raise OperatorFileError("file", f"{path} nests JSON too deeply") from None
    except ValueError as exc:  # json.JSONDecodeError, or an integer too long to convert
        raise OperatorFileError("file", f"{path} is not valid JSON: {exc}") from exc
    return operator_from_dict(data), raw


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()
