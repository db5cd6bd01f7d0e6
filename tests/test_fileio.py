"""Differential tests of the operator-file reader.

:func:`cstarpinv.fileio.operator_from_dict` checks and converts each algebra
block in one array pass.  ``_operator_from_dict_by_pair`` below is the reader
as it was before, one ``[re, im]`` pair at a time; the two must accept the
same documents with bit-identical blocks and reject the same documents with
the same field and message.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings

from cstarpinv import AdjointableOp, AlgebraSignature
from cstarpinv.errors import OperatorFileError, SizeLimitError
from cstarpinv.fileio import operator_from_dict, operator_to_dict
from cstarpinv.operators import check_block_size
from cstarpinv.sampling import random_operator

from test_cli_hypothesis import GOOD_DOC, broken_documents

SIGNATURES = ((1,), (1, 2), (2, 2, 3))
# signed zeros, integers that round on conversion, subnormals and the largest floats
SPECIAL = (-0.0, 0, -7, 2**53 + 1, -(2**53) - 1, 2**62 + 1, 2**64 + 3, 5e-324, -2.5e-310,
           1.7976931348623157e308, -0.0, 3)


def _expect(condition, field, message):
    if not condition:
        raise OperatorFileError(field, message)


def _operator_from_dict_by_pair(data):
    """The reference reader: every number checked and converted on its own."""
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


def _outcome(reader, data):
    """``("ok", shape, block bytes)`` or ``("error", field, message)``."""
    try:
        op = reader(data)
    except OperatorFileError as exc:
        return "error", exc.field, str(exc)
    return "ok", (op.signature.block_sizes, op.rows, op.cols), [b.tobytes() for b in op.blocks]


def assert_same_outcome(data):
    expected = _outcome(_operator_from_dict_by_pair, data)
    assert _outcome(operator_from_dict, data) == expected
    return expected


def _document(sizes, rows, cols, seed):
    """An operator document with special numbers planted among its pairs;
    every one of ``SPECIAL`` survives in a document of 24 pairs or more."""
    rng = np.random.default_rng(seed)
    doc = operator_to_dict(random_operator(AlgebraSignature(sizes), rows, cols, rng))
    pairs = [pair for entry in doc["entries"] for block in entry for pair in block]
    for pair in pairs:
        if rng.random() < 0.3:
            pair[int(rng.integers(2))] = SPECIAL[int(rng.integers(len(SPECIAL)))]
    for k, value in enumerate(SPECIAL):
        pairs[2 * k % len(pairs)][k % 2] = value
    return doc


@pytest.mark.parametrize("sizes", SIGNATURES)
def test_reader_blocks_equal_the_pair_loop_bit_for_bit(sizes):
    for seed, (rows, cols) in enumerate(((4, 6), (2, 3), (1, 1), (5, 1))):
        text = json.dumps(_document(sizes, rows, cols, seed))
        if seed == 0:
            assert all(json.dumps(value) in text for value in SPECIAL)
        assert assert_same_outcome(json.loads(text))[0] == "ok"


def test_reader_accepts_numpy_scalars():
    doc = _document((1, 2), 2, 3, 7)
    for entry in doc["entries"]:
        for pairs in entry:
            pairs[:] = [[np.float64(re), np.float64(im)] for re, im in pairs]
    assert assert_same_outcome(doc)[0] == "ok"


@settings(max_examples=150, deadline=None)
@given(broken_documents())
def test_reader_names_the_fault_the_pair_loop_names(data):
    try:
        doc = json.loads(data)
    except ValueError:  # bytes that are not a JSON document never reach the reader
        return
    assert assert_same_outcome(doc)[0] == "error"


def _with_number(text, index=5):
    """``GOOD_DOC`` as JSON text with its ``index``-th number replaced by ``text``."""
    doc = json.loads(json.dumps(GOOD_DOC))
    pairs = [pair for entry in doc["entries"] for block in entry for pair in block]
    pairs[index // 2][index % 2] = "@"
    return json.dumps(doc).replace('"@"', text)


@pytest.mark.parametrize(
    "number", ["NaN", "Infinity", "-Infinity", "1e400", "9" * 400, "true", "null", '"1.5"',
               "[1.0]", "[[1, 2]]"],
)
def test_reader_rejects_a_bad_number_as_the_pair_loop_does(number):
    outcome = assert_same_outcome(json.loads(_with_number(number)))
    assert outcome[0] == "error" and outcome[1].startswith("entries[")


def test_reader_names_the_earliest_of_several_faults():
    doc = json.loads(json.dumps(GOOD_DOC))  # 2 x 3 over [1, 2]
    good_entry = json.loads(json.dumps(doc["entries"][1]))
    doc["entries"][3] = "not an entry"
    doc["entries"][1][1][3] = [True, 0.0]
    doc["entries"][1][1][2] = [1.0, float("nan")]
    doc["entries"][1][0] = []
    assert assert_same_outcome(doc)[1] == "entries[1].blocks[0]"
    doc["entries"][1][0] = good_entry[0]
    assert assert_same_outcome(doc)[1] == "entries[1].blocks[1][2]"
    doc["entries"][1][1][2] = good_entry[1][2]
    assert assert_same_outcome(doc)[1] == "entries[1].blocks[1][3]"
    doc["entries"][1][1][3] = good_entry[1][3]
    assert assert_same_outcome(doc)[1] == "entries[3]"
    doc["entries"][3] = good_entry
    assert assert_same_outcome(doc)[0] == "ok"
