"""Property tests: malformed input always exits 2 with one error line.

Every generated case is invalid by construction: a mutated operator
document through ``pinv`` and ``check``, or a bad ``fuzz`` option.  The
command must return exit code 2, print exactly one line containing
``error:`` on stderr, print nothing on stdout and raise nothing.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import cstarpinv.cli as cli
from cstarpinv import AlgebraSignature
from cstarpinv.fileio import operator_to_dict
from cstarpinv.sampling import random_operator

GOOD_DOC = operator_to_dict(
    random_operator(AlgebraSignature((1, 2)), 2, 3, np.random.default_rng(3))
)
FIELDS = ("signature", "rows", "cols", "entries")
# JSON values of every type; each field gets the ones of a type it must not have
SCALARS = (st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3))
NON_INT = st.one_of(*SCALARS, st.just([1]), st.just({}))
NON_LIST = st.one_of(*SCALARS, st.integers())
NON_FINITE = st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "9" * 400])

SETTINGS = settings(max_examples=60, deadline=None)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its own arguments this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_usage_error(argv):
    code, out, err = run_cli(argv)
    assert code == 2, (argv, code, err)
    assert out == "", argv
    assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
    assert "Traceback" not in err


def _entry_path(draw):
    """Indices of one entry, one of its blocks and one of its pairs."""
    e = draw(st.integers(0, len(GOOD_DOC["entries"]) - 1))
    b = draw(st.integers(0, len(GOOD_DOC["signature"]) - 1))
    p = draw(st.integers(0, len(GOOD_DOC["entries"][e][b]) - 1))
    return e, b, p


@st.composite
def broken_documents(draw):
    """Bytes of an operator file that no reader may accept."""
    doc = json.loads(json.dumps(GOOD_DOC))
    entries = doc["entries"]
    how = draw(st.sampled_from(["drop", "type", "length", "non_finite", "bytes"]))
    if how == "bytes":
        return draw(st.binary(max_size=64))
    if how == "drop":
        del doc[draw(st.sampled_from(FIELDS))]
    elif how == "type":
        e, b, p = _entry_path(draw)
        target = draw(st.sampled_from(["signature", "size", "rows", "cols", "entries",
                                       "entry", "block", "pair", "number"]))
        if target == "signature":
            doc["signature"] = draw(NON_LIST)
        elif target == "size":
            doc["signature"][b] = draw(NON_INT)
        elif target in ("rows", "cols"):
            doc[target] = draw(NON_INT)
        elif target == "entries":
            doc["entries"] = draw(NON_LIST)
        elif target == "entry":
            entries[e] = draw(NON_LIST)
        elif target == "block":
            entries[e][b] = draw(NON_LIST)
        elif target == "pair":
            entries[e][b][p] = draw(NON_LIST)
        else:
            entries[e][b][p][draw(st.integers(0, 1))] = draw(
                st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just([]))
            )
    elif how == "length":
        e, b, p = _entry_path(draw)
        target = draw(st.sampled_from(["entries", "entry", "block", "pair"]))
        items = {"entries": entries, "entry": entries[e], "block": entries[e][b],
                 "pair": entries[e][b][p]}[target]
        if draw(st.booleans()) and len(items) > 0:
            items.pop()
        else:
            items.append(items[0])
    else:  # non_finite: JSON text that Python reads as inf, nan or a huge int
        e, b, p = _entry_path(draw)
        entries[e][b][p][draw(st.integers(0, 1))] = "@"
        return json.dumps(doc).replace('"@"', draw(NON_FINITE)).encode()
    return json.dumps(doc).encode()


@SETTINGS
@given(broken_documents())
def test_broken_operator_documents_exit_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        good, bad = Path(tmp, "good.json"), Path(tmp, "bad.json")
        good.write_text(json.dumps(GOOD_DOC))
        bad.write_bytes(data)
        assert_usage_error(["pinv", str(bad)])
        assert_usage_error(["check", str(bad), str(good)])
        assert_usage_error(["check", str(good), str(bad), "--machine"])


def _ints(values):
    return ",".join(str(v) for v in values)


POSITIVE = st.integers(1, 5)
NON_POSITIVE = st.integers(-5, 0)
GARBAGE = st.sampled_from(["x", "1.5", "1e3", "four", "0x3", "#", "3;4"])
BAD_DIMS = st.one_of(
    st.lists(POSITIVE, max_size=6).filter(lambda v: len(v) != 3).map(_ints),
    st.tuples(POSITIVE, POSITIVE, NON_POSITIVE).flatmap(st.permutations).map(_ints),
    st.tuples(st.sampled_from(["4", "3"]), st.sampled_from(["4"]), GARBAGE).map(",".join),
)
BAD_SIGNATURE = st.one_of(
    st.lists(POSITIVE, max_size=2).flatmap(lambda v: st.just(v + [0])).map(_ints),
    st.tuples(st.sampled_from(["1", "2"]), GARBAGE).map(",".join),
    st.just(""),
    st.integers(23, 40).map(str),  # flattens wider than MAX_FLAT_SIDE at dims 4,4,4
)
BAD_KINDS = st.one_of(
    st.sampled_from(["", ",", "generic,bogus", "Generic", "rol-holds", "s_adjoint,,x"]),
    st.text(alphabet="abcxyz_", min_size=1, max_size=8),
)
BAD_TOL = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "0.0", "-0", "", "abc", "1e", "1,0"]),
    st.floats(max_value=0.0, allow_nan=False).map(repr),
)
BAD_COUNT = st.one_of(
    st.integers(-100, 0).map(str),
    st.sampled_from(["", "x", "1.5", "1e3", "ten"]),
)


@SETTINGS
@given(
    st.one_of(
        BAD_DIMS.map(lambda v: f"--dims={v}"),
        BAD_SIGNATURE.map(lambda v: f"--signature={v}"),
        BAD_KINDS.map(lambda v: f"--kinds={v}"),
        BAD_TOL.map(lambda v: f"--tol={v}"),
        BAD_COUNT.map(lambda v: f"--count={v}"),
    )
)
def test_bad_fuzz_arguments_exit_2(option):
    argv = ["fuzz", "--count=2", "--seed=1", option]

    def unreachable(*args, **kwargs):
        raise AssertionError(f"{option} reached run_fuzz")

    with mock.patch.object(cli, "run_fuzz", unreachable):
        assert_usage_error(argv)
