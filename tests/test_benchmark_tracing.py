"""The benchmark must still run against the package.

``e2ebench/tracing.py`` wraps package functions looked up by module and
attribute name (``SPANS``, ``COUNTED``) and the ``__init__`` of the classes
in ``CONSTRUCTED``.  A rename or removal in the package breaks
``e2ebench/run.py --trace 1``; one test installs and uninstalls the tracer
against the package to catch that.  The benchmark's output checks
(``e2ebench/checks.py``) must accept the package's genuine ``pinv``,
``check --machine`` and ``fuzz --machine`` output; another test runs
``e2ebench/selftest.py``, which asserts that and that each check rejects a
corrupted output.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

import cstarpinv

E2EBENCH = Path(__file__).resolve().parent.parent / "e2ebench"
TRACING = E2EBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("e2ebench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_traced_name_and_restores_them():
    tracing = _load_tracing()
    functions = [entry[:2] for entry in tracing.SPANS + tracing.COUNTED]
    classes = [entry[:2] for entry in tracing.CONSTRUCTED]
    for mod_name, _ in functions + classes:
        importlib.import_module(mod_name)
    originals = {key: getattr(sys.modules[key[0]], key[1]) for key in functions}
    inits = {key: getattr(sys.modules[key[0]], key[1]).__init__ for key in classes}

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod_name, attr), original in originals.items():
            assert getattr(sys.modules[mod_name], attr) is not original, (mod_name, attr)
        for (mod_name, attr), init in inits.items():
            assert getattr(sys.modules[mod_name], attr).__init__ is not init, (mod_name, attr)
        # a call through the package records the spans the metrics read
        cstarpinv.pinv_matrix(np.diag([2.0, 1.0]))
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()

    for (mod_name, attr), original in originals.items():
        assert getattr(sys.modules[mod_name], attr) is original, (mod_name, attr)
    for (mod_name, attr), init in inits.items():
        assert getattr(sys.modules[mod_name], attr).__init__ is init, (mod_name, attr)
    assert metrics["pinv.pinv_matrix.calls"]["value"] == 1
    assert metrics["pinv.svd_factor.calls"]["value"] == 1
    assert metrics["operators.AdjointableOp.calls"]["value"] == 1


def test_benchmark_checks_accept_genuine_output_and_reject_corrupted_output():
    proc = subprocess.run(
        [sys.executable, str(E2EBENCH / "selftest.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout
