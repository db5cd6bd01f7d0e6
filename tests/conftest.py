"""Shared fixtures and independent oracles for the test suite.

Oracles deliberately avoid the package's factorization path: dense algebra
is done with plain ``numpy`` calls (``numpy.linalg.svd`` / ``pinv`` /
``eigvalsh``) on whole matrices, so expected values do not pass through the
package's per-block factors, caches or rank decisions.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import cstarpinv
from cstarpinv import AlgebraSignature, flatten
from cstarpinv.sampling import random_element, random_operator, random_operator_with_rank

SIG1 = AlgebraSignature((1,))
SIG2 = AlgebraSignature((2,))
SIG12 = AlgebraSignature((1, 2))
SIGNATURES = (SIG1, SIG2, SIG12)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def child_env():
    """Environment for a child ``python -m cstarpinv`` process.

    Prepends the directory the imported package was loaded from to any
    inherited ``PYTHONPATH``, so the child imports the same package from any
    working directory; a relative entry such as ``PYTHONPATH=src`` resolves
    against the child's ``cwd`` and would miss it.
    """
    package_root = str(Path(cstarpinv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, inherited) if p)
    return env


def random_complex(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def dense_embed(element):
    """Block-diagonal dense matrix of an algebra element (oracle side)."""
    size = sum(element.signature.block_sizes)
    out = np.zeros((size, size), dtype=complex)
    pos = 0
    for n, block in zip(element.signature.block_sizes, element.blocks):
        out[pos : pos + n, pos : pos + n] = block
        pos += n
    return out


def penrose_defects(t, x):
    """Independent substitution oracle: max norms of the four defects."""
    t = np.asarray(t, dtype=complex)
    x = np.asarray(x, dtype=complex)
    tx = t @ x
    xt = x @ t
    return (
        np.linalg.norm(tx @ t - t),
        np.linalg.norm(xt @ x - x),
        np.linalg.norm(tx - tx.conj().T),
        np.linalg.norm(xt - xt.conj().T),
    )


def assert_penrose(t, x, tol=1e-10):
    scale = 1.0 + np.linalg.norm(np.asarray(t)) + np.linalg.norm(np.asarray(x))
    for defect in penrose_defects(t, x):
        assert defect <= tol * scale


def conditioned_operator(signature, rows, cols, rank, rng, floor=1e-2):
    """Random operator whose retained singular values stay above floor*s1.

    Identities that pass through a Gram operator or an inverted block lose
    roughly cond(T)^2 digits, so tolerance-1e-9 checks need instances with
    bounded conditioning; rejection sampling keeps the distribution honest.
    """
    for _ in range(200):
        op = random_operator_with_rank(signature, rows, cols, rank, rng)
        s = np.linalg.svd(flatten(op), compute_uv=False)
        retained = s[: rank * signature.dim]
        if retained[-1] >= floor * s[0]:
            return op
    raise RuntimeError("could not draw a well-conditioned operator")


class Factorizations(list):
    """The shape of every matrix factored, one entry per matrix; ``stacks``
    holds the ``(N, rows, cols)`` shape of every LAPACK call, each of which
    factors a stack of ``N`` matrices."""

    def __init__(self):
        super().__init__()
        self.stacks = []


def count_svd_factor(monkeypatch):
    """A :class:`Factorizations` that records every factorization the
    package makes from here on; all of them go through
    ``cstarpinv.pinv._svd_stack``, one LAPACK call per stack."""
    import cstarpinv.pinv as pinv_module

    calls = Factorizations()
    original = pinv_module._svd_stack

    def counting(stack):
        calls.stacks.append(stack.shape)
        calls.extend([stack.shape[1:]] * stack.shape[0])
        return original(stack)

    monkeypatch.setattr(pinv_module, "_svd_stack", counting)
    return calls


def count_norm_batches(monkeypatch):
    """A list that records the size of every norm batch the package takes
    from here on: each is one ``cstarpinv._numeric.spec_norms`` call, which
    is patched in every package module that imports it by name."""
    import sys

    import cstarpinv._numeric as numeric

    batches = []
    original = numeric.spec_norms

    def counting(matrices):
        matrices = list(matrices)
        batches.append(len(matrices))
        return original(matrices)

    for name, module in list(sys.modules.items()):
        if name.startswith("cstarpinv") and getattr(module, "spec_norms", None) is original:
            monkeypatch.setattr(module, "spec_norms", counting)
    return batches


__all__ = [
    "SIG1",
    "SIG2",
    "SIG12",
    "SIGNATURES",
    "random_complex",
    "dense_embed",
    "penrose_defects",
    "assert_penrose",
    "conditioned_operator",
    "count_norm_batches",
    "count_svd_factor",
    "random_element",
    "random_operator",
    "random_operator_with_rank",
]
