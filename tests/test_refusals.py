"""Every refusal of the operator, algebra, module, pseudoinverse and sampling
layers, with the error type and a fragment of its message; and the
conveniences that spell a function as a method or an operator."""

import numpy as np
import pytest

from cstarpinv import (
    AdjointableOp,
    AlgebraElement,
    ModuleVector,
    Projection,
    adjoint_op,
    apply,
    direct_sum,
    elem_adjoint,
    elem_mul,
    op_norm,
    projection_onto_range,
    range_inclusion,
    svd_factor,
    theta_class,
)
from cstarpinv.algebra import elem_scale
from cstarpinv.errors import ConformabilityError, InvalidDecompositionError
from cstarpinv.sampling import random_operator_with_rank

from conftest import SIG1, SIG2, SIG12, count_norm_batches, count_svd_factor


def _op(signature, rows, cols):
    return AdjointableOp.zero(signature, rows, cols)


def _elem(signature):
    return AlgebraElement.identity(signature)


def _vector(signature, k):
    return ModuleVector.zero(signature, k)


def _set_op(projection):
    projection.op = None


REFUSALS = {
    "operator without entries or blocks": (
        lambda: AdjointableOp(signature=SIG1),
        ConformabilityError,
        "operators need entries, or a signature and blocks",
    ),
    "operator with a block per missing algebra block": (
        lambda: AdjointableOp.from_blocks(SIG12, [np.eye(2)]),
        ConformabilityError,
        "expected 2 block matrices",
    ),
    "operator blocks of different operator shapes": (
        lambda: AdjointableOp.from_blocks(SIG12, [np.eye(2), np.eye(2)]),
        ConformabilityError,
        "does not fit a 2x2 operator over block size 2",
    ),
    "operator from no entries": (
        lambda: AdjointableOp([]),
        ConformabilityError,
        "operators need at least one entry",
    ),
    "operator from ragged entries": (
        lambda: AdjointableOp([[_elem(SIG1), _elem(SIG1)], [_elem(SIG1)]]),
        ConformabilityError,
        "ragged entry matrix",
    ),
    "operator from entries of two signatures": (
        lambda: AdjointableOp([[_elem(SIG1), _elem(SIG2)]]),
        ConformabilityError,
        "entries carry different signatures",
    ),
    "sum over two signatures": (
        lambda: _op(SIG1, 2, 2) + _op(SIG2, 2, 2),
        ConformabilityError,
        "signatures differ",
    ),
    "difference of two shapes": (
        lambda: _op(SIG1, 2, 2) - _op(SIG1, 2, 3),
        ConformabilityError,
        "shapes differ: 2x2 vs 2x3",
    ),
    "projection that is not idempotent": (
        lambda: Projection(AdjointableOp.identity(SIG1, 2).scale(2.0)),
        InvalidDecompositionError,
        "not idempotent",
    ),
    "projection written to": (
        lambda: _set_op(Projection(AdjointableOp.identity(SIG1, 2))),
        AttributeError,
        "Projection is immutable",
    ),
    "apply over two signatures": (
        lambda: apply(_op(SIG1, 2, 2), _vector(SIG2, 2)),
        ConformabilityError,
        "signatures differ",
    ),
    "apply to a vector of the wrong length": (
        lambda: apply(_op(SIG1, 2, 2), _vector(SIG1, 3)),
        ConformabilityError,
        "operator has 2 columns, vector length 3",
    ),
    "range inclusion over two signatures": (
        lambda: range_inclusion(_op(SIG1, 2, 2), _op(SIG2, 2, 2)),
        ConformabilityError,
        "signatures differ",
    ),
    "range inclusion between two codomains": (
        lambda: range_inclusion(_op(SIG1, 2, 2), _op(SIG1, 3, 2)),
        ConformabilityError,
        "operators must share a codomain",
    ),
    "element with a missing block": (
        lambda: AlgebraElement(SIG12, [np.eye(1)]),
        ConformabilityError,
        "expected 2 blocks, got 1",
    ),
    "element with a block of the wrong size": (
        lambda: AlgebraElement(SIG2, [np.eye(3)]),
        ConformabilityError,
        "block of shape (3, 3) does not match size 2",
    ),
    "vector without components": (
        lambda: ModuleVector([]),
        ConformabilityError,
        "module vectors need at least one component",
    ),
    "vector with components of two signatures": (
        lambda: ModuleVector([_elem(SIG1), _elem(SIG2)]),
        ConformabilityError,
        "components carry different signatures",
    ),
    "direct sum over two signatures": (
        lambda: direct_sum(_vector(SIG1, 1), _vector(SIG2, 1)),
        ConformabilityError,
        "signatures differ",
    ),
    "svd of a vector": (
        lambda: svd_factor(np.ones(3)),
        ConformabilityError,
        "svd_factor expects a matrix",
    ),
    "theta class over two signatures": (
        lambda: theta_class(_op(SIG1, 2, 2), _op(SIG2, 2, 2)),
        ConformabilityError,
        "signatures differ",
    ),
    "theta class of a candidate of the wrong shape": (
        lambda: theta_class(_op(SIG1, 2, 3), _op(SIG1, 2, 3)),
        ConformabilityError,
        "candidate must map codomain to domain",
    ),
    "random operator of an infeasible rank": (
        lambda: random_operator_with_rank(SIG1, 2, 3, 3, np.random.default_rng(0)),
        ValueError,
        "rank 3 infeasible for 2x3",
    ),
}


@pytest.mark.parametrize("case", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusals(case):
    call, error, fragment = case
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


# (call on the argument, message): each library call given an array where
# it takes an operator or a module vector
ARRAY_ARGUMENTS = {
    "apply t": (lambda a: apply(a, _vector(SIG1, 2)), "t must be an AdjointableOp"),
    "apply x": (lambda a: apply(_op(SIG1, 2, 2), a), "x must be a ModuleVector"),
    "range_inclusion b": (lambda a: range_inclusion(a, _op(SIG1, 2, 2)), "b must be an Adj"),
    "range_inclusion c": (lambda a: range_inclusion(_op(SIG1, 2, 2), a), "c must be an Adj"),
    "projection_onto_range t": (projection_onto_range, "t must be an AdjointableOp"),
    "theta_class t": (lambda a: theta_class(a, _op(SIG1, 2, 2)), "t must be an AdjointableOp"),
    "theta_class x": (lambda a: theta_class(_op(SIG1, 2, 2), a), "x must be an AdjointableOp"),
    "op_norm t": (op_norm, "t must be an AdjointableOp"),
}


@pytest.mark.parametrize("case", ARRAY_ARGUMENTS.values(), ids=ARRAY_ARGUMENTS.keys())
def test_arrays_are_refused_before_any_work(monkeypatch, case):
    call, message = case
    factored, norms = count_svd_factor(monkeypatch), count_norm_batches(monkeypatch)
    with pytest.raises(ConformabilityError, match=f"^{message}.*, got ndarray$"):
        call(np.eye(2))
    assert factored == [] and norms == []


def test_conveniences_are_their_functions(rng):
    a = AlgebraElement(SIG12, [[[1j]], [[1, 2], [3j, 4]]])
    b = AlgebraElement(SIG12, [[[2]], [[0, 1], [1, 0]]])
    for got, expected in (
        (a * b, elem_mul(a, b)),
        (a * 2j, elem_scale(a, 2j)),
        (a.adjoint(), elem_adjoint(a)),
    ):
        assert all(np.array_equal(x, y) for x, y in zip(got.blocks, expected.blocks))
    t = random_operator_with_rank(SIG12, 2, 3, 2, rng)
    assert all(np.array_equal(x, y) for x, y in zip(t.adjoint().blocks, adjoint_op(t).blocks))
    assert t.norm() == op_norm(t)
    assert repr(a) == f"AlgebraElement(signature=(1, 2), norm={a.norm():.4g})"
    assert repr(t) == "AdjointableOp(2x3, signature=(1, 2))"
