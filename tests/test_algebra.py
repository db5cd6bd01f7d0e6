import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarpinv import AlgebraElement, AlgebraSignature
from cstarpinv.algebra import (
    elem_adjoint,
    elem_is_positive,
    elem_mul,
    elem_norm,
)
from cstarpinv.errors import ConformabilityError, ParameterError

from conftest import SIG1, SIG2, SIG12, SIGNATURES, dense_embed, random_element


def test_signature_validation():
    assert AlgebraSignature((1, 2)).dim == 5
    assert AlgebraSignature((3,)).block_offsets == (0,)
    with pytest.raises(ValueError):
        AlgebraSignature(())
    with pytest.raises(ValueError):
        AlgebraSignature((0, 2))
    # block sizes are refused, never coerced: not (1,), (1,), (2,), (1, 2)
    for sizes in ((1.5,), (True,), ("2",), "12", 3, None):
        with pytest.raises(ParameterError, match="block sizes must be a nonempty sequence"):
            AlgebraSignature(sizes)
    assert AlgebraSignature((np.int64(2), 1)).block_sizes == (2, 1)
    assert type(AlgebraSignature((np.int64(2),)).block_sizes[0]) is int


def test_mul_identity_and_zero():
    a = AlgebraElement(SIG2, [[[1, 2j], [0, -1]]])
    e = AlgebraElement.identity(SIG2)
    z = AlgebraElement.zero(SIG2)
    assert elem_mul(e, a).allclose(a)
    assert elem_mul(a, e).allclose(a)
    assert elem_norm(elem_mul(z, a)) == 0.0


def test_mul_blockwise_matches_dense_oracle(rng):
    # oracle: multiply the dense block-diagonal embeddings and re-split
    a = random_element(SIG12, rng)
    b = random_element(SIG12, rng)
    product = elem_mul(a, b)
    dense = dense_embed(a) @ dense_embed(b)
    np.testing.assert_allclose(dense_embed(product), dense, atol=1e-14)


def test_mul_signature_mismatch():
    a = AlgebraElement.identity(SIG1)
    b = AlgebraElement.identity(SIG2)
    with pytest.raises(ConformabilityError):
        elem_mul(a, b)


def test_adjoint_examples():
    a = AlgebraElement(SIG2, [[[0, 1], [0, 0]]])
    star = elem_adjoint(a)
    np.testing.assert_array_equal(star.blocks[0], np.array([[0, 0], [1, 0]]))
    assert elem_adjoint(star).allclose(a)
    e = AlgebraElement.identity(SIG12)
    assert elem_adjoint(e).allclose(e)


def test_norm_examples():
    assert elem_norm(AlgebraElement.identity(SIG12)) == pytest.approx(1.0)
    assert elem_norm(AlgebraElement.zero(SIG2)) == 0.0
    a = AlgebraElement(SIG2, [[[0, 2], [0, 0]]])
    assert elem_norm(a) == pytest.approx(2.0, rel=1e-12)


def test_is_positive_examples():
    e = AlgebraElement.identity(SIG2)
    assert elem_is_positive(e, 1e-10)
    assert not elem_is_positive(-e, 1e-10)
    # eigenvalues of [[1,1],[1,1]] are {0, 2} (characteristic polynomial
    # x^2 - 2x), so the element is positive
    a = AlgebraElement(SIG2, [[[1, 1], [1, 1]]])
    assert elem_is_positive(a, 1e-10)
    # non-self-adjoint elements are never positive
    n = AlgebraElement(SIG2, [[[1, 1], [0, 1]]])
    assert not elem_is_positive(n, 1e-10)


complex_entries = st.complex_numbers(
    min_magnitude=0, max_magnitude=10, allow_nan=False, allow_infinity=False
)


def element_strategy(signature):
    def build(values):
        blocks = []
        pos = 0
        for n in signature.block_sizes:
            blocks.append(np.array(values[pos : pos + n * n]).reshape(n, n))
            pos += n * n
        return AlgebraElement(signature, blocks)

    total = sum(n * n for n in signature.block_sizes)
    return st.lists(complex_entries, min_size=total, max_size=total).map(build)


@settings(max_examples=60, deadline=None)
@given(element_strategy(SIG12), element_strategy(SIG12))
def test_norm_submultiplicative(a, b):
    assert elem_norm(elem_mul(a, b)) <= elem_norm(a) * elem_norm(b) * (1 + 1e-12) + 1e-12


@settings(max_examples=60, deadline=None)
@given(element_strategy(SIG12))
def test_cstar_identity(a):
    lhs = elem_norm(elem_mul(elem_adjoint(a), a))
    rhs = elem_norm(a) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@settings(max_examples=60, deadline=None)
@given(element_strategy(SIG2))
def test_star_a_a_is_positive(a):
    assert elem_is_positive(elem_mul(elem_adjoint(a), a), 1e-10)


def test_involution_properties(rng):
    for sig in SIGNATURES:
        a = random_element(sig, rng)
        b = random_element(sig, rng)
        # (ab)* = b* a*, isometry, conjugate linearity
        assert elem_adjoint(elem_mul(a, b)).allclose(
            elem_mul(elem_adjoint(b), elem_adjoint(a))
        )
        assert elem_norm(elem_adjoint(a)) == pytest.approx(elem_norm(a), rel=1e-12)
        lam = 2.0 - 3.0j
        assert elem_adjoint(lam * a).allclose(lam.conjugate() * elem_adjoint(a))


def test_elements_are_immutable():
    a = AlgebraElement.identity(SIG2)
    with pytest.raises(AttributeError):
        a.blocks = ()
    with pytest.raises(ValueError):
        a.blocks[0][0, 0] = 5.0
