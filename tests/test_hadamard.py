"""Hadamard seed matrices: constructions and exact checks."""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chogen.errors import BadOrder, NotHadamard, Unsupported
from chogen import hadamard as hm
from chogen.hadamard import (MAX_SEARCH_ORDER, hadamard, hadamard_plan,
                             is_hadamard, is_sylvester, kronecker,
                             least_hadamard_order, normalize, paley_type1,
                             paley_type2, positive_columns, supported_orders,
                             sylvester, zero_one)


def test_package_attribute_is_the_hadamard_submodule():
    import chogen
    import chogen.hadamard as hm
    assert isinstance(chogen.hadamard, types.ModuleType)
    assert hm.sylvester is sylvester and hm.hadamard is hadamard


def test_hadamard_plan_names_the_construction():
    assert hadamard_plan(1) == (sylvester, (0,))
    assert hadamard_plan(8) == (sylvester, (3,))
    assert hadamard_plan(12) == (paley_type1, (11,))
    assert hadamard_plan(36)[0] is paley_type2  # 35 is no prime power
    assert hadamard_plan(36)[1] == (17,)
    for order in (-4, 0, 3, 6, 92):
        assert hadamard_plan(order) is None
    # 39 is no prime power and 19 = 3 mod 4, so 40 is the product 2 * 20
    assert hadamard_plan(40)[1] == (2, 20)
    assert np.array_equal(hadamard(40),
                          normalize(kronecker(hadamard(2), hadamard(20))))


def test_sylvester_small():
    assert sylvester(0).tolist() == [[1]]
    assert sylvester(1).tolist() == [[1, 1], [1, -1]]
    H = sylvester(3)
    assert H.shape == (8, 8)
    assert is_hadamard(H)
    with pytest.raises(BadOrder):
        sylvester(-1)


def test_every_multiple_of_four_up_to_cap_is_supported():
    orders = supported_orders()
    assert orders == [1, 2] + list(range(4, MAX_SEARCH_ORDER + 1, 4))


def test_hadamard_exactness_all_supported_orders():
    for order in supported_orders():
        H = hadamard(order)
        assert H.shape == (order, order)
        assert np.array_equal(H @ H.T, order * np.eye(order, dtype=np.int64))


def test_hadamard_is_normalized():
    for order in (4, 12, 20, 36):
        H = hadamard(order)
        assert (H[0] == 1).all() and (H[:, 0] == 1).all()


def test_hadamard_rejects_bad_orders():
    with pytest.raises(BadOrder):
        hadamard(0)
    with pytest.raises(Unsupported):
        hadamard(3)
    with pytest.raises(Unsupported):
        hadamard(6)


def test_hadamard_results_are_frozen():
    H = hadamard(4)
    with pytest.raises(ValueError):
        H[0, 0] = -1


def test_paley_constructions():
    assert is_hadamard(paley_type1(11))  # order 12
    assert is_hadamard(paley_type1(27))  # GF(3^3), order 28
    assert is_hadamard(paley_type2(5))  # order 12
    assert is_hadamard(paley_type2(13))  # order 28
    with pytest.raises(BadOrder):
        paley_type1(5)  # 5 = 1 mod 4
    with pytest.raises(BadOrder):
        paley_type2(7)  # 7 = 3 mod 4
    with pytest.raises(BadOrder):
        paley_type1(15)  # not a prime power


def test_kronecker_product_of_hadamards():
    H = kronecker(hadamard(2), hadamard(6 * 2))
    assert is_hadamard(H)
    assert H.shape == (24, 24)


def test_is_hadamard_negatives():
    assert not is_hadamard(np.ones((2, 2)))
    assert not is_hadamard(np.array([[1, 1, 1], [1, -1, 1]]))
    assert not is_hadamard(np.array([[2, 1], [1, -2]]))


def test_is_hadamard_negatives_on_the_blas_path():
    # order 256 is past the small-product cut of int_product
    H = sylvester(8)
    flipped = H.copy()
    flipped[17, 200] *= -1
    assert not is_hadamard(flipped)
    duplicated = H.copy()
    duplicated[255] = duplicated[3]
    assert not is_hadamard(duplicated)
    two = H.copy()
    two[40, 41] = 2
    assert not is_hadamard(two)


def test_is_hadamard_accepts_views_and_floats():
    H = sylvester(8)
    assert is_hadamard(H.T)
    assert is_hadamard(np.hstack([H, H])[:, 256:])
    assert is_hadamard(H.astype(float))


def _reference_is_hadamard(M) -> bool:
    H = np.asarray(M, dtype=np.int64)
    nu = H.shape[0]
    return bool(np.array_equal(H @ H.T, nu * np.eye(nu, dtype=np.int64)))


@settings(max_examples=12, deadline=None)
@given(order=st.sampled_from([nu for nu in supported_orders(256) if nu >= 128]),
       seed=st.integers(0, 2**32 - 1), flips=st.integers(0, 3))
def test_is_hadamard_matches_int64_reference(order, seed, flips):
    """Random +-1 matrices, and Hadamard ones under signed permutations
    with up to two flipped entries, agree with the plain int64 check."""
    rng = np.random.default_rng(seed)
    if flips == 3:
        M = rng.choice(np.array([-1, 1]), size=(order, order))
    else:
        signs = rng.choice(np.array([-1, 1]), size=order)
        M = (hadamard(order) * signs)[rng.permutation(order)]
        for _ in range(flips):
            M[rng.integers(order), rng.integers(order)] *= -1
    assert is_hadamard(M) == _reference_is_hadamard(M)
    if flips == 0:
        assert is_hadamard(M)


def test_normalize():
    H = hadamard(4).copy()
    H[1] *= -1
    M = normalize(H)
    assert (M[0] == 1).all() and (M[:, 0] == 1).all()
    assert is_hadamard(M)
    with pytest.raises(NotHadamard):
        normalize(np.ones((3, 3)))


def test_zero_one_maps_plus_to_one():
    assert zero_one(np.array([[1, -1], [-1, 1]])).tolist() == [[1, 0], [0, 1]]


def test_least_hadamard_order():
    assert least_hadamard_order(1) == 1
    assert least_hadamard_order(2) == 2
    assert least_hadamard_order(3) == 4
    assert least_hadamard_order(5) == 8
    assert least_hadamard_order(9) == 12
    assert least_hadamard_order(13) == 16
    with pytest.raises(BadOrder):
        least_hadamard_order(0)


def test_order_cap_bounds_searches_not_construction():
    # 63 factors is the widest design verify accepts
    assert MAX_SEARCH_ORDER == 64
    assert least_hadamard_order(63) == 64
    with pytest.raises(Unsupported):
        least_hadamard_order(65)
    assert supported_orders(16) == [1, 2, 4, 8, 12, 16]
    # direct construction stays available past the search cap
    assert hadamard(128).shape == (128, 128)


def _count_calls(monkeypatch, name):
    """Wrap hadamard-module function `name`; returns the list of its
    first arguments, one per call."""
    calls = []
    original = getattr(hm, name)

    def counted(arg):
        calls.append(arg)
        return original(arg)
    monkeypatch.setattr(hm, name, counted)
    return calls


def test_positive_columns_are_sylvester_characters(monkeypatch):
    rng = np.random.default_rng(2048)
    orders = [1 << k for k in range(12)]  # every power of 2 up to 2048
    dense = {nu: zero_one(hadamard(nu)) for nu in orders}
    built = _count_calls(monkeypatch, "hadamard")
    checked = _count_calls(monkeypatch, "is_hadamard")
    for nu in orders:
        assert is_sylvester(nu)
        for _ in range(5):
            cols = rng.choice(nu, size=rng.integers(1, min(nu, 16) + 1),
                              replace=False)
            got = positive_columns(nu, cols)
            assert got.dtype == bool and got.shape == (nu, len(cols))
            assert np.array_equal(got, dense[nu][:, cols] == 1)
    assert built == [] and checked == []  # no matrix, no H H' check


def test_positive_columns_of_other_orders_slice_the_checked_matrix(
        monkeypatch):
    rng = np.random.default_rng(40)
    built = _count_calls(monkeypatch, "hadamard")
    for nu in (12, 20, 24, 28, 40):
        assert not is_sylvester(nu)
        cols = rng.choice(nu, size=6, replace=False)
        assert np.array_equal(positive_columns(nu, cols),
                              zero_one(hadamard(nu))[:, cols] == 1)
    assert built == [12, 20, 24, 28, 40]
    with pytest.raises(BadOrder):
        positive_columns(0, [0])
    with pytest.raises(Unsupported):
        positive_columns(6, [0])
