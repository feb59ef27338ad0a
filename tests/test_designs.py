"""Treatments, choice sets, and the design-level operators."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chogen import errors
from chogen.designs import (ChoiceDesign, add_generator, all_treatments,
                            bits_string, canonical_design, complement,
                            direct_add, equivalent, lex_index,
                            make_choice_set, treatment, truncate_factors)
from conftest import designs


def test_treatment_from_string():
    assert treatment("101") == (1, 0, 1)
    assert treatment("0") == (0,)


def test_treatment_from_iterable():
    assert treatment([1, 1, 0]) == (1, 1, 0)
    assert treatment((0,)) == (0,)


def test_treatment_rejects_bad_input():
    with pytest.raises(ValueError):
        treatment("102")
    with pytest.raises(ValueError):
        treatment([2, 0])
    with pytest.raises(ValueError):
        treatment("")


def test_bits_string_round_trip():
    assert bits_string(treatment("0110")) == "0110"


def test_lex_index_is_msb_first():
    # factor 1 is the leftmost bit and the most significant one
    assert lex_index(treatment("100")) == 4
    assert lex_index(treatment("001")) == 1
    assert lex_index(treatment("111")) == 7


def test_all_treatments_in_lex_order():
    ts = all_treatments(2)
    assert ts == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [lex_index(t) for t in ts] == [0, 1, 2, 3]
    assert len(all_treatments(5)) == 32


def test_make_choice_set_validation():
    with pytest.raises(errors.DuplicateOption):
        make_choice_set(["00", "00"])
    with pytest.raises(errors.MixedWidth):
        make_choice_set(["00", "111"])
    with pytest.raises(ValueError):
        make_choice_set(["00"])


def test_design_dimensions():
    d = ChoiceDesign.from_sets([("00", "11"), ("01", "10")])
    assert (d.N, d.m, d.n) == (2, 2, 2)


def test_design_rejects_unequal_set_sizes():
    with pytest.raises(errors.ShapeMismatch):
        ChoiceDesign.from_sets([("00", "11"), ("01", "10", "00")])


def test_design_rejects_mixed_widths():
    with pytest.raises(errors.MixedWidth):
        ChoiceDesign.from_sets([("00", "11"), ("010", "101")])


def test_components_round_trip():
    a = (treatment("00"), treatment("01"))
    b = (treatment("11"), treatment("10"))
    d = ChoiceDesign.from_components([a, b])
    assert d.sets == (((0, 0), (1, 1)), ((0, 1), (1, 0)))
    assert d.components() == (a, b)


def test_from_components_validation():
    with pytest.raises(errors.ChogenError):
        ChoiceDesign.from_components([(treatment("00"),)])
    with pytest.raises(errors.ShapeMismatch):
        ChoiceDesign.from_components([
            (treatment("00"), treatment("01")),
            (treatment("11"),),
        ])


def test_complement_treatment_and_set():
    assert complement(treatment("0110")) == (1, 0, 0, 1)
    assert complement((treatment("00"), treatment("01"))) == ((1, 1), (1, 0))


@given(designs())
def test_complement_design_is_involution(d):
    assert complement(complement(d)) == d


def test_add_generator():
    rows = (treatment("000"), treatment("110"))
    assert add_generator(rows, treatment("101")) == ((1, 0, 1), (0, 1, 1))
    with pytest.raises(errors.WidthMismatch):
        add_generator(rows, treatment("10"))


def test_direct_add_concatenates_factorwise():
    d1 = ChoiceDesign.from_sets([("0", "1")])
    d2 = ChoiceDesign.from_sets([("01", "10")])
    assert direct_add(d1, d2).sets == (((0, 0, 1), (1, 1, 0)),)


def test_direct_add_shape_checks():
    d1 = ChoiceDesign.from_sets([("0", "1")])
    d2 = ChoiceDesign.from_sets([("01", "10"), ("00", "11")])
    with pytest.raises(errors.ShapeMismatch):
        direct_add(d1, d2)


def test_truncate_factors():
    d = ChoiceDesign.from_sets([("0011", "1100")])
    assert truncate_factors(d, 2).sets == (((0, 0), (1, 1)),)
    with pytest.raises(ValueError):
        truncate_factors(d, 5)


def test_truncate_rejects_collisions():
    d = ChoiceDesign.from_sets([("01", "00")])
    with pytest.raises(errors.DuplicateOption):
        truncate_factors(d, 1)


def test_canonical_design_sorts_options_and_sets():
    d = ChoiceDesign.from_sets([("11", "00"), ("10", "01")])
    c = canonical_design(d)
    assert c.sets == (((0, 0), (1, 1)), ((0, 1), (1, 0)))


def test_equivalent_ignores_orderings():
    d1 = ChoiceDesign.from_sets([("11", "00"), ("10", "01")])
    d2 = ChoiceDesign.from_sets([("01", "10"), ("00", "11")])
    assert equivalent(d1, d2)
    assert not equivalent(d1, ChoiceDesign.from_sets([("00", "01"), ("10", "11")]))


@given(designs())
def test_canonical_design_is_idempotent_and_equivalent(d):
    c = canonical_design(d)
    assert canonical_design(c) == c
    assert equivalent(d, c)


def test_treatment_keeps_the_int_semantics():
    # bools, float bits and one-shot iterators decode as int() reads them
    assert treatment((True, False)) == (1, 0)
    assert all(type(b) is int for b in treatment((True, 1.0, 0)))
    assert treatment(iter([0, 1])) == (0, 1)
    with pytest.raises(ValueError, match=r"got \(1, 2\)"):
        treatment(iter([1, 2]))
    with pytest.raises(ValueError, match="invalid literal"):
        treatment("0x")
    with pytest.raises(TypeError):
        treatment(5)


@given(designs(max_n=6))
def test_indices_are_the_lexicographic_indices(d):
    idx = d.indices
    assert idx.dtype == np.int64 and idx.shape == (d.N, d.m)
    assert idx.tolist() == [[lex_index(t) for t in s] for s in d.sets]
    assert d.indices is idx  # built once per design
    with pytest.raises(ValueError):
        idx[0, 0] = 1


def test_indices_of_63_factors_and_the_cap():
    d = ChoiceDesign.from_sets([((1,) * 63, (0,) * 62 + (1,))])
    assert d.indices.tolist() == [[(1 << 63) - 1, 1]]
    wide = ChoiceDesign.from_sets([((1,) * 64, (0,) * 64)])
    with pytest.raises(errors.Unsupported):
        wide.indices


def test_from_sets_and_the_constructor_agree():
    sets = [["00", "11"], [(0, 1), [1, 0]]]
    assert ChoiceDesign.from_sets(sets) == ChoiceDesign(tuple(sets))
    assert ChoiceDesign.from_sets(sets).sets == (((0, 0), (1, 1)),
                                                 ((0, 1), (1, 0)))


# Tuple references for the index-array operators: each works on the
# `.sets` view (tuples of treatment tuples) exactly as the operators are
# specified, with no index arithmetic.

def _ref_complement(sets):
    return tuple(tuple(tuple(1 - b for b in t) for t in s) for s in sets)


def _ref_shift(sets, g):
    return tuple(tuple(tuple(b ^ c for b, c in zip(t, g)) for t in s)
                 for s in sets)


def _ref_direct_add(sets1, sets2):
    return tuple(tuple(t1 + t2 for t1, t2 in zip(s1, s2))
                 for s1, s2 in zip(sets1, sets2))


def _ref_truncate(sets, k):
    return tuple(tuple(t[:k] for t in s) for s in sets)


def _ref_canonical(sets):
    return tuple(sorted(tuple(sorted(s)) for s in sets))


# narrow designs use int64 indices, wide ones Python ints in object arrays
_WIDTHS = st.one_of(st.integers(1, 8), st.integers(60, 70))


@st.composite
def _index_designs(draw, m=None, N=None):
    if m is None:
        n = draw(_WIDTHS)
        m = draw(st.integers(2, min(4, 1 << n)))
    else:
        n = draw(_WIDTHS.filter(lambda k: 1 << k >= m))
    N = draw(st.integers(1, 4)) if N is None else N
    sets = [draw(st.lists(st.integers(0, (1 << n) - 1), min_size=m,
                          max_size=m, unique=True)) for _ in range(N)]
    return ChoiceDesign.from_sets([[format(v, f"0{n}b") for v in s]
                                   for s in sets])


@given(_index_designs(), st.data())
def test_operators_match_the_tuple_reference(d, data):
    dtype = np.dtype(np.int64) if d.n <= 63 else np.dtype(object)
    assert d.array.dtype == dtype and not d.array.flags.writeable
    assert complement(d).sets == _ref_complement(d.sets)
    g = data.draw(st.tuples(*[st.integers(0, 1)] * d.n))
    assert add_generator(d, g).sets == _ref_shift(d.sets, g)
    other = data.draw(_index_designs(m=d.m, N=d.N))
    joined = direct_add(d, other)
    assert joined.sets == _ref_direct_add(d.sets, other.sets)
    assert joined.n == d.n + other.n
    k = data.draw(st.integers(1, joined.n))
    want = _ref_truncate(joined.sets, k)
    if any(len(set(s)) < len(s) for s in want):
        with pytest.raises(errors.DuplicateOption) as info:
            truncate_factors(joined, k)
        with pytest.raises(errors.DuplicateOption) as ref_info:
            ChoiceDesign(want)
        assert str(info.value) == str(ref_info.value)
    else:
        cut = truncate_factors(joined, k)
        assert cut.sets == want
        assert cut.array.dtype == (np.int64 if k <= 63 else object)
    assert canonical_design(d).sets == _ref_canonical(d.sets)


@given(_index_designs(), st.randoms(use_true_random=False))
def test_equivalent_matches_the_tuple_reference(d, rnd):
    sets = [list(s) for s in d.sets]
    for s in sets:
        rnd.shuffle(s)
    rnd.shuffle(sets)
    shuffled = ChoiceDesign(sets)
    assert equivalent(d, shuffled) and equivalent(shuffled, d)
    assert (shuffled == d) == (shuffled.sets == d.sets)
    other = complement(d)
    assert equivalent(d, other) == (_ref_canonical(d.sets)
                                    == _ref_canonical(other.sets))


@pytest.mark.parametrize("sets, exc, text", [
    ([["00", "00"]], errors.DuplicateOption,
     "option 00 repeated in a choice set"),
    ([["00", "11"], ["10", "01", "10"], ["0", "1"]], errors.DuplicateOption,
     "option 10 repeated in a choice set"),
    ([[(0, 1), (1, 1)], [(1, 1), (1, 1)]], errors.DuplicateOption,
     "option 11 repeated in a choice set"),
    ([["0" * 64, "1" * 64, "0" * 64]], errors.DuplicateOption,
     "option " + "0" * 64 + " repeated in a choice set"),
    ([["00", "111"]], errors.MixedWidth, "options of widths 2 and 3 in one set"),
    ([["00", "11"], ["010", "101"]], errors.MixedWidth,
     "choice sets disagree on factor count"),
    ([["00", "11"], ["01", "10", "00"]], errors.ShapeMismatch,
     "choice sets disagree on set size m"),
    ([["00", "11"], ["01"]], ValueError, "a choice set needs at least 2 options"),
    ([["00", "2x"]], ValueError, "invalid literal for int() with base 10: 'x'"),
    ([["00", "12"]], ValueError, "treatment bits must be 0 or 1, got (1, 2)"),
    ([[(0, 1), (0, 2)]], ValueError, "treatment bits must be 0 or 1, got (0, 2)"),
    ([["", "1"]], ValueError, "a treatment needs at least one factor"),
    ([], ValueError, "a design needs at least one choice set"),
])
def test_malformed_sets_keep_their_errors(sets, exc, text):
    with pytest.raises(exc) as info:
        ChoiceDesign(sets)
    assert type(info.value) is exc and str(info.value) == text


def test_from_indices_checks_like_the_constructor():
    d = ChoiceDesign.from_indices([[0, 3], [1, 2]], 2)
    assert d == ChoiceDesign.from_sets([("00", "11"), ("01", "10")])
    with pytest.raises(errors.DuplicateOption, match="^option 10 repeated"):
        ChoiceDesign.from_indices([[0, 3], [2, 2]], 2)
    with pytest.raises(ValueError, match="at least 2 options"):
        ChoiceDesign.from_indices([[0], [1]], 2)
    with pytest.raises(ValueError, match="0..2"):
        ChoiceDesign.from_indices([[0, 4]], 2)
    with pytest.raises(AttributeError):
        d.n = 3


def test_operators_cross_the_int64_boundary():
    narrow = ChoiceDesign.from_sets([("0" * 40, "1" * 40), ("01" * 20, "10" * 20)])
    wide = direct_add(narrow, narrow)
    assert wide.n == 80 and wide.array.dtype == object
    assert wide.sets == _ref_direct_add(narrow.sets, narrow.sets)
    assert complement(wide).array[0, 0] == (1 << 80) - 1
    back = truncate_factors(wide, 40)
    assert back == narrow and back.array.dtype == np.int64
    with pytest.raises(errors.Unsupported):
        wide.indices


@pytest.mark.parametrize("n", [3, 80])
def test_equal_designs_hash_equal_without_the_tuple_view(n):
    rows = [(0, 5, 6), (1, 2, 7)]
    if n == 80:  # Python ints beyond the int64 range
        rows = [[v << 77 | 1 for v in s] for s in rows]
    bits = [[format(v, f"0{n}b") for v in s] for s in rows]
    tuples = [[tuple(map(int, b)) for b in s] for s in bits]
    built = (ChoiceDesign.from_indices(rows, n), ChoiceDesign(bits),
             ChoiceDesign(tuples))
    assert built[0].array.dtype == (object if n == 80 else np.int64)
    for d in built:
        assert d == built[0] and hash(d) == hash(built[0])
        assert "sets" not in d.__dict__
    assert len({built[0], complement(built[0]), *built}) == 2
    assert "sets" not in built[0].__dict__
