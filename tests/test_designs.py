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
