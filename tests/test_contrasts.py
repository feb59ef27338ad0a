"""Contrast algebra: effective positions, Lambda*, and the exact C*."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from chogen.contrasts import (DENSE_MAX_N, ScaledIntMatrix, contrast_matrix,
                              contrast_vector, cross_block_star, cstar_matrix,
                              effective_choice_set, effective_position,
                              exact_schur_cstar, info_matrix, lambda_star,
                              option_sign_matrix, pair_contribution)
from chogen.designs import ChoiceDesign, all_treatments, lex_index, treatment
from chogen.errors import EffectOutOfRange, SamePair, Unsupported
from chogen.models import ModelSpec, effect, main_effect_list
from conftest import designs


def all_effects(n):
    import itertools
    pool = range(1, n + 1)
    return [effect(*c) for r in pool for c in itertools.combinations(pool, r)]


def test_effective_position_examples():
    # main effect: level 1 maps to effective position 1
    assert effective_position(treatment("10"), effect(1)) == 1
    assert effective_position(treatment("01"), effect(1)) == 0
    # two-factor interaction: (r+1 - sum) mod 2
    assert effective_position(treatment("11"), effect(1, 2)) == 1
    assert effective_position(treatment("10"), effect(1, 2)) == 0
    assert effective_position(treatment("00"), effect(1, 2)) == 1


def test_effective_position_range_check():
    with pytest.raises(EffectOutOfRange):
        effective_position(treatment("10"), effect(3))


def test_effective_choice_set():
    S = (treatment("11"), treatment("00"), treatment("01"))
    assert effective_choice_set(S, effect(2)) == (1, 0, 1)


def test_contrast_vector_small():
    assert contrast_vector(effect(1), 1).tolist() == [-1, 1]
    assert contrast_vector(effect(2), 2).tolist() == [-1, 1, -1, 1]
    assert contrast_vector(effect(1, 2), 2).tolist() == [1, -1, -1, 1]


def test_contrast_duality_exhaustive():
    # vector entry at a treatment's lex index is 2 * effective position - 1
    for n in range(1, 7):
        ts = all_treatments(n)
        for e in all_effects(n):
            v = contrast_vector(e, n)
            for T in ts:
                assert v[lex_index(T)] == 2 * effective_position(T, e) - 1


def test_contrast_rows_are_orthogonal():
    n = 4
    B = contrast_matrix(all_effects(n), n)
    assert np.array_equal(B @ B.T, (1 << n) * np.eye(len(B), dtype=np.int64))


def test_pair_contribution_values():
    t = treatment
    assert pair_contribution(effect(1), effect(2), t("00"), t("11")) == 4
    assert pair_contribution(effect(1), effect(2), t("01"), t("10")) == -4
    assert pair_contribution(effect(1), effect(2), t("00"), t("01")) == 0
    with pytest.raises(SamePair):
        pair_contribution(effect(1), effect(2), t("00"), t("00"))


def test_option_sign_matrix_matches_contrast_vector():
    d = ChoiceDesign.from_sets([("011", "100"), ("000", "111")])
    effects = all_effects(3)
    X = option_sign_matrix(d, effects)
    assert X.shape == (7, 4)
    for q, e in enumerate(effects):
        v = contrast_vector(e, 3)
        for k, T in enumerate(d.treatments()):
            assert X[q, k] == v[lex_index(T)]


def test_lambda_star_small_design():
    d = ChoiceDesign.from_sets([("00", "11")])
    L = lambda_star(d)
    assert L.scale == Fraction(1, 4)
    expect = np.zeros((4, 4), dtype=np.int64)
    expect[0, 0] = expect[3, 3] = 1
    expect[0, 3] = expect[3, 0] = -1
    assert np.array_equal(L.ints, expect)


@given(designs(max_n=3))
def test_lambda_star_symmetric_zero_row_sums(d):
    L = lambda_star(d).ints
    assert np.array_equal(L, L.T)
    assert not L.sum(axis=1).any()


def test_lambda_star_width_cap():
    t0 = tuple([0] * (DENSE_MAX_N + 1))
    t1 = tuple([1] * (DENSE_MAX_N + 1))
    d = ChoiceDesign.from_sets([(t0, t1)])
    with pytest.raises(Unsupported):
        lambda_star(d)


def test_scaled_int_matrix_api():
    M = ScaledIntMatrix(np.array([[2, 0], [0, 4]]), Fraction(1, 8))
    assert M.trace() == Fraction(3, 4)
    assert M.entry(1, 1) == Fraction(1, 2)
    assert M.is_diagonal()
    assert M.as_fractions()[0, 0] == Fraction(1, 4)
    assert np.allclose(M.to_float(), [[0.25, 0], [0, 0.5]])
    # equality compares represented values across different scales
    assert M == ScaledIntMatrix(np.array([[4, 0], [0, 8]]), Fraction(1, 16))
    assert M != ScaledIntMatrix(np.array([[2, 0], [0, 4]]), Fraction(1, 4))
    with pytest.raises(ValueError):
        ScaledIntMatrix(np.array([[1]]), Fraction(0))


def test_cstar_matrix_validation():
    d = ChoiceDesign.from_sets([("00", "11")])
    with pytest.raises(ValueError):
        cstar_matrix(d, ())
    with pytest.raises(EffectOutOfRange):
        cstar_matrix(d, (effect(3),))


@given(designs())
@settings(max_examples=60)
def test_cstar_dense_and_per_set_paths_agree(d):
    effects = tuple(all_effects(d.n))
    B = contrast_matrix(effects, d.n)
    dense = B @ lambda_star(d).ints @ B.T
    assert np.array_equal(cstar_matrix(d, effects).ints, dense)


def test_cstar_known_single_set():
    # one set (00, 11): both effective main-effect pairs differ, so every
    # entry of C* over the mains is 4
    d = ChoiceDesign.from_sets([("00", "11")])
    C = cstar_matrix(d, main_effect_list(2))
    assert C.ints.tolist() == [[4, 4], [4, 4]]
    assert C.scale == Fraction(1, 16)


def test_cross_block_star_zero_for_foldover():
    d = ChoiceDesign.from_sets([("00", "01"), ("11", "10")])
    X = cross_block_star(d, main_effect_list(2), (effect(1, 2),))
    assert not X.any()


def test_cross_block_star_detects_imbalance():
    d = ChoiceDesign.from_sets([("00", "01")])
    X = cross_block_star(d, main_effect_list(2), (effect(1, 2),))
    assert X.tolist() == [[0], [-4]]


def test_exact_schur_equals_plain_cstar_when_cross_is_zero():
    d = ChoiceDesign.from_sets([("00", "01"), ("11", "10")])
    C2 = exact_schur_cstar(d, main_effect_list(2), (effect(1, 2),))
    C1 = cstar_matrix(d, main_effect_list(2)).ints
    for i in range(2):
        for j in range(2):
            assert C2[i][j] == C1[i, j]


def test_exact_schur_reduces_information():
    d = ChoiceDesign.from_sets([("00", "01"), ("01", "11")])
    C2 = exact_schur_cstar(d, main_effect_list(2), (effect(1, 2),))
    C1 = cstar_matrix(d, main_effect_list(2)).ints
    tr2 = C2[0][0] + C2[1][1]
    assert tr2 <= Fraction(int(C1[0, 0] + C1[1, 1]))
    assert all(isinstance(v, Fraction) for row in C2 for v in row)


def test_info_matrix_no_nuisance_is_exact():
    d = ChoiceDesign.from_sets([("00", "11"), ("01", "10")])
    C = info_matrix(d, ModelSpec.main_effects(2))
    assert isinstance(C, ScaledIntMatrix)
    assert C == cstar_matrix(d, main_effect_list(2))


def test_info_matrix_zero_cross_stays_exact():
    d = ChoiceDesign.from_sets([("00", "11")])
    C = info_matrix(d, ModelSpec.broader_main_effects(2))
    assert isinstance(C, ScaledIntMatrix)


def test_info_matrix_numeric_branch_on_nonzero_cross():
    d = ChoiceDesign.from_sets([("00", "01")])
    C = info_matrix(d, ModelSpec.broader_main_effects(2))
    assert isinstance(C, np.ndarray) and C.dtype == float
    C1 = cstar_matrix(d, main_effect_list(2)).to_float()
    assert np.trace(C) <= np.trace(C1) + 1e-9


def test_info_matrix_force_numeric_matches_exact_path():
    d = ChoiceDesign.from_sets([("00", "11"), ("01", "10")])
    model = ModelSpec.broader_main_effects(2)
    exact = info_matrix(d, model)
    numeric = info_matrix(d, model, force_numeric=True)
    assert isinstance(exact, ScaledIntMatrix)
    assert isinstance(numeric, np.ndarray)
    assert np.allclose(numeric, exact.to_float(), atol=1e-12)
