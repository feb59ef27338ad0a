"""Contrast algebra: effective positions, Lambda*, and the exact C*."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chogen.contrasts import (DENSE_MAX_N, _GROUP_BITS, ScaledIntMatrix,
                              _fwht, contrast_matrix, contrast_vector,
                              cross_block_star, cstar_block, cstar_entries,
                              cstar_matrix,
                              effective_choice_set, effective_position,
                              exact_schur_cstar, info_matrix, lambda_star,
                              option_sign_matrix, pair_contribution,
                              set_sums)
from chogen.designs import (ChoiceDesign, _pattern, all_treatments, lex_index,
                            treatment)
from chogen.errors import EffectOutOfRange, SamePair, Unsupported
from chogen.models import ModelSpec, effect, main_effect_list
from chogen.serialization import load
from conftest import designs, masks_of

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


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


def test_is_diagonal_sees_one_off_diagonal_entry():
    ints = np.diag([3, 0, 5])
    assert ScaledIntMatrix(ints, Fraction(1)).is_diagonal()
    for i, j in [(0, 2), (2, 1), (1, 0)]:
        off = ints.copy()
        off[i, j] = -1
        assert not ScaledIntMatrix(off, Fraction(1)).is_diagonal()
    assert ScaledIntMatrix(np.zeros((2, 2)), Fraction(1)).is_diagonal()


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


def test_interest_blocks_form_the_interest_sums_once(monkeypatch):
    # on the product route C1 and the cross block X come from one stream
    # over interest then nuisance, whose per-set sums are formed once; the
    # numeric route and the Schur complement form the nuisance sums again
    # for G.  Their values are those of the separate blocks
    import random
    from chogen import contrasts
    rng = random.Random(5)
    d = ChoiceDesign.from_indices(
        [rng.sample(range(32), 3) for _ in range(12)], 5)
    model = ModelSpec.broader_main_effects(5)
    interest, nuisance = model.masks_on(5)
    assert d.translates[1] is None
    C1 = cstar_block(d, interest, interest)
    X = cstar_block(d, interest, nuisance)
    G = cstar_block(d, nuisance, nuisance)
    assert X.any()
    calls = []
    original = contrasts.set_sums
    monkeypatch.setattr(contrasts, "set_sums",
                        lambda d, masks: calls.append(masks.tolist())
                        or original(d, masks))
    scale = float(Fraction(1, (1 << d.n) * d.N * d.m * d.m))
    expected = (C1 - X @ np.linalg.pinv(G.astype(float), rcond=1e-9,
                                        hermitian=True) @ X.T) * scale
    assert np.allclose(info_matrix(d, model), expected, atol=1e-12)
    assert calls == [interest.tolist() + nuisance.tolist(), nuisance.tolist()]
    calls.clear()
    C2 = exact_schur_cstar(d, interest, nuisance)
    assert calls == [interest.tolist() + nuisance.tolist(), nuisance.tolist()]
    assert np.allclose(np.array(C2, dtype=float) * scale, expected, atol=1e-9)


def _family(name, n, r=1):
    return {"main-effects": ModelSpec.main_effects,
            "broader": ModelSpec.broader_main_effects,
            "spec-all": ModelSpec.specified_one_factor,
            "spec-2f": ModelSpec.specified_two_factor,
            "spec-group": lambda k: ModelSpec.specified_group(k, r)}[name](n)


@st.composite
def designs_with_repeats(draw, min_n, max_n, max_m=4, max_sets=4, max_N=6):
    """A few distinct sets of random options, drawn with repetition."""
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(2, max_m))
    option = st.integers(0, (1 << n) - 1)
    pool = draw(st.lists(st.lists(option, min_size=m, max_size=m, unique=True),
                         min_size=1, max_size=max_sets))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=max_N))
    bits = lambda x: tuple((x >> (n - 1 - k)) & 1 for k in range(n))
    return ChoiceDesign.from_sets([tuple(bits(x) for x in pool[i])
                                   for i in picks])


def _walsh_branch(d, rows, cols):
    """How cstar_block forms this block: 'join', 'fwht' or 'direct'.

    'join' is a translated pattern (_pattern) whose entries cstar_entries
    joins; the last two are the branches of _walsh on the product route.
    """
    r, c = masks_of(rows, d.n), masks_of(cols, d.n)
    if _pattern(d) is not None and cstar_entries(d, r, c).__name__ == "_join":
        return "join"
    points = len(np.unique(r[:, None] ^ c[None, :]))
    # _walsh's rule: a full transform costs n 2^n, direct sums |U| N m and
    # a search of n steps a point, each point once on these small blocks;
    # a transform of at most two products, n <= 2 _GROUP_BITS, always pays
    pays = d.n <= 2 * _GROUP_BITS or (
        d.n * (1 << d.n) <= max(points * d.N * d.m, d.n * points))
    return "fwht" if pays else "direct"


def _butterfly(w):
    """The Walsh-Hadamard transform of every row by the in-place integer
    butterfly, one index bit a step: the reference for _fwht."""
    w = np.array(w, dtype=np.int64)
    h = 1
    while h < w.shape[-1]:
        v = w.reshape(-1, 2, h)
        low = v[:, 0].copy()
        v[:, 0] += v[:, 1]
        np.subtract(low, v[:, 1], out=v[:, 1])
        h *= 2
    return w


@given(st.integers(0, 15), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.sampled_from([1, 255, 2**37]))
@settings(max_examples=60, deadline=None)
def test_fwht_products_equal_the_butterfly(n, rows, seed, top):
    # the grouped float64 products are exact while a row sums below 2^53,
    # here up to 2^52, whatever the number of index bits and of rows
    rng = np.random.default_rng(seed)
    w = rng.integers(0, top, size=(rows, 1 << n), endpoint=True)
    got = _fwht(w)
    assert got.dtype == np.int64 and got.shape == w.shape
    assert np.array_equal(got, _butterfly(w))
    assert np.array_equal(_fwht(w[0]), _butterfly(w[0]))


def _is_coset(b):
    """Whether the multiset b is one coset of a GF(2) subspace, each member
    equally often: its distinct values less the least span 2^rank of them.
    The rank comes from a plain elimination, independent of _coset."""
    values, counts = np.unique(b, return_counts=True)
    basis = []  # distinct leading bits, in decreasing order
    for x in (values ^ values[0]).tolist():
        for v in basis:
            x = min(x, x ^ v)
        if x:
            basis = sorted(basis + [x], reverse=True)
    return len(set(counts.tolist())) == 1 and values.size == 1 << len(basis)


def _check_against_oracle(d, model):
    from chogen.optimality import oracle_cstar
    interest, nuisance = model.interest, model.nuisance
    C = cstar_block(d, interest, interest)
    assert np.array_equal(cstar_matrix(d, interest).ints, C)
    full = oracle_cstar(d, interest + nuisance).ints
    q = len(interest)
    assert np.array_equal(C, full[:q, :q])
    if nuisance:
        assert np.array_equal(cross_block_star(d, interest, nuisance),
                              full[:q, q:])


FAMILIES = ("main-effects", "broader", "spec-all", "spec-2f", "spec-group")


@given(designs_with_repeats(2, 7), st.sampled_from(FAMILIES), st.data())
@settings(max_examples=80, deadline=None)
def test_cstar_block_matches_oracle_on_every_family(d, family, data):
    r = data.draw(st.integers(1, d.n - 1))
    _check_against_oracle(d, _family(family, d.n, r))


@given(designs_with_repeats(25, 40, max_m=3, max_sets=3, max_N=3),
       st.sampled_from(("main-effects", "spec-2f")))
@settings(max_examples=10, deadline=None)
def test_cstar_block_matches_oracle_on_wide_designs(d, family):
    # never a 2^n-entry transform: one set repeated is a coset of {0} and
    # joins, and other draws take the product route's direct sums
    model = _family(family, d.n)
    assert _walsh_branch(d, model.interest, model.interest) != "fwht"
    _check_against_oracle(d, model)


@st.composite
def translated_designs(draw):
    """Sets t xor P of one random pattern P, some translates repeated, so
    that first options repeat, some designs folded: their complement sets
    appended, which translate P by the complemented first options, and
    some with the options of every set in another order.

    Their first options form one coset of a subspace, each equally often,
    only in some draws (_is_coset); the others take the product route.
    """
    n = draw(st.integers(6, 7))
    m = draw(st.integers(2, 3))
    option = st.integers(0, (1 << n) - 1)
    pattern = draw(st.lists(option, min_size=m, max_size=m, unique=True))
    shifts = draw(st.lists(option, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(shifts) - 1), min_size=4,
                          max_size=7))
    picks += picks[:draw(st.integers(0, 2))]
    firsts = [shifts[i] for i in picks]
    if draw(st.booleans()):
        firsts += [t ^ ((1 << n) - 1) for t in firsts]
    rows = [[t ^ p for p in pattern] for t in firsts]
    if draw(st.booleans()):
        rows = [draw(st.permutations(row)) for row in rows]
    bits = lambda x: tuple((x >> (n - 1 - k)) & 1 for k in range(n))
    return ChoiceDesign.from_sets([tuple(map(bits, row)) for row in rows])


@given(translated_designs(), st.sampled_from(("spec-all", "spec-group")),
       st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_translated_designs_take_the_difference_route(d, family, r):
    # these families have no nuisance, so the cross block is taken against
    # the same effects in reverse order, a second list of masks
    from chogen.optimality import oracle_cstar
    F = _family(family, d.n, r).interest
    reverse = F[::-1]
    joined = _is_coset(_pattern(d)[0])
    assert (_walsh_branch(d, F, F) == "join") == joined
    assert (_walsh_branch(d, F, reverse) == "join") == joined
    full = oracle_cstar(d, F).ints
    assert np.array_equal(cstar_block(d, F, F), full)
    assert np.array_equal(cstar_matrix(d, F).ints, full)
    assert np.array_equal(cross_block_star(d, F, reverse), full[:, ::-1])


@given(designs_with_repeats(5, 7, max_sets=8, max_N=8),
       st.sampled_from(FAMILIES), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_random_designs_take_the_product_route(d, family, r):
    model = _family(family, d.n, r)
    blocks = [(model.interest, model.interest)]
    if model.nuisance:
        blocks.append((model.interest, model.nuisance))
    # sets of random options rarely translate one pattern; skip those that do
    assume(all(_walsh_branch(d, *b) != "join" for b in blocks))
    _check_against_oracle(d, model)


@pytest.mark.parametrize("n", [25, 32, 40])
def test_wide_designs_never_take_the_difference_route(n):
    # one set {0, 1...1}, repeated: its first options are a coset of {0},
    # four times each, so every effect has one label and the join meets
    # every pair, with no 2^n-entry table
    d = ChoiceDesign.from_sets([((0,) * n, (1,) * n)] * 4)
    assert _pattern(d) is not None
    for model in (ModelSpec.main_effects(n), ModelSpec.specified_two_factor(n)):
        F = masks_of(model.interest, n)
        assert cstar_entries(d, F, F).__name__ == "_join"
        _check_against_oracle(d, model)


def test_walsh_branches_both_match_the_oracle():
    # small widths and many options take the full transform, wide designs
    # or few options the direct character sums
    import random
    from conftest import random_design
    rng = random.Random(11)
    seen = set()
    for n, m, N, family in [(3, 4, 6, "spec-all"), (4, 3, 8, "broader"),
                            (6, 2, 2, "main-effects"), (7, 3, 12, "spec-all"),
                            (9, 2, 3, "spec-2f"), (5, 4, 5, "spec-group"),
                            (13, 2, 3, "spec-2f")]:
        d = random_design(rng, n, m, N)
        model = _family(family, n, 2)
        seen.add(_walsh_branch(d, model.interest, model.interest))
        if model.nuisance:
            seen.add(_walsh_branch(d, model.interest, model.nuisance))
        _check_against_oracle(d, model)
    assert seen == {"fwht", "direct"}


@pytest.mark.parametrize("name", ["spec-all-m3-n12", "spec-all-m4-n12",
                                  "spec-group-m4-n10-r3"])
def test_stored_cells_take_the_difference_route(name):
    d, meta = load(str(INPUTS / f"{name}.json"))
    model = (ModelSpec.specified_group(d.n, 3) if "group" in name
             else ModelSpec.specified_one_factor(d.n))
    # every set is a translate of {0, 1...1, g}, or at m = 4 of the
    # subspace {0, 1...1, g, 1...1 xor g}
    b, delta = _pattern(d)
    assert b.size == d.N and delta.size == d.m and delta[0] == 0
    assert (1 << d.n) - 1 in delta[:, None] ^ delta
    assert d.m == 3 or all(np.array_equal(np.sort(delta ^ x), np.sort(delta))
                           for x in delta)


@pytest.mark.parametrize("name", ["spec-all-m3-n12", "spec-all-m4-n12"])
def test_cstar_of_stored_cells_equals_the_sign_matrix_product(name):
    # the former route: m X X' - S S' with X = option_sign_matrix(d, F),
    # in float32, exact here since every partial sum is at most N*m < 2^24
    d, meta = load(str(INPUTS / f"{name}.json"))
    effects = ModelSpec.specified_one_factor(d.n).interest
    X = np.vstack([option_sign_matrix(d, effects[lo:lo + 256]).astype(np.float32)
                   for lo in range(0, len(effects), 256)])
    S = X.reshape(len(effects), d.N, d.m).sum(axis=2, dtype=np.float64)
    old = d.m * np.rint(X @ X.T).astype(np.int64) - np.rint(S @ S.T).astype(np.int64)
    assert np.array_equal(cstar_matrix(d, effects).ints, old)


def _support(d, rows, cols):
    """|U|, the support of the Walsh transform W_B of the sets'
    translations, when the block joins, else None."""
    entries = cstar_entries(d, masks_of(rows, d.n), masks_of(cols, d.n))
    if entries.__name__ == "_product":
        return None
    return np.count_nonzero(_fwht(np.bincount(_pattern(d)[0],
                                              minlength=1 << d.n)))


@st.composite
def subspace_translates(draw):
    """Sets t xor P of one random pattern P over every t of a subspace.

    The first-option histogram is then uniform on cosets of the subspace,
    so its Walsh transform W_B vanishes off the annihilator, as on the
    seeded designs, and its support U is small.
    """
    n = draw(st.integers(4, 7))
    m = draw(st.integers(2, 3))
    option = st.integers(0, (1 << n) - 1)
    pattern = draw(st.lists(option, min_size=m, max_size=m, unique=True))
    shifts = {0}
    for b in draw(st.lists(option, min_size=1, max_size=4)):
        shifts |= {t ^ b for t in shifts}
    return ChoiceDesign.from_indices(
        np.array([[t ^ p for p in pattern] for t in sorted(shifts)]), n)


def _blocks(model):
    """The square block and a cross block: against the nuisance effects,
    or else against the effects of interest in reverse order."""
    F = model.interest
    return [(F, F), (F, model.nuisance or F[::-1])]


def _check_entries(d, rows, cols):
    # B Lambda* B', the block by its definition, is the reference
    ref = (contrast_matrix(rows, d.n) @ lambda_star(d).ints
           @ contrast_matrix(cols, d.n).T)
    chunks = cstar_entries(d, masks_of(rows, d.n), masks_of(cols, d.n))
    i, j, v = (np.concatenate(a) for a in zip(*chunks))
    ri, rj = np.nonzero(ref)
    assert all(a.dtype == np.int64 for a in (i, j, v))
    assert np.array_equal(i, ri) and np.array_equal(j, rj)
    assert np.array_equal(v, ref[ri, rj])
    assert np.array_equal(cstar_block(d, rows, cols), ref)


@given(subspace_translates(), st.sampled_from(("spec-all", "spec-2f",
                                               "spec-group")),
       st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_entries_of_subspace_translates_come_from_the_join(d, family, r):
    model = _family(family, d.n, min(r, d.n - 1))
    for rows, cols in _blocks(model):
        support = _support(d, rows, cols)
        assume(support is not None and support < len(cols))
    for b in _blocks(model):
        _check_entries(d, *b)


@st.composite
def planted_cosets(draw, min_dim=0, max_dim=3):
    """(design, keyed): sets b xor P of one random pattern P, with b over a
    planted coset b0 xor V of a random subspace V, each mult times, in a
    shuffled set order.  keyed is whether the b are still one coset taken
    equally often: on a V of dimension 2 or more, one b may be taken once
    more, dropped or added from outside the coset, or every copy of one
    member may be swapped for one outside value, which keeps 2^k values
    equally often, and then they are not.  The options keep P's order,
    since when P is a subgroup (any P of two options) another order may
    show other translations of the same sets."""
    n = draw(st.integers(4, 7))
    m = draw(st.integers(2, 3))
    option = st.integers(0, (1 << n) - 1)
    pattern = draw(st.lists(option, min_size=m, max_size=m, unique=True))
    V = [0]
    for v in draw(st.lists(option, min_size=min_dim, max_size=max_dim)):
        if v not in V:
            V += [x ^ v for x in V]
    b0 = draw(option)
    firsts = [b0 ^ x for x in V] * draw(st.integers(1, 3))
    fault = draw(st.sampled_from(("none", "repeat", "drop", "add", "swap")
                                 if len(V) >= 4 else ("none",)))
    at = draw(st.integers(0, len(firsts) - 1))
    outside = b0 ^ draw(st.sampled_from(sorted(set(range(1 << n)) - set(V))))
    if fault == "repeat":
        firsts.append(firsts[at])
    elif fault == "drop":
        firsts.pop(at)
    elif fault == "add":
        firsts.append(outside)
    elif fault == "swap":
        firsts = [outside if t == firsts[at] else t for t in firsts]
    rows = [[t ^ p for p in pattern] for t in draw(st.permutations(firsts))]
    return ChoiceDesign.from_indices(np.array(rows), n), fault == "none"


@given(planted_cosets(), st.sampled_from(FAMILIES), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_planted_cosets_are_keyed_and_broken_ones_take_the_product(case,
                                                                   family, r):
    d, keyed = case
    assert _is_coset(_pattern(d)[0]) == keyed
    model = _family(family, d.n, min(r, d.n - 1))
    for rows, cols in _blocks(model):
        entries = cstar_entries(d, masks_of(rows, d.n), masks_of(cols, d.n))
        assert entries.__name__ == ("_join" if keyed else "_product")
        _check_entries(d, rows, cols)


@given(planted_cosets(max_dim=2), st.sampled_from(("spec-all", "spec-group")),
       st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_entries_of_random_translates_join_a_wide_support(case, family, r):
    # a coset of dimension k spreads W_B over |U| = 2^(n-k) points, at
    # least the Q columns in most draws, and the join still meets each row
    # with only the columns of its label
    d, keyed = case
    assume(keyed)
    model = _family(family, d.n, min(r, d.n - 1))
    for rows, cols in _blocks(model):
        assume(_support(d, rows, cols) >= len(cols))
    for b in _blocks(model):
        _check_entries(d, *b)


@given(designs_with_repeats(2, 7, max_sets=8, max_N=8),
       st.sampled_from(FAMILIES), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_entries_of_random_designs_come_from_the_product(d, family, r):
    model = _family(family, d.n, min(r, d.n - 1))
    for b in _blocks(model):
        assume(_support(d, *b) is None)
        _check_entries(d, *b)


def test_repeated_column_masks_take_the_product_route():
    # the join meets every column of a row's label, so a repeated effect
    # is joined like any other column
    d = ChoiceDesign.from_indices(
        np.array([[t, t ^ 0b1011] for t in range(0, 64, 4)]), 6)
    F = ModelSpec.specified_one_factor(6).interest
    assert _support(d, F, F) is not None
    cols = F + F[:3]
    assert _support(d, F, cols) is not None
    _check_entries(d, F, cols)


def test_entries_in_many_chunks_keep_the_row_order(monkeypatch):
    # with 16 lookups to a chunk, both routes split their rows over many
    # chunks, and the entries must still run in row-major order; the
    # product route forms S_r S_c' for 3 rows (N/4) and yields one row a chunk
    import chogen.contrasts
    monkeypatch.setattr(chogen.contrasts, "_CHUNK", 16)
    F = ModelSpec.specified_one_factor(6).interest
    joined = ChoiceDesign.from_indices(
        np.array([[t, t ^ 0b1011] for t in range(0, 64, 4)]), 6)
    rng = np.random.default_rng(2)
    product = ChoiceDesign.from_indices(
        np.array([rng.choice(64, 3, replace=False) for _ in range(12)]), 6)
    # one set: W_B is 1 at all 64 points, so every effect has one label,
    # each row meets all 37 columns, and a chunk holds one row
    full = ChoiceDesign.from_indices(np.array([[0, 63, 0b001011]]), 6)
    masks = masks_of(F, 6)
    assert cstar_entries(joined, masks, masks).__name__ == "_join"
    for cols in (masks, masks[::-1]):
        entries = cstar_entries(product, masks, cols)
        assert entries.__name__ == "_product"
        assert [np.unique(i).tolist() for i, _, _ in entries] == \
            [[q] for q in range(len(F))]
    assert _support(full, F, F) == 64 > len(F)
    for d in (joined, product, full):
        _check_entries(d, F, F)
        _check_entries(d, F, F[::-1])


@pytest.mark.parametrize("name", ["spec-all-m3-n12", "spec-all-m4-n12",
                                  "spec-group-m4-n10-r3"])
def test_stored_cells_take_the_join(name):
    d, meta = load(str(INPUTS / f"{name}.json"))
    model = ModelSpec.family(meta["model"], d.n, meta.get("r"))
    F = model.interest
    assert _support(d, F, F) < len(F)
    masks = masks_of(F, d.n)
    assert cstar_entries(d, masks, masks).__name__ == "_join"


def test_every_buildable_recipe_is_a_translated_pattern():
    # the join's traffic: every recipe of the non-blank table cells and of
    # the benchmark's three generate cells that builds translates one
    # pattern, and all but the order-12 seeds' by one coset, each member
    # equally often, which the join keys; only the predicates and the
    # route are checked, no design is verified
    from collections import Counter
    from chogen.catalog import TABLE1, TABLE_NS, candidate_recipes
    from chogen.constructions import build
    from chogen.errors import ChogenError
    from chogen.models import ModelKind
    cells = [(kind, m, n, None) for kind, block in TABLE1.items()
             for m, row in block.items()
             for n, N in zip(TABLE_NS, row) if N is not None]
    cells += [(ModelKind.BROADER_MAIN_EFFECTS, 6, 8, None),
              (ModelKind.SPECIFIED_GROUP, 4, 10, 3),
              (ModelKind.SPECIFIED_ONE_FACTOR, 4, 11, None)]
    built, unkeyed = 0, Counter()
    for kind, m, n, r in cells:
        for recipe in candidate_recipes(kind, m, n, r):
            try:
                d = build(recipe)
            except ChogenError:
                continue
            assert _pattern(d) is not None, recipe.describe()
            keyed = _is_coset(_pattern(d)[0])
            F = recipe.model.interest_masks
            assert cstar_entries(d, F, F).__name__ == (
                "_join" if keyed else "_product"), recipe.describe()
            built += 1
            unkeyed[recipe.id, d.N] += not keyed
    # 217 keyed; the other 64 rest on the order-12 Paley seed
    assert built == 281 and unkeyed.total() == 64
    assert +unkeyed == {("T1-generator", 12): 44, ("T1-generator", 24): 12,
                        ("spec-2f-m4", 12): 4, ("spec-2f-m3", 24): 4}


def test_wide_spec_group_cell_keeps_the_product_route(monkeypatch):
    # spec-group m3 n24 r16 translates one pattern by a 13-dimensional
    # subspace, each member once, so its C* (Q = 4104, diagonal) is joined
    # by labels.  The product route starts with the per-set sums, which
    # would stop it here, and the join never calls them
    import chogen.contrasts
    from chogen.catalog import candidate_recipes
    from chogen.constructions import build
    from chogen.models import ModelKind

    class ProductRoute(Exception):
        pass

    def refuse(d, masks):
        raise ProductRoute

    recipe = candidate_recipes(ModelKind.SPECIFIED_GROUP, 3, 24, 16)[-1]
    d = build(recipe)
    F = recipe.model.interest_masks
    assert d.N == 8192 and F.size == 4104
    assert _pattern(d) is not None
    monkeypatch.setattr(chogen.contrasts, "set_sums", refuse)
    entries = cstar_entries(d, F, F)
    assert entries.__name__ == "_join"
    assert sum(i.size for i, _, _ in entries) == F.size


def test_narrow_coset_on_a_wide_cell_matches_the_product():
    # spec-group m4 n20 r12 at alpha = 5: 32 translations, a 5-dimensional
    # coset, so the labels make 32 classes.  Its entries equal the product
    # route's, and a warm verify holds less than three 2^20-entry int64
    # tables, the join's former tables
    import tracemalloc
    from chogen.catalog import candidate_recipes
    from chogen.constructions import build
    from chogen.contrasts import _product
    from chogen.models import ModelKind
    from chogen.optimality import verify
    from conftest import deadline
    recipe = next(x for x in candidate_recipes(ModelKind.SPECIFIED_GROUP,
                                               4, 20, 12) if x.alpha == 5)
    d = build(recipe)
    F = recipe.model.interest_masks
    assert d.N == 32 and F.size == 3080
    joined = cstar_entries(d, F, F)
    assert joined.__name__ == "_join"
    S = set_sums(d, F)
    for a, b in zip(zip(*joined), zip(*_product(d, F, F, S, S))):
        assert np.array_equal(np.concatenate(a), np.concatenate(b))
    with deadline(60):
        verify(d, recipe.model)
        tracemalloc.start()
        try:
            verify(d, recipe.model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 3 * 2 ** 20 * 8


def test_wide_spec_group_cell_certifies_in_time():
    # spec-group m4 n30 r22 (Q = 5640): the first recipe that certifies has
    # 4096 translations, a coset of a 12-dimensional subspace, and the join
    # reads its diagonal C* from 11 304 pairs, at most 3 effects a label,
    # where the product route formed all Q^2 = 31.8 M entries in about 5 s
    from chogen.catalog import candidate_recipes, first_certified
    from chogen.models import ModelKind
    from conftest import deadline
    with deadline(2):
        winner, _ = first_certified(
            candidate_recipes(ModelKind.SPECIFIED_GROUP, 4, 30, 22))
    assert winner is not None and winner[1].N == 4096


@pytest.mark.parametrize("name", ["spec-all-m3-n12", "spec-all-m4-n12",
                                  "spec-group-m4-n10-r3"])
def test_shuffled_options_keep_the_join(name):
    # options in another order within every set, as a relabelled input
    # may come: the sets still translate one pattern, found by sorting
    d, meta = load(str(INPUTS / f"{name}.json"))
    F = ModelSpec.family(meta["model"], d.n, meta.get("r")).interest_masks
    rng = np.random.default_rng(5)
    shuffled = ChoiceDesign.from_indices(rng.permuted(d.indices, axis=1), d.n)
    assert shuffled.indices[:, 0].tolist() != d.indices[:, 0].tolist()
    assert np.array_equal(set_sums(shuffled, F), set_sums(d, F))
    assert cstar_entries(shuffled, F, F).__name__ == "_join"
    assert np.array_equal(cstar_block(shuffled, F, F), cstar_block(d, F, F))
