"""Construction routines checked against published reference designs.

The frozen tuples below are optimal designs printed in the discrete
choice design literature; the constructions must reproduce them exactly,
or exactly up to the canonical (order-free) form where the source lists
rows in a different order.
"""

import itertools

import numpy as np
import pytest

from chogen.catalog import candidate_recipes
from chogen.constructions import (build, ConstructionRecipe, coset_columns,
                                  default_generators, foldover_pair_design,
                                  hadamard_single_set_design, seed_alpha,
                                  single_set_design, specified_design,
                                  theorem1_design, theorem1_main_design,
                                  theorem2_design, theorem2_half_design,
                                  validate_generators)
from chogen.constructions import (_gf2_reduce, _resolve_columns, _seed_rows,
                                  _spanning_columns)
from chogen.designs import (MAX_INDEX_FACTORS, ChoiceDesign, complement,
                            distinct, equivalent)
from chogen.errors import (BadGenerators, BadGroup, RangeError, Unsupported,
                           WidthMismatch)
from chogen.hadamard import hadamard, least_hadamard_order, zero_one
from chogen.models import ModelKind, ModelSpec, effect
from chogen.optimality import Verdict, verify
from conftest import deadline

# m=6 generator design on 8 factors, generators 11100000 and 00000011;
# published as optimal for the broader main effects model in D_{8,8,6}
GEN6_SETS = (
    ("11111111", "00000000", "00011111", "11100000", "11111100", "00000011"),
    ("10101010", "01010101", "01001010", "10110101", "10101001", "01010110"),
    ("11001100", "00110011", "00101100", "11010011", "11001111", "00110000"),
    ("10011001", "01100110", "01111001", "10000110", "10011010", "01100101"),
    ("11110000", "00001111", "00010000", "11101111", "11110011", "00001100"),
    ("10100101", "01011010", "01000101", "10111010", "10100110", "01011001"),
    ("11000011", "00111100", "00100011", "11011100", "11000000", "00111111"),
    ("10010110", "01101001", "01110110", "10001001", "10010101", "01101010"),
)

# m=8 single-set design on 4 factors: the order-4 seed rows and their
# complements in one choice set, optimal in D_{1,4,8}
SINGLE_SET = (
    "1111", "1010", "1100", "1001", "0000", "0101", "0011", "0110",
)

# m=4 foldover pair on 3 factors, optimal in D_{2,3,4}
FOLDOVER_SETS = (
    ("111", "100", "010", "001"),
    ("000", "011", "101", "110"),
)

# direct-addition design on 5 factors, optimal in D_{4,5,4}
DIRECT_ADD_SETS = (
    ("11111", "10010", "00100", "01001"),
    ("11100", "10001", "00111", "01010"),
    ("00000", "01101", "11011", "10110"),
    ("00011", "01110", "11000", "10101"),
)

# one-specified-factor design on 4 factors, optimal in D_{4,4,4}
SPEC_ALL_SETS = (
    ("1111", "0000", "0111", "1000"),
    ("1010", "0101", "0010", "1101"),
    ("1100", "0011", "0100", "1011"),
    ("1001", "0110", "0001", "1110"),
)

# group-interaction design (groups {1,2} x {3,4}), optimal in D_{4,4,4}
SPEC_GROUP_SETS = (
    ("1111", "0000", "0011", "1100"),
    ("1010", "0101", "0110", "1001"),
    ("1100", "0011", "0000", "1111"),
    ("1001", "0110", "0101", "1010"),
)

GENERATORS_8 = ("11100000", "00000011")


def test_generator_design_m6_matches_reference_exactly():
    d = theorem1_design(8, 6, generators=GENERATORS_8)
    assert d.sets == ChoiceDesign.from_sets(GEN6_SETS).sets


def test_generator_design_m5_is_reference_plus_complement():
    d = theorem1_design(8, 5, generators=GENERATORS_8)
    d5 = ChoiceDesign.from_sets(s[:5] for s in GEN6_SETS)
    want = ChoiceDesign(d5.sets + complement(d5).sets)
    assert d.sets == want.sets
    assert (d.N, d.m) == (16, 5)


def test_generator_design_main_effects_halves():
    half = theorem1_main_design(8, 5, generators=GENERATORS_8)
    assert half.N == 8
    assert verify(half, ModelSpec.main_effects(8)).certified


def test_generator_design_needs_enough_generators():
    with pytest.raises(RangeError):
        theorem1_design(8, 6, generators=("11100000",))
    with pytest.raises(RangeError):
        theorem1_design(8, 1)


def test_default_generators_certify():
    d = theorem1_design(6, 4)
    assert verify(d, ModelSpec.broader_main_effects(6)).certified


def test_single_set_design_matches_reference():
    d = single_set_design(4, order=4)
    assert d.sets == ChoiceDesign.from_sets([SINGLE_SET]).sets


def test_foldover_pair_matches_reference_canonically():
    d = foldover_pair_design(3, order=4)
    assert equivalent(d, ChoiceDesign.from_sets(FOLDOVER_SETS))


def test_direct_add_design_matches_reference_canonically():
    d = theorem2_design(5, 4)
    assert equivalent(d, ChoiceDesign.from_sets(DIRECT_ADD_SETS))
    half = theorem2_half_design(5, 4)
    assert equivalent(half, ChoiceDesign.from_sets(DIRECT_ADD_SETS[:2]))
    assert verify(half, ModelSpec.main_effects(5)).certified


def test_spec_all_design_matches_reference_canonically():
    d = specified_design(4, 4, order=4)
    assert equivalent(d, ChoiceDesign.from_sets(SPEC_ALL_SETS))


def test_spec_group_design_matches_reference_canonically():
    d = specified_design(4, 4, r=2, order=4)
    assert equivalent(d, ChoiceDesign.from_sets(SPEC_GROUP_SETS))


def test_single_set_design_range_checks():
    with pytest.raises(RangeError):
        single_set_design(2, order=8)
    with pytest.raises(RangeError):
        single_set_design(3, order=8)  # 16 options cannot be distinct on 3 bits
    d = single_set_design(3, order=4)
    assert (d.N, d.m, d.n) == (1, 8, 3)
    assert len(set(d.sets[0])) == 8
    assert verify(d, ModelSpec.broader_main_effects(3)).certified


def test_hadamard_single_set_needs_room_for_a_constant_column():
    with pytest.raises(RangeError):
        hadamard_single_set_design(4, order=4)
    d = hadamard_single_set_design(3, order=4)
    assert (d.N, d.m) == (1, 4)
    assert verify(d, ModelSpec.main_effects(3)).certified


def test_direct_add_range_checks():
    with pytest.raises(RangeError):
        theorem2_design(3, 4)  # n <= order-1 belongs to the foldover family
    with pytest.raises(RangeError):
        theorem2_design(5, 1)


def test_direct_add_alpha_growth():
    assert theorem2_design(7, 4).N == 8  # alpha=2: 2^2 * 3 >= 7
    assert theorem2_design(12, 4).N == 8
    assert theorem2_design(13, 4).N == 16


def test_validate_generators():
    validate_generators(GENERATORS_8, 8)
    with pytest.raises(BadGenerators):
        validate_generators(("000",), 3)
    with pytest.raises(BadGenerators):
        validate_generators(("111",), 3)
    with pytest.raises(BadGenerators):
        validate_generators(("100", "100"), 3)
    with pytest.raises(BadGenerators):
        validate_generators(("110", "001"), 3)  # complements
    with pytest.raises(WidthMismatch):
        validate_generators(("10",), 3)


def test_specified_design_parameter_checks():
    with pytest.raises(Unsupported):
        specified_design(4, 5)
    with pytest.raises(Unsupported):
        specified_design(4, 4, order=6)  # no Hadamard matrix of order 6
    with pytest.raises(RangeError):
        specified_design(1, 4)
    with pytest.raises(RangeError):
        specified_design(9, 4, order=8)
    with pytest.raises(RangeError):
        specified_design(3, 4, order=16)  # 16 rows cannot differ on 3 bits
    with pytest.raises(BadGroup):
        specified_design(4, 4, r=0)
    with pytest.raises(BadGroup):
        specified_design(4, 4, r=4)


def test_specified_design_shapes():
    d3 = specified_design(4, 3, order=4)
    assert (d3.N, d3.m) == (8, 3)
    d2f = specified_design(5, 4)
    assert (d2f.N, d2f.m) == (8, 4)
    assert verify(d2f, ModelSpec.specified_two_factor(5)).certified


def test_seed_columns_are_validated():
    with pytest.raises(RangeError):
        specified_design(4, 4, order=4, columns=(2, 3, 4, 1, 1))
    with pytest.raises(RangeError):
        specified_design(4, 4, order=4, columns=(2, 3, 4, 5))
    with pytest.raises(RangeError):
        single_set_design(3, order=8, columns=(1, 2, 3))
    with pytest.raises(RangeError):
        specified_design(4, 4, order=4, columns=(1, 2, 3, 9))


def _walk_columns(order, n, mode):
    """The column walk by brute force: the default columns, then every
    combination in order, until one gives the seed distinct rows."""
    A = zero_one(hadamard(order))
    weights = 1 << np.arange(n, dtype=np.int64)
    pool = range(2 if mode == "excluded" else 1, order + 1)
    for cols in itertools.chain([tuple(pool[:n])],
                                itertools.combinations(pool, n)):
        if mode == "required" and cols[0] != 1:
            continue
        rows = A[:, np.array(cols, dtype=int) - 1] @ weights[:len(cols)]
        if np.unique(rows).size == order:
            return cols
    return None


def test_sylvester_column_search_matches_the_walk():
    # the rank-guided search returns the walk's first column set, or
    # fails where the walk finds none, on every order up to 32
    for order in (1, 2, 4, 8, 16, 32):
        for n in range(1, order + 1):
            for mode in ("required", "excluded", "free"):
                try:
                    got = _resolve_columns(order, n, None, mode)
                except RangeError:
                    got = None
                assert got == _walk_columns(order, n, mode), (order, n, mode)


def test_sylvester_column_search_on_wide_seeds():
    # the walk would try C(127, 7) and C(255, 10) column sets here
    with deadline(10):
        assert _resolve_columns(128, 7, None, "excluded") == \
            (2, 3, 5, 9, 17, 33, 65)
        cols = _resolve_columns(256, 10, None, "excluded")
    assert cols == (2, 3, 4, 5, 6, 9, 17, 33, 65, 129)
    assert np.unique(_seed_rows(256, cols)).size == 256


def _row_checked_columns(order, n, mode):
    """_resolve_columns' default on a Sylvester seed as it was: the first
    n allowed columns, then the rank-guided set, the first whose seed rows
    are distinct, or None; kept as the reference of the rank test."""
    first = 2 if mode == "excluded" else 1
    default = tuple(range(first, order + 1)[:n])
    for cols in (default, _spanning_columns(order, n, first)):
        if cols is None or mode == "required" and cols[0] != 1:
            continue
        if distinct(_seed_rows(order, cols)).size == order:
            return cols
    return None


def test_sylvester_columns_tested_by_rank_equal_the_row_check():
    # every Sylvester order 2..2^10 and every width the seed admits
    # (2^n >= order) up to MAX_INDEX_FACTORS, where the rows are int64
    for k in range(1, 11):
        order = 1 << k
        for n in range(k, min(order, MAX_INDEX_FACTORS) + 1):
            for mode in ("required", "excluded", "free"):
                try:
                    got = _resolve_columns(order, n, None, mode)
                except RangeError:
                    got = None
                assert got == _row_checked_columns(order, n, mode), \
                    (order, n, mode)


def test_sylvester_columns_build_no_seed_rows(monkeypatch):
    # the rank decides, so the 2^20 x 20 rows of the default columns are
    # never built; the parent built them, and the chosen columns' again
    import chogen.constructions

    def refuse(order, cols):
        raise AssertionError("seed rows built")

    monkeypatch.setattr(chogen.constructions, "_seed_rows", refuse)
    with deadline(1):
        cols = _resolve_columns(1 << 20, 20, None, "excluded")
    assert cols == tuple((1 << t) + 1 for t in range(20))


def _scanned_spanning_columns(order, n, first):
    """_spanning_columns as it was, skipping span members one column at a
    time, kept as the reference of the counted search."""
    k = order.bit_length() - 1
    basis, chosen, c = [], [], first - 1
    for slot in range(n):
        if len(basis) + n - slot - 1 < k:
            while c < order and not _gf2_reduce(basis, c):
                c += 1
        if c >= order:
            return None
        v = _gf2_reduce(basis, c)
        if v:
            basis.append(v)
        c += 1
        chosen.append(c)
    return tuple(chosen)


def test_spanning_columns_equal_the_column_scan():
    for k in range(1, 11):
        for n in range(1, k + 3):
            for first in (1, 2):
                assert (_spanning_columns(1 << k, n, first)
                        == _scanned_spanning_columns(1 << k, n, first)), \
                    (k, n, first)


def test_spanning_columns_skip_a_large_span_without_scanning_it():
    # every slot needs a new dimension, so the 0-based columns are the
    # powers of two: before the last, 2^19, the scan walked past all 2^19
    # members of the span below it, one column at a time, for seconds
    with deadline(1):
        cols = _spanning_columns(1 << 20, 20, 2)
    assert cols == tuple((1 << t) + 1 for t in range(20))


def _reduced_basis(vectors) -> list:
    basis = []
    for v in vectors:
        v = _gf2_reduce(basis, v)
        if v:
            basis.append(v)
    return basis


def test_coset_columns_property():
    for m in (3, 4):
        for n in range(2, 10):
            for r in range(1, n):
                k, cols = coset_columns(n, r, m)
                assert len(set(cols)) == n and cols[0] == 1
                assert max(cols) <= 1 << k
                vs = [c - 1 for c in cols]
                # the columns span GF(2)^k, so the 2^k seed rows are distinct
                assert len(_reduced_basis(vs)) == k
                group1, group2 = vs[:r], vs[r:]
                # group 2 is affinely independent: its pairwise xors span E
                # of dimension d = n-r-1, with no even subset xoring to zero
                d = n - r - 1
                E = _reduced_basis(group2[0] ^ v for v in group2[1:])
                assert len(E) == d
                # group 1 takes distinct cosets of E, and avoids group 2's
                # at m=3 and wherever group 2 fills its coset (d <= 1)
                cosets = [_gf2_reduce(E, v) for v in group1]
                assert len(set(cosets)) == r
                if m == 3 or d <= 1:
                    assert _gf2_reduce(E, group2[0]) not in cosets
                # k is the least width that holds the cosets group 1 needs
                needed = r + (m == 3 or d <= 1)
                assert k == d + (needed - 1).bit_length()
    with pytest.raises(RangeError):
        coset_columns(4, 4, 4)
    with pytest.raises(Unsupported):
        coset_columns(4, 1, 5)


def test_independent_columns_property():
    # at m=3 and r=1 the coset rule gives the constant column then
    # columns whose 0-based indices are linearly independent
    for n in range(2, 9):
        cols = coset_columns(n, 1, 3)[1]
        assert len(cols) == n and cols[0] == 1
        vs = [c - 1 for c in cols[1:]]
        # no nonempty subset of the 0-based indices has XOR zero
        for size in range(1, len(vs) + 1):
            for sub in itertools.combinations(vs, size):
                acc = 0
                for v in sub:
                    acc ^= v
                assert acc != 0
    with pytest.raises(RangeError):
        coset_columns(1, 1, 3)


def test_even_free_columns_property():
    # at m=4 and r=1 the coset rule gives the constant column then
    # columns with no even-size subset xoring to zero
    for n in range(4, 10):
        cols = coset_columns(n, 1, 4)[1]
        assert len(cols) == n and cols[0] == 1
        vs = [c - 1 for c in cols[1:]]
        # no even-size subset of the 0-based indices has XOR zero
        for size in range(2, len(vs) + 1, 2):
            for sub in itertools.combinations(vs, size):
                acc = 0
                for v in sub:
                    acc ^= v
                assert acc != 0
    with pytest.raises(RangeError):
        coset_columns(1, 1, 4)


def test_coset_columns_at_r1_are_the_spec_all_columns():
    # the columns the spec-all catalog cells have always used: the
    # constant column then unit columns at m=3 (width 2^(n-1)), and the
    # constant column then 3, 3^1, 3^2, 3^4, ... at m=4 (width 2^(n-2))
    assert coset_columns(12, 1, 3) == (
        11, (1, 2, 3, 5, 9, 17, 33, 65, 129, 257, 513, 1025))
    assert coset_columns(5, 1, 3) == (4, (1, 2, 3, 5, 9))
    assert coset_columns(11, 1, 4) == (
        9, (1, 4, 3, 2, 8, 12, 20, 36, 68, 132, 260))
    assert coset_columns(6, 1, 4) == (4, (1, 4, 3, 2, 8, 12))
    assert coset_columns(4, 1, 4) == (2, (1, 4, 3, 2))
    for n in range(2, 14):
        assert coset_columns(n, 1, 3)[0] == n - 1
        if n >= 4:
            assert coset_columns(n, 1, 4)[0] == n - 2


def test_coset_width_always_meets_the_rank_bound():
    for m in (3, 4):
        for n in range(2, 41):
            for r in range(1, n):
                k = coset_columns(n, r, m)[0]
                N = 2 << k if m == 3 else 1 << k
                assert N * (m - 1) >= n + r * ((1 << (n - r)) - 1)


def test_coset_designs_certify_at_the_predicted_N():
    # every cell with n <= 11: the coset design is UniversallyOptimal, and
    # it is never larger than the default seed when that certifies, nor
    # than the width-2^(n-1) seed the catalog fell back on before
    for m in (3, 4):
        doubling = 2 if m == 3 else 1
        for n in range(2, 12):
            for r in range(1, n):
                model = ModelSpec.specified_group(n, r)
                k, cols = coset_columns(n, r, m)
                d = specified_design(n, m, r, order=1 << k, columns=cols)
                assert d.N == doubling << k
                assert verify(d, model).certified, (n, r, m)
                assert k <= max(n - 1, seed_alpha(n))
                try:
                    base = specified_design(n, m, r,
                                            order=1 << seed_alpha(n))
                except RangeError:
                    continue
                if verify(base, model).certified:
                    assert k <= seed_alpha(n), (n, r, m)


def test_no_narrower_seed_certifies():
    # exhaustive for n <= 4: no distinct columns of width 2^(k-1) give a
    # certified design, so coset_columns' width is the least
    tried = 0
    for m in (3, 4):
        for n in range(2, 5):
            for r in range(1, n):
                k = coset_columns(n, r, m)[0]
                model = ModelSpec.specified_group(n, r)
                for cols in itertools.permutations(range(1, (1 << k - 1) + 1),
                                                   n):
                    if 1 not in cols:
                        continue  # the spec seeds require column 1
                    d = specified_design(n, m, r, order=1 << k - 1,
                                         columns=cols)
                    assert not verify(d, model).certified, (n, r, m, cols)
                    tried += 1
    assert tried == 72


def test_rescue_columns_certify_where_defaults_cannot():
    d = specified_design(6, 4, order=16, columns=coset_columns(6, 1, 4)[1])
    report = verify(d, ModelSpec.specified_one_factor(6))
    assert report.certified and d.N == 16
    # the default seed of width 2^3 provably leaves unbalanced pairs
    bad = verify(specified_design(6, 4),
                 ModelSpec.specified_one_factor(6))
    assert not bad.certified and bad.offending_count > 0


def test_group_reference_design_aliasing_and_rescue():
    """The four-factor group reference design confounds four effect pairs.

    Every option it uses has even weight, so the F1.2.3.4 contrast is +1 on
    the whole support and each listed pair differs by exactly that effect.
    A width-8 seed on coset columns restores estimability.
    """
    d = specified_design(4, 4, r=2, order=4)
    assert {sum(opt) % 2 for s in d.sets for opt in s} == {0}
    report = verify(d, ModelSpec.specified_group(4, 2))
    assert report.verdict is Verdict.NOT_CONNECTED
    assert report.balance_ok and report.trace == report.trace_bound
    assert report.offending_count == 4
    assert {(e1, e2, ep, em) for e1, e2, ep, em in report.offending_pairs} == {
        (effect(1), effect(2, 3, 4), 16, 0),
        (effect(2), effect(1, 3, 4), 16, 0),
        (effect(1, 3), effect(2, 4), 16, 0),
        (effect(1, 4), effect(2, 3), 16, 0),
    }
    rescued = specified_design(4, 4, r=2, order=8,
                               columns=coset_columns(4, 2, 4)[1])
    assert rescued.N == 8
    assert verify(rescued, ModelSpec.specified_group(4, 2)).certified


def test_build_dispatch_round_trip():
    model = ModelSpec.broader_main_effects(4)
    recipe = ConstructionRecipe("foldover-pair", 8, model, 2, order=8)
    d = build(recipe)
    assert (d.N, d.m, d.n) == (2, 8, 4)
    assert verify(d, model).certified
    with pytest.raises(Unsupported):
        build(ConstructionRecipe("bogus-id", 8, model, 2))


def test_build_checks_claimed_sets():
    model = ModelSpec.broader_main_effects(4)
    with pytest.raises(RangeError):
        build(ConstructionRecipe("foldover-pair", 8, model, 7, order=8))


def test_recipe_describe_mentions_parameters():
    model = ModelSpec.specified_group(5, 2)
    recipe = ConstructionRecipe("spec-group-m4", 4, model, 16, alpha=4,
                                columns=(1, 2, 3, 5, 9))
    text = recipe.describe()
    assert "spec-group-m4" in text and "alpha=4" in text and "r=2" in text


# A tuple reference for every construction: seed rows read from
# zero_one(hadamard(order)) one entry at a time, complements and generator
# shifts bit by bit, and direct addition by tuple concatenation.  The
# index-array constructions must give exactly these sets, in this order.

def _ref_rows(order, cols):
    A = zero_one(hadamard(order))
    return [tuple(int(A[i, c - 1]) for c in cols) for i in range(order)]


def _ref_columns(order, n, mode):
    pool = range(2 if mode == "excluded" else 1, order + 1)
    for cols in itertools.chain([tuple(pool[:n])],
                                itertools.combinations(pool, n)):
        if mode == "required" and cols[0] != 1:
            continue
        if len(set(_ref_rows(order, cols))) == order:
            return cols


def _flip(t):
    return tuple(1 - b for b in t)


def _xor(t, g):
    return tuple(a ^ b for a, b in zip(t, g))


def _fold(sets):
    return sets + [tuple(map(_flip, s)) for s in sets]


def _ref_shift_design(rows, gens, m, fold):
    comps = [rows, [_flip(t) for t in rows]]
    for g in gens:
        comps += [[_xor(t, g) for t in c] for c in comps[:2]]
    sets = [tuple(c[p] for c in comps[:m]) for p in range(len(rows))]
    return _fold(sets) if fold else sets


def _ref_theorem1(n, m, gens, fold):
    nu = least_hadamard_order(n)
    rows = _ref_rows(nu, _ref_columns(nu, n, "free"))
    gens = [tuple(int(b) for b in g) for g in gens]
    return _ref_shift_design(rows, gens, m, fold and m % 2 == 1)


def _ref_theorem2(n, m, fold):
    sets = [tuple(_ref_rows(m, range(2, m + 1)))]
    while len(sets[0][0]) < n:
        sets = ([tuple(a + a for a in s) for s in sets]
                + [tuple(a + _flip(a) for a in s) for s in sets])
    sets = [tuple(t[:n] for t in s) for s in sets]
    return _fold(sets) if fold else sets


def _ref_specified(n, m, scope, r=None, alpha=None, columns=None):
    if scope == "two-factor":
        nu = least_hadamard_order(n)
    else:
        nu = 1 << (max(2, (n - 1).bit_length()) if alpha is None else alpha)
    cols = columns or _ref_columns(nu, n, "required")
    k = r if scope == "group" else 1
    g = tuple(1 if i < k else 0 for i in range(n))
    return _ref_shift_design(_ref_rows(nu, cols), [g], m, m == 3)


@pytest.mark.parametrize("n, m, gens", [
    (8, 6, GENERATORS_8), (8, 5, GENERATORS_8), (6, 4, None), (5, 3, None),
    (12, 7, None), (3, 2, None), (11, 5, ("11000000000", "00000000011")),
])
def test_generator_designs_equal_the_tuple_reference(n, m, gens):
    default = default_generators(n, (m - 1) // 2)
    for fn, fold in ((theorem1_design, True), (theorem1_main_design, False)):
        d = fn(n, m, generators=gens)
        assert d.sets == tuple(_ref_theorem1(n, m, gens or default, fold))


@pytest.mark.parametrize("n, m", [(5, 4), (7, 4), (13, 4), (9, 2), (11, 8),
                                  (30, 12)])
def test_direct_add_designs_equal_the_tuple_reference(n, m):
    assert theorem2_half_design(n, m).sets == tuple(_ref_theorem2(n, m, False))
    assert theorem2_design(n, m).sets == tuple(_ref_theorem2(n, m, True))


@pytest.mark.parametrize("n, order", [(3, 4), (4, 4), (7, 8), (8, 8),
                                      (11, 12), (20, 32)])
def test_seed_set_designs_equal_the_tuple_reference(n, order):
    if n < order:
        rows = _ref_rows(order, _ref_columns(order, n, "excluded"))
        d = hadamard_single_set_design(n, order=order)
        assert d.sets == (tuple(rows),)
        assert foldover_pair_design(n, order=order).sets == tuple(_fold([tuple(rows)]))
    if 2 * order <= 1 << n:
        mode = "free" if n == order else "excluded"
        rows = _ref_rows(order, _ref_columns(order, n, mode))
        assert single_set_design(n, order=order).sets == (
            tuple(rows + [_flip(t) for t in rows]),)


@pytest.mark.parametrize("n, m, scope, r, alpha, columns", [
    (4, 4, "all-orders", None, 2, None),
    (4, 3, "all-orders", None, None, None),
    (6, 4, "all-orders", None, 4, (1, 4, 3, 2, 6, 10)),
    (12, 3, "all-orders", None, 11,
     (1, 2, 3, 5, 9, 17, 33, 65, 129, 257, 513, 1025)),
    (5, 4, "two-factor", None, None, None),
    (9, 3, "two-factor", None, None, None),
    (4, 4, "group", 2, 2, None),
    (10, 4, "group", 3, None, None),
    (7, 3, "group", 4, 3, None),
])
def test_specified_designs_equal_the_tuple_reference(n, m, scope, r, alpha,
                                                     columns):
    # scope names the model; its design is the shift by the generator
    # with r leading ones, on the least Hadamard order for two-factor
    # and on 2^alpha (default seed_alpha(n)) otherwise
    order = None if scope == "two-factor" else 1 << (alpha or seed_alpha(n))
    d = specified_design(n, m, r or 1, order=order, columns=columns)
    assert d.sets == tuple(_ref_specified(n, m, scope, r, alpha, columns))


def test_applied_generators_are_the_ones_the_builds_use():
    model = ModelSpec.broader_main_effects(8)
    t1 = ConstructionRecipe("T1-generator", 6, model, 8)
    assert t1.applied_generators() == default_generators(8, 2)
    assert build(t1) == theorem1_design(8, 6, generators=default_generators(8, 2))
    given_gens = ConstructionRecipe("T1-generator", 6, model, 8,
                                    generators=GENERATORS_8)
    assert given_gens.applied_generators() == GENERATORS_8
    group = ConstructionRecipe("spec-group-m4", 4,
                               ModelSpec.specified_group(10, 3), 16)
    assert group.applied_generators() == ((1, 1, 1) + (0,) * 7,)
    spec_all = ConstructionRecipe("spec-all-m3", 3,
                                  ModelSpec.specified_one_factor(5), 16)
    assert spec_all.applied_generators() == ((1, 0, 0, 0, 0),)
    fold = ConstructionRecipe("foldover-pair", 8, model, 2, order=8)
    assert fold.applied_generators() == ()


def _built_or_refused(make):
    try:
        return make()
    except RangeError as exc:
        return str(exc)


def test_spec_recipes_build_the_specified_design():
    # build sends every generator-shift recipe down one route; for the
    # catalog's spec recipes it gives specified_design on the recipe's
    # seed, or the same refusal (n=2 on a width-4 seed)
    for m in (3, 4):
        for n in range(2, 8):
            for kind, r in ([(ModelKind.SPECIFIED_TWO_FACTOR, None),
                             (ModelKind.SPECIFIED_ONE_FACTOR, None)]
                            + [(ModelKind.SPECIFIED_GROUP, r)
                               for r in range(1, n)]):
                for recipe in candidate_recipes(kind, m, n, r):
                    order = None if recipe.alpha is None else 1 << recipe.alpha
                    assert _built_or_refused(lambda: build(recipe)) == \
                        _built_or_refused(lambda: specified_design(
                            n, m, r or 1, order=order,
                            columns=recipe.columns)), recipe.describe()
