"""The certifier: exact counts, trace bound, verdicts."""

import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chogen
from chogen import ratlinalg
from chogen.designs import ChoiceDesign, all_treatments
from chogen.errors import SameEffect, Unsupported
from chogen.models import FactorialEffect, ModelSpec, effect, main_effect_list
from chogen.optimality import (MAX_LISTED_PAIRS, Verdict, _connected,
                               _differences, below_rank_bound, eta_counts,
                               max_trace, np_counts, oracle_cstar, verify)
from chogen.contrasts import (cross_block_star, cstar_matrix,
                              exact_schur_cstar, option_sign_matrix)
from chogen.constructions import specified_design
from conftest import designs, masks_of, random_design
from test_ratlinalg import _rank_by_fractions

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


def test_max_trace_values():
    assert max_trace(2, 2, 2) == Fraction(1, 2)
    assert max_trace(8, 8, 6) == Fraction(1, 32)
    # odd m carries the (m^2 - 1) / m^2 factor
    assert max_trace(3, 3, 3) == Fraction(3 * 8, 8 * 9)
    with pytest.raises(ValueError):
        max_trace(0, 2, 2)
    with pytest.raises(ValueError):
        max_trace(2, 2, 1)


def test_eta_counts():
    d = ChoiceDesign.from_sets([("00", "11"), ("01", "10"), ("00", "01")])
    assert eta_counts(d, effect(1), effect(2)) == (1, 1)
    with pytest.raises(SameEffect):
        eta_counts(d, effect(1), effect(1))


def test_np_counts():
    d = ChoiceDesign.from_sets([("00", "11"), ("00", "01")])
    assert np_counts(d, effect(1)) == (1, 2)
    assert np_counts(d, effect(2)) == (1, 1)


@given(designs())
@settings(max_examples=60)
def test_oracle_matches_matrix_path(d):
    effects = main_effect_list(d.n)
    assert oracle_cstar(d, effects) == cstar_matrix(d, effects)


def test_verify_certifies_optimal_pair():
    d = ChoiceDesign.from_sets([("00", "11"), ("01", "10")])
    report = verify(d, ModelSpec.main_effects(2))
    assert report.verdict is Verdict.UNIVERSALLY_OPTIMAL
    assert report.certified
    assert report.diagonal and report.balance_ok
    assert report.trace == report.trace_bound == Fraction(1, 2)
    assert report.offending_pairs == ()
    assert report.cross_block_zero is None
    assert report.total_component_pairs == 2


def test_verify_flags_unbalanced_single_set():
    # one set (00, 11): trace reaches the bound but C is not diagonal
    d = ChoiceDesign.from_sets([("00", "11")])
    report = verify(d, ModelSpec.main_effects(2))
    assert report.verdict is Verdict.NOT_CONNECTED
    assert not report.diagonal
    assert report.trace == report.trace_bound
    assert report.offending_pairs == ((effect(1), effect(2), 1, 0),)
    assert report.offending_count == 1


def test_verify_connected_not_optimal():
    d = ChoiceDesign.from_sets([("00", "01"), ("00", "11")])
    report = verify(d, ModelSpec.main_effects(2))
    assert report.verdict is Verdict.CONNECTED_NOT_OPTIMAL
    assert not report.balance_ok
    assert report.trace < report.trace_bound


def test_verify_np_table():
    d = ChoiceDesign.from_sets([("00", "11"), ("00", "01")])
    report = verify(d, ModelSpec.main_effects(2))
    assert report.np_table.shape == (2, 2)
    assert report.np_table.tolist() == [[1, 1], [2, 1]]
    with pytest.raises(ValueError):
        report.np_table[0, 0] = 9


def test_np_table_is_a_small_read_only_view():
    # the zero counts stay in the small type verify computed them in: an
    # int64 copy would take 67 MB on this cell
    from chogen.serialization import load
    d, _ = load(str(INPUTS / "spec-all-m3-n12.json"))
    model = ModelSpec.specified_one_factor(d.n)
    report = verify(d, model)
    table = report.np_table
    assert table.shape == (d.N, model.Q) and table.dtype == np.int8
    assert not table.flags.writeable
    assert ((table >= 0) & (table <= d.m)).all()
    # balanced m = 3 sets: one or two zeros per set
    assert set(np.unique(table).tolist()) <= {1, 2}


def test_verify_holds_no_dense_cstar_on_the_join():
    # C* of this cell has Q = 2059 nonzero entries among Q^2; verify reads
    # them from the join, so it never holds Q^2 int64 (34 MB)
    import tracemalloc
    from chogen.serialization import load
    from conftest import deadline
    d, _ = load(str(INPUTS / "spec-all-m3-n12.json"))
    model = ModelSpec.specified_one_factor(d.n)
    with deadline(30):
        verify(d, model)
        tracemalloc.start()
        try:
            report = verify(d, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert report.certified
    assert peak < model.Q ** 2 * 8


def test_verify_keeps_one_set_sum_array():
    # the sets translate one pattern by one coset, so verify reads the Q
    # pattern weights and the joined C*, and forms no per-set sums S: the
    # zero counts wait for a read of np_table.  No (Q, N) int8 array fits
    # under the bound
    import tracemalloc
    from chogen.serialization import load
    from conftest import deadline
    d, _ = load(str(INPUTS / "spec-all-m3-n12.json"))
    model = ModelSpec.specified_one_factor(d.n)
    with deadline(30):
        verify(d, model)
        tracemalloc.start()
        try:
            report = verify(d, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert report.certified
    assert peak < 0.25 * model.Q * d.N


def test_verify_reads_no_per_set_sums_and_builds_the_table_on_read(
        monkeypatch):
    # verify certifies this keyed design from its pattern weights and the
    # joined C*, with no call for the (Q, N) per-set sums; np_table forms
    # them on its first read, a sample of its columns checked by np_counts
    from chogen import contrasts
    from chogen.serialization import load
    d, _ = load(str(INPUTS / "spec-all-m3-n12.json"))
    model = ModelSpec.specified_one_factor(d.n)
    real = contrasts.set_sums

    def refuse_full(d, masks, *rest):
        assert len(masks) < model.Q, "verify formed the (Q, N) per-set sums"
        return real(d, masks, *rest)

    monkeypatch.setattr(contrasts, "set_sums", refuse_full)
    report = verify(d, model)
    assert report.certified
    monkeypatch.undo()
    table = report.np_table
    assert table.shape == (d.N, model.Q) and report.np_table is table
    for q in [*range(0, model.Q, 103), model.Q - 1]:
        assert tuple(table[:, q]) == np_counts(d, model.interest[q]), q


@pytest.mark.parametrize("name", ["broader-m6-n8", "translated", "random"])
def test_verify_reads_the_translates_once(monkeypatch, name):
    # broader m6 n8 is keyed and has a cross block; the other two take the
    # product route and list offending pairs.  verify finds the pattern
    # once, and the coset of its translations once when it holds
    from chogen import designs
    if name == "translated":
        # the pattern {0, 3} translated by 0, 4 and 8: three translations
        # are no coset, and F3, F4 pair up
        d = ChoiceDesign.from_indices(np.array([[0, 3], [4, 7], [8, 11]]), 4)
    elif name == "random":
        d = random_design(random.Random(3), 5, 3, 12)
    else:
        d, _ = chogen.load(str(INPUTS / f"{name}.json"))
    # a copy reads its own translates, so d's count starts at zero
    pattern, basis = copy.copy(d).translates
    assert (pattern is not None, basis is not None) == {
        "broader-m6-n8": (True, True), "translated": (True, False),
        "random": (False, False)}[name]
    calls = {"_pattern": 0, "_coset": 0}
    for fn in calls:
        def counted(*args, fn=fn, real=getattr(designs, fn)):
            calls[fn] += 1
            return real(*args)
        monkeypatch.setattr(designs, fn, counted)
    report = verify(d, ModelSpec.broader_main_effects(d.n))
    assert calls == {"_pattern": 1, "_coset": int(pattern is not None)}
    assert report.cross_block_zero is not None
    assert report.offending_count > 0 or name == "broader-m6-n8"


def test_every_reader_of_a_loaded_design_shares_its_translates(monkeypatch):
    # verify, both info_matrix routes, the Schur complement and np_table
    # read one design's pattern and coset once between them; the keyed
    # blocks form no (Q, N) interest sums, which np_table alone reads
    from chogen import contrasts, designs
    from chogen.contrasts import info_matrix
    d, _ = chogen.load(str(INPUTS / "broader-m6-n8.json"))
    model = ModelSpec.broader_main_effects(d.n)
    interest, nuisance = model.masks_on(d.n)
    calls = {"_pattern": 0, "_coset": 0, "interest_sums": 0}
    for fn in ("_pattern", "_coset"):
        def counted(*args, fn=fn, real=getattr(designs, fn)):
            calls[fn] += 1
            return real(*args)
        monkeypatch.setattr(designs, fn, counted)

    def sums(d, masks, real=contrasts.set_sums):
        calls["interest_sums"] += np.array_equal(masks, interest)
        return real(d, masks)
    monkeypatch.setattr(contrasts, "set_sums", sums)
    report = verify(d, model)
    info_matrix(d, model)
    info_matrix(d, model, force_numeric=True)
    exact_schur_cstar(d, interest, nuisance)
    assert calls == {"_pattern": 1, "_coset": 1, "interest_sums": 0}
    table = report.np_table
    assert calls == {"_pattern": 1, "_coset": 1, "interest_sums": 1}
    # copies and pickles rebuild through from_indices and read again
    for again in (copy.copy(d), pickle.loads(pickle.dumps(d))):
        assert again == d and "translates" not in vars(again)
        again_report = verify(again, model)
        assert again_report.verdict is report.verdict
        assert np.array_equal(again_report.np_table, table)
    assert calls["_pattern"] == calls["_coset"] == 3


@pytest.mark.parametrize("m,n,r", [(4, 30, 22), (3, 24, 16)])
def test_wide_spec_group_verify_stays_small(m, n, r):
    # the certified wide spec-group cells translate one pattern by a 12- and
    # a 13-dimensional coset; a warm verify reads their weights and joined
    # C*, where the (Q, N) int8 per-set sums alone were 23 and 34 MB
    import tracemalloc
    from chogen.catalog import candidate_recipes
    from chogen.constructions import build
    from chogen.models import ModelKind
    from conftest import deadline
    recipe = candidate_recipes(ModelKind.SPECIFIED_GROUP, m, n, r)[-1]
    d = build(recipe)
    with deadline(30):
        verify(d, recipe.model)
        tracemalloc.start()
        try:
            report = verify(d, recipe.model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert report.certified
    assert peak < 4 * 2 ** 20


def test_verify_holds_one_dense_cstar_on_the_rank_path(monkeypatch):
    # a linked random design on the product route: C* is dense and has
    # full rank Q = 521.  verify reads C* a chunk of rows at a time and
    # holds no block of it.  The peak is the witness's, which holds the
    # treatment graph's int8 D (T - c = 1023 rows), the float32 copies that
    # form its Gram G, and G, its inverse and the check's product in
    # float64, about 5.2 Q x Q int64 arrays' worth; with the witness forced
    # to give none, it is the rank's, which holds D, its int64 residues
    # (formed from the int8 D, with no int64 copy) and the elimination's
    # temporaries, about 5.4
    import tracemalloc
    from conftest import deadline
    rng = np.random.default_rng(1)
    sets = np.concatenate([rng.permutation(1 << 10) for _ in range(2)])
    d = ChoiceDesign.from_indices(sets.reshape(512, 4), 10)
    model = ModelSpec.specified_one_factor(10)
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(ratlinalg, "independence_witness",
                                lambda D, Q: None)
        with deadline(60):
            verify(d, model)
            tracemalloc.start()
            try:
                report = verify(d, model)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert report.verdict is Verdict.CONNECTED_NOT_OPTIMAL
        assert peak < 8 * model.Q ** 2 * 8


def test_verify_holds_no_dense_cstar_on_the_product_route():
    # a random design takes the product route, whose C* is dense: 4.2 M
    # nonzero entries of Q = 2059.  verify reads them a chunk of rows at a
    # time, and the treatment graph's T - c = 1535 < Q needs no D, so the
    # peak stays below half of one Q x Q int64 block
    import tracemalloc
    from chogen import contrasts
    from conftest import deadline
    rng = np.random.default_rng(0)
    d = ChoiceDesign.from_indices(
        np.array([rng.choice(4096, 5, replace=False) for _ in range(400)]), 12)
    model = ModelSpec.specified_one_factor(12)
    masks = masks_of(model.interest, d.n)
    assert contrasts.cstar_entries(d, masks, masks).__name__ == "_product"
    with deadline(60):
        verify(d, model)
        tracemalloc.start()
        try:
            report = verify(d, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert report.verdict is Verdict.NOT_CONNECTED
    assert peak < model.Q ** 2 * 8 // 2


def test_verify_broader_cross_block_flag():
    d = ChoiceDesign.from_sets([("00", "11"), ("01", "10")])
    report = verify(d, ModelSpec.broader_main_effects(2))
    assert report.cross_block_zero is True
    assert report.certified
    d_bad = ChoiceDesign.from_sets([("00", "01")])
    report = verify(d_bad, ModelSpec.broader_main_effects(2))
    assert report.cross_block_zero is False
    assert not report.certified


def _count_sign_matrices(monkeypatch) -> list:
    from chogen import contrasts
    calls = []
    original = contrasts.option_sign_matrix

    def counted(d, effects):
        calls.append(tuple(effects))
        return original(d, effects)

    monkeypatch.setattr(contrasts, "option_sign_matrix", counted)
    return calls


def test_verify_builds_each_sign_matrix_once(monkeypatch):
    # diagonal C* with a nonzero cross block and N(m-1) >= Q: the rank path
    # ranks the treatment graph's D, which reads the parities of the
    # distinct treatments alone, so no sign matrix is built
    calls = _count_sign_matrices(monkeypatch)
    d = ChoiceDesign.from_sets([("00", "01"), ("00", "10")])
    model = ModelSpec.broader_main_effects(2)
    report = verify(d, model)
    assert report.diagonal
    assert report.cross_block_zero is False
    assert report.verdict is Verdict.NOT_CONNECTED
    assert calls == []


def test_rank_path_without_cross_block_builds_no_sign_matrix(monkeypatch):
    # the rank test ranks the treatment graph's D, and the listed pairs'
    # eta counts come from per-set sums: no sign matrix at all
    calls = _count_sign_matrices(monkeypatch)
    d = ChoiceDesign.from_sets([("000", "011"), ("000", "101"),
                                ("000", "110"), ("001", "111")])
    model = ModelSpec.main_effects(3)
    report = verify(d, model)
    assert d.N * (d.m - 1) >= model.Q and not report.diagonal
    assert report.verdict is Verdict.CONNECTED_NOT_OPTIMAL
    assert report.offending_pairs
    assert calls == []


def test_certified_verify_builds_no_sign_matrix(monkeypatch):
    calls = _count_sign_matrices(monkeypatch)
    d, meta = chogen.load(str(INPUTS / "spec-group-m4-n10-r3.json"))
    report = verify(d, ModelSpec.specified_group(d.n, meta["r"]))
    assert report.certified
    assert calls == []


def test_offending_pairs_build_signs_of_listed_effects_only(monkeypatch):
    # the listing reads the eta counts from per-set sums, and the rank path
    # ranks D, so a design with offending pairs builds no sign matrix, with
    # a nonzero cross block or without one
    calls = _count_sign_matrices(monkeypatch)
    d = specified_design(8, 4)
    model = ModelSpec.specified_one_factor(8)
    report = verify(d, model)
    assert d.N * (d.m - 1) < model.Q  # so no rank path
    assert len(report.offending_pairs) == MAX_LISTED_PAIRS
    assert calls == []
    d = ChoiceDesign.from_sets([("000", "011"), ("000", "101"),
                                ("000", "110"), ("001", "111")])
    model = ModelSpec.broader_main_effects(3)
    report = verify(d, model)
    assert d.N * (d.m - 1) >= model.Q and report.offending_pairs
    assert report.cross_block_zero is False
    assert calls == []


def test_offending_pair_listing_is_capped():
    # a wide unbalanced design produces more bad pairs than the report lists
    d = specified_design(8, 4)
    report = verify(d, ModelSpec.specified_one_factor(8))
    assert not report.diagonal
    assert report.offending_count > MAX_LISTED_PAIRS
    assert len(report.offending_pairs) == MAX_LISTED_PAIRS


def test_verify_summary_lines():
    d = ChoiceDesign.from_sets([("00", "11")])
    report = verify(d, ModelSpec.main_effects(2))
    text = report.summary()
    assert "verdict: NotConnected" in text
    assert "eta+=1" in text
    assert "trace: 1/2 (bound 1/2)" in text


def test_eta_and_np_identities_on_random_designs():
    rng = random.Random(20260814)
    for _ in range(25):
        n = rng.randint(1, 3)
        m = rng.randint(2, min(4, 1 << n))
        d = random_design(rng, n, m, rng.randint(1, 5))
        effects = main_effect_list(n)
        C = cstar_matrix(d, effects).ints
        for q1 in range(n):
            for q2 in range(q1 + 1, n):
                ep, em = eta_counts(d, effects[q1], effects[q2])
                assert C[q1, q2] == 4 * (ep - em)
        for q in range(n):
            zeros = np_counts(d, effects[q])
            assert C[q, q] == sum(4 * z * (m - z) for z in zeros)


@st.composite
def designs_with_listings(draw):
    """Random designs of all five families, n = 2-8, m = 2-130, N = 1-3.

    Up to m = 127 the per-set sums are int8; from 128 on they are int16.
    """
    n = draw(st.integers(2, 8))
    family = draw(st.sampled_from(
        ("main-effects", "broader", "spec-all", "spec-2f", "spec-group")))
    r = draw(st.integers(1, n - 1)) if family == "spec-group" else None
    model = ModelSpec.family(family, n, r)
    m = draw(st.integers(2, min(130, 1 << n)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return random_design(rng, n, m, draw(st.integers(1, 3))), model


@given(designs_with_listings())
@example((random_design(random.Random(130), 8, 130, 2),
          ModelSpec.specified_one_factor(8)))
@example((random_design(random.Random(127), 7, 127, 3),
          ModelSpec.specified_group(7, 2)))
@settings(max_examples=60, deadline=None)
def test_listed_eta_counts_match_the_per_treatment_reference(case):
    d, model = case
    report = verify(d, model)
    for e1, e2, eta_plus, eta_minus in report.offending_pairs:
        assert (eta_plus, eta_minus) == eta_counts(d, e1, e2)


@given(designs(min_n=2))
@settings(max_examples=40)
def test_trace_never_exceeds_bound(d):
    report = verify(d, ModelSpec.main_effects(d.n))
    assert report.trace <= report.trace_bound


def _reference_connected(d, model) -> bool:
    """Sylvester's criterion in Fractions on C*, or on the exact Schur C2*."""
    if model.nuisance and cross_block_star(d, model.interest,
                                           model.nuisance).any():
        C = exact_schur_cstar(d, model.interest, model.nuisance)
    else:
        C = cstar_matrix(d, model.interest).ints.tolist()
    return ratlinalg.is_positive_definite(C)


@st.composite
def designs_with_models(draw):
    n = draw(st.integers(2, 4))
    family = draw(st.sampled_from(
        ("main-effects", "broader", "spec-all", "spec-2f", "spec-group")))
    if family == "main-effects":
        model = ModelSpec.main_effects(n)
    elif family == "broader":
        model = ModelSpec.broader_main_effects(n)
    elif family == "spec-all":
        model = ModelSpec.specified_one_factor(n)
    elif family == "spec-2f":
        model = ModelSpec.specified_two_factor(n)
    else:
        model = ModelSpec.specified_group(n, draw(st.integers(1, n - 1)))
    m = draw(st.integers(2, 4))
    # N up to Q + 2 covers both sides of the rank bound N(m-1) < Q
    N = draw(st.integers(1, model.Q + 2))
    pool = all_treatments(n)
    sets = [tuple(draw(st.permutations(pool))[:m]) for _ in range(N)]
    return ChoiceDesign.from_sets(sets), model


@given(designs_with_models())
@settings(max_examples=150, deadline=None)
def test_rank_verdict_matches_fraction_reference(case):
    d, model = case
    report = verify(d, model)
    connected = _reference_connected(d, model)
    if report.certified:
        assert connected
    else:
        assert (report.verdict is Verdict.CONNECTED_NOT_OPTIMAL) == connected


@st.composite
def designs_below_the_rank_bound(draw):
    """Random designs of all five families, n = 2-6, with N(m-1) < Q."""
    n = draw(st.integers(2, 6))
    family = draw(st.sampled_from(
        ("main-effects", "broader", "spec-all", "spec-2f", "spec-group")))
    r = draw(st.integers(1, n - 1)) if family == "spec-group" else None
    model = ModelSpec.family(family, n, r)
    m = draw(st.integers(2, min(6, model.Q, 1 << n)))
    N = draw(st.integers(1, (model.Q - 1) // (m - 1)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return random_design(rng, n, m, N), model


@given(designs_below_the_rank_bound())
@settings(max_examples=100, deadline=None)
def test_designs_below_the_rank_bound_never_certify(case):
    # what lets catalog.first_certified refuse such recipes unbuilt
    d, model = case
    assert below_rank_bound(d.N, d.m, model.Q)
    report = verify(d, model)
    assert not report.certified
    assert report.verdict is Verdict.NOT_CONNECTED


def _within_set_differences(d, masks):
    """The (N(m-1), Q) within-set difference matrix A of the contrast signs,
    the reference for the treatment graph's D.

    Row (p, i) is (x_{p,i} - x_{p,0})/2, with entries in {-1, 0, 1}, from
    the option sign matrix.
    """
    signs = option_sign_matrix(d, masks).reshape(-1, d.N, d.m)
    A = (signs[:, :, 1:] - signs[:, :, :1]) // 2
    return A.reshape(masks.size, -1).T


@st.composite
def designs_on_the_rank_path(draw, tall=False):
    """Random designs of all five families, n = 4-6, with N(m-1) >= Q, or
    with tall, N(m-1) at least the effects of interest and nuisance and up
    to twice that, so that D is often tall, as independence_witness needs.

    The options may come from a restricted pool of treatments, split into
    up to three groups that each set keeps within, so the treatment graph
    has several components; and the sets may repeat a few distinct ones.
    """
    n = draw(st.integers(4, 6))
    family = draw(st.sampled_from(
        ("main-effects", "broader", "spec-all", "spec-2f", "spec-group")))
    r = draw(st.integers(1, n - 1)) if family == "spec-group" else None
    model = ModelSpec.family(family, n, r)
    m = draw(st.integers(2, 4))
    if tall:
        cols = model.Q + len(model.nuisance_masks)
        N = -(-cols // (m - 1)) + draw(st.integers(0, -(-cols // (m - 1))))
    else:
        N = -(-model.Q // (m - 1)) + draw(st.integers(0, 2))
    rng = random.Random(draw(st.integers(0, 2**32)))
    groups = draw(st.integers(1, 3))
    pool = rng.sample(all_treatments(n), draw(st.integers(groups * m, 1 << n)))
    parts = [pool[g::groups] for g in range(groups)]
    sets = [tuple(rng.sample(rng.choice(parts), m))
            for _ in range(draw(st.sampled_from((N, 1, 2, 5))))]
    design = ChoiceDesign.from_sets([sets[p % len(sets)] for p in range(N)])
    return design, model


@given(designs_on_the_rank_path())
@settings(max_examples=60, deadline=None)
def test_rank_path_verdict_matches_fraction_rank_of_differences(case):
    # verify ranks the treatment graph's D; the reference ranks the
    # within-set difference matrix A in Fractions, so this pins
    # rank D = rank A = rank C* where the route changed
    d, model = case
    Q = model.Q
    assert d.N * (d.m - 1) >= Q
    masks = masks_of(model.interest + model.nuisance, d.n)
    A = _within_set_differences(d, masks)
    D = _differences(d, masks)
    assert D.dtype == np.int8 and D.shape[0] <= d.N * (d.m - 1)
    assert ratlinalg.rank(D) == _rank_by_fractions(A.tolist())
    assert ratlinalg.rank(D[:, :Q]) == _rank_by_fractions(A[:, :Q].tolist())
    assert ratlinalg.rank(cstar_matrix(d, model.interest).ints) == \
        _rank_by_fractions(A[:, :Q].tolist())
    report = verify(d, model)
    if report.cross_block_zero is False:
        connected = (_rank_by_fractions(A.tolist())
                     - _rank_by_fractions(A[:, Q:].tolist()) == Q)
    else:
        connected = _rank_by_fractions(A[:, :Q].tolist()) == Q
    if report.certified:
        assert connected
    else:
        assert (report.verdict is Verdict.CONNECTED_NOT_OPTIMAL) == connected


@given(st.one_of(designs_on_the_rank_path(),
                 designs_on_the_rank_path(tall=True)))
@settings(max_examples=80, deadline=None)
def test_witness_agrees_with_the_ranks(case):
    # the witness, when it answers, gives the ranks' verdict, on all five
    # families, the broader model's nuisance among them; and _connected
    # gives that verdict with the witness or, forced to give none, without
    from unittest import mock
    d, model = case
    effects, nuisance = model.masks_on(d.n)
    Q = effects.size
    D = _differences(d, np.concatenate((effects, nuisance)))
    by_ranks = ratlinalg.rank(D) - ratlinalg.rank(D[:, Q:]) == Q
    assert ratlinalg.independence_witness(D, Q) in (None, by_ranks)
    assert _connected(d, effects, nuisance) is by_ranks
    with mock.patch.object(ratlinalg, "independence_witness",
                           lambda D, Q: None):
        assert _connected(d, effects, nuisance) is by_ranks


def _linked_design(rng, n, m, N):
    """N sets of m options cut from whole permutations of the 2^n
    treatments, drawn until the sets link every treatment: the treatment
    graph is then one component of 2^n vertices, with 2^n - 1 rows."""
    size = 1 << n
    while True:
        sets = np.concatenate([rng.permutation(size)[:size - size % m]
                               for _ in range(-(-N * m // size))])
        d = ChoiceDesign.from_indices(sets[:N * m].reshape(N, m), n)
        if _differences(d, np.array([1])).shape[0] == size - 1:
            return d


@pytest.mark.parametrize("seed", [303, 101])
def test_witness_decides_audit_sized_designs(seed):
    # random designs of the benchmark's audit sizes: a deficient spec-all
    # D (about 193 x 135), a linked full-rank one (255 x 135) and a broader
    # one with nuisance (96 x 78); the witness decides each, as the ranks do
    rng = np.random.default_rng(seed)
    cases = [
        (ChoiceDesign.from_indices(np.array(
            [rng.choice(256, 3, replace=False) for _ in range(128)]), 8),
         ModelSpec.specified_one_factor(8), False),
        (_linked_design(rng, 8, 4, 256), ModelSpec.specified_one_factor(8),
         True),
        (ChoiceDesign.from_indices(np.array(
            [rng.choice(4096, 3, replace=False) for _ in range(48)]), 12),
         ModelSpec.broader_main_effects(12), True),
    ]
    for d, model, connected in cases:
        effects, nuisance = model.masks_on(d.n)
        Q = effects.size
        D = _differences(d, np.concatenate((effects, nuisance)), Q)
        assert (ratlinalg.rank(D) - ratlinalg.rank(D[:, Q:]) == Q) is connected
        assert ratlinalg.independence_witness(D, Q) is connected


@pytest.mark.parametrize("sets, verdict", [
    ([("00", "10", "01")], Verdict.NOT_CONNECTED),
    ([("01", "00", "10"), ("00", "01", "11")], Verdict.CONNECTED_NOT_OPTIMAL),
])
def test_nonzero_cross_block_route_both_outcomes(sets, verdict):
    d = ChoiceDesign.from_sets(sets)
    model = ModelSpec.broader_main_effects(2)
    assert d.N * (d.m - 1) >= model.Q
    report = verify(d, model)
    assert report.cross_block_zero is False
    assert report.verdict is verdict
    assert _reference_connected(d, model) == (
        verdict is Verdict.CONNECTED_NOT_OPTIMAL)


def test_treatment_graph_decides_without_rank(monkeypatch):
    # spec-all n = 10, m = 3, Q = 521 <= N(m-1): 50 random sets repeated to
    # N = 300, and 261 random sets.  Their treatment graphs have T - c < Q
    # rows, so both are NotConnected with no rank; ranking C* took 7-60 s
    from conftest import deadline

    def refuse(M):
        raise AssertionError("rank must not run when T - c < Q")
    monkeypatch.setattr(ratlinalg, "rank", refuse)
    model = ModelSpec.specified_one_factor(10)
    rng = random.Random(300)
    repeated = random_design(rng, 10, 3, 50).indices
    for d in (ChoiceDesign.from_indices(np.tile(repeated, (6, 1)), 10),
              random_design(rng, 10, 3, 261)):
        assert not below_rank_bound(d.N, d.m, model.Q)
        with deadline(10):
            report = verify(d, model)
        assert report.verdict is Verdict.NOT_CONNECTED
        assert _differences(d, masks_of(model.interest, 10)).shape[0] < model.Q


@pytest.fixture(scope="module")
def certifier():
    """perfbench/certifier.py, the benchmark's independent checker, imported
    through sys.path without writing a bytecode cache beside it."""
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, str(INPUTS.parent))
    try:
        import certifier
    finally:
        sys.path.remove(str(INPUTS.parent))
        sys.dont_write_bytecode = written
    return certifier


@pytest.mark.parametrize("family, n, m, N, r, most", [
    ("spec-all", 8, 3, 128, None, 1),  # the audit's shapes
    ("broader", 12, 3, 48, None, 1),
    ("spec-group", 5, 3, 12, 2, 3),  # small ones with several components
    ("spec-2f", 5, 3, 6, None, 3),
    ("main-effects", 6, 2, 8, None, 3),
])
def test_verdicts_agree_with_the_benchmark_certifier(certifier, family, n, m,
                                                     N, r, most):
    # six seeded designs per shape, whose sets keep within one of 1 to
    # `most` random parts of the 2^n treatments
    model = ModelSpec.family(family, n, r)
    rng = random.Random(f"{family}-{n}")
    for seed in range(6):
        groups = 1 + seed % most
        pool = rng.sample(range(1 << n), 1 << n)
        parts = [pool[g::groups] for g in range(groups)]
        x = np.array([rng.sample(rng.choice(parts), m) for _ in range(N)])
        want = certifier.certify(x, n, family, r).verdict()
        d = ChoiceDesign.from_indices(x, n)
        assert verify(d, model).verdict.value == want, (family, seed)


def test_rank_bound_decides_without_rank(monkeypatch):
    def refuse(M):
        raise AssertionError("rank must not run below the rank bound")
    monkeypatch.setattr(ratlinalg, "rank", refuse)
    # N(m-1) = 3 < Q = 4, and C* is not diagonal
    d = ChoiceDesign.from_sets([("0000", "1100"), ("0000", "0110"),
                                ("0000", "0011")])
    report = verify(d, ModelSpec.main_effects(4))
    assert not report.diagonal
    assert report.verdict is Verdict.NOT_CONNECTED


def test_widest_supported_design_verifies():
    n = 63
    d = ChoiceDesign.from_sets([("0" * n, "1" * n),
                                ("01" * 31 + "0", "10" * 31 + "1")])
    report = verify(d, ModelSpec.main_effects(n))
    assert report.verdict is Verdict.NOT_CONNECTED


def test_64_factors_are_unsupported():
    n = 64
    d = ChoiceDesign.from_sets([("0" * n, "1" * n)])
    with pytest.raises(Unsupported):
        verify(d, ModelSpec.main_effects(n))


def test_invariant_checks_survive_python_O():
    # corrupt every exact product by one; the diagonal cross-check must fire
    script = textwrap.dedent("""
        from chogen import contrasts
        from chogen.designs import ChoiceDesign
        from chogen.errors import InvariantError
        from chogen.models import ModelSpec
        from chogen.optimality import verify
        assert False, "asserts must be off under -O"
        real = contrasts.int_product
        contrasts.int_product = lambda A, B: real(A, B) + 1
        # not one pattern's translates, so C* is formed by int_product
        d = ChoiceDesign.from_sets([("00", "11"), ("01", "10"), ("00", "01")])
        try:
            verify(d, ModelSpec.main_effects(2))
        except InvariantError:
            print("InvariantError")
    """)
    src = os.path.dirname(os.path.dirname(chogen.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "InvariantError"


@pytest.mark.parametrize("row", [0, -1])
def test_diagonal_cross_check_reads_every_row_chunk(monkeypatch, row):
    # one wrong diagonal entry of C*, in the first or the last of the
    # product route's single-row chunks, fails verify, whose check also
    # reads the per-set sums a row at a time
    from chogen import contrasts
    from chogen.errors import InvariantError
    real = contrasts.cstar_entries

    def off_by_one(d, r, c, *rest):
        chunks = list(real(d, r, c, *rest))
        i, j, v = chunks[row]
        v[np.flatnonzero(i == j)[row]] -= 1
        return iter(chunks)

    d = random_design(random.Random(5), 4, 3, 8)
    model = ModelSpec.main_effects(4)
    masks = masks_of(model.interest, d.n)
    monkeypatch.setattr(contrasts, "_CHUNK", model.Q)
    entries = contrasts.cstar_entries(d, masks, masks)
    assert entries.__name__ == "_product"
    assert [np.unique(i).size for i, _, _ in entries] == [1] * model.Q
    monkeypatch.setattr(contrasts, "cstar_entries", off_by_one)
    with pytest.raises(InvariantError, match="diagonal"):
        verify(d, model)


@pytest.mark.parametrize("m", [64, 127, 128])
def test_large_sets_keep_the_per_set_sums_exact(m):
    # per-set sums of up to 127 options fit in int8, 128 needs int16;
    # neither they nor the zero counts may wrap
    from chogen.contrasts import contrast_matrix, lambda_star
    rng = random.Random(m)
    d = random_design(rng, 7, m, 3)
    model = ModelSpec.specified_one_factor(7)
    report = verify(d, model)
    for q, e in enumerate(model.interest):
        assert tuple(report.np_table[:, q]) == np_counts(d, e)
    B = contrast_matrix(model.interest, 7)
    assert np.array_equal(cstar_matrix(d, model.interest).ints,
                          B @ lambda_star(d).ints @ B.T)


def _former_set_sums(d, effects):
    """set_sums as it was before S was built in place: the odd counts, their
    signed copy and S = m - odd - odd are three (Q, N) arrays."""
    from chogen import contrasts
    masks = masks_of(effects, d.n)
    columns = np.ascontiguousarray(d.indices.T)
    odd = np.zeros((len(masks), d.N), dtype=np.min_scalar_type(d.m))
    step = max(1, contrasts._CHUNK // d.N)
    for lo in range(0, len(masks), step):
        block = masks[lo:lo + step, None]
        acc = odd[lo:lo + step]
        for col in columns:
            bit = np.bitwise_count(block & col)
            bit &= 1
            acc += bit
    odd = odd.astype(np.min_scalar_type(-d.m - 1))
    S = d.m - odd
    S -= odd
    S *= contrasts._effect_signs(masks).astype(S.dtype)[:, None]
    return S


def _former_report(d, model) -> dict:
    """The report fields by verify's former formulas, from a dense C*."""
    from chogen.contrasts import cstar_block
    m, N, Q, effects = d.m, d.N, model.Q, model.interest
    S = _former_set_sums(d, effects)
    balance_ok = bool(-(m % 2) <= S.min() and S.max() <= m % 2)
    np_table = (m - S.astype(np.min_scalar_type(-4 * m * m))) // 2
    C = cstar_block(d, effects, effects)
    per_set = 4 * (np_table * (m - np_table)).sum(axis=1, dtype=np.int64)
    assert np.array_equal(np.diagonal(C), per_set)
    q1, q2 = np.nonzero(C)
    upper = q1 < q2
    q1, q2 = q1[upper][:MAX_LISTED_PAIRS], q2[upper][:MAX_LISTED_PAIRS]
    s1, s2 = S[q1].astype(np.int64), S[q2].astype(np.int64)
    joints = [FactorialEffect(tuple(sorted(set(effects[a].factors)
                                           ^ set(effects[b].factors))))
              for a, b in zip(q1, q2)]
    s12 = _former_set_sums(d, joints).astype(np.int64)
    eta_plus = (((m + s1 + s2 + s12) // 4) * ((m - s1 - s2 + s12) // 4)).sum(axis=1)
    eta_minus = (((m + s1 - s2 - s12) // 4) * ((m - s1 + s2 - s12) // 4)).sum(axis=1)
    offending = tuple((effects[a], effects[b], ep, em) for a, b, ep, em in
                      zip(q1.tolist(), q2.tolist(), eta_plus.tolist(),
                          eta_minus.tolist()))
    trace = int(np.trace(C)) * Fraction(1, (1 << d.n) * N * m * m)
    cross_zero = None
    if model.nuisance:
        cross_zero = not cstar_block(d, effects, model.nuisance).any()
    if (not upper.any() and balance_ok and trace == max_trace(Q, d.n, m)
            and cross_zero in (None, True)):
        verdict = Verdict.UNIVERSALLY_OPTIMAL
    elif below_rank_bound(N, m, Q):
        verdict = Verdict.NOT_CONNECTED
    elif cross_zero in (None, True):
        verdict = (Verdict.CONNECTED_NOT_OPTIMAL if ratlinalg.rank(C) == Q
                   else Verdict.NOT_CONNECTED)
    else:
        A = _within_set_differences(d, masks_of(effects + model.nuisance, d.n))
        full = ratlinalg.rank(A) - ratlinalg.rank(A[:, Q:]) == Q
        verdict = (Verdict.CONNECTED_NOT_OPTIMAL if full
                   else Verdict.NOT_CONNECTED)
    return dict(np_table=np_table.T, balance_ok=balance_ok,
                offending_pairs=offending, offending_count=int(upper.sum()),
                diagonal=not upper.any(), trace=trace,
                cross_block_zero=cross_zero, verdict=verdict)


@given(st.integers(2, 8), st.integers(2, 8), st.integers(1, 12),
       st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_set_sums_of_translated_patterns_equal_the_former_formula(
        n, m, N, seed, broken):
    # every set xors one pattern onto its first option, so set_sums reads
    # the first column alone, scaled by the pattern's sums; a design with
    # one set redrawn takes every column again
    from chogen import contrasts
    rng = np.random.default_rng(seed)
    m = min(m, 1 << n)
    pattern = rng.choice(1 << n, m, replace=False)
    x = rng.integers(0, 1 << n, N)[:, None] ^ pattern ^ pattern[0]
    if broken:
        x[rng.integers(N)] = rng.choice(1 << n, m, replace=False)
    d = ChoiceDesign.from_indices(x, n)
    effects = [effect(*c) for k in range(1, n + 1)
               for c in itertools.combinations(range(1, n + 1), k)]
    S = contrasts.set_sums(d, masks_of(effects, n))
    former = _former_set_sums(d, effects)
    assert S.dtype == former.dtype and np.array_equal(S, former)


def _translates(n, m, seed):
    """The translates of the first m points of a 3-dimensional subspace by
    a random coset of a hyperplane in the other n - 3 bits, in random
    order: 2^(n-4) sets whose first options are one coset, each once, so
    C* comes from the join."""
    rng = np.random.default_rng(seed)
    x = np.arange(1 << (n - 3))
    a, b0 = rng.integers(1, x.size, size=2)
    bases = rng.permutation(x[np.bitwise_count(x & a) % 2 == 0] ^ b0) << 3
    return ChoiceDesign.from_indices(bases[:, None] ^ np.arange(m), n)


def _edge_cases():
    # product route at every size: np_table turns int16 at m = 6, S at 128
    for m in (2, 3, 4, 5, 6, 7, 64, 127, 128):
        N = 20 if m <= 7 else 3
        yield (f"product-m{m}", "product",
               lambda m=m, N=N: (random_design(random.Random(m), 7, m, N),
                                 ModelSpec.specified_one_factor(7)))
    for m in (2, 3, 4, 5, 6, 7):
        yield (f"join-m{m}", "join",
               lambda m=m: (_translates(9, m, m),
                            ModelSpec.specified_one_factor(9)))
    yield ("join-listing-capped", "join",
           lambda: (specified_design(8, 4), ModelSpec.specified_one_factor(8)))
    for name, family in [("spec-all-m3-n12", "spec-all"),
                         ("spec-group-m4-n10-r3", "spec-group"),
                         ("broader-m6-n8", "broader")]:
        def stored(name=name, family=family):
            d, meta = chogen.load(str(INPUTS / f"{name}.json"))
            return d, ModelSpec.family(family, d.n, meta.get("r"))
        yield name, None, stored
    # nonzero cross block, settled by the rank of [A_interest | A_nuisance]
    yield ("broader-cross", None,
           lambda: (ChoiceDesign.from_sets([("000", "011"), ("000", "101"),
                                            ("000", "110"), ("001", "111")]),
                    ModelSpec.broader_main_effects(3)))


EDGE_CASES = list(_edge_cases())


@pytest.mark.parametrize("route,build", [case[1:] for case in EDGE_CASES],
                         ids=[case[0] for case in EDGE_CASES])
def test_set_sums_and_report_match_the_former_formulas(route, build):
    from chogen import contrasts
    d, model = build()
    effects = model.interest
    masks = masks_of(effects, d.n)
    if route is not None:
        entries = contrasts.cstar_entries(d, masks, masks)
        assert entries.__name__ == "_" + route
    S = contrasts.set_sums(d, masks)
    former = _former_set_sums(d, effects)
    assert S.dtype == former.dtype and np.array_equal(S, former)
    report = verify(d, model)
    expected = _former_report(d, model)
    table = expected.pop("np_table")
    assert report.np_table.dtype == table.dtype
    assert np.array_equal(report.np_table, table)
    assert not report.np_table.flags.writeable
    for field, value in expected.items():
        assert getattr(report, field) == value, field
