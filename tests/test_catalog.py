"""Reference-table catalog: cell lookups and block reproduction."""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
from pathlib import Path

import pytest

from chogen.catalog import (EXPECTED_DEVIATIONS, TABLE1, TABLE_NS, CellStatus,
                            Table1Report, candidate_recipes, catalog_lookup,
                            first_certified, reproduce_table1)
from chogen import catalog, constructions
from chogen.constructions import (ConstructionRecipe, build, coset_columns,
                                  default_generators, spec_generator,
                                  specified_design, theorem1_design,
                                  theorem1_main_design, validate_generators)
from chogen.designs import ChoiceDesign, all_treatments
from chogen.errors import (BelowRankBound, ChogenError, RangeError,
                           Unsupported)
from chogen.models import ModelKind, ModelSpec
from chogen.optimality import (OptimalityReport, Verdict, below_rank_bound,
                               verify)
from conftest import deadline


def test_table_shape():
    for kind, block in TABLE1.items():
        for m, row in block.items():
            assert len(row) == len(TABLE_NS) == 11


def test_candidate_recipes_empty_when_sets_cannot_be_distinct():
    assert candidate_recipes(ModelKind.MAIN_EFFECTS, 8, 2) == ()


def test_candidate_recipes_unsupported_m():
    with pytest.raises(Unsupported):
        candidate_recipes(ModelKind.SPECIFIED_ONE_FACTOR, 5, 4)
    with pytest.raises(Unsupported):
        candidate_recipes(ModelKind.SPECIFIED_TWO_FACTOR, 2, 4)


@pytest.mark.parametrize("m, n, r, expected", [
    (4, 10, 3, [
        ("spec-group-m4 alpha=4 r=3", 16, None, ""),
        ("spec-group-m4 alpha=8 r=3", 256,
         (1, 65, 129, 4, 3, 2, 8, 12, 20, 36), catalog.COSET_NOTE)]),
    (3, 4, 2, [
        ("spec-group-m3 alpha=2 r=2", 8, None, ""),
        ("spec-group-m3 alpha=3 r=2", 16, (1, 5, 2, 3), catalog.COSET_NOTE)]),
    (4, 2, 1, [
        ("spec-group-m4 alpha=2 r=1", 4, None, ""),
        ("spec-group-m4 alpha=1 r=1", 2, None,
         "seed order 2 sits below the usual seed range")]),
    (3, 12, 5, [
        ("spec-group-m3 alpha=4 r=5", 32, None, ""),
        ("spec-group-m3 alpha=9 r=5", 1024,
         (1, 129, 130, 257, 258, 2, 3, 5, 9, 17, 33, 65),
         catalog.COSET_NOTE)]),
])
def test_candidate_recipes_spec_group(m, n, r, expected):
    recipes = candidate_recipes(ModelKind.SPECIFIED_GROUP, m, n, r)
    got = [(x.describe(), x.claimed_N, x.columns, x.note) for x in recipes]
    assert got == expected
    assert all(x.model == ModelSpec.specified_group(n, r) for x in recipes)


def test_spec_group_catalog_picks_the_coset_width():
    # n=5 r=2 m=4: the default width-8 columns alias pairs, and the coset
    # columns certify on a seed of the same width
    for m in (3, 4):
        for n in range(2, 10):
            for r in range(1, n):
                winner, _ = first_certified(candidate_recipes(
                    ModelKind.SPECIFIED_GROUP, m, n, r))
                k = coset_columns(n, r, m)[0]
                assert winner[1].N == (2 << k if m == 3 else 1 << k)


def test_candidate_recipes_spec_group_unsupported_m():
    with pytest.raises(Unsupported, match="group-interaction"):
        candidate_recipes(ModelKind.SPECIFIED_GROUP, 5, 4, 2)


def test_first_certified_cheapest_whatever_the_order():
    # main effects m=4 n=2: two certified N=1 recipes and one N=2 recipe
    recipes = candidate_recipes(ModelKind.MAIN_EFFECTS, 4, 2)
    assert sorted(x.claimed_N for x in recipes) == [1, 1, 2]
    for perm in itertools.permutations(recipes):
        winner, rejected = first_certified(perm)
        first_cheap = next(x for x in perm if x.claimed_N == 1)
        assert winner[0] == first_cheap  # ties keep the given order
        assert winner[1].N == 1 and winner[2].certified
        assert rejected == []


def _counting_build(monkeypatch):
    """Route catalog.build through a wrapper; returns the recipes built."""
    built = []

    def counted(recipe):
        built.append(recipe)
        return build(recipe)
    monkeypatch.setattr(catalog, "build", counted)
    return built


def test_first_certified_reports_rejections(monkeypatch):
    built = _counting_build(monkeypatch)
    # spec-all m=3 n=4: N(m-1) = 16 >= Q = 11 for the base recipe, which
    # builds and connects without certifying
    base, rescue = candidate_recipes(ModelKind.SPECIFIED_ONE_FACTOR, 3, 4)
    broken = dataclasses.replace(base, claimed_N=6)  # 12 >= 11, tried first
    winner, rejected = first_certified([rescue, broken, base])
    assert winner[0] == rescue and winner[1].N == 16
    assert [x for x, _ in rejected] == [broken, base]
    assert isinstance(rejected[0][1], RangeError)  # a build error
    assert isinstance(rejected[1][1], OptimalityReport)
    assert rejected[1][1].verdict is Verdict.CONNECTED_NOT_OPTIMAL
    winner, rejected = first_certified([broken])
    assert winner is None and [x for x, _ in rejected] == [broken]
    # spec-all m=4 n=6: the base recipe's N(m-1) = 24 < Q = 37 is refused
    # before it is built
    below, rescue = candidate_recipes(ModelKind.SPECIFIED_ONE_FACTOR, 4, 6)
    built.clear()
    winner, rejected = first_certified([rescue, below])
    assert winner[0] == rescue and winner[1].N == 16
    assert [x for x, _ in rejected] == [below]
    assert isinstance(rejected[0][1], BelowRankBound)
    assert str(rejected[0][1]) == "NotConnected: N(m-1) = 24 < Q = 37"
    assert built == [rescue]


def test_recipes_below_the_rank_bound_cannot_certify():
    # first_certified refuses these without building them; built and
    # verified here, none certifies, so the refusal changes no cell
    below = []
    for kind, block in TABLE1.items():
        for m, row in block.items():
            for n, table_N in zip(TABLE_NS, row):
                if table_N is None:
                    continue
                below += [x for x in candidate_recipes(kind, m, n)
                          if below_rank_bound(x.claimed_N, x.m, x.model.Q)]
    assert len(below) == 14
    assert {x.model.kind for x in below} == {ModelKind.SPECIFIED_ONE_FACTOR}
    for recipe in below:
        report = verify(build(recipe), recipe.model)
        assert report.verdict is Verdict.NOT_CONNECTED


def test_first_certified_propagates_verify_errors():
    # 64 factors build, but verify refuses sign matrices past 63 factors
    wide = ConstructionRecipe("foldover-pair", 128,
                              ModelSpec.main_effects(64), 1,
                              variant="half", order=128)
    with pytest.raises(Unsupported, match="n <= 63"):
        first_certified([wide])


def test_lookup_blank_cell():
    entry = catalog_lookup(ModelKind.MAIN_EFFECTS, 5, 2)
    assert entry.status is CellStatus.BLANK_CELL
    assert entry.achieved_N is None and not entry.certified


def test_lookup_one_set_cell():
    entry = catalog_lookup(ModelKind.MAIN_EFFECTS, 8, 3)
    assert entry.status is CellStatus.MATCH
    assert entry.achieved_N == 1
    assert entry.certified
    assert entry.recipe.id in ("foldover-pair", "single-set")


def test_lookup_main_effects_small():
    entry = catalog_lookup(ModelKind.MAIN_EFFECTS, 2, 2)
    assert entry.status is CellStatus.MATCH and entry.achieved_N == 2


def test_lookup_known_deviation_cell():
    entry = catalog_lookup(ModelKind.BROADER_MAIN_EFFECTS, 3, 2)
    assert entry.status is CellStatus.MISMATCH
    assert entry.achieved_N == 4 and entry.table_N == 2
    assert entry.certified
    assert "reference lists 2" in entry.note


def test_lookup_rescue_cell_uses_wider_seed():
    entry = catalog_lookup(ModelKind.SPECIFIED_ONE_FACTOR, 4, 6)
    assert entry.status is CellStatus.MISMATCH
    assert entry.achieved_N == 16 and entry.table_N == 8
    assert entry.certified
    assert entry.recipe.alpha == 4
    assert "wider seed" in entry.note


def test_lookup_alpha_one_cell():
    entry = catalog_lookup(ModelKind.SPECIFIED_ONE_FACTOR, 3, 2)
    assert entry.status is CellStatus.MATCH and entry.achieved_N == 4
    assert entry.recipe.alpha == 1
    assert "below the usual seed range" in entry.note


def test_lookup_out_of_table():
    with pytest.raises(Unsupported):
        catalog_lookup(ModelKind.MAIN_EFFECTS, 9, 3)
    with pytest.raises(Unsupported):
        catalog_lookup(ModelKind.MAIN_EFFECTS, 2, 13)
    with pytest.raises(Unsupported):
        catalog_lookup(ModelKind.CUSTOM, 2, 3)


def test_reproduce_single_block():
    report = reproduce_table1([ModelKind.SPECIFIED_TWO_FACTOR])
    assert report.checked_count == 21
    assert report.mismatch_count == 0
    assert all(e.certified for e in report.entries
               if e.status is not CellStatus.BLANK_CELL)


def test_report_accounting_and_rendering():
    report = reproduce_table1([ModelKind.SPECIFIED_TWO_FACTOR])
    assert report.match_count == 21
    assert not report.deviations()
    text = report.to_text()
    assert "spec-2f" in text and "main-effects" not in text
    csv = report.to_csv()
    assert csv.splitlines()[0].startswith("model,m,n,")
    assert len(csv.splitlines()) == 23  # header + 2 rows x 11 cells
    assert "checked 21 non-blank cells: 21 match, 0 differ" in report.summary()


def test_reproduce_table1_stays_small():
    # the wide cells translate one pattern by one coset, so verify reads
    # their pattern weights and joined C*, with no (Q, N) per-set sums:
    # those of spec-all m3 n12 alone took 8 MB (2059 x 4096 int8)
    import tracemalloc
    with deadline(60):
        reproduce_table1()
        tracemalloc.start()
        try:
            report = reproduce_table1()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert report.deviations_expected
    assert peak < 3 * 2 ** 20


def test_deviations_expected_is_exact():
    # a single clean block does not carry the full expected-deviation set
    clean = reproduce_table1([ModelKind.SPECIFIED_TWO_FACTOR])
    assert not clean.deviations_expected
    assert clean.match_count == clean.checked_count


def test_spec_all_deviations_are_the_coset_widths():
    # the least generator-shift seed has width 2^(n-1) at m=3 and 2^(n-2)
    # at m=4 (n >= 4); every listed spec-all N below that is a deviation
    derived = {}
    for m, row in TABLE1[ModelKind.SPECIFIED_ONE_FACTOR].items():
        for n, table_N in zip(TABLE_NS, row):
            k = coset_columns(n, 1, m)[0]
            N = 2 << k if m == 3 else 1 << k
            if table_N is not None and N != table_N:
                assert N > table_N
                derived[(ModelKind.SPECIFIED_ONE_FACTOR, m, n)] = N
    assert derived == {key: N for key, N in EXPECTED_DEVIATIONS.items()
                       if key[0] is ModelKind.SPECIFIED_ONE_FACTOR}
    assert derived == {
        **{(ModelKind.SPECIFIED_ONE_FACTOR, 3, n): 1 << n
           for n in range(4, 13)},
        **{(ModelKind.SPECIFIED_ONE_FACTOR, 4, n): 1 << (n - 2)
           for n in range(6, 13)}}


def test_spec_all_deviations_below_the_rank_bound():
    # no design of any construction connects a model at N(m-1) < Q; of
    # all listed N only the spec-all m=3 and m=4 cells at n >= 6 fall
    # below it, and each is an expected deviation
    below = {(kind, m, n)
             for kind, block in TABLE1.items()
             for m, row in block.items()
             for n, table_N in zip(TABLE_NS, row)
             if table_N is not None
             and below_rank_bound(table_N, m, ModelSpec.family(kind, n).Q)}
    assert below == {(ModelKind.SPECIFIED_ONE_FACTOR, m, n)
                     for m in (3, 4) for n in range(6, 13)}
    assert below <= EXPECTED_DEVIATIONS.keys()


def test_broader_m3_n2_deviation_is_forced():
    # every design of N <= 3 sets of three distinct options on 2 factors,
    # a multiset of the 4 such sets, fails, so the catalog's N=4 is least
    model = ModelSpec.broader_main_effects(2)
    sets = list(itertools.combinations(all_treatments(2), 3))
    tried = 0
    for N in (1, 2, 3):
        for chosen in itertools.combinations_with_replacement(sets, N):
            report = verify(ChoiceDesign.from_sets(chosen), model)
            assert not report.certified, chosen
            tried += 1
    assert tried == 4 + 10 + 20


def test_expected_deviation_values():
    assert EXPECTED_DEVIATIONS[(ModelKind.BROADER_MAIN_EFFECTS, 3, 2)] == 4
    assert EXPECTED_DEVIATIONS[(ModelKind.SPECIFIED_ONE_FACTOR, 3, 5)] == 32
    assert EXPECTED_DEVIATIONS[(ModelKind.SPECIFIED_ONE_FACTOR, 4, 6)] == 16
    assert len(EXPECTED_DEVIATIONS) == 17


@pytest.mark.parametrize("kind", [ModelKind.MAIN_EFFECTS,
                                  ModelKind.BROADER_MAIN_EFFECTS])
@pytest.mark.parametrize("m", [1, 0, -2])
def test_candidate_recipes_empty_below_two_options(kind, m):
    # m = 1 once offered direct addition, whose alpha search never ended
    with deadline(10):
        assert candidate_recipes(kind, m, 4) == ()


# The rules the catalog and build once spelled out, kept as references
# for the closed forms that replaced them.

def _ref_t1_generators_ok(n, m):
    """Whether the (m-1)//2 default unit generators validate on n factors."""
    alpha = (m - 1) // 2
    if alpha > n:
        return False
    try:
        validate_generators(default_generators(n, alpha), n)
    except ChogenError:
        return False
    return True


def _ref_shift_build(recipe):
    """The generator shift with the first-column and fold rules by id."""
    order = recipe.order if recipe.alpha is None else 1 << recipe.alpha
    return constructions._generator_shift(
        recipe.model.n, recipe.m, recipe.applied_generators(), order,
        recipe.columns,
        "free" if recipe.id == "T1-generator" else "required",
        recipe.variant == "full" and recipe.m % 2 == 1)


def _public_build(recipe):
    n, m = recipe.model.n, recipe.m
    order = recipe.order if recipe.alpha is None else 1 << recipe.alpha
    if recipe.id == "T1-generator":
        fn = (theorem1_design if recipe.variant == "full"
              else theorem1_main_design)
        return fn(n, m, recipe.applied_generators(), order, recipe.columns)
    r = recipe.model.r or 1
    assert recipe.applied_generators() == (spec_generator(n, r),)
    return specified_design(n, m, r, order, recipe.columns)


def _outcome(fn, recipe):
    try:
        return fn(recipe)
    except ChogenError as exc:
        return type(exc), str(exc)


def test_t1_recipe_condition_is_the_generator_check():
    for n in range(1, 13):
        for m in range(2, min(1 << n, 64) + 1):
            want = _ref_t1_generators_ok(n, m)
            # the broader model needs n >= 2
            kinds = catalog.T1_KINDS if n >= 2 else (ModelKind.MAIN_EFFECTS,)
            for kind in kinds:
                ids = [rec.id for rec in candidate_recipes(kind, m, n)]
                assert ("T1-generator" in ids) == want, (kind, m, n)


def test_shift_recipes_build_as_their_public_constructors():
    cells = [(kind, m, n, None) for kind, block in TABLE1.items()
             for m in block for n in TABLE_NS]
    cells += [(ModelKind.SPECIFIED_GROUP, m, n, r) for m in (3, 4)
              for n in range(2, 9) for r in range(1, n)]
    shifts = [rec for kind, m, n, r in cells
              for rec in candidate_recipes(kind, m, n, r)
              if rec.id == "T1-generator" or rec.id.startswith("spec-")]
    assert len(shifts) == 320
    for rec in shifts:
        got = _outcome(build, rec)
        assert got == _outcome(_public_build, rec), rec.describe()
        assert got == _outcome(_ref_shift_build, rec), rec.describe()


def test_family_cells_build_no_effect_objects(monkeypatch):
    # a family model is masks from candidate_recipes to the report: no
    # FactorialEffect is made, and no effect list is encoded into masks
    from chogen import contrasts, models
    made, encoded = [], []
    post_init = models.FactorialEffect.__post_init__
    monkeypatch.setattr(models.FactorialEffect, "__post_init__",
                        lambda self: made.append(1) or post_init(self))
    for module in (models, contrasts):
        masks = module._effect_masks
        monkeypatch.setattr(module, "_effect_masks",
                            lambda e, n, masks=masks:
                            encoded.append(1) or masks(e, n))
    entry = catalog_lookup(ModelKind.SPECIFIED_ONE_FACTOR, 3, 12)
    assert entry.certified and entry.achieved_N == 4096
    assert made == [] and encoded == []
    models.effect(1, 2)  # the counter itself counts
    assert made == [1]


# sha256 of `chogen table --block all --format json` and, per non-blank
# cell, of its winning recipe, the design's shape and its index bytes, as
# written by the code before verify read C* and the cross block from one
# stream; every rewrite of the table's route keeps them
TABLE1_PINS = json.loads(
    (Path(__file__).with_name("table1_pins.json")).read_text())


def test_table_json_bytes_are_pinned():
    from chogen.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["table", "--block", "all", "--format", "json"]) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == TABLE1_PINS["table_json_sha256"]


def test_every_cell_keeps_its_recipe_and_design_bytes():
    got = {}
    for kind, rows in TABLE1.items():
        for m, row in rows.items():
            for n, listed in zip(TABLE_NS, row):
                if listed is None:
                    continue
                winner, _ = first_certified(candidate_recipes(kind, m, n))
                recipe, d, _ = winner
                head = f"{recipe.describe()}\n{d.N} {d.m} {d.n}\n".encode()
                got[f"{kind.value} m={m} n={n}"] = hashlib.sha256(
                    head + d.indices.astype("<i8").tobytes()).hexdigest()
    assert got == TABLE1_PINS["cells"]
