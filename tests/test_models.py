"""Factorial effects and model specifications."""

import itertools

import numpy as np
import pytest

from chogen.errors import (BadGroup, BadModel, ChogenError, EffectOutOfRange,
                           Unsupported)
from chogen.models import (MAX_EFFECTS, FactorialEffect, ModelKind, ModelSpec,
                           effect, main_effect_list, require_within,
                           two_factor_list)
from conftest import masks_of


def test_effect_basics():
    e = effect(1, 3)
    assert e.factors == (1, 3)
    assert e.order == 2
    assert str(e) == "F1.3"
    assert e.within(3) and not e.within(2)


def test_effect_validation():
    with pytest.raises(ValueError):
        effect()
    with pytest.raises(ValueError):
        effect(2, 2)
    with pytest.raises(ValueError):
        effect(3, 1)
    with pytest.raises(EffectOutOfRange):
        effect(0)


def test_effects_order_and_hash():
    assert effect(1) < effect(1, 2) < effect(2)  # lexicographic on factors
    assert len({effect(1, 2), FactorialEffect((1, 2))}) == 1


def test_require_within():
    require_within((effect(1), effect(2, 4)), 4)
    with pytest.raises(EffectOutOfRange):
        require_within((effect(5),), 4)


def test_effect_lists():
    assert main_effect_list(3) == (effect(1), effect(2), effect(3))
    assert two_factor_list(3) == (effect(1, 2), effect(1, 3), effect(2, 3))


def test_main_effects_model():
    spec = ModelSpec.main_effects(4)
    assert spec.kind is ModelKind.MAIN_EFFECTS
    assert spec.interest == main_effect_list(4)
    assert spec.nuisance == ()
    assert spec.Q == 4


def test_broader_model_nuisance():
    spec = ModelSpec.broader_main_effects(4)
    assert spec.interest == main_effect_list(4)
    assert spec.nuisance == two_factor_list(4)
    assert spec.Q == 4


def test_specified_one_factor_model():
    spec = ModelSpec.specified_one_factor(3)
    assert spec.interest == (effect(1), effect(2), effect(3),
                             effect(1, 2), effect(1, 3), effect(1, 2, 3))
    assert spec.Q == 3 + 4 - 1


def test_specified_two_factor_model():
    spec = ModelSpec.specified_two_factor(4)
    assert spec.interest[4:] == (effect(1, 2), effect(1, 3), effect(1, 4))
    assert spec.Q == 7


def test_specified_group_model():
    spec = ModelSpec.specified_group(4, 2)
    inter = set(spec.interest) - set(main_effect_list(4))
    assert inter == {effect(1, 3), effect(1, 4), effect(1, 3, 4),
                     effect(2, 3), effect(2, 4), effect(2, 3, 4)}
    assert spec.r == 2
    assert "r=2" in spec.describe()
    with pytest.raises(BadGroup):
        ModelSpec.specified_group(4, 4)
    with pytest.raises(BadGroup):
        ModelSpec.specified_group(4, 0)


@pytest.mark.parametrize("r", ["2", 1.5, [1], None])
def test_group_size_must_be_an_integer(r):
    with pytest.raises(BadGroup, match="group size r must lie in 1..3"):
        ModelSpec.specified_group(4, r)


def test_group_size_takes_numpy_integers():
    assert (ModelSpec.specified_group(4, np.int64(2)).interest
            == ModelSpec.specified_group(4, 2).interest)


def test_group_model_with_r_1_matches_one_factor_model():
    assert (ModelSpec.specified_group(5, 1).interest
            == ModelSpec.specified_one_factor(5).interest)


def test_custom_model_checks():
    spec = ModelSpec.custom(3, [effect(1), effect(2)], [effect(1, 2)])
    assert spec.kind is ModelKind.CUSTOM
    with pytest.raises(ValueError):
        ModelSpec.custom(3, [effect(1)], [effect(1)])
    with pytest.raises(ValueError):
        ModelSpec.custom(3, [effect(1), effect(1)])
    with pytest.raises(EffectOutOfRange):
        ModelSpec.custom(2, [effect(3)])
    with pytest.raises(ValueError):
        ModelSpec.custom(2, [])


def test_model_errors_are_chogen_and_value_errors():
    assert issubclass(BadModel, ChogenError) and issubclass(BadModel, ValueError)
    for build in (lambda: ModelSpec.broader_main_effects(1),
                  lambda: ModelSpec.specified_one_factor(1),
                  lambda: ModelSpec.specified_two_factor(0),
                  lambda: ModelSpec.specified_group(1, 1),
                  lambda: ModelSpec.main_effects(0),
                  lambda: ModelSpec.custom(3, [effect(1)], [effect(1)])):
        with pytest.raises(BadModel):
            build()


@pytest.mark.parametrize("name, make", [
    ("main-effects", ModelSpec.main_effects),
    ("broader", ModelSpec.broader_main_effects),
    ("spec-2f", ModelSpec.specified_two_factor),
    ("spec-all", ModelSpec.specified_one_factor),
    ("spec-group", lambda n: ModelSpec.specified_group(n, 2)),
])
def test_family_builds_the_named_model(name, make):
    # r is read by spec-group only
    assert ModelSpec.family(name, 5, 2) == make(5)
    assert ModelSpec.family(ModelKind(name), 5, 2) == make(5)


@pytest.mark.parametrize("name", ["custom", ModelKind.CUSTOM, "bogus", 5])
def test_family_refuses_custom_and_unknown_names(name):
    with pytest.raises(Unsupported) as exc:
        ModelSpec.family(name, 3)
    assert str(exc.value) == f"unknown model {getattr(name, 'value', name)!r}"


@pytest.mark.parametrize("make", [
    ModelSpec.main_effects, ModelSpec.broader_main_effects,
    ModelSpec.specified_one_factor, ModelSpec.specified_two_factor,
    lambda n: ModelSpec.specified_group(n, 2),
    lambda n: ModelSpec.specified_group(n, n - 1),
])
def test_family_sizes_match_their_closed_forms(make):
    for n in range(3, 9):
        model = make(n)
        count = len(model.interest) + len(model.nuisance)
        assert count <= MAX_EFFECTS
        if model.kind is ModelKind.SPECIFIED_ONE_FACTOR:
            assert model.Q == n + 2 ** (n - 1) - 1
        if model.kind is ModelKind.SPECIFIED_GROUP:
            assert model.Q == n + model.r * (2 ** (n - model.r) - 1)


@pytest.mark.parametrize("make", [
    lambda: ModelSpec.specified_one_factor(30),
    lambda: ModelSpec.specified_one_factor(14),
    lambda: ModelSpec.specified_group(40, 3),
    lambda: ModelSpec.broader_main_effects(200),
    lambda: ModelSpec.main_effects(MAX_EFFECTS + 1),
    lambda: ModelSpec.custom(2, [effect(1)] * (MAX_EFFECTS + 1)),
])
def test_oversized_families_are_refused_before_listing(make):
    with pytest.raises(BadModel, match="MAX_EFFECTS"):
        make()


def test_largest_allowed_spec_all_family():
    assert ModelSpec.specified_one_factor(13).Q == 4108


def test_group_effects_equal_the_sorted_subset_enumeration():
    # the listing the group model once sorted: {h} with every nonempty
    # subset k of group 2, de-duplicated, in (order, factors) order
    for n in range(2, 11):
        for r in range(1, n):
            group2 = tuple(range(r + 1, n + 1))
            subsets = [k for size in range(1, len(group2) + 1)
                       for k in itertools.combinations(group2, size)]
            inter = {effect(h, *k) for h in range(1, r + 1) for k in subsets}
            want = main_effect_list(n) + tuple(
                sorted(inter, key=lambda e: (e.order, e.factors)))
            assert ModelSpec.specified_group(n, r).interest == want, (n, r)


def _listed_family(kind, n, r):
    """(interest, nuisance) as the families listed them before they were
    masks: FactorialEffects in (order, factors) order."""
    mains = main_effect_list(n)
    if kind is ModelKind.MAIN_EFFECTS:
        return mains, ()
    if kind is ModelKind.BROADER_MAIN_EFFECTS:
        return mains, two_factor_list(n)
    if kind is ModelKind.SPECIFIED_TWO_FACTOR:
        return mains + tuple(effect(1, j) for j in range(2, n + 1)), ()
    r = 1 if kind is ModelKind.SPECIFIED_ONE_FACTOR else r
    return mains + tuple(
        effect(h, *k) for size in range(1, n - r + 1) for h in range(1, r + 1)
        for k in itertools.combinations(range(r + 1, n + 1), size)), ()


def _cases(max_n):
    for kind in ModelKind:
        if kind is ModelKind.CUSTOM:
            continue
        for n in range(1 if kind is ModelKind.MAIN_EFFECTS else 2, max_n + 1):
            for r in (range(1, n) if kind is ModelKind.SPECIFIED_GROUP
                      else (None,)):
                yield kind, n, r


def test_family_masks_equal_the_listed_effects():
    # the closed-form masks are the masks of the former effect lists, in
    # their order, which is (popcount ascending, mask descending)
    count = 0
    for kind, n, r in _cases(13):
        model = ModelSpec.family(kind, n, r)
        for masks, listed in zip((model.interest_masks, model.nuisance_masks),
                                 _listed_family(kind, n, r)):
            assert masks.dtype == np.int64 and not masks.flags.writeable
            assert np.array_equal(masks, masks_of(listed, n)), (kind, n, r)
            assert masks.tolist() == sorted(
                masks.tolist(), key=lambda x: (x.bit_count(), -x))
        count += 1
    assert count == 13 + 3 * 12 + sum(range(1, 13))


@pytest.mark.parametrize("kind, n, r", [(k, n, r) for k, n, r in _cases(7)])
def test_family_effects_decode_from_the_masks(kind, n, r):
    model = ModelSpec.family(kind, n, r)
    assert (model.interest, model.nuisance) == _listed_family(kind, n, r)
    assert model.Q == len(model.interest)


def test_masks_beyond_63_factors_are_python_ints():
    model = ModelSpec.main_effects(70)
    assert model.Q == 70
    assert model.interest_masks.dtype == object
    assert model.interest_masks.tolist() == [1 << (70 - j)
                                             for j in range(1, 71)]
    assert model.interest == main_effect_list(70)
    wide = ModelSpec.broader_main_effects(64)
    assert wide.nuisance_masks[0] == (1 << 63) | (1 << 62)
    assert wide.nuisance[-1] == effect(63, 64)


def test_custom_models_keep_the_given_effects_and_order():
    interest = (effect(2, 3), effect(1), effect(3), effect(1, 2, 3))
    model = ModelSpec.custom(3, interest, [effect(2)])
    assert model.interest == interest and model.nuisance == (effect(2),)
    assert model.interest_masks.tolist() == [0b011, 0b100, 0b001, 0b111]
    assert model.nuisance_masks.tolist() == [0b010]


@pytest.mark.parametrize("make, error, message", [
    (lambda: ModelSpec.custom(0, [effect(1)]), BadModel,
     "n must be at least 1"),
    (lambda: ModelSpec.custom(2, [effect(3)] * (MAX_EFFECTS + 1)), BadModel,
     "MAX_EFFECTS"),
    (lambda: ModelSpec.custom(2, []), BadModel, "at least one effect"),
    (lambda: ModelSpec.custom(2, [effect(1)], [effect(1, 3)]),
     EffectOutOfRange, "F1.3 does not fit in 2 factors"),
    (lambda: ModelSpec.custom(3, [effect(2), effect(2)]), BadModel,
     "duplicate"),
    (lambda: ModelSpec.custom(3, [effect(2)], [effect(2)]), BadModel,
     "disjoint"),
])
def test_custom_model_refusals_come_in_their_order(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_models_are_equal_and_hash_by_kind_n_r_and_masks():
    assert ModelSpec.specified_group(6, 2) == ModelSpec.specified_group(6, 2)
    assert hash(ModelSpec.broader_main_effects(5)) == \
        hash(ModelSpec.broader_main_effects(5))
    assert ModelSpec.specified_group(6, 2) != ModelSpec.specified_group(6, 3)
    assert ModelSpec.main_effects(4) != ModelSpec.main_effects(5)
    mains = main_effect_list(4)
    assert ModelSpec.custom(4, mains) == ModelSpec.custom(4, list(mains))
    assert ModelSpec.custom(4, mains) != ModelSpec.custom(4, mains[::-1])
    # the same effects under another kind are another model
    assert ModelSpec.custom(4, mains) != ModelSpec.main_effects(4)
    assert ModelSpec.specified_group(5, 1) != ModelSpec.specified_one_factor(5)
    seen = {ModelSpec.main_effects(4): 1, ModelSpec.custom(4, mains): 2}
    assert seen[ModelSpec.main_effects(4)] == 1 and len(seen) == 2


def test_equal_family_calls_share_one_bounded_memo():
    from chogen import models
    group = ModelSpec.family("spec-group", 6, 2)
    assert ModelSpec.family(ModelKind.SPECIFIED_GROUP, 6, 2) is group
    assert ModelSpec.family("spec-group", 6, 3) is not group
    # r means nothing outside the group family, so it is no part of the key
    mains = ModelSpec.family("main-effects", 5)
    assert ModelSpec.family("main-effects", 5, 3) is mains
    assert ModelSpec.family("main-effects", 5, [1]) is mains
    for n in range(2, 2 + 2 * models.FAMILY_MEMO):
        made = ModelSpec.family("spec-2f", n)
        assert made == ModelSpec.specified_two_factor(n)
    info = models._family.cache_info()
    assert info.maxsize == models.FAMILY_MEMO
    assert info.currsize <= models.FAMILY_MEMO


def _outcome(make):
    """The model make() returns, or the type and message of its error."""
    try:
        return make()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("r", [True, False, 1.0, 2.5, [1], (1,), "1", None,
                               np.int64(1)])
def test_the_memo_keys_only_plain_int_group_sizes(r):
    # r = 1 is cached first, and True, 1.0 and np.int64(1) hash and compare
    # equal to it; each of them still meets the group constructor itself
    ModelSpec.family("spec-group", 4, 1)
    got = _outcome(lambda: ModelSpec.family("spec-group", 4, r))
    assert got == _outcome(lambda: ModelSpec.specified_group(4, r))
    assert isinstance(got, ModelSpec) or got[0] is BadGroup


@pytest.mark.parametrize("n", [True, 3.0, -1, 0, [3]])
def test_the_memo_keys_only_plain_int_widths(n):
    ModelSpec.family("main-effects", 1)
    ModelSpec.family("main-effects", 3)
    got = _outcome(lambda: ModelSpec.family("main-effects", n))
    want = _outcome(lambda: ModelSpec.main_effects(n))
    if isinstance(want, ModelSpec):
        assert got == want and got.n is n
    else:
        assert got == want


@pytest.mark.parametrize("name", [["x"], ["main-effects"], {"a": 1}, "custom"])
def test_unhashable_or_unknown_family_names_are_unsupported(name):
    with pytest.raises(Unsupported, match="unknown model"):
        ModelSpec.family(name, 4)
