"""Factorial effects and model specifications."""

import itertools

import numpy as np
import pytest

from chogen.errors import (BadGroup, BadModel, ChogenError, EffectOutOfRange,
                           Unsupported)
from chogen.models import (MAX_EFFECTS, FactorialEffect, ModelKind, ModelSpec,
                           effect, main_effect_list, require_within,
                           two_factor_list)


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
