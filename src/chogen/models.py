"""Factorial effects and the model specifications they belong to."""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .designs import _index_array
from .errors import BadGroup, BadModel, EffectOutOfRange, Unsupported


@dataclass(frozen=True, order=True)
class FactorialEffect:
    """The order-r interaction contrast among a strictly increasing factor set.

    Factors are 1-based; r = 1 is a main effect.
    """

    factors: tuple

    def __post_init__(self):
        f = tuple(int(x) for x in self.factors)
        object.__setattr__(self, "factors", f)
        if not f:
            raise ValueError("an effect needs at least one factor")
        if any(x < 1 for x in f):
            raise EffectOutOfRange(f"factor indices are 1-based, got {f}")
        if any(a >= b for a, b in zip(f, f[1:])):
            raise ValueError(f"factors must be strictly increasing, got {f}")

    @property
    def order(self) -> int:
        return len(self.factors)

    def within(self, n: int) -> bool:
        return self.factors[-1] <= n

    def __str__(self) -> str:
        return "F" + ".".join(str(x) for x in self.factors)


def effect(*factors: int) -> FactorialEffect:
    """Shorthand: effect(1, 3) is the F_13 interaction."""
    return FactorialEffect(tuple(factors))


def require_within(effects: Iterable[FactorialEffect], n: int) -> None:
    for e in effects:
        if not e.within(n):
            raise EffectOutOfRange(f"{e} does not fit in {n} factors")


def main_effect_list(n: int) -> tuple:
    return tuple(effect(j) for j in range(1, n + 1))


def two_factor_list(n: int) -> tuple:
    return tuple(effect(a, b) for a, b in itertools.combinations(range(1, n + 1), 2))


# A model lists at most this many effects (interest plus nuisance).  The
# largest catalog cell has 2059; spec-all at n = 13 has 4108.
MAX_EFFECTS = 8192


def _require_size(count: int, n: int = 1, interest: int = 1) -> None:
    if n < 1:
        raise BadModel("n must be at least 1")
    if count > MAX_EFFECTS:
        raise BadModel(f"the model has {count} effects, more than "
                       f"MAX_EFFECTS = {MAX_EFFECTS}")
    if not interest:
        raise BadModel("a model needs at least one effect of interest")


def _masks(values, n: int) -> np.ndarray:
    """A read-only mask array, int64 or object by n, as a design's indices."""
    masks = _index_array(values, n)
    masks.setflags(write=False)
    return masks


def _effect_masks(effects: Iterable[FactorialEffect], n: int) -> np.ndarray:
    """The effects' masks on n factors; EffectOutOfRange if one does not fit."""
    effects = tuple(effects)
    require_within(effects, n)
    return _masks([sum(1 << (n - j) for j in e.factors) for e in effects], n)


def decoded(masks: np.ndarray, n: int) -> tuple:
    """The FactorialEffects whose masks on n factors are masks."""
    return tuple(FactorialEffect(tuple(j for j, b in enumerate(bits, 1) if b == "1"))
                 for bits in (format(x, f"0{n}b") for x in masks.tolist()))


def _mains(n: int) -> list:
    """The main effects' masks, factor 1 first."""
    return [1 << (n - j) for j in range(1, n + 1)]


class ModelKind(str, Enum):
    MAIN_EFFECTS = "main-effects"
    BROADER_MAIN_EFFECTS = "broader"
    SPECIFIED_ONE_FACTOR = "spec-all"
    SPECIFIED_TWO_FACTOR = "spec-2f"
    SPECIFIED_GROUP = "spec-group"
    CUSTOM = "custom"


@dataclass(frozen=True)
class ModelSpec:
    """Effects of interest plus nuisance effects assumed present.

    All remaining factorial effects are assumed absent.  The nuisance set
    is empty except for the broader main effects model, where it is every
    two-factor interaction.  Both are read-only bit mask arrays (_masks),
    factor j at bit n - j as in an option index; the families build theirs
    in closed form, in (popcount ascending, mask descending) order, which is
    (order, factors) order, after counting them against MAX_EFFECTS.
    """

    kind: ModelKind
    n: int
    interest_masks: Sequence[int] = field(compare=False)
    nuisance_masks: Sequence[int] = field(default=(), compare=False)
    r: Optional[int] = None  # group-1 size, SPECIFIED_GROUP only
    _masks_key: tuple = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("interest_masks", "nuisance_masks"):
            object.__setattr__(self, name, _masks(getattr(self, name), self.n))
        _require_size(self.Q + len(self.nuisance_masks), self.n, self.Q)
        object.__setattr__(self, "_masks_key", (
            tuple(self.interest_masks.tolist()), tuple(self.nuisance_masks.tolist())))

    @property
    def Q(self) -> int:
        return len(self.interest_masks)

    # the FactorialEffects, decoded from the masks on first use
    interest = cached_property(lambda self: decoded(self.interest_masks, self.n))
    nuisance = cached_property(lambda self: decoded(self.nuisance_masks, self.n))

    def masks_on(self, n: int) -> tuple:
        """The (interest, nuisance) masks on n factors, encoded anew if not n."""
        if n == self.n:
            return self.interest_masks, self.nuisance_masks
        return _effect_masks(self.interest, n), _effect_masks(self.nuisance, n)

    def describe(self) -> str:
        tag = self.kind.value
        if self.kind is ModelKind.SPECIFIED_GROUP:
            tag += f"(r={self.r})"
        return f"{tag}, n={self.n}, Q={self.Q}"

    @classmethod
    def main_effects(cls, n: int) -> "ModelSpec":
        _require_size(n)
        return cls(ModelKind.MAIN_EFFECTS, n, _mains(n))

    @classmethod
    def broader_main_effects(cls, n: int) -> "ModelSpec":
        """Main effects of interest, all two-factor interactions as nuisance."""
        if n < 2:
            raise BadModel("broader model needs n >= 2")
        _require_size(n + n * (n - 1) // 2)
        mains = _mains(n)
        return cls(ModelKind.BROADER_MAIN_EFFECTS, n, mains,
                   [a | b for a, b in itertools.combinations(mains, 2)])

    @classmethod
    def specified_one_factor(cls, n: int) -> "ModelSpec":
        """Mains plus every interaction of factor 1: the group model at r=1."""
        return cls(ModelKind.SPECIFIED_ONE_FACTOR, n, _group_masks(n, 1))

    @classmethod
    def specified_two_factor(cls, n: int) -> "ModelSpec":
        """Mains plus the two-factor interactions of factor 1: F_12..F_1n."""
        if n < 2:
            raise BadModel("specified interaction models need n >= 2")
        _require_size(2 * n - 1)
        mains = _mains(n)
        return cls(ModelKind.SPECIFIED_TWO_FACTOR, n,
                   mains + [mains[0] | b for b in mains[1:]])

    @classmethod
    def specified_group(cls, n: int, r: int) -> "ModelSpec":
        """Mains plus all interactions of one group-1 factor with group 2.

        Group 1 is factors 1..r, group 2 is factors r+1..n; the interest
        interactions are {h} with every nonempty subset of group 2, for
        each h in group 1.
        """
        return cls(ModelKind.SPECIFIED_GROUP, n, _group_masks(n, r), r=r)

    @classmethod
    def family(cls, kind, n: int, r: Optional[int] = None) -> "ModelSpec":
        """The model of a named family on n factors.

        kind is a ModelKind or its value; r is the group size of
        SPECIFIED_GROUP and is ignored by the other families.  CUSTOM
        and unknown names raise Unsupported.
        """
        try:
            kind = ModelKind(kind)
        except ValueError:
            raise Unsupported(f"unknown model {kind!r}") from None
        if kind is ModelKind.SPECIFIED_GROUP:
            return cls.specified_group(n, r)
        makers = {ModelKind.MAIN_EFFECTS: cls.main_effects,
                  ModelKind.BROADER_MAIN_EFFECTS: cls.broader_main_effects,
                  ModelKind.SPECIFIED_TWO_FACTOR: cls.specified_two_factor,
                  ModelKind.SPECIFIED_ONE_FACTOR: cls.specified_one_factor}
        if kind not in makers:
            raise Unsupported(f"unknown model {kind.value!r}")
        return makers[kind](n)

    @classmethod
    def custom(cls, n: int, interest: Iterable[FactorialEffect],
               nuisance: Iterable[FactorialEffect] = ()) -> "ModelSpec":
        """A model of the given effects, kept in their order."""
        interest, nuisance = tuple(interest), tuple(nuisance)
        _require_size(len(interest) + len(nuisance), n, len(interest))
        masks = _effect_masks(interest, n), _effect_masks(nuisance, n)
        if len(set(interest)) != len(interest):
            raise BadModel("duplicate effects of interest")
        if set(interest) & set(nuisance):
            raise BadModel("interest and nuisance effects must be disjoint")
        return cls(ModelKind.CUSTOM, n, *masks)


def _group_masks(n: int, r: int) -> list:
    """The group model's masks of interest in (order, factors) order, {h}
    with each subset of group 2 by size; r must be an int, not a bool."""
    if n < 2:
        raise BadModel("specified interaction models need n >= 2")
    if (isinstance(r, bool) or not isinstance(r, numbers.Integral)
            or not 1 <= r <= n - 1):
        raise BadGroup(f"group size r must lie in 1..{n - 1}, got {r!r}")
    _require_size(n + r * ((1 << (n - r)) - 1))
    mains = _mains(n)
    levels = ([sum(k) for k in itertools.combinations(mains[r:], size)]
              for size in range(1, n - r + 1))
    return mains + [h | k for level in levels for h in mains[:r] for k in level]
