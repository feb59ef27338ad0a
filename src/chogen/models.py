"""Factorial effects and the model specifications they belong to."""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

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


def _require_size(count: int) -> None:
    if count > MAX_EFFECTS:
        raise BadModel(f"the model has {count} effects, more than "
                       f"MAX_EFFECTS = {MAX_EFFECTS}")


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
    two-factor interaction.  The family constructors count their effects
    in closed form and refuse more than MAX_EFFECTS before listing any.
    """

    kind: ModelKind
    n: int
    interest: tuple
    nuisance: tuple = ()
    r: Optional[int] = None  # group-1 size, SPECIFIED_GROUP only

    def __post_init__(self):
        if self.n < 1:
            raise BadModel("n must be at least 1")
        _require_size(len(self.interest) + len(self.nuisance))
        if not self.interest:
            raise BadModel("a model needs at least one effect of interest")
        require_within(self.interest, self.n)
        require_within(self.nuisance, self.n)
        if len(set(self.interest)) != len(self.interest):
            raise BadModel("duplicate effects of interest")
        if set(self.interest) & set(self.nuisance):
            raise BadModel("interest and nuisance effects must be disjoint")

    @property
    def Q(self) -> int:
        return len(self.interest)

    def describe(self) -> str:
        tag = self.kind.value
        if self.kind is ModelKind.SPECIFIED_GROUP:
            tag += f"(r={self.r})"
        return f"{tag}, n={self.n}, Q={self.Q}"

    @classmethod
    def main_effects(cls, n: int) -> "ModelSpec":
        _require_size(n)
        return cls(ModelKind.MAIN_EFFECTS, n, main_effect_list(n))

    @classmethod
    def broader_main_effects(cls, n: int) -> "ModelSpec":
        """Main effects of interest, all two-factor interactions as nuisance."""
        if n < 2:
            raise BadModel("broader model needs n >= 2")
        _require_size(n + n * (n - 1) // 2)
        return cls(ModelKind.BROADER_MAIN_EFFECTS, n, main_effect_list(n),
                   nuisance=two_factor_list(n))

    @classmethod
    def specified_one_factor(cls, n: int) -> "ModelSpec":
        """Mains plus every interaction of factor 1: the group model at r=1."""
        return cls(ModelKind.SPECIFIED_ONE_FACTOR, n, _group_effects(n, 1))

    @classmethod
    def specified_two_factor(cls, n: int) -> "ModelSpec":
        """Mains plus the two-factor interactions of factor 1: F_12..F_1n."""
        if n < 2:
            raise BadModel("specified interaction models need n >= 2")
        _require_size(2 * n - 1)
        inter = tuple(effect(1, j) for j in range(2, n + 1))
        return cls(ModelKind.SPECIFIED_TWO_FACTOR, n, main_effect_list(n) + inter)

    @classmethod
    def specified_group(cls, n: int, r: int) -> "ModelSpec":
        """Mains plus all interactions of one group-1 factor with group 2.

        Group 1 is factors 1..r, group 2 is factors r+1..n; the interest
        interactions are {h} with every nonempty subset of group 2, for
        each h in group 1.
        """
        return cls(ModelKind.SPECIFIED_GROUP, n, _group_effects(n, r), r=r)

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
        if kind is ModelKind.MAIN_EFFECTS:
            return cls.main_effects(n)
        if kind is ModelKind.BROADER_MAIN_EFFECTS:
            return cls.broader_main_effects(n)
        if kind is ModelKind.SPECIFIED_TWO_FACTOR:
            return cls.specified_two_factor(n)
        if kind is ModelKind.SPECIFIED_ONE_FACTOR:
            return cls.specified_one_factor(n)
        if kind is ModelKind.SPECIFIED_GROUP:
            return cls.specified_group(n, r)
        raise Unsupported(f"unknown model {kind.value!r}")

    @classmethod
    def custom(cls, n: int, interest: Iterable[FactorialEffect],
               nuisance: Iterable[FactorialEffect] = ()) -> "ModelSpec":
        return cls(ModelKind.CUSTOM, n, tuple(interest), tuple(nuisance))


def _group_effects(n: int, r: int) -> tuple:
    """The group model's effects of interest in (order, factors) order;
    r must be an int, not a bool."""
    if n < 2:
        raise BadModel("specified interaction models need n >= 2")
    if (isinstance(r, bool) or not isinstance(r, numbers.Integral)
            or not 1 <= r <= n - 1):
        raise BadGroup(f"group size r must lie in 1..{n - 1}, got {r!r}")
    _require_size(n + r * ((1 << (n - r)) - 1))
    group2 = range(r + 1, n + 1)
    # {h} with a subset k of group 2: order 1 + |k|, and every h < min k
    return main_effect_list(n) + tuple(
        effect(h, *k) for size in range(1, n - r + 1)
        for h in range(1, r + 1)
        for k in itertools.combinations(group2, size))
