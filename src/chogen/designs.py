"""Treatments, choice sets, and choice designs for two-level factors.

A treatment is a tuple of n bits with factor 1 leftmost.  A choice set is
an ordered tuple of m pairwise distinct treatments of common width.  A
choice design is an ordered tuple of N choice sets; repeated sets are
allowed (a design is a multiset of sets), repeated options within a set
are not.  All values are immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union, overload

import numpy as np

from .errors import (DuplicateOption, MixedWidth, ShapeMismatch, Unsupported,
                     WidthMismatch)

Treatment = tuple  # tuple[int, ...], bits of one profile, factor 1 first
ChoiceSet = tuple  # tuple[Treatment, ...]

# option indices are int64 arrays: at most 63 factors
MAX_INDEX_FACTORS = 63

_BITS = {"0": 0, "1": 1, 0: 0, 1: 1}


def treatment(bits: Union[str, Iterable[int]]) -> Treatment:
    """Build a treatment from a bitstring like "1010" or an iterable of 0/1."""
    if not isinstance(bits, (str, tuple, list)):
        bits = tuple(bits)
    try:
        vals = tuple(map(_BITS.__getitem__, bits))
    except (KeyError, TypeError):
        # anything else: int() reads each bit, and names a bad one
        vals = tuple(map(int, bits))
        if any(v not in (0, 1) for v in vals):
            raise ValueError(f"treatment bits must be 0 or 1, got {vals!r}")
    if not vals:
        raise ValueError("a treatment needs at least one factor")
    return vals


def bits_string(t: Treatment) -> str:
    return "".join(str(b) for b in t)


def lex_index(t: Treatment) -> int:
    """Lexicographic index of a treatment, factor 1 as most significant bit."""
    idx = 0
    for b in t:
        idx = (idx << 1) | b
    return idx


def all_treatments(n: int) -> list:
    """All 2^n treatments in lexicographic order."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return [tuple((i >> (n - 1 - k)) & 1 for k in range(n)) for i in range(1 << n)]


def make_choice_set(options: Sequence) -> ChoiceSet:
    """Validate and freeze a choice set, keeping the given option order.

    Raises MixedWidth if the options disagree on factor count and
    DuplicateOption if any two options coincide.
    """
    opts = tuple(treatment(o) for o in options)
    if len(opts) < 2:
        raise ValueError("a choice set needs at least 2 options")
    n = len(opts[0])
    for o in opts[1:]:
        if len(o) != n:
            raise MixedWidth(f"options of widths {n} and {len(o)} in one set")
    if len(set(opts)) != len(opts):
        dup = next(o for i, o in enumerate(opts) if o in opts[:i])
        raise DuplicateOption(f"option {bits_string(dup)} repeated in a choice set")
    return opts


@dataclass(frozen=True)
class ChoiceDesign:
    """An ordered multiset of N choice sets over n two-level factors."""

    sets: tuple

    def __post_init__(self):
        if not self.sets:
            raise ValueError("a design needs at least one choice set")
        validated = tuple(make_choice_set(s) for s in self.sets)
        object.__setattr__(self, "sets", validated)
        n, m = len(validated[0][0]), len(validated[0])
        for s in validated[1:]:
            if len(s[0]) != n:
                raise MixedWidth("choice sets disagree on factor count")
            if len(s) != m:
                raise ShapeMismatch("choice sets disagree on set size m")

    @property
    def n(self) -> int:
        return len(self.sets[0][0])

    @property
    def m(self) -> int:
        return len(self.sets[0])

    @property
    def N(self) -> int:
        return len(self.sets)

    @cached_property
    def indices(self) -> np.ndarray:
        """Read-only (N, m) int64 lexicographic indices of the options.

        Built once per design; Unsupported beyond MAX_INDEX_FACTORS factors.
        """
        if self.n > MAX_INDEX_FACTORS:
            raise Unsupported(f"option indices are limited to n <= "
                              f"{MAX_INDEX_FACTORS} factors, got {self.n}")
        weights = 1 << np.arange(self.n - 1, -1, -1, dtype=np.int64)
        idx = np.array(self.sets, dtype=np.int64) @ weights
        idx.setflags(write=False)
        return idx

    @classmethod
    def from_sets(cls, sets: Iterable[Sequence]) -> "ChoiceDesign":
        return cls(tuple(sets))

    @classmethod
    def from_components(cls, components: Sequence[Sequence]) -> "ChoiceDesign":
        """Assemble a design from m component matrices A_1..A_m (each N rows).

        Row p of component i becomes option i of choice set p.
        """
        mats = [tuple(treatment(row) for row in a) for a in components]
        if len(mats) < 2:
            raise ShapeMismatch("need at least 2 component matrices")
        rows = len(mats[0])
        if any(len(a) != rows for a in mats):
            raise ShapeMismatch("component matrices disagree on row count")
        return cls.from_sets(
            tuple(a[p] for a in mats) for p in range(rows)
        )

    def components(self) -> tuple:
        """The component view: m matrices, each a tuple of N treatment rows."""
        return tuple(
            tuple(s[i] for s in self.sets) for i in range(self.m)
        )

    def treatments(self) -> tuple:
        """All N*m options in (set, option) order, duplicates included."""
        return tuple(t for s in self.sets for t in s)


def _complement_treatment(t: Treatment) -> Treatment:
    return tuple(1 - b for b in t)


@overload
def complement(x: ChoiceDesign) -> ChoiceDesign: ...
@overload
def complement(x: tuple) -> tuple: ...


def complement(x):
    """Flip every bit; works on a treatment, a choice set, or a design."""
    if isinstance(x, ChoiceDesign):
        return ChoiceDesign(tuple(complement(s) for s in x.sets))
    if x and isinstance(x[0], tuple):
        return tuple(_complement_treatment(t) for t in x)
    return _complement_treatment(x)


def add_generator(rows: Sequence, g: Sequence) -> tuple:
    """XOR every row of a binary matrix with the generator g."""
    gen = treatment(g)
    out = []
    for row in rows:
        r = treatment(row)
        if len(r) != len(gen):
            raise WidthMismatch(
                f"generator width {len(gen)} does not match row width {len(r)}"
            )
        out.append(tuple(b ^ gb for b, gb in zip(r, gen)))
    return tuple(out)


def direct_add(d1: ChoiceDesign, d2: ChoiceDesign) -> ChoiceDesign:
    """Factor-wise concatenation of two designs with equal N and m.

    Option j of set p is the concatenation of option j of set p of each
    operand, giving n1+n2 factors.
    """
    if d1.N != d2.N or d1.m != d2.m:
        raise ShapeMismatch(
            f"direct_add needs equal shapes, got N={d1.N},m={d1.m} and N={d2.N},m={d2.m}"
        )
    return ChoiceDesign.from_sets(
        tuple(t1 + t2 for t1, t2 in zip(s1, s2))
        for s1, s2 in zip(d1.sets, d2.sets)
    )


def truncate_factors(d: ChoiceDesign, n_new: int) -> ChoiceDesign:
    """Keep only the first n_new factors of every treatment."""
    if not 1 <= n_new <= d.n:
        raise ValueError(f"cannot truncate width-{d.n} design to {n_new} factors")
    return ChoiceDesign.from_sets(
        tuple(t[:n_new] for t in s) for s in d.sets
    )


def canonical_design(d: ChoiceDesign) -> ChoiceDesign:
    """Canonical form: options sorted within each set, sets sorted.

    Choice sets are semantically unordered, as is the design's multiset of
    sets; two designs are equivalent exactly when their canonical forms
    are equal.
    """
    return ChoiceDesign(tuple(sorted(tuple(sorted(s)) for s in d.sets)))


def equivalent(d1: ChoiceDesign, d2: ChoiceDesign) -> bool:
    """Equality up to within-set option order and set order."""
    return canonical_design(d1).sets == canonical_design(d2).sets
