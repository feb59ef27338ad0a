"""Treatments, choice sets, and choice designs for two-level factors.

A treatment is a tuple of n bits with factor 1 leftmost.  A choice set is
an ordered tuple of m pairwise distinct treatments of common width.  A
choice design is an ordered multiset of N choice sets, held as n and a
read-only (N, m) array of lexicographic option indices (factor 1 the most
significant bit, so integer order is treatment order): int64 up to
MAX_INDEX_FACTORS factors, Python ints in an object array beyond.  The
operators are XORs and shifts on that array.  All values are immutable.
ChoiceDesign.translates reads once whether every set is b_p xor one pattern
delta, and the b_p one coset of a subspace, as in generator shifts of
Hadamard seed rows; copies and pickles read it again.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (DuplicateOption, MixedWidth, ShapeMismatch, Unsupported,
                     WidthMismatch)

# int64 option indices hold at most 63 factors
MAX_INDEX_FACTORS = 63

_BITS = {"0": 0, "1": 1, 0: 0, 1: 1}


def treatment(bits: Union[str, Iterable[int]]) -> tuple:
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


def bits_string(t: tuple) -> str:
    return "".join(str(b) for b in t)


def lex_index(t: tuple) -> int:
    """Lexicographic index of a treatment, factor 1 as most significant bit."""
    return int(bits_string(t), 2)


def all_treatments(n: int) -> list:
    """All 2^n treatments in lexicographic order."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return [tuple((i >> (n - 1 - k)) & 1 for k in range(n)) for i in range(1 << n)]


def make_choice_set(options: Sequence) -> tuple:
    """Validate and freeze a choice set, keeping the given option order;
    MixedWidth or DuplicateOption name the fault."""
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


def _checked_sets(sets) -> tuple:
    """Decode and check the sets one by one; raises on the first fault."""
    if not sets:
        raise ValueError("a design needs at least one choice set")
    validated = tuple(make_choice_set(s) for s in sets)
    n, m = len(validated[0][0]), len(validated[0])
    for s in validated[1:]:
        if len(s[0]) != n:
            raise MixedWidth("choice sets disagree on factor count")
        if len(s) != m:
            raise ShapeMismatch("choice sets disagree on set size m")
    return validated


def _plain_bits(sets):
    """(N, m, n) bits of equal-size sets whose options are all 0/1 strings
    or all 0/1 integer sequences of one width; None for anything else."""
    try:
        a = np.array(sets)
    except (ValueError, TypeError):
        return None
    if a.dtype.kind == "U" and a.ndim == 2:
        # a shorter string pads with code 0, which fails the check below
        a = a.view(np.uint32).reshape(a.shape + (-1,)) - 48
    elif a.dtype.kind not in "biu" or a.ndim != 3:
        return None
    return None if ((a | 1) != 1).any() else a.astype(np.uint8)


def _index_array(x, n: int) -> np.ndarray:
    return np.array(x, dtype=np.int64 if n <= MAX_INDEX_FACTORS else object)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Lexicographic indices of the 0/1 vectors along the last axis."""
    n = bits.shape[-1]
    weights = _index_array([1 << k for k in range(n - 1, -1, -1)], n)
    return bits.astype(weights.dtype) @ weights


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of an array, flattened.

    np.unique gives the same, but its first call imports numpy.ma.
    """
    flat = np.sort(values, axis=None)
    keep = np.ones(flat.size, dtype=bool)
    keep[1:] = flat[1:] != flat[:-1]
    return flat[keep]


def _unpack(x: np.ndarray, n: int) -> tuple:
    """The treatment tuples of an index array, nested as the array is."""
    bits = (x[..., None] >> np.arange(n - 1, -1, -1)) & 1
    return tuple(tuple(map(tuple, s)) for s in bits.tolist())


def _pattern(d: "ChoiceDesign"):
    """(b, delta) when every set p holds the options b_p xor delta, for one
    pattern delta with delta[0] = 0; else None.

    In the given option order b is the first column.  Otherwise, when
    m^2 <= 2^n, the sets are sorted and each b_p is sought among its set's
    m options, which lie in b_p xor delta since delta holds 0: m sorts of
    the N m options, at most N 2^n steps.
    """
    delta = d.indices[0] ^ d.indices[0, 0]
    if (d.indices ^ d.indices[:, :1] == delta).all():
        return np.ascontiguousarray(d.indices[:, 0]), delta
    if d.m * d.m > 1 << d.n:
        return None
    S = np.sort(d.indices, axis=1)
    delta = np.sort(S[0] ^ S[0, 0])
    b, found = S[:, 0].copy(), np.zeros(d.N, dtype=bool)
    for t in S.T:
        fits = ~found & (np.sort(S ^ t[:, None], axis=1) == delta).all(axis=1)
        b[fits] = t[fits]
        found |= fits
    return (b, delta) if found.all() else None


def _coset(b: np.ndarray):
    """A GF(2) basis of V when the multiset b is one coset of a subspace V,
    each member equally often, else None: sorted, a subspace lists its
    echelon basis at 1, 2, 4, ..., and doubling that rebuilds it in order."""
    s = np.sort(b)
    mult = int(np.searchsorted(s, s[0], "right"))
    k = (b.size // mult).bit_length() - 1
    if b.size != mult << k or (s.reshape(-1, mult) != s[::mult, None]).any():
        return None
    V = np.sort(s[::mult] ^ s[0])
    basis, span = V[1 << np.arange(k)], V[:1]
    for v in basis:
        span = np.concatenate((span, span ^ v))
    return basis if np.array_equal(span, V) else None


class ChoiceDesign:
    """An ordered multiset of N choice sets over n two-level factors.

    ChoiceDesign(sets) reads treatments or bit strings, from_indices the
    index array.  Each set is checked by one sort; a faulty design is then
    decoded set by set, so make_choice_set names the fault.
    """

    def __init__(self, sets):
        sets = tuple(sets)
        bits = _plain_bits(sets)
        if bits is None:  # anything else decodes, or fails, set by set
            bits = np.array(_checked_sets(sets), dtype=np.uint8)
        self._freeze(pack_bits(bits), bits.shape[-1])

    @classmethod
    def from_indices(cls, indices, n: int) -> "ChoiceDesign":
        """A design from an (N, m) array of option indices in 0..2^n - 1."""
        x = _index_array(indices, n)
        if x.size and (x.min() < 0 or x.max() >> n):
            raise ValueError(f"option indices must lie in 0..2^{n} - 1")
        d = cls.__new__(cls)
        d._freeze(x, n)
        return d

    def _freeze(self, x: np.ndarray, n: int):
        s = np.sort(x, axis=1)
        if not x.size or x.shape[1] < 2 or (s[:, 1:] == s[:, :-1]).any():
            _checked_sets(_unpack(x, n))  # names the fault, as for tuples
        x.setflags(write=False)
        self.__dict__.update(array=x, n=n, N=x.shape[0], m=x.shape[1])

    def __setattr__(self, name, value):
        raise AttributeError("ChoiceDesign is immutable")

    def __reduce__(self):  # copies and pickles rebuild a read-only array
        return ChoiceDesign.from_indices, (self.array, self.n)

    @property
    def indices(self) -> np.ndarray:
        """The index array as int64; Unsupported beyond MAX_INDEX_FACTORS."""
        if self.n > MAX_INDEX_FACTORS:
            raise Unsupported(f"option indices are limited to n <= "
                              f"{MAX_INDEX_FACTORS} factors, got {self.n}")
        return self.array

    @cached_property
    def translates(self) -> tuple:
        """(pattern, basis): _pattern(self) and the _coset basis of its
        translations b, each None where it does not hold, read once."""
        pattern = _pattern(self)
        return pattern, None if pattern is None else _coset(pattern[0])

    @cached_property
    def sets(self) -> tuple:
        """The sets as tuples of treatments, built once on demand."""
        return _unpack(self.array, self.n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChoiceDesign):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        # n fixes the dtype, so equal designs give equal bytes or ints
        x = self.array
        values = tuple(x.flat) if x.dtype == object else x.tobytes()
        return hash((self.n, x.shape, values))

    def __repr__(self) -> str:
        return f"ChoiceDesign(sets={self.sets!r})"

    @classmethod
    def from_sets(cls, sets: Iterable[Sequence]) -> "ChoiceDesign":
        return cls(sets)

    @classmethod
    def from_components(cls, components: Sequence[Sequence]) -> "ChoiceDesign":
        """Assemble a design from m component matrices A_1..A_m (each N rows).

        Row p of component i becomes option i of choice set p.
        """
        mats = [tuple(treatment(row) for row in a) for a in components]
        if len(mats) < 2:
            raise ShapeMismatch("need at least 2 component matrices")
        if any(len(a) != len(mats[0]) for a in mats):
            raise ShapeMismatch("component matrices disagree on row count")
        return cls(tuple(zip(*mats)))

    def components(self) -> tuple:
        """The component view: m matrices, each a tuple of N treatment rows."""
        return tuple(zip(*self.sets))

    def treatments(self) -> tuple:
        """All N*m options in (set, option) order, duplicates included."""
        return tuple(t for s in self.sets for t in s)


def complement(x):
    """Flip every bit; works on a treatment, a choice set, or a design."""
    if isinstance(x, ChoiceDesign):
        return ChoiceDesign.from_indices(x.array ^ ((1 << x.n) - 1), x.n)
    if x and isinstance(x[0], tuple):
        return tuple(complement(t) for t in x)
    return tuple(1 - b for b in x)


def add_generator(x, g: Sequence):
    """XOR every option of a design, or every row of a binary matrix, with g."""
    gen = treatment(g)
    rows = None if isinstance(x, ChoiceDesign) else [treatment(r) for r in x]
    for width in [x.n] if rows is None else map(len, rows):
        if width != len(gen):
            raise WidthMismatch(
                f"generator width {len(gen)} does not match row width {width}")
    if rows is None:
        return ChoiceDesign.from_indices(x.array ^ lex_index(gen), x.n)
    return tuple(tuple(b ^ gb for b, gb in zip(r, gen)) for r in rows)


def direct_add(d1: ChoiceDesign, d2: ChoiceDesign) -> ChoiceDesign:
    """Factor-wise concatenation of two designs with equal N and m.

    Option j of set p is the concatenation of option j of set p of each
    operand, giving n1+n2 factors.
    """
    if d1.N != d2.N or d1.m != d2.m:
        raise ShapeMismatch(
            f"direct_add needs equal shapes, got N={d1.N},m={d1.m} and N={d2.N},m={d2.m}"
        )
    n = d1.n + d2.n
    x1, x2 = _index_array(d1.array, n), _index_array(d2.array, n)
    return ChoiceDesign.from_indices((x1 << d2.n) | x2, n)


def truncate_factors(d: ChoiceDesign, n_new: int) -> ChoiceDesign:
    """Keep only the first n_new factors of every treatment."""
    if not 1 <= n_new <= d.n:
        raise ValueError(f"cannot truncate width-{d.n} design to {n_new} factors")
    return ChoiceDesign.from_indices(d.array >> (d.n - n_new), n_new)


def canonical_design(d: ChoiceDesign) -> ChoiceDesign:
    """Canonical form: options sorted within each set, sets sorted.

    Choice sets are semantically unordered, as is the design's multiset of
    sets; two designs are equivalent exactly when their canonical forms
    are equal.  Index order is treatment order, so this sorts integers.
    """
    x = np.sort(d.array, axis=1)
    return ChoiceDesign.from_indices(x[np.lexsort(x.T[::-1])], d.n)


def equivalent(d1: ChoiceDesign, d2: ChoiceDesign) -> bool:
    """Equality up to within-set option order and set order."""
    return canonical_design(d1) == canonical_design(d2)
