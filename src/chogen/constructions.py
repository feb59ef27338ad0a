"""Design constructions from Hadamard seeds, generators, and direct addition.

Each function emits a ChoiceDesign ready for certification; nothing here
claims optimality by itself.  Column selections are deterministic: the
stated default columns, or the lexicographically first admissible choice
when the default would collide two options.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .designs import (ChoiceDesign, _index_array, bits_string, complement,
                      distinct, lex_index, pack_bits, treatment)
from .errors import (BadGenerators, BadGroup, RangeError, Unsupported,
                     WidthMismatch)
from .hadamard import is_sylvester, least_hadamard_order, positive_columns
from .models import ModelSpec


def default_generators(n: int, alpha: int) -> tuple:
    """The first alpha unit vectors e_1..e_alpha of width n."""
    if alpha > n:
        raise RangeError(f"cannot form {alpha} unit generators on {n} factors")
    return tuple(tuple(int(k == u) for k in range(n)) for u in range(alpha))


def validate_generators(gens: Sequence, n: int) -> tuple:
    """Enforce the generator conditions: distinct, complement-free,
    nonzero, not all-ones, width n."""
    out = []
    for g in gens:
        gt = treatment(g)
        if len(gt) != n:
            raise WidthMismatch(f"generator width {len(gt)}, expected {n}")
        out.append(gt)
    seen = set()
    for g in out:
        if sum(g) == 0:
            raise BadGenerators("zero generator")
        if sum(g) == n:
            raise BadGenerators("all-ones generator")
        if g in seen:
            raise BadGenerators(f"repeated generator {g}")
        comp = complement(g)
        if comp in seen:
            raise BadGenerators(f"generators {comp} and {g} are complements")
        seen.add(g)
    return tuple(out)


def seed_alpha(n: int) -> int:
    """The default Sylvester seed width 2^alpha: the least >= n, alpha >= 2."""
    return max(2, (n - 1).bit_length())


def direct_add_alpha(n: int, m: int) -> int:
    """The direct-addition depth: the least alpha >= 1 with n <= 2^alpha (m-1)."""
    return max(1, ((n - 1) // (m - 1)).bit_length())


def coset_columns(n: int, r: int, m: int) -> tuple:
    """The least seed width k and the 1-based columns of a generator-shift
    design for the group model on a Sylvester seed of width 2^k.

    Column c_j gives effect e the label L(e), the xor of c_j over j in e,
    and C* is diagonal iff no two effects of one coupled sign pattern
    share a label.  So group 2 (factors r+1..n) needs affinely independent
    columns, whose pairwise xors span E of dimension d = n-r-1, and each
    group-1 factor its own coset of E, avoiding group 2's coset at m=3 and
    wherever group 2 fills it (d <= 1).  Hence k = d + ceil(log2 r), or
    d + ceil(log2(r+1)) when avoiding; there N(m-1) >= 3 r 2^d >= Q, so
    the rank bound never asks for more.  Spec-all is r = 1.

    Sharing, group 2 takes 0-based columns 3, 3^1, 3^2, 3^4, ... in E (the
    low d bits) and factor h takes (h-1) 2^d; avoiding, group 2 takes 1,
    2, 4, ..., 2^d and group 1 the cosets 0, 2, 3, ... of (bits above d,
    parity).  Factor 1 takes column 1.
    """
    if m not in (3, 4):
        raise Unsupported(f"coset columns cover m in {{3,4}}, got {m}")
    if not 1 <= r < n:
        raise RangeError(f"coset columns need 1 <= r < n, got r={r}, n={n}")
    d = n - r - 1
    if m == 4 and d >= 2:
        group1 = [h << d for h in range(r)]
        group2 = [3] + [3 ^ (1 << t) for t in range(d)]
        k = d + (r - 1).bit_length()
    else:
        group1 = [((i >> 1) << (d + 1)) | (i & 1)
                  for i in (0, *range(2, r + 1))]
        group2 = [1 << t for t in range(d + 1)]
        k = d + r.bit_length()
    return k, tuple(c + 1 for c in group1 + group2)


def spec_generator(n: int, r: int = 1) -> tuple:
    """The generator with r leading ones; r = 1 gives e_1."""
    return (1,) * r + (0,) * (n - r)


# how many seeds' rows and default columns are kept (_seed_rows,
# _default_columns); the reference table reads 37 and 29
SEED_MEMO = 64


@functools.lru_cache(maxsize=SEED_MEMO, typed=True)
def _seed_rows(order: int, cols: Sequence[int]) -> np.ndarray:
    """Option indices of the seed's rows on 1-based columns, +1 as bit 1,
    read-only; cols is a tuple or a range.

    The entries come from hadamard.positive_columns: Walsh characters for
    a Sylvester seed, the checked hadamard(order) for any other.
    """
    rows = pack_bits(positive_columns(order, np.asarray(cols) - 1))
    rows.setflags(write=False)
    return rows


def _shifted(A1: np.ndarray, n: int, gens) -> np.ndarray:
    """Components A_1, its complement A_2, then A_1 + g and A_2 + g for
    each generator g in turn, as the columns of an index array."""
    shifts = [g ^ c for g in [0, *map(lex_index, gens)]
              for c in (0, (1 << n) - 1)]
    return A1[:, None] ^ _index_array(shifts, n)


def _design(x, n: int, fold: bool = False) -> ChoiceDesign:
    """The sets of index array x, then their complements if fold."""
    x = np.asarray(x)
    return ChoiceDesign.from_indices(
        np.vstack((x, x ^ ((1 << n) - 1))) if fold else x, n)


def _gf2_reduce(basis: list, v: int) -> int:
    """v reduced by a GF(2) basis, each vector already reduced by those
    before it; 0 iff v lies in the span."""
    for b in basis:
        v = min(v, v ^ b)
    return v


def _spans(order: int, cols) -> bool:
    """Whether the 0-based columns cols - 1 span GF(2)^k, order = 2^k."""
    basis = []
    for c in cols:
        v = _gf2_reduce(basis, c - 1)
        if v:
            basis.append(v)
    return 1 << len(basis) == order


def _span_below(basis: list, x: int) -> int:
    """How many members of the span of basis, reduced echelon by descending
    leading bit, lie below x: the member picked by the bits of i increases
    with i, so the count is read greedily from the top."""
    count, v = 0, 0
    for k, b in enumerate(basis):
        if v ^ b < x:
            v ^= b
            count += 1 << (len(basis) - 1 - k)
    return count + (v < x)


def _spanning_columns(order: int, n: int, first: int) -> Optional[tuple]:
    """The lexicographically first n columns of first..order whose seed
    rows are distinct, for a Sylvester seed of order 2^k.

    Row i on 0-based column c reads the parity of |i & c|, so the rows
    are distinct iff the 0-based column indices span GF(2)^k.  Each slot
    takes the next column, or, when the slots left could not make up the
    missing rank without it, the next column outside the span so far,
    found by a binary search on the count of non-members below a column.
    While a spanning completion exists that is the least column leaving
    one, so a spanning set found this way is the first; when none exists
    the result does not span, or is None if the columns run out.
    """
    k = order.bit_length() - 1
    basis, chosen, c = [], [], first - 1
    for slot in range(n):
        if len(basis) + n - slot - 1 < k:
            outside = c - _span_below(basis, c)
            c += bisect.bisect_right(
                range(c, order), outside,
                key=lambda y: y + 1 - _span_below(basis, y + 1))
        if c >= order:
            return None
        v = _gf2_reduce(basis, c)
        if v:  # reduce the basis by v, whose leading bit is new, and keep it
            basis = sorted([min(b, b ^ v) for b in basis] + [v], reverse=True)
        c += 1
        chosen.append(c)
    return tuple(chosen)


def _resolve_columns(order: int, n: int, columns: Optional[Sequence[int]],
                     first_column: str) -> tuple:
    """Column indices (1-based) into the seed matrix.

    first_column is "required", "excluded", or "free".  The default is the
    first n allowed columns or, if that collides two seed rows, the
    lexicographically first allowed column set with distinct rows.  On a
    Sylvester seed both are tested by GF(2) rank (_spans), and the set is
    chosen column by column (_spanning_columns); other orders walk the
    column combinations and compare seed rows.
    """
    if columns is not None:
        cols = tuple(int(c) for c in columns)
        if len(cols) != n:
            raise RangeError(f"need exactly {n} columns, got {len(cols)}")
        if len(set(cols)) != n or any(not 1 <= c <= order for c in cols):
            raise RangeError(f"columns must be distinct and in 1..{order}")
        if first_column == "required" and 1 not in cols:
            raise RangeError("this seed requires column 1")
        if first_column == "excluded" and 1 in cols:
            raise RangeError("this seed excludes column 1")
        return cols
    return _default_columns(order, n, first_column)


@functools.lru_cache(maxsize=SEED_MEMO, typed=True)
def _default_columns(order: int, n: int, first_column: str) -> tuple:
    """_resolve_columns' choice when no columns are given."""
    first = 2 if first_column == "excluded" else 1
    pool = range(first, order + 1)
    default = tuple(pool[:n])
    if order > (1 << n):
        raise RangeError(
            f"{order} distinct options cannot fit in {n} two-level factors"
        )
    sylvester = is_sylvester(order)
    rest = ([_spanning_columns(order, n, first)] if sylvester
            else itertools.combinations(pool, n))
    for cols in itertools.chain([default], rest):
        if cols is None or first_column == "required" and cols[0] != 1:
            continue
        if (_spans(order, cols) if sylvester
                else distinct(_seed_rows(order, cols)).size == order):
            return cols
    raise RangeError(
        f"no {n} columns of the order-{order} seed give distinct rows"
    )


def _generator_shift(n: int, m: int, generators, order, columns,
                     first_column: str, fold: bool) -> ChoiceDesign:
    """The Theorem 1 shift, the one route of every generator-shift design:
    seed rows A_1 (order None: the least Hadamard order >= n), A_2 = its
    complement and (A_1+g, A_2+g) per generator g; the first m of them
    are the sets, followed by their complements if fold."""
    if m < 2:
        raise RangeError(f"set size m must be at least 2, got {m}")
    nu = least_hadamard_order(n) if order is None else order
    if n > nu:
        raise RangeError(f"n={n} exceeds the seed order {nu}")
    alpha_needed = (m - 1) // 2
    gens = validate_generators(default_generators(n, alpha_needed)
                               if generators is None else generators, n)
    if len(gens) < alpha_needed:
        raise RangeError(
            f"m={m} needs at least {alpha_needed} generators, got {len(gens)}")
    cols = _resolve_columns(nu, n, columns, first_column)
    return _design(_shifted(_seed_rows(nu, cols), n, gens)[:, :m], n, fold)


def theorem1_design(n: int, m: int, generators=None, order: int = None,
                    columns=None) -> ChoiceDesign:
    """Generator-expanded foldover: broader-model design for any m >= 2.

    A_1 holds Hadamard seed rows, A_2 its complement, and each generator
    g contributes the pair (A_1+g, A_2+g).  Even m keeps the first m
    components (N = seed order); odd m appends the full complement design
    (N doubles).
    """
    return _generator_shift(n, m, generators, order, columns, "free",
                            m % 2 == 1)


def theorem1_main_design(n: int, m: int, generators=None, order: int = None,
                         columns=None) -> ChoiceDesign:
    """The half of theorem1_design (no complement sets), optimal for
    main effects only; N = seed order for every m."""
    return _generator_shift(n, m, generators, order, columns, "free", False)


def single_set_design(n: int, order: int = None, columns=None) -> ChoiceDesign:
    """One choice set of seed rows plus all their complements: N=1, m=2*order."""
    nu = least_hadamard_order(n) if order is None else order
    if n > nu:
        raise RangeError(f"n={n} exceeds the seed order {nu}")
    if 2 * nu > (1 << n):
        raise RangeError(
            f"{2 * nu} distinct options cannot fit in {n} two-level factors"
        )
    mode = "free" if n == nu else "excluded"
    cols = _resolve_columns(nu, n, columns, mode)
    rows = _seed_rows(nu, cols)
    return _design([np.append(rows, rows ^ ((1 << n) - 1))], n)


def _single_rows(n: int, order, columns) -> np.ndarray:
    """The one set of hadamard_single_set_design, as a (1, order) index
    array."""
    nu = least_hadamard_order(n + 1) if order is None else order
    if n > nu - 1:
        raise RangeError(f"single Hadamard set needs n <= order-1, got n={n}")
    cols = _resolve_columns(nu, n, columns, "excluded")
    return _seed_rows(nu, cols)[None, :]


def hadamard_single_set_design(n: int, order: int = None,
                               columns=None) -> ChoiceDesign:
    """One choice set of the order-many seed rows: N=1, m=order, n < order;
    optimal for main effects (the foldover pair covers the broader model)."""
    return _design(_single_rows(n, order, columns), n)


def foldover_pair_design(n: int, order: int = None, columns=None) -> ChoiceDesign:
    """Seed rows and their complements as two sets: N=2, m=order, n < order."""
    return _design(_single_rows(n, order, columns), n, fold=True)


def _direct_add_rows(n: int, m: int) -> np.ndarray:
    """The index array of theorem2_half_design: the seed's set on m - 1
    factors, each step its direct sums (direct_add) with itself and with
    its complement, then the first n factors (truncate_factors)."""
    if m < 2:
        raise RangeError(f"set size must be at least 2, got {m}")
    if n <= m - 1:
        raise RangeError(
            f"direct-addition designs need n > {m - 1}; use a single-set "
            f"or foldover construction for n={n}"
        )
    x, width = _seed_rows(m, range(2, m + 1))[None, :], m - 1
    for _ in range(direct_add_alpha(n, m)):
        x = _index_array(x, 2 * width)
        x = np.vstack(((x << width) | x,
                       (x << width) | (x ^ ((1 << width) - 1))))
        width *= 2
    return x >> (width - n)


def theorem2_half_design(n: int, m: int) -> ChoiceDesign:
    """Recursive direct-addition design, N = 2^alpha sets of size m.

    m must be a supported Hadamard order; alpha is minimal with
    n <= 2^alpha (m-1).  Optimal for main effects.
    """
    return _design(_direct_add_rows(n, m), n)


def theorem2_design(n: int, m: int) -> ChoiceDesign:
    """The direct-addition design with its complement: N = 2^(alpha+1)."""
    return _design(_direct_add_rows(n, m), n, fold=True)


def specified_design(n: int, m: int, r: int = 1, order: int = None,
                     columns=None) -> ChoiceDesign:
    """The generator-shift design for the specified-interaction models.

    It is the Theorem 1 shift by the one generator with r leading ones,
    on seed columns that include column 1, for m in {3,4}: m=4 gives
    (A_1, comp, A_1+g, comp+g), and m=3 keeps three components and
    appends the complement design.  r = 1 serves the spec-all and spec-2f
    models, larger r the groups {1..r} x {r+1..n}.  order is the seed
    order, by default the least Hadamard order >= n; the catalog's
    spec-all and spec-group recipes take Sylvester orders 2^alpha.
    """
    if m not in (3, 4):
        raise Unsupported(f"specified-interaction constructions cover m in {{3,4}}, got {m}")
    if n < 2:
        raise RangeError("specified-interaction designs need n >= 2")
    if not 1 <= r <= n - 1:
        raise BadGroup(f"group size r must lie in 1..{n - 1}, got {r}")
    return _generator_shift(n, m, (spec_generator(n, r),), order, columns,
                            "required", m == 3)


@dataclass(frozen=True)
class ConstructionRecipe:
    """A fully determined construction call plus the model it claims;
    the model's n and r are the design's."""

    id: str
    m: int
    model: ModelSpec
    claimed_N: int
    variant: str = "full"  # "half" drops the complement sets where defined
    order: Optional[int] = None
    alpha: Optional[int] = None
    generators: Optional[tuple] = None
    columns: Optional[tuple] = None
    note: str = ""

    def describe(self) -> str:
        bits = [self.id]
        if self.variant != "full":
            bits.append(self.variant)
        if self.order is not None:
            bits.append(f"order={self.order}")
        if self.alpha is not None:
            bits.append(f"alpha={self.alpha}")
        if self.generators:
            bits.append("generators=" + ",".join(map(bits_string, self.generators)))
        if self.model.r is not None:
            bits.append(f"r={self.model.r}")
        return " ".join(bits)

    def applied_generators(self) -> tuple:
        """The generators the construction shifts by: a T1-generator
        recipe's own or the default unit vectors, a spec-* recipe's
        spec_generator, () for the constructions that shift by none."""
        if self.id == "T1-generator":
            if self.generators is not None:
                return self.generators
            return default_generators(self.model.n, (self.m - 1) // 2)
        if self.id.startswith("spec-"):
            return (spec_generator(self.model.n, self.model.r or 1),)
        return ()


def build(recipe: ConstructionRecipe) -> ChoiceDesign:
    """Materialize a recipe; the result is checked against its claimed N.

    The generator-shift recipes call their public constructor on a seed
    of order 2^alpha, else their order: T1-generator calls theorem1_design
    (full) or theorem1_main_design (half) with its applied_generators, and
    a spec-* recipe calls specified_design with its model's r.
    """
    rid, n, m = recipe.id, recipe.model.n, recipe.m
    order = recipe.order if recipe.alpha is None else 1 << recipe.alpha
    if rid == "T1-generator":
        fn = theorem1_design if recipe.variant == "full" else theorem1_main_design
        d = fn(n, m, recipe.applied_generators(), order, recipe.columns)
    elif rid.startswith("spec-"):
        d = specified_design(n, m, recipe.model.r or 1, order, recipe.columns)
    elif rid == "single-set":
        d = single_set_design(n, recipe.order, recipe.columns)
    elif rid == "foldover-pair":
        fn = (foldover_pair_design if recipe.variant == "full"
              else hadamard_single_set_design)
        d = fn(n, recipe.order, recipe.columns)
    elif rid == "T2-direct-add":
        fn = theorem2_design if recipe.variant == "full" else theorem2_half_design
        d = fn(n, m)
    else:
        raise Unsupported(f"unknown construction id {rid!r}")
    if d.N != recipe.claimed_N or d.m != m or d.n != n:
        raise RangeError(
            f"{recipe.describe()} produced N={d.N}, m={d.m}, n={d.n}, "
            f"claimed N={recipe.claimed_N}, m={m}, n={n}"
        )
    return d
