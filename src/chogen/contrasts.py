"""Effective positions, contrast vectors, and exact information matrices.

Verdicts are computed over the integers: C is an integer matrix C* times
the exact scale 1/(2^n N m^2), from effect bit masks (models), which the
public functions also take as FactorialEffects.  Every block of C* comes
from cstar_entries as a stream of its nonzero entries, a chunk of rows at
a time: joined by labels when the sets translate one pattern by one coset
of a subspace, as generator shifts of Sylvester rows do, and otherwise a
Walsh transform of the option histogram less a product of per-set sign
sums.  Neither route holds a whole block.  Floats appear only in
info_matrix's numeric branch and as exact integers in _product's copy of
S, in int_product and in _fwht's products.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import ratlinalg
from .designs import ChoiceDesign, distinct
from .errors import EffectOutOfRange, InvariantError, SamePair, Unsupported
from .models import FactorialEffect, ModelSpec, _effect_masks
from .ratlinalg import int_product

# lambda_star is a dense 2^n x 2^n matrix, so it is refused beyond this width
DENSE_MAX_N = 12

# relative eigenvalue cutoff of the numeric pseudo-inverse branch
PINV_CUTOFF = 1e-9

# elements per chunk of the per-set sums, the direct Walsh sums and the join
_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class ScaledIntMatrix:
    """An exact matrix: integer entries times a positive rational scale."""

    ints: np.ndarray
    scale: Fraction

    def __post_init__(self):
        arr = np.ascontiguousarray(self.ints, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "ints", arr)
        object.__setattr__(self, "scale", Fraction(self.scale))
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def shape(self):
        return self.ints.shape

    def trace(self) -> Fraction:
        return int(np.trace(self.ints)) * self.scale

    def entry(self, i: int, j: int) -> Fraction:
        return int(self.ints[i, j]) * self.scale

    def as_fractions(self) -> np.ndarray:
        return self.ints.astype(object) * self.scale

    def to_float(self) -> np.ndarray:
        return self.ints.astype(float) * float(self.scale)

    def is_diagonal(self) -> bool:
        return (np.count_nonzero(self.ints)
                == np.count_nonzero(np.diagonal(self.ints)))

    def __eq__(self, other) -> bool:
        """Exact equality of the represented values."""
        if not isinstance(other, ScaledIntMatrix):
            return NotImplemented
        if self.ints.shape != other.ints.shape:
            return False
        return bool(np.array_equal(self.as_fractions(), other.as_fractions()))


def effective_position(T: Sequence, e: FactorialEffect) -> int:
    """The derived binary coordinate (r+1 - sum of levels) mod 2."""
    if not e.within(len(T)):
        raise EffectOutOfRange(f"{e} does not fit in {len(T)} factors")
    s = sum(T[h - 1] for h in e.factors)
    return (e.order + 1 - s) % 2


def effective_choice_set(S: Sequence, e: FactorialEffect) -> tuple:
    """Elementwise effective positions of a choice set."""
    return tuple(effective_position(T, e) for T in S)


def contrast_vector(e: FactorialEffect, n: int) -> np.ndarray:
    """Signs of the effect over all 2^n treatments in lexicographic order.

    Entry at T is the product over the effect's factors of (2*level - 1);
    equivalently 2*effective_position - 1.
    """
    mask = int(_effect_masks((e,), n)[0])
    idx = np.arange(1 << n, dtype=np.int64)
    ones = np.bitwise_count(idx & mask).astype(np.int64)
    return 1 - 2 * ((e.order - ones) & 1)


def contrast_matrix(effects: Iterable[FactorialEffect], n: int) -> np.ndarray:
    """B: one contrast row per effect, in the given order."""
    return np.vstack([contrast_vector(e, n) for e in effects])


def pair_contribution(e1: FactorialEffect, e2: FactorialEffect,
                      Ti: Sequence, Tj: Sequence) -> int:
    """(x_i - x_j)(y_i - y_j) for one component pair: -4, 0, or +4.

    +4 when the effective pair is of (00,11) type, -4 for (01,10) type.
    """
    if tuple(Ti) == tuple(Tj):
        raise SamePair("component pair needs two distinct treatments")
    xi = 2 * effective_position(Ti, e1) - 1
    xj = 2 * effective_position(Tj, e1) - 1
    yi = 2 * effective_position(Ti, e2) - 1
    yj = 2 * effective_position(Tj, e2) - 1
    return (xi - xj) * (yi - yj)


def _as_masks(effects, n: int) -> np.ndarray:
    """A mask array as it is, or the masks of a FactorialEffect sequence."""
    return effects if isinstance(effects, np.ndarray) else _effect_masks(effects, n)


def _effect_signs(masks: np.ndarray) -> np.ndarray:
    """sigma(e) = (-1)^|e|, the sign of an effect at the all-zero option."""
    return 1 - 2 * (np.bitwise_count(masks) & 1).astype(np.int64)


def option_sign_matrix(d: ChoiceDesign, effects) -> np.ndarray:
    """Contrast signs of every effect (or mask) at every option, shape
    (Q, N*m), in (set, option) order; Unsupported beyond MAX_INDEX_FACTORS.
    """
    opts = d.indices.ravel()
    masks = _as_masks(effects, d.n)
    ones = np.bitwise_count(masks[:, None] & opts[None, :])
    # the parity is taken in uint8, so only the result is a full int64 array
    odd = ((np.bitwise_count(masks)[:, None] + ones) & 1).astype(bool)
    return np.where(odd, np.int64(-1), np.int64(1))


def pattern_weights(d: ChoiceDesign, masks: np.ndarray) -> np.ndarray:
    """w(e) = sigma(e) sum_i (-1)^|e & delta_i|, int64 in -m..m, for a design
    whose sets are b_p xor delta (d.translates): each set's sign sum is then
    S[q, p] = w(e_q) (-1)^|e_q & b_p|, so |S[q, p]| = |w(e_q)|.  sigma(e)
    (-1)^|e & t| = (-1)^|e & ~t|, so w is the Walsh transform (_walsh) of
    the complemented pattern."""
    delta = d.translates[0][1]
    return _walsh(delta ^ ((1 << d.n) - 1), d.n, masks)(masks)


def set_sums(d: ChoiceDesign, masks: np.ndarray,
             weights: np.ndarray = None) -> np.ndarray:
    """S[q, p]: the sum of the contrast signs of the effect of mask masks[q]
    over set p, shape (Q, N); the masks are on the design's n factors.

    Each entry is m - 2 * (zeros of the effective choice set), in the
    smallest signed type that fits -m..m.  A chunk of effects at a time,
    the odd parities are counted into S and turned into sigma(e) (m - 2 odd)
    in place, every intermediate within -m..m, so S is int8 up to m = 127.
    The parities of a chunk of effects against a block of sets, and of
    options when one set has more than _CHUNK, are one array of at most
    _CHUNK entries, reduced over its options, so the number of numpy calls
    follows the entries and not m.
    When all sets translate one pattern delta (d.translates), S is the
    weight pattern_weights times the signs at the translations b_p alone;
    weights, when given, is pattern_weights(d, masks), read instead of
    formed again.  verify forms S only for the product route, and reads the
    weights on a pattern's translates.
    """
    columns = np.ascontiguousarray(d.indices.T)  # (m, N)
    # -(m+1) needs a signed type whose maximum is at least m
    S = np.zeros((len(masks), d.N), dtype=np.min_scalar_type(-d.m - 1))
    signs, m = _effect_signs(masks), d.m
    pattern = d.translates[0]
    if pattern is not None:
        signs = pattern_weights(d, masks) if weights is None else weights
        columns, m = pattern[0][None, :], 1
    signs = signs.astype(S.dtype)[:, None]
    # (options, effects, sets) parities, option-major so that their sum
    # over the options adds whole (effects, sets) slices
    width = min(m, _CHUNK)
    sets = min(d.N, _CHUNK // width)
    step = max(1, _CHUNK // (width * sets))
    for lo in range(0, len(masks), step):
        block = masks[lo:lo + step, None]
        acc = S[lo:lo + step]
        for p in range(0, d.N, sets):
            for o in range(0, m, width):
                bits = np.bitwise_count(block & columns[o:o + width, None,
                                                       p:p + sets])
                bits &= 1
                acc[:, p:p + sets] += bits.sum(axis=0, dtype=S.dtype)
        odd = acc.copy()
        np.subtract(m, acc, out=acc)  # m - odd
        acc -= odd
        acc *= signs[lo:lo + step]
    return S


def _distinct(points: np.ndarray, n: int) -> np.ndarray:
    """The sorted distinct values of points, masks of n bits."""
    if (1 << n) <= points.size:
        seen = np.zeros(1 << n, dtype=bool)
        seen[points.ravel()] = True
        return np.flatnonzero(seen)
    return distinct(points)


# bits of the indices transformed by one product with _characters
_GROUP_BITS = 6


@functools.lru_cache(maxsize=None)
def _characters(g: int) -> np.ndarray:
    """(-1)^|x & y| over x, y < 2^g, the Sylvester matrix of order 2^g, as
    a read-only float64 array."""
    x = np.arange(1 << g)
    H = 1.0 - 2.0 * (np.bitwise_count(x[:, None] & x) & 1)
    H.setflags(write=False)
    return H


def _fwht(w: np.ndarray) -> np.ndarray:
    """The unnormalised Walsh-Hadamard transform of every row, as int64.

    w is an integer array whose last axis has 2^n entries (Fino & Algazi
    1976); a (k, 2^n) array transforms k histograms at once.  The transform
    is the Kronecker product of those of its groups of at most _GROUP_BITS
    index bits, so each group is one float64 product with _characters.
    Every partial sum is an integer no larger than the row's absolute sum,
    an option count far below 2^53, so each product is exact.
    """
    bits = w.shape[-1].bit_length() - 1
    done = min(_GROUP_BITS, bits)
    f = w.reshape(-1, 1 << done) @ _characters(done)  # float64, exact
    while done < bits:
        g = min(_GROUP_BITS, bits - done)
        f = _characters(g) @ f.reshape(-1, 1 << g, 1 << done)
        done += g
    return f.reshape(w.shape).astype(np.int64)


def _walsh(options: np.ndarray, n: int, points: np.ndarray):
    """The lookup u -> W[u] = sum over the options t of (-1)^|u & t|, the
    Walsh transform of the option histogram, for masks u among points.

    A fast transform costs n 2^n, direct sums at the distinct points U
    |U| N m and an n-step search a point; the transform is taken when no
    dearer than the larger, so wide designs never allocate a 2^n histogram,
    and always when it is at most two products (_fwht), n <= 2 _GROUP_BITS.
    With 2^n <= |points| it is taken before U is formed."""
    if n <= 2 * _GROUP_BITS or (1 << n) <= points.size or (
            n * (1 << n) <= (distinct := _distinct(points, n)).size
            * options.size):
        return _fwht(np.bincount(options, minlength=1 << n)).__getitem__
    odd = np.empty(distinct.size, dtype=np.min_scalar_type(options.size))
    small = np.min_scalar_type((1 << n) - 1)  # narrow types sum fastest
    pts, opts = distinct.astype(small), options.astype(small)
    step = max(1, _CHUNK // opts.size)
    for lo in range(0, pts.size, step):
        bits = np.bitwise_count(pts[lo:lo + step, None] & opts)
        bits &= 1
        bits.sum(axis=1, out=odd[lo:lo + step])
    values = options.size - 2 * odd.astype(np.int64)
    return lambda u: values[np.searchsorted(distinct, u)]


def lambda_star(d: ChoiceDesign) -> ScaledIntMatrix:
    """The 2^n x 2^n integer matrix Lambda* with scale 1/(N m^2).

    Each choice set contributes m-1 on the diagonal at its members and -1
    between distinct members; multiplicities add for repeated sets.
    """
    n, m = d.n, d.m
    if n > DENSE_MAX_N:
        raise Unsupported(f"dense lambda_star is limited to n <= "
                          f"{DENSE_MAX_N}, got {n}")
    Z = np.zeros((1 << n, 1 << n), dtype=np.int64)
    for mem in d.indices:
        Z[np.ix_(mem, mem)] -= 1
        Z[mem, mem] += m
    return ScaledIntMatrix(Z, Fraction(1, d.N * m * m))


def _leads(r: np.ndarray, c: np.ndarray) -> bool:
    """Whether the row masks r are the first columns c, as in C* or in
    interest against interest then nuisance."""
    return c is r or np.array_equal(c[:r.size], r)


def _join(d: ChoiceDesign, r: np.ndarray, c: np.ndarray):
    """Yield the block's nonzero entries (i, j, v), a chunk of rows at a time.

    Every set is b_p xor delta, the b_p one coset of the span V of basis,
    equally often (d.translates).  With u = e_i xor e_j, C*[i, j] is
    then 0 unless u is orthogonal to V, and N times the first set's own term
    m G(u) - G(e_i) G(e_j) if it is: G, the Walsh transform of that set's
    complemented options, is sigma(u) W(u), W that of its options (README).
    So row i meets only the columns whose label, their parities against the
    basis, is its own; sorted stably by label, they come in order.  Rows
    that lead the columns take their labels from the columns'.
    """
    basis = d.translates[1]
    key = 1 << np.arange(basis.size)
    lc = (np.bitwise_count(c[:, None] & basis) & 1) @ key
    lr = lc[:r.size] if _leads(r, c) else (
        np.bitwise_count(r[:, None] & basis) & 1) @ key
    order = lc.argsort(kind="stable")
    ranked = lc[order]
    lo = ranked.searchsorted(lr, "left")
    size = ranked.searchsorted(lr, "right") - lo
    width = np.arange(size.max())  # the largest class
    step = max(1, _CHUNK // max(1, width.size))
    complemented = d.indices[0] ^ ((1 << d.n) - 1)
    for a in range(0, r.size, step):
        i, t = (width < size[a:a + step, None]).nonzero()
        i += a
        j = order[lo[i] + t]
        ri, cj = r[i], c[j]
        points = np.concatenate((ri ^ cj, ri, cj))
        Gu, Gi, Gj = _walsh(complemented, d.n, points)(points).reshape(3, -1)
        v = Gu * d.m
        v -= Gi * Gj
        hit = v.nonzero()[0]
        yield i[hit], j[hit], d.N * v[hit]


def _product(d: ChoiceDesign, r: np.ndarray, c: np.ndarray, Sr, Sc):
    """Yield the nonzero entries (i, j, v) of m G - S_r S_c', _CHUNK at a time.

    G[i, j] = sigma(e_i) sigma(e_j) W[u] = sigma(u) W[u], u = e_i xor e_j, is
    the Walsh transform of the complemented options, looked up at the points
    of a first pass (_walsh).  S_r S_c' is formed N/4 rows at a time from S
    copied once to floats: each int_product call's pass over S_c is then 4/N
    of its multiply, and its product no larger than the copy of S_c.  Sr None
    means rows that lead the columns, whose S is the first rows of S_c's."""
    sub = max(1, _CHUNK // c.size)
    G = _walsh(d.indices.ravel() ^ ((1 << d.n) - 1), d.n, np.concatenate(
        [_distinct(r[k:k + sub, None] ^ c, d.n) for k in range(0, r.size, sub)]))
    Sc = Sc.astype(np.promote_types(Sc.dtype, np.float32))  # exact
    Sr = Sc[:r.size] if Sr is None else Sr.astype(Sc.dtype)
    for lo in range(0, r.size, step := sub * max(1, d.N // (4 * sub))):
        P = int_product(Sr[lo:lo + step], Sc.T)
        for k in range(lo, lo + P.shape[0], sub):
            block = np.multiply(G(r[k:k + sub, None] ^ c), d.m, dtype=np.int64)
            block -= P[k - lo:k - lo + sub]
            i, j = np.nonzero(block)
            yield i + k, j, block[i, j]


def cstar_entries(d: ChoiceDesign, r: np.ndarray, c: np.ndarray,
                  sums: np.ndarray = None):
    """The nonzero entries of the C* block of row masks r and column masks
    c: an iterator of int64 arrays (i, j, v), a chunk of rows at a time,
    row-major over all chunks.  Neither route holds the block.

    The entries are joined (_join) when the sets translate one pattern by
    one coset, each member equally often (d.translates), and else come from
    m G - S_r S_c' (_product), with the per-set sign sums S of set_sums;
    sums, when given, is set_sums(d, c).  Rows that lead the columns, as C*
    or interest against interest then nuisance, take their S from the
    columns' S, formed once.  The join reads no S.
    """
    if d.translates[1] is not None:
        return _join(d, r, c)
    Sr = None if _leads(r, c) else set_sums(d, r)
    return _product(d, r, c, Sr, set_sums(d, c) if sums is None else sums)


def cstar_block(d: ChoiceDesign, rows, cols) -> np.ndarray:
    """Exact integer block B_r Lambda* B_c' of two effect lists or masks.

    The entries of cstar_entries scattered into a zero block.  With cols
    the same list as rows this is C*, otherwise a cross block.
    """
    r = _as_masks(rows, d.n)
    c = r if cols is rows else _as_masks(cols, d.n)
    block = np.zeros((r.size, c.size), dtype=np.int64)
    for i, j, v in cstar_entries(d, r, c):
        block[i, j] = v
    return block


def cstar_matrix(d: ChoiceDesign, F) -> ScaledIntMatrix:
    """Exact C* = B Lambda* B' with scale 1/(2^n N m^2), of effects or masks."""
    masks = _as_masks(F, d.n)
    if not masks.size:
        raise ValueError("need at least one effect")
    return ScaledIntMatrix(cstar_block(d, masks, masks),
                           Fraction(1, (1 << d.n) * d.N * d.m * d.m))


def cross_block_star(d: ChoiceDesign, interest, nuisance) -> np.ndarray:
    """Exact integer cross block B_(1) Lambda* B_(2)', of effects or masks."""
    return cstar_block(d, interest, nuisance)


def _interest_blocks(d: ChoiceDesign, interest: np.ndarray,
                     nuisance: np.ndarray) -> tuple:
    """C1 = C*[interest, interest] and the cross block X = C*[interest,
    nuisance], split from one block against interest then nuisance, whose
    per-set sums cstar_entries forms once."""
    block = cstar_block(d, interest, np.concatenate((interest, nuisance)))
    return block[:, :interest.size], block[:, interest.size:]


def exact_schur_cstar(d: ChoiceDesign, interest, nuisance):
    """Exact rational C2* = C1* - X G^- X' (same scale as cstar_matrix), of
    effects or masks.

    The solve G Y = X' is consistent because the column space of X' lies
    in that of G (both come from the same PSD Lambda*); the Schur
    complement is then invariant to the choice of generalized inverse.
    Returns a list-of-lists Fraction matrix.
    """
    interest, nuisance = _as_masks(interest, d.n), _as_masks(nuisance, d.n)
    C1, X = _interest_blocks(d, interest, nuisance)
    G = cstar_block(d, nuisance, nuisance)
    Y = ratlinalg.solve_consistent(G.tolist(), X.T.tolist())
    if Y is None:
        raise InvariantError("cross-block solve must be consistent")
    q1, q2 = X.shape
    return [[Fraction(int(C1[i, j])) - sum(Fraction(int(X[i, k])) * Y[k][j]
                                           for k in range(q2))
             for j in range(q1)] for i in range(q1)]


def info_matrix(d: ChoiceDesign, model: ModelSpec, force_numeric: bool = False):
    """The information matrix for the model's effects of interest.

    With no nuisance effects this is the exact C = cstar_matrix over the
    interest effects.  For nonempty nuisance, the exact reduced matrix
    C_(2) equals C_(1) whenever the cross block B_(1) Lambda* B_(2)' is
    exactly zero; otherwise a numeric C_(2) is returned as a plain float
    array (diagnostic only, eigendecomposition pseudo-inverse with
    relative cutoff PINV_CUTOFF), never used for verdicts.  Pass
    force_numeric=True to take the numeric route even when the cross
    block vanishes, e.g. to compare the two paths.
    """
    interest, nuisance = model.masks_on(d.n)
    if not nuisance.size:
        return cstar_matrix(d, interest)
    C1, X = _interest_blocks(d, interest, nuisance)
    scale = Fraction(1, (1 << d.n) * d.N * d.m * d.m)
    if not X.any() and not force_numeric:
        return ScaledIntMatrix(C1, scale)
    G = cstar_block(d, nuisance, nuisance).astype(float)
    Ginv = np.linalg.pinv(G, rcond=PINV_CUTOFF, hermitian=True)
    Xf = X.astype(float)
    return (C1.astype(float) - Xf @ Ginv @ Xf.T) * float(scale)
