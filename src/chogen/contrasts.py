"""Effective positions, contrast vectors, and exact information matrices.

Everything that feeds a certification verdict is computed over the
integers: the information matrix C of a design is held as an integer
matrix C* plus the exact rational scale 1/(2^n N m^2).  Floating point
appears only in the explicitly numeric branch of info_matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import ratlinalg
from .designs import ChoiceDesign, lex_index
from .errors import EffectOutOfRange, InvariantError, SamePair, Unsupported
from .models import FactorialEffect, ModelSpec
from .ratlinalg import int_product

# lambda_star is a dense 2^n x 2^n matrix, so it is refused beyond this width
DENSE_MAX_N = 12

# relative eigenvalue cutoff of the numeric pseudo-inverse branch
PINV_CUTOFF = 1e-9

# option indices and effect masks are int64 arrays: at most 63 factors
MAX_SIGN_FACTORS = 63


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
        out = np.empty(self.ints.shape, dtype=object)
        for i in range(self.ints.shape[0]):
            for j in range(self.ints.shape[1]):
                out[i, j] = int(self.ints[i, j]) * self.scale
        return out

    def to_float(self) -> np.ndarray:
        return self.ints.astype(float) * float(self.scale)

    def is_diagonal(self) -> bool:
        off = self.ints.copy()
        np.fill_diagonal(off, 0)
        return not off.any()

    def __eq__(self, other) -> bool:
        """Exact equality of the represented values."""
        if not isinstance(other, ScaledIntMatrix):
            return NotImplemented
        if self.ints.shape != other.ints.shape:
            return False
        a = self.ints.astype(object) * (self.scale.numerator * other.scale.denominator)
        b = other.ints.astype(object) * (other.scale.numerator * self.scale.denominator)
        return bool(np.array_equal(a, b))


def effective_position(T: Sequence, e: FactorialEffect, n: int = None) -> int:
    """The derived binary coordinate (r+1 - sum of levels) mod 2."""
    width = len(T) if n is None else n
    if not e.within(width):
        raise EffectOutOfRange(f"{e} does not fit in {width} factors")
    s = sum(T[h - 1] for h in e.factors)
    return (e.order + 1 - s) % 2


def effective_choice_set(S: Sequence, e: FactorialEffect) -> tuple:
    """Elementwise effective positions of a choice set."""
    return tuple(effective_position(T, e) for T in S)


def _effect_mask(e: FactorialEffect, n: int) -> int:
    # factor j maps to bit n-j, matching the lexicographic treatment index
    if not e.within(n):
        raise EffectOutOfRange(f"{e} does not fit in {n} factors")
    mask = 0
    for j in e.factors:
        mask |= 1 << (n - j)
    return mask


def contrast_vector(e: FactorialEffect, n: int) -> np.ndarray:
    """Signs of the effect over all 2^n treatments in lexicographic order.

    Entry at T is the product over the effect's factors of (2*level - 1);
    equivalently 2*effective_position - 1.
    """
    mask = _effect_mask(e, n)
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


def option_sign_matrix(d: ChoiceDesign, effects: Sequence[FactorialEffect]) -> np.ndarray:
    """Contrast signs of every effect at every option, shape (Q, N*m).

    Columns run through the design's options in (set, option) order.
    Raises Unsupported beyond MAX_SIGN_FACTORS factors.
    """
    n = d.n
    if n > MAX_SIGN_FACTORS:
        raise Unsupported(f"sign matrices are limited to n <= "
                          f"{MAX_SIGN_FACTORS} factors, got {n}")
    masks = np.array([_effect_mask(e, n) for e in effects], dtype=np.int64)
    orders = np.array([e.order for e in effects], dtype=np.uint8)
    opts = np.array([lex_index(t) for t in d.treatments()], dtype=np.int64)
    ones = np.bitwise_count(masks[:, None] & opts[None, :])
    # the parity is taken in uint8, so only the result is a full int64 array
    odd = ((orders[:, None] - ones) & 1).astype(bool)
    return np.where(odd, np.int64(-1), np.int64(1))


def lambda_star(d: ChoiceDesign) -> ScaledIntMatrix:
    """The 2^n x 2^n integer matrix Lambda* with scale 1/(N m^2).

    Each choice set contributes m-1 on the diagonal at its members and -1
    between distinct members; multiplicities add for repeated sets.
    """
    n, m = d.n, d.m
    if n > DENSE_MAX_N:
        raise Unsupported(
            f"dense lambda_star is limited to n <= {DENSE_MAX_N}, got {n}"
        )
    size = 1 << n
    Z = np.zeros((size, size), dtype=np.int64)
    for S in d.sets:
        mem = [lex_index(t) for t in S]
        Z[np.ix_(mem, mem)] -= 1
        Z[mem, mem] += m
    return ScaledIntMatrix(Z, Fraction(1, d.N * m * m))


def cstar_from_signs(Xa: np.ndarray, Xb: np.ndarray, m: int) -> np.ndarray:
    """Exact integer block m Xa Xb' - Sa Sb' of two option sign matrices.

    Xa and Xb are option_sign_matrix results of one design with m options
    per set; S holds their per-set row sums.  With Xa = Xb this is C*,
    otherwise the cross block B_a Lambda* B_b'.
    """
    C = m * int_product(Xa, Xb.T)
    Sa = Xa.reshape(Xa.shape[0], -1, m).sum(axis=2)
    Sb = Sa if Xb is Xa else Xb.reshape(Xb.shape[0], -1, m).sum(axis=2)
    C -= int_product(Sa, Sb.T)
    return C


def cstar_matrix(d: ChoiceDesign, F: Sequence[FactorialEffect]) -> ScaledIntMatrix:
    """Exact C* = B Lambda* B' with scale 1/(2^n N m^2), summed per set."""
    effects = tuple(F)
    if not effects:
        raise ValueError("need at least one effect")
    X = option_sign_matrix(d, effects)
    return ScaledIntMatrix(cstar_from_signs(X, X, d.m),
                           Fraction(1, (1 << d.n) * d.N * d.m * d.m))


def cross_block_star(d: ChoiceDesign,
                     interest: Sequence[FactorialEffect],
                     nuisance: Sequence[FactorialEffect]) -> np.ndarray:
    """Exact integer cross block B_(1) Lambda* B_(2)'."""
    return cstar_from_signs(option_sign_matrix(d, interest),
                            option_sign_matrix(d, nuisance), d.m)


def exact_schur_cstar(d: ChoiceDesign,
                      interest: Sequence[FactorialEffect],
                      nuisance: Sequence[FactorialEffect]):
    """Exact rational C2* = C1* - X G^- X' (same scale as cstar_matrix).

    The solve G Y = X' is consistent because the column space of X' lies
    in that of G (both come from the same PSD Lambda*); the Schur
    complement is then invariant to the choice of generalized inverse.
    Returns a list-of-lists Fraction matrix.
    """
    X1 = option_sign_matrix(d, interest)
    X2 = option_sign_matrix(d, nuisance)
    C1 = cstar_from_signs(X1, X1, d.m)
    G = cstar_from_signs(X2, X2, d.m)
    X = cstar_from_signs(X1, X2, d.m)
    Y = ratlinalg.solve_consistent(G.tolist(), X.T.tolist())
    if Y is None:
        raise InvariantError("cross-block solve must be consistent")
    q1, q2 = X.shape
    return [
        [Fraction(int(C1[i, j])) - sum(Fraction(int(X[i, k])) * Y[k][j]
                                       for k in range(q2))
         for j in range(q1)]
        for i in range(q1)
    ]


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
    if not model.nuisance:
        return cstar_matrix(d, model.interest)
    X1 = option_sign_matrix(d, model.interest)
    X2 = option_sign_matrix(d, model.nuisance)
    X = cstar_from_signs(X1, X2, d.m)
    C1 = cstar_from_signs(X1, X1, d.m)
    scale = Fraction(1, (1 << d.n) * d.N * d.m * d.m)
    if not X.any() and not force_numeric:
        return ScaledIntMatrix(C1, scale)
    G = cstar_from_signs(X2, X2, d.m).astype(float)
    Ginv = np.linalg.pinv(G, rcond=PINV_CUTOFF, hermitian=True)
    Xf = X.astype(float)
    return (C1.astype(float) - Xf @ Ginv @ Xf.T) * float(scale)
