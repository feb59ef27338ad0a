"""Certification of universal optimality by exact counting.

A design is certified for a model when its exact information matrix is
diagonal (every off-diagonal effective pair count balances), every
per-set zero count is balanced, the trace reaches the attainable bound,
and, when nuisance effects are present, the cross block vanishes
exactly.  These conditions are sufficient; a design failing them is
reported as not certified, with connectedness decided exactly.
verify takes the model's effects as bit masks and reads C* once, as the
stream of its nonzero entries (contrasts.cstar_entries), for the diagonal
and the offending pairs; no Q x Q array is held.

C* is the sum of d d' over the component pairs, d the difference of their
contrast-sign vectors.  The treatment graph joins the T distinct treatments
within each set, in c components; the rows x_t - x_root(t) of its difference
matrix D span what the within-set differences span, so rank C* = rank D <=
T - c <= N(m-1).  The design is connected iff rank [D_interest | D_nuisance]
- rank D_nuisance = Q, with no rank when T - c < Q.  Floats propose and
integers decide: ratlinalg.independence_witness first tries a witness that
LAPACK proposes from D'D, a rounded inverse whose residual is checked to be
small (connected) or a rounded kernel vector checked to be one, nonzero on
the interest columns (not connected).  When neither checks, the two ranks
decide: ratlinalg.rank decides a deficit when a kernel lifted from one
prime, or across a few by CRT, checks exactly, and else at the Hadamard
bound.  Every verdict is exact either way.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from . import contrasts, ratlinalg
from .contrasts import ScaledIntMatrix
from .designs import ChoiceDesign, distinct
from .errors import InvariantError, SameEffect
from .models import FactorialEffect, ModelSpec, decoded, require_within


class Verdict(str, enum.Enum):
    UNIVERSALLY_OPTIMAL = "UniversallyOptimal"
    CONNECTED_NOT_OPTIMAL = "ConnectedNotOptimal"
    NOT_CONNECTED = "NotConnected"


MAX_LISTED_PAIRS = 64


@dataclass(frozen=True, eq=False)
class OptimalityReport:
    """Everything verify() measured, plus the verdict it implies."""

    model: ModelSpec
    design: ChoiceDesign = field(repr=False)
    n: int
    m: int
    N: int
    diagonal: bool
    offending_pairs: tuple  # (effect, effect, eta_plus, eta_minus) per bad pair
    offending_count: int  # all unbalanced pairs, even past the listing cap
    balance_ok: bool
    trace: Fraction
    trace_bound: Fraction
    cross_block_zero: Optional[bool]  # None when the model has no nuisance
    total_component_pairs: int
    verdict: Verdict

    @cached_property
    def np_table(self) -> np.ndarray:
        """np_table[p, q]: zeros of interest effect q in set p, a read-only
        (N, Q) view in the smallest signed integer dtype that holds -4 m^2
        (int8 up to m = 5).  Built on first read, as n_p = (m - S) / 2 written
        over a new set_sums array when their dtypes agree: verify reads
        none of it."""
        m = self.m
        S = contrasts.set_sums(self.design, self.model.masks_on(self.n)[0])
        table = S.astype(np.min_scalar_type(-4 * m * m), copy=False)
        np.floor_divide(np.subtract(m, table, out=table), 2, out=table)
        table.setflags(write=False)
        return table.T

    @property
    def certified(self) -> bool:
        return self.verdict is Verdict.UNIVERSALLY_OPTIMAL

    def summary(self) -> str:
        lines = [
            f"model: {self.model.describe()}",
            f"design: N={self.N}, m={self.m}, n={self.n}, "
            f"component pairs N*={self.total_component_pairs}",
            f"diagonal: {self.diagonal}"
            + (f" ({self.offending_count} offending pairs)"
               if self.offending_count else ""),
            f"balance: {self.balance_ok}",
            f"trace: {self.trace} (bound {self.trace_bound})",
        ]
        if self.cross_block_zero is not None:
            lines.append(f"cross block zero: {self.cross_block_zero}")
        for e1, e2, ep, em in self.offending_pairs[:10]:
            lines.append(f"  unbalanced pair {e1},{e2}: eta+={ep}, eta-={em}")
        lines.append(f"verdict: {self.verdict.value}")
        return "\n".join(lines)


def eta_counts(d: ChoiceDesign, e1: FactorialEffect, e2: FactorialEffect) -> tuple:
    """(eta+, eta-): counts of (00,11)- and (01,10)-type component pairs."""
    if e1 == e2:
        raise SameEffect("eta counts need two distinct effects")
    require_within((e1, e2), d.n)
    plus = minus = 0
    for S in d.sets:
        xs = contrasts.effective_choice_set(S, e1)
        ys = contrasts.effective_choice_set(S, e2)
        m = len(S)
        for i in range(m):
            for j in range(i + 1, m):
                dx = xs[i] - xs[j]
                dy = ys[i] - ys[j]
                if dx * dy > 0:
                    plus += 1
                elif dx * dy < 0:
                    minus += 1
    return plus, minus


def np_counts(d: ChoiceDesign, e: FactorialEffect) -> tuple:
    """Zeros of the effective choice set, per set."""
    require_within((e,), d.n)
    return tuple(
        sum(1 for v in contrasts.effective_choice_set(S, e) if v == 0)
        for S in d.sets
    )


def max_trace(Q: int, n: int, m: int) -> Fraction:
    """Largest attainable trace of C over all designs in D_(N,n,m)."""
    if Q < 1 or n < 1 or m < 2:
        raise ValueError("need Q >= 1, n >= 1, m >= 2")
    if m % 2 == 0:
        return Fraction(Q, 1 << n)
    return Fraction(Q * (m * m - 1), (1 << n) * m * m)


def oracle_cstar(d: ChoiceDesign, F) -> ScaledIntMatrix:
    """C* recomputed purely by summing per-pair contributions.

    Independent of the matrix-product route: plain Python loops over all
    N m(m-1)/2 component pairs, including the diagonal where the
    contribution is +4 exactly when the effective positions differ.
    """
    effects = tuple(F)
    require_within(effects, d.n)
    Q = len(effects)
    C = [[0] * Q for _ in range(Q)]
    for S in d.sets:
        m = len(S)
        for i in range(m):
            for j in range(i + 1, m):
                for q1 in range(Q):
                    for q2 in range(q1, Q):
                        v = contrasts.pair_contribution(
                            effects[q1], effects[q2], S[i], S[j])
                        C[q1][q2] += v
                        if q1 != q2:
                            C[q2][q1] += v
    scale = Fraction(1, (1 << d.n) * d.N * d.m * d.m)
    return ScaledIntMatrix(np.array(C, dtype=np.int64), scale)


def _differences(d: ChoiceDesign, masks: np.ndarray, least: int = 0):
    """The (T - c, Q) int8 difference matrix D of the treatment graph, or
    None when T - c < least, before any parity is formed.

    Min-label propagation over the (N, m) index array finds the components:
    each set lowers its options' roots to its least root, and pointer
    jumping sends each label to its root, the least treatment of its
    component.  The row of each other treatment t, formed a chunk at a time,
    is (x_t - x_root(t))/2 with column signs (-1)^|e|, which keep every
    rank: the parities |e & t| mod 2 at its root less those at t."""
    values = distinct(d.indices)
    x = np.searchsorted(values, d.indices)
    label = np.arange(values.size)
    while ((roots := label[x]) != roots[:, :1]).any():
        np.minimum.at(label, roots, roots.min(axis=1, keepdims=True))
        while (label[label] != label).any():
            label = label[label]
    t = np.flatnonzero(label != np.arange(values.size))
    if t.size < least:
        return None
    D = np.empty((t.size, masks.size), dtype=np.int8)
    step = max(1, contrasts._CHUNK // max(1, masks.size))
    for lo in range(0, t.size, step):
        root, tail = ((np.bitwise_count(values[x, None] & masks) & 1).view(
            np.int8) for x in (label[t[lo:lo + step]], t[lo:lo + step]))
        np.subtract(root, tail, out=D[lo:lo + step])
    return D


def below_rank_bound(N: int, m: int, Q: int) -> bool:
    """Whether N sets of m options are too few to connect Q effects.

    rank C* <= T - c <= N(m-1) (_differences), so N(m-1) < Q leaves C*
    singular: catalog.first_certified refuses a recipe claiming such an N
    before it builds it.
    """
    return N * (m - 1) < Q


def _connected(d: ChoiceDesign, effects: np.ndarray,
               nuisance: np.ndarray) -> bool:
    """Whether the information matrix of the effects of interest (masks),
    with the nuisance masks, has full rank Q: rank [D_interest | D_nuisance]
    - rank D_nuisance = Q (_differences), never with T - c < Q rows.  An
    exactly checked witness decides first (ratlinalg.independence_witness),
    and the two ranks only when it gives none."""
    Q = effects.size
    D = _differences(d, np.concatenate((effects, nuisance)), Q)
    if D is None:
        return False
    known = ratlinalg.independence_witness(D, Q)
    if known is not None:
        return known
    return ratlinalg.rank(D) - ratlinalg.rank(D[:, Q:]) == Q


def _read_entries(chunks, Q: int) -> tuple:
    """C*'s diagonal, the count of its nonzero pairs i < j, and the first
    MAX_LISTED_PAIRS of them with their values, from row-major chunks."""
    diag = np.zeros(Q, dtype=np.int64)
    listed, count = [], 0
    for i, j, v in chunks:
        on = i == j
        diag[i[on]] = v[on]
        upper = np.flatnonzero(i < j)
        if count < MAX_LISTED_PAIRS:
            first = upper[:MAX_LISTED_PAIRS]
            listed.append((i[first], j[first], v[first]))
        count += upper.size
    q1, q2, values = (np.concatenate(a)[:MAX_LISTED_PAIRS]
                      for a in zip(*listed))
    return diag, count, q1, q2, values


def verify(d: ChoiceDesign, model: ModelSpec) -> OptimalityReport:
    """Certify a design against a model with exact arithmetic only.

    UniversallyOptimal iff the exact C is diagonal, every per-set count is
    balanced, the trace equals max_trace, and any cross block vanishes;
    otherwise the treatment graph's D decides (_connected), by an exactly
    checked witness or by its ranks.  The
    design's translates (ChoiceDesign.translates) are read once, and each
    set_sums and cstar_entries call reads them from the design; the product
    route's S goes to cstar_entries as row_sums.  The model's masks
    (ModelSpec.masks_on) feed cstar_entries, whose stream of row chunks
    gives the diagonal, the trace and the offending pairs, with no Q x Q
    array on either route.  Balance and the diagonal's check against
    N m^2 - sum_p S^2 read the per-set sign sums S through the Q pattern
    weights w when the sets translate one pattern, and else S itself, the
    one (Q, N) array, formed for the product route only.  The eta counts of
    the listed pairs come from the sums of their effects and joint effects,
    the xor of their masks; each distinct listed effect is decoded once.
    The zero counts (np_table) are built when first read.
    """
    effects, nuisance = model.masks_on(d.n)
    n, m, N, Q = d.n, d.m, d.N, model.Q
    pattern, basis = d.translates

    # the per-set sign sums S, value m - 2*n_p, for the product route only
    S = None if basis is not None else contrasts.set_sums(d, effects)
    # balanced means |S| = m mod 2, and S = m (mod 2), so |S| <= m mod 2;
    # on one pattern's translates |S[q, p]| = |w_q| in every set p
    if pattern is not None:
        w = contrasts.pattern_weights(d, effects)
        balance_ok = bool(np.abs(w).max() <= m % 2)
        squares = N * w * w
    else:  # sum_p S^2, a chunk of rows at a time
        balance_ok = bool(-(m % 2) <= S.min() and S.max() <= m % 2)
        step = max(1, contrasts._CHUNK // N)
        squares = np.concatenate([(S[lo:lo + step].astype(np.int64) ** 2).sum(
            axis=1) for lo in range(0, Q, step)])

    diag, offending_count, q1, q2, values = _read_entries(
        contrasts.cstar_entries(d, effects, effects, S), Q)
    # same diagonal via the per-set zero counts, as an internal cross-check:
    # sum_p 4 n_p (m - n_p) = N m^2 - sum_p S^2
    if not np.array_equal(diag, N * m * m - squares):
        raise InvariantError("C* diagonal disagrees with the zero counts")

    diagonal = not offending_count  # C* is symmetric
    offending = ()
    if not diagonal:
        # per set, the quadrant counts of the signs x, y of a pair follow
        # from the sums of x, y and their product xy, the joint effect's
        pairs = np.concatenate((effects[q1], effects[q2],
                                effects[q1] ^ effects[q2]))
        s1, s2, s12 = contrasts.set_sums(d, pairs).astype(
            np.int64).reshape(3, q1.size, N)
        pp = (m + s1 + s2 + s12) // 4
        mm = (m - s1 - s2 + s12) // 4
        pm = (m + s1 - s2 - s12) // 4
        mp = (m - s1 + s2 - s12) // 4
        eta_plus = (pp * mm).sum(axis=1)
        eta_minus = (pm * mp).sum(axis=1)
        if not np.array_equal(4 * (eta_plus - eta_minus), values):
            raise InvariantError("C* entry disagrees with its eta counts")
        # each distinct listed effect is decoded once
        listed = list(dict.fromkeys(q1.tolist() + q2.tolist()))
        name = dict(zip(listed, decoded(effects[listed], n)))
        offending = tuple((name[a], name[b], p, q) for a, b, p, q in zip(
            q1.tolist(), q2.tolist(), eta_plus.tolist(), eta_minus.tolist()))

    scale = Fraction(1, (1 << n) * N * m * m)
    trace = int(diag.sum()) * scale
    bound = max_trace(Q, n, m)
    if trace > bound:
        raise InvariantError("trace above the attainable bound")

    cross_zero = None if not nuisance.size else not any(
        v.size for _, _, v in contrasts.cstar_entries(d, effects, nuisance, S))

    if diagonal and balance_ok and trace == bound and cross_zero is not False:
        verdict = Verdict.UNIVERSALLY_OPTIMAL
    elif _connected(d, effects, nuisance):
        verdict = Verdict.CONNECTED_NOT_OPTIMAL
    else:
        verdict = Verdict.NOT_CONNECTED

    return OptimalityReport(
        model=model, design=d, n=n, m=m, N=N,
        diagonal=diagonal, offending_pairs=offending,
        offending_count=offending_count,
        balance_ok=balance_ok,
        trace=trace, trace_bound=bound,
        cross_block_zero=cross_zero,
        total_component_pairs=N * m * (m - 1) // 2,
        verdict=verdict,
    )
