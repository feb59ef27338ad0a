"""Certification of universal optimality by exact counting.

A design is certified for a model when its exact information matrix is
diagonal (every off-diagonal effective pair count balances), every
per-set zero count is balanced, the trace reaches the attainable bound,
and, when nuisance effects are present, the cross block vanishes
exactly.  These conditions are sufficient; a design failing them is
reported as not certified, with connectedness decided exactly.
verify takes the model's effects as bit masks and reads balance and the
trace from the per-set sign sums, whose squares give the diagonal of C*.
Only a balanced design at the trace bound can be certified, so only such
a design has verify read C* and the cross block, once, as one stream of
nonzero entries over the interest then nuisance columns
(contrasts.cstar_entries), split at column Q for the diagonal, the
offending pairs and whether the cross block vanishes; no Q x Q array is
held.  Any other report reads the same stream, with the same checks, on
the first read of those fields.

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
    """The verdict of verify() and the balance and trace that it read.

    diagonal, offending_pairs, offending_count and cross_block_zero come
    from one C* stream, which verify reads only for a balanced design at
    the trace bound; for any other design they are built on the first read
    of any of them, from the report's design and model, with the same
    checks (_stream_fields).  np_table is built on its first read.  The
    report holds no array, so copies and pickles build them alike."""

    model: ModelSpec
    design: ChoiceDesign = field(repr=False)
    n: int
    m: int
    N: int
    balance_ok: bool
    trace: Fraction
    trace_bound: Fraction
    total_component_pairs: int
    verdict: Verdict

    @cached_property
    def _stream(self) -> tuple:
        """(diagonal, offending_pairs, offending_count, cross_block_zero)."""
        effects, nuisance = self.model.masks_on(self.n)
        columns = _columns(effects, nuisance)
        _, squares, S = _sums(self.design, effects, columns)
        return _stream_fields(self.design, effects, nuisance, columns,
                              squares, S)

    @property
    def diagonal(self) -> bool:
        return self._stream[0]

    @property
    def offending_pairs(self) -> tuple:
        """(effect, effect, eta_plus, eta_minus) per listed unbalanced pair,
        the first MAX_LISTED_PAIRS."""
        return self._stream[1]

    @property
    def offending_count(self) -> int:
        """All unbalanced pairs, even past the listing cap."""
        return self._stream[2]

    @property
    def cross_block_zero(self) -> Optional[bool]:
        """None when the model has no nuisance."""
        return self._stream[3]

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
    """From row-major chunks of C* over interest then nuisance columns: the
    diagonal, the count of the nonzero interest pairs i < j < Q, the first
    MAX_LISTED_PAIRS of them with their values, and whether any entry lies
    at a column j >= Q, in the cross block."""
    diag = np.zeros(Q, dtype=np.int64)
    listed, count, cross = [], 0, False
    for i, j, v in chunks:
        on = i == j
        diag[i[on]] = v[on]
        inner = j < Q
        cross = cross or not inner.all()
        upper = (inner & (i < j)).nonzero()[0]
        if count < MAX_LISTED_PAIRS:
            first = upper[:MAX_LISTED_PAIRS]
            listed.append((i[first], j[first], v[first]))
        count += upper.size
    q1, q2, values = listed[0] if len(listed) == 1 else (
        np.concatenate(a)[:MAX_LISTED_PAIRS] for a in zip(*listed))
    return diag, count, q1, q2, values, cross


def _sums(d: ChoiceDesign, effects: np.ndarray, columns: np.ndarray) -> tuple:
    """(balance_ok, squares, S) of the Q interest masks effects, which lead
    the columns: squares[q] = sum_p S[q, p]^2, so C*[q, q] = N m^2 -
    squares[q], and S the (Q, N) per-set sign sums over the columns when
    the C* stream takes the product route, else None.

    Balanced means |S| <= m mod 2, as S = m (mod 2).  On one pattern's
    translates |S[q, p]| = |w_q| in every set p, so both read the Q pattern
    weights w, and S is formed from the same weights when the translations
    form no coset; otherwise S is formed and squared a chunk of rows at a
    time."""
    Q, m, N = effects.size, d.m, d.N
    pattern, basis = d.translates
    if pattern is not None:
        w = contrasts.pattern_weights(d, effects if basis is not None
                                      else columns)
        S = None if basis is not None else contrasts.set_sums(d, columns, w)
        w = w[:Q]
        return bool(np.abs(w).max() <= m % 2), N * w * w, S
    S = contrasts.set_sums(d, columns)
    Si = S[:Q]
    step = max(1, contrasts._CHUNK // N)
    squares = np.concatenate([(Si[lo:lo + step].astype(np.int64) ** 2).sum(
        axis=1) for lo in range(0, Q, step)])
    return bool(-(m % 2) <= Si.min() and Si.max() <= m % 2), squares, S


def _stream_fields(d: ChoiceDesign, effects: np.ndarray, nuisance: np.ndarray,
                   columns: np.ndarray, squares: np.ndarray, S) -> tuple:
    """(diagonal, offending_pairs, offending_count, cross_block_zero) from
    one cstar_entries stream whose rows are the interest masks effects and
    whose columns are the interest then nuisance masks, split at column Q
    (_read_entries); squares and S are _sums'.

    Its diagonal must equal N m^2 - squares element-wise, the zero counts'
    sum_p 4 n_p (m - n_p).  The eta counts of the listed pairs come from the
    sums of their effects and joint effects, the xor of their masks, and
    must give the listed entries; each distinct listed effect is decoded
    once."""
    n, m, N, Q = d.n, d.m, d.N, effects.size
    diag, count, q1, q2, values, cross = _read_entries(
        contrasts.cstar_entries(d, effects, columns, S), Q)
    if (diag != N * m * m - squares).any():
        raise InvariantError("C* diagonal disagrees with the zero counts")
    offending = ()
    if count:  # C* is symmetric, so these are all its off-diagonal entries
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
        listed = list(dict.fromkeys(q1.tolist() + q2.tolist()))
        name = dict(zip(listed, decoded(effects[listed], n)))
        offending = tuple((name[a], name[b], p, q) for a, b, p, q in zip(
            q1.tolist(), q2.tolist(), eta_plus.tolist(), eta_minus.tolist()))
    return not count, offending, count, (
        not cross if nuisance.size else None)


def _columns(effects: np.ndarray, nuisance: np.ndarray) -> np.ndarray:
    """The stream's columns: the interest then the nuisance masks."""
    return np.concatenate((effects, nuisance)) if nuisance.size else effects


def verify(d: ChoiceDesign, model: ModelSpec) -> OptimalityReport:
    """Certify a design against a model with exact arithmetic only.

    UniversallyOptimal iff every per-set count is balanced, the trace
    equals max_trace, the exact C is diagonal and any cross block
    vanishes; otherwise the treatment graph's D decides (_connected), by an
    exactly checked witness or by its ranks.  Balance and the trace come
    from the per-set sign sums S, or the pattern weights on one pattern's
    translates (_sums): the diagonal of C* is N m^2 - sum_p S^2.  Only a
    balanced design at the trace bound reads C*, whose off-diagonal entries
    and cross block can then decide: one cstar_entries stream over the
    model's masks (ModelSpec.masks_on), interest then nuisance, with the
    interest masks as rows, split at column Q (_stream_fields), with no
    Q x Q array on either route.  Any other design's report builds those
    fields, with the same checks, on their first read, and np_table too.
    The design's translates (ChoiceDesign.translates) are read once, and
    each set_sums and cstar_entries call reads them from the design.
    """
    effects, nuisance = model.masks_on(d.n)
    n, m, N, Q = d.n, d.m, d.N, model.Q
    columns = _columns(effects, nuisance)
    balance_ok, squares, S = _sums(d, effects, columns)
    trace = Fraction(int((N * m * m - squares).sum()), (1 << n) * N * m * m)
    bound = max_trace(Q, n, m)
    if trace > bound:
        raise InvariantError("trace above the attainable bound")

    # only there can C*'s other entries and the cross block decide
    fields = None
    if balance_ok and trace == bound:
        fields = _stream_fields(d, effects, nuisance, columns, squares, S)
    # diagonal, and no nonzero cross block
    if fields is not None and fields[0] and fields[3] is not False:
        verdict = Verdict.UNIVERSALLY_OPTIMAL
    elif _connected(d, effects, nuisance):
        verdict = Verdict.CONNECTED_NOT_OPTIMAL
    else:
        verdict = Verdict.NOT_CONNECTED

    report = OptimalityReport(
        model=model, design=d, n=n, m=m, N=N, balance_ok=balance_ok,
        trace=trace, trace_bound=bound,
        total_component_pairs=N * m * (m - 1) // 2, verdict=verdict)
    if fields is not None:  # what the first read would have cached
        vars(report)["_stream"] = fields
    return report
