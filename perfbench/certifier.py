"""Independent certifier for two-level choice designs.

Written apart from the `chogen` package and importing none of it, so that
the benchmark can check the program's outputs against a second route.

A design is an (N, m) integer array of options; option bits are read with
factor 1 as the most significant bit, so factor j is bit n-j.  An effect is
the bit mask of its factors.  The contrast sign of effect e at option t is
(-1)^(|e| + popcount(e & t)), the usual product of (2*level - 1) over the
effect's factors.

The unscaled information matrix is C* = sum_p (m X_p X_p' - s_p s_p'),
where X_p holds the signs of set p and s_p their row sums.  Its Gram part
sum_p X_p X_p' depends on a pair of effects only through e1 XOR e2, so it
is read off the Walsh-Hadamard transform of the histogram of options; the
s s' part is one product whose partial sums are integers below 2^24 (or
2^53), which float32 (or float64) BLAS sums exactly.

Connectedness is decided from ranks modulo two primes near 2^31, after the
exact bound rank C* <= N(m-1).  For a model with nuisance effects whose
cross block does not vanish, the design is connected when
rank(C*_full) - rank(C*_nuisance) = Q.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

PRIMES = (2_147_483_647, 2_147_483_629)

UNIVERSALLY_OPTIMAL = "UniversallyOptimal"
CONNECTED_NOT_OPTIMAL = "ConnectedNotOptimal"
NOT_CONNECTED = "NotConnected"


def _mask(factors, n: int) -> int:
    out = 0
    for j in factors:
        out |= 1 << (n - j)
    return out


def _subsets(pool):
    for size in range(1, len(pool) + 1):
        yield from itertools.combinations(pool, size)


def effect_masks(family: str, n: int, r: int = None) -> tuple:
    """(interest, nuisance) effect masks of an effect family on n factors."""
    mains = [_mask((j,), n) for j in range(1, n + 1)]
    if family == "main-effects":
        return mains, []
    if family == "broader":
        pairs = [_mask(p, n) for p in itertools.combinations(range(1, n + 1), 2)]
        return mains, pairs
    if family == "spec-2f":
        return mains + [_mask((1, j), n) for j in range(2, n + 1)], []
    if family == "spec-all":
        return mains + [_mask((1,) + k, n) for k in _subsets(range(2, n + 1))], []
    if family == "spec-group":
        if r is None or not 1 <= r <= n - 1:
            raise ValueError(f"spec-group needs 1 <= r <= n-1, got r={r}")
        group2 = range(r + 1, n + 1)
        return mains + [_mask((h,) + k, n) for h in range(1, r + 1)
                        for k in _subsets(group2)], []
    raise ValueError(f"unknown effect family {family!r}")


def factor_names(mask: int, n: int) -> str:
    """F1.3-style name of an effect mask."""
    return "F" + ".".join(str(j) for j in range(1, n + 1) if mask >> (n - j) & 1)


def _parity_table(n: int) -> np.ndarray:
    par = np.zeros(1 << n, dtype=np.int8)
    for bit in range(n):
        step = 1 << bit
        par[step:2 * step] = 1 - par[:step]
    return par


def _walsh(hist: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform: W[u] = sum_t h[t] (-1)^|u&t|."""
    w = hist.astype(np.int64).copy()
    size = len(w)
    h = 1
    while h < size:
        w = w.reshape(-1, 2, h)
        w = np.stack((w[:, 0] + w[:, 1], w[:, 0] - w[:, 1]), axis=1)
        h *= 2
    return w.reshape(size)


class _Signs:
    """Contrast data of one design, shared by every block of C*."""

    def __init__(self, options: np.ndarray, n: int):
        self.options = np.asarray(options, dtype=np.int64)
        self.N, self.m = self.options.shape
        self.n = n
        self.parity = _parity_table(n)
        hist = np.bincount(self.options.ravel(), minlength=1 << n)
        self.walsh = _walsh(hist)
        self._sums = {}

    def sign_of(self, masks) -> np.ndarray:
        masks = np.asarray(masks, dtype=np.int64)
        return 1 - 2 * self.parity[masks].astype(np.int64)

    def set_sums(self, masks: tuple) -> np.ndarray:
        """s[e, p] = sum of effect e's signs over set p, shape (Q, N)."""
        if masks not in self._sums:
            out = np.empty((len(masks), self.N), dtype=np.int64)
            arr = np.asarray(masks, dtype=np.int64)
            sigma = self.sign_of(arr)
            for lo in range(0, len(arr), 128):
                block = arr[lo:lo + 128]
                par = self.parity[block[:, None, None] & self.options[None]]
                out[lo:lo + 128] = (self.m - 2 * par.sum(axis=2, dtype=np.int64)
                                    ) * sigma[lo:lo + 128, None]
            self._sums[masks] = out
        return self._sums[masks]

    def block(self, rows: tuple, cols: tuple) -> np.ndarray:
        """Exact integer block of C* between two lists of effect masks."""
        r = np.asarray(rows, dtype=np.int64)
        c = np.asarray(cols, dtype=np.int64)
        gram = (self.walsh[r[:, None] ^ c[None, :]]
                * self.sign_of(r)[:, None] * self.sign_of(c)[None, :])
        s1, s2 = self.set_sums(rows), self.set_sums(cols)
        bound = self.N * self.m * self.m
        dtype = np.float32 if bound < (1 << 24) else np.float64
        outer = s1.astype(dtype) @ s2.astype(dtype).T
        return self.m * gram - np.rint(outer).astype(np.int64)


def rank_mod(M: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over GF(p), p < 2^31."""
    a = np.mod(np.asarray(M, dtype=np.int64), p)
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = np.flatnonzero(a[rank:, c])
        if len(nz) == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, c]), p - 2, p)
        a[rank] = a[rank] * inv % p
        below = a[rank + 1:, c].copy()
        a[rank + 1:] = (a[rank + 1:] - below[:, None] * a[rank]) % p
        rank += 1
    return rank


def exact_rank(M: np.ndarray) -> int:
    """Rank over the rationals, read modulo two large primes.

    A rank mod p never exceeds the rational rank, so the larger of the two
    is taken; it falls short only if both primes divide every nonzero
    minor of that size.
    """
    if M.size == 0:
        return 0
    return max(rank_mod(M, p) for p in PRIMES)


def trace_bound(Q: int, n: int, m: int) -> Fraction:
    """Largest attainable trace of C: Q/2^n for even m, Q(m^2-1)/(2^n m^2) odd."""
    if m % 2 == 0:
        return Fraction(Q, 1 << n)
    return Fraction(Q * (m * m - 1), (1 << n) * m * m)


@dataclass
class Report:
    family: str
    n: int
    N: int
    m: int
    Q: int
    diagonal: bool
    aliased: list  # (name1, name2, C* entry) of every unbalanced pair
    balanced: bool
    trace: Fraction
    bound: Fraction
    cross_zero: object  # None without nuisance effects
    optimal: bool
    route: str  # how connectedness was or would be decided
    _signs: _Signs = None
    _interest: tuple = ()
    _nuisance: tuple = ()
    _cstar: np.ndarray = None

    def verdict(self) -> str:
        if self.optimal:
            return UNIVERSALLY_OPTIMAL
        return CONNECTED_NOT_OPTIMAL if self.connected() else NOT_CONNECTED

    def connected(self) -> bool:
        if self.N * (self.m - 1) < self.Q:
            return False
        if self.route == "schur":
            full = self._interest + self._nuisance
            rank_full = exact_rank(self._signs.block(full, full))
            G = self._signs.block(self._nuisance, self._nuisance)
            return rank_full - exact_rank(G) == self.Q
        return exact_rank(self._cstar) == self.Q


def certify(options, n: int, family: str, r: int = None) -> Report:
    """Check a design (an (N, m) array of option indices) for one family."""
    options = np.asarray(options, dtype=np.int64)
    if options.ndim != 2 or options.shape[1] < 2:
        raise ValueError("a design is an (N, m) array with m >= 2")
    if n > 24:
        raise ValueError("the certifier works on n <= 24 factors")
    N, m = options.shape
    interest, nuisance = (tuple(x) for x in effect_masks(family, n, r))
    Q = len(interest)
    signs = _Signs(options, n)
    C = signs.block(interest, interest)
    off = C - np.diag(np.diag(C))
    bad = np.argwhere(np.triu(off, 1) != 0)
    aliased = [(factor_names(interest[i], n), factor_names(interest[j], n),
                int(C[i, j])) for i, j in bad]
    S = signs.set_sums(interest)
    balanced = bool((S == 0).all()) if m % 2 == 0 else bool((np.abs(S) == 1).all())
    trace = Fraction(int(np.trace(C)), (1 << n) * N * m * m)
    bound = trace_bound(Q, n, m)
    cross_zero = None
    if nuisance:
        cross_zero = not signs.block(interest, nuisance).any()
    optimal = (not len(bad) and balanced and trace == bound
               and cross_zero in (None, True))
    if N * (m - 1) < Q:
        route = "bound"
    elif cross_zero is False:
        route = "schur"
    else:
        route = "rank"
    return Report(family, n, N, m, Q, not len(bad), aliased, balanced, trace,
                  bound, cross_zero, optimal, route, signs, interest, nuisance,
                  C)


def parse_sets(sets, n: int = None) -> tuple:
    """(options array, n) from sets of bit strings, checking their shape.

    Every option must be a 0/1 string of width n and every set must hold m
    distinct options; a ValueError names the first violation.
    """
    if not isinstance(sets, list) or not sets:
        raise ValueError("'sets' must be a non-empty list")
    width = n if n is not None else len(sets[0][0])
    m = len(sets[0])
    rows = []
    for p, s in enumerate(sets):
        if len(s) != m:
            raise ValueError(f"set {p} has {len(s)} options, expected {m}")
        if len(set(s)) != m:
            raise ValueError(f"set {p} repeats an option")
        for opt in s:
            if len(opt) != width or set(opt) - {"0", "1"}:
                raise ValueError(f"option {opt!r} is not a {width}-bit string")
        rows.append([int(opt, 2) for opt in s])
    return np.array(rows, dtype=np.int64), width
