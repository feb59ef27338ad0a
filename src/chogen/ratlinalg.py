"""Exact linear algebra for integer and rational matrices.

Certification verdicts must not depend on floating point or on chance.
Connectedness is decided by `rank`: vectorised int64 elimination modulo
primes below 2^29, with the delayed modular reduction of Dumas, Giorgi &
Pernet (ACM TOMS 2008, on dense linear algebra over word-size prime
fields): a product of two residues is below 2^58, so the rows below a
pivot take 32 updates with no % p before they are reduced.  A modular rank
never exceeds the rational one, so full rank modulo any prime is final.  A
deficit is certified by a kernel: the reduced-echelon kernel bases modulo
the primes of the largest rank are combined by CRT, lifted to integers by
rational reconstruction (Wang 1981; on small lifted solutions, Dixon 1982)
and checked exactly modulo check primes.  The first prime alone decides
most deficits of random designs, and two the rest measured so far; the
loop ends anyway once the product of the primes exceeds the Hadamard bound
on every minor that could still be nonzero, so the modular rank is the
rational rank.  Integer products (C*, the Hadamard seed check and the
kernel check) go through `int_product`, which refuses a product whose
partial sums could leave int64, and uses float32 BLAS where every partial
sum is an integer below 2^24, and float64 where it is below 2^53, and so
is exact, as in the same paper.

The Python-integer and Fraction routines (leading principal minors,
definiteness, a consistent linear solve) are kept as a slow reference
for tests; no verdict goes through them.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

import numpy as np

# rank() works modulo primes below 2**29.  A product of two residues is
# below 2**58, so an entry in [0, p) takes 32 elimination updates before it
# could leave int64 (_room), and only then needs a reduction.
_PRIME_CEILING = 1 << 29


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; bases 2, 3, 5, 7 decide n < 3.2e9."""
    if n < 2:
        return False
    for b in (2, 3, 5, 7):
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in (2, 3, 5, 7):
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """The primes below 2**29, largest first, found as they are needed."""
    c = _PRIME_CEILING - 1
    while True:
        if _is_prime(c):
            yield c
        c -= 2


def _room(p: int) -> int:
    """How many updates by a product of two residues mod p an entry that
    starts in [0, p) takes before the next one could leave int64."""
    return (np.iinfo(np.int64).max - p) // (p - 1) ** 2


def _echelon(A: np.ndarray, p: int) -> list:
    """Row echelon form of A modulo p, in place; the pivot columns.

    A holds residues in [0, p).  Row i of the result, for i below the
    number of pivots, is 0 before pivot column i and 1 on it; the rows
    after them are zero, and every entry is a residue in [0, p).  The
    reduction is delayed: the rows below a pivot take its update with no
    % p, and the block they leave is reduced only when the next update
    could leave int64 (_room).  The pivot column is reduced when it is
    searched and the pivot row when it is scaled, so every pivot, factor
    and entry is the one that reduction at every step gives.
    """
    rows, cols = A.shape
    room, pending = _room(p), 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        A[r:, c] %= p
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        if nz[0]:
            A[[r, r + nz[0]]] = A[[r + nz[0], r]]
        A[r, c:] = A[r, c:] % p * pow(int(A[r, c]), -1, p) % p
        below = r + nz[1:]
        if below.size:
            if pending == room:
                A[r + 1:, c + 1:] %= p
                pending = 0
            A[below, c:] -= np.outer(A[below, c], A[r, c:])
            pending += 1
        pivots.append(c)
    return pivots


def _kernel_residues(U: np.ndarray, pivots: list, p: int) -> np.ndarray:
    """The kernel basis modulo p on the pivot columns, an (R, cols - R)
    array of residues: column j holds -U[:R, free j] of the reduced form.

    U is the row echelon form of _echelon, with R pivots; it is reduced
    here, each pivot column cleared above its pivot with the same delayed
    reduction.  Kernel vector j is 1 on the j-th free column, 0 on the
    other free ones and column j of the result on the pivot columns.
    """
    room, pending = _room(p), 0
    for i in range(len(pivots) - 1, 0, -1):
        c = pivots[i]
        U[:i, c] %= p
        above = np.flatnonzero(U[:i, c])
        if above.size:
            U[i, c:] %= p
            if pending == room:
                U[:i, c + 1:] %= p
                pending = 0
            U[above, c:] -= np.outer(U[above, c], U[i, c:])
            pending += 1
    free = np.ones(U.shape[1], dtype=bool)
    free[pivots] = False
    return -U[:len(pivots), free] % p


def _crt(x: np.ndarray, modulus: int, y: np.ndarray, p: int) -> np.ndarray:
    """The residues modulo modulus * p that are x modulo modulus and y
    modulo the prime p: int64 while that product fits, Python integers
    past it."""
    if modulus * p >= 1 << 63:
        x = x.astype(object)
    t = (y - x % p) % p * pow(modulus, -1, p) % p
    return x + t * modulus


def _reconstruct(x: np.ndarray, modulus: int) -> tuple:
    """Fractions a/b = x mod modulus with |a| and b at most
    sqrt(modulus/2), or None.

    Wang's rational reconstruction, elementwise: the extended Euclidean
    algorithm on (modulus, x), stopped at the first remainder within the
    bound, keeps a = t x (mod modulus) for its cofactor t, so a/t = x.
    Entries whose cofactor leaves the bound have no such fraction.  Every
    value stays below the modulus, so the arithmetic is int64 while the
    modulus fits and on Python integers past it.
    """
    bound = isqrt(modulus // 2)
    if modulus >= 1 << 63:
        x = x.astype(object)
    r0, r1 = np.full_like(x, modulus), x.copy()
    t0, t1 = np.zeros_like(x), np.ones_like(x)
    active = r1 > bound
    while active.any():
        q = np.zeros_like(x)
        q[active] = r0[active] // r1[active]
        r0, r1 = np.where(active, r1, r0), np.where(active, r0 - q * r1, r1)
        t0, t1 = np.where(active, t1, t0), np.where(active, t0 - q * t1, t1)
        active = r1 > bound
    if (np.abs(t1) > bound).any():
        return None
    sign = np.where(t1 < 0, -1, 1)
    return r1 * sign, t1 * sign


def _lift(X: np.ndarray, modulus: int, pivots: list, cols: int):
    """The integer kernel basis K whose column j reconstructs column j of
    X (_kernel_residues modulo modulus) over one common denominator, or
    None when an entry does not reconstruct.

    Column j of K has that denominator, the lcm of its entries', on the
    j-th free column, 0 on the other free ones, and on the pivot columns
    the reconstructed fractions times it: Python integers.  Those
    cols - R columns are independent over the rationals, so A K = 0
    proves rank A <= R.
    """
    if _reconstruct(X[:, :1], modulus) is None:  # most failures, cheaply
        return None
    fractions = _reconstruct(X, modulus)
    if fractions is None:
        return None
    num, den = (a.astype(object) for a in fractions)
    scale = np.array([lcm(*d) for d in den.T.tolist()], dtype=object)
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    K = np.zeros((cols, X.shape[1]), dtype=object)
    K[pivots] = num * (scale // den)
    K[np.flatnonzero(free), np.arange(X.shape[1])] = scale
    return K


def _kernel_checks(A: np.ndarray, K: np.ndarray, primes) -> bool:
    """Whether A K = 0 exactly, from residues modulo check primes drawn
    from primes.

    An entry of A K is at most cols * max|A| * max|K| in absolute value,
    so once the product of the check primes exceeds twice that, A K = 0
    modulo each of them means A K = 0.  Each check is one int_product of
    A (or its residues, when an entry of A reaches the prime) and K's
    residues; False also when that product could leave int64.
    """
    big = max(int(A.max()), -int(A.min()))
    bound = 2 * A.shape[1] * big * int(np.abs(K).max())
    modulus = 1
    while modulus <= bound:
        q = next(primes)
        Aq = A if big < q else A % np.int64(q)
        try:
            if (int_product(Aq, (K % q).astype(np.int64)) % q).any():
                return False
        except OverflowError:
            return False
        modulus *= q
    return True


def _minor_bound_squared(A: np.ndarray, k: int) -> int:
    """Square of the Hadamard bound on every k x k minor of A.

    A minor is at most the product of the norms of its rows, and each of
    those is at most the norm of the whole row of A.
    """
    big = max(int(A.max()), -int(A.min()))
    if big * big * A.shape[1] < 1 << 63:
        norms = np.square(A, dtype=np.int64).sum(axis=1).tolist()
    else:
        norms = [sum(int(v) ** 2 for v in row) for row in A]
    bound = 1
    for v in sorted(norms, reverse=True)[:k]:
        bound *= v
    return bound


def rank(M) -> int:
    """Exact rank over the rationals of an integer matrix.

    One loop over primes below 2^29 (_primes) gives the rank.  The rank
    modulo a prime never exceeds the rational rank, so full rank modulo
    any prime is final.  Otherwise the primes whose rank R is the largest
    seen, and among them whose pivot list is lexicographically least, are
    kept: each one's kernel basis modulo p (_kernel_residues) is combined
    with theirs by CRT, lifted to integers by rational reconstruction
    (_lift) and checked exactly (_kernel_checks).  If it holds, the rank is
    R; the first prime's round is that certificate on its own.  A larger
    rank, or a lesser pivot list at the same rank, restarts the lift.  The
    loop always ends: every (R+1)-minor is divisible by each prime used,
    and once their product exceeds the Hadamard bound on the (R+1)-minors,
    they are all zero and the rank is R.  The lift is reconstructed when
    it holds 1, 2, 4, ... primes, and on its first column before the rest,
    so the tries that fail cost about as much as the last one.  Each
    prime's residues are formed straight from M, which any integer type
    may hold (an int8 D is not copied), and the checks multiply M itself.
    """
    A = np.asarray(M)
    if A.size == 0:
        return 0
    if A.ndim != 2:
        raise ValueError("rank needs a two-dimensional matrix")
    if A.dtype.kind != "i":
        A = A.astype(np.int64)
    if A.shape[0] < A.shape[1]:
        A = A.T  # loop over, and bound minors by, the shorter rows
    cols = A.shape[1]
    primes = _primes()
    best, modulus, bound_squared = -1, 1, 0
    kept = lifted = lift_modulus = count = None
    for p in primes:
        U = np.remainder(A, np.int64(p), order="C")
        pivots = _echelon(U, p)
        r = len(pivots)
        if r == cols:
            return r
        if r > best or (r == best and pivots <= kept):
            X = _kernel_residues(U, pivots, p)
            if r > best or pivots < kept:
                if r > best:
                    best, bound_squared = r, _minor_bound_squared(A, r + 1)
                kept, lifted, lift_modulus, count = pivots, X, p, 1
            else:
                lifted = _crt(lifted, lift_modulus, X, p)
                lift_modulus *= p
                count += 1
            if count & (count - 1) == 0:  # a lift of 1, 2, 4, ... primes
                K = _lift(lifted, lift_modulus, kept, cols)
                if K is not None and _kernel_checks(A, K, primes):
                    return best
        modulus *= p
        if modulus * modulus > bound_squared:
            return best


def int_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact A @ B, as int64, for matrices of integers in any numeric type.

    Every partial sum is an integer bounded by inner_dim * max|A| * max|B|.
    When that bound reaches 2^63, int64 could overflow, so OverflowError
    is raised.  Large products go through BLAS when the bound makes every
    partial sum exactly representable: float32 when it is below 2^24,
    float64 when it is below 2^53.  The float result is then exact and the
    cast back to int64 is lossless.  When B is the transpose of A, A is
    converted once and B is its view; an operand of that type is not copied.
    """
    bound = A.shape[1]
    for M in (A, B):
        bound *= max(int(M.max(initial=0)), -int(M.min(initial=0)))
    if bound >= 1 << 63:
        raise OverflowError("integer product could exceed int64")
    ops = A.shape[0] * A.shape[1] * B.shape[-1]
    if ops <= 2_000_000 or bound >= (1 << 53):
        return np.matmul(A, B, dtype=np.int64, casting="unsafe")
    dtype = np.float32 if bound < (1 << 24) else np.float64
    Af = A.astype(dtype, copy=False)
    if B.base is A and B.shape == A.shape[::-1] and B.strides == A.strides[::-1]:
        Bf = Af.T
    else:
        Bf = B.astype(dtype, copy=False)
    return np.rint(Af @ Bf).astype(np.int64)


def _as_rows(M) -> list:
    return [list(row) for row in M]


def to_integer_matrix(M) -> list:
    """Scale a rational matrix by a positive integer to clear denominators."""
    rows = _as_rows(M)
    denom = 1
    for row in rows:
        for v in row:
            f = Fraction(v)
            denom = lcm(denom, f.denominator)
    return [[int(Fraction(v) * denom) for v in row] for row in rows]


def leading_principal_minors(M) -> list:
    """Exact leading principal minors D_1..D_k of an integer matrix.

    Computed by fraction-free Bareiss elimination; stops after the first
    zero minor (subsequent pivots would divide by it) and pads with the
    zero, which is all the definiteness tests need.
    """
    a = [[int(v) for v in row] for row in _as_rows(M)]
    size = len(a)
    minors = []
    prev = 1
    for k in range(size):
        pivot = a[k][k]
        minors.append(pivot)
        if pivot == 0:
            break
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return minors


def is_positive_definite(M) -> bool:
    """Sylvester's criterion on a symmetric matrix, exact arithmetic."""
    ints = to_integer_matrix(M)
    if not ints:
        return True
    minors = leading_principal_minors(ints)
    return len(minors) == len(ints) and all(d > 0 for d in minors)


def solve_consistent(G, B):
    """A particular exact solution Y of G Y = B, or None if inconsistent.

    G may be singular; free variables are set to zero.  Entries of the
    result are Fractions.
    """
    rows = len(G)
    if rows == 0:
        return []
    cols = len(B[0]) if B else 0
    a = [[Fraction(G[i][j]) for j in range(rows)] +
         [Fraction(B[i][c]) for c in range(cols)] for i in range(rows)]
    pivots = []
    row = 0
    for col in range(rows):
        sel = next((i for i in range(row, rows) if a[i][col] != 0), None)
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        inv = a[row][col]
        a[row] = [v / inv for v in a[row]]
        for i in range(rows):
            if i != row and a[i][col] != 0:
                f = a[i][col]
                a[i] = [v - f * w for v, w in zip(a[i], a[row])]
        pivots.append(col)
        row += 1
    for i in range(row, rows):
        if any(a[i][rows + c] != 0 for c in range(cols)):
            return None
    Y = [[Fraction(0)] * cols for _ in range(rows)]
    for r, col in enumerate(pivots):
        for c in range(cols):
            Y[col][c] = a[r][rows + c]
    return Y
