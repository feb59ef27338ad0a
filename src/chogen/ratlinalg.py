"""Exact linear algebra for integer and rational matrices.

Certification verdicts must not depend on floating point or on chance.
Connectedness is decided by `rank`: vectorised int64 elimination modulo
word-size primes (cf. Dumas, Giorgi & Pernet, ACM TOMS 2008, on dense
linear algebra over word-size prime fields).  A modular rank never
exceeds the rational one, so full rank modulo the first prime is final.
A deficit modulo that prime is certified by a kernel: its reduced-echelon
kernel basis is lifted to integers by rational reconstruction (Wang 1981;
on small lifted solutions, Dixon 1982) and checked exactly.  Only when
that check fails does `rank` go on to more primes, until their product
exceeds the Hadamard bound on every minor that could still be nonzero,
so the modular rank is the rational rank.  Integer products (C*, the
Hadamard seed check and the kernel check) go through `int_product`,
which refuses a product whose partial sums could leave int64, and uses
float32 BLAS where every partial sum is an integer below 2^24, and
float64 where it is below 2^53, and so is exact, as in the same paper.

The Python-integer and Fraction routines (leading principal minors,
definiteness, a consistent linear solve) are kept as a slow reference
for tests; no verdict goes through them.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

import numpy as np

# rank() works modulo primes below 2**31: a product of two residues stays
# below 2**62, so every step of the elimination is exact in int64.
_PRIME_CEILING = 1 << 31


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
    """The primes below 2**31, largest first, found as they are needed."""
    c = _PRIME_CEILING - 1
    while True:
        if _is_prime(c):
            yield c
        c -= 2


def _echelon(A: np.ndarray, p: int) -> list:
    """Row echelon form of A modulo p, in place; the pivot columns.

    A holds residues in [0, p).  Row i of the result, for i below the
    number of pivots, is 0 before pivot column i and 1 on it; the rows
    after them are zero.
    """
    rows, cols = A.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        if nz[0]:
            A[[r, r + nz[0]]] = A[[r + nz[0], r]]
        A[r, c:] = A[r, c:] * pow(int(A[r, c]), -1, p) % p
        below = r + nz[1:]
        if below.size:
            A[below, c:] = (A[below, c:]
                            - np.outer(A[below, c], A[r, c:])) % p
        pivots.append(c)
    return pivots


def _reconstruct(x: np.ndarray, p: int) -> tuple:
    """Fractions a/b = x mod p with |a| and b at most sqrt(p/2), or None.

    Wang's rational reconstruction, elementwise: the extended Euclidean
    algorithm on (p, x), stopped at the first remainder within the bound,
    keeps a = t x (mod p) for its cofactor t, so a/t = x.  Entries whose
    cofactor leaves the bound have no such fraction.
    """
    bound = isqrt(p // 2)
    r0, r1 = np.full_like(x, p), x.copy()
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


def _kernel_certified(A: np.ndarray, U: np.ndarray, pivots: list,
                      p: int) -> bool:
    """Whether A K = 0 exactly for a kernel basis K lifted from modulo p.

    U is the row echelon form of A modulo p, with R pivots; it is reduced
    here, each pivot column cleared above its pivot.  Column j of K has 1
    on the j-th free column, 0 on the other free ones, and on pivot column
    i the fraction that reconstructs -U[i, free j]; it is then scaled by
    the lcm of its denominators.  Those cols - R columns are independent
    over the rationals, so A K = 0 proves rank A <= R.  False when an
    entry does not reconstruct, the product could leave int64, or A K is
    not zero.
    """
    for i in range(len(pivots) - 1, 0, -1):
        c = pivots[i]
        above = np.flatnonzero(U[:i, c])
        if above.size:
            U[above, c:] = (U[above, c:]
                            - np.outer(U[above, c], U[i, c:])) % p
    cols = A.shape[1]
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    fractions = _reconstruct(-U[:len(pivots), free] % p, p)
    if fractions is None:
        return False
    num, den = fractions
    K = np.zeros((cols, free.size), dtype=np.int64)
    for j in range(free.size):
        scale = lcm(*den[:, j].tolist())
        if scale >= 1 << 47:  # |num| * scale would leave int64
            return False
        K[pivots, j] = num[:, j] * (scale // den[:, j])
        K[free[j], j] = scale
    try:
        return not int_product(A, K).any()
    except OverflowError:
        return False


def _minor_bound_squared(A: np.ndarray, k: int) -> int:
    """Square of the Hadamard bound on every k x k minor of A.

    A minor is at most the product of the norms of its rows, and each of
    those is at most the norm of the whole row of A.
    """
    big = max(int(A.max()), -int(A.min()))
    if big * big * A.shape[1] < 1 << 63:
        norms = (A * A).sum(axis=1).tolist()
    else:
        norms = [sum(int(v) ** 2 for v in row) for row in A]
    bound = 1
    for v in sorted(norms, reverse=True)[:k]:
        bound *= v
    return bound


def rank(M) -> int:
    """Exact rank over the rationals of an integer matrix (int64 entries).

    The rank modulo a prime never exceeds the rational rank, so a full
    rank R modulo the first prime is final.  Otherwise a kernel basis
    modulo that prime, lifted to integers by rational reconstruction, is
    checked exactly (_kernel_certified): if it holds, the rank is R.  If
    an entry does not reconstruct, the check's bound reaches 2^63, or the
    lifted vectors are not a kernel, the primes go on: with R the largest
    modular rank seen, every (R+1)-minor is divisible by each prime used,
    and once the product of those primes exceeds the Hadamard bound on
    the (R+1)-minors, they are all zero and the rank is R.
    """
    A = np.array(M, dtype=np.int64)
    if A.size == 0:
        return 0
    if A.ndim != 2:
        raise ValueError("rank needs a two-dimensional matrix")
    if A.shape[0] < A.shape[1]:
        A = A.T  # loop over, and bound minors by, the shorter rows
    full = A.shape[1]
    best, modulus, bound_squared = -1, 1, 0
    for p in _primes():
        U = A % p
        pivots = _echelon(U, p)
        r = len(pivots)
        if r == full:
            return r
        if best < 0 and _kernel_certified(A, U, pivots, p):  # first prime
            return r
        if r > best:
            best = r
            bound_squared = _minor_bound_squared(A, r + 1)
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
