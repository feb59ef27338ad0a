"""Exact linear algebra for integer and rational matrices.

Floats propose, integers decide: a verdict may start from a floating-point
guess, but it rests only on an identity that exact integer arithmetic
checks, so it never depends on rounding or on chance.  Connectedness is
first tried by `independence_witness` (Kaltofen, Nehring & Saunders,
ISSAC 2011, on certificates that LAPACK proposes and integers check): an
approximate inverse of the Gram matrix whose residual is checked to be
small, or a rounded kernel vector checked to be one.  When neither
checks, `rank` decides: vectorised int64 elimination modulo primes below
2^29, with the delayed modular reduction of Dumas, Giorgi & Pernet (ACM
TOMS 2008, on dense linear algebra over word-size prime fields): a
product of two residues is below 2^58, so the rows below a pivot take 32
updates with no % p before they are reduced.  A modular rank never
exceeds the rational one, so full rank modulo any prime is final.  A
deficit is certified by a kernel: the reduced-echelon kernel bases modulo
the primes of the largest rank are combined by CRT, lifted to integers by
rational reconstruction (Wang 1981; on small lifted solutions, Dixon 1982)
and checked exactly modulo check primes.  The first prime alone decides
most deficits of random designs, and two the rest measured so far; the
loop ends anyway once the product of the primes exceeds the Hadamard bound
on every minor that could still be nonzero, so the modular rank is the
rational rank.  Integer products (C*, the Hadamard seed check, the Gram
matrix and the witness and kernel checks) go through `int_product`, which
refuses a product whose partial sums could leave int64, and uses float32
BLAS where every partial sum is an integer below 2^24, and float64 where
it is below 2^53, and so is exact, as in the same paper.

The Python-integer and Fraction routines (leading principal minors,
definiteness, a consistent linear solve) are kept as a slow reference
for tests; no verdict goes through them.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, isqrt, lcm

import numpy as np

# rank() works modulo primes below 2**29.  A product of two residues is
# below 2**58, so an entry in [0, p) takes 32 elimination updates before it
# could leave int64 (_room), and only then needs a reduction.
_PRIME_CEILING = 1 << 29

# independence_witness: the Gram matrix G is shifted by _SHIFT times its
# largest diagonal entry g, and a Cholesky pivot of that shifted G below
# _FREE g marks a free column; a float within _DEN_TOL of an integer counts
# as that integer, and a kernel vector's common denominator is sought up to
# _DEN_LIMIT.  None of them can change a verdict, only whether the witness
# answers.
_SHIFT = 2.0 ** -36
_FREE = 2.0 ** -20
_DEN_TOL = 1e-6
_DEN_LIMIT = 1 << 24


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
            A[below, c:] -= A[below, c, None] * A[r, c:]
            pending += 1
        pivots.append(c)
    return pivots


def _kernel_residues(U: np.ndarray, pivots: list, p: int) -> np.ndarray:
    """The kernel basis modulo p on the pivot columns, an (R, cols - R)
    array of residues: column j holds -U[:R, free j] of the reduced form.

    U is the row echelon form of _echelon, with R pivots, and is left as
    it is.  Its free columns are solved against the unit upper triangle on
    its pivot columns by back substitution: from the last pivot up, each
    row, once final, is taken from the rows above it times their entries on
    its pivot, with the same delayed reduction.  Kernel vector j is 1 on
    the j-th free column, 0 on the other free ones and column j of the
    result on the pivot columns.
    """
    free = np.ones(U.shape[1], dtype=bool)
    free[pivots] = False
    X = U[:len(pivots), free]
    room, pending = _room(p), 0
    for i in range(len(pivots) - 1, 0, -1):
        f = U[:i, pivots[i]]
        above = np.flatnonzero(f)
        if above.size:
            X[i] %= p
            if pending == room:
                X[:i] %= p
                pending = 0
            X[above] -= f[above, None] * X[i]
            pending += 1
    return -X % p


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


def independence_witness(D: np.ndarray, Q: int):
    """Whether the first Q columns of the integer matrix D are independent
    modulo the span of the others, when a witness that floats propose
    checks exactly, else None; connectedness when D is the treatment
    graph's difference matrix [D_interest | D_nuisance].

    The Gram matrix G = D'D is formed exactly (int_product) and held in
    float64, every entry an integer below 2^53.  True when LAPACK's
    Cholesky factorization takes G as positive definite and its rounded
    inverse checks (_inverse_checks): G is then nonsingular, so every
    column of D is independent.  Otherwise (rounding can let a singular G
    through Cholesky) False when a rounded kernel vector y (_kernel_vector)
    has D y = 0 exactly and is nonzero on the first Q coordinates: those
    columns then meet the span of the others.  A wide D is never of full
    column rank, and its Gram would outweigh the residues rank forms, so it
    gets None at once, as does any D whose witness is ill-conditioned,
    overflows or fails its check.
    """
    rows, cols = D.shape
    big = max(int(D.max(initial=0)), -int(D.min(initial=0)))
    if not 0 < Q <= cols <= rows or rows * big * big >= 1 << 53:
        return None
    G = int_product(D.T, D).astype(np.float64)
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        pass
    else:
        if _inverse_checks(G):
            return True
    y = _kernel_vector(G, Q)
    if y is not None and y[:Q].any() and not int_product(D, y[:, None]).any():
        return False
    return None


def _inverse_checks(G: np.ndarray) -> bool:
    """Whether X = rint(s G^-1) has ||G X - s I||_inf < s, in exact integer
    arithmetic: G X / s is then within 1 of I in the infinity norm, hence
    nonsingular, and so is G.

    G holds integers in float64.  s is the power of two that keeps every
    partial sum of G X below 2^52, so int_product multiplies in float64, and
    cols * s below 2^52, so no row sum of the residual leaves int64 (for a
    positive definite G, max|G| max|G^-1| >= 1).
    """
    cols = G.shape[0]
    try:
        X = np.linalg.inv(G)
    except np.linalg.LinAlgError:
        return False
    reach = max(float(G.max()) * float(np.abs(X).max()), 1.0)
    limit = 2.0 ** 52 / (cols * reach)
    if not limit >= 2:  # also when G^-1 holds inf or nan
        return False
    s = 1 << (int(limit).bit_length() - 1)
    np.rint(np.multiply(X, s, out=X), out=X)
    R = int_product(G, X)
    R[np.diag_indices(cols)] -= s
    np.abs(R, out=R)
    return bool(R.max() < s and R.sum(axis=1).max() < s)


def _kernel_vector(G: np.ndarray, Q: int):
    """An int64 vector that floats propose for the kernel of the Gram
    matrix G, nonzero on one of its first Q coordinates, or None.

    Cholesky's factorization of G + _SHIFT g I, g the largest diagonal
    entry, meets a pivot of about _SHIFT g at each column that depends on
    the columns before it: the free columns of D's echelon, the last
    independent rows of a null basis.  Each free column f has one kernel
    vector of the reduced echelon form: 1 on f, 0 on the other free
    columns, and minus the solution c of G[P, P] c = G[P, f] on the pivot
    columns P.  The vector taken is that of the last free column among the
    first Q, else of the first free column whose vector is nonzero there;
    one common denominator (_common_denominator) makes its fractions
    integers.
    """
    cols = G.shape[0]
    g = float(G.diagonal().max())
    shifted = G.copy()
    shifted[np.diag_indices(cols)] += _SHIFT * g
    try:
        pivot = np.linalg.cholesky(shifted).diagonal() ** 2 >= _FREE * g
        P, F = np.flatnonzero(pivot), np.flatnonzero(~pivot)
        if not P.size or not F.size:
            return None
        C = _refined_solve(G[np.ix_(P, P)], G[np.ix_(P, F)])
    except np.linalg.LinAlgError:  # also when G is 0
        return None
    if (F < Q).any():
        j = np.flatnonzero(F < Q)[-1]
    else:
        reach = np.abs(C[P < Q]).max(axis=0, initial=0)
        if not (reach > _DEN_TOL).any():
            return None
        j = np.flatnonzero(reach > _DEN_TOL)[0]
    y = np.zeros(cols)
    y[F[j]] = 1
    y[P] = -C[:, j]
    den = _common_denominator(y)
    return None if den is None else np.rint(y * den).astype(np.int64)


def _refined_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^-1 B for integer matrices held in float64, refined once against
    an exact residual (Wan 2006): with C0 = rint(a A^-1 B) for the power of
    two a that keeps A C0 below 2^51, R = a B - A C0 is formed exactly
    (int_product), and A^-1 B is (C0 + A^-1 R) / a, whose relative error
    is about the square of the first solve's.
    """
    X = np.linalg.inv(A)
    C = X @ B
    reach = max(float(np.abs(C).max()), 1.0) * A.shape[0] * float(A.max())
    if reach < 2.0 ** 50:
        a = float(1 << (int(2.0 ** 51 / reach).bit_length() - 1))
        C0 = np.rint(C * a)
        C = (C0 + X @ (int_product(A, -C0) + B * a)) / a
    return C


def _common_denominator(v: np.ndarray):
    """The least positive integer found to bring v within _DEN_TOL of
    integers, up to _DEN_LIMIT, or None.

    Each round takes the entry farthest from an integer and multiplies
    the denominator by the least q that brings it there (_least_multiple).
    """
    if not np.isfinite(v).all():
        return None
    den = 1
    while True:
        x = v * den
        off = np.abs(x - np.rint(x))
        j = int(off.argmax())
        if off[j] <= _DEN_TOL:
            return den
        q = _least_multiple(float(x[j]), _DEN_LIMIT // den)
        if q is None:
            return None
        den *= q


def _least_multiple(x: float, limit: int):
    """The least q <= limit with q x within _DEN_TOL of an integer, or None.

    The least such q is the denominator of a convergent of x's continued
    fraction, since the convergents' denominators are exactly those at
    which |q x - p| reaches a new least value.
    """
    h0, h1, k0, k1 = 0, 1, 1, 0  # the convergents h/k
    t = x
    while True:
        a = floor(t)
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
        if k1 > limit:
            return None
        if abs(k1 * x - h1) <= _DEN_TOL:
            return k1
        if t == a:
            return None
        t = 1 / (t - a)


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
