"""Hadamard matrices used as design seeds.

Sylvester powers, Paley constructions over GF(q) for odd prime powers q,
and Kronecker products together cover every order 4k up to
MAX_SEARCH_ORDER; hadamard() itself builds larger orders on request.
Every matrix hadamard() returns passes the exact integer check
is_hadamard.  Seed rows are read through positive_columns, which gives
Sylvester columns as Walsh characters, Hadamard by construction, and
builds and checks no matrix for them.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import BadOrder, InvariantError, NotHadamard, Unsupported
from .ratlinalg import int_product

# Bound of the seed-order search.  verify accepts at most 63 factors
# (designs.MAX_INDEX_FACTORS) and least_hadamard_order(63) = 64, so no
# design that can be certified needs a larger searched order.
MAX_SEARCH_ORDER = 64


def is_hadamard(M) -> bool:
    """Exact check: square, entries in {-1,+1}, M M' = order * I.

    Every partial sum of M M' is at most the order in magnitude, so
    int_product forms it exactly through float BLAS.
    """
    H = np.asarray(M)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        return False
    if not np.all(np.abs(H) == 1):
        return False
    nu = H.shape[0]
    # no copy of an int64 seed; H.T is then a view of H, which int_product
    # recognises and converts once for both operands
    H = H.astype(np.int64, copy=False)
    P = int_product(H, H.T)
    P[np.diag_indices(nu)] -= nu
    return not P.any()


def _frozen(H: np.ndarray) -> np.ndarray:
    H = np.ascontiguousarray(H, dtype=np.int64)
    H.setflags(write=False)
    return H


def sylvester(k: int) -> np.ndarray:
    """The k-fold Kronecker power of [[1,1],[1,-1]], order 2^k."""
    if k < 0:
        raise BadOrder("sylvester exponent must be >= 0")
    H = np.array([[1]], dtype=np.int64)
    base = np.array([[1, 1], [1, -1]], dtype=np.int64)
    for _ in range(k):
        H = np.kron(base, H)
    return _frozen(H)


def kronecker(h1, h2) -> np.ndarray:
    return _frozen(np.kron(np.asarray(h1, dtype=np.int64),
                           np.asarray(h2, dtype=np.int64)))


# ---------------------------------------------------------------------------
# GF(q) quadratic characters for the Paley constructions.

def _prime_power(q: int):
    """Return (p, k) with q = p^k for p prime, else None."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            m, k = q, 0
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
        p += 1
    return (q, 1)


def _poly_mod(a: list, mod: list, p: int) -> list:
    """Remainder of polynomial a modulo the monic polynomial mod, over F_p."""
    a = list(a)
    dm = len(mod) - 1
    while len(a) > dm:
        c = a[-1] % p
        if c:
            for i in range(dm + 1):
                a[len(a) - 1 - dm + i] = (a[len(a) - 1 - dm + i] - c * mod[i]) % p
        a.pop()
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: list, b: list, p: int) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _is_irreducible(poly: list, p: int) -> bool:
    """Trial division by all monic polynomials of degree 1..deg//2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for coeffs in itertools.product(range(p), repeat=d):
            divisor = list(coeffs) + [1]
            if _poly_divides(divisor, poly, p):
                return False
    return True


def _poly_divides(div: list, poly: list, p: int) -> bool:
    rem = _poly_mod(poly, div, p)
    return rem == [0]


@functools.lru_cache(maxsize=None)
def _quadratic_character(q: int) -> tuple:
    """chi over GF(q) as a tuple indexed by element code (base-p digits).

    chi(0) = 0, chi(x) = +1 for nonzero squares, -1 otherwise.
    """
    pk = _prime_power(q)
    if pk is None:
        raise BadOrder(f"{q} is not a prime power")
    p, k = pk

    def decode(x):
        digits = []
        for _ in range(k):
            digits.append(x % p)
            x //= p
        return digits

    def encode(digits):
        x = 0
        for d in reversed(digits):
            x = x * p + d
        return x

    if k == 1:
        mul = lambda a, b: (a * b) % p
    else:
        mod_poly = None
        for coeffs in itertools.product(range(p), repeat=k):
            cand = list(coeffs) + [1]
            if _is_irreducible(cand, p):
                mod_poly = cand
                break
        if mod_poly is None:
            raise InvariantError(f"no irreducible of degree {k} over GF({p})")

        def mul(a, b):
            prod = _poly_mul(decode(a), decode(b), p)
            rem = _poly_mod(prod, mod_poly, p)
            return encode(rem + [0] * (k - len(rem)))

    squares = {mul(x, x) for x in range(1, q)}
    return tuple(0 if x == 0 else (1 if x in squares else -1) for x in range(q))


def _gf_sub_table(q: int) -> np.ndarray:
    """q x q table of a - b over GF(q), elements as base-p digit codes."""
    p, k = _prime_power(q)
    digits = np.zeros((q, k), dtype=np.int64)
    for x in range(q):
        v = x
        for i in range(k):
            digits[x, i] = v % p
            v //= p
    diff = (digits[:, None, :] - digits[None, :, :]) % p
    weights = p ** np.arange(k, dtype=np.int64)
    return (diff * weights).sum(axis=2)


def _jacobsthal(q: int) -> np.ndarray:
    chi = np.array(_quadratic_character(q), dtype=np.int64)
    return chi[_gf_sub_table(q)]


def paley_type1(q: int) -> np.ndarray:
    """Order q+1 Hadamard matrix from GF(q), q an odd prime power = 3 mod 4."""
    if _prime_power(q) is None or q % 4 != 3:
        raise BadOrder(f"paley_type1 needs a prime power q = 3 mod 4, got {q}")
    Qj = _jacobsthal(q)
    S = np.zeros((q + 1, q + 1), dtype=np.int64)
    S[0, 1:] = 1
    S[1:, 0] = -1
    S[1:, 1:] = Qj
    H = S + np.eye(q + 1, dtype=np.int64)
    if not is_hadamard(H):
        raise InvariantError("Paley construction is not Hadamard")
    return _frozen(H)


def paley_type2(q: int) -> np.ndarray:
    """Order 2(q+1) Hadamard matrix from GF(q), q an odd prime power = 1 mod 4."""
    if _prime_power(q) is None or q % 4 != 1:
        raise BadOrder(f"paley_type2 needs a prime power q = 1 mod 4, got {q}")
    Qj = _jacobsthal(q)
    S = np.zeros((q + 1, q + 1), dtype=np.int64)
    S[0, 1:] = 1
    S[1:, 0] = 1
    S[1:, 1:] = Qj
    eye = np.eye(q + 1, dtype=np.int64)
    H = np.block([[S + eye, S - eye], [S - eye, -S - eye]])
    if not is_hadamard(H):
        raise InvariantError("Paley construction is not Hadamard")
    return _frozen(H)


def normalize(H) -> np.ndarray:
    """Sign-flip rows then columns so the first row and column are all ones."""
    M = np.array(H, dtype=np.int64)
    if not is_hadamard(M):
        raise NotHadamard("normalize expects an exact Hadamard matrix")
    M[M[:, 0] == -1] *= -1
    M[:, M[0, :] == -1] *= -1
    return _frozen(M)


def zero_one(H) -> np.ndarray:
    """Map +1 -> 1 and -1 -> 0."""
    M = np.asarray(H, dtype=np.int64)
    return _frozen((M + 1) // 2)


def _kronecker_of_orders(a: int, b: int) -> np.ndarray:
    return kronecker(hadamard(a), hadamard(b))


@functools.lru_cache(maxsize=None)
def hadamard_plan(order: int):
    """How hadamard(order) builds its matrix, as (builder, args), or None.

    In order of preference: Sylvester for a power of 2, Paley I for
    order-1 a prime power = 3 mod 4, Paley II for order/2-1 a prime power
    = 1 mod 4, else the Kronecker product of two planned orders a * b,
    with the least such a.  Nothing is built.
    """
    if order >= 1 and order & (order - 1) == 0:
        return sylvester, (order.bit_length() - 1,)
    if order < 4 or order % 4 != 0:
        return None
    if (order - 1) % 4 == 3 and _prime_power(order - 1) is not None:
        return paley_type1, (order - 1,)
    if (order // 2 - 1) % 4 == 1 and _prime_power(order // 2 - 1) is not None:
        return paley_type2, (order // 2 - 1,)
    for a in range(2, int(order ** 0.5) + 1):
        if order % a == 0 and hadamard_plan(a) and hadamard_plan(order // a):
            return _kronecker_of_orders, (a, order // a)
    return None


@functools.lru_cache(maxsize=None)
def hadamard(order: int) -> np.ndarray:
    """A normalized Hadamard matrix of the given supported order."""
    if order < 1:
        raise BadOrder(f"order must be positive, got {order}")
    plan = hadamard_plan(order)
    if plan is None:
        raise Unsupported(f"no supported Hadamard construction for order {order}")
    build, args = plan
    return normalize(build(*args))


def is_sylvester(order: int) -> bool:
    """Whether hadamard(order) is the Sylvester matrix of that order."""
    plan = hadamard_plan(order)
    return plan is not None and plan[0] is sylvester


def positive_columns(order: int, cols) -> np.ndarray:
    """Where hadamard(order)[:, cols] is +1, for 0-based columns cols.

    The Sylvester matrix of order 2^k has entry (-1)^|i & j| (Fino and
    Algazi 1976), so for those orders the entries are computed directly,
    order * len(cols) work with no order^2 matrix.  Other orders slice
    hadamard(order), which runs the exact check.
    """
    cols = np.asarray(cols, dtype=np.int64)
    if is_sylvester(order):
        rows = np.arange(order, dtype=np.int64)[:, None]
        return np.bitwise_count(rows & cols) & 1 == 0
    return hadamard(order)[:, cols] > 0


def supported_orders(limit: int = MAX_SEARCH_ORDER) -> list:
    """All buildable orders up to limit."""
    orders = [nu for nu in (1, 2) if nu <= limit]
    orders.extend(nu for nu in range(4, limit + 1, 4) if hadamard_plan(nu))
    return orders


def least_hadamard_order(n: int) -> int:
    """Smallest supported order >= n; the seed order for n-factor designs."""
    if n < 1:
        raise BadOrder(f"n must be positive, got {n}")
    for nu in supported_orders():
        if nu >= n:
            return nu
    raise Unsupported(
        f"no supported Hadamard order >= {n} within the cap {MAX_SEARCH_ORDER}"
    )
