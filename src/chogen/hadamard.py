"""Hadamard matrices used as design seeds.

Sylvester powers, Paley constructions over GF(q) for odd prime powers q,
and Kronecker products together cover every order 4k up to
MAX_SEARCH_ORDER; hadamard() itself builds larger orders on request.
GF(q), q = p^k, is F_p[x] modulo the first monic polynomial of degree k
whose ring is a field, found and read in one vectorised squaring of all
q elements (_field).
Every matrix hadamard() returns passes the exact integer check
is_hadamard.  Seed rows are read through positive_columns, which gives
Sylvester columns as Walsh characters, Hadamard by construction, and
builds and checks no matrix for them.
"""

from __future__ import annotations

import bisect
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


@functools.lru_cache(maxsize=None)
def _field(q: int):
    """GF(q) for q = p^k as (digits, chi), both read-only.

    digits[x] holds the base-p digits of element code x, low digit first;
    chi[x] is 0 at x = 0, +1 at a nonzero square and -1 otherwise.  The
    modulus is the first monic x^k + low(x), low's digits walked in
    itertools.product order, whose ring is a field.  All q elements are
    squared at once, as a.a = sum_i a_i (a x^i); the ring is a field when
    only 0 squares to 0 and only 0 and 1 square to themselves, since a
    finite commutative ring that is not a field has a nonzero nilpotent or
    a third idempotent.  A candidate with low(0) = 0 is skipped: x divides
    it, and for k = 1 every modulus gives the same chi.
    """
    pk = _prime_power(q)
    if pk is None:
        raise BadOrder(f"{q} is not a prime power")
    p, k = pk
    codes = np.arange(q, dtype=np.int64)
    weights = p ** np.arange(k, dtype=np.int64)
    digits = codes[:, None] // weights % p
    for low in itertools.product(range(p), repeat=k):
        if low[0] == 0:
            continue
        square, shifted = 0, digits  # shifted holds a x^i
        for i in range(k):
            square = (square + digits[:, i, None] * shifted) % p
            top = shifted[:, -1:]  # x^k = -low(x)
            shifted = np.hstack([np.zeros_like(top), shifted[:, :-1]])
            shifted = (shifted - top * low) % p
        squares = square @ weights
        if (squares == 0).sum() == 1 and (squares == codes).sum() == 2:
            break
    else:
        raise InvariantError(f"no irreducible of degree {k} over GF({p})")
    chi = np.full(q, -1, dtype=np.int64)
    chi[squares] = 1
    chi[0] = 0
    digits.setflags(write=False)
    chi.setflags(write=False)
    return digits, chi


def _jacobsthal(q: int) -> np.ndarray:
    """chi(a - b) over GF(q) for element codes a, b."""
    digits, chi = _field(q)
    p, k = _prime_power(q)
    diff = (digits[:, None, :] - digits[None, :, :]) % p
    return chi[diff @ p ** np.arange(k, dtype=np.int64)]


def _paley_core(q: int, first_column: int) -> np.ndarray:
    """The Jacobsthal matrix of GF(q) bordered by a first row of ones and
    a first column of first_column, with a 0 in the corner."""
    S = np.zeros((q + 1, q + 1), dtype=np.int64)
    S[0, 1:] = 1
    S[1:, 0] = first_column
    S[1:, 1:] = _jacobsthal(q)
    return S


def paley_type1(q: int) -> np.ndarray:
    """Order q+1 Hadamard matrix from GF(q), q an odd prime power = 3 mod 4."""
    if _prime_power(q) is None or q % 4 != 3:
        raise BadOrder(f"paley_type1 needs a prime power q = 3 mod 4, got {q}")
    H = _paley_core(q, -1) + np.eye(q + 1, dtype=np.int64)
    if not is_hadamard(H):
        raise InvariantError("Paley construction is not Hadamard")
    return _frozen(H)


def paley_type2(q: int) -> np.ndarray:
    """Order 2(q+1) Hadamard matrix from GF(q), q an odd prime power = 1 mod 4."""
    if _prime_power(q) is None or q % 4 != 1:
        raise BadOrder(f"paley_type2 needs a prime power q = 1 mod 4, got {q}")
    S = _paley_core(q, 1)
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


@functools.lru_cache(maxsize=None)
def _search_orders() -> tuple:
    """supported_orders(), listed once."""
    return tuple(supported_orders())


def least_hadamard_order(n: int) -> int:
    """Smallest supported order >= n; the seed order for n-factor designs."""
    if n < 1:
        raise BadOrder(f"n must be positive, got {n}")
    orders = _search_orders()
    k = bisect.bisect_left(orders, n)
    if k < len(orders):
        return orders[k]
    raise Unsupported(
        f"no supported Hadamard order >= {n} within the cap {MAX_SEARCH_ORDER}"
    )
