"""Exact ranks modulo primes: the delayed-reduction echelon, the kernel
lifted across primes and checked exactly, the Hadamard-bound stop rule, and
the exact integer product."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chogen import ratlinalg
from chogen.designs import ChoiceDesign
from chogen.models import ModelSpec
from chogen.optimality import Verdict, _differences, verify
from chogen.ratlinalg import int_product, rank

P = 2**29 - 3  # the first prime rank() draws


def _rank_by_fractions(M) -> int:
    """Reference rank by Gaussian elimination over the rationals."""
    from fractions import Fraction
    a = [[Fraction(v) for v in row] for row in M]
    r = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def test_rank_of_empty_matrices():
    assert rank([]) == 0
    assert rank([[]]) == 0
    assert rank(np.zeros((0, 4), dtype=np.int64)) == 0
    assert rank(np.zeros((3, 0), dtype=np.int64)) == 0


def test_rank_of_zero_matrices():
    assert rank([[0]]) == 0
    assert rank(np.zeros((5, 3), dtype=np.int64)) == 0


def test_rank_full():
    assert rank(np.eye(6, dtype=np.int64)) == 6
    assert rank([[1, 1, 0], [0, 1, 1]]) == 2
    assert rank([[1, 0], [0, 1], [1, 1]]) == 2
    assert rank([[-3]]) == 1
    # squares of these entries overflow int64 in the minor bound
    assert rank([[2**40, 0], [0, 2**40]]) == 2


def test_rank_deficit():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, -1, 0], [0, 1, -1], [-1, 0, 1]]) == 2
    assert rank([[2**40, 2**41], [1, 2]]) == 1
    # a +-1 matrix of rank 3 with 40 rows and 30 columns
    rng = np.random.default_rng(11)
    M = rng.choice([-1, 1], (40, 3)) @ rng.choice([-1, 1], (3, 30))
    assert rank(M) == 3
    assert rank(M.T) == 3


def test_rank_survives_a_prime_that_divides_the_minors():
    # singular modulo the first prime, 2^29 - 3, but rank 2 over Q: the
    # stop rule must not accept the modular deficit as final
    assert next(ratlinalg._primes()) == P
    p = P
    assert rank([[1, 0], [0, p]]) == 2
    assert rank([[p, 0, 0], [0, p, 0], [0, 0, 0]]) == 2


def test_rank_matches_rational_elimination():
    rng = random.Random(2031)
    for _ in range(80):
        rows, cols, k = (rng.randint(1, 9) for _ in range(3))
        L = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)]
        R = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(k)]
        M = (np.array(L) @ np.array(R)).tolist()
        assert rank(M) == _rank_by_fractions(M)


@pytest.fixture
def primes_drawn(monkeypatch):
    """Counts the primes rank() draws, over every call in the test."""
    drawn = []
    original = ratlinalg._primes

    def counted():
        for p in original():
            drawn.append(p)
            yield p

    monkeypatch.setattr(ratlinalg, "_primes", counted)
    return drawn


@pytest.fixture
def echelons(monkeypatch):
    """The prime of each echelon rank() runs, over every call in the test;
    the kernel checks draw primes too, but run no echelon."""
    primes = []
    original = ratlinalg._echelon

    def counted(A, p):
        primes.append(p)
        return original(A, p)

    monkeypatch.setattr(ratlinalg, "_echelon", counted)
    return primes


def test_certificate_decides_a_deficit_with_one_prime(echelons):
    # the kernel (-3/2, 1) reconstructs and, scaled to (-3, 2), checks
    assert rank([[2, 3], [4, 6]]) == 1
    # rank 20 of 30; the Hadamard bound on its 21-minors needs several
    # primes, but the kernel of [I | B] is (-B, I) and checks at once
    rng = np.random.default_rng(5)
    R = np.hstack([np.eye(20, dtype=np.int64),
                   rng.integers(-1, 2, (20, 10))])
    M = rng.choice([-1, 1], (40, 20)) @ R
    assert rank(M) == 20
    assert rank(M.T) == 20
    assert echelons == [P, P, P]


def test_kernel_entry_that_does_not_reconstruct_falls_back(echelons):
    # the kernel (-20000, 1) needs a numerator above sqrt(p/2) = 16383 at
    # the first prime; the lift of two primes reconstructs it
    assert ratlinalg._reconstruct(np.array([P - 20000]), P) is None
    assert rank([[1, 20000], [2, 40000]]) == 1
    assert len(echelons) == 2


def test_modular_kernel_that_fails_the_exact_check_falls_back(echelons):
    # modulo p the kernel is (0, 1), but M (0, 1)' = (0, p)' is not zero;
    # the next prime gives full rank
    assert rank([[1, 0], [0, P]]) == 2
    assert len(echelons) == 2


def test_check_bound_past_int64_falls_back(echelons, primes_drawn):
    # the kernel (-1, 1) is found, but A K could reach 2 * 2^62 * 1, past
    # int64: the check runs modulo three check primes, whose product
    # passes twice that, and needs no second echelon
    big = 2**62
    assert rank([[big, big], [big, big]]) == 1
    assert echelons == [P]
    assert len(primes_drawn) == 4


def test_reconstruction_bounds():
    # 1/3, -5/7 and 0 come back; the largest admissible numerator too
    x = np.array([pow(3, -1, P), -5 * pow(7, -1, P) % P, 0, 16383])
    num, den = ratlinalg._reconstruct(x, P)
    assert num.tolist() == [1, -5, 0, 16383]
    assert den.tolist() == [3, 7, 1, 1]
    assert ratlinalg._reconstruct(np.array([16384]), P) is None
    # past 2^63 the same bound, sqrt(modulus/2), on Python integers
    big = P * (2**29 - 33) * (2**29 - 43)
    assert big >= 1 << 63
    x = np.array([-(2**40 + 1) * pow(3**25, -1, big) % big, 2**42], dtype=object)
    num, den = ratlinalg._reconstruct(x, big)
    assert num.tolist() == [-(2**40 + 1), 2**42]
    assert den.tolist() == [3**25, 1]


@st.composite
def low_rank_products(draw):
    """L R with entries of L and R in -5..5 and an inner size below both
    outer sizes, so the rank is deficient and kernels need denominators."""
    rows = draw(st.integers(2, 8))
    cols = draw(st.integers(2, 8))
    k = draw(st.integers(1, min(rows, cols) - 1))
    elems = st.integers(-5, 5)
    L = draw(st.lists(st.lists(elems, min_size=k, max_size=k),
                      min_size=rows, max_size=rows))
    R = draw(st.lists(st.lists(elems, min_size=cols, max_size=cols),
                      min_size=k, max_size=k))
    return (np.array(L, dtype=np.int64) @ np.array(R, dtype=np.int64)).tolist()


@given(low_rank_products())
def test_rank_of_low_rank_products_matches_fractions(M):
    assert rank(M) == _rank_by_fractions(M)


def test_audit_draw_is_decided_with_one_prime(echelons, monkeypatch):
    # a random spec-all n=8 m=3 N=128 design: rank C* is 125-132 of 135.
    # The witness decides it with no echelon; forced to give none, the
    # rank decides it with one prime
    rng = random.Random(303)
    d = ChoiceDesign.from_indices(
        [rng.sample(range(256), 3) for _ in range(128)], 8)
    model = ModelSpec.specified_one_factor(8)
    assert verify(d, model).verdict is Verdict.NOT_CONNECTED
    assert echelons == []
    monkeypatch.setattr(ratlinalg, "independence_witness", lambda D, Q: None)
    assert verify(d, model).verdict is Verdict.NOT_CONNECTED
    assert echelons == [P]


def _echelon_per_step(A, p):
    """_echelon as it was before the delayed reduction: every update of
    the rows below a pivot is reduced mod p at once."""
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


def _cleared_per_step(U, pivots, p):
    """-U[:R, free] mod p after clearing above each pivot, reduced at once."""
    for i in range(len(pivots) - 1, 0, -1):
        c = pivots[i]
        above = np.flatnonzero(U[:i, c])
        if above.size:
            U[above, c:] = (U[above, c:]
                            - np.outer(U[above, c], U[i, c:])) % p
    free = np.ones(U.shape[1], dtype=bool)
    free[pivots] = False
    return -U[:len(pivots), free] % p


@st.composite
def residue_matrices(draw):
    """Residue matrices at the first prime: up to 48 x 48, so a row can
    take more than 32 updates (_room) before its reduction; entries from
    a palette with p - 1 and p - 2, whose products are the largest, or
    uniform; some of low rank, some with repeated rows, some wide."""
    rows = draw(st.integers(1, 48))
    cols = draw(st.integers(1, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        A = rng.choice([0, 1, 2, P - 2, P - 1], (rows, cols))
    else:
        A = rng.integers(0, P, (rows, cols))
    shape = draw(st.sampled_from(["as drawn", "low rank", "repeated rows"]))
    if shape == "low rank":
        k = draw(st.integers(1, min(rows, cols)))
        A = int_product(A[:, :k] % 3 - 1, rng.integers(-1, 2, (k, cols))) % P
    elif shape == "repeated rows":
        A = A[rng.integers(0, max(1, rows // 2), rows)]
    return np.ascontiguousarray(A, dtype=np.int64)


@given(residue_matrices())
def test_delayed_echelon_matches_per_step_reduction(A):
    assert ratlinalg._room(P) == 32
    U, V = A.copy(), A.copy()
    pivots = ratlinalg._echelon(U, P)
    assert pivots == _echelon_per_step(V, P)
    assert np.array_equal(U, V)
    assert ((0 <= U) & (U < P)).all()
    assert np.array_equal(ratlinalg._kernel_residues(U, pivots, P),
                          _cleared_per_step(V, pivots, P))


def test_delayed_echelon_reduces_past_its_room():
    # 40 pivot rows, 1 on the diagonal and p - 1 after it, and below them
    # rows whose entry on each pivot column is p - 1 when it is reached, so
    # every update subtracts (p - 1)^2 from column 40: 40 of them would leave
    # int64 without the reduction after 32.  Column 41 makes every update
    # that clears above a pivot subtract (p - 1)^2 in the same way
    n = 40
    A = np.zeros((n + 5, n + 2), dtype=np.int64)
    A[:n, :n] = np.triu(np.full((n, n), P - 1), 1) + np.eye(n, dtype=np.int64)
    A[:n, n] = P - 1
    A[:n, n + 1] = (n - 2 - np.arange(n)) % P
    A[n:, :n] = (np.arange(n) - 1) % P
    A[n:, n] = n
    A[n:, n + 1] = -n * (n - 3) // 2 % P
    U, V = A.copy(), A.copy()
    pivots = ratlinalg._echelon(U, P)
    assert pivots == _echelon_per_step(V, P) == list(range(n))
    assert np.array_equal(U, V)
    assert not U[n:].any()
    X = ratlinalg._kernel_residues(U, pivots, P)
    assert np.array_equal(X, _cleared_per_step(V, pivots, P))
    assert (X[:, 1] == 1).all()


def _n400_differences(seed, skipped=0):
    """The treatment graph's D of a random spec-all n=10 m=3 N=400 design:
    400 draws of rng.choice(1024, 3, replace=False) after `skipped` more."""
    rng = np.random.default_rng(seed)
    for _ in range(skipped):
        rng.choice(1024, 3, replace=False)
    d = ChoiceDesign.from_indices(
        np.array([rng.choice(1024, 3, replace=False) for _ in range(400)]), 10)
    masks, _ = ModelSpec.specified_one_factor(10).masks_on(10)
    return _differences(d, masks)


@pytest.mark.parametrize("seed, skipped, expected", [
    (0, 0, 461), (4, 0, 463), (5, 0, 462), (7, 611, 474)])
def test_n400_deficit_is_lifted_in_a_few_echelons(echelons, seed, skipped,
                                                   expected):
    # the first prime's kernel certificate fails on these D (about
    # 690 x 521); the Hadamard stop would need about 60 primes
    from conftest import deadline
    D = _n400_differences(seed, skipped)
    assert D.dtype == np.int8 and D.shape[1] == 521
    with deadline(20):
        assert rank(D) == expected
    assert len(echelons) <= 3


@pytest.mark.parametrize("seed, skipped", [(s, 0) for s in range(8)]
                         + [(7, 611)])
def test_n400_deficit_is_witnessed(echelons, seed, skipped):
    # the eight Baseline draws and the rng(7) design: the witness's kernel
    # vector checks on every one, with no echelon
    from conftest import deadline
    D = _n400_differences(seed, skipped)
    with deadline(20):
        assert ratlinalg.independence_witness(D, D.shape[1]) is False
    assert echelons == []


def test_witness_refuses_a_dense_kernel_that_rank_decides():
    # L R with L 80 x 50 and R 50 x 80 in +-1: every kernel vector of the
    # reduced echelon form has denominators far past _DEN_LIMIT, so the
    # witness gives none, and the rank, lifted across primes, is 50
    rng = np.random.default_rng(3)
    L, R = rng.choice([-1, 1], (80, 50)), rng.choice([-1, 1], (50, 80))
    assert rank(L) == rank(R) == 50
    M = L @ R
    assert ratlinalg.independence_witness(M, 80) is None
    assert ratlinalg.independence_witness(M, 1) is None
    assert rank(M) == 50


def test_witness_on_small_matrices():
    w = ratlinalg.independence_witness
    # full column rank: True, whatever Q
    assert w(np.eye(3, dtype=np.int8), 3) is True
    assert w(np.array([[1, 1], [1, -1], [0, 1]]), 1) is True
    # column 2 = column 0 + column 1: each column meets the others' span
    M = np.array([[1, 0, 1], [0, 1, 1], [0, 0, 0], [1, 1, 2]])
    assert w(M, 1) is False and w(M, 3) is False
    # a zero column of interest, or one repeated among the nuisance
    assert w(np.array([[0, 1], [0, 1], [0, 0]]), 1) is False
    assert w(np.array([[1, 1], [1, 1], [0, 0]]), 1) is False
    # dependence among the nuisance alone proves nothing either way
    assert w(np.array([[1, 0], [0, 0], [0, 0]]), 1) is None
    # no witness for a zero matrix, a wide one, or entries whose Gram
    # could leave the integers that float64 holds
    assert w(np.zeros((3, 2), dtype=np.int8), 1) is None
    assert w(np.array([[1, 0, 1], [0, 1, 1]]), 1) is None
    assert w(np.array([[2**27, 0], [0, 1]]), 1) is None


def test_floats_only_propose(monkeypatch):
    w = ratlinalg.independence_witness
    # column 1 is column 0 a little apart: G has full rank, but is too
    # ill-conditioned for its rounded inverse to check, and the shifted
    # Cholesky takes column 1 as free; its proposed kernel vector (-1, 1)
    # fails D y = 0, so there is no witness either way
    D = np.array([[8192, 8192], [0, 1], [0, 0]])
    assert rank(D) == 2
    assert w(D, 2) is None and w(D, 1) is None
    # a singular Gram (column 1 repeats column 0) with a made-up positive
    # definite factorization and a moderate inverse: the residual check
    # fails, and so no full rank is claimed
    D = np.array([[1, 1, 0], [0, 0, 1], [1, 1, 1], [0, 0, 0]])
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "cholesky", lambda G: np.eye(len(G)))
        m.setattr(np.linalg, "inv", lambda G: np.eye(len(G)) / np.diag(G))
        assert w(D, 1) is None
    assert w(D, 1) is False
    # a proposed kernel vector that is zero on the interest columns proves
    # nothing: here column 0 is independent of the equal columns 1 and 2
    D = np.array([[1, 0, 0], [0, 1, 1], [0, 0, 0], [1, 1, 1]])
    monkeypatch.setattr(ratlinalg, "_kernel_vector",
                        lambda G, Q: np.array([0, 1, -1]))
    assert w(D, 1) is None


def test_kernel_lifted_across_more_than_two_primes(echelons):
    # rank 2, kernel (a, b, 1): a numerator near 2^40 needs a modulus past
    # 2^81, three primes; the lift tries 1, 2 and 4 primes, on Python
    # integers past 2^63, well before the Hadamard stop
    a, b = 2**40 + 1, 3**25
    rows = [[1, 0, -a], [0, 1, -b], [1, 1, -(a + b)], [2**20, 0, -(2**20) * a]]
    assert rank(rows) == 2
    assert len(echelons) == 4
    modulus = np.prod(echelons, dtype=object)
    assert modulus * modulus <= ratlinalg._minor_bound_squared(
        np.array(rows), 3)


def test_rank_rejects_a_vector():
    with pytest.raises(ValueError):
        rank([1, 2, 3])


def test_miller_rabin_against_trial_division():
    def slow(n):
        return n >= 2 and all(n % k for k in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(3000) if ratlinalg._is_prime(n)] == \
        [n for n in range(3000) if slow(n)]
    # strong pseudoprimes to bases (2), (2, 3) and (2, 3, 5)
    for n in (2047, 1373653, 25326001):
        assert not ratlinalg._is_prime(n)
    assert ratlinalg._is_prime(2**31 - 1)
    assert not ratlinalg._is_prime(2**31 - 3)


@given(st.data())
def test_int_product_matches_numpy_small(data):
    rows = data.draw(st.integers(1, 5))
    inner = data.draw(st.integers(1, 5))
    cols = data.draw(st.integers(1, 5))
    elems = st.integers(-50, 50)
    A = np.array(data.draw(st.lists(st.lists(elems, min_size=inner, max_size=inner),
                                    min_size=rows, max_size=rows)), dtype=np.int64)
    B = np.array(data.draw(st.lists(st.lists(elems, min_size=cols, max_size=cols),
                                    min_size=inner, max_size=inner)), dtype=np.int64)
    assert np.array_equal(int_product(A, B), A @ B)


def test_int_product_large_goes_through_float_exactly():
    rng = np.random.default_rng(7)
    A = rng.integers(-3, 4, size=(60, 700)).astype(np.int64)
    B = rng.integers(-3, 4, size=(700, 60)).astype(np.int64)
    out = int_product(A, B)
    assert out.dtype == np.int64
    assert np.array_equal(out, A @ B)


def _filled(rows, inner, cols, a, b):
    """A (rows, inner) matrix of a's and an (inner, cols) matrix of b's."""
    A = np.full((rows, inner), a, dtype=np.int64)
    B = np.full((inner, cols), b, dtype=np.int64)
    return A, B


@pytest.mark.parametrize("inner, a, b", [
    (256, 255, 255),  # bound 256 * 255^2 just below 2^24: float32
    (256, 256, 256),  # bound exactly 2^24: float64
    (64, 512, 512),   # bound exactly 2^24 again, other factors
])
def test_int_product_exact_near_the_float32_limit(inner, a, b):
    A, B = _filled(120, inner, 130, a, b)
    A[::7] *= -1
    B[:, ::5] -= 1
    assert inner * a * b <= 1 << 24
    for left, right in [(A, B), (A[:, ::-1], B[::-1]), (B.T, A.T)]:
        assert np.array_equal(int_product(left, right), left @ right)
    # B is a view of A: the converted A is reused for it
    assert np.array_equal(int_product(A, A.T), A @ A.T)


def test_int_product_stays_exact_where_float32_would_round():
    # one partial sum is 2^24 + 1, which float32 cannot hold
    A, B = _filled(100, 257, 100, 256, 256)
    A[:, -1] = 1
    B[-1, :] = 1
    expect = A @ B
    assert expect[0, 0] == (1 << 24) + 1
    rounded = np.rint(A.astype(np.float32) @ B.astype(np.float32))
    assert not np.array_equal(rounded.astype(np.int64), expect)
    assert np.array_equal(int_product(A, B), expect)


def test_int_product_small_integer_types_do_not_overflow():
    A = np.full((3, 40), 100, dtype=np.int8)
    out = int_product(A, A.T)
    assert out.dtype == np.int64
    assert (out == 40 * 100 * 100).all()


def test_int_product_refuses_overflow_on_the_small_path():
    with pytest.raises(OverflowError):
        int_product(np.array([[2**40]]), np.array([[2**40]]))
    # 2^31 * 2^31 * 2 = 2^63 partial sums may overflow; one term below fits
    A = np.array([[2**31, 2**31]], dtype=np.int64)
    with pytest.raises(OverflowError):
        int_product(A, A.T)
    assert int_product(A[:, :1], A[:, :1].T).tolist() == [[2**62]]


def test_int_product_refuses_overflow_on_the_large_path():
    A, B = _filled(200, 200, 200, 2**30, 2**30)
    assert A.shape[0] * A.shape[1] * B.shape[1] > 2_000_000
    with pytest.raises(OverflowError):
        int_product(A, B)
    # inner * 2^25 * 2^25 is above 2^53 but below 2^63: int64, exact
    A, B = _filled(200, 200, 200, 2**25, -(2**25))
    assert np.array_equal(int_product(A, B), A @ B)
