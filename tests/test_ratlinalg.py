"""Exact ranks modulo primes, with the one-prime kernel certificate and the
Hadamard-bound stop rule, and the exact integer product."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chogen import ratlinalg
from chogen.designs import ChoiceDesign
from chogen.models import ModelSpec
from chogen.optimality import Verdict, verify
from chogen.ratlinalg import int_product, rank

P = 2**31 - 1  # the first prime rank() draws


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
    # singular modulo the first prime, 2^31 - 1, but rank 2 over Q: the
    # stop rule must not accept the modular deficit as final
    assert next(ratlinalg._primes()) == 2**31 - 1
    p = 2**31 - 1
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


def test_certificate_decides_a_deficit_with_one_prime(primes_drawn):
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
    assert primes_drawn == [P, P, P]


def test_kernel_entry_that_does_not_reconstruct_falls_back(primes_drawn):
    # the kernel (-40000, 1) needs a numerator above sqrt(p/2) = 32767
    assert ratlinalg._reconstruct(np.array([P - 40000]), P) is None
    assert rank([[1, 40000], [2, 80000]]) == 1
    assert len(primes_drawn) > 1


def test_modular_kernel_that_fails_the_exact_check_falls_back(primes_drawn):
    # modulo p the kernel is (0, 1), but M (0, 1)' = (0, p)' is not zero
    assert rank([[1, 0], [0, P]]) == 2
    assert len(primes_drawn) > 1


def test_check_bound_past_int64_falls_back(primes_drawn):
    # the kernel (-1, 1) is found, but 2 * 2^62 * 1 reaches 2^63
    big = 2**62
    assert rank([[big, big], [big, big]]) == 1
    assert len(primes_drawn) > 1


def test_reconstruction_bounds():
    # 1/3, -5/7 and 0 come back; the largest admissible numerator too
    x = np.array([pow(3, -1, P), -5 * pow(7, -1, P) % P, 0, 32767])
    num, den = ratlinalg._reconstruct(x, P)
    assert num.tolist() == [1, -5, 0, 32767]
    assert den.tolist() == [3, 7, 1, 1]
    assert ratlinalg._reconstruct(np.array([32768]), P) is None


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


def test_audit_draw_is_decided_with_one_prime(primes_drawn):
    # a random spec-all n=8 m=3 N=128 design: rank C* is 125-132 of 135
    rng = random.Random(303)
    d = ChoiceDesign.from_indices(
        [rng.sample(range(256), 3) for _ in range(128)], 8)
    report = verify(d, ModelSpec.specified_one_factor(8))
    assert report.verdict is Verdict.NOT_CONNECTED
    assert primes_drawn == [P]


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
