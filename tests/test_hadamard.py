"""Hadamard seed matrices: constructions and exact checks."""

import hashlib
import itertools
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chogen.errors import BadOrder, NotHadamard, Unsupported
from chogen import hadamard as hm
from chogen.hadamard import (MAX_SEARCH_ORDER, hadamard, hadamard_plan,
                             is_hadamard, is_sylvester, kronecker,
                             least_hadamard_order, normalize, paley_type1,
                             paley_type2, positive_columns, supported_orders,
                             sylvester, zero_one)


def test_package_attribute_is_the_hadamard_submodule():
    import chogen
    import chogen.hadamard as hm
    assert isinstance(chogen.hadamard, types.ModuleType)
    assert hm.sylvester is sylvester and hm.hadamard is hadamard


def test_hadamard_plan_names_the_construction():
    assert hadamard_plan(1) == (sylvester, (0,))
    assert hadamard_plan(8) == (sylvester, (3,))
    assert hadamard_plan(12) == (paley_type1, (11,))
    assert hadamard_plan(36)[0] is paley_type2  # 35 is no prime power
    assert hadamard_plan(36)[1] == (17,)
    for order in (-4, 0, 3, 6, 92):
        assert hadamard_plan(order) is None
    # 39 is no prime power and 19 = 3 mod 4, so 40 is the product 2 * 20
    assert hadamard_plan(40)[1] == (2, 20)
    assert np.array_equal(hadamard(40),
                          normalize(kronecker(hadamard(2), hadamard(20))))


def test_sylvester_small():
    assert sylvester(0).tolist() == [[1]]
    assert sylvester(1).tolist() == [[1, 1], [1, -1]]
    H = sylvester(3)
    assert H.shape == (8, 8)
    assert is_hadamard(H)
    with pytest.raises(BadOrder):
        sylvester(-1)


def test_every_multiple_of_four_up_to_cap_is_supported():
    orders = supported_orders()
    assert orders == [1, 2] + list(range(4, MAX_SEARCH_ORDER + 1, 4))


def test_hadamard_exactness_all_supported_orders():
    for order in supported_orders():
        H = hadamard(order)
        assert H.shape == (order, order)
        assert np.array_equal(H @ H.T, order * np.eye(order, dtype=np.int64))


def test_hadamard_is_normalized():
    for order in (4, 12, 20, 36):
        H = hadamard(order)
        assert (H[0] == 1).all() and (H[:, 0] == 1).all()


def test_hadamard_rejects_bad_orders():
    with pytest.raises(BadOrder):
        hadamard(0)
    with pytest.raises(Unsupported):
        hadamard(3)
    with pytest.raises(Unsupported):
        hadamard(6)


def test_hadamard_results_are_frozen():
    H = hadamard(4)
    with pytest.raises(ValueError):
        H[0, 0] = -1


def test_paley_constructions():
    assert is_hadamard(paley_type1(11))  # order 12
    assert is_hadamard(paley_type1(27))  # GF(3^3), order 28
    assert is_hadamard(paley_type2(5))  # order 12
    assert is_hadamard(paley_type2(13))  # order 28
    with pytest.raises(BadOrder):
        paley_type1(5)  # 5 = 1 mod 4
    with pytest.raises(BadOrder):
        paley_type2(7)  # 7 = 3 mod 4
    with pytest.raises(BadOrder):
        paley_type1(15)  # not a prime power

def _reference_chi(q):
    """chi over GF(q) by the former polynomial routines: the modulus is the
    first monic irreducible of degree k, its lower coefficients walked in
    itertools.product order and tested by trial division, and each square
    is a schoolbook product reduced modulo it.  For k = 1 the modulus is x,
    which leaves the products a * a % p alone."""
    p, k = hm._prime_power(q)

    def mod(a, m):
        a = list(a)
        while len(a) >= len(m):
            c, base = a[-1], len(a) - len(m)
            for i in range(len(m)):
                a[base + i] = (a[base + i] - c * m[i]) % p
            a.pop()
        return a

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    def irreducible(f):
        return all(any(mod(f, list(c) + [1]))
                   for d in range(1, k // 2 + 1)
                   for c in itertools.product(range(p), repeat=d))

    modulus = next(f for f in (list(c) + [1] for c in
                               itertools.product(range(p), repeat=k))
                   if irreducible(f))
    digits = [[x // p**i % p for i in range(k)] for x in range(q)]
    squares = {sum(d * p**i for i, d in enumerate(mod(mul(a, a), modulus)))
               for a in digits[1:]}
    return [0] + [1 if x in squares else -1 for x in range(1, q)]


def test_field_matches_the_polynomial_reference():
    # the modulus fixes chi, and chi fixes the seeds of order 28, 52, 100, ...
    qs = [q for q in range(2, 2200) if hm._prime_power(q)]
    assert len(qs) == 360 and 2048 in qs and 2187 in qs
    for q in qs:
        p, k = hm._prime_power(q)
        digits, chi = hm._field(q)
        assert chi.tolist() == _reference_chi(q), q
        assert np.array_equal(digits @ p ** np.arange(k), np.arange(q))
        assert digits.shape == (q, k) and digits.min() >= 0
        assert digits.max() == p - 1
        assert not digits.flags.writeable and not chi.flags.writeable
    with pytest.raises(BadOrder):
        hm._field(12)


# sha256 of each seed's int64 bytes, recorded before GF(q) was built by
# _field; every Paley seed here, over a prime or an extension field, is
# pinned, not only its Hadamard property
SEED_SHA256 = {
    1: "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
    2: "44e41c721ef7ad53582de3a2470e7bf6e74ea4471f54c42469817ef5844da195",
    4: "aa60fb6df530078eac7046de94dd6acfaf67c83ac155f77ae6b06e308b528d22",
    8: "5d6b6ffc8a5aca0cce07fe3aa8a0722a8bef21e28805479246232aa17a5c2abb",
    12: "931245cf933e176ea1fd7a61472ad000f4f544df300ae718987b0328b71579f3",
    16: "a5d51a9007b290d37bd4ccd9a09e3c26c630bc5b0d5ee68ae24aa231d34af08e",
    20: "4518effd48a16734d99da3206e06ef6b6f9beb3a715b522dbd426bd3984a2852",
    24: "a76e81d047d7ff60c0881dd7bb0e4c6bdbd279c8e86b13e3bc754e4885c9da7b",
    28: "5be27eefab5b96002b80f065bb3c979bf016992808db9ba5f5ce3ff3feee68d5",
    32: "9d00b9c44ffc2bdd4ca515c288c0d35792ff13ba8079da005eea47945b528e3c",
    36: "47de7a526de61ad297532d7b42fb3adecdfdc92c8ef0763f71f84eed1f02d62f",
    40: "c9b747e92384541da6588d298d3533ed20861174eb3465c9650ab431a471b53d",
    44: "a15032676944894b5cff9982705639f64898628a465f500c8998ce7ebdb5cb3d",
    48: "d5d736cce4255e87bd07bc55d690be6e8ba855c9e81381ceba87083661bfa01b",
    52: "44e296e19402dfe80842476d2eaac7e7ad5a7baa76eeeb2d8a5a28e7373c1fd1",
    56: "05219e2b5b402d5687f6ba7c13f39a97cf347880c6f236eb24fabdbcae688633",
    60: "9652b597fdc984b01f99bf107200f5c85fedbbf1b80fed1dff0fdd3d9f1f6240",
    64: "67fe2a14a770214051e461d29c2f444256ea9f5208f251ce70b8a506fc851299",
    68: "cd15ed6298103fb6651b286370a2861ee6ce43215763f1b7a99962cb7eddadbe",
    72: "3d2c084e26e604ec5f548d080c5a63d4aed9141a59b0c8eb14f2b95eacfb497e",
    76: "5241781977f1b9ec8c6d9166551349aa1c190a4fa21c3150daf6c054c3bfb51e",
    80: "fcfcc1de3c6dd43e91e8e3822d9172f7ecde000a22d6d6305004955a6486be51",
    84: "bf7778d3446dce39824c315ee654ead365e6fec02af4edd8de0d5a16c926d5ca",
    88: "a2fce76771ff37e0f52eb0b2a8666116f96fad736fe0c11d1c6f11a362c13aa6",
    96: "82126a11eeb745f32038125b5a32650546da567c67e402e0b7a5e8fbade39605",
    100: "cbb2196db9ddb4aba9ebd7f83de5e9e71ed175d49b907d217c02738bbb68b789",
    104: "5b884562b2d91da6f0207dd7167d72a084aa7e0dc1198ba9f8217deca5677897",
    108: "6e72a3fb0c3a9aeae54dd5afcbb0c360b8b0431077f7ca3a10f3cc11e6fe76d8",
    112: "844a2cf5175e29cf5c1f0ff68f7e431449ecb3649bb9e8b3ca369b16930b0918",
    120: "8d4db89646a4f16c54033b8e1411b34bae448f7985eaf74e73b7613973741145",
    124: "161c3225d4c621e4c3bea3146009a93cd4cd0e91c859475fdee40f8e4b1afc08",
    128: "6b31409aba25a3616864f856e0b474898afba9b97cee7461e56479b239c12342",
    132: "5a99a89bcfeff94d254b5b0fbfc5f13088e873e944240efac6eba122c41d03b5",
    136: "7376b9e91a9720ac5470629ebb4e70c35eda06460665b391c12d0027540a6a39",
    140: "b6fefa6fc014a6070e0a7f6af4ba3071db82562d0de1c3529ead240bd5d154e8",
    144: "62637c392d7412c1dbfc7e4e6766c9b04b0f90881a1ba5de4793e5a207c26f2b",
    148: "5124e989e3da1c7fc4a823bfb39f39b9636b110dae5e3fef8e260e55b53e9cde",
    152: "8cc0f39e2f0dd4f7c359e2d115617a697c7890d28140ee1135d33db16a4e29f5",
    160: "35ddc96a5fa7f865941047dbb6b8b42e12ebc3a1167f5d711ed44c659ec9b8ed",
    164: "96cac49fc34f716aed81708b0b66592e1323f0d48909cb595b4b24994b81003f",
    168: "7f968216a0ff2080c170a4e08b56f22ff6377b049ed65c4b16729de69dd48c9b",
    176: "b273ed63fa811eafc14903be9b0bd1299a53a6ff33ce3979fbad3b5a0da5e063",
    180: "ac0904704b98185c3339aba304a775c34e38447ae695438028be9fb2239566d4",
    192: "12aea996125e49791723cc2fe02b57d206b8f1a97210019c64c6c3f8f1db6770",
    196: "0ba10aab05845f0125c6538211977b7c85431f2ff279bad30256f8f6fee55d19",
    200: "adfffa8c44c015c0848575e3ea8b8a473f0f830b292be97aa15953fd62765435",
    204: "08af51fed58368d09537ecbc08ea301289901d89e3faafb825d19939aad5aba8",
    208: "ae0343b867d34f9e3ca952e3e9fddf868b5d5b3ca9cea0c71e850cdf97d79169",
    212: "dc5d105d85188ebe8cafe72fc814486b356c39c5180f6c5345fa4583f5b43ccf",
    216: "8e64f66660f414e6710ff7bb60aac6e5e510ebfe8f5e35936490aa150df7eba2",
    220: "6f4b12598e2bc5345952ba6a14ebc0d4a2351ded4151ac88617517c6e636ee5c",
    224: "3394c39ca27cde52ff99a6370309f969bc467927710d263c51643e80cc976921",
    228: "4fe53db332beec0fccd77d1cfc69cf8538317b9f4e69a489c10b8ec7a557022d",
    240: "9e29a3d4e4401c2472d570c48a6913fe1b1391bb7cf989864fd4fec165543883",
    244: "d4d20cc8fad4a8ed8557a1006d325f4c26459bca4ac2a595d27bb8f0beadd0e0",
    248: "282d4ee0fbf001266878795eb86f2afb083ff019eb8c0ed1d5a02880af92ae0e",
    252: "aa8e1962dd3d6fbb35b7604ce8edee5b8ee27eae60e0b6a657ba89415316a0ce",
    256: "772001dfd891fd7d34e191d82cc0ec5303bceda2860790b1399eb550aa9e061b",
}


def test_seed_bytes_are_pinned():
    assert sorted(SEED_SHA256) == supported_orders(256)
    for order, digest in SEED_SHA256.items():
        H = np.ascontiguousarray(hadamard(order), dtype="<i8")
        assert hashlib.sha256(H.tobytes()).hexdigest() == digest, order


def test_kronecker_product_of_hadamards():
    H = kronecker(hadamard(2), hadamard(6 * 2))
    assert is_hadamard(H)
    assert H.shape == (24, 24)


def test_is_hadamard_negatives():
    assert not is_hadamard(np.ones((2, 2)))
    assert not is_hadamard(np.array([[1, 1, 1], [1, -1, 1]]))
    assert not is_hadamard(np.array([[2, 1], [1, -2]]))


def test_is_hadamard_negatives_on_the_blas_path():
    # order 256 is past the small-product cut of int_product
    H = sylvester(8)
    flipped = H.copy()
    flipped[17, 200] *= -1
    assert not is_hadamard(flipped)
    duplicated = H.copy()
    duplicated[255] = duplicated[3]
    assert not is_hadamard(duplicated)
    two = H.copy()
    two[40, 41] = 2
    assert not is_hadamard(two)


def test_is_hadamard_accepts_views_and_floats():
    H = sylvester(8)
    assert is_hadamard(H.T)
    assert is_hadamard(np.hstack([H, H])[:, 256:])
    assert is_hadamard(H.astype(float))


def _reference_is_hadamard(M) -> bool:
    H = np.asarray(M, dtype=np.int64)
    nu = H.shape[0]
    return bool(np.array_equal(H @ H.T, nu * np.eye(nu, dtype=np.int64)))


@settings(max_examples=12, deadline=None)
@given(order=st.sampled_from([nu for nu in supported_orders(256) if nu >= 128]),
       seed=st.integers(0, 2**32 - 1), flips=st.integers(0, 3))
def test_is_hadamard_matches_int64_reference(order, seed, flips):
    """Random +-1 matrices, and Hadamard ones under signed permutations
    with up to two flipped entries, agree with the plain int64 check."""
    rng = np.random.default_rng(seed)
    if flips == 3:
        M = rng.choice(np.array([-1, 1]), size=(order, order))
    else:
        signs = rng.choice(np.array([-1, 1]), size=order)
        M = (hadamard(order) * signs)[rng.permutation(order)]
        for _ in range(flips):
            M[rng.integers(order), rng.integers(order)] *= -1
    assert is_hadamard(M) == _reference_is_hadamard(M)
    if flips == 0:
        assert is_hadamard(M)


def test_normalize():
    H = hadamard(4).copy()
    H[1] *= -1
    M = normalize(H)
    assert (M[0] == 1).all() and (M[:, 0] == 1).all()
    assert is_hadamard(M)
    with pytest.raises(NotHadamard):
        normalize(np.ones((3, 3)))


def test_zero_one_maps_plus_to_one():
    assert zero_one(np.array([[1, -1], [-1, 1]])).tolist() == [[1, 0], [0, 1]]


def test_least_hadamard_order():
    assert least_hadamard_order(1) == 1
    assert least_hadamard_order(2) == 2
    assert least_hadamard_order(3) == 4
    assert least_hadamard_order(5) == 8
    assert least_hadamard_order(9) == 12
    assert least_hadamard_order(13) == 16
    with pytest.raises(BadOrder):
        least_hadamard_order(0)


def test_order_cap_bounds_searches_not_construction():
    # 63 factors is the widest design verify accepts
    assert MAX_SEARCH_ORDER == 64
    assert least_hadamard_order(63) == 64
    with pytest.raises(Unsupported):
        least_hadamard_order(65)
    assert supported_orders(16) == [1, 2, 4, 8, 12, 16]
    # direct construction stays available past the search cap
    assert hadamard(128).shape == (128, 128)


def _count_calls(monkeypatch, name):
    """Wrap hadamard-module function `name`; returns the list of its
    first arguments, one per call."""
    calls = []
    original = getattr(hm, name)

    def counted(arg):
        calls.append(arg)
        return original(arg)
    monkeypatch.setattr(hm, name, counted)
    return calls


def test_positive_columns_are_sylvester_characters(monkeypatch):
    rng = np.random.default_rng(2048)
    orders = [1 << k for k in range(12)]  # every power of 2 up to 2048
    dense = {nu: zero_one(hadamard(nu)) for nu in orders}
    built = _count_calls(monkeypatch, "hadamard")
    checked = _count_calls(monkeypatch, "is_hadamard")
    for nu in orders:
        assert is_sylvester(nu)
        for _ in range(5):
            cols = rng.choice(nu, size=rng.integers(1, min(nu, 16) + 1),
                              replace=False)
            got = positive_columns(nu, cols)
            assert got.dtype == bool and got.shape == (nu, len(cols))
            assert np.array_equal(got, dense[nu][:, cols] == 1)
    assert built == [] and checked == []  # no matrix, no H H' check


def test_positive_columns_of_other_orders_slice_the_checked_matrix(
        monkeypatch):
    rng = np.random.default_rng(40)
    built = _count_calls(monkeypatch, "hadamard")
    for nu in (12, 20, 24, 28, 40):
        assert not is_sylvester(nu)
        cols = rng.choice(nu, size=6, replace=False)
        assert np.array_equal(positive_columns(nu, cols),
                              zero_one(hadamard(nu))[:, cols] == 1)
    assert built == [12, 20, 24, 28, 40]
    with pytest.raises(BadOrder):
        positive_columns(0, [0])
    with pytest.raises(Unsupported):
        positive_columns(6, [0])
