"""Known results the independent certifier must reproduce.

Run with `python3 -m pytest perfbench/test_certifier.py`; needs no chogen.
"""

import numpy as np

import certifier

# The width-4 group-interaction reference design (N=4, m=4, n=4).
GROUP_SETS = [
    ["1111", "0000", "0011", "1100"],
    ["1010", "0101", "0110", "1001"],
    ["1100", "0011", "0000", "1111"],
    ["1001", "0110", "0101", "1010"],
]

# The broader-model generator design, m=6, n=8, generators 11100000 and
# 00000011 on the order-8 Sylvester seed.
GEN6_SETS = [
    ["11111111", "00000000", "00011111", "11100000", "11111100", "00000011"],
    ["10101010", "01010101", "01001010", "10110101", "10101001", "01010110"],
    ["11001100", "00110011", "00101100", "11010011", "11001111", "00110000"],
    ["10011001", "01100110", "01111001", "10000110", "10011010", "01100101"],
    ["11110000", "00001111", "00010000", "11101111", "11110011", "00001100"],
    ["10100101", "01011010", "01000101", "10111010", "10100110", "01011001"],
    ["11000011", "00111100", "00100011", "11011100", "11000000", "00111111"],
    ["10010110", "01101001", "01110110", "10001001", "10010101", "01101010"],
]


def _report(sets, family, r=None):
    options, n = certifier.parse_sets(sets)
    return certifier.certify(options, n, family, r)


def test_group_reference_design_is_not_connected_with_four_aliased_pairs():
    rep = _report(GROUP_SETS, "spec-group", r=2)
    assert rep.balanced and rep.trace == rep.bound
    assert {(a, b) for a, b, _ in rep.aliased} == {
        ("F1", "F2.3.4"), ("F2", "F1.3.4"), ("F1.3", "F2.4"), ("F1.4", "F2.3")}
    assert all(v == 64 for _, _, v in rep.aliased)
    assert rep.verdict() == certifier.NOT_CONNECTED


def test_broader_generator_design_certifies():
    rep = _report(GEN6_SETS, "broader")
    assert rep.optimal and rep.cross_zero is True
    assert rep.trace == rep.bound == certifier.trace_bound(8, 8, 6)
    assert rep.verdict() == certifier.UNIVERSALLY_OPTIMAL


def test_broader_two_factor_pair_does_not_certify():
    rep = _report([["00", "11"]], "broader")
    assert not rep.optimal
    assert rep.aliased == [("F1", "F2", 4)]
    assert rep.verdict() == certifier.NOT_CONNECTED


def test_walsh_gram_matches_direct_signs():
    rng = np.random.default_rng(7)
    n, m = 6, 3
    options = np.array([rng.choice(1 << n, m, replace=False) for _ in range(9)])
    masks, _ = certifier.effect_masks("spec-all", n)
    X = np.stack([[[(-1) ** (bin(e).count("1") + bin(e & t).count("1"))
                    for t in row] for row in options] for e in masks])
    s = X.sum(axis=2)
    flat = X.reshape(len(masks), -1)
    direct = m * flat @ flat.T - s @ s.T
    signs = certifier._Signs(options, n)
    assert np.array_equal(signs.block(tuple(masks), tuple(masks)), direct)


def test_rank_mod_matches_known_ranks():
    M = np.array([[2, 4, 6], [1, 2, 3], [0, 1, 1]])
    assert certifier.exact_rank(M) == 2
    assert certifier.exact_rank(np.eye(5, dtype=np.int64) * 3) == 5
