"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with -s (or -rA) to see the lines for passing criteria too.
"""

import itertools
import random
from fractions import Fraction
from time import perf_counter

import numpy as np

from chogen.catalog import (EXPECTED_DEVIATIONS, TABLE1, TABLE_NS, CellStatus,
                            candidate_recipes, reproduce_table1)
from chogen.constructions import (build, foldover_pair_design,
                                  single_set_design, specified_design,
                                  theorem1_design, theorem2_design)
from chogen.contrasts import (contrast_vector, cross_block_star, cstar_matrix,
                              effective_position, info_matrix, lambda_star)
from chogen.designs import (ChoiceDesign, all_treatments, complement,
                            equivalent, lex_index)
from chogen.errors import ChogenError
from chogen.hadamard import hadamard, supported_orders
from chogen.models import ModelKind, ModelSpec, effect, main_effect_list
from chogen.optimality import (Verdict, eta_counts, max_trace, np_counts,
                               oracle_cstar, verify)
from conftest import random_design
from test_constructions import (DIRECT_ADD_SETS, FOLDOVER_SETS, GEN6_SETS,
                                GENERATORS_8, SINGLE_SET, SPEC_ALL_SETS,
                                SPEC_GROUP_SETS)


def _check(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _all_effects(n):
    pool = range(1, n + 1)
    return tuple(effect(*c) for r in pool
                 for c in itertools.combinations(pool, r))


def test_criterion_1_reference_designs():
    t0 = perf_counter()
    gen6 = ChoiceDesign.from_sets(GEN6_SETS)
    gen5 = ChoiceDesign.from_sets(s[:5] for s in GEN6_SETS)
    gen5_full = ChoiceDesign(gen5.sets + complement(gen5).sets)
    spec_all_F = (effect(1), effect(2), effect(3), effect(4),
                  effect(1, 2), effect(1, 3), effect(1, 4),
                  effect(1, 2, 3), effect(1, 3, 4), effect(1, 2, 3, 4))
    cases = (
        ("generator m=6", theorem1_design(8, 6, generators=GENERATORS_8),
         gen6, True, ModelSpec.broader_main_effects(8)),
        ("generator m=5", theorem1_design(8, 5, generators=GENERATORS_8),
         gen5_full, True, ModelSpec.broader_main_effects(8)),
        ("single set", single_set_design(4, order=4),
         ChoiceDesign.from_sets([SINGLE_SET]), True,
         ModelSpec.broader_main_effects(4)),
        ("foldover pair", foldover_pair_design(3, order=4),
         ChoiceDesign.from_sets(FOLDOVER_SETS), False,
         ModelSpec.broader_main_effects(3)),
        ("direct addition", theorem2_design(5, 4),
         ChoiceDesign.from_sets(DIRECT_ADD_SETS), False,
         ModelSpec.broader_main_effects(5)),
        ("one-factor interactions", specified_design(4, 4, order=4),
         ChoiceDesign.from_sets(SPEC_ALL_SETS), False,
         ModelSpec.custom(4, spec_all_F)),
    )
    problems = []
    for name, built, reference, exact, model in cases:
        if exact and built.sets != reference.sets:
            problems.append(f"{name}: bit-for-bit mismatch")
        if not exact and not equivalent(built, reference):
            problems.append(f"{name}: canonical mismatch")
        report = verify(built, model)
        if not (report.certified and report.diagonal
                and report.trace == report.trace_bound):
            problems.append(f"{name}: {report.summary()}")
        if model.Q == 10 and report.trace != Fraction(10, 16):
            problems.append(f"{name}: trace {report.trace} != 10/16")
    # The group-interaction reference design reproduces bit-for-bit but its
    # recorded optimality claim cannot hold: all eight options it uses have
    # even weight, so the four-factor contrast is constant on the support and
    # F1 is aliased with F2.3.4 (likewise F2/F1.3.4, F1.3/F2.4, F1.4/F2.3).
    # Balance and the trace bound are still met.  The exact aliasing
    # signature is pinned here; the recorded claim itself is asserted, and
    # honestly fails, in test_criterion_1_group_example_claim below.
    group = specified_design(4, 4, r=2, order=4)
    if not equivalent(group, ChoiceDesign.from_sets(SPEC_GROUP_SETS)):
        problems.append("group interactions: canonical mismatch")
    greport = verify(group, ModelSpec.specified_group(4, 2))
    aliased = {(e1, e2, ep, em) for e1, e2, ep, em in greport.offending_pairs}
    expected_aliased = {
        (effect(1), effect(2, 3, 4), 16, 0),
        (effect(2), effect(1, 3, 4), 16, 0),
        (effect(1, 3), effect(2, 4), 16, 0),
        (effect(1, 4), effect(2, 3), 16, 0),
    }
    if not (greport.balance_ok
            and greport.trace == greport.trace_bound == Fraction(10, 16)
            and greport.verdict is Verdict.NOT_CONNECTED
            and aliased == expected_aliased):
        problems.append(f"group interactions: {greport.summary()}")
    dt = perf_counter() - t0
    ok = not problems and dt < 1.0
    _check("criterion 1 (reference designs)", ok,
           problems[0] if problems else
           "7 designs reproduced, 6 certified with trace=bound exactly; the "
           "group example matches its known four-pair aliasing signature, "
           f"{dt:.2f}s")


def test_criterion_1_group_example_claim():
    """Recorded optimality claim for the group-interaction reference design.

    The reference records this design as universally optimal for its
    ten-effect family.  That cannot hold on this support: every option the
    design uses has even weight, so the four-factor contrast is constant
    over it and F1 is indistinguishable from F2.3.4 (likewise F2/F1.3.4,
    F1.3/F2.4, F1.4/F2.3); C* carries off-diagonal 64s where the claim
    needs zeros.  This test states the recorded claim as-is and therefore
    fails.  Every property the design does have (bit-for-bit reproduction,
    balance, trace equal to the bound, the exact aliasing signature) is
    asserted and green in test_criterion_1_reference_designs; the group
    model certifies from an eight-row seed instead, pinned in the
    construction tests.
    """
    report = verify(specified_design(4, 4, r=2, order=4),
                    ModelSpec.specified_group(4, 2))
    confounded = ", ".join(f"{e1}~{e2}" for e1, e2, _, _ in
                           report.offending_pairs)
    _check("criterion 1 (group example recorded claim)", report.certified,
           "recorded as certified UniversallyOptimal, but the design "
           f"aliases {confounded} exactly (even-weight support), "
           f"verdict {report.verdict.value}")


def test_criterion_2_table_reproduction():
    t0 = perf_counter()
    report = reproduce_table1()
    dt = perf_counter() - t0
    uncertified = [e for e in report.entries
                   if e.status is not CellStatus.BLANK_CELL and not e.certified]
    alpha1 = [e for e in report.entries
              if e.kind is ModelKind.SPECIFIED_ONE_FACTOR and e.n == 2
              and e.status is not CellStatus.BLANK_CELL]
    ok = (report.deviations_expected and not uncertified
          and all(e.recipe.alpha == 1 for e in alpha1)
          and dt < 2.0)
    _check("criterion 2 (reference table)", ok,
           f"{report.checked_count} cells, {report.match_count} match, "
           f"{report.mismatch_count} documented deviations "
           f"(expected {len(EXPECTED_DEVIATIONS)}), {dt:.1f}s")


def test_criterion_3_oracle_equivalence():
    rng = random.Random(31415926)
    trials = 120
    for _ in range(trials):
        n = rng.randint(1, 4)
        m = rng.randint(2, min(4, 1 << n))
        N = rng.randint(1, 6)
        d = random_design(rng, n, m, N)
        F = _all_effects(n)
        assert cstar_matrix(d, F) == oracle_cstar(d, F)
    _check("criterion 3 (oracle equivalence)", True,
           f"{trials} random designs, matrix path == pairwise path exactly")


def test_criterion_4_exhaustive_tiny_scale():
    t0 = perf_counter()
    model = ModelSpec.main_effects(2)
    bound = max_trace(2, 2, 2)
    assert bound == Fraction(1, 2)
    pool = list(itertools.combinations(all_treatments(2), 2))
    assert len(pool) == 6
    total = 0
    certified = set()
    should_be = set()
    for N in (1, 2, 3):
        for sets in itertools.combinations_with_replacement(pool, N):
            d = ChoiceDesign.from_sets(sets)
            report = verify(d, model)
            assert report.trace <= bound
            total += 1
            if report.certified:
                certified.add(sets)
            C = cstar_matrix(d, model.interest)
            if C.is_diagonal() and C.trace() == bound:
                should_be.add(sets)
    dt = perf_counter() - t0
    ok = certified == should_be and dt < 5.0
    _check("criterion 4 (exhaustive n=2, m=2, N<=3)", ok,
           f"{total} designs, trace <= 1/2 everywhere, "
           f"{len(certified)} optimal = diagonal-with-max-trace set, {dt:.2f}s")


def test_criterion_5_property_suites():
    # contrast / effective-position duality, exhaustively to n = 6
    pairs = 0
    for n in range(1, 7):
        ts = all_treatments(n)
        for e in _all_effects(n):
            v = contrast_vector(e, n)
            for T in ts:
                assert v[lex_index(T)] == 2 * effective_position(T, e) - 1
                pairs += 1

    rng = random.Random(27182818)
    designs = []
    for _ in range(20):
        n = rng.randint(1, 3)
        m = rng.randint(2, min(4, 1 << n))
        designs.append(random_design(rng, n, m, rng.randint(1, 5)))

    # Lambda*: symmetric with zero row sums, exactly
    for d in designs:
        L = lambda_star(d).ints
        assert np.array_equal(L, L.T)
        assert not L.sum(axis=1).any()

    # complement is an involution
    for d in designs:
        assert complement(complement(d)) == d

    # Hadamard exactness for every supported order up to 32
    orders = supported_orders(32)
    for order in orders:
        H = hadamard(order)
        assert np.array_equal(H @ H.T, order * np.eye(order, dtype=np.int64))

    # C* entries against the pair counts of the counting identities
    for d in designs:
        F = _all_effects(d.n)
        C = cstar_matrix(d, F).ints
        for q1 in range(len(F)):
            zeros = np_counts(d, F[q1])
            assert C[q1, q1] == sum(4 * z * (d.m - z) for z in zeros)
            for q2 in range(q1 + 1, len(F)):
                ep, em = eta_counts(d, F[q1], F[q2])
                assert C[q1, q2] == 4 * (ep - em)

    _check("criterion 5 (property suites)", True,
           f"duality on {pairs} effect/treatment pairs, Lambda* and "
           f"complement and counting identities on 20 designs, "
           f"{len(orders)} Hadamard orders exact")


def test_criterion_6_broader_cross_block():
    built = 0
    for m in TABLE1[ModelKind.BROADER_MAIN_EFFECTS]:
        for n in TABLE_NS:
            for recipe in candidate_recipes(
                    ModelKind.BROADER_MAIN_EFFECTS, m, n):
                try:
                    d = build(recipe)
                except ChogenError:
                    continue
                X = cross_block_star(d, recipe.model.interest,
                                     recipe.model.nuisance)
                assert not X.any(), f"nonzero cross block for {recipe.describe()}"
                built += 1

    # the deliberately non-optimal single set (00, 11): the numeric
    # reduced-matrix branch must run and cannot gain information
    d_bad = ChoiceDesign.from_sets([("00", "11")])
    model = ModelSpec.broader_main_effects(2)
    assert not verify(d_bad, model).certified
    C2 = info_matrix(d_bad, model, force_numeric=True)
    assert isinstance(C2, np.ndarray) and C2.dtype == float
    C1 = cstar_matrix(d_bad, main_effect_list(2))
    gap = np.trace(C2) - float(C1.trace())
    assert gap <= 1e-9

    # and on a design whose cross block is nonzero the branch runs unforced
    d_cross = ChoiceDesign.from_sets([("00", "01")])
    C2 = info_matrix(d_cross, model)
    assert isinstance(C2, np.ndarray)
    C1 = cstar_matrix(d_cross, main_effect_list(2))
    assert np.trace(C2) <= float(C1.trace()) + 1e-9

    _check("criterion 6 (broader cross block)", True,
           f"{built} construction outputs with exactly zero cross block; "
           f"numeric reduced matrix loses {-gap:.1e} >= 0 trace on (00,11)")
