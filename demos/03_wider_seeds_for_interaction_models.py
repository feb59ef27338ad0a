"""Why interaction-model seeds sometimes need to be wider than n.

The interaction-model constructions pick n columns of a two-level seed
array of width 2^alpha and fold it with generators.  An effect pair stays
balanced exactly when the seed columns indexed by the symmetric
difference of the two effects do not XOR to zero.  With the default
minimal seed (2^alpha just reaching n) some pairs do XOR to zero, the two
contrast rows collapse onto each other, and the design cannot separate
the effects no matter how the rows are ordered.  Certification catches
this.  Choosing the columns so the relevant XOR combinations are all
nonzero restores optimality at the cost of a wider (heavier) seed.

coset_columns gives the least such width and its columns: group 2's
columns must be affinely independent, spanning a space E of dimension
n-r-1, and each group-1 factor needs its own coset of E.  Shown below for
the one-factor family on six factors (r = 1) and the grouped family on
four factors.
"""

from chogen import (ModelSpec, coset_columns, effect, eta_counts,
                    specified_design, verify)


def report_line(design, model):
    r = verify(design, model)
    tag = r.verdict.value
    if r.offending_count:
        tag += f", {r.offending_count} aliased pairs"
    return f"N={design.N}: {tag}, trace {r.trace} (bound {r.trace_bound})"


def main():
    # one-factor family: mains plus every interaction containing factor 1
    model6 = ModelSpec.specified_one_factor(6)

    bad = specified_design(6, 4)
    print("six factors, default width-8 seed, columns 1..6")
    print(" ", report_line(bad, model6))

    # the pair F1 x F1.3.4.5.6 differs in factors {3,4,5,6}; the default
    # seed columns for those factors XOR to zero, so the pair is pure
    # concordance: every component pair pushes the same way
    plus, minus = eta_counts(bad, effect(1), effect(1, 3, 4, 5, 6))
    print(f"  F1 vs F1.3.4.5.6: eta+={plus}, eta-={minus}")

    alpha, cols = coset_columns(6, 1, 4)
    good = specified_design(6, 4, order=1 << alpha, columns=cols)
    print(f"six factors, width-{1 << alpha} seed, columns {cols}")
    print(" ", report_line(good, model6))
    print()

    # grouped family: factors {1,2} crossed with {3,4}; the width-4 seed
    # has columns XORing to zero across the whole factor set, which this
    # model's effect pairs do hit (the one-factor family on four factors
    # happens to dodge it)
    model4 = ModelSpec.specified_group(4, 2)

    bad4 = specified_design(4, 4, r=2)
    print("four factors in groups {1,2}x{3,4}, default width-4 seed")
    print(" ", report_line(bad4, model4))
    plus, minus = eta_counts(bad4, effect(1), effect(2, 3, 4))
    print(f"  F1 vs F2.3.4: eta+={plus}, eta-={minus}")

    alpha4, cols4 = coset_columns(4, 2, 4)
    good4 = specified_design(4, 4, r=2, order=1 << alpha4,
                             columns=cols4)
    print(f"four factors, width-{1 << alpha4} seed, columns {cols4}")
    print(" ", report_line(good4, model4))


if __name__ == "__main__":
    main()
