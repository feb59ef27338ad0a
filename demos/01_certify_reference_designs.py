"""Build the bundled reference designs and certify each one exactly.

Every design below is constructed from its recipe, printed, and passed
through verify(), which computes the information matrix in exact integer
arithmetic and checks the three optimality conditions (diagonal C, effect
balance, trace equal to the bound).  Six of the seven certify; the last
one is a known aliased case and is shown as it really is, together with
the wider seed that fixes it.
"""

from chogen import (ModelSpec, bits_string, coset_columns,
                    foldover_pair_design, single_set_design, specified_design,
                    theorem1_design, theorem2_design, verify)


def show(title, design, model):
    print(f"== {title} ==")
    for p, s in enumerate(design.sets, start=1):
        print(f"  set {p}: ({', '.join(bits_string(t) for t in s)})")
    report = verify(design, model)
    print("  " + report.summary().replace("\n", "\n  "))
    print()
    return report


def main():
    show("generator design, 8 factors, sets of 6",
         theorem1_design(8, 6, generators=("11100000", "00000011")),
         ModelSpec.broader_main_effects(8))

    show("generator design, 8 factors, sets of 5 (half plus complement)",
         theorem1_design(8, 5, generators=("11100000", "00000011")),
         ModelSpec.broader_main_effects(8))

    show("single-set design, 4 factors, one set of 8",
         single_set_design(4, order=4),
         ModelSpec.broader_main_effects(4))

    show("foldover pair, 3 factors, sets of 4",
         foldover_pair_design(3, order=4),
         ModelSpec.broader_main_effects(3))

    show("direct-addition design, 5 factors, sets of 4",
         theorem2_design(5, 4),
         ModelSpec.broader_main_effects(5))

    show("one-factor interaction design, 4 factors, sets of 4",
         specified_design(4, 4, order=4),
         ModelSpec.specified_one_factor(4))

    # The width-4 group design is listed as optimal for its ten-effect
    # family, but all eight options it uses have even weight, so the
    # four-factor contrast is constant on its support: F1 is aliased with
    # F2.3.4, F2 with F1.3.4, F1.3 with F2.4 and F1.4 with F2.3.  verify()
    # reports exactly that.
    show("group interaction design, 4 factors, width-4 seed (aliased)",
         specified_design(4, 4, r=2, order=4),
         ModelSpec.specified_group(4, 2))

    # coset_columns gives the least seed that restores estimability: group
    # 2's two columns span a line E, factors 1 and 2 need two cosets of E
    # besides group 2's own, so width 8 and twice the number of sets.
    alpha, columns = coset_columns(4, 2, 4)
    show(f"group interaction design, 4 factors, width-{1 << alpha} seed",
         specified_design(4, 4, r=2, order=1 << alpha, columns=columns),
         ModelSpec.specified_group(4, 2))


if __name__ == "__main__":
    main()
