"""Universally optimal two-level choice designs, built and certified exactly.

The package constructs choice designs for main-effects, broader
main-effects, and main-plus-specified-interaction models on n two-level
factors, computes their information matrices in exact arithmetic, and
certifies universal optimality against the trace bound.
"""

from . import errors
from .catalog import (EXPECTED_DEVIATIONS, TABLE1, CatalogEntry, CellStatus,
                      Table1Report, candidate_recipes, catalog_lookup,
                      reproduce_table1)
from .constructions import (ConstructionRecipe, build, coset_columns,
                            default_generators, foldover_pair_design,
                            hadamard_single_set_design, single_set_design,
                            specified_design, theorem1_design,
                            theorem1_main_design, theorem2_design,
                            theorem2_half_design, validate_generators)
from .contrasts import (ScaledIntMatrix, contrast_matrix, contrast_vector,
                        cross_block_star, cstar_matrix, effective_choice_set,
                        effective_position, exact_schur_cstar, info_matrix,
                        lambda_star, option_sign_matrix, pair_contribution)
from .designs import (ChoiceDesign, add_generator, all_treatments,
                      bits_string, canonical_design, complement, direct_add,
                      equivalent, lex_index, make_choice_set, treatment,
                      truncate_factors)
from .hadamard import (is_hadamard, kronecker, least_hadamard_order,
                       normalize, paley_type1, paley_type2, supported_orders,
                       sylvester, zero_one)
from .models import (FactorialEffect, ModelKind, ModelSpec, effect,
                     main_effect_list, two_factor_list)
from .optimality import (OptimalityReport, Verdict, eta_counts, max_trace,
                         np_counts, oracle_cstar, verify)
from .serialization import (design_from_dict, design_to_csv, design_to_dict,
                            dumps, load, loads, save, save_csv)

__version__ = "0.1.0"

__all__ = [
    "errors", "__version__",
    # designs
    "ChoiceDesign", "treatment", "bits_string", "lex_index",
    "all_treatments", "make_choice_set", "complement", "add_generator",
    "direct_add", "truncate_factors", "canonical_design", "equivalent",
    # models
    "FactorialEffect", "effect", "ModelKind", "ModelSpec",
    "main_effect_list", "two_factor_list",
    # hadamard
    "sylvester", "paley_type1", "paley_type2", "kronecker",
    "normalize", "zero_one", "is_hadamard", "supported_orders",
    "least_hadamard_order",
    # contrasts
    "ScaledIntMatrix", "contrast_vector", "contrast_matrix",
    "effective_position", "effective_choice_set", "pair_contribution",
    "option_sign_matrix", "lambda_star", "cstar_matrix", "cross_block_star",
    "exact_schur_cstar", "info_matrix",
    # optimality
    "Verdict", "OptimalityReport", "verify", "eta_counts", "np_counts",
    "max_trace", "oracle_cstar",
    # constructions
    "theorem1_design", "theorem1_main_design", "single_set_design",
    "hadamard_single_set_design", "foldover_pair_design", "theorem2_design",
    "theorem2_half_design", "specified_design", "default_generators",
    "validate_generators", "coset_columns",
    "ConstructionRecipe", "build",
    # catalog
    "CatalogEntry", "CellStatus", "Table1Report", "catalog_lookup",
    "candidate_recipes", "reproduce_table1", "TABLE1",
    "EXPECTED_DEVIATIONS",
    # serialization
    "design_to_dict", "design_from_dict", "dumps", "loads", "save", "load",
    "design_to_csv", "save_csv",
]
