"""Exact certificates for strong irreducibility and link-module invariants.

The package decides three-valued questions (PROVED / REFUTED / UNDECIDED)
about integral Laurent polynomials: whether every power substitution of a
polynomial stays irreducible, whether two polynomials stay coprime under
all monomial substitutions, and what the torsion part of a finitely
presented link module looks like.  Everything runs in exact integer
arithmetic; every positive answer names its certifying rule and every
negative answer carries a witness that multiplies back to the input.
"""

from .alexander import (
    BlanchfieldValue,
    ModulePresentation,
    RibbonReport,
    blanchfield_self_link_witness,
    braid_components,
    braid_to_presentation,
    canonical_associate,
    divisorial_hull,
    elementary_ideal,
    fox_derivative,
    free_rank,
    presentation_rank,
    torsion_alexander_poly,
    verify_ribbon_presentation,
)
from .errors import Budgets, ResourceBudgetExceeded
from .factor import coprime, is_irreducible, poly_gcd
from .families import (
    F1,
    F2,
    FamilySpec,
    build_family_poly,
    enumerate_family,
    eval_at_ones,
    family_corpus,
    slice_polynomial,
)
from .groebner import (
    IdealBasis,
    buchberger,
    only_trivial_solution,
    radical_member,
)
from .localize import (
    DivisorSetQuery,
    LocalizedIdeal,
    ReductionResult,
    divisor_set_member,
    reduce_localized_ideal,
    reduce_multi_prime,
    verify_principality,
)
from .parse import ParseError, parse_braid, parse_matrix_json, parse_polynomial
from .ring import (
    QQ,
    ZZ,
    HomogPoly,
    LaurentPoly,
    Ring,
    divides,
    exact_divide,
    grlex_key,
    homogenize,
    laurent_normalize,
    monomial_substitute,
    power_substitute,
)
from .strongcheck import (
    GenericityReport,
    PolyVector,
    check_strongly_coprime,
    check_strongly_irreducible,
    check_vector_coprime,
    criterion_system,
    genericity_sample,
)
from .verdict import PROVED, REFUTED, UNDECIDED, Verdict

__version__ = "0.1.0"

__all__ = [
    "BlanchfieldValue",
    "Budgets",
    "DivisorSetQuery",
    "F1",
    "F2",
    "FamilySpec",
    "GenericityReport",
    "HomogPoly",
    "IdealBasis",
    "LaurentPoly",
    "LocalizedIdeal",
    "ModulePresentation",
    "PROVED",
    "ParseError",
    "PolyVector",
    "QQ",
    "REFUTED",
    "ReductionResult",
    "ResourceBudgetExceeded",
    "RibbonReport",
    "Ring",
    "UNDECIDED",
    "Verdict",
    "ZZ",
    "blanchfield_self_link_witness",
    "braid_components",
    "braid_to_presentation",
    "buchberger",
    "build_family_poly",
    "canonical_associate",
    "check_strongly_coprime",
    "check_strongly_irreducible",
    "check_vector_coprime",
    "coprime",
    "criterion_system",
    "divides",
    "divisor_set_member",
    "divisorial_hull",
    "elementary_ideal",
    "enumerate_family",
    "eval_at_ones",
    "exact_divide",
    "family_corpus",
    "fox_derivative",
    "free_rank",
    "genericity_sample",
    "grlex_key",
    "homogenize",
    "is_irreducible",
    "laurent_normalize",
    "monomial_substitute",
    "only_trivial_solution",
    "parse_braid",
    "parse_matrix_json",
    "parse_polynomial",
    "poly_gcd",
    "power_substitute",
    "presentation_rank",
    "radical_member",
    "reduce_localized_ideal",
    "reduce_multi_prime",
    "slice_polynomial",
    "torsion_alexander_poly",
    "verify_principality",
    "verify_ribbon_presentation",
]
