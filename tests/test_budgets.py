"""Trip points of the cumulative work budgets.

Each case runs a fixed input that spends exactly `units` of one budget: with
the budget's constant at `units` the input passes, and at `units - 1` it
raises that budget's kind and message.  A meter that tripped at the limit
instead of past it, or that counted a different unit, fails here.
"""

import pytest

from strongpoly import alexander, factor, groebner, localize
from strongpoly.errors import ResourceBudgetExceeded
from strongpoly.parse import parse_braid, parse_polynomial as P


def gcd_input():
    factor.poly_gcd(P("(1 + x1 + x2)^3*(x1 - x2 + 2)"), P("(1 + x1 + x2)^2*(x1*x2 + 3)"))


def minors_input():
    pres = alexander.braid_to_presentation(parse_braid("s1 s2^-1 s1 s3 s2^-1 s3"), 4)
    alexander.elementary_ideal(pres, 1)


def reduction_work_input():
    gens = ["x1^2*x2 - 3*x3 + x2^2", "x2^3 + 5*x1*x3", "x1*x3^2 - x2"]
    groebner.buchberger(groebner.IdealBasis.from_polys([P(g, 3) for g in gens]))


def localize_input():
    p, q = P("1 + x1 - x2", laurent=True), P("1 + x1*x2", laurent=True)
    localize.reduce_localized_ideal(localize.LocalizedIdeal(p, q, ((3, 0), (0, 3))))


def braid_input():
    alexander.braid_to_presentation([1] * 30, 2)


def recombination_input():
    factor.univariate_factor(P("x1^8 + 1"))


def rho_input():
    # three primes past the trial divisors: the second rho split, of
    # 10009 * 10037, is the one that runs out
    factor.is_irreducible(P(str(10007 * 10009 * 10037)))


CASES = [
    (gcd_input, factor, "MAX_GCD_TERM_PRODUCTS", 213, "gcd",
     "pseudo-remainders need more than {} term products"),
    (minors_input, alexander, "MAX_MINOR_WORK", 404, "minors",
     "minors need over {} work units"),
    (reduction_work_input, groebner, "MAX_REDUCTION_WORK", 50, "gb-work",
     "reduction work budget {} exceeded"),
    (localize_input, localize, "MAX_IDENTITY_TERM_PRODUCTS", 80, "localize",
     "the combination identity needs more than {} term products"),
    (braid_input, alexander, "MAX_BURAU_TERM_READS", 1425, "braid-words",
     "the colored Burau pass needs over {} term reads"),
    (recombination_input, factor, "MAX_KRON_TRIALS", 2, "factor-trials",
     "recombination budget exceeded"),
    (rho_input, factor, "MAX_RHO_STEPS", 380, "int-factor",
     "no factor of 100460333 within {} rho steps"),
]


@pytest.mark.parametrize(
    "run, module, constant, units, kind, message", CASES, ids=[case[4] for case in CASES]
)
def test_budget_trips_once_past_its_limit(monkeypatch, run, module, constant, units, kind, message):
    monkeypatch.setattr(module, constant, units)
    run()
    monkeypatch.setattr(module, constant, units - 1)
    with pytest.raises(ResourceBudgetExceeded) as info:
        run()
    assert info.value.kind == kind
    assert str(info.value) == message.format(units - 1)
