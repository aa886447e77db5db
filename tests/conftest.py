"""Shared builders and hypothesis strategies for the test suite."""

import random

import sympy
from hypothesis import strategies as st

from strongpoly import LaurentPoly, Ring, ZZ, build_family_poly, coprime, family_corpus


def mk(nvars, terms, laurent=False, domain=ZZ):
    """Polynomial from an exponent-tuple -> coefficient mapping."""
    return LaurentPoly(Ring(nvars, laurent, domain), dict(terms))


def sympy_expr(p, xs):
    """p as a sympy expression in the symbols xs."""
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**e for x, e in zip(xs, m)))
        for m, c in p.terms()
    ))


def reduces_to_zero(f, polys):
    """Whether sympy's multivariate division of the ordinary polynomial f
    by polys, under grlex with x1 > x2 > ..., leaves remainder 0: ideal
    membership when polys is a Groebner basis, by code that shares nothing
    with the package's normal form."""
    xs = sympy.symbols(f"x1:{f.ring.nvars + 1}")
    _, rem = sympy.reduced(
        sympy_expr(f, xs), [sympy_expr(g, xs) for g in polys], *xs, order="grlex"
    )
    return rem == 0


def poly_st(nvars=2, laurent=False, max_exp=3, max_terms=5, max_coeff=9, min_terms=0):
    """Strategy for random polynomials over ZZ."""
    lo = -max_exp if laurent else 0
    mono = st.tuples(*([st.integers(lo, max_exp)] * nvars))
    coeff = st.integers(-max_coeff, max_coeff).filter(bool)
    ring = Ring(nvars, laurent, ZZ)
    return st.dictionaries(mono, coeff, min_size=min_terms, max_size=max_terms).map(
        lambda d: LaurentPoly(ring, d)
    )


def nonzero_poly_st(nvars=2, laurent=False, max_exp=3, max_terms=5, max_coeff=9):
    return poly_st(nvars, laurent, max_exp, max_terms, max_coeff, min_terms=1)


def localized_instances():
    """The 100 (p, q, generators) instances of acceptance 8: two coprime
    family-corpus members in the same ring and two to four exponent pairs,
    drawn from random.Random(2024)."""
    rng = random.Random(2024)
    by_nvars = {}
    for spec in family_corpus(2):
        p = build_family_poly(spec)
        by_nvars.setdefault(p.ring.nvars, []).append(p)
    instances = []
    while len(instances) < 100:
        group = by_nvars[rng.choice(sorted(by_nvars))]
        p, q = rng.sample(group, 2)
        if not coprime(p, q):
            continue
        gens = [
            (rng.randint(0, 5), rng.randint(0, 5))
            for _ in range(rng.randint(2, 4))
        ]
        instances.append((p, q, gens))
    return instances
