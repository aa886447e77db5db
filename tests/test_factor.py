"""Integer factorization of (Laurent) polynomials and gcd/coprimality."""

import math
import random
import time
from functools import reduce

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strongpoly import (
    LaurentPoly,
    PROVED,
    REFUTED,
    UNDECIDED,
    Budgets,
    Ring,
    ResourceBudgetExceeded,
    ZZ,
    coprime,
    is_irreducible,
    parse_polynomial,
    poly_gcd,
)
from strongpoly import factor
from strongpoly.factor import univariate_factor

from conftest import mk, nonzero_poly_st

# dense univariate polynomials, ascending coefficients, trimmed; the nonzero
# ones may have any content and leading coefficient
dense_st = st.lists(st.integers(-20, 20), max_size=7).map(factor._uv_trim)
dense_nonzero_st = st.tuples(
    st.lists(st.integers(-20, 20), max_size=6), st.integers(-20, 20).filter(bool)
).map(lambda t: t[0] + [t[1]])
X = sympy.Symbol("x")


def to_sympy(f, domain="ZZ"):
    return sympy.Poly(list(reversed(f)) or [0], X, domain=domain)


def from_sympy(poly):
    return factor._uv_trim([c for c in reversed(poly.all_coeffs())])


R2 = Ring(2, False, ZZ)
L2 = Ring(2, True, ZZ)


def reassembles(p, v):
    assert v.status == REFUTED
    factors = v.witness["factors"]
    assert len(factors) >= 2
    prod = reduce(lambda a, b: a * b, factors)
    assert prod == p
    return factors


class TestUnivariate:
    def test_difference_of_squares(self):
        p = mk(1, {(2,): 1, (0,): -1})
        fs = reassembles(p, is_irreducible(p))
        assert sorted(f.to_text() for f in fs) == ["x1 + 1", "x1 - 1"]

    def test_swinnerton_style_irreducible(self):
        # minimal polynomial of sqrt(2) + sqrt(3); reducible mod every prime
        p = mk(1, {(4,): 1, (2,): -10, (0,): 1})
        v = is_irreducible(p)
        assert v.status == PROVED and v.rule == "univariate"

    def test_cyclotomic(self):
        assert is_irreducible(mk(1, {(2,): 1, (1,): -1, (0,): 1})).status == PROVED
        p6 = mk(1, {(6,): 1, (0,): -1})
        fs = reassembles(p6, is_irreducible(p6))
        assert len(fs) == 4

    def test_integer_content_is_a_factor(self):
        p = mk(1, {(1,): 2, (0,): 2})
        fs = reassembles(p, is_irreducible(p))
        assert any(f.is_constant() for f in fs)

    def test_constant_inputs(self):
        assert is_irreducible(mk(1, {(0,): 7})).rule == "constant-prime"
        assert is_irreducible(mk(1, {(0,): -3})).rule == "constant-prime"
        reassembles(mk(1, {(0,): 6}), is_irreducible(mk(1, {(0,): 6})))
        reassembles(mk(1, {(0,): -4}), is_irreducible(mk(1, {(0,): -4})))

    def test_constant_factoring_is_budgeted(self, monkeypatch):
        # both prime factors lie above the trial divisors: rho splits them
        n = 1000003 * 1000033
        assert factor._int_factor(n) == [(1000003, 1), (1000033, 1)]
        assert factor._int_factor(4 * 1000003**2 * 1000033) == [
            (2, 2), (1000003, 2), (1000033, 1)
        ]
        assert is_irreducible(mk(1, {(0,): n})).status == REFUTED
        # a large prime cofactor is certified by Miller-Rabin
        p = 1000000000039
        assert factor._int_factor(12 * p) == [(2, 2), (3, 1), (p, 1)]
        assert is_irreducible(mk(1, {(0,): p})).rule == "constant-prime"
        # with too few rho steps the split is given up, never guessed
        monkeypatch.setattr(factor, "MAX_RHO_STEPS", 100)
        with pytest.raises(ResourceBudgetExceeded):
            is_irreducible(mk(1, {(0,): n}))

    def test_prime_powers_are_stripped_by_repeated_squares(self):
        start = time.perf_counter()
        assert factor._int_factor(3**80000) == [(3, 80000)]
        assert time.perf_counter() - start < 0.5
        assert factor._int_factor(2**5 * 3**7 * 9973**13) == [(2, 5), (3, 7), (9973, 13)]

    def test_probable_primes_at_the_bound_are_not_certified(self):
        # the bound is the least strong pseudoprime to all thirteen bases
        # 2..41: 1287836182261 * 2575672364521 passes every round
        assert factor.MR_CERTIFIED_BELOW == 1287836182261 * 2575672364521
        with pytest.raises(ResourceBudgetExceeded):
            factor._is_prime(factor.MR_CERTIFIED_BELOW)
        with pytest.raises(ResourceBudgetExceeded):
            factor._is_prime(10**30 + 57)
        assert factor._is_prime(100000000000000000039)
        assert not factor._is_prime(1000003 * 1000033)

    def test_pseudoprime_to_bases_up_to_37_is_composite(self):
        # 399165290221 * 798330580441 is a strong pseudoprime to every
        # base 2..37, so only base 41 exposes it
        n = 318665857834031151167461
        assert not factor._is_prime(n)
        assert factor._int_factor(n) == [(399165290221, 1), (798330580441, 1)]

    def test_bases_are_prime(self):
        assert [q for q in range(50) if factor._is_prime(q)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47
        ]

    def test_non_unit_leading_coefficient_is_internal(self):
        # Hensel lifting never divides by a non-unit; if it did, the CLI
        # must report an internal error (exit 5), not an input error
        with pytest.raises(RuntimeError):
            factor._uv_divmod([1, 1], [1, 2], 4)

    def test_units_and_zero_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible(mk(1, {(0,): 1}))
        with pytest.raises(ValueError):
            is_irreducible(mk(1, {}))

    def test_factorization_expand_round_trip(self):
        p = mk(1, {(2,): 1, (0,): -1}) * mk(1, {(1,): 1, (0,): 2}) ** 2
        factors = univariate_factor(p)
        assert reduce(lambda a, b: a * b, factors) == p
        assert [f.to_text() for f in factors] == ["x1 + 1", "x1 + 2", "x1 + 2", "x1 - 1"]
        # the first factor carries the sign of the leading coefficient
        assert [f.to_text() for f in univariate_factor(-p)][:2] == ["-x1 - 1", "x1 + 2"]

    @pytest.mark.parametrize("text", ["2*x1^2 - 2", "6", "x1*x2 + 1"])
    def test_univariate_factor_needs_primitive_one_variable_input(self, text):
        # the content and integer constants are is_irreducible's to settle
        with pytest.raises(ValueError):
            univariate_factor(parse_polynomial(text))

    def test_recombination_tests_constant_terms_before_products(self, monkeypatch):
        # x^40 + 3 is irreducible (Eisenstein at 3) but splits into many
        # factors mod the Zassenhaus prime; recombination tries thousands of
        # subsets, and forms the product only of those whose constant term
        # divides 3 (4120 products when every subset was multiplied out)
        calls = []
        product = factor._uv_prod

        def counting(fs):
            calls.append(1)
            return product(fs)

        monkeypatch.setattr(factor, "_uv_prod", counting)
        f = [3] + [0] * 39 + [1]
        assert factor._zassenhaus_squarefree(f) == [f]
        assert len(calls) < 50

    def test_degree_budget(self, monkeypatch):
        p = mk(1, {(12,): 1, (0,): -1})
        monkeypatch.setattr(factor, "MAX_UV_DEGREE", 5)
        with pytest.raises(Exception):
            is_irreducible(p)


class TestDivision:
    def test_over_z(self):
        # x^2 - 1 = (x + 1)(x - 1), and x^2 + 1 leaves 2 behind
        assert factor._uv_divmod([-1, 0, 1], [-1, 1]) == ([1, 1], [])
        assert factor._uv_divmod([1, 0, 1], [-1, 1]) == ([1, 1], [2])
        assert factor._uv_divmod([3], [-1, 1]) == ([], [3])
        assert factor._uv_divmod([], [2, 3]) == ([], [])
        # dividing x^2 + 1 by 2x + 1 needs the quotient coefficient 1/2
        assert factor._uv_divmod([1, 0, 1], [1, 2]) is None

    @given(dense_st, dense_nonzero_st)
    @settings(max_examples=60, deadline=None)
    def test_over_z_is_rational_division_when_integral(self, f, g):
        quo, rem = sympy.div(to_sympy(f, "QQ"), to_sympy(g, "QQ"))
        out = factor._uv_divmod(f, g)
        if any(c.q != 1 for c in quo.all_coeffs()):
            assert out is None
        else:
            assert out == (from_sympy(quo), from_sympy(rem))

    def test_mod_a_prime_and_a_prime_power(self):
        # x^3 + 2x + 1 by 2x + 1: mod 5,
        # (3x^2 + x + 3)(2x + 1) + 3 = 6x^3 + 5x^2 + 7x + 6 = x^3 + 2x + 1
        assert factor._uv_divmod([1, 2, 0, 1], [1, 2], 5) == ([3, 1, 3], [3])
        # and mod 9, (5x^2 + 2x)(2x + 1) + 1 = 10x^3 + 9x^2 + 2x + 1
        assert factor._uv_divmod([1, 2, 0, 1], [1, 2], 9) == ([0, 2, 5], [1])

    @given(dense_st, dense_nonzero_st, st.sampled_from([3, 5, 7, 9, 25, 27, 3**10]))
    @settings(max_examples=60, deadline=None)
    def test_mod_m_is_the_unique_division(self, f, g, m):
        assume(math.gcd(g[-1], m) == 1)
        q, r = factor._uv_divmod(f, g, m)
        assert q == factor._uv_trim(list(q)) and r == factor._uv_trim(list(r))
        assert all(0 <= c < m for c in q + r) and len(r) < len(g)
        back = factor._uv_add(factor._uv_mul(q, g), r)
        assert factor._uv_mod(factor._uv_sub(f, back), m) == []

    def test_non_unit_lead_mod_m_is_internal(self):
        with pytest.raises(RuntimeError, match="leading coefficient 6 is not a unit mod 9"):
            factor._uv_divmod([1, 1, 1], [1, 6], 9)

    @given(dense_nonzero_st, dense_nonzero_st, dense_nonzero_st)
    @settings(max_examples=80, deadline=None)
    def test_uv_gcd_matches_sympy(self, a, b, h):
        # h is a shared factor with its own content and sign, so the inputs
        # are neither primitive nor monic
        f, g = factor._uv_mul(a, h), factor._uv_mul(b, h)
        assert factor._uv_gcd(f, g) == from_sympy(sympy.gcd(to_sympy(f), to_sympy(g)))


class TestModes:
    def test_laurent_ring_selects_laurent_behaviour(self):
        # x1^-1 * (1 + x1*x2): the monomial is a unit only in a Laurent ring
        p = mk(2, {(-1, 0): 1, (0, 1): 1}, laurent=True)
        assert is_irreducible(p).status == PROVED
        q = mk(2, {(1, 0): 1, (2, 1): 1})  # x1 * (1 + x1*x2)
        assert is_irreducible(q).status == REFUTED
        assert is_irreducible(q.to_laurent()).status == PROVED

    def test_monomials_are_laurent_units(self):
        x1 = mk(2, {(1, 0): 1})
        assert is_irreducible(x1).status == PROVED
        with pytest.raises(ValueError):
            is_irreducible(x1.to_laurent())

    def test_monomial_unit_stripping(self):
        # x1^-2 * x2 * (1 + x1 - x2) is irreducible up to units
        core = mk(2, {(0, 0): 1, (1, 0): 1, (0, 1): -1}, laurent=True)
        p = core.mul_monomial((-2, 1))
        v = is_irreducible(p)
        assert v.status == PROVED

    def test_ordinary_mode_sees_monomial_factors(self):
        p = mk(2, {(2, 1): 1, (3, 1): 1})  # x1^2*x2*(1 + x1)
        fs = reassembles(p, is_irreducible(p))
        assert len(fs) >= 2

    def test_laurent_refutation_reassembles_in_laurent_ring(self):
        a = mk(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}, laurent=True)
        b = mk(2, {(0, 0): 1, (1, 1): 1}, laurent=True)
        p = (a * b).mul_monomial((-1, 0))
        fs = reassembles(p, is_irreducible(p))
        assert all(f.ring.laurent for f in fs)


class TestMultivariate:
    def test_hyperbola_irreducible(self):
        p = mk(2, {(1, 1): 1, (0, 0): -1})
        assert is_irreducible(p).status == PROVED
        assert is_irreducible(p.to_laurent()).status == PROVED

    def test_product_refuted_exactly(self):
        a = mk(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        b = mk(2, {(0, 0): 1, (1, 1): 1})
        reassembles(a * b, is_irreducible(a * b))

    def test_three_variables(self):
        p = mk(3, {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): 2})
        assert is_irreducible(p).status == PROVED
        a = mk(3, {(1, 0, 0): 1, (0, 1, 0): 1})
        b = mk(3, {(0, 0, 1): 1, (0, 0, 0): -1})
        reassembles(a * b, is_irreducible(a * b))

    def test_sympy_oracle_agreement(self):
        rng = random.Random(7)
        xs = sympy.symbols("x1 x2")
        checked = 0
        while checked < 25:
            terms = {
                (rng.randrange(0, 4), rng.randrange(0, 4)): rng.randint(-5, 5)
                for _ in range(rng.randint(2, 5))
            }
            p = mk(2, terms)
            if p.total_degree() < 1:
                continue
            v = is_irreducible(p)
            if v.status not in (PROVED, REFUTED):
                continue
            expr = sympy.expand(sympy.sympify(p.to_text().replace("^", "**")))
            coeff, factors = sympy.factor_list(sympy.Poly(expr, *xs, domain="ZZ"))
            oracle_irred = abs(coeff) == 1 and sum(m for _, m in factors) == 1
            assert (v.status == PROVED) == oracle_irred, p.to_text()
            checked += 1

    def test_kronecker_budget_details(self, monkeypatch):
        # the split of p is the eleventh subset of its Kronecker image's
        # factors that the search tries, counting the ones it rejects
        p = parse_polynomial("-x1^3 + 3*x1^2*x2 - x1*x2 + 3*x2^2")
        monkeypatch.setattr(factor, "MAX_KRON_TRIALS", 10)
        v = is_irreducible(p)
        assert (v.status, v.reason) == (UNDECIDED, "resource-kronecker")
        assert v.details == {"detail": "kronecker trial budget exceeded"}
        monkeypatch.setattr(factor, "MAX_KRON_TRIALS", 11)
        reassembles(p, is_irreducible(p))
        # three linear-in-each-variable factors give three image factors
        q = parse_polynomial("(x1 + x2 + 1)*(x1 - x2 + 2)*(x1*x2 + 3)")
        monkeypatch.setattr(factor, "MAX_KRON_ITEMS", 2)
        v = is_irreducible(q)
        assert (v.status, v.reason) == (UNDECIDED, "resource-kronecker")
        assert v.details == {"detail": "3 kronecker factors exceed budget"}
        monkeypatch.setattr(factor, "MAX_KRON_ITEMS", 3)
        reassembles(q, is_irreducible(q))
        v = is_irreducible(q, Budgets(max_kron_degree=4))
        assert v.details == {"detail": "kronecker image degree 24 exceeds budget"}

    @given(
        nonzero_poly_st(nvars=2, max_exp=2, max_terms=3, max_coeff=4),
        nonzero_poly_st(nvars=2, max_exp=2, max_terms=3, max_coeff=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_products_never_prove(self, a, b):
        assume(a.total_degree() >= 1 and b.total_degree() >= 1)
        v = is_irreducible(a * b)
        assert v.status != PROVED
        if v.status == REFUTED:
            reassembles(a * b, v)


class TestGcd:
    def test_common_factor_recovered(self):
        p = mk(2, {(0, 0): 1, (1, 0): 1, (0, 1): -1})
        q = mk(2, {(0, 0): 1, (1, 1): 1})
        r = mk(2, {(0, 0): 2, (1, 0): 1})
        g = poly_gcd(p * q, p * r)
        assert g.sign_normalized() == p.sign_normalized()

    def test_ordinary_vs_laurent_units(self):
        x1 = mk(2, {(1, 0): 1})
        assert poly_gcd(x1, x1) == x1
        lx = x1.to_laurent()
        assert poly_gcd(lx, lx).is_unit()

    def test_gcd_of_zero(self):
        p = mk(2, {(1, 0): 1, (0, 0): 1})
        z = mk(2, {})
        assert poly_gcd(p, z) == p
        assert poly_gcd(z, z).is_zero()

    def test_coprime_golden(self):
        p = mk(1, {(1,): 1, (0,): 1})
        q = mk(1, {(1,): 1, (0,): -1})
        assert coprime(p, q)
        assert not coprime(p * q, q)
        # gcd(2*x1 + 2, 2) is 2: the shared integer content is not a unit
        assert not coprime(mk(1, {(1,): 2, (0,): 2}), mk(1, {(0,): 2}))

    def test_two_constants_give_their_integer_gcd(self):
        assert poly_gcd(mk(2, {(0, 0): 4}), mk(2, {(0, 0): -6})).to_text() == "2"
        assert not coprime(mk(2, {(0, 0): 4}), mk(2, {(0, 0): 6}))
        # a one-term side that is not constant keeps the shared content too
        assert poly_gcd(mk(2, {(1, 0): 4}), mk(2, {(1, 0): 6})).to_text() == "2*x1"
        assert poly_gcd(mk(2, {(0, 0): 4}), mk(2, {(1, 0): 6})).to_text() == "2"

    @given(
        nonzero_poly_st(nvars=3, max_exp=3, max_terms=1, max_coeff=12),
        nonzero_poly_st(nvars=3, max_exp=3, max_terms=5, max_coeff=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_term_side_against_sympy(self, mono, q):
        xs = sympy.symbols("x1 x2 x3")

        def primitive(poly):
            _, pp = poly.primitive()
            return pp if pp.LC() > 0 else -pp

        def to_sympy(h):
            return sympy.Poly(sympy.sympify(h.to_text().replace("^", "**")), *xs, domain="ZZ")

        expected = primitive(sympy.gcd(to_sympy(mono), to_sympy(q)))
        for a, b in ((mono, q), (q, mono)):
            assert primitive(to_sympy(poly_gcd(a, b))) == expected

    @given(
        nonzero_poly_st(nvars=2, max_exp=2, max_terms=3, max_coeff=4),
        nonzero_poly_st(nvars=2, max_exp=2, max_terms=3, max_coeff=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_gcd_divides_both(self, p, q):
        from strongpoly import divides

        g = poly_gcd(p, q)
        assert divides(g, p) and divides(g, q)
        assert not coprime(p * q, q) or q.total_degree() == 0
        # the whole gcd over ZZ, integer content included, up to sign
        xs = sympy.symbols("x1 x2")

        def to_sympy(h):
            return sympy.Poly(sympy.sympify(h.to_text().replace("^", "**")), *xs, domain="ZZ")

        expected = sympy.gcd(to_sympy(p), to_sympy(q))
        assert to_sympy(g) in (expected, -expected)
