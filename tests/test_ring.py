"""Exact Laurent polynomial arithmetic and normal forms."""

from fractions import Fraction
from itertools import groupby, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongpoly import (
    HomogPoly,
    LaurentPoly,
    QQ,
    Ring,
    ZZ,
    canonical_associate,
    divides,
    exact_divide,
    grlex_key,
    homogenize,
    laurent_normalize,
    monomial_substitute,
    power_substitute,
)
from strongpoly.ring import WordFormat, _add_shifted_words, _mul_terms

from conftest import mk, nonzero_poly_st, poly_st

R2 = Ring(2, False, ZZ)
L2 = Ring(2, True, ZZ)


def at_z0_one(P):
    """The homogeneous P with z0 = 1, in its other variables."""
    out = {}
    for m, c in P.inner.term_dict().items():
        out[m[1:]] = out.get(m[1:], 0) + c
    return LaurentPoly(Ring(P.ring.nvars - 1, False, P.ring.domain), out)


@st.composite
def term_dict_pairs(draw):
    """Two term dicts in 1-4 variables with exponents in [-3, 6], either
    drawn independently or as (a + b, a - b) on disjoint supports, whose
    product a^2 - b^2 cancels every cross term."""
    n = draw(st.integers(1, 4))
    mono = st.tuples(*[st.integers(-3, 6)] * n)
    terms = st.dictionaries(mono, st.integers(-5, 5).filter(bool), max_size=6)
    a, b = draw(terms), draw(terms)
    if draw(st.booleans()):
        return a, b
    b = {m: c for m, c in b.items() if m not in a}
    return {**a, **b}, {**a, **{m: -c for m, c in b.items()}}


def naive_product(f, g):
    """Reference product: every term pair, grouped by monomial after sorting."""
    pairs = sorted((tuple(x + y for x, y in zip(m1, m2)), c1 * c2)
                   for m1, c1 in f.items() for m2, c2 in g.items())
    out = {}
    for m, group in groupby(pairs, key=lambda t: t[0]):
        c = sum(c for _, c in group)
        if c:
            out[m] = c
    return out


def typed_terms(p):
    return [(m, c, type(c)) for m, c in p.terms()]


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        p = LaurentPoly(R2, {(1, 0): 1, (0, 1): 0})
        assert p.term_dict() == {(1, 0): 1}
        assert p.num_terms() == 1

    def test_zero_polynomial(self):
        assert LaurentPoly(R2, {}).is_zero()
        assert LaurentPoly.zero(R2) == LaurentPoly(R2, {(3, 3): 0})
        assert not LaurentPoly.zero(R2)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly(R2, {(1, 0, 0): 1})

    def test_negative_exponent_needs_laurent_ring(self):
        with pytest.raises(ValueError):
            LaurentPoly(R2, {(-1, 0): 1})
        assert LaurentPoly(L2, {(-1, 0): 1}).num_terms() == 1

    def test_fraction_coefficient_needs_qq(self):
        with pytest.raises(ValueError):
            LaurentPoly(R2, {(0, 0): Fraction(1, 2)})
        q = LaurentPoly(Ring(2, False, QQ), {(0, 0): Fraction(1, 2)})
        assert q.constant_value() == Fraction(1, 2)

    def test_immutability(self):
        p = mk(2, {(1, 0): 1})
        with pytest.raises(AttributeError):
            p.ring = L2
        # term_dict hands out a copy, never the internal store
        d = p.term_dict()
        d[(5, 5)] = 7
        assert p.term_dict() == {(1, 0): 1}

    def test_constructors(self):
        assert LaurentPoly.one(R2).to_text() == "1"
        assert LaurentPoly.variable(R2, 1).to_text() == "x2"
        assert LaurentPoly.monomial(R2, (2, 1), -3).to_text() == "-3*x1^2*x2"
        assert LaurentPoly.constant(R2, 0).is_zero()


class TestOrderAndText:
    def test_grlex_term_order(self):
        # degree first, then lexicographic on exponents
        assert grlex_key((1, 1)) > grlex_key((0, 1))
        assert grlex_key((2, 0)) > grlex_key((1, 1))
        assert grlex_key((0, 3)) > grlex_key((2, 0))

    def test_leading_monomial(self):
        p = mk(2, {(1, 1): 4, (2, 0): -1, (0, 0): 5})
        assert p.leading_monomial() == (2, 0)
        assert p.leading_coefficient() == -1

    def test_to_text_goldens(self):
        assert mk(2, {(0, 0): 1, (1, 0): 1, (0, 1): -1}).to_text() == "x1 - x2 + 1"
        assert mk(1, {(2,): 1, (1,): -1, (0,): 1}).to_text("t") == "t^2 - t + 1"
        assert mk(2, {(-1, 2): -2}, laurent=True).to_text() == "-2*x1^-1*x2^2"
        assert mk(2, {}).to_text() == "0"

    def test_repr_mentions_text(self):
        assert "x1" in repr(mk(2, {(1, 0): 1}))


class TestArithmetic:
    @given(poly_st(), poly_st(), poly_st())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + q == q + p
        assert p * q == q * p
        assert p - p == LaurentPoly.zero(p.ring)

    @given(poly_st(laurent=True))
    @settings(max_examples=40, deadline=None)
    def test_neg_and_scale(self, p):
        assert -p == p.scale(-1)
        assert p.scale(0).is_zero()
        assert p + (-p) == LaurentPoly.zero(p.ring)

    @given(term_dict_pairs())
    @settings(max_examples=200, deadline=None)
    def test_term_kernel_matches_the_naive_product(self, pair):
        f, g = pair
        out = _mul_terms(f, g)
        assert out == naive_product(f, g)
        assert all(out.values())
        assert _mul_terms(f, {}) == _mul_terms({}, g) == {}

    @given(st.sampled_from([ZZ, QQ]), st.booleans(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_kernel_results_match_their_checked_construction(self, domain, laurent, data):
        # +, unary -, * and laurent_normalize build their results without
        # the checks of __init__; running those checks on the result changes
        # nothing
        p, q = (data.draw(poly_st(laurent=laurent)).to_domain(domain) for _ in range(2))
        if domain == QQ:
            q = q.scale(Fraction(2, 3))
        for r in (p + q, -p, p * q, *(laurent_normalize(p)[:1] if p else ())):
            checked = LaurentPoly(r.ring, r.term_dict())
            assert checked == r
            assert checked.term_dict() == r.term_dict()
            assert typed_terms(checked) == typed_terms(r)

    def test_pow(self):
        p = mk(2, {(1, 0): 1, (0, 0): 1})
        assert p**3 == p * p * p
        assert (p**0).to_text() == "1"
        with pytest.raises(ValueError):
            p ** (-1)
        # a negative power is refused even for a Laurent unit
        with pytest.raises(ValueError):
            mk(1, {(1,): 1}, laurent=True) ** (-1)

    def test_ring_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mk(2, {(1, 0): 1}) + mk(3, {(1, 0, 0): 1})

    def test_mul_monomial(self):
        p = mk(2, {(1, 0): 1, (0, 0): 2})
        assert p.mul_monomial((0, 2), 3) == mk(2, {(1, 2): 3, (0, 2): 6})
        shifted = mk(2, {(0, 0): 1, (-1, 0): 2}, laurent=True)
        assert p.to_laurent().mul_monomial((-1, 0)) == shifted
        with pytest.raises(ValueError):
            p.mul_monomial((-1, 0))


class TestBar:
    def test_bar_golden(self):
        p = mk(2, {(1, 0): 1, (0, 1): -1, (0, 0): 1})
        assert p.bar() == mk(2, {(-1, 0): 1, (0, -1): -1, (0, 0): 1}, laurent=True)

    @given(nonzero_poly_st(laurent=True), nonzero_poly_st(laurent=True))
    @settings(max_examples=40, deadline=None)
    def test_bar_involution_and_multiplicative(self, p, q):
        assert p.bar().bar() == p
        assert (p * q).bar() == p.bar() * q.bar()

    def test_bar_promotes_ordinary_ring(self):
        assert mk(2, {(1, 0): 1}).bar().ring.laurent


class TestCalculusAndContent:
    def test_content_and_primitive(self):
        p = mk(2, {(1, 0): 6, (0, 0): -9})
        assert p.content() == 3
        pp = mk(2, {(1, 0): 2, (0, 0): -3})
        assert canonical_associate(p) == canonical_associate(-p) == pp
        assert mk(2, {}).content() == 0

    def test_sign_normalized(self):
        p = mk(2, {(2, 0): -1, (0, 0): 5})
        assert p.sign_normalized().leading_coefficient() == 1
        assert p.sign_normalized() == -p

    def test_homogeneity_predicate(self):
        assert mk(2, {(2, 0): 1, (1, 1): -4}).is_homogeneous()
        assert not mk(2, {(2, 0): 1, (0, 0): 1}).is_homogeneous()


class TestSubstitutions:
    def test_power_substitute_golden(self):
        p = mk(2, {(1, 0): 1, (0, 1): -1, (0, 0): 1})
        assert power_substitute(p, (2, 3)) == mk(2, {(2, 0): 1, (0, 3): -1, (0, 0): 1})

    def test_power_substitute_negative_needs_laurent_result(self):
        p = mk(1, {(1,): 1, (0,): 1})
        out = power_substitute(p, (-1,))
        assert out.ring.laurent
        assert out == mk(1, {(-1,): 1, (0,): 1}, laurent=True)

    @given(nonzero_poly_st(laurent=True))
    @settings(max_examples=30, deadline=None)
    def test_power_substitute_identity_and_composition(self, p):
        assert power_substitute(p, (1, 1)) == p
        assert power_substitute(power_substitute(p, (2, 1)), (3, 2)) == power_substitute(
            p, (6, 2)
        )

    def test_power_substitute_rejects_zero(self):
        with pytest.raises(ValueError):
            power_substitute(mk(1, {(1,): 1}), (0,))

    def test_monomial_substitute_golden(self):
        # x1 -> t^2, x2 -> t^3 collapses x1^3 - x2^2 to zero
        p = mk(2, {(3, 0): 1, (0, 2): -1})
        assert monomial_substitute(p, [(2,), (3,)], 1).is_zero()
        q = mk(2, {(1, 0): 1, (0, 1): 1})
        assert monomial_substitute(q, [(1, 1), (0, 2)], 2) == mk(
            2, {(1, 1): 1, (0, 2): 1}
        )

    def test_monomial_substitute_rejects_zero_image(self):
        with pytest.raises(ValueError):
            monomial_substitute(mk(2, {(1, 0): 1}), [(0, 0), (1, 0)], 2)


class TestHomogenization:
    def test_round_trip(self):
        p = mk(2, {(1, 0): 1, (0, 1): -1, (0, 0): 1})
        P = homogenize(p)
        assert isinstance(P, HomogPoly)
        assert P.inner.is_homogeneous()
        assert P.inner.ring.nvars == 3
        assert at_z0_one(P) == p

    def test_homogenize_golden(self):
        # 1 + x1 - x2 with extra variable z0 in front
        P = homogenize(mk(2, {(0, 0): 1, (1, 0): 1, (0, 1): -1}))
        assert P.inner == mk(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -1})

    def test_homogenize_rejects_laurent(self):
        with pytest.raises(ValueError):
            homogenize(mk(1, {(-1,): 1}, laurent=True))

    @given(nonzero_poly_st(nvars=3, max_exp=2))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, p):
        assert at_z0_one(homogenize(p)) == p


class TestWordFormat:
    @pytest.mark.parametrize("bound", [0, 1, 2, 7, 1000])
    def test_fields_hold_the_bound_at_both_ends(self, bound):
        words = WordFormat(Ring(3, True, ZZ), bound)
        for m in product((-bound, 0, bound), repeat=3):
            assert words.unpack(words.one + words.shift(m)) == m

    @given(term_dict_pairs())
    @settings(max_examples=200, deadline=None)
    def test_word_products_match_the_tuple_kernel(self, pair):
        # f keyed by words, g by shifts, in a format whose bound covers f
        # and the product: the word kernel makes the tuple kernel's terms
        f, g = pair
        expected = _mul_terms(f, g)
        nvars = len(next(iter({**f, **g}), (0,)))
        bound = max((abs(e) for m in [*f, *expected] for e in m), default=0)
        words = WordFormat(Ring(nvars, True, ZZ), bound)
        keyed = {words.one + words.shift(m): c for m, c in f.items()}
        out: dict = {}
        for m, c in words.shifts(g).items():
            _add_shifted_words(out, keyed, c, m)
        r = words.poly(out)
        assert r.term_dict() == expected
        assert typed_terms(r) == typed_terms(LaurentPoly(r.ring, expected))

    @given(st.integers(1, 4), st.integers(0, 1000), st.data())
    @settings(max_examples=300, deadline=None)
    def test_laurent_word_order_is_graded_lex(self, n, bound, data):
        monomial = st.tuples(*[st.integers(-bound, bound)] * n)
        a, b = data.draw(monomial), data.draw(monomial)
        words = WordFormat(Ring(n, True, ZZ), bound)
        wa, wb = words.one + words.shift(a), words.one + words.shift(b)
        assert (words.unpack(wa), words.unpack(wb)) == (a, b)
        assert (wa < wb) == (grlex_key(a) < grlex_key(b))
        assert (wa == wb) == (a == b)
        assert words.divides(wa, wb) == all(x <= y for x, y in zip(a, b))

    def test_ordinary_ring_has_no_bias(self):
        # fields of width 2 for exponents up to 1, and the degree field above
        words = WordFormat(R2, 1)
        assert words.one == 0
        assert words.shift((1, 0)) == 0b01_01_00
        assert words.shift((1, 1)) == 0b10_01_01
        assert words.unpack(words.shift((0, 1))) == (0, 1)


class TestLaurentNormalize:
    def test_split_golden(self):
        p = mk(2, {(-1, 2): 2, (0, 3): -4}, laurent=True)
        q, u = laurent_normalize(p)
        assert u == (-1, 2)
        assert q == mk(2, {(0, 0): 2, (1, 1): -4})
        assert not q.ring.laurent

    @given(nonzero_poly_st(laurent=True))
    @settings(max_examples=40, deadline=None)
    def test_reassembly(self, p):
        q, u = laurent_normalize(p)
        assert all(q.min_exponent(i) == 0 for i in range(2))
        assert q.to_laurent().mul_monomial(u) == p

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            laurent_normalize(mk(2, {}, laurent=True))


class TestDivision:
    def test_exact_divide_golden(self):
        p = mk(2, {(1, 0): 1, (0, 1): 1})
        q = mk(2, {(1, 0): 1, (0, 1): -1})
        assert exact_divide(p * q, q) == p
        assert exact_divide(p, q) is None

    def test_divide_by_zero(self):
        with pytest.raises(ValueError):
            exact_divide(mk(2, {(1, 0): 1}), mk(2, {}))

    def test_laurent_units_divide_everything(self):
        one = mk(2, {(0, 0): 1}, laurent=True)
        x = mk(2, {(1, 0): 1}, laurent=True)
        assert divides(x, one)
        assert exact_divide(one, x) == mk(2, {(-1, 0): 1}, laurent=True)

    @given(nonzero_poly_st(), nonzero_poly_st())
    @settings(max_examples=50, deadline=None)
    def test_product_divides_back(self, p, q):
        for a, b in (
            (p, q),
            (p.to_laurent(), q.to_laurent()),
            (p.to_domain(QQ), q.to_domain(QQ)),
        ):
            assert exact_divide(a * b, b) == a
            assert divides(b, a * b)
