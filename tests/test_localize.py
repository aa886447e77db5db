"""PID reduction of exponent ideals in the coprime localization."""

import dataclasses
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongpoly import (
    DivisorSetQuery,
    LaurentPoly,
    LocalizedIdeal,
    PROVED,
    REFUTED,
    ReductionResult,
    UNDECIDED,
    Ring,
    ZZ,
    blanchfield_self_link_witness,
    build_family_poly,
    coprime,
    divides,
    divisor_set_member,
    family_corpus,
    is_irreducible,
    parse_polynomial,
    reduce_localized_ideal,
    reduce_multi_prime,
    verify_principality,
)
from strongpoly import alexander, factor, localize, ring

from conftest import localized_instances, mk, poly_st

L2 = Ring(2, True, ZZ)
P = mk(2, {(0, 0): 1, (1, 0): 1, (0, 1): -1}, laurent=True)  # 1 + x1 - x2
Q = mk(2, {(0, 0): 1, (1, 1): 1}, laurent=True)  # 1 + x1*x2
R = mk(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}, laurent=True)  # 1 + x1 + x2


def ideal(gens):
    return LocalizedIdeal(P, Q, tuple(gens))


def power_product(primes, exps):
    out = LaurentPoly.one(primes[0].ring)
    for base, e in zip(primes, exps):
        out = out * base**e
    return out


def check_combination(primes, gens, result):
    lhs = power_product(primes, result.generator)
    for w in result.witnesses:
        lhs = lhs * w
    rhs = LaurentPoly.zero(primes[0].ring)
    for c, g in zip(result.combination, gens):
        rhs = rhs + c * power_product(primes, g)
    assert lhs == rhs


class TestConstruction:
    def test_certificates_computed_and_required(self):
        I = ideal([(1, 1)])
        assert I.p_certificate.status == PROVED
        assert I.q_certificate.status == PROVED

    def test_reducible_prime_rejected(self):
        with pytest.raises(ValueError):
            LocalizedIdeal(P * Q, R, ((1, 1),))

    def test_non_coprime_pair_rejected(self):
        with pytest.raises(ValueError):
            LocalizedIdeal(P, P, ((1, 1),))

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            ideal([(1, -1)])

    def test_certificates_are_computed_not_handed_in(self):
        # a PROVED verdict about R must not vouch for the reducible P*Q
        with pytest.raises(TypeError):
            LocalizedIdeal(P * Q, R, ((1, 1),), p_certificate=is_irreducible(R))
        init = [f.name for f in dataclasses.fields(LocalizedIdeal) if f.init]
        assert init == ["p", "q", "generators"]

    def test_ring_mismatch_rejected(self):
        other = mk(3, {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): -1}, laurent=True)
        with pytest.raises(ValueError):
            LocalizedIdeal(P, other, ((1, 1),))


class TestReduction:
    def test_crossing_pair(self):
        result = reduce_localized_ideal(ideal([(1, 3), (2, 1)]))
        assert result.generator == (1, 1)
        assert len(result.witnesses) == 1
        # leftovers are q^2 and p on disjoint supports, unit shift not needed
        assert result.witnesses[0] == Q * Q + P
        assert coprime(result.witnesses[0], P * Q)
        check_combination((P, Q), [(1, 3), (2, 1)], result)

    def test_zero_vector_absorbs(self):
        result = reduce_localized_ideal(ideal([(0, 0), (5, 7)]))
        assert result.generator == (0, 0)
        assert result.witnesses == ()

    def test_dominating_input_dropped(self):
        result = reduce_localized_ideal(ideal([(2, 2), (3, 4)]))
        assert result.generator == (2, 2)
        assert result.witnesses == ()

    def test_dominating_input_after_a_crossing_keeps_the_witness(self):
        gens = [(1, 3), (2, 1), (0, 0)]
        result = reduce_localized_ideal(ideal(gens))
        assert result.generator == (0, 0)
        assert result.witnesses == (Q * Q + P,)
        check_combination((P, Q), gens, result)

    def test_singleton(self):
        result = reduce_localized_ideal(ideal([(3, 2)]))
        assert result.generator == (3, 2)
        assert result.combination[0].to_text() == "1"

    def test_empty_ideal_rejected(self):
        with pytest.raises(ValueError):
            reduce_localized_ideal(ideal([]))

    def test_generator_is_componentwise_minimum(self):
        rng = random.Random(2)
        for _ in range(15):
            gens = [
                (rng.randint(0, 5), rng.randint(0, 5))
                for _ in range(rng.randint(2, 4))
            ]
            result = reduce_localized_ideal(ideal(gens))
            assert result.generator == (
                min(s for s, _ in gens),
                min(t for _, t in gens),
            )
            check_combination((P, Q), gens, result)
            for w in result.witnesses:
                assert coprime(w, P * Q)

    def test_input_order_does_not_change_generator(self):
        gens = [(1, 3), (2, 1), (0, 4)]
        a = reduce_localized_ideal(ideal(gens))
        b = reduce_localized_ideal(ideal(list(reversed(gens))))
        assert a.generator == b.generator == (0, 1)


def with_generator(I, gen):
    """I's reduction with its generator replaced by gen, witnesses and
    combination kept."""
    return dataclasses.replace(reduce_localized_ideal(I), generator=gen)


class TestVerify:
    def test_accepts_reduction_result_and_pair(self):
        I = ideal([(1, 3), (2, 1)])
        result = reduce_localized_ideal(I)
        assert verify_principality(I, result)
        assert verify_principality(I, with_generator(I, (1, 1)))

    def test_rejects_strict_divisor_of_the_generator(self):
        # (0, 0) divides every input but is not reachable as a combination
        I = ideal([(1, 3), (2, 1)])
        assert not verify_principality(I, with_generator(I, (0, 0)))

    def test_rejects_non_divisor(self):
        I = ideal([(1, 3), (2, 1)])
        assert not verify_principality(I, with_generator(I, (2, 1)))
        assert not verify_principality(I, with_generator(I, (1, 2)))
        assert not verify_principality(I, with_generator(I, (-1, 1)))

    def test_singleton_and_zero(self):
        for gen in [(2, 0), (0, 0)]:
            I = ideal([gen])
            assert verify_principality(I, with_generator(I, gen))

    def test_rejects_a_swapped_witness(self):
        I = ideal([(1, 3), (2, 1)])
        result = reduce_localized_ideal(I)
        forged = dataclasses.replace(result, witnesses=(P * P + Q,))
        assert coprime(P * P + Q, P * Q)
        assert not verify_principality(I, forged)

    def test_rejects_an_altered_combination(self):
        I = ideal([(1, 3), (2, 1)])
        result = reduce_localized_ideal(I)
        altered = (result.combination[0] + P,) + result.combination[1:]
        assert not verify_principality(I, dataclasses.replace(result, combination=altered))
        assert not verify_principality(I, dataclasses.replace(result, combination=altered[:1]))

    def test_rejects_a_witness_with_a_prime_content_factor(self):
        # the identity 1 * (2*x1 + 2) == (x1 + 1) * 2 holds and (0, 0) divides
        # the input, but the prime 2 divides the witness
        two, three = (mk(1, {(0,): c}, laurent=True) for c in (2, 3))
        witness = mk(1, {(1,): 2, (0,): 2}, laurent=True)
        combination = mk(1, {(1,): 1, (0,): 1}, laurent=True)
        I = LocalizedIdeal(two, three, ((1, 0),))
        forged = ReductionResult((0, 0), (witness,), (combination,))
        assert not verify_principality(I, forged)

    def test_result_is_audited_without_replay_or_division(self, monkeypatch):
        I = ideal([(1, 3), (2, 1), (0, 4)])
        result = reduce_localized_ideal(I)

        def forbidden(*args, **kwargs):
            raise AssertionError("the audit must not replay or divide")

        # the only divisions are the tests that no prime divides a witness
        divisors = []
        divide = ring.exact_divide

        def prime_divisions_only(f, g):
            if g not in (I.p, I.q):
                forbidden()
            divisors.append(g)
            return divide(f, g)

        monkeypatch.setattr(localize, "_reduce_vectors", forbidden)
        monkeypatch.setattr(ring, "exact_divide", prime_divisions_only)
        assert verify_principality(I, result)
        assert len(divisors) == 2 * len(result.witnesses)

    def test_each_prime_power_is_made_once_per_call(self, monkeypatch):
        # seed-1 localize benchmark instance 6; recomputing every power by
        # square-and-multiply spent 4068 term products here
        p = parse_polynomial("-2*x1 + 4*x2 - 2*x3 + 1", nvars=3)
        q = parse_polynomial("-x1 + 2*x2 - x3 + 1", nvars=3)
        I = LocalizedIdeal(p, q, ((4, 3), (5, 5)))
        spent = [0]
        kernel = ring._mul_terms

        def counting(f, g):
            spent[0] += len(f) * len(g)
            return kernel(f, g)

        monkeypatch.setattr(ring, "_mul_terms", counting)
        assert verify_principality(I, reduce_localized_ideal(I))
        assert spent[0] <= 2600

    def test_a_huge_power_is_made_by_squaring(self, monkeypatch):
        two = parse_polynomial("2", nvars=1)
        three = parse_polynomial("3", nvars=1)
        I = LocalizedIdeal(two, three, ((10**4, 0), (0, 1)))
        calls = [0]
        kernel = ring._mul_terms

        def counting(f, g):
            calls[0] += 1
            return kernel(f, g)

        monkeypatch.setattr(ring, "_mul_terms", counting)
        result = reduce_localized_ideal(I)
        assert result.generator == (0, 0)
        assert verify_principality(I, result)
        assert calls[0] <= 200


class TestMultiPrime:
    PRIMES = (P, Q, R)

    def test_three_prime_reduction(self):
        vectors = [(1, 2, 1), (2, 1, 1), (1, 1, 2)]
        result = reduce_multi_prime(self.PRIMES, vectors)
        assert result.generator == (1, 1, 1)
        check_combination(self.PRIMES, vectors, result)
        prod = P * Q * R
        for w in result.witnesses:
            assert coprime(w, prod)

    def test_no_prime_divides_a_witness(self):
        # u = 1 gives (x1 + 1) + (x1 + 3) = 2 * (x1 + 2), which the prime 2
        # divides; gcd-based coprimality took it, as it drops integer content
        primes = tuple(parse_polynomial(t, nvars=1, laurent=True) for t in ("2", "x1 + 1", "x1 + 3"))
        result = reduce_multi_prime(primes, [(0, 1, 0), (0, 0, 1)])
        assert result.generator == (0, 0, 0)
        assert [w.to_text() for w in result.witnesses] == ["x1^2 + 4*x1 + 1"]

    def test_randomized_instances(self):
        rng = random.Random(4)
        for _ in range(8):
            vectors = [
                tuple(rng.randint(0, 3) for _ in range(3))
                for _ in range(rng.randint(2, 4))
            ]
            result = reduce_multi_prime(self.PRIMES, vectors)
            assert result.generator == tuple(
                min(v[i] for v in vectors) for i in range(3)
            )
            check_combination(self.PRIMES, vectors, result)

    def test_validation(self):
        with pytest.raises(ValueError):
            reduce_multi_prime((), [(1,)])
        with pytest.raises(ValueError):
            reduce_multi_prime((P, P), [(1, 1)])
        with pytest.raises(ValueError):
            reduce_multi_prime((P * Q, R), [(1, 1)])
        with pytest.raises(ValueError):
            reduce_multi_prime(self.PRIMES, [(1, 1)])
        with pytest.raises(ValueError):
            reduce_multi_prime(self.PRIMES, [(1, 1, -1)])


class TestNoGcd:
    """The primes are certified irreducible, so coprimality with them is
    decided by dividing by each; no gcd is computed."""

    def test_acceptance_inputs_run_without_a_gcd(self, monkeypatch):
        instances = localized_instances()

        def forbidden(*args, **kwargs):
            raise AssertionError("poly_gcd called")

        monkeypatch.setattr(factor, "poly_gcd", forbidden)
        monkeypatch.setattr(alexander, "poly_gcd", forbidden)
        assert not hasattr(localize, "poly_gcd") and not hasattr(localize, "coprime")
        for p, q, gens in instances:
            I = LocalizedIdeal(p, q, tuple(gens))
            result = reduce_localized_ideal(I)
            assert verify_principality(I, result)
            assert reduce_multi_prime((p, q), gens) == result
            assert not blanchfield_self_link_witness(p, q).is_zero

    PAIRS = [
        (p, q)
        for p, q in combinations([build_family_poly(s) for s in family_corpus(2)], 2)
        if p.ring == q.ring and p.ring.nvars <= 3
    ]

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_coprime_to_two_primes_is_divisible_by_neither(self, data):
        p, q = data.draw(st.sampled_from(self.PAIRS))
        r = data.draw(poly_st(p.ring.nvars, laurent=True, max_exp=2, max_terms=4, max_coeff=6))
        w = r * data.draw(st.sampled_from((LaurentPoly.one(p.ring), p, q)))
        assert coprime(w, p * q) == (not (divides(p, w) or divides(q, w)))


class TestDivisorSet:
    def test_simple_member(self):
        # x1 - 2 misses one of p's variables and is strongly irreducible
        cand = mk(1, {(1,): 1, (0,): -2})
        v = divisor_set_member(DivisorSetQuery(P, (((cand, ((1, 0),))),)))
        assert v.status == PROVED
        assert v.rule == "componentwise"

    def test_factor_is_evaluated_at_its_images(self):
        # x1 - 2 at x1 -> x1*x2 is x1*x2 - 2, which uses both of p's variables,
        # so the fewer-variables rule no longer applies
        cand = mk(1, {(1,): 1, (0,): -2})
        v = divisor_set_member(DivisorSetQuery(P, ((cand, ((1, 1),)),)))
        assert v.status == UNDECIDED
        assert v.details["factor_index"] == 0

    def test_factor_equal_to_p_refuted(self):
        v = divisor_set_member(DivisorSetQuery(P, ((P, ((1, 0), (0, 1))),)))
        assert v.status == REFUTED
        assert v.witness["factor_index"] == 0

    def test_vanishing_at_ones_rejected(self):
        bad = mk(1, {(1,): 1, (0,): -1})  # x1 - 1
        with pytest.raises(ValueError):
            DivisorSetQuery(P, ((bad, ((1, 0),)),))

    def test_zero_image_rejected(self):
        cand = mk(1, {(1,): 1, (0,): -2})
        with pytest.raises(ValueError):
            DivisorSetQuery(P, ((cand, ((0, 0),)),))

    def test_image_arity_checked(self):
        cand = mk(1, {(1,): 1, (0,): -2})
        with pytest.raises(ValueError):
            DivisorSetQuery(P, ((cand, ((1,),)),))
        with pytest.raises(ValueError):
            DivisorSetQuery(P, ((cand, ()),))
