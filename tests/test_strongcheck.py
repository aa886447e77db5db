"""Strong irreducibility / strong coprimality verdicts."""

import heapq
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongpoly import (
    Budgets,
    LaurentPoly,
    PROVED,
    PolyVector,
    REFUTED,
    ResourceBudgetExceeded,
    Ring,
    UNDECIDED,
    Verdict,
    ZZ,
    check_strongly_coprime,
    check_strongly_irreducible,
    check_vector_coprime,
    criterion_system,
    divides,
    genericity_sample,
    homogenize,
    monomial_substitute,
    parse_polynomial,
    power_substitute,
)
from strongpoly import factor, groebner, strongcheck

from conftest import mk, nonzero_poly_st

R2 = Ring(2, False, ZZ)
R3 = Ring(3, False, ZZ)


def check_refutation_reassembles(p, v):
    assert v.status == REFUTED
    k = tuple(v.witness["exponents"])
    factors = v.witness["factors"]
    assert len(factors) >= 2
    assert reduce(lambda a, b: a * b, factors) == power_substitute(p, k)
    return k


def assert_common_divisor_divides_both(p, q, v):
    g = v.witness["common_divisor"]
    assert not g.is_unit()
    m = p.ring.nvars
    for side, images in ((p, v.witness["images_p"]), (q, v.witness["images_q"])):
        evaluation = monomial_substitute(side, images, m).to_laurent()
        assert divides(g, evaluation)


class TestStronglyIrreducible:
    def test_linear_trinomial_proved_by_criterion(self):
        v = check_strongly_irreducible(mk(2, {(0, 0): 1, (1, 0): 1, (0, 1): -1}))
        assert v.status == PROVED
        assert v.rule == "criterion"

    def test_degree_one_is_not_a_shortcut(self):
        # x1 + 1 is irreducible but x1^3 + 1 is not: degree alone proves nothing
        p = mk(2, {(1, 0): 1, (0, 0): 1})
        v = check_strongly_irreducible(p)
        k = check_refutation_reassembles(p, v)
        assert k[0] >= 2

    def test_hyperbola_refuted_at_two(self):
        p = mk(2, {(1, 1): 1, (0, 0): -1})
        v = check_strongly_irreducible(p)
        k = check_refutation_reassembles(p, v)
        assert k == (2, 2)

    def test_positive_box_refutes_past_the_uniform_powers(self):
        # x1^2 - x2 stays irreducible at the one uniform power k = 1, and
        # the box's (1, 2) makes it x1^2 - x2^2
        p = parse_polynomial("x1^2 - x2")
        v = check_strongly_irreducible(p, Budgets(uniform_max=1))
        assert check_refutation_reassembles(p, v) == (1, 2)
        assert [f.to_text() for f in v.witness["factors"]] == ["x1 + x2", "x1 - x2"]

    def test_difference_refuted(self):
        p = mk(2, {(1, 0): 1, (0, 0): -1})
        check_refutation_reassembles(p, check_strongly_irreducible(p))

    def test_monomial_shifted_relation_refuted(self):
        p = mk(2, {(2, 1): 1, (0, 0): -1})  # x1^2*x2 - 1
        check_refutation_reassembles(p, check_strongly_irreducible(p))

    def test_reducible_inputs_refuted_at_one(self):
        p = mk(2, {(2, 0): 1, (1, 0): 2, (0, 0): 1})  # (x1 + 1)^2
        v = check_strongly_irreducible(p)
        check_refutation_reassembles(p, v)
        q = mk(2, {(1, 0): 2, (0, 0): 2})  # content 2
        check_refutation_reassembles(q, check_strongly_irreducible(q))

    @pytest.mark.parametrize(
        "text, laurent, status, rule, details, exponents, factors",
        [
            ("7", False, PROVED, "constant-prime", {"constant": 7}, None, None),
            ("-7", False, PROVED, "constant-prime", {"constant": -7}, None, None),
            ("6", False, REFUTED, None, {}, (), ["2", "3"]),
            ("6*x1^-1", True, REFUTED, None, {}, (1,), ["2*x1^-1", "3"]),
        ],
    )
    def test_constant_input(self, text, laurent, status, rule, details, exponents, factors):
        # is_irreducible settles a constant: its PROVED verdict comes back as
        # it is, and its factors carry the stripped monomial in p's ring
        p = parse_polynomial(text, laurent=laurent)
        v = check_strongly_irreducible(p)
        assert (v.status, v.rule, v.details) == (status, rule, details)
        if status == REFUTED:
            assert v.witness["exponents"] == exponents
            assert [f.to_text() for f in v.witness["factors"]] == factors
            check_refutation_reassembles(p, v)

    def test_laurent_input(self):
        p = mk(2, {(0, 0): 1, (1, 0): 1, (0, 1): -1}).to_laurent().mul_monomial((-1, 0))
        assert check_strongly_irreducible(p).status == PROVED

    def test_variable_permutation_invariance(self):
        a = mk(3, {(0, 0, 0): 1, (1, 0, 0): 2, (0, 1, 0): -1, (0, 0, 1): 1})
        b = mk(3, {(0, 0, 0): 1, (0, 0, 1): 2, (1, 0, 0): -1, (0, 1, 0): 1})
        va, vb = check_strongly_irreducible(a), check_strongly_irreducible(b)
        assert (va.status, va.rule) == (vb.status, vb.rule)

    def test_rejects_rational_domain(self):
        from strongpoly import QQ

        with pytest.raises(ValueError):
            check_strongly_irreducible(
                LaurentPoly(Ring(2, False, QQ), {(1, 0): 1, (0, 0): 1})
            )

    @given(st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=9, deadline=None)
    def test_uniform_powers_of_proved_member_stay_irreducible(self, k1, k2):
        from strongpoly import is_irreducible

        p = mk(2, {(0, 0): 1, (1, 0): 1, (0, 1): -1})
        assert check_strongly_irreducible(p).status == PROVED
        q = power_substitute(p, (k1, k1))  # uniform substitution only
        assert is_irreducible(q).status == PROVED


class TestCriterionSystem:
    def test_singular_locus_generators(self):
        P = homogenize(mk(2, {(0, 0): 1, (1, 0): 1, (0, 1): -1}))
        sys = criterion_system(P)
        assert sorted(g.to_text() for g in sys.generators) == ["-x3", "x1", "x2"]

    def test_absent_variables_dropped(self):
        P = homogenize(mk(2, {(2, 0): 1, (0, 0): 1}))  # x1^2 + 1, x2 absent
        sys = criterion_system(P)
        assert all("x3" not in g.to_text() for g in sys.generators)


class TestStronglyCoprime:
    def test_identical_polynomials_refuted(self):
        p = mk(2, {(0, 0): 1, (1, 0): 1, (0, 1): -1})
        v = check_strongly_coprime(p, p)
        assert v.status == REFUTED
        assert "common_divisor" in v.witness

    def test_fewer_variables_rule_both_sides(self):
        a = mk(3, {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): -1})
        b = mk(3, {(0, 0, 0): 1, (0, 0, 1): 1})
        va = check_strongly_coprime(a, b)
        assert (va.status, va.rule) == (PROVED, "fewer-variables")
        vb = check_strongly_coprime(b, a)
        assert (vb.status, vb.rule) == (PROVED, "fewer-variables")
        assert va.details["strongly_irreducible_side"] == "p"
        assert vb.details["strongly_irreducible_side"] == "q"

    def test_shared_image_refuted(self):
        # both sides map onto x1 - 1 under power substitutions
        p = mk(2, {(1, 0): 1, (0, 0): -1})
        q = mk(2, {(2, 0): 1, (0, 0): -1})
        v = check_strongly_coprime(p, q)
        assert v.status == REFUTED

    def test_shared_integer_content_refuted(self):
        # every evaluation of the pair shares the non-unit 2
        v = check_strongly_coprime(mk(1, {(1,): 2, (0,): 2}), mk(1, {(1,): 4, (0,): 6}))
        assert v.status == REFUTED
        assert v.witness["common_divisor"].to_text() == "2"

    @pytest.mark.parametrize(
        "p, q",
        [
            (mk(2, {(0, 0): 4}), mk(2, {(0, 0): 6})),
            (mk(2, {(1, 0): 4}), mk(2, {(1, 0): 6})),
            (mk(2, {(1, 0): 4}, laurent=True), mk(2, {(0, 1): -6}, laurent=True)),
        ],
    )
    def test_constant_evaluations_count_their_content_once(self, p, q):
        v = check_strongly_coprime(p, q)
        assert v.status == REFUTED
        assert v.witness["common_divisor"].to_text() == "2"
        assert_common_divisor_divides_both(p, q, v)

    @given(
        st.sampled_from([1, 2, 6]),
        nonzero_poly_st(nvars=2, max_exp=2, max_terms=3, max_coeff=4),
        nonzero_poly_st(nvars=2, max_exp=2, max_terms=2, max_coeff=4),
        nonzero_poly_st(nvars=2, max_exp=2, max_terms=2, max_coeff=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_common_divisor_divides_both_evaluations(self, c, shared, a, b):
        p, q = shared * a, (shared * b).scale(c)
        v = check_strongly_coprime(p, q)
        if v.is_refuted:
            assert_common_divisor_divides_both(p, q, v)

    def test_laurent_unit_side_is_not_certified(self):
        # the fewer-variables route used to ask whether the unit x2 is
        # strongly irreducible, and raised
        v = check_strongly_coprime(mk(2, {(0, 0): 1}), mk(2, {(0, 1): 1}))
        assert v.status == UNDECIDED

    def test_out_of_reach_pair_is_undecided(self):
        p = mk(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        q = mk(2, {(0, 0): 2, (1, 0): 1, (0, 1): -1})
        v = check_strongly_coprime(p, q)
        assert v.status == UNDECIDED

    def test_ring_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_strongly_coprime(mk(2, {(1, 0): 1}), mk(3, {(1, 0, 0): 1}))


class TestVectorCoprime:
    def test_length_mismatch(self):
        p = mk(2, {(0, 0): 1, (1, 0): 1, (0, 1): -1})
        with pytest.raises(ValueError):
            check_vector_coprime(PolyVector((p,)), PolyVector((p, p)))

    def test_one_good_component_suffices(self):
        p = mk(3, {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): -1})
        q = mk(3, {(0, 0, 0): 1, (0, 0, 1): 1})
        v = check_vector_coprime(PolyVector((p, p)), PolyVector((p, q)))
        assert v.status == PROVED
        assert v.rule == "componentwise"
        assert v.details["index"] == 1

    def test_all_components_refuted(self):
        p = mk(2, {(0, 0): 1, (1, 0): 1, (0, 1): -1})
        v = check_vector_coprime(PolyVector((p, p)), PolyVector((p, p)))
        assert v.status == REFUTED

    def test_mixed_outcome_is_undecided(self):
        p = mk(2, {(0, 0): 1, (1, 0): 1, (0, 1): -1})
        a = mk(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        b = mk(2, {(0, 0): 2, (1, 0): 1, (0, 1): -1})
        v = check_vector_coprime(PolyVector((p, a)), PolyVector((p, b)))
        assert v.status == UNDECIDED


class TestGenericity:
    def test_deterministic_for_fixed_seed(self):
        a = genericity_sample(3, 2, trials=20, coeff_box=5, rng_seed=11)
        b = genericity_sample(3, 2, trials=20, coeff_box=5, rng_seed=11)
        assert a == b
        assert 0 <= a.passes <= 20
        assert a.pass_rate == a.passes / 20

    def test_seed_changes_sample(self):
        a = genericity_sample(3, 2, trials=30, coeff_box=2, rng_seed=1)
        b = genericity_sample(3, 2, trials=30, coeff_box=2, rng_seed=2)
        # same configuration, different draw; rates live in a narrow band
        assert a.trials == b.trials == 30

    def test_validation(self):
        with pytest.raises(ValueError):
            genericity_sample(2, 2, trials=5)
        with pytest.raises(ValueError):
            genericity_sample(3, 0, trials=5)
        with pytest.raises(ValueError):
            genericity_sample(3, 2, trials=0)
        with pytest.raises(ValueError):
            genericity_sample(3, 2, trials=5, coeff_box=0)


class TestCriterionWork:
    def test_dense_cubic_proof_reduces_few_pairs(self, monkeypatch):
        # a dense three-variable cubic: its criterion runs skip the pairs of
        # every degree the complete-intersection Hilbert function fills, so
        # the proof takes 42 normal forms, not the 91 (55 of them zero) of a
        # pair loop without it.  A pair whose lcm degree passes Lazard's cap
        # would never be popped, so it is never queued either.
        p = parse_polynomial(
            "-7*x3^3 - 8*x2*x3^2 - 9*x2^2*x3 + 7*x2^3 - 6*x1*x3^2 + x1*x2*x3"
            " - 7*x1*x2^2 + 3*x1^2*x3 - 8*x1^2*x2 + 8*x1^3 - 6*x3^2 + 8*x2*x3 + x2^2"
            " - x1*x3 + 2*x1*x2 + 8*x1^2 + 5*x3 + 7*x2 - 5*x1 + 8",
            nvars=3,
        )
        calls = []
        normal_form = groebner._normal_form

        def counted(f, red):
            calls.append(1)
            return normal_form(f, red)

        runs = []
        complete = groebner._complete

        def spied_complete(red, max_pairs, cap=None, hilbert=None):
            runs.append((cap, red.words, []))
            return complete(red, max_pairs, cap, hilbert)

        class SpiedHeap:
            heapify = staticmethod(heapq.heapify)
            heappop = staticmethod(heapq.heappop)

            @staticmethod
            def heappush(heap, entry):
                if isinstance(entry, tuple):  # an S-pair (lcm, i, j)
                    runs[-1][2].append(entry[0])
                heapq.heappush(heap, entry)

        monkeypatch.setattr(groebner, "_normal_form", counted)
        monkeypatch.setattr(groebner, "_complete", spied_complete)
        monkeypatch.setattr(groebner, "heapq", SpiedHeap)
        v = check_strongly_irreducible(p)
        assert (v.status, v.rule) == (PROVED, "criterion")
        assert len(calls) == 42
        assert any(queued for _, _, queued in runs)
        for cap, words, queued in runs:
            assert all(sum(words.unpack(L)) <= cap for L in queued)


class TestOptions:
    def test_small_search_box_turns_refutation_into_undecided(self, monkeypatch):
        # x1^5 - 1 factors only at substitution exponents the tiny box misses
        p = mk(2, {(5, 0): 1, (0, 0): -1})
        full = check_strongly_irreducible(p)
        assert full.status == REFUTED
        monkeypatch.setattr(strongcheck, "BOX_MAX", 1)
        tiny = check_strongly_irreducible(p, Budgets(uniform_max=1))
        assert tiny.status in (REFUTED, UNDECIDED)


class TestRefutationSearch:
    def test_undecided_substitutions_are_noted(self):
        # every substitution's Kronecker image is past the degree budget
        p = parse_polynomial("(x1 + x2)^2")
        v = check_strongly_irreducible(p, Budgets(max_kron_degree=1))
        assert (v.status, v.reason) == (UNDECIDED, "criterion-failed-no-witness")
        assert v.details["substitutions_tried"] == 18
        assert v.details["search_resource"] == "resource-kronecker"

    def test_budget_raised_by_a_substitution_is_noted(self):
        # at k = 4 the degree 360 is past factor.MAX_UV_DEGREE
        v = check_strongly_irreducible(parse_polynomial("x1^90 + x1 + 1"))
        assert (v.status, v.reason) == (UNDECIDED, "univariate-criterion-inapplicable")
        assert v.details["substitutions_tried"] == 6
        assert v.details["search_resource"] == "factor-degree"

    def test_box_is_truncated(self):
        p = parse_polynomial("x1*x2*x3*x4*x5 - 2")
        v = check_strongly_irreducible(p, Budgets(uniform_max=1))
        assert v.status == UNDECIDED
        assert v.details["substitutions_tried"] == strongcheck.MAX_BOX_CANDIDATES
        assert v.details["box_truncated"] is True

    @pytest.mark.parametrize(
        "text, laurents, exponents, factors",
        [
            ("6*x1", (False, True), (1, 1, 1, 1), ["2*x1", "3"]),
            ("x1^2*x3*(x1*x3 - 1)", (False, True), (2, 1, 2, 1),
             ["x1^5*x3^3 + x1^4*x3^2", "x1*x3 - 1"]),
            ("x4*(x2^2*x3^2 - 1)", (False, True), (1, 1, 1, 1),
             ["x2*x3*x4 + x4", "x2*x3 - 1"]),
            ("x1^-1*x2 - 4", (True,), (2, 2, 1, 1), ["-2*x1^-1 + x1^-2*x2", "2*x1 + x2"]),
        ],
    )
    def test_witness_carries_the_unit_in_p_ring(self, text, laurents, exponents, factors):
        # unused variables get exponent 1, and is_irreducible puts the
        # monomial unit x^(u*t) back on the first factor
        for laurent in laurents:
            p = parse_polynomial(text, 4, laurent=laurent)
            v = check_strongly_irreducible(p)
            assert check_refutation_reassembles(p, v) == exponents
            assert [f.to_text() for f in v.witness["factors"]] == factors
            assert all(f.ring == p.ring for f in v.witness["factors"])


class TestImageMemo:
    # sparse substitutions q(x^t): at the all-ones point those with the same
    # main-variable exponent share one univariate image.  Some are proved
    # irreducible and some are not; the last one's images have degree 324,
    # past factor.MAX_UV_DEGREE, so factoring each exceeds the degree budget.
    SUBSTITUTIONS = [
        (mk(2, {(4, 0): 1, (1, 3): 2, (0, 0): -3}), (1, 1)),
        (mk(2, {(4, 0): 1, (1, 3): 2, (0, 0): -3}), (2, 3)),
        (mk(2, {(4, 0): 1, (1, 3): 2, (0, 0): -3}), (4, 4)),
        (mk(2, {(2, 1): 1, (0, 0): -4}), (1, 1)),
        (mk(2, {(2, 1): 1, (0, 0): -4}), (1, 2)),
        (mk(2, {(2, 1): 1, (0, 0): -4}), (2, 2)),
        (mk(2, {(2, 1): 1, (0, 0): -4}), (3, 2)),
        (mk(2, {(4, 0): 1, (1, 3): 2, (0, 0): -3}), (81, 110)),
    ]

    def test_memo_gives_the_answers_computed_without_it(self):
        subs = [power_substitute(p, t) for p, t in self.SUBSTITUTIONS]
        with pytest.raises(ResourceBudgetExceeded):
            factor._uv_factor_primitive([-3] + [0] * 323 + [1])
        plain = [factor._specialization_proved(s) for s in subs]
        assert True in plain and False in plain
        assert factor._IMAGE_MEMO.get() is None
        memo = {}
        token = factor._IMAGE_MEMO.set(memo)
        try:
            memoized = [factor._specialization_proved(s) for s in subs + subs[::-1]]
        finally:
            factor._IMAGE_MEMO.reset(token)
        assert memoized == plain + plain[::-1]
        assert memo[(-3,) + (0,) * 323 + (1,)] is False
        assert factor._IMAGE_MEMO.get() is None

    def test_memo_lives_for_one_search(self, monkeypatch):
        p = mk(2, {(4, 0): 1, (1, 3): 2, (0, 0): -3})
        seen = []
        irreducible = strongcheck.is_irreducible

        def watching(sub, budgets):
            seen.append(factor._IMAGE_MEMO.get())
            return irreducible(sub, budgets)

        monkeypatch.setattr(strongcheck, "is_irreducible", watching)
        check_strongly_irreducible(p)
        assert seen and all(memo is seen[0] and isinstance(memo, dict) for memo in seen)
        assert factor._IMAGE_MEMO.get() is None

        def failing(sub, budgets):
            raise RuntimeError("stop the search")

        monkeypatch.setattr(strongcheck, "is_irreducible", failing)
        with pytest.raises(RuntimeError):
            check_strongly_irreducible(p)
        assert factor._IMAGE_MEMO.get() is None


class TestVerdict:
    def test_proved_rule_outside_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            Verdict(PROVED, rule="linear-rank")
