"""Buchberger engine: reduced bases, membership, radicals, trivial-zero test."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strongpoly import (
    Budgets,
    IdealBasis,
    LaurentPoly,
    QQ,
    ResourceBudgetExceeded,
    Ring,
    buchberger,
    homogenize,
    only_trivial_solution,
    parse_polynomial,
)
from strongpoly import groebner
from strongpoly.groebner import MAX_WORD_DEGREE, PRIME, radical_member
from strongpoly.ring import WordFormat, grlex_key, mono_divides
from strongpoly.strongcheck import criterion_system

from conftest import nonzero_poly_st, reduces_to_zero

Q3 = Ring(3, False, QQ)


def basis(ring, *term_dicts):
    return IdealBasis.from_polys([LaurentPoly(ring, d) for d in term_dicts], ring)


def text_basis(G):
    return sorted(g.to_text() for g in G.polys)


def budget_ideal():
    return basis(
        Q3,
        {(2, 1, 0): 1, (0, 0, 2): -1},
        {(1, 2, 0): 1, (0, 0, 1): -3},
        {(0, 3, 1): 1, (1, 0, 0): 5},
    )


class TestBuchberger:
    def test_twisted_cubic_reduced_basis(self):
        # <x1^2 - x2, x1^3 - x3> in grlex
        I = basis(Q3, {(2, 0, 0): 1, (0, 1, 0): -1}, {(3, 0, 0): 1, (0, 0, 1): -1})
        G = buchberger(I)
        assert text_basis(G) == [
            "x1*x2 - x3",
            "x1*x3 - x2^2",
            "x1^2 - x2",
            "x2^3 - x3^2",
        ]

    def test_unit_ideal_collapses_to_one(self):
        I = basis(Q3, {(1, 0, 0): 1}, {(1, 0, 0): 1, (0, 0, 0): 1})
        G = buchberger(I)
        assert text_basis(G) == ["1"]
        assert G.is_unit_ideal()

    def test_zero_ideal(self):
        G = buchberger(IdealBasis(Q3, ()))
        assert G.polys == ()
        assert not G.is_unit_ideal()

    def test_reduced_basis_is_input_order_invariant(self):
        gens = [
            {(2, 0, 0): 1, (0, 1, 0): -1},
            {(3, 0, 0): 1, (0, 0, 1): -1},
            {(1, 1, 0): 1, (0, 0, 1): -1},
        ]
        ref = text_basis(buchberger(basis(Q3, *gens)))
        assert text_basis(buchberger(basis(Q3, *reversed(gens)))) == ref

    def test_pair_budget_enforced(self):
        with pytest.raises(ResourceBudgetExceeded):
            buchberger(budget_ideal(), Budgets(max_pairs=1))

    def test_reduction_work_budget_enforced(self, monkeypatch):
        monkeypatch.setattr(groebner, "MAX_REDUCTION_WORK", 10)
        with pytest.raises(ResourceBudgetExceeded) as info:
            buchberger(budget_ideal())
        assert info.value.kind == "gb-work"

    def test_pair_budget_trip_point(self):
        # pins the S-pair sequence that --gb-steps counts: 21 pops, no fewer
        with pytest.raises(ResourceBudgetExceeded):
            buchberger(budget_ideal(), Budgets(max_pairs=20))
        G = buchberger(budget_ideal(), Budgets(max_pairs=21))
        assert text_basis(G) == [
            "x1*x2^2 - 3*x3",
            "x1*x3",
            "x1^2",
            "x2^3*x3 + 5*x1",
            "x3^2",
        ]

    @given(
        st.integers(2, 3).flatmap(
            lambda n: st.lists(
                nonzero_poly_st(nvars=n, max_exp=2, max_terms=3), min_size=1, max_size=3
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_output_is_a_reduced_groebner_certificate(self, gens):
        gens = [g.to_domain(QQ) for g in gens]
        try:
            G = buchberger(IdealBasis.from_polys(gens))
        except ResourceBudgetExceeded:
            assume(False)
        leads = [g.leading_monomial() for g in G.polys]
        for g in G.polys:
            assert g.leading_coefficient() == 1
        for i, a in enumerate(leads):
            for j, b in enumerate(leads):
                assert i == j or not all(x <= y for x, y in zip(a, b))
        for g in gens:
            assert reduces_to_zero(g, G.polys)
        for i, f in enumerate(G.polys):
            for g in G.polys[i + 1:]:
                L = tuple(map(max, f.leading_monomial(), g.leading_monomial()))
                s = f.mul_monomial(
                    [x - y for x, y in zip(L, f.leading_monomial())]
                ) - g.mul_monomial([x - y for x, y in zip(L, g.leading_monomial())])
                assert reduces_to_zero(s, G.polys)


def exponents(n):
    # small, bounded so that n of them stay below the word limit, or any
    return st.integers(0, 3) | st.integers(0, (MAX_WORD_DEGREE - 1) // n) | st.integers(
        0, MAX_WORD_DEGREE - 1
    )


def buchberger_words(n):
    return WordFormat(Ring(n, False, QQ), MAX_WORD_DEGREE - 1)


class TestWords:
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(st.tuples(*[exponents(n)] * n), min_size=2, max_size=2)
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_words_follow_the_monomials(self, monos):
        # an ordinary ring's words are their shifts, so Buchberger packs by
        # shift after its degree check
        a, b = monos
        words = buchberger_words(len(a))
        for m in monos:
            if sum(m) >= MAX_WORD_DEGREE:
                with pytest.raises(ResourceBudgetExceeded) as info:
                    groebner._pack(words, {m: 1})
                assert info.value.kind == "gb-degree"
        assume(max(sum(a), sum(b)) < MAX_WORD_DEGREE)
        wa, wb = words.shift(a), words.shift(b)
        assert (words.unpack(wa), words.unpack(wb)) == (a, b)
        assert (wa < wb) == (grlex_key(a) < grlex_key(b))
        assert (wa == wb) == (a == b)
        assert words.divides(wa, wb) == mono_divides(a, b)
        assert words.divides(wb, wa) == mono_divides(b, a)
        lcm = tuple(map(max, a, b))
        if sum(lcm) < MAX_WORD_DEGREE:
            assert words.lcm(wa, wb) == words.lcm(wb, wa) == words.shift(lcm)
        else:
            with pytest.raises(ResourceBudgetExceeded) as info:
                groebner._pair_lcm(words, wa, wb)
            assert info.value.kind == "gb-degree"

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(*[exponents(n)] * n)))
    @settings(max_examples=300, deadline=None)
    def test_words_keep_the_32_bit_layout(self, m):
        # deg << 32n | e_0 << 32(n-1) | ... | e_{n-1}, the layout Buchberger
        # has packed since its words began
        assume(sum(m) < MAX_WORD_DEGREE)
        words = buchberger_words(len(m))
        old = sum(m)
        for e in m:
            old = old << 32 | e
        assert words.one == 0
        assert words.shift(m) == old
        assert words.top == 32 * len(m)

    def test_degree_past_the_word_limit_is_a_budget(self):
        R2 = Ring(2, False, QQ)
        G = buchberger(basis(R2, {(MAX_WORD_DEGREE - 1, 0): 1, (0, 1): -1}))
        assert text_basis(G) == [f"x1^{MAX_WORD_DEGREE - 1} - x2"]
        # an input monomial of degree 2^31
        with pytest.raises(ResourceBudgetExceeded) as info:
            buchberger(basis(R2, {(MAX_WORD_DEGREE, 0): 1, (0, 1): -1}))
        assert info.value.kind == "gb-degree"
        # a pair whose lcm x1^(2^30) * x2^(2^30) has degree 2^31
        half = MAX_WORD_DEGREE // 2
        with pytest.raises(ResourceBudgetExceeded) as info:
            buchberger(basis(R2, {(half, 0): 1, (0, 1): 1}, {(0, half): 1, (1, 0): 1}))
        assert info.value.kind == "gb-degree"


class TestMembership:
    def test_ideal_member_golden(self):
        I = basis(Q3, {(2, 0, 0): 1, (0, 1, 0): -1}, {(3, 0, 0): 1, (0, 0, 1): -1})
        G = buchberger(I)
        # x2^2 - x1*x3 vanishes on the curve (t, t^2, t^3)
        assert reduces_to_zero(LaurentPoly(Q3, {(0, 2, 0): 1, (1, 0, 1): -1}), G.polys)
        assert not reduces_to_zero(LaurentPoly(Q3, {(0, 1, 0): 1}), G.polys)

    @given(nonzero_poly_st(nvars=2, max_exp=2, max_terms=3))
    @settings(max_examples=25, deadline=None)
    def test_combinations_are_members(self, f):
        R = Ring(2, False, QQ)
        f = f.to_domain(QQ)
        g1 = LaurentPoly(R, {(1, 0): 1, (0, 1): -1})
        g2 = LaurentPoly(R, {(0, 2): 1, (0, 0): 1})
        G = buchberger(IdealBasis.from_polys([g1, g2], R))
        assert reduces_to_zero(f * g1 + g2, G.polys)


class TestRadical:
    def test_radical_triple(self):
        R2 = Ring(2, False, QQ)
        x1 = LaurentPoly(R2, {(1, 0): 1})
        x2 = LaurentPoly(R2, {(0, 1): 1})
        assert radical_member(x1, IdealBasis.from_polys([x1 * x1], R2))
        assert not radical_member(x1, IdealBasis.from_polys([x2], R2))
        assert radical_member(
            x1 + x2, IdealBasis.from_polys([x1 * x1, x2 * x2], R2)
        )


class TestOnlyTrivialSolution:
    def test_full_variable_system(self):
        I = basis(Q3, {(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1})
        assert only_trivial_solution(I)

    def test_squares_of_variables(self):
        I = basis(Q3, {(2, 0, 0): 1}, {(0, 2, 0): 1}, {(0, 0, 2): 1})
        assert only_trivial_solution(I)

    def test_missing_direction_gives_nontrivial_zero(self):
        # z2 free: (0, 0, 1) kills both generators
        I = basis(Q3, {(2, 0, 0): 1}, {(1, 1, 0): 1})
        assert not only_trivial_solution(I)

    def test_sign_variant(self):
        I = basis(Q3, {(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): -1})
        assert only_trivial_solution(I)

    def test_rejects_non_homogeneous_input(self):
        I = basis(Q3, {(1, 0, 0): 1, (0, 0, 0): 1})
        with pytest.raises(ValueError):
            only_trivial_solution(I)

    def test_methods_agree(self):
        cases = [
            basis(Q3, {(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}),
            basis(Q3, {(2, 0, 0): 1}, {(1, 1, 0): 1}),
            basis(Q3, {(2, 0, 0): 1}, {(0, 2, 0): 1}, {(0, 0, 2): 1}),
            basis(
                Q3,
                {(1, 0, 0): 1, (0, 1, 0): 1},
                {(0, 1, 0): 1, (0, 0, 1): 1},
                {(1, 0, 0): 1, (0, 0, 1): 1},
            ),
        ]
        for I in cases:
            # the reference: every variable lies in the radical of I
            radical = all(
                radical_member(LaurentPoly.variable(I.ring, i), I) for i in range(I.ring.nvars)
            )
            assert only_trivial_solution(I) == radical

    def test_prime_fallback(self):
        # <x*y, x^2 + P*y^2> holds x^3 and y^3 over Q, but mod P it is
        # <x*y, x^2>, which vanishes at (0, 1)
        R2 = Ring(2, False, QQ)
        I = basis(R2, {(1, 1): 1}, {(2, 0): 1, (0, 2): PRIME})
        gens = [groebner._to_int_dict(g) for g in I.generators]
        assert not groebner._trivial_zero_only(gens, 2, Budgets().max_pairs, PRIME)
        assert only_trivial_solution(I)

    def test_early_exit_beats_the_pair_budget(self):
        # the pure powers are leads from the start, so no S-pair is needed
        I = basis(
            Q3,
            {(2, 0, 0): 1, (0, 1, 1): 1},
            {(0, 2, 0): 1, (0, 1, 1): -1},
            {(0, 0, 2): 2},
        )
        with pytest.raises(ResourceBudgetExceeded):
            buchberger(I, Budgets(max_pairs=1))
        assert only_trivial_solution(I, Budgets(max_pairs=1))

    def test_too_few_generators_have_a_nontrivial_zero(self):
        I = basis(Q3, {(1, 0, 0): 1, (0, 1, 0): 1}, {(0, 0, 2): 1, (1, 1, 0): 1})
        assert not only_trivial_solution(I, Budgets(max_pairs=0))
        # unless one is a nonzero constant: then there is no zero at all
        assert only_trivial_solution(basis(Q3, {(0, 0, 0): 5}))

    @given(
        st.integers(2, 3).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.integers(1, 2),
                    st.lists(st.integers(-3, 3), min_size=6, max_size=6),
                ),
                min_size=1,
                max_size=n + 1,
            ).map(lambda forms: (n, forms))
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_the_radical_reference(self, system):
        n, forms = system
        R = Ring(n, False, QQ)
        gens = []
        for degree, coeffs in forms:
            monos = sorted(m for m in itertools.product(range(degree + 1), repeat=n)
                           if sum(m) == degree)
            g = LaurentPoly(R, {m: c for m, c in zip(monos, coeffs) if c})
            if not g.is_zero():
                gens.append(g)
        assume(gens)
        I = IdealBasis.from_polys(gens, R)
        radical = all(radical_member(LaurentPoly.variable(R, i), I) for i in range(n))
        assert only_trivial_solution(I) == radical

    def test_h_vector(self):
        assert groebner._h_vector([2, 2, 2]) == [1, 3, 3, 1]
        assert groebner._h_vector([2, 3, 1]) == [1, 2, 2, 1]
        assert groebner._h_vector([3, 3, 3, 3]) == [1, 4, 10, 16, 19, 16, 10, 4, 1]

    def test_surplus_ends_the_run_early(self):
        # the system of x1*x2 - 1 is <-2*z1^2, z2*z3, z2*z3>: after the one
        # degree-2 pair, degree 2 has four standard monomials where a regular
        # sequence of three quadrics leaves h_2 = 3, so no second pair is taken
        I = criterion_system(homogenize(parse_polynomial("x1*x2 - 1", nvars=2)))
        assert len(I.generators) == 3 and I.generators[1] == I.generators[2]
        assert not only_trivial_solution(I, Budgets(max_pairs=1))
        assert not only_trivial_solution(I)

    def test_a_filled_degree_skips_its_pair(self, monkeypatch):
        # <x^2 + yz, y^3, z + 2x> has h = 1, 2, 2, 1.  The degree-2 pair adds
        # a lead yz, which leaves z^3 the one standard monomial of degree 3,
        # so the degree-3 pair is popped without being reduced
        skipped = []
        filled = groebner._Standard.filled

        def spy(std):
            if filled(std):
                skipped.append(std.deg)
                return True
            return False

        monkeypatch.setattr(groebner._Standard, "filled", spy)
        I = basis(
            Q3,
            {(2, 0, 0): 1, (0, 1, 1): 1},
            {(0, 3, 0): 1},
            {(0, 0, 1): 1, (1, 0, 0): 2},
        )
        assert only_trivial_solution(I)
        assert skipped == [3]
        # the skipped pair still counts as an S-pair: three are needed, as
        # in a run that reduces it
        with pytest.raises(ResourceBudgetExceeded):
            only_trivial_solution(I, Budgets(max_pairs=2))
        assert only_trivial_solution(I, Budgets(max_pairs=3))

    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.integers(1, 3),
                    st.lists(st.sampled_from([0, 0, 0, 1, 1, -1, 2]), min_size=20, max_size=20),
                ),
                min_size=n,
                max_size=n,
            ).map(lambda forms: (n, forms))
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_square_systems_agree_with_the_radical_reference(self, system):
        # exactly n generators, so the Hilbert-driven rules are in play
        n, forms = system
        R = Ring(n, False, QQ)
        gens = []
        for degree, coeffs in forms:
            monos = sorted(m for m in itertools.product(range(degree + 1), repeat=n)
                           if sum(m) == degree)
            gens.append(LaurentPoly(R, {m: c for m, c in zip(monos, coeffs) if c}))
        assume(all(not g.is_zero() for g in gens))
        I = IdealBasis.from_polys(gens, R)
        try:
            radical = all(radical_member(LaurentPoly.variable(R, i), I) for i in range(n))
        except ResourceBudgetExceeded:
            assume(False)
        assert only_trivial_solution(I) == radical
