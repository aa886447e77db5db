"""Coefficient-constrained trinomial-style families and their slice products."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongpoly import (
    F1,
    F2,
    FamilySpec,
    build_family_poly,
    enumerate_family,
    eval_at_ones,
    family_corpus,
    slice_polynomial,
)


class TestFamilySpec:
    def test_golden_members(self):
        assert build_family_poly(FamilySpec(F1, (1, 1))).to_text() == "x1 - x2 + 1"
        assert (
            build_family_poly(FamilySpec(F2, (1, 1, 1))).to_text()
            == "-x1 + 2*x2 - x3 + 1"
        )

    def test_constraint_must_vanish(self):
        with pytest.raises(ValueError):
            FamilySpec(F1, (1, 2))
        with pytest.raises(ValueError):
            FamilySpec(F2, (1, 1, 2))

    def test_parity_rules(self):
        with pytest.raises(ValueError):
            FamilySpec(F1, (1, 1, 1))  # odd length
        with pytest.raises(ValueError):
            FamilySpec(F2, (1, 1))  # even length
        with pytest.raises(ValueError):
            FamilySpec(F1, ())

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            FamilySpec(F1, (0, 0))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            FamilySpec("F3", (1, 1))

    def test_nvars(self):
        assert FamilySpec(F1, (2, 2)).nvars == 2
        assert FamilySpec(F2, (1, 1, 1)).nvars == 3


class TestBuildAndSlice:
    def test_members_evaluate_to_one_at_ones(self):
        for spec in family_corpus(2):
            assert eval_at_ones(build_family_poly(spec)) == 1

    def test_slice_product_golden(self):
        p = build_family_poly(FamilySpec(F1, (1, 1)))
        s = slice_polynomial(p)
        assert s.term_dict() == {
            (0, 0): 3,
            (1, 0): 1,
            (-1, 0): 1,
            (0, 1): -1,
            (0, -1): -1,
            (1, -1): -1,
            (-1, 1): -1,
        }

    def test_slice_is_bar_symmetric(self):
        for spec in family_corpus(2)[:6]:
            s = slice_polynomial(build_family_poly(spec))
            assert s.bar() == s
            assert eval_at_ones(s) == 1

    def test_slice_rejects_zero(self):
        from strongpoly import LaurentPoly, Ring

        with pytest.raises(ValueError):
            slice_polynomial(LaurentPoly.zero(Ring(2, True)))


class TestEnumerate:
    def test_exhaustive_counts(self):
        assert len(enumerate_family(F1, 1, 2)) == 4
        assert len(enumerate_family(F2, 1, 2)) == 4
        assert len(enumerate_family(F1, 2, 2)) == 36

    def test_lex_order_and_limit(self):
        full = enumerate_family(F1, 1, 2)
        assert [s.k for s in full] == [(-2, -2), (-1, -1), (1, 1), (2, 2)]
        assert enumerate_family(F1, 1, 2, limit=2) == full[:2]

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_family("F9", 1, 2)
        with pytest.raises(ValueError):
            enumerate_family(F1, 0, 2)
        with pytest.raises(ValueError):
            enumerate_family(F1, 1, 0)
        with pytest.raises(ValueError):
            enumerate_family(F1, 1, 2, limit=-1)

    @given(st.integers(1, 2), st.integers(1, 2))
    @settings(max_examples=8, deadline=None)
    def test_every_enumerated_spec_satisfies_the_constraint(self, n, bound):
        for spec in enumerate_family(F2, n, bound, limit=40):
            assert spec.constraint_value() == 0


class TestCorpus:
    def test_size_and_variable_spread(self):
        corpus = family_corpus(2)
        assert len(corpus) >= 50
        assert {s.nvars for s in corpus} == {2, 3, 4, 5, 6}
        assert all(abs(v) <= 2 for s in corpus for v in s.k)
        assert len(set(corpus)) == len(corpus)

    def test_corpus_is_stable(self):
        assert family_corpus(2) == family_corpus(2)
        assert family_corpus(2)[0] == FamilySpec(F1, (-2, -2))
