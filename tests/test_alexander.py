"""Module presentations, elementary ideals, Fox calculus, torsion orders."""

import random
import time
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strongpoly import (
    LaurentPoly,
    ModulePresentation,
    ResourceBudgetExceeded,
    Ring,
    ZZ,
    blanchfield_self_link_witness,
    braid_components,
    braid_to_presentation,
    canonical_associate,
    divisorial_hull,
    elementary_ideal,
    eval_at_ones,
    fox_derivative,
    free_rank,
    laurent_member,
    laurent_normalize,
    presentation_rank,
    slice_polynomial,
    torsion_alexander_poly,
    verify_ribbon_presentation,
)
from strongpoly import alexander, factor
from strongpoly.factor import poly_gcd
from strongpoly.groebner import IdealBasis

from conftest import mk, poly_st

L1 = Ring(1, True, ZZ)
L2 = Ring(2, True, ZZ)


def lp(nvars, terms):
    return mk(nvars, terms, laurent=True)


def pres(rows, ncols=None):
    return ModulePresentation.from_rows(rows, ncols=ncols)


def leibniz_det(rows, ring):
    """Determinant as the signed sum over permutations, the reference the
    shared cofactor expansion of elementary_ideal is checked against."""
    n = len(rows)
    total = LaurentPoly.zero(ring)
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(n), 2))
        term = LaurentPoly.constant(ring, (-1) ** inversions)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


@st.composite
def small_matrices(draw):
    nvars = draw(st.integers(1, 2))
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(1, 5))
    entry = poly_st(nvars, laurent=True, max_exp=2, max_terms=3, max_coeff=5)
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    return ModulePresentation(Ring(nvars, True, ZZ), tuple(map(tuple, rows)), ncols)


def dense_matrix(n, seed):
    rng = random.Random(seed)
    return pres(
        [
            [
                lp(1, {(rng.randint(-1, 2),): rng.randint(1, 5), (3,): rng.randint(1, 5)})
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


P = lp(2, {(0, 0): 1, (1, 0): 1, (0, 1): -1})  # 1 + x1 - x2
Q = lp(2, {(0, 0): 1, (1, 1): 1})  # 1 + x1*x2
T = lp(1, {(2,): 1, (1,): -1, (0,): 1})  # t^2 - t + 1


class TestPresentation:
    def test_requires_integral_laurent_ring(self):
        with pytest.raises(ValueError):
            ModulePresentation(Ring(2, False, ZZ), ((P.to_ordinary(),),), 1)
        with pytest.raises(ValueError):
            ModulePresentation(L2, (), 0)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            ModulePresentation(L2, ((P, Q), (P,)), 2)

    def test_rank_goldens(self):
        z = LaurentPoly.zero(L2)
        assert presentation_rank(pres([[P, z], [z, Q]])) == 2
        assert presentation_rank(pres([[P, Q], [P + P, Q + Q]])) == 1
        assert presentation_rank(pres([[z, z]], ncols=2)) == 0
        assert presentation_rank(ModulePresentation(L2, (), 3)) == 0

    def test_free_rank(self):
        z = LaurentPoly.zero(L2)
        assert free_rank(pres([[P, z], [z, Q]])) == 0
        assert free_rank(pres([[P, z]], ncols=2)) == 1
        assert free_rank(ModulePresentation(L2, (), 2)) == 2

    def test_rank_is_transpose_invariant(self):
        rng = random.Random(3)
        for _ in range(10):
            rows = [
                [
                    lp(2, {(rng.randint(-1, 1), rng.randint(-1, 1)): rng.randint(-2, 2)})
                    for _ in range(3)
                ]
                for _ in range(2)
            ]
            a = pres([r[:] for r in rows], ncols=3)
            b = pres([[rows[i][j] for i in range(2)] for j in range(3)], ncols=2)
            assert presentation_rank(a) == presentation_rank(b)


class TestElementaryIdeals:
    def test_index_conventions(self):
        m = pres([[P, Q]], ncols=2)
        assert elementary_ideal(m, 2).generators[0].to_text() == "1"
        assert elementary_ideal(m, 0).generators == ()
        e1 = elementary_ideal(m, 1)
        assert len(e1.generators) == 2
        with pytest.raises(ValueError):
            elementary_ideal(m, -1)

    def test_generators_are_unit_normalized(self):
        shifted = P.mul_monomial((-3, 2), -1)
        e = elementary_ideal(pres([[shifted]]), 0)
        assert [g.to_text() for g in e.generators] == ["x1 - x2 + 1"]
        assert not e.ring.laurent

    def test_minor_budget(self):
        one = LaurentPoly.one(L2)
        big = pres([[one] * 16 for _ in range(16)])
        with pytest.raises(ResourceBudgetExceeded):
            elementary_ideal(big, 8)

    @given(small_matrices())
    @settings(max_examples=60, deadline=None)
    def test_generators_are_the_nonzero_minors(self, m):
        # the rank is the largest size with a nonzero Leibniz minor
        rank = 0
        for k in range(m.ncols + 2):
            size = max(m.ncols - k, 0)
            expected = set()
            for rsel in combinations(range(m.nrows), size):
                for csel in combinations(range(m.ncols), size):
                    d = leibniz_det([[m.rows[i][j] for j in csel] for i in rsel], m.ring)
                    if not d.is_zero():
                        expected.add(laurent_normalize(d)[0].sign_normalized())
            gens = elementary_ideal(m, k).generators
            assert len(gens) == len(expected)
            assert set(gens) == expected
            if expected:
                rank = max(rank, size)
        assert presentation_rank(m) == rank

    def test_dense_ten_by_ten_determinant(self):
        m = dense_matrix(10, 7)
        (det,) = elementary_ideal(m, 0).generators
        # at t = 2, Gaussian elimination over Q gives the determinant, which
        # is the generator's value up to sign and the stripped power of t
        a = [
            [sum(c * Fraction(2) ** e for (e,), c in x.term_dict().items()) for x in row]
            for row in m.rows
        ]
        value = Fraction(1)
        for i in range(10):
            p = next(r for r in range(i, 10) if a[r][i])
            a[i], a[p] = a[p], a[i]
            value *= a[i][i] if p == i else -a[i][i]
            for r in range(i + 1, 10):
                f = a[r][i] / a[i][i]
                a[r] = [x - f * y for x, y in zip(a[r], a[i])]
        ratio = abs(value / sum(c * 2**e for (e,), c in det.term_dict().items()))
        assert ratio.numerator & (ratio.numerator - 1) == 0
        assert ratio.denominator & (ratio.denominator - 1) == 0

    @pytest.mark.parametrize(
        "call, m",
        [
            (partial(elementary_ideal, k=0), dense_matrix(16, 1)),
            (partial(elementary_ideal, k=20), pres([[LaurentPoly.zero(L1)] * 40] * 40)),
            (free_rank, dense_matrix(16, 1)),
        ],
        ids=["dense-16x16", "zero-40x40", "rank-dense-16x16"],
    )
    def test_work_budget_ends_fast(self, call, m):
        start = time.monotonic()
        with pytest.raises(ResourceBudgetExceeded) as err:
            call(m)
        assert err.value.kind == "minors"
        assert time.monotonic() - start < 10

    def test_nesting_chain(self):
        rng = random.Random(11)
        for _ in range(5):
            rows = [
                [
                    lp(2, {(rng.randint(0, 1), rng.randint(0, 1)): rng.randint(-2, 2)})
                    for _ in range(3)
                ]
                for _ in range(3)
            ]
            m = pres(rows, ncols=3)
            for k in range(0, 3):
                small = elementary_ideal(m, k)
                big = elementary_ideal(m, k + 1)
                for g in small.generators:
                    assert laurent_member(g.to_laurent(), list(big.generators))


class TestHull:
    def test_gcd_of_generators(self):
        R = lp(2, {(0, 0): 2, (1, 0): 1})
        I = IdealBasis.from_polys([(P * Q).to_ordinary(), (P * R).to_ordinary()])
        assert divisorial_hull(I) == canonical_associate(P)

    def test_coprime_generators_hull_to_one(self):
        a = lp(2, {(1, 0): 1, (0, 0): -1}).to_ordinary()
        b = lp(2, {(0, 1): 1, (0, 0): -1}).to_ordinary()
        assert divisorial_hull(IdealBasis.from_polys([a, b])).to_text() == "1"

    def test_zero_ideal_hulls_to_zero(self):
        assert divisorial_hull(IdealBasis(L2.ordinary_version(), ())).is_zero()

    def test_integer_content_is_dropped(self):
        I = IdealBasis.from_polys([P.to_ordinary().scale(6)])
        assert divisorial_hull(I) == canonical_associate(P)

    def test_fold_stops_at_a_unit(self, monkeypatch):
        calls = []

        def counting_gcd(a, b):
            calls.append((a, b))
            return poly_gcd(a, b)

        monkeypatch.setattr(alexander, "poly_gcd", counting_gcd)
        a = lp(2, {(1, 0): 1, (0, 0): -1}).to_ordinary()
        b = lp(2, {(0, 1): 1, (0, 0): -1}).to_ordinary()
        I = IdealBasis.from_polys([a, b, (P * Q).to_ordinary(), P.to_ordinary()])
        assert divisorial_hull(I).to_text() == "1"
        assert len(calls) == 1

    def test_canonical_associate(self):
        p = P.mul_monomial((-2, 1), -3)
        c = canonical_associate(p)
        assert c.to_text() == "x1 - x2 + 1"
        assert canonical_associate(c.to_laurent()) == c
        assert canonical_associate(lp(2, {(5, -2): -7})).to_text() == "1"
        assert canonical_associate(LaurentPoly.zero(L2)).is_zero()


class TestTorsionOrder:
    def test_diagonal_matrices(self):
        z = LaurentPoly.zero(L2)
        assert torsion_alexander_poly(pres([[P]])) == canonical_associate(P)
        assert torsion_alexander_poly(pres([[P, z], [z, Q]])) == canonical_associate(
            P * Q
        )
        # a zero column is a free summand and contributes no torsion
        assert torsion_alexander_poly(pres([[P, z]], ncols=2)) == canonical_associate(P)

    def test_invariance_under_row_operations(self):
        rng = random.Random(5)
        for _ in range(8):
            rows = [
                [
                    lp(2, {(rng.randint(0, 1), rng.randint(0, 1)): rng.randint(-2, 2)})
                    for _ in range(2)
                ]
                for _ in range(3)
            ]
            m = pres(rows, ncols=2)
            ref = torsion_alexander_poly(m)
            # swap two rows
            swapped = pres([rows[1], rows[0], rows[2]], ncols=2)
            assert torsion_alexander_poly(swapped) == ref
            # scale a row by a unit monomial
            unit_scaled = pres(
                [[e.mul_monomial((1, -1), -1) for e in rows[0]], rows[1], rows[2]],
                ncols=2,
            )
            assert torsion_alexander_poly(unit_scaled) == ref
            # add a multiple of row 0 to row 1
            f = lp(2, {(1, 0): 2})
            bumped = pres(
                [rows[0], [a + f * b for a, b in zip(rows[1], rows[0])], rows[2]],
                ncols=2,
            )
            assert torsion_alexander_poly(bumped) == ref

    def test_invariance_under_stabilization(self):
        z = LaurentPoly.zero(L2)
        one = LaurentPoly.one(L2)
        m = pres([[P, Q], [Q, P]], ncols=2)
        stab = pres([[P, Q, z], [Q, P, z], [z, z, one]], ncols=3)
        assert torsion_alexander_poly(stab) == torsion_alexander_poly(m)
        assert free_rank(stab) == free_rank(m)


class TestFoxCalculus:
    def test_conjugation_golden(self):
        # d/dx (x y x^-1) = 1 - [xyx^-1] = 1 - y after abelianization
        d = fox_derivative([1, 2, -1], 1, L2, [0, 1])
        assert d == lp(2, {(0, 0): 1, (0, 1): -1})

    def test_inverse_golden(self):
        # d/dx (x^-1) = -x^-1
        d = fox_derivative([-1], 1, L1, [0])
        assert d == lp(1, {(-1,): -1})

    def test_missing_generator(self):
        assert fox_derivative([2, 2], 1, L2, [0, 1]).is_zero()

    def test_product_rule(self):
        rng = random.Random(9)

        def ab(word):
            e = [0, 0]
            for g in word:
                e[[0, 1][abs(g) - 1]] += 1 if g > 0 else -1
            return lp(2, {tuple(e): 1})

        for _ in range(20):
            u = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 4))]
            v = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 4))]
            for g in (1, 2):
                lhs = fox_derivative(u + v, g, L2, [0, 1])
                rhs = fox_derivative(u, g, L2, [0, 1]) + ab(u) * fox_derivative(
                    v, g, L2, [0, 1]
                )
                assert lhs == rhs


def artin_images(word, strands, max_letters=4000):
    """Freely reduced images of the meridians x_1..x_strands under the
    braid's Artin action, each crossing substituted into the images of the
    crossings before it: s_i sends x_i to x_i x_i+1 x_i^-1 and x_i+1 to x_i.

    None once an image passes max_letters: they can grow exponentially, and
    (s1 s2^-1)^16 reaches 7 * 10^6 letters, while random words of 32
    crossings on 8 strands rarely pass 2000."""
    images = {g: [g] for g in range(1, strands + 1)}
    for a in word:
        i = abs(a)
        if a > 0:
            sub = {i: [i, i + 1, -i], i + 1: [i]}
        else:
            sub = {i: [i + 1], i + 1: [-(i + 1), i, i + 1]}
        for g, w in images.items():
            out = []
            for letter in w:
                img = sub.get(abs(letter), [abs(letter)])
                for x in img if letter > 0 else [-x for x in reversed(img)]:
                    if out and out[-1] == -x:
                        out.pop()
                    else:
                        out.append(x)
            if len(out) > max_letters:
                return None
            images[g] = out
    return images


@st.composite
def braid_words(draw):
    strands = draw(st.integers(1, 8))
    if strands == 1:
        return [], 1
    letter = st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return draw(st.lists(letter, max_size=4 * strands)), strands


class TestBraidClosures:
    @given(braid_words())
    @settings(max_examples=150, deadline=None)
    def test_burau_pass_matches_fox_calculus(self, case):
        # the Fox rows of beta(x_j) x_j^-1, differentiated letter by letter
        word, strands = case
        count, color = braid_components(word, strands)
        ring = Ring(count, True, ZZ)
        images = artin_images(word, strands)
        assume(images is not None)
        expected = tuple(
            tuple(fox_derivative(images[j] + [-j], g, ring, color) for g in range(1, strands + 1))
            for j in range(1, strands)
        )
        pres = braid_to_presentation(word, strands)
        assert pres.ring == ring and pres.ncols == strands
        assert pres.rows == expected

    def test_components_of_a_long_word_are_quick(self):
        # only the strand permutation is read: no budget, linear time
        start = time.perf_counter()
        assert braid_components([1] * 20000, 2) == (2, (0, 1))
        assert braid_components([1] * 20001, 2) == (1, (0, 0))
        assert braid_components([1, -2] * 9999, 3) == (3, (0, 1, 2))
        assert time.perf_counter() - start < 1

    def test_component_counts(self):
        assert braid_components([1], 2)[0] == 1
        assert braid_components([], 2)[0] == 2
        assert braid_components([1, 1], 2)[0] == 2
        assert braid_components([1, 2], 3)[0] == 1
        assert braid_components([1, 1, 1], 2) == (1, (0, 0))

    def test_braid_validation(self):
        with pytest.raises(ValueError):
            braid_to_presentation([2], 2)
        with pytest.raises(ValueError):
            braid_to_presentation([0], 2)
        with pytest.raises(ValueError):
            braid_to_presentation([], 0)

    def test_trefoil(self):
        m = braid_to_presentation([1, 1, 1], 2)
        assert torsion_alexander_poly(m).to_text("t") == "t^2 - t + 1"
        assert free_rank(m) == 1  # one more than the link's free rank

    def test_trefoil_mirror(self):
        m = braid_to_presentation([-1, -1, -1], 2)
        assert torsion_alexander_poly(m).to_text("t") == "t^2 - t + 1"

    def test_figure_eight(self):
        m = braid_to_presentation([1, -2, 1, -2], 3)
        assert torsion_alexander_poly(m).to_text("t") == "t^2 - 3*t + 1"

    def test_unknots(self):
        assert torsion_alexander_poly(braid_to_presentation([1], 2)).to_text("t") == "1"
        assert torsion_alexander_poly(braid_to_presentation([], 1)).to_text("t") == "1"

    def test_two_component_unlink(self):
        m = braid_to_presentation([], 2)
        assert m.ring.nvars == 2
        assert free_rank(m) == 2  # link free rank 1: split unlink
        assert torsion_alexander_poly(m).to_text() == "1"

    def test_hopf_link(self):
        m = braid_to_presentation([1, 1], 2)
        assert m.ring.nvars == 2
        assert torsion_alexander_poly(m).to_text() == "1"

    def test_twelve_strand_split_link(self):
        # figure eight on strands 1-3, an unknot on 4 and a trefoil on 5-6,
        # stabilized to 12 strands: the closure is the same link, and the
        # order is the product of the two knots' polynomials
        split = [1, -2, 1, -2, 5, 5, 5]
        m = braid_to_presentation(split + [6, 7, 8, 9, 10, 11], 12)
        assert m.ring.nvars == 3 and free_rank(m) == 3
        expected = torsion_alexander_poly(braid_to_presentation(split, 6))
        assert torsion_alexander_poly(m) == expected
        assert expected.to_text("t") == (
            "t1^2*t3^2 - t1^2*t3 - 3*t1*t3^2 + t1^2 + 3*t1*t3 + t3^2 - 3*t1 - t3 + 1"
        )

    def test_knot_sanity(self):
        for word, strands in [([1, 1, 1], 2), ([1, -2, 1, -2], 3), ([1, 1, 1, 1, 1], 2)]:
            d = torsion_alexander_poly(braid_to_presentation(word, strands))
            assert abs(eval_at_ones(d)) == 1
            assert canonical_associate(d.to_laurent().bar()) == d


class TestRibbonCertificate:
    def test_certificate_passes_for_family_member(self):
        report = verify_ribbon_presentation(P)
        assert report.ok
        assert len(report.steps) == 7
        assert all(flag for _, flag, _ in report.steps)
        assert report.product == slice_polynomial(P)
        assert report.alexander == canonical_associate(slice_polynomial(P))
        assert free_rank(report.presentation) == 0

    def test_product_frozen_terms(self):
        report = verify_ribbon_presentation(P)
        assert report.product.term_dict() == {
            (0, 0): 3,
            (1, 0): 1,
            (-1, 0): 1,
            (0, 1): -1,
            (0, -1): -1,
            (1, -1): -1,
            (-1, 1): -1,
        }

    def test_gate_and_intersection_share_one_gcd(self, monkeypatch):
        # the coprime gate and the annihilator step use one gcd of p and
        # bar(p), whether called here or through factor
        calls = []

        def counted(p, q):
            calls.append((p, q))
            return poly_gcd(p, q)

        monkeypatch.setattr(alexander, "poly_gcd", counted)
        monkeypatch.setattr(factor, "poly_gcd", counted)
        assert verify_ribbon_presentation(P).ok
        assert calls == [(P.to_laurent(), P.to_laurent().bar())]

    def test_bar_associate_input_rejected(self):
        # bar(x1 + x2) is a unit multiple of x1 + x2, so the gate trips
        with pytest.raises(ValueError):
            verify_ribbon_presentation(lp(2, {(1, 0): 1, (0, 1): 1}))

    def test_reducible_but_bar_coprime_input_still_certifies(self):
        # the cyclic certificate only needs gcd(p, bar p) to be a unit
        report = verify_ribbon_presentation(P * P)
        assert report.ok
        assert report.alexander == canonical_associate(slice_polynomial(P * P))

    def test_several_family_members(self):
        from strongpoly import build_family_poly, family_corpus

        for spec in family_corpus(2)[:4]:
            p = build_family_poly(spec)
            report = verify_ribbon_presentation(p)
            assert report.ok
            assert report.alexander == canonical_associate(slice_polynomial(p))


class TestBlanchfield:
    def test_nonzero_witnesses(self):
        for f in (
            LaurentPoly.one(L2),
            lp(2, {(1, 0): 1}),
            lp(2, {(0, 0): 1, (1, 0): 1}),
        ):
            w = blanchfield_self_link_witness(P, f)
            assert not w.is_zero
            assert w.denominator == P * P.bar()

    def test_numerator_is_hermitian(self):
        f = lp(2, {(0, 0): 1, (1, 0): 1})
        w = blanchfield_self_link_witness(P, f)
        assert w.numerator.bar() == w.numerator

    def test_multiple_of_p_rejected(self):
        with pytest.raises(ValueError):
            blanchfield_self_link_witness(P, P * Q)

    def test_degenerate_p_rejected(self):
        with pytest.raises(ValueError):
            blanchfield_self_link_witness(P * Q, LaurentPoly.one(L2))
        with pytest.raises(ValueError):
            blanchfield_self_link_witness(LaurentPoly.one(L2), LaurentPoly.one(L2))
        with pytest.raises(ValueError):
            blanchfield_self_link_witness(lp(2, {(1, 0): 1, (0, 1): 1}), LaurentPoly.one(L2))
