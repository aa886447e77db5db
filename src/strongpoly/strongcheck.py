"""Certified checks for strong irreducibility and strong coprimality.

A Laurent polynomial p is strongly irreducible when every power
substitution p(x_1^{t_1}, ..., x_n^{t_n}) with nonzero integer exponents
stays irreducible modulo units.  The certifying route homogenizes p and
asks whether the system { z_i * dP/dz_i } has only the trivial common
zero; when it does (and the homogeneous polynomial has at least three
variables) strong irreducibility follows, first over any field containing
Q and then over Z by descent.  The route is sufficient, not necessary, so
the checker is a trichotomy:

  PROVED    the singular-locus system is trivial (rule "criterion"), or a
            degenerate shape is settled directly (prime constants);
  REFUTED   an explicit substitution vector plus an exact factorization of
            the substituted polynomial;
  UNDECIDED the criterion failed and a bounded refutation search over
            uniform powers and a small positive box found nothing.

The criterion runs on p with its monomial unit stripped and its unused
variables dropped.  The refutation search substitutes into p itself, with
exponent 1 on the unused variables, and hands each p(x^t) whole to
factor.is_irreducible, the one owner of the monomial unit: it divides
x^(u*t) out and puts it back on the first factor of a refutation.  Many
substitutions specialize to the same univariate image (at the all-ones
point, q(x^t) gives g(y^{t_main}) whatever the other exponents are).  So
each search sets factor._IMAGE_MEMO to a fresh dict on entry and resets it
on exit, and factor._specialization_proved factors each distinct image once
per search.  Nothing is remembered from one search to the next.

Strong irreducibility is invariant under the bar involution (inverting
all variables permutes the substitution instances), but the criterion
test itself is not: normalization can move the singular locus.  So the
checker tries the criterion on both p and bar(p) before giving up.

Strong coprimality of p and q asks that evaluations at every pair of
linearly independent monomial-image tuples have unit gcd.  That is hard
in general; here it is PROVED only through the fewer-variables route
(a strongly irreducible polynomial is coprime to anything missing one of
its variables) and REFUTED by a bounded search over image pairs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from . import verdict
from .errors import Budgets, ResourceBudgetExceeded
from .factor import _IMAGE_MEMO, is_irreducible, poly_gcd
from .groebner import IdealBasis, _degree_monomials, only_trivial_solution
from .ring import (
    ZZ,
    HomogPoly,
    LaurentPoly,
    Ring,
    homogenize,
    laurent_normalize,
    monomial_substitute,
    power_substitute,
)
from .verdict import Verdict


# Refutation search: the positive box 1..BOX_MAX in every variable, cut
# after MAX_BOX_CANDIDATES substitutions.  The box is positive on purpose:
# negative exponents compose a bar involution with a positive substitution,
# and bar preserves both irreducibility and reducibility, so mixed signs add
# no refutations.
BOX_MAX = 4
MAX_BOX_CANDIDATES = 256
# Strong coprimality: monomial-image tuples listed per side.
COPRIME_CATALOG_CAP = 40
# Genericity sampling: the most monomials a sampled form may have, and all
# of one sample's forms together (trials times the form's monomials).  Each
# trial builds its form and criterion system, and reduces S-polynomials of
# that many terms, before a reduction budget can trip; one three-variable
# trial of 10,011 monomials (degree 140) took 1.3 s and 65 MiB on a 2-core
# Xeon VM under CPython 3.11, and one of 20,301 (degree 200) 2.1 s and 92 MiB.
MAX_SAMPLE_MONOMIALS = 10_000


@dataclass(frozen=True)
class PolyVector:
    """Tuple of Laurent polynomials over one common ring."""

    entries: tuple[LaurentPoly, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("empty polynomial vector")
        ring = self.entries[0].ring
        for p in self.entries:
            if p.ring != ring:
                raise ValueError("vector entries must share a ring")

    def __len__(self) -> int:
        return len(self.entries)


def criterion_system(P: HomogPoly) -> IdealBasis:
    """The singular-locus system { z_i * dP/dz_i } of a homogeneous P.

    Zero generators (variables absent from P) are dropped; duplicates
    are kept as given.  Note the system always contains deg(P) * P in its
    span (Euler's identity), so P itself vanishes on the locus.
    """
    if P.total_degree == 0:
        raise ValueError("criterion needs a nonconstant homogeneous polynomial")
    ring = P.inner.ring
    terms = P.inner.term_dict().items()
    gens = []
    for i in range(ring.nvars):
        # the Euler operator z_i * d/dz_i scales each term by its exponent
        g = {m: c * m[i] for m, c in terms if m[i]}
        if g:
            gens.append(LaurentPoly(ring, g))
    return IdealBasis.from_polys(gens, ring)


def _compress(p: LaurentPoly) -> tuple[LaurentPoly, tuple[int, ...]]:
    """Repack p into a ring holding exactly its used variables."""
    used = p.used_vars()
    ring = Ring(len(used), p.ring.laurent, p.ring.domain)
    out = {tuple(m[v] for v in used): c for m, c in p.term_dict().items()}
    return LaurentPoly(ring, out), used


def _criterion_holds(q: LaurentPoly, budgets: Budgets) -> bool:
    """True when the singular-locus system of homogenize(q) is trivial."""
    return only_trivial_solution(criterion_system(homogenize(q)), budgets)


def check_strongly_irreducible(p: LaurentPoly, budgets: Budgets = Budgets()) -> Verdict:
    """Trichotomy check; see the module docstring for the routes.

    Monomial factors are Laurent units and are discarded up front, so the
    answer concerns the polynomial modulo units even in an ordinary ring.
    budgets.max_pairs caps each criterion run, budgets.uniform_max the
    uniform powers of the refutation search, and budgets.max_kron_degree
    each irreducibility check of a substituted polynomial.
    """
    if p.ring.domain != ZZ:
        raise ValueError("strong irreducibility checks run over ZZ")
    if p.is_zero():
        raise ValueError("zero polynomial")
    q, used = _compress(laurent_normalize(p)[0])
    if q.is_constant() and abs(q.constant_value()) == 1:
        raise ValueError("Laurent unit: strong irreducibility is undefined for units")
    m = q.ring.nvars
    notes: dict = {}

    if m == 0:
        inner = is_irreducible(p.to_laurent(), budgets)
        if inner.is_proved:
            return inner
        return _refuted(p, (1,) * p.ring.nvars, inner.witness["factors"])

    if m >= 2:
        # bar is x_i -> 1/x_i; it permutes the power substitutions, so a
        # certificate for bar(p) certifies p as well.
        for side in ("p", "bar"):
            r = q if side == "p" else laurent_normalize(q.bar())[0]
            try:
                if _criterion_holds(r, budgets):
                    return verdict.proved(
                        "criterion", side=side, effective_vars=m, degree=r.total_degree()
                    )
            except ResourceBudgetExceeded as exc:
                notes["resource"] = exc.kind
    else:
        notes["univariate"] = True

    refutation, search_notes = _refutation_search(p, used, budgets)
    notes.update(search_notes)
    if refutation is not None:
        return _refuted(p, *refutation, **notes)
    if "resource" in notes:
        return verdict.undecided(f"resource-{notes['resource']}", **notes)
    if m < 2:
        return verdict.undecided("univariate-criterion-inapplicable", **notes)
    return verdict.undecided("criterion-failed-no-witness", **notes)


def _refuted(p: LaurentPoly, t: tuple[int, ...], factors: list[LaurentPoly], **notes) -> Verdict:
    """REFUTED by is_irreducible's factors of p(x^t), moved to p's ring."""
    if not p.ring.laurent:
        factors = [f.to_ordinary() for f in factors]
    return verdict.refuted({"exponents": t, "factors": factors}, **notes)


def _refutation_search(p: LaurentPoly, used: tuple[int, ...], budgets: Budgets):
    """Look for t with p(x^t) reducible up to units; used lists the
    variables p's non-unit part depends on.

    Returns ((t, factors) | None, notes).  Every t is positive and has
    t_v = 1 on the unused variables.  Each substitution goes whole to
    is_irreducible, which divides out its monomial unit and puts it back on
    the first factor, so the factors multiply to p(x^t) in p's Laurent
    ring.  Uniform powers come first since one reducible uniform power
    already settles the question; then a positive box in lexicographic
    order, capped.
    """
    p = p.to_laurent()
    n = p.ring.nvars
    notes: dict = {"substitutions_tried": 0}
    seen = set()

    def try_t(t: tuple[int, ...]):
        if t in seen:
            return None
        seen.add(t)
        notes["substitutions_tried"] += 1
        try:
            v = is_irreducible(power_substitute(p, t), budgets)
        except ResourceBudgetExceeded as exc:
            notes.setdefault("search_resource", exc.kind)
            return None
        if v.is_refuted:
            return v.witness["factors"]
        if v.is_undecided:
            notes.setdefault("search_resource", v.reason)
        return None

    # one memo of univariate-image outcomes per search; see
    # factor._specialization_proved
    token = _IMAGE_MEMO.set({})
    try:
        for k in range(1, budgets.uniform_max + 1):
            t = tuple(k if v in used else 1 for v in range(n))
            factors = try_t(t)
            if factors is not None:
                return (t, factors), notes
        if len(used) >= 2:
            box = [range(1, BOX_MAX + 1) if v in used else (1,) for v in range(n)]
            for count, t in enumerate(itertools.product(*box)):
                if count >= MAX_BOX_CANDIDATES:
                    notes["box_truncated"] = True
                    break
                factors = try_t(t)
                if factors is not None:
                    return (t, factors), notes
        return None, notes
    finally:
        _IMAGE_MEMO.reset(token)


# -- strong coprimality ----------------------------------------------------


def _image_catalog(m: int) -> list[tuple[tuple[int, ...], ...]]:
    """Small catalog of linearly independent monomial-image tuples.

    Each entry is a tuple of m exponent vectors of length m.
    Identity first, then permutations, then diagonal powers: composing a
    unimodular change of coordinates on the outside never changes gcd
    triviality, so only genuinely different lattices are worth listing.
    """
    def diag(t):
        return tuple(tuple(t[i] if j == i else 0 for j in range(m)) for i in range(m))

    out = [diag((1,) * m)]
    if m <= 4:
        for perm in itertools.permutations(range(m)):
            img = tuple(tuple(1 if j == perm[i] else 0 for j in range(m)) for i in range(m))
            if img not in out:
                out.append(img)
    for k in (2, 3):
        out.append(diag((k,) * m))
    for t in itertools.product((1, 2), repeat=m):
        img = diag(t)
        if img not in out:
            out.append(img)
        if len(out) >= COPRIME_CATALOG_CAP:
            break
    return out[:COPRIME_CATALOG_CAP]


def check_strongly_coprime(p: LaurentPoly, q: LaurentPoly, budgets: Budgets = Budgets()) -> Verdict:
    """Certify or refute strong coprimality of p and q.

    PROVED (rule "fewer-variables") needs one side certified strongly
    irreducible while the other side misses at least one of its variables
    and uses strictly fewer variables overall.  REFUTED searches bounded
    catalogs of image tuples for the two sides separately and exhibits a
    pair of evaluations with a nonunit common divisor, shared integer
    content included.
    """
    if p.ring != q.ring:
        raise ValueError("ring mismatch")
    if p.ring.domain != ZZ:
        raise ValueError("strong coprimality checks run over ZZ")
    if p.is_zero() or q.is_zero():
        raise ValueError("zero polynomial")

    notes: dict = {}

    for first, second, label in ((p, q, "p"), (q, p, "q")):
        uf = set(first.used_vars())
        us = set(second.used_vars())
        # a Laurent unit has no irreducibility status to certify
        if len(us) < len(uf) and not first.to_laurent().is_unit():
            sub = check_strongly_irreducible(first, budgets)
            if sub.is_proved:
                return verdict.proved(
                    "fewer-variables",
                    strongly_irreducible_side=label,
                    missing_vars=sorted(uf - us),
                    inner_rule=sub.rule,
                )
            notes[f"side_{label}_not_certified"] = sub.status

    m = p.ring.nvars
    catalog = _image_catalog(m)
    # the images in a tuple are linearly independent, so distinct terms stay
    # distinct and no evaluation of a nonzero side is zero
    evs_p = [monomial_substitute(p, img, m).to_laurent() for img in catalog]
    evs_q = [monomial_substitute(q, img, m).to_laurent() for img in catalog]
    pairs = itertools.product(zip(catalog, evs_p), zip(catalog, evs_q))
    for pairs_tried, ((img_p, ev_p), (img_q, ev_q)) in enumerate(pairs, 1):
        g = poly_gcd(ev_p, ev_q)
        if not g.is_unit():
            return verdict.refuted(
                {
                    "images_p": img_p,
                    "images_q": img_q,
                    "common_divisor": g,
                },
                pairs_tried=pairs_tried,
                **notes,
            )
    return verdict.undecided("coprimality-search-exhausted", pairs_tried=len(catalog) ** 2, **notes)


def check_vector_coprime(P: PolyVector, Q: PolyVector, budgets: Budgets = Budgets()) -> Verdict:
    """Existential semantics: coprime at some index proves the vectors coprime.

    REFUTED therefore needs a refutation at every index; anything else
    with no proved index stays UNDECIDED.
    """
    if len(P) != len(Q):
        raise ValueError(f"length mismatch: {len(P)} vs {len(Q)}")
    per_index = []
    for k, (pk, qk) in enumerate(zip(P.entries, Q.entries)):
        v = check_strongly_coprime(pk, qk, budgets)
        if v.is_proved:
            return verdict.proved("componentwise", index=k, inner_rule=v.rule)
        per_index.append(v)
    if all(v.is_refuted for v in per_index):
        return verdict.refuted(
            {"per_index": [v.witness for v in per_index]},
            component_status=[v.status for v in per_index],
        )
    return verdict.undecided(
        "no-index-proved", component_status=[v.status for v in per_index]
    )


# -- statistical genericity check ------------------------------------------


@dataclass(frozen=True)
class GenericityReport:
    n_vars: int
    degree: int
    trials: int
    coeff_box: int
    rng_seed: int
    passes: int

    @property
    def pass_rate(self) -> float:
        return self.passes / self.trials


def genericity_sample(
    n_vars: int,
    degree: int,
    trials: int,
    coeff_box: int = 100,
    rng_seed: int = 0,
    budgets: Budgets = Budgets(),
) -> GenericityReport:
    """Sample random homogeneous polynomials and report the criterion pass rate.

    Coefficients are uniform integers in [-coeff_box, coeff_box]; an
    all-zero draw is redrawn.  Each trial derives its own RNG from the
    seed, so the report is deterministic and trials could be evaluated in
    any order or in parallel without changing the outcome.  Raises
    ResourceBudgetExceeded, before the first trial, when a form of the
    degree has more than MAX_SAMPLE_MONOMIALS monomials, or all the trials'
    forms together have.
    """
    if n_vars < 3:
        raise ValueError("the criterion needs at least 3 homogeneous variables")
    if degree < 1:
        raise ValueError("degree must be positive")
    if trials < 1:
        raise ValueError("trials must be positive")
    if coeff_box < 1:
        raise ValueError("coeff_box must be positive")
    count = math.comb(n_vars + degree - 1, degree)
    if count > MAX_SAMPLE_MONOMIALS:
        raise ResourceBudgetExceeded(
            "genericity", f"{count} monomials of degree {degree} are over {MAX_SAMPLE_MONOMIALS}"
        )
    if trials * count > MAX_SAMPLE_MONOMIALS:
        raise ResourceBudgetExceeded(
            "genericity",
            f"{trials} trials of {count} monomials are over {MAX_SAMPLE_MONOMIALS} monomials",
        )
    ring = Ring(n_vars)
    # every exponent vector of total degree `degree`, in lexicographic order
    monos = sorted(_degree_monomials(n_vars, degree))
    passes = 0
    for i in range(trials):
        rng = random.Random(rng_seed * 1000003 + i)
        terms = {}
        while not terms:
            terms = {
                m: c
                for m in monos
                if (c := rng.randint(-coeff_box, coeff_box)) != 0
            }
        P = HomogPoly(LaurentPoly(ring, terms), degree)
        try:
            if only_trivial_solution(criterion_system(P), budgets):
                passes += 1
        except ResourceBudgetExceeded:
            pass
    return GenericityReport(n_vars, degree, trials, coeff_box, rng_seed, passes)
