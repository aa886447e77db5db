"""Buchberger Groebner bases in graded lexicographic order, over Q or mod p.

The engine works on integer term dicts.  Over Q it pseudo-reduces, so every
intermediate coefficient stays an int and Fractions only appear when the
reduced basis is made monic at the boundary; mod a prime p it keeps every
element monic with coefficients in [0, p).  One pair loop (the normal
strategy, smallest lcm first, with Buchberger's coprimality and chain
criteria) and one normal-form loop serve both.  Every run honors the S-pair
budget, the basis cap MAX_BASIS and the reduction-work cap
MAX_REDUCTION_WORK, and raises ResourceBudgetExceeded instead of running
away.

only_trivial_solution asks whether homogeneous f_1, ..., f_m in n variables
have only the trivial common zero, that is, whether I = <f_1, ..., f_m>
contains every monomial of some degree.  Three shortcuts decide it without a
full reduced basis, each of them sound:

- Pure-power leads.  Every element of I puts its leading monomial into the
  lead ideal.  Once every variable has a pure-power lead, I holds a power
  of every variable: the answer is True.  So it is for a constant
  generator, whose ideal has no zero at all.
- Lazard's degree cap.  If the answer is True, I contains every monomial of
  degree D = d_1 + ... + d_n - n + 1, where d_1 >= ... >= d_n are the n
  largest generator degrees (Macaulay's bound; D. Lazard, EUROCAL 1983).
  With fewer than n generators the answer is False (Krull's height
  theorem).  Pairs go by lcm degree and every element is homogeneous, so
  once the smallest pending pair has lcm degree above D, the leads so far
  divide the lead of every element of I of degree at most D.  A variable
  without a pure-power lead then has x_i^D outside I: the answer is False.
- Mod p first.  The run is first made mod PRIME, and a True answer there is
  final.  It shows that I mod p holds a power of every variable, hence
  every monomial of some degree D, so the degree-D Macaulay matrix (the
  monomial multiples of the integer generators, as rows) has full column
  rank mod p; its rank over Q is at least its rank mod p, so I over Q
  contains every monomial of degree D too.  A False answer mod
  p, or an exhausted budget there, says nothing about Q, so the exact run
  alone decides False and budget exhaustion.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, neg

from .errors import Budgets, ResourceBudgetExceeded
from .ring import (
    QQ,
    LaurentPoly,
    Ring,
    _add_shifted,
    _embed_vars,
    _primitive_terms,
    grlex_key,
    laurent_normalize,
    mono_div,
    mono_divides,
    mono_lcm,
)


# Largest reducer list Buchberger keeps before giving up; the S-pair
# budget is Budgets.max_pairs.
MAX_BASIS = 500

# Terms one run may touch in reduction steps (the reducer terms added, and
# over Q the terms a pseudo-reduction rescales) before giving up.
MAX_REDUCTION_WORK = 500_000

# The prime of only_trivial_solution's first, modular run.
PRIME = 2**31 - 1


@dataclass(frozen=True)
class IdealBasis:
    """Finite generator list in an ordinary polynomial ring."""

    ring: Ring
    generators: tuple[LaurentPoly, ...]

    def __post_init__(self):
        if self.ring.laurent:
            raise ValueError("IdealBasis lives in an ordinary ring; normalize first")
        for g in self.generators:
            if g.ring != self.ring:
                raise ValueError("generator ring mismatch")
            if g.is_zero():
                raise ValueError("zero generator not allowed; drop it instead")

    @classmethod
    def from_polys(cls, polys, ring: Ring | None = None) -> "IdealBasis":
        polys = list(polys)
        if ring is None:
            if not polys:
                raise ValueError("cannot infer ring from an empty list")
            ring = polys[0].ring
        return cls(ring, tuple(p for p in polys if not p.is_zero()))


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: monic over Q, pairwise tail-reduced, sorted."""

    ring: Ring
    polys: tuple[LaurentPoly, ...]
    _reducers: tuple = field(default=(), compare=False, repr=False)

    def reducers(self):
        return self._reducers

    def is_unit_ideal(self) -> bool:
        return len(self.polys) == 1 and self.polys[0].is_constant()


# -- integer term-dict plumbing ------------------------------------------


def _to_int_dict(p: LaurentPoly) -> dict:
    """Clear denominators, returning a primitive integer term dict."""
    terms = p.term_dict()
    if p.ring.domain == QQ:
        den = 1
        for c in terms.values():
            den = den * c.denominator // math.gcd(den, c.denominator)
        terms = {m: int(c * den) for m, c in terms.items()}
    return _primitive_terms(terms)


def _reducer(d: dict, p: int = 0):
    """(leading monomial, leading coefficient, terms) of a nonzero dict;
    mod p the terms are made monic first."""
    lm = max(d, key=grlex_key)
    if p:
        inv = pow(d[lm], -1, p)
        d = {m: c * inv % p for m, c in d.items()}
    return (lm, d[lm], d)


class _Reducers:
    """The reducer triples of one run, its modulus (0 over Q), the reduction
    work spent so far, and a cache of the reduction step for each lead.

    The cache is valid because a run's list only grows: the first divisor of
    a monomial in list order never changes, and a monomial without one need
    only be tested against the triples appended since.
    """

    def __init__(self, triples, p: int = 0):
        self.triples = list(triples)
        self.degrees = [sum(t[0]) for t in self.triples]
        self.p = p
        self.work = 0
        self._steps: dict = {}

    def append(self, triple) -> None:
        self.triples.append(triple)
        self.degrees.append(sum(triple[0]))

    def step(self, lm):
        """The first triple in list order whose lead divides lm, as its
        leading coefficient and its terms times lm / lead; None if no lead
        divides lm.  A triple of higher lead degree cannot divide, so it is
        skipped before the componentwise test."""
        checked, hit = self._steps.get(lm, (0, None))
        if hit is None:
            deg = sum(lm)
            triples, degrees = self.triples, self.degrees
            for i in range(checked, len(triples)):
                g_lm, g_lc, g_terms = triples[i]
                if degrees[i] <= deg and mono_divides(g_lm, lm):
                    shift = mono_div(lm, g_lm)
                    hit = (g_lc, [(tuple(map(add, m, shift)), c) for m, c in g_terms.items()])
                    break
            self._steps[lm] = (len(triples), hit)
        return hit

    def charge(self, terms: int) -> None:
        self.work += terms
        if self.work > MAX_REDUCTION_WORK:
            raise ResourceBudgetExceeded(
                "gb-work", f"reduction work budget {MAX_REDUCTION_WORK} exceeded"
            )


def _heap_entry(m):
    # heapq pops its smallest entry first, so the grlex-largest monomial
    # gets the smallest key
    return (-sum(m), tuple(map(neg, m)), m)


def _normal_form(fdict: dict, red: _Reducers) -> dict:
    """Full normal form of fdict against red.

    Over Q by pseudo-reduction, with a primitive result; mod p by monic
    reduction, with the result in [0, p) but not yet monic.  Leads come off
    a heap of the pending monomials (one that cancelled is skipped when it
    surfaces), and each step uses red.step.  Mod p a pending coefficient is
    reduced only when it surfaces as a lead.
    """
    p = red.p
    f = dict(fdict)
    heap = [_heap_entry(m) for m in f]
    heapq.heapify(heap)
    rem: dict = {}
    while heap:
        lm = heapq.heappop(heap)[2]
        lc = f.get(lm)
        if lc is None:
            continue
        if p:
            lc %= p
            if not lc:
                del f[lm]
                continue
        hit = red.step(lm)
        if hit is None:
            rem[lm] = lc
            del f[lm]
            continue
        g_lc, shifted = hit
        b = lc  # mod p the reducer is monic
        if not p:
            g = math.gcd(lc, g_lc)
            a = g_lc // g
            b = lc // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                for k in f:
                    f[k] *= a
                for k in rem:
                    rem[k] *= a
                red.charge(len(f) + len(rem))
        # f -= b * (the shifted reducer), which cancels the lead
        for key, c in shifted:
            old = f.get(key)
            if old is None:
                f[key] = -b * c
                heapq.heappush(heap, _heap_entry(key))
            else:
                s = old - b * c
                if s:
                    f[key] = s
                else:
                    del f[key]
        f.pop(lm, None)  # mod p it may hold a nonzero multiple of p
        red.charge(len(shifted))
    return rem if p else _primitive_terms(rem)


def _spoly(f, g) -> dict:
    """S-polynomial of two reducer triples, integer-scaled."""
    f_lm, f_lc, f_terms = f
    g_lm, g_lc, g_terms = g
    L = mono_lcm(f_lm, g_lm)
    m = abs(f_lc * g_lc) // math.gcd(f_lc, g_lc)
    out: dict = {}
    _add_shifted(out, f_terms, m // f_lc, mono_div(L, f_lm))
    _add_shifted(out, g_terms, -(m // g_lc), mono_div(L, g_lm))
    return out


def _interreduce(reducers: list) -> list:
    """Reduced basis from the reducer triples of a Groebner basis over Q, as
    reducer triples sorted by leading monomial."""
    # drop elements whose leading monomial another one divides
    kept = []
    for i, (lm, _, _) in enumerate(reducers):
        redundant = False
        for j, (other_lm, _, _) in enumerate(reducers):
            if i == j:
                continue
            if mono_divides(other_lm, lm) and (other_lm != lm or j < i):
                redundant = True
                break
        if not redundant:
            kept.append(reducers[i])
    # tail-reduce every survivor against the others; leads stay put
    out = []
    for i, (_, _, terms) in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        reduced = (
            _normal_form(terms, _Reducers(others)) if others else _primitive_terms(terms)
        )
        if reduced:
            out.append(_reducer(reduced))
    out.sort(key=lambda r: grlex_key(r[0]))
    return out


def _complete(red: _Reducers, max_pairs: int, cap: int | None = None) -> bool:
    """Buchberger's pair loop: extend red to a Groebner basis.

    Without cap it runs until no pair is left and returns False.  With cap,
    for a homogeneous system of positive degree (see the module docstring),
    it returns True as soon as every variable has a pure-power lead, and
    False once the smallest pending pair has lcm degree above cap.
    """
    reducers = red.triples
    nvars = len(reducers[0][0])
    powers: set[int] = set()

    def settles(lm) -> bool:
        # a pure power of the last variable without one
        used = [i for i, e in enumerate(lm) if e]
        if len(used) == 1:
            powers.add(used[0])
        return len(powers) == nvars

    if cap is not None and any(settles(lm) for lm, _, _ in reducers):
        return True

    pairs: list = []
    handled: set[tuple[int, int]] = set()

    def push_pair(i: int, j: int):
        L = mono_lcm(reducers[i][0], reducers[j][0])
        heapq.heappush(pairs, (grlex_key(L), i, j, L))

    for i in range(len(reducers)):
        for j in range(i + 1, len(reducers)):
            push_pair(i, j)

    popped = 0
    while pairs:
        if cap is not None and pairs[0][0][0] > cap:  # the smallest lcm degree
            return False
        _, i, j, L = heapq.heappop(pairs)
        handled.add((i, j))
        popped += 1
        if popped > max_pairs:
            raise ResourceBudgetExceeded("gb-pairs", f"S-pair budget {max_pairs} exceeded")
        # coprime-leads criterion
        if all(min(a, b) == 0 for a, b in zip(reducers[i][0], reducers[j][0])):
            continue
        # chain criterion
        skip = False
        for k, (lm_k, _, _) in enumerate(reducers):
            if k in (i, j):
                continue
            if mono_divides(lm_k, L):
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 in handled and p2 in handled:
                    skip = True
                    break
        if skip:
            continue
        r = _normal_form(_spoly(reducers[i], reducers[j]), red)
        if not r:
            continue
        red.append(_reducer(r, red.p))
        if len(reducers) > MAX_BASIS:
            raise ResourceBudgetExceeded("gb-basis", f"basis size budget {MAX_BASIS} exceeded")
        if cap is not None and settles(reducers[-1][0]):
            return True
        new = len(reducers) - 1
        for k in range(new):
            push_pair(k, new)
    return False


def buchberger(I: IdealBasis, budgets: Budgets = Budgets()) -> GroebnerBasis:
    """Reduced Groebner basis of I over Q, graded lex order.

    Raises ResourceBudgetExceeded when the pair queue, the basis or the
    reduction work outgrows its budget.  The output is independent of
    generator order (reduced bases are unique), which regression tests rely
    on.
    """
    ring = Ring(I.ring.nvars, False, QQ)
    # one (lm, lc, terms) triple per basis element; elements never change
    red = _Reducers(
        _reducer(d) for d in (_to_int_dict(g) for g in I.generators) if d
    )
    if not red.triples:
        return GroebnerBasis(ring, (), _reducers=())
    _complete(red, budgets.max_pairs)
    reduced = tuple(_interreduce(red.triples))
    polys = tuple(
        LaurentPoly(ring, {m: Fraction(c, lc) for m, c in terms.items()})
        for _, lc, terms in reduced
    )
    # sanity: every input generator must reduce to zero against the output
    check = _Reducers(reduced)
    for g in I.generators:
        if _normal_form(_to_int_dict(g), check):
            raise AssertionError("input generator does not reduce to zero")
    return GroebnerBasis(ring, polys, _reducers=reduced)


def normal_form(f: LaurentPoly, G: GroebnerBasis) -> LaurentPoly:
    """Primitive integer normal form of f against the reduced basis."""
    if f.ring.laurent:
        raise ValueError("normal form expects an ordinary polynomial")
    if f.ring.nvars != G.ring.nvars:
        raise ValueError("variable count mismatch")
    rem = _normal_form(_to_int_dict(f), _Reducers(G.reducers()))
    return LaurentPoly(G.ring, {m: Fraction(c) for m, c in rem.items()})


def ideal_member(f: LaurentPoly, G: GroebnerBasis) -> bool:
    return normal_form(f, G).is_zero()


def radical_member(f: LaurentPoly, I: IdealBasis) -> bool:
    """Membership in the radical via the localization trick.

    f is in rad(I) iff 1 lies in the ideal generated by I and 1 - y*f in
    one extra variable y.  Nothing in the package calls it: it is the
    independent reference that only_trivial_solution is tested against.
    """
    if f.ring.nvars != I.ring.nvars:
        raise ValueError("variable count mismatch")
    n = I.ring.nvars
    ext = Ring(n + 1, False, QQ)
    gens = [_embed_vars(g, range(n), n + 1).to_domain(QQ) for g in I.generators]
    aux = {m + (1,): -c for m, c in _to_int_dict(f).items()}
    aux[(0,) * (n + 1)] = 1
    gens.append(LaurentPoly(ext, aux))
    return buchberger(IdealBasis(ext, tuple(gens))).is_unit_ideal()


def _trivial_zero_only(gens: list[dict], nvars: int, max_pairs: int, p: int = 0) -> bool:
    """only_trivial_solution for nonzero homogeneous integer term dicts,
    decided over Q, or mod p when p is given."""
    if p:
        gens = [d for d in ({m: c % p for m, c in g.items() if c % p} for g in gens) if d]
    degrees = sorted((sum(next(iter(d))) for d in gens), reverse=True)
    if 0 in degrees:
        return True  # a nonzero constant: the unit ideal has no zero at all
    if len(degrees) < nvars:
        return False
    red = _Reducers((_reducer(d, p) for d in gens), p)
    return _complete(red, max_pairs, cap=sum(degrees[:nvars]) - nvars + 1)


def only_trivial_solution(I: IdealBasis, budgets: Budgets = Budgets()) -> bool:
    """Whether the homogeneous system I has no nonzero complex solution.

    True exactly when I contains a power of every variable, the standard
    zero-dimensionality test, which for a homogeneous ideal pins the zero
    set inside the origin.  The answer needs no full basis: a run stops
    once every variable has a pure-power lead (True), and at Lazard's
    degree D = d_1 + ... + d_n - n + 1 of the n largest generator degrees,
    where an ideal with only the trivial zero already contains every
    monomial of degree D (False).  The first run is mod PRIME; a True
    answer there is final, because the degree-D Macaulay matrix's rank mod
    p is at most its rank over Q.  Otherwise, or when that run exhausts a
    budget, the exact run over Q decides.  The tests check the answer
    against radical_member, which asks whether every variable lies in the
    radical of I.
    """
    for g in I.generators:
        if not g.is_homogeneous():
            raise ValueError("only_trivial_solution requires homogeneous generators")
    n = I.ring.nvars
    if n == 0:
        return True
    gens = [_to_int_dict(g) for g in I.generators]
    try:
        if _trivial_zero_only(gens, n, budgets.max_pairs, PRIME):
            return True
    except ResourceBudgetExceeded:
        pass
    return _trivial_zero_only(gens, n, budgets.max_pairs)


def laurent_member(f: LaurentPoly, gens: list[LaurentPoly]) -> bool:
    """Membership of f in the Laurent ideal generated by gens, over Q.

    Reduces to ordinary membership saturated at the product of variables:
    with one auxiliary variable u, f lies in the Laurent ideal iff f lies
    in <normalized gens, 1 - u*x1*...*xn> as an ordinary ideal.
    """
    if f.is_zero():
        return True
    n = f.ring.nvars
    fq, _ = laurent_normalize(f)
    norm_gens = []
    for g in gens:
        if g.ring.nvars != n:
            raise ValueError("variable count mismatch")
        if g.is_zero():
            continue
        gq, _ = laurent_normalize(g)
        norm_gens.append(gq)
    if not norm_gens:
        return False
    ext = Ring(n + 1, False, QQ)
    ideal_gens = [_embed_vars(g, range(n), n + 1).to_domain(QQ) for g in norm_gens]
    sat = {(0,) * (n + 1): 1, (1,) * (n + 1): -1}
    ideal_gens.append(LaurentPoly(ext, sat))
    G = buchberger(IdealBasis(ext, tuple(ideal_gens)))
    return ideal_member(_embed_vars(fq, range(n), n + 1).to_domain(QQ), G)

