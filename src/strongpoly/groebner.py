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

Inside a run each monomial is one int word of ring.WordFormat, ordered by
graded lex (Bachmann and Schoenemann, ISSAC 1998), so the normal form's
heap holds negated words.  The format's bound MAX_WORD_DEGREE - 1 makes its
words exact while the total degree stays below MAX_WORD_DEGREE = 2^31, so a
run raises ResourceBudgetExceeded of kind gb-degree for an input monomial
or a pair lcm of that degree or more.

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
  A pair of lcm degree above D would never be popped, so it is not queued.
- Mod p first.  The run is first made mod PRIME, and a True answer there is
  final.  It shows that I mod p holds a power of every variable, hence
  every monomial of some degree D, so the degree-D Macaulay matrix (the
  monomial multiples of the integer generators, as rows) has full column
  rank mod p; its rank over Q is at least its rank mod p, so I over Q
  contains every monomial of degree D too.  A False answer mod p says
  nothing about Q, so the exact run alone decides False.  An exhausted
  budget mod p is reported as it is, and the exact run is not started:
  with a prime that moves no lead, the exact run pops the same pairs and
  spends at least as much work, so it would exhaust too, and an exhaustion
  only ever gives UNDECIDED, never a wrong answer.

With exactly n generators, of degrees d_1, ..., d_n, the pair loop is also
driven by the Hilbert function of a complete intersection (C. Traverso,
J. Symbolic Comput. 22, 1996): the h-vector h of the product of the
(1 + t + ... + t^(d_i - 1)).  Pairs go by degree and every element is
homogeneous, so while the loop works on degree d, the degree-d multiples of
the known elements span a subspace of I_d of dimension dim R_d - |S_d|,
where S_d is the set of degree-d monomials that no lead divides; once every
degree-d pair is done, they span all of I_d.  Two rules use it, over Q and
mod p alike:

- Skip rule.  Forms of degrees d_1..d_n span at most dim R_d - h_d in
  degree d: that is the rank of the degree-d Macaulay matrix of a regular
  sequence such as x_i^(d_i), and generic forms, an open set that meets
  the regular sequences, reach the largest rank (over the algebraic
  closure of the field, which leaves every rank as it is).  So
  |S_d| >= h_d always, and once |S_d| = h_d the known elements span all of
  I_d: every pending degree-d pair reduces to zero.  Such a pair is popped
  and counted against the S-pair budget, but neither reduced nor tested by
  the criteria.
- Early False.  With only the trivial zero, the n forms are a regular
  sequence, so R/I has the Hilbert function h.  Once the smallest pending
  pair has degree above d, the leads give R/I its dimension |S_d| in degree
  d; if that exceeds h_d, the answer is False.  Mod p this is a False
  answer like any other, and the exact run decides.

The h-vector's length and each set S_d, one unit per monomial, are spent
from the run's reduction work before they are built, so a generator of high
degree exhausts MAX_REDUCTION_WORK instead of the time it takes to list its
monomials.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import Budgets, Meter, ResourceBudgetExceeded
from .ring import (
    QQ,
    LaurentPoly,
    Ring,
    WordFormat,
    _add_shifted_words,
    _primitive_terms,
)


# Largest reducer list Buchberger keeps before giving up; the S-pair
# budget is Budgets.max_pairs.
MAX_BASIS = 500

# Terms one run may touch in reduction steps (the reducer terms added, and
# over Q the terms a pseudo-reduction rescales), plus the standard monomials
# and h-vector entries a Hilbert-driven run lists, before giving up.
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

    def is_unit_ideal(self) -> bool:
        return len(self.polys) == 1 and self.polys[0].is_constant()


# -- packed monomials -----------------------------------------------------


# A run's words are exact while every total degree stays below this; with
# MAX_WORD_DEGREE - 1 as its bound, a WordFormat's fields are 32 bits wide.
MAX_WORD_DEGREE = 1 << 31


def _degree_exceeded(deg: int) -> ResourceBudgetExceeded:
    return ResourceBudgetExceeded(
        "gb-degree", f"monomial degree {deg} reaches the word limit {MAX_WORD_DEGREE}"
    )


def _word_format(nvars: int) -> WordFormat:
    return WordFormat(Ring(nvars, False, QQ), MAX_WORD_DEGREE - 1)


def _pack(words: WordFormat, d: dict) -> dict:
    """The word-keyed dict of a tuple-keyed one, each monomial's word being
    its shift in an ordinary ring, after the check that keeps it exact."""
    for deg in map(sum, d):
        if deg >= MAX_WORD_DEGREE:
            raise _degree_exceeded(deg)
    return words.shifts(d)


def _pair_lcm(words: WordFormat, a: int, b: int) -> int:
    """The lcm of two leads' words, after the check that keeps it exact."""
    L = words.lcm(a, b)
    if L >> words.top >= MAX_WORD_DEGREE:
        raise _degree_exceeded(L >> words.top)
    return L


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
    """(leading word, leading coefficient, terms) of a nonzero word-keyed
    dict; mod p the terms are made monic first."""
    lm = max(d)
    if p:
        inv = pow(d[lm], -1, p)
        d = {m: c * inv % p for m, c in d.items()}
    return (lm, d[lm], d)


class _Reducers:
    """The reducer triples of one run, its words, its modulus (0 over Q), the
    meter of its reduction work, and a cache of the reduction step for each
    lead.

    The cache is valid because a run's list only grows: the first divisor of
    a monomial in list order never changes, and a monomial without one need
    only be tested against the triples appended since.
    """

    def __init__(self, triples, words: WordFormat, p: int = 0):
        self.triples = list(triples)
        self.words = words
        self.p = p
        self.meter = Meter(
            "gb-work", MAX_REDUCTION_WORK, f"reduction work budget {MAX_REDUCTION_WORK} exceeded"
        )
        self._steps: dict = {}

    def step(self, lm: int):
        """The first triple in list order whose lead divides lm, as its
        leading coefficient and its terms times lm / lead; None if no lead
        divides lm."""
        checked, hit = self._steps.get(lm, (0, None))
        if hit is None:
            guard = self.words.guard
            triples = self.triples
            for i in range(checked, len(triples)):
                g_lm, g_lc, g_terms = triples[i]
                shift = lm - g_lm
                if not shift & guard:
                    hit = (g_lc, [(m + shift, c) for m, c in g_terms.items()])
                    break
            self._steps[lm] = (len(triples), hit)
        return hit


def _normal_form(fdict: dict, red: _Reducers) -> dict:
    """Full normal form of the word-keyed fdict against red.

    Over Q by pseudo-reduction, with a primitive result; mod p by monic
    reduction, with the result in [0, p) but not yet monic.  Leads come off
    a heap of the pending words, negated so that the largest comes first
    (one that cancelled is skipped when it surfaces), and each step uses
    red.step.  Mod p a pending coefficient is reduced only when it surfaces
    as a lead.
    """
    p, spend = red.p, red.meter.spend
    f = dict(fdict)
    heap = [-m for m in f]
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    rem: dict = {}
    while heap:
        lm = -heappop(heap)
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
            # g_lc > 0: _primitive_terms made each reducer's lead positive
            g = math.gcd(lc, g_lc)
            a = g_lc // g
            b = lc // g
            if a != 1:
                for k in f:
                    f[k] *= a
                for k in rem:
                    rem[k] *= a
                spend(len(f) + len(rem))
        # f -= b * (the shifted reducer), which cancels the lead
        for key, c in shifted:
            old = f.get(key)
            if old is None:
                f[key] = -b * c
                heappush(heap, -key)
            else:
                s = old - b * c
                if s:
                    f[key] = s
                else:
                    del f[key]
        f.pop(lm, None)  # mod p it may hold a nonzero multiple of p
        spend(len(shifted))
    return rem if p else _primitive_terms(rem, None)


def _spoly(f, g, L: int) -> dict:
    """S-polynomial of two reducer triples with lead lcm L, integer-scaled."""
    f_lm, f_lc, f_terms = f
    g_lm, g_lc, g_terms = g
    m = abs(f_lc * g_lc) // math.gcd(f_lc, g_lc)
    out: dict = {}
    _add_shifted_words(out, f_terms, m // f_lc, L - f_lm)
    _add_shifted_words(out, g_terms, -(m // g_lc), L - g_lm)
    return out


def _interreduce(red: _Reducers) -> list:
    """Reduced basis from the reducer triples of a Groebner basis over Q, as
    reducer triples sorted by leading word."""
    reducers, words = red.triples, red.words
    # drop elements whose leading monomial another one divides
    kept = []
    for i, (lm, _, _) in enumerate(reducers):
        redundant = False
        for j, (other_lm, _, _) in enumerate(reducers):
            if i == j:
                continue
            if words.divides(other_lm, lm) and (other_lm != lm or j < i):
                redundant = True
                break
        if not redundant:
            kept.append(reducers[i])
    # tail-reduce every survivor against the others; leads stay put
    out = []
    for i, (_, _, terms) in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        if others:
            reduced = _normal_form(terms, _Reducers(others, words))
        else:
            reduced = _primitive_terms(terms, None)
        if reduced:
            out.append(_reducer(reduced))
    out.sort()
    return out


def _h_vector(degrees) -> list[int]:
    """Coefficients of the product of the (1 + t + ... + t^(d - 1)) over
    degrees: the Hilbert function of a complete intersection.  Each factor
    takes one pass, each coefficient being a running sum over a window of
    d coefficients."""
    h = [1]
    for d in degrees:
        out = []
        window = 0
        for k in range(len(h) + d - 1):
            if k < len(h):
                window += h[k]
            if k >= d:
                window -= h[k - d]
            out.append(window)
        h = out
    return h


def _degree_monomials(n: int, d: int):
    """The exponent vectors of degree d in n >= 1 variables."""
    if n == 1:
        yield (d,)
        return
    for e in range(d, -1, -1):
        for rest in _degree_monomials(n - 1, d - e):
            yield (e,) + rest


class _Standard:
    """The standard monomials S_d (those no lead divides) of the degree d
    a Hilbert-driven pair loop works on, against the h-vector of its
    generators (see the module docstring).

    At the lowest generator degree only their count is kept; the set is
    built when the loop leaves that degree.  Each set's size is spent from
    the run's reduction work before it is built.
    """

    def __init__(self, leads: list, hilbert: list[int], meter: Meter):
        self.hilbert = hilbert
        self.meter = meter
        self.leads = set(leads)
        self.nvars = len(leads[0])
        self.deg = min(map(sum, leads))
        self.monos = None
        self.count = math.comb(self.deg + self.nvars - 1, self.nvars - 1) - sum(
            sum(lm) == self.deg for lm in self.leads
        )

    def _h(self) -> int:
        return self.hilbert[self.deg] if self.deg < len(self.hilbert) else 0

    def filled(self) -> bool:
        """Whether every pending pair of the current degree reduces to zero."""
        return self.count == self._h()

    def add_lead(self, lm) -> None:
        """Record a new lead of the current degree."""
        self.leads.add(lm)
        self.count -= 1
        if self.monos is not None:
            self.monos.discard(lm)

    def advance(self, deg: int) -> bool:
        """Step up to degree deg, every degree below it being complete;
        False at the first of them with more standard monomials than h."""
        n, leads = self.nvars, self.leads
        while self.deg < deg:
            if self.count > self._h():
                return False
            if self.monos is None:
                self.meter.spend(math.comb(self.deg + n - 1, n - 1))
                self.monos = {m for m in _degree_monomials(n, self.deg) if m not in leads}
            # M is standard iff it is no lead and every M / x_j is standard,
            # that is, iff as many standard monomials as M has variables
            # reach it by one multiplication
            self.meter.spend(n * len(self.monos))
            hits = Counter(s[:j] + (s[j] + 1,) + s[j + 1:] for s in self.monos for j in range(n))
            self.monos = {m for m, k in hits.items() if k == n - m.count(0) and m not in leads}
            self.deg += 1
            self.count = len(self.monos)
        return True


def _complete(
    red: _Reducers, max_pairs: int, cap: int | None = None, hilbert: list[int] | None = None
) -> bool:
    """Buchberger's pair loop: extend red to a Groebner basis.

    Without cap it runs until no pair is left and returns False.  With cap,
    for a homogeneous system of positive degree (see the module docstring),
    it returns True as soon as every variable has a pure-power lead, and
    False once no pair of lcm degree at most cap is left: a pair above cap
    is never queued.  With hilbert too, the h-vector of n generators in n
    variables, it skips the pairs of a degree whose standard monomials
    number h_d, and returns False at the first complete degree with more.
    """
    reducers, words = red.triples, red.words
    guard, top = words.guard, words.top
    powers: set[int] = set()

    def settles(lm) -> bool:
        # a pure power of the last variable without one
        used = [i for i, e in enumerate(lm) if e]
        if len(used) == 1:
            powers.add(used[0])
        return len(powers) == words.ring.nvars

    leads = [words.unpack(lm) for lm, _, _ in reducers]
    if cap is not None and any(map(settles, leads)):
        return True

    pairs: list = []
    handled: set[tuple[int, int]] = set()

    def push_pair(i: int, j: int):
        L = _pair_lcm(words, reducers[i][0], reducers[j][0])
        if cap is None or L >> top <= cap:
            heapq.heappush(pairs, (L, i, j))

    for i in range(len(reducers)):
        for j in range(i + 1, len(reducers)):
            push_pair(i, j)

    std = None if hilbert is None else _Standard(leads, hilbert, red.meter)
    popped = Meter("gb-pairs", max_pairs, f"S-pair budget {max_pairs} exceeded")
    while pairs:
        if std is not None and not std.advance(pairs[0][0] >> top):
            return False
        L, i, j = heapq.heappop(pairs)
        handled.add((i, j))
        popped.spend(1)
        if std is not None and std.filled():
            continue  # it reduces to zero
        # coprime-leads criterion: the lcm is the product
        if L == reducers[i][0] + reducers[j][0]:
            continue
        # chain criterion
        skip = False
        for k, (lm_k, _, _) in enumerate(reducers):
            if k in (i, j):
                continue
            if not (L - lm_k) & guard:
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 in handled and p2 in handled:
                    skip = True
                    break
        if skip:
            continue
        r = _normal_form(_spoly(reducers[i], reducers[j], L), red)
        if not r:
            continue
        reducers.append(_reducer(r, red.p))
        if len(reducers) > MAX_BASIS:
            raise ResourceBudgetExceeded("gb-basis", f"basis size budget {MAX_BASIS} exceeded")
        lead = words.unpack(reducers[-1][0])
        if std is not None:
            std.add_lead(lead)
        if cap is not None and settles(lead):
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
    words = _word_format(I.ring.nvars)
    # one (lm, lc, terms) triple per basis element; elements never change
    red = _Reducers(
        (_reducer(_pack(words, d)) for d in (_to_int_dict(g) for g in I.generators) if d),
        words,
    )
    if not red.triples:
        return GroebnerBasis(words.ring, ())
    _complete(red, budgets.max_pairs)
    reduced = tuple(_interreduce(red))
    polys = tuple(
        words.poly({m: Fraction(c, lc) for m, c in terms.items()}) for _, lc, terms in reduced
    )
    # sanity: every input generator must reduce to zero against the output
    check = _Reducers(reduced, words)
    for g in I.generators:
        if _normal_form(_pack(words, _to_int_dict(g)), check):
            raise AssertionError("input generator does not reduce to zero")
    return GroebnerBasis(words.ring, polys)


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
    gens = [LaurentPoly(ext, {m + (0,): c for m, c in g.term_dict().items()})
            for g in I.generators]
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
    words = _word_format(nvars)
    red = _Reducers((_reducer(_pack(words, d), p) for d in gens), words, p)
    hilbert = None
    if len(degrees) == nvars:
        red.meter.spend(sum(degrees) - nvars + 1)  # the length of the h-vector
        hilbert = _h_vector(degrees)
    return _complete(red, max_pairs, cap=sum(degrees[:nvars]) - nvars + 1, hilbert=hilbert)


def only_trivial_solution(I: IdealBasis, budgets: Budgets = Budgets()) -> bool:
    """Whether the homogeneous system I has no nonzero complex solution.

    True exactly when I contains a power of every variable, the standard
    zero-dimensionality test, which for a homogeneous ideal pins the zero
    set inside the origin.  The answer needs no full basis: a run stops
    once every variable has a pure-power lead (True), and at Lazard's
    degree D = d_1 + ... + d_n - n + 1 of the n largest generator degrees,
    where an ideal with only the trivial zero already contains every
    monomial of degree D (False).  With exactly n generators the pair loop
    also follows h, the Hilbert function of a complete intersection of
    their degrees.  Forms of those degrees span at most dim R_d - h_d in
    degree d (a regular sequence spans that much, and generic forms, an
    open set meeting the regular sequences, span the most), so once the
    standard monomials of degree d number h_d, the pending degree-d pairs
    all reduce to zero and are skipped, though counted as S-pairs.  With
    only the trivial zero the forms are a regular sequence and R/I has
    Hilbert function h, so a complete degree with more standard monomials
    than h_d gives False.  The first run is mod PRIME; a True
    answer there is final, because the degree-D Macaulay matrix's rank mod
    p is at most its rank over Q.  After a False answer there the exact run
    over Q decides.  When the modular run exhausts a budget, that
    ResourceBudgetExceeded propagates and no exact run starts: with a prime
    that moves no lead the exact run pops the same pairs and spends at
    least as much work.  The tests check the answer
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
    if _trivial_zero_only(gens, n, budgets.max_pairs, PRIME):
        return True
    return _trivial_zero_only(gens, n, budgets.max_pairs)

