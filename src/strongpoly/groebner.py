"""Buchberger Groebner bases over Q in graded lexicographic order.

The engine works on integer-primitive term dicts (pseudo-reduction keeps
every intermediate coefficient an int); Fractions only appear when the
reduced basis is made monic at the boundary.  Pair selection is the normal
strategy (smallest lcm first) with Buchberger's coprimality and chain
criteria.  All entry points honor a step budget and raise
ResourceBudgetExceeded instead of running away.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction

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


def _reducer(d: dict):
    """(leading monomial, leading coefficient, terms) of a nonzero dict."""
    lm = max(d, key=grlex_key)
    return (lm, d[lm], d)


def _normal_form(fdict: dict, reducers) -> dict:
    """Full normal form by pseudo-reduction; result is primitive.

    The first reducer (in list order) whose lead divides the current lead
    is used; a reducer of higher lead degree cannot divide, so it is
    skipped before the componentwise test.
    """
    by_degree = [(sum(r[0]), r) for r in reducers]
    f = dict(fdict)
    rem: dict = {}
    while f:
        lm = max(f, key=grlex_key)
        lc = f[lm]
        deg = sum(lm)
        hit = None
        for g_deg, r in by_degree:
            if g_deg <= deg and mono_divides(r[0], lm):
                hit = r
                break
        if hit is None:
            rem[lm] = lc
            del f[lm]
            continue
        g_lm, g_lc, g_terms = hit
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
        _add_shifted(f, g_terms, -b, mono_div(lm, g_lm))
    return _primitive_terms(rem)


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
    """Reduced basis from the reducer triples of a Groebner basis, as
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
        reduced = _normal_form(terms, others) if others else _primitive_terms(terms)
        if reduced:
            out.append(_reducer(reduced))
    out.sort(key=lambda r: grlex_key(r[0]))
    return out


def buchberger(I: IdealBasis, budgets: Budgets = Budgets()) -> GroebnerBasis:
    """Reduced Groebner basis of I, graded lex order.

    Raises ResourceBudgetExceeded when the pair queue or basis outgrows
    the configured budget.  The output is independent of generator order
    (reduced bases are unique), which regression tests rely on.
    """
    ring = Ring(I.ring.nvars, False, QQ)
    # one (lm, lc, terms) triple per basis element; elements never change
    reducers = [_reducer(d) for d in (_to_int_dict(g) for g in I.generators) if d]
    if not reducers:
        return GroebnerBasis(ring, (), _reducers=())

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
        _, i, j, L = heapq.heappop(pairs)
        handled.add((i, j))
        popped += 1
        if popped > budgets.max_pairs:
            raise ResourceBudgetExceeded(
                "gb-pairs", f"S-pair budget {budgets.max_pairs} exceeded"
            )
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
        r = _normal_form(_spoly(reducers[i], reducers[j]), reducers)
        if not r:
            continue
        reducers.append(_reducer(r))
        if len(reducers) > MAX_BASIS:
            raise ResourceBudgetExceeded("gb-basis", f"basis size budget {MAX_BASIS} exceeded")
        new = len(reducers) - 1
        for k in range(new):
            push_pair(k, new)

    reduced = tuple(_interreduce(reducers))
    polys = tuple(
        LaurentPoly(ring, {m: Fraction(c, lc) for m, c in terms.items()})
        for _, lc, terms in reduced
    )
    # sanity: every input generator must reduce to zero against the output
    for g in I.generators:
        if _normal_form(_to_int_dict(g), reduced):
            raise AssertionError("input generator does not reduce to zero")
    return GroebnerBasis(ring, polys, _reducers=reduced)


def normal_form(f: LaurentPoly, G: GroebnerBasis) -> LaurentPoly:
    """Primitive integer normal form of f against the reduced basis."""
    if f.ring.laurent:
        raise ValueError("normal form expects an ordinary polynomial")
    if f.ring.nvars != G.ring.nvars:
        raise ValueError("variable count mismatch")
    rem = _normal_form(_to_int_dict(f), G.reducers())
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


def only_trivial_solution(I: IdealBasis, budgets: Budgets = Budgets()) -> bool:
    """Whether the homogeneous system I has no nonzero complex solution.

    Reads the answer off one Groebner basis: a pure power of every variable
    must appear among the leading monomials.  That is the standard
    zero-dimensionality test, and for a homogeneous ideal it pins the zero
    set inside the origin.  The tests check it against radical_member, which
    asks whether every variable lies in the radical of I.
    """
    for g in I.generators:
        if not g.is_homogeneous():
            raise ValueError("only_trivial_solution requires homogeneous generators")
    n = I.ring.nvars
    if n == 0:
        return True
    if not I.generators:
        return False
    G = buchberger(I, budgets)
    if G.is_unit_ideal():
        return True
    covered = [False] * n
    for d in G.reducers():
        lm = d[0]
        nz = [i for i, e in enumerate(lm) if e]
        if len(nz) == 1:
            covered[nz[0]] = True
    return all(covered)


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

