"""Localization plumbing: divisor-set membership and PID reduction.

Inverting the multiplicative set S of products of polynomials strongly
coprime to a fixed p (with nonzero augmentation) turns exponent ideals
<p^s1 q^t1, ..., p^sk q^tk> into principal ones.  The reduction here is
constructive: it returns the componentwise-minimum exponent vector
together with the S-unit witnesses that exhibit the generator as a ring
combination of the inputs; a witness is trusted once no prime divides it,
which for certified primes of the UFD Z[x^+-1] is coprimality to their product.

Generators are kept as exponent vectors; polynomials are expanded only
where the combination identity is checked: once when a reduction is built,
and once when verify_principality audits it.  Each of those calls keeps its
own table of prime powers, so every p_i^e and every product of powers is
made once per call and none outlives it.  The table's products spend their
term products from one meter per call, which raises ResourceBudgetExceeded
past MAX_IDENTITY_TERM_PRODUCTS (CLI exit 4).
"""

from dataclasses import dataclass, field, replace
from itertools import combinations

from .errors import Budgets, Meter
from .factor import is_irreducible
from .ring import LaurentPoly, Ring, ZZ, _power, divides, monomial_substitute
from .strongcheck import check_strongly_coprime
from .verdict import PROVED, Verdict, proved, refuted, undecided

# Deterministic catalog of monomial units tried when some prime divides a
# crossing witness: 1 first, then powers of each variable.
MAX_UNIT_SHIFT = 8

# Term products (one coefficient multiplication each) that the prime powers,
# witness products and combination identity of one reduction, or of one
# audit, may spend: 24 times the most one call spends in the test suite
# (41512, acceptance 8) and 55 times the most in the benchmark's first 3400
# instances of seeds 1 and 2 (18102).  The generators (80, 0), (0, 80) in two
# variables spend 683838; (90, 0), (0, 90) pass the cap within a second.
# It bounds these products only, not the call: the witnesses are checked by
# dividing them by each prime, and those exact divisions are not counted.
MAX_IDENTITY_TERM_PRODUCTS = 10**6


@dataclass(frozen=True)
class DivisorSetQuery:
    """A product of evaluated factors proposed as an element of the
    divisor set attached to p.

    Each candidate is (q, images): the factor polynomial and the monomial
    images its variables are evaluated at inside p's ring.  Factors must
    not vanish at the all-ones point.
    """

    p: LaurentPoly
    candidate: tuple

    def __post_init__(self):
        if self.p.is_zero():
            raise ValueError("p must be nonzero")
        if self.p.ring.domain != ZZ:
            raise ValueError("divisor sets are defined over ZZ")
        object.__setattr__(
            self, "candidate", tuple((q, tuple(tuple(im) for im in images)) for q, images in self.candidate)
        )
        n = self.p.ring.nvars
        for q, images in self.candidate:
            if q.is_zero():
                raise ValueError("zero factor in a divisor-set candidate")
            if q.coefficient_sum() == 0:
                raise ValueError(f"factor {q.to_text()} vanishes at (1, ..., 1)")
            if len(images) != q.ring.nvars:
                raise ValueError("one image per factor variable required")
            for im in images:
                if len(im) != n:
                    raise ValueError("image arity must match the ambient ring")
                if not any(im):
                    raise ValueError("zero exponent vector is not a group element image")


def divisor_set_member(query: DivisorSetQuery, budgets: Budgets = Budgets()) -> Verdict:
    """Membership of the candidate product in the divisor set of p.

    Each factor is evaluated at its images first.  PROVED when every
    evaluated factor is certified strongly coprime to p; REFUTED when some
    factor is refuted (p itself, for instance); UNDECIDED is inherited from
    the first factor the coprimality check cannot settle.
    """
    p = query.p.to_laurent()
    n = p.ring.nvars
    factor_rules = []
    for idx, (q, images) in enumerate(query.candidate):
        ev = monomial_substitute(q.to_laurent(), images, n).to_domain(ZZ)
        sub = check_strongly_coprime(p, ev, budgets)
        if sub.is_refuted:
            return refuted(
                {"factor_index": idx, "coprimality": sub.witness},
                factor=q.to_text(),
            )
        if sub.is_undecided:
            return undecided(sub.reason, factor_index=idx)
        factor_rules.append(sub.rule)
    return proved("componentwise", factor_rules=tuple(factor_rules))


@dataclass(frozen=True)
class LocalizedIdeal:
    """Ideal generated by p^s q^t monomials in the localized ring.

    Construction certifies the hypotheses once, through _certify: both
    primes irreducible (exact factorization route) and coprime to each
    other.  The two certificates are always computed here.
    """

    p: LaurentPoly
    q: LaurentPoly
    generators: tuple
    p_certificate: Verdict = field(init=False)
    q_certificate: Verdict = field(init=False)

    def __post_init__(self):
        (p, q), gens, (p_cert, q_cert) = _certify((self.p, self.q), self.generators)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "p_certificate", p_cert)
        object.__setattr__(self, "q_certificate", q_cert)


@dataclass(frozen=True)
class ReductionResult:
    """Single generator with its audit trail.

    combination records Lambda coefficients c_i with
    prod(primes)^generator * prod(witnesses) == sum c_i * input_i,
    the exact identity the principality proof rests on.
    """

    generator: tuple
    witnesses: tuple
    steps: tuple
    combination: tuple


def _certify(primes, generators):
    """(primes, generators, certificates) once the reduction's hypotheses
    hold: a common ring, every prime certified irreducible, no prime
    dividing another (irreducibles are coprime unless associates) and one
    nonnegative exponent per prime in every generator.  Raises ValueError
    otherwise."""
    primes = tuple(p.to_laurent() for p in primes)
    if not primes:
        raise ValueError("need at least one prime")
    if any(p.ring != primes[0].ring for p in primes):
        raise ValueError("primes must share a ring")
    gens = tuple(tuple(int(e) for e in g) for g in generators)
    for g in gens:
        if len(g) != len(primes):
            raise ValueError("one exponent per prime required")
        if any(e < 0 for e in g):
            raise ValueError("generator exponents must be nonnegative")
    certificates = tuple(is_irreducible(p) for p in primes)
    for p, cert in zip(primes, certificates):
        if cert.status != PROVED:
            raise ValueError(f"prime {p.to_text()} not certified irreducible ({cert.status})")
    if any(divides(a, b) for a, b in combinations(primes, 2)):
        raise ValueError("primes must be pairwise coprime")
    return primes, gens, certificates


class _PowerTable:
    """Products of powers of fixed primes, for the length of one call.

    Only the powers p_i^e that the call asks for are kept, and each is made
    once: from the largest kept p_i^k with k <= e, times p_i^(e-k) by
    square-and-multiply.  Each exponent vector's product is made once too.
    Every product made through mul spends its term products from the
    table's meter, of MAX_IDENTITY_TERM_PRODUCTS units, before it is made.
    """

    def __init__(self, primes):
        self.primes = primes
        self.powers = [{0: LaurentPoly.one(p.ring), 1: p} for p in primes]
        self.products = {}
        message = f"the combination identity needs more than {MAX_IDENTITY_TERM_PRODUCTS} term products"
        self.meter = Meter("localize", MAX_IDENTITY_TERM_PRODUCTS, message)

    def mul(self, f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
        self.meter.spend(f.num_terms() * g.num_terms())
        return f * g

    def power(self, i: int, e: int) -> LaurentPoly:
        powers = self.powers[i]
        out = powers.get(e)
        if out is None:
            k = max(j for j in powers if j <= e)
            out = powers[e] = _power(powers[k], self.primes[i], e - k, self.mul)
        return out

    def product(self, exps) -> LaurentPoly:
        """prod(primes[i]^exps[i])."""
        exps = tuple(exps)
        out = self.products.get(exps)
        if out is None:
            factors = [self.power(i, e) for i, e in enumerate(exps) if e]
            out = factors[0] if factors else self.power(0, 0)
            for f in factors[1:]:
                out = self.mul(out, f)
            self.products[exps] = out
        return out


def _combination_holds(table: _PowerTable, gens, result: ReductionResult) -> bool:
    """Whether prod(primes)^generator * prod(witnesses) == sum c_i * gens_i,
    with one combination coefficient per input."""
    if len(result.combination) != len(gens):
        return False
    lhs = table.product(result.generator)
    for w in result.witnesses:
        lhs = table.mul(lhs, w)
    rhs = LaurentPoly.zero(lhs.ring)
    for c, g in zip(result.combination, gens):
        if not c.is_zero():
            rhs = rhs + table.mul(c, table.product(g))
    return lhs == rhs


def _unit_catalog(ring: Ring):
    yield LaurentPoly.one(ring)
    for i in range(ring.nvars):
        for d in range(1, MAX_UNIT_SHIFT + 1):
            exps = [0] * ring.nvars
            exps[i] = d
            yield LaurentPoly.monomial(ring, exps)


def _reduce_vectors(primes, gens) -> ReductionResult:
    """Fold the two-case reduction over exponent vectors.

    Case 1 is componentwise dominance (one generator divides the other).
    Case 2 splits off the componentwise minimum m and emits the witness
    w = A + u*B with A, B the leftover prime powers on disjoint supports
    and u a monomial unit chosen so that no prime divides w; for two
    primes u = 1 always works and the shift is pure safety.
    """
    if not gens:
        raise ValueError("cannot reduce an empty generator list")
    ring = primes[0].ring
    table = _PowerTable(primes)
    one = LaurentPoly.one(ring)
    zero = LaurentPoly.zero(ring)

    current = gens[0]
    coeffs = [one] + [zero] * (len(gens) - 1)
    w_product = one
    witnesses: list = []
    steps: list = []
    for m, nxt in enumerate(gens[1:], start=1):
        if all(a <= b for a, b in zip(current, nxt)):
            steps.append(("dominated", m, None))
            continue
        if all(b <= a for a, b in zip(current, nxt)):
            # prod^nxt * W == W * input_m keeps every witness in the identity
            current = nxt
            coeffs = [zero] * len(gens)
            coeffs[m] = w_product
            steps.append(("dominates", m, None))
            continue
        mins = tuple(min(a, b) for a, b in zip(current, nxt))
        a_part = table.product(a - b for a, b in zip(current, mins))
        b_part = table.product(a - b for a, b in zip(nxt, mins))
        for unit in _unit_catalog(ring):
            witness = a_part + table.mul(unit, b_part)
            if not any(divides(p, witness) for p in primes):
                break
        else:
            raise RuntimeError("no S-unit witness found; the prime certificates must be wrong")
        # prod^mins * w == prod^current + u * prod^nxt; multiplying that by
        # the old witness product W turns prod^current * W into the running
        # combination, so the old coefficients carry over and the new input
        # enters with coefficient u * W.
        coeffs[m] = table.mul(unit, w_product)
        w_product = table.mul(w_product, witness)
        witnesses.append(witness)
        steps.append(("crossing", m, witness))
        current = mins

    result = ReductionResult(current, tuple(witnesses), tuple(steps), tuple(coeffs))
    if not _combination_holds(table, gens, result):
        raise RuntimeError("reduction lost the combination identity")
    return result


def reduce_localized_ideal(ideal: LocalizedIdeal) -> ReductionResult:
    """Single generator (s, t) of the localized ideal, with witnesses."""
    return _reduce_vectors((ideal.p, ideal.q), ideal.generators)


def reduce_multi_prime(primes, generators) -> ReductionResult:
    """The same reduction over any finite list of pairwise coprime
    certified irreducible primes; generators are exponent vectors."""
    primes, gens, _ = _certify(primes, generators)
    return _reduce_vectors(primes, gens)


def verify_principality(ideal: LocalizedIdeal, gen) -> bool:
    """Audit a ReductionResult from its own contents; a bare (s, t) pair
    is reduced once and audited as that result's generator.

    Downward: every input pair (a, b) must dominate (s, t), so p^s q^t
    divides p^a q^b with quotient p^(a-s) q^(b-t); as p and q are certified
    coprime primes, it divides no input that fails to.  Upward: the
    combination identity holds and neither prime divides a witness.  A pair
    that merely divides all inputs (such as (0, 0)) fails upward.
    """
    primes = (ideal.p, ideal.q)
    result = gen
    if not isinstance(gen, ReductionResult):
        result = replace(_reduce_vectors(primes, ideal.generators), generator=tuple(gen))
    if len(result.generator) != 2 or min(result.generator) < 0:
        return False
    s, t = result.generator
    if any(a < s or b < t for a, b in ideal.generators):
        return False
    if not _combination_holds(_PowerTable(primes), ideal.generators, result):
        return False
    return not any(divides(p, w) for p in primes for w in result.witnesses)
