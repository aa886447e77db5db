"""Localization plumbing: divisor-set membership and PID reduction.

Inverting the multiplicative set S of products of polynomials strongly
coprime to a fixed p (with nonzero augmentation) turns exponent ideals
<p^s1 q^t1, ..., p^sk q^tk> into principal ones.  The reduction here is
constructive: it returns the componentwise-minimum exponent vector
together with the S-unit witnesses that exhibit the generator as a ring
combination of the inputs, and every witness is certified coprime to the
product of the primes before it is trusted.

Generators are kept as exponent vectors; polynomials are expanded only
inside verification, where the combination identity is replayed exactly.
"""

from dataclasses import dataclass

from .factor import coprime, is_irreducible
from .ring import LaurentPoly, Ring, ZZ, monomial_substitute
from .strongcheck import DEFAULT_STRONG_OPTIONS, StrongIrredOptions, check_strongly_coprime
from .verdict import PROVED, Verdict, proved, refuted, undecided

# Deterministic catalog of monomial units tried when a crossing witness
# shares a factor with some prime: 1 first, then powers of each variable.
MAX_UNIT_SHIFT = 8


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


def divisor_set_member(
    query: DivisorSetQuery, options: StrongIrredOptions = DEFAULT_STRONG_OPTIONS
) -> Verdict:
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
        sub = check_strongly_coprime(p, ev, options)
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

    Construction certifies the hypotheses once: both primes irreducible
    (exact factorization route) and coprime to each other.
    """

    p: LaurentPoly
    q: LaurentPoly
    generators: tuple
    p_certificate: Verdict = None
    q_certificate: Verdict = None

    def __post_init__(self):
        object.__setattr__(self, "p", self.p.to_laurent())
        object.__setattr__(self, "q", self.q.to_laurent())
        if self.p.ring != self.q.ring:
            raise ValueError("p and q must share a ring")
        gens = tuple((int(s), int(t)) for s, t in self.generators)
        for s, t in gens:
            if s < 0 or t < 0:
                raise ValueError("generator exponents must be nonnegative")
        object.__setattr__(self, "generators", gens)
        if self.p_certificate is None:
            object.__setattr__(self, "p_certificate", is_irreducible(self.p, mode="laurent"))
        if self.q_certificate is None:
            object.__setattr__(self, "q_certificate", is_irreducible(self.q, mode="laurent"))
        for name, cert in (("p", self.p_certificate), ("q", self.q_certificate)):
            if cert.status != PROVED:
                raise ValueError(f"{name} is not certified irreducible ({cert.status})")
        if not coprime(self.p, self.q):
            raise ValueError("p and q must be coprime")


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


def _power_product(primes, exps) -> LaurentPoly:
    out = LaurentPoly.one(primes[0].ring)
    for base, e in zip(primes, exps):
        if e:
            out = out * base**e
    return out


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
    and u a monomial unit chosen so that w is coprime to every prime; for
    two primes u = 1 always works and the shift is pure safety.
    """
    if not gens:
        raise ValueError("cannot reduce an empty generator list")
    ring = primes[0].ring
    prime_product = _power_product(primes, (1,) * len(primes))
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
            current = nxt
            coeffs = [zero] * len(gens)
            coeffs[m] = one
            w_product = one
            steps.append(("dominates", m, None))
            continue
        mins = tuple(min(a, b) for a, b in zip(current, nxt))
        a_part = _power_product(primes, tuple(a - b for a, b in zip(current, mins)))
        b_part = _power_product(primes, tuple(a - b for a, b in zip(nxt, mins)))
        witness = None
        unit = None
        for u in _unit_catalog(ring):
            cand = a_part + u * b_part
            if not cand.is_zero() and coprime(cand, prime_product):
                witness, unit = cand, u
                break
        if witness is None:
            raise RuntimeError(
                "no S-unit witness found; the prime certificates must be wrong"
            )
        # prod^mins * w == prod^current + u * prod^nxt; multiplying that by
        # the old witness product W turns prod^current * W into the running
        # combination, so the old coefficients carry over and the new input
        # enters with coefficient u * W.
        coeffs[m] = unit * w_product
        w_product = w_product * witness
        witnesses.append(witness)
        steps.append(("crossing", m, witness))
        current = mins

    lhs = _power_product(primes, current) * w_product
    rhs = zero
    for c, g in zip(coeffs, gens):
        if not c.is_zero():
            rhs = rhs + c * _power_product(primes, g)
    if lhs != rhs:
        raise RuntimeError("reduction lost the combination identity")
    return ReductionResult(current, tuple(witnesses), tuple(steps), tuple(coeffs))


def reduce_localized_ideal(ideal: LocalizedIdeal) -> ReductionResult:
    """Single generator (s, t) of the localized ideal, with witnesses."""
    return _reduce_vectors((ideal.p, ideal.q), ideal.generators)


def reduce_multi_prime(primes, generators) -> ReductionResult:
    """The same reduction over any finite list of pairwise coprime
    certified irreducible primes; generators are exponent vectors."""
    primes = tuple(p.to_laurent() for p in primes)
    if not primes:
        raise ValueError("need at least one prime")
    ring = primes[0].ring
    for p in primes:
        if p.ring != ring:
            raise ValueError("primes must share a ring")
        cert = is_irreducible(p, mode="laurent")
        if cert.status != PROVED:
            raise ValueError(f"prime {p.to_text()} not certified irreducible ({cert.status})")
    for i in range(len(primes)):
        for j in range(i + 1, len(primes)):
            if not coprime(primes[i], primes[j]):
                raise ValueError("primes must be pairwise coprime")
    gens = tuple(tuple(int(e) for e in g) for g in generators)
    for g in gens:
        if len(g) != len(primes):
            raise ValueError("one exponent per prime required")
        if any(e < 0 for e in g):
            raise ValueError("generator exponents must be nonnegative")
    return _reduce_vectors(primes, gens)


def verify_principality(ideal: LocalizedIdeal, gen) -> bool:
    """Audit a claimed single generator against both inclusions.

    Downward: every input must be an exact ring multiple of p^s q^t.
    Upward: the claimed pair must match a replayed reduction, whose
    combination identity and witness coprimality are re-checked from
    scratch.  A pair that merely divides all inputs (such as (0, 0)) fails
    the upward direction.
    """
    if isinstance(gen, ReductionResult):
        gen = gen.generator
    s, t = int(gen[0]), int(gen[1])
    if s < 0 or t < 0:
        return False
    primes = (ideal.p, ideal.q)
    gen_poly = _power_product(primes, (s, t))
    for pair in ideal.generators:
        if _power_product(primes, pair).exact_divide(gen_poly) is None:
            return False
    try:
        replay = _reduce_vectors(primes, ideal.generators)
    except RuntimeError:
        return False
    if replay.generator != (s, t):
        return False
    prime_product = ideal.p * ideal.q
    for w in replay.witnesses:
        if not coprime(w, prime_product):
            return False
    return True
