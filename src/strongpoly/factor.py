"""Desk-scale exact factorization and irreducibility oracle over Z.

Integer constants, the integer content and the sign belong to
is_irreducible, which settles them before any factoring.  Univariate
factorization of the primitive rest is the classical chain: Yun squarefree
decomposition, Berlekamp at the smallest odd prime that preserves degree
and squarefreeness, quadratic Hensel lifting past a Mignotte-style bound,
then subset recombination with exact trial division.  Multivariate
irreducibility combines three exact routes:

  * a non-unit content with respect to one variable is itself a factor;
  * a degree-preserving integer specialization that is irreducible over Q
    certifies irreducibility (any split with both factors of positive
    main-variable degree would survive the specialization, and a factor
    free of the main variable divides the unit content);
  * deterministic Kronecker substitution x_i -> y^(D^i), D > 2*maxdeg,
    factoring the image and lifting exponent patterns back with exact
    division, which is complete and therefore can also certify
    irreducibility when the subset search is exhausted.

The specialization route exists because Kronecker images blow up in degree
past three or four variables; it can only ever prove irreducibility, never
claim a factorization, so the two routes cannot contradict each other.
Everything returns an honest UNDECIDED("resource-...") verdict when its
budget runs out.

The dense layer has one long division, _uv_divmod (over Z, or mod a prime
or prime power), under Berlekamp, Hensel lifting, Yun, the gcd's pseudo-
remainders and every trial division, and one subset search, _recombine,
under both the Zassenhaus recombination and the Kronecker lift.
"""

from __future__ import annotations

import contextvars
import itertools
import math

from . import verdict
from .errors import Budgets, Meter, ResourceBudgetExceeded
from .ring import (
    ZZ,
    LaurentPoly,
    Ring,
    _add_shifted,
    _div_terms,
    _mul_terms,
    _power,
    _primitive_terms,
    exact_divide,
    laurent_normalize,
)
from .verdict import Verdict


# -- dense univariate integer polynomials (ascending coefficients) -----


def _uv_trim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f

def _uv_mod(f, m) -> list:
    """f with every coefficient reduced into [0, m), trimmed."""
    return _uv_trim([c % m for c in f])

def _uv_sym(f, m) -> list:
    """f with every coefficient reduced into the symmetric range mod m, trimmed."""
    return _uv_trim([c - m if c > m // 2 else c for c in _uv_mod(f, m)])

def _uv_deg(f: list) -> int:
    return len(f) - 1

def _uv_add(f, g):
    return _uv_trim([a + b for a, b in itertools.zip_longest(f, g, fillvalue=0)])

def _uv_sub(f, g):
    return _uv_trim([a - b for a, b in itertools.zip_longest(f, g, fillvalue=0)])

def _uv_prod(fs) -> list:
    out = [1]
    for f in fs:
        out = _uv_mul(out, f)
    return out

def _uv_mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] += a * b
    return _uv_trim(out)

def _uv_scale(f, c):
    return [] if c == 0 else [a * c for a in f]

def _uv_primitive(f) -> list:
    """Primitive part with positive leading coefficient."""
    if not f:
        return []
    g = math.gcd(*f)
    if f[-1] < 0:
        g = -g
    return [c // g for c in f]

def _uv_deriv(f):
    return _uv_trim([i * f[i] for i in range(1, len(f))])

def _uv_divmod(f, g, m=0):
    """(quotient, remainder) of f by g: over Z when m is 0, else mod m, a
    prime or a prime power.

    Over Z each quotient coefficient must be an integer, and the result is
    None as soon as one is not.  Mod m, lc(g) must be a unit, and a failure
    is an internal error, not bad input; the subtractions go unreduced, and
    the remainder is reduced into [0, m) once, at the end.
    """
    if not g:
        raise ZeroDivisionError
    glc = g[-1]
    if m:
        try:
            inv = pow(glc, -1, m)
        except ValueError:
            raise RuntimeError(f"leading coefficient {glc} is not a unit mod {m}") from None
        rem = _uv_mod(f, m)
    else:
        rem = list(f)
    dg = len(g) - 1
    out = [0] * max(len(rem) - dg, 0)
    for k in range(len(out) - 1, -1, -1):
        c = rem[k + dg]
        if m:
            q = c * inv % m
        elif c % glc:
            return None
        else:
            q = c // glc
        out[k] = q
        if q:
            for j, b in enumerate(g):
                rem[k + j] -= q * b
    rem = rem[:dg]
    return _uv_trim(out), _uv_mod(rem, m) if m else _uv_trim(rem)

def _uv_gcd(f, g) -> list:
    """gcd over Z via the primitive pseudo-remainder sequence."""
    f, g = _uv_trim(list(f)), _uv_trim(list(g))
    if not f:
        return _uv_primitive(g) if g else []
    if not g:
        return _uv_primitive(f)
    cf, cg = math.gcd(*f), math.gcd(*g)
    a, b = _uv_primitive(f), _uv_primitive(g)
    if _uv_deg(a) < _uv_deg(b):
        a, b = b, a
    while b:
        # lc(b)^(deg a - deg b + 1) * a divides exactly by b over Z, and its
        # remainder is the pseudo-remainder up to a positive factor
        lifted = _uv_scale(a, b[-1] ** (len(a) - len(b) + 1))
        a, b = b, _uv_primitive(_uv_divmod(lifted, b)[1])
    return _uv_scale(_uv_primitive(a), math.gcd(cf, cg))


# -- GF(p) arithmetic ---------------------------------------------------


def _gf_gcd(f, g, p):
    a, b = _uv_mod(f, p), _uv_mod(g, p)
    while b:
        a, b = b, _uv_divmod(a, b, p)[1]
    return _gf_monic(a, p)

def _gf_monic(f, p):
    f = _uv_mod(f, p)
    if not f:
        return f
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]

def _gf_xgcd(f, g, p):
    """(d, s, t) monic d = s*f + t*g over GF(p)."""
    r0, r1 = _uv_mod(f, p), _uv_mod(g, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _uv_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _uv_mod(_uv_sub(s0, _uv_mul(q, s1)), p)
        t0, t1 = t1, _uv_mod(_uv_sub(t0, _uv_mul(q, t1)), p)
    if r0:
        inv = pow(r0[-1], -1, p)
        r0, s0, t0 = ([c * inv % p for c in a] for a in (r0, s0, t0))
    return r0, s0, t0


def _berlekamp(f, p) -> list:
    """Monic irreducible factors of a monic squarefree f over GF(p)."""
    n = _uv_deg(f)
    if n <= 1:
        return [list(f)]
    # rows of the Frobenius matrix Q: x^(i*p) mod f
    xp = _power([1], [0, 1], p, lambda g, h: _uv_divmod(_uv_mul(g, h), f, p)[1])
    rows = []
    cur = [1]
    for _ in range(n):
        rows.append(cur + [0] * (n - len(cur)))
        cur = _uv_divmod(_uv_mul(cur, xp), f, p)[1]
    # Berlekamp's vectors v with v*Q = v span the right nullspace of (Q - I)^T
    T = [[(rows[i][j] - (i == j)) % p for i in range(n)] for j in range(n)]
    basis = _gf_nullspace(T, p)
    r = len(basis)
    if r == 1:
        return [list(f)]
    factors = [list(f)]
    for v in basis:
        vpoly = _uv_trim(list(v))
        if _uv_deg(vpoly) < 1:
            continue
        new_factors = []
        for u in factors:
            if _uv_deg(u) <= 1:
                new_factors.append(u)
                continue
            pieces = []
            rest = u
            for c in range(p):
                if _uv_deg(rest) < 1:
                    break
                shifted = _uv_trim([(vpoly[0] - c) % p] + vpoly[1:]) if vpoly else []
                g = _gf_gcd(rest, shifted, p)
                if 0 < _uv_deg(g) <= _uv_deg(rest):
                    pieces.append(g)
                    rest = _uv_divmod(rest, g, p)[0]
            if _uv_deg(rest) >= 1:
                pieces.append(_gf_monic(rest, p))
            new_factors.extend(pieces if pieces else [u])
        factors = new_factors
        if len(factors) == r:
            break
    return sorted(factors, key=lambda g: (len(g), g))


def _gf_nullspace(M, p):
    """Basis of the right nullspace of square matrix M over GF(p)."""
    n = len(M)
    A = [row[:] for row in M]
    row = 0
    pivots = {}
    for col in range(n):
        piv = next((r for r in range(row, n) if A[r][col] % p), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        inv = pow(A[row][col], -1, p)
        A[row] = [c * inv % p for c in A[row]]
        for r in range(n):
            if r != row and A[r][col]:
                f = A[r][col]
                A[r] = [(a - f * b) % p for a, b in zip(A[r], A[row])]
        pivots[col] = row
        row += 1
        if row == n:
            break
    basis = []
    free_cols = [c for c in range(n) if c not in pivots]
    for fc in free_cols:
        v = [0] * n
        v[fc] = 1
        for col, r in pivots.items():
            v[col] = (-A[r][fc]) % p
        basis.append(v)
    return basis


def _hensel_step(f, g, h, s, t, m):
    """One quadratic Hensel step: all invariants mod m lift to mod m*m."""
    mm = m * m
    e = _uv_mod(_uv_sub(f, _uv_mul(g, h)), mm)
    q, r = _uv_divmod(_uv_mul(s, e), h, mm)
    g1 = _uv_mod(_uv_add(g, _uv_add(_uv_mul(t, e), _uv_mul(q, g))), mm)
    h1 = _uv_mod(_uv_add(h, r), mm)
    b = _uv_mod(_uv_sub(_uv_add(_uv_mul(s, g1), _uv_mul(t, h1)), [1]), mm)
    c, d = _uv_divmod(_uv_mul(s, b), h1, mm)
    s1 = _uv_mod(_uv_sub(s, d), mm)
    t1 = _uv_mod(_uv_sub(t, _uv_add(_uv_mul(t, b), _uv_mul(c, g1))), mm)
    return _uv_sym(g1, mm), _uv_sym(h1, mm), _uv_sym(s1, mm), _uv_sym(t1, mm)


def _hensel_lift_tree(f, factors, p, target):
    """Lift monic GF(p) factors of monic f to factors mod >= target.

    f = prod(lifted) mod some modulus >= target, and every lifted factor is
    monic with symmetric-range coefficients.
    """
    if len(factors) == 1:
        return [list(f)]
    half = len(factors) // 2
    left, right = factors[:half], factors[half:]
    g, h = _uv_mod(_uv_prod(left), p), _uv_mod(_uv_prod(right), p)
    _, s, t = _gf_xgcd(g, h, p)
    m = p
    while m < target:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m = m * m
    out = []
    for part, sub in ((g, left), (h, right)):
        if len(sub) == 1:
            out.append(part)
        else:
            out.extend(_hensel_lift_tree(part, sub, p, target))
    return out


def _mignotte_modulus(f, p) -> int:
    """p^k with p^k > 2 * factor-coefficient bound for monic f."""
    norm = math.isqrt(sum(c * c for c in f)) + 1
    bound = (1 << len(f)) * norm
    m = p
    while m <= 2 * bound:
        m *= p
    return m


def _pick_prime(f) -> int:
    """Smallest odd prime keeping monic f squarefree mod p."""
    d = _uv_deriv(f)
    cand = 3
    while True:
        if f[-1] % cand:
            g = _gf_gcd(f, d, cand)
            if _uv_deg(g) == 0:
                return cand
        cand += 2
        while not _is_prime(cand):
            cand += 2

# Miller-Rabin with the thirteen prime bases 2..41 is a proof of primality
# below this bound, the least strong pseudoprime to all of them (Sorenson &
# Webster 2015; OEIS A014233); above it a pass is only probable.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_CERTIFIED_BELOW = 3_317_044_064_679_887_385_961_981
# _int_factor: trial divisors tried before Pollard rho, and the rho budget
# (iterations of x -> x^2 + c over one whole factorization: 1.4 s of CPython
# 3.11 on a 2-core Xeon VM for a 31-digit n; rho needs about sqrt(q) steps
# for a prime factor q, and split (10^12+39)*(10^12+61) in 0.6 s)
MAX_TRIAL_DIVISORS = 10_000
MAX_RHO_STEPS = 3_000_000
# Factoring budgets: the largest univariate degree Zassenhaus takes on, the
# most Kronecker-image factors the lift recombines, the subsets each
# _recombine search tries, and the degree-preserving points the
# specialization route evaluates.  Only the Kronecker image degree is settable, as
# Budgets.max_kron_degree.
MAX_UV_DEGREE = 320
MAX_KRON_ITEMS = 14
MAX_KRON_TRIALS = 20_000
SPEC_POINTS = 30


def _is_prime(n: int) -> bool:
    """Whether n is prime; raises ResourceBudgetExceeded when n passes
    every base but lies at or above MR_CERTIFIED_BELOW."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_CERTIFIED_BELOW:
        raise ResourceBudgetExceeded(
            "int-factor", f"cannot certify the probable prime {n} with deterministic bases"
        )
    return True


def _recombine(n: int, accept, trials: Meter):
    """Yield accept's result for each subset of the items 0..n-1 it takes.

    Subsets of the items still in the pool are tried by size, then in index
    order, up to half the pool, and each one tried spends one unit of
    trials.  accept(combo) returns None to reject a subset; an accepted one
    leaves the pool, and the search goes on at the same size.
    """
    pool = list(range(n))
    size = 1
    while 2 * size <= len(pool):
        for combo in itertools.combinations(pool, size):
            trials.spend(1)
            found = accept(combo)
            if found is not None:
                yield found
                pool = [i for i in pool if i not in combo]
                break
        else:
            size += 1


def _zassenhaus_squarefree(f: list) -> list:
    """Irreducible Z-factors of a primitive squarefree f with lc > 0."""
    n = _uv_deg(f)
    if n <= 1:
        return [list(f)]
    if n > MAX_UV_DEGREE:
        raise ResourceBudgetExceeded(
            "factor-degree", f"univariate degree {n} exceeds budget {MAX_UV_DEGREE}"
        )
    # monic transform F(y) = lc^(n-1) f(y/lc)
    lc = f[-1]
    F = [f[k] * lc ** (n - 1 - k) for k in range(n)] + [1]
    p = _pick_prime(F)
    modular = _berlekamp(_gf_monic(F, p), p)
    if len(modular) == 1:
        return [list(f)]
    target = _mignotte_modulus(F, p)
    lifted = _hensel_lift_tree(_uv_mod(F, target), modular, p, target)
    items = [_uv_sym(q, target) for q in lifted]

    def divides(combo):
        # a factor's constant term divides remaining[0] != 0 (Abbott et al.,
        # ISSAC 2000); the candidate's is the symmetric residue of its
        # items' constant terms, so test it before the product
        const = 1
        for idx in combo:
            const = const * items[idx][0] % target
        if const > target // 2:
            const -= target
        if const == 0 or remaining[0] % const:
            return None
        cand = _uv_sym(_uv_prod(items[idx] for idx in combo), target)
        qr = _uv_divmod(remaining, cand)
        return (cand, qr[0]) if qr and not qr[1] else None

    found_monic: list = []
    remaining = list(F)
    trials = Meter("factor-trials", MAX_KRON_TRIALS, "recombination budget exceeded")
    for cand, quo in _recombine(len(items), divides, trials):
        found_monic.append(cand)
        remaining = quo
    if _uv_deg(remaining) >= 1:
        found_monic.append(remaining)
    # undo y = lc*x and restore primitivity
    out = [_uv_primitive([g[k] * lc ** k for k in range(len(g))]) for g in found_monic]
    if _uv_prod(out) != list(f):
        raise AssertionError("recombination lost exactness")
    return sorted(out, key=lambda g: (len(g), g))


def _uv_factor_primitive(f: list) -> list[tuple[list, int]]:
    """(factor, multiplicity) pairs for primitive f with lc > 0, deg >= 1."""
    out = []
    k = next(i for i, c in enumerate(f) if c)
    if k:
        out.append(([0, 1], k))
        f = f[k:]
    if _uv_deg(f) >= 1:
        # Yun squarefree decomposition
        d = _uv_deriv(f)
        a = _uv_gcd(f, d)
        b = _uv_divmod(f, a)[0]
        c = _uv_divmod(d, a)[0]
        d = _uv_sub(c, _uv_deriv(b))
        i = 1
        while _uv_deg(b) > 0:
            a = _uv_gcd(b, d)
            b, c = _uv_divmod(b, a)[0], _uv_divmod(d, a)[0]
            d = _uv_sub(c, _uv_deriv(b))
            if _uv_deg(a) > 0:
                for irr in _zassenhaus_squarefree(a):
                    out.append((irr, i))
            i += 1
    return out


# -- boundary: LaurentPoly in, verdicts and factor lists out -------------


def _require_zz(p: LaurentPoly):
    if p.ring.domain != ZZ:
        raise ValueError("factorization is implemented over ZZ")


def _poly_from_dense(coeffs: list, ring: Ring, var: int) -> LaurentPoly:
    terms = {}
    for e, c in enumerate(coeffs):
        if c:
            mono = [0] * ring.nvars
            mono[var] = e
            terms[tuple(mono)] = c
    return LaurentPoly(ring, terms)


def univariate_factor(p: LaurentPoly) -> list[LaurentPoly]:
    """The irreducible factors over Z of a primitive ordinary p in exactly
    one variable, one entry per multiplicity, sorted by (degree, text); the
    first carries the sign of p's leading coefficient."""
    used = p.used_vars()
    if p.ring.laurent or len(used) != 1 or p.content() != 1:
        raise ValueError("univariate_factor needs a primitive ordinary polynomial in one variable")
    var = used[0]
    dense = _eval_partial(p, var, {})
    pairs = _uv_factor_primitive(_uv_primitive(dense))
    out = []
    for g, m in pairs:
        out += [_poly_from_dense(g, p.ring, var)] * m
    out.sort(key=lambda f: (f.total_degree(), f.to_text()))
    if dense[-1] < 0:
        out[0] = -out[0]
    return out


def _int_factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1, primes ascending.

    Trial division by 2..MAX_TRIAL_DIVISORS, then Pollard-Brent rho on the
    cofactor, every factor it leaves certified by _is_prime.  A probable
    prime too large to certify goes to rho as well, since it may be a
    strong pseudoprime.  Raises ResourceBudgetExceeded when rho runs past
    MAX_RHO_STEPS.
    """
    out = {}
    d = 2
    while d * d <= n and d <= MAX_TRIAL_DIVISORS:
        n, k = _strip_power(n, d)
        if k:
            out[d] = k
        d += 1
    # every prime factor left is >= d, so a cofactor below d*d is prime
    steps = Meter("int-factor", MAX_RHO_STEPS, "")
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        try:
            prime = m < d * d or _is_prime(m)
        except ResourceBudgetExceeded:
            prime = False
        if prime:
            out[m] = out.get(m, 0) + 1
        else:
            g = _rho_split(m, steps)
            pending += [g, m // g]
    return sorted(out.items())


def _strip_power(n: int, d: int) -> tuple[int, int]:
    """(n / d^k, k) for the largest k with d^k dividing n, found by dividing
    by the repeated squares of d, so the cost grows with log k, not k."""
    if n % d:
        return n, 0
    n, k = _strip_power(n // d, d * d)
    if n % d:
        return n, 2 * k + 1
    return n // d, 2 * k + 2


def _rho_split(n: int, steps: Meter) -> int:
    """A proper factor of the odd composite n by Brent's variant of Pollard
    rho (gcds batched over 128 steps), each step spent from steps."""
    steps.message = f"no factor of {n} within {MAX_RHO_STEPS} rho steps"
    for c in itertools.count(1):
        y = q = g = r = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            steps.spend(r + min(k, r))
            r *= 2
        if g == n:
            # the batch overshot: redo its steps one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


# -- multivariate gcd -----------------------------------------------------

# Term products (one coefficient multiplication each) that the pseudo-
# remainders of one poly_gcd call, or of one content split, may spend: 20
# times the most any call spends in the test suite (50022, acceptance 8) or
# in the benchmark's reference instances (1116).
MAX_GCD_TERM_PRODUCTS = 10**6


def _gcd_meter() -> Meter:
    message = f"pseudo-remainders need more than {MAX_GCD_TERM_PRODUCTS} term products"
    return Meter("gcd", MAX_GCD_TERM_PRODUCTS, message)


def _dict_gcd(f: dict, g: dict, meter: Meter) -> dict:
    """gcd of integer term dicts, primitive PRS recursion, sign-normalized;
    _dict_prem spends its term products from meter."""
    if not f:
        return _primitive_terms(g)
    if not g:
        return _primitive_terms(f)
    if (len(f) == 1 or len(g) == 1) and any(map(any, itertools.chain(f, g))):
        # one side is c * x^m and the two are not both constants: the gcd is
        # the monomial they share, which the recursion below reaches one
        # variable at a time
        return {tuple(map(min, *f, *g)): 1}
    used = set()
    for d in (f, g):
        for m in d:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
    if not used:
        z = next(iter(f))
        return {z: math.gcd(f[z], next(iter(g.values())))}
    v = min(used)
    fc, fp = _split_content(f, v, meter)
    gc, gp = _split_content(g, v, meter)
    cont = _dict_gcd(fc, gc, meter)
    a, b = fp, gp
    if _deg_in(a, v) < _deg_in(b, v):
        a, b = b, a
    while b:
        r = _dict_prem(a, b, v, meter)
        a, b = b, _primitive_in(r, v, meter)
    a = _primitive_in(a, v, meter)
    return _primitive_terms(_mul_terms(cont, a))


def _deg_in(d: dict, v: int) -> int:
    return max((m[v] for m in d), default=-1)


def _coeff_in(d: dict, v: int, e: int) -> dict:
    out = {}
    for m, c in d.items():
        if m[v] == e:
            key = m[:v] + (0,) + m[v + 1:]
            out[key] = c
    return out


def _split_content(d: dict, v: int, meter: Meter) -> tuple[dict, dict]:
    """(content, primitive part) of d viewed univariately in v; the
    primitive part is d itself when the content is one."""
    cont: dict = {}
    for e in range(_deg_in(d, v) + 1):
        ce = _coeff_in(d, v, e)
        if ce:
            cont = _dict_gcd(cont, ce, meter) if cont else _primitive_terms(ce)
            if _is_dict_one(cont):
                return cont, d
    pp = _div_terms(d, cont)
    if pp is None:
        raise RuntimeError("content does not divide its polynomial")
    return cont, pp


def _is_dict_one(d: dict) -> bool:
    return len(d) == 1 and next(iter(d.values())) == 1 and not any(next(iter(d)))


def _dict_prem(f: dict, g: dict, v: int, meter: Meter) -> dict:
    """Pseudo-remainder of f by g in the variable v."""
    dg = _deg_in(g, v)
    glc = _coeff_in(g, v, dg)
    r = f
    while r and _deg_in(r, v) >= dg:
        dr = _deg_in(r, v)
        rlc = _coeff_in(r, v, dr)
        meter.spend(len(r) * len(glc) + len(rlc) * len(g))
        # r = glc * r - rlc * x_v^(dr - dg) * g, one term of rlc at a time
        r = _mul_terms(r, glc)
        for m, c in rlc.items():
            _add_shifted(r, g, -c, m[:v] + (dr - dg,) + m[v + 1:])
    return r


def _primitive_in(d: dict, v: int, meter: Meter) -> dict:
    """d over its content in v and over its integer content: the gcd is
    taken up to integer factors, and keeping them lets the pseudo-remainders'
    coefficients grow exponentially."""
    if not d:
        return {}
    _, pp = _split_content(d, v, meter)
    return _primitive_terms(pp)


def poly_gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """gcd in the ambient ring, canonical representative: the gcd of the two
    integer contents times the gcd of the two primitive parts, with a
    positive graded-lex leading coefficient.

    Over a Laurent ring, monomials are units, so they are stripped first
    and the result carries no monomial factor.  Over an ordinary ring the
    gcd keeps monomial factors: poly_gcd(4*x1, 6*x1) is 2*x1 over Z[x1]
    and 2 over Z[x1^+-1].
    """
    if p.ring != q.ring:
        raise ValueError("ring mismatch")
    _require_zz(p)
    def primitive(h):
        if h.is_zero():
            return {}
        if p.ring.laurent:
            h, _ = laurent_normalize(h)
        return _primitive_terms(h.term_dict())
    content = math.gcd(p.content(), q.content())
    d = _dict_gcd(primitive(p), primitive(q), _gcd_meter())
    return LaurentPoly(p.ring, {m: c * content for m, c in d.items()})


def coprime(p: LaurentPoly, q: LaurentPoly) -> bool:
    """True iff gcd(p, q) is a unit of the ambient ring."""
    return poly_gcd(p, q).is_unit()


# -- multivariate irreducibility ------------------------------------------

# Outcomes of _image_irreducible by coefficient tuple: a dict for the
# duration of one strong-irreducibility refutation search, which sets it on
# entry and resets it on exit, and None everywhere else.
_IMAGE_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "image_memo", default=None
)


def _eval_partial(p: LaurentPoly, main: int, point: dict) -> list:
    """Dense coefficients of p in the main variable at an integer point."""
    out = [0] * (p.degree_in(main) + 1)
    for m, c in p.term_dict().items():
        val = c
        for i, e in enumerate(m):
            if i == main or not e:
                continue
            val *= point[i] ** e
        out[m[main]] += val
    return _uv_trim(out)


def _specialization_proved(p: LaurentPoly) -> bool:
    """Try to certify irreducibility by a degree-preserving specialization.

    A refutation search calls this on many power substitutions q(x^t), and
    at the all-ones point every one of them with the same main-variable
    exponent has the same univariate image.  So while _IMAGE_MEMO holds a
    dict (strongcheck sets one for each search and resets it after), the
    outcome of factoring each distinct image is computed once per search.
    That is exact: _uv_factor_primitive is deterministic and its budgets are
    per call, so a recorded outcome is the one a second call would give.
    """
    used = p.used_vars()
    main = min(used, key=lambda v: (p.degree_in(v), v))
    others = [v for v in used if v != main]
    dmain = p.degree_in(main)
    values = (1, -1, 2, -2, 3, -3, 0)
    attempts = 0
    for combo in itertools.product(values, repeat=len(others)):
        if attempts >= SPEC_POINTS:
            break
        point = dict(zip(others, combo))
        dense = _eval_partial(p, main, point)
        if _uv_deg(dense) != dmain:
            continue
        attempts += 1
        prim = _uv_primitive(dense)
        if prim[0] == 0:
            continue
        if _uv_deg(prim) == 1 or _image_irreducible(prim):
            return True
    return False


def _image_irreducible(prim: list) -> bool:
    """Whether _uv_factor_primitive finds the primitive image prim
    irreducible; an image it finds reducible, or whose factoring exceeds a
    budget, proves nothing.  Inside a refutation search the answer is looked
    up in, or else recorded in, that search's _IMAGE_MEMO."""
    memo = _IMAGE_MEMO.get()
    key = tuple(prim)
    if memo is not None and key in memo:
        return memo[key]
    try:
        pairs = _uv_factor_primitive(prim)
        irreducible = len(pairs) == 1 and pairs[0][1] == 1
    except ResourceBudgetExceeded:
        irreducible = False
    if memo is not None:
        memo[key] = irreducible
    return irreducible


def _kronecker_split(p: LaurentPoly, max_degree: int):
    """A split (g, h) with g * h == p, or None when p is irreducible; raises
    ResourceBudgetExceeded when a budget runs out first."""
    used = p.used_vars()
    degs = {v: p.degree_in(v) for v in used}
    D = 2 * max(degs.values()) + 1
    weight = {}
    acc = 1
    for v in used:
        weight[v] = acc
        acc *= D
    total = sum(degs[v] * weight[v] for v in used)
    if total > max_degree:
        raise ResourceBudgetExceeded("kronecker", f"kronecker image degree {total} exceeds budget")
    dense = [0] * (total + 1)
    for m, c in p.term_dict().items():
        dense[sum(m[v] * weight[v] for v in used)] += c
    dense = _uv_trim(dense)
    pairs = _uv_factor_primitive(_uv_primitive(dense))
    items = []
    for g, mult in pairs:
        items.extend([g] * mult)
    if len(items) > MAX_KRON_ITEMS:
        raise ResourceBudgetExceeded("kronecker", f"{len(items)} kronecker factors exceed budget")
    nv = p.ring.nvars

    def lift(combo):
        gd = _uv_prod(items[idx] for idx in combo)
        terms = {}
        for e, c in enumerate(gd):
            if not c:
                continue
            mono = [0] * nv
            rest = e
            for v in reversed(used):
                mono[v], rest = divmod(rest, weight[v])
                if mono[v] > degs[v]:
                    return None
            key = tuple(mono)
            terms[key] = terms.get(key, 0) + c
        cand = LaurentPoly(p.ring, terms)
        if cand.is_constant() or cand.total_degree() == p.total_degree():
            return None
        quo = exact_divide(p, cand)
        return None if quo is None else (cand, quo)

    trials = Meter("kronecker", MAX_KRON_TRIALS, "kronecker trial budget exceeded")
    return next(_recombine(len(items), lift, trials), None)


def is_irreducible(p: LaurentPoly, budgets: Budgets = Budgets()) -> Verdict:
    """Three-valued irreducibility check over Z.

    A polynomial in a Laurent ring is judged up to Laurent units: monomial
    factors are divided out first and monomials themselves are rejected as
    units.  In an ordinary ring a monomial factor is a factor like any
    other.  REFUTED verdicts carry factors whose product gives back the
    input exactly, in the input's ring.
    """
    _require_zz(p)
    if p.is_zero():
        raise ValueError("zero polynomial has no irreducibility status")

    q, unit_mono = laurent_normalize(p) if p.ring.laurent else (p, (0,) * p.ring.nvars)

    def with_unit(factors: list[LaurentPoly]) -> list[LaurentPoly]:
        """Reattach the stripped monomial to the first factor; exact product."""
        out = [f.to_laurent() if p.ring.laurent else f for f in factors]
        if any(unit_mono):
            out[0] = out[0].mul_monomial(unit_mono)
        return out

    if q.is_constant():
        c = q.constant_value()
        if abs(c) == 1:
            raise ValueError("unit input: irreducibility is undefined for units")
        fs = _int_factor(abs(c))
        if len(fs) == 1 and fs[0][1] == 1:
            return verdict.proved("constant-prime", constant=c)
        parts = []
        sign = -1 if c < 0 else 1
        for prime, m in fs:
            parts.extend([LaurentPoly.constant(q.ring, prime)] * m)
        parts[0] = parts[0].scale(sign)
        return verdict.refuted({"factors": with_unit(parts)})

    cont = q.content()
    if cont > 1:
        sign = -1 if q.leading_coefficient() < 0 else 1
        pp = LaurentPoly(q.ring, _primitive_terms(q.term_dict()))
        return verdict.refuted(
            {"factors": with_unit([LaurentPoly.constant(q.ring, cont * sign), pp])}
        )

    used = q.used_vars()
    if len(used) == 1:
        factors = univariate_factor(q)
        if len(factors) == 1:
            return verdict.proved("univariate")
        return verdict.refuted({"factors": with_unit(factors)})

    if q.total_degree() == 1:
        return verdict.proved("degree-1")

    main = min(used, key=lambda v: (q.degree_in(v), v))
    cont_v, pp = _split_content(q.term_dict(), main, _gcd_meter())
    cont_v = LaurentPoly(q.ring, cont_v)
    if not cont_v.is_unit():
        return verdict.refuted({"factors": with_unit([cont_v, LaurentPoly(q.ring, pp)])})

    if _specialization_proved(q):
        return verdict.proved("specialization")

    try:
        split = _kronecker_split(q, budgets.max_kron_degree)
    except ResourceBudgetExceeded as exc:
        return verdict.undecided("resource-kronecker", detail=str(exc))
    if split is None:
        return verdict.proved("kronecker")
    return verdict.refuted({"factors": with_unit(list(split))})
