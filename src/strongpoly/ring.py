"""Exact multivariate polynomial and Laurent polynomial arithmetic.

Polynomials live in Z[x1..xn], Q[x1..xn] or their Laurent versions
Z[x1^-1..xn^-1], with integer exponent vectors as monomial keys and exact
coefficients (int over Z, Fraction over Q).  Everything is immutable and
hashable, so values can be shared freely across threads and used as dict
keys.  The graded lexicographic order (total degree first, then left-to-right
exponent comparison) fixes a canonical term order; equal polynomials always
produce byte-identical text via to_text().
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, mul, sub
from typing import Iterable, Iterator

from .errors import ResourceBudgetExceeded

ZZ = "ZZ"
QQ = "QQ"

#: degree of the zero polynomial; compares below every integer
NEG_INF = float("-inf")

Monomial = tuple  # exponent vector, one int per variable


@dataclass(frozen=True)
class Ring:
    """Descriptor of the ambient (Laurent) polynomial ring."""

    nvars: int
    laurent: bool = False
    domain: str = ZZ

    def __post_init__(self):
        if self.nvars < 0:
            raise ValueError("nvars must be >= 0")
        if self.domain not in (ZZ, QQ):
            raise ValueError(f"unknown domain {self.domain!r}")

    def laurent_version(self) -> "Ring":
        return Ring(self.nvars, True, self.domain)

    def ordinary_version(self) -> "Ring":
        return Ring(self.nvars, False, self.domain)

    def coerce(self, c):
        """Coerce a coefficient into the domain, rejecting lossy input."""
        if self.domain == ZZ:
            if isinstance(c, Fraction):
                if c.denominator != 1:
                    raise ValueError(f"coefficient {c} is not an integer")
                return int(c)
            if isinstance(c, int):
                return int(c)
            raise ValueError(f"bad coefficient {c!r} for domain ZZ")
        if isinstance(c, (int, Fraction)):
            return Fraction(c)
        raise ValueError(f"bad coefficient {c!r} for domain QQ")


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(sub, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """a | b in the ordinary sense (componentwise <=)."""
    return all(map(le, a, b))


def grlex_key(m: Monomial):
    """Sort key for graded lex: total degree, then exponent vector."""
    return (sum(m), m)


# -- sparse term kernel ----------------------------------------------------
#
# Term dicts map exponent tuples to nonzero coefficients.  Every product of
# such dicts in the package, by another dict or by a monomial, runs through
# _add_shifted, every exact division through _div_terms and every content
# strip through _primitive_terms.  Loops that make many products before
# they build a result key their dicts by the int words of one WordFormat
# below instead, and make their products through the shifted update
# _add_shifted_words: alexander's colored Burau pass and cofactor expansion,
# and Buchberger's S-polynomials in groebner.py, whose normal form adds the
# same shifts in a loop of its own that also heaps each new word.


def _mul_terms(f: dict, g: dict) -> dict:
    """Product of two term dicts."""
    out: dict = {}
    for m, c in f.items():
        _add_shifted(out, g, c, m)
    return out


def _add_shifted(acc: dict, terms: dict, c, shift: Monomial) -> None:
    """acc += c * x^shift * terms, in place, dropping zero coefficients."""
    for m, v in terms.items():
        key = tuple(map(add, m, shift))
        s = acc.get(key, 0) + c * v
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)


def _add_shifted_words(acc: dict, terms: dict, c, shift: int) -> None:
    """_add_shifted for dicts keyed by the words of one WordFormat, shift
    being the format's shift of the monomial."""
    for w, v in terms.items():
        key = w + shift
        s = acc.get(key, 0) + c * v
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)


def _div_terms(f: dict, g: dict, domain: str = ZZ) -> dict | None:
    """f / g for ordinary term dicts when the division is exact, else None.

    Long division by grlex leading terms; exactness forces progress.  Over
    ZZ every coefficient division must be exact.
    """
    rem = dict(f)
    out: dict = {}
    g_lm = max(g, key=grlex_key)
    g_lc = g[g_lm]
    while rem:
        lm = max(rem, key=grlex_key)
        lc = rem[lm]
        if not mono_divides(g_lm, lm):
            return None
        if domain == ZZ:
            if lc % g_lc:
                return None
            qc = lc // g_lc
        else:
            qc = lc / g_lc
        qm = mono_div(lm, g_lm)
        out[qm] = qc
        _add_shifted(rem, g, -qc, qm)
    return out


def _primitive_terms(d: dict, key=grlex_key) -> dict:
    """Integer term dict over its content, with a positive coefficient on
    the term whose monomial is largest by key (graded lex; None for keys
    whose own order is graded lex); d itself when there is nothing to divide
    out."""
    if not d:
        return d
    g = math.gcd(*d.values())
    if d[max(d, key=key)] < 0:
        g = -g
    if g == 1:
        return d
    return {m: c // g for m, c in d.items()}


def _power(acc, base, e: int, mul):
    """acc * base^e for an int e >= 0, by square-and-multiply, each product
    made by mul(x, y)."""
    while e:
        if e & 1:
            acc = mul(acc, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return acc


class LaurentPoly:
    """Immutable sparse polynomial keyed by exponent tuples.

    __init__ canonicalizes the term dict: zero coefficients are dropped,
    lengths checked against the ring, negative exponents rejected unless the
    ring is Laurent.  The ring's own sums, negations and products are
    canonical already and skip those checks through _trusted.
    """

    __slots__ = ("ring", "_terms", "_key")

    def __init__(self, ring: Ring, terms: dict):
        clean = {}
        n = ring.nvars
        zz = ring.domain == ZZ
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != n:
                raise ValueError(f"monomial {mono} has wrong arity for {n} variables")
            for e in mono:
                if not isinstance(e, int):
                    raise ValueError(f"non-integer exponent in {mono}")
                if e < 0 and not ring.laurent:
                    raise ValueError(f"negative exponent in {mono} outside a Laurent ring")
            c = coeff if zz and type(coeff) is int else ring.coerce(coeff)
            if c:
                clean[mono] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_key", None)

    @classmethod
    def _trusted(cls, ring: Ring, terms: dict) -> "LaurentPoly":
        """A polynomial from a term dict that is already canonical for ring,
        without the checks of __init__: only for kernel results built from
        operands of that ring, never for outside data."""
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_key", None)
        return self

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring) -> "LaurentPoly":
        return cls(ring, {})

    @classmethod
    def constant(cls, ring: Ring, c) -> "LaurentPoly":
        return cls(ring, {(0,) * ring.nvars: c})

    @classmethod
    def one(cls, ring: Ring) -> "LaurentPoly":
        return cls.constant(ring, 1)

    @classmethod
    def variable(cls, ring: Ring, i: int) -> "LaurentPoly":
        if not 0 <= i < ring.nvars:
            raise ValueError(f"variable index {i} out of range")
        e = [0] * ring.nvars
        e[i] = 1
        return cls(ring, {tuple(e): 1})

    @classmethod
    def monomial(cls, ring: Ring, exps: Iterable[int], coeff=1) -> "LaurentPoly":
        return cls(ring, {tuple(exps): coeff})

    # -- canonical term access ----------------------------------------

    def terms(self) -> Iterator[tuple[Monomial, object]]:
        """Terms in descending graded-lex order."""
        for m in sorted(self._terms, key=grlex_key, reverse=True):
            yield m, self._terms[m]

    def term_dict(self) -> dict:
        return dict(self._terms)

    def coeff(self, mono: Iterable[int]):
        c = self._terms.get(tuple(mono))
        if c is None:
            return 0 if self.ring.domain == ZZ else Fraction(0)
        return c

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        z = (0,) * self.ring.nvars
        return all(m == z for m in self._terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.coeff((0,) * self.ring.nvars)

    def is_unit(self) -> bool:
        """Unit test in the ambient ring.

        Over Z: +-1 (ordinary) or +-(monomial) (Laurent).  Over Q the
        coefficient only has to be nonzero.
        """
        if len(self._terms) != 1:
            return False
        (mono, c), = self._terms.items()
        if any(mono) and not self.ring.laurent:
            return False
        if self.ring.domain == QQ:
            return True
        return c in (1, -1)

    def total_degree(self):
        if not self._terms:
            return NEG_INF
        return max(sum(m) for m in self._terms)

    def degree_in(self, i: int):
        if not self._terms:
            return NEG_INF
        return max(m[i] for m in self._terms)

    def min_exponent(self, i: int) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(m[i] for m in self._terms)

    def used_vars(self) -> tuple[int, ...]:
        """Indices of variables that occur with a nonzero exponent."""
        used = set()
        for m in self._terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return tuple(sorted(used))

    def leading_monomial(self) -> Monomial:
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._terms, key=grlex_key)

    def leading_coefficient(self):
        return self._terms[self.leading_monomial()]

    def coefficient_sum(self):
        """Evaluation at (1, ..., 1)."""
        z = 0 if self.ring.domain == ZZ else Fraction(0)
        return sum(self._terms.values(), z)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self._terms}
        return len(degs) <= 1

    # -- arithmetic ----------------------------------------------------

    def _check_ring(self, other: "LaurentPoly"):
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"expected LaurentPoly, got {type(other).__name__}")
        if other.ring != self.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other) -> "LaurentPoly":
        self._check_ring(other)
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return LaurentPoly._trusted(self.ring, out)

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(self.ring, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other) -> "LaurentPoly":
        self._check_ring(other)
        return LaurentPoly._trusted(self.ring, _mul_terms(self._terms, other._terms))

    def __pow__(self, e: int) -> "LaurentPoly":
        if not isinstance(e, int):
            raise TypeError("exponent must be an int")
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        return _power(LaurentPoly.one(self.ring), self, e, LaurentPoly.__mul__)

    def scale(self, c) -> "LaurentPoly":
        c = self.ring.coerce(c)
        if not c:
            return LaurentPoly.zero(self.ring)
        return LaurentPoly(self.ring, {m: v * c for m, v in self._terms.items()})

    def mul_monomial(self, exps: Iterable[int], coeff=1) -> "LaurentPoly":
        out: dict = {}
        _add_shifted(out, self._terms, coeff, tuple(exps))
        return LaurentPoly(self.ring, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self) -> int:
        key = self._key
        if key is None:
            key = hash((self.ring, tuple(self.terms())))
            object.__setattr__(self, "_key", key)
        return key

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()!r}, ring={self.ring})"

    # -- derived operations --------------------------------------------

    def bar(self) -> "LaurentPoly":
        """Bar involution: every variable is sent to its inverse."""
        out = {tuple(-e for e in m): c for m, c in self._terms.items()}
        ring = self.ring
        if not ring.laurent and any(any(e for e in m) for m in out):
            ring = ring.laurent_version()
        return LaurentPoly(ring, out)

    def content(self) -> int:
        """gcd of integer coefficients (ZZ domain), 0 for the zero poly."""
        if self.ring.domain != ZZ:
            raise ValueError("content is defined over ZZ")
        g = 0
        for c in self._terms.values():
            g = math.gcd(g, c)
        return g

    def sign_normalized(self) -> "LaurentPoly":
        """Flip sign so the graded-lex leading coefficient is positive."""
        if self.is_zero() or self.leading_coefficient() > 0:
            return self
        return -self

    def to_domain(self, domain: str) -> "LaurentPoly":
        if domain == self.ring.domain:
            return self
        ring = Ring(self.ring.nvars, self.ring.laurent, domain)
        return LaurentPoly(ring, self._terms)

    def to_laurent(self) -> "LaurentPoly":
        if self.ring.laurent:
            return self
        return LaurentPoly(self.ring.laurent_version(), self._terms)

    def to_ordinary(self) -> "LaurentPoly":
        if not self.ring.laurent:
            return self
        return LaurentPoly(self.ring.ordinary_version(), self._terms)

    # -- text form -------------------------------------------------------

    def to_text(self, var_prefix: str = "x") -> str:
        """Canonical text: descending graded-lex terms, '^' powers, '*' products.

        var_prefix 'x' names variables x1..xn, 't' names them t (single
        variable) or t1..tn.
        """
        if not self._terms:
            return "0"
        parts = []
        for idx, (mono, coeff) in enumerate(self.terms()):
            neg = coeff < 0
            mag = -coeff if neg else coeff
            factors = []
            for i, e in enumerate(mono):
                if e == 0:
                    continue
                name = _var_name(var_prefix, i, self.ring.nvars)
                factors.append(name if e == 1 else f"{name}^{e}")
            if not factors or mag != 1:
                try:
                    factors.insert(0, str(mag))
                except ValueError:
                    # a valid result too large to print; the interpreter's
                    # digit limit stays, as it also guards parsing
                    raise ResourceBudgetExceeded(
                        "render",
                        f"a coefficient passes the {sys.get_int_max_str_digits()}-digit limit for printing",
                    ) from None
            body = "*".join(factors)
            if idx == 0:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)


def _var_name(prefix: str, i: int, nvars: int) -> str:
    if prefix == "t":
        return "t" if nvars == 1 else f"t{i + 1}"
    return f"{prefix}{i + 1}"


class WordFormat:
    """Exponent vectors of a ring packed into one int word each, for a loop
    whose every exponent the caller can prove at most bound in size.

    Each variable has a field holding e_i + bias, the bias being bound in a
    Laurent ring and 0 in an ordinary one, and wide enough for that sum
    plus a guard bit on top that stays 0.  e_0 takes the most significant
    field, and above all of them the degree field, w >> top, holds their
    sum; so int order on words is graded lex order, in both kinds of ring.
    The word of x^m is one + shift(m), shift(m) being the same sum without
    the bias: a word times x^m is the word plus m's shift, one int
    addition.  In an ordinary ring one is 0, so a monomial's shift is also
    its word.  The guard bits decide divisibility and make the lcm.
    """

    def __init__(self, ring: Ring, bound: int):
        self.ring = ring
        n = ring.nvars
        self._bias = bound if ring.laurent else 0
        self._width = width = (self._bias + bound).bit_length() + 1
        self._mask = (1 << width) - 1
        self.top = n * width
        self._fields = range(self.top - width, -1, -width)
        self._units = tuple((1 << at) + (1 << self.top) for at in self._fields)
        self.guard = sum(1 << (at + width - 1) for at in self._fields)
        # times a word's fields, this puts their sum in the degree field
        self._degree_sum = sum(1 << (at + width) for at in self._fields)
        self.one = self.shift((self._bias,) * n)

    def shift(self, m: Monomial) -> int:
        """What multiplying by x^m adds to a word."""
        return sum(map(mul, m, self._units))

    def unpack(self, w: int) -> Monomial:
        mask, bias = self._mask, self._bias
        return tuple((w >> at & mask) - bias for at in self._fields)

    def shifts(self, terms: dict) -> dict:
        """A term dict keyed by shifts: the multipliers of a product by it."""
        return {self.shift(m): c for m, c in terms.items()}

    def divides(self, a: int, b: int) -> bool:
        """Whether the monomial of a divides that of b in the ordinary
        sense: no field of b - a borrows."""
        return not (b - a) & self.guard

    def lcm(self, a: int, b: int) -> int:
        """The word of the fieldwise max of a and b.  The guard bits of
        (a | guard) - b mark the fields where a is the larger, and one
        multiplication spreads each mark over its field.  The degree field
        is their sum while it stays below 2^width, as it does when the
        degree fields of a and b sum below that."""
        guard, top = self.guard, self.top
        a_larger = (((a | guard) - b) & guard) >> (self._width - 1)
        e = (b ^ ((a ^ b) & a_larger * self._mask)) & ((1 << top) - 1)
        return ((e * self._degree_sum) >> top & self._mask) << top | e

    def poly(self, words: dict) -> LaurentPoly:
        """The polynomial of a term dict keyed by this format's words, its
        coefficients nonzero and of the ring's domain, as the word kernel
        leaves them."""
        return LaurentPoly._trusted(self.ring, {self.unpack(w): c for w, c in words.items()})


@dataclass(frozen=True)
class HomogPoly:
    """Homogeneous polynomial in n+1 variables z0..zn, with checked degree."""

    inner: LaurentPoly
    total_degree: int

    def __post_init__(self):
        if self.inner.ring.laurent:
            raise ValueError("homogeneous polynomials live in an ordinary ring")
        for m, _ in self.inner.terms():
            if sum(m) != self.total_degree:
                raise ValueError(
                    f"term {m} has degree {sum(m)}, expected {self.total_degree}"
                )

    @property
    def ring(self) -> Ring:
        return self.inner.ring


def homogenize(p: LaurentPoly) -> HomogPoly:
    """Homogeneous counterpart in n+1 variables, z0 the added variable.

    Each term x^e of degree k picks up z0^(d-k) where d = deg p.  A
    homogeneous input embeds with z0 unused.  Laurent input is rejected;
    normalize first.
    """
    if p.ring.laurent:
        raise ValueError("homogenize expects an ordinary polynomial; laurent_normalize first")
    if p.is_zero():
        raise ValueError("cannot homogenize the zero polynomial")
    d = p.total_degree()
    ring = Ring(p.ring.nvars + 1, False, p.ring.domain)
    out = {}
    for m, c in p.term_dict().items():
        out[(d - sum(m),) + m] = c
    return HomogPoly(LaurentPoly(ring, out), d)


def power_substitute(p: LaurentPoly, t: Iterable[int]) -> LaurentPoly:
    """Substitute x_i -> x_i^{t_i} with every t_i a nonzero integer."""
    t = tuple(t)
    if len(t) != p.ring.nvars:
        raise ValueError(f"expected {p.ring.nvars} exponents, got {len(t)}")
    for ti in t:
        if not isinstance(ti, int) or ti == 0:
            raise ValueError(f"substitution exponents must be nonzero integers, got {ti}")
    n = len(t)
    images = [(0,) * i + (ti,) + (0,) * (n - 1 - i) for i, ti in enumerate(t)]
    return monomial_substitute(p, images, n)


def monomial_substitute(
    p: LaurentPoly, images: Iterable[Iterable[int]], nvars_out: int
) -> LaurentPoly:
    """Evaluate p at monomial images: x_i -> x^{images[i]} in nvars_out variables.

    Each image is an exponent vector; zero vectors are rejected since the
    images are meant to be group elements spanning something nontrivial.
    """
    imgs = [tuple(v) for v in images]
    if len(imgs) != p.ring.nvars:
        raise ValueError(f"expected {p.ring.nvars} images, got {len(imgs)}")
    for v in imgs:
        if len(v) != nvars_out:
            raise ValueError(f"image {v} has wrong arity for {nvars_out} variables")
        if not any(v):
            raise ValueError("monomial image must be a nonzero exponent vector")
    # exponent j of a term's image is its exponents dotted with column j
    cols = list(zip(*imgs)) if imgs else [()] * nvars_out
    out: dict = {}
    for m, c in p.term_dict().items():
        acc = tuple([sum(map(mul, m, col)) for col in cols])
        s = out.get(acc, 0) + c
        if s:
            out[acc] = s
        else:
            out.pop(acc, None)
    laurent = p.ring.laurent or any(e < 0 for m in out for e in m)
    return LaurentPoly(Ring(nvars_out, laurent, p.ring.domain), out)


def _embed_vars(p: LaurentPoly, positions: Iterable[int], nvars_out: int) -> LaurentPoly:
    """p in nvars_out variables, its variable i renamed to positions[i]."""
    units = [tuple(int(j == v) for j in range(nvars_out)) for v in positions]
    return monomial_substitute(p, units, nvars_out)


def laurent_normalize(p: LaurentPoly) -> tuple[LaurentPoly, Monomial]:
    """Split p = q * x^u with q ordinary and no variable dividing q.

    Returns (q, u).  q keeps the domain of p and is an ordinary-ring
    polynomial; u is the exponent vector of the monomial unit.
    """
    if p.is_zero():
        raise ValueError("cannot normalize the zero polynomial")
    n = p.ring.nvars
    u = tuple(p.min_exponent(i) for i in range(n))
    # a shift of a canonical dict is canonical, and it leaves no exponent
    # below 0
    out = {mono_div(m, u): c for m, c in p._terms.items()}
    return LaurentPoly._trusted(Ring(n, False, p.ring.domain), out), u


def exact_divide(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly | None:
    """f / g when g divides f exactly in the ambient ring, else None.

    Laurent inputs are normalized first; the monomial units divide out
    unconditionally.  Over ZZ every coefficient division must be exact.
    """
    if f.ring != g.ring:
        raise ValueError("ring mismatch")
    if g.is_zero():
        raise ValueError("division by zero polynomial")
    ring = f.ring
    if f.is_zero():
        return LaurentPoly.zero(ring)
    if ring.laurent:
        f, fu = laurent_normalize(f)
        g, gu = laurent_normalize(g)
    q = _div_terms(f._terms, g._terms, ring.domain)
    if q is None:
        return None
    if ring.laurent:
        shifted: dict = {}
        _add_shifted(shifted, q, 1, mono_div(fu, gu))
        q = shifted
    return LaurentPoly(ring, q)


def divides(g: LaurentPoly, f: LaurentPoly) -> bool:
    return exact_divide(f, g) is not None
