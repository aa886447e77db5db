"""Two parametric families of strongly irreducible Laurent polynomials.

Family F1 lives in an even number of variables 2n with nonzero integer
coefficients k_1..k_2n subject to -k1 + k2 - k3 + ... + k_2n = 0:

    p = 1 - sum_i (-1)^i k_i x_i = 1 + k1 x1 - k2 x2 + ... - k_2n x_2n

Family F2 lives in 2n+1 variables with -k1 + 2 k2 - k3 + ... - k_(2n+1) = 0
and doubles the x2 coefficient:

    q = 1 + k2 x2 + sum_i (-1)^i k_i x_i
      = 1 - k1 x1 + 2 k2 x2 - k3 x3 + ... - k_(2n+1) x_(2n+1)

The constraint makes every member evaluate to 1 at (1, ..., 1), which is
what lets the slice polynomial p * bar(p) present a ribbon link module
downstream.  Members are degree 1, so each one's singular-locus system is
linear with all-nonzero diagonal coefficients and the criterion certifies
the whole family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .ring import LaurentPoly, Ring

F1 = "F1"
F2 = "F2"


@dataclass(frozen=True)
class FamilySpec:
    family: str
    k: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(int(v) for v in self.k))
        if self.family not in (F1, F2):
            raise ValueError(f"unknown family {self.family!r}")
        if any(v == 0 for v in self.k):
            raise ValueError("zero coefficient not allowed")
        if self.family == F1:
            if len(self.k) < 2 or len(self.k) % 2:
                raise ValueError("F1 needs an even number of coefficients, at least 2")
        else:
            if len(self.k) < 3 or len(self.k) % 2 == 0:
                raise ValueError("F2 needs an odd number of coefficients, at least 3")
        c = self.constraint_value()
        if c != 0:
            raise ValueError(f"coefficient constraint violated: sum is {c}, expected 0")

    def constraint_value(self) -> int:
        """Alternating sum that must vanish; F2 counts k2 twice.

        The index in the defining formulas is 1-based, so the signs run
        -k1 + k2 - k3 + ...
        """
        total = sum(v if i % 2 == 0 else -v for i, v in enumerate(self.k, start=1))
        if self.family == F2:
            total += self.k[1]
        return total

    @property
    def nvars(self) -> int:
        return len(self.k)


def build_family_poly(spec: FamilySpec) -> LaurentPoly:
    """The family member as a Laurent polynomial in len(k) variables."""
    n = spec.nvars
    ring = Ring(n, laurent=True)
    terms = {(0,) * n: 1}
    for i, ki in enumerate(spec.k, start=1):
        mono = tuple(1 if j == i - 1 else 0 for j in range(n))
        if spec.family == F1:
            coeff = ki if i % 2 else -ki
        else:
            coeff = -ki if i % 2 else ki
            if i == 2:
                coeff += ki
        terms[mono] = coeff
    return LaurentPoly(ring, terms)


def eval_at_ones(p: LaurentPoly):
    """Coefficient sum, the evaluation at (1, ..., 1)."""
    return p.coefficient_sum()


def slice_polynomial(p: LaurentPoly) -> LaurentPoly:
    """p * bar(p), the bar-symmetric product presenting the slice module."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    q = p.to_laurent()
    return q * q.bar()


def enumerate_family(
    family: str, n: int, coeff_bound: int, limit: int | None = None
) -> list[FamilySpec]:
    """Constraint-satisfying coefficient vectors, deterministic lex order.

    n is the family parameter: F1 members get 2n variables, F2 members
    2n+1.  Coefficients range over [-coeff_bound, coeff_bound] without 0,
    listed ascending, and the vector tuples come out in lexicographic
    order of that value sequence.  limit=None means exhaustive.
    """
    if family not in (F1, F2):
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError("family parameter n must be >= 1")
    if coeff_bound < 1:
        raise ValueError("coefficient bound must be >= 1")
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    length = 2 * n if family == F1 else 2 * n + 1
    values = [v for v in range(-coeff_bound, coeff_bound + 1) if v != 0]
    out: list[FamilySpec] = []
    for k in itertools.product(values, repeat=length):
        if limit is not None and len(out) >= limit:
            break
        try:
            spec = FamilySpec(family, k)
        except ValueError:
            continue
        out.append(spec)
    return out


def family_corpus(coeff_bound: int = 2) -> list[FamilySpec]:
    """The committed test corpus: 80 members across 2 to 6 variables.

    Shapes and limits are fixed so the corpus is stable: all F1/F2
    members at 2, 3 and 4 variables, and deterministic prefixes of the
    larger shapes (F2 at 5 variables has 78 members with |k| <= 2, F1 at
    6 variables has 430; taking 20 and 16 keeps oracle cross-checks
    affordable while covering every variable count).
    """
    corpus = []
    corpus += enumerate_family(F1, 1, coeff_bound)
    corpus += enumerate_family(F2, 1, coeff_bound)
    corpus += enumerate_family(F1, 2, coeff_bound)
    corpus += enumerate_family(F2, 2, coeff_bound, limit=20)
    corpus += enumerate_family(F1, 3, coeff_bound, limit=16)
    return corpus
