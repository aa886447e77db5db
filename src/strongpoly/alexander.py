"""Module presentations over integral Laurent rings and their invariants.

A finitely presented module over Z[x1^+-1, ..., xn^+-1] is given by a
rectangular relation matrix.  From it we compute elementary ideals, the
divisorial hull (gcd of the generators, since the coefficient ring is a
UFD), the free rank over the fraction field, and the torsion part of the
order: the hull of the elementary ideal taken at the free rank.

The second half of the module builds presentations from braid words via
Fox calculus on the Artin action, verifies the cyclic structure of the
torsion module attached to a slice polynomial p * bar(p), and certifies
nonzero self-pairing classes against a denominator p * bar(p).
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import ResourceBudgetExceeded
from .factor import coprime, is_irreducible, poly_gcd
from .groebner import IdealBasis
from .ring import (
    LaurentPoly,
    Ring,
    ZZ,
    _add_shifted,
    divides,
    exact_divide,
    laurent_normalize,
)
from .verdict import PROVED

# Work units of one cofactor expansion (elementary_ideal's, or the rank's
# greedy pass): one per row selection of elementary_ideal, and for each
# product of an entry with a partial minor, its term products + 1.
MAX_MINOR_WORK = 2_000_000
# Letters the braid action rewrites, summed over crossings.  Each crossing
# rewrites every letter of every meridian image, so the work grows
# quadratically in the word length: s1^k on two strands rewrites about
# 2*k^2 letters, and s1^1000 is the longest power of s1 within the cap.
MAX_BRAID_LETTERS = 2_000_000


@dataclass(frozen=True)
class ModulePresentation:
    """Relation matrix of a f.p. module: rows are relations, columns generators.

    The matrix presents R^rows -> R^cols -> M -> 0 over an integral Laurent
    ring R.  Zero rows are allowed (trivial relations); zero columns mean a
    free summand.
    """

    ring: Ring
    rows: tuple[tuple[LaurentPoly, ...], ...]
    ncols: int

    def __post_init__(self):
        if self.ring.domain != ZZ or not self.ring.laurent:
            raise ValueError("presentations live over an integral Laurent ring")
        if self.ncols < 1:
            raise ValueError("a presentation needs at least one generator")
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged presentation matrix")
            for entry in row:
                if entry.ring != self.ring:
                    raise ValueError("entry ring mismatch")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, rows, ring: Ring | None = None, ncols: int | None = None):
        rows = tuple(tuple(r) for r in rows)
        if ring is None:
            if not rows or not rows[0]:
                raise ValueError("cannot infer the ring from an empty matrix")
            ring = rows[0][0].ring
        if ncols is None:
            if not rows:
                raise ValueError("an empty matrix needs an explicit column count")
            ncols = len(rows[0])
        return cls(ring, rows, ncols)


def _next_layer(layer: dict, row: list, work: list) -> dict:
    """The nonzero partial minors after one more row of the cofactor
    expansion.

    layer maps each sorted column set of the rows taken so far to the term
    dict of their minor on those columns; row is the next row's term dicts.
    Column j enters with sign (-1)^#(used columns > j).  work is a one-item
    list of the MAX_MINOR_WORK units left.
    """
    nxt: dict = {}
    for cols, minor in layer.items():
        for j, entry in enumerate(row):
            if not entry or j in cols:
                continue
            _spend(work, len(entry) * len(minor) + 1)
            acc = nxt.setdefault(tuple(sorted(cols + (j,))), {})
            sign = -1 if sum(c > j for c in cols) % 2 else 1
            for m, c in entry.items():
                _add_shifted(acc, minor, sign * c, m)
    return {cols: minor for cols, minor in nxt.items() if minor}


def _spend(work: list, units: int) -> None:
    work[0] -= units
    if work[0] < 0:
        raise ResourceBudgetExceeded("minors", f"minors need over {MAX_MINOR_WORK} work units")


def _rank_layer(pres: ModulePresentation) -> tuple[int, dict]:
    """The rank of the relation matrix and the layer after the kept rows.

    A greedy pass of the cofactor expansion over the rows: a row is kept
    when the layer after the kept rows and it is nonempty.  The layer after
    rows K holds every nonzero |K| x |K| minor of K, so it is nonempty
    exactly when the rows of K are independent over the fraction field.
    Independent row sets form a matroid, so the greedy pass ends on a basis,
    and the rank is its size.  No division is made.  Raises
    ResourceBudgetExceeded("minors") once the expansion passes
    MAX_MINOR_WORK.
    """
    work = [MAX_MINOR_WORK]
    layer = {(): {(0,) * pres.ring.nvars: 1}}
    rank = 0
    for row in pres.rows:
        if nxt := _next_layer(layer, [e.term_dict() for e in row], work):
            layer = nxt
            rank += 1
    return rank, layer


def presentation_rank(pres: ModulePresentation) -> int:
    """Rank of the relation matrix over the fraction field (see _rank_layer)."""
    return _rank_layer(pres)[0]


def free_rank(pres: ModulePresentation) -> int:
    """Rank of the presented module over the fraction field."""
    return pres.ncols - presentation_rank(pres)


def elementary_ideal(pres: ModulePresentation, k: int) -> IdealBasis:
    """Ideal of (cols - k)-minors of the relation matrix.

    Returned over the ordinary version of the ring with each minor stripped
    of its monomial unit, which leaves the Laurent ideal unchanged.  When
    cols - k <= 0 the ideal is the unit ideal; when the matrix has too few
    rows to form a minor the ideal is zero.
    """
    if k < 0:
        raise ValueError("elementary ideal index must be >= 0")
    size = max(pres.ncols - k, 0)
    # Each row selection is expanded once, row by row, and every column
    # selection of those rows shares its partial minors.
    work = [MAX_MINOR_WORK]
    _spend(work, comb(pres.nrows, size))
    rows = [[e.term_dict() for e in row] for row in pres.rows]

    def minors():
        for rsel in combinations(range(pres.nrows), size):
            layer = {(): {(0,) * pres.ring.nvars: 1}}
            for i in rsel:
                layer = _next_layer(layer, rows[i], work)
            yield from layer.values()

    return _minor_ideal(pres.ring, minors())


def _minor_ideal(ring: Ring, minors) -> IdealBasis:
    """The ideal of the given minors (term dicts over the Laurent ring),
    each stripped of its monomial unit and sign-normalized, as a sorted
    basis over the ordinary version of the ring."""
    gens = {laurent_normalize(LaurentPoly(ring, m))[0].sign_normalized() for m in minors}
    return IdealBasis(
        ring.ordinary_version(),
        tuple(sorted(gens, key=lambda g: sorted(g.term_dict().items()))),
    )


def canonical_associate(p: LaurentPoly) -> LaurentPoly:
    """Distinguished associate: no monomial factor, integer-primitive,
    positive graded-lex leading coefficient.  Returned in the ordinary ring."""
    if p.is_zero():
        return LaurentPoly.zero(p.ring.ordinary_version())
    q, _ = laurent_normalize(p)
    return q.primitive_part().sign_normalized()


def divisorial_hull(ideal: IdealBasis) -> LaurentPoly:
    """Smallest principal ideal containing the given one, as its canonical
    generator.  Over a UFD this is the gcd of the generators; the zero
    ideal hulls to zero."""
    if not ideal.generators:
        return LaurentPoly.zero(ideal.ring)
    g = ideal.generators[0]
    for h in ideal.generators[1:]:
        if g.num_terms() == 1:
            # a term is a unit up to the content and monomial factor that
            # canonical_associate drops, and so is every gcd with it
            break
        g = poly_gcd(g, h)
    return canonical_associate(g)


def torsion_alexander_poly(pres: ModulePresentation) -> LaurentPoly:
    """Order of the torsion submodule: the divisorial hull of the
    elementary ideal taken at the free rank.

    When the rank pass keeps every row, that ideal's only row selection is
    all the rows, and the pass's last layer already holds its minors.
    """
    rank, layer = _rank_layer(pres)
    if rank == pres.nrows:
        return divisorial_hull(_minor_ideal(pres.ring, layer.values()))
    return divisorial_hull(elementary_ideal(pres, pres.ncols - rank))


# -- Fox calculus and braid closures ---------------------------------------

# Words in a free group are sequences of signed 1-based generator indices;
# -g denotes the inverse of generator g.


def _free_reduce(word) -> list[int]:
    out: list[int] = []
    for g in word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return out


def _invert_word(word) -> list[int]:
    return [-g for g in reversed(word)]


def fox_derivative(word, gen: int, ring: Ring, var_of_gen) -> LaurentPoly:
    """Free derivative of a word with respect to one generator, pushed
    through abelianization.

    var_of_gen[j-1] names the ring variable that generator j abelianizes
    to, so the running prefix of the word stays a single Laurent monomial.
    d(uv) = du + ab(u) dv with d(x) = 1 and d(x^-1) = -ab(x)^-1.
    """
    if not ring.laurent:
        raise ValueError("fox derivatives need a Laurent ring")
    acc: dict = {}
    prefix = [0] * ring.nvars
    for letter in word:
        j = abs(letter)
        if j == 0 or j > len(var_of_gen):
            raise ValueError(f"letter {letter} outside the generator alphabet")
        v = var_of_gen[j - 1]
        if letter > 0:
            if j == gen:
                key = tuple(prefix)
                acc[key] = acc.get(key, 0) + 1
            prefix[v] += 1
        else:
            prefix[v] -= 1
            if j == gen:
                key = tuple(prefix)
                acc[key] = acc.get(key, 0) - 1
    return LaurentPoly(ring, acc)


def _letter_image(a: int, g: int) -> list[int]:
    # Artin action of a single crossing on a free generator.
    i = abs(a)
    if a > 0:
        if g == i:
            return [i, i + 1, -i]
        if g == i + 1:
            return [i]
    else:
        if g == i:
            return [i + 1]
        if g == i + 1:
            return [-(i + 1), i, i + 1]
    return [g]


def _braid_action(word, strands: int):
    """Images of the top meridians under the braid, plus the strand
    permutation.  Images are freely reduced after every crossing."""
    if strands < 1:
        raise ValueError("a braid needs at least one strand")
    for a in word:
        if not isinstance(a, int) or a == 0 or abs(a) >= strands:
            raise ValueError(f"crossing {a} invalid for {strands} strands")
    images = {g: [g] for g in range(1, strands + 1)}
    perm = list(range(strands + 1))  # perm[j] = end position of strand j
    rewritten = 0
    for a in word:
        rewritten += sum(len(w) for w in images.values())
        if rewritten > MAX_BRAID_LETTERS:
            raise ResourceBudgetExceeded(
                "braid-words", f"braid action rewrote more than {MAX_BRAID_LETTERS} letters"
            )
        i = abs(a)
        new = {}
        for g, w in images.items():
            out: list[int] = []
            for letter in w:
                img = _letter_image(a, abs(letter))
                out.extend(img if letter > 0 else _invert_word(img))
            new[g] = _free_reduce(out)
        images = new
        swap = {i: i + 1, i + 1: i}
        perm = [swap.get(p, p) for p in perm]
    return images, perm


def braid_components(word, strands: int):
    """Closure components: (count, component index of each strand).

    Components are numbered by their smallest strand, so the variable
    order is stable under relabeling of the braid word.
    """
    _, perm = _braid_action(word, strands)
    return _closure_components(perm, strands)


def _closure_components(perm, strands: int):
    """(count, component of each strand) for the closure of a permutation
    of strands 1..strands, numbering components by their smallest strand."""
    comp_of = [None] * (strands + 1)
    count = 0
    for start in range(1, strands + 1):
        if comp_of[start] is not None:
            continue
        j = start
        while comp_of[j] is None:
            comp_of[j] = count
            j = perm[j]
        count += 1
    return count, tuple(comp_of[1:])


def braid_to_presentation(word, strands: int) -> ModulePresentation:
    """Relation matrix of the closure's with-basepoint module.

    One relation beta(x_j) x_j^-1 per strand with the redundant last one
    dropped, differentiated by Fox calculus and abelianized with each
    meridian sent to the variable of its closure component.  The torsion
    part of this module agrees with the torsion of the link module; the
    link's free rank is one less than the free rank seen here.
    """
    images, perm = _braid_action(word, strands)
    count, var_of_gen = _closure_components(perm, strands)
    ring = Ring(count, laurent=True)
    rows = []
    for j in range(1, strands):  # relation for the last strand is dropped
        relator = _free_reduce(images[j] + [-j])
        rows.append(
            tuple(fox_derivative(relator, g, ring, var_of_gen) for g in range(1, strands + 1))
        )
    return ModulePresentation(ring, tuple(rows), strands)


# -- cyclic torsion certificates --------------------------------------------


@dataclass(frozen=True)
class RibbonReport:
    """Stepwise certificate that the torsion module attached to p is the
    cyclic module on p * bar(p)."""

    steps: tuple[tuple[str, bool, str], ...]
    product: LaurentPoly
    presentation: ModulePresentation
    alexander: LaurentPoly

    @property
    def ok(self) -> bool:
        return all(flag for _, flag, _ in self.steps)


def verify_ribbon_presentation(p: LaurentPoly) -> RibbonReport:
    """Certify TH1 = Z[Z^n]/<p * bar(p)> for a slice polynomial p.

    Replays the handle-chain argument symbolically: the single 2-cell has
    boundary t * p, the composite boundary vanishes, the two cyclic pieces
    Z[Z^n]/<bar p> and Z[Z^n]/<p> bound the torsion between <p*bar p> and
    the intersection of the annihilators, and coprimality collapses the
    bounds to equality.  Raises if p and bar(p) share a factor; every
    other step is recorded with a pass flag.
    """
    if p.is_zero():
        raise ValueError("the slice polynomial must be nonzero")
    if p.ring.domain != ZZ:
        raise ValueError("the slice polynomial must have integer coefficients")
    pl = p.to_laurent()
    pbar = pl.bar()
    if not coprime(pl, pbar):
        raise ValueError("p and bar(p) are not coprime; the cyclic certificate needs them coprime")
    ring = pl.ring
    n = ring.nvars
    steps = [("coprime-gate", True, "gcd(p, bar(p)) is a unit")]

    # Chain level: C2 -> C1 -> C0 with C1 based by (t, x1..xn); the 2-cell
    # maps to t * p and t itself is a cycle, so the composite is zero.
    d2 = [pl] + [LaurentPoly.zero(ring)] * n
    d1 = [LaurentPoly.zero(ring)] + [
        LaurentPoly.variable(ring, i) - LaurentPoly.one(ring) for i in range(n)
    ]
    composite = LaurentPoly.zero(ring)
    for a, b in zip(d2, d1):
        composite = composite + a * b
    steps.append(
        (
            "boundary-composition",
            composite.is_zero(),
            "d1(d2(cell)) = 0 with d2(cell) = t*p and d1(t) = 0",
        )
    )

    # Dual map hits only the t-line, so the cokernel is cyclic on p; the
    # relative piece is its bar by duality.
    quot = torsion_alexander_poly(ModulePresentation(ring, ((pl,),), 1))
    rel = torsion_alexander_poly(ModulePresentation(ring, ((pbar,),), 1))
    steps.append(
        ("cyclic-quotient-piece", quot == canonical_associate(pl), "H1 piece is cyclic on p")
    )
    steps.append(
        (
            "cyclic-relative-piece",
            rel == canonical_associate(pbar),
            "relative piece is cyclic on bar(p)",
        )
    )

    # Both annihilators kill the extension, and coprimality makes their
    # intersection principal on the product: lcm(p, bar p) = p * bar p.
    product = pl * pbar
    g = poly_gcd(pl, pbar)
    lcm = exact_divide(product, g)
    steps.append(
        (
            "annihilator-intersection",
            lcm is not None and canonical_associate(lcm) == canonical_associate(product),
            "<p> intersect <bar(p)> = <p * bar(p)>",
        )
    )
    steps.append(
        (
            "product-annihilates",
            divides(pl, product) and divides(pbar, product),
            "p * bar(p) lies in both annihilators",
        )
    )

    pres = ModulePresentation(ring, ((product,),), 1)
    delta = torsion_alexander_poly(pres)
    steps.append(
        (
            "torsion-order",
            delta == canonical_associate(product) and free_rank(pres) == 0,
            "cyclic module on p * bar(p) has the product as its order",
        )
    )
    return RibbonReport(tuple(steps), product, pres, delta)


@dataclass(frozen=True)
class BlanchfieldValue:
    """Self-pairing value as a fraction class: numerator over p * bar(p).

    The class vanishes exactly when the denominator divides the numerator.
    """

    numerator: LaurentPoly
    denominator: LaurentPoly

    @property
    def is_zero(self) -> bool:
        return divides(self.denominator, self.numerator)


def blanchfield_self_link_witness(p: LaurentPoly, f: LaurentPoly) -> BlanchfieldValue:
    """Certified nonzero self-pairing of the class f in Z[Z^n]/<p * bar(p)>.

    On the cyclic torsion module the pairing of f with itself is
    (f * bar(p) + bar(f) * p) / (p * bar(p)) up to the ring, so the class
    is nonzero iff p does not divide the numerator.  Requires p certified
    irreducible and coprime to bar(p); rejects f divisible by p, whose
    class pairs to zero trivially.
    """
    if p.is_zero():
        raise ValueError("p must be nonzero")
    pl = p.to_laurent()
    fl = f.to_laurent()
    if fl.ring != pl.ring:
        raise ValueError("f must live in the same ring as p")
    if pl.is_unit():
        raise ValueError("p is a unit, the torsion module is trivial")
    verdict = is_irreducible(pl)
    if verdict.status != PROVED:
        raise ValueError(f"p is not certified irreducible ({verdict.status})")
    pbar = pl.bar()
    if not coprime(pl, pbar):
        raise ValueError("p and bar(p) must be coprime")
    if divides(pl, fl):
        raise ValueError("p divides f, so the class of f pairs to zero")
    numerator = fl * pbar + fl.bar() * pl
    # p irreducible and p coprime to bar(p) force p away from the numerator
    # whenever p does not divide f; check it anyway, it is the certificate.
    if divides(pl, numerator):
        raise RuntimeError("nonzero certificate failed: p divides the pairing numerator")
    return BlanchfieldValue(numerator, pl * pbar)
