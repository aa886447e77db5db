"""Module presentations over integral Laurent rings and their invariants.

A finitely presented module over Z[x1^+-1, ..., xn^+-1] is given by a
rectangular relation matrix.  From it we compute elementary ideals, the
divisorial hull (gcd of the generators, since the coefficient ring is a
UFD), the free rank over the fraction field, and the torsion part of the
order: the hull of the elementary ideal taken at the free rank.

The second half of the module builds the presentation of a braid closure
as its abelianized Fox Jacobian, one colored Burau matrix per crossing by
Fox's chain rule, verifies the cyclic structure of the torsion module
attached to a slice polynomial p * bar(p), and certifies nonzero
self-pairing classes against a denominator p * bar(p).
"""

from bisect import bisect
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import Meter
from .factor import is_irreducible, poly_gcd
from .groebner import IdealBasis
from .ring import (
    LaurentPoly,
    Ring,
    ZZ,
    WordFormat,
    _add_shifted_words,
    _primitive_terms,
    divides,
    exact_divide,
    laurent_normalize,
)
from .verdict import PROVED

# Work units of one cofactor expansion (elementary_ideal's, or the rank's
# greedy pass): one per row selection of elementary_ideal, and for each
# product of an entry with a partial minor, its term products + 1.
MAX_MINOR_WORK = 2_000_000
# Term reads of braid_to_presentation's colored Burau pass: each column
# update reads the terms of the entries it combines, plus one read for the
# update itself, so a long word of small entries is bounded too.  The
# benchmark's 12,000 references spend at most 976 and the tests 1,425.  Keys
# are packed words, one int at any component count, so s1^-20000 reaches the
# cap in 0.15-0.25 s on 2 strands and 0.5-0.6 s on 100, whose closure has
# 100 components (CPython 3.11, 2-core Xeon).
MAX_BURAU_TERM_READS = 1_000_000


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


def _minor_meter() -> Meter:
    return Meter("minors", MAX_MINOR_WORK, f"minors need over {MAX_MINOR_WORK} work units")


def _next_layer(layer: dict, row: list, work: Meter) -> dict:
    """The nonzero partial minors after one more row of the cofactor
    expansion.

    layer maps each sorted column set of the rows taken so far to the term
    dict of their minor on those columns, keyed by the words of the
    expansion's WordFormat; row is the next row's entries, keyed by their
    shifts (_word_rows).  Column j enters with sign (-1)^#(used columns > j).
    Each product of an entry with a minor spends its term products plus one
    from work.
    """
    spend = work.spend
    nxt: dict = {}
    for cols, minor in layer.items():
        for j, entry in enumerate(row):
            if not entry or j in cols:
                continue
            spend(len(entry) * len(minor) + 1)
            at = bisect(cols, j)
            acc = nxt.setdefault(cols[:at] + (j,) + cols[at:], {})
            sign = -1 if (len(cols) - at) % 2 else 1
            for m, c in entry.items():
                _add_shifted_words(acc, minor, sign * c, m)
    return {cols: minor for cols, minor in nxt.items() if minor}


def _word_rows(pres: ModulePresentation) -> tuple[WordFormat, list]:
    """The word format of pres's cofactor expansion, and its rows with each
    entry keyed by shifts.

    A term of a minor is a product of one term from each of its rows, so
    no exponent of it exceeds in size the sum over all rows of each row's
    largest |exponent|: that sum is the format's bound.
    """
    rows = [[e.term_dict() for e in row] for row in pres.rows]
    bound = sum(max((abs(e) for d in row for m in d for e in m), default=0) for row in rows)
    words = WordFormat(pres.ring, bound)
    return words, [[words.shifts(d) for d in row] for row in rows]


def _rank_layer(pres: ModulePresentation) -> tuple[int, WordFormat, dict]:
    """The rank of the relation matrix, and the word format and layer of
    the cofactor expansion after the kept rows.

    A greedy pass of the cofactor expansion over the rows: a row is kept
    when the layer after the kept rows and it is nonempty.  The layer after
    rows K holds every nonzero |K| x |K| minor of K, so it is nonempty
    exactly when the rows of K are independent over the fraction field.
    Independent row sets form a matroid, so the greedy pass ends on a basis,
    and the rank is its size.  No division is made.  Raises
    ResourceBudgetExceeded("minors") once the expansion passes
    MAX_MINOR_WORK.
    """
    work = _minor_meter()
    words, rows = _word_rows(pres)
    layer = {(): {words.one: 1}}
    rank = 0
    for row in rows:
        if nxt := _next_layer(layer, row, work):
            layer = nxt
            rank += 1
    return rank, words, layer


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
    work = _minor_meter()
    work.spend(comb(pres.nrows, size))
    words, rows = _word_rows(pres)

    def minors():
        for rsel in combinations(range(pres.nrows), size):
            layer = {(): {words.one: 1}}
            for i in rsel:
                layer = _next_layer(layer, rows[i], work)
            yield from layer.values()

    return _minor_ideal(words, minors())


def _minor_ideal(words: WordFormat, minors) -> IdealBasis:
    """The ideal of the given minors (term dicts keyed by words), each
    stripped of its monomial unit and sign-normalized, as a sorted basis
    over the ordinary version of the ring."""
    gens = {laurent_normalize(words.poly(m))[0].sign_normalized() for m in minors}
    return IdealBasis(
        words.ring.ordinary_version(),
        tuple(sorted(gens, key=lambda g: sorted(g.term_dict().items()))),
    )


def canonical_associate(p: LaurentPoly) -> LaurentPoly:
    """Distinguished associate: no monomial factor, integer-primitive,
    positive graded-lex leading coefficient.  Returned in the ordinary ring.
    Defined over ZZ only, as integer content is."""
    if p.ring.domain != ZZ:
        raise ValueError("canonical associates are defined over ZZ")
    if p.is_zero():
        return p.to_ordinary()
    q, _ = laurent_normalize(p)
    return LaurentPoly(q.ring, _primitive_terms(q.term_dict()))


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
    rank, words, layer = _rank_layer(pres)
    if rank == pres.nrows:
        return divisorial_hull(_minor_ideal(words, layer.values()))
    return divisorial_hull(elementary_ideal(pres, pres.ncols - rank))


# -- braid closures ---------------------------------------------------------


def fox_derivative(word, gen: int, ring: Ring, var_of_gen) -> LaurentPoly:
    """Free derivative of a word with respect to one generator, pushed
    through abelianization.

    A word is a sequence of signed 1-based generator indices, -g denoting
    the inverse of generator g.  var_of_gen[j-1] names the ring variable
    that generator j abelianizes to, so the running prefix of the word stays
    a single Laurent monomial.  d(uv) = du + ab(u) dv with d(x) = 1 and
    d(x^-1) = -ab(x)^-1.  braid_to_presentation does not call it: it is the
    independent reference the tests check the colored Burau pass against.
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


def braid_components(word, strands: int):
    """Closure components: (count, component index of each strand).

    Components are the cycles of the strand permutation, numbered by their
    smallest strand, so the variable order is stable under relabeling of
    the braid word.
    """
    if strands < 1:
        raise ValueError("a braid needs at least one strand")
    at = list(range(strands + 1))  # at[p] = strand ending at position p
    for a in word:
        if not isinstance(a, int) or a == 0 or abs(a) >= strands:
            raise ValueError(f"crossing {a} invalid for {strands} strands")
        i = abs(a)
        at[i], at[i + 1] = at[i + 1], at[i]
    comp_of = [None] * (strands + 1)
    count = 0
    for start in range(1, strands + 1):  # at has the permutation's cycles
        if comp_of[start] is None:
            j = start
            while comp_of[j] is None:
                comp_of[j] = count
                j = at[j]
            count += 1
    return count, tuple(comp_of[1:])


def braid_to_presentation(word, strands: int) -> ModulePresentation:
    """Relation matrix of the closure's with-basepoint module.

    One relation beta(x_j) x_j^-1 per strand with the redundant last one
    dropped, differentiated by Fox calculus and abelianized with each
    meridian sent to the variable of its closure component.  The torsion
    part of this module agrees with the torsion of the link module; the
    link's free rank is one less than the free rank seen here.

    No free-group word is built.  By Fox's chain rule the abelianized
    Jacobian (d beta(x_j) / d x_g) of beta = s_k o ... o s_1 is the product
    B_1 ... B_k of the crossings' colored Burau matrices, B_t abelianized
    with the colors the positions carry after crossing t (Morton 1999).
    beta(x_j) is a conjugate of a meridian of x_j's component, so relation
    j is row j of that product minus e_j.  One pass multiplies the rows out;
    crossing i changes only columns c_i and c_i+1, with T_m the variable at
    position m after the crossing:
    s_i:     (c_i, c_i+1) <- (c_i (1 - T_i+1) + c_i+1,  c_i T_i)
    s_i^-1:  (c_i, c_i+1) <- (c_i+1 T_i+1^-1,  c_i + c_i+1 T_i+1^-1 (T_i - 1))
    The entries are term dicts keyed by packed words: an exponent moves by
    at most 1 per crossing, so the word length bounds every exponent, and it
    is the WordFormat's bound.  Raises ResourceBudgetExceeded("braid-words")
    once the pass passes MAX_BURAU_TERM_READS.
    """
    count, color = braid_components(word, strands)
    color = list(color)  # color at each 0-based position
    ring = Ring(count, laurent=True)
    words = WordFormat(ring, len(word))
    one = words.one
    var = [words.shift(tuple(int(k == c) for k in range(count))) for c in range(count)]
    rows = [[{one: 1} if g == j else {} for g in range(strands)] for j in range(strands - 1)]
    message = f"the colored Burau pass needs over {MAX_BURAU_TERM_READS} term reads"
    spend = Meter("braid-words", MAX_BURAU_TERM_READS, message).spend
    for a in word:
        i = abs(a) - 1
        color[i], color[i + 1] = color[i + 1], color[i]
        ti, tj = var[color[i]], var[color[i + 1]]
        for row in rows:
            # each entry dict belongs to one cell, so the column that keeps
            # its old value plus a multiple of the other is updated in place
            x, y = row[i], row[i + 1]
            if a > 0:
                spend(2 * len(x) + len(y) + 2)
                new_j = {}
                _add_shifted_words(new_j, x, 1, ti)
                _add_shifted_words(y, x, 1, 0)
                _add_shifted_words(y, x, -1, tj)
                row[i], row[i + 1] = y, new_j
            else:
                spend(len(x) + 2 * len(y) + 2)
                new_i = {}
                _add_shifted_words(new_i, y, 1, -tj)
                _add_shifted_words(x, y, 1, ti - tj)
                _add_shifted_words(x, y, -1, -tj)
                row[i], row[i + 1] = new_i, x
    for j, row in enumerate(rows):
        _add_shifted_words(row[j], {one: 1}, -1, 0)
    return ModulePresentation(
        ring, tuple(tuple(words.poly(e) for e in row) for row in rows), strands
    )


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
    g = poly_gcd(pl, pbar)
    if not g.is_unit():
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
    irreducible and coprime to bar(p): bar is a ring automorphism, so bar(p)
    is irreducible too and coprime to p unless p divides it.  Rejects f
    divisible by p, whose class pairs to zero trivially.
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
    if divides(pl, pbar):
        raise ValueError("p and bar(p) must be coprime")
    if divides(pl, fl):
        raise ValueError("p divides f, so the class of f pairs to zero")
    numerator = fl * pbar + fl.bar() * pl
    # p irreducible and p coprime to bar(p) force p away from the numerator
    # whenever p does not divide f; check it anyway, it is the certificate.
    if divides(pl, numerator):
        raise RuntimeError("nonzero certificate failed: p divides the pairing numerator")
    return BlanchfieldValue(numerator, pl * pbar)
