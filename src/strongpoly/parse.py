"""Text grammars for the command line: polynomials, braid words, matrices.

Polynomial grammar, designed to read the way the polynomials are written
everywhere else in this package:

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (['*'] factor)*
    factor := coeff | var ['^' ['-'] int] | '(' expr ')' ['^' int]
    coeff  := int ['/' int]
    var    := 'x' int        (1-based)

Multiplication by juxtaposition is allowed ("2x1", "x1 x2"), but a sign
always starts a new term, so "1 + + x1" is a syntax error rather than a
unary plus.  Negative exponents require the Laurent flag.  All errors
carry 1-based line and column positions.
"""

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ResourceBudgetExceeded
from .ring import LaurentPoly, Ring, _add_shifted, _mul_terms, _power


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"syntax error at line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM, VAR, OP, END
    text: str
    line: int
    col: int


# Deepest parenthesis nesting the recursive-descent parser accepts; each
# level costs three Python frames, so this stays far below the
# interpreter's recursion limit.
MAX_NESTING = 100
# Largest product the parser expands, in term pairs (len(a) * len(b)):
# about a second of CPython.  The test suite's largest is 16641, and
# (1 + x1 + x2 + x3)^200 would need 2 * 10^9.
MAX_TERM_PAIRS = 10**6
# Largest coefficient a product or a parsed polynomial may reach, in bits of
# its numerator or denominator: half the 14,284 bits (4300 digits) that the
# interpreter prints, so an input coefficient and a product of two can be
# printed.  The tests' largest is 296 bits, in (1 + x1)^300; the benchmark's
# inputs need 4.
MAX_COEFF_BITS = 7_000
# Most variables a polynomial, a matrix or a sample may have, and most
# strands a braid may have.  Every exponent tuple is this wide, and strong
# coprimality's image catalog grows with its square: with CPython 3.11 on a
# 2-core Xeon VM, check-vector-coprime "x100" "x1 + 2" takes 2.8 s and
# braid-alex on 100 strands 0.3 s, but check-coprime "30*x1000" "x1 + 2"
# takes 32 s and check-irred "x300000000 + 1" runs out of memory.  The tests
# need 40.
MAX_VARS = 100
# Most crossings a braid word may expand to, one list entry each: s1^1000000
# takes 12 ms and 15 MiB, s1^1000000000 would take 8 GB.  The Burau pass
# spends two term reads or more a crossing, so it stops any word past half
# of its 10^6 anyway.  The tests' longest word is s1^20000.
MAX_BRAID_CROSSINGS = 10**6

_TOKEN_RE = re.compile(r"\d+|x\d+|[+\-*/^()]|\S")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        for m in _TOKEN_RE.finditer(line):
            tok = m.group()
            col = m.start() + 1
            if tok.isdigit():
                kind = "NUM"
            elif tok[0] == "x" and len(tok) > 1:
                kind = "VAR"
            elif tok in "+-*/^()":
                kind = "OP"
            else:
                raise ParseError(f"unexpected character {tok!r}", lineno, col)
            tokens.append(_Token(kind, tok, lineno, col))
    last_line = text.count("\n") + 1
    last_col = len(text.split("\n")[-1]) + 1
    tokens.append(_Token("END", "", last_line, last_col))
    return tokens


def _height(terms: dict) -> int:
    """Largest numerator or denominator magnitude of the coefficients."""
    return max((max(abs(c.numerator), c.denominator) for c in terms.values()), default=0)


class _PolyParser:
    """Recursive-descent parser building term dicts that map exponent
    tuples of a fixed width, nvars, to int coefficients, or Fraction ones
    once a fraction appears."""

    def __init__(self, tokens: list[_Token], laurent: bool, nvars: int):
        self.tokens = tokens
        self.pos = 0
        self.laurent = laurent
        self.nvars = nvars
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op: str) -> _Token:
        t = self.peek()
        if t.kind != "OP" or t.text != op:
            raise ParseError(f"expected {op!r}", t.line, t.col)
        return self.take()

    def parse_expr(self) -> dict:
        t = self.peek()
        negate = False
        if t.kind == "OP" and t.text == "-":
            self.take()
            negate = True
        total = self.parse_term()
        if negate:
            total = {m: -c for m, c in total.items()}
        zero = (0,) * self.nvars
        while True:
            t = self.peek()
            if t.kind == "OP" and t.text in "+-":
                self.take()
                rhs = self.parse_term()
                _add_shifted(total, rhs, 1 if t.text == "+" else -1, zero)
            else:
                return total

    def parse_term(self) -> dict:
        total = self.parse_factor()
        while True:
            t = self.peek()
            if t.kind == "OP" and t.text == "*":
                self.take()
                total = self._mul(total, self.parse_factor())
            elif t.kind in ("NUM", "VAR") or (t.kind == "OP" and t.text == "("):
                total = self._mul(total, self.parse_factor())
            else:
                return total

    @staticmethod
    def _mul(a: dict, b: dict) -> dict:
        if len(a) * len(b) > MAX_TERM_PAIRS:
            raise ResourceBudgetExceeded(
                "parse", f"a {len(a)} by {len(b)} term product is over {MAX_TERM_PAIRS} term pairs"
            )
        # a coefficient of the product sums at most min(len(a), len(b))
        # products of one coefficient from each side: a true bound for
        # integer sides, and the parsed result is checked exactly
        bits = (min(len(a), len(b)) * _height(a) * _height(b)).bit_length()
        if bits > MAX_COEFF_BITS:
            raise ResourceBudgetExceeded(
                "parse", f"a product's coefficients could reach {bits} bits, over {MAX_COEFF_BITS}"
            )
        return _mul_terms(a, b)

    def _int(self) -> int:
        t = self.peek()
        if t.kind != "NUM":
            raise ParseError("expected an integer", t.line, t.col)
        self.take()
        return int(t.text)

    def parse_factor(self) -> dict:
        t = self.peek()
        if t.kind == "NUM":
            self.take()
            c = int(t.text)
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "/":
                self.take()
                d = self._int()
                if d == 0:
                    raise ParseError("zero denominator", nxt.line, nxt.col)
                c = Fraction(c, d)
            return {(0,) * self.nvars: c} if c else {}
        if t.kind == "VAR":
            self.take()
            idx = int(t.text[1:])
            if idx < 1:
                raise ParseError("variables are numbered from x1", t.line, t.col)
            exp = 1
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "^":
                self.take()
                sign = 1
                s = self.peek()
                if s.kind == "OP" and s.text == "-":
                    if not self.laurent:
                        raise ParseError(
                            "negative exponent requires the Laurent flag", s.line, s.col
                        )
                    self.take()
                    sign = -1
                exp = sign * self._int()
            mono = [0] * self.nvars
            mono[idx - 1] = exp
            return {tuple(mono): 1}
        if t.kind == "OP" and t.text == "(":
            self.take()
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", t.line, t.col
                )
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.expect_op(")")
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "^":
                self.take()
                return _power({(0,) * self.nvars: 1}, inner, self._int(), self._mul)
            return inner
        raise ParseError("expected a coefficient, variable, or '('", t.line, t.col)


def parse_polynomials(texts, nvars: int | None = None, laurent: bool = False) -> list[LaurentPoly]:
    """Parse each text of the grammar above once, into one common ring.

    The variable count is the largest index any text mentions unless nvars
    pads it higher.  The domain is ZZ unless a fractional coefficient in any
    text makes it QQ.  Raises ResourceBudgetExceeded("parse") past
    MAX_TERM_PAIRS or MAX_COEFF_BITS.
    """
    streams = []
    for text in texts:
        tokens = _tokenize(text)
        if tokens[0].kind == "END":
            raise ParseError("empty input", tokens[0].line, tokens[0].col)
        streams.append(tokens)
    mentioned = max((int(t.text[1:]) for ts in streams for t in ts if t.kind == "VAR"), default=0)
    n = mentioned if nvars is None else max(mentioned, nvars)
    if n > MAX_VARS:
        raise ValueError(f"{n} variables are more than {MAX_VARS}")
    parsed = []
    for tokens in streams:
        parser = _PolyParser(tokens, laurent, n)
        terms = parser.parse_expr()
        end = parser.peek()
        if end.kind != "END":
            raise ParseError(f"unexpected {end.text!r}", end.line, end.col)
        if (bits := _height(terms).bit_length()) > MAX_COEFF_BITS:
            raise ResourceBudgetExceeded("parse", f"a {bits}-bit coefficient is over {MAX_COEFF_BITS}")
        parsed.append(terms)
    if nvars is not None and nvars < mentioned:
        raise ValueError(f"polynomial mentions x{mentioned} but only {nvars} variables allowed")
    rational = any(c.denominator != 1 for terms in parsed for c in terms.values())
    # a ZZ ring turns whole fractions such as 4/2 into ints
    ring = Ring(n, laurent=laurent, domain="QQ" if rational else "ZZ")
    return [LaurentPoly(ring, terms) for terms in parsed]


def parse_polynomial(text: str, nvars: int | None = None, laurent: bool = False) -> LaurentPoly:
    """The one polynomial of text, as parse_polynomials reads it."""
    return parse_polynomials([text], nvars, laurent)[0]


_BRAID_RE = re.compile(r"s(\d+)(?:\^(-?\d+))?$")


def parse_braid(text: str) -> list[int]:
    """Braid words: whitespace-separated crossings `s1 s2^-1 s1^3`.

    Returns signed 1-based crossing indices with powers expanded.  Raises
    ResourceBudgetExceeded("parse") before expanding past
    MAX_BRAID_CROSSINGS crossings.
    """
    word: list[int] = []
    col = 1
    for chunk in text.split():
        col = text.find(chunk, col - 1) + 1
        m = _BRAID_RE.match(chunk)
        if not m:
            raise ParseError(f"bad crossing {chunk!r}", 1, col)
        idx = int(m.group(1))
        if idx < 1:
            raise ParseError("crossings are numbered from s1", 1, col)
        power = int(m.group(2)) if m.group(2) else 1
        if len(word) + abs(power) > MAX_BRAID_CROSSINGS:
            raise ResourceBudgetExceeded(
                "parse", f"the braid word has over {MAX_BRAID_CROSSINGS} crossings"
            )
        letter = idx if power >= 0 else -idx
        word.extend([letter] * abs(power))
        col += len(chunk)
    return word


def parse_exponent_pairs(text: str) -> list[tuple[int, int]]:
    """Generator lists for the localized reduction: "1,3;2,1"."""
    pairs = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 's,t' pairs separated by ';', got {chunk!r}")
        try:
            s, t = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"non-integer exponent in {chunk!r}") from None
        pairs.append((s, t))
    if not pairs:
        raise ValueError("empty generator list")
    return pairs


def json_int(value) -> int:
    """value if it is a JSON integer, an int that is not a bool; otherwise
    ValueError, where int() would truncate 1.9, read true as 1 or overflow
    on 1e400."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError("not a JSON integer")


def parse_matrix_json(data: dict):
    """Presentation matrices as {"vars": n, "matrix": [[entry, ...], ...]}.

    Entries use the polynomial grammar with the Laurent flag on.  An empty
    matrix needs an explicit "cols" count.
    """
    from .alexander import ModulePresentation

    if not isinstance(data, dict):
        raise ValueError("matrix input must be a JSON object")
    try:
        nvars = json_int(data["vars"])
        matrix = data["matrix"]
    except (KeyError, TypeError, ValueError):
        raise ValueError('matrix input needs integer "vars" and a "matrix" array') from None
    if not 1 <= nvars <= MAX_VARS:
        raise ValueError(f"vars must be from 1 to {MAX_VARS}")
    if not isinstance(matrix, list) or any(not isinstance(row, list) for row in matrix):
        raise ValueError('"matrix" must be an array of arrays')
    entries = parse_polynomials([str(e) for row in matrix for e in row], nvars, laurent=True)
    ring = entries[0].ring if entries else Ring(nvars, laurent=True)
    flat = iter(entries)
    rows = [tuple(next(flat) for _ in row) for row in matrix]
    if rows:
        ncols = len(rows[0])
    else:
        if "cols" not in data:
            raise ValueError('an empty matrix needs a "cols" count')
        try:
            ncols = json_int(data["cols"])
        except ValueError:
            raise ValueError('"cols" must be an integer') from None
    return ModulePresentation(ring, tuple(rows), ncols)
