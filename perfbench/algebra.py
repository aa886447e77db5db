"""The in-process workloads: strong-irred, localize and alexander.

Each workload turns ``(seed, index)`` into one instance, runs it through
strongpoly's public API, and judges the answer.  Instances are generated
lazily, so a run can go on for as long as its time allows and the first
instances of a seed are always the same.  A cycle of instance kinds repeats
every ``len(KINDS)`` instances, which keeps the mix of kinds the same on
every seed and at every run length.

The program only ever receives text: polynomials go through
``parse_polynomial`` and braids through ``parse_braid``.
"""

from __future__ import annotations

import itertools
import json
import random
from functools import reduce

import strongpoly as sp
from strongpoly import verdict


#: Raised when the program runs out of a configured budget: an UNDECIDED answer.
BudgetExceeded = sp.ResourceBudgetExceeded


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def poly_text(terms: dict) -> str:
    """Text for an integer polynomial given as {exponent tuple: coefficient}."""
    parts = []
    for mono, c in sorted(terms.items(), key=lambda t: (-sum(t[0]), t[0])):
        factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(mono) if e]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _coeff(rng) -> int:
    return rng.choice([c for c in range(-9, 10) if c])


def _corpus_texts():
    """Corpus members as (text, nvars): the one program call made in set-up."""
    out = []
    for spec in sp.family_corpus(2):
        p = sp.build_family_poly(spec)
        out.append((p.to_text(), p.ring.nvars))
    return out


# -- strong-irred -------------------------------------------------------------

# Committed negatives: reducible already (k = 1) or at a small uniform power.
NEGATIVES = [
    ("x1*x2 - 1", 2), ("x1 + 1", 2), ("x1 - 1", 2), ("x1^2*x2 - 1", 2),
    ("x1*x2*x3 - 1", 3), ("2*x1 + 2", 2), ("x1^2 - x2^2", 2),
    ("x1^2 + 2*x1 + 1", 2), ("x2^2 - x1", 2), ("x1^2*x2^2 - 4", 2),
]


class StrongIrred:
    """check_strongly_irreducible over corpus members, committed negatives,
    dense polynomials (the criterion usually proves them, so Buchberger
    does the work) and sparse ones (the criterion fails and the refutation
    search factors 18, 66 or 258 substitutions)."""

    name = "strong-irred"
    # One cycle of instance kinds: ("dense", variables, degree) uses every
    # monomial of degree <= degree; ("sparse", variables) has 3-4 terms of
    # degree <= 4-8.  The twelve cheap slots sit below the median, which
    # falls among the degree-2 and -3 criterion proofs (12-15 ms each); the
    # five three-variable degree-3 ones, each a Buchberger run of about
    # 0.3 s, hold the 90th percentile, which is steadier there than in the
    # widely spread sparse searches.  About nine in ten sparse searches end
    # UNDECIDED, and which ones do is a coin the seed tosses; the cheap
    # decided slots outnumber them so that decided_ratio moves little from
    # seed to seed.
    KINDS = ((("corpus",),) * 4 + (("negative",),) * 4 + (("dense", 2, 2),) * 4
             + (("dense", 2, 3),) * 4 + (("dense", 3, 2),) * 6 + (("dense", 3, 3),) * 5
             + (("sparse", 2), ("sparse", 3), ("sparse", 4)))

    def __init__(self, seed: int):
        self.seed = seed
        self.corpus = _corpus_texts()

    def instance(self, index: int) -> dict:
        rng = _rng(self.name, self.seed, index)
        kind = self.KINDS[index % len(self.KINDS)]
        if kind[0] == "corpus":
            text, nvars = rng.choice(self.corpus)
        elif kind[0] == "negative":
            text, nvars = rng.choice(NEGATIVES)
        elif kind[0] == "dense":
            _, nvars, degree = kind
            monos = [m for m in itertools.product(range(degree + 1), repeat=nvars)
                     if sum(m) <= degree]
            text = poly_text({m: _coeff(rng) for m in monos})
        else:
            nvars = kind[1]
            degree = rng.randint(4, 8)
            size = rng.choice((3, 4))
            terms: dict = {}
            while len(terms) < size:
                mono = tuple(rng.randint(0, degree) for _ in range(nvars))
                if sum(mono) <= degree:
                    terms[mono] = _coeff(rng)
            text = poly_text(terms)
        return {"kind": "-".join(map(str, kind)), "text": text, "nvars": nvars}

    @staticmethod
    def run(inst: dict):
        p = sp.parse_polynomial(inst["text"], nvars=inst["nvars"])
        return p, sp.check_strongly_irreducible(p)

    @staticmethod
    def judge(inst: dict, result):
        """(decided, canonical answer, problem or None)."""
        p, v = result
        answer = {"status": v.status, "rule": v.rule, "reason": v.reason}
        problem = None
        if v.is_refuted:
            exps = tuple(v.witness["exponents"])
            factors = v.witness["factors"]
            answer["exponents"] = list(exps)
            answer["factors"] = [f.to_text() for f in factors]
            if reduce(lambda a, b: a * b, factors) != sp.power_substitute(p, exps):
                problem = "REFUTED factors do not multiply back to p(x^t)"
        elif v.is_proved and v.rule not in verdict.RULES:
            problem = f"PROVED rule {v.rule!r} is not in verdict.RULES"
        if inst["kind"] == "corpus" and (v.status, v.rule) != (sp.PROVED, "criterion"):
            problem = "corpus member not PROVED by the criterion"
        if inst["kind"] == "negative" and not v.is_refuted:
            problem = "committed negative not REFUTED"
        return not v.is_undecided, json.dumps(answer, sort_keys=True), problem

    @staticmethod
    def work(inst: dict, result) -> dict:
        return {"strongcheck.substitutions_tried":
                result[1].details.get("substitutions_tried", 0)}


# -- localize -----------------------------------------------------------------


class Localize:
    """The acceptance-8 shape: exponent ideals in two coprime corpus members
    with the same number of variables, reduced, audited and checked."""

    name = "localize"
    # One cycle of instance kinds: (variables, largest s + t over the
    # exponent pairs, number of pairs).  All three set the size of the work
    # and so the cost, which the slot fixes to keep the mix the same on every
    # seed.  The median falls among the three-variable pairs and the 90th
    # percentile in the middle of the two slots of four-variable pairs with
    # two exponent pairs, the tightest of the expensive kinds (0.08-0.17 s).
    # Five- and six-variable pairs are left out: they cost 0.07 s to over 6 s
    # each, and no run that fits the time budget holds enough of them to be
    # steady.
    KINDS = ((2, 8, 2), (2, 8, 3), (2, 8, 4), (3, 10, 2), (3, 10, 3), (3, 10, 4),
             (3, 10, 2), (3, 10, 3), (4, 10, 2), (4, 10, 2))

    def __init__(self, seed: int):
        self.seed = seed
        self.by_nvars: dict = {}
        for text, nvars in _corpus_texts():
            self.by_nvars.setdefault(nvars, []).append(text)

    def instance(self, index: int) -> dict:
        rng = _rng(self.name, self.seed, index)
        nvars, cap, pairs = self.KINDS[index % len(self.KINDS)]
        p, q = rng.sample(self.by_nvars[nvars], 2)
        while True:
            gens = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(pairs)]
            if max(s + t for s, t in gens) == cap:
                break
        return {"kind": f"{nvars}-{cap}-{pairs}", "p": p, "q": q, "nvars": nvars, "gens": gens}

    @staticmethod
    def run(inst: dict):
        p = sp.parse_polynomial(inst["p"], nvars=inst["nvars"])
        q = sp.parse_polynomial(inst["q"], nvars=inst["nvars"])
        ideal = sp.LocalizedIdeal(p, q, tuple(map(tuple, inst["gens"])))
        result = sp.reduce_localized_ideal(ideal)
        principal = sp.verify_principality(ideal, result)
        prod = ideal.p * ideal.q
        coprime = [sp.coprime(w, prod) for w in result.witnesses]
        return result, principal, coprime

    @staticmethod
    def judge(inst: dict, result):
        red, principal, coprime = result
        answer = {"generator": list(red.generator),
                  "witnesses": [w.to_text() for w in red.witnesses]}
        problem = None
        if not principal:
            problem = "verify_principality rejected the reduction"
        elif not all(coprime):
            problem = "a witness is not coprime to p*q"
        return True, json.dumps(answer, sort_keys=True), problem

    @staticmethod
    def work(inst: dict, result) -> dict:
        return {"localize.witnesses": len(result[0].witnesses)}


# -- alexander ----------------------------------------------------------------

# Acceptance-5 goldens: (braid text, strands, torsion Alexander polynomial).
GOLDENS = [
    ("s1 s1 s1", 2, "t^2 - t + 1"),
    ("s1", 2, "1"),
    ("", 2, "1"),
    ("s1 s2^-1 s1 s2^-1", 3, "t^2 - 3*t + 1"),
]


def closure_components(letters, strands: int) -> int:
    """Number of components of the braid closure: cycles of the permutation."""
    perm = list(range(strands + 1))
    for g in letters:
        g = abs(g)
        perm[g], perm[g + 1] = perm[g + 1], perm[g]
    seen = set()
    count = 0
    for start in range(1, strands + 1):
        if start not in seen:
            count += 1
            while start not in seen:
                seen.add(start)
                start = perm[start]
    return count


class Alexander:
    """braid_to_presentation then torsion_alexander_poly on seeded braid
    words of 2-3 times the strand count, plus the acceptance-5 goldens."""

    name = "alexander"
    # One cycle of instance kinds: ("braid", strands, closure components).
    # Cofactor minors grow steeply with both, so each slot fixes them to
    # keep the mix the same on every seed.  The median falls among the
    # five- and six-strand braids and the 90th percentile among the
    # six-strand ones.  A braid's cost spreads twentyfold within its slot,
    # so a run needs about two thousand of them for its figures to repeat
    # from seed to seed: seven- and eight-strand braids (30-75 ms each on
    # average, up to 0.6 s) would cut that threefold, and wider braids and
    # links of three or more components cost up to 28 s each.
    KINDS = (("golden",), ("braid", 4, 1), ("braid", 4, 2), ("braid", 5, 1), ("braid", 5, 2),
             ("braid", 6, 1), ("braid", 6, 2), ("braid", 6, 1))

    def __init__(self, seed: int):
        self.seed = seed

    def instance(self, index: int) -> dict:
        rng = _rng(self.name, self.seed, index)
        kind = self.KINDS[index % len(self.KINDS)]
        if kind[0] == "golden":
            text, strands, expected = rng.choice(GOLDENS)
            return {"kind": "golden", "text": text, "strands": strands, "expected": expected}
        _, strands, components = kind
        while True:
            letters = [rng.randint(1, strands - 1) * rng.choice((1, -1))
                       for _ in range(rng.randint(2 * strands, 3 * strands))]
            if closure_components(letters, strands) == components:
                break
        text = " ".join(f"s{g}" if g > 0 else f"s{-g}^-1" for g in letters)
        return {"kind": "-".join(map(str, kind)), "text": text, "strands": strands}

    @staticmethod
    def run(inst: dict):
        word = sp.parse_braid(inst["text"])
        pres = sp.braid_to_presentation(word, inst["strands"])
        return word, sp.torsion_alexander_poly(pres)

    @staticmethod
    def judge(inst: dict, result):
        word, delta = result
        text = delta.to_text("t")
        problem = None
        if sp.canonical_associate(delta) != delta:
            problem = "torsion order is not in canonical form"
        elif "expected" in inst and text != inst["expected"]:
            problem = f"golden braid gave {text!r}, expected {inst['expected']!r}"
        elif closure_components(word, inst["strands"]) == 1 and not (
            abs(sp.eval_at_ones(delta)) == 1
            and sp.canonical_associate(delta.to_laurent().bar()) == delta
        ):
            problem = "knot polynomial lacks |D(1)| = 1 or D(t) ~ D(1/t)"
        return True, text, problem

    @staticmethod
    def work(inst: dict, result) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (StrongIrred, Localize, Alexander)}
