"""Three-valued verdicts shared by the checkers.

PROVED carries the name of the certifying rule, REFUTED a replayable
witness, UNDECIDED a reason tag.  UNDECIDED is an honest third state: it
never stands in for a failed proof attempt being reported as refuted, nor
for a missing witness being reported as proved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PROVED = "PROVED"
REFUTED = "REFUTED"
UNDECIDED = "UNDECIDED"

#: certifying-rule vocabulary used by PROVED verdicts
RULES = (
    "criterion",        # homogeneous singular-locus criterion, Groebner route
    "degree-1",         # primitive total-degree-1 polynomials are irreducible
    "univariate",       # complete univariate factorization found one factor
    "specialization",   # degree-preserving specialization stayed irreducible
    "kronecker",        # exhaustive Kronecker lift found no factor split
    "constant-prime",   # integer constant with prime magnitude
    "fewer-variables",  # strongly irreducible vs. a poly in fewer variables
    "componentwise",    # some vector component certified strongly coprime
)


@dataclass(frozen=True)
class Verdict:
    status: str
    rule: str | None = None
    reason: str | None = None
    witness: dict | None = None
    details: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.status not in (PROVED, REFUTED, UNDECIDED):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == PROVED and self.rule not in RULES:
            raise ValueError(f"PROVED needs a certifying rule from RULES, got {self.rule!r}")
        if self.status == REFUTED and self.witness is None:
            raise ValueError("REFUTED needs a witness")
        if self.status == UNDECIDED and not self.reason:
            raise ValueError("UNDECIDED needs a reason tag")

    @property
    def is_proved(self) -> bool:
        return self.status == PROVED

    @property
    def is_refuted(self) -> bool:
        return self.status == REFUTED

    @property
    def is_undecided(self) -> bool:
        return self.status == UNDECIDED


def proved(rule: str, **details) -> Verdict:
    return Verdict(PROVED, rule=rule, details=details)


def refuted(witness: dict, **details) -> Verdict:
    return Verdict(REFUTED, witness=witness, details=details)


def undecided(reason: str, **details) -> Verdict:
    return Verdict(UNDECIDED, reason=reason, details=details)
