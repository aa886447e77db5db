"""Shared error type and the budgets whose exhaustion raises it."""

from __future__ import annotations

from dataclasses import dataclass


class ResourceBudgetExceeded(RuntimeError):
    """A computation ran past its configured step budget.

    Deliberately distinct from a wrong answer: callers either re-run with a
    bigger budget or surface the exhaustion (CLI exit code 4), never guess.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class Budgets:
    """The settable budgets; every other cap is a module constant.

    max_pairs caps Buchberger's S-pairs, max_kron_degree the degree of the
    Kronecker image in multivariate factoring, and uniform_max the uniform
    powers (k, ..., k) that the refutation search tries.
    """

    max_pairs: int = 20_000
    max_kron_degree: int = 240
    uniform_max: int = 6
