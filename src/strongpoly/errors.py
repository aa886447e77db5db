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


class Meter:
    """One cumulative work budget: spend(units) adds to the running total
    and raises ResourceBudgetExceeded(kind, message) once the total passes
    limit."""

    __slots__ = ("kind", "limit", "message", "spent")

    def __init__(self, kind: str, limit: int, message: str):
        self.kind = kind
        self.limit = limit
        self.message = message
        self.spent = 0

    def spend(self, units: int) -> None:
        self.spent += units
        if self.spent > self.limit:
            raise ResourceBudgetExceeded(self.kind, self.message)


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
