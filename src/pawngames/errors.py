"""Exception types shared across the package."""

from __future__ import annotations


class PawnGameError(Exception):
    """Base class for all errors raised by this package."""


class GameFormatError(PawnGameError):
    """Malformed game text.  Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(PawnGameError):
    """A structurally well-formed description violates a model invariant."""


class SolverPreconditionError(PawnGameError):
    """A solver was handed a game outside the class it decides."""


class BudgetExceededError(PawnGameError):
    """A construction outgrew its budget.

    ``estimate`` is its count of what it built or would build (64-bit
    words, or padding vertices); None when too large to build, with ``bits``
    the bit length of a lower bound on it."""

    def __init__(self, estimate: int | None, budget: int, bits: int = 0):
        self.estimate = estimate
        self.budget = budget
        if estimate is not None:
            bits = estimate.bit_length()
        size = (str(estimate) if estimate is not None and bits <= 64
                else f"at least 2^{bits - 1}")
        super().__init__(
            f"size {size} exceeds budget {budget}"
        )
