"""Exception types shared across the package."""


class SingularMatrixError(ArithmeticError):
    """Raised when an operation requires an invertible matrix but det = 0."""


class NegativePowerOfSingularError(SingularMatrixError):
    """Raised when a negative power of a singular matrix is requested."""


class ZeroArgumentError(ValueError):
    """Raised when 0 is passed where a nonzero integer is required."""


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would exceed its node / iteration budget.

    The message records the estimated cost and the budget that was in force,
    so callers can retry with a larger explicit budget.  `needed` is an int,
    or a power as text ("3^90000") when the cost is too large to compute.
    """

    def __init__(self, needed, budget, what="enumeration"):
        self.needed = needed if isinstance(needed, str) else int(needed)
        self.budget = int(budget)
        super().__init__(
            f"{what} needs ~{self.needed} nodes, exceeds budget {self.budget}"
        )
