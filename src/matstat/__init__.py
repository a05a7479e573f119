"""matstat: exact arithmetic statistics of bounded integer matrices.

Counts matrices in M_n(Z; H) by characteristic polynomial, determinant and
trace constraints, studies multiplicative dependence of matrix tuples, and
provides the exact lattice machinery (dual lattices, reduced bases, box
counts) those questions run on.
"""

__version__ = "0.1.0"

from . import counting, exact, experiments, kernels, lattices, multdep, numtheory
from .errors import (
    BudgetExceededError,
    NegativePowerOfSingularError,
    SingularMatrixError,
    ZeroArgumentError,
)

__all__ = [
    "clear_caches",
    "counting",
    "exact",
    "experiments",
    "lattices",
    "multdep",
    "numtheory",
    "BudgetExceededError",
    "NegativePowerOfSingularError",
    "SingularMatrixError",
    "ZeroArgumentError",
    "__version__",
]


def clear_caches() -> None:
    """Empty every per-process memo: the per-H tables of the kernels and
    the totient, cyclotomic and small-prime tables of numtheory.  Answers
    do not change; the next call at each size builds its table again, as
    in a fresh process."""
    kernels._tables.cache_clear()
    for memo in (numtheory.totients_up_to, numtheory.cyclotomic, numtheory._small_primes):
        memo.cache_clear()
