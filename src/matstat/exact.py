"""Exact linear algebra over the integers and rationals.

Everything here is arbitrary-precision and fraction-free: determinants,
ranks, pivots, adjugates, inverses and linear solves all go through one
Bareiss elimination routine in integers (``_echelon``), and characteristic
polynomials use the Berkowitz algorithm.  Fractions are built only where a
rational result leaves the module: the reduced rows of ``_rref``, inverses
and negative powers (adj(A) / det(A)), and ``RationalMatrix``.
No floating point enters this module.

Entries are checked where they enter: the public constructors
``IntMatrix(rows)`` and ``RationalMatrix(rows)`` check every entry, and
exponents are read by ``_int_arg``.  Results of the module's own
arithmetic (products, adjugates, powers, inverses) are built from entries
already checked, so they are stored unchecked through the private ``_of``
constructors, one int or one Fraction per entry.

Characteristic polynomials follow the convention f(X) = det(X*I - A), so f
is monic of degree n and the constant term is (-1)^n det(A).
"""

from __future__ import annotations

from fractions import Fraction
from operator import index, mul
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import NegativePowerOfSingularError, SingularMatrixError

__all__ = [
    "IntMatrix",
    "RationalMatrix",
    "MonicIntPoly",
    "mat_mul",
    "mat_pow",
    "det",
    "trace",
    "trace_power",
    "charpoly",
    "newton_check",
    "companion",
    "block_diag",
    "inverse_rational",
    "integer_roots",
]


def _int_arg(name: str, value) -> int:
    """value as a Python int (numpy integers included), else ValueError;
    a bool is refused, though Python counts it as an int."""
    try:
        if not isinstance(value, bool):
            return index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


class IntMatrix:
    """Immutable square matrix with arbitrary-precision integer entries.

    The constructor checks every entry (an int, not a bool) and the shape,
    and stores each entry as an exact int, so every stored entry is one.
    Results of exact arithmetic on such matrices are built by ``_of``,
    which skips those checks.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(self._as_int(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0:
            raise ValueError("matrix must be non-empty")
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        self.n = n
        self.rows = rows

    @classmethod
    def _of(cls, rows: Tuple[Tuple[int, ...], ...]) -> "IntMatrix":
        """The matrix on `rows`, a non-empty square tuple of tuples of
        exact ints, stored without a check: for results built from
        matrices whose entries were checked already."""
        m = object.__new__(cls)
        m.n = len(rows)
        m.rows = rows
        return m

    @staticmethod
    def _as_int(x) -> int:
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError(f"integer entry required, got {x!r}")
        return index(x)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_flat(cls, n: int, flat: Sequence[int]) -> "IntMatrix":
        if len(flat) != n * n:
            raise ValueError("flat entry list has wrong length")
        return cls([flat[i * n : (i + 1) * n] for i in range(n)])

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def max_abs_entry(self) -> int:
        return max(abs(x) for row in self.rows for x in row)

    def in_box(self, bound) -> bool:
        """True when every entry has absolute value at most `bound`."""
        return all(abs(x) <= bound for row in self.rows for x in row)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(tuple(zip(*self.rows)))

    def is_identity(self) -> bool:
        return all(
            x == (1 if i == j else 0)
            for i, row in enumerate(self.rows)
            for j, x in enumerate(row)
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return mat_mul(self, other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of(tuple(tuple([-x for x in row]) for row in self.rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented  # a RationalMatrix compares itself
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]})"


class RationalMatrix:
    """Immutable square matrix with Fraction entries (exact rationals)."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable[Fraction]]):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square and non-empty")
        self.n = n
        self.rows = rows

    @classmethod
    def _of(cls, rows: Tuple[Tuple[Fraction, ...], ...]) -> "RationalMatrix":
        """The matrix on `rows`, a non-empty square tuple of tuples of
        Fractions, stored without a check (see IntMatrix._of)."""
        m = object.__new__(cls)
        m.n = len(rows)
        m.rows = rows
        return m

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_int(cls, a: IntMatrix) -> "RationalMatrix":
        return cls(a.rows)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if not isinstance(other, (RationalMatrix, IntMatrix)):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        cols = tuple(zip(*other.rows))
        return RationalMatrix._of(
            tuple(tuple([sum(map(mul, row, col)) for col in cols]) for row in self.rows)
        )

    def is_identity(self) -> bool:
        return all(
            x == (1 if i == j else 0)
            for i, row in enumerate(self.rows)
            for j, x in enumerate(row)
        )

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.rows for x in row)

    def to_int_matrix(self) -> IntMatrix:
        if not self.is_integral():
            raise ValueError("matrix has non-integer entries")
        return IntMatrix([[int(x) for x in row] for row in self.rows])

    def __eq__(self, other) -> bool:
        if isinstance(other, IntMatrix):
            other = RationalMatrix.from_int(other)
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"RationalMatrix({[list(r) for r in self.rows]})"


class MonicIntPoly:
    """Monic polynomial with integer coefficients.

    `coeffs` stores (c_0, ..., c_{d-1}) from the constant term up; the
    leading coefficient 1 is implicit.  Degree 0 is the constant poly 1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs = tuple(int(c) for c in coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def all_coeffs(self) -> tuple:
        """Coefficients (c_0, ..., c_{d-1}, 1) including the leading 1."""
        return self.coeffs + (1,)

    def __call__(self, x):
        acc = 1
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, MonicIntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.degree == 0:
            return "MonicIntPoly<1>"
        terms = []
        for e in range(self.degree, -1, -1):
            c = 1 if e == self.degree else self.coeffs[e]
            if c == 0:
                continue
            if e == 0:
                terms.append(f"{c:+d}")
            else:
                xe = "X" if e == 1 else f"X^{e}"
                if c == 1:
                    terms.append(f"+{xe}")
                elif c == -1:
                    terms.append(f"-{xe}")
                else:
                    terms.append(f"{c:+d}{xe}")
        s = "".join(terms).lstrip("+")
        return f"MonicIntPoly<{s}>"


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact product of two integer matrices of equal dimension."""
    if not (isinstance(a, IntMatrix) and isinstance(b, IntMatrix)):
        raise TypeError("mat_mul multiplies two IntMatrix values")
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    cols = tuple(zip(*b.rows))
    return IntMatrix._of(
        tuple(tuple([sum(map(mul, row, col)) for col in cols]) for row in a.rows)
    )


def det(a: IntMatrix) -> int:
    """Determinant: the signed last pivot of forward Bareiss elimination."""
    _, pivots, last, sign = _echelon(a.rows, full=False)
    return sign * last if len(pivots) == a.n else 0


def trace(a: IntMatrix) -> int:
    return sum(a.rows[i][i] for i in range(a.n))


def _int_pow_nonneg(a: IntMatrix, k: int) -> IntMatrix:
    """A^k for k >= 0 by binary powering, from the first power it needs."""
    if k == 0:
        return IntMatrix.identity(a.n)
    result = None
    base = a
    while True:
        if k & 1:
            result = base if result is None else mat_mul(result, base)
        k >>= 1
        if not k:
            return result
        base = mat_mul(base, base)


def trace_power(a: IntMatrix, j: int) -> int:
    """Tr(A^j) for j >= 0, computed exactly."""
    j = _int_arg("j", j)
    if j < 0:
        raise ValueError("power must be non-negative")
    return trace(_int_pow_nonneg(a, j))


def _int_pow(a: IntMatrix, k: int) -> Tuple[IntMatrix, int]:
    """(N, q) with A^k = N / q, both in integers.

    For k < 0, A^k = adj(A)^|k| / det(A)^|k|, because adj(A) = det(A) A^-1
    and scalars commute; a singular A raises NegativePowerOfSingularError.
    k must be an int (see _int_arg).
    """
    if k >= 0:
        return _int_pow_nonneg(a, k), 1
    adj, d = _adjugate(a)
    if adj is None:
        raise NegativePowerOfSingularError(
            f"negative power {k} of a singular matrix"
        )
    return _int_pow_nonneg(adj, -k), d ** -k


def mat_pow(a: IntMatrix, k: int) -> RationalMatrix:
    """A^k as an exact rational matrix; A^0 = I by convention.

    Negative powers require det(A) != 0 and raise
    NegativePowerOfSingularError otherwise.  They are computed as
    adj(A)^|k| / det(A)^|k|: the integer adjugate, from the fraction-free
    elimination of [A | I], is raised in integers, and each entry is
    divided once.  k is an integer (numpy integers included); anything
    else, a bool too, raises ValueError.
    """
    num, den = _int_pow(a, _int_arg("k", k))
    return _over(num, den)


def _over(num: IntMatrix, den: int) -> RationalMatrix:
    """N / q as a RationalMatrix, one Fraction per entry (q != 0)."""
    return RationalMatrix._of(
        tuple(tuple([Fraction(x, den) for x in row]) for row in num.rows)
    )


def _echelon(
    rows: Sequence[Sequence[int]], full: bool
) -> Tuple[List[List[int]], List[int], int, int]:
    """Fraction-free (Bareiss) elimination of an integer matrix.

    The one exact elimination routine of the package.  Returns
    (reduced, pivots, denom, sign): the nonzero rows of the eliminated
    matrix, the pivot columns in increasing order, the last pivot and the
    sign of the row permutation.  So len(pivots) is the rank, and a column
    is a pivot exactly when it is independent of the columns before it.

    Each step replaces row_i by (p row_i - f prow) // prev, with p the new
    pivot, f = row_i[col] and prev the pivot before it; every entry stays a
    minor of the input, so each division is exact.  full=False clears only
    the rows below each pivot (the forward pass; a square matrix of full
    rank has det = sign * denom).  full=True clears the rows above too, so
    row i holds denom in column pivots[i], 0 in every other pivot column,
    and reduced / denom is the reduced row echelon form.
    """
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: List[int] = []
    prev = sign = 1
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        if not m[r][col]:
            for piv in range(r + 1, nrows):
                if m[piv][col]:
                    break
            else:
                continue
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        prow = m[r]
        p = prow[col]
        right = range(col + 1, ncols)
        for row in m[r + 1 :]:  # zero before col
            f = row[col]
            for j in right:
                row[j] = (p * row[j] - f * prow[j]) // prev
            row[col] = 0
        if full:
            for i in range(r):  # row i is zero before pivots[i]
                row = m[i]
                f = row[col]
                for j in range(pivots[i], ncols):
                    row[j] = (p * row[j] - f * prow[j]) // prev
        prev = p
        pivots.append(col)
    return m[: len(pivots)], pivots, prev, sign


def _rref(rows: Sequence[Sequence[int]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form over Q: (reduced, pivots).

    The nonzero rows of the reduced matrix, row i with a leading 1 in
    column pivots[i] and 0 in every other pivot column, and the pivot
    columns in increasing order.  Eliminated fraction-free by _echelon;
    the Fractions are built once, from its integer rows.
    """
    reduced, pivots, denom, _ = _echelon(rows, full=True)
    return [[Fraction(x, denom) for x in row] for row in reduced], pivots


def _adjugate(a: IntMatrix) -> Tuple[Optional[IntMatrix], int]:
    """(adj A, det A) from the fraction-free elimination of [A | I].

    For nonsingular A the eliminated rows are [d I | d A^-1] with d the
    last pivot, and det A = sign * d, so adj A = det(A) A^-1 is sign times
    the right block.  A singular A gives (None, 0).
    """
    n = a.n
    reduced, pivots, d, sign = _echelon(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a.rows)],
        full=True,
    )
    if pivots[n - 1] != n - 1:
        return None, 0
    if sign == 1:
        return IntMatrix._of(tuple(tuple(row[n:]) for row in reduced)), d
    return IntMatrix._of(tuple(tuple([-x for x in row[n:]]) for row in reduced)), -d


def inverse_rational(a: IntMatrix) -> RationalMatrix:
    """Exact inverse over Q: adj(A) / det(A)."""
    adj, d = _adjugate(a)
    if adj is None:
        raise SingularMatrixError("matrix is singular over Q")
    return _over(adj, d)


def charpoly(a: IntMatrix) -> MonicIntPoly:
    """Characteristic polynomial det(X*I - A) via the Berkowitz algorithm.

    Division-free: all intermediate values are integers.
    """
    n = a.n
    rows = a.rows
    # p holds the coefficients of det(X*I - A_r) for the leading principal
    # r x r block, leading coefficient first.
    p = [1, -rows[0][0]]
    for r in range(2, n + 1):
        arr = rows[r - 1][r - 1]
        col = [rows[i][r - 1] for i in range(r - 1)]
        rowv = [rows[r - 1][j] for j in range(r - 1)]
        # First column of the Berkowitz Toeplitz matrix:
        # 1, -a_rr, -rowv.col, -rowv.M.col, -rowv.M^2.col, ...
        t = [1, -arr]
        v = col
        while len(t) <= r:
            t.append(-sum(rowv[i] * v[i] for i in range(r - 1)))
            if len(t) <= r:
                v = [
                    sum(rows[i][j] * v[j] for j in range(r - 1))
                    for i in range(r - 1)
                ]
        new = []
        for i in range(r + 1):
            acc = 0
            for j in range(min(i, r - 1) + 1):
                acc += t[i - j] * p[j]
            new.append(acc)
        p = new
    return MonicIntPoly(tuple(reversed(p))[:-1])


def newton_check(f: MonicIntPoly, a: IntMatrix) -> bool:
    """Verify charpoly(A) = f through Newton's identities on power traces.

    Compares Tr(A^j) for j = 1..n against the power sums forced by the
    coefficients of f.  Independent of the Berkowitz route.
    """
    n = a.n
    if f.degree != n:
        return False
    # Elementary symmetric functions from f: c_{n-j} = (-1)^j e_j.
    full = f.all_coeffs()
    e = [1] + [0] * n
    for j in range(1, n + 1):
        e[j] = (-1) ** j * full[n - j]
    p = [0] * (n + 1)
    for k in range(1, n + 1):
        acc = 0
        for i in range(1, k):
            acc += (-1) ** (i - 1) * e[i] * p[k - i]
        p[k] = acc + (-1) ** (k - 1) * k * e[k]
    return all(trace_power(a, k) == p[k] for k in range(1, n + 1))


def companion(f: MonicIntPoly) -> IntMatrix:
    """Companion matrix of a monic polynomial; charpoly(companion(f)) = f."""
    d = f.degree
    if d < 1:
        raise ValueError("degree must be at least 1")
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = -f.coeffs[i]
    return IntMatrix(rows)


def block_diag(blocks: Sequence[IntMatrix]) -> IntMatrix:
    """Block-diagonal assembly of square integer matrices."""
    if not blocks:
        raise ValueError("at least one block required")
    n = sum(b.n for b in blocks)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i in range(b.n):
            for j in range(b.n):
                rows[off + i][off + j] = b.rows[i][j]
        off += b.n
    return IntMatrix(rows)


def integer_roots(f: MonicIntPoly) -> Optional[list]:
    """All roots (with multiplicity) when f splits over Z, else None.

    A monic integer polynomial has only integer rational roots, so this
    decides whether every eigenvalue is rational.  Each root divides the
    constant term, whose divisors come from its factorization.
    """
    from .numtheory import _divisors  # numtheory imports this module

    coeffs = list(f.all_coeffs())
    roots = []
    while len(coeffs) > 1:
        c0 = coeffs[0]
        if c0 == 0:
            roots.append(0)
            coeffs = coeffs[1:]
            continue
        found = None
        for cand in _divisors(abs(c0)):
            for r in (cand, -cand):
                acc = 0
                for c in reversed(coeffs):
                    acc = acc * r + c
                if acc == 0:
                    found = r
                    break
            if found is not None:
                break
        if found is None:
            return None
        # synthetic division by (X - found)
        new = []
        carry = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            new.append(carry)
            carry = c + found * carry
        # carry is the remainder, must be 0 here
        coeffs = list(reversed(new))
        roots.append(found)
    return sorted(roots)
