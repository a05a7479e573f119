"""Integer lattices: duals, reduced bases, box counts, bad-vector census.

All verdicts are exact: Gram determinants are computed by integer
elimination, basis reduction is integral LLL (delta = 99/100) on the
integer Gram-Schmidt data d_i and lambda_ij, and for rank <= 6 the
reported lengths are refined to the true successive minima by Fincke-Pohst
enumeration on the same data, scaled to integers.  Independence checks,
coordinates in a basis and the choice of independent shortest vectors all
go through the one fraction-free elimination routine, ``exact._echelon``;
only coordinates come back as Fractions (through ``exact._rref``).  Square
roots are never compared in floating point; every comparison happens on
squared lengths, and LLL and the enumeration run on integers only.
Vector and basis entries are read by ``exact._int_arg``: integers, numpy
integers included; a float, a bool or text raises ValueError rather than
being truncated.

Box counts and listings (|v|_inf <= B) come from the same Fincke-Pohst
layers run vectorised in numpy (``_box_blocks``), each coefficient's exact
interval cut by the box as well as by the covering ball, in int64 when a
range guard allows and in Python ints otherwise.  The order of a listing
is unspecified.  The scalar ``_enumerate_ball`` serves only the ball
searches (``_minima``, behind ``successive_minima``, ``reduced_basis`` and
``is_k_good``, and the census); it yields one vector of each pair +-v.
"""

from __future__ import annotations

import math
import operator
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement, permutations
from itertools import product as iter_product
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .errors import BudgetExceededError
from .exact import IntMatrix, _echelon, _int_arg, _rref, det
from .kernels import _isqrt

__all__ = [
    "Lattice",
    "GoodnessVerdict",
    "CensusResult",
    "norm_sq",
    "linf",
    "is_primitive",
    "hnf_with_transform",
    "integer_kernel",
    "orthogonal_lattice",
    "dual_volume_check",
    "reduced_basis",
    "successive_minima",
    "is_k_good",
    "points_in_box",
    "lattice_points_in_box",
    "kbad_census",
]

DEFAULT_NODE_CAP = 20_000_000
_BOX_BLOCK_ROWS = 1 << 16  # rows per block of a box listing (_box_blocks)

IntVector = Tuple[int, ...]


def norm_sq(v: Sequence[int]) -> int:
    return sum(map(operator.mul, v, v))


def linf(v: Sequence[int]) -> int:
    return max(abs(x) for x in v)


def dot(v: Sequence[int], w: Sequence[int]) -> int:
    return sum(map(operator.mul, v, w))


def is_primitive(v: Sequence[int]) -> bool:
    """True when gcd of the entries is 1 (in particular v != 0)."""
    return reduce(math.gcd, (abs(x) for x in v), 0) == 1


class Lattice:
    """A sublattice of Z^t given by an independent integer basis.

    Rank 0 (empty basis) is allowed and represents the zero lattice.
    """

    __slots__ = ("ambient_dim", "basis", "_gram_det")

    def __init__(self, ambient_dim: int, basis: Iterable[Sequence[int]]):
        basis = tuple(tuple([_int_arg("basis entry", x) for x in v]) for v in basis)
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        if any(len(v) != ambient_dim for v in basis):
            raise ValueError("basis vector has wrong length")
        if len(basis) > ambient_dim:
            raise ValueError("more basis vectors than ambient dimension")
        if len(_echelon(basis, full=False)[1]) != len(basis):
            raise ValueError("basis vectors must be linearly independent")
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._gram_det = None

    @property
    def rank(self) -> int:
        return len(self.basis)

    def gram_det(self) -> int:
        """det of the Gram matrix of the basis; 1 for the zero lattice."""
        if self._gram_det is None:
            if self.rank == 0:
                self._gram_det = 1
            else:
                g = [[dot(v, w) for w in self.basis] for v in self.basis]
                self._gram_det = det(IntMatrix(g))
        return self._gram_det

    def coordinates_of(self, v: Sequence[int]) -> Optional[tuple]:
        """Rational coordinates of v in this basis, or None if outside span."""
        v = tuple([_int_arg("vector entry", x) for x in v])
        if len(v) != self.ambient_dim:
            raise ValueError("vector has wrong length")
        # solve B^T c = v; v lies off the span exactly when its column pivots
        reduced, pivots = _rref(
            [[b[k] for b in self.basis] + [v[k]] for k in range(self.ambient_dim)]
        )
        if self.rank in pivots:
            return None
        return tuple(row[-1] for row in reduced)

    def contains(self, v: Sequence[int]) -> bool:
        coords = self.coordinates_of(v)
        return coords is not None and all(c.denominator == 1 for c in coords)

    def __repr__(self) -> str:
        return f"Lattice(dim={self.ambient_dim}, basis={[list(v) for v in self.basis]})"


def hnf_with_transform(rows: Sequence[Sequence[int]]):
    """Row Hermite normal form H = U A with U unimodular.

    Returns (H, U) as lists of lists.  Zero rows of H sink to the bottom;
    pivots are positive and entries above a pivot are reduced mod it.
    """
    a = [[_int_arg("matrix entry", x) for x in r] for r in rows]
    m = len(a)
    ncols = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    r = 0
    for col in range(ncols):
        if r == m:
            break
        # clear the column below row r with gcd row operations
        piv = None
        for i in range(r, m):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, m):
            while a[i][col] != 0:
                q = a[r][col] // a[i][col]
                a[r] = [x - q * y for x, y in zip(a[r], a[i])]
                u[r] = [x - q * y for x, y in zip(u[r], u[i])]
                a[r], a[i] = a[i], a[r]
                u[r], u[i] = u[i], u[r]
        if a[r][col] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = a[i][col] // a[r][col]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
    return a, u


def integer_kernel(rows: Sequence[Sequence[int]], ambient_dim: int) -> List[IntVector]:
    """Basis of {x in Z^ambient : M x = 0} for M given by `rows`.

    Computed from the HNF transform of M^T; the result is saturated (it is
    the full solution lattice, not a finite-index sublattice).
    """
    if not rows:
        return [tuple(int(i == j) for j in range(ambient_dim)) for i in range(ambient_dim)]
    mt = [[rows[i][j] for i in range(len(rows))] for j in range(ambient_dim)]
    h, u = hnf_with_transform(mt)
    out = []
    for i in range(ambient_dim):
        if all(x == 0 for x in h[i]):
            out.append(tuple(u[i]))
    return out


def orthogonal_lattice(vectors: Sequence[Sequence[int]]) -> Lattice:
    """The lattice of integer vectors orthogonal to all the given vectors."""
    vectors = [tuple([_int_arg("vector entry", x) for x in v]) for v in vectors]
    if not vectors:
        raise ValueError("at least one vector required")
    t = len(vectors[0])
    if any(len(v) != t for v in vectors):
        raise ValueError("vectors must share a common length")
    if all(all(x == 0 for x in v) for v in vectors):
        raise ValueError("at least one vector must be nonzero")
    return Lattice(t, integer_kernel(vectors, t))


def dual_volume_check(v: Sequence[int]) -> bool:
    """Exact check that det(v^perp)^2 equals |v|^2 for primitive v."""
    v = tuple([_int_arg("vector entry", x) for x in v])
    if not is_primitive(v):
        raise ValueError("vector must be primitive")
    return orthogonal_lattice([v]).gram_det() == norm_sq(v)


# ---------------------------------------------------------------------------
# reduction and enumeration


def _round_half_even(num: int, den: int) -> int:
    """round(num / den) for den > 0, ties to even as round() on a Fraction."""
    q, r = divmod(2 * num + den, 2 * den)
    if r == 0 and q & 1:
        q -= 1
    return q


def _lll(basis: Sequence[Sequence[int]]):
    """Integral LLL with delta = 99/100 (Cohen, Alg. 2.6.7).

    Returns (b, d, lam): the reduced basis as a list of tuples and its
    integer Gram-Schmidt data, d[0] = 1, d[i + 1] = d[i] * |b*_i|^2 and
    lam[i][j] = d[j + 1] * mu_ij for j < i.  The data are updated in place
    by each size-reduction step and each swap, never recomputed; every
    division in the updates is exact.
    """
    b = [list(map(int, v)) for v in basis]
    s = len(b)
    d = [1] * (s + 1)
    lam = [[0] * s for _ in range(s)]
    for k in range(s):
        for j in range(k + 1):
            g = dot(b[k], b[j])
            for i in range(j):
                g = (d[i + 1] * g - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = g
            else:
                d[k + 1] = g
        if d[k + 1] == 0:
            raise ValueError("basis vectors must be linearly independent")
    k = 1
    while k < s:
        for j in range(k - 1, -1, -1):
            q = _round_half_even(lam[k][j], d[j + 1])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                lam[k][j] -= q * d[j + 1]
                for i in range(j):
                    lam[k][i] -= q * lam[j][i]
        lk = lam[k][k - 1]
        # Lovasz: |b*_k|^2 >= (99/100 - mu^2) |b*_(k-1)|^2, times 100 d_k d_(k-1)
        if 100 * d[k + 1] * d[k - 1] >= 99 * d[k] * d[k] - 100 * lk * lk:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        dk = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, s):
            g = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * g) // d[k]
            lam[i][k - 1] = (dk * g + lk * lam[i][k]) // d[k + 1]
        d[k] = dk
        k = max(k - 1, 1)
    return [tuple(v) for v in b], d, lam


class _NodeBudget:
    __slots__ = ("left", "cap")

    def __init__(self, cap: int):
        self.cap = cap
        self.left = cap

    def spend(self, k: int):
        self.left -= k
        if self.left < 0:
            raise BudgetExceededError(self.cap - self.left, self.cap, "lattice enumeration")


def _enumerate_ball(basis, d, lam, bound_sq: int, budget: _NodeBudget):
    """All nonzero lattice vectors v with |v|^2 <= bound_sq, exactly.

    Fincke-Pohst on the integral Gram-Schmidt data (d, lam) of ``basis``
    from _lll, scaled to integers.  At level i, with D = d[i + 1] and
    C = -sum_{j > i} x_j lam[j][i], the level adds (x D - C)^2 / (d[i] D)
    to |v|^2; times m = lcm_i d[i] d[i + 1] that is (x D - C)^2 w_i with
    w_i = m / (d[i] D), against the integer remainder.  One isqrt gives the
    exact interval of x, so every node visited fits and is charged once to
    the budget.  At a level whose higher coefficients are all 0 the centre
    C is 0 and the interval symmetric, and x starts there at 0, so of each
    pair +-v only the one whose last nonzero coefficient is positive is
    yielded, as (coeffs, vector, normsq), x ascending at each level from
    the last basis vector.  The search of the full ball, sign pairs
    included, would charge exactly 2 n - s nodes where this one charges n:
    its +- subtrees mirror each other, and each of the s levels on the
    axis charges its x = 0 node once.
    """
    s = len(basis)
    m = reduce(math.lcm, (d[i] * d[i + 1] for i in range(s)), 1)
    w = [m // (d[i] * d[i + 1]) for i in range(s)]
    coeffs = [0] * s
    top = [0] * s
    centre = [0] * s
    rem = [0] * s + [bound_sq * m]
    partial = [()] * s + [(0,) * len(basis[0])]
    i = s - 1
    descend = True
    while True:
        if descend:
            c = -sum(coeffs[j] * lam[j][i] for j in range(i + 1, s))
            r = math.isqrt(rem[i + 1] // w[i])
            if c == 0 and not any(coeffs):  # on the axis: keep x >= 0
                lo = 0
            else:
                lo = (c - r + d[i + 1] - 1) // d[i + 1]
            top[i] = (c + r) // d[i + 1]
            centre[i] = c
            if top[i] >= lo:
                budget.spend(top[i] - lo + 1)
            coeffs[i] = lo - 1
        x = coeffs[i] + 1
        if x > top[i]:
            coeffs[i] = 0
            i += 1
            if i == s:
                return
            descend = False
            continue
        coeffs[i] = x
        rem[i] = rem[i + 1] - (x * d[i + 1] - centre[i]) ** 2 * w[i]
        vec = [a + x * y for a, y in zip(partial[i + 1], basis[i])]
        if i:
            partial[i] = vec
            i -= 1
            descend = True
        else:
            descend = False
            if any(coeffs):
                yield tuple(coeffs), tuple(vec), bound_sq - rem[0] // m


def _minima(lat: Lattice, node_cap: int):
    """(minima_sq, vectors, spans, red) for successive_minima,
    reduced_basis and is_k_good.

    red is the LLL basis; the ball search over it, of squared radius
    max |b|^2, yields one of each pair +-v, and of the two the
    lexicographically smaller is kept, its coefficients negated with it.
    Sorted by (|v|^2, v), the candidates are then those of the full ball
    in the same order, less the later member of each pair, which never is
    independent of the vectors before it.  The pivot columns of the matrix
    whose columns are the candidates' coefficient vectors in red are the
    greedy choice of independent vectors, and elimination stops at rank
    pivots.  The chosen vectors are C red for their coefficient matrix C,
    so they generate the lattice exactly when |det C| = 1, and the last
    pivot of that same elimination is +-det C: spans says so.
    """
    if lat.rank == 0:
        return (), (), True, []
    red, d, lam = _lll(lat.basis)
    bound = max(norm_sq(v) for v in red)
    zero = (0,) * lat.ambient_dim  # -v < v exactly when v > zero
    candidates = []
    for coeffs, vec, nsq in _enumerate_ball(red, d, lam, bound, _NodeBudget(node_cap)):
        if vec > zero:
            vec, coeffs = tuple(map(operator.neg, vec)), tuple(map(operator.neg, coeffs))
        candidates.append((nsq, vec, coeffs))
    candidates.sort()
    _, pivots, denom, _ = _echelon(list(zip(*(c for _, _, c in candidates))), full=False)
    chosen = [candidates[j] for j in pivots]
    minima = tuple(nsq for nsq, _, _ in chosen)
    return minima, tuple(vec for _, vec, _ in chosen), abs(denom) == 1, red


def _by_length(basis: Sequence[IntVector]) -> Tuple[IntVector, ...]:
    return tuple(sorted(basis, key=lambda v: (norm_sq(v), v)))


def successive_minima(lat: Lattice, node_cap: int = DEFAULT_NODE_CAP):
    """Exact successive minima (squared) of the lattice, with witnesses.

    Returns (minima_sq, vectors), both of length rank.  Uses LLL to get a
    search radius, then enumeration of half the ball (see _minima);
    intended for rank <= 6.
    """
    return _minima(lat, node_cap)[:2]


def reduced_basis(lat: Lattice, node_cap: int = DEFAULT_NODE_CAP) -> Tuple[IntVector, ...]:
    """A shortest-possible basis, sorted by length.

    LLL (delta = 0.99) first; for rank <= 6 the result is upgraded to
    the vectors attaining the successive minima that successive_minima
    returns, whenever those generate the lattice, which the determinant of
    their coefficients in the LLL basis decides (see _minima).  For rank
    <= 3 they always do, but not beyond: in 2Z^4 + Z(1, 1, 1, 1) the
    vectors 2e_1, ..., 2e_4 attain every minimum and span a sublattice of
    index 2.
    """
    if lat.rank > 6:
        return _by_length(_lll(lat.basis)[0])
    _, vectors, spans, red = _minima(lat, node_cap)
    return vectors if spans else _by_length(red)


@dataclass(frozen=True)
class GoodnessVerdict:
    """Outcome of the K-goodness test with its exact certificate."""

    vector: IntVector
    bound: float
    good: bool
    minima_sq: tuple
    basis: tuple

    @property
    def verdict(self) -> str:
        return "good" if self.good else "bad"


_FLOAT_MAX = Fraction(sys.float_info.max)


def _exact(name: str, value) -> Fraction:
    """The bound `name` read exactly, over Python ints: numpy floats
    (float32 too) by their integer ratio, numpy integers by int(), anything
    else (text such as '5/2' or '2.5' too) by Fraction, so no int64
    arithmetic can wrap.  NaN, +-inf, unreadable text and a value beyond
    the float range, which verdicts and census results record, are refused
    by name."""
    try:
        if isinstance(value, np.floating):
            exact = Fraction(*value.as_integer_ratio())
        else:
            exact = Fraction(int(value) if isinstance(value, np.integer) else value)
    except (ValueError, OverflowError, ZeroDivisionError):
        raise ValueError(f"{name} must be a finite number") from None
    if abs(exact) > _FLOAT_MAX:
        raise ValueError(f"{name} must be at most {sys.float_info.max!r}")
    return exact


def _floor_bound(name: str, value, least: int) -> int:
    """floor(value) read exactly (see _exact), refusing value < least."""
    exact = _exact(name, value)
    if exact < least:
        raise ValueError(f"{name} must be >= {least}")
    return math.floor(exact)


def is_k_good(u: Sequence[int], k_bound, node_cap: int = DEFAULT_NODE_CAP) -> GoodnessVerdict:
    """Is every reduced-basis vector of u^perp of length <= K?

    Judged on the exact successive minima of the dual, so the verdict does
    not depend on a basis choice.  Requires primitive u and K >= 1.
    """
    u = tuple([_int_arg("vector entry", x) for x in u])
    if not is_primitive(u):
        raise ValueError("vector must be primitive")
    if len(u) < 2:
        raise ValueError("ambient dimension must be >= 2")
    k = _exact("K", k_bound)
    _floor_bound("K", k, 1)
    dual = orthogonal_lattice([u])
    minima, vectors, spans, red = _minima(dual, node_cap)
    basis = vectors if spans and dual.rank <= 6 else _by_length(red)
    ksq = math.floor(k ** 2)
    good = all(m <= ksq for m in minima)
    return GoodnessVerdict(u, float(k), good, minima, basis)


# ---------------------------------------------------------------------------
# box counting


def _support_components(basis: Sequence[IntVector]):
    """Group basis vectors by connected coordinate support."""
    supports = [frozenset(i for i, x in enumerate(v) if x != 0) for v in basis]
    groups: List[Tuple[set, List[int]]] = []
    for idx, sup in enumerate(supports):
        merged = set(sup)
        members = [idx]
        rest = []
        for coords, vecs in groups:
            if coords & merged:
                merged |= coords
                members += vecs
            else:
                rest.append((coords, vecs))
        rest.append((merged, members))
        groups = rest
    out = []
    for coords, vecs in groups:
        cl = sorted(coords)
        out.append((cl, [tuple(basis[i][c] for c in cl) for i in sorted(vecs)]))
    return out


def _box_blocks(basis: Sequence[IntVector], hf: int, budget: _NodeBudget):
    """The lattice points v with |v|_inf <= hf, origin included, yielded
    as blocks of rows of a 2-D array, in no specified order.

    Fincke-Pohst layers over the coefficients of v = sum_j x_j b_j in the
    LLL basis, last first, vectorised in numpy, with the box cutting each
    interval as well as the covering ball |v|^2 <= t hf^2.  Layer i fixes
    x_i for every partial vector V = sum_(j>i) x_j b_j.  With the integral
    Gram-Schmidt data (d, lam) of _lll, z_i = d[i] b*_i is an integer
    vector orthogonal to b_0..b_(i-1) with <v, z_i> = d[i + 1] x_i + s,
    s = <V, z_i>.  The box bounds that by W_i = hf |z_i|_1 and the ball,
    as in _enumerate_ball, by R = isqrt(rem // w_i) from the row's
    remaining squared radius, so x_i runs over
    -((min(W_i, R) + s) // d[i + 1]) .. (min(W_i, R) - s) // d[i + 1],
    cut further by every coordinate c that x_i is the last to change
    (b_i[c] != 0 = b_j[c] for j < i): |V[c] + x_i b_i[c]| <= hf.  Every
    coordinate is cut so at the last layer, whose rows are then exactly
    the box points.  Every interval lies inside the one Fincke-Pohst
    gives the same prefix, so no listing charges more nodes than a search
    of the full ball, sign pairs included, would: 2 n - rank, for the n
    nodes _enumerate_ball charges on its half.  Each layer's row count is
    charged to the budget before the layer is built.  Layers expand
    depth-first in blocks of at most _BOX_BLOCK_ROWS rows, so a caller
    that counts holds O(rank) blocks.

    The arithmetic is int64 when conservative bounds on every |x_i|, every
    partial sum, every coordinate and every block's row count stay below
    2^62, and Python ints (dtype=object) otherwise, through the same code.
    """
    b, d, lam = _lll(basis)
    r, t = len(b), len(b[0])
    # z_i = d[i] b*_i: u = d[j] (b_i - sum_(l<j) mu_il b*_l) is integral,
    # and u <- (d[j + 1] u - lam[i][j] z_j) / d[j] takes j to j + 1 exactly
    z: List[List[int]] = []
    for i in range(r):
        u = list(b[i])
        for j in range(i):
            u = [(d[j + 1] * x - lam[i][j] * y) // d[j] for x, y in zip(u, z[j])]
        z.append(u)
    width = [hf * sum(map(abs, zi)) for zi in z]
    m = reduce(math.lcm, (d[i] * d[i + 1] for i in range(r)), 1)
    wts = [m // (d[i] * d[i + 1]) for i in range(r)]
    # |s| <= reach_i = sum_(j>i) X_j |lam[j][i]|, so |x_i| <= X_i below
    xbound = [0] * r
    reach = [0] * r
    for i in range(r - 1, -1, -1):
        reach[i] = sum(xbound[j] * abs(lam[j][i]) for j in range(i + 1, r))
        xbound[i] = (width[i] + reach[i]) // d[i + 1]
    coord = [hf + sum(x * abs(v[c]) for x, v in zip(xbound, b)) for c in range(t)]
    top = max(max(sum(map(abs, zi)) for zi in z) * max(coord), max(t * hf * hf, 1) * m,
              (2 * max(xbound) + 1) * _BOX_BLOCK_ROWS)
    dtype = np.int64 if top < 1 << 62 else object
    barr = np.array(b, dtype=dtype)
    zarr = np.array(z, dtype=dtype)
    # (c, |b_i[c]|, sign) for the coordinates that b_i is the last to change
    cuts = [[(c, abs(b[i][c]), 1 if b[i][c] > 0 else -1) for c in range(t)
             if b[i][c] and not any(b[j][c] for j in range(i))] for i in range(r)]
    block = _BOX_BLOCK_ROWS

    def expand(i: int, v: np.ndarray, rem: np.ndarray):
        dd = d[i + 1]
        s = v @ zarr[i]
        wd = np.minimum(_isqrt(rem // wts[i]), width[i])
        lo = -((wd + s) // dd)
        hi = (wd - s) // dd
        for c, h, sign in cuts[i]:
            vc = v[:, c] * sign
            lo = np.maximum(lo, -((hf + vc) // h))
            hi = np.minimum(hi, (hf - vc) // h)
        cnt = np.maximum(hi - lo + 1, 0)
        stop = np.cumsum(cnt)
        total = int(stop[-1])
        budget.spend(total)
        stop = stop.astype(np.int64, copy=False)
        cnt = cnt.astype(np.int64, copy=False)
        off = lo - (stop - cnt)  # the k-th point of the layer, from row q, has x_i = off[q] + k
        for a in range(0, total, block):
            e = min(a + block, total)
            # the rows q0..q1-1 own the points a..e-1
            q0 = int(np.searchsorted(stop, a, side="right"))
            q1 = int(np.searchsorted(stop, e - 1, side="right")) + 1
            rows = slice(q0, q1)
            part = np.minimum(stop[rows], e) - np.maximum(stop[rows] - cnt[rows], a)
            x = np.repeat(off[rows], part) + np.arange(a, e)
            w = np.repeat(v[rows], part, axis=0)
            w += x[:, None] * barr[i]
            if i == 0:
                yield w
            else:
                g = x * dd + np.repeat(s[rows], part)
                yield from expand(i - 1, w, np.repeat(rem[rows], part) - g * g * wts[i])

    yield from expand(r - 1, np.zeros((1, t), dtype=dtype), np.array([t * hf * hf * m], dtype=dtype))


def points_in_box(lat: Lattice, box_bound, node_cap: int = DEFAULT_NODE_CAP) -> int:
    """Exact number of lattice points v with |v|_inf <= box_bound.

    The count includes the origin.  Basis vectors with disjoint coordinate
    support are counted independently and the per-component counts
    multiplied; rank-1 components have a closed form and the others are
    listed exactly by _box_blocks, one block at a time.
    """
    hf = _floor_bound("box bound", box_bound, 0)
    total = 1
    budget = _NodeBudget(node_cap)
    for _, vecs in _support_components(_lll(lat.basis)[0]):
        if len(vecs) == 1:
            total *= 2 * (hf // linf(vecs[0])) + 1
        else:
            total *= sum(len(w) for w in _box_blocks(vecs, hf, budget))
    return total


def _box_rows(lat: Lattice, box_bound, node_cap: int) -> np.ndarray:
    """The lattice points with |v|_inf <= box_bound, origin included, as
    the rows of one array (int64, or object past the int64 guard of
    _box_blocks), in no specified order."""
    hf = _floor_bound("box bound", box_bound, 0)
    if lat.rank == 0:
        return np.zeros((1, lat.ambient_dim), dtype=np.int64)
    return np.concatenate(list(_box_blocks(lat.basis, hf, _NodeBudget(node_cap))))


def lattice_points_in_box(
    lat: Lattice, box_bound, node_cap: int = DEFAULT_NODE_CAP
) -> List[IntVector]:
    """All lattice points with |v|_inf <= box_bound, origin included.

    Listed by box-cut Fincke-Pohst layers (see _box_blocks); the order of
    the list is unspecified.
    """
    return [tuple(v) for v in _box_rows(lat, box_bound, node_cap).tolist()]


# ---------------------------------------------------------------------------
# census of K-bad vectors


@dataclass(frozen=True)
class CensusResult:
    """Census of primitive u with |u| <= U whose dual is not K-good."""

    t: int
    u_bound: float
    k_bound: float
    count: int
    inv_norm_sum: float
    sum_error_bound: float
    bad_vectors: Optional[tuple]
    method: str
    elapsed_ms: float


def _orbit_size(u: Sequence[int]) -> int:
    """Number of signed coordinate permutations of u: 2^(nonzero entries)
    times t! over the factorials of the multiplicities of the |u_i|."""
    size = math.factorial(len(u)) << sum(1 for x in u if x)
    for mult in Counter(abs(x) for x in u).values():
        size //= math.factorial(mult)
    return size


def _signed_orbit(u: Sequence[int]) -> set:
    """The signed coordinate permutations of u, each once."""
    return {v for p in set(permutations(u)) for v in iter_product(*((x, -x) for x in p))}


def _census_bad(u: IntVector, ksq: int, node_cap: int) -> bool:
    """Is u K-bad, i.e. some successive minimum of u^perp has square > ksq?

    Decided without the full minima: when every vector of the LLL basis
    has |b|^2 <= ksq the minima are all <= ksq and u is good; otherwise u
    is bad exactly when the lattice vectors with |v|^2 <= ksq span less
    than the full rank t - 1.
    """
    red, d, lam = _lll(integer_kernel([u], len(u)))
    if all(norm_sq(v) <= ksq for v in red):
        return False
    short = [c for c, _, _ in _enumerate_ball(red, d, lam, ksq, _NodeBudget(node_cap))]
    return len(_echelon(list(zip(*short)), full=False)[1]) < len(red)


# seconds per triple of the census kernel, one thread (medians of 7 on a
# 2-vCPU Xeon, three runs): kbad_census(3, U, K) took 3.0-4.3 /
# 10.8-15.0 / 22.7-29.9 / 74.8-78.7 ms at (U, K) = (60, 8) / (100, 10) /
# (130, 12) / (200, 15), 5.5-6.2e-8 per triple from U = 130 on
_CENSUS3_S = 6.5e-8


def kbad_census(
    t: int,
    u_bound,
    k_bound,
    collect: bool = False,
    method: str = "auto",
    node_cap: int = DEFAULT_NODE_CAP,
    parts: int = 1,
    threads: int = 1,
) -> CensusResult:
    """Count primitive vectors u in Z^t, |u| <= U, that are K-bad.

    method="auto" with t = 3 runs a specialized integer kernel (rank-2
    dual reduction): it reduces one representative 0 <= a <= b <= c per
    orbit of the 48 signed coordinate permutations and weights it by the
    orbit size.  method="generic", other t and collect=True run the generic
    exact path over the same representatives 0 <= u_1 <= ... <= u_t (see
    _census_bad), with bad_vectors, when collected, expanded from the bad
    orbits and listed in lexicographic order; result.method names the path
    taken.  Both count each signed vector, so u and -u contribute
    separately.  The kernel path shards the smallest coordinate a into at
    most `parts` parts on at most `threads` threads: both are upper bounds,
    which kernels._schedule_parts lowers to one part in the calling thread
    when the estimated serial time (_CENSUS3_S per triple) is short.  The
    norm sum is one math.fsum over the kernel's per-row partial sums, so
    every reported value is the same for any parts and threads.
    node_cap bounds both paths before they scan: the kernel path refuses
    C(floor(U)+3, 3) representatives, the generic one a signed box of
    (2 floor(U)+1)^t points, above it.
    """
    if t < 3:
        raise ValueError("t must be >= 3")
    kernels._check_parts(parts, threads)  # on every path, not only the kernel's
    u_exact = _exact("U", u_bound)
    uf = _floor_bound("U", u_exact, 1)
    k_exact = _exact("K", k_bound)
    _floor_bound("K", k_exact, 1)
    start = time.perf_counter()
    if method not in ("auto", "generic"):
        raise ValueError("method must be auto|generic")
    use_kernel = t == 3 and method == "auto" and not collect
    usq, ksq = math.floor(u_exact ** 2), math.floor(k_exact ** 2)
    if use_kernel:
        kernels._check_range("U", uf, kernels._CENSUS_U_MAX)  # before the budget
        # the triples 0 <= a <= b <= c <= floor(U); _CENSUS3_S seconds each
        reps = math.comb(uf + 3, 3)
        if reps > node_cap:
            raise BudgetExceededError(reps, node_cap, "census kernel")
        pieces = kernels._schedule_parts(
            lambda lo, hi: kernels.census3(uf, usq, ksq, lo, hi),
            kernels.census_planes(usq),
            reps * _CENSUS3_S,
            parts,
            threads,
        )
        count = sum(p[0] for p in pieces)
        inv_sum = math.fsum(np.concatenate([p[1] for p in pieces]))
        bad = None
        method_used = f"kernel-{kernels.current_backend()}"
    else:
        size = (2 * uf + 1) ** t
        if size > node_cap:
            raise BudgetExceededError(size, node_cap, "census scan")
        count = 0
        terms = []
        bad_list = []
        for u in combinations_with_replacement(range(uf + 1), t):
            nsq = norm_sq(u)
            if nsq > usq or not is_primitive(u) or not _census_bad(u, ksq, node_cap):
                continue
            weight = _orbit_size(u)
            count += weight
            terms.append(weight * nsq ** (-t / 2.0))
            if collect:
                bad_list += _signed_orbit(u)
        inv_sum = math.fsum(terms)
        bad = tuple(sorted(bad_list)) if collect else None
        method_used = "generic"
    err = abs(inv_sum) * 2.3e-16 * max(count, 1)
    elapsed = (time.perf_counter() - start) * 1000.0
    return CensusResult(
        t, float(u_exact), float(k_exact), count, inv_sum, err, bad, method_used, elapsed
    )

