"""Multiplicative dependence of tuples of integer matrices.

A tuple (A_1, ..., A_s) of nonsingular integer matrices is multiplicatively
dependent if A_1^{k_1} ... A_s^{k_s} = I for some nonzero integer vector k
(ordered product, A^0 = I).  The determinant obstruction confines every
such k to an explicit relation lattice, which drives the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import gcd
from operator import add, mul
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetExceededError, NegativePowerOfSingularError, SingularMatrixError
from .exact import (
    IntMatrix,
    _adjugate,
    _int_arg,
    _int_pow_nonneg,
    block_diag,
    companion,
    det,
)
from .lattices import DEFAULT_NODE_CAP, Lattice, _box_rows, integer_kernel, linf, norm_sq
from .numtheory import cyclotomic, factorize

__all__ = [
    "Word",
    "det_relation_lattice",
    "check_relation",
    "find_dependence",
    "tuple_rank",
    "is_maximal_rank_dependent",
    "find_kernel_word",
    "construct_even",
    "construct_odd",
    "construct_torsion_block",
    "alternating_relation_vector",
    "unipotent_shear_pair",
]

DEFAULT_WORD_STATE_CAP = 2_000_000

# Fingerprint primes for find_dependence, tried in order.  The first three
# are the largest primes below 2^28 and keep n (p-1)^2 < 2^63 up to n = 128;
# the last two serve larger n (up to 32768 and 8388672).
_FINGERPRINT_PRIMES = (268435399, 268435367, 268435361, 16777213, 1048573)
_BLOCK_ENTRIES = 1 << 18  # int64 entries per batched product block (2 MB)


def _check_dims(mats: Sequence[IntMatrix]) -> None:
    if not mats:
        raise ValueError("tuple must be non-empty")
    n = mats[0].n
    if any(m.n != n for m in mats):
        raise ValueError("matrices must share a common dimension")


def _adjugates(mats: Sequence[IntMatrix]) -> Tuple[List[IntMatrix], List[int]]:
    """(adj A_i, det A_i) for a nonsingular tuple, one elimination each."""
    _check_dims(mats)
    pairs = [_adjugate(m) for m in mats]
    if any(adj is None for adj, _ in pairs):
        raise SingularMatrixError("tuple contains a singular matrix")
    return [adj for adj, _ in pairs], [dv for _, dv in pairs]


def det_relation_lattice(mats: Sequence[IntMatrix]) -> Lattice:
    """The lattice of k in Z^s with prod_i det(A_i)^{k_i} = 1.

    Exponents of the prime factorizations give linear conditions; the sign
    is an extra order-2 generator, handled by passing to the even-parity
    sublattice (doubling one odd basis vector).
    """
    return _relation_lattice(_adjugates(mats)[1])


def _relation_lattice(dets: Sequence[int]) -> Lattice:
    """det_relation_lattice from the nonzero determinants."""
    s = len(dets)
    facs = [factorize(dv) for dv in dets]
    primes = sorted({p for f in facs for p in f.primes})
    rows = [[f.as_dict().get(p, 0) for f in facs] for p in primes]
    basis = integer_kernel(rows, s)
    parity = [1 if dv < 0 else 0 for dv in dets]

    def par(v):
        return sum(p * x for p, x in zip(parity, v)) % 2

    odd = [v for v in basis if par(v) == 1]
    even = [v for v in basis if par(v) == 0]
    if odd:
        v0 = odd[0]
        fixed = [tuple(2 * x for x in v0)]
        fixed += [tuple(x - y for x, y in zip(v, v0)) for v in odd[1:]]
        basis = even + fixed
    return Lattice(s, basis)


def check_relation(mats: Sequence[IntMatrix], k: Sequence[int]) -> bool:
    """Exact test of A_1^{k_1} ... A_s^{k_s} = I (ordered product over Q).

    Computed in integers: each A_i^{k_i} is N_i / q_i with q_i = 1 for
    k_i >= 0 and N_i = adj(A_i)^|k_i|, q_i = det(A_i)^|k_i| for k_i < 0.
    Scalars commute, so the product is I exactly when N_1 ... N_s equals
    (q_1 ... q_s) I.  Negative exponents require the corresponding matrix
    to be nonsingular (NegativePowerOfSingularError otherwise).  Each
    exponent is an integer (numpy integers included); anything else, a
    bool too, raises ValueError.
    """
    if len(k) != len(mats):
        raise ValueError("exponent vector length mismatch")
    _check_dims(mats)
    k = [_int_arg(f"exponent k[{i}]", e) for i, e in enumerate(k)]
    adjs, dets = [None] * len(mats), [None] * len(mats)
    for i, e in enumerate(k):
        if e < 0:
            adjs[i], dets[i] = _adjugate(mats[i])
            if adjs[i] is None:
                raise NegativePowerOfSingularError(f"negative power {e} of a singular matrix")
    return _relation_holds(mats, adjs, dets, k)


def _relation_holds(
    mats: Sequence[IntMatrix],
    adjs: Sequence[Optional[IntMatrix]],
    dets: Sequence[Optional[int]],
    k: Sequence[int],
) -> bool:
    """check_relation given adj A_i and det A_i for every i with k_i < 0
    (the others are not read) and int exponents k, so no matrix is
    eliminated again."""
    prod, scale = None, 1
    for a, adj, dv, e in zip(mats, adjs, dets, k):
        if e > 0:
            num = _int_pow_nonneg(a, e)
        elif e < 0:
            num = _int_pow_nonneg(adj, -e)
            scale *= dv ** -e
        else:
            continue
        prod = num if prod is None else prod @ num
    return prod is None or all(
        x == (scale if i == j else 0)
        for i, row in enumerate(prod.rows)
        for j, x in enumerate(row)
    )


def find_dependence(
    mats: Sequence[IntMatrix],
    bound: Optional[int] = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Optional[Tuple[int, ...]]:
    """Smallest witness k != 0 with A_1^{k_1}...A_s^{k_s} = I and
    |k|_inf <= bound, or None when no such witness exists.

    Each A_i is eliminated once, for its adjugate and determinant.
    Candidates are the relation-lattice points in the box (the determinant
    condition is necessary), listed as one array in no specified order.
    A fingerprint filters them mod a prime p (see _fingerprint_survivors):
    A_1^{k_1}...A_{s-1}^{k_{s-1}} mod p, in numpy batches over power
    tables A_j^e mod p, is compared with A_s^{-k_s} mod p, one row of the
    last table.  p is the first of _FINGERPRINT_PRIMES that divides no
    det A_i and keeps n (p-1)^2 < 2^63, so no int64 product overflows;
    without one the filter keeps every candidate.  The nonzero survivors,
    ordered by (|k|_inf, |k|_2^2, lexicographic), are verified by exact
    integer evaluation (check_relation, on the adjugates already at hand),
    and the first that passes is returned.

    The answer is exact: a true relation is the identity mod p whenever p
    divides no det A_i, so the filter never drops one, and a false
    survivor fails the exact check.  Hence the result equals a plain
    exact scan of the candidates in that order.
    """
    adjs, dets = _adjugates(mats)
    if bound is None:
        bound = _default_bound(mats)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    lat = _relation_lattice(dets)
    if lat.rank == 0:
        return None
    ks = _box_rows(lat, bound, node_cap)
    survivors = [k for k in _fingerprint_survivors(mats, adjs, dets, ks) if any(k)]
    survivors.sort(key=lambda k: (linf(k), norm_sq(k), k))
    for k in survivors:
        if _relation_holds(mats, adjs, dets, k):
            return tuple(int(x) for x in k)
    return None


def _default_bound(mats: Sequence[IntMatrix]) -> int:
    """find_dependence's box radius when none is given, max(64, 2 max|entry|);
    64 for an empty tuple, which find_dependence then refuses."""
    return max(64, 2 * max((m.max_abs_entry() for m in mats), default=0))


def _fingerprint_prime(n: int, dets: Sequence[int]) -> Optional[int]:
    """The first listed prime dividing no det A_i whose n x n int64
    products mod p cannot overflow (n (p-1)^2 < 2^63), or None."""
    for p in _FINGERPRINT_PRIMES:
        if n * (p - 1) ** 2 < 2 ** 63 and all(d % p for d in dets):
            return p
    return None


def _power_table_mod(a: IntMatrix, adj: IntMatrix, d: int, m: int, p: int) -> np.ndarray:
    """A^e mod p for e = -m..m as an int64 array; entry e sits at index m + e.

    A^-1 mod p is adj(A) mod p times d^-1 mod p, with d = det A, which p
    does not divide.  The powers are built by doubling, A^e and A^-e
    together: once they are known for e <= k, the rows e = k+1..2k are
    A^{+-k} times the rows e = 1..k, one batched product for both signs,
    so about log2(m) products in all.
    """
    n = a.n
    d_inv = pow(d, -1, p)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    half = np.empty((2, m + 1, n, n), dtype=np.int64)  # A^e and A^-e, e = 0..m
    half[:, :2] = np.array(
        [[eye, [[x % p for x in row] for row in a.rows]],
         [eye, [[x * d_inv % p for x in row] for row in adj.rows]]],
        dtype=np.int64,
    )[:, : m + 1]
    k = 1
    while k < m:
        take = min(k, m - k)
        np.remainder(
            half[:, k : k + 1] @ half[:, 1 : take + 1], p, out=half[:, k + 1 : k + take + 1]
        )
        k += take
    return np.concatenate((half[1, :0:-1], half[0]))


def _fingerprint_survivors(
    mats: Sequence[IntMatrix],
    adjs: Sequence[IntMatrix],
    dets: Sequence[int],
    candidates,
) -> List[tuple]:
    """The candidates k with A_1^{k_1}...A_s^{k_s} = I mod p, as tuples.

    adjs and dets are the adjugates and determinants of the A_i
    (`_adjugates`); candidates is a list of exponent tuples or an array
    with one per row.  Every true relation survives, because reduction mod
    a prime p dividing no det A_i maps the product over Q to the product
    over Z/p.  As A_s is invertible mod p, the product is I exactly when
    A_1^{k_1} ... A_{s-1}^{k_{s-1}} equals A_s^{-k_s}, which is row
    m_s - k_s of A_s's power table: s - 2 batched matmuls per block of at
    most _BLOCK_ENTRIES int64 entries, every entry reduced below p before
    the next one, and one comparison of the two residue matrices of each
    candidate as one n*n*8-byte item (for s = 1 the row is compared with
    I).  Without a usable prime the filter keeps every candidate.
    """
    ks = np.asarray(candidates, dtype=np.int64).reshape(-1, len(mats))
    n = mats[0].n
    p = _fingerprint_prime(n, dets)
    if p is None or not len(ks):
        return [tuple(k) for k in ks.tolist()]
    ms = [int(np.abs(col).max()) for col in ks.T]
    tables = [_power_table_mod(*args, p) for args in zip(mats, adjs, dets, ms)]
    item = np.dtype((np.void, 8 * n * n))

    def items(mats_mod_p):
        return mats_mod_p.reshape(-1, n * n).view(item)[:, 0]

    eye = np.eye(n, dtype=np.int64)[None]
    last = items(tables[-1])
    step = max(1, _BLOCK_ENTRIES // (n * n))
    keep = np.empty(len(ks), dtype=bool)
    for lo in range(0, len(ks), step):
        block = ks[lo : lo + step]
        factors = (t[block[:, j] + m] for j, (t, m) in enumerate(zip(tables[:-1], ms)))
        prod = next(factors, eye)
        for f in factors:
            prod = prod @ f % p
        keep[lo : lo + step] = items(prod) == last[ms[-1] - block[:, -1]]
    return [tuple(k) for k in ks[keep].tolist()]


def tuple_rank(mats: Sequence[IntMatrix], bound: Optional[int]) -> int:
    """Largest r such that some r-subtuple has no relation within bound.

    Rank 0 means every single matrix is torsion within the bound; rank s
    means the whole tuple is independent at this search radius.  A bound
    of None takes find_dependence's default for the whole tuple, and every
    subtuple is searched in that one box.
    """
    _check_dims(mats)
    if bound is None:
        bound = _default_bound(mats)
    s = len(mats)
    for r in range(s, 0, -1):
        for idx in combinations(range(s), r):
            sub = [mats[i] for i in idx]
            if find_dependence(sub, bound) is None:
                return r
    return 0


def is_maximal_rank_dependent(mats: Sequence[IntMatrix], bound: Optional[int]) -> bool:
    """Dependent within bound, with every proper subtuple independent.

    Checking the s subtuples of size s-1 suffices: a relation on a smaller
    subtuple extends by zero exponents without leaving the box.  A bound of
    None takes find_dependence's default for the whole tuple, so every
    subtuple is searched in the same box.
    """
    if bound is None:
        bound = _default_bound(mats)
    s = len(mats)
    if find_dependence(mats, bound) is None:
        return False
    if s == 1:
        return True
    for idx in combinations(range(s), s - 1):
        if find_dependence([mats[i] for i in idx], bound) is not None:
            return False
    return True


@dataclass(frozen=True)
class Word:
    """A reduced word in the generators and their inverses.

    letters: tuple of (index, sign) with sign +-1; exponent_sums: per-index
    signed letter totals (the image in the free abelianization).
    """

    letters: Tuple[Tuple[int, int], ...]
    exponent_sums: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.letters)


def find_kernel_word(
    mats: Sequence[IntMatrix],
    max_len: int,
    state_cap: int = DEFAULT_WORD_STATE_CAP,
) -> Optional[Word]:
    """Shortest word A_{i_1}^{e_1}...A_{i_L}^{e_L} = I (L <= max_len) whose
    exponent sums are not all zero, or None.

    Breadth-first over reduced words.  A state's product is N / q in
    integers with q > 0 and gcd(entries of N, q) = 1, a unique form: each
    step multiplies by A_i / 1 or adj(A_i) / det(A_i) and divides by the
    gcd, and the product is I exactly when q = 1 and N = I.  States are
    deduplicated on (N, q, exponent sums), which preserves completeness
    because extensions depend only on that triple.  N is kept as a tuple
    of row tuples and each letter as the columns of its numerator, so a
    step is one product of rows by columns.
    """
    adjs, dets = _adjugates(mats)
    max_len = _int_arg("max_len", max_len)
    if max_len < 1:
        raise ValueError("word length must be >= 1")
    if _relation_lattice(dets).rank == 0:
        return None  # determinant obstruction kills every kernel word
    s = len(mats)
    letters = [
        (i, sgn, tuple(zip(*step.rows)), step_den, tuple(sgn * (j == i) for j in range(s)))
        for i, (m, adj, dv) in enumerate(zip(mats, adjs, dets))
        for sgn, step, step_den in ((1, m, 1), (-1, adj, dv))
    ]
    start, zero = IntMatrix.identity(mats[0].n).rows, (0,) * s
    frontier = [(start, 1, zero, ())]
    seen = {(start, 1, zero)}
    for _ in range(max_len):
        nxt = []
        for rows, den, sums, word in frontier:
            for i, sgn, cols, step_den, step_sums in letters:
                if word and word[-1] == (i, -sgn):
                    continue  # not reduced
                new_rows = tuple(
                    tuple([sum(map(mul, row, col)) for col in cols]) for row in rows
                )
                new_den = den * step_den
                if new_den != 1:  # rescale to q > 0, gcd(N, q) = 1
                    g = gcd(new_den, *chain.from_iterable(new_rows))
                    if new_den < 0:
                        g = -g
                    if g != 1:
                        new_rows = tuple(tuple([x // g for x in row]) for row in new_rows)
                        new_den //= g
                new_sums = tuple(map(add, sums, step_sums))
                new_word = word + ((i, sgn),)
                if new_den == 1 and new_rows == start and any(new_sums):
                    return Word(new_word, new_sums)
                key = (new_rows, new_den, new_sums)
                if key in seen:
                    continue
                seen.add(key)
                if len(seen) > state_cap:
                    raise BudgetExceededError(len(seen), state_cap, "word search")
                nxt.append((new_rows, new_den, new_sums, new_word))
        frontier = nxt
    return None


def alternating_relation_vector(s: int) -> Tuple[int, ...]:
    """(1, -1, 1, -1, ...) of length s; the relation the constructions obey."""
    return tuple(1 if i % 2 == 0 else -1 for i in range(s))


def construct_even(blocks: Sequence[IntMatrix]) -> Tuple[IntMatrix, ...]:
    """Tuple (A_1..A_s), s = len(blocks) even, with
    A_1 A_2^{-1} A_3 A_4^{-1} ... A_{s-1} A_s^{-1} = I.

    A_{2i-1} = B_{2i-1} B_{2i} and A_{2i} = B_{2i+1} B_{2i}, indices mod s;
    the product telescopes.
    """
    s = len(blocks)
    if s < 2 or s % 2 != 0:
        raise ValueError("need an even number (>= 2) of blocks")
    _check_dims(blocks)
    out = []
    for i in range(1, s // 2 + 1):
        b_odd = blocks[2 * i - 2]
        b_even = blocks[2 * i - 1]
        b_next = blocks[(2 * i) % s]
        out.append(b_odd @ b_even)
        out.append(b_next @ b_even)
    return tuple(out)


def construct_odd(blocks: Sequence[IntMatrix]) -> Tuple[IntMatrix, ...]:
    """Tuple (A_1..A_s), s = len(blocks)+1 odd, with
    A_1 A_2^{-1} ... A_{s-2} A_{s-1}^{-1} A_s = I.

    A_{2i-1} = B_{2i-2} B_{2i-1} (B_0 = I), A_{2i} = B_{2i} B_{2i-1}, and
    the last entry is B_{s-1} itself.
    """
    m = len(blocks)
    if m < 2 or m % 2 != 0:
        raise ValueError("need an even number (>= 2) of blocks")
    _check_dims(blocks)
    n = blocks[0].n
    out = []
    r = m // 2
    for i in range(1, r + 1):
        b_prev = blocks[2 * i - 3] if i > 1 else IntMatrix.identity(n)
        b_odd = blocks[2 * i - 2]
        b_even = blocks[2 * i - 1]
        out.append(b_prev @ b_odd)
        out.append(b_even @ b_odd)
    out.append(blocks[m - 1])
    return tuple(out)


def construct_torsion_block(orders: Sequence[int]) -> Tuple[IntMatrix, int]:
    """Block-diagonal matrix of cyclotomic companions with A^m = I.

    Block i is the companion of the k_i-th cyclotomic polynomial (dimension
    phi(k_i)); m is the product of the orders.  The exact multiplicative
    order of A is lcm(k_i), which divides m.
    """
    if not orders:
        raise ValueError("at least one order required")
    if any(k < 1 for k in orders):
        raise ValueError("orders must be >= 1")
    blocks = [companion(cyclotomic(int(k))) for k in orders]
    m = 1
    for k in orders:
        m *= int(k)
    return block_diag(blocks), m


def unipotent_shear_pair(h: int) -> Tuple[IntMatrix, IntMatrix]:
    """The pair ([[1, h-1],[0,1]], [[1, h],[0,1]]): multiplicatively
    dependent, but the smallest witness has |k|_inf = h."""
    if h < 2:
        raise ValueError("h must be >= 2")
    return (
        IntMatrix([[1, h - 1], [0, 1]]),
        IntMatrix([[1, h], [0, 1]]),
    )
