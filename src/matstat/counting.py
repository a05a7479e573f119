"""Exact counts of bounded integer matrices under spectral constraints.

M_n(Z; H) is the set of n x n integer matrices with entries of absolute
value at most floor(H).  Every counter here is exact; the production paths
(divisor tables, bordered decomposition) are cross-checked against plain
enumeration in the test suite at overlapping scales.

Every counter takes method="auto" (the default), which runs a kernel where
one exists, or method="naive", the reference scan it is checked against:
the n2_count divisor walk at n = 2, the n3_stats scan of all (2H+1)^9
matrices at n = 3 and plain enumeration for n >= 4.  At n = 3 the auto
routes border the top-left 2x2 block in one kernel pass, which visits one
block per orbit of a symmetry group of order 8 and weights it by the
orbit size: det and trace by det_trace3 in O(H^6), det alone by
det_trace3 with the trace free, a33 then running over [-H, H], in O(H^7).  For n <= 3 the characteristic
polynomial is fixed by det A, tr A and tr A^2, so count_charpoly is a
det/trace/trace^2 count; one private core, _count_det_trace, serves them
all, with None for a target left free.

Targets (d, t, t2, K) are integers; numpy integers are accepted.

Counters accept `parts`/`threads` as upper bounds for sharding: the work
range splits into at most `parts` fixed pieces on at most `threads`
threads, and the pieces merge so that no result depends on the partition.
Each route estimates its serial time as its cost units (the budget cost,
or a count of its steps where that cost does not track the work) times a
seconds-per-unit constant measured beside it, and kernels._schedule_parts
runs work estimated below kernels._POOL_MIN_S as one part in the calling
thread, since threads and parts cost more than they save there.  The
per-H tables (the n = 2 pair table, and kernels.orbit_blocks for the
bordered 3x3 counters) are fetched outside the parts, which only read
them; they are kept for the process, so a sweep at one H builds them once
(matstat.clear_caches drops them).
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from . import kernels, lattices
from .errors import BudgetExceededError
from .exact import IntMatrix, MonicIntPoly, _int_arg, charpoly, det, trace

__all__ = [
    "CountRecord",
    "DEFAULT_BUDGET",
    "universe_size",
    "enumerate_matrices",
    "count_with_det",
    "count_charpoly",
    "count_charpoly_fast2",
    "count_det_trace",
    "count_det_trace2",
    "count_singular_bordered",
    "centralizer_count",
    "max_charpoly_count",
]

DEFAULT_BUDGET = 2_000_000_000
_CHUNK = 1 << 20


@dataclass(frozen=True)
class CountRecord:
    """One counting result, ready for CSV/JSON serialization."""

    n: int
    h: float
    kind: str
    params: str
    count: int
    elapsed_ms: float


def universe_size(n: int, h) -> int:
    """|M_n(Z; H)| = (2*floor(H) + 1)^(n^2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (2 * lattices._floor_bound("H", h, 1) + 1) ** (n * n)


def _decode(n: int, hf: int, rank: int) -> IntMatrix:
    b = 2 * hf + 1
    flat = [0] * (n * n)
    for pos in range(n * n - 1, -1, -1):
        flat[pos] = rank % b - hf
        rank //= b
    return IntMatrix.from_flat(n, flat)


def enumerate_matrices(
    n: int,
    h,
    shard: Tuple[int, int] = (1, 1),
    budget: int = DEFAULT_BUDGET,
) -> Iterator[IntMatrix]:
    """Stream M_n(Z; H) in row-major odometer order (a11 most significant).

    `shard = (index, total)` with 1 <= index <= total yields the index-th of
    `total` contiguous rank ranges; the shards partition the universe.
    """
    index, total = shard
    if not (1 <= index <= total):
        raise ValueError("shard index out of range")
    hf = lattices._floor_bound("H", h, 1)
    if n < 1:
        raise ValueError("n must be >= 1")
    size = _scan_size(2 * hf + 1, n * n, budget, "matrix enumeration", total)
    lo = (index - 1) * size // total
    hi = index * size // total
    if hi - lo > budget:
        raise BudgetExceededError(hi - lo, budget, "matrix enumeration")
    for rank in range(lo, hi):
        yield _decode(n, hf, rank)


def _check_budget(cost: int, budget: int, what: str):
    if cost > budget:
        raise BudgetExceededError(cost, budget, what)


_SHOWN_BITS = 64  # a scan size past 2^64 and past the budget is never computed


def _scan_size(base: int, exponent: int, budget: int, what: str, share: int = 1) -> int:
    """base^exponent, the size of a scan, once a 1/share part of it may fit
    the budget: exponent log2(base) - log2(share) is compared with the
    budget's bit length first, so a size far past the budget is never
    computed, and the refusal names it as a power."""
    bits = exponent * math.log2(base) - math.log2(share)
    if bits > max(budget.bit_length() + 1, _SHOWN_BITS):
        shown = f"{base}^{exponent}" + (f"/{share}" if share > 1 else "")
        raise BudgetExceededError(shown, budget, what)
    return base**exponent


def _check_method(method: str):
    if method not in ("auto", "naive"):
        raise ValueError("method must be auto|naive")


def _scan_count(n: int, hf: int, keep, budget: int) -> int:
    """#{A in M_n(Z; H) : keep(A)} by plain enumeration within budget,
    refused (see _scan_size) before the size is computed when it is far
    past the budget."""
    return sum(1 for a in enumerate_matrices(n, hf, budget=budget) if keep(a))


# ---------------------------------------------------------------------------
# determinant, trace and trace^2 counts


# Seconds per unit of work on one thread, which kernels._schedule_parts
# reads to choose parts and threads (medians of 5 at parts = 1, threads =
# 1, on a 2-vCPU Xeon).  The divisor walk of n2_count, per target and
# divisor: count_with_det(2, H, 1, method="naive") took 10.3 / 45.8 ms at
# H = 60 / 100 (1.8e6 / 8.1e6 steps).
_N2_WALK_S = 6e-9
# det_trace3 with the trace free, per unit of its budget (2H+1)^7:
# count_with_det(3, H, 0) took 22.3 / 82.6 / 244 ms at H = 4 / 5 / 6.
_DET3_S = 4.5e-9
# det_trace3 with the trace fixed, per unit of (2H+1)^6:
# count_det_trace(3, H, 1, 0) took 20.6 / 45.8 / 101.6 ms at H = 6 / 7 / 8.
_DET_TRACE3_S = 4.2e-9
# det_trace3_t2, per unit of (2H+1)^6: count_det_trace2(3, H, 0, 0, 2)
# took 12.3 / 48.8 / 225 ms at H = 6 / 8 / 10.
_DET_TRACE3_T2_S = 2.5e-9


def _count_det_trace(n: int, h, d: int, t, t2, method: str, budget: int,
                     parts: int, threads: int) -> int:
    """#{A in M_n(Z; H) : det A = d, tr A = t, tr A^2 = t2}, where t = None
    leaves the trace free and t2 = None leaves tr A^2 free (a t2 always
    comes with a t).  The one route behind every det/trace counter.

    "auto" runs det2_count / charpoly2_count at n = 2 and, at n = 3, one
    bordered kernel pass over one top-left block per orbit (see
    kernels.orbit_blocks, fetched before the parts), sharded over those
    representatives: det_trace3 (budget (2H+1)^6, or (2H+1)^7 with a free
    trace, which a33 then ranges over) or det_trace3_t2.  "naive" and
    n >= 4 scan.
    """
    hf = lattices._floor_bound("H", h, 1)
    _check_method(method)
    d = _int_arg("d", d)
    t = None if t is None else _int_arg("t", t)
    t2 = None if t2 is None else _int_arg("t2", t2)
    if t is None and t2 is not None:
        raise ValueError("a tr A^2 target needs a trace target")
    if n < 1:
        raise ValueError("n must be >= 1")
    # Hadamard: |det A| <= (sqrt(n) H)^n; |tr A| <= n H; |tr A^2| <= n^2 H^2
    if (d * d > n**n * hf ** (2 * n) or (t is not None and abs(t) > n * hf)
            or (t2 is not None and abs(t2) > n * n * hf * hf)):
        return 0
    if n == 1:
        return int(t in (None, d) and t2 in (None, d * d))
    if n == 2:
        # Cayley-Hamilton forces tr A^2 = t^2 - 2d; det and trace pin the charpoly
        if t2 is not None and t2 != t * t - 2 * d:
            return 0
        if method == "naive":  # the n2_count divisor walk, sharded over a11
            _check_budget(universe_size(2, hf), budget, "2x2 scan")
            # the walk divides (2H+1)^2 targets, or 2H+1 with the trace fixed,
            # by 2H divisors each; the budget charges (2H+1)^4 either way
            steps = (2 * hf + 1) ** (2 if t is None else 1) * 2 * hf
            return sum(kernels._schedule_parts(
                lambda lo, hi: kernels.n2_count(hf, d, t, lo, hi),
                2 * hf + 1, steps * _N2_WALK_S, parts, threads))
        return kernels.det2_count(hf, d) if t is None else kernels.charpoly2_count(hf, t, d)
    if n == 3:
        if method == "naive":  # tr A^2 = tr^2 - 2 mid for the 3x3 charpoly
            return _n3_scan_count(
                hf,
                lambda tr, mid, dt: ((dt == d) & (t is None or tr == t)
                                     & (t2 is None or tr * tr - 2 * mid == t2)),
                budget, parts, threads,
            )
        cost = (2 * hf + 1) ** (7 if t is None else 6)
        _check_budget(cost, budget, "bordered det/trace count")
        blocks = kernels.orbit_blocks(hf, lines=True)
        pieces = kernels._schedule_parts(
            lambda lo, hi: (kernels.det_trace3(blocks, d, t, lo, hi) if t2 is None
                            else kernels.det_trace3_t2(blocks, d, t, t2, lo, hi)),
            blocks.size.size,
            cost * (_DET3_S if t is None else _DET_TRACE3_S if t2 is None else _DET_TRACE3_T2_S),
            parts, threads,
        )
        return sum(pieces)
    return _scan_count(
        n, hf,
        lambda a: ((t is None or trace(a) == t) and det(a) == d
                   and (t2 is None or trace(a @ a) == t2)),
        budget,
    )


# seconds per matrix of the n3_stats scan, one thread: count_det_trace(3,
# H, 0, 0, method="naive") took 0.4 / 46.1 ms at H = 1 / 2 (3^9 / 5^9)
_N3_SCAN_S = 2.3e-8


def _n3_scan_count(hf: int, predicate, budget: int, parts: int, threads: int) -> int:
    """#{A in M_3(Z; H) : predicate(tr, middle coefficient, det)} by the
    n3_stats scan of all (2H+1)^9 matrices, sharded over ranks."""
    size = universe_size(3, hf)
    _check_budget(size, budget, "3x3 scan")

    def work(lo, hi):
        stats = (kernels.n3_stats(hf, s, min(s + _CHUNK, hi)) for s in range(lo, hi, _CHUNK))
        return sum(int(np.count_nonzero(predicate(*c))) for c in stats)

    return sum(kernels._schedule_parts(work, size, size * _N3_SCAN_S, parts, threads))


def count_with_det(
    n: int,
    h,
    d: int,
    method: str = "auto",
    budget: int = DEFAULT_BUDGET,
    parts: int = 1,
    threads: int = 1,
) -> int:
    """#{A in M_n(Z; H) : det A = d}, exact.

    "auto" runs the divisor kernel det2_count at n = 2 and, at n = 3, one
    bordered pass of det_trace3 with the trace free, budgeted as
    (2H+1)^7.  "naive" and n >= 4 scan.
    """
    return _count_det_trace(n, h, d, None, None, method, budget, parts, threads)


def count_det_trace(
    n: int,
    h,
    d: int,
    t: int,
    method: str = "auto",
    budget: int = DEFAULT_BUDGET,
    parts: int = 1,
    threads: int = 1,
) -> int:
    """S_n(H; d, t) = #{A in M_n(Z; H) : det A = d, tr A = t}."""
    return _count_det_trace(n, h, d, t, None, method, budget, parts, threads)


def count_det_trace2(
    n: int,
    h,
    d: int,
    t1: int,
    t2: int,
    method: str = "auto",
    budget: int = DEFAULT_BUDGET,
    parts: int = 1,
    threads: int = 1,
) -> int:
    """S_n(H; d, t1, t2): additionally fixes tr A^2 = t2."""
    return _count_det_trace(n, h, d, t1, t2, method, budget, parts, threads)


# ---------------------------------------------------------------------------
# characteristic polynomial counts


def count_charpoly(
    n: int,
    h,
    f: MonicIntPoly,
    method: str = "auto",
    budget: int = DEFAULT_BUDGET,
    parts: int = 1,
    threads: int = 1,
) -> int:
    """R_n(H; f): matrices in M_n(Z; H) with charpoly det(XI - A) = f.

    For n <= 3, f is fixed by d = det A, t1 = tr A and t2 = tr A^2
    (Newton: t2 = c_{n-1}^2 - 2 c_{n-2}), so this is the det/trace/trace^2
    count with the same method: "auto" takes the divisor pair table (n = 2) or the
    bordered O(H^6) kernel (n = 3), and "naive" the reference scan it is
    checked against.  For n >= 4 every matrix is enumerated and its
    charpoly compared with f.
    """
    hf = lattices._floor_bound("H", h, 1)
    _check_method(method)
    if f.degree != n:
        raise ValueError(f"polynomial degree {f.degree} does not match n={n}")
    if n <= 3:
        c = (0,) + f.coeffs  # c_{-1} = 0 makes t2 = t1^2 at n = 1
        t1 = -c[-1]
        return _count_det_trace(n, hf, (-1) ** n * c[1], t1, t1 * t1 - 2 * c[-2],
                                method, budget, parts, threads)
    return _scan_count(n, hf, lambda a: charpoly(a) == f, budget)


def count_charpoly_fast2(h, f: MonicIntPoly) -> int:
    """R_2(H; f) by the divisor route: for each diagonal, count off-diagonal
    pairs with the forced product.  O(H) lookups in the int32 pair table
    that every n = 2 kernel reads, built in O(H^2) by the first call at
    this H and kept for the process (see kernels._pair_table)."""
    return count_charpoly(2, h, f)


# Seconds per matrix of charpoly3_tally, one thread: max_charpoly_count(3,
# H) took 2.4 / 38.1 ms at H = 2 / 3 (5^9 / 7^9 matrices).
_CHARPOLY3_TALLY_S = 1e-9


def max_charpoly_count(
    n: int,
    h,
    budget: int = DEFAULT_BUDGET,
    parts: int = 1,
    threads: int = 1,
) -> Tuple[MonicIntPoly, int]:
    """(f*, R_n(H; f*)) where f* maximizes the charpoly count.

    Ties resolve to the smallest coefficient vector in (trace, middle,
    det) scan order, so the result is deterministic.  n = 2 aggregates the
    divisor-table counter over the traces t <= 0 (count(t, d) =
    count(-t, d)) by kernels.charpoly2_scan, one slice add per trace along
    a recurrence over the discriminant, budgeted as (2H+1)(3H^2+1).  That
    recurrence is serial, so it runs whole in the calling thread: `parts`
    and `threads` are checked, and recorded by callers, but split nothing,
    as each part would rebuild its chains' start.  n = 3 tallies every
    matrix within budget by kernels.charpoly3_tally (H <= 4), sharded over
    the top row pairs whose top-left block represents its orbit (see
    kernels.orbit_blocks, fetched before the parts): one key matmul per
    batch of them, weighted by the orbit size.  The parts that one thread
    runs add into one tally of that thread's, and the threads' tallies are
    summed.
    """
    hf = lattices._floor_bound("H", h, 1)
    if n == 2:
        # charpoly2_scan adds one slice of width 3H^2+1 per trace t <= 0
        _check_budget((2 * hf + 1) * (3 * hf * hf + 1), budget, "charpoly aggregation")
        kernels._check_parts(parts, threads)
        total, bt, bd, bc = kernels.charpoly2_scan(hf)
        if total != universe_size(2, hf):
            raise AssertionError("charpoly aggregation failed the partition check")
        return MonicIntPoly((bd, -bt)), bc
    if n == 3:
        size = universe_size(3, hf)
        _check_budget(size, budget, "3x3 charpoly tally")
        blocks = kernels.orbit_blocks(hf)
        tallies = {}  # one per worker thread, which its parts add into

        def work(lo, hi):
            me = threading.get_ident()
            tallies[me] = kernels.charpoly3_tally(blocks, lo, hi, tallies.get(me))

        kernels._schedule_parts(work, blocks.size.size * (2 * hf + 1) ** 2,
                                size * _CHARPOLY3_TALLY_S, parts, threads)
        tally = sum(tallies.values())
        if int(tally.sum()) != size:
            raise AssertionError("charpoly tally failed the partition check")
        best = np.unravel_index(np.argmax(tally), tally.shape)  # the smallest key
        tv, mv, dv = (int(i) - s // 2 for i, s in zip(best, tally.shape))
        return MonicIntPoly((-dv, mv, -tv)), int(tally[best])
    raise ValueError("max charpoly scan implemented for n in {2, 3}")


# ---------------------------------------------------------------------------
# singular bordered sets


# seconds per unit of the budget (2K+1)^6 of bordered3, one thread:
# count_singular_bordered(3, K) took 17.5 / 43.5 / 91.1 ms at K = 6 / 7 / 8
_BORDERED3_S = 3.7e-9


def count_singular_bordered(
    n: int,
    k: int,
    method: str = "auto",
    budget: int = DEFAULT_BUDGET,
    parts: int = 1,
    threads: int = 1,
) -> Tuple[int, int]:
    """(#U_n(K), #V_n(K)).

    U_n(K): matrices in M_n(Z; K) with det = 0, last diagonal entry 0, and
    nonzero last column above the diagonal.  V_n(K) additionally requires
    the bordering row-column dot product to vanish.  "auto" at n = 3 runs
    kernels.bordered3 over one top-left block per orbit (see
    kernels.orbit_blocks, fetched before the parts; K <= 49), sharded over
    those representatives; "naive" and n >= 4 scan.
    """
    if n < 2:
        raise ValueError("bordered sets need n >= 2")
    k = _int_arg("K", k)
    if k < 1:
        raise ValueError("K must be >= 1")
    _check_method(method)
    if n == 2:
        # det = -a*b with a != 0 forces b = 0; r is free
        u = (2 * k + 1) * (2 * k)
        return u, u
    if n == 3 and method == "auto":
        cost = (2 * k + 1) ** 6
        _check_budget(cost, budget, "bordered singular count")
        blocks = kernels.orbit_blocks(k)
        pieces = kernels._schedule_parts(lambda lo, hi: kernels.bordered3(blocks, lo, hi),
                                         blocks.size.size, cost * _BORDERED3_S, parts, threads)
        return sum(p[0] for p in pieces), sum(p[1] for p in pieces)
    # plain scan over the free entries (everything but a_nn), a11 most significant
    free = n * n - 1
    what = "bordered naive scan"
    _check_budget(_scan_size(2 * k + 1, free, budget, what), budget, what)
    u_cnt = 0
    v_cnt = 0
    for flat in itertools.product(range(-k, k + 1), repeat=free):
        rows = [flat[i * n : (i + 1) * n] for i in range(n - 1)]
        last = flat[(n - 1) * n :] + (0,)
        a_star = [rows[i][n - 1] for i in range(n - 1)]
        if all(x == 0 for x in a_star):
            continue
        if det(IntMatrix(rows + [last])) != 0:
            continue
        u_cnt += 1
        if sum(last[i] * a_star[i] for i in range(n - 1)) == 0:
            v_cnt += 1
    return u_cnt, v_cnt


# ---------------------------------------------------------------------------
# centralizer counts


def centralizer_count(a: IntMatrix, h, node_cap: int = lattices.DEFAULT_NODE_CAP) -> int:
    """#{B in M_n(Z; H) : AB = BA}: box points of the commutant lattice."""
    n = a.n
    hf = lattices._floor_bound("H", h, 1)
    rows = []
    for i in range(n):
        for j in range(n):
            coeff = [0] * (n * n)
            for p in range(n):
                for q in range(n):
                    c = 0
                    if q == j:
                        c += a.rows[i][p]
                    if p == i:
                        c -= a.rows[q][j]
                    coeff[p * n + q] = c
            rows.append(coeff)
    kernel = lattices.integer_kernel(rows, n * n)
    lat = lattices.Lattice(n * n, kernel)
    return lattices.points_in_box(lat, hf, node_cap)
