"""Hot counting loops in numpy, vectorised over bounded batches of ranks.

All kernels count in int64, except that the n = 2 kernels read one int32
pair table per h (_pair_table): charpoly2_scan adds int32 slices of it
along a recurrence over the discriminant t^2 - 4d, one slice per trace,
so one of its counts sums at most 2h+1 pair counts of at most 4h+1 each,
and (2h+1)(4h+1) < 2^31 for h <= 2048; det2_count multiplies int32
entries (each product at most (4h+1)^2 < 2^31); their totals are int64.
Integer quotients are float64: every floor division of the bordered 3x3
and census kernels goes through _floor_div, floor(a / b) on float64
values that hold integers, which is exact for |a|, |b| < 2^53 (its
docstring has the proof), and each call states its operands' bound: at
most 6 * 10^7 in the line counts of det_trace3 and det_trace3_t2 (h <=
20), 22h^4 in the point test of det_trace3_t2, 2k^3 in bordered3, 4U^3 +
U^2 in the census reduction (U <= 10^4) and max(|a|, |b|) in the
extended gcd.  The line table is float64 too; every count goes back to
int64 before it is weighted or summed.  Each kernel checks at entry that
its inputs lie in the range where its intermediates provably fit and its
scratch stays bounded, raising ValueError otherwise: h <= 2048 for the
pair table (checked once, in _pair_table), h <= 63 for n3_stats (ranks
below (2h+1)^9 < 2^63), h <= 4 for charpoly3_tally (a dense tally of
(6h+1)(12h^2+1)(12h^3+1) keys, 30 MB at h = 4), h <= 20 for
det_trace3/det_trace3_t2 (a line table of (2h^2+1)^2 entries of 48
bytes, 31 MB at h = 20), h <= 49 for the orbit representative list of
det_trace3, det_trace3_t2, bordered3 and charpoly3_tally (so k <= 49 for
bordered3: (2h+1)(h+1)^3 representatives of 5 bytes each, 62 MB at h =
49 against a 64 MB bound) and U <= 10^4 for census3 (norms in the rank-2
reduction stay below 2^55).  Infeasible targets count 0.  Shard ranges
must lie inside the kernel's shard axis, and any split of an axis sums
to the whole.  Most kernels shard their outermost enumeration digit;
charpoly2_scan shards the traces t <= 0 (A -> -A gives the rest), each
shard starting its recurrence afresh, so its caller runs it whole;
census3 scans one representative 0 <= a <= b <= c of each
signed-permutation orbit, weighted by the orbit size, and shards the
smallest coordinate a.  det_trace3, det_trace3_t2, bordered3 and
charpoly3_tally likewise visit only the top-left 2x2 blocks that are the
smallest-rank member of their orbit under a group of order 8, weighted
by the orbit size.  They take the list of these representatives from
orbit_blocks, which states the group and builds the list in closed form;
a counter fetches it before its parts and hands it to every part: the
shard axis of the three count kernels is that list, in rank order, and
of charpoly3_tally the list times the (2h+1)^2 entries (a13, a23), so
equal ranges of an axis are equal work.

The per-h tables (the n = 2 pair table, and the representative list,
half border and line table of orbit_blocks) are built once per process
and kept in one memo, _tables, keyed by table kind and h, so that a
sweep of calls at one h, and every part of one call, share them.  The
memo keeps at most 64 MB, the scratch bound above, dropping the least
recently used tables first; a table larger than that (the h = 2048 pair
table, 67 MB) is returned but not kept.  Every kept array is read-only,
so a caller that wrote into a shared table would raise ValueError.
matstat.clear_caches() empties the memo.
"""

from __future__ import annotations

import math
import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np


class TableInfo(NamedTuple):
    """What _TableMemo.cache_info reports, named as functools' caches name it."""

    currsize: int  # tables kept
    nbytes: int  # their bytes
    maxbytes: int  # the cap on them


class _TableMemo:
    """The memo of per-h tables (see the module docstring): an array, or a
    tuple holding arrays, per key, made read-only and kept within
    `maxbytes`, least recently used first out.  A lock guards the dict;
    tables are built outside it, so two threads may both build a missing
    one, and both return the one kept first."""

    def __init__(self, maxbytes: int):
        self.maxbytes = maxbytes
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()  # key -> (table, bytes)
        self._nbytes = 0

    def get(self, key, build):
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
                return hit[0]
        table = build()
        arrays = [a for a in (table if isinstance(table, tuple) else (table,))
                  if isinstance(a, np.ndarray)]
        for a in arrays:
            a.setflags(write=False)
        size = sum(a.nbytes for a in arrays)
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:  # another thread kept it first
                return hit[0]
            if size <= self.maxbytes:
                while self._nbytes + size > self.maxbytes:
                    self._nbytes -= self._entries.popitem(last=False)[1][1]
                self._entries[key] = (table, size)
                self._nbytes += size
        return table

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._nbytes = 0

    def cache_info(self) -> TableInfo:
        with self._lock:
            return TableInfo(len(self._entries), self._nbytes, self.maxbytes)


_TABLE_BYTES = 64 * 10**6  # the scratch bound of the module (see orbit_blocks)
_tables = _TableMemo(_TABLE_BYTES)  # emptied by matstat.clear_caches


def current_backend() -> str:
    """The kernel implementation, recorded in manifests and census methods."""
    return "numpy"


def _check_parts(parts: int, threads: int) -> None:
    """Refuse a part or thread count below 1, by name."""
    for name, value in (("parts", parts), ("threads", threads)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1")


def run_parts(fn, total_range: int, parts: int, threads: int) -> list:
    """Apply fn(lo, hi) over `parts` contiguous ranges of [0, total_range).

    Part boundaries depend only on `parts`, and results come back in part
    order, so the merged output is independent of the thread count.  At
    most min(threads, parts, os.cpu_count()) worker threads run; with one,
    the parts run in the calling thread.  Tables the parts share are built
    by the caller, once, and only read by fn.
    """
    _check_parts(parts, threads)
    parts = min(parts, total_range) if total_range else 1
    bounds = [
        (i * total_range // parts, (i + 1) * total_range // parts)
        for i in range(parts)
    ]
    workers = min(threads, parts, os.cpu_count() or 1)
    if workers == 1:
        return [fn(lo, hi) for lo, hi in bounds]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(lambda b: fn(b[0], b[1]), bounds))


# Below this estimated serial time a sharded count runs as one part in the
# calling thread.  Medians of 5 on a 2-vCPU Xeon, 8 parts on 2 threads
# against 1 part on 1 thread, near the threshold: the census at U = 60
# took 11.1 against 4.7 ms, det_trace3 at H = 6 24.1 against 20.6 ms and
# count_with_det(3, 4, 0) 24.0 against 22.3 ms, while bordered3 at K = 6
# took 15.9 against 17.5 ms and the census at U = 100 23.6 against
# 27.9 ms; from about 40 ms of serial work on, the pool paid (census at
# U = 160 49.8 against 81.4 ms, count_with_det(3, 5, 0) 49.6 against
# 82.6 ms, bordered3 at K = 7 22.7 against 43.5 ms).
_POOL_MIN_S = 0.025


def _schedule_parts(fn, total_range: int, seconds: float, parts: int, threads: int) -> list:
    """run_parts with `parts` and `threads` as upper bounds, lowered from
    `seconds`, the caller's estimate of the serial run time (its own cost
    units times its seconds per unit).  Below _POOL_MIN_S, or when only one
    worker would run, one part runs in the calling thread; otherwise the
    requested parts run on min(threads, parts, os.cpu_count()) workers.
    Every caller merges its parts so that no result depends on the
    partition, so the choice changes only the time.  A part or thread
    count below 1 is refused before anything is lowered."""
    _check_parts(parts, threads)
    workers = min(threads, parts, os.cpu_count() or 1)
    if workers == 1 or seconds < _POOL_MIN_S:
        parts = workers = 1
    return run_parts(fn, total_range, parts, workers)


# ---------------------------------------------------------------------------
# shared small helpers


def pair_count_table(h: int) -> np.ndarray:
    """table[p] = #{1 <= x, y <= h : x*y = p} for 0 <= p <= h*h."""
    if h < 0:
        raise ValueError("h must be >= 0")
    r = np.arange(1, h + 1, dtype=np.int64)
    return np.bincount(np.multiply.outer(r, r).ravel(), minlength=h * h + 1)


_PAIR_H_MAX = 2048


def _pair_table(h: int) -> np.ndarray:
    """T[q + 2h^2] = #{(x, y) in [-h, h]^2 : x*y = q} for |q| <= 2h^2, in
    int32, kept: the table every n = 2 kernel reads.

    T is zero for |q| > h^2 (the margin lets charpoly2_scan slice without
    clipping), even in q, and at most 4h+1 (at q = 0).
    """

    def build():
        if h > _PAIR_H_MAX:
            raise ValueError(f"pair table limited to h <= {_PAIR_H_MAX}")
        hh = h * h
        half = 2 * pair_count_table(h)[1:]  # q = 1 .. h^2: (x, y) and (-x, -y)
        out = np.zeros(4 * hh + 1, dtype=np.int32)
        out[2 * hh] = 4 * h + 1
        out[2 * hh + 1 : 3 * hh + 1] = half
        out[hh : 2 * hh] = half[::-1]
        return out

    return _tables.get(("pair", h), build)


_BATCH = 1 << 15  # items per vectorised step


def _floor_div(a, b, out=None):
    """floor(a / b) elementwise, as float64 holding an integer: the one
    integer quotient of the fast kernels, since numpy's int64 floor
    division costs about ten times a float64 division.

    Exact whenever a and b hold integers with |a|, |b| < 2^53 and b != 0,
    as int64 or as float64 arrays: both then convert to float64 exactly,
    and the correctly rounded quotient r of a / b floors to floor(a / b).
    If a / b is an integer n, then |n| <= |a| < 2^53 is a float64 and r = n.
    Otherwise a / b lies strictly between n = floor(a / b) and n + 1, at
    distance at least 1/|b| from each (a = n b + s with 0 < |s| < |b|),
    while |r - a / b| <= 2^-53 |a / b| < 1/|b|; so n < r < n + 1.  A
    caller states its operands' bound beside its call.  `out` may be a
    float64 array, a or b among them, that receives the quotient.
    """
    q = np.true_divide(a, b, out=out)
    return np.floor(q, out=q)


def _check_range(name: str, value: int, top: int) -> None:
    if not 0 <= value <= top:
        raise ValueError(f"{name} must be in [0, {top}], got {value}")


def _check_span(lo: int, hi: int, size: int) -> None:
    if not 0 <= lo <= hi <= size:
        raise ValueError(f"rank range [{lo}, {hi}) is not inside [0, {size})")


def _decode_block(lo: int, hi: int, h: int, ndigits: int) -> list:
    """Digit arrays of the ranks [lo, hi) in base 2h+1, shifted to [-h, h],
    least significant digit first (the odometer order of every counter)."""
    rem = np.arange(lo, hi, dtype=np.int64)
    digits = []
    for _ in range(ndigits):
        rem, dig = np.divmod(rem, 2 * h + 1)
        digits.append(dig - h)
    return digits


_BLOCKS_H_MAX = 49  # (2h+1)(h+1)^3 representatives of 5 bytes: 62 MB at h = 49, 67 MB at 50


class Blocks(NamedTuple):
    """The tables of the bordered 3x3 kernels for one h (see orbit_blocks)."""

    h: int
    reps: np.ndarray  # (r11, r12, r21, r22) of each representative, int8, in rank order
    size: np.ndarray  # its orbit size, int8
    border: tuple  # _half_border(h)
    lines: tuple | None  # _line_table(h), for det_trace3 and det_trace3_t2


def orbit_blocks(h: int, lines: bool = False) -> Blocks:
    """The representatives of the orbits of top-left 2x2 blocks in rank
    order, with their orbit sizes, the half border and, with `lines`, the
    line table: the shard axis and the tables of det_trace3, det_trace3_t2,
    bordered3 and charpoly3_tally, which only read them.

    The orbits are those of the group of order 8 generated by three
    commuting swaps of a block (r11, r12, r21, r22): r11 <-> r22
    (conjugation by the swap of the first two coordinates, then the
    transpose), r12 <-> r21 (the transpose) and (r12, r21) -> (-r12, -r21)
    (conjugation by diag(1, -1, 1)).  Each keeps det, tr A and tr A^2 of a
    3x3 matrix with that block and maps its other entries bijectively onto
    the box.  Ranks order blocks by (r22, r21, r12, r11), r22 most
    significant, so the least member of an orbit is the block with
    r22 <= r11 and r21 <= -|r12|, and its orbit size is (1 if r11 = r22
    else 2) times (1 if r21 = 0, 2 if |r12| = -r21 != 0, else 4).  These
    are (2h+1)(h+1) diagonal pairs times (h+1)^2 off-diagonal pairs, the
    s(s+1)^3/8 orbits (s = 2h+1) that Burnside's lemma gives, about s^4/8.
    The list is filled one r22 at a time, with no scratch beyond the 5
    bytes per representative.  The list, the half border and the line
    table are kept per h (see _TableMemo), so a sweep at one h builds them
    once."""
    cap = _LINE_H_MAX if lines else _BLOCKS_H_MAX
    if not 0 <= h <= cap:
        raise ValueError(f"the bordered 3x3 kernels take H (or K) in [0, {cap}], got {h}")
    reps, size = _tables.get(("reps", h), lambda: _orbit_reps(h))
    return Blocks(h, reps, size, _tables.get(("border", h), lambda: _half_border(h)),
                  _tables.get(("lines", h), lambda: _line_table(h)) if lines else None)


def _orbit_reps(h: int):
    """(reps, size) of orbit_blocks(h), built in closed form."""
    side = 2 * h + 1
    # the off-diagonal pairs with r21 <= -|r12|, in (r21, r12) order, and
    # the factor of the orbit size that each gives
    r21, r12 = np.indices((h + 1, side), dtype=np.int8) - np.int8(h)
    least = np.abs(r12) <= -r21
    off = np.stack([r12[least], r21[least]], axis=1)
    off_size = np.where(r21 == 0, 1, np.where(np.abs(r12) == -r21, 2, 4))[least].astype(np.int8)
    n_off = off.shape[0]  # (h+1)^2
    diag = np.arange(-h, h + 1, dtype=np.int8)
    diag_size = np.full(side, 2, dtype=np.int8)
    diag_size[0] = 1  # r11 = r22
    count = n_off * side * (h + 1)  # times the (2h+1)(h+1) diagonal pairs
    reps = np.empty((count, 4), dtype=np.int8)
    size = np.empty(count, dtype=np.int8)
    at = 0
    for r22 in range(-h, h + 1):
        r11 = diag[r22 + h :]
        end = at + n_off * r11.size
        rows = reps[at:end].reshape(n_off, r11.size, 4)
        rows[..., 0] = r11
        rows[..., 1:3] = off[:, None]
        rows[..., 3] = r22
        np.multiply.outer(off_size, diag_size[: r11.size], out=size[at:end].reshape(n_off, -1))
        at = end
    return reps, size


def _rep_batches(blocks: Blocks, lo: int, hi: int | None, per_rep: int):
    """(orbit sizes, r11, r12, r21, r22) as int64 arrays over the
    representatives [lo, hi) (all when hi is None), in batches of at most
    _BATCH // per_rep."""
    if hi is None:
        hi = blocks.size.size
    _check_span(lo, hi, blocks.size.size)
    step = max(1, _BATCH // per_rep)
    for start in range(lo, hi, step):
        stop = min(start + step, hi)
        yield (blocks.size[start:stop].astype(np.int64),
               *blocks.reps[start:stop].T.astype(np.int64))


# ---------------------------------------------------------------------------
# n = 2 naive enumeration count (det, optionally trace)


def n2_count(h: int, d: int, t: int | None = None,
             lo: int = 0, hi: int | None = None) -> int:
    """Enumeration count of 2x2 matrices with det = d (and trace = t unless
    t is None).

    The outer index runs over a11 in [-h, h]; lo/hi give a subrange for
    sharding.  Counts a12*a21 pairs by divisor walk, which keeps this route
    independent of the pair-table route in charpoly2_*.
    """
    if hi is None:
        hi = 2 * h + 1
    _check_span(lo, hi, 2 * h + 1)
    rng = np.arange(-h, h + 1, dtype=np.int64)
    b = rng[rng != 0]  # a12; a12 = 0 leaves a21 free when a11*a22 = d
    per_a11 = b.size * (rng.size if t is None else 1)
    step = max(1, _BATCH // max(1, per_a11))
    count = 0
    for start in range(lo, hi, step):
        a = np.arange(start, min(start + step, hi), dtype=np.int64) - h
        if t is None:
            target = (a[:, None] * rng - d).ravel()  # over (a11, a22)
        else:
            e = t - a
            target = (a * e - d)[np.abs(e) <= h]
        q, r = np.divmod(target[:, None], b)  # a21 = target / a12
        count += int(np.count_nonzero((r == 0) & (np.abs(q) <= h)))
        count += (2 * h + 1) * int(np.count_nonzero(target == 0))
    return count


# ---------------------------------------------------------------------------
# n = 2 charpoly aggregation over the pair table


def charpoly2_scan(h: int, lo_t: int | None = None, hi_t: int | None = None):
    """Aggregate the fast 2x2 charpoly counter over every feasible (t, d).

    A -> -A keeps det and negates the trace, so count(t, d) = count(-t, d):
    only t <= 0 is scanned, and each t < 0 counts twice in the total.
    Returns (total, best_t, best_d, best_count) on the t-range [lo_t, hi_t)
    inside [-2h, 0] (the default); an empty range gives (0, 0, 0, -1).  The
    total over the full range is (2h+1)^4; ties for the max resolve to the
    smallest (t, d) in scan order (t rising, the first strict maximum
    winning, then the smallest d), which is also the smallest over all t,
    since -t comes before t.

    With m = 2 a11 - t, the product a11 a22 = a11 (t - a11) is
    (t^2 - m^2)/4, so a12 a21 = (D - m^2)/4 with D = t^2 - 4d, over the m
    with m = t (mod 2) and |m| <= M = 2h - |t|.  With e = t^2//4 - d that
    product is e - m^2//4, so count(t, d) = F_M(e) = sum_m T(e - m^2//4),
    T the kept pair table (_pair_table): it depends on t only through M.
    Each parity of M is one chain, F_0 = T, F_1 = 2T and F_M = F_{M-2} +
    2 T(e - s) with s = j^2 (M = 2j) or j(j+1) (M = 2j+1).  As T is even,
    F_M over d ascending (e descending) adds the forward slice
    table[s : s + 3h^2+1] of the table, so each trace costs one slice add
    and one argmax, O(h^3) in all; a chain's first trace in [lo_t, hi_t)
    adds its M//2 + 1 slices from scratch.  A count sums at most 2h+1
    entries of at most 4h+1 each, and (2h+1)(4h+1) < 2^31 for h <= 2048,
    so no int32 sum wraps.  The total is summed in int64 from each slice's
    sum, read off one cumulative sum of the table (at most (2h+1)^2).
    Besides the table, the scratch is three int32 arrays of at most 4h^2+2
    entries: the doubled table, the cumulative sum and one chain.
    """
    if lo_t is None:
        lo_t = -2 * h
    if hi_t is None:
        hi_t = 1
    _check_span(lo_t + 2 * h, hi_t + 2 * h, 2 * h + 1)
    table = _pair_table(h)  # indexed by q + 2h^2, q = a12*a21, and even in q
    if hi_t == lo_t:
        return 0, 0, 0, -1
    hh = h * h
    width = 3 * hh + 1  # cnt[k] is the count at d = t^2//4 + k - 2h^2
    twice = table + table
    cum = np.zeros(table.size + 1, dtype=np.int32)
    np.cumsum(table, out=cum[1:])
    best_c = np.empty(hi_t - lo_t, dtype=np.int64)  # per trace: the max count
    best_d = np.empty(hi_t - lo_t, dtype=np.int64)  # and its smallest d
    total = 0
    for first in range(lo_t, min(lo_t + 2, hi_t)):  # one chain per parity of M
        odd = first % 2
        cnt = np.zeros(width, dtype=np.int32)
        cnt_sum = 0
        j_next = 0
        for tv in range(first, hi_t, 2):
            top = (2 * h + tv) // 2  # M // 2
            for j in range(j_next, top + 1):
                s = j * (j + odd)
                weight = 2 if j or odd else 1  # m = +-(2j + odd); m = 0 once
                np.add(cnt, (twice if weight == 2 else table)[s : s + width], out=cnt)
                cnt_sum += weight * int(cum[s + width] - cum[s])
            j_next = top + 1
            total += (1 if tv == 0 else 2) * cnt_sum
            k = int(np.argmax(cnt))
            best_c[tv - lo_t] = cnt[k]
            best_d[tv - lo_t] = tv * tv // 4 + k - 2 * hh
    i = int(np.argmax(best_c))
    return total, lo_t + i, int(best_d[i]), int(best_c[i])


def charpoly2_count(h: int, t: int, d: int) -> int:
    """Fast exact R_2(h; X^2 - tX + d) via the divisor pair table; 0 for
    an infeasible (t, d)."""
    table = _pair_table(h)  # indexed by q + 2h^2
    hh = h * h
    a = np.arange(max(-h, t - h), min(h, t + h) + 1, dtype=np.int64)
    q = a * (t - a) - d  # the forced product a12*a21
    return int(table[q[np.abs(q) <= hh] + 2 * hh].sum(dtype=np.int64))


def det2_count(h: int, d: int) -> int:
    """#{A in M_2(Z; h) : det A = d} via pair-count convolution."""
    hh = h * h
    if abs(d) > 2 * hh:
        return 0
    mid = _pair_table(h)[hh : 3 * hh + 1]  # T(p) for |p| <= h^2
    # det = p - q with p = a11*a22, q = a12*a21: sum_p T(p) * T(p - d),
    # which is even in d; no int32 product wraps, as (4h+1)^2 < 2^31
    d = abs(d)
    return int(np.multiply(mid[d:], mid[: mid.size - d]).sum(dtype=np.int64))


# ---------------------------------------------------------------------------
# n = 3 matrix stats from enumeration ranks


def _row_pair_forms(a12, a11, a10, a02, a01, a00):
    """(trace, mid, det) of top row pairs, given by their digit arrays (as
    _decode_block returns the ranks of (2h+1)^6, a11 most significant), as
    affine forms of the last row: (k, 4) arrays to multiply by the column
    (a31, a32, a33, 1)."""
    minor = a00 * a11 - a01 * a10
    zero = np.zeros_like(minor)
    return (np.stack([zero, zero, zero + 1, a00 + a11], axis=1),
            np.stack([-a02, -a12, a00 + a11, minor], axis=1),
            np.stack([a01 * a12 - a02 * a11, a02 * a10 - a00 * a12, minor, zero], axis=1))


def _last_rows(h: int):
    """All (2h+1)^3 last rows, in rank order, as columns (a31, a32, a33, 1)."""
    a22, a21, a20 = _decode_block(0, (2 * h + 1) ** 3, h, 3)
    return np.stack([a20, a21, a22, np.ones_like(a20)])


def n3_stats(h: int, lo: int, hi: int):
    """(trace, second-coefficient, det) arrays for enumeration ranks
    [lo, hi) of M_3(Z; h) in row-major odometer order (a11 most
    significant).  charpoly = X^3 - trace*X^2 + mid*X - det.

    A rank is (first two rows) * (2h+1)^3 + (last row).  For fixed first
    two rows each stat is an affine form of the last row (see
    _row_pair_forms), so the row pairs that [lo, hi) meets make one int64
    matmul per stat against all (2h+1)^3 last rows, cut to [lo, hi).
    """
    _check_range("h", h, 63)  # ranks stay below (2h+1)^9 < 2^63
    _check_span(lo, hi, (2 * h + 1) ** 9)
    rows = (2 * h + 1) ** 3
    first = lo // rows
    last = _last_rows(h)
    cut = slice(lo - first * rows, hi - first * rows)
    forms = _row_pair_forms(*_decode_block(first, -(-hi // rows), h, 6))
    return tuple((form @ last).ravel()[cut] for form in forms)


_TALLY_H_MAX = 4  # the dense tally has (6h+1) km kd entries: 30 MB at h = 4
_TALLY_BLOCK = 1 << 20  # matrices per key block


def charpoly3_tally(blocks: Blocks, lo: int = 0, hi: int | None = None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """tally[trace + 3h, mid + 6h^2, det + 6h^3] over the A in M_3(Z; h),
    h = blocks.h, whose top two rows are in [lo, hi) of the shard axis: the
    representative blocks of orbit_blocks(h), each with the (2h+1)^2
    entries (a13, a23) in turn.  The counts are added into `out`, an int64
    tally of that shape from an earlier call at this h, and `out` is
    returned; with out=None a new tally is made.  So the parts that one
    thread runs share one tally, and no part allocates or scans its own.

    The orbit maps of the top-left block (see orbit_blocks) extend to
    conjugations and the transpose of A, which keep its charpoly and map the
    matrices over one block onto those over its image.  So only the row
    pairs whose block is a representative are tallied, each times its orbit
    size: the row pairs of a range are grouped by size, and each group adds
    its size at its keys in one exact int64 np.add.at per _TALLY_BLOCK
    matrices.  |trace| <= 3h, |mid| <= 6h^2 and |det| <= 6h^3, so the flat
    key ((trace + 3h) km + mid + 6h^2) kd + det + 6h^3 (km = 12h^2 + 1,
    kd = 12h^3 + 1) lies in [0, (6h+1) km kd), far below 2^63.  It is an
    affine form of the last row like each stat (see _row_pair_forms), so a
    batch of row pairs is one int64 matmul against all (2h+1)^3 last rows.
    """
    h = blocks.h
    _check_range("h", h, _TALLY_H_MAX)
    side = 2 * h + 1
    if hi is None:
        hi = blocks.size.size * side * side
    _check_span(lo, hi, blocks.size.size * side * side)
    km, kd = 12 * h * h + 1, 12 * h**3 + 1
    shape = (6 * h + 1, km, kd)
    if out is None:
        out = np.zeros(shape, dtype=np.int64)
    elif out.shape != shape or out.dtype != np.int64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a contiguous int64 tally of shape {shape}")
    tally = out.reshape(-1)  # a view: the adds land in out
    last = _last_rows(h)
    step = max(1, _TALLY_BLOCK // side**3)
    rep, rest = np.divmod(np.arange(lo, hi, dtype=np.int64), side * side)
    sizes = blocks.size[rep]
    for size in (1, 2, 4, 8):
        group = np.flatnonzero(sizes == size)
        for start in range(0, group.size, step):
            pick = group[start : start + step]
            r11, r12, r21, r22 = blocks.reps[rep[pick]].T.astype(np.int64)
            a13, a23 = np.divmod(rest[pick], side)
            # the digits of the row pair as _decode_block gives them, a23 first
            tr, mid, dt = _row_pair_forms(a23 - h, r22, r21, a13 - h, r12, r11)
            w = (tr * km + mid) * kd + dt
            w[:, 3] += (3 * h * km + 6 * h * h) * kd + 6 * h**3
            np.add.at(tally, (w @ last).ravel(), size)
    return out


# ---------------------------------------------------------------------------
# n = 3 det/trace optimized counters (bordered decomposition)
#
# A = [[R, a], [b^T, c]] with R the top-left 2x2 block.  For fixed R and
# c, det A = c*det R - b^T adj(R) a is linear in a for fixed b, so each
# border vector b leaves a line count over a in [-h, h]^2.  Every such count
# is even in b (negate a as well), so the kernels visit b up to sign.  A
# fixed trace forces c = t - tr R; with the trace free (det_trace3 with
# t = None) c runs over [-h, h] in the same pass, so a det count is one
# pass over the blocks rather than one per trace.  The kernels visit one
# block R per orbit of order 8 (see orbit_blocks) and weight its count by
# the orbit size: the maps keep det, tr A and tr A^2 and permute the border
# pairs (a, b), the transpose swapping a and b.  For bordered3 the count of
# pairs with a != 0 is the count of all pairs less the (2k+1)^2 with a = 0,
# so the swap keeps it too.

_LINE_H_MAX = 20  # the line table has (2h^2+1)^2 entries of six float64: 31 MB at h = 20


def _half_border(h):
    """Border vectors b in [-h, h]^2 up to sign, and their multiplicity."""
    rng = np.arange(-h, h + 1, dtype=np.int64)
    b1 = np.repeat(rng, 2 * h + 1)
    b2 = np.tile(rng, 2 * h + 1)
    keep = (b1 > 0) | ((b1 == 0) & (b2 >= 0))
    b1, b2 = b1[keep], b2[keep]
    return b1, b2, np.where((b1 == 0) & (b2 == 0), 1, 2)


_FAR = 2**52  # a step of the line table that no bound of _line_counts reaches


def _line_table(h):
    """The lines A a1 + B a2 = g0 for every (A, B) in [0, 2h^2]^2, keyed
    A (2h^2+1) + B, as six float64 arrays (g, x, y, sa, sb, f), built by
    orbit_blocks and read by _line_counts.

    With A and B nonzero, (g, x, y) is their extended gcd (A x + B y = g)
    and (sa, sb) = (A, B)/g: when g | g0 the solutions are
    (x q + m sb, y q - m sa) over the integers m, q = g0/g, and f = 1.
    Every other key is folded into that form, so every key reads alike:
    - a free line (A or B zero, not both) fixes one coordinate at q and
      leaves the other free.  The fixed coordinate's step is _FAR, which
      admits only m = 0 when |q| <= h and no m otherwise, the free one's
      step is 1 with offset 0, which admits m = 0, and f = 2h+1 counts the
      free coordinate's values;
    - A = B = 0 has g = _FAR, so g | g0 only for g0 = 0 (every caller has
      |g0| < _FAR), then q = 0; both steps are _FAR, x = y = 0, so only
      m = 0 is admitted, and f = (2h+1)^2.
    """
    width = 2 * h * h + 1
    side = 2 * h + 1
    a = np.repeat(np.arange(width, dtype=np.int64), width)
    b = np.tile(np.arange(width, dtype=np.int64), width)
    parts = [_xgcd_vec(a[i : i + _BATCH], b[i : i + _BATCH])
             for i in range(0, a.size, _BATCH)]
    g, x, y = (np.concatenate(p) for p in zip(*parts))
    zero = g == 0
    sa, sb = a // (g + zero), b // (g + zero)
    f = np.where(sa == 0, side, 1) * np.where(sb == 0, side, 1)
    g[zero], x[zero] = _FAR, 0
    sa[sa == 0] = _FAR
    sb[sb == 0] = _FAR
    return tuple(v.astype(np.float64) for v in (g, x, y, sa, sb, f))


def _line_counts(alpha, beta, g0, h, table):
    """#{(x, y) in [-h, h]^2 : alpha*x + beta*y = g0}, elementwise, as
    int64, in closed form from `table` (see _line_table).  The box is
    symmetric in each coordinate, so the count depends on |alpha|, |beta|
    only: it is f times the number of integers m with |x q + m sb| <= h and
    |y q - m sa| <= h when g | g0, and 0 otherwise.

    Every quotient is _floor_div's, exact here: |alpha|, |beta| <= 2h^2 and
    |g0| <= 8h^3 + 7h^2 (the callers' bound) keep |q| <= |g0|, the Bezout
    coefficients at most 2h^2 and so |h +- x q|, |h +- y q| <= 16h^5 + 14h^4
    + h, below 6 * 10^7 at h = _LINE_H_MAX, while g, sa, sb <= _FAR."""
    g_t, x_t, y_t, sa_t, sb_t, f_t = table
    key = np.abs(alpha) * (2 * h * h + 1) + np.abs(beta)
    g = g_t.take(key)
    q = _floor_div(g0, g)
    spare = np.multiply(q, g)
    ok = spare == g0  # g | g0, exactly: |q g| <= |g0| + g
    xq = x_t.take(key) * q
    yq = np.multiply(q, y_t.take(key), out=q)
    sa, sb = sa_t.take(key), sb_t.take(key)
    # the admitted m run from lo to hi
    hi = _floor_div(np.subtract(h, xq, out=spare), sb, out=spare)
    minus_lo = _floor_div(np.add(xq, h, out=xq), sb, out=xq)
    np.minimum(hi, _floor_div(h + yq, sa), out=hi)
    np.minimum(minus_lo, _floor_div(np.subtract(h, yq, out=yq), sa, out=yq), out=minus_lo)
    cnt = np.add(hi, minus_lo, out=hi)
    cnt += 1
    np.maximum(cnt, 0, out=cnt)
    cnt *= ok
    cnt *= f_t.take(key)
    return cnt.astype(np.int64)


def _check_det_trace_args(blocks, d, t):
    h = blocks.h
    if blocks.lines is None:
        raise ValueError("the det/trace kernels need orbit_blocks(h, lines=True)")
    if abs(d) > 6 * h**3 or (t is not None and abs(t) > 3 * h):
        raise ValueError(f"(d, t) = ({d}, {t}) outside |d| <= 6h^3, |t| <= 3h")


def det_trace3(blocks: Blocks, d: int, t: int | None,
               lo: int = 0, hi: int | None = None) -> int:
    """#{A in M_3(Z; h) : det A = d, tr A = t}, or det A = d alone when t
    is None, h = blocks.h.

    Iterates the representative top-left 2x2 blocks [lo, hi) of
    orbit_blocks(h, lines=True), weighted by the orbit size, forces a33
    from the trace or, with the trace free, runs it over [-h, h], and counts
    the remaining off-diagonal pair by exact line counts.
    """
    _check_det_trace_args(blocks, d, t)
    h = blocks.h
    b1, b2, w = blocks.border
    per_rep = b1.size * (2 * h + 1 if t is None else 1)
    total = 0
    for size, r11, r12, r21, r22 in _rep_batches(blocks, lo, hi, per_rep):
        if t is None:
            c = np.arange(-h, h + 1, dtype=np.int64)[None, :]
        else:
            c = t - (r11 + r22)
            keep = np.abs(c) <= h
            size, r11, r12, r21, r22 = size[keep], r11[keep], r12[keep], r21[keep], r22[keep]
            c = c[keep, None]
        # (block, a33, border): the line table is read once per (block, border);
        # |g0| <= |d| + h * 2h^2 <= 8h^3
        g0 = (d - c * (r11 * r22 - r12 * r21)[:, None]).astype(np.float64)[:, :, None]
        alpha = (r21[:, None] * b2 - r22[:, None] * b1)[:, None, :]
        beta = (r12[:, None] * b1 - r11[:, None] * b2)[:, None, :]
        cnt = _line_counts(alpha, beta, g0, h, blocks.lines)
        total += int(size @ (cnt.sum(axis=1) @ w))
    return total


def det_trace3_t2(blocks: Blocks, d: int, t1: int, t2: int,
                  lo: int = 0, hi: int | None = None) -> int:
    """#{A in M_3(Z; h) : det A = d, tr A = t1, tr A^2 = t2}, over the
    representatives [lo, hi) as in det_trace3."""
    _check_det_trace_args(blocks, d, t1)
    h = blocks.h
    if abs(t2) > 9 * h * h:
        raise ValueError(f"t2 = {t2} outside |t2| <= 9h^2")
    b1, b2, w = blocks.border
    total = 0
    for size, r11, r12, r21, r22 in _rep_batches(blocks, lo, hi, b1.size):
        c = t1 - (r11 + r22)
        h2 = t2 - (r11 * r11 + 2 * r12 * r21 + r22 * r22) - c * c
        keep = (np.abs(c) <= h) & (h2 % 2 == 0)
        size, r11, r12, r21, r22, c = (size[keep], r11[keep], r12[keep], r21[keep],
                                       r22[keep], c[keep])
        g0 = (d - c * (r11 * r22 - r12 * r21))[:, None]  # |g0| <= 8h^3
        hdot = (h2[keep] // 2)[:, None]  # |hdot| <= (9h^2 + 4h^2 + h^2) / 2 = 7h^2
        alpha = r21[:, None] * b2 - r22[:, None] * b1
        beta = r12[:, None] * b1 - r11[:, None] * b2
        # a solves alpha.a = g0 and b.a = hdot: one point when det2 != 0,
        # a = (n1, n2) / det2 with |n1|, |n2| <= 22h^4 and |det2| <= 4h^3
        det2 = alpha * b2 - beta * b1
        flat = det2 == 0
        den = (det2 + flat).astype(np.float64)
        n1 = (g0 * b2 - beta * hdot).astype(np.float64)
        n2 = (alpha * hdot - g0 * b1).astype(np.float64)
        q1 = _floor_div(n1, den)
        q2 = _floor_div(n2, den)
        one = ~flat & (np.abs(q1) <= h) & (np.abs(q2) <= h)
        one &= np.multiply(q1, den, out=q1) == n1
        one &= np.multiply(q2, den, out=q2) == n2
        total += int(size @ (one @ w))
        # det2 == 0: the two equations share one line, or are inconsistent
        ri, bi = np.nonzero(flat)
        al, be, p1, p2 = alpha[ri, bi], beta[ri, bi], b1[bi], b2[bi]
        g, hd = g0[ri, 0], hdot[ri, 0]
        same = (al * hd == g * p1) & (be * hd == g * p2)
        # alpha = beta = 0 leaves b.a = hdot, with g = 0 forced unless b = 0
        use_b = (al == 0) & (be == 0)
        cnt = _line_counts(np.where(use_b, p1, al), np.where(use_b, p2, be),
                           np.where(use_b, np.abs(g) + np.abs(hd), g), h, blocks.lines)
        total += int((cnt * same * w[bi]) @ size[ri])
    return total


# ---------------------------------------------------------------------------
# n = 3 singular bordered sets


def _nonzero_on_line(p, q, k):
    """#{a != 0 in [-k, k]^2 : p*a1 + q*a2 = 0}, elementwise.  For (p, q) != 0
    the solutions are m*(q, -p)/g with |m| <= k*g/max(|p|, |q|)."""
    p = np.abs(p)
    q = np.abs(q)
    top = np.maximum(p, q)
    zero = top == 0
    # bordered3 has |p|, |q| <= 2k^2, so k gcd(p, q) <= 2k^3 (_floor_div)
    run = _floor_div(k * np.gcd(p, q), top + zero)
    run *= 2
    run += ((2 * k + 1) ** 2 - 1) * zero  # p = q = 0: every a != 0
    return run.astype(np.int64)


def bordered3(blocks: Blocks, lo: int = 0, hi: int | None = None):
    """(#U_3(k), #V_3(k)), k = blocks.h: singular bordered matrices with
    a33 = 0 and nonzero last column block; V additionally has b.a = 0.
    Sums over the representative top-left blocks [lo, hi) of
    orbit_blocks(k), weighted by the orbit size."""
    k = blocks.h
    b1, b2, w = blocks.border
    # V needs b.a = 0 too: with det2 = 0 that line is alpha.a = 0's line
    # when both are nonzero, and all of it when alpha = beta = 0
    v_weight = w * _nonzero_on_line(b1, b2, k)
    u_total = 0
    v_total = 0
    for size, r11, r12, r21, r22 in _rep_batches(blocks, lo, hi, b1.size):
        alpha = r21[:, None] * b2 - r22[:, None] * b1
        beta = r12[:, None] * b1 - r11[:, None] * b2
        u_total += int(size @ (_nonzero_on_line(alpha, beta, k) @ w))
        v_total += int(size @ ((alpha * b2 == beta * b1) @ v_weight))
    return u_total, v_total


# ---------------------------------------------------------------------------
# census of K-bad vectors, t = 3


def _orbit_size(a, b, c):
    """Number of signed permutations of (a, b, c), 0 <= a <= b <= c, c > 0:
    2^(nonzero coordinates) times 6, 3 or 1 distinct orders.  Works on ints
    and, elementwise, on int64 arrays."""
    ties = (a == b) * 1 + (b == c)
    return (6 >> ties) << (1 + (a > 0) + (b > 0))


def _dual_gram(u1, u2, g1, x, y):
    """The factors of u = (u1, u2, u3) that the Gram entries of the basis
    v1 = (u2, -u1, 0)/g1, v2 = (-x u3, -y u3, g1) of u^perp share along a
    row (u1, u2) of points, where u1 x + u2 y = g1 = gcd(u1, u2) != 0:
    (|v1|^2, x^2 + y^2, (u1 y - u2 x)/g1), so that |v2|^2 = (x^2 + y^2)
    u3^2 + g1^2 and v1.v2 = u3 (u1 y - u2 x)/g1.  The rank-2 reduction
    runs on the Gram entries alone: swapping v1 and v2 swaps the norms,
    and v2 -= q v1 maps (n2, d12) to (n2 - q (2 d12 - q n1), d12 - q n1).
    Works on ints and on arrays."""
    return (u1 * u1 + u2 * u2) // (g1 * g1), x * x + y * y, (u1 * y - u2 * x) // g1


def _xgcd_vec(a, b):
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0, elementwise, for
    |a|, |b| < 2^53 and |a x| < 2^63; the line table has 0 <= a, b <= 2h^2,
    the census rows 0 <= a, b <= U."""
    old_r = a.astype(np.int64).copy()
    r = b.astype(np.int64).copy()
    old_s = np.ones_like(old_r)
    s = np.zeros_like(old_r)
    active = r != 0
    while np.any(active):
        # |old_r|, |r| <= max(|a|, |b|) < 2^53 (_floor_div); where r = 0 the
        # step is masked, so it divides by 1 there
        q = _floor_div(old_r, r + ~active).astype(np.int64)
        new_r = old_r - q * r
        old_r = np.where(active, r, old_r)
        r = np.where(active, new_r, r)
        new_s = old_s - q * s
        old_s = np.where(active, s, old_s)
        s = np.where(active, new_s, s)
        active = r != 0
    neg = old_r < 0
    g = np.where(neg, -old_r, old_r)
    x = np.where(neg, -old_s, old_s)
    # recover y from a*x + b*y = g (avoids tracking the second coefficient)
    y = np.zeros_like(g)
    nz = b != 0
    y[nz] = (g[nz] - a[nz] * x[nz]) // b[nz]
    return g, x, y


def _isqrt(q: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(q)) for q >= 0, math.isqrt on Python ints.
    On int64 (q < 2^62) the correctly rounded float sqrt of q is never
    below isqrt(q) and at most one above it, so one step down corrects it."""
    if q.dtype == object:
        return np.array([math.isqrt(v) for v in q], dtype=object)
    r = np.sqrt(q.astype(np.float64)).astype(np.int64)
    r -= r * r > q
    return r


def _ranges(first, counts):
    """The runs first[i], first[i] + 1, ..., first[i] + counts[i] - 1, one
    after another, as one array (counts >= 1)."""
    shift = np.repeat(np.cumsum(counts) - counts - first, counts)
    return np.arange(shift.size) - shift


def _domain_blocks(usq, lo, hi):
    """Points (a, b, c) with 0 <= a <= b <= c, a^2 + b^2 + c^2 <= usq and a in
    [lo, hi), in (a, b, c) order: whole (a, b) rows, packed across planes
    into blocks of at most _BATCH points (a row has at most isqrt(usq) + 1).

    The rows are listed in closed form, b = a..isqrt((usq - a^2) // 2) with
    c = b..isqrt(usq - a^2 - b^2), for groups of planes of at most _BATCH
    rows (or one plane), so the row arrays stay O(_BATCH).  Blocks are cut
    greedily: while the rows not yet yielded hold _BATCH points or more,
    the next block is the longest run of them with at most _BATCH points
    (at least one row); the rest is the last block."""

    def points(ra, rb, rn):
        return np.repeat(ra, rn), np.repeat(rb, rn), _ranges(rb, rn)

    planes = np.arange(lo, hi, dtype=np.int64)
    nrows = _isqrt((usq - planes * planes) // 2) - planes + 1
    rows_before = np.concatenate(([0], np.cumsum(nrows)))
    ra = rb = rn = np.empty(0, dtype=np.int64)
    g0 = 0
    while g0 < planes.size:
        g1 = int(np.searchsorted(rows_before, rows_before[g0] + _BATCH, side="right"))
        g1 = max(g0 + 1, g1 - 1)  # planes g0..g1-1: at most _BATCH rows, or one plane
        a = np.repeat(planes[g0:g1], nrows[g0:g1])
        b = _ranges(planes[g0:g1], nrows[g0:g1])
        ra, rb = np.concatenate((ra, a)), np.concatenate((rb, b))
        rn = np.concatenate((rn, _isqrt(usq - a * a - b * b) - b + 1))
        cum = np.cumsum(rn)
        start, base = 0, 0
        while cum[-1] - base >= _BATCH:
            end = max(start + 1, int(np.searchsorted(cum, base + _BATCH, side="right")))
            yield points(ra[start:end], rb[start:end], rn[start:end])
            start, base = end, cum[end - 1]
        ra, rb, rn = ra[start:], rb[start:], rn[start:]
        g0 = g1
    if rn.size:
        yield points(ra, rb, rn)


def _census3_block(u1, u2, u3, ksq):
    """(weighted K-bad count, weighted sums of |u|^-3, one per (a, b) row
    with a K-bad point, in row order) over one block of domain points; as a
    function, so one block's scratch is freed before the next block is
    built.  The extended gcd and the Gram factors that a row (u1, u2)
    shares (_dual_gram) are taken once per row and repeated over its
    points, and u is primitive when gcd(g1, u3) = 1.  A row never splits
    across blocks (see _domain_blocks), and np.add.reduceat sums each row's
    terms by a rule that reads only those terms, so each row sum is the
    same float however the rows are packed into blocks or shards."""
    heads = np.flatnonzero(np.r_[True, (u1[1:] != u1[:-1]) | (u2[1:] != u2[:-1])])
    r1, r2 = u1[heads], u2[heads]
    row = np.repeat(np.arange(heads.size), np.diff(np.r_[heads, u1.size]))
    g1, x, y = _xgcd_vec(r1, r2)
    deg = g1 == 0  # the row (0, 0): only u = (0, 0, 1) is primitive, dual Z^2
    n1, xy, cross = _dual_gram(r1, r2, g1 + deg, x, y)
    n1[deg], xy[deg], cross[deg] = 1, 1, 0  # Gram (1, 1, 0), as g1 = 0 there
    keep = np.gcd(g1[row], u3) == 1
    row, u3 = row[keep], u3[keep]
    g = g1[row]
    n1, n2, d12 = n1[row], xy[row] * u3 * u3 + g * g, cross[row] * u3
    for _ in range(128):
        n1, n2 = np.minimum(n1, n2), np.maximum(n1, n2, out=n2)
        # |2 d12 + n1| <= 4U^3 + U^2 < 2^53 (_floor_div); n2 may reach 2^55,
        # so the update below stays in int64
        q = _floor_div(2 * d12 + n1, 2 * n1).astype(np.int64)
        if not np.any(q):
            break
        n2 -= q * (2 * d12 - q * n1)
        d12 -= q * n1
    else:  # pragma: no cover - reduction always converges long before
        raise RuntimeError("rank-2 reduction failed to converge")
    bad = n2 > ksq
    row, u3 = row[bad], u3[bad]
    if not row.size:
        return 0, np.empty(0)
    w = _orbit_size(r1[row], r2[row], u3)
    nsq = (r1 * r1 + r2 * r2)[row] + u3 * u3
    starts = np.flatnonzero(row[1:] != row[:-1]) + 1
    return int(w.sum()), np.add.reduceat(w * nsq.astype(np.float64)**-1.5, np.r_[0, starts])


_CENSUS_U_MAX = 10_000  # norms in the rank-2 reduction stay below 2^55


def census_planes(usq: int) -> int:
    """Length of census3's shard axis: the smallest coordinate a of a point
    0 <= a <= b <= c with a^2 + b^2 + c^2 <= usq is at most isqrt(usq // 3)."""
    return math.isqrt(usq // 3) + 1


def census3(uf: int, usq: int, ksq: int, lo: int = 0, hi: int | None = None):
    """Count primitive u in Z^3 with |u|^2 <= usq whose dual second minimum
    squared exceeds ksq; also the sum of |u|^-3 over them, as a float64
    array of partial sums, one per (a, b) row with a K-bad point.

    Signed census: u and -u both count.  |u|, primitivity and the minima of
    u^perp are invariant under the 48 signed permutations of coordinates,
    so only the representatives 0 <= a <= b <= c are reduced, and each
    K-bad one adds its orbit size (see _orbit_size) to the count and that
    weight times |u|^-3 to its row's sum.  uf = floor(U) with
    usq < (uf + 1)^2; [lo, hi) shards the smallest coordinate a (full range
    is [0, census_planes(usq))).  Each row sum does not depend on [lo, hi)
    or on the block size, so math.fsum over the row sums of any split of
    the axis is the same float: the exact sum of the row sums, rounded once.
    """
    if hi is None:
        hi = census_planes(usq)
    _check_range("U", uf, _CENSUS_U_MAX)
    _check_range("usq", usq, (uf + 1) ** 2 - 1)
    _check_span(lo, hi, census_planes(usq))
    count = 0
    sums = [np.empty(0)]
    for block in _domain_blocks(usq, lo, hi):
        c, s = _census3_block(*block, ksq)
        count += c
        sums.append(s)
    return count, np.concatenate(sums)
