"""Hot counting loops in numpy, vectorised over bounded batches of ranks.

All kernels work on int64, and each checks at entry that its inputs lie in
the range where its intermediates provably fit and its scratch stays
bounded, raising ValueError otherwise: h <= 2048 for the pair tables,
h <= 63 for n3_stats (ranks below (2h+1)^9 < 2^63), h <= 4 for
charpoly3_tally (a dense tally of (6h+1)(12h^2+1)(12h^3+1) keys, 30 MB at
h = 4), h <= 20 for det_trace3/det_trace3_t2 (a line table of (2h^2+1)^2
entries, 26 MB at h = 20), k <= 127 for bordered3 (one rank's border
vectors fit a batch) and U <= 10^4 for census3 (norms in the rank-2
reduction stay below 2^55).  Infeasible targets count 0.  Shard ranges
must lie inside the kernel's rank range.  Most kernels shard their
outermost enumeration digit; charpoly2_scan shards the traces t <= 0
(A -> -A gives the rest); census3 scans one representative
0 <= a <= b <= c of each signed-permutation orbit, weighted by the orbit
size, and shards the smallest coordinate a.  det_trace3, det_trace3_t2,
bordered3 and charpoly3_tally likewise count a rank only when its top-left
2x2 block is the smallest-rank member of its orbit under a group of order 8
(see _orbit_weight), weighted by the orbit size; their shard axes stay the
(2h+1)^4 blocks and the (2h+1)^6 top row pairs, and any split of an axis
sums to the whole.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def current_backend() -> str:
    """The kernel implementation, recorded in manifests and census methods."""
    return "numpy"


def run_parts(fn, total_range: int, parts: int, threads: int) -> list:
    """Apply fn(lo, hi) over `parts` contiguous ranges of [0, total_range).

    Part boundaries depend only on `parts`, and results come back in part
    order, so the merged output is independent of the thread count.  At
    most min(threads, parts, os.cpu_count()) worker threads run.
    """
    for name, value in (("parts", parts), ("threads", threads)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
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


# ---------------------------------------------------------------------------
# shared small helpers


def pair_count_table(h: int) -> np.ndarray:
    """table[p] = #{1 <= x, y <= h : x*y = p} for 0 <= p <= h*h."""
    if h < 0:
        raise ValueError("h must be >= 0")
    r = np.arange(1, h + 1, dtype=np.int64)
    return np.bincount(np.multiply.outer(r, r).ravel(), minlength=h * h + 1)


def full_pair_count_array(h: int, halo: int) -> np.ndarray:
    """counts of {(x,y) in [-h,h]^2 : x*y = D} indexed by D + halo.

    Covers D in [-halo, halo]; zero outside the feasible band |D| <= h*h.
    """
    pos = pair_count_table(h)
    out = np.zeros(2 * halo + 1, dtype=np.int64)
    out[halo] = 4 * h + 1
    top = min(h * h, halo)
    if top >= 1:
        out[halo + 1 : halo + top + 1] = 2 * pos[1 : top + 1]
        out[halo - top : halo] = (2 * pos[1 : top + 1])[::-1]
    return out


_BATCH = 1 << 15  # items per vectorised step


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


def _orbit_weight(r11, r12, r21, r22, side):
    """Orbit size of each top-left 2x2 block that has the smallest rank in
    its orbit, 0 for every other block.

    The orbits are those of the group of order 8 generated by
    (r11, -r12, -r21, r22) (conjugation by diag(1, -1, 1)), (r22, r21, r12,
    r11) (conjugation by the swap of the first two coordinates) and
    (r11, r21, r12, r22) (A -> A^T).  Each keeps det, tr A and tr A^2 of a
    3x3 matrix with that block and maps its other entries bijectively onto
    the box.  The key ((e side + c) side + b) side + a of a block (a, b, c, e)
    orders blocks as their ranks do (signed digits in base side = 2h+1, r22
    most significant); the eight images have the keys outer +- inner, with
    outer from the diagonal and inner from the off-diagonal pair.  The orbit
    size is 8 over the number of images equal to the block."""
    outer = (r22 * side * side * side + r11, r11 * side * side * side + r22)
    inner = ((r21 * side + r12) * side, (r12 * side + r21) * side)
    own = outer[0] + inner[0]
    least = np.ones(own.shape, dtype=bool)
    fixed = np.zeros_like(own)
    for diag, off in ((0, 0), (0, 1), (1, 1), (1, 0)):
        for image in (outer[diag] + inner[off], outer[diag] - inner[off]):
            least &= own <= image
            fixed += own == image
    return np.where(least, 8 // fixed, 0)


def _orbit_batches(lo, hi, h, ndigits, block, step):
    """Pairs (orbit size, digits as _decode_block returns them) over the
    ranks in [lo, hi) whose top-left block, the digits at indices `block` =
    (r11, r12, r21, r22), is its orbit's representative.

    Ranks are screened in chunks of _BATCH.  The representatives are
    re-batched by orbit size, so a batch has one size and at most `step`
    ranks, and only the last batch of each size holds fewer."""
    held = {size: [np.empty(0, dtype=np.int64)] * ndigits for size in (1, 2, 4, 8)}
    for start in range(lo, hi, _BATCH):
        digits = _decode_block(start, min(start + _BATCH, hi), h, ndigits)
        sizes = _orbit_weight(*(digits[i] for i in block), 2 * h + 1)
        for size, old in held.items():
            keep = sizes == size
            new = [np.concatenate([x, y[keep]]) for x, y in zip(old, digits)]
            while new[0].size >= step:
                yield size, [x[:step] for x in new]
                new = [x[step:] for x in new]
            held[size] = new
    for size, rest in held.items():
        if rest[0].size:
            yield size, rest


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
    inside [-2h, 0] (the default).  The total over the full range is
    (2h+1)^4; ties for the max resolve to the smallest (t, d) in scan
    order, which is also the smallest over all t, since -t comes before t.
    """
    if h > 2048:
        raise ValueError("pair table limited to h <= 2048")
    if lo_t is None:
        lo_t = -2 * h
    if hi_t is None:
        hi_t = 1
    _check_span(lo_t + 2 * h, hi_t + 2 * h, 2 * h + 1)
    halo = 3 * h * h + 1
    full_counts = full_pair_count_array(h, halo)
    total = 0
    best_c = -1
    best_t = 0
    best_d = 0
    hh2 = 2 * h * h
    width = 2 * hh2 + 1
    # cnt[j] (d = j - hh2) sums full_counts[p + hh2 + halo - j] over the
    # products p = a*(t - a), a in [-h, t + h]: a and t - a give one p, so
    # one forward slice of the reversed table per a <= t/2, doubled
    rev = full_counts[::-1].copy()
    top = full_counts.size - 1 - hh2 - halo
    cnt = np.empty(width, dtype=np.int64)
    for tv in range(lo_t, hi_t):
        cnt[:] = 0
        for a in range(-h, tv // 2 + 1):
            s = top - a * (tv - a)
            cnt += rev[s : s + width]
        cnt *= 2
        if tv % 2 == 0:  # the last a, t/2, is its own partner
            cnt -= rev[s : s + width]
        total += (1 if tv == 0 else 2) * int(cnt.sum())
        j = int(np.argmax(cnt))
        if int(cnt[j]) > best_c:
            best_c = int(cnt[j])
            best_t = tv
            best_d = j - hh2
    return total, best_t, best_d, best_c


def charpoly2_count(h: int, t: int, d: int) -> int:
    """Fast exact R_2(h; X^2 - tX + d) via the divisor pair table; 0 for
    an infeasible (t, d)."""
    if h > 2048:
        raise ValueError("pair table limited to h <= 2048")
    hh = h * h
    full = full_pair_count_array(h, hh)  # indexed by p + hh, p in [-hh, hh]
    a = np.arange(max(-h, t - h), min(h, t + h) + 1, dtype=np.int64)
    q = a * (t - a) - d  # the forced product a12*a21
    return int(full[q[np.abs(q) <= hh] + hh].sum())


def det2_count(h: int, d: int) -> int:
    """#{A in M_2(Z; h) : det A = d} via pair-count convolution."""
    if h > 2048:
        raise ValueError("pair table limited to h <= 2048")
    hh = h * h
    if abs(d) > 2 * hh:
        return 0
    full = full_pair_count_array(h, hh)  # indexed by p + hh, p in [-hh, hh]
    # det = p - q with p = a11*a22, q = a12*a21: sum_p full(p) * full(p - d),
    # which is even in d
    d = abs(d)
    return int(np.dot(full[d:], full[: full.size - d]))


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


def charpoly3_tally(h: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """tally[trace + 3h, mid + 6h^2, det + 6h^3] over the A in M_3(Z; h)
    whose top two rows have rank in [lo, hi) of (2h+1)^6, the shard axis.

    The orbit maps of the top-left block (see _orbit_weight) extend to
    conjugations and the transpose of A, which keep its charpoly and map the
    matrices over one block onto those over its image.  So only the row
    pairs whose block is a representative are tallied, each times its orbit
    size: one exact int64 bincount per batch of one size, scaled in place.
    |trace| <= 3h, |mid| <= 6h^2 and |det| <= 6h^3, so the flat key
    ((trace + 3h) km + mid + 6h^2) kd + det + 6h^3 (km = 12h^2 + 1,
    kd = 12h^3 + 1) lies in [0, (6h+1) km kd), far below 2^63.  It is an
    affine form of the last row like each stat (see _row_pair_forms), so a
    batch of row pairs is one int64 matmul against all (2h+1)^3 last rows.
    """
    rows = (2 * h + 1) ** 3
    if hi is None:
        hi = rows * rows
    _check_range("h", h, _TALLY_H_MAX)
    _check_span(lo, hi, rows * rows)
    km, kd = 12 * h * h + 1, 12 * h**3 + 1
    last = _last_rows(h)
    tally = np.zeros((6 * h + 1) * km * kd, dtype=np.int64)
    step = max(1, _TALLY_BLOCK // rows)
    for size, digits in _orbit_batches(lo, hi, h, 6, (5, 4, 2, 1), step):
        tr, mid, dt = _row_pair_forms(*digits)
        w = (tr * km + mid) * kd + dt
        w[:, 3] += (3 * h * km + 6 * h * h) * kd + 6 * h**3
        part = np.bincount((w @ last).ravel(), minlength=tally.size)
        part *= size
        tally += part
    return tally.reshape(6 * h + 1, km, kd)


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
# block R per orbit of order 8 (see _orbit_weight) and weight its count by
# the orbit size: the maps keep det, tr A and tr A^2 and permute the border
# pairs (a, b), the transpose swapping a and b.  For bordered3 the count of
# pairs with a != 0 is the count of all pairs less the (2k+1)^2 with a = 0,
# so the swap keeps it too.

_LINE_H_MAX = 20  # the line table has (2h^2+1)^2 entries: 26 MB at h = 20
_BORDER_K_MAX = 127  # one rank's (2k+1)^2 border vectors fit a batch


def _half_border(h):
    """Border vectors b in [-h, h]^2 up to sign, and their multiplicity."""
    rng = np.arange(-h, h + 1, dtype=np.int64)
    b1 = np.repeat(rng, 2 * h + 1)
    b2 = np.tile(rng, 2 * h + 1)
    keep = (b1 > 0) | ((b1 == 0) & (b2 >= 0))
    b1, b2 = b1[keep], b2[keep]
    return b1, b2, np.where((b1 == 0) & (b2 == 0), 1, 2)


def _block_batches(lo, hi, h, per_rank):
    """(orbit size, representative 2x2 blocks (r11, r12, r21, r22)) of
    [lo, hi), in batches of one size and at most _BATCH // per_rank blocks."""
    return _orbit_batches(lo, hi, h, 4, (0, 1, 2, 3), max(1, _BATCH // per_rank))


def _line_table(h):
    """Extended gcd of every (A, B) in [0, 2h^2]^2, keyed A*(2h^2+1) + B:
    (g, x, y, A/g, B/g) with A*x + B*y = g, computed once per kernel call."""
    width = 2 * h * h + 1
    a = np.repeat(np.arange(width, dtype=np.int64), width)
    b = np.tile(np.arange(width, dtype=np.int64), width)
    parts = [_xgcd_vec(a[i : i + _BATCH], b[i : i + _BATCH])
             for i in range(0, a.size, _BATCH)]
    g, x, y = (np.concatenate(p) for p in zip(*parts))
    gs = g + (g == 0)
    return g, x, y, a // gs, b // gs, width


def _line_counts(alpha, beta, g0, h, table):
    """#{(x, y) in [-h, h]^2 : alpha*x + beta*y = g0}, elementwise, in
    closed form from the extended gcd in `table` (see _line_table).  The
    box is symmetric in each coordinate, so the count depends on |alpha|,
    |beta| only."""
    g_t, x_t, y_t, sa_t, sb_t, width = table
    key = np.abs(alpha) * width + np.abs(beta)
    g = g_t[key]
    zero = g == 0
    q, r = np.divmod(g0, g + zero)
    # solutions (x q + m sb, y q - m sa) for integer m
    xq = x_t[key] * q
    yq = y_t[key] * q
    sa = sa_t[key]
    sb = sb_t[key]
    free = (sa == 0) | (sb == 0)  # one coordinate does not move with m
    sa = sa + (sa == 0)
    sb = sb + (sb == 0)
    lo = np.maximum(-((h + xq) // sb), -((h - yq) // sa))
    hi = np.minimum((h - xq) // sb, (h + yq) // sa)
    side = 2 * h + 1
    cnt = np.where(
        free,
        np.where(zero, side * side * (q == 0), side * (np.abs(q) <= h)),
        np.maximum(hi - lo + 1, 0),
    )
    return cnt * (r == 0)


def _check_det_trace_args(h, d, t):
    _check_range("h", h, _LINE_H_MAX)
    if abs(d) > 6 * h**3 or (t is not None and abs(t) > 3 * h):
        raise ValueError(f"(d, t) = ({d}, {t}) outside |d| <= 6h^3, |t| <= 3h")


def det_trace3(h: int, d: int, t: int | None, lo: int = 0, hi: int | None = None) -> int:
    """#{A in M_3(Z; h) : det A = d, tr A = t}, or det A = d alone when t
    is None.

    Iterates one top-left 2x2 block per orbit, weighted by the orbit size
    (outer rank range [lo, hi) over (2h+1)^4 for sharding), forces a33 from
    the trace or, with the trace free, runs it over [-h, h], and counts the
    remaining off-diagonal pair by exact line counts.
    """
    if hi is None:
        hi = (2 * h + 1) ** 4
    _check_det_trace_args(h, d, t)
    _check_span(lo, hi, (2 * h + 1) ** 4)
    b1, b2, w = _half_border(h)
    table = _line_table(h)
    per_rank = b1.size * (2 * h + 1 if t is None else 1)
    total = 0
    for size, (r11, r12, r21, r22) in _block_batches(lo, hi, h, per_rank):
        if t is None:
            c = np.arange(-h, h + 1, dtype=np.int64)[None, :]
        else:
            c = t - (r11 + r22)
            keep = np.abs(c) <= h
            r11, r12, r21, r22, c = r11[keep], r12[keep], r21[keep], r22[keep], c[keep, None]
        # (block, a33, border): the line table is read once per (block, border)
        g0 = (d - c * (r11 * r22 - r12 * r21)[:, None])[:, :, None]
        alpha = (r21[:, None] * b2 - r22[:, None] * b1)[:, None, :]
        beta = (r12[:, None] * b1 - r11[:, None] * b2)[:, None, :]
        cnt = _line_counts(alpha, beta, g0, h, table)
        total += size * int(cnt.sum(axis=(0, 1)) @ w)
    return total


def det_trace3_t2(h: int, d: int, t1: int, t2: int,
                  lo: int = 0, hi: int | None = None) -> int:
    """#{A in M_3(Z; h) : det A = d, tr A = t1, tr A^2 = t2}."""
    if hi is None:
        hi = (2 * h + 1) ** 4
    _check_det_trace_args(h, d, t1)
    if abs(t2) > 9 * h * h:
        raise ValueError(f"t2 = {t2} outside |t2| <= 9h^2")
    _check_span(lo, hi, (2 * h + 1) ** 4)
    b1, b2, w = _half_border(h)
    table = _line_table(h)
    total = 0
    for size, (r11, r12, r21, r22) in _block_batches(lo, hi, h, b1.size):
        c = t1 - (r11 + r22)
        h2 = t2 - (r11 * r11 + 2 * r12 * r21 + r22 * r22) - c * c
        keep = (np.abs(c) <= h) & (h2 % 2 == 0)
        r11, r12, r21, r22, c = r11[keep], r12[keep], r21[keep], r22[keep], c[keep]
        g0 = (d - c * (r11 * r22 - r12 * r21))[:, None]
        hdot = (h2[keep] // 2)[:, None]
        alpha = r21[:, None] * b2 - r22[:, None] * b1
        beta = r12[:, None] * b1 - r11[:, None] * b2
        # a solves alpha.a = g0 and b.a = hdot: one point when det2 != 0
        det2 = alpha * b2 - beta * b1
        flat = det2 == 0
        q1, m1 = np.divmod(g0 * b2 - beta * hdot, det2 + flat)
        q2, m2 = np.divmod(alpha * hdot - g0 * b1, det2 + flat)
        one = ~flat & (m1 == 0) & (m2 == 0) & (np.abs(q1) <= h) & (np.abs(q2) <= h)
        total += size * int(np.count_nonzero(one, axis=0) @ w)
        # det2 == 0: the two equations share one line, or are inconsistent
        ri, bi = np.nonzero(flat)
        al, be, p1, p2 = alpha[ri, bi], beta[ri, bi], b1[bi], b2[bi]
        g, hd = g0[ri, 0], hdot[ri, 0]
        same = (al * hd == g * p1) & (be * hd == g * p2)
        # alpha = beta = 0 leaves b.a = hdot, with g = 0 forced unless b = 0
        use_b = (al == 0) & (be == 0)
        cnt = _line_counts(np.where(use_b, p1, al), np.where(use_b, p2, be),
                           np.where(use_b, np.abs(g) + np.abs(hd), g), h, table)
        total += size * int((cnt * same) @ w[bi])
    return total


# ---------------------------------------------------------------------------
# n = 3 singular bordered sets


def _nonzero_on_line(p, q, k):
    """#{a != 0 in [-k, k]^2 : p*a1 + q*a2 = 0}, elementwise.  For (p, q) != 0
    the solutions are m*(q, -p)/g with |m| <= k*g/max(|p|, |q|)."""
    p = np.abs(p)
    q = np.abs(q)
    top = np.maximum(p, q)
    return np.where(top == 0, (2 * k + 1) ** 2 - 1,
                    2 * ((k * np.gcd(p, q)) // (top + (top == 0))))


def bordered3(k: int, lo: int = 0, hi: int | None = None):
    """(#U_3(k), #V_3(k)): singular bordered matrices with a33 = 0 and
    nonzero last column block; V additionally has b.a = 0.  One top-left
    block per orbit, weighted by the orbit size; [lo, hi) shards the
    (2k+1)^4 blocks."""
    if hi is None:
        hi = (2 * k + 1) ** 4
    _check_range("k", k, _BORDER_K_MAX)
    _check_span(lo, hi, (2 * k + 1) ** 4)
    b1, b2, w = _half_border(k)
    # V needs b.a = 0 too: with det2 = 0 that line is alpha.a = 0's line
    # when both are nonzero, and all of it when alpha = beta = 0
    v_weight = w * _nonzero_on_line(b1, b2, k)
    u_total = 0
    v_total = 0
    for size, (r11, r12, r21, r22) in _block_batches(lo, hi, k, b1.size):
        alpha = r21[:, None] * b2 - r22[:, None] * b1
        beta = r12[:, None] * b1 - r11[:, None] * b2
        u_total += size * int(_nonzero_on_line(alpha, beta, k).sum(axis=0) @ w)
        v_total += size * int(np.count_nonzero(alpha * b2 == beta * b1, axis=0) @ v_weight)
    return u_total, v_total


# ---------------------------------------------------------------------------
# census of K-bad vectors, t = 3


def _orbit_size(a, b, c):
    """Number of signed permutations of (a, b, c), 0 <= a <= b <= c, c > 0:
    2^(nonzero coordinates) times 6, 3 or 1 distinct orders.  Works on ints
    and, elementwise, on int64 arrays."""
    ties = (a == b) * 1 + (b == c)
    return (6 >> ties) << (1 + (a > 0) + (b > 0))


def _dual_gram(u1, u2, u3, g1, x, y):
    """Gram entries (|v1|^2, |v2|^2, v1.v2) of the basis v1 = (u2, -u1, 0)/g1,
    v2 = (-x u3, -y u3, g1) of u^perp, where u1 x + u2 y = g1 = gcd(u1, u2)
    != 0.  The rank-2 reduction runs on these alone: swapping v1 and v2
    swaps the norms, and v2 -= q v1 maps (n2, d12) to
    (n2 - q (2 d12 - q n1), d12 - q n1).  Works on ints and on arrays."""
    return ((u1 * u1 + u2 * u2) // (g1 * g1), (x * x + y * y) * u3 * u3 + g1 * g1,
            u3 * ((u1 * y - u2 * x) // g1))


def _xgcd_vec(a, b):
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0, elementwise."""
    old_r = a.astype(np.int64).copy()
    r = b.astype(np.int64).copy()
    old_s = np.ones_like(old_r)
    s = np.zeros_like(old_r)
    active = r != 0
    while np.any(active):
        q = np.zeros_like(old_r)
        np.floor_divide(old_r, r, out=q, where=active)
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


def _domain_blocks(usq, lo, hi):
    """Points (a, b, c) with 0 <= a <= b <= c, a^2 + b^2 + c^2 <= usq and a in
    [lo, hi), in (a, b, c) order: whole (a, b) rows, packed across planes
    into blocks of at most _BATCH points (a row has at most isqrt(usq) + 1)."""

    def points(ra, rb, rn):
        first = np.repeat(np.cumsum(rn) - rn, rn)
        b = np.repeat(rb, rn)
        return np.repeat(ra, rn), b, b + (np.arange(first.size) - first)

    ra = rb = rn = np.empty(0, dtype=np.int64)
    for a in range(lo, hi):
        rest = usq - a * a
        b = np.arange(a, math.isqrt(rest // 2) + 1, dtype=np.int64)
        ra = np.concatenate([ra, np.full_like(b, a)])
        rb = np.concatenate([rb, b])
        rn = np.concatenate([rn, _isqrt(rest - b * b) - b + 1])
        cum = np.cumsum(rn)
        start, base = 0, 0
        while cum[-1] - base >= _BATCH:
            end = max(start + 1, int(np.searchsorted(cum, base + _BATCH, side="right")))
            yield points(ra[start:end], rb[start:end], rn[start:end])
            start, base = end, cum[end - 1]
        ra, rb, rn = ra[start:], rb[start:], rn[start:]
    if rn.size:
        yield points(ra, rb, rn)


def _census3_block(u1, u2, u3, ksq):
    """(weighted K-bad count, weighted sum of |u|^-3) over one block of
    domain points; as a function, so one block's scratch is freed before
    the next block is built."""
    keep = np.gcd(np.gcd(u1, u2), u3) == 1
    u1, u2, u3 = u1[keep], u2[keep], u3[keep]
    g1, x, y = _xgcd_vec(u1, u2)
    deg = g1 == 0  # u = (0, 0, 1): dual is Z^2, Gram (1, 1, 0)
    n1, n2, d12 = _dual_gram(u1, u2, u3, g1 + deg, x, y)
    n1[deg] = n2[deg] = 1
    d12[deg] = 0
    for _ in range(128):
        n1, n2 = np.minimum(n1, n2), np.maximum(n1, n2)
        q = (2 * d12 + n1) // (2 * n1)
        if not np.any(q):
            break
        n2 -= q * (2 * d12 - q * n1)
        d12 -= q * n1
    else:  # pragma: no cover - reduction always converges long before
        raise RuntimeError("rank-2 reduction failed to converge")
    bad = n2 > ksq
    u1, u2, u3 = u1[bad], u2[bad], u3[bad]
    w = _orbit_size(u1, u2, u3)
    nsq = (u1 * u1 + u2 * u2 + u3 * u3).astype(np.float64)
    return int(w.sum()), float((w * nsq**-1.5).sum())


def census_planes(usq: int) -> int:
    """Length of census3's shard axis: the smallest coordinate a of a point
    0 <= a <= b <= c with a^2 + b^2 + c^2 <= usq is at most isqrt(usq // 3)."""
    return math.isqrt(usq // 3) + 1


def census3(uf: int, usq: int, ksq: int, lo: int = 0, hi: int | None = None):
    """Count primitive u in Z^3 with |u|^2 <= usq whose dual second minimum
    squared exceeds ksq; also the sum of |u|^-3 over them.

    Signed census: u and -u both count.  |u|, primitivity and the minima of
    u^perp are invariant under the 48 signed permutations of coordinates,
    so only the representatives 0 <= a <= b <= c are reduced, and each
    K-bad one adds its orbit size (see _orbit_size) to the count and that
    weight times |u|^-3 to the sum.  uf = floor(U) with usq < (uf + 1)^2;
    [lo, hi) shards the smallest coordinate a (full range is
    [0, census_planes(usq))).
    """
    if hi is None:
        hi = census_planes(usq)
    _check_range("U", uf, 10_000)
    _check_range("usq", usq, (uf + 1) ** 2 - 1)
    _check_span(lo, hi, census_planes(usq))
    count = 0
    inv_sum = 0.0
    for block in _domain_blocks(usq, lo, hi):
        c, s = _census3_block(*block, ksq)
        count += c
        inv_sum += s
    return count, inv_sum
