"""Kernels and their closed forms against plain scans, brute force and
independent counting routes."""

import importlib
import math
import pkgutil
import random
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import permutations, product

import numpy as np
import pytest

import matstat
from helpers import census3_per_point, charpoly2_scan_int64, domain_blocks_per_plane
from matstat import cli, clear_caches, counting, kernels, numtheory


def test_pair_count_table():
    for h in (0, 1, 2, 5, 9):
        table = kernels.pair_count_table(h)
        assert len(table) == h * h + 1
        for p in range(0, h * h + 1):
            truth = sum(
                1
                for x in range(1, h + 1)
                for y in range(1, h + 1)
                if x * y == p
            )
            assert table[p] == truth


def test_full_pair_count_array():
    # the kept n = 2 pair table over its whole width |q| <= 2h^2
    for h in (1, 2, 4):
        top = 2 * h * h
        arr = kernels._pair_table(h)
        assert arr.dtype == np.int32 and arr.size == 2 * top + 1
        for dv in range(-top, top + 1):
            truth = sum(
                1
                for x in range(-h, h + 1)
                for y in range(-h, h + 1)
                if x * y == dv
            )
            assert arr[dv + top] == truth


def test_count_line_against_scan():
    # _line_counts on seeded arrays, coefficients over the whole table
    # [-2h^2, 2h^2] with zeros and small values drawn more often
    rng = np.random.default_rng(0x5EED)
    for h in (1, 2, 3, 5):
        table = kernels._line_table(h)
        top = 2 * h * h
        coef = np.concatenate([rng.integers(-top, top + 1, 200), rng.integers(-2, 3, 200)])
        alpha, beta = rng.permutation(coef), rng.permutation(coef)
        g0 = rng.integers(-3 * h, 3 * h + 1, coef.size)
        g0[::7] = 0
        got = kernels._line_counts(alpha, beta, g0, h, table)
        x, y = np.meshgrid(np.arange(-h, h + 1), np.arange(-h, h + 1))
        want = [int(np.count_nonzero(a * x + b * y == g))
                for a, b, g in zip(alpha.tolist(), beta.tolist(), g0.tolist())]
        assert got.tolist() == want, h


def test_line_table_is_an_extended_gcd():
    for h in (1, 3):
        g, x, y, sa, sb, width = kernels._line_table(h)
        a, b = np.divmod(np.arange(width * width), width)
        assert g.tolist() == [math.gcd(p, q) for p, q in zip(a.tolist(), b.tolist())]
        assert np.array_equal(a * x + b * y, g)
        nz = g > 0
        assert np.array_equal(sa[nz] * g[nz], a[nz]) and np.array_equal(sb[nz] * g[nz], b[nz])


def test_nonzero_on_line_against_scan():
    rng = np.random.default_rng(0x0DD)
    for k in (1, 2, 4):
        p = np.concatenate([rng.integers(-4 * k * k, 4 * k * k + 1, 150), rng.integers(-2, 3, 50)])
        q = rng.permutation(p)
        got = kernels._nonzero_on_line(p, q, k)
        x, y = np.meshgrid(np.arange(-k, k + 1), np.arange(-k, k + 1))
        nonzero = (x != 0) | (y != 0)
        want = [int(np.count_nonzero(nonzero & (a * x + b * y == 0)))
                for a, b in zip(p.tolist(), q.tolist())]
        assert got.tolist() == want, k


def test_xgcd_properties():
    # _xgcd_vec elementwise against math.gcd, signs and zeros included
    rng = np.random.default_rng(0x9EED)
    a = np.concatenate([rng.integers(-50, 51, 300), rng.integers(-2**40, 2**40, 100), [0, 0, 7]])
    b = np.concatenate([rng.integers(-50, 51, 300), rng.integers(-2**20, 2**20, 100), [0, -5, 0]])
    g, x, y = kernels._xgcd_vec(a, b)
    assert g.tolist() == [math.gcd(p, q) for p, q in zip(a.tolist(), b.tolist())]
    lhs = [p * s + q * t for p, q, s, t in zip(*(v.tolist() for v in (a, b, x, y)))]
    assert lhs == g.tolist()


def _brute_n2(h, d, t=None):
    cnt = 0
    for a, b, c, e in product(range(-h, h + 1), repeat=4):
        if a * e - b * c != d:
            continue
        if t is not None and a + e != t:
            continue
        cnt += 1
    return cnt


def _brute_n2_hist(h):
    """{(t, d): count} over all of M_2(Z; h)."""
    entries = product(range(-h, h + 1), repeat=4)
    return Counter((a + e, a * e - b * c) for a, b, c, e in entries)


def test_n2_count_matches_brute():
    rng = random.Random(0x1111)
    for _ in range(25):
        h = rng.randint(1, 4)
        d = rng.randint(-2 * h * h, 2 * h * h)
        for t in (None, rng.randint(-2 * h, 2 * h)):
            assert kernels.n2_count(h, d, t) == _brute_n2(h, d, t), (h, d, t)


def test_charpoly2_scan_matches_brute_histogram():
    # the scan and max_charpoly_count(2) against the brute (t, d) histogram:
    # the maximum, the smallest (t, d) among ties and the total, on the full
    # range and on every range of traces t <= 0 (weight 2 for t < 0)
    from matstat.counting import max_charpoly_count
    from matstat.exact import MonicIntPoly

    for h in (1, 2, 3, 4):
        hist = _brute_n2_hist(h)
        best = max(hist.values())
        bt, bd = min(k for k, c in hist.items() if c == best)
        assert kernels.charpoly2_scan(h) == ((2 * h + 1) ** 4, bt, bd, best)
        assert max_charpoly_count(2, h) == (MonicIntPoly((bd, -bt)), best)
        for lo in range(-2 * h, 1):
            for hi in range(lo + 1, 2):
                cells = {k: c for k, c in hist.items() if lo <= k[0] < hi}
                top = max(cells.values())
                total = sum(c * (1 if t == 0 else 2) for (t, _), c in cells.items())
                want = (total, *min(k for k, c in cells.items() if c == top), top)
                assert kernels.charpoly2_scan(h, lo, hi) == want, (h, lo, hi)


def test_charpoly2_scan_matches_the_int64_route():
    # the int32 banded scan against the full-width int64 slice loop, on the
    # whole range and on seeded ranges of traces
    rng = random.Random(0x2222)
    for h in list(range(1, 41)) + [128]:
        assert kernels.charpoly2_scan(h) == charpoly2_scan_int64(h), h
        for _ in range(5):
            lo, hi = sorted(rng.sample(range(-2 * h, 2), 2))
            assert kernels.charpoly2_scan(h, lo, hi) == charpoly2_scan_int64(h, lo, hi), (h, lo, hi)


def test_charpoly2_recurrence_matches_the_int64_route_at_h_160():
    # one slice per trace along the discriminant recurrence against the
    # O(h^4) slice loop, on the whole range and on seeded ranges, each of
    # which starts its two chains from scratch
    rng = random.Random(0x160)
    h = 160
    assert kernels.charpoly2_scan(h) == charpoly2_scan_int64(h)
    for _ in range(3):
        lo, hi = sorted(rng.sample(range(-2 * h, 2), 2))
        assert kernels.charpoly2_scan(h, lo, hi) == charpoly2_scan_int64(h, lo, hi), (lo, hi)


def test_charpoly2_scan_keeps_the_first_of_tied_traces():
    # max F_M never falls along a chain, so maxima tie across traces: at
    # h = 21 the first trace to reach 466 is t = -11, and the scan keeps it
    want = (3418801, -11, 0, 466)
    assert kernels.charpoly2_scan(21) == want == charpoly2_scan_int64(21)
    later = kernels.charpoly2_scan(21, -10, 1)
    assert later[3] == 466 and later[1] > -11


def test_pair_table_entries_fit_the_int32_scan():
    # a pair count is at most 4h+1, a scan count sums at most 2(h+1) of
    # them and det2_count multiplies two, which stays below 2^31 up to the
    # pair table's h <= 2048
    for h in (0, 1, 2, 7, 12, 60, 360, 720):
        arr = kernels._pair_table(h)
        assert arr.dtype == np.int32
        assert arr.max() <= 4 * h + 1 == arr[2 * h * h]
        assert (arr == arr[::-1]).all()  # even in D: its own reverse
    top = kernels._PAIR_H_MAX
    assert top == 2048 and (2 * top + 2) * (4 * top + 1) < 2**31
    assert (4 * top + 1) ** 2 < 2**31


@pytest.mark.parametrize("call", [
    lambda: kernels._pair_table(2049),
    lambda: kernels.det2_count(2049, 0),
    lambda: kernels.charpoly2_count(2049, 0, 0),
    lambda: kernels.charpoly2_scan(2049, 0, 1),
])
def test_pair_tables_refuse_h_past_2048(call):
    with pytest.raises(ValueError, match=r"^pair table limited to h <= 2048$"):
        call()


def test_charpoly2_count_matches_brute():
    # every (t, d) around the feasible band |t| <= 2h, |d| <= 2h^2: the
    # infeasible ones must count 0, not read a wrapped table index
    for h in (1, 2, 3, 4):
        hist = _brute_n2_hist(h)
        for t in range(-2 * h - 2, 2 * h + 3):
            for d in range(-2 * h * h - 4, 2 * h * h + 5):
                assert kernels.charpoly2_count(h, t, d) == hist[t, d], (h, t, d)


def test_det2_count_matches_brute():
    rng = random.Random(0x3333)
    for _ in range(30):
        h = rng.randint(1, 4)
        d = rng.randint(-3 * h * h, 3 * h * h)
        truth = _brute_n2(h, d)
        assert kernels.det2_count(h, d) == truth


def test_det2_count_of_large_counts_matches_the_divisor_walk():
    # the int32 products summed in int64, at counts far past the small h
    # above: det 0 counts 191841 at h = 60; the counts partition the box
    h = 60
    for d in (0, 1, -7, 360, 3600, -7199, 7200):
        assert kernels.det2_count(h, d) == kernels.n2_count(h, d), d
    assert sum(kernels.det2_count(h, d) for d in range(-2 * h * h, 2 * h * h + 1)) == (2 * h + 1) ** 4


def test_n3_stats_decode_order():
    from matstat.counting import _decode
    from matstat.exact import charpoly, det, trace

    rng = random.Random(0x4444)
    for h in (1, 2):
        size = (2 * h + 1) ** 9
        ranks = sorted(rng.randrange(size) for _ in range(40))
        lo, hi = ranks[0], ranks[-1] + 1
        if hi - lo > 200000:
            hi = lo + 200000
        tr, mid, dt = kernels.n3_stats(h, lo, hi)
        for r in (lo, hi - 1, (lo + hi) // 2):
            a = _decode(3, h, r)
            f = charpoly(a)
            i = r - lo
            assert tr[i] == trace(a)
            assert dt[i] == det(a)
            assert mid[i] == f.coeffs[1]  # X-coefficient = 2x2 minors


def test_det_trace3_matches_n3_stats_scan():
    for h in (1, 2):
        blocks = kernels.orbit_blocks(h, lines=True)
        # oracle via the full 9-entry scan
        tr, mid, dt = kernels.n3_stats(h, 0, (2 * h + 1) ** 9)
        for d, t in ((0, 0), (1, 2), (-2, -1)):
            truth = int(np.count_nonzero((tr == t) & (dt == d)))
            assert kernels.det_trace3(blocks, d, t, 0, blocks.size.size) == truth


def test_det_trace3_free_trace_shards_match_scan():
    # t = None runs a33 over [-h, h]: random shards of the representative
    # axis against the det-only counts of the n3_stats scan
    rng = random.Random(0x7118)
    for h in (1, 2):
        blocks = kernels.orbit_blocks(h, lines=True)
        dets = Counter(kernels.n3_stats(h, 0, (2 * h + 1) ** 9)[2].tolist())
        for d in [0, 1, -1, 6 * h**3] + [rng.randint(-6 * h**3, 6 * h**3) for _ in range(4)]:
            shards = _random_shards(rng, blocks.size.size, 4)
            total = sum(kernels.det_trace3(blocks, d, None, lo, hi) for lo, hi in shards)
            assert total == dets[d], (h, d)


def test_det_trace3_t2_matches_scan():
    h = 1
    blocks = kernels.orbit_blocks(h, lines=True)
    tr, mid, dt = kernels.n3_stats(h, 0, (2 * h + 1) ** 9)
    t2arr = tr * tr - 2 * mid
    for d, t, t2 in ((0, 0, 0), (0, 0, 2), (1, 1, 1), (0, 1, 3)):
        truth = int(np.count_nonzero((tr == t) & (dt == d) & (t2arr == t2)))
        assert kernels.det_trace3_t2(blocks, d, t, t2, 0, blocks.size.size) == truth, (d, t, t2)


def _brute_bordered(k):
    """(#U_3(k), #V_3(k)) by a numpy scan over every matrix with a33 = 0."""
    a11, a12, a13, a21, a22, a23, a31, a32 = kernels._decode_block(0, (2 * k + 1) ** 8, k, 8)
    det = (a11 * (-a23 * a32) - a12 * (-a23 * a31) + a13 * (a21 * a32 - a22 * a31))
    u = (det == 0) & ((a13 != 0) | (a23 != 0))
    v = u & (a31 * a13 + a32 * a23 == 0)
    return int(np.count_nonzero(u)), int(np.count_nonzero(v))


def test_bordered3_matches_brute_scan():
    # the kernel against a scan of all (2k+1)^8 bordered matrices
    for k in (1, 2):
        assert kernels.bordered3(kernels.orbit_blocks(k)) == _brute_bordered(k)


# ---------------------------------------------------------------------------
# the orbit reduction of the top-left 2x2 block (det_trace3, det_trace3_t2,
# bordered3, charpoly3_tally)


def _block_images(m):
    """The 8 images of a block (r11, r12, r21, r22) under the maps
    diag(1, -1, 1)-conjugation, swap-conjugation and transpose."""
    r11, r12, r21, r22 = m
    out = []
    for s, p, t in product((1, -1), repeat=3):
        b = (r11, s * r12, s * r21, r22)
        if p == -1:
            b = (b[3], b[2], b[1], b[0])
        if t == -1:
            b = (b[0], b[2], b[1], b[3])
        out.append(b)
    return out


def _block_rank(m, h):
    # r11 is the least significant digit (see kernels._decode_block)
    return sum((x + h) * (2 * h + 1) ** i for i, x in enumerate(m))


def _ranks(blocks):
    """The rank of each entry of an orbit_blocks list, as int64."""
    return (blocks.reps.astype(np.int64) + blocks.h) @ (2 * blocks.h + 1) ** np.arange(4)


def _representatives(h):
    """(rank, block, orbit size) of every orbit representative, by scan."""
    reps = []
    for rank in range((2 * h + 1) ** 4):
        m = tuple(int(x[0]) for x in kernels._decode_block(rank, rank + 1, h, 4))
        assert _block_rank(m, h) == rank
        images = _block_images(m)
        if rank == min(_block_rank(g, h) for g in images):
            reps.append((rank, m, len(set(images))))
    return reps


def test_orbit_weights_tile_the_block_axis():
    for h in range(7):
        sizes = kernels.orbit_blocks(h).size
        assert set(np.unique(sizes).tolist()) <= {1, 2, 4, 8}
        assert int(sizes.sum(dtype=np.int64)) == (2 * h + 1) ** 4, h
    orbits = {h: kernels.orbit_blocks(h).size.size for h in (2, 3, 4)}
    assert orbits == {2: 135, 3: 448, 4: 1125}


def test_orbit_representatives_are_least_in_box():
    for h in (1, 2, 3):
        blocks = kernels.orbit_blocks(h)
        reps = _representatives(h)
        assert [r for r, _, _ in reps] == _ranks(blocks).tolist()
        for index, (rank, m, size) in enumerate(reps):
            images = _block_images(m)
            assert all(max(map(abs, g)) <= h for g in images)
            assert rank == min(_block_rank(g, h) for g in images)
            assert blocks.size[index] == size == 8 // images.count(m)


def test_orbit_blocks_list_each_representative_once():
    # the list holds every representative once, in rank order, with its
    # orbit size, at 5 bytes
    for h in (1, 2, 3):
        blocks = kernels.orbit_blocks(h)
        side = 2 * h + 1
        ranks = _ranks(blocks)
        want = _representatives(h)
        assert ranks.tolist() == [r for r, _, _ in want], h
        assert blocks.size.tolist() == [size for _, _, size in want], h
        assert int(blocks.size.sum(dtype=np.int64)) == side**4
        assert blocks.reps.nbytes + blocks.size.nbytes == 5 * len(want) == 5 * side * (h + 1) ** 3
        assert blocks.lines is None
    blocks = kernels.orbit_blocks(4, lines=True)
    want = _representatives(4)
    ranks = _ranks(blocks)
    assert ranks.tolist() == [r for r, _, _ in want]
    assert blocks.size.tolist() == [size for _, _, size in want]
    assert len(blocks.lines) == 6


@pytest.mark.parametrize("h", [8, 12])
def test_orbit_blocks_are_least_among_their_images(h):
    # past the reach of the plain scan: the ranks strictly increase, each
    # entry is the least rank of its 8 images under the three maps and has
    # 8 / (images equal to it) as its size, and the sizes tile the block axis
    blocks = kernels.orbit_blocks(h)
    r11, r12, r21, r22 = blocks.reps.T.astype(np.int64)
    ranks = _ranks(blocks)
    assert (np.diff(ranks) > 0).all()
    images = []
    for s, p, t in product((1, -1), repeat=3):
        m = (r11, s * r12, s * r21, r22)  # conjugation by diag(1, -1, 1)
        if p == -1:  # conjugation by the coordinate swap
            m = (m[3], m[2], m[1], m[0])
        if t == -1:  # the transpose
            m = (m[0], m[2], m[1], m[3])
        images.append(sum((x + h) * (2 * h + 1) ** i for i, x in enumerate(m)))
    images = np.stack(images)
    assert (ranks == images.min(axis=0)).all()
    assert (blocks.size == 8 // (images == ranks).sum(axis=0)).all()
    assert blocks.size.size == (2 * h + 1) * (h + 1) ** 3
    assert int(blocks.size.sum(dtype=np.int64)) == (2 * h + 1) ** 4


def test_orbit_blocks_at_the_cap():
    # the largest list: 99 * 50^3 entries within 64 MB, tiling the 99^4
    # blocks; no int64 copy of the rows is made
    blocks = kernels.orbit_blocks(kernels._BLOCKS_H_MAX)
    assert blocks.size.size == blocks.reps.shape[0] == 99 * 50**3
    assert blocks.reps.nbytes + blocks.size.nbytes <= 64 * 10**6
    assert int(blocks.size.sum(dtype=np.int64)) == 99**4


@pytest.mark.parametrize("step", [1, 3, 50])
def test_orbit_batches_cover_each_representative_once(monkeypatch, step):
    # batches of at most `step` representatives over random ranges of the
    # list; every representative of a range comes once, in rank order, with
    # its own orbit size
    rng = random.Random(0x0B17 + step)
    h = 2
    blocks = kernels.orbit_blocks(h)
    sizes = {rank: size for rank, _, size in _representatives(h)}
    count = blocks.size.size
    monkeypatch.setattr(kernels, "_BATCH", step)
    for lo, hi in [(0, count)] + [sorted(rng.sample(range(count + 1), 2)) for _ in range(5)]:
        seen = []
        for size, r11, r12, r21, r22 in kernels._rep_batches(blocks, lo, hi, 1):
            assert 1 <= r11.size <= step
            ranks = (r11 + h) + 5 * (r12 + h) + 25 * (r21 + h) + 125 * (r22 + h)
            assert [sizes[r] for r in ranks.tolist()] == size.tolist()
            seen += ranks.tolist()
        assert seen == list(sizes)[lo:hi]
    # a representative costing more than _BATCH still goes one at a time
    assert [r11.size for _, r11, _, _, _ in kernels._rep_batches(blocks, 0, 4, step + 1)] == [1] * 4


def test_orbit_blocks_cap_is_the_byte_bound():
    # 5 bytes for each of the (2h+1)(h+1)^3 representatives, within 64 MB
    cap = kernels._BLOCKS_H_MAX
    assert 5 * (2 * cap + 1) * (cap + 1) ** 3 <= 64 * 10**6 < 5 * (2 * cap + 3) * (cap + 2) ** 3
    for call in (lambda: kernels.orbit_blocks(cap + 1), lambda: kernels.orbit_blocks(-1)):
        with pytest.raises(ValueError, match=r"H \(or K\) in \[0, 49\]"):
            call()
    with pytest.raises(ValueError, match=r"in \[0, 20\], got 21"):
        kernels.orbit_blocks(21, lines=True)


def _block_brute(m, h):
    """(det, trace, tr A^2) of every 3x3 matrix with top-left block m and
    the other five entries in [-h, h]."""
    r11, r12, r21, r22 = m
    a13, a23, a31, a32, a33 = np.indices((2 * h + 1,) * 5).reshape(5, -1) - h
    det = (r11 * (r22 * a33 - a23 * a32) - r12 * (r21 * a33 - a23 * a31)
           + a13 * (r21 * a32 - r22 * a31))
    t2 = r11 * r11 + r22 * r22 + a33 * a33 + 2 * (r12 * r21 + a13 * a31 + a23 * a32)
    return det, r11 + r22 + a33, t2, (a13, a23, a31, a32, a33)


def _check_block_counts(blocks, index, m, size, rng):
    h = blocks.h
    det, tr, t2, (a13, a23, a31, a32, a33) = _block_brute(m, h)
    i = rng.randrange(det.size)  # a target that this block meets
    d, t, s = int(det[i]), int(tr[i]), int(t2[i])
    one = dict(lo=index, hi=index + 1)
    assert kernels.det_trace3(blocks, d, t, **one) == size * np.count_nonzero(
        (det == d) & (tr == t)), (m, d, t)
    assert kernels.det_trace3(blocks, d, None, **one) == size * np.count_nonzero(det == d), (m, d)
    assert kernels.det_trace3_t2(blocks, d, t, s, **one) == size * np.count_nonzero(
        (det == d) & (tr == t) & (t2 == s)), (m, d, t, s)
    u = (a33 == 0) & (det == 0) & ((a13 != 0) | (a23 != 0))
    v = u & (a31 * a13 + a32 * a23 == 0)
    want = (size * np.count_nonzero(u), size * np.count_nonzero(v))
    assert kernels.bordered3(blocks, **one) == want, m


def test_kernels_weight_each_representative_by_its_orbit():
    # each entry of the representative axis counts its block's matrices
    # (by brute force) times its orbit size
    rng = random.Random(0x0B18)
    for h in (1, 2):
        blocks = kernels.orbit_blocks(h, lines=True)
        for index, (rank, m, size) in enumerate(_representatives(h)):
            _check_block_counts(blocks, index, m, size, rng)
    h = 4
    blocks = kernels.orbit_blocks(h, lines=True)
    reps = _representatives(h)
    for index in rng.sample(range(len(reps)), 40):
        _, m, size = reps[index]
        _check_block_counts(blocks, index, m, size, rng)


def test_charpoly3_tally_counts_every_matrix():
    for h in range(4):
        tally = kernels.charpoly3_tally(kernels.orbit_blocks(h))
        assert int(tally.sum()) == (2 * h + 1) ** 9, h


def test_census3_matches_generic_census():
    # the kernel against the exact Fincke-Pohst census on its orbits
    from fractions import Fraction

    from matstat.lattices import kbad_census

    for u, k in ((6, 2), (9, 3), (Fraction(26, 5), Fraction(3, 2))):
        usq, ksq = math.floor(u * u), math.floor(k * k)  # (36, 4), (81, 9), (27, 2)
        c, s = kernels.census3(math.floor(u), usq, ksq)
        r = kbad_census(3, u, k, method="generic")
        assert c == r.count and math.isclose(math.fsum(s), r.inv_norm_sum, rel_tol=1e-12)


def test_shard_merging_is_partition():
    # splitting the range must never change the total
    h = 2
    total_axis = 2 * h + 1  # the traces t <= 0
    full = kernels.charpoly2_scan(h)[0]
    pieces = kernels.run_parts(
        lambda lo, hi: kernels.charpoly2_scan(h, lo - 2 * h, hi - 2 * h)[0],
        total_axis,
        3,
        1,
    )
    assert sum(pieces) == full


def test_run_parts_boundaries():
    seen = []
    kernels.run_parts(lambda lo, hi: seen.append((lo, hi)), 10, 3, 1)
    assert seen == [(0, 3), (3, 6), (6, 10)]
    assert seen[0][0] == 0 and seen[-1][1] == 10
    # threaded run returns in part order regardless of completion order
    import time

    def slow_first(lo, hi):
        if lo == 0:
            time.sleep(0.05)
        return (lo, hi)

    out = kernels.run_parts(slow_first, 10, 3, 3)
    assert out == [(0, 3), (3, 6), (6, 10)]


def test_run_parts_refuses_bad_counts_and_caps_its_workers(monkeypatch):
    for parts, threads, name in ((0, 1, "parts"), (-4, 2, "parts"), (3, 0, "threads")):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
            kernels.run_parts(lambda lo, hi: (lo, hi), 10, parts, threads)
    made = []

    class Recording:
        """Records max_workers and runs the parts on the calling thread."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(kernels, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(kernels.os, "cpu_count", lambda: 4)
    # parts are capped at the range, results come back in part order
    assert kernels.run_parts(lambda lo, hi: (lo, hi), 10, 50, 1) == [(i, i + 1) for i in range(10)]
    for parts, threads in ((3, 1000), (50, 1000), (8, 2), (8, 1)):
        out = kernels.run_parts(lambda lo, hi: (lo, hi), 10, parts, threads)
        assert out == kernels.run_parts(lambda lo, hi: (lo, hi), 10, parts, 1)
    # min(threads, parts, cpu_count); one worker runs inline
    assert made == [3, 4, 2]
    monkeypatch.setattr(kernels.os, "cpu_count", lambda: None)
    kernels.run_parts(lambda lo, hi: (lo, hi), 10, 8, 8)
    assert made == [3, 4, 2]


def _random_shards(rng, size, parts):
    cuts = sorted(rng.randrange(size + 1) for _ in range(parts - 1))
    return list(zip([0] + cuts, cuts + [size]))


def test_n3_stats_every_rank_of_random_ranges():
    from matstat.counting import _decode
    from matstat.exact import det, trace

    rng = random.Random(0x4445)
    for h in (1, 2):
        size = (2 * h + 1) ** 9
        for _ in range(20):
            lo = rng.randrange(size)
            hi = min(size, lo + rng.randrange(1, 700))
            tr, mid, dt = kernels.n3_stats(h, lo, hi)
            for i, r in enumerate(range(lo, hi)):
                m = _decode(3, h, r)
                a = m.rows
                minors = sum(a[p][p] * a[q][q] - a[p][q] * a[q][p]
                             for p, q in ((0, 1), (0, 2), (1, 2)))
                assert (tr[i], mid[i], dt[i]) == (trace(m), minors, det(m)), r


def test_kernel_shards_sum_to_independent_routes():
    from matstat.counting import count_singular_bordered

    rng = random.Random(0x7117)
    for h in (1, 2):
        tr, mid, dt = kernels.n3_stats(h, 0, (2 * h + 1) ** 9)
        blocks = kernels.orbit_blocks(h, lines=True)
        reps = blocks.size.size
        for d, t in ((0, 0), (1, 2), (-2, -1)):
            total = sum(kernels.det_trace3(blocks, d, t, lo, hi)
                        for lo, hi in _random_shards(rng, reps, 4))
            assert total == int(np.count_nonzero((tr == t) & (dt == d))), (h, d, t)
        for d, t, t2 in ((0, 0, 2), (1, 1, 3), (0, 1, 1)):
            total = sum(kernels.det_trace3_t2(blocks, d, t, t2, lo, hi)
                        for lo, hi in _random_shards(rng, reps, 4))
            want = (tr == t) & (dt == d) & (tr * tr - 2 * mid == t2)
            assert total == int(np.count_nonzero(want)), (h, d, t, t2)
        shards = [kernels.bordered3(blocks, lo, hi) for lo, hi in _random_shards(rng, reps, 4)]
        uv = tuple(map(sum, zip(*shards)))
        if h == 1:
            assert uv == count_singular_bordered(3, h, method="naive")
        else:
            assert uv == _brute_bordered(h)
        full = kernels.charpoly2_scan(h)
        best = (-1,)
        total = 0
        for lo, hi in _random_shards(rng, 2 * h + 1, 3):  # the traces t <= 0
            part, bt, bd, bc = kernels.charpoly2_scan(h, lo - 2 * h, hi - 2 * h)
            total += part
            if bc > best[0]:  # shards come in scan order: first maximum wins
                best = (bc, bt, bd)
        assert (total, best[1], best[2], best[0]) == full
        for d, t in ((0, None), (2, 1), (-3, None)):
            total = sum(kernels.n2_count(h, d, t, lo, hi)
                        for lo, hi in _random_shards(rng, 2 * h + 1, 2))
            assert total == _brute_n2(h, d, t), (h, d, t)
    for usq, ksq in ((36, 4), (27, 2), (400, 25)):
        uf = math.isqrt(usq)
        whole, whole_sums = kernels.census3(uf, usq, ksq)
        parts = [kernels.census3(uf, usq, ksq, lo, hi)
                 for lo, hi in _random_shards(rng, kernels.census_planes(usq), 3)]
        assert sum(c for c, _ in parts) == whole
        # the shards' row sums are the whole range's, row for row
        assert np.array_equal(np.concatenate([s for _, s in parts]), whole_sums)


def test_charpoly3_tally_against_n3_stats(monkeypatch):
    # the fused key tally against np.unique of the keys of the n3_stats
    # (trace, mid, det) arrays; random shards summed on 1 and 2 threads, and
    # blocks cut small, leave it unchanged
    rng = random.Random(0x7A11)
    for h in (1, 2):
        blocks = kernels.orbit_blocks(h)
        tally = kernels.charpoly3_tally(blocks)
        assert tally.shape == (6 * h + 1, 12 * h * h + 1, 12 * h**3 + 1)
        tr, mid, dt = kernels.n3_stats(h, 0, (2 * h + 1) ** 9)
        keys = np.ravel_multi_index((tr + 3 * h, mid + 6 * h * h, dt + 6 * h**3), tally.shape)
        seen, counts = np.unique(keys, return_counts=True)
        want = np.zeros(tally.size, dtype=np.int64)
        want[seen] = counts
        assert np.array_equal(tally.ravel(), want), h
        for threads in (1, 2):
            shards = _random_shards(rng, blocks.size.size * (2 * h + 1) ** 2, 5)
            with ThreadPoolExecutor(max_workers=threads) as ex:
                parts = list(ex.map(lambda s: kernels.charpoly3_tally(blocks, *s), shards))
            assert np.array_equal(sum(parts), tally), (h, threads)
        # the shards added into one tally, as a thread adds the parts it runs
        out = None
        for lo, hi in _random_shards(rng, blocks.size.size * (2 * h + 1) ** 2, 5):
            out = kernels.charpoly3_tally(blocks, lo, hi, out)
        assert np.array_equal(out, tally), h
        monkeypatch.setattr(kernels, "_TALLY_BLOCK", 5000)  # 40 row pairs at h = 2
        assert np.array_equal(kernels.charpoly3_tally(blocks), tally), h
        monkeypatch.undo()


def _domain_triangle(usq, a):
    """#{(b, c) : a <= b <= c, a^2 + b^2 + c^2 <= usq}, by plain loops."""
    return sum(1 for b in range(a, math.isqrt(usq) + 1)
               for c in range(b, math.isqrt(usq) + 1) if a * a + b * b + c * c <= usq)


def test_census3_plane_wider_than_one_batch(monkeypatch):
    # the a = 0 triangle at U = 410 has 66356 points: three blocks, cut
    # inside the plane, so a wrong block offset shows in the count; a = 37
    # is cut once, and a = 150..152 share one block before a cut in 152.
    # Each shard is checked against the same kernel with _BATCH raised so
    # that the shard is one block.
    uf = 410
    usq = uf * uf
    assert _domain_triangle(usq, 0) > 2 * kernels._BATCH
    shards = ((0, 1, 400), (37, 38, 9), (150, 153, 400))
    got = []
    for lo, hi, ksq in shards:
        assert len(list(kernels._domain_blocks(usq, lo, hi))) > 1
        got.append(kernels.census3(uf, usq, ksq, lo, hi))
    monkeypatch.setattr(kernels, "_BATCH", 1 << 17)
    for (lo, hi, ksq), (c1, s1) in zip(shards, got):
        assert len(list(kernels._domain_blocks(usq, lo, hi))) == 1
        c2, s2 = kernels.census3(uf, usq, ksq, lo, hi)
        assert c1 > 0
        assert c1 == c2 and np.array_equal(s1, s2)  # row sums do not see the blocks


def test_census3_blocks_tile_the_domain(monkeypatch):
    # with a 50-point batch, blocks are cut inside planes and across them
    monkeypatch.setattr(kernels, "_BATCH", 50)
    for usq in (1, 2, 3, 56, 400):
        planes = kernels.census_planes(usq)
        assert _domain_triangle(usq, planes - 1) > 0 == _domain_triangle(usq, planes)
        for lo, hi in ((0, planes), (1, planes), (0, 1)):
            blocks = list(kernels._domain_blocks(usq, lo, hi))
            assert all(0 < a.size <= 50 for a, _, _ in blocks)
            got = [p for a, b, c in blocks for p in zip(a.tolist(), b.tolist(), c.tolist())]
            want = [(a, b, c) for a in range(lo, hi)
                    for b in range(a, math.isqrt(usq) + 1)
                    for c in range(b, math.isqrt(usq) + 1) if a * a + b * b + c * c <= usq]
            assert got == want, (usq, lo, hi)


def test_domain_blocks_match_the_per_plane_route(monkeypatch):
    # the closed-form listing against the former per-plane one: the same
    # points in the same blocks, on the shards above and on the whole axis,
    # with 50-point batches (groups of planes, cuts inside and across
    # planes) and at the default batch
    for batch in (50, kernels._BATCH):
        monkeypatch.setattr(kernels, "_BATCH", batch)
        for usq in (1, 2, 3, 56, 400, 3600, 410 * 410):
            planes = kernels.census_planes(usq)
            spans = [(0, 1), (37, 38), (150, 153)]
            if usq <= 3600 or batch > 50:
                spans.append((0, planes))
            for lo, hi in spans:
                lo, hi = min(lo, planes), min(hi, planes)
                got = list(kernels._domain_blocks(usq, lo, hi))
                want = list(domain_blocks_per_plane(usq, lo, hi))
                assert len(got) == len(want), (batch, usq, lo, hi)
                for g, w in zip(got, want):
                    assert all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(g, w))


def test_census3_rows_match_the_per_point_route():
    # the row-wise extended gcd and Gram factors against the per-point
    # route, bitwise: the count and every row sum, on the whole axis and on
    # random shards
    rng = random.Random(0xC3)
    for uf, kf in ((60, 8), (100, 10), (130, 12)):
        usq, ksq = uf * uf, kf * kf
        count, sums = kernels.census3(uf, usq, ksq)
        want_count, want_sums = census3_per_point(uf, usq, ksq)
        assert count == want_count and np.array_equal(sums, want_sums), uf
        for lo, hi in _random_shards(rng, kernels.census_planes(usq), 3):
            count, sums = kernels.census3(uf, usq, ksq, lo, hi)
            want_count, want_sums = census3_per_point(uf, usq, ksq, lo, hi)
            assert count == want_count and np.array_equal(sums, want_sums), (uf, lo, hi)


def _signed_orbit(u):
    return {tuple(s * x for s, x in zip(signs, p))
            for p in permutations(u) for signs in product((1, -1), repeat=3)}


def test_orbit_size():
    points = [(0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 1, 2), (1, 2, 2), (0, 1, 2),
              (0, 0, 7), (2, 3, 5), (3, 3, 4), (0, 5, 5)]
    want = [len(_signed_orbit(u)) for u in points]
    assert want[:6] == [6, 12, 8, 24, 24, 24]
    assert [kernels._orbit_size(*u) for u in points] == want
    a, b, c = (np.array(x, dtype=np.int64) for x in zip(*points))
    assert kernels._orbit_size(a, b, c).tolist() == want


def test_dual_second_minimum_matches_lattice_minima():
    # the rank-2 reduction against the exact Fincke-Pohst minima,
    # with gcd(a, b) > 1 among the points so the Gram's g1 terms matter
    from matstat.lattices import is_primitive, orthogonal_lattice, successive_minima

    rng = random.Random(0xD2)
    points = [(0, 0, 1), (0, 1, 1), (1, 1, 1), (0, 2, 3), (2, 4, 5), (3, 6, 7), (4, 6, 9)]
    while len(points) < 60:
        u = tuple(sorted(rng.randint(0, 40) for _ in range(3)))
        if any(u) and is_primitive(u):
            points.append(u)
    for u in points:
        m2 = successive_minima(orthogonal_lattice([u]))[0][1]
        block = [np.array([x], dtype=np.int64) for x in u]
        assert kernels._census3_block(*block, m2 - 1)[0] == kernels._orbit_size(*u), u
        assert kernels._census3_block(*block, m2)[0] == 0, u


@pytest.mark.parametrize("uf, usq", [(1, 1), (1, 3), (4, 16), (7, 56), (10, 106), (13, 169)])
def test_census3_with_ksq_zero_counts_every_primitive_point(uf, usq):
    # lambda_2^2 >= 1 > 0, so every primitive u in the ball is K-bad
    axis = np.arange(-uf, uf + 1, dtype=np.int64)
    a, b, c = np.meshgrid(axis, axis, axis, indexing="ij")
    nsq = a * a + b * b + c * c
    prim = (np.gcd(np.gcd(a, b), c) == 1) & (nsq <= usq)
    count, inv = kernels.census3(uf, usq, 0)
    assert count == int(np.count_nonzero(prim))
    want = math.fsum(float(n) ** -1.5 for n in nsq[prim].tolist())
    assert math.isclose(math.fsum(inv), want, rel_tol=1e-13)


@pytest.mark.parametrize(
    "call",
    [
        lambda: kernels.orbit_blocks(21, lines=True),  # line table bound
        lambda: kernels.det_trace3(kernels.orbit_blocks(2, lines=True), 49, 0),  # |d| > 6h^3
        lambda: kernels.det_trace3(kernels.orbit_blocks(2, lines=True), 0, 7),  # |t| > 3h
        lambda: kernels.det_trace3(kernels.orbit_blocks(2, lines=True), -49, None),  # trace free
        lambda: kernels.det_trace3(kernels.orbit_blocks(2, lines=True), 0, 0, 0, 136),  # past 135
        lambda: kernels.det_trace3(kernels.orbit_blocks(2), 0, 0),  # no line table
        lambda: kernels.det_trace3_t2(kernels.orbit_blocks(21, lines=True), 0, 0, 0),
        lambda: kernels.det_trace3_t2(kernels.orbit_blocks(2), 0, 0, 0),
        lambda: kernels.det_trace3_t2(kernels.orbit_blocks(2, lines=True), 0, 0, 37),  # > 9h^2
        lambda: kernels.det_trace3_t2(kernels.orbit_blocks(2, lines=True), 0, 0, 0, -1, 5),
        lambda: kernels.orbit_blocks(50),  # representative list past 64 MB
        lambda: kernels.bordered3(kernels.orbit_blocks(2), 5, 4),
        lambda: kernels.n2_count(1, 0, None, 0, 4),  # past a11 = h
        lambda: kernels.n3_stats(64, 0, 1),  # ranks overflow int64
        lambda: kernels.n3_stats(1, 0, 3**9 + 1),
        lambda: kernels.charpoly3_tally(kernels.orbit_blocks(5), 0, 0),  # tally past 30 MB
        lambda: kernels.charpoly3_tally(kernels.orbit_blocks(1), 0, 24 * 9 + 1),
        lambda: kernels.charpoly3_tally(kernels.orbit_blocks(1), 0, 0,  # h = 1 takes (7, 13, 13)
                                        np.zeros((7, 13, 12), dtype=np.int64)),
        lambda: kernels.charpoly2_scan(2, 0, 2),  # past t = 0
        lambda: kernels.census3(10_001, 10_001**2, 4, 0, 0),  # reduction overflows
        lambda: kernels.census3(6, 36, 4, 0, 5),  # past isqrt(36 // 3) + 1 planes
        lambda: kernels.census3(6, 49, 4, 0, 0),  # usq past the U = 6 box
    ],
    ids=["dt3-h", "dt3-d", "dt3-t", "dt3-free-d", "dt3-hi", "dt3-lines", "dt3t2-h",
         "dt3t2-lines", "dt3t2-t2", "dt3t2-lo", "b3-k", "b3-span", "n2-hi", "n3-h", "n3-hi", "tally-h", "tally-hi", "tally-out", "cp2-t",
         "census-U", "census-hi", "census-usq"],
)
def test_kernel_range_guards(call):
    # empty shards where the guard is on h alone, so a missing guard fails fast
    with pytest.raises(ValueError):
        call()


def test_kernel_range_edges_accepted():
    two = kernels.orbit_blocks(2, lines=True)
    assert kernels.det_trace3(two, 48, 6) == 0
    assert kernels.det_trace3(two, -48, None) == 0
    one = kernels.orbit_blocks(1, lines=True)  # 24 representatives
    assert kernels.det_trace3_t2(one, 6, 3, 9, 23, 24) == 0
    assert kernels.bordered3(one, 24, 24) == (0, 0)
    assert kernels.n2_count(1, 0, None, 2, 3) == 9  # a11 = 1: a22 = a12 a21 (5 + 2 + 2)
    assert [len(x) for x in kernels.n3_stats(1, 3**9 - 2, 3**9)] == [2, 2, 2]
    assert kernels.charpoly3_tally(kernels.orbit_blocks(4), 1125 * 81, 1125 * 81).shape == (
        25, 193, 769)
    assert kernels.charpoly2_scan(2, -4, -4) == (0, 0, 0, -1)
    count, sums = kernels.census3(6, 48, 4, 4, 5)  # only (4, 4, 4) there
    assert count == 0 and sums.size == 0


# ---------------------------------------------------------------------------
# the per-process table memo


def test_kept_tables_are_read_only():
    clear_caches()
    kernels.det2_count(5, 3)
    kernels.charpoly2_count(5, 1, 2)
    kernels.charpoly2_scan(5)
    kernels.orbit_blocks(2, lines=True)
    kept = [table for table, _ in kernels._tables._entries.values()]
    assert len(kept) == 4  # pair (one for all three n = 2 kernels), reps, border, lines
    for table in kept:
        for a in (table if isinstance(table, tuple) else (table,)):
            if isinstance(a, np.ndarray):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[...] = 0
    # the counts still come out right from the kept tables
    assert kernels.charpoly2_scan(5) == charpoly2_scan_int64(5)


def test_cleared_table_is_rebuilt_equal():
    first = kernels._pair_table(6), kernels.orbit_blocks(3, lines=True)
    assert kernels._pair_table(6) is first[0]
    assert kernels.orbit_blocks(3, lines=True).lines is first[1].lines
    clear_caches()
    assert kernels._tables.cache_info().currsize == 0
    again = kernels._pair_table(6), kernels.orbit_blocks(3, lines=True)
    assert again[0] is not first[0] and (again[0] == first[0]).all()
    for old, new in ((first[1].reps, again[1].reps), (first[1].lines[0], again[1].lines[0])):
        assert new is not old and (new == old).all()


def test_memo_keeps_within_its_byte_cap(monkeypatch):
    clear_caches()
    size = (4 * 81 + 1) * 4  # the h = 9 pair table: 325 int32
    monkeypatch.setattr(kernels._tables, "maxbytes", size - 1)
    # a table larger than the cap is returned but not kept
    table = kernels._pair_table(9)
    assert table.nbytes == size
    again = kernels._pair_table(9)
    assert again is not table and (again == table).all()
    assert kernels._tables.cache_info() == (0, 0, size - 1)
    # room for two such tables: the least recently used one goes
    monkeypatch.setattr(kernels._tables, "maxbytes", 2 * size)
    first = kernels._pair_table(9)
    kernels._tables.get(("other", 9), lambda: np.zeros(325, dtype=np.int32))
    assert kernels._pair_table(9) is first  # now the most recent
    kernels._tables.get(("third", 9), lambda: np.ones(325, dtype=np.int32))
    assert set(kernels._tables._entries) == {("pair", 9), ("third", 9)}
    assert kernels._tables.cache_info() == (2, 2 * size, 2 * size)
    clear_caches()


def test_threads_building_one_table_share_it():
    # more threads than cores race to build one missing entry (a slow
    # build, so several build it); every one returns the table kept first,
    # and its bytes count once
    clear_caches()
    built = []

    def build():
        built.append(threading.get_ident())
        time.sleep(0.05)
        return np.arange(1000, dtype=np.int64)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            got = [f.result(timeout=60) for f in
                   [ex.submit(kernels._tables.get, ("race", 0), build) for _ in range(32)]]
    finally:
        sys.setswitchinterval(interval)
    assert len(built) >= 2
    assert all(g is got[0] for g in got)
    assert kernels._tables.cache_info()[:2] == (1, 8000)
    clear_caches()


def test_cold_sharded_scan_matches_one_part():
    # the parts of a cold max_charpoly_count read the table the counter
    # built; and parts that race to build it themselves agree with one part
    h = 24
    clear_caches()
    sharded = counting.max_charpoly_count(2, h, parts=8, threads=2)
    clear_caches()
    assert sharded == counting.max_charpoly_count(2, h, parts=1)
    clear_caches()
    pieces = kernels.run_parts(lambda lo, hi: kernels.charpoly2_scan(h, lo - 2 * h, hi - 2 * h),
                               2 * h + 1, 8, 2)
    assert sum(p[0] for p in pieces) == (2 * h + 1) ** 4
    assert max(pieces, key=lambda p: (p[3], -p[1], -p[2]))[1:] == kernels.charpoly2_scan(h)[1:]


def test_clear_caches_empties_every_memo():
    # every object in matstat's modules with cache_clear/cache_info is empty
    # after clear_caches, so no memo outlives it; cli.build_parser, the
    # argparse tree built once per process, holds no counting state
    exempt = {id(cli.build_parser)}
    numtheory.largest_totient_below(100)
    numtheory.max_totient_square_sum(12)
    numtheory.totients_up_to(64)
    numtheory.cyclotomic(12)
    numtheory.factorize(10**7 + 19)
    kernels.orbit_blocks(2, lines=True)
    kernels.det2_count(3, 1)
    memos = {}
    for info in pkgutil.iter_modules(matstat.__path__):
        if info.name == "__main__":  # the entry point runs the CLI on import
            continue
        mod = importlib.import_module(f"matstat.{info.name}")
        for name, obj in vars(mod).items():
            if (hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")
                    and not isinstance(obj, type) and id(obj) not in exempt):
                memos[id(obj)] = (f"{info.name}.{name}", obj)
    filled = {name for name, obj in memos.values() if obj.cache_info().currsize}
    assert {"kernels._tables", "numtheory.totients_up_to",
            "numtheory.cyclotomic", "numtheory._small_primes"} <= filled
    matstat.clear_caches()
    assert [name for name, obj in memos.values() if obj.cache_info().currsize] == []


def test_largest_totient_below_warms_no_memo():
    # v(n) and w(n) build no table: a gain from them cannot come from a
    # memo that a per-pass totients_up_to.cache_clear() would miss
    # (the scan of test_clear_caches_empties_every_memo, cli.build_parser
    # exempt).  They fill only factorize's prime table, which perfbench
    # builds outside the timer before its first pass
    matstat.clear_caches()
    assert numtheory.largest_totient_below(50000) == 50000
    assert numtheory.max_totient_square_sum(50000) == 50000**2
    filled = []
    for info in pkgutil.iter_modules(matstat.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"matstat.{info.name}")
        for name, obj in vars(mod).items():
            if (hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")
                    and not isinstance(obj, type) and obj is not cli.build_parser
                    and obj.cache_info().currsize):
                filled.append(f"{info.name}.{name}")
    assert filled == ["numtheory._small_primes"]
    assert numtheory.totients_up_to.cache_info().currsize == 0
