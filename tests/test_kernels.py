"""Backend parity: every jitted kernel against numpy and plain python."""

import math
import random
from itertools import permutations, product

import pytest

from matstat import kernels


BACKENDS = ("numpy",) + (("numba",) if kernels.HAVE_NUMBA else ())


def test_backend_switching():
    old = kernels.current_backend()
    with kernels.use_backend("numpy"):
        assert kernels.current_backend() == "numpy"
    assert kernels.current_backend() == old
    with pytest.raises(ValueError):
        kernels.set_backend("fortran")


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
    for h in (1, 2, 4):
        halo = 3 * h * h + 1
        arr = kernels.full_pair_count_array(h, halo)
        for dv in range(-halo, halo + 1):
            truth = sum(
                1
                for x in range(-h, h + 1)
                for y in range(-h, h + 1)
                if x * y == dv
            )
            assert arr[dv + halo] == truth


def test_count_line_against_scan():
    rng = random.Random(0x5EED)
    for _ in range(400):
        h = rng.randint(1, 9)
        alpha = rng.randint(-6, 6)
        beta = rng.randint(-6, 6)
        g = rng.randint(-30, 30)
        truth = sum(
            1
            for x in range(-h, h + 1)
            for y in range(-h, h + 1)
            if alpha * x + beta * y == g
        )
        assert kernels._count_line(alpha, beta, g, h) == truth, (alpha, beta, g, h)


def test_xgcd_properties():
    rng = random.Random(0x9EED)
    for _ in range(300):
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        g, x, y = kernels._xgcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g


def _brute_n2(h, d, t, use_trace):
    cnt = 0
    for a, b, c, e in product(range(-h, h + 1), repeat=4):
        if a * e - b * c != d:
            continue
        if use_trace and a + e != t:
            continue
        cnt += 1
    return cnt


def test_n2_count_both_backends():
    rng = random.Random(0x1111)
    for _ in range(25):
        h = rng.randint(1, 4)
        d = rng.randint(-2 * h * h, 2 * h * h)
        t = rng.randint(-2 * h, 2 * h)
        for use_trace in (False, True):
            truth = _brute_n2(h, d, t, use_trace)
            for b in BACKENDS:
                with kernels.use_backend(b):
                    got = kernels.n2_count(h, d, t, use_trace)
                assert got == truth, (h, d, t, use_trace, b)


def test_charpoly2_scan_partition_and_backends():
    for h in (1, 2, 3):
        outs = []
        for b in BACKENDS:
            with kernels.use_backend(b):
                total, bt, bd, bc = kernels.charpoly2_scan(h)
            outs.append((total, bt, bd, bc))
        assert len(set(outs)) == 1
        total, bt, bd, bc = outs[0]
        assert total == (2 * h + 1) ** 4
        assert bc == kernels.charpoly2_count(h, bt, bd)


def test_charpoly2_count_matches_brute():
    rng = random.Random(0x2222)
    for _ in range(40):
        h = rng.randint(1, 4)
        t = rng.randint(-2 * h, 2 * h)
        d = rng.randint(-2 * h * h, 2 * h * h)
        truth = _brute_n2(h, d, t, True)
        for b in BACKENDS:
            with kernels.use_backend(b):
                assert kernels.charpoly2_count(h, t, d) == truth


def test_det2_count_matches_brute():
    rng = random.Random(0x3333)
    for _ in range(30):
        h = rng.randint(1, 4)
        d = rng.randint(-3 * h * h, 3 * h * h)
        truth = _brute_n2(h, d, 0, False)
        assert kernels.det2_count(h, d) == truth


def test_n3_stats_decode_order():
    from matstat.counting import _decode
    from matstat.exact import charpoly, det, trace

    rng = random.Random(0x4444)
    for b in BACKENDS:
        with kernels.use_backend(b):
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


def test_det_trace3_both_backends_match_scan():
    import numpy as np

    for h in (1, 2):
        size4 = (2 * h + 1) ** 4
        for d, t in ((0, 0), (1, 2), (-2, -1)):
            outs = []
            for b in BACKENDS:
                with kernels.use_backend(b):
                    outs.append(kernels.det_trace3(h, d, t, 0, size4))
            assert len(set(outs)) == 1
            # oracle via the full 9-entry scan
            tr, mid, dt = kernels.n3_stats(h, 0, (2 * h + 1) ** 9)
            truth = int(np.count_nonzero((tr == t) & (dt == d)))
            assert outs[0] == truth


def test_det_trace3_t2_matches_scan():
    import numpy as np

    h = 1
    size4 = (2 * h + 1) ** 4
    tr, mid, dt = kernels.n3_stats(h, 0, (2 * h + 1) ** 9)
    t2arr = tr * tr - 2 * mid
    for d, t, t2 in ((0, 0, 0), (0, 0, 2), (1, 1, 1), (0, 1, 3)):
        truth = int(np.count_nonzero((tr == t) & (dt == d) & (t2arr == t2)))
        for b in BACKENDS:
            with kernels.use_backend(b):
                got = kernels.det_trace3_t2(h, d, t, t2, 0, size4)
            assert got == truth, (d, t, t2, b)


def test_bordered3_backends_agree():
    for k in (1, 2):
        outs = []
        for b in BACKENDS:
            with kernels.use_backend(b):
                outs.append(kernels.bordered3(k, 0, (2 * k + 1) ** 4))
        assert len(set(outs)) == 1


def test_census3_backends_agree():
    for uf, usq, ksq in ((6, 36, 4), (9, 81, 9), (5, 27, 2)):
        outs = []
        for b in BACKENDS:
            with kernels.use_backend(b):
                c, s = kernels.census3(uf, usq, ksq)
            outs.append((c, round(s, 9)))
        assert len(set(outs)) == 1


def test_shard_merging_is_partition():
    # splitting the range must never change the total
    h = 2
    total_axis = 4 * h + 1
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


def _interpreted(fn):
    """The Python body of a numba twin: without numba, njit is the identity."""
    return getattr(fn, "py_func", fn)


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


def test_numba_twins_interpreted_match_numpy():
    import numpy as np

    rng = random.Random(0x7117)
    for h in (1, 2):
        stats = kernels.n3_stats(h, 0, (2 * h + 1) ** 9)
        tr, mid, dt = stats
        size4 = (2 * h + 1) ** 4
        for d, t in ((0, 0), (1, 2), (-2, -1)):
            total = 0
            for lo, hi in _random_shards(rng, size4, 4):
                got = _interpreted(kernels._det_trace3_numba)(h, d, t, lo, hi)
                assert got == kernels._det_trace3_numpy(h, d, t, lo, hi), (h, d, t, lo, hi)
                total += got
            assert total == int(np.count_nonzero((tr == t) & (dt == d)))
        for d, t, t2 in ((0, 0, 2), (1, 1, 3), (0, 1, 1)):
            total = 0
            for lo, hi in _random_shards(rng, size4, 4):
                got = _interpreted(kernels._det_trace3_t2_numba)(h, d, t, t2, lo, hi)
                assert got == kernels._det_trace3_t2_numpy(h, d, t, t2, lo, hi)
                total += got
            want = (tr == t) & (dt == d) & (tr * tr - 2 * mid == t2)
            assert total == int(np.count_nonzero(want))
        u = v = 0
        for lo, hi in _random_shards(rng, size4, 4):
            got = _interpreted(kernels._bordered3_numba)(h, lo, hi)
            assert got == kernels._bordered3_numpy(h, lo, hi)
            u, v = u + got[0], v + got[1]
        if h == 1:
            from matstat.counting import count_singular_bordered

            assert (u, v) == count_singular_bordered(3, h, method="naive")
        halo = 3 * h * h + 1
        full = kernels.full_pair_count_array(h, halo)
        for lo, hi in _random_shards(rng, 4 * h + 1, 3):
            lo_t, hi_t = lo - 2 * h, hi - 2 * h
            assert (_interpreted(kernels._charpoly2_scan_numba)(h, full, halo, lo_t, hi_t)
                    == kernels._charpoly2_scan_numpy(h, full, halo, lo_t, hi_t))
        for d, t, use_trace in ((0, 0, False), (2, 1, True), (-3, 0, False)):
            for lo, hi in _random_shards(rng, 2 * h + 1, 2):
                args = (h, d, t, use_trace, lo, hi)
                assert (_interpreted(kernels._n2_count_numba)(*args)
                        == kernels._n2_count_numpy(*args))
    for usq, ksq in ((36, 4), (27, 2), (400, 25)):
        for lo, hi in _random_shards(rng, kernels.census_planes(usq), 3):
            c1, s1 = _interpreted(kernels._census3_numba)(usq, ksq, lo, hi)
            c2, s2 = kernels._census3_numpy(usq, ksq, lo, hi)
            assert c1 == c2 and math.isclose(s1, s2, rel_tol=1e-12, abs_tol=1e-15)


def _domain_triangle(usq, a):
    """#{(b, c) : a <= b <= c, a^2 + b^2 + c^2 <= usq}, by plain loops."""
    return sum(1 for b in range(a, math.isqrt(usq) + 1)
               for c in range(b, math.isqrt(usq) + 1) if a * a + b * b + c * c <= usq)


def test_census3_plane_wider_than_one_batch():
    # the a = 0 triangle at U = 410 has 66356 points: three blocks, cut
    # inside the plane, so a wrong block offset shows in the count; a = 37
    # is cut once, and a = 150..152 share one block before a cut in 152
    uf = 410
    assert _domain_triangle(uf * uf, 0) > 2 * kernels._BATCH
    for lo, hi, ksq in ((0, 1, 400), (37, 38, 9), (150, 153, 400)):
        c1, s1 = _interpreted(kernels._census3_numba)(uf * uf, ksq, lo, hi)
        c2, s2 = kernels._census3_numpy(uf * uf, ksq, lo, hi)
        assert c1 > 0
        assert c1 == c2 and math.isclose(s1, s2, rel_tol=1e-12, abs_tol=1e-15)


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


def _signed_orbit(u):
    return {tuple(s * x for s, x in zip(signs, p))
            for p in permutations(u) for signs in product((1, -1), repeat=3)}


def test_orbit_size():
    import numpy as np

    points = [(0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 1, 2), (1, 2, 2), (0, 1, 2),
              (0, 0, 7), (2, 3, 5), (3, 3, 4), (0, 5, 5)]
    want = [len(_signed_orbit(u)) for u in points]
    assert want[:6] == [6, 12, 8, 24, 24, 24]
    assert [kernels._orbit_size(*u) for u in points] == want
    a, b, c = (np.array(x, dtype=np.int64) for x in zip(*points))
    assert kernels._orbit_size(a, b, c).tolist() == want


def test_dual_second_minimum_matches_lattice_minima():
    # both twins' rank-2 reduction against the exact Fincke-Pohst minima,
    # with gcd(a, b) > 1 among the points so the Gram's g1 terms matter
    import numpy as np

    from matstat.lattices import is_primitive, orthogonal_lattice, successive_minima

    rng = random.Random(0xD2)
    points = [(0, 0, 1), (0, 1, 1), (1, 1, 1), (0, 2, 3), (2, 4, 5), (3, 6, 7), (4, 6, 9)]
    while len(points) < 60:
        u = tuple(sorted(rng.randint(0, 40) for _ in range(3)))
        if any(u) and is_primitive(u):
            points.append(u)
    for u in points:
        m2 = successive_minima(orthogonal_lattice([u]))[0][1]
        assert _interpreted(kernels._dual_min2)(*u) == m2, u
        block = [np.array([x], dtype=np.int64) for x in u]
        assert kernels._census3_block(*block, m2 - 1)[0] == kernels._orbit_size(*u), u
        assert kernels._census3_block(*block, m2)[0] == 0, u


@pytest.mark.parametrize("uf, usq", [(1, 1), (1, 3), (4, 16), (7, 56), (10, 106), (13, 169)])
def test_census3_with_ksq_zero_counts_every_primitive_point(uf, usq):
    # lambda_2^2 >= 1 > 0, so every primitive u in the ball is K-bad
    import numpy as np

    axis = np.arange(-uf, uf + 1, dtype=np.int64)
    a, b, c = np.meshgrid(axis, axis, axis, indexing="ij")
    nsq = a * a + b * b + c * c
    prim = (np.gcd(np.gcd(a, b), c) == 1) & (nsq <= usq)
    count, inv = kernels.census3(uf, usq, 0)
    assert count == int(np.count_nonzero(prim))
    planes = kernels.census_planes(usq)
    assert _interpreted(kernels._census3_numba)(usq, 0, 0, planes)[0] == count
    assert math.isclose(inv, math.fsum(float(n) ** -1.5 for n in nsq[prim].tolist()),
                        rel_tol=1e-13)


@pytest.mark.parametrize(
    "call",
    [
        lambda: kernels.det_trace3(21, 0, 0, 0, 0),  # line table bound
        lambda: kernels.det_trace3(2, 49, 0),  # |d| > 6h^3
        lambda: kernels.det_trace3(2, 0, 7),  # |t| > 3h
        lambda: kernels.det_trace3(2, 0, 0, 0, 626),  # past (2h+1)^4
        lambda: kernels.det_trace3_t2(21, 0, 0, 0, 0, 0),
        lambda: kernels.det_trace3_t2(2, 0, 0, 37),  # |t2| > 9h^2
        lambda: kernels.det_trace3_t2(2, 0, 0, 0, -1, 5),
        lambda: kernels.bordered3(128, 0, 0),  # border vectors overflow a batch
        lambda: kernels.bordered3(2, 5, 4),
        lambda: kernels.n3_stats(64, 0, 1),  # ranks overflow int64
        lambda: kernels.n3_stats(1, 0, 3**9 + 1),
        lambda: kernels.census3(10_001, 10_001**2, 4, 0, 0),  # reduction overflows
        lambda: kernels.census3(6, 36, 4, 0, 5),  # past isqrt(36 // 3) + 1 planes
        lambda: kernels.census3(6, 49, 4, 0, 0),  # usq past the U = 6 box
    ],
    ids=["dt3-h", "dt3-d", "dt3-t", "dt3-hi", "dt3t2-h", "dt3t2-t2", "dt3t2-lo",
         "b3-k", "b3-span", "n3-h", "n3-hi", "census-U", "census-hi", "census-usq"],
)
def test_kernel_range_guards(call):
    # empty shards where the guard is on h alone, so a missing guard fails fast
    with pytest.raises(ValueError):
        call()


def test_kernel_range_edges_accepted():
    assert kernels.det_trace3(2, 48, 6) == 0
    assert kernels.det_trace3_t2(1, 6, 3, 9, 80, 81) == 0
    assert kernels.bordered3(1, 81, 81) == (0, 0)
    assert [len(x) for x in kernels.n3_stats(1, 3**9 - 2, 3**9)] == [2, 2, 2]
    assert kernels.census3(6, 48, 4, 4, 5) == (0, 0.0)  # only (4, 4, 4) there
