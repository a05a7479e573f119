"""Counters against enumeration oracles, partition identities, budgets."""

import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from helpers import all_matrices, random_matrix
from matstat import counting, kernels
from matstat.counting import (
    count_charpoly,
    count_charpoly_fast2,
    count_det_trace,
    count_det_trace2,
    count_singular_bordered,
    count_with_det,
    centralizer_count,
    enumerate_matrices,
    max_charpoly_count,
    universe_size,
)
from matstat.errors import BudgetExceededError
from matstat.exact import IntMatrix, MonicIntPoly, charpoly, det, trace
from matstat.experiments import ExperimentSpec, run_grid
from matstat.lattices import kbad_census


def test_universe_size_examples():
    assert universe_size(1, 1) == 3
    assert universe_size(2, 1) == 81
    assert universe_size(2, 2) == 625
    assert universe_size(3, 1) == 3**9
    assert universe_size(2, 2.9) == 625  # floor(H)
    with pytest.raises(ValueError):
        universe_size(2, 0.5)
    # every bound type is read exactly: float32 and float64, Fraction, numpy ints
    for h in (np.float32(3.5), np.float64(3.5), Fraction(7, 2), np.int64(3), 3):
        assert universe_size(2, h) == 7**4 and type(universe_size(2, h)) is int
        assert count_with_det(2, h, 1) == 116
        assert centralizer_count(IntMatrix([[1, 1], [0, 1]]), h) == 49
    for h in (np.float32(0.5), Fraction(1, 2), np.int64(0)):
        with pytest.raises(ValueError, match="H must be >= 1"):
            count_with_det(2, h, 1)


def test_non_finite_bounds_are_refused_by_name():
    from matstat import lattices

    lat = lattices.orthogonal_lattice([(1, 2, 3)])
    for bad in (math.inf, -math.inf, math.nan, np.float32("inf"), np.float64("nan")):
        for call, name in [
            (lambda: universe_size(2, bad), "H"),
            (lambda: count_with_det(3, bad, 0), "H"),
            (lambda: max_charpoly_count(3, bad), "H"),
            (lambda: centralizer_count(IntMatrix([[1, 1], [0, 1]]), bad), "H"),
            (lambda: run_grid(ExperimentSpec("det", n=2, grid=(bad,), params={"d": 1})), "H"),
            (lambda: lattices.points_in_box(lat, bad), "box bound"),
            (lambda: lattices.is_k_good((1, 2), bad), "K"),
            (lambda: lattices.kbad_census(3, bad, 2), "U"),
            (lambda: lattices.kbad_census(3, 20, bad), "K"),
        ]:
            with pytest.raises(ValueError, match=f"^{name} must be a finite number$"):
                call()


def test_enumerate_matrices_stream():
    mats = list(enumerate_matrices(1, 1))
    assert [m.rows for m in mats] == [((-1,),), ((0,),), ((1,),)]
    mats2 = list(enumerate_matrices(2, 1))
    assert len(mats2) == 81
    assert len(set(mats2)) == 81
    assert all(m.in_box(1) for m in mats2)


def test_enumerate_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_matrices(3, 2, budget=100))


def test_count_with_det_frozen():
    assert count_with_det(2, 1, 0) == 33
    assert count_with_det(2, 1, 2) == 4
    assert count_with_det(1, 5, 3) == 1
    assert count_with_det(1, 5, 9) == 0
    assert count_with_det(2, 3, 100) == 0  # beyond 2H^2


def test_count_with_det_methods_agree():
    rng = random.Random(0xD1CE)
    for _ in range(20):
        h = rng.randint(1, 3)
        d = rng.randint(-2 * h * h, 2 * h * h)
        fast = count_with_det(2, h, d, method="auto")
        naive = count_with_det(2, h, d, method="naive")
        assert fast == naive
    assert count_with_det(3, 1, 0, method="naive") == count_with_det(3, 1, 0)


def test_count_with_det_n3_sum_over_traces_equals_scan():
    # the free-trace det_trace3 pass against the n3_stats scan;
    # d = +-1 at H = 1 includes I and -I, at the two ends of the trace range
    for d in range(-6, 7):
        assert count_with_det(3, 1, d) == count_with_det(3, 1, d, method="naive"), d
    # at H = 2 the largest attained |det| is 32
    rng = random.Random(0xDE73)
    for d in [rng.randint(-32, 32) for _ in range(8)]:
        assert count_with_det(3, 2, d) == count_with_det(3, 2, d, method="naive"), d


def test_count_with_det_n3_equals_sum_over_traces():
    # the one free-trace pass against the sum of the fixed-trace counts over
    # |t| <= 3H that it replaced, on a seeded sample of d up to H = 4
    rng = random.Random(0xDE74)
    for h in (1, 2, 3, 4):
        for d in (0, 1, rng.randint(-6 * h**3, 6 * h**3)):
            by_trace = sum(count_det_trace(3, h, d, t) for t in range(-3 * h, 3 * h + 1))
            assert count_with_det(3, h, d) == by_trace, (h, d)


def test_count_with_det_n3_sharding_invariant():
    ref = count_with_det(3, 2, 3)
    assert ref > 0
    for parts, threads in product((1, 3, 8), (1, 2)):
        got = count_with_det(3, 2, 3, parts=parts, threads=threads)
        assert got == ref, (parts, threads)


def test_count_with_det_n3_budget_is_seven_rows():
    for h in (1, 2):
        cost = (2 * h + 1) ** 7
        with pytest.raises(BudgetExceededError):
            count_with_det(3, h, 0, budget=cost - 1)
        assert count_with_det(3, h, 0, budget=cost) == count_with_det(3, h, 0)


def test_count_with_det_n3_infeasible_runs_no_kernel(monkeypatch):
    def boom(*args):
        raise AssertionError("kernel ran for an infeasible target")

    monkeypatch.setattr(kernels, "det_trace3", boom)
    monkeypatch.setattr(kernels, "n3_stats", boom)
    for method in ("auto", "naive"):
        # Hadamard: |det A| <= (sqrt(3) H)^3 < 42 at H = 2
        assert count_with_det(3, 2, 42, method=method) == 0
        assert count_with_det(3, 2, -42, method=method) == 0


def test_method_aliases_are_refused():
    with pytest.raises(ValueError):
        count_with_det(2, 1, 0, method="fast")
    with pytest.raises(ValueError):
        count_charpoly(2, 1, MonicIntPoly((0, 0)), method="fast")


def test_targets_must_be_integers():
    with pytest.raises(ValueError):
        count_with_det(2, 2, 1.5)
    with pytest.raises(ValueError):
        count_det_trace(3, 1, 0, 0.5)
    with pytest.raises(ValueError):
        count_det_trace2(3, 1, 0, 0, "2")
    with pytest.raises(ValueError):
        count_singular_bordered(3, 2.5)
    # a bool is not an integer target, though Python counts True as 1
    for call in (
        lambda: count_with_det(2, 2, True),
        lambda: count_det_trace(3, 1, 0, False),
        lambda: count_det_trace2(3, 1, 0, 0, True),
        lambda: count_with_det(3, 1, np.bool_(True)),
        lambda: count_singular_bordered(3, True),
        lambda: run_grid(ExperimentSpec("det", n=2, grid=(2,), params={"d": True})),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            call()
    # numpy integers are integers
    assert count_with_det(2, 2, np.int64(1)) == count_with_det(2, 2, 1)
    assert count_det_trace(3, 1, np.int32(1), np.int64(1)) == count_det_trace(
        3, 1, 1, 1)
    assert count_det_trace2(3, 1, 0, 0, np.int16(2)) == count_det_trace2(3, 1, 0, 0, 2)
    assert count_singular_bordered(3, np.int64(1)) == count_singular_bordered(3, 1)


def test_det_partition_identity():
    for h in (1, 2):
        total = sum(
            count_with_det(2, h, d) for d in range(-2 * h * h, 2 * h * h + 1)
        )
        assert total == universe_size(2, h)


def test_count_charpoly_frozen():
    assert count_charpoly_fast2(1, MonicIntPoly((0, 0))) == 9  # X^2
    assert count_charpoly_fast2(1, MonicIntPoly((1, -2))) == 5  # (X-1)^2
    assert count_charpoly(2, 1, MonicIntPoly((0, 0))) == 9
    assert count_charpoly(1, 3, MonicIntPoly((-2,))) == 1  # X - 2
    assert count_charpoly(1, 3, MonicIntPoly((5,))) == 0


def test_fast2_equals_naive_random():
    rng = random.Random(0xFA57)
    for _ in range(60):
        h = rng.randint(1, 6)
        t = rng.randint(-2 * h, 2 * h)
        d = rng.randint(-2 * h * h, 2 * h * h)
        f = MonicIntPoly((d, -t))
        assert count_charpoly_fast2(h, f) == count_charpoly(
            2, h, f, method="naive"), (h, t, d)


def test_fast2_out_of_range_is_zero():
    assert count_charpoly_fast2(2, MonicIntPoly((0, -5))) == 0  # |t| > 2H
    assert count_charpoly_fast2(2, MonicIntPoly((9, 0))) == 0  # |d| > 2H^2


def test_charpoly_partition_identity():
    # summing R_2 over every feasible f covers the universe exactly once
    for h in (1, 2):
        total = 0
        for t in range(-2 * h, 2 * h + 1):
            for d in range(-2 * h * h, 2 * h * h + 1):
                total += count_charpoly_fast2(h, MonicIntPoly((d, -t)))
        assert total == universe_size(2, h)


def test_count_charpoly_auto_equals_naive():
    # the det/trace/trace^2 route against the reference scan for n <= 3,
    # with targets of both t2 parities and past the trace, tr A^2 and
    # Hadamard bounds
    rng = random.Random(0xC4A7)
    for _ in range(60):
        n = rng.randint(1, 3)
        h = rng.randint(1, 2)
        reach = [rng.randint(0, 2 * h), (n * h) ** n + 2, 2 * (n * h) ** 2][rng.randint(0, 2)]
        f = MonicIntPoly(tuple(rng.randint(-reach, reach) for _ in range(n)))
        assert count_charpoly(n, h, f, method="auto") == count_charpoly(
            n, h, f, method="naive"
        ), (n, h, f.coeffs)
    f = MonicIntPoly((0, -1, 0))  # X^3 - X: t2 = 2, even
    g = MonicIntPoly((0, 1, -1))  # X^3 - X^2 + X: t2 = -1, odd
    for p in (f, g):
        assert count_charpoly(3, 2, p, method="auto") == count_charpoly(
            3, 2, p, method="naive") > 0
    with pytest.raises(ValueError):
        count_charpoly(3, 1, f, method="sideways")


def test_count_charpoly_infeasible_n3_short_circuits():
    start = time.perf_counter()
    assert count_charpoly(3, 3, MonicIntPoly((0, 0, -100)), method="auto") == 0
    assert time.perf_counter() - start < 0.05


def test_count_charpoly_n3():
    f = charpoly(IntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    truth = sum(1 for m in all_matrices(3, 1) if charpoly(m) == f)
    for method in ("auto", "naive"):
        assert count_charpoly(3, 1, f, method=method) == truth, method


def test_det_trace_is_charpoly_for_n2():
    rng = random.Random(0x5151)
    for _ in range(30):
        h = rng.randint(1, 5)
        d = rng.randint(-2 * h * h, 2 * h * h)
        t = rng.randint(-2 * h, 2 * h)
        assert count_det_trace(2, h, d, t) == count_charpoly_fast2(
            h, MonicIntPoly((d, -t))
        )


def test_det_trace_frozen_n3():
    assert count_det_trace(3, 1, 0, 0) == 2223
    assert count_det_trace(3, 1, 0, 0, method="naive") == 2223
    assert count_det_trace(3, 2, 0, 9) == 0  # |t| > nH
    assert count_det_trace(3, 1, 1, 1) == count_det_trace(3, 1, 1, 1, method="naive")


def test_det_trace_python_oracle_n3():
    truth = sum(
        1 for m in all_matrices(3, 1) if det(m) == 0 and trace(m) == 0
    )
    assert truth == 2223


def test_det_trace_methods_agree_h2():
    rng = random.Random(0x3434)
    for _ in range(6):
        d = rng.randint(-4, 4)
        t = rng.randint(-4, 4)
        assert count_det_trace(3, 2, d, t) == count_det_trace(
            3, 2, d, t, method="naive"
        ), (d, t)


def test_hadamard_bound_short_circuits():
    # far beyond |det A| <= (sqrt(n) H)^n: answered without any scan
    for call in (
        lambda: count_det_trace(3, 5, 10**30, 0),
        lambda: count_with_det(3, 2, 10**6),
        lambda: count_det_trace2(3, 5, 10**30, 0, 0),
    ):
        start = time.perf_counter()
        assert call() == 0
        assert time.perf_counter() - start < 0.05
    # n = 3, H = 1: the bound admits |d| <= 5 (d^2 <= 27) and |tr A^2| <= 9,
    # while the largest determinant that occurs is 4
    dets = Counter(det(m) for m in all_matrices(3, 1))
    assert dets[4] > 0 and dets[5] == 0
    for d in (-6, -5, -4, 4, 5, 6):
        assert count_with_det(3, 1, d) == dets[d], d
        for t in (-1, 0, 1):
            assert count_det_trace(3, 1, d, t) == count_det_trace(
                3, 1, d, t, method="naive"
            ), (d, t)
        for t2 in (2, 9, 10):
            assert count_det_trace2(3, 1, d, 0, t2) == count_det_trace2(
                3, 1, d, 0, t2, method="naive"
            ), (d, t2)


def test_det_trace2_gate_n2():
    rng = random.Random(0x6767)
    for _ in range(30):
        h = rng.randint(1, 4)
        d = rng.randint(-2 * h * h, 2 * h * h)
        t1 = rng.randint(-2 * h, 2 * h)
        good_t2 = t1 * t1 - 2 * d
        assert count_det_trace2(2, h, d, t1, good_t2) == count_det_trace(2, h, d, t1)
        assert count_det_trace2(2, h, d, t1, good_t2 + 1) == 0


def test_det_trace2_n3_matches_naive():
    rng = random.Random(0x6868)
    cases = [(0, 0, 0), (0, 0, 2), (1, 1, 1)]
    for _ in range(5):
        cases.append(
            (rng.randint(-2, 2), rng.randint(-3, 3), rng.randint(-4, 8))
        )
    for d, t1, t2 in cases:
        fast = count_det_trace2(3, 1, d, t1, t2)
        naive = count_det_trace2(3, 1, d, t1, t2, method="naive")
        assert fast == naive, (d, t1, t2)
    # python oracle for one point
    d, t1, t2 = 0, 0, 2
    truth = 0
    for m in all_matrices(3, 1):
        sq = m @ m
        if det(m) == d and trace(m) == t1 and trace(sq) == t2:
            truth += 1
    assert count_det_trace2(3, 1, d, t1, t2) == truth


def test_bordered_frozen():
    assert count_singular_bordered(2, 1) == (6, 6)
    assert count_singular_bordered(2, 2) == (20, 20)
    assert count_singular_bordered(3, 2) == (63448, 22312)
    for k in (1, 2, 5):
        u, v = count_singular_bordered(2, k)
        assert u == v == (2 * k + 1) * 2 * k


def test_bordered_n3_naive_agrees():
    got_fast = count_singular_bordered(3, 1)
    got_naive = count_singular_bordered(3, 1, method="naive")
    assert got_fast == got_naive
    # independent python oracle over the 5^8 bordered grid at K=1
    import itertools

    k = 1
    u = v = 0
    for flat in itertools.product(range(-k, k + 1), repeat=8):
        rows = [
            [flat[0], flat[1], flat[2]],
            [flat[3], flat[4], flat[5]],
            [flat[6], flat[7], 0],
        ]
        m = IntMatrix(rows)
        if det(m) != 0:
            continue
        astar = (flat[2], flat[5])
        if astar == (0, 0):
            continue
        u += 1
        if flat[6] * flat[2] + flat[7] * flat[5] == 0:
            v += 1
    assert got_fast == (u, v)


def test_centralizer_frozen():
    assert centralizer_count(IntMatrix([[0, 1], [0, 0]]), 2) == 25
    assert centralizer_count(IntMatrix([[1, 0], [0, 2]]), 1) == 9
    for h in (1, 2, 3):
        assert centralizer_count(IntMatrix.identity(2), h) == (2 * h + 1) ** 4
        assert centralizer_count(IntMatrix([[1, 1], [0, 1]]), h) == (2 * h + 1) ** 2


def test_centralizer_of_a_skewed_matrix():
    # the commutant is {(x + y, y, 1000 y, x)}: |y| <= 3, |x| and |x + y|
    # <= 3000, counted under the default node cap
    a = IntMatrix([[1, 1], [1000, 0]])
    assert centralizer_count(a, 3000) == 6001 + 2 * sum(6001 - y for y in (1, 2, 3)) == 41995


def test_centralizer_matches_scan():
    rng = random.Random(0x7272)
    for _ in range(15):
        a = random_matrix(rng, 2, 2)
        h = rng.randint(1, 2)
        truth = sum(1 for b in all_matrices(2, h) if a @ b == b @ a)
        assert centralizer_count(a, h) == truth, a.rows


def test_max_charpoly_n2_matches_brute():
    for h in (1, 2):
        f, c = max_charpoly_count(2, h)
        tally = {}
        for m in all_matrices(2, h):
            tally[charpoly(m)] = tally.get(charpoly(m), 0) + 1
        best = max(tally.values())
        assert c == best
        assert tally[f] == best
        # deterministic tie-break: smallest (t, d) among the argmaxes
        args = [
            (-g.coeffs[1], g.coeffs[0]) for g, cnt in tally.items() if cnt == best
        ]
        t_best, d_best = min(args)
        assert f == MonicIntPoly((d_best, -t_best))


def test_max_charpoly_n3_frozen():
    f, c = max_charpoly_count(3, 1)
    assert c == 972
    assert f.all_coeffs() == (0, -1, 0, 1)  # X^3 - X
    tally = {}
    for m in all_matrices(3, 1):
        g = charpoly(m)
        tally[g] = tally.get(g, 0) + 1
    assert tally[f] == 972 == max(tally.values())


def test_parts_threads_never_change_counts():
    base = count_det_trace(3, 2, 0, 0)
    for parts, threads in ((3, 1), (5, 2), (8, 4)):
        assert count_det_trace(3, 2, 0, 0, parts=parts, threads=threads) == base
    base2 = count_with_det(2, 4, 3)
    for parts, threads in ((3, 2), (7, 3)):
        assert count_with_det(2, 4, 3, parts=parts, threads=threads) == base2
    f, c = max_charpoly_count(2, 5)
    for parts, threads in ((4, 2), (9, 3)):
        assert max_charpoly_count(2, 5, parts=parts, threads=threads) == (f, c)
    f, c = max_charpoly_count(3, 1)
    for parts, threads in ((5, 2), (8, 1)):
        assert max_charpoly_count(3, 1, parts=parts, threads=threads) == (f, c)


def test_work_below_the_thread_threshold_runs_in_the_calling_thread(monkeypatch):
    # every estimate here is below kernels._POOL_MIN_S: no pool starts, one
    # part runs, and the answers are those of threads = 1; the census takes
    # the same rule
    def census(threads):
        r = kbad_census(3, 12, 3, parts=8, threads=threads)
        return r.count, r.inv_norm_sum

    runs = [
        lambda threads: count_det_trace(3, 4, 1, 0, parts=8, threads=threads),  # 9^6
        lambda threads: count_with_det(3, 2, 0, parts=8, threads=threads),  # 5^7
        lambda threads: count_det_trace2(3, 3, 0, 0, 2, parts=8, threads=threads),
        lambda threads: count_singular_bordered(3, 3, parts=8, threads=threads),  # 7^6
        lambda threads: max_charpoly_count(3, 2, parts=8, threads=threads),  # 5^9
        lambda threads: count_with_det(2, 5, 1, method="naive", parts=8, threads=threads),
        lambda threads: count_det_trace(3, 1, 0, 0, method="naive", parts=8, threads=threads),
        census,
    ]
    want = [run(1) for run in runs]
    run_parts = kernels.run_parts
    calls = []

    def spy(fn, total_range, parts, threads):
        calls.append((parts, threads))
        return run_parts(fn, total_range, parts, threads)

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool started")

    monkeypatch.setattr(kernels, "run_parts", spy)
    monkeypatch.setattr(kernels, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(kernels.os, "cpu_count", lambda: 4)
    assert [run(2) for run in runs] == want
    assert calls == [(1, 1)] * len(runs)  # one part each, in the calling thread
    for name, call in (("threads", lambda: runs[0](0)),  # still refused
                       ("parts", lambda: count_det_trace(3, 4, 1, 0, parts=0)),
                       ("threads", lambda: census(0))):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
            call()
    # from the threshold on, the parts go to the pool, with the same answers
    monkeypatch.setattr(kernels, "_POOL_MIN_S", 9**6 * counting._DET_TRACE3_S)
    with pytest.raises(AssertionError, match="a thread pool started"):
        runs[0](2)
    monkeypatch.setattr(kernels, "_POOL_MIN_S", 0)
    with pytest.raises(AssertionError, match="a thread pool started"):
        census(2)
    monkeypatch.undo()
    monkeypatch.setattr(kernels, "run_parts", spy)
    monkeypatch.setattr(kernels, "_POOL_MIN_S", 0)
    monkeypatch.setattr(kernels.os, "cpu_count", lambda: 4)
    calls.clear()
    assert [run(2) for run in runs] == want
    assert calls == [(8, 2)] * len(runs)
    # with one worker to run them, the parts still collapse to one
    calls.clear()
    assert [run(1) for run in runs] == want
    assert calls == [(1, 1)] * len(runs)
    # the n = 2 charpoly maximum is one serial recurrence: even with the
    # threshold at 0 it starts no parts and no pool, answers alike for any
    # parts and threads, and still refuses a count below 1
    monkeypatch.setattr(kernels, "ThreadPoolExecutor", no_pool)
    calls.clear()
    want = max_charpoly_count(2, 16)
    for parts, threads in ((1, 1), (8, 1), (1, 2), (8, 2)):
        assert max_charpoly_count(2, 16, parts=parts, threads=threads) == want
    assert calls == []
    for name, parts, threads in (("parts", 0, 1), ("threads", 1, 0)):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
            max_charpoly_count(2, 16, parts=parts, threads=threads)


def test_bordered_k_past_the_representative_list_is_refused_by_name():
    with pytest.raises(ValueError, match=r"H \(or K\) in \[0, 49\], got 50"):
        count_singular_bordered(3, 50, budget=10**13)


def test_scan_far_past_the_budget_is_refused_as_a_power():
    # (2H+1)^(n^2) is compared by its logarithm and never computed
    with pytest.raises(BudgetExceededError) as exc:
        count_with_det(300, 1, 0, budget=100_000)
    assert exc.value.needed == "3^90000"
    with pytest.raises(BudgetExceededError) as exc:
        next(enumerate_matrices(300, 1, budget=100_000))
    assert exc.value.needed == "3^90000"
    # near the budget the exact size is compared, as before
    assert sum(1 for _ in enumerate_matrices(2, 1, budget=81)) == 81
    with pytest.raises(BudgetExceededError) as exc:
        next(enumerate_matrices(2, 1, budget=80))
    assert exc.value.needed == 81


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        count_charpoly(3, 2, MonicIntPoly((0, 0, 0)), budget=1000)
    with pytest.raises(BudgetExceededError):
        count_with_det(2, 3, 1, method="naive", budget=10)
    with pytest.raises(BudgetExceededError):
        count_det_trace(3, 3, 0, 0, method="naive", budget=10)
    # n >= 4 is a plain scan of (2H+1)^16 matrices, refused before it starts
    with pytest.raises(BudgetExceededError) as exc:
        count_charpoly(4, 1, MonicIntPoly((0, 0, 0, 0)), budget=10)
    assert exc.value.needed == 3**16


def test_max_charpoly_2_budget_is_the_scan():
    # charpoly2_scan adds one slice of width 3H^2+1 per trace t <= 0:
    # 11 * 76 at H = 5, (2H+1)(3H^2+1) at every H
    assert max_charpoly_count(2, 5, budget=836) == max_charpoly_count(2, 5)
    with pytest.raises(BudgetExceededError) as exc:
        max_charpoly_count(2, 5, budget=835)
    assert exc.value.needed == 836
    for h in (1, 16, 48):
        cost = (2 * h + 1) * (3 * h * h + 1)
        assert max_charpoly_count(2, h, budget=cost) == max_charpoly_count(2, h)
        with pytest.raises(BudgetExceededError) as exc:
            max_charpoly_count(2, h, budget=cost - 1)
        assert exc.value.needed == cost


def test_validation():
    with pytest.raises(ValueError):
        count_with_det(0, 1, 0)
    with pytest.raises(ValueError):
        count_with_det(2, 0, 0)
    with pytest.raises(ValueError):
        count_charpoly(2, 1, MonicIntPoly((1, 1, 1)))  # degree mismatch
    with pytest.raises(ValueError):
        count_det_trace(2, 1, 0, 0, method="sideways")
