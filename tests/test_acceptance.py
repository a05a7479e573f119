"""End-to-end acceptance checks, one verdict line per criterion.

Each criterion is a single test that pins one quantity at a fixed scale,
tolerance, and wall budget, and records a "criterion NN [PASS|FAIL]" line.  The conftest replays the collected lines
in the terminal summary so a plain `pytest -v` shows every verdict.
"""

import itertools
import math
import random
import time

from matstat import counting, experiments, lattices, multdep, numtheory
from matstat.counting import CountRecord
from matstat.exact import IntMatrix, MonicIntPoly, RationalMatrix, inverse_rational, mat_pow

from helpers import all_matrices, det_oracle, random_nonsingular

VERDICTS = []


def _verdict(num: int, ok: bool, detail: str, t0: float, budget_s: float):
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= budget_s
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail} ({elapsed:.1f}s / {budget_s:.0f}s)"
    VERDICTS.append(line)
    print(line)
    assert ok, line


def test_criterion_01_universe_totals():
    t0 = time.perf_counter()
    cases = [(n, h) for n in (1, 2) for h in (1, 2, 3)] + [(3, 1)]
    ok = True
    for n, h in cases:
        streamed = sum(1 for _ in counting.enumerate_matrices(n, h))
        ok = ok and streamed == counting.universe_size(n, h) == (2 * h + 1) ** (n * n)
    _verdict(1, ok, "streamed enumeration totals equal (2H+1)^(n^2) on 7 universes", t0, 60)


def test_criterion_02_partition_identities():
    t0 = time.perf_counter()
    ok = True
    for h in (2, 3):
        universe = counting.universe_size(2, h)
        det_sum = sum(
            counting.count_with_det(2, h, d) for d in range(-2 * h * h, 2 * h * h + 1)
        )
        cp_sum = 0
        for t in range(-2 * h, 2 * h + 1):
            for d in range(-2 * h * h, 2 * h * h + 1):
                cp_sum += counting.count_charpoly(2, h, MonicIntPoly((d, -t)), method="naive")
        ok = ok and det_sum == universe and cp_sum == universe
    _verdict(2, ok, "charpoly and determinant counts both partition 5^4 and 7^4", t0, 60)


def test_criterion_03_fast_slow_charpoly_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(0xACC3)
    ok = True
    for _ in range(200):
        h = rng.randint(1, 12)
        # stray a little outside the feasible (t, d) window to cover zeros
        t = rng.randint(-2 * h - 2, 2 * h + 2)
        d = rng.randint(-2 * h * h - 3, 2 * h * h + 3)
        f = MonicIntPoly((d, -t))
        ok = ok and counting.count_charpoly_fast2(h, f) == counting.count_charpoly(
            2, h, f, method="naive")
    _verdict(3, ok, "divisor-table counter equals direct scan on 200 random (H, f)", t0, 300)


def test_criterion_04_max_charpoly_slope_n2():
    t0 = time.perf_counter()
    records = []
    for h in (8, 16, 32, 64):
        _, count = counting.max_charpoly_count(2, h, parts=8, threads=4)
        records.append(CountRecord(2, h, "charpoly-max", "", count, 0.0))
    fit = experiments.fit_exponent(records)
    ok = 0.7 <= fit.slope <= 1.5
    _verdict(4, ok, f"max-over-f charpoly slope {fit.slope:.3f} within [0.7, 1.5]", t0, 600)


def test_criterion_05_det_trace_slope_n3():
    t0 = time.perf_counter()
    brute_h1 = sum(
        1
        for a in all_matrices(3, 1)
        if det_oracle([list(r) for r in a.rows]) == 0 and sum(a.rows[i][i] for i in range(3)) == 0
    )
    ok = counting.count_det_trace(3, 1, 0, 0) == brute_h1
    ok = ok and counting.count_det_trace(3, 2, 0, 0) == counting.count_det_trace(
        3, 2, 0, 0, method="naive"
    )
    records = []
    for h in (2, 3, 4, 5):
        count = counting.count_det_trace(3, h, 0, 0, parts=8, threads=4)
        records.append(CountRecord(3, h, "det-trace", "d=0;t=0", count, 0.0))
    fit = experiments.fit_exponent(records)
    ok = ok and fit.slope <= 5.8
    _verdict(5, ok, f"S_3(H;0,0) slope {fit.slope:.3f} <= 5.8, oracle-checked at H=1,2", t0, 1800)


def test_criterion_06_dual_gram_identity():
    t0 = time.perf_counter()
    rng = random.Random(0x6A11)
    ok = True
    done = 0
    while done < 500:
        t = rng.randint(2, 6)
        raw = [rng.randint(-30, 30) for _ in range(t)]
        g = math.gcd(*raw)
        if g == 0:
            continue
        lam = tuple(x // g for x in raw)
        perp = lattices.orthogonal_lattice([lam])
        ok = ok and perp.gram_det() == lattices.norm_sq(lam)
        done += 1
    _verdict(6, ok, "orthogonal-lattice Gram det equals |lambda|^2 on 500 primitive vectors", t0, 60)


def test_criterion_07_box_counts_vs_scan():
    t0 = time.perf_counter()
    rng = random.Random(0x0707)
    ok = True
    for _ in range(100):
        t = rng.randint(1, 3)
        r = rng.randint(0, t)
        while True:
            rows = [[rng.randint(-4, 4) for _ in range(t)] for _ in range(r)]
            try:
                lat = lattices.Lattice(t, rows)
                break
            except ValueError:
                continue
        h = rng.randint(1, 10)
        fast = lattices.points_in_box(lat, h)
        slow = sum(
            1 for p in itertools.product(range(-h, h + 1), repeat=t) if lat.contains(p)
        )
        ok = ok and fast == slow
    _verdict(7, ok, "points_in_box equals naive grid scan on 100 random lattices", t0, 120)


def test_criterion_08_census_trend_and_emptiness():
    t0 = time.perf_counter()
    r20 = lattices.kbad_census(3, 20, 5, parts=8, threads=4)
    scale = lambda u, k: u**4 / k**2  # t=3: U^(t+1/(t-2)) K^(-(t-1)/(t-2))
    c_fit = r20.count / scale(20, 5)
    r40 = lattices.kbad_census(3, 40, 7, parts=8, threads=4)
    r80 = lattices.kbad_census(3, 80, 9, parts=8, threads=4)
    ok = r40.count <= c_fit * scale(40, 7) and r80.count <= c_fit * scale(80, 9)
    for u, k in ((5, 5), (8, 8), (8, 9.5), (20, 20)):
        ok = ok and lattices.kbad_census(3, u, k).count == 0
    _verdict(
        8,
        ok,
        f"bad-vector census {r40.count}, {r80.count} under fitted U^4/K^2 bound; empty at K >= U",
        t0,
        600,
    )


def _brute_dependence(mats, bound):
    """Unpruned exact search over the full exponent box, canonical order."""
    powers = []
    for a in mats:
        inv = inverse_rational(a)
        table = {0: RationalMatrix.identity(a.n)}
        for e in range(1, bound + 1):
            table[e] = table[e - 1] @ RationalMatrix.from_int(a)
            table[-e] = table[-(e - 1)] @ inv
        powers.append(table)
    candidates = [
        k
        for k in itertools.product(range(-bound, bound + 1), repeat=len(mats))
        if any(k)
    ]
    candidates.sort(key=lambda k: (max(abs(x) for x in k), sum(x * x for x in k), k))
    for k in candidates:
        prod = powers[0][k[0]]
        for i in range(1, len(mats)):
            prod = prod @ powers[i][k[i]]
        if prod.is_identity():
            return tuple(k)
    return None


def test_criterion_09_dependence_search_vs_brute():
    t0 = time.perf_counter()
    rng = random.Random(0x0909)
    ok = True
    dependent = 0
    for _ in range(200):
        pair = (random_nonsingular(rng, 2, 3), random_nonsingular(rng, 2, 3))
        found = multdep.find_dependence(pair, bound=6)
        brute = _brute_dependence(pair, 6)
        ok = ok and found == brute
        if found is not None:
            dependent += 1
            ok = ok and multdep.check_relation(pair, found)
    _verdict(
        9,
        ok,
        f"find_dependence(B=6) matches unpruned brute force on 200 pairs ({dependent} dependent)",
        t0,
        600,
    )


def test_criterion_10_shear_family_threshold():
    t0 = time.perf_counter()
    ok = True
    for h in range(2, 11):
        pair = multdep.unipotent_shear_pair(h)
        witness = multdep.find_dependence(pair, bound=h)
        ok = (
            ok
            and witness is not None
            and tuple(abs(x) for x in witness) == (h, h - 1)
            and multdep.check_relation(pair, witness)
            and multdep.find_dependence(pair, bound=h - 1) is None
        )
    _verdict(10, ok, "shear pair needs exponent H: witness (H, -(H-1)) at B=H, none at B=H-1", t0, 60)


def test_criterion_11_constructions_exact():
    t0 = time.perf_counter()
    rng = random.Random(0xB10C)
    ok = True
    for _ in range(50):
        blocks = [random_nonsingular(rng, 2, 4) for _ in range(4)]
        mats = multdep.construct_even(blocks)
        ok = ok and multdep.check_relation(mats, multdep.alternating_relation_vector(4))
    for _ in range(50):
        blocks = [random_nonsingular(rng, 2, 4) for _ in range(2)]
        mats = multdep.construct_odd(blocks)
        ok = ok and multdep.check_relation(mats, multdep.alternating_relation_vector(3))
    a, m = multdep.construct_torsion_block((3, 4))
    ok = ok and m == 12 and a.n == 4 and mat_pow(a, 12).is_identity()
    for j in (1, 2, 3, 4, 6):
        ok = ok and not mat_pow(a, j).is_identity()
    _verdict(11, ok, "100 even/odd constructions satisfy alternating relations; torsion order 12", t0, 60)


def test_criterion_12_totient_bounds():
    t0 = time.perf_counter()
    table = numtheory.totients_up_to(64)
    values = [v for v in range(1, 25) if v in table]

    def brute(n):
        if n == 0:
            return 0
        best = -1
        for m in values:
            if m > n:
                break
            sub = brute(n - m)
            if sub >= 0:
                best = max(best, m * m + sub)
        return best

    ok = all(numtheory.max_totient_square_sum(n) == brute(n) for n in range(25))
    worst = 0.0
    for n in range(100, 100_001):
        gap = n - numtheory.largest_totient_below(n)
        worst = max(worst, gap / n ** (21 / 40))
        if gap > n ** (21 / 40):
            ok = False
            break
    _verdict(
        12,
        ok,
        f"w(n) DP exact to n=24; v(n) >= n - n^(21/40) on [100, 1e5] (worst ratio {worst:.3f})",
        t0,
        120,
    )


def test_criterion_13_centralizer_scaling():
    t0 = time.perf_counter()
    shear = IntMatrix([[1, 1], [0, 1]])
    records = []
    for h in (4, 8, 16, 32):
        records.append(
            CountRecord(2, h, "centralizer", "", counting.centralizer_count(shear, h), 0.0)
        )
    fit = experiments.fit_exponent(records)
    ok = fit.slope <= 2.4
    ident = IntMatrix.identity(2)
    for h in (1, 3, 6):
        ok = ok and counting.centralizer_count(ident, h) == (2 * h + 1) ** 4
    _verdict(13, ok, f"centralizer slope {fit.slope:.3f} <= 2.4; identity count exact", t0, 120)


def test_criterion_14_thread_determinism(tmp_path):
    t0 = time.perf_counter()
    outputs = {}
    for threads in (1, 4):
        spec = experiments.ExperimentSpec(
            kind="kbad-census",
            n=3,
            grid=(8, 12, 16),
            params={"K": "sqrt"},
            parts=6,
            threads=threads,
        )
        records = experiments.run_grid(spec)
        out = tmp_path / f"census-{threads}.json"
        experiments.write_outputs(spec, records, str(out), fmt="json")
        outputs[threads] = (
            experiments.records_to_csv(records),
            experiments.records_to_json(records),
            out.read_bytes(),
        )
    ok = outputs[1] == outputs[4]
    _verdict(14, ok, "grid rerun with 1 vs 4 threads is byte-identical (csv, json, file)", t0, 300)
