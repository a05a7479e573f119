"""The three workloads: seeded inputs, the operations of one pass, and the
check of every answer.

An operation's `call` runs the program and is timed; `post` (untimed)
turns what it returned into a plain, comparable answer; `check` compares
that answer with an independent oracle (see oracle.py) and returns a
message when it is wrong.  Operations call matstat through module
attributes at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional

from matstat import cli, counting, exact, experiments, lattices, multdep, numtheory
from matstat.exact import IntMatrix, MonicIntPoly
from matstat.experiments import ExperimentSpec

import oracle

@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    post: Callable[[object], object] = lambda raw: raw
    # an input the program must refuse with a one-line `error:` and a
    # nonzero exit from cli.main, without a traceback
    error_contract: bool = False


@dataclass
class Workload:
    name: str
    seed: int
    ops: List[Op]
    workdir: str
    # run after the passes with every answer by op name; returns messages
    final_checks: List[Callable[[dict], List[str]]] = field(default_factory=list)
    # the program's lazy set-up that these operations trigger on first use;
    # run before timing and counted in setup_s
    lazy_setup: List[Callable[[], object]] = field(default_factory=list)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def build(name: str, seed: int, workdir: str) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    builder = {"kernel-count": _kernel_count, "exact-lattice": _exact_lattice,
               "grid-sharded": _grid_sharded}[name]
    wl = Workload(name, seed, [], workdir)
    builder(wl, rng)
    return wl


def _expect(expected):
    """A check that compares the answer with a lazily computed oracle."""
    def check(answer):
        want = expected()
        return None if answer == want else f"got {answer!r}, expected {want!r}"
    return check


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)


# ---------------------------------------------------------------------------
# kernel-count: every numpy kernel twin, parts = 1, threads = 1


def _kernel_count(wl: Workload, rng: random.Random) -> None:
    ref = oracle.reference
    d3 = rng.randint(-3, 3)
    det_targets = [rng.randint(-4000, 4000) for _ in range(20)]
    cp_targets = [(rng.randint(-40, 40), rng.randint(-400, 400)) for _ in range(20)]
    naive_det = [rng.randint(-60, 60) for _ in range(10)]
    naive_dt = [(rng.randint(-60, 60), rng.randint(-20, 20)) for _ in range(10)]

    def max2():
        f, c = counting.max_charpoly_count(2, 48)
        return f.coeffs, c

    def max2_expected():
        t, d, c, _ = oracle.charpoly2_max(48)
        return (d, -t), c

    def max3():
        f, c = counting.max_charpoly_count(3, 2)
        return f.coeffs, c

    def census():
        res = lattices.kbad_census(3, 60, 8)
        return res.count, res.inv_norm_sum

    def census_check(ans):
        want = ref()["census3"]["60,64"]
        ok = ans[0] == want[0] and _close(ans[1], want[1])
        return None if ok else f"got {ans!r}, expected {want!r}"

    def naive_sweep():
        return (tuple(counting.count_with_det(2, 30, d, method="naive") for d in naive_det)
                + tuple(counting.count_det_trace(2, 30, d, t, method="naive")
                        for d, t in naive_dt))

    wl.ops += [
        Op("max_charpoly_2_48", max2, _expect(max2_expected)),
        Op("det_trace_3_4", lambda: counting.count_det_trace(3, 4, 1, 0),
           _expect(lambda: ref()["det_trace3"]["4,1,0"])),
        Op("det_trace2_3_3", lambda: counting.count_det_trace2(3, 3, 0, 0, 2),
           _expect(lambda: ref()["det_trace3_t2"]["3,0,0,2"])),
        Op("bordered_3_3", lambda: counting.count_singular_bordered(3, 3),
           _expect(lambda: tuple(ref()["bordered3"]["3"]))),
        Op("kbad_census_3_60", census, census_check),
        Op("count_with_det_3_2", lambda: counting.count_with_det(3, 2, d3),
           _expect(lambda: oracle.count_det3(2, d3))),
        Op("max_charpoly_3_2", max3, _expect(lambda: oracle.max_charpoly3(2))),
        Op("det2_sweep_200",
           lambda: tuple(counting.count_with_det(2, 200, d) for d in det_targets),
           _expect(lambda: tuple(oracle.det2(200, d) for d in det_targets))),
        Op("charpoly2_sweep_200",
           lambda: tuple(counting.count_charpoly_fast2(200, MonicIntPoly((d, -t)))
                         for t, d in cp_targets),
           _expect(lambda: tuple(oracle.charpoly2(200, t, d) for t, d in cp_targets))),
        Op("naive2_sweep_30", naive_sweep,
           _expect(lambda: tuple(oracle.det2(30, d) for d in naive_det)
                   + tuple(oracle.charpoly2(30, t, d) for d, t in naive_dt))),
    ]


# ---------------------------------------------------------------------------
# exact-lattice: LLL, Fincke-Pohst, HNF and Fraction elimination


def _primitive(rng, t, m):
    while True:
        v = tuple(rng.randint(-m, m) for _ in range(t))
        if math.gcd(*v) == 1:
            return v


def _nonsingular(rng, n, m):
    while True:
        a = [[rng.randint(-m, m) for _ in range(n)] for _ in range(n)]
        if oracle.int_det(a):
            return a


def _small_centralizer(rng):
    """A 3x3 matrix whose commutant has dimension 3, the generic case; a
    larger commutant (a scalar block) would turn the count into a scan of
    a big part of the box."""
    while True:
        a = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        comm = [[(a[i][p] if q == j else 0) - (a[q][j] if p == i else 0)
                 for p in range(3) for q in range(3)] for i in range(3) for j in range(3)]
        if oracle.int_rank(comm) == 6:
            return a


def _witness_check(mats, expected_linf):
    """A dependence witness: nonzero, the expected sup norm, and the
    ordered product is the identity by this benchmark's own arithmetic."""
    rows = [[list(r) for r in m.rows] for m in mats]

    def check(k):
        if k is None or not any(k):
            return f"no witness: {k!r}"
        if max(abs(x) for x in k) != expected_linf:
            return f"witness {k!r} is not of sup norm {expected_linf}"
        if not oracle.is_identity(oracle.word_product(rows, k)):
            return f"witness {k!r} does not give the identity"
        return None
    return check


def _prime_factorize():
    # the first factorize() builds the 10^6-entry trial-division sieve;
    # multdep's dependence search factors determinants through it
    return numtheory.factorize(6)


def _exact_lattice(wl: Workload, rng: random.Random) -> None:
    wl.lazy_setup.append(_prime_factorize)
    shear24 = multdep.unipotent_shear_pair(24)
    even = []
    for _ in range(3):
        blocks = [IntMatrix(_nonsingular(rng, 2, 3)) for _ in range(4)]
        even.append(multdep.construct_even(blocks))
    vectors = [_primitive(rng, 4, 7) for _ in range(12)] + [
        _primitive(rng, 5, 4) for _ in range(12)]
    kbound = 4
    cent = [_small_centralizer(rng) for _ in range(4)]
    big = [_nonsingular(rng, 7, 9) for _ in range(4)]
    big_m = [IntMatrix(a) for a in big]
    word_pair = multdep.unipotent_shear_pair(4)

    def even_check(answers):
        for k, tup in zip(answers, even):
            rows = [[list(r) for r in m.rows] for m in tup]
            # the construction's own alternating relation
            if not oracle.is_identity(oracle.word_product(rows, (1, -1, 1, -1))):
                return "construct_even tuple breaks the alternating relation"
            msg = _witness_check(tup, 1)(k)
            if msg:
                return msg
        return None

    def census():
        res = lattices.kbad_census(4, 3, 2)
        return res.count, res.inv_norm_sum

    def census_check(ans):
        want = oracle.census_generic(4, 3, 4)
        ok = ans[0] == want[0] and _close(ans[1], want[1])
        return None if ok else f"got {ans!r}, expected {want!r}"

    def good():
        out = []
        for v in vectors:
            verdict = lattices.is_k_good(v, kbound)
            out.append((verdict.good, tuple(verdict.minima_sq)))
        return tuple(out)

    def good_check(answers):
        for v, (is_good, minima) in zip(vectors, answers):
            want = oracle.dual_minima(v)
            if minima != want or is_good != all(m <= kbound ** 2 for m in want):
                return f"{v}: got {(is_good, minima)}, minima are {want}"
        return None

    def reduced():
        return tuple(lattices.reduced_basis(lattices.orthogonal_lattice([v]))
                     for v in vectors)

    def reduced_check(answers):
        for v, basis in zip(vectors, answers):
            minima = oracle.dual_minima(v)
            norms = [sum(x * x for x in b) for b in basis]
            gram = [[sum(x * y for x, y in zip(a, b)) for b in basis] for a in basis]
            if len(basis) != len(v) - 1 or any(
                    sum(x * y for x, y in zip(b, v)) for b in basis):
                return f"{v}: {basis} is not in the orthogonal lattice"
            # a basis of v^perp has Gram determinant |v|^2 (v primitive)
            if oracle.int_det(gram) != sum(x * x for x in v):
                return f"{v}: {basis} does not generate the orthogonal lattice"
            if norms != sorted(norms) or any(n < m for n, m in zip(norms, minima)):
                return f"{v}: norms {norms} against minima {minima}"
            # in rank <= 3 the successive minima are always attained by a basis
            if len(basis) <= 3 and norms != list(minima):
                return f"{v}: norms {norms} are not the minima {minima}"
        return None

    def centralizers():
        return tuple(counting.centralizer_count(IntMatrix(a), 2) for a in cent) + (
            counting.centralizer_count(IntMatrix([[1, 1], [0, 1]]), 20),)

    def word():
        w = multdep.find_kernel_word(word_pair, 8)
        return None if w is None else (w.letters, w.exponent_sums)

    def word_check(ans):
        # the shears commute: a word is the identity iff 3 s1 + 4 s2 = 0 for
        # its exponent sums, so the shortest has length 7 and sums +-(4, -3)
        if ans is None:
            return "no kernel word found"
        letters, sums = ans
        if len(letters) != 7 or tuple(sums) not in ((4, -3), (-4, 3)):
            return f"word {ans!r} is not a shortest kernel word"
        rows = [[list(r) for r in m.rows] for m in word_pair]
        prod = oracle.word_product([rows[i] for i, _ in letters], [s for _, s in letters])
        return None if oracle.is_identity(prod) else f"word {ans!r} is not the identity"

    def frac_rows(m):
        return tuple(tuple(Fraction(x) for x in r) for r in m.rows)

    def sym(fn):
        def expected():
            import sympy  # heavy; loaded only for the checks after the run
            return tuple(fn(sympy.Matrix(a)) for a in big)
        return expected

    def sym_frac(m):
        return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in m.row(i))
                     for i in range(m.rows))

    wl.ops += [
        Op("find_dependence_shear24",
           lambda: multdep.find_dependence(shear24, bound=24),
           lambda k: None if k == (-24, 23) else f"got {k!r}, expected (-24, 23)"),
        Op("find_dependence_even4",
           lambda: tuple(multdep.find_dependence(t, bound=2) for t in even), even_check),
        Op("kbad_census_4_3", census, census_check),
        Op("is_k_good", good, good_check),
        Op("reduced_basis", reduced, reduced_check),
        Op("points_in_box",
           lambda: lattices.points_in_box(lattices.orthogonal_lattice([(1, 2, 3, 4)]), 10),
           _expect(lambda: oracle.box_points_orthogonal((1, 2, 3, 4), 10))),
        Op("centralizer_count", centralizers,
           _expect(lambda: tuple(oracle.centralizer_brute(a, 2) for a in cent)
                   + ((2 * 20 + 1) ** 2,))),
        Op("find_kernel_word", word, word_check),
        Op("charpoly_7x7", lambda: tuple(exact.charpoly(m).coeffs for m in big_m),
           _expect(sym(lambda s: tuple(int(c) for c in reversed(
               s.charpoly().all_coeffs()[1:]))))),
        Op("det_7x7", lambda: tuple(exact.det(m) for m in big_m),
           _expect(sym(lambda s: int(s.det())))),
        Op("inverse_7x7", lambda: tuple(frac_rows(exact.inverse_rational(m)) for m in big_m),
           _expect(sym(lambda s: sym_frac(s.inv())))),
        Op("mat_pow_7x7", lambda: tuple(frac_rows(exact.mat_pow(m, -3)) for m in big_m),
           _expect(sym(lambda s: sym_frac(s.inv() ** 3)))),
    ]


# ---------------------------------------------------------------------------
# grid-sharded: run_grid as `matstat fit` drives it, parts = 8, threads = 2


def _records(records):
    return tuple((r.h, r.params, r.count) for r in records)


def _params(text):
    return dict(p.split("=", 1) for p in text.split(";")) if text else {}


def _cli(argv):
    """cli.main in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # sys.exit() or argparse ending main()
            rc = exc.code
            if isinstance(rc, str):  # as the interpreter does: message, exit 1
                print(rc, file=err)
                rc = 1
            rc = rc or 0
    return rc, out.getvalue(), err.getvalue()


def _cli_value(stdout, label):
    for line in stdout.splitlines():
        if line.startswith(label + " = "):
            return line.split(" = ", 1)[1]
    return None


def _grid_sharded(wl: Workload, rng: random.Random) -> None:
    wl.lazy_setup.append(_prime_factorize)
    ref = oracle.reference
    d = rng.choice(oracle.DET_TRACE_D)
    t = rng.choice(oracle.DET_TRACE_T)
    common = dict(parts=8, threads=2)
    specs = {
        "charpoly-max": ExperimentSpec("charpoly-max", 2, (16, 24, 32, 48), **common),
        "det-trace": ExperimentSpec("det-trace", 3, (2, 3, 4), {"d": d, "t": t}, **common),
        "singular-bordered": ExperimentSpec("singular-bordered", 3, (1, 2, 3), **common),
        "kbad-census": ExperimentSpec("kbad-census", 3, (20, 40, 60), {"t": 3}, **common),
        "totient-v": ExperimentSpec("totient-v", 1, (1000, 10000, 50000), **common),
        "multdep-shear": ExperimentSpec("multdep-shear", 2, (6, 12, 18), **common),
    }
    state = {}
    clear_totients = numtheory.totients_up_to.cache_clear

    def grid(kind):
        def call():
            if kind == "totient-v":
                clear_totients()  # each pass starts as a fresh process would
            state[kind] = experiments.run_grid(specs[kind])
            return state[kind]
        return call

    def check_charpoly_max(recs):
        for h, params, count in recs:
            tv, dv, cnt, _ = oracle.charpoly2_max(h)
            got = oracle.parse_poly(_params(params)["argmax"].split("<")[1].rstrip(">"))
            if (count, got) != (cnt, (dv, -tv)):
                return f"H={h}: got {count} at {got}, expected {cnt} at {(dv, -tv)}"
        return None

    def check_table(expected):
        def check(recs):
            want = tuple(expected(h) for h, _, _ in recs)
            got = tuple((c, p) for _, p, c in recs)
            return None if got == want else f"got {got!r}, expected {want!r}"
        return check

    def census_check(recs):
        for h, params, count in recs:
            k = math.ceil(math.sqrt(h))
            want = ref()["census3"][f"{h},{k * k}"]
            p = _params(params)
            if count != want[0] or not _close(float(p["inv_norm_sum"]), want[1]):
                return f"U={h}: got {count}, {p}, expected {want}"
        return None

    def fits():
        return tuple((tuple((r.h, r.count) for r in state[k]),
                      dataclasses.astuple(experiments.fit_exponent(state[k]))[:3])
                     for k in specs)

    def fits_check(answers):
        for pts, got in answers:
            want = oracle.loglog_fit(pts)
            if not all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
                       for a, b in zip(got, want)):
                return f"fit of {pts}: got {got}, expected {want}"
        return None

    def write():
        for kind, spec in specs.items():
            for fmt in ("csv", "json"):
                experiments.write_outputs(spec, state[kind],
                                          os.path.join(wl.workdir, f"{kind}.{fmt}"), fmt=fmt)
        return tuple((k, _records(state[k])) for k in specs)

    def read_back(expected):
        out = []
        for kind, recs in expected:
            base = os.path.join(wl.workdir, kind)
            with open(base + ".csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            with open(base + ".json") as fh:
                js = json.load(fh)["records"]
            with open(base + ".csv.manifest.json") as fh:
                manifest = json.load(fh)
            out.append((kind, recs,
                        tuple((float(r["h"]), r["params"], int(r["count"])) for r in rows),
                        tuple((float(r["h"]), r["params"], int(r["count"])) for r in js),
                        manifest["records"], manifest["spec"]["kind"]))
        return tuple(out)

    def write_check(answers):
        for kind, recs, from_csv, from_json, n, mkind in answers:
            want = tuple((float(h), p, c) for h, p, c in recs)
            if from_csv != want or from_json != want or n != len(recs) or mkind != kind:
                return f"{kind}: files do not hold the records"
        return None

    def to_json(path, obj):
        with open(os.path.join(wl.workdir, path), "w") as fh:
            json.dump(obj, fh)
        return os.path.join(wl.workdir, path)

    shear10 = to_json("shear10.json", {"matrices": [[list(r) for r in m.rows]
                                                    for m in multdep.unipotent_shear_pair(10)]})
    shear1 = to_json("shear1.json", {"matrix": [[1, 1], [0, 1]]})
    bad = to_json("bad.json", {"matrix": [[1, 2.5], [0, 1]]})
    cent_csv = os.path.join(wl.workdir, "cent.csv")
    cli_d = rng.randint(-100, 100)
    cli_t, cli_dd = rng.randint(-30, 30), rng.randint(-200, 200)
    cli_v = _primitive(rng, 4, 6)

    def cli_check(label, expected):
        def check(ans):
            rc, out, _ = ans
            got = _cli_value(out, label)
            want = expected()
            return None if (rc, got) == (0, want) else f"got {(rc, got)!r}, expected {want!r}"
        return check

    def good_expected():
        m = oracle.dual_minima(cli_v)
        return ("good" if all(x <= 16 for x in m) else "bad") + "|" + ",".join(map(str, m))

    def good_check(ans):
        rc, out, _ = ans
        got = f"{_cli_value(out, 'verdict')}|{_cli_value(out, 'minima squared')}"
        return None if (rc, got) == (0, good_expected()) else f"got {ans!r}"

    def fit_cli():
        return _cli(["fit", "--kind", "centralizer", "--n", "2", "--matrix", shear1,
                     "--grid", "4,8,16", "--out", cent_csv])

    def fit_cli_post(ans):
        with open(cent_csv, newline="") as fh:
            return ans[0], tuple(int(r["count"]) for r in csv.DictReader(fh))

    def fit_cli_check(ans):
        want = (0, tuple((2 * h + 1) ** 2 for h in (4, 8, 16)))
        return None if ans == want else f"got {ans!r}, expected {want!r}"

    def contract(ans):
        return None  # judged by the harness: nonzero exit and an `error:` line

    wl.ops += [
        Op("grid_charpoly_max", grid("charpoly-max"), check_charpoly_max, _records),
        Op("grid_det_trace", grid("det-trace"),
           check_table(lambda h: (ref()["det_trace3"][f"{h},{d},{t}"], f"d={d};t={t}")),
           _records),
        Op("grid_singular_bordered", grid("singular-bordered"),
           check_table(lambda h: (ref()["bordered3"][str(h)][0],
                                  f"v={ref()['bordered3'][str(h)][1]}")),
           _records),
        Op("grid_kbad_census", grid("kbad-census"), census_check, _records),
        Op("grid_totient_v", grid("totient-v"),
           check_table(lambda h: (oracle.largest_totient_at_most(h), "")), _records),
        Op("grid_multdep_shear", grid("multdep-shear"),
           check_table(lambda h: (h, f"witness={-h},{h - 1}")), _records),
        Op("fit_exponent", fits, fits_check),
        Op("write_outputs", write, write_check, read_back),
        Op("cli_count_det", lambda: _cli(["count", "det", "--n", "2", "--H", "25",
                                          f"--d={cli_d}"]),
           cli_check("det-count", lambda: str(oracle.det2(25, cli_d)))),
        Op("cli_count_charpoly",
           lambda: _cli(["count", "charpoly", "--n", "2", "--H", "30",
                         f"--f={cli_dd},{-cli_t},1"]),
           cli_check("charpoly-count", lambda: str(oracle.charpoly2(30, cli_t, cli_dd)))),
        Op("cli_lattice_good",
           lambda: _cli(["lattice", "good", "--vector=" + ",".join(map(str, cli_v)),
                         "--K", "4"]), good_check),
        Op("cli_multdep_check", lambda: _cli(["multdep", "check", "--tuple", shear10]),
           cli_check("witness", lambda: "-10,9")),
        Op("cli_fit_centralizer", fit_cli, fit_cli_check, fit_cli_post),
        Op("err_count_det_n4", lambda: _cli(["count", "det", "--n", "4", "--H", "3"]),
           contract, error_contract=True),
        Op("err_lattice_census_u20000", lambda: _cli(["lattice", "census", "--U", "20000"]),
           contract, error_contract=True),
        Op("err_multdep_check_no_tuple", lambda: _cli(["multdep", "check"]),
           contract, error_contract=True),
        Op("err_centralizer_float_entry",
           lambda: _cli(["count", "centralizer", "--matrix", bad]),
           contract, error_contract=True),
    ]

    def same_with_one_thread(answers):
        msgs = []
        for kind, spec in specs.items():
            op = "grid_" + kind.replace("-", "_")
            if op not in answers:
                continue
            if kind == "totient-v":
                clear_totients()
            one = _records(experiments.run_grid(dataclasses.replace(spec, threads=1)))
            if any(a != one for a in answers[op]):
                msgs.append(f"{op}: threads=2 answers differ from threads=1")
        return msgs

    wl.final_checks.append(same_with_one_thread)
