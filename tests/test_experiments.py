"""Grid runner, exponent fits, serialization determinism."""

import json
import math
from fractions import Fraction

import pytest

from matstat import counting, experiments, kernels
from matstat.counting import CountRecord
from matstat.exact import IntMatrix
from matstat.experiments import (
    ExperimentSpec,
    compare_to_bound,
    fit_exponent,
    records_to_csv,
    records_to_json,
    run_grid,
    write_outputs,
)


def _rec(h, count, params="", kind="det", n=2):
    return CountRecord(n=n, h=h, kind=kind, params=params, count=count, elapsed_ms=1.0)


# one grid per route of every kind that reads parts, small enough that
# every part is a few rows of its shard axis
_SHARDED_SPECS = [
    ("charpoly", 2, (3, 6), {"f": [2, -1, 1]}),
    ("charpoly", 3, (1, 2), {"f": [0, -1, 0, 1]}),
    ("charpoly-max", 2, (4, 9), {}),
    ("charpoly-max", 3, (1, 2), {}),
    ("det", 2, (3,), {"d": 2}),
    ("det", 3, (2, 3), {"d": 1}),
    ("det-trace", 3, (2, 3), {"d": 1, "t": 0}),
    ("det-trace", 3, (2,), {"d": 0, "t": 0, "t2": 2}),
    ("singular-bordered", 3, (2, 3), {}),
    ("kbad-census", 3, (20, 40), {"t": 3}),
    ("kbad-census", 3, (100,), {"K": 8}),  # summed part by part, the last bit moved
]


def test_every_sharded_kind_gives_the_same_records_for_any_partition(monkeypatch):
    # parts and threads are a scheduling choice: with no threshold, so the
    # requested parts really run, the records are byte-identical for
    # parts 1, 3, 8 on 1 or 2 threads
    monkeypatch.setattr(kernels, "_POOL_MIN_S", 0)
    monkeypatch.setattr(kernels.os, "cpu_count", lambda: 2)
    sharded = {k for k, c in experiments.COUNTERS.items() if "parts" in c.options}
    assert sharded == {kind for kind, *_ in _SHARDED_SPECS}
    for kind, n, grid, params in _SHARDED_SPECS:
        outs = set()
        for parts in (1, 3, 8):
            for threads in (1, 2):
                recs = run_grid(ExperimentSpec(kind, n, grid, params, parts=parts,
                                               threads=threads))
                outs.add((records_to_csv(recs), records_to_json(recs)))
        assert len(outs) == 1, (kind, n, grid, params)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(kind="nope", grid=(1,))
    with pytest.raises(ValueError):
        ExperimentSpec(kind="det", grid=())
    spec = ExperimentSpec(kind="det", grid=[2, 3], params={"d": 1})
    assert spec.grid == (2, 3)
    assert spec.canonical()["params"] == {"d": 1}


def test_canonical_records_only_the_options_a_kind_reads():
    # totient-v reads no run option, centralizer only its budget (as the
    # lattice node cap), det-trace all three; a spec passing an unread one
    # still runs
    def options(kind, n, **kw):
        spec = ExperimentSpec(kind=kind, n=n, grid=(2,), parts=3, threads=5, budget=10**6, **kw)
        return {k: v for k, v in spec.canonical().items() if k in ("parts", "threads", "budget")}

    assert options("totient-v", 1) == {}
    assert options("centralizer", 2, params={"matrix": IntMatrix([[1, 1], [0, 1]])}) == {
        "budget": 10**6}
    assert options("det-trace", 3, params={"d": 1, "t": 0}) == {
        "parts": 3, "threads": 5, "budget": 10**6}
    assert [r.count for r in run_grid(ExperimentSpec("totient-v", 1, (10,), parts=3, threads=5))] == [10]


def test_run_grid_det_matches_direct():
    spec = ExperimentSpec(kind="det", n=2, grid=(1, 2), params={"d": 0}, parts=2)
    recs = run_grid(spec)
    assert [r.count for r in recs] == [
        counting.count_with_det(2, 1, 0),
        counting.count_with_det(2, 2, 0),
    ]
    assert recs[0].h == 1 and recs[0].kind == "det"


def test_run_grid_charpoly_and_max():
    from matstat.exact import MonicIntPoly

    spec = ExperimentSpec(
        kind="charpoly", n=2, grid=(1, 2), params={"f": [0, 0, 1]}
    )
    recs = run_grid(spec)
    assert recs[0].count == 9
    assert recs[1].count == counting.count_charpoly_fast2(2, MonicIntPoly((0, 0)))
    mx = run_grid(ExperimentSpec(kind="charpoly-max", n=2, grid=(2,)))
    f, c = counting.max_charpoly_count(2, 2)
    assert mx[0].count == c
    assert "argmax" in mx[0].params


def test_run_grid_det_trace_and_t2():
    base = run_grid(
        ExperimentSpec(kind="det-trace", n=3, grid=(1,), params={"d": 0, "t": 0})
    )
    assert base[0].count == 2223
    with_t2 = run_grid(
        ExperimentSpec(
            kind="det-trace", n=3, grid=(1,), params={"d": 0, "t": 0, "t2": 0}
        )
    )
    assert with_t2[0].count == counting.count_det_trace2(3, 1, 0, 0, 0)


def test_run_grid_bordered_census_shear_totient():
    recs = run_grid(ExperimentSpec(kind="singular-bordered", n=2, grid=(1, 2)))
    assert [r.count for r in recs] == [6, 20]
    assert "v=6" in recs[0].params

    cen = run_grid(
        ExperimentSpec(kind="kbad-census", n=3, grid=(6,), params={"K": 2})
    )
    assert cen[0].count == 720
    assert "t=3" in cen[0].params and "K=2" in cen[0].params

    sq = run_grid(
        ExperimentSpec(kind="kbad-census", n=3, grid=(20,), params={"K": "sqrt"})
    )
    assert "K=5" in sq[0].params  # ceil(sqrt(20))

    sh = run_grid(ExperimentSpec(kind="multdep-shear", n=2, grid=(2, 3, 4)))
    assert [r.count for r in sh] == [2, 3, 4]
    assert "witness=" in sh[0].params

    tv = run_grid(ExperimentSpec(kind="totient-v", n=1, grid=(5, 100)))
    assert [r.count for r in tv] == [4, 100]


NON_INTEGER_TARGETS = [
    ("det", 2, {"d": 1.5}, 2),
    ("det-trace", 2, {"d": 1.5, "t": 0}, 2),
    ("det-trace", 2, {"d": 1, "t": 0.5}, 2),
    ("det-trace", 3, {"d": 0, "t": 0, "t2": 2.5}, 2),
    ("kbad-census", 3, {"t": 3.5, "K": 2}, 2),
    ("multdep-shear", 2, {"bound": 2.5}, 2),
    ("multdep-shear", 2, {}, 5.5),
    ("totient-v", 1, {}, 5.5),
    ("singular-bordered", 3, {}, 1.5),
]


@pytest.mark.parametrize(
    "kind,n,params,grid",
    NON_INTEGER_TARGETS,
    ids=[f"{kind}-{n}-params{i}" for i, (kind, n, _, _) in enumerate(NON_INTEGER_TARGETS)],
)
def test_run_grid_refuses_non_integer_targets(kind, n, params, grid):
    # read with int(...) these would silently count d = 1, t = 3, bound = 2,
    # the H = 5 shear pair, v(5), ...
    name = next((k for k, v in params.items() if not float(v).is_integer()), "grid point")
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        run_grid(ExperimentSpec(kind=kind, n=n, grid=(grid,), params=params))


def test_run_grid_accepts_integral_float_grid_points():
    # `matstat fit --grid` parses every point with float()
    sh = run_grid(ExperimentSpec(kind="multdep-shear", n=2, grid=(6.0,)))
    assert [(r.h, r.count) for r in sh] == [(6, 6)]
    tv = run_grid(ExperimentSpec(kind="totient-v", n=1, grid=(5.0,)))
    assert [r.count for r in tv] == [4]


def test_spec_refuses_parts_and_threads_below_one():
    for name in ("parts", "threads"):
        for bad in (0, -4):
            with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
                ExperimentSpec(kind="det", grid=(1,), **{name: bad})


@pytest.mark.parametrize(
    "kind,n,params,name",
    [
        ("det-trace", 3, {"D": 1, "t": 0}, "D"),  # once counted as d = 0, t = 0
        ("det", 2, {"d": 1, "t": 0}, "t"),
        ("charpoly-max", 2, {"f": [0, 1]}, "f"),
        ("totient-v", 1, {"bound": 3}, "bound"),
        ("centralizer", 2, {"matrix": [[1, 1], [0, 1]], "K": 2}, "K"),
    ],
)
def test_spec_refuses_params_its_kind_does_not_read(kind, n, params, name):
    with pytest.raises(ValueError, match=f"^{kind} takes no param '{name}'"):
        ExperimentSpec(kind=kind, n=n, grid=(2,), params=params)


def test_run_grid_centralizer():
    recs = run_grid(
        ExperimentSpec(
            kind="centralizer",
            n=2,
            grid=(1, 2),
            params={"matrix": [[1, 1], [0, 1]]},
        )
    )
    assert [r.count for r in recs] == [9, 25]


def test_centralizer_refuses_a_matrix_of_another_dimension():
    with pytest.raises(ValueError, match="^the matrix is 2x2, but n = 3$"):
        run_grid(ExperimentSpec(kind="centralizer", n=3, grid=(1,),
                                params={"matrix": [[1, 1], [0, 1]]}))


def test_counter_table_param_policies():
    assert experiments.EXPERIMENT_KINDS == tuple(experiments.COUNTERS)
    assert experiments.census_k("sqrt", 20) == 5
    for k in ("5/2", "2.5", 2.5, Fraction(5, 2)):
        assert experiments.census_k(k, 6) == Fraction(5, 2)
    for coeffs in ([1, -2, 3], [1], [0, 0, 0, 1]):  # not monic, degree 0, 3
        with pytest.raises(ValueError):
            run_grid(ExperimentSpec(kind="charpoly", n=2, grid=(1,), params={"f": coeffs}))
    with pytest.raises(ValueError, match="'f'"):
        run_grid(ExperimentSpec(kind="charpoly", n=2, grid=(1,)))
    with pytest.raises(ValueError, match="'matrix'"):
        run_grid(ExperimentSpec(kind="centralizer", n=2, grid=(1,)))


def test_fit_exponent_recovers_power_law():
    recs = [_rec(h, 7 * h**3) for h in (2, 4, 8, 16)]
    fit = fit_exponent(recs)
    assert abs(fit.slope - 3.0) < 1e-12
    assert abs(math.exp(fit.intercept) - 7.0) < 1e-9
    assert fit.max_residual < 1e-12
    assert fit.points == 4
    assert abs(fit.predicts(32) - 7 * 32**3) < 1e-6


def test_fit_exponent_validation():
    with pytest.raises(ValueError):
        fit_exponent([_rec(2, 5)])
    with pytest.raises(ValueError):
        fit_exponent([_rec(2, 5), _rec(3, 0)])
    with pytest.raises(ValueError):
        fit_exponent([_rec(2, 5), _rec(2, 6)])


def test_compare_to_bound():
    fit = fit_exponent([_rec(h, h**2) for h in (2, 4, 8)])
    assert compare_to_bound(fit, 2.5, 0.1, "upper") == "consistent"
    assert compare_to_bound(fit, 1.5, 0.1, "upper") == "inconsistent"
    assert compare_to_bound(fit, 2.0, 0.05, "two-sided") == "consistent"
    assert compare_to_bound(fit, 2.2, 0.05, "two-sided") == "inconsistent"
    with pytest.raises(ValueError):
        compare_to_bound(fit, 2.0, 0.1, "loose")


def test_csv_serialization():
    recs = [_rec(2, 33, params="d=0"), _rec(3, 10**30, params="a,b")]
    text = records_to_csv(recs)
    lines = text.strip().split("\r\n")
    assert lines[0] == "n,h,kind,params,count"
    assert lines[1] == "2,2,det,d=0,33"
    assert lines[2] == '2,3,det,"a,b",1000000000000000000000000000000'
    quoted = [_rec(2, 1, params='f="x"'), _rec(2, 2, params="a\nb"), _rec(2, 3, params="")]
    assert records_to_csv(quoted).split("\r\n")[1:] == [
        '2,2,det,"f=""x""",1', '2,2,det,"a\nb",2', "2,2,det,,3", ""]
    timed = records_to_csv(recs, include_timing=True)
    assert timed.splitlines()[0].endswith("elapsed_ms")


def test_json_serialization():
    recs = [_rec(2, 33, params="d=0")]
    data = json.loads(records_to_json(recs))
    assert data["records"][0]["count"] == "33"  # decimal string survives
    assert "elapsed_ms" not in data["records"][0]
    timed = json.loads(records_to_json(recs, include_timing=True))
    assert timed["records"][0]["elapsed_ms"] == 1.0


def test_write_outputs_and_manifest(tmp_path):
    spec = ExperimentSpec(kind="det", n=2, grid=(1, 2), params={"d": 0})
    recs = run_grid(spec)
    out = tmp_path / "results.csv"
    mpath = write_outputs(spec, recs, str(out), fmt="csv", elapsed_ms=12.5)
    assert out.exists()
    manifest = json.loads(open(mpath).read())
    assert manifest["spec"]["kind"] == "det"
    assert manifest["spec"]["grid"] == [1, 2]
    assert manifest["records"] == 2
    assert manifest["backend"] == "numpy"
    assert manifest["versions"]["matstat"]
    assert "numba" not in manifest["versions"]


def test_write_outputs_with_matrix_param(tmp_path):
    spec = ExperimentSpec(kind="centralizer", n=2, grid=(1, 2),
                          params={"matrix": IntMatrix([[1, 1], [0, 1]])})
    out = tmp_path / "centralizer.csv"
    mpath = write_outputs(spec, run_grid(spec), str(out))
    assert out.read_text().splitlines()[1:] == [
        '2,1,centralizer,"matrix=[[1,1],[0,1]]",9',
        '2,2,centralizer,"matrix=[[1,1],[0,1]]",25',
    ]
    manifest = json.loads(open(mpath).read())
    assert manifest["spec"]["params"] == {"matrix": [[1, 1], [0, 1]]}
    assert manifest["records"] == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "centralizer.csv", "centralizer.csv.manifest.json"]


def test_write_outputs_failure_leaves_no_files(tmp_path):
    spec = ExperimentSpec(kind="det", n=2, grid=(1,), params={"d": object()})
    out = tmp_path / "results.csv"
    with pytest.raises(TypeError):
        write_outputs(spec, [_rec(1, 9)], str(out))
    assert list(tmp_path.iterdir()) == []


def test_outputs_byte_identical_across_threads(tmp_path):
    texts = {}
    for threads in (1, 4):
        spec = ExperimentSpec(
            kind="kbad-census",
            n=3,
            grid=(8, 12),
            params={"K": "sqrt"},
            parts=6,
            threads=threads,
        )
        recs = run_grid(spec)
        texts[threads] = (records_to_csv(recs), records_to_json(recs))
    assert texts[1] == texts[4]


def test_n3_grids_byte_identical_across_threads():
    # the orbit-reduced n = 3 kernels spread their representative blocks
    # unevenly over the parts; the merged records must not depend on threads
    specs = [
        dict(kind="det-trace", n=3, grid=(2, 3), params={"d": 1, "t": 1}),
        dict(kind="det", n=3, grid=(2, 3), params={"d": 2}),
        dict(kind="singular-bordered", n=3, grid=(1, 2, 3)),
        dict(kind="charpoly-max", n=3, grid=(1, 2)),
    ]
    for kw in specs:
        texts = {}
        for threads in (1, 2):
            recs = run_grid(ExperimentSpec(parts=8, threads=threads, **kw))
            texts[threads] = (records_to_csv(recs), records_to_json(recs))
        assert texts[1] == texts[2], kw["kind"]
    recs = run_grid(ExperimentSpec(kind="det-trace", n=3, grid=(2,), params={"d": 1, "t": 1},
                                   parts=8, threads=2))
    assert recs[0].count == counting.count_det_trace(3, 2, 1, 1, method="naive")
