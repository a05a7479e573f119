"""End-to-end CLI invocations through main()."""

import argparse
import ast
import contextlib
import importlib
import io
import json
import pkgutil
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matstat
from matstat import experiments, multdep
from matstat.cli import build_parser, main
from matstat.exact import companion
from matstat.numtheory import cyclotomic


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_count_det(capsys):
    rc, out, err = run(capsys, "count", "det", "--n", "2", "--H", "1", "--d", "0")
    assert rc == 0
    assert "det-count = 33" in out
    assert '"manifest"' in err


def test_count_charpoly(capsys):
    rc, out, _ = run(
        capsys, "count", "charpoly", "--n", "2", "--H", "1", "--f", "1,-2,1"
    )
    assert rc == 0
    assert "charpoly-count = 5" in out


def test_count_charpoly_n3_methods_agree(capsys):
    argv = ("count", "charpoly", "--n", "3", "--H", "2", "--f", "0,-1,0,1")
    outs = [run(capsys, *argv, *extra) for extra in ((), ("--method", "naive"))]
    assert outs[0][:2] == outs[1][:2]
    assert outs[0][0] == 0 and "charpoly-count = " in outs[0][1]


def test_count_det_n3_methods_agree(capsys):
    argv = ("count", "det", "--n", "3", "--H", "2", "--d", "3")
    outs = [run(capsys, *argv, *extra) for extra in ((), ("--method", "naive"))]
    assert outs[0][:2] == outs[1][:2]
    assert outs[0][0] == 0 and "det-count = " in outs[0][1]


@pytest.mark.parametrize("argv", [
    ("count", "det", "--method", "fast"),
    ("lattice", "census", "--t", "3", "--U", "6", "--K", "2", "--method", "kernel"),
])
def test_method_aliases_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(capsys, *argv)
    assert exc.value.code != 0


def test_count_universe_json(capsys):
    rc, out, _ = run(
        capsys, "count", "universe", "--n", "2", "--H", "2", "--format", "json"
    )
    assert rc == 0
    assert json.loads(out.strip())["count"] == "625"


def test_count_dettrace_and_bordered(capsys):
    rc, out, _ = run(
        capsys, "count", "dettrace", "--n", "3", "--H", "1", "--d", "0", "--t", "0"
    )
    assert rc == 0 and "= 2223" in out
    rc, out, _ = run(capsys, "count", "bordered", "--n", "2", "--K", "2")
    assert rc == 0 and "bordered-u = 20" in out and "bordered-v = 20" in out


def test_count_centralizer_with_matrix_file(tmp_path, capsys):
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps({"matrix": [[1, 1], [0, 1]]}))
    rc, out, _ = run(
        capsys, "count", "centralizer", "--matrix", str(mfile), "--H", "3"
    )
    assert rc == 0
    assert "centralizer-count = 49" in out


def test_multdep_check_and_rank(tmp_path, capsys):
    tfile = tmp_path / "pair.json"
    tfile.write_text(
        json.dumps({"matrices": [[[1, 1], [0, 1]], [[1, 2], [0, 1]]]})
    )
    rc, out, _ = run(
        capsys, "multdep", "check", "--tuple", str(tfile), "--bound", "4"
    )
    assert rc == 0
    assert "dependent = True" in out
    assert "witness =" in out
    rc, out, _ = run(
        capsys, "multdep", "check", "--tuple", str(tfile), "--k", "2,-1"
    )
    assert rc == 0 and "relation holds = True" in out
    rc, out, _ = run(
        capsys, "multdep", "check", "--tuple", str(tfile), "--k", "1,1"
    )
    assert rc == 1 and "relation holds = False" in out
    rc, out, _ = run(capsys, "multdep", "rank", "--tuple", str(tfile), "--bound", "4")
    assert rc == 0 and "rank = 1" in out


def test_multdep_rank_default_bound_covers_every_subtuple(tmp_path, capsys):
    # S = I_20 + 40 E_12 and T = companion(Phi_66), of order 66: without
    # --bound the pair's box is 80, which holds T^66 = I, so the pair is not
    # of maximal rank
    s = [[int(i == j) for j in range(20)] for i in range(20)]
    s[0][1] = 40
    t = [list(row) for row in companion(cyclotomic(66)).rows]
    tfile = tmp_path / "pair.json"
    tfile.write_text(json.dumps({"matrices": [s, t]}))
    rc, out, _ = run(capsys, "multdep", "rank", "--tuple", str(tfile))
    assert rc == 0
    assert "rank = 1" in out and "maximal-rank dependent = False" in out


def test_multdep_word(tmp_path, capsys):
    tfile = tmp_path / "rot.json"
    tfile.write_text(json.dumps({"matrices": [[[0, -1], [1, 0]]]}))
    rc, out, _ = run(capsys, "multdep", "word", "--tuple", str(tfile), "--max-len", "4")
    assert rc == 0
    assert "A1^+1 A1^+1 A1^+1 A1^+1" in out


def test_multdep_word_nonunit_dets(tmp_path, capsys):
    tfile = tmp_path / "pair.json"
    tfile.write_text(json.dumps({"matrices": [[[-2, -1], [0, -1]], [[-1, 1], [1, 1]]]}))
    rc, out, _ = run(capsys, "multdep", "word", "--tuple", str(tfile))
    assert rc == 0
    assert "kernel word = A1^+1 A2^-1 A1^+1 A2^-1" in out
    assert "exponent sums = 2,-2" in out


def test_multdep_budget_is_the_word_state_cap(tmp_path, capsys, monkeypatch):
    args = build_parser().parse_args(["multdep", "word", "--tuple", "rot.json"])
    assert args.budget == multdep.DEFAULT_WORD_STATE_CAP
    caps = []

    def fake(mats, max_len, state_cap):
        caps.append(state_cap)
        return None

    monkeypatch.setattr(multdep, "find_kernel_word", fake)
    tfile = tmp_path / "rot.json"
    tfile.write_text(json.dumps({"matrices": [[[0, -1], [1, 0]]]}))
    for extra in ((), ("--budget", "77")):
        rc, out, _ = run(capsys, "multdep", "word", "--tuple", str(tfile), *extra)
        assert rc == 1 and "kernel word = none" in out
    assert caps == [multdep.DEFAULT_WORD_STATE_CAP, 77]


def test_multdep_construct_torsion(tmp_path, capsys):
    out_file = tmp_path / "torsion.json"
    rc, out, err = run(
        capsys, "multdep", "construct", "--mode", "torsion", "--orders", "3,4",
        "--out", str(out_file),
    )
    assert rc == 0
    data = json.loads(out_file.read_text())
    assert len(data["matrices"]) == 1
    assert len(data["matrices"][0]) == 4
    assert "identity exponent = 12" in err


def test_multdep_construct_even(tmp_path, capsys):
    blocks = tmp_path / "blocks.json"
    blocks.write_text(
        json.dumps(
            {"matrices": [[[1, 1], [0, 1]], [[1, 0], [1, 1]],
                          [[1, -1], [0, 1]], [[1, 0], [-1, 1]]]}
        )
    )
    rc, out, err = run(
        capsys, "multdep", "construct", "--mode", "even", "--blocks", str(blocks)
    )
    assert rc == 0
    built = json.loads(out.strip())
    assert len(built["matrices"]) == 4
    assert "relation = 1,-1,1,-1" in err


def test_lattice_dual_and_good(capsys):
    rc, out, _ = run(capsys, "lattice", "dual", "--vector", "1,0,5")
    assert rc == 0
    assert "gram det = 26" in out
    assert "volume identity holds = True" in out
    rc, out, _ = run(capsys, "lattice", "good", "--vector", "1,0,5", "--K", "4")
    assert rc == 0
    assert "verdict = bad" in out
    assert "minima squared = 1,26" in out


def test_lattice_census_json(capsys):
    rc, out, _ = run(
        capsys, "lattice", "census", "--t", "3", "--U", "6", "--K", "2",
        "--format", "json",
    )
    assert rc == 0
    data = json.loads(out.strip())
    assert data["count"] == "720"
    assert data["method"].startswith("kernel-")


def test_lattice_census_human_matches_json(capsys):
    argv = ("lattice", "census", "--t", "3", "--U", "6", "--K", "2")
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    rc, js, _ = run(capsys, *argv, "--format", "json")
    data = json.loads(js)
    assert out.splitlines() == [
        f"bad count = {data['count']}",
        f"inverse norm sum = {data['inv_norm_sum']}",
        f"sum error bound = {float(data['sum_error_bound']):.3e}",
        f"method = {data['method']}",
    ]


def test_multdep_check_independent_pair(tmp_path, capsys):
    tfile = tmp_path / "pair.json"
    tfile.write_text(json.dumps({"matrices": [[[2, 0], [0, 1]], [[3, 0], [0, 1]]]}))
    rc, out, _ = run(capsys, "multdep", "check", "--tuple", str(tfile))
    assert rc == 1 and out == "dependent = False\n"


def test_totient_and_nt(capsys):
    rc, out, _ = run(capsys, "totient", "v", "--n", "5")
    assert rc == 0 and "v(5) = 4" in out
    rc, out, _ = run(capsys, "totient", "w", "--n", "10")
    assert rc == 0 and "w(10) = 100" in out
    rc, out, _ = run(capsys, "nt", "smoothcount", "--Q", "6", "--U", "10")
    assert rc == 0 and "count = 7" in out
    rc, out, _ = run(capsys, "nt", "cyclotomic", "--k", "6")
    assert rc == 0 and "X^2-X+1" in out


def test_fit_writes_outputs(tmp_path, capsys):
    out_file = tmp_path / "fit.csv"
    rc, out, err = run(
        capsys, "fit", "--kind", "det", "--n", "2", "--grid", "2,4,8",
        "--d", "0", "--predicted", "3.0", "--tol", "1.0",
        "--out", str(out_file), "--parts", "2",
    )
    assert rc == 0
    assert out_file.exists()
    assert (tmp_path / "fit.csv.manifest.json").exists()
    assert "slope =" in err
    assert "verdict = consistent" in err
    header = out_file.read_text().splitlines()[0]
    assert header == "n,h,kind,params,count"
    # the stderr manifest is the sidecar plus the command
    line = json.loads(err.splitlines()[-1])["manifest"]
    sidecar = json.loads((tmp_path / "fit.csv.manifest.json").read_text())
    assert line.pop("command") == "fit det"
    assert line == sidecar


def test_fit_stdout_json(capsys):
    rc, out, err = run(
        capsys, "fit", "--kind", "totient-v", "--n", "1", "--grid", "10,100",
        "--format", "json",
    )
    assert rc == 0
    data = json.loads(out[: out.rindex("}") + 1])
    assert [r["count"] for r in data["records"]] == ["10", "100"]


def test_fit_multdep_shear_integral_grid(capsys):
    rc, out, err = run(
        capsys, "fit", "--kind", "multdep-shear", "--grid", "6,12", "--format", "json",
    )
    assert rc == 0
    records = json.loads(out[: out.rindex("}") + 1])["records"]
    assert [r["count"] for r in records] == ["6", "12"]
    assert [r["params"] for r in records] == ["witness=-6,5", "witness=-12,11"]
    rc, out, err = run(capsys, "fit", "--kind", "multdep-shear", "--grid", "6,12.5")
    assert rc == 1 and err.startswith("error:") and "must be an integer" in err


def test_error_exit_code(capsys):
    rc, out, err = run(capsys, "count", "det", "--n", "0", "--H", "1")
    assert rc == 1
    assert "error:" in err
    rc, out, err = run(
        capsys, "count", "centralizer", "--matrix", "/nonexistent.json", "--H", "1"
    )
    assert rc == 1 and "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "det", "--n", "4", "--H", "3"],  # over the scan budget
        ["lattice", "census", "--U", "20000"],  # beyond the census kernel
        ["multdep", "check", "--tuple", "PAIR", "--k", "1,x"],
        ["count", "centralizer", "--matrix", "FLOAT_ENTRY"],
        ["count", "charpoly", "--n", "2", "--H", "1", "--f", "1,-2,3"],  # not monic
        ["count", "charpoly", "--n", "2", "--H", "1", "--f", "1,2"],
        ["count", "charpoly", "--n", "2", "--H", "1", "--f", "1,x,1"],
        ["lattice", "census", "--U", "0"],
        ["lattice", "dual", "--vector", "1,x"],
        ["multdep", "check", "--tuple", "EMPTY_TUPLE"],
    ],
)
def test_refused_input_is_one_error_line(capsys, tmp_path, argv):
    files = {"FLOAT_ENTRY": {"matrix": [[1, 0.5], [0, 1]]}, "EMPTY_TUPLE": [],
             "PAIR": {"matrices": [[[1, 1], [0, 1]], [[1, 2], [0, 1]]]}}
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    rc, out, err = run(capsys, *(str(tmp_path / a) if a in files else a for a in argv))
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err


@pytest.mark.parametrize("argv,line", [
    (["lattice", "census", "--U", "0"], "error: U must be >= 1"),  # before K = 0
    (["lattice", "census", "--U", "-3"], "error: U must be >= 1"),
    (["count", "det", "--H", "0.5"], "error: H must be >= 1"),
    (["lattice", "good", "--vector", "1,2", "--K", "1/2"], "error: K must be >= 1"),
    (["multdep", "construct", "--mode", "torsion", "--orders", "7", "--budget", "35"],
     "error: torsion block needs ~36 nodes, exceeds budget 35"),
    # a scan far past its budget is refused before (2H+1)^(n^2) is computed
    (["count", "det", "--n", "300", "--H", "1", "--budget", "100000"],
     "error: matrix enumeration needs ~3^90000 nodes, exceeds budget 100000"),
    (["count", "bordered", "--n", "300", "--K", "1"],
     "error: bordered naive scan needs ~3^89999 nodes, exceeds budget 2000000000"),
    # 9^(67^2) has 4284 digits, 9^(68^2) 4413
    (["count", "universe", "--n", "100", "--H", "4"],
     "error: count universe prints at most 4300 digits: n must be <= 67 at H = 4"),
    (["count", "universe", "--n", "95", "--H", "1"],
     "error: count universe prints at most 4300 digits: n must be <= 94 at H = 1"),
])
def test_refusal_names_the_bound(capsys, argv, line):
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and err == line + "\n"


@pytest.mark.parametrize("argv,line", [
    (["count", "det", "--n", "2", "--H", "inf", "--d", "1"], "error: H must be a finite number"),
    (["count", "det", "--n", "2", "--H", "nan", "--d", "1"], "error: H must be a finite number"),
    (["count", "charpoly", "--n", "3", "--H", "inf", "--f", "0,0,0,1"],
     "error: H must be a finite number"),
    (["lattice", "census", "--U", "inf"], "error: U must be a finite number"),
    (["lattice", "census", "--U", "nan"], "error: U must be a finite number"),
])
def test_non_finite_bound_is_refused_by_name(capsys, argv, line):
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and err == line + "\n"


@pytest.mark.parametrize("argv,line", [
    *((["lattice", "good", "--vector", "1,2", "--K", k], "error: K must be a finite number")
      for k in ("inf", "nan", "abc", "5/0")),
    (["lattice", "good", "--vector", "1,2", "--K", "1e400"],
     "error: K must be at most 1.7976931348623157e+308"),
    (["lattice", "census", "--U", "10", "--K", "inf"], "error: K must be a finite number"),
    (["fit", "--kind", "kbad-census", "--n", "3", "--grid", "6", "--K", "inf"],
     "error: K must be a finite number"),
    (["fit", "--kind", "totient-v", "--n", "1", "--grid", ""],
     "error: --grid expects comma-separated numbers, got ''"),
    (["fit", "--kind", "totient-v", "--n", "1", "--grid", "1,x"],
     "error: --grid expects comma-separated numbers, got '1,x'"),
    (["count", "det", "--n", "3", "--H", "2", "--parts", "-4", "--threads", "0"],
     "error: parts must be >= 1"),
    (["count", "det", "--n", "3", "--H", "2", "--threads", "0"], "error: threads must be >= 1"),
    (["fit", "--kind", "det", "--grid", "2", "--parts", "0"], "error: parts must be >= 1"),
    # lattice census checks both counts on its generic path too
    (["lattice", "census", "--t", "4", "--U", "3", "--K", "1", "--parts", "0", "--threads", "-2"],
     "error: parts must be >= 1"),
    (["lattice", "census", "--t", "4", "--U", "3", "--K", "1", "--threads", "-2"],
     "error: threads must be >= 1"),
    (["lattice", "census", "--t", "3", "--U", "3", "--K", "1", "--threads", "0"],
     "error: threads must be >= 1"),
])
def test_unreadable_value_is_refused_by_name(capsys, argv, line):
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == "" and err == line + "\n"


@pytest.mark.parametrize("argv", [
    ["count", "det", "--n", "2", "--H", "3"],
    ["lattice", "dual", "--vector", "1,2"],
    ["multdep", "word", "--tuple", "pair.json"],
    ["multdep", "construct", "--mode", "torsion", "--orders", "3"],
])
@pytest.mark.parametrize("budget", ["-5", "x"])
def test_budget_must_be_a_non_negative_integer(capsys, argv, budget):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--budget", budget])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"error: argument --budget: expects a non-negative integer, got '{budget}'\n")


@pytest.mark.parametrize("content,why", [
    (b'{"matrix": [[1, 1], [0,', "Expecting value: line 1 column 24 (char 23)"),
    (b'\xff{"matrix": [[1]]}', "'utf-8' codec can't decode byte 0xff in position 0"),
])
def test_json_input_that_does_not_decode_names_the_file_and_option(tmp_path, capsys,
                                                                   content, why):
    path = tmp_path / "in.json"
    path.write_bytes(content)
    for argv, option in ((["count", "centralizer", "--matrix", str(path)], "matrix"),
                         (["multdep", "check", "--tuple", str(path)], "tuple"),
                         (["multdep", "construct", "--blocks", str(path)], "blocks")):
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == "" and len(err.splitlines()) == 1, err
        assert err.startswith(f"error: --{option} {path} is not UTF-8 JSON: {why}"), err


def test_lattice_good_needs_k_and_census_defaults_to_sqrt(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "lattice", "good", "--vector", "1,2")
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: the following arguments are required: --K\n"
    rc, out, _ = run(capsys, "lattice", "census", "--U", "20", "--format", "json")
    assert rc == 0 and json.loads(out)["K"] == "5"  # ceil(sqrt(20))
    rc, out2, _ = run(capsys, "lattice", "census", "--U", "20", "--K", "sqrt", "--format", "json")
    assert rc == 0 and out2 == out


def test_torsion_block_within_budget(capsys):
    # phi(7) = 6: the 6 x 6 companion needs 36 <= budget
    rc, out, err = run(
        capsys, "multdep", "construct", "--mode", "torsion", "--orders", "7", "--budget", "36"
    )
    assert rc == 0
    (block,) = json.loads(out)["matrices"]
    assert len(block) == 6 and all(len(row) == 6 for row in block)
    assert "dimension = 6" in err


def test_totient_v_answers_past_the_sieve_ceiling(capsys):
    # no phi table: 10^9 = phi(2^8 5^10) and 2^27 = phi(2^28) answer at once
    for n in (1000000000, 134217728):
        rc, out, _ = run(capsys, "totient", "v", "--n", str(n))
        assert rc == 0 and out == f"v({n}) = {n}\n"


def test_census_budget_binds_the_kernel_path(capsys):
    # 1 337 337 001 sorted triples against a budget of 1: refused at once
    rc, out, err = run(capsys, "lattice", "census", "--U", "2000", "--budget", "1")
    assert rc != 0 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert "census kernel" in err


def test_totient_answers_two_to_40_and_refuses_one_more(capsys):
    # 2^40 = phi(2^41), a totient: w(2^40) is its square
    for what, value in (("v", 2**40), ("w", 2**80)):
        rc, out, _ = run(capsys, "totient", what, "--n", "1099511627776")
        assert rc == 0 and out == f"{what}(1099511627776) = {value}\n"
        rc, out, err = run(capsys, "totient", what, "--n", "1099511627777")
        assert rc != 0 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert "take n <= 2^40" in err


def test_count_manifest_records_inputs(capsys):
    rc, out, err = run(capsys, "count", "det", "--n", "2", "--H", "2", "--d", "1")
    assert rc == 0
    manifest = json.loads(err.splitlines()[-1])["manifest"]
    assert manifest["command"] == "count det"
    assert manifest["spec"]["grid"] == [2]  # H
    assert manifest["spec"]["params"] == {"d": 1}
    assert manifest["spec"]["n"] == 2
    assert manifest["spec"]["method"] == "auto"
    assert manifest["versions"]["numpy"]
    rc, out, err = run(capsys, "count", "det", "--n", "2", "--H", "2", "--method", "naive")
    assert rc == 0
    assert json.loads(err.splitlines()[-1])["manifest"]["spec"]["method"] == "naive"


@pytest.mark.parametrize("argv", [
    ["maxcharpoly", "--n", "2", "--H", "3"],
    ["centralizer", "--matrix", "SHEAR", "--H", "3"],
])
def test_count_kinds_without_a_naive_route_refuse_it(tmp_path, capsys, argv):
    # one route only: these actions take no --method, so naive is a usage error
    shear = tmp_path / "shear.json"
    shear.write_text(json.dumps({"matrix": [[1, 1], [0, 1]]}))
    argv = ["count"] + [str(shear) if a == "SHEAR" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        run(capsys, *argv, "--method", "naive")
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: unrecognized arguments: --method naive\n"
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and "count = " in out


@pytest.mark.parametrize(
    "count_argv, fit_argv",
    [
        (["det", "--n", "2", "--H", "3", "--d", "2"],
         ["det", "--n", "2", "--grid", "3", "--d", "2"]),
        (["dettrace", "--n", "3", "--H", "1", "--d", "0", "--t", "1"],
         ["det-trace", "--n", "3", "--grid", "1", "--d", "0", "--t", "1"]),
        (["dettrace", "--n", "3", "--H", "1", "--d", "0", "--t", "0", "--t2", "2"],
         ["det-trace", "--n", "3", "--grid", "1", "--d", "0", "--t", "0", "--t2", "2"]),
        (["charpoly", "--n", "2", "--H", "3", "--f=-2,-1,1"],
         ["charpoly", "--n", "2", "--grid", "3", "--f=-2,-1,1"]),
        (["maxcharpoly", "--n", "2", "--H", "3"],
         ["charpoly-max", "--n", "2", "--grid", "3"]),
        (["bordered", "--n", "3", "--K", "1"],
         ["singular-bordered", "--n", "3", "--grid", "1"]),
        (["centralizer", "--matrix", "SHEAR", "--H", "3"],
         ["centralizer", "--n", "2", "--matrix", "SHEAR", "--grid", "3"]),
    ],
)
def test_count_and_one_point_fit_agree(tmp_path, capsys, count_argv, fit_argv):
    shear = tmp_path / "shear.json"
    shear.write_text(json.dumps({"matrix": [[1, 1], [0, 1]]}))

    def fill(argv):
        return [str(shear) if a == "SHEAR" else a for a in argv]

    rc, out, _ = run(capsys, "count", *fill(count_argv), "--format", "json")
    assert rc == 0
    counted = json.loads(out)["count"]
    rc, out, _ = run(capsys, "fit", "--kind", *fill(fit_argv), "--format", "json")
    assert rc == 0
    (record,) = json.loads(out)["records"]
    assert record["count"] == counted and int(counted) > 0


def test_fraction_k_same_in_fit_and_census(capsys):
    rc, out, _ = run(
        capsys, "lattice", "census", "--t", "3", "--U", "6", "--K", "5/2",
        "--format", "json",
    )
    assert rc == 0
    census = json.loads(out)
    assert census["K"] == "5/2"
    rc, out, _ = run(
        capsys, "fit", "--kind", "kbad-census", "--n", "3", "--grid", "6",
        "--K", "5/2", "--format", "json",
    )
    assert rc == 0
    (record,) = json.loads(out)["records"]
    assert record["count"] == census["count"] == "408"
    assert "K=2.5" in record["params"]


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "det", "--n", "2", "--format", "csv"],
        ["fit", "--kind", "totient-v", "--grid", "10", "--format", "human"],
        ["multdep", "check", "--tuple", "pair.json", "--parts", "3"],
        ["multdep", "check", "--tuple", "pair.json", "--threads", "7"],
        ["multdep", "check", "--tuple", "pair.json", "--format", "json"],
        ["count", "det", "--n", "x"],  # a usage error, not an unknown option
    ],
)
def test_options_a_subcommand_does_not_take_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "det", "--n", "3", "--H", "2", "--d", "1", "--t", "0"],  # det, not det/trace
        ["lattice", "dual", "--vector", "1,2", "--format", "json"],
        ["multdep", "check", "--tuple", "pair.json", "--budget", "1"],
        ["multdep", "check"],  # no --tuple
        ["multdep", "check", "--tuple", "pair.json", "--k", "1,2", "--bound", "3"],
        ["count", "centralizer", "--matrix", "m.json", "--n", "2"],  # n is the matrix's
        ["count", "det", "--th", "2"],  # no prefix abbreviations
        ["lattice", "good", "--v", "1,2", "--K", "2"],
        ["fit", "--kind", "totient-v", "--n", "1", "--grid", "10", "--d", "3"],
        ["fit", "--kind", "det", "--grid", "2", "--matrix", "m.json"],
        ["fit", "--kind", "totient-v", "--grid", "10,20", "--parts", "3", "--threads", "5",
         "--budget", "7"],
        ["fit", "--kind", "multdep-shear", "--grid", "6,8", "--threads", "4", "--budget", "0"],
        ["fit", "--kind", "centralizer", "--n", "2", "--matrix", "m.json", "--grid", "1",
         "--parts", "2", "--threads", "4"],
        ["multdep", "construct", "--mode", "even", "--blocks", "b.json", "--orders", "3"],
        ["multdep", "construct", "--mode", "odd", "--blocks", "b.json", "--budget", "5"],
        ["multdep", "construct", "--mode", "torsion", "--orders", "3", "--blocks", "b.json"],
        ["multdep", "construct", "--mode", "torsion"],  # needs --orders
        ["multdep", "construct"],  # even needs --blocks
    ],
)
def test_options_an_action_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:"), err


def test_usage_error_is_argparse_message_on_one_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "det", "--n", "x"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: argument --n: invalid int value: 'x'\n"
    with pytest.raises(SystemExit) as exc:
        main(["count", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_parser_is_built_once_and_keeps_no_state():
    assert build_parser() is build_parser()
    assert build_parser().parse_args(["count", "det", "--d", "5"]).d == 5
    assert build_parser().parse_args(["count", "det"]).d == 0


def test_centralizer_n_is_the_matrix_dimension(tmp_path, capsys):
    m3 = tmp_path / "m3.json"
    m3.write_text(json.dumps({"matrix": [[1, 1, 0], [0, 1, 0], [0, 0, 2]]}))
    argv = ("fit", "--kind", "centralizer", "--matrix", str(m3), "--grid", "1,2")
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == "" and err == "error: the matrix is 3x3, but n = 2\n"
    rc, out, _ = run(capsys, *argv, "--n", "3", "--format", "json")
    assert rc == 0 and [r["n"] for r in json.loads(out)["records"]] == [3, 3]
    rc, out, err = run(capsys, "count", "centralizer", "--matrix", str(m3), "--H", "1")
    assert rc == 0 and json.loads(err.splitlines()[-1])["manifest"]["spec"]["n"] == 3


class _ReadLog(argparse.Namespace):
    """A Namespace that records the name of every attribute read from it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def _action_parsers():
    """(command words, parser) of every action: `count det`, ..., `fit`."""
    def actions(parser):
        return next((a.choices for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)), None)

    for cmd, parser in actions(build_parser()).items():
        if actions(parser) is None:
            yield (cmd,), parser
        else:
            yield from (((cmd, what), p) for what, p in actions(parser).items())


# one small valid command line per action, whose handler takes every branch
# that reads an option
_SMALL_ARGV = {
    ("count", "universe"): [],
    ("count", "charpoly"): ["--f=1,-2,1"],
    ("count", "det"): [],
    ("count", "dettrace"): [],
    ("count", "bordered"): [],
    ("count", "maxcharpoly"): [],
    ("count", "centralizer"): ["--matrix", "SHEAR"],
    ("multdep", "check"): ["--tuple", "PAIR"],
    ("multdep", "rank"): ["--tuple", "PAIR"],
    ("multdep", "word"): ["--tuple", "PAIR"],
    ("multdep", "construct"): ["--mode", "torsion", "--orders", "3"],
    ("lattice", "dual"): ["--vector", "1,0,5"],
    ("lattice", "good"): ["--vector", "1,0,5", "--K", "4"],
    ("lattice", "census"): ["--U", "6"],
    ("totient",): ["v", "--n", "5"],
    ("nt", "smoothcount"): [],
    ("nt", "cyclotomic"): [],
    ("fit",): ["--kind", "det", "--grid", "2,4", "--predicted", "3"],
}


def test_every_option_an_action_offers_is_read(tmp_path, capsys):
    files = {"SHEAR": {"matrix": [[1, 1], [0, 1]]},
             "PAIR": {"matrices": [[[1, 2], [0, 1]], [[1, 3], [0, 1]]]}}
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    parsers = dict(_action_parsers())
    assert set(parsers) == set(_SMALL_ARGV)
    unread = {}
    for words, parser in parsers.items():
        argv = [str(tmp_path / a) if a in files else a for a in (*words, *_SMALL_ARGV[words])]
        args = _ReadLog(**vars(build_parser().parse_args(argv)))
        assert args.fn(args) in (None, 0), argv
        offered = {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}
        unread[words] = offered - args._reads
    capsys.readouterr()
    assert unread == {words: set() for words in parsers}


# Public names without a caller in src/matstat or a line in the README,
# each kept for the reason given.
KEPT = {
    "count_charpoly_fast2": "acceptance criterion 03 and perfbench call it",
    "count_det_trace2": "perfbench's det_trace2_3_3 operation calls it",
    "lattice_points_in_box": "perfbench's tracer wraps it by name",
    "successive_minima": "perfbench's tracer wraps it by name",
    "det_relation_lattice": "perfbench's tracer wraps it by name",
}


def test_every_public_name_has_a_caller():
    # a use is a name or attribute read anywhere in src/matstat outside the
    # top-level def or class of that name; an __all__ entry is a string
    src = Path(matstat.__file__).parent
    used = set()
    for path in src.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)
            for sub in ast.walk(node):
                name = getattr(sub, "id", None) or getattr(sub, "attr", None)
                if isinstance(sub, (ast.Name, ast.Attribute)) and name != own:
                    used.add(name)
    readme = (src.parents[1] / "README.md").read_text()
    modules = [matstat] + [
        importlib.import_module(f"matstat.{m.name}")
        for m in pkgutil.iter_modules([str(src)])
        if m.name != "__main__"  # importing it runs the CLI
    ]
    uncalled = {
        name
        for module in modules
        for name in getattr(module, "__all__", ())
        if name not in used and not re.search(rf"\b{name}\b", readme)
    }
    assert sorted(uncalled - KEPT.keys()) == []  # each needs a caller, or goes
    assert sorted(KEPT.keys() - uncalled) == []  # a kept name that has one leaves KEPT


# ---------------------------------------------------------------------------
# the CLI contract under drawn command lines: every action of build_parser()
# returns 0 or 1 from main(), or argparse ends it with SystemExit(2), and a
# nonzero exit ends in one `error:` line.  The draws stay small so that no
# example starts a large thread count or a long scan: n <= 4, H, K, U <= 40
# (or a bound refused before any work), parts <= 4, threads <= 2, --bound
# and --max-len <= 3, and --budget always 100000 where an action reads it
# (`fit` of a kind that reads no budget takes it only as a refused option).

_GUARD_BUDGET = "100000"
_GUARD_FILES = {
    "SHEAR": b'{"matrix": [[1, 1], [0, 1]]}',
    "M3": b'{"matrix": [[1, 1, 0], [0, 1, 0], [0, 0, 2]]}',
    "PAIR": b'{"matrices": [[[1, 2], [0, 1]], [[1, 3], [0, 1]]]}',
    "FLOAT": b'{"matrix": [[1.5, 0], [0, 1]]}',
    "RAGGED": b'{"matrix": [[1, 2], [3]]}',
    "EMPTY": b'{"matrices": []}',
    "BROKEN": b'{"matrix": [[1, 1], [0,',
    "NOTUTF8": b'\xff{"matrix": [[1]]}',
}
_GUARD_FILE_KEYS = [*_GUARD_FILES, "MISSING"]
# values by option dest; (command words, dest) picks a narrower set
_GUARD_VALUES = {
    "n": ["-1", "0", "1", "2", "3", "4", "x"],
    "H": ["-1", "0", "0.5", "1", "2", "40", "nan", "inf", "1e9", "x"],
    "K": ["-1", "0", "1", "2", "2.5", "5/2", "sqrt", "nan", "x"],
    "U": ["-1", "0", "2.5", "6", "8", "nan", "x"],
    "d": ["-3", "0", "1", "5", "100", "x"],
    "t": ["-3", "0", "1", "5", "x"],
    "t2": ["-2", "0", "2", "7", "x"],
    "f": ["1,-2,1", "0,-1,0,1", "1,1", "2,1", "1,2", "1", "0,0,0,0,1", "x"],
    "matrix": _GUARD_FILE_KEYS,
    "tuple": _GUARD_FILE_KEYS,
    "blocks": _GUARD_FILE_KEYS,
    "method": ["auto", "naive", "generic", "x"],
    "parts": ["-1", "0", "1", "2", "4", "x"],
    "threads": ["0", "1", "2", "x"],
    "budget": [_GUARD_BUDGET],
    "format": ["human", "json", "csv", "x"],
    "out": ["OUT", "DIR"],
    "vector": ["1,0,5", "1,2", "0,0", "3", "1,2,3,4", "x"],
    "bound": ["-1", "0", "1", "2", "3", "x"],
    "max_len": ["-1", "0", "1", "2", "3", "x"],
    "k": ["1,-1", "1,1", "0,0", "1", "x"],
    "mode": ["even", "odd", "torsion", "x"],
    "orders": ["3", "1,2", "7", "0", "-2", "1000", "x"],
    "Q": ["-1", "0", "1", "12", "x"],
    "kind": [*experiments.EXPERIMENT_KINDS, "x"],
    "grid": ["1", "1,2", "2,3", "0,1", "1.5,2", "-1,2", "40", "x"],
    "predicted": ["-1", "0.5", "3", "nan", "x"],
    "tol": ["-1", "0", "0.5", "nan", "x"],
    ("lattice", "census", "t"): ["1", "2", "3", "4", "x"],
    ("fit", "mode"): ["upper", "two-sided", "x"],
    ("fit", "format"): ["csv", "json", "x"],
    ("totient", "n"): ["-5", "0", "1", "10", "1000", "x"],
    ("nt", "smoothcount", "U"): ["-1", "0", "8", "40", "x"],
    ("nt", "cyclotomic", "k"): ["-1", "0", "1", "12", "30", "x"],
}
_GUARD_PARSERS = list(_action_parsers())
_FIT_CHECKED = ("d", "t", "t2", "K", "f", "matrix", "parts", "threads", "budget")


@st.composite
def _guard_argv(draw):
    """(argv, command words) of one drawn command line; files are named by
    their _GUARD_FILES key, MISSING, OUT or DIR."""
    words, parser = draw(st.sampled_from(_GUARD_PARSERS))
    argv = list(words)
    counter = None
    for action in parser._actions:
        dest = action.dest
        if dest == "help":
            continue
        if not action.option_strings:  # totient's v|w
            argv.append(draw(st.sampled_from(["v", "w", "u"])))
            continue
        # --budget comes whenever it is read; an option that `fit` refuses for
        # the drawn kind comes a tenth of the time, any other optional one a third
        refused = counter is not None and dest in _FIT_CHECKED and dest not in (
            counter.params + counter.options)
        if not (action.required or (dest == "budget" and not refused)
                or draw(st.integers(0, 9 if refused else 2)) == 0):
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:  # --timing
            argv.append(flag)
            continue
        value = draw(st.sampled_from(_GUARD_VALUES.get((*words, dest)) or _GUARD_VALUES[dest]))
        if dest == "kind":
            counter = experiments.COUNTERS.get(value)
        argv.append(f"{flag}={value}")  # so that argparse reads -1,2 as a value
    return argv, words


@pytest.fixture(scope="module")
def guard_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-guard")
    for name, content in _GUARD_FILES.items():
        (root / name).write_bytes(content)
    return root


@settings(max_examples=250, deadline=None)
@given(drawn=_guard_argv())
def test_drawn_command_lines_keep_the_exit_contract(guard_dir, drawn):
    argv, words = drawn
    paths = {"OUT": guard_dir / "out.txt", "DIR": guard_dir, "MISSING": guard_dir / "missing"}
    for i, word in enumerate(argv):
        flag, _, value = word.partition("=")
        path = paths.get(value) or (guard_dir / value if value in _GUARD_FILES else None)
        if path is not None:
            argv[i] = f"{flag}={path}"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
            assert rc == 2, argv
    assert rc in (0, 1, 2), argv
    lines = err.getvalue().splitlines()
    if rc == 0:
        return
    if rc == 1 and not any(line.startswith("error:") for line in lines):
        # the two documented exits 1 without an error line: multdep check and
        # word when nothing is found, fit on an inconsistent verdict
        if words in (("multdep", "check"), ("multdep", "word")):
            assert out.getvalue().splitlines()[0] in (
                "dependent = False", "relation holds = False", "kernel word = none"), argv
        else:
            assert words == ("fit",) and "verdict = inconsistent" in lines, argv
            assert lines[-1].startswith('{"manifest": '), argv
        return
    assert lines and lines[-1].startswith("error:"), (argv, lines)
    assert sum(line.startswith("error:") for line in lines) == 1, (argv, lines)
