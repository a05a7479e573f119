"""Tests of the benchmark itself:  python3 -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ["MATSTAT_BACKEND"] = "numpy"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from matstat import counting  # noqa: E402


def test_wrong_answer_fails_the_run(monkeypatch):
    real = counting.count_charpoly_fast2
    monkeypatch.setattr(counting, "count_charpoly_fast2", lambda h, f: real(h, f) + 1)
    out = io.StringIO()
    args = SimpleNamespace(workload="kernel-count", seed=3, seconds=0, trace=0)
    with redirect_stdout(out):
        rc = harness.run(args)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert rc == 1
    assert result["correct"] is False
    assert result["failed"] == 0 and result["attempted"] >= 10


def test_samples_are_scaled_to_the_reference_host_speed():
    rec = harness.Record()
    op = SimpleNamespace(name="op")
    # the same work timed in a pass at reference speed and in one at half
    rec.wall["op"] = [0.5, 1.0, 1.0]
    rec.slowdown = [1.0, 2.0, 2.0]
    assert harness._medians(rec.wall, [op]) == {"op": 1.0}
    assert harness._medians(rec.wall, [op], rec.slowdown) == {"op": 0.5}


def test_refused_inputs_count_as_failed_exactly_when_refused_badly():
    wl = harness.workloads.build("grid-sharded", 1, str(harness.OUT / "test-contract"))
    try:
        wl.ops = [op for op in wl.ops if op.error_contract]
        rec = harness.Record()
        harness.run_pass(wl, rec)
        breaches = 0
        for op in wl.ops:
            try:
                raw, exc = op.call(), None
            except Exception as err:
                raw, exc = None, err
            breaches += harness._contract_breach(raw, exc) is not None
    finally:
        wl.close()
    assert rec.attempted == 4
    assert rec.failed == breaches
    assert harness._contract_breach((1, "", "manifest\nerror: budget\n"), None) is None
    assert harness._contract_breach((0, "", "error: x\n"), None)
    assert harness._contract_breach((2, "", "Traceback\nTypeError: x\n"), None)


def test_a_refusal_through_system_exit_is_clean(monkeypatch):
    def refuse_with_code(argv):
        print("error: --tuple is required", file=sys.stderr)
        raise SystemExit(2)

    def refuse_with_message(argv):
        raise SystemExit("error: --tuple is required")

    for refuse, code in ((refuse_with_code, 2), (refuse_with_message, 1)):
        monkeypatch.setattr(harness.workloads.cli, "main", refuse)
        raw = harness.workloads._cli(["multdep", "check"])
        assert raw[0] == code
        assert harness._contract_breach(raw, None) is None


def test_benchmark_json_names_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == harness.END_TO_END
    assert ({m["name"]: m["unit"] for m in bench["per_layer"]}
            == harness.per_layer_units(harness.all_op_names()))
    assert [w["name"] for w in bench["workloads"]] == list(harness.WORKLOADS)


def test_reference_file_matches_the_oracle_on_its_cheap_entries():
    ref = oracle.reference()
    table, table2 = oracle.det_trace3_table(2)
    for (d, t), count in table.items():
        assert ref["det_trace3"][f"2,{d},{t}"] == count
    assert ref["bordered3"]["2"] == list(oracle.bordered3(2))
    count, inv = oracle.census3(20, 25)
    assert ref["census3"]["20,25"][0] == count
    assert abs(ref["census3"]["20,25"][1] - inv) < 1e-12


def test_oracles_against_plain_enumeration():
    import itertools
    box = range(-2, 3)
    mats = list(itertools.product(box, repeat=4))
    assert oracle.det2(2, 1) == sum(a * e - b * c == 1 for a, b, c, e in mats)
    assert oracle.charpoly2(2, 1, -2) == sum(
        a + e == 1 and a * e - b * c == -2 for a, b, c, e in mats)
    # (1, 1, 0)^perp is spanned by (1, -1, 0) and (0, 0, 1)
    assert oracle.dual_minima((1, 1, 0)) == (1, 2)
    assert oracle.parse_poly("X^3-2X+5") == (5, -2, 0)
    assert oracle.largest_totient_at_most(14) == 12  # 14 is a nontotient


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [
        S(1, "outer", 0.0, 10.0, 1, None, False, 0),
        # two children side by side on two threads: union is [1, 6]
        S(2, "kid", 1.0, 5.0, 2, 1, True, 0),
        S(3, "kid", 2.0, 6.0, 3, 1, True, 0),
        S(4, "leaf", 2.0, 3.0, 2, 2, False, 7),
    ]
    stats = tracing.layer_stats(spans)
    assert stats["self_s"]["outer"] == 5.0
    assert stats["self_s"]["kid"] == 3.0 + 4.0
    assert stats["calls"] == {"outer": 1, "leaf": 1}
    assert stats["work"]["leaf"] == 7


def test_tracer_wraps_imported_bindings_and_restores_them():
    from matstat import exact, lattices
    det = exact.det
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert lattices.det is exact.det is not det
        lattices.orthogonal_lattice([(1, 2, 3)]).gram_det()
    finally:
        tracer.uninstall()
    assert lattices.det is exact.det is det
    names = {s.name for s in tracer.take()}
    assert {"lattices.orthogonal_lattice", "exact.det", "lattices.Lattice"} <= names


def test_a_directory_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(cmd + ["--workload", "kernel-count", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
