"""Timing loop, checks and the report of one benchmark run.

A run builds one workload, makes an untimed warm-up pass, then repeats
the pass for the requested seconds.  Before each operation it collects
garbage and times a fixed reference loop, both outside the operation's
timer; it keeps every wall and CPU sample.  Rates come from per-operation
medians, which host noise moves far less than pass totals or percentiles
over a mixed list of calls.

Every time is reported at the reference host speed.  On a small shared VM
the whole host slows and speeds up by up to 2x for stretches of ten
seconds to minutes, CPU time with wall time.  The reference loop shares no
code with matstat, so its CPU time tracks the host alone: each sample of a
pass is divided by that pass's host slowdown, the median loop time over
the loop's time at the reference speed.  The raw figures are printed next
to the scaled ones.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("kernel-count", "exact-lattice", "grid-sharded")
SETUP_PROBES = 9

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics read from the traced passes (see README.md for which
# end-to-end metric each should move)
LAYER_SELF = (
    "kernels.charpoly2_scan", "kernels.det_trace3", "kernels.det_trace3_t2",
    "kernels.bordered3", "kernels.census3", "kernels.n3_stats", "kernels.n2_count",
    "kernels.det2_count", "kernels.charpoly2_count", "kernels.full_pair_count_array",
    "kernels.run_parts",
    "counting.max_charpoly_count", "counting.count_with_det", "counting.count_det_trace",
    "counting.centralizer_count",
    "lattices.successive_minima", "lattices.reduced_basis", "lattices.is_k_good",
    "lattices.points_in_box", "lattices.lattice_points_in_box", "lattices.integer_kernel",
    "lattices.hnf_with_transform", "lattices.orthogonal_lattice", "lattices.Lattice",
    "lattices.kbad_census",
    "exact.det", "exact.charpoly", "exact.inverse_rational", "exact.mat_pow",
    "exact.RationalMatrix.__matmul__",
    "multdep.find_dependence", "multdep.det_relation_lattice", "multdep.check_relation",
    "multdep.find_kernel_word",
    "numtheory.totients_up_to", "numtheory.factorize",
    "experiments.run_grid", "experiments.write_outputs", "experiments.fit_exponent",
    "cli.main",
)
LAYER_CALLS = (
    "kernels.full_pair_count_array", "lattices.successive_minima", "lattices.reduced_basis",
    "exact.det", "exact.charpoly", "exact.inverse_rational", "exact.mat_pow",
    "exact.RationalMatrix.__matmul__", "numtheory.factorize",
)


def per_layer_units(op_names) -> dict:
    units = {f"{n}.self_s": "s" for n in LAYER_SELF}
    units.update({f"{n}.calls": "count" for n in LAYER_CALLS})
    units["kernels.n3_stats.ranks"] = "count"
    units["kernels.run_parts.parallelism"] = "ratio"
    units["tracing.overhead_ratio"] = "ratio"
    units["host.steal_pct"] = "%"
    units["host.slowdown"] = "ratio"
    units.update({f"op.{n}.p50_ms": "ms" for n in op_names})
    return units


def all_op_names() -> list:
    """Operation names of every workload, in workload order."""
    names = []
    for w in WORKLOADS:
        wl = workloads.build(w, 0, str(OUT / f"names-{os.getpid()}"))
        names += [op.name for op in wl.ops]
        wl.close()
    return names


def _read_steal():
    """(steal ticks, total ticks) of the whole host, or None."""
    try:
        with open("/proc/stat") as fh:
            vals = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return vals[7], sum(vals)


def _steal_pct(before, after) -> float:
    if before is None or after is None or after[1] == before[1]:
        return 0.0
    return 100.0 * (after[0] - before[0]) / (after[1] - before[1])


def python_loop():
    """Fixed pure-Python work (Fractions, big integers, a dict, a sort)
    that shares no code with matstat: its time measures the host."""
    x, acc, d = Fraction(1, 3), 1, {}
    for i in range(1, 400):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
        acc = acc * (i | 1) % (1 << 200)
        d[(i, i % 7)] = [i, acc & 0xFFFF]
    return x, sorted(d.items(), key=lambda kv: kv[1][1])


# the numpy loop's arrays, allocated once: fresh ones would cost page
# faults that depend on what the allocator kept from the program's arrays
_X = np.arange(-240, 240, dtype=np.int64)
_OUTER = np.empty((_X.size, _X.size), dtype=np.int64)
_SCRATCH = np.empty_like(_OUTER)


def mixed_loop():
    """python_loop, then fixed numpy work on int64 arrays of about 2 MB (an
    outer product, a histogram, a running sum) like the kernels'."""
    np.multiply.outer(_X, _X, out=_OUTER)
    hist = np.bincount(np.remainder(_OUTER, 997, out=_SCRATCH).ravel())
    np.cumsum(_OUTER, axis=1, out=_SCRATCH)
    return python_loop(), int(hist.max()), int(np.remainder(_SCRATCH, 1009, out=_SCRATCH).sum())


# Per workload: the reference loop and its main-thread CPU seconds at the
# reference host speed (about its median on the VM of the README's
# figures).  When the host slows, numpy work slows less than pure Python
# (a pure numpy loop about a third as much), so the workloads that mix
# numpy kernels with Python drivers are measured against a loop of both
# kinds; exact-lattice is pure Python.
HOST_REFERENCE = {
    "kernel-count": (mixed_loop, 0.009),
    "exact-lattice": (python_loop, 0.0045),
    "grid-sharded": (mixed_loop, 0.009),
}


def host_slowdown(workload: str) -> float:
    """One timing of the workload's reference loop over its time at the
    reference host speed: above 1 when the host is slower."""
    loop, ref_s = HOST_REFERENCE[workload]
    t0 = time.thread_time()
    loop()
    return (time.thread_time() - t0) / ref_s


class Record:
    """Every sample and answer of a series of passes."""

    def __init__(self):
        self.wall = defaultdict(list)
        self.cpu = defaultdict(list)
        self.slowdown = []  # per pass: median host slowdown
        self.answers = defaultdict(list)
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.failures = {}  # op name -> first failure message


def _medians(samples, ops, slowdown=None) -> dict:
    """Per operation: the median sample, each sample first divided by its
    pass's host slowdown when `slowdown` is given."""
    if slowdown is None:
        return {op.name: statistics.median(samples[op.name]) for op in ops}
    return {op.name: statistics.median(x / k for x, k in zip(samples[op.name], slowdown))
            for op in ops}


def run_pass(wl, rec: Record) -> None:
    slow = []
    for op in wl.ops:
        gc.collect()
        slow.append(host_slowdown(wl.name))
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            raw, exc = op.call(), None
        except Exception as err:  # the run goes on; the op counts as failed
            raw, exc = None, err
        w1, c1 = time.perf_counter(), time.process_time()
        rec.wall[op.name].append(w1 - w0)
        rec.cpu[op.name].append(c1 - c0)
        rec.attempted += 1
        if op.error_contract:
            msg = _contract_breach(raw, exc)
        elif exc is not None:
            msg = f"{type(exc).__name__}: {exc}"
        else:
            msg = None
            rec.answers[op.name].append(op.post(raw))
        if msg:
            rec.failed += 1
            rec.failures.setdefault(op.name, msg)
    rec.slowdown.append(statistics.median(slow))
    rec.passes += 1


def _contract_breach(raw, exc):
    """None when cli.main refused the input cleanly: a nonzero exit and a
    last stderr line starting with `error:`, with no exception escaping."""
    if exc is not None:
        return f"{type(exc).__name__} escaped main(): {exc}"
    rc, _, err = raw
    lines = err.strip().splitlines()
    if rc == 0 or not lines or not lines[-1].startswith("error:"):
        return f"exit {rc}, stderr ends {lines[-1:]!r}"
    return None


def run_for(wl, seconds: float, rec: Record) -> None:
    start = time.perf_counter()
    while rec.passes < 1 or time.perf_counter() - start < seconds:
        run_pass(wl, rec)


def check(wl, recs) -> list:
    """Messages for every wrong answer; empty when all are right."""
    msgs = []
    merged = defaultdict(list)
    for rec in recs:
        for name, answers in rec.answers.items():
            merged[name] += answers
    for op in wl.ops:
        distinct = {repr(a): a for a in merged.get(op.name, ())}
        for a in distinct.values():
            msg = op.check(a)
            if msg:
                msgs.append(f"{op.name}: {msg}")
                break
    for final in wl.final_checks:
        msgs += final(merged)
    return msgs


def setup_probe_times(args):
    """Wall seconds from spawning a fresh process to its `ready` line: the
    matstat import, the inputs and the lazy set-up the workload triggers;
    and, per probe, the median of three host slowdowns taken just before
    it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times, slowdown = [], []
    for _ in range(SETUP_PROBES):
        slowdown.append(statistics.median(host_slowdown(args.workload) for _ in range(3)))
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}")
        times.append(t1 - t0)
    return times, slowdown


def probe(args) -> int:
    wl = workloads.build(args.workload, args.seed, str(OUT / f"probe-{os.getpid()}"))
    for step in wl.lazy_setup:
        step()
    print("ready", flush=True)
    wl.close()
    return 0


def _report(metrics, units, attempted, failed, correct, notes) -> None:
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))


def _dump(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def run(args) -> int:
    OUT.mkdir(exist_ok=True)
    probes = ([], []) if args.trace else setup_probe_times(args)
    wl = workloads.build(args.workload, args.seed, str(OUT / f"work-{os.getpid()}"))
    try:
        for step in wl.lazy_setup:
            step()
        warm = Record()
        run_pass(wl, warm)
        # the peak over set-up and one pass of every operation: later passes
        # only let the allocator's retained pages creep up, by an amount that
        # depends on how the part threads interleave
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            return _run_traced(wl, args, warm)
        return _run_timed(wl, args, warm, probes, peak_mb)
    finally:
        wl.close()


def _counted(wl):
    return [op for op in wl.ops if not op.error_contract]


def _run_timed(wl, args, warm, probes, peak_mb) -> int:
    rec = Record()
    steal0 = _read_steal()
    run_for(wl, args.seconds, rec)
    steal = _steal_pct(steal0, _read_steal())
    msgs = check(wl, [warm, rec])
    counted = _counted(wl)
    probe_s, probe_slow = probes
    slow = rec.slowdown
    wall, cpu = _medians(rec.wall, counted, slow), _medians(rec.cpu, counted, slow)
    metrics = {
        "setup_s": statistics.median(t / k for t, k in zip(probe_s, probe_slow)),
        "ops_per_s": len(counted) / sum(wall.values()),
        "cpu_s": sum(cpu.values()),
        "peak_rss_mb": peak_mb,
    }
    raw_wall, raw_cpu = _medians(rec.wall, counted), _medians(rec.cpu, counted)
    raw = {
        "setup_s": statistics.median(probe_s),
        "ops_per_s": len(counted) / sum(raw_wall.values()),
        "cpu_s": sum(raw_cpu.values()),
    }
    _dump(OUT / f"samples-{args.workload}-{args.seed}.json", {
        "workload": args.workload, "seed": args.seed, "passes": rec.passes,
        "setup_probes_s": probe_s, "setup_probe_slowdown": probe_slow, "steal_pct": steal,
        "metrics": metrics, "raw_metrics": raw, "slowdown": slow,
        "wall_s": rec.wall, "cpu_s": rec.cpu, "failures": rec.failures,
    })
    notes = _notes(wl, rec, steal, msgs)
    notes += [f"raw (unscaled) {n} = {v:.6g} {END_TO_END[n]}" for n, v in raw.items()]
    all_wall, all_cpu = _medians(rec.wall, wl.ops, slow), _medians(rec.cpu, wl.ops, slow)
    notes += [f"op {op.name}: median {1e3 * all_wall[op.name]:.2f} ms wall, "
              f"{1e3 * all_cpu[op.name]:.2f} ms cpu at reference speed" for op in wl.ops]
    _report(metrics, END_TO_END, rec.attempted, rec.failed, not msgs, notes)
    return 0 if not msgs else 1


def _notes(wl, rec, steal, msgs) -> list:
    notes = [f"workload {wl.name} seed {wl.seed}: {rec.passes} passes of "
             f"{len(wl.ops)} operations", f"host steal = {steal:.2f} % of cpu time",
             f"host slowdown = {statistics.median(rec.slowdown):.4f} median "
             f"({min(rec.slowdown):.4f} .. {max(rec.slowdown):.4f}) against the "
             f"reference speed"]
    notes += [f"failed {name}: {msg}" for name, msg in rec.failures.items()]
    for m in msgs:
        print(f"wrong answer: {m}", file=sys.stderr)
    return notes


def _run_traced(wl, args, warm) -> int:
    # untraced and traced passes alternate, so both see the same host
    # slowdowns and their ratio is the tracing overhead
    plain, traced = Record(), Record()
    tracer = tracing.Tracer()
    passes = []
    steal0 = _read_steal()
    start = time.perf_counter()
    while traced.passes < 2 or time.perf_counter() - start < args.seconds:
        run_pass(wl, plain)
        tracer.install()
        try:
            run_pass(wl, traced)
        finally:
            tracer.uninstall()
        passes.append(tracer.take())
    steal = _steal_pct(steal0, _read_steal())
    msgs = check(wl, [warm, plain, traced])

    stats = [tracing.layer_stats(p) for p in passes]
    # self times at the reference host speed, each pass by its own factor
    for layer, k in zip(stats, traced.slowdown):
        layer["self_s"] = {n: v / k for n, v in layer["self_s"].items()}

    def med(key, name):
        return statistics.median(s[key].get(name, 0) for s in stats)

    counted = _counted(wl)
    plain_wall = _medians(plain.wall, wl.ops, plain.slowdown)
    traced_sum = sum(_medians(traced.wall, counted, traced.slowdown).values())
    units = per_layer_units(all_op_names())
    metrics = {}
    for name in units:
        if name.endswith(".self_s"):
            metrics[name] = med("self_s", name[:-len(".self_s")])
        elif name.endswith(".calls"):
            metrics[name] = med("calls", name[:-len(".calls")])
        elif name.startswith("op."):
            metrics[name] = 1e3 * plain_wall.get(name[3:-len(".p50_ms")], 0.0)
    metrics["kernels.n3_stats.ranks"] = med("work", "kernels.n3_stats")
    metrics["kernels.run_parts.parallelism"] = statistics.median(s["parallelism"] for s in stats)
    metrics["tracing.overhead_ratio"] = traced_sum / sum(plain_wall[op.name] for op in counted)
    metrics["host.steal_pct"] = steal
    metrics["host.slowdown"] = statistics.median(plain.slowdown + traced.slowdown)
    tracing.write_spans(OUT / f"trace-{args.workload}-{args.seed}.jsonl", passes)
    notes = _notes(wl, traced, steal, msgs)
    notes.append(f"untraced passes {plain.passes}, traced passes {traced.passes}")
    _report(metrics, units, plain.attempted + traced.attempted,
            plain.failed + traced.failed, not msgs, notes)
    return 0 if not msgs else 1
