"""Run-to-run spread of the end-to-end metrics, with host noise told apart
from the cost of the seed.

    python3 perfbench/steadiness.py --workload kernel-count --runs 10 [--first-seed 1]

Runs the benchmark on the seeds first-seed .. first-seed + runs - 1, one
run at a time, in two sets that interleave: set 0 runs seed s, set 1 runs
seed s, then both run seed s + 1, and so on.  So the sets share their seed
list and see the same stretches of the host, and the two runs of one seed
differ by the host alone.  For each set and each end-to-end metric it
prints the median, the quartiles and the spread (distance between the
quartiles as a share of the median) next to the metric's bound in
BENCHMARK.json; then the host-only figure (the median over seeds of the
distance between the two runs of a seed, as a share of their mean),
the same spreads for the raw figures before scaling to the reference host
speed, and the host steal and host slowdown each run saw.  Raw
results go to perfbench/out/steadiness-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stderr, file=sys.stderr)
        return None
    res = json.loads(lines[-1])
    res["seed"] = seed
    res["steal_pct"] = _field(lines, "host steal")
    res["slowdown"] = _field(lines, "host slowdown")
    res["raw"] = {ln.split()[2]: float(ln.split()[4]) for ln in lines
                  if ln.startswith("raw (unscaled) ")}
    return res


def _field(lines, label):
    """The first number after `=` on the line that starts with label."""
    return next((float(ln.split("=")[1].split()[0]) for ln in lines
                 if ln.startswith(label)), None)


def _spread(vals):
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = ([], [])
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for k, results in enumerate(sets):
            res = _run(bench, args.workload, seed)
            if res is None:
                return 1
            results.append(res)
            vals = " ".join(f"{n}={v['value']:.4g}" for n, v in res["metrics"].items())
            print(f"set {k} seed {seed}: {vals} failed={res['failed']}/{res['attempted']} "
                  f"steal={res['steal_pct']}% slowdown={res['slowdown']}", flush=True)
    for name, bound in bounds.items():
        for k, results in enumerate(sets):
            vals = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3, spread = _spread(vals)
            line = (f"{name} set {k}: median {q2:.5g} quartiles {q1:.5g}..{q3:.5g} "
                    f"spread {spread:.2%} bound {bound:.0%}")
            if name in results[0]["raw"]:
                q1, q2, q3, spread = _spread([r["raw"][name] for r in results])
                line += f"; raw median {q2:.5g} spread {spread:.2%}"
            print(line)
        host = statistics.median(
            abs(a - b) / ((a + b) / 2) for a, b in (
                (ra["metrics"][name]["value"], rb["metrics"][name]["value"])
                for ra, rb in zip(*sets)))
        print(f"{name}: same seed, host only: median spread {host:.2%}")
    for k, results in enumerate(sets):
        for key, unit in (("steal_pct", "%"), ("slowdown", "")):
            vals = [r[key] for r in results]
            print(f"{key} set {k}: median {statistics.median(vals):.2f}{unit} "
                  f"({min(vals):.2f} .. {max(vals):.2f})")
    shares = {r["failed"] / r["attempted"] for results in sets for r in results}
    print(f"failed share per run: {sorted(shares)}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steadiness-{args.workload}.json").write_text(json.dumps(sets, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
