"""Command-line front end: counting, lattice, and dependence tools.

Matrix files are JSON: {"matrix": [[...], ...]} for a single matrix and
{"matrices": [[[...], ...], ...]} for a tuple (bare arrays also accepted).
Grid runs write results (csv/json) plus a .manifest.json sidecar; every
run also prints a one-line manifest to stderr for reproducibility.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import counting, experiments, lattices, multdep, numtheory
from .errors import BudgetExceededError
from .exact import IntMatrix
from .experiments import ExperimentSpec

__all__ = ["main"]


def _parse_ints(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


def _required(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"{args.cmd} {args.what} needs --{name}")
    return value


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _as_matrix(obj) -> IntMatrix:
    if isinstance(obj, dict):
        obj = obj.get("matrix", obj)
    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise ValueError("a matrix must be a list of rows")
    for x in (x for row in obj for x in row):
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"matrix entries must be integers, got {x!r}")
    return IntMatrix(obj)


def _load_matrix(path: str) -> IntMatrix:
    return _as_matrix(_load_json(path))


def _load_tuple(path: str) -> List[IntMatrix]:
    obj = _load_json(path)
    if isinstance(obj, dict):
        obj = obj.get("matrices", obj)
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{path} does not hold a matrix tuple")
    return [_as_matrix(m) for m in obj]


def _dump_tuple(mats: Sequence[IntMatrix], path: Optional[str]):
    payload = json.dumps(
        {"matrices": [[list(r) for r in m.rows] for m in mats]},
        sort_keys=True,
    )
    if path:
        with open(path, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _manifest_line(command: str, spec, records=None, elapsed_ms=None):
    manifest = experiments.build_manifest(spec, records, elapsed_ms)
    manifest["command"] = command
    print(json.dumps({"manifest": manifest}, sort_keys=True), file=sys.stderr)


def _spec(args, kind: str, grid) -> ExperimentSpec:
    """The spec `count` and `fit` run: the kind's params from its options."""
    params = {}
    for name in experiments.COUNTERS[kind].params:
        value = getattr(args, name, None)
        if value is None:
            continue
        if name == "f":
            value = list(experiments.charpoly_target(args.n, _parse_ints(value)).all_coeffs())
        elif name == "matrix":
            value = [list(r) for r in _load_matrix(value).rows]
        params[name] = value
    return ExperimentSpec(
        kind=kind, n=args.n, grid=grid, params=params,
        parts=args.parts, threads=args.threads, budget=args.budget,
    )


def _print_count(args, label: str, count: int, extra: Optional[dict] = None):
    if args.format == "json":
        row = {"kind": label, "count": str(count)}
        if extra:
            row.update({k: str(v) for k, v in extra.items()})
        print(json.dumps(row, sort_keys=True))
    else:
        print(f"{label} = {count}")
        for k, v in (extra or {}).items():
            print(f"{k} = {v}")


# ---------------------------------------------------------------------------
# subcommand handlers


# count <what>: (experiment kind, option holding H, output label, record
# pairs printed under their output names)
_COUNTS = {
    "charpoly": ("charpoly", "H", "charpoly-count", {"f": "f"}),
    "det": ("det", "H", "det-count", {}),
    "dettrace": ("det-trace", "H", "det-trace-count", {}),
    "bordered": ("singular-bordered", "K", "bordered-u", {"v": "bordered-v"}),
    "maxcharpoly": ("charpoly-max", "H", "max-charpoly-count", {"argmax": "argmax"}),
    "centralizer": ("centralizer", "H", "centralizer-count", {}),
}


def _cmd_count(args) -> int:
    if args.what == "universe":
        _print_count(args, "universe", counting.universe_size(args.n, args.H))
        _manifest_line("count universe", {"n": args.n, "H": args.H})
        return 0
    kind, axis, label, shown = _COUNTS[args.what]
    spec = _spec(args, kind, (getattr(args, axis),))
    count, pairs = experiments.COUNTERS[kind].run(
        spec.n, spec.grid[0], spec.params, args.method,
        spec.parts, spec.threads, spec.budget,
    )
    _print_count(args, label, count, {shown[k]: v for k, v in pairs if k in shown})
    _manifest_line("count " + args.what, {**spec.canonical(), "method": args.method})
    return 0


def _cmd_multdep(args) -> int:
    if args.what == "construct":
        if args.mode == "torsion":
            orders = _parse_ints(_required(args, "orders"))
            dim = sum(numtheory.euler_phi(k) for k in orders if k >= 1)
            if dim * dim > args.budget:
                raise BudgetExceededError(dim * dim, args.budget, "torsion block")
            a, m = multdep.construct_torsion_block(orders)
            _dump_tuple([a], args.out)
            print(f"dimension = {a.n}", file=sys.stderr)
            print(f"identity exponent = {m}", file=sys.stderr)
        else:
            blocks = _load_tuple(_required(args, "blocks"))
            built = (
                multdep.construct_even(blocks)
                if args.mode == "even"
                else multdep.construct_odd(blocks)
            )
            _dump_tuple(built, args.out)
            k = multdep.alternating_relation_vector(len(built))
            print(f"relation = {','.join(map(str, k))}", file=sys.stderr)
        _manifest_line("multdep construct", {"mode": args.mode})
        return 0

    mats = _load_tuple(_required(args, "tuple"))
    if args.what == "check":
        if args.k is not None:
            k = _parse_ints(args.k)
            ok = multdep.check_relation(mats, k)
            print(f"relation holds = {ok}")
            _manifest_line("multdep check", {"s": len(mats)})
            return 0 if ok else 1
        k = multdep.find_dependence(mats, bound=args.bound)
        if k is None:
            print("dependent = False")
            _manifest_line("multdep check", {"s": len(mats), "bound": args.bound})
            return 1
        print("dependent = True")
        print(f"witness = {','.join(map(str, k))}")
        _manifest_line("multdep check", {"s": len(mats), "bound": args.bound})
    elif args.what == "rank":
        r = multdep.tuple_rank(mats, args.bound)
        print(f"rank = {r}")
        maximal = multdep.is_maximal_rank_dependent(mats, args.bound)
        print(f"maximal-rank dependent = {maximal}")
        _manifest_line("multdep rank", {"s": len(mats), "bound": args.bound})
    else:
        w = multdep.find_kernel_word(mats, args.max_len, state_cap=args.budget)
        if w is None:
            print("kernel word = none")
            _manifest_line("multdep word", {"s": len(mats), "max_len": args.max_len})
            return 1
        text = " ".join(f"A{i + 1}^{s:+d}" for i, s in w.letters)
        print(f"kernel word = {text}")
        print(f"exponent sums = {','.join(map(str, w.exponent_sums))}")
        _manifest_line("multdep word", {"s": len(mats), "max_len": args.max_len})
    return 0


def _cmd_lattice(args) -> int:
    if args.what == "dual":
        vec = _parse_ints(_required(args, "vector"))
        lat = lattices.orthogonal_lattice([vec])
        basis = lattices.reduced_basis(lat, node_cap=args.budget)
        gram = lat.gram_det()
        print(f"rank = {lat.rank}")
        for row in basis:
            print("basis " + ",".join(map(str, row)))
        print(f"gram det = {gram}")
        check = lattices.dual_volume_check(vec)
        print(f"volume identity holds = {check}")
        _manifest_line("lattice dual", {"t": len(vec)})
    elif args.what == "good":
        vec = _parse_ints(_required(args, "vector"))
        verdict = lattices.is_k_good(vec, Fraction(_required(args, "K")), node_cap=args.budget)
        print(f"verdict = {verdict.verdict}")
        print(f"minima squared = {','.join(map(str, verdict.minima_sq))}")
        _manifest_line("lattice good", {"t": len(vec), "K": args.K})
    else:
        kb = experiments.census_k("sqrt" if args.K is None else args.K, args.U)
        res = lattices.kbad_census(
            args.t, args.U, kb, method=args.method, node_cap=args.budget,
            parts=args.parts, threads=args.threads,
        )
        if args.format == "json":
            print(json.dumps({
                "t": args.t, "U": args.U, "K": str(kb),
                "count": str(res.count),
                "inv_norm_sum": repr(res.inv_norm_sum),
                "sum_error_bound": repr(res.sum_error_bound),
                "method": res.method,
            }, sort_keys=True))
        else:
            print(f"bad count = {res.count}")
            print(f"inverse norm sum = {res.inv_norm_sum!r}")
            print(f"sum error bound = {res.sum_error_bound:.3e}")
            print(f"method = {res.method}")
        _manifest_line("lattice census", {
            "t": args.t, "U": args.U, "K": str(kb),
            "budget": args.budget, "parts": args.parts, "threads": args.threads,
        })
    return 0


def _cmd_totient(args) -> int:
    if args.what == "v":
        val = numtheory.largest_totient_below(args.n)
        print(f"v({args.n}) = {val}")
    else:
        val = numtheory.max_totient_square_sum(args.n)
        print(f"w({args.n}) = {val}")
    _manifest_line("totient " + args.what, {"n": args.n})
    return 0


def _cmd_nt(args) -> int:
    if args.what == "smoothcount":
        val = numtheory.count_smooth_wrt(args.Q, args.U)
        print(f"count = {val}")
        _manifest_line("nt smoothcount", {"Q": args.Q, "U": args.U})
    else:
        poly = numtheory.cyclotomic(args.k)
        print(f"cyclotomic({args.k}) = {poly}")
        _manifest_line("nt cyclotomic", {"k": args.k})
    return 0


def _cmd_fit(args) -> int:
    spec = _spec(args, args.kind, tuple(float(g) for g in args.grid.split(",")))
    t0 = time.perf_counter()
    records = experiments.run_grid(spec)
    elapsed = (time.perf_counter() - t0) * 1000.0
    if args.out:
        mpath = experiments.write_outputs(
            spec, records, args.out, fmt=args.format,
            elapsed_ms=elapsed, include_timing=args.timing,
        )
        print(f"wrote {args.out} and {mpath}", file=sys.stderr)
    else:
        payload = (
            experiments.records_to_csv(records, args.timing)
            if args.format == "csv"
            else experiments.records_to_json(records, args.timing)
        )
        sys.stdout.write(payload)
    rc = 0
    if all(r.count > 0 for r in records) and len(records) >= 2:
        fit = experiments.fit_exponent(records)
        print(f"slope = {fit.slope:.4f}", file=sys.stderr)
        print(f"intercept = {fit.intercept:.4f}", file=sys.stderr)
        print(f"max residual = {fit.max_residual:.4f}", file=sys.stderr)
        if args.predicted is not None:
            verdict = experiments.compare_to_bound(
                fit, args.predicted, args.tol, args.mode
            )
            print(f"verdict = {verdict}", file=sys.stderr)
            rc = 0 if verdict == "consistent" else 1
    _manifest_line("fit " + args.kind, spec, records, elapsed)
    return rc


# ---------------------------------------------------------------------------
# parser


def _add_common(p, formats, parts=1):
    p.add_argument("--parts", type=int, default=parts)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--budget", type=int, default=counting.DEFAULT_BUDGET)
    p.add_argument("--format", choices=formats, default=formats[0])


class _Parser(argparse.ArgumentParser):
    """argparse, with a usage error as one `error:` line (exit 2); the
    subparsers inherit it."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="matstat",
        description="exact counting and dependence tools for bounded integer matrices",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    pc = sub.add_parser("count", help="exact matrix counts")
    pc.add_argument("what", choices=("universe",) + tuple(_COUNTS))
    pc.add_argument("--n", type=int, default=2)
    pc.add_argument("--H", type=float, default=1.0)
    pc.add_argument("--K", type=int, default=1)
    pc.add_argument("--d", type=int, default=0)
    pc.add_argument("--t", type=int, default=0)
    pc.add_argument("--t2", type=int, default=None)
    pc.add_argument("--f", type=str, default=None,
                    help="monic coefficients c0,c1,...,1 (constant first)")
    pc.add_argument("--matrix", type=str, default=None, help="JSON matrix file")
    pc.add_argument("--method", choices=("auto", "naive"), default="auto")
    _add_common(pc, ("human", "json"))
    pc.set_defaults(fn=_cmd_count)

    pm = sub.add_parser("multdep", help="multiplicative dependence of tuples")
    pm.add_argument("what", choices=("check", "rank", "word", "construct"))
    pm.add_argument("--tuple", type=str, default=None, help="JSON tuple file")
    pm.add_argument("--bound", type=int, default=None)
    pm.add_argument("--k", type=str, default=None,
                    help="exponent vector to verify instead of searching")
    pm.add_argument("--max-len", type=int, default=6)
    pm.add_argument("--mode", choices=("even", "odd", "torsion"), default="even")
    pm.add_argument("--blocks", type=str, default=None)
    pm.add_argument("--orders", type=str, default=None)
    pm.add_argument("--out", type=str, default=None)
    pm.add_argument("--budget", type=int, default=multdep.DEFAULT_WORD_STATE_CAP,
                    help="state cap of the word search; torsion blocks of dimension d "
                    "need d^2 <= budget")
    pm.set_defaults(fn=_cmd_multdep)

    pl = sub.add_parser("lattice", help="orthogonal lattices and the census")
    pl.add_argument("what", choices=("dual", "good", "census"))
    pl.add_argument("--vector", type=str, default=None)
    pl.add_argument("--K", type=str, default=None,
                    help="a number; census also takes 'sqrt' (its default), K = ceil(sqrt(U))")
    pl.add_argument("--t", type=int, default=3)
    pl.add_argument("--U", type=float, default=20.0)
    pl.add_argument("--method", choices=("auto", "generic"), default="auto")
    _add_common(pl, ("human", "json"))
    pl.set_defaults(fn=_cmd_lattice)

    pt = sub.add_parser("totient", help="totient extremizers")
    pt.add_argument("what", choices=("v", "w"))
    pt.add_argument("--n", type=int, required=True)
    pt.set_defaults(fn=_cmd_totient)

    pn = sub.add_parser("nt", help="number-theoretic helpers")
    pn.add_argument("what", choices=("smoothcount", "cyclotomic"))
    pn.add_argument("--Q", type=int, default=12)
    pn.add_argument("--U", type=int, default=12)
    pn.add_argument("--k", type=int, default=1)
    pn.set_defaults(fn=_cmd_nt)

    pf = sub.add_parser("fit", help="grid experiments and exponent fits")
    pf.add_argument("--kind", choices=experiments.EXPERIMENT_KINDS, required=True)
    pf.add_argument("--n", type=int, default=2)
    pf.add_argument("--grid", type=str, required=True, help="comma-separated H values")
    pf.add_argument("--d", type=int, default=None)
    pf.add_argument("--t", type=int, default=None)
    pf.add_argument("--t2", type=int, default=None)
    pf.add_argument("--K", type=str, default=None)
    pf.add_argument("--f", type=str, default=None)
    pf.add_argument("--matrix", type=str, default=None)
    pf.add_argument("--predicted", type=float, default=None)
    pf.add_argument("--tol", type=float, default=0.5)
    pf.add_argument("--mode", choices=("upper", "two-sided"), default="upper")
    pf.add_argument("--out", type=str, default=None)
    pf.add_argument("--timing", action="store_true")
    _add_common(pf, ("csv", "json"), parts=8)
    pf.set_defaults(fn=_cmd_fit)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
