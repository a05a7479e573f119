"""Command-line front end: counting, lattice, and dependence tools.

Each action (`count det`, `lattice good`, ...) has its own parser, which
offers exactly the options its handler reads: an option the action does not
take, or a missing required one, is a usage error.  Matrix files are JSON:
{"matrix": [[...], ...]} for a single matrix and {"matrices": [[[...],
...], ...]} for a tuple (bare arrays also accepted).
Grid runs write results (csv/json) plus a .manifest.json sidecar; every
run also prints a one-line manifest to stderr for reproducibility.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from typing import List, Optional, Sequence

from . import counting, experiments, lattices, multdep, numtheory
from .errors import BudgetExceededError
from .exact import IntMatrix
from .experiments import ExperimentSpec

__all__ = ["main"]


def _numbers(text: str, option: str, cast=int) -> tuple:
    """Comma-separated integers (numbers, with cast=float), or a ValueError
    naming the option."""
    try:
        return tuple(cast(x) for x in text.split(","))
    except ValueError as exc:
        kind = "integers" if cast is int else "numbers"
        raise ValueError(f"--{option} expects comma-separated {kind}, got {text!r}") from exc


def _usage(message: str):
    """Refuse the command line as argparse does: one `error:` line, exit 2."""
    build_parser().error(message)


def _budget(text: str) -> int:
    """The argparse type of every --budget: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expects a non-negative integer, got {text!r}")
    return value


def _load_json(path: str, option: str):
    """The JSON value in `path`, the file given to --option; a file that is
    not UTF-8 JSON is a ValueError naming both."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"--{option} {path} is not UTF-8 JSON: {exc}") from exc


def _as_matrix(obj) -> IntMatrix:
    if isinstance(obj, dict):
        obj = obj.get("matrix", obj)
    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise ValueError("a matrix must be a list of rows")
    for x in (x for row in obj for x in row):
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"matrix entries must be integers, got {x!r}")
    return IntMatrix(obj)


def _load_tuple(path: str, option: str = "tuple") -> List[IntMatrix]:
    obj = _load_json(path, option)
    if isinstance(obj, dict):
        obj = obj.get("matrices", obj)
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{path} does not hold a matrix tuple")
    return [_as_matrix(m) for m in obj]


def _dump_tuple(mats: Sequence[IntMatrix], path: Optional[str]):
    payload = json.dumps({"matrices": [[list(r) for r in m.rows] for m in mats]}, sort_keys=True)
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
    """The spec `count` and `fit` run: the kind's params from its options.
    `count centralizer` takes n from its matrix and runs as one part; a run
    option `fit` was not given takes the spec's default."""
    params = {}
    for name in experiments.COUNTERS[kind].params:
        value = getattr(args, name, None)
        if value is None:
            continue
        if name == "f":
            value = list(experiments.charpoly_target(args.n, _numbers(value, "f")).all_coeffs())
        elif name == "matrix":
            value = [list(r) for r in _as_matrix(_load_json(value, "matrix")).rows]
        params[name] = value
    runs = {name: getattr(args, name, 1) for name in ("parts", "threads", "budget")}
    return ExperimentSpec(
        kind=kind, n=args.n if "n" in args else len(params["matrix"]), grid=grid,
        params=params, **{name: value for name, value in runs.items() if value is not None},
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
# action handlers


# count <what>: (experiment kind, option holding H, output label, record
# pairs printed under their output names, the action's options besides
# --format); universe has no counter
_SHARDS = " parts threads budget"
_COUNTS = {
    "universe": (None, "H", "universe", {}, "n H"),
    "charpoly": ("charpoly", "H", "charpoly-count", {"f": "f"}, "n H f method" + _SHARDS),
    "det": ("det", "H", "det-count", {}, "n H d method" + _SHARDS),
    "dettrace": ("det-trace", "H", "det-trace-count", {}, "n H d t t2 method" + _SHARDS),
    "bordered": ("singular-bordered", "K", "bordered-u", {"v": "bordered-v"},
                 "n K method" + _SHARDS),
    "maxcharpoly": ("charpoly-max", "H", "max-charpoly-count", {"argmax": "argmax"},
                    "n H" + _SHARDS),
    "centralizer": ("centralizer", "H", "centralizer-count", {}, "matrix H budget"),
}
# add_argument keywords of the options as `count` takes them; other actions
# override some (see build_parser)
_OPTS = {
    "n": dict(type=int, default=2),
    "H": dict(type=float, default=1.0),
    "K": dict(type=int, default=1),
    "d": dict(type=int, default=0),
    "t": dict(type=int, default=0),
    "t2": dict(type=int),
    "f": dict(required=True, help="monic coefficients c0,c1,...,1 (constant first)"),
    "matrix": dict(required=True, help="JSON matrix file"),
    "method": dict(choices=("auto", "naive"), default="auto"),
    "parts": dict(type=int, default=1),
    "threads": dict(type=int, default=1),
    "budget": dict(type=_budget, default=counting.DEFAULT_BUDGET),
    "format": dict(choices=("human", "json"), default="human"),
    "out": dict(),
}


def _count_universe(args):
    # the count is printed in full, and Python converts at most `digits`
    # digits to text: (2H+1)^(n^2) has floor(n^2 log10(2H+1)) + 1, so n is
    # capped at the largest n with n^2 log10(2H+1) < digits, checked before
    # the power is computed
    digits = sys.get_int_max_str_digits()  # 0: no limit
    side = counting.universe_size(1, args.H)  # 2H+1
    n_max = math.isqrt(math.ceil(digits / math.log10(side)) - 1) if digits else args.n
    if args.n > n_max:
        raise ValueError(f"count universe prints at most {digits} digits: "
                         f"n must be <= {n_max} at H = {args.H:g}")
    _print_count(args, "universe", counting.universe_size(args.n, args.H))
    _manifest_line("count universe", {"n": args.n, "H": args.H})


def _count(args):
    kind, axis, label, shown, _ = _COUNTS[args.what]
    spec = _spec(args, kind, (getattr(args, axis),))
    method = getattr(args, "method", "auto")
    count, pairs = experiments.COUNTERS[kind].run(
        spec.n, spec.grid[0], spec.params, method, spec.parts, spec.threads, spec.budget,
    )
    _print_count(args, label, count, {shown[k]: v for k, v in pairs if k in shown})
    _manifest_line("count " + args.what, {**spec.canonical(), "method": method})


def _multdep_check(args) -> int:
    mats = _load_tuple(args.tuple)
    if args.k is not None:
        ok = multdep.check_relation(mats, _numbers(args.k, "k"))
        print(f"relation holds = {ok}")
        _manifest_line("multdep check", {"s": len(mats)})
        return 0 if ok else 1
    k = multdep.find_dependence(mats, bound=args.bound)
    print(f"dependent = {k is not None}")
    if k is not None:
        print(f"witness = {','.join(map(str, k))}")
    _manifest_line("multdep check", {"s": len(mats), "bound": args.bound})
    return 1 if k is None else 0


def _multdep_rank(args):
    mats = _load_tuple(args.tuple)
    print(f"rank = {multdep.tuple_rank(mats, args.bound)}")
    maximal = multdep.is_maximal_rank_dependent(mats, args.bound)
    print(f"maximal-rank dependent = {maximal}")
    _manifest_line("multdep rank", {"s": len(mats), "bound": args.bound})


def _multdep_word(args) -> int:
    mats = _load_tuple(args.tuple)
    w = multdep.find_kernel_word(mats, args.max_len, state_cap=args.budget)
    if w is None:
        print("kernel word = none")
    else:
        text = " ".join(f"A{i + 1}^{s:+d}" for i, s in w.letters)
        print(f"kernel word = {text}")
        print(f"exponent sums = {','.join(map(str, w.exponent_sums))}")
    _manifest_line("multdep word", {"s": len(mats), "max_len": args.max_len})
    return 1 if w is None else 0


def _multdep_construct(args):
    torsion = args.mode == "torsion"
    need, others = ("orders", ("blocks",)) if torsion else ("blocks", ("orders", "budget"))
    for name in others:
        if getattr(args, name) is not None:
            _usage(f"multdep construct --mode {args.mode} takes no --{name}")
    if getattr(args, need) is None:
        _usage(f"multdep construct --mode {args.mode} needs --{need}")
    if torsion:
        orders = _numbers(args.orders, "orders")
        budget = multdep.DEFAULT_WORD_STATE_CAP if args.budget is None else args.budget
        dim = sum(numtheory.euler_phi(k) for k in orders if k >= 1)
        if dim * dim > budget:
            raise BudgetExceededError(dim * dim, budget, "torsion block")
        a, m = multdep.construct_torsion_block(orders)
        _dump_tuple([a], args.out)
        print(f"dimension = {a.n}", file=sys.stderr)
        print(f"identity exponent = {m}", file=sys.stderr)
    else:
        construct = multdep.construct_even if args.mode == "even" else multdep.construct_odd
        built = construct(_load_tuple(args.blocks, "blocks"))
        _dump_tuple(built, args.out)
        k = multdep.alternating_relation_vector(len(built))
        print(f"relation = {','.join(map(str, k))}", file=sys.stderr)
    _manifest_line("multdep construct", {"mode": args.mode})


def _lattice_dual(args):
    vec = _numbers(args.vector, "vector")
    lat = lattices.orthogonal_lattice([vec])
    basis = lattices.reduced_basis(lat, node_cap=args.budget)
    print(f"rank = {lat.rank}")
    for row in basis:
        print("basis " + ",".join(map(str, row)))
    print(f"gram det = {lat.gram_det()}")
    print(f"volume identity holds = {lattices.dual_volume_check(vec)}")
    _manifest_line("lattice dual", {"t": len(vec)})


def _lattice_good(args):
    vec = _numbers(args.vector, "vector")
    verdict = lattices.is_k_good(vec, args.K, node_cap=args.budget)
    print(f"verdict = {verdict.verdict}")
    print(f"minima squared = {','.join(map(str, verdict.minima_sq))}")
    _manifest_line("lattice good", {"t": len(vec), "K": args.K})


def _lattice_census(args):
    kb = experiments.census_k(args.K, args.U)
    res = lattices.kbad_census(
        args.t, args.U, kb, method=args.method, node_cap=args.budget,
        parts=args.parts, threads=args.threads,
    )
    if args.format == "json":
        print(json.dumps({"t": args.t, "U": args.U, "K": str(kb), "count": str(res.count),
                          "inv_norm_sum": repr(res.inv_norm_sum), "method": res.method,
                          "sum_error_bound": repr(res.sum_error_bound)}, sort_keys=True))
    else:
        print(f"bad count = {res.count}")
        print(f"inverse norm sum = {res.inv_norm_sum!r}")
        print(f"sum error bound = {res.sum_error_bound:.3e}")
        print(f"method = {res.method}")
    _manifest_line("lattice census", {"t": args.t, "U": args.U, "K": str(kb), "budget": args.budget,
                                      "parts": args.parts, "threads": args.threads})


def _cmd_totient(args):
    fn = numtheory.largest_totient_below if args.what == "v" else numtheory.max_totient_square_sum
    print(f"{args.what}({args.n}) = {fn(args.n)}")
    _manifest_line("totient " + args.what, {"n": args.n})


def _nt_smoothcount(args):
    print(f"count = {numtheory.count_smooth_wrt(args.Q, args.U)}")
    _manifest_line("nt smoothcount", {"Q": args.Q, "U": args.U})


def _nt_cyclotomic(args):
    print(f"cyclotomic({args.k}) = {numtheory.cyclotomic(args.k)}")
    _manifest_line("nt cyclotomic", {"k": args.k})


def _cmd_fit(args) -> int:
    counter = experiments.COUNTERS[args.kind]
    for name in ("d", "t", "t2", "K", "f", "matrix", "parts", "threads", "budget"):
        if getattr(args, name) is not None and name not in counter.params + counter.options:
            _usage(f"fit --kind {args.kind} takes no --{name}")
    spec = _spec(args, args.kind, _numbers(args.grid, "grid", float))
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
        text = experiments.records_to_csv if args.format == "csv" else experiments.records_to_json
        sys.stdout.write(text(records, args.timing))
    rc = 0
    if all(r.count > 0 for r in records) and len(records) >= 2:
        fit = experiments.fit_exponent(records)
        print(f"slope = {fit.slope:.4f}", file=sys.stderr)
        print(f"intercept = {fit.intercept:.4f}", file=sys.stderr)
        print(f"max residual = {fit.max_residual:.4f}", file=sys.stderr)
        if args.predicted is not None:
            verdict = experiments.compare_to_bound(fit, args.predicted, args.tol, args.mode)
            print(f"verdict = {verdict}", file=sys.stderr)
            rc = 0 if verdict == "consistent" else 1
    _manifest_line("fit " + args.kind, spec, records, elapsed)
    return rc


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """argparse without prefix abbreviations (in `count det`, `--t` must not
    stand for `--threads`), with a usage error as one `error:` line (exit
    2); the subparsers inherit it."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _action(sub, name: str, fn, opts: str, help: Optional[str] = None, **specs):
    """The parser of one action, with `fn` as its handler and exactly the
    options `opts`, each taking its keywords from `specs` or else _OPTS."""
    p = sub.add_parser(name, help=help)
    for opt in opts.split():
        p.add_argument("--" + opt.replace("_", "-"), **(specs[opt] if opt in specs else _OPTS[opt]))
    p.set_defaults(fn=fn)
    return p


def _actions(sub, cmd: str, help: str):
    """The subparsers of `matstat <cmd> <what>`, one per action."""
    return sub.add_parser(cmd, help=help).add_subparsers(dest="what", required=True)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `matstat` parser, built once per process, on first use."""
    ap = _Parser(prog="matstat", description="exact counting and dependence tools "
                 "for bounded integer matrices")
    sub = ap.add_subparsers(dest="cmd", required=True)

    count = _actions(sub, "count", "exact matrix counts")
    for what, (kind, _, _, _, opts) in _COUNTS.items():
        _action(count, what, _count if kind else _count_universe, opts + " format")

    md = _actions(sub, "multdep", "multiplicative dependence of tuples")
    tuple_file = dict(required=True, help="JSON tuple file")
    check = _action(md, "check", _multdep_check, "tuple", tuple=tuple_file)
    given = check.add_mutually_exclusive_group()
    given.add_argument("--k", help="exponent vector to verify instead of searching")
    given.add_argument("--bound", type=int)
    _action(md, "rank", _multdep_rank, "tuple bound", tuple=tuple_file, bound=dict(type=int))
    _action(md, "word", _multdep_word, "tuple max_len budget", tuple=tuple_file,
            max_len=dict(type=int, default=6),
            budget=dict(type=_budget, default=multdep.DEFAULT_WORD_STATE_CAP,
                        help="state cap of the word search"))
    _action(md, "construct", _multdep_construct, "mode blocks orders budget out",
            mode=dict(choices=("even", "odd", "torsion"), default="even"),
            blocks=dict(help="JSON tuple file of the blocks (even, odd)"),
            orders=dict(help="torsion orders k1,k2,..."),
            budget=dict(type=_budget, help="a torsion block of dimension d needs d^2 <= "
                        "budget (default: the word search's state cap)"))

    la = _actions(sub, "lattice", "orthogonal lattices and the census")
    _action(la, "dual", _lattice_dual, "vector budget", vector=dict(required=True))
    _action(la, "good", _lattice_good, "vector K budget",
            vector=dict(required=True), K=dict(required=True))
    _action(la, "census", _lattice_census, "t U K method budget parts threads format",
            t=dict(type=int, default=3), U=dict(type=float, default=20.0),
            K=dict(default="sqrt", help="a number, or sqrt (the default): K = ceil(sqrt(U))"),
            method=dict(choices=("auto", "generic"), default="auto"))

    totient = _action(sub, "totient", _cmd_totient, "n", help="totient extremizers",
                      n=dict(type=int, required=True))
    totient.add_argument("what", choices=("v", "w"))

    nt = _actions(sub, "nt", "number-theoretic helpers")
    _action(nt, "smoothcount", _nt_smoothcount, "Q U",
            Q=dict(type=int, default=12), U=dict(type=int, default=12))
    _action(nt, "cyclotomic", _nt_cyclotomic, "k", k=dict(type=int, default=1))

    _action(sub, "fit", _cmd_fit, "kind n grid d t t2 K f matrix predicted tol mode out "
            "timing parts threads budget format", help="grid experiments and exponent fits",
            kind=dict(choices=experiments.EXPERIMENT_KINDS, required=True),
            grid=dict(required=True, help="comma-separated H values"),
            d=dict(type=int), t=dict(type=int), K=dict(), f=dict(), matrix=dict(),
            predicted=dict(type=float), tol=dict(type=float, default=0.5),
            mode=dict(choices=("upper", "two-sided"), default="upper"),
            timing=dict(action="store_true"), parts=dict(type=int), threads=dict(type=int),
            budget=dict(type=_budget), format=dict(choices=("csv", "json"), default="csv"))
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line; a handler returns its exit code, or None for 0."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args) or 0
    except (ValueError, ArithmeticError, OSError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
