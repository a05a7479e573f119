"""Grid experiments, exponent fits, and deterministic output files.

An ExperimentSpec names a counter, a parameter grid, and budgets; run_grid
produces one CountRecord per grid point in grid order.  COUNTERS, the one
table from experiment kind to counter, is what run_grid and `matstat count`
both dispatch through.  Serialization is byte-deterministic for a fixed
spec: records never embed timings unless asked, JSON keys are sorted, and
counts are written as decimal strings so arbitrary precision survives the
round trip.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import platform
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import counting, kernels, lattices, multdep, numtheory
from .counting import CountRecord
from .exact import IntMatrix, MonicIntPoly, _int_arg

__all__ = [
    "ExperimentSpec",
    "FitResult",
    "COUNTERS",
    "EXPERIMENT_KINDS",
    "charpoly_target",
    "census_k",
    "run_grid",
    "fit_exponent",
    "compare_to_bound",
    "records_to_csv",
    "records_to_json",
    "build_manifest",
    "write_outputs",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """A named counter plus the grid and budgets needed to reproduce it."""

    kind: str
    n: int = 2
    grid: Tuple[float, ...] = ()
    params: Dict[str, object] = field(default_factory=dict)
    parts: int = 8
    threads: int = 1
    budget: int = counting.DEFAULT_BUDGET

    def __post_init__(self):
        if self.kind not in COUNTERS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if not self.grid:
            raise ValueError("grid must be non-empty")
        reads = COUNTERS[self.kind].params
        for name in self.params:
            if name not in reads:
                raise ValueError(f"{self.kind} takes no param {name!r}; it reads "
                                 f"{', '.join(map(repr, reads)) or 'none'}")
        kernels._check_parts(self.parts, self.threads)
        object.__setattr__(self, "grid", tuple(self.grid))
        object.__setattr__(self, "params", dict(self.params))

    def canonical(self) -> dict:
        """The spec as JSON, with only the run options its kind reads
        (COUNTERS[kind].options): an option the counter never reads does
        not shape the result, so the manifest does not record it."""
        return {
            "kind": self.kind,
            "n": self.n,
            "grid": [_num(g) for g in self.grid],
            "params": {k: _json_param(self.params[k]) for k in sorted(self.params)},
            **{name: getattr(self, name) for name in COUNTERS[self.kind].options},
        }


def _json_param(v):
    """A param value in JSON form: a matrix as its list of rows (as the CLI
    reads it), a polynomial as its coefficients c0, ..., 1, a Fraction as
    its string; lists and tuples element by element."""
    if isinstance(v, IntMatrix):
        return [list(r) for r in v.rows]
    if isinstance(v, MonicIntPoly):
        return list(v.all_coeffs())
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [_json_param(x) for x in v]
    return v


def _num(x):
    """ints stay ints; integral floats collapse; other floats pass through."""
    if isinstance(x, bool):
        raise ValueError("boolean grid value")
    if isinstance(x, int):
        return x
    f = float(x)
    return int(f) if f.is_integer() else f


def _param_str(pairs: Sequence[Tuple[str, object]]) -> str:
    return ";".join(f"{k}={v}" for k, v in pairs)


def _required(params, name: str):
    if params.get(name) is None:
        raise ValueError(f"this experiment needs the parameter {name!r}")
    return params[name]


def charpoly_target(n: int, coeffs: Sequence[int]) -> MonicIntPoly:
    """The monic degree-n polynomial with coefficients c0, c1, ..., 1
    (constant first), or ValueError."""
    coeffs = tuple(int(c) for c in coeffs)
    if len(coeffs) < 2:
        raise ValueError("polynomial needs degree >= 1 (c0,...,1)")
    if coeffs[-1] != 1:
        raise ValueError("polynomial must be monic (last coefficient 1)")
    if len(coeffs) - 1 != n:
        raise ValueError(f"charpoly degree {len(coeffs) - 1} must equal n={n}")
    return MonicIntPoly(coeffs[:-1])


def census_k(k, u) -> Union[int, Fraction]:
    """The census bound K at U: ceil(sqrt(U)) for 'sqrt', otherwise K read
    exactly as a Fraction ('5/2', '2.5', 2) by the bound reader, which
    refuses an unreadable K by name.  A U below 0 or not finite gives
    K = 0, so the census refuses it by its own U check."""
    if k == "sqrt":
        return math.ceil(math.sqrt(max(u, 0))) if math.isfinite(u) else 0
    return lattices._exact("K", k)


# ---------------------------------------------------------------------------
# the counter table: each entry maps (n, h, params, method, parts, threads,
# budget) to (count, record pairs); method is auto|naive.  The counters with
# a kernel and a naive route read it, and those with one route refuse
# "naive" (`matstat count` offers them no --method).


def _auto_only(kind: str, method: str):
    if method != "auto":
        raise ValueError(f"{kind} has one route; method must be auto, got {method!r}")


def _charpoly(n, h, params, method, parts, threads, budget):
    f = charpoly_target(n, _required(params, "f"))
    return counting.count_charpoly(n, h, f, method, budget, parts, threads), [("f", f)]


def _charpoly_max(n, h, params, method, parts, threads, budget):
    _auto_only("charpoly-max", method)
    f, count = counting.max_charpoly_count(n, h, budget, parts, threads)
    return count, [("argmax", f)]


def _det(n, h, params, method, parts, threads, budget):
    d = _int_arg("d", params.get("d", 0))
    return counting.count_with_det(n, h, d, method, budget, parts, threads), [("d", d)]


def _det_trace(n, h, params, method, parts, threads, budget):
    d = _int_arg("d", params.get("d", 0))
    t = _int_arg("t", params.get("t", 0))
    pairs = [("d", d), ("t", t)]
    t2 = params.get("t2")
    if t2 is not None:
        t2 = _int_arg("t2", t2)
        pairs.append(("t2", t2))
    return counting._count_det_trace(n, h, d, t, t2, method, budget, parts, threads), pairs


def _grid_int(h) -> int:
    """A grid point that must be an integer, as an int.  Integral floats
    pass, since `matstat fit --grid` parses every point with float()."""
    if isinstance(h, float) and h.is_integer():
        return int(h)
    return _int_arg("grid point", h)


def _singular_bordered(n, h, params, method, parts, threads, budget):
    u, v = counting.count_singular_bordered(n, _grid_int(h), method, budget, parts, threads)
    return u, [("v", v)]


def _kbad_census(n, h, params, method, parts, threads, budget):
    t = _int_arg("t", params.get("t", 3))
    kb = census_k(params.get("K", "sqrt"), h)
    res = lattices.kbad_census(t, h, kb, node_cap=budget, parts=parts, threads=threads)
    return res.count, [("t", t), ("K", _num(kb)), ("inv_norm_sum", repr(res.inv_norm_sum))]


def _multdep_shear(n, h, params, method, parts, threads, budget):
    hval = _grid_int(h)
    pair = multdep.unipotent_shear_pair(hval)
    bound = _int_arg("bound", params.get("bound", hval))
    k = multdep.find_dependence(pair, bound=bound)
    count = 0 if k is None else max(abs(x) for x in k)
    return count, [("witness", "none" if k is None else ",".join(map(str, k)))]


def _totient_v(n, h, params, method, parts, threads, budget):
    return numtheory.largest_totient_below(_grid_int(h)), []


def _centralizer(n, h, params, method, parts, threads, budget):
    _auto_only("centralizer", method)
    a = _required(params, "matrix")
    a = a if isinstance(a, IntMatrix) else IntMatrix(a)
    if a.n != n:
        raise ValueError(f"the matrix is {a.n}x{a.n}, but n = {n}")
    return counting.centralizer_count(a, h, node_cap=budget), [("matrix", _flat_matrix(a))]


class Counter(NamedTuple):
    """One experiment kind: its counter, the params it reads and which of
    the run options parts, threads and budget it reads."""

    run: Callable[..., Tuple[int, List[Tuple[str, object]]]]
    params: Tuple[str, ...] = ()
    options: Tuple[str, ...] = ("parts", "threads", "budget")


COUNTERS: Dict[str, Counter] = {
    "charpoly": Counter(_charpoly, ("f",)),
    "charpoly-max": Counter(_charpoly_max),
    "det": Counter(_det, ("d",)),
    "det-trace": Counter(_det_trace, ("d", "t", "t2")),
    "singular-bordered": Counter(_singular_bordered),
    "kbad-census": Counter(_kbad_census, ("t", "K")),
    "multdep-shear": Counter(_multdep_shear, ("bound",), ()),
    "totient-v": Counter(_totient_v, (), ()),
    "centralizer": Counter(_centralizer, ("matrix",), ("budget",)),
}
EXPERIMENT_KINDS = tuple(COUNTERS)


def run_grid(spec: ExperimentSpec) -> List[CountRecord]:
    """Evaluate the experiment at every grid point, in grid order."""
    run = COUNTERS[spec.kind].run
    out: List[CountRecord] = []
    for g in spec.grid:
        t0 = time.perf_counter()
        count, pairs = run(spec.n, g, spec.params, "auto", spec.parts,
                           spec.threads, spec.budget)
        elapsed = (time.perf_counter() - t0) * 1000.0
        out.append(CountRecord(n=spec.n, h=_num(g), kind=spec.kind,
                               params=_param_str(pairs), count=int(count),
                               elapsed_ms=elapsed))
    return out


def _flat_matrix(a: IntMatrix) -> str:
    return "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in a.rows) + "]"


# ---------------------------------------------------------------------------
# exponent fits


@dataclass(frozen=True)
class FitResult:
    """Least-squares slope of log(count) against log(h)."""

    slope: float
    intercept: float
    max_residual: float
    points: int

    def predicts(self, h: float) -> float:
        return math.exp(self.intercept) * h ** self.slope


def fit_exponent(records: Sequence[CountRecord]) -> FitResult:
    """Fit count ~ C * h^alpha through the records (all counts positive)."""
    pts = [(float(r.h), r.count) for r in records]
    if len(pts) < 2:
        raise ValueError("need at least two grid points")
    if any(h <= 0 or c <= 0 for h, c in pts):
        raise ValueError("fit needs positive h and positive counts")
    xs = [math.log(h) for h, _ in pts]
    ys = [math.log(c) for _, c in pts]
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("grid points must have distinct h")
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    resid = max(abs(y - (intercept + slope * x)) for x, y in zip(xs, ys))
    return FitResult(slope, intercept, resid, n)


def compare_to_bound(
    fit: FitResult, predicted: float, tol: float, mode: str = "upper"
) -> str:
    """'consistent' when the fitted slope meets the predicted exponent.

    mode 'upper': slope <= predicted + tol; mode 'two-sided':
    |slope - predicted| <= tol.
    """
    if mode == "upper":
        ok = fit.slope <= predicted + tol
    elif mode == "two-sided":
        ok = abs(fit.slope - predicted) <= tol
    else:
        raise ValueError("mode must be upper|two-sided")
    return "consistent" if ok else "inconsistent"


# ---------------------------------------------------------------------------
# serialization


def records_to_csv(
    records: Sequence[CountRecord], include_timing: bool = False
) -> str:
    """CSV text; counts in full precision, timings off by default so equal
    runs serialize identically."""
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\r\n")
    cols = ["n", "h", "kind", "params", "count"]
    if include_timing:
        cols.append("elapsed_ms")
    out.writerow(cols)
    for r in records:
        cells = [str(r.n), str(_num(r.h)), r.kind, r.params, str(r.count)]
        if include_timing:
            cells.append(repr(r.elapsed_ms))
        out.writerow(cells)
    return buf.getvalue()


def records_to_json(
    records: Sequence[CountRecord], include_timing: bool = False
) -> str:
    rows = []
    for r in records:
        row = {
            "n": r.n,
            "h": _num(r.h),
            "kind": r.kind,
            "params": r.params,
            "count": str(r.count),
        }
        if include_timing:
            row["elapsed_ms"] = r.elapsed_ms
        rows.append(row)
    return json.dumps({"records": rows}, sort_keys=True, indent=2) + "\n"


def build_manifest(
    spec: Union[ExperimentSpec, dict],
    records: Optional[Sequence[CountRecord]] = None,
    elapsed_ms: Optional[float] = None,
) -> dict:
    """Reproducibility record: the inputs (spec.canonical() for an
    ExperimentSpec, else the dict given), the backend, the versions and,
    for a grid run, its timings."""
    from . import __version__

    manifest = {
        "spec": spec.canonical() if isinstance(spec, ExperimentSpec) else spec,
        "backend": kernels.current_backend(),
        "versions": {
            "matstat": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    if records is not None:
        manifest.update(
            records=len(records),
            elapsed_ms=elapsed_ms,
            per_point_ms=[round(r.elapsed_ms, 3) for r in records],
        )
    return manifest


def write_outputs(
    spec: ExperimentSpec,
    records: Sequence[CountRecord],
    out_path: str,
    fmt: str = "csv",
    elapsed_ms: float = 0.0,
    include_timing: bool = False,
) -> str:
    """Write results to out_path (csv or json) plus a manifest sidecar at
    out_path + '.manifest.json'; returns the manifest path.  Both files are
    written to temporary names in the same directory and then renamed, so
    a failure leaves neither a partial file nor one file without the other
    changed."""
    if fmt == "csv":
        payload = records_to_csv(records, include_timing)
    elif fmt == "json":
        payload = records_to_json(records, include_timing)
    else:
        raise ValueError("fmt must be csv|json")
    manifest = build_manifest(spec, records, elapsed_ms)
    mpath = out_path + ".manifest.json"
    texts = ((out_path, payload), (mpath, json.dumps(manifest, sort_keys=True, indent=2) + "\n"))
    temps = []
    try:
        for path, text in texts:
            temps.append(f"{path}.{os.getpid()}.tmp")
            with open(temps[-1], "w", newline="") as fh:
                fh.write(text)
        for tmp, (path, _) in zip(temps, texts):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            if os.path.exists(tmp):
                os.remove(tmp)
    return mpath
