"""Grid experiments, exponent fits, and deterministic output files.

An ExperimentSpec names a counter, a parameter grid, and budgets; run_grid
produces one CountRecord per grid point in grid order.  Serialization is
byte-deterministic for a fixed spec: records never embed timings unless
asked, JSON keys are sorted, and counts are written as decimal strings so
arbitrary precision survives the round trip.
"""

from __future__ import annotations

import io
import json
import math
import platform
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import counting, kernels, lattices, multdep, numtheory
from .counting import CountRecord
from .exact import IntMatrix, MonicIntPoly

__all__ = [
    "ExperimentSpec",
    "FitResult",
    "EXPERIMENT_KINDS",
    "run_grid",
    "fit_exponent",
    "compare_to_bound",
    "records_to_csv",
    "records_to_json",
    "build_manifest",
    "write_outputs",
]

EXPERIMENT_KINDS = (
    "charpoly",
    "charpoly-max",
    "det",
    "det-trace",
    "singular-bordered",
    "kbad-census",
    "multdep-shear",
    "totient-v",
    "centralizer",
)


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
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if not self.grid:
            raise ValueError("grid must be non-empty")
        object.__setattr__(self, "grid", tuple(self.grid))
        object.__setattr__(self, "params", dict(self.params))

    def canonical(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "grid": [_num(g) for g in self.grid],
            "params": {k: self.params[k] for k in sorted(self.params)},
            "parts": self.parts,
            "threads": self.threads,
            "budget": self.budget,
        }


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


def _matrix_from_params(params) -> IntMatrix:
    mat = params.get("matrix")
    if mat is None:
        raise ValueError("this experiment needs params['matrix']")
    if isinstance(mat, IntMatrix):
        return mat
    return IntMatrix(mat)


def _record(spec, h, kind, pairs, count, elapsed) -> CountRecord:
    return CountRecord(
        n=spec.n,
        h=_num(h),
        kind=kind,
        params=_param_str(pairs),
        count=int(count),
        elapsed_ms=elapsed,
    )


def run_grid(spec: ExperimentSpec) -> List[CountRecord]:
    """Evaluate the experiment at every grid point, in grid order."""
    out: List[CountRecord] = []
    for g in spec.grid:
        t0 = time.perf_counter()
        pairs: List[Tuple[str, object]] = []
        if spec.kind == "charpoly":
            coeffs = tuple(int(c) for c in spec.params["f"])
            f = MonicIntPoly(coeffs[:-1]) if coeffs[-1] == 1 else None
            if f is None:
                raise ValueError("f must be monic: last coefficient 1")
            if spec.n == 2:
                count = counting.count_charpoly_fast2(g, f)
            else:
                count = counting.count_charpoly(
                    spec.n, g, f, parts=spec.parts, threads=spec.threads,
                    budget=spec.budget,
                )
            pairs.append(("f", f))
        elif spec.kind == "charpoly-max":
            f, count = counting.max_charpoly_count(
                spec.n, g, parts=spec.parts, threads=spec.threads,
                budget=spec.budget,
            )
            pairs.append(("argmax", f))
        elif spec.kind == "det":
            count = counting.count_with_det(
                spec.n, g, int(spec.params.get("d", 0)),
                parts=spec.parts, threads=spec.threads, budget=spec.budget,
            )
            pairs.append(("d", int(spec.params.get("d", 0))))
        elif spec.kind == "det-trace":
            d = int(spec.params.get("d", 0))
            t = int(spec.params.get("t", 0))
            t2 = spec.params.get("t2")
            if t2 is None:
                count = counting.count_det_trace(
                    spec.n, g, d, t, parts=spec.parts, threads=spec.threads,
                    budget=spec.budget,
                )
                pairs += [("d", d), ("t", t)]
            else:
                count = counting.count_det_trace2(
                    spec.n, g, d, t, int(t2), parts=spec.parts,
                    threads=spec.threads, budget=spec.budget,
                )
                pairs += [("d", d), ("t", t), ("t2", int(t2))]
        elif spec.kind == "singular-bordered":
            u, v = counting.count_singular_bordered(
                spec.n, int(g), parts=spec.parts, threads=spec.threads,
                budget=spec.budget,
            )
            count = u
            pairs.append(("v", v))
        elif spec.kind == "kbad-census":
            t = int(spec.params.get("t", 3))
            kpol = spec.params.get("K", "sqrt")
            kb = math.ceil(math.sqrt(g)) if kpol == "sqrt" else kpol
            res = lattices.kbad_census(
                t, g, kb, node_cap=spec.budget,
                parts=spec.parts, threads=spec.threads,
            )
            count = res.count
            pairs += [("t", t), ("K", _num(kb)),
                      ("inv_norm_sum", repr(res.inv_norm_sum))]
        elif spec.kind == "multdep-shear":
            hval = int(g)
            pair = multdep.unipotent_shear_pair(hval)
            k = multdep.find_dependence(pair, bound=int(spec.params.get("bound", hval)))
            count = 0 if k is None else max(abs(x) for x in k)
            pairs.append(("witness", "none" if k is None else ",".join(map(str, k))))
        elif spec.kind == "totient-v":
            count = numtheory.largest_totient_below(int(g))
        elif spec.kind == "centralizer":
            a = _matrix_from_params(spec.params)
            count = counting.centralizer_count(a, g, node_cap=spec.budget)
            pairs.append(("matrix", _flat_matrix(a)))
        else:  # pragma: no cover - guarded in __post_init__
            raise ValueError(spec.kind)
        elapsed = (time.perf_counter() - t0) * 1000.0
        out.append(_record(spec, g, spec.kind, pairs, count, elapsed))
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
    cols = ["n", "h", "kind", "params", "count"]
    if include_timing:
        cols.append("elapsed_ms")
    buf.write(",".join(cols) + "\r\n")
    for r in records:
        cells = [str(r.n), str(_num(r.h)), r.kind, _csv_quote(r.params), str(r.count)]
        if include_timing:
            cells.append(repr(r.elapsed_ms))
        buf.write(",".join(cells) + "\r\n")
    return buf.getvalue()


def _csv_quote(s: str) -> str:
    if any(ch in s for ch in ",\"\n"):
        return '"' + s.replace('"', '""') + '"'
    return s


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
    spec: ExperimentSpec,
    records: Sequence[CountRecord],
    elapsed_ms: float,
) -> dict:
    """Reproducibility sidecar: spec echo, versions, backend, timings."""
    from . import __version__

    return {
        "spec": spec.canonical(),
        "backend": kernels.current_backend(),
        "versions": {
            "matstat": __version__,
            "python": platform.python_version(),
            "numpy": _dist_version("numpy"),
            "numba": _dist_version("numba"),
        },
        "records": len(records),
        "elapsed_ms": elapsed_ms,
        "per_point_ms": [round(r.elapsed_ms, 3) for r in records],
    }


def _dist_version(name: str) -> Optional[str]:
    try:
        mod = __import__(name)
        return getattr(mod, "__version__", None)
    except ImportError:
        return None


def write_outputs(
    spec: ExperimentSpec,
    records: Sequence[CountRecord],
    out_path: str,
    fmt: str = "csv",
    elapsed_ms: float = 0.0,
    include_timing: bool = False,
) -> str:
    """Write results to out_path (csv or json) plus a manifest sidecar at
    out_path + '.manifest.json'; returns the manifest path."""
    if fmt == "csv":
        payload = records_to_csv(records, include_timing)
    elif fmt == "json":
        payload = records_to_json(records, include_timing)
    else:
        raise ValueError("fmt must be csv|json")
    with open(out_path, "w", newline="") as fh:
        fh.write(payload)
    manifest = build_manifest(spec, records, elapsed_ms)
    mpath = out_path + ".manifest.json"
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return mpath
