"""matstat benchmark: one workload per run, every answer checked.

    python3 perfbench/run.py --workload kernel-count --seed 1 --seconds 20 --trace 0

Workloads: kernel-count, exact-lattice, grid-sharded (see README.md).
Prints one `name = value unit` line per metric and, as its last line, a
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones from a traced run, with the tracing overhead.  Exits 1 on
a wrong answer and 2 when the program cannot be imported from src/.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _pin_environment() -> None:
    # numba is not importable here; pin the numpy twins and keep numpy's
    # own thread pools at one thread, so a run uses at most the two
    # threads the workloads ask for
    os.environ["MATSTAT_BACKEND"] = "numpy"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_program() -> bool:
    sys.path.insert(0, str(SRC))
    try:
        import matstat
        from matstat import kernels
    except ImportError as exc:
        print(f"error: cannot import matstat from {SRC}: {exc}", file=sys.stderr)
        return False
    if Path(matstat.__file__).resolve().parent.parent != SRC.resolve():
        print(f"error: matstat was imported from {matstat.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    if kernels.current_backend() != "numpy":
        print("error: the numpy backend is not selected", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="matstat benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("kernel-count", "exact-lattice", "grid-sharded"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _pin_environment()
    if not _import_program():
        return 2
    sys.path.insert(0, str(HERE))
    import harness

    return harness.probe(args) if args.setup_probe else harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
