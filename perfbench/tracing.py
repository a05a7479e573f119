"""Spans around matstat's public functions, installed from outside.

`Tracer.install()` swaps every public function of the program's modules
for a wrapper that records one span per call: name, start, end, thread and
parent span.  Modules that imported a function by name (`lattices` does
`from .exact import det`) hold their own binding, so every module
attribute bound to a wrapped function is swapped too.  `uninstall()` puts
the originals back.  Nothing in the program itself changes.

`kernels.run_parts` gets one more wrapper: each part it runs becomes a
span named after the counter that called `run_parts`, marked as a part, so
the work a counter hands to the part threads is charged to that counter
and the part threads' spans find their parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple, Optional

MODULES = ("kernels", "counting", "lattices", "exact", "multdep", "numtheory",
           "experiments", "cli")
# (module, class, method, span name)
METHODS = (
    ("lattices", "Lattice", "__init__", "lattices.Lattice"),
    ("exact", "RationalMatrix", "__matmul__", "exact.RationalMatrix.__matmul__"),
)
# a decorator factory, a context manager, and leaf helpers called tens of
# thousands of times a pass whose spans would cost more than their work
SKIP = {"kernels.njit", "kernels.use_backend", "lattices.norm_sq", "lattices.linf",
        "lattices.is_primitive"}
RUN_PARTS = "kernels.run_parts"
# per-call work counters: span name -> f(*args) giving the count
COUNTERS = {"kernels.n3_stats": lambda h, lo, hi: hi - lo}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: Optional[int]
    part: bool
    count: int


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name, fn, args, kwargs, parent=None, part=False, count=0):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1][0]
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, threading.get_ident(),
                                   parent, part, count))

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        if name == RUN_PARTS:
            def run_parts(work, total_range, parts, threads):
                stack = self._stack()
                caller = stack[-1][1] if stack else "(untraced)"

                def traced(work, total_range, parts, threads):
                    me = self._stack()[-1][0]

                    def part(lo, hi):
                        return self._run(caller, work, (lo, hi), {}, parent=me, part=True)

                    return fn(part, total_range, parts, threads)

                return self._run(name, traced, (work, total_range, parts, threads), {})

            return functools.wraps(fn)(run_parts)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count = counter(*args, **kwargs) if counter else 0
            return self._run(name, fn, args, kwargs, count=count)

        return wrapper

    def install(self) -> None:
        mods = {m: importlib.import_module(f"matstat.{m}") for m in MODULES}
        wrappers = {}  # id(original) -> (original, wrapper)
        for short, mod in mods.items():
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")]
            for n in names:
                obj = getattr(mod, n)
                if (f"{short}.{n}" in SKIP or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{short}.{n}", obj))
        for mod in mods.values():
            for n, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, n, hit[1])
                    self._undo.append((mod, n, obj))
        for short, cls_name, meth, label in METHODS:
            cls = getattr(mods[short], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(label, orig))
            self._undo.append((cls, meth, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, n, obj = self._undo.pop()
            setattr(owner, n, obj)

    def take(self) -> list:
        """The spans finished since the last call."""
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals, lo, hi) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_stats(spans) -> dict:
    """Per span name: self seconds, calls and counted work for one pass,
    plus the run_parts parallelism (summed part time over run_parts wall).

    Self time is a span's duration minus the union of its children's
    intervals, so children running side by side on two threads are not
    subtracted twice."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    self_s = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    part_s = run_parts_s = 0.0
    for s in spans:
        self_s[s.name] += (s.end - s.start) - _covered(children.get(s.id, ()), s.start, s.end)
        if s.part:
            part_s += s.end - s.start
        else:
            calls[s.name] += 1
            work[s.name] += s.count
        if s.name == RUN_PARTS:
            run_parts_s += s.end - s.start
    return {
        "self_s": dict(self_s),
        "calls": dict(calls),
        "work": dict(work),
        "parallelism": part_s / run_parts_s if run_parts_s else 0.0,
    }


def write_spans(path, passes) -> None:
    """One JSON line per span; `passes` is a list of span lists."""
    with open(path, "w") as fh:
        for i, spans in enumerate(passes):
            for s in spans:
                fh.write(json.dumps({"pass": i, **s._asdict()}) + "\n")
