"""Thread-safe span recorder that wraps the package's public functions from outside.

Each wrapped call records a span (id, parent id, name, start, end, flops).
Functions are patched under every name their callers look them up by: the
defining module's attribute and any module that imported the function by
name (entanglement imports partial_transpose from hilbert, for instance),
found by identity.  numpy.linalg routines are reached as attributes of
numpy.linalg and are patched there.  Names that no longer exist are skipped,
so refactors of the package do not break a traced run.

Work submitted to a ThreadPoolExecutor runs in a "<parent>.task" span whose
parent is the span open in the submitting thread, so that time spent in a
pool is attributed to the layer that started it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

PACKAGE = "mebd"
LAYERS = ("cli", "dynamics", "entanglement", "hilbert", "linalg", "model")
LAPACK_LAYER = "lapack"
LAPACK_ROUTINES = ("eigh", "eigvalsh", "svd", "eig", "eigvals", "qr", "cholesky",
                   "solve", "inv", "det", "lstsq")
# Leading n^3 coefficient of the LAPACK operation count; other routines use 2.
CUBIC_FLOPS = {"eigvalsh": 4.0 / 3.0, "eigh": 9.0, "eigvals": 10.0, "eig": 25.0}


def _batch_and_shape(a) -> tuple[int, int, int]:
    shape = np.shape(a)
    if len(shape) < 2:
        return 1, 0, 0
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    return batch, shape[-2], shape[-1]


def lapack_flops(routine: str, args, kwargs) -> float:
    """Computed operation count of one numpy.linalg call, from its matrix sizes.

    Textbook LAPACK counts in real flops for an n x n (or m x n) operand, times
    4 for complex input.  These are estimates from array shapes, not hardware
    counters.
    """
    if not args:
        return 0.0
    batch, m, n = _batch_and_shape(args[0])
    if m == 0:
        return 0.0
    factor = 4.0 if np.iscomplexobj(args[0]) else 1.0
    if routine == "svd":
        big, small = max(m, n), min(m, n)
        if kwargs.get("compute_uv", True):
            ops = 4.0 * big ** 2 * small + 8.0 * big * small ** 2 + 9.0 * small ** 3
        else:
            ops = 4.0 * big * small ** 2 - 4.0 / 3.0 * small ** 3
    else:
        ops = CUBIC_FLOPS.get(routine, 2.0) * n ** 3
    return batch * factor * ops


class SpanRecorder:
    """Collects spans from any thread; install() patches, uninstall() restores."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple[int, int, str, int, int, float]] = []
        self.result_counts: dict[str, int] = {}

    def _stack(self) -> list[tuple[int, str]]:
        """This thread's open spans as (id, name), innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name: str, fn, args, kwargs, flops: float = 0.0, count_result=None):
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((sid, name))
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append((sid, parent, name, start, end, flops))
        if count_result is not None:
            with self._lock:
                self.result_counts[name] = self.result_counts.get(name, 0) + count_result(result)
        return result

    def wrap(self, name: str, fn, flops=None, count_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            f = flops(args, kwargs) if flops else 0.0
            return self._run(name, fn, args, kwargs, f, count_result)

        return traced

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self, count_results: dict | None = None) -> None:
        """Wrap every public function of the package layers, numpy.linalg and pool submits."""
        count_results = count_results or {}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(name, fn, count_result=count_results.get(name))
                for other in modules:
                    for alias, value in list(vars(other).items()):
                        if value is fn:
                            self._patch(other, alias, traced)
        for routine in LAPACK_ROUTINES:
            fn = getattr(np.linalg, routine, None)
            if fn is None:
                continue
            flops = functools.partial(lapack_flops, routine)
            self._patch(np.linalg, routine, self.wrap(f"{LAPACK_LAYER}.{routine}", fn, flops))
        self._patch(ThreadPoolExecutor, "submit", self._traced_submit(ThreadPoolExecutor.submit))

    def _traced_submit(self, submit):
        recorder = self

        @functools.wraps(submit)
        def traced_submit(pool, fn, /, *args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else (0, "bench")

            def task(*a, **k):
                recorder._local.stack = [parent]
                try:
                    return recorder._run(f"{parent[1]}.task", fn, a, k)
                finally:
                    recorder._local.stack = []

            return submit(pool, task, *args, **kwargs)

        return traced_submit

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total, cur_start, cur_end = 0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive ms, self ms and computed flops.

    Self time is a span's duration minus the part of its interval that its
    child spans cover, so parallel children in a pool are not double counted.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, parent, _, start, end, _ in spans:
        if parent in by_id:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for sid, _, name, start, end, flops in spans:
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())
                   if min(e, end) > max(s, start)]
        self_ns = (end - start) - _union_ns(clipped)
        agg = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "flops": 0.0})
        agg["calls"] += 1
        agg["ms"] += (end - start) / 1e6
        agg["self_ms"] += self_ns / 1e6
        agg["flops"] += flops
    return out
