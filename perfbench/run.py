"""Benchmark for mebd: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sweep-n8 --seed 0 --seconds 10 --trace 0

Run from a checkout of the repository; the package is imported from its
src/ directory.  With --trace 0 the run measures the workload untraced and
prints the end-to-end metrics; with --trace 1 it measures the workload
untraced for half the time, replays the same calls with every layer wrapped,
and prints the per-layer metrics and the tracing overhead.  Every output is
checked against the oracle after the timed region.  The last stdout line is
the result object; the line before it is a report with the environment, the
metrics under the names NOTES.md uses, and their sample counts.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is imported anywhere in this process
# or in the interpreters started to time set-up.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, CallStats  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Interpreter starts timed before and again after the workload's calls, so the
# median spans the run rather than one moment of a machine whose speed drifts.
SETUP_REPEATS = 4
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10


def setup_walls(repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall times of fresh interpreters, each until mebd.cli is imported and ready."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        # No timeout: with one, subprocess polls the child in steps of up to
        # 50 ms, which would quantize the measurement.
        subprocess.run([sys.executable, "-c", "import mebd.cli"], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    return walls


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def environment() -> dict:
    """Everything that changes a timing besides the code: versions, BLAS, CPU, threads."""
    git = {"GIT_CEILING_DIRECTORIES": str(ROOT.parent), **os.environ}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git, timeout=10,
                             capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, env=git,
                               timeout=10, capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha, dirty = "", ""
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        key = f"L{_read(index / 'level')}-{_read(index / 'type')}"
        caches[key] = _read(index / "size")
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.read_bytes())
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "src_sha256": source.hexdigest(),
        "git_dirty": bool(dirty) if sha else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numpy_blas_lapack": deps,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_calls(workload, items) -> list[tuple[object, float, object]]:
    """Time each call; an exception is kept as the output and fails the check."""
    samples = []
    for item in items:
        start = time.perf_counter()
        try:
            output = workload.call(item)
        except Exception as exc:  # a failed operation is data, not a crash
            output = exc
        samples.append((item, time.perf_counter() - start, output))
    return samples


def measure(workload, seconds: float) -> list[tuple[object, float, object]]:
    """Run whole cycles of the workload until `seconds` of wall time have passed."""
    samples = []
    start, i = time.perf_counter(), 0
    while not samples or time.perf_counter() - start < seconds:
        samples += run_calls(workload, workload.cycle(i))
        i += 1
    return samples


def measure_traced(workload, recorder, seconds: float):
    """Run each call untraced and then traced, for whole cycles, until `seconds` have passed.

    Pairing the two runs of each call keeps drift in machine speed out of the
    overhead ratio.  Patching happens outside the timed calls.
    """
    untraced, traced = [], []
    start, i = time.perf_counter(), 0
    while not traced or time.perf_counter() - start < seconds:
        for item in workload.cycle(i):
            untraced += run_calls(workload, [item])
            with recorder:
                recorder.install(count_results={"dynamics.run_sweep": len})
                traced += run_calls(workload, [item])
        i += 1
    return untraced, traced


def check(workload, samples) -> tuple[int, int]:
    """(attempted, failed) operations; a call that raised fails all its operations."""
    attempted = failed = 0
    for item, _, output in samples:
        ops = workload.ops(item)
        attempted += ops
        if isinstance(output, Exception):
            failed += ops
            continue
        try:
            failed += min(ops, workload.check(item, output))
        except Exception:  # malformed output the check could not read
            failed += ops
    return attempted, failed


def tail(walls: list[float]) -> tuple[float, str]:
    """Highest percentile with at least TAIL_MIN_BEYOND calls above it.

    With fewer than 2 * TAIL_MIN_BEYOND calls no percentile from p50 up has
    that many above it, so the tail is not resolved and the median is reported.
    """
    ordered = sorted(walls)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= TAIL_MIN_BEYOND:
            return ordered[rank - 1], f"p{p:g}"
    return statistics.median(ordered), "p50 (too few calls for a tail)"


def metric(value: float, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def end_to_end(workload, samples, attempted, failed, starts, rss_mb):
    walls = [wall for _, wall, _ in samples]
    setup_s = statistics.median(starts)
    ops = sum(workload.ops(item) for item, _, _ in samples)
    p50_ms = statistics.median(walls) * 1e3
    tail_ms, tail_at = tail(walls)
    tail_ms *= 1e3
    ops_per_s = ops / sum(walls)
    calls = len(walls)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "success_rate": metric((attempted - failed) / attempted, "ok/op"),
        "ops_per_s": metric(ops_per_s, "op/s"),
        "call_p50_ms": metric(p50_ms, "ms"),
        "call_tail_ms": metric(tail_ms, "ms"),
    }
    named = {
        "setup_s": metric(setup_s, "s", samples=len(starts)),
        "peak_rss_mb": metric(rss_mb, "MB", samples=1),
        "error_rate": metric(failed / attempted, "failed/attempted", samples=attempted),
        **workload.named_metrics(CallStats(p50_ms, tail_ms, tail_at, ops_per_s, calls, ops)),
    }
    return metrics, named


def per_layer(summary: dict, ops: int, counts: dict, overhead: float) -> dict:
    """Per-operation layer costs from the traced replay; missing spans read as zero."""

    def total(key: str, *names: str) -> float:
        return sum(summary.get(n, {}).get(key, 0.0) for n in names)

    def layer_total(key: str, layer: str) -> float:
        return sum(v[key] for n, v in summary.items() if n.split(".", 1)[0] == layer)

    lapack = [n for n in summary if n.startswith(spans.LAPACK_LAYER + ".")]
    negativity_calls = total("calls", "entanglement.double_negativity")
    dense_calls = total("calls", "linalg.negative_sum")
    values = {
        "entanglement.self_ms_per_op": (layer_total("self_ms", "entanglement"), "ms/op"),
        "entanglement.negativity_calls_per_op": (negativity_calls, "calls/op"),
        "entanglement.mebd_calls_per_op": (total("calls", "entanglement.mebd"), "calls/op"),
        "hilbert.ptranspose_ms_per_op": (total("ms", "hilbert.partial_transpose"), "ms/op"),
        "hilbert.ptranspose_calls_per_op": (total("calls", "hilbert.partial_transpose"),
                                            "calls/op"),
        "hilbert.ptrace_ms_per_op": (total("ms", "hilbert.partial_trace"), "ms/op"),
        "hilbert.ptrace_calls_per_op": (total("calls", "hilbert.partial_trace"), "calls/op"),
        "lapack.eigvalsh_calls_per_op": (total("calls", "lapack.eigvalsh"), "calls/op"),
        "lapack.svd_calls_per_op": (total("calls", "lapack.svd"), "calls/op"),
        "lapack.eigh_calls_per_op": (total("calls", "lapack.eigh"), "calls/op"),
        "lapack.ms_per_op": (total("ms", *lapack), "ms/op"),
        "lapack.flops_est_per_op": (total("flops", *lapack), "flop/op"),
        "dynamics.self_ms_per_op": (layer_total("self_ms", "dynamics"), "ms/op"),
        "dynamics.tau_points_per_op": (counts.get("dynamics.run_sweep", 0), "tau/op"),
        "dynamics.first_max_ms_per_op": (total("ms", "dynamics.find_first_maximum"), "ms/op"),
        "model.build_ms_per_op": (total("ms", "model.build_hdz"), "ms/op"),
        "model.build_calls_per_op": (total("calls", "model.build_hdz"), "calls/op"),
        "linalg.eig_ms_per_op": (total("ms", "linalg.hermitian_eig"), "ms/op"),
        "linalg.eig_calls_per_op": (total("calls", "linalg.hermitian_eig"), "calls/op"),
        "linalg.dense_negsum_ms_per_op": (total("ms", "linalg.negative_sum"), "ms/op"),
        "linalg.dense_negsum_calls_per_op": (dense_calls, "calls/op"),
        "cli.self_ms_per_op": (layer_total("self_ms", "cli"), "ms/op"),
    }
    out = {name: metric(v / ops, unit) for name, (v, unit) in values.items()}
    # Dense negative_sum calls per double_negativity call: blocked attempts that were wasted.
    out["entanglement.dense_fallback_ratio"] = metric(
        dense_calls / negativity_calls if negativity_calls else 0.0, "ratio")
    out["trace.overhead_ratio"] = metric(overhead, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mebd" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'mebd'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mebd
    import mebd.cli  # noqa: F401  (public entry points the workloads call)
    import mebd.dynamics  # noqa: F401
    import mebd.entanglement  # noqa: F401

    if Path(mebd.__file__).resolve().parent != (SRC / "mebd").resolve():
        print(f"perfbench: imported mebd from {mebd.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, mebd)
    workload.warmup()
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "op": workload.op, "environment": environment()}

    if args.trace == 0:
        starts = setup_walls()
        samples = measure(workload, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        starts += setup_walls()
        attempted, failed = check(workload, samples)
        metrics, named = end_to_end(workload, samples, attempted, failed, starts, rss_mb)
        report["metrics"] = named
        report["calls"] = len(samples)
    else:
        recorder = spans.SpanRecorder()
        untraced, traced = measure_traced(workload, recorder, args.seconds)
        attempted, failed = check(workload, untraced + traced)
        overhead = sum(w for _, w, _ in traced) / sum(w for _, w, _ in untraced)
        ops = sum(workload.ops(item) for item, _, _ in traced)
        summary = spans.summarize(recorder.spans)
        metrics = per_layer(summary, ops, recorder.result_counts, overhead)
        report["metrics"] = metrics
        report["spans"] = {name: {k: round(v, 6) for k, v in agg.items()}
                           for name, agg in sorted(summary.items())}
        report["calls"] = len(traced)
        report["ops"] = ops
    report["attempted"], report["failed"] = attempted, failed
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
