"""Tests of the benchmark itself, kept out of the package's test suite.

    python3 perfbench/selftest.py

Takes about two minutes: the smoke tests run every workload once with
tracing off and once with it on.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import threading
import unittest
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402  (pins BLAS threads before numpy is imported)

import numpy as np  # noqa: E402

import mebd  # noqa: E402
import mebd.cli  # noqa: E402,F401
import mebd.dynamics  # noqa: E402,F401
import mebd.entanglement  # noqa: E402,F401
import oracle  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, LevelsN7, Queries, QueryItem, SweepN8, Table1  # noqa: E402


def same(a, b) -> bool:
    """Structural equality that compares numpy arrays element by element."""
    if dataclasses.is_dataclass(a) and type(a) is type(b):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for cls in WORKLOADS.values():
            for i in (0, 1, 5):
                with self.subTest(workload=cls.name, cycle=i):
                    self.assertTrue(same(cls(7, mebd).cycle(i), cls(7, mebd).cycle(i)))

    def test_seed_changes_seeded_inputs(self):
        for cls in (SweepN8, LevelsN7, Queries):
            with self.subTest(workload=cls.name):
                self.assertFalse(same(cls(7, mebd).cycle(0), cls(8, mebd).cycle(0)))

    def test_seed_zero_is_the_canonical_n8_chain(self):
        self.assertEqual(SweepN8(0, mebd).label, "10011001")

    def test_query_mix_is_fixed(self):
        sizes = sorted(item.n for item in Queries(3, mebd).cycle(2))
        self.assertEqual(tuple(sizes), Queries.MIX)


class PerturbedResultTest(unittest.TestCase):
    """A deliberately wrong result must count as a failed operation."""

    def test_sweep(self):
        wl = SweepN8(0, mebd)
        item = wl.cycle(0)[0]
        records = wl.call(item)
        self.assertEqual(wl.check(item, records), 0)
        bad = list(records)
        bad[2] = dataclasses.replace(bad[2], values={**bad[2].values,
                                                     "mebd": bad[2].values["mebd"] + 1e-4})
        self.assertEqual(wl.check(item, bad), 1)
        self.assertEqual(wl.check(item, records[:-1]), wl.ops(item))

    def test_query(self):
        wl = Queries(0, mebd)
        item = QueryItem(6, "101010", 1.25, (1, 4))
        code, text = wl.call(item)
        self.assertEqual(wl.check(item, (code, text)), 0)
        self.assertEqual(wl.check(item, (code, repr(float(text) + 1e-4))), 1)
        self.assertEqual(wl.check(item, (3, text)), 1)
        self.assertEqual(wl.check(item, (0, "nan")), 1)

    def test_table1(self):
        wl = Table1(0, mebd)
        item = wl.cycle(0)[0]
        rows = [{"n_sites": n, "tau_star": oracle.REFERENCE_MAXIMA[n][1],
                 "value": oracle.REFERENCE_MAXIMA[n][2]} for n in Table1.ROWS]
        self.assertEqual(wl.check(item, (0, json.dumps({"rows": rows}))), 0)
        rows[1]["tau_star"] += 0.02
        self.assertEqual(wl.check(item, (0, json.dumps({"rows": rows}))), 1)
        self.assertEqual(wl.check(item, (4, json.dumps({"rows": rows}))), 3)

    def test_ladder(self):
        wl = LevelsN7(0, mebd)
        item = wl.cycle(0)[0]
        ladder = wl.call(item)
        self.assertEqual(wl.check(item, ladder), 0)
        self.assertEqual(wl.check(item, ladder[:-1] + [ladder[-2] + 1e-4]), 1)
        self.assertEqual(wl.check(item, [ladder[0] + 1.0] + ladder[1:]), 1)

    def test_exception_fails_every_operation_of_the_call(self):
        wl = SweepN8(0, mebd)
        item = wl.cycle(0)[0]
        self.assertEqual(run.check(wl, [(item, 1.0, ValueError("boom"))]), (4, 4))


class SpanRecorderTest(unittest.TestCase):
    def test_threads_lose_no_span_and_pool_tasks_keep_their_parent(self):
        recorder = spans.SpanRecorder()
        leaf = recorder.wrap("hilbert.leaf", lambda: None)

        def outer():
            with ThreadPoolExecutor(max_workers=4) as pool:
                for future in [pool.submit(leaf) for _ in range(200)]:
                    future.result()

        outer = recorder.wrap("dynamics.outer", outer)
        workers, calls = 6, 2000
        submit = ThreadPoolExecutor.submit
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            recorder.install()
            threads = [threading.Thread(target=lambda: [leaf() for _ in range(calls)])
                       for _ in range(workers)]
            for t in threads:
                t.start()
            outer()
            for t in threads:
                t.join(timeout=60)
                self.assertFalse(t.is_alive())
        finally:
            recorder.uninstall()
            sys.setswitchinterval(old)
        self.assertIs(ThreadPoolExecutor.submit, submit)
        ids = [s[0] for s in recorder.spans]
        self.assertEqual(len(ids), len(set(ids)))
        summary = spans.summarize(recorder.spans)
        self.assertEqual(summary["hilbert.leaf"]["calls"], workers * calls + 200)
        self.assertEqual(summary["dynamics.outer.task"]["calls"], 200)
        (outer_id,) = [s[0] for s in recorder.spans if s[2] == "dynamics.outer"]
        task_parents = {s[1] for s in recorder.spans if s[2] == "dynamics.outer.task"}
        self.assertEqual(task_parents, {outer_id})

    def test_install_patches_imported_names_and_restores_them(self):
        original = mebd.hilbert.partial_transpose
        recorder = spans.SpanRecorder()
        with recorder:
            recorder.install()
            self.assertIs(mebd.entanglement.partial_transpose, mebd.hilbert.partial_transpose)
            self.assertIsNot(mebd.hilbert.partial_transpose, original)
        self.assertIs(mebd.entanglement.partial_transpose, original)
        self.assertIs(mebd.hilbert.partial_transpose, original)


class SmokeTest(unittest.TestCase):
    """A tiny run of every workload prints every declared metric with its unit."""

    @classmethod
    def setUpClass(cls):
        with open(ROOT / "BENCHMARK.json") as fh:
            cls.spec = json.load(fh)

    def _run(self, workload: str, trace: int) -> dict:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_workload(self):
        declared = {w["name"] for w in self.spec["workloads"]}
        self.assertEqual(declared, set(WORKLOADS))
        for workload in sorted(declared):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self._run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)


if __name__ == "__main__":
    unittest.main()
