"""The four workloads: seeded inputs, the timed call into mebd, and the oracle check.

Each workload hands the program only inputs generated from the seed, calls
only public entry points (cli.main, dynamics.SweepConfig / run_sweep,
entanglement.lower_estimate_level), and looks them up as module attributes at
call time so a traced run sees its patched functions.  Why each workload
exists is recorded in NOTES.md.

An item is one timed call.  cycle(i) returns the items of cycle i, built
outside the timed region; the same seed and i always give the same items.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

import oracle


@dataclass(frozen=True)
class CallStats:
    """Timing summary of one untraced run, for the workload's own metric names."""

    p50_ms: float
    tail_ms: float
    tail_at: str
    ops_per_s: float
    calls: int
    ops: int


def _rng(seed: int, cycle: int) -> np.random.Generator:
    return np.random.default_rng([seed, cycle])


def _run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class SweepN8:
    """Full-witness N=8 sweep through dynamics.run_sweep, serial library default."""

    name = "sweep-n8"
    op = "tau point"
    # Uniform grid 0.5, 1.1, 1.7, 2.3: four tau points per run_sweep call.
    TAU_START, TAU_STEP, TAU_END = 0.5, 0.6, 2.3
    TAUS = TAU_START + TAU_STEP * np.arange(4)
    QUANTITIES = ("mebd", "e1_fixed", "e_tilde")

    def __init__(self, seed: int, mebd):
        self.mebd = mebd
        labels = oracle.half_filled_labels(8)
        # Seed 0 is the canonical chain; 31 is coprime to the 70 labels, so
        # consecutive seeds visit every label.
        self.label = labels[(labels.index("10011001") + 31 * seed) % len(labels)]

    def cycle(self, i: int) -> list[str]:
        return [self.label]

    def ops(self, label: str) -> int:
        return len(self.TAUS)

    def _config(self, n: int, label: str, tau_end: float):
        return self.mebd.dynamics.SweepConfig(
            n_sites=n, initial_label=label, tau_start=self.TAU_START, tau_end=tau_end,
            tau_step=self.TAU_STEP, quantities=self.QUANTITIES)

    def warmup(self) -> None:
        self.mebd.dynamics.run_sweep(self._config(4, "1001", self.TAU_START + self.TAU_STEP))

    def call(self, label: str):
        return self.mebd.dynamics.run_sweep(self._config(8, label, self.TAU_END))

    def named_metrics(self, s: CallStats) -> dict:
        return {"sweep_tau_per_s": {"value": s.ops_per_s, "unit": "tau/s", "samples": s.calls}}

    def check(self, label: str, records) -> int:
        got = [(r.tau, dict(r.values)) for r in records]
        return oracle.check_sweep(label, self.TAUS, got)


class Table1:
    """`mebd table1 --json` in-process through cli.main, rows checked against the reference maxima.

    The N=8 row is left out: when the benchmark was added it alone took about
    140 s, more than one run may last.  sweep-n8 measures the N=8 kernel.
    """

    name = "table1"
    op = "table1 row"
    ROWS = (3, 4, 6)
    ARGV = ("table1", "--json", "--n-list", ",".join(map(str, ROWS)))

    def __init__(self, seed: int, mebd):
        self.mebd = mebd
        self.dev_max = 0.0

    def cycle(self, i: int) -> list[tuple[str, ...]]:
        return [self.ARGV]

    def ops(self, argv: tuple[str, ...]) -> int:
        return len(self.ROWS)

    def warmup(self) -> None:
        _run_cli(self.mebd.cli, ["table1", "--json", "--n-list", "3"])

    def call(self, argv: tuple[str, ...]):
        return _run_cli(self.mebd.cli, list(argv))

    def named_metrics(self, s: CallStats) -> dict:
        return {"table1_s": {"value": s.p50_ms / 1e3, "unit": "s", "samples": s.calls},
                "table1_dev_max": {"value": self.dev_max, "unit": "tau or E", "samples": s.ops}}

    def check(self, argv: tuple[str, ...], output) -> int:
        code, text = output
        try:
            rows = json.loads(text)["rows"]
        except (ValueError, KeyError, TypeError):
            return len(self.ROWS)
        if code != 0 or tuple(r.get("n_sites") for r in rows) != self.ROWS:
            return len(self.ROWS)
        failed, dev = oracle.check_table1(rows)
        self.dev_max = max(self.dev_max, dev)
        return failed


@dataclass(frozen=True, eq=False)
class LadderItem:
    label: str
    tau: float
    psi: np.ndarray
    rho: np.ndarray


class LevelsN7:
    """The level-k ladder, k = 1..max_level(7), on a seeded rho(tau) of an N=7 chain.

    rho is built outside the timed region; the ladder works on its mixed
    reduced states (partial traces, then partial transposes of sub-registers).
    """

    name = "levels-n7"
    op = "ladder"
    N = 7

    def __init__(self, seed: int, mebd):
        self.mebd = mebd
        self.seed = seed
        self.labels = oracle.half_filled_labels(self.N)

    def cycle(self, i: int) -> list[LadderItem]:
        rng = _rng(self.seed, i)
        label = self.labels[rng.integers(len(self.labels))]
        tau = float(rng.uniform(0.5, 2.5))
        psi = oracle.evolve(label, tau)[0]
        return [LadderItem(label, tau, psi, np.outer(psi, psi.conj()))]

    def ops(self, item: LadderItem) -> int:
        return 1

    def _ladder(self, rho: np.ndarray, n: int) -> list[float]:
        ent = self.mebd.entanglement
        return [ent.lower_estimate_level(rho, k) for k in range(1, ent.max_level(n) + 1)]

    def warmup(self) -> None:
        psi = oracle.evolve("0110", 1.0)[0]
        self._ladder(np.outer(psi, psi.conj()), 4)

    def call(self, item: LadderItem):
        return self._ladder(item.rho, self.N)

    def named_metrics(self, s: CallStats) -> dict:
        return {"ladder_p50_s": {"value": s.p50_ms / 1e3, "unit": "s", "samples": s.calls}}

    def check(self, item: LadderItem, ladder) -> int:
        return oracle.check_ladder(item.psi, list(ladder))


@dataclass(frozen=True)
class QueryItem:
    n: int
    label: str
    tau: float
    sites_a: tuple[int, ...]

    def argv(self) -> list[str]:
        b = [s for s in range(1, self.n + 1) if s not in self.sites_a]
        split = ",".join(map(str, self.sites_a)) + "|" + ",".join(map(str, b))
        return ["negativity", "--n", str(self.n), "--init", self.label,
                "--tau", repr(self.tau), "--partition", split]


class Queries:
    """Closed loop, one client: one-off `mebd negativity` calls through cli.main.

    A cycle holds 40 queries with a fixed mix of chain lengths: 8 at N=6, 8 at
    N=7, 12 at N=8, 11 at N=9 and 1 at N=10.  Cost grows steeply with N, so the
    median falls inside the N=8 class and the tail percentiles (p75 to p95)
    inside the N=9 class, away from class edges.  The order of lengths is one
    fixed shuffle: the heap's history, and so the peak resident memory, would
    otherwise change with the seed.  Label, tau and split come from the seed.
    Runs measure whole cycles.
    """

    name = "queries"
    op = "query"
    MIX = (6,) * 8 + (7,) * 8 + (8,) * 12 + (9,) * 11 + (10,)
    ORDER = tuple(int(n) for n in np.random.default_rng(0).permutation(MIX))

    def __init__(self, seed: int, mebd):
        self.mebd = mebd
        self.seed = seed
        self.labels = {n: oracle.half_filled_labels(n) for n in set(self.MIX)}

    def cycle(self, i: int) -> list[QueryItem]:
        rng = _rng(self.seed, i)
        items = []
        for n in self.ORDER:
            label = self.labels[n][rng.integers(len(self.labels[n]))]
            tau = float(rng.uniform(0.2, 3.0))
            mask = int(rng.integers(1, (1 << n) - 1))
            sites_a = tuple(s + 1 for s in range(n) if mask >> s & 1)
            items.append(QueryItem(n, label, tau, sites_a))
        return items

    def ops(self, item: QueryItem) -> int:
        return 1

    def warmup(self) -> None:
        _run_cli(self.mebd.cli, QueryItem(4, "1001", 1.0, (1, 2)).argv())

    def call(self, item: QueryItem):
        return _run_cli(self.mebd.cli, item.argv())

    def named_metrics(self, s: CallStats) -> dict:
        return {"query_p50_ms": {"value": s.p50_ms, "unit": "ms", "samples": s.calls},
                "query_tail_ms": {"value": s.tail_ms, "unit": "ms", "samples": s.calls,
                                  "percentile": s.tail_at}}

    def check(self, item: QueryItem, output) -> int:
        code, text = output
        try:
            value = float(text)
        except ValueError:
            return 1
        if code != 0 or not math.isfinite(value):
            return 1
        return oracle.check_query(item.label, item.tau, item.sites_a, value)


WORKLOADS = {w.name: w for w in (SweepN8, Table1, LevelsN7, Queries)}
