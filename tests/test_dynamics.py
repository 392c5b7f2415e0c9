import math
import tracemalloc

import numpy as np
import pytest

from mebd import entanglement, hilbert
from mebd.dynamics import (
    EVOLVE_BATCH,
    MEBD,
    E1_FIXED,
    E_TILDE,
    PER_PARTITION,
    MaximumReport,
    NoMaximumFound,
    SweepConfig,
    SweepRecord,
    default_fixed_bipartition,
    evolve,
    find_first_maximum,
    run_sweep,
    sanity_tau_bound,
)
from mebd.entanglement import lower_estimate_1, mebd, single_node_witness
from mebd.hilbert import excitation_sector
from mebd.model import CouplingKind

from conftest import full_hdz, pure_density


class TestSweepConfig:
    def test_grid(self):
        cfg = SweepConfig(3, "010", tau_start=0.0, tau_end=1.0, tau_step=0.25)
        assert np.allclose(cfg.grid(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_grid_too_large(self):
        # 1e-15 asks for 4e15 points, 5e-324 for an infinite count: both are
        # refused before any array is built.
        for step in (1e-6, 1e-15, 5e-324):
            with pytest.raises(ValueError, match="grid exceeds"):
                SweepConfig(3, "010", tau_end=4.0, tau_step=step)

    def test_bad_label_length(self):
        with pytest.raises(ValueError):
            SweepConfig(3, "0101")

    @pytest.mark.parametrize("n", [0, 1, 13])
    def test_n_sites_out_of_range(self, n):
        with pytest.raises(ValueError, match=r"n_sites must be 2\.\.12"):
            SweepConfig(n, "1" * n)

    def test_empty_quantities(self):
        with pytest.raises(ValueError, match="quantities"):
            SweepConfig(3, "010", quantities=())

    def test_fixed_split_on_other_register(self):
        with pytest.raises(ValueError):
            SweepConfig(4, "1001", fixed_bipartition=default_fixed_bipartition(3))

    def test_profile_by_name(self):
        cfg = SweepConfig(3, "010", profile="nearest-neighbor", tau_end=0.5, tau_step=0.25)
        assert cfg.profile is CouplingKind.NEAREST_NEIGHBOR
        assert run_sweep(cfg) == run_sweep(
            SweepConfig(3, "010", profile=CouplingKind.NEAREST_NEIGHBOR, tau_end=0.5, tau_step=0.25))
        # An unknown name fails at construction, before any sweep.
        with pytest.raises(ValueError, match="not a valid CouplingKind"):
            SweepConfig(3, "010", profile="bogus")


class TestEvolve:
    def test_matches_taylor_series(self):
        # |10><10| under the 2-site nearest-neighbour chain at tau = pi/2,
        # against a truncated exponential series.
        profile = CouplingKind.NEAREST_NEIGHBOR
        h = full_hdz(2, profile)
        tau = np.pi / 2
        series = np.zeros_like(h, dtype=np.complex128)
        term = np.eye(4, dtype=np.complex128)
        for k in range(41):
            series += term
            term = term @ (-1j * h * tau) / (k + 1)
        rho0 = pure_density("10")
        expected = series @ rho0 @ series.conj().T
        (psi,) = evolve(2, "10", [tau], profile)
        assert np.max(np.abs(np.outer(psi, psi.conj()) - expected)) < 1e-10

    def test_tau_zero_is_initial_state(self):
        (psi,) = evolve(3, "010", [0.0])
        assert np.max(np.abs(np.outer(psi, psi.conj()) - pure_density("010"))) < 1e-12

    def test_bad_label_length(self):
        with pytest.raises(ValueError):
            next(evolve(3, "0101", [0.0]))

    def test_profile_by_name(self):
        (psi,) = evolve(3, "010", [0.1], "all-pairs")
        (ref,) = evolve(3, "010", [0.1], CouplingKind.ALL_PAIRS_DIPOLAR)
        assert np.array_equal(psi, ref)
        with pytest.raises(ValueError, match="not a valid CouplingKind"):
            next(evolve(3, "010", [0.1], "bogus"))

    def test_memory_stays_in_sector(self):
        # The N=12 half-filled sector block is 924 x 924 (6.8 MB); a 2^12 x
        # 2^12 H alone would take 134 MB.
        tracemalloc.start()
        try:
            next(evolve(12, "101010101010", [1.0]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestRunSweep:
    def test_product_state_at_tau_zero(self):
        cfg = SweepConfig(3, "010", tau_end=0.01, tau_step=0.01)
        recs = run_sweep(cfg)
        assert recs[0].tau == 0.0
        assert recs[0].values[MEBD] < 1e-10

    def test_two_spin_closed_form(self):
        # |10> under the nearest-neighbour 2-site chain: the cross
        # negativity is |sin tau|.
        cfg = SweepConfig(2, "10",
                          profile=CouplingKind.NEAREST_NEIGHBOR,
                          tau_end=3.0, tau_step=0.1, quantities=(MEBD,))
        for rec in run_sweep(cfg):
            assert abs(rec.values[MEBD] - abs(math.sin(rec.tau))) < 1e-9

    def test_conservation_along_sweep(self):
        n, label = 4, "1001"
        sector = set(excitation_sector(n, label.count("1")))
        outside = [i for i in range(1 << n) if i not in sector]
        for psi in evolve(n, label, np.arange(0.0, 4.0, 0.25)):
            rho = np.outer(psi, psi.conj())
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert abs(np.trace(rho @ rho).real - 1.0) < 1e-9
            assert np.abs(rho[outside, :]).max() < 1e-10

    def test_never_transposes_full_state(self, monkeypatch):
        # Every split of the pure psi(tau) goes through the Schmidt kernel;
        # only the e1_fixed subsystem states reach the partial transpose.
        n = 6
        transpose = hilbert.partial_transpose
        seen = []

        def guarded(rho, subset):
            if rho.shape[0] == 1 << n:
                raise AssertionError("partial transpose of the full 2^N state")
            seen.append(rho.shape[0])
            return transpose(rho, subset)

        monkeypatch.setattr(hilbert, "partial_transpose", guarded)
        monkeypatch.setattr(entanglement, "partial_transpose", guarded)
        cfg = SweepConfig(n, "100110", tau_end=1.0, tau_step=0.25,
                          quantities=(MEBD, E1_FIXED, E_TILDE, PER_PARTITION))
        assert len(run_sweep(cfg)) == 5
        assert seen and max(seen) == 1 << 3

    def test_batches_match_per_tau_evaluation(self):
        # A grid of a little more than two batches, checked at and across the
        # batch boundaries against per-tau evolution and the mixed-state path.
        n, label = 4, "1001"
        step = 0.01
        cfg = SweepConfig(n, label, tau_end=(2 * EVOLVE_BATCH + 2) * step, tau_step=step,
                          quantities=(MEBD, E1_FIXED, E_TILDE))
        taus = cfg.grid()
        assert len(taus) > 2 * EVOLVE_BATCH
        records = run_sweep(cfg)
        batched = list(evolve(n, label, taus))
        fixed = default_fixed_bipartition(n)
        for i in (0, EVOLVE_BATCH - 1, EVOLVE_BATCH, EVOLVE_BATCH + 1,
                  2 * EVOLVE_BATCH - 1, 2 * EVOLVE_BATCH, len(taus) - 1):
            (psi,) = evolve(n, label, [taus[i]])
            assert np.max(np.abs(batched[i] - psi)) < 1e-13
            rho = np.outer(psi, psi.conj())
            got = records[i].values
            assert records[i].tau == taus[i]
            assert abs(got[MEBD] - mebd(rho).value) < 1e-12
            assert abs(got[E1_FIXED] - lower_estimate_1(rho, fixed)) < 1e-12
            assert abs(got[E_TILDE] - single_node_witness(rho)) < 1e-12

    def test_estimator_ordering_pointwise(self):
        cfg = SweepConfig(4, "1001", tau_end=3.0, tau_step=0.1,
                          quantities=(MEBD, E1_FIXED, E_TILDE))
        for rec in run_sweep(cfg):
            assert rec.values[E1_FIXED] <= rec.values[MEBD] + 1e-9
            assert rec.values[MEBD] <= rec.values[E_TILDE] + 1e-9


class TestFindFirstMaximum:
    def test_three_site_reference_point(self):
        cfg = SweepConfig(3, "010", tau_end=3.0, tau_step=0.01, quantities=(MEBD,))
        report = find_first_maximum(run_sweep(cfg), MEBD)
        assert abs(report.tau_star - 1.505) < 0.01
        assert abs(report.value - 0.943) < 0.01

    def test_monotone_series_has_no_maximum(self):
        series = [SweepRecord(tau=t, values={MEBD: t}) for t in np.linspace(0, 1, 10)]
        with pytest.raises(NoMaximumFound):
            find_first_maximum(series, MEBD)

    def test_min_value_filters_ripples(self):
        taus = np.linspace(0, 2, 21)
        vals = 0.1 * np.exp(-((taus - 0.5) ** 2) / 0.01) \
            + 0.9 * np.exp(-((taus - 1.5) ** 2) / 0.01)
        series = [SweepRecord(tau=float(t), values={MEBD: float(v)})
                  for t, v in zip(taus, vals)]
        report = find_first_maximum(series, MEBD, min_value=0.5)
        assert abs(report.tau_star - 1.5) < 0.1

    def test_nan_min_value_rejected(self):
        series = [SweepRecord(tau=t, values={MEBD: 1 - (t - 1) ** 2}) for t in (0.5, 1.0, 1.5)]
        with pytest.raises(ValueError, match="min_value") as exc:
            find_first_maximum(series, MEBD, min_value=math.nan)
        assert not isinstance(exc.value, NoMaximumFound)
        assert find_first_maximum(series, MEBD, min_value=-math.inf).tau_star == 1.0

    def test_grid_convergence(self):
        coarse_step = 0.02
        reports = []
        for step in (coarse_step, coarse_step / 2):
            cfg = SweepConfig(3, "010", tau_end=3.0, tau_step=step, quantities=(MEBD,))
            reports.append(find_first_maximum(run_sweep(cfg), MEBD))
        assert abs(reports[0].tau_star - reports[1].tau_star) < coarse_step

    def test_non_uniform_grid_rejected(self):
        # The uniform-grid parabola would put this maximum at tau = 0.527,
        # E = 1.494; the true maximum of 1 - (tau - 1)^2 is 1 at tau = 1.
        series = [SweepRecord(tau=t, values={MEBD: 1 - (t - 1) ** 2})
                  for t in (0.0, 0.9, 1.05, 3.0)]
        with pytest.raises(NoMaximumFound):
            find_first_maximum(series, MEBD)

    def test_empty_series(self):
        with pytest.raises(NoMaximumFound):
            find_first_maximum([], MEBD)


class TestSanityTauBound:
    def test_values(self):
        ok = MaximumReport(tau_star=1.505, value=0.943, kind="parabolic-refined")
        late = MaximumReport(tau_star=3.5, value=0.9, kind="grid-point")
        assert sanity_tau_bound(ok)
        assert sanity_tau_bound(MaximumReport(2.193, 0.988, "grid-point"))
        assert not sanity_tau_bound(late)
