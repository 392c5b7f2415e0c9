import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mebd import dynamics, entanglement
from mebd.dynamics import (
    EVOLVE_BATCH,
    GATHER_ELEMENTS,
    REFINE_TOL,
    MEBD,
    E1_FIXED,
    E_TILDE,
    PER_PARTITION,
    MaximumReport,
    NoMaximumFound,
    SweepConfig,
    SweepRecord,
    amplitudes,
    default_fixed_bipartition,
    find_first_maximum,
    first_maximum,
    run_sweep,
    sanity_tau_bound,
    sector_eigensystem,
)
from mebd.entanglement import double_negativity, mebd, single_node_witness
from mebd.hilbert import Bipartition, SiteSet, excitation_sector, partial_trace
from mebd.model import CouplingKind, build_hdz

from conftest import (all_splits_first_maximum, dense_eigensystem, dense_lower_estimate_1,
                      evolve_full, full_hdz, pure_density)


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

    @pytest.mark.parametrize("quantities, repeated", [
        ((MEBD, MEBD), MEBD), ((MEBD, E_TILDE, PER_PARTITION, E_TILDE), E_TILDE)])
    def test_duplicate_quantities(self, quantities, repeated):
        # A repeated quantity would give one column, not the two asked for.
        with pytest.raises(ValueError, match=f"duplicate quantity '{repeated}'"):
            SweepConfig(3, "010", quantities=quantities)

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
        (psi,) = evolve_full(2, "10", [tau], profile)
        assert np.max(np.abs(np.outer(psi, psi.conj()) - expected)) < 1e-10

    def test_tau_zero_is_initial_state(self):
        (psi,) = evolve_full(3, "010", [0.0])
        assert np.max(np.abs(np.outer(psi, psi.conj()) - pure_density("010"))) < 1e-12

    def test_bad_label_length(self):
        with pytest.raises(ValueError):
            sector_eigensystem(3, "0101")
        with pytest.raises(ValueError):
            sector_eigensystem(4, "010")

    def test_profile_by_name(self):
        (psi,) = evolve_full(3, "010", [0.1], "all-pairs")
        (ref,) = evolve_full(3, "010", [0.1], CouplingKind.ALL_PAIRS_DIPOLAR)
        assert np.array_equal(psi, ref)
        with pytest.raises(ValueError, match="not a valid CouplingKind"):
            sector_eigensystem(3, "010", "bogus")

    def test_memory_stays_in_sector(self):
        # At N=12 half filling the eigensolve builds H's rows at the 252 orbit
        # representatives (252 x 924, 1.9 MB) and v (at most 924 x 924 complex,
        # 13.7 MB); a 2^12 x 2^12 H alone would take 134 MB.  101010101010 is
        # fixed by RX and reaches half the blocks; 110010100101 is fixed by no
        # element of G and reaches them all.
        for label in ("101010101010", "110010100101"):
            tracemalloc.start()
            try:
                evolve_full(12, label, [1.0])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2**20, label

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_rejected(self, bad):
        _, w, v, c0 = sector_eigensystem(3, "010")
        with pytest.raises(ValueError, match="tau must be finite"):
            amplitudes(w, v, c0, [0.5, bad])

    @pytest.mark.parametrize("taus", [0.5, [[0.5, 1.0]]])
    def test_taus_not_one_dimensional_rejected(self, taus):
        # np.outer would flatten a 2-D array into rows that match no input shape.
        _, w, v, c0 = sector_eigensystem(3, "010")
        with pytest.raises(ValueError, match="1-D"):
            amplitudes(w, v, c0, taus)

    @pytest.mark.parametrize("taus", [[1 + 2j], ["0.5"]], ids=["complex", "string"])
    def test_non_real_tau_rejected(self, taus):
        _, w, v, c0 = sector_eigensystem(3, "010")
        with pytest.raises(ValueError, match="real numbers"):
            amplitudes(w, v, c0, taus)

    @pytest.mark.parametrize("n, label", [(3, "010"), (8, "10011001"), (12, "100110011001")])
    def test_rows_do_not_depend_on_the_batch(self, n, label):
        # One matrix-vector product per tau: a tau's row has the same bits
        # whichever other tau share the call.
        _, w, v, c0 = sector_eigensystem(n, label)
        taus = np.linspace(0.1, 2.9, 7)
        assert np.array_equal(amplitudes(w, v, c0, taus),
                              [amplitudes(w, v, c0, [t])[0] for t in taus])

    @pytest.mark.parametrize("n, label", [(8, "10011001"), (12, "100110011001")])
    def test_complex_eigenvectors_give_the_real_ones_rows(self, n, label):
        # sector_eigensystem writes the eigenvectors into the real part of a complex
        # v, so amplitudes does not cast on every call: its rows are those of the
        # real eigenvectors, bit for bit, and c0, the initial state's row of them,
        # stays real.
        sector, w, v, c0 = sector_eigensystem(n, label)
        assert v.dtype == np.complex128 and not v.imag.any()
        assert c0.dtype == np.float64
        assert np.array_equal(c0, v.real[sector.index(int(label, 2))])
        taus = np.linspace(0.0, 3.0, 61)
        assert np.array_equal(amplitudes(w, v, c0, taus), amplitudes(w, v.real, c0, taus))

    def test_one_row_per_tau_on_the_sector(self):
        # Column j is the amplitude of sector[j]; an empty tau array gives no rows.
        sector, w, v, c0 = sector_eigensystem(6, "100110")
        assert sector == excitation_sector(6, 3)
        assert amplitudes(w, v, c0, np.linspace(0.0, 3.0, 7)).shape == (7, 20)
        assert amplitudes(w, v, c0, []).shape == (0, 20)


def _eigensystem_cases():
    """Every k at N=2..10 and half filling at N=11 and 12, both profiles, up to three labels.

    The sector's first and last states, and one from a seeded draw: at half
    filling the first two are fixed by RX, so they reach half the blocks, and
    the drawn one is mostly fixed by nothing and reaches them all.
    """
    sizes = [(n, k) for n in range(2, 11) for k in range(n + 1)] + [(11, 5), (12, 6)]
    cases = []
    for n, k in sizes:
        sector = excitation_sector(n, k)
        pick = np.random.default_rng(100 * n + k).integers(len(sector))
        labels = sorted({format(sector[i], f"0{n}b") for i in (0, -1, pick)})
        cases += [pytest.param(n, label, p, id=f"{n}-{label}-{p.name}")
                  for p in CouplingKind for label in labels]
    return cases


class TestSymmetryBlocks:
    @pytest.mark.parametrize("n, label, profile", _eigensystem_cases())
    def test_blocks_match_the_dense_eigensystem(self, n, label, profile):
        # One eigh per mirror (and, at half filling, spin-flip) block: the kept
        # eigenpairs solve H, are orthonormal, hold the whole initial state, and
        # evolve it as the one dense eigh of the sector block does.
        sector, w, v, c0 = sector_eigensystem(n, label, profile)
        h = build_hdz(n, label.count("1"), profile)
        assert v.dtype == np.complex128 and v.flags.c_contiguous and c0.dtype == np.float64
        assert v.shape == (len(sector), len(w))
        assert np.array_equal(c0, v.real[sector.index(int(label, 2))])
        assert np.abs(h @ v - v * w).max() <= 1e-12
        assert np.abs(v.conj().T @ v - np.eye(len(w))).max() <= 1e-12
        assert abs(np.linalg.norm(c0) - 1.0) <= 1e-14
        taus = np.linspace(0.0, 3.0, 7)
        _, dw, dv, dc0 = dense_eigensystem(n, label, profile)
        assert np.abs(amplitudes(w, v, c0, taus) - amplitudes(dw, dv, dc0, taus)).max() <= 1e-12

    @pytest.mark.parametrize("label, kept", [("10011001", 38), ("100110011001", 472),
                                             ("11001010", 70)])
    def test_only_the_blocks_the_label_reaches(self, label, kept):
        # 10011001 and 100110011001 are fixed by the mirror, so they reach only
        # its even blocks; 11001010 is fixed by no element and reaches them all.
        # A mirrored label gives a mirrored psi(tau), bit for bit, exactly
        # when the label is its own mirror.
        n = len(label)
        sector, w, v, c0 = sector_eigensystem(n, label)
        assert v.shape == (len(sector), kept) and w.shape == c0.shape == (kept,)
        psi = amplitudes(w, v, c0, np.linspace(0.0, 3.0, 13))
        mirror = [sector.index(int(format(b, f"0{n}b")[::-1], 2)) for b in sector]
        assert np.array_equal(psi, psi[:, mirror]) == (label == label[::-1])

    @pytest.mark.parametrize("profile", CouplingKind)
    def test_couplings_are_mirror_symmetric(self, profile):
        # The blocks rest on H commuting with the mirror: a profile that does
        # not depend on |i - j| alone must fail here before it reaches them.
        for n in range(2, 13):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    assert profile.coupling(i, j) == profile.coupling(n + 1 - j, n + 1 - i)


class TestRunSweep:
    def test_memory_stays_in_sector(self):
        # An N=12 mebd sweep, plan build included: the Schmidt blocks of all
        # 2047 splits are gathered from the 924 sector amplitudes with int16
        # indices, one block shape at a time; psi is never padded to 2^12.
        # 110010100101 reaches every symmetry block, so v is 924 x 924.
        for label in ("101010101010", "110010100101"):
            entanglement._schmidt_plan.cache_clear()
            cfg = SweepConfig(12, label, tau_start=0.5, tau_end=1.1, tau_step=0.6,
                              quantities=(MEBD,))
            tracemalloc.start()
            try:
                assert len(run_sweep(cfg)) == 2
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2**20, label

    def test_e1_fixed_memory_bounded_by_chunks(self):
        # A one-site fixed part leaves a 6-site part: its rho stack over a
        # 128-point batch would be 128 x 64 x 64 complex (8 MB); run_sweep
        # takes the grid in batches of 2^16 / 64^2 = 16 points instead.
        fixed = Bipartition.from_masks(7, SiteSet.from_sites(7, [1]).mask)
        cfg = SweepConfig(7, "1001100", tau_end=0.01 * (EVOLVE_BATCH - 1), tau_step=0.01,
                          quantities=(E1_FIXED,), fixed_bipartition=fixed)
        tracemalloc.start()
        try:
            assert len(run_sweep(cfg)) == EVOLVE_BATCH
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_one_svd_per_block_shape(self, monkeypatch):
        # One batch of an N=8, k=4 sweep: the 127 splits' Schmidt blocks
        # C(|A|,j) x C(8-|A|,4-j) come in four shapes with two or more singular
        # values, (20,2), (10,3), (4,4) and (6,6) (r x 1 blocks take a norm).
        # The screen makes at most two svd calls per shape: the splits of
        # lowest bound, then those within reach of the row's minimum (the
        # second call is skipped where none is: 5 calls for the 2 tau, 7 for
        # the 128).  e1_fixed's eigvalsh calls do not grow with the number of
        # tau points in the batch.
        calls = {"svd": 0, "eigvalsh": 0}
        matrices = []
        for name in calls:
            def counted(a, *args, _name=name, _call=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                matrices.append(math.prod(a.shape[:-2]) if _name == "svd" else 0)
                return _call(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        shapes = {tuple(sorted((math.comb(a, j), math.comb(8 - a, 4 - j))))
                  for a in range(1, 8) for j in range(max(0, a - 4), min(a, 4) + 1)}
        assert sum(min(shape) >= 2 for shape in shapes) == 4
        counts = []
        for points in (2, EVOLVE_BATCH):
            calls.update(svd=0, eigvalsh=0)
            cfg = SweepConfig(8, "10011001", tau_end=0.01 * (points - 1), tau_step=0.01,
                              quantities=(MEBD, E1_FIXED, E_TILDE))
            assert len(run_sweep(cfg)) == points
            counts.append(dict(calls))
        assert counts[0]["eigvalsh"] == counts[1]["eigvalsh"] > 0
        assert [c["svd"] for c in counts] == [5, 7]
        assert all(c["svd"] <= 8 for c in counts)
        # The benchmark's sweep-n8 call (4 tau) hands svd 27 Schmidt blocks,
        # where the unscreened table takes 4 x (28 + 112 + 70 + 35) = 980.
        matrices.clear()
        run_sweep(SweepConfig(8, "10011001", tau_start=0.5, tau_end=2.3, tau_step=0.6,
                              quantities=(MEBD, E1_FIXED, E_TILDE)))
        assert sum(matrices) == 27

    def test_screened_records_match_the_full_table(self):
        # Without per_partition the sweep screens psi's splits down to each row's
        # minimum; with it every split is computed.  On the benchmark's N=8 grid
        # the three quantities agree bit for bit for every half-filled label, and
        # mebd is the least p_ column.
        labels = [format(i, "08b") for i in range(256) if i.bit_count() == 4]
        assert len(labels) == 70
        grid = dict(tau_start=0.5, tau_end=2.3, tau_step=0.6)
        for label in labels:
            quantities = (MEBD, E1_FIXED, E_TILDE)
            screened = run_sweep(SweepConfig(8, label, **grid, quantities=quantities))
            full = run_sweep(SweepConfig(8, label, **grid, quantities=(*quantities, PER_PARTITION)))
            assert len(screened) == len(full) == 4
            for rec, ref in zip(screened, full):
                assert rec.tau == ref.tau
                assert rec.values == {q: ref.values[q] for q in quantities}
                assert ref.values[MEBD] == min(v for q, v in ref.values.items()
                                               if q.startswith("p_"))

    def test_product_state_at_tau_zero(self):
        # At tau = 0 the basis state is a product across every split.  The
        # default fixed split is 1|2.3 at N=3 (one subsystem MEBD) and 1.2|3.4
        # at N=4 (two); the estimators drop round-off to exactly 0.0.
        for label in ("010", "1001"):
            cfg = SweepConfig(len(label), label, tau_end=0.01, tau_step=0.01)
            recs = run_sweep(cfg)
            assert recs[0].tau == 0.0
            assert recs[0].values[MEBD] < 1e-10
            assert recs[0].values[E1_FIXED] == 0.0
            assert recs[0].values[E_TILDE] == 0.0

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
        for psi in evolve_full(n, label, np.arange(0.0, 4.0, 0.25)):
            rho = np.outer(psi, psi.conj())
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert abs(np.trace(rho @ rho).real - 1.0) < 1e-9
            assert np.abs(rho[outside, :]).max() < 1e-10

    def test_never_transposes_full_state(self, monkeypatch):
        # Every split of the pure psi(tau) goes through the Schmidt kernel;
        # only the e1_fixed subsystem states reach the mixed kernel.
        n = 6
        kernel = entanglement._negativities
        seen = []

        def guarded(rho, masks):
            if rho.shape[-1] == 1 << n:
                raise AssertionError("the full 2^N state reached the mixed kernel")
            seen.append(rho.shape[-1])
            return kernel(rho, masks)

        monkeypatch.setattr(entanglement, "_negativities", guarded)
        cfg = SweepConfig(n, "100110", tau_end=1.0, tau_step=0.25,
                          quantities=(MEBD, E1_FIXED, E_TILDE, PER_PARTITION))
        assert len(run_sweep(cfg)) == 5
        assert seen and max(seen) == 1 << 3

    def test_batches_match_per_tau_evaluation(self):
        # A grid of a little more than two batches, checked at and across the
        # batch boundaries against per-tau evolution and the mixed-state path:
        # every quantity, and each split's column, must come from its own tau.
        n, label = 4, "1001"
        step = 0.01
        cfg = SweepConfig(n, label, tau_end=(2 * EVOLVE_BATCH + 2) * step, tau_step=step,
                          quantities=(MEBD, E1_FIXED, E_TILDE, PER_PARTITION))
        taus = cfg.grid()
        assert len(taus) > 2 * EVOLVE_BATCH
        records = run_sweep(cfg)
        batched = evolve_full(n, label, taus)
        fixed = default_fixed_bipartition(n)
        for i in (0, EVOLVE_BATCH - 1, EVOLVE_BATCH, EVOLVE_BATCH + 1,
                  2 * EVOLVE_BATCH - 1, 2 * EVOLVE_BATCH, len(taus) - 1):
            (psi,) = evolve_full(n, label, [taus[i]])
            assert np.max(np.abs(batched[i] - psi)) < 1e-13
            rho = np.outer(psi, psi.conj())
            got = records[i].values
            assert records[i].tau == taus[i]
            assert abs(got[MEBD] - mebd(rho).value) < 1e-12
            assert abs(got[E1_FIXED] - dense_lower_estimate_1(rho, fixed)) < 1e-12
            assert abs(got[E_TILDE] - single_node_witness(rho)) < 1e-12
            per_partition = mebd(rho).per_partition
            assert len(per_partition) == 7
            for p, value in per_partition.items():
                assert abs(got[f"p_{p.label()}"] - value) < 1e-12

    @pytest.mark.parametrize("n, label", [(3, "010"), (6, "100110"), (8, "10011001")])
    def test_records_do_not_depend_on_the_batch(self, monkeypatch, n, label):
        # Batches of 128, 1 and 7 points, and of 5 through GATHER_ELEMENTS, give
        # the same bits for every quantity on the 23-point grid.
        cfg = SweepConfig(n, label, tau_end=2.2, tau_step=0.1,
                          quantities=(MEBD, E1_FIXED, E_TILDE, PER_PARTITION))
        records = []
        for batch in (128, 1, 7):
            monkeypatch.setattr(dynamics, "EVOLVE_BATCH", batch)
            records.append(run_sweep(cfg))
        per_tau = (2 ** (n - 1) - 1) * math.comb(n, label.count("1"))  # gathered amplitudes
        monkeypatch.setattr(dynamics, "GATHER_ELEMENTS", 5 * per_tau)
        records.append(run_sweep(cfg))
        assert len(records[0]) == 23
        assert all(r == records[0] for r in records[1:])

    def test_batch_rule_bounds_kernel_inputs(self, monkeypatch):
        # The sweep's batch rule sizes what the kernels get: at most
        # GATHER_ELEMENTS amplitudes per Schmidt gather (511 splits x 252
        # amplitudes allow 16 points at N=10) and at most 2^16 entries per
        # mixed stack (4 states of 2^7 x 2^7 for the 7-site part of 1|2..8).
        gathers, stacks = [], []
        pure, mixed = entanglement.pure_negativities, entanglement._negativities

        def pure_counted(amps, n_sites, k, masks, **screen):
            masks = tuple(masks)
            gathers.append(len(amps) * len(masks) * amps.shape[1])
            return pure(amps, n_sites, k, masks, **screen)

        def mixed_counted(rho, masks):
            stacks.append(rho.size)
            return mixed(rho, masks)

        monkeypatch.setattr(entanglement, "pure_negativities", pure_counted)
        monkeypatch.setattr(entanglement, "_negativities", mixed_counted)
        cfg = SweepConfig(10, "1001100110", tau_start=0.5, tau_end=0.5 + 19 * 0.05,
                          tau_step=0.05, quantities=(MEBD,))
        assert len(run_sweep(cfg)) == 20
        assert len(gathers) == 2 and max(gathers) <= GATHER_ELEMENTS
        assert not stacks
        gathers.clear()
        fixed = Bipartition.from_masks(8, SiteSet.from_sites(8, [1]).mask)
        cfg = SweepConfig(8, "10011001", tau_start=0.5, tau_end=0.5 + 9 * 0.05, tau_step=0.05,
                          quantities=(E1_FIXED,), fixed_bipartition=fixed)
        assert len(run_sweep(cfg)) == 10
        assert len(gathers) == len(stacks) == 3 and max(gathers) <= GATHER_ELEMENTS
        assert max(stacks) <= 1 << 16

    @pytest.mark.parametrize("quantity", [MEBD, E_TILDE, E1_FIXED])
    def test_batch_rule_bounds_first_maximum(self, monkeypatch, quantity):
        # first_maximum's scan, candidate rows, rounds and certificate take the
        # same rule: with GATHER_ELEMENTS at 1000 no call gathers more (a full
        # N=6 row is 31 splits x 20 amplitudes, so the three-tau candidate and
        # certificate rows take one tau per call), and the report is unchanged.
        cfg = SweepConfig(6, "100110", tau_end=3.0, tau_step=0.05)
        expected = first_maximum(cfg, quantity, min_value=0.1)
        calls = kernel_calls(monkeypatch)
        monkeypatch.setattr(dynamics, "GATHER_ELEMENTS", 1000)
        assert first_maximum(cfg, quantity, min_value=0.1) == expected
        assert max(t * m for t, m in calls) * math.comb(6, 3) <= 1000

    @pytest.mark.parametrize("sites_a, batch", [((1, 2), EVOLVE_BATCH), ((1,), 16)])
    def test_e1_fixed_batches_match_lower_estimate_1(self, monkeypatch, sites_a, batch):
        # A fixed split of unequal parts, and one with a single-site part (one
        # subsystem MEBD only), on a grid of a little more than two EVOLVE_BATCH
        # lengths, against the dense oracle: rho_A and rho_B go through the
        # mixed kernel as (T, d, d) stacks, so run_sweep cuts the grid into
        # batches of 2^16 / d^2 points (16 for the 6-site part, 4 for the 7-site
        # one) and the points checked sit at and across their boundaries.  The
        # 7-site part costs ~35 ms per tau point, so that case sets EVOLVE_BATCH
        # to 16: the same boundaries on an eighth of the grid.
        monkeypatch.setattr(dynamics, "EVOLVE_BATCH", batch)
        n, label = 8, "10011001"
        fixed = Bipartition.from_masks(n, SiteSet.from_sites(n, sites_a).mask)
        step = 0.01
        cfg = SweepConfig(n, label, tau_end=(2 * batch + 2) * step, tau_step=step,
                          quantities=(E1_FIXED,), fixed_bipartition=fixed)
        taus = cfg.grid()
        assert len(taus) > 2 * batch
        records = run_sweep(cfg)
        for i in (0, 1, batch - 1, batch, 2 * batch, len(taus) - 1):
            (psi,) = evolve_full(n, label, [taus[i]])
            expected = dense_lower_estimate_1(np.outer(psi, psi.conj()), fixed)
            assert abs(records[i].values[E1_FIXED] - expected) < 1e-12

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.data())
    def test_e1_fixed_matches_dense_oracle(self, data):
        # Any label, any fixed split (one-site parts, site 1 in B) and a few tau.
        n = data.draw(st.integers(3, 7), label="n")
        label = data.draw(st.text("01", min_size=n, max_size=n), label="label")
        mask_a = data.draw(st.integers(1, (1 << n) - 2), label="mask_a")
        tau_start = data.draw(st.floats(0.0, 3.0), label="tau_start")
        points = data.draw(st.integers(1, 4), label="points")
        fixed = Bipartition.from_masks(n, mask_a)
        cfg = SweepConfig(n, label, tau_start=tau_start, tau_end=tau_start + 0.3 * points - 0.15,
                          tau_step=0.3, quantities=(MEBD, E1_FIXED), fixed_bipartition=fixed)
        records = run_sweep(cfg)
        assert len(records) == points
        for rec, psi in zip(records, evolve_full(n, label, cfg.grid())):
            expected = dense_lower_estimate_1(np.outer(psi, psi.conj()), fixed)
            assert abs(rec.values[E1_FIXED] - expected) < 1e-12

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.data())
    def test_screened_e1_fixed_matches_the_full_table(self, data):
        # Without per_partition the screen may leave the fixed split of psi at +inf;
        # E^1 <= MEBD keeps e1_fixed's minimum exact anyway.  Any label, any fixed split
        # and a few tau: mebd and e1_fixed are == to those of the unscreened sweep.
        n = data.draw(st.integers(3, 8), label="n")
        label = data.draw(st.text("01", min_size=n, max_size=n), label="label")
        fixed = Bipartition.from_masks(n, data.draw(st.integers(1, (1 << n) - 2), label="mask_a"))
        tau_start = data.draw(st.floats(0.0, 3.0), label="tau_start")
        grid = dict(tau_start=tau_start, tau_end=tau_start + 1.0, tau_step=0.25)
        screened = run_sweep(SweepConfig(n, label, **grid, quantities=(MEBD, E1_FIXED),
                                         fixed_bipartition=fixed))
        full = run_sweep(SweepConfig(n, label, **grid, quantities=(MEBD, E1_FIXED, PER_PARTITION),
                                     fixed_bipartition=fixed))
        assert [r.values for r in screened] == [{q: r.values[q] for q in (MEBD, E1_FIXED)}
                                                for r in full]

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
        # first_maximum refines inside [tau - step, tau + step], which are the
        # grid point's neighbours only on a uniform grid; here the neighbours of
        # tau = 1.05 are 0.9 and 3.0, and the maximum of 1 - (tau - 1)^2 is at 1.
        series = [SweepRecord(tau=t, values={MEBD: 1 - (t - 1) ** 2})
                  for t in (0.0, 0.9, 1.05, 3.0)]
        with pytest.raises(NoMaximumFound):
            find_first_maximum(series, MEBD)

    def test_empty_series(self):
        with pytest.raises(NoMaximumFound):
            find_first_maximum([], MEBD)


class TestFirstMaximum:
    def test_three_site_kink_on_coarse_grid(self):
        # At tau* the splits 1.3|2 and 1|2.3 cross; a parabola through the
        # step-0.05 grid misses this kink by 0.0103.
        cfg = SweepConfig(3, "010", tau_end=3.0, tau_step=0.05, quantities=(MEBD,))
        report = first_maximum(cfg, MEBD)
        assert report.kind == "exact"
        assert abs(report.tau_star - 1.50524) < 1e-4
        assert abs(report.value - 2 * math.sqrt(2) / 3) < 1e-7

    @pytest.mark.parametrize("n, label", [(3, "010"), (4, "1001"), (6, "100110")])
    def test_grid_step_does_not_move_the_maximum(self, n, label):
        reports = [first_maximum(SweepConfig(n, label, tau_end=3.0, tau_step=step,
                                             quantities=(MEBD,)), MEBD)
                   for step in (0.01, 0.05)]
        assert abs(reports[0].tau_star - reports[1].tau_star) < 1e-7
        assert abs(reports[0].value - reports[1].value) < 1e-7
        assert all(r.value <= 1 + 1e-12 for r in reports)  # a one-site split caps MEBD at 1

    def test_value_is_the_curve_at_tau_star(self, monkeypatch):
        # One preparation (one eigensolve) serves the grid and every search step.
        eigensolves = []
        monkeypatch.setattr(dynamics, "sector_eigensystem",
                            lambda *a: eigensolves.append(a) or sector_eigensystem(*a))
        cfg = SweepConfig(6, "100110", tau_end=3.0, tau_step=0.05, quantities=(MEBD, E_TILDE))
        report = first_maximum(cfg, E_TILDE)
        assert len(eigensolves) == 1
        grid = find_first_maximum(run_sweep(cfg), E_TILDE)
        assert report.value > grid.value and abs(report.tau_star - grid.tau_star) <= 0.05
        at = SweepConfig(6, "100110", tau_start=report.tau_star, tau_end=report.tau_star + 0.1,
                         tau_step=0.1, quantities=(E_TILDE,))
        assert abs(run_sweep(at)[0].values[E_TILDE] - report.value) < 1e-12

    def test_flat_curve_keeps_the_grid_point(self):
        cfg = SweepConfig(2, "00", tau_end=1.0, tau_step=0.25, quantities=(MEBD,))
        report = first_maximum(cfg, MEBD, min_value=-math.inf)
        assert report == MaximumReport(tau_star=0.25, value=0.0, kind="grid-point")

    def test_evaluates_only_the_searched_quantity(self, monkeypatch):
        # An mebd search on the default quantities forms no mixed state: the
        # rho_A, rho_B of e1_fixed are not built for the grid or any step.
        mixed = []
        kernel = entanglement._negativities
        monkeypatch.setattr(entanglement, "_negativities",
                            lambda rho, masks: mixed.append(rho.shape) or kernel(rho, masks))
        cfg = SweepConfig(6, "100110", tau_end=3.0, tau_step=0.05)
        assert cfg.quantities == (MEBD, E1_FIXED, E_TILDE)
        report = first_maximum(cfg, MEBD)
        assert not mixed
        assert report == first_maximum(SweepConfig(6, "100110", tau_end=3.0, tau_step=0.05,
                                                   quantities=(MEBD,)), MEBD)

    def test_scan_stops_at_the_first_maximum(self, monkeypatch):
        # tau* = 2.1 is grid point 42 of 61; its right neighbour is in the third
        # batch of 16, so the scan ends there, and no later call reads a grid
        # point.  Without a qualifying maximum the whole grid is scanned; a
        # missing quantity, or per_partition, fails before anything is scanned.
        asked, prepare = [], dynamics._sweep_evaluator

        def watched(cfg):
            rows, reads = prepare(cfg)
            return (lambda taus, cols, *a: asked.append(taus) or rows(taus, cols, *a)), reads

        monkeypatch.setattr(dynamics, "_sweep_evaluator", watched)
        cfg = SweepConfig(6, "100110", tau_end=3.0, tau_step=0.05,
                          quantities=(MEBD, PER_PARTITION))
        grid_points = lambda: [taus for taus in asked if np.isin(taus, cfg.grid()).any()]
        assert first_maximum(cfg, MEBD).kind == "exact"
        assert [len(taus) for taus in grid_points()] == [16, 16, 16]
        assert np.array_equal(np.concatenate(grid_points()), cfg.grid()[:48])
        assert len(asked) > 3
        asked.clear()
        with pytest.raises(NoMaximumFound):
            first_maximum(cfg, MEBD, min_value=2.0)
        assert np.array_equal(np.concatenate(asked), cfg.grid())
        asked.clear()
        monkeypatch.setattr(dynamics, "sector_eigensystem", None)  # no eigensolve either
        for quantity in (E_TILDE, PER_PARTITION):
            with pytest.raises(ValueError, match=f"'{quantity}' is not in the series") as exc:
                first_maximum(cfg, quantity)
            assert not isinstance(exc.value, NoMaximumFound)
        assert not asked

    def test_search_reads_no_grid_point_twice(self, monkeypatch):
        # After the scan, the N=6 search evaluates psi only off the grid: the
        # candidates come from the scan's own rows at the grid cell.  The scan's
        # minima are the sweep's mebd values, bit for bit.
        cfg = SweepConfig(6, "100110", tau_end=3.0, tau_step=0.05, quantities=(MEBD,))
        evolved, scans, evolve, scan = [], [], dynamics.amplitudes, dynamics.find_first_maximum
        monkeypatch.setattr(dynamics, "amplitudes",
                            lambda w, v, c0, taus: evolved.append(taus) or evolve(w, v, c0, taus))
        monkeypatch.setattr(dynamics, "find_first_maximum",
                            lambda series, *a: scans.append(series) or scan(series, *a))
        assert first_maximum(cfg, MEBD).kind == "exact"
        assert np.array_equal(np.concatenate(evolved[:3]), cfg.grid()[:48])
        assert not np.isin(np.concatenate(evolved[3:]), cfg.grid()).any()
        swept = {r.tau: r.values[MEBD] for r in run_sweep(cfg)}
        assert len(scans) == 3
        assert all(r.values == {MEBD: swept[r.tau]} for series in scans for r in series)

    def test_nan_min_value_fails_before_the_eigensolve(self, monkeypatch):
        # Beside the quantity check: H is never built for a NaN min_value.
        def refused(*args):
            raise AssertionError("_hdz_rows called")

        monkeypatch.setattr(dynamics, "_hdz_rows", refused)
        cfg = SweepConfig(8, "10011001", tau_end=3.0, tau_step=0.05)
        with pytest.raises(ValueError, match="min_value must not be NaN"):
            first_maximum(cfg, MEBD, math.nan)

    def test_scan_checks_kept(self):
        cfg = SweepConfig(3, "010", tau_end=3.0, tau_step=0.05, quantities=(MEBD,))
        with pytest.raises(ValueError, match="min_value") as exc:
            first_maximum(cfg, MEBD, min_value=math.nan)
        assert not isinstance(exc.value, NoMaximumFound)
        with pytest.raises(ValueError, match="e_tilde"):
            first_maximum(cfg, E_TILDE)
        with pytest.raises(NoMaximumFound):
            first_maximum(cfg, MEBD, min_value=2.0)


def kernel_calls(monkeypatch):
    """(states, masks) of each pure_negativities call, in call order."""
    calls, kernel = [], entanglement.pure_negativities
    monkeypatch.setattr(entanglement, "pure_negativities", lambda amps, n, k, masks, **screen: (
        calls.append((len(amps), len(masks))) or kernel(amps, n, k, masks, **screen)))
    return calls


class TestCertifiedSearch:
    @pytest.mark.parametrize("n", range(3, 8))
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(st.data())
    def test_matches_all_splits_search(self, n, data):
        excited = data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, n - 1))]
        label = "".join("1" if i in excited else "0" for i in range(n))
        cfg = SweepConfig(n, label, data.draw(st.sampled_from(list(CouplingKind))),
                          tau_end=4.0, tau_step=data.draw(st.sampled_from([0.05, 0.1])))
        quantity = data.draw(st.sampled_from([MEBD, E_TILDE]), label="quantity")
        try:
            tau, value, kind = all_splits_first_maximum(cfg, quantity, min_value=0.1)
        except NoMaximumFound:
            with pytest.raises(NoMaximumFound):
                first_maximum(cfg, quantity, min_value=0.1)
            return
        report = first_maximum(cfg, quantity, min_value=0.1)
        assert report.kind == kind
        assert abs(report.tau_star - tau) <= REFINE_TOL
        assert abs(report.value - value) <= 1e-9

    def test_single_candidate_forces_a_retry(self, monkeypatch):
        # With one candidate per grid point the first search ends at tau 1.73111,
        # 7e-4 from tau*, where R is 4e-5 above the true maximum: the full row
        # there has its minimum at a split outside the candidates, so the
        # certificate fails once, that split joins them, and the second search
        # ends at the exact maximum.
        cfg = SweepConfig(6, "011010", tau_end=4.0, tau_step=0.1, quantities=(MEBD,))
        tau, value, _ = all_splits_first_maximum(cfg, MEBD, min_value=0.1)
        monkeypatch.setattr(dynamics, "CANDIDATE_SPLITS", 1)
        calls = kernel_calls(monkeypatch)
        report = first_maximum(cfg, MEBD, min_value=0.1)
        assert calls.count((3, 31)) == 2  # a failed and a held certificate
        assert abs(report.tau_star - tau) <= REFINE_TOL
        assert abs(report.value - value) <= 1e-9

    def test_steps_evaluate_only_candidate_splits(self, monkeypatch):
        calls = kernel_calls(monkeypatch)
        first_maximum(SweepConfig(6, "100110", tau_end=3.0, tau_step=0.05, quantities=(MEBD,)))
        # Three grid batches up to the maximum at tau 2.1 (point 42), whose rows
        # give the candidates at its cell, then eight rounds and the certificate
        # rows at b - h, b, b + h; 12 calls in all.
        assert len(calls) == 12
        assert [c for c in calls if c[1] == 31] == [(16, 31)] * 3 + [(3, 31)]
        rounds = [c for c in calls if c[1] != 31]
        assert len(rounds) == 8
        assert all(t == dynamics.SEARCH_BATCH and m <= 3 * dynamics.CANDIDATE_SPLITS
                   for t, m in rounds)

    def test_first_scan_batch_solves_few_svd_blocks(self, monkeypatch):
        # Near tau = 0 every split is close to 0.  The first scan batch of the
        # N=6 row (tau 0..0.75, 16 tau, the CANDIDATE_SPLITS lowest of each row)
        # hands svd 110 of the 560 Schmidt blocks the unscreened table takes.
        blocks, solved, svd, kernel = [], [], np.linalg.svd, entanglement.pure_negativities
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: (
            blocks.append(math.prod(a.shape[:-2])) or svd(a, *args, **kwargs)))

        def counted(amps, *args, **screen):
            blocks.clear()
            out = kernel(amps, *args, **screen)
            solved.append((len(amps), screen.get("lowest"), sum(blocks)))
            return out

        monkeypatch.setattr(entanglement, "pure_negativities", counted)
        first_maximum(SweepConfig(6, "100110", tau_end=3.0, tau_step=0.05, quantities=(MEBD,)))
        assert solved[0] == (16, dynamics.CANDIDATE_SPLITS, 110)
        amps = amplitudes(*sector_eigensystem(6, "100110")[1:], np.arange(16) * 0.05)
        counted(amps, 6, 3, range(1, 63, 2))
        assert solved[-1] == (16, None, 560)

    @pytest.mark.parametrize("quantity, n, label, splits", [
        # 010 is fixed by the mirror, so 1|2.3 and its mirror 1.2|3 tie at tau*.
        pytest.param(MEBD, 3, "010", ("1|2.3", "1.2|3", "1.3|2"), id="3-010-splits0"),
        # At the smooth N=4 maximum every one-site split is maximally entangled.
        pytest.param(MEBD, 4, "1001", ("1|2.3.4", "1.2.3|4", "1.2.4|3", "1.3.4|2"),
                     id="4-1001-splits1"),
        # 100110 is symmetric under reflection with a global spin flip, so its
        # partner splits 1|rest and 6|rest, 3|rest and 4|rest, tie at tau*.
        pytest.param(MEBD, 6, "100110",
                     ("1|2.3.4.5.6", "1.2.3.4.5|6", "1.2.3.5.6|4", "1.2.4.5.6|3"),
                     id="6-100110-splits2"),
        # e1_fixed on the default split, first half | rest: one split of each part.
        pytest.param(E1_FIXED, 6, "100110", ("1.2|3", "4|5.6"), id="e1_fixed-6-100110"),
        pytest.param(E1_FIXED, 8, "10011001", ("1.2.3|4", "5|6.7.8"), id="e1_fixed-8-10011001"),
    ])
    def test_splits_at_the_maximum(self, quantity, n, label, splits):
        cfg = SweepConfig(n, label, tau_end=3.0, tau_step=0.05, quantities=(quantity,))
        assert first_maximum(cfg, quantity, min_value=0.1).splits == splits

    def test_e1_fixed_names_its_columns(self):
        # The default N=6 split is 1.2.3|4.5.6.  At the maximum the named
        # columns, one split of each part on its reduced state, are both at E*,
        # and the fixed split's own column lies above it.
        cfg = SweepConfig(6, "100110", tau_end=3.0, tau_step=0.05, quantities=(E1_FIXED,))
        report = first_maximum(cfg, E1_FIXED, min_value=0.1)
        assert report.kind == "exact" and report.splits == ("1.2|3", "4|5.6")
        tau, value, kind = all_splits_first_maximum(cfg, E1_FIXED, min_value=0.1)
        assert abs(report.tau_star - tau) <= REFINE_TOL and abs(report.value - value) <= 1e-9
        (psi,) = evolve_full(6, "100110", [report.tau_star])
        rho = np.outer(psi, psi.conj())
        for part, a in (([1, 2, 3], [1, 2]), ([4, 5, 6], [1])):  # a: sites of the part's A
            sub = partial_trace(rho, SiteSet.from_sites(6, part))
            split = Bipartition.from_masks(3, SiteSet.from_sites(3, a).mask)
            assert abs(double_negativity(sub, split) - report.value) < 1e-8
        assert double_negativity(rho, default_fixed_bipartition(6)) > report.value + 0.1

    @pytest.mark.parametrize("n", range(3, 8))
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(st.data())
    def test_e1_fixed_matches_all_columns_search(self, n, data):
        # Any label and any fixed split: one-site parts, site 1 in B.
        label = data.draw(st.text("01", min_size=n, max_size=n), label="label")
        fixed = Bipartition.from_masks(n, data.draw(st.integers(1, (1 << n) - 2), label="mask_a"))
        cfg = SweepConfig(n, label, data.draw(st.sampled_from(list(CouplingKind))),
                          tau_end=4.0, tau_step=data.draw(st.sampled_from([0.05, 0.1])),
                          quantities=(E1_FIXED,), fixed_bipartition=fixed)
        try:
            tau, value, kind = all_splits_first_maximum(cfg, E1_FIXED, min_value=0.1)
        except NoMaximumFound:
            with pytest.raises(NoMaximumFound):
                first_maximum(cfg, E1_FIXED, min_value=0.1)
            return
        report = first_maximum(cfg, E1_FIXED, min_value=0.1)
        assert report.kind == kind
        assert abs(report.tau_star - tau) <= REFINE_TOL
        assert abs(report.value - value) <= 1e-9

    def test_e1_fixed_rounds_read_only_candidate_columns(self, monkeypatch):
        # N=7, fixed split 1|2..7: each grid batch, the candidate rows and the
        # certificate solve all 31 splits of the 6-site part; each of the 8
        # rounds solves only the candidates among them, in one call of 16 tau.
        solved, kernel = [], entanglement._negativities
        monkeypatch.setattr(entanglement, "_negativities", lambda rho, masks: (
            solved.append((rho.shape[1], len(masks))) or kernel(rho, masks)))
        cfg = SweepConfig(7, "1001100", tau_end=3.0, tau_step=0.05, quantities=(E1_FIXED,),
                          fixed_bipartition=Bipartition.from_masks(7, 1))
        assert first_maximum(cfg, E1_FIXED, min_value=0.3).kind == "exact"
        rounds = [c for c in solved if c[1] != 31]
        assert len(rounds) == 8 and len(solved) > 8
        assert all(t == dynamics.SEARCH_BATCH and m <= 3 * dynamics.CANDIDATE_SPLITS
                   for t, m in rounds)


class TestSanityTauBound:
    def test_values(self):
        ok = MaximumReport(tau_star=1.505, value=0.943, kind="exact")
        late = MaximumReport(tau_star=3.5, value=0.9, kind="grid-point")
        assert sanity_tau_bound(ok)
        assert sanity_tau_bound(MaximumReport(2.193, 0.988, "grid-point"))
        assert not sanity_tau_bound(late)
