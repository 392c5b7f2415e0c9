import tracemalloc

import numpy as np
import pytest

from mebd.hilbert import (
    Bipartition,
    SiteSet,
    basis_index,
    excitation_sector,
    partial_trace,
    partial_transpose,
)

from conftest import (bell_state, negative_sum, pure_density, random_density,
                      transposed_partial_trace, w_state)


class TestSiteSet:
    def test_sites_roundtrip(self):
        s = SiteSet.from_sites(5, [1, 3, 5])
        assert s.sites() == (1, 3, 5)
        assert s.mask == 0b10101
        assert s.complement().sites() == (2, 4)

    def test_mask_bounds(self):
        with pytest.raises(ValueError):
            SiteSet(3, 8)

    def test_bipartition_validation(self):
        a = SiteSet.from_sites(3, [1])
        with pytest.raises(ValueError):
            Bipartition(a, a)  # overlap and not covering
        b = a.complement()
        p = Bipartition(a, b)
        assert p.label() == "1|2.3"


class TestBasisIndex:
    def test_all_zero(self):
        assert basis_index("000") == 0

    def test_site_one_most_significant(self):
        assert basis_index("100") == 4
        assert basis_index("010") == 2

    def test_roundtrip(self):
        for i in range(16):
            assert basis_index(format(i, "04b")) == i

    def test_bad_label(self):
        with pytest.raises(ValueError, match="0/1 string"):
            basis_index("01a")
        with pytest.raises(ValueError, match="0/1 string"):
            basis_index("")


class TestPureDensity:
    def test_basis_label(self):
        rho = pure_density("010")
        assert rho.shape == (8, 8)
        expected = np.zeros((8, 8))
        expected[2, 2] = 1.0
        assert np.array_equal(rho, expected)

    def test_bell_amplitudes(self):
        rho = pure_density(bell_state())
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-10

    def test_w_state_entries(self):
        rho = pure_density(w_state(3))
        slots = [basis_index(s) for s in ("001", "010", "100")]
        for i in slots:
            for j in slots:
                assert abs(rho[i, j] - 1 / 3) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match=r"\|psi\|"):
            pure_density(np.array([1.0, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match=r"\|psi\|"):
            pure_density(np.array([bad, 0.0]))


class TestPartialTrace:
    def test_keep_all(self, rng):
        rho = random_density(rng, 8)
        assert np.array_equal(partial_trace(rho, SiteSet(3, 0b111)), rho)

    def test_bell_reduces_to_maximally_mixed(self):
        rho = pure_density(bell_state())
        red = partial_trace(rho, SiteSet.from_sites(2, [1]))
        assert np.max(np.abs(red - np.eye(2) / 2)) < 1e-12

    def test_product_state(self):
        rho = pure_density("01")
        red = partial_trace(rho, SiteSet.from_sites(2, [2]))
        assert np.max(np.abs(red - np.diag([0.0, 1.0]))) < 1e-12

    def test_composition(self, rng):
        rho = random_density(rng, 16)
        step = partial_trace(partial_trace(rho, SiteSet.from_sites(4, [1, 2, 4])),
                             SiteSet.from_sites(3, [1, 2]))
        direct = partial_trace(rho, SiteSet.from_sites(4, [1, 2]))
        assert np.max(np.abs(step - direct)) < 1e-12

    def test_trace_and_hermiticity_preserved(self, rng):
        rho = random_density(rng, 8)
        red = partial_trace(rho, SiteSet.from_sites(3, [2, 3]))
        assert abs(np.trace(red) - 1.0) < 1e-12
        assert np.max(np.abs(red - red.conj().T)) < 1e-12

    def test_empty_keep(self, rng):
        with pytest.raises(ValueError, match="keep at least one site"):
            partial_trace(random_density(rng, 4), SiteSet(2, 0))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_transposed_form_on_every_keep_set(self, rng, n):
        rho = random_density(rng, 1 << n)
        for mask in range(1, 1 << n):
            keep = SiteSet(n, mask)
            np.testing.assert_allclose(partial_trace(rho, keep),
                                       transposed_partial_trace(rho, keep), rtol=0, atol=1e-15)

    def test_copies_no_more_than_the_result(self, rng):
        # The traced sites are summed on a view of rho: the call allocates about
        # the reduced state, not a second 2^N x 2^N array.
        rho = random_density(rng, 1 << 7)
        tracemalloc.start()
        try:
            partial_trace(rho, SiteSet.from_sites(7, [2, 5, 7]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rho.nbytes // 4


def _reshape_oracle_pt(rho, n, subset_sites):
    """Reference partial transpose via tensor reshape and axis swap."""
    t = rho.reshape((2,) * (2 * n)).copy()
    for s in subset_sites:
        t = np.swapaxes(t, s - 1, n + s - 1)
    return t.reshape(rho.shape)


class TestPartialTranspose:
    def test_diagonal_unchanged(self):
        rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        out = partial_transpose(rho, SiteSet.from_sites(2, [1]))
        assert np.array_equal(out, rho)

    def test_bell_spectrum(self):
        pt = partial_transpose(pure_density(bell_state()), SiteSet.from_sites(2, [1]))
        assert np.allclose(np.sort(np.linalg.eigvalsh(pt)), [-0.5, 0.5, 0.5, 0.5],
                           atol=1e-12)

    def test_involution_exact(self, rng):
        rho = random_density(rng, 8)
        s = SiteSet.from_sites(3, [1])
        assert np.array_equal(partial_transpose(partial_transpose(rho, s), s), rho)

    def test_matches_reshape_oracle(self, rng):
        rho = random_density(rng, 16)
        for sites in ([1], [2, 4], [1, 3], [1, 2, 3, 4]):
            out = partial_transpose(rho, SiteSet.from_sites(4, sites))
            assert np.array_equal(out, _reshape_oracle_pt(rho, 4, sites))

    def test_stack_matches_per_state(self, rng):
        # A leading stack axis (one or two of them) transposes each state as alone.
        rhos = np.array([random_density(rng, 16) for _ in range(6)])
        for sites in ([1], [2, 4], [1, 2, 3, 4]):
            s = SiteSet.from_sites(4, sites)
            expected = np.array([partial_transpose(rho, s) for rho in rhos])
            assert np.array_equal(partial_transpose(rhos, s), expected)
            assert np.array_equal(partial_transpose(rhos.reshape(2, 3, 16, 16), s),
                                  expected.reshape(2, 3, 16, 16))
        with pytest.raises(ValueError, match=r"rho dimension 16 != 2\^3"):
            partial_transpose(rhos, SiteSet.from_sites(3, [1]))

    def test_complement_spectra_match(self, rng):
        rho = random_density(rng, 8)
        s = SiteSet.from_sites(3, [1, 3])
        wa = np.sort(np.linalg.eigvalsh(partial_transpose(rho, s)))
        wb = np.sort(np.linalg.eigvalsh(partial_transpose(rho, s.complement())))
        assert np.max(np.abs(wa - wb)) < 1e-9

    def test_trace_and_hermiticity(self, rng):
        rho = random_density(rng, 8)
        pt = partial_transpose(rho, SiteSet.from_sites(3, [2]))
        assert abs(np.trace(pt) - 1.0) < 1e-12
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-12

    def test_empty_subset(self, rng):
        with pytest.raises(ValueError, match="nonempty"):
            partial_transpose(random_density(rng, 4), SiteSet(2, 0))

    def test_product_state_ppt(self):
        # pure product across the split -> no negative eigenvalues
        rho = pure_density("01")
        pt = partial_transpose(rho, SiteSet.from_sites(2, [1]))
        assert negative_sum(pt) < 1e-9


class TestExcitationSector:
    def test_vacuum(self):
        assert excitation_sector(3, 0) == [0]

    def test_counts(self):
        assert len(excitation_sector(4, 2)) == 6
        assert len(excitation_sector(8, 4)) == 70

    def test_members_have_k_ones(self):
        for i in excitation_sector(5, 2):
            assert bin(i).count("1") == 2

    def test_bad_k(self):
        with pytest.raises(ValueError, match="outside 0..3"):
            excitation_sector(3, 4)

    def test_matches_popcount_definition(self):
        for n in range(1, 13):
            for k in range(n + 1):
                expected = [i for i in range(1 << n) if bin(i).count("1") == k]
                got = excitation_sector(n, k)
                assert type(got) is list and all(type(i) is int for i in got)
                assert got == expected
