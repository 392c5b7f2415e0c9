import math

import numpy as np
import pytest

from mebd.dynamics import evolve
from mebd.hilbert import basis_index, excitation_sector
from mebd.model import CouplingKind, build_hdz

from conftest import full_hdz, iz_commutator, pure_density, total_iz


class TestCouplingProfile:
    def test_dipolar_decay(self):
        p = CouplingKind.ALL_PAIRS_DIPOLAR
        assert p.coupling(1, 2) == 1.0
        assert p.coupling(1, 3) == 1.0 / 8

    def test_nearest_neighbor(self):
        p = CouplingKind.NEAREST_NEIGHBOR
        assert p.coupling(2, 3) == 1.0
        assert p.coupling(1, 3) == 0.0


class TestBuildHdz:
    def test_two_site_elements(self):
        # The one-excitation block on (|01>, |10>): flip-flop 1/2 off the
        # diagonal, -2 z_1 z_2 = +1/2 on it.
        h = build_hdz(2, 1, CouplingKind.NEAREST_NEIGHBOR)
        assert excitation_sector(2, 1) == [basis_index("01"), basis_index("10")]
        assert abs(h[0, 1] - 0.5) < 1e-15
        assert abs(h[0, 0] - 0.5) < 1e-15
        assert abs(build_hdz(2, 0, CouplingKind.NEAREST_NEIGHBOR)[0, 0] - (-0.5)) < 1e-15

    @pytest.mark.parametrize("n,kind", [(3, CouplingKind.ALL_PAIRS_DIPOLAR),
                                        (5, CouplingKind.ALL_PAIRS_DIPOLAR),
                                        (4, CouplingKind.NEAREST_NEIGHBOR)])
    def test_ground_label_diagonal(self, n, kind):
        # <0..0|H|0..0> = -(1/2) sum_{i<j} D_ij from the ZZ term alone
        h = build_hdz(n, 0, kind)
        expected = -0.5 * sum(kind.coupling(i, j)
                              for i in range(1, n + 1) for j in range(i + 1, n + 1))
        assert h.shape == (1, 1)
        assert abs(h[0, 0] - expected) < 1e-12

    def test_hermitian_and_real(self):
        h = full_hdz(4, CouplingKind.ALL_PAIRS_DIPOLAR)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        assert np.max(np.abs(h.imag)) == 0.0
        for k in range(5):
            block = build_hdz(4, k)
            assert np.array_equal(block, block.T)

    @pytest.mark.parametrize("kind", list(CouplingKind))
    def test_real_float64(self, kind):
        for k in range(6):
            h = build_hdz(5, k, kind)
            assert isinstance(h, np.ndarray)
            assert h.dtype == np.float64
            assert h.shape == (math.comb(5, k),) * 2

    @pytest.mark.parametrize("kind", list(CouplingKind))
    @pytest.mark.parametrize("n", range(2, 13))
    def test_block_is_slice_of_full(self, n, kind):
        full = full_hdz(n, kind)
        for k in range(n + 1):
            sector = excitation_sector(n, k)
            assert np.array_equal(build_hdz(n, k, kind), full[np.ix_(sector, sector)])

    def test_commutes_with_iz(self):
        for n in (2, 4, 8):
            assert iz_commutator(full_hdz(n)) < 1e-12

    def test_reflection_symmetry(self):
        n = 5
        h = full_hdz(n)
        # permutation that reverses the chain
        perm = np.zeros(1 << n, dtype=int)
        for i in range(1 << n):
            bits = format(i, f"0{n}b")
            perm[i] = int(bits[::-1], 2)
        reflected = h[np.ix_(perm, perm)]
        assert np.max(np.abs(reflected - h)) < 1e-12

    def test_bad_size(self):
        with pytest.raises(ValueError, match=r"n_sites must be 2\.\.12"):
            build_hdz(1, 0)
        with pytest.raises(ValueError, match=r"n_sites must be 2\.\.12"):
            build_hdz(13, 0)

    @pytest.mark.parametrize("k", [-1, 5])
    def test_bad_k(self, k):
        with pytest.raises(ValueError, match="outside 0..4"):
            build_hdz(4, k)

    def test_profile_by_name(self):
        assert np.array_equal(build_hdz(3, 1, "nearest-neighbor"),
                              build_hdz(3, 1, CouplingKind.NEAREST_NEIGHBOR))
        for bad in ("bogus", "", None, 1):
            with pytest.raises(ValueError, match="not a valid CouplingKind"):
                build_hdz(3, 1, bad)


class TestTotalIz:
    def test_diagonal_values(self):
        iz = total_iz(2)
        assert iz[basis_index("00")] == 1.0
        assert iz[basis_index("11")] == -1.0
        assert iz[basis_index("10")] == 0.0


class TestVerifyIzCommutation:
    def test_detects_violation(self):
        # The commutator check used by acceptance criterion 6 is not vacuous.
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        perturb = np.kron(sx / 2, np.eye(4, dtype=complex))
        assert iz_commutator(full_hdz(3) + perturb) > 0.1


class TestSectorSupport:
    def test_evolution_stays_in_sector(self):
        n, label = 4, "1001"
        k = label.count("1")
        sector = set(excitation_sector(n, k))
        outside = [i for i in range(1 << n) if i not in sector]
        for psi in evolve(n, label, np.linspace(0.0, 4.0, 9)):
            rho = np.outer(psi, psi.conj())
            leak = np.abs(rho[np.ix_(outside, outside)]).max()
            leak = max(leak, np.abs(rho[np.ix_(outside, sorted(sector))]).max())
            assert leak < 1e-10

    def test_product_state_not_entangled_at_tau_zero(self):
        from mebd.entanglement import mebd

        assert mebd(pure_density("1001")).value < 1e-10
