import numpy as np
import pytest

from mebd import linalg

from conftest import bell_state, pure_density, random_hermitian


class TestCheckHermitian:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="exceeds"):
            linalg.check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN/Inf"):
            linalg.check_hermitian(np.array([[np.nan, 0.0], [0.0, 0.0]]))


class TestNegativeSum:
    def test_psd_is_zero(self, rng):
        a = random_hermitian(rng, 5)
        psd = a @ a.conj().T
        assert linalg.negative_sum(psd) == 0.0

    def test_stated_spectrum(self):
        assert abs(linalg.negative_sum(np.diag([0.5, 0.5, 0.5, -0.5])) - 1.0) < 1e-15

    def test_bell_partial_transpose(self):
        from mebd.hilbert import SiteSet, partial_transpose

        rho = pure_density(bell_state())
        pt = partial_transpose(rho, SiteSet.from_sites(2, [1]))
        w = np.sort(np.linalg.eigvalsh(pt))
        assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
        assert abs(linalg.negative_sum(pt) - 1.0) < 1e-9

    def test_spectrum_split_identity(self, rng):
        m = random_hermitian(rng, 6)
        m -= np.trace(m) / 6 * np.eye(6)
        total = 2 * np.sum(np.abs(np.linalg.eigvalsh(m)))
        assert abs(linalg.negative_sum(m) + linalg.negative_sum(-m) - total) < 1e-9
