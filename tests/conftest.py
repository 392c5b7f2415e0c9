import numpy as np
import pytest

from mebd import linalg
from mebd.hilbert import basis_index, partial_transpose, site_index_bit
from mebd.model import CouplingKind


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_pure_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_density(rng, dim, rank=None):
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_sector_state(rng, n_sites, k):
    """Pure state supported on the k-excitation sector."""
    from mebd.hilbert import excitation_sector

    sec = excitation_sector(n_sites, k)
    psi = np.zeros(1 << n_sites, dtype=np.complex128)
    amps = rng.normal(size=len(sec)) + 1j * rng.normal(size=len(sec))
    psi[sec] = amps / np.linalg.norm(amps)
    return psi


def pure_density(state, n_sites=None):
    """Density matrix |psi><psi| from a basis label or an amplitude vector.

    The package never forms a pure-state density matrix (pure states go
    through their Schmidt values); the tests build one to reach the
    mixed-state kernel and the dense oracle.
    """
    if isinstance(state, str):
        idx = basis_index(state)
        dim = 1 << len(state)
        psi = np.zeros(dim, dtype=np.complex128)
        psi[idx] = 1.0
    else:
        psi = np.asarray(state, dtype=np.complex128)
        if psi.ndim != 1:
            raise ValueError("amplitude vector must be one-dimensional")
        n = psi.shape[0]
        if n & (n - 1) or n < 2:
            raise ValueError(f"amplitude vector length {n} is not a power of two")
        norm = np.linalg.norm(psi)
        if not abs(norm - 1.0) <= 1e-10:  # written so that a NaN norm fails too
            raise ValueError(f"|psi| = {norm!r}")
    if n_sites is not None and psi.shape[0] != (1 << n_sites):
        raise ValueError(f"state dimension {psi.shape[0]} != 2^{n_sites}")
    return np.outer(psi, psi.conj())


def dense_negativity(rho, p):
    """Dense oracle of the double negativity: the full eigensolve of rho^{T_A}."""
    return linalg.negative_sum(partial_transpose(rho, p.part_a))


def bell_state():
    return np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)


def ghz_state(n):
    psi = np.zeros(1 << n, dtype=np.complex128)
    psi[0] = psi[-1] = 1 / np.sqrt(2)
    return psi


def w_state(n):
    psi = np.zeros(1 << n, dtype=np.complex128)
    for i in range(n):
        psi[1 << i] = 1 / np.sqrt(n)
    return psi


def total_iz(n):
    """Diagonal of the total z-projection: (N - 2k)/2 for k excited spins."""
    excited = np.array([bin(i).count("1") for i in range(1 << n)])
    return (n - 2 * excited) / 2.0


def iz_commutator(h):
    """Max-abs entry of [H, I_z]; I_z is diagonal, so [H, I_z]_ij = H_ij (z_j - z_i)."""
    z = total_iz(h.shape[0].bit_length() - 1)
    return float(np.max(np.abs(h * (z[None, :] - z[:, None]))))


def full_hdz(n_sites, profile=CouplingKind.ALL_PAIRS_DIPOLAR):
    """Reference H_dz on the whole 2^N product basis, built pair by pair.

    The package builds only sector blocks (mebd.model.build_hdz); this is the
    oracle they are sliced from in the tests.
    """
    dim = 1 << n_sites
    idx = np.arange(dim)
    h = np.zeros((dim, dim))
    for i in range(1, n_sites + 1):
        bi = site_index_bit(i, n_sites)
        zi = 0.5 - (idx >> bi & 1)
        for j in range(i + 1, n_sites + 1):
            d = profile.coupling(i, j)
            if d == 0.0:
                continue
            bj = site_index_bit(j, n_sites)
            zj = 0.5 - (idx >> bj & 1)
            h[idx, idx] += -2.0 * d * zi * zj
            flip = (idx >> bi & 1) != (idx >> bj & 1)
            src = idx[flip]
            dst = src ^ ((1 << bi) | (1 << bj))
            h[dst, src] += 0.5 * d
    return h
