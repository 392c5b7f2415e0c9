
import numpy as np
import pytest

from mebd import dynamics, entanglement, linalg
from mebd.hilbert import (Bipartition, basis_index, excitation_sector, partial_trace,
                          partial_transpose, site_index_bit)
from mebd.model import CouplingKind, build_hdz


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def one_block_solves(monkeypatch):
    """The shapes of the eigvalsh calls that the mixed kernel makes on a whole rho^{T_A}.

    entanglement._negativities solves a state that does not conserve the
    excitation number as one block of all its indices, and any other state in
    smaller blocks; an eigvalsh call, inside the kernel, on matrices as large
    as the kernel's input is the one-block plan.
    """
    calls, dims = [], []
    kernel, eigvalsh = entanglement._negativities, np.linalg.eigvalsh

    def watched_kernel(rho, masks):
        dims.append(rho.shape[-1])
        try:
            return kernel(rho, masks)
        finally:
            dims.pop()

    def watched_eigvalsh(a, *args, **kwargs):
        if dims and a.shape[-1] == dims[-1]:
            calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(entanglement, "_negativities", watched_kernel)
    monkeypatch.setattr(np.linalg, "eigvalsh", watched_eigvalsh)
    return calls


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
    sec = excitation_sector(n_sites, k)
    psi = np.zeros(1 << n_sites, dtype=np.complex128)
    amps = rng.normal(size=len(sec)) + 1j * rng.normal(size=len(sec))
    psi[sec] = amps / np.linalg.norm(amps)
    return psi


def evolve_full(n_sites, label, taus, profile=CouplingKind.ALL_PAIRS_DIPOLAR):
    """psi(tau) of a basis label in the full 2^N basis, one row per tau: (T, 2^N).

    The package keeps psi on its excitation sector (dynamics.amplitudes); the
    tests that compare it with full-basis oracles scatter the rows out here.
    """
    sector, w, v, c0 = dynamics.sector_eigensystem(n_sites, label, profile)
    psis = np.zeros((len(taus), 1 << n_sites), dtype=np.complex128)
    psis[:, sector] = dynamics.amplitudes(w, v, c0, taus)
    return psis


def dense_eigensystem(n_sites, label, profile=CouplingKind.ALL_PAIRS_DIPOLAR):
    """Oracle of dynamics.sector_eigensystem: one eigh of H's whole sector block.

    The package solves H one symmetry block at a time and keeps only the
    blocks the label reaches; this is the one dense solve it replaced, with w
    sorted and v real and square.
    """
    k = label.count("1")
    w, v = np.linalg.eigh(build_hdz(n_sites, k, profile))
    sector = excitation_sector(n_sites, k)
    return sector, w, v, v[sector.index(basis_index(label))]


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


def transposed_partial_trace(rho, keep):
    """Oracle of hilbert.partial_trace: permute the kept sites' axes first, copy, then trace.

    This is the transpose-and-reshape form that partial_trace used before it
    traced the (2,)*2N view in place.
    """
    n = keep.n_sites
    keep_axes = [s - 1 for s in keep.sites()]
    drop_axes = [s - 1 for s in keep.complement().sites()]
    dk, dr = 1 << len(keep_axes), 1 << len(drop_axes)
    perm = keep_axes + drop_axes + [n + a for a in keep_axes] + [n + a for a in drop_axes]
    t = rho.reshape((2,) * (2 * n)).transpose(perm).reshape(dk, dr, dk, dr)
    return np.einsum("arbr->ab", t)


def all_splits_first_maximum(cfg, quantity=dynamics.MEBD, min_value=0.5):
    """Oracle of dynamics.first_maximum: its refinement rounds with every column at each point.

    The whole grid is scanned, then each round evaluates the whole curve, the minimum of
    every column of the quantity in _sweep_evaluator's rows, at b + h * (+-1 ..
    +-SEARCH_BATCH / 2), h divided by SEARCH_BATCH / 2 + 1 per round, down to REFINE_TOL;
    no candidates and no certificate.  Returns (tau*, value, kind).
    """
    rows, reads = dynamics._sweep_evaluator(cfg)

    def curve(taus):
        return np.concatenate([t for _, t in rows(taus, reads[quantity])]).min(axis=1)

    taus = cfg.grid()
    series = [dynamics.SweepRecord(t, {quantity: v})
              for t, v in zip(taus.tolist(), curve(taus).tolist())]
    grid = dynamics.find_first_maximum(series, quantity, min_value)
    half = dynamics.SEARCH_BATCH // 2
    b, fb, h = grid.tau_star, grid.value, cfg.tau_step
    while 2 * h > dynamics.REFINE_TOL:
        h /= half + 1
        x = b + h * np.r_[-half:0, 1:half + 1]
        fx = curve(x)
        if fx.max() > fb:
            b, fb = x[fx.argmax()], fx.max()
    return (b, fb, "exact") if fb > grid.value else (grid.tau_star, grid.value, grid.kind)


def negative_sum(m):
    """Dense oracle: 2 |sum of negative eigenvalues| of one Hermitian matrix.

    The package solves partial transposes block by block; this is the full
    eigensolve they are checked against, with the same ZERO_EIGENVALUE_TOL drop.
    """
    return float(linalg.negative_sum_of_eigenvalues(np.linalg.eigvalsh(linalg.check_hermitian(m))))


def dense_negativity(rho, p):
    """Dense oracle of the double negativity: the full eigensolve of rho^{T_A}."""
    return negative_sum(partial_transpose(rho, p.part_a))


def dense_lower_estimate_1(rho, j):
    """Dense oracle of the fixed-split estimate E^1 = min(N_{A,B}, MEBD(A), MEBD(B)) for j = A|B.

    Each MEBD is the minimum of dense_negativity over the canonical splits of
    the part's partial trace; a one-site part has no split, so no term.
    """
    terms = [dense_negativity(rho, j)]
    for part in (j.part_a, j.part_b):
        m = part.size()
        if m >= 2:
            sub = partial_trace(rho, part)
            terms += [dense_negativity(sub, Bipartition.from_masks(m, a))
                      for a in range(1, (1 << m) - 1, 2)]
    return min(terms)


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
