"""Secular dipolar H_dz of a homogeneous spin-1/2 chain, dimensionless units.

H = sum_{j>i} D_ij (I_ix I_jx + I_iy I_jy - 2 I_iz I_jz) with I = sigma/2.
The nearest-neighbour coupling sets the unit (D = 1), so couplings are
D_ij = 1/|i-j|^3 for the dipolar profile.  Time enters only through the
dimensionless tau = D t used in the dynamics module.
"""

from __future__ import annotations

import enum

import numpy as np

from .hilbert import MAX_SITES, excitation_sector, site_index_bit


class CouplingKind(str, enum.Enum):
    ALL_PAIRS_DIPOLAR = "all-pairs"
    NEAREST_NEIGHBOR = "nearest-neighbor"

    def coupling(self, i: int, j: int) -> float:
        """D_ij for 1-based sites i < j."""
        if self is CouplingKind.ALL_PAIRS_DIPOLAR:
            return 1.0 / abs(i - j) ** 3
        return 1.0 if j == i + 1 else 0.0


def build_hdz(n_sites: int, k: int,
              profile: CouplingKind = CouplingKind.ALL_PAIRS_DIPOLAR) -> np.ndarray:
    """The block of H_dz on the k-excitation sector: real float64, C(N,k) x C(N,k).

    H_dz conserves the excitation number, so a state of the sector sees only
    this block.  Rows and columns follow hilbert.excitation_sector (ascending).
    Diagonal: -2 D_ij z_i z_j with z = +1/2 for |0> (along the field); the
    flip-flop term couples |..01..> and |..10..> with amplitude D_ij / 2.
    """
    if not 2 <= n_sites <= MAX_SITES:
        raise ValueError(f"n_sites must be 2..{MAX_SITES}, got {n_sites}")
    sector = np.array(excitation_sector(n_sites, k))
    pairs = [(site_index_bit(i, n_sites), site_index_bit(j, n_sites), profile.coupling(i, j))
             for i in range(1, n_sites + 1) for j in range(i + 1, n_sites + 1)]
    bi, bj, d = (np.array(col) for col in zip(*[p for p in pairs if p[2] != 0.0]))
    z = 0.5 - (sector[:, None] >> np.arange(n_sites) & 1)  # z[:, b]: z of the site in bit b
    diag = np.zeros(sector.size)
    for p in range(d.size):  # pair by pair in (i, j) order: the sum rounds as written
        diag += -2.0 * d[p] * z[:, bi[p]] * z[:, bj[p]]
    h = np.diag(diag)
    # Each flip-flop entry comes from exactly one pair: the two flipped sites.
    src, pair = np.nonzero(z[:, bi] != z[:, bj])
    dst = np.searchsorted(sector, sector[src] ^ (1 << bi[pair] | 1 << bj[pair]))
    h[dst, src] = 0.5 * d[pair]
    return h
