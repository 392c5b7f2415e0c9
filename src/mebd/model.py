"""Secular dipolar Hamiltonian for a homogeneous spin-1/2 chain, dimensionless units.

H = sum_{j>i} D_ij (I_ix I_jx + I_iy I_jy - 2 I_iz I_jz) with I = sigma/2.
The nearest-neighbour coupling sets the unit (D = 1), so couplings are
D_ij = 1/|i-j|^3 for the dipolar profile.  Time enters only through the
dimensionless tau = D t used in the dynamics module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import BadSize
from .hilbert import MAX_SITES, site_index_bit


class CouplingKind(str, enum.Enum):
    ALL_PAIRS_DIPOLAR = "all-pairs"
    NEAREST_NEIGHBOR = "nearest-neighbor"


@dataclass(frozen=True)
class CouplingProfile:
    kind: CouplingKind
    n_sites: int

    def coupling(self, i: int, j: int) -> float:
        """D_ij for 1-based sites i < j."""
        if self.kind is CouplingKind.ALL_PAIRS_DIPOLAR:
            return 1.0 / abs(i - j) ** 3
        return 1.0 if j == i + 1 else 0.0


@dataclass(frozen=True)
class Hamiltonian:
    matrix: np.ndarray
    profile: CouplingProfile


def build_hdz(n_sites: int, profile: CouplingProfile | CouplingKind = CouplingKind.ALL_PAIRS_DIPOLAR) -> Hamiltonian:
    """Assemble the chain Hamiltonian in the 2^N product basis.

    Diagonal part: -2 D_ij z_i z_j with z = +1/2 for |0> (along the field).
    Off-diagonal part: the flip-flop term couples |..01..> and |..10..> with
    amplitude D_ij / 2.  All entries are real.
    """
    if not 2 <= n_sites <= MAX_SITES:
        raise BadSize(f"n_sites must be 2..{MAX_SITES}, got {n_sites}")
    if isinstance(profile, CouplingKind):
        profile = CouplingProfile(profile, n_sites)
    if profile.n_sites != n_sites:
        raise BadSize("profile n_sites disagrees with requested size")

    dim = 1 << n_sites
    idx = np.arange(dim)
    h = np.zeros((dim, dim), dtype=np.complex128)

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
    return Hamiltonian(matrix=h, profile=profile)
