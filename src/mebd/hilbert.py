"""Product-basis bookkeeping for N spin-1/2 sites.

Conventions (fixed once, used everywhere):
  * sites are numbered 1..N;
  * a SiteSet stores site i in bit i-1 of its mask (site 1 = lowest bit);
  * basis labels read left to right, |n_1 n_2 ... n_N>, and site 1 is the
    MOST significant digit of the basis index, so "010" (N=3) -> index 2;
  * n_i = 1 means site i is excited (flipped against the field).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

MAX_SITES = 12


@dataclass(frozen=True)
class SiteSet:
    """Subset of chain sites encoded as a bitmask."""

    n_sites: int
    mask: int

    def __post_init__(self):
        if not 1 <= self.n_sites <= MAX_SITES:
            raise ValueError(f"n_sites must be 1..{MAX_SITES}, got {self.n_sites}")
        if not 0 <= self.mask < (1 << self.n_sites):
            raise ValueError(f"mask {self.mask:#x} out of range for {self.n_sites} sites")

    @classmethod
    def from_sites(cls, n_sites: int, sites: Iterable[int]) -> "SiteSet":
        mask = 0
        for s in sites:
            if not 1 <= s <= n_sites:
                raise ValueError(f"site {s} outside 1..{n_sites}")
            mask |= 1 << (s - 1)
        return cls(n_sites, mask)

    def sites(self) -> tuple[int, ...]:
        """1-based site numbers, ascending."""
        return tuple(i + 1 for i in range(self.n_sites) if self.mask >> i & 1)

    def size(self) -> int:
        return bin(self.mask).count("1")

    def complement(self) -> "SiteSet":
        return SiteSet(self.n_sites, self.mask ^ ((1 << self.n_sites) - 1))


@dataclass(frozen=True)
class Bipartition:
    """Ordered pair of disjoint, covering, nonempty site sets."""

    part_a: SiteSet
    part_b: SiteSet

    def __post_init__(self):
        a, b = self.part_a, self.part_b
        if a.n_sites != b.n_sites:
            raise ValueError("parts live on different registers")
        if a.mask & b.mask:
            raise ValueError("parts overlap")
        if a.mask | b.mask != (1 << a.n_sites) - 1:
            raise ValueError("parts do not cover the register")
        if a.mask == 0 or b.mask == 0:
            raise ValueError("empty part")

    @classmethod
    def from_masks(cls, n_sites: int, mask_a: int) -> "Bipartition":
        a = SiteSet(n_sites, mask_a)
        return cls(a, a.complement())

    @property
    def n_sites(self) -> int:
        return self.part_a.n_sites

    def label(self) -> str:
        """Human-readable form like '1.3|2.4' (dots keep CSV headers comma-free)."""
        fmt = lambda ss: ".".join(str(s) for s in ss.sites())
        return f"{fmt(self.part_a)}|{fmt(self.part_b)}"


def _validate_label(label: str) -> str:
    if not label or any(c not in "01" for c in label):
        raise ValueError(f"label must be a nonempty 0/1 string, got {label!r}")
    if len(label) > MAX_SITES:
        raise ValueError(f"label longer than {MAX_SITES} sites: {label!r}")
    return label


def basis_index(label: str) -> int:
    """Basis index of |n_1 ... n_N>; site 1 is the most significant digit."""
    return int(_validate_label(label), 2)


def site_index_bit(site: int, n_sites: int) -> int:
    """Bit position of site (1-based) inside a basis index."""
    return n_sites - site


def n_sites_of(rho: np.ndarray) -> int:
    dim = rho.shape[-1]
    n = dim.bit_length() - 1
    if 1 << n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def partial_trace(rho: np.ndarray, keep: SiteSet) -> np.ndarray:
    """Reduce rho onto the kept sites (original site order preserved)."""
    if keep.mask == 0:
        raise ValueError("must keep at least one site")
    n = keep.n_sites
    if rho.shape[0] != (1 << n):
        raise ValueError(f"rho dimension {rho.shape[0]} != 2^{n}")
    if keep.mask == (1 << n) - 1:
        return rho.copy()
    # Axis i (i < n) of the (2,)*2N view is site i+1's row, axis n+i its column; a traced
    # site's two axes share one subscript, so einsum sums their diagonal without a copy.
    kept = [i for i in range(n) if keep.mask >> i & 1]
    cols = [n + i if keep.mask >> i & 1 else i for i in range(n)]
    return np.einsum(rho.reshape((2,) * (2 * n)), [*range(n), *cols],
                     kept + [n + i for i in kept]).reshape(1 << len(kept), -1)


def partial_transpose(rho: np.ndarray, subset: SiteSet) -> np.ndarray:
    """Transpose the indices belonging to subset only, of rho or of each rho of a stack."""
    if subset.mask == 0:
        raise ValueError("subset must be nonempty")
    n = subset.n_sites
    if rho.shape[-1] != (1 << n):
        raise ValueError(f"rho dimension {rho.shape[-1]} != 2^{n}")
    lead = rho.ndim - 2
    t = rho.reshape(rho.shape[:-2] + (2,) * (2 * n))
    for s in subset.sites():
        t = np.swapaxes(t, lead + s - 1, lead + n + s - 1)
    return np.ascontiguousarray(t.reshape(rho.shape))


def excitation_sector(n_sites: int, k: int) -> list[int]:
    """All basis indices whose label carries exactly k excited spins, ascending."""
    if not 0 <= k <= n_sites:
        raise ValueError(f"k={k} outside 0..{n_sites}")
    idx = np.arange(1 << n_sites)
    return idx[sum((idx >> b & 1 for b in range(n_sites)), np.zeros_like(idx)) == k].tolist()
