"""Bipartition enumeration, double negativity, MEBD, and its lower estimators.

The central quantity is the double negativity N_{A,B}: twice the absolute sum
of the negative eigenvalues of rho^{T_A}.  MEBD is the minimum of N over all
2^(N-1)-1 bipartitions of the chain; the single-node witness and the recursive
level-k estimators bracket it from above and below.

There is one kernel per kind of state: pure states use their Schmidt values
(pure_double_negativity, batched over a stack of states), mixed reduced states
use the partial transpose (double_negativity).  Each public function that
takes a density matrix checks it once (linalg.check_hermitian: NotHermitian,
or ValueError for NaN/Inf entries); the per-split kernels behind them do not.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadLevel, BadPartition, BadSize
from .hilbert import (
    MAX_SITES,
    Bipartition,
    SiteSet,
    index_mask,
    n_sites_of,
    partial_trace,
    partial_transpose,
)

# Off-block leakage above this disables the sector-blocked eigensolve.
BLOCK_LEAK_TOL = 1e-12


@dataclass(frozen=True)
class PartitionFamily:
    n_sites: int
    partitions: tuple[Bipartition, ...]


@dataclass(frozen=True)
class MebdResult:
    value: float
    argmin: Bipartition
    per_partition: dict[Bipartition, float]


def enumerate_bipartitions(n_sites: int) -> PartitionFamily:
    """All canonical bipartitions: site 1 in part_a, A<->B duplicates removed.

    Ordered by ascending part_a mask, which fixes argmin tie-breaking.
    """
    if not 2 <= n_sites <= MAX_SITES:
        raise BadSize(f"n_sites must be 2..{MAX_SITES}, got {n_sites}")
    full = (1 << n_sites) - 1
    parts = tuple(
        Bipartition.from_masks(n_sites, mask)
        for mask in range(1, full)
        if mask & 1
    )
    assert len(parts) == (1 << (n_sites - 1)) - 1
    return PartitionFamily(n_sites=n_sites, partitions=parts)


def _block_eigvalsh(block: np.ndarray) -> np.ndarray:
    n = block.shape[0]
    if n == 1:
        return block.real.reshape(1)
    if n == 2:
        half_tr = 0.5 * (block[0, 0].real + block[1, 1].real)
        disc = math.hypot(0.5 * (block[0, 0].real - block[1, 1].real), abs(block[0, 1]))
        return np.array([half_tr - disc, half_tr + disc])
    return np.linalg.eigvalsh(block)


def _blocked_spectrum(mat: np.ndarray, labels: np.ndarray) -> np.ndarray | None:
    """Eigenvalues of a matrix that is block-diagonal under the given labels.

    Returns None when off-block entries exceed BLOCK_LEAK_TOL (the caller then
    falls back to the dense path).  All-zero rows carry eigenvalue 0 and are
    skipped.
    """
    support = np.flatnonzero(np.abs(mat).max(axis=0) > 0)
    if support.size == 0:
        return np.zeros(0)
    sub = mat[np.ix_(support, support)]
    order = np.argsort(labels[support], kind="stable")
    sub = sub[np.ix_(order, order)]
    lab = labels[support][order]
    bounds = np.flatnonzero(np.diff(lab)) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [lab.size]))
    leak = np.abs(sub)
    for s, e in zip(starts, ends):
        leak[s:e, s:e] = 0.0
    if leak.max(initial=0.0) > BLOCK_LEAK_TOL:
        return None
    return np.concatenate([_block_eigvalsh(sub[s:e, s:e]) for s, e in zip(starts, ends)])


_POPCOUNT = np.array([bin(i).count("1") for i in range(1 << MAX_SITES)], dtype=np.int64)


@functools.lru_cache(maxsize=4096)
def _sector_labels_for_mask(n_sites: int, mask: int) -> np.ndarray:
    idx = np.arange(1 << n_sites)
    m_a = index_mask(SiteSet(n_sites, mask))
    m_b = m_a ^ ((1 << n_sites) - 1)
    labels = _POPCOUNT[idx & m_a] - _POPCOUNT[idx & m_b]
    labels.setflags(write=False)
    return labels


def _sector_labels(n_sites: int, subset: SiteSet) -> np.ndarray:
    """Per-basis-index value of (excitations in subset) - (excitations outside).

    For rho commuting with total I_z, rho^{T_subset} is block diagonal in
    these labels, which is what the blocked eigensolve exploits.
    """
    return _sector_labels_for_mask(n_sites, subset.mask)


def _split_negativity(rho: np.ndarray, p: Bipartition) -> float:
    """double_negativity of an already validated rho."""
    pt = partial_transpose(rho, p.part_a)
    w = _blocked_spectrum(pt, _sector_labels(p.n_sites, p.part_a))
    if w is None:
        return linalg.negative_sum(pt)
    return linalg.negative_sum_of_eigenvalues(w)


def double_negativity(rho: np.ndarray, p: Bipartition) -> float:
    """2 |sum of negative eigenvalues| of rho^{T_A} for the split p = A|B.

    States that conserve I_z have a block-diagonal partial transpose, solved
    block by block; any other state falls back to the dense eigensolve.
    """
    return _split_negativity(linalg.check_hermitian(rho), p)


def schmidt_matrices(psis: np.ndarray, p: Bipartition) -> np.ndarray:
    """Each state of a (T, 2^N) stack reshaped to a 2^|A| x 2^|B| matrix M, site order kept.

    For |psi> = sum M_ab |a>|b>, the reduced states are rho_A = M M^dagger and
    rho_B = M^T M^*.
    """
    t = psis.reshape((len(psis),) + (2,) * p.n_sites)
    axes = [0] + list(p.part_a.sites()) + list(p.part_b.sites())
    return t.transpose(axes).reshape(len(psis), 1 << p.part_a.size(), -1)


def pure_double_negativity(psis: np.ndarray, p: Bipartition) -> np.ndarray:
    """double_negativity of each pure state in a (T, 2^N) stack, from its Schmidt values.

    The negative eigenvalues of |psi><psi|^{T_A} are -s_i s_j (i < j) for the
    Schmidt values s_i, so N = 2 sum_{i<j} s_i s_j = (sum_i s_i)^2 - 1 (Vidal
    and Werner, PRA 65, 032314, 2002).  Products below ZERO_EIGENVALUE_TOL are
    dropped, as negative_sum drops such eigenvalues: product states give 0.0.
    """
    s = np.linalg.svd(schmidt_matrices(psis, p), compute_uv=False)
    prod = np.triu(s[:, :, None] * s[:, None, :], 1)
    return 2.0 * np.where(prod > linalg.ZERO_EIGENVALUE_TOL, prod, 0.0).sum(axis=(1, 2))


def _reduced_negativity(rho: np.ndarray, a: SiteSet, b: SiteSet) -> float:
    """Negativity between disjoint site sets a and b after reducing rho onto their union."""
    keep = SiteSet(a.n_sites, a.mask | b.mask)
    reduced = partial_trace(rho, keep)
    # Relabel a's sites inside the reduced register (kept sites stay ordered).
    kept = keep.sites()
    local_a = SiteSet.from_sites(len(kept), (kept.index(s) + 1 for s in a.sites()))
    return _split_negativity(reduced, Bipartition(local_a, local_a.complement()))


def pairwise_negativity(rho: np.ndarray, parts: list[SiteSet], i: int, j: int) -> float:
    """Double negativity between parts[i] and parts[j] after tracing out the rest."""
    rho = linalg.check_hermitian(rho)
    n = n_sites_of(rho)
    if i == j:
        raise BadPartition("i and j must differ")
    union = 0
    for k, p in enumerate(parts):
        if p.n_sites != n:
            raise BadPartition("part lives on a different register")
        if union & p.mask:
            raise BadPartition("parts overlap")
        union |= p.mask
    if union != (1 << n) - 1:
        raise BadPartition("parts do not cover the register")
    return _reduced_negativity(rho, parts[i], parts[j])


def _mebd(rho: np.ndarray) -> MebdResult:
    """mebd of an already validated rho."""
    family = enumerate_bipartitions(n_sites_of(rho))
    values = [_split_negativity(rho, p) for p in family.partitions]
    per = dict(zip(family.partitions, values))
    best = min(range(len(values)), key=lambda k: values[k])
    return MebdResult(value=values[best], argmin=family.partitions[best], per_partition=per)


def mebd(rho: np.ndarray) -> MebdResult:
    """Minimum double negativity over every bipartition of the register."""
    return _mebd(linalg.check_hermitian(rho))


def single_node_witness(rho: np.ndarray) -> float:
    """Min over sites of the one-site-versus-rest double negativity (upper bound on MEBD)."""
    rho = linalg.check_hermitian(rho)
    n = n_sites_of(rho)
    if n < 2:
        raise BadSize("need at least 2 sites")
    vals = []
    for s in range(1, n + 1):
        a = SiteSet.from_sites(n, [s])
        vals.append(_split_negativity(rho, Bipartition(a, a.complement())))
    return min(vals)


def mebd_of_subsystem(rho: np.ndarray, sites: tuple[int, ...]) -> float:
    """MEBD of the reduced state on the given sites of the full register."""
    rho = linalg.check_hermitian(rho)
    n = n_sites_of(rho)
    return _mebd(partial_trace(rho, SiteSet.from_sites(n, sites))).value


def lower_estimate_1(rho: np.ndarray, j: Bipartition) -> float:
    """min(E(A), E(B), N_{A,B}) for the fixed split j.

    Single-site parts have no internal decomposition; their MEBD term is
    omitted from the min.
    """
    rho = linalg.check_hermitian(rho)
    terms = [_reduced_negativity(rho, j.part_a, j.part_b)]
    for part in (j.part_a, j.part_b):
        if part.size() >= 2:
            terms.append(_mebd(partial_trace(rho, part)).value)
    return min(terms)


def max_level(n_sites: int) -> int:
    """Deepest meaningful estimator level: recursion bottoms out at 2-site parts."""
    return max(1, n_sites - 2)


def _split_table(rho: np.ndarray) -> dict[int, dict[int, float]]:
    """Double negativity of every split of every reduced state with two or more sites.

    Row S (a site bitmask) is mebd(partial_trace(rho, S)).per_partition, keyed
    by the bitmask of the part A that holds S's first site: table[S][A] is
    N_{A, S-A} on rho_S.  Each rho_S is traced from rho once.
    """
    n = n_sites_of(rho)
    table = {}
    for mask in range(1, 1 << n):
        keep = SiteSet(n, mask)
        sites = keep.sites()
        if len(sites) < 2:
            continue
        per = _mebd(partial_trace(rho, keep)).per_partition
        table[mask] = {
            SiteSet.from_sites(n, (sites[k - 1] for k in p.part_a.sites())).mask: value
            for p, value in per.items()
        }
    return table


def lower_estimate_level(rho: np.ndarray, level: int) -> float:
    """Level-k lower estimator of MEBD.

    Level 0 is exact MEBD; level k replaces each subsystem MEBD by that
    subsystem's level-(k-1) estimate and maximizes over all decomposition
    choices.  Non-increasing in k.  One call builds the table of every
    split negativity of every reduced state once (_split_table) and runs the
    recursion over its numbers.
    """
    rho = linalg.check_hermitian(rho)
    n = n_sites_of(rho)
    if n < 2:
        raise BadSize(f"need at least 2 sites, got {n}")
    if not 1 <= level <= max_level(n):
        raise BadLevel(f"level must be 1..{max_level(n)} for {n} sites, got {level}")

    table = _split_table(rho)
    memo: dict[tuple[int, int], float] = {}

    def estimate(mask: int, lev: int) -> float:
        # E^(lev) of the reduced state on the sites of mask; +inf for single sites.
        row = table.get(mask)
        if row is None:
            return math.inf
        key = (mask, lev)
        if key not in memo:
            if lev == 0:
                memo[key] = min(row.values())
            else:
                val = 0.0
                for a, cross in row.items():
                    val = max(val, min(estimate(a, lev - 1), estimate(mask ^ a, lev - 1), cross))
                memo[key] = val
        return memo[key]

    return estimate((1 << n) - 1, level)
