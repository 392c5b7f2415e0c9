"""Bipartition enumeration, double negativity, MEBD, and its lower estimators.

The central quantity is the double negativity N_{A,B}: twice the absolute sum
of the negative eigenvalues of rho^{T_A}.  MEBD is the minimum of N over all
2^(N-1)-1 bipartitions of the chain; the single-node witness and the recursive
level-k estimators bracket it from above and below.

There is one kernel per kind of state: pure states use their Schmidt values
(pure_double_negativity, batched over a stack of states), mixed reduced states
use the partial transpose (_negativities, blocked or dense as decided once
per state).  Each public function that takes a density matrix checks it once
(linalg.check_hermitian: NotHermitian, or ValueError for NaN/Inf entries);
the kernels behind them do not.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadLevel, BadPartition, BadSize
from .hilbert import (
    MAX_SITES,
    Bipartition,
    SiteSet,
    n_sites_of,
    partial_trace,
    partial_transpose,
    site_index_bit,
)


@dataclass(frozen=True)
class MebdResult:
    value: float
    argmin: Bipartition
    per_partition: dict[Bipartition, float]


def enumerate_bipartitions(n_sites: int) -> tuple[Bipartition, ...]:
    """All canonical bipartitions: site 1 in part_a, A<->B duplicates removed.

    Ordered by ascending part_a mask, which fixes argmin tie-breaking.
    """
    if not 2 <= n_sites <= MAX_SITES:
        raise BadSize(f"n_sites must be 2..{MAX_SITES}, got {n_sites}")
    full = (1 << n_sites) - 1
    parts = tuple(Bipartition.from_masks(n_sites, mask) for mask in range(1, full, 2))
    assert len(parts) == (1 << (n_sites - 1)) - 1
    return parts


def _block_eigvalsh(block: np.ndarray) -> np.ndarray:
    n = block.shape[0]
    if n == 1:
        return block.real.reshape(1)
    if n == 2:
        half_tr = 0.5 * (block[0, 0].real + block[1, 1].real)
        disc = math.hypot(0.5 * (block[0, 0].real - block[1, 1].real), abs(block[0, 1]))
        return np.array([half_tr - disc, half_tr + disc])
    return np.linalg.eigvalsh(block)


@functools.lru_cache(maxsize=4096)
def _pt_blocks(n_sites: int, mask: int) -> tuple[np.ndarray, ...]:
    """Basis indices of each diagonal block of rho^{T_A}, A the sites of mask.

    If rho conserves the excitation number, rho^{T_A} couples only basis states
    of equal imbalance (excitations in A) - (excitations in B) (Cornfeld,
    Goldstein and Sela, PRA 98, 032302, 2018).  Blocks come in ascending
    imbalance, indices ascending; A = all sites gives rho's excitation sectors.
    """
    idx = np.arange(1 << n_sites)
    sites_a = SiteSet(n_sites, mask).sites()
    labels = sum((idx >> site_index_bit(s, n_sites) & 1) * (1 if s in sites_a else -1)
                 for s in range(1, n_sites + 1))
    order = np.argsort(labels, kind="stable")
    order.setflags(write=False)
    return tuple(np.split(order, np.flatnonzero(np.diff(labels[order])) + 1))


def _negativities(rho: np.ndarray, parts: Iterable[Bipartition]) -> list[float]:
    """double_negativity of an already validated rho for each split in parts.

    Decided once per state: if rho is exactly zero (no tolerance) between basis
    states of different excitation number, each rho^{T_A} is solved block by
    block, all-zero columns dropped; any other rho takes the dense eigensolve.
    """
    n = n_sites_of(rho)
    sectors = _pt_blocks(n, (1 << n) - 1)
    blocked = np.count_nonzero(rho) == sum(np.count_nonzero(rho[np.ix_(s, s)]) for s in sectors)
    values = []
    for p in parts:
        pt = partial_transpose(rho, p.part_a)
        if not blocked:
            values.append(linalg.negative_sum(pt))
            continue
        support = pt.any(axis=0)
        w = [_block_eigvalsh(pt[np.ix_(b, b)])
             for b in (b[support[b]] for b in _pt_blocks(n, p.part_a.mask)) if b.size]
        values.append(linalg.negative_sum_of_eigenvalues(np.concatenate([np.zeros(0), *w])))
    return values


def double_negativity(rho: np.ndarray, p: Bipartition) -> float:
    """2 |sum of negative eigenvalues| of rho^{T_A} for the split p = A|B.

    Solved block by block if rho conserves the excitation number exactly, else dense.
    """
    return _negativities(linalg.check_hermitian(rho), [p])[0]


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
    # Relabel a's sites inside the reduced register (kept sites stay ordered).
    kept = keep.sites()
    local_a = SiteSet.from_sites(len(kept), (kept.index(s) + 1 for s in a.sites()))
    return _negativities(partial_trace(rho, keep), [Bipartition(local_a, local_a.complement())])[0]


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
    parts = enumerate_bipartitions(n_sites_of(rho))
    values = _negativities(rho, parts)
    best = min(range(len(values)), key=values.__getitem__)
    return MebdResult(values[best], parts[best], dict(zip(parts, values)))


def mebd(rho: np.ndarray) -> MebdResult:
    """Minimum double negativity over every bipartition of the register."""
    return _mebd(linalg.check_hermitian(rho))


def single_node_witness(rho: np.ndarray) -> float:
    """Min over sites of the one-site-versus-rest double negativity (upper bound on MEBD)."""
    rho = linalg.check_hermitian(rho)
    n = n_sites_of(rho)
    if n < 2:
        raise BadSize("need at least 2 sites")
    return min(_negativities(rho, [Bipartition.from_masks(n, 1 << s) for s in range(n)]))


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
