"""Bipartition enumeration, double negativity, MEBD, and its lower estimators.

The central quantity is the double negativity N_{A,B}: twice the absolute sum
of the negative eigenvalues of rho^{T_A}.  MEBD is the minimum of N over all
2^(N-1)-1 bipartitions of the chain; the single-node witness and the recursive
level-k estimators bracket it from above and below.

There is one kernel per kind of state.  Pure states use their Schmidt values:
_schmidt_negativities, one batched svd per block shape (a norm for r x 1
blocks), on the cached _schmidt_plan or on pure_double_negativity's one
full-basis block.  Mixed reduced states use the blocks of their partial
transposes, gathered straight from rho for every split and solved with one
batched eigvalsh per block size (_negativities, on site masks, in excitation
blocks or as one block); lower_estimates hands it the reduced states of one
size as one stack.  Asked for each row's lowest values only,
_schmidt_negativities skips the svd of every split that a bound from its
blocks' norms puts provably above them: +inf there.  Each public function
checks its input on entry and raises ValueError for bad shapes or NaN/Inf
(linalg.check_hermitian for a density matrix; _check_amplitudes, which
converts to complex128, for pure states); the kernels behind do not.  They
bound their own temporaries (_pair_sums' products, 2^15 floats at a time;
_negativities' gathers, max(d^2, _GATHER_ENTRIES) entries per state per
eigvalsh call), and dynamics._sweep_evaluator's batch rule sizes the stacks a
sweep hands them.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from . import linalg
from .hilbert import (
    MAX_SITES,
    Bipartition,
    SiteSet,
    excitation_sector,
    n_sites_of,
    partial_trace,
    partial_transpose,  # not called here: perfbench's span-recorder test looks it up here
    site_index_bit,
)

# Each eigvalsh call of _negativities gathers at most max(d^2, this) block entries per state.
_GATHER_ENTRIES = 1 << 11


@dataclass(frozen=True)
class MebdResult:
    value: float
    argmin: Bipartition
    per_partition: dict[Bipartition, float]


@functools.lru_cache(maxsize=None)
def enumerate_bipartitions(n_sites: int) -> tuple[Bipartition, ...]:
    """All canonical bipartitions: site 1 in part_a, A<->B duplicates removed.

    Ordered by ascending part_a mask, which fixes argmin tie-breaking.
    """
    if not 2 <= n_sites <= MAX_SITES:
        raise ValueError(f"n_sites must be 2..{MAX_SITES}, got {n_sites}")
    full = (1 << n_sites) - 1
    parts = tuple(Bipartition.from_masks(n_sites, mask) for mask in range(1, full, 2))
    assert len(parts) == (1 << (n_sites - 1)) - 1
    return parts


@functools.lru_cache(maxsize=64)
def _pt_plan(n_sites: int, masks: tuple[int, ...], blocked: bool) -> tuple:
    """The diagonal blocks of rho^{T_A}, A the sites of each mask, by size: (rows, bits, owner).

    If rho conserves the excitation number (blocked), rho^{T_A} couples only basis
    states of equal imbalance (excitations in A) - (excitations in B) (Cornfeld,
    Goldstein and Sela, PRA 98, 032302, 2018); A = all sites gives rho's
    excitation sectors.  Else it is one block of all 2^n indices.  Per block size
    m, ascending: rows (count, m) the basis indices of each block (imbalance and
    indices ascending), bits A's basis bits, owner the mask's place in masks.
    That is 2^n indices per mask: the m x m gather indices are formed per chunk.
    """
    idx, groups = np.arange(1 << n_sites), {}
    for i, mask in enumerate(masks):
        sites_a = SiteSet(n_sites, mask).sites()
        bits = sum(1 << site_index_bit(s, n_sites) for s in sites_a)
        labels = blocked * sum((idx >> site_index_bit(s, n_sites) & 1) * (1 if s in sites_a else -1)
                               for s in range(1, n_sites + 1))
        size = np.bincount(labels + n_sites)[labels + n_sites]  # each index's block size
        order = np.lexsort((labels, size))
        for b in np.split(order, np.flatnonzero(np.diff(size[order])) + 1):
            groups.setdefault(size[b[0]], []).append((b.reshape(-1, size[b[0]]), bits, i))
    plan = tuple((np.concatenate([b for b, _, _ in g]).astype(np.int32),  # d^2 <= 2^24
                  np.concatenate([np.full(len(b), bits, np.int32) for b, bits, _ in g]),
                  np.concatenate([np.full(len(b), i) for b, _, i in g]))
                 for _, g in sorted(groups.items()))
    for a in itertools.chain.from_iterable(plan):
        a.setflags(write=False)  # the cache hands these arrays to every caller
    return plan


def _negativities(rho: np.ndarray, masks: Sequence[int]) -> np.ndarray:
    """double_negativity of validated rho, or a (..., d, d) stack, per split mask: (..., masks).

    Decided once per stack: if every rho is exactly zero between basis states of
    different excitation number, rho^{T_A} has the imbalance blocks of _pt_plan,
    else one block of all 2^n indices.  The blocks of every split are gathered
    straight from rho, rho^{T_A}[r, c] = rho[r ^ x, c ^ x] with x = (r ^ c) & (A's
    bits), one block size at a time, in chunks of at most max(d^2, _GATHER_ENTRIES)
    entries per state: one eigvalsh call per chunk, a count that does not depend
    on the stack's length.  Each block's negative sum is added to its split's column.
    """
    n = n_sites_of(rho)
    d = 1 << n
    stack = rho.reshape(-1, d, d)
    # stack[:, b[..., None], b[:, None]] gathers the (T, count, m, m) excitation sectors b.
    blocked = np.count_nonzero(stack) == sum(np.count_nonzero(stack[:, b[..., None], b[:, None]])
                                             for b, _, _ in _pt_plan(n, (d - 1,), True))
    flat = stack.reshape(len(stack), d * d)
    out = np.zeros((len(masks), len(stack)))
    for rows, bits, owner in _pt_plan(n, tuple(masks), blocked):
        step = max(1, max(d * d, _GATHER_ENTRIES) // rows.shape[1] ** 2)  # blocks per call
        for lo in range(0, len(rows), step):
            r = rows[lo:lo + step, :, None]
            c = r.transpose(0, 2, 1)
            x = (r ^ c) & bits[lo:lo + step, None, None]  # the bits of A where r and c differ
            w = np.linalg.eigvalsh(flat[:, ((r ^ x) << n) | (c ^ x)])
            np.add.at(out, owner[lo:lo + step], linalg.negative_sum_of_eigenvalues(w).T)
    return out.T.reshape(rho.shape[:-2] + (len(masks),))


def double_negativity(rho: np.ndarray, p: Bipartition) -> float:
    """2 |sum of negative eigenvalues| of rho^{T_A} for the split p = A|B."""
    rho = linalg.check_hermitian(rho)
    if p.n_sites != n_sites_of(rho):
        raise ValueError(f"rho dimension {rho.shape[0]} != 2^{p.n_sites}")
    return float(_negativities(rho, [p.part_a.mask])[0])


@functools.lru_cache(maxsize=16)
def _schmidt_plan(n_sites: int, k: int, masks: tuple[int, ...]):
    """Gather plan of the Schmidt blocks per split (A its mask): (width, norms, blocks, direct).

    On the k-excitation sector the Schmidt matrix of A|B is block diagonal in j,
    the excitations in A, with C(|A|,j) x C(|B|,k-j) blocks (Singh, Pfeifer and
    Vidal, PRA 83, 115125, 2011).  norms (the r x 1 blocks) and blocks (the rest)
    hold one (index, slots) per block shape r >= c: index (count, r, c) gathers the
    blocks from the sector amplitudes, slots (count, c) place their singular values
    in a (len(masks), width) table.  direct marks the splits with no block of two or
    more columns: norms alone give them, so _schmidt_negativities never screens them.
    """
    if not masks or not all(0 < m < (1 << n_sites) - 1 for m in masks):
        raise ValueError(f"masks must name one or more splits of {n_sites} sites, got {masks}")
    pos = np.zeros(1 << n_sites, dtype=np.int16)  # basis index -> place in the sector
    pos[excitation_sector(n_sites, k)] = np.arange(math.comb(n_sites, k))
    in_a = (np.array(masks)[:, None] >> np.arange(n_sites) & 1).astype(bool)  # column s-1: site s
    bit = np.broadcast_to(1 << (n_sites - 1 - np.arange(n_sites)), in_a.shape)  # its basis bit
    sizes, width, groups = in_a.sum(axis=1), 0, {}
    direct = np.ones(len(masks), bool)
    for a in set(sizes.tolist()):
        at = np.flatnonzero(sizes == a)
        # Each configuration of A (of B), first site most significant, as basis bits per split.
        codes = [np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1) & 1
                 for m in (a, n_sites - a)]
        deposit = [bit[at][part].reshape(len(at), -1) @ c.T
                   for part, c in zip((in_a[at], ~in_a[at]), codes)]
        ones = [c.sum(axis=1) for c in codes]
        offset = 0
        for j in range(max(0, k - n_sites + a), min(a, k) + 1):
            index = pos[deposit[0][:, ones[0] == j, None] | deposit[1][:, None, ones[1] == k - j]]
            if index.shape[1] < index.shape[2]:  # LAPACK takes tall blocks faster
                index = index.transpose(0, 2, 1)
            groups.setdefault(index.shape[1:], []).append((index, at, offset))
            offset += index.shape[2]
            direct[at] &= index.shape[2] == 1
        width = max(width, offset)
    plan = [(np.concatenate([i for i, _, _ in g]),
             np.concatenate([r[:, None] * width + o + np.arange(i.shape[2]) for i, r, o in g]))
            for g in groups.values()]
    for a in (direct, *itertools.chain.from_iterable(plan)):
        a.setflags(write=False)  # the cache hands these arrays to every caller
    return (width, tuple(p for p in plan if p[0].shape[2] == 1),
            tuple(p for p in plan if p[0].shape[2] > 1), direct)


def _pair_sums(s: np.ndarray) -> np.ndarray:
    """2 sum_{i<j} s_i s_j per row of (P, width) Schmidt values, less products <= the tol."""
    width = s.shape[1]
    out = np.empty(len(s))
    step = max(1, (1 << 15) // (width * width))  # rows per product: 256 KB
    for lo in range(0, len(s), step):
        prod = s[lo:lo + step, :, None] * s[lo:lo + step, None, :]
        keep = np.triu(prod > linalg.ZERO_EIGENVALUE_TOL, 1)  # the pairs i < j
        out[lo:lo + step] = 2.0 * np.add.reduce(prod, axis=(1, 2), where=keep)
    return out


def _schmidt_negativities(amps: np.ndarray, width: int, norms, blocks, direct: np.ndarray,
                          lowest: int | None = None) -> np.ndarray:
    """The (T, splits) negativities of the Schmidt blocks that a _schmidt_plan takes from amps.

    With lowest, pure_negativities' screen, +inf where a split is skipped, unless it could
    skip 2 lowest splits or fewer (the splits not direct): then, as without, the full table.
    """
    s = np.zeros((len(amps), len(direct), width))
    flat = s.reshape(len(amps), -1)
    for index, slots in norms:
        flat[:, slots] = np.linalg.norm(amps[:, index], axis=-2)
    if lowest is None or np.count_nonzero(~direct) <= 2 * lowest:
        for index, slots in blocks:
            flat[:, slots] = np.linalg.svd(amps[:, index], compute_uv=False)
        return _pair_sums(s.reshape(-1, width)).reshape(s.shape[:2])
    bound, out = _norm_bounds(amps, s, blocks), np.full(s.shape[:2], np.inf)

    def solve(need):  # the exact values of the (state, split) entries in need
        for index, slots in blocks:
            t, b = np.nonzero(need[:, slots[:, 0] // width])
            if len(t):
                flat[t[:, None], slots[b]] = np.linalg.svd(amps[t[:, None, None], index[b]],
                                                           compute_uv=False)
        out[need] = _pair_sums(s[need])

    key = np.where(direct, -np.inf, bound)  # the direct splits first, then the lowest bounds
    last = np.count_nonzero(direct) + lowest - 1
    need = key <= np.partition(key, last, axis=1)[:, last, None]
    solve(need)
    solve(~need & (bound <= np.partition(out, lowest - 1, axis=1)[:, lowest - 1, None]))
    return out


def _norm_bounds(amps: np.ndarray, s: np.ndarray, blocks) -> np.ndarray:
    """(T, splits) (sum_j ||M_j||_F)^2 - n2 less pure_negativities' slack; -inf on overflow."""
    width, total = s.shape[2], s.sum(axis=2)  # s: the r x 1 blocks' norms; then the others'
    with np.errstate(over="ignore", invalid="ignore"):
        p = amps.real ** 2 + amps.imag ** 2
        for index, slots in blocks:
            np.add.at(total.T, slots[:, 0] // width, np.sqrt(p[:, index].sum((-2, -1))).T)
        n2, d = p.sum(axis=1)[:, None], amps.shape[1]
        bound = total * total - n2 - (width * (width - 1) * linalg.ZERO_EIGENVALUE_TOL
                                      + d * width * (3 * width + 4) * np.finfo(float).eps * n2)
    return np.nan_to_num(bound, nan=-np.inf, posinf=-np.inf)


def _check_amplitudes(amps, size: int) -> np.ndarray:
    """amps as complex128, the precision the kernels' slack is derived for (lists pass);
    ValueError unless a finite (T, size) stack of numbers."""
    if (amps := np.asarray(amps)).dtype.kind not in "iufc":  # no str, bool or object
        raise ValueError(f"amplitudes must be numbers, got dtype {amps.dtype}")
    if amps.ndim != 2 or amps.shape[1] != size or not np.all(np.isfinite(amps)):
        raise ValueError(f"amplitudes must be a finite (T, {size}) stack, got shape {amps.shape}")
    return amps.astype(np.complex128, copy=False)


def pure_negativities(amps: np.ndarray, n_sites: int, k: int, masks: Iterable[int],
                      lowest: int | None = None) -> np.ndarray:
    """double_negativity of each pure state of a (T, C(N,k)) sector stack per split mask.

    |psi><psi|^{T_A} has the negative eigenvalues -s_i s_j (i < j) of the Schmidt values
    s_i (Vidal and Werner, PRA 65, 032314, 2002); products below ZERO_EIGENVALUE_TOL are
    dropped, as for mixed states, so product states give 0.0.  One batched svd per block
    shape of _schmidt_plan (a norm for r x 1 blocks) serves all splits and all T states,
    T * len(masks) * C(N,k) gathered amplitudes (the caller bounds T): a (T, len(masks)) table.

    lowest (default: all) asks for each row's lowest values only.  A block M_j's singular
    values sum to at least ||M_j||_F, so N >= (sum_j ||M_j||_F)^2 - n2, n2 = ||psi||^2: one
    pass over |psi|^2, no svd.  Exact are the splits with no block of two or more columns,
    the lowest splits of lowest bound, then every split whose bound less the slack
    w (w - 1) ZERO_EIGENVALUE_TOL + d w (3 w + 4) eps n2 is at or below the row's lowest-th
    exact value (w the plan's width, d = C(N,k): at most w (w - 1) / 2 dropped pairs
    2 s_i s_j, and first-order rounding, through (sum_j ||M_j||_F)^2 <= (sum_i s_i)^2 <= w n2
    (at most w blocks and w values a split), of 4 d w eps n2 in the bound, 2 d w^2 eps n2
    in the svd and d w^2 eps n2 in the pair sums).  The rest is +inf and provably above
    them: a row's lowest values, and values tied with them, are == to the full table's,
    from at most two svd calls per block shape.  With 2 lowest or fewer splits to skip,
    the full table is computed.
    """
    masks = tuple(masks)
    plan = _schmidt_plan(n_sites, k, masks)
    amps = _check_amplitudes(amps, math.comb(n_sites, k))
    if lowest is not None and (isinstance(lowest, bool) or not isinstance(lowest, numbers.Integral)
                               or lowest < 1):
        raise ValueError(f"lowest must be a positive integer or None, got {lowest!r}")
    return _schmidt_negativities(amps, *plan, lowest)


def _schmidt_index(n_sites: int, mask: int) -> np.ndarray:
    """Basis index at each entry of the Schmidt matrix of the split A|B, A the sites of mask."""
    a = SiteSet(n_sites, mask)
    order = [s - 1 for s in a.sites() + a.complement().sites()]  # rows: A, first site first
    return np.arange(1 << n_sites).reshape((2,) * n_sites).transpose(order).reshape(
        1 << a.size(), -1)


def pure_double_negativity(psis: np.ndarray, p: Bipartition) -> np.ndarray:
    """double_negativity of each pure state in a (T, 2^N) stack for the split p.

    The full basis gives one block, the whole Schmidt matrix (_schmidt_index),
    gathered as the sector blocks are.
    """
    psis = _check_amplitudes(psis, 1 << p.n_sites)
    m = _schmidt_index(p.n_sites, p.part_a.mask)
    m = m if len(m) >= m.shape[1] else m.T  # tall, as in _schmidt_plan
    blocks = ((m[None], np.arange(m.shape[1])[None]),)
    return _schmidt_negativities(psis, m.shape[1], (), blocks, np.zeros(1, bool))[:, 0]


def pairwise_negativity(rho: np.ndarray, parts: list[SiteSet], i: int, j: int) -> float:
    """Double negativity between parts[i] and parts[j] after tracing out the rest."""
    rho = linalg.check_hermitian(rho)
    n = n_sites_of(rho)
    for k in (i, j):
        if isinstance(k, bool) or not isinstance(k, numbers.Integral) or not 0 <= k < len(parts):
            raise ValueError(f"part index must be 0..{len(parts) - 1}, got {k}")
    if i == j:
        raise ValueError("i and j must differ")
    union = 0
    for k, p in enumerate(parts):
        if p.n_sites != n:
            raise ValueError("part lives on a different register")
        if union & p.mask:
            raise ValueError("parts overlap")
        union |= p.mask
    if union != (1 << n) - 1:
        raise ValueError("parts do not cover the register")
    keep = SiteSet(n, parts[i].mask | parts[j].mask)
    # Bit k of the reduced register is the k-th kept site (kept sites stay ordered).
    local_a = sum(1 << k for k, s in enumerate(keep.sites()) if parts[i].mask >> (s - 1) & 1)
    return float(_negativities(partial_trace(rho, keep), [local_a])[0])


def mebd(rho: np.ndarray) -> MebdResult:
    """Minimum double negativity over every bipartition of the register."""
    rho = linalg.check_hermitian(rho)
    parts = enumerate_bipartitions(n_sites_of(rho))
    values = _negativities(rho, [p.part_a.mask for p in parts]).tolist()
    best = min(range(len(values)), key=values.__getitem__)
    return MebdResult(values[best], parts[best], dict(zip(parts, values)))


def single_node_witness(rho: np.ndarray) -> float:
    """Min over sites of the one-site-versus-rest double negativity (upper bound on MEBD)."""
    rho = linalg.check_hermitian(rho)
    n = n_sites_of(rho)
    if n < 2:
        raise ValueError("need at least 2 sites")
    return float(_negativities(rho, [1 << s for s in range(n)]).min())


def max_level(n_sites: int) -> int:
    """Deepest meaningful estimator level: recursion bottoms out at 2-site parts."""
    return max(1, n_sites - 2)


def lower_estimates(rho: np.ndarray) -> list[float]:
    """The level-k lower estimators of MEBD, k = 1..max_level(N): non-increasing in k.

    E^0 is exact MEBD and E^k(S) = max over splits A|B of S of min(E^(k-1)(A),
    E^(k-1)(B), N_{A,B}), with E = +inf on single sites.  The split table is
    built once: table[S][A] is N_{A, S-A} on rho_S for each mask S of two or more
    sites and each canonical split of S (A holds S's first site, keyed by its
    mask).  Each rho_S is traced from rho once, and the states of one size go to
    the mixed kernel as one stack; each level is one pass over the table's rows.
    """
    rho = linalg.check_hermitian(rho)
    n = n_sites_of(rho)
    if n < 2:
        raise ValueError(f"need at least 2 sites, got {n}")
    table = {}
    for size in range(2, n + 1):
        group = [s for s in range(1, 1 << n) if s.bit_count() == size]
        states = np.empty((len(group),) + (1 << size,) * 2, rho.dtype)  # a list would copy twice
        for i, s in enumerate(group):
            states[i] = partial_trace(rho, SiteSet(n, s))
        local = range(1, (1 << size) - 1, 2)
        for keep, row in zip(group, _negativities(states, local).tolist()):
            bits = [b for b in range(n) if keep >> b & 1]  # bit k of rho_S: site bits[k]+1
            table[keep] = {sum(1 << b for k, b in enumerate(bits) if a >> k & 1): x
                           for a, x in zip(local, row)}
        del states  # freed before the next size's stack and kernel call, not after
    est = {s: min(row.values()) for s, row in table.items()}
    ladder = []
    for _ in range(max_level(n)):
        prev = est
        est = {s: max(min(prev.get(a, math.inf), prev.get(s ^ a, math.inf), cross)
                      for a, cross in row.items())
               for s, row in table.items()}
        ladder.append(est[(1 << n) - 1])
    return ladder


def lower_estimate_level(rho: np.ndarray, level: int) -> float:
    """Level-k lower estimator of MEBD: entry k of lower_estimates.

    Each call builds the split table anew, so a whole ladder is cheaper
    from one lower_estimates call than from one call per level.
    """
    n = n_sites_of(linalg.check_hermitian(rho))
    if n < 2:
        raise ValueError(f"need at least 2 sites, got {n}")
    if (isinstance(level, bool) or not isinstance(level, numbers.Integral)
            or not 1 <= level <= max_level(n)):
        raise ValueError(f"level must be 1..{max_level(n)} for {n} sites, got {level}")
    return lower_estimates(rho)[level - 1]
