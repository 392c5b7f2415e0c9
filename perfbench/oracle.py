"""Independent numpy-only oracle for the benchmark's outputs.

Nothing here imports mebd.  The chain is evolved inside its excitation
sector, and pure-state double negativities come from the Schmidt formula
N_{A|B} = (sum_i s_i)^2 - 1 (Vidal and Werner, PRA 65, 032314, 2002), where
s_i are the singular values of psi reshaped to 2^|A| x 2^|B|.  Conventions
match the package: sites 1..N, site 1 is the most significant bit of a basis
index, "1" marks an excited spin, and D_ij = 1/|i-j|^3 with
H = sum_{i<j} D_ij (IxIx + IyIy - 2 IzIz).

Checks run after the timed region; each returns the number of failed
operations so that a miss counts in the error rate.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Absolute tolerance for values the program and the oracle both compute.
VALUE_TOL = 1e-8

# Published first maxima of MEBD for the canonical chains (N: init, tau*, E).
REFERENCE_MAXIMA = {
    3: ("010", 1.505, 0.943),
    4: ("1001", 1.819, 1.000),
    6: ("100110", 2.110, 0.992),
    8: ("10011001", 2.193, 0.988),
}
REFERENCE_TOL = 0.01


def half_filled_labels(n: int) -> list[str]:
    """All n-site basis labels with n // 2 excitations, in lexicographic order."""
    return [format(i, f"0{n}b") for i in range(1 << n) if bin(i).count("1") == n // 2]


@lru_cache(maxsize=16)
def _sector(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Basis indices of the k-excitation sector and the eigenpairs of H restricted to it."""
    states = [s for s in range(1 << n) if bin(s).count("1") == k]
    pos = {s: j for j, s in enumerate(states)}
    h = np.zeros((len(states), len(states)))
    for col, s in enumerate(states):
        for i in range(1, n + 1):
            bi = n - i
            for j in range(i + 1, n + 1):
                bj = n - j
                d = 1.0 / (j - i) ** 3
                zi = 0.5 - (s >> bi & 1)
                zj = 0.5 - (s >> bj & 1)
                h[col, col] += -2.0 * d * zi * zj
                if (s >> bi & 1) != (s >> bj & 1):
                    h[pos[s ^ (1 << bi | 1 << bj)], col] += 0.5 * d
    w, v = np.linalg.eigh(h)
    return np.array(states), w, v


def evolve(label: str, taus) -> np.ndarray:
    """psi(tau) in the full 2^N product basis for each tau, one row per tau."""
    n = len(label)
    states, w, v = _sector(n, label.count("1"))
    c0 = v[int(np.flatnonzero(states == int(label, 2))[0])].conj()
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    sector_psi = (np.exp(-1j * np.outer(taus, w)) * c0) @ v.T
    psi = np.zeros((taus.size, 1 << n), dtype=np.complex128)
    psi[:, states] = sector_psi
    return psi


def schmidt_negativity(psi: np.ndarray, sites_a) -> float:
    """Double negativity of the pure state psi for the split sites_a | rest."""
    n = psi.size.bit_length() - 1
    a_axes = sorted(s - 1 for s in sites_a)
    b_axes = [ax for ax in range(n) if ax not in a_axes]
    m = psi.reshape((2,) * n).transpose(a_axes + b_axes).reshape(1 << len(a_axes), -1)
    s = np.linalg.svd(m, compute_uv=False)
    return float(s.sum() ** 2 - 1.0)


def canonical_splits(n: int) -> list[tuple[int, ...]]:
    """Part A of every bipartition with site 1 in A: 2^(N-1) - 1 of them."""
    return [tuple(i + 1 for i in range(n) if mask >> i & 1)
            for mask in range(1, (1 << n) - 1) if mask & 1]


def mebd_and_single_node(psi: np.ndarray) -> tuple[float, float]:
    """(min over all splits, min over one-site-versus-rest splits) of the Schmidt negativity."""
    n = psi.size.bit_length() - 1
    values = {a: schmidt_negativity(psi, a) for a in canonical_splits(n)}
    single = min(schmidt_negativity(psi, (s,)) for s in range(1, n + 1))
    return min(values.values()), single


def _close(x, y) -> bool:
    return math.isfinite(x) and abs(x - y) <= VALUE_TOL


def check_sweep(label: str, taus, records: list[tuple[float, dict[str, float]]]) -> int:
    """Failed tau points of a full-witness sweep: Schmidt MEBD and e_tilde, e1 <= mebd <= e_tilde."""
    if len(records) != len(taus):
        return len(taus)
    psis = evolve(label, taus)
    failed = 0
    for psi, tau, (got_tau, values) in zip(psis, taus, records):
        mebd, single = mebd_and_single_node(psi)
        m, e1, et = values.get("mebd", math.nan), values.get("e1_fixed", math.nan), \
            values.get("e_tilde", math.nan)
        ok = (abs(got_tau - tau) <= 1e-12 and _close(m, mebd) and _close(et, single)
              and math.isfinite(e1) and e1 <= m + VALUE_TOL and m <= et + VALUE_TOL)
        failed += not ok
    return failed


def check_table1(rows: list[dict]) -> tuple[int, float]:
    """Failed rows against the reference maxima, and the largest deviation seen."""
    failed, dev_max = 0, 0.0
    for row in rows:
        _, tau_ref, e_ref = REFERENCE_MAXIMA[row["n_sites"]]
        dev = max(abs(row["tau_star"] - tau_ref), abs(row["value"] - e_ref))
        dev_max = max(dev_max, dev) if math.isfinite(dev) else math.inf
        failed += not (dev <= REFERENCE_TOL and row["tau_star"] < math.pi)
    return failed, dev_max


def check_ladder(psi: np.ndarray, ladder: list[float]) -> int:
    """1 if the level-k ladder is not finite, non-negative, non-increasing in k and <= MEBD."""
    mebd, _ = mebd_and_single_node(psi)
    ok = all(math.isfinite(v) and -VALUE_TOL <= v <= mebd + VALUE_TOL for v in ladder)
    ok = ok and all(b <= a + VALUE_TOL for a, b in zip(ladder, ladder[1:]))
    return int(not (ladder and ok))


def check_query(label: str, tau: float, sites_a, value: float) -> int:
    """1 if a one-off negativity query disagrees with the Schmidt formula."""
    expected = schmidt_negativity(evolve(label, tau)[0], sites_a)
    return int(not _close(value, expected))
