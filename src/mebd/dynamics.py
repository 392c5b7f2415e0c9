"""Time sweeps: evolve psi(tau) on a grid, evaluate witnesses, locate first maxima.

H conserves the number of excitations, so only its block on the initial
state's k-excitation sector is eigendecomposed, once; each batch of grid
points then needs the phase factors e^{-i w tau} and one matrix product.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from . import entanglement
from .hilbert import MAX_SITES, Bipartition, SiteSet, basis_index, excitation_sector
from .model import CouplingKind, build_hdz

MAX_GRID_POINTS = 100_000
# Grid points evolved per matrix product; bounds the memory of long grids.
EVOLVE_BATCH = 128

MEBD = "mebd"
E1_FIXED = "e1_fixed"
E_TILDE = "e_tilde"
PER_PARTITION = "per_partition"
KNOWN_QUANTITIES = (MEBD, E1_FIXED, E_TILDE, PER_PARTITION)


class NoMaximumFound(ValueError):
    """No qualifying local maximum in the series."""


def default_fixed_bipartition(n_sites: int) -> Bipartition:
    """First-half-versus-rest split used for the e1_fixed curve."""
    a = SiteSet.from_sites(n_sites, range(1, n_sites // 2 + 1))
    return Bipartition(a, a.complement())


@dataclass(frozen=True)
class SweepConfig:
    n_sites: int
    initial_label: str
    profile: CouplingKind = CouplingKind.ALL_PAIRS_DIPOLAR
    tau_start: float = 0.0
    tau_end: float = 4.0
    tau_step: float = 0.005
    quantities: tuple[str, ...] = (MEBD, E1_FIXED, E_TILDE)
    fixed_bipartition: Bipartition | None = None

    def __post_init__(self):
        object.__setattr__(self, "profile", CouplingKind(self.profile))  # a name or the enum
        if not 2 <= self.n_sites <= MAX_SITES:
            raise ValueError(f"n_sites must be 2..{MAX_SITES}, got {self.n_sites}")
        if len(self.initial_label) != self.n_sites:
            raise ValueError("initial label length != n_sites")
        for name in ("tau_start", "tau_end", "tau_step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0 <= self.tau_start < self.tau_end) or self.tau_step <= 0:
            raise ValueError("need 0 <= tau_start < tau_end and tau_step > 0")
        if not self.quantities:
            raise ValueError("quantities must name at least one quantity")
        for q in self.quantities:
            if q not in KNOWN_QUANTITIES:
                raise ValueError(f"unknown quantity {q!r}")
        if self.fixed_bipartition and self.fixed_bipartition.n_sites != self.n_sites:
            raise ValueError("fixed bipartition lives on a different register")
        if not self._span() < MAX_GRID_POINTS:  # counted before any array is built
            raise ValueError(f"grid exceeds {MAX_GRID_POINTS} points")

    def _span(self) -> float:
        """The grid has floor(span) + 1 points; a span that overflows to inf is too large."""
        return (self.tau_end - self.tau_start) / self.tau_step + 1e-9

    def grid(self) -> np.ndarray:
        return self.tau_start + self.tau_step * np.arange(math.floor(self._span()) + 1)


@dataclass(frozen=True)
class SweepRecord:
    tau: float
    values: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class MaximumReport:
    tau_star: float
    value: float
    kind: str  # "grid-point" or "parabolic-refined"


def _evolve_batches(n_sites: int, initial_label: str, taus: Iterable[float],
                    profile: CouplingKind = CouplingKind.ALL_PAIRS_DIPOLAR
                    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (taus, psis) for consecutive batches of up to EVOLVE_BATCH grid points.

    psis has one row psi(tau) per tau, in the full 2^N basis.
    """
    if len(initial_label) != n_sites:
        raise ValueError("initial label length != n_sites")
    k = initial_label.count("1")
    w, v = np.linalg.eigh(build_hdz(n_sites, k, profile))
    sector = excitation_sector(n_sites, k)
    c0 = v[sector.index(basis_index(initial_label))]
    taus = iter(taus)
    while (batch := np.fromiter(itertools.islice(taus, EVOLVE_BATCH), np.float64)).size:
        bad = batch[~np.isfinite(batch)]
        if bad.size:
            raise ValueError(f"tau must be finite, got {bad[0]}")
        amps = v @ (np.exp(-1j * np.outer(w, batch)) * c0[:, None])
        psis = np.zeros((batch.size, 1 << n_sites), dtype=np.complex128)
        psis[:, sector] = amps.T
        yield batch, psis


def evolve(n_sites: int, initial_label: str, taus: Iterable[float],
           profile: CouplingKind = CouplingKind.ALL_PAIRS_DIPOLAR) -> Iterator[np.ndarray]:
    """Yield psi(tau) = e^{-iH tau} |initial_label> for each tau, in order.

    H (all-pairs dipolar unless a profile is given) is eigendecomposed once,
    on the initial state's excitation sector; taus are evolved in batches.
    """
    for _, psis in _evolve_batches(n_sites, initial_label, taus, profile):
        yield from psis


def _is_one_site(p: Bipartition) -> bool:
    return p.part_a.size() == 1 or p.part_b.size() == 1


def run_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Evaluate the requested witnesses on the tau grid, in grid order.

    psi(tau) is pure, so each batch fills a table of Schmidt-kernel
    negativities, one row per tau and one column per split that a quantity
    reads.  Only the subsystem MEBDs of e1_fixed need mixed states: rho_A =
    M M^dagger and rho_B = M^T M^* from the fixed split's Schmidt matrix M.
    """
    q = cfg.quantities
    fixed = cfg.fixed_bipartition or default_fixed_bipartition(cfg.n_sites)
    fixed_mask = fixed.part_a.mask if fixed.part_a.mask & 1 else fixed.part_b.mask
    splits = [p for p in entanglement.enumerate_bipartitions(cfg.n_sites)
              if MEBD in q or PER_PARTITION in q or (E_TILDE in q and _is_one_site(p))
              or (E1_FIXED in q and p.part_a.mask == fixed_mask)]
    one_site = [j for j, p in enumerate(splits) if _is_one_site(p)]
    fixed_col = next((j for j, p in enumerate(splits) if p.part_a.mask == fixed_mask), None)

    records = []
    batches = _evolve_batches(cfg.n_sites, cfg.initial_label, cfg.grid(), cfg.profile)
    for taus, psis in batches:
        table = np.empty((len(psis), len(splits)))
        for j, p in enumerate(splits):
            table[:, j] = entanglement.pure_double_negativity(psis, p)
        subsystems = []
        if E1_FIXED in q:
            m = entanglement.schmidt_matrices(psis, fixed)
            if fixed.part_a.size() >= 2:
                subsystems.append(m @ m.conj().swapaxes(1, 2))
            if fixed.part_b.size() >= 2:
                subsystems.append(m.swapaxes(1, 2) @ m.conj())
        for t, (tau, row) in enumerate(zip(taus, table)):
            values: dict[str, float] = {}
            if MEBD in q:
                values[MEBD] = float(row.min())
            if E1_FIXED in q:
                values[E1_FIXED] = min([float(row[fixed_col])] + [
                    entanglement.mebd(rho[t]).value for rho in subsystems])
            if E_TILDE in q:
                values[E_TILDE] = float(row[one_site].min())
            if PER_PARTITION in q:
                for p, v in zip(splits, row):
                    values[f"p_{p.label()}"] = float(v)
            records.append(SweepRecord(tau=float(tau), values=values))
    return records


def find_first_maximum(series: list[SweepRecord], quantity: str = MEBD,
                       min_value: float = 0.5) -> MaximumReport:
    """First interior grid point >= both neighbours and >= min_value.

    The reported location is refined by the parabola through the point and
    its neighbours, which needs a uniform grid; min_value filters the small
    ripples near tau = 0 (-inf filters nothing).
    """
    if math.isnan(min_value):
        raise ValueError("min_value must not be NaN")
    if not series:
        raise NoMaximumFound("empty series")
    taus = [r.tau for r in series]
    steps = np.diff(taus)
    if np.any(steps <= 0):
        raise NoMaximumFound("series must be strictly increasing in tau")
    # Relative tolerance: grid() spacings differ in the last bits.
    if steps.size and steps.max() - steps.min() > 1e-9 * steps.max():
        raise NoMaximumFound("series must be uniformly spaced in tau")
    if any(quantity not in r.values for r in series):
        raise ValueError(f"quantity {quantity!r} is not in the series")
    vals = [r.values[quantity] for r in series]
    for i in range(1, len(vals) - 1):
        if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1] and vals[i] >= min_value:
            t0, t1, t2 = taus[i - 1], taus[i], taus[i + 1]
            v0, v1, v2 = vals[i - 1], vals[i], vals[i + 1]
            denom = v0 - 2 * v1 + v2
            if denom >= -1e-15:  # flat or degenerate: keep the grid point
                return MaximumReport(tau_star=t1, value=v1, kind="grid-point")
            # Uniform-grid parabola through the three points.
            h = (t2 - t0) / 2
            shift = 0.5 * h * (v0 - v2) / denom
            value = v1 - 0.25 * (v0 - v2) * shift / h
            return MaximumReport(tau_star=t1 + shift, value=value, kind="parabolic-refined")
    raise NoMaximumFound(f"no local maximum of {quantity} above {min_value}")


def sanity_tau_bound(report: MaximumReport) -> bool:
    """True iff the maximum occurs before the dimensionless transfer bound pi."""
    return report.tau_star < math.pi
