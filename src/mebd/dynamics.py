"""Time sweeps: evolve psi(tau) on a grid, evaluate witnesses, locate first maxima.

The Hamiltonian is eigendecomposed once; each grid point only needs the phase
factors e^{-i w tau} applied to the initial state in the eigenbasis.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from . import entanglement, linalg
from .errors import GridTooLarge, NoMaximumFound
from .hilbert import Bipartition, SiteSet, basis_index
from .model import CouplingKind, CouplingProfile, build_hdz

MAX_GRID_POINTS = 100_000

MEBD = "mebd"
E1_FIXED = "e1_fixed"
E_TILDE = "e_tilde"
PER_PARTITION = "per_partition"
KNOWN_QUANTITIES = (MEBD, E1_FIXED, E_TILDE, PER_PARTITION)


def default_fixed_bipartition(n_sites: int) -> Bipartition:
    """First-half-versus-rest split used for the e1_fixed curve."""
    a = SiteSet.from_sites(n_sites, range(1, n_sites // 2 + 1))
    return Bipartition(a, a.complement())


@dataclass(frozen=True)
class SweepConfig:
    n_sites: int
    initial_label: str
    profile: CouplingProfile | None = None
    tau_start: float = 0.0
    tau_end: float = 4.0
    tau_step: float = 0.005
    quantities: tuple[str, ...] = (MEBD, E1_FIXED, E_TILDE)
    fixed_bipartition: Bipartition | None = None

    def __post_init__(self):
        if len(self.initial_label) != self.n_sites:
            raise ValueError("initial label length != n_sites")
        if not (0 <= self.tau_start < self.tau_end) or self.tau_step <= 0:
            raise ValueError("need 0 <= tau_start < tau_end and tau_step > 0")
        for q in self.quantities:
            if q not in KNOWN_QUANTITIES:
                raise ValueError(f"unknown quantity {q!r}")
        if len(self.grid()) > MAX_GRID_POINTS:
            raise GridTooLarge(f"grid exceeds {MAX_GRID_POINTS} points")

    def grid(self) -> np.ndarray:
        n = int(math.floor((self.tau_end - self.tau_start) / self.tau_step + 1e-9)) + 1
        return self.tau_start + self.tau_step * np.arange(n)

    def resolved_profile(self) -> CouplingProfile:
        if self.profile is not None:
            return self.profile
        return CouplingProfile(CouplingKind.ALL_PAIRS_DIPOLAR, self.n_sites)


@dataclass(frozen=True)
class SweepRecord:
    tau: float
    values: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class MaximumReport:
    tau_star: float
    value: float
    kind: str  # "grid-point" or "parabolic-refined"


def evolve(n_sites: int, initial_label: str, taus: Iterable[float],
           profile: CouplingProfile | None = None) -> Iterator[np.ndarray]:
    """Yield psi(tau) = e^{-iH tau} |initial_label> for each tau, in order.

    H (all-pairs dipolar unless a profile is given) is eigendecomposed once;
    each tau then costs one phase multiply and one matrix-vector product.
    """
    if len(initial_label) != n_sites:
        raise ValueError("initial label length != n_sites")
    ham = build_hdz(n_sites, profile or CouplingKind.ALL_PAIRS_DIPOLAR)
    spec = linalg.hermitian_eig(ham.matrix)
    psi0 = np.zeros(1 << n_sites, dtype=np.complex128)
    psi0[basis_index(initial_label)] = 1.0
    c0 = spec.vectors.conj().T @ psi0
    for tau in taus:
        yield spec.vectors @ (np.exp(-1j * spec.eigenvalues * tau) * c0)


def run_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Evaluate the requested witnesses on the tau grid, in grid order."""
    fixed = cfg.fixed_bipartition or default_fixed_bipartition(cfg.n_sites)
    family = entanglement.enumerate_bipartitions(cfg.n_sites)

    records = []
    taus = cfg.grid()
    for tau, psi in zip(taus, evolve(cfg.n_sites, cfg.initial_label, taus, cfg.profile)):
        rho = np.outer(psi, psi.conj())
        values: dict[str, float] = {}
        per: dict[Bipartition, float] | None = None
        if MEBD in cfg.quantities or PER_PARTITION in cfg.quantities:
            res = entanglement.mebd(rho)
            per = res.per_partition
            if MEBD in cfg.quantities:
                values[MEBD] = res.value
        if E1_FIXED in cfg.quantities:
            values[E1_FIXED] = entanglement.lower_estimate_1(rho, fixed)
        if E_TILDE in cfg.quantities:
            values[E_TILDE] = entanglement.single_node_witness(rho)
        if PER_PARTITION in cfg.quantities and per is not None:
            for p in family.partitions:
                values[f"p_{p.label()}"] = per[p]
        records.append(SweepRecord(tau=float(tau), values=values))
    return records


def find_first_maximum(series: list[SweepRecord], quantity: str = MEBD,
                       min_value: float = 0.5) -> MaximumReport:
    """First interior grid point >= both neighbours and >= min_value.

    The reported location is refined by the parabola through the point and
    its neighbours, which needs a uniform grid; min_value filters the small
    ripples near tau = 0.
    """
    if not series:
        raise NoMaximumFound("empty series")
    taus = [r.tau for r in series]
    steps = np.diff(taus)
    if np.any(steps <= 0):
        raise NoMaximumFound("series must be strictly increasing in tau")
    # Relative tolerance: grid() spacings differ in the last bits.
    if steps.size and steps.max() - steps.min() > 1e-9 * steps.max():
        raise NoMaximumFound("series must be uniformly spaced in tau")
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
