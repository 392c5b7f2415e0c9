"""Time sweeps: evolve psi(tau) on a grid, evaluate witnesses, locate first maxima.

H conserves the number of excitations, so sector_eigensystem diagonalises
only its block on the initial state's k-excitation sector, once and in symmetry
blocks gathered from H's rows at the orbit representatives (the whole block,
model.build_hdz, is never built here); amplitudes then needs the phase factors
e^{-i w tau} and one matrix-vector product per tau.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import entanglement
from .hilbert import MAX_SITES, Bipartition, SiteSet, basis_index, excitation_sector
from .model import CouplingKind, _hdz_rows

MAX_GRID_POINTS = 100_000
# One pure_negativities call: at most EVOLVE_BATCH tau and GATHER_ELEMENTS gathered amplitudes.
EVOLVE_BATCH = 128
GATHER_ELEMENTS = 1 << 21
# first_maximum's tau per call: grid points per scan batch and points per refinement round.
SEARCH_BATCH = 16
# first_maximum's refinement stops when its bracket is this narrow in tau.
REFINE_TOL = 1e-8
# first_maximum's candidates: this many lowest splits at each point of the grid cell.
CANDIDATE_SPLITS = 4

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
        basis_index(self.initial_label)  # a 0/1 label: a bad one fails before any eigensolve
        for name in ("tau_start", "tau_end", "tau_step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0 <= self.tau_start < self.tau_end) or self.tau_step <= 0:
            raise ValueError("need 0 <= tau_start < tau_end and tau_step > 0")
        if not self.quantities:
            raise ValueError("quantities must name at least one quantity")
        for i, q in enumerate(self.quantities):
            if q not in KNOWN_QUANTITIES:
                raise ValueError(f"unknown quantity {q!r}")
            if q in self.quantities[:i]:
                raise ValueError(f"duplicate quantity {q!r}")
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
    kind: str  # "grid-point" (find_first_maximum) or "exact" (first_maximum)
    splits: tuple[str, ...] = ()  # an exact maximum's minimising columns, 'A|S-A' each


@functools.lru_cache(maxsize=None)
def _symmetry_plan(n_sites: int, k: int) -> tuple:
    """(sector, position, rows, blocks): H's symmetry blocks on the k-excitation sector.

    sector holds the sector's basis indices (hilbert.excitation_sector) and position[b]
    the place of basis index b in it.  Both profiles depend only on |i-j|, so H_dz commutes
    with the mirror R (site i -> N+1-i) and, when 2k = N, with the global flip X:
    G = {1, X, R, RX} or {1, R} maps the sector to itself.  rows are the orbits' least
    sector positions, ascending: the only rows of H the eigensolve builds.  The block of a
    character chi of G (its signs on those elements) holds one basis vector per orbit whose
    stabiliser chi is trivial on (Sandvik, AIP Conf. Proc. 1297, 135, 2010); blocks has one
    (chi, at, img, t, reached) each: reached marks the orbits' states, rows[at] are their
    representatives r_i, img[i, g] the position of g(r_i), and t = 1/sqrt(orbit size).
    The trivial character's block, which every state reaches, holds every orbit.
    """
    sector = np.array(excitation_sector(n_sites, k))
    position = np.zeros(1 << n_sites, dtype=np.intp)
    position[sector] = np.arange(len(sector))
    flips = (0, (1 << n_sites) - 1) if 2 * k == n_sites else (0,)
    mirror = (sector[:, None] >> np.arange(n_sites) & 1) @ (1 << np.arange(n_sites)[::-1])
    img = position[[s ^ f for s in (sector, mirror) for f in flips]].T
    fixed, sign = img == np.arange(len(sector))[:, None], np.array([[1, 1], [1, -1]])
    rows = np.flatnonzero(img.min(axis=1) == np.arange(len(sector)))
    blocks = []
    for chi in np.kron(sign, sign[:len(flips), :len(flips)]):
        reached = ~(fixed & (chi < 0)).any(axis=1)
        at = np.flatnonzero(reached[rows])
        blocks.append((chi, at, img[rows[at]], np.sqrt(fixed[rows[at]].mean(axis=1)), reached))
    plan = (sector, position, rows, tuple(blocks))
    for a in (sector, position, rows, *(a for block in blocks for a in block)):
        a.setflags(write=False)  # the cache hands these arrays to every caller
    return plan


def sector_eigensystem(n_sites: int, initial_label: str,
                       profile: CouplingKind = CouplingKind.ALL_PAIRS_DIPOLAR) -> tuple:
    """(sector, w, v, c0): H on the initial state's excitation sector, one eigh per block.

    sector lists the sector's basis indices (hilbert.excitation_sector).  H's block there
    (all-pairs dipolar unless a profile is given) is solved one _symmetry_plan block at a
    time, and only the blocks the initial state reaches are kept: w their eigenvalues, not
    sorted, v (C(N,k) x m, complex) their eigenvectors on the sector, c0 the initial state's
    row (real).  Only H's rows at the orbit representatives are built (model._hdz_rows),
    never the whole C(N,k) x C(N,k) block, and the eigenvectors are written straight into
    the real part of v.
    """
    if not 2 <= n_sites <= MAX_SITES:
        raise ValueError(f"n_sites must be 2..{MAX_SITES}, got {n_sites}")
    if len(initial_label) != n_sites:
        raise ValueError("initial label length != n_sites")
    start = basis_index(initial_label)  # a 0/1 label, checked before the eigensolve
    sector, position, rows, blocks = _symmetry_plan(n_sites, start.bit_count())
    h, p0 = _hdz_rows(n_sites, sector, position, rows, profile), position[start]
    kept = [(chi, at, img, t) for chi, at, img, t, reached in blocks if reached[p0]]
    v = np.zeros((len(sector), sum(len(at) for _, at, _, _ in kept)), dtype=np.complex128)
    ws, col = [], 0
    for chi, at, img, t in kept:  # H_chi[i, j] = sum_g chi(g) H[r_i, g(r_j)] / (|G| t_i t_j)
        wb, vb = np.linalg.eigh(h[at].take(img, axis=1) @ chi / (len(chi) * t[:, None] * t))
        ws.append(wb)  # and v[g(r_i)] = chi(g) t_i V[i]
        v.real[img.T, col:col + len(at)] = chi[:, None, None] * (t[:, None] * vb)
        col += len(at)
    return sector.tolist(), np.concatenate(ws), v, v.real[p0].copy()


def amplitudes(w: np.ndarray, v: np.ndarray, c0: np.ndarray, taus) -> np.ndarray:
    """psi(tau) = e^{-iH tau} psi(0) for a 1-D array of tau: (T, C(N,k)), one row per tau.

    (w, v, c0) come from sector_eigensystem; column j is the amplitude of sector[j].
    Each row is its own matrix-vector product, bit-equal whatever tau share the call.
    """
    taus = np.asarray(taus)
    if taus.ndim != 1 or taus.dtype.kind not in "iuf":  # no complex, str, bool or object tau
        raise ValueError(f"taus must be a 1-D array of real numbers, got {taus.dtype} "
                         f"of shape {taus.shape}")
    if not np.all(np.isfinite(taus)):
        raise ValueError(f"tau must be finite, got {taus[~np.isfinite(taus)][0]}")
    return np.matmul(v, (np.exp(-1j * np.outer(taus, w)) * c0)[:, :, None])[:, :, 0]


def _column_label(n_sites: int, col: tuple[int, int]) -> str:
    """'A|S-A' on S's sites for the column (S, a): '5|6.7.8', or '1|2.3' when S is all sites."""
    sites = SiteSet(n_sites, col[0]).sites()
    side = lambda bit: ".".join(str(s) for j, s in enumerate(sites) if (col[1] >> j & 1) == bit)
    return f"{side(1)}|{side(0)}"


def _sweep_evaluator(cfg: SweepConfig):
    """Prepare cfg once: (rows, reads), the columns each quantity reads and the one batch rule.

    A column (S, a) is N_{A, S-A}: S a site mask, a a local mask (bit j is S's j-th site,
    A holds S's first site).  S = all sites is psi itself (a is then A's site mask), for
    the Schmidt kernel on the sector; a part S of the fixed split is rho_S = M_S M_S^dagger,
    M_S the Schmidt matrix of S|rest, for the mixed kernel.  reads[q] lists q's columns,
    and q is their minimum.  rows(taus, cols, lowest) yields (tau, table) per kernel call,
    table the values of the columns asked for and no others; with lowest, pure_negativities'
    screen leaves +inf in psi's columns above each row's lowest values.  e1_fixed stays exact
    (E^1 <= MEBD): a skipped fixed split lies above another split C|D, which cuts a part P,
    and N_{C&P, D&P}(rho_P) <= N_{C,D}, the trace over the rest being local on each side of
    C|D (Vidal and Werner, PRA 65, 032314, 2002).  A call takes at most EVOLVE_BATCH tau,
    GATHER_ELEMENTS amplitudes gathered for its splits of psi and, with columns on a part,
    2^16 / d^2 tau, d the dimension of the largest such part.
    """
    n, k, full = cfg.n_sites, cfg.initial_label.count("1"), (1 << cfg.n_sites) - 1
    fixed = cfg.fixed_bipartition or default_fixed_bipartition(n)
    fixed_mask = fixed.part_a.mask if fixed.part_a.mask & 1 else fixed.part_b.mask
    parts = (fixed_mask, full ^ fixed_mask)
    splits = [(full, m) for m in range(1, full, 2)]  # enumerate_bipartitions' order
    reads = {MEBD: splits, PER_PARTITION: splits,
             E_TILDE: [c for c in splits if c[1].bit_count() in (1, n - 1)],
             E1_FIXED: [(full, fixed_mask)] + [(s, a) for s in parts
                                               for a in range(1, (1 << s.bit_count()) - 1, 2)]}
    sector, w, v, c0 = sector_eigensystem(n, cfg.initial_label, cfg.profile)

    def rows(taus: np.ndarray, cols: list[tuple[int, int]], lowest: int | None = None):
        pure = [j for j, (s, _) in enumerate(cols) if s == full]
        mixed = [(j, s, a) for j, (s, a) in enumerate(cols) if s != full]
        sizes = sorted({s.bit_count() for _, s, _ in mixed})
        batch = max(1, min(EVOLVE_BATCH, GATHER_ELEMENTS // (max(1, len(pure)) * len(sector)),
                           (1 << 16) >> 2 * max(sizes, default=0)))
        for lo in range(0, len(taus), batch):
            amps = amplitudes(w, v, c0, taus[lo:lo + batch])
            table = np.empty((len(amps), len(cols)))
            if pure:
                table[:, pure] = entanglement.pure_negativities(
                    amps, n, k, [cols[j][1] for j in pure], lowest=lowest)
            if mixed:
                psi = np.zeros((len(amps), 1 << n), dtype=np.complex128)
                psi[:, sector] = amps
            for size in sizes:  # the parts of one size in one stack, on every local split read
                group = sorted({s for _, s, _ in mixed if s.bit_count() == size})
                local = sorted({a for _, s, a in mixed if s in group})
                ms = [psi[:, entanglement._schmidt_index(n, s)] for s in group]
                got = dict(zip(group, entanglement._negativities(
                    np.array([m @ m.conj().swapaxes(1, 2) for m in ms]), local)))
                for j, s, a in mixed:
                    if s in got:
                        table[:, j] = got[s][:, local.index(a)]
            yield taus[lo:lo + batch], table

    return rows, reads


def run_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Evaluate the requested witnesses on the tau grid, in grid order."""
    rows, reads = _sweep_evaluator(cfg)
    q, splits = cfg.quantities, reads[PER_PARTITION]
    cols = sorted({c for name in q for c in reads[name]})  # psi's splits last, ascending
    at = {c: j for j, c in enumerate(cols)}
    picks = {name: [at[c] for c in reads[name]] for name in (MEBD, E1_FIXED, E_TILDE) if name in q}
    each = {f"p_{_column_label(cfg.n_sites, c)}": at[c] for c in splits if PER_PARTITION in q}
    records = []
    for chunk, table in rows(cfg.grid(), cols, None if PER_PARTITION in q else 1):
        values = np.column_stack([table[:, j].min(axis=1) for j in picks.values()]
                                 + [table[:, [*each.values()]]])
        records += [SweepRecord(tau, dict(zip([*picks, *each], row)))
                    for tau, row in zip(chunk.tolist(), values.tolist())]
    return records


def first_maximum(cfg: SweepConfig, quantity: str = MEBD,
                  min_value: float = 0.5) -> MaximumReport:
    """find_first_maximum's grid point, refined on the real curve in rounds of SEARCH_BATCH tau.

    The grid is scanned SEARCH_BATCH points at a time up to the batch holding the first
    qualifying maximum.  Rounds keep the maximum in [b - h, b + h], from the grid point b
    and h = step: each divides h by SEARCH_BATCH / 2 + 1, evaluates b + h * (+-1 ..
    +-SEARCH_BATCH / 2) together and moves b to the best point if strictly higher,
    until 2h <= REFINE_TOL.  A kink comes out exact; at a smooth maximum rounding fixes
    tau* only to about sqrt(ulp / curvature), ~3e-8 at curvature 0.14.  Each quantity is a
    minimum over its columns (_sweep_evaluator), so the rounds search R >= the curve, the
    minimum over candidates: the CANDIDATE_SPLITS lowest columns at each grid point of the
    cell, in the scan's rows, which the kernel's screen computes exactly up to those lowest
    values.  The rows at b - h, b, b + h, exact up to their minimum, certify b: if b's has
    its minimum at a candidate, curve(b) = R(b) >= max R >= max curve; else that column
    joins the candidates and the search reruns.  Those rows' minimising columns are the
    report's splits, and the grid point stays if nothing is higher.  Only quantity, in cfg
    and not per_partition, is read; it and min_value are checked before the eigensolve.
    """
    if quantity not in cfg.quantities or quantity == PER_PARTITION:  # before the eigensolve
        raise ValueError(f"quantity {quantity!r} is not in the series")
    if math.isnan(min_value):
        raise ValueError("min_value must not be NaN")
    rows, reads = _sweep_evaluator(cfg)
    cols, half = reads[quantity], SEARCH_BATCH // 2
    taus, seen = cfg.grid(), np.empty((0, len(cols)))

    def table(x: np.ndarray, cols: list[tuple[int, int]], lowest=None) -> np.ndarray:
        return np.concatenate([t for _, t in rows(x, cols, lowest)])  # every call's rows
    for lo in range(0, len(taus), SEARCH_BATCH):  # the last two points are still open
        kept = taus[max(0, lo - 2):lo + SEARCH_BATCH].tolist()
        batch = table(taus[lo:lo + SEARCH_BATCH], cols, CANDIDATE_SPLITS)
        seen = np.concatenate([seen[-2:], batch])
        series = [SweepRecord(t, {quantity: v}) for t, v in zip(kept, seen.min(axis=1).tolist())]
        try:
            grid = find_first_maximum(series, quantity, min_value)
            break
        except NoMaximumFound:
            if lo + SEARCH_BATCH >= len(taus):
                raise
    i = kept.index(grid.tau_star)  # the cell's full rows are the scan's own
    cand = sorted(set(np.argsort(seen[i - 1:i + 2], kind="stable")[:, :CANDIDATE_SPLITS].flat))
    b, fb, h = grid.tau_star, grid.value, cfg.tau_step
    while True:  # the maximum of R lies in [b - h, b + h], and R(b) = fb is the highest seen
        while 2 * h > REFINE_TOL:
            h /= half + 1
            x = b + h * np.r_[-half:0, 1:half + 1]
            fx = table(x, [cols[j] for j in cand]).min(axis=1)
            if fx.max() > fb:
                b, fb = x[fx.argmax()], fx.max()
        final = table(b + h * np.r_[-1:2], cols, 1)  # the certificate: rows at b - h, b, b + h
        low = final == final.min(axis=1, keepdims=True)
        if low[1, cand].any():
            break
        cand = sorted(cand + [int(final[1].argmin())])
        b, fb, h = grid.tau_star, grid.value, cfg.tau_step
    splits = tuple(_column_label(cfg.n_sites, c) for c, hit in zip(cols, low.any(axis=0)) if hit)
    return MaximumReport(float(b), float(fb), "exact", splits) if fb > grid.value else grid


def find_first_maximum(series: list[SweepRecord], quantity: str = MEBD,
                       min_value: float = 0.5) -> MaximumReport:
    """First interior grid point >= both neighbours and >= min_value.

    The series must be uniform in tau, so that the point's neighbours bracket
    the maximum first_maximum refines; min_value filters the small ripples
    near tau = 0 (-inf filters nothing).
    """
    if math.isnan(min_value):
        raise ValueError("min_value must not be NaN")
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
            return MaximumReport(tau_star=taus[i], value=vals[i], kind="grid-point")
    raise NoMaximumFound(f"no local maximum of {quantity} above {min_value}")


def sanity_tau_bound(report: MaximumReport) -> bool:
    """True iff the maximum occurs before the dimensionless transfer bound pi."""
    return report.tau_star < math.pi
