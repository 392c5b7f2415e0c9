"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The chain sweeps for N=6 and especially N=8 dominate the runtime (a few
minutes single-threaded); they are computed once per session and shared.
"""

import math

import numpy as np
import pytest

from mebd import dynamics
from mebd.dynamics import MEBD, E1_FIXED, E_TILDE, SweepConfig
from mebd.entanglement import (
    double_negativity,
    enumerate_bipartitions,
    lower_estimate_level,
    max_level,
    mebd,
    pairwise_negativity,
    single_node_witness,
)
from mebd.hilbert import (
    Bipartition,
    SiteSet,
    excitation_sector,
)
from conftest import (
    bell_state,
    dense_negativity,
    evolve_full,
    full_hdz,
    ghz_state,
    iz_commutator,
    pure_density,
    random_pure_state,
    random_sector_state,
    w_state,
)

REFERENCE_ROWS = {
    3: ("010", 1.505, 0.943),
    4: ("1001", 1.819, 1.000),
    6: ("100110", 2.110, 0.992),
    8: ("10011001", 2.193, 0.988),
}
TABLE_TOL = 0.01

_sweep_cache = {}
_report_cache = {}


def chain_sweep(n):
    """Full-witness sweep over [0, 3] at step 0.01 for the canonical chain."""
    if n not in _sweep_cache:
        init = REFERENCE_ROWS[n][0]
        cfg = SweepConfig(n_sites=n, initial_label=init, tau_start=0.0,
                          tau_end=3.0, tau_step=0.01,
                          quantities=(MEBD, E1_FIXED, E_TILDE))
        _sweep_cache[n] = dynamics.run_sweep(cfg)
    return _sweep_cache[n]


def first_maximum(n):
    if n not in _report_cache:
        _report_cache[n] = dynamics.find_first_maximum(chain_sweep(n), MEBD)
    return _report_cache[n]


def evolve(n, label, tau):
    (psi,) = evolve_full(n, label, [tau])
    return np.outer(psi, psi.conj())


def split(n, sites_a):
    a = SiteSet.from_sites(n, sites_a)
    return Bipartition(a, a.complement())


def report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {desc}: {tag}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def test_criterion_1_reference_maxima_reproduced():
    details = []
    ok = True
    for n, (_, tau_ref, e_ref) in REFERENCE_ROWS.items():
        rep = first_maximum(n)
        d_tau = abs(rep.tau_star - tau_ref)
        d_e = abs(rep.value - e_ref)
        details.append(f"N={n}: tau*={rep.tau_star:.3f} E={rep.value:.3f}")
        ok = ok and d_tau <= TABLE_TOL and d_e <= TABLE_TOL
    report(1, "reference maxima within 0.01 (all-pairs profile)", ok,
           "; ".join(details))


def test_criterion_2_tau_below_pi():
    ok = all(dynamics.sanity_tau_bound(first_maximum(n)) for n in REFERENCE_ROWS)
    report(2, "all four maxima occur before tau = pi", ok)


def test_criterion_3_hierarchy_of_negativities():
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(100):
        rho = pure_density(random_pure_state(rng, 16))
        for a1 in range(1, 5):
            others = [s for s in range(1, 5) if s != a1]
            full = double_negativity(rho, split(4, [a1]))
            for drop in others:
                pair = [s for s in others if s != drop]
                parts3 = [SiteSet.from_sites(4, [a1]),
                          SiteSet.from_sites(4, pair),
                          SiteSet.from_sites(4, [drop])]
                mid = pairwise_negativity(rho, parts3, 0, 1)
                if mid > full + 1e-9:
                    violations += 1
                for a2 in pair:
                    rest = [s for s in range(1, 5) if s not in (a1, a2)]
                    parts = [SiteSet.from_sites(4, [a1]),
                             SiteSet.from_sites(4, [a2]),
                             SiteSet.from_sites(4, rest)]
                    if pairwise_negativity(rho, parts, 0, 1) > mid + 1e-9:
                        violations += 1

    # the six stated inequalities on the evolved 4-chain at its first maximum
    tau4 = first_maximum(4).tau_star
    rho4 = evolve(4, "1001", tau4)
    singles = [SiteSet.from_sites(4, [i]) for i in (1, 2, 3, 4)]
    n12 = pairwise_negativity(rho4, singles, 0, 1)
    n34 = pairwise_negativity(rho4, singles, 2, 3)
    pairs_1324 = [SiteSet.from_sites(4, [1, 3]), SiteSet.from_sites(4, [2, 4])]
    pairs_1423 = [SiteSet.from_sites(4, [1, 4]), SiteSet.from_sites(4, [2, 3])]
    stated = [
        (double_negativity(rho4, split(4, [1])), n12),
        (double_negativity(rho4, split(4, [2])), n12),
        (double_negativity(rho4, split(4, [3])), n34),
        (double_negativity(rho4, split(4, [4])), n34),
        (pairwise_negativity(rho4, pairs_1324, 0, 1), n12),
        (pairwise_negativity(rho4, pairs_1423, 0, 1), n12),
    ]
    violations += sum(1 for big, small in stated if big < small - 1e-9)
    report(3, "hierarchy of double negativities (100 random states + evolved chain)",
           violations == 0, f"violations={violations}")


def test_criterion_4_estimator_ordering():
    bad_pointwise = 0
    for n in (4, 6, 8):
        for rec in chain_sweep(n):
            if rec.values[E1_FIXED] > rec.values[MEBD] + 1e-9:
                bad_pointwise += 1

    rng = np.random.default_rng(11)
    bad_chain = 0
    for _ in range(50):
        rho = pure_density(random_pure_state(rng, 16))
        e = mebd(rho).value
        e1 = lower_estimate_level(rho, 1)
        e2 = lower_estimate_level(rho, 2)
        if not (e2 <= e1 + 1e-9 and e1 <= e + 1e-9):
            bad_chain += 1
    report(4, "fixed-split estimate <= MEBD pointwise; E2 <= E1 <= E on random states",
           bad_pointwise == 0 and bad_chain == 0,
           f"pointwise violations={bad_pointwise}, chain violations={bad_chain}")


def test_criterion_5_witness_ordering():
    bad = 0
    gaps = {}
    for n in REFERENCE_ROWS:
        gap = 0.0
        for rec in chain_sweep(n):
            if rec.values[MEBD] > rec.values[E_TILDE] + 1e-9:
                bad += 1
            gap = max(gap, rec.values[E_TILDE] - rec.values[MEBD])
        gaps[n] = gap
    detail = ", ".join(f"N={n} max gap {g:.4f}" for n, g in gaps.items())
    report(5, "MEBD <= single-node witness pointwise on all sweeps", bad == 0, detail)


def test_criterion_6_conservation():
    worst_trace = worst_purity = worst_leak = worst_comm = 0.0
    for n, (label, _, _) in REFERENCE_ROWS.items():
        worst_comm = max(worst_comm, iz_commutator(full_hdz(n)))
        sector = set(excitation_sector(n, label.count("1")))
        outside = [i for i in range(1 << n) if i not in sector]
        for psi in evolve_full(n, label, np.arange(0.0, 3.01, 0.05)):
            rho = np.outer(psi, psi.conj())
            worst_trace = max(worst_trace, abs(np.trace(rho).real - 1.0))
            worst_purity = max(worst_purity, abs(np.trace(rho @ rho).real - 1.0))
            if outside:
                worst_leak = max(worst_leak, float(np.abs(rho[outside, :]).max()))
    ok = (worst_trace < 1e-10 and worst_purity < 1e-9
          and worst_leak < 1e-10 and worst_comm < 1e-12)
    report(6, "trace, purity, sector support, I_z commutation conserved", ok,
           f"trace={worst_trace:.1e} purity={worst_purity:.1e} "
           f"leak={worst_leak:.1e} comm={worst_comm:.1e}")


def test_criterion_7_oracle_equivalence(one_block_solves):
    rng = np.random.default_rng(13)
    worst_blocked = 0.0
    for trial in range(50):
        n = (4, 5, 6)[trial % 3]
        k = rng.integers(1, n)
        rho = pure_density(random_sector_state(rng, n, int(k)))
        for p in enumerate_bipartitions(n):
            dense = dense_negativity(rho, p)
            worst_blocked = max(worst_blocked, abs(double_negativity(rho, p) - dense))

    # Sector states must be solved block by block, never by the one-block plan.
    rho7 = evolve(7, "1001100", 1.3)
    mebd(rho7)
    for level in range(1, max_level(7) + 1):
        lower_estimate_level(rho7, level)
    fallback_free = not one_block_solves

    worst_taylor = 0.0
    for n, label in ((2, "10"), (3, "010"), (3, "110")):
        h = full_hdz(n)
        rho0 = pure_density(label)
        for tau in (0.5, 1.0, 2.0):
            series = np.zeros_like(h, dtype=np.complex128)
            term = np.eye(h.shape[0], dtype=np.complex128)
            for kk in range(60):
                series += term
                term = term @ (-1j * h * tau) / (kk + 1)
            expected = series @ rho0 @ series.conj().T
            got = evolve(n, label, tau)
            worst_taylor = max(worst_taylor, float(np.abs(got - expected).max()))
    ok = worst_blocked < 1e-9 and fallback_free and worst_taylor < 1e-8
    report(7, "blocked eigensolve matches dense, no dense fallback on sector states; "
              "evolution matches Taylor series",
           ok, f"blocked dev={worst_blocked:.1e}, fallback-free={fallback_free}, "
               f"taylor dev={worst_taylor:.1e}")


def test_criterion_8_partition_combinatorics():
    ok = all(len(enumerate_bipartitions(n)) == 2 ** (n - 1) - 1
             for n in range(2, 11))
    fam3 = {frozenset((p.part_a.sites(), p.part_b.sites()))
            for p in enumerate_bipartitions(3)}
    ok = ok and fam3 == {frozenset(((1,), (2, 3))),
                         frozenset(((1, 3), (2,))),
                         frozenset(((1, 2), (3,)))}
    fam4 = {frozenset((p.part_a.sites(), p.part_b.sites()))
            for p in enumerate_bipartitions(4)}
    ok = ok and fam4 == {frozenset(((1,), (2, 3, 4))),
                         frozenset(((1, 3, 4), (2,))),
                         frozenset(((1, 2, 4), (3,))),
                         frozenset(((1, 2, 3), (4,))),
                         frozenset(((1, 2), (3, 4))),
                         frozenset(((1, 3), (2, 4))),
                         frozenset(((1, 4), (2, 3)))}
    report(8, "partition families: counts for N=2..10 and explicit N=3,4 lists", ok)


def test_criterion_9_known_state_values():
    checks = {
        "bell": abs(double_negativity(pure_density(bell_state()), split(2, [1])) - 1.0),
        "ghz3": abs(mebd(pure_density(ghz_state(3))).value - 1.0),
        "ghz4": abs(mebd(pure_density(ghz_state(4))).value - 1.0),
        "ghz3-pair": pairwise_negativity(
            pure_density(ghz_state(3)),
            [SiteSet.from_sites(3, [i]) for i in (1, 2, 3)], 0, 1),
        "w-single": abs(single_node_witness(pure_density(w_state(3)))
                        - 2 * math.sqrt(2) / 3),
    }
    ok = all(v < 1e-9 for v in checks.values())
    report(9, "known-state values (Bell, GHZ, W)", ok,
           ", ".join(f"{k} dev={v:.1e}" for k, v in checks.items()))
