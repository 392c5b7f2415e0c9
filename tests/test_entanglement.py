import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mebd import dynamics, entanglement, linalg
from mebd.entanglement import (
    double_negativity,
    enumerate_bipartitions,
    lower_estimate_1,
    lower_estimate_level,
    lower_estimates,
    max_level,
    mebd,
    pairwise_negativity,
    pure_double_negativity,
    single_node_witness,
)
from mebd.hilbert import (
    Bipartition,
    SiteSet,
    n_sites_of,
    partial_trace,
    partial_transpose,
)

from conftest import (
    bell_state,
    dense_negativity,
    ghz_state,
    pure_density,
    random_pure_state,
    random_sector_state,
    w_state,
)


def split(n, sites_a):
    a = SiteSet.from_sites(n, sites_a)
    return Bipartition(a, a.complement())


class TestEnumerateBipartitions:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_count(self, n):
        assert len(enumerate_bipartitions(n)) == 2 ** (n - 1) - 1

    def test_three_site_family(self):
        got = {frozenset((p.part_a.sites(), p.part_b.sites())) for p in enumerate_bipartitions(3)}
        expected = {
            frozenset(((1,), (2, 3))),
            frozenset(((1, 3), (2,))),
            frozenset(((1, 2), (3,))),
        }
        assert got == expected

    def test_four_site_family(self):
        got = {frozenset((p.part_a.sites(), p.part_b.sites())) for p in enumerate_bipartitions(4)}
        expected = {
            frozenset(((1,), (2, 3, 4))),
            frozenset(((1, 3, 4), (2,))),
            frozenset(((1, 2, 4), (3,))),
            frozenset(((1, 2, 3), (4,))),
            frozenset(((1, 2), (3, 4))),
            frozenset(((1, 3), (2, 4))),
            frozenset(((1, 4), (2, 3))),
        }
        assert got == expected

    def test_canonical_site_one_in_a(self):
        for p in enumerate_bipartitions(5):
            assert 1 in p.part_a.sites()

    def test_bad_size(self):
        with pytest.raises(ValueError, match=r"n_sites must be 2\.\.12"):
            enumerate_bipartitions(1)


class TestDoubleNegativity:
    def test_bell_pair(self):
        rho = pure_density(bell_state())
        assert abs(double_negativity(rho, split(2, [1])) - 1.0) < 1e-9

    def test_product_state(self):
        assert double_negativity(pure_density("0101"), split(4, [1, 3])) < 1e-10

    def test_w_state_single_vs_rest(self):
        rho = pure_density(w_state(3))
        expected = 2 * math.sqrt(2) / 3
        assert abs(double_negativity(rho, split(3, [1])) - expected) < 1e-9

    def test_a_b_symmetry(self, rng):
        rho = pure_density(random_pure_state(rng, 16))
        for sites in ([1], [1, 3], [2, 4], [1, 2, 3]):
            p = split(4, sites)
            assert abs(double_negativity(rho, p)
                       - double_negativity(rho, Bipartition(p.part_b, p.part_a))) < 1e-9

    def test_methods_agree(self, rng):
        # Blocked eigensolve against the dense partial-transpose oracle.
        rho = pure_density(random_sector_state(rng, 4, 2))
        for p in enumerate_bipartitions(4):
            dense = dense_negativity(rho, p)
            assert abs(double_negativity(rho, p) - dense) < 1e-9

    def test_split_on_other_register_rejected(self):
        # A 2-site split of a 3-site state must not be read as a split of sites 1..2.
        rho = pure_density(ghz_state(3))
        for call in (double_negativity, lower_estimate_1):
            with pytest.raises(ValueError, match=r"rho dimension 8 != 2\^2"):
                call(rho, split(2, [1]))

    def test_blocked_refuses_generic_state(self, rng, monkeypatch):
        # A state that does not conserve I_z has no block structure: the
        # dense path must run.  The blocked path is taken on exact zeros only,
        # so a sector state with a 1e-14 pair between excitation numbers is
        # generic too.
        calls = []
        dense = linalg.negative_sum

        def counted(m):
            calls.append(m)
            return dense(m)

        monkeypatch.setattr(linalg, "negative_sum", counted)
        generic = pure_density(random_pure_state(rng, 8))
        leaky = pure_density(random_sector_state(rng, 5, 2))
        leaky[3, 7] += 1e-14  # |00011> and |00111>: 2 and 3 excitations
        leaky[7, 3] += 1e-14
        for rho, p in ((generic, split(3, [1])), (leaky, split(5, [1, 4]))):
            calls.clear()
            value = double_negativity(rho, p)
            assert calls
            assert value == dense(partial_transpose(rho, p.part_a))

    def test_sector_states_skip_dense_fallback(self, rng, monkeypatch):
        def dense_fallback(m):
            raise AssertionError("sector state reached the dense fallback")

        monkeypatch.setattr(linalg, "negative_sum", dense_fallback)
        rho = pure_density(random_sector_state(rng, 5, 2))
        mebd(rho)
        single_node_witness(rho)
        lower_estimate_level(rho, max_level(5))


class TestPairwiseNegativity:
    def test_degenerate_two_parts(self):
        rho = pure_density(bell_state())
        parts = [SiteSet.from_sites(2, [1]), SiteSet.from_sites(2, [2])]
        assert abs(pairwise_negativity(rho, parts, 0, 1)
                   - double_negativity(rho, split(2, [1]))) < 1e-12

    def test_ghz3_reduced_pair_is_separable(self):
        rho = pure_density(ghz_state(3))
        parts = [SiteSet.from_sites(3, [i]) for i in (1, 2, 3)]
        assert pairwise_negativity(rho, parts, 0, 1) < 1e-9

    def test_bell_times_spectator(self):
        psi = np.kron(bell_state(), np.array([1.0, 0.0]))
        rho = pure_density(psi)
        parts = [SiteSet.from_sites(3, [i]) for i in (1, 2, 3)]
        assert abs(pairwise_negativity(rho, parts, 0, 1) - 1.0) < 1e-9

    def test_rejects_bad_partition(self):
        rho = pure_density(ghz_state(3))
        overlapping = [SiteSet.from_sites(3, [1, 2]), SiteSet.from_sites(3, [2, 3])]
        with pytest.raises(ValueError, match="parts overlap"):
            pairwise_negativity(rho, overlapping, 0, 1)
        with pytest.raises(ValueError, match="must differ"):
            pairwise_negativity(rho, [SiteSet.from_sites(3, [1])], 0, 0)
        singles = [SiteSet.from_sites(3, [i]) for i in (1, 2, 3)]
        for i, j, bad in [(0, 5, 5), (0, -1, -1), (-3, 0, -3), (3, 0, 3), (0.0, 1, 0.0),
                          (False, 1, False), (0, True, True)]:
            with pytest.raises(ValueError, match=rf"part index must be 0\.\.2, got {bad}$"):
                pairwise_negativity(rho, singles, i, j)


class TestMebd:
    def test_product_basis_state(self):
        assert mebd(pure_density("10")).value < 1e-10

    def test_ghz4(self):
        res = mebd(pure_density(ghz_state(4)))
        assert abs(res.value - 1.0) < 1e-9
        assert all(abs(v - 1.0) < 1e-9 for v in res.per_partition.values())

    def test_value_is_min_of_per_partition(self, rng):
        res = mebd(pure_density(random_pure_state(rng, 16)))
        assert res.value == min(res.per_partition.values())
        assert res.per_partition[res.argmin] == res.value


class TestSingleNodeWitness:
    def test_product(self):
        assert single_node_witness(pure_density("010")) < 1e-10

    def test_ghz3(self):
        assert abs(single_node_witness(pure_density(ghz_state(3))) - 1.0) < 1e-9

    def test_upper_bounds_mebd(self, rng):
        for _ in range(10):
            rho = pure_density(random_pure_state(rng, 16))
            res = mebd(rho)
            tilde = single_node_witness(rho)
            assert res.value <= tilde + 1e-9
            assert tilde <= max(res.per_partition.values()) + 1e-9


class TestLowerEstimate1:
    def test_product_state(self):
        assert lower_estimate_1(pure_density("0000"), split(4, [1, 2])) < 1e-10

    def test_bell_times_bell_no_cross(self):
        psi = np.kron(bell_state(), bell_state())
        rho = pure_density(psi)
        assert lower_estimate_1(rho, split(4, [1, 2])) < 1e-9

    def test_single_site_part_uses_cross_only(self):
        rho = pure_density(ghz_state(3))
        # part {1} has no internal decomposition; min over cross and E({2,3})
        val = lower_estimate_1(rho, split(3, [1]))
        assert val <= double_negativity(rho, split(3, [1])) + 1e-12

    def test_below_mebd(self, rng):
        for _ in range(10):
            rho = pure_density(random_pure_state(rng, 16))
            e = mebd(rho).value
            for p in enumerate_bipartitions(4):
                assert lower_estimate_1(rho, p) <= e + 1e-9


class TestLowerEstimateLevel:
    def test_level_one_equals_max_over_fixed_splits(self, rng):
        rho = pure_density(random_pure_state(rng, 8))
        expected = max(lower_estimate_1(rho, p)
                       for p in enumerate_bipartitions(3))
        assert abs(lower_estimate_level(rho, 1) - expected) < 1e-12

    def test_ghz4_level_one_bounded(self):
        rho = pure_density(ghz_state(4))
        assert lower_estimate_level(rho, 1) <= mebd(rho).value + 1e-9

    def test_hierarchy_chain(self, rng):
        for _ in range(10):
            rho = pure_density(random_pure_state(rng, 16))
            e = mebd(rho).value
            e1 = lower_estimate_level(rho, 1)
            e2 = lower_estimate_level(rho, 2)
            assert e2 <= e1 + 1e-9
            assert e1 <= e + 1e-9

    def test_bad_level(self, rng):
        rho = pure_density(random_pure_state(rng, 8))
        with pytest.raises(ValueError, match="level must be 1"):
            lower_estimate_level(rho, 0)
        with pytest.raises(ValueError, match="level must be 1"):
            lower_estimate_level(rho, max_level(3) + 1)
        # 1.5 lies inside 1..max_level(4) but is not a level.
        rho4 = pure_density(random_pure_state(rng, 16))
        with pytest.raises(ValueError, match="level must be 1"):
            lower_estimate_level(rho4, 1.5)
        # True == 1, but a bool is not a level.
        with pytest.raises(ValueError, match="level must be 1"):
            lower_estimate_level(rho4, True)

    def test_single_site_register(self):
        with pytest.raises(ValueError, match="need at least 2 sites"):
            lower_estimate_level(np.eye(2) / 2, 1)
        with pytest.raises(ValueError, match="need at least 2 sites"):
            lower_estimates(np.eye(2) / 2)

    def test_each_reduced_state_and_split_computed_once(self, monkeypatch):
        # N=7: 120 reduced states with two or more sites, 966 splits among them.
        (psi,) = dynamics.evolve(7, "1001100", [1.3])
        rho = np.outer(psi, psi.conj())
        counts = {"partial_trace": 0, "partial_transpose": 0}

        def counted(name):
            fn = getattr(entanglement, name)

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        for name in counts:
            monkeypatch.setattr(entanglement, name, counted(name))
        # Each level call builds the table anew; one lower_estimates call
        # builds it once for the whole ladder.
        calls = [functools.partial(lower_estimate_level, rho, k) for k in range(1, max_level(7) + 1)]
        for call in calls + [functools.partial(lower_estimates, rho)]:
            counts.update(partial_trace=0, partial_transpose=0)
            call()
            assert counts == {"partial_trace": 120, "partial_transpose": 966}


def _bad_state(kind):
    # A sector state spoiled inside its I_z block, where the blocked
    # eigensolve cannot see it.
    rho = pure_density("0110")
    if kind == "non_hermitian":
        rho[5, 6] += 0.3
    else:
        rho[5, 6] = np.nan
    return rho


@pytest.mark.parametrize("kind", ["non_hermitian", "nan"])
@pytest.mark.parametrize("call", [
    lambda rho: double_negativity(rho, split(4, [1, 2])),
    mebd,
    single_node_witness,
    lambda rho: pairwise_negativity(
        rho, [SiteSet.from_sites(4, [1, 2]), SiteSet.from_sites(4, [3, 4])], 0, 1),
    lambda rho: lower_estimate_1(rho, split(4, [1, 2])),
    lambda rho: lower_estimate_level(rho, 1),
    lower_estimates,
], ids=["double_negativity", "mebd", "single_node_witness", "pairwise_negativity",
        "lower_estimate_1", "lower_estimate_level", "lower_estimates"])
def test_bad_density_matrix_rejected(call, kind):
    with pytest.raises(ValueError, match={"non_hermitian": "exceeds", "nan": "NaN/Inf"}[kind]):
        call(_bad_state(kind))


class TestHierarchyOfNegativities:
    def test_nested_groupings_on_random_states(self, rng):
        # N_{a1, rest} >= N_{a1,{a2,a3}} >= N_{a1,a2} with inner terms on
        # reduced density matrices.
        for _ in range(20):
            rho = pure_density(random_pure_state(rng, 16))
            for a1 in range(1, 5):
                others = [s for s in range(1, 5) if s != a1]
                full = double_negativity(rho, split(4, [a1]))
                for drop in others:
                    pair_sites = [s for s in others if s != drop]
                    parts3 = [SiteSet.from_sites(4, [a1]),
                              SiteSet.from_sites(4, pair_sites),
                              SiteSet.from_sites(4, [drop])]
                    mid = pairwise_negativity(rho, parts3, 0, 1)
                    assert mid <= full + 1e-9
                    for a2 in pair_sites:
                        rest = [s for s in range(1, 5) if s not in (a1, a2)]
                        parts = [SiteSet.from_sites(4, [a1]),
                                 SiteSet.from_sites(4, [a2]),
                                 SiteSet.from_sites(4, rest)]
                        inner = pairwise_negativity(rho, parts, 0, 1)
                        assert inner <= mid + 1e-9


@st.composite
def sector_cases(draw):
    """A sector state on N=2..7 sites, an optional keep-set, any split of what is kept,
    and any split of the whole register."""
    n = draw(st.integers(2, 7))
    k = draw(st.integers(0, n))
    seed = draw(st.integers(0, 2**32 - 1))
    full = (1 << n) - 1
    keep = full if n == 2 or draw(st.booleans()) else draw(
        st.sampled_from([m for m in range(1, full) if bin(m).count("1") >= 2]))
    kept = bin(keep).count("1")
    mask_a = draw(st.integers(1, (1 << kept) - 2))
    mask_full = draw(st.integers(1, full - 1))
    return n, k, seed, keep, mask_a, mask_full


def random_product_state(rng, n):
    psi = np.ones(1)
    for _ in range(n):
        psi = np.kron(psi, random_pure_state(rng, 2))
    return psi


@settings(derandomize=True, max_examples=200, deadline=None)
@given(sector_cases())
def test_fast_path_matches_dense_oracle(case):
    n, k, seed, keep, mask_a, mask_full = case
    rng = np.random.default_rng(seed)
    psi = random_sector_state(rng, n, k)
    rho = partial_trace(pure_density(psi), SiteSet(n, keep))
    p = Bipartition.from_masks(SiteSet(n, keep).size(), mask_a)
    value = double_negativity(rho, p)
    assert abs(value - dense_negativity(rho, p)) < 1e-9

    # Pure states: the Schmidt kernel on a stack (sector, generic, product)
    # against the dense partial-transpose oracle of each state.
    p = Bipartition.from_masks(n, mask_full)
    stack = np.array([psi, random_pure_state(rng, 1 << n), random_product_state(rng, n)])
    values = pure_double_negativity(stack, p)
    for state, got in zip(stack[:2], values):
        dense = dense_negativity(pure_density(state), p)
        assert abs(got - dense) < 1e-9
    assert values[2] == 0.0


def _sub_bipartitions(sites):
    """Canonical splits of a site tuple: the first site in a, both halves nonempty."""
    first, rest = sites[0], sites[1:]
    for mask in range(1 << len(rest)):
        a = (first,) + tuple(s for k, s in enumerate(rest) if mask >> k & 1)
        b = tuple(s for k, s in enumerate(rest) if not mask >> k & 1)
        if b:
            yield a, b


def reference_ladder(rho):
    """E^(k), k = 1..max_level(N), straight from the recursion's definition.

    Each cross negativity comes from pairwise_negativity and each E^(0) from
    mebd of a partial trace of the full state.
    """
    n = n_sites_of(rho)

    @functools.cache
    def estimate(sites, lev):
        if len(sites) == 1:
            return math.inf
        if lev == 0:
            return mebd(partial_trace(rho, SiteSet.from_sites(n, sites))).value
        val = 0.0
        for sa, sb in _sub_bipartitions(sites):
            parts = [SiteSet.from_sites(n, sa), SiteSet.from_sites(n, sb)]
            rest = SiteSet(n, (1 << n) - 1 - parts[0].mask - parts[1].mask)
            if rest.mask:
                parts.append(rest)
            cross = pairwise_negativity(rho, parts, 0, 1)
            val = max(val, min(estimate(sa, lev - 1), estimate(sb, lev - 1), cross))
        return val

    return [estimate(tuple(range(1, n + 1)), k) for k in range(1, max_level(n) + 1)]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(2, 6), st.booleans(), st.integers(0, 2**32 - 1))
def test_ladder_matches_reference_recursion(n, sector, seed):
    rng = np.random.default_rng(seed)
    if sector:
        psi = random_sector_state(rng, n, int(rng.integers(0, n + 1)))
    else:
        psi = random_pure_state(rng, 1 << n)
    rho = pure_density(psi)
    ladder = [lower_estimate_level(rho, k) for k in range(1, max_level(n) + 1)]
    assert ladder == reference_ladder(rho)
    assert lower_estimates(rho) == ladder
