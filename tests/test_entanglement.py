import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mebd import dynamics, entanglement, linalg
from mebd.entanglement import (
    double_negativity,
    enumerate_bipartitions,
    lower_estimate_level,
    lower_estimates,
    max_level,
    mebd,
    pairwise_negativity,
    pure_double_negativity,
    pure_negativities,
    single_node_witness,
)
from mebd.hilbert import (
    Bipartition,
    SiteSet,
    excitation_sector,
    n_sites_of,
    partial_trace,
    partial_transpose,
)

from conftest import (
    bell_state,
    dense_lower_estimate_1,
    dense_negativity,
    evolve_full,
    ghz_state,
    negative_sum,
    pure_density,
    random_density,
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

    def test_stack_matches_per_state(self, rng):
        # A (T, d, d) stack gives each state's values, blocked or dense as decided
        # once for the whole stack: one state without the sector zeros sends all
        # of them to the dense path.
        masks = [p.part_a.mask for p in enumerate_bipartitions(4)]
        sector = [pure_density(random_sector_state(rng, 4, k)) for k in (1, 2, 2)]
        generic = pure_density(random_pure_state(rng, 16))
        for rhos in (np.array(sector), np.array(sector + [generic])):
            expected = [[dense_negativity(rho, p) for p in enumerate_bipartitions(4)]
                        for rho in rhos]
            got = entanglement._negativities(rhos, masks)
            assert got.shape == (len(rhos), len(masks))
            assert np.max(np.abs(got - expected)) < 1e-12
        got = entanglement._negativities(np.array(sector), masks)
        assert np.array_equal(got, [entanglement._negativities(rho, masks) for rho in sector])

    def test_split_on_other_register_rejected(self):
        # A 2-site split of a 3-site state must not be read as a split of sites 1..2.
        rho = pure_density(ghz_state(3))
        with pytest.raises(ValueError, match=r"rho dimension 8 != 2\^2"):
            double_negativity(rho, split(2, [1]))

    def test_blocked_refuses_generic_state(self, rng, one_block_solves):
        # A state that does not conserve I_z has no block structure: the
        # one-block plan must run.  The blocked plan is taken on exact zeros
        # only, so a sector state with a 1e-14 pair between excitation numbers
        # is generic too.
        calls = one_block_solves
        generic = pure_density(random_pure_state(rng, 8))
        leaky = pure_density(random_sector_state(rng, 5, 2))
        leaky[3, 7] += 1e-14  # |00011> and |00111>: 2 and 3 excitations
        leaky[7, 3] += 1e-14
        for rho, p in ((generic, split(3, [1])), (leaky, split(5, [1, 4]))):
            calls.clear()
            value = double_negativity(rho, p)
            assert calls
            assert value == negative_sum(partial_transpose(rho, p.part_a))

    def test_sector_states_skip_dense_fallback(self, rng, one_block_solves):
        # A sector state, and each of its reduced states, is solved block by block.
        rho = pure_density(random_sector_state(rng, 5, 2))
        mebd(rho)
        single_node_witness(rho)
        lower_estimate_level(rho, max_level(5))
        assert not one_block_solves, "sector state reached the one-block plan"

    def test_generic_stack_one_eigvalsh_for_all_splits(self, rng, one_block_solves):
        # A stack of states that do not conserve I_z is solved as one block per
        # split, all splits of all its states in one eigvalsh call, with the
        # values of the dense oracle, each state on its own.
        rhos = np.array([pure_density(random_pure_state(rng, 16)),
                         random_density(rng, 16, rank=3), random_density(rng, 16)])
        masks = [p.part_a.mask for p in enumerate_bipartitions(4)]
        got = entanglement._negativities(rhos, masks)
        assert one_block_solves == [(3, len(masks), 16, 16)]
        expected = [[negative_sum(partial_transpose(rho, SiteSet(4, mask)))
                     for mask in masks] for rho in rhos]
        assert got.tolist() == expected


@pytest.mark.parametrize("ab", [2e-12, 1.2e-12, 8e-13, 5e-13])
def test_drop_contract_at_its_threshold(ab):
    # a|01> + b|10> (b = 1, normalised to the last bit) has Schmidt values a and b,
    # so rho^{T_A} has the one negative eigenvalue -ab: above ZERO_EIGENVALUE_TOL
    # (1e-12) all three kernels give 2ab, below it exactly 0.0.
    a, b = ab, 1.0
    psi = np.array([0.0, a, b, 0.0])
    got = [pure_negativities([[a, b]], 2, 1, [1])[0, 0],
           pure_negativities([[a, b]], 2, 1, [1], lowest=1)[0, 0],
           pure_double_negativity(psi[None], split(2, [1]))[0],
           double_negativity(pure_density(psi), split(2, [1]))]
    if ab > linalg.ZERO_EIGENVALUE_TOL:
        assert got == [pytest.approx(2 * a * b, rel=1e-12)] * 4
    else:
        assert got == [0.0] * 4


def _product_state(rng, n):
    """A generic pure state that is a product across every split."""
    psi = np.ones(1)
    for _ in range(n):
        psi = np.kron(psi, random_pure_state(rng, 2))
    return pure_density(psi)


@pytest.mark.parametrize("n", range(2, 7))
@settings(derandomize=True, max_examples=12, deadline=None)
@given(st.data())
def test_kernel_matches_dense_oracle(n, data):
    # Every mask of n sites on a random stack, sector (mixtures of sector
    # states), generic, or the reduced states of one larger sector state,
    # with a product state in it, against the dense oracle per (state,
    # split).  The gather bound at 0 leaves one state's d^2 entries per
    # eigvalsh call, so the block-size groups of 5 and 6 sites, and every
    # one-block group, span several chunks.
    kind = data.draw(st.sampled_from(["sector", "generic", "reduced"]), label="kind")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    count = data.draw(st.integers(1, 4), label="count")
    d = 1 << n
    if kind == "sector":
        rhos = [sum(w * pure_density(random_sector_state(rng, n, int(rng.integers(n + 1))))
                    for w in rng.dirichlet(np.ones(int(rng.integers(1, 4)))))
                for _ in range(count)]
        rhos.append(pure_density(format(int(rng.integers(d)), f"0{n}b")))  # a basis state
    elif kind == "generic":
        rhos = [random_density(rng, d, rank=int(rng.integers(1, d + 1))) for _ in range(count)]
        rhos.append(_product_state(rng, n))
    else:
        big = n + 2
        rho = pure_density(random_sector_state(rng, big, int(rng.integers(1, big))))
        keeps = rng.choice([s for s in range(1 << big) if s.bit_count() == n], count)
        rhos = [partial_trace(rho, SiteSet(big, int(s))) for s in keeps]
        rhos.append(pure_density(format(int(rng.integers(d)), f"0{n}b")))
    masks = range(1, d - 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entanglement, "_GATHER_ENTRIES", 0)
        got = entanglement._negativities(np.array(rhos), masks)
    expected = [[dense_negativity(rho, Bipartition.from_masks(n, mask)) for mask in masks]
                for rho in rhos]
    assert np.max(np.abs(got - expected)) <= 1e-12
    assert np.all(got[-1] == 0.0)  # the product state, exactly


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


class TestLowerEstimateLevel:
    def test_level_one_equals_max_over_fixed_splits(self, rng):
        rho = pure_density(random_pure_state(rng, 8))
        expected = max(dense_lower_estimate_1(rho, p)
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
        # N=7: 120 reduced states with two or more sites, 966 splits among
        # them.  The states of one size go to the mixed kernel as one stack,
        # 6 calls, which makes one eigvalsh call per block size and gather
        # chunk: 37 (2, 2, 3, 4, 10 and 16 for 2..7 sites).
        (psi,) = evolve_full(7, "1001100", [1.3])
        rho = np.outer(psi, psi.conj())
        counts = {}
        trace, kernel, eigvalsh = (entanglement.partial_trace, entanglement._negativities,
                                   np.linalg.eigvalsh)

        def count(name, k=1):
            counts[name] = counts.get(name, 0) + k

        def counted_kernel(rho_s, masks):
            count("kernel")
            count("splits", len(masks) * rho_s[..., 0, 0].size)
            return kernel(rho_s, masks)

        monkeypatch.setattr(entanglement, "partial_trace",
                            lambda *args: count("partial_trace") or trace(*args))
        monkeypatch.setattr(entanglement, "_negativities", counted_kernel)
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda *args: count("eigvalsh") or eigvalsh(*args))
        # Each level call builds the table anew; one lower_estimates call
        # builds it once for the whole ladder.
        calls = [functools.partial(lower_estimate_level, rho, k) for k in range(1, max_level(7) + 1)]
        for call in calls + [functools.partial(lower_estimates, rho)]:
            counts.clear()
            call()
            assert counts == {"partial_trace": 120, "kernel": 6, "splits": 966, "eigvalsh": 37}


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
    lambda rho: lower_estimate_level(rho, 1),
    lower_estimates,
], ids=["double_negativity", "mebd", "single_node_witness", "pairwise_negativity",
        "lower_estimate_level", "lower_estimates"])
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


def product_across(rng, p, k):
    """A k-excitation state that is a product across the split p, each part on its own sector."""
    a, b = p.part_a.size(), p.part_b.size()
    j = int(rng.integers(max(0, k - b), min(a, k) + 1))
    t = np.kron(random_sector_state(rng, a, j), random_sector_state(rng, b, k - j))
    # Axis i of t is site (A's sites, then B's)[i]; put the axes back in site order.
    order = p.part_a.sites() + p.part_b.sites()
    return t.reshape((2,) * p.n_sites).transpose(np.argsort(order)).reshape(-1)


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 8) for k in range(n + 1)])
def test_sector_blocks_match_dense_oracle(n, k):
    # The sector-block table of every split, from the sector amplitudes alone,
    # against the dense partial-transpose oracle: a random sector state on
    # every split; a state that is a product across one split (each part on its
    # own sector), which gives exactly 0.0 there, on that split and three
    # others; a basis state, 0.0 on every split.  k = 0 and k = N give one
    # 1 x 1 block per split.
    rng = np.random.default_rng([n, k])
    parts = enumerate_bipartitions(n)
    cut = int(rng.integers(len(parts)))
    basis = np.zeros(1 << n, dtype=np.complex128)
    basis[int(rng.choice(excitation_sector(n, k)))] = 1.0
    psis = np.array([random_sector_state(rng, n, k), product_across(rng, parts[cut], k), basis])
    table = pure_negativities(psis[:, excitation_sector(n, k)], n, k,
                              [p.part_a.mask for p in parts])
    assert table.shape == (3, len(parts))
    for state, columns in ((0, range(len(parts))), (1, {cut, *rng.integers(len(parts), size=3)})):
        rho = pure_density(psis[state])
        for j in columns:
            assert abs(table[state, j] - dense_negativity(rho, parts[j])) < 1e-9
    assert table[1, cut] == 0.0
    assert np.all(table[2] == 0.0)


@st.composite
def screen_cases(draw):
    """A stack of sector states on N=2..8 sites, any k: random states, states that are a
    product across one split, basis states, and basis states with an admixture near
    ZERO_EIGENVALUE_TOL."""
    n = draw(st.integers(2, 8), label="n")
    k = draw(st.integers(0, n), label="k")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    parts = enumerate_bipartitions(n)
    sector = excitation_sector(n, k)
    psis = []
    for kind in draw(st.lists(st.sampled_from(["random", "product", "basis", "near"]),
                              min_size=1, max_size=4), label="kinds"):
        psi = np.zeros(1 << n, dtype=np.complex128)
        psi[int(rng.choice(sector))] = 1.0
        if kind == "random":
            psi = random_sector_state(rng, n, k)
        elif kind == "product":
            psi = product_across(rng, parts[int(rng.integers(len(parts)))], k)
        elif kind == "near":  # Schmidt products about eps x 1: near the drop threshold
            eps = draw(st.sampled_from([3e-13, 1e-12, 2e-12, 1e-11, 1e-9]), label="eps")
            psi = psi + eps * random_sector_state(rng, n, k)
            psi /= np.linalg.norm(psi)
        psis.append(psi[sector])
    return n, k, np.array(psis)


def norm_bounds(n, k, amps, masks):
    """_norm_bounds of a stack, from its _schmidt_plan and its norms' Schmidt values."""
    width, norms, blocks, _ = entanglement._schmidt_plan(n, k, tuple(masks))
    s = np.zeros((len(amps), len(masks), width))  # the norms' Schmidt values, 0 elsewhere
    for index, slots in norms:
        s.reshape(len(amps), -1)[:, slots] = np.linalg.norm(amps[:, index], axis=-2)
    return entanglement._norm_bounds(amps, s, blocks), width


@settings(derandomize=True, max_examples=100, deadline=None)
@given(screen_cases())
def test_norm_bound_matches_block_norms(case):
    # The screen's bound is (sum_j ||M_j||_F)^2 - ||psi||^2 less its slack.  The
    # block norms a second way: the full-basis Schmidt matrix of each split, its
    # rows (A's configurations) grouped by their excitations j, one Frobenius
    # norm per group.  The slack is the one pure_negativities derives.
    n, k, amps = case
    masks = [p.part_a.mask for p in enumerate_bipartitions(n)]
    bound, width = norm_bounds(n, k, amps, masks)
    psis = np.zeros((len(amps), 1 << n), dtype=np.complex128)
    psis[:, excitation_sector(n, k)] = amps
    n2 = np.sum(np.abs(amps) ** 2, axis=1)
    slack = (width * (width - 1) * linalg.ZERO_EIGENVALUE_TOL
             + amps.shape[1] * width * (3 * width + 4) * np.finfo(float).eps * n2)
    for j, mask in enumerate(masks):
        m = psis[:, entanglement._schmidt_index(n, mask)]
        excited = np.array([r.bit_count() for r in range(m.shape[1])])
        total = sum(np.linalg.norm(m[:, excited == e], axis=(1, 2)) for e in set(excited))
        assert np.all(np.abs(bound[:, j] + slack - (total ** 2 - n2)) <= 1e-12)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(screen_cases())
def test_screen_keeps_the_lowest_values(case):
    # The block-norm bound, less its slack, never exceeds a split's value: the
    # Schmidt kernel's for every split, the dense oracle's for a few.  A screened
    # row is == to the full row at its `lowest` lowest values and every value
    # tied with them, and +inf or == elsewhere; a skipped entry lies above them.
    # Product states give exactly 0.0.
    n, k, amps = case
    masks = [p.part_a.mask for p in enumerate_bipartitions(n)]
    full = pure_negativities(amps, n, k, masks)
    bound, _ = norm_bounds(n, k, amps, masks)
    assert np.all(bound <= full)
    rng = np.random.default_rng(len(masks))
    for state, psi in enumerate(amps):
        rho = np.zeros(1 << n, dtype=np.complex128)
        rho[excitation_sector(n, k)] = psi
        rho = pure_density(rho)
        for j in rng.choice(len(masks), size=min(3, len(masks)), replace=False):
            assert bound[state, j] <= dense_negativity(rho, Bipartition.from_masks(n, masks[j]))
    for lowest in (1, 2, 4):
        got = pure_negativities(amps, n, k, masks, lowest=lowest)
        kth = np.sort(full, axis=1)[:, min(lowest, len(masks)) - 1, None]
        assert np.all((got == full) | (got == np.inf))
        assert np.array_equal(got[full <= kth], full[full <= kth])
        assert np.all(full[got == np.inf] > np.broadcast_to(kth, full.shape)[got == np.inf])
        basis = np.count_nonzero(amps, axis=1) == 1
        assert np.all(got[basis] == 0.0)


@pytest.mark.parametrize("dtype", [int, np.float64, np.float32, np.complex64])
def test_screen_takes_any_numeric_dtype(dtype):
    # Integer, real and single-precision stacks run in complex128, the precision the
    # screen's slack is derived for: no error, and each row's minimum is == to the full
    # table of the complex128 cast.
    rng = np.random.default_rng(6)
    amps = (rng.normal(size=(3, 20)) * 4).astype(dtype)
    if np.dtype(dtype).kind == "c":
        amps += 1j * rng.normal(size=(3, 20)).astype(dtype)
    masks = range(1, 63, 2)
    got = pure_negativities(amps, 6, 3, masks, lowest=1)
    full = pure_negativities(amps.astype(np.complex128), 6, 3, masks)
    assert np.array_equal(got.min(axis=1), full.min(axis=1))


@pytest.mark.parametrize("label, lowest, bound_passes", [("1001", 1, 1), ("1001", 2, 0),
                                                          ("100110", 1, 1)])
def test_screen_runs_only_where_it_can_skip(monkeypatch, label, lowest, bound_passes):
    # table1's N=4 row has 3 splits with a block of two or more columns, so the screen could
    # skip 3: one bound pass for the lowest value, and for the 2 lowest (3 <= 2 * 2) the full
    # table with no bound pass.  At N=6, 24 splits could be skipped: one bound pass.
    n, calls, bounds = len(label), [], entanglement._norm_bounds
    monkeypatch.setattr(entanglement, "_norm_bounds", lambda *a: calls.append(a) or bounds(*a))
    amps = evolve_full(n, label, [1.0])[:, excitation_sector(n, n // 2)]
    masks = range(1, (1 << n) - 1, 2)
    got = pure_negativities(amps, n, n // 2, masks, lowest=lowest)
    assert len(calls) == bound_passes
    full = pure_negativities(amps, n, n // 2, masks)
    assert np.array_equal(np.sort(got)[:, :lowest], np.sort(full)[:, :lowest])


def test_cached_plans_hand_out_read_only_arrays():
    # The lru_cached plans hand the same arrays to every caller, so none of them is writeable.
    def arrays(x):
        if isinstance(x, np.ndarray):
            yield x
        elif isinstance(x, (tuple, list)):
            for y in x:
                yield from arrays(y)

    plans = [entanglement._pt_plan(4, (1, 3, 5), blocked) for blocked in (False, True)]
    plans += [entanglement._schmidt_plan(n, n // 2, tuple(range(1, (1 << n) - 1, 2)))
              for n in (4, 6)]
    plans += [dynamics._symmetry_plan(n, k) for n, k in ((5, 2), (6, 3))]
    got = list(arrays(plans))
    assert len(got) > 20
    assert not [a.shape for a in got if a.flags.writeable]


class TestPureKernelInput:
    # The k=2 sector amplitudes of an evolved N=4 state, and the same state in the full basis.
    @pytest.fixture
    def psi(self):
        return evolve_full(4, "1001", [1.0])

    @pytest.fixture
    def amps(self, psi):
        return psi[:, excitation_sector(4, 2)]

    def test_no_masks(self, amps):
        with pytest.raises(ValueError, match="masks must name one or more splits"):
            pure_negativities(amps, 4, 2, [])

    @pytest.mark.parametrize("mask", [0, 15, 16, -1])
    def test_mask_not_a_split(self, amps, mask):
        with pytest.raises(ValueError, match="masks must name one or more splits of 4 sites"):
            pure_negativities(amps, 4, 2, [mask])

    def test_sector_size_mismatch(self, amps):
        # Six k=2 amplitudes read as the four of a k=1 sector.
        with pytest.raises(ValueError, match=r"finite \(T, 4\) stack, got shape \(1, 6\)"):
            pure_negativities(amps, 4, 1, [1])

    def test_short_amplitude_stack(self, amps):
        with pytest.raises(ValueError, match=r"\(T, 6\) stack, got shape \(1, 5\)"):
            pure_negativities(amps[:, :5], 4, 2, [1])

    def test_nan_amplitudes(self, amps):
        amps[0, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            pure_negativities(amps, 4, 2, [1, 3])

    def test_full_basis_stack_too_short(self, psi):
        with pytest.raises(ValueError, match=r"\(T, 16\) stack, got shape \(1, 8\)"):
            pure_double_negativity(psi[:, :8], split(4, [1, 2]))

    def test_array_likes_converted(self, psi, amps):
        # A list of lists is taken as the array it converts to.
        masks = [1, 3, 5]
        assert np.array_equal(pure_negativities(amps.tolist(), 4, 2, masks),
                              pure_negativities(amps, 4, 2, masks))
        p = split(4, [1, 2])
        assert np.array_equal(pure_double_negativity(psi.tolist(), p),
                              pure_double_negativity(psi, p))

    @pytest.mark.parametrize("lowest", [0, -1, 1.5, True, "2"])
    def test_lowest_not_a_count(self, amps, lowest):
        with pytest.raises(ValueError, match="lowest must be a positive integer or None"):
            pure_negativities(amps, 4, 2, [1, 3, 5], lowest=lowest)

    @pytest.mark.parametrize("dtype", [str, bool, object])
    def test_non_numeric_amplitudes(self, psi, amps, dtype):
        # Strings, booleans and objects are not amplitudes: ValueError, not
        # the TypeError np.isfinite raises for strings.
        with pytest.raises(ValueError, match=r"amplitudes must be numbers, got dtype"):
            pure_negativities(amps.astype(dtype), 4, 2, [1])
        with pytest.raises(ValueError, match=r"amplitudes must be numbers, got dtype"):
            pure_double_negativity(psi.astype(dtype), split(4, [1, 2]))

    def test_full_basis_nan(self, psi):
        # Bad input, not a numerical failure: no LinAlgError from the SVD.
        psi[0, 3] = np.nan
        with pytest.raises(ValueError, match="finite") as exc:
            pure_double_negativity(psi, split(4, [1, 2]))
        assert not isinstance(exc.value, np.linalg.LinAlgError)


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
