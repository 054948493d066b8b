import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tflab.errors import DegeneracyError
from tflab.lab import random_collection, random_signal, run_tree_suite
from tflab.packets import PacketBank, TopDatum
from tflab.sampling import (Band, DyadicInterval, Grid, GridFunction,
                            local_norm, lp_norm, maximal_function)
from tflab.timefreq import (Forest, Tree, Tritile, _SizeContext,
                            check_well_discretized, collection_size,
                            counting_split, exceptional_sets, f3_decompose,
                            forest_counting_norms, gamma_from_beta,
                            lacunary_frequency, single_tree_bound,
                            size_lemma_split, thin_well_discretized,
                            tree_size, validate_tree)

from conftest import bump_signal
from reference import (CachingPacketBank, SizeContextRef,
                       build_tritile_lattice, collection_size_ref,
                       f3_decompose_ref, greedy_split_ref,
                       lacunary_frequency_loop, maximal_function_blocks,
                       size_lemma_split_ref,
                       thin_well_discretized_loop, tree_suite_stats_ref)


def suite_bank(table, grid):
    return PacketBank(table, grid, 0.5)


def tile_key(s):
    return (s.space.scale, s.space.pos, s.freqs[0].lo)


# ---------------------------------------------------------------------------
# structure

def test_tritile_validation():
    with pytest.raises(ValueError):
        Tritile(DyadicInterval(0, 0), (Band(0, 2), Band(0, 1), Band(0, 1)))
    with pytest.raises(ValueError):
        Tritile(DyadicInterval(0, 0), (Band(0, 1),) * 3, coeff=2.0)
    s = Tritile(DyadicInterval(0, 0), (Band(0, 1), Band(2, 3), Band(-3, -2)))
    assert s.tile_datum(2).xi == 2.5


def test_gamma_from_beta():
    beta = np.array([1.0, 0.0, -1.0]) / math.sqrt(2)
    g = gamma_from_beta(beta)
    assert np.allclose(g, np.array([1.0, -2.0, 1.0]) / math.sqrt(6))
    m = np.array([g, beta, np.ones(3)])
    assert np.linalg.det(m) > 0
    with pytest.raises(DegeneracyError):
        gamma_from_beta(np.array([1.0, 1.0, -2.0]) / math.sqrt(6))
    with pytest.raises(ValueError):
        gamma_from_beta(np.array([1.0, 0.0, 0.0]))


def test_lattice_empty_and_areas():
    # (scale, position, column) -> tritile is one to one, and every tile has
    # area 1
    assert build_tritile_lattice([], [], []) == []
    S = build_tritile_lattice(range(-2, 1), range(-4, 4), range(-5, 6))
    assert len(set(S)) == len(S) == 3 * 8 * 11
    assert len({s.space for s in S}) == 3 * 8
    for s in S:
        for om in s.freqs:
            assert s.space.length * om.length == pytest.approx(1.0, abs=1e-12)


def test_lattice_snapping_identity_for_dyadic_dil():
    S = build_tritile_lattice(range(-1, 2), range(0, 2), range(0, 1))
    scales = sorted({s.space.scale for s in S})
    assert scales == [-1, 0, 1]


def test_check_well_discretized_trivial():
    ok, bad = check_well_discretized([])
    assert ok and not bad
    s = Tritile(DyadicInterval(0, 0), (Band(0, 1), Band(20, 21), Band(-21, -20)))
    ok, bad = check_well_discretized([s])
    assert ok


def test_random_collection_is_well_discretized(grid):
    rng = np.random.default_rng(0)
    for _ in range(5):
        S = random_collection(rng, grid)
        ok, bad = check_well_discretized(S, r_const=32.0)
        assert ok, bad[:2]
        assert len(S) >= 5
        assert len({s.space.scale for s in S}) >= 2


# dyadic lattices whose frequency columns sit 1, 4, 16 or 64 steps apart, so
# the thinning keeps from 16 to 248 of each one's 416 tritiles
THIN_LATTICES = [build_tritile_lattice(range(-2, 2), range(-4, 4),
                                       range(-6 * d, 6 * d + 1, d))
                 for d in (1, 4, 16, 64)]


@st.composite
def crowded_collections(draw):
    """Up to 40 draws from a few frequency columns at a few positions of one
    lattice: pairs share (column, column, same interval) keys, with clean and
    violating pairs of one column, repeats, and equal lengths in both orders."""
    lattice = draw(st.sampled_from(THIN_LATTICES))
    columns = sorted({(s.space.scale, s.freqs) for s in lattice})
    cols = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=4))
    pos = draw(st.lists(st.integers(-4, 3), min_size=2, max_size=3, unique=True))
    pool = [s for s in lattice
            if (s.space.scale, s.freqs) in cols and s.space.pos in pos]
    return draw(st.lists(st.sampled_from(pool), max_size=40))


@settings(max_examples=60, deadline=None)
@given(S=st.one_of(
           st.sampled_from(THIN_LATTICES).flatmap(
               lambda lattice: st.lists(st.sampled_from(lattice), max_size=120)),
           crowded_collections()),
       r_const=st.sampled_from([16.0, 32.0]))
def test_thin_well_discretized_matches_pairwise_loop(S, r_const):
    # drawn with duplicates and in any order; the pair rule decided once per
    # (column, column, same interval) keeps exactly what the loop keeps
    assert (thin_well_discretized(S, r_const=r_const)
            == thin_well_discretized_loop(S, r_const=r_const))


# ---------------------------------------------------------------------------
# size and trees

def test_tree_size_trivial(table, grid):
    bank = suite_bank(table, grid)
    s = Tritile(DyadicInterval(0, 0), (Band(2, 3), Band(20, 21), Band(-21, -20)))
    tree = Tree(TopDatum(s.space, 2.5), (s,), 1)
    z = GridFunction(grid, np.zeros(grid.n, complex))
    assert tree_size(z, tree, 1, bank) == 0.0
    f = bank.packet(s.tile_datum(1)).samples
    assert tree_size(f, tree, 1, bank) == pytest.approx(1.0, rel=1e-9)
    # single-tile lacunary block equals the sup form
    t2 = Tree(TopDatum(s.space, 20.2), (s,), 2)
    assert tree_size(f, t2, 1, bank) == pytest.approx(
        tree_size(f, tree, 1, bank), rel=1e-9)


def test_tree_size_lacunary_error(table, grid):
    bank = suite_bank(table, grid)
    s1 = Tritile(DyadicInterval(0, 0), (Band(2, 3), Band(20, 21), Band(-21, -20)))
    s2 = Tritile(DyadicInterval(0, 1), (Band(2.2, 3.2), Band(40, 41), Band(-41, -40)))
    tree = Tree(TopDatum(DyadicInterval(1, 0), 2.5), (s1, s2), 1)
    z = GridFunction(grid, np.ones(grid.n, complex))
    with pytest.raises(ValueError):
        tree_size(z, tree, 2, bank)  # slot-2 windows cannot share a witness


def test_size_vs_maximal_cap(table, grid, params):
    from tflab.sampling import maximal_function
    rng = np.random.default_rng(1)
    bank = suite_bank(table, grid)
    ratios = []
    for _ in range(20):
        S = random_collection(rng, grid)
        f = random_signal(rng, grid)
        sz = collection_size(f, S, 3, bank)
        m1 = maximal_function(f, 1.0).values.real
        cap = 0.0
        for s in S:
            sl = grid.slice_of(s.space.lo, s.space.hi)
            cap = max(cap, m1[sl].min())
        if cap > 0:
            ratios.append(sz / cap)
    assert ratios and max(ratios) < 10.0  # recorded constant


def test_size_monotone_under_subsets(table, grid):
    rng = np.random.default_rng(2)
    bank = suite_bank(table, grid)
    S = random_collection(rng, grid)
    f = random_signal(rng, grid)
    full = collection_size(f, S, 3, bank)
    sub = collection_size(f, S[: len(S) // 2], 3, bank)
    assert sub <= full + 1e-12


def test_size_lemma_split_trivial(table, grid):
    bank = suite_bank(table, grid)
    rng = np.random.default_rng(3)
    S = random_collection(rng, grid)
    f = random_signal(rng, grid)
    sz = collection_size(f, S, 3, bank)
    rest, forest = size_lemma_split(S, f, 3, 2.0 * sz + 1e-9, bank)
    assert forest.trees == ()
    assert sorted(map(tile_key, rest)) == sorted(map(tile_key, S))
    z = GridFunction(grid, np.zeros(grid.n, complex))
    rest2, forest2 = size_lemma_split(S, z, 3, 1.0, bank)
    assert forest2.trees == ()
    with pytest.raises(ValueError):
        size_lemma_split(S, f, 3, sz / 4, bank)  # precondition violated


def test_size_lemma_split_postconditions(table, grid):
    bank = suite_bank(table, grid)
    rng = np.random.default_rng(4)
    for _ in range(10):
        S = random_collection(rng, grid)
        f = random_signal(rng, grid)
        sz = collection_size(f, S, 3, bank)
        if sz == 0:
            continue
        rest, forest = size_lemma_split(S, f, 3, sz, bank)
        combined = rest + forest.tritiles()
        assert sorted(map(tile_key, combined)) == sorted(map(tile_key, S))
        assert collection_size(f, rest, 3, bank) <= sz / 2 + 1e-12
        for t in forest.trees:
            assert not validate_tree(t, r_const=32.0)


def test_single_tree_bound(table, grid):
    bank = suite_bank(table, grid)
    s = Tritile(DyadicInterval(0, 0), (Band(2, 3), Band(20, 21), Band(-21, -20)))
    tree = Tree(TopDatum(s.space, 2.5), (s,), 1,
                {2: 22.0, 3: -22.0})
    z = GridFunction(grid, np.zeros(grid.n, complex))
    f = bump_signal(np.random.default_rng(5), grid)
    assert single_tree_bound(tree, z, f, f, bank) == (0.0, 0.0)
    # one-term ratio collapses to exactly 1
    lhs, rhs = single_tree_bound(tree, f, f, f, bank)
    if rhs > 0:
        assert lhs / rhs == pytest.approx(1.0, rel=1e-9)


def test_single_tree_bound_random(table, grid):
    from tflab.lab import random_tree
    rng = np.random.default_rng(6)
    bank = suite_bank(table, grid)
    worst = 0.0
    audited = 0
    while audited < 30:
        tree = random_tree(rng, grid)
        if tree is None or len(tree.lacunary_freqs) < 2:
            continue
        assert not validate_tree(tree, r_const=32.0)
        f1 = random_signal(rng, grid)
        f2 = random_signal(rng, grid)
        f3 = random_signal(rng, grid)
        lhs, rhs = single_tree_bound(tree, f1, f2, f3, bank)
        if rhs > 0:
            worst = max(worst, lhs / rhs)
            audited += 1
    assert worst < 50.0  # recorded constant of the one-tree estimate


# ---------------------------------------------------------------------------
# decomposition into forests

def test_f3_decompose_trivial(table, grid):
    bank = suite_bank(table, grid)
    assert f3_decompose([], GridFunction(grid, np.zeros(grid.n, complex)),
                        bank) == []
    rng = np.random.default_rng(7)
    S = random_collection(rng, grid)
    z = GridFunction(grid, np.zeros(grid.n, complex))
    forests = f3_decompose(S, z, bank)
    assert len(forests) == 1 and forests[0].k is None
    assert sorted(map(tile_key, forests[0].tritiles())) == sorted(map(tile_key, S))


def test_f3_decompose_partition_and_levels(table, grid):
    bank = suite_bank(table, grid)
    rng = np.random.default_rng(8)
    S = random_collection(rng, grid)
    f3 = random_signal(rng, grid)
    forests = f3_decompose(S, f3, bank)
    everything = [s for fo in forests for s in fo.tritiles()]
    assert sorted(map(tile_key, everything)) == sorted(map(tile_key, S))
    sigma0 = collection_size(f3, S, 3, bank)
    for fo in forests:
        if fo.k is None:
            continue
        level_size = collection_size(f3, fo.tritiles(), 3, bank)
        assert level_size <= sigma0 * 2.0 ** -fo.k + 1e-12


# ---------------------------------------------------------------------------
# one coefficient vector per collection, against the caching reference

@st.composite
def size_draws(draw):
    """(S, f): a ray collection and a signal at unit, 1e-14 or zero scale.

    Many unit-scale draws of f3_decompose halve down to rounding noise and the
    1e-14 draws start there, so near-ties between block values are common.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    grid = Grid(-16.0, 16.0, 2 ** 12)
    scales = draw(st.sampled_from([(2, 0, -2), (1, -1), (2, 0), (0, -2)]))
    S = random_collection(rng, grid, scales=scales)
    f = random_signal(rng, grid, n_bumps=draw(st.integers(1, 5)),
                      freq_max=draw(st.sampled_from([2.0, 8.0])))
    amp = draw(st.sampled_from([1.0, 1e-14, 0.0]))
    return S, GridFunction(grid, f.values * amp)


def forest_record(forests):
    """Everything a forest says: level, top datum, type, members, witnesses."""
    return [(fo.k, [(t.top, t.tree_type, t.tritiles, t.lacunary_freqs)
                    for t in fo.trees]) for fo in forests]


@settings(max_examples=40, deadline=None)
@given(size_draws())
def test_size_selection_matches_caching_reference(table, draw):
    S, f = draw
    grid = f.grid
    bank, ref_bank = PacketBank(table, grid, 0.5), CachingPacketBank(table, grid, 0.5)
    sz = collection_size(f, S, 3, bank)
    assert sz == collection_size_ref(f, S, 3, ref_bank)
    if sz > 0:
        rest, forest = size_lemma_split(S, f, 3, sz, bank)
        rest_ref, forest_ref = size_lemma_split_ref(S, f, 3, sz, ref_bank)
        assert rest == rest_ref
        assert forest_record([forest]) == forest_record([forest_ref])
    assert (forest_record(f3_decompose(S, f, bank))
            == forest_record(f3_decompose_ref(S, f, ref_bank)))


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2 ** 12, 2 ** 13]))
def test_tree_suite_matches_caching_reference(table, seed, grid_n):
    rep = run_tree_suite(seed, 4, table=table, grid_n=grid_n)
    stats, notes = tree_suite_stats_ref(seed, 4, table, grid_n=grid_n)
    assert rep.stats == stats and rep.notes == notes


@settings(max_examples=40, deadline=None)
@given(size_draws())
def test_size_lemma_partition_and_halving(table, draw):
    S, f = draw
    bank = PacketBank(table, f.grid, 0.5)
    sz = collection_size(f, S, 3, bank)
    if sz == 0:
        return
    rest, forest = size_lemma_split(S, f, 3, sz, bank)
    assert sorted(map(tile_key, rest + forest.tritiles())) == sorted(map(tile_key, S))
    assert collection_size(f, rest, 3, bank) <= sz / 2 * (1 + 1e-12)
    for t in forest.trees:
        assert not validate_tree(t, r_const=32.0)


@settings(max_examples=40, deadline=None)
@given(size_draws())
def test_f3_decompose_level_bound(table, draw):
    S, f = draw
    bank = PacketBank(table, f.grid, 0.5)
    forests = f3_decompose(S, f, bank)
    everything = [s for fo in forests for s in fo.tritiles()]
    assert sorted(map(tile_key, everything)) == sorted(map(tile_key, S))
    sigma0 = collection_size(f, S, 3, bank)
    for fo in forests:
        if fo.k is not None:
            level = collection_size(f, fo.tritiles(), 3, bank)
            assert level <= sigma0 * 2.0 ** -fo.k * (1 + 1e-12)


# ---------------------------------------------------------------------------
# size-context geometry: integer arrays against the loops they replace

@st.composite
def dyadic_collections(draw):
    """Tritiles on dyadic intervals at scales -4..3 with signed positions.

    One interval may carry several band triples; band edges sit on a quarter
    of the band length, so window endpoints often coincide, and the offsets
    come from a small pool, so intervals of one scale often share a band
    and tie in the split's choice of top.
    """
    spaces = draw(st.lists(st.builds(DyadicInterval, st.integers(-4, 3),
                                     st.integers(-40, 40)),
                           min_size=1, max_size=8))
    offsets = st.sampled_from(draw(st.lists(st.integers(-64, 64),
                                            min_size=1, max_size=6)))
    S = []
    for q in spaces:
        width = 1.0 / q.length
        for _ in range(draw(st.integers(1, 3))):
            los = draw(st.lists(offsets, min_size=3, max_size=3))
            lo = [m * width / 4 for m in los]
            S.append(Tritile(q, tuple(Band(a, a + width) for a in lo)))
    return S


@settings(max_examples=150, deadline=None)
@given(dyadic_collections(), st.integers(1, 3), st.data())
def test_size_geometry_matches_loops(S, j, data):
    # few distinct weights, so equal block values and tied tops are common
    coeff2 = np.array(data.draw(st.lists(
        st.sampled_from([0.0, 0.25, 1.0, 4.0]), min_size=len(S),
        max_size=len(S))))
    ctx = _SizeContext(S, coeff2, j)
    ref = SizeContextRef(S, coeff2, j)
    assert (list(zip(ctx.top_scale.tolist(), ctx.top_pos.tolist()))
            == [(t.scale, t.pos) for t in ref.tops])
    assert ctx.contain.shape == ref.contain.shape
    assert np.array_equal(ctx.contain, ref.contain)
    assert ctx.top_len.tobytes() == ref.top_len.tobytes()
    assert ctx.xi_regions.tobytes() == ref.xi_regions.tobytes()
    assert ctx.lac.shape == ref.lac.shape
    assert np.array_equal(ctx.lac, ref.lac)
    assert ctx.size == ref.best(np.ones(len(S), dtype=bool))[0]
    if ctx.size > 0:
        rest, forest = ctx.split(ctx.size)
        rest_ref, forest_ref = greedy_split_ref(ref, ctx.size)
        assert rest.S == rest_ref
        assert forest_record([forest]) == forest_record([forest_ref])


def test_size_context_empty_and_single():
    empty = _SizeContext([], np.zeros(0), 3)
    assert empty.size == 0.0
    rest, forest = empty.split(1.0)
    assert rest.S == [] and forest.trees == ()
    s = _tree_at(0, -3, xi=0.5).tritiles[0]
    ctx = _SizeContext([s], np.array([0.25]), 3)
    # the lone block: |c|^2 = 0.25 over the unit interval of s itself
    assert ctx.size == 0.5
    rest, forest = ctx.split(ctx.size)
    assert len(forest.trees) == 1 and forest.trees[0].tritiles == (s,)
    assert forest.trees[0].space.contains(s.space)
    assert rest.S == [] and rest.size == 0.0
    none = ctx.restrict(np.zeros(1, dtype=bool))
    assert none.S == [] and none.size == 0.0


# ---------------------------------------------------------------------------
# counting split

def _tree_at(scale, pos, xi=0.0):
    length = math.ldexp(1.0, scale)
    bands = (Band(xi - 0.5 / length, xi + 0.5 / length),
             Band(xi + 20 / length, xi + 21 / length),
             Band(xi - 21 / length, xi - 20 / length))
    s = Tritile(DyadicInterval(scale, pos), bands)
    return Tree(TopDatum(s.space, xi), (s,), 1)


def test_counting_split_single_tree(params, grid):
    forest = Forest((_tree_at(-2, 0),), k=1)
    good, small = counting_split(forest, 1, params, grid)
    assert len(good.trees) == 1 and not small.trees


def test_counting_split_disjoint(params, grid):
    trees = tuple(_tree_at(-4, 16 * i) for i in range(8))
    good, small = counting_split(Forest(trees, k=2), 2, params, grid)
    assert len(good.trees) == 8 and not small.trees


def test_counting_split_adversarial_stack(params, grid):
    # nested tops piled on one point force the peeling loop to iterate;
    # the partition stays exact and both threshold norms hold
    k = 1
    trees = tuple(_tree_at(-m, 0) for m in range(7))
    forest = Forest(trees, k=k)
    good, small = counting_split(forest, k, params, grid)
    assert len(good.trees) + len(small.trees) == 7
    n_inf, _ = forest_counting_norms(Forest(tuple(good.trees)), grid, params, k)
    _, n_one = forest_counting_norms(Forest(tuple(small.trees)), grid, params, k)
    assert n_inf <= 2.0 ** (2 * k)
    assert n_one <= 2.0 ** (-2 * k) * sum(t.space.length for t in trees) * 4
    # identical stacked tops peel wholesale rather than looping forever
    same = tuple(_tree_at(-3, 0, xi=float(i)) for i in range(9))
    good2, small2 = counting_split(Forest(same, k=k), k, params, grid)
    assert len(good2.trees) + len(small2.trees) == 9


# ---------------------------------------------------------------------------
# exceptional sets

def test_exceptional_sets_zero(grid):
    z = GridFunction(grid, np.zeros(grid.n, complex))
    f3 = grid.mask([(0.0, 1.0)])
    e, ebar, major = exceptional_sets(z, z, f3, (0.5, 0.25, 0.25))
    assert not e.any() and not ebar.any()
    assert np.array_equal(major, f3)


def test_exceptional_sets_huge_bump(grid):
    # a narrow spike on a moderate base: the first admissible constant
    # removes the spike neighborhood but keeps a major subset
    xs = grid.xs()
    spike = 50.0 * np.exp(-((xs - 0.25) / 0.05) ** 2)
    base = 1.0 * ((xs >= -2) & (xs < 2))
    h1 = GridFunction(grid, spike + base + 0j)
    z = GridFunction(grid, np.zeros(grid.n, complex))
    f3 = grid.mask([(0.0, 1.0)])
    e, ebar, major = exceptional_sets(h1, z, f3, (0.5, 0.25, 0.25))
    assert f3.sum() <= 4 * major.sum()  # enforced by the doubling loop
    assert major.sum() < f3.sum()       # something was removed
    assert np.array_equal(major, f3 & ~ebar)
    assert not (e & ~ebar).any()        # the closure holds E


def test_exceptional_sets_validation(grid):
    z = GridFunction(grid, np.zeros(grid.n, complex))
    f3 = grid.mask([(0.0, 1.0)])
    with pytest.raises(ValueError):
        exceptional_sets(z, z, f3, (0.5, 0.25, 0.5))
    with pytest.raises(ValueError, match="hold a sample"):
        exceptional_sets(z, z, grid.mask([]), (0.5, 0.25, 0.25))
    with pytest.raises(ValueError, match="mask of"):
        exceptional_sets(z, z, f3[::2], (0.5, 0.25, 0.25))


def test_exceptional_sets_at_a_small_alpha_of_a_large_function():
    # alpha1 = 1e-3 takes p = 1000, and 3^1000 overflows a float: the maximal
    # function and the norm then raise |h1| / max|h1| to the p-th power and
    # scale the p-th root back by max|h1|
    grid = Grid(-4.0, 4.0, 64)
    xs = grid.xs()
    h1 = GridFunction(grid, 3.0 * np.exp(-xs ** 2 + 2j * np.pi * xs))
    h2 = GridFunction(grid, ((xs >= -1) & (xs < 1)).astype(complex))
    f3 = grid.mask([(0.0, 2.0)])
    _, _, major = exceptional_sets(h1, h2, f3, (1e-3, 0.999, 0))
    assert f3.sum() <= 4 * major.sum()
    p = 1000.0
    a = np.abs(h1.values)
    top = a.max()
    with np.errstate(over="ignore"):
        assert top == 3.0 and not np.isfinite((a ** p).sum())
    norm = top * float(((a / top) ** p).sum() * grid.spacing) ** (1 / p)
    assert lp_norm(h1, p) == pytest.approx(norm, rel=1e-12, abs=0)
    local = top * float(np.mean((a[24:40] / top) ** p)) ** (1 / p)
    assert local_norm(h1, -1.0, 1.0, p) == pytest.approx(local, rel=1e-12,
                                                          abs=0)
    unit = GridFunction(grid, h1.values / top)
    m = top * maximal_function_blocks(unit, p).values.real
    assert np.allclose(maximal_function(h1, p).values.real, m, rtol=1e-12,
                       atol=0)


# ---------------------------------------------------------------------------
# misc

def test_lacunary_frequency_and_core():
    s1 = Tritile(DyadicInterval(0, 0), (Band(2, 3), Band(20, 21), Band(-21, -20)))
    xi = lacunary_frequency([s1], 2, r_const=32.0)
    assert xi is not None
    b = s1.freqs[1]
    assert b.dilate(32.0).contains_point(xi)
    assert not b.dilate(2.0).contains_point(xi)


@st.composite
def slot_bands(draw):
    """Tritiles whose band centers sit on a coarse lattice, so windows of
    different members share endpoints and nest or overlap; a step of 0.1
    puts rounding into every endpoint."""
    step = draw(st.sampled_from([0.25, 0.1]))
    out = []
    for _ in range(draw(st.integers(0, 8))):
        m = draw(st.integers(-3, 3))
        ell = math.ldexp(1.0, m)
        centers = [draw(st.integers(-12, 12)) * step for _ in range(3)]
        out.append(Tritile(DyadicInterval(m, draw(st.integers(-8, 7))),
                           tuple(Band(c - 0.5 / ell, c + 0.5 / ell)
                                 for c in centers)))
    return out


@settings(max_examples=300, deadline=None)
@given(slot_bands(), st.integers(1, 3), st.sampled_from([2.5, 16.0, 32.0]))
def test_lacunary_frequency_matches_loop(S, k, r_const):
    got = lacunary_frequency(S, k, r_const)
    want = lacunary_frequency_loop(S, k, r_const)
    if want is None:
        assert got is None
    else:
        assert got.hex() == want.hex()
