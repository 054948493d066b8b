import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tflab.errors import GridMismatchError
from tflab.sampling import (Band, DyadicInterval, Grid, GridFunction,
                            IntervalSet, cover_count, inner_product, lp_norm,
                            local_norm, maximal_dyadic_intervals,
                            maximal_function, read_gridfunction_csv,
                            superlevel_decompose, write_gridfunction_csv)

from reference import (cover_count_loop, maximal_dyadic_intervals_loop,
                       maximal_function_brute, superlevel_decompose_loop)


def indicator(grid, lo, hi):
    xs = grid.xs()
    return GridFunction(grid, ((xs >= lo) & (xs <= hi)).astype(complex))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0.0, 0.0, 8)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 7)
    g = Grid(-2.0, 2.0, 8)
    assert g.spacing == 0.5
    assert g.index_of(-1.5) == 1
    with pytest.raises(ValueError):
        g.index_of(0.3)


def test_gridfunction_validation():
    g = Grid(-1.0, 1.0, 8)
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(4))
    with pytest.raises(ValueError):
        GridFunction(g, np.full(8, np.nan))


def test_inner_product_zero_and_indicator():
    g = Grid(-2.0, 2.0, 2 ** 14)
    z = GridFunction(g, np.zeros(g.n, complex))
    f = indicator(g, 0.0, 1.0)
    assert inner_product(z, f) == 0
    assert abs(inner_product(f, f) - 1.0) < 1e-3


def test_inner_product_richardson():
    # quadrature of exp(-2 x^2) against sqrt(pi/2); doubling the grid must
    # cut the error by at least 4
    ref = math.sqrt(math.pi / 2.0)
    errs = []
    for n in (2 ** 8, 2 ** 9):
        g = Grid(-8.0, 8.0, n)
        f = GridFunction(g, np.exp(-g.xs() ** 2) + 0j)
        errs.append(abs(inner_product(f, f) - ref))
    assert errs[1] <= errs[0] / 4


def test_inner_product_sesquilinear():
    g = Grid(-2.0, 2.0, 2 ** 8)
    rng = np.random.default_rng(1)
    f = GridFunction(g, rng.normal(size=g.n) + 1j * rng.normal(size=g.n))
    h = GridFunction(g, rng.normal(size=g.n) + 1j * rng.normal(size=g.n))
    assert inner_product(f, h) == pytest.approx(np.conj(inner_product(h, f)),
                                                abs=1e-12)
    c = 0.7 - 0.2j
    assert inner_product(c * f, h) == pytest.approx(c * inner_product(f, h),
                                                    rel=1e-12)
    assert inner_product(f, c * h) == pytest.approx(
        np.conj(c) * inner_product(f, h), rel=1e-12)


def test_grid_mismatch():
    f = GridFunction(Grid(-1.0, 1.0, 8), np.zeros(8, complex))
    h = GridFunction(Grid(-2.0, 2.0, 8), np.zeros(8, complex))
    with pytest.raises(GridMismatchError):
        inner_product(f, h)


def test_norms():
    g = Grid(0.0, 4.0, 2 ** 10)
    f = indicator(g, 0.0, 1.0)
    assert lp_norm(f, 1) == pytest.approx(1.0, abs=5e-3)
    assert lp_norm(f, math.inf) == 1.0
    assert local_norm(f, 0.0, 2.0, 1.0) == pytest.approx(0.5, abs=5e-3)
    assert local_norm(f, 0.0, 2.0, math.inf) == 1.0


# ---------------------------------------------------------------------------
# maximal functions

def test_maximal_zero_and_constant():
    g = Grid(-4.0, 4.0, 2 ** 8)
    z = GridFunction(g, np.zeros(g.n, complex))
    assert np.all(maximal_function(z, 1.0).values.real == 0)
    c = GridFunction(g, np.full(g.n, 3.0 + 0j))
    for p in (1.0, 1.5, 2.0):
        assert maximal_function(c, p).values.real == pytest.approx(3.0, rel=1e-12)


def test_maximal_indicator_probe():
    # f = 1_[0,1]: the best interval containing x = 2 averages exactly 1/2
    # in the continuum ([0, 2]); the sampled brute force converges to it
    g = Grid(-8.0, 8.0, 2 ** 10)
    f = indicator(g, 0.0, 1.0)
    brute = maximal_function_brute(f, 1.0)
    lazy = maximal_function(f, 1.0)
    i = g.index_of(2.0)
    assert brute.values[i].real == pytest.approx(0.5, abs=0.01)
    assert lazy.values[i].real >= brute.values[i].real / 4


def test_maximal_dominates_probes():
    rng = np.random.default_rng(2)
    g = Grid(-4.0, 4.0, 2 ** 8)
    f = GridFunction(g, rng.normal(size=g.n) + 0j)
    m = maximal_function(f, 1.0).values.real
    a = np.abs(f.values)
    c = np.concatenate([[0.0], np.cumsum(a)])
    for _ in range(1000):
        x = rng.integers(0, g.n)
        mlen = 2 ** rng.integers(0, 8)
        s = rng.integers(max(0, x - mlen + 1), min(x, g.n - mlen) + 1)
        avg = (c[s + mlen] - c[s]) / mlen
        assert m[x] >= avg - 1e-12


def test_maximal_factor_four_comparability():
    rng = np.random.default_rng(3)
    g = Grid(-4.0, 4.0, 2 ** 8)
    for p in (1.0, 2.0):
        f = GridFunction(g, rng.normal(size=g.n)
                         + 1j * rng.normal(size=g.n))
        lazy = maximal_function(f, p).values.real
        brute = maximal_function_brute(f, p).values.real
        assert np.all(lazy <= brute + 1e-12)
        assert np.all(brute <= 4 * lazy + 1e-12)


def test_maximal_monotone():
    rng = np.random.default_rng(4)
    g = Grid(-4.0, 4.0, 2 ** 8)
    small = rng.normal(size=g.n)
    big = small * (1.0 + np.abs(rng.normal(size=g.n)))  # |big| >= |small|
    ms = maximal_function(GridFunction(g, small + 0j), 1.0)
    mb = maximal_function(GridFunction(g, big + 0j), 1.0)
    assert np.all(ms.values.real <= mb.values.real + 1e-12)


def test_maximal_p_validation():
    g = Grid(-1.0, 1.0, 8)
    f = GridFunction(g, np.zeros(8, complex))
    with pytest.raises(ValueError):
        maximal_function(f, 0.5)


# ---------------------------------------------------------------------------
# superlevel decomposition

def brute_superlevel(g, lam):
    """Enumerate every dyadic interval, filter, and keep the maximal ones."""
    from tflab.sampling import dyadic_cover, grid_dyadic_scales
    mask = g.values.real > lam
    grid = g.grid
    c = np.concatenate([[0], np.cumsum(mask)])

    def nine_inside(q):
        b = q.dilate(9.0)
        if b.lo < grid.x0 - 1e-12 or b.hi > grid.x1 + 1e-12:
            return False
        sl = grid.slice_of(b.lo, b.hi)
        return sl.stop > sl.start and c[sl.stop] - c[sl.start] == sl.stop - sl.start

    qual = [DyadicInterval(s, m) for s in grid_dyadic_scales(grid)
            for m in dyadic_cover(grid, s)
            if nine_inside(DyadicInterval(s, m))]
    return sorted(q for q in qual
                  if not any(o != q and o.contains(q) for o in qual))


def test_superlevel_empty():
    g = Grid(-8.0, 8.0, 2 ** 8)
    f = GridFunction(g, np.full(g.n, 0.5 + 0j))
    assert superlevel_decompose(f, 1.0) == []


def test_superlevel_matches_brute():
    g = Grid(-16.0, 16.0, 2 ** 9)
    xs = g.xs()
    f = GridFunction(g, np.where((xs >= 0) & (xs < 9), 2.0, 0.0) + 0j)
    got = superlevel_decompose(f, 1.0)
    want = brute_superlevel(f, 1.0)
    assert sorted(got) == sorted(want)
    assert got  # the window is wide enough to hold some 9Q
    for q in got:
        b = q.dilate(9.0)
        assert b.lo >= 0 - 1e-9 and b.hi <= 9 + 1e-9


def test_superlevel_disjoint():
    rng = np.random.default_rng(5)
    g = Grid(-16.0, 16.0, 2 ** 9)
    f = GridFunction(g, np.abs(rng.normal(size=g.n)) + 0j)
    qs = superlevel_decompose(f, 0.8)
    for i, a in enumerate(qs):
        for b in qs[i + 1:]:
            assert not a.band().intersects(b.band())


def test_superlevel_lambda_validation():
    g = Grid(-1.0, 1.0, 8)
    f = GridFunction(g, np.ones(8, complex))
    with pytest.raises(ValueError):
        superlevel_decompose(f, 0.0)


# origins on and off the coarsest dyadic scale (32); the last sits 2^-40 below a
# sample lattice point, where Grid.slice_of's -1e-9 decides the first sample
_ORIGINS = [-16.0, 0.0, -5.0, -16.25, 3.5, -5.0 - 2.0 ** -40]


@st.composite
def dyadic_masks(draw):
    """A grid of 2^6..2^12 samples on a length-32 domain and a sampled set:
    empty, full, or a union of runs with single-sample holes punched in."""
    n = 2 ** draw(st.integers(6, 12))
    x0 = draw(st.sampled_from(_ORIGINS))
    grid = Grid(x0, x0 + 32.0, n)
    kind = draw(st.sampled_from(["clustered", "clustered", "all", "none"]))
    mask = np.full(n, kind == "all")
    if kind == "clustered":
        index = st.integers(0, n - 1)
        for start, width in draw(st.lists(
                st.tuples(index, st.integers(1, n // 2)), max_size=8)):
            mask[start:start + width] = True
        mask[draw(st.lists(index, max_size=8))] = False
    return grid, mask


@settings(max_examples=120, deadline=None)
@given(dyadic_masks())
def test_maximal_dyadic_matches_loop(case):
    grid, mask = case
    assert maximal_dyadic_intervals(mask, grid) == \
        maximal_dyadic_intervals_loop(mask, grid)
    g = GridFunction(grid, np.where(mask, 2.0, 0.0) + 0j)
    assert superlevel_decompose(g, 1.0) == superlevel_decompose_loop(g, 1.0)


COVER_GRID = Grid(-4.0, 4.0, 2 ** 6)

# band endpoints inside and outside the domain: arbitrary reals, sample
# points, and their floating-point neighbours
_edges = st.one_of(
    st.floats(-6.0, 6.0),
    st.integers(-48, 48).flatmap(lambda k: st.sampled_from(
        [k / 8, np.nextafter(k / 8, -np.inf), np.nextafter(k / 8, np.inf)])))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_edges, _edges).filter(lambda p: p[0] != p[1])
                .map(lambda p: Band(min(p), max(p))), max_size=12))
def test_cover_count_matches_mask_loop(bands):
    got = cover_count(COVER_GRID, bands)
    assert np.array_equal(got, cover_count_loop(COVER_GRID, bands))


# ---------------------------------------------------------------------------
# interval sets, dyadic intervals, CSV

def test_dyadic_interval_geometry():
    q = DyadicInterval(-1, 3)
    assert (q.lo, q.hi, q.center, q.length) == (1.5, 2.0, 1.75, 0.5)
    assert q.parent() == DyadicInterval(0, 1)
    assert DyadicInterval(0, 1).contains(q)
    assert not q.contains(DyadicInterval(0, 1))
    assert q.dilate(3.0) == Band(1.0, 2.5)
    kids = DyadicInterval(0, 1).children()
    assert kids == (DyadicInterval(-1, 2), DyadicInterval(-1, 3))


def test_interval_set_ops():
    s = IntervalSet.from_pairs([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)])
    assert s.parts == ((0.0, 2.0), (3.0, 4.0))
    assert s.measure == 3.0
    d = s.difference(IntervalSet.from_pairs([(0.5, 3.5)]))
    assert d.parts == ((0.0, 0.5), (3.5, 4.0))
    u = s.union(IntervalSet.from_pairs([(2.0, 3.0)]))
    assert u.parts == ((0.0, 4.0),)
    g = Grid(-1.0, 5.0, 64)
    ind = s.indicator(g)
    assert lp_norm(ind, 1) == pytest.approx(3.0, abs=0.2)


_pairs = st.lists(st.tuples(st.integers(-64, 64), st.integers(-64, 64))
                  .map(lambda p: (p[0] / 8, p[1] / 8)), max_size=10)


@settings(max_examples=300, deadline=None)
@given(_pairs, _pairs)
def test_interval_set_algebra(pa, pb):
    a, b = IntervalSet.from_pairs(pa), IntervalSet.from_pairs(pb)
    for s in (a, b):
        assert all(lo < hi for lo, hi in s.parts)
        assert all(s.parts[i][1] < s.parts[i + 1][0]
                   for i in range(len(s.parts) - 1))
    assert a.difference(b).measure + b.measure == a.union(b).measure


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([Grid(-4.0, 4.0, 64), Grid(-5.0, 27.0, 128)])
       .flatmap(lambda g: st.tuples(st.just(g), st.lists(
           st.booleans(), min_size=g.n, max_size=g.n))))
def test_interval_set_mask_roundtrip(case):
    grid, bits = case
    mask = np.array(bits)
    got = IntervalSet.from_mask(grid, mask).indicator(grid).values.real
    assert np.array_equal(got, mask)


def test_interval_set_from_mask():
    g = Grid(0.0, 8.0, 16)
    mask = np.zeros(16, bool)
    mask[2:5] = True
    mask[10:12] = True
    s = IntervalSet.from_mask(g, mask)
    assert s.parts == ((1.0, 2.5), (5.0, 6.0))


def test_csv_roundtrip(tmp_path):
    g = Grid(-2.0, 2.0, 32)
    rng = np.random.default_rng(6)
    f = GridFunction(g, rng.normal(size=32) + 1j * rng.normal(size=32))
    path = tmp_path / "f.csv"
    write_gridfunction_csv(f, path)
    f2 = read_gridfunction_csv(path)
    assert f2.grid == g
    assert np.array_equal(f2.values, f.values)
    # byte-identical re-emission
    path2 = tmp_path / "f2.csv"
    write_gridfunction_csv(f2, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_gridfunction_csv(p)


def test_gridfunction_binary_cache(tmp_path):
    from tflab.sampling import load_gridfunction, save_gridfunction
    g = Grid(-2.0, 2.0, 32)
    rng = np.random.default_rng(8)
    f = GridFunction(g, rng.normal(size=32) + 1j * rng.normal(size=32))
    path = tmp_path / "f.npz"
    save_gridfunction(f, path)
    back = load_gridfunction(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)
