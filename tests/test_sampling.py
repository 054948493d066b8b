import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tflab.errors import GridMismatchError
from tflab.sampling import (Band, DyadicInterval, Grid, GridFunction,
                            cover_count, grid_dyadic_scales, local_norm, lp_norm,
                            maximal_dyadic_intervals, maximal_function,
                            read_gridfunction_csv, superlevel_decompose,
                            write_gridfunction_csv)

from reference import (cover_count_loop, inner_product,
                       maximal_dyadic_intervals_loop, maximal_function_blocks,
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


def test_index_of_half_open():
    # the grid covers [x0, x1): x0 is sample 0, x1 is no sample
    g = Grid(-2.0, 2.0, 8)
    assert g.index_of(-2.0) == 0
    assert g.index_of(1.5) == 7
    for x in (2.0, -2.5):
        with pytest.raises(ValueError, match="outside"):
            g.index_of(x)


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


@st.composite
def maximal_inputs(draw):
    n = 2 ** draw(st.integers(1, 13))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["complex", "zeros", "constant", "spikes"]))
    if kind == "complex":
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
    elif kind == "zeros":
        v = np.zeros(n, complex)
    elif kind == "constant":
        v = np.full(n, draw(st.floats(-1e3, 1e3)) + 0j)
    else:  # sparse spikes up to 1e8 on a small background
        v = 1e-3 * rng.normal(size=n) + 0j
        hit = rng.random(n) < draw(st.floats(0.0, 0.1))
        v[hit] = 10.0 ** rng.uniform(0, 8, size=int(hit.sum()))
    p = draw(st.sampled_from([1.0, 4.0 / 3.0, 1.5, 2.0, 3.0]))
    return GridFunction(Grid(-4.0, 4.0, n), v), p


@settings(max_examples=300, deadline=None)
@given(maximal_inputs())
def test_maximal_function_matches_block_maxima(draw):
    # the doubling maximum selects among the same window means exactly
    f, p = draw
    assert np.array_equal(maximal_function(f, p).values,
                          maximal_function_blocks(f, p).values)


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


def test_maximal_dyadic_counts_its_mask_once(monkeypatch):
    # one cumulative count serves all 16 scales of a 2^15-sample grid
    grid = Grid(-16.0, 16.0, 2 ** 15)
    mask = np.zeros(grid.n, dtype=bool)
    mask[1000:9000] = mask[20000:20100] = True
    cumsum, calls = np.cumsum, []
    monkeypatch.setattr(np, "cumsum", lambda *a, **k: calls.append(1) or cumsum(*a, **k))
    assert len(grid_dyadic_scales(grid)) == 16
    got = maximal_dyadic_intervals(mask, grid)
    assert len(calls) == 1
    monkeypatch.undo()
    assert got == maximal_dyadic_intervals_loop(mask, grid)


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
# sample masks, dyadic intervals, CSV

def test_dyadic_interval_geometry():
    q = DyadicInterval(-1, 3)
    assert (q.lo, q.hi, q.center, q.length) == (1.5, 2.0, 1.75, 0.5)
    assert q.parent() == DyadicInterval(0, 1)
    assert DyadicInterval(0, 1).contains(q)
    assert not q.contains(DyadicInterval(0, 1))
    assert q.dilate(3.0) == Band(1.0, 2.5)


def test_grid_mask():
    g = Grid(-1.0, 7.0, 64)  # h = 1/8, sample 8 at x = 0
    m = g.mask([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)])
    assert m.sum() * g.spacing == 3.0  # overlapping ranges count once
    assert np.array_equal(m, g.mask([(0.0, 2.0), (3.0, 4.0)]))
    # each range holds the samples of slice_of: lo in, hi out, clipped
    assert np.flatnonzero(g.mask([(0.0, 0.25)])).tolist() == [8, 9]
    assert np.flatnonzero(g.mask([(0.05, 0.25)])).tolist() == [9]
    assert np.flatnonzero(g.mask([(6.8, 9.0)])).tolist() == [63]
    assert not g.mask([]).any() and not g.mask([(2.0, 2.0)]).any()


_pairs = st.lists(st.tuples(st.integers(-64, 64), st.integers(-64, 64))
                  .map(lambda p: (p[0] / 8, p[1] / 8)), max_size=10)


@settings(max_examples=300, deadline=None)
@given(_pairs, _pairs)
def test_grid_mask_is_a_union(pa, pb):
    # on lattice endpoints a range holds exactly the samples lo <= x < hi
    grid = Grid(-8.0, 8.0, 128)
    xs = grid.xs()
    union = np.zeros(grid.n, bool)
    for lo, hi in pa + pb:
        union |= (xs >= lo) & (xs < hi)
    assert np.array_equal(grid.mask(pa + pb), union)
    assert np.array_equal(grid.mask(pa) | grid.mask(pb), union)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([Grid(-4.0, 4.0, 64), Grid(-5.0, 27.0, 128)])
       .flatmap(lambda g: st.tuples(st.just(g), st.lists(
           st.booleans(), min_size=g.n, max_size=g.n))))
def test_grid_mask_runs_roundtrip(case):
    # the runs of a mask, as ranges between sample points, give it back
    grid, bits = case
    mask = np.array(bits)
    edges = np.flatnonzero(np.diff(np.concatenate([[False], mask, [False]])))
    xs = grid.x0 + grid.spacing * edges
    assert np.array_equal(grid.mask(zip(xs[::2], xs[1::2])), mask)


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
