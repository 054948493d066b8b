import math
import signal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import bht_direct_loop, lambda_direct_full
from tflab import modelsum
from tflab.errors import DegeneracyError, GridMismatchError
from tflab.modelsum import (bht_direct, coefficient_profile,
                            dilate_band_limited, lambda_direct, model_sum,
                            rescale_check, rescale_tritile, synthesis_profile)
from tflab.packets import PacketBank, TopDatum, canonical_packet, packet_hats
from tflab.sampling import Band, DyadicInterval, Grid, GridFunction
from tflab.timefreq import Tritile, gamma_from_beta

BETA = (0.0, -2.0 ** -0.5, 2.0 ** -0.5)


@pytest.fixture(scope="module")
def wide_grid():
    return Grid(-128.0, 128.0, 2 ** 15)


@pytest.fixture(scope="module")
def wide_bank(table_fine, wide_grid):
    return PacketBank(table_fine, wide_grid, 0.25)


@pytest.fixture(scope="module")
def tritile():
    return Tritile(DyadicInterval(-1, 1),
                   (Band(1.0, 3.0), Band(5.0, 7.0), Band(-7.0, -5.0)))


def packet_inputs(tritile, table, grid):
    return tuple(canonical_packet(tritile.tile_datum(j), 0.25, table, grid).samples
                 for j in (1, 2, 3))


def test_config_validation():
    gamma = gamma_from_beta(BETA)
    assert abs(np.dot(gamma, np.ones(3))) < 1e-9
    assert abs(np.dot(gamma, BETA)) < 1e-9
    assert np.linalg.norm(gamma) == pytest.approx(1.0)
    with pytest.raises(DegeneracyError):
        gamma_from_beta((1.0 / math.sqrt(6),) * 2 + (-2.0 / math.sqrt(6),))
    with pytest.raises(ValueError):
        gamma_from_beta((1.0, 0.0, 0.0))


def test_model_sum_empty(bank, grid):
    z = GridFunction(grid, np.zeros(grid.n, complex))
    assert model_sum([], z, z, z, bank) == 0


def test_model_sum_single_tritile(tritile, table_fine, wide_grid, wide_bank):
    f1, f2, f3 = packet_inputs(tritile, table_fine, wide_grid)
    v = model_sum([tritile], f1, f2, f3, wide_bank)
    assert v == pytest.approx(1.0 / math.sqrt(0.5), rel=1e-9)


def test_model_sum_trilinear(tritile, table_fine, wide_grid, wide_bank):
    rng = np.random.default_rng(0)
    f1, f2, f3 = packet_inputs(tritile, table_fine, wide_grid)
    g1 = GridFunction(wide_grid, rng.normal(size=wide_grid.n)
                      + 1j * rng.normal(size=wide_grid.n))
    a = model_sum([tritile], f1 + g1, f2, f3, wide_bank)
    b = model_sum([tritile], f1, f2, f3, wide_bank)
    c = model_sum([tritile], g1, f2, f3, wide_bank)
    assert abs(a - b - c) <= 1e-10 * max(abs(a), abs(b), abs(c))


def test_model_sum_triangle_inequality(table_fine, wide_grid, wide_bank):
    rng = np.random.default_rng(1)
    tiles = [Tritile(DyadicInterval(-1, 2 * i),
                     (Band(1.0, 3.0), Band(5.0, 7.0), Band(-7.0, -5.0)),
                     coeff=complex(np.exp(2j * np.pi * rng.uniform())))
             for i in range(4)]
    f = GridFunction(wide_grid, rng.normal(size=wide_grid.n) + 0j)
    total = abs(model_sum(tiles, f, f, f, wide_bank, check=False))
    bound = 0.0
    for s in tiles:
        term = 1.0 / math.sqrt(s.space.length)
        for j in (1, 2, 3):
            term *= abs(wide_bank.coefficient(f, s.tile_datum(j)))
        bound += term
    assert total <= bound + 1e-12


def test_well_discretized_gate(tritile, table_fine, wide_grid, wide_bank):
    clash = Tritile(tritile.space,
                    (Band(1.5, 3.5), Band(5.5, 7.5), Band(-6.5, -4.5)))
    f1, f2, f3 = packet_inputs(tritile, table_fine, wide_grid)
    with pytest.raises(ValueError):
        model_sum([tritile, clash], f1, f2, f3, wide_bank)
    model_sum([tritile, clash], f1, f2, f3, wide_bank, check=False)


# ---------------------------------------------------------------------------
# dilation and scale invariance

def test_rescale_tritile(tritile):
    s2 = rescale_tritile(tritile, 2.0)
    assert s2.space == DyadicInterval(0, 1)
    assert s2.freqs[0] == Band(0.5, 1.5)
    assert rescale_tritile(s2, 0.5) == Tritile(tritile.space, tritile.freqs,
                                               tritile.coeff)


def test_dilate_band_limited_identity(table_fine, wide_grid):
    pk = canonical_packet(TopDatum(DyadicInterval(-1, 1), 2.0), 0.25,
                          table_fine, wide_grid).samples
    out = dilate_band_limited(pk, 1.0, 0.7)
    assert np.array_equal(out.values, pk.values)


def test_dilate_band_limited_exact(table_fine, wide_grid):
    # sanity anchor against a linear-interpolation reference (whose own error
    # dominates), plus an exact stretch/contract round trip
    pk = canonical_packet(TopDatum(DyadicInterval(-1, 1), 2.0), 0.25,
                          table_fine, wide_grid).samples
    xs = wide_grid.xs()
    inner = np.abs(xs) < 16
    for mu, expo in ((2.0, 0.5), (0.5, 0.25)):
        out = dilate_band_limited(pk, mu, expo)
        ref_r = np.interp(xs / mu, xs, pk.values.real)
        ref_i = np.interp(xs / mu, xs, pk.values.imag)
        ref = mu ** -expo * (ref_r + 1j * ref_i)
        assert np.abs(out.values - ref)[inner].max() <= 5e-3
    # stretch/contract round trip is exact away from the wrap-affected edges
    back = dilate_band_limited(dilate_band_limited(pk, 2.0, 0.5), 0.5, 0.5)
    quarter = np.abs(xs) < wide_grid.length / 4
    assert np.abs(back.values - pk.values)[quarter].max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 12), st.integers(1, 3), st.floats(-0.5, 1.0),
       st.integers(0, 2 ** 32 - 1))
def test_dilate_band_limited_round_trip(log2n, q, expo, seed):
    # stretch by 2^q, then decimate by 2^-q: f comes back on the central
    # samples, the ones the decimation reads without wrapping round the torus
    n = 2 ** log2n
    grid = Grid(-8.0, 8.0, n)
    rng = np.random.default_rng(seed)
    f = GridFunction(grid, rng.normal(size=n) + 1j * rng.normal(size=n))
    mu = 2.0 ** q
    back = dilate_band_limited(dilate_band_limited(f, mu, expo), 1.0 / mu, expo)
    central = slice(n // 2 - n // (2 * 2 ** q), n // 2 + n // (2 * 2 ** q))
    err = np.abs(back.values - f.values)[central].max()
    assert err <= 1e-12 * np.abs(f.values).max()


def test_scale_invariance(tritile, table_fine, wide_grid, wide_bank):
    f1, f2, f3 = packet_inputs(tritile, table_fine, wide_grid)
    alpha = (0.25, 0.5, 0.25)
    lhs, rhs = rescale_check([tritile], f1, f2, f3, 1.0, alpha, wide_bank)
    assert lhs == rhs
    for mu in (2.0, 0.5):
        lhs, rhs = rescale_check([tritile], f1, f2, f3, mu, alpha, wide_bank)
        assert abs(lhs - rhs) <= 1e-8 * abs(lhs)
    with pytest.raises(ValueError):
        rescale_check([tritile], f1, f2, f3, 2.0, (0.5, 0.5, 0.5), wide_bank)


def test_scale_invariance_random_configs(table_fine, wide_grid, wide_bank):
    # scaled packet widths stay below L/60 so torus aliasing sits under 1e-8
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        scale = int(rng.integers(-2, 0))
        pos = int(rng.integers(-2, 3))
        c1 = rng.uniform(1.0, 4.0)
        c2 = rng.uniform(5.0, 8.0)
        length = math.ldexp(1.0, scale)
        w = 1.0 / length
        s = Tritile(DyadicInterval(scale, pos),
                    (Band(c1 * w - w / 2, c1 * w + w / 2),
                     Band(c2 * w - w / 2, c2 * w + w / 2),
                     Band(-c2 * w - w / 2, -c2 * w + w / 2)))
        f1, f2, f3 = packet_inputs(s, wide_bank.table, wide_grid)
        mu = float(rng.choice([0.5, 2.0]))
        a1 = rng.uniform(0.1, 0.9)
        a2 = rng.uniform(0.05, 1.0 - a1 - 0.05)
        alpha = (a1, a2, 1.0 - a1 - a2)
        lhs, rhs = rescale_check([s], f1, f2, f3, mu, alpha, wide_bank)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# direct oracle

def test_bht_log3():
    g = Grid(-8.0, 8.0, 2 ** 13)
    xs = g.xs()
    f1 = GridFunction(g, ((xs >= -1) & (xs <= 1)).astype(complex))
    f2 = GridFunction(g, ((xs >= 0) & (xs <= 1)).astype(complex))
    out = bht_direct(f1, f2, (1.0, 0.0), g.spacing)
    assert out.values[g.index_of(0.5)].real == pytest.approx(math.log(3.0),
                                                             abs=1e-2)


def test_bht_even_cancellation():
    g = Grid(-8.0, 8.0, 2 ** 12)
    xs = g.xs()
    f = GridFunction(g, np.exp(-xs ** 2) + 0j)  # even about 0
    out = bht_direct(f, f, (1.0, -1.0), g.spacing)
    assert abs(out.values[g.index_of(0.0)]) <= 1e-10


def test_bht_real_output_and_validation():
    g = Grid(-8.0, 8.0, 2 ** 11)
    xs = g.xs()
    f = GridFunction(g, np.exp(-(xs - 0.3) ** 2) + 0j)
    out = bht_direct(f, f, (1.0, 0.5), g.spacing)
    assert np.abs(out.values.imag).max() <= 1e-12
    with pytest.raises(ValueError):
        bht_direct(f, f, (1.0, 0.5), g.spacing / 4)


def test_bht_richardson_contraction():
    # halve the cutoff and double the grid: successive outputs contract
    vals = []
    for n in (2 ** 10, 2 ** 11, 2 ** 12):
        g = Grid(-8.0, 8.0, n)
        xs = g.xs()
        f1 = GridFunction(g, np.exp(-xs ** 2) + 0j)
        f2 = GridFunction(g, np.exp(-((xs - 0.4) / 1.3) ** 2) + 0j)
        out = bht_direct(f1, f2, (1.0, -0.5), g.spacing, t_max=4.0)
        vals.append(out.values[g.index_of(0.25)].real)
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    assert d2 <= d1 / 2


def test_lambda_direct_duality():
    g = Grid(-8.0, 8.0, 2 ** 11)
    xs = g.xs()
    f1 = GridFunction(g, np.exp(-xs ** 2) + 0j)
    f2 = GridFunction(g, ((xs >= 0) & (xs < 1)).astype(complex))
    f3 = GridFunction(g, np.exp(-((xs - 0.5) / 2) ** 2) + 0j)
    beta = np.asarray(BETA)
    lam = lambda_direct(f1, f2, f3, beta)
    assert lam == pytest.approx(lambda_direct_full(f1, f2, f3, beta), rel=1e-9)
    z = GridFunction(g, np.zeros(g.n, complex))
    assert lambda_direct(z, f2, f3, beta) == 0


def test_lambda_direct_permutation_symmetry():
    # relabeling (f_j, beta_j) simultaneously is a change of variables in the
    # defining integral; quadrature differences stay at interpolation level
    g = Grid(-16.0, 16.0, 2 ** 12)
    xs = g.xs()
    f1 = GridFunction(g, np.exp(-xs ** 2) + 0j)
    f2 = GridFunction(g, np.exp(-((xs - 0.4) / 1.5) ** 2) + 0j)
    f3 = GridFunction(g, np.exp(-((xs + 0.7) / 2.0) ** 2) + 0j)
    beta = np.asarray(BETA)
    a = lambda_direct(f1, f2, f3, beta, t_max=8.0)
    b = lambda_direct(f2, f1, f3, beta[[1, 0, 2]], t_max=8.0)
    scale = max(abs(a), 1e-12)
    assert abs(a - b) / scale <= 2e-3


@st.composite
def oracle_draws(draw):
    """Oracle inputs with the quadrature's edge cases drawn on purpose."""
    n = 2 ** draw(st.integers(4, 11))
    x0 = draw(st.sampled_from([-4.0, -3.0, 0.0]))
    grid = Grid(x0, x0 + draw(st.sampled_from([8.0, 6.0, 27.0])), n)
    dt = grid.spacing
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def signal() -> GridFunction:
        # full, compactly supported, an interval's indicator, or zero: the
        # offset hulls of the fast path see every kind of support
        kind = draw(st.sampled_from(["full", "compact", "indicator", "zero"]))
        v = rng.normal(size=n) + (1j * rng.normal(size=n)
                                  if draw(st.booleans()) else 0j)
        if kind == "indicator":
            v = np.ones(n, dtype=complex)
        if kind != "full":
            lo = draw(st.integers(0, n - 1))
            hi = draw(st.integers(lo + 1, n)) if kind != "zero" else lo
            v[:lo] = 0
            v[hi:] = 0
        return GridFunction(grid, v)

    f1 = signal()
    f2 = signal()
    v3 = rng.normal(size=n) + 1j * rng.normal(size=n)
    support = draw(st.sampled_from(["scattered", "empty", "single", "full"]))
    if support == "scattered":
        v3[rng.random(n) < draw(st.floats(0.05, 0.95))] = 0
    elif support == "empty":
        v3[:] = 0
    elif support == "single":
        keep = draw(st.integers(0, n - 1))
        v3[np.arange(n) != keep] = 0
    f3 = GridFunction(grid, v3)
    # b = (beta1 - beta3, beta2 - beta3): a zero or negative component by choice
    b = [draw(st.sampled_from([0.0, -1.0, 0.5, -0.3, 2.0])) for _ in range(2)]
    beta3 = draw(st.floats(-1.0, 1.0))
    beta = (b[0] + beta3, b[1] + beta3, beta3)
    h_cut = draw(st.sampled_from([None, dt, 1.7 * dt, 3.5 * dt]))
    t_max = draw(st.sampled_from(["default", "on", "below", "above", "random",
                                  "exit"]))
    if t_max == "default":
        t_max = None
    elif t_max == "random":
        t_max = draw(st.floats(0.0, grid.length))
    elif t_max == "exit":
        # one offset either side of L / max|b|, past which every term is zero
        bmax = max(abs(b[0]), abs(b[1]))
        t_max = (grid.length / bmax if bmax else grid.length) \
            + draw(st.sampled_from([-dt, dt]))
    else:
        on = (draw(st.integers(0, n // 2)) + 0.5) * dt
        t_max = {"on": on, "below": math.nextafter(on, -math.inf),
                 "above": math.nextafter(on, math.inf)}[t_max]
    # small caps split the offsets into many blocks, the last one partial;
    # small chunks split the samples into many offset hulls, the last chunk
    # partial (at most 32 chunks: each adds a pass over the offsets)
    block = modelsum._ORACLE_BLOCK
    cap, chunk = draw(st.sampled_from([(1, n), (5, n), (64, n), (block, 1),
                                       (block, 3), (block, 37),
                                       (block, modelsum._ORACLE_CHUNK)]))
    return f1, f2, f3, beta, h_cut, t_max, cap, max(chunk, n // 32)


def patched_sizes(cap: int, chunk: int):
    return mock.patch.multiple(modelsum, _ORACLE_BLOCK=cap, _ORACLE_CHUNK=chunk)


@settings(max_examples=200, deadline=None)
@given(oracle_draws())
def test_bht_direct_matches_loop(draw):
    f1, f2, _f3, beta, h_cut, t_max, cap, chunk = draw
    b = (beta[0] - beta[2], beta[1] - beta[2])
    with patched_sizes(cap, chunk):
        got = bht_direct(f1, f2, b, h_cut, t_max)
    want = bht_direct_loop(f1, f2, b, f1.grid.spacing if h_cut is None else h_cut,
                           t_max)
    assert got.grid == want.grid
    assert np.array_equal(got.values, want.values)


@settings(max_examples=300, deadline=None)
@given(oracle_draws())
def test_lambda_direct_matches_full_grid_pairing(draw):
    f1, f2, f3, beta, h_cut, t_max, cap, chunk = draw
    with patched_sizes(cap, chunk):
        got = lambda_direct(f1, f2, f3, beta, h_cut=h_cut, t_max=t_max)
    assert got == lambda_direct_full(f1, f2, f3, beta, h_cut=h_cut, t_max=t_max)


def test_lambda_direct_input_checks():
    g = Grid(-8.0, 8.0, 2 ** 8)
    other = Grid(-4.0, 12.0, 2 ** 8)   # same size, another domain
    xs = g.xs()
    f = GridFunction(g, np.exp(-xs ** 2) + 0j)
    zero = GridFunction(g, np.zeros(g.n, complex))
    with pytest.raises(GridMismatchError):
        lambda_direct(f, f, GridFunction(other, f.values), BETA)
    with pytest.raises(GridMismatchError):
        lambda_direct(f, f, GridFunction(other, zero.values), BETA)
    with pytest.raises(GridMismatchError):
        lambda_direct(f, GridFunction(other, f.values), f, BETA)
    with pytest.raises(GridMismatchError):
        bht_direct(f, GridFunction(other, f.values), (1.0, 0.5), g.spacing)
    # an empty f3 does not hide a cutoff below the grid spacing
    with pytest.raises(ValueError):
        lambda_direct(f, f, zero, BETA, h_cut=g.spacing / 4)
    with pytest.raises(ValueError):
        lambda_direct(f, f, zero, BETA, t_max=math.inf)
    assert lambda_direct(f, f, zero, BETA) == 0


@pytest.mark.parametrize("b", [(1.0, 0.5), (0.0, 0.0)])
def test_bht_direct_large_t_max_returns(b):
    # offsets past L / max|b| add exact zeros (and none add anything at
    # b = 0), so a huge t_max ends where t_max = L does
    g = Grid(-8.0, 8.0, 2 ** 6)
    f = GridFunction(g, np.exp(-g.xs() ** 2) * (1 + 0.5j))

    def hang(signum, frame):
        raise TimeoutError("bht_direct did not return")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(20)
    try:
        got = bht_direct(f, f, b, t_max=1e12)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    want = bht_direct(f, f, b, t_max=g.length)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.values, bht_direct_loop(f, f, b, g.spacing,
                                                      g.length).values)


@pytest.mark.parametrize("h_cut, t_max, b1", [
    pytest.param(1.0, math.nan, 1.0, id="1.0-nan"),
    pytest.param(1.0, math.inf, 1.0, id="1.0-inf"),
    pytest.param(math.inf, None, 1.0, id="inf-None"),
    pytest.param(math.nan, None, 1.0, id="nan-None"),
    pytest.param(1.0, None, math.inf, id="b1=inf"),
    pytest.param(1.0, None, -math.inf, id="b1=-inf"),
    pytest.param(1.0, None, math.nan, id="b1=nan")])
def test_oracle_rejects_bad_cutoffs(h_cut, t_max, b1):
    # both oracle entry points reject a non-finite b or cutoff with a
    # ValueError that names it, before any offset is counted (h_cut in grid
    # spacings; lambda_direct derives b = (b1, 0) from beta = (b1, 0, 0))
    g = Grid(-8.0, 8.0, 2 ** 6)
    f = GridFunction(g, np.exp(-g.xs() ** 2) + 0j)
    h_cut *= g.spacing
    with pytest.raises(ValueError, match="^(h_cut|t_max|b) "):
        bht_direct(f, f, (b1, 0.5), h_cut, t_max)
    with pytest.raises(ValueError, match="^(h_cut|t_max|b) "):
        lambda_direct(f, f, f, (b1, 0.0, 0.0), h_cut=h_cut, t_max=t_max)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("j", [1, 2, 3])
def test_oracle_rejects_non_finite_samples(j, bad):
    # skipping offsets is exact only for finite samples: nan * 0 is nan, so a
    # non-finite sample is an error that names its function, even where the
    # terms it would enter are skipped
    g = Grid(-8.0, 8.0, 2 ** 6)
    fs = [GridFunction(g, ((g.xs() >= 0) & (g.xs() < 1)).astype(complex))
          for _ in range(3)]
    fs[j - 1].values[-1] = bad
    with pytest.raises(ValueError, match=f"^f{j} has non-finite samples"):
        lambda_direct(*fs, BETA)
    if j < 3:
        with pytest.raises(ValueError, match=f"^f{j} has non-finite samples"):
            bht_direct(fs[0], fs[1], (1.0, 0.5))


# ---------------------------------------------------------------------------
# batched engine equivalence

def test_profiles_match_bank(table_fine, wide_grid, wide_bank):
    rng = np.random.default_rng(3)
    f = GridFunction(wide_grid, rng.normal(size=wide_grid.n)
                     + 1j * rng.normal(size=wide_grid.n))
    fhat = np.fft.fft(f.values)
    td = TopDatum(DyadicInterval(-1, 1), 2.0)
    idx = wide_grid.index_of(td.interval.center)
    # the translates of scale 1/2 on the grid, through that index
    step = round(0.5 / wide_grid.spacing)
    r, j = idx % step, idx // step
    band = packet_hats(wide_grid, 0.5, [2.0], 0.25, wide_bank.table)
    [prof] = coefficient_profile(fhat, wide_grid, band, step, r)
    direct = wide_bank.coefficient(f, td)
    assert prof[j] == pytest.approx(direct, abs=1e-12)
    # synthesis: a unit weight at that translate reproduces the packet
    w = np.zeros(wide_grid.n // step, complex)
    w[j] = 1.0
    bins, values = synthesis_profile(w[None], wide_grid, band, r)
    spec = np.zeros(wide_grid.n, complex)
    spec[bins] = values
    syn = np.fft.ifft(spec) * (wide_grid.n / wide_grid.length)
    pk = wide_bank.packet(td).samples
    assert np.abs(syn - pk.values).max() <= 1e-10
