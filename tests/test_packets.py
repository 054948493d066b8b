import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tflab.errors import ResolutionError
from tflab.modelsum import coefficient_profile, synthesis_profile
from tflab.osgood import TabulatedOsgood
from tflab.packets import (PacketBank, Tile, TopDatum, canonical_packet,
                           dedup_freqs, freq_window_for_scale, split_meanzero,
                           split_truncate, tile_packet, xi_H, xi_lattice)
from tflab.sampling import Band, DyadicInterval, Grid, GridFunction, lp_norm

from reference import (canonical_packet_full, coefficient_profile_full,
                       synthesis_profile_full)


@pytest.fixture()
def packet(table, grid):
    return canonical_packet(TopDatum(DyadicInterval(0, 0), 2.0), 0.25,
                            table, grid)


def quad_at(f: GridFunction, xi: float) -> complex:
    xs = f.grid.xs()
    return complex((f.values * np.exp(-2j * np.pi * xi * xs)).sum()
                   * f.grid.spacing)


def test_packet_norm_and_leakage(packet, grid):
    assert lp_norm(packet.samples, 2) == pytest.approx(1.0, abs=1e-6)
    hat = np.fft.fft(packet.samples.values)
    zeta = grid.freqs()
    out = np.abs(zeta - packet.center_freq) > packet.band.length / 2 + 1e-12
    assert np.abs(hat[out]).max() <= 1e-8 * np.abs(hat).max()


def test_packet_translation_covariance(table, grid):
    a = canonical_packet(TopDatum(DyadicInterval(0, 0), 2.0), 0.25, table, grid)
    b = canonical_packet(TopDatum(DyadicInterval(0, 1), 2.0), 0.25, table, grid)
    shift = int(round(1.0 / grid.spacing))
    err = np.abs(np.roll(a.samples.values, shift) - b.samples.values).max()
    assert err <= 1e-10


def test_packet_resolution_errors(table):
    small = Grid(-2.0, 2.0, 2 ** 6)
    with pytest.raises(ResolutionError):
        canonical_packet(TopDatum(DyadicInterval(0, 0), 100.0), 0.25, table, small)
    with pytest.raises(ResolutionError):
        canonical_packet(TopDatum(DyadicInterval(4, 0), 2.0), 0.01, table, small)
    with pytest.raises(ValueError):
        canonical_packet(TopDatum(DyadicInterval(0, 0), 0.0), 1.5, table, small)


SPEC_GRID = Grid(-8.0, 8.0, 2 ** 8)


@st.composite
def packet_bands(draw):
    """(scale log2, eps, xi), with bands that end exactly at Nyquist or span
    exactly 4 bins among them."""
    g = SPEC_GRID
    j = draw(st.integers(-3, 2))
    scale = 2.0 ** j
    kind = draw(st.sampled_from(["free", "nyquist", "four_bins"]))
    if kind == "four_bins":
        eps = 4 * scale / g.length
        eps = draw(st.sampled_from([e for e in (eps, np.nextafter(eps, 0),
                                                np.nextafter(eps, 2)) if e <= 1]))
    else:
        eps = draw(st.floats(1.0 / 64, 1.0))
    if kind == "nyquist":
        edge = g.nyquist - eps / (2 * scale)
        xi = draw(st.sampled_from([-1.0, 1.0])) * draw(st.sampled_from(
            [edge, np.nextafter(edge, 0), np.nextafter(edge, np.inf)]))
    else:
        xi = draw(st.floats(-g.nyquist - 1, g.nyquist + 1))
    return j, float(eps), float(xi)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ResolutionError:
        return ResolutionError


@settings(max_examples=300, deadline=None)
@given(band=packet_bands(), pos=st.integers(-4, 3), seed=st.integers(0, 2 ** 16))
def test_packet_hat_matches_full_length_builders(table, band, pos, seed):
    j, eps, xi = band
    g = SPEC_GRID
    td = TopDatum(DyadicInterval(j, pos), xi)
    new = _outcome(canonical_packet, td, eps, table, g)
    old = _outcome(canonical_packet_full, td, eps, table, g)
    if old is ResolutionError:
        assert new is ResolutionError
    else:
        assert np.array_equal(new.samples.values, old.samples.values)

    rng = np.random.default_rng(seed)
    f_hat = np.fft.fft(rng.normal(size=g.n) + 1j * rng.normal(size=g.n))
    weights = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
    scale = 2.0 ** j
    for fast, full, data in ((coefficient_profile, coefficient_profile_full, f_hat),
                             (synthesis_profile, synthesis_profile_full, weights)):
        a = fast(data, g, scale, xi, eps, table)
        b = full(data, g, scale, xi, eps, table)
        assert (a is None) == (b is None) == (old is ResolutionError)
        if b is not None:
            assert np.array_equal(a, b)


def test_packet_adaptedness_envelope(table, params):
    # |p(x)| exp(a U((x - c)/|I|)) bounded, stable within 10% under doubling
    sups = []
    for n in (2 ** 12, 2 ** 13):
        g = Grid(-16.0, 16.0, n)
        pk = canonical_packet(TopDatum(DyadicInterval(-2, 0), 0.0), 0.25,
                              table, g)
        xs = g.xs()
        arg = (xs - pk.datum.interval.center) / pk.datum.interval.length
        env = np.abs(pk.samples.values) * np.exp(pk.rate * params.big_u(arg))
        sups.append(env.max())
    assert abs(sups[1] - sups[0]) <= 0.1 * sups[0]


def test_tile_packet(table, grid):
    tile = Tile(DyadicInterval(-1, 2), Band(3.0, 5.0))
    pk = tile_packet(tile, 0.25, table, grid)
    assert pk.center_freq == 4.0
    assert tile.freq.contains_band(pk.band)
    with pytest.raises(ValueError):
        Tile(DyadicInterval(0, 0), Band(0.0, 2.0))  # area 2


def test_bank_caching(table, grid):
    bank = PacketBank(table, grid, 0.25)
    td = TopDatum(DyadicInterval(0, 0), 2.0)
    assert bank.packet(td) is bank.packet(td)
    f = bank.packet(td).samples
    assert bank.coefficient(f, td) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# splittings

def test_split_truncate_reconstruction_and_support(packet, table, grid, params):
    phi_c, psi = split_truncate(packet, 2.0, table)
    a = packet.rate
    recon = packet.samples.values - (phi_c.values
                                     + math.exp(-a * 2 / 12) * psi.values)
    assert np.abs(recon).max() <= 1e-12
    xs = grid.xs()
    width = params.u(2.0) * packet.datum.interval.length
    outside = np.abs(xs - packet.datum.interval.center) > width / 2 + grid.spacing
    assert np.abs(phi_c.values[outside]).max() == 0.0


def test_split_truncate_tail_sweep(table, params):
    # spectral tail mass beyond 2/|J| strictly decreasing in K, and the
    # K = 1 -> 4 drop beats exp(a/4)
    g = Grid(-16.0, 16.0, 2 ** 13)
    pk = canonical_packet(TopDatum(DyadicInterval(-2, 0), 8.0), 0.25, table, g)
    zeta = g.freqs()
    far = np.abs(zeta - 8.0) > 2.0 / pk.datum.interval.length

    def tail(K):
        phi_c, _ = split_truncate(pk, K, table)
        hat = np.fft.fft(phi_c.values) * g.spacing
        return math.sqrt(float((np.abs(hat[far]) ** 2).sum()) / g.length)

    tails = [tail(K) for K in (1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(tails, tails[1:]))
    assert tails[0] / tails[2] >= math.exp(pk.rate / 4.0)


def test_split_truncate_domain_error_and_clamp(packet, table, caplog):
    with pytest.raises(ValueError):
        split_truncate(packet, 20.0, table)
    import logging
    with caplog.at_level(logging.WARNING, logger="tflab.packets"):
        split_truncate(packet, 20.0, table, clamp=True)
    assert any("clamping" in r.message for r in caplog.records)


def test_split_meanzero_both_pieces(packet, table, grid):
    xi0 = 2.0 + 1.5  # |J| = 1, distance 1.5 in (1/2, R/2]
    phi_c, psi = split_meanzero(packet, 2.0, xi0, table)
    snapped = grid.snap_frequency(xi0)
    l1 = lp_norm(packet.samples, 1)
    assert abs(quad_at(phi_c, snapped)) <= 1e-8 * l1
    assert abs(quad_at(psi, snapped)) <= 1e-8 * l1
    a = packet.rate
    recon = packet.samples.values - (phi_c.values
                                     + math.exp(-a * 2 / 12) * psi.values)
    assert np.abs(recon).max() <= 1e-12


def test_split_meanzero_preconditions(packet, table):
    with pytest.raises(ValueError):
        split_meanzero(packet, 2.0, 2.1, table)   # inside the unit band
    with pytest.raises(ValueError):
        split_meanzero(packet, 2.0, 50.0, table)  # beyond R/2


def test_split_meanzero_formula_reproduction(table, params):
    # recompute phi_c from the defining formula on a doubled grid; packets on
    # nested grids share their nonzero spectrum, so decimation is exact
    coarse = Grid(-16.0, 16.0, 2 ** 13)
    fine = Grid(-16.0, 16.0, 2 ** 14)
    td = TopDatum(DyadicInterval(0, 0), 2.0)
    xi0_raw = 3.5
    pkc = canonical_packet(td, 0.25, table, coarse)
    pkf = canonical_packet(td, 0.25, table, fine)
    phic_c, _ = split_meanzero(pkc, 2.0, xi0_raw, table)
    xi0 = coarse.snap_frequency(xi0_raw)
    xs = fine.xs()
    w = pkf.samples.values * np.exp(-2j * np.pi * xi0 * xs)
    width = params.u(2.0) * td.interval.length
    win = table.cutoff_at(xs - td.interval.center, width)
    m = (w * win).sum() / win.sum()
    ref = (w * win - m * win) * np.exp(2j * np.pi * xi0 * xs)
    assert np.abs(ref[::2] - phic_c.values).max() <= 1e-12


# ---------------------------------------------------------------------------
# frequency lattices

def test_xi_lattice_unit_case():
    # u(K) = 1 realizes the textbook case: multiples of 1/3 in [-2, 3)
    flat = TabulatedOsgood((0.0, 10.0), (1.0, 1.0 + 1e-9))
    lat = xi_lattice(DyadicInterval(0, 0), Band(0.0, 1.0), 0.0, flat)
    assert lat.size == 15
    assert np.allclose(np.diff(lat), 1.0 / 3.0)
    assert lat.min() >= -2.0 - 1e-9 and lat.max() < 3.0


def test_xi_lattice_family(params):
    lat = xi_lattice(DyadicInterval(0, 0), Band(0.0, 1.0), 1.0, params)
    spacing = 1.0 / (3.0 * params.u(1.0))
    assert np.allclose(np.diff(lat), spacing)
    expected = 15 * params.u(1.0)
    assert abs(lat.size - expected) <= 2
    with pytest.raises(ValueError):
        xi_lattice(DyadicInterval(0, 0), Band(0.0, 2.0), 1.0, params)


def test_freq_window_for_scale():
    w = freq_window_for_scale(2.4, 1.0, 1.0 / 32.0)
    assert w.length == 1.0
    assert w.lo <= 2.4 - 2.0 / 32.0 and 2.4 + 2.0 / 32.0 <= w.hi
    # a frequency on a grid boundary still finds a shifted window
    w2 = freq_window_for_scale(2.0, 1.0, 1.0 / 32.0)
    assert w2.contains_point(2.0)


def test_xi_H_regimes(params):
    td = TopDatum(DyadicInterval(0, 4), 2.0)  # I = [4, 5)
    uk = params.u(1.0)
    far = xi_H(td, Band(-1.0, -0.5), 1.0, params, 0.25)     # misses 9I
    near = xi_H(td, Band(4.25, 4.5), 2.0, params, 0.25)     # inside 9I
    empty = xi_H(td, Band(-300.0, -299.0), 1.0, params, 0.25)
    swallowed = xi_H(td, Band(0.0, 20.0), 1.0, params, 0.25)  # I inside 3H
    assert empty.size == 0 and swallowed.size == 0
    assert 0 < far.size <= 3 * uk * math.log(uk) * 15
    uk2 = params.u(2.0)
    assert 0 < near.size <= 3 * 2 * uk2 * 15
    for z in (far, near):
        assert np.all(np.diff(z) > 0)
        assert td.xi in z


def test_dedup_freqs():
    z = dedup_freqs(np.array([0.0, 1.0, 1.0 + 1e-12, 2.0]), 1e-9)
    assert z.tolist() == [0.0, 1.0, 2.0]
