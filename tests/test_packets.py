import math
import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tflab.errors import GridMismatchError, ResolutionError
from tflab.lab import random_collection, random_signal
from tflab.modelsum import coefficient_profile, synthesis_profile
from tflab.osgood import OsgoodParams
from tflab.packets import (XI_EPS, PacketBank, TopDatum, band_rows,
                           canonical_packet, dedup_freqs,
                           freq_window_for_scale, packet_hats, split_meanzero,
                           split_truncate, xi_H, xi_lattice)
from tflab.sampling import Band, DyadicInterval, Grid, GridFunction, lp_norm

from reference import (band_bins_one, canonical_packet_full,
                       coefficient_profile_full, dedup_freqs_loop,
                       inner_product, packet_hat_one, synthesis_profile_full,
                       xi_H_band)


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
    out = np.ones(grid.n, dtype=bool)
    out[band_rows(grid, packet.datum.interval.length, packet.datum.xi,
                  packet.epsilon)[0]] = False
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


def profile(f_hat, g, scale, xi, eps, table, step, r):
    """coefficient_profile's one-row case."""
    band = packet_hats(g, scale, [xi], eps, table)
    return coefficient_profile(f_hat, g, band, step, r)[0]


def synthesis(weights, g, scale, xi, eps, table, r):
    """synthesis_profile's band spectrum of one row, scattered and inverted:
    the synthesis."""
    band = packet_hats(g, scale, [xi], eps, table)
    bins, values = synthesis_profile(weights[None], g, band, r)
    spec = np.zeros(g.n, dtype=complex)
    spec[bins] = values
    return np.fft.ifft(spec) * (g.n / g.length)


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
    # at stride 1 and offset 0 the profiles fold nothing and carry no phase
    # (the full-length builders return None where the profiles raise)
    for a, b in ((_outcome(profile, f_hat, g, scale, xi, eps,
                           table, 1, 0),
                  coefficient_profile_full(f_hat, g, scale, xi, eps, table)),
                 (_outcome(synthesis, weights, g, scale, xi, eps, table, 0),
                  synthesis_profile_full(weights, g, scale, xi, eps, table))):
        assert (a is ResolutionError) == (b is None) == (old is ResolutionError)
        if b is not None:
            assert np.array_equal(a, b)


@settings(max_examples=300, deadline=None)
@given(band=packet_bands())
def test_packet_hat_vanishes_at_half_the_band_argument(table, band):
    # the window spectrum is supported in [-1/2, 1/2]: band_rows keeps
    # exactly the fftfreq indices with |(s/eps)(zeta - xi)| < 1/2, and the
    # full-length spectrum is exactly zero off them
    j, eps, xi = band
    g = SPEC_GRID
    try:
        hat_bins, values, _ = packet_hats(g, 2.0 ** j, xi, eps, table)
    except ResolutionError:
        return
    bins = band_rows(g, 2.0 ** j, xi, eps)[0]
    lam_s = 2.0 ** j / eps
    full_arg = lam_s * (g.freqs() - xi)
    assert np.array_equal(np.sort(bins),
                          np.flatnonzero(np.abs(full_arg) < 0.5))
    assert np.array_equal(hat_bins, bins)
    assert np.any(values != 0.0)
    assert np.all(table.spectrum_at(full_arg[np.abs(full_arg) >= 0.5]) == 0.0)


@st.composite
def band_batches(draw):
    """(scale, eps, frequencies) on SPEC_GRID: eps free or at, just under or
    just over the 4-bin width, and each frequency free or at, just inside or
    just outside either Nyquist edge."""
    g = SPEC_GRID
    scale = 2.0 ** draw(st.integers(-3, 2))
    four = 4 * scale / g.length
    eps = draw(st.one_of(st.floats(1.0 / 64, 1.0), st.sampled_from(
        [e for e in (four, np.nextafter(four, 0), np.nextafter(four, 2))
         if e <= 1])))
    edge = g.nyquist - eps / (2 * scale)
    edges = [sign * e for sign in (-1.0, 1.0)
             for e in (edge, np.nextafter(edge, 0), np.nextafter(edge, np.inf))]
    xis = draw(st.lists(st.one_of(st.floats(-g.nyquist - 1, g.nyquist + 1),
                                  st.sampled_from(edges)),
                        min_size=1, max_size=12))
    return scale, float(eps), [float(x) for x in xis]


def _rows(counts):
    ends = np.cumsum(counts)
    return [slice(e - c, e) for c, e in zip(counts.tolist(), ends.tolist())]


@settings(max_examples=300, deadline=None)
@given(batch=band_batches())
def test_band_rows_match_the_one_frequency_rule(table, batch):
    # each row of the batched band rule and packet spectrum against the
    # one-frequency rule: the same bins, arg bits and unresolvable flags,
    # and the same value bits, so the same norm; one-row calls too
    scale, eps, xis = batch
    g = SPEC_GRID
    bins, arg, counts, fault = band_rows(g, scale, xis, eps)
    first_error, ok = None, []
    for i, (xi, row) in enumerate(zip(xis, _rows(counts))):
        try:
            b, a = band_bins_one(g, scale, xi, eps)
        except ResolutionError as exc:
            assert fault[i] == (1 if "Nyquist" in str(exc) else 2)
            assert counts[i] == 0
            with pytest.raises(ResolutionError, match=re.escape(str(exc))):
                packet_hats(g, scale, xi, eps, table)
            first_error = first_error or str(exc)
            continue
        assert fault[i] == 0
        assert bins[row].tobytes() == b.tobytes()
        assert arg[row].tobytes() == a.tobytes()
        one = band_rows(g, scale, xi, eps)
        assert one[0].tobytes() == b.tobytes()
        assert one[1].tobytes() == a.tobytes()
        ok.append(i)
    if first_error is not None:
        with pytest.raises(ResolutionError, match=re.escape(first_error)):
            packet_hats(g, scale, xis, eps, table)
    if not ok:
        return
    ref = [_outcome(packet_hat_one, g, scale, xis[i], eps, table) for i in ok]
    if ResolutionError in ref:
        with pytest.raises(ResolutionError, match="misses every"):
            packet_hats(g, scale, [xis[i] for i in ok], eps, table)
        return
    hb, hv, hc = packet_hats(g, scale, [xis[i] for i in ok], eps, table)
    for i, row, (b, v) in zip(ok, _rows(hc), ref):
        assert hb[row].tobytes() == b.tobytes()
        assert hv[row].tobytes() == v.tobytes()
        one = packet_hats(g, scale, xis[i], eps, table)
        assert one[0].tobytes() == b.tobytes()
        assert one[1].tobytes() == v.tobytes()


@st.composite
def folded_draws(draw):
    """(grid, scale, eps, xi, step, r): every scale from 4h to L, so the fold
    size n/step runs from n/4 down to 1, and bands that straddle zero, sit
    anywhere on the lattice (wrapping the fold many times), span about four
    bins, or end at or one bin inside Nyquist."""
    log2n = draw(st.integers(4, 12))
    log2l = draw(st.integers(1, 6))
    g = Grid(-2.0 ** (log2l - 1), 2.0 ** (log2l - 1), 2 ** log2n)
    j = draw(st.integers(log2l - log2n + 2, log2l))
    scale = 2.0 ** j
    step = 2 ** (j - log2l + log2n)
    r = draw(st.integers(1, step - 1))
    kind = draw(st.sampled_from(["zero", "free", "nyquist", "four_bins"]))
    if kind == "four_bins":
        eps = min(4 * scale / g.length, 1.0)
        eps = draw(st.sampled_from([e for e in (eps, np.nextafter(eps, 0),
                                                np.nextafter(eps, 2)) if e <= 1]))
    else:
        eps = draw(st.floats(min(max(4 * scale / g.length, 1.0 / 64), 1.0), 1.0))
    if kind == "zero":
        xi = draw(st.floats(-eps / scale, eps / scale))
    elif kind == "nyquist":
        edge = g.nyquist - eps / (2 * scale)
        xi = draw(st.sampled_from([-1.0, 1.0])) * draw(st.sampled_from(
            [edge, np.nextafter(edge, 0), edge - 1 / g.length]))
    else:
        xi = draw(st.floats(-g.nyquist, g.nyquist))
    return g, scale, float(eps), float(xi), step, r


@settings(max_examples=300, deadline=None)
@given(draw=folded_draws(), pos=st.integers(-4, 3), seed=st.integers(0, 2 ** 16))
def test_folded_profiles_match_full_length_builders(table, draw, pos, seed):
    # the folded kernels sampled at the stride against the full-length
    # builders, and canonical packets against theirs, bit for bit
    g, scale, eps, xi, step, r = draw
    td = TopDatum(DyadicInterval(int(math.log2(scale)), pos), xi)
    new = _outcome(canonical_packet, td, eps, table, g)
    old = _outcome(canonical_packet_full, td, eps, table, g)
    if old is ResolutionError:
        assert new is ResolutionError
    else:
        assert np.array_equal(new.samples.values, old.samples.values)

    rng = np.random.default_rng(seed)
    m = g.n // step
    at = r + step * np.arange(m)
    f_hat = np.fft.fft(rng.normal(size=g.n) + 1j * rng.normal(size=g.n))
    weights = rng.normal(size=m) + 1j * rng.normal(size=m)
    spread = np.zeros(g.n, dtype=complex)
    spread[at] = weights
    a = _outcome(profile, f_hat, g, scale, xi, eps, table, step, r)
    b = coefficient_profile_full(f_hat, g, scale, xi, eps, table)
    assert (a is ResolutionError) == (b is None) == (old is ResolutionError)
    if b is not None:
        assert np.abs(a - b[at]).max() <= 1e-12 * np.abs(b[at]).max()
    a = _outcome(synthesis, weights, g, scale, xi, eps, table, r)
    b = synthesis_profile_full(spread, g, scale, xi, eps, table)
    assert (a is ResolutionError) == (b is None)
    if b is not None:
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("n", [2 ** 12, 2 ** 13])
def test_bank_packets_match_full_length_builder_on_suite_grids(table, n):
    # the tree suite's own data: every slot-3 member of its random
    # collections at eps 0.5, on the grids the tree-forest digests pin;
    # equal samples give equal coefficients, which are their inner products
    grid = Grid(-16.0, 16.0, n)
    bank = PacketBank(table, grid, 0.5)
    rng = np.random.default_rng(0)
    tds = []
    for _ in range(3):
        for s in random_collection(rng, grid):
            td = s.tile_datum(3)
            assert np.array_equal(bank.packet(td).samples.values,
                                  canonical_packet_full(td, 0.5, table, grid).samples.values)
            tds.append(td)
    assert len(tds) >= 30
    # the size path's call, data shuffled and some asked twice: translates
    # share their band, and every coefficient keeps its bits
    tds = [tds[i] for i in rng.permutation(len(tds))] + tds[::3]
    assert len({(td.interval.scale, td.xi) for td in tds}) < len(tds) // 2
    f = random_signal(rng, grid)
    want = [inner_product(f, canonical_packet_full(td, 0.5, table, grid).samples)
            for td in tds]
    assert bank.coefficients(f, tds).tobytes() == np.array(want).tobytes()


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


def test_bank_coefficient_needs_the_bank_grid(table, grid):
    # a signal on another grid of the same size is an error, not a number
    bank = PacketBank(table, grid, 0.25)
    other = Grid(grid.x0 + 1.0, grid.x1 + 1.0, grid.n)
    f = GridFunction(other, np.ones(other.n, complex))
    td = TopDatum(DyadicInterval(0, 0), 2.0)
    with pytest.raises(GridMismatchError):
        bank.coefficient(f, td)
    with pytest.raises(GridMismatchError):
        bank.coefficients(f, [td, TopDatum(DyadicInterval(0, 1), 2.0)])
    # no data, nothing to check
    assert bank.coefficients(f, []).shape == (0,)


def test_bank_coefficients_check_data_in_order(table, grid):
    bank = PacketBank(table, grid, 0.25)
    good = TopDatum(DyadicInterval(0, 0), 2.0)
    beyond = TopDatum(DyadicInterval(0, 1), grid.nyquist)  # crosses Nyquist
    f = bank.packet(good).samples
    with pytest.raises(ResolutionError):
        bank.coefficients(f, [good, good, beyond, good])
    # an f on another grid fails at the first datum that resolves
    other = Grid(grid.x0 + 1.0, grid.x1 + 1.0, grid.n)
    g = GridFunction(other, f.values)
    with pytest.raises(GridMismatchError):
        bank.coefficients(g, [good, beyond])
    with pytest.raises(ResolutionError):
        bank.coefficients(g, [beyond, good])


def test_bank_coefficients_reject_a_non_finite_band(table, grid, monkeypatch):
    # the finiteness check runs once per band, on its spectrum and ramp
    bank = PacketBank(table, grid, 0.25)
    td = TopDatum(DyadicInterval(0, 0), 2.0)
    f = bank.packet(td).samples
    monkeypatch.setattr(type(table), "spectrum_at",
                        lambda self, arg: np.full(np.shape(arg), np.nan))
    with pytest.raises(ValueError, match="non-finite"):
        bank.coefficients(f, [td])


def test_bank_holds_no_packets(table, grid):
    bank = PacketBank(table, grid, 0.25)
    td = TopDatum(DyadicInterval(0, 0), 2.0)
    f = bank.packet(td).samples
    assert bank.coefficient(f, td) == pytest.approx(1.0, abs=1e-9)
    # 200 distinct data: whatever the bank kept would outlive the calls
    data = [TopDatum(DyadicInterval(-1, pos), xi)
            for pos in range(-25, 25) for xi in (1.0, 2.0, 3.0, 4.0)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for d in data:
            bank.coefficient(f, d)
        bank.coefficients(f, data)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < f.values.nbytes


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


def test_split_truncate_domain_error_and_clamp(packet, table):
    # a support wider than the domain is an error; nothing clamps it
    with pytest.raises(ValueError, match="exceeds the grid domain"):
        split_truncate(packet, 20.0, table)


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
    flat = types.SimpleNamespace(u=lambda K: 1.0)
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
    far, empty, swallowed = xi_H(
        td, [Band(-1.0, -0.5),      # misses 9I
             Band(-300.0, -299.0),
             Band(0.0, 20.0)],      # I inside 3H
        1.0, params)
    [near] = xi_H(td, [Band(4.25, 4.5)], 2.0, params)  # inside 9I
    assert empty.size == 0 and swallowed.size == 0
    assert 0 < far.size <= 3 * uk * math.log(uk) * 15
    uk2 = params.u(2.0)
    assert 0 < near.size <= 3 * 2 * uk2 * 15
    for z in (far, near):
        assert np.all(np.diff(z) > 0)
        assert td.xi in z
        assert not z.flags.writeable  # bands with equal sets share the array
    assert xi_H(td, [], 1.0, params) == []
    # the band fraction of every decomposition so far: each Xi_Q's bits
    # depend on it
    assert XI_EPS == 1.0 / 16.0


@st.composite
def xi_H_draws(draw):
    """(td, bands, K, params): a top at scale -3..3 and bands at scales
    -9..2, some beside I, some far enough to miss 3u(K)I, some wide enough to
    swallow it, and repeats, so bands share sets.  Besides the real u, a
    dyadic u(K) puts the ends of 3u(K)J on the dyadic grid, where the
    level test's comparisons meet equality."""
    K = draw(st.floats(0.5, 4.0))
    u = draw(st.sampled_from([None, 1.0, 1.5, 4.0]))
    params = (OsgoodParams(1.0) if u is None
              else types.SimpleNamespace(u=lambda t: u))
    I = DyadicInterval(draw(st.integers(-3, 3)), draw(st.integers(-8, 7)))
    td = TopDatum(I, draw(st.floats(-4.0, 4.0)))
    reach = 3.0 * params.u(K) * I.length
    bands = []
    for _ in range(draw(st.integers(1, 16))):
        scale = draw(st.integers(-9, 2))
        center = I.center + draw(st.floats(-1.0, 1.0)) * reach
        q = DyadicInterval(scale, math.floor(center / math.ldexp(1.0, scale)))
        bands.append(q.dilate(draw(st.sampled_from([1.0, 3.0]))))
    bands += bands[:draw(st.integers(0, 3))]
    return td, bands, K, params


@settings(max_examples=300, deadline=None)
@given(xi_H_draws())
def test_xi_H_matches_per_band_loop(draw):
    td, bands, K, params = draw
    got = xi_H(td, bands, K, params)
    assert len(got) == len(bands)
    for z, H in zip(got, bands):
        want = xi_H_band(td, H, K, params)
        assert z.dtype == want.dtype and np.array_equal(z, want)
        assert z.tobytes() == want.tobytes()


def test_dedup_freqs():
    z = dedup_freqs(np.array([0.0, 1.0, 1.0 + 1e-12, 2.0]), 1e-9)
    assert z.tolist() == [0.0, 1.0, 2.0]


@st.composite
def freq_draws(draw):
    """(freqs, tol): scattered points plus chains of near-duplicates, where
    each link is within tol of the one before but the chain outruns it."""
    tol = draw(st.floats(1e-6, 1.0))
    pts = draw(st.lists(st.floats(-50.0, 50.0), max_size=30))
    for _ in range(draw(st.integers(0, 4))):
        z = draw(st.floats(-50.0, 50.0))
        steps = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
        for t in steps:
            z += t * tol  # a gap of exactly tol is a near-duplicate
            pts.append(z)
    pts += pts[:draw(st.integers(0, 3))]  # exact duplicates
    return np.array(pts, dtype=float), tol


@settings(max_examples=300, deadline=None)
@given(freq_draws())
def test_dedup_freqs_matches_greedy_loop(draw):
    freqs, tol = draw
    got = dedup_freqs(freqs, tol)
    want = dedup_freqs_loop(freqs, tol)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_dedup_freqs_chain_keeps_every_point_tol_past_the_last_kept():
    # each link is within tol of the one before; the greedy pass keeps each
    # point that is more than tol past the last point kept
    z = dedup_freqs(0.5 * np.arange(7), 0.75)
    assert z.tolist() == [0.0, 1.0, 2.0, 3.0]
