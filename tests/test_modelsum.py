import math

import numpy as np
import pytest

from tflab.errors import DegeneracyError
from tflab.modelsum import (bht_direct, coefficient_profile,
                            dilate_band_limited, lambda_direct, model_sum,
                            rescale_check, rescale_tritile, synthesis_profile)
from tflab.packets import PacketBank, TopDatum, canonical_packet
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
    b = (beta[0] - beta[2], beta[1] - beta[2])
    bh = bht_direct(f1, f2, b, g.spacing)
    ref = complex((bh.values * f3.values).sum() * g.spacing)
    assert lam == pytest.approx(ref, rel=1e-9)
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


# ---------------------------------------------------------------------------
# batched engine equivalence

def test_profiles_match_bank(table_fine, wide_grid, wide_bank):
    rng = np.random.default_rng(3)
    f = GridFunction(wide_grid, rng.normal(size=wide_grid.n)
                     + 1j * rng.normal(size=wide_grid.n))
    fhat = np.fft.fft(f.values)
    prof = coefficient_profile(fhat, wide_grid, 0.5, 2.0, 0.25,
                               wide_bank.table)
    td = TopDatum(DyadicInterval(-1, 1), 2.0)
    direct = wide_bank.coefficient(f, td)
    idx = wide_grid.index_of(td.interval.center)
    assert prof[idx] == pytest.approx(direct, abs=1e-12)
    # synthesis: a unit weight at that index reproduces the packet
    w = np.zeros(wide_grid.n, complex)
    w[idx] = 1.0
    syn = synthesis_profile(w, wide_grid, 0.5, 2.0, 0.25, wide_bank.table)
    pk = wide_bank.packet(td).samples
    assert np.abs(syn - pk.values).max() <= 1e-10
