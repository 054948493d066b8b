import math

import numpy as np
import pytest

from tflab.errors import ResolutionError
from tflab.osgood import (OsgoodParams, TabulatedOsgood, build_ingham,
                          osgood_partial_integral, verify_decay,
                          verify_sandwich)
from tflab.sampling import GridFunction

E = math.e
# (1 + e) * log(1 + e)^2, high-precision reference
U1_AT_1 = 6.412758031536247


def test_eval_u_values(params):
    assert params.u(0.0) == pytest.approx(E, abs=1e-12)
    assert params.u(1.0) == pytest.approx(U1_AT_1, abs=1e-12)
    assert OsgoodParams(2.0).u(0.0) == pytest.approx(E / 2, abs=1e-12)


def test_eval_u_domain_error(params):
    with pytest.raises(ValueError):
        params.u(-0.5)


def test_bad_lambda():
    with pytest.raises(ValueError):
        OsgoodParams(0.0)
    with pytest.raises(ValueError):
        OsgoodParams(-1.0)


def test_eval_U_values(params):
    assert params.big_u(E) == pytest.approx(0.0, abs=1e-9)
    assert params.big_u(params.u(1.0)) == pytest.approx(1.0, abs=1e-10)
    # bisection oracle value, frozen; round-trip check to 1e-10
    v = params.big_u(10.0)
    assert v == pytest.approx(1.7474180761436612, abs=1e-9)
    assert params.u(v) == pytest.approx(10.0, rel=1e-10)
    assert params.big_u(1.0) == 0.0  # inside the zero plateau
    assert params.big_u(-10.0) == params.big_u(10.0)  # even extension


def test_round_trip_log_grid(params):
    xs = np.geomspace(params.u0 * 1.001, 1e8, 64)
    u_of_U = params.u(params.big_u(xs))
    assert np.max(np.abs(u_of_U - xs) / xs) < 1e-9


def test_monotonicity(params):
    t = np.linspace(0, 100, 500)
    assert np.all(np.diff(params.u(t)) > 0)
    x = np.linspace(0, 1000, 500)
    assert np.all(np.diff(params.big_u(x)) >= -1e-12)


def test_subadditivity_surrogate(params):
    # U(theta x) >= theta U(x) - u(0) on random pairs
    rng = np.random.default_rng(0)
    theta = rng.uniform(0, 1, 100)
    x = rng.uniform(0, 1e6, 100)
    lhs = params.big_u(theta * x)
    rhs = theta * params.big_u(x) - params.u0
    assert np.all(lhs >= rhs - 1e-9)


def test_big_u_bounded_by_identity(params):
    x = np.geomspace(1e-3, 1e9, 200)
    assert np.all(params.big_u(x) <= x + 1e-9)


def test_osgood_partial_integral(params):
    rep = osgood_partial_integral(params)
    assert rep.passed
    assert abs(rep.stats["integral"] - 1.0) < 1e-3
    rep2 = osgood_partial_integral(OsgoodParams(2.0))
    assert rep2.passed


def test_b_u_cached(params):
    v = params.b_u(2.0)
    assert v > 0 and math.isfinite(v)
    assert params.tau_cache[2.0] == v
    with pytest.raises(ValueError):
        params.b_u(0.0)


def test_tabulated_osgood():
    ts = np.linspace(0, 10, 50)
    us = 1.0 + ts ** 2
    tab = TabulatedOsgood(tuple(ts), tuple(us))
    assert tab.u(2.0) == pytest.approx(5.0, rel=5e-3)
    assert tab.big_u(5.0) == pytest.approx(2.0, rel=5e-3)
    assert tab.big_u(0.5) == 0.0
    with pytest.raises(ValueError):
        TabulatedOsgood((0.0, 1.0), (2.0, 1.0))


# ---------------------------------------------------------------------------
# window construction

def test_mother_bump_invariants(table, params):
    h0 = table.v0_h
    mass = table.v0_mass
    assert abs(mass[-1] - 1.0) < 1e-8          # unit integral
    density = np.diff(mass) / h0
    assert density.max() <= params.u(1.0) + 1e-6
    edges = table.v0_x0 + h0 * np.arange(mass.size)
    lo = mass[np.searchsorted(edges, 0.0) - 1]
    hi = mass[np.searchsorted(edges, 1.0)]
    assert lo < 1e-10 and hi > 1.0 - 1e-10     # support inside [0, 1]


def test_recurrence_conservation(params):
    # every truncation depth conserves unit mass
    for k_max in (2, 3, 5, 9):
        t = build_ingham(params, k_max=k_max, grid_n=2 ** 10, x_max=16.0)
        assert abs(t.v0_mass[-1] - 1.0) < 1e-8
        assert t.k_max == k_max


def test_explicit_kmax_errors(params):
    with pytest.raises(ValueError):
        build_ingham(params, k_max=1, grid_n=2 ** 10)
    with pytest.raises(ResolutionError):
        build_ingham(params, k_max=10 ** 6, grid_n=2 ** 10)


def test_sandwich(table):
    rep = verify_sandwich(table)
    assert rep.passed
    assert rep.stats["violation"] <= 1e-6
    assert table.spectrum_at(0.0) == pytest.approx(1.0, abs=1e-6)
    assert table.spectrum_at(1.0 / 6.0) == pytest.approx(1.0, abs=1e-6)
    assert table.spectrum_at(0.6) == 0.0


def test_decay_envelope_passes(table):
    rep = verify_decay(table, a=0.01, x_max=30.0)
    assert rep.passed
    assert rep.stats["ratio"] <= 1.1


def test_decay_zero_function(table):
    import dataclasses
    zero = GridFunction(table.grid, np.zeros(table.grid.n, complex))
    t2 = dataclasses.replace(table, upsilon=zero)
    rep = verify_decay(t2, a=0.01, x_max=30.0)
    assert rep.stats["sup_base"] == 0.0


def test_decay_detects_excessive_rate(table, params):
    # a table whose window decays exactly like exp(-U/100) cannot support
    # rate 1: the envelope grows across the doubled window and is flagged
    import dataclasses
    xs = table.grid.xs()
    slow = np.exp(-params.big_u(xs) / 100.0) + 0j
    t2 = dataclasses.replace(table, upsilon=GridFunction(table.grid, slow))
    assert verify_decay(t2, a=0.01, x_max=30.0).passed
    rep = verify_decay(t2, a=1.0, x_max=30.0)
    assert not rep.passed
    assert rep.stats["ratio"] > 1.1


def test_real_window_tail_is_faster_than_claimed(table):
    # at desk windows the actual decay beats exp(-U/100) by a wide margin,
    # so even the a=1 envelope stays flat; the detection logic is exercised
    # on the synthetic table above
    rep = verify_decay(table, a=1.0, x_max=30.0)
    assert rep.passed


def test_table_cache_roundtrip(tmp_path, table):
    from tflab.osgood import load_table, save_table
    path = tmp_path / "table.npz"
    save_table(table, path)
    back = load_table(path)
    assert back.k_max == table.k_max
    assert np.array_equal(back.upsilon.values, table.upsilon.values)
    assert np.array_equal(back.v0_mass, table.v0_mass)
    assert back.spectrum_at(0.1) == table.spectrum_at(0.1)
