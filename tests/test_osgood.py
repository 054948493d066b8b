import copy
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import ingham_mass_full, window_samples_matrix
from tflab.errors import ResolutionError
from tflab.osgood import (OsgoodParams, build_ingham, verify_decay,
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
    for lam in (math.inf, math.nan):
        with pytest.raises(ValueError, match="lam must be finite"):
            OsgoodParams(lam)


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


def test_osgood_partial_integral():
    # int_0^inf dt/u(t) = 1, through u itself: t = e^s - e turns it into the
    # integral of e^s/u(e^s - e) over s >= 1, whose tail past s = 600 is
    # 600^-lam for the u-family
    s = np.linspace(1.0, 600.0, 200_001)
    for lam in (0.5, 1.0, 2.0):
        integrand = np.exp(s) / OsgoodParams(lam).u(np.exp(s) - E)
        total = np.trapezoid(integrand, s) + 600.0 ** -lam
        assert abs(total - 1.0) < 1e-3, (lam, total)


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
    # not even 1/u(1) spans half a cell
    with pytest.raises(ResolutionError, match=r"1/u\(1\)"):
        build_ingham(OsgoodParams(20.0), grid_n=16)


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0.05, 30.0), log2_n=st.integers(4, 12),
       k_max=st.none() | st.integers(2, 600))
def test_build_ingham_matches_full_recurrence(lam, log2_n, k_max):
    # the recurrence on v0's support window gives the full-grid mass bit for bit
    params = OsgoodParams(lam)
    try:
        want = ingham_mass_full(params, k_max, 2 ** log2_n)
    except (ValueError, ResolutionError) as e:
        with pytest.raises(type(e), match=re.escape(str(e))):
            build_ingham(params, k_max=k_max, grid_n=2 ** log2_n)
        return
    table = build_ingham(params, k_max=k_max, grid_n=2 ** log2_n)
    assert np.array_equal(table.v0_mass, want[0])
    assert table.k_max == want[1]


@pytest.mark.parametrize("x_max", [0.3, 5.7, 16.0, 100.0, 128.0])
def test_window_samples_match_matrix(params, x_max):
    table = build_ingham(params, grid_n=2 ** 10, x_max=x_max)
    want = window_samples_matrix(table)
    got = table.upsilon.values
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("x_max", [math.inf, math.nan, 0.0, -8.0])
def test_build_ingham_rejects_bad_x_max(params, x_max):
    with pytest.raises(ValueError, match="x_max"):
        build_ingham(params, grid_n=2 ** 10, x_max=x_max)


def test_tables_compare_and_hash_by_identity(params):
    # v0_mass is an array, so field-wise equality could not give one bool
    a = build_ingham(params, grid_n=2 ** 10)
    b = build_ingham(params, grid_n=2 ** 10)
    assert (a == b) is False
    assert a == a and a != b
    assert len({a, b, a}) == 2


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


def with_window(table, values):
    """A copy of `table` whose window samples are `values`."""
    t2 = copy.copy(table)
    vars(t2)["upsilon"] = GridFunction(table.grid, values)
    return t2


def test_decay_zero_function(table):
    t2 = with_window(table, np.zeros(table.grid.n, complex))
    rep = verify_decay(t2, a=0.01, x_max=30.0)
    assert rep.stats["sup_base"] == 0.0


def test_decay_detects_excessive_rate(table, params):
    # a table whose window decays exactly like exp(-U/100) cannot support
    # rate 1: the envelope grows across the doubled window and is flagged
    xs = table.grid.xs()
    slow = np.exp(-params.big_u(xs) / 100.0) + 0j
    t2 = with_window(table, slow)
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


def test_spectrum_at_matches_per_call_edges(table):
    # the edge array is built once per table; values equal the per-call formula
    def per_call(t, xi):
        edges = t.v0_x0 + t.v0_h * np.arange(t.v0_mass.size)
        return (np.interp(3 * xi + 1.5, edges, t.v0_mass)
                - np.interp(3 * xi - 0.5, edges, t.v0_mass))

    rng = np.random.default_rng(3)
    edges = table.v0_x0 + table.v0_h * np.arange(table.v0_mass.size)
    on_edges = np.concatenate([(edges[::97] - 1.5) / 3, (edges[::89] + 0.5) / 3,
                               [-0.5, -1 / 6, 0.0, 1 / 6, 0.5]])
    for xi in (rng.uniform(-1.0, 1.0, 4001), rng.uniform(-40.0, 40.0, 501),
               np.array([-3.0, -1.0, 1.0, 3.0, 1e6]), on_edges):
        assert np.array_equal(table.spectrum_at(xi), per_call(table, xi))
    assert table.spectrum_at(0.1) == per_call(table, 0.1)
    # a replaced table builds its own edges
    t2 = dataclasses.replace(table, v0_x0=table.v0_x0 + 0.25)
    assert np.array_equal(t2.spectrum_at(on_edges), per_call(t2, on_edges))
    assert not np.array_equal(t2.spectrum_at(on_edges), table.spectrum_at(on_edges))
