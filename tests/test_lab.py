import contextlib
import math
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (band_energy_mask, coefficient_profile_full,
                       lattice_columns, lattice_evaluate_columns,
                       lattice_evaluate_loop, packet_hat_one,
                       sweep_family_per_row)
from tflab import lab, modelsum, packets, timefreq
from tflab.lab import (DOMAIN, EXC_C0, FIELDS, POS_EXTENT, SET_FAMILIES,
                       THEOREMS, SweepConfig, SweepRow, _bound_rhs, _f1,
                       _family, _LatticeEngine, cantor_intervals, emit_report,
                       fit_growth, in_hexagon, run_sweep, run_tree_suite, star,
                       suite_direction)
from tflab.modelsum import coefficient_profile
from tflab.osgood import InghamTable
from tflab.packets import band_rows, packet_hats
from tflab.sampling import Grid, GridFunction, lp_norm
from tflab.timefreq import exceptional_sets


def rows_from(deltas, ratios):
    return [SweepRow(d, r, r / 2, 1.0, r, 1.0) for d, r in zip(deltas, ratios)]


def test_star():
    assert star(0.0) == pytest.approx(1.0)
    assert star(1.0) == pytest.approx(2.0 * math.log(math.e + 1.0) ** 3)


def test_in_hexagon():
    assert in_hexagon((0.5, 1.0, -0.5))
    assert in_hexagon((1.0 / 3,) * 3)
    assert not in_hexagon((1.2, 0.3, -0.5))
    assert not in_hexagon((0.9, 0.7, -0.6))
    # the upper bound is exact: one ulp above 1 is outside
    assert in_hexagon((1.0, 0.0, 0.0))
    assert not in_hexagon((math.nextafter(1.0, 2.0), 0.0, -2.0 ** -52))


# hexagon edges, their float neighbours, and negative exponents
_ALPHA_EDGES = [1.0, math.nextafter(1.0, 2.0), 1.0 + 4 * 2.0 ** -52, 0.0,
                -0.25, -0.5, -0.5 - 1e-12, -0.5 - 1e-11, 1e-300]


@st.composite
def alpha_triples(draw):
    """(a, b, 1 - a - b) in a random order, a and b edges or any reals."""
    part = st.sampled_from(_ALPHA_EDGES) | st.floats(-0.75, 1.25)
    a, b = draw(part), draw(part)
    triple = (a, b, 1.0 - a - b)
    return tuple(triple[i] for i in draw(st.permutations(range(3))))


@settings(max_examples=300, deadline=None)
@given(alpha_triples())
def test_one_alpha_rule(alpha):
    # a T1 sweep config and the exceptional sets accept exactly the hexagon
    grid = Grid(-4.0, 4.0, 64)
    h1 = GridFunction(grid, grid.mask([(-1.0, 1.0)]) + 0j)
    h2 = GridFunction(grid, grid.mask([(0.0, 0.5)]) + 0j)
    f3 = grid.mask([(0.0, 2.0)])
    for build in (lambda: SweepConfig(theorem="T1", alpha=alpha),
                  lambda: exceptional_sets(h1, h2, f3, alpha)):
        try:
            build()
        except ValueError as exc:
            assert not in_hexagon(alpha) and f"alpha {alpha} " in str(exc)
        else:
            assert in_hexagon(alpha)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(theorem="T9")
    with pytest.raises(ValueError):
        SweepConfig(ratios=(0.5, 0.5))
    with pytest.raises(ValueError):
        SweepConfig(alpha=(1.5, 0.0, -0.5))
    # any other name silently ran the interval family
    with pytest.raises(ValueError, match="set_family"):
        SweepConfig(set_family="Cantor")
    # F2 = [0, delta) must fit the domain [-DOMAIN/2, DOMAIN/2)
    with pytest.raises(ValueError, match="fits the domain"):
        SweepConfig(ratios=(DOMAIN / 2 * 1.5, 1.0))
    assert SweepConfig(ratios=(DOMAIN / 2,)).ratios == (DOMAIN / 2,)
    assert SweepConfig(theorem="C15").alpha == (0.75, 0.75, -0.5)
    # T1 and T3 divide by neither alpha2 nor 1 - alpha2
    assert SweepConfig(theorem="T3", alpha=(0.5, 1.0, -0.5)).alpha[1] == 1.0
    assert SweepConfig(eps=1.0).eps == 1.0
    # the oracle's decimated grid needs a power of two of at least 2 samples
    for oracle_n in (1, 3):
        with pytest.raises(ValueError, match="oracle_n"):
            SweepConfig(oracle_n=oracle_n)
    assert SweepConfig(oracle_n=2).oracle_n == 2


@pytest.mark.parametrize("kwargs", [
    {"ratios": (0.5, math.nan)}, {"ratios": (math.nan,)},
    {"ratios": (math.inf, 0.5)}, {"ratios": (0.5, -math.inf)},
    {"eps": 0.0}, {"eps": -0.25}, {"eps": 2.0}, {"eps": math.nan},
])
def test_sweep_config_rejects_nonfinite_ratios_and_bad_eps(kwargs):
    with pytest.raises(ValueError):
        SweepConfig(**kwargs)


def test_engine_scales_fit_the_domain(table):
    # 4h <= s: at n = 2^8, h = 1/8, so the finest scale is 1/2 and the
    # coarsest, 4, folds to L/s = 8 slots
    cfg = SweepConfig(theorem="C15", ratios=(0.25,), grid_n=2 ** 8,
                      m_xi_max=16)
    grid = Grid(-DOMAIN / 2, DOMAIN / 2, cfg.grid_n)
    f1 = _f1(cfg, grid)
    engine = _LatticeEngine(cfg, grid, table, f1)
    assert engine.scales == [4.0, 2.0, 1.0, 0.5]
    assert engine.blocks
    f2, f3_set, _ = _family(cfg, 0.25, grid)
    _, _, f3_major = exceptional_sets(f1, f2, f3_set, cfg.alpha,
                                      c0=EXC_C0)
    lam, _ = engine.evaluate(f2, f3_major)
    lam_ref = lattice_evaluate_loop(engine, table, f1, f2, f3_major)[0]
    assert lam > 0
    assert abs(lam - lam_ref) <= 1e-12 * lam_ref


def test_cantor_intervals():
    s = cantor_intervals(0.0, 1.0, 2)
    assert len(s) == 4
    assert sum(hi - lo for lo, hi in s) == pytest.approx((2.0 / 3.0) ** 2)


def test_suite_direction():
    beta, gamma = suite_direction()
    assert np.linalg.norm(beta) == pytest.approx(1.0)
    assert abs(beta.sum()) < 1e-9
    assert abs(np.dot(beta, gamma)) < 1e-9


# ---------------------------------------------------------------------------
# growth fits

def test_fit_growth_log_exact():
    deltas = [2.0 ** -j for j in range(1, 9)]
    c0 = 1.7
    ratios = [c0 * math.log(math.e + 1 / d) for d in deltas]
    c, resid = fit_growth(rows_from(deltas, ratios), "log")
    assert c == pytest.approx(c0, abs=1e-6)
    assert resid <= 1e-9


def test_fit_growth_loglog_beats_log_on_loglog_data():
    deltas = [2.0 ** -j for j in range(1, 11)]
    ratios = [2.5 * math.log(math.log(math.e ** math.e + 1 / d))
              for d in deltas]
    rows = rows_from(deltas, ratios)
    _, r_loglog = fit_growth(rows, "loglog")
    _, r_log = fit_growth(rows, "log")
    assert r_loglog < r_log


def test_fit_growth_power_constant_rows():
    deltas = [2.0 ** -j for j in range(1, 9)]
    rows = rows_from(deltas, [3.0] * len(deltas))
    e, resid = fit_growth(rows, "power")
    assert abs(e) <= 1e-6
    e2, _ = fit_growth(rows, "power", min_exponent=0.1)
    assert e2 == 0.1


def test_fit_growth_needs_rows():
    with pytest.raises(ValueError):
        fit_growth(rows_from([0.5, 0.25, 0.125], [1, 2, 3]), "log")
    with pytest.raises(ValueError):
        fit_growth(rows_from([2.0 ** -j for j in range(1, 9)],
                             [1.0] * 8), "cubic")


def test_fit_growth_skips_failed_rows():
    deltas = [2.0 ** -j for j in range(1, 9)]
    rows = rows_from(deltas, [1.0 * math.log(math.e + 1 / d) for d in deltas])
    rows[0].status = "resolution-error: x"
    rows[0].ratio = math.nan
    c, _ = fit_growth(rows, "log")
    assert c == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# report emission

def test_emit_report_rows(tmp_path):
    deltas = [2.0 ** -j for j in range(1, 11)]
    rows = rows_from(deltas, [math.log(math.e + 1 / d) for d in deltas])
    fits = {"log": fit_growth(rows, "log")}
    csv_path = tmp_path / "rows.csv"
    svg_path = tmp_path / "rows.svg"
    code = emit_report(rows, fits, csv_path, svg_path)
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 11
    assert lines[0] == ",".join(FIELDS)
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and "circle" in svg


def test_emit_report_empty(tmp_path):
    csv_path = tmp_path / "empty.csv"
    code = emit_report([], {}, csv_path, tmp_path / "empty.svg")
    assert code == 2
    assert csv_path.read_text().strip() == ",".join(FIELDS)
    assert not (tmp_path / "empty.svg").exists()


def test_emit_report_deterministic(tmp_path):
    deltas = [2.0 ** -j for j in range(1, 6)]
    rows = rows_from(deltas, [1.1, 2.2, 3.3, 4.4, 5.5])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(rows, {}, a, None)
    emit_report(rows, {}, b, None)
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# sweeps (small smoke configurations; the full ones run in acceptance)

def small_cfg(**kw):
    base = dict(ratios=(0.5, 0.25, 0.125, 0.0625), grid_n=2 ** 12,
                scale_log2_min=-4, m_xi_max=16,
                ingham_grid_n=2 ** 11, oracle_n=2 ** 10)
    base.update(kw)
    return SweepConfig(**base)


@pytest.mark.parametrize("theorem", ["T1", "T2", "T3", "C15"])
def test_run_sweep_smoke(theorem):
    rows = run_sweep(small_cfg(theorem=theorem))
    assert len(rows) == 4
    for r in rows:
        assert r.status == "ok"
        assert r.f3_major_fraction >= 0.25
        assert math.isfinite(r.ratio) and r.ratio >= 0
        assert r.lambda_model >= 0 and r.lambda_direct >= 0


def test_run_sweep_never_builds_window_samples(monkeypatch):
    # sweeps read the window through spectrum_at only
    def refuse(self):
        raise AssertionError("run_sweep read InghamTable.upsilon")
    monkeypatch.setattr(InghamTable, "upsilon", property(refuse))
    rows = run_sweep(small_cfg(theorem="C15", ratios=(0.5,)))
    assert [r.status for r in rows] == ["ok"]


def test_run_sweep_deterministic():
    cfg = small_cfg(ratios=(0.5, 0.25))
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    assert [(r.delta, r.lambda_model, r.lambda_direct) for r in a] == \
        [(r.delta, r.lambda_model, r.lambda_direct) for r in b]


def test_run_sweep_cantor_family():
    rows = run_sweep(small_cfg(theorem="T1", set_family="cantor",
                               ratios=(0.25, 0.125)))
    assert all(r.status == "ok" for r in rows)


@settings(max_examples=40, deadline=None)
@given(theorem=st.sampled_from(THEOREMS), set_family=st.sampled_from(SET_FAMILIES),
       log2n=st.integers(10, 13), data=st.data())
def test_bound_rhs_reads_grid_measures(theorem, set_family, log2n, data):
    # |F2| and |F3| enter the growth law as sample count x h, the measure the
    # model sum integrates over, not as the nominal delta
    grid = Grid(-DOMAIN / 2, DOMAIN / 2, 2 ** log2n)
    delta = data.draw(st.floats(grid.spacing, 1.0), label="delta")
    cfg = small_cfg(theorem=theorem, set_family=set_family, ratios=(delta,),
                    grid_n=grid.n)
    [row] = run_sweep(cfg)
    f1 = _f1(cfg, grid)
    f1n = lp_norm(f1, 2.0 if theorem == "T1" else 1.0 / cfg.alpha[0])
    f2, f3_set, f2_set = _family(cfg, delta, grid)
    rhs = _bound_rhs(cfg, f1n, lp_norm(f2, 2.0),
                     np.count_nonzero(f2_set) * grid.spacing,
                     np.count_nonzero(f3_set) * grid.spacing)
    assert row.status == "ok"
    assert row.bound_rhs == rhs
    assert row.ratio == row.lambda_model / rhs


def test_tree_suite_runs():
    rep = run_tree_suite(3, 5)
    assert rep.passed
    assert rep.stats["cases"] == 5


# ---------------------------------------------------------------------------
# the engine's band prune against the full-length mask

def _band_rows(band) -> list:
    """(bins, values) of each ragged row of a `packet_hats` band form."""
    bins, values, counts = band
    assert counts.sum() == bins.size == values.size
    ends = counts.cumsum().tolist()
    return [(bins[e - c:e], values[e - c:e])
            for c, e in zip(counts.tolist(), ends)]


def _engine_columns(engine, table, expected) -> list:
    """The engine's kept columns in order, one (s, step, r, slots, g1) per
    column, after checking the block layout and the held bands: a block holds
    columns of one scale, at most BLOCK_SAMPLES // m of them, the blocks of a
    scale are full but the last, and column i holds the slot-2 and slot-3
    band forms of `packet_hat_one` at its scale and xi2, xi3 = expected[i],
    byte for byte."""
    columns = []
    for i, (s, step, r, slots, band2, band3, g1) in enumerate(engine.blocks):
        rows = max(1, lab.BLOCK_SAMPLES // (engine.grid.n // step))
        last = (i + 1 == len(engine.blocks) or engine.blocks[i + 1][0] != s)
        assert 0 < band2[2].size == band3[2].size == g1.shape[0] <= rows
        assert last or g1.shape[0] == rows
        assert g1.shape[1] == slots.size
        columns += [(s, step, r, slots, g, b2, b3) for g, b2, b3 in
                    zip(g1, _band_rows(band2), _band_rows(band3))]
    assert len(columns) == len(expected)
    for (s, *_, b2, b3), (xi2, xi3) in zip(columns, expected):
        for (bins, values), xi in ((b2, xi2), (b3, xi3)):
            ref_bins, ref_values = packet_hat_one(engine.grid, s, xi,
                                                  engine.cfg.eps, table)
            assert bins.tobytes() == ref_bins.tobytes()
            assert values.tobytes() == ref_values.tobytes()
    return [c[:5] for c in columns]


def _prune_matches_mask(table, f1: GridFunction) -> dict:
    """Assert that the engine keeps, in order, the columns the closed-window
    mask keeps and whose three bands all resolve; return each column's mask
    energy share, keyed by (scale, m)."""
    grid = f1.grid
    cfg = SweepConfig(grid_n=grid.n)
    engine = _LatticeEngine(cfg, grid, table, f1)
    fh1 = np.fft.fft(f1.values)
    power = np.abs(fh1) ** 2
    freqs = grid.freqs()
    share, kept = {}, []
    for s in engine.scales:
        step = round(s / grid.spacing)
        for mxi in range(-cfg.m_xi_max, cfg.m_xi_max + 1):
            xi = [(engine.gamma[j] * mxi + engine.beta[j]) / s for j in range(3)]
            share[s, mxi] = (band_energy_mask(freqs, power, xi[0],
                                              cfg.eps / (2 * s))
                             / float(power.sum()))
            if share[s, mxi] < 1e-12:
                continue
            if any(coefficient_profile_full(fh1, grid, s, x, cfg.eps, table)
                   is None for x in xi):
                continue
            # the translates start at the sample x = -POS_EXTENT
            r = grid.index_of(-POS_EXTENT) % step
            band = packet_hats(grid, s, [xi[0]], cfg.eps, table)
            [g1] = coefficient_profile(fh1, grid, band, step, r)
            kept.append((s, step, r, xi[1], xi[2], g1))
    columns = _engine_columns(engine, table, [k[3:5] for k in kept])
    for (s, step, r, slots, g1), k in zip(columns, kept):
        assert (s, step, r) == k[:3]
        assert np.array_equal(g1, k[5][slots])
    return share


def test_engine_prune_decisions_match_mask(table):
    # every column of a T1-shaped lattice
    grid = Grid(-16.0, 16.0, 2 ** 12)
    f1 = GridFunction(grid, np.exp(-(grid.xs() / 4.0) ** 2) + 0j)
    share = _prune_matches_mask(table, f1)
    assert 0 < sum(v < 1e-12 for v in share.values()) < len(share)


def test_engine_prune_sees_near_threshold_energy(table):
    # f1 is a constant plus two bins of f1's spectrum near the 1e-12
    # threshold, each on an edge bin of one s = 1/2 band that no other band
    # holds: 1.5e-12 on the last bin of a 4-bin band (kept), 0.7e-12 on the
    # first bin of another (pruned).  A prune that read every other bin, or
    # cut at 1e-13 or 2e-12, would decide one of them the other way.
    grid = Grid(-16.0, 16.0, 2 ** 12)
    cfg = SweepConfig(grid_n=grid.n)
    gamma1 = timefreq.gamma_from_beta(np.asarray(timefreq.BETA))[0]
    above, below = (-39, 1.5e-12), (37, 0.7e-12)
    spectrum = np.zeros(grid.n, complex)
    spectrum[0] = 1.0
    edges = {}
    for (mxi, level), end in ((above, -1), (below, 0)):
        bins = band_rows(grid, 0.5, gamma1 * mxi / 0.5, cfg.eps)[0]
        assert bins.size == 4
        edges[mxi] = bins
        spectrum[bins[end]] = np.sqrt(level)
    f1 = GridFunction(grid, np.fft.ifft(spectrum))
    share = _prune_matches_mask(table, f1)
    assert 1e-12 < share[0.5, above[0]] < 2e-12
    assert 1e-13 < share[0.5, below[0]] < 1e-12
    # the kept column's energy sits on its last bin, which bins[::2] misses
    power = np.abs(np.fft.fft(f1.values)) ** 2
    assert power[edges[above[0]][::2]].sum() / power.sum() < 1e-20


# ---------------------------------------------------------------------------
# the engine row against the column-by-column loop

@settings(max_examples=40, deadline=None)
@given(theorem=st.sampled_from(THEOREMS), log2n=st.integers(10, 12),
       ratio=st.floats(2.0 ** -8, 1.0), m_xi_max=st.sampled_from([4, 16, 64]))
def test_engine_matches_column_loop(table, theorem, log2n, ratio, m_xi_max):
    # one inverse FFT of the summed slot-3 spectra against one per column
    cfg = SweepConfig(theorem=theorem, ratios=(ratio,), grid_n=2 ** log2n,
                      m_xi_max=m_xi_max)
    grid = Grid(-DOMAIN / 2, DOMAIN / 2, cfg.grid_n)
    f1 = _f1(cfg, grid)
    engine = _LatticeEngine(cfg, grid, table, f1)
    f2, f3_set, _ = _family(cfg, ratio, grid)
    _, _, f3_major = exceptional_sets(f1, f2, f3_set, cfg.alpha,
                                      c0=EXC_C0)
    synthesis_profile, synthesized = lab.synthesis_profile, []

    def counting(*args):
        synthesized.append(args)
        return synthesis_profile(*args)

    with mock.patch.object(lab, "synthesis_profile", counting):
        lam, f3 = engine.evaluate(f2, f3_major)
    lam_ref, f3_ref, w_ref, synthesized_ref = lattice_evaluate_loop(
        engine, table, f1, f2, f3_major)
    assert abs(lam - lam_ref) <= 1e-12 * abs(lam_ref)
    # one synthesis call per block, one weight row and slot-3 band row per
    # column
    assert len(synthesized) == len(engine.blocks)
    assert all(len(args[0]) == args[2][2].size for args in synthesized)
    assert sum(args[2][2].size for args in synthesized) == synthesized_ref
    assert np.array_equal(f3.values == 0, f3_ref.values == 0)
    big = np.abs(w_ref) >= 1e-9 * np.abs(w_ref).max()
    assert np.all(np.abs(f3.values - f3_ref.values)[big] <= 1e-9)


def _assert_blocks_match_columns(engine, table, f1, f2, mask):
    """The engine's columns, lambda and f3 against the one-column engine of
    `tests/reference.py`, byte for byte."""
    cfg, grid = engine.cfg, engine.grid
    columns = lattice_columns(cfg, grid, table, f1)
    got = _engine_columns(engine, table, [c[4:6] for c in columns])
    for (s, step, r, slots, g1), ref in zip(got, columns):
        assert (s, step, r) == ref[:3]
        assert np.array_equal(slots, ref[3])
        assert g1.tobytes() == ref[6].tobytes()
    lam, f3 = engine.evaluate(f2, mask)
    lam_ref, f3_ref = lattice_evaluate_columns(columns, cfg, grid, table, f2,
                                               mask)
    assert np.float64(lam).tobytes() == np.float64(lam_ref).tobytes()
    assert f3.values.tobytes() == f3_ref.values.tobytes()


@settings(max_examples=40, deadline=None)
@given(theorem=st.sampled_from(["T1", "T3", "C15"]), log2n=st.integers(10, 12),
       ratio=st.floats(2.0 ** -8, 1.0), m_xi_max=st.sampled_from([4, 16, 64]),
       log2_block=st.sampled_from([6, 8, 14]),
       eps=st.sampled_from([2.0 ** -4, 0.5]))
def test_engine_blocks_match_column_engine(table, theorem, log2n, ratio,
                                           m_xi_max, log2_block, eps):
    # the blocks of a scale against one column at a time; a small block cap
    # splits a scale's columns over several blocks (one per block at 2^6).
    # At eps = 1/2 the slot-3 bands of neighbouring columns overlap (their
    # centres are |gamma_3|/s = 0.41/s apart), so a block's spectra must
    # add up bin by bin in column order
    cfg = SweepConfig(theorem=theorem, ratios=(ratio,), grid_n=2 ** log2n,
                      m_xi_max=m_xi_max, eps=eps)
    grid = Grid(-DOMAIN / 2, DOMAIN / 2, cfg.grid_n)
    f1 = _f1(cfg, grid)
    f2, f3_set, _ = _family(cfg, ratio, grid)
    _, _, f3_major = exceptional_sets(f1, f2, f3_set, cfg.alpha,
                                      c0=EXC_C0)
    with mock.patch.object(lab, "BLOCK_SAMPLES", 2 ** log2_block):
        engine = _LatticeEngine(cfg, grid, table, f1)
        if theorem == "C15" and log2_block <= 8:
            # s = 1/2 keeps 9 or more columns, m = 64 slots each
            per_scale = [b[0] for b in engine.blocks]
            assert max(map(per_scale.count, per_scale)) > 1
        _assert_blocks_match_columns(engine, table, f1, f2, f3_major)


def test_engine_blocks_match_column_engine_at_sweep_size(table):
    # the C15 sweep's own size: its finer scales span two or three blocks at
    # the default cap
    cfg = SweepConfig(theorem="C15", ratios=(2.0 ** -10,))
    grid = Grid(-DOMAIN / 2, DOMAIN / 2, cfg.grid_n)
    f1 = _f1(cfg, grid)
    engine = _LatticeEngine(cfg, grid, table, f1)
    per_scale = [b[0] for b in engine.blocks]
    assert max(map(per_scale.count, per_scale)) == 3
    f2, f3_set, _ = _family(cfg, 2.0 ** -10, grid)
    _, _, f3_major = exceptional_sets(f1, f2, f3_set, cfg.alpha,
                                      c0=EXC_C0)
    _assert_blocks_match_columns(engine, table, f1, f2, f3_major)


def test_engine_rows_read_the_bands_held_at_build(table):
    # the build makes one packet_hats call per block and slot; a row makes
    # no band or spectrum call, so with the band rule, the packet spectrum
    # and the window spectrum patched to fail it still gives the bytes of an
    # unpatched engine's row
    cfg = SweepConfig(theorem="C15", ratios=(2.0 ** -4,), grid_n=2 ** 12)
    grid = Grid(-DOMAIN / 2, DOMAIN / 2, cfg.grid_n)
    f1 = _f1(cfg, grid)
    f2, f3_set, _ = _family(cfg, 2.0 ** -4, grid)
    _, _, f3_major = exceptional_sets(f1, f2, f3_set, cfg.alpha, c0=EXC_C0)
    with mock.patch.object(lab, "packet_hats", wraps=packet_hats) as spy:
        engine = _LatticeEngine(cfg, grid, table, f1)
    assert len(engine.blocks) > 1
    assert spy.call_count == 3 * len(engine.blocks)
    lam_ref, f3_ref = _LatticeEngine(cfg, grid, table, f1).evaluate(f2,
                                                                    f3_major)

    def fail(*args, **kwargs):
        raise AssertionError("a row computed a band or a spectrum")

    with contextlib.ExitStack() as stack:
        for module in (packets, lab, modelsum):
            for name in ("packet_hats", "band_rows"):
                if hasattr(module, name):
                    stack.enter_context(mock.patch.object(module, name, fail))
        stack.enter_context(mock.patch.object(InghamTable, "spectrum_at", fail))
        lam, f3 = engine.evaluate(f2, f3_major)
    assert np.float64(lam).tobytes() == np.float64(lam_ref).tobytes()
    assert f3.values.tobytes() == f3_ref.values.tobytes()


@settings(max_examples=25, deadline=None)
@given(theorem=st.sampled_from(THEOREMS), log2n=st.integers(10, 12),
       ratios=st.lists(st.floats(2.0 ** -8, 1.0), min_size=2, max_size=4,
                       unique=True),
       m_xi_max=st.sampled_from([4, 16, 64]))
def test_engine_rows_do_not_depend_on_order(table, theorem, log2n, ratios,
                                            m_xi_max):
    # one engine per sweep, its rows taken in the drawn order, gives each row
    # exactly what a fresh engine built for that row alone gives
    cfg = SweepConfig(theorem=theorem, ratios=tuple(sorted(ratios, reverse=True)),
                      grid_n=2 ** log2n, m_xi_max=m_xi_max)
    grid = Grid(-DOMAIN / 2, DOMAIN / 2, cfg.grid_n)
    f1 = _f1(cfg, grid)
    shared = _LatticeEngine(cfg, grid, table, f1)
    for ratio in ratios:
        f2, f3_set, _ = _family(cfg, ratio, grid)
        _, _, f3_major = exceptional_sets(f1, f2, f3_set, cfg.alpha,
                                          c0=EXC_C0)
        lam, f3 = shared.evaluate(f2, f3_major)
        lam_fresh, f3_fresh = _LatticeEngine(cfg, grid, table, f1).evaluate(
            f2, f3_major)
        assert lam == lam_fresh
        assert np.array_equal(f3.values, f3_fresh.values)


@pytest.mark.parametrize("theorem", ["T1", "T3", "C15"])
def test_sweep_rows_match_rows_that_rebuild_f1_maximal(theorem):
    # f1's maximal function, built once per sweep, gives every row what
    # exceptional_sets gives when it rebuilds it at each row
    cfg = SweepConfig(theorem=theorem, ratios=(0.5, 2.0 ** -3, 2.0 ** -6),
                      grid_n=2 ** 12)
    built, passed = [], []
    maximal_function = timefreq.maximal_function

    def counted(h, p):
        built.append(h)
        return maximal_function(h, p)

    def per_row(*args, h1_maximal=None, **kwargs):
        passed.append(h1_maximal is not None)
        return exceptional_sets(*args, **kwargs)

    with mock.patch.object(timefreq, "maximal_function", counted):
        rows = run_sweep(cfg)
    with mock.patch.object(lab, "exceptional_sets", per_row):
        rebuilt = run_sweep(cfg)
    # the rows built f2's maximal function only
    assert len(built) == len(cfg.ratios)
    assert passed == [True] * len(cfg.ratios)
    assert all(r.status == "ok" for r in rows)
    assert [repr(astuple(r)) for r in rows] == [repr(astuple(r)) for r in rebuilt]


@pytest.mark.parametrize("set_family", ["interval", "cantor"])
@pytest.mark.parametrize("theorem", THEOREMS)
def test_f1_and_family_match_per_row_family(theorem, set_family):
    # f1 built once per sweep and the per-row rest equal the four-tuple that
    # rebuilt f1 at every ratio
    cfg = SweepConfig(theorem=theorem, set_family=set_family)
    grid = Grid(-DOMAIN / 2, DOMAIN / 2, cfg.grid_n)
    f1 = _f1(cfg, grid)
    for delta in cfg.ratios:
        f1_ref, f2_ref, f3_set_ref, f2_set_ref = sweep_family_per_row(
            cfg, delta, grid)
        f2, f3_set, f2_set = _family(cfg, delta, grid)
        assert np.array_equal(f1.values, f1_ref.values)
        assert np.array_equal(f2.values, f2_ref.values)
        assert np.array_equal(f3_set, f3_set_ref)
        assert np.array_equal(f2_set, f2_set_ref)
