import dataclasses
import math

import numpy as np
import pytest

from tflab.lab import (FIELDS, SweepConfig, SweepRow, cantor_intervals,
                       emit_report, fit_growth, in_hexagon, run_sweep,
                       run_tree_suite, star, suite_direction)


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


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(theorem="T9")
    with pytest.raises(ValueError):
        SweepConfig(ratios=(0.5, 0.5))
    with pytest.raises(ValueError):
        SweepConfig(alpha=(1.5, 0.0, -0.5))
    assert SweepConfig(theorem="C15").resolved_alpha() == (0.75, 0.75, -0.5)


def test_cantor_intervals():
    s = cantor_intervals(0.0, 1.0, 2)
    assert len(s.parts) == 4
    assert s.measure == pytest.approx((2.0 / 3.0) ** 2)


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
                domain=32.0, scale_log2_min=-4, m_xi_max=16,
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


def test_run_sweep_deterministic():
    cfg = small_cfg(ratios=(0.5, 0.25))
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    assert [(r.delta, r.lambda_model, r.lambda_direct) for r in a] == \
        [(r.delta, r.lambda_model, r.lambda_direct) for r in b]


def _same(x, y) -> bool:
    return x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))


def test_run_sweep_threads_match(monkeypatch, tmp_path):
    cfg = small_cfg(ratios=(0.5, 0.25))
    monkeypatch.delenv("TFLAB_THREADS", raising=False)
    serial = run_sweep(cfg)
    monkeypatch.setenv("TFLAB_THREADS", "2")
    parallel = run_sweep(cfg)
    assert len(serial) == len(parallel) == 2
    for a, b in zip(serial, parallel):
        for f in dataclasses.fields(SweepRow):
            assert _same(getattr(a, f.name), getattr(b, f.name)), f.name
    csvs = []
    for name, rows in (("serial", serial), ("parallel", parallel)):
        emit_report(rows, {}, tmp_path / f"{name}.csv", None)
        csvs.append((tmp_path / f"{name}.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_run_sweep_cantor_family():
    rows = run_sweep(small_cfg(theorem="T1", set_family="cantor",
                               ratios=(0.25, 0.125)))
    assert all(r.status == "ok" for r in rows)


def test_tree_suite_runs():
    rep = run_tree_suite(3, 5)
    assert rep.passed
    assert rep.stats["cases"] == 5
