import warnings

import numpy as np
import pytest

from tflab import cli, lab, mfcz, timefreq
from tflab.cli import build_parser, main
from tflab.sampling import (DyadicInterval, Grid, GridFunction, Report,
                            read_gridfunction_csv, write_gridfunction_csv)


def test_cli_ingham(capsys):
    code = main(["ingham", "--grid-n", "2048", "--x-max", "64"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sandwich: pass" in out


def test_cli_tree_suite(capsys):
    assert main(["tree-suite", "--cases", "3", "--seed", "1"]) == 0
    assert "counting constant" in capsys.readouterr().out
    # no case measures a counting constant, so none is printed
    assert main(["tree-suite", "--cases", "0"]) == 0
    assert capsys.readouterr().out == "0 cases, 0 failures\n"


def test_cli_sweep_emits_reports(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    svg_path = tmp_path / "sweep.svg"
    code = main(["sweep", "--theorem", "T1", "--ratios", "0.5", "0.25",
                 "0.125", "0.0625", "--grid-n", "4096",
                 "--out-csv", str(csv_path), "--out-svg", str(svg_path)])
    assert code == 0
    assert csv_path.exists() and svg_path.exists()
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 5


def test_cli_sweep_writes_svg_without_csv(tmp_path, capsys):
    # each output flag writes its own file
    svg_path = tmp_path / "x.svg"
    code = main(["sweep", "--dyadic", "4", "--grid-n", "4096",
                 "--out-svg", str(svg_path)])
    assert code == 0
    assert svg_path.read_text().startswith("<svg")
    assert [p.name for p in tmp_path.iterdir()] == ["x.svg"]


def test_cli_config_overrides(tmp_path):
    # a flags file seeds the run; a flag after it wins
    flags = tmp_path / "flags.txt"
    flags.write_text("--cases=2\n--seed=9\n")
    assert main(["tree-suite", f"@{flags}"]) == 0
    flags.write_text("--grid-n=4096\n--eps=0.125\n")
    args = build_parser().parse_args(["sweep", f"@{flags}", "--grid-n", "2048"])
    assert (args.grid_n, args.eps) == (2048, 0.125)


@pytest.mark.parametrize("line", ["--set-family=bogus", "--grid-n=4096.5",
                                  "--ratios=0.5x"])
def test_cli_flags_file_usage_error(tmp_path, capsys, line):
    # file values pass through each option's own type and choice checks
    flags = tmp_path / "flags.txt"
    flags.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", f"@{flags}"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "usage: tflab sweep" in err and "error: argument" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["--ratios", "0.5", "nan"],
                                  ["--ratios", "inf", "0.5"],
                                  ["--ratios", "0.5", "--eps", "0"],
                                  # F2 = [0, 1e300) does not fit the domain
                                  ["--ratios", "1e300", "1"]])
def test_cli_bad_sweep_config(capsys, argv):
    assert main(["sweep", *argv, "--grid-n", "4096"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--theorem", "T2", "--alpha", "0", "1", "0"],
    ["--theorem", "T3", "--alpha", "0", "0.5", "0.5"],
    ["--theorem", "C15", "--alpha", "0.5", "1", "-0.5"],
    ["--theorem", "T2", "--alpha", "1", "0", "0"],
    ["--theorem", "T3", "--alpha", "1", "0", "0"],
    ["--theorem", "C15", "--alpha", "1", "0", "0"],
    ["--theorem", "T2", "--alpha", "0.5", "1", "-0.5"],
    ["--theorem", "C15", "--alpha", "-0.25", "0.75", "0.5"],
])
def test_cli_sweep_singular_alpha(capsys, argv):
    # hexagon points where the family or the bound would divide by zero
    # (T2, T3 and C15 need 0 < alpha1 < 1; T2 and C15 also alpha2 < 1)
    assert main(["sweep", *argv, "--ratios", "0.5", "--grid-n", "1024"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "alpha" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--theorem", "T1", "--alpha", "-0.25", "0.75", "0.5"],
    ["--theorem", "T3", "--alpha", "0.8", "-0.3", "0.5"],
])
def test_cli_sweep_runs_a_negative_alpha(capsys, argv):
    # an alpha_j <= 0 leaves its function's level set out of the exceptional set
    assert main(["sweep", *argv, "--dyadic", "3", "--grid-n", "4096"]) == 0
    assert capsys.readouterr().out.count("[ok]") == 3


def test_cli_sweep_alpha_above_one(capsys, monkeypatch):
    # the hexagon's upper bound is exact, and the config checks it before
    # any table is built
    monkeypatch.setattr(lab, "build_ingham",
                        lambda *a, **k: pytest.fail("table built"))
    assert main(["sweep", "--theorem", "T1", "--alpha", "1.0000000000001", "0",
                 "-0.0000000000001", "--dyadic", "3", "--grid-n", "4096"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: alpha (1.0000000000001, 0.0, -1e-13) outside")


@pytest.mark.parametrize("x_max", ["inf", "0",
                                   # 16 x_max samples overflow a float
                                   "1e308", "1e307",
                                   # more window samples than numpy can index
                                   "1e300", "1e30", "1e19"])
def test_cli_ingham_bad_x_max(capsys, x_max):
    assert main(["ingham", "--grid-n", "1024", "--x-max", x_max]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: x_max") and "Traceback" not in err


def test_cli_ingham_kmax(capsys):
    assert main(["ingham", "--grid-n", "1024", "--kmax", "3"]) == 0
    assert capsys.readouterr().out.startswith("k_max=3 ")
    assert main(["ingham", "--grid-n", "1024", "--kmax", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: k_max") and "Traceback" not in err


def test_cli_out_of_memory(monkeypatch, capsys):
    # an allocation that fails is an error line, never a traceback
    def no_memory(*args, **kwargs):
        raise MemoryError()
    monkeypatch.setattr(cli, "build_ingham", no_memory)
    assert main(["ingham", "--grid-n", "1024"]) == 1
    err = capsys.readouterr().err
    assert err == "error: MemoryError\n"


@pytest.mark.parametrize("lam", ["inf", "nan"])
def test_cli_ingham_bad_lam(capsys, lam):
    # rejected before u is evaluated: no inf/inf RuntimeWarning on the way
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["ingham", "--grid-n", "1024", "--lam", lam]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("error: lam") and "Traceback" not in err


def test_cli_tree_suite_negative_cases(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tree-suite", "--cases", "-1"])
    assert exc.value.code == 2
    assert "argument --cases: must be >= 0" in capsys.readouterr().err


def test_cli_oracle_roundtrip(tmp_path):
    g = Grid(-8.0, 8.0, 2 ** 10)
    xs = g.xs()
    f1 = GridFunction(g, np.exp(-xs ** 2) + 0j)
    f2 = GridFunction(g, ((xs >= 0) & (xs < 1)).astype(complex))
    p1, p2, out = (tmp_path / n for n in ("f1.csv", "f2.csv", "out.csv"))
    write_gridfunction_csv(f1, p1)
    write_gridfunction_csv(f2, p2)
    code = main(["oracle", "--f1", str(p1), "--f2", str(p2),
                 "--b1", "1.0", "--b2", "0.0", "--out", str(out)])
    assert code == 0
    res = read_gridfunction_csv(out)
    assert res.grid == g


@pytest.mark.parametrize("flag, value", [
    pytest.param("--h-cut", v, id=v) for v in ("inf", "nan", "0")] + [
    pytest.param("--b1", v, id=f"b1={v}") for v in ("inf", "nan")])
def test_cli_oracle_bad_h_cut(tmp_path, capsys, flag, value):
    # a cutoff that is not finite or is below the grid spacing is an error,
    # never replaced by the default; so is a b that is not finite
    g = Grid(-8.0, 8.0, 2 ** 6)
    sig = tmp_path / "f.csv"
    write_gridfunction_csv(GridFunction(g, np.exp(-g.xs() ** 2) + 0j), sig)
    out = tmp_path / "o.csv"
    assert main(["oracle", "--f1", str(sig), "--f2", str(sig),
                 flag, value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    name = "h_cut" if flag == "--h-cut" else "b "
    assert err.startswith(f"error: {name}") and "Traceback" not in err
    assert not out.exists()


def test_cli_oracle_non_finite_sample(tmp_path, capsys):
    # a signal file holding a nan is an error line, never a traceback or an
    # output built from it
    g = Grid(-8.0, 8.0, 2 ** 6)
    good, bad = tmp_path / "f.csv", tmp_path / "nan.csv"
    write_gridfunction_csv(GridFunction(g, np.exp(-g.xs() ** 2) + 0j), good)
    lines = good.read_text().splitlines()
    x, _, im = lines[4].split(",")
    bad.write_text("\n".join(lines[:4] + [f"{x},nan,{im}"] + lines[5:]) + "\n")
    out = tmp_path / "o.csv"
    assert main(["oracle", "--f1", str(good), "--f2", str(bad),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("row", [
    pytest.param("", id="blank"), pytest.param("0.5,1.0", id="two-values"),
    pytest.param("0.5,1.0,0.0,2.0", id="four-values"),
    pytest.param("0.5,abc,0.0", id="not-a-number"),
    pytest.param("inf,1.0,0.0", id="infinite-x"),
    pytest.param("0.5,1.0,nan", id="nan")])
def test_cli_oracle_malformed_csv_row(tmp_path, capsys, row):
    # each malformed row of a signal file is one error line that names the
    # file and the row's 1-based line, never a traceback
    g = Grid(-8.0, 8.0, 2 ** 6)
    good, bad = tmp_path / "f.csv", tmp_path / "bad.csv"
    write_gridfunction_csv(GridFunction(g, np.exp(-g.xs() ** 2) + 0j), good)
    lines = good.read_text().splitlines()
    bad.write_text("\n".join(lines[:4] + [row] + lines[5:]) + "\n")
    out = tmp_path / "o.csv"
    assert main(["oracle", "--f1", str(good), "--f2", str(bad),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}, line 5: ")
    assert "Traceback" not in err and not out.exists()


def test_cli_sweep_ratios_need_a_value(capsys):
    # an empty --ratios is a usage error, not the default dyadic ratios
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--ratios", "--grid-n", "1024"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --ratios: expected at least one argument" in err


def test_cli_sweep_has_no_seed(capsys):
    # the sweep is deterministic; a --seed flag would change nothing
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_cli_sweep_engine_without_columns(capsys):
    # at n = 64 the engine's scales 4 and 2 keep no column, so no row has a
    # model sum to report
    assert main(["sweep", "--grid-n", "64", "--dyadic", "4"]) == 2
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("delta=")]
    assert len(rows) == 4
    assert all(r.endswith("[resolution-error: the lattice engine keeps no "
                          "column]") for r in rows)


def test_cli_sweep_marks_rows_below_the_spacing(capsys):
    # at n = 2^15, h = 2^-10: F2 = [0, delta) holds one sample for
    # delta = 2^-11 ... 2^-14, so those rows have no grid measure to report
    assert main(["sweep", "--dyadic", "14"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("delta=")]
    assert len(rows) == 14
    assert all(r.endswith("[ok]") for r in rows[:10])
    assert all("[resolution-error: delta = " in r
               and "below the grid spacing 0.000976562]" in r for r in rows[10:])


def _mfcz_argv(tmp_path, grid, params, seed):
    """mfcz arguments for conftest's mfcz_case at this seed."""
    from conftest import mfcz_case
    f, tops, lam = mfcz_case(np.random.default_rng(seed), grid, params)
    sig = tmp_path / "sig.csv"
    write_gridfunction_csv(f, sig)
    td = tops[0]
    spec = f"{td.interval.scale},{td.interval.pos},{td.xi}"
    return ["mfcz", "--signal", str(sig), f"--tops-file={spec}",
            "--lam", str(lam)]


def test_cli_mfcz(tmp_path, grid, params):
    code = main([*_mfcz_argv(tmp_path, grid, params, 0), "--k", "2"])
    assert code == 0


def test_cli_mfcz_p(tmp_path, capsys, grid, params):
    # the maximal function's exponent moves the decomposition; p = 2 is
    # outside [1, 2)
    argv = [*_mfcz_argv(tmp_path, grid, params, 0), "--k", "2"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main([*argv, "--p", "1.5"]) == 0
    assert capsys.readouterr().out != default
    assert main([*argv, "--p", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: p must lie in [1, 2)") and "Traceback" not in err


@pytest.mark.parametrize("grows", [False, True])
def test_cli_mfcz_k_sweep_writes_its_table(tmp_path, capsys, monkeypatch,
                                           grid, params, grows):
    # the README's k-sweep: one stat line per (statistic, k), the slope line,
    # and one CSV row per (k, statistic) carrying the slope; the exit code
    # follows the slope's sign (a sup statistic that grows with k fails)
    if grows:
        verify, calls = mfcz.verify_mfcz, []

        def growing(*args, **kwargs):
            rep = verify(*args, **kwargs)
            calls.append(None)
            return Report(True, {**rep.stats, "stat_sup": 10.0 ** len(calls)})
        monkeypatch.setattr(mfcz, "verify_mfcz", growing)
    out_csv = tmp_path / "diag.csv"
    code = main([*_mfcz_argv(tmp_path, grid, params, 8), "--k", "3",
                 "--k-sweep", "--out-csv", str(out_csv)])
    lines = capsys.readouterr().out.splitlines()
    stats = dict(line.split(" = ") for line in lines[:-1])
    slope = float(stats.pop("slope"))
    assert lines[-1] == (f"decay slope {slope:.3f}: "
                         f"{'FAIL' if grows else 'pass'}")
    assert (slope > 0) == grows and code == (1 if grows else 0)
    header, *rows = out_csv.read_text().splitlines()
    assert header == "k,statistic,value,fitted_constant"
    rows = [r.split(",") for r in rows]
    assert sorted(f"{name}_k{k}" for k, name, _, _ in rows) == sorted(stats)
    assert {k for k, _, _, _ in rows} == {"1", "2", "3"}
    assert all(f"{float(v):.6g}" == stats[f"{name}_k{k}"]
               for k, name, v, _ in rows)
    [fitted] = {r[3] for r in rows}  # the one slope, in every row
    assert f"{float(fitted):.6g}" == f"{slope:.6g}"


@pytest.mark.parametrize("eps", ["0.25", "-1"])
def test_cli_mfcz_eps_needs_k_sweep(tmp_path, capsys, grid, params, eps):
    # --eps sets only the k-sweep's verification packets; a lone
    # decomposition uses the fixed band fraction packets.XI_EPS
    with pytest.raises(SystemExit) as exc:
        main([*_mfcz_argv(tmp_path, grid, params, 0), "--eps", eps])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: tflab" in err and "--eps" in err and "--k-sweep" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, name, value", [
    (["--lam", "nan"], "lam", "nan"),
    (["--lam", "inf"], "lam", "inf"),
    (["--big-c", "inf"], "big_c", "inf"),
    (["--tops-file=0,0,inf"], "top frequency", "inf"),
    (["--tops-file=0,0,nan"], "top frequency", "nan"),
    (["--k-sweep", "--eps", "0"], "eps", "0.0"),
    (["--k-sweep", "--eps", "nan"], "eps", "nan"),
    # one frequency lattice would outgrow the grid: u(K) overflows to inf,
    # or asks for 2.4e16 points
    (["--big-c", "1e306"], "big_c", "1e+306"),
    (["--big-c", "1e12"], "big_c", "1000000000000.0"),
    # --eps sets only the k-sweep's packets, and mfcz_k_sweep checks it
    # before any decomposition; the `=` form reads the same values
    (["--k-sweep", "--eps", "-1"], "eps", "-1.0"),
    (["--k-sweep", "--eps=0"], "eps", "0.0"),
    (["--k-sweep", "--eps", "5"], "eps", "5.0"),
    (["--k-sweep", "--eps=nan"], "eps", "nan"),
    # 2^k must stay a finite float
    (["--k", "1024"], "k", "1024"),
    (["--k", "0"], "k", "0"),
    # K = big_c*k, not the default big_c alone, outgrows the grid
    (["--k", "1023"], "big_c and k", "1.0 and 1023"),
    # each top reads scale,pos,xi
    (["--tops-file=1,2"], "--tops-file", "'1,2'"),
    (["--tops-file=a,b,c"], "--tops-file", "'a,b,c'"),
])
def test_cli_mfcz_bad_value(tmp_path, capsys, grid, params, argv, name, value):
    # the top 0,0,1.0 lies inside 9Q for a selected Q, so nothing downstream
    # would fail: only the value checks can turn these into errors
    from conftest import mfcz_case
    f, _, lam = mfcz_case(np.random.default_rng(0), grid, params)
    sig = tmp_path / "sig.csv"
    write_gridfunction_csv(f, sig)
    assert main(["mfcz", "--signal", str(sig), "--tops-file=0,0,1.0",
                 "--lam", str(lam), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}") and f"got {value}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("k", ["0", "1"])
def test_cli_mfcz_k_sweep_needs_two_k(tmp_path, capsys, grid, params, k):
    # one k value or none leaves no decay slope to fit
    from conftest import mfcz_case
    f, _, lam = mfcz_case(np.random.default_rng(0), grid, params)
    sig = tmp_path / "sig.csv"
    write_gridfunction_csv(f, sig)
    assert main(["mfcz", "--signal", str(sig), "--tops-file=0,0,1.0",
                 "--lam", str(lam), "--k-sweep", "--k", k]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: a k-sweep needs at least two k values")
    assert "Traceback" not in err and "decay slope" not in out


def test_cli_mfcz_out_csv_needs_k_sweep(tmp_path, capsys, grid, params):
    # only a k-sweep has a table to write; a lone decomposition never would
    from conftest import mfcz_case
    f, _, lam = mfcz_case(np.random.default_rng(0), grid, params)
    sig = tmp_path / "sig.csv"
    write_gridfunction_csv(f, sig)
    out = tmp_path / "m.csv"
    with pytest.raises(SystemExit) as exc:
        main(["mfcz", "--signal", str(sig), "--tops-file=0,0,1.0",
              "--lam", str(lam), "--out-csv", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: tflab" in err and "--k-sweep" in err
    assert "Traceback" not in err and not out.exists()


def test_cli_error_exit(tmp_path, capsys):
    assert main(["oracle", "--f1", "missing.csv", "--f2", "missing.csv",
                 "--out", str(tmp_path / "o.csv")]) == 1
    # signals on two grids of one size: a GridMismatchError, not a traceback
    p1, p2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
    for path, x0 in ((p1, -8.0), (p2, -4.0)):
        g = Grid(x0, x0 + 16.0, 2 ** 6)
        write_gridfunction_csv(GridFunction(g, np.exp(-g.xs() ** 2) + 0j), path)
    capsys.readouterr()
    assert main(["oracle", "--f1", str(p1), "--f2", str(p2),
                 "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_threshold_doubling_failure(monkeypatch, capsys):
    # a closure that swallows the whole domain at every threshold: no major
    # subset survives, so exceptional_sets gives up after its doublings
    monkeypatch.setattr(timefreq, "maximal_dyadic_intervals",
                        lambda mask, grid: [DyadicInterval(20, -1)])
    code = main(["sweep", "--theorem", "T1", "--ratios", "0.5",
                 "--grid-n", "4096"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: threshold doubling failed" in err
    assert "Traceback" not in err
