import numpy as np

from tflab import timefreq
from tflab.cli import main, parse_config
from tflab.sampling import (DyadicInterval, Grid, GridFunction,
                            read_gridfunction_csv, write_gridfunction_csv)


def test_parse_config(tmp_path):
    p = tmp_path / "cfg.toml"
    p.write_text(
        'theorem = "T1"\n'
        "grid-n = 4096   # comment\n"
        "eps = 0.0625\n"
        "ratios = [0.5, 0.25]\n"
        "verbose = true\n"
        "\n")
    cfg = parse_config(p)
    assert cfg == {"theorem": "T1", "grid_n": 4096, "eps": 0.0625,
                   "ratios": [0.5, 0.25], "verbose": True}


def test_cli_ingham(capsys):
    code = main(["ingham", "--grid-n", "2048", "--x-max", "64"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sandwich: pass" in out


def test_cli_tree_suite(capsys):
    assert main(["tree-suite", "--cases", "3", "--seed", "1"]) == 0


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


def test_cli_config_overrides(tmp_path):
    cfg = tmp_path / "c.toml"
    cfg.write_text("cases = 2\nseed = 9\n")
    assert main(["--config", str(cfg), "tree-suite"]) == 0


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


def test_cli_mfcz(tmp_path, grid, params):
    rng = np.random.default_rng(0)
    from conftest import mfcz_case
    f, tops, lam = mfcz_case(rng, grid, params)
    sig = tmp_path / "sig.csv"
    write_gridfunction_csv(f, sig)
    td = tops[0]
    spec = f"{td.interval.scale},{td.interval.pos},{td.xi}"
    code = main(["mfcz", "--signal", str(sig), f"--tops-file={spec}",
                 "--lam", str(lam), "--k", "2"])
    assert code == 0


def test_cli_error_exit(tmp_path):
    assert main(["oracle", "--f1", "missing.csv", "--f2", "missing.csv",
                 "--out", str(tmp_path / "o.csv")]) == 1


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
