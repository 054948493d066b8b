"""Command-line interface: window builds, decompositions, audits, and sweeps.

Subcommands: ingham, mfcz, tree-suite, sweep, oracle.  An argument `@FILE`
expands in place to the arguments in FILE, one per line (`--grid-n=4096`);
flags after it win.  Exit codes: 0 ok, 1 error, 2 empty-result warning or
usage error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from . import lab
from .errors import LabError
from .mfcz import (mfcz_decompose, mfcz_k_sweep, overlap_count,
                   sweep_diagnostics_rows)
from .osgood import OsgoodParams, build_ingham, verify_decay, verify_sandwich
from .packets import TopDatum
from .sampling import (DyadicInterval, read_gridfunction_csv,
                       write_gridfunction_csv)


def _parse_tops(spec: str) -> list[TopDatum]:
    """Top data as 'scale,pos,xi;scale,pos,xi;...'."""
    tops = []
    for part in spec.split(";"):
        if not part.strip():
            continue
        try:
            scale, pos, xi = part.split(",")
            interval, xi = DyadicInterval(int(scale), int(pos)), float(xi)
        except ValueError:
            raise ValueError(f"--tops-file wants parts 'scale,pos,xi' with integer "
                             f"scale and pos; got {part!r}") from None
        if not math.isfinite(xi):
            raise ValueError(f"top frequency must be finite, got {xi}")
        tops.append(TopDatum(interval, xi))
    return tops


def nonnegative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _cmd_ingham(args) -> int:
    params = OsgoodParams(args.lam)
    table = build_ingham(params, k_max=args.kmax, grid_n=args.grid_n,
                         x_max=args.x_max)
    sand = verify_sandwich(table)
    decay = verify_decay(table, x_max=min(50.0, args.x_max / 2))
    print(f"k_max={table.k_max}  sandwich: {'pass' if sand.passed else 'FAIL'} "
          f"(violation {sand.stats['violation']:.3e})")
    print(f"decay envelope: {'pass' if decay.passed else 'FAIL'} "
          f"(sup {decay.stats['sup_base']:.4g}, ratio {decay.stats['ratio']:.3f})")
    if args.out:
        write_gridfunction_csv(table.upsilon, args.out)
        print(f"window samples -> {args.out}")
    return 0 if sand.passed and decay.passed else 1


def _cmd_mfcz(args) -> int:
    f = read_gridfunction_csv(args.signal)
    tops = _parse_tops(args.tops)
    params = OsgoodParams(1.0)
    if args.k_sweep:
        table = build_ingham(params, grid_n=2 ** 12)
        rep = mfcz_k_sweep(f, tops, table, range(1, args.k + 1), args.lam, args.p,
                           eps=0.25 if args.eps is None else args.eps, big_c=args.big_c)
        for name in sorted(rep.stats):
            print(f"{name} = {rep.stats[name]:.6g}")
        print(f"decay slope {rep.stats['slope']:.3f}: "
              f"{'pass' if rep.passed else 'FAIL'}")
        if args.out_csv:
            with open(args.out_csv, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["k", "statistic", "value", "fitted_constant"])
                for k, name, value, fitted in sweep_diagnostics_rows(rep):
                    w.writerow([k, name, repr(value), repr(fitted)])
        return 0 if rep.passed else 1
    split = mfcz_decompose(f, tops, args.lam, args.k, args.p, params,
                           big_c=args.big_c)
    rec = split.reconstruction()
    err = float(np.abs(rec.values - f.values).max())
    print(f"{len(split.q_intervals)} intervals, tripled overlap "
          f"{overlap_count(split)}, reconstruction error {err:.3e}")
    for name, v in sorted(split.diagnostics.items()):
        print(f"{name} = {v:.6g}")
    return 0 if split.q_intervals else 2


def _cmd_tree_suite(args) -> int:
    rep = lab.run_tree_suite(args.seed, args.cases)
    for note in rep.notes:
        print(f"FAIL: {note}")
    stats = rep.stats
    line = f"{int(stats['cases'])} cases, {int(stats['failures'])} failures"
    if "counting_c_max" in stats:
        line += f", counting constant {stats['counting_c_max']:.3g}"
    print(line)
    return 0 if rep.passed else 1


def _cmd_sweep(args) -> int:
    cfg = lab.SweepConfig(
        theorem=args.theorem,
        alpha=tuple(args.alpha) if args.alpha else None,
        set_family=args.set_family,
        ratios=tuple(args.ratios) if args.ratios
        else tuple(2.0 ** -j for j in range(1, args.dyadic + 1)),
        grid_n=args.grid_n, eps=args.eps)
    rows = lab.run_sweep(cfg)
    fits = {}
    try:
        fits["log"] = lab.fit_growth(rows, "log")
        fits["loglog"] = lab.fit_growth(rows, "loglog")
        fits["power"] = lab.fit_growth(rows, "power")
    except ValueError:
        pass
    for r in rows:
        print(f"delta={r.delta:.6g} model={r.lambda_model:.6g} "
              f"direct={r.lambda_direct:.6g} ratio={r.ratio:.6g} [{r.status}]")
    for name, (v, resid) in fits.items():
        print(f"{name} fit: {v:.4g} (rms {resid:.4g})")
    if args.out_csv or args.out_svg:
        return lab.emit_report(rows, fits, args.out_csv, args.out_svg)
    return 0 if any(r.status == "ok" for r in rows) else 2


def _cmd_oracle(args) -> int:
    from .modelsum import bht_direct
    f1 = read_gridfunction_csv(args.f1)
    f2 = read_gridfunction_csv(args.f2)
    out = bht_direct(f1, f2, (args.b1, args.b2), args.h_cut)
    write_gridfunction_csv(out, args.out)
    print(f"oracle output -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tflab", fromfile_prefix_chars="@")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingham", help="build and verify the window table")
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--grid-n", type=int, default=2 ** 14)
    p.add_argument("--x-max", type=float, default=64.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ingham)

    p = sub.add_parser(
        "mfcz", help="multi-frequency decomposition of a CSV signal")
    p.add_argument("--signal", required=True)
    p.add_argument("--tops-file", dest="tops", required=True,
                   help="top data 'scale,pos,xi;...'")
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--eps", type=float, help="k-sweep packets' band fraction (0.25)")
    p.add_argument("--big-c", type=float, default=1.0)
    p.add_argument("--k-sweep", action="store_true",
                   help="run k = 1..K and fit the decay slope")
    p.add_argument("--out-csv")
    p.set_defaults(func=_cmd_mfcz)

    p = sub.add_parser("tree-suite", help="randomized tree/forest audits")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=nonnegative_int, default=25)
    p.set_defaults(func=_cmd_tree_suite)

    p = sub.add_parser("sweep", help="endpoint growth-law sweep")
    p.add_argument("--theorem", choices=lab.THEOREMS, default="T1")
    p.add_argument("--alpha", type=float, nargs=3)
    p.add_argument("--set-family", choices=lab.SET_FAMILIES,
                   default="interval")
    p.add_argument("--ratios", type=float, nargs="+")
    p.add_argument("--dyadic", type=int, default=10,
                   help="use ratios 2^-1 .. 2^-N")
    p.add_argument("--grid-n", type=int, default=2 ** 15)
    p.add_argument("--eps", type=float, default=2.0 ** -4)
    p.add_argument("--out-csv")
    p.add_argument("--out-svg")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("oracle", help="direct p.v. transform of CSV signals")
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)
    p.add_argument("--b1", type=float, default=1.0)
    p.add_argument("--b2", type=float, default=0.0)
    p.add_argument("--h-cut", type=float, help="default: the grid spacing")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_oracle)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "mfcz" and not args.k_sweep:
        for flag, value in (("--out-csv", args.out_csv), ("--eps", args.eps)):
            if value is not None:
                ap.error(f"mfcz {flag} serves only the k-sweep; it needs --k-sweep")
    try:
        return args.func(args)
    except (LabError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
