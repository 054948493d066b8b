"""Workload inputs, timed calls and correctness checks of the tflab benchmark.

A workload has two parts:

* ``prepare(seed, out_dir)`` builds the inputs from the seed alone (set-up);
* ``jobs(inputs)`` yields ``(call, check)`` pairs.  ``call()`` is timed and
  only calls the public tflab API; ``check(output)`` runs after it, untimed,
  and turns its output (or the exception it raised) into checked items.
  Each output is dropped once checked, so peak memory is the program's.

An item fails if its call raised, returned a non-ok status or broke its
check.  Seed 0 gives the canonical inputs, and each item carries a digest of
its outputs; at seed 0 the digests must match ``reference_seed0.json``
(discrete values exactly, floats to ``REL_TOL`` relative).

The input generators are the benchmark's own copies, so edits to the tests
cannot shift the benchmark's inputs.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tflab import cli, lab, mfcz, packets, timefreq
from tflab.osgood import OsgoodParams, build_ingham
from tflab.packets import TopDatum
from tflab.sampling import Band, DyadicInterval, Grid, GridFunction, maximal_function
from tflab.timefreq import Tritile

REL_TOL = 1e-9


@dataclass
class Item:
    name: str
    ok: bool
    note: str = ""
    digest: object = None


def _raised(name: str, exc: BaseException) -> Item:
    return Item(name, False, f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# sweeps: the CLI path of acceptance 7

@dataclass
class SweepInputs:
    theorem: str
    seed: int
    ratios: list[float]
    argv: list[str]
    csv_path: Path


def sweep_ratios(exponents, seed: int) -> list[float]:
    """2^-j for each exponent; a non-zero seed scales each by a factor in [1, 2).

    Consecutive exponents differ by at least one, so the scaled ratios stay
    strictly decreasing.
    """
    ratios = [2.0 ** -j for j in exponents]
    if seed:
        factors = np.random.default_rng(seed).uniform(1.0, 2.0, len(ratios))
        ratios = [r * float(f) for r, f in zip(ratios, factors)]
    return ratios


def prepare_sweep(theorem: str, exponents, seed: int, out_dir: Path) -> SweepInputs:
    ratios = sweep_ratios(exponents, seed)
    stem = out_dir / f"sweep-{theorem}-seed{seed}"
    argv = (["sweep", "--theorem", theorem, "--ratios"] + [repr(r) for r in ratios]
            + ["--out-csv", f"{stem}.csv", "--out-svg", f"{stem}.svg"])
    return SweepInputs(theorem, seed, ratios, argv, Path(f"{stem}.csv"))


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def jobs_sweep(inp: SweepInputs):
    inp.csv_path.unlink(missing_ok=True)
    yield functools.partial(_run_cli, inp.argv), functools.partial(check_sweep, inp)


def _fit_rms(d: np.ndarray, y: np.ndarray, reg: np.ndarray) -> float:
    c = float((y * reg).sum() / (reg * reg).sum())
    return float(np.sqrt(np.mean((y - c * reg) ** 2)))


def t1_growth_check(deltas, ratios) -> tuple[bool, str]:
    """Log growth fits better than a power law (exponent >= 0.1); envelope spread <= 10."""
    d, y = np.asarray(deltas, float), np.asarray(ratios, float)
    rms_log = _fit_rms(d, y, np.log(math.e + 1.0 / d))
    e = float(np.polyfit(np.log(1.0 / d), np.log(np.maximum(y, 1e-300)), 1)[0])
    rms_pow = _fit_rms(d, y, d ** -max(e, 0.1))
    env = y / np.log(math.e + 1.0 / d)
    spread = float(env.max() / env.min())
    ok = rms_log < rms_pow and spread <= 10.0
    return ok, f"log rms {rms_log:.4g} vs power rms {rms_pow:.4g}, spread {spread:.3g}"


def check_sweep(inp: SweepInputs, rc) -> list[Item]:
    """One item per row (status ok, finite, major fraction >= 1/4) plus the sweep."""
    names = [f"row{i}" for i in range(len(inp.ratios))] + ["sweep"]
    if isinstance(rc, BaseException):
        return [_raised(n, rc) for n in names]
    items, deltas, ratios = [], [], []
    try:
        with open(inp.csv_path, newline="") as fh:
            for i, r in enumerate(csv.DictReader(fh)):
                vals = [float(r[k]) for k in ("delta", "lambda_model", "lambda_direct",
                                              "bound_rhs", "ratio", "f3_major_fraction")]
                ok = (r["status"] == "ok" and all(map(math.isfinite, vals))
                      and vals[5] >= 0.25)
                items.append(Item(f"row{i}", ok, "" if ok else f"row {r}",
                                  [vals[0], vals[1], vals[2], r["status"]]))
                deltas.append(vals[0])
                ratios.append(vals[4])
    except (OSError, KeyError, ValueError) as exc:
        return [_raised(n, exc) for n in names]
    items += [Item(n, False, "row missing") for n in names[len(items):-1]]
    whole_ok = rc == 0 and deltas == inp.ratios
    note = f"exit code {rc}, {len(deltas)} rows"
    if whole_ok and inp.theorem == "T1" and inp.seed == 0:
        # acceptance 7 pins the growth-law comparison on the dyadic ladder;
        # on seed-scaled ladders the power fit can win (seeds 1 and 3 do)
        whole_ok, note = t1_growth_check(deltas, ratios)
    return items + [Item("sweep", whole_ok, "" if whole_ok else note)]


# ---------------------------------------------------------------------------
# mfcz suite: acceptance 3's cases at n = 2^12, a third as many

MFCZ_CASES = 16
MFCZ_SWEEPS = 2
MFCZ_KS = (1, 2, 3, 4)


@dataclass
class MfczInputs:
    params: OsgoodParams
    table: object
    grid: Grid
    cases: list


def mfcz_case(rng: np.random.Generator, grid: Grid):
    """(f, tops, lam): one dominant bump modulated near the top frequency,
    two small bumps beside it, and a top datum outside the superlevel set."""
    xs = grid.xs()
    xi_top = rng.uniform(1.0, 4.0)
    c0 = rng.uniform(-1.0, 1.0)
    v = (1.5 * np.exp(-((xs - c0) / 1.6) ** 2)
         * np.exp(2j * np.pi * (xi_top + rng.uniform(-1.0, 1.0)) * xs))
    for _ in range(2):
        c = c0 + rng.uniform(-1.0, 1.0)
        v += (rng.uniform(0.2, 0.6) * np.exp(2j * np.pi * rng.uniform())
              * np.exp(-((xs - c) / rng.uniform(0.3, 0.8)) ** 2))
    f = GridFunction(grid, v * (np.abs(xs) < 6))
    side = rng.choice([-1.0, 1.0])
    pos = int(8 * side) if side > 0 else -9
    tops = [TopDatum(DyadicInterval(-1, pos), xi_top)]
    lam = float(np.quantile(maximal_function(f, 1.0).values.real, 0.85))
    return f, tops, lam


def prepare_mfcz(seed: int, out_dir: Path) -> MfczInputs:
    params = OsgoodParams(1.0)
    table = build_ingham(params, grid_n=2 ** 12)
    grid = Grid(-16.0, 16.0, 2 ** 12)
    rng = np.random.default_rng(seed)
    cases = [mfcz_case(rng, grid) for _ in range(MFCZ_CASES + MFCZ_SWEEPS)]
    return MfczInputs(params, table, grid, cases)


def _decompose(inp: MfczInputs, i: int, k: int, verify: bool):
    f, tops, lam = inp.cases[i]
    split = mfcz.mfcz_decompose(f, tops, lam, k, 1.0, inp.params, big_c=0.5)
    return split, (mfcz.verify_mfcz(split, tops, inp.table, levels=3) if verify else None)


def jobs_mfcz(inp: MfczInputs):
    """MFCZ_CASES decompositions (k = 1..4 cycling), then MFCZ_SWEEPS verified k-sweeps."""
    jobs = [(i, 1 + i % 4, False) for i in range(MFCZ_CASES)]
    jobs += [(MFCZ_CASES + s, k, True) for s in range(MFCZ_SWEEPS) for k in MFCZ_KS]
    for i, k, verify in jobs:
        yield (functools.partial(_decompose, inp, i, k, verify),
               functools.partial(check_mfcz, inp.cases[i][0], f"case{i}-k{k}"))


def mfcz_residuals(f: GridFunction, split) -> tuple[float, float]:
    """(relative reconstruction error, worst mean-zero residual over ||f||_1)."""
    grid = f.grid
    recon = float(np.abs(split.reconstruction().values - f.values).max()
                  / np.abs(f.values).max())
    l1 = float(np.abs(f.values).sum() * grid.spacing)
    xs = grid.xs()
    worst = 0.0
    for q, b in split.bad_parts.items():
        z = split.xi_q[q]
        if not z.size:
            continue
        tq = q.dilate(3.0)
        sl = grid.slice_of(tq.lo, tq.hi)
        a = np.exp(-2j * np.pi * np.outer(z, xs[sl]))
        worst = max(worst, float(np.abs(a @ b.values[sl] * grid.spacing).max()))
    return recon, worst / l1


def check_mfcz(f: GridFunction, name: str, out) -> list[Item]:
    if isinstance(out, BaseException):
        return [_raised(name, out)]
    split, rep = out
    recon, mz = mfcz_residuals(f, split)
    ok = recon <= 1e-9 and mz <= 1e-8
    note = f"reconstruction {recon:.2e}, mean-zero {mz:.2e}"
    if rep is not None:
        rep_ok = rep.passed and all(map(math.isfinite, rep.stats.values()))
        ok = ok and rep_ok
        note += f", verify {'ok' if rep_ok else rep.stats}"
    return [Item(name, ok, "" if ok else note,
                 [[q.scale, q.pos] for q in split.q_intervals])]


# ---------------------------------------------------------------------------
# tree-forest: acceptance 4's suites plus f3_decompose on random collections

TREE_GRIDS = (2 ** 12, 2 ** 13)
F3_DRAWS = 30


@dataclass
class TreeInputs:
    seed: int
    table: object
    grid: Grid
    draws: list


def suite_gamma(g1: float = 0.0577) -> np.ndarray:
    """Unit direction with a small first component (the tree suite's choice)."""
    a = (-g1 + math.sqrt(2.0 - 3.0 * g1 * g1)) / 2.0
    gamma = np.array([g1, a, -g1 - a])
    return gamma / np.linalg.norm(gamma)


def candidate_tritiles(rng: np.random.Generator, grid: Grid,
                       scales=(2, 0, -2)) -> list[Tritile]:
    """Unthinned tritiles on one frequency ray at three scales.

    Slot 1 sits at a random xi* at every scale; slots 2 and 3 drift by
    +-w/ell with w = 1/(sqrt(3) g1), so consecutive scales nest.
    """
    gamma = suite_gamma()
    w = 1.0 / (math.sqrt(3.0) * gamma[0])
    xi_star = rng.uniform(-0.75, 0.75)
    cands = []
    for m in scales:
        ell = 2.0 ** m
        centers = [xi_star] + [(gamma[k] / gamma[0]) * xi_star
                               + (w if k == 1 else -w) / ell for k in (1, 2)]
        if max(abs(c) for c in centers) + 0.5 / ell >= 0.8 * grid.nyquist:
            continue
        bands = tuple(Band(c - 0.5 / ell, c + 0.5 / ell) for c in centers)
        span = max(1, int(4.0 / ell))
        take = min(max(2, int(3 * 2 ** -m)), 2 * span)
        for pos in rng.choice(np.arange(-span, span), size=take, replace=False):
            cands.append(Tritile(DyadicInterval(m, int(pos)), bands,
                                 coeff=complex(np.exp(2j * np.pi * rng.uniform()))))
    return cands


def random_signal(rng: np.random.Generator, grid: Grid, n_bumps: int = 5,
                  freq_max: float = 8.0) -> GridFunction:
    xs = grid.xs()
    v = np.zeros(grid.n, dtype=complex)
    for _ in range(n_bumps):
        c = rng.uniform(-4, 4)
        w = rng.uniform(0.3, 2.0)
        v += (rng.uniform(0.3, 1.5) * np.exp(2j * np.pi * rng.uniform())
              * np.exp(-((xs - c) / w) ** 2)
              * np.exp(2j * np.pi * rng.uniform(-freq_max, freq_max) * xs))
    return GridFunction(grid, v)


def prepare_tree(seed: int, out_dir: Path) -> TreeInputs:
    table = build_ingham(OsgoodParams(1.0), grid_n=2 ** 12)
    grid = Grid(-16.0, 16.0, 2 ** 12)
    rng = np.random.default_rng(seed)
    draws = [(candidate_tritiles(rng, grid), random_signal(rng, grid))
             for _ in range(F3_DRAWS)]
    return TreeInputs(seed, table, grid, draws)


def _f3(cands, f, bank):
    S = timefreq.thin_well_discretized(cands, r_const=32.0)
    return S, timefreq.f3_decompose(S, f, bank)


def jobs_tree(inp: TreeInputs):
    """run_tree_suite(seed, 100) at n = 2^12 and 2^13, then the f3 draws
    through one PacketBank."""
    for n in TREE_GRIDS:
        yield (functools.partial(lab.run_tree_suite, inp.seed, 100,
                                 table=inp.table, grid_n=n),
               functools.partial(check_tree_suite, f"suite-n{n}"))
    bank = packets.PacketBank(inp.table, inp.grid, 0.5)
    for d, (cands, f) in enumerate(inp.draws):
        yield (functools.partial(_f3, cands, f, bank),
               functools.partial(check_f3, f"f3-draw{d}"))


def check_tree_suite(name: str, rep) -> list[Item]:
    """Partition, halving and tree validity, as the suite audits them."""
    if isinstance(rep, BaseException):
        return [_raised(name, rep)]
    ok = rep.passed and rep.stats["failures"] == 0 and rep.stats["cases"] == 100
    return [Item(name, ok, "" if ok else "; ".join(rep.notes),
                 [rep.stats["cases"], rep.stats["failures"],
                  rep.stats.get("counting_c_max")])]


def _tritile_key(s: Tritile):
    return (s.space.scale, s.space.pos, tuple((b.lo, b.hi) for b in s.freqs),
            s.coeff)


def check_f3(name: str, out) -> list[Item]:
    """The forests hold every tritile of the collection exactly once."""
    if isinstance(out, BaseException):
        return [_raised(name, out)]
    S, forests = out
    placed = [s for fo in forests for s in fo.tritiles()]
    ok = Counter(map(_tritile_key, placed)) == Counter(map(_tritile_key, S))
    return [Item(name, ok, "" if ok else "f3_decompose partition broken",
                 [[fo.k, len(fo.trees)] for fo in forests])]


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    prepare: object
    jobs: object


WORKLOADS = {
    "sweep-T1": Workload(
        lambda seed, out: prepare_sweep("T1", (2, 4, 6, 8, 10), seed, out), jobs_sweep),
    "sweep-C15": Workload(
        lambda seed, out: prepare_sweep("C15", (10,), seed, out), jobs_sweep),
    "mfcz-suite": Workload(prepare_mfcz, jobs_mfcz),
    "tree-forest": Workload(prepare_tree, jobs_tree),
}


def compare_digest(got, want, rel: float = REL_TOL) -> bool:
    """Floats agree to `rel` relative; everything else matches exactly."""
    if isinstance(want, float) and isinstance(got, (int, float)):
        if math.isnan(want):
            return math.isnan(got)
        return abs(got - want) <= rel * max(abs(want), abs(got))
    if isinstance(want, list) and isinstance(got, (list, tuple)):
        return (len(got) == len(want)
                and all(compare_digest(g, w, rel) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want


def against_reference(items: list[Item], reference: list | None) -> list[Item]:
    """Fail every item whose digest differs from the recorded one."""
    if reference is None:
        return items
    if len(reference) != len(items):
        return [Item(it.name, False, f"{len(items)} items, reference has "
                     f"{len(reference)}", it.digest) for it in items]
    out = []
    for it, want in zip(items, reference):
        if it.ok and not compare_digest(it.digest, want):
            it = Item(it.name, False, "differs from the seed-0 reference", it.digest)
        out.append(it)
    return out
