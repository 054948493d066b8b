"""Multi-frequency decomposition of a rough signal against a set of top data.

Given f and top data (I, xi) with bounded overlap of the dilated intervals,
the signal splits as f = g + sum_Q b_Q where the Q are maximal dyadic
intervals whose 9-fold dilate sits inside the superlevel set of the maximal
function, g collects local projections onto finitely many exponentials, and
each b_Q is supported on 3Q with vanishing Fourier integrals at the assembled
frequency set Xi_Q.  The projections are grid-exact least squares, so the
reconstruction, support, and mean-zero invariants hold at solver precision.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CountingConditionError, ResolutionError
from .osgood import InghamTable, OsgoodParams
from .packets import PacketBank, TopDatum, dedup_freqs, xi_H
from .sampling import (DyadicInterval, GridFunction, Report, bands_inside,
                       cover_count, local_norm, lp_norm, maximal_function,
                       superlevel_decompose)

log = logging.getLogger(__name__)

#: relative singular-value cutoff of the least-squares projections
RCOND = 1e-8


@dataclass
class MfczSplit:
    """Output of the multi-frequency decomposition."""

    good: GridFunction
    bad_parts: dict[DyadicInterval, GridFunction]
    q_intervals: list[DyadicInterval]
    xi_q: dict[DyadicInterval, np.ndarray]  # read-only; equal sets share one
    exceptional: np.ndarray  # sample mask of the superlevel set E
    diagnostics: dict[str, float] = field(default_factory=dict)

    def bad(self) -> GridFunction:
        g = self.good.grid
        total = np.zeros(g.n, dtype=complex)
        for b in self.bad_parts.values():
            total += b.values
        return GridFunction(g, total)

    def reconstruction(self) -> GridFunction:
        return self.good + self.bad()


def riesz_project(h: np.ndarray, freqs: np.ndarray, spacing: float) -> np.ndarray:
    """L2(window) least-squares projections of h's columns onto span{exp(2 pi i z x)}.

    Each column of the (m, w) array h holds one window's m samples at the
    grid spacing.  On a window starting at x_s, exp(2 pi i z x) =
    exp(2 pi i z x_s) exp(2 pi i z (x - x_s)): its design matrix is the
    window-relative one times unit column phases, so every window spans the
    same space with the same singular values.  One least-squares
    factorization of the window-relative matrix therefore serves every
    column.  Rank deficiency beyond the spectral cutoff RCOND is regularized
    (pseudo-inverse) and logged once per column, never raised.  Returns the
    projections g, shaped like h (zeros when there are no frequencies).
    """
    freqs = np.asarray(freqs, dtype=float)
    if freqs.size == 0:
        return np.zeros_like(h)
    a = np.exp(2j * np.pi * np.outer(spacing * np.arange(h.shape[0]), freqs))
    coef, _, rank, _ = np.linalg.lstsq(a, h, rcond=RCOND)
    if rank < freqs.size:
        for _ in range(h.shape[1]):
            log.info("projection rank %d < %d frequencies; spectral cutoff "
                     "applied", rank, freqs.size)
    return a @ coef


@functools.cache
def _blas_thread_api():
    """(get, set) of the loaded OpenBLAS's thread count, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS at one thread, then restore its count.

    A threaded lstsq splits its sums by the thread count, so the projections'
    bits would depend on the machine.  A no-op when no OpenBLAS is found.
    """
    api = _blas_thread_api()
    if api is None:
        yield
        return
    get, put = api
    old = get()
    put(1)
    try:
        yield
    finally:
        put(old)


def mfcz_decompose(f: GridFunction, tops: list[TopDatum], lam: float, k: int,
                   p: float, params: OsgoodParams, *, big_c: float = 1.0) -> MfczSplit:
    """Split f = g + sum b_Q adapted to the top data at overlap level k.

    K = big_c * k.  The full-strength multiplier is big_c = 1000/a for
    adaptation rate a (10^5 at a = 1/100), which makes the dilated windows
    astronomically long, so the desk default is big_c = 1.  Raises
    CountingConditionError when the dilated top intervals overlap more than
    2^k, and ResolutionError when one frequency lattice would have more points
    than the grid has samples, or a selected 3Q leaves the grid domain.
    """
    if not 1 <= p < 2:
        raise ValueError("p must lie in [1, 2)")
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and positive, got {lam}")
    if not (math.isfinite(big_c) and big_c > 0):
        raise ValueError(f"big_c must be finite and positive, got {big_c}")
    if not 1 <= k <= 1023:  # 2^k must stay a finite float
        raise ValueError(f"k must lie in [1, 1023], got {k}")
    grid = f.grid
    bigk = big_c * k
    with np.errstate(over="ignore"):
        uk = params.u(bigk)
    # one xi_lattice spans 5/|J| at spacing 1/(3 u(K)|J|): 15 u(K) points
    if 15 * uk > grid.n:
        raise ResolutionError(
            f"big_c and k too large for the grid: got {big_c} and {k}, so "
            f"K = big_c*k = {bigk:.6g} and a frequency lattice of 15 u(K) = "
            f"{15 * uk:.3g} points exceeds its {grid.n} samples")

    overlap = cover_count(grid, (td.interval.dilate(3.0 * uk) for td in tops))
    if overlap.max() > 2.0**k:
        raise CountingConditionError(
            f"dilated top intervals overlap {int(overlap.max())} > 2^{k}")

    mpf = maximal_function(f, p)
    qs = superlevel_decompose(mpf, lam)
    exceptional = mpf.values.real > lam

    # tops buried inside 9Q contribute nothing downstream
    live_tops = [td for td in tops
                 if not any(q.dilate(9.0).contains_band(td.interval.band())
                            for q in qs)]

    # Q's samples are those of its f_Q slice, so the partition is exact
    good = f.values * ~grid.mask((q.lo, q.hi) for q in qs)
    xi_q: dict[DyadicInterval, np.ndarray] = {}
    # Q's whose 3Q hold equally many samples and share Xi_Q share one
    # projection space (see riesz_project); each Q is held with its 3Q slice
    groups: dict[tuple[int, bytes], list[tuple[DyadicInterval, slice]]] = {}
    bad: dict[DyadicInterval, GridFunction] = {}
    be_ratios = []
    with _one_blas_thread():
        tqs = [q.dilate(3.0) for q in qs]
        for tq in tqs:
            if tq.lo < grid.x0 - 1e-12 or tq.hi > grid.x1 + 1e-12:
                raise ResolutionError(f"3Q = [{tq.lo}, {tq.hi}) leaves the grid domain")
        # Xi_Q is the union of one set per live top; Q's whose sets agree
        # share one union (one read-only array)
        per_top = [xi_H(td, tqs, bigk, params) for td in live_tops]
        if live_tops:
            finest = 1.0 / (3.0 * uk * max(td.interval.length for td in live_tops))
        unions: dict[tuple[bytes, ...], np.ndarray] = {}
        for i, (q, tq) in enumerate(zip(qs, tqs)):
            pieces = [z[i] for z in per_top if z[i].size]
            key = tuple(z.tobytes() for z in pieces)
            if key not in unions:
                unions[key] = (dedup_freqs(np.concatenate(pieces), finest / 100.0)
                               if pieces else np.array([]))
                unions[key].setflags(write=False)
            freqs = xi_q[q] = unions[key]
            sl = grid.slice_of(tq.lo, tq.hi)
            groups.setdefault((sl.stop - sl.start, freqs.tobytes()), []).append((q, sl))

        for (m, _), group in groups.items():
            freqs = xi_q[group[0][0]]
            # column i: f on Q, zero on the rest of 3Q
            h = np.zeros((m, len(group)), dtype=complex)
            for i, (q, sl) in enumerate(group):
                fq = grid.slice_of(q.lo, q.hi)
                h[fq.start - sl.start:fq.stop - sl.start, i] = f.values[fq]
            g = riesz_project(h, freqs, grid.spacing)
            for i, (q, sl) in enumerate(group):
                good[sl] += g[:, i]
                b = np.zeros(grid.n, dtype=complex)
                b[sl] = h[:, i] - g[:, i]
                bad[q] = GridFunction(grid, b)
                fq_norm = local_norm(f, q.lo, q.hi, p)
                if freqs.size and fq_norm > 0:
                    g_norm = float(np.mean(np.abs(g[:, i]) ** 2) ** 0.5)
                    be_ratios.append(g_norm / (freqs.size ** (1.0 / p - 0.5)
                                               * fq_norm))
    bad_parts = {q: bad[q] for q in qs}

    diagnostics = _diagnostics(f, good, qs, xi_q, live_tops, lam, k, p, uk, be_ratios)
    return MfczSplit(GridFunction(grid, good), bad_parts, qs, xi_q,
                     exceptional, diagnostics)


def _diagnostics(f, good_vals, qs, xi_q, tops, lam, k, p, uk, be_ratios) -> dict:
    d: dict[str, float] = {
        "n_intervals": float(len(qs)),
        "max_xi_count": float(max((z.size for z in xi_q.values()), default=0)),
    }
    # frequency cardinality against u(K)^2 2^k
    d["xi_bound_ratio"] = d["max_xi_count"] / (uk**2 * 2.0**k)
    # good-part L2 bound with the top-interval counting mass
    top_mass = sum(td.interval.length for td in tops)
    g2 = math.sqrt(float((np.abs(good_vals) ** 2).sum()) * f.grid.spacing)
    rhs = (lam ** (2 - p) * lp_norm(f, p) ** (p - 1)
           * (uk**2 * math.log(uk) * top_mass) ** (1.0 / p - 0.5)) if top_mass else 0.0
    d["good_l2"] = g2
    d["good_l2_ratio"] = g2 / rhs if rhs > 0 else 0.0
    if be_ratios:
        d["be_ratio_max"] = float(max(be_ratios))
        d["be_ratio_min"] = float(min(be_ratios))
    return d


def overlap_count(split: MfczSplit) -> int:
    """Maximum pointwise overlap of the tripled selected intervals."""
    bands = (q.dilate(3.0) for q in split.q_intervals)
    return int(cover_count(split.good.grid, bands).max())


# ---------------------------------------------------------------------------
# verification statistics

def _family_intervals(td: TopDatum, levels: int):
    for level in range(levels + 1):
        scale = td.interval.scale - level
        base = td.interval.pos << level
        for pos in range(base, base + (1 << level)):
            yield DyadicInterval(scale, pos)


def verify_mfcz(split: MfczSplit, tops: list[TopDatum], table: InghamTable,
                *, eps: float = 0.25, levels: int = 4) -> Report:
    """Coefficient statistics of the bad part against canonical packet families.

    Computes the sup statistic sup_{J not in E} |<b, phi_J>| / sqrt|J| over
    plain families, and both the L2- and L1-normalized Carleson block sums over
    mean-zero families (centers shifted off the top frequency).  Unresolvable
    scales are skipped and counted.
    """
    if not 0 < eps <= 1:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    grid = split.good.grid
    b = split.bad()
    bank = PacketBank(table, grid, eps)
    skipped = 0
    stat_sup = 0.0
    blocks_l2 = [0.0]
    blocks_l1 = [0.0]
    for td in tops:
        coeffs: dict[DyadicInterval, float] = {}
        family = list(_family_intervals(td, levels))
        in_e = bands_inside(split.exceptional, grid,
                            np.array([J.lo for J in family]),
                            np.array([J.hi for J in family]))
        for J in itertools.compress(family, ~in_e):
            try:
                c_plain = bank.coefficient(b, TopDatum(J, td.xi))
                xi_shift = grid.snap_frequency(td.xi + 1.5 / J.length)
                c_zero = bank.coefficient(b, TopDatum(J, xi_shift))
            except ResolutionError:
                skipped += 1
                continue
            stat_sup = max(stat_sup, abs(c_plain) / math.sqrt(J.length))
            coeffs[J] = abs(c_zero) ** 2
        for j0 in coeffs:
            members = [(J, c2) for J, c2 in coeffs.items() if j0.contains(J)]
            total = sum(c2 for _, c2 in members)
            blocks_l2.append(math.sqrt(total / j0.length))
            # pointwise square function, averaged over J0
            sq = np.zeros(grid.n)
            for J, c2 in members:
                sl = grid.slice_of(J.lo, J.hi)
                sq[sl] += c2 / J.length
            sl0 = grid.slice_of(j0.lo, j0.hi)
            blocks_l1.append(float(np.mean(np.sqrt(sq[sl0]))))
    stats = {
        "stat_sup": stat_sup,
        "stat_block_l2": max(blocks_l2),
        "stat_block_l1": max(blocks_l1),
        "skipped_scales": float(skipped),
    }
    return Report(passed=True, stats=stats)


def sweep_diagnostics_rows(report: Report) -> list[tuple]:
    """(k, statistic, value, fitted constant) rows for CSV export."""
    slope = report.stats.get("slope", math.nan)
    rows = []
    for name, value in sorted(report.stats.items()):
        if "_k" not in name:
            continue
        base, _, knum = name.rpartition("_k")
        rows.append((int(knum), base, value, slope))
    return rows


def mfcz_k_sweep(f: GridFunction, tops: list[TopDatum], table: InghamTable,
                 ks, lam: float, p: float, *, eps: float = 0.25,
                 big_c: float = 1.0, levels: int = 4) -> Report:
    """Runs the decomposition over a k-sweep and fits the decay of the sup statistic.

    Decomposes with table.params and verifies with packets of band fraction eps.
    Passes when log(stat_sup) decreases log-linearly in k (negative LS slope).
    """
    if not 0 < eps <= 1:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    ks = list(ks)
    if len(ks) < 2:
        raise ValueError(f"a k-sweep needs at least two k values to fit a "
                         f"slope, got {ks}")
    stats: dict[str, float] = {}
    values = []
    for k in ks:
        split = mfcz_decompose(f, tops, lam, k, p, table.params, big_c=big_c)
        rep = verify_mfcz(split, tops, table, eps=eps, levels=levels)
        for name, v in rep.stats.items():
            stats[f"{name}_k{k}"] = v
        for name, v in split.diagnostics.items():
            stats[f"{name}_k{k}"] = v
        values.append(rep.stats["stat_sup"])
    floor = 1e-300
    y = np.log(np.maximum(values, floor))
    x = np.asarray(ks, dtype=float)
    slope = float(np.polyfit(x, y, 1)[0])
    stats["slope"] = slope
    notes = [] if all(v > 0 for v in values) else ["zero statistic encountered"]
    return Report(passed=slope < 0, stats=stats, notes=notes)
