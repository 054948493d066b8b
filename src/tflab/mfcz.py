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

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CountingConditionError, ResolutionError
from .osgood import InghamTable, OsgoodParams
from .packets import PacketBank, TopDatum, dedup_freqs, xi_H
from .sampling import (Band, DyadicInterval, GridFunction, IntervalSet, Report,
                       cover_count, local_norm, lp_norm, maximal_function,
                       superlevel_decompose)

log = logging.getLogger(__name__)


@dataclass
class MfczSplit:
    """Output of the multi-frequency decomposition."""

    good: GridFunction
    bad_parts: dict[DyadicInterval, GridFunction]
    q_intervals: list[DyadicInterval]
    xi_q: dict[DyadicInterval, np.ndarray]
    lam: float
    k: int
    p: float
    exceptional: IntervalSet
    diagnostics: dict[str, float] = field(default_factory=dict)

    def bad(self) -> GridFunction:
        g = self.good.grid
        total = np.zeros(g.n, dtype=complex)
        for b in self.bad_parts.values():
            total += b.values
        return GridFunction(g, total)

    def reconstruction(self) -> GridFunction:
        return self.good + self.bad()


def riesz_project(h: GridFunction, window: Band, freqs: np.ndarray,
                  rcond: float = 1e-8) -> tuple[GridFunction, GridFunction]:
    """L2(window) least-squares projection of h onto span{exp(2 pi i z x)}.

    h must vanish outside the window.  Rank deficiency beyond the spectral
    cutoff is regularized (pseudo-inverse) and logged, never raised.
    """
    grid = h.grid
    sl = grid.slice_of(window.lo, window.hi)
    outside = np.abs(np.concatenate([h.values[:sl.start], h.values[sl.stop:]]))
    if outside.size and outside.max() > 1e-12 * (1 + np.abs(h.values).max()):
        raise ValueError("h must be supported inside the projection window")
    freqs = np.asarray(freqs, dtype=float)
    if freqs.size == 0:
        return GridFunction(grid, np.zeros(grid.n, complex)), h
    xs = grid.xs()[sl]
    a = np.exp(2j * np.pi * np.outer(xs, freqs))
    coef, _, rank, _ = np.linalg.lstsq(a, h.values[sl], rcond=rcond)
    if rank < freqs.size:
        log.info("projection rank %d < %d frequencies; spectral cutoff applied",
                 rank, freqs.size)
    gq = np.zeros(grid.n, dtype=complex)
    gq[sl] = a @ coef
    g_q = GridFunction(grid, gq)
    return g_q, h - g_q


def asymptotic_big_c(rate: float) -> float:
    """Full-strength multiplier K = C k with C = 1000/a for adaptation rate a."""
    return 1e3 / rate


def mfcz_decompose(f: GridFunction, tops: list[TopDatum], lam: float, k: int,
                   p: float, params: OsgoodParams, *, eps: float = 0.25,
                   big_c: float = 1.0, rcond: float = 1e-8) -> MfczSplit:
    """Split f = g + sum b_Q adapted to the top data at overlap level k.

    K = big_c * k; the asymptotic multiplier 1000/a makes the dilated windows
    astronomically long, so the desk default is big_c = 1 with the full-strength
    value available through `asymptotic_big_c`.  Raises CountingConditionError when the
    dilated top intervals overlap more than 2^k, and ResolutionError when a
    selected 3Q leaves the grid domain.
    """
    if not 1 <= p < 2:
        raise ValueError("p must lie in [1, 2)")
    if lam <= 0 or k < 1:
        raise ValueError("need lam > 0 and k >= 1")
    grid = f.grid
    bigk = big_c * k
    uk = params.u(bigk)

    overlap = cover_count(grid, (td.interval.dilate(3.0 * uk) for td in tops))
    if overlap.max() > 2.0**k:
        raise CountingConditionError(
            f"dilated top intervals overlap {int(overlap.max())} > 2^{k}")

    mpf = maximal_function(f, p)
    qs = superlevel_decompose(mpf, lam)
    e_mask = mpf.values.real > lam
    exceptional = IntervalSet.from_mask(grid, e_mask)

    # tops buried inside 9Q contribute nothing downstream
    live_tops = [td for td in tops
                 if not any(q.dilate(9.0).contains_band(td.interval.band())
                            for q in qs)]

    good = f.values * ~_union_mask(grid, qs)
    bad_parts: dict[DyadicInterval, GridFunction] = {}
    xi_q: dict[DyadicInterval, np.ndarray] = {}
    be_ratios = []
    for q in qs:
        tq = q.dilate(3.0)
        if tq.lo < grid.x0 - 1e-12 or tq.hi > grid.x1 + 1e-12:
            raise ResolutionError(f"3Q = [{tq.lo}, {tq.hi}) leaves the grid domain")
        pieces = [xi_H(td, tq, bigk, params, eps) for td in live_tops]
        pieces = [z for z in pieces if z.size]
        if pieces:
            finest = 1.0 / (3.0 * uk * max(td.interval.length for td in live_tops))
            freqs = dedup_freqs(np.concatenate(pieces), finest / 100.0)
        else:
            freqs = np.array([])
        xi_q[q] = freqs

        fq_vals = np.zeros(grid.n, dtype=complex)
        sl = grid.slice_of(q.lo, q.hi)
        fq_vals[sl] = f.values[sl]
        fq = GridFunction(grid, fq_vals)
        g_q, b_q = riesz_project(fq, tq, freqs, rcond=rcond)
        good = good + g_q.values
        bad_parts[q] = b_q
        fq_norm = local_norm(f, q.lo, q.hi, p)
        if freqs.size and fq_norm > 0:
            be = (local_norm(g_q, tq.lo, tq.hi, 2.0)
                  / (freqs.size ** (1.0 / p - 0.5) * fq_norm))
            be_ratios.append(be)

    diagnostics = _diagnostics(f, good, qs, xi_q, live_tops, lam, k, p, uk, be_ratios)
    return MfczSplit(GridFunction(grid, good), bad_parts, qs, xi_q,
                     lam, k, p, exceptional, diagnostics)


def _union_mask(grid, qs) -> np.ndarray:
    # index arithmetic identical to the f_Q slices, so the partition is exact
    mask = np.zeros(grid.n, dtype=bool)
    for q in qs:
        mask[grid.slice_of(q.lo, q.hi)] = True
    return mask


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

def _outside(exceptional: IntervalSet, band: Band) -> bool:
    """True when the band is NOT fully covered by the exceptional set."""
    return not any(lo <= band.lo and band.hi <= hi for lo, hi in exceptional.parts)


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
    grid = split.good.grid
    b = split.bad()
    bank = PacketBank(table, grid, eps)
    skipped = 0
    stat_sup = 0.0
    blocks_l2 = [0.0]
    blocks_l1 = [0.0]
    for td in tops:
        coeffs: dict[DyadicInterval, float] = {}
        for J in _family_intervals(td, levels):
            if not _outside(split.exceptional, J.band()):
                continue
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


def mfcz_k_sweep(f: GridFunction, tops: list[TopDatum], params: OsgoodParams,
                 table: InghamTable, ks, lam: float, p: float, *,
                 eps: float = 0.25, big_c: float = 1.0,
                 levels: int = 4) -> Report:
    """Runs the decomposition over a k-sweep and fits the decay of the sup statistic.

    Passes when log(stat_sup) decreases log-linearly in k (negative LS slope).
    """
    ks = list(ks)
    stats: dict[str, float] = {}
    values = []
    for k in ks:
        split = mfcz_decompose(f, tops, lam, k, p, params, eps=eps, big_c=big_c)
        rep = verify_mfcz(split, tops, table, eps=eps, levels=levels)
        for name, v in rep.stats.items():
            stats[f"{name}_k{k}"] = v
        for name, v in split.diagnostics.items():
            stats[f"{name}_k{k}"] = v
        values.append(rep.stats["stat_sup"])
    floor = 1e-300
    y = np.log(np.maximum(values, floor))
    x = np.asarray(ks, dtype=float)
    slope = float(np.polyfit(x, y, 1)[0]) if len(ks) >= 2 else 0.0
    stats["slope"] = slope
    notes = [] if all(v > 0 for v in values) else ["zero statistic encountered"]
    return Report(passed=slope < 0, stats=stats, notes=notes)
