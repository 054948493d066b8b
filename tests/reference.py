"""Slow reference implementations that the tests compare the package against.

Each is the straightforward form of a routine the package computes faster or
in one shared place; the tests ask for exact equality where the arithmetic is
unchanged.
"""

import math

import numpy as np

from tflab.errors import ResolutionError
from tflab.lab import (CANTOR_DEPTH, POS_EXTENT, SCALE_LOG2_MAX, _bump,
                       cantor_intervals, random_collection, random_signal)
from tflab.mfcz import RCOND
from tflab.modelsum import _ramp
from tflab.osgood import _box_widths
from tflab.packets import (R_CONST, XI_EPS, TopDatum, WavePacket,
                           canonical_packet, dedup_freqs,
                           freq_window_for_scale, xi_lattice)
from tflab.sampling import (Band, DyadicInterval, Grid, GridFunction,
                            _same_grid, dyadic_cover, grid_dyadic_scales,
                            lp_norm)
from tflab.timefreq import (BETA, HALVING_ROUNDS, Forest, Tree, Tritile,
                            _make_tree, _pair_violations, gamma_from_beta,
                            validate_tree)


def inner_product(f: GridFunction, g: GridFunction) -> complex:
    """Quadrature of f * conj(g) (trapezoid rule, periodic convention)."""
    _same_grid(f, g)
    return complex(np.vdot(g.values, f.values) * f.grid.spacing)


def sliding_max_blocks(a: np.ndarray, m: int) -> np.ndarray:
    """out[i] = max(a[max(0, i-m+1) : i+1]) in O(n) (block prefix/suffix maxima)."""
    n = a.size
    if m <= 1:
        return a.copy()
    pad = (-a.size) % m
    b = np.concatenate([a, np.full(pad, -np.inf)]).reshape(-1, m)
    pref = np.maximum.accumulate(b, axis=1).ravel()[:n]
    suff = np.maximum.accumulate(b[:, ::-1], axis=1)[:, ::-1].ravel()
    out = pref.copy()
    idx = np.arange(n)
    start = idx - m + 1
    valid = start >= 1
    np.maximum(out, np.where(valid, suff[np.maximum(start, 0)], -np.inf), out=out)
    return out


def _maximal_windows(f: GridFunction, p: float, lengths) -> GridFunction:
    """Supremum of the p-averages over the windows of the given sample counts."""
    if p < 1:
        raise ValueError("p must be >= 1")
    a = np.abs(f.values) ** p
    n = f.grid.n
    c = np.concatenate([[0.0], np.cumsum(a)])
    best = np.full(n, -np.inf)
    for m in lengths:
        avg = (c[m:] - c[:-m]) / m
        padded = np.concatenate([avg, np.full(m - 1, -np.inf)]) if m > 1 else avg
        np.maximum(best, sliding_max_blocks(padded, m), out=best)
    return GridFunction(f.grid, best ** (1.0 / p) + 0j)


def maximal_function_blocks(f: GridFunction, p: float) -> GridFunction:
    """The dyadic-lazy maximal function by block prefix/suffix maxima."""
    return _maximal_windows(f, p, [2 ** j for j in range(f.grid.n.bit_length())])


def maximal_function_brute(f: GridFunction, p: float) -> GridFunction:
    """Supremum over ALL grid-aligned windows (O(n^2) time)."""
    return _maximal_windows(f, p, range(1, f.grid.n + 1))


# the Ingham window: the running-mean recurrence over the whole 4x grid, and
# the window samples as one complex matrix-vector product

def ingham_mass_full(params, k_max, grid_n: int):
    """(v0_mass, k_max) of `build_ingham`, each running mean over all 4 grid_n cells."""
    if grid_n < 16 or grid_n & (grid_n - 1):
        raise ValueError("grid_n must be a power of two >= 16")
    M = 4 * grid_n
    h0 = 4.0 / M
    widths = _box_widths(params, h0, k_max)
    v = np.zeros(M)
    i0 = M // 2
    m1 = max(1, int(math.ceil(widths[0] / h0 - 1e-12)))
    v[i0:i0 + m1] = 1.0 / (m1 * h0)
    for w in widths[1:]:
        m = max(1, int(math.ceil(w / h0 - 1e-12)))
        c = np.cumsum(v)
        out = np.empty_like(v)
        out[:m] = c[:m] / m
        out[m:] = (c[m:] - c[:-m]) / m
        v = out
    return np.concatenate([[0.0], np.cumsum(v) * h0]), len(widths)


def window_samples_matrix(table) -> np.ndarray:
    """upsilon(x_j) = sum_k exp(2 pi i x_j xi_k) v(xi_k) dxi, by the full matrix."""
    dxi = 1.0 / (4.0 * table.x_max)
    m_half = int(math.ceil(0.5 / dxi)) + 1
    xi = dxi * np.arange(-m_half, m_half + 1)
    return np.exp(2j * np.pi * np.outer(table.grid.xs(), xi)) @ table.spectrum_at(xi) * dxi


def cover_count_loop(grid: Grid, bands) -> np.ndarray:
    """One boolean mask per band, accumulated sample by sample."""
    xs = grid.xs()
    n = np.zeros(grid.n)
    for b in bands:
        n[(xs >= b.lo) & (xs < b.hi)] += 1.0
    return n


# maximal-dyadic search one interval at a time, each candidate checked against
# every interval accepted so far

def _qualifier(mask: np.ndarray, grid: Grid):
    """Returns a predicate: does [lo, hi) lie in the domain with all samples true."""
    c = np.concatenate([[0], np.cumsum(mask.astype(np.int64))])

    def inside(lo: float, hi: float) -> bool:
        if lo < grid.x0 - 1e-12 or hi > grid.x1 + 1e-12:
            return False
        sl = grid.slice_of(lo, hi)
        cnt = sl.stop - sl.start
        return cnt > 0 and c[sl.stop] - c[sl.start] == cnt

    return inside


def _maximal_dyadic(grid: Grid, qualifies) -> list[DyadicInterval]:
    """Maximal dyadic intervals satisfying a nesting-monotone predicate."""
    out: list[DyadicInterval] = []
    scales = grid_dyadic_scales(grid)
    for scale in reversed(scales):
        for pos in dyadic_cover(grid, scale):
            q = DyadicInterval(scale, pos)
            if any(acc.contains(q) for acc in out):
                continue
            if qualifies(q):
                out.append(q)
    return sorted(out, key=lambda q: q.lo)


def _nine(q: DyadicInterval) -> tuple[float, float]:
    b = q.dilate(9.0)
    return b.lo, b.hi


def superlevel_decompose_loop(g: GridFunction, lam: float) -> list[DyadicInterval]:
    inside = _qualifier(g.values.real > lam, g.grid)
    return _maximal_dyadic(g.grid, lambda q: inside(*_nine(q)))


def maximal_dyadic_intervals_loop(mask: np.ndarray, grid: Grid) -> list[DyadicInterval]:
    inside = _qualifier(np.asarray(mask, dtype=bool), grid)
    return _maximal_dyadic(grid, lambda q: inside(q.lo, q.hi))


# frequency dedup as one greedy pass over numpy scalars, and the Riesz
# projection as one least-squares solve per window in absolute coordinates

def dedup_freqs_loop(freqs: np.ndarray, tol: float) -> np.ndarray:
    freqs = np.sort(np.asarray(freqs, dtype=float))
    if freqs.size == 0:
        return freqs
    keep = [freqs[0]]
    for z in freqs[1:]:
        if z - keep[-1] > tol:
            keep.append(z)
    return np.array(keep)


def riesz_project_window(h: GridFunction, window: Band, freqs: np.ndarray):
    """(g, h - g, rank, singular values) of the L2(window) projection onto
    span{exp(2 pi i z x)}."""
    grid = h.grid
    sl = grid.slice_of(window.lo, window.hi)
    outside = np.abs(np.concatenate([h.values[:sl.start], h.values[sl.stop:]]))
    if outside.size and outside.max() > 1e-12 * (1 + np.abs(h.values).max()):
        raise ValueError("h must be supported inside the projection window")
    freqs = np.asarray(freqs, dtype=float)
    if freqs.size == 0:
        return GridFunction(grid, np.zeros(grid.n, complex)), h, 0, freqs
    xs = grid.xs()[sl]
    a = np.exp(2j * np.pi * np.outer(xs, freqs))
    coef, _, rank, sing = np.linalg.lstsq(a, h.values[sl], rcond=RCOND)
    gq = np.zeros(grid.n, dtype=complex)
    gq[sl] = a @ coef
    g_q = GridFunction(grid, gq)
    return g_q, h - g_q, int(rank), sing


# the frequency set of one datum relative to one interval H, with its level
# test as a loop over the intervals J of each level

def xi_H_band(td: TopDatum, H: Band, K: float, params) -> np.ndarray:
    I = td.interval
    uk = params.u(K)
    if not H.intersects(I.dilate(3.0 * uk)) or H.dilate(3.0).contains_band(I.band()):
        return np.array([])
    freqs = [np.array([td.xi])]
    min_len = H.length / (3.0 * uk)
    cap = math.ldexp(H.length, int(min(10 * K, 60)))
    level = 0
    while True:
        length = I.length * 2.0 ** (-level)
        if length < min_len or length < 1e-12:
            break
        if length <= cap and _level_qualifies(I, level, H, uk):
            scale = I.scale - level
            omega = freq_window_for_scale(td.xi, 1.0 / length, XI_EPS)
            freqs.append(xi_lattice(DyadicInterval(scale, I.pos << level),
                                    omega, K, params))
        level += 1
    out = np.concatenate(freqs)
    finest = 1.0 / (3.0 * uk * I.length)
    return dedup_freqs(out, finest / 100.0)


def _level_qualifies(I: DyadicInterval, level: int, H: Band, uk: float) -> bool:
    """Does some J in D(I) at this level satisfy J not in 3H, H in 3u(K)J?"""
    length = I.length * 2.0 ** (-level)
    base = I.pos << level
    room = 1.5 * uk * length - 0.5 * H.length
    if room < 0:
        return False
    lo = max(I.lo, H.center - room - length)
    hi = min(I.hi, H.center + room + length)
    p0 = max(base, int(math.floor(lo / length)))
    p1 = min(base + (1 << level) - 1, int(math.ceil(hi / length)))
    h3 = H.dilate(3.0)
    for pos in range(p0, p1 + 1):
        J = DyadicInterval(I.scale - level, pos)
        if h3.contains_band(J.band()):
            continue
        if J.dilate(3.0 * uk).contains_band(H):
            return True
    return False


# packet spectra evaluated on every frequency bin, each builder with its own
# band check and normalization

def canonical_packet_full(td: TopDatum, eps: float, table,
                          grid: Grid) -> WavePacket:
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    length = td.interval.length
    bandwidth = eps / length
    if abs(td.xi) + bandwidth / 2 >= grid.nyquist:
        raise ResolutionError("band exceeds Nyquist")
    if bandwidth * grid.length < 4:
        raise ResolutionError("band spans fewer than 4 frequency bins")
    lam_s = length / eps
    zeta = grid.freqs()
    hat = lam_s * table.spectrum_at(lam_s * (zeta - td.xi))
    norm = math.sqrt((hat**2).sum() / grid.length)
    if norm == 0:
        raise ResolutionError("packet band misses every frequency bin")
    hat = (hat / norm) * np.exp(-2j * np.pi * zeta * (td.interval.center - grid.x0))
    vals = np.fft.ifft(hat) * (grid.n / grid.length)
    return WavePacket(td, eps, GridFunction(grid, vals))


def coefficient_profile_full(f_hat, grid: Grid, scale: float, xi: float,
                             eps: float, table):
    zeta = grid.freqs()
    if abs(xi) + eps / (2 * scale) >= grid.nyquist:
        return None
    lam_s = scale / eps
    hat = lam_s * table.spectrum_at(lam_s * (zeta - xi))
    norm2 = (hat**2).sum() / grid.length
    if norm2 <= 0 or (eps / scale) * grid.length < 4:
        return None
    hat /= math.sqrt(norm2)
    return np.fft.ifft(f_hat * grid.spacing * np.conj(hat)) * (grid.n / grid.length)


def synthesis_profile_full(weights, grid: Grid, scale: float, xi: float,
                           eps: float, table):
    zeta = grid.freqs()
    if abs(xi) + eps / (2 * scale) >= grid.nyquist:
        return None
    lam_s = scale / eps
    hat = lam_s * table.spectrum_at(lam_s * (zeta - xi))
    norm2 = (hat**2).sum() / grid.length
    if norm2 <= 0 or (eps / scale) * grid.length < 4:
        return None
    hat /= math.sqrt(norm2)
    return np.fft.ifft(np.fft.fft(weights) * hat) * (grid.n / grid.length)


# the one-frequency band rule and packet spectrum, and the sweep engine one
# folded column at a time on them: its build keeps, per column, (scale,
# step, offset, slots, xi2, xi3, slot-1 coefficients at the slots), and its
# row adds each column's slot-3 spectrum in column order

def band_bins_one(grid: Grid, scale: float, xi: float, eps: float):
    bandwidth = eps / scale
    if abs(xi) + bandwidth / 2 >= grid.nyquist:
        raise ResolutionError(
            f"band at {xi} (width {bandwidth}) exceeds Nyquist {grid.nyquist}")
    if bandwidth * grid.length < 4:
        raise ResolutionError(
            f"band width {bandwidth} spans fewer than 4 frequency bins "
            f"on a grid of length {grid.length}")
    n = grid.n
    lam_s = scale / eps
    dz = 1.0 / (n * grid.spacing)
    k0 = max(math.floor((xi - 0.5 / lam_s) / dz) - 1, -(n // 2))
    k1 = min(math.ceil((xi + 0.5 / lam_s) / dz) + 1, (n - 1) // 2)
    k = np.arange(k0, k1 + 1)
    arg = lam_s * (k * dz - xi)
    band = np.abs(arg) < 0.5
    return k[band] % n, arg[band]


def packet_hat_one(grid: Grid, scale: float, xi: float, eps: float, table):
    bins, arg = band_bins_one(grid, scale, xi, eps)
    values = scale / eps * table.spectrum_at(arg)
    sq = np.zeros(grid.n)
    sq[bins] = values**2
    norm = math.sqrt(sq.sum() / grid.length)
    if norm == 0:
        raise ResolutionError("packet band misses every frequency bin")
    return bins, values / norm


def coefficient_profile_column(f_hat, grid: Grid, scale: float, xi: float,
                               eps: float, table, step: int, r: int):
    bins, hat = packet_hat_one(grid, scale, xi, eps, table)
    m = grid.n // step
    prod = f_hat[bins] * grid.spacing * hat * _ramp(bins, r, grid.n)
    slot = bins % m
    folded = np.empty(m, dtype=complex)
    folded.real = np.bincount(slot, prod.real, m)
    folded.imag = np.bincount(slot, prod.imag, m)
    return np.fft.ifft(folded) * (m / grid.length)


def synthesis_profile_column(weights, grid: Grid, scale: float, xi: float,
                             eps: float, table, r: int):
    bins, hat = packet_hat_one(grid, scale, xi, eps, table)
    w_hat = np.fft.fft(weights)
    return bins, w_hat[bins % weights.size] * hat * np.conj(_ramp(bins, r, grid.n))


def lattice_columns(cfg, grid: Grid, table, f1: GridFunction) -> list:
    beta = np.asarray(BETA, dtype=float)
    gamma = gamma_from_beta(beta)
    fh1 = np.fft.fft(f1.values)
    power = np.abs(fh1) ** 2
    total = float(power.sum())
    lo = int(round((-POS_EXTENT - grid.x0) / grid.spacing))
    hi = int(round((POS_EXTENT - grid.x0) / grid.spacing))
    columns = []
    for s in [2.0 ** j for j in range(SCALE_LOG2_MAX, cfg.scale_log2_min - 1, -1)
              if 4 * grid.spacing <= 2.0 ** j]:
        step = round(s / grid.spacing)
        r = lo % step
        slots = np.arange(lo, hi + 1, step) // step
        for mxi in range(-cfg.m_xi_max, cfg.m_xi_max + 1):
            xi = [(gamma[j] * mxi + beta[j]) / s for j in range(3)]
            try:
                bins, _ = band_bins_one(grid, s, xi[0], cfg.eps)
                if total <= 0 or power[bins].sum() / total < 1e-12:
                    continue
                band_bins_one(grid, s, xi[1], cfg.eps)
                band_bins_one(grid, s, xi[2], cfg.eps)
            except ResolutionError:
                continue
            g1 = coefficient_profile_column(fh1, grid, s, xi[0], cfg.eps,
                                            table, step, r)
            columns.append((s, step, r, slots, xi[1], xi[2], g1[slots]))
    return columns


def lattice_evaluate_columns(columns, cfg, grid: Grid, table,
                             f2: GridFunction, mask: np.ndarray):
    """(lam, aligned f3) of one row over `lattice_columns`."""
    fh2 = np.fft.fft(f2.values)
    spectrum = np.zeros(grid.n, dtype=complex)
    for s, step, r, slots, xi2, xi3, g1 in columns:
        g2 = coefficient_profile_column(fh2, grid, s, xi2, cfg.eps, table,
                                        step, r)
        weights = np.zeros(g2.size, dtype=complex)
        weights[slots] = np.conj(g1 * g2[slots]) * s ** -0.5
        bins, values = synthesis_profile_column(weights, grid, s, xi3, cfg.eps,
                                                table, r)
        spectrum[bins] += values
    w_total = np.fft.ifft(spectrum) * (grid.n / grid.length)
    mag = np.abs(w_total)
    lam = float(mag[mask].sum() * grid.spacing)
    f3 = np.zeros(grid.n, dtype=complex)
    nz = mask & (mag > 0)
    f3[nz] = w_total[nz] / mag[nz]
    f3[mask & ~ (mag > 0)] = 1.0
    return lam, GridFunction(grid, f3)


# the direct oracle one offset at a time on the whole grid, then paired with
# f3; the engine's prune test with one full-length band mask per column, and
# its row with one inverse FFT per column

#: sample points per offset block of `bht_direct_loop` (offsets x grid size)
LOOP_BLOCK = 2 ** 14


def bht_direct_loop(f1: GridFunction, f2: GridFunction, b, h_cut: float,
                    t_max: float | None = None) -> GridFunction:
    """Every offset from h_cut to t_max on the whole grid, in blocks of
    offsets with one 2-D interpolation each, the rows added one at a time
    in ascending offset order."""
    grid = f1.grid
    dt = grid.spacing
    if t_max is None:
        t_max = grid.length / 2
    xs = grid.xs()

    def sample(f: GridFunction, pts: np.ndarray) -> np.ndarray:
        re = np.interp(pts, xs, f.values.real, left=0.0, right=0.0)
        im = np.interp(pts, xs, f.values.imag, left=0.0, right=0.0)
        return re + 1j * im

    i0 = int(math.ceil(h_cut / dt - 0.5))
    i1 = i0  # offsets i0 ... i1 - 1 have t = (i + 1/2) dt <= t_max
    while (i1 + 0.5) * dt <= t_max:
        i1 += 1
    out = np.zeros(grid.n, dtype=complex)
    rows = max(1, LOOP_BLOCK // grid.n)
    for lo in range(i0, i1, rows):
        t = (np.arange(lo, min(lo + rows, i1)) + 0.5)[:, None] * dt
        plus = sample(f1, xs - b[0] * t) * sample(f2, xs - b[1] * t)
        minus = sample(f1, xs + b[0] * t) * sample(f2, xs + b[1] * t)
        for row in (plus - minus) * (dt / t):
            out += row
    return GridFunction(grid, out)


def lambda_direct_full(f1: GridFunction, f2: GridFunction, f3: GridFunction,
                       beta, h_cut=None, t_max=None) -> complex:
    beta = np.asarray(beta, dtype=float)
    grid = f1.grid
    if h_cut is None:
        h_cut = grid.spacing
    b = (beta[0] - beta[2], beta[1] - beta[2])
    bh = bht_direct_loop(f1, f2, b, h_cut, t_max)
    return complex((bh.values * f3.values).sum() * grid.spacing)


def band_energy_mask(freqs: np.ndarray, power: np.ndarray, xi: float,
                     radius: float) -> float:
    band = np.abs(freqs - xi) <= radius
    return float(power[band].sum())


def sweep_family_per_row(cfg, delta: float, grid: Grid):
    """(f1, f2, F3 mask, F2 mask) of one sweep row, f1 rebuilt at every ratio."""
    a1 = cfg.alpha[0]
    if cfg.set_family == "cantor":
        scale = 1.5 ** CANTOR_DEPTH
        f2_set = grid.mask(cantor_intervals(0.0, min(delta * scale, 2.0),
                                            CANTOR_DEPTH))
    else:
        f2_set = grid.mask([(0.0, delta)])
    f3_set = grid.mask([(0.0, 1.0)])
    if cfg.theorem == "T1":
        f1 = _bump(grid, 4.0, 2.0)
        f2 = GridFunction(grid, f2_set + 0j)
        return f1, f2, f3_set, f2_set
    if cfg.theorem == "T2":
        f1 = _bump(grid, 4.0, 1.0 / a1)
        f2 = GridFunction(grid, f2_set + 0j)
        return f1, f2, f3_set, f2_set
    if cfg.theorem == "T3":
        f3_set = grid.mask([(0.0, delta)])
        f1 = _bump(grid, 4.0, 1.0 / a1)
        f2 = _bump(grid, 2.0, 2.0)
        return f1, f2, f3_set, f2_set
    # C15: all three restricted
    f1 = GridFunction(grid, grid.mask([(0.0, 1.0)]) + 0j)
    f2 = GridFunction(grid, f2_set + 0j)
    return f1, f2, f3_set, f2_set


def lattice_evaluate_loop(engine, table, f1: GridFunction, f2: GridFunction,
                          mask: np.ndarray):
    """The sweep engine's row with space-domain synthesis, one inverse FFT per
    synthesized column: (lam, aligned f3, slot-3 synthesis, columns synthesized);
    `mask` holds the major subset's samples."""
    grid, cfg = engine.grid, engine.cfg
    h = grid.spacing
    fh1 = np.fft.fft(f1.values)
    fh2 = np.fft.fft(f2.values)
    freqs = grid.freqs()
    power = np.abs(fh1) ** 2
    total = float(power.sum())
    w_total = np.zeros(grid.n, dtype=complex)
    synthesized = 0
    for s in engine.scales:
        step = int(round(s / h))
        lo = int(round((-POS_EXTENT - grid.x0) / h))
        hi = int(round((POS_EXTENT - grid.x0) / h))
        idx = np.arange(lo, hi + 1, step) % grid.n
        for mxi in range(-cfg.m_xi_max, cfg.m_xi_max + 1):
            xi = [(engine.gamma[j] * mxi + engine.beta[j]) / s for j in range(3)]
            if (total <= 0 or band_energy_mask(freqs, power, xi[0],
                                               cfg.eps / (2 * s)) / total < 1e-12):
                continue
            g1 = coefficient_profile_full(fh1, grid, s, xi[0], cfg.eps, table)
            g2 = coefficient_profile_full(fh2, grid, s, xi[1], cfg.eps, table)
            if g1 is None or g2 is None:
                continue
            weights = np.zeros(grid.n, dtype=complex)
            weights[idx] = np.conj(g1[idx] * g2[idx]) * s ** -0.5
            w3 = synthesis_profile_full(weights, grid, s, xi[2], cfg.eps, table)
            if w3 is None:
                continue
            w_total += w3
            synthesized += 1
    mag = np.abs(w_total)
    lam = float(mag[mask].sum() * h)
    f3 = np.zeros(grid.n, dtype=complex)
    nz = mask & (mag > 0)
    f3[nz] = w_total[nz] / mag[nz]
    f3[mask & ~ (mag > 0)] = 1.0
    return lam, GridFunction(grid, f3), w_total, synthesized


def build_tritile_lattice(m_sigma, m_x, m_xi) -> list[Tritile]:
    """One dyadic lattice tritile per (m_sigma, m_x, m_xi), direction BETA.

    The interval is DyadicInterval(m_sigma, m_x); slot j's band has length
    2^-m_sigma and center (gamma_j m_xi + beta_j) 2^-m_sigma, so every tile
    has area exactly 1.
    """
    beta = np.asarray(BETA, dtype=float)
    gamma = gamma_from_beta(beta)
    out = []
    for ms in m_sigma:
        ell = math.ldexp(1.0, ms)
        for mx in m_x:
            for mxi in m_xi:
                c = (gamma * mxi + beta) / ell
                out.append(Tritile(DyadicInterval(ms, mx), tuple(
                    Band(cj - 0.5 / ell, cj + 0.5 / ell) for cj in c)))
    return out


# greedy well-discretized thinning with the pair rule evaluated for every
# candidate against every kept tritile

def thin_well_discretized_loop(S, r_const: float = R_CONST):
    order = sorted(S, key=lambda s: (-s.space.scale, s.space.pos,
                                     s.freqs[0].lo))
    kept = []
    for s in order:
        if all(not _pair_violations(s, t, r_const) for t in kept):
            kept.append(s)
    return kept


# lacunary witness with every band's windows rebuilt inside the midpoint loop

def lacunary_frequency_loop(tritiles, k: int, r_const: float = R_CONST):
    bands = [s.freqs[k - 1] for s in tritiles]
    if not bands:
        return None
    rlo = max(b.dilate(r_const).lo for b in bands)
    rhi = min(b.dilate(r_const).hi for b in bands)
    if rlo >= rhi:
        return None
    pts = sorted({rlo, rhi} | {e for b in bands for e in
                               (b.dilate(2.0).lo, b.dilate(2.0).hi)})
    for lo, hi in zip(pts, pts[1:]):
        mid = 0.5 * (lo + hi)
        if not rlo <= mid < rhi:
            continue
        if all(not b.dilate(2.0).contains_point(mid) for b in bands):
            return mid
    return None


# size-lemma selection with a packet cache: every size evaluation and every
# split builds its own context and asks the bank for each member again

class CachingPacketBank:
    """Canonical-packet cache over a fixed (table, grid, eps) context."""

    def __init__(self, table, grid: Grid, eps: float):
        self.table = table
        self.grid = grid
        self.eps = eps
        self._cache: dict = {}

    def packet(self, td: TopDatum) -> WavePacket:
        key = (td.interval.scale, td.interval.pos, td.xi)
        p = self._cache.get(key)
        if p is None:
            p = canonical_packet(td, self.eps, self.table, self.grid)
            self._cache[key] = p
        return p

    def coefficient(self, f: GridFunction, td: TopDatum) -> complex:
        p = self.packet(td)
        return complex(np.vdot(p.samples.values, f.values) * self.grid.spacing)


class SizeContextRef:
    """A size context whose geometry is built by loops over the members.

    Candidate tops (sorted dyadic ancestors up to twice the members' span),
    xi-regions (midpoints between sorted window endpoints), and the `contain`
    and `lac` tables, one `DyadicInterval.contains` or `lacunary_mask` call
    per entry; `coeff2[i]` is member i's squared coefficient magnitude.
    """

    def __init__(self, S, coeff2, j: int):
        self.S = list(S)
        self.j = j
        self.coeff2 = coeff2
        self.centers = np.array([s.freqs[j - 1].center for s in self.S])
        self.widths = np.array([s.freqs[j - 1].length for s in self.S])
        self.tops = self._candidate_tops()
        self.xi_regions = self._candidate_freqs()
        self.contain = np.array(
            [[top.contains(s.space) for s in self.S] for top in self.tops])
        self.lac = np.array([self.lacunary_mask(xi) for xi in self.xi_regions])
        self.top_len = np.array([t.length for t in self.tops])

    def _candidate_tops(self):
        if not self.S:
            return []
        span_lo = min(s.space.lo for s in self.S)
        span_hi = max(s.space.hi for s in self.S)
        max_scale = math.ceil(math.log2(max(span_hi - span_lo, 1e-12))) + 1
        tops = set()
        for s in self.S:
            q = s.space
            while q.scale <= max_scale:
                tops.add(q)
                q = q.parent()
        return sorted(tops)

    def _candidate_freqs(self):
        pts = set()
        for c, w in zip(self.centers, self.widths):
            for dil in (2.0, R_CONST):
                pts.add(c - dil * w / 2)
                pts.add(c + dil * w / 2)
        pts = sorted(pts)
        return np.array([0.5 * (a + b) for a, b in zip(pts, pts[1:]) if b > a])

    def lacunary_mask(self, xi):
        d = np.abs(xi - self.centers)
        return (d < R_CONST * self.widths / 2) & (d >= self.widths)

    def window_mask(self, xi):
        return np.abs(xi - self.centers) < R_CONST * self.widths / 2

    @classmethod
    def of(cls, S, f: GridFunction, j: int, bank):
        S = list(S)
        return cls(S, np.array(
            [abs(bank.coefficient(f, s.tile_datum(j))) ** 2 for s in S]), j)

    def block_table(self, alive):
        weighted = self.contain * (alive * self.coeff2)
        mass = weighted @ self.lac.T
        return np.sqrt(mass / self.top_len[:, None])

    def best(self, alive):
        if not self.tops or self.xi_regions.size == 0:
            return (0.0, None, None)
        vals = self.block_table(alive)
        t, r = np.unravel_index(np.argmax(vals), vals.shape)
        return (float(vals[t, r]), self.tops[t], float(self.xi_regions[r]))


def collection_size_ref(f, S, j, bank) -> float:
    S = list(S)
    if not S:
        return 0.0
    ctx = SizeContextRef.of(S, f, j, bank)
    return ctx.best(np.ones(len(S), dtype=bool))[0]


def size_lemma_split_ref(S, f, j, sigma, bank):
    S = list(S)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not S:
        return [], Forest(())
    ctx = SizeContextRef.of(S, f, j, bank)
    if ctx.best(np.ones(len(S), dtype=bool))[0] > sigma * (1 + 1e-9):
        raise ValueError(f"collection size exceeds sigma = {sigma}")
    return greedy_split_ref(ctx, sigma)


def greedy_split_ref(ctx, sigma):
    """The size lemma's greedy loop over a built context: (rest, forest)."""
    alive = np.ones(len(ctx.S), dtype=bool)
    trees = []
    for direction in (1.0, -1.0):
        while True:
            vals = ctx.block_table(alive)
            heavy = np.argwhere(vals > sigma / 2)
            if heavy.size == 0:
                break
            cands = [(direction * ctx.xi_regions[r], -ctx.tops[t].length,
                      ctx.tops[t].scale, ctx.tops[t].pos, t, r)
                     for t, r in heavy]
            cands.sort()
            _, _, _, _, t, r = cands[0]
            top, xi = ctx.tops[t], float(ctx.xi_regions[r])
            mem = alive & ctx.contain[t] & ctx.window_mask(xi)
            members = tuple(s for s, m in zip(ctx.S, mem) if m)
            trees.append(_make_tree(top, xi, members, ctx.j))
            alive &= ~mem
    rest = [s for s, a in zip(ctx.S, alive) if a]
    return rest, Forest(tuple(trees))


def f3_decompose_ref(S, f3, bank):
    current = list(S)
    out = []
    if not current:
        return out
    sigma0 = collection_size_ref(f3, current, 3, bank)
    sigma = sigma0
    for k in range(HALVING_ROUNDS):
        if not current or sigma0 == 0.0:
            break
        rest, forest = size_lemma_split_ref(current, f3, 3, sigma, bank)
        if forest.trees:
            out.append(Forest(forest.trees, k=k))
        current = rest
        sigma /= 2.0
        if collection_size_ref(f3, current, 3, bank) == 0.0:
            break
    if current:
        singles = tuple(Tree(s.tile_datum(3), (s,), 3) for s in current)
        out.append(Forest(singles, k=None))
    return out


def tree_suite_stats_ref(seed: int, cases: int, table, grid_n: int = 2 ** 12):
    """run_tree_suite's stats and notes, three size contexts per case."""
    grid = Grid(-16.0, 16.0, grid_n)
    rng = np.random.default_rng(seed)
    bank = CachingPacketBank(table, grid, 0.5)
    failures = []
    counting_cs = []
    for case in range(cases):
        S = random_collection(rng, grid)
        if not S:
            continue
        f = random_signal(rng, grid)
        sz = collection_size_ref(f, S, 3, bank)
        if sz == 0:
            continue
        rest, forest = size_lemma_split_ref(S, f, 3, sz, bank)
        key = lambda s: (s.space.scale, s.space.pos, s.freqs[0].lo)
        if sorted(map(key, S)) != sorted(map(key, rest + forest.tritiles())):
            failures.append(f"case {case}: partition broken")
        if collection_size_ref(f, rest, 3, bank) > sz / 2 + 1e-12:
            failures.append(f"case {case}: halving broken")
        if forest.trees:
            l2 = lp_norm(f, 2.0)
            mass = sum(t.space.length for t in forest.trees)
            counting_cs.append(mass / (l2 / sz) ** 2)
        for t in forest.trees:
            if validate_tree(t):
                failures.append(f"case {case}: invalid tree")
    stats = {"cases": float(cases), "failures": float(len(failures))}
    if counting_cs:
        stats["counting_c_max"] = float(max(counting_cs))
    return stats, failures[:10]
