"""Slow reference implementations that the tests compare the package against.

Each is the straightforward form of a routine the package computes faster or
in one shared place; the tests ask for exact equality where the arithmetic is
unchanged.
"""

import math

import numpy as np

from tflab.errors import ResolutionError
from tflab.packets import TopDatum, WavePacket
from tflab.sampling import (DyadicInterval, Grid, GridFunction, _sliding_max,
                            dyadic_cover, grid_dyadic_scales)


def maximal_function_brute(f: GridFunction, p: float) -> GridFunction:
    """Supremum over ALL grid-aligned windows (O(n^2) time)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    a = np.abs(f.values) ** p
    n = f.grid.n
    c = np.concatenate([[0.0], np.cumsum(a)])
    best = np.full(n, -np.inf)
    for m in range(1, n + 1):
        avg = (c[m:] - c[:-m]) / m
        padded = np.concatenate([avg, np.full(m - 1, -np.inf)]) if m > 1 else avg
        np.maximum(best, _sliding_max(padded, m), out=best)
    return GridFunction(f.grid, best ** (1.0 / p) + 0j)


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
    return WavePacket(td, eps, GridFunction(grid, vals), td.xi)


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
