"""Model sums over tritile collections and the direct singular-integral oracle.

The model sum is the coefficient-weighted trilinear pairing
sum_s eps_s |I_s|^(-1/2) prod_j <f_j, packet(s_j)>; the oracle evaluates the
defining principal-value integral by symmetric pair quadrature.  The two
evaluators are related by an averaging identity with unknown nonzero
constants, so sweeps compare their growth trends, never their values.
"""

from __future__ import annotations

import math

import numpy as np

from .packets import PacketBank
from .sampling import (Band, DyadicInterval, Grid, GridFunction, _same_grid,
                       dyadic_log2)
from .timefreq import Tritile, check_well_discretized


def model_sum(S, f1: GridFunction, f2: GridFunction, f3: GridFunction,
              bank: PacketBank, *, check: bool = True) -> complex:
    """Trilinear model sum with canonical packets (trilinear in f1, f2, f3).

    With check=True the collection must pass `check_well_discretized` at its
    defaults.  `rescale_check` passes check=False: its scale-invariance
    identity holds term by term for any collection.
    """
    S = list(S)
    if check:
        ok, bad = check_well_discretized(S)
        if not ok:
            raise ValueError(f"collection is not well-discretized: {bad[0]}")
    # one bank call per slot; tolist() keeps the products Python complex
    coeffs = [bank.coefficients(f, [s.tile_datum(j) for s in S]).tolist()
              for j, f in ((1, f1), (2, f2), (3, f3))]
    total = 0.0 + 0.0j
    for s, c1, c2, c3 in zip(S, *coeffs):
        total += s.coeff / math.sqrt(s.space.length) * c1 * c2 * c3
    return complex(total)


# ---------------------------------------------------------------------------
# dyadic Hoelder rescaling

def rescale_tritile(s: Tritile, mu: float) -> Tritile:
    """Space stretched by T_mu, bands shrunk reciprocally (exact for dyadic mu)."""
    q = dyadic_log2(mu)
    space = DyadicInterval(s.space.scale + q, s.space.pos)
    bands = tuple(Band(b.lo / mu, b.hi / mu) for b in s.freqs)
    return Tritile(space, bands, s.coeff)


def dilate_band_limited(f: GridFunction, mu: float, expo: float) -> GridFunction:
    """mu^(-expo) f(x/mu) for dyadic mu, exact for the grid's periodic interpolant.

    mu >= 1 reads the band-limited interpolant at the stretched points, which
    land on the mu-fold refined lattice (zero-padded FFT); mu < 1 is exact
    periodic decimation.  Both paths treat f as its periodic extension.
    """
    q = dyadic_log2(mu)
    grid = f.grid
    n = grid.n
    if q == 0:
        return GridFunction(grid, f.values.copy())
    j = np.arange(n)
    if q > 0:
        m = int(round(mu))
        fhat = np.fft.fftshift(np.fft.fft(f.values))
        pad = (m * n - n) // 2
        fine = np.fft.ifft(np.fft.ifftshift(np.pad(fhat, pad))) * m
        src = j + (m - 1) * (n // 2)
        return GridFunction(grid, fine[src] * mu ** (-expo))
    m = int(round(1.0 / mu))
    src = (m * j - (m - 1) * (n // 2)) % n
    return GridFunction(grid, f.values[src] * mu ** (-expo))


def rescale_check(S, f1: GridFunction, f2: GridFunction, f3: GridFunction,
                  mu: float, alpha, bank: PacketBank) -> tuple[complex, complex]:
    """(lhs, rhs) of the dyadic Hoelder scale invariance audit.

    lhs is the model sum; rhs rescales the tritiles by T_mu and the functions
    by the exponent-weighted dilations.  Equal up to the resampling error of
    the dilated signals (exact for grid-band-limited inputs).
    """
    a1, a2, a3 = alpha
    if abs(a1 + a2 + a3 - 1.0) > 1e-9:
        raise ValueError("alpha must sum to 1")
    lhs = model_sum(S, f1, f2, f3, bank, check=False)
    sm = [rescale_tritile(s, mu) for s in S]
    # Dil^p with p = 1/alpha_j carries the prefactor mu^(-alpha_j)
    gs = [dilate_band_limited(f, mu, a)
          for f, a in ((f1, a1), (f2, a2), (f3, a3))]
    rhs = model_sum(sm, gs[0], gs[1], gs[2], bank, check=False)
    return lhs, rhs


# ---------------------------------------------------------------------------
# direct principal-value oracle

#: sample points per offset block of the oracle (offsets x sample points)
_ORACLE_BLOCK = 2 ** 13
#: samples per chunk of the oracle; each chunk runs only its own offset hull
_ORACLE_CHUNK = 256


def _oracle_cutoffs(fs, b, h_cut: float | None,
                    t_max: float | None) -> tuple[float, float]:
    """(h_cut, t_max) with their defaults dt and L/2, after the one check.

    fs must share one grid and hold finite samples; b and both cutoffs must
    be finite, and h_cut >= dt.
    """
    for f in fs[1:]:
        _same_grid(fs[0], f)
    for j, f in enumerate(fs, 1):
        if not np.isfinite(f.values).all():
            raise ValueError(f"f{j} has non-finite samples")
    if not all(map(math.isfinite, b)):
        raise ValueError(f"b must be finite, got {tuple(map(float, b))}")
    grid = fs[0].grid
    h_cut = grid.spacing if h_cut is None else h_cut
    t_max = grid.length / 2 if t_max is None else t_max
    if not (math.isfinite(h_cut) and h_cut >= grid.spacing):
        raise ValueError(f"h_cut must be finite and at least the grid "
                         f"spacing {grid.spacing:g}, got {h_cut}")
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    return h_cut, t_max


def _offset_hull(xa: float, xb: float, b, hulls, dt: float, i0: int,
                 i1: int) -> tuple[int, int]:
    """Offsets [ia, ib) within [i0, i1) where some sample in [xa, xb] can
    have both factors of its +t term, or of its -t term, nonzero.

    hulls[j] = (lo, hi) holds every x where factor j can be nonzero; the
    factor at x -/+ b_j t needs b_j t in [xa - hi, xb - lo] (for -t, -b_j t).
    b_j = 0 asks that [xa, xb] meet [lo, hi] and does not bound t.
    """
    ia, ib = i1, i0
    for sign in (1.0, -1.0):
        tlo, thi = (i0 - 1) * dt, (i1 + 1) * dt
        for bj, (lo, hi) in zip(b, hulls):
            c, a, z = sign * bj, xa - hi, xb - lo
            if c > 0:
                tlo, thi = max(tlo, a / c), min(thi, z / c)
            elif c < 0:
                tlo, thi = max(tlo, z / c), min(thi, a / c)
            elif a > 0 or z < 0:
                tlo = math.inf
        if tlo <= thi:
            # one offset of slack either side for rounding
            ia = min(ia, math.ceil(tlo / dt - 0.5) - 1)
            ib = max(ib, math.floor(thi / dt - 0.5) + 2)
    return max(ia, i0), min(ib, i1)


def _bht_on(f1: GridFunction, f2: GridFunction, b, h_cut: float, t_max: float,
            idx: np.ndarray) -> np.ndarray:
    """BHT_b(f1, f2) at the grid samples idx, by symmetric p.v. quadrature.

    Offsets t = (i + 1/2) dt run from the first at or beyond h_cut to the last
    at or below t_max; each +t is paired with -t (the odd kernel cancels even
    integrands exactly).  Signals are linearly interpolated, zero outside the
    domain, so the offsets also end before the first t with max|b_j| t >= L:
    from there one factor of every term is an exact zero.  At b = 0 the +t
    and -t terms cancel exactly, and no offset runs.

    The samples go in chunks of at most _ORACLE_CHUNK, and each chunk runs
    only the offsets of its `_offset_hull`: off it every term has a factor
    outside that factor's nonzero samples padded by two cells, so the term
    is an exact (signed) zero, and adding it leaves the sum's bits as they
    are.  Offsets go in blocks of at most _ORACLE_BLOCK sample points, one
    2-D interpolation per block, and are summed one at a time in ascending
    order, so a sample's value depends neither on idx nor on the chunk or
    block size.  Every sample must be finite (`_oracle_cutoffs`).
    """
    grid = f1.grid
    dt = grid.spacing
    xs = grid.xs()
    pts = xs[idx]

    def sample(f: GridFunction, at: np.ndarray) -> np.ndarray:
        z = 1j * np.interp(at, xs, f.values.imag, left=0.0, right=0.0)
        z += np.interp(at, xs, f.values.real, left=0.0, right=0.0)
        return z

    bmax = float(np.abs(b).max())
    i0 = int(math.ceil(h_cut / dt - 0.5))
    i1 = i0
    while (bmax != 0 and (i1 + 0.5) * dt <= t_max
           and bmax * (i1 + 0.5) * dt < grid.length):
        i1 += 1
    acc = np.zeros(pts.size, dtype=complex)
    hulls = []
    for f in (f1, f2):
        nz = np.flatnonzero(f.values)
        if nz.size == 0:
            return acc
        hulls.append((xs[nz[0]] - 2 * dt, xs[nz[-1]] + 2 * dt))
    for c0 in range(0, pts.size, _ORACLE_CHUNK):
        p = pts[c0:c0 + _ORACLE_CHUNK]
        out = acc[c0:c0 + _ORACLE_CHUNK]
        ia, ib = _offset_hull(float(p.min()), float(p.max()), b, hulls, dt,
                              i0, i1)
        rows = max(1, _ORACLE_BLOCK // p.size)
        for lo in range(ia, ib, rows):
            t = (np.arange(lo, min(lo + rows, ib)) + 0.5)[:, None] * dt
            plus = sample(f1, p - b[0] * t) * sample(f2, p - b[1] * t)
            minus = sample(f1, p + b[0] * t) * sample(f2, p + b[1] * t)
            # (plus - minus) * (dt / t) in place, with fewer temporaries; not
            # the products: NumPy rounds an in-place one-element product
            # differently
            plus -= minus
            plus *= dt / t
            for row in plus:
                out += row
    return acc


def bht_direct(f1: GridFunction, f2: GridFunction, b: tuple[float, float],
               h_cut: float | None = None,
               t_max: float | None = None) -> GridFunction:
    """BHT_b(f1, f2) on the whole grid (`_bht_on`; cutoffs default to dt, L/2)."""
    h_cut, t_max = _oracle_cutoffs((f1, f2), b, h_cut, t_max)
    return GridFunction(f1.grid, _bht_on(f1, f2, b, h_cut, t_max,
                                         np.arange(f1.grid.n)))


def lambda_direct(f1: GridFunction, f2: GridFunction, f3: GridFunction,
                  beta, h_cut: float | None = None,
                  t_max: float | None = None) -> complex:
    """Trilinear form by the direct oracle: <BHT_b(f1, f2), conj f3>.

    b = (beta1 - beta3, beta2 - beta3); the pairing integrates BHT * f3.
    BHT_b is evaluated only on the nonzero samples of f3 and scattered back
    to full length before the pairing sum, so the result equals the pairing
    of `bht_direct`'s output bit for bit.
    """
    b = np.asarray(beta[:2], dtype=float) - beta[2]
    h_cut, t_max = _oracle_cutoffs((f1, f2, f3), b, h_cut, t_max)
    sup = np.flatnonzero(f3.values)
    if sup.size == 0:
        return 0j
    pair = np.zeros(f3.grid.n, dtype=complex)
    pair[sup] = _bht_on(f1, f2, b, h_cut, t_max, sup) * f3.values[sup]
    return complex(pair.sum() * f3.grid.spacing)


# ---------------------------------------------------------------------------
# fast translation-batched coefficients (sweep engine)
#
# The engine needs packets only at the samples r + step j, j = 0 ... m - 1,
# with m = n / step.  Bins k and k + m carry the same phase at that stride,
# so folding a spectrum modulo m and transforming at size m gives those
# samples exactly (the aliasing identity behind pruned FFTs).  Both profiles
# take a block of columns of one scale as its `packet_hats` band form, one row
# per frequency, and compute each row with the one-column expressions.

def _ramp(bins: np.ndarray, r: int, n: int) -> np.ndarray:
    """e^{2 pi i k r / n} at the bins k, with k r reduced modulo n exactly."""
    return np.exp(2j * np.pi * ((bins * r) % n / n))


def _row_slots(counts: np.ndarray, bins: np.ndarray, m: int) -> np.ndarray:
    """Flat index row * m + (bin mod m) of each bin of ragged rows."""
    return np.repeat(np.arange(counts.size) * m, counts) + bins % m


def coefficient_profile(f_hat: np.ndarray, grid: Grid, band, step: int,
                        r: int) -> np.ndarray:
    """<f, packet centered at x0 + (r + step j) h> for j = 0 ... n/step - 1,
    one row per packet of `band`, the (bins, values, counts) of `packet_hats`
    at one scale: an array of shape (rows, n/step).

    f_hat must be fft(f.values) and step must divide n.  Each row's band
    bins of f_hat conj(hat) e^{2 pi i k r/n} are folded modulo m = n/step
    (one bincount over the block, keyed by row and slot, so each slot adds
    its row's terms in their order) and inverted by one FFT of size m per
    row.  Canonical packets are exact translates of each other, so the
    coefficient map is a correlation.
    """
    bins, hat, counts = band
    m = grid.n // step
    size = counts.size * m
    # <f, p_c> = (1/L) sum_k F_k conj(H_k) e^{2 pi i zeta_k (c - x0)}
    prod = f_hat[bins] * grid.spacing * hat * _ramp(bins, r, grid.n)
    key = _row_slots(counts, bins, m)
    folded = np.empty((counts.size, m), dtype=complex)
    folded.real = np.bincount(key, prod.real, size).reshape(-1, m)
    folded.imag = np.bincount(key, prod.imag, size).reshape(-1, m)
    return np.fft.ifft(folded) * (m / grid.length)


def synthesis_profile(weights: np.ndarray, grid: Grid, band,
                      r: int) -> tuple[np.ndarray, np.ndarray]:
    """Band form (bins, spectrum) of sum_j weights[i, j] * packet_{r + step j}
    for each packet i of `band` (`packet_hats`' form), the rows' bands
    concatenated in order.

    weights has one row of m = n/step entries per packet, one per translate
    at the stride; each row's FFT of size m, tiled over its band with the
    conjugate phase ramp and the hat, is that row's synthesis spectrum,
    zero off its bins.  The synthesis on the grid is ifft(spectrum) * (n / L);
    callers add the spectra of many columns and invert once.
    """
    bins, hat, counts = band
    w_hat = np.fft.fft(weights).reshape(-1)
    at = _row_slots(counts, bins, weights.shape[-1])
    return bins, w_hat[at] * hat * np.conj(_ramp(bins, r, grid.n))
