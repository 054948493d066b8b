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

from .errors import ResolutionError
from .packets import PacketBank, packet_hat
from .sampling import (Band, DyadicInterval, Grid, GridFunction, _same_grid,
                       dyadic_log2)
from .timefreq import Tritile, check_well_discretized


def model_sum(S, f1: GridFunction, f2: GridFunction, f3: GridFunction,
              bank: PacketBank, *, check: bool = True,
              scale_gap: float = 2.0) -> complex:
    """Trilinear model sum with canonical packets (trilinear in f1, f2, f3).

    With check=True the collection must be well-discretized; sweep callers
    suppress the check because a raw lattice is only a finite union of
    well-discretized families.
    """
    S = list(S)
    if check:
        ok, bad = check_well_discretized(S, scale_gap=scale_gap)
        if not ok:
            raise ValueError(f"collection is not well-discretized: {bad[0]}")
    total = 0.0 + 0.0j
    fs = (f1, f2, f3)
    for s in S:
        term = s.coeff / math.sqrt(s.space.length)
        for j in range(1, 4):
            term *= bank.coefficient(fs[j - 1], s.tile_datum(j))
        total += term
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

#: sample points per offset block of `lambda_direct` (offsets x support)
_ORACLE_BLOCK = 2 ** 13


def bht_direct(f1: GridFunction, f2: GridFunction, b: tuple[float, float],
               h_cut: float, t_max: float | None = None) -> GridFunction:
    """Symmetric p.v. quadrature of the bilinear singular integral.

    Offsets are sampled at half-spaced lattice points t = (i + 1/2) dt with
    dt the grid spacing, each +t paired with -t before accumulation (the odd
    kernel cancels even integrands exactly); signals are linearly interpolated
    off-grid and treated as zero outside the domain.
    """
    grid = f1.grid
    _same_grid(f1, f2)
    dt = grid.spacing
    if h_cut < dt:
        raise ValueError("h_cut must be at least the grid spacing")
    if t_max is None:
        t_max = grid.length / 2
    xs = grid.xs()

    def sample(f: GridFunction, pts: np.ndarray) -> np.ndarray:
        re = np.interp(pts, xs, f.values.real, left=0.0, right=0.0)
        im = np.interp(pts, xs, f.values.imag, left=0.0, right=0.0)
        return re + 1j * im

    i0 = int(math.ceil(h_cut / dt - 0.5))
    out = np.zeros(grid.n, dtype=complex)
    i = i0
    while True:
        t = (i + 0.5) * dt
        if t > t_max:
            break
        plus = sample(f1, xs - b[0] * t) * sample(f2, xs - b[1] * t)
        minus = sample(f1, xs + b[0] * t) * sample(f2, xs + b[1] * t)
        out += (plus - minus) * (dt / t)
        i += 1
    return GridFunction(grid, out)


def lambda_direct(f1: GridFunction, f2: GridFunction, f3: GridFunction,
                  beta, h_cut: float | None = None,
                  t_max: float | None = None) -> complex:
    """Trilinear form by the direct oracle: <BHT_b(f1, f2), conj f3>.

    b = (beta1 - beta3, beta2 - beta3); the pairing integrates BHT * f3.
    BHT_b is evaluated only on the support of f3 (its nonzero samples), with
    the quadrature of `bht_direct`: half-spaced offsets t = (i + 1/2) dt from
    the same first index to the same t_max stop, the same linear sampling.
    Offsets go in blocks of at most _ORACLE_BLOCK sample points, one 2-D
    interpolation per block, so memory stays bounded at any support size.
    The BHT values on the support equal `bht_direct`'s bit for bit (offsets
    accumulate in the same order), and they are scattered back to full length
    before the pairing sum, so the result equals the full-grid pairing
    exactly too.
    """
    grid = f1.grid
    _same_grid(f1, f2)
    _same_grid(f1, f3)
    dt = grid.spacing
    if h_cut is None:
        h_cut = dt
    if h_cut < dt:
        raise ValueError("h_cut must be at least the grid spacing")
    if t_max is None:
        t_max = grid.length / 2
    if not math.isfinite(t_max):
        raise ValueError("t_max must be finite")
    beta = np.asarray(beta, dtype=float)
    b = (beta[0] - beta[2], beta[1] - beta[2])
    sup = np.flatnonzero(f3.values)
    if sup.size == 0:
        return 0j
    xs = grid.xs()
    pts = xs[sup]

    def sample(f: GridFunction, at: np.ndarray) -> np.ndarray:
        re = np.interp(at, xs, f.values.real, left=0.0, right=0.0)
        im = np.interp(at, xs, f.values.imag, left=0.0, right=0.0)
        return re + 1j * im

    # offsets i0, i0 + 1, ... up to the first t = (i + 1/2) dt beyond t_max
    i0 = int(math.ceil(h_cut / dt - 0.5))
    i1 = i0
    while (i1 + 0.5) * dt <= t_max:
        i1 += 1
    acc = np.zeros(sup.size, dtype=complex)
    rows = max(1, _ORACLE_BLOCK // sup.size)
    for lo in range(i0, i1, rows):
        t = (np.arange(lo, min(lo + rows, i1)) + 0.5)[:, None] * dt
        plus = sample(f1, pts - b[0] * t) * sample(f2, pts - b[1] * t)
        minus = sample(f1, pts + b[0] * t) * sample(f2, pts + b[1] * t)
        terms = (plus - minus) * (dt / t)
        # running sum down the offsets: the order of bht_direct's loop
        terms[0] += acc
        acc = np.add.accumulate(terms, axis=0)[-1]
    pair = np.zeros(grid.n, dtype=complex)
    pair[sup] = acc * f3.values[sup]
    return complex(pair.sum() * dt)


# ---------------------------------------------------------------------------
# fast translation-batched coefficients (sweep engine)

def coefficient_profile(f_hat: np.ndarray, grid: Grid, scale: float, xi: float,
                        eps: float, table) -> np.ndarray | None:
    """<f, packet centered at x0 + idx h> for every shift idx, via one FFT.

    f_hat must be fft(f.values).  Returns None when the band is unresolvable
    (off-Nyquist or spanning fewer than 4 bins).  Canonical packets are exact
    translates of each other, so the coefficient map is a correlation.
    """
    try:
        hat = packet_hat(grid, scale, xi, eps, table)
    except ResolutionError:
        return None
    # <f, p_c> = (1/L) sum_m F_m conj(H_m) e^{2 pi i zeta_m (c - x0)}
    return np.fft.ifft(f_hat * grid.spacing * np.conj(hat)) * (grid.n / grid.length)


def synthesis_profile(weights: np.ndarray, grid: Grid, scale: float, xi: float,
                      eps: float, table) -> np.ndarray | None:
    """sum_idx weights[idx] * packet_idx(x) on the grid, via one FFT."""
    try:
        hat = packet_hat(grid, scale, xi, eps, table)
    except ResolutionError:
        return None
    return np.fft.ifft(np.fft.fft(weights) * hat) * (grid.n / grid.length)
