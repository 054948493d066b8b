"""Wave packets adapted to top data, their splittings, and frequency lattices.

A canonical packet for the top datum (I, xi) at frequency fraction eps is the
window dilated to spatial scale |I|/eps, translated to the center of I, and
modulated to xi (phase referenced at the center, so translates of the datum
give exact translates of the samples).  Packets are synthesized in the
frequency domain, so their discrete spectra vanish identically off the band of
length eps/|I| centered at xi, and are unit-normalized in the grid L2 norm.
`packet_hat` is the one definition of that spectrum; the sweep engine's
translation-batched profiles (`tflab.modelsum`) build on it too.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError
from .osgood import InghamTable, OsgoodParams
from .sampling import Band, DyadicInterval, Grid, GridFunction

log = logging.getLogger(__name__)

#: frequency-window constant (anything above 10 is admissible)
R_CONST = 16.0


@dataclass(frozen=True)
class TopDatum:
    """A spatial dyadic interval paired with a frequency."""

    interval: DyadicInterval
    xi: float


@dataclass(frozen=True)
class Tile:
    """Area-one time-frequency rectangle."""

    space: DyadicInterval
    freq: Band

    def __post_init__(self):
        area = self.space.length * self.freq.length
        if abs(area - 1.0) > 1e-9:
            raise ValueError(f"tile area must be 1, got {area}")


@dataclass(frozen=True)
class WavePacket:
    """Sampled packet with its datum, band fraction, and adaptation rate."""

    datum: TopDatum
    epsilon: float
    samples: GridFunction
    center_freq: float

    @property
    def rate(self) -> float:
        """Adaptation rate of the decay envelope (eps/100)."""
        return self.epsilon / 100.0

    @property
    def band(self) -> Band:
        half = 0.5 * self.epsilon / self.datum.interval.length
        return Band(self.center_freq - half, self.center_freq + half)


def _band_check(grid: Grid, xi: float, bandwidth: float, min_bins: int = 4) -> None:
    if abs(xi) + bandwidth / 2 >= grid.nyquist:
        raise ResolutionError(
            f"band at {xi} (width {bandwidth}) exceeds Nyquist {grid.nyquist}")
    if bandwidth * grid.length < min_bins:
        raise ResolutionError(
            f"band width {bandwidth} spans fewer than {min_bins} frequency bins "
            f"on a grid of length {grid.length}")


def packet_hat(grid: Grid, scale: float, xi: float, eps: float,
               table: InghamTable) -> np.ndarray:
    """Unit-normalized spectrum of the packet at spatial scale `scale` and xi.

    The one definition of the packet spectrum: full length, fftfreq order, the
    window spectrum dilated to scale/eps and centered at xi, normalized in the
    grid L2 norm.  The window spectrum vanishes off (-1, 1), so `spectrum_at`
    runs on the band's bins only and every other bin is exactly zero.  Raises
    ResolutionError when the band crosses Nyquist, spans fewer than 4 bins, or
    misses every bin.
    """
    _band_check(grid, xi, eps / scale)
    lam_s = scale / eps
    arg = lam_s * (grid.freqs() - xi)
    band = np.abs(arg) < 1
    hat = np.zeros(grid.n)
    hat[band] = lam_s * table.spectrum_at(arg[band])
    norm = math.sqrt((hat**2).sum() / grid.length)
    if norm == 0:
        raise ResolutionError("packet band misses every frequency bin")
    return hat / norm


def canonical_packet(td: TopDatum, eps: float, table: InghamTable,
                     grid: Grid) -> WavePacket:
    """Unit-normalized packet with spectrum in the band of length eps/|I| at xi."""
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    hat = packet_hat(grid, td.interval.length, td.xi, eps, table)
    hat = hat * np.exp(-2j * np.pi * grid.freqs() * (td.interval.center - grid.x0))
    vals = np.fft.ifft(hat) * (grid.n / grid.length)
    return WavePacket(td, eps, GridFunction(grid, vals), td.xi)


def tile_packet(tile: Tile, eps: float, table: InghamTable, grid: Grid) -> WavePacket:
    """Canonical packet adapted to the tile (centered at the tile frequency)."""
    return canonical_packet(TopDatum(tile.space, tile.freq.center), eps, table, grid)


class PacketBank:
    """Canonical-packet cache over a fixed (table, grid, eps) context."""

    def __init__(self, table: InghamTable, grid: Grid, eps: float):
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
        """<f, packet> under the grid inner product."""
        p = self.packet(td)
        return complex(np.vdot(p.samples.values, f.values) * self.grid.spacing)


# ---------------------------------------------------------------------------
# splittings: compact support plus an exponentially small remainder

def _window_width(phi: WavePacket, K: float, table: InghamTable,
                  clamp: bool) -> float:
    width = table.params.u(K) * phi.datum.interval.length
    grid = phi.samples.grid
    c = phi.datum.interval.center
    room = 2 * min(c - grid.x0, grid.x1 - c)
    if width > room:
        if not clamp:
            raise ValueError(
                f"support width u(K)|I| = {width} exceeds the grid domain; "
                "pass clamp=True to truncate")
        log.warning("clamping split support width %.3g to %.3g", width, room)
        width = room
    return width


def split_truncate(phi: WavePacket, K: float, table: InghamTable,
                   clamp: bool = False) -> tuple[GridFunction, GridFunction]:
    """Split phi = phi_c + exp(-aK/12) psi with supp(phi_c) inside u(K)I.

    The smooth cutoff is the window spectrum reused as a spatial bump (plateau
    u(K)|I|/3, support u(K)|I|), so the splitting inherits the almost
    exponential spectral decay of the table.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    grid = phi.samples.grid
    width = _window_width(phi, K, table, clamp)
    w = table.cutoff_at(grid.xs() - phi.datum.interval.center, width)
    scale = math.exp(phi.rate * K / 12.0)
    phi_c = GridFunction(grid, phi.samples.values * w)
    psi = GridFunction(grid, phi.samples.values * (1.0 - w) * scale)
    return phi_c, psi


def split_meanzero(phi: WavePacket, K: float, xi0: float, table: InghamTable,
                   r_const: float = R_CONST, snap: bool = True,
                   clamp: bool = False) -> tuple[GridFunction, GridFunction]:
    """Truncation split that keeps exact zero average against exp(2 pi i xi0 x).

    xi0 must sit outside the unit band of the packet after rescaling:
    1/2 < |I| |xi0 - xi_J| <= r_const / 2.  With snap=True (default) xi0 is
    moved to the nearest discrete frequency of the grid, which makes the zero
    average of BOTH output pieces exact at quadrature level.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    grid = phi.samples.grid
    length = phi.datum.interval.length
    d = length * abs(xi0 - phi.center_freq)
    if d <= 0.5:
        raise ValueError(
            f"xi0 = {xi0} lies inside the forbidden unit band of the packet")
    if d > r_const / 2:
        raise ValueError(
            f"xi0 = {xi0} outside the admissible window (|I| dist = {d} > R/2)")
    if snap:
        xi0 = grid.snap_frequency(xi0)
    width = _window_width(phi, K, table, clamp)
    xs = grid.xs()
    w = phi.samples.values * np.exp(-2j * np.pi * xi0 * xs)
    win = table.cutoff_at(xs - phi.datum.interval.center, width)
    m = (w * win).sum() / win.sum()
    mod = np.exp(2j * np.pi * xi0 * xs)
    scale = math.exp(phi.rate * K / 12.0)
    phi_c = GridFunction(grid, (w * win - m * win) * mod)
    psi = GridFunction(grid, (m * win + (1.0 - win) * w) * mod * scale)
    return phi_c, psi


# ---------------------------------------------------------------------------
# frequency lattices

def dedup_freqs(freqs: np.ndarray, tol: float) -> np.ndarray:
    """Sorted frequencies with near-duplicates (within tol) merged."""
    freqs = np.sort(np.asarray(freqs, dtype=float))
    if freqs.size == 0:
        return freqs
    keep = [freqs[0]]
    for z in freqs[1:]:
        if z - keep[-1] > tol:
            keep.append(z)
    return np.array(keep)


def xi_lattice(J: DyadicInterval, omega: Band, K: float,
               params: OsgoodParams) -> np.ndarray:
    """Arithmetic progression of spacing 1/(3 u(K)|J|) inside the window 5*omega."""
    if abs(J.length * omega.length - 1.0) > 1e-9:
        raise ValueError("J and omega must have reciprocal lengths")
    spacing = 1.0 / (3.0 * params.u(K) * J.length)
    window = omega.dilate(5.0)
    m0 = int(math.ceil(window.lo / spacing - 1e-12))
    m1 = int(math.ceil(window.hi / spacing - 1e-12))  # exclusive (half-open window)
    return spacing * np.arange(m0, m1)


def freq_window_for_scale(xi: float, inv_length: float, eps: float) -> Band:
    """Minimal-center interval of the three shifted dyadic grids around xi.

    Among the standard dyadic frequency grid and its 1/3- and 2/3-translates at
    width `inv_length`, returns the interval with smallest center containing
    the 4*eps*inv_length-neighborhood of xi.  Exists whenever eps <= 1/12.
    """
    w = inv_length
    pad = 2 * eps * w
    best = None
    for j in range(3):
        off = j * w / 3.0
        m = math.floor((xi - off) / w)
        lo = m * w + off
        if lo <= xi - pad and xi + pad <= lo + w:
            cand = Band(lo, lo + w)
            if best is None or cand.center < best.center:
                best = cand
    if best is None:
        raise ValueError(
            f"no shifted dyadic interval of width {w} holds the band at {xi}; "
            f"eps = {eps} is too large")
    return best


def xi_H(td: TopDatum, H: Band, K: float, params: OsgoodParams, eps: float,
         r_const: float = R_CONST) -> np.ndarray:
    """Mean-zero frequency set of the datum relative to the interval H.

    Returns {xi} together with the lattices of every dyadic subinterval J of I
    such that J is not inside 3H, H fits inside 3u(K)J, and |J| <= 2^(10K)|H|.
    Empty when H misses 3u(K)I or I lies inside 3H.
    """
    I = td.interval
    uk = params.u(K)
    if not H.intersects(I.dilate(3.0 * uk)) or H.dilate(3.0).contains_band(I.band()):
        return np.array([])
    # window selection assumes a small band fraction (the decomposition theory
    # fixes eps <= 2^-8); clamp so the shifted-grid window always exists
    eps = min(eps, 1.0 / 16.0)
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
            omega = freq_window_for_scale(td.xi, 1.0 / length, eps)
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
    # H inside 3u(K)J constrains the center of J to a window around H
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
