"""Wave packets adapted to top data, their splittings, and frequency lattices.

A canonical packet for the top datum (I, xi) at frequency fraction eps is the
window dilated to spatial scale |I|/eps, translated to the center of I, and
modulated to xi (phase referenced at the center, so translates of the datum
give exact translates of the samples).  Packets are synthesized in the
frequency domain, so their discrete spectra vanish identically off the band of
length eps/|I| centered at xi, and are unit-normalized in the grid L2 norm.
`band_rows` is the one band rule and `packet_hats` the one definition of that
spectrum, both for any number of frequencies at one scale, as ragged rows
that each keep the one-frequency bits.  Packets and `PacketBank` read the
one-row case; the sweep engine's profiles (`tflab.modelsum`) read a block of
rows at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ResolutionError
from .osgood import InghamTable, OsgoodParams
from .sampling import Band, DyadicInterval, Grid, GridFunction

#: frequency-window constant (anything above 10 is admissible)
R_CONST = 16.0
#: band fraction of the Xi_Q windows (freq_window_for_scale needs <= 1/12)
XI_EPS = 1.0 / 16.0


@dataclass(frozen=True)
class TopDatum:
    """A spatial dyadic interval paired with a frequency."""

    interval: DyadicInterval
    xi: float


@dataclass(frozen=True)
class WavePacket:
    """Sampled packet with its datum, band fraction, and adaptation rate."""

    datum: TopDatum
    epsilon: float
    samples: GridFunction

    @property
    def rate(self) -> float:
        """Adaptation rate of the decay envelope (eps/100)."""
        return self.epsilon / 100.0


def band_rows(grid: Grid, scale: float, xi,
              eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The band rule for every frequency of `xi` at one scale, as ragged rows.

    Returns (bins, arg, counts, fault).  Row i holds the next counts[i]
    entries of `bins` and `arg`: the indices, in fftfreq order, of the
    lattice bins with |arg| < 1/2, arg = (scale/eps)(zeta - xi[i]), and
    their window arguments.  The window spectrum is supported in
    [-1/2, 1/2], so the packet spectrum at spatial scale `scale` and xi[i]
    vanishes off these bins.  fault[i] is 0 for a resolvable band, 1 when
    the band crosses Nyquist (or xi[i] is NaN) and 2 when it is narrower
    than 4 bin spacings (tested in that order); such a row holds no bins.
    A resolvable band holds 3 bins or more.  Every row is computed with the
    one-frequency expressions, so it does not depend on the others.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    bandwidth = eps / scale
    # a NaN frequency fails the Nyquist test too
    over = ~(np.abs(xi) + bandwidth / 2 < grid.nyquist)
    fault = over.astype(np.int8)
    if bandwidth * grid.length < 4:
        fault[~over] = 2
        return (np.empty(0, dtype=np.int64), np.empty(0),
                np.zeros(xi.size, dtype=np.int64), fault)
    n = grid.n
    lam_s = scale / eps
    dz = 1.0 / (n * grid.spacing)  # the lattice spacing, as fftfreq has it
    ok = np.flatnonzero(~over)
    xo = xi[ok]
    # signed bin numbers around each band, one bin of slack for rounding at
    # either end, clipped to the lattice's -n/2 ... (n - 1)/2
    k0 = np.floor((xo - 0.5 / lam_s) / dz).astype(np.int64) - 1
    k1 = np.ceil((xo + 0.5 / lam_s) / dz).astype(np.int64) + 1
    np.maximum(k0, -(n // 2), out=k0)
    np.minimum(k1, (n - 1) // 2, out=k1)
    span = k1 - k0 + 1
    row = np.repeat(ok, span)
    k = np.arange(row.size) + np.repeat(k0 + span - span.cumsum(), span)
    arg = lam_s * (k * dz - np.repeat(xo, span))
    band = np.abs(arg) < 0.5
    return (k[band] % n, arg[band], np.bincount(row[band], minlength=xi.size),
            fault)


def packet_hats(grid: Grid, scale: float, xi, eps: float,
                table: InghamTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Band form (bins, values, counts) of the unit-normalized packet
    spectrum at spatial scale `scale`, one ragged row per frequency of `xi`
    (a scalar xi is one row).

    The one definition of the packet spectrum: the window spectrum dilated
    to scale/eps and centered at xi, normalized in the grid L2 norm.  Row i
    is zero off its `band_rows` bins; `values` are the spectrum on those
    bins.  Each value, and each norm, equal those of the full-length
    spectrum bit for bit.  Raises ResolutionError for the first row whose
    band is unresolvable (`band_rows`), then for the first that misses
    every bin.
    """
    bins, arg, counts, fault = band_rows(grid, scale, xi, eps)
    if fault.any():
        i = int(np.flatnonzero(fault)[0])
        bandwidth = eps / scale
        if fault[i] == 1:
            raise ResolutionError(
                f"band at {float(np.reshape(xi, -1)[i])} (width {bandwidth}) "
                f"exceeds Nyquist {grid.nyquist}")
        raise ResolutionError(
            f"band width {bandwidth} spans fewer than 4 frequency bins "
            f"on a grid of length {grid.length}")
    values = scale / eps * table.spectrum_at(arg)
    # each norm sums its row's squares in their full-length places:
    # summation order sets its last bits, and canonical packets' bits are
    # pinned; one zeroed vector serves every row
    squares = values**2
    sq = np.zeros(grid.n)
    a = 0
    for b in counts.cumsum().tolist():
        sq[bins[a:b]] = squares[a:b]
        norm = math.sqrt(sq.sum() / grid.length)
        if norm == 0:
            raise ResolutionError("packet band misses every frequency bin")
        sq[bins[a:b]] = 0.0
        values[a:b] /= norm
        a = b
    return bins, values, counts


def _packet_band(td: TopDatum, eps: float, table: InghamTable,
                 grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bins, values, ramp) of the datum's band, shared by its translates.

    `packet_hats`' band form (its one-row case), and the phase-ramp factor
    -2 pi i zeta at zeta = `grid.freqs()[bins]`.
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    bins, values, _ = packet_hats(grid, td.interval.length, td.xi, eps, table)
    return bins, values, -2j * np.pi * grid.freqs()[bins]


def _packet_samples(grid: Grid, band, center: float) -> np.ndarray:
    """Samples of the packet of `_packet_band` form centered at `center`.

    The phase ramp is evaluated on the band only: off it the spectrum is an
    exact zero.
    """
    bins, values, ramp = band
    hat = np.zeros(grid.n, dtype=complex)
    hat[bins] = values * np.exp(ramp * (center - grid.x0))
    np.fft.ifft(hat, out=hat)
    hat *= grid.n / grid.length
    return hat


def canonical_packet(td: TopDatum, eps: float, table: InghamTable,
                     grid: Grid) -> WavePacket:
    """Unit-normalized packet with spectrum in the band of length eps/|I| at xi."""
    vals = _packet_samples(grid, _packet_band(td, eps, table, grid),
                           td.interval.center)
    return WavePacket(td, eps, GridFunction(grid, vals))


class PacketBank:
    """Canonical packets and coefficients over a fixed (table, grid, eps) context.

    Holds no packets: each call builds the packets it needs and drops them.
    `coefficients` builds each band's spectrum and phase-ramp factor once per
    call and only the translate's ramp per datum; callers that reuse
    coefficients (the size contexts of `tflab.timefreq`) keep them as data.
    """

    def __init__(self, table: InghamTable, grid: Grid, eps: float):
        self.table = table
        self.grid = grid
        self.eps = eps

    def packet(self, td: TopDatum) -> WavePacket:
        return canonical_packet(td, self.eps, self.table, self.grid)

    def coefficient(self, f: GridFunction, td: TopDatum) -> complex:
        """<f, packet> under the grid inner product."""
        return complex(self.coefficients(f, [td])[0])

    def coefficients(self, f: GridFunction, tds) -> np.ndarray:
        """<f, packet> for each datum in order (`coefficient` asks for one).

        Data that share (interval scale, xi) differ only in the phase ramp,
        so their spectrum comes from one `packet_hats` call.  The first
        unresolvable datum raises ResolutionError and an f on another grid
        raises GridMismatchError, checked datum by datum in that order.
        Each coefficient is vdot(samples, f.values) * h on the packet's
        samples.
        """
        grid = self.grid
        tds = list(tds)
        out = np.empty(len(tds), dtype=complex)
        bands: dict = {}
        for i, td in enumerate(tds):
            key = (td.interval.scale, td.xi)
            band = bands.get(key)
            if band is None:
                band = bands[key] = _packet_band(td, self.eps, self.table, grid)
                # finite spectrum and unit-modulus ramp give finite samples
                _, values, ramp = band
                if not (np.isfinite(values).all()
                        and np.isfinite(ramp.view(float)).all()):
                    raise ValueError("grid function contains non-finite samples")
            if i == 0 and f.grid != grid:
                raise GridMismatchError(f"{f.grid} vs {grid}")
            samples = _packet_samples(grid, band, td.interval.center)
            out[i] = complex(np.vdot(samples, f.values) * grid.spacing)
        return out


# ---------------------------------------------------------------------------
# splittings: compact support plus an exponentially small remainder

def _window_width(phi: WavePacket, K: float, table: InghamTable) -> float:
    width = table.params.u(K) * phi.datum.interval.length
    grid = phi.samples.grid
    c = phi.datum.interval.center
    if width > 2 * min(c - grid.x0, grid.x1 - c):
        raise ValueError(
            f"support width u(K)|I| = {width} exceeds the grid domain")
    return width


def split_truncate(phi: WavePacket, K: float,
                   table: InghamTable) -> tuple[GridFunction, GridFunction]:
    """Split phi = phi_c + exp(-aK/12) psi with supp(phi_c) inside u(K)I.

    The smooth cutoff is the window spectrum reused as a spatial bump (plateau
    u(K)|I|/3, support u(K)|I|), so the splitting inherits the almost
    exponential spectral decay of the table.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    grid = phi.samples.grid
    width = _window_width(phi, K, table)
    w = table.cutoff_at(grid.xs() - phi.datum.interval.center, width)
    scale = math.exp(phi.rate * K / 12.0)
    phi_c = GridFunction(grid, phi.samples.values * w)
    psi = GridFunction(grid, phi.samples.values * (1.0 - w) * scale)
    return phi_c, psi


def split_meanzero(phi: WavePacket, K: float, xi0: float,
                   table: InghamTable) -> tuple[GridFunction, GridFunction]:
    """Truncation split that keeps exact zero average against exp(2 pi i xi0 x).

    xi0 must sit outside the unit band of the packet after rescaling:
    1/2 < |I| |xi0 - xi_J| <= R_CONST / 2.  xi0 is then moved to the nearest
    discrete frequency of the grid, which makes the zero average of BOTH
    output pieces exact at quadrature level.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    grid = phi.samples.grid
    length = phi.datum.interval.length
    d = length * abs(xi0 - phi.datum.xi)
    if d <= 0.5:
        raise ValueError(
            f"xi0 = {xi0} lies inside the forbidden unit band of the packet")
    if d > R_CONST / 2:
        raise ValueError(
            f"xi0 = {xi0} outside the admissible window (|I| dist = {d} > R/2)")
    xi0 = grid.snap_frequency(xi0)
    width = _window_width(phi, K, table)
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
    vals = np.sort(np.asarray(freqs, dtype=float)).tolist()
    keep = vals[:1]
    for z in vals[1:]:
        if z - keep[-1] > tol:
            keep.append(z)
    return np.array(keep, dtype=float)


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


def xi_H(td: TopDatum, bands, K: float, params: OsgoodParams) -> list[np.ndarray]:
    """Mean-zero frequency sets of the datum relative to each interval H of `bands`.

    For each H: {xi} together with the lattices of every dyadic subinterval J
    of I such that J is not inside 3H, H fits inside 3u(K)J, and
    |J| <= 2^(10K)|H|, in windows of band fraction XI_EPS.  Empty when H misses
    3u(K)I or I lies inside 3H.  A lattice depends on the level of J alone, so
    each level's is built once, and bands whose qualifying levels agree share
    one set (one read-only array).  The level test runs over every (H, level,
    J) at once with the float expressions of the per-band test, so each set
    keeps its bits.
    """
    I = td.interval
    uk = params.u(K)
    hlo = np.array([H.lo for H in bands], dtype=float)
    hhi = np.array([H.hi for H in bands], dtype=float)
    hlen, hc = hhi - hlo, 0.5 * (hlo + hhi)
    reach = I.dilate(3.0 * uk)
    half3 = 0.5 * 3.0 * hlen  # H.dilate(3.0)
    h3lo, h3hi = hc - half3, hc + half3
    live = ((hlo < reach.hi) & (reach.lo < hhi)
            & ~((h3lo <= I.lo) & (I.hi <= h3hi)))
    if not live.any():
        return [np.array([]) for _ in range(hlo.size)]
    min_len = hlen / (3.0 * uk)
    cap = np.ldexp(hlen, int(min(10 * K, 60)))
    floor_len = min_len[live].min()
    lengths = []  # |J| at level 0, 1, ... down to the finest band's cut-off
    while True:
        length = I.length * 2.0 ** (-len(lengths))
        if length < floor_len or length < 1e-12:
            break
        lengths.append(length)
    level_len = np.array(lengths)
    # (band, level) pairs the per-band level loop reaches
    b, lev = np.nonzero(live[:, None] & (level_len >= min_len[:, None])
                        & (level_len <= cap[:, None]))
    length = level_len[lev]
    # H inside 3u(K)J constrains the center of J to a window around H
    room = 1.5 * uk * length - 0.5 * hlen[b]
    lo = np.maximum(I.lo, hc[b] - room - length)
    hi = np.minimum(I.hi, hc[b] + room + length)
    base = np.left_shift(I.pos, lev)
    p0 = np.maximum(base, np.floor(lo / length).astype(np.int64))
    p1 = np.minimum(base + np.left_shift(1, lev) - 1,
                    np.ceil(hi / length).astype(np.int64))
    count = np.where(room < 0, 0, np.maximum(p1 - p0 + 1, 0))
    # one row per candidate J
    pair = np.repeat(np.arange(b.size), count)
    pos = p0[pair] + (np.arange(pair.size) - (np.cumsum(count) - count)[pair])
    jb, jlen = b[pair], length[pair]
    jlo, jhi = pos * jlen, (pos + 1) * jlen
    # J.dilate(3.0 * uk)
    center, half = 0.5 * (jlo + jhi), 0.5 * (3.0 * uk) * (jhi - jlo)
    # J not inside 3H, and H inside 3u(K)J
    hits = (~((h3lo[jb] <= jlo) & (jhi <= h3hi[jb]))
            & (center - half <= hlo[jb]) & (hhi[jb] <= center + half))
    qualifies = np.zeros((hlo.size, len(lengths)), dtype=bool)
    qualifies[b[pair[hits]], lev[pair[hits]]] = True

    finest = 1.0 / (3.0 * uk * I.length)
    lattices: dict[int, np.ndarray] = {}
    sets: dict[bytes, np.ndarray] = {}
    out = []
    for row, is_live in zip(qualifies, live.tolist()):
        if not is_live:
            out.append(np.array([]))
            continue
        key = row.tobytes()
        if key not in sets:
            freqs = [np.array([td.xi])]
            for level in np.flatnonzero(row).tolist():
                if level not in lattices:
                    omega = freq_window_for_scale(td.xi, 1.0 / lengths[level], XI_EPS)
                    lattices[level] = xi_lattice(
                        DyadicInterval(I.scale - level, I.pos << level),
                        omega, K, params)
                freqs.append(lattices[level])
            sets[key] = dedup_freqs(np.concatenate(freqs), finest / 100.0)
            sets[key].setflags(write=False)
        out.append(sets[key])
    return out
