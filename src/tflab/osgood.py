"""Slowly-growing generating functions and the band-limited Ingham window.

The window construction: iterated convolutions of scaled box indicators of
widths 1/u(1), 1/u(2), ... produce a smooth bump v0 with unit mass and support
in [0,1]; averaging a translate of v0 gives a spectrum v that is 1 on
[-1/6, 1/6] and supported in [-1/2, 1/2]; the window itself is the inverse
Fourier transform of v and decays almost exponentially, at rate U/100 where U
is the (evenly extended) inverse of u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResolutionError
from .sampling import Grid, GridFunction, Report

E = math.e

#: nominal decay rate of the constructed window
DECAY_RATE = 1.0 / 100.0


# ---------------------------------------------------------------------------
# the u-family and its inverse

@dataclass(frozen=True)
class OsgoodParams:
    """Family member u(t) = (t+e) (log(t+e))^(1+lam) / lam, lam > 0.

    Increasing, convex, and normalized: the full integral of 1/u over [0, inf)
    equals 1 exactly for every lam.
    """

    lam: float
    tau_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        t = np.linspace(0.0, 50.0, 201)
        ut = self.u(t)
        if not (np.all(np.diff(ut) > 0) and np.all(np.diff(ut, 2) > -1e-12)):
            raise ValueError("u is not increasing and convex on the sample grid")

    def u(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("u is defined on t >= 0")
        out = (t + E) * np.log(t + E) ** (1 + self.lam) / self.lam
        return float(out) if out.ndim == 0 else out

    @property
    def u0(self) -> float:
        return E / self.lam

    def u_inverse(self, y):
        """Inverse of u on [u(0), inf), by bisection (u(t) >= t gives the bracket)."""
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        y = np.atleast_1d(y)
        if np.any(y < self.u0 - 1e-12):
            raise ValueError("u_inverse requires y >= u(0)")
        lo = np.zeros_like(y)
        hi = np.maximum(y * max(1.0, self.lam), 1.0)
        grow = self.u(hi) < y
        while np.any(grow):
            hi[grow] *= 2
            grow = self.u(hi) < y
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            high = self.u(mid) > y
            hi = np.where(high, mid, hi)
            lo = np.where(high, lo, mid)
        out = 0.5 * (lo + hi)
        return float(out[0]) if scalar else out

    def big_u(self, x):
        """Evenly extended inverse: U(x) = u^{-1}(|x|) for |x| >= u(0), else 0."""
        x = np.abs(np.asarray(x, dtype=float))
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.zeros_like(x)
        above = x >= self.u0
        if np.any(above):
            out[above] = self.u_inverse(x[above])
        return float(out[0]) if scalar else out

    def b_u(self, tau: float) -> float:
        """sup_t (1 + u(t)) exp(-tau t), sampled on a log grid and cached."""
        if tau <= 0:
            raise ValueError("tau must be positive")
        if tau not in self.tau_cache:
            t = np.concatenate([[0.0], np.geomspace(1e-6, max(10.0, 200.0 / tau), 4000)])
            self.tau_cache[tau] = float(np.max((1 + self.u(t)) * np.exp(-tau * t)))
        return self.tau_cache[tau]


def osgood_partial_integral(params: OsgoodParams, tol: float = 1e-3) -> Report:
    """Quadrature check of the normalization int_0^inf dt/u(t) = 1.

    Works in the substituted variable s = log(t+e), where the integrand of the
    u-family is lam * s^(-1-lam); the horizon grows by octaves until the
    remaining tail drops below tol/10.  (A fixed horizon T = u(1e6) leaves a
    tail of about 0.05 for lam = 1, far above tol, so the horizon is adaptive.)
    """
    lam = params.lam

    def block(a: float, b: float) -> float:
        s = np.linspace(a, b, 4097)
        y = lam * s ** (-1 - lam)
        return float(np.trapezoid(y, s))

    total = 0.0
    s_lo, s_hi = 1.0, 2.0
    while True:
        total += block(s_lo, s_hi)
        tail = s_hi ** (-lam)  # remaining octaves, summed in closed form
        if tail < tol / 10 or s_hi > 1e9:
            break
        s_lo, s_hi = s_hi, 2 * s_hi
    ok = abs(total - 1.0) < tol
    return Report(passed=ok, stats={"integral": total, "s_max": s_hi, "tail_bound": tail})


@dataclass(frozen=True)
class TabulatedOsgood:
    """User-supplied monotone u given by samples (ts increasing, us increasing)."""

    ts: tuple
    us: tuple

    def __post_init__(self):
        ts, us = np.asarray(self.ts, float), np.asarray(self.us, float)
        if ts.size < 2 or ts.size != us.size:
            raise ValueError("need matching tables with at least two entries")
        if not (np.all(np.diff(ts) > 0) and np.all(np.diff(us) > 0)):
            raise ValueError("tabulated u must be strictly increasing")

    def u(self, t):
        return np.interp(np.asarray(t, float), self.ts, self.us)

    @property
    def u0(self) -> float:
        return float(self.us[0])

    def big_u(self, x):
        x = np.abs(np.asarray(x, float))
        return np.where(x < self.u0, 0.0, np.interp(x, self.us, self.ts))


# ---------------------------------------------------------------------------
# the window table

@dataclass(frozen=True)
class InghamTable:
    """Sampled window and spectrum, plus the mass profile of the mother bump.

    `spectrum_at` evaluates the spectrum v at arbitrary frequencies from the
    cumulative mass profile of v0, which is what the wave-packet constructors
    consume; `upsilon`/`spectrum` are fixed-grid views of the same objects.
    """

    params: OsgoodParams
    grid: Grid                      # spatial grid of the sampled window
    upsilon: GridFunction           # window samples on `grid`
    spectrum: GridFunction          # v sampled on a frequency grid over [-1, 1)
    k_max: int
    decay_rate: float
    v0_mass: np.ndarray = field(repr=False)   # cumulative integral of v0 at cell edges
    v0_x0: float = field(repr=False, default=-2.0)
    v0_h: float = field(repr=False, default=0.0)

    def spectrum_at(self, xi):
        """Spectrum v(xi) = mass of v0 on [3 xi - 1/2, 3 xi + 3/2], any xi."""
        xi = np.asarray(xi, dtype=float)
        edges = self.v0_x0 + self.v0_h * np.arange(self.v0_mass.size)
        hi = np.interp(3 * xi + 1.5, edges, self.v0_mass)
        lo = np.interp(3 * xi - 0.5, edges, self.v0_mass)
        return hi - lo

    def v0_at(self, x):
        """The mother bump itself (density of the mass profile)."""
        x = np.asarray(x, dtype=float)
        edges = self.v0_x0 + self.v0_h * np.arange(self.v0_mass.size)
        return (np.interp(x + self.v0_h / 2, edges, self.v0_mass)
                - np.interp(x - self.v0_h / 2, edges, self.v0_mass)) / self.v0_h

    def cutoff_at(self, x, width: float):
        """Smooth cutoff with plateau width/3 and support width, centered at 0.

        This is the spectrum shape reused as a spatial cutoff: it equals 1 on
        [-width/6, width/6] and vanishes off [-width/2, width/2].
        """
        return self.spectrum_at(np.asarray(x, dtype=float) / width)


def _box_widths(params: OsgoodParams, h0: float, k_max: int | None) -> list[float]:
    widths = []
    k = 1
    while True:
        w = 1.0 / params.u(float(k))
        if w < h0 / 2:
            break
        widths.append(w)
        k += 1
        if k_max is not None and k > k_max:
            break
    if k_max is not None:
        if k_max < 2:
            raise ValueError("k_max must be at least 2")
        if k_max > len(widths):
            raise ResolutionError(
                f"grid spacing {h0} cannot resolve box width 1/u({len(widths) + 1}); "
                f"requested k_max={k_max}")
        widths = widths[:k_max]
    return widths


def build_ingham(params: OsgoodParams, k_max: int | None = None,
                 grid_n: int = 2 ** 14, x_max: float = 64.0) -> InghamTable:
    """Construct the window table by the iterated-convolution recurrence.

    The bump v0 lives on a 4x-oversampled grid over [-2, 2]; each convolution
    by a scaled box is a running mean (spectral multiplication is equivalent
    and slower here), with box widths rounded up to whole cells so that unit
    mass and the sup bound are exact.  When k_max is omitted the recurrence
    stops once 1/u(k) falls below half the grid spacing.
    """
    if grid_n < 16 or grid_n & (grid_n - 1):
        raise ValueError("grid_n must be a power of two >= 16")
    M = 4 * grid_n
    h0 = 4.0 / M
    widths = _box_widths(params, h0, k_max)

    v = np.zeros(M)
    i0 = M // 2  # cell at x = 0
    m1 = max(1, int(math.ceil(widths[0] / h0 - 1e-12)))
    v[i0:i0 + m1] = 1.0 / (m1 * h0)
    for w in widths[1:]:
        m = max(1, int(math.ceil(w / h0 - 1e-12)))
        c = np.cumsum(v)
        out = np.empty_like(v)
        out[:m] = c[:m] / m
        out[m:] = (c[m:] - c[:-m]) / m
        v = out

    mass = np.concatenate([[0.0], np.cumsum(v) * h0])
    edges = -2.0 + h0 * np.arange(mass.size)

    def v_at(xi):
        xi = np.asarray(xi, dtype=float)
        return np.interp(3 * xi + 1.5, edges, mass) - np.interp(3 * xi - 0.5, edges, mass)

    freq_grid = Grid(-1.0, 1.0, grid_n)
    spec = GridFunction(freq_grid, v_at(freq_grid.xs()) + 0j)

    # window samples: inverse transform of v on a frequency lattice of spacing
    # 1/(4 x_max); the nearest periodization alias sits at distance >= 3 x_max
    sgrid = _spatial_grid(x_max)
    dxi = 1.0 / (4.0 * x_max)
    m_half = int(math.ceil(0.5 / dxi)) + 1
    xi = dxi * np.arange(-m_half, m_half + 1)
    ups = np.exp(2j * np.pi * np.outer(sgrid.xs(), xi)) @ v_at(xi) * dxi

    return InghamTable(
        params=params,
        grid=sgrid,
        upsilon=GridFunction(sgrid, ups),
        spectrum=spec,
        k_max=len(widths),
        decay_rate=DECAY_RATE,
        v0_mass=mass,
        v0_x0=-2.0,
        v0_h=h0,
    )


def _spatial_grid(x_max: float) -> Grid:
    n = 1 << max(4, math.ceil(math.log2(16 * x_max)))
    return Grid(-x_max, x_max, n)


TABLE_CACHE_VERSION = 1


def save_table(table: InghamTable, path) -> None:
    """Binary cache of the table, keyed by (lam, k_max, grid_n)."""
    np.savez_compressed(
        path,
        version=TABLE_CACHE_VERSION,
        lam=table.params.lam,
        k_max=table.k_max,
        grid_n=(table.v0_mass.size - 1) // 4,
        x_max=table.grid.x1,
        v0_mass=table.v0_mass,
        v0_h=table.v0_h,
        upsilon=table.upsilon.values,
        spectrum=table.spectrum.values,
    )


def load_table(path) -> InghamTable:
    """Reload a cached table; rejects unknown cache versions."""
    data = np.load(path)
    if int(data["version"]) != TABLE_CACHE_VERSION:
        raise ValueError(f"unsupported table cache version {data['version']}")
    params = OsgoodParams(float(data["lam"]))
    x_max = float(data["x_max"])
    sgrid = _spatial_grid(x_max)
    grid_n = int(data["grid_n"])
    return InghamTable(
        params=params,
        grid=sgrid,
        upsilon=GridFunction(sgrid, data["upsilon"]),
        spectrum=GridFunction(Grid(-1.0, 1.0, grid_n), data["spectrum"]),
        k_max=int(data["k_max"]),
        decay_rate=DECAY_RATE,
        v0_mass=data["v0_mass"],
        v0_x0=-2.0,
        v0_h=float(data["v0_h"]),
    )


def verify_sandwich(table: InghamTable) -> Report:
    """Max violation of 1_[-1/6,1/6] <= v <= 1_[-1/2,1/2] over the spectrum grid."""
    xi = table.spectrum.grid.xs()
    v = table.spectrum.values.real
    inner = np.abs(xi) <= 1.0 / 6.0 + 1e-12
    outer = np.abs(xi) >= 0.5 - 1e-12
    lower = float(max(0.0, np.max(1.0 - v[inner])))
    upper = float(max(0.0, np.max(v - 1.0), np.max(v[outer])))
    violation = max(lower, upper)
    return Report(passed=violation <= 1e-6,
                  stats={"violation": violation, "lower": lower, "upper": upper})


def verify_decay(table: InghamTable, a: float = DECAY_RATE, x_max: float = 50.0) -> Report:
    """Envelope |upsilon(x)| exp(a U(x)) on |x| <= x_max, stability under doubling.

    Passes when the sup over the doubled window exceeds the sup over the base
    window by at most 10%; a failing report indicates the claimed rate `a`
    outruns the actual decay of the table.
    """
    if not 0 < a:
        raise ValueError("a must be positive")
    xs = table.grid.xs()
    if 2 * x_max > table.grid.x1 + 1e-9:
        raise ValueError(f"table covers |x| <= {table.grid.x1}, need {2 * x_max}")
    env = np.abs(table.upsilon.values) * np.exp(a * table.params.big_u(xs))
    base = float(env[np.abs(xs) <= x_max].max())
    doubled = float(env[np.abs(xs) <= 2 * x_max].max())
    ratio = doubled / base if base > 0 else 1.0
    ok = math.isfinite(doubled) and ratio <= 1.1
    return Report(passed=ok, stats={"sup_base": base, "sup_doubled": doubled, "ratio": ratio})
