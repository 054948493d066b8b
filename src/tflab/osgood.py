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
from functools import cached_property

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

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be finite and positive, got {self.lam}")
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


# ---------------------------------------------------------------------------
# the window table

@dataclass(frozen=True, eq=False)
class InghamTable:
    """The Ingham window, held as the cumulative mass profile of its mother bump.

    `v0_mass` samples the integral of v0 at the cell edges v0_x0 + v0_h k.
    `spectrum_at` evaluates the spectrum v at any frequency from it, which is
    all the wave-packet constructors read; the window samples `upsilon` on
    `grid` are built from it by one inverse FFT when first read.  Tables
    compare and hash by identity.
    """

    params: OsgoodParams
    k_max: int
    x_max: float                              # `grid` covers [-x_max, x_max)
    v0_mass: np.ndarray = field(repr=False)
    v0_x0: float = field(repr=False)
    v0_h: float = field(repr=False)

    @cached_property
    def _edges(self) -> np.ndarray:
        return self.v0_x0 + self.v0_h * np.arange(self.v0_mass.size)

    def spectrum_at(self, xi):
        """Spectrum v(xi) = mass of v0 on [3 xi - 1/2, 3 xi + 3/2], any xi."""
        xi = np.asarray(xi, dtype=float)
        return (np.interp(3 * xi + 1.5, self._edges, self.v0_mass)
                - np.interp(3 * xi - 0.5, self._edges, self.v0_mass))

    def cutoff_at(self, x, width: float):
        """Smooth cutoff with plateau width/3 and support width, centered at 0.

        This is the spectrum shape reused as a spatial cutoff: it equals 1 on
        [-width/6, width/6] and vanishes off [-width/2, width/2].
        """
        return self.spectrum_at(np.asarray(x, dtype=float) / width)

    @cached_property
    def grid(self) -> Grid:
        """Spatial grid of the window samples: at least 8 samples per unit length."""
        n = 1 << max(4, math.ceil(math.log2(16 * self.x_max)))
        if n > np.iinfo(np.intp).max:
            raise ValueError(f"x_max = {self.x_max} needs 2^{n.bit_length() - 1} "
                             f"window samples, more than numpy can index")
        return Grid(-self.x_max, self.x_max, n)

    @cached_property
    def upsilon(self) -> GridFunction:
        """Window samples on `grid`: the inverse transform of v.

        v is sampled on the frequency lattice xi_k = k dxi, dxi = 1/(4 x_max),
        whose nearest periodization alias sits at distance >= 3 x_max.  With
        x_j = -x_max + 2 x_max j/n, x_j xi_k = -k/4 + jk/(2n), so the sum over
        k is one inverse FFT of length 2n of the coefficients
        (-i)^k v(xi_k) dxi placed at k mod 2n.
        """
        n = self.grid.n
        dxi = 1.0 / (4.0 * self.x_max)
        m_half = int(math.ceil(0.5 / dxi)) + 1
        k = np.arange(-m_half, m_half + 1)
        coef = np.zeros(2 * n, dtype=complex)
        coef[k % (2 * n)] = (np.array([1, -1j, -1, 1j])[k % 4]
                             * self.spectrum_at(k * dxi) * dxi)
        return GridFunction(self.grid, np.fft.ifft(coef)[:n] * (2 * n))


def _box_widths(params: OsgoodParams, h0: float, k_max: int | None) -> list[float]:
    if k_max is not None and k_max < 2:
        raise ValueError("k_max must be at least 2")
    widths = []
    k = 1
    while k_max is None or k <= k_max:
        w = 1.0 / params.u(float(k))
        if w < h0 / 2:
            break
        widths.append(w)
        k += 1
    if len(widths) < (k_max or 1):
        raise ResolutionError(
            f"grid spacing {h0} cannot resolve box width 1/u({len(widths) + 1}); "
            f"requested k_max={k_max}")
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
    if not 0 < x_max <= 2.0 ** 1019:  # so grid.n >= 16 x_max stays a finite float
        raise ValueError(f"x_max must lie in (0, 2^1019], got {x_max}")
    M = 4 * grid_n
    h0 = 4.0 / M
    widths = _box_widths(params, h0, k_max)

    # v0 occupies m1 + sum(m - 1) cells from x = 0 (cell M/2) on: the
    # recurrence runs on that window only, since every running sum left of it
    # is exactly 0, and the full-length cumsum gives the same mass bit for bit
    cells = [max(1, int(math.ceil(w / h0 - 1e-12))) for w in widths]
    v0 = np.zeros(cells[0] + sum(m - 1 for m in cells[1:]))
    v0[:cells[0]] = 1.0 / (cells[0] * h0)
    for m in cells[1:]:
        c = np.cumsum(v0)
        v0[m:] = (c[m:] - c[:-m]) / m
        v0[:m] = c[:m] / m
    v = np.zeros(M)
    v[M // 2:M // 2 + v0.size] = v0
    mass = np.concatenate([[0.0], np.cumsum(v) * h0])
    return InghamTable(params, len(widths), x_max, mass, -2.0, h0)


def verify_sandwich(table: InghamTable) -> Report:
    """Max violation of 1_[-1/6,1/6] <= v <= 1_[-1/2,1/2] on Grid(-1, 1, grid_n).

    grid_n is the table's build resolution: v0's mass profile has 4 grid_n cells.
    """
    xi = Grid(-1.0, 1.0, (table.v0_mass.size - 1) // 4).xs()
    v = table.spectrum_at(xi)
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
