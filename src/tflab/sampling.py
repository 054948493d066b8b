"""Uniform grids, grid functions, dyadic intervals, and the local-average machinery.

Everything downstream (windows, wave packets, projections, model sums) is built
on the sampled-signal types defined here.  Conventions:

* a ``Grid`` covers the half-open interval ``[x0, x1)`` with ``n`` samples at
  ``x0 + j*h``; quadrature is the trapezoid rule under the periodic convention,
  i.e. the plain rectangle sum ``h * sum(...)``;
* interval-local norms are normalized: ``||f||_{L^p(I)} = (mean_I |f|^p)^{1/p}``;
* a set is a boolean sample mask on its grid (``Grid.mask``: the samples of
  ``slice_of`` for each of its ranges), and its measure is the grid measure,
  sample count times ``h``;
* dyadic intervals are intervals of the real line ``[m 2^j, (m+1) 2^j)`` and are
  only meaningful on grids whose spacing and origin are dyadic rationals.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError


# ---------------------------------------------------------------------------
# grids and grid functions

def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform sampling of [x0, x1) with a power-of-two number of samples."""

    x0: float
    x1: float
    n: int

    def __post_init__(self):
        if not self.x0 < self.x1:
            raise ValueError(f"empty grid domain [{self.x0}, {self.x1})")
        if self.n < 2 or not _is_power_of_two(self.n):
            raise ValueError(f"grid size must be a power of two >= 2, got {self.n}")

    @property
    def spacing(self) -> float:
        return (self.x1 - self.x0) / self.n

    @property
    def length(self) -> float:
        return self.x1 - self.x0

    def xs(self) -> np.ndarray:
        return self.x0 + self.spacing * np.arange(self.n)

    def freqs(self) -> np.ndarray:
        """DFT frequency lattice (spacing 1/length, fftfreq ordering)."""
        return np.fft.fftfreq(self.n, d=self.spacing)

    @property
    def nyquist(self) -> float:
        return 0.5 / self.spacing

    def index_of(self, x: float) -> int:
        """Index of the sample at x; x must sit on the lattice."""
        t = (x - self.x0) / self.spacing
        i = int(round(t))
        if abs(t - i) > 1e-9:
            raise ValueError(f"{x} is not a sample point of {self}")
        if not 0 <= i < self.n:
            raise ValueError(f"{x} outside grid domain")
        return i

    def slice_of(self, lo: float, hi: float) -> slice:
        """Sample range covering [lo, hi) intersected with the domain."""
        i0 = max(0, int(math.ceil((lo - self.x0) / self.spacing - 1e-9)))
        i1 = min(self.n, int(math.ceil((hi - self.x0) / self.spacing - 1e-9)))
        return slice(i0, max(i0, i1))

    def mask(self, pairs) -> np.ndarray:
        """Sample mask of the union of the ranges [lo, hi), each by `slice_of`."""
        out = np.zeros(self.n, dtype=bool)
        for lo, hi in pairs:
            out[self.slice_of(lo, hi)] = True
        return out

    def snap_frequency(self, xi: float) -> float:
        """Nearest point of the DFT frequency lattice."""
        return round(xi * self.length) / self.length


@dataclass(frozen=True)
class GridFunction:
    """Complex samples of a function on a Grid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got shape {v.shape}")
        if not np.all(np.isfinite(v.view(float))):
            raise ValueError("grid function contains non-finite samples")
        object.__setattr__(self, "values", v)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _same_grid(self, other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _same_grid(self, other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, c) -> "GridFunction":
        return GridFunction(self.grid, self.values * c)

    __rmul__ = __mul__


def _same_grid(f: GridFunction, g: GridFunction) -> None:
    if f.grid != g.grid:
        raise GridMismatchError(f"{f.grid} vs {g.grid}")


def _powers(a: np.ndarray, p: float) -> tuple[np.ndarray, float]:
    """(a^p, 1.0) for a >= 0, or ((a/top)^p, top) with top = max a when the
    sum of a^p is not finite (a large p): callers scale their p-th root back
    by top."""
    with np.errstate(over="ignore"):
        power = a**p
        total = power.sum()
    if math.isfinite(total) or not 0 < a.max() < math.inf:
        return power, 1.0
    top = float(a.max())
    return (a / top)**p, top


def lp_norm(f: GridFunction, p: float) -> float:
    """Global (unnormalized) L^p quadrature norm; p = inf gives the sup norm."""
    a = np.abs(f.values)
    if p == math.inf:
        return float(a.max())
    power, top = _powers(a, p)
    return float(power.sum() * f.grid.spacing) ** (1.0 / p) * top


def local_norm(f: GridFunction, lo: float, hi: float, p: float) -> float:
    """Normalized interval norm (mean_I |f|^p)^(1/p); sup norm at p = inf."""
    sl = f.grid.slice_of(lo, hi)
    a = np.abs(f.values[sl])
    if a.size == 0:
        return 0.0
    if p == math.inf:
        return float(a.max())
    power, top = _powers(a, p)
    return float(np.mean(power) ** (1.0 / p)) * top


# ---------------------------------------------------------------------------
# plain interval arithmetic (frequency bands, dilated intervals)

@dataclass(frozen=True, order=True)
class Band:
    """Half-open interval [lo, hi) of the real line."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty band [{self.lo}, {self.hi})")

    @property
    def center(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def dilate(self, c: float) -> "Band":
        """Band with the same center and c times the length."""
        half = 0.5 * c * self.length
        return Band(self.center - half, self.center + half)

    def contains_point(self, x: float) -> bool:
        return self.lo <= x < self.hi

    def contains_band(self, other: "Band") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "Band") -> bool:
        return self.lo < other.hi and other.lo < self.hi


# ---------------------------------------------------------------------------
# dyadic intervals

@dataclass(frozen=True, order=True)
class DyadicInterval:
    """The interval [pos * 2^scale, (pos+1) * 2^scale) of the standard dyadic grid."""

    scale: int
    pos: int

    @property
    def length(self) -> float:
        return math.ldexp(1.0, self.scale)

    @property
    def lo(self) -> float:
        return self.pos * self.length

    @property
    def hi(self) -> float:
        return (self.pos + 1) * self.length

    @property
    def center(self) -> float:
        return (self.pos + 0.5) * self.length

    def band(self) -> Band:
        return Band(self.lo, self.hi)

    def dilate(self, c: float) -> Band:
        return self.band().dilate(c)

    def parent(self) -> "DyadicInterval":
        return DyadicInterval(self.scale + 1, self.pos >> 1)

    def contains(self, other: "DyadicInterval") -> bool:
        if other.scale > self.scale:
            return False
        return other.pos >> (self.scale - other.scale) == self.pos


def dyadic_log2(x: float) -> int:
    """log2 of an exact power of two; raises otherwise."""
    m, e = math.frexp(x)
    if m != 0.5:
        raise ValueError(f"{x} is not a power of two")
    return e - 1


def grid_dyadic_scales(grid: Grid) -> range:
    """Dyadic scales representable on the grid, finest (spacing) to the domain."""
    jmin = dyadic_log2(grid.spacing)
    jmax = int(math.floor(math.log2(grid.length)))
    return range(jmin, jmax + 1)


def dyadic_cover(grid: Grid, scale: int) -> range:
    """Positions m with [m 2^scale, (m+1) 2^scale) inside the grid domain."""
    length = math.ldexp(1.0, scale)
    m0 = int(math.ceil(grid.x0 / length - 1e-12))
    m1 = int(math.floor(grid.x1 / length + 1e-12))
    return range(m0, m1)


# ---------------------------------------------------------------------------
# maximal functions

def maximal_function(f: GridFunction, p: float) -> GridFunction:
    """Local p-average supremum over the dyadic-lazy interval family.

    The family consists of all windows of dyadic sample count (1, 2, 4, ...)
    with grid-aligned endpoints, lying inside the domain.  This approximates
    the full supremum over intervals within a factor 4 (the test suite keeps
    the brute-force supremum over all windows as the reference).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    a, top = _powers(np.abs(f.values), p)
    n = f.grid.n
    c = np.concatenate([[0.0], np.cumsum(a)])
    best = np.full(n, -np.inf)
    m = 1
    while m <= n:
        run = np.full(n, -np.inf)
        run[:n - m + 1] = (c[m:] - c[:-m]) / m  # window means by start index
        k = 1
        while k < m:  # doubling: run[i] becomes the best start in (i - 2k, i]
            run[k:] = np.maximum(run[k:], run[:-k])
            k *= 2
        np.maximum(best, run, out=best)
        m *= 2
    return GridFunction(f.grid, best ** (1.0 / p) * top + 0j)


# ---------------------------------------------------------------------------
# superlevel sets and maximal dyadic intervals

def bands_inside(mask: np.ndarray, grid: Grid, lo, hi) -> np.ndarray:
    """Which bands [lo, hi) (float arrays) lie in the domain, with 1e-12 slack,
    and have every sample in `mask`; sample ranges as in ``Grid.slice_of``."""
    return _inside(np.concatenate([[0], np.cumsum(mask, dtype=np.int64)]), grid, lo, hi)


def _inside(count: np.ndarray, grid: Grid, lo, hi) -> np.ndarray:
    """`bands_inside` against the mask's cumulative sample count (leading 0)."""
    i0 = np.clip(np.ceil((lo - grid.x0) / grid.spacing - 1e-9), 0, grid.n).astype(int)
    i1 = np.clip(np.ceil((hi - grid.x0) / grid.spacing - 1e-9), i0, grid.n).astype(int)
    return ((lo >= grid.x0 - 1e-12) & (hi <= grid.x1 + 1e-12)
            & (i1 > i0) & (count[i1] - count[i0] == i1 - i0))


def _maximal_dyadic(mask, grid: Grid, dilation: float) -> list[DyadicInterval]:
    """Maximal dyadic Q in the domain with dilation*Q inside `mask`, by one array
    pass per scale, coarse to fine, against one cumulative count of the mask.
    Positions run from floor(x0/length) to ceil(x1/length), so the parent
    ``pos >> 1`` of each is in the array of the scale above; ``covered`` marks
    those inside an accepted interval."""
    scales = grid_dyadic_scales(grid)
    count = np.concatenate([[0], np.cumsum(mask, dtype=np.int64)])
    out, covered = [], np.zeros(2, dtype=bool)  # the (empty) scale above them all
    base = math.floor(grid.x0 / math.ldexp(2.0, scales[-1]))
    for scale in reversed(scales):
        length, cover = math.ldexp(1.0, scale), dyadic_cover(grid, scale)
        pos = np.arange(math.floor(grid.x0 / length), math.ceil(grid.x1 / length))
        inherited = covered[(pos >> 1) - base]
        lo, hi = pos * length, (pos + 1) * length
        center, half = 0.5 * (lo + hi), 0.5 * dilation * (hi - lo)
        accepted = ((pos >= cover.start) & (pos < cover.stop) & ~inherited
                    & _inside(count, grid, center - half, center + half))
        out.extend(DyadicInterval(scale, p) for p in pos[accepted].tolist())
        covered, base = inherited | accepted, int(pos[0])
    return sorted(out, key=lambda q: q.lo)


def superlevel_decompose(g: GridFunction, lam: float) -> list[DyadicInterval]:
    """Maximal dyadic grid intervals Q with 9Q inside the superlevel set {g > lam}.

    Points outside the domain count as outside the superlevel set, so 9Q must
    fit inside it.  The output is disjoint and sorted (one pass per scale).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    return _maximal_dyadic(g.values.real > lam, g.grid, 9.0)


def maximal_dyadic_intervals(mask: np.ndarray, grid: Grid) -> list[DyadicInterval]:
    """Sorted maximal dyadic grid intervals entirely inside the sampled set `mask`."""
    return _maximal_dyadic(np.asarray(mask, dtype=bool), grid, 1.0)


def cover_count(grid: Grid, bands) -> np.ndarray:
    """Pointwise number of bands [lo, hi) that hold each sample point.

    A difference array over sample indices: each band adds one from its first
    sample >= lo up to, not including, its first sample >= hi.
    """
    xs = grid.xs()
    bands = list(bands)
    diff = np.zeros(grid.n + 1)
    np.add.at(diff, np.searchsorted(xs, [b.lo for b in bands]), 1.0)
    np.add.at(diff, np.searchsorted(xs, [b.hi for b in bands]), -1.0)
    return np.cumsum(diff[:-1])


# ---------------------------------------------------------------------------
# reports and CSV round-trips

@dataclass
class Report:
    """Outcome of a verification pass: flag plus named statistics."""

    passed: bool
    stats: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def write_gridfunction_csv(f: GridFunction, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "re", "im"])
        for x, v in zip(f.grid.xs(), f.values):
            w.writerow([repr(float(x)), repr(float(v.real)), repr(float(v.imag))])


def _csv_sample(path, line: int, row: list[str]) -> tuple[float, float, float]:
    """(x, re, im) of one data row; ValueError naming the file and line."""
    try:
        x, re, im = map(float, row)
    except ValueError:
        raise ValueError(f"{path}, line {line}: expected three numbers x,re,im, "
                         f"got {','.join(row)!r}") from None
    if not all(map(math.isfinite, (x, re, im))):
        raise ValueError(f"{path}, line {line}: non-finite value in "
                         f"{','.join(row)!r}")
    return x, re, im


def read_gridfunction_csv(path) -> GridFunction:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["x", "re", "im"]:
            raise ValueError(f"{path}: expected header x,re,im")
        data = np.array([_csv_sample(path, reader.line_num, row)
                         for row in reader]).reshape(-1, 3)
    xs, re, im = data.T
    n = xs.size
    if n < 2:
        raise ValueError(f"{path}: need at least two samples")
    h = xs[1] - xs[0]
    if not np.allclose(np.diff(xs), h, rtol=0, atol=1e-9 * abs(h)):
        raise ValueError(f"{path}: non-uniform sample spacing")
    grid = Grid(float(xs[0]), float(xs[0] + n * h), n)
    return GridFunction(grid, re + 1j * im)
