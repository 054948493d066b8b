"""Endpoint sweeps, growth-law fits, randomized audit suites, and reports.

A sweep builds indicator families at a list of measure ratios, restricts the
third function to the major subset produced by the exceptional-set machinery,
evaluates the model sum over a frequency-column lattice of dyadic scales (the
translation-batched engine: slot-3 spectra summed, one inverse FFT per row),
and records the ratio of the measured form to the target growth law with
constant one.  The direct principal-value oracle runs alongside as a trend
cross-check; the two evaluators are bridged by an averaging identity with
unknown constants, so only trends are compared.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError
from .modelsum import coefficient_profile, lambda_direct, synthesis_profile
from .osgood import InghamTable, OsgoodParams, build_ingham
from .packets import PacketBank, TopDatum, band_rows, packet_hats
from .sampling import (Band, DyadicInterval, Grid, GridFunction, Report,
                       lp_norm, maximal_function)
from .timefreq import (BETA, Tree, Tritile, _SizeContext, exceptional_sets,
                       gamma_from_beta, in_hexagon, lacunary_frequency,
                       thin_well_discretized, validate_tree)

THEOREMS = ("T1", "T2", "T3", "C15")
SET_FAMILIES = ("interval", "cantor")

#: middle-thirds depth of the "cantor" set family
CANTOR_DEPTH = 3
#: sweeps run on [-DOMAIN/2, DOMAIN/2); a power of two, like the grid size,
#: so that the engine's translate step s/h divides n
DOMAIN = 32.0
#: engine translates cover [-POS_EXTENT, POS_EXTENT], inside the domain
POS_EXTENT = 8.0
#: coarsest engine scale is 2^SCALE_LOG2_MAX
SCALE_LOG2_MAX = 2
#: threshold constant for the exceptional sets: any value passing the
#: majority check is admissible; a large one shrinks the excluded buffer and
#: probes the sharpness of the growth law
EXC_C0 = 64.0
#: most samples (columns x fold size) of one block of engine columns, which
#: bounds a block's arrays; every column's bits are the same at any size
BLOCK_SAMPLES = 2 ** 14


def star(t: float) -> float:
    """The correction map (1 + t) log(e + t)^3."""
    return (1.0 + t) * math.log(math.e + t) ** 3


@dataclass(frozen=True)
class SweepConfig:
    theorem: str = "T1"
    alpha: tuple[float, float, float] | None = None  # None: the theorem's own
    set_family: str = "interval"        # one of SET_FAMILIES
    ratios: tuple[float, ...] = tuple(2.0 ** -j for j in range(1, 11))
    grid_n: int = 2 ** 15
    eps: float = 2.0 ** -4
    seed: int = 0
    m_xi_max: int = 64
    scale_log2_min: int = -10
    ingham_grid_n: int = 2 ** 13
    oracle_n: int = 2 ** 12

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ValueError(f"theorem must be one of {THEOREMS}")
        if self.set_family not in SET_FAMILIES:
            raise ValueError(f"set_family must be one of {SET_FAMILIES}, "
                             f"got {self.set_family!r}")
        r = self.ratios
        if (not r or not all(math.isfinite(x) and x > 0 for x in r)
                or any(a <= b for a, b in zip(r, r[1:]))):
            raise ValueError("ratios must be finite, positive and strictly decreasing")
        if r[0] > DOMAIN / 2:
            raise ValueError(f"ratios must be at most {DOMAIN / 2}, where "
                             f"F2 = [0, delta) still fits the domain; got {r[0]}")
        if not 0 < self.eps <= 1:
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")
        # the oracle decimates the grid by grid_n // oracle_n
        if self.oracle_n < 2 or self.oracle_n & (self.oracle_n - 1):
            raise ValueError(
                f"oracle_n must be a power of two >= 2, got {self.oracle_n}")
        if self.alpha is None:
            object.__setattr__(self, "alpha", {
                "T1": (0.5, 1.0, -0.5), "T2": (0.75, 0.75, -0.5),
                "T3": (0.8, 0.5, -0.3), "C15": (0.75, 0.75, -0.5)}[self.theorem])
        if not in_hexagon(self.alpha):
            raise ValueError(f"alpha {tuple(self.alpha)} outside the admissible hexagon")
        a1, a2, _ = self.alpha
        # the T2/T3/C15 families and bounds divide by a1 and 1 - a1, and
        # T2/C15 also by 1 - a2
        if self.theorem != "T1" and not 0 < a1 < 1:
            raise ValueError(f"{self.theorem} needs 0 < alpha1 < 1, got {a1}")
        if self.theorem in ("T2", "C15") and not a2 < 1:
            raise ValueError(f"{self.theorem} needs alpha2 < 1, got {a2}")


@dataclass
class SweepRow:
    delta: float
    lambda_model: float
    lambda_direct: float
    bound_rhs: float
    ratio: float
    f3_major_fraction: float
    status: str = "ok"


FIELDS = ["delta", "lambda_model", "lambda_direct", "bound_rhs", "ratio",
          "f3_major_fraction", "status"]


def cantor_intervals(lo: float, hi: float,
                     depth: int) -> list[tuple[float, float]]:
    """Depth-d middle-thirds construction on [lo, hi) (measure (2/3)^d (hi-lo))."""
    parts = [(lo, hi)]
    for _ in range(depth):
        nxt = []
        for a, b in parts:
            w = (b - a) / 3.0
            nxt.extend([(a, a + w), (b - w, b)])
        parts = nxt
    return parts


def _bump(grid: Grid, width: float, p: float) -> GridFunction:
    """Gaussian bump of unit L^p norm."""
    xs = grid.xs()
    v = np.exp(-((xs / width) ** 2)) + 0j
    f = GridFunction(grid, v)
    return GridFunction(grid, v / lp_norm(f, p))


def _f1(cfg: SweepConfig, grid: Grid) -> GridFunction:
    """f1, the same function at every ratio of a sweep."""
    if cfg.theorem == "C15":
        return GridFunction(grid, grid.mask([(0.0, 1.0)]) + 0j)
    return _bump(grid, 4.0, 2.0 if cfg.theorem == "T1" else 1.0 / cfg.alpha[0])


def _family(cfg: SweepConfig, delta: float, grid: Grid):
    """(f2, F3 mask, F2 mask) per the theorem's restriction pattern."""
    if cfg.set_family == "cantor":
        scale = 1.5 ** CANTOR_DEPTH
        f2_set = grid.mask(cantor_intervals(0.0, min(delta * scale, 2.0),
                                            CANTOR_DEPTH))
    else:
        f2_set = grid.mask([(0.0, delta)])
    if cfg.theorem == "T3":
        return _bump(grid, 2.0, 2.0), grid.mask([(0.0, delta)]), f2_set
    return GridFunction(grid, f2_set + 0j), grid.mask([(0.0, 1.0)]), f2_set


def _bound_rhs(cfg: SweepConfig, f1n: float, f2n: float, f2_measure: float,
               f3_measure: float) -> float:
    """Right side of the targeted growth law with constant one."""
    a1, a2, a3 = cfg.alpha
    if cfg.theorem == "T1":
        return f1n * f2_measure * f3_measure ** -0.5 * math.log(
            math.e + f3_measure / f2_measure)
    if cfg.theorem == "T2":
        lead = 1.0 / ((1 - a1) * (1 - a2))
        body = f1n * f2_measure ** a2 * f3_measure ** -0.5
        corr = star(max(1.0 / (1 - a1),
                        math.log(max(f3_measure / f2_measure, 1.0))))
        return lead * body * corr ** (2 * (1 - a2))
    if cfg.theorem == "T3":
        lead = (1.0 / (1 - a1)) * star(1.0 / (1 - a1)) ** (2 * a1 - 1)
        return lead * f1n * f2n * f3_measure ** (0.5 - a1)
    # C15
    prod = f2_measure ** a2 * f3_measure ** a3 * 1.0 ** a1
    corr = max(1.0 / min(1 - a1, 1 - a2),
               math.log(math.log(math.e ** math.e
                                 + f3_measure / min(1.0, f2_measure))))
    return prod * corr


class _LatticeEngine:
    """Translation-batched model-sum evaluator over a frequency-column lattice.

    Built once per sweep from f1 (the prune, the slot-1 profiles); rows pass f2.
    A column at scale s has translates every step = s/h samples, at offset r
    from the origin; they are the slots of its folded profiles, of size
    m = n/step.  The kept columns of a scale share s, step, r and the slots,
    so they run in blocks of at most BLOCK_SAMPLES // m columns, in frequency
    order: `blocks` holds (s, step, r, slots, band2, band3, g1) per block,
    one row of g1 and of the slot-2 and slot-3 `packet_hats` forms per column.
    """

    def __init__(self, cfg: SweepConfig, grid: Grid, table: InghamTable,
                 f1: GridFunction):
        self.cfg = cfg
        self.grid = grid
        self.beta = np.asarray(BETA, dtype=float)
        self.gamma = gamma_from_beta(self.beta)
        self.scales = [2.0 ** j for j in
                       range(SCALE_LOG2_MAX, cfg.scale_log2_min - 1, -1)
                       if 4 * grid.spacing <= 2.0 ** j]
        fh1 = np.fft.fft(f1.values)
        # a column is pruned when its slot-1 band holds under 1e-12 of f1's
        # spectral energy, and dropped when any of its three bands does not
        # resolve, so every kept column runs through each row
        power = np.abs(fh1) ** 2
        total = float(power.sum())
        lo = int(round((-POS_EXTENT - grid.x0) / grid.spacing))
        hi = int(round((POS_EXTENT - grid.x0) / grid.spacing))
        mxi = np.arange(-cfg.m_xi_max, cfg.m_xi_max + 1)
        self.blocks = []
        for s in self.scales:
            step = round(s / grid.spacing)
            r = lo % step
            # the translates span samples n/4 ... 3n/4, so no slot wraps
            slots = np.arange(lo, hi + 1, step) // step
            xi = [(self.gamma[j] * mxi + self.beta[j]) / s for j in range(3)]
            bins, _, counts, fault = band_rows(grid, s, xi[0], cfg.eps)
            keep = (fault == 0) & (total > 0)
            ends = counts.cumsum()
            for i in np.flatnonzero(keep).tolist():
                # one sum over the column's own bins, as for a lone column
                if power[bins[ends[i] - counts[i]:ends[i]]].sum() / total < 1e-12:
                    keep[i] = False
            for x in xi[1:]:
                keep[keep] = band_rows(grid, s, x[keep], cfg.eps)[3] == 0
            kept = np.flatnonzero(keep)
            rows = max(1, BLOCK_SAMPLES // (grid.n // step))
            for a in range(0, kept.size, rows):
                at = kept[a:a + rows]
                band1, band2, band3 = (packet_hats(grid, s, x[at], cfg.eps,
                                                   table) for x in xi)
                g1 = coefficient_profile(fh1, grid, band1, step, r)
                self.blocks.append((s, step, r, slots, band2, band3,
                                    g1[:, slots]))

    def evaluate(self, f2: GridFunction,
                 mask: np.ndarray) -> tuple[float, GridFunction]:
        """(best |model sum|, aligned f3) over subindicators of the major set,
        given as its sample mask."""
        grid = self.grid
        fh2 = np.fft.fft(f2.values)
        spectrum = np.zeros(grid.n, dtype=complex)  # of the slot-3 synthesis
        for s, step, r, slots, band2, band3, g1 in self.blocks:
            g2 = coefficient_profile(fh2, grid, band2, step, r)
            weights = np.zeros(g2.shape, dtype=complex)
            weights[:, slots] = np.conj(g1 * g2[:, slots]) * s ** -0.5
            bins, values = synthesis_profile(weights, grid, band3, r)
            # neighbouring columns' bands can overlap: add bin by bin, in
            # column order
            np.add.at(spectrum, bins, values)
        w_total = np.fft.ifft(spectrum) * (grid.n / grid.length)
        mag = np.abs(w_total)
        lam = float(mag[mask].sum() * grid.spacing)
        f3 = np.zeros(grid.n, dtype=complex)
        nz = mask & (mag > 0)
        f3[nz] = w_total[nz] / mag[nz]
        f3[mask & ~ (mag > 0)] = 1.0
        return lam, GridFunction(grid, f3)


def _oracle_value(cfg: SweepConfig, f1: GridFunction, f2: GridFunction,
                  f3: GridFunction) -> float:
    """|direct principal-value form| on a decimated copy of the inputs."""
    grid = f1.grid
    stride = max(1, grid.n // cfg.oracle_n)
    small = Grid(grid.x0, grid.x1, grid.n // stride)
    def down(f):
        return GridFunction(small, f.values[::stride].copy())
    return abs(lambda_direct(down(f1), down(f2), down(f3), BETA,
                             t_max=grid.length / 4))


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """One row per ratio; failed rows are marked in `status`, never dropped."""
    table = build_ingham(OsgoodParams(1.0), grid_n=cfg.ingham_grid_n)
    grid = Grid(-DOMAIN / 2, DOMAIN / 2, cfg.grid_n)
    alpha = cfg.alpha
    f1 = _f1(cfg, grid)
    f1n = lp_norm(f1, 2.0 if cfg.theorem == "T1" else 1.0 / alpha[0])
    engine = _LatticeEngine(cfg, grid, table, f1)
    f1_max = maximal_function(f1, 1.0 / alpha[0]) if alpha[0] > 0 else None

    def one(delta: float) -> SweepRow:
        try:
            if not engine.blocks:
                raise ResolutionError("the lattice engine keeps no column")
            if delta < grid.spacing:
                raise ResolutionError(f"delta = {delta:.6g} is below the grid "
                                      f"spacing {grid.spacing:.6g}")
            f2, f3_set, f2_set = _family(cfg, delta, grid)
            _, _, f3_major = exceptional_sets(f1, f2, f3_set, alpha, c0=EXC_C0,
                                              h1_maximal=f1_max)
            f3_count = int(np.count_nonzero(f3_set))
            frac = int(np.count_nonzero(f3_major)) / f3_count
            lam_model, f3 = engine.evaluate(f2, f3_major)
            lam_direct = _oracle_value(cfg, f1, f2, f3)
            f2n = lp_norm(f2, 2.0)
            # |F2| and |F3| are grid measures: sample count x h
            rhs = _bound_rhs(cfg, f1n, f2n,
                             int(np.count_nonzero(f2_set)) * grid.spacing,
                             f3_count * grid.spacing)
            return SweepRow(delta, lam_model, lam_direct, rhs,
                            lam_model / rhs if rhs > 0 else math.nan, frac)
        except ResolutionError as exc:
            return SweepRow(delta, math.nan, math.nan, math.nan, math.nan,
                            math.nan, status=f"resolution-error: {exc}")

    return [one(d) for d in cfg.ratios]


# ---------------------------------------------------------------------------
# growth fits

#: regressor of each one-constant growth law y = c * regressor(delta)
GROWTH_REGRESSORS = {
    "log": lambda d: np.log(math.e + 1.0 / d),
    "loglog": lambda d: np.log(np.log(math.e ** math.e + 1.0 / d)),
}


def fit_growth(rows, model: str, min_exponent: float | None = None
               ) -> tuple[float, float]:
    """(coefficient-or-exponent, rms residual) of a one-term growth fit.

    model="log" and "loglog" fit y = c * regressor and return c; "power" fits
    y = c * delta^-e (least squares in log space, optional exponent floor,
    coefficient refit and residual evaluated in linear space) and returns e.
    """
    pts = [(r.delta, r.ratio) for r in rows if r.status == "ok"
           and math.isfinite(r.ratio)]
    if len(pts) < 4:
        raise ValueError("need at least 4 usable rows")
    d = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    if model in GROWTH_REGRESSORS:
        reg = GROWTH_REGRESSORS[model](d)
    elif model == "power":
        e = float(np.polyfit(np.log(1.0 / d), np.log(np.maximum(y, 1e-300)), 1)[0])
        if min_exponent is not None:
            e = max(e, min_exponent)
        reg = d ** -e
    else:
        raise ValueError(f"unknown model {model!r}")
    c = float((y * reg).sum() / (reg * reg).sum())
    rms = float(np.sqrt(np.mean((y - c * reg) ** 2)))
    return (e if model == "power" else c), rms


# ---------------------------------------------------------------------------
# report emission

def emit_report(rows: list[SweepRow], fits: dict[str, tuple[float, float]],
                csv_path, svg_path) -> int:
    """CSV of the rows plus a log-log SVG with fitted overlays, each written
    when its path is not None; 2 when no row is ok."""
    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(FIELDS)
            for r in rows:
                w.writerow([repr(float(r.delta)), repr(float(r.lambda_model)),
                            repr(float(r.lambda_direct)),
                            repr(float(r.bound_rhs)), repr(float(r.ratio)),
                            repr(float(r.f3_major_fraction)), r.status])
    ok = [r for r in rows if r.status == "ok" and math.isfinite(r.ratio)
          and r.ratio > 0]
    if not ok:
        return 2
    if svg_path is not None:
        _write_svg(ok, fits, svg_path)
    return 0


def _write_svg(rows, fits, path) -> None:
    width, height, pad = 640, 440, 50
    xs = np.log10([r.delta for r in rows])
    ys = np.log10([r.ratio for r in rows])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 - x0 < 1e-9:
        x1 = x0 + 1.0
    if y1 - y0 < 1e-9:
        y1 = y0 + 1.0

    def px(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def py(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" '
             f'y2="{height-pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" '
             f'stroke="black"/>',
             f'<text x="{width//2}" y="{height-12}" font-size="12" '
             f'text-anchor="middle">log10 delta</text>',
             f'<text x="14" y="{height//2}" font-size="12" '
             f'transform="rotate(-90 14 {height//2})" '
             f'text-anchor="middle">log10 ratio</text>']
    colors = {"log": "#1f77b4", "loglog": "#2ca02c"}
    for name, (val, _resid) in fits.items():
        if name not in GROWTH_REGRESSORS:
            continue  # the exponent-only power fit has no overlay constant
        pts = []
        for r in rows:
            yy = val * float(GROWTH_REGRESSORS[name](r.delta))
            if yy > 0:
                pts.append(f"{px(math.log10(r.delta)):.2f},"
                           f"{py(math.log10(yy)):.2f}")
        if pts:
            parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                         f'stroke="{colors[name]}" '
                         f'stroke-width="1.5"/>')
    for r in rows:
        parts.append(f'<circle cx="{px(math.log10(r.delta)):.2f}" '
                     f'cy="{py(math.log10(r.ratio)):.2f}" r="3.5" '
                     f'fill="black"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# randomized tree/forest audit suite (shared by tests and the CLI)

#: frequency-window constant R of the audit suite's collections and trees
SUITE_R_CONST = 32.0


def suite_direction() -> tuple[np.ndarray, np.ndarray]:
    """(beta, gamma) with small first gamma component g1 = 0.0577.

    Multi-scale nesting under the structural dichotomy needs the per-scale
    frequency drift 1/(sqrt(3)|gamma_1|) inside a window fixed by the scale
    gap and R; small gamma_1 realizes it at the cost of a smaller (but still
    positive) distance to the degenerate directions.
    """
    g1 = 0.0577
    a = (-g1 + math.sqrt(2.0 - 3.0 * g1 * g1)) / 2.0
    gamma = np.array([g1, a, -g1 - a])
    n = np.ones(3) / math.sqrt(3.0)
    beta = np.cross(n, gamma)
    return beta / np.linalg.norm(beta), gamma / np.linalg.norm(gamma)


def random_collection(rng: np.random.Generator, grid: Grid,
                      scales: tuple[int, ...] = (2, 0, -2)) -> list[Tritile]:
    """Random well-discretized tritile collection containing multi-scale trees.

    Tiles sit on a single frequency ray: the slot-1 center is a fixed xi*
    at every scale, and slots 2, 3 drift by +-w/ell with w = 1/(sqrt(3) g1)
    tuned so the structural dichotomy holds between consecutive scales
    (10-windows separate, R-windows nest).  The thinning pass is a safety
    net and normally keeps everything.
    """
    beta, gamma = suite_direction()
    w = 1.0 / (math.sqrt(3.0) * gamma[0])
    xi_star = rng.uniform(-0.75, 0.75)
    cands = []
    for m in scales:
        ell = 2.0 ** m
        centers = [xi_star] + [(gamma[k] / gamma[0]) * xi_star
                               + (w if k == 1 else -w) / ell for k in (1, 2)]
        if max(abs(c) for c in centers) + 0.5 / ell >= 0.8 * grid.nyquist:
            continue
        bands = tuple(Band(c - 0.5 / ell, c + 0.5 / ell) for c in centers)
        span = max(1, int(4.0 / ell))
        take = min(max(2, int(3 * 2 ** -m)), 2 * span)
        for pos in rng.choice(np.arange(-span, span), size=take, replace=False):
            cands.append(Tritile(DyadicInterval(m, int(pos)), bands,
                                 coeff=complex(np.exp(2j * np.pi * rng.uniform()))))
    return thin_well_discretized(cands, r_const=SUITE_R_CONST)


def random_tree(rng: np.random.Generator, grid: Grid):
    """Genuine 1-tree from a ray collection: top at the shared slot-1 center."""
    S = random_collection(rng, grid)
    if not S:
        return None
    top_scale = max(s.space.scale for s in S) + 1
    anchor = rng.choice([s for s in S if s.space.scale == top_scale - 1])
    top = anchor.space.parent()
    members = tuple(s for s in S if top.contains(s.space))
    xi_t = anchor.freqs[0].center
    lac = {}
    for k in (2, 3):
        w = lacunary_frequency(members, k, r_const=SUITE_R_CONST)
        if w is not None:
            lac[k] = w
    return Tree(TopDatum(top, xi_t), members, 1, lac)


def random_signal(rng: np.random.Generator, grid: Grid, n_bumps: int = 5,
                  freq_max: float = 8.0) -> GridFunction:
    xs = grid.xs()
    v = np.zeros(grid.n, dtype=complex)
    for _ in range(n_bumps):
        c = rng.uniform(-4, 4)
        w = rng.uniform(0.3, 2.0)
        v += (rng.uniform(0.3, 1.5) * np.exp(2j * np.pi * rng.uniform())
              * np.exp(-((xs - c) / w) ** 2)
              * np.exp(2j * np.pi * rng.uniform(-freq_max, freq_max) * xs))
    return GridFunction(grid, v)


def run_tree_suite(seed: int, cases: int, table: InghamTable | None = None,
                   grid_n: int = 2 ** 12) -> Report:
    """Randomized partition/halving/counting audits; passes when all cases do."""
    params = OsgoodParams(1.0)
    if table is None:
        table = build_ingham(params, grid_n=2 ** 12)
    grid = Grid(-16.0, 16.0, grid_n)
    rng = np.random.default_rng(seed)
    bank = PacketBank(table, grid, 0.5)  # coarse tiles need the wider band fraction
    failures = []
    counting_cs = []
    for case in range(cases):
        S = random_collection(rng, grid)
        if not S:
            continue
        f = random_signal(rng, grid)
        ctx = _SizeContext.of(S, f, 3, bank)
        sz = ctx.size
        if sz == 0:
            continue
        rest, forest = ctx.split(sz)
        key = lambda s: (s.space.scale, s.space.pos, s.freqs[0].lo)
        if sorted(map(key, S)) != sorted(map(key, rest.S + forest.tritiles())):
            failures.append(f"case {case}: partition broken")
        if rest.size > sz / 2 + 1e-12:
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
    return Report(passed=not failures, stats=stats, notes=failures[:10])
