"""Endpoint sweeps, growth-law fits, randomized audit suites, and reports.

A sweep builds indicator families at a list of measure ratios, restricts the
third function to the major subset produced by the exceptional-set machinery,
evaluates the model sum over a frequency-column lattice of dyadic scales (one
FFT per scale/column/slot via the translation-batched engine), and records the
ratio of the measured form to the target growth law with constant one.  The
direct principal-value oracle runs alongside as a trend cross-check; the two
evaluators are bridged by an averaging identity with unknown constants, so
only trends are compared.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError
from .modelsum import bht_direct, coefficient_profile, synthesis_profile
from .osgood import InghamTable, OsgoodParams, build_ingham
from .packets import PacketBank
from .sampling import (Band, DyadicInterval, Grid, GridFunction, IntervalSet,
                       Report, lp_norm)
from .timefreq import (Tritile, collection_size, exceptional_sets,
                       gamma_from_beta, size_lemma_split,
                       thin_well_discretized, validate_tree)

THEOREMS = ("T1", "T2", "T3", "C15")

#: hexagon of admissible exponent triples
def in_hexagon(alpha) -> bool:
    a = tuple(alpha)
    return (abs(sum(a) - 1.0) < 1e-9 and max(a) <= 1.0 + 1e-12
            and min(a) >= -0.5 - 1e-12)


def star(t: float) -> float:
    """The correction map (1 + t) log(e + t)^3."""
    return (1.0 + t) * math.log(math.e + t) ** 3


@dataclass(frozen=True)
class SweepConfig:
    theorem: str = "T1"
    alpha: tuple[float, float, float] | None = None
    set_family: str = "interval"        # or "cantor"
    cantor_depth: int = 3
    ratios: tuple[float, ...] = tuple(2.0 ** -j for j in range(1, 11))
    grid_n: int = 2 ** 15
    domain: float = 32.0
    eps: float = 2.0 ** -4
    seed: int = 0
    beta: tuple[float, float, float] = (0.0, -2.0 ** -0.5, 2.0 ** -0.5)
    m_xi_max: int = 64
    scale_log2_min: int = -10
    scale_log2_max: int = 2
    pos_extent: float = 8.0
    lam_family: float = 1.0
    ingham_grid_n: int = 2 ** 13
    oracle_n: int = 2 ** 12
    # threshold constant for the exceptional sets: any value passing the
    # majority check is admissible; a large one shrinks the excluded buffer
    # and probes the sharpness of the growth law
    exc_c0: float = 64.0

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ValueError(f"theorem must be one of {THEOREMS}")
        r = self.ratios
        if not r or any(x <= 0 for x in r) or any(a <= b for a, b in zip(r, r[1:])):
            raise ValueError("ratios must be positive and strictly decreasing")
        if self.resolved_alpha() is not None and not in_hexagon(self.resolved_alpha()):
            raise ValueError("alpha outside the admissible hexagon")

    def resolved_alpha(self) -> tuple[float, float, float]:
        if self.alpha is not None:
            return self.alpha
        return {"T1": (0.5, 1.0, -0.5), "T2": (0.75, 0.75, -0.5),
                "T3": (0.8, 0.5, -0.3), "C15": (0.75, 0.75, -0.5)}[self.theorem]


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


def cantor_intervals(lo: float, hi: float, depth: int) -> IntervalSet:
    """Depth-d middle-thirds construction on [lo, hi) (measure (2/3)^d (hi-lo))."""
    parts = [(lo, hi)]
    for _ in range(depth):
        nxt = []
        for a, b in parts:
            w = (b - a) / 3.0
            nxt.extend([(a, a + w), (b - w, b)])
        parts = nxt
    return IntervalSet.from_pairs(parts)


def _bump(grid: Grid, width: float, p: float) -> GridFunction:
    """Gaussian bump of unit L^p norm."""
    xs = grid.xs()
    v = np.exp(-((xs / width) ** 2)) + 0j
    f = GridFunction(grid, v)
    return GridFunction(grid, v / lp_norm(f, p))


def _family(cfg: SweepConfig, delta: float, grid: Grid):
    """(f1, f2, F3 set, h1, h2, |F2|) per the theorem's restriction pattern."""
    a1, a2, a3 = cfg.resolved_alpha()
    if cfg.set_family == "cantor":
        scale = 1.5 ** cfg.cantor_depth
        f2_set = cantor_intervals(0.0, min(delta * scale, 2.0), cfg.cantor_depth)
    else:
        f2_set = IntervalSet.from_pairs([(0.0, delta)])
    f3_set = IntervalSet.from_pairs([(0.0, 1.0)])
    if cfg.theorem == "T1":
        f1 = _bump(grid, 4.0, 2.0)
        f2 = f2_set.indicator(grid)
        return f1, f2, f3_set, f1, f2, f2_set.measure
    if cfg.theorem == "T2":
        f1 = _bump(grid, 4.0, 1.0 / a1)
        f2 = f2_set.indicator(grid)
        return f1, f2, f3_set, f1, f2, f2_set.measure
    if cfg.theorem == "T3":
        f3_set = IntervalSet.from_pairs([(0.0, delta)])
        f1 = _bump(grid, 4.0, 1.0 / a1)
        f2 = _bump(grid, 2.0, 2.0)
        return f1, f2, f3_set, f1, f2, f2_set.measure
    # C15: all three restricted
    f1_set = IntervalSet.from_pairs([(0.0, 1.0)])
    f1 = f1_set.indicator(grid)
    f2 = f2_set.indicator(grid)
    return f1, f2, f3_set, f1, f2, f2_set.measure


def _bound_rhs(cfg: SweepConfig, delta: float, f1n: float, f2n: float,
               f2_measure: float, f3_measure: float) -> float:
    """Right side of the targeted growth law with constant one."""
    a1, a2, a3 = cfg.resolved_alpha()
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
    """Translation-batched model-sum evaluator over a frequency-column lattice."""

    def __init__(self, cfg: SweepConfig, grid: Grid, table: InghamTable):
        self.cfg = cfg
        self.grid = grid
        self.table = table
        self.beta = np.asarray(cfg.beta, dtype=float)
        self.gamma = gamma_from_beta(self.beta)
        self.scales = [2.0 ** j for j in
                       range(cfg.scale_log2_max, cfg.scale_log2_min - 1, -1)
                       if 2.0 ** j >= 4 * grid.spacing]

    def evaluate(self, f1: GridFunction, f2: GridFunction,
                 f3_major: IntervalSet) -> tuple[float, GridFunction]:
        """(best |model sum|, aligned f3) over subindicators of the major set."""
        grid, cfg = self.grid, self.cfg
        h = grid.spacing
        fh1 = np.fft.fft(f1.values)
        fh2 = np.fft.fft(f2.values)
        # columns where f1 has no spectral energy in the slot-1 band are pruned
        freqs = grid.freqs()
        power = np.abs(fh1) ** 2
        total = float(power.sum())
        w_total = np.zeros(grid.n, dtype=complex)
        for s in self.scales:
            step = int(round(s / h))
            lo = int(round((-cfg.pos_extent - grid.x0) / h))
            hi = int(round((cfg.pos_extent - grid.x0) / h))
            idx = np.arange(lo, hi + 1, step) % grid.n
            for mxi in range(-cfg.m_xi_max, cfg.m_xi_max + 1):
                xi = [(self.gamma[j] * mxi + self.beta[j]) / s for j in range(3)]
                band = np.abs(freqs - xi[0]) <= cfg.eps / s
                if total <= 0 or float(power[band].sum()) / total < 1e-12:
                    continue
                g1 = coefficient_profile(fh1, grid, s, xi[0], cfg.eps, self.table)
                g2 = coefficient_profile(fh2, grid, s, xi[1], cfg.eps, self.table)
                if g1 is None or g2 is None:
                    continue
                weights = np.zeros(grid.n, dtype=complex)
                weights[idx] = np.conj(g1[idx] * g2[idx]) * s ** -0.5
                w3 = synthesis_profile(weights, grid, s, xi[2], cfg.eps, self.table)
                if w3 is None:
                    continue
                w_total += w3
        mask = f3_major.indicator(grid).values.real > 0.5
        mag = np.abs(w_total)
        lam = float(mag[mask].sum() * h)
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
    beta = np.asarray(cfg.beta, dtype=float)
    b = (beta[0] - beta[2], beta[1] - beta[2])
    bh = bht_direct(down(f1), down(f2), b, small.spacing, t_max=grid.length / 4)
    return abs(complex((bh.values * down(f3).values).sum() * small.spacing))


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """One row per ratio; failed rows are marked in `status`, never dropped."""
    params = OsgoodParams(cfg.lam_family)
    table = build_ingham(params, grid_n=cfg.ingham_grid_n)
    grid = Grid(-cfg.domain / 2, cfg.domain / 2, cfg.grid_n)
    engine = _LatticeEngine(cfg, grid, table)
    alpha = cfg.resolved_alpha()

    def one(delta: float) -> SweepRow:
        try:
            f1, f2, f3_set, h1, h2, f2_measure = _family(cfg, delta, grid)
            _, _, f3_major = exceptional_sets(h1, h2, f3_set, alpha, c0=cfg.exc_c0)
            frac = f3_major.measure / f3_set.measure
            lam_model, f3 = engine.evaluate(f1, f2, f3_major)
            lam_direct = _oracle_value(cfg, f1, f2, f3)
            a1 = alpha[0]
            f1n = lp_norm(f1, 2.0 if cfg.theorem == "T1" else 1.0 / a1)
            f2n = lp_norm(f2, 2.0)
            rhs = _bound_rhs(cfg, delta, f1n, f2n, f2_measure, f3_set.measure)
            return SweepRow(delta, lam_model, lam_direct, rhs,
                            lam_model / rhs if rhs > 0 else math.nan, frac)
        except ResolutionError as exc:
            return SweepRow(delta, math.nan, math.nan, math.nan, math.nan,
                            math.nan, status=f"resolution-error: {exc}")

    workers = int(os.environ.get("TFLAB_THREADS", "1"))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, cfg.ratios))
    return [one(d) for d in cfg.ratios]


# ---------------------------------------------------------------------------
# growth fits

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
    if model == "log":
        reg = np.log(math.e + 1.0 / d)
    elif model == "loglog":
        reg = np.log(np.log(math.e ** math.e + 1.0 / d))
    elif model == "power":
        e = float(np.polyfit(np.log(1.0 / d), np.log(np.maximum(y, 1e-300)), 1)[0])
        if min_exponent is not None:
            e = max(e, min_exponent)
        reg = d ** -e
        c = float((y * reg).sum() / (reg * reg).sum())
        return e, float(np.sqrt(np.mean((y - c * reg) ** 2)))
    else:
        raise ValueError(f"unknown model {model!r}")
    c = float((y * reg).sum() / (reg * reg).sum())
    return c, float(np.sqrt(np.mean((y - c * reg) ** 2)))


# ---------------------------------------------------------------------------
# report emission

def emit_report(rows: list[SweepRow], fits: dict[str, tuple[float, float]],
                csv_path, svg_path) -> int:
    """CSV of the rows plus a log-log SVG with fitted overlays; 2 when empty."""
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(FIELDS)
        for r in rows:
            w.writerow([repr(float(r.delta)), repr(float(r.lambda_model)),
                        repr(float(r.lambda_direct)), repr(float(r.bound_rhs)),
                        repr(float(r.ratio)), repr(float(r.f3_major_fraction)),
                        r.status])
    ok = [r for r in rows if r.status == "ok" and math.isfinite(r.ratio)
          and r.ratio > 0]
    if not ok:
        return 2
    if svg_path is not None:
        _write_svg(ok, fits, svg_path)
    return 0


def _write_svg(rows, fits, path, width=640, height=440) -> None:
    xs = np.log10([r.delta for r in rows])
    ys = np.log10([r.ratio for r in rows])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 - x0 < 1e-9:
        x1 = x0 + 1.0
    if y1 - y0 < 1e-9:
        y1 = y0 + 1.0
    pad = 50

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
    colors = {"log": "#1f77b4", "loglog": "#2ca02c", "power": "#d62728"}
    for name, (val, _resid) in fits.items():
        pts = []
        for r in rows:
            if name == "log":
                yy = val * math.log(math.e + 1 / r.delta)
            elif name == "loglog":
                yy = val * math.log(math.log(math.e ** math.e + 1 / r.delta))
            elif name == "power":
                continue  # exponent-only fit has no overlay constant
            else:
                continue
            if yy > 0:
                pts.append(f"{px(math.log10(r.delta)):.2f},"
                           f"{py(math.log10(yy)):.2f}")
        if pts:
            parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                         f'stroke="{colors.get(name, "#888")}" '
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

def suite_direction(g1: float = 0.0577) -> tuple[np.ndarray, np.ndarray]:
    """(beta, gamma) with small first gamma component.

    Multi-scale nesting under the structural dichotomy needs the per-scale
    frequency drift 1/(sqrt(3)|gamma_1|) inside a window fixed by the scale
    gap and R; small gamma_1 realizes it at the cost of a smaller (but still
    positive) distance to the degenerate directions.
    """
    a = (-g1 + math.sqrt(2.0 - 3.0 * g1 * g1)) / 2.0
    gamma = np.array([g1, a, -g1 - a])
    n = np.ones(3) / math.sqrt(3.0)
    beta = np.cross(n, gamma)
    return beta / np.linalg.norm(beta), gamma / np.linalg.norm(gamma)


def random_collection(rng: np.random.Generator, grid: Grid,
                      r_const: float = 32.0,
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
    return thin_well_discretized(cands, r_const=r_const)


def random_tree(rng: np.random.Generator, grid: Grid):
    """Genuine 1-tree from a ray collection: top at the shared slot-1 center."""
    from .packets import TopDatum
    from .timefreq import Tree, lacunary_frequency

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
        w = lacunary_frequency(members, k, r_const=32.0)
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
        sz = collection_size(f, S, 3, bank)
        if sz == 0:
            continue
        rest, forest = size_lemma_split(S, f, 3, sz, bank)
        key = lambda s: (s.space.scale, s.space.pos, s.freqs[0].lo)
        if sorted(map(key, S)) != sorted(map(key, rest + forest.tritiles())):
            failures.append(f"case {case}: partition broken")
        if collection_size(f, rest, 3, bank) > sz / 2 + 1e-12:
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
