"""Tritiles, trees, size, greedy selection, forests, and exceptional sets.

Size convention: the operative size of a collection in slot j is the supremum
of normalized l2 blocks of canonical-packet coefficients over candidate tops
(I_T, xi) with xi in R*omega \\ 2*omega for every member, enumerated exactly
(dyadic ancestors for I_T, band-endpoint regions for xi).  Selection,
postconditions, and verification all use this one evaluator, so the halving
and partition guarantees are exact rather than asymptotic.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, ThresholdDoublingError
from .osgood import OsgoodParams
from .packets import PacketBank, R_CONST, TopDatum
from .sampling import (Band, DyadicInterval, Grid, GridFunction, IntervalSet,
                       bands_inside, cover_count, lp_norm,
                       maximal_dyadic_intervals, maximal_function)

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# tritiles, trees, forests

@dataclass(frozen=True)
class Tritile:
    """Spatial dyadic interval with three reciprocal frequency bands."""

    space: DyadicInterval
    freqs: tuple[Band, Band, Band]
    coeff: complex = 1.0 + 0j

    def __post_init__(self):
        if len(self.freqs) != 3:
            raise ValueError("a tritile carries exactly three frequency bands")
        for om in self.freqs:
            if abs(self.space.length * om.length - 1.0) > 1e-9:
                raise ValueError("tile areas must equal 1")
        if abs(self.coeff) > 1.0 + 1e-12:
            raise ValueError("tritile coefficient must have modulus <= 1")

    def tile_datum(self, j: int) -> TopDatum:
        """Top datum of the j-th slot (j is 1-based)."""
        return TopDatum(self.space, self.freqs[j - 1].center)


@dataclass(frozen=True)
class Tree:
    """Tritile collection under a common top datum.

    tree_type = j means the top frequency lies in the R-window of slot j for
    every member (with the 2-window subcollection forming the j-tree core);
    lacunary_freqs[k] is a witness frequency for the k-th lacunary reduction
    when one exists.
    """

    top: TopDatum
    tritiles: tuple[Tritile, ...]
    tree_type: int
    lacunary_freqs: dict[int, float] = field(default_factory=dict, compare=False)

    @property
    def space(self) -> DyadicInterval:
        return self.top.interval


@dataclass(frozen=True)
class Forest:
    """Disjoint union of trees at a common size level k (None = remainder)."""

    trees: tuple[Tree, ...]
    k: int | None = None

    def tritiles(self) -> list[Tritile]:
        return [s for t in self.trees for s in t.tritiles]

    def counting(self, grid: Grid, dilate: float = 1.0) -> np.ndarray:
        """Pointwise number of tree tops whose dilated interval covers x."""
        return cover_count(grid, (t.space.dilate(dilate) for t in self.trees))


def validate_tree(tree: Tree, r_const: float = R_CONST) -> list[str]:
    """Membership and lacunarity violations of a tree (empty list = valid)."""
    bad = []
    j = tree.tree_type
    for s in tree.tritiles:
        if not tree.space.contains(s.space):
            bad.append(f"{s.space} not inside top {tree.space}")
        if not s.freqs[j - 1].dilate(r_const).contains_point(tree.top.xi):
            bad.append(f"top frequency outside R-window of slot {j} for {s.space}")
    for k, xi in tree.lacunary_freqs.items():
        for s in tree.tritiles:
            om = s.freqs[k - 1]
            if not om.dilate(r_const).contains_point(xi) or om.dilate(2.0).contains_point(xi):
                bad.append(f"slot {k} witness {xi} not lacunary for {s.space}")
    return bad


def j_tree_core(tree: Tree, j: int | None = None) -> Tree:
    """Genuine j-tree inside a selection tree: members with xi_T in 2*omega_sj.

    Selection trees carry the full R-window of their top (the greedy removal
    needs it); the single tree estimate applies to the 2-window core, whose
    other slots are lacunary in a well-discretized collection.
    """
    if j is None:
        j = tree.tree_type
    members = tuple(s for s in tree.tritiles
                    if s.freqs[j - 1].dilate(2.0).contains_point(tree.top.xi))
    return _make_tree(tree.space, tree.top.xi, members, j)


def lacunary_frequency(tritiles, k: int, r_const: float = R_CONST) -> float | None:
    """A frequency in every R-window but no 2-window of slot k, if one exists."""
    bands = [s.freqs[k - 1] for s in tritiles]
    if not bands:
        return None
    rlo = max(b.dilate(r_const).lo for b in bands)
    rhi = min(b.dilate(r_const).hi for b in bands)
    if rlo >= rhi:
        return None
    pts = sorted({rlo, rhi} | {e for b in bands for e in
                               (b.dilate(2.0).lo, b.dilate(2.0).hi)})
    for lo, hi in zip(pts, pts[1:]):
        mid = 0.5 * (lo + hi)
        if not rlo <= mid < rhi:
            continue
        if all(not b.dilate(2.0).contains_point(mid) for b in bands):
            return mid
    return None


# ---------------------------------------------------------------------------
# lattice construction

def gamma_from_beta(beta: np.ndarray) -> np.ndarray:
    """Unit vector completing (gamma, beta, (1,1,1)) to a positive basis."""
    beta = np.asarray(beta, dtype=float)
    if abs(np.linalg.norm(beta) - 1.0) > 1e-9 or abs(beta.sum()) > 1e-9:
        raise ValueError("beta must be unit length and orthogonal to (1,1,1)")
    pairs = [abs(beta[i] - beta[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    if min(pairs) < 1e-6:
        raise DegeneracyError(f"beta {beta} has nearly equal components")
    return np.cross(beta, np.ones(3) / math.sqrt(3.0))


def build_tritile_lattice(m_sigma, m_x, m_xi, theta=(0.0, 0.0, 0.0),
                          beta=(0.0, -2**-0.5, 2**-0.5),
                          dil: float = 1.0 + 2.0**-16) -> list[Tritile]:
    """Lattice tritiles with spatial scale dil^(m_sigma + theta_sigma).

    Spatial intervals are snapped to the nearest dyadic scale and position so
    that downstream dyadic machinery applies exactly; frequency bands use the
    snapped length, keeping every tile area exactly 1.  With dil = 2 and
    theta = 0 the snapping is the identity on scales.
    """
    if dil <= 1.0:
        raise ValueError("dil must exceed 1")
    gamma = gamma_from_beta(np.asarray(beta, dtype=float))
    beta = np.asarray(beta, dtype=float)
    th_s, th_x, th_xi = theta
    out: dict = {}
    for ms in m_sigma:
        ell_nom = dil ** (ms + th_s)
        scale = round(math.log2(ell_nom))
        ell = math.ldexp(1.0, scale)
        for mx in m_x:
            center = ell_nom * (mx + th_x)
            pos = round(center / ell - 0.5)
            space = DyadicInterval(scale, pos)
            for mxi in m_xi:
                bands = []
                for j in range(3):
                    c = (gamma[j] * (mxi + th_xi) + beta[j]) / ell
                    bands.append(Band(c - 0.5 / ell, c + 0.5 / ell))
                s = Tritile(space, tuple(bands))
                out[(scale, pos, round((mxi + th_xi) * 2**20))] = s
    return list(out.values())


def _nested_or_disjoint(a: Band, b: Band) -> bool:
    return (not a.intersects(b)) or a.contains_band(b) or b.contains_band(a)


def _pair_violations(s: Tritile, t: Tritile, r_const: float) -> list[str]:
    if s.freqs == t.freqs and s.space.length == t.space.length:
        # same frequency column: pure spatial translates, no dichotomy to check
        return ([] if s.space != t.space else
                [f"duplicate tritile at {s.space}"])
    bad = []
    for j in range(3):
        if not _nested_or_disjoint(s.freqs[j].dilate(10.0),
                                   t.freqs[j].dilate(10.0)):
            bad.append(f"10-windows of slot {j+1} not a grid: "
                       f"{s.space} vs {t.space}")
    if s.space == t.space:
        for j in range(3):
            if s.freqs[j].intersects(t.freqs[j]):
                bad.append(f"same interval {s.space}, overlapping "
                           f"slot-{j+1} bands")
        return bad
    big, small = (s, t) if s.space.length >= t.space.length else (t, s)
    meets = [j for j in range(3)
             if big.freqs[j].dilate(2.0).intersects(small.freqs[j].dilate(2.0))]
    if not meets:
        return bad
    j = meets[0]
    for k in range(3):
        if k != j and big.freqs[k].dilate(10.0).intersects(
                small.freqs[k].dilate(10.0)):
            bad.append(f"slot {k+1} 10-windows meet while slot {j+1} "
                       f"2-windows meet: {big.space} vs {small.space}")
        if not small.freqs[k].dilate(r_const).contains_band(
                big.freqs[k].dilate(r_const)):
            bad.append(f"slot {k+1} R-windows not nested: "
                       f"{big.space} vs {small.space}")
    return bad


def check_well_discretized(S, r_const: float = R_CONST,
                           scale_gap: float = 2.0) -> tuple[bool, list[str]]:
    """The four structural requirements on a tritile collection.

    scale_gap is the minimal ratio between distinct spatial scales (the
    conformance value is r_const**10; distinct dyadic scales give 2).  The
    spatial intervals are dyadic by construction, hence always form a grid.
    """
    S = list(S)
    bad: list[str] = []
    scales = sorted({s.space.scale for s in S})
    for a, b in zip(scales, scales[1:]):
        if 2.0 ** (b - a) < scale_gap - 1e-12:
            bad.append(f"scales 2^{a}, 2^{b} violate the separation gap {scale_gap}")
    for i, s in enumerate(S):
        for t in S[i + 1:]:
            bad.extend(_pair_violations(s, t, r_const))
    return (not bad, bad)


def thin_well_discretized(S, r_const: float = R_CONST) -> list[Tritile]:
    """Greedy well-discretized subcollection (deterministic keep order).

    Raw lattices are only finite unions of well-discretized families; this
    picks one such family by keeping each tritile that is compatible with
    everything already kept, scanning coarse scales first.
    """
    order = sorted(S, key=lambda s: (-s.space.scale, s.space.pos,
                                     s.freqs[0].lo))
    kept: list[Tritile] = []
    for s in order:
        if all(not _pair_violations(s, t, r_const) for t in kept):
            kept.append(s)
    return kept


# ---------------------------------------------------------------------------
# size: one evaluator for measurement and selection

class _SizeContext:
    """Candidate tops, frequency regions, and coefficient cache for slot j.

    Block values for every (top, region) pair reduce to one matrix product,
    which keeps the greedy selection loop quadratic rather than cubic.
    """

    def __init__(self, S, f: GridFunction, j: int, bank: PacketBank):
        self.S = list(S)
        self.j = j
        self.bank = bank
        self.coeff2 = np.array(
            [abs(bank.coefficient(f, s.tile_datum(j))) ** 2 for s in self.S])
        self.centers = np.array([s.freqs[j - 1].center for s in self.S])
        self.widths = np.array([s.freqs[j - 1].length for s in self.S])
        self.tops = self._candidate_tops()
        self.xi_regions = self._candidate_freqs()
        self.contain = np.array(
            [[top.contains(s.space) for s in self.S] for top in self.tops])
        self.lac = np.array([self.lacunary_mask(xi) for xi in self.xi_regions])
        self.top_len = np.array([t.length for t in self.tops])

    def _candidate_tops(self) -> list[DyadicInterval]:
        if not self.S:
            return []
        span_lo = min(s.space.lo for s in self.S)
        span_hi = max(s.space.hi for s in self.S)
        max_scale = math.ceil(math.log2(max(span_hi - span_lo, 1e-12))) + 1
        tops = set()
        for s in self.S:
            q = s.space
            while q.scale <= max_scale:
                tops.add(q)
                q = q.parent()
        return sorted(tops)

    def _candidate_freqs(self) -> np.ndarray:
        pts = set()
        for c, w in zip(self.centers, self.widths):
            for dil in (2.0, R_CONST):
                pts.add(c - dil * w / 2)
                pts.add(c + dil * w / 2)
        pts = sorted(pts)
        return np.array([0.5 * (a + b) for a, b in zip(pts, pts[1:]) if b > a])

    def lacunary_mask(self, xi: float) -> np.ndarray:
        d = np.abs(xi - self.centers)
        return (d < R_CONST * self.widths / 2) & (d >= self.widths)

    def window_mask(self, xi: float) -> np.ndarray:
        return np.abs(xi - self.centers) < R_CONST * self.widths / 2

    def block_table(self, alive: np.ndarray) -> np.ndarray:
        """values[t, r] of sqrt(block mass / |top|) over live tritiles."""
        weighted = self.contain * (alive * self.coeff2)
        mass = weighted @ self.lac.T
        return np.sqrt(mass / self.top_len[:, None])

    def best(self, alive: np.ndarray):
        """(value, top, xi) of the largest lacunary block among candidates."""
        if not self.tops or self.xi_regions.size == 0:
            return (0.0, None, None)
        vals = self.block_table(alive)
        t, r = np.unravel_index(np.argmax(vals), vals.shape)
        return (float(vals[t, r]), self.tops[t], float(self.xi_regions[r]))


def collection_size(f: GridFunction, S, j: int, bank: PacketBank) -> float:
    """Operative slot-j size of the collection (canonical packet family)."""
    S = list(S)
    if not S:
        return 0.0
    ctx = _SizeContext(S, f, j, bank)
    return ctx.best(np.ones(len(S), dtype=bool))[0]


def tree_size(f: GridFunction, tree: Tree, j: int, bank: PacketBank) -> float:
    """Size of the tree in slot j: sup form on its own type, l2 block otherwise."""
    if not tree.tritiles:
        return 0.0
    coeffs = [abs(bank.coefficient(f, s.tile_datum(j))) for s in tree.tritiles]
    if j == tree.tree_type:
        return max(c / math.sqrt(s.space.length)
                   for c, s in zip(coeffs, tree.tritiles))
    if j not in tree.lacunary_freqs:
        xi = lacunary_frequency(tree.tritiles, j)
        if xi is None:
            raise ValueError(f"slot {j} of the tree is not lacunary")
    return math.sqrt(sum(c**2 for c in coeffs) / tree.space.length)


def single_tree_bound(tree: Tree, f1: GridFunction, f2: GridFunction,
                      f3: GridFunction, bank: PacketBank) -> tuple[float, float]:
    """(lhs, rhs) of the single tree estimate: coefficient sum vs |I_T| * sizes."""
    fs = (f1, f2, f3)
    lhs = 0.0
    for s in tree.tritiles:
        prod = 1.0
        for j in range(1, 4):
            prod *= abs(bank.coefficient(fs[j - 1], s.tile_datum(j)))
        lhs += prod / math.sqrt(s.space.length)
    rhs = tree.space.length
    for j in range(1, 4):
        rhs *= tree_size(fs[j - 1], tree, j, bank)
    return lhs, rhs


# ---------------------------------------------------------------------------
# greedy selection (size lemma) and the iterated decomposition

def size_lemma_split(S, f: GridFunction, j: int, sigma: float,
                     bank: PacketBank) -> tuple[list[Tritile], Forest]:
    """Extract trees of slot-j block value > sigma/2; the rest has size <= sigma/2.

    Greedy two-sweep selection: repeatedly take the heaviest-eligible candidate
    with minimal top frequency (then maximal top interval, then lexicographic
    order), extracting the full R-window tree of the chosen top; the mirrored
    maximal-frequency sweep follows.  Partition and halving are exact for the
    operative size evaluator.
    """
    S = list(S)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not S:
        return [], Forest(())
    ctx = _SizeContext(S, f, j, bank)
    alive = np.ones(len(S), dtype=bool)
    if ctx.best(alive)[0] > sigma * (1 + 1e-9):
        raise ValueError(f"collection size exceeds sigma = {sigma}")
    trees: list[Tree] = []
    for direction in (1.0, -1.0):
        while True:
            vals = ctx.block_table(alive)
            heavy = np.argwhere(vals > sigma / 2)
            if heavy.size == 0:
                break
            cands = [(direction * ctx.xi_regions[r], -ctx.tops[t].length,
                      ctx.tops[t].scale, ctx.tops[t].pos, t, r)
                     for t, r in heavy]
            cands.sort()
            _, _, _, _, t, r = cands[0]
            top, xi = ctx.tops[t], float(ctx.xi_regions[r])
            mem = alive & ctx.contain[t] & ctx.window_mask(xi)
            members = tuple(s for s, m in zip(ctx.S, mem) if m)
            trees.append(_make_tree(top, xi, members, j))
            alive &= ~mem
    rest = [s for s, a in zip(ctx.S, alive) if a]
    return rest, Forest(tuple(trees))


def _make_tree(top: DyadicInterval, xi: float, members, j: int) -> Tree:
    lac = {}
    for k in range(1, 4):
        if k == j:
            continue
        w = lacunary_frequency(members, k)
        if w is not None:
            lac[k] = w
    return Tree(TopDatum(top, xi), members, j, lac)


def f3_decompose(S, f3: GridFunction, bank: PacketBank,
                 max_rounds: int = 60) -> list[Forest]:
    """Iterated halving of the slot-3 size into forests at levels k = 0, 1, ...

    Level k trees have block value in (sigma0 2^-(k+1), sigma0 2^-k] where
    sigma0 is the initial size; tritiles invisible to f3 (size zero) end in a
    remainder forest with level None, as singleton trees.
    """
    current = list(S)
    out: list[Forest] = []
    if not current:
        return out
    sigma0 = collection_size(f3, current, 3, bank)
    sigma = sigma0
    for k in range(max_rounds):
        if not current or sigma0 == 0.0:
            break
        rest, forest = size_lemma_split(current, f3, 3, sigma, bank)
        if forest.trees:
            out.append(Forest(forest.trees, k=k))
        current = rest
        sigma /= 2.0
        if collection_size(f3, current, 3, bank) == 0.0:
            break
    if current:
        singles = tuple(Tree(s.tile_datum(3), (s,), 3) for s in current)
        out.append(Forest(singles, k=None))
    return out


# ---------------------------------------------------------------------------
# counting-function split

def counting_split(forest: Forest, k: int, params: OsgoodParams, grid: Grid,
                   *, thr_inf_exp: float = 2.0, thr_one_exp: float = 2.0,
                   big_c: float = 1.0) -> tuple[Forest, Forest]:
    """Partition into a bounded-overlap part and an L1-small part.

    Iterated level-set peeling: the first maximal-dyadic level set of the
    dilated counting function above the threshold 2^(thr_inf_exp k) separates
    the good trees (dilated tops not inside the set); subsequent re-thresholding
    peels the remainder into the small part.  Exponents are configurable; the
    proof values (4k and -100k) are far outside desk scale.
    """
    dilate = 3.0 * params.u(big_c * k)
    peel = 2.0 ** (thr_inf_exp * k)
    stock = list(forest.trees)
    good: list[Tree] = []
    small: list[Tree] = []
    first = True
    while stock:
        n = Forest(tuple(stock)).counting(grid, dilate=dilate)
        mask = n > peel
        if not mask.any():
            (good if first else small).extend(stock)
            break
        # containment in the level set (union of its maximal dyadic
        # intervals) checked sample-wise; outside the domain counts as out
        bands = [t.space.dilate(dilate) for t in stock]
        in_set = bands_inside(mask, grid, *np.array([(b.lo, b.hi) for b in bands]).T)
        inside = [t for t, f in zip(stock, in_set) if f]
        outside = [t for t, f in zip(stock, in_set) if not f]
        (good if first else small).extend(outside)
        if not inside:
            break
        if len(inside) == len(stock):
            # oscillation-free stack: nothing sticks out, peel it wholesale
            small.extend(inside)
            log.info("counting split: %d trees peeled wholesale", len(inside))
            break
        stock = inside
        first = False
    return Forest(tuple(good), k=forest.k), Forest(tuple(small), k=forest.k)


def forest_counting_norms(forest: Forest, grid: Grid, params: OsgoodParams,
                          k: int, big_c: float = 1.0) -> tuple[float, float]:
    """(sup of the dilated counting function, L1 norm of the plain one)."""
    dil = 3.0 * params.u(big_c * k)
    n_inf = forest.counting(grid, dilate=dil).max() if forest.trees else 0.0
    n_one = float(forest.counting(grid).sum() * grid.spacing)
    return float(n_inf), n_one


# ---------------------------------------------------------------------------
# exceptional sets

def exceptional_sets(h1: GridFunction, h2: GridFunction, f3_set: IntervalSet,
                     alpha, *, c0: float = 1.0
                     ) -> tuple[IntervalSet, IntervalSet, IntervalSet]:
    """Superlevel exceptional set, its dyadic 3-fold closure, and the major subset.

    The threshold constant doubles from c0 until the closure removes at most
    three quarters of the reference set, so |F3| <= 4 |F3'| always holds on
    return.
    """
    a1, a2, a3 = alpha
    if abs(a1 + a2 + a3 - 1.0) > 1e-9:
        raise ValueError("alpha must sum to 1")
    if not (0 <= a1 <= 1 and 0 <= a2 <= 1 and a3 >= -0.5):
        raise ValueError("alpha outside the admissible range")
    grid = h1.grid
    measure = f3_set.measure
    if measure <= 0:
        raise ValueError("reference set must have positive measure")
    maximal = []
    for h, a in ((h1, a1), (h2, a2)):
        if a <= 0:
            continue  # p = inf: the maximal function equals the sup norm, empty level set
        p = 1.0 / a
        maximal.append((maximal_function(h, p).values.real,
                        lp_norm(h, p) / measure**a))
    c = c0
    for _ in range(64):
        mask = np.zeros(grid.n, dtype=bool)
        for m, base in maximal:
            if base > 0:
                mask |= m > c * base
        e_set = IntervalSet.from_mask(grid, mask)
        closure = IntervalSet.from_pairs(
            [(q.dilate(3.0).lo, q.dilate(3.0).hi)
             for q in maximal_dyadic_intervals(mask, grid)])
        major = f3_set.difference(closure)
        if major.measure * 4 >= measure:
            return e_set, closure, major
        c *= 2
    raise ThresholdDoublingError("threshold doubling failed to preserve a major subset")


# ---------------------------------------------------------------------------
# export

def forest_to_jsonl(forests, path) -> None:
    """One tree per line: top datum, type, level, members, lacunary witnesses."""
    with open(path, "w") as fh:
        for forest in forests:
            for t in forest.trees:
                rec = {
                    "k": forest.k,
                    "top": {"scale": t.space.scale, "pos": t.space.pos,
                            "xi": t.top.xi},
                    "type": t.tree_type,
                    "lacunary": {str(k): v for k, v in t.lacunary_freqs.items()},
                    "tritiles": [
                        {"scale": s.space.scale, "pos": s.space.pos,
                         "freqs": [[b.lo, b.hi] for b in s.freqs],
                         "coeff": [s.coeff.real, s.coeff.imag]}
                        for s in t.tritiles],
                }
                fh.write(json.dumps(rec) + "\n")
