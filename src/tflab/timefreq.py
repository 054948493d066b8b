"""Tritiles, trees, size, greedy selection, forests, and exceptional sets.

Size convention: the operative size of a collection in slot j is the supremum
of normalized l2 blocks of canonical-packet coefficients over candidate tops
(I_T, xi) with xi in R*omega \\ 2*omega for every member, enumerated exactly
(dyadic ancestors for I_T, band-endpoint regions for xi).  Selection,
postconditions, and verification all use this one evaluator, so the halving
and partition guarantees are exact rather than asymptotic.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegeneracyError, ThresholdDoublingError
from .osgood import OsgoodParams
from .packets import PacketBank, R_CONST, TopDatum
from .sampling import (Band, DyadicInterval, Grid, GridFunction,
                       bands_inside, cover_count, lp_norm,
                       maximal_dyadic_intervals, maximal_function)

log = logging.getLogger(__name__)

#: the lattice direction beta: unit length, orthogonal to (1, 1, 1), and with
#: distinct components
BETA = (0.0, -2.0 ** -0.5, 2.0 ** -0.5)


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


def lacunary_frequency(tritiles, k: int, r_const: float = R_CONST) -> float | None:
    """A frequency in every R-window but no 2-window of slot k, if one exists."""
    bands = [s.freqs[k - 1] for s in tritiles]
    if not bands:
        return None
    rwins = [b.dilate(r_const) for b in bands]
    rlo = max(w.lo for w in rwins)
    rhi = min(w.hi for w in rwins)
    if rlo >= rhi:
        return None
    twos = [b.dilate(2.0) for b in bands]
    pts = sorted({rlo, rhi} | {e for w in twos for e in (w.lo, w.hi)})
    for lo, hi in zip(pts, pts[1:]):
        mid = 0.5 * (lo + hi)
        if not rlo <= mid < rhi:
            continue
        if all(not w.contains_point(mid) for w in twos):
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


def check_well_discretized(S, r_const: float = R_CONST) -> tuple[bool, list[str]]:
    """The four structural requirements on a tritile collection.

    The spatial intervals are dyadic by construction, hence always form a
    grid, and distinct dyadic scales are separated by a factor of at least 2.
    """
    S = list(S)
    bad: list[str] = []
    for i, s in enumerate(S):
        for t in S[i + 1:]:
            bad.extend(_pair_violations(s, t, r_const))
    return (not bad, bad)


def thin_well_discretized(S, r_const: float = R_CONST) -> list[Tritile]:
    """Greedy well-discretized subcollection (deterministic keep order).

    Raw lattices are only finite unions of well-discretized families; this
    picks one such family by keeping each tritile that is compatible with
    everything already kept, scanning coarse scales first.  Whether a pair
    is compatible depends only on the two frequency columns (bands and
    scale) and on whether the intervals are equal, so it is decided once
    per such key.
    """
    order = sorted(S, key=lambda s: (-s.space.scale, s.space.pos,
                                     s.freqs[0].lo))
    columns: dict = {}
    col = [columns.setdefault((s.freqs, s.space.scale), len(columns))
           for s in order]
    compatible: dict = {}
    kept: list[int] = []
    for i, s in enumerate(order):
        for k in kept:
            key = (col[i], col[k], s.space == order[k].space)
            if key not in compatible:
                compatible[key] = not _pair_violations(s, order[k], r_const)
            if not compatible[key]:
                break
        else:
            kept.append(i)
    return [order[k] for k in kept]


# ---------------------------------------------------------------------------
# size: one evaluator for measurement and selection

def _magnitudes(f: GridFunction, S, j: int, bank: PacketBank) -> list[float]:
    """|<f, phi_s^j>| for the members of S, from one `coefficients` call."""
    coeffs = bank.coefficients(f, [s.tile_datum(j) for s in S])
    return [abs(c) for c in coeffs.tolist()]


class _SizeContext:
    """Candidate tops and frequency regions over slot-j coefficient magnitudes.

    `coeff2[i]` is |<f, phi_s^j>|^2 for the i-th member.  The geometry is
    built from the members' integer arrays `scale` and `pos`:

    - the candidate tops (`top_scale`, `top_pos`) are the members' dyadic
      ancestor chains, pos >> (k - scale) up to the scale of twice the
      members' span, in sorted (scale, pos) order;
    - `contain[t, i]` says top t contains member i;
    - `xi_regions` are the midpoints between the members' sorted 2- and
      R-window endpoints, and `lac[r, i]` says region r is lacunary for
      member i.

    Block values for every (top, region) pair reduce to one matrix product,
    which keeps the greedy selection loop quadratic rather than cubic.
    """

    def __init__(self, S, coeff2: np.ndarray, j: int):
        self.S = list(S)
        self.j = j
        self.coeff2 = coeff2
        self.centers = np.array([s.freqs[j - 1].center for s in self.S])
        self.widths = np.array([s.freqs[j - 1].length for s in self.S])
        self.scale = np.array([s.space.scale for s in self.S], dtype=np.int64)
        self.pos = np.array([s.space.pos for s in self.S], dtype=np.int64)
        self.top_scale, self.top_pos = self._candidate_tops()
        self.xi_regions = self._candidate_freqs()
        d = self.top_scale[:, None] - self.scale
        self.contain = (d >= 0) & (
            self.pos >> np.maximum(d, 0) == self.top_pos[:, None])
        self.lac = self.lacunary_mask(self.xi_regions[:, None])
        self.top_len = np.ldexp(1.0, self.top_scale)

    @classmethod
    def of(cls, S, f: GridFunction, j: int, bank: PacketBank) -> _SizeContext:
        """The context of S for f: one coefficient per member."""
        S = list(S)
        coeff2 = np.array([c ** 2 for c in _magnitudes(f, S, j, bank)])
        return cls(S, coeff2, j)

    def restrict(self, keep: np.ndarray) -> _SizeContext:
        """The context of the members where `keep` is true, same coefficients."""
        return _SizeContext([s for s, k in zip(self.S, keep) if k],
                            self.coeff2[keep], self.j)

    def _candidate_tops(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.S:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        # the coarsest candidate top is at least twice the members' span
        length = np.ldexp(1.0, self.scale)
        span = ((self.pos + 1) * length).max() - (self.pos * length).min()
        max_scale = math.ceil(math.log2(max(span, 1e-12))) + 1
        ks = np.arange(self.scale.min(), max_scale + 1)
        d = ks[:, None] - self.scale
        up = d >= 0
        scale = np.broadcast_to(ks[:, None], d.shape)[up]
        pos = (self.pos >> np.maximum(d, 0))[up]
        # unique rows in (scale, pos) order, the order of sorted intervals;
        # np.unique would do the same but imports numpy.ma, 1.5 MB resident
        order = np.lexsort((pos, scale))
        scale, pos = scale[order], pos[order]
        new = np.ones(scale.size, dtype=bool)
        new[1:] = (scale[1:] != scale[:-1]) | (pos[1:] != pos[:-1])
        return scale[new], pos[new]

    def _candidate_freqs(self) -> np.ndarray:
        c, w = self.centers, self.widths
        pts = np.sort(np.concatenate([c - 2.0 * w / 2, c + 2.0 * w / 2,
                                      c - R_CONST * w / 2,
                                      c + R_CONST * w / 2]))
        return (0.5 * (pts[:-1] + pts[1:]))[pts[1:] > pts[:-1]]

    def lacunary_mask(self, xi) -> np.ndarray:
        d = np.abs(xi - self.centers)
        return (d < R_CONST * self.widths / 2) & (d >= self.widths)

    def window_mask(self, xi: float) -> np.ndarray:
        return np.abs(xi - self.centers) < R_CONST * self.widths / 2

    def block_table(self, alive: np.ndarray) -> np.ndarray:
        """values[t, r] of sqrt(block mass / |top|) over live tritiles."""
        weighted = self.contain * (alive * self.coeff2)
        mass = weighted @ self.lac.T
        return np.sqrt(mass / self.top_len[:, None])

    @cached_property
    def size(self) -> float:
        """The largest lacunary block value over every member (0 when empty)."""
        if not self.top_scale.size:
            return 0.0
        return float(self.block_table(np.ones(len(self.S), dtype=bool)).max())

    def split(self, sigma: float) -> tuple[_SizeContext, Forest]:
        """(context of the rest, forest of trees) of the size lemma at sigma.

        Greedy two-sweep selection: repeatedly take the heaviest-eligible
        candidate with minimal top frequency (then maximal top interval, then
        lexicographic order), extracting the full R-window tree of the chosen
        top; the mirrored maximal-frequency sweep follows.
        """
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if not self.S:
            return self, Forest(())
        if self.size > sigma * (1 + 1e-9):
            raise ValueError(f"collection size exceeds sigma = {sigma}")
        alive = np.ones(len(self.S), dtype=bool)
        trees: list[Tree] = []
        for direction in (1.0, -1.0):
            while True:
                vals = self.block_table(alive)
                ts, rs = np.nonzero(vals > sigma / 2)
                if ts.size == 0:
                    break
                # tops are sorted by (scale, pos), so within one scale the
                # row index orders them lexicographically
                i = np.lexsort((ts, -self.top_scale[ts],
                                direction * self.xi_regions[rs]))[0]
                t, r = ts[i], rs[i]
                top = DyadicInterval(int(self.top_scale[t]),
                                     int(self.top_pos[t]))
                xi = float(self.xi_regions[r])
                mem = alive & self.contain[t] & self.window_mask(xi)
                members = tuple(s for s, m in zip(self.S, mem) if m)
                trees.append(_make_tree(top, xi, members, self.j))
                alive &= ~mem
        return self.restrict(alive), Forest(tuple(trees))


def collection_size(f: GridFunction, S, j: int, bank: PacketBank) -> float:
    """Operative slot-j size of the collection (canonical packet family)."""
    return _SizeContext.of(S, f, j, bank).size


def _tree_size(coeffs, tree: Tree, j: int) -> float:
    """tree_size from the members' slot-j coefficient magnitudes."""
    if not tree.tritiles:
        return 0.0
    if j == tree.tree_type:
        return max(c / math.sqrt(s.space.length)
                   for c, s in zip(coeffs, tree.tritiles))
    if j not in tree.lacunary_freqs:
        xi = lacunary_frequency(tree.tritiles, j)
        if xi is None:
            raise ValueError(f"slot {j} of the tree is not lacunary")
    return math.sqrt(sum(c**2 for c in coeffs) / tree.space.length)


def tree_size(f: GridFunction, tree: Tree, j: int, bank: PacketBank) -> float:
    """Size of the tree in slot j: sup form on its own type, l2 block otherwise."""
    return _tree_size(_magnitudes(f, tree.tritiles, j, bank), tree, j)


def single_tree_bound(tree: Tree, f1: GridFunction, f2: GridFunction,
                      f3: GridFunction, bank: PacketBank) -> tuple[float, float]:
    """(lhs, rhs) of the single tree estimate: coefficient sum vs |I_T| * sizes."""
    coeffs = [_magnitudes(f, tree.tritiles, j, bank)
              for j, f in ((1, f1), (2, f2), (3, f3))]
    lhs = 0.0
    for s, c1, c2, c3 in zip(tree.tritiles, *coeffs):
        lhs += c1 * c2 * c3 / math.sqrt(s.space.length)
    rhs = tree.space.length
    for j in range(1, 4):
        rhs *= _tree_size(coeffs[j - 1], tree, j)
    return lhs, rhs


# ---------------------------------------------------------------------------
# greedy selection (size lemma) and the iterated decomposition

#: halving rounds of `f3_decompose` before the rest goes to the remainder
HALVING_ROUNDS = 60


def size_lemma_split(S, f: GridFunction, j: int, sigma: float,
                     bank: PacketBank) -> tuple[list[Tritile], Forest]:
    """Extract trees of slot-j block value > sigma/2; the rest has size <= sigma/2.

    The greedy two-sweep selection of `_SizeContext.split`.  Partition and
    halving are exact for the operative size evaluator.
    """
    rest, forest = _SizeContext.of(S, f, j, bank).split(sigma)
    return rest.S, forest


def _make_tree(top: DyadicInterval, xi: float, members, j: int) -> Tree:
    lac = {}
    for k in range(1, 4):
        if k == j:
            continue
        w = lacunary_frequency(members, k)
        if w is not None:
            lac[k] = w
    return Tree(TopDatum(top, xi), members, j, lac)


def f3_decompose(S, f3: GridFunction, bank: PacketBank) -> list[Forest]:
    """Iterated halving of the slot-3 size into forests at levels k < 60.

    Level k trees have block value in (sigma0 2^-(k+1), sigma0 2^-k] where
    sigma0 is the initial size; tritiles invisible to f3 (size zero) end in a
    remainder forest with level None, as singleton trees.  The slot-3
    coefficients are computed once; each round splits the context of the
    previous round's rest.
    """
    ctx = _SizeContext.of(S, f3, 3, bank)
    sigma = ctx.size
    out: list[Forest] = []
    for k in range(HALVING_ROUNDS):
        if ctx.size == 0.0:
            break
        ctx, forest = ctx.split(sigma)
        if forest.trees:
            out.append(Forest(forest.trees, k=k))
        sigma /= 2.0
    if ctx.S:
        singles = tuple(Tree(s.tile_datum(3), (s,), 3) for s in ctx.S)
        out.append(Forest(singles, k=None))
    return out


# ---------------------------------------------------------------------------
# counting-function split

def counting_split(forest: Forest, k: int, params: OsgoodParams,
                   grid: Grid) -> tuple[Forest, Forest]:
    """Partition into a bounded-overlap part and a peeled remainder.

    Iterated level-set peeling: the first maximal-dyadic level set of the
    counting function of the tops dilated by 3 u(k), above the threshold
    2^(2k), separates the good trees (dilated tops not inside the set);
    re-thresholding at the same level peels the remainder into the small part.
    Only this L-infinity threshold is applied: the L1 norm of the small part
    is not bounded here (`forest_counting_norms` measures it).  The proof's
    exponent (4k) is far outside desk scale.
    """
    dilate = 3.0 * params.u(k)
    peel = 2.0 ** (2 * k)
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
                          k: int) -> tuple[float, float]:
    """(sup of the dilated counting function, L1 norm of the plain one)."""
    dil = 3.0 * params.u(k)
    n_inf = forest.counting(grid, dilate=dil).max() if forest.trees else 0.0
    n_one = float(forest.counting(grid).sum() * grid.spacing)
    return float(n_inf), n_one


# ---------------------------------------------------------------------------
# exceptional sets

def in_hexagon(alpha) -> bool:
    """True when the exponent triple lies in the admissible hexagon: it sums
    to 1 (within 1e-9), and each alpha_j lies in [-1/2, 1] (exactly 1 at most)."""
    a = tuple(alpha)
    return abs(sum(a) - 1.0) < 1e-9 and max(a) <= 1.0 and min(a) >= -0.5 - 1e-12


def exceptional_sets(h1: GridFunction, h2: GridFunction, f3: np.ndarray,
                     alpha, *, c0: float = 1.0,
                     h1_maximal: GridFunction | None = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Superlevel exceptional set, its dyadic 3-fold closure, and the major subset.

    Sets are sample masks on h1's grid: `f3` is the reference set, and the
    major subset is `f3 & ~closure`.  The threshold constant doubles from c0
    until the closure removes at most three quarters of the reference set's
    samples, so |F3| <= 4 |F3'| always holds on return.  h1_maximal, when
    given, must be `maximal_function(h1, 1/a1)`: a sweep builds it once for
    the f1 all its rows share.
    """
    if not in_hexagon(alpha):
        raise ValueError(f"alpha {tuple(alpha)} outside the admissible hexagon")
    a1, a2, _ = alpha
    grid = h1.grid
    f3 = np.asarray(f3, dtype=bool)
    if f3.shape != (grid.n,):
        raise ValueError(f"reference set must be a mask of {grid.n} samples, "
                         f"got shape {f3.shape}")
    count = int(np.count_nonzero(f3))
    if count == 0:
        raise ValueError("reference set must hold a sample")
    measure = count * grid.spacing
    maximal = []
    for h, a, m in ((h1, a1, h1_maximal), (h2, a2, None)):
        if a <= 0:
            continue  # p = inf: the maximal function equals the sup norm, empty level set
        p = 1.0 / a
        if m is None:
            m = maximal_function(h, p)
        maximal.append((m.values.real, lp_norm(h, p) / measure**a))
    c = c0
    for _ in range(64):
        mask = np.zeros(grid.n, dtype=bool)
        for m, base in maximal:
            if base > 0:
                mask |= m > c * base
        closure = grid.mask((b.lo, b.hi) for b in (
            q.dilate(3.0) for q in maximal_dyadic_intervals(mask, grid)))
        major = f3 & ~closure
        if 4 * np.count_nonzero(major) >= count:
            return mask, closure, major
        c *= 2
    raise ThresholdDoublingError("threshold doubling failed to preserve a major subset")
