import contextlib
import dataclasses
import logging
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tflab import mfcz
from tflab.errors import CountingConditionError, ResolutionError
from tflab.mfcz import (mfcz_decompose, mfcz_k_sweep, overlap_count,
                        riesz_project, verify_mfcz)
from tflab.packets import TopDatum
from tflab.sampling import (DyadicInterval, Grid, GridFunction, bands_inside,
                            lp_norm, maximal_function)

from conftest import bump_signal, mfcz_case
from reference import riesz_project_window


def test_riesz_empty_freqs(grid):
    rng = np.random.default_rng(0)
    h = rng.normal(size=(96, 2)) + 0j
    g = riesz_project(h, np.array([]), grid.spacing)
    assert g.shape == h.shape and not g.any()


def test_riesz_projection_onto_constants(grid):
    # h = 1_Q on Q = [0,1), window 3Q = [-1,2): the projection onto the
    # constant is the average 1/3, and the residual integrates to zero
    q = DyadicInterval(0, 0)
    tq = q.dilate(3.0)
    sl, at = grid.slice_of(q.lo, q.hi), grid.slice_of(tq.lo, tq.hi)
    h = np.zeros((at.stop - at.start, 1), complex)
    h[sl.start - at.start:sl.stop - at.start] = 1.0
    g = riesz_project(h, np.array([0.0]), grid.spacing)
    assert np.allclose(g, 1.0 / 3.0, atol=1e-9)
    assert abs((h - g).sum() * grid.spacing) <= 1e-9


def test_riesz_in_span_gives_zero_residual(grid):
    zeta0 = 2.0
    sl = grid.slice_of(-1.0, 2.0)
    h = np.exp(2j * np.pi * zeta0 * grid.xs()[sl])[:, None]
    g = riesz_project(h, np.array([1.0, zeta0]), grid.spacing)
    assert np.abs(h - g).max() <= 1e-9


def test_riesz_projection_optimality(grid):
    rng = np.random.default_rng(7)
    xs = grid.xs()[grid.slice_of(-1.0, 2.0)]
    h = rng.normal(size=xs.size) + 1j * rng.normal(size=xs.size)
    freqs = np.array([0.0, 0.5, 1.0, 2.5])
    [g] = riesz_project(h[:, None], freqs, grid.spacing).T
    best = math.sqrt(float((np.abs(h - g) ** 2).sum()))
    for _ in range(20):
        coef = rng.normal(size=4) + 1j * rng.normal(size=4)
        s = np.exp(2j * np.pi * np.outer(xs, freqs)) @ coef
        dist = math.sqrt(float((np.abs(h - s) ** 2).sum()))
        assert best <= dist + 1e-9


class _RankLines(logging.Handler):
    """Collects the (rank, frequency count) of each "projection rank" record."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.ranks = []

    def emit(self, record):
        if record.getMessage().startswith("projection rank"):
            self.ranks.append(record.args)


@contextlib.contextmanager
def _rank_lines():
    handler = _RankLines()
    logger = logging.getLogger("tflab.mfcz")
    level = logger.level
    logger.setLevel(logging.INFO)
    logger.addHandler(handler)
    try:
        yield handler.ranks
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


@st.composite
def shared_space_draws(draw):
    """Windows 3Q of one scale at random grid positions, each h = noise on
    its Q, and a frequency lattice they share (close spacings included, so
    some systems are rank deficient)."""
    grid = Grid(-16.0, 16.0, 2 ** 10)
    scale = draw(st.integers(-3, 1))
    length = 2.0 ** scale
    count = int(grid.length / length)
    positions = draw(st.lists(st.integers(1, count - 2), min_size=1,
                              max_size=6, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = []
    for pos in positions:
        q = DyadicInterval(scale, pos - count // 2)
        vals = np.zeros(grid.n, complex)
        sl = grid.slice_of(q.lo, q.hi)
        vals[sl] = rng.normal(size=sl.stop - sl.start) \
            + 1j * rng.normal(size=sl.stop - sl.start)
        parts.append((GridFunction(grid, vals), q.dilate(3.0)))
    spacing = 1.0 / (3.0 * draw(st.sampled_from([1.0, 2.0, 4.0, 8.0])) * length)
    xi = draw(st.floats(-4.0, 4.0))
    freqs = xi + spacing * np.arange(draw(st.integers(1, 12)))
    return parts, freqs


@settings(max_examples=60, deadline=None)
@given(shared_space_draws())
def test_grouped_projection_matches_per_window_solves(draw):
    parts, freqs = draw
    grid = parts[0][0].grid
    slices = [grid.slice_of(w.lo, w.hi) for _, w in parts]
    h = np.stack([f.values[sl] for (f, _), sl in zip(parts, slices)], axis=1)
    with _rank_lines() as ranks:
        g = riesz_project(h, freqs, grid.spacing)
    assert g.shape == h.shape
    deficits = []
    for i, ((f, window), sl) in enumerate(zip(parts, slices)):
        g_ref, _, rank, sing = riesz_project_window(f, window, freqs)
        if rank < freqs.size:
            deficits.append((rank, freqs.size))
        top = np.abs(h[:, i]).max()
        # rounding in either solve is amplified by the condition number of
        # the kept singular values, up to 1/RCOND: past 1e7 the bounds grow
        slack = max(1.0, 1e-7 * sing[0] / sing[rank - 1])
        assert np.abs(g[:, i] - g_ref.values[sl]).max() <= 1e-7 * slack * top
        # h - g's Fourier integrals at the frequencies, in absolute coordinates
        a = np.exp(-2j * np.pi * np.outer(freqs, grid.xs()[sl]))
        l1 = np.abs(h[:, i]).sum() * grid.spacing
        b = h[:, i] - g[:, i]
        assert np.abs(a @ b * grid.spacing).max() <= 1e-8 * slack * l1
    # the same rank as each window's own solve, logged once per window
    assert ranks == deficits


def test_one_lstsq_per_shared_projection_space(params):
    # acceptance 3's first case: translates of one 3Q length with one Xi_Q
    # share one least-squares factorization
    grid = Grid(-16.0, 16.0, 2 ** 12)
    f, tops, lam = mfcz_case(np.random.default_rng(2024), grid, params)
    with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
        split = mfcz_decompose(f, tops, lam, 1, 1.0, params, big_c=0.5)
    keys = set()
    for q in split.q_intervals:
        tq = q.dilate(3.0)
        sl = grid.slice_of(tq.lo, tq.hi)
        if split.xi_q[q].size:
            keys.add((sl.stop - sl.start, split.xi_q[q].tobytes()))
    assert lstsq.call_count == len(keys) < len(split.q_intervals)
    # Q's with equal Xi_Q share one array, so none of them can be written
    assert not any(z.flags.writeable for z in split.xi_q.values())


def test_one_rank_line_per_deficient_q(params):
    # the tracer's rank_deficits counts these lines per decomposition
    grid = Grid(-16.0, 16.0, 2 ** 12)
    f, tops, lam = mfcz_case(np.random.default_rng(2024), grid, params)
    with _rank_lines() as ranks:
        split = mfcz_decompose(f, tops, lam, 1, 1.0, params, big_c=0.5)
    deficits = []
    for q in split.q_intervals:
        vals = np.zeros(grid.n, complex)
        sl = grid.slice_of(q.lo, q.hi)
        vals[sl] = f.values[sl]
        freqs = split.xi_q[q]
        _, _, rank, _ = riesz_project_window(GridFunction(grid, vals),
                                             q.dilate(3.0), freqs)
        if rank < freqs.size:
            deficits.append((rank, freqs.size))
    assert deficits
    assert sorted(ranks) == sorted(deficits)


def test_mfcz_trivial_no_tops(grid, params):
    rng = np.random.default_rng(1)
    f = bump_signal(rng, grid)
    mpf = maximal_function(f, 1.0)
    lam = float(np.quantile(mpf.values.real, 0.8))
    split = mfcz_decompose(f, [], lam, 2, 1.0, params)
    assert all(z.size == 0 for z in split.xi_q.values())
    rec = split.reconstruction()
    assert np.abs(rec.values - f.values).max() <= 1e-12
    # all the selected mass went to the bad part
    for q, b in split.bad_parts.items():
        sl = grid.slice_of(q.lo, q.hi)
        assert np.array_equal(b.values[sl], f.values[sl])


def test_mfcz_trivial_small_lambda(grid, params):
    rng = np.random.default_rng(2)
    f = bump_signal(rng, grid)
    mpf = maximal_function(f, 1.0)
    lam = float(mpf.values.real.max()) * 1.01
    split = mfcz_decompose(f, [], lam, 2, 1.0, params)
    assert split.q_intervals == []
    assert np.array_equal(split.good.values, f.values)
    assert split.bad_parts == {}


def test_mfcz_counting_condition(grid, params):
    rng = np.random.default_rng(3)
    f = bump_signal(rng, grid)
    tops = [TopDatum(DyadicInterval(0, 0), 1.0 + 0.1 * i) for i in range(8)]
    with pytest.raises(CountingConditionError):
        mfcz_decompose(f, tops, 0.5, 1, 1.0, params)


def test_mfcz_validation(grid, params):
    f = GridFunction(grid, np.zeros(grid.n, complex))
    with pytest.raises(ValueError):
        mfcz_decompose(f, [], 1.0, 2, 2.5, params)
    with pytest.raises(ValueError):
        mfcz_decompose(f, [], -1.0, 2, 1.0, params)
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError, match="lam"):
            mfcz_decompose(f, [], lam, 2, 1.0, params)
    for big_c in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="big_c"):
            mfcz_decompose(f, [], 1.0, 2, 1.0, params, big_c=big_c)
    for k in (0, 1024):  # 2^1024 overflows a float
        with pytest.raises(ValueError, match=r"k must lie in \[1, 1023\], got"):
            mfcz_decompose(f, [], 1.0, k, 1.0, params)
    for eps in (-1.0, 0.0, 5.0, math.nan):
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\], got"):
            mfcz_k_sweep(f, [], None, [1, 2], 1.0, 1.0, eps=eps)
    for ks in ([], [1]):  # no slope to fit
        with pytest.raises(ValueError, match="at least two k values"):
            mfcz_k_sweep(f, [], None, ks, 1.0, 1.0)


def test_mfcz_invariants_random_suite(grid, params):
    rng = np.random.default_rng(4)
    worst_overlap = 0
    for case in range(6):
        f, tops, lam = mfcz_case(rng, grid, params)
        k = 1 + case % 4
        split = mfcz_decompose(f, tops, lam, k, 1.0, params)
        rec = split.reconstruction()
        sup = np.abs(f.values).max()
        assert np.abs(rec.values - f.values).max() <= 1e-9 * sup
        l1 = lp_norm(f, 1)
        xs = grid.xs()
        for q, b in split.bad_parts.items():
            tq = q.dilate(3.0)
            sl = grid.slice_of(tq.lo, tq.hi)
            out = np.abs(np.concatenate([b.values[:sl.start],
                                         b.values[sl.stop:]]))
            if out.size:
                assert out.max() == 0.0
            z = split.xi_q[q]
            if z.size:
                # b is exactly zero off 3Q (asserted above), so the Fourier
                # integrals at Xi_Q are sums over 3Q
                a = np.exp(-2j * np.pi * np.outer(z, xs[sl]))
                resid = np.abs(a @ b.values[sl] * grid.spacing).max()
                assert resid <= 1e-8 * l1
        worst_overlap = max(worst_overlap, overlap_count(split))
    # tripled maximal dyadic intervals overlap a little more than 3 in
    # Whitney-type geometry; 6 is a comfortable audited ceiling
    assert worst_overlap <= 6


@st.composite
def mfcz_draws(draw):
    """conftest.mfcz_case on a 2^10 grid, a level k and a few more tops."""
    grid = Grid(-16.0, 16.0, 2 ** 10)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f, tops, lam = mfcz_case(rng, grid, None)
    tops += [TopDatum(DyadicInterval(scale, pos), xi) for scale, pos, xi in
             draw(st.lists(st.tuples(st.integers(-2, 0), st.integers(-12, 11),
                                     st.floats(-4.0, 4.0)), max_size=3))]
    return f, tops, lam, draw(st.integers(1, 4))


@settings(max_examples=20, deadline=None)
@given(mfcz_draws())
def test_mfcz_invariants_hypothesis(params, draw):
    # exact reconstruction, b_Q zero off 3Q, and vanishing Fourier integrals
    # of b_Q at Xi_Q, over 3Q
    f, tops, lam, k = draw
    try:
        split = mfcz_decompose(f, tops, lam, k, 1.0, params)
    except (CountingConditionError, ResolutionError):
        assume(False)
    grid = f.grid
    err = np.abs(split.reconstruction().values - f.values).max()
    assert err <= 1e-12 * np.abs(f.values).max()
    l1 = lp_norm(f, 1)
    xs = grid.xs()
    for q, b in split.bad_parts.items():
        tq = q.dilate(3.0)
        sl = grid.slice_of(tq.lo, tq.hi)
        assert not b.values[:sl.start].any() and not b.values[sl.stop:].any()
        z = split.xi_q[q]
        if z.size:
            a = np.exp(-2j * np.pi * np.outer(z, xs[sl]))
            assert np.abs(a @ b.values[sl] * grid.spacing).max() <= 1e-8 * l1


def test_mfcz_xi_cardinality_bound(grid, params):
    rng = np.random.default_rng(5)
    f, tops, lam = mfcz_case(rng, grid, params)
    split = mfcz_decompose(f, tops, lam, 2, 1.0, params)
    assert split.diagnostics["xi_bound_ratio"] <= 4.0


def test_verify_zero_bad_part(grid, params, table):
    rng = np.random.default_rng(6)
    f = bump_signal(rng, grid)
    mpf = maximal_function(f, 1.0)
    lam = float(mpf.values.real.max()) * 1.01
    tops = [TopDatum(DyadicInterval(-1, 8), 2.0)]
    split = mfcz_decompose(f, tops, lam, 2, 1.0, params)
    rep = verify_mfcz(split, tops, table)
    assert rep.stats["stat_sup"] == 0.0
    assert rep.stats["stat_block_l2"] == 0.0


def test_verify_excludes_exceptional_intervals(grid, params, table):
    # intervals inside the exceptional set must not contribute coefficients
    exc = grid.mask([(0.0, 2.0)])
    inside = bands_inside(exc, grid, np.array([0.5, 1.5, 3.0]),
                          np.array([1.0, 2.5, 4.0]))
    assert inside.tolist() == [True, False, False]
    # E everywhere leaves verify_mfcz no interval to test
    f, tops, lam = mfcz_case(np.random.default_rng(8), grid, params)
    split = mfcz_decompose(f, tops, lam, 2, 1.0, params)
    assert verify_mfcz(split, tops, table, levels=2).stats["stat_sup"] > 0
    everywhere = dataclasses.replace(split, exceptional=np.ones(grid.n, bool))
    stats = verify_mfcz(everywhere, tops, table, levels=2).stats
    assert stats["stat_sup"] == stats["stat_block_l2"] == 0.0


def test_mfcz_k_sweep_slope(grid, params, table):
    rng = np.random.default_rng(8)
    f, tops, lam = mfcz_case(rng, grid, params)
    rep = mfcz_k_sweep(f, tops, table, [1, 2, 3], lam, 1.0, levels=3)
    assert rep.passed
    assert rep.stats["slope"] < 0
    assert rep.stats["stat_sup_k1"] > rep.stats["stat_sup_k3"]


def test_sweep_diagnostics_rows(grid, params, table):
    from tflab.mfcz import sweep_diagnostics_rows
    rng = np.random.default_rng(9)
    f, tops, lam = mfcz_case(rng, grid, params)
    rep = mfcz_k_sweep(f, tops, table, [1, 2], lam, 1.0, levels=2)
    rows = sweep_diagnostics_rows(rep)
    assert rows and all(len(r) == 4 for r in rows)
    ks = {r[0] for r in rows}
    assert ks == {1, 2}
    assert all(r[3] == rep.stats["slope"] for r in rows)


# ---------------------------------------------------------------------------
# projections at one BLAS thread

_DIGEST = """
import hashlib
import numpy as np
from conftest import mfcz_case
from tflab.mfcz import mfcz_decompose
from tflab.osgood import OsgoodParams
from tflab.sampling import Grid
grid, params = Grid(-16.0, 16.0, 2 ** 12), OsgoodParams(1.0)
rng = np.random.default_rng(0)
h = hashlib.sha256()
for k in (1, 2, 3, 4):
    f, tops, lam = mfcz_case(rng, grid, params)
    split = mfcz_decompose(f, tops, lam, k, 1.0, params, big_c=0.5)
    h.update(split.good.values.tobytes())
    for q in split.q_intervals:
        h.update(split.bad_parts[q].values.tobytes())
print(h.hexdigest())
"""


def test_projections_do_not_depend_on_blas_threads():
    # a threaded lstsq changed these bits between 1 and 2 threads
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests),
                            os.environ.get("PYTHONPATH", "")])
    digests = [subprocess.run(
        [sys.executable, "-c", _DIGEST], capture_output=True, text=True,
        check=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                             PYTHONPATH=path)).stdout
               for threads in ("1", "2")]
    assert len(digests[0]) == 65
    assert digests[0] == digests[1]


@pytest.fixture()
def blas_at_two():
    """The loaded OpenBLAS's (get, set) at two threads; the count is put back."""
    api = mfcz._blas_thread_api()
    if api is None:
        pytest.skip("no OpenBLAS thread control in this process")
    get, put = api
    old = get()
    put(2)
    try:
        yield get
    finally:
        put(old)


def test_one_blas_thread_inside_and_restored(grid, params, blas_at_two):
    get = blas_at_two
    f, tops, lam = mfcz_case(np.random.default_rng(0), grid, params)
    seen, columns = [], []

    def project(h, freqs, spacing):
        seen.append(get())
        columns.append(h.shape[1])
        return riesz_project(h, freqs, spacing)

    with mock.patch.object(mfcz, "riesz_project", project):
        split = mfcz_decompose(f, tops, lam, 1, 1.0, params)
    # one call per shared projection space, one column per Q
    assert split.q_intervals and seen == [1] * len(seen)
    assert sum(columns) == len(split.q_intervals) > len(seen)
    assert get() == 2


def test_blas_threads_restored_after_an_error(grid, params, blas_at_two):
    get = blas_at_two
    f, tops, lam = mfcz_case(np.random.default_rng(0), grid, params)
    err = ResolutionError("3Q leaves the grid domain")
    with mock.patch.object(mfcz, "xi_H", side_effect=err):
        with pytest.raises(ResolutionError, match="3Q"):
            mfcz_decompose(f, tops, lam, 1, 1.0, params)
    assert get() == 2


def test_3q_off_the_grid_raises_before_any_xi_work(grid, params):
    # Q = [15, 16) sits in the domain but 3Q = [14, 17) does not; the Q
    # before it is fine and its Xi_Q needs the live top, so a per-Q order
    # would have called xi_H first
    f, tops, lam = mfcz_case(np.random.default_rng(0), grid, params)
    inner, edge = DyadicInterval(-2, 0), DyadicInterval(0, 15)
    with mock.patch.object(mfcz, "xi_H", wraps=mfcz.xi_H) as xi:
        with mock.patch.object(mfcz, "superlevel_decompose", return_value=[inner]):
            mfcz_decompose(f, tops, lam, 1, 1.0, params)
        assert xi.call_count == len(tops)
        xi.reset_mock()
        with mock.patch.object(mfcz, "superlevel_decompose",
                               return_value=[inner, edge]):
            with pytest.raises(ResolutionError,
                               match=r"3Q = \[14\.0, 17\.0\) leaves"):
                mfcz_decompose(f, tops, lam, 1, 1.0, params)
        assert xi.call_count == 0
