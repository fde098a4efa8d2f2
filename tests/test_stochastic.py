"""Tests for the absorbed continuous-time random walk."""

import tracemalloc

import numpy as np
import pytest
from scipy.sparse import coo_matrix, diags
from scipy.sparse.linalg import expm_multiply

from snowcap import (
    Grid,
    DistanceField,
    WalkConfig,
    walk_absorption,
    assemble_form,
    cantor_dust,
    build_grid,
    distance_field,
)
from snowcap import stochastic


def line_field(n, mask=None, dims=None):
    """The unit line with its boundary at 0, on a grid of shape dims
    (default (n,)) whose one long axis holds the line."""
    dims = (n,) if dims is None else dims
    mask = np.ones(n, dtype=bool) if mask is None else mask
    grid = Grid((0.0,) * len(dims), 1.0 / n, dims, mask.reshape(dims))
    x = (np.arange(n) + 0.5) / n
    return DistanceField(grid, x.reshape(dims), 0.0, 1.0)


@pytest.fixture(scope="module")
def line64():
    df = line_field(64)
    return df, assemble_form(df, 0.0)


@pytest.fixture(scope="module")
def dust128():
    geom = cantor_dust(0.25, 2, 4)
    df = distance_field(geom, build_grid(geom, 128))
    return df


def test_interval_absorbs_almost_surely(line64):
    # unit-diffusivity walk on (0,1) reaches the end collar well before T=10
    df, form = line64
    res = walk_absorption(form, df, WalkConfig(32, 10.0, 200, 42, 2.5 / 64))
    assert res.p_hat >= 0.99
    assert res.absorbed == round(res.p_hat * res.trials)
    assert res.stderr == pytest.approx(
        np.sqrt(res.p_hat * (1 - res.p_hat) / res.trials)
    )


def test_zero_horizon_never_absorbs(line64):
    df, form = line64
    res = walk_absorption(form, df, WalkConfig(32, 1e-12, 100, 1, 2.5 / 64))
    assert res.p_hat == 0.0


def test_bitwise_reproducible(line64):
    df, form = line64
    cfg = WalkConfig(32, 0.2, 250, 987, 3.0 / 64)
    assert walk_absorption(form, df, cfg) == walk_absorption(form, df, cfg)


def test_monotone_in_horizon_and_collar(line64):
    # same seed couples the trajectories, so both sweeps are pathwise monotone
    df, form = line64
    p_T = [
        walk_absorption(form, df, WalkConfig(32, T, 300, 7, 2.5 / 64)).p_hat
        for T in (0.02, 0.1, 0.5)
    ]
    assert p_T[0] <= p_T[1] <= p_T[2]
    p_e = [
        walk_absorption(form, df, WalkConfig(32, 0.05, 300, 7, e)).p_hat
        for e in (2.5 / 64, 5 / 64, 10 / 64)
    ]
    assert p_e[0] <= p_e[1] <= p_e[2]


def test_rate_clamp_counted():
    # h small enough that exit rates exceed the cap on every hold
    n = 1 << 17
    df = line_field(n)
    form = assemble_form(df, 0.0)
    res = walk_absorption(form, df, WalkConfig(n // 2, 1e-7, 20, 3, 2.5 / n))
    assert res.clamp_events > 0
    assert res.p_hat == 0.0


def test_degenerate_weights_slow_absorption(dust128):
    # same walk budget: quadratic degeneracy keeps trajectories off the dust
    h = dust128.grid.h
    cfg = WalkConfig((16, 16), 0.3, 500, 21, 4 * h)
    p0 = walk_absorption(assemble_form(dust128, 0.0), dust128, cfg).p_hat
    p2 = walk_absorption(assemble_form(dust128, 2.0), dust128, cfg).p_hat
    assert p0 > p2 + 0.2


def test_config_validation(line64):
    df, form = line64
    # an endless horizon never ends a trial that cannot reach the collar
    for horizon in (0.0, np.inf, np.nan, -np.inf):
        with pytest.raises(ValueError, match="horizon"):
            WalkConfig(32, horizon, 100, 1, 0.05)
    with pytest.raises(ValueError):
        WalkConfig(32, 1.0, 0, 1, 0.05)
    # a trial count is an integer: a float, even an integer-valued one, is
    # refused, while integer numpy scalars are counts
    for trials in (10.5, 10.0, np.float64(10.0), np.nan):
        with pytest.raises(ValueError, match="not an integer"):
            WalkConfig(32, 1.0, trials, 1, 0.05)
    assert WalkConfig(32, 1.0, np.int64(10), 1, 0.05).trials == 10
    assert walk_absorption(form, df, WalkConfig(32, 0.2, np.int32(40), 3, 3.0 / 64)) == (
        walk_absorption(form, df, WalkConfig(32, 0.2, 40, 3, 3.0 / 64)))
    # so is a seed, and a numpy one walks bit for bit as the same int does
    for seed in (1.5, 3.0, "3", None):
        with pytest.raises(ValueError, match="not an integer"):
            WalkConfig(32, 1.0, 100, seed, 0.05)
    for seed in (5, -5):
        assert walk_absorption(form, df, WalkConfig(32, 0.2, 40, np.int64(seed), 3.0 / 64)) == (
            walk_absorption(form, df, WalkConfig(32, 0.2, 40, seed, 3.0 / 64)))
    # trial t draws from the counters (t << 41) | k, which wrap at t = 2^23;
    # the configs are only built, never walked
    assert WalkConfig(32, 1.0, 2**23, 1, 0.05).trials == 2**23
    with pytest.raises(ValueError, match="at most 8388608 trials"):
        WalkConfig(32, 1.0, 2**23 + 1, 1, 0.05)
    with pytest.raises(ValueError):
        WalkConfig(32, 1.0, 100, 1, 0.0)
    with pytest.raises(ValueError):
        walk_absorption(form, df, WalkConfig(32, 1.0, 10, 1, 0.5 / 64))
    with pytest.raises(ValueError):
        walk_absorption(form, df, WalkConfig(1, 1.0, 10, 1, 10 / 64))
    with pytest.raises(ValueError):
        walk_absorption(form, df, WalkConfig(-3, 1.0, 10, 1, 3 / 64))


def test_start_must_be_integral(dust128):
    # a start is a cell index, flat or per axis: a fraction is refused, not
    # truncated, while integer-valued numpy scalars name their cell
    h = dust128.grid.h
    form = assemble_form(dust128, 0.0)
    flat = 16 * 128 + 16
    for start in ((16.9, 16.2), (16, np.float64(16.5)), flat + 0.7, (np.inf, 16), (16, np.nan),
                  np.inf):
        with pytest.raises(ValueError, match="not integral"):
            walk_absorption(form, dust128, WalkConfig(start, 0.3, 10, 1, 4 * h))
    results = [walk_absorption(form, dust128, WalkConfig(start, 0.3, 50, 1, 4 * h))
               for start in ((16, 16), (np.int64(16), np.int32(16)), np.int64(flat),
                             np.float64(flat))]
    assert all(res == results[0] for res in results)


def test_start_off_the_grid_is_outside_the_domain(dust128):
    # a per-axis start off the grid, or with the wrong number of axes, gets
    # the same refusal as a flat one off the grid
    form = assemble_form(dust128, 0.0)
    for start in ((999, 0), (-1, 4), (4,), (4, 4, 4), 128 * 128, -1):
        with pytest.raises(ValueError, match="start cell must be inside the domain"):
            walk_absorption(form, dust128, WalkConfig(start, 0.3, 10, 1, 4 * dust128.grid.h))


def test_grid_mismatch_raises(line64, dust128):
    _, form = line64
    cfg = WalkConfig((16, 16), 0.3, 10, 1, 4 * dust128.grid.h)
    with pytest.raises(ValueError, match="different grids"):
        walk_absorption(form, dust128, cfg)
    # as many cells as the 128 x 128 field, but rows of 256
    dims = (64, 256)
    wide = DistanceField(Grid((0.0, 0.0), 1.0 / 256, dims, np.ones(dims, dtype=bool)),
                         np.ones(dims), 0.0, 1.0)
    with pytest.raises(ValueError, match="different grids"):
        walk_absorption(assemble_form(wide, 0.0), dust128, cfg)
    # a line of as many cells, whose every edge step is a stride of the
    # field's grid and whose cell volume equals the field's
    with pytest.raises(ValueError, match="different grids"):
        walk_absorption(assemble_form(line_field(128 * 128), 0.0), dust128, cfg)


def test_line_layouts_agree():
    # one line on grids of shape (n,), (n, 1) and (1, n): a length-1 axis
    # shares a stride with the axis before it. With n a power of two the
    # rates are equal bit for bit, and so are the walks
    n = 256
    out = []
    for dims in ((n,), (n, 1), (1, n)):
        df = line_field(n, dims=dims)
        cfg = WalkConfig(n // 3, 0.1, 500, 11, 2.5 / n)
        out.append(walk_absorption(assemble_form(df, 0.5), df, cfg))
    assert 0.1 < out[0].p_hat < 0.9
    assert out[0] == out[1] == out[2]


def test_jump_table_memory_is_bounded():
    # what a walk keeps is 16 bytes a cell on a 2-D grid: one buffer of
    # rates per axis, whose up and down jumps are two views. A jump's target
    # is the cell plus its slot's flat offset, and a step sums the total
    # from the rates it gathers, so neither is a table. Measured peak: 25
    # bytes a cell, with the total summed once at build time and the mask
    # that looks for totals below the hold floor
    n = 512
    grid = Grid((0.0, 0.0), 1.0 / n, (n, n), np.ones((n, n), dtype=bool))
    field = DistanceField(grid, np.ones((n, n)), 0.0, 1.0)
    form = assemble_form(field, 0.0)
    absorbing = field.values.ravel() < 3.0 / n
    tracemalloc.start()
    try:
        stochastic._jump_tables(form, absorbing, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28 * grid.n_cells


def _pinned_case(name, dust128):
    h = dust128.grid.h
    if name == "dust-delta0-tail":
        # nearly all absorbed at once, two trials left wandering for ~1,000 rounds
        return dust128, assemble_form(dust128, 0.0), WalkConfig((16, 16), 0.02, 3000, 5, 4 * h)
    if name == "dust-delta2":
        return dust128, assemble_form(dust128, 2.0), WalkConfig((16, 16), 0.3, 3000, 5, 4 * h)
    if name == "rate-clamp":
        n = 1 << 17
        df = line_field(n)
        return df, assemble_form(df, 0.0), WalkConfig(n // 2, 1e-7, 20, 3, 2.5 / n)
    if name == "dust3d-delta1":
        # three axes: six jump directions, each a flat offset of its own
        geom = cantor_dust(0.25, 3, 3)
        df = distance_field(geom, build_grid(geom, 32))
        start = tuple(n // 2 for n in df.grid.dims)
        return df, assemble_form(df, 1.0), WalkConfig(start, 0.1, 1000, 17, 3 * df.grid.h)
    if name == "plateau-delta400":
        # a line whose free cells all lie 0.162 from the boundary, between
        # two collars: at delta 400 their exit rates are about 5e-313, and
        # each hold divides by the floor 1e-300 instead
        n = 64
        values = np.zeros(n)
        values[24:41] = 0.162
        df = DistanceField(Grid((0.0,), 1.0 / n, (n,), np.ones(n, dtype=bool)), values,
                           0.0, 1.0)
        return df, assemble_form(df, 400.0), WalkConfig(32, 5e301, 500, 23, 2.0 / n)
    # isolated start: domain cell 32 has no domain neighbour, so its exit
    # rate is zero
    mask = np.ones(64, dtype=bool)
    mask[[31, 33]] = False
    df = line_field(64, mask)
    return df, assemble_form(df, 0.0), WalkConfig(32, 1.0, 50, 11, 2.5 / 64)


# (p_hat, absorbed, clamp_events) and the holds drawn, recorded with the
# one-step-per-round walk that preceded the compacted multi-step rounds; the
# 3-D case with the walk that stored each cell's neighbours in a table, the
# plateau with the walk that stored each cell's hold divisor in a table
PINNED_WALKS = {
    "dust-delta0-tail": (0.9993333333333333, 2998, 0, 272371),
    "dust-delta2": (0.228, 684, 0, 215952),
    "dust3d-delta1": (0.162, 162, 0, 159542),
    "rate-clamp": (0.0, 0, 225, 225),
    "isolated-start": (0.0, 0, 0, 50),
    "plateau-delta400": (0.318, 159, 0, 22047),
}


@pytest.mark.parametrize("name", sorted(PINNED_WALKS))
def test_walk_outputs_are_pinned(name, dust128):
    df, form, cfg = _pinned_case(name, dust128)
    res = walk_absorption(form, df, cfg)
    assert (res.p_hat, res.absorbed, res.clamp_events) == PINNED_WALKS[name][:3]


@pytest.mark.parametrize("name", sorted(PINNED_WALKS))
@pytest.mark.parametrize("round_draws", [stochastic._ROUND_DRAWS, 1, 7])
def test_round_shapes_agree(name, round_draws, dust128, monkeypatch):
    # beside the module's own round shape: one step per round, the plain
    # lockstep walk, and short multi-step rounds that end mid-trajectory
    monkeypatch.setattr(stochastic, "_ROUND_DRAWS", round_draws)
    df, form, cfg = _pinned_case(name, dust128)
    res = walk_absorption(form, df, cfg)
    p_hat, absorbed, clamp_events, steps = PINNED_WALKS[name]
    assert (res.p_hat, res.absorbed, res.clamp_events, res.steps) == (
        p_hat, absorbed, clamp_events, steps)
    assert 1 <= res.rounds <= res.steps
    if name == "isolated-start":
        # every trial times out on its first hold
        assert res.rounds == 1


def _exact_absorption(form, field, start, horizon, eps):
    """P(start reaches the collar by `horizon`): expm(T Q) 1_collar at start,
    Q the walk's generator with the collar cells made absorbing."""
    grid = form.grid
    n, d = grid.n_cells, grid.dim
    flat = np.arange(n).reshape(grid.dims)
    ii, jj, r = [], [], []
    for ax, f in enumerate(form.faces):
        # the face between k and k + e_ax sits at k, on every layer but the last
        lo = tuple(slice(None, -1) if k == ax else slice(None) for k in range(d))
        hi = tuple(slice(1, None) if k == ax else slice(None) for k in range(d))
        ii.append(flat[lo].ravel())
        jj.append(flat[hi].ravel())
        r.append(f[lo].ravel() / grid.h**d)
    ii, jj, r = np.concatenate(ii), np.concatenate(jj), np.concatenate(r)
    q = coo_matrix((np.r_[r, r], (np.r_[ii, jj], np.r_[jj, ii])), shape=(n, n)).tocsr()
    q = q - diags(np.asarray(q.sum(axis=1)).ravel())
    collar = field.values.ravel() < eps
    q = diags((~collar).astype(float)) @ q
    return expm_multiply(horizon * q, collar.astype(float))[start]


@pytest.mark.parametrize("dim, res, delta, horizon, collar_cells", [
    (2, 64, 0.0, 0.03, 4),
    (2, 64, 1.0, 0.2, 3),
    (2, 64, 2.0, 2.0, 4),
    (2, 128, 0.0, 0.03, 8),
    (3, 32, 0.0, 0.03, 3),
])
def test_walk_matches_exact_absorption(dim, res, delta, horizon, collar_cells):
    # start in the central gap of the dust, where p lies between 0.25 and 0.55
    geom = cantor_dust(0.25, dim, 3 if res <= 64 else 4)
    df = distance_field(geom, build_grid(geom, res))
    form = assemble_form(df, delta)
    start = tuple(n // 2 for n in df.grid.dims)
    eps = collar_cells * df.grid.h
    out = walk_absorption(form, df, WalkConfig(start, horizon, 4000, 17, eps))
    p = _exact_absorption(form, df, np.ravel_multi_index(start, df.grid.dims), horizon, eps)
    assert 0.2 < p < 0.6
    assert abs(out.p_hat - p) <= 3.0 * out.stderr
