"""Absorbed continuous-time random walks driven by the weighted form.

The walk jumps between in-domain cells at rate w_ij / h^d, matching the
generator of the discrete quadratic form, and is killed on entering the
absorbing collar {d < absorb_eps} or when the diffusion-time horizon runs
out. A high absorbed fraction means trajectories reach the boundary;
degenerate weights starve the near-boundary rates and the fraction drops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geomfield import DistanceField
from .forms import SparseForm, _pairs

__all__ = ["WalkConfig", "WalkResult", "walk_absorption"]

_RATE_CAP = 1e8
# Draws hashed per lockstep round: a round advances every live trial by
# max(1, _ROUND_DRAWS // live) steps.
_ROUND_DRAWS = 2048


@dataclass(frozen=True)
class WalkConfig:
    """Parameters of an absorbed-walk experiment.

    start     cell index (flat, or a grid multi-index tuple)
    horizon   diffusion-time budget T, positive and finite
    trials    number of independent trajectories
    seed      base seed; every (trial, step) draw comes from its own
              counter-indexed substream, so trials are independent and
              results do not depend on execution order or batching
    absorb_eps  physical collar width that counts as reaching the boundary
    """

    start: object
    horizon: float
    trials: int
    seed: int
    absorb_eps: float

    def __post_init__(self):
        if not 0 < self.horizon < np.inf:
            raise ValueError("horizon must be positive and finite")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not self.absorb_eps > 0:
            raise ValueError("absorb_eps must be positive")


@dataclass(frozen=True)
class WalkResult:
    p_hat: float
    stderr: float
    absorbed: int
    trials: int
    clamp_events: int
    steps: int  # holds drawn, summed over trials
    rounds: int  # vectorized lockstep rounds run


def _mix64(x: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer, in place: bijective avalanche on uint64 counters
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _u01(seed: np.uint64, counter: np.ndarray) -> np.ndarray:
    """Uniform [0,1) draws indexed purely by (seed, counter); consumes counter."""
    x = _mix64(counter)
    x ^= seed
    x = _mix64(x)
    x >>= np.uint64(11)
    return x * 2.0**-53


@dataclass(frozen=True)
class _Jumps:
    """What a step of one walk reads: tables indexed by flat grid cell, and
    the horizon."""

    target: np.ndarray  # cell * 2d + slot -> neighbour cell, or -1 for a collar cell
    cum_head: list  # cumulative jump rates of every slot but the last, per slot
    total: np.ndarray  # total exit rate: scales the pick
    divisor: np.ndarray  # clamped rate that divides the hold, 0 for a zero rate
    clamped: np.ndarray  # total above _RATE_CAP
    any_clamped: bool
    horizon: float


def _jump_tables(form: SparseForm, absorbing: np.ndarray, horizon: float) -> _Jumps:
    """Tables over the flat cells of the form's grid; absorbing flags their
    collar cells.

    Slot ax holds a cell's neighbour one step up axis ax and slot d + ax the
    one a step down. A missing neighbour keeps rate 0, which no pick reaches:
    the pick lies strictly below the total."""
    grid = form.grid
    d = grid.dim
    flat = np.arange(grid.n_cells).reshape(grid.dims)
    nbr = np.zeros(grid.dims + (2 * d,), dtype=np.int64)
    rates = np.zeros(grid.dims + (2 * d,))
    for ax, (lo, hi, both) in enumerate(_pairs(grid.omega_mask)):
        f = form.faces[ax]
        nbr[lo + (ax,)] = np.where(both, flat[hi], 0)
        nbr[hi + (d + ax,)] = np.where(both, flat[lo], 0)
        rates[..., ax] = f / grid.h**d
        rates[hi + (d + ax,)] = f[lo] / grid.h**d
    rates = rates.reshape(grid.n_cells, 2 * d)
    total = rates.sum(axis=1)
    clamped = total > _RATE_CAP
    capped = np.minimum(total, _RATE_CAP)
    nbr[absorbing[nbr]] = -1
    return _Jumps(
        target=nbr.ravel(),
        cum_head=list(np.cumsum(rates[:, :-1], axis=1).T.copy()),
        total=total,
        divisor=np.where(capped > 0, np.maximum(capped, 1e-300), 0.0),
        clamped=clamped,
        any_clamped=bool(clamped.any()),
        horizon=horizon,
    )


def _advance(jumps: _Jumps, cell, t, hold, pick):
    """Advance a block of trials in lockstep, one step per row of hold/pick.

    Returns the block columns still live (None if all are), their cells
    and times, and the holds drawn, clamped holds and absorptions.
    """
    deg = len(jumps.cum_head) + 1
    sel = None
    steps = clamps = absorbed = 0
    for e, p in zip(hold, pick):
        if sel is not None:
            e, p = e[sel], p[sel]
        m = cell.size
        steps += m
        if jumps.any_clamped:
            clamps += int(np.count_nonzero(jumps.clamped[cell]))
        # a zero rate divides to an infinite (or NaN) hold: the trial times out
        t += e / jumps.divisor[cell]
        live = t <= jumps.horizon
        # cumulative rates rise along a row, so the slots before the last
        # that the pick reaches number the slot, capped at deg - 1
        p = p * jumps.total[cell]
        slot = cell * deg
        for c in jumps.cum_head:
            slot += c[cell] <= p
        cell = jumps.target[slot]
        keep = live & (cell >= 0)
        n_keep = int(np.count_nonzero(keep))
        absorbed += int(np.count_nonzero(live)) - n_keep
        if n_keep == m:
            continue
        cell, t = cell[keep], t[keep]
        sel = np.flatnonzero(keep) if sel is None else sel[keep]
        if not n_keep:
            break
    return sel, cell, t, steps, clamps, absorbed


def _start_index(grid, cfg: WalkConfig) -> int:
    """Flat index of the start cell, once cfg passes the checks made on the grid."""
    if cfg.absorb_eps < 2.0 * grid.h:
        raise ValueError("absorb_eps must span at least two cells")
    start = cfg.start
    if not np.isscalar(start):
        start = np.ravel_multi_index(tuple(int(k) for k in start), grid.dims)
    start = int(start)
    if not (0 <= start < grid.n_cells) or not grid.omega_mask.ravel()[start]:
        raise ValueError("start cell must be inside the domain")
    return start


def walk_absorption(form: SparseForm, field: DistanceField, cfg: WalkConfig) -> WalkResult:
    """Run cfg.trials absorbed walks; return the absorbed fraction. The form
    must be assembled on field's own grid object.

    Each holding time is exponential with the cell's total exit rate
    (clamped at 1e8; clamp occurrences are counted), and the jump target
    is drawn proportionally to the face rates. Trials advance in lockstep,
    but the k-th draw of trial t depends only on (seed, t, k): results are
    reproducible bit-for-bit, partial runs merge by summing hits, and
    trajectories stay coupled pathwise when only the horizon or the collar
    width changes.

    Only live trials are kept, compacted after every step. Each round
    hashes about _ROUND_DRAWS draws, so when few trials are live it covers
    many steps: the long tail of a few slow trajectories does not pay a
    hash pass at every step.
    """
    if form.grid is not field.grid:
        raise ValueError("form and field live on different grids")
    start = _start_index(field.grid, cfg)
    d_flat = field.values.ravel()
    if d_flat[start] < cfg.absorb_eps:
        raise ValueError("start cell lies inside the absorbing collar")
    jumps = _jump_tables(form, d_flat < cfg.absorb_eps, cfg.horizon)

    n = cfg.trials
    seed = np.uint64(cfg.seed & 0xFFFFFFFFFFFFFFFF)
    # counter low bits of steps 0.._ROUND_DRAWS-1: (step << 1) | {hold 0, pick 1}
    lanes = (np.arange(_ROUND_DRAWS, dtype=np.uint64) << np.uint64(1)) | np.array(
        [[0], [1]], dtype=np.uint64)
    # live trials only: counter base (trial << 41), cell and elapsed time;
    # every live trial has drawn the same number of holds, `step`
    base = np.arange(n, dtype=np.uint64) << np.uint64(41)
    cell = np.full(n, start)
    t = np.zeros(n)
    step = 0
    absorbed = clamp_events = steps = rounds = 0

    with np.errstate(divide="ignore", invalid="ignore"):
        while base.size:
            rounds += 1
            k = max(1, _ROUND_DRAWS // base.size)
            u = _u01(seed, base | (lanes[:, :k, None] + np.uint64(2 * step)))
            step += k
            sel, cell, t, n_steps, n_clamps, n_hits = _advance(
                jumps, cell, t, -np.log1p(-u[0]), u[1])
            if sel is not None:
                base = base[sel]
            steps += n_steps
            clamp_events += n_clamps
            absorbed += n_hits

    p_hat = absorbed / n
    stderr = float(np.sqrt(p_hat * (1.0 - p_hat) / n))
    return WalkResult(float(p_hat), stderr, int(absorbed), int(n), int(clamp_events),
                      int(steps), int(rounds))
