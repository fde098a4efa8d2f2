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
from .forms import SparseForm

__all__ = ["WalkConfig", "WalkResult", "walk_absorption"]

_RATE_CAP = 1e8
# A hold divides its exponential draw (below 37) by the exit rate held at
# least this large, so a tiny positive rate gives a finite hold
_HOLD_FLOOR = 1e-300
# Trial t draws from counters (t << 41) | k: the counters of 2^23 trials
# fill the uint64 range, and trial 2^23 would replay trial 0
_MAX_TRIALS = 1 << 23
# Draws hashed per lockstep round: a round advances every live trial by
# max(1, _ROUND_DRAWS // live) steps.
_ROUND_DRAWS = 2048


@dataclass(frozen=True)
class WalkConfig:
    """Parameters of an absorbed-walk experiment.

    start     cell index (flat, or a grid multi-index tuple), integral
    horizon   diffusion-time budget T, positive and finite
    trials    number of independent trajectories, an integer from 1 to 2^23
    seed      base seed, an integer; every (trial, step) draw comes from its own
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
        if not isinstance(self.trials, (int, np.integer)):
            raise ValueError(f"trial count {self.trials!r} is not an integer")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.trials > _MAX_TRIALS:
            raise ValueError(f"at most {_MAX_TRIALS} trials, so that no two share draws")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed {self.seed!r} is not an integer")
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
    """What a step of one walk reads: the jump rates indexed by flat grid
    cell, the flat step of each jump direction, and the horizon. A step sums
    a cell's rates in slot order to its total exit rate; the hold divides by
    that total, held to [_HOLD_FLOOR, _RATE_CAP] where positive, and `held`
    says whether any total lies outside those bounds."""

    offset: np.ndarray  # slot -> flat offset from a cell to its neighbour in that slot
    open: np.ndarray  # the cells outside the collar: a walk that lands elsewhere is absorbed
    rates: list  # per slot, the rate of the jump in that slot: views on per-axis buffers
    held: bool  # some total is above _RATE_CAP, or positive and below _HOLD_FLOOR
    horizon: float


def _jump_tables(form: SparseForm, absorbing: np.ndarray, horizon: float) -> _Jumps:
    """Tables over the flat cells of the form's grid; absorbing flags their
    collar cells. A 2-D grid keeps 16 bytes a cell: one buffer per axis,
    stride[ax] zeros followed by that axis's faces over h^d.

    Slot ax holds a cell's neighbour one step up axis ax and slot d + ax the
    one a step down: the neighbour in slot s is cell + offset[s]. The up
    rates are the view buf[stride:], the face above each cell, and the down
    rates the view buf[:n], the face above the neighbour below; on a first
    layer along the axis that is a padding zero or a last layer's face, 0
    too. A missing neighbour keeps rate 0, which no pick reaches: the pick
    lies strictly below the total. A cell without any rate picks the last
    slot, a step down the last axis, so even its target, -1 at least,
    indexes the array. The totals are summed once here, in slot order, to
    set `held`, and then freed."""
    grid = form.grid
    d, n = grid.dim, grid.n_cells
    stride = [int(np.prod(grid.dims[ax + 1:])) for ax in range(d)]
    offset = np.array(stride + [-k for k in stride])
    up, down = [], []
    for k, f in zip(stride, form.faces):
        buf = np.zeros(k + n)
        np.divide(f.ravel(), grid.h**d, out=buf[k:])
        up.append(buf[k:])
        down.append(buf[:n])
    rates = up + down
    total = rates[0] + rates[1]
    for rate in rates[2:]:
        total += rate
    held = bool(total.max() > _RATE_CAP
                or np.min(total, where=total > 0, initial=np.inf) < _HOLD_FLOOR)
    del total
    return _Jumps(offset=offset, open=~absorbing, rates=rates, held=held, horizon=horizon)


def _advance(jumps: _Jumps, cell, t, hold, pick):
    """Advance a block of trials in lockstep, one step per row of hold/pick;
    a hold row holds log1p(-u), the negated exponential draws.

    Each step gathers the cells' rates slot by slot and sums them in slot
    order: the partial sums are the cumulative rates the pick is compared
    with, and the last is the total exit rate, which scales the pick and
    divides the hold, held to its bounds only when the tables say some
    total lies outside them. Returns the block columns still live (None if
    all are), their cells and times, and the holds drawn, clamped holds and
    absorptions.
    """
    sel = None
    steps = clamps = absorbed = 0
    first, *rest = jumps.rates
    for e, p in zip(hold, pick):
        if sel is not None:
            e, p = e[sel], p[sel]
        m = cell.size
        steps += m
        cum = [first[cell]]
        for r in rest:
            c = r[cell]
            c += cum[-1]
            cum.append(c)
        total = rate = cum.pop()
        if jumps.held:
            clamps += int(np.count_nonzero(total > _RATE_CAP))
            capped = np.minimum(total, _RATE_CAP)
            rate = np.where(capped > 0, np.maximum(capped, _HOLD_FLOOR), 0.0)
        # a zero rate divides to an infinite (or NaN) hold: the trial times out
        t -= e / rate
        live = t <= jumps.horizon
        # cumulative rates rise along a cell's slots, so the slots before
        # the last that the pick reaches number the slot, capped at 2d - 1
        p = p * total
        slot = (cum[0] <= p).astype(np.intp)
        for c in cum[1:]:
            slot += c <= p
        cell = cell + jumps.offset[slot]
        keep = live & jumps.open[cell]
        n_keep = int(np.count_nonzero(keep))
        if n_keep == m:
            continue
        absorbed += int(np.count_nonzero(live)) - n_keep
        cell, t = cell[keep], t[keep]
        sel = np.flatnonzero(keep) if sel is None else sel[keep]
        if not n_keep:
            break
    return sel, cell, t, steps, clamps, absorbed


def _integral(k) -> int:
    """k as an int; a start index that is not integral is refused, not truncated."""
    try:
        i = int(k)
    except (OverflowError, ValueError):  # inf, nan
        i = None
    if i is None or i != k:
        raise ValueError(f"start index {k!r} is not integral")
    return i


def _start_index(grid, cfg: WalkConfig) -> int:
    """Flat index of the start cell, once cfg passes the checks made on the grid."""
    if cfg.absorb_eps < 2.0 * grid.h:
        raise ValueError("absorb_eps must span at least two cells")
    start = cfg.start
    if np.isscalar(start):
        start = _integral(start)
    else:
        idx = tuple(_integral(k) for k in start)
        # a per-axis start off the grid is flagged -1, refused below like a flat one
        inside = len(idx) == len(grid.dims) and all(0 <= i < n for i, n in zip(idx, grid.dims))
        start = int(np.ravel_multi_index(idx, grid.dims)) if inside else -1
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
    seed = np.uint64(int(cfg.seed) & 0xFFFFFFFFFFFFFFFF)
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
                jumps, cell, t, np.log1p(-u[0]), u[1])
            if sel is not None:
                base = base[sel]
            steps += n_steps
            clamp_events += n_clamps
            absorbed += n_hits

    p_hat = absorbed / n
    stderr = float(np.sqrt(p_hat * (1.0 - p_hat) / n))
    return WalkResult(float(p_hat), stderr, int(absorbed), int(n), int(clamp_events),
                      int(steps), int(rounds))
