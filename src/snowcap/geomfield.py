"""Grids over fractal-boundary domains and exact distance fields.

The domain is carved out of a uniform cell grid by the geometry's domain rule
(polygon interior or box complement). Distances from every cell center to the
realized boundary are exact point-to-segment / point-to-box-boundary values,
so the only geometric error left is the finite realization depth itself.
Boxes that are a product of disjoint per-axis intervals (a Cantor dust) take
a closed form: the squared distance to the nearest box is a sum of per-axis
minima, and the depth inside a box the smallest per-axis depth. Everything
else takes a branch-and-bound over blocks of cells and ranges of primitives,
which drops a range only when its box lies farther from a block than some
boundary point does, plus a rounding margin, so the surviving primitives
always include each cell's nearest one. Its bounds are sums of per-axis
terms, each taken once per axis and offset bit rather than once per child
block, and the exact kernels take per-axis coordinate columns. Both paths
give the same values bitwise. scipy is imported inside the
functions that use it (the regularity and uniformity estimates), so grids,
fields and box-counting run on numpy alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFit,
    Disconnected,
    EmptyDomain,
    EmptyRegion,
    InsufficientSamples,
)
from .simsys import BoundaryGeometry

__all__ = [
    "Grid",
    "DistanceField",
    "ScalingFit",
    "build_grid",
    "distance_field",
    "neighborhood_volume",
    "minkowski_dimension",
    "ahlfors_check",
    "uniformity_estimate",
]


@dataclass(frozen=True)
class Grid:
    """Uniform cell grid: cell (i1,..,id) has center origin + (i + 1/2) h.

    `omega_mask` flags cells whose center lies in the open domain. Flat
    indexing is C-order (last axis fastest), matching numpy defaults.
    """

    origin: np.ndarray
    h: float
    dims: tuple
    omega_mask: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float))
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        if self.omega_mask.shape != self.dims:
            raise ValueError("omega_mask shape must equal dims")
        if self.h <= 0:
            raise ValueError("cell size must be positive")

    @property
    def dim(self) -> int:
        return len(self.dims)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.dims))

    def axis_centers(self, ax: int) -> np.ndarray:
        return self.origin[ax] + (np.arange(self.dims[ax]) + 0.5) * self.h


@dataclass(frozen=True)
class DistanceField:
    """Exact boundary distance at every cell center (masked or not).

    depth_error bounds the Hausdorff gap between the realized and the ideal
    boundary, so |d_ideal - values| <= depth_error cellwise. diameter is the
    boundary's bounding-box diagonal. search summarizes the branch-and-bound
    of `distance_field`: (block, range) pairs bounded, pairs kept and exact
    point-to-primitive evaluations; None for a field built otherwise, such
    as a Cantor dust's closed form.
    """

    grid: Grid
    values: np.ndarray
    depth_error: float
    diameter: float
    search: dict | None = None

    def __post_init__(self):
        if self.values.shape != self.grid.dims:
            raise ValueError("values shape must equal grid dims")


@dataclass(frozen=True)
class ScalingFit:
    """Power-law fit of near-boundary volume against radius.

    For volumes scaling like C r^(d-s) the log-log slope is d - s, and
    `exponent` reports d - slope, i.e. the dimension estimate s itself.
    """

    exponent: float
    prefactor: float
    r_range: tuple
    residual: float


# --- grid construction -------------------------------------------------------


def _polygon_mask(segs: np.ndarray, origin: np.ndarray, h: float, dims: tuple) -> np.ndarray:
    """Even-odd interior test for all cell centers against a segment soup.

    Incidence-based: each edge contributes one x-crossing to every grid row
    whose center ordinate lies in the edge's half-open y-span, then a running
    parity along x marks interior cells. Cost O(cells + crossings).
    """
    nx, ny = dims
    ox, oy = origin
    x1, y1 = segs[:, 0, 0], segs[:, 0, 1]
    x2, y2 = segs[:, 1, 0], segs[:, 1, 1]
    ylo, yhi = np.minimum(y1, y2), np.maximum(y1, y2)
    j0 = np.clip(np.ceil((ylo - oy) / h - 0.5).astype(np.int64), 0, ny)
    j1 = np.clip(np.ceil((yhi - oy) / h - 0.5).astype(np.int64), 0, ny)
    counts = np.maximum(j1 - j0, 0)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(dims, dtype=bool)
    eidx = np.repeat(np.arange(len(segs)), counts)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    rows = np.arange(total) - np.repeat(offsets, counts) + j0[eidx]
    yrow = oy + (rows + 0.5) * h
    t = (yrow - y1[eidx]) / (y2[eidx] - y1[eidx])
    xcross = x1[eidx] + t * (x2[eidx] - x1[eidx])
    # first cell whose center sits right of the crossing
    p = np.floor((xcross - ox) / h + 0.5).astype(np.int64)
    # crossings mod 256: the parity survives the wrap-around
    counts2d = np.zeros((ny, nx + 1), dtype=np.uint8)
    np.add.at(counts2d, (rows, np.clip(p, 0, nx)), 1)
    inside = np.cumsum(counts2d[:, :nx], axis=1, dtype=np.uint8) & 1
    return np.ascontiguousarray(inside.view(bool).T)


def _box_union_mask(boxes: np.ndarray, origin: np.ndarray, h: float, dims: tuple) -> np.ndarray:
    """Cells whose center lies in some closed box."""
    d = len(dims)
    # index range of the centers inside each box, clipped to the grid
    first = np.ceil((boxes[:, 0] - origin) / h - 0.5 - 1e-12).astype(np.int64)
    last = np.floor((boxes[:, 1] - origin) / h - 0.5 + 1e-12).astype(np.int64)
    first, last = np.maximum(first, 0), np.minimum(last, np.array(dims) - 1)
    hit = (first <= last).all(axis=1)
    first, stop = first[hit], last[hit] + 1
    # +-1 at the 2^d corners of each box; the cumulative sums along every
    # axis then count the boxes covering each cell
    count = np.zeros([n + 1 for n in dims], dtype=np.int32)
    for corner in itertools.product((0, 1), repeat=d):
        at = tuple(stop[:, ax] if c else first[:, ax] for ax, c in enumerate(corner))
        np.add.at(count, at, (-1) ** sum(corner))
    for ax in range(d):
        np.cumsum(count, axis=ax, dtype=np.int32, out=count)
    return count[tuple(slice(n) for n in dims)] > 0


def build_grid(geometry: BoundaryGeometry, resolution: int, margin: float = 0.0) -> Grid:
    """Grid the geometry's bounding box (inflated by `margin`) with a uniform
    cell size h = longest_extent / resolution and mask the domain cells.

    resolution >= 8; for complement domains a positive margin widens the
    region outside the unit cell that belongs to the domain.
    """
    if resolution < 8:
        raise ValueError("resolution must be at least 8")
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    lo, hi = geometry.bounds()
    lo, hi = lo - margin, hi + margin
    ext = hi - lo
    h = float(ext.max()) / resolution
    dims = tuple(max(1, int(np.ceil(e / h - 1e-9))) for e in ext)
    if geometry.domain_rule == "interior":
        mask = _polygon_mask(geometry.primitives, lo, h, dims)
    else:
        mask = ~_box_union_mask(geometry.primitives, lo, h, dims)
    if not mask.any():
        raise EmptyDomain("no cell center falls inside the domain")
    return Grid(origin=lo, h=h, dims=dims, omega_mask=mask)


# --- exact distances ---------------------------------------------------------


def _segment_distance(p: list, a: list, b: list) -> np.ndarray:
    """Exact distances from points p to the segments from a to b, each given
    as its two coordinate columns."""
    (px, py), (ax, ay), (bx, by) = p, a, b
    ex, ey = bx - ax, by - ay
    ee = ex * ex + ey * ey
    # a zero-length segment has e = 0, so t = 0 and its foot is a
    t = ((px - ax) * ex + (py - ay) * ey) / np.where(ee > 0, ee, 1.0)
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    dx, dy = px - (ax + t * ex), py - (ay + t * ey)
    return np.sqrt(dx * dx + dy * dy)


def _box_boundary_distance(p: list, lo: list, hi: list) -> np.ndarray:
    """Exact distances from points p to the boundaries of the boxes [lo, hi],
    each given as its d coordinate columns."""
    g = [np.maximum(l - x, x - u) for x, l, u in zip(p, lo, hi)]  # per-axis signed gap
    gmax, out2 = g[0], np.maximum(g[0], 0.0) ** 2
    for ga in g[1:]:
        gmax = np.maximum(gmax, ga)
        out2 += np.maximum(ga, 0.0) ** 2
    # outside: distance to the box; inside: to its nearest face
    return np.where(gmax > 0, np.sqrt(out2), -gmax)


# most (cell block, primitive range) pairs one step produces; bounds peak memory
_BATCH = 1 << 16


def _range_levels(geometry: BoundaryGeometry):
    """Boxes and boundary points for ranges of consecutive primitives.

    Level m groups `fan`**m consecutive primitives, fan being the number of
    maps when the geometry came from a system: realizations list primitives
    by IFS word, so a range is then one subtree with a tight box. Boxes come
    from the primitives themselves, so any order is valid, only slower. Each
    range also keeps one point of the realized boundary (a segment endpoint
    or a box corner) for upper bounds. Per level and axis the arrays are
    (lo, hi, point), each padded with one +inf entry that stands for the
    missing children of the last range.
    """
    prims = geometry.primitives
    if geometry.kind == "segments":
        lo, hi = np.minimum(prims[:, 0], prims[:, 1]), np.maximum(prims[:, 0], prims[:, 1])
    else:
        lo, hi = prims[:, 0], prims[:, 1]
    point = prims[:, 0]
    fan = max(2, len(geometry.system.maps)) if geometry.system is not None else 4
    levels = []
    while True:
        levels.append(
            [[np.append(a[:, ax], np.inf) for ax in range(geometry.dim)] for a in (lo, hi, point)]
        )
        if len(lo) == 1:
            return fan, levels
        starts = np.arange(0, len(lo), fan)
        mid = np.minimum(starts + fan // 2, len(lo) - 1)
        lo, hi = np.minimum.reduceat(lo, starts), np.maximum.reduceat(hi, starts)
        point = point[mid]


def _survivors(blocks, ranges, slack, lev, lev2, blk, kid):
    """The pruning test for the children of a batch of (block, range) pairs:
    a mask over (offset, pair, kid), the order in which children are pushed,
    and the flat index of each (offset, pair)'s child block.

    blocks holds per level the block counts and the per-axis lo and hi of the
    blocks' boxes of cell centres; ranges holds the child level's per-axis
    (lo, hi, point) range columns. The blocks blk are refined to level lev2;
    kid holds the child ranges by (kid, pair), so that arrays broadcast along
    the long pair axis. Pairs arrive grouped by block: for one offset the
    children of a group share one child block and one upper bound. Along axis
    ax a child block depends only on bit ax of its offset, so its squared gap
    (lower bound), squared far distance (upper bound) and index are taken
    once per bit and broadcast over the 2^d offsets, summed in axis order.
    """
    n_blocks, block_lo, block_hi = blocks
    coords = np.unravel_index(blk, n_blocks[lev])
    d, bits, shape = len(coords), 2 if lev2 < lev else 1, kid.shape
    lb2, ub2 = np.zeros((2,) + (bits,) * d + shape)
    child = 0
    for ax in range(d):
        cc = coords[ax] * bits + np.arange(bits)[:, None]
        lo, hi = block_lo[lev2][ax][cc][:, None], block_hi[lev2][ax][cc][:, None]
        rlo, rhi, rpt = (a[ax][kid] for a in ranges)
        gap = np.maximum(np.maximum(rlo - hi, lo - rhi), 0.0)
        if lev2:
            far = np.maximum(np.abs(rpt - lo), np.abs(rpt - hi))
        else:  # a single cell: its box is its centre
            far = rpt - lo
        at = [bits if k == ax else 1 for k in range(d)]
        lb2 += (gap * gap).reshape(at + list(shape))
        ub2 += (far * far).reshape(at + list(shape))
        child = child * n_blocks[lev2][ax] + cc.reshape(at + [len(blk)])
    lb2, ub = lb2.reshape((-1,) + shape), ub2.reshape((-1,) + shape).min(axis=1)
    change = blk[1:] != blk[:-1]
    starts = np.flatnonzero(np.concatenate(([True], change)))
    group = np.concatenate(([0], np.cumsum(change)))
    bound = np.sqrt(np.minimum.reduceat(ub, starts, axis=1)) + slack
    keep = np.empty((len(lb2), shape[1], shape[0]), bool)
    np.less_equal(lb2, (bound * bound)[:, None, group], out=keep.transpose(0, 2, 1))
    return keep, child.reshape(-1)


def _branch_and_bound(geometry: BoundaryGeometry, grid: Grid):
    """(values, search): the minimum over all primitives of the exact
    point-to-segment or point-to-box-boundary distance at every cell centre,
    found by branch-and-bound, and the search's counters.

    Two hierarchies are refined level by level: blocks of 2^l cells per
    side, and ranges of consecutive primitives (see `_range_levels`). A
    (block, range) pair carries a lower bound, the distance between the
    block's box of cell centers and the range's box, and an upper bound for
    the whole block, the farthest distance from the block to a boundary
    point the range holds. Every cell of the block lies within the block's
    smallest upper bound of the boundary, so a range whose lower bound
    exceeds it by more than rounding error holds no nearest primitive of any
    cell in the block and is dropped. Surviving pairs split into child
    blocks and child ranges; for single cells and single primitives that
    survive, the exact distance is evaluated and the minimum kept, which is
    the minimum over all primitives. Pairs are expanded depth first in
    batches of bounded size; `_survivors` bounds all children of a batch at
    once. `search` counts the pairs bounded and kept and the exact
    evaluations.
    """
    prims = geometry.primitives
    exact = _segment_distance if geometry.kind == "segments" else _box_boundary_distance
    fan, ranges = _range_levels(geometry)
    d, h = grid.dim, grid.h
    dims = np.array(grid.dims)
    centers = [grid.axis_centers(ax) for ax in range(d)]
    top = int(np.ceil(np.log2(dims.max())))
    n_blocks, block_lo, block_hi = [], [], []
    for lev in range(top + 1):
        nb = -(-dims // 2**lev)
        first = [np.arange(nb[ax]) * 2**lev for ax in range(d)]
        last = [np.minimum(first[ax] + 2**lev, dims[ax]) - 1 for ax in range(d)]
        n_blocks.append(nb)
        # a NaN entry stands for child blocks past the grid: no pair survives
        block_lo.append([np.append(centers[ax][first[ax]], np.nan) for ax in range(d)])
        block_hi.append([np.append(centers[ax][last[ax]], np.nan) for ax in range(d)])
    block_diam = [(min(2**lev, dims.max()) - 1) * h * np.sqrt(d) for lev in range(top + 1)]
    range_diam = [
        float(np.median(np.sqrt(sum((hi[ax][:-1] - lo[ax][:-1]) ** 2 for ax in range(d)))))
        for lo, hi, _ in ranges
    ]
    # rounding margin on the bounds, relative to the largest coordinate in
    # play; the top range's box is the boundary's bounding box
    reach = max(abs(a[ax][0]) for a in ranges[-1][:2] for ax in range(d))
    extent = max(reach, np.abs(grid.origin).max() + dims.max() * h)
    slack = 1e-12 * max(1.0, float(extent))
    blocks = (n_blocks, block_lo, block_hi)

    values = np.full(grid.n_cells, np.inf)
    n_bound = n_kept = n_exact = 0
    stack = [(top, len(ranges) - 1, np.zeros(1, np.int64), np.zeros(1, np.int64))]
    while stack:
        lev, m, blk, rng = stack.pop()
        # refine the coarser side, or both when their sizes are within 2x
        split_cells = lev > 0 and (m == 0 or block_diam[lev] >= 0.5 * range_diam[m])
        split_prims = m > 0 and (lev == 0 or range_diam[m] >= 0.5 * block_diam[lev])
        kids_j = fan if split_prims else 1
        cap = max(1, _BATCH // ((1 + split_cells) ** d * kids_j))
        if len(blk) > cap:
            for s in range(0, len(blk), cap):
                stack.append((lev, m, blk[s : s + cap], rng[s : s + cap]))
            continue
        lev2, m2 = lev - split_cells, m - split_prims
        leaf = lev2 == 0 and m2 == 0

        # child ranges by kid, then pair; past the end of a level: the inf pad
        kid = np.minimum(rng * kids_j + np.arange(kids_j)[:, None], len(ranges[m2][0][0]) - 1)
        keep, child = _survivors(blocks, ranges[m2], slack, lev, lev2, blk, kid)
        hit = np.flatnonzero(keep)
        q = hit // kids_j  # offset * pairs + pair
        child, kept = child[q], kid[hit - q * kids_j, q % len(blk)]
        n_bound, n_kept = n_bound + keep.size, n_kept + len(kept)
        if leaf:
            pts = [centers[ax][i] for ax, i in enumerate(np.unravel_index(child, grid.dims))]
            ends = [[prims[kept, end, ax] for ax in range(d)] for end in (0, 1)]
            np.minimum.at(values, child, exact(pts, *ends))
            n_exact += len(kept)
        elif len(kept):
            stack.append((lev2, m2, child, kept))

    search = {"bound_pairs": n_bound, "kept_pairs": n_kept, "exact": n_exact}
    return values.reshape(grid.dims), search


def _product_axes(geometry: BoundaryGeometry):
    """Per axis the sorted (lo, hi) columns of the intervals whose products
    are the geometry's boxes, or None when the boxes are not such a product.

    The boxes form one when, along every axis, their (lo, hi) pairs are a
    few intervals that are strictly disjoint, and every combination of one
    interval per axis is exactly one box: a Cantor dust, not a Vicsek cross,
    whose central cube's intervals touch the corner cubes' ones.
    """
    if geometry.kind != "boxes":
        return None
    prims = geometry.primitives
    axes, counts, index = [], [], []
    for ax in range(geometry.dim):
        lo, at = np.unique(prims[:, 0, ax], return_inverse=True)
        hi = np.empty_like(lo)
        hi[at] = prims[:, 1, ax]
        # one hi per lo, lo <= hi, and a gap before the next interval
        if not (np.array_equal(hi[at], prims[:, 1, ax]) and (lo <= hi).all()
                and (hi[:-1] < lo[1:]).all()):
            return None
        axes.append((lo, hi))
        counts.append(len(lo))
        index.append(at)
    n = len(prims)
    if n != np.prod(counts) or len(np.unique(np.ravel_multi_index(index, counts))) != n:
        return None
    return axes


def _product_distances(axes: list, grid: Grid) -> np.ndarray:
    """The distance field of a product box set, from per-axis terms.

    Along each axis the gap g = max(lo - x, x - hi) to an interval is
    smallest for the interval at or left of the centre x or the one right of
    it. Outside every box the squared distance to the nearest box is the
    sum over axes of the smallest max(g, 0)^2; inside one, the distance to
    its nearest face is -max over axes of g. These are the operations of
    `_box_boundary_distance`, in the same order and on monotone roundings,
    so the field equals the minimum over all boxes bitwise. The result is
    the only grid-sized array.
    """
    d = grid.dim
    near2, inner = [], []
    for ax, (lo, hi) in enumerate(axes):
        x = grid.axis_centers(ax)
        # an infinite interval on each side stands for a missing neighbour
        lo = np.concatenate(([-np.inf], lo, [np.inf]))
        hi = np.concatenate(([-np.inf], hi, [np.inf]))
        left = np.searchsorted(lo, x, side="right") - 1
        g_left, g_right = (np.maximum(lo[k] - x, x - hi[k]) for k in (left, left + 1))
        near2.append(np.minimum(np.maximum(g_left, 0.0) ** 2, np.maximum(g_right, 0.0) ** 2))
        inner.append(g_left)

    def along(a, ax):
        return a.reshape([-1 if k == ax else 1 for k in range(d)])

    values = np.empty(grid.dims)
    values[...] = along(near2[0], 0)
    for ax in range(1, d):
        values += along(near2[ax], ax)
    np.sqrt(values, out=values)
    # the cells inside a box: inside an interval along every axis
    cells = [np.flatnonzero(g <= 0) for g in inner]
    if all(len(c) for c in cells):
        gmax = along(inner[0][cells[0]], 0)
        for ax in range(1, d):
            gmax = np.maximum(gmax, along(inner[ax][cells[ax]], ax))
        values[np.ix_(*cells)] = -gmax
    return values


def distance_field(geometry: BoundaryGeometry, grid: Grid) -> DistanceField:
    """Exact distance from every cell center to the realized boundary.

    A box set that is a product of per-axis intervals (`_product_axes`: a
    Cantor dust) takes the closed form `_product_distances`, whose squared
    distance splits into per-axis terms. Segments and other box sets take
    the branch-and-bound `_branch_and_bound`, and the field's `search`
    holds its counters; the closed form leaves it None. Both give the
    minimum over all primitives of the exact point-to-segment or
    point-to-box-boundary distance, bitwise.
    """
    axes = _product_axes(geometry)
    if axes is None:
        values, search = _branch_and_bound(geometry, grid)
    else:
        values, search = _product_distances(axes, grid), None
    return DistanceField(
        grid=grid,
        values=values,
        depth_error=geometry.approx_error,
        diameter=geometry.diameter,
        search=search,
    )


def _ball(grid: Grid, z, r: float) -> tuple:
    """(box, ball): per axis the slice of the cells within r of z, a point
    with one coordinate per grid axis, and on that box the mask of the domain
    cells whose centre lies strictly within r of z."""
    d = grid.dim
    z = np.asarray(z, dtype=float)
    if z.shape != (d,):
        raise ValueError(f"z must have {d} coordinates")
    # a cell within r of z lies within r of it along each axis, so the
    # per-axis squared offsets are summed in axis order on that box alone
    box, sq = [], 0
    for ax in range(d):
        off = (grid.axis_centers(ax) - z[ax]) ** 2
        near = np.flatnonzero(np.sqrt(off) < r)  # none for a NaN r or z[ax]
        box.append(slice(near[0], near[-1] + 1) if len(near) else slice(0))
        sq = sq + off[box[-1]].reshape([-1 if k == ax else 1 for k in range(d)])
    ball = grid.omega_mask[tuple(box)] & (np.sqrt(sq, out=sq) < r)
    if not ball.any():
        raise EmptyRegion(f"no in-domain cell within {r} of z")
    return tuple(box), ball


# --- scaling of near-boundary volume ------------------------------------------


def neighborhood_volume(field: DistanceField, r) -> float:
    """Lebesgue volume of the in-domain cells within distance r of the boundary."""
    vals = field.values[field.grid.omega_mask]
    hd = field.grid.h ** field.grid.dim
    if np.ndim(r) == 0:
        return float(hd * np.count_nonzero(vals < r))
    return np.array([hd * np.count_nonzero(vals < ri) for ri in np.asarray(r)])


def minkowski_dimension(
    field: DistanceField,
    r_min: float | None = None,
    r_max: float | None = None,
    n_points: int = 8,
) -> ScalingFit:
    """Box-counting dimension estimate from |{d < r}| ~ C r^(d - s).

    Radii are geometric in [r_min, r_max] (defaults 4h and diameter/8);
    requires r_min >= 4h so shells are resolved and r_max <= diameter/4 so
    shells stay local. The fitted log-log slope of volume against radius
    gives the reported exponent d - slope.
    """
    h, d = field.grid.h, field.grid.dim
    if r_min is None:
        r_min = 4.0 * h
    if r_max is None:
        r_max = field.diameter / 8.0
    if not 4.0 * h <= r_min < r_max:
        raise ValueError("need 4h <= r_min < r_max")
    if r_max > field.diameter / 4.0 + 1e-12:
        raise ValueError("r_max exceeds a quarter of the boundary diameter")
    if n_points < 4:
        raise ValueError("need at least four radii")
    radii = np.geomspace(r_min, r_max, n_points)
    vols = neighborhood_volume(field, radii)
    if (vols <= 0).any():
        raise DegenerateFit("empty neighborhood at the smallest radius")
    lv, lr = np.log(vols), np.log(radii)
    if np.ptp(lv) < 1e-12:
        raise DegenerateFit("volumes do not vary over the radius range")
    slope, intercept = np.polyfit(lr, lv, 1)
    resid = float(np.sqrt(np.mean((lv - (slope * lr + intercept)) ** 2)))
    return ScalingFit(
        exponent=float(d - slope),
        prefactor=float(np.exp(intercept)),
        r_range=(float(r_min), float(r_max)),
        residual=resid,
    )


# --- measure regularity -------------------------------------------------------


def ahlfors_check(
    geometry: BoundaryGeometry,
    s: float,
    n_centers: int = 200,
    r_range=(0.01, 0.2),
    radii_per_center: int = 4,
    seed: int = 0,
):
    """Sampled regularity constants of the natural self-similar measure.

    Pieces at the realization depth carry mass proportional to scale^s; ball
    masses mu(B(x, r)) for centers drawn from the measure and geometric radii
    give ratios mu(B)/r^s, returned as (c_lo, c_hi). Raises
    InsufficientSamples when the realization is too coarse for r_range[0].
    """
    prims = geometry.primitives
    reps = 0.5 * (prims[:, 0] + prims[:, 1])
    scale = np.linalg.norm(prims[:, 1] - prims[:, 0], axis=1)
    if geometry.kind == "boxes":
        scale /= np.sqrt(geometry.dim)  # a box's scale is its side, not its diagonal
    r_lo, r_hi = float(r_range[0]), float(r_range[1])
    if not 0 < r_lo < r_hi:
        raise ValueError("need 0 < r_lo < r_hi")
    masses = scale**s
    masses = masses / masses.sum()
    rng = np.random.default_rng(seed)
    centers = reps[rng.choice(len(reps), size=n_centers, p=masses)]
    radii = np.geomspace(r_lo, r_hi, radii_per_center)
    from scipy.spatial import cKDTree

    tree = cKDTree(reps)
    ratios = []
    for x in centers:
        for r in radii:
            mu = float(masses[tree.query_ball_point(x, r)].sum())
            if mu == 0.0:
                raise InsufficientSamples(
                    f"ball of radius {r:.3g} contains no boundary sample"
                )
            ratios.append(mu / r**s)
    return float(min(ratios)), float(max(ratios))


def uniformity_estimate(
    field: DistanceField,
    z,
    R: float,
    n_pairs: int = 16,
    seed: int = 0,
    sigma_max: float = 64.0,
) -> float:
    """Smallest cigar constant sigma joining sampled cell pairs near z.

    For a pair (x, y), a lattice path (kings moves on in-domain cells strictly
    within R of z) is admissible at level sigma when every visited cell w
    keeps sigma * d(w) >= min(|w-x|, |w-y|) and the path length is at most
    sigma * |x-y|. Bisection over sigma per pair; the maximum over pairs is
    returned, saturated at sigma_max. Raises Disconnected when a sampled pair
    has no path at all inside the region. The graph, centres and distances
    cover only the ball's cells, read on its bounding box, so the work is
    sized by the ball, not the grid.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    grid = field.grid
    box, ball = _ball(grid, z, R)
    cells = np.nonzero(ball)
    n = len(cells[0])
    if n < 2:
        raise EmptyRegion("fewer than two cells near z")
    # node k is the ball's k-th cell in C order
    node = np.cumsum(ball).reshape(ball.shape) - 1

    rows, cols, wts = [], [], []
    for off in itertools.product((-1, 0, 1), repeat=grid.dim):
        if not any(off):
            continue
        src = tuple(slice(max(0, -o), m - max(0, o)) for o, m in zip(off, ball.shape))
        dst = tuple(slice(max(0, o), m - max(0, -o)) for o, m in zip(off, ball.shape))
        ok = ball[src] & ball[dst]
        rows.append(node[src][ok])
        cols.append(node[dst][ok])
        wts.append(np.full(len(rows[-1]), grid.h * float(np.linalg.norm(off))))
    graph = csr_matrix((np.concatenate(wts), (np.concatenate(rows), np.concatenate(cols))),
                       shape=(n, n))

    pts = np.stack([grid.axis_centers(ax)[box[ax]][k] for ax, k in enumerate(cells)], axis=1)
    dvals = field.values[box][ball]
    rng = np.random.default_rng(seed)
    sigma_est = 1.0

    def feasible(xi, yi, sigma):
        lam = np.minimum(
            np.linalg.norm(pts - pts[xi], axis=1), np.linalg.norm(pts - pts[yi], axis=1)
        )
        allowed = sigma * np.maximum(dvals, 1e-300) >= lam
        allowed[[xi, yi]] = True
        sub = np.flatnonzero(allowed)
        pos = -np.ones(n, dtype=np.int64)
        pos[sub] = np.arange(len(sub))
        g = graph[sub][:, sub]
        dd = dijkstra(g, directed=False, indices=pos[xi])
        gap = np.linalg.norm(pts[xi] - pts[yi])
        return np.isfinite(dd[pos[yi]]) and dd[pos[yi]] <= sigma * gap + 1e-12

    for _ in range(n_pairs):
        xi, yi = rng.choice(n, size=2, replace=False)
        if not feasible(xi, yi, sigma_max):
            dd = dijkstra(graph, directed=False, indices=xi)
            if not np.isfinite(dd[yi]):
                raise Disconnected("sampled cells are not joined inside the region")
            sigma_est = float(sigma_max)
            continue
        lo, hi = 1.0, float(sigma_max)
        if feasible(xi, yi, lo):
            hi = lo
        else:
            for _ in range(24):
                mid = np.sqrt(lo * hi)
                if feasible(xi, yi, mid):
                    hi = mid
                else:
                    lo = mid
                if hi / lo < 1.02:
                    break
        sigma_est = max(sigma_est, hi)
    return float(sigma_est)
