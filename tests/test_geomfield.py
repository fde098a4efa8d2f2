"""Grids, masks, exact distance fields, and scaling estimators."""

import hashlib

import numpy as np
import pytest

from snowcap import (
    BoundaryGeometry,
    DegenerateFit,
    Disconnected,
    DistanceField,
    EmptyDomain,
    Grid,
    ahlfors_check,
    build_grid,
    cantor_dust,
    distance_field,
    koch_snowflake,
    minkowski_dimension,
    neighborhood_volume,
    uniformity_estimate,
    vicsek,
)
from snowcap.geomfield import (
    _box_boundary_distance,
    _box_union_mask,
    _branch_and_bound,
    _product_axes,
    _product_distances,
    _segment_distance,
)

SQRT3 = np.sqrt(3.0)


def square_polygon(side=1.0):
    c = side
    segs = np.array(
        [
            [[0.0, 0.0], [c, 0.0]],
            [[c, 0.0], [c, c]],
            [[c, c], [0.0, c]],
            [[0.0, c], [0.0, 0.0]],
        ]
    )
    return BoundaryGeometry(2, "segments", segs, 0, 0.0)


def segment_geometry(segs):
    return BoundaryGeometry(2, "segments", np.asarray(segs, float), 0, 0.0)


def koch_area(lam_depth):
    # finite-depth area of the lam = 1/3 snowflake: each round glues
    # 3 * 4^(k-1) triangles of side 3^-k onto the unit triangle
    k = lam_depth
    return SQRT3 / 4.0 * (1.0 + 0.6 * (1.0 - (4.0 / 9.0) ** k))


@pytest.fixture(scope="module")
def koch256():
    geom = koch_snowflake(1 / 3, 4)
    grid = build_grid(geom, 256)
    return geom, distance_field(geom, grid)


# --- masking -------------------------------------------------------------------


def test_unit_square_mask():
    grid = build_grid(square_polygon(), 8)
    assert grid.dims == (8, 8)
    assert grid.omega_mask.all()  # every center is strictly inside
    assert grid.omega_mask[3:5, 3:5].all()
    assert abs(grid.h - 1 / 8) < 1e-15
    with pytest.raises(ValueError):
        build_grid(square_polygon(), 4)


def test_koch_mask_area():
    geom = koch_snowflake(1 / 3, 5)
    grid = build_grid(geom, 1024)
    area = grid.omega_mask.sum() * grid.h**2
    assert abs(area - koch_area(5)) / koch_area(5) < 0.01


def test_cantor_mask_area_deficit():
    geom = cantor_dust(1 / 4, 2, 4)
    grid = build_grid(geom, 512, margin=0.25)
    area = grid.omega_mask.sum() * grid.h**2
    total = grid.n_cells * grid.h**2
    deficit = total - area
    exact = 4.0**-4  # 256 boxes of area (1/256)^2
    perimeter = 256 * 4 * (1 / 256)  # center-test quantization scales with it
    assert abs(total - 1.5**2) < 2 * grid.h  # grid covers the inflated box
    assert abs(deficit - exact) <= perimeter * grid.h
    assert area >= 1.5**2 - exact - perimeter * grid.h


def box_union_by_loop(boxes, origin, h, dims):
    # one box at a time: the index range of the centers inside it, clipped
    hit = np.zeros(dims, dtype=bool)
    for lo, hi in boxes:
        sl = []
        for ax in range(len(dims)):
            i0 = int(np.ceil((lo[ax] - origin[ax]) / h - 0.5 - 1e-12))
            i1 = int(np.floor((hi[ax] - origin[ax]) / h - 0.5 + 1e-12))
            i0, i1 = max(i0, 0), min(i1, dims[ax] - 1)
            if i1 < i0:
                break
            sl.append(slice(i0, i1 + 1))
        else:
            hit[tuple(sl)] = True
    return hit


@pytest.mark.parametrize("dim,depth,res", [(1, 6, 1000), (2, 4, 200), (3, 2, 40)])
def test_box_union_mask_matches_per_box_loop(dim, depth, res):
    rng = np.random.default_rng(dim)
    origin, h, dims = np.full(dim, -0.25), 1.5 / res, (res,) * dim
    lo = rng.uniform(-0.5, 1.3, (60, dim))
    cases = {
        "cantor": cantor_dust(1 / 4, dim, depth).primitives,
        "overlapping, past the grid": np.stack([lo, lo + rng.uniform(0, 0.4, (60, dim))], 1),
        "faces on centers 2 and 4": origin + h * np.array([[[2.5] * dim, [4.5] * dim]]),
        "between two centers": origin + h * np.array([[[2.6] * dim, [2.9] * dim]]),
    }
    for name, boxes in cases.items():
        want = box_union_by_loop(boxes, origin, h, dims)
        assert np.array_equal(_box_union_mask(boxes, origin, h, dims), want), name
    assert box_union_by_loop(cases["faces on centers 2 and 4"], origin, h, dims).sum() == 3**dim
    assert not box_union_by_loop(cases["between two centers"], origin, h, dims).any()


def test_empty_domain():
    # one box covering the whole gridded region leaves nothing outside
    box = np.array([[[-1.0, -1.0], [2.0, 2.0]]])
    geom = BoundaryGeometry(2, "boxes", box, 0, 0.0)
    with pytest.raises(EmptyDomain):
        build_grid(geom, 8)


# --- exact distances -----------------------------------------------------------


def test_distance_single_segment():
    geom = segment_geometry([[[0.0, 0.0], [1.0, 0.0]]])
    grid = Grid(np.zeros(2), 0.2, (10, 5), np.ones((10, 5), bool))
    df = distance_field(geom, grid)
    assert abs(df.values[2, 1] - 0.3) < 1e-15  # center (0.5, 0.3), foot on the segment
    assert abs(df.values[6, 1] - np.hypot(0.3, 0.3)) < 1e-15  # center (1.3, 0.3), endpoint
    assert (df.values >= 0).all()


def test_distance_unit_box_interior():
    box = np.array([[[0.0, 0.0], [1.0, 1.0]]])
    geom = BoundaryGeometry(2, "boxes", box, 0, 0.0)
    grid = Grid(np.zeros(2), 1 / 3, (3, 3), np.ones((3, 3), bool))
    df = distance_field(geom, grid)
    assert abs(df.values[1, 1] - 0.5) < 1e-15  # box center to the nearest face
    assert abs(df.values[0, 0] - 1 / 6) < 1e-15  # interior cell near the corner


def segment_oracle(pts, a, b):
    # nearest point of each segment: an endpoint, or the foot of the
    # perpendicular when it falls inside (cross product over the length)
    e = b - a
    length = np.hypot(e[..., 0], e[..., 1])
    t = np.sum((pts - a) * e, axis=-1)
    cross = np.abs(e[..., 0] * (pts - a)[..., 1] - e[..., 1] * (pts - a)[..., 0])
    to_a = np.hypot(*(pts - a).T)
    to_b = np.hypot(*(pts - b).T)
    foot = np.divide(cross, length, out=np.zeros_like(cross), where=length > 0)
    return np.where(t <= 0, to_a, np.where(t >= length**2, to_b, foot))


def box_oracle(pts, lo, hi):
    # outside: distance to the nearest point of the box; inside: to the
    # nearest face
    near = np.clip(pts, lo, hi)
    outside = np.sqrt(np.sum((pts - near) ** 2, axis=-1))
    inside = np.minimum(pts - lo, hi - pts).min(axis=-1)
    return np.where((near != pts).any(axis=-1), outside, inside)


def _bruteforce(geom, pts):
    oracle = segment_oracle if geom.kind == "segments" else box_oracle
    return np.min([oracle(pts, p[0], p[1]) for p in geom.primitives], axis=0)


def test_exact_kernels_match_oracles():
    # random pairs, with zero-length segments, points on segment ends, points
    # inside boxes and on their faces, and boxes in 1, 2 and 3 dimensions
    rng = np.random.default_rng(11)
    m = 4000
    pts, a, b = rng.uniform(-0.5, 1.5, (3, m, 2))
    b[::5] = a[::5]
    pts[1::7] = a[1::7]
    got = _segment_distance(list(pts.T), list(a.T), list(b.T))
    assert np.allclose(got, segment_oracle(pts, a, b), rtol=1e-12, atol=1e-15)
    for d in (1, 2, 3):
        lo = rng.uniform(0, 1, (m, d))
        hi = lo + rng.uniform(0, 0.5, (m, d))
        pts = rng.uniform(-0.5, 2.0, (m, d))
        pts[::3] = lo[::3] + rng.random((len(pts[::3]), d)) * (hi - lo)[::3]
        pts[1::11, 0] = hi[1::11, 0]
        got = _box_boundary_distance(list(pts.T), list(lo.T), list(hi.T))
        assert np.allclose(got, box_oracle(pts, lo, hi), rtol=1e-12, atol=1e-15), d
        assert (np.abs(got[::3]) <= (hi - lo)[::3].min(axis=1) / 2).all()


def test_distance_matches_bruteforce_segments(centers):
    # random segments in arbitrary order, then a Koch realization whose
    # 768 segments span several range levels and leave far-field cells deep
    # inside the curve
    rng = np.random.default_rng(7)
    segs = rng.random((20, 2, 2))
    random_grid = Grid(np.array([-0.2, -0.2]), 1.4 / 32, (32, 32), np.ones((32, 32), bool))
    koch = koch_snowflake(1 / 4, 4)
    cases = [(segment_geometry(segs), random_grid), (koch, build_grid(koch, 64))]
    for geom, grid in cases:
        df = distance_field(geom, grid)
        assert np.abs(df.values.ravel() - _bruteforce(geom, centers(grid))).max() < 1e-12


def test_distance_matches_bruteforce_boxes(centers):
    # planar, spatial and linear dusts and crosses, with cells inside boxes
    # and far outside them
    cases = [
        (cantor_dust(1 / 4, 2, 2), 32, 0.3),
        (vicsek(1 / 3, 3, 2), 24, 0.2),
        (cantor_dust(1 / 4, 3, 2), 20, 0.3),
        (cantor_dust(1 / 4, 1, 5), 200, 0.3),
    ]
    for geom, res, margin in cases:
        grid = build_grid(geom, res, margin=margin)
        df = distance_field(geom, grid)
        assert np.abs(df.values.ravel() - _bruteforce(geom, centers(grid))).max() < 1e-12


@pytest.mark.parametrize(
    "make,res,margin,digest,search",
    [
        (lambda: koch_snowflake(1 / 4, 4), 64, 0.0,
         "1ee772eb0581d9b242b22004fd52d5ec1ad3af7635d5fd8fd0da337ff91bd77b", (124088, 19006, 8679)),
        # a dust takes the closed form, which runs no search
        (lambda: cantor_dust(1 / 4, 3, 2), 20, 0.3,
         "a58c599320090b2ee1a9ca489b674fcaf525a9ec9be5db4435cf5a09a087a5e9", None),
        (lambda: vicsek(1 / 3, 3, 2), 24, 0.2,
         "1a4f33e96e26192b6132b5ad3aa8e0d29d1bbac723356b11917ff2b12fda47e3", (117936, 47616, 34651)),
    ],
    ids=["koch", "cantor-3d", "vicsek-3d"],
)
def test_distance_field_is_pinned(make, res, margin, digest, search):
    # record values and the benchmark's reference numbers rest on fields that
    # are bitwise stable, and the search counters on unchanged pruning
    geom = make()
    df = distance_field(geom, build_grid(geom, res, margin=margin))
    assert hashlib.sha256(df.values.tobytes()).hexdigest() == digest
    if search is None:
        assert df.search is None
    else:
        assert df.search == dict(zip(["bound_pairs", "kept_pairs", "exact"], search))


@pytest.mark.parametrize(
    "dim,lam,depth,res,margin",
    [
        (1, 0.25, 9, 4096, 0.0),
        *[(2, lam, 4, 128, margin) for lam in (0.1, 0.25, 0.45) for margin in (0.0, 0.3)],
        (2, 0.25, 0, 32, 0.5),
        (3, 0.25, 3, 64, 0.3),
        (3, 0.45, 3, 48, 0.3),
    ],
)
def test_dust_closed_form_matches_branch_and_bound(dim, lam, depth, res, margin):
    # bitwise, on cells far outside, between and inside the boxes, and on
    # their faces, where both give -0.0
    geom = cantor_dust(lam, dim, depth)
    grid = build_grid(geom, res, margin=margin)
    axes = _product_axes(geom)
    assert axes is not None and [len(lo) for lo, _ in axes] == [2**depth] * dim
    want, search = _branch_and_bound(geom, grid)
    assert isinstance(search, dict)
    assert _product_distances(axes, grid).tobytes() == want.tobytes()
    assert distance_field(geom, grid).search is None


def _boxes(boxes):
    return BoundaryGeometry(2, "boxes", np.asarray(boxes, float), 0, 0.0)


@pytest.mark.parametrize(
    "make,res",
    [
        (lambda: vicsek(1 / 3, 2, 3), 48),
        (lambda: vicsek(1 / 3, 3, 2), 24),
        # a dust with one box removed: too few boxes for the product
        (lambda: _boxes(cantor_dust(1 / 4, 2, 2).primitives[1:]), 32),
        # every combination of two overlapping intervals per axis
        (lambda: _boxes([[[a, b], [a + 0.5, b + 0.5]] for a in (0.0, 0.4) for b in (0.0, 0.4)]),
         32),
    ],
    ids=["vicsek-2d", "vicsek-3d", "dust-less-one", "overlapping"],
)
def test_non_product_boxes_take_the_search(make, res):
    geom = make()
    assert _product_axes(geom) is None
    df = distance_field(geom, build_grid(geom, res, margin=0.2))
    assert isinstance(df.search, dict)


def test_distance_lipschitz_and_bounds(koch256):
    _, df = koch256
    v, h = df.values, df.grid.h
    assert (np.abs(np.diff(v, axis=0)) <= h + 1e-12).all()
    assert (np.abs(np.diff(v, axis=1)) <= h + 1e-12).all()
    lo, hi = df.grid.origin, df.grid.origin + np.array(df.grid.dims) * h
    assert v.max() <= np.linalg.norm(hi - lo)
    assert v.min() >= 0.0


def test_distance_refinement_stability():
    # deeper realizations move the boundary by less than the error budget
    geom3 = koch_snowflake(1 / 3, 3)
    geom5 = koch_snowflake(1 / 3, 5)
    grid = build_grid(geom3, 128)
    d3 = distance_field(geom3, grid).values
    d5 = distance_field(geom5, grid).values
    gap = np.abs(d3 - d5).max()
    assert gap <= geom3.approx_error - geom5.approx_error + 1e-12


def test_distance_refinement_stability_boxes():
    geom2 = vicsek(0.3, 2, 2)
    geom3 = vicsek(0.3, 2, 3)
    grid = build_grid(geom2, 64, margin=0.2)
    d2 = distance_field(geom2, grid).values
    d3 = distance_field(geom3, grid).values
    assert np.abs(d2 - d3).max() <= geom2.approx_error - geom3.approx_error + 1e-12


# --- volume scaling ------------------------------------------------------------


def test_neighborhood_volume_monotone(koch256):
    _, df = koch256
    rs = np.linspace(1e-6, 0.5, 20)
    vols = neighborhood_volume(df, rs)
    assert (np.diff(vols) >= 0).all()
    tiny = df.values[df.grid.omega_mask].min() * 0.5
    assert neighborhood_volume(df, max(tiny, 1e-12)) == 0.0
    # a 0-d array is a single radius too
    assert neighborhood_volume(df, np.array(0.1)) == neighborhood_volume(df, 0.1) > 0


def test_tube_volume_straight_segment():
    # upper half-neighborhood of a unit segment: |{d < r}| = r, slope 1
    geom = segment_geometry([[[0.0, 0.0], [1.0, 0.0]]])
    n = 512
    grid = Grid(np.zeros(2), 1.0 / n, (n, n // 2), np.ones((n, n // 2), bool))
    df = distance_field(geom, grid)
    h = grid.h
    r = 64 * h
    assert abs(neighborhood_volume(df, r) - r) < 2 * h
    fit = minkowski_dimension(df, 4 * h, 64 * h, 8)
    assert abs(fit.exponent - 1.0) < 0.05
    assert fit.residual < 0.05


def test_minkowski_random_segment_soup():
    rng = np.random.default_rng(3)
    segs = rng.random((5, 2, 2))
    geom = segment_geometry(segs)
    n = 2048
    grid = Grid(np.array([-0.5, -0.5]), 2.0 / n, (n, n), np.ones((n, n), bool))
    df = distance_field(geom, grid)
    df = DistanceField(df.grid, df.values, df.depth_error, diameter=2.0 * np.sqrt(2))
    fit = minkowski_dimension(df, 4 * grid.h, 2.0 * np.sqrt(2) / 8.0, 8)
    assert abs(fit.exponent - 1.0) < 0.05


def test_minkowski_validation_and_degenerate():
    grid = Grid(np.zeros(2), 0.1, (16, 16), np.ones((16, 16), bool))
    flat = DistanceField(grid, np.full((16, 16), 5.0), 0.0, diameter=100.0)
    with pytest.raises(DegenerateFit):
        minkowski_dimension(flat, 0.5, 2.0, 8)
    empty = DistanceField(grid, np.full((16, 16), 99.0), 0.0, diameter=100.0)
    with pytest.raises(DegenerateFit):
        minkowski_dimension(empty, 0.5, 2.0, 8)
    with pytest.raises(ValueError):
        minkowski_dimension(flat, 0.1, 2.0, 8)  # r_min below 4h
    with pytest.raises(ValueError):
        minkowski_dimension(flat, 0.5, 2.0, 3)  # too few radii
    with pytest.raises(ValueError, match="r_max exceeds a quarter of the boundary diameter"):
        minkowski_dimension(flat, 0.5, 26.0, 8)


def test_minkowski_default_radii(koch256):
    # r_min = 4h and r_max = diameter/8 when not given
    _, df = koch256
    assert minkowski_dimension(df) == minkowski_dimension(df, 4 * df.grid.h, df.diameter / 8)


# --- measure regularity ----------------------------------------------------------


def test_ahlfors_unit_segment():
    # uniform length measure: interior balls hold 2r of mass, end balls r
    n = 512
    xs = np.linspace(0.0, 1.0, n + 1)
    segs = np.stack(
        [np.stack([xs[:-1], np.zeros(n)], 1), np.stack([xs[1:], np.zeros(n)], 1)], axis=1
    )
    geom = segment_geometry(segs)
    c_lo, c_hi = ahlfors_check(geom, 1.0, n_centers=200, r_range=(0.02, 0.2))
    assert 0.85 <= c_lo <= c_hi <= 2.15


def test_ahlfors_named_families():
    k_lo, k_hi = ahlfors_check(koch_snowflake(1 / 3, 6), np.log(4) / np.log(3), 200, (0.01, 0.2))
    assert k_hi / k_lo <= 40.0
    c_lo, c_hi = ahlfors_check(cantor_dust(1 / 4, 2, 5), 1.0, 200, (0.01, 0.2))
    assert c_hi / c_lo <= 40.0


AHLFORS_REFUSED = {
    "n-centers-0": (dict(n_centers=0), "n_centers must be at least 1"),
    "radii-per-center-0": (dict(radii_per_center=0), "radii_per_center must be at least 1"),
    "s-nan": (dict(s=np.nan), "s must be finite and >= 0"),
    "s-inf": (dict(s=np.inf), "s must be finite and >= 0"),
}


@pytest.mark.parametrize("options, message", AHLFORS_REFUSED.values(),
                         ids=AHLFORS_REFUSED.keys())
def test_ahlfors_refuses_settings_that_sample_nothing(options, message, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a centre was drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match=message):
        ahlfors_check(koch_snowflake(1 / 3, 4), **{"s": 1.0, **options})


def test_ahlfors_depth_stable():
    s = np.log(4) / np.log(3)
    r5 = ahlfors_check(koch_snowflake(1 / 3, 5), s, 200, (0.02, 0.2))
    r6 = ahlfors_check(koch_snowflake(1 / 3, 6), s, 200, (0.02, 0.2))
    ratio5, ratio6 = r5[1] / r5[0], r6[1] / r6[0]
    assert 0.5 < ratio6 / ratio5 < 2.0


# --- uniformity heuristic ---------------------------------------------------------


def _disk_polygon(n=96):
    th = np.linspace(0.0, 2 * np.pi, n + 1)
    pts = np.stack([np.cos(th), np.sin(th)], 1)
    segs = np.stack([pts[:-1], pts[1:]], axis=1)
    return BoundaryGeometry(2, "segments", segs, 0, 0.0)


def test_uniformity_disk():
    geom = _disk_polygon()
    grid = build_grid(geom, 64)
    df = distance_field(geom, grid)
    sigma = uniformity_estimate(df, z=np.array([1.0, 0.0]), R=0.5, n_pairs=16, seed=1)
    assert sigma <= 4.0
    assert sigma.hex() == "0x1.15a98c8a58e50p+0"


def test_uniformity_koch_vertex(koch256):
    _, df = koch256
    sigma = uniformity_estimate(df, z=np.array([0.0, 0.0]), R=0.2, n_pairs=100, seed=2)
    assert sigma < 20.0
    assert sigma.hex() == "0x1.09e3ecac6f384p+1"


def test_uniformity_vicsek_grows_with_resolution():
    # corner boxes touch the central box at single points; ever finer grids
    # resolve the pinch and the cigar constant climbs
    geom = vicsek(0.3, 2, 3)
    z = np.array([0.3, 0.3])  # a pinch point
    sigmas, saturated = [], []
    for res in (48, 96, 192):
        grid = build_grid(geom, res, margin=0.2)
        df = distance_field(geom, grid)
        sigmas.append(uniformity_estimate(df, z, R=0.15, n_pairs=24, seed=5, sigma_max=1e6))
        if res < 192:  # a pair not joined within sigma_max returns sigma_max itself
            saturated.append(uniformity_estimate(df, z, R=0.15, n_pairs=24, seed=5,
                                                 sigma_max=8.0))
    assert saturated == [8.0, 8.0]
    assert sigmas[0] < sigmas[-1]
    assert sigmas[1] <= sigmas[2]
    assert [s.hex() for s in sigmas] == [
        "0x1.a5021c7bfe431p+3", "0x1.374d6abb71b2dp+4", "0x1.4fd7eb4b4a7a6p+5"]


def test_uniformity_cantor_3d_ball():
    # a 3-D ball around the centre of a dust: its graph joins each cell to
    # its 26 king-move neighbours
    geom = cantor_dust(0.3, 3, 2)
    df = distance_field(geom, build_grid(geom, 24, margin=0.2))
    sigma = uniformity_estimate(df, z=np.array([0.5, 0.5, 0.5]), R=0.3, n_pairs=8, seed=3)
    assert sigma.hex() == "0x1.2387a6e756238p+0"


UNIFORMITY_REFUSED = {
    "n-pairs-0": (dict(n_pairs=0), "n_pairs must be at least 1"),
    "n-pairs-negative": (dict(n_pairs=-3), "n_pairs must be at least 1"),
    "sigma-max-0.5": (dict(sigma_max=0.5), "sigma_max must be finite and >= 1"),
    "sigma-max-nan": (dict(sigma_max=np.nan), "sigma_max must be finite and >= 1"),
    "sigma-max-inf": (dict(sigma_max=np.inf), "sigma_max must be finite and >= 1"),
}


@pytest.mark.parametrize("options, message", UNIFORMITY_REFUSED.values(),
                         ids=UNIFORMITY_REFUSED.keys())
def test_uniformity_refuses_settings_that_sample_nothing(options, message, monkeypatch):
    # koch 1/3 depth 4 at 64: refused before the ball is built
    geom = koch_snowflake(1 / 3, 4)
    df = distance_field(geom, build_grid(geom, 64))

    def no_ball(*args):
        raise AssertionError("the ball was built")

    monkeypatch.setattr("snowcap.geomfield._ball", no_ball)
    with pytest.raises(ValueError, match=message):
        uniformity_estimate(df, (0.5, 0.3), 0.2, **options)


def test_uniformity_disconnected():
    segs = np.concatenate(
        [square_polygon().primitives, square_polygon().primitives + np.array([2.0, 0.0])]
    )
    geom = BoundaryGeometry(2, "segments", segs, 0, 0.0)
    grid = build_grid(geom, 32)
    df = distance_field(geom, grid)
    with pytest.raises(Disconnected):
        uniformity_estimate(df, z=np.array([1.5, 0.5]), R=3.0, n_pairs=16, seed=0)
