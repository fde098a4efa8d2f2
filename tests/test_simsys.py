"""Similarity systems, dimensions, and finite-depth realizations."""

import numpy as np
import pytest

from snowcap import (
    BoundaryGeometry,
    DepthOverflow,
    FAMILIES,
    NoSolutionInRange,
    Similarity,
    SimilaritySystem,
    cantor_dust,
    critical_delta,
    koch_snowflake,
    named_family,
    realize,
    similarity_dimension,
    vicsek,
)

# closed-form dimensions, frozen independently of the bisection solver
LOG4_OVER_LOG3 = 1.2618595071429148  # log 4 / log 3
LOG2_OVER_LOG3 = 0.6309297535714574  # log 2 / log 3
LOG5_OVER_LOG3 = 1.4649735207179269  # log 5 / log 3


def _corner_maps(lam, dim):
    corners = np.stack(np.meshgrid(*([[0, 1]] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    eye = np.eye(dim)
    return [Similarity(lam, eye, c * (1.0 - lam)) for c in corners]


# --- similarity dimension ----------------------------------------------------


def test_cantor_dimension_closed_form():
    # 2^d maps of ratio lam: s = d log 2 / log(1/lam)
    for dim in (1, 2, 3):
        for lam in (1 / 8, 1 / 4, 1 / 3, 0.4):
            sys_ = SimilaritySystem(dim, tuple(_corner_maps(lam, dim)))
            s = similarity_dimension(sys_)
            assert abs(s - dim * np.log(2) / np.log(1 / lam)) < 1e-10


def test_named_dimension_values():
    assert abs(similarity_dimension(koch_snowflake(1 / 3, 0).system) - LOG4_OVER_LOG3) < 1e-12
    assert abs(similarity_dimension(cantor_dust(1 / 3, 1, 0).system) - LOG2_OVER_LOG3) < 1e-12
    assert abs(similarity_dimension(vicsek(1 / 3, 2, 0).system) - LOG5_OVER_LOG3) < 1e-12
    # nine maps of ratio 1/3 tile a surface: s = 2 exactly
    assert abs(similarity_dimension(vicsek(1 / 3, 3, 0).system) - 2.0) < 1e-12


def test_cantor_d2_quarter_is_line_dimension():
    s = similarity_dimension(cantor_dust(1 / 4, 2, 0).system)
    assert abs(s - 1.0) < 1e-12


def test_single_map_dimension_zero():
    sys_ = SimilaritySystem(2, (Similarity(0.5, np.eye(2), np.zeros(2)),))
    assert similarity_dimension(sys_) == 0.0


def test_space_filling_system_has_the_ambient_dimension():
    # four maps of ratio 1/2 tile the square: s = d exactly, and a boundary
    # of full dimension has no threshold
    s = similarity_dimension(SimilaritySystem(2, tuple(_corner_maps(0.5, 2))))
    assert s == 2.0
    with pytest.raises(ValueError, match="requires 0 < s < d"):
        critical_delta(s, 2)


def test_overlapping_system_rejected():
    maps = tuple(Similarity(0.9, np.eye(1), np.array([t])) for t in (0.0, 0.1))
    with pytest.raises(NoSolutionInRange):
        similarity_dimension(SimilaritySystem(1, maps))


def test_dimension_monotone_in_ratio():
    s = [similarity_dimension(cantor_dust(lam, 2, 0).system) for lam in (0.2, 0.3, 0.45)]
    assert s[0] < s[1] < s[2]


def test_vicsek_lambda4_open_question():
    # the four-dimensional cross with lam = (sqrt(21) - 3) / 4 has similarity
    # dimension exactly 3, i.e. codimension one: 16 lam^3 + (1 - 2 lam)^3 = 1
    # reduces to 4 lam^2 + 6 lam - 3 = 0
    lam = (np.sqrt(21) - 3) / 4
    maps = _corner_maps(lam, 4)
    maps.append(Similarity(1 - 2 * lam, np.eye(4), np.full(4, lam)))
    s = similarity_dimension(SimilaritySystem(4, tuple(maps)))
    assert abs(s - 3.0) < 1e-10
    assert abs(critical_delta(s, 4) - 1.0) < 1e-10


# --- critical exponent -------------------------------------------------------


def test_critical_delta_values():
    assert critical_delta(1.0, 2) == 1.0  # smooth curve in the plane
    assert abs(critical_delta(LOG4_OVER_LOG3, 2) - LOG4_OVER_LOG3) < 1e-15
    assert critical_delta(1.0, 3) == 0.0  # codimension-two line in space
    for bad_s, d in ((0.0, 2), (2.0, 2), (-1.0, 3), (3.5, 3)):
        with pytest.raises(ValueError):
            critical_delta(bad_s, d)


# --- map validation ----------------------------------------------------------


def test_similarity_validation():
    with pytest.raises(ValueError):
        Similarity(1.0, np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        Similarity(0.5, np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    m = Similarity(0.5, np.eye(2), np.array([1.0, 2.0]))
    assert np.allclose(m(np.array([[2.0, 4.0]])), [[2.0, 4.0]])


# --- realizations ------------------------------------------------------------


def test_koch_counts_and_lengths():
    geom = koch_snowflake(1 / 4, 2)
    assert geom.primitives.shape == (48, 2, 2)
    lengths = np.linalg.norm(geom.primitives[:, 1] - geom.primitives[:, 0], axis=1)
    # depth-two word lengths over ratios {3/8, 1/4, 1/4, 3/8}
    expect = sorted([9 / 64] * 12 + [3 / 32] * 24 + [1 / 16] * 12)
    assert np.allclose(sorted(lengths), expect, atol=1e-12)
    assert abs(lengths.sum() - 3 * 1.25**2) < 1e-9  # (sum of ratios)^depth per side


def test_koch_depth1_unit_thirds():
    geom = koch_snowflake(1 / 3, 1)
    lengths = np.linalg.norm(geom.primitives[:, 1] - geom.primitives[:, 0], axis=1)
    assert geom.primitives.shape == (12, 2, 2)
    assert np.allclose(lengths, 1 / 3)


def test_koch_closed_polygon_and_bounds():
    geom = koch_snowflake(1 / 3, 3)
    segs = geom.primitives
    # consecutive segments chain head to tail and the curve closes
    assert np.allclose(segs[:-1, 1], segs[1:, 0], atol=1e-12)
    assert np.allclose(segs[-1, 1], segs[0, 0], atol=1e-12)
    lo, hi = geom.bounds()
    # bumps point outward: the lowest point is the bottom-side bump apex
    assert abs(lo[1] + np.sqrt(3) / 6) < 1e-9
    assert abs(hi[1] - np.sqrt(3) / 2) < 1e-9
    assert abs(lo[0] - 0.0) < 1e-9 and abs(hi[0] - 1.0) < 1e-9


@pytest.mark.parametrize(
    "geom",
    [koch_snowflake(1 / 3, 4), cantor_dust(0.25, 2, 3), cantor_dust(0.25, 3, 2)],
    ids=["koch", "cantor-2d", "cantor-3d"],
)
def test_bounds_equal_the_endpoint_reduction(geom):
    flat = geom.primitives.reshape(-1, geom.dim)
    for got, want in zip(geom.bounds(), (flat.min(axis=0), flat.max(axis=0))):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_koch_polygon_is_counterclockwise():
    segs = koch_snowflake(1 / 3, 2).primitives
    x1, y1 = segs[:, 0, 0], segs[:, 0, 1]
    x2, y2 = segs[:, 1, 0], segs[:, 1, 1]
    signed_area = 0.5 * np.sum(x1 * y2 - x2 * y1)
    assert signed_area > 0.5  # positive orientation, area roughly the triangle's


def test_vicsek_d2_depth1_boxes():
    geom = vicsek(1 / 4, 2, 1)
    assert geom.primitives.shape == (5, 2, 2)
    sides = geom.primitives[:, 1] - geom.primitives[:, 0]
    assert np.allclose(sides[:, 0], sides[:, 1])
    assert np.allclose(sorted(sides[:, 0]), [0.25, 0.25, 0.25, 0.25, 0.5])
    los = geom.primitives[:, 0]
    assert any(np.allclose(lo, [0.25, 0.25]) for lo in los)  # central box


def test_vicsek_d3_depth2_boxes():
    geom = vicsek(1 / 3, 3, 2)
    assert geom.primitives.shape == (81, 2, 3)
    sides = geom.primitives[:, 1] - geom.primitives[:, 0]
    assert np.allclose(sides, 1 / 9)


def test_cantor_d2_depth3_boxes():
    geom = cantor_dust(1 / 4, 2, 3)
    assert geom.primitives.shape == (64, 2, 2)
    sides = geom.primitives[:, 1] - geom.primitives[:, 0]
    assert np.allclose(sides, 1 / 64)


def _sorted_rows(prims):
    flat = prims.reshape(len(prims), -1).round(12)
    return flat[np.lexsort(flat.T[::-1])]


def test_realization_matches_recursive_reference():
    # independent recursion: depth-K set equals the union of map images of
    # the depth-(K-1) set
    geom = koch_snowflake(0.3, 0)
    sys_ = geom.system
    base = np.array([[[0.0, 0.0], [1.0, 0.0]]])

    def reference(depth):
        if depth == 0:
            return base
        prev = reference(depth - 1)
        return np.concatenate([m(prev.reshape(-1, 2)).reshape(prev.shape) for m in sys_.maps])

    for depth in (1, 2, 3):
        got = realize(sys_, depth, base, "segments")
        assert np.allclose(_sorted_rows(got), _sorted_rows(reference(depth)), atol=1e-12)


def test_cantor_nested_in_parent():
    geom2 = cantor_dust(0.3, 2, 2)
    geom3 = cantor_dust(0.3, 2, 3)
    # every depth-3 box lies inside some depth-2 box
    lo3, hi3 = geom3.primitives[:, 0], geom3.primitives[:, 1]
    lo2, hi2 = geom2.primitives[:, 0], geom2.primitives[:, 1]
    inside = (lo3[:, None, :] >= lo2[None] - 1e-12).all(-1) & (
        hi3[:, None, :] <= hi2[None] + 1e-12
    ).all(-1)
    assert inside.any(axis=1).all()


def test_approx_error_contracts_with_depth():
    for make in (
        lambda k: koch_snowflake(0.25, k),
        lambda k: vicsek(0.3, 2, k),
        lambda k: cantor_dust(0.3, 2, k),
    ):
        errs = [make(k).approx_error for k in range(4)]
        r_max = float(make(0).system.ratios.max())
        for a, b in zip(errs, errs[1:]):
            assert b <= r_max * a + 1e-15
        # the error bound actually covers the primitives: max extent <= error
        g = make(3)
        prim = g.primitives
        extent = np.linalg.norm(prim[:, 1] - prim[:, 0], axis=1).max()
        assert extent <= g.approx_error + 1e-12


def test_depth_caps_raise():
    with pytest.raises(DepthOverflow):
        koch_snowflake(1 / 3, 11)
    with pytest.raises(DepthOverflow):
        vicsek(1 / 3, 3, 7)
    with pytest.raises(DepthOverflow):
        cantor_dust(1 / 4, 3, 8)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_depth_caps_are_the_deepest_within_two_million_primitives(name):
    family = FAMILIES[name]
    for dim, cap in family.depth_caps.items():
        system = family.system(family.lam_max / 2, dim)
        count = len(family.primitives(system, 0)) * len(system.maps) ** cap
        assert count <= 2_000_000 < count * len(system.maps), (dim, cap)


def test_parameter_validation():
    with pytest.raises(ValueError):
        koch_snowflake(0.4, 1)  # lam > 1/3
    with pytest.raises(ValueError):
        vicsek(0.5, 2, 1)
    with pytest.raises(ValueError):
        cantor_dust(0.6, 2, 1)
    with pytest.raises(ValueError):
        vicsek(0.3, 4, 1)
    with pytest.raises(ValueError, match="at least one primitive"):
        BoundaryGeometry(2, "segments", np.zeros((0, 2, 2)), 0, 0.0)


def test_named_family_resolves_the_cantor_alias_and_refuses_unknown_names():
    assert named_family("cantor") is FAMILIES["cantor-dust"]
    assert named_family("cantor-dust").geometry(0.25, 2, 1).system.lam == 0.25
    with pytest.raises(ValueError) as err:
        named_family("vicsk")
    assert str(err.value) == "unknown family 'vicsk'"
