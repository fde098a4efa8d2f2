"""Tests for the weighted quadratic form, capacity estimates, Hardy
quotients, and collar integrals."""

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve
from scipy.special import iv, ivp, kv, kvp

from snowcap import (
    EmptyRegion,
    SolverDiverged,
    Grid,
    DistanceField,
    koch_snowflake,
    cantor_dust,
    build_grid,
    distance_field,
    weight_field,
    assemble_form,
    eta_rn,
    capacity_upper_eta,
    capacity_relaxed,
    capacity_ladder,
    hardy_quotient,
    collar_integral,
    uniformity_estimate,
    vicsek,
)
from snowcap.forms import (
    _GRAM_FLOOR,
    _faces,
    _hardy_pencil,
    _hardy_solve,
    _hierarchy,
    _restrict,
    _ritz,
    _spd_solver,
)
from snowcap.geomfield import _ball


def square_field(res):
    # unit square, every cell in-domain; distances irrelevant at delta=0
    grid = Grid((0.0, 0.0), 1.0 / res, (res, res), np.ones((res, res), dtype=bool))
    return DistanceField(grid, np.zeros((res, res)), 0.0, np.sqrt(2.0))


def line_field(n):
    # (0,1) with the boundary at the origin: d(x) = x at cell centers
    grid = Grid((0.0,), 1.0 / n, (n,), np.ones(n, dtype=bool))
    return DistanceField(grid, grid.axis_centers(0).copy(), 0.0, 1.0)


@pytest.fixture(scope="module")
def koch128():
    geom = koch_snowflake(1 / 3, 5)
    return distance_field(geom, build_grid(geom, 128))


@pytest.fixture(scope="module")
def cantor96():
    geom = cantor_dust(1 / 4, 2, 4)
    return distance_field(geom, build_grid(geom, 96))


@pytest.fixture(scope="module")
def koch512():
    geom = koch_snowflake(1 / 3, 6)
    return distance_field(geom, build_grid(geom, 512))


@pytest.fixture(scope="module")
def koch256():
    geom = koch_snowflake(1 / 3, 6)
    return distance_field(geom, build_grid(geom, 256))


# --- weights -----------------------------------------------------------------------


def test_weight_field_clamp_and_bounds(koch128):
    wf = weight_field(koch128, 2.0)
    mask = koch128.grid.omega_mask
    assert (wf[mask] > 0).all()
    assert (wf[mask] <= 1.0 + 1e-15).all()
    expected = np.maximum(np.minimum(koch128.values, 1.0), koch128.grid.h / 2) ** 2.0
    assert np.allclose(wf[mask], expected[mask], rtol=0, atol=0)


def test_weight_field_negative_delta_raises(koch128):
    with pytest.raises(ValueError):
        weight_field(koch128, -0.1)


# --- form energy -------------------------------------------------------------------


def test_square_gradient_energy_exact(centers):
    # phi = x has unit gradient; the (res-1)/res deficit is the half-cell
    # rim the cell-centered grid cannot see, exact in dyadic arithmetic
    for res in (32, 128, 512):
        field = square_field(res)
        form = assemble_form(field, 0.0)
        phi = centers(field.grid)[:, 0].reshape(res, res)
        assert form.energy(phi) == (res - 1) / res


def test_constant_energy_zero(koch128):
    form = assemble_form(koch128, 1.0)
    assert form.energy(np.full(koch128.grid.dims, 3.7)) == 0.0


def test_single_edge_unit_contribution():
    # two cells, c = 1, d = 2: weight h^0 * 1, jump 1 -> energy exactly 1
    grid = Grid((0.0, 0.0), 0.25, (2, 1), np.ones((2, 1), dtype=bool))
    field = DistanceField(grid, np.zeros((2, 1)), 0.0, 0.25)
    form = assemble_form(field, 0.0)
    assert form.energy(np.array([[1.0], [0.0]])) == 1.0


def test_energy_matrix_consistency(koch128):
    form = assemble_form(koch128, 1.5)
    mask = koch128.grid.omega_mask
    L, _ = _restrict(form.faces, mask, 0.0)
    rng = np.random.default_rng(7)
    for _ in range(5):
        phi = rng.standard_normal(koch128.grid.dims)
        inside = phi[mask]
        quad = float(inside @ (L @ inside))
        assert abs(quad - form.energy(phi)) <= 1e-10 * max(quad, 1.0)


def test_normal_contraction_exact(koch128):
    # clamping to [0,1] never increases the energy, with no tolerance
    form = assemble_form(koch128, 1.0)
    rng = np.random.default_rng(23)
    for _ in range(50):
        phi = rng.uniform(-1.5, 2.5, size=koch128.grid.dims)
        e = form.energy(phi)
        assert e >= 0.0
        assert form.energy(np.clip(phi, 0.0, 1.0)) <= e


# --- log-profile test functions ----------------------------------------------------


def test_eta_profile_formula():
    field = line_field(16)
    r, n = 0.5, 100
    d = np.array([r / (2 * n), r / n, 0.1 * r, r, 0.9])
    probe = DistanceField(
        Grid((0.0,), 1.0 / 16, (5,), np.ones(5, dtype=bool)), d.copy(), 0.0, 1.0
    )
    eta = eta_rn(probe, r, n)
    assert eta[0] == 1.0
    assert eta[1] == 1.0
    assert abs(eta[2] - 0.5) <= 1e-12  # -log(0.1)/log(100)
    assert eta[3] == 0.0
    assert eta[4] == 0.0
    assert ((eta >= 0) & (eta <= 1)).all()
    # profile vanishes on masked-out cells
    holed = Grid((0.0,), 1.0 / 16, (5,), np.array([1, 1, 0, 1, 1], dtype=bool))
    eta = eta_rn(DistanceField(holed, d.copy(), 0.0, 1.0), r, n)
    assert eta[2] == 0.0
    del field


def test_eta_parameter_validation(koch128):
    with pytest.raises(ValueError):
        eta_rn(koch128, 0.3, 1)
    with pytest.raises(ValueError):
        eta_rn(koch128, -0.1, 4)
    # a NaN compares False both ways, so it is refused like a bad value,
    # whichever place it takes in the candidate lists
    with pytest.raises(ValueError):
        eta_rn(koch128, np.nan, 4)
    with pytest.raises(ValueError):
        eta_rn(koch128, 0.3, np.nan)
    for r_list in ([np.nan, 0.3], [0.3, np.nan]):
        with pytest.raises(ValueError):
            capacity_upper_eta(koch128, 1.0, r_list, [4])


# --- relaxed capacity --------------------------------------------------------------


def test_capacity_monotone_in_eps(koch128):
    h = koch128.grid.h
    vals = [capacity_relaxed(koch128, 1.0, k * h).value for k in (4, 8, 16)]
    assert vals[0] <= vals[1] <= vals[2]


def test_capacity_value_floor(koch128):
    h = koch128.grid.h
    eps = 6 * h
    res = capacity_relaxed(koch128, 1.0, eps)
    n_collar = int((koch128.grid.omega_mask & (koch128.values < eps)).sum())
    assert res.value >= h * h * n_collar
    assert res.collar_eps == eps
    assert res.residual >= 0.0


def test_capacity_all_constrained(koch128):
    # collar swallows the domain: psi = 1 everywhere, value = measured area
    mask = koch128.grid.omega_mask
    res = capacity_relaxed(koch128, 1.0, 2.0)
    assert res.value == koch128.grid.h ** 2 * int(mask.sum())
    assert res.solver_iters == 0
    assert (res.psi[mask] == 1.0).all()


def test_capacity_max_principle(koch128):
    res = capacity_relaxed(koch128, 2.0, 8 * koch128.grid.h)
    mask = koch128.grid.omega_mask
    collar = mask & (koch128.values < 8 * koch128.grid.h)
    assert (res.psi[collar] == 1.0).all()
    assert res.psi[mask].min() >= -1e-8
    assert res.psi[mask].max() <= 1.0 + 1e-8
    assert (res.psi[~mask] == 0.0).all()


def test_capacity_validation(koch128):
    with pytest.raises(ValueError):
        capacity_relaxed(koch128, 1.0, koch128.grid.h)
    # every cell at distance 1 from the boundary: the collar is empty
    far = DistanceField(koch128.grid, np.ones(koch128.grid.dims), 0.0, 1.0)
    with pytest.raises(EmptyRegion):
        capacity_relaxed(far, 1.0, 8 * koch128.grid.h)
    # the tolerance is checked before the collar
    for cg_tol in (0.0, -1e-8, np.nan, np.inf):
        with pytest.raises(ValueError, match="cg_tol must be positive and finite"):
            capacity_relaxed(far, 1.0, 8 * koch128.grid.h, cg_tol=cg_tol)
    with pytest.raises(ValueError, match="two cells"):
        capacity_relaxed(koch128, 1.0, np.nan)


def test_upper_eta_dominates_relaxed(koch128):
    # eta_{r,n} is admissible for the relaxed problem with eps = r/n
    r, n = 0.3, 15
    up = capacity_upper_eta(koch128, 1.0, [r], [n])
    lo = capacity_relaxed(koch128, 1.0, r / n)
    assert up >= lo.value - 1e-12


def test_capacity_nonincreasing_in_delta(koch128):
    # d <= 1 across the snowflake, so weights shrink pointwise as delta grows
    h = koch128.grid.h
    rel = [capacity_relaxed(koch128, d, 8 * h).value for d in (0.5, 1.0, 2.0)]
    up = [
        capacity_upper_eta(koch128, d, [0.2, 0.4], [16, 64])
        for d in (0.5, 1.0, 2.0)
    ]
    assert rel[0] >= rel[1] >= rel[2]
    assert up[0] >= up[1] >= up[2]


def test_capacity_warm_start_agrees(koch128):
    h = koch128.grid.h
    cold = capacity_relaxed(koch128, 1.0, 8 * h, cg_tol=1e-10)
    rng = np.random.default_rng(5)
    guess = rng.uniform(0, 1, size=koch128.grid.dims)
    warm = capacity_relaxed(koch128, 1.0, 8 * h, cg_tol=1e-10, x0=guess)
    assert abs(cold.value - warm.value) <= 1e-8 * cold.value


def test_capacity_refuses_a_warm_start_that_is_not_finite(koch128, monkeypatch):
    # an infinite guess ran all 500 CG iterations and ended in "stalled at
    # residual nan"; it is refused before any hierarchy is built
    h, dims = koch128.grid.h, koch128.grid.dims
    free = koch128.grid.omega_mask & ~(koch128.values < 8 * h)
    one_nan = np.zeros(dims)
    one_nan[tuple(np.argwhere(free)[0])] = np.nan
    outside = np.where(free, 0.5, np.inf)  # read on the free cells only
    good = capacity_relaxed(koch128, 1.0, 8 * h, x0=outside)
    assert abs(good.value - capacity_relaxed(koch128, 1.0, 8 * h).value) <= 1e-8 * good.value

    def no_hierarchy(*args):
        raise AssertionError("a hierarchy was built")

    monkeypatch.setattr("snowcap.forms._hierarchy", no_hierarchy)
    for x0 in (np.full(dims, np.inf), np.full(dims, np.nan), one_nan.ravel()):
        with pytest.raises(ValueError, match="x0 must be finite on the free cells"):
            capacity_relaxed(koch128, 1.0, 8 * h, x0=x0)
    # a ladder checks every rung's delta when it is made
    with pytest.raises(ValueError, match="delta must be >= 0"):
        capacity_ladder(koch128, [1.0, -1.0], 8 * h)
    with pytest.raises(ValueError, match="at least one delta"):
        capacity_ladder(koch128, [], 8 * h)


LADDER_FIELDS = {  # hierarchies of 3-4 levels
    "koch13-256": (koch_snowflake(1 / 3, 6), 256),
    "cantor-0.25-256": (cantor_dust(0.25, 2, 5), 256),
    "vicsek-0.3-256": (vicsek(0.3, 2, 4), 256),
    "cantor-3d-32": (cantor_dust(0.25, 3, 3), 32),
}


@pytest.mark.parametrize("geom, res", LADDER_FIELDS.values(), ids=LADDER_FIELDS.keys())
def test_capacity_ladder_matches_single_solves(geom, res):
    # descending deltas: the skeleton still comes from the smallest, delta 0,
    # whose rung is capacity_relaxed's bitwise
    field = distance_field(geom, build_grid(geom, res))
    eps, deltas = 8 * field.grid.h, [4.0, 3.0, 2.0, 1.0, 0.0]
    ladder = list(capacity_ladder(field, deltas, eps))
    single = [capacity_relaxed(field, delta, eps) for delta in deltas]
    for rung, one in zip(ladder, single):
        assert abs(rung.value - one.value) <= 1e-8 * one.value
        assert rung.solver_iters <= one.solver_iters + 1
        assert rung.levels == one.levels >= 3
    low, one = ladder[-1], single[-1]
    assert (low.value.hex(), low.residual.hex(), low.solver_iters) == (
        one.value.hex(), one.residual.hex(), one.solver_iters)
    assert low.psi.tobytes() == one.psi.tobytes()


def test_capacity_stall_raises(koch128, monkeypatch):
    # one PCG iteration cannot reach a relative residual of 1e-14
    monkeypatch.setattr("snowcap.forms._MAX_PCG_ITERS", 1)
    with pytest.raises(SolverDiverged, match=r"stalled at residual \S+ after 1 iterations"):
        capacity_relaxed(koch128, 1.0, 8 * koch128.grid.h, cg_tol=1e-14)


def _solver_returning(iterates, rtols):
    """An `_spd_solver` whose k-th solve returns the k-th (min, max) pair as
    its iterate, after 2 iterations, and logs the tolerance it was given."""

    def spd_solver(A, cells):
        def solve(b, x0=None, rtol=1e-8):
            lo, hi = iterates[len(rtols)]
            rtols.append(rtol)
            x = np.full(len(b), hi)
            x[0] = lo
            return x, 2

        return solve, 3

    return spd_solver


def test_capacity_continues_a_solve_that_leaves_the_unit_interval(koch128, monkeypatch):
    rtols = []
    monkeypatch.setattr("snowcap.forms._spd_solver",
                        _solver_returning([(0.0, 1.0 + 2e-6), (0.0, 1.0)], rtols))
    res = capacity_relaxed(koch128, 1.0, 8 * koch128.grid.h, cg_tol=1e-6)
    assert rtols == pytest.approx([1e-6, 1e-8], rel=1e-12)
    assert res.solver_iters == 4
    assert res.psi.max() == 1.0


def test_capacity_refuses_a_violation_that_survives_the_continuations(koch128, monkeypatch):
    rtols = []
    monkeypatch.setattr("snowcap.forms._spd_solver", _solver_returning([(-0.25, 1.5)] * 3, rtols))
    with pytest.raises(SolverDiverged) as err:
        capacity_relaxed(koch128, 1.0, 8 * koch128.grid.h, cg_tol=1e-6)
    assert str(err.value) == ("minimizer leaves [0,1] (min -2.500e-01, max - 1 5.000e-01) at "
                              "cg_tol 1.000e-10: maximum principle violated, solution untrusted")
    assert rtols == pytest.approx([1e-6, 1e-8, 1e-10], rel=1e-12)


# per delta: capacity_relaxed at eps = 8h (value and residual as float.hex,
# CG iterations, levels), then capacity_upper_eta over r in {0.2, 0.4} and n
# in {16, 64}; last the sha256 of eta_rn(field, 0.3, 15). Both grids' coarse
# levels stay small enough that the BLAS thread count does not move a bit.
CAPACITY_PINS = {
    "koch128": (
        {
            0.5: ("0x1.597024a5fc8a9p-1", "0x1.5702d8829b8d0p-27", 11, 3,
                  "0x1.ecc808cb53090p+1"),
            1.0: ("0x1.50cd59a74da77p-1", "0x1.54c6c9234d214p-29", 12, 3,
                  "0x1.f03d95f2a3a0cp-1"),
            2.0: ("0x1.1597958275d56p-1", "0x1.846c37fb233b4p-29", 12, 3,
                  "0x1.4169d5008c176p-3"),
        },
        "80452ce26fb53c606b9964e70c99dd4d7245081269faf13ce727bd7e040ef81e",
    ),
    "cantor96": (
        {
            0.5: ("0x1.f021be866e464p-1", "0x1.151edf0e32d5ap-27", 11, 3,
                  "0x1.315a7b284c0e8p+2"),
            1.0: ("0x1.db82826633415p-1", "0x1.3fddf7dbd2190p-27", 11, 3,
                  "0x1.0384200b3359ap+0"),
            2.0: ("0x1.669b5c1cc67a6p-1", "0x1.d60e0c2010c17p-29", 12, 3,
                  "0x1.3f36bf2623ba0p-3"),
        },
        "cd68e0b585cd8c64e896faf75b95ff1156a7cacffb76fe92d0eb73a5ec5742cb",
    ),
}


@pytest.mark.parametrize("name", CAPACITY_PINS)
def test_capacity_layer_is_pinned(name, request):
    field = request.getfixturevalue(name)
    pins, eta_digest = CAPACITY_PINS[name]
    for delta, (value, residual, iters, levels, upper) in pins.items():
        res = capacity_relaxed(field, delta, 8 * field.grid.h)
        assert (res.value.hex(), res.residual.hex(), res.solver_iters, res.levels) == (
            value, residual, iters, levels)
        assert capacity_upper_eta(field, delta, [0.2, 0.4], [16, 64]).hex() == upper
    assert hashlib.sha256(eta_rn(field, 0.3, 15).tobytes()).hexdigest() == eta_digest


def _line_capacity_exact(delta, eps):
    # minimizer of the relaxed capacity on (0, 1) with weight x^delta and the
    # boundary at 0: -(x^delta phi')' + phi = 0 on (eps, 1), phi(eps) = 1,
    # phi'(1) = 0, so phi = x^a [A I_nu(c x^b) + B K_nu(c x^b)] and, after
    # integrating by parts, the capacity is eps - eps^delta phi'(eps)
    a, b = (1 - delta) / 2, (2 - delta) / 2
    c, nu = 1 / b, abs(a / b)

    def basis(x):
        t = c * x**b
        val = x**a * np.array([iv(nu, t), kv(nu, t)])
        der = a * val / x + x**a * c * b * x ** (b - 1) * np.array([ivp(nu, t), kvp(nu, t)])
        return val, der

    v_eps, d_eps = basis(eps)
    coef = np.linalg.solve(np.array([v_eps, basis(1.0)[1]]), [1.0, 0.0])
    return eps - eps**delta * float(d_eps @ coef)


@pytest.mark.parametrize("delta", [0.5, 1.5])
def test_capacity_line_matches_closed_form(delta):
    # first-order convergence to the Bessel closed form; the collar [0, 0.05)
    # is whole cells at every size. Relative errors measured: -3.0e-4,
    # -7.6e-5, -1.9e-5 (delta 0.5) and -1.70e-3, -4.24e-4, -1.06e-4 (1.5)
    eps = 0.05
    exact = _line_capacity_exact(delta, eps)
    errs = []
    for n in (4000, 16_000, 64_000):
        res = capacity_relaxed(line_field(n), delta, eps)
        errs.append(abs(res.value - exact) / exact)
        assert errs[-1] <= 8.0 / n
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_form_assembly_memory_is_bounded():
    # the form keeps its faces, 16 bytes a cell on a 2-D grid; the weights
    # (8 bytes) and the face masks (1 byte each) are computed in place
    # beside them, so the measured peak is 26 bytes a cell
    n = 512
    grid = Grid((0.0, 0.0), 1.0 / n, (n, n), np.ones((n, n), dtype=bool))
    field = DistanceField(grid, np.full((n, n), 0.25), 0.0, 1.0)
    tracemalloc.start()
    try:
        assemble_form(field, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28 * grid.n_cells


def test_capacity_assembly_memory_is_bounded(koch512):
    # koch13 at 512 (444 x 512 cells): the form's faces and the free cells'
    # CSR hold 12 MB and the assembly peaks at 24 MB; the bound fails edge
    # lists at 24 bytes per edge, restricted and sent through COO (43 MB)
    field = koch512
    tracemalloc.start()
    try:
        form = assemble_form(field, 1.0)
        free = field.grid.omega_mask & ~(field.values < 0.01)
        A, _ = _restrict(form.faces, free, field.grid.h**2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.shape == (int(free.sum()),) * 2
    assert peak < 30e6


def test_restrict_memory_is_bounded(koch512):
    # _restrict alone on the 119,092 free cells of koch13 at 512 peaks at
    # 14.4 MB; the bound fails slot tables kept alive beside their compacted
    # copies (20.5 MB)
    field = koch512
    form = assemble_form(field, 1.0)
    free = field.grid.omega_mask & ~(field.values < 0.01)
    tracemalloc.start()
    try:
        A, _ = _restrict(form.faces, free, field.grid.h**2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.shape == (int(free.sum()),) * 2
    assert peak < 17e6


def test_capacity_solve_memory_is_bounded(koch512):
    # the whole solve on the 119,092 free cells of koch13 at 512: the
    # level-0 Galerkin product and the CG each peak at 27.5 MB. The bound
    # fails a solve that keeps the form's faces, the fine cells' int64
    # coordinates or the CG's temporaries beside them (33.3 MB)
    capacity_relaxed(koch512, 1.0, 0.01)  # scipy's imports, outside the trace
    tracemalloc.start()
    try:
        capacity_relaxed(koch512, 1.0, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6


def _grid_system(mask, delta=0.0):
    # weighted grid Laplacian on the cells of mask (face weights h^(d-2)
    # times the mean of x_0^delta) plus the mass diagonal h^d
    h, d = 1.0 / mask.shape[0], mask.ndim
    x0 = (np.indices(mask.shape)[0] + 0.5) * h
    return _restrict(_faces(x0**delta, mask, h), mask, h**d)[0]


_CUT = np.ones((120, 120), dtype=bool)
_CUT[::9], _CUT[:, ::9] = False, False  # 8x8 pieces that straddle the 3x3 aggregates
SPD_SYSTEMS = {
    "line": (np.ones(6000, dtype=bool), 0.0),
    "square-degenerate": (np.ones((120, 120), dtype=bool), 2.0),
    "cube": (np.ones((20, 20, 20), dtype=bool), 0.0),
    "disconnected-pieces": (_CUT, 1.0),
}


@pytest.mark.parametrize("mask, delta", SPD_SYSTEMS.values(), ids=SPD_SYSTEMS.keys())
def test_spd_solver_matches_direct_solve(mask, delta):
    A = _grid_system(mask, delta)
    b = np.random.default_rng(3).standard_normal(A.shape[0])
    ref = spsolve(A.tocsc(), b)
    solve, levels = _spd_solver(A, _hierarchy(A, np.argwhere(mask)))
    rtol = 1e-10
    x, iters = solve(b, None, rtol)
    assert levels >= 2
    assert iters <= 25  # a Jacobi preconditioner needs hundreds here
    assert np.linalg.norm(x - ref) <= 10 * rtol * np.linalg.norm(ref)
    # a warm start at the answer costs no iteration
    assert solve(b, ref, 1e-8)[1] == 0


@pytest.mark.parametrize("mask, delta", SPD_SYSTEMS.values(), ids=SPD_SYSTEMS.keys())
def test_skeleton_rebuilds_the_hierarchy_bitwise(mask, delta):
    # a hierarchy over the prolongators of one that aggregated the cells is
    # that hierarchy, level by level and in its coarse solve
    A = _grid_system(mask, delta)
    levels, coarse = _hierarchy(A, np.argwhere(mask))
    again, again_coarse = _hierarchy(A, skeleton=[level[2] for level in levels])
    assert len(again) == len(levels) >= 1
    for (Ak, wd, _, _), (Bk, wd_again, _, _) in zip(levels, again):
        for part in ("data", "indices", "indptr"):
            assert getattr(Ak, part).tobytes() == getattr(Bk, part).tobytes()
        assert wd.tobytes() == wd_again.tobytes()
    r = np.random.default_rng(5).standard_normal(levels[-1][2].shape[1])
    assert coarse(r).tobytes() == again_coarse(r).tobytes()


def test_spd_solver_small_system_is_one_direct_level():
    mask = np.ones((12, 12), dtype=bool)
    A = _grid_system(mask)  # 144 rows: at most the coarse size
    b = np.random.default_rng(4).standard_normal(144)
    solve, levels = _spd_solver(A, _hierarchy(A, np.argwhere(mask)))
    x, iters = solve(b, None, 1e-12)
    assert levels == 1 and iters == 1
    assert np.linalg.norm(x - spsolve(A.tocsc(), b)) <= 1e-12 * np.linalg.norm(x)


def _coo_laplacian(faces, keep, diag):
    # the Laplacian of the faces between kept cells plus diag, cell by cell:
    # each kept cell's diagonal adds its up-faces by axis, then its
    # down-faces by axis, to diag; then COO to CSR with sorted columns
    cells = list(zip(*np.nonzero(keep)))
    pos = {cell: k for k, cell in enumerate(cells)}
    rows, cols, vals = [], [], []
    full = diag.copy()
    for k, cell in enumerate(cells):
        for step in (1, -1):
            for ax in range(keep.ndim):
                nb = cell[:ax] + (cell[ax] + step,) + cell[ax + 1:]
                if nb in pos:
                    w = faces[ax][cell if step == 1 else nb]
                    full[k] += w
                    rows.append(k)
                    cols.append(pos[nb])
                    vals.append(-w)
    m = len(cells)
    rows, cols, vals = rows + list(range(m)), cols + list(range(m)), vals + list(full)
    ref = coo_matrix((vals, (rows, cols)), shape=(m, m)).tocsr()
    ref.sort_indices()
    return ref


def _outer_faces(faces, keep):
    # per kept cell: its faces to cells that are not kept, up-faces by axis
    # then down-faces by axis, and how many of its 2d sides have no kept
    # neighbour
    cells = list(zip(*np.nonzero(keep)))
    total, closed = np.zeros(len(cells)), np.zeros(len(cells))
    for k, cell in enumerate(cells):
        for step in (1, -1):
            for ax in range(keep.ndim):
                nb = cell[:ax] + (cell[ax] + step,) + cell[ax + 1:]
                on_grid = 0 <= nb[ax] < keep.shape[ax]
                if on_grid and keep[nb]:
                    continue
                closed[k] += 1
                if on_grid:
                    total[k] += faces[ax][cell if step == 1 else nb]
    return total, closed


_LINE = np.ones(256, dtype=bool)
BUILDER_MASKS = {
    "line": _LINE,
    "line-column": _LINE.reshape(256, 1),
    "line-row": _LINE.reshape(1, 256),
    "cube": np.ones((20, 20, 20), dtype=bool),
    "disconnected-pieces": _CUT,
}


def _same_csr(A, ref):
    for name in ("indptr", "indices", "data"):
        assert getattr(A, name).tobytes() == getattr(ref, name).tobytes(), name


@pytest.mark.parametrize("mask", BUILDER_MASKS.values(), ids=BUILDER_MASKS.keys())
def test_restrict_matches_coo_laplacian(mask):
    # random weights and a random collar on the domain mask; the capacity
    # system (mass + faces to the collar) and the Hardy stiffness (closure
    # weight on every side without a ball neighbour) equal, bit for bit, the
    # COO Laplacian built cell by cell with the same diagonal
    rng = np.random.default_rng(11)
    d, h = mask.ndim, 1.0 / max(mask.shape)
    grid = Grid(np.zeros(d), h, mask.shape, mask)
    field = DistanceField(grid, rng.uniform(0.0, 1.0, mask.shape), 0.0, 1.0)
    delta = 1.5
    form = assemble_form(field, delta)

    free = mask & (field.values > 0.2)
    A, b = _restrict(form.faces, free, h**d)
    cross, _ = _outer_faces(form.faces, free)
    assert b.tobytes() == cross.tobytes()
    _same_csr(A, _coo_laplacian(form.faces, free, h**d + cross))

    extent = h * np.array(mask.shape)
    box, on_box = region = _ball(grid, 0.5 * extent, 0.3 * extent.max())
    ball = np.zeros(mask.shape, dtype=bool)
    ball[box] = on_box
    K, _ = _hardy_pencil(field, region, delta)
    _, closed = _outer_faces(form.faces, ball)
    assert closed.min() < closed.max()
    c = np.maximum(np.minimum(field.values[ball], 1.0), h / 2) ** delta
    _same_csr(K, _coo_laplacian(form.faces, ball, closed * 2.0 * c * h ** (d - 2)))


@pytest.mark.parametrize("mask", BUILDER_MASKS.values(), ids=BUILDER_MASKS.keys())
def test_faces_match_cell_by_cell_means(mask):
    # each face, bit for bit, is h^(d-2) * 0.5 * (c_k + c_{k+e_ax}) when both
    # cells are in the mask and 0 otherwise, also on the last layer
    rng = np.random.default_rng(5)
    h, d = 0.125, mask.ndim
    c = rng.uniform(0.1, 2.0, mask.shape)
    faces = _faces(c, mask, h)
    for ax, f in enumerate(faces):
        ref = np.zeros(mask.shape)
        for cell in zip(*np.nonzero(mask)):
            nb = cell[:ax] + (cell[ax] + 1,) + cell[ax + 1:]
            if nb[ax] < mask.shape[ax] and mask[nb]:
                ref[cell] = h ** (d - 2) * 0.5 * (c[cell] + c[nb])
        assert f.tobytes() == ref.tobytes()


# --- Hardy quotients ---------------------------------------------------------------


def test_hardy_1d_oracle_trend():
    # classical weighted Hardy constant ((1-delta)/2)^2 = 1/4 at delta = 0;
    # the discrete minimum approaches it from above, logarithmically
    b_1k = hardy_quotient(line_field(1000), 0.0, (0.0,), 1.0)
    b_10k = hardy_quotient(line_field(10_000), 0.0, (0.0,), 1.0)
    assert abs(b_1k - 0.314667) <= 5e-4
    assert abs(b_10k - 0.295218) <= 5e-4
    assert 0.25 < b_10k < b_1k


def line_ground_value(n, delta):
    # independent tridiagonal build of the closed stiffness/mass pencil of a
    # ball covering the whole line, and its smallest eigenvalue
    h = 1.0 / n
    x = (np.arange(n) + 0.5) * h
    c = np.minimum(x, 1.0) ** delta
    w = (c[:-1] + c[1:]) / 2 / h
    diag = np.zeros(n)
    diag[:-1] += w
    diag[1:] += w
    diag[0] += 2 * c[0] / h
    diag[-1] += 2 * c[-1] / h
    m = h * np.maximum(np.minimum(x, 1.0), h / 2) ** (delta - 2)
    s = 1 / np.sqrt(m)
    return eigh_tridiagonal(
        diag * s * s, -w * s[:-1] * s[1:], select="i", select_range=(0, 0),
        eigvals_only=True,
    )[0]


def test_hardy_1d_matches_dense_eigensolver():
    n, delta = 2000, 0.5
    ref = line_ground_value(n, delta)
    b = hardy_quotient(line_field(n), delta, (0.0,), 1.0, tol=1e-9)
    assert abs(b - ref) <= 1e-5 * ref


def _spd(rng, k, smallest=None):
    # a random k x k SPD matrix, eigenvalues in [0.5, 2), the first smallest if given
    q = np.linalg.qr(rng.standard_normal((k, k)))[0]
    ev = rng.uniform(0.5, 2.0, k)
    if smallest is not None:
        ev[0] = smallest
    return (q * ev) @ q.T


# (k, smallest eigenvalue of gm, vector tolerance). Near the floor gm's
# condition number is up to 1e8, so two backward-stable solvers agree on the
# vector only to about machine epsilon times that: over 2,000 draws the
# median gap was 7e-12 and the largest 4.6e-7. scipy's eigenvalue then also
# carries an error of epsilon times the pencil's largest eigenvalue (~1e8),
# 1e-8 relative, so both sides are compared as Rayleigh quotients.
RITZ_PENCILS = {
    "k1": (1, None, 1e-12),
    "k2": (2, None, 1e-12),
    "k3": (3, None, 1e-12),
    "k3-near-floor": (3, 2 * _GRAM_FLOOR, 1e-6),
}


@pytest.mark.parametrize("k, smallest, vec_tol", RITZ_PENCILS.values(), ids=RITZ_PENCILS.keys())
def test_ritz_matches_scipy_eigh(k, smallest, vec_tol):
    rng = np.random.default_rng(k)
    for _ in range(20):
        gk, gm = _spd(rng, k), _spd(rng, k, smallest)
        assert np.linalg.eigvalsh(gm)[0] > _GRAM_FLOOR
        w, v = eigh(gk, gm, subset_by_index=[0, 0])
        v, c = v[:, 0], _ritz(gk, gm)
        ref = w[0] if smallest is None else (v @ gk @ v) / (v @ gm @ v)
        assert abs((c @ gk @ c) / (c @ gm @ c) - ref) <= 1e-12 * ref
        assert abs(c @ gm @ c - 1.0) <= 1e-12  # gm-normalized, as scipy's
        e = c - np.sign(c @ gm @ v) * v  # equal up to sign, in the gm-norm
        assert np.sqrt(e @ gm @ e) <= vec_tol


def test_hardy_small_balls_match_dense_answer():
    field = line_field(150)
    h = field.grid.h
    for delta in (0.0, 1.0, 2.0):
        # 150 cells: the hierarchy is a single direct level
        ref = line_ground_value(150, delta)
        res = _hardy_solve(field, _ball(field.grid, (0.0,), 1.0), delta, 1e-6)
        assert res.levels == 1
        assert abs(res.quotient - ref) <= 1e-8 * ref
        # one cell at distance x, both faces closed: 4 c / h over h x^(delta-2)
        for k in (0, 5):
            b = hardy_quotient(field, delta, ((k + 0.5) * h,), 0.4 * h)
            assert abs(b - 4 * (k + 0.5) ** 2) <= 1e-12 * b


def test_hardy_quotient_meets_its_stop_rule():
    # near the attainable accuracy of a 10,000-cell line, a returned quotient
    # still meets the rule on a fresh residual; otherwise the solve raises
    field = line_field(10_000)
    for delta in (0.5, 1.0):
        ball = _ball(field.grid, (0.0,), 2.0)
        K, mass = _hardy_pencil(field, ball, delta)
        for tol in (1e-14, 1e-16, 1e-18):
            try:
                sol = _hardy_solve(field, ball, delta, tol)
            except SolverDiverged:
                continue
            b, v = sol.quotient, sol.vector
            res = K @ v - b * mass * v
            assert res @ (res / mass) <= tol * b * b


def test_hardy_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr("snowcap.forms._MAX_LOBPCG_ITERS", 0)
    with pytest.raises(SolverDiverged, match="exceeded 0 iterations"):
        hardy_quotient(line_field(1000), 0.5, (0.0,), 1.0)
    monkeypatch.setattr("snowcap.forms._MAX_LOBPCG_ITERS", 20)
    b = hardy_quotient(line_field(1000), 0.5, (0.0,), 1.0)
    assert b > 0


def test_hardy_validation():
    # the solver options are checked before the ball is built: a ball that
    # holds no cell would raise EmptyRegion
    field = line_field(1000)
    for tol in (0.0, -1e-6, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            hardy_quotient(field, 0.5, (5.0,), 0.1, tol=tol)
    for delta in (-1.0, np.nan):
        with pytest.raises(ValueError, match="delta must be >= 0"):
            hardy_quotient(field, delta, (5.0,), 0.1)
    with pytest.raises(EmptyRegion):
        hardy_quotient(field, 0.5, (5.0,), 0.1)


@pytest.mark.parametrize("z", [(0.5, 0.3, 99.0), (0.5,)], ids=["3-coords", "1-coord"])
def test_ball_centre_has_one_coordinate_per_axis(z, koch128):
    # every ball around z refuses a centre of another dimension
    for measure in (lambda: hardy_quotient(koch128, 0.5, z, 0.3),
                    lambda: collar_integral(koch128, 0.5, z, 0.3, 0.1),
                    lambda: uniformity_estimate(koch128, z, 0.3)):
        with pytest.raises(ValueError, match="z must have 2 coordinates"):
            measure()


def test_hardy_2d_matches_dense_eigensolver(centers):
    # independent per-cell build of the closed stiffness/mass pencil on a
    # Koch ball cut by the boundary (1398 cells): every face that does not
    # join two cells of the ball gets the closure weight 2 c_i h^(d-2)
    geom = koch_snowflake(1 / 3, 4)
    field = distance_field(geom, build_grid(geom, 64))
    lo, hi = geom.bounds()
    z, r, delta = 0.5 * (lo + hi) + np.array([0.1, 0.0]), 0.4, 1.0
    grid = field.grid
    h = grid.h
    dist = np.maximum(np.minimum(field.values, 1.0), h / 2)
    c = dist**delta
    pts = centers(grid).reshape(grid.dims + (2,))
    ball = grid.omega_mask & (np.linalg.norm(pts - z, axis=-1) < r)
    cells = list(zip(*np.nonzero(ball)))
    pos = {cell: k for k, cell in enumerate(cells)}
    stiff = np.zeros((len(cells), len(cells)))
    mass = np.zeros(len(cells))
    closed = {"outside the domain": 0, "beyond the ball": 0}
    for k, (i, j) in enumerate(cells):
        mass[k] = h**2 * dist[i, j] ** (delta - 2)
        for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if nb in pos:
                w = (c[i, j] + c[nb]) / 2
                stiff[k, k] += w
                stiff[k, pos[nb]] -= w
            else:
                stiff[k, k] += 2 * c[i, j]
                inside = all(0 <= x < n for x, n in zip(nb, grid.dims)) and grid.omega_mask[nb]
                closed["beyond the ball" if inside else "outside the domain"] += 1
    assert len(cells) == 1398 and min(closed.values()) > 0
    ref = eigh(stiff, np.diag(mass), eigvals_only=True, subset_by_index=[0, 0])[0]
    b = hardy_quotient(field, delta, z, r, tol=1e-10)
    assert abs(b - ref) <= 1e-8 * ref
    # the default tol, a squared relative residual of 1e-6, already lands
    # within 1e-8 of the dense answer
    b = hardy_quotient(field, delta, z, r)
    assert abs(b - ref) <= 1e-8 * ref


def test_hardy_vector_consistency():
    field = line_field(4000)
    res = _hardy_solve(field, _ball(field.grid, (0.0,), 1.0), 0.5, 1e-6)
    b, vec = res.quotient, res.vector
    x = field.grid.axis_centers(0)
    mass = field.grid.h * np.maximum(x, field.grid.h / 2) ** (0.5 - 2.0)
    assert abs(float(mass @ vec**2) - 1.0) <= 1e-8
    assert b > 0
    # ground state of the positive pencil has a single sign
    assert vec.min() >= -1e-10 or vec.max() <= 1e-10


def test_hardy_koch_floor_stability():
    # delta below the critical order: quotient sits on a positive floor
    g4 = koch_snowflake(1 / 3, 4)
    g5 = koch_snowflake(1 / 3, 5)
    b_coarse = hardy_quotient(distance_field(g4, build_grid(g4, 96)), 0.5, (0.0, 0.0), 0.4)
    b_fine = hardy_quotient(distance_field(g5, build_grid(g5, 192)), 0.5, (0.0, 0.0), 0.4)
    assert b_coarse > 0.05 and b_fine > 0.05
    assert max(b_coarse, b_fine) / min(b_coarse, b_fine) < 2.0


def test_hardy_region_growth_lowers_quotient(koch128):
    small = hardy_quotient(koch128, 0.5, (0.0, 0.0), 0.3)
    large = hardy_quotient(koch128, 0.5, (0.0, 0.0), 0.55)
    assert large <= small * 1.05


def test_hardy_empty_region_raises(koch128):
    with pytest.raises(EmptyRegion):
        hardy_quotient(koch128, 0.5, (50.0, 50.0), 0.1)


BALL_MEASUREMENTS = {
    "hardy": lambda f: hardy_quotient(f, 1.0, (0.5, 0.05), 0.05),
    "collar": lambda f: collar_integral(f, 1.0, (0.5, 0.05), 0.05, 0.01),
    "uniformity": lambda f: uniformity_estimate(f, (0.5, 0.05), 0.05, n_pairs=4),
}


@pytest.mark.parametrize("measure", BALL_MEASUREMENTS.values(), ids=BALL_MEASUREMENTS.keys())
def test_ball_measurements_memory_is_bounded(measure):
    # a 2,000-cell ball on a 512 x 512 square: the ball's mask is one byte a
    # cell and all other work is ball-sized (peaks of 6.1, 1.2 and 5.5 bytes a
    # cell); grid-sized index, coordinate or vector arrays break the 12-byte bound
    n = 512
    grid = Grid((0.0, 0.0), 1.0 / n, (n, n), np.ones((n, n), dtype=bool))
    edge = np.minimum(grid.axis_centers(0), 1.0 - grid.axis_centers(0))
    field = DistanceField(grid, np.minimum(edge[:, None], edge[None, :]), 0.0, np.sqrt(2.0))
    measure(field)  # scipy's imports, outside the trace
    tracemalloc.start()
    try:
        measure(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * grid.n_cells


BALL_CALLS = {
    "ball": lambda f: _ball(f.grid, (0.5, 0.5), 0.01),
    "hardy": lambda f: hardy_quotient(f, 1.0, (0.5, 0.5), 0.01),
    "collar": lambda f: collar_integral(f, 1.0, (0.5, 0.5), 0.01, 0.002),
    "uniformity": lambda f: uniformity_estimate(f, (0.5, 0.5), 0.01, n_pairs=4),
}


@pytest.mark.parametrize("call", BALL_CALLS.values(), ids=BALL_CALLS.keys())
def test_ball_work_is_sized_by_the_ball(call):
    # a 1,304-cell ball on a 2048 x 2048 all-domain grid: the ball and every
    # measurement on it stay on the ball's bounding box, so any grid-sized
    # array, even a one-byte mask, breaks the bound of a quarter byte a cell
    n = 2048
    grid = Grid((0.0, 0.0), 1.0 / n, (n, n), np.ones((n, n), dtype=bool))
    edge = np.minimum(grid.axis_centers(0), 1.0 - grid.axis_centers(0))
    field = DistanceField(grid, np.minimum(edge[:, None], edge[None, :]), 0.0, np.sqrt(2.0))
    call(field)  # scipy's imports, outside the trace
    tracemalloc.start()
    try:
        call(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * grid.n_cells


# --- collar integrals --------------------------------------------------------------


def test_collar_delta2_gives_region_volume(koch256, centers):
    grid = koch256.grid
    pts = centers(grid)
    x, y = grid.axis_centers(0), grid.axis_centers(1)
    balls = [
        ((0.0, 0.0), 0.5),
        ((x[40], y[100]), x[52] - x[40]),  # cells exactly rho away along axis 0 stay out
        ((x[0], y[-1]), 0.3),  # the box is cut by two edges of the grid
        ((-1.5, 0.1), 1.6),  # a centre off the grid
        ((0.0, 0.0), np.inf),  # every domain cell
    ]
    for z, rho in balls:
        region = grid.omega_mask.ravel() & (np.linalg.norm(pts - z, axis=1) < rho)
        box, on_box = _ball(grid, z, rho)
        ball = np.zeros(grid.dims, dtype=bool)
        ball[box] = on_box
        assert (ball.ravel() == region).all()
        vol = collar_integral(koch256, 2.0, z, rho, 8 * grid.h)
        assert abs(vol - grid.h**2 * int(region.sum())) <= 1e-12
    # a NaN radius or centre coordinate holds no cell, and warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z, rho in [((0.0, 0.0), np.nan), ((np.nan, 0.0), 0.5), ((0.0, np.nan), np.inf)]:
            with pytest.raises(EmptyRegion):
                _ball(grid, z, rho)


def test_collar_monotonicities(koch256):
    h = koch256.grid.h
    z = (0.0, 0.0)
    # regularization level tau: smaller tau exposes more of the singularity
    v8 = collar_integral(koch256, 0.5, z, 0.6, 8 * h)
    v16 = collar_integral(koch256, 0.5, z, 0.6, 16 * h)
    v32 = collar_integral(koch256, 0.5, z, 0.6, 32 * h)
    assert v8 >= v16 >= v32 > 0
    # window radius rho: larger windows collect more cells
    small = collar_integral(koch256, 0.5, z, 0.3, 8 * h)
    assert small <= v8


def test_collar_divergence_and_convergence_smoke(koch256):
    h = koch256.grid.h
    z = (0.0, 0.0)
    taus = np.geomspace(8 * h, 64 * h, 7)
    vals = [collar_integral(koch256, 0.5, z, 0.6, t) for t in taus]
    slope = np.polyfit(np.log(taus), np.log(vals), 1)[0]
    assert -1.35 < slope < -0.45
    v16 = collar_integral(koch256, 2.2, z, 0.6, 16 * h)
    v8 = collar_integral(koch256, 2.2, z, 0.6, 8 * h)
    assert abs(v8 - v16) / v16 < 0.10


def test_collar_validation(koch256):
    with pytest.raises(ValueError):
        collar_integral(koch256, 0.5, (0.0, 0.0), 0.1, 0.2)
    with pytest.raises(ValueError):
        collar_integral(koch256, 0.5, (0.0, 0.0), 0.1, 0.0)
    with pytest.raises(ValueError, match="delta must be >= 0"):
        collar_integral(koch256, -1.0, (0.5, 0.3), 0.2, 0.05)
    with pytest.raises(EmptyRegion):
        collar_integral(koch256, 0.5, (40.0, 40.0), 0.1, 0.05)
