"""Degenerate quadratic forms, capacity estimates, and Hardy quotients.

The discrete energy is h(phi) = sum over axis-neighbor pairs of in-domain
cells of h^(d-2) * mean(c_i, c_j) * (phi_i - phi_j)^2 with cell weights
c = clamp(d_Gamma)^delta vanishing at the boundary. A form stores these
weights as one grid-shaped array per axis, one weight per cell face, and
the capacity and Hardy matrices are written row by row from the faces
between their unknowns. On top of the form sit the two capacity estimates
(explicit log-profile test functions and the relaxed collar-constrained
minimization), the local Hardy quotient as a generalized eigenvalue
problem, and the tau-regularized collar integral whose blow-up rate
separates the degeneracy regimes. The capacity and Hardy systems share one
smoothed-aggregation multigrid hierarchy: the capacity solve is conjugate
gradients preconditioned by its V-cycle, the Hardy quotient LOBPCG with the
same V-cycle as preconditioner, stopped on the squared relative
eigen-residual. The two small dense steps, the coarsest level's solve and
LOBPCG's Rayleigh-Ritz step, run on numpy's linear algebra, so the solvers
use scipy.sparse alone and never load scipy.linalg's own BLAS. scipy is
imported inside the functions that use it, so importing snowcap loads numpy
alone and scipy loads on first use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyRegion, SolverDiverged
from .geomfield import DistanceField, Grid, _ball

__all__ = [
    "SparseForm",
    "CapacityResult",
    "weight_field",
    "assemble_form",
    "eta_rn",
    "capacity_upper_eta",
    "capacity_relaxed",
    "capacity_ladder",
    "hardy_quotient",
    "collar_integral",
]


def _clamped(dist: np.ndarray, h: float) -> np.ndarray:
    """dist capped at 1 and floored at h/2, in one new array."""
    out = np.minimum(dist, 1.0)
    return np.maximum(out, h / 2.0, out=out)


def _check_delta(delta: float) -> None:
    if not delta >= 0:
        raise ValueError("degeneracy order delta must be >= 0")


def weight_field(field: DistanceField, delta: float) -> np.ndarray:
    """Cellwise diffusion weight c = clamp(d_Gamma)^delta.

    The distance is capped at 1 (far-field weight is 1) and floored at h/2
    so boundary-adjacent cells keep a positive weight of the right order.
    Computed in one array: the clamp, then the power in place.
    """
    _check_delta(delta)
    c = _clamped(field.values, field.grid.h)
    c **= delta
    return c


def _pairs(mask: np.ndarray):
    """Per axis ax: the index of the cells k with a neighbour k + e_ax, that
    of those neighbours, and where both lie in the mask."""
    for ax in range(mask.ndim):
        lo = tuple(slice(None, -1) if k == ax else slice(None) for k in range(mask.ndim))
        hi = tuple(slice(1, None) if k == ax else slice(None) for k in range(mask.ndim))
        yield lo, hi, mask[lo] & mask[hi]


@dataclass(frozen=True)
class SparseForm:
    """Symmetric nonnegative quadratic form on a grid's nearest-neighbour
    stencil. faces[ax] is grid-shaped: at cell k, the weight of the face
    between k and k + e_ax, 0 on the last layer along ax and where either
    side is outside the domain. grid is the grid the form was assembled on.
    """

    faces: tuple
    grid: Grid

    def energy(self, phi: np.ndarray) -> float:
        """h(phi) for a grid function (flat or grid-shaped): one dot product
        over the faces between domain cells per axis, summed in axis order."""
        p = np.asarray(phi, dtype=float).reshape(self.grid.dims)
        return float(sum(np.dot(f[lo][on], (p[lo][on] - p[hi][on]) ** 2)
                         for f, (lo, hi, on) in zip(self.faces, _pairs(self.grid.omega_mask))))


def _faces(c: np.ndarray, mask: np.ndarray, h: float) -> tuple:
    """Face weights h^(d-2) * (c_k + c_{k+e_ax}) / 2 of the cell weights c on
    the grid or a ball's box, per axis, 0 where either side is outside mask.
    Each face is written in place: the sum, the scale, then the zeros."""
    faces = tuple(np.zeros(c.shape) for _ in range(c.ndim))
    for f, (lo, hi, both) in zip(faces, _pairs(mask)):
        face = f[lo]
        np.add(c[lo], c[hi], out=face)
        face *= h ** (c.ndim - 2) * 0.5
        np.copyto(face, 0.0, where=~both)
    return faces


def assemble_form(field: DistanceField, delta: float) -> SparseForm:
    """Second-order form with degenerate weights on the domain cells: the
    face between in-domain axis neighbours i and j weighs h^(d-2) (c_i + c_j)/2.
    """
    grid = field.grid
    return SparseForm(_faces(weight_field(field, delta), grid.omega_mask, grid.h), grid)


def _restrict(faces, keep: np.ndarray, term, layout=None):
    """The form of the faces plus a per-cell term on the cells of the mask
    keep, shaped like the faces, unknown k the k-th kept cell in flat order,
    and per kept cell the weight of its faces to the other cells.

    Both add up-faces by axis, then down-faces by axis: the diagonal is the
    term plus the outer faces, then plus the faces to kept cells. Each CSR
    row is written in column order: down axes 0..d-1, diagonal, up d-1..0.
    Only the values depend on the faces: layout, the (indices, indptr) of an
    earlier matrix on the same mask, is shared instead of derived again.
    """
    from scipy.sparse import csr_matrix

    d = keep.ndim
    outer = np.zeros(keep.shape)
    for up in (True, False):
        for f, (lo, hi, _) in zip(faces, _pairs(keep)):
            near, far = (lo, hi) if up else (hi, lo)
            outer[near] += f[lo] * ~keep[far]
    outer = outer[keep]
    m = len(outer)
    index = np.int32 if (2 * d + 1) * m <= np.iinfo(np.int32).max else np.int64
    rank = np.cumsum(keep, dtype=index).reshape(keep.shape) - 1
    # row slots in column order, the diagonal in slot d; the columns only
    # where no layout is given, and read only in the slots that hold an entry
    vals = np.zeros((m, 2 * d + 1))
    cols = np.empty((m, 2 * d + 1), dtype=index) if layout is None else None
    for ax, (lo, hi, both) in enumerate(_pairs(keep)):
        i, j = rank[lo][both], rank[hi][both]
        vals[i, 2 * d - ax] = vals[j, ax] = -faces[ax][lo][both]
        if cols is not None:
            cols[i, 2 * d - ax], cols[j, ax] = j, i
    del rank, i, j
    full = term + outer
    for slot in (*range(2 * d, d, -1), *range(d)):  # up-faces (2d - ax), down (ax)
        full -= vals[:, slot]
    vals[:, d] = full
    del full
    # the slots that hold an entry: the diagonal, and slot ax (2d - ax) where
    # the cell below (above) along ax is kept
    has = np.ones((m, 2 * d + 1), dtype=bool)
    for ax, (lo, hi, both) in enumerate(_pairs(keep)):
        for slot, side in ((2 * d - ax, lo), (ax, hi)):
            on = np.zeros(keep.shape, dtype=bool)
            on[side] = both
            has[:, slot] = on[keep]
    del on
    # each slot table is freed as soon as it is compacted
    data = vals[has]
    del vals
    if cols is not None:
        cols[:, d] = np.arange(m)
        # the running count of filled slots, read at each row's last slot
        indptr = np.zeros(m + 1, dtype=index)
        indptr[1:] = np.cumsum(has.ravel(), dtype=index)[2 * d::2 * d + 1]
        layout = (cols[has], indptr)
        del cols
    return csr_matrix((data, *layout), shape=(m, m)), outer


# smoothed aggregation: cells per aggregate along each axis (2 densifies the
# coarse stencils to ~35 nonzeros per row two levels down and more than
# doubles the hierarchy's memory), the largest level solved directly (its
# dense inverse takes 0.7 ms at 150 rows but 9.4 ms at 400, one BLAS thread),
# the weight of the Jacobi smoother, and the iteration caps of PCG and LOBPCG,
# which only detect stalls (both converge in tens of iterations)
_AGG = 3
_COARSE_ROWS = 150
_SMOOTH_W = 0.6
_MAX_PCG_ITERS = 500
_MAX_LOBPCG_ITERS = 200

# a capacity minimizer that leaves [0, 1] is continued from its iterate at
# cg_tol times _TIGHTEN, then _TIGHTEN^2, before it is refused: a solve that
# met cg_tol = 1e-6 overshoots 1 by 1.9e-6 on a 16384-cell line at delta 0,
# and one continuation at 1e-8 brings it inside in two more iterations
_TIGHTEN = 1e-2
_RETRIES = 2

# LOBPCG drops a search direction when the smallest eigenvalue of the mass
# Gram matrix of its M-normalized basis falls to this floor, about the square
# root of machine epsilon. On 4,000- to 40,000-cell lines (delta 0 to 2) the
# tightest tol reached is then 1e-14 or better; with a floor of 1e-12, 1e-12.
_GRAM_FLOOR = 1e-8


def _prolongator(A: csr_matrix, diag: np.ndarray, coords: np.ndarray):
    """Smoothed prolongator P = P0 - (2/3) D^-1 A P0 of the aggregates that
    group the unknowns of each 3^d block of cells, and the block coordinates
    of the aggregates. diag is D, the diagonal of A. The block keys and the
    aggregate of each unknown are freed before the product A P0, and P0 is
    built on A's index type."""
    from scipy.sparse import csr_matrix

    n, index = A.shape[0], A.indptr.dtype
    block = np.asarray(coords) // _AGG
    dims = tuple(block.max(axis=0) + 1)
    keys = np.ravel_multi_index(block.T, dims)
    del block
    aggs, agg = np.unique(keys, return_inverse=True)
    del keys
    P0 = csr_matrix((np.ones(n), agg.astype(index), np.arange(n + 1, dtype=index)),
                    shape=(n, len(aggs)))
    del agg
    AP0 = A @ P0
    AP0.data *= np.repeat(2.0 / 3.0 / diag, np.diff(AP0.indptr))
    return P0 - AP0, np.stack(np.unravel_index(aggs, dims), axis=1)


def _residual(A, x, r):
    """r - A x, formed in the one work array A @ x."""
    t = A @ x
    return np.subtract(r, t, out=t)


def _smooth(A, wd, x, r):
    """One damped-Jacobi step x += wd (r - A x), in place."""
    t = _residual(A, x, r)
    t *= wd
    x += t


def _vcycle(levels, coarse, r):
    """One V(2,2) cycle on A x = r from x = 0, levels[0] the finest."""
    if not levels:
        return coarse(r)
    A, wd, P, R = levels[0]
    x = wd * r
    _smooth(A, wd, x, r)
    x += P @ _vcycle(levels[1:], coarse, R @ _residual(A, x, r))
    for _ in range(2):
        _smooth(A, wd, x, r)
    return x


def _hierarchy(A: csr_matrix, coords: np.ndarray | None = None, skeleton=None):
    """Smoothed-aggregation multigrid hierarchy of an SPD matrix (Vanek,
    Mandel and Brezina, Computing 56, 1996) for `_vcycle`.

    Each level A_k passes the Galerkin operator R A_k P, R = P^T, down to a
    level of at most _COARSE_ROWS rows. P is either built from coords, unknown
    k sitting on the integer grid cell coords[k]: the unknowns of every 3^d
    block of cells form one aggregate, whose piecewise-constant prolongator
    P0 is smoothed by one damped-Jacobi step, P = P0 - (2/3) D^-1 A P0; or it
    is skeleton[k], the prolongators of an earlier hierarchy on the same
    unknowns. The coarsest level is checked positive definite by a dense
    Cholesky factorization and inverted once, so its solve is one small
    matrix-vector product. Returns the levels above the coarsest, finest
    first, as (A_k, w D_k^-1, P, R), and the coarsest level's solve.
    """
    diag = A.diagonal()
    if not diag.min() > 0:  # weights that underflow at large delta
        raise SolverDiverged("a matrix row has no weight: the form's weights underflow")
    levels = []
    while A.shape[0] > _COARSE_ROWS:
        if skeleton is None:
            P, coords = _prolongator(A, diag, coords)
        else:
            P = skeleton[len(levels)]
        R = P.T.tocsr()
        levels.append((A, _SMOOTH_W / diag, P, R))
        A = R @ (A @ P)
        diag = A.diagonal()
    dense = A.toarray()
    try:
        np.linalg.cholesky(dense)
    except np.linalg.LinAlgError as err:  # weights spread too widely, e.g. 1e-262 to 1
        raise SolverDiverged(f"coarsest multigrid level is not positive definite: {err}") from err
    inverse = np.linalg.inv(dense)
    return levels, lambda r: inverse @ r


def _spd_solver(A: csr_matrix, hierarchy):
    """Conjugate gradients preconditioned by one V(2,2) cycle of the
    multigrid hierarchy (levels, coarse solve) of A from `_hierarchy`.

    Returns solve(b, x0, rtol) -> (x, iterations), which raises
    SolverDiverged on a stall, and the number of levels. The loop is scipy's
    `cg` (1.17) step for step, stopped when ||r|| < rtol ||b||; between
    V-cycles it holds only the iterate x, the residual r and the direction p.
    """
    levels, coarse = hierarchy

    def solve(b, x0=None, rtol=1e-8):
        bnorm = np.linalg.norm(b)
        if bnorm == 0:
            return b, 0
        x = np.zeros(len(b)) if x0 is None else np.array(x0, dtype=float)
        r = b - A @ x if x.any() else b.copy()
        p = rho_prev = None
        for iters in range(_MAX_PCG_ITERS):
            if np.linalg.norm(r) < rtol * bnorm:
                return x, iters
            z = _vcycle(levels, coarse, r)
            rho = np.dot(r, z)
            if p is None:
                p = z
            else:
                p *= rho / rho_prev
                p += z
            del z
            q = A @ p
            alpha = rho / np.dot(p, q)
            q *= alpha
            r -= q
            x += np.multiply(p, alpha, out=q)
            del q
            rho_prev = rho
        resid = float(np.linalg.norm(A @ x - b) / bnorm)
        raise SolverDiverged(
            f"conjugate gradients stalled at residual {resid:.3e} after {_MAX_PCG_ITERS} iterations"
        )

    return solve, len(levels) + 1


# --- capacity test functions ---------------------------------------------------


def eta_rn(field: DistanceField, r: float, n: int) -> np.ndarray:
    """Log-profile cutoff in the boundary distance d: 1 inside d <= r/n, 0
    outside d > r, -log(d/r)/log n in between. Zero on out-of-domain cells."""
    # written so that a NaN fails too, as in `_check_delta`
    if not n >= 2:
        raise ValueError("profile steepness n must be >= 2")
    if not r > 0:
        raise ValueError("outer radius r must be positive")
    d = field.values
    with np.errstate(divide="ignore", invalid="ignore"):
        band = -np.log(d / r) / np.log(n)
    eta = np.where(d <= r / n, 1.0, np.clip(band, 0.0, 1.0))
    eta[~field.grid.omega_mask] = 0.0
    return eta


def capacity_upper_eta(field: DistanceField, delta: float, r_list, n_list) -> float:
    """Best explicit upper bound min over (r, n) of h(eta) + ||eta||^2."""
    r_list, n_list = list(r_list), list(n_list)
    if not r_list or not n_list:
        raise ValueError("candidate lists must be nonempty")
    form = assemble_form(field, delta)
    hd = field.grid.h**field.grid.dim

    def bound(r, n):
        eta = eta_rn(field, r, n)
        return form.energy(eta) + hd * float(np.sum(eta.ravel() ** 2))

    return float(min(bound(r, n) for r in r_list for n in n_list))


# --- relaxed capacity ------------------------------------------------------------


@dataclass(frozen=True)
class CapacityResult:
    """Outcome of the collar-constrained graph-norm minimization.

    solver_iters counts preconditioned CG iterations and levels the depth
    of the multigrid hierarchy (0 when the collar leaves no free cell).
    """

    value: float
    collar_eps: float
    solver_iters: int
    residual: float
    levels: int
    psi: np.ndarray | None = None


def _check_capacity(h: float, eps: float, cg_tol: float) -> None:
    """The options `capacity_relaxed` refuses on a grid of cell size h."""
    if not eps >= 2.0 * h:
        raise ValueError("collar width eps must be at least two cells")
    if not 0 < cg_tol < np.inf:
        raise ValueError("cg_tol must be positive and finite")


def capacity_relaxed(
    field: DistanceField,
    delta: float,
    eps: float,
    cg_tol: float = 1e-8,
    x0: np.ndarray | None = None,
) -> CapacityResult:
    """Minimize h(psi) + ||psi||^2 over psi = 1 on the collar {d < eps}, d the boundary distance.

    The free-cell system is symmetric positive definite and solved by
    conjugate gradients preconditioned with a smoothed-aggregation
    multigrid cycle, to relative residual cg_tol, which must be positive and
    finite; a solve that stalls raises SolverDiverged. x0 optionally
    warm-starts the solver with a full-grid flat or grid-shaped guess, which
    must be finite on the cells the solve reads. The minimizer must land in
    [0, 1] by the discrete maximum principle; this is checked, not enforced.
    A solve that leaves [0, 1] by more than 1e-8 is continued from its
    iterate at tighter tolerances (`_TIGHTEN`, `_RETRIES`) and raises
    SolverDiverged only if it is still outside; solver_iters counts every
    iteration. This is the one-rung `capacity_ladder`.
    """
    return next(capacity_ladder(field, [delta], eps, cg_tol, x0))


def capacity_ladder(field: DistanceField, deltas, eps: float, cg_tol: float = 1e-8,
                    x0: np.ndarray | None = None):
    """`capacity_relaxed(field, delta, eps, cg_tol, x0)` for each delta of
    deltas in turn, yielded as each rung is solved, on one multigrid skeleton.

    The collar, the free cells and the CSR layout of their matrix are found
    once. The smallest delta's hierarchy is built as `capacity_relaxed`
    builds it, and its prolongators are kept: every rung forms only its own
    Galerkin operators, diagonals and coarsest inverse over them. Smoothed
    at the smallest delta they serve the larger deltas about as well as
    their own (at most one more CG iteration on the tested Koch, dust and
    Vicsek boundaries), while smoothed at the largest they serve the
    smaller deltas worse (15-17 iterations against 12-13). So the smallest
    delta's rung is bitwise `capacity_relaxed`'s, in any order of deltas,
    and every other rung agrees with it to the solve's tolerance. A rung is
    solved only when it is drawn. The options are checked, and the collar
    found, when the ladder is made.
    """
    deltas = [float(delta) for delta in deltas]
    if not deltas:
        raise ValueError("a capacity ladder needs at least one delta")
    for delta in deltas:
        _check_delta(delta)
    grid = field.grid
    _check_capacity(grid.h, eps, cg_tol)
    mask = grid.omega_mask
    collar = mask & (field.values < eps)
    if not collar.any():
        raise EmptyRegion("no in-domain cell lies inside the collar")
    free = mask & ~collar
    guess = None if x0 is None else np.asarray(x0, dtype=float).reshape(grid.dims)[free]
    if guess is not None and not np.isfinite(guess).all():
        raise ValueError("warm start x0 must be finite on the free cells")
    return _ladder(field, deltas, float(eps), cg_tol, collar, free, guess)


def _collar_system(field: DistanceField, delta: float, free: np.ndarray, layout=None):
    """The free-cell matrix of the capacity at delta and its right-hand side:
    a face from a free cell to another domain cell ends on the collar, where
    psi = 1. The form's faces are freed once the matrix is written."""
    grid = field.grid
    return _restrict(assemble_form(field, delta).faces, free, grid.h**grid.dim, layout)


def _ladder(field, deltas, eps, cg_tol, collar, free, guess):
    """`capacity_ladder`'s rungs, its options checked."""
    grid = field.grid
    mask, hd = grid.omega_mask, grid.h**grid.dim
    if not free.any():
        for _ in deltas:
            yield CapacityResult(hd * int(collar.sum()), eps, 0, 0.0, 0, collar.astype(float))
        return

    low = min(deltas)
    A, b = _collar_system(field, low, free)
    # the cells' coordinates are a temporary, freed by the hierarchy's first level
    hierarchy = _hierarchy(A, np.argwhere(free))
    # the prolongators alone: R = P^T is formed again by each rung, since
    # kept beside P through a sweep it raised the peak RSS by ~2 MB (heap
    # fragmentation: the traced peak did not move)
    skeleton, layout = [level[2] for level in hierarchy[0]], (A.indices, A.indptr)
    if deltas[0] != low:  # the smallest delta's own system serves a first rung only
        del A, b, hierarchy
    for k, delta in enumerate(deltas):
        if k or delta != low:
            A, b = _collar_system(field, delta, free, layout)
            hierarchy = _hierarchy(A, skeleton=skeleton)
        if k == len(deltas) - 1:  # the last rung's matrix and levels hold what it needs
            skeleton = layout = None
        solve, levels = _spd_solver(A, hierarchy)
        del hierarchy
        sol, iters = solve(b, guess, cg_tol)
        for retry in range(_RETRIES + 1):
            lo, over = float(sol.min()), float(sol.max()) - 1.0
            if lo >= -1e-8 and over <= 1e-8:
                break
            if retry == _RETRIES:
                raise SolverDiverged(
                    f"minimizer leaves [0,1] (min {lo:.3e}, max - 1 {over:.3e}) at cg_tol "
                    f"{cg_tol * _TIGHTEN**retry:.3e}: maximum principle violated, "
                    "solution untrusted"
                )
            sol, more = solve(b, sol, cg_tol * _TIGHTEN ** (retry + 1))
            iters += more
        bnorm = np.linalg.norm(b)  # 0 if every weight underflows; CG then returns psi = 0 exactly
        resid = float(np.linalg.norm(A @ sol - b) / bnorm) if bnorm > 0 else 0.0
        del A, b, solve  # the matrix and its hierarchy, before the energy's temporaries
        psi = collar.astype(float)
        psi[free] = sol
        del sol
        value = assemble_form(field, delta).energy(psi) + hd * float(np.sum(psi[mask] ** 2))
        yield CapacityResult(value, eps, iters, resid, levels, psi)
        del psi  # the caller holds the result; the next rung does not


# --- local Hardy quotient ---------------------------------------------------------


def hardy_quotient(field: DistanceField, delta: float, z, r: float, tol: float = 1e-6) -> float:
    """Smallest Rayleigh quotient h(phi) / sum h^d clamp(d)^(delta-2) phi^2
    over functions supported on the in-domain cells within r of z.

    The support constraint closes every face toward excluded cells with a
    half-cell Dirichlet weight 2 c_i h^(d-2), making the stiffness matrix K
    positive definite; only the ball is assembled. The smallest eigenvalue
    of the pencil K v = lambda M v (M the diagonal mass) is found by
    block-size-1 LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001): each
    iteration applies one smoothed-aggregation V-cycle on K to the residual
    and takes the Rayleigh-Ritz minimum over the iterate, that direction and
    the previous step. It stops once the squared relative residual
    (||K v - lambda M v||_{M^-1} / lambda)^2 is at most tol; that bounds the
    relative eigenvalue error by tol times lambda over the spectral gap
    (Kato-Temple). It raises SolverDiverged past `_MAX_LOBPCG_ITERS`
    iterations, when the mass underflows to 0 on a ball cell, or when the
    search directions lose rank, which is also how a tol below the
    attainable accuracy ends. A negative or NaN delta, or a tol that is not
    positive and finite, raises ValueError before the ball is built.
    """
    _check_delta(delta)
    _check_hardy(tol)
    return _hardy_solve(field, _ball(field.grid, z, r), delta, tol).quotient


@dataclass(frozen=True)
class _HardyResult:
    """`hardy_quotient`'s solve: the quotient, the LOBPCG iterations, the
    relative residual, the number of multigrid levels and the M-normalized
    eigenvector, one entry per ball cell in C order."""

    quotient: float
    iterations: int
    residual: float
    levels: int
    vector: np.ndarray


def _check_hardy(tol: float) -> None:
    """The solver option `hardy_quotient` refuses."""
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")


def _hardy_pencil(field: DistanceField, region: tuple, delta: float):
    """The closed stiffness matrix K and the diagonal mass M on the (box,
    ball) region of `_ball`, unknown k its k-th cell in C order; only the box
    is assembled. A function of its own so that the assembly's temporaries
    are freed before the solve."""
    h, d = field.grid.h, field.grid.dim
    box, ball = region
    dist = _clamped(field.values[box], h)
    c = dist**delta
    # faces toward anything outside the support region get the closure weight
    closed = np.full(ball.shape, 2.0 * d)
    for lo, hi, both in _pairs(ball):
        closed[lo] -= both
        closed[hi] -= both
    K, _ = _restrict(_faces(c, ball, h), ball, closed[ball] * 2.0 * c[ball] * h ** (d - 2))
    return K, h**d * dist[ball] ** (delta - 2.0)


def _ritz(gk: np.ndarray, gm: np.ndarray) -> np.ndarray:
    """The eigenvector c of the smallest eigenvalue of the small pencil
    gk c = mu gm c, gm-normalized, by Cholesky reduction: with gm = L L^T,
    y is the first eigenvector of L^-1 gk L^-T and c = L^-T y."""
    Li = np.linalg.inv(np.linalg.cholesky(gm))
    y = np.linalg.eigh(Li @ gk @ Li.T)[1][:, 0]
    return Li.T @ y


def _hardy_solve(field: DistanceField, region: tuple, delta: float, tol: float) -> _HardyResult:
    """`hardy_quotient` on the (box, ball) region of `_ball`, its options
    already checked."""
    K, mass = _hardy_pencil(field, region, delta)
    box, ball = region
    # grid coordinates, not box ones: the 3^d aggregates are aligned to the grid
    levels, coarse = _hierarchy(K, np.argwhere(ball) + [s.start for s in box])
    # at large delta h^d dist^(delta-2) underflows while K's diagonal does not
    if not mass.min() > 0:
        raise SolverDiverged(f"the Hardy mass underflows to 0 on "
                             f"{np.count_nonzero(mass == 0)} of {len(mass)} ball cells")

    # rows of S: the M-normalized iterate x, the preconditioned residual w and
    # the last step p; rows of KS their images under K. K x and K p follow x
    # and p by the same recurrences, and a residual that passes is confirmed
    # on a fresh product K x. The rows are updated in place: new arrays each
    # iteration left the process's peak RSS ~2 MB higher on a 61k-cell ball.
    S, KS = np.empty((3, len(mass))), np.empty((3, len(mass)))
    x, kx = S[0], KS[0]
    x[:] = 1.0 / np.sqrt(mass.sum())
    kx[:] = K @ x
    fresh = True
    rows = 2  # no step p before the first iteration
    iters = 0
    while True:
        lam = float(x @ kx)
        res = kx - lam * mass * x
        resid = float(np.sqrt(res @ (res / mass))) / lam
        if resid * resid <= tol:
            if fresh:
                break
            kx[:], fresh = K @ x, True
            continue
        if iters >= _MAX_LOBPCG_ITERS:
            raise SolverDiverged(
                f"LOBPCG exceeded {_MAX_LOBPCG_ITERS} iterations at relative residual {resid:.3e}"
            )
        iters += 1
        w = _vcycle(levels, coarse, res)
        S[1] = w / np.sqrt(w @ (mass * w))
        KS[1] = K @ S[1]
        gk, gm = S[:rows] @ KS[:rows].T, (S[:rows] * mass) @ S[:rows].T
        # a nearly singular Gram matrix: p, then w adds no new direction;
        # with x alone the step is zero
        k = rows
        while k > 1 and np.linalg.eigvalsh(gm[:k, :k])[0] <= _GRAM_FLOOR:
            k -= 1
        coef = _ritz(gk[:k, :k], gm[:k, :k])
        p, kp = coef[1:] @ S[1:k], coef[1:] @ KS[1:k]
        step = np.sqrt(p @ (mass * p))
        if not step > 0:
            raise SolverDiverged(
                f"LOBPCG search directions lost rank at relative residual {resid:.3e}"
            )
        x *= coef[0]
        x += p
        kx *= coef[0]
        kx += kp
        scale = np.sqrt(x @ (mass * x))
        x /= scale
        kx /= scale
        S[2], KS[2], rows, fresh = p / step, kp / step, 3, False

    return _HardyResult(lam, iters, resid, len(levels) + 1, x.copy())


# --- collar integral ---------------------------------------------------------------


def collar_integral(field: DistanceField, delta: float, z, rho: float, tau: float) -> float:
    """tau-regularized near-boundary integral of clamp(d)^(delta-2) over the
    in-domain cells within rho of z.

    The integrand's distance is floored at tau (and h/2), so for delta below
    the critical order the value blows up like tau^(delta - delta_c) as tau
    shrinks, while above it the value stabilizes — the divergence-rate probe
    behind the uniqueness dichotomy. Only the ball's bounding box is read.
    """
    _check_collar(delta, rho, tau)
    return _collar_sum(field, _ball(field.grid, z, rho), delta, tau)


def _collar_sum(field: DistanceField, region: tuple, delta: float, tau: float) -> float:
    """`collar_integral` over the (box, ball) region of `_ball`, so that a
    ladder of taus shares one ball."""
    grid, (box, ball) = field.grid, region
    reg = np.maximum(_clamped(field.values[box][ball], grid.h), tau)
    return float(grid.h**grid.dim * np.sum(reg ** (delta - 2.0)))


def _check_collar(delta: float, rho: float, *taus: float) -> None:
    """The options `collar_integral` refuses, for every tau given."""
    _check_delta(delta)
    if not all(0.0 < tau < rho for tau in taus):
        raise ValueError("need 0 < tau < rho")
