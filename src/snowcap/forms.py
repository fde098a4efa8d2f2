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
eigen-residual. scipy is imported inside the functions that use it, so
importing snowcap loads numpy alone and scipy loads on first use.
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
    "hardy_quotient",
    "collar_integral",
]


def _clamped(dist: np.ndarray, h: float) -> np.ndarray:
    return np.maximum(np.minimum(dist, 1.0), h / 2.0)


def _check_delta(delta: float) -> None:
    if not delta >= 0:
        raise ValueError("degeneracy order delta must be >= 0")


def weight_field(field: DistanceField, delta: float) -> np.ndarray:
    """Cellwise diffusion weight c = clamp(d_Gamma)^delta.

    The distance is capped at 1 (far-field weight is 1) and floored at h/2
    so boundary-adjacent cells keep a positive weight of the right order.
    """
    _check_delta(delta)
    return _clamped(field.values, field.grid.h) ** delta


def _pairs(mask: np.ndarray):
    """Per axis ax: the index of the cells k with a neighbour k + e_ax, that
    of those neighbours, and where both lie in the grid-shaped mask."""
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
    """Face weights h^(d-2) * (c_k + c_{k+e_ax}) / 2 of the grid-shaped cell
    weights c, per axis, 0 where either side is outside mask."""
    faces = tuple(np.zeros(c.shape) for _ in range(c.ndim))
    for f, (lo, hi, both) in zip(faces, _pairs(mask)):
        f[lo] = np.where(both, h ** (c.ndim - 2) * 0.5 * (c[lo] + c[hi]), 0.0)
    return faces


def assemble_form(field: DistanceField, delta: float) -> SparseForm:
    """Second-order form with degenerate weights on the domain cells: the
    face between in-domain axis neighbours i and j weighs h^(d-2) (c_i + c_j)/2.
    """
    grid = field.grid
    return SparseForm(_faces(weight_field(field, delta), grid.omega_mask, grid.h), grid)


def _restrict(faces, keep: np.ndarray, term):
    """The form of the faces plus a per-cell term on the cells of the
    grid-shaped mask keep, unknown k the k-th kept cell in flat order, and
    per kept cell the weight of its faces to the other cells.

    Both add up-faces by axis, then down-faces by axis: the diagonal is the
    term plus the outer faces, then plus the faces to kept cells. Each CSR
    row is written in column order: down axes 0..d-1, diagonal, up d-1..0.
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
    # row slots in column order, the diagonal in slot d; column -1: no neighbour
    cols, vals = np.full((m, 2 * d + 1), -1, dtype=index), np.zeros((m, 2 * d + 1))
    for ax, (lo, hi, both) in enumerate(_pairs(keep)):
        i, j = rank[lo][both], rank[hi][both]
        cols[i, 2 * d - ax], cols[j, ax] = j, i
        vals[i, 2 * d - ax] = vals[j, ax] = -faces[ax][lo][both]
    full = term + outer
    for slot in (*range(2 * d, d, -1), *range(d)):  # up-faces (2d - ax), down (ax)
        full -= vals[:, slot]
    cols[:, d], vals[:, d] = np.arange(m), full
    has = cols >= 0
    indptr = np.concatenate([[0], np.cumsum(has.sum(axis=1), dtype=index)])
    return csr_matrix((vals[has], cols[has], indptr), shape=(m, m)), outer


# smoothed aggregation: cells per aggregate along each axis (2 densifies the
# coarse stencils to ~35 nonzeros per row two levels down and more than
# doubles the hierarchy's memory), the largest level solved directly, the
# weight of the Jacobi smoother, and the iteration count taken as a stall
_AGG = 3
_COARSE_ROWS = 400
_SMOOTH_W = 0.6
_MAX_PCG_ITERS = 500

# LOBPCG drops a search direction when the smallest eigenvalue of the mass
# Gram matrix of its M-normalized basis falls to this floor, about the square
# root of machine epsilon. On 4,000- to 40,000-cell lines (delta 0 to 2) the
# tightest tol reached is then 1e-14 or better; with a floor of 1e-12, 1e-12.
_GRAM_FLOOR = 1e-8


def _prolongator(A: csr_matrix, diag: np.ndarray, coords: np.ndarray):
    """Smoothed prolongator P = P0 - (2/3) D^-1 A P0 of the aggregates that
    group the unknowns of each 3^d block of cells, and the block coordinates
    of the aggregates. diag is D, the diagonal of A."""
    from scipy.sparse import csr_matrix

    n = A.shape[0]
    block = np.asarray(coords) // _AGG
    keys = np.ravel_multi_index(block.T, tuple(block.max(axis=0) + 1))
    _, first, agg = np.unique(keys, return_index=True, return_inverse=True)
    P0 = csr_matrix((np.ones(n), agg, np.arange(n + 1)), shape=(n, len(first)))
    AP0 = A @ P0
    AP0.data *= np.repeat(2.0 / 3.0 / diag, np.diff(AP0.indptr))
    return P0 - AP0, block[first]


def _vcycle(levels, coarse, r):
    """One V(2,2) cycle on A x = r from x = 0, levels[0] the finest."""
    if not levels:
        return coarse(r)
    A, wd, P, R = levels[0]
    x = wd * r
    x += wd * (r - A @ x)
    x += P @ _vcycle(levels[1:], coarse, R @ (r - A @ x))
    for _ in range(2):
        x += wd * (r - A @ x)
    return x


def _hierarchy(A: csr_matrix, coords: np.ndarray):
    """Smoothed-aggregation multigrid hierarchy of an SPD matrix (Vanek,
    Mandel and Brezina, Computing 56, 1996) for `_vcycle`.

    Unknown k sits on the integer grid cell coords[k]. Each level groups the
    unknowns of every 3^d block of cells into one aggregate, smooths the
    piecewise-constant prolongator P0 by one damped-Jacobi step,
    P = P0 - (2/3) D^-1 A P0, and passes the Galerkin operator P^T A P down;
    a level of at most _COARSE_ROWS rows is factored densely. Returns the
    levels above the coarsest, finest first, and the coarsest level's solve.
    """
    from scipy.linalg import LinAlgError, cho_factor, cho_solve

    diag = A.diagonal()
    if not diag.min() > 0:  # weights that underflow at large delta
        raise SolverDiverged("a matrix row has no weight: the form's weights underflow")
    levels = []  # (A, w D^-1, P, P^T) of each level above the coarsest
    while A.shape[0] > _COARSE_ROWS:
        P, coords = _prolongator(A, diag, coords)
        R = P.T.tocsr()
        levels.append((A, _SMOOTH_W / diag, P, R))
        A = R @ (A @ P)
        diag = A.diagonal()
    try:
        factor = cho_factor(A.toarray())
    except LinAlgError as err:  # weights spread too widely, e.g. 1e-262 to 1
        raise SolverDiverged(f"coarsest multigrid level is not positive definite: {err}") from err
    return levels, lambda r: cho_solve(factor, r)


def _spd_solver(A: csr_matrix, coords: np.ndarray):
    """Conjugate gradients preconditioned by one V(2,2) cycle of the
    smoothed-aggregation hierarchy of A (see `_hierarchy`).

    Returns solve(b, x0, rtol) -> (x, iterations), which raises
    SolverDiverged on a stall, and the number of levels.
    """
    from scipy.sparse.linalg import LinearOperator, cg

    levels, coarse = _hierarchy(A, coords)
    M = LinearOperator(A.shape, matvec=lambda r: _vcycle(levels, coarse, r), dtype=float)

    def solve(b, x0=None, rtol=1e-8):
        iters = 0

        def count(_):
            nonlocal iters
            iters += 1

        x, info = cg(A, b, x0=x0, rtol=rtol, atol=0.0, maxiter=_MAX_PCG_ITERS, M=M,
                     callback=count)
        if info != 0:
            resid = float(np.linalg.norm(A @ x - b) / np.linalg.norm(b))
            raise SolverDiverged(
                f"conjugate gradients stalled at residual {resid:.3e} after {iters} iterations"
            )
        return x, iters

    return solve, len(levels) + 1


# --- capacity test functions ---------------------------------------------------


def eta_rn(field: DistanceField, r: float, n: int) -> np.ndarray:
    """Log-profile cutoff in the boundary distance d: 1 inside d <= r/n, 0
    outside d > r, -log(d/r)/log n in between. Zero on out-of-domain cells."""
    if n < 2:
        raise ValueError("profile steepness n must be >= 2")
    if r <= 0:
        raise ValueError("outer radius r must be positive")
    d = field.values
    with np.errstate(divide="ignore", invalid="ignore"):
        band = -np.log(d / r) / np.log(n)
    eta = np.where(d <= r / n, 1.0, np.clip(band, 0.0, 1.0))
    eta[d > r] = 0.0
    eta[~field.grid.omega_mask] = 0.0
    return eta


def capacity_upper_eta(field: DistanceField, delta: float, r_list, n_list) -> float:
    """Best explicit upper bound min over (r, n) of h(eta) + ||eta||^2.

    Ties break toward smaller r, then larger n (the double-infimum order).
    """
    r_list, n_list = list(r_list), list(n_list)
    if not r_list or not n_list:
        raise ValueError("candidate lists must be nonempty")
    form = assemble_form(field, delta)
    hd = field.grid.h**field.grid.dim
    best = None
    for r in sorted(r_list):
        for n in sorted(n_list, reverse=True):
            eta = eta_rn(field, r, n)
            val = form.energy(eta) + hd * float(np.sum(eta.ravel() ** 2))
            key = (val, r, -n)
            if best is None or key < best:
                best = key
    return float(best[0])


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
    warm-starts the solver with a full-grid flat or grid-shaped guess. The
    minimizer must land in [0, 1] by the discrete maximum principle; this is
    checked, not enforced.
    """
    grid = field.grid
    _check_capacity(grid.h, eps, cg_tol)
    mask = grid.omega_mask
    collar = mask & (field.values < eps)
    if not collar.any():
        raise EmptyRegion("no in-domain cell lies inside the collar")
    form = assemble_form(field, delta)
    hd = grid.h**grid.dim
    free = mask & ~collar
    if not free.any():
        return CapacityResult(hd * int(collar.sum()), float(eps), 0, 0.0, 0, collar.astype(float))

    # a face from a free cell to another domain cell ends on the collar: psi = 1
    A, b = _restrict(form.faces, free, hd)
    solve, levels = _spd_solver(A, np.argwhere(free))
    guess = None if x0 is None else np.asarray(x0, dtype=float).reshape(grid.dims)[free]
    sol, iters = solve(b, guess, cg_tol)
    bnorm = np.linalg.norm(b)  # 0 if every weight underflows; CG then returns psi = 0 exactly
    resid = float(np.linalg.norm(A @ sol - b) / bnorm) if bnorm > 0 else 0.0
    del A, solve  # the matrix and its hierarchy, before the energy's temporaries
    psi = collar.astype(float)
    psi[free] = sol
    if psi.min() < -1e-8 or psi.max() > 1.0 + 1e-8:
        raise SolverDiverged(
            f"minimizer leaves [0,1] ({psi.min():.3e}, {psi.max():.3e}): "
            "maximum principle violated, solution untrusted"
        )
    value = form.energy(psi) + hd * float(np.sum(psi[mask] ** 2))
    return CapacityResult(value, float(eps), iters, resid, levels, psi)


# --- local Hardy quotient ---------------------------------------------------------


def hardy_quotient(
    field: DistanceField,
    delta: float,
    z,
    r: float,
    tol: float = 1e-6,
    max_outer: int = 200,
) -> float:
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
    (Kato-Temple). It raises SolverDiverged past max_outer iterations or
    when the search directions lose rank, which is also how a tol below the
    attainable accuracy ends. A negative or NaN delta, a tol that is not
    positive and finite, or a negative max_outer raises ValueError before
    the ball is built.
    """
    _check_delta(delta)
    _check_hardy(tol, max_outer)
    return _hardy_solve(field, _ball(field.grid, z, r), delta, tol, max_outer).quotient


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


def _check_hardy(tol: float, max_outer: int) -> None:
    """The solver options `hardy_quotient` refuses."""
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if max_outer < 0:
        raise ValueError("max_outer must be >= 0")


def _hardy_pencil(field: DistanceField, region: np.ndarray, delta: float):
    """The closed stiffness matrix K and the diagonal mass M on the cells of
    the grid-shaped ball mask region, unknown k its k-th cell in C order;
    only the ball's bounding box is assembled. A function of its own so that
    the assembly's temporaries are freed before the solve."""
    grid = field.grid
    h, d = grid.h, grid.dim
    # the ball within its bounding box, its cells in the same order
    box = tuple(slice(k.min(), k.max() + 1) for k in np.nonzero(region))
    ball, dist = region[box], _clamped(field.values[box], h)
    c = dist**delta
    # faces toward anything outside the support region get the closure weight
    closed = np.full(ball.shape, 2.0 * d)
    for lo, hi, both in _pairs(ball):
        closed[lo] -= both
        closed[hi] -= both
    K, _ = _restrict(_faces(c, ball, h), ball, closed[ball] * 2.0 * c[ball] * h ** (d - 2))
    return K, h**d * dist[ball] ** (delta - 2.0)


def _hardy_solve(field: DistanceField, region: np.ndarray, delta: float, tol: float,
                 max_outer: int) -> _HardyResult:
    """`hardy_quotient` on the cells of a grid-shaped ball mask, its options
    already checked."""
    from scipy.linalg import eigh

    K, mass = _hardy_pencil(field, region, delta)
    levels, coarse = _hierarchy(K, np.argwhere(region))

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
        if iters >= max_outer:
            raise SolverDiverged(
                f"LOBPCG exceeded {max_outer} iterations at relative residual {resid:.3e}"
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
        coef = eigh(gk[:k, :k], gm[:k, :k], subset_by_index=[0, 0])[1][:, 0]
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
    behind the uniqueness dichotomy.
    """
    _check_collar(delta, rho, tau)
    return _collar_sum(field, _ball(field.grid, z, rho), delta, tau)


def _collar_sum(field: DistanceField, region: np.ndarray, delta: float, tau: float) -> float:
    """`collar_integral` over the cells of a grid-shaped mask, so that a
    ladder of taus shares one ball."""
    grid = field.grid
    reg = np.maximum(_clamped(field.values[region], grid.h), tau)
    return float(grid.h**grid.dim * np.sum(reg ** (delta - 2.0)))


def _check_collar(delta: float, rho: float, *taus: float) -> None:
    """The options `collar_integral` refuses, for every tau given."""
    _check_delta(delta)
    if not all(0.0 < tau < rho for tau in taus):
        raise ValueError("need 0 < tau < rho")
