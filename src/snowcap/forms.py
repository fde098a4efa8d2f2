"""Degenerate quadratic forms, capacity estimates, and Hardy quotients.

The discrete energy is h(phi) = sum over axis-neighbor pairs of in-domain
cells of h^(d-2) * mean(c_i, c_j) * (phi_i - phi_j)^2 with cell weights
c = clamp(d_Gamma)^delta vanishing at the boundary. On top of it sit the
two capacity estimates (explicit log-profile test functions and the relaxed
collar-constrained minimization), the local Hardy quotient as a generalized
eigenvalue problem, and the tau-regularized collar integral whose blow-up
rate separates the degeneracy regimes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator, cg, splu
from scipy.spatial import cKDTree

from .errors import EmptyRegion, SolverDiverged
from .geomfield import DistanceField

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


def _clamped_distance(field: DistanceField) -> np.ndarray:
    return np.maximum(np.minimum(field.values, 1.0), field.grid.h / 2.0)


def weight_field(field: DistanceField, delta: float) -> np.ndarray:
    """Cellwise diffusion weight c = clamp(d_Gamma)^delta.

    The distance is capped at 1 (far-field weight is 1) and floored at h/2
    so boundary-adjacent cells keep a positive weight of the right order.
    """
    if delta < 0:
        raise ValueError("degeneracy order delta must be >= 0")
    return _clamped_distance(field) ** delta


@dataclass(frozen=True)
class SparseForm:
    """Symmetric nonnegative quadratic form over flat grid indices.

    edges holds each unordered in-domain neighbor pair once as parallel
    arrays (i, j, w). cell_volume is h^d; n_cells the flat grid size.
    """

    edges: tuple
    cell_volume: float
    n_cells: int
    dim: int

    def energy(self, phi: np.ndarray) -> float:
        """h(phi) for a grid function (flat or grid-shaped)."""
        ii, jj, ww = self.edges
        p = np.asarray(phi, dtype=float).ravel()
        diff = p[ii] - p[jj]
        return float(np.dot(ww, diff * diff))

    def matrix(self) -> csr_matrix:
        """Graph Laplacian L with phi^T L phi = h(phi), on flat indices."""
        ii, jj, ww = self.edges
        n = self.n_cells
        rows = np.concatenate([ii, jj, ii, jj])
        cols = np.concatenate([jj, ii, ii, jj])
        vals = np.concatenate([-ww, -ww, ww, ww])
        return csr_matrix((vals, (rows, cols)), shape=(n, n))

    def restrict(self, keep: np.ndarray):
        """Restrict the form to the cells of a flat boolean mask.

        Returns the kept flat indices, the internal edges (i, j, w) in
        positions of that index list, and for each kept cell the total
        weight of its edges to domain cells outside the mask.
        """
        ii, jj, ww = self.edges
        idx = np.flatnonzero(keep)
        pos = -np.ones(self.n_cells, dtype=np.int64)
        pos[idx] = np.arange(len(idx))
        ki, kj = keep[ii], keep[jj]
        both = ki & kj
        cross = np.zeros(len(idx))
        np.add.at(cross, pos[ii[ki & ~kj]], ww[ki & ~kj])
        np.add.at(cross, pos[jj[kj & ~ki]], ww[kj & ~ki])
        return idx, (pos[ii[both]], pos[jj[both]], ww[both]), cross


def _axis_neighbor_pairs(mask: np.ndarray):
    """Flat index pairs (i, j) of adjacent in-domain cells along each axis."""
    dims = mask.shape
    flat = np.arange(mask.size).reshape(dims)
    out_i, out_j = [], []
    for ax in range(mask.ndim):
        lo = [slice(None)] * mask.ndim
        hi = [slice(None)] * mask.ndim
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        both = mask[tuple(lo)] & mask[tuple(hi)]
        out_i.append(flat[tuple(lo)][both])
        out_j.append(flat[tuple(hi)][both])
    return np.concatenate(out_i), np.concatenate(out_j)


def assemble_form(field: DistanceField, delta: float) -> SparseForm:
    """Second-order form with degenerate weights on the domain cells.

    Edge weight between in-domain axis neighbors is h^(d-2) * (c_i + c_j)/2.
    """
    grid = field.grid
    c = weight_field(field, delta).ravel()
    ii, jj = _axis_neighbor_pairs(grid.omega_mask)
    d = grid.dim
    ww = grid.h ** (d - 2) * 0.5 * (c[ii] + c[jj])
    return SparseForm(
        edges=(ii, jj, ww),
        cell_volume=grid.h**d,
        n_cells=grid.n_cells,
        dim=d,
    )


def _spd_matrix(edges, diag: np.ndarray) -> csr_matrix:
    """Laplacian of the internal edges plus a per-cell diagonal term."""
    ei, ej, ew = edges
    m = len(diag)
    full = diag.copy()
    np.add.at(full, ei, ew)
    np.add.at(full, ej, ew)
    rows = np.concatenate([ei, ej, np.arange(m)])
    cols = np.concatenate([ej, ei, np.arange(m)])
    vals = np.concatenate([-ew, -ew, full])
    return csr_matrix((vals, (rows, cols)), shape=(m, m))


def _ball(field: DistanceField, z, r: float) -> np.ndarray:
    """Flat mask of the domain cells whose centre lies strictly within r of z."""
    grid = field.grid
    dist = np.linalg.norm(grid.centers() - np.asarray(z, dtype=float), axis=1)
    region = grid.omega_mask.ravel() & (dist < r)
    if not region.any():
        raise EmptyRegion(f"no in-domain cell within {r} of z")
    return region


# --- capacity test functions ---------------------------------------------------


def _target_distances(field: DistanceField, a_mask) -> np.ndarray:
    """Distance to the target set A: the boundary itself (None) or the
    centers of the cells a boolean grid-shaped mask flags."""
    if a_mask is None:
        return field.values
    a_mask = np.asarray(a_mask)
    if a_mask.dtype != bool or a_mask.shape != field.grid.dims:
        raise ValueError("target mask must be None or a boolean array of grid shape")
    if not a_mask.any():
        return np.full(field.grid.dims, np.inf)
    pts = field.grid.centers()
    tree = cKDTree(pts[a_mask.ravel()])
    d, _ = tree.query(pts)
    return d.reshape(field.grid.dims)


def eta_rn(field: DistanceField, a_mask, r: float, n: int) -> np.ndarray:
    """Log-profile cutoff: 1 inside d_A <= r/n, 0 outside d_A > r, and
    -log(d_A/r)/log n in between. Zero on out-of-domain cells."""
    if n < 2:
        raise ValueError("profile steepness n must be >= 2")
    if r <= 0:
        raise ValueError("outer radius r must be positive")
    d = _target_distances(field, a_mask)
    with np.errstate(divide="ignore", invalid="ignore"):
        band = -np.log(d / r) / np.log(n)
    eta = np.where(d <= r / n, 1.0, np.clip(band, 0.0, 1.0))
    eta[d > r] = 0.0
    eta[~field.grid.omega_mask] = 0.0
    return eta


def capacity_upper_eta(field: DistanceField, delta: float, a_mask, r_list, n_list) -> float:
    """Best explicit upper bound min over (r, n) of h(eta) + ||eta||^2.

    Ties break toward smaller r, then larger n (the double-infimum order).
    """
    r_list, n_list = list(r_list), list(n_list)
    if not r_list or not n_list:
        raise ValueError("candidate lists must be nonempty")
    form = assemble_form(field, delta)
    hd = form.cell_volume
    best = None
    for r in sorted(r_list):
        for n in sorted(n_list, reverse=True):
            eta = eta_rn(field, a_mask, r, n)
            val = form.energy(eta) + hd * float(np.sum(eta.ravel() ** 2))
            key = (val, r, -n)
            if best is None or key < best:
                best = key
    return float(best[0])


# --- relaxed capacity ------------------------------------------------------------


@dataclass(frozen=True)
class CapacityResult:
    """Outcome of the collar-constrained graph-norm minimization."""

    value: float
    collar_eps: float
    solver_iters: int
    residual: float
    psi: np.ndarray | None = None


def capacity_relaxed(
    field: DistanceField,
    delta: float,
    a_mask,
    eps: float,
    cg_tol: float = 1e-8,
    x0: np.ndarray | None = None,
) -> CapacityResult:
    """Minimize h(psi) + ||psi||^2 over psi = 1 on the collar {d_A < eps}.

    The free-cell system is symmetric positive definite and solved by
    Jacobi-preconditioned conjugate gradients to relative residual cg_tol
    (iteration cap 50 sqrt(free cells)). x0 optionally warm-starts the
    solver with a full-grid flat or grid-shaped guess. The minimizer must
    land in [0, 1] by the discrete maximum principle; this is checked, not
    enforced.
    """
    grid = field.grid
    if eps < 2.0 * grid.h:
        raise ValueError("collar width eps must be at least two cells")
    d_a = _target_distances(field, a_mask)
    mask_flat = grid.omega_mask.ravel()
    collar = mask_flat & (d_a.ravel() < eps)
    if not collar.any():
        raise EmptyRegion("no in-domain cell lies inside the collar")
    form = assemble_form(field, delta)
    hd = form.cell_volume
    free = mask_flat & ~collar
    n_collar = int(collar.sum())

    psi = np.zeros(grid.n_cells)
    psi[collar] = 1.0
    if not free.any():
        value = hd * n_collar
        return CapacityResult(value, float(eps), 0, 0.0, psi.reshape(grid.dims))

    # every edge leaving a free cell ends on the collar, where psi = 1
    free_idx, edges, cross = form.restrict(free)
    A, b = _spd_matrix(edges, hd + cross), cross
    guess = None
    if x0 is not None:
        guess = np.asarray(x0, dtype=float).ravel()[free_idx]
    inv_diag = 1.0 / A.diagonal()
    M = LinearOperator(A.shape, matvec=lambda v: inv_diag * v)
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    maxiter = int(50 * np.sqrt(len(free_idx))) + 10
    sol, info = cg(A, b, x0=guess, rtol=cg_tol, atol=0.0, maxiter=maxiter, M=M, callback=count)
    resid = float(np.linalg.norm(A @ sol - b) / np.linalg.norm(b))
    if info != 0:
        raise SolverDiverged(
            f"conjugate gradients stalled at residual {resid:.3e} after {iters} iterations"
        )
    psi[free_idx] = sol
    if psi.min() < -1e-8 or psi.max() > 1.0 + 1e-8:
        raise SolverDiverged(
            f"minimizer leaves [0,1] ({psi.min():.3e}, {psi.max():.3e}): "
            "maximum principle violated, solution untrusted"
        )
    value = form.energy(psi) + hd * float(np.sum(psi[mask_flat] ** 2))
    return CapacityResult(value, float(eps), iters, resid, psi.reshape(grid.dims))


# --- local Hardy quotient ---------------------------------------------------------


def hardy_quotient(
    field: DistanceField,
    delta: float,
    z,
    r: float,
    tol: float = 1e-6,
    max_outer: int = 200,
    return_vector: bool = False,
):
    """Smallest Rayleigh quotient h(phi) / sum h^d clamp(d)^(delta-2) phi^2
    over functions supported on the in-domain cells within r of z.

    The support constraint closes every face toward excluded cells with a
    half-cell Dirichlet weight 2 c_i h^(d-2), making the stiffness matrix
    positive definite; the smallest generalized eigenvalue is found by
    inverse-power iteration (sparse LU for small regions, preconditioned
    conjugate gradients with warm starts otherwise).
    """
    grid = field.grid
    h, d = grid.h, grid.dim
    form = assemble_form(field, delta)
    idx, edges, _ = form.restrict(_ball(field, z, r))
    m = len(idx)
    # faces toward anything outside the support region get the closure weight
    inside_faces = np.bincount(edges[0], minlength=m) + np.bincount(edges[1], minlength=m)
    dist = _clamped_distance(field).ravel()[idx]
    K = _spd_matrix(edges, (2.0 * d - inside_faces) * 2.0 * dist**delta * h ** (d - 2))
    mass = h**d * dist ** (delta - 2.0)

    def rayleigh(v):
        kv = K @ v
        return float(np.dot(v, kv) / np.dot(v, mass * v))

    v = np.ones(m)
    v /= np.sqrt(np.dot(v, mass * v))
    lam = rayleigh(v)

    # banded 1-D systems factor in linear time; 2-D fill-in caps the LU size
    use_lu = m <= 60_000 or (d == 1 and m <= 2_000_000)
    if use_lu:
        lu = splu(K.tocsc())
        solve = lu.solve
    else:
        inv_diag = 1.0 / K.diagonal()
        M = LinearOperator(K.shape, matvec=lambda u: inv_diag * u)
        prev = {"x": None}

        def solve(rhs):
            x, info = cg(K, rhs, x0=prev["x"], rtol=1e-8, atol=0.0, M=M, maxiter=20000)
            if info != 0:
                raise SolverDiverged("inner conjugate-gradient solve stalled")
            prev["x"] = x
            return x

    for _ in range(max_outer):
        v = solve(mass * v)
        v /= np.sqrt(np.dot(v, mass * v))
        lam_new = rayleigh(v)
        done = abs(lam_new - lam) <= tol * abs(lam_new)
        lam = lam_new
        if done:
            if return_vector:
                full = np.zeros(grid.n_cells)
                full[idx] = v
                return lam, full.reshape(grid.dims)
            return lam
    raise SolverDiverged(f"inverse-power iteration exceeded {max_outer} rounds")


# --- collar integral ---------------------------------------------------------------


def collar_integral(field: DistanceField, delta: float, z, rho: float, tau: float) -> float:
    """tau-regularized near-boundary integral of clamp(d)^(delta-2) over the
    in-domain cells within rho of z.

    The integrand's distance is floored at tau (and h/2), so for delta below
    the critical order the value blows up like tau^(delta - delta_c) as tau
    shrinks, while above it the value stabilizes — the divergence-rate probe
    behind the uniqueness dichotomy.
    """
    grid = field.grid
    if delta < 0:
        raise ValueError("degeneracy order delta must be >= 0")
    if not 0.0 < tau < rho:
        raise ValueError("need 0 < tau < rho")
    region = _ball(field, z, rho)
    dvals = np.minimum(field.values.ravel()[region], 1.0)
    reg = np.maximum(np.maximum(dvals, tau), grid.h / 2.0)
    return float(grid.h**grid.dim * np.sum(reg ** (delta - 2.0)))
