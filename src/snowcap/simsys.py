"""Self-similar boundary systems and their finite-depth realizations.

A boundary is described by an iterated system of contracting similarities.
The module solves the Moran equation for the similarity dimension, exposes the
uniqueness threshold ``critical_delta``, and describes the three named
families (Koch snowflake, Vicsek cross, Cantor dust) in one table,
``FAMILIES``, that realizes each as a finite union of primitives (segments in
the plane, axis-aligned boxes otherwise) suitable for gridding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DepthOverflow, NoSolutionInRange

__all__ = [
    "Similarity",
    "SimilaritySystem",
    "BoundaryGeometry",
    "similarity_dimension",
    "critical_delta",
    "Family",
    "FAMILIES",
    "named_family",
    "koch_snowflake",
    "vicsek",
    "cantor_dust",
    "realize",
]

_ORTHO_TOL = 1e-12
# |sum r_k^s - 1| that `similarity_dimension` accepts at its answer
_MORAN_TOL = 1e-12


@dataclass(frozen=True)
class Similarity:
    """Contracting similarity x -> ratio * R x + t with R orthogonal."""

    ratio: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"contraction ratio must lie in (0,1), got {self.ratio}")
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise ValueError("rotation must be a square matrix")
        if t.shape != (R.shape[0],):
            raise ValueError("translation length must match rotation dimension")
        if np.abs(R.T @ R - np.eye(R.shape[0])).max() > _ORTHO_TOL:
            raise ValueError("rotation must be orthogonal (R^T R = I within 1e-12)")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @property
    def dim(self) -> int:
        return self.rotation.shape[0]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return self.ratio * points @ self.rotation.T + self.translation


@dataclass(frozen=True)
class SimilaritySystem:
    """A finite system of contracting similarities in R^d.

    Parameters
    ----------
    dim : ambient dimension d >= 1.
    maps : the contracting similarities, all acting on R^d.
    lam : generator parameter of the named family that built the system, else None.
    """

    dim: int
    maps: tuple
    lam: float | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        if not self.maps:
            raise ValueError("a similarity system needs at least one map")
        maps = tuple(self.maps)
        for m in maps:
            if not isinstance(m, Similarity) or m.dim != self.dim:
                raise ValueError("all maps must be Similarity instances in the ambient dimension")
        object.__setattr__(self, "maps", maps)

    @property
    def ratios(self) -> np.ndarray:
        return np.array([m.ratio for m in self.maps])


def similarity_dimension(system: SimilaritySystem) -> float:
    """Solve the Moran equation sum_k r_k^s = 1 for s by bisection on [0, d].

    Raises NoSolutionInRange when sum r_k^d > 1 (overlapping system whose
    formal dimension exceeds the ambient space).
    """
    r = system.ratios
    d = float(system.dim)

    def f(s):
        return float(np.add.reduce(r**s))  # np.sum's reduction without its dispatch

    if f(d) > 1.0 + 1e-9:
        raise NoSolutionInRange(
            f"sum r_k^d = {f(d):.6f} > 1: no similarity dimension in [0, {d}]"
        )
    if abs(f(0.0) - 1.0) <= _MORAN_TOL:  # single map
        return 0.0
    if abs(f(d) - 1.0) <= _MORAN_TOL:
        return d

    lo, hi = 0.0, d
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket at machine precision
            break
        if f(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    if abs(f(s) - 1.0) > _MORAN_TOL:
        raise NoSolutionInRange(
            f"bisection residual {abs(f(s)-1.0):.3e} exceeds tol {_MORAN_TOL:.3e}"
        )
    return s


def critical_delta(s: float, d: int) -> float:
    """Uniqueness threshold delta_c = 1 + (s - (d-1)) = 2 + s - d.

    Valid for boundary dimension 0 < s < d; degeneration orders at or above
    this threshold make the boundary invisible to the form.
    """
    if not 0.0 < s < d:
        raise ValueError(f"critical_delta requires 0 < s < d, got s={s}, d={d}")
    return 2.0 + s - float(d)


@dataclass(frozen=True)
class BoundaryGeometry:
    """Finite-depth realization of a boundary as a union of primitives.

    primitives: segments with shape (n, 2, 2) when kind == "segments",
    axis-aligned boxes with shape (n, 2, d) holding [lo, hi] rows otherwise.
    The kind fixes how the domain is carved out of the ambient space (see
    `domain_rule`). `system` is the generating similarity system when the
    geometry came from one, else None.
    """

    dim: int
    kind: str
    primitives: np.ndarray
    depth: int
    approx_error: float
    system: SimilaritySystem | None = None

    def __post_init__(self):
        p = np.asarray(self.primitives, dtype=float)
        if self.kind not in ("segments", "boxes"):
            raise ValueError(f"unknown primitive kind {self.kind!r}")
        if self.kind == "segments" and (p.ndim != 3 or p.shape[1:] != (2, 2) or self.dim != 2):
            raise ValueError("segments must have shape (n, 2, 2) in dimension 2")
        if self.kind == "boxes" and (p.ndim != 3 or p.shape[1] != 2 or p.shape[2] != self.dim):
            raise ValueError("boxes must have shape (n, 2, d)")
        if not len(p):
            raise ValueError("need at least one primitive")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.system is not None and self.system.dim != self.dim:
            raise ValueError("system dimension does not match geometry dimension")
        object.__setattr__(self, "primitives", p)

    @property
    def domain_rule(self) -> str:
        """The domain the kind bounds: "interior" (inside the closed polygon
        of the segments) or "complement" (outside every box)."""
        return "interior" if self.kind == "segments" else "complement"

    @property
    def diameter(self) -> float:
        """Diameter proxy of the realized boundary (bounding-box diagonal)."""
        lo, hi = self.bounds()
        return float(np.linalg.norm(hi - lo))

    def bounds(self):
        """Per-axis minimum and maximum over the primitives' endpoints."""
        p = self.primitives
        # one reduction per coordinate column: along axis 0 numpy runs one
        # inner loop of length d per endpoint, ten times slower
        cols = p.reshape(len(p) * 2, -1).T
        return np.array([c.min() for c in cols]), np.array([c.max() for c in cols])


def _rot2(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def _koch_maps(lam: float, dim: int) -> tuple:
    # four maps acting on the base segment (0,0)-(1,0); the replaced middle
    # portion bulges to the right of the direction of travel so that a
    # counterclockwise polygon grows outward
    alpha = (1.0 - lam) / 2.0
    apex = np.array([alpha + lam / 2.0, -lam * np.sqrt(3) / 2.0])
    eye = np.eye(2)
    return (
        Similarity(alpha, eye, np.zeros(2)),
        Similarity(lam, _rot2(-np.pi / 3), np.array([alpha, 0.0])),
        Similarity(lam, _rot2(np.pi / 3), apex),
        Similarity(alpha, eye, np.array([alpha + lam, 0.0])),
    )


def _cube_corner_maps(lam: float, dim: int) -> tuple:
    corners = np.stack(np.meshgrid(*([[0.0, 1.0]] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    eye = np.eye(dim)
    return tuple(Similarity(lam, eye, c * (1.0 - lam)) for c in corners)


def _vicsek_maps(lam: float, dim: int) -> tuple:
    centre = Similarity(1.0 - 2.0 * lam, np.eye(dim), np.full(dim, lam))
    return _cube_corner_maps(lam, dim) + (centre,)


def realize(system: SimilaritySystem, depth: int, base: np.ndarray, kind: str) -> np.ndarray:
    """Apply all length-`depth` words of the system to a base primitive set.

    Segments transform exactly; boxes require axis-preserving maps (identity
    rotation), which holds for the cube families used here.
    """
    prims = np.asarray(base, dtype=float)
    if kind == "boxes":
        for m in system.maps:
            if np.abs(m.rotation - np.eye(system.dim)).max() > _ORTHO_TOL:
                raise ValueError("box realization requires identity rotations")
    for _ in range(depth):
        shape = (len(prims) * len(system.maps),) + prims.shape[1:]
        prims = np.concatenate(
            [m(prims.reshape(-1, system.dim)).reshape(prims.shape) for m in system.maps]
        ).reshape(shape)
    return prims


def _koch_primitives(system: SimilaritySystem, depth: int) -> np.ndarray:
    """The curve on each side of the unit triangle: a counterclockwise polygon."""
    curve = realize(system, depth, np.array([[[0.0, 0.0], [1.0, 0.0]]]), "segments")
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2.0]])
    sides = []
    for i in range(3):
        a, b = tri[i], tri[(i + 1) % 3]
        e = b - a
        R = np.array([[e[0], -e[1]], [e[1], e[0]]])  # rotate+scale (0,0)-(1,0) onto a-b
        sides.append(curve @ R.T + a)
    return np.concatenate(sides)


def _cube_primitives(system: SimilaritySystem, depth: int) -> np.ndarray:
    """The depth-`depth` images of the unit cube."""
    base = np.array([np.stack([np.zeros(system.dim), np.ones(system.dim)])])
    return realize(system, depth, base, "boxes")


@dataclass(frozen=True)
class Family:
    """A named boundary family: maps(lam, dim) builds its similarities for lam
    in (0, lam_max] (open when lam_max_open); depth_caps maps each supported
    dimension to the deepest realization it builds, the deepest of at most
    2,000,000 primitives (see `FAMILIES`); primitives(system, depth)
    realizes the base set, whose kind the geometry carries."""

    name: str
    maps: Callable
    lam_max: float
    lam_max_open: bool
    depth_caps: dict
    primitives: Callable
    kind: str

    def system(self, lam: float, dim: int) -> SimilaritySystem:
        if dim not in self.depth_caps:
            raise ValueError(f"{self.name} realization supports d in {sorted(self.depth_caps)}")
        if not (0.0 < lam < self.lam_max if self.lam_max_open else 0.0 < lam <= self.lam_max):
            bracket = ")" if self.lam_max_open else "]"
            raise ValueError(f"{self.name} requires lambda in (0, {self.lam_max:.6g}{bracket}")
        return SimilaritySystem(dim, self.maps(lam, dim), lam=lam)

    def approx_error(self, system: SimilaritySystem, depth: int) -> float:
        """Hausdorff error of a realization: r_max^depth times the diameter of
        the base primitive (1 for the unit segment, sqrt(d) for the cube)."""
        unit = 1.0 if self.kind == "segments" else np.sqrt(system.dim)
        return unit * float(system.ratios.max()) ** depth

    def geometry(self, lam: float, dim: int, depth: int) -> BoundaryGeometry:
        """Realize the family at a depth no greater than its cap for dim."""
        system = self.system(lam, dim)
        cap = self.depth_caps[dim]
        if depth > cap:
            raise DepthOverflow(f"{self.name} depth {depth} exceeds cap {cap}")
        return BoundaryGeometry(
            dim, self.kind, self.primitives(system, depth), depth,
            self.approx_error(system, depth), system,
        )


# each depth cap is the deepest realization with at most 2,000,000 primitives
# (3 * 4^9 Koch segments, 5^9 and 9^6 Vicsek boxes, 2^20, 4^10 and 8^6 dust
# boxes), so a depth chosen for a fine grid stops there instead of
# exhausting memory
FAMILIES = {
    f.name: f
    for f in (
        Family("koch", _koch_maps, 1.0 / 3.0, False, {2: 9},
               _koch_primitives, "segments"),
        Family("vicsek", _vicsek_maps, 0.5, True, {2: 9, 3: 6},
               _cube_primitives, "boxes"),
        Family("cantor-dust", _cube_corner_maps, 0.5, True, {1: 20, 2: 10, 3: 6},
               _cube_primitives, "boxes"),
    )
}


def named_family(name: str) -> Family:
    """The FAMILIES entry for a name; `cantor` is accepted for `cantor-dust`."""
    family = FAMILIES.get("cantor-dust" if name == "cantor" else name)
    if family is None:
        raise ValueError(f"unknown family {name!r}")
    return family


def koch_snowflake(lam: float, depth: int) -> BoundaryGeometry:
    """Koch snowflake boundary at a finite depth.

    Parameters
    ----------
    lam : middle-portion size in (0, 1/3]; lam = 1/3 is the classical curve.
    depth : number of substitution rounds applied to the unit triangle.

    Returns a closed counterclockwise polygon with 3 * 4^depth segments and
    outward-pointing bumps; the domain is the polygon interior.
    """
    return FAMILIES["koch"].geometry(lam, 2, depth)


def vicsek(lam: float, dim: int, depth: int) -> BoundaryGeometry:
    """Vicsek cross boundary: 2^d corner cubes of side lam plus a central cube
    of side 1-2*lam, iterated `depth` times inside the unit cube. The domain
    is the complement of the box union."""
    return FAMILIES["vicsek"].geometry(lam, dim, depth)


def cantor_dust(lam: float, dim: int, depth: int) -> BoundaryGeometry:
    """Cantor dust boundary: 2^d corner cubes of side lam per round. The dust
    is totally disconnected; the domain is the complement of the box union."""
    return FAMILIES["cantor-dust"].geometry(lam, dim, depth)
