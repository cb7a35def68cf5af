"""Domains inside the unit ball and the geometric queries the solvers need.

Descriptors are lightweight frozen dataclasses; every query is a pure function
dispatching on the descriptor type, so concurrent use is safe:

- ``signed_distance``, the one signed-distance dispatch (the walks, patches
  and stopping rules all call it);
- ``project_to_boundary_batch``, the nearest-boundary landing of walk exits;
- ``boundary_samples``, ``ray_exit``, ``rasterize`` and the Hausdorff
  distance between sampled boundaries.

``Intersection`` composes continuation domains (a path stops at the first exit
from any part): its signed distance is the max over the parts, and a point
projects onto the part whose signed distance is largest there.

Sign convention: signed distance is negative inside the described open set,
positive outside, in unit-ball length units.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .grids import bilinear, write_csv


class GeometryError(ValueError):
    """Invalid geometric input (dimension mismatch, malformed descriptor)."""


class DegenerateApproximationError(GeometryError):
    """Inner approximation impossible: shrink width too large or result empty."""


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise GeometryError("ball radius must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))


@dataclass(frozen=True)
class Annulus:
    center: tuple[float, ...]
    inner: float
    outer: float

    def __post_init__(self):
        if not 0.0 < self.inner < self.outer:
            raise GeometryError("annulus needs 0 < inner < outer")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))


@dataclass(frozen=True)
class Cap:
    """The set {u in the unit ball : u . direction > threshold}."""

    direction: tuple[float, ...]
    threshold: float

    def __post_init__(self):
        v = np.asarray(self.direction, dtype=float)
        n = float(np.linalg.norm(v))
        if abs(n - 1.0) > 1e-12:
            raise GeometryError("cap direction must be a unit vector")
        if not -1.0 < self.threshold < 1.0:
            raise GeometryError("cap threshold must lie in (-1, 1)")
        object.__setattr__(self, "direction", tuple(float(c) for c in v))


@dataclass(frozen=True)
class FullBall:
    dim: int = 2

    def __post_init__(self):
        if self.dim < 2:
            raise GeometryError("dimension must be at least 2")


@dataclass(frozen=True, eq=False)
class GridRegion:
    """Open set described by a boolean mask on a uniform Cartesian grid.

    Cell (i, j) has centre ((i - (nx-1)/2) * spacing, (j - (ny-1)/2) * spacing);
    the grid is symmetric about the origin.  All inside cells must lie strictly
    inside the unit ball.
    """

    mask: np.ndarray
    spacing: float

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.ndim != 2:
            raise GeometryError("grid region mask must be 2-dimensional")
        if self.spacing <= 0.0:
            raise GeometryError("grid spacing must be positive")
        object.__setattr__(self, "mask", mask)
        centers = self.cell_centers()
        radii = np.linalg.norm(centers[mask], axis=1) if mask.any() else np.array([])
        if radii.size and radii.max() >= 1.0:
            raise GeometryError("grid region cells must lie strictly inside the unit ball")

    def cell_centers(self) -> np.ndarray:
        xx, yy = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([xx, yy], axis=-1)

    @cached_property
    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell-centre coordinates along each grid axis, computed once per region."""
        nx, ny = self.mask.shape
        xs = (np.arange(nx) - (nx - 1) / 2.0) * self.spacing
        ys = (np.arange(ny) - (ny - 1) / 2.0) * self.spacing
        return xs, ys

    @cached_property
    def sdf_table(self) -> np.ndarray:
        """Signed distance at every cell centre, computed once per region."""
        mask = self.mask
        if not mask.any():
            return np.full(mask.shape, np.inf)
        # Distance (in cells) to the nearest cell of the opposite phase; the
        # interface sits half a cell beyond, hence the 0.5 shift.
        d_out = ndimage.distance_transform_edt(~mask)
        d_in = ndimage.distance_transform_edt(mask)
        return np.where(mask, -(d_in - 0.5), d_out - 0.5) * self.spacing


@dataclass(frozen=True)
class Intersection:
    """Intersection of domains of one dimension (an earlier-of stopping rule)."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise GeometryError("an intersection needs at least one part")
        if len({domain_dim(p) for p in self.parts}) != 1:
            raise GeometryError("intersection parts must share one dimension")


Domain = Union[Ball, Annulus, Cap, FullBall, GridRegion, Intersection]


def domain_dim(dom: Domain) -> int:
    if isinstance(dom, Ball) or isinstance(dom, Annulus):
        return len(dom.center)
    if isinstance(dom, Cap):
        return len(dom.direction)
    if isinstance(dom, FullBall):
        return dom.dim
    if isinstance(dom, GridRegion):
        return 2
    if isinstance(dom, Intersection):
        return domain_dim(dom.parts[0])
    raise GeometryError(f"unknown domain descriptor {dom!r}")


def _points(x, d: int) -> tuple[np.ndarray, bool]:
    """Coerce x to shape (n, d); returns (array, was_single_point)."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != d:
        raise GeometryError(f"expected points of dimension {d}, got shape {arr.shape}")
    return arr, single


# ---------------------------------------------------------------------------
# Signed distance
# ---------------------------------------------------------------------------

def signed_distance(dom: Domain, x) -> float | np.ndarray:
    """Signed distance from x to the boundary of dom (negative inside)."""
    d = domain_dim(dom)
    pts, single = _points(x, d)
    if isinstance(dom, Ball):
        r = np.linalg.norm(pts - np.asarray(dom.center), axis=1)
        out = r - dom.radius
    elif isinstance(dom, Annulus):
        r = np.linalg.norm(pts - np.asarray(dom.center), axis=1)
        out = np.maximum(dom.inner - r, r - dom.outer)
    elif isinstance(dom, Cap):
        v = np.asarray(dom.direction)
        out = np.maximum(dom.threshold - pts @ v, np.linalg.norm(pts, axis=1) - 1.0)
    elif isinstance(dom, FullBall):
        out = np.linalg.norm(pts, axis=1) - 1.0
    elif isinstance(dom, GridRegion):
        xs, ys = dom.axes
        out = bilinear(dom.sdf_table, (xs[0], ys[0]), (xs[1] - xs[0], ys[1] - ys[0]), pts)
    elif isinstance(dom, Intersection):
        out = np.max(np.stack([signed_distance(p, pts) for p in dom.parts]), axis=0)
    else:
        raise GeometryError(f"unknown domain descriptor {dom!r}")
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# Boundary sampling
# ---------------------------------------------------------------------------

def _circle_points(center: np.ndarray, radius: float, count: int, offset: float = 0.5) -> np.ndarray:
    ang = 2.0 * np.pi * (np.arange(count) + offset) / count
    return center[None, :] + radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _fibonacci_sphere(center: np.ndarray, radius: float, count: int) -> np.ndarray:
    i = np.arange(count) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / count)
    theta = np.pi * (1.0 + 5.0 ** 0.5) * i
    pts = np.stack([np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=1)
    return center[None, :] + radius * pts


def _sphere_points(center: np.ndarray, radius: float, count: int) -> np.ndarray:
    if len(center) == 2:
        return _circle_points(center, radius, count)
    if len(center) == 3:
        return _fibonacci_sphere(center, radius, count)
    raise GeometryError("boundary sampling supports d = 2 and d = 3 only")


def grid_boundary_points(region: GridRegion) -> np.ndarray:
    """Cell-edge midpoints separating inside from outside cells."""
    mask = region.mask
    sp = region.spacing
    centers = region.cell_centers()
    pts = []
    diff_x = mask[:-1, :] != mask[1:, :]
    ii, jj = np.nonzero(diff_x)
    if ii.size:
        mid = centers[ii, jj] + np.array([sp / 2.0, 0.0])
        pts.append(mid)
    diff_y = mask[:, :-1] != mask[:, 1:]
    ii, jj = np.nonzero(diff_y)
    if ii.size:
        mid = centers[ii, jj] + np.array([0.0, sp / 2.0])
        pts.append(mid)
    if not pts:
        return np.zeros((0, 2))
    return np.concatenate(pts, axis=0)


def boundary_samples(dom: Domain, count: int) -> np.ndarray:
    """Deterministic, roughly uniform samples of the boundary of dom."""
    if count < 1:
        raise GeometryError("sample count must be at least 1")
    if isinstance(dom, Ball):
        return _sphere_points(np.asarray(dom.center), dom.radius, count)
    if isinstance(dom, FullBall):
        return _sphere_points(np.zeros(dom.dim), 1.0, count)
    if isinstance(dom, Annulus):
        c = np.asarray(dom.center)
        frac = dom.inner / (dom.inner + dom.outer)
        n_in = max(1, int(round(count * frac)))
        n_out = max(1, count - n_in)
        return np.concatenate([
            _sphere_points(c, dom.inner, n_in),
            _sphere_points(c, dom.outer, n_out),
        ], axis=0)
    if isinstance(dom, Cap):
        v = np.asarray(dom.direction)
        t = dom.threshold
        if len(v) != 2:
            raise GeometryError("cap boundary sampling implemented for d = 2")
        alpha = np.arccos(t)
        base = np.arctan2(v[1], v[0])
        n_arc = max(1, count // 2)
        n_chord = max(1, count - n_arc)
        ang = base + alpha * (2.0 * (np.arange(n_arc) + 0.5) / n_arc - 1.0)
        arc = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        w = np.array([-v[1], v[0]])
        half = np.sqrt(max(1.0 - t * t, 0.0))
        s = half * (2.0 * (np.arange(n_chord) + 0.5) / n_chord - 1.0)
        chord = t * v[None, :] + s[:, None] * w[None, :]
        return np.concatenate([arc, chord], axis=0)
    if isinstance(dom, GridRegion):
        pts = grid_boundary_points(dom)
        if pts.shape[0] == 0:
            raise GeometryError("grid region has no boundary cells")
        if pts.shape[0] <= count:
            return pts
        # The edge list interleaves opposite sides of the region, so a strided
        # subsample aliases; a seeded draw keeps coverage unbiased.
        idx = np.sort(np.random.default_rng(0).choice(pts.shape[0], size=count, replace=False))
        return pts[idx]
    raise GeometryError(f"unknown domain descriptor {dom!r}")


# ---------------------------------------------------------------------------
# Hausdorff distance
# ---------------------------------------------------------------------------

def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between two finite point sets."""
    pa = np.atleast_2d(np.asarray(a, dtype=float))
    pb = np.atleast_2d(np.asarray(b, dtype=float))
    if pa.size == 0 or pb.size == 0:
        raise GeometryError("hausdorff distance needs nonempty point sets")
    tree_a = cKDTree(pa)
    tree_b = cKDTree(pb)
    d_ab = tree_b.query(pa)[0].max()
    d_ba = tree_a.query(pb)[0].max()
    return float(max(d_ab, d_ba))


# ---------------------------------------------------------------------------
# Rasterisation and smooth inner approximation
# ---------------------------------------------------------------------------

def rasterize(dom: Domain, n: int = 512) -> GridRegion:
    """Boolean mask of dom on an n-by-n grid covering [-1, 1]^2."""
    if domain_dim(dom) != 2:
        raise GeometryError("rasterisation implemented for d = 2")
    spacing = 2.0 / n
    xs = (np.arange(n) - (n - 1) / 2.0) * spacing
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    inside = signed_distance(dom, pts).reshape(n, n) < 0.0
    # Keep the described set strictly inside the unit ball.
    inside &= (np.hypot(xx, yy) < 1.0 - spacing)
    return GridRegion(mask=inside, spacing=spacing)


def inradius(region: GridRegion) -> float:
    if not region.mask.any():
        return 0.0
    d_in = ndimage.distance_transform_edt(region.mask)
    return float((d_in.max() - 0.5) * region.spacing)


def _recognise_radial(region: GridRegion) -> Ball | Annulus | None:
    """Return the centred Ball/Annulus matching the mask, if one does."""
    mask = region.mask
    if not mask.any():
        return None
    centers = region.cell_centers()
    radii = np.linalg.norm(centers, axis=-1)
    r_in = radii[mask]
    lo, hi = float(r_in.min()), float(r_in.max())
    band = 0.75 * region.spacing
    model = (radii > lo - band) & (radii < hi + band)
    ring = (np.abs(radii - lo) < 2 * band) | (np.abs(radii - hi) < 2 * band)
    if np.any((model != mask) & ~ring):
        return None
    if lo < 1.5 * region.spacing:
        return Ball(center=(0.0, 0.0), radius=hi)
    return Annulus(center=(0.0, 0.0), inner=lo, outer=hi)


def smooth_inner_approximation(region: GridRegion | Ball | Annulus, delta: float,
                               check_samples: int = 512) -> Domain:
    """Shrink an open set to a smoothly bounded subset within Hausdorff distance delta.

    The result is the sublevel set {mollified signed distance < -delta/2}; the
    mollifier is a Gaussian of standard deviation delta/4 applied to the grid
    distance transform.  When the input mask is recognisably a centred ball or
    annulus the exact shrunken descriptor is returned instead.
    """
    if not isinstance(region, GridRegion):
        region = rasterize(region)
    if delta <= 0.0:
        raise DegenerateApproximationError("shrink width must be positive")
    rho = inradius(region)
    delta0 = rho / 2.0
    if delta >= delta0:
        raise DegenerateApproximationError(
            f"shrink width {delta} is not below half the inradius ({delta0:.4g})")

    boundary_a = boundary_samples(region, check_samples)

    radial = _recognise_radial(region)
    if radial is not None:
        if isinstance(radial, Ball):
            shrunk: Domain = Ball(center=radial.center, radius=radial.radius - delta / 2.0)
        else:
            shrunk = Annulus(center=radial.center, inner=radial.inner + delta / 2.0,
                             outer=radial.outer - delta / 2.0)
        if hausdorff_distance(boundary_a, boundary_samples(shrunk, check_samples)) < delta:
            return shrunk
        # Raster offsets spoiled the exact shrink; fall through to the grid path.

    table = region.sdf_table
    sigma_cells = (delta / 4.0) / region.spacing
    mollified = ndimage.gaussian_filter(table, sigma=sigma_cells, mode="nearest")
    new_mask = mollified < -delta / 2.0
    if not new_mask.any():
        raise DegenerateApproximationError("inner approximation is empty")
    shrunk = GridRegion(mask=new_mask, spacing=region.spacing)

    dh = hausdorff_distance(boundary_a, boundary_samples(shrunk, check_samples))
    if dh >= delta:
        raise DegenerateApproximationError(
            f"inner approximation violates the Hausdorff bound: {dh:.4g} >= {delta}")
    return shrunk


# ---------------------------------------------------------------------------
# Rays and projections
# ---------------------------------------------------------------------------

def _sphere_exit_t(x: np.ndarray, u: np.ndarray, center: np.ndarray, radius: float) -> float:
    """Positive t with |x + t u - center| = radius, for x inside the sphere."""
    p = x - center
    b = float(p @ u)
    c = float(p @ p) - radius * radius
    disc = b * b - c
    if disc < 0.0:
        return np.inf
    return -b + np.sqrt(disc)


def _sphere_entry_t(x: np.ndarray, u: np.ndarray, center: np.ndarray, radius: float) -> float:
    """Smallest positive t with |x + t u - center| = radius, inf if the ray misses."""
    p = x - center
    b = float(p @ u)
    c = float(p @ p) - radius * radius
    disc = b * b - c
    if disc < 0.0:
        return np.inf
    root = np.sqrt(disc)
    t1 = -b - root
    t2 = -b + root
    if t1 > 1e-14:
        return t1
    if t2 > 1e-14:
        return t2
    return np.inf


def ray_exit(dom: Domain, x, direction) -> tuple[float, np.ndarray]:
    """First boundary hit (t, point) of the ray x + t*direction, t > 0, from inside dom."""
    d = domain_dim(dom)
    x = np.asarray(x, dtype=float)
    u = np.asarray(direction, dtype=float)
    nu = np.linalg.norm(u)
    if nu == 0.0:
        raise GeometryError("ray direction must be nonzero")
    u = u / nu
    if signed_distance(dom, x) >= 0.0:
        raise GeometryError("ray origin must lie inside the domain")
    if isinstance(dom, Ball):
        t = _sphere_exit_t(x, u, np.asarray(dom.center), dom.radius)
    elif isinstance(dom, FullBall):
        t = _sphere_exit_t(x, u, np.zeros(d), 1.0)
    elif isinstance(dom, Annulus):
        c = np.asarray(dom.center)
        t = min(_sphere_exit_t(x, u, c, dom.outer), _sphere_entry_t(x, u, c, dom.inner))
    elif isinstance(dom, Cap):
        v = np.asarray(dom.direction)
        t_sphere = _sphere_exit_t(x, u, np.zeros(d), 1.0)
        uv = float(u @ v)
        t_plane = (dom.threshold - float(x @ v)) / uv if uv < 0.0 else np.inf
        t = min(t_sphere, t_plane)
    elif isinstance(dom, GridRegion):
        t = _ray_exit_grid(dom, x, u)
    else:
        raise GeometryError(f"unknown domain descriptor {dom!r}")
    if not np.isfinite(t):
        raise GeometryError("ray does not leave the domain")
    return float(t), x + t * u


def _ray_exit_grid(region: GridRegion, x: np.ndarray, u: np.ndarray) -> float:
    step = 0.45 * region.spacing
    t = 0.0
    phi_prev = signed_distance(region, x)
    limit = 4.0  # ray cannot travel further inside the unit ball
    while t < limit:
        t_next = t + max(step, -0.5 * phi_prev)
        phi_next = signed_distance(region, x + t_next * u)
        if phi_next >= 0.0:
            lo, hi = t, t_next
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if signed_distance(region, x + mid * u) < 0.0:
                    lo = mid
                else:
                    hi = mid
            return hi
        t, phi_prev = t_next, phi_next
    return np.inf


def project_to_boundary_batch(dom: Domain, pts: np.ndarray) -> np.ndarray:
    """Nearest boundary point of dom for each of a batch of points (lands walk exits)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d = domain_dim(dom)
    if isinstance(dom, Ball) or isinstance(dom, FullBall):
        c = np.asarray(dom.center) if isinstance(dom, Ball) else np.zeros(d)
        r = dom.radius if isinstance(dom, Ball) else 1.0
        p = pts - c
        n = np.linalg.norm(p, axis=1, keepdims=True)
        n[n == 0.0] = 1.0
        return c + r * p / n
    if isinstance(dom, Annulus):
        c = np.asarray(dom.center)
        p = pts - c
        n = np.linalg.norm(p, axis=1, keepdims=True)
        n[n == 0.0] = 1.0
        target = np.where((n - dom.inner) < (dom.outer - n), dom.inner, dom.outer)
        return c + target * p / n
    if isinstance(dom, Cap):
        v = np.asarray(dom.direction)
        t = dom.threshold
        n = np.linalg.norm(pts, axis=1, keepdims=True)
        n[n == 0.0] = 1.0
        sphere = pts / n
        dot_s = sphere @ v
        d_sphere = np.where(dot_s >= t, np.linalg.norm(pts - sphere, axis=1), np.inf)
        foot = pts + (t - pts @ v)[:, None] * v[None, :]
        d_foot = np.where(np.linalg.norm(foot, axis=1) <= 1.0,
                          np.linalg.norm(pts - foot, axis=1), np.inf)
        w = pts - (pts @ v)[:, None] * v[None, :]
        nw = np.linalg.norm(w, axis=1, keepdims=True)
        fallback = _any_orthogonal(v)
        w = np.where(nw > 0, w / np.where(nw == 0, 1.0, nw), fallback)
        rim = t * v[None, :] + np.sqrt(max(1.0 - t * t, 0.0)) * w
        d_rim = np.linalg.norm(pts - rim, axis=1)
        choice = np.argmin(np.stack([d_sphere, d_foot, d_rim], axis=1), axis=1)
        out = rim.copy()
        out[choice == 0] = sphere[choice == 0]
        out[choice == 1] = foot[choice == 1]
        return out
    if isinstance(dom, GridRegion):
        p = pts.copy()
        h = 0.5 * dom.spacing
        ex = np.array([h, 0.0])
        ey = np.array([0.0, h])
        for _ in range(8):
            phi = signed_distance(dom, p)
            if np.all(np.abs(phi) < 1e-12):
                break
            gx = (signed_distance(dom, p + ex) - signed_distance(dom, p - ex)) / (2 * h)
            gy = (signed_distance(dom, p + ey) - signed_distance(dom, p - ey)) / (2 * h)
            g2 = gx * gx + gy * gy
            g2[g2 < 1e-16] = 1.0
            p[:, 0] -= phi * gx / g2
            p[:, 1] -= phi * gy / g2
        return p
    if isinstance(dom, Intersection):
        vals = np.stack([signed_distance(p, pts) for p in dom.parts])
        binding = np.argmax(vals, axis=0)
        out = pts.copy()
        for k, part in enumerate(dom.parts):
            sel = binding == k
            if sel.any():
                out[sel] = project_to_boundary_batch(part, pts[sel])
        return out
    raise GeometryError(f"unknown domain descriptor {dom!r}")


def _any_orthogonal(v: np.ndarray) -> np.ndarray:
    w = np.zeros_like(v)
    k = int(np.argmin(np.abs(v)))
    w[k] = 1.0
    w = w - float(w @ v) * v
    return w / np.linalg.norm(w)


# ---------------------------------------------------------------------------
# Mask serialisation
# ---------------------------------------------------------------------------

def save_mask_csv(region: GridRegion, path) -> None:
    """Row-major 0/1 CSV with a one-line header `d,nx,ny,spacing`."""
    nx, ny = region.mask.shape
    write_csv(path, None, [2, nx, ny, f"{region.spacing:.12g}"], *region.mask.astype(int).T)

