"""Domains inside the unit ball and the geometric queries the solvers need.

Descriptors are lightweight frozen dataclasses; every query is a pure function
dispatching on the descriptor type, so concurrent use is safe:

- ``signed_distance``, the one signed-distance dispatch (the walks, patches
  and stopping rules all call it);
- ``project_to_boundary_batch``, the nearest-boundary landing of walk exits;
- ``boundary_samples`` and the Hausdorff distance between sampled
  boundaries.

``Intersection`` composes continuation domains (a path stops at the first exit
from any part): its signed distance is the max over the parts, and a point
projects onto the part whose signed distance is largest there.

Sign convention: signed distance is negative inside the described open set,
positive outside, in unit-ball length units.

The grid-region helpers are numpy only, so no geometry query loads a scipy
module: ``GridRegion.sdf_table`` is an exact separable Euclidean distance
transform (Felzenszwalb & Huttenlocher, *Theory of Computing* 8, 2012) with
the same bits as ``scipy.ndimage.distance_transform_edt``; ``inradius`` reads
that table; ``smooth_inner_approximation`` mollifies it with a separable
Gaussian (``gaussian_filter(mode="nearest")``'s kernel and sums); and
``hausdorff_distance`` takes brute-force nearest distances in row blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

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
    inside the unit ball, and at least one cell must lie outside: the signed
    distance measures to the cells of the other phase, never past the array.
    """

    mask: np.ndarray
    spacing: float

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.ndim != 2:
            raise GeometryError("grid region mask must be 2-dimensional")
        if self.spacing <= 0.0:
            raise GeometryError("grid spacing must be positive")
        if mask.all():
            raise GeometryError("grid region mask needs at least one outside cell")
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
        d_out = np.sqrt(_squared_distance_to(mask))
        d_in = np.sqrt(_squared_distance_to(~mask))
        return np.where(mask, -(d_in - 0.5), d_out - 0.5) * self.spacing


def _squared_distance_to(target: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distance, in cells, from each cell to the nearest
    True cell of ``target`` (which must have one).

    The separable transform of Felzenszwalb & Huttenlocher: pass 1 is each
    column's distance f to its nearest target, from running index scans down
    and up the column; pass 2 is each row's lower envelope of f(k)² + (j-k)²,
    taken as minima over ever wider shifts t, stopped once t² reaches the
    largest current value (no wider shift can lower any cell).  Every value is
    an exact integer, so the square root of the result has the bits of
    ``scipy.ndimage.distance_transform_edt``.
    """
    n, m = target.shape
    far = n + m  # a column with no target: f = far outweighs every real pair
    dtype = np.int32 if 2 * far * far < 2 ** 31 else np.int64
    rows = np.arange(n, dtype=dtype)[:, None]
    above = np.maximum.accumulate(np.where(target, rows, -far), axis=0)
    below = np.minimum.accumulate(np.where(target, rows, 2 * far)[::-1], axis=0)[::-1]
    f = np.minimum(np.minimum(rows - above, below - rows), far)
    f2 = f * f
    d2 = f2.copy()
    shifted = np.empty_like(f2)
    t = 1
    while t < m and t * t < d2.max():
        np.add(f2[:, :-t], t * t, out=shifted[:, t:])
        np.minimum(d2[:, t:], shifted[:, t:], out=d2[:, t:])
        np.add(f2[:, t:], t * t, out=shifted[:, :-t])
        np.minimum(d2[:, :-t], shifted[:, :-t], out=d2[:, :-t])
        t += 1
    return d2.astype(float)


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

HAUSDORFF_BLOCK = 1 << 20   # pair distances held at once
HAUSDORFF_SAMPLES = 512     # boundary samples on each side of an inner approximation's check


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between two finite point sets.

    Brute-force nearest distances over blocks of rows of ``a``, so at most
    about ``HAUSDORFF_BLOCK`` pair distances are held at once; one block of
    squared distances gives both directions.
    """
    pa = np.atleast_2d(np.asarray(a, dtype=float))
    pb = np.atleast_2d(np.asarray(b, dtype=float))
    if pa.size == 0 or pb.size == 0:
        raise GeometryError("hausdorff distance needs nonempty point sets")
    if pa.shape[1] != pb.shape[1]:
        raise GeometryError("hausdorff distance needs point sets of one dimension")
    rows = max(1, HAUSDORFF_BLOCK // pb.shape[0])
    a_to_b = 0.0
    b_to_a = np.full(pb.shape[0], np.inf)
    for start in range(0, pa.shape[0], rows):
        block = pa[start:start + rows]
        d2 = np.zeros((block.shape[0], pb.shape[0]))
        for k in range(pa.shape[1]):
            diff = block[:, k, None] - pb[None, :, k]
            d2 += diff * diff
        a_to_b = max(a_to_b, float(d2.min(axis=1).max()))
        np.minimum(b_to_a, d2.min(axis=0), out=b_to_a)
    return float(np.sqrt(max(a_to_b, float(b_to_a.max()))))


# ---------------------------------------------------------------------------
# Inradius and smooth inner approximation
# ---------------------------------------------------------------------------

def inradius(region: GridRegion) -> float:
    """Largest distance from an inside cell centre to the region's boundary
    (0 for an empty region), read from the region's cached distance table."""
    if not region.mask.any():
        return 0.0
    return float(-region.sdf_table[region.mask].min())


def _gaussian_nearest(a: np.ndarray, sigma: float) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter(a, sigma, mode="nearest")`` in numpy.

    The same kernel (truncated at 4 sigma, normalised by its sum), the same
    edge extension and axis order, and the same order of sums as scipy's
    symmetric correlation: centre term first, then the outermost pair of
    taps inwards.
    """
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    weights = (weights / weights.sum())[radius:]
    out = a
    for axis in range(a.ndim):
        lines = np.moveaxis(out, axis, 0)
        n = lines.shape[0]
        pad = [(radius, radius)] + [(0, 0)] * (a.ndim - 1)
        padded = np.pad(lines, pad, mode="edge")
        acc = lines * weights[0]
        for j in range(radius, 0, -1):
            acc += (padded[radius - j:radius - j + n] + padded[radius + j:radius + j + n]) * weights[j]
        out = np.moveaxis(acc, 0, axis)
    return out


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


def smooth_inner_approximation(region: GridRegion, delta: float) -> Domain:
    """Shrink a grid region to a smoothly bounded subset within Hausdorff distance delta.

    The result is the sublevel set {mollified signed distance < -delta/2}; the
    mollifier is a Gaussian of standard deviation delta/4 applied to the grid
    distance transform.  When the input mask is recognisably a centred ball or
    annulus the exact shrunken descriptor is returned instead.
    """
    if delta <= 0.0:
        raise DegenerateApproximationError("shrink width must be positive")
    rho = inradius(region)
    delta0 = rho / 2.0
    if delta >= delta0:
        raise DegenerateApproximationError(
            f"shrink width {delta} is not below half the inradius ({delta0:.4g})")

    boundary_a = boundary_samples(region, HAUSDORFF_SAMPLES)

    radial = _recognise_radial(region)
    if radial is not None:
        if isinstance(radial, Ball):
            shrunk: Domain = Ball(center=radial.center, radius=radial.radius - delta / 2.0)
        else:
            shrunk = Annulus(center=radial.center, inner=radial.inner + delta / 2.0,
                             outer=radial.outer - delta / 2.0)
        if hausdorff_distance(boundary_a, boundary_samples(shrunk, HAUSDORFF_SAMPLES)) < delta:
            return shrunk
        # Raster offsets spoiled the exact shrink; fall through to the grid path.

    table = region.sdf_table
    sigma_cells = (delta / 4.0) / region.spacing
    mollified = _gaussian_nearest(table, sigma_cells)
    new_mask = mollified < -delta / 2.0
    if not new_mask.any():
        raise DegenerateApproximationError("inner approximation is empty")
    shrunk = GridRegion(mask=new_mask, spacing=region.spacing)

    dh = hausdorff_distance(boundary_a, boundary_samples(shrunk, HAUSDORFF_SAMPLES))
    if dh >= delta:
        raise DegenerateApproximationError(
            f"inner approximation violates the Hausdorff bound: {dh:.4g} >= {delta}")
    return shrunk


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------

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

