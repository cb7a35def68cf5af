"""Grid helpers and numerical kernels shared across the package.

Radial and Cartesian grids, bilinear interpolation of a table on a uniform
grid (Cartesian fields, grid signed distances, grid-mollified gains), the
upper concave hull (the radial obstacle primitive in the scale coordinate),
the Shortley-Weller cut-cell stencil of the disc and ``RedBlackSOR``, the one
red-black (projected) SOR kernel on it (the Cartesian obstacle and Dirichlet
solver of both the envelope refinement and the PSOR oracle), and
``write_csv``, the one writer of every CSV table the package emits.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np


def scale_coordinate(r: np.ndarray | float, d: int) -> np.ndarray | float:
    """Coordinate in which radial harmonic functions are affine.

    ``ln r`` in dimension 2, ``-r**(2-d)`` for d >= 3 (sign chosen so the
    coordinate is increasing in r in every dimension).
    """
    if d == 2:
        return np.log(r)
    return -np.power(r, 2 - d)


def radial_grid(n: int = 2048, r_min: float = 1e-3) -> np.ndarray:
    """Log-uniform radii on (r_min, 1], last node exactly 1.

    Uniform spacing in the scale coordinate makes per-interval harmonic
    interpolation exact in d = 2.
    """
    if n < 2:
        raise ValueError("radial grid needs at least 2 nodes")
    if not 0.0 < r_min < 1.0:
        raise ValueError("r_min must lie in (0, 1)")
    radii = np.exp(np.linspace(np.log(r_min), 0.0, n))
    radii[-1] = 1.0
    return radii


def cartesian_grid(n: int = 257) -> tuple[np.ndarray, float]:
    """Node coordinates of an n-by-n grid covering [-1, 1]^2.

    Returns (coords, spacing) where coords has shape (n, n, 2), index [i, j]
    holding (x_i, y_j).
    """
    if n < 3:
        raise ValueError("cartesian grid needs at least 3 nodes per side")
    axis = np.linspace(-1.0, 1.0, n)
    spacing = axis[1] - axis[0]
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([xx, yy], axis=-1), spacing


def bilinear(table: np.ndarray, origin, step, pts: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a 2-d table at the points ``pts`` (shape (n, 2)).

    ``table[i, j]`` is the value at ``origin + (i * step[0], j * step[1])``.
    Points beyond the table are clamped to its edge cells.
    """
    nx, ny = table.shape
    fx = np.clip((pts[:, 0] - origin[0]) / step[0], 0.0, nx - 1.000001)
    fy = np.clip((pts[:, 1] - origin[1]) / step[1], 0.0, ny - 1.000001)
    ix, iy = fx.astype(int), fy.astype(int)
    tx, ty = fx - ix, fy - iy
    return (table[ix, iy] * (1 - tx) * (1 - ty) + table[ix + 1, iy] * tx * (1 - ty)
            + table[ix, iy + 1] * (1 - tx) * ty + table[ix + 1, iy + 1] * tx * ty)


def upper_concave_hull(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the upper concave hull of the point set (xs increasing).

    Monotone chain (Andrew 1979); interpolating the vertices gives the
    smallest concave majorant of the points over [xs[0], xs[-1]].
    """
    hx: list[float] = []
    hy: list[float] = []
    for x, y in zip(xs, ys):
        while len(hx) >= 2:
            cross = (hx[-1] - hx[-2]) * (y - hy[-2]) - (hy[-1] - hy[-2]) * (x - hx[-2])
            if cross >= 0.0:
                hx.pop()
                hy.pop()
            else:
                break
        hx.append(float(x))
        hy.append(float(y))
    return np.asarray(hx), np.asarray(hy)


# Grid offsets (di, dj) of the stencil's arms, in the order every loop uses.
ARMS = {"E": (1, 0), "W": (-1, 0), "N": (0, 1), "S": (0, -1)}


@dataclass(eq=False)
class DiscStencil:
    """Shortley-Weller 5-point stencil on the disc-masked grid.

    ``coeffs`` and ``nbr_inside`` are keyed by arm ("E", "W", "N", "S").  At
    an inside node, -Laplacian u = (diag * u - sum of coeffs * neighbour u)
    / spacing**2, where a neighbour outside the disc contributes zero.
    """

    inside: np.ndarray
    coeffs: dict
    diag: np.ndarray
    nbr_inside: dict


def disc_stencil(coords: np.ndarray, spacing: float) -> DiscStencil:
    """Cut-cell stencil of -Laplacian on the nodes of ``coords`` inside the unit disc.

    An arm that leaves the disc is shortened to the fraction theta of a cell
    at which it meets the unit circle (Shortley & Weller 1938), where the
    Dirichlet value is zero.
    """
    n = coords.shape[0]
    inside = np.linalg.norm(coords, axis=-1) < 1.0
    nbr_inside = {}
    thetas = {}
    for name, (di, dj) in ARMS.items():
        src_i = np.clip(np.arange(n)[:, None] + di, 0, n - 1)
        src_j = np.clip(np.arange(n)[None, :] + dj, 0, n - 1)
        theta = np.ones((n, n))
        cut = inside & ~inside[src_i, src_j]
        if cut.any():
            p = coords[cut]
            e = np.array([di, dj], dtype=float)
            a = spacing * spacing
            b = 2.0 * spacing * (p @ e)
            c = np.sum(p * p, axis=1) - 1.0
            disc = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
            theta[cut] = np.clip((-b + disc) / (2.0 * a), 1e-6, 1.0)
        thetas[name] = theta
        nbr_inside[name] = inside[src_i, src_j] & inside
    te, tw, tn, ts = thetas["E"], thetas["W"], thetas["N"], thetas["S"]
    coeffs = {"E": 2.0 / (te * (te + tw)), "W": 2.0 / (tw * (te + tw)),
              "N": 2.0 / (tn * (tn + ts)), "S": 2.0 / (ts * (tn + ts))}
    diag = 2.0 / (te * tw) + 2.0 / (tn * ts)
    return DiscStencil(inside=inside, coeffs=coeffs, diag=diag, nbr_inside=nbr_inside)


# The relaxation factor of every SOR solve.  It sets how fast a solve reaches
# its fixed point, not the fixed point itself.
SOR_OMEGA = 1.9


class RedBlackSOR:
    """Red-black (projected) SOR sweeps of the disc stencil on the ``nodes`` mask.

    Nodes off the mask hold their ``values`` as Dirichlet data, arms that leave
    the disc contribute zero, and an ``obstacle`` clips each update from below.
    The per-colour gather tables are built once: flat node indices, one flat
    neighbour index per arm into a copy of ``values`` padded with a zero
    sentinel slot (the target of arms that leave the disc), and the
    coefficient, diagonal and obstacle slices.
    """

    def __init__(self, values: np.ndarray, nodes: np.ndarray, stencil: DiscStencil,
                 obstacle: np.ndarray | None):
        ii, jj = np.nonzero(nodes)
        ncols = values.shape[1]
        self._flat = ii * ncols + jj
        self._work = np.append(values.ravel(), 0.0)
        sentinel = self._work.size - 1
        red = (ii + jj) % 2 == 0
        self._tables = []
        for color in (red, ~red):
            ci, cj = ii[color], jj[color]
            arms = []
            for name, (di, dj) in ARMS.items():
                nbr = (ci + di) * ncols + (cj + dj)
                arms.append((np.where(stencil.nbr_inside[name][ci, cj], nbr, sentinel),
                             stencil.coeffs[name][ci, cj]))
            phi = obstacle[ci, cj] if obstacle is not None else None
            self._tables.append((ci * ncols + cj, arms, stencil.diag[ci, cj], phi))

    def sweep(self, omega: float) -> float:
        """One red-black sweep; returns the largest absolute update, NaN if any update is."""
        work = self._work
        biggest = 0.0
        for idx, arms, diag, phi in self._tables:
            s = np.zeros(idx.size)
            for nbr, coeff in arms:
                s += work[nbr] * coeff
            old = work[idx]
            new = (1.0 - omega) * old + omega * (s / diag)
            if phi is not None:
                new = np.maximum(phi, new)
            biggest = float(np.max(np.abs(new - old), initial=biggest))
            work[idx] = new
        return biggest

    def store(self, values: np.ndarray) -> None:
        """Write the relaxed nodes back into ``values``."""
        values.flat[self._flat] = self._work[self._flat]


# Values become Python objects CSV_BLOCK at a time per column and are formatted
# one row at a time.  Formatting whole columns raised the peak RSS of writing a
# 129^2 field by 3.6 MiB; formatted blocks of 1024 rows raised that of a 129^2
# envelope, balayage and oracle run by 0.8 MiB.
CSV_BLOCK = 256


def _text(column: np.ndarray):
    """The column's fields, lazily: floats as ``.12g``, anything else as ``str``."""
    values = chain.from_iterable(column[lo:lo + CSV_BLOCK].tolist()
                                 for lo in range(0, len(column), CSV_BLOCK))
    if column.dtype.kind == "f":
        return map(format, values, repeat(".12g"))
    return map(str, values)


def write_csv(path, units: str | None, header, *columns) -> None:
    """Write the columns as a CSV table, one row per index.

    An optional ``# units: ...`` comment line precedes the header, whose
    fields are written as given.  Column fields are formatted by ``_text``;
    a field holding a comma is quoted (RFC 4180) and every line ends in LF.
    """
    with open(path, "w", newline="") as fh:
        if units is not None:
            fh.write(f"# units: {units}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*(_text(np.asarray(c)) for c in columns)))
