"""Grid helpers and numerical kernels shared across the package.

Radial and Cartesian grids, bilinear interpolation of a table on a uniform
grid (Cartesian fields, grid signed distances, grid-mollified gains), the
upper concave hull (the radial obstacle primitive in the scale coordinate),
``label_components``, the connected components of a radial or Cartesian
mask (the non-contact components of every level), ``disc_stencil``, the
Shortley-Weller cut-cell -Laplacian of the disc as one diagonal and one CSR
off-diagonal operator, ``RedBlackSOR``, the one red-black (projected)
SOR kernel on it (the Cartesian obstacle and Dirichlet solver of both the
envelope refinement and the PSOR oracle; a solve's work vector holds its red
nodes, its black nodes and then the halo of Dirichlet nodes their rows read,
so each colour is one matvec of its rows and one contiguous slice relaxed in
place, and ``store`` scatters the result once; a relaxation factor each solve
takes from its own update ratios), and ``write_csv``, the one writer of every
CSV table the package emits (a field on a Cartesian grid is given by its two
axes and its (nx, ny) values, so each coordinate is formatted once and each
grid row is one ``%``).  The PSOR residual reads the same operator.

``scipy.sparse`` is the one scipy module lsmlab loads: it is imported here,
at the top, because the disc stencil is a CSR matrix.
Imported lazily instead, it would put its import (about 0.16 s on a 2-core
x86-64 machine) inside the first Cartesian solve.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np
from scipy import sparse


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


def label_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """Nearest-neighbour connected components of a 1-d or 2-d boolean mask.

    Returns ``(labels, n)``: int32 labels 1..n on the mask and 0 off it.
    Components are numbered by their first node in raster order, as
    ``scipy.ndimage.label`` numbers them with its default structure (runs on
    a line, the 4-neighbourhood on a grid), and the labels equal its labels.
    Two-pass run labelling (Rosenfeld & Pfaltz, J. ACM 13, 1966): each row's
    runs of true nodes are the units, and a run joins every run of the next
    row whose columns it overlaps.  The joins are merged by union-find with
    the smaller run index as the root (Tarjan, J. ACM 22, 1975), in rounds
    of vectorised hooking and full path compression; a component's root is
    its first run.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim not in (1, 2):
        raise ValueError(f"component labelling takes a 1-d or 2-d mask, not {mask.ndim}-d")
    grid = np.atleast_2d(mask)
    # A false column after each row keeps runs from crossing rows when flattened.
    padded = np.zeros((grid.shape[0], grid.shape[1] + 1), dtype=np.int8)
    padded[:, :-1] = grid
    steps = np.diff(padded.ravel(), prepend=np.int8(0))
    starts, stops = np.flatnonzero(steps == 1), np.flatnonzero(steps == -1)
    run_of = np.zeros(grid.shape, dtype=np.intp)
    run_of[grid] = np.repeat(np.arange(starts.size), stops - starts)
    # One join per stretch of columns where two rows overlap: a stretch holds
    # one run above and one below, and each overlapping pair has one stretch.
    both = grid[:-1] & grid[1:]
    first = both.copy()
    first[:, 1:] &= ~both[:, :-1]
    upper, lower = run_of[:-1][first], run_of[1:][first]
    root = np.arange(starts.size)
    while True:
        a, b = root[upper], root[lower]
        join = a != b
        if not join.any():
            break
        np.minimum.at(root, np.maximum(a, b)[join], np.minimum(a, b)[join])
        while True:
            hop = root[root]
            if np.array_equal(hop, root):
                break
            root = hop
    first_runs = root == np.arange(starts.size)
    run_label = np.cumsum(first_runs, dtype=np.int32)[root]
    labels = np.zeros(grid.shape, dtype=np.int32)
    labels[grid] = np.repeat(run_label, stops - starts)
    return labels.reshape(mask.shape), int(np.count_nonzero(first_runs))


# Grid offsets (di, dj) of the stencil's arms, in the order of each operator row.
ARMS = {"E": (1, 0), "W": (-1, 0), "N": (0, 1), "S": (0, -1)}


@dataclass(eq=False)
class DiscStencil:
    """Shortley-Weller 5-point stencil on the disc-masked grid, as one operator.

    At an inside node, -Laplacian u = (diag * u - offdiag @ u) / spacing**2,
    with ``u`` and the matvec on flat node indices.  ``offdiag`` is one
    ``scipy.sparse.csr_array`` of shape (n*n, n*n): the row of an inside node
    holds its E, W, N and S coefficients, in that order, against the flat
    indices of those neighbours; an arm that leaves the disc reads the
    circle's zero, so it has no entry, and the row of a node outside the disc
    is empty.  ``diag`` and ``inside`` are (n, n) arrays; ``diag`` is zero off
    the disc.
    """

    inside: np.ndarray
    diag: np.ndarray
    offdiag: sparse.csr_array


def disc_stencil(coords: np.ndarray, spacing: float, inside: np.ndarray) -> DiscStencil:
    """Cut-cell stencil of -Laplacian on the nodes of ``coords`` inside the unit disc.

    ``inside`` is the grid's mask of nodes with |x| < 1, as its ``GridField``
    holds it.  An arm that leaves the disc is shortened to the fraction theta
    of a cell at which it meets the unit circle (Shortley & Weller 1938),
    where the Dirichlet value is zero.
    """
    n = coords.shape[0]
    # The grid's edge lies outside the disc, so every arm of an inside node
    # ends on the grid.  Each (node, arm) table is in row-major order, so its
    # kept entries give each row's arms in E, W, N, S order.
    rows = np.flatnonzero(inside).astype(np.int32)
    cols = rows[:, None] + np.array([di * n + dj for di, dj in ARMS.values()], dtype=np.int32)
    keep = inside.ravel()[cols]
    theta = np.ones((len(ARMS), rows.size))
    for k, e in enumerate(np.array(list(ARMS.values()), dtype=float)):
        cut = ~keep[:, k]
        p = coords.reshape(-1, 2)[rows[cut]]
        a = spacing * spacing
        b = 2.0 * spacing * (p @ e)
        c = np.sum(p * p, axis=1) - 1.0
        disc = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
        theta[k, cut] = np.clip((-b + disc) / (2.0 * a), 1e-6, 1.0)
    te, tw, tn, ts = theta
    data = np.stack([2.0 / (te * (te + tw)), 2.0 / (tw * (te + tw)),
                     2.0 / (tn * (tn + ts)), 2.0 / (ts * (tn + ts))], axis=1)
    diag = np.zeros((n, n))
    diag.flat[rows] = 2.0 / (te * tw) + 2.0 / (tn * ts)
    # Row ends: the running count of kept entries at each inside node's last
    # arm, carried forward over the empty rows of the nodes outside.
    indptr = np.zeros(n * n + 1, dtype=np.int32)
    indptr[rows + 1] = np.cumsum(keep.ravel(), dtype=np.int32)[len(ARMS) - 1::len(ARMS)]
    offdiag = sparse.csr_array((data[keep], cols[keep], np.maximum.accumulate(indptr)),
                               shape=(n * n, n * n))
    return DiscStencil(inside=inside, diag=diag, offdiag=offdiag)


# Every SOR solve starts at this relaxation factor.  The kernel switches once to
# the solve's own optimum (see ``RedBlackSOR``) when that lies above it; the
# factor sets how fast a solve reaches its fixed point, not the fixed point.
SOR_OMEGA = 1.9
# The ratio q of successive largest updates has settled once it moved by at
# most SETTLE_TOL * (1 - q) in each of SETTLE_SWEEPS sweeps in a row: the
# optimum depends on q through 1 - q, which is 0.004 on a 257^2 cap.
SETTLE_TOL = 0.01
SETTLE_SWEEPS = 5


class RedBlackSOR:
    """Red-black (projected) SOR sweeps of the disc stencil on the ``nodes`` mask.

    Nodes off the mask hold their ``values`` as Dirichlet data, arms that leave
    the disc read the circle's zero (they have no entry in the operator), and
    an ``obstacle`` clips each update from below.

    The solve's work vector holds the red mask nodes, then the black ones, then
    the halo: the nodes off the mask that their rows read (Adams & Ortega,
    Proc. ICPP 1982, on colour-ordered unknowns).  Each colour's rows of
    ``stencil.offdiag`` are one CSR matrix whose columns are positions in the
    work vector, so a colour's neighbour sums are one matvec against it and
    its nodes are one contiguous slice, relaxed in place.  The columns keep
    each row's E, W, N, S order, and the matvec adds a row's products from zero
    in that order, so each sum is bit for bit the one of four gathers and
    multiply-adds.  ``store`` scatters the mask nodes back into a field once.

    The kernel owns its relaxation factor ``omega``; ``sweeps`` counts the
    sweeps done.  A solve starts at SOR_OMEGA.  Once the ratio q of successive
    largest updates has settled, q is the SOR iteration's dominant eigenvalue,
    and the Jacobi spectral radius rho follows from Young's relation
    rho**2 = (q + omega - 1)**2 / (q * omega**2) (Carre, Comput. J. 4, 1961).
    The kernel then switches once to the optimum 2 / (1 + sqrt(1 - rho**2)).
    A settled q <= omega - 1 means omega is already at or past the optimum,
    or a transient: the solve keeps omega and the kernel watches on (a
    projected solve at 257^2 settles near 0.896 for a dozen sweeps while its
    contact set moves, then at 0.987).
    """

    def __init__(self, values: np.ndarray, nodes: np.ndarray, stencil: DiscStencil,
                 obstacle: np.ndarray | None):
        red = nodes.copy()  # the mask nodes with i + j even
        red[::2, 1::2] = red[1::2, ::2] = False
        # The halo: the disc nodes off the mask that a mask node's arm reaches.
        # The mask lies in the disc, off the grid's edge, so no roll wraps it round.
        halo = np.zeros_like(nodes)
        for step in ARMS.values():
            halo |= np.roll(nodes, step, axis=(0, 1))
        halo &= stencil.inside & ~nodes
        order = np.concatenate([np.flatnonzero(m) for m in (red, nodes & ~red, halo)],
                               dtype=np.int32)
        split, size = np.count_nonzero(red), np.count_nonzero(nodes)
        self._flat = order[:size]
        position = np.empty(values.size, dtype=np.int32)
        position[order] = np.arange(order.size, dtype=np.int32)
        self._work = np.take(values, order)
        diag, phi = stencil.diag.ravel(), None if obstacle is None else obstacle.ravel()
        self._colours = []
        for colour in (slice(0, split), slice(split, size)):
            idx = order[colour]
            rows = stencil.offdiag[idx]
            # Reindexed in place, unsorted: each row keeps its E, W, N, S order.
            # Every column is in range, and "clip" writes to out without a buffer.
            np.take(position, rows.indices, out=rows.indices, mode="clip")
            sums = sparse.csr_array((rows.data, rows.indices, rows.indptr),
                                    shape=(idx.size, order.size))
            self._colours.append((colour, sums, diag[idx], None if phi is None else phi[idx]))
        self._new = np.empty(max(split, size - split))
        self.omega = SOR_OMEGA
        self.sweeps = 0
        self._watching = True
        self._last = self._ratio = np.nan
        self._calm = 0

    def sweep(self) -> float:
        """One red-black sweep; returns the largest absolute update, NaN if any update is."""
        work, omega = self._work, self.omega
        biggest = 0.0
        for colour, sums, diag, phi in self._colours:
            old = work[colour]
            new = self._new[:old.size]
            # new = (1 - omega) * old + omega * (s / diag), then clipped by phi.
            s = sums @ work
            np.divide(s, diag, out=s)
            np.multiply(omega, s, out=s)
            np.multiply(1.0 - omega, old, out=new)
            np.add(new, s, out=new)
            if phi is not None:
                np.maximum(phi, new, out=new)
            np.subtract(new, old, out=s)
            np.abs(s, out=s)
            biggest = float(np.max(s, initial=biggest))
            old[...] = new
        self.sweeps += 1
        self._watch(biggest)
        return biggest

    def _watch(self, biggest: float) -> None:
        """Track the update ratio; at the first settled one above omega - 1, switch."""
        if not self._watching:
            return
        ratio = biggest / self._last if self._last > 0.0 else np.nan
        steady = abs(ratio - self._ratio) <= SETTLE_TOL * (1.0 - ratio)
        self._calm = self._calm + 1 if steady else 0
        self._last, self._ratio = biggest, ratio
        if self._calm >= SETTLE_SWEEPS and self.omega - 1.0 < ratio < 1.0:
            omega = self.omega
            rho2 = (ratio + omega - 1.0) ** 2 / (ratio * omega * omega)
            self.omega = 2.0 / (1.0 + float(np.sqrt(1.0 - rho2)))
            self._watching = False

    def effort(self) -> str:
        """The sweeps done and the factor in use, as an error message names them."""
        return f"after {self.sweeps} sweeps at omega {self.omega:.4f}"

    def store(self, values: np.ndarray) -> None:
        """Write the relaxed mask nodes back into ``values``."""
        values.flat[self._flat] = self._work[:self._flat.size]


# Values become Python objects and text CSV_BLOCK rows at a time: a numeric
# table's block by one ``%`` of its row template, any other table's through
# ``_text`` and csv.writer.  Blocks keep the peak memory flat.  Formatting whole
# columns raised the peak RSS of writing a 129^2 field by 3.6 MiB; blocks of
# 1024 rows raised that of a 129^2 envelope, balayage and oracle run by 0.8 MiB.
# A field on a tensor grid goes one grid row at a time instead (``_grid_rows``):
# writing a 257^2 field peaks at 0.2 MiB of traced memory, where one ``tolist``
# of its whole (nx, ny) array alone takes 2.0 MiB.
CSV_BLOCK = 256

# Numpy kinds a row template formats: floats as ``%.12g`` and integers as
# ``%d``, which give the bytes of ``format(v, ".12g")`` and ``str(v)``.
_TEMPLATE = {"f": "%.12g", "i": "%d", "u": "%d"}


def _text(column: np.ndarray):
    """The column's fields, lazily: floats as ``.12g``, anything else as ``str``."""
    values = chain.from_iterable(column[lo:lo + CSV_BLOCK].tolist()
                                 for lo in range(0, len(column), CSV_BLOCK))
    if column.dtype.kind == "f":
        return map(format, values, repeat(".12g"))
    return map(str, values)


def _grid_rows(x: np.ndarray, y: np.ndarray, values: np.ndarray):
    """A tensor-grid table's rows ``x[i],y[j],values[i, j]``, one grid row per string.

    Each axis value is formatted once.  Grid row i's template is its x text
    joined onto the tails ``,{y[j]},%.12g`` (``%d`` for integer values), and one
    ``%`` of the row's values fills it, so only the values are formatted per
    node.  No numeric text holds a ``%``.
    """
    x_text, y_text, value = (_TEMPLATE[c.dtype.kind] for c in (x, y, values))
    tails = ["", *(f",{y_text % v},{value}\n" for v in y.tolist())]
    for u, row in zip(x.tolist(), values):
        yield (x_text % u).join(tails) % tuple(row.tolist())


def write_csv(path, units: str | None, header, *columns) -> None:
    """Write the columns as a CSV table, one row per index.

    An optional ``# units: ...`` comment line precedes the header, whose
    fields are written as given; every line ends in LF.  Floats are written
    as ``.12g`` and anything else as ``str``.  A table whose columns are all
    float or integer arrays (fields, oracles, contact flags and masks, the
    cross-section) takes one C-level ``%`` of a repeated row template per
    CSV_BLOCK rows, as no such field needs quoting.  A table with a ``str``,
    ``bool`` or ``object`` column goes row by row through ``csv.writer``,
    which quotes a field holding a comma (RFC 4180).  Columns of unequal
    length raise ValueError.

    A field on a 2-d tensor grid is given by its axes and its values: the
    columns ``x`` (nx,), ``y`` (ny,) and ``values`` (nx, ny), all float or
    integer, stand for the flat columns of the grid's nodes in row-major
    order, ``x[i], y[j], values[i, j]``.  The bytes are those of the flat
    columns, but each axis value is formatted once and each grid row takes
    one ``%`` (``_grid_rows``).  A 2-d last column marks this form; any
    other shapes or kinds in it raise ValueError.
    """
    columns = [np.asarray(c) for c in columns]
    grid = bool(columns) and columns[-1].ndim == 2
    if grid and ([c.ndim for c in columns] != [1, 1, 2]
                 or columns[2].shape != (len(columns[0]), len(columns[1]))
                 or not all(c.dtype.kind in _TEMPLATE for c in columns)):
        raise ValueError("a grid table takes float or integer axes x (nx,), y (ny,) and "
                         f"values (nx, ny), not {[(c.dtype.str, c.shape) for c in columns]}")
    lengths = {len(c) for c in columns}
    if not grid and len(lengths) > 1:
        raise ValueError(f"CSV columns differ in length: {[len(c) for c in columns]}")
    with open(path, "w", newline="") as fh:
        if units is not None:
            fh.write(f"# units: {units}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if grid:
            fh.writelines(_grid_rows(*columns))
            return
        if not all(c.dtype.kind in _TEMPLATE for c in columns):
            writer.writerows(zip(*(_text(c) for c in columns)))
            return
        row = ",".join(_TEMPLATE[c.dtype.kind] for c in columns) + "\n"
        for lo in range(0, max(lengths, default=0), CSV_BLOCK):
            block = [c[lo:lo + CSV_BLOCK].tolist() for c in columns]
            fh.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))
