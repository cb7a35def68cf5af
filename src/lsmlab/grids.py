"""Grid helpers and numerical kernels shared across the package.

Radial and Cartesian grids, bilinear interpolation of a table on a uniform
grid (Cartesian fields, grid signed distances, grid-mollified gains), the
upper concave hull (the radial obstacle primitive in the scale coordinate),
``label_components``, the connected components of a radial or Cartesian
mask (the non-contact components of every level), ``disc_stencil``, the
Shortley-Weller cut-cell -Laplacian of the disc as one diagonal and one
(4, n, n) table of arm coefficients, ``RedBlackSOR``, the one red-black
(projected) SOR kernel on it (the Cartesian obstacle and Dirichlet solver of
both the envelope refinement and the PSOR oracle; at an odd row stride a
node's colour is the parity of its flat index, so a solve's work vector holds
the red nodes and then the black ones, each arm is a constant offset into the
other colour, and a colour's neighbour sums are adds of contiguous slices,
with gathers only on the rows next to the circle; a relaxation factor each
solve takes from its own update ratios), and ``write_csv``, the one writer of
every CSV table the package emits (a field on a Cartesian grid is given by
its two axes and its (nx, ny) values, so each coordinate is formatted once
and each grid row is one ``%``).  The PSOR residual reads the same tables.

Everything here is numpy only: lsmlab loads no scipy module.
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


# Grid offsets (di, dj) of the stencil's arms, in the order of ``DiscStencil.arms``.
ARMS = {"E": (1, 0), "W": (-1, 0), "N": (0, 1), "S": (0, -1)}


@dataclass(eq=False)
class DiscStencil:
    """Shortley-Weller 5-point stencil on the disc-masked grid, as coefficient tables.

    At an inside node (i, j), with cE, cW, cN, cS = ``arms[:, i, j]``,
    -Laplacian u = (diag * u[i, j] - (((cE * u[i+1, j] + cW * u[i-1, j])
    + cN * u[i, j+1]) + cS * u[i, j-1])) / spacing**2.
    ``arms`` is one (4, n, n) table in the order of ``ARMS``; an arm that
    leaves the disc reads the circle's zero, so its coefficient is 0, and so
    is every coefficient of a node off the disc.  A node whose four arms stay
    in the disc has unit coefficients and ``diag`` 4.  ``diag`` and ``inside``
    are (n, n) arrays; ``diag`` is zero off the disc.
    """

    inside: np.ndarray
    diag: np.ndarray
    arms: np.ndarray


def disc_stencil(coords: np.ndarray, spacing: float, inside: np.ndarray) -> DiscStencil:
    """Cut-cell stencil of -Laplacian on the nodes of ``coords`` inside the unit disc.

    ``inside`` is the grid's mask of nodes with |x| < 1, as its ``GridField``
    holds it.  An arm that leaves the disc is shortened to the fraction theta
    of a cell at which it meets the unit circle (Shortley & Weller 1938),
    where the Dirichlet value is zero.
    """
    # The grid's edge lies outside the disc, so no roll wraps an inside node's arm.
    kept = np.stack([np.roll(inside, (-di, -dj), axis=(0, 1)) for di, dj in ARMS.values()])
    kept &= inside
    theta = np.ones(kept.shape)
    for k, e in enumerate(np.array(list(ARMS.values()), dtype=float)):
        cut = inside & ~kept[k]
        p = coords[cut]
        a = spacing * spacing
        b = 2.0 * spacing * (p @ e)
        c = np.sum(p * p, axis=1) - 1.0
        disc = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
        theta[k][cut] = np.clip((-b + disc) / (2.0 * a), 1e-6, 1.0)
    te, tw, tn, ts = theta
    arms = np.stack([2.0 / (te * (te + tw)), 2.0 / (tw * (te + tw)),
                     2.0 / (tn * (tn + ts)), 2.0 / (ts * (tn + ts))])
    arms[~kept] = 0.0
    diag = np.where(inside, 2.0 / (te * tw) + 2.0 / (tn * ts), 0.0)
    return DiscStencil(inside=inside, diag=diag, arms=arms)


# Every SOR solve starts at this relaxation factor.  The kernel switches once to
# the solve's own optimum (see ``RedBlackSOR``) when that lies above it; the
# factor sets how fast a solve reaches its fixed point, not the fixed point.
SOR_OMEGA = 1.9
# The ratio q of successive largest updates has settled once it moved by at
# most SETTLE_TOL * (1 - q) in each of SETTLE_SWEEPS sweeps in a row: the
# optimum depends on q through 1 - q, which is 0.004 on a 257^2 cap.
SETTLE_TOL = 0.01
SETTLE_SWEEPS = 5


@dataclass(eq=False)
class _Colour:
    """One colour's share of a sweep, over the span of its mask nodes' indices.

    While work vector f holds the iterate, ``old[f]`` is the span in it,
    ``new[f]`` the span in the other vector (which receives the update), and
    ``arms[f]`` the E, W, N, S slices of ``read[f]``, the vector holding the
    other colour's latest values, which the rows next to the circle gather
    from as well.
    """

    old: tuple
    new: tuple
    arms: tuple
    read: tuple
    mask: np.ndarray        # the span's nodes on the solve's mask
    diag: np.ndarray        # 1 off the mask
    phi: np.ndarray | None  # -inf off the mask
    rows: np.ndarray        # span positions of the mask rows with a non-unit arm
    nbrs: np.ndarray        # (4, rows) work-vector positions of their neighbours
    coeffs: np.ndarray      # (4, rows) their coefficients, 0 on a cut arm
    sums: np.ndarray        # the span's neighbour sums, rewritten each sweep
    keep: np.ndarray = None   # 1 - omega on the mask, 1 off it
    relax: np.ndarray = None  # omega on the mask, 0 off it


class RedBlackSOR:
    """Red-black (projected) SOR sweeps of the disc stencil on the ``nodes`` mask.

    Nodes off the mask hold their ``values`` as Dirichlet data, arms that leave
    the disc read the circle's zero, and an ``obstacle`` clips each update
    from below.

    The grid is laid out row by row at an odd row stride L (one padding
    column on a grid of even width), so a node's colour is the parity of its
    flat index.  A work vector holds the even (red) flat nodes, then the odd
    (black) ones (Adams & Ortega, Proc. ICPP 1982, on colour-ordered
    unknowns), and each arm of a colour is one constant offset into the other
    colour: E +(L-1)/2, W -(L+1)/2, N 0, S -1 from red, and E +(L+1)/2,
    W -(L-1)/2, N +1, S 0 from black.  A colour relaxes the span of its mask
    nodes' indices: the neighbour sum ((E + W) + N) + S is three adds of
    contiguous slices, exact on the unit-coefficient rows, and the few mask
    rows next to the circle are redone by gathers, ((cE E + cW W) + cN N) + cS S.
    Either sum is bit for bit the stencil's four multiply-adds from zero in
    E, W, N, S order.  Nodes of the span off the mask take the factors (1, 0)
    in place of (1 - omega, omega) and an obstacle of -inf, so they keep
    their values.  Two work vectors take turns: a sweep writes each colour's
    update into the other vector, and the black colour reads the red one
    there.  A node that no mask node's arm reaches holds 0, and every other
    node its value plus 0.0, so a -0.0 reads as the stencil's sums from zero
    read it.  ``store`` writes the mask nodes back into a field.

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
        nx, ny = values.shape
        stride = ny | 1

        def rows_at_stride(table, fill):
            """The table's rows laid end to end at the row stride, flat."""
            if stride == ny:
                return table.reshape(-1)
            out = np.full((nx, stride), fill, dtype=table.dtype)
            out[:, :ny] = table
            return out.reshape(-1)

        # The nodes a sweep reads: the mask and the disc nodes its arms reach.
        # The mask lies in the disc, off the grid's edge, so no roll wraps it round.
        read = nodes.copy()
        for step in ARMS.values():
            read |= np.roll(nodes, step, axis=(0, 1))
        read &= stencil.inside
        flat_nodes, flat_read = rows_at_stride(nodes, False), rows_at_stride(read, False)
        flat_values = rows_at_stride(values, 0.0)
        flat_diag = rows_at_stride(stencil.diag, 0.0)
        flat_phi = None if obstacle is None else rows_at_stride(obstacle, 0.0)
        flat_arms = [rows_at_stride(c, 0.0) for c in stencil.arms]
        red = (flat_values.size + 1) // 2
        work = np.empty(flat_values.size)
        np.add(np.where(flat_read[0::2], flat_values[0::2], 0.0), 0.0, out=work[:red])
        np.add(np.where(flat_read[1::2], flat_values[1::2], 0.0), 0.0, out=work[red:])
        self._buffers = (work, work.copy())
        self._flip = 0
        self._work = work
        positions = np.flatnonzero(flat_nodes)
        self._flat = positions - positions // stride * (stride - ny)
        self._pos = (positions >> 1) + red * (positions & 1)
        self._colours = []
        for colour, start, other in ((0, 0, red), (1, red, 0)):
            mine = np.flatnonzero(flat_nodes[colour::2])
            if mine.size == 0:
                continue
            lo, hi = int(mine[0]), int(mine[-1]) + 1
            span = slice(2 * lo + colour, 2 * hi + colour, 2)
            mask = flat_nodes[span]
            coeffs = np.stack([c[span] for c in flat_arms])
            rows = np.flatnonzero(mask & np.any(coeffs != 1.0, axis=0))
            offsets = [other + (di * stride + dj + 2 * colour - 1) // 2
                       for di, dj in ARMS.values()]
            # Red reads black in the current vector, black reads red in the next.
            reads = [self._buffers[f if colour == 0 else 1 - f] for f in (0, 1)]
            self._colours.append(_Colour(
                old=tuple(b[start + lo:start + hi] for b in self._buffers),
                new=tuple(b[start + lo:start + hi] for b in self._buffers[::-1]),
                arms=tuple(tuple(r[lo + k:hi + k] for k in offsets) for r in reads),
                read=tuple(reads), mask=mask,
                diag=np.where(mask, flat_diag[span], 1.0),
                phi=None if flat_phi is None else np.where(mask, flat_phi[span], -np.inf),
                rows=rows, nbrs=lo + rows + np.array(offsets)[:, None],
                coeffs=coeffs[:, rows], sums=np.empty(hi - lo)))
        self.omega = SOR_OMEGA
        self._set_factors()
        self.sweeps = 0
        self._watching = True
        self._last = self._ratio = np.nan
        self._calm = 0

    def _set_factors(self) -> None:
        for c in self._colours:
            c.keep = np.where(c.mask, 1.0 - self.omega, 1.0)
            c.relax = np.where(c.mask, self.omega, 0.0)

    def sweep(self) -> float:
        """One red-black sweep; returns the largest absolute update, NaN if any update is."""
        f = self._flip
        biggest = 0.0
        for c in self._colours:
            old, new, s = c.old[f], c.new[f], c.sums
            e, w, n, so = c.arms[f]
            np.add(e, w, out=s)
            np.add(s, n, out=s)
            np.add(s, so, out=s)
            if c.rows.size:
                ce, cw, cn, cs = c.coeffs * c.read[f][c.nbrs]
                s[c.rows] = ((ce + cw) + cn) + cs
            # new = keep * old + relax * (s / diag), then clipped by phi.
            np.divide(s, c.diag, out=s)
            np.multiply(c.relax, s, out=s)
            np.multiply(c.keep, old, out=new)
            np.add(new, s, out=new)
            if c.phi is not None:
                np.maximum(c.phi, new, out=new)
            np.subtract(new, old, out=s)
            np.abs(s, out=s)
            biggest = float(np.maximum.reduce(s, initial=biggest))
        self._flip = 1 - f
        self._work = self._buffers[self._flip]
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
            self._set_factors()
            self._watching = False

    def effort(self) -> str:
        """The sweeps done and the factor in use, as an error message names them."""
        return f"after {self.sweeps} sweeps at omega {self.omega:.4f}"

    def store(self, values: np.ndarray) -> None:
        """Write the relaxed mask nodes back into ``values``."""
        values.flat[self._flat] = self._work[self._pos]


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
