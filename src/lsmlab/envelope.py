"""Envelopes over patch dictionaries and iterated balayage on non-contact sets.

A field is a ``RadialProfile`` (values on radii ending at the unit sphere,
affine in the scale coordinate between nodes: ``w1``, each level, each
balayage and the radial oracle's value function) or a Cartesian
``GridField``; neither derives from the other, and ``Field`` names either.

The unbranched envelope scans a parametric dictionary of globally majorising
patches (constants, boundary-tangent caps, annulus-to-boundary patches) and is
an upper bound on the true infimum.  One scan serves radial and Cartesian
grids alike: a grid supplies its node points, its cap directions with their
slopes, and the radius sweep on which one safeguarded rule picks the annulus
inner radius.

Refinement replaces the field on each non-contact component by the
component's obstacle-respecting harmonic replacement, which coincides with
plain log/power interpolation whenever the interpolant clears the gain.  The
plain replacement (which may dip below the gain, and does for spiked gains) is
kept as the balayage diagnostic.

Radial fields are affine in the scale coordinate on a harmonic stretch, so the
obstacle-respecting replacement of a non-contact run is the upper concave hull
of the gain with the run's ends pinned, and the balayage is interpolation
between contact nodes.  Cartesian fields use red-black (projected) SOR on the
cut-cell disc stencil, one ``grids.RedBlackSOR`` kernel per component.  Both
primitives live in ``lsmlab.grids`` and are shared with the oracles.

``contact_set`` labels the non-contact components with
``grids.label_components``, and witnesses on a Cartesian grid
(``build_branched_witness``) shrink a component with numpy only (see
``lsmlab.geometry``) and solve for its base patch with the same SOR kernel,
whether the shrunk component is a ball, an annulus or a grid region.  Both
the kernel and the geometry are numpy only, so no run loads a scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar, Optional

import numpy as np

from .gain import ConfigError, GainError, GainField, outer_running_max
from .geometry import (DegenerateApproximationError, GridRegion, signed_distance,
                       smooth_inner_approximation)
from .grids import (DiscStencil, RedBlackSOR, bilinear, cartesian_grid, disc_stencil,
                    label_components, radial_grid, scale_coordinate, upper_concave_hull,
                    write_csv)
from .harmonic import BoundaryData
from .majorant import (BranchedMajorant, ExtensionMap, HarmonicPatch, annulus_patch,
                       annulus_to_boundary_patch, branched, cap_patch, constant_patch,
                       grid_patch, identity_frames, leaf, matching_error)

CONTACT_TOL = 1e-9
RELAX_TOL = 2e-11
MAX_SWEEPS = 200_000   # per-component SOR sweep budget


class EnvelopeError(ValueError):
    pass


class ConvergenceError(EnvelopeError):
    """A relaxation loop hit its iteration limit; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class NoWitnessError(EnvelopeError):
    """No witness at the point: it is in the contact set, or the shrink leaves no room."""


# ---------------------------------------------------------------------------
# Grid fields and contact sets
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class RadialProfile:
    """Radial field: values on an increasing radius grid ending at the unit
    sphere, affine in the scale coordinate between nodes.

    ``scale`` is the nodes' scale coordinate, computed once per grid;
    ``copy_with`` hands it on, so the levels of a refinement share it.
    """

    kind: ClassVar[str] = "radial"
    radii: np.ndarray
    values: np.ndarray
    tag: str
    dim: int = 2
    scale: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.radii) <= 0.0):
            raise EnvelopeError("radii must be strictly increasing")
        if abs(self.radii[-1] - 1.0) > 1e-12:
            raise EnvelopeError("last radius must be 1")
        if not np.all(np.isfinite(self.values)):
            raise EnvelopeError("field values must be finite")
        if self.scale is None:
            self.scale = scale_coordinate(self.radii, self.dim)

    def copy_with(self, values: np.ndarray, tag: str) -> "RadialProfile":
        return replace(self, values=values, tag=tag)

    def interpolate(self, r) -> float | np.ndarray:
        """Field value at radii of any shape, constant beyond the first and last node."""
        r = np.asarray(r, dtype=float)
        s = scale_coordinate(np.clip(r, self.radii[0], self.radii[-1]), self.dim)
        out = np.interp(s, self.scale, self.values)
        return float(out) if r.ndim == 0 else out

    def nearest_node(self, points) -> tuple:
        """Index of the node nearest in radius to each point, given one per row or
        alone, as a tuple that indexes ``values``; a tie takes the lower node."""
        pts = np.asarray(points, dtype=float)
        r = np.linalg.norm(np.atleast_2d(pts), axis=1)
        hi = np.clip(np.searchsorted(self.radii, r), 1, len(self.radii) - 1)
        lower = np.abs(self.radii[hi - 1] - r) <= np.abs(self.radii[hi] - r)
        node = np.where(lower, hi - 1, hi)
        return (int(node[0]),) if pts.ndim == 1 else (node,)

    def to_csv(self, path) -> None:
        write_csv(path, "r in unit-ball lengths, value in payoff units", ["r", "value"],
                  self.radii, self.values)


@dataclass(eq=False)
class GridField:
    """Scalar field on a 2-d Cartesian grid whose node [i, j] is ``coords[i, j]``.

    The field builds the cut-cell disc stencil of its grid on first use of
    ``stencil``; ``copy_with`` hands it on, so the levels of a refinement
    share one operator.
    """

    kind: ClassVar[str] = "cartesian"
    dim: ClassVar[int] = 2
    values: np.ndarray
    tag: str
    spacing: float
    coords: np.ndarray
    inside: np.ndarray
    _stencil: Optional[DiscStencil] = field(default=None, init=False, repr=False)

    def copy_with(self, values: np.ndarray, tag: str) -> "GridField":
        out = replace(self, values=values, tag=tag)
        out._stencil = self._stencil
        return out

    @property
    def stencil(self) -> DiscStencil:
        if self._stencil is None:
            self._stencil = disc_stencil(self.coords, self.spacing, self.inside)
        return self._stencil

    def interpolate(self, x) -> float | np.ndarray:
        """Bilinear field value at one point or at points given one per row."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        single = np.asarray(x).ndim == 1
        out = bilinear(self.values, self.coords[0, 0], (self.spacing, self.spacing), pts)
        return float(out[0]) if single else out

    def nearest_node(self, points) -> tuple:
        """Index of the node nearest each point, as a tuple that indexes ``values``.

        ``points`` holds one point per row, or is one point, whose index is
        then a tuple of ints.  A coordinate halfway between two nodes takes
        the even index.
        """
        pts = np.asarray(points, dtype=float)
        n = self.values.shape[0]
        idx = np.clip(np.rint((np.atleast_2d(pts) - self.coords[0, 0]) / self.spacing),
                      0, n - 1).astype(int)
        return (int(idx[0, 0]), int(idx[0, 1])) if pts.ndim == 1 else (idx[:, 0], idx[:, 1])

    def to_csv(self, path) -> None:
        write_csv(path, "x,y in unit-ball lengths, value in payoff units",
                  ["x", "y", "value"], *self._axes(), self.values)

    def _axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The axes x, y of a Cartesian grid whose node [i, j] is (x[i], y[j]).

        Every node must hold its row's x and its column's y bit for bit, so
        that the grid form of ``write_csv`` writes the bytes of the flat
        columns; any other ``coords`` raise ValueError.
        """
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 3 or coords.shape[2] != 2:
            raise ValueError(f"Cartesian coords must have shape (nx, ny, 2), not {coords.shape}")
        bits = coords.view(np.uint64)
        if not (np.all(bits[..., 0] == bits[:, :1, 0]) and np.all(bits[..., 1] == bits[:1, :, 1])):
            raise ValueError("Cartesian coords are not the tensor grid of their axes")
        return coords[:, 0, 0], coords[0, :, 1]


Field = RadialProfile | GridField


def cartesian_field(n: int, values: np.ndarray, tag: str) -> GridField:
    coords, spacing = cartesian_grid(n)
    inside = np.linalg.norm(coords, axis=-1) < 1.0
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise EnvelopeError("field values must be finite")
    return GridField(values=values, tag=tag, spacing=spacing, coords=coords, inside=inside)


def _gain_on_radii(gain: GainField, radii: np.ndarray) -> np.ndarray:
    """The gain along a radius sweep; a gain off the origin has none, so it
    cannot run on a radial grid."""
    if not gain.radial:
        raise GainError(f"gain is not radial: its centre {gain.center} is not the origin, "
                        f"so it needs a cartesian grid")
    return gain.profile(radii)


def gain_on_grid(gain: GainField, fld: Field) -> np.ndarray:
    if fld.kind == "radial":
        return _gain_on_radii(gain, fld.radii)
    pts = fld.coords.reshape(-1, 2)
    return gain(pts).reshape(fld.values.shape)


@dataclass(eq=False)
class ContactSet:
    """Contact mask (true where the field sits on the gain) and non-contact components."""

    contact_mask: np.ndarray
    noncontact_mask: np.ndarray
    labels: np.ndarray
    n_components: int
    tol: float


def contact_set(w: Field, gain: GainField, tol: float = CONTACT_TOL) -> ContactSet:
    """Components are nearest-neighbour connected: runs of nodes on a radial
    grid (whose inside is every node), the 4-neighbourhood on a Cartesian one."""
    gvals = gain_on_grid(gain, w)
    if np.any(w.values < gvals - 100 * tol):
        raise EnvelopeError("field drops below the gain; not an envelope")
    close = (w.values - gvals) <= tol
    inside = w.inside if w.kind == "cartesian" else np.ones_like(close)
    contact = close & inside
    noncontact = inside & ~contact
    labels, n = label_components(noncontact)
    return ContactSet(contact_mask=contact, noncontact_mask=noncontact,
                      labels=labels, n_components=n, tol=tol)


# ---------------------------------------------------------------------------
# Unbranched envelope over the patch dictionary
# ---------------------------------------------------------------------------

FAMILY_CONSTANT = 0
FAMILY_CAP = 1
FAMILY_ANNULUS = 2
CAP_DIRECTIONS = 256   # cap directions scanned on a Cartesian grid


@dataclass(eq=False)
class EnvelopeRun:
    """Unbranched envelope plus the dictionary bookkeeping needed for witnesses."""

    field: Field
    gain: GainField
    family: np.ndarray           # per-node best family code
    index: np.ndarray            # per-node cap direction index (0 off the caps)
    directions: np.ndarray       # cap directions, one per row; e1 alone on a radial run
    slopes: np.ndarray           # cap slope parameter of each direction
    annulus_inner: Optional[float]
    class_lipschitz: float

    @property
    def rotated_caps(self) -> bool:
        """Whether caps turn to pass through each query direction (radial runs)."""
        return self.field.kind == "radial"

    def best_patches(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Family code and parameter key of the dictionary patch at each point.

        The patch is the one achieving the envelope at the node nearest the
        point; a radial distance halfway between two nodes takes the lower
        one.  The parameter is the cap direction index (always 0 on a radial
        run) and 0 for the other families, so ``(family, parameter)`` names
        one ``key_patch``.
        """
        node = self.field.nearest_node(np.atleast_2d(points))
        family = self.family[node]
        return family, np.where(family == FAMILY_CAP, self.index[node], 0)

    def key_patch(self, family: int, param: int) -> HarmonicPatch:
        """The dictionary patch of one ``best_patches`` key; a radial cap is
        the one through e1."""
        gain = self.gain
        if family == FAMILY_CONSTANT:
            return constant_patch(gain.max_gain, gain.gstar, dim=gain.dim)
        if family == FAMILY_CAP:
            return cap_patch(self.directions[param], float(self.slopes[param]), gain.gstar)
        if family == FAMILY_ANNULUS:
            return annulus_to_boundary_patch(self.annulus_inner, gain.gstar, dim=gain.dim)
        raise EnvelopeError(f"unknown family code {family}")

    def best_patch(self, x) -> HarmonicPatch:
        """Dictionary patch achieving the envelope at (the node nearest) x; a
        radial cap is turned to pass through the direction of x."""
        x = np.asarray(x, dtype=float)
        family, param = self.best_patches(x)
        if family[0] == FAMILY_CAP and self.rotated_caps:
            return cap_patch(x / np.linalg.norm(x), float(self.slopes[0]), self.gain.gstar)
        return self.key_patch(int(family[0]), int(param[0]))


def unbranched_envelope(gain: GainField, grid) -> EnvelopeRun:
    """Pointwise minimum over the feasible patch dictionary.

    ``grid`` is a radius array (a radial run) or a Cartesian node count.  The
    dictionary holds the constant at the max gain (feasible for every gain, so
    the envelope is defined even when everything else fails), boundary-tangent
    caps, and for radial gains the annulus-to-boundary family.  The grid
    supplies only three things:

    - its node points: ``radii x e1`` on a radial run, the grid nodes on a
      Cartesian one;
    - its cap directions and slopes: e1 alone with the slope of
      ``_cap_zstar_radial`` on a radial run (its caps turn through each query
      direction), ``CAP_DIRECTIONS`` fixed directions with node-exact slopes
      on a Cartesian run;
    - its radius sweep, on which ``_annulus_inner_index`` picks the annulus
      inner radius: the run's own radii, or ``radial_grid(2048, 1e-3)``.

    The three families are then scanned once for both grids.  A Cartesian grid
    with no node inside the disc in the gain's support raises ``ConfigError``;
    an off-centre gain on a radial grid raises ``GainError``.
    """
    d, gstar = gain.dim, gain.gstar
    if isinstance(grid, (int, np.integer)):
        n = int(grid)
        fld = cartesian_field(n, np.zeros((n, n)), tag="unbranched-envelope")
        points, inside = fld.coords.reshape(-1, 2), fld.inside.ravel()
        gvals = gain_on_grid(gain, fld).ravel()
        support = inside & (gvals > 1e-14)
        if not support.any():
            raise ConfigError(f"no node of the {n}x{n} cartesian grid inside the disc lies in "
                              f"the gain's support; use more grid.nodes")
        angles = 2.0 * np.pi * np.arange(CAP_DIRECTIONS) / CAP_DIRECTIONS
        directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        # Each slope clears the gain at the support's nodes only, so a cap may
        # fall below the gain between nodes (by up to 1.3e-3 at 257 nodes and
        # 7.1e-3 at 97 on the presets).  It stays node-exact on purpose: slopes
        # bounded rigorously from the gain profile left w1 with no contact node
        # at all (84 -> 0 nodes on a 129-node annulus gain, 6 -> 0 and 14 -> 0
        # on the offset cap gain at 97 and 257 nodes) while the refinement
        # limits agreed within 1.1e-11.  The level-0 balayage would then be the
        # trivial whole-disc solve, and so would a payoff rule built on the w1
        # contact set.  A rigorous slope first needs a decision on that discrete
        # contact set, or separate rigorous witness leaves.
        sp_pts, sp_g = points[support], gvals[support]
        slopes = np.array([np.min((1.0 - sp_pts @ u) / sp_g) for u in directions])
        sweep = radial_grid(2048, 1e-3)
    else:
        fld = RadialProfile(grid, np.zeros(len(grid)), "unbranched-envelope", d)
        sweep = fld.radii
        gvals = _gain_on_radii(gain, sweep)
        directions = np.eye(d)[:1]
        slopes = np.array([_cap_zstar_radial(gain)])
        points, inside = np.outer(sweep, directions[0]), np.ones(len(sweep), dtype=bool)

    values = np.full(len(points), gain.max_gain)
    family = np.full(len(points), FAMILY_CONSTANT, dtype=int)
    index = np.zeros(len(points), dtype=int)
    for k, (u, z) in enumerate(zip(directions, slopes)):
        cap = (1.0 - points @ u) / z
        better = (cap <= gstar) & (cap < values)
        values[better], family[better], index[better] = cap[better], FAMILY_CAP, k
    class_lip = float(np.max(1.0 / slopes))

    ann_inner = None
    if gain.radial:
        psi = scale_coordinate(1.0, d) - scale_coordinate(sweep, d)  # >= 0, decreasing
        j0 = _annulus_inner_index(gain.profile(sweep), psi, gstar)
        if j0 is not None:
            ann_inner = float(sweep[j0])
            r = np.linalg.norm(points, axis=1)
            with np.errstate(divide="ignore"):
                ann = gstar * (scale_coordinate(1.0, d) - scale_coordinate(r, d)) / psi[j0]
            better = (r >= ann_inner) & (ann < values)
            values[better], family[better], index[better] = ann[better], FAMILY_ANNULUS, 0
            # The annulus patch's gradient peaks on its inner sphere.
            if d == 2:
                lip = gstar / (math.log(1.0 / ann_inner) * ann_inner)
            else:
                p = 2.0 - d
                lip = gstar * abs(p) * ann_inner ** (p - 1.0) / abs(1.0 - ann_inner ** p)
            class_lip = max(class_lip, lip)

    # Dictionary patches clear the gain; the maximum kills rounding slack.
    values = np.where(inside, np.maximum(values, gvals), 0.0)
    shape = fld.values.shape
    return EnvelopeRun(field=fld.copy_with(values.reshape(shape), fld.tag), gain=gain,
                       family=family.reshape(shape), index=index.reshape(shape),
                       directions=directions, slopes=slopes, annulus_inner=ann_inner,
                       class_lipschitz=float(class_lip))


def _cap_zstar_radial(gain: GainField) -> float:
    """Largest feasible cap slope parameter, conservatively over the gaps of a
    4096-point probe of [0, 1] (not the run's radius grid).

    On [p_i, p_{i+1}] the slice maximum G is bounded by G(p_i) (G is a
    nonincreasing running max) while the cap's lever 1 - p is at least
    1 - p_{i+1}, so requiring (1 - p_{i+1})/G(p_i) >= z is rigorous even for
    discontinuous gains.
    """
    profile_grid = np.linspace(0.0, 1.0, 4096)
    big = outer_running_max(gain, profile_grid)
    lever = 1.0 - np.concatenate([profile_grid[1:], [1.0]])
    pos = big > 1e-14
    if not pos.any():
        raise EnvelopeError("gain has no positive part")
    return float(np.min(lever[pos] / big[pos]))


def _annulus_inner_index(gprof: np.ndarray, psi: np.ndarray, gstar: float) -> Optional[int]:
    """Index on a radius sweep of the smallest feasible inner radius of the
    annulus-to-boundary patch, or None if none below the last radius is.

    ``gprof`` is the gain and ``psi`` the scale distance to the unit sphere
    (``scale(1) - scale(r)``) along the sweep; the patch with inner radius a
    is gstar * psi(r) / psi(a) on r >= a.  Conservative over the gaps between
    sweep radii: the patch decreases outward, so on [r_i, r_{i+1}] its value
    is at least the value at r_{i+1}, while the gain is bounded by the larger
    endpoint.
    """
    psi_shift = np.concatenate([psi[1:], [0.0]])
    g_hull = np.maximum(gprof, np.concatenate([gprof[1:], [0.0]]))
    with np.errstate(divide="ignore"):
        bound = np.where(g_hull > 1e-14, gstar * psi_shift / np.maximum(g_hull, 1e-300),
                         np.inf)
    suffix = np.minimum.accumulate(bound[::-1])[::-1]
    feasible = psi <= suffix * (1.0 + 1e-12)
    feasible[-1] = False  # inner radius 1 leaves no annulus
    return int(np.argmax(feasible)) if feasible.any() else None


# ---------------------------------------------------------------------------
# Balayage (plain harmonic replacement) and obstacle-respecting refinement
# ---------------------------------------------------------------------------

def balayage_step(w: Field, contact: ContactSet) -> Field:
    """Harmonic replacement of w on each non-contact component, clipped above by w.

    This realises the expected gain at the first exit from the non-contact
    set; it may drop below the gain (spiked gains do), which is precisely the
    failure of unbranched envelopes the refinement scheme repairs.
    """
    if w.kind == "radial":
        # Affine in the scale coordinate between contact nodes; a run touching
        # the unit sphere is pinned to 0 there, one touching the innermost
        # node is constant (bounded at the origin).
        pins = contact.contact_mask.copy()
        pins[-1] = True
        data = np.where(contact.contact_mask, w.values, 0.0)
        out = np.interp(w.scale, w.scale[pins], data[pins])
    else:
        out = w.values.copy()
        for label in range(1, contact.n_components + 1):
            _relax_component(out, contact.labels == label, w.stencil, obstacle=None)
    out = np.minimum(out, w.values)
    return w.copy_with(out, tag="balayage")


def envelope_step(w: Field, contact: ContactSet, gain: GainField) -> Field:
    """Obstacle-respecting replacement on each non-contact component, min with w.

    Where the plain interpolant stays above the gain this is exactly the
    log/power interpolation; where it would dip below, the replacement rides
    the gain, which keeps every iterate a majorant.
    """
    gvals = gain_on_grid(gain, w)
    out = w.values.copy()
    if w.kind == "radial":
        for i0, i1 in _runs(contact.labels):
            out[i0:i1 + 1] = _pinned_concave_majorant(w, gvals, i0, i1)
    else:
        for label in range(1, contact.n_components + 1):
            _relax_component(out, contact.labels == label, w.stencil, obstacle=gvals)
    out = np.minimum(out, w.values)
    return w.copy_with(out, tag="envelope")


def _runs(labels: np.ndarray) -> list[tuple[int, int]]:
    """First and last node of each labelled run of a radial grid, in label order.

    Distinct runs of a line never touch, so each starts where the labels step
    up from 0 and stops where they step back down to 0.
    """
    steps = np.diff(labels, prepend=0, append=0)
    return list(zip(np.flatnonzero(steps > 0).tolist(), (np.flatnonzero(steps < 0) - 1).tolist()))


def _pinned_concave_majorant(w: RadialProfile, gvals: np.ndarray, i0: int, i1: int) -> np.ndarray:
    """Smallest concave-in-scale majorant of the gain on the run [i0, i1] with pinned ends.

    Radial harmonic functions are affine in the scale coordinate, so the
    obstacle-respecting harmonic replacement on a run is the upper concave
    hull of the gain there.  The ends are pinned to w at the neighbouring
    contact nodes, or to max(g, 0) at the unit-sphere node.  A run starting
    at the innermost node is bounded at the origin: an anchor left of the run
    at the maximum of the points makes the hull flat up to its rightmost peak.
    """
    s = w.scale
    xs, ys = s[i0:i1 + 1], gvals[i0:i1 + 1].copy()
    if i1 + 1 == len(s):
        ys[-1] = max(ys[-1], 0.0)
    else:
        xs, ys = np.append(xs, s[i1 + 1]), np.append(ys, w.values[i1 + 1])
    if i0 == 0:
        xs, ys = np.append(xs[0] - 1.0, xs), np.append(ys.max(), ys)
    else:
        xs, ys = np.append(s[i0 - 1], xs), np.append(w.values[i0 - 1], ys)
    hx, hy = upper_concave_hull(xs, ys)
    return np.interp(s[i0:i1 + 1], hx, hy)


# Cartesian red-black SOR on the cut-cell disc stencil ---------------------

def _relax_component(values: np.ndarray, comp: np.ndarray, stencil: DiscStencil,
                     obstacle: np.ndarray | None) -> None:
    """(Projected) SOR on one component until the update is tiny against the field on the disc.

    ``values`` is updated in place; nodes off the component are Dirichlet data.
    The stop, an update of at most RELAX_TOL times the field's largest size on
    the disc, scales with the field: a field scaled by a power of two stops at
    the same sweep with every value scaled.  The kernel chooses its own
    relaxation factor (``grids.RedBlackSOR``).  A non-finite update ends the
    loop at once with ``ConvergenceError``, whose message names the sweeps
    done and the final factor.
    """
    scale = float(np.max(np.abs(values[stencil.inside])))
    sor = RedBlackSOR(values, comp, stencil, obstacle)
    for _ in range(MAX_SWEEPS):
        biggest = sor.sweep()
        if biggest <= RELAX_TOL * scale:
            sor.store(values)
            return
        if not np.isfinite(biggest):
            raise ConvergenceError(f"component relaxation diverged {sor.effort()}", biggest)
    raise ConvergenceError(f"component relaxation hit the sweep limit {sor.effort()}", biggest)


# ---------------------------------------------------------------------------
# Iterated refinement
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class EnvelopeSequence:
    levels: list
    contacts: list
    converged: bool
    summary: list
    run: EnvelopeRun


def iterate_envelopes(gain: GainField, run: EnvelopeRun, max_iter: int = 32, tol: float = 1e-9,
                      contact_tol: float = CONTACT_TOL) -> EnvelopeSequence:
    """Monotone refinement along decreasing non-contact sets, from the run's field.

    Each level replaces the previous one on its non-contact components and is
    clipped by it, so levels decrease nodewise and the non-contact sets nest.
    Stops when the sup change drops below tol.
    """
    w = run.field
    gvals = gain_on_grid(gain, w)
    levels = [w]
    contacts = [contact_set(w, gain, contact_tol)]
    summary = [_level_summary(0, np.inf, contacts[0])]
    converged = False
    for level in range(1, max_iter + 1):
        nxt = envelope_step(levels[-1], contacts[-1], gain)
        nxt.values = np.maximum(nxt.values, np.minimum(gvals, levels[-1].values))
        nxt.tag = f"envelope-level-{level}"
        change = float(np.max(np.abs(nxt.values - levels[-1].values)))
        levels.append(nxt)
        contacts.append(contact_set(nxt, gain, contact_tol))
        summary.append(_level_summary(level, change, contacts[-1]))
        if change < tol:
            converged = True
            break
    return EnvelopeSequence(levels=levels, contacts=contacts, converged=converged,
                            summary=summary, run=run)


def _level_summary(level: int, sup_change: float, contact: ContactSet) -> dict:
    return {
        "level": level,
        "sup_change": None if not np.isfinite(sup_change) else sup_change,
        "noncontact_cells": int(contact.noncontact_mask.sum()),
        "components": contact.n_components,
    }


# ---------------------------------------------------------------------------
# Branched witnesses
# ---------------------------------------------------------------------------

def build_branched_witness(seq: EnvelopeSequence, level: int, x) -> BranchedMajorant:
    """Realise the level's refinement at x as an explicit branched majorant.

    The base patch carries the level's field as boundary data on a smooth
    inner approximation of the NEXT level's non-contact component: there the
    next level is harmonic with smaller boundary data, so the base dominates
    it (hence the gain) while matching its value up to the reported error.
    Interior boundary points extend to dictionary patches achieving the
    unbranched envelope.

    On a radial grid the base is the closed-form annulus between the shrunk
    run's ends.  On a Cartesian grid it is the balayage's Dirichlet solve,
    whatever shape the shrunk component takes (a centred ball, an annulus or
    a grid region): the level is relaxed by red-black SOR on the nodes inside
    the shrunk domain, with its own values as data on every other node, and
    the patch reads the solved table's bilinear interpolant on that domain.
    At the last level, which is already discretely harmonic there, the solve
    returns the level.  On either grid the reported error carries the largest
    gap between the base and the next level over every component node strictly
    inside the base's domain.
    """
    if not 0 <= level < len(seq.levels):
        raise EnvelopeError(f"level {level} outside the computed sequence")
    fld = seq.levels[level]
    nxt_idx = min(level + 1, len(seq.levels) - 1)
    nxt = seq.levels[nxt_idx]
    contact = seq.contacts[nxt_idx]
    run, gain = seq.run, seq.run.gain
    x = np.asarray(x, dtype=float)

    leaves: dict[tuple[int, int], BranchedMajorant] = {}

    def key_leaf(key: tuple[int, int]) -> BranchedMajorant:
        if key not in leaves:
            leaves[key] = leaf(run.key_patch(*key))
        return leaves[key]

    def batch(pts: np.ndarray):
        family, param = run.best_patches(pts)
        keys = list(zip(family.tolist(), param.tolist()))
        frames = identity_frames(*pts.shape)
        if run.rotated_caps:
            cap = family == FAMILY_CAP
            frames[cap] = pts[cap] / np.linalg.norm(pts[cap], axis=1, keepdims=True)
        return keys, {key: key_leaf(key) for key in set(keys)}, frames

    def query(u: np.ndarray) -> BranchedMajorant:
        family, param = run.best_patches(u)
        if family[0] == FAMILY_CAP and run.rotated_caps:
            return leaf(run.best_patch(u))
        return key_leaf((int(family[0]), int(param[0])))

    extension = ExtensionMap(query=query, batch=batch)

    i = fld.nearest_node(x)
    if contact.labels[i] == 0:
        raise NoWitnessError(f"point {x} lies in the contact set")
    comp = contact.labels == contact.labels[i]
    if fld.kind == "radial":
        i0, i1 = (int(k) for k in np.flatnonzero(comp)[[0, -1]])
        shrink = 2.0 * (fld.radii[min(i1 + 1, len(fld.radii) - 1)] - fld.radii[i1])
        inner = float(fld.radii[i0]) + shrink
        touches_sphere = (i1 + 1 >= len(fld.radii) - 1) or fld.radii[i1 + 1] >= 1.0 - 1e-12
        outer = 1.0 if touches_sphere else float(fld.radii[i1]) - shrink
        if not inner < outer:
            raise NoWitnessError("the shrink width leaves no annulus in the component")
        va = float(fld.interpolate(inner))
        vb = 0.0 if touches_sphere else float(fld.interpolate(outer))
        base = annulus_patch(inner, outer, va, vb, gain.gstar, dim=gain.dim,
                             label=f"witness-annulus[{inner:.4g},{outer:.4g}]")
        points = np.outer(fld.radii, np.eye(gain.dim)[0])
    else:
        # Cartesian: the level's Dirichlet solve on a smooth inner
        # approximation of the component, whatever shape it takes.
        shrink = 6.0 * fld.spacing  # room for the grid mollifier at this resolution
        try:
            dom = smooth_inner_approximation(GridRegion(mask=comp, spacing=fld.spacing), shrink)
        except DegenerateApproximationError as exc:
            raise NoWitnessError(str(exc)) from None
        points = fld.coords
        solve = signed_distance(dom, points.reshape(-1, 2)).reshape(comp.shape) < 0.0
        values = fld.values.copy()
        _relax_component(values, solve, fld.stencil, obstacle=None)
        data = BoundaryData(evaluator=lambda pts: np.asarray(fld.interpolate(pts)))
        base = grid_patch(dom, data, gain.gstar, fld.copy_with(values, "witness-grid").interpolate,
                          label="witness-grid")
    if float(signed_distance(base.domain, x)) >= 0.0:
        raise NoWitnessError("point too close to the component boundary for the shrink width")
    # The value gap: every component node strictly inside the base domain.
    pts, nxt_vals = points[comp], nxt.values[comp]
    held = signed_distance(base.domain, pts) < 0.0
    value_gap = float(np.max(np.abs(base.value(pts[held]) - nxt_vals[held]), initial=0.0))
    err = (matching_error(branched(base, extension, depth=2, error_bound=0.0))[0] + value_gap
           + run.class_lipschitz * shrink)
    return branched(base, extension, depth=max(2, level + 2), error_bound=err)
