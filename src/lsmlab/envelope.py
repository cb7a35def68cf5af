"""Envelopes over patch dictionaries and iterated balayage on non-contact sets.

The unbranched envelope scans a parametric dictionary of globally majorising
patches (constants, boundary-tangent caps, annulus-to-boundary patches) and is
an upper bound on the true infimum.  Refinement replaces the field on each
non-contact component by the component's obstacle-respecting harmonic
replacement, which coincides with plain log/power interpolation whenever the
interpolant clears the gain.  The plain replacement (which may dip below the
gain, and does for spiked gains) is kept as the balayage diagnostic.

Radial fields are affine in the scale coordinate on a harmonic stretch, so the
obstacle-respecting replacement of a non-contact run is the upper concave hull
of the gain with the run's ends pinned, and the balayage is interpolation
between contact nodes.  Cartesian fields use red-black (projected) SOR on the
cut-cell disc stencil, one ``grids.RedBlackSOR`` kernel per component.  Both
primitives live in ``lsmlab.grids`` and are shared with the oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import ndimage

from .gain import GainField, outer_running_max
from .geometry import (Annulus, Ball, DegenerateApproximationError, GridRegion,
                       signed_distance, smooth_inner_approximation)
from .grids import (SOR_OMEGA, DiscStencil, RedBlackSOR, bilinear, cartesian_grid,
                    disc_stencil, scale_coordinate, upper_concave_hull, write_csv)
from .majorant import (BranchedMajorant, ExtensionMap, HarmonicPatch, annulus_patch,
                       annulus_to_boundary_patch, branched, cap_patch, constant_patch,
                       identity_frames, leaf, matching_error)

CONTACT_TOL = 1e-9
RELAX_TOL = 1e-11
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
class GridField:
    """Scalar field on a radial or 2-d Cartesian grid."""

    kind: str
    values: np.ndarray
    tag: str
    dim: int = 2
    radii: Optional[np.ndarray] = None
    spacing: Optional[float] = None
    coords: Optional[np.ndarray] = None
    inside: Optional[np.ndarray] = None

    def copy_with(self, values: np.ndarray, tag: str) -> "GridField":
        return GridField(kind=self.kind, values=values, tag=tag, dim=self.dim,
                         radii=self.radii, spacing=self.spacing, coords=self.coords,
                         inside=self.inside)

    @property
    def scale(self) -> np.ndarray:
        if self.kind != "radial":
            raise EnvelopeError("scale coordinate is for radial fields")
        return scale_coordinate(self.radii, self.dim)

    def interpolate(self, x) -> float | np.ndarray:
        """Field value at arbitrary points (linear in the scale coordinate or bilinear)."""
        if self.kind == "radial":
            r = np.asarray(x, dtype=float)
            if r.ndim == 2:
                r = np.linalg.norm(r, axis=1)
            single = r.ndim == 0
            r = np.atleast_1d(r)
            r = np.clip(r, self.radii[0], self.radii[-1])
            s = scale_coordinate(r, self.dim)
            out = np.interp(s, self.scale, self.values)
            return float(out[0]) if single else out
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        single = np.asarray(x).ndim == 1
        out = bilinear(self.values, self.coords[0, 0], (self.spacing, self.spacing), pts)
        return float(out[0]) if single else out

    def nearest_node(self, points) -> tuple:
        """Index of the node nearest each point, as a tuple that indexes ``values``.

        ``points`` holds one point per row, or is one point, whose index is
        then a tuple of ints.  A radial grid measures the distance in radius,
        and a radius halfway between two nodes takes the lower one; on a
        Cartesian grid a coordinate halfway between two nodes takes the even
        index.
        """
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if self.kind == "radial":
            radii = self.radii
            r = np.linalg.norm(pts, axis=1)
            hi = np.clip(np.searchsorted(radii, r), 1, len(radii) - 1)
            lower = np.abs(radii[hi - 1] - r) <= np.abs(radii[hi] - r)
            node = (np.where(lower, hi - 1, hi),)
        else:
            n = self.values.shape[0]
            idx = np.clip(np.rint((pts - self.coords[0, 0]) / self.spacing), 0, n - 1).astype(int)
            node = (idx[:, 0], idx[:, 1])
        return tuple(int(k[0]) for k in node) if single else node

    def to_csv(self, path) -> None:
        if self.kind == "radial":
            write_csv(path, "r in unit-ball lengths, value in payoff units", ["r", "value"],
                      self.radii, self.values)
        else:
            write_csv(path, "x,y in unit-ball lengths, value in payoff units",
                      ["x", "y", "value"], *self.coords.reshape(-1, 2).T, self.values.ravel())


def radial_field(radii: np.ndarray, values: np.ndarray, tag: str, dim: int = 2) -> GridField:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise EnvelopeError("field values must be finite")
    return GridField(kind="radial", values=values, tag=tag, dim=dim,
                     radii=np.asarray(radii, dtype=float))


def cartesian_field(n: int, values: np.ndarray, tag: str) -> GridField:
    coords, spacing = cartesian_grid(n)
    inside = np.linalg.norm(coords, axis=-1) < 1.0
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise EnvelopeError("field values must be finite")
    return GridField(kind="cartesian", values=values, tag=tag, dim=2,
                     spacing=spacing, coords=coords, inside=inside)


def gain_on_grid(gain: GainField, fld: GridField) -> np.ndarray:
    if fld.kind == "radial":
        return gain.profile(fld.radii)
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


def contact_set(w: GridField, gain: GainField, tol: float = CONTACT_TOL) -> ContactSet:
    """Components are nearest-neighbour connected: runs of nodes on a radial
    grid (whose inside is every node), the 4-neighbourhood on a Cartesian one."""
    gvals = gain_on_grid(gain, w)
    if np.any(w.values < gvals - 100 * tol):
        raise EnvelopeError("field drops below the gain; not an envelope")
    close = (w.values - gvals) <= tol
    inside = w.inside if w.kind == "cartesian" else np.ones_like(close)
    contact = close & inside
    noncontact = inside & ~contact
    labels, n = ndimage.label(noncontact)
    return ContactSet(contact_mask=contact, noncontact_mask=noncontact,
                      labels=labels, n_components=int(n), tol=tol)


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

    field: GridField
    gain: GainField
    family: np.ndarray           # per-node best family code
    index: np.ndarray            # per-node family parameter index
    zstar: float                 # cap slope parameter (by direction for cartesian)
    zstar_by_dir: Optional[np.ndarray]
    directions: Optional[np.ndarray]
    annulus_inner: Optional[float]
    class_lipschitz: float

    @property
    def rotated_caps(self) -> bool:
        """Whether caps turn to pass through each query direction (radial runs)."""
        return self.zstar_by_dir is None

    def best_patches(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Family code and parameter key of the dictionary patch at each point.

        The patch is the one achieving the envelope at the node nearest the
        point; a radial distance halfway between two nodes takes the lower
        one.  The parameter is the cap direction index on a Cartesian run and
        0 otherwise, so ``(family, parameter)`` names one ``key_patch``.
        """
        node = self.field.nearest_node(np.atleast_2d(points))
        family = self.family[node]
        param = np.where((family == FAMILY_CAP) & (not self.rotated_caps), self.index[node], 0)
        return family, param

    def key_patch(self, family: int, param: int) -> HarmonicPatch:
        """The dictionary patch of one ``best_patches`` key; a radial cap is
        the one through e1."""
        gain = self.gain
        if family == FAMILY_CONSTANT:
            return constant_patch(gain.max_gain, gain.gstar, dim=gain.dim)
        if family == FAMILY_CAP:
            if self.rotated_caps:
                return cap_patch(np.eye(gain.dim)[0], self.zstar, gain.gstar)
            return cap_patch(self.directions[param], float(self.zstar_by_dir[param]), gain.gstar)
        if family == FAMILY_ANNULUS:
            return annulus_to_boundary_patch(self.annulus_inner, gain.gstar, dim=gain.dim)
        raise EnvelopeError(f"unknown family code {family}")

    def best_patch(self, x) -> HarmonicPatch:
        """Dictionary patch achieving the envelope at (the node nearest) x; a
        radial cap is turned to pass through the direction of x."""
        x = np.asarray(x, dtype=float)
        family, param = self.best_patches(x)
        if family[0] == FAMILY_CAP and self.rotated_caps:
            return cap_patch(x / np.linalg.norm(x), self.zstar, self.gain.gstar)
        return self.key_patch(int(family[0]), int(param[0]))


def unbranched_envelope(gain: GainField, grid) -> EnvelopeRun:
    """Pointwise minimum over the feasible patch dictionary.

    The dictionary contains the constant at the max gain (feasible for every
    gain, so the envelope is defined even when everything else fails),
    boundary-tangent caps (rotated through each radial query direction, or
    ``CAP_DIRECTIONS`` fixed directions on a Cartesian grid), and for radial
    gains the annulus-to-boundary family with inner radii on the grid.
    """
    if isinstance(grid, (int, np.integer)):
        return _envelope_cartesian(gain, int(grid))
    return _envelope_radial(gain, np.asarray(grid, dtype=float))


def _cap_zstar_radial(gain: GainField, radii: np.ndarray) -> float:
    """Largest feasible cap slope parameter, conservatively over probe gaps.

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


def _envelope_radial(gain: GainField, radii: np.ndarray) -> EnvelopeRun:
    d = gain.dim
    K = len(radii)
    gvals = gain.profile(radii)
    gstar = gain.gstar
    gbar = gain.max_gain
    psi = scale_coordinate(1.0, d) - scale_coordinate(radii, d)  # >= 0, decreasing

    values = np.full(K, gbar)
    family = np.full(K, FAMILY_CONSTANT, dtype=int)
    index = np.zeros(K, dtype=int)
    class_lip = 0.0

    zstar = _cap_zstar_radial(gain, radii)
    cap_vals = (1.0 - radii) / zstar
    cap_vals = np.where(cap_vals <= gstar, cap_vals, np.inf)
    better = cap_vals < values
    values = np.where(better, cap_vals, values)
    family = np.where(better, FAMILY_CAP, family)
    class_lip = max(class_lip, 1.0 / zstar)

    ann_inner = None
    if gain.radial:
        # Conservative over inter-node gaps: the patch decreases outward, so on
        # [r_i, r_{i+1}] its value is at least the value at r_{i+1}, while the
        # gain is bounded by the larger endpoint.
        psi_shift = np.concatenate([psi[1:], [0.0]])
        g_hull = np.maximum(gvals, np.concatenate([gvals[1:], [0.0]]))
        with np.errstate(divide="ignore"):
            bound = np.where(g_hull > 1e-14, gstar * psi_shift / np.maximum(g_hull, 1e-300),
                             np.inf)
        suffix = np.minimum.accumulate(bound[::-1])[::-1]
        feasible = psi <= suffix * (1.0 + 1e-12)
        feasible[-1] = False  # inner radius 1 leaves no annulus
        if feasible.any():
            j0 = int(np.argmax(feasible))  # smallest feasible inner radius
            ann_inner = float(radii[j0])
            with np.errstate(invalid="ignore"):
                ann_vals = np.where(np.arange(K) >= j0, gstar * psi / psi[j0], np.inf)
            better = ann_vals < values
            values = np.where(better, ann_vals, values)
            family = np.where(better, FAMILY_ANNULUS, family)
            index = np.where(better, j0, index)
            if d == 2:
                class_lip = max(class_lip, gstar / (np.log(1.0 / ann_inner) * ann_inner))
            else:
                p = 2.0 - d
                class_lip = max(class_lip,
                                gstar * abs(p) * ann_inner ** (p - 1.0) / abs(1.0 - ann_inner ** p))

    values = np.maximum(values, gvals)  # dictionary patches clear the gain; kill rounding slack
    fld = radial_field(radii, values, tag="unbranched-envelope", dim=d)
    return EnvelopeRun(field=fld, gain=gain, family=family, index=index,
                       zstar=float(zstar), zstar_by_dir=None, directions=None,
                       annulus_inner=ann_inner, class_lipschitz=float(class_lip))


def _envelope_cartesian(gain: GainField, n: int) -> EnvelopeRun:
    coords, spacing = cartesian_grid(n)
    inside = np.linalg.norm(coords, axis=-1) < 1.0
    pts = coords.reshape(-1, 2)
    gvals = gain(pts).reshape(n, n)
    gstar = gain.gstar
    gbar = gain.max_gain

    values = np.full((n, n), gbar)
    family = np.full((n, n), FAMILY_CONSTANT, dtype=int)
    index = np.zeros((n, n), dtype=int)
    class_lip = 0.0

    angles = 2.0 * np.pi * np.arange(CAP_DIRECTIONS) / CAP_DIRECTIONS
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    support = inside & (gvals > 1e-14)
    sp_pts = coords[support]
    sp_g = gvals[support]
    zstar_by_dir = np.empty(CAP_DIRECTIONS)
    for k in range(CAP_DIRECTIONS):
        p = sp_pts @ dirs[k]
        zstar_by_dir[k] = np.min((1.0 - p) / sp_g)
        cap_vals = (1.0 - pts @ dirs[k]) / zstar_by_dir[k]
        cap_vals = np.where(cap_vals <= gstar, cap_vals, np.inf).reshape(n, n)
        better = cap_vals < values
        values = np.where(better, cap_vals, values)
        family = np.where(better, FAMILY_CAP, family)
        index = np.where(better, k, index)
    class_lip = max(class_lip, float(np.max(1.0 / zstar_by_dir)))

    ann_inner = None
    if gain.radial:
        fine = np.exp(np.linspace(np.log(1e-3), 0.0, 2048))
        fine[-1] = 1.0
        gf = gain.profile(fine)
        psi_f = scale_coordinate(1.0, 2) - scale_coordinate(fine, 2)
        with np.errstate(divide="ignore"):
            bound = np.where(gf > 1e-14, gstar * psi_f / np.maximum(gf, 1e-300), np.inf)
        suffix = np.minimum.accumulate(bound[::-1])[::-1]
        feasible = psi_f <= suffix * (1.0 + 1e-12)
        feasible[-1] = False
        if feasible.any():
            j0 = int(np.argmax(feasible))
            ann_inner = float(fine[j0])
            radii_nodes = np.linalg.norm(coords, axis=-1)
            with np.errstate(divide="ignore", invalid="ignore"):
                psi_nodes = scale_coordinate(1.0, 2) - scale_coordinate(
                    np.clip(radii_nodes, 1e-12, None), 2)
                ann_vals = np.where(radii_nodes >= ann_inner,
                                    gstar * psi_nodes / psi_f[j0], np.inf)
            better = ann_vals < values
            values = np.where(better, ann_vals, values)
            family = np.where(better, FAMILY_ANNULUS, family)
            class_lip = max(class_lip, gstar / (np.log(1.0 / ann_inner) * ann_inner))

    values = np.maximum(values, gvals)
    values[~inside] = 0.0
    fld = cartesian_field(n, values, tag="unbranched-envelope")
    return EnvelopeRun(field=fld, gain=gain, family=family, index=index,
                       zstar=float(np.min(zstar_by_dir)), zstar_by_dir=zstar_by_dir,
                       directions=dirs,
                       annulus_inner=ann_inner, class_lipschitz=float(class_lip))


# ---------------------------------------------------------------------------
# Balayage (plain harmonic replacement) and obstacle-respecting refinement
# ---------------------------------------------------------------------------

def balayage_step(w: GridField, contact: ContactSet, gain: GainField) -> GridField:
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
        stencil = disc_stencil(w.coords, w.spacing)
        for label in range(1, contact.n_components + 1):
            _relax_component(out, contact.labels == label, stencil, obstacle=None)
    out = np.minimum(out, w.values)
    return w.copy_with(out, tag="balayage")


def envelope_step(w: GridField, contact: ContactSet, gain: GainField) -> GridField:
    """Obstacle-respecting replacement on each non-contact component, min with w.

    Where the plain interpolant stays above the gain this is exactly the
    log/power interpolation; where it would dip below, the replacement rides
    the gain, which keeps every iterate a majorant.
    """
    gvals = gain_on_grid(gain, w)
    out = w.values.copy()
    if w.kind == "radial":
        for (run,) in ndimage.find_objects(contact.labels):
            out[run] = _pinned_concave_majorant(w, gvals, run.start, run.stop - 1)
    else:
        stencil = disc_stencil(w.coords, w.spacing)
        for label in range(1, contact.n_components + 1):
            _relax_component(out, contact.labels == label, stencil, obstacle=gvals)
    out = np.minimum(out, w.values)
    return w.copy_with(out, tag="envelope")


def _pinned_concave_majorant(w: GridField, gvals: np.ndarray, i0: int, i1: int) -> np.ndarray:
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
    """(Projected) SOR on one component until the update is relatively tiny.

    ``values`` is updated in place; nodes off the component are Dirichlet data.
    A non-finite update ends the loop at once with ``ConvergenceError``.
    """
    sor = RedBlackSOR(values, comp, stencil, obstacle)
    scale = float(np.max(np.abs(values))) + 1.0
    for _ in range(MAX_SWEEPS):
        biggest = sor.sweep(SOR_OMEGA)
        if biggest < RELAX_TOL * scale:
            sor.store(values)
            return
        if not np.isfinite(biggest):
            raise ConvergenceError("component relaxation diverged", biggest)
    raise ConvergenceError("component relaxation hit the sweep limit", biggest)


# ---------------------------------------------------------------------------
# Iterated refinement
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class EnvelopeSequence:
    levels: list
    contacts: list
    converged: bool
    summary: list
    run: Optional[EnvelopeRun] = None
    gain: Optional[GainField] = None


def iterate_envelopes(gain: GainField, start, max_iter: int = 32, tol: float = 1e-9,
                      contact_tol: float = CONTACT_TOL) -> EnvelopeSequence:
    """Monotone refinement along decreasing non-contact sets.

    Each level replaces the previous one on its non-contact components and is
    clipped by it, so levels decrease nodewise and the non-contact sets nest.
    Stops when the sup change drops below tol.
    """
    run = start if isinstance(start, EnvelopeRun) else None
    w = start.field if isinstance(start, EnvelopeRun) else start
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
                            summary=summary, run=run, gain=gain)


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

def build_branched_witness(seq: EnvelopeSequence, level: int, x,
                           shrink: float | None = None) -> BranchedMajorant:
    """Realise the level's refinement at x as an explicit branched majorant.

    The base patch carries the level's field as boundary data on a smooth
    inner approximation of the NEXT level's non-contact component: there the
    next level is harmonic with smaller boundary data, so the base dominates
    it (hence the gain) while matching its value up to the reported error.
    Interior boundary points extend to dictionary patches achieving the
    unbranched envelope.
    """
    if not 0 <= level < len(seq.levels):
        raise EnvelopeError(f"level {level} outside the computed sequence")
    fld = seq.levels[level]
    nxt_idx = min(level + 1, len(seq.levels) - 1)
    nxt = seq.levels[nxt_idx]
    contact = seq.contacts[nxt_idx]
    gain = seq.gain
    run = seq.run
    if run is None:
        raise EnvelopeError("witness construction needs the dictionary run")
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

    if fld.kind == "radial":
        r = float(np.linalg.norm(x))
        i = fld.nearest_node(x)
        if contact.labels[i] == 0:
            raise NoWitnessError(f"point at radius {r:.4g} lies in the contact set")
        label = contact.labels[i]
        nodes = np.nonzero(contact.labels == label)[0]
        i0, i1 = int(nodes[0]), int(nodes[-1])
        if shrink is None:
            shrink = 2.0 * (fld.radii[min(i1 + 1, len(fld.radii) - 1)] - fld.radii[i1])
        inner = float(fld.radii[i0]) + shrink
        touches_sphere = (i1 + 1 >= len(fld.radii) - 1) or fld.radii[i1 + 1] >= 1.0 - 1e-12
        outer = 1.0 if touches_sphere else float(fld.radii[i1]) - shrink
        if not inner < r < outer:
            raise NoWitnessError("point too close to the component boundary for the shrink width")
        va = float(fld.interpolate(inner))
        vb = 0.0 if touches_sphere else float(fld.interpolate(outer))
        base = annulus_patch(inner, outer, va, vb, gain.gstar, dim=gain.dim,
                             label=f"witness-annulus[{inner:.4g},{outer:.4g}]")
        sel = (fld.radii > inner) & (fld.radii < outer)
        base_profile = np.atleast_1d(base.value(np.outer(fld.radii[sel], np.eye(gain.dim)[0])))
        value_gap = float(np.max(np.abs(base_profile - nxt.values[sel]))) if sel.any() else 0.0
        err = (matching_error(branched(base, extension, depth=2, error_bound=0.0))[0] + value_gap
               + run.class_lipschitz * shrink)
        return branched(base, extension, depth=max(2, level + 2), error_bound=err)

    # Cartesian: smooth inner approximation of the component mask.
    i = fld.nearest_node(x)
    if contact.labels[i] == 0:
        raise NoWitnessError(f"point {x} lies in the contact set")
    label = contact.labels[i]
    comp_mask = contact.labels == label
    region = GridRegion(mask=comp_mask, spacing=fld.spacing)
    from .harmonic import BoundaryData, WosConfig
    from .majorant import ball_patch, grid_patch
    if shrink is None:
        shrink = 6.0 * fld.spacing  # room for the grid mollifier at this resolution
    try:
        dom = smooth_inner_approximation(region, shrink)
    except DegenerateApproximationError as exc:
        raise NoWitnessError(str(exc)) from None
    data = BoundaryData(evaluator=lambda pts: np.asarray(fld.interpolate(pts)))
    if isinstance(dom, Ball):
        base = ball_patch(dom.center, dom.radius, data, gain.gstar)
    elif isinstance(dom, Annulus):
        va = float(fld.interpolate(np.array([dom.inner, 0.0]) + np.asarray(dom.center)))
        vb = float(fld.interpolate(np.array([dom.outer, 0.0]) + np.asarray(dom.center)))
        base = annulus_patch(dom.inner, dom.outer, va, vb, gain.gstar)
    else:
        base = grid_patch(dom, data, gain.gstar, WosConfig(walks=4000, seed=11),
                          lipschitz_bound=run.class_lipschitz, label="witness-grid")
    if float(signed_distance(base.domain, x)) >= 0.0:
        raise NoWitnessError("point too close to the component boundary for the shrink width")
    probe_idx = np.argwhere(comp_mask)[:: max(1, comp_mask.sum() // 12)]
    gaps = []
    for pi, pj in probe_idx:
        p = fld.coords[pi, pj]
        bv = float(base.value(p))
        if np.isfinite(bv):
            gaps.append(abs(bv - float(nxt.values[pi, pj])))
    value_gap = max(gaps) if gaps else 0.0
    err = (matching_error(branched(base, extension, depth=2, error_bound=0.0))[0] + value_gap
           + run.class_lipschitz * shrink)
    return branched(base, extension, depth=max(2, level + 2), error_bound=err)
