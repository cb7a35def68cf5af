"""Independent ground-truth solvers for the stopping value function.

Two routes to the value function that do not go through the envelope
refinement: the classical one-dimensional reduction (smallest concave majorant
of the whole radial profile in the scale coordinate) and a projected-SOR
solve of the discrete obstacle complementarity system on a disc-masked grid.

They share the numerical primitives of ``lsmlab.grids`` with the envelope
module: the upper concave hull, the cut-cell disc stencil and the red-black
SOR kernel.  What stays independent is the algorithm: one global hull with a
far-left anchor here against one pinned hull per non-contact run at each
refinement level there, and one projected-SOR solve of the whole disc, stopped
on the complementarity residual, here against relaxation per non-contact
component at each level there.  A test-only primal-dual active-set solve
guards the shared SOR kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelope import GridField, cartesian_field
from .gain import GainField
from .grids import (ARMS, SOR_OMEGA, DiscStencil, RedBlackSOR, cartesian_grid, disc_stencil,
                    scale_coordinate, upper_concave_hull, write_csv)

MAX_SWEEPS = 300_000   # PSOR sweep budget
CHECK_EVERY = 50       # sweeps between complementarity residual checks


class OracleError(ValueError):
    pass


class OracleConvergenceError(OracleError):
    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(eq=False)
class RadialProfile:
    """Values on an increasing radius grid ending at the unit sphere."""

    radii: np.ndarray
    values: np.ndarray
    scale: np.ndarray
    dim: int
    value_at_origin: float = 0.0

    def __post_init__(self):
        if np.any(np.diff(self.radii) <= 0.0):
            raise OracleError("radii must be strictly increasing")
        if abs(self.radii[-1] - 1.0) > 1e-12:
            raise OracleError("last radius must be 1")

    def interpolate(self, r) -> float | np.ndarray:
        rr = np.asarray(r, dtype=float)
        single = rr.ndim == 0
        rr = np.clip(np.atleast_1d(rr), self.radii[0], 1.0)
        out = np.interp(scale_coordinate(rr, self.dim), self.scale, self.values)
        return float(out[0]) if single else out

    def to_csv(self, path) -> None:
        write_csv(path, "r in unit-ball lengths, value in payoff units", ["r", "value"],
                  self.radii, self.values)


# ---------------------------------------------------------------------------
# Radial concave-majorant oracle
# ---------------------------------------------------------------------------

def radial_value_oracle(gain: GainField, d: int, radii: np.ndarray,
                        anchor_gap: float = 50.0) -> RadialProfile:
    """Value function of the radial problem via the smallest concave majorant.

    Works in the scale coordinate, where radial harmonic functions are affine.
    The left tail is handled by a far-left anchor at the global profile
    maximum: below the peak radius every sphere is hit almost surely before
    absorption, so the value is flat at that maximum.  The unit-sphere node
    pins the hull at zero.
    """
    if not gain.radial:
        raise OracleError("radial oracle needs a radial gain")
    if d not in (2, 3):
        raise OracleError("radial oracle supports d = 2 and d = 3")
    radii = np.asarray(radii, dtype=float)
    if abs(radii[-1] - 1.0) > 1e-12:
        raise OracleError("radius grid must end at 1")
    prof = gain.profile(radii)
    prof = np.clip(prof, 0.0, None)
    s = scale_coordinate(radii, d)

    peak = float(prof.max())
    if d == 2:
        s_anchor = s[0] - anchor_gap
    else:
        # In d >= 3 the scale coordinate is bounded below by -inf as well
        # (s = -r**(2-d) -> -inf as r -> 0), so a plain gap works the same way.
        s_anchor = s[0] - anchor_gap * max(1.0, abs(s[0]))
    xs = np.concatenate([[s_anchor], s])
    ys = np.concatenate([[peak], prof])
    hx, hy = upper_concave_hull(xs, ys)
    vals = np.interp(s, hx, hy)
    vals = np.maximum(vals, prof)
    g0 = float(gain.profile(np.array([0.0]))[0])
    return RadialProfile(radii=radii, values=vals, scale=s, dim=d,
                         value_at_origin=max(g0, float(vals[0])))


# ---------------------------------------------------------------------------
# Projected SOR obstacle solver on the disc
# ---------------------------------------------------------------------------

def neg_laplacian(u: np.ndarray, stencil: DiscStencil, spacing: float) -> np.ndarray:
    """-(discrete Laplacian) with cut-cell arms; zero off the disc."""
    out = np.zeros_like(u)
    n = u.shape[0]
    acc = stencil.diag * u
    for name, (di, dj) in ARMS.items():
        src_i = np.clip(np.arange(n)[:, None] + di, 0, n - 1)
        src_j = np.clip(np.arange(n)[None, :] + dj, 0, n - 1)
        nbr = np.where(stencil.nbr_inside[name], u[src_i, src_j], 0.0)
        acc = acc - stencil.coeffs[name] * nbr
    out[stencil.inside] = acc[stencil.inside] / (spacing * spacing)
    return out


def psor_obstacle_solve(gain: GainField, n: int = 257, tol: float = 1e-8) -> GridField:
    """Solve min(-lap u, u - g) = 0 on the disc with u = 0 at the unit circle.

    Red-black projected SOR (``grids.RedBlackSOR``, relaxation factor
    ``grids.SOR_OMEGA``) on the whole disc from max(g, 0); nodes outside the
    disc are Dirichlet zero.  Every CHECK_EVERY sweeps, stops once the
    complementarity residual max |min(-lap u, u - g)| falls below tol; raises
    with the final residual after MAX_SWEEPS sweeps, or at the first check
    whose residual is not finite.
    """
    if gain.dim != 2:
        raise OracleError("the obstacle solver works on d = 2 grids")
    coords, spacing = cartesian_grid(n)
    stencil = disc_stencil(coords, spacing)
    phi = np.where(stencil.inside, gain(coords.reshape(-1, 2)).reshape(n, n), 0.0)
    u = np.maximum(phi, 0.0)
    sor = RedBlackSOR(u, stencil.inside, stencil, phi)
    for sweep in range(1, MAX_SWEEPS + 1):
        sor.sweep(SOR_OMEGA)
        if sweep % CHECK_EVERY == 0:
            sor.store(u)
            residual = _residual(u, phi, stencil, spacing)
            if residual < tol:
                return cartesian_field(n, u, tag="psor-oracle")
            if not np.isfinite(residual):
                raise OracleConvergenceError("projected SOR diverged", residual)
    sor.store(u)
    raise OracleConvergenceError("projected SOR hit the iteration limit",
                                 _residual(u, phi, stencil, spacing))


def complementarity_residual(fld: GridField, gain: GainField) -> float:
    """Max over nodes of |min(-lap u, u - g)| for a solver-output field."""
    coords, spacing = fld.coords, fld.spacing
    phi = gain(coords.reshape(-1, 2)).reshape(fld.values.shape)
    return _residual(fld.values, phi, disc_stencil(coords, spacing), spacing)


def _residual(u: np.ndarray, phi: np.ndarray, stencil: DiscStencil, spacing: float) -> float:
    comp = np.minimum(neg_laplacian(u, stencil, spacing), u - phi)
    return float(np.max(np.abs(comp[stencil.inside])))


# ---------------------------------------------------------------------------
# Cross validation
# ---------------------------------------------------------------------------

def cross_validate(limit: GridField, radial: RadialProfile | None = None,
                   psor: GridField | None = None) -> dict:
    """Sup and L2 distances between the refinement limit and each oracle.

    A radial limit is compared with a radial oracle on the same radii, and a
    Cartesian limit with either oracle; any other pairing raises.
    """
    report: dict = {}
    if radial is not None:
        if limit.kind == "radial":
            if not (len(limit.radii) == len(radial.radii)
                    and np.allclose(limit.radii, radial.radii)):
                raise OracleError("mismatched grids: resample one side first")
            diff = limit.values - radial.values
            interp_err = 0.0
        else:
            node_r = np.linalg.norm(limit.coords, axis=-1)
            ref = radial.interpolate(np.clip(node_r, radial.radii[0], 1.0))
            ref = np.where(limit.inside, ref, 0.0)
            diff = (limit.values - ref)[limit.inside]
            interp_err = _interp_error(radial.values)
        report["radial"] = _distances(diff, interp_err)
    if psor is not None:
        if not (limit.kind == "cartesian" and limit.values.shape == psor.values.shape):
            raise OracleError("mismatched grids: resample one side first")
        report["psor"] = _distances((limit.values - psor.values)[limit.inside], 0.0)
    return report


def _interp_error(values: np.ndarray) -> float:
    if len(values) < 3:
        return 0.0
    return float(np.max(np.abs(np.diff(values, 2))) / 8.0)


def _distances(diff: np.ndarray, interp_err: float) -> dict:
    return {
        "sup": float(np.max(np.abs(diff))),
        "l2": float(np.sqrt(np.mean(diff ** 2))),
        "interpolation_error": interp_err,
    }
