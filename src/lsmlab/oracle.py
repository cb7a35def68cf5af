"""Independent ground-truth solvers for the stopping value function.

Two routes to the value function that do not go through the envelope
refinement: the classical one-dimensional reduction (smallest concave majorant
of the whole radial profile in the scale coordinate) and a projected-SOR
solve of the discrete obstacle complementarity system on a disc-masked grid.
The radial oracle returns an ``envelope.RadialProfile``, the class of every
radial field, and the PSOR solve an ``envelope.GridField``.

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

import numpy as np

from .envelope import Field, GridField, RadialProfile, cartesian_field, gain_on_grid
from .gain import GainField
from .grids import DiscStencil, RedBlackSOR, scale_coordinate, upper_concave_hull

MAX_SWEEPS = 300_000   # PSOR sweep budget
CHECK_EVERY = 50       # sweeps between complementarity residual checks
ANCHOR_GAP = 50.0      # scale-coordinate distance of the radial hull's far-left anchor


class OracleError(ValueError):
    pass


class OracleConvergenceError(OracleError):
    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


# ---------------------------------------------------------------------------
# Radial concave-majorant oracle
# ---------------------------------------------------------------------------

def radial_value_oracle(gain: GainField, d: int, radii: np.ndarray) -> RadialProfile:
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
    prof = gain.profile(radii)
    prof = np.clip(prof, 0.0, None)
    s = scale_coordinate(radii, d)

    peak = float(prof.max())
    if d == 2:
        s_anchor = s[0] - ANCHOR_GAP
    else:
        # In d >= 3 the scale coordinate is bounded below by -inf as well
        # (s = -r**(2-d) -> -inf as r -> 0), so a plain gap works the same way.
        s_anchor = s[0] - ANCHOR_GAP * max(1.0, abs(s[0]))
    xs = np.concatenate([[s_anchor], s])
    ys = np.concatenate([[peak], prof])
    hx, hy = upper_concave_hull(xs, ys)
    vals = np.interp(s, hx, hy)
    vals = np.maximum(vals, prof)
    return RadialProfile(radii, vals, "radial-oracle", d)


# ---------------------------------------------------------------------------
# Projected SOR obstacle solver on the disc
# ---------------------------------------------------------------------------

def neg_laplacian(u: np.ndarray, stencil: DiscStencil, spacing: float) -> np.ndarray:
    """-(discrete Laplacian) with cut-cell arms; zero off the disc."""
    acc = (stencil.diag * u).ravel() - stencil.offdiag @ u.ravel()
    return np.where(stencil.inside, acc.reshape(u.shape) / (spacing * spacing), 0.0)


def psor_obstacle_solve(gain: GainField, n: int = 257, tol: float = 1e-8) -> GridField:
    """Solve min(-lap u, u - g) = 0 on the disc with u = 0 at the unit circle.

    Red-black projected SOR (``grids.RedBlackSOR``, which chooses its own
    relaxation factor) on the whole disc from max(g, 0); nodes outside the
    disc are Dirichlet zero.  Every CHECK_EVERY sweeps, stops once the
    complementarity residual max |min(-lap u, u - g)| falls below tol; raises
    with the final residual, the sweeps done and the final factor after
    MAX_SWEEPS sweeps, or at the first check whose residual is not finite.
    """
    if gain.dim != 2:
        raise OracleError("the obstacle solver works on d = 2 grids")
    fld = cartesian_field(n, np.zeros((n, n)), tag="psor-oracle")
    phi = np.where(fld.inside, gain_on_grid(gain, fld), 0.0)
    u = fld.values = np.maximum(phi, 0.0)
    sor = RedBlackSOR(u, fld.inside, fld.stencil, phi)
    for sweep in range(1, MAX_SWEEPS + 1):
        sor.sweep()
        if sweep % CHECK_EVERY == 0:
            sor.store(u)
            residual = _residual(fld, phi)
            if residual < tol:
                return fld
            if not np.isfinite(residual):
                raise OracleConvergenceError(f"projected SOR diverged {sor.effort()}", residual)
    sor.store(u)
    raise OracleConvergenceError(f"projected SOR hit the iteration limit {sor.effort()}",
                                 _residual(fld, phi))


def complementarity_residual(fld: GridField, gain: GainField) -> float:
    """Max over nodes of |min(-lap u, u - g)| for a solver-output field."""
    return _residual(fld, gain_on_grid(gain, fld))


def _residual(fld: GridField, phi: np.ndarray) -> float:
    stencil = fld.stencil
    comp = np.minimum(neg_laplacian(fld.values, stencil, fld.spacing), fld.values - phi)
    return float(np.max(np.abs(comp[stencil.inside])))


# ---------------------------------------------------------------------------
# Cross validation
# ---------------------------------------------------------------------------

def cross_validate(limit: Field, radial: RadialProfile | None = None,
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
            ref = radial.interpolate(node_r)
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
