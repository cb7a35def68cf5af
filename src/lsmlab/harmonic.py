"""Harmonic function evaluation on subdomains of the unit ball.

Closed forms: Poisson quadrature on balls/discs and radial two-sphere
interpolation in the scale coordinate (the affine cap formula lives with its
patch, ``majorant.cap_patch``).  General domains, intersections included, use
a walk-on-spheres Monte Carlo evaluator that asks ``geometry.signed_distance``
for its step radii and lands exits with ``geometry.project_to_boundary_batch``.
Off-domain evaluations return the +inf sentinel so envelope infima can consume
them transparently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng as rngmod
from .geometry import Domain, GeometryError, project_to_boundary_batch, signed_distance

INF = math.inf


class HarmonicError(ValueError):
    pass


class NonTerminationError(HarmonicError):
    """Walks exceeded the step budget before reaching the absorption shell."""


@dataclass(frozen=True)
class BoundaryData:
    """Boundary values in [0, g*]; gstar_on_interior marks data pinned at g* off the unit sphere."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    gstar_on_interior: bool = False

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.asarray(self.evaluator(pts), dtype=float)


def constant_data(value: float) -> BoundaryData:
    return BoundaryData(evaluator=lambda pts: np.full(pts.shape[0], float(value)))


@dataclass(frozen=True)
class WosConfig:
    shell: float = 1e-4
    max_steps: int = 10_000
    walks: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.shell <= 0.0:
            raise HarmonicError("absorption shell must be positive")
        if self.walks < 1:
            raise HarmonicError("need at least one walk")


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def _disc_nodes(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights for the angle over [0, 2pi)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    theta = np.pi * (x + 1.0)
    return theta, np.pi * w


def poisson_ball_eval(center, radius: float, f: BoundaryData | Callable, x,
                      nodes: int = 512) -> float | np.ndarray:
    """Harmonic extension of boundary data f, evaluated by Poisson quadrature.

    Returns the +inf sentinel for points outside the closed ball.  Points on
    the sphere evaluate the data directly (the kernel is singular there).
    """
    center = np.asarray(center, dtype=float)
    d = center.shape[0]
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    single = np.asarray(x).ndim == 1
    if pts.shape[1] != d:
        raise GeometryError(f"point dimension {pts.shape[1]} != ball dimension {d}")
    data = f if isinstance(f, BoundaryData) else BoundaryData(evaluator=f)

    if d == 2:
        theta, w = _disc_nodes(nodes)
        ys = center[None, :] + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        fy = data(ys)
        rho2 = np.sum((pts - center) ** 2, axis=1)
        diff = pts[:, None, :] - ys[None, :, :]
        dist2 = np.sum(diff * diff, axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            kernel = (radius * radius - rho2)[:, None] / dist2
        vals = (kernel * fy[None, :] * w[None, :]).sum(axis=1) / (2.0 * np.pi)
    elif d == 3:
        n_mu = max(8, nodes // 16)
        n_az = 2 * n_mu
        mu, w_mu = np.polynomial.legendre.leggauss(n_mu)
        az = 2.0 * np.pi * (np.arange(n_az) + 0.5) / n_az
        w_az = 2.0 * np.pi / n_az
        sin_phi = np.sqrt(1.0 - mu ** 2)
        ys = np.stack([
            np.outer(sin_phi, np.cos(az)).ravel(),
            np.outer(sin_phi, np.sin(az)).ravel(),
            np.repeat(mu, n_az),
        ], axis=1)
        wq = np.repeat(w_mu, n_az) * w_az
        ys = center[None, :] + radius * ys
        fy = data(ys)
        rho2 = np.sum((pts - center) ** 2, axis=1)
        diff = pts[:, None, :] - ys[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        with np.errstate(divide="ignore", invalid="ignore"):
            kernel = (radius * radius - rho2)[:, None] / (dist ** 3)
        # Poisson kernel in d=3 carries 1/(4 pi R); surface measure R^2 restores R.
        vals = (kernel * fy[None, :] * wq[None, :]).sum(axis=1) * radius / (4.0 * np.pi)
    else:
        raise HarmonicError("Poisson quadrature supports d = 2 and d = 3")

    rho = np.sqrt(rho2)
    on_sphere = np.abs(rho - radius) <= 1e-12 * max(radius, 1.0)
    if on_sphere.any():
        vals[on_sphere] = data(pts[on_sphere])
    vals[rho > radius + 1e-12] = INF
    return float(vals[0]) if single else vals


def radial_annulus_harmonic(a: float, b: float, va: float, vb: float, r, d: int = 2):
    """Harmonic interpolation between sphere values on the annulus a < |x| < b.

    Affine in ln r for d = 2 and in r**(2-d) for d >= 3; +inf outside [a, b].
    """
    if not 0.0 < a < b <= 1.0:
        raise HarmonicError(f"need 0 < a < b <= 1, got a={a}, b={b}")
    r_arr = np.asarray(r, dtype=float)
    single = r_arr.ndim == 0
    r_arr = np.atleast_1d(r_arr)
    with np.errstate(divide="ignore"):
        if d == 2:
            t = (np.log(r_arr) - np.log(a)) / (np.log(b) - np.log(a))
        else:
            p = 2.0 - d
            t = (r_arr ** p - a ** p) / (b ** p - a ** p)
    vals = va + (vb - va) * t
    out = np.where((r_arr < a - 1e-12) | (r_arr > b + 1e-12), INF, vals)
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# Walk on spheres
# ---------------------------------------------------------------------------

def wos_exit_batch(dom: Domain, x, cfg: WosConfig, n: int | None = None,
                   generator: np.random.Generator | None = None) -> np.ndarray:
    """Exit points on the domain boundary for n walks started at x.

    Repeatedly jumps uniformly on the largest inscribed sphere until within
    the absorption shell, then projects to the nearest boundary point.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if n is None:
            n = cfg.walks
        pos = np.tile(x, (n, 1))
    else:
        pos = x.astype(float).copy()
        n = pos.shape[0]
    d = pos.shape[1]
    gen = generator if generator is not None else rngmod.stream(cfg.seed, 0)

    dist = -signed_distance(dom, pos)
    if np.any(dist < -cfg.shell):
        raise GeometryError("walk started outside the domain")
    active = dist > cfg.shell
    steps = 0
    while active.any():
        if steps >= cfg.max_steps:
            raise NonTerminationError(
                f"{int(active.sum())} walks still active after {cfg.max_steps} steps")
        idx = np.nonzero(active)[0]
        dirs = rngmod.uniform_directions(gen, idx.size, d)
        pos[idx] += dist[idx, None] * dirs
        dist[idx] = -signed_distance(dom, pos[idx])
        active[idx] = dist[idx] > cfg.shell
        steps += 1

    return project_to_boundary_batch(dom, pos)


def wos_harmonic_eval(dom: Domain, f: BoundaryData | Callable, x, cfg: WosConfig,
                      generator: np.random.Generator | None = None) -> tuple[float, float]:
    """Monte Carlo estimate (mean, standard error) of the harmonic extension of f at x."""
    data = f if isinstance(f, BoundaryData) else BoundaryData(evaluator=f)
    exits = wos_exit_batch(dom, x, cfg, generator=generator)
    vals = data(exits)
    mean = float(vals.mean())
    sem = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return mean, sem
