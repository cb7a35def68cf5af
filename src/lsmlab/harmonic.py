"""Harmonic function evaluation on subdomains of the unit ball.

Closed forms: Poisson quadrature on balls/discs and radial two-sphere
interpolation in the scale coordinate (the affine cap formula lives with its
patch, ``majorant.cap_patch``).

Exit laws: ``wos_exit_batch`` draws the first exits of Brownian motion.  In
the plane, discs, annuli, caps of the unit disc and concentric intersections
of discs and annuli have exact one-draw exit laws, because planar Brownian
motion is conformally invariant (Mörters & Peres, *Brownian Motion*, 2010,
Thm 7.20): ``planar_sampler`` maps each onto the unit disc or the upper
half-plane, where one uniform per exit gives a uniform angle or a Cauchy
point.  Every other domain (grid regions, other intersections, d = 3) is
walked on spheres (Muller 1956): the walk asks ``geometry.signed_distance``
for its step radii, stops within ``SHELL`` of the boundary or raises
``NonTerminationError`` after ``MAX_STEPS`` steps, and lands exits with
``geometry.project_to_boundary_batch``.  Off-domain evaluations return the
+inf sentinel so envelope infima can consume them transparently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
# numpy loads ``numpy.polynomial`` on first use; importing it here keeps that cost in
# start-up, not in the first command that needs it.
import numpy.polynomial

from . import rng as rngmod
from .geometry import (Annulus, Ball, Cap, Domain, FullBall, GeometryError, Intersection,
                       domain_dim, project_to_boundary_batch, signed_distance)

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


# The absorption width and the step budget of a walk on spheres; exact
# samplers use neither.  No walk of the CLI commands on the presets or of the
# benchmark's operations took more than 133 steps (a contact-hit payoff on a
# 257-node Cartesian contact set), so a walk that reaches the budget has stalled.
SHELL = 1e-4
MAX_STEPS = 10_000


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

@functools.cache
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], computed once per node count and
    read-only, so no caller can change another caller's rule."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def poisson_ball_eval(center, radius: float, f: BoundaryData | Callable, x,
                      nodes: int = 512) -> float | np.ndarray:
    """Harmonic extension of boundary data f, evaluated by Poisson quadrature.

    The weighted kernel sum is divided by the quadrature's own kernel mass
    (the sum of kernel times weight), not by its exact value (2 pi, or 4 pi / R
    on a sphere of radius R), so every value is an average of the data and
    stays inside the data's range even where the kernel peaks too sharply for
    the nodes, right up to the sphere.  Returns the +inf sentinel for points
    outside the closed ball.  Points on the sphere evaluate the data directly
    (the kernel is singular there).
    """
    center = np.asarray(center, dtype=float)
    d = center.shape[0]
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    single = np.asarray(x).ndim == 1
    if pts.shape[1] != d:
        raise GeometryError(f"point dimension {pts.shape[1]} != ball dimension {d}")
    data = f if isinstance(f, BoundaryData) else BoundaryData(evaluator=f)

    if d == 2:
        x, w = _gauss_legendre(nodes)
        theta, w = np.pi * (x + 1.0), np.pi * w  # the angle over [0, 2pi)
        ys = center[None, :] + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        fy = data(ys)
        rho2 = np.sum((pts - center) ** 2, axis=1)
        diff = pts[:, None, :] - ys[None, :, :]
        dist2 = np.sum(diff * diff, axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            kernel = (radius * radius - rho2)[:, None] / dist2 * w[None, :]
    elif d == 3:
        n_mu = max(8, nodes // 16)
        n_az = 2 * n_mu
        mu, w_mu = _gauss_legendre(n_mu)
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
            kernel = (radius * radius - rho2)[:, None] / (dist ** 3) * wq[None, :]
    else:
        raise HarmonicError("Poisson quadrature supports d = 2 and d = 3")
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = (kernel * fy[None, :]).sum(axis=1) / kernel.sum(axis=1)

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
# Exact planar exits
# ---------------------------------------------------------------------------

Sampler = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _complex(pts: np.ndarray) -> np.ndarray:
    """Rows (x, y) as complex numbers x + iy."""
    return np.ascontiguousarray(pts, dtype=float).view(complex)[:, 0]


def _points(w: np.ndarray) -> np.ndarray:
    """Complex numbers as rows (x, y), without a copy."""
    return np.ascontiguousarray(w).view(float).reshape(-1, 2)


def _cauchy(phi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Exits of the upper half-plane from e^{i phi}, one per uniform u."""
    return np.cos(phi) + np.sin(phi) * np.tan(np.pi * (u - 0.5))


def _log_abs(x: np.ndarray) -> np.ndarray:
    """log|x|, finite at x = 0."""
    return np.log(np.maximum(np.abs(x), np.finfo(float).tiny))


def _disc_exits(z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Exits of the unit disc from z: the Möbius image (ζ + z)/(1 + z̄ζ) of
    ζ = e^{2πiu}.  The image has modulus one, so it is taken as the unit
    number with the argument of (ζ + z)·conj(1 + z̄ζ)."""
    zeta = np.exp(2j * np.pi * u)
    w = zeta + z
    zeta.imag *= -1.0
    zeta *= z
    zeta += 1.0
    w *= zeta
    w /= np.abs(w)
    return w


def _annulus_exits(p: np.ndarray, a: float, b: float, u: np.ndarray) -> np.ndarray:
    """Exits of a < |p| < b from p.  The map w -> exp(iπ log(w/a)/L), L = log(b/a),
    on the universal cover sends the start to e^{iφ}, φ = π log(|p|/a)/L, with
    its angle at 0.  A Cauchy exit X > 0 lands on the inner circle, X < 0 on
    the outer one, turned by -(L/π) log|X| from the start's angle."""
    r = np.abs(p)
    span = math.log(b / a)
    x = _cauchy(np.pi / span * np.log(r / a), u)
    exits = np.exp(-1j * (span / np.pi) * _log_abs(x))
    exits *= p / r
    exits *= np.where(x < 0.0, b, a)
    return exits


def _cap_exits(direction, t: float, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Exits of the cap {|z| < 1, z·v > t} from z.  With v turned to 1,
    W = -(z - p+)/(z - p-), p± = t ± i√(1-t²), maps the cap onto the wedge
    0 < arg W < α = arccos t (chord to arg 0, arc to arg α), and W^{π/α} the
    wedge onto the upper half-plane.  The start's e^{iφ}, φ = (π/α) arg W0,
    gives a Cauchy exit X; the exit's log|W| is log|W0| + (α/π) log|X|,
    which maps back to the chord (X > 0) or the arc (X < 0) in closed form."""
    v = complex(*direction)
    z = z * v.conjugate()
    s, alpha = math.sqrt(1.0 - t * t), math.acos(t)
    top, bottom = z - complex(t, s), z - complex(t, -s)
    arg_w0 = np.angle(-top * np.conj(bottom))
    lam = np.log(np.abs(top)) - np.log(np.abs(bottom))
    x = _cauchy(np.pi / alpha * arg_w0, u)
    lam = lam + alpha / np.pi * _log_abs(x)
    arc = x < 0.0
    exits = np.empty(u.size, dtype=complex)
    # Chord: z = (p+ + W p-)/(1 + W) = t - i s tanh(log W / 2) for W > 0.
    exits[~arc] = t - 1j * s * np.tanh(0.5 * lam[~arc])
    # Arc: W = |W| e^{iα} gives z = p+ conj(q)/q, q = 1 + |W| p+.
    q_arg = np.arctan2(s, np.exp(np.minimum(-lam[arc], 700.0)) + t)
    exits[arc] = np.exp(1j * (alpha - 2.0 * q_arg))
    exits *= v
    return exits


def _rings(dom: Domain):
    """(centre, inner, outer) of a disc (inner 0), an annulus, or a concentric
    intersection of them; None for anything else or an empty intersection."""
    if isinstance(dom, Ball):
        return dom.center, 0.0, dom.radius
    if isinstance(dom, FullBall):
        return (0.0,) * dom.dim, 0.0, 1.0
    if isinstance(dom, Annulus):
        return dom.center, dom.inner, dom.outer
    if isinstance(dom, Intersection):
        rings = [_rings(part) for part in dom.parts]
        if any(ring is None for ring in rings) or len({ring[0] for ring in rings}) != 1:
            return None
        inner, outer = max(ring[1] for ring in rings), min(ring[2] for ring in rings)
        return (rings[0][0], inner, outer) if inner < outer else None
    return None


def planar_sampler(dom: Domain) -> Sampler | None:
    """The exact exit sampler of a planar domain, or None if it must be walked.

    The sampler takes starts (rows inside the domain, or one row for every
    exit) and one uniform per exit, and returns the exits as rows.
    """
    if domain_dim(dom) != 2:
        return None
    if isinstance(dom, Cap):
        return lambda starts, u: _points(_cap_exits(dom.direction, dom.threshold,
                                                    _complex(starts), u))
    rings = _rings(dom)
    if rings is None:
        return None
    center, inner, outer = rings
    c = complex(*center)
    if inner == 0.0:
        return lambda starts, u: _points(c + outer * _disc_exits((_complex(starts) - c) / outer, u))
    return lambda starts, u: _points(c + _annulus_exits(_complex(starts) - c, inner, outer, u))


# ---------------------------------------------------------------------------
# First exits: exact where a sampler exists, walk on spheres elsewhere
# ---------------------------------------------------------------------------

def wos_exit_batch(dom: Domain, x, generator: np.random.Generator,
                   n: int | None = None) -> np.ndarray:
    """Exit points on the domain boundary for walks started at x: n walks from
    one start, or one walk per row.

    A domain with a ``planar_sampler`` draws every exit exactly, from one
    uniform per exit; a start on or outside its boundary lands at its nearest
    boundary point.  Any other domain is walked: each walk jumps uniformly on
    the largest inscribed sphere until within the absorption shell ``SHELL``,
    then projects to the nearest boundary point.  Either way a start more than
    ``SHELL`` outside raises GeometryError.
    """
    x = np.asarray(x, dtype=float)
    sampler = planar_sampler(dom)
    if sampler is not None:
        return _sampled_exits(dom, sampler, x, n, generator)
    pos = np.tile(x, (n, 1)) if x.ndim == 1 else x.copy()
    d = pos.shape[1]

    dist = -signed_distance(dom, pos)
    if np.any(dist < -SHELL):
        raise GeometryError("walk started outside the domain")
    active = dist > SHELL
    steps = 0
    while active.any():
        if steps >= MAX_STEPS:
            raise NonTerminationError(
                f"{int(active.sum())} walks still active after {MAX_STEPS} steps")
        idx = np.nonzero(active)[0]
        dirs = rngmod.uniform_directions(generator, idx.size, d)
        pos[idx] += dist[idx, None] * dirs
        dist[idx] = -signed_distance(dom, pos[idx])
        active[idx] = dist[idx] > SHELL
        steps += 1

    return project_to_boundary_batch(dom, pos)


def _sampled_exits(dom: Domain, sampler: Sampler, x: np.ndarray, n: int | None,
                   gen: np.random.Generator) -> np.ndarray:
    """``wos_exit_batch`` on a domain with an exact sampler."""
    starts = np.atleast_2d(x)
    dist = -signed_distance(dom, starts)
    if np.any(dist < -SHELL):
        raise GeometryError("walk started outside the domain")
    u = gen.random(n if x.ndim == 1 else starts.shape[0])
    inside = dist > 0.0
    if inside.all():
        return sampler(starts, u)
    if x.ndim == 1:
        return np.tile(project_to_boundary_batch(dom, starts), (n, 1))
    exits = np.empty_like(starts)
    exits[~inside] = project_to_boundary_batch(dom, starts[~inside])
    if inside.any():
        exits[inside] = sampler(starts[inside], u[inside])
    return exits


def wos_harmonic_eval(dom: Domain, f: BoundaryData | Callable, x,
                      generator: np.random.Generator, n: int) -> tuple[float, float]:
    """Monte Carlo estimate (mean, standard error) of the harmonic extension of f
    at x, from n exits drawn with the caller's generator."""
    if n < 1:
        raise HarmonicError("need at least one walk")
    data = f if isinstance(f, BoundaryData) else BoundaryData(evaluator=f)
    exits = wos_exit_batch(dom, x, generator, n=n)
    return mc_estimate(data(exits))


def mc_estimate(vals: np.ndarray) -> tuple[float, float]:
    """Monte Carlo mean of the values and its sample standard error, 0 for one value."""
    n = len(vals)
    sem = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(vals)), sem
