"""Gain fields on the unit ball: nonnegative, compactly supported payoffs.

Every gain is a profile about a centre: ``profile(s)`` is the gain at
distance s from ``center``, and ``g(x)`` is ``profile(|x - center|)``.  The
spiked family (a high plateau of small radius on top of a hemispherical dome)
and the radial bump sit at the origin; the offset bump is the same bump about
an off-origin centre.  ``mollify`` convolves any of them with a radial bump
kernel by one radial quadrature about the centre, whose radius blocks run on
the process's CPUs with the same bits whatever their number.  Each
``GainField`` carries the constants the majorant machinery needs (max gain,
truncation level, support gap, Lipschitz bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np


class GainError(ValueError):
    pass


class ConfigError(ValueError):
    """A config that is not a JSON object, has an unknown key or holds a bad value."""


class DegenerateGainError(GainError):
    """The gain vanishes identically, so no truncation level above it exists."""


PROBE_POINTS = 4096
# Radius nodes held at once by the radial mollification quadrature: one reused
# (MOLLIFY_BLOCK, 32, 64) float buffer, 512 KiB at 32, so the buffer and the
# profile's own output stay in L2 cache.  The buffer is split across the
# threads, a block of MOLLIFY_BLOCK // threads nodes each, and a block is never
# below MOLLIFY_MIN_BLOCK nodes (smaller blocks ran slower than one thread).
MOLLIFY_BLOCK = 32
MOLLIFY_MIN_BLOCK = 16


def _pts(x, d: int) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.shape[1] != d:
        raise GainError(f"expected points of dimension {d}, got shape {arr.shape}")
    return arr, single


@dataclass(frozen=True)
class GainField:
    """A payoff g >= 0 with compact support strictly inside the unit ball.

    ``profile_fn`` maps distances from ``center`` (the origin when not given)
    to gain values; ``support_radius`` bounds the support about the origin.
    It must be a pure function of its input array: ``mollify`` calls it from
    several threads at once.
    """

    profile_fn: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    max_gain: float
    gstar: float
    lipschitz: float
    dim: int = 2
    center: Optional[tuple] = None

    def __post_init__(self):
        center = (0.0,) * self.dim if self.center is None else tuple(map(float, self.center))
        if len(center) != self.dim:
            raise GainError(f"the centre must have {self.dim} coordinates, got {center}")
        object.__setattr__(self, "center", center)
        if not 0.0 < self.support_radius < 1.0:
            raise GainError("support radius must lie in (0, 1)")
        if self.gstar <= self.max_gain:
            raise GainError("truncation level must exceed the max gain")

    def __call__(self, x) -> float | np.ndarray:
        pts, single = _pts(x, self.dim)
        out = self.profile(np.linalg.norm(pts - np.asarray(self.center), axis=1))
        return float(out[0]) if single else out

    def profile(self, s) -> np.ndarray:
        """The gain at distance s from the centre; a radius sweep for a radial gain."""
        return np.asarray(self.profile_fn(np.asarray(s, dtype=float)), dtype=float)

    @property
    def radial(self) -> bool:
        """Whether the centre is the origin, so the profile is the gain along a radius."""
        return not any(self.center)

    @property
    def support_gap(self) -> float:
        """Distance from the support to the unit sphere."""
        return 1.0 - self.support_radius

    @property
    def lipschitz_bound(self) -> float:
        """Patch Lipschitz level M = max(L_g, g* / support gap)."""
        return max(self.lipschitz, self.gstar / self.support_gap)


def _profile_field(profile_fn: Callable[[np.ndarray], np.ndarray], reach: float,
                   gstar_margin: float, dim: int, center: Optional[tuple] = None,
                   lipschitz: float | None = None,
                   known_max: float | None = None) -> GainField:
    """The gain of a profile that vanishes beyond distance ``reach`` of the centre;
    its max and Lipschitz constant are probed on ``PROBE_POINTS`` distances."""
    probe = np.linspace(0.0, min(reach * 1.02, 1.0), PROBE_POINTS)
    vals = np.asarray(profile_fn(probe), dtype=float)
    if np.any(vals < -1e-12):
        raise GainError("gain must be nonnegative")
    gbar = float(vals.max()) if known_max is None else float(known_max)
    if gbar <= 0.0:
        raise DegenerateGainError("gain is identically zero on its support")
    if lipschitz is None:
        lipschitz = float(np.abs(np.diff(vals)).max() / (probe[1] - probe[0]))
    offset = 0.0 if center is None else float(np.linalg.norm(center))
    return GainField(
        profile_fn=profile_fn,
        support_radius=offset + reach,
        max_gain=gbar,
        gstar=gbar * (1.0 + gstar_margin),
        lipschitz=lipschitz,
        dim=dim,
        center=center,
    )


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def spiked_gain(eps: float, dim: int = 2, gstar_margin: float = 0.25) -> GainField:
    """Plateau of height 1 on |x| <= eps over the dome sqrt(1/4 - |x|^2).

    Discontinuous at |x| = eps for eps > 0 (and at the origin for eps = 0);
    mollify before running experiments that need a continuous gain.
    """
    if not 0.0 <= eps < 0.5:
        raise GainError(f"spike radius must lie in [0, 1/2), got {eps}")

    def profile(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        # The dome, then the zero outside and the plateau, all in one array.
        out = np.multiply(r, r, out=np.empty_like(r))
        np.subtract(0.25, out, out=out)
        np.maximum(out, 0.0, out=out)
        np.sqrt(out, out=out)
        np.copyto(out, 0.0, where=~(r < 0.5))
        np.copyto(out, 1.0, where=r <= eps)
        return out

    # The raw spike has a jump, so the probed difference quotient is
    # resolution-dependent; its Lipschitz constant is infinite, and the
    # honest estimate is left to the mollified version.
    field = _profile_field(profile, 0.5, gstar_margin, dim, lipschitz=np.inf)
    return replace(field, max_gain=1.0, gstar=1.0 * (1.0 + gstar_margin))


def radial_bump_gain(center_radius: float, width: float, height: float = 1.0,
                     dim: int = 2, gstar_margin: float = 0.25) -> GainField:
    """Smooth radial bump supported on the annulus |r - c| < width."""
    if width <= 0.0:
        raise GainError("bump width must be positive")
    if center_radius - width < 0.0 and center_radius > 0.0:
        raise GainError("bump must not straddle the origin unless centred there")
    support = center_radius + width
    if support >= 1.0:
        raise GainError("bump support escapes the unit ball")

    def profile(r: np.ndarray) -> np.ndarray:
        t = (np.asarray(r, dtype=float) - center_radius) / width
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        out[inside] = height * np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
        return out

    if height <= 0.0:
        raise DegenerateGainError("gain is identically zero on its support")
    return _profile_field(profile, support, gstar_margin, dim, known_max=height)


def offset_bump_gain(center, radius: float, height: float = 1.0,
                     gstar_margin: float = 0.25) -> GainField:
    """The smooth bump of the given radius (``radial_bump_gain(0, radius)``)
    about an off-origin centre (d = 2)."""
    bump = radial_bump_gain(0.0, radius, height=height, gstar_margin=gstar_margin)
    support = float(np.linalg.norm(center) + radius)
    if support >= 1.0:
        raise GainError("bump support escapes the unit ball")
    return replace(bump, center=center, support_radius=support)


# ---------------------------------------------------------------------------
# Mollification
# ---------------------------------------------------------------------------

def _cpus() -> int:
    """The number of CPUs this process may run on."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _bump_kernel(s: np.ndarray, width: float) -> np.ndarray:
    t = s / width
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def mollify(g: GainField, width: float, profile_points: int = 4096) -> GainField:
    """Convolve with a normalised radial bump of the given width.

    The gain is a profile about its centre and the kernel is radial, so the
    convolution is a profile about the same centre: a one-dimensional radial
    quadrature carrying the full d-dimensional kernel weight, on
    ``profile_points`` distances.  The support radius grows by exactly width.
    The quadrature stops at the first distance node at or past the new
    support, the last one the profile reads.  Its nodes run in blocks on one
    thread per CPU the process may use, the caller's among them, up to
    ``MOLLIFY_BLOCK // MOLLIFY_MIN_BLOCK`` threads.  Each thread reuses its
    ``MOLLIFY_BLOCK // threads`` nodes of one buffer, so the buffer grows
    neither with ``profile_points`` nor with the threads.  Each node's value
    is the same bits as on whole arrays, whatever the number of threads.  An
    error raised in a block is raised here once every thread has stopped.
    """
    if width <= 0.0:
        raise GainError("mollification width must be positive")
    if width >= (1.0 - g.support_radius) / 2.0:
        raise GainError("mollification width pushes the support out of the ball")

    import threading

    d = g.dim
    reach = g.support_radius - float(np.linalg.norm(g.center)) + width
    r_nodes = np.linspace(0.0, min(reach * 1.01, 1.0), profile_points)
    # The profile reads no node past the first one at or beyond reach; their
    # values stay zero.
    active = r_nodes[:int(np.searchsorted(r_nodes, reach)) + 1]

    # Gauss-Legendre in kernel radius and angle.
    s_x, s_w = np.polynomial.legendre.leggauss(32)
    s = 0.5 * width * (s_x + 1.0)
    s_w = 0.5 * width * s_w
    t_x, t_w = np.polynomial.legendre.leggauss(64)
    theta = 0.5 * np.pi * (t_x + 1.0)
    t_w = 0.5 * np.pi * t_w

    psi = _bump_kernel(s, width)
    if d == 2:
        radial_weight = psi * s * s_w          # kernel mass density in radius
        ang_weight = 2.0 * t_w                 # theta over [0, pi], doubled by symmetry
    elif d == 3:
        radial_weight = psi * s * s * s_w
        ang_weight = np.sin(theta) * t_w  # azimuth integrates out of the normalised ratio
    else:
        raise GainError("radial mollification supports d = 2 and d = 3")

    weights = radial_weight[None, :, None] * ang_weight[None, None, :]
    norm = float(weights.sum())
    ss = s[None, :, None]
    s2 = ss * ss
    cos_t = np.cos(theta)[None, None, :]
    values = np.zeros(profile_points)
    # Each radius node's reduction is independent, so a block gives the same
    # bits as the whole (profile_points, 32, 64) array, whichever thread runs
    # it.  Thread k runs blocks k, k + threads, ... in its own part of one
    # buffer and writes only their slices of values; the caller's thread is
    # thread 0.  The caller allocates the buffer: memory a worker thread
    # allocates stays with the process after the thread ends.
    threads = max(1, min(_cpus(), MOLLIFY_BLOCK // MOLLIFY_MIN_BLOCK))
    block = min(MOLLIFY_BLOCK // threads, active.size)
    threads = min(threads, -(-active.size // block))
    buf = np.empty((threads, block, s.size, theta.size))
    errors: list[BaseException] = []

    def run(first: int) -> None:
        try:
            for start in range(first * block, active.size, threads * block):
                if errors:
                    return
                rr = active[start:start + block, None, None]
                dist = buf[first, :rr.shape[0]]
                # |x - y| for x at radius r and kernel offset (s, theta), in the
                # whole-array order: sqrt(max((r r + s s) - ((2 r) s) cos(theta), 0)).
                np.multiply(2.0 * rr * ss, cos_t, out=dist)
                np.subtract(rr * rr + s2, dist, out=dist)
                np.maximum(dist, 0.0, out=dist)
                np.sqrt(dist, out=dist)
                gv = g.profile(dist.ravel()).reshape(dist.shape)
                np.multiply(gv, weights, out=dist)
                values[start:start + rr.shape[0]] = dist.sum(axis=(1, 2)) / norm
        except BaseException as exc:  # raised again in the caller after every join
            errors.append(exc)

    workers = [threading.Thread(target=run, args=(k,)) for k in range(1, threads)]
    try:
        for worker in workers:
            worker.start()
        run(0)
    finally:
        for worker in workers:
            if worker.ident is not None:
                worker.join()
    if errors:
        raise errors[0]
    values = np.clip(values, 0.0, None)

    def profile(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return np.where(r >= reach, 0.0, np.interp(r, r_nodes, values))

    gstar_margin = g.gstar / g.max_gain - 1.0
    return _profile_field(profile, reach, gstar_margin, d, center=g.center)


# ---------------------------------------------------------------------------
# Slice maxima and config
# ---------------------------------------------------------------------------

def outer_running_max(g: GainField, radii: np.ndarray) -> np.ndarray:
    """G(p) = max of the gain over radii >= p, on the given radius grid.

    This is the binding profile for affine-cap feasibility: a point with
    coordinate p along the cap axis can sit over any radius >= |p|.
    """
    vals = g.profile(radii)
    return np.maximum.accumulate(vals[::-1])[::-1]


# Keys of the config gain block that each kind reads, beyond the common ones.
GAIN_KEYS = {
    "spiked": {"epsilon", "dim"},
    "radial-bump": {"center_radius", "width", "height", "dim"},
    "offset-bump": {"center", "radius", "height"},
}
COMMON_GAIN_KEYS = {"kind", "gstar_margin", "mollify"}


def config_number(value, name: str, rng: str = "(-inf, inf)", integral: bool = False):
    """The one typed rule: a JSON number, not a bool, integral if asked, finite, in rng."""
    lo, hi = (float(end) for end in rng[1:-1].split(","))
    fits = (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (isinstance(value, int) or math.isfinite(value))
            and (not integral or isinstance(value, int) or value.is_integer())
            and (lo < value if rng[0] == "(" else lo <= value)
            and (value < hi if rng[-1] == ")" else value <= hi))
    if not fits:
        raise ConfigError(f"{name} must be {'an integer' if integral else 'a number'} "
                          f"in {rng}, got {value!r}")
    return int(value) if integral else float(value)


def config_point(value, name: str, dim: int | None = None) -> tuple:
    """A JSON list of numbers (``dim`` of them, if given), each read by ``config_number``."""
    if not isinstance(value, (list, tuple)) or dim is not None and len(value) != dim:
        count = "" if dim is None else f"{dim} "
        raise ConfigError(f"{name} must be a list of {count}numbers, got {value!r}")
    return tuple(config_number(v, name) for v in value)


def gain_from_config(block: dict) -> GainField:
    """Build a gain from the run-config gain block; a key its kind does not read is an error."""
    kind = block.get("kind")
    if not isinstance(kind, str) or kind not in GAIN_KEYS:
        raise GainError(f"unknown gain kind {kind!r}")
    for key in block:
        if key not in COMMON_GAIN_KEYS and key not in GAIN_KEYS[kind]:
            raise GainError(f"unknown key {key!r} in the gain block (kind {kind!r})")

    def value(key: str, default=None, read=config_number, **rule):
        """block[key] read by the typed rule; required when there is no default."""
        if default is None and key not in block:
            raise GainError(f"gain kind {kind!r} needs the key {key!r}")
        return read(block.get(key, default), f"gain.{key}", **rule)

    margin = value("gstar_margin", 0.25)
    dim = dict(default=2, rng="[2, 3]", integral=True)
    if kind == "spiked":
        g = spiked_gain(value("epsilon"), dim=value("dim", **dim), gstar_margin=margin)
    elif kind == "radial-bump":
        g = radial_bump_gain(value("center_radius"), value("width"),
                             height=value("height", 1.0), dim=value("dim", **dim),
                             gstar_margin=margin)
    else:
        g = offset_bump_gain(value("center", read=config_point, dim=2), value("radius"),
                             height=value("height", 1.0), gstar_margin=margin)
    width = value("mollify", 0.0, rng="[0, inf)")
    if width > 0.0:
        g = mollify(g, width)
    return g
