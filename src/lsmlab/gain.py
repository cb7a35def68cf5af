"""Gain fields on the unit ball: nonnegative, compactly supported payoffs.

Includes the spiked radial family (a high plateau of small radius on top of a
hemispherical dome), smooth bump gains for presets and mollification.  Each
``GainField`` carries the constants the majorant machinery needs (max gain,
truncation level, support gap, Lipschitz bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .grids import bilinear


class GainError(ValueError):
    pass


class ConfigError(ValueError):
    """A config that is not a JSON object, has an unknown key or holds a bad value."""


class DegenerateGainError(GainError):
    """The gain vanishes identically, so no truncation level above it exists."""


PROBE_POINTS = 4096


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
    """A payoff g >= 0 with compact support strictly inside the unit ball."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    max_gain: float
    gstar: float
    lipschitz: float
    dim: int = 2
    radial: bool = True
    continuous: bool = True
    radial_evaluator: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not 0.0 < self.support_radius < 1.0:
            raise GainError("support radius must lie in (0, 1)")
        if self.gstar <= self.max_gain:
            raise GainError("truncation level must exceed the max gain")

    def __call__(self, x) -> float | np.ndarray:
        pts, single = _pts(x, self.dim)
        out = np.asarray(self.evaluator(pts), dtype=float)
        return float(out[0]) if single else out

    def profile(self, radii) -> np.ndarray:
        """Values along a radius sweep (radial gains only)."""
        if self.radial_evaluator is None:
            raise GainError("gain is not radial")
        return np.asarray(self.radial_evaluator(np.asarray(radii, dtype=float)), dtype=float)

    @property
    def support_gap(self) -> float:
        """Distance from the support to the unit sphere."""
        return 1.0 - self.support_radius

    @property
    def lipschitz_bound(self) -> float:
        """Patch Lipschitz level M = max(L_g, g* / support gap)."""
        return max(self.lipschitz, self.gstar / self.support_gap)


def _radial_field(radial_eval: Callable[[np.ndarray], np.ndarray], support_radius: float,
                  gstar_margin: float, dim: int, continuous: bool,
                  lipschitz: float | None = None,
                  known_max: float | None = None) -> GainField:
    probe = np.linspace(0.0, min(support_radius * 1.02, 1.0), PROBE_POINTS)
    vals = np.asarray(radial_eval(probe), dtype=float)
    if np.any(vals < -1e-12):
        raise GainError("gain must be nonnegative")
    gbar = float(vals.max()) if known_max is None else float(known_max)
    if gbar <= 0.0:
        raise DegenerateGainError("gain is identically zero on its support")
    if lipschitz is None:
        lipschitz = float(np.abs(np.diff(vals)).max() / (probe[1] - probe[0]))

    def evaluator(pts: np.ndarray) -> np.ndarray:
        return radial_eval(np.linalg.norm(pts, axis=1))

    return GainField(
        evaluator=evaluator,
        support_radius=support_radius,
        max_gain=gbar,
        gstar=gbar * (1.0 + gstar_margin),
        lipschitz=lipschitz,
        dim=dim,
        radial=True,
        continuous=continuous,
        radial_evaluator=radial_eval,
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

    def radial_eval(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        dome = np.sqrt(np.clip(0.25 - r * r, 0.0, None))
        out = np.where(r <= eps, 1.0, np.where(r < 0.5, dome, 0.0))
        return out

    # The raw spike has a jump, so the probed difference quotient is
    # resolution-dependent; flag the field discontinuous and leave the
    # honest Lipschitz estimate to the mollified version.
    field = _radial_field(radial_eval, support_radius=0.5, gstar_margin=gstar_margin,
                          dim=dim, continuous=False, lipschitz=np.inf)
    return replace(field, max_gain=1.0, gstar=1.0 * (1.0 + gstar_margin))


def radial_bump_gain(center_radius: float, width: float, height: float = 1.0,
                     dim: int = 2, gstar_margin: float = 0.25) -> GainField:
    """Smooth radial bump supported on the annulus |r - c| < width."""
    if center_radius - width < 0.0 and center_radius > 0.0:
        raise GainError("bump must not straddle the origin unless centred there")
    support = center_radius + width
    if support >= 1.0:
        raise GainError("bump support escapes the unit ball")

    def radial_eval(r: np.ndarray) -> np.ndarray:
        t = (np.asarray(r, dtype=float) - center_radius) / width
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        out[inside] = height * np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
        return out

    if height <= 0.0:
        raise DegenerateGainError("gain is identically zero on its support")
    return _radial_field(radial_eval, support_radius=support, gstar_margin=gstar_margin,
                         dim=dim, continuous=True, known_max=height)


def offset_bump_gain(center, radius: float, height: float = 1.0,
                     gstar_margin: float = 0.25) -> GainField:
    """Smooth bump of the given radius centred off-origin (d = 2, non-radial)."""
    c = np.asarray(center, dtype=float)
    support = float(np.linalg.norm(c) + radius)
    if support >= 1.0:
        raise GainError("bump support escapes the unit ball")

    def evaluator(pts: np.ndarray) -> np.ndarray:
        t = np.linalg.norm(pts - c[None, :], axis=1) / radius
        out = np.zeros(pts.shape[0])
        inside = t < 1.0
        out[inside] = height * np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
        return out

    # Difference quotients on a grid over the support box; the supremum is the
    # bump height, attained at the centre.
    n = 97
    xs = np.linspace(c[0] - radius, c[0] + radius, n)
    ys = np.linspace(c[1] - radius, c[1] + radius, n)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    vals = evaluator(np.stack([xx.ravel(), yy.ravel()], axis=1)).reshape(n, n)
    gbar = float(height)
    if gbar <= 0.0:
        raise DegenerateGainError("gain is identically zero on its support")
    h = xs[1] - xs[0]
    lip = float(max(np.abs(np.diff(vals, axis=0)).max(), np.abs(np.diff(vals, axis=1)).max()) / h)
    return GainField(
        evaluator=evaluator,
        support_radius=support,
        max_gain=gbar,
        gstar=gbar * (1.0 + gstar_margin),
        lipschitz=lip,
        dim=2,
        radial=False,
        continuous=True,
    )


# ---------------------------------------------------------------------------
# Mollification
# ---------------------------------------------------------------------------

def _bump_kernel(s: np.ndarray, width: float) -> np.ndarray:
    t = s / width
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def mollify(g: GainField, width: float, profile_points: int = 4096) -> GainField:
    """Convolve with a normalised radial bump of the given width.

    Radial gains use a one-dimensional radial convolution carrying the full
    d-dimensional kernel weight; the support radius grows by exactly width.
    """
    if width <= 0.0:
        raise GainError("mollification width must be positive")
    if width >= (1.0 - g.support_radius) / 2.0:
        raise GainError("mollification width pushes the support out of the ball")
    if not g.radial:
        return _mollify_grid(g, width)

    d = g.dim
    new_support = g.support_radius + width
    r_nodes = np.linspace(0.0, min(new_support * 1.01, 1.0), profile_points)

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

    # |x - y| for x at radius r and kernel offset (s, theta).
    rr = r_nodes[:, None, None]
    ss = s[None, :, None]
    tt = theta[None, None, :]
    dist = np.sqrt(np.maximum(rr * rr + ss * ss - 2.0 * rr * ss * np.cos(tt), 0.0))
    gv = g.profile(dist.ravel()).reshape(dist.shape)
    weights = radial_weight[None, :, None] * ang_weight[None, None, :]
    norm = float(weights.sum())
    values = (gv * weights).sum(axis=(1, 2)) / norm
    values = np.clip(values, 0.0, None)

    def radial_eval(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return np.where(r >= new_support, 0.0, np.interp(r, r_nodes, values))

    gstar_margin = g.gstar / g.max_gain - 1.0
    return _radial_field(radial_eval, support_radius=new_support,
                         gstar_margin=gstar_margin, dim=d, continuous=True)


def _mollify_grid(g: GainField, width: float) -> GainField:
    from scipy.signal import fftconvolve

    spacing = width / 6.0
    half = g.support_radius + width + 2.0 * spacing
    n = int(np.ceil(2.0 * half / spacing)) | 1
    xs = (np.arange(n) - (n - 1) / 2.0) * spacing
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    field = g(np.stack([xx.ravel(), yy.ravel()], axis=1)).reshape(n, n)

    m = int(np.ceil(width / spacing))
    ks = np.arange(-m, m + 1) * spacing
    kx, ky = np.meshgrid(ks, ks, indexing="ij")
    kernel = _bump_kernel(np.hypot(kx, ky), width)
    kernel /= kernel.sum()
    smooth = fftconvolve(field, kernel, mode="same")
    smooth = np.clip(smooth, 0.0, None)

    def evaluator(pts: np.ndarray) -> np.ndarray:
        out = bilinear(smooth, (xs[0], xs[0]), (spacing, spacing), pts)
        far = np.linalg.norm(pts, axis=1) >= g.support_radius + width
        out[far] = 0.0
        return out

    gbar = float(smooth.max())
    if gbar <= 0.0:
        raise DegenerateGainError("mollified gain is identically zero")
    lip = float(max(np.abs(np.diff(smooth, axis=0)).max(), np.abs(np.diff(smooth, axis=1)).max()) / spacing)
    return GainField(
        evaluator=evaluator,
        support_radius=g.support_radius + width,
        max_gain=gbar,
        gstar=gbar * (g.gstar / g.max_gain),
        lipschitz=lip,
        dim=2,
        radial=False,
        continuous=True,
    )


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
