"""Harmonic patches and branched majorants.

A patch is a harmonic function on a smoothly bounded subdomain, represented by
its boundary data, truncated from above at the gain cap g*, and +inf off its
closed domain.  A branched majorant attaches successor majorants at interior
boundary points through a lazy extension map; the matching error accumulates
value mismatches at the interfaces down the tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import rng as rngmod
from .gain import GainField
from .geometry import (Annulus, Ball, Cap, Domain, FullBall, boundary_samples, domain_dim,
                       signed_distance)
from .harmonic import INF, BoundaryData, constant_data, radial_annulus_harmonic

GEOM_TOL = 1e-9
MATCHING_SAMPLES = 64     # interface samples at a tree's root; halved per level, at least 8
GAIN_TOL = 1e-9           # slack of majorises_gain's verdict
REGULARISE_SAMPLES = 256  # continuous_regularisation: interface samples per node, and gain probes
TREE_SAMPLES = 8          # attachment points per node in the tree JSON


class MajorantError(ValueError):
    pass


class ContiguityError(MajorantError):
    """An extension map returned a majorant that does not contain its query point."""


# ---------------------------------------------------------------------------
# Harmonic patches
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HarmonicPatch:
    """Truncated harmonic function on a subdomain.

    klass "H1" marks globally majorising patches: boundary data equals g* on
    every boundary portion strictly inside the unit ball.  The shift field
    implements upward translation (values are min(raw + shift, gstar)).
    """

    domain: Domain
    data: BoundaryData
    gstar: float
    klass: str
    raw_value: Callable[[np.ndarray], np.ndarray]
    shift: float = 0.0
    label: str = "patch"

    def __post_init__(self):
        if self.klass not in ("H0", "H1"):
            raise MajorantError(f"unknown patch class {self.klass!r}")
        if self.shift < 0.0:
            raise MajorantError("patch shift must be nonnegative")

    def value(self, x) -> float | np.ndarray:
        """Patch value: min(raw + shift, gstar) on the closed domain, +inf outside."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        single = np.asarray(x).ndim == 1
        sd = np.atleast_1d(signed_distance(self.domain, pts))
        out = np.full(pts.shape[0], INF)
        inside = sd <= GEOM_TOL
        if inside.any():
            raw = np.atleast_1d(np.asarray(self.raw_value(pts[inside]), dtype=float))
            out[inside] = np.minimum(raw + self.shift, self.gstar)
        return float(out[0]) if single else out

    def boundary_value(self, x) -> float | np.ndarray:
        """Effective data at boundary points: min(data + shift, gstar).

        Reads the data itself, not its harmonic extension.
        """
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        single = np.asarray(x).ndim == 1
        out = np.minimum(np.atleast_1d(np.asarray(self.data(pts), dtype=float)) + self.shift,
                         self.gstar)
        return float(out[0]) if single else out

    def translated(self, c: float) -> "HarmonicPatch":
        return replace(self, shift=self.shift + c)


def constant_patch(level: float, gstar: float, dim: int = 2, label: str | None = None) -> HarmonicPatch:
    if not 0.0 <= level <= gstar:
        raise MajorantError("constant level must lie in [0, gstar]")
    return HarmonicPatch(
        domain=FullBall(dim),
        data=constant_data(level),
        gstar=gstar,
        klass="H1",  # no free boundary inside the ball
        raw_value=lambda pts: np.full(pts.shape[0], float(level)),
        label=label or f"const[{level:.4g}]",
    )


def annulus_patch(a: float, b: float, va: float, vb: float, gstar: float, dim: int = 2,
                  label: str | None = None) -> HarmonicPatch:
    """Radial harmonic patch on the annulus a < |x| < b with sphere values va, vb."""
    for v in (va, vb):
        if not 0.0 <= v <= gstar:
            raise MajorantError("sphere values must lie in [0, gstar]")
    dom = Annulus(center=(0.0,) * dim, inner=a, outer=b)

    def raw(pts: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(pts, axis=1)
        r = np.clip(r, a, b)
        return np.atleast_1d(radial_annulus_harmonic(a, b, va, vb, r, dim))

    def data_eval(pts: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(pts, axis=1)
        return np.where(np.abs(r - a) < np.abs(r - b), va, vb)

    interior_gstar = (abs(va - gstar) < 1e-12) and (b >= 1.0 - 1e-12 or abs(vb - gstar) < 1e-12)
    return HarmonicPatch(
        domain=dom,
        data=BoundaryData(evaluator=data_eval, gstar_on_interior=interior_gstar),
        gstar=gstar,
        klass="H1" if interior_gstar else "H0",
        raw_value=raw,
        label=label or f"annulus[{a:.4g},{b:.4g}]",
    )


def annulus_to_boundary_patch(a: float, gstar: float, dim: int = 2) -> HarmonicPatch:
    """The globally majorising annulus patch: inner data g*, zero on the unit sphere."""
    return annulus_patch(a, 1.0, gstar, 0.0, gstar, dim=dim, label=f"annulus[{a:.4g},1]*")


def cap_patch(direction, z: float, gstar: float, label: str | None = None) -> HarmonicPatch:
    """Affine harmonic (1 - u.v)/z on its natural domain {value < gstar}."""
    v = np.asarray(direction, dtype=float)
    threshold = 1.0 - z * gstar
    if not -1.0 < threshold < 1.0:
        raise MajorantError("cap parameters leave no domain inside the ball")
    dom = Cap(direction=tuple(v), threshold=threshold)

    def raw(pts: np.ndarray) -> np.ndarray:
        return (1.0 - pts @ v) / z

    def data_eval(pts: np.ndarray) -> np.ndarray:
        return np.clip((1.0 - pts @ v) / z, 0.0, gstar)

    return HarmonicPatch(
        domain=dom,
        data=BoundaryData(evaluator=data_eval, gstar_on_interior=True),
        gstar=gstar,
        klass="H1",  # the flat boundary portion sits exactly at the gstar level set
        raw_value=raw,
        label=label or f"cap[z={z:.4g}]",
    )


def grid_patch(domain: Domain, data: BoundaryData, gstar: float,
               harmonic: Callable[[np.ndarray], np.ndarray], label: str = "grid") -> HarmonicPatch:
    """Patch on any domain whose raw value is ``harmonic``, the caller's
    harmonic extension of ``data`` into it (a grid table solved on the nodes
    inside the domain and read by interpolation, say).  The domain is kept as
    given, so a ball or an annulus keeps its exact exits."""
    return HarmonicPatch(
        domain=domain,
        data=data,
        gstar=gstar,
        klass="H1" if data.gstar_on_interior else "H0",
        raw_value=harmonic,
        label=label,
    )


# ---------------------------------------------------------------------------
# Branched majorants
# ---------------------------------------------------------------------------

Successors = tuple[list, dict, np.ndarray]


@dataclass(frozen=True)
class ExtensionMap:
    """Lazy map from interior-boundary points to successor majorants.

    ``successors(points)`` is the batch call: ``(keys, nodes, frames)`` with a
    hashable key per point, the node of each key, and per point a unit vector
    v.  The successor at point p is ``nodes[key]`` seen through the
    Householder reflection H_v that swaps v and e1 (``reflect``): its value
    at p is the node's value at H_v p.  v = e1 is the identity, and only
    leaves may carry another frame.  Maps without a ``batch`` callable loop
    over ``query``, keyed on the returned objects.
    """

    query: Callable[[np.ndarray], "BranchedMajorant"]
    batch: Optional[Callable[[np.ndarray], Successors]] = None

    def __call__(self, u: np.ndarray) -> "BranchedMajorant":
        return self.query(np.asarray(u, dtype=float))

    def successors(self, points: np.ndarray) -> Successors:
        points = np.asarray(points, dtype=float)
        if self.batch is not None:
            return self.batch(points)
        keys = [self.query(p) for p in points]
        return keys, {node: node for node in keys}, identity_frames(*points.shape)


def identity_frames(n: int, d: int) -> np.ndarray:
    """n copies of e1, the frame of an unreflected successor."""
    return np.tile(np.eye(d)[0], (n, 1))


def reflect(points: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """H_v p for each row: the reflection that swaps the unit vector v and e1.

    Exactly the identity where v = e1.  The normal v - e1 takes its first
    component as -|v_perp|^2 / (1 + v_1) when v_1 > 0, so directions near e1
    keep full precision.
    """
    v = np.asarray(frames, dtype=float)
    w = v.copy()
    w[:, 0] = np.where(v[:, 0] > 0.0, -np.sum(v[:, 1:] ** 2, axis=1) / (1.0 + np.abs(v[:, 0])),
                       v[:, 0] - 1.0)
    norm = np.linalg.norm(w, axis=1, keepdims=True)
    w = np.divide(w, norm, out=np.zeros_like(w), where=norm > 0.0)
    return points - 2.0 * np.sum(points * w, axis=1, keepdims=True) * w


@dataclass(frozen=True, eq=False)
class BranchedMajorant:
    base: HarmonicPatch
    extension: Optional[ExtensionMap]
    depth: int
    error_bound: float = 0.0

    def __post_init__(self):
        if self.depth < 1:
            raise MajorantError("depth must be at least 1")
        if self.depth == 1:
            if self.extension is not None or self.error_bound != 0.0:
                raise MajorantError("depth-1 majorants carry no extension and zero error")
        elif self.extension is None:
            raise MajorantError("branched majorants of depth > 1 need an extension map")
        if self.error_bound < 0.0:
            raise MajorantError("error bound must be nonnegative")

    def value(self, x) -> float | np.ndarray:
        return self.base.value(x)


def leaf(patch: HarmonicPatch) -> BranchedMajorant:
    return BranchedMajorant(base=patch, extension=None, depth=1, error_bound=0.0)


def branched(patch: HarmonicPatch,
             query: ExtensionMap | Callable[[np.ndarray], BranchedMajorant],
             depth: int, error_bound: float) -> BranchedMajorant:
    ext = query if isinstance(query, ExtensionMap) else ExtensionMap(query=query)
    return BranchedMajorant(base=patch, extension=ext, depth=depth, error_bound=error_bound)


def interior_boundary_samples(h: BranchedMajorant, count: int) -> np.ndarray:
    """Boundary samples off the unit sphere where the data sits below gstar."""
    if count < 1:
        raise MajorantError("sample count must be at least 1")
    base = h.base
    pts = boundary_samples(base.domain, max(count * 2, 8))
    radius = np.linalg.norm(pts, axis=1)
    off_sphere = radius < 1.0 - 1e-9
    if not off_sphere.any():
        return np.zeros((0, pts.shape[1]))
    pts = pts[off_sphere]
    open_data = base.boundary_value(pts) < base.gstar - 1e-12
    pts = pts[open_data]
    if pts.shape[0] > count:
        idx = np.linspace(0, pts.shape[0] - 1, count).astype(int)
        pts = pts[idx]
    return pts


def matching_error(h: BranchedMajorant) -> tuple[float, float]:
    """(sup interface mismatch, accumulated norm) measured on boundary samples.

    Exactly (0, 0) for depth-1 majorants.
    """
    # Keyed on the nodes themselves: the memo keeps each one alive, so no
    # later node can take over a freed node's entry.
    memo: dict[BranchedMajorant, tuple[float, float]] = {}

    def rec(node: BranchedMajorant, count: int) -> tuple[float, float]:
        if node in memo:
            return memo[node]
        if node.extension is None:
            memo[node] = (0.0, 0.0)
            return memo[node]
        pts = interior_boundary_samples(node, count)
        if pts.shape[0] == 0:
            memo[node] = (0.0, 0.0)
            return memo[node]
        delta = 0.0
        worst_child = 0.0
        for p in pts:
            child = node.extension(p)
            cv = child.value(p)
            if not np.isfinite(cv):
                raise ContiguityError(f"extension at {p} does not contain its query point")
            delta = max(delta, abs(float(node.base.boundary_value(p)) - float(cv)))
            worst_child = max(worst_child, rec(child, max(count // 2, 8))[1])
        memo[node] = (delta, delta + worst_child)
        return memo[node]

    return rec(h, MATCHING_SAMPLES)


def upward_translate(h: BranchedMajorant, c: float) -> BranchedMajorant:
    """Shift every patch of the tree up by c, truncating at gstar.

    Truncation contracts interface mismatches, so the stored error bound
    remains valid.
    """
    if c < 0.0:
        raise MajorantError("upward translation needs c >= 0")
    if c == 0.0:
        return h
    base = h.base.translated(c)
    if h.extension is None:
        return BranchedMajorant(base=base, extension=None, depth=1, error_bound=0.0)
    old = h.extension
    ext = ExtensionMap(query=lambda u: upward_translate(old(u), c))
    return BranchedMajorant(base=base, extension=ext, depth=h.depth, error_bound=h.error_bound)


def majorises_gain(h: BranchedMajorant | HarmonicPatch, gain: GainField, probes: int = 512,
                   seed: int = 7, _depth_budget: int = 3) -> tuple[bool, float]:
    """Check h >= gain on domain probes, recursing into sampled children.

    Returns (ok, worst signed gap); a negative gap is the deepest violation found.
    """
    base = h.base if isinstance(h, BranchedMajorant) else h
    dom = base.domain
    gen = rngmod.stream(seed, 12345)
    d = domain_dim(dom)
    pts = _domain_probes(dom, probes, gen, d)
    worst = np.inf
    if pts.shape[0]:
        vals = np.atleast_1d(base.value(pts))
        gaps = vals - gain(pts)
        worst = float(np.min(gaps))
    if isinstance(h, BranchedMajorant) and h.extension is not None and _depth_budget > 0:
        for p in interior_boundary_samples(h, 16):
            child = h.extension(p)
            _, child_worst = majorises_gain(child, gain, probes=max(probes // 4, 32),
                                            seed=seed + 1,
                                            _depth_budget=_depth_budget - 1)
            worst = min(worst, child_worst)
    return worst >= -GAIN_TOL, worst


def _domain_probes(dom: Domain, count: int, gen: np.random.Generator, d: int) -> np.ndarray:
    if isinstance(dom, Ball):
        lo = np.asarray(dom.center) - dom.radius
        hi = np.asarray(dom.center) + dom.radius
    elif isinstance(dom, Annulus):
        lo = np.asarray(dom.center) - dom.outer
        hi = np.asarray(dom.center) + dom.outer
    else:
        lo = -np.ones(d)
        hi = np.ones(d)
    pts = gen.uniform(lo, hi, size=(count * 3, d))
    inside = np.atleast_1d(signed_distance(dom, pts)) < -1e-12
    pts = pts[inside][:count]
    return pts


# ---------------------------------------------------------------------------
# Continuous regularisation
# ---------------------------------------------------------------------------

def continuous_regularisation(h: BranchedMajorant,
                              gain: GainField | None = None) -> BranchedMajorant:
    """Upward-translate the patches of h so interface mismatches vanish.

    The base is lifted by the measured sup mismatch against regularised
    children; each child is then lifted pointwise to value-match the new base
    exactly at its attachment point.  The result sandwiches between h and
    h + |h| and has (sampled) zero matching error.
    """
    if gain is not None:
        ok, worst = majorises_gain(h, gain, probes=REGULARISE_SAMPLES)
        if not ok:
            raise MajorantError(f"regularisation requires h >= gain (worst gap {worst:.3g})")
    memo: dict[BranchedMajorant, BranchedMajorant] = {}   # keyed on nodes, as in matching_error

    def rec(node: BranchedMajorant) -> BranchedMajorant:
        if node in memo:
            return memo[node]
        if node.extension is None:
            memo[node] = node
            return node
        pts = interior_boundary_samples(node, REGULARISE_SAMPLES)
        old_ext = node.extension
        if pts.shape[0] == 0:
            delta0 = 0.0
        else:
            mismatches = []
            for p in pts:
                child0 = rec(old_ext(p))
                mismatches.append(abs(float(node.base.boundary_value(p))
                                      - float(child0.value(p))))
            delta0 = float(max(mismatches))

        new_base = node.base.translated(delta0)

        def query(u: np.ndarray, _node=node, _delta0=delta0) -> BranchedMajorant:
            child0 = rec(_node.extension(u))
            lift = float(_node.base.boundary_value(u)) + _delta0 - float(child0.value(u))
            return upward_translate(child0, max(lift, 0.0))

        out = BranchedMajorant(base=new_base, extension=ExtensionMap(query=query),
                               depth=node.depth, error_bound=0.0)
        memo[node] = out
        return out

    return rec(h)


# ---------------------------------------------------------------------------
# Tree serialisation
# ---------------------------------------------------------------------------

def tree_json(h: BranchedMajorant) -> dict:
    """Nodes and attachment edges of the (sampled) majorant tree."""
    nodes: list[dict] = []
    edges: list[dict] = []

    def rec(node: BranchedMajorant) -> int:
        nid = len(nodes)
        nodes.append({
            "id": nid,
            "domain": node.base.label,
            "class": node.base.klass,
            "depth": node.depth,
            "error_bound": node.error_bound,
        })
        if node.extension is not None:
            for p in interior_boundary_samples(node, TREE_SAMPLES):
                child = node.extension(p)
                cid = rec(child)
                edges.append({"parent": nid, "child": cid,
                              "at": [float(v) for v in p]})
        return nid

    rec(h)
    return {"nodes": nodes, "edges": edges}


def dump_tree_json(h: BranchedMajorant, path) -> None:
    with open(path, "w") as fh:
        json.dump(tree_json(h), fh, indent=2, sort_keys=True)
