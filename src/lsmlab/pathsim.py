"""Brownian paths absorbed at the unit sphere, stopping rules, and the
pathwise patch-extension procedure over branched majorants.

Payoff estimation uses walk-on-spheres jumps (exact exit positions, no
time-step bias) unless the rule has a fixed-time deadline; those rules run
``euler_exits``, the batched Euler scheme, with the documented O(sqrt(dt))
crossing bias.  A rule that stops at a first exit maps to a continuation
domain, and an earlier-of rule to the ``geometry.Intersection`` of its rules'
domains; both schemes ask ``geometry.signed_distance`` of that domain whether
a path has stopped.  Pathwise extension runs record their WoS hops as
``PathRecord``s, which ``trace_to_csv`` writes out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import rng as rngmod
from .envelope import ContactSet, GridField
from .gain import GainField
from .geometry import Annulus, Ball, Domain, GridRegion, Intersection, signed_distance
from .grids import write_csv
from .harmonic import WosConfig, wos_exit_batch
from .majorant import BranchedMajorant

BATCH = 4096


class PathError(ValueError):
    pass


class StructuralError(PathError):
    """The majorant's extension map failed contiguity during a run."""


@dataclass(frozen=True)
class PathConfig:
    dt: float = 1e-4
    seed: int = 0
    max_time: float = 50.0
    shell: float = 1e-4

    def __post_init__(self):
        if self.dt <= 0.0:
            raise PathError("time step must be positive")


@dataclass(eq=False)
class PathRecord:
    times: np.ndarray
    points: np.ndarray
    absorbed: bool
    patch_trace: list
    termination: str


# ---------------------------------------------------------------------------
# Stopping rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FirstExit:
    domain: Domain


@dataclass(frozen=True)
class FixedTime:
    t: float

    def __post_init__(self):
        if self.t < 0.0:
            raise PathError("fixed stopping time must be nonnegative")


@dataclass(frozen=True, eq=False)
class ContactHit:
    """Stop at the first visit to the contact set (or the unit sphere)."""

    contact: ContactSet
    grid: GridField


@dataclass(frozen=True, eq=False)
class EarlierOf:
    """Stop at whichever of the two rules fires first."""

    first: object
    second: object


StoppingRule = Union[FirstExit, FixedTime, ContactHit, EarlierOf]


def continuation_domain(rule, x: np.ndarray) -> Optional[Domain]:
    """Domain whose exit realises the rule from x, or None for time-based rules.

    Returns None when the rule cannot be expressed as a first-exit; a domain
    that does not contain x means the rule fires immediately.
    """
    if isinstance(rule, FirstExit):
        return rule.domain
    if isinstance(rule, ContactHit):
        return _contact_continuation(rule, x)
    if isinstance(rule, EarlierOf):
        a = continuation_domain(rule.first, x)
        b = continuation_domain(rule.second, x)
        if a is None or b is None:
            return None
        return Intersection((a, b))
    return None


def _contact_continuation(rule: ContactHit, x: np.ndarray):
    fld = rule.grid
    contact = rule.contact
    if fld.kind == "radial":
        r = float(np.linalg.norm(x))
        radii = fld.radii
        i = int(np.argmin(np.abs(radii - r)))
        if contact.labels[i] == 0:
            return Ball(center=(0.0,) * fld.dim, radius=max(r, radii[0]) * 1e-9 + 1e-12)
        label = contact.labels[i]
        nodes = np.nonzero(contact.labels == label)[0]
        i0, i1 = int(nodes[0]), int(nodes[-1])
        r_out = 1.0 if i1 + 1 >= len(radii) else float(radii[i1 + 1])
        if i0 == 0:
            return Ball(center=(0.0,) * fld.dim, radius=r_out)
        return Annulus(center=(0.0,) * fld.dim, inner=float(radii[i0 - 1]), outer=r_out)
    mask = contact.noncontact_mask
    region = GridRegion(mask=mask, spacing=fld.spacing)
    return region


def _fixed_deadline(rule) -> Optional[float]:
    if isinstance(rule, FixedTime):
        return rule.t
    if isinstance(rule, EarlierOf):
        a = _fixed_deadline(rule.first)
        b = _fixed_deadline(rule.second)
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)
    return None


# ---------------------------------------------------------------------------
# Pathwise extension over branched majorants
# ---------------------------------------------------------------------------

def run_algorithm1(h: BranchedMajorant, x, cfg: PathConfig,
                   path_index: int = 0) -> PathRecord:
    """Cover one sample path with patches until a terminal boundary is hit.

    Starting in the base domain, each exit through an interior boundary point
    activates the successor supplied by the extension map; exits at the
    truncation level or on the unit sphere terminate.
    """
    x = np.asarray(x, dtype=float)
    gen = rngmod.stream(cfg.seed, 91, path_index)
    gstar = h.base.gstar
    current = h
    pos = x.copy()
    if float(signed_distance(current.base.domain, pos)) >= 0.0:
        raise PathError("start point must lie in the base patch domain")
    trace = [(current.base.label, 0.0, pos.copy())]
    points = [pos.copy()]
    times = [0.0]
    wos = WosConfig(shell=cfg.shell, max_steps=100_000, walks=1, seed=cfg.seed)
    hops = 0.0
    for _ in range(256):
        exit_pt = wos_exit_batch(current.base.domain, pos, wos, n=1, generator=gen)[0]
        hops += 1.0
        points.append(exit_pt.copy())
        times.append(hops)
        value = float(current.base.boundary_value(exit_pt))
        on_sphere = float(np.linalg.norm(exit_pt)) >= 1.0 - max(cfg.shell, 1e-9)
        if on_sphere:
            trace.append((current.base.label, hops, exit_pt.copy()))
            return PathRecord(times=np.array(times), points=np.array(points), absorbed=True,
                              patch_trace=trace, termination="hit_boundary")
        if value >= gstar * (1.0 - 1e-9):
            trace.append((current.base.label, hops, exit_pt.copy()))
            return PathRecord(times=np.array(times), points=np.array(points), absorbed=False,
                              patch_trace=trace, termination="hit_gstar")
        if current.extension is None:
            trace.append((current.base.label, hops, exit_pt.copy()))
            return PathRecord(times=np.array(times), points=np.array(points), absorbed=False,
                              patch_trace=trace, termination="exhausted")
        nxt = current.extension(exit_pt)
        if float(signed_distance(nxt.base.domain, exit_pt)) >= 0.0:
            raise StructuralError(
                f"extension at {exit_pt} returned a patch not containing the point")
        trace.append((nxt.base.label, hops, exit_pt.copy()))
        current = nxt
        pos = exit_pt
    return PathRecord(times=np.array(times), points=np.array(points), absorbed=False,
                      patch_trace=trace, termination="exhausted")


def run_algorithm1_batch(h: BranchedMajorant, x, n_paths: int, cfg: PathConfig,
                         stream_key: int = 0) -> tuple[np.ndarray, list]:
    """Final points and termination causes for many pathwise extension runs."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    gstar = h.base.gstar
    finals = np.empty((n_paths, d))
    terms: list[str] = ["exhausted"] * n_paths
    pos = np.tile(x, (n_paths, 1))
    holders: dict[int, tuple[BranchedMajorant, list[int]]] = {id(h): (h, list(range(n_paths)))}
    wos = WosConfig(shell=cfg.shell, max_steps=100_000, walks=1, seed=cfg.seed)
    for round_idx in range(256):
        if not holders:
            break
        next_holders: dict[int, tuple[BranchedMajorant, list[int]]] = {}
        for group_idx, (node, idx) in enumerate(holders.values()):
            gen = rngmod.stream(cfg.seed, 92, stream_key, round_idx, group_idx)
            exits = wos_exit_batch(node.base.domain, pos[idx], wos, generator=gen)
            vals = np.atleast_1d(node.base.boundary_value(exits))
            on_sphere = np.linalg.norm(exits, axis=1) >= 1.0 - max(cfg.shell, 1e-9)
            hit_cap = vals >= gstar * (1.0 - 1e-9)
            for local, global_i in enumerate(idx):
                p = exits[local]
                if on_sphere[local]:
                    finals[global_i] = p
                    terms[global_i] = "hit_boundary"
                elif hit_cap[local]:
                    finals[global_i] = p
                    terms[global_i] = "hit_gstar"
                elif node.extension is None:
                    finals[global_i] = p
                    terms[global_i] = "exhausted"
                else:
                    nxt = node.extension(p)
                    if float(signed_distance(nxt.base.domain, p)) >= 0.0:
                        raise StructuralError(
                            f"extension at {p} returned a patch not containing the point")
                    pos[global_i] = p
                    slot = next_holders.setdefault(id(nxt), (nxt, []))
                    slot[1].append(global_i)
        holders = next_holders
    if holders:
        for node, idx in holders.values():
            for global_i in idx:
                finals[global_i] = pos[global_i]
    return finals, terms


# ---------------------------------------------------------------------------
# Payoff estimation and optimality
# ---------------------------------------------------------------------------

def payoff_estimate(x, rule: StoppingRule, gain: GainField, n_paths: int,
                    cfg: PathConfig, stream_key: int = 0) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the gain at the stopped point."""
    if n_paths < 1:
        raise PathError("need at least one path")
    x = np.asarray(x, dtype=float)

    deadline = _fixed_deadline(rule)
    dom = continuation_domain(rule, x)
    if deadline is None and dom is not None:
        if signed_distance(dom, x) >= 0.0:
            return float(gain(x)), 0.0
        gen = rngmod.stream(cfg.seed, 93, stream_key)
        wos = WosConfig(shell=cfg.shell, max_steps=1_000_000, walks=n_paths, seed=cfg.seed)
        stops = wos_exit_batch(dom, x, wos, generator=gen)
    elif isinstance(rule, FixedTime) and rule.t == 0.0:
        return float(gain(x)), 0.0
    else:
        stops = euler_exits(x, rule, n_paths, cfg, stream_key)
    vals = gain(stops)
    mean = float(np.mean(vals))
    sem = float(np.std(vals, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    return mean, sem


def euler_exits(x, rule: StoppingRule, n_paths: int, cfg: PathConfig,
                stream_key: int = 0) -> np.ndarray:
    """Points where n_paths Euler paths from x stop, shape (n_paths, d).

    A path stops when it leaves the unit ball, at the sphere crossing of its
    last step; when the rule's domain stops it, at the crossing interpolated
    along its last step; at the rule's deadline; or at ``cfg.max_time``.  A
    start on the unit sphere is absorbed where it is.
    """
    x = np.asarray(x, dtype=float)
    radius = float(np.linalg.norm(x))
    if radius > 1.0 + 1e-12:
        raise PathError("start point must lie in the closed unit ball")
    out = np.tile(x, (n_paths, 1))
    if radius >= 1.0 - 1e-12:
        return out
    d = x.shape[0]
    deadline = _fixed_deadline(rule)
    horizon = min(cfg.max_time, deadline if deadline is not None else cfg.max_time)
    n_steps = int(math.ceil(horizon / cfg.dt))
    sqdt = math.sqrt(cfg.dt)
    dom = continuation_domain(rule, x)
    for b0 in range(0, n_paths, BATCH):
        b1 = min(b0 + BATCH, n_paths)
        m = b1 - b0
        gen = rngmod.stream(cfg.seed, 94, stream_key, b0 // BATCH)
        pos = np.tile(x, (m, 1))
        alive = np.ones(m, dtype=bool)
        final = out[b0:b1]
        for _ in range(n_steps):
            if not alive.any():
                break
            idx = np.nonzero(alive)[0]
            step = sqdt * gen.standard_normal((idx.size, d))
            nxt = pos[idx] + step
            r2 = np.sum(nxt * nxt, axis=1)
            crossed = r2 >= 1.0
            if crossed.any():
                for k in np.nonzero(crossed)[0]:
                    final[idx[k]] = _absorb_crossing(pos[idx[k]], nxt[k])
                alive[idx[crossed]] = False
            keep = ~crossed
            if dom is not None and keep.any():
                prev_sd = signed_distance(dom, pos[idx[keep]])
                next_sd = signed_distance(dom, nxt[keep])
                fired = next_sd >= 0.0
                if fired.any():
                    sel = idx[keep][fired]
                    frac = np.where(next_sd[fired] > prev_sd[fired],
                                    prev_sd[fired] / (prev_sd[fired] - next_sd[fired]), 1.0)
                    frac = np.clip(frac, 0.0, 1.0)
                    final[sel] = pos[sel] + frac[:, None] * (nxt[keep][fired] - pos[sel])
                    alive[sel] = False
            pos[idx[keep]] = nxt[keep]
        final[alive] = pos[alive]
    return out


def _absorb_crossing(prev: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """Linear interpolation of the segment to the unit sphere."""
    d = nxt - prev
    a = float(d @ d)
    b = 2.0 * float(prev @ d)
    c = float(prev @ prev) - 1.0
    disc = max(b * b - 4 * a * c, 0.0)
    t = (-b + math.sqrt(disc)) / (2 * a) if a > 0 else 0.0
    t = min(max(t, 0.0), 1.0)
    return prev + t * d


@dataclass(eq=False)
class OptimalityReport:
    x: np.ndarray
    contact_payoff: tuple[float, float]
    rows: list

    def all_dominated(self) -> bool:
        return all(row["dominated"] for row in self.rows)

    def all_truncations_ok(self) -> bool:
        return all(row["truncation_ok"] for row in self.rows)


def optimality_test(x, contact_rule: ContactHit, rivals: list, gain: GainField,
                    n_paths: int, cfg: PathConfig, sigmas: float = 3.0) -> OptimalityReport:
    """Check the contact-hit rule dominates each rival, and that truncating a
    rival at the contact hit never hurts, all within the given sigma band."""
    x = np.asarray(x, dtype=float)
    base_mean, base_sem = payoff_estimate(x, contact_rule, gain, n_paths, cfg, stream_key=1000)
    rows = []
    for k, rival in enumerate(rivals):
        r_mean, r_sem = payoff_estimate(x, rival, gain, n_paths, cfg, stream_key=2000 + k)
        truncated = EarlierOf(rival, contact_rule)
        t_mean, t_sem = payoff_estimate(x, truncated, gain, n_paths, cfg, stream_key=3000 + k)
        # The 1e-12 floor keeps degenerate (deterministic) comparisons from
        # failing on machine-epsilon noise.
        dominated = base_mean >= r_mean - sigmas * math.hypot(base_sem, r_sem) - 1e-12
        trunc_ok = t_mean >= r_mean - sigmas * math.hypot(t_sem, r_sem) - 1e-12
        rows.append({
            "rival": _describe(rival),
            "mean": r_mean, "stderr": r_sem,
            "truncated_mean": t_mean, "truncated_stderr": t_sem,
            "dominated": bool(dominated),
            "truncation_ok": bool(trunc_ok),
        })
    return OptimalityReport(x=x, contact_payoff=(base_mean, base_sem), rows=rows)


def _describe(rule) -> str:
    if isinstance(rule, FirstExit):
        return f"first-exit[{type(rule.domain).__name__}]"
    if isinstance(rule, FixedTime):
        return f"fixed-time[{rule.t:g}]"
    if isinstance(rule, ContactHit):
        return "contact-hit"
    if isinstance(rule, EarlierOf):
        return f"earlier({_describe(rule.first)},{_describe(rule.second)})"
    return str(rule)


def trace_to_csv(record: PathRecord, path) -> None:
    """Write the record as ``t,x,y[,z],patch`` rows, each with the patch it is in."""
    axes = ["x", "y", "z"][:record.points.shape[1]]
    patch_at = {float(t): label for label, t, _pt in record.patch_trace}
    current = record.patch_trace[0][0] if record.patch_trace else ""
    labels = []
    for t in record.times.tolist():
        current = patch_at.get(t, current)
        labels.append(current)
    write_csv(path, f"t in time units (wos traces count patch hops), {','.join(axes)} "
              "in unit-ball lengths", ["t", *axes, "patch"],
              record.times, *record.points.T, labels)
