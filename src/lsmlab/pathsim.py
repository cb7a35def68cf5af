"""Brownian paths absorbed at the unit sphere, stopping rules, and the
pathwise patch-extension procedure over branched majorants.

Payoff estimation uses walk-on-spheres jumps (exact exit positions, no
time-step bias) unless the rule has a fixed-time deadline; those rules run
``euler_exits``, the batched Euler scheme.  After each step that stays inside
the stopping set, it stops a path with the half-space Brownian-bridge
probability of a crossing within the step, so its payoffs carry an O(dt)
bias (weak order 1), not the O(sqrt(dt)) of checking step ends only.  A rule
that stops at a first exit maps to a continuation domain, and an earlier-of
rule to the ``geometry.Intersection`` of its rules' domains; both schemes ask
``geometry.signed_distance`` of that domain whether a path has stopped.

Pathwise extension runs have one engine, ``_extend``, which works in rounds.
Each round walks every group of paths that holds the same successor key in
one ``wos_exit_batch`` call, and then hands the paths on in one
``ExtensionMap.successors`` call per group.  Group g of round k draws from
the stream ``(seed, 92, stream_key, k, g)`` (``run_algorithm1_batch``) or
``(seed, 91, path_index, k, g)`` (``run_algorithm1``), with groups in order of
their first path index, so the bytes do not depend on how batches are spread
over threads.  A radial cap through direction v is the cap through e1 seen
through the Householder reflection H_v, so all such caps form one group: the
walks run from H_v p on the e1 cap, whose data at the exit is the turned
cap's data at the reflected-back exit.  ``run_algorithm1`` is the engine at
one path with its hops recorded as a ``PathRecord``, which ``trace_to_csv``
writes out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import rng as rngmod
from .envelope import ContactSet, GridField
from .gain import GainField
from .geometry import (Annulus, Ball, Domain, FullBall, GridRegion, Intersection,
                       project_to_boundary_batch, signed_distance)
from .grids import write_csv
from .harmonic import WosConfig, wos_exit_batch
from .majorant import BranchedMajorant, identity_frames, reflect

BATCH = 4096


class PathError(ValueError):
    pass


class StructuralError(PathError):
    """The majorant's extension map failed contiguity during a run."""


@dataclass(frozen=True)
class PathConfig:
    dt: float = 1e-3
    seed: int = 0
    max_time: float = 50.0
    shell: float = 1e-4

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise PathError(f"time step must be finite and positive, got {self.dt}")
        if not (math.isfinite(self.max_time) and self.max_time > 0.0):
            raise PathError(f"max_time must be finite and positive, got {self.max_time}")
        if not 0.0 < self.shell < 1.0:
            raise PathError(f"shell must lie in (0, 1), got {self.shell}")


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
    """Domain whose exit stops the rule from x, or None for a time-only rule.

    An earlier-of with a time-only side keeps the other side's domain; its
    deadline is ``_fixed_deadline``'s.  A domain that does not contain x
    means the rule fires immediately.
    """
    if isinstance(rule, FirstExit):
        return rule.domain
    if isinstance(rule, ContactHit):
        return _contact_continuation(rule, x)
    if isinstance(rule, EarlierOf):
        a = continuation_domain(rule.first, x)
        b = continuation_domain(rule.second, x)
        if a is None:
            return b
        if b is None:
            return a
        return Intersection((a, b))
    return None


def _contact_continuation(rule: ContactHit, x: np.ndarray):
    fld = rule.grid
    contact = rule.contact
    if fld.kind == "radial":
        r = float(np.linalg.norm(x))
        radii = fld.radii
        i = fld.nearest_node(x)
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

TERMINATIONS = ("hit_boundary", "hit_gstar", "exhausted")
HIT_BOUNDARY, HIT_GSTAR, EXHAUSTED = range(3)
MAX_ROUNDS = 256


def run_algorithm1(h: BranchedMajorant, x, cfg: PathConfig,
                   path_index: int = 0) -> PathRecord:
    """Cover one sample path with patches until a terminal boundary is hit.

    The batch engine at one path, drawing from the ``(seed, 91, path_index)``
    streams, with each hop's exit point and patch recorded.
    """
    x = np.asarray(x, dtype=float)
    hops: list[tuple[str, np.ndarray]] = []
    _, causes = _extend(h, x, 1, cfg, (91, path_index), hops)
    termination = TERMINATIONS[causes[0]]
    trace = [(h.base.label, 0.0, x.copy())]
    trace += [(label, float(k), pt) for k, (label, pt) in enumerate(hops, start=1)]
    return PathRecord(times=np.arange(len(hops) + 1, dtype=float),
                      points=np.array([x] + [pt for _, pt in hops]),
                      absorbed=termination == "hit_boundary", patch_trace=trace,
                      termination=termination)


def run_algorithm1_batch(h: BranchedMajorant, x, n_paths: int, cfg: PathConfig,
                         stream_key: int = 0) -> tuple[np.ndarray, list]:
    """Final points and termination causes for many pathwise extension runs."""
    finals, causes = _extend(h, np.asarray(x, dtype=float), n_paths, cfg, (92, stream_key))
    return finals, [TERMINATIONS[c] for c in causes.tolist()]


def walk_exits(node: BranchedMajorant, pts: np.ndarray, frames: np.ndarray, wos: WosConfig,
               generator: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Walk-on-spheres exits of node's patch, each seen through its frame.

    Every walk runs in one ``wos_exit_batch`` call on the node's own domain,
    from the reflected start H_v p; the exits are reflected back, and the
    boundary values are the node's data at the reflected exits.
    """
    exits = wos_exit_batch(node.base.domain, reflect(pts, frames), wos, generator=generator)
    values = np.atleast_1d(node.base.boundary_value(exits))
    return reflect(exits, frames), values


def _extend(h: BranchedMajorant, x: np.ndarray, n_paths: int, cfg: PathConfig,
            stream: tuple[int, int], hops: Optional[list] = None) -> tuple[np.ndarray, np.ndarray]:
    """Final points and termination codes of n_paths extension runs from x.

    Each round walks every group of paths that hold the same successor key,
    groups ordered by their first path index; group g of round k draws from
    ``(seed, *stream, k, g)``.  ``hops``, when given, receives one path's
    ``(patch label, exit point)`` per hop.
    """
    if float(signed_distance(h.base.domain, x)) >= 0.0:
        raise PathError("start point must lie in the base patch domain")
    gstar = h.base.gstar
    sphere = 1.0 - max(cfg.shell, 1e-9)
    wos = WosConfig(shell=cfg.shell, max_steps=100_000, walks=1, seed=cfg.seed)
    pos = np.tile(x, (n_paths, 1))
    frames = identity_frames(n_paths, x.shape[0])
    causes = np.full(n_paths, EXHAUSTED)
    groups = [(h, np.arange(n_paths))]
    for round_idx in range(MAX_ROUNDS):
        if not groups:
            break
        handed: dict = {}
        for group_idx, (node, idx) in enumerate(groups):
            gen = rngmod.stream(cfg.seed, *stream, round_idx, group_idx)
            exits, values = walk_exits(node, pos[idx], frames[idx], wos, gen)
            pos[idx] = exits
            on_sphere = np.linalg.norm(exits, axis=1) >= sphere
            at_gstar = ~on_sphere & (values >= gstar * (1.0 - 1e-9))
            causes[idx[on_sphere]] = HIT_BOUNDARY
            causes[idx[at_gstar]] = HIT_GSTAR
            going = ~(on_sphere | at_gstar)
            if node.extension is None or not going.any():
                if hops is not None:
                    hops.append((node.base.label, exits[0].copy()))
                continue
            movers, starts = idx[going], exits[going]
            if np.any(frames[movers, 1:] != 0.0):
                raise StructuralError("a reflected successor cannot hand paths on")
            keys, nodes, new_frames = node.extension.successors(starts)
            frames[movers] = new_frames
            for key, local in _by_key(keys):
                nxt = nodes[key]
                pts = starts[local]
                outside = signed_distance(nxt.base.domain, reflect(pts, new_frames[local])) >= 0.0
                if np.any(outside):
                    raise StructuralError(f"extension at {pts[np.argmax(outside)]} returned a "
                                          "patch not containing the point")
                handed.setdefault(key, (nxt, []))[1].append(movers[local])
                if hops is not None:
                    hops.append((nxt.base.label, pts[0].copy()))
        groups = sorted(((nxt, np.sort(np.concatenate(parts))) for nxt, parts in handed.values()),
                        key=lambda group: group[1][0])
    return pos, causes


def _by_key(keys: list) -> list[tuple[object, np.ndarray]]:
    """Positions of each distinct key, keys in order of first appearance."""
    slots: dict = {}
    for i, key in enumerate(keys):
        slots.setdefault(key, []).append(i)
    return [(key, np.array(where)) for key, where in slots.items()]


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

    The stopping set is the rule's domain cut by the unit ball.  A step that
    ends outside it stops the path at the crossing interpolated along the
    step and projected onto the boundary.  A step that stays inside stops the
    path with the Brownian-bridge probability exp(-2 d_n d_{n+1} / dt) of a
    crossing in between, d being the distance to the boundary, at the step's
    midpoint projected onto the boundary; this makes the scheme weak order 1
    (Gobet 2000).  Paths also stop at the rule's deadline or at
    ``cfg.max_time``.  A start on the unit sphere or outside the rule's
    domain stops where it is.  Each step draws its normals, then one uniform
    per live path, from the batch's ``(seed, 94, stream_key, batch)`` stream.
    """
    x = np.asarray(x, dtype=float)
    radius = float(np.linalg.norm(x))
    if radius > 1.0 + 1e-12:
        raise PathError("start point must lie in the closed unit ball")
    out = np.tile(x, (n_paths, 1))
    dom = continuation_domain(rule, x)
    if radius >= 1.0 - 1e-12 or dom is not None and signed_distance(dom, x) >= 0.0:
        return out
    d = x.shape[0]
    region = FullBall(d) if dom is None else Intersection((FullBall(d), dom))
    deadline = _fixed_deadline(rule)
    horizon = min(cfg.max_time, deadline if deadline is not None else cfg.max_time)
    n_steps = int(math.ceil(horizon / cfg.dt))
    sqdt = math.sqrt(cfg.dt)
    for b0 in range(0, n_paths, BATCH):
        b1 = min(b0 + BATCH, n_paths)
        m = b1 - b0
        gen = rngmod.stream(cfg.seed, 94, stream_key, b0 // BATCH)
        pos = np.tile(x, (m, 1))
        alive = np.ones(m, dtype=bool)
        final = out[b0:b1]
        # Each live path's distance to the stopping set, carried from its last step.
        dist = np.full(m, -signed_distance(region, x))
        for _ in range(n_steps):
            if not alive.any():
                break
            idx = np.nonzero(alive)[0]
            step = sqdt * gen.standard_normal((idx.size, d))
            u = gen.random(idx.size)
            prev_dist = dist[idx]
            next_dist = -signed_distance(region, pos[idx] + step)
            crossed = next_dist <= 0.0
            # A crossed step has bridge probability 1, so it always stops.
            stopped = u < np.exp(-2.0 / cfg.dt * prev_dist * np.maximum(next_dist, 0.0))
            if stopped.any():
                frac = np.full(idx.size, 0.5)
                frac[crossed] = prev_dist[crossed] / (prev_dist[crossed] - next_dist[crossed])
                sel = idx[stopped]
                final[sel] = pos[sel] + frac[stopped, None] * step[stopped]
                alive[sel] = False
            pos[idx] += step
            dist[idx] = next_dist
        # Every stopped path lands on the boundary in one projection per batch.
        final[~alive] = project_to_boundary_batch(region, final[~alive])
        final[alive] = pos[alive]
    return out


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
