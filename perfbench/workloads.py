"""Seeded cases for the three benchmark workloads.

A case is one config (or one set of rule inputs) run in one fresh worker
interpreter: the CLI is one process per config, and a process that mixes
Cartesian grid sizes is not what a user runs. Each case lists its operations
in order; an operation is one CLI command or one public API call.

Parameters are drawn from narrow ranges so that every seed does about the
same amount of work: the spread between seeds must stay well inside the
bounds in BENCHMARK.json.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("radial-family", "cartesian-disc", "monte-carlo")

ENVELOPE = {"max_iter": 32, "tol": 1e-9, "contact_tol": 1e-9, "omega": 1.9}

# Paths per Monte Carlo call. The acceptance suite uses 1e5; 2e4 keeps one
# pass near 7 s on 2 cores, so that a run repeats it a few times.
N_PATHS = 20_000


def _radial_config(gain: dict, nodes: int, seed: int) -> dict:
    return {
        "gain": gain,
        "dim": 2,
        "grid": {"kind": "radial", "nodes": nodes, "r_min": 0.001},
        "envelope": dict(ENVELOPE),
        "paths": {"dt": 1e-4, "n_paths": N_PATHS, "seed": seed, "scheme": "wos-jump",
                  "sample_traces": 2, "probe": [0.3, 0.0]},
        "oracle": {"radial": True, "psor": False},
    }


def _cartesian_config(gain: dict, nodes: int, radial_oracle: bool, seed: int) -> dict:
    return {
        "gain": gain,
        "dim": 2,
        "grid": {"kind": "cartesian", "nodes": nodes},
        "envelope": dict(ENVELOPE),
        "paths": {"seed": seed},
        "oracle": {"radial": radial_oracle, "psor": True, "psor_omega": 1.9, "psor_tol": 1e-8},
    }


def _polar(rng: random.Random, r: float) -> list[float]:
    """A point at radius r in a seeded direction. Walk lengths depend on the
    radius, so fixing it keeps the work the same from seed to seed."""
    t = rng.uniform(0.0, 2.0 * math.pi)
    return [r * math.cos(t), r * math.sin(t)]


def radial_family(seed: int) -> list[dict]:
    rng = random.Random(seed)
    spike = {"kind": "spiked", "epsilon": rng.uniform(0.0235, 0.0245),
             "mollify": rng.uniform(0.0058, 0.0062), "gstar_margin": 0.25}
    # At 16384 nodes the refinement's cost falls steeply with epsilon past
    # 0.042 (1.8 s at 0.04, 0.55 s at 0.05); it is flat on this range.
    raw = {"kind": "spiked", "epsilon": rng.uniform(0.039, 0.041), "mollify": 0.0,
           "gstar_margin": 0.25}
    bump = {"kind": "radial-bump", "center_radius": rng.uniform(0.28, 0.32),
            "width": rng.uniform(0.14, 0.16), "gstar_margin": 0.25}
    return [
        {"id": "spike-mollified-4096", "kind": "radial", "seed": seed,
         "config": _radial_config(spike, 4096, seed),
         "ops": ["envelope", "balayage", "oracle", "reproduce"]},
        # The largest grid: the refinement's superlinear growth shows here.
        {"id": "spike-raw-16384", "kind": "radial", "seed": seed,
         "config": _radial_config(raw, 16384, seed), "ops": ["reproduce"]},
        {"id": "bump-2048", "kind": "radial", "seed": seed,
         "config": _radial_config(bump, 2048, seed),
         "ops": ["envelope", "balayage", "oracle"]},
    ]


def cartesian_disc(seed: int) -> list[dict]:
    rng = random.Random(seed)
    annulus = {"kind": "radial-bump", "center_radius": rng.uniform(0.295, 0.305),
               "width": rng.uniform(0.1475, 0.1525), "gstar_margin": 0.25}
    # The grid is symmetric under quarter turns, so the cap's seeded quarter
    # turn changes the input but not the work.
    turn = rng.randrange(4) * 0.5 * math.pi
    rho = rng.uniform(0.39, 0.41)
    cap = {"kind": "offset-bump", "center": [rho * math.cos(turn), rho * math.sin(turn)],
           "radius": rng.uniform(0.145, 0.155), "gstar_margin": 0.25}
    return [
        {"id": "annulus-129", "kind": "cartesian", "seed": seed,
         "config": _cartesian_config(annulus, 129, True, seed),
         "ops": ["envelope", "balayage", "oracle"]},
        {"id": "cap-97", "kind": "cartesian", "seed": seed,
         "config": _cartesian_config(cap, 97, False, seed),
         "ops": ["envelope", "balayage", "oracle"]},
    ]


def monte_carlo(seed: int) -> list[dict]:
    rng = random.Random(seed)
    spiked = {"kind": "spiked", "epsilon": 0.05, "mollify": 0.01, "gstar_margin": 0.25}
    cfg = _radial_config(spiked, 2048, seed)
    cfg["paths"]["probe"] = _polar(rng, 0.3)
    return [{
        "id": "spiked-ball-paths", "kind": "monte-carlo", "seed": seed, "config": cfg,
        "ops": ["envelope", "oracle", "paths-t1", "paths-t2",
                "optimality-0", "optimality-1", "grid-payoff-0", "grid-payoff-1"],
        "n_paths": N_PATHS,
        "fixed_time": 0.01,
        "optimality_probes": [_polar(rng, 0.1), _polar(rng, 0.3)],
        "grid_probes": [_polar(rng, 0.2), _polar(rng, 0.35)],
        "cap_gain": {"kind": "offset-bump", "center": [0.4, 0.0], "radius": 0.15,
                     "gstar_margin": 0.25},
        "cap_nodes": 257,
    }]


CASES = {"radial-family": radial_family, "cartesian-disc": cartesian_disc,
         "monte-carlo": monte_carlo}


def cases(workload: str, seed: int) -> list[dict]:
    return CASES[workload](seed)
