"""Config-driven experiment runner.

Subcommands: envelope, balayage, paths, oracle, reproduce spiked-ball,
selftest.  All outputs are CSV/JSON data files for external plotting; with a
fixed config and seed the emitted files are byte-identical across runs.

Exit codes: 0 ok, 2 config error, 3 incomplete, 4 structural error,
5 non-convergence; ``EXIT_TABLE`` maps exception classes to them.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path

import numpy as np

from .envelope import (ConvergenceError, EnvelopeError, NoWitnessError, balayage_step,
                       build_branched_witness, gain_on_grid, iterate_envelopes,
                       unbranched_envelope)
from .gain import GainError, GainField, gain_from_config
from .geometry import GridRegion, save_mask_csv
from .grids import radial_grid, write_csv
from .harmonic import NonTerminationError
from .majorant import MajorantError, dump_tree_json, matching_error
from .oracle import (OracleConvergenceError, cross_validate, psor_obstacle_solve,
                     radial_value_oracle)
from .pathsim import (PathConfig, PathError, StructuralError, run_algorithm1,
                      run_algorithm1_batch, trace_to_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INCOMPLETE = 3
EXIT_STRUCTURAL = 4
EXIT_NONCONVERGED = 5


class ConfigError(ValueError):
    pass


# Exception classes to exit codes, most specific first: ConvergenceError and
# NoWitnessError are EnvelopeErrors, which otherwise count as structural.
# Errors outside the table are faults of the program and keep their traceback.
EXIT_TABLE = (
    ((ConvergenceError, OracleConvergenceError, NonTerminationError), EXIT_NONCONVERGED,
     "non-convergence"),
    ((NoWitnessError,), EXIT_INCOMPLETE, "incomplete"),
    ((StructuralError, MajorantError, EnvelopeError), EXIT_STRUCTURAL, "structural error"),
    ((ConfigError, GainError), EXIT_CONFIG, "config error"),
)

# Accepted keys of the top level and of each block; the gain block is checked
# by ``gain_from_config``.
CONFIG_KEYS = {
    "grid": {"kind", "nodes", "r_min"},
    "envelope": {"max_iter", "tol", "contact_tol", "omega"},
    "paths": {"dt", "n_paths", "seed", "scheme", "sample_traces", "probe"},
    "oracle": {"radial", "psor", "psor_omega", "psor_tol"},
}
TOP_LEVEL_KEYS = {"gain", "dim", *CONFIG_KEYS}


def load_config(name_or_path: str) -> dict:
    """Read a config file path or a named preset."""
    path = Path(name_or_path)
    try:
        if path.exists():
            return json.loads(path.read_text())
        candidate = resources.files("lsmlab.presets").joinpath(f"{name_or_path}.json")
        if candidate.is_file():
            return json.loads(candidate.read_text())
    except ValueError as exc:  # malformed JSON or text
        raise ConfigError(f"{name_or_path}: {exc}") from None
    raise ConfigError(f"config {name_or_path!r} is neither a file nor a known preset")


def check_config(cfg) -> None:
    """Reject a config that is not an object, or that has an unknown key or block."""
    if not isinstance(cfg, dict):
        raise ConfigError("a config must be a JSON object")
    for key in cfg:
        if key not in TOP_LEVEL_KEYS:
            raise ConfigError(f"unknown top-level key {key!r}")
    for block in ("gain", *CONFIG_KEYS):
        if not isinstance(cfg.get(block, {}), dict):
            raise ConfigError(f"the {block} block must be a JSON object")
    for block, keys in CONFIG_KEYS.items():
        for key in cfg.get(block, {}):
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in the {block} block")


def _number(cfg: dict, block: str, key: str, default, cast=float):
    """cfg[block][key] converted by cast, or the default when absent."""
    value = cfg.get(block, {}).get(key, default)
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{block}.{key} must be a number, got {value!r}") from None


def _omega(cfg: dict, block: str, key: str, default: float) -> float:
    """A relaxation factor cfg[block][key], which must lie in (0, 2)."""
    omega = _number(cfg, block, key, default)
    if not 0.0 < omega < 2.0:
        raise ConfigError(f"{block}.{key} must lie in (0, 2), got {omega}")
    return omega


def _radial_grid(nodes: int, r_min: float) -> np.ndarray:
    try:
        return radial_grid(nodes, r_min)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from None


def _grid_from_config(cfg: dict):
    kind = cfg.get("grid", {}).get("kind", "radial")
    if kind == "radial":
        return _radial_grid(_number(cfg, "grid", "nodes", 2048, int),
                            _number(cfg, "grid", "r_min", 1e-3))
    if kind == "cartesian":
        nodes = _number(cfg, "grid", "nodes", 257, int)
        if nodes < 3:
            raise ConfigError("grid: a cartesian grid needs at least 3 nodes per side")
        return nodes
    raise ConfigError(f"unknown grid kind {kind!r}")


def _gain_from_config(cfg: dict) -> GainField:
    """The config's gain; a top-level ``dim``, if given, must be the gain's."""
    gain = gain_from_config(cfg.get("gain", {}))
    if "dim" in cfg and cfg["dim"] != gain.dim:
        raise ConfigError(f"top-level dim {cfg['dim']} disagrees with the gain's dim "
                          f"{gain.dim}; set gain.dim instead")
    return gain


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _contact_csv(contact, fld, path: Path) -> None:
    if fld.kind == "radial":
        write_csv(path, "r in unit-ball lengths, contact flag 0/1", ["r", "contact"],
                  fld.radii, contact.contact_mask.astype(int))
    else:
        save_mask_csv(GridRegion(mask=contact.contact_mask, spacing=fld.spacing), path)


def _run_envelope(cfg: dict, gain: GainField):
    grid = _grid_from_config(cfg)
    settings = dict(max_iter=_number(cfg, "envelope", "max_iter", 32, int),
                    tol=_number(cfg, "envelope", "tol", 1e-9),
                    contact_tol=_number(cfg, "envelope", "contact_tol", 1e-9),
                    omega=_omega(cfg, "envelope", "omega", 1.9))
    return iterate_envelopes(gain, unbranched_envelope(gain, grid), **settings)


def cmd_envelope(cfg: dict, out: Path, seed: int, threads: int) -> int:
    seq = _run_envelope(cfg, _gain_from_config(cfg))
    seq.run.field.to_csv(out / "w1.csv")
    for k, (fld, contact) in enumerate(zip(seq.levels, seq.contacts)):
        fld.to_csv(out / f"env_level_{k:03d}.csv")
        _contact_csv(contact, fld, out / f"contact_{k:03d}.csv")
    summary = {
        "converged": seq.converged,
        "levels": seq.summary,
        "class_lipschitz": seq.run.class_lipschitz,
        "gain": cfg.get("gain", {}),
        "seed": seed,
    }
    _write_json(out / "summary.json", summary)
    if not seq.converged and len(seq.levels) > 1:
        print("envelope iteration did not converge within max_iter", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_balayage(cfg: dict, out: Path, seed: int, threads: int) -> int:
    gain = _gain_from_config(cfg)
    seq = _run_envelope(cfg, gain)
    rows = []
    for k, (fld, contact) in enumerate(zip(seq.levels, seq.contacts)):
        bal = balayage_step(fld, contact, gain)
        bal.to_csv(out / f"balayage_{k:03d}.csv")
        gap = fld.values - bal.values
        rows.append({"level": k, "max_gap": float(np.max(gap)),
                     "mean_gap": float(np.mean(gap))})
    _write_json(out / "balayage_summary.json", {"levels": rows, "seed": seed})
    return EXIT_OK


def cmd_oracle(cfg: dict, out: Path, seed: int, threads: int) -> int:
    gain = _gain_from_config(cfg)
    ocfg = cfg.get("oracle", {})
    want_radial, want_psor = ocfg.get("radial", False), ocfg.get("psor", False)
    if not (want_radial or want_psor):
        print("no oracle enabled in config", file=sys.stderr)
        return EXIT_INCOMPLETE
    # Both oracles' settings are checked before either one runs.
    if want_radial:
        if not gain.radial:
            print("radial oracle requested for a non-radial gain", file=sys.stderr)
            return EXIT_CONFIG
        if gain.dim not in (2, 3):
            raise ConfigError("the radial oracle supports gain.dim 2 and 3")
        if cfg.get("grid", {}).get("kind", "radial") == "radial":
            radii = _grid_from_config(cfg)
        else:
            radii = _radial_grid(2048, _number(cfg, "grid", "r_min", 1e-3))
    if want_psor:
        if gain.dim != 2:
            raise ConfigError("the PSOR oracle needs gain.dim 2")
        n = _grid_from_config(cfg) if cfg.get("grid", {}).get("kind") == "cartesian" else 257
        omega = _omega(cfg, "oracle", "psor_omega", 1.7)
        tol = _number(cfg, "oracle", "psor_tol", 1e-8)
    if want_radial:
        radial_prof = radial_value_oracle(gain, gain.dim, radii)
        radial_prof.to_csv(out / "oracle_radial.csv")
    if want_psor:
        psor_fld = psor_obstacle_solve(gain, n=n, omega=omega, tol=tol)
        psor_fld.to_csv(out / "oracle_psor.csv")
    if want_radial and want_psor:
        _write_json(out / "oracle_crosscheck.json", cross_validate(psor_fld, radial=radial_prof))
    return EXIT_OK


def cmd_reproduce_spiked_ball(cfg: dict, out: Path, seed: int, threads: int) -> int:
    gain_cfg = cfg.get("gain", {})
    if gain_cfg.get("kind") != "spiked":
        print("the reproduce target needs the spiked radial preset", file=sys.stderr)
        return EXIT_CONFIG
    if not cfg.get("oracle", {}).get("radial", False):
        _write_json(out / "verdict.json", {"verdict": "INCOMPLETE",
                                           "reason": "radial oracle disabled in config"})
        return EXIT_INCOMPLETE
    gain = _gain_from_config(cfg)
    seq = _run_envelope(cfg, gain)
    fld = seq.run.field
    radii = fld.radii
    contact1 = seq.contacts[0]
    wbar1 = balayage_step(fld, contact1, gain)
    oracle_prof = radial_value_oracle(gain, gain.dim, radii)
    gvals = gain_on_grid(gain, fld)

    write_csv(out / "cross_section.csv",
              "r in unit-ball lengths; gain, envelopes and value in payoff units",
              ["r", "g", "w1", "wbar1", "V"],
              radii, gvals, fld.values, wbar1.values, oracle_prof.values)

    # Gap between the unbranched envelope and its balayage on the spike's
    # annular component, and the Harnack-predicted non-contact annulus.
    d = gain.dim
    harnack_r = ((5.0 / 4.0) ** (1.0 / d) - 1.0) / ((5.0 / 4.0) ** (1.0 / d) + 1.0)
    spike_edge_idx = np.nonzero(contact1.contact_mask & (radii < 0.25))[0]
    spike_edge = float(radii[spike_edge_idx[-1]]) if spike_edge_idx.size else float(radii[0])
    band = (radii > spike_edge) & (radii <= harnack_r)
    annulus_ok = bool(band.any() and np.all(contact1.noncontact_mask[band]))
    comp_label = None
    for i in np.nonzero(band)[0]:
        if contact1.labels[i] > 0:
            comp_label = int(contact1.labels[i])
            break
    margin = fld.values - wbar1.values
    if comp_label is not None:
        comp_nodes = contact1.labels == comp_label
        frac = float(np.mean(margin[comp_nodes] > 1e-3))
        max_margin = float(np.max(margin[comp_nodes]))
    else:
        frac, max_margin = 0.0, 0.0
    limit = seq.levels[-1]
    sup_err = float(np.max(np.abs(limit.values - oracle_prof.values)))
    gap_ok = frac >= 0.10
    oracle_ok = sup_err <= 1e-3 and seq.converged
    verdict = "PASS" if (annulus_ok and gap_ok and oracle_ok) else "FAIL"
    if not gap_ok and max_margin <= 1e-3:
        verdict = "NO-GAP"
    payload = {
        "verdict": verdict,
        "harnack_radius": harnack_r,
        "spike_contact_edge": spike_edge,
        "annulus_nodes_checked": int(band.sum()),
        "annulus_noncontact": annulus_ok,
        "balayage_gap_fraction": frac,
        "balayage_gap_max": max_margin,
        "limit_vs_oracle_sup": sup_err,
        "converged": seq.converged,
        "seed": seed,
    }
    _write_json(out / "verdict.json", payload)
    print(f"reproduce spiked-ball: {verdict} "
          f"(gap max {max_margin:.3g}, limit-vs-oracle sup {sup_err:.3g})")
    return EXIT_OK if verdict == "PASS" else (EXIT_NONCONVERGED if not seq.converged
                                              else EXIT_INCOMPLETE)


def cmd_paths(cfg: dict, out: Path, seed: int, threads: int) -> int:
    gain = _gain_from_config(cfg)
    pcfg_block = cfg.get("paths", {})
    n_paths = _number(cfg, "paths", "n_paths", 10_000, int)
    if n_paths < 0:
        raise ConfigError(f"paths.n_paths must be nonnegative, got {n_paths}")
    raw_probe = pcfg_block.get("probe", [0.3, 0.0])
    try:
        probe = np.asarray(raw_probe, dtype=float)
    except (TypeError, ValueError):
        probe = None
    if probe is None or probe.shape != (gain.dim,) or not np.linalg.norm(probe) <= 1.0:
        raise ConfigError(f"paths.probe must be a point of the closed unit ball, "
                          f"got {raw_probe!r}")
    scheme = pcfg_block.get("scheme", "wos-jump")
    if scheme != "wos-jump":
        raise ConfigError(f"paths.scheme must be 'wos-jump' (the only scheme of the paths "
                          f"command), got {scheme!r}")
    try:
        pcfg = PathConfig(dt=_number(cfg, "paths", "dt", 1e-4), seed=seed)
    except PathError as exc:
        raise ConfigError(f"paths: {exc}") from None
    n_traces = _number(cfg, "paths", "sample_traces", 2, int)

    seq = _run_envelope(cfg, gain)
    if not seq.converged:
        print("envelope run did not converge; paths need converged artifacts", file=sys.stderr)
        return EXIT_NONCONVERGED
    witness = build_branched_witness(seq, len(seq.levels) - 1, probe)
    dump_tree_json(witness, out / "witness_tree.json")

    traces_dir = out / "traces"
    traces_dir.mkdir(exist_ok=True)
    for k in range(n_traces):
        rec = run_algorithm1(witness, probe, pcfg, path_index=k)
        trace_to_csv(rec, traces_dir / f"trace_{k:03d}.csv")

    if n_paths == 0:
        _write_json(out / "excessivity.json", {"runs": 0, "note": "no paths requested"})
        return EXIT_OK
    # Fixed-size chunks with per-chunk streams: results are byte-identical for
    # any thread count, and chunks can run concurrently.
    chunk = 4096
    jobs = [(k, min(chunk, n_paths - k * chunk)) for k in range((n_paths + chunk - 1) // chunk)]
    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        parts = list(pool.map(
            lambda job: run_algorithm1_batch(witness, probe, job[1], pcfg, stream_key=job[0]),
            jobs))
    finals = np.concatenate([p[0] for p in parts], axis=0)
    terms = [t for p in parts for t in p[1]]
    payoffs = gain(finals)
    mean = float(np.mean(payoffs))
    sem = float(np.std(payoffs, ddof=1) / np.sqrt(n_paths))
    delta, norm = matching_error(witness)
    bound = float(witness.value(probe)) + max(norm, witness.error_bound)
    report = {
        "runs": n_paths,
        "mean_payoff": mean,
        "std_error": sem,
        "patch_value": float(witness.value(probe)),
        "matching_norm": norm,
        "error_bound": witness.error_bound,
        "bound": bound,
        "excessive": bool(mean <= bound + 3.0 * sem),
        "terminations": {t: terms.count(t) for t in sorted(set(terms))},
        "seed": seed,
    }
    _write_json(out / "excessivity.json", report)
    return EXIT_OK


def cmd_selftest(threads: int) -> int:
    """Fast internal consistency checks; prints one line per check."""
    from .gain import spiked_gain, mollify
    from .geometry import Ball, hausdorff_distance, boundary_samples
    from .harmonic import BoundaryData, WosConfig, poisson_ball_eval, wos_harmonic_eval
    from .grids import upper_concave_hull

    ok = True

    def check(name: str, passed: bool):
        nonlocal ok
        ok = ok and passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name}")

    v = poisson_ball_eval(np.zeros(2), 1.0, BoundaryData(lambda p: p[:, 0]),
                          np.array([0.3, 0.0]))
    check("poisson closed form h(0.3,0)=0.3", abs(v - 0.3) < 1e-8)

    mean, sem = wos_harmonic_eval(Ball((0.0, 0.0), 1.0), BoundaryData(lambda p: p[:, 0]),
                                  np.array([0.3, 0.0]), WosConfig(walks=20_000, seed=1))
    check("walk-on-spheres matches Poisson within 4 sigma", abs(mean - 0.3) <= 4 * sem + 1e-9)

    xs = np.linspace(-3.0, 0.0, 200)
    ys = np.sin(xs) + 1.0
    hx, hy = upper_concave_hull(xs, ys)
    hull = np.interp(xs, hx, hy)
    check("concave hull dominates data", bool(np.all(hull >= ys - 1e-12)))
    check("concave hull is concave", bool(np.all(np.diff(hull, 2) <= 1e-9)))

    a = boundary_samples(Ball((0.0, 0.0), 1.0), 360)
    b = boundary_samples(Ball((0.0, 0.0), 0.9), 360)
    check("hausdorff of concentric circles", abs(hausdorff_distance(a, b) - 0.1) < 2e-3)

    g = mollify(spiked_gain(0.05), 0.01)
    check("mollified spike keeps max 1", abs(g.max_gain - 1.0) < 1e-9)
    return EXIT_OK if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lsmlab",
        description="Envelope, balayage, path and oracle experiments for "
                    "optimal stopping on the unit ball")
    parser.add_argument("--config", default="spiked-ball",
                        help="config file path or preset name (default: spiked-ball)")
    parser.add_argument("--out", default="lsmlab-out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for batches")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("envelope", help="compute the envelope sequence and contact masks")
    sub.add_parser("balayage", help="emit the balayage diagnostic per level")
    sub.add_parser("paths", help="build a witness and run the pathwise extension")
    sub.add_parser("oracle", help="run the enabled oracles")
    rep = sub.add_parser("reproduce", help="rerun a canned experiment")
    rep.add_argument("target", choices=["spiked-ball"])
    sub.add_parser("selftest", help="fast internal consistency checks")

    args = parser.parse_args(argv)
    if args.command == "selftest":
        return cmd_selftest(args.threads)

    commands = {"envelope": cmd_envelope, "balayage": cmd_balayage, "oracle": cmd_oracle,
                "paths": cmd_paths, "reproduce": cmd_reproduce_spiked_ball}
    try:
        cfg = load_config(args.config)
        check_config(cfg)
        seed = args.seed if args.seed is not None else _number(cfg, "paths", "seed", 0, int)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return commands[args.command](cfg, out, seed, args.threads)
    except tuple(cls for classes, _, _ in EXIT_TABLE for cls in classes) as exc:
        code, label = next((code, label) for classes, code, label in EXIT_TABLE
                           if isinstance(exc, classes))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
