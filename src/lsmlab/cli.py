"""Config-driven experiment runner.

Subcommands: envelope, balayage, paths, oracle, reproduce spiked-ball,
selftest.  All outputs are CSV/JSON data files for external plotting; with a
fixed config and seed the emitted files are byte-identical across runs.

``parse_config`` reads a config once, into frozen specs whose fields are the
accepted keys with their defaults; commands take the parsed ``Config``, so an
unknown key or a bad value exits 2 before any solve.  ``RETIRED`` keys change
no result and are accepted only at their one value.  Likewise the
``--threads`` flag is accepted and changes nothing: ``paths`` runs its path
chunks one after another in one loop.

Exit codes: 0 ok, 2 config error, 3 incomplete, 4 structural error,
5 non-convergence; ``EXIT_TABLE`` maps exception classes to them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .envelope import (ConvergenceError, EnvelopeError, NoWitnessError, balayage_step,
                       build_branched_witness, gain_on_grid, iterate_envelopes,
                       unbranched_envelope)
from .gain import ConfigError, GainError, GainField, config_number, config_point, gain_from_config
from .geometry import GridRegion, save_mask_csv
from .grids import radial_grid, write_csv
from .harmonic import NonTerminationError, mc_estimate
from .majorant import MajorantError, dump_tree_json, matching_error
from .oracle import (OracleConvergenceError, cross_validate, psor_obstacle_solve,
                     radial_value_oracle)
from .pathsim import (PathConfig, StructuralError, run_algorithm1, run_algorithm1_batch,
                      trace_to_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INCOMPLETE = 3
EXIT_STRUCTURAL = 4
EXIT_NONCONVERGED = 5

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

# Nodes of a grid of each kind when grid.nodes is absent or set for the other kind.
NODES = {"radial": 2048, "cartesian": 257}


def _key(default, rng):
    """A spec field: its default and range (an interval, the accepted values, or prose)."""
    return field(default=default, metadata={"range": rng})


@dataclass(frozen=True)
class GridSpec:
    kind: str = _key("radial", ("radial", "cartesian"))
    nodes: int | None = _key(None, "[3, inf)")
    r_min: float = _key(1e-3, "(0, 1)")

    def nodes_of(self, kind: str) -> int:
        return self.nodes if kind == self.kind and self.nodes is not None else NODES[kind]

    def radii(self) -> np.ndarray:
        return radial_grid(self.nodes_of("radial"), self.r_min)


@dataclass(frozen=True)
class EnvelopeSpec:
    """The keyword arguments of ``iterate_envelopes``.  Its SOR solves choose
    their own relaxation factor, which sets only how fast they converge."""
    max_iter: int = _key(32, "[0, inf)")
    tol: float = _key(1e-9, "(0, inf)")
    contact_tol: float = _key(1e-9, "[0, inf)")


@dataclass(frozen=True)
class PathsSpec:
    n_paths: int = _key(10_000, "[0, inf)")
    seed: int = _key(0, "[0, inf)")
    sample_traces: int = _key(2, "[0, inf)")
    probe: tuple | None = _key(None, "closed unit ball")  # None: 0.3 on the first axis


@dataclass(frozen=True)
class OracleSpec:
    radial: bool = _key(False, (True, False))
    psor: bool = _key(False, (True, False))
    psor_tol: float = _key(1e-8, "(0, inf)")


BLOCKS = {"grid": GridSpec, "envelope": EnvelopeSpec, "paths": PathsSpec, "oracle": OracleSpec}

# Keys that change no result, with the one value each accepts, so that configs
# written while they were settable (the benchmark's among them) still parse.
# Each is the old default: SOR solves now choose their own relaxation factor,
# and the paths command runs walk-on-spheres jumps, which have no time step.
RETIRED = {"envelope.omega": 1.9, "oracle.psor_omega": 1.9,
           "paths.scheme": "wos-jump", "paths.dt": 1e-4}


@dataclass(frozen=True)
class Config:
    gain: GainField
    gain_kind: str
    gain_block: dict  # as written, for summary.json
    grid: GridSpec
    envelope: EnvelopeSpec
    paths: PathsSpec  # its seed is the --seed override, if given
    oracle: OracleSpec


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


def _read(spec, key: str, value, name: str):
    """A value of a spec's key, checked against the key's type and range."""
    f = next((f for f in fields(spec) if f.name == key), None)
    if f is None:
        raise ConfigError(f"unknown key {key!r} in the {name.partition('.')[0]} block")
    rng = f.metadata["range"]
    if f.type == "tuple | None":
        return config_point(value, name)
    if isinstance(rng, tuple):  # the accepted values of a bool or str key
        if not (isinstance(value, type(f.default)) and value in rng):
            raise ConfigError(f"{name} must be one of {', '.join(map(json.dumps, rng))}, "
                              f"got {value!r}")
        return value
    return config_number(value, name, rng, integral=f.type in ("int", "int | None"))


def _retired(name: str, value) -> bool:
    """Whether ``name`` is a retired key at its accepted value; raises at any other."""
    if name not in RETIRED:
        return False
    accepted = RETIRED[name]
    if not (type(value) is type(accepted) and value == accepted):
        raise ConfigError(f"{name} has no effect and accepts only {json.dumps(accepted)}, "
                          f"got {value!r}")
    return True


def parse_config(raw, seed: int | None = None) -> Config:
    """The typed config: unknown keys rejected, retired keys checked and dropped,
    each value read by its key's type and range, then the gain built and ``dim``
    and the probe checked against it.
    ``seed``, if given, overrides ``paths.seed``."""
    if not (isinstance(raw, dict)
            and all(isinstance(raw.get(block, {}), dict) for block in ("gain", *BLOCKS))):
        raise ConfigError("a config and each of its blocks must be a JSON object")
    for key in raw:
        if key not in {"gain", "dim", *BLOCKS}:
            raise ConfigError(f"unknown top-level key {key!r}")
    specs = {block: spec(**{key: _read(spec, key, value, f"{block}.{key}")
                            for key, value in raw.get(block, {}).items()
                            if not _retired(f"{block}.{key}", value)})
             for block, spec in BLOCKS.items()}
    paths = specs.pop("paths")
    if seed is not None:
        paths = replace(paths, seed=_read(PathsSpec, "seed", seed, "--seed"))
    gain_block = raw.get("gain", {})
    gain = gain_from_config(gain_block)
    if "dim" in raw and config_number(raw["dim"], "dim", integral=True) != gain.dim:
        raise ConfigError(f"top-level dim {raw['dim']} disagrees with gain.dim {gain.dim}")
    probe = (0.3,) + (0.0,) * (gain.dim - 1) if paths.probe is None else paths.probe
    if len(probe) != gain.dim or not np.linalg.norm(probe) <= 1.0:
        raise ConfigError(f"paths.probe must be a point of the closed unit ball of dimension "
                          f"{gain.dim}, got {list(probe)!r}")
    return Config(gain=gain, gain_kind=gain_block["kind"], gain_block=gain_block,
                  paths=replace(paths, probe=probe), **specs)


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


def _run_envelope(cfg: Config):
    grid = cfg.grid.radii() if cfg.grid.kind == "radial" else cfg.grid.nodes_of("cartesian")
    return iterate_envelopes(cfg.gain, unbranched_envelope(cfg.gain, grid),
                             **asdict(cfg.envelope))


def cmd_envelope(cfg: Config, out: Path) -> int:
    seq = _run_envelope(cfg)
    seq.run.field.to_csv(out / "w1.csv")
    for k, (fld, contact) in enumerate(zip(seq.levels, seq.contacts)):
        if fld is seq.run.field:
            # Level 0 is w1 itself: copy its bytes rather than format them again.
            shutil.copyfile(out / "w1.csv", out / f"env_level_{k:03d}.csv")
        else:
            fld.to_csv(out / f"env_level_{k:03d}.csv")
        _contact_csv(contact, fld, out / f"contact_{k:03d}.csv")
    summary = {
        "converged": seq.converged,
        "levels": seq.summary,
        "class_lipschitz": seq.run.class_lipschitz,
        "gain": cfg.gain_block,
        "seed": cfg.paths.seed,
    }
    _write_json(out / "summary.json", summary)
    if not seq.converged and len(seq.levels) > 1:
        print("envelope iteration did not converge within max_iter", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_balayage(cfg: Config, out: Path) -> int:
    seq = _run_envelope(cfg)
    rows = []
    for k, (fld, contact) in enumerate(zip(seq.levels, seq.contacts)):
        bal = balayage_step(fld, contact)
        bal.to_csv(out / f"balayage_{k:03d}.csv")
        gap = fld.values - bal.values
        rows.append({"level": k, "max_gap": float(np.max(gap)),
                     "mean_gap": float(np.mean(gap))})
    _write_json(out / "balayage_summary.json", {"levels": rows, "seed": cfg.paths.seed})
    return EXIT_OK


def cmd_oracle(cfg: Config, out: Path) -> int:
    gain, want_radial, want_psor = cfg.gain, cfg.oracle.radial, cfg.oracle.psor
    if not (want_radial or want_psor):
        print("no oracle enabled in config", file=sys.stderr)
        return EXIT_INCOMPLETE
    # Both oracles' requirements are checked before either one runs.
    if want_radial and not gain.radial:
        raise ConfigError("radial oracle requested for a non-radial gain")
    if want_psor and gain.dim != 2:
        raise ConfigError("the PSOR oracle needs gain.dim 2")
    if want_radial:
        radial_prof = radial_value_oracle(gain, gain.dim, cfg.grid.radii())
        radial_prof.to_csv(out / "oracle_radial.csv")
    if want_psor:
        psor_fld = psor_obstacle_solve(gain, n=cfg.grid.nodes_of("cartesian"),
                                       tol=cfg.oracle.psor_tol)
        psor_fld.to_csv(out / "oracle_psor.csv")
    if want_radial and want_psor:
        _write_json(out / "oracle_crosscheck.json", cross_validate(psor_fld, radial=radial_prof))
    return EXIT_OK


def cmd_reproduce_spiked_ball(cfg: Config, out: Path) -> int:
    if cfg.gain_kind != "spiked":
        raise ConfigError("the reproduce target needs the spiked radial preset")
    if cfg.grid.kind != "radial":
        raise ConfigError(f"reproduce spiked-ball needs a radial grid, got grid.kind "
                          f"{cfg.grid.kind!r}")
    if not cfg.oracle.radial:
        _write_json(out / "verdict.json", {"verdict": "INCOMPLETE",
                                           "reason": "radial oracle disabled in config"})
        return EXIT_INCOMPLETE
    gain = cfg.gain
    seq = _run_envelope(cfg)
    fld = seq.run.field
    radii = fld.radii
    contact1 = seq.contacts[0]
    wbar1 = balayage_step(fld, contact1)
    oracle_prof = radial_value_oracle(gain, gain.dim, radii)

    write_csv(out / "cross_section.csv",
              "r in unit-ball lengths; gain, envelopes and value in payoff units",
              ["r", "g", "w1", "wbar1", "V"],
              radii, gain_on_grid(gain, fld), fld.values, wbar1.values, oracle_prof.values)

    # Gap between the unbranched envelope and its balayage on the spike's
    # annular component, and the Harnack-predicted non-contact annulus.
    d = gain.dim
    harnack_r = ((5.0 / 4.0) ** (1.0 / d) - 1.0) / ((5.0 / 4.0) ** (1.0 / d) + 1.0)
    spike_edge_idx = np.nonzero(contact1.contact_mask & (radii < 0.25))[0]
    spike_edge = float(radii[spike_edge_idx[-1]]) if spike_edge_idx.size else float(radii[0])
    band = (radii > spike_edge) & (radii <= harnack_r)
    annulus_ok = bool(band.any() and np.all(contact1.noncontact_mask[band]))
    band_labels = contact1.labels[band][contact1.labels[band] > 0]
    comp_label = int(band_labels[0]) if band_labels.size else None
    margin = fld.values - wbar1.values
    if comp_label is not None:
        comp_nodes = contact1.labels == comp_label
        frac = float(np.mean(margin[comp_nodes] > 1e-3))
        max_margin = float(np.max(margin[comp_nodes]))
    else:
        frac, max_margin = 0.0, 0.0
    sup_err = float(np.max(np.abs(seq.levels[-1].values - oracle_prof.values)))
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
        "seed": cfg.paths.seed,
    }
    _write_json(out / "verdict.json", payload)
    print(f"reproduce spiked-ball: {verdict} "
          f"(gap max {max_margin:.3g}, limit-vs-oracle sup {sup_err:.3g})")
    return EXIT_OK if verdict == "PASS" else (EXIT_NONCONVERGED if not seq.converged
                                              else EXIT_INCOMPLETE)


def cmd_paths(cfg: Config, out: Path) -> int:
    gain, n_paths, probe = cfg.gain, cfg.paths.n_paths, np.asarray(cfg.paths.probe)
    pcfg = PathConfig(seed=cfg.paths.seed)
    seq = _run_envelope(cfg)
    if not seq.converged:
        print("envelope run did not converge; paths need converged artifacts", file=sys.stderr)
        return EXIT_NONCONVERGED
    witness = build_branched_witness(seq, len(seq.levels) - 1, probe)
    dump_tree_json(witness, out / "witness_tree.json")

    traces_dir = out / "traces"
    traces_dir.mkdir(exist_ok=True)
    for k in range(cfg.paths.sample_traces):
        rec = run_algorithm1(witness, probe, pcfg, path_index=k)
        trace_to_csv(rec, traces_dir / f"trace_{k:03d}.csv")

    if n_paths == 0:
        _write_json(out / "excessivity.json", {"runs": 0, "note": "no paths requested"})
        return EXIT_OK
    # Fixed-size chunks, each drawing from its own streams: chunk k's rows do
    # not depend on the other chunks.  Each chunk writes its final points into
    # its rows of one array and keeps only its termination tally, so no path's
    # result is held twice.
    chunk = 4096
    finals = np.empty((n_paths, probe.shape[0]))
    tally = Counter()
    for k in range((n_paths + chunk - 1) // chunk):
        rows = slice(k * chunk, min((k + 1) * chunk, n_paths))
        finals[rows], terms = run_algorithm1_batch(witness, probe, rows.stop - rows.start,
                                                   pcfg, stream_key=k)
        tally.update(terms)
    mean, sem = mc_estimate(gain(finals))
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
        "terminations": {t: tally[t] for t in sorted(tally)},
        "seed": cfg.paths.seed,
    }
    _write_json(out / "excessivity.json", report)
    return EXIT_OK


def cmd_selftest() -> int:
    """Fast internal consistency checks; prints one line per check."""
    from .gain import spiked_gain, mollify
    from .geometry import Ball, Intersection, hausdorff_distance, boundary_samples
    from .harmonic import BoundaryData, poisson_ball_eval, wos_exit_batch, wos_harmonic_eval
    from .grids import upper_concave_hull
    from .rng import stream

    ok = True

    def check(name: str, passed: bool):
        nonlocal ok
        ok = ok and passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name}")

    v = poisson_ball_eval(np.zeros(2), 1.0, BoundaryData(lambda p: p[:, 0]),
                          np.array([0.3, 0.0]))
    check("poisson closed form h(0.3,0)=0.3", abs(v - 0.3) < 1e-8)

    mean, sem = wos_harmonic_eval(Ball((0.0, 0.0), 1.0), BoundaryData(lambda p: p[:, 0]),
                                  np.array([0.3, 0.0]), stream(1, 0), n=20_000)
    check("exact disc exits match Poisson within 4 sigma", abs(mean - 0.3) <= 4 * sem + 1e-9)

    lens = Intersection((Ball((0.0, 0.0), 0.8), Ball((0.4, 0.3), 0.6)))
    mean, sem = mc_estimate(wos_exit_batch(lens, np.array([0.3, 0.2]), stream(1, 0),
                                           n=20_000)[:, 0])
    check("walk-on-spheres exit mean on a lens within 4 sigma", abs(mean - 0.3) <= 4 * sem)

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
    # Kept only while scripts (the benchmark's among them) still pass it.
    parser.add_argument("--threads", type=int, default=1,
                        help="has no effect; accepted for old scripts and to be removed")
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
        return cmd_selftest()

    commands = {"envelope": cmd_envelope, "balayage": cmd_balayage, "oracle": cmd_oracle,
                "paths": cmd_paths, "reproduce": cmd_reproduce_spiked_ball}
    try:
        raw = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return commands[args.command](parse_config(raw, args.seed), out)
    except tuple(cls for classes, _, _ in EXIT_TABLE for cls in classes) as exc:
        code, label = next((code, label) for classes, code, label in EXIT_TABLE
                           if isinstance(exc, classes))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
