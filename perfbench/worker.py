"""Run one benchmark case in a fresh interpreter.

    python3 perfbench/worker.py CASE_JSON RESULT_JSON

run.py writes the case file: the lsmlab source tree to import, the config,
the operations, an output directory and whether to trace. The worker sets
up (imports, config file, Monte Carlo rule inputs), runs each operation and
times it, then checks the outputs outside the timed region. The result file
holds, per operation, its time, whether it passed, and a sha256 of its
outputs; plus the time set-up ended, peak memory, the guard counts read from
the outputs and, when traced, every span.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

METRIC = {"envelope": "envelope_s", "balayage": "balayage_s", "oracle": "oracle_s",
          "reproduce": "reproduce_s", "paths-t1": "paths_t1_s", "paths-t2": "paths_t2_s",
          "optimality": "stopping_s", "grid-payoff": "stopping_s"}

RADIAL_TOL = 1e-3      # refinement limit against the radial oracle (AC-4)
PSOR_TOL = 5e-3        # refinement limit against projected SOR (AC-4)
SIGMAS = 3.0           # Monte Carlo band (AC-5)


def op_kind(name: str) -> str:
    """``optimality-1`` -> ``optimality``; ``paths-t2`` stays as it is."""
    head, _, tail = name.rpartition("-")
    return head if tail.isdigit() else name


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def digest_value(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def read_values(path: Path):
    """Value column of a field CSV written by lsmlab (comment line, header)."""
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)[:, -1]


def last_level(out: Path) -> Path:
    return sorted(out.glob("env_level_*.csv"))[-1]


class Case:
    def __init__(self, spec: dict):
        self.spec = spec
        self.out = Path(spec["out"])
        self.trace = bool(spec["trace"])
        from lsmlab import cli
        import tracing
        self.cli = cli
        self.rec = tracing.Recorder()
        self.rec.case = spec["id"]
        self.psor_fields: list = []
        if self.trace:
            tracing.install(self.rec)
            self._capture_psor()
        self.guards = {"levels": 0, "noncontact_nodes": 0, "paths": 0, "terms": {},
                       "limit_sup": 0.0, "psor_residual": 0.0}

    def _capture_psor(self) -> None:
        """Keep each PSOR field so its residual can be taken after timing."""
        inner = self.cli.psor_obstacle_solve

        def capture(gain, *args, **kwargs):
            fld = inner(gain, *args, **kwargs)
            self.psor_fields.append((gain, fld))
            return fld
        self.cli.psor_obstacle_solve = capture

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        self.config = self.out / "config.json"
        self.config.write_text(json.dumps(self.spec["config"], indent=2, sort_keys=True))
        if self.spec["kind"] == "monte-carlo":
            self._setup_rules()

    def _setup_rules(self) -> None:
        """Rule inputs: the spiked-ball refinement limit and its radial oracle,
        and the contact set of the Cartesian w1 of the cap gain."""
        from lsmlab.envelope import contact_set, iterate_envelopes, unbranched_envelope
        from lsmlab.gain import gain_from_config
        from lsmlab.grids import radial_grid
        from lsmlab.oracle import radial_value_oracle
        from lsmlab.pathsim import ContactHit
        spec, cfg = self.spec, self.spec["config"]
        self.gain = gain_from_config(cfg["gain"])
        radii = radial_grid(cfg["grid"]["nodes"], cfg["grid"]["r_min"])
        env = cfg["envelope"]
        seq = iterate_envelopes(self.gain, unbranched_envelope(self.gain, radii),
                                max_iter=env["max_iter"], tol=env["tol"],
                                contact_tol=env["contact_tol"])
        if not seq.converged:
            raise RuntimeError("spiked-ball refinement did not converge")
        self.oracle = radial_value_oracle(self.gain, cfg["dim"], radii)
        self.guards["limit_sup"] = float(np.max(np.abs(seq.levels[-1].values
                                                       - self.oracle.values)))
        self.rule = ContactHit(contact=seq.contacts[-1], grid=seq.levels[-1])
        self.cap = gain_from_config(spec["cap_gain"])
        self.cap_w1 = unbranched_envelope(self.cap, spec["cap_nodes"]).field
        self.cap_rule = ContactHit(contact=contact_set(self.cap_w1, self.cap), grid=self.cap_w1)

    # -- operations --------------------------------------------------------

    def run(self, name: str) -> dict:
        kind = op_kind(name)
        op = {"name": name, "metric": METRIC[kind], "ok": True, "error": None,
              "span": None, "value": None}
        out = self.out / name
        out.mkdir()
        if kind in ("optimality", "grid-payoff"):
            fn, args, label = self._api(kind, int(name.rpartition("-")[2]))
        else:
            command = ["reproduce", "spiked-ball"] if kind == "reproduce" else [kind.split("-")[0]]
            threads = "2" if kind == "paths-t2" else "1"
            args = (["--config", str(self.config), "--out", str(out),
                     "--seed", str(self.spec["seed"]), "--threads", threads, *command],)
            fn, label = self.cli.main, f"cli.{command[0]}"
        start = time.perf_counter()
        try:
            if self.trace:
                result, op["span"] = self.rec.operation(label, fn, *args)
            else:
                result = fn(*args)
        except Exception as exc:  # an operation that raises is a failed operation
            op["seconds"] = time.perf_counter() - start
            return self._fail(op, f"{type(exc).__name__}: {exc}")
        op["seconds"] = time.perf_counter() - start
        if fn is self.cli.main:
            if result != 0:
                return self._fail(op, f"exit code {result}")
            op["digest"] = digest_dir(out)
        else:
            op["value"] = result
            op["digest"] = digest_value(result)
        return op

    def _api(self, kind: str, k: int):
        from lsmlab import pathsim
        from lsmlab.geometry import Annulus, Ball
        spec = self.spec
        cfg = pathsim.PathConfig(seed=spec["seed"])
        n = spec["n_paths"]
        if kind == "optimality":
            x = spec["optimality_probes"][k]
            rivals = [pathsim.FixedTime(0.0), pathsim.FixedTime(spec["fixed_time"]),
                      pathsim.FirstExit(Ball((0.0, 0.0), 0.9)),
                      pathsim.FirstExit(Annulus((0.0, 0.0), 0.1, 0.5))]

            def optimality():
                rep = pathsim.optimality_test(x, self.rule, rivals, self.gain, n, cfg)
                return {"contact": list(rep.contact_payoff), "rows": rep.rows,
                        "dominated": rep.all_dominated(),
                        "truncations_ok": rep.all_truncations_ok()}
            return optimality, (), "pathsim.optimality_test"
        x = spec["grid_probes"][k]

        def grid_payoff():
            return list(pathsim.payoff_estimate(x, self.cap_rule, self.cap, n, cfg,
                                                stream_key=600 + k))
        return grid_payoff, (), "pathsim.grid_payoff"

    @staticmethod
    def _fail(op: dict, error: str) -> dict:
        op["ok"] = False
        op["error"] = error
        return op

    # -- output checks (outside the timed region) --------------------------

    def check(self, ops: list[dict]) -> None:
        by_name = {op["name"]: op for op in ops if op["ok"]}
        for name, op in by_name.items():
            try:
                error = getattr(self, "_check_" + op_kind(name).replace("-", "_"))(op)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
            if error:
                self._fail(op, error)
        t1, t2 = by_name.get("paths-t1"), by_name.get("paths-t2")
        if t1 and t2 and t1["ok"] and t2["ok"] and t1["digest"] != t2["digest"]:
            self._fail(t2, "paths output differs between --threads 1 and --threads 2")
        from lsmlab.oracle import complementarity_residual
        for gain, fld in self.psor_fields:
            self.guards["psor_residual"] = max(self.guards["psor_residual"],
                                               complementarity_residual(fld, gain))

    def _json(self, op: dict, name: str) -> dict:
        return json.loads((self.out / op["name"] / name).read_text())

    def _check_envelope(self, op: dict):
        summary = self._json(op, "summary.json")
        self.guards["levels"] += len(summary["levels"])
        self.guards["noncontact_nodes"] += sum(lv["noncontact_cells"] for lv in summary["levels"])
        if summary["converged"] is not True:
            return "summary.json does not report converged"
        return None

    def _check_balayage(self, op: dict):
        rows = self._json(op, "balayage_summary.json")["levels"]
        return None if rows else "balayage wrote no levels"

    def _check_oracle(self, op: dict):
        out = self.out / op["name"]
        env = self.out / "envelope"
        if not env.is_dir():
            return None
        limit = read_values(last_level(env))
        if self.spec["kind"] == "cartesian":
            from lsmlab.grids import cartesian_grid
            coords, _ = cartesian_grid(self.spec["config"]["grid"]["nodes"])
            inside = (np.linalg.norm(coords, axis=-1) < 1.0).ravel()
            sup = float(np.max(np.abs(limit - read_values(out / "oracle_psor.csv"))[inside]))
            self.guards["limit_sup"] = max(self.guards["limit_sup"], sup)
            if sup > PSOR_TOL:
                return f"limit vs PSOR sup {sup:.3g} > {PSOR_TOL}"
            cross = out / "oracle_crosscheck.json"
            if cross.exists():
                rsup = json.loads(cross.read_text())["radial"]["sup"]
                if rsup > PSOR_TOL:
                    return f"PSOR vs radial oracle sup {rsup:.3g} > {PSOR_TOL}"
            return None
        sup = float(np.max(np.abs(limit - read_values(out / "oracle_radial.csv"))))
        self.guards["limit_sup"] = max(self.guards["limit_sup"], sup)
        return None if sup <= RADIAL_TOL else f"limit vs radial oracle sup {sup:.3g} > {RADIAL_TOL}"

    def _check_reproduce(self, op: dict):
        verdict = self._json(op, "verdict.json")
        self.guards["limit_sup"] = max(self.guards["limit_sup"], verdict["limit_vs_oracle_sup"])
        return None if verdict["verdict"] == "PASS" else f"verdict {verdict['verdict']}"

    def _check_paths(self, op: dict):
        report = self._json(op, "excessivity.json")
        if op["name"] == "paths-t1":
            self.guards["paths"] += report["runs"]
            for cause, count in report["terminations"].items():
                self.guards["terms"][cause] = self.guards["terms"].get(cause, 0) + count
        return None if report["excessive"] is True else "excessivity.json: excessive is not true"

    _check_paths_t1 = _check_paths_t2 = _check_paths

    def _check_optimality(self, op: dict):
        value = op["value"]
        if not (value["dominated"] and value["truncations_ok"]):
            return f"optimality test failed: {value['rows']}"
        x = self.spec["optimality_probes"][int(op["name"].rpartition("-")[2])]
        mean, sem = value["contact"]
        v = float(self.oracle.interpolate(math.hypot(*x)))
        if abs(mean - v) > SIGMAS * sem + 1e-12:
            return f"contact-hit payoff {mean:.6g} +- {sem:.2g} vs oracle {v:.6g}"
        return None

    def _check_grid_payoff(self, op: dict):
        mean, sem = op["value"]
        x = self.spec["grid_probes"][int(op["name"].rpartition("-")[2])]
        bound = float(self.cap_w1.interpolate(x))
        if mean > bound + SIGMAS * sem + 1e-12:
            return f"grid contact-hit payoff {mean:.6g} +- {sem:.2g} above w1 {bound:.6g}"
        return None


def main(case_path: str, result_path: str) -> int:
    spec = json.loads(Path(case_path).read_text())
    sys.path.insert(0, spec["src"])
    sys.path.insert(1, str(HERE))
    case = Case(spec)
    case.setup()
    ready = time.perf_counter()
    case.rec.active = case.trace
    ops = [case.run(name) for name in spec["ops"]]
    done = time.perf_counter()
    case.rec.active = False
    case.check(ops)
    result = {
        "ready": ready,
        "done": done,
        "ops": ops,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "guards": case.guards,
        "spans": case.rec.spans,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
