"""The lsmlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

perfbench/ sits at the root of a source checkout: the benchmark imports
lsmlab from src/ there and reads the metric list from BENCHMARK.json. It
repeats passes of the workload while the next pass should end within S
seconds (at least two passes). A pass runs each case of the
workload (see workloads.py) in a fresh worker interpreter limited to two
threads, and each operation's outputs are checked. Every metric is the
median over passes; setup_s is the median over every worker started.

With --trace 1, passes alternate untraced and traced. The traced ones wrap
each layer's public functions (tracing.py) and give the per-layer metrics;
the untraced ones give the baseline for the tracing overhead.

Output: a table of every metric, the failed operations, an environment
record, and, as the last line, one JSON object with the keys correct,
attempted, failed and metrics. Scratch outputs go to ./.perfbench-work and
are removed, apart from the span file a traced run leaves there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170.0   # the whole run must end within 180 s
MIN_PASSES = 2        # two passes at one seed must give byte-identical outputs

# Per-command times that exist only on some workloads: printed, not gated.
WORKLOAD_ONLY = [("balayage_s", "s"), ("reproduce_s", "s"), ("paths_t1_s", "s"),
                 ("paths_t2_s", "s"), ("stopping_s", "s")]

CHILD_ENV = dict(os.environ, OMP_NUM_THREADS="2", OPENBLAS_NUM_THREADS="2",
                 MKL_NUM_THREADS="2", NUMEXPR_NUM_THREADS="2")


class Unrunnable(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def load_contract() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise Unrunnable(f"{path} not found: run from the root of the checkout")
    if not (ROOT / "src" / "lsmlab" / "cli.py").is_file():
        raise Unrunnable(f"no lsmlab sources under {ROOT / 'src'}")
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------

def failed_case(case: dict, error: str) -> dict:
    ops = [{"name": name, "metric": None, "ok": False, "error": error, "seconds": 0.0,
            "span": None, "value": None} for name in case["ops"]]
    return {"id": case["id"], "ops": ops, "spans": [], "guards": None, "maxrss_mb": 0.0,
            "setup_s": None, "wall_s": 0.0}


def run_case(case: dict, pass_dir: Path, traced: bool, deadline: float) -> dict:
    spec = dict(case, src=str(ROOT / "src"), out=str(pass_dir / case["id"]), trace=traced)
    case_file = pass_dir / f"{case['id']}.case.json"
    result_file = pass_dir / f"{case['id']}.result.json"
    case_file.write_text(json.dumps(spec))
    spawned = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(case_file),
                               str(result_file)], env=CHILD_ENV, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return failed_case(case, "worker timed out")
    if proc.returncode != 0 or not result_file.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return failed_case(case, f"worker exit {proc.returncode}: {tail[0]}")
    result = json.loads(result_file.read_text())
    result["id"] = case["id"]
    # perf_counter is CLOCK_MONOTONIC, shared by the parent and its workers.
    result["setup_s"] = result["ready"] - spawned
    result["wall_s"] = result["done"] - result["ready"]
    return result


def run_pass(cases: list[dict], pass_dir: Path, traced: bool, deadline: float) -> list[dict]:
    pass_dir.mkdir(parents=True)
    try:
        return [run_case(case, pass_dir, traced, deadline) for case in cases]
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def end_to_end(results: list[dict]) -> dict[str, float]:
    out = {name: 0.0 for name, _ in WORKLOAD_ONLY}
    out.update(envelope_s=0.0, oracle_s=0.0)
    for res in results:
        for op in res["ops"]:
            if op["metric"]:
                out[op["metric"]] += op["seconds"]
    out["wall_s"] = sum(res["wall_s"] for res in results)
    out["peak_rss_mb"] = max(res["maxrss_mb"] for res in results)
    return out


def per_layer(results: list[dict]) -> dict[str, float]:
    out: dict[str, float] = {}
    guards = {"levels": 0, "noncontact_nodes": 0, "paths": 0, "terms": {},
              "limit_sup": 0.0, "psor_residual": 0.0}
    parallel = 0.0
    for res in results:
        for key, value in tracing.layer_metrics(res["spans"]).items():
            out[key] = out.get(key, 0) + value
        for op in res["ops"]:
            if op["name"] == "paths-t2" and op["span"] is not None:
                parallel = tracing.parallelism(res["spans"], "pathsim.batch", op["span"])
        g = res["guards"] or {}
        for key in ("levels", "noncontact_nodes", "paths"):
            guards[key] += g.get(key, 0)
        for key in ("limit_sup", "psor_residual"):
            guards[key] = max(guards[key], g.get(key, 0.0))
        for cause, count in g.get("terms", {}).items():
            guards["terms"][cause] = guards["terms"].get(cause, 0) + count
    out["envelope.levels"] = guards["levels"]
    out["envelope.noncontact_nodes"] = guards["noncontact_nodes"]
    out["oracle.limit_sup"] = guards["limit_sup"]
    out["oracle.psor_residual"] = guards["psor_residual"]
    out["pathsim.paths"] = guards["paths"]
    for cause in ("hit_boundary", "hit_gstar", "exhausted"):
        out[f"pathsim.term.{cause}"] = guards["terms"].get(cause, 0)
    out["pathsim.batch_parallelism"] = parallel
    return out


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def check_determinism(passes: list[list[dict]]) -> None:
    """Fail an operation whose outputs differ from the first pass at this seed."""
    first = {(res["id"], op["name"]): op.get("digest")
             for res in passes[0] for op in res["ops"] if op["ok"]}
    for results in passes[1:]:
        for res in results:
            for op in res["ops"]:
                ref = first.get((res["id"], op["name"]))
                if op["ok"] and ref is not None and op.get("digest") != ref:
                    op["ok"] = False
                    op["error"] = "outputs differ from the first pass at the same seed"


def tally(passes: list[list[dict]]) -> tuple[int, int]:
    """(attempted, failed) operations over every pass."""
    ops = [op for results in passes for res in results for op in res["ops"]]
    return len(ops), sum(not op["ok"] for op in ops)


def environment() -> dict:
    def read(path: str) -> str | None:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "lsmlab").rglob("*")):
        if f.is_file() and f.suffix in (".py", ".json"):
            src.update(f.read_bytes())
    quota = read("/sys/fs/cgroup/cpu.max")
    if quota is None:
        v1 = [read(f"/sys/fs/cgroup/cpu/cpu.cfs_{k}_us") for k in ("quota", "period")]
        quota = " ".join(v1) if all(v1) else "unavailable"

    def version(pkg: str) -> str | None:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"git_commit": commit, "source_sha256": src.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "cgroup_cpu_max": quota,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "machine": platform.machine()}


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def table(rows: list[tuple[str, str, list[float]]]) -> str:
    lines = [f"{'metric':28s} {'unit':6s} {'median':>12s} {'min':>12s} {'max':>12s} {'n':>3s}"]
    for name, unit, values in rows:
        if values:
            lines.append(f"{name:28s} {unit:6s} {median(values):12.6g} {min(values):12.6g} "
                         f"{max(values):12.6g} {len(values):3d}")
        else:
            lines.append(f"{name:28s} {unit:6s} {'n/a':>12s}")
    return "\n".join(lines)


def run(workload: str, seed: int, seconds: float, trace: bool, contract: dict) -> dict:
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    load_start = os.getloadavg()
    cases = workloads.cases(workload, seed)
    work = ROOT / ".perfbench-work" / f"{workload}-seed{seed}-{os.getpid()}"
    passes: list[list[dict]] = []
    traced_flags: list[bool] = []
    pass_time = 0.0
    try:
        # Start a pass only if it should end within the measuring time.
        while (len(passes) < MIN_PASSES
               or time.perf_counter() - started + pass_time <= seconds):
            if time.perf_counter() + pass_time > deadline:
                break
            traced = trace and len(passes) % 2 == 1
            t0 = time.perf_counter()
            passes.append(run_pass(cases, work / f"pass{len(passes)}", traced, deadline))
            traced_flags.append(traced)
            pass_time = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # not empty: a traced run's span file is kept there
    check_determinism(passes)

    attempted, failed = tally(passes)
    plain = [p for p, t in zip(passes, traced_flags) if not t]
    traced_passes = [p for p, t in zip(passes, traced_flags) if t]
    e2e = [end_to_end(results) for results in plain]
    setups = [res["setup_s"] for results in plain for res in results
              if res["setup_s"] is not None]
    measured = {name: [m[name] for m in e2e] for name in e2e[0]} if e2e else {}
    measured["setup_s"] = setups
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    units.update(dict(WORKLOAD_ONLY))
    # Per-command times a workload never runs are n/a, not zero.
    shown = []
    for name, unit in units.items():
        values = measured.get(name, [])
        shown.append((name, unit, values if any(values) else []))
    shown.append(("failed_frac", "ratio", [failed / attempted]))

    print(f"lsmlab benchmark: workload {workload}, seed {seed}, {len(passes)} passes "
          f"({sum(traced_flags)} traced) in {time.perf_counter() - started:.1f} s")
    print(table(shown))
    op_times: dict[str, list[float]] = {}
    for results in plain:
        for res in results:
            for op in res["ops"]:
                op_times.setdefault(f"{res['id']}/{op['name']}", []).append(op["seconds"])
    for key, times in op_times.items():
        print(f"  {key:40s} median {median(times):.4g} s over {len(times)} passes")
    for i, results in enumerate(passes):
        for res in results:
            for op in res["ops"]:
                if not op["ok"]:
                    print(f"FAILED pass {i} {res['id']}/{op['name']}: {op['error']}")

    metrics: dict[str, dict] = {}
    if trace:
        layers = [per_layer(results) for results in traced_passes]
        layer_values = {k: median([lay[k] for lay in layers]) for k in layers[0]} if layers else {}
        traced_wall = median([end_to_end(r)["wall_s"] for r in traced_passes])
        layer_values["trace.overhead_s"] = traced_wall - median(measured.get("wall_s", []))
        print(f"tracing overhead: traced wall {traced_wall:.4g} s, untraced "
              f"{median(measured.get('wall_s', [])):.4g} s")
        print("self time by module: " + ", ".join(
            f"{m} {layer_values.get(m + '.self_s', 0.0):.4g} s" for m in tracing.MODULES))
        for m in contract["per_layer"]:
            if m["name"] not in layer_values:
                raise KeyError(f"per-layer metric {m['name']} was not measured")
            metrics[m["name"]] = {"value": layer_values[m["name"]], "unit": m["unit"]}
        if traced_passes:
            spans_file = ROOT / ".perfbench-work" / f"trace-{workload}-seed{seed}.json"
            spans_file.parent.mkdir(exist_ok=True)
            spans_file.write_text(json.dumps(
                [{"case": res["id"], "spans": res["spans"]} for res in traced_passes[-1]]))
            print(f"spans of the last traced pass: {spans_file.relative_to(ROOT)}")
    else:
        for m in contract["end_to_end"]:
            metrics[m["name"]] = {"value": median(measured[m["name"]]), "unit": m["unit"]}

    env = environment()
    env.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
               loadavg_start=load_start, loadavg_end=os.getloadavg())
    print("environment: " + json.dumps(env, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        contract = load_contract()
    except Unrunnable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), contract)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
