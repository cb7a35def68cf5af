"""Tests of the benchmark's own arithmetic and failure accounting.

    python -m pytest -q perfbench
"""

import threading

import run
import tracing
import workloads


def span(sid, name, start, end, parent=None, count=0):
    return [sid, name, start, end, parent, "case", count]


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert tracing.covered([(-5, 1), (9, 20)], 0, 10) == 2
    assert tracing.covered([], 0, 10) == 0


def test_self_time_subtracts_union_of_children():
    spans = [
        span(1, "cli.envelope", 0.0, 10.0),
        span(2, "envelope.refine", 1.0, 4.0, parent=1),
        span(3, "cli.write", 3.0, 6.0, parent=1, count=100),   # overlaps span 2
        span(4, "envelope.contact_set", 2.0, 3.0, parent=2),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == 8.0          # 5 of the command + 3 of the write
    assert m["envelope.self_s"] == 3.0
    assert m["envelope.refine_s"] == 3.0    # inclusive
    assert m["envelope.refine_calls"] == 1
    assert m["cli.write_s"] == 3.0
    assert m["cli.bytes_written"] == 100
    assert m["oracle.psor_s"] == 0.0


def test_walk_steps_and_parallelism():
    spans = [
        span(1, "cli.paths", 0.0, 4.0),
        span(2, "pathsim.batch", 0.0, 2.0, parent=1),
        span(3, "pathsim.batch", 1.0, 3.0, parent=1),
        span(4, "geometry.sd_analytic", 0.5, 0.6, parent=2, count=7),
        span(5, "geometry.sd_grid", 1.5, 1.6, parent=3, count=5),
    ]
    m = tracing.layer_metrics(spans)
    assert m["harmonic.walk_steps"] == 12
    assert abs(m["geometry.sd_analytic_s"] - 0.1) < 1e-12
    assert tracing.parallelism(spans, "pathsim.batch", 1) == 4.0 / 3.0
    assert tracing.parallelism(spans, "pathsim.batch", 99) == 0.0


def test_pool_thread_spans_attach_to_the_operation():
    rec = tracing.Recorder()
    rec.active = True

    def batch():
        return rec.call("pathsim.batch", sum, [1, 2])

    def operation():
        worker = threading.Thread(target=batch)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        return rec.call("cli.write", len, "abc", count=lambda args, result: result)

    _, root = rec.operation("cli.paths", operation)
    by_name = {s[1]: s for s in rec.spans}
    assert by_name["pathsim.batch"][4] == root
    assert by_name["cli.write"][4] == root
    assert by_name["cli.write"][6] == 3
    assert by_name["cli.paths"][4] is None


def test_same_seed_same_cases():
    for name in workloads.WORKLOADS:
        assert workloads.cases(name, 5) == workloads.cases(name, 5)
        assert workloads.cases(name, 5) != workloads.cases(name, 6)


def test_failing_operation_is_counted(tmp_path):
    """A config the CLI rejects (exit 2) is one failed operation of those attempted."""
    bad = {"id": "bad-gain", "kind": "radial", "seed": 1, "ops": ["oracle", "envelope"],
           "config": {"gain": {"kind": "no-such-gain"}, "oracle": {"radial": True}}}
    good = {"id": "good", "kind": "radial", "seed": 1, "ops": ["oracle"],
            "config": workloads.radial_family(1)[2]["config"]}
    deadline = run.time.perf_counter() + 120.0
    first = [run.run_case(bad, tmp_path, False, deadline),
             run.run_case(good, tmp_path, False, deadline)]
    ops = {op["name"]: op for op in first[0]["ops"]}
    assert ops["oracle"]["error"] == "exit code 2"
    assert ops["envelope"]["error"] == "exit code 2"
    assert first[1]["ops"][0]["ok"], first[1]["ops"][0]["error"]
    assert run.tally([first]) == (3, 2)

    # A second pass whose output digest differs fails the operation too.
    second = [dict(res, ops=[dict(op) for op in res["ops"]]) for res in first]
    second[1]["ops"][0]["digest"] = "0" * 64
    run.check_determinism([first, second])
    assert run.tally([first, second]) == (6, 5)
