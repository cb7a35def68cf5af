"""CLI contract: subcommands, exit codes, reproducibility, file formats."""

import csv
import dataclasses
import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from lsmlab import cli
from lsmlab.cli import ConfigError, load_config, main, parse_config
from lsmlab.envelope import ConvergenceError, EnvelopeError, NoWitnessError
from lsmlab.gain import GainError, gain_from_config
from lsmlab.harmonic import NonTerminationError
from lsmlab.majorant import MajorantError
from lsmlab.oracle import OracleConvergenceError
from lsmlab.pathsim import StructuralError

REPO = Path(__file__).resolve().parents[1]

FAST_SPIKED = {
    "gain": {"kind": "spiked", "epsilon": 0.05, "mollify": 0.01, "gstar_margin": 0.25},
    "dim": 2,
    "grid": {"kind": "radial", "nodes": 512, "r_min": 0.001},
    "envelope": {"max_iter": 16, "tol": 1e-09, "contact_tol": 1e-09},
    "paths": {"n_paths": 400, "seed": 7, "scheme": "wos-jump", "sample_traces": 1,
              "probe": [0.3, 0.0]},
    "oracle": {"radial": True, "psor": False},
}


# A radial bump on a coarse Cartesian grid: every Cartesian table in seconds.
CART33 = {
    "gain": {"kind": "radial-bump", "center_radius": 0.3, "width": 0.15, "gstar_margin": 0.25},
    "grid": {"kind": "cartesian", "nodes": 33},
    "oracle": {"radial": True, "psor": True},
}


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def write_cfg(tmp_path: Path, payload: dict) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


def read_all(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


class TestEnvelopeCommand:
    def test_writes_levels_and_summary(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SPIKED)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "envelope"]) == 0
        assert (out / "w1.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        changes = [row["sup_change"] for row in summary["levels"][1:]]
        assert all(b <= a + 1e-15 for a, b in zip(changes, changes[1:]))

    def test_csv_has_units_comment_and_header(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SPIKED)
        out = tmp_path / "out"
        main(["--config", cfg, "--out", str(out), "envelope"])
        lines = (out / "w1.csv").read_text().splitlines()
        assert lines[0].startswith("# units:")
        assert lines[1] == "r,value"

    def test_reproducible_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SPIKED)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["--config", cfg, "--out", str(out1), "--seed", "3", "envelope"])
        main(["--config", cfg, "--out", str(out2), "--seed", "3", "envelope"])
        assert read_all(out1) == read_all(out2)

    def test_max_iter_zero_reports_unconverged(self, tmp_path):
        payload = dict(FAST_SPIKED)
        payload["envelope"] = {"max_iter": 0}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "envelope"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is False
        assert (out / "env_level_000.csv").exists()
        assert not (out / "env_level_001.csv").exists()

    def test_invalid_epsilon_exit_code(self, tmp_path, capsys):
        payload = {"gain": {"kind": "spiked", "epsilon": 0.7}}
        cfg = write_cfg(tmp_path, payload)
        assert main(["--config", cfg, "--out", str(tmp_path / "x"), "envelope"]) == 2
        err = capsys.readouterr().err
        assert "spike radius" in err

    def test_missing_gain_key_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"gain": {"kind": "spiked"}})
        assert main(["--config", cfg, "--out", str(tmp_path / "x"), "envelope"]) == 2
        assert "'epsilon'" in capsys.readouterr().err


class TestReproduce:
    def test_spiked_ball_pass(self, tmp_path):
        payload = dict(FAST_SPIKED)
        payload["grid"] = {"kind": "radial", "nodes": 2048, "r_min": 0.001}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "reproduce", "spiked-ball"]) == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["verdict"] == "PASS"
        assert verdict["balayage_gap_max"] > 1e-2
        header = (out / "cross_section.csv").read_text().splitlines()[1]
        assert header == "r,g,w1,wbar1,V"

    def test_missing_oracle_is_incomplete(self, tmp_path):
        payload = dict(FAST_SPIKED)
        payload["oracle"] = {"radial": False, "psor": False}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "reproduce", "spiked-ball"]) == 3
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["verdict"] == "INCOMPLETE"


class TestExitCodes:
    def test_unconverged_envelope_is_exit_five(self, tmp_path):
        payload = dict(FAST_SPIKED)
        payload["envelope"] = {"max_iter": 1}
        cfg = write_cfg(tmp_path, payload)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "envelope"]) == 5

    def test_paths_need_convergence(self, tmp_path):
        payload = dict(FAST_SPIKED)
        payload["envelope"] = {"max_iter": 1}
        cfg = write_cfg(tmp_path, payload)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "paths"]) == 5


class TestGridKind:
    """A config whose grid cannot carry its gain exits 2 and says why."""

    OFFSET = {"kind": "offset-bump", "center": [0.4, 0.0], "radius": 0.15}

    @pytest.mark.parametrize("command", ["envelope", "balayage", "paths"])
    def test_offset_gain_on_a_radial_grid_exits_two(self, command, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"gain": self.OFFSET, "grid": {"kind": "radial", "nodes": 64}})
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), command]) == 2
        assert capsys.readouterr().err.startswith("config error: gain is not radial")

    @pytest.mark.parametrize("gain, command, message", [
        (OFFSET, ["oracle"], "radial oracle requested for a non-radial gain"),
        ({"kind": "radial-bump", "center_radius": 0.3, "width": 0.15},
         ["reproduce", "spiked-ball"], "the reproduce target needs the spiked radial preset"),
        ({"kind": "spiked", "epsilon": 0.05, "mollify": 0.01}, ["reproduce", "spiked-ball"],
         "reproduce spiked-ball needs a radial grid, got grid.kind 'cartesian'")],
        ids=["oracle-offset-gain", "reproduce-bump-gain", "reproduce-cartesian-grid"])
    def test_command_that_cannot_take_its_config_exits_two(self, gain, command, message,
                                                           tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"gain": gain, "grid": {"kind": "cartesian", "nodes": 33},
                                   "oracle": {"radial": True}})
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), *command]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("nodes", [4, 5])
    def test_cartesian_grid_missing_the_support_exits_two(self, nodes, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(CART33, grid={"kind": "cartesian", "nodes": nodes}))
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "envelope"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: no node of the {nodes}x{nodes}")


# Every gain kind on radial and Cartesian grids down to 3 nodes; a mollified
# gain takes the code paths of its raw gain, so it runs on two of the grids.
SWEEP_GAINS = {
    "spiked-raw": {"kind": "spiked", "epsilon": 0.05},
    "spiked-mollified": {"kind": "spiked", "epsilon": 0.05, "mollify": 0.01},
    "spiked-eps0": {"kind": "spiked", "epsilon": 0.0},
    "bump-d2": {"kind": "radial-bump", "center_radius": 0.3, "width": 0.15},
    "bump-d3": {"kind": "radial-bump", "center_radius": 0.3, "width": 0.15, "dim": 3},
    "offset-raw": {"kind": "offset-bump", "center": [0.4, 0.0], "radius": 0.15},
    "offset-mollified": {"kind": "offset-bump", "center": [0.4, 0.0], "radius": 0.15,
                         "mollify": 0.01},
}
SWEEP_GRIDS = [("radial", 3), ("radial", 17), ("cartesian", 3), ("cartesian", 4),
               ("cartesian", 5), ("cartesian", 9)]
SWEEP_CASES = [(gain, kind, nodes) for gain in SWEEP_GAINS for kind, nodes in SWEEP_GRIDS
               if "mollify" not in SWEEP_GAINS[gain] or nodes in (17, 9)]
SWEEP_COMMANDS = [["envelope"], ["balayage"], ["paths"], ["oracle"], ["reproduce", "spiked-ball"]]


@pytest.mark.parametrize("gain, kind, nodes", SWEEP_CASES,
                         ids=[f"{gain}-{kind}-{nodes}" for gain, kind, nodes in SWEEP_CASES])
def test_small_configs_exit_with_a_table_code(gain, kind, nodes, tmp_path):
    # A structural failure, a config error or a non-convergence is an exit
    # code; anything raised out of main is a fault of the program.  The probe
    # lies between every gain's support and the sphere.
    block = SWEEP_GAINS[gain]
    dim = block.get("dim", 2)
    payload = {"gain": block, "grid": {"kind": kind, "nodes": nodes},
               "paths": {"n_paths": 2, "sample_traces": 1, "probe": [0.7] + [0.0] * (dim - 1)},
               "oracle": {"radial": kind == "radial", "psor": kind == "cartesian"}}
    cfg = write_cfg(tmp_path, payload)
    for k, command in enumerate(SWEEP_COMMANDS):
        assert main(["--config", cfg, "--out", str(tmp_path / f"o{k}"), *command]) in {0, 2, 3, 4, 5}


class TestExitCodeTable:
    """One case per row of cli.EXIT_TABLE, each class raised from inside a command."""

    def run_raising(self, exc, monkeypatch, tmp_path):
        def fail(*args):
            raise exc
        monkeypatch.setattr(cli, "cmd_envelope", fail)
        cfg = write_cfg(tmp_path, FAST_SPIKED)
        return main(["--config", cfg, "--out", str(tmp_path / "o"), "envelope"])

    @pytest.mark.parametrize("exc", [ConfigError("bad key"), GainError("bad gain")])
    def test_config_row_exits_two(self, exc, monkeypatch, tmp_path, capsys):
        assert self.run_raising(exc, monkeypatch, tmp_path) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_no_witness_row_exits_three(self, monkeypatch, tmp_path, capsys):
        assert self.run_raising(NoWitnessError("in the contact set"), monkeypatch, tmp_path) == 3
        assert capsys.readouterr().err.startswith("incomplete:")

    @pytest.mark.parametrize("exc", [StructuralError("gap"), MajorantError("not contiguous"),
                                     EnvelopeError("field drops below the gain")])
    def test_structural_row_exits_four(self, exc, monkeypatch, tmp_path, capsys):
        assert self.run_raising(exc, monkeypatch, tmp_path) == 4
        assert capsys.readouterr().err.startswith("structural error:")

    @pytest.mark.parametrize("exc", [ConvergenceError("sweeps", 1e-3),
                                     OracleConvergenceError("sweeps", 1e-3),
                                     NonTerminationError("steps")])
    def test_nonconvergence_row_exits_five(self, exc, monkeypatch, tmp_path, capsys):
        assert self.run_raising(exc, monkeypatch, tmp_path) == 5
        assert capsys.readouterr().err.startswith("non-convergence:")

    def test_probe_in_contact_set_is_incomplete(self, tmp_path, capsys):
        payload = dict(FAST_SPIKED, paths=dict(FAST_SPIKED["paths"], probe=[0.0, 0.0]))
        cfg = write_cfg(tmp_path, payload)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "paths"]) == 3
        assert "contact set" in capsys.readouterr().err

    def test_cartesian_probe_outside_the_witness_domain_is_incomplete(self, tmp_path, capsys):
        # The smoothed base domain of this benchmark config misses the probe (0.3, 0).
        case = next(c for c in load_workloads().cartesian_disc(1) if c["id"] == "cap-97")
        cfg = write_cfg(tmp_path, case["config"])
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "paths"]) == 3
        assert "shrink width" in capsys.readouterr().err

    def test_component_too_thin_for_the_shrink_width_is_incomplete(self, tmp_path, capsys):
        # At 33^2 the default shrink of 6 spacings is wider than half the
        # component's inradius, so there is no smooth inner domain to build on.
        payload = dict(CART33, paths={"probe": [0.05, 0.0], "n_paths": 0})
        cfg = write_cfg(tmp_path, payload)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "paths"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("incomplete:")
        assert "shrink width" in err and "inradius" in err


class TestConfigKeys:
    @pytest.mark.parametrize("block, key", [(None, "dims"), ("grid", "node"),
                                            ("envelope", "max_iters"), ("paths", "n_path"),
                                            ("oracle", "psor_tolerance")])
    def test_unknown_key_exits_two_and_names_it(self, block, key, tmp_path, capsys):
        payload = json.loads(json.dumps(FAST_SPIKED))
        (payload if block is None else payload[block])[key] = 0
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "envelope"]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (out / "w1.csv").exists()

    @pytest.mark.parametrize("command, block, key, value", [
        ("envelope", "gain", "epsilon", "wide"), ("envelope", "grid", "nodes", "many"),
        ("envelope", "envelope", "tol", None), ("paths", "paths", "probe", [0.3]),
        ("paths", "paths", "scheme", "euler"), ("oracle", "oracle", "psor_omega", 2.5),
        ("envelope", "envelope", "omega", 0.0), ("envelope", "envelope", "omega", 2.0),
        ("paths", "paths", "dt", 1e-3), ("envelope", "envelope", "omega", 1.95),
        # Values of the wrong JSON type, non-integral, non-finite or out of range.
        ("oracle", "oracle", "radial", "false"), ("envelope", "grid", "nodes", 512.5),
        ("envelope", "envelope", "max_iter", True), ("envelope", "envelope", "tol", float("nan")),
        ("envelope", "envelope", "contact_tol", -1), ("paths", "paths", "seed", -1),
        ("paths", "paths", "sample_traces", -1), ("envelope", "gain", "dim", True)])
    def test_bad_value_exits_two(self, command, block, key, value, tmp_path, capsys):
        payload = json.loads(json.dumps(FAST_SPIKED))
        payload["oracle"]["psor"] = True
        # Without a top-level dim, a bad gain.dim must be caught by its own check.
        del payload["dim"]
        payload[block][key] = value
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), command]) == 2
        assert key in capsys.readouterr().err
        # Rejected before any solve: not even the radial oracle's table is written.
        assert not any(out.iterdir())

    def test_negative_seed_flag_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST_SPIKED)
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "--seed", "-1", "paths"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_bad_paths_value_exits_two_before_the_refinement(self, monkeypatch, tmp_path,
                                                              capsys):
        def refine(*args, **kwargs):
            raise AssertionError("the refinement ran before the paths block was checked")
        monkeypatch.setattr(cli, "iterate_envelopes", refine)
        payload = dict(FAST_SPIKED, paths=dict(FAST_SPIKED["paths"], n_paths=-1))
        cfg = write_cfg(tmp_path, payload)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "paths"]) == 2
        assert "n_paths" in capsys.readouterr().err

    @pytest.mark.parametrize("block, key, value, accepted", [
        ("envelope", "omega", "1.9", "1.9"), ("oracle", "psor_omega", 1.7, "1.9"),
        ("paths", "dt", 1e-3, "0.0001"), ("paths", "scheme", "euler", '"wos-jump"')])
    def test_retired_key_names_the_one_value_it_accepts(self, block, key, value, accepted):
        payload = json.loads(json.dumps(FAST_SPIKED))
        payload[block][key] = value
        with pytest.raises(ConfigError) as err:
            parse_config(payload)
        assert f"{block}.{key} has no effect and accepts only {accepted}" in str(err.value)

    @pytest.mark.parametrize("command, base, retired", [
        ("envelope", FAST_SPIKED,
         {"envelope": {"omega": 1.9}, "paths": {"scheme": "wos-jump", "dt": 1e-4}}),
        ("oracle", CART33, {"oracle": {"psor_omega": 1.9}})])
    def test_retired_key_at_its_value_changes_no_byte(self, command, base, retired, tmp_path):
        bare = json.loads(json.dumps(base))
        carrying = json.loads(json.dumps(base))
        for block, keys in retired.items():
            for key, value in keys.items():
                bare.get(block, {}).pop(key, None)
                carrying.setdefault(block, {})[key] = value
        outs = []
        for name, payload in (("bare", bare), ("carrying", carrying)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(payload))
            outs.append(tmp_path / name)
            assert main(["--config", str(cfg), "--out", str(outs[-1]), command]) == 0
        assert read_all(outs[0]) == read_all(outs[1])
        assert read_all(outs[0])

    def test_no_preset_carries_a_retired_key(self):
        for preset in ("spiked-ball", "annulus-gain", "cap-gain"):
            raw = load_config(preset)
            assert not [name for name in cli.RETIRED
                        if name.partition(".")[2] in raw.get(name.partition(".")[0], {})]

    def test_presets_and_readme_example_are_accepted(self):
        for preset in ("spiked-ball", "annulus-gain", "cap-gain"):
            parse_config(load_config(preset))
        readme = (REPO / "README.md").read_text()
        example = re.search(r"Example config:\s*```json\n(.*?)```", readme, re.S).group(1)
        parse_config(json.loads(example))

    @pytest.mark.parametrize("gain, key", [
        ({"kind": "spiked", "epsilon": 0.05, "molify": 0.01}, "molify"),
        ({"kind": "radial-bump", "center_radius": 0.3, "width": 0.15, "center": [0.3, 0.0]},
         "center"),
        ({"kind": "offset-bump", "center": [0.4, 0.0], "radius": 0.15, "dim": 2}, "dim")])
    def test_unknown_gain_key_exits_two_and_names_it(self, gain, key, tmp_path, capsys):
        payload = dict(FAST_SPIKED, gain=gain)
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "envelope"]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (out / "w1.csv").exists()

    def test_gain_blocks_of_presets_readme_and_benchmark_build(self):
        readme = (REPO / "README.md").read_text()
        example = re.search(r"Example config:\s*```json\n(.*?)```", readme, re.S).group(1)
        blocks = [load_config(p)["gain"] for p in ("spiked-ball", "annulus-gain", "cap-gain")]
        blocks.append(json.loads(example)["gain"])
        workloads = load_workloads()
        for name in workloads.WORKLOADS:
            for case in workloads.cases(name, seed=1):
                blocks.append(case["config"]["gain"])
                if "cap_gain" in case:
                    blocks.append(case["cap_gain"])
        for block in blocks:
            gain_from_config(block)

    def test_benchmark_configs_are_accepted(self):
        workloads = load_workloads()
        for name in workloads.WORKLOADS:
            for case in workloads.cases(name, seed=1):
                parse_config(case["config"])

    def test_readme_table_lists_every_key_of_the_schema(self):
        readme = (REPO / "README.md").read_text()
        rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \|(.*)\|$", readme, re.M)
        documented = {(block, key): rest for block, key, rest in rows}
        schema = {(block, f.name): f.metadata["range"]
                  for block, spec in cli.BLOCKS.items() for f in dataclasses.fields(spec)}
        assert set(documented) == set(schema)
        # Interval ranges are quoted as the schema writes them.
        for block_key, rng in schema.items():
            if isinstance(rng, str) and rng[0] in "([":
                assert f"`{rng}`" in documented[block_key], block_key


class TestThreads:
    def test_thread_count_does_not_change_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SPIKED)
        out1, out2 = tmp_path / "t1", tmp_path / "t3"
        assert main(["--config", cfg, "--out", str(out1), "--threads", "1", "paths"]) == 0
        assert main(["--config", cfg, "--out", str(out2), "--threads", "3", "paths"]) == 0
        assert read_all(out1) == read_all(out2)

    def test_chunks_land_in_their_rows(self, monkeypatch, tmp_path):
        # A stub batch gives each chunk its own points and causes; the report
        # must hold every chunk's rows in place and count every cause.
        def batch(witness, probe, n, pcfg, stream_key):
            rows = np.arange(n)[:, None]
            finals = probe * (0.2 + 0.7 * ((rows * 7 + stream_key * 3) % 11) / 10.0)
            return finals, [("a", "b", "c")[(i + stream_key) % 3] for i in range(n)]

        monkeypatch.setattr(cli, "run_algorithm1_batch", batch)
        n_paths = 7 * 4096 + 37
        cfg = write_cfg(tmp_path, dict(FAST_SPIKED, paths=dict(FAST_SPIKED["paths"],
                                                               n_paths=n_paths)))
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "paths"]) == 0
        parts = [batch(None, np.array([0.3, 0.0]), min(4096, n_paths - k * 4096), None, k)
                 for k in range(8)]
        finals = np.concatenate([p[0] for p in parts])
        terms = [t for p in parts for t in p[1]]
        got = json.loads((out / "excessivity.json").read_text())
        assert got["mean_payoff"] == float(np.mean(parse_config(load_config(cfg)).gain(finals)))
        assert got["terminations"] == {t: terms.count(t) for t in "abc"}


class TestPathsCommand:
    def test_traces_and_report(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SPIKED)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "paths"]) == 0
        report = json.loads((out / "excessivity.json").read_text())
        assert report["excessive"] is True
        trace = (out / "traces" / "trace_000.csv").read_text().splitlines()
        assert trace[1] == "t,x,y,patch"
        assert (out / "witness_tree.json").exists()

    def test_zero_paths(self, tmp_path):
        payload = dict(FAST_SPIKED)
        payload["paths"] = dict(FAST_SPIKED["paths"], n_paths=0)
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "paths"]) == 0
        report = json.loads((out / "excessivity.json").read_text())
        assert report["runs"] == 0

    def test_one_path_reports_a_finite_std_error(self, tmp_path):
        # The sample standard deviation of one payoff is NaN, which JSON cannot hold.
        payload = dict(FAST_SPIKED, paths=dict(FAST_SPIKED["paths"], n_paths=1))
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "paths"]) == 0
        report = json.loads((out / "excessivity.json").read_text())
        assert report["runs"] == 1
        assert math.isfinite(report["std_error"])

    def test_three_dimensional_run(self, tmp_path):
        # The witness's profile points and the turned caps take the gain's dimension.
        payload = dict(FAST_SPIKED, dim=3, gain=dict(FAST_SPIKED["gain"], dim=3),
                       paths=dict(FAST_SPIKED["paths"], probe=[0.5, 0.0, 0.0]))
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "paths"]) == 0
        report = json.loads((out / "excessivity.json").read_text())
        assert report["excessive"] is True
        assert sum(report["terminations"].values()) == 400
        trace = (out / "traces" / "trace_000.csv").read_text().splitlines()
        assert trace[1] == "t,x,y,z,patch"


class TestCsvFormat:
    @pytest.mark.parametrize("payload, commands", [
        (FAST_SPIKED, ["envelope", "balayage", "oracle", "paths", "reproduce"]),
        (CART33, ["envelope", "balayage", "oracle"])])
    def test_rows_as_wide_as_header_and_lf_only(self, payload, commands, tmp_path):
        cfg = write_cfg(tmp_path, payload)
        for command in commands:
            extra = ["spiked-ball"] if command == "reproduce" else []
            assert main(["--config", cfg, "--out", str(tmp_path / command), command, *extra]) == 0
        tables = sorted(tmp_path.rglob("*.csv"))
        assert len(tables) >= 8
        for path in tables:
            text = path.read_bytes().decode()
            assert "\r" not in text, path.name
            rows = list(csv.reader(line for line in text.split("\n")[:-1]
                                   if not line.startswith("#")))
            header, body = rows[0], rows[1:]
            # A contact mask's header is d,nx,ny,spacing over nx rows of ny flags.
            width = int(header[2]) if header[0] == "2" else len(header)
            assert body and all(len(row) == width for row in body), path.name
        # Level 0 is w1: its table is a copy of w1.csv.
        env = tmp_path / "envelope"
        assert (env / "env_level_000.csv").read_bytes() == (env / "w1.csv").read_bytes()


class TestOracleCommand:
    def test_radial_only(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SPIKED)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "oracle"]) == 0
        assert (out / "oracle_radial.csv").exists()

    def test_none_enabled_incomplete(self, tmp_path):
        payload = dict(FAST_SPIKED)
        payload["oracle"] = {}
        cfg = write_cfg(tmp_path, payload)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "oracle"]) == 3

    def test_top_level_dim_must_match_gain(self, tmp_path, capsys):
        payload = dict(FAST_SPIKED, dim=3)
        cfg = write_cfg(tmp_path, payload)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "oracle"]) == 2
        assert "dim" in capsys.readouterr().err


class TestBalayageCommand:
    def test_gap_summary(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SPIKED)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "balayage"]) == 0
        rows = json.loads((out / "balayage_summary.json").read_text())["levels"]
        assert rows[0]["max_gap"] > 1e-2  # the spiked gap at the first level
        assert rows[-1]["max_gap"] <= 1e-6  # harmonic at the limit


class TestPresetsAndSelftest:
    def test_named_preset_loads(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", "spiked-ball", "--out", str(out), "oracle"]) == 0

    def test_unknown_config(self, tmp_path):
        assert main(["--config", "no-such-thing", "--out", str(tmp_path), "envelope"]) == 2

    def test_selftest(self):
        assert main(["selftest"]) == 0
