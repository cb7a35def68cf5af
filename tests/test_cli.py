"""CLI contract: subcommands, exit codes, reproducibility, file formats."""

import json
from pathlib import Path

from lsmlab.cli import main

FAST_SPIKED = {
    "gain": {"kind": "spiked", "epsilon": 0.05, "mollify": 0.01, "gstar_margin": 0.25},
    "dim": 2,
    "grid": {"kind": "radial", "nodes": 512, "r_min": 0.001},
    "envelope": {"max_iter": 16, "tol": 1e-09, "contact_tol": 1e-09},
    "paths": {"n_paths": 400, "seed": 7, "scheme": "wos-jump", "sample_traces": 1,
              "probe": [0.3, 0.0]},
    "oracle": {"radial": True, "psor": False},
}


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


class TestThreads:
    def test_thread_count_does_not_change_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SPIKED)
        out1, out2 = tmp_path / "t1", tmp_path / "t3"
        assert main(["--config", cfg, "--out", str(out1), "--threads", "1", "paths"]) == 0
        assert main(["--config", cfg, "--out", str(out2), "--threads", "3", "paths"]) == 0
        assert read_all(out1) == read_all(out2)


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
