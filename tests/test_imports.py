"""What an lsmlab process loads.

No scipy module at all: not at ``import lsmlab.cli``, and not in any command
on a radial config, a Cartesian config or a Cartesian ``paths`` run (the
Cartesian solver and the grid geometry are numpy only).  A command run after
``import lsmlab.cli`` loads no new module, so import costs stay in start-up
and out of the first command.  Nor does a CLI import or a mollified envelope
run load the thread-pool executor: lsmlab starts no threads of its own.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

RADIAL = {
    "gain": {"kind": "spiked", "epsilon": 0.05, "mollify": 0.01, "gstar_margin": 0.25},
    "dim": 2,
    "grid": {"kind": "radial", "nodes": 256, "r_min": 0.001},
    "paths": {"n_paths": 64, "probe": [0.3, 0.0]},
    "oracle": {"radial": True},
}
CARTESIAN = {
    "gain": {"kind": "radial-bump", "center_radius": 0.3, "width": 0.15, "gstar_margin": 0.25},
    "dim": 2,
    "grid": {"kind": "cartesian", "nodes": 33},
    "oracle": {"radial": True, "psor": True},
}

# An off-centre gain is mollified by the same rule about its centre as a radial one.
CARTESIAN_MOLLIFIED = {
    "gain": {"kind": "offset-bump", "center": [0.4, 0.0], "radius": 0.15, "mollify": 0.01,
             "gstar_margin": 0.25},
    "dim": 2,
    "grid": {"kind": "cartesian", "nodes": 33},
}

# The grid-payoff rule of the benchmark's monte-carlo set-up, at 65².
CARTESIAN_OFFSET = {
    "gain": {"kind": "offset-bump", "center": [0.4, 0.0], "radius": 0.15, "gstar_margin": 0.25},
    "dim": 2,
    "grid": {"kind": "cartesian", "nodes": 65},
    "paths": {"n_paths": 64, "probe": [-0.3, 0.0]},
}

# Prints, as JSON, the scipy modules loaded at import and at the end, and
# each command's modules that were not loaded before it.
PROBE = """
import json, sys
import lsmlab, lsmlab.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
report = {{"import": scipy_modules(), "new": {{}}}}
runs = sys.argv[1:]
for i in range(0, len(runs), 3):
    command, config, out = runs[i:i + 3]
    before = set(sys.modules)
    assert lsmlab.cli.main(["--config", config, "--out", out, *command.split()]) == 0, command
    report["new"][command] = sorted(set(sys.modules) - before)
report["end"] = scipy_modules()
report["loaded"] = sorted(m for m in {watch!r} if m in sys.modules)
print(json.dumps(report))
"""

CONTACT_HIT_PROBE = """
import sys
from lsmlab.envelope import contact_set, unbranched_envelope
from lsmlab.gain import gain_from_config
from lsmlab.pathsim import ContactHit
gain = gain_from_config({gain!r})
w1 = unbranched_envelope(gain, {nodes}).field
rule = ContactHit(contact=contact_set(w1, gain), grid=w1)
assert rule.region is not None and rule.region.mask.any()
print(" ".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def run_probe(tmp_path, source: str, *argv) -> str:
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", source, *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_commands(tmp_path, config: dict | None, *commands: str, watch=()) -> dict:
    """Import ``lsmlab.cli``, then run each command on the config, in one process."""
    argv = []
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        for k, command in enumerate(commands):
            argv += [command, str(path), str(tmp_path / f"out-{k}")]
    stdout = run_probe(tmp_path, PROBE.format(watch=tuple(watch)), *argv)
    return json.loads(stdout.splitlines()[-1])  # after any command's own lines


def test_cli_import_loads_no_unused_scipy_module(tmp_path):
    assert run_commands(tmp_path, None)["import"] == []


def test_cli_import_and_mollify_load_no_thread_pool_executor(tmp_path):
    # The radial config's gain is mollified.
    report = run_commands(tmp_path, RADIAL, "envelope", watch=["concurrent.futures.thread"])
    assert report["loaded"] == []


@pytest.mark.parametrize("config", [RADIAL, CARTESIAN, CARTESIAN_MOLLIFIED],
                         ids=["radial", "cartesian-33", "cartesian-33-offset-mollified"])
def test_envelope_loads_no_unused_scipy_module(tmp_path, config):
    assert run_commands(tmp_path, config, "envelope")["end"] == []


def test_cartesian_contact_hit_loads_no_unused_scipy_module(tmp_path):
    # Building the rule fills its region's signed-distance table.
    probe = CONTACT_HIT_PROBE.format(gain=CARTESIAN_OFFSET["gain"],
                                     nodes=CARTESIAN_OFFSET["grid"]["nodes"])
    assert run_probe(tmp_path, probe).split() == []


def test_cartesian_paths_loads_no_unused_scipy_module(tmp_path):
    # The witness shrinks a grid region: distance table, Gaussian and Hausdorff.
    assert run_commands(tmp_path, CARTESIAN_OFFSET, "paths")["end"] == []


@pytest.mark.parametrize("config, commands", [
    (RADIAL, ["envelope", "balayage", "oracle", "reproduce spiked-ball", "paths"]),
    (CARTESIAN, ["envelope", "balayage", "oracle"]),
    (CARTESIAN_OFFSET, ["paths"]),
], ids=["radial", "cartesian", "cartesian-paths"])
def test_commands_after_import_load_no_new_module(tmp_path, config, commands):
    report = run_commands(tmp_path, config, *commands)
    assert report["new"] == {command: [] for command in commands}
    assert report["end"] == []
