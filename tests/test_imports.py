"""What an lsmlab process loads: scipy.sparse at import, and no scipy.ndimage,
scipy.spatial or scipy.signal for a CLI import, an envelope run, a Cartesian
contact-hit rule or a Cartesian paths run (each would cost start-up time; the
grid geometry is numpy only).  Nor does a CLI import or a mollified envelope
run load the thread-pool executor: ``mollify`` runs its threads with
``threading``.  (``concurrent.futures`` itself comes with numpy.testing, which
scipy loads; its executor module ``concurrent.futures.thread`` does not.)"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

UNUSED = ("scipy.ndimage", "scipy.spatial", "scipy.signal")

RADIAL = {
    "gain": {"kind": "spiked", "epsilon": 0.05, "mollify": 0.01, "gstar_margin": 0.25},
    "dim": 2,
    "grid": {"kind": "radial", "nodes": 256, "r_min": 0.001},
}
CARTESIAN = {
    "gain": {"kind": "radial-bump", "center_radius": 0.3, "width": 0.15, "gstar_margin": 0.25},
    "dim": 2,
    "grid": {"kind": "cartesian", "nodes": 33},
}

# An off-centre gain is mollified by the same radial quadrature as a radial one.
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

PROBE = """
import sys
import lsmlab, lsmlab.cli
assert "scipy.sparse" in sys.modules, "scipy.sparse is not loaded at import"
command, runs = sys.argv[1], sys.argv[2:]
for i in range(0, len(runs), 2):
    assert lsmlab.cli.main(["--config", runs[i], "--out", runs[i + 1], command]) == 0
print(" ".join(sorted(m for m in {unused!r} if m in sys.modules)))
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
print(" ".join(sorted(m for m in {unused!r} if m in sys.modules)))
"""


def run_probe(tmp_path, source: str, *argv) -> list[str]:
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", source, *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def loaded_after(tmp_path, *configs, command: str = "envelope", unused=UNUSED) -> list[str]:
    argv = []
    for k, config in enumerate(configs):
        path = tmp_path / f"config-{k}.json"
        path.write_text(json.dumps(config))
        argv += [str(path), str(tmp_path / f"out-{k}")]
    return run_probe(tmp_path, PROBE.format(unused=unused), command, *argv)


def test_cli_import_loads_no_unused_scipy_module(tmp_path):
    assert loaded_after(tmp_path) == []


def test_cli_import_and_mollify_load_no_thread_pool_executor(tmp_path):
    # The radial config's gain is mollified.
    assert loaded_after(tmp_path, RADIAL, unused=("concurrent.futures.thread",)) == []


@pytest.mark.parametrize("config", [RADIAL, CARTESIAN, CARTESIAN_MOLLIFIED],
                         ids=["radial", "cartesian-33", "cartesian-33-offset-mollified"])
def test_envelope_loads_no_unused_scipy_module(tmp_path, config):
    assert loaded_after(tmp_path, config) == []


def test_cartesian_contact_hit_loads_no_unused_scipy_module(tmp_path):
    # Building the rule fills its region's signed-distance table.
    probe = CONTACT_HIT_PROBE.format(gain=CARTESIAN_OFFSET["gain"],
                                     nodes=CARTESIAN_OFFSET["grid"]["nodes"], unused=UNUSED)
    assert run_probe(tmp_path, probe) == []


def test_cartesian_paths_loads_no_unused_scipy_module(tmp_path):
    # The witness shrinks a grid region: distance table, Gaussian and Hausdorff.
    assert loaded_after(tmp_path, CARTESIAN_OFFSET, command="paths") == []
