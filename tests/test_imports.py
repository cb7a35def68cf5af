"""What an lsmlab process loads: scipy.sparse at import, and no scipy.ndimage,
scipy.spatial or scipy.signal for a CLI import or an envelope run that needs
none of them (each costs start-up time in every command)."""

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

PROBE = """
import sys
import lsmlab, lsmlab.cli
assert "scipy.sparse" in sys.modules, "scipy.sparse is not loaded at import"
runs = sys.argv[1:]
for i in range(0, len(runs), 2):
    assert lsmlab.cli.main(["--config", runs[i], "--out", runs[i + 1], "envelope"]) == 0
print(" ".join(sorted(m for m in {unused!r} if m in sys.modules)))
"""


def loaded_after(tmp_path, *configs) -> list[str]:
    argv = []
    for k, config in enumerate(configs):
        path = tmp_path / f"config-{k}.json"
        path.write_text(json.dumps(config))
        argv += [str(path), str(tmp_path / f"out-{k}")]
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", PROBE.format(unused=UNUSED), *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_import_loads_no_unused_scipy_module(tmp_path):
    assert loaded_after(tmp_path) == []


@pytest.mark.parametrize("config", [RADIAL, CARTESIAN, CARTESIAN_MOLLIFIED],
                         ids=["radial", "cartesian-33", "cartesian-33-offset-mollified"])
def test_envelope_loads_no_unused_scipy_module(tmp_path, config):
    assert loaded_after(tmp_path, config) == []
