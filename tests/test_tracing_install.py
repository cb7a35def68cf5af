"""The benchmark's tracer wraps lsmlab functions by name; a rename must fail here."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_every_traced_attribute():
    code = "import tracing; tracing.install(tracing.Recorder())"
    paths = [str(REPO / "perfbench"), str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
