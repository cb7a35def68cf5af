"""The benchmark's tracer wraps lsmlab functions by name; a rename must fail here."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


# After the tracer is installed, every wrapper on an lsmlab module or class
# must wrap an unwrapped function: a class reached under two traced names (a
# subclass, or an alias of another traced class) would be wrapped twice and
# counted twice.
NO_DOUBLE_WRAP = """
import importlib, inspect, pkgutil
import lsmlab, tracing
tracing.install(tracing.Recorder())
owners = []
for info in pkgutil.iter_modules(lsmlab.__path__):
    if info.name != "__main__":
        module = importlib.import_module(f"lsmlab.{info.name}")
        owners += [module] + [c for c in vars(module).values()
                              if inspect.isclass(c) and c.__module__.startswith("lsmlab")]
twice = sorted({f"{getattr(o, '__name__', o)}.{name}" for o in owners
                for name, fn in vars(o).items()
                if hasattr(getattr(fn, "__wrapped__", None), "__wrapped__")})
assert not twice, f"wrapped twice: {twice}"
"""


def _run_with_tracer(code: str) -> subprocess.CompletedProcess:
    paths = [str(REPO / "perfbench"), str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)


def test_tracer_installs_on_every_traced_attribute():
    proc = _run_with_tracer("import tracing; tracing.install(tracing.Recorder())")
    assert proc.returncode == 0, proc.stderr


def test_tracer_wraps_no_function_twice():
    proc = _run_with_tracer(NO_DOUBLE_WRAP)
    assert proc.returncode == 0, proc.stderr
