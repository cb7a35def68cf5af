"""Spans around the public functions of each lsmlab layer, and the arithmetic
that turns them into per-layer metrics.

The wrappers are installed from outside the package, by replacing each
function where its caller looks it up (a module attribute or a class
attribute); nothing inside lsmlab changes. Spans are kept in memory as
``[id, name, start, end, parent, case, count]`` lists and written out when
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time

MODULES = ("gain", "envelope", "oracle", "majorant", "pathsim", "harmonic", "geometry", "cli")

# Inclusive time of these spans, summed over a pass, is a per-layer metric.
TIMED = {
    "gain.build": "gain.build_s",
    "envelope.unbranched": "envelope.unbranched_s",
    "envelope.refine": "envelope.refine_s",
    "envelope.balayage": "envelope.balayage_s",
    "envelope.contact_set": "envelope.contact_set_s",
    "envelope.witness": "envelope.witness_s",
    "oracle.psor": "oracle.psor_s",
    "oracle.radial": "oracle.radial_s",
    "majorant.matching_error": "majorant.matching_error_s",
    "pathsim.batch": "pathsim.batch_s",
    "pathsim.payoff_wos": "pathsim.payoff_wos_s",
    "pathsim.payoff_euler": "pathsim.payoff_euler_s",
    "harmonic.wos": "harmonic.wos_s",
    "geometry.sd_analytic": "geometry.sd_analytic_s",
    "geometry.sd_grid": "geometry.sd_grid_s",
    "cli.write": "cli.write_s",
}
# Number of spans of these names.
CALLS = {"envelope.refine": "envelope.refine_calls", "harmonic.wos": "harmonic.wos_calls"}
# Sum of the count field of these spans.
COUNTS = {"cli.write": "cli.bytes_written", "geometry.sd_analytic": "harmonic.walk_steps",
          "geometry.sd_grid": "harmonic.walk_steps"}


class Recorder:
    """Collects spans from every thread of one worker process.

    A span opened on a thread with no open span (a pool worker) is parented
    to ``root``, the operation span the worker set, so that self time sees
    work done on other threads.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.case = ""
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> tuple[int, int | None]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(sid)
        return sid, parent

    def close(self, sid: int, parent: int | None, name: str, start: float, end: float,
              count: int = 0) -> None:
        self._stack().pop()
        self.spans.append([sid, name, start, end, parent, self.case, count])

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """Run fn inside a span; ``count(args, result)`` fills the count field."""
        sid, parent = self.open()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.close(sid, parent, name, start, time.perf_counter())
            raise
        end = time.perf_counter()
        self.close(sid, parent, name, start, end, count(args, result) if count else 0)
        return result

    def operation(self, name: str, fn, *args, **kwargs):
        """Run one benchmark operation as a root span; returns (result, span id)."""
        sid, parent = self.open()
        self.root = sid
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs), sid
        finally:
            self.close(sid, parent, name, start, time.perf_counter())
            self.root = None


def _wrap(rec: Recorder, fn, name, count=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        label = name(args, kwargs) if callable(name) else name
        return rec.call(label, fn, *args, count=count, **kwargs)
    return traced


def _file_bytes(args, _result) -> int:
    return os.path.getsize(args[1])


def _points(args, _result) -> int:
    pts = args[1]
    shape = getattr(pts, "shape", None)
    return shape[0] if shape is not None and len(shape) == 2 else 1


def _has_deadline(rule) -> bool:
    """Whether payoff_estimate takes the Euler path for this rule. Kept here,
    not borrowed from lsmlab's private helper, so the benchmark does not
    break when that helper changes."""
    from lsmlab.pathsim import EarlierOf, FixedTime
    if isinstance(rule, FixedTime):
        return True
    if isinstance(rule, EarlierOf):
        return _has_deadline(rule.first) or _has_deadline(rule.second)
    return False


def _payoff_name(args, kwargs) -> str:
    rule = args[1] if len(args) > 1 else kwargs["rule"]
    return "pathsim.payoff_euler" if _has_deadline(rule) else "pathsim.payoff_wos"


def _sd_name(args, _kwargs) -> str:
    from lsmlab.geometry import GridRegion
    return "geometry.sd_grid" if isinstance(args[0], GridRegion) else "geometry.sd_analytic"


def install(rec: Recorder) -> None:
    """Wrap every traced function, for the life of the worker process."""
    table = [
        ("lsmlab.cli", "gain_from_config", "gain.build", None),
        ("lsmlab.cli", "unbranched_envelope", "envelope.unbranched", None),
        # Not metrics of their own: these spans move the loop's and the
        # cross-check's own work from the command's self time to their module.
        ("lsmlab.cli", "iterate_envelopes", "envelope.iterate", None),
        ("lsmlab.cli", "cross_validate", "oracle.cross_validate", None),
        ("lsmlab.envelope", "envelope_step", "envelope.refine", None),
        ("lsmlab.envelope", "contact_set", "envelope.contact_set", None),
        ("lsmlab.cli", "balayage_step", "envelope.balayage", None),
        ("lsmlab.cli", "build_branched_witness", "envelope.witness", None),
        ("lsmlab.cli", "psor_obstacle_solve", "oracle.psor", None),
        ("lsmlab.cli", "radial_value_oracle", "oracle.radial", None),
        ("lsmlab.cli", "matching_error", "majorant.matching_error", None),
        ("lsmlab.cli", "run_algorithm1_batch", "pathsim.batch", None),
        ("lsmlab.pathsim", "payoff_estimate", _payoff_name, None),
        ("lsmlab.pathsim", "wos_exit_batch", "harmonic.wos", None),
        # Walk steps are counted only where the walk asks for distances; the
        # grid versus closed-form split is taken at both lookups.
        ("lsmlab.harmonic", "signed_distance", _sd_name, _points),
        ("lsmlab.pathsim", "signed_distance", _sd_name, None),
        ("lsmlab.envelope:GridField", "to_csv", "cli.write", _file_bytes),
        ("lsmlab.oracle:RadialProfile", "to_csv", "cli.write", _file_bytes),
        ("lsmlab.cli", "save_mask_csv", "cli.write", _file_bytes),
        ("lsmlab.cli", "trace_to_csv", "cli.write", _file_bytes),
        ("lsmlab.cli", "dump_tree_json", "cli.write", _file_bytes),
    ]
    for where, attr, name, count in table:
        module, _, cls = where.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        setattr(owner, attr, _wrap(rec, getattr(owner, attr), name, count))


# ---------------------------------------------------------------------------
# Arithmetic on recorded spans
# ---------------------------------------------------------------------------

def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for sid, _name, start, end, parent, _case, _count in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {sid: (end - start) - covered(children.get(sid, []), start, end)
            for sid, _name, start, end, _parent, _case, _count in spans}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer inclusive times, call counts, counts and self times."""
    out: dict[str, float] = {m: 0.0 for m in TIMED.values()}
    out.update({m: 0 for m in CALLS.values()})
    out.update({m: 0 for m in COUNTS.values()})
    out.update({f"{m}.self_s": 0.0 for m in MODULES})
    own = self_times(spans)
    for sid, name, start, end, _parent, _case, count in spans:
        if name in TIMED:
            out[TIMED[name]] += end - start
        if name in CALLS:
            out[CALLS[name]] += 1
        if name in COUNTS:
            out[COUNTS[name]] += count
        module = name.split(".", 1)[0]
        if module in MODULES:
            out[f"{module}.self_s"] += own[sid]
    return out


def parallelism(spans: list[list], name: str, root: int) -> float:
    """Summed busy time of ``name`` spans under ``root`` over their wall time."""
    mine = [(s[2], s[3]) for s in spans if s[1] == name and s[4] == root]
    if not mine:
        return 0.0
    wall = max(b for _, b in mine) - min(a for a, _ in mine)
    return sum(b - a for a, b in mine) / wall if wall > 0 else 0.0
