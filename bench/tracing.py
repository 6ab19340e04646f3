"""Spans around calls into ltcsim's modules, recorded from outside the program.

The tracer replaces a function with a timing wrapper under the name its
caller looks it up by (``ltcsim.solver.network_derivative`` is what the
solver calls, ``ltcsim.approx.simulate`` what the pipeline calls), so no
program file changes.  Each span is (name, parent, start, end); spans are
kept in flat arrays in memory and written out when the run ends.  A
wrapped name that no longer exists is reported as missing and skipped.

Every per-layer metric is derived from the spans and a few counters in
``layer_metrics``.  Seconds and counts are per timed op of the traced run;
``cli.<command>_s`` is per op of that command.
"""

from __future__ import annotations

import contextlib
import copy
import importlib
import math
import statistics
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np


def _solver_steps(config) -> int:
    """Steps the fixed-step solver takes: full dt steps plus a short last one."""
    n_full = int(math.floor(config.t_end / config.dt + 1e-9))
    remainder = config.t_end - n_full * config.dt
    return n_full + (1 if remainder > config.dt * 1e-9 else 0)


def _config_arg(args, kwargs):
    return kwargs["config"] if "config" in kwargs else args[2]


def _count_synapses(t, args, kwargs, result):
    t["model.synapse_evals"] += len(args[1].chem)


def _count_steps(t, args, kwargs, result):
    t["solver.steps"] += _solver_steps(_config_arg(args, kwargs))


def _count_network(t, args, kwargs, result):
    _count_steps(t, args, kwargs, result)
    t.networks.append(args[0])


def _count_rows(t, args, kwargs, result):
    t["verify.rows"] += len(args[0].times)
    t["verify.violations"] += len(result.entries)


def _count_json_in(t, args, kwargs, result):
    t["io.network_bytes"] += len(args[0])


def _count_json_out(t, args, kwargs, result):
    t["io.network_bytes"] += len(result)


def _count_csv_in(t, args, kwargs, result):
    t["io.csv_bytes"] += len(args[0])


def _count_csv_out(t, args, kwargs, result):
    t["io.csv_bytes"] += len(result)


# (module the caller looks the name up in, attribute, callee as layer.function,
#  counter hook).  A hook runs after its span closes; its small cost lands in
# the caller's self time.
PATCHES = [
    ("ltcsim.solver", "network_derivative", "model.network_derivative", _count_synapses),
    ("ltcsim.solver", "simulate", "solver.simulate", _count_network),
    ("ltcsim.approx", "approximate_trajectory", "approx.approximate_trajectory", None),
    ("ltcsim.approx", "estimate_lipschitz", "approx.estimate_lipschitz", None),
    ("ltcsim.approx", "fit_feedforward", "approx.fit_feedforward", None),
    ("ltcsim.approx", "assemble_augmented_system", "approx.assemble", None),
    ("ltcsim.approx", "estimate_gtilde_lipschitz", "approx.gtilde", None),
    ("ltcsim.approx", "check_tau_conditions", "approx.check_conditions", None),
    ("ltcsim.approx", "realize_as_ltc", "approx.realize", None),
    ("ltcsim.approx", "integrate_field", "solver.integrate_field", _count_steps),
    ("ltcsim.approx", "simulate", "solver.simulate", _count_network),
    ("ltcsim.verify", "monitor_trajectory", "verify.monitor_trajectory", _count_rows),
    ("ltcsim.verify", "state_bounds", "verify.state_bounds", None),
    ("ltcsim.verify", "tau_bounds", "verify.tau_bounds", None),
    ("ltcsim.io", "parse_network", "io.parse_network", _count_json_in),
    ("ltcsim.io", "serialize_network", "io.serialize_network", _count_json_out),
    ("ltcsim.io", "trajectory_to_csv", "io.trajectory_to_csv", _count_csv_out),
    ("ltcsim.io", "trajectory_from_csv", "io.trajectory_from_csv", _count_csv_in),
    ("ltcsim.cli", "cli_dispatch", "cli.cli_dispatch", None),
    ("ltcsim.cli", "parse_field", "expr.parse_field", None),
    ("ltcsim.cli", "read_network", "io.read_network", None),
    ("ltcsim.cli", "read_trajectory", "io.read_trajectory", None),
    ("ltcsim.cli", "write_network", "io.write_network", None),
    ("ltcsim.cli", "write_trajectory", "io.write_trajectory", None),
    ("ltcsim.cli", "simulate", "solver.simulate", _count_network),
    ("ltcsim.cli", "monitor_trajectory", "verify.monitor_trajectory", _count_rows),
    ("ltcsim.cli", "state_bounds", "verify.state_bounds", None),
    ("ltcsim.cli", "tau_bounds", "verify.tau_bounds", None),
    ("ltcsim.cli", "approximate_trajectory", "approx.approximate_trajectory", None),
]

APPROX_STAGES = {
    "approx.estimate_lipschitz_s": "approx:approx.estimate_lipschitz",
    "approx.fit_feedforward_s": "approx:approx.fit_feedforward",
    "approx.assemble_s": "approx:approx.assemble",
    "approx.gtilde_s": "approx:approx.gtilde",
    "approx.check_conditions_s": "approx:approx.check_conditions",
    "approx.realize_s": "approx:approx.realize",
    "approx.reference_solve_s": "approx:solver.integrate_field",
    "approx.network_solve_s": "approx:solver.simulate",
}


class Counters(defaultdict):
    """Counts kept beside the spans; ``networks`` holds each simulated network."""

    def __init__(self):
        super().__init__(float)
        self.networks = []


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = Counters()
        self.missing: list[str] = []
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None, post=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        nid = self._id(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack)
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return post(result) if post is not None else result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, e.g. one op."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def traced_field(self, fld):
        """A copy of a VectorField whose point evaluations are spans."""
        if not hasattr(fld, "fn"):
            self.missing.append("VectorField.fn")
            return fld
        traced = copy.copy(fld)
        traced.fn = self.wrap("expr.field", fld.fn)
        return traced

    def patch(self):
        for module_name, attr, callee, hook in PATCHES:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            caller = module_name.rsplit(".", 1)[-1]
            post = self.traced_field if attr == "parse_field" else None
            setattr(module, attr, self.wrap(f"{caller}:{callee}", original, hook, post))
            self._undo.append((module, attr, original))

    def unpatch(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def save(self, path: Path):
        """Write every span (and the name table) as one .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _channels(net) -> int:
    """Activation channels: distinct (src, gamma, mu) among the synapses."""
    return len({(s.src, s.gamma, s.mu) for s in net.chem})


def layer_metrics(tracer: Tracer, records, import_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of one traced run, as {name: (value, unit)}.

    ``records`` are the traced ops and ``untraced_s`` the wall time of the
    same ops run without tracing.
    """
    n_ops = max(len(records), 1)
    nid = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(
        tracer.start, dtype=np.float64)
    inner = parent >= 0
    covered = np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
    n_names = len(tracer.names)
    total_by = np.bincount(nid, weights=dur, minlength=n_names)
    self_by = np.bincount(nid, weights=dur - covered, minlength=n_names)
    count_by = np.bincount(nid, minlength=n_names)

    def pick(values, callee=None, name=None):
        return float(sum(
            values[i] for i, n in enumerate(tracer.names)
            if n == name or (callee is not None and n.rsplit(":", 1)[-1] == callee)
        ))

    def per_op(x):
        return x / n_ops

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    c = tracer.counters
    m = {}
    calls = pick(count_by, "model.network_derivative")
    self_s = pick(self_by, "model.network_derivative")
    m["model.network_derivative.calls"] = per_op(calls)
    m["model.network_derivative.self_s"] = per_op(self_s)
    m["model.network_derivative.us_per_call"] = ratio(self_s, calls, 1e6)
    m["model.synapse_evals"] = per_op(c["model.synapse_evals"])
    synapses = sum(len(net.chem) for net in c.networks)
    m["model.synapses_per_activation_channel"] = ratio(
        synapses, sum(_channels(net) for net in c.networks))

    sim_self = pick(self_by, "solver.simulate")
    field_self = pick(self_by, "solver.integrate_field")
    m["solver.steps"] = per_op(c["solver.steps"])
    m["solver.simulate.self_s"] = per_op(sim_self)
    m["solver.integrate_field.self_s"] = per_op(field_self)
    m["solver.us_per_step"] = ratio(sim_self + field_self, c["solver.steps"], 1e6)

    field_calls = pick(count_by, "expr.field")
    field_s = pick(self_by, "expr.field")
    m["expr.field_calls"] = per_op(field_calls)
    m["expr.field.self_s"] = per_op(field_s)
    m["expr.us_per_field_call"] = ratio(field_s, field_calls, 1e6)

    for metric, name in APPROX_STAGES.items():
        m[metric] = per_op(pick(total_by, name=name))
    pipeline_total = pick(total_by, "approx.approximate_trajectory")
    pipeline_self = pick(self_by, "approx.approximate_trajectory")
    m["approx.pipeline.self_s"] = per_op(pipeline_self)
    m["approx.stage_share"] = ratio(pipeline_total - pipeline_self, pipeline_total)
    keys = [r.op.ref_key for r in records if r.op.ref_key is not None]
    m["approx.repeated_reference_share"] = ratio(len(keys) - len(set(keys)), len(keys))
    errors = [r.sup for r in records if r.sup is not None]
    m["approx.sup_traj_error_p50"] = statistics.median(errors) if errors else 0.0

    monitor_self = pick(self_by, "verify.monitor_trajectory")
    m["verify.monitor.self_s"] = per_op(monitor_self)
    m["verify.rows"] = per_op(c["verify.rows"])
    m["verify.us_per_row"] = ratio(monitor_self, c["verify.rows"], 1e6)
    m["verify.state_bounds_s"] = per_op(pick(total_by, "verify.state_bounds"))
    m["verify.tau_bounds_s"] = per_op(pick(total_by, "verify.tau_bounds"))
    m["verify.violations"] = per_op(c["verify.violations"])

    m["io.parse_network_s"] = per_op(pick(total_by, "io.parse_network"))
    m["io.serialize_network_s"] = per_op(pick(total_by, "io.serialize_network"))
    m["io.network_mb"] = per_op(c["io.network_bytes"] / 1e6)
    m["io.trajectory_to_csv_s"] = per_op(pick(total_by, "io.trajectory_to_csv"))
    m["io.trajectory_from_csv_s"] = per_op(pick(total_by, "io.trajectory_from_csv"))
    m["io.csv_mb"] = per_op(c["io.csv_bytes"] / 1e6)

    for kind in ("bounds", "simulate", "verify", "approximate"):
        n = pick(count_by, name=f"op.{kind}")
        m[f"cli.{kind}_s"] = ratio(pick(total_by, name=f"op.{kind}"), n)
    m["cli.dispatch.self_s"] = per_op(pick(self_by, "cli.cli_dispatch"))

    m["cli.import_s"] = import_s
    m["trace.overhead_ratio"] = ratio(sum(r.wall_s for r in records), untraced_s)
    m["trace.spans"] = float(dur.size)
    m["trace.missing_spans"] = float(len(tracer.missing))
    return {name: (value, unit_of(name)) for name, value in m.items()}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name == "approx.sup_traj_error_p50":
        return "1"
    return "count"
