"""The benchmark's three workloads: inputs made from a seed, ops, output checks.

Each workload class builds its inputs from the benchmark seed alone and
hands out cycles of ops.  A cycle is a fixed mix, so a run that stops after
whole cycles always measures the same proportions of op kinds.  Ops look
ltcsim functions up on their module when they run, so the tracer's wrappers
(tracing.py) see exactly the calls the program makes.

The module needs ``src`` of the checkout on ``sys.path`` before import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ltcsim import approx, cli, expr, solver, verify
from ltcsim import io as ltcio

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).parent / "reference.json"
# sup_traj_error must match the value recorded at the seed commit to this
# relative tolerance; reordered float sums move it by ~1e-12, a changed
# algorithm by far more.
SUP_RTOL = 1e-6

FIELDS = {
    "rotation": (("x2", "-x1"), ((-1.5, 1.5), (-1.5, 1.5))),
    "pendulum": (("x2", "-sin(x1)"), ((-2.0, 2.0), (-2.0, 2.0))),
}
# Van der Pol: fails today at every width with OverflowError from
# math.expm1 in check_tau_conditions (l_gtilde * horizon is 2e3..1e4).
STIFF_FIELD = (("x2", "(1 - x1^2)*x2 - x1"), ((-2.5, 2.5), (-3.0, 3.0)))
WIDTHS = (32, 64, 128)
# Fit seeds whose l_gtilde * horizon stays below the expm1 overflow for every
# field and width above; 16 of the first 24 seeds overflow on pendulum N=32
# (the defect the stiff-field probe measures).
FIT_SEEDS = (0, 4, 7, 8, 13, 14, 22, 23)
X0 = (1.0, 0.0)
HORIZON = 2.0
MAX_CYCLES = 64

ENSEMBLE_POOL = 1536
ENSEMBLE_DT = 1e-3
ENSEMBLE_T_END = 1.0
ENSEMBLE_INJECT_P = 0.25
MONITOR_TOL = 1e-6
METHODS = (solver.Method.EULER, solver.Method.RK4, solver.Method.SEMI_IMPLICIT)

CLI_WIDTH = 256
CLI_HORIZON = 0.2
CLI_X0_SET = ((1.0, 0.0), (0.0, 1.0), (-0.6, 0.8), (0.8, -0.6))
CLI_KINDS = ("bounds", "simulate", "verify", "approximate")
CLI_OP_TIMEOUT_S = 120.0


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` is not."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    ref_key: tuple | None = None  # what fixes an approx op's reference solve


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _reference() -> dict:
    """Values recorded at the seed commit by record_reference.py."""
    return json.loads(REFERENCE_PATH.read_text())


def _field(spec):
    exprs, domain = spec
    return expr.parse_field(list(exprs), [list(r) for r in domain])


def _sup_check(value: float, want: float) -> list:
    if math.isfinite(value) and abs(value - want) <= SUP_RTOL * abs(want):
        return []
    return [f"sup_traj_error {value!r} != recorded {want!r} (rtol {SUP_RTOL})"]


def stiff_field_probe() -> str | None:
    """Untimed stiff-field probe, once per run; returns the failure, or None."""
    try:
        report = approx.approximate_trajectory(
            _field(STIFF_FIELD), X0, HORIZON, approx.PipelineConfig(n_features=64)
        )
    except Exception as exc:  # any failure of the probe is the measurement
        return f"{type(exc).__name__}: {exc}"
    if not math.isfinite(report.sup_traj_error):
        return f"non-finite sup_traj_error {report.sup_traj_error!r}"
    return None


class PipelineSweep:
    """In-process approximate_trajectory over two fields and three widths."""

    name = "pipeline-sweep"
    min_cycles = 2  # keeps ok_ops_ratio (one probe per run) near 12/13 on slow hosts

    def __init__(self, seed: int, workdir: Path, write: bool = False):
        self.fields = {name: _field(spec) for name, spec in FIELDS.items()}
        pairs = [(f, n) for f in FIELDS for n in WIDTHS]
        rng = np.random.default_rng(seed)
        self.schedule = [
            [(*pairs[j], int(rng.choice(FIT_SEEDS))) for j in rng.permutation(len(pairs))]
            for _ in range(MAX_CYCLES)
        ]
        self.digest = _digest(FIELDS, X0, HORIZON, self.schedule)

    def trace_with(self, tracer):
        self.fields = {k: tracer.traced_field(f) for k, f in self.fields.items()}

    def cycle(self, c: int) -> list:
        return [self._op(*spec) for spec in self.schedule[c % MAX_CYCLES]]

    def _op(self, fname: str, width: int, fit_seed: int) -> Op:
        fld = self.fields[fname]
        config = approx.PipelineConfig(n_features=width, seed=fit_seed)
        want = _reference()["pipeline"][f"{fname}/{width}/{fit_seed}"]
        return Op(
            "pipeline",
            lambda: approx.approximate_trajectory(fld, X0, HORIZON, config),
            lambda report: _sup_check(report.sup_traj_error, want),
            ref_key=(fname, X0, HORIZON, config.ltc_dt, config.ref_dt),
        )

    probe = staticmethod(stiff_field_probe)

    def finish(self) -> list:
        return []


def _oracle_tau(net) -> list:
    """Closed-form tau interval per neuron, computed independently of verify."""
    full = [p.g_leak for p in net.neurons]
    empty = list(full)
    for s in net.chem:
        full[s.dst] += s.w
    for g in net.gaps:
        for k in (g.a, g.b):
            full[k] += g.w_hat
            empty[k] += g.w_hat
    return [
        (p.cm / f, p.cm / e if e > 0 else math.inf)
        for p, f, e in zip(net.neurons, full, empty)
    ]


def _oracle_box(net) -> list:
    boxes = []
    for i, p in enumerate(net.neurons):
        erevs = [s.e_rev for s in net.chem if s.dst == i]
        boxes.append((min([p.v_leak, *erevs]), max([p.v_leak, *erevs])))
    return boxes


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b))


class SmallEnsemble:
    """Random 2-8 neuron networks: simulate, monitor, tau and state bounds."""

    name = "small-ensemble"
    min_cycles = 1

    def __init__(self, seed: int, workdir: Path, write: bool = False):
        rng = np.random.default_rng(seed)
        block = [(chem, m) for chem in (True, False) for m in METHODS]
        self.pool = []
        while len(self.pool) < ENSEMBLE_POOL:
            for j in rng.permutation(len(block)):
                self.pool.append(self._make(rng, *block[j]))
        self.block = len(block)
        self.digest = _digest(self.pool)

    @staticmethod
    def _make(rng, chemical_only: bool, method):
        net = verify.random_network(rng, chemical_only=chemical_only)
        while not (chemical_only or net.gaps):
            net = verify.random_network(rng)
        injected = ()
        if chemical_only:
            boxes = _oracle_box(net)
            u0 = [float(rng.uniform(lo, hi)) for lo, hi in boxes]
            if rng.uniform() < ENSEMBLE_INJECT_P:
                k = int(rng.integers(1, 4))
                n_rows = round(ENSEMBLE_T_END / ENSEMBLE_DT) + 1
                rows = rng.choice(np.arange(1, n_rows), size=k, replace=False)
                injected = []
                for row in rows:
                    neuron = int(rng.integers(net.size))
                    lo, hi = boxes[neuron]
                    offset = float(rng.uniform(0.5, 1.5))
                    if rng.uniform() < 0.5:
                        injected.append((int(row), neuron, "STATE_LOW", lo - offset))
                    else:
                        injected.append((int(row), neuron, "STATE_HIGH", hi + offset))
                injected = tuple(injected)
        else:
            u0 = [float(v) for v in rng.uniform(-1.0, 1.0, net.size)]
        return net, method, tuple(u0), injected

    def trace_with(self, tracer):
        pass

    def cycle(self, c: int) -> list:
        start = (c * self.block) % len(self.pool)
        return [self._op(*spec) for spec in self.pool[start:start + self.block]]

    def _op(self, net, method, u0, injected) -> Op:
        config = solver.SolverConfig(method, ENSEMBLE_DT, ENSEMBLE_T_END, 1)

        def run():
            traj = solver.simulate(net, u0, config)
            clean = verify.monitor_trajectory(traj, net, MONITOR_TOL)
            dirty = None
            if injected:
                states = traj.states.copy()
                for row, neuron, _, value in injected:
                    states[row, neuron] = value
                dirty = verify.monitor_trajectory(
                    solver.Trajectory(traj.times, states), net, MONITOR_TOL
                )
            taus = [verify.tau_bounds(i, net) for i in range(net.size)]
            boxes = None if net.gaps else verify.state_bounds(net)
            return traj, clean, dirty, taus, boxes

        def check(out) -> list:
            traj, clean, dirty, taus, boxes = out
            problems = []
            n_rows = round(ENSEMBLE_T_END / ENSEMBLE_DT) + 1
            if traj.states.shape != (n_rows, net.size) or traj.times[-1] != ENSEMBLE_T_END:
                problems.append(f"trajectory shape {traj.states.shape}")
            if clean.entries:
                problems.append(f"{len(clean.entries)} violations on a clean trajectory")
            if injected:
                want = sorted((float(traj.times[r]), n, k) for r, n, k, _ in injected)
                got = sorted((v.time, v.neuron, v.kind.value) for v in dirty.entries)
                if got != want:
                    problems.append(f"injected violations {got} != expected {want}")
            for t, (lo, hi) in zip(taus, _oracle_tau(net)):
                if not (_close(t.tau_min, lo) and _close(t.tau_max, hi)):
                    problems.append(f"tau interval {t} != closed form ({lo}, {hi})")
            if boxes is not None:
                got = [(b.lo, b.hi) for b in boxes]
                if got != _oracle_box(net):
                    problems.append(f"state boxes {got} != closed form")
            return problems

        return Op("ensemble", run, check)

    def finish(self) -> list:
        return []


class CliFiles:
    """Sequential ``python -m ltcsim`` runs against a realized N=256 network."""

    name = "cli-files"
    min_cycles = 2  # the repeat check compares each cycle's files with the first
    in_process = False  # True drives the same argv through cli_dispatch

    def __init__(self, seed: int, workdir: Path, write: bool = False):
        rng = np.random.default_rng(seed)
        self.fit_seed = int(rng.choice(FIT_SEEDS))
        self.x0_index = int(rng.integers(len(CLI_X0_SET)))
        x0 = np.array(CLI_X0_SET[self.x0_index])
        fld = _field(FIELDS["rotation"])
        fit = approx.fit_feedforward(fld, CLI_WIDTH, seed=self.fit_seed)
        u0 = np.concatenate([fit.projection_matrix @ x0 + fit.bias, x0])
        self.size = u0.size
        self.workdir = workdir
        self.peak_rss_kb = 0
        self._first = {}
        out = workdir / "out"
        self.files = {
            "net": workdir / "net.json",
            "traj": out / "traj.csv",
            "net_out": out / "approx_net.json",
            "pair": out / "pair.csv",
            "report": out / "report.txt",
        }
        f = {k: str(v) for k, v in self.files.items()}
        field_exprs, domain = FIELDS["rotation"]
        self.argv = {
            "bounds": ["bounds", "--net", f["net"]],
            "simulate": [
                "simulate", "--net", f["net"],
                "--init", ",".join(repr(float(v)) for v in u0),
                "--dt", "0.001", "--t-end", repr(CLI_HORIZON),
                "--method", "semi-implicit", "--out", f["traj"],
            ],
            "verify": ["verify", "--net", f["net"], "--traj", f["traj"]],
            "approximate": [
                "approximate", "--field", ";".join(field_exprs),
                "--domain", ",".join(f"{lo}:{hi}" for lo, hi in domain),
                "--x0", ",".join(repr(v) for v in x0.tolist()),
                "--horizon", repr(CLI_HORIZON), "--features", str(CLI_WIDTH),
                "--seed", str(self.fit_seed),
                "--out-net", f["net_out"], "--out-traj", f["pair"],
                "--report", f["report"],
            ],
        }
        if write:
            out.mkdir(parents=True, exist_ok=True)
            system = approx.assemble_augmented_system(
                fit, approx.PipelineConfig.tau_base, approx.PipelineConfig.w_l
            )
            ltcio.write_network(approx.realize_as_ltc(system), self.files["net"])
        self.digest = _digest(self.files["net"].read_bytes(), self.argv)

    def trace_with(self, tracer):
        pass

    probe = staticmethod(stiff_field_probe)

    def cycle(self, c: int) -> list:
        return [self._op(kind) for kind in CLI_KINDS]

    def _stdout_path(self, kind: str) -> Path:
        return self.workdir / "out" / f"{kind}.stdout"

    def _spawn(self, kind: str) -> int:
        """Run one subprocess op; records the child's peak RSS."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(self._stdout_path(kind), "wb") as out, \
                open(self.workdir / "out" / f"{kind}.stderr", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "ltcsim", *self.argv[kind]],
                stdout=out, stderr=err, env=env, cwd=self.workdir,
            )
        timer = threading.Timer(CLI_OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def _dispatch(self, kind: str) -> int:
        """Run one op in this process through cli_dispatch (traced runs)."""
        out, err = _stdio.StringIO(), _stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.cli_dispatch(list(self.argv[kind]))
        self._stdout_path(kind).write_text(out.getvalue(), encoding="utf-8")
        return code

    def _op(self, kind: str) -> Op:
        run = (lambda: self._dispatch(kind)) if self.in_process else (lambda: self._spawn(kind))
        return Op(kind, run, lambda code: self._check(kind, code),
                  ref_key=("rotation", self.x0_index, CLI_HORIZON)
                  if kind == "approximate" else None)

    def _outputs(self, kind: str) -> list:
        names = {"simulate": ["traj"], "approximate": ["net_out", "pair", "report"]}
        return [self._stdout_path(kind)] + [self.files[n] for n in names.get(kind, [])]

    def _check(self, kind: str, code: int) -> list:
        if code != 0:
            return [f"{kind} exited with {code}"]
        text = self._stdout_path(kind).read_text(encoding="utf-8")
        lines = text.splitlines()
        problems = []
        if kind == "bounds":
            for tag in ("TAU", "BOX"):
                if sum(ln.startswith(tag + " ") for ln in lines) != self.size:
                    problems.append(f"bounds printed no {tag} line for some neuron")
        elif kind == "simulate":
            n_rows = round(CLI_HORIZON / 1e-3) + 1
            if lines != [f"wrote {n_rows} states to {self.files['traj']}"]:
                problems.append(f"simulate printed {lines[:1]}")
        elif kind == "verify":
            if not lines or not lines[0].startswith("OK: no violations"):
                problems.append(f"verify found violations: {lines[:2]}")
        else:
            got = [float(ln.split("=")[1]) for ln in lines if ln.startswith("sup_traj_error")]
            want = _reference()["cli"][f"{self.fit_seed}/{self.x0_index}"]
            problems += _sup_check(got[0] if got else math.nan, want)
            if self.files["net_out"].read_bytes() != self.files["net"].read_bytes():
                problems.append("approximate realized a network unlike the set-up one")
        digests = [_digest(p.read_bytes()) for p in self._outputs(kind)]
        if self._first.setdefault(kind, digests) != digests:
            problems.append(f"{kind} wrote different bytes than in the first cycle")
        return problems

    def finish(self) -> list:
        """Round-trip the network document and the simulated CSV."""
        problems = []
        text = self.files["net"].read_text(encoding="utf-8")
        net = ltcio.parse_network(text)
        if ltcio.serialize_network(net) != text or ltcio.parse_network(text) != net:
            problems.append("network JSON does not round-trip")
        csv = self.files["traj"].read_text(encoding="utf-8")
        if ltcio.trajectory_to_csv(ltcio.trajectory_from_csv(csv)) != csv:
            problems.append("trajectory CSV does not read back bit-exact")
        return problems


WORKLOADS = {w.name: w for w in (PipelineSweep, SmallEnsemble, CliFiles)}
