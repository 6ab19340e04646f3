"""Fixed-step integrators and trajectory recording.

Three schemes: explicit Euler, classical RK4, and a semi-implicit update
that freezes presynaptic states, writes each neuron as cm * dv/dt = A - B*v
and applies one backward-Euler step

    v  <-  (v + dt * A / cm) / (1 + dt * B / cm).

Because A/B always lies inside the chemical-synapse state box, the
semi-implicit step keeps chemical-only networks inside that box for any
step size.

All schemes are fixed step with no error control; if the horizon is not a
multiple of dt, one shortened final step lands exactly on t_end.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, IntegrationDivergedError
from .expr import _literal
from .model import (
    _EXP_MAX,
    LtcNetwork,
    _chem_activations,
    _count,
    _inflow,
    _per_synapse,
    network_derivative,
    validate_state,
)

__all__ = [
    "Method",
    "SolverConfig",
    "Trajectory",
    "simulate",
    "integrate_field",
]


# units = synapses + junctions + 3 * neurons.  A network (a block too) of at most
# _MAX_UNITS units steps on _compiled_run in runs of at least _UNIT_EVALS * units
# derivative evaluations.  A compile costs 0.3-1.1 ms at 24 units, 2.3-5.3 ms at
# 112-128; an Euler step then about 0.1 us per unit (arrays: 8-22 us; RK4 x4).
# The paths meet at 2.5-6.3 evaluations per unit up to 112 units and 4.5-8.4 at
# 120-128 (2 shared vCPUs; BENCH_15.json).  A block's sigmoids, one per source as on
# arrays: at N = 8 (110 units), 1,000 Euler steps take 5.2-5.5 ms compiled against
# 11 on arrays (BENCH_25.json).  Sigmoids carry no overflow guard: an exp overflow
# reruns the whole run compiled with ``guarded``.
_MAX_UNITS = 128
_UNIT_EVALS = 5
_MAX_STEPS = 2**50


class Method(enum.Enum):
    EULER = "euler"
    RK4 = "rk4"
    SEMI_IMPLICIT = "semi-implicit"


@dataclass(frozen=True)
class SolverConfig:
    method: Method = Method.RK4
    dt: float = 1e-3
    t_end: float = 1.0
    record_every: int = 1

    def __post_init__(self):
        object.__setattr__(self, "method", Method(self.method))
        if not (math.isfinite(self.dt) and math.isfinite(self.t_end)):
            raise ValueError(f"dt and t_end must be finite, got {self.dt} and {self.t_end}")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.t_end < self.dt:
            raise ValueError(f"t_end must be >= dt, got {self.t_end} < {self.dt}")
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError(f"t_end / dt must be finite, got {self.t_end} / {self.dt}")
        # no run of more steps could finish; up to it, the step times k * dt
        # stay more than 3/4 of a step apart, so they strictly increase
        if self.t_end / self.dt > _MAX_STEPS:
            raise ValueError(f"t_end / dt must be at most 2**50 steps, "
                             f"got {self.t_end} / {self.dt}")
        object.__setattr__(self, "record_every", _count(self.record_every, "record_every"))
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


@dataclass
class Trajectory:
    """Recorded states on a uniform grid (plus a possibly shorter final gap)."""

    times: np.ndarray   # (k,)
    states: np.ndarray  # (k, n_neurons)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim != 2 or self.times.ndim != 1:
            raise DimensionMismatchError("times must be 1-D and states 2-D")
        if self.times.shape[0] != self.states.shape[0]:
            raise DimensionMismatchError(
                f"{self.times.shape[0]} times vs {self.states.shape[0]} states"
            )
        if not np.isfinite(self.times).all():
            raise ValueError("trajectory times must be finite")
        if self.times.shape[0] == 0 or self.times[0] != 0.0:
            raise ValueError("trajectory times must start at 0")
        if (np.diff(self.times) <= 0).any():
            raise ValueError("trajectory times must be strictly increasing")

    @property
    def n_points(self) -> int:
        return self.times.shape[0]


def _rk4_update(f, u: np.ndarray, dt: float) -> np.ndarray:
    k1 = f(u)
    k2 = f(u + (0.5 * dt) * k1)
    k3 = f(u + (0.5 * dt) * k2)
    k4 = f(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _semi_implicit_update(net: LtcNetwork, u: np.ndarray, dt: float) -> np.ndarray:
    act = net._w * _chem_activations(net, u)
    a_num = _inflow(net, net._g * net._vleak, act * net._erev,
                    None if net._gw2 is None else net._gw2 * u[net._gother])
    b_den = _inflow(net, net._g, act, net._gw2)
    return (u + dt * (a_num / net._cm)) / (1.0 + dt * (b_den / net._cm))


def _compiled_run(net: LtcNetwork, method: Method, guarded: bool = False):
    """``run(u, segments, stride, n) -> (rows, diverged)``: ``method``'s stepping
    loop for a network in straight-line Python over float locals and literals,
    with the array form's IEEE operations in its order (a neuron's synapses,
    a block's in source order, from +0.0, then junction a-sides and b-sides;
    flat sums never nest parentheses).  ``rows`` is flat, ``diverged`` the
    first non-finite step or 0.  Unless ``guarded``, exp raises OverflowError
    where a sigmoid is 0.0."""
    lit = _literal
    # activations as stored (one a synapse, or one a block's source) and ``of``, each
    # synapse's; -gamma: (-gamma) * y is -(gamma * y) bit for bit, so exp gets model's -t
    asrc, *act = (a.ravel() for a in (net._src, net._w, -net._gamma, net._mu))
    of, dst, erev = _per_synapse(np.arange(asrc.size).reshape(net._w.shape), net._dst, net._erev)
    cm, g, vleak, w, ngamma, mu, erev = (list(map(lit, a.tolist())) for a in (
        net._cm, net._g, net._vleak, *act, erev))
    gvleak = [lit(a * b) for a, b in zip(net._g.tolist(), net._vleak.tolist())]
    into = [[(f"a{of[k]}", erev[k]) for k in np.flatnonzero(dst == i)] for i in range(net.size)]
    # each neuron's junctions as (other end, w_hat), a-sides first
    ends = list(zip(net._gself.tolist(), net._gother.tolist(), map(lit, net._gw.tolist() * 2)))
    gaps = [[(j, wh) for e, j, wh in ends if e == i] for i in range(net.size)]

    def total(terms, gap=False) -> str:
        """Sum from +0.0, as bincount's; a junction sum only if there are any."""
        text = f"(0.0 + {' + '.join(terms)})" if terms else "0.0"
        return (f" + {text}" if net.n_gaps else "") if gap else text

    x = [f"x{i}" for i in range(net.size)]
    # a<c> = w * (sigma) before each derivative: w * 1.0 / d would be (w * 1.0) / d
    sigma = (f"(0.0 if (t := {{}}) > {_EXP_MAX!r} else 1.0 / (1.0 + exp(t)))" if guarded
             else "(1.0 / (1.0 + exp({})))")
    acts = [f"a{c} = {w[c]} * " + sigma.format(f"{ngamma[c]} * ({x[s]} + {mu[c]})")
            for c, s in enumerate(asrc.tolist())]

    def derivative() -> list:
        return [f"({g[i]} * ({vleak[i]} - {xi}) + "
                + total([f"{a} * ({e} - {xi})" for a, e in into[i]])
                + total([f"{wh} * ({x[j]} - {xi})" for j, wh in gaps[i]], True) + f") / {cm[i]}"
                for i, xi in enumerate(x)]

    state = f"[{', '.join(x)}]"
    head, hoist, body = [], [], acts
    if method is Method.EULER:
        new = [f"{xi} + dt * ({d})" for xi, d in zip(x, derivative())]
    elif method is Method.RK4:
        # a derivative function called four times compiles 2x faster than inlined
        ks = [[f"k{s}_{i}" for i in range(net.size)] for s in range(4)]
        head = [f"def f({', '.join(x)}):", *(f" {line}" for line in acts),
                f" return [{', '.join(derivative())}]"]
        hoist = ["h = 0.5 * dt", "c = dt / 6.0"]
        ys = [x] + [[f"{xi} + {h} * {k}" for xi, k in zip(x, ks[s])]
                    for s, h in enumerate(("h", "h", "dt"))]
        body = [f"[{', '.join(k)}] = f({', '.join(y)})" for k, y in zip(ks, ys)]
        new = [f"{xi} + c * ({a} + 2.0 * {b} + 2.0 * {d} + {e})"
               for xi, a, b, d, e in zip(x, *ks)]
    else:
        new = []
        for i, xi in enumerate(x):
            num = (f"{gvleak[i]} + " + total([f"{a} * {e}" for a, e in into[i]])
                   + total([f"{wh} * {x[j]}" for j, wh in gaps[i]], True))
            # a junction load is a sum of literals, which compile folds
            den = (f"{g[i]} + " + total([a for a, _ in into[i]])
                   + total([wh for _, wh in gaps[i]], True))
            new.append(f"({xi} + dt * (({num}) / {cm[i]})) / (1.0 + dt * (({den}) / {cm[i]}))")
    body.append(f"{state} = [{', '.join(new)}]")
    # s - s is 0.0 for a finite sum and NaN (true) otherwise, then tested exactly
    body += [f"s = {' + '.join(x) or '0.0'}", f"if s - s and not all(map(isfinite, {state})):",
             "  return rows, k", "if k % stride == 0 or k == n:", f"  rows += {state}"]
    source = "\n".join([
        "def run(u, segments, stride, n):", *(f" {line}" for line in head),
        f" {state} = u", f" rows = {state}", " for dt, steps in segments:",
        *(f"  {line}" for line in hoist), "  for k in steps:", *(f"   {line}" for line in body),
        " return rows, 0"])
    names = {"__builtins__": {"all": all, "map": map}, "exp": math.exp, "isfinite": math.isfinite}
    exec(compile(source, "<run>", "exec"), names)
    return names.pop("run")  # popped: no reference cycle through the namespace


def _steps(config: SolverConfig) -> tuple[int, tuple]:
    """The step count and (dt, step indices): the full steps, then a short one."""
    n_full = int(np.floor(config.t_end / config.dt + 1e-9))
    last = config.t_end - n_full * config.dt
    n_steps = n_full + int(last > config.dt * 1e-9)
    return n_steps, ((config.dt, range(1, n_full + 1)), (last, range(n_full + 1, n_steps + 1)))


def _trajectory(config: SolverConfig, n_steps: int, states, size: int, diverged=0) -> Trajectory:
    """The rows recorded before step ``diverged`` (all if 0) at times ``k * dt``,
    the last one ``t_end``; if ``diverged``, raise IntegrationDivergedError."""
    every, stop = config.record_every, diverged or n_steps + 1
    times = np.concatenate(([0.0], np.arange(every, min(stop, n_steps), every) * config.dt,
                            [config.t_end] * (stop > n_steps)))
    traj = Trajectory(times, np.reshape(np.array(states, dtype=float), (times.size, size)))
    if diverged:
        t = diverged * config.dt if diverged < n_steps else config.t_end
        raise IntegrationDivergedError(
            f"integration diverged at t={t}: non-finite state component", traj)
    return traj


def _run(update, u: np.ndarray, config: SolverConfig) -> Trajectory:
    """Stepping loop over arrays: record stride, short final step, divergence."""
    n_steps, segments = _steps(config)
    states = [u]  # updates return new states; np.array copies the rows
    # divergence: nan/inf make u.u non-finite (overflowing squares are tested exactly)
    with np.errstate(over="ignore", invalid="ignore"):
        for dt, steps in segments:
            for k in steps:
                try:
                    u = update(u, dt)
                except OverflowError:  # a field's float power past the double range
                    return _trajectory(config, n_steps, states, u.size, k)
                if not (math.isfinite(u.dot(u)) or np.isfinite(u).all()):
                    return _trajectory(config, n_steps, states, u.size, k)
                if k % config.record_every == 0 or k == n_steps:
                    states.append(u)
    return _trajectory(config, n_steps, states, u.size)


def _update(method: Method, rhs, semi_implicit=None):
    """One step ``(u, dt) -> u_next`` of ``method`` for ``u' = rhs(u)``, or the
    given ``semi_implicit`` step, which needs the network structure."""
    if method is Method.EULER:
        return lambda u, dt: u + dt * rhs(u)
    if method is Method.RK4:
        return lambda u, dt: _rk4_update(rhs, u, dt)
    if semi_implicit is None:
        raise ValueError("integrate_field supports euler and rk4 only")
    return semi_implicit


def simulate(net: LtcNetwork, u0, config: SolverConfig) -> Trajectory:
    """Integrate the network from t=0 to t_end; first recorded row is u0.

    A single step of size ``dt`` is
    ``simulate(net, u, SolverConfig(method, dt, dt)).states[-1]``.  A run long
    enough to pay for compiling steps on Python floats through
    ``_compiled_run``, bit for bit.
    """
    u0 = validate_state(u0, net)
    n_steps, segments = _steps(config)
    units = net.n_chem + net.n_gaps + 3 * net.size
    evals = n_steps * (4 if config.method is Method.RK4 else 1)
    if units <= _MAX_UNITS and evals >= _UNIT_EVALS * units:
        args = (u0.tolist(), segments, config.record_every, n_steps)
        try:
            rows, diverged = _compiled_run(net, config.method)(*args)
        except OverflowError:  # a sigmoid's argument fell below -_EXP_MAX
            rows, diverged = _compiled_run(net, config.method, guarded=True)(*args)
        return _trajectory(config, n_steps, rows, net.size, diverged)
    update = _update(config.method, lambda u: network_derivative(u, net),
                     lambda u, dt: _semi_implicit_update(net, u, dt))
    return _run(update, u0, config)


def integrate_field(f, u0, config: SolverConfig) -> Trajectory:
    """Integrate a generic ODE u' = f(u) with Euler or RK4.

    Used for reference trajectories of target fields and for direct
    integration of augmented systems; the semi-implicit scheme needs
    network structure and is not available here.
    """
    u0 = np.atleast_1d(np.asarray(u0, dtype=float)).copy()
    if u0.ndim != 1:
        raise DimensionMismatchError(f"u0 must be 1-D, got shape {u0.shape}")
    return _run(_update(config.method, f), u0, config)
