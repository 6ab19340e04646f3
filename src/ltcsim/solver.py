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
from .model import (
    LtcNetwork,
    _chem_activations,
    _inflow,
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
    wsig = net._w * _chem_activations(net, u)
    a_num = _inflow(net, net._g * net._vleak, wsig * net._erev, net._gw2 * u[net._gother])
    b_den = _inflow(net, net._g, wsig, net._gw2)
    return (u + dt * (a_num / net._cm)) / (1.0 + dt * (b_den / net._cm))


def _plan_steps(dt: float, t_end: float) -> tuple[int, float]:
    """Number of full dt steps plus the length of the final partial step."""
    n_full = int(np.floor(t_end / dt + 1e-9))
    remainder = t_end - n_full * dt
    if remainder <= dt * 1e-9:
        remainder = 0.0
    return n_full, remainder


def _run(update, u0: np.ndarray, config: SolverConfig) -> Trajectory:
    """Shared stepping loop: record stride, exact final point, divergence check."""
    n_full, remainder = _plan_steps(config.dt, config.t_end)
    n_steps = n_full + (1 if remainder > 0.0 else 0)
    times = [0.0]
    states = [u0.copy()]
    u = u0
    for k in range(1, n_steps + 1):
        # overflow here means divergence, which is detected and raised below
        with np.errstate(over="ignore", invalid="ignore"):
            if k <= n_full:
                u = update(u, config.dt)
                t = k * config.dt if k < n_steps else config.t_end
            else:
                u = update(u, remainder)
                t = config.t_end
        if u.size and not np.isfinite(u).all():
            partial = Trajectory(np.array(times), np.array(states))
            raise IntegrationDivergedError(
                f"integration diverged at t={t}: non-finite state component",
                partial,
            )
        if k % config.record_every == 0 or k == n_steps:
            times.append(t)
            states.append(u.copy())
    return Trajectory(np.array(times), np.array(states))


def _update(method: Method, rhs, net: LtcNetwork | None = None):
    """One step ``(u, dt) -> u_next`` of ``method`` for ``u' = rhs(u)``; the
    semi-implicit scheme needs the network structure, given as ``net``."""
    if method is Method.EULER:
        return lambda u, dt: u + dt * rhs(u)
    if method is Method.RK4:
        return lambda u, dt: _rk4_update(rhs, u, dt)
    if net is None:
        raise ValueError("integrate_field supports euler and rk4 only")
    return lambda u, dt: _semi_implicit_update(net, u, dt)


def simulate(net: LtcNetwork, u0, config: SolverConfig) -> Trajectory:
    """Integrate the network from t=0 to t_end; first recorded row is u0.

    A single step of size ``dt`` is
    ``simulate(net, u, SolverConfig(method, dt, dt)).states[-1]``.
    """
    u0 = validate_state(u0, net)
    update = _update(config.method, lambda u: network_derivative(u, net), net)
    return _run(update, u0, config)


def integrate_field(f, u0, config: SolverConfig) -> Trajectory:
    """Integrate a generic ODE u' = f(u) with Euler or RK4.

    Used for reference trajectories of target fields and for direct
    integration of augmented systems; the semi-implicit scheme needs
    network structure and is not available here.
    """
    u0 = np.atleast_1d(np.asarray(u0, dtype=float)).copy()
    return _run(_update(config.method, f), u0, config)
