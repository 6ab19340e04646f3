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
    a_num = _inflow(net, net._g * net._vleak, wsig * net._erev,
                    None if net._gw2 is None else net._gw2 * u[net._gother])
    b_den = _inflow(net, net._g, wsig, net._gw2)
    return (u + dt * (a_num / net._cm)) / (1.0 + dt * (b_den / net._cm))


def _run(update, u: np.ndarray, config: SolverConfig) -> Trajectory:
    """Shared stepping loop: record stride, exact final point, divergence check."""
    n_full = int(np.floor(config.t_end / config.dt + 1e-9))
    remainder = config.t_end - n_full * config.dt
    n_steps = n_full + int(remainder > config.dt * 1e-9)
    times = [0.0]
    states = [u]  # updates return new arrays; np.array copies the rows below
    # overflow here means divergence, which is detected and raised below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            u = update(u, config.dt if k <= n_full else remainder)
            t = k * config.dt if k < n_steps else config.t_end
            # nan/inf make u.u non-finite; if finite squares overflow, test exactly
            if not math.isfinite(u.dot(u)) and not np.isfinite(u).all():
                raise IntegrationDivergedError(
                    f"integration diverged at t={t}: non-finite state component",
                    Trajectory(np.array(times), np.array(states)))
            if k % config.record_every == 0 or k == n_steps:
                times.append(t)
                states.append(u)
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
    if u0.ndim != 1:
        raise DimensionMismatchError(f"u0 must be 1-D, got shape {u0.shape}")
    return _run(_update(config.method, f), u0, config)
