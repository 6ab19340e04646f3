"""Closed-form bounds on time constants and states, plus trajectory monitors.

The time-constant interval for neuron i is

    cm / (g_leak + sum w + sum w_hat)  <=  tau_i  <=  cm / (g_leak + sum w_hat)

(chemical weights over incoming synapses, junction conductances over
touching junctions).  Membership of the effective time constant is an
algebraic consequence of the activations lying in [0, 1], so the monitor
checks it with zero tolerance.

The state box for chemical-only networks is

    min(v_leak, min incoming e_rev)  <=  v_i(t)  <=  max(v_leak, max incoming e_rev)

and is forward invariant; state checks carry a tolerance because a
discrete solver can transiently overshoot.  Networks with gap junctions
get no state box (the invariance argument only covers chemical synapses),
so the monitor then checks time constants alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, UnsupportedTopologyError
from .model import (
    ChemicalSynapse,
    GapJunction,
    LtcNetwork,
    NeuronParams,
    _chem_activations,
    _conductance_loads,
)
from .solver import Trajectory

__all__ = [
    "TauInterval",
    "StateBox",
    "ViolationKind",
    "Violation",
    "ViolationReport",
    "tau_bounds",
    "state_bounds",
    "monitor_trajectory",
    "conservation_check",
    "random_network",
]


@dataclass(frozen=True)
class TauInterval:
    neuron: int
    tau_min: float
    tau_max: float

    def __post_init__(self):
        if not (0 < self.tau_min <= self.tau_max):
            raise ValueError(
                f"need 0 < tau_min <= tau_max, got [{self.tau_min}, {self.tau_max}]"
            )


@dataclass(frozen=True)
class StateBox:
    neuron: int
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"need lo <= hi, got [{self.lo}, {self.hi}]")


class ViolationKind(enum.Enum):
    TAU_LOW = "TAU_LOW"
    TAU_HIGH = "TAU_HIGH"
    STATE_LOW = "STATE_LOW"
    STATE_HIGH = "STATE_HIGH"
    NON_FINITE = "NON_FINITE"


@dataclass(frozen=True)
class Violation:
    time: float
    neuron: int
    kind: ViolationKind
    value: float
    bound: float


@dataclass
class ViolationReport:
    entries: list[Violation] = field(default_factory=list)
    tolerance: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.entries


def tau_bounds(i: int, net: LtcNetwork) -> TauInterval:
    """Closed-form interval for the time constant of neuron ``i``."""
    if not 0 <= i < net.size:
        raise IndexError(f"neuron index {i} out of range for {net.size} neurons")
    tau_min, tau_max = net._tau_range
    return TauInterval(i, float(tau_min[i]), float(tau_max[i]))


def _box_edges(net: LtcNetwork) -> tuple[np.ndarray, np.ndarray]:
    """The ``lo`` and ``hi`` arrays of ``state_bounds``.  numpy's minimum and
    maximum return the second operand on ties, so the synapses run in reverse
    and v_leak comes last: of equal values (0.0 and -0.0) the leak, then the
    earliest synapse wins, as with Python's ``min(v_leak, min(e_revs))``."""
    dst, erev = net._dst[::-1], net._erev[::-1]
    lo = np.full(net.size, np.inf)
    hi = np.full(net.size, -np.inf)
    np.minimum.at(lo, dst, erev)
    np.maximum.at(hi, dst, erev)
    return np.minimum(lo, net._vleak), np.maximum(hi, net._vleak)


def state_bounds(net: LtcNetwork) -> list[StateBox]:
    """Per-neuron reachable box, min/max of v_leak and the incoming reversal
    potentials; defined for chemical-only networks."""
    if net.n_gaps:
        raise UnsupportedTopologyError(
            "state bounds are defined for chemical-synapse-only networks; "
            f"this network has {net.n_gaps} gap junction(s)"
        )
    lo, hi = (edge.tolist() for edge in _box_edges(net))
    return [StateBox(i, lo[i], hi[i]) for i in range(net.size)]


def monitor_trajectory(
    traj: Trajectory, net: LtcNetwork, tolerance: float = 1e-6
) -> ViolationReport:
    """Check every recorded state against the tau intervals and state boxes.

    Tau membership is exact (no tolerance); state boxes are widened by
    ``tolerance``, which must be finite and >= 0.  Gap-junction networks are
    checked for tau only.  Every non-finite state component is reported
    first, as ``NON_FINITE`` (its bound is nan), since no comparison can
    hold for it.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    if traj.states.shape[1] != net.size:
        raise DimensionMismatchError(
            f"trajectory has {traj.states.shape[1]} columns, network has "
            f"{net.size} neurons"
        )
    tau_min, tau_max = net._tau_range
    kinds = [ViolationKind.TAU_LOW, ViolationKind.TAU_HIGH]
    bounds = [tau_min, tau_max]
    if not net.n_gaps:
        kinds += [ViolationKind.STATE_LOW, ViolationKind.STATE_HIGH]
        bounds += _box_edges(net)
        lo, hi = bounds[2] - tolerance, bounds[3] + tolerance
    bounds = np.array(bounds)  # (kind, neuron)
    report = ViolationReport(tolerance=tolerance)
    for row, i in zip(*np.nonzero(~np.isfinite(traj.states))):
        report.entries.append(
            Violation(float(traj.times[row]), int(i), ViolationKind.NON_FINITE,
                      float(traj.states[row, i]), math.nan)
        )
    # Rows are checked in chunks that keep the (row, activation) values
    # near 2**16.  Flags and values are stacked as (row, kind, neuron),
    # so one nonzero lists the entries row by row, kind by kind, neuron by neuron.
    block = max(1, 2**16 // max(net._aw.size, 1))
    for start in range(0, traj.n_points, block):
        u = traj.states[start:start + block]
        # gamma * (v + mu) may overflow to +-inf, whose sigmoid is exactly 1 or 0
        with np.errstate(divide="ignore", over="ignore"):
            tau = net._cm / _conductance_loads(net, _chem_activations(net, u))
        flags, values = [tau < tau_min, tau > tau_max], [tau, tau]
        if not net.n_gaps:
            flags += [u < lo, u > hi]
            values += [u, u]
        rows, kind, i = np.nonzero(np.stack(flags, axis=1))
        report.entries += map(
            Violation, traj.times[start + rows].tolist(), i.tolist(),
            [kinds[k] for k in kind.tolist()],
            np.stack(values, axis=1)[rows, kind, i].tolist(), bounds[kind, i].tolist())
    return report


def conservation_check(traj: Trajectory, net: LtcNetwork) -> float:
    """Max drift of sum(cm_i * v_i) for leakless gap-only networks."""
    if net.n_chem:
        raise UnsupportedTopologyError(
            "conservation check requires a gap-junction-only network"
        )
    if (net._g != 0.0).any():
        raise UnsupportedTopologyError(
            "conservation check requires g_leak == 0 for every neuron"
        )
    if traj.states.shape[1] != net.size:
        raise DimensionMismatchError(
            f"trajectory has {traj.states.shape[1]} columns, network has "
            f"{net.size} neurons"
        )
    if net.size == 0:
        return 0.0
    totals = traj.states @ net._cm
    return float(np.max(np.abs(totals - totals[0])))


def random_network(rng: np.random.Generator, chemical_only: bool = False) -> LtcNetwork:
    """Random small network for property suites.

    Sizes 2-8 neurons; weights U[0,2], gamma U[0.5,2], mu U[-1,1],
    e_rev U[-1,1], v_leak U[-0.5,0.5], cm and g_leak U[0.5,2].  Edges obey
    the feed-forward output rule; hidden autapses are allowed.
    """
    size = int(rng.integers(2, 9))
    n_output = int(rng.integers(1, size))
    n_hidden = size - n_output
    neurons = tuple(
        NeuronParams(
            cm=rng.uniform(0.5, 2.0),
            g_leak=rng.uniform(0.5, 2.0),
            v_leak=rng.uniform(-0.5, 0.5),
        )
        for _ in range(size)
    )
    chem = []
    for src in range(n_hidden):
        for dst in range(size):
            if rng.uniform() < 0.5:
                chem.append(
                    ChemicalSynapse(
                        src=src,
                        dst=dst,
                        w=rng.uniform(0.0, 2.0),
                        gamma=rng.uniform(0.5, 2.0),
                        mu=rng.uniform(-1.0, 1.0),
                        e_rev=rng.uniform(-1.0, 1.0),
                    )
                )
    gaps = []
    if not chemical_only:
        for a in range(n_hidden):
            for b in range(a + 1, n_hidden):
                if rng.uniform() < 0.3:
                    gaps.append(GapJunction(a=a, b=b, w_hat=rng.uniform(0.0, 2.0)))
    return LtcNetwork(neurons, tuple(chem), tuple(gaps), n_output)
