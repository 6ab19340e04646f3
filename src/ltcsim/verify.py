"""Closed-form bounds on time constants and states, plus trajectory monitors.

The time-constant interval for neuron i is

    cm / (g_leak + sum w + sum w_hat)  <=  tau_i  <=  cm / (g_leak + sum w_hat)

(chemical weights over incoming synapses, junction conductances over
touching junctions).  The effective time constant lies in it at every state,
as the activations lie in [0, 1], and in floating point too (tests pin it),
so the monitor evaluates no activation.

The state box for chemical-only networks is

    min(v_leak, min incoming e_rev)  <=  v_i(t)  <=  max(v_leak, max incoming e_rev)

and is forward invariant; state checks carry a tolerance because a
discrete solver can transiently overshoot.  Networks with gap junctions
get no state box (the invariance argument only covers chemical synapses),
so the monitor then checks finiteness alone.
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
    _neuron,
    _per_synapse,
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
        # tau_min is 0.0 where a neuron's full load overflows to inf
        if not (0 <= self.tau_min <= self.tau_max):
            raise ValueError(
                f"need 0 <= tau_min <= tau_max, got [{self.tau_min}, {self.tau_max}]"
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
    _neuron(i, net)
    tau_min, tau_max = net._tau_range
    return TauInterval(i, float(tau_min[i]), float(tau_max[i]))


def _box_edges(net: LtcNetwork) -> tuple[np.ndarray, np.ndarray]:
    """The ``lo`` and ``hi`` arrays of ``state_bounds``.  numpy's minimum and
    maximum return the second operand on ties, so the synapses run in reverse
    and v_leak comes last: of equal values (0.0 and -0.0) the leak, then the
    earliest synapse wins, as with Python's ``min(v_leak, min(e_revs))``."""
    dst, erev = (c[::-1] for c in _per_synapse(net._dst, net._erev))
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


def _check_width(traj: Trajectory, net: LtcNetwork) -> None:
    """Raise DimensionMismatchError unless ``traj`` has one column per neuron."""
    if traj.states.shape[1] != net.size:
        raise DimensionMismatchError(f"trajectory has {traj.states.shape[1]} columns, "
                                     f"network has {net.size} neurons")


def monitor_trajectory(
    traj: Trajectory, net: LtcNetwork, tolerance: float = 1e-6
) -> ViolationReport:
    """Check every recorded state: each non-finite component first, as
    ``NON_FINITE`` (its bound is nan), since no comparison can hold for it,
    then the state boxes widened by ``tolerance``, which must be finite and
    >= 0.  Gap-junction networks have no boxes, so only finiteness is checked.
    No time constant is evaluated: none can leave its interval (module notes).
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    _check_width(traj, net)
    report = ViolationReport(tolerance=tolerance)
    for row, i in zip(*np.nonzero(~np.isfinite(traj.states))):
        report.entries.append(
            Violation(float(traj.times[row]), int(i), ViolationKind.NON_FINITE,
                      float(traj.states[row, i]), math.nan)
        )
    if net.n_gaps:
        return report
    bounds = np.array(_box_edges(net))  # (kind, neuron)
    lo, hi = bounds[0] - tolerance, bounds[1] + tolerance
    kinds = (ViolationKind.STATE_LOW, ViolationKind.STATE_HIGH)
    # Rows are checked in chunks of about 2**16 state values.  Flags are
    # stacked as (row, kind, neuron), so one nonzero lists the entries row
    # by row, kind by kind, neuron by neuron.
    chunk = max(1, 2**16 // max(net.size, 1))
    for start in range(0, traj.n_points, chunk):
        u = traj.states[start:start + chunk]
        rows, kind, i = np.nonzero(np.stack([u < lo, u > hi], axis=1))
        report.entries += map(
            Violation, traj.times[start + rows].tolist(), i.tolist(),
            [kinds[k] for k in kind.tolist()], u[rows, i].tolist(), bounds[kind, i].tolist())
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
    _check_width(traj, net)
    if net.size == 0:
        return 0.0
    totals = traj.states @ net._cm
    return float(np.max(np.abs(totals - totals[0])))


def random_network(rng: np.random.Generator, chemical_only: bool = False) -> LtcNetwork:
    """Random small network for property suites.

    The draws, in this order: size U{2..8}, then n_output U{1..size-1}; cm
    U[0.5,2], g_leak U[0.5,2] and v_leak U[-0.5,0.5] for each neuron; for
    each (src, dst) pair, src hidden and dst any neuron, a synapse with
    p = 0.5, and then its w U[0,2], gamma U[0.5,2], mu U[-1,1] and e_rev
    U[-1,1]; unless ``chemical_only``, for each hidden pair a < b a gap
    junction with p = 0.3, and then its w_hat U[0,2].  Edges obey the
    feed-forward output rule; hidden autapses are allowed.  Each value is
    ``lo + (hi - lo) * rng.random()`` (for lo = 0.0 just the product, the
    same bits), numpy's own ``uniform`` arithmetic, so networks and the
    generator's state equal those of ``rng.uniform`` calls bit for bit
    (``test_random_network_equals_uniform_draws``).
    """
    rand = rng.random
    size = int(rng.integers(2, 9))
    n_output = int(rng.integers(1, size))
    n_hidden = size - n_output
    u = iter(rand(3 * size).tolist())
    neurons = tuple(NeuronParams(0.5 + 1.5 * cm, 0.5 + 1.5 * g, -0.5 + 1.0 * v)
                    for cm, g, v in zip(u, u, u))
    chem = []
    for src in range(n_hidden):
        for dst in range(size):
            if rand() < 0.5:
                w, gamma, mu, e_rev = rand(4).tolist()
                chem.append(ChemicalSynapse(src, dst, 2.0 * w, 0.5 + 1.5 * gamma,
                                            -1.0 + 2.0 * mu, -1.0 + 2.0 * e_rev))
    gaps = []
    if not chemical_only:
        for a in range(n_hidden):
            for b in range(a + 1, n_hidden):
                if rand() < 0.3:
                    gaps.append(GapJunction(a, b, 2.0 * rand()))
    return LtcNetwork(neurons, tuple(chem), tuple(gaps), n_output)
