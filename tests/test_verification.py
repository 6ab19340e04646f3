"""Verification: tau intervals, state boxes, monitors, conservation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltcsim import (
    ChemicalSynapse,
    GapJunction,
    LtcNetwork,
    Method,
    NeuronParams,
    SolverConfig,
    TauInterval,
    Trajectory,
    UnsupportedTopologyError,
    Violation,
    ViolationKind,
    conservation_check,
    effective_time_constant,
    monitor_trajectory,
    random_network,
    simulate,
    state_bounds,
    tau_bounds,
)
from ltcsim import model
from ltcsim.model import _ARRAYS
from helpers import (box_arrays, gap_ring, leak_neuron, networks, overflowing_load,
                     realized_network, uniform_random_network)


def closed_form_tau(i, net):
    """Neuron i's interval with the loads summed in the documented order:
    leak, incoming synapses, then gap junctions a-side before b-side."""
    chem = gap = 0.0
    for s in net.chem:
        if s.dst == i:
            chem += s.w
    for g in net.gaps:
        if g.a == i:
            gap += g.w_hat
    for g in net.gaps:
        if g.b == i:
            gap += g.w_hat
    p = net.neurons[i]
    with np.errstate(divide="ignore", over="ignore"):  # tau may be inf
        tau_min = float(np.float64(p.cm) / (p.g_leak + chem + gap))
        tau_max = float(np.float64(p.cm) / (p.g_leak + 0.0 + gap))
    return TauInterval(i, tau_min, tau_max)


def _one_incoming(w=1.0, w_hat=None):
    neurons = (NeuronParams(1.0, 0.5, 0.0), NeuronParams(1.0, 0.5, 0.0),
               NeuronParams(1.0, 0.5, 0.0))
    syn = (ChemicalSynapse(0, 1, w, 1.0, 0.0, 1.0),)
    gaps = (GapJunction(0, 1, w_hat),) if w_hat is not None else ()
    return LtcNetwork(neurons, syn, gaps, 1)


class TestTauBounds:
    def test_bare_membrane(self):
        net = LtcNetwork((NeuronParams(2.0, 0.5, 0.0),), (), (), 1)
        tb = tau_bounds(0, net)
        assert tb.tau_min == tb.tau_max == pytest.approx(4.0)

    def test_one_chemical_synapse(self):
        tb = tau_bounds(1, _one_incoming())
        assert tb.tau_min == pytest.approx(1.0 / 1.5)
        assert tb.tau_max == pytest.approx(2.0)

    def test_added_gap_junction(self):
        tb = tau_bounds(1, _one_incoming(w_hat=0.5))
        assert tb.tau_min == pytest.approx(0.5)
        assert tb.tau_max == pytest.approx(1.0)

    def test_chem_shrinks_min_only(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            net = random_network(rng)
            if net.n_hidden == 0:
                continue
            extra = ChemicalSynapse(0, rng.integers(net.size), rng.uniform(0.1, 2),
                                    1.0, 0.0, 0.5)
            bigger = LtcNetwork(net.neurons, net.chem + (extra,), net.gaps,
                                net.n_output)
            for i in range(net.size):
                a, b = tau_bounds(i, net), tau_bounds(i, bigger)
                assert b.tau_min <= a.tau_min
                assert b.tau_max == a.tau_max

    def test_gap_shrinks_both_strictly(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            net = random_network(rng)
            if net.n_hidden < 2:
                continue
            extra = GapJunction(0, 1, rng.uniform(0.1, 2))
            bigger = LtcNetwork(net.neurons, net.chem, net.gaps + (extra,),
                                net.n_output)
            for i in (0, 1):
                a, b = tau_bounds(i, net), tau_bounds(i, bigger)
                assert b.tau_min < a.tau_min
                assert b.tau_max < a.tau_max

    def test_index_range(self):
        with pytest.raises(IndexError):
            tau_bounds(3, leak_neuron())

    def test_overflowing_load(self):
        # each w is finite, but neuron 1's full load is inf: tau_min is cm / inf
        net = overflowing_load()
        assert tau_bounds(1, net) == TauInterval(1, 0.0, 1.0)
        assert tau_bounds(1, net) == closed_form_tau(1, net)
        rng = np.random.default_rng(31)
        for u in rng.uniform(-40.0, 40.0, size=(200, 2)):
            assert 0.0 <= effective_time_constant(1, u, net) <= 1.0
        for bad in ((-1.0, 1.0), (math.nan, 1.0), (0.0, math.nan), (1.0, 0.5)):
            with pytest.raises(ValueError, match="need 0 <= tau_min <= tau_max"):
                TauInterval(0, *bad)

    @given(networks(bound=1e100))
    def test_equals_closed_form(self, net):
        for i in range(net.size):
            assert tau_bounds(i, net) == closed_form_tau(i, net)

    @given(networks(bound=1e100, block=True))
    def test_blocks_equal_closed_form(self, net):
        # a block's shared load is summed once, in source order, from +0.0
        for i in range(net.size):
            assert tau_bounds(i, net) == closed_form_tau(i, net)


class TestStateBounds:
    def test_no_incoming_point_box(self):
        net = LtcNetwork((NeuronParams(1, 1, 0.25),), (), (), 1)
        (box,) = state_bounds(net)
        assert box.lo == box.hi == 0.25

    def test_reversal_span(self):
        neurons = tuple(NeuronParams(1, 1, 0.0) for _ in range(3))
        syns = (
            ChemicalSynapse(0, 2, 1.0, 1.0, 0.0, -1.0),
            ChemicalSynapse(1, 2, 1.0, 1.0, 0.0, 1.0),
        )
        net = LtcNetwork(neurons, syns, (), 1)
        assert state_bounds(net)[2].lo == -1.0
        assert state_bounds(net)[2].hi == 1.0

    def test_degenerate_box(self):
        neurons = (NeuronParams(1, 1, 0.5), NeuronParams(1, 1, 0.5))
        net = LtcNetwork(neurons, (ChemicalSynapse(0, 1, 1, 1, 0, 0.5),), (), 1)
        box = state_bounds(net)[1]
        assert box.lo == box.hi == 0.5

    def test_gap_junctions_refused(self):
        neurons = (NeuronParams(1, 1, 0), NeuronParams(1, 1, 0), NeuronParams(1, 1, 0))
        net = LtcNetwork(neurons, (), (GapJunction(0, 1, 1.0),), 1)
        with pytest.raises(UnsupportedTopologyError):
            state_bounds(net)

    @given(networks())
    def test_equals_closed_form(self, net):
        if net.gaps:
            return
        for i, (p, box) in enumerate(zip(net.neurons, state_bounds(net))):
            erevs = [s.e_rev for s in net.chem if s.dst == i]
            lo = min(p.v_leak, min(erevs)) if erevs else p.v_leak
            hi = max(p.v_leak, max(erevs)) if erevs else p.v_leak
            # bitwise, so that 0.0 and -0.0 resolve as Python's min/max do
            assert (math.copysign(1, box.lo), box.lo) == (math.copysign(1, lo), lo)
            assert (math.copysign(1, box.hi), box.hi) == (math.copysign(1, hi), hi)

    def test_signed_zero_ties(self):
        # equal zeros resolve as Python's min/max do: the leak, then the
        # earliest synapse wins
        neurons = (NeuronParams(1, 1, 1.0), NeuronParams(1, 1, -1.0),
                   NeuronParams(1, 1, 0.0))
        syns = (ChemicalSynapse(0, 0, 1, 1, 0, 0.0), ChemicalSynapse(1, 0, 1, 1, 0, -0.0),
                ChemicalSynapse(0, 1, 1, 1, 0, -0.0), ChemicalSynapse(1, 1, 1, 1, 0, 0.0),
                ChemicalSynapse(0, 2, 1, 1, 0, -0.0))
        boxes = state_bounds(LtcNetwork(neurons, syns, (), 1))
        got = [(math.copysign(1, v), v) for b in boxes for v in (b.lo, b.hi)]
        assert got == [(1, 0.0), (1, 1.0), (-1, -1.0), (-1, -0.0), (1, 0.0), (1, 0.0)]

    def test_monotone_widening(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            net = random_network(rng, chemical_only=True)
            if net.n_hidden == 0:
                continue
            extra = ChemicalSynapse(0, rng.integers(net.size), 1.0, 1.0, 0.0,
                                    rng.uniform(-2, 2))
            bigger = LtcNetwork(net.neurons, net.chem + (extra,), (), net.n_output)
            for a, b in zip(state_bounds(net), state_bounds(bigger)):
                assert b.lo <= a.lo
                assert b.hi >= a.hi


class TestMonitor:
    def test_equilibrium_empty_report(self):
        net = leak_neuron(v_leak=0.3)
        traj = simulate(net, [0.3], SolverConfig(Method.RK4, 1e-2, 1.0, 1))
        report = monitor_trajectory(traj, net, 1e-6)
        assert report.ok

    def test_inside_box_stays_inside(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            net = random_network(rng, chemical_only=True)
            lo, hi = box_arrays(state_bounds(net))
            u0 = rng.uniform(lo, hi)
            traj = simulate(net, u0, SolverConfig(Method.RK4, 1e-3, 2.0, 10))
            assert monitor_trajectory(traj, net, 1e-6).ok

    def test_outside_box_decays_back(self):
        neurons = (NeuronParams(1, 1, 0.0), NeuronParams(1, 1, 0.0))
        net = LtcNetwork(neurons, (ChemicalSynapse(0, 1, 1.0, 1.0, 0.0, 0.5),), (), 1)
        traj = simulate(net, [0.0, 2.0], SolverConfig(Method.RK4, 1e-2, 5.0, 1))
        report = monitor_trajectory(traj, net, 1e-6)
        assert not report.ok
        first = [v for v in report.entries if v.time == 0.0]
        assert first and all(v.kind is ViolationKind.STATE_HIGH for v in first)
        last_time = traj.times[-1]
        assert all(v.time < last_time / 2 for v in report.entries)

    def test_gap_network_tau_only(self):
        ring = gap_ring()
        traj = simulate(ring, [1.0, 0.0, -1.0], SolverConfig(Method.RK4, 1e-2, 1.0, 1))
        report = monitor_trajectory(traj, ring, 1e-6)
        assert report.ok  # tau is constant for gap-only networks

    def test_non_finite_states_reported(self):
        net = _one_incoming()
        states = np.zeros((4, 3))
        states[1, 2] = np.nan
        states[2, 0] = np.inf
        states[3] = -np.inf
        traj = Trajectory(np.arange(4.0), states)
        for checked in (net, gap_ring()):
            report = monitor_trajectory(traj, checked, 1e-6)
            found = [(v.time, v.neuron) for v in report.entries
                     if v.kind is ViolationKind.NON_FINITE]
            assert found == [(1.0, 2), (2.0, 0), (3.0, 0), (3.0, 1), (3.0, 2)]
            assert all(math.isnan(v.bound) for v in report.entries
                       if v.kind is ViolationKind.NON_FINITE)

    def test_huge_finite_states_checked_without_warning(self):
        # gamma * (v + mu) overflows to +-inf: the gating saturates at 1 or 0
        net = LtcNetwork((NeuronParams(1.0, 0.5, 0.0),) * 2,
                         (ChemicalSynapse(0, 1, 1.0, 2.0, 0.0, 1.0),), (), 1)
        traj = Trajectory(np.arange(3.0), np.array([[0.0, 0.0], [1e308, 0.0],
                                                    [-1e308, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = monitor_trajectory(traj, net, 1e-6)
        assert [(v.time, v.neuron, v.kind) for v in report.entries] == [
            (1.0, 0, ViolationKind.STATE_HIGH), (2.0, 0, ViolationKind.STATE_LOW)]

    def test_bad_tolerance_rejected(self):
        net = leak_neuron()
        traj = simulate(net, [0.0], SolverConfig(Method.RK4, 0.1, 1.0, 1))
        for tol in (np.nan, np.inf, -5.0):
            with pytest.raises(ValueError, match="tolerance"):
                monitor_trajectory(traj, net, tol)

    def test_no_activation_evaluated(self, monkeypatch):
        # tau cannot leave its interval at any state, so the monitor checks
        # only finiteness and the boxes: with the sigmoid gone, it still runs
        rng = np.random.default_rng(30)
        nets = [random_network(rng, chemical_only=k % 2 == 0) for k in range(8)]
        nets += [gap_ring(), realized_network(6)]
        assert any(net.n_gaps for net in nets) and nets[-1]._block
        cases = []
        for net in nets:
            states = rng.uniform(-3.0, 3.0, (6, net.size))
            states[1, 0], states[2, -1], states[4, 0] = np.nan, np.inf, -np.inf
            traj = Trajectory(np.arange(6.0), states)
            cases.append((net, traj, per_row_monitor(traj, net, 1e-6)))

        def no_sigmoid(*args, **kwargs):
            raise AssertionError("the monitor evaluated an activation")

        monkeypatch.setattr(model, "expit", no_sigmoid)
        for net, traj, want in cases:
            assert entry_bits(monitor_trajectory(traj, net, 1e-6).entries) == entry_bits(want)

    def test_dimension_mismatch(self):
        from ltcsim import DimensionMismatchError

        net = leak_neuron()
        traj = simulate(net, [1.0], SolverConfig(Method.RK4, 0.1, 1.0, 1))
        with pytest.raises(DimensionMismatchError):
            monitor_trajectory(traj, gap_ring(), 1e-6)


def per_row_monitor(traj, net, tolerance):
    """Reference monitor: each row, check and neuron one at a time, from
    the public per-neuron functions."""
    entries = [Violation(float(traj.times[row]), int(i), ViolationKind.NON_FINITE,
                         float(traj.states[row, i]), math.nan)
               for row, i in zip(*np.nonzero(~np.isfinite(traj.states)))]
    boxes = None if net.n_gaps else state_bounds(net)
    for t, u in zip(traj.times.tolist(), traj.states):
        found = {kind: [] for kind in ViolationKind}
        for i in range(net.size):
            v = float(u[i])
            checks = [] if boxes is None else [
                (ViolationKind.STATE_LOW, v, boxes[i].lo, v < boxes[i].lo - tolerance),
                (ViolationKind.STATE_HIGH, v, boxes[i].hi, v > boxes[i].hi + tolerance)]
            for kind, value, bound, hit in checks:
                if hit:
                    found[kind].append(Violation(t, i, kind, value, bound))
        entries += [v for kind in ViolationKind for v in found[kind]]
    return entries


def entry_bits(entries):
    """Entries with their floats as bit patterns, so that -0.0 and 0.0
    differ and a NaN matches only the same NaN."""
    return [(np.float64(v.time).tobytes(), v.neuron, v.kind, np.float64(v.value).tobytes(),
             np.float64(v.bound).tobytes()) for v in entries]


@st.composite
def checked_trajectories(draw, shared=False, block=False):
    """A network and a trajectory with out-of-box, NaN and +-inf states,
    some placed just inside or outside a box edge widened by 1e-6."""
    net = draw(networks(bound=1e100, shared=shared, block=block))
    rows = draw(st.integers(1, 5))
    value = (st.floats(-2.0, 2.0) | st.floats(-1e100, 1e100)
             | st.sampled_from([math.nan, math.inf, -math.inf]))
    edges = [p.v_leak for p in net.neurons] + [s.e_rev for s in net.chem]
    if edges:
        value |= st.builds(lambda e, d: e + d, st.sampled_from(edges),
                           st.sampled_from([0.0, 5e-7, -5e-7, 2e-6, -2e-6]))
    states = draw(st.lists(value, min_size=rows * net.size, max_size=rows * net.size))
    return net, Trajectory(0.5 * np.arange(rows), np.reshape(states, (rows, net.size)))


class TestMonitorOracle:
    @given(checked_trajectories(), st.sampled_from([0.0, 1e-6]))
    def test_equals_per_row_oracle(self, case, tolerance):
        net, traj = case
        with np.errstate(over="ignore", invalid="ignore"):
            got = monitor_trajectory(traj, net, tolerance).entries
            want = per_row_monitor(traj, net, tolerance)
        assert entry_bits(got) == entry_bits(want)

    @given(checked_trajectories(shared=True), st.sampled_from([0.0, 1e-6]))
    def test_shared_channels_equal_per_row_oracle(self, case, tolerance):
        net, traj = case
        with np.errstate(over="ignore", invalid="ignore"):
            got = monitor_trajectory(traj, net, tolerance).entries
            want = per_row_monitor(traj, net, tolerance)
        assert entry_bits(got) == entry_bits(want)

    @given(checked_trajectories(block=True), st.sampled_from([0.0, 1e-6]))
    def test_blocks_equal_per_row_oracle(self, case, tolerance):
        net, traj = case
        assert net._block
        with np.errstate(over="ignore", invalid="ignore"):
            got = monitor_trajectory(traj, net, tolerance).entries
            want = per_row_monitor(traj, net, tolerance)
        assert entry_bits(got) == entry_bits(want)

    def test_rows_span_several_blocks(self):
        # fully wired hidden layers: 33,488 and 19,880 synapses, none of which
        # the monitor evaluates, and entries equal to the per-row oracle's
        rng = np.random.default_rng(26)
        for n_hidden in (182, 140):
            size = n_hidden + 2
            src, dst = np.divmod(np.arange(n_hidden * size), size)
            m = src.shape[0]
            net = LtcNetwork.from_arrays(
                cm=rng.uniform(0.5, 2, size), g_leak=rng.uniform(0.5, 2, size),
                v_leak=rng.uniform(-0.5, 0.5, size), src=src, dst=dst,
                w=rng.uniform(0, 2, m), gamma=rng.uniform(0.5, 2, m),
                mu=rng.uniform(-1, 1, m), e_rev=rng.uniform(-1, 1, m), n_output=2)
            states = rng.uniform(-1.2, 1.2, (7, size))
            states[2, 5] = np.nan
            states[4, 0] = np.inf
            states[6, -1] = -np.inf
            traj = Trajectory(np.arange(7.0), states)
            got = monitor_trajectory(traj, net, 1e-6).entries
            assert any(v.kind is ViolationKind.STATE_HIGH for v in got)
            assert entry_bits(got) == entry_bits(per_row_monitor(traj, net, 1e-6))

    def test_rows_span_several_chunks(self):
        # 8 neurons: chunks of 8,192 rows, so 20,000 rows take three, and
        # entries at a chunk's first and last rows keep their order
        rng = np.random.default_rng(31)
        net = random_network(rng, chemical_only=True)
        while net.size != 8:
            net = random_network(rng, chemical_only=True)
        lo, hi = box_arrays(state_bounds(net))
        states = rng.uniform(lo, hi, (20_000, 8))
        for row in (0, 8191, 8192, 16383, 16384, 19999):
            states[row, row % 8] = hi[row % 8] + 1.0
            states[row, (row + 3) % 8] = lo[(row + 3) % 8] - 1.0
        states[8192, 5] = np.nan
        traj = Trajectory(0.5 * np.arange(20_000), states)
        got = monitor_trajectory(traj, net, 1e-6).entries
        assert len(got) == 13
        assert entry_bits(got) == entry_bits(per_row_monitor(traj, net, 1e-6))


class TestConservation:
    def test_single_neuron_trivial(self):
        net = LtcNetwork((NeuronParams(1.0, 0.0, 0.0),), (), (), 1)
        traj = simulate(net, [0.7], SolverConfig(Method.RK4, 0.1, 1.0, 1))
        assert conservation_check(traj, net) == 0.0

    def test_ring_drift_tiny(self):
        ring = gap_ring(cms=(1.0, 2.0, 0.5))
        u0 = np.array([1.0, -0.3, 0.2])
        traj = simulate(ring, u0, SolverConfig(Method.RK4, 1e-3, 10.0, 10))
        assert conservation_check(traj, ring) < 1e-9

    def test_euler_and_rk4_both_at_roundoff(self):
        # Every Runge-Kutta scheme preserves linear first integrals exactly,
        # so at equal dt both drifts sit at accumulation roundoff rather
        # than at truncation order.
        ring = gap_ring()
        u0 = np.array([1.0, -0.3, 0.2])
        for method in (Method.EULER, Method.RK4):
            traj = simulate(ring, u0, SolverConfig(method, 1e-2, 10.0, 1))
            assert conservation_check(traj, ring) < 1e-12

    def test_requires_leakless_gap_only(self):
        with pytest.raises(UnsupportedTopologyError):
            net = leak_neuron()
            traj = simulate(net, [1.0], SolverConfig(Method.RK4, 0.1, 1.0, 1))
            conservation_check(traj, net)


class TestRandomNetworkGenerator:
    def test_parameter_ranges(self):
        rng = np.random.default_rng(24)
        sizes = set()
        for _ in range(100):
            net = random_network(rng)
            sizes.add(net.size)
            assert 2 <= net.size <= 8
            assert 1 <= net.n_output <= net.size - 1
            for p in net.neurons:
                assert 0.5 <= p.cm <= 2.0 and 0.5 <= p.g_leak <= 2.0
                assert -0.5 <= p.v_leak <= 0.5
            for s in net.chem:
                assert 0.0 <= s.w <= 2.0 and 0.5 <= s.gamma <= 2.0
                assert -1.0 <= s.mu <= 1.0 and -1.0 <= s.e_rev <= 1.0
            for g in net.gaps:
                assert 0.0 <= g.w_hat <= 2.0
        assert len(sizes) > 3

    def test_chemical_only_flag(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            assert not random_network(rng, chemical_only=True).gaps

    def test_random_network_equals_uniform_draws(self):
        """Bit for bit the networks of the ``rng.uniform`` oracle, and the
        generator left in the same state after every seed."""
        def bits(net):
            arrays = [getattr(net, k) for k in _ARRAYS]
            return ([a.view(np.int64).tobytes() if a.dtype == float else a.tobytes()
                     for a in arrays], net.n_output, repr(net))

        for seed in range(30):
            rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            for k in range(300):
                chemical_only = k % 2 == 1
                assert (bits(random_network(rng, chemical_only))
                        == bits(uniform_random_network(oracle, chemical_only)))
            assert rng.bit_generator.state == oracle.bit_generator.state

    @given(st.integers(0, 2**32 - 1), st.integers(1, 64),
           st.sampled_from([(0.5, 2.0), (-0.5, 0.5), (0.0, 2.0), (-1.0, 1.0), (0.0, 1.0)]))
    def test_uniform_is_scaled_random(self, seed, n, bounds):
        """``rng.uniform(lo, hi)`` is ``lo + (hi - lo) * rng.random()``, as a
        scalar and as an array, on every range ``random_network`` draws from."""
        lo, hi = bounds
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        scalars = [a.uniform(lo, hi) for _ in range(n)]
        assert all(type(v) is float for v in scalars)
        assert [v.hex() for v in scalars] == [(lo + (hi - lo) * b.random()).hex()
                                              for _ in range(n)]
        arrays = a.uniform(lo, hi, n), lo + (hi - lo) * b.random(n)
        assert arrays[0].view(np.int64).tobytes() == arrays[1].view(np.int64).tobytes()
