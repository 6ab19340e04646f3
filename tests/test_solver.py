"""Solver: steppers, trajectory recording, convergence, boundedness."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltcsim import (
    ChemicalSynapse,
    DimensionMismatchError,
    IntegrationDivergedError,
    LtcNetwork,
    Method,
    NeuronParams,
    SolverConfig,
    integrate_field,
    network_derivative,
    neuron_derivative,
    random_network,
    sigmoid_activation,
    simulate,
    state_bounds,
)
from ltcsim.model import _conductance_loads
from helpers import (
    box_arrays,
    driven_pair,
    gap_ring,
    leak_neuron,
    networks,
    two_neuron_chain,
)


def analytic_driven(times, v0, a, b, cm=1.0):
    return (v0 - a / b) * np.exp(-(b / cm) * times) + a / b


def one_step(method, u, net, dt):
    """A single step of ``method``: simulate over exactly one dt."""
    return simulate(net, u, SolverConfig(method, dt, dt)).states[-1]


def semi_implicit_step(u, net, dt):
    """One semi-implicit step neuron by neuron, one sigmoid per synapse, the
    sums in the order of the vectorized step (synapses, a-sides, b-sides)."""
    out = []
    for i, p in enumerate(net.neurons):
        num, den = p.g_leak * p.v_leak, p.g_leak
        chem_num = chem_den = gap_num = gap_den = 0.0
        for s in net.chem:
            if s.dst == i:
                wsig = s.w * sigmoid_activation(u[s.src], s.gamma, s.mu)
                chem_num += wsig * s.e_rev
                chem_den += wsig
        for self_side, other in [("a", "b"), ("b", "a")]:
            for gj in net.gaps:
                if getattr(gj, self_side) == i:
                    gap_num += gj.w_hat * u[getattr(gj, other)]
                    gap_den += gj.w_hat
        num, den = num + chem_num + gap_num, den + chem_den + gap_den
        out.append((u[i] + dt * (num / p.cm)) / (1.0 + dt * (den / p.cm)))
    return np.array(out, dtype=float)


class TestSteppers:
    def test_equilibrium_fixed_point(self):
        net = leak_neuron(v_leak=0.4)
        u = np.array([0.4])
        for method in Method:
            assert one_step(method, u, net, 0.5) == pytest.approx([0.4], abs=1e-15)

    def test_euler_leak_value(self):
        net = leak_neuron()
        assert one_step(Method.EULER, [1.0], net, 0.1)[0] == pytest.approx(0.9, rel=1e-15)

    def test_semi_implicit_leak_value(self):
        net = leak_neuron()
        out = one_step(Method.SEMI_IMPLICIT, [1.0], net, 0.1)[0]
        assert out == pytest.approx(1.0 / 1.1, rel=1e-15)

    def test_single_step_is_the_scheme(self):
        # bitwise: one recorded step is u + dt f(u), and the classical RK4 sum
        net = two_neuron_chain()
        u, dt = np.array([0.2, 0.3]), 0.05
        f = lambda v: network_derivative(v, net)
        assert (one_step(Method.EULER, u, net, dt) == u + dt * f(u)).all()
        k1 = f(u)
        k2 = f(u + (0.5 * dt) * k1)
        k3 = f(u + (0.5 * dt) * k2)
        k4 = f(u + dt * k3)
        rk4 = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert (one_step(Method.RK4, u, net, dt) == rk4).all()

    @given(networks(bound=1e6, shared=True), st.data(), st.sampled_from([0.01, 0.1, 1.0]))
    def test_semi_implicit_step_shared_channels(self, net, data, dt):
        # bitwise, on networks whose synapses share (src, gamma, mu)
        u = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=net.size,
                                        max_size=net.size)), dtype=float)
        got = one_step(Method.SEMI_IMPLICIT, u, net, dt)
        assert (got.view(np.int64) == semi_implicit_step(u, net, dt).view(np.int64)).all()

    @pytest.mark.parametrize("g_leak", [1.0, -0.0])
    def test_gap_free_signed_zeros_match_oracles(self, g_leak):
        # no junctions, so the gap sum is left out; base + chemical sum must
        # still give +0.0 where the loop's (leak + 0.0) + 0.0 does, also for
        # a neuron that receives nothing in a network with no synapse at all
        alone = LtcNetwork((NeuronParams(1.0, g_leak, -0.0),), (), (), 1)
        chain = LtcNetwork((NeuronParams(1.0, g_leak, -0.0),) * 2,
                           (ChemicalSynapse(0, 1, 1.0, 1.0, 0.0, -0.0),), (), 1)
        for net in (alone, chain):
            u = np.zeros(net.size)
            loop = [neuron_derivative(i, u, net) for i in range(net.size)]
            sig = np.array([sigmoid_activation(u[s.src], s.gamma, s.mu) for s in net.chem])
            loads = []
            for i, p in enumerate(net.neurons):
                chem = 0.0
                for s, a in zip(net.chem, sig):
                    if s.dst == i:
                        chem += s.w * a
                loads.append(p.g_leak + chem + 0.0)
            for got, want in [
                (network_derivative(u, net), loop),
                (one_step(Method.SEMI_IMPLICIT, u, net, 0.1), semi_implicit_step(u, net, 0.1)),
                (_conductance_loads(net, sig), loads),
            ]:
                assert (np.asarray(got).view(np.int64)
                        == np.asarray(want, dtype=float).view(np.int64)).all()

    def test_euler_matches_rk4_to_second_order(self):
        # |euler - rk4| = O(dt^2): halving dt shrinks the gap about 4x
        net = two_neuron_chain()
        u = np.array([0.2, 0.3])
        gaps = [np.max(np.abs(one_step(Method.EULER, u, net, dt)
                              - one_step(Method.RK4, u, net, dt)))
                for dt in (1e-3, 5e-4)]
        assert gaps[0] < 1e-5
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.15)

    def test_semi_implicit_box_preservation_any_dt(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            net = random_network(rng, chemical_only=True)
            lo, hi = box_arrays(state_bounds(net))
            u = rng.uniform(lo, hi)
            for dt in (0.01, 0.1, 1.0, 10.0):
                v = u.copy()
                for _ in range(30):
                    v = one_step(Method.SEMI_IMPLICIT, v, net, dt)
                assert np.all(v >= lo - 1e-12)
                assert np.all(v <= hi + 1e-12)


class TestSimulate:
    def test_two_rows_for_single_step(self):
        net = leak_neuron()
        traj = simulate(net, [1.0], SolverConfig(Method.EULER, 0.1, 0.1, 1))
        assert traj.n_points == 2
        assert traj.times[0] == 0.0
        assert traj.states[0, 0] == 1.0
        assert traj.states[1, 0] == pytest.approx(0.9)

    def test_first_row_is_initial_state_exactly(self):
        net = two_neuron_chain()
        u0 = np.array([0.123456789, -0.987654321])
        traj = simulate(net, u0, SolverConfig(Method.RK4, 1e-2, 0.5, 3))
        assert (traj.states[0] == u0).all()

    def test_recorded_rows_own_their_memory(self):
        net = two_neuron_chain()
        for method in Method:
            u0 = np.array([0.25, -0.5])
            traj = simulate(net, u0, SolverConfig(method, 0.1, 0.45, 2))
            u0[:] = 7.0  # the caller's array changes after the run
            assert (traj.states[0] == [0.25, -0.5]).all()
            rows = list(traj.states)
            assert not any(np.shares_memory(r, u0) for r in rows)
            assert not any(np.shares_memory(rows[i], rows[j])
                           for i in range(len(rows)) for j in range(i))
        u0 = np.array([1.0, 2.0])
        traj = integrate_field(lambda u: -u, u0, SolverConfig(Method.RK4, 0.1, 0.35))
        u0[:] = 7.0
        assert (traj.states[0] == [1.0, 2.0]).all()

    def test_rk4_leak_against_exponential(self):
        net = leak_neuron()
        traj = simulate(net, [1.0], SolverConfig(Method.RK4, 1e-3, 1.0, 1))
        err = np.abs(traj.states[:, 0] - np.exp(-traj.times))
        assert np.max(err) < 1e-12

    def test_driven_neuron_matches_analytic(self):
        net, a, b = driven_pair()
        u0 = np.array([0.3, -0.5])
        traj = simulate(net, u0, SolverConfig(Method.RK4, 1e-3, 5.0, 1))
        expect = analytic_driven(traj.times, u0[1], a, b)
        assert np.max(np.abs(traj.states[:, 1] - expect)) < 1e-8

    def test_rk4_convergence_order(self):
        net, a, b = driven_pair()
        u0 = np.array([0.3, -0.5])
        dts = np.logspace(-3, -1, 5)
        errs = []
        for dt in dts:
            stride = max(1, round(0.1 / dt))
            traj = simulate(net, u0, SolverConfig(Method.RK4, float(dt), 5.0, stride))
            expect = analytic_driven(traj.times, u0[1], a, b)
            errs.append(np.max(np.abs(traj.states[:, 1] - expect)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 3.7 <= slope <= 4.3

    def test_euler_rk4_sup_agreement(self):
        net = two_neuron_chain()
        u0 = np.array([0.2, 0.3])
        e = simulate(net, u0, SolverConfig(Method.EULER, 1e-4, 1.0, 100))
        r = simulate(net, u0, SolverConfig(Method.RK4, 1e-4, 1.0, 100))
        assert np.max(np.abs(e.states - r.states)) < 1e-4

    def test_partial_final_step(self):
        net = leak_neuron()
        traj = simulate(net, [1.0], SolverConfig(Method.RK4, 0.3, 1.0, 1))
        assert traj.times.tolist() == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
        assert traj.times[-1] == 1.0
        # value at the exact horizon (0.368), not at 1.2 (0.301)
        assert traj.states[-1, 0] == pytest.approx(np.exp(-1.0), rel=1e-3)

    def test_record_stride(self):
        net = leak_neuron()
        traj = simulate(net, [1.0], SolverConfig(Method.RK4, 0.1, 1.0, 4))
        assert traj.times.tolist() == pytest.approx([0.0, 0.4, 0.8, 1.0])

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(11)
        net = random_network(rng)
        u0 = rng.uniform(-1, 1, net.size)
        cfg = SolverConfig(Method.RK4, 1e-2, 2.0, 5)
        t1 = simulate(net, u0, cfg)
        t2 = simulate(net, u0, cfg)
        assert (t1.states == t2.states).all()
        assert (t1.times == t2.times).all()

    def test_divergence_attaches_partial_trajectory(self):
        net = leak_neuron()
        with pytest.raises(IntegrationDivergedError) as info:
            simulate(net, [1.0], SolverConfig(Method.EULER, 1e3, 1e6, 1))
        partial = info.value.trajectory
        assert partial is not None
        assert partial.n_points >= 1
        assert np.isfinite(partial.states).all()

    def test_finite_state_whose_square_overflows_is_not_divergence(self):
        # u.u is inf here, but every entry is finite: the run goes on
        for method in Method:
            traj = simulate(leak_neuron(), [1e200], SolverConfig(method, 0.1, 1.0))
            assert traj.n_points == 11 and np.isfinite(traj.states).all()
        traj = integrate_field(lambda u: -u, [1e200, -1e200], SolverConfig(Method.RK4, 0.1, 1.0))
        assert traj.n_points == 11 and np.isfinite(traj.states).all()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_divergence_time_and_partial_rows(self, bad):
        # a field that turns one entry non-finite on the second step
        f = lambda u: np.array([1.0, bad if u[0] >= 1.0 else 0.0])
        with pytest.raises(IntegrationDivergedError, match=r"diverged at t=2\.0: ") as info:
            integrate_field(f, [0.0, 0.0], SolverConfig(Method.EULER, 1.0, 5.0))
        partial = info.value.trajectory
        assert partial.times.tolist() == [0.0, 1.0]
        assert partial.states.tolist() == [[0.0, 0.0], [1.0, 0.0]]

    def test_integrate_field_rejects_non_vector_state(self):
        with pytest.raises(DimensionMismatchError):
            integrate_field(lambda u: -u, [[1.0, 2.0]], SolverConfig(Method.EULER, 0.1, 1.0))

    def test_gap_ring_conservation(self):
        from ltcsim import conservation_check

        ring = gap_ring()
        u0 = np.array([1.0, -0.3, 0.2])
        traj = simulate(ring, u0, SolverConfig(Method.RK4, 1e-3, 10.0, 10))
        assert conservation_check(traj, ring) < 1e-9

    def test_integrate_field_matches_simulate_on_network_rhs(self):
        from ltcsim import network_derivative

        net = two_neuron_chain()
        u0 = np.array([0.2, 0.3])
        cfg = SolverConfig(Method.RK4, 1e-2, 1.0, 10)
        a = simulate(net, u0, cfg)
        b = integrate_field(lambda u: network_derivative(u, net), u0, cfg)
        assert (a.states == b.states).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(Method.RK4, 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            SolverConfig(Method.RK4, 0.5, 0.1, 1)
        with pytest.raises(ValueError):
            SolverConfig(Method.RK4, 0.1, 1.0, 0)
        with pytest.raises(ValueError, match="heun"):
            SolverConfig("heun", 0.1, 1.0, 1)
        # a method given by name runs that method, bit for bit
        rng = np.random.default_rng(12)
        net = random_network(rng)
        u0 = rng.uniform(-1, 1, net.size)
        for method in Method:
            by_name = simulate(net, u0, SolverConfig(method.value, 0.1, 0.5))
            by_enum = simulate(net, u0, SolverConfig(method, 0.1, 0.5))
            assert SolverConfig(method.value, 0.1, 0.5).method is method
            assert (by_name.states == by_enum.states).all()
