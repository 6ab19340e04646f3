"""Solver: steppers, trajectory recording, convergence, boundedness."""

import contextlib
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import ltcsim.solver
from ltcsim import (
    ChemicalSynapse,
    DimensionMismatchError,
    GapJunction,
    IntegrationDivergedError,
    LtcNetwork,
    Method,
    NeuronParams,
    SolverConfig,
    integrate_field,
    network_derivative,
    neuron_derivative,
    parse_field,
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
    realized_network,
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

    @given(networks(bound=1e6, block=True), st.data(), st.sampled_from([0.01, 0.1, 1.0]))
    def test_semi_implicit_step_blocks(self, net, data, dt):
        # bitwise, with one sigmoid per source and one load sum per state
        assert net._block
        u = np.array(data.draw(st.lists(st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0]),
                                        min_size=net.size, max_size=net.size)), dtype=float)
        got = one_step(Method.SEMI_IMPLICIT, u, net, dt)
        assert (got.view(np.int64) == semi_implicit_step(u, net, dt).view(np.int64)).all()

    @pytest.mark.parametrize("w", [0.0, -0.0])
    @pytest.mark.parametrize("rows", [1, 12])
    def test_block_signed_zeros_match_oracles(self, w, rows):
        # every term of a neuron's block column, and of the shared load, is a
        # signed zero: the sums must start at +0.0 as the loops' do
        size = rows + 1
        neurons = [NeuronParams(1.0, g, -0.0) for g in (1.0, -0.0) * size][:size]
        chem = [ChemicalSynapse(r, j, w, 1.0, -0.0, (1.0, -1.0, -0.0)[j % 3])
                for r in range(rows) for j in range(size)]
        net = LtcNetwork(neurons, chem, (), 1)
        assert net._block
        for u in (np.zeros(size), np.full(size, -0.0)):
            loop = [neuron_derivative(i, u, net) for i in range(size)]
            sig = np.array([sigmoid_activation(u[r], 1.0, -0.0) for r in range(rows)])[:, None]
            loads = []
            for p in net.neurons:
                chem = 0.0
                for a in sig[:, 0]:
                    chem += w * a
                loads.append(p.g_leak + chem + 0.0)
            for got, want in [
                (network_derivative(u, net), loop),
                (one_step(Method.SEMI_IMPLICIT, u, net, 0.1), semi_implicit_step(u, net, 0.1)),
                (_conductance_loads(net, sig), loads),
            ]:
                assert (np.asarray(got).view(np.int64)
                        == np.asarray(want, dtype=float).view(np.int64)).all()

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

    @pytest.mark.parametrize("text", ["x1^9", "*".join(["x1"] * 9)], ids=["power", "product"])
    def test_overflowing_field_diverges(self, text):
        # from 2, RK4's second step reaches 1e47: the power raises OverflowError
        # and the product gives inf, and both end the run there
        f = parse_field([text], [[-2.0, 2.0]]).fn
        with pytest.raises(IntegrationDivergedError, match=r"diverged at t=0\.002: ") as info:
            integrate_field(f, [2.0], SolverConfig(Method.RK4, 1e-3, 1.0))
        partial = info.value.trajectory
        assert partial.times.tolist() == [0.0, 0.001]
        assert np.isfinite(partial.states).all()

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

    def test_record_every_error_names_its_field(self):
        for stride, kind in ((1.5, "float"), (2.0, "float"), ("2", "str"), (None, "NoneType")):
            with pytest.raises(TypeError, match=rf"^record_every: '{kind}' object cannot be "
                                                "interpreted as an integer$"):
                SolverConfig(Method.EULER, 0.1, 1.0, stride)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(Method.RK4, 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            SolverConfig(Method.RK4, 0.5, 0.1, 1)
        with pytest.raises(ValueError):
            SolverConfig(Method.RK4, 0.1, 1.0, 0)
        with pytest.raises(ValueError, match="heun"):
            SolverConfig("heun", 0.1, 1.0, 1)
        # finite dt and t_end whose step count overflows
        with pytest.raises(ValueError, match=r"t_end / dt must be finite, got 1e\+300 / 1e-300"):
            SolverConfig(Method.RK4, 1e-300, 1e300, 1)
        with pytest.raises(ValueError, match=r"at most 2\*\*50 steps, got 10000\.0 / 1e-12"):
            SolverConfig(Method.RK4, 1e-12, 1e4, 1)
        assert SolverConfig(Method.EULER, 1.0, 2.0**50).t_end == 2.0**50
        # a stride that is not an integer is refused; numpy integers work
        for stride in (2.5, 2.0, "2"):
            with pytest.raises(TypeError):
                SolverConfig(Method.EULER, 0.1, 1.0, stride)
        by_numpy = SolverConfig(Method.EULER, 0.1, 1.0, np.int64(2))
        assert type(by_numpy.record_every) is int and by_numpy.record_every == 2
        times = simulate(two_neuron_chain(), [0.1, 0.2], by_numpy).times
        assert times.tolist() == [0.0, *(0.2 * k for k in range(1, 5)), 1.0]
        # a method given by name runs that method, bit for bit
        rng = np.random.default_rng(12)
        net = random_network(rng)
        u0 = rng.uniform(-1, 1, net.size)
        for method in Method:
            by_name = simulate(net, u0, SolverConfig(method.value, 0.1, 0.5))
            by_enum = simulate(net, u0, SolverConfig(method, 0.1, 0.5))
            assert SolverConfig(method.value, 0.1, 0.5).method is method
            assert (by_name.states == by_enum.states).all()


def outcome(net, u0, config):
    """What simulate gives: (None, trajectory), or on divergence the error's
    text and its partial trajectory."""
    try:
        return None, simulate(net, u0, config)
    except IntegrationDivergedError as exc:
        return str(exc), exc.trajectory


def counting(mp) -> list:
    """Count calls of the array derivative through the solver's name."""
    calls = []
    derivative = ltcsim.solver.network_derivative

    def counted(u, n):
        calls.append(1)
        return derivative(u, n)

    mp.setattr(ltcsim.solver, "network_derivative", counted)
    return calls


def derivative_calls(monkeypatch, net, steps=3) -> int:
    """Calls of the array derivative in a ``steps``-step Euler run of ``net``."""
    calls = counting(monkeypatch)
    simulate(net, np.full(net.size, 0.1), SolverConfig(Method.EULER, 0.1, 0.1 * steps))
    monkeypatch.undo()
    return len(calls)


@contextlib.contextmanager
def forced(compiled: bool):
    """A monkeypatch context in which ``simulate`` steps a network on the
    compiled run (``compiled``) or on arrays, however long the run and large
    the network."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ltcsim.solver, "_MAX_UNITS", math.inf if compiled else -1)
        mp.setattr(ltcsim.solver, "_UNIT_EVALS", 0)
        yield mp


def assert_compiled_equals_array(net, u0, config):
    """The compiled run, forced however short the run, gives the array path's
    outcome bit for bit, and never calls the array derivative."""
    with forced(True) as mp:
        calls = counting(mp)
        compiled = outcome(net, u0, config)
    assert calls == []
    with forced(False):
        array = outcome(net, u0, config)
    assert compiled[0] == array[0]
    for got, want in zip((compiled[1].times, compiled[1].states),
                         (array[1].times, array[1].states)):
        assert got.shape == want.shape
        assert (got.view(np.int64) == want.view(np.int64)).all()
    return compiled


class TestScalarPath:
    """Small networks step on one compiled function per run, over lists of
    floats, with the array path's bits."""

    @given(networks(shared=True) | networks(bound=4.0, shared=True), st.data(),
           st.sampled_from(list(Method)), st.sampled_from([1e-3, 0.1, 1.0, 1e3]),
           st.integers(1, 6), st.sampled_from([0.0, 0.25, 0.5]), st.integers(1, 3))
    def test_scalar_path_equals_array_path(self, net, data, method, dt, steps, short,
                                           record_every):
        # a short final step when ``short`` > 0.  Values up to 1e308 make
        # divergence common; bounded ones give terms of like magnitude, whose
        # sums round differently in another order.
        assume(not net._block)
        u0 = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                                | st.floats(-2.0, 2.0)
                                | st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308]),
                                min_size=net.size, max_size=net.size))
        config = SolverConfig(method, dt, dt * (steps + short), record_every)
        assert_compiled_equals_array(net, u0, config)

    @given(networks(block=True) | networks(bound=4.0, block=True), st.data(),
           st.sampled_from(list(Method)), st.sampled_from([1e-3, 0.1, 1.0, 1e3]),
           st.integers(1, 4), st.sampled_from([0.0, 0.5]))
    def test_small_blocks_compiled_equal_arrays(self, net, data, method, dt, steps, short):
        # blocks within _MAX_UNITS compile like any network: each neuron's
        # synapses are summed in source order from +0.0, as the grid's columns
        assume(net.n_chem + 3 * net.size <= ltcsim.solver._MAX_UNITS)
        assert net._block
        u0 = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                                | st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0]),
                                min_size=net.size, max_size=net.size))
        assert_compiled_equals_array(net, u0, SolverConfig(method, dt, dt * (steps + short)))

    @pytest.mark.parametrize("method", list(Method))
    def test_block_edges_compiled(self, monkeypatch, method):
        # w = -0.0 against e_rev = +-0.0, where every term is a signed zero, and
        # a source whose sigmoid argument crosses -_EXP_MAX mid-run, which
        # reruns the block on the guarded form
        forms = []
        generate = ltcsim.solver._compiled_run
        monkeypatch.setattr(ltcsim.solver, "_compiled_run",
                            lambda net, m, guarded=False: forms.append(guarded)
                            or generate(net, m, guarded))
        zeros = LtcNetwork([NeuronParams(1.0, 1.0, -0.0)] * 3,
                           [ChemicalSynapse(r, j, -0.0, 1.0, -0.0, (0.0, -0.0)[(j + r) % 2])
                            for r in range(2) for j in range(3)], (), 1)
        crossing = LtcNetwork([NeuronParams(1.0, 1.0, -2.0), NeuronParams(1.0, 1.0, 0.0)],
                              [ChemicalSynapse(0, j, 1.0, 1e3, 0.0, (-2.0, 1.0)[j])
                               for j in range(2)], (), 1)
        for net, u0, guarded in ((zeros, [-0.0, 0.0, -0.0], [False]),
                                 (zeros, [0.0, -0.0, 0.0], [False]),
                                 (crossing, [0.0, 0.5], [False, True])):
            assert net._block
            forms.clear()
            _, traj = assert_compiled_equals_array(net, u0, SolverConfig(method, 0.01, 1.0))
            assert forms == guarded
        assert traj.states[-1, 0] < -0.71

    @pytest.mark.parametrize("guarded", [False, True])
    @pytest.mark.parametrize("method", list(Method))
    def test_block_shares_one_sigmoid_per_source(self, monkeypatch, method, guarded):
        # a realized N = 4 block, 4 sources into 6 neurons: 24 synapses, but
        # one w * sigma, so one exp, per source in each derivative
        sources = []
        monkeypatch.setattr(ltcsim.solver, "compile", lambda source, *args:
                            sources.append(source) or compile(source, *args), raising=False)
        net = realized_network(4)
        assert net._block and net.n_chem == 24
        ltcsim.solver._compiled_run(net, method, guarded)
        assert sources[0].count("exp(") == 4
        monkeypatch.undo()
        assert_compiled_equals_array(net, np.linspace(-1.0, 1.0, 6),
                                     SolverConfig(method, 0.01, 0.5))

    @staticmethod
    def assert_one_sigmoid_per_activation(net, activations):
        # each activation, one per synapse or per block source, gets one
        # a<c> = w * sigma statement, so one exp, in every method's source
        for method in Method:
            for guarded in (False, True):
                sources = []
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(ltcsim.solver, "compile", lambda source, *args: sources.append(
                        source) or compile(source, *args), raising=False)
                    ltcsim.solver._compiled_run(net, method, guarded)
                assert sources[0].count("exp(") == activations
                names = re.findall(r"^ *a(\d+) = ", sources[0], re.MULTILINE)
                assert sorted(map(int, names)) == list(range(activations))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_sigmoid_per_block_source(self, n):
        net = realized_network(n)
        assert net._block and net.n_chem == n * (n + 2)
        self.assert_one_sigmoid_per_activation(net, n)

    @given(networks() | networks(shared=True))
    def test_one_sigmoid_per_synapse(self, net):
        assume(not net._block)  # a random network is rarely a block
        self.assert_one_sigmoid_per_activation(net, net.n_chem)

    def test_junction_sides_in_order(self):
        # neuron 0 has a-sides to 1 and 2, then b-sides from 3 and 2: summed
        # b-sides first, its semi-implicit numerator rounds to 1 + 2**-51, not 1
        net = LtcNetwork([NeuronParams(1.0, 0.0, 0.0)] * 5, (),
                         [GapJunction(0, 1, 1.0), GapJunction(0, 2, 1.0),
                          GapJunction(3, 0, 1.0), GapJunction(2, 0, 1.0)], 1)
        u0 = [0.0, 1.0, 2.0**-53, 2.0**-53, 0.0]
        for method in Method:
            scalar = assert_compiled_equals_array(net, u0, SolverConfig(method, 0.1, 0.1))
        # the last run, semi-implicit, also equals the neuron-by-neuron step
        assert (scalar[1].states[-1].view(np.int64)
                == semi_implicit_step(np.array(u0), net, 0.1).view(np.int64)).all()

    @pytest.mark.parametrize("method", list(Method))
    def test_compiled_edge_cases(self, method):
        terms = ltcsim.solver._MAX_UNITS - 3 * 3
        rng = np.random.default_rng(3)
        # every synapse into one neuron, at the largest count that compiles
        into_one = LtcNetwork(
            [NeuronParams(1.0, 0.5, 0.2)] * 3,
            [ChemicalSynapse(k % 2, 2, *rng.uniform(0.5, 2.0, 2), *rng.uniform(-1.0, 1.0, 2))
             for k in range(terms)], (), 1)
        assert into_one.n_chem == terms and not into_one._block
        # g_leak * v_leak and the junction loads overflow to inf
        overflow = LtcNetwork(
            [NeuronParams(1.0, 1e308, 1e308), NeuronParams(1.0, 1e308, 0.0),
             NeuronParams(1.0, 1.0, 0.0), NeuronParams(1.0, 1.0, -1.0)],
            [ChemicalSynapse(2, 3, 1e308, 1e308, 1e308, 1e308)],
            [GapJunction(1, 2, 1e308), GapJunction(2, 1, 1e308)], 1)
        signed_zeros = LtcNetwork(
            [NeuronParams(1.0, 1.0, -0.0), NeuronParams(2.0, 0.0, -0.0)],
            [ChemicalSynapse(0, 1, 1.0, 1.0, -0.0, -0.0), ChemicalSynapse(0, 0, 0.0, 1.0, -0.0, 1.0)],
            (), 1)
        cases = [(into_one, [0.3, -0.2, 0.1]), (LtcNetwork([], (), (), 0), []),
                 (overflow, [0.5, 0.25, -0.5, 0.0]), (overflow, [-1.0, 2.0, 0.0, 1e-300]),
                 (signed_zeros, [-0.0, -0.0]), (signed_zeros, [0.0, -0.0])]
        for net, u0 in cases:
            for dt, t_end in ((0.1, 0.3), (1e-3, 1e-3), (1e3, 2.5e3)):
                assert_compiled_equals_array(net, u0, SolverConfig(method, dt, t_end))

    @pytest.mark.parametrize("method", list(Method))
    def test_overflow_fallback(self, monkeypatch, method):
        # the unguarded sigmoid's exp overflows where the argument falls below
        # -_EXP_MAX; the run is then redone on the guarded form, compiled only then
        edge = -ltcsim.model._EXP_MAX
        forms = []
        generate = ltcsim.solver._compiled_run
        monkeypatch.setattr(ltcsim.solver, "_compiled_run",
                            lambda net, m, guarded=False: forms.append(guarded)
                            or generate(net, m, guarded))
        # neuron 0 leaks from 0 towards -2 and crosses -0.7098 mid-run
        crossing = LtcNetwork([NeuronParams(1.0, 1.0, -2.0), NeuronParams(1.0, 1.0, 0.0)],
                              [ChemicalSynapse(0, 1, 1.0, 1e3, 0.0, 1.0)], (), 1)
        forms.clear()
        _, traj = assert_compiled_equals_array(crossing, [0.0, 0.5],
                                               SolverConfig(method, 0.01, 1.0))
        assert forms == [False, True] and traj.states[-1, 0] < -0.71
        # neuron 0 holds its state, which puts the argument at -_EXP_MAX or next
        # to it; at the edge, w = 1e300 makes the subnormal sigmoid show in x1
        edge_synapse = ChemicalSynapse(0, 1, 1e300, 1.0, 0.0, 1.0)
        neurons = [NeuronParams(1.0, 0.0, 0.0)] * 3
        held = LtcNetwork(neurons, [edge_synapse], (), 2)
        for x0, crosses in ((math.nextafter(edge, -math.inf), True), (edge, False),
                            (math.nextafter(edge, 0.0), False)):
            forms.clear()
            _, traj = assert_compiled_equals_array(held, [x0, 0.0, 0.0],
                                                   SolverConfig(method, 0.1, 0.35))
            assert forms == ([False, True] if crosses else [False])
            assert (traj.states[-1, 1] > 0.0) == (not crosses)
        # a second synapse past the edge: the guarded form keeps the edge value
        past = LtcNetwork(neurons, [edge_synapse, ChemicalSynapse(0, 2, 1.0, 2.0, 0.0, 1.0)],
                          (), 2)
        forms.clear()
        _, traj = assert_compiled_equals_array(past, [edge, 0.0, 0.0],
                                               SolverConfig(method, 0.1, 0.35))
        assert forms == [False, True] and traj.states[-1, 1] > 0.0

    @pytest.mark.parametrize("every", [1, 3])
    def test_divergence_parity(self, every):
        # the same message and partial trajectory mid-run, and on a short final step
        pair = LtcNetwork([NeuronParams(1.0, 1.0, 1e308), NeuronParams(1.0, 1.0, 0.0)], (),
                          [GapJunction(0, 1, 10.0)], 0)
        for net, method, dt, at in ((leak_neuron(), Method.EULER, 1e3, 103),
                                    (leak_neuron(), Method.RK4, 1e3, 30),
                                    (pair, Method.SEMI_IMPLICIT, 0.01, 27)):
            u0 = [1.0] * net.size
            for steps, t in ((at + 10, at * dt), (at - 0.5, (at - 0.5) * dt)):
                text, partial = assert_compiled_equals_array(
                    net, u0, SolverConfig(method, dt, steps * dt, every))
                assert text == f"integration diverged at t={t}: non-finite state component"
                assert partial.times.tolist() == [k * dt for k in range(0, at, every)]

    def test_size_edge(self, monkeypatch):
        # units = synapses + junctions + 3 * neurons; a network compiles from
        # _UNIT_EVALS * units evaluations (Euler steps) up to _MAX_UNITS units
        per_unit, most = ltcsim.solver._UNIT_EVALS, ltcsim.solver._MAX_UNITS
        neurons = [NeuronParams(1.0, 1.0, 0.1 * k) for k in range(32)]
        gaps = [GapJunction(0, 1, 0.5), GapJunction(2, 3, 0.25)]
        chem = [ChemicalSynapse(k % 7, k % 8, 0.5, 1.0, 0.1, -0.5) for k in range(128)]
        for size, terms in ((8, 32), (32, 16), (8, most - 24), (2, 0)):
            net = LtcNetwork(neurons[:size], chem[:terms - 2] if terms else (),
                             gaps if terms else (), 1)
            gate = per_unit * (terms + 3 * size)
            assert not net._block and gate <= per_unit * most
            assert derivative_calls(monkeypatch, net, gate) == 0
            assert derivative_calls(monkeypatch, net, gate - 1) == gate - 1
            assert derivative_calls(monkeypatch, net, 3) == 3
        assert derivative_calls(monkeypatch, two_neuron_chain(), 35) == 0  # 7 units
        # past _MAX_UNITS, and for 2,000 leak-only neurons, arrays however long
        over = LtcNetwork(neurons[:8], chem[:most - 25], gaps, 1)
        leaky = LtcNetwork([NeuronParams(1.0, 1.0, 0.0)] * 2000, (), (), 1)
        for net, steps in ((over, 3), (over, 10 * most), (leaky, 200)):
            assert derivative_calls(monkeypatch, net, steps) == steps
        # a block compiles from its gate like any network; a realized N = 256
        # block is past _MAX_UNITS and steps on arrays however long the run
        small = LtcNetwork(neurons[:2], [ChemicalSynapse(0, j, 0.5, 1.0, 0.1, -0.5)
                                         for j in range(2)], (), 1)
        gate = per_unit * (2 + 3 * 2)
        assert small._block
        assert derivative_calls(monkeypatch, small, gate) == 0
        assert derivative_calls(monkeypatch, small, gate - 1) == gate - 1
        large = realized_network(256)
        assert large._block and large.n_chem + 3 * large.size > most
        for steps in (3, 100):
            assert derivative_calls(monkeypatch, large, steps) == steps
