"""Model-core: currents, derivatives, effective time constants, topology."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltcsim import (
    ChemicalSynapse,
    GapJunction,
    LtcNetwork,
    NeuronParams,
    TopologyError,
    chemical_current,
    effective_time_constant,
    gap_current,
    network_derivative,
    neuron_derivative,
    sigmoid_activation,
    random_network,
    tau_bounds,
)
from helpers import networks, two_neuron_chain


@st.composite
def network_states(draw, values, shared=False):
    net = draw(networks(bound=1e100, shared=shared))
    u = draw(st.lists(values, min_size=net.size, max_size=net.size))
    return net, np.array(u, dtype=float)


def float_bits(a):
    """Bit patterns with every nan made one nan: -0.0 != 0.0, nan == nan."""
    return np.where(np.isnan(a), np.nan, a).view(np.int64)


class TestSigmoid:
    def test_zero_argument_gives_half(self):
        for gamma in (0.5, 1.0, 3.0):
            for mu in (-2.0, 0.0, 1.5):
                assert sigmoid_activation(-mu, gamma, mu) == pytest.approx(0.5)

    def test_printed_formula(self):
        # direct evaluation through math.exp as an independent path
        expected = 1.0 / (1.0 + math.exp(-2.0 * (0.0 + 0.5)))
        assert sigmoid_activation(0.0, 2.0, 0.5) == pytest.approx(expected, rel=1e-14)
        assert sigmoid_activation(0.0, 2.0, 0.5) == pytest.approx(0.7310585786, rel=1e-9)

    def test_saturation(self):
        assert abs(sigmoid_activation(40.0, 1.0, 0.0) - 1.0) < 1e-12
        assert sigmoid_activation(-40.0, 1.0, 0.0) < 1e-12

    def test_open_interval_and_monotone(self):
        rng = np.random.default_rng(1)
        args = np.sort(rng.uniform(-30.0, 30.0, 200))
        vals = [sigmoid_activation(v, 1.0, 0.0) for v in args]
        assert all(0.0 < v < 1.0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_closed_bounds_under_saturation(self):
        # float64 saturates to exactly 0 or 1 for large arguments
        for v in (-1e6, -100.0, 0.0, 100.0, 1e6):
            s = sigmoid_activation(v, 2.0, 0.0)
            assert 0.0 <= s <= 1.0


class TestCurrents:
    def test_zero_weight(self):
        syn = ChemicalSynapse(0, 1, 0.0, 1.0, 0.0, 1.0)
        assert chemical_current(syn, 3.0, -2.0) == 0.0

    def test_reversal_equilibrium(self):
        syn = ChemicalSynapse(0, 1, 2.0, 1.0, 0.0, 0.7)
        assert chemical_current(syn, 5.0, 0.7) == 0.0

    def test_half_activation_value(self):
        syn = ChemicalSynapse(0, 1, 1.0, 1.0, 0.0, 1.0)
        assert chemical_current(syn, 0.0, 0.0) == pytest.approx(0.5)

    def test_sign_and_magnitude(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            syn = ChemicalSynapse(0, 1, rng.uniform(0, 2), rng.uniform(0.5, 2),
                                  rng.uniform(-1, 1), rng.uniform(-1, 1))
            v_pre, v_post = rng.uniform(-2, 2, 2)
            cur = chemical_current(syn, v_pre, v_post)
            assert cur * (syn.e_rev - v_post) >= 0.0
            assert abs(cur) <= syn.w * abs(syn.e_rev - v_post) + 1e-15

    def test_gap_zero_and_value(self):
        gj = GapJunction(0, 1, 2.0)
        assert gap_current(gj, 0.5, 0.5) == 0.0
        assert gap_current(gj, 0.0, 1.0) == 2.0

    def test_gap_antisymmetry_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            gj = GapJunction(0, 1, rng.uniform(0, 2))
            va, vb = rng.uniform(-3, 3, 2)
            assert gap_current(gj, va, vb) == -gap_current(gj, vb, va)


class TestDerivatives:
    def test_resting_isolated_neuron(self):
        net = LtcNetwork((NeuronParams(2.0, 1.5, 0.25),), (), (), 1)
        assert neuron_derivative(0, [0.25], net) == 0.0

    def test_single_synapse_value(self):
        net = LtcNetwork(
            (NeuronParams(1.0, 1.0, 0.0), NeuronParams(1.0, 0.5, 0.0)),
            (ChemicalSynapse(0, 1, 1.0, 1.0, 0.0, 1.0),),
            (),
            1,
        )
        # sigma(0) = 0.5, current 0.5, leak 0 -> (0 + 0.5)/1
        assert neuron_derivative(1, [0.0, 0.0], net) == pytest.approx(0.5)

    def test_decomposition(self):
        # derivative equals leak + independently summed currents
        rng = np.random.default_rng(4)
        for _ in range(20):
            net = random_network(rng)
            u = rng.uniform(-2, 2, net.size)
            for i in range(net.size):
                p = net.neurons[i]
                chem = sum(
                    chemical_current(s, u[s.src], u[i])
                    for s in net.chem
                    if s.dst == i
                )
                gap = sum(
                    gap_current(g, u[i], u[g.b if g.a == i else g.a])
                    for g in net.gaps
                    if i in (g.a, g.b)
                )
                expect = (p.g_leak * (p.v_leak - u[i]) + chem + gap) / p.cm
                assert neuron_derivative(i, u, net) == pytest.approx(
                    expect, rel=1e-12, abs=1e-15
                )

    def test_chain_hand_computed(self):
        net = two_neuron_chain()
        u = np.array([0.2, 0.3])
        d = network_derivative(u, net)
        # neuron 0: leak only, (1.0 * (0.5 - 0.2)) / 2.0
        assert d[0] == pytest.approx(0.15, rel=1e-15)
        # neuron 1: sigma = 1/(1+exp(-2(0.2+0.1))), current 1.5*sigma*(0.8-0.3)
        sig = 1.0 / (1.0 + math.exp(-2.0 * 0.3))
        expect = (0.5 * (-0.1 - 0.3) + 1.5 * sig * 0.5) / 1.0
        assert d[1] == pytest.approx(expect, rel=1e-14)

    def test_zero_weight_network_at_rest(self):
        rng = np.random.default_rng(5)
        leaks = rng.uniform(-1, 1, 4)
        neurons = tuple(NeuronParams(1.0, 1.0, v) for v in leaks)
        syns = tuple(ChemicalSynapse(0, i, 0.0, 1.0, 0.0, 0.5) for i in range(4))
        net = LtcNetwork(neurons, syns, (), 1)
        assert np.all(network_derivative(leaks, net) == 0.0)

    def test_matches_per_neuron_loop_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            net = random_network(rng)
            for _ in range(10):
                u = rng.uniform(-2, 2, net.size)
                vec = network_derivative(u, net)
                loop = np.array(
                    [neuron_derivative(i, u, net) for i in range(net.size)]
                )
                assert (vec == loop).all()

    @given(network_states(st.floats(-2.0, 2.0) | st.floats(-1e100, 1e100)))
    def test_matches_per_neuron_loop_property(self, case):
        net, u = case
        with np.errstate(over="ignore", invalid="ignore"):
            vec = network_derivative(u, net)
            loop = np.array([neuron_derivative(i, u, net) for i in range(net.size)],
                            dtype=float)
        assert (float_bits(vec) == float_bits(loop)).all()

    @given(network_states(st.floats(-2.0, 2.0) | st.floats(-1e100, 1e100), shared=True))
    def test_shared_channels_match_per_neuron_loop(self, case):
        # one sigmoid per shared (src, gamma, mu), gathered to its synapses
        net, u = case
        with np.errstate(over="ignore", invalid="ignore"):
            vec = network_derivative(u, net)
            loop = np.array([neuron_derivative(i, u, net) for i in range(net.size)],
                            dtype=float)
        assert (float_bits(vec) == float_bits(loop)).all()

    def test_index_out_of_range(self):
        net = two_neuron_chain()
        with pytest.raises(IndexError):
            neuron_derivative(5, [0.0, 0.0], net)

    def test_dimension_mismatch(self):
        from ltcsim import DimensionMismatchError

        net = two_neuron_chain()
        with pytest.raises(DimensionMismatchError):
            network_derivative([0.0, 0.0, 0.0], net)


class TestEffectiveTimeConstant:
    def test_bare_membrane(self):
        net = LtcNetwork((NeuronParams(2.0, 0.5, 0.0),), (), (), 1)
        assert effective_time_constant(0, [0.3], net) == pytest.approx(4.0)

    def test_saturated_low_limit(self):
        # presynaptic state far below threshold: sigma -> 0, tau -> cm/g
        net = LtcNetwork(
            (NeuronParams(1.0, 0.5, 0.0), NeuronParams(1.0, 0.5, 0.0)),
            (ChemicalSynapse(0, 1, 1.0, 1.0, 0.0, 1.0),),
            (),
            1,
        )
        assert effective_time_constant(1, [-1e4, 0.0], net) == pytest.approx(2.0)

    def test_half_activation_value(self):
        net = LtcNetwork(
            (NeuronParams(1.0, 0.5, 0.0), NeuronParams(1.0, 0.5, 0.0)),
            (ChemicalSynapse(0, 1, 1.0, 1.0, 0.0, 1.0),),
            (),
            1,
        )
        # 1 / (0.5 + 1.0 * 0.5)
        assert effective_time_constant(1, [0.0, 0.0], net) == pytest.approx(1.0)

    def test_huge_state_saturates_without_warning(self):
        # gamma * v overflows to inf for a finite v near 1e308; the sigmoid is
        # exactly 1, and no "overflow encountered in multiply" may escape
        net = LtcNetwork(
            (NeuronParams(1.0, 0.5, 0.0), NeuronParams(1.0, 0.5, 0.0)),
            (ChemicalSynapse(0, 1, 1.0, 2.0, 0.0, 1.0),),
            (),
            1,
        )
        assert effective_time_constant(1, [1e308, 0.0], net) == 1.0 / (0.5 + 1.0)

    def test_interval_membership_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            net = random_network(rng)
            u = rng.uniform(-5, 5, net.size)
            for i in range(net.size):
                tb = tau_bounds(i, net)
                tau = effective_time_constant(i, u, net)
                assert tb.tau_min <= tau <= tb.tau_max

    @given(network_states(st.floats(-2.0, 2.0) | st.floats(-1e100, 1e100)
                          | st.sampled_from([math.inf, -math.inf])))
    def test_interval_membership_property(self, case):
        net, u = case
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(net.size):
                tb = tau_bounds(i, net)
                assert tb.tau_min <= effective_time_constant(i, u, net) <= tb.tau_max

    @given(network_states(st.floats(-2.0, 2.0) | st.floats(-1e100, 1e100)
                          | st.sampled_from([math.inf, -math.inf]), shared=True))
    def test_interval_membership_shared_channels(self, case):
        net, u = case
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(net.size):
                tb = tau_bounds(i, net)
                assert tb.tau_min <= effective_time_constant(i, u, net) <= tb.tau_max


class TestTopologyAndInvariants:
    def test_output_to_hidden_rejected(self):
        neurons = (NeuronParams(1, 1, 0), NeuronParams(1, 1, 0))
        with pytest.raises(TopologyError):
            LtcNetwork(neurons, (ChemicalSynapse(1, 0, 1.0, 1.0, 0.0, 0.0),), (), 1)

    def test_output_to_output_rejected(self):
        neurons = tuple(NeuronParams(1, 1, 0) for _ in range(3))
        with pytest.raises(TopologyError):
            LtcNetwork(neurons, (ChemicalSynapse(2, 1, 1.0, 1.0, 0.0, 0.0),), (), 2)

    def test_output_autapse_rejected(self):
        neurons = (NeuronParams(1, 1, 0), NeuronParams(1, 1, 0))
        with pytest.raises(TopologyError):
            LtcNetwork(neurons, (ChemicalSynapse(1, 1, 1.0, 1.0, 0.0, 0.0),), (), 1)

    def test_gap_touching_output_rejected(self):
        neurons = tuple(NeuronParams(1, 1, 0) for _ in range(3))
        with pytest.raises(TopologyError):
            LtcNetwork(neurons, (), (GapJunction(0, 2, 1.0),), 1)

    def test_hidden_wiring_allowed(self):
        neurons = tuple(NeuronParams(1, 1, 0) for _ in range(3))
        net = LtcNetwork(
            neurons,
            (
                ChemicalSynapse(0, 0, 1.0, 1.0, 0.0, 0.0),  # hidden autapse
                ChemicalSynapse(0, 1, 1.0, 1.0, 0.0, 0.0),
                ChemicalSynapse(1, 2, 1.0, 1.0, 0.0, 0.0),  # hidden -> output
            ),
            (GapJunction(0, 1, 0.5),),
            1,
        )
        assert net.n_hidden == 2

    def test_parameter_invariants(self):
        with pytest.raises(ValueError):
            NeuronParams(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            NeuronParams(1.0, -0.1, 0.0)
        with pytest.raises(ValueError):
            ChemicalSynapse(0, 1, -1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ChemicalSynapse(0, 1, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            GapJunction(0, 0, 1.0)
        with pytest.raises(ValueError):
            GapJunction(0, 1, -1.0)

    def test_leakless_neuron_allowed(self):
        # required by the conservation check on leakless gap rings
        NeuronParams(1.0, 0.0, 0.0)

    def test_index_range_validated(self):
        neurons = (NeuronParams(1, 1, 0),)
        with pytest.raises(ValueError):
            LtcNetwork(neurons, (ChemicalSynapse(0, 3, 1.0, 1.0, 0.0, 0.0),), (), 1)
        with pytest.raises(ValueError):
            LtcNetwork(neurons, (), (), 2)

    def test_degenerate_networks(self):
        empty = LtcNetwork((), (), (), 0)
        assert empty.size == 0
        lonely = LtcNetwork((NeuronParams(1, 1, 0),), (), (), 1)
        assert lonely.n_hidden == 0

    def test_equality_and_immutability(self):
        a = two_neuron_chain()
        b = two_neuron_chain()
        assert a == b
        with pytest.raises(AttributeError):
            a.n_output = 2

    def test_state_validation(self):
        from ltcsim import DimensionMismatchError, validate_state

        net = two_neuron_chain()
        u = validate_state([0.1, 0.2], net)
        assert u.dtype == np.float64
        with pytest.raises(DimensionMismatchError):
            validate_state([0.1], net)
        with pytest.raises(ValueError, match="finite"):
            validate_state([0.1, np.nan], net)
