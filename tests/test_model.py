"""Model-core: currents, derivatives, effective time constants, topology."""

import json
import math
import re
import tracemalloc
import warnings
from collections import namedtuple
from dataclasses import astuple
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

from ltcsim import (
    ChemicalSynapse,
    FormatError,
    GapJunction,
    LtcNetwork,
    NeuronParams,
    TopologyError,
    chemical_current,
    effective_time_constant,
    gap_current,
    network_derivative,
    neuron_derivative,
    parse_network,
    sigmoid_activation,
    random_network,
    tau_bounds,
)
from ltcsim import model
from ltcsim.model import _CHUNK, _expit_libm
from helpers import networks, two_neuron_chain


@st.composite
def network_states(draw, values, shared=False, block=False):
    net = draw(networks(bound=1e100, shared=shared, block=block))
    u = draw(st.lists(values, min_size=net.size, max_size=net.size))
    return net, np.array(u, dtype=float)


def float_bits(a):
    """Bit patterns with every nan made one nan: -0.0 != 0.0, nan == nan."""
    return np.where(np.isnan(a), np.nan, a).view(np.int64)


# the sigmoid's edges: signed zeros, infinities, NaN, subnormals, where exp
# underflows (745.2) and the largest argument whose exp is finite
_EXP_MAX = 709.782712893384
SIGMOID_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                 1e-310, -1e-310, 745.2, -745.2, 800.0, -800.0]
SIGMOID_EDGES += [sign * math.nextafter(_EXP_MAX, to) for sign in (1.0, -1.0)
                  for to in (0.0, _EXP_MAX, math.inf)]
sigmoid_args = (st.sampled_from(SIGMOID_EDGES) | st.floats(-750.0, 750.0)
                | st.floats(allow_nan=True, allow_infinity=True))


class TestSigmoid:
    @given(st.data())
    def test_libm_path_equals_scipy(self, data):
        shape = data.draw(st.just(()) | st.tuples(st.integers(0, 20) | st.integers(60, 200))
                          | st.tuples(st.integers(0, 4), st.integers(0, 6))
                          | st.tuples(st.integers(8, 12), st.integers(6, 12))
                          | st.tuples(st.integers(1, 4), st.integers(1, 6), st.just(1)))
        values = data.draw(st.lists(sigmoid_args, min_size=math.prod(shape),
                                    max_size=math.prod(shape)))
        x = np.array(values, dtype=float).reshape(shape)
        got = _expit_libm(x)
        with np.errstate(over="ignore"):
            want = np.asarray(expit(x))
        assert got.shape == shape and got.dtype == np.float64
        assert (got.view(np.int64) == want.view(np.int64)).all()

    @pytest.mark.parametrize("shape", [(2 * len(SIGMOID_EDGES),), (2, len(SIGMOID_EDGES)),
                                       (8 * len(SIGMOID_EDGES),), (4, 2 * len(SIGMOID_EDGES)),
                                       (0,), (3, 0), ()])
    def test_libm_path_on_every_edge(self, shape):
        # every edge and its negation, in 1-D and 2-D, short and long, and
        # empty; a 0-d input takes the first edge, 0.0, and gives a 0-d array
        x = np.resize(np.array(SIGMOID_EDGES + [-v for v in SIGMOID_EDGES]), shape)
        got = _expit_libm(x)
        with np.errstate(over="ignore"):
            want = np.asarray(expit(x))
        assert type(got) is np.ndarray and got.shape == shape and got.dtype == np.float64
        assert (got.view(np.int64) == want.view(np.int64)).all()

    @pytest.mark.parametrize("shape", [(_CHUNK - 1,), (_CHUNK,), (_CHUNK + 1,),
                                       (2 * _CHUNK + 3,), (3, _CHUNK // 2 + 7, 1), ()])
    def test_libm_path_across_chunk_edges(self, shape):
        # random values with every edge and its negation straddling each
        # chunk boundary, the array's start and its end
        edges = np.array(SIGMOID_EDGES + [-v for v in SIGMOID_EDGES])
        flat = np.random.default_rng(5).uniform(-50.0, 50.0, math.prod(shape))
        for boundary in range(0, flat.size + _CHUNK, _CHUNK):
            lo = max(min(boundary, flat.size) - len(edges) // 2, 0)
            part = flat[lo:lo + len(edges)]
            part[...] = edges[:part.size]
        x = flat.reshape(shape)
        before = x.copy()
        got = _expit_libm(x)
        with np.errstate(over="ignore"):
            want = np.asarray(expit(x))
        assert type(got) is np.ndarray and got.shape == shape and got.dtype == np.float64
        assert (got.view(np.int64) == want.view(np.int64)).all()
        assert (x.view(np.int64) == before.view(np.int64)).all()  # the input is not written

    @pytest.mark.parametrize("shape", [(2 * len(SIGMOID_EDGES),), (4, 2 * len(SIGMOID_EDGES)),
                                       (2 * _CHUNK + 3,), (3, _CHUNK // 2 + 7, 1), (0,), ()])
    @pytest.mark.parametrize("target", ["x", "new", "strided"])
    def test_libm_path_into_out(self, shape, target):
        # out=x overwrites x with expit(x)'s bits: the mask of values below
        # -_EXP_MAX is taken before out is written, else -800.0 would give a
        # subnormal instead of 0.0.  A separate out, contiguous or strided,
        # gets the same bits and leaves x as it was
        x = np.resize(np.array(SIGMOID_EDGES + [-v for v in SIGMOID_EDGES]), shape)
        before = x.copy()
        with np.errstate(over="ignore"):
            want = np.asarray(expit(x))
        out = {"x": x, "new": np.empty(shape), "strided": np.empty(shape + (2,))[..., 0]}[target]
        got = _expit_libm(x, out=out)
        assert got is out and got.shape == shape
        assert (got.view(np.int64) == want.view(np.int64)).all()
        if target != "x":
            assert (x.view(np.int64) == before.view(np.int64)).all()

    def test_libm_peak_memory(self):
        # a whole tolist() of 2**18 values and the full-size temporaries
        # beside it peak at 5 times the input's bytes; chunks at about 1.2
        x = np.random.default_rng(0).normal(0.0, 5.0, 2**18)
        tracemalloc.start()
        try:
            _expit_libm(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * x.nbytes

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

    @given(network_states(st.floats(-2.0, 2.0) | st.floats(-1e100, 1e100)
                          | st.sampled_from([0.0, -0.0]), block=True))
    def test_blocks_match_per_neuron_loop(self, case):
        # one sigmoid per source, broadcast over an (R, size) grid
        net, u = case
        assert net._block
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

    @pytest.mark.parametrize("state", [np.zeros(5), np.zeros(1), np.zeros((2, 2))])
    def test_every_state_function_refuses_wrong_shape(self, state):
        from ltcsim import DimensionMismatchError, validate_state

        net = two_neuron_chain()
        calls = [lambda: network_derivative(state, net), lambda: validate_state(state, net),
                 lambda: neuron_derivative(0, state, net),
                 lambda: effective_time_constant(0, state, net)]
        for call in calls:
            with pytest.raises(DimensionMismatchError,
                               match=re.escape(f"state has shape {state.shape}, network has 2")):
                call()


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
            assert_tau_in_interval(net, rng.uniform(-5, 5, net.size))

    @given(network_states(st.floats(-2.0, 2.0) | st.floats(-1e100, 1e100)
                          | st.sampled_from([math.inf, -math.inf])))
    def test_interval_membership_property(self, case):
        assert_tau_in_interval(*case)

    @given(network_states(st.floats(-2.0, 2.0) | st.floats(-1e100, 1e100)
                          | st.sampled_from([math.inf, -math.inf]), shared=True))
    def test_interval_membership_shared_channels(self, case):
        assert_tau_in_interval(*case)

    @given(network_states(st.floats(-2.0, 2.0) | st.floats(-1e100, 1e100)
                          | st.sampled_from([0.0, -0.0, math.inf, -math.inf]), block=True))
    def test_interval_membership_blocks(self, case):
        assert_tau_in_interval(*case)


def assert_tau_in_interval(net, u):
    """Every neuron's effective time constant at ``u`` lies in its closed-form
    interval, under either sigmoid ``model.expit`` may use: the math.exp one
    and scipy's.  Nothing else checks this at run time (the monitor evaluates
    no activation), and a test process spends the math.exp budget early, so
    without the patch most draws would see scipy's alone."""
    for sigmoid in (_expit_libm, expit):
        with mock.patch.object(model, "expit", sigmoid), np.errstate(over="ignore",
                                                                        invalid="ignore"):
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


# One network with every item group: 3 neurons (the last an output), the
# 2 x 3 synapses of a block and 3 gap junctions, as columns.
RULE_NET = {
    "neurons": {"cm": [1.0, 2.0, 1.0], "g_leak": [0.5, 1.0, 0.1], "v_leak": [-0.1, 0.2, 0.0]},
    "chemical_synapses": {"src": [0, 0, 0, 1, 1, 1], "dst": [0, 1, 2] * 2,
                          "w": [1.5] * 3 + [0.5] * 3, "gamma": [2.0] * 3 + [1.0] * 3,
                          "mu": [0.1] * 3 + [-0.2] * 3,
                          "e_rev": [0.8, -0.8, 0.3, 0.2, 0.4, -0.6]},
    "gap_junctions": {"a": [0, 1, 0], "b": [1, 0, 1], "w_hat": [0.5, 0.25, 0.125]},
}
RULE_ITEMS = {"neurons": NeuronParams, "chemical_synapses": ChemicalSynapse,
              "gap_junctions": GapJunction}
RULE_INDICES = ("src", "dst", "a", "b")
# The bad item of each group: synapse 3 is source 1's first, so a block
# document, which gives w, gamma and mu once per source, names it too.
RULE_AT = {"neurons": 1, "chemical_synapses": 3, "gap_junctions": 1}
# One bad value per parameter rule, in the order an item is checked, with
# the full message of the item's error.
RULE_CASES = [
    ("neurons", "cm", math.nan, "cm must be finite, got nan"),
    ("neurons", "g_leak", math.inf, "g_leak must be finite, got inf"),
    ("neurons", "v_leak", -math.inf, "v_leak must be finite, got -inf"),
    ("neurons", "cm", 0.0, "cm must be > 0, got 0.0"),
    ("neurons", "cm", -0.0, "cm must be > 0, got -0.0"),
    ("neurons", "g_leak", -0.5, "g_leak must be >= 0, got -0.5"),
    ("chemical_synapses", "w", math.inf, "w must be finite, got inf"),
    ("chemical_synapses", "gamma", math.nan, "gamma must be finite, got nan"),
    ("chemical_synapses", "mu", -math.inf, "mu must be finite, got -inf"),
    ("chemical_synapses", "e_rev", math.nan, "e_rev must be finite, got nan"),
    ("chemical_synapses", "src", -1, "synapse indices must be >= 0, got (-1, 0)"),
    ("chemical_synapses", "dst", -2, "synapse indices must be >= 0, got (1, -2)"),
    ("chemical_synapses", "src", -10**30,  # beyond intp: still worded as given
     "synapse indices must be >= 0, got (-1000000000000000000000000000000, 0)"),
    ("chemical_synapses", "w", -0.5, "w must be >= 0, got -0.5"),
    ("chemical_synapses", "gamma", 0.0, "gamma must be > 0, got 0.0"),
    ("chemical_synapses", "gamma", -0.5, "gamma must be > 0, got -0.5"),
    ("gap_junctions", "w_hat", math.nan, "w_hat must be finite, got nan"),
    ("gap_junctions", "a", -1, "junction indices must be >= 0, got (-1, 0)"),
    ("gap_junctions", "b", -3, "junction indices must be >= 0, got (1, -3)"),
    ("gap_junctions", "b", -10**30,
     "junction indices must be >= 0, got (1, -1000000000000000000000000000000)"),
    ("gap_junctions", "b", 1, "gap junction endpoints must differ, got a == b == 1"),
    ("gap_junctions", "w_hat", -0.5, "w_hat must be >= 0, got -0.5"),
]


class TestParameterRules:
    """Every parameter rule's error, word for word, from each way a network
    is built: an item, columns, and the three network document layouts."""

    @pytest.mark.parametrize("group, field, value, message", RULE_CASES)
    def test_rule_message_on_every_path(self, group, field, value, message):
        k = RULE_AT[group]
        cols = {name: {f: list(col) for f, col in fields.items()}
                for name, fields in RULE_NET.items()}
        cols[group][field][k] = value
        with pytest.raises(ValueError) as exc:
            RULE_ITEMS[group](**{f: col[k] for f, col in cols[group].items()})
        assert str(exc.value) == message
        flat = {f: col for fields in cols.values() for f, col in fields.items()}
        with pytest.raises(ValueError) as exc:
            LtcNetwork.from_arrays(**flat, n_output=1)
        assert str(exc.value) == f"{group}[{k}]: {message}"
        if not math.isfinite(value):  # JSON has no such number
            return
        items = {name: [dict(zip(fields, row)) for row in zip(*fields.values())]
                 for name, fields in cols.items()}
        docs = [dict(items, n_output=1), dict(cols, n_output=1)]
        # a type error in the group's last item wins, as in the column layout
        typed = dict(items, n_output=1, **{group: [dict(x) for x in items[group]]})
        typed[group][-1][field] = "x"
        with pytest.raises(FormatError) as exc:
            parse_network(json.dumps(typed))
        what = "an integer" if field in RULE_INDICES else "a number"
        last = len(typed[group]) - 1
        assert str(exc.value) == f"{group}[{last}].{field}: expected {what}, got 'x'"
        if field not in ("src", "dst", "e_rev"):  # a block gives w, gamma, mu per source
            syn = RULE_NET["chemical_synapses"]
            block = {f: syn[f][::3] for f in ("w", "gamma", "mu")}
            block["e_rev"] = [syn["e_rev"][:3], syn["e_rev"][3:]]
            if group == "chemical_synapses":
                block[field][1] = value
            docs.append(dict(cols, chemical_synapses=block, n_output=1))
        for doc in docs:
            with pytest.raises(FormatError) as exc:
                parse_network(json.dumps(doc))
            assert str(exc.value) == f"{group}[{k}]: {message}"

    @given(st.data())
    def test_columns_checked_as_items(self, data):
        # n_output 0 and indices below size: only a parameter rule can fail
        size = data.draw(st.integers(1, 4))
        index = st.integers(-2, size - 1)
        good = st.floats(0.25, 4.0)
        bad = st.sampled_from([math.nan, math.inf, -math.inf, -0.5, 0.0, -0.0, -5e-324,
                               5e-324, 1e308]) | st.floats()
        cols = {}
        for name, n in (("neurons", size), ("chemical_synapses", data.draw(st.integers(0, 6))),
                        ("gap_junctions", data.draw(st.integers(0, 4)))):
            fields = RULE_NET[name]
            cols[name] = {f: data.draw(st.lists(index if f in RULE_INDICES else good,
                                                min_size=n, max_size=n)) for f in fields}
            if n:
                for f, k, value in data.draw(st.lists(st.tuples(
                        st.sampled_from([f for f in fields if f not in RULE_INDICES]),
                        st.integers(0, n - 1), bad), max_size=3)):
                    cols[name][f][k] = value
        expected = None
        for name, fields in cols.items():
            for k, row in enumerate(zip(*fields.values())):
                try:
                    RULE_ITEMS[name](*row)
                except ValueError as exc:
                    expected = f"{name}[{k}]: {exc}"
                    break
            if expected:
                break
        flat = {f: col for fields in cols.values() for f, col in fields.items()}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if expected is None:
                LtcNetwork.from_arrays(**flat, n_output=0)
            else:
                with pytest.raises(ValueError) as exc:
                    LtcNetwork.from_arrays(**flat, n_output=0)
                assert str(exc.value) == expected

    @pytest.mark.parametrize("group, field, value", [
        ("chemical_synapses", "src", 0.7), ("chemical_synapses", "dst", 1.9),
        ("chemical_synapses", "src", -0.5), ("chemical_synapses", "dst", math.nan),
        ("gap_junctions", "a", 0.5), ("gap_junctions", "b", math.inf),
    ])
    def test_fractional_index_refused(self, group, field, value):
        # int() and an intp column would truncate it to another neuron
        k = RULE_AT[group]
        cols = {f: list(col) for fields in RULE_NET.values() for f, col in fields.items()}
        item = {f: cols[f][k] for f in RULE_NET[group]}
        with pytest.raises(ValueError) as exc:
            RULE_ITEMS[group](**dict(item, **{field: value}))
        assert str(exc.value) == f"{field} must be an integer, got {value}"
        cols[field][k] = value
        for column in (cols[field], np.array(cols[field])):
            with pytest.raises(ValueError) as exc:
                LtcNetwork.from_arrays(**dict(cols, **{field: column}), n_output=1)
            assert str(exc.value) == f"{group}[{k}]: {field} must be an integer, got {value}"

    def test_whole_float_and_numpy_indices_accepted(self):
        cols = {f: col for fields in RULE_NET.values() for f, col in fields.items()}
        net = LtcNetwork.from_arrays(**cols, n_output=1)
        as_floats = {f: [float(v) for v in col] for f, col in cols.items()}
        assert LtcNetwork.from_arrays(**as_floats, n_output=1) == net
        assert ChemicalSynapse(1.0, np.int64(2), 1.0, 1.0, 0.0, 0.0) == ChemicalSynapse(
            1, 2, 1.0, 1.0, 0.0, 0.0)
        assert type(GapJunction(np.float64(0.0), np.int32(1), 0.5).a) is int
        # a whole float beyond intp is out of range, not cast to intp's minimum
        big = dict(cols, src=np.array(cols["src"], dtype=float))
        big["src"][3] = 1e30
        with pytest.raises(ValueError) as exc:
            LtcNetwork.from_arrays(**big, n_output=1)
        assert str(exc.value) == "chemical_synapses[3]: index out of range for 3 neurons"

    @pytest.mark.parametrize("value", [2.5, -0.5, math.inf, -math.inf, math.nan])
    def test_fractional_n_output_refused(self, value):
        # int() would truncate 2.5 to 2 and raise OverflowError on inf
        for build in (lambda n: LtcNetwork.from_arrays([1.0] * 3, [1.0] * 3, [0.0] * 3,
                                                       n_output=n),
                      lambda n: LtcNetwork((NeuronParams(1.0, 1.0, 0.0),) * 3, (), (), n)):
            with pytest.raises(ValueError) as exc:
                build(value)
            assert str(exc.value) == f"n_output must be an integer, got {value}"
            assert build(2.0) == build(np.int64(2)) == build(2)
            assert type(build(2.0).n_output) is int

    @pytest.mark.parametrize("value", ["1", "1.0", b"1", True, np.True_])
    def test_strings_and_bools_refused(self, value):
        # float("1.0") is 1.0 and True is 1, so each would have built a network.
        # numpy reads a list that holds a string as all strings, and promotes a
        # bool among numbers, so a bool column here is all bools.
        cols = {f: list(col) for fields in RULE_NET.values() for f, col in fields.items()}
        mixed = isinstance(value, (str, bytes))
        for group, fields in RULE_NET.items():
            k = RULE_AT[group]
            for field in fields:
                what = "an integer" if field in RULE_INDICES else "a number"
                item = {f: cols[f][k] for f in fields}
                with pytest.raises(ValueError) as exc:
                    RULE_ITEMS[group](**dict(item, **{field: value}))
                assert str(exc.value) == f"{field} must be {what}, got {value!r}"
                at = k if mixed else 0
                column = list(cols[field]) if at else [value] * len(cols[field])
                column[at] = value
                for given, first in ((column, at), (np.array(column), 0)):
                    with pytest.raises(ValueError, match=rf"^{group}\[{first}\]: {field} "
                                                         f"must be {what}, got "):
                        LtcNetwork.from_arrays(**dict(cols, **{field: given}), n_output=1)
        items = [[RULE_ITEMS[g](*row) for row in zip(*RULE_NET[g].values())] for g in RULE_NET]
        for build in (lambda n: LtcNetwork.from_arrays(**cols, n_output=n),
                      lambda n: LtcNetwork(*items, n)):
            with pytest.raises(ValueError) as exc:
                build(value)
            assert str(exc.value) == f"n_output must be an integer, got {value!r}"
        Neuron = namedtuple("Neuron", "cm g_leak v_leak")  # other objects: read as columns
        neurons = [items[0][0] if mixed else Neuron(value, 1.0, 0.0), Neuron(value, 1.0, 0.0)]
        with pytest.raises(ValueError) as exc:
            LtcNetwork(neurons)
        assert str(exc.value) == f"neurons[{int(mixed)}]: cm must be a number, got {value!r}"

    def test_other_item_objects_checked(self):
        # only the item dataclasses have checked their own rules: any other
        # object's values are checked as columns, where one dataclass item
        # in the group does not exempt the rest
        neuron = NeuronParams(1.0, 1.0, 0.0)
        Neuron = namedtuple("Neuron", "cm g_leak v_leak")
        Synapse = namedtuple("Synapse", "src dst w gamma mu e_rev")
        good = ChemicalSynapse(0, 1, 1.0, 1.0, 0.0, 0.0)
        assert LtcNetwork((neuron, Neuron(1.0, 1.0, 0.0)), (Synapse(*astuple(good)),)) == (
            LtcNetwork((neuron, neuron), (good,)))
        cases = [
            ((neuron, Neuron(0.0, 1.0, 0.0)), (), "neurons[1]: cm must be > 0, got 0.0"),
            ((neuron, neuron), (good, Synapse(0, 1, -1.0, 1.0, 0.0, 0.0)),
             "chemical_synapses[1]: w must be >= 0, got -1.0"),
            ((neuron, neuron), (Synapse(0.7, 1, 1.0, 1.0, 0.0, 0.0),),
             "chemical_synapses[0]: src must be an integer, got 0.7"),
        ]
        for neurons, chem, message in cases:
            with pytest.raises(ValueError) as exc:
                LtcNetwork(neurons, chem)
            assert str(exc.value) == message
        with pytest.raises(ValueError, match=r"^gap_junctions\[0\]: w_hat must be >= 0"):
            LtcNetwork((neuron,) * 3, (), (SimpleNamespace(a=0, b=1, w_hat=-1.0),), 1)


class TestBlockArrays:
    """``LtcNetwork.from_arrays`` given a block: ``src`` and ``dst`` left
    out, ``w``, ``gamma`` and ``mu`` per source and ``e_rev`` one row per source."""

    NEURONS = {f: np.array(c) for f, c in RULE_NET["neurons"].items()}
    SYN = RULE_NET["chemical_synapses"]  # a block of 2 sources and 3 neurons
    BLOCK = dict(w=np.array(SYN["w"][::3]), gamma=np.array(SYN["gamma"][::3]),
                 mu=np.array(SYN["mu"][::3]), e_rev=np.array(SYN["e_rev"]).reshape(2, 3))

    @staticmethod
    def flat(block):
        """The block's synapses as columns, synapse r * size + j from r to j."""
        rows, size = np.shape(block["e_rev"])
        return dict(src=np.repeat(np.arange(rows), size), dst=np.tile(np.arange(size), rows),
                    **{f: np.repeat(block[f], size) for f in ("w", "gamma", "mu")},
                    e_rev=np.ravel(block["e_rev"]))

    @given(st.data())
    def test_equals_flat_columns(self, data):
        size = data.draw(st.integers(1, 5))
        n_output = data.draw(st.integers(0, size - 1))
        rows = data.draw(st.integers(0, size - n_output))
        value = st.floats(0.25, 4.0)
        block = {f: np.array(data.draw(st.lists(value, min_size=rows, max_size=rows)))
                 for f in ("w", "gamma", "mu")}
        block["e_rev"] = np.array(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=rows * size,
                                                     max_size=rows * size))).reshape(rows, size)
        neurons = dict(cm=np.ones(size), g_leak=np.ones(size), v_leak=np.zeros(size))
        gaps = data.draw(st.sampled_from([{}, dict(a=[0], b=[size - 1], w_hat=[0.5])]))
        if gaps and (size < 2 or n_output):  # a junction needs two hidden neurons
            gaps = {}
        got = LtcNetwork.from_arrays(**neurons, **block, **gaps, n_output=n_output)
        want = LtcNetwork.from_arrays(**neurons, **self.flat(block), **gaps, n_output=n_output)
        assert got == want and got._block == want._block == (rows > 0 and not gaps)

    @pytest.mark.parametrize("field, r, value, message", [
        ("w", 1, -0.5, "w must be >= 0, got -0.5"), ("w", 0, math.inf, "w must be finite, got inf"),
        ("gamma", 0, -0.5, "gamma must be > 0, got -0.5"),
        ("mu", 1, math.nan, "mu must be finite, got nan"),
    ])
    def test_bad_source_named_by_its_first_synapse(self, field, r, value, message):
        # the flat columns of the same synapses give the same text
        block = dict(self.BLOCK, **{field: self.BLOCK[field].copy()})
        block[field][r] = value
        for cols in (block, self.flat(block)):
            with pytest.raises(ValueError) as exc:
                LtcNetwork.from_arrays(**self.NEURONS, **cols, n_output=1)
            assert str(exc.value) == f"chemical_synapses[{3 * r}]: {message}"

    def test_bad_e_rev_named_by_its_flat_index(self):
        block = dict(self.BLOCK, e_rev=self.BLOCK["e_rev"].copy(), w=self.BLOCK["w"].copy())
        block["e_rev"][1, 2] = math.nan
        with pytest.raises(ValueError) as exc:
            LtcNetwork.from_arrays(**self.NEURONS, **block, n_output=1)
        assert str(exc.value) == "chemical_synapses[5]: e_rev must be finite, got nan"
        block["w"][1] = -1.0  # source 1's first synapse, 3, comes before 5
        with pytest.raises(ValueError) as exc:
            LtcNetwork.from_arrays(**self.NEURONS, **block, n_output=1)
        assert str(exc.value) == "chemical_synapses[3]: w must be >= 0, got -1.0"

    @pytest.mark.parametrize("change", [
        dict(w=[1.5]), dict(gamma=[2.0, 1.0, 1.0]), dict(mu=[[0.1, -0.2]]), dict(mu=0.1),
        dict(e_rev=np.zeros((2, 2))), dict(e_rev=np.zeros((2, 4))), dict(e_rev=np.zeros((3, 3))),
        dict(src=[0, 0, 0, 1, 1, 1]), dict(dst=[0, 1, 2] * 2),
    ])
    def test_shape_mismatch_refused(self, change):
        with pytest.raises(ValueError, match=r"^chemical_synapses: a block takes"):
            LtcNetwork.from_arrays(**self.NEURONS, **dict(self.BLOCK, **change), n_output=1)

    @given(st.data())
    def test_block_and_columns_refused_alike(self, data):
        # every broken rule: a bad w, gamma, mu or e_rev, a source that is an
        # output neuron or past the last neuron; the block form, checked over
        # its rows broadcast against the grid, raises what its columns raise
        size = data.draw(st.integers(1, 4))
        n_output = data.draw(st.integers(0, size))
        rows = data.draw(st.integers(1, size + 2))
        good = st.floats(0.25, 4.0)
        bad = {"w": [math.nan, math.inf, -math.inf, -0.5, -5e-324],
               "gamma": [0.0, -0.0, -1.0, math.nan, math.inf],
               "mu": [math.nan, math.inf, -math.inf], "e_rev": [math.nan, -math.inf]}
        block = {f: np.array(data.draw(st.lists(good | st.sampled_from(values),
                                                min_size=rows, max_size=rows)))
                 for f, values in bad.items() if f != "e_rev"}
        block["e_rev"] = np.array(data.draw(st.lists(
            st.floats(-4.0, 4.0) | st.sampled_from(bad["e_rev"]),
            min_size=rows * size, max_size=rows * size))).reshape(rows, size)
        neurons = dict(cm=np.ones(size), g_leak=np.ones(size), v_leak=np.zeros(size))
        gaps = data.draw(st.sampled_from([{}, dict(a=[0], b=[size - 1], w_hat=[0.5])]))
        raised = []
        for cols in (block, self.flat(block)):
            try:
                LtcNetwork.from_arrays(**neurons, **cols, **gaps, n_output=n_output)
                raised.append(None)
            except (ValueError, TopologyError) as exc:
                raised.append((type(exc), str(exc)))
        assert raised[0] == raised[1]

    def test_sources_without_neurons_refused(self):
        # the grid of R sources and no neurons holds no synapse, but its
        # sources are out of range, as a network document says too
        empty = dict(cm=[], g_leak=[], v_leak=[])
        with pytest.raises(ValueError) as exc:
            LtcNetwork.from_arrays(**empty, w=[-1.0], gamma=[math.nan], mu=[0.0],
                                   e_rev=np.empty((1, 0)))
        assert str(exc.value) == "chemical_synapses[0]: index out of range for 0 neurons"
        net = LtcNetwork.from_arrays(**empty, w=[], gamma=[], mu=[], e_rev=np.empty((0, 0)))
        assert net.size == net.n_chem == 0 and not net._block

    def test_caller_arrays_kept_apart(self):
        given = {f: c.copy() for f, c in {**self.NEURONS, **self.BLOCK}.items()}
        net = LtcNetwork.from_arrays(**given, n_output=1)
        held = [v for v in vars(net).values() if isinstance(v, np.ndarray)]
        for f, c in given.items():
            assert c.flags.writeable, f
            assert not any(np.shares_memory(c, h) for h in held), f
            c[...] = -1.0  # writing the caller's arrays leaves the network as built
        assert net == LtcNetwork.from_arrays(**self.NEURONS, **self.BLOCK, n_output=1)
