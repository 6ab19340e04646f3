"""Shared network builders for the test suite."""

from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from ltcsim import ChemicalSynapse, GapJunction, LtcNetwork, NeuronParams


def leak_neuron(cm=1.0, g=1.0, v_leak=0.0):
    return LtcNetwork((NeuronParams(cm, g, v_leak),), (), (), 1)


def two_neuron_chain():
    """Hidden neuron 0 drives output neuron 1; fixed parameters used by the
    hand-computed derivative values and the solver order tests."""
    return LtcNetwork(
        (NeuronParams(2.0, 1.0, 0.5), NeuronParams(1.0, 0.5, -0.1)),
        (ChemicalSynapse(0, 1, 1.5, 2.0, 0.1, 0.8),),
        (),
        1,
    )


def driven_pair():
    """Presynaptic neuron 0 rests at its leak potential, so the output
    neuron obeys cm dv/dt = A - B v with constant A, B.

    Returns (network, A, B): A = g*v_leak + w*sigma*e_rev, B = g + w*sigma
    with sigma = 0.5 by construction (mu cancels the presynaptic state).
    """
    net = LtcNetwork(
        (NeuronParams(1.0, 1.0, 0.3), NeuronParams(1.0, 1.0, 0.0)),
        (ChemicalSynapse(0, 1, 2.0, 1.0, -0.3, 1.0),),
        (),
        1,
    )
    return net, 1.0, 2.0


def gap_ring(w_hat=1.0, cms=(1.0, 1.0, 1.0)):
    """Leakless symmetric three-neuron ring coupled by gap junctions."""
    return LtcNetwork(
        tuple(NeuronParams(cm, 0.0, 0.0) for cm in cms),
        (),
        (GapJunction(0, 1, w_hat), GapJunction(1, 2, w_hat), GapJunction(0, 2, w_hat)),
        0,
    )


def rotation_field():
    from ltcsim import VectorField

    return VectorField(
        2, lambda x: np.array([x[1], -x[0]]), [[-1.5, 1.5], [-1.5, 1.5]]
    )


def box_arrays(boxes):
    lo = np.array([b.lo for b in boxes])
    hi = np.array([b.hi for b in boxes])
    return lo, hi


@st.composite
def networks(draw, bound=None, shared=False):
    """Random valid networks for property tests.

    Floats include -0.0 and subnormals, and reach 1e308 unless ``bound``
    caps their magnitude (and the reciprocal of positive values).  With
    ``shared``, each synapse takes gamma from a pool of at most two and mu
    from a pool of at most three values per source neuron (0.0 and -0.0
    among the candidates), so that synapses share activation channels.
    """
    kw = dict(allow_nan=False, allow_infinity=False)
    big = {} if bound is None else dict(min_value=-bound, max_value=bound)
    finite = st.floats(**kw, **big)
    non_negative = st.floats(min_value=0.0, max_value=bound, **kw) | st.just(-0.0)
    positive = st.floats(min_value=0.0 if bound is None else 1.0 / bound,
                         max_value=bound, exclude_min=bound is None, **kw)
    size = draw(st.integers(0, 6))
    n_output = draw(st.integers(0, size))
    n_hidden = size - n_output
    neurons = draw(st.lists(st.builds(NeuronParams, positive, non_negative, finite),
                            min_size=size, max_size=size))
    chem, gaps = [], []
    if n_hidden:
        chem = draw(st.lists(st.builds(
            ChemicalSynapse, st.integers(0, n_hidden - 1), st.integers(0, size - 1),
            non_negative, positive, finite, finite), max_size=10))
        if shared:
            mus = finite | st.sampled_from([0.0, -0.0])
            pools = [(draw(st.lists(positive, min_size=1, max_size=2)),
                      draw(st.lists(mus, min_size=1, max_size=3))) for _ in range(n_hidden)]
            for n, (j, k) in enumerate(draw(st.lists(
                    st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    min_size=len(chem), max_size=len(chem)))):
                gammas, mu_pool = pools[chem[n].src]
                chem[n] = replace(chem[n], gamma=gammas[j % len(gammas)],
                                  mu=mu_pool[k % len(mu_pool)])
    if n_hidden > 1:
        pairs = st.lists(st.integers(0, n_hidden - 1), min_size=2, max_size=2,
                         unique=True)
        gaps = draw(st.lists(st.builds(lambda ab, w: GapJunction(*ab, w),
                                       pairs, non_negative), max_size=5))
    return LtcNetwork(neurons, chem, gaps, n_output)
