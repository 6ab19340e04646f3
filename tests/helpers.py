"""Shared network builders for the test suite."""

import math
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


def realized_network(n_features=5, seed=0):
    """The network realize_as_ltc builds for the rotation field: a block of
    ``n_features`` sources driving all ``n_features + 2`` neurons."""
    from ltcsim import assemble_augmented_system, fit_feedforward, realize_as_ltc

    fit = fit_feedforward(rotation_field(), n_features, n_samples=64, seed=seed)
    return realize_as_ltc(assemble_augmented_system(fit, 10.0, 1e-3))


def uniform_random_network(rng: np.random.Generator, chemical_only: bool = False) -> LtcNetwork:
    """``verify.random_network`` as it was written with ``rng.uniform`` draws,
    kept verbatim as the oracle that pins the generator's bits."""
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


@st.composite
def networks(draw, bound=None, shared=False, block=False):
    """Random valid networks for property tests.

    Floats include -0.0 and subnormals, and reach 1e308 unless ``bound``
    caps their magnitude (and the reciprocal of positive values).  With
    ``shared``, each synapse takes gamma from a pool of at most two and mu
    from a pool of at most three values per source neuron (0.0 and -0.0
    among the candidates), so that synapses share activation channels.
    With ``block``, sources 0..R-1 (R up to 12, past the 8 terms where numpy
    starts summing pairwise) each drive every neuron, in order, through
    synapses that share the source's (w, gamma, mu); 0.0 and -0.0 are drawn
    often for w, mu, e_rev, g_leak and v_leak, and so are values of like
    magnitude, whose sums round differently in another order.
    """
    kw = dict(allow_nan=False, allow_infinity=False)
    big = {} if bound is None else dict(min_value=-bound, max_value=bound)
    finite = st.floats(**kw, **big)
    non_negative = st.floats(min_value=0.0, max_value=bound, **kw) | st.just(-0.0)
    positive = st.floats(min_value=0.0 if bound is None else 1.0 / bound,
                         max_value=bound, exclude_min=bound is None, **kw)
    if block:
        zero = st.sampled_from([0.0, -0.0])
        unit = st.floats(-1.0, 1.0)
        rows = draw(st.integers(1, 12))
        size = draw(st.integers(rows, rows + 1)) + draw(st.integers(0, 2))
        neurons = draw(st.lists(st.builds(NeuronParams, positive, non_negative | zero,
                                          finite | zero), min_size=size, max_size=size))
        sources = draw(st.lists(st.tuples(st.floats(0.0, 2.0) | non_negative | zero, positive,
                                          unit | finite | zero),
                                min_size=rows, max_size=rows))
        e_rev = draw(st.lists(unit | finite | zero, min_size=rows * size, max_size=rows * size))
        chem = [ChemicalSynapse(r, j, w, gamma, mu, e_rev[r * size + j])
                for r, (w, gamma, mu) in enumerate(sources) for j in range(size)]
        return LtcNetwork(neurons, chem, (), draw(st.integers(0, size - rows)))
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


def expr_trees(max_leaves=12):
    """Random expression trees in the parser's normal form.

    Numbers are non-negative (a sign is a ``Neg`` node) and include 0.0,
    1e+-300 and inf; variables are x1..x3; every function appears, and
    exponents run from 0 to 7.  Printing such a tree parses back to it.
    """
    from ltcsim.expr import FUNCTIONS, BinOp, Call, Neg, Num, Pow, Var

    numbers = st.floats(min_value=0.0) | st.sampled_from([0.0, 1e300, 1e-300, math.inf])
    leaves = st.builds(Num, numbers) | st.builds(Var, st.integers(1, 3))
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
        st.builds(Pow, sub, st.integers(0, 7)),
        st.builds(Call, st.sampled_from(FUNCTIONS), sub),
    ), max_leaves=max_leaves)
