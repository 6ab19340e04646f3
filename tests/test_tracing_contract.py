"""The benchmark tracer's hold on the program: every name it wraps exists, and
the solver takes as many steps as the tracer's step count assumes, and on
the array path calls the derivative through the name the tracer wraps once
per Euler step and four times per RK4 step.  Small networks step on a
compiled run, which never calls it, from ``_UNIT_EVALS`` derivative
evaluations per unit (synapses, junctions and three per neuron) on."""

import importlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ltcsim.solver
from ltcsim import LtcNetwork, Method, NeuronParams, SolverConfig, random_network, simulate
from helpers import realized_network, two_neuron_chain

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    """``bench/tracing.py`` as a module, loaded without writing a bytecode file."""
    spec = importlib.util.spec_from_file_location("ltcsim_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    cached, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = cached
    return module


def test_every_patched_name_resolves(tracing):
    missing = [f"{module}.{attr}" for module, attr, *_ in tracing.PATCHES
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def large_random_network():
    """A random network of more units than ``_MAX_UNITS``, so it steps on
    arrays although it is not a block."""
    rng = np.random.default_rng(0)
    net = random_network(rng)
    extra = ltcsim.solver._MAX_UNITS // 3 + 1
    return LtcNetwork([NeuronParams(1.0, 1.0, 0.0)] * extra + list(net.neurons),
                      [replace(c, src=c.src + extra, dst=c.dst + extra) for c in net.chem],
                      [replace(g, a=g.a + extra, b=g.b + extra) for g in net.gaps], net.n_output)


@pytest.mark.parametrize("method, calls_per_step", [(Method.EULER, 1), (Method.RK4, 4)])
@pytest.mark.parametrize("dt, t_end", [(0.1, 1.0), (0.1, 0.25), (0.01, 0.5)])
def test_derivative_calls_per_step(tracing, monkeypatch, method, calls_per_step, dt, t_end):
    calls = []
    derivative = ltcsim.solver.network_derivative

    def counted(u, net):
        calls.append(1)
        return derivative(u, net)

    monkeypatch.setattr(ltcsim.solver, "network_derivative", counted)
    gate = ltcsim.solver._UNIT_EVALS * (1 + 3 * 2)  # one synapse, two neurons
    # the realized network (a block) and a large random network step on
    # arrays and must not bypass the name; the chain steps on a compiled
    # run, which never calls it, from the gate on, and on arrays below it
    short = calls_per_step * tracing._solver_steps(SolverConfig(method, dt, t_end)) < gate
    at = -(-gate // calls_per_step)  # steps at the gate
    for net, t, compiled in ((realized_network(), t_end, False),
                             (large_random_network(), t_end, False),
                             (two_neuron_chain(), t_end, not short),
                             (two_neuron_chain(), (at - 1) * dt, False),
                             (two_neuron_chain(), at * dt, True)):
        calls.clear()
        config = SolverConfig(method, dt, t)
        traj = simulate(net, [0.2, 0.3] + [0.1] * (net.size - 2), config)
        assert traj.n_points - 1 == tracing._solver_steps(config)
        assert len(calls) == (0 if compiled else calls_per_step * tracing._solver_steps(config))
