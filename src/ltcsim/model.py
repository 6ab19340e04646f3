"""Liquid time-constant network data model and ODE right-hand sides.

A network is a list of membrane-integrator neurons wired by sigmoid-gated
chemical synapses and Ohmic gap junctions.  Neuron ``i`` obeys

    cm_i * dv_i/dt = g_leak_i * (v_leak_i - v_i)
                     + sum over incoming chemical synapses of
                           w * sigma(v_src) * (e_rev - v_i)
                     + sum over touching gap junctions of
                           w_hat * (v_other - v_i)

with sigma(v) = 1 / (1 + exp(-gamma * (v + mu))).  The per-synapse form
above is the canonical semantics; the vectorized evaluator reproduces it
componentwise exactly (same accumulation order).

Ordering convention: hidden neurons occupy indices 0 .. n_hidden-1 and
output neurons the last ``n_output`` indices.  Output neurons may only
receive chemical synapses; any edge leaving an output neuron (including
gap junctions, which are bidirectional) is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, TopologyError

__all__ = [
    "NeuronParams",
    "ChemicalSynapse",
    "GapJunction",
    "LtcNetwork",
    "sigmoid_activation",
    "chemical_current",
    "gap_current",
    "neuron_derivative",
    "network_derivative",
    "effective_time_constant",
    "validate_state",
]


_EXP_MAX = 709.782712893384  # the largest double whose exp is finite
# Sigmoid work (values, plus 32 per call for its fixed cost) done with math.exp
# before scipy.special's ~0.25 s import pays: about an eighth of that import.
# Both give the same bits; numpy's own exp differs from them in the last bit.
_LIBM_BUDGET = 2**18
_libm_spent = 0


def _sigmoid(t: float) -> float:
    """``scipy.special.expit`` of one float bit for bit, through the C library's
    exp; 0.0 where math.exp(-t) would overflow and raise, NaN for NaN."""
    return 0.0 if t < -_EXP_MAX else 1.0 / (1.0 + math.exp(-t))


def _expit_libm(x) -> np.ndarray:
    """``scipy.special.expit`` bit for bit, through the C library's exp."""
    x = np.asarray(x, dtype=float)
    return np.array(list(map(_sigmoid, x.ravel().tolist()))).reshape(x.shape)


def expit(x):
    """Logistic sigmoid: ``_expit_libm`` within budget, then scipy's, bound here."""
    global expit, _libm_spent
    _libm_spent += np.size(x) + 32
    if _libm_spent <= _LIBM_BUDGET:
        return _expit_libm(x)
    from scipy.special import expit
    return expit(x)


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class NeuronParams:
    """Membrane parameters of one neuron.

    ``g_leak == 0`` is admitted so that leakless gap-only networks (used by
    the conservation check) are constructible; negative values are rejected.
    """

    cm: float
    g_leak: float
    v_leak: float

    def __post_init__(self):
        object.__setattr__(self, "cm", _require_finite("cm", self.cm))
        object.__setattr__(self, "g_leak", _require_finite("g_leak", self.g_leak))
        object.__setattr__(self, "v_leak", _require_finite("v_leak", self.v_leak))
        if self.cm <= 0:
            raise ValueError(f"cm must be > 0, got {self.cm}")
        if self.g_leak < 0:
            raise ValueError(f"g_leak must be >= 0, got {self.g_leak}")


@dataclass(frozen=True)
class ChemicalSynapse:
    """Sigmoid-gated synapse from neuron ``src`` into neuron ``dst``.

    Autapses (src == dst) are permitted.
    """

    src: int
    dst: int
    w: float
    gamma: float
    mu: float
    e_rev: float

    def __post_init__(self):
        object.__setattr__(self, "src", int(self.src))
        object.__setattr__(self, "dst", int(self.dst))
        for name in ("w", "gamma", "mu", "e_rev"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.src < 0 or self.dst < 0:
            raise ValueError(f"synapse indices must be >= 0, got ({self.src}, {self.dst})")
        if self.w < 0:
            raise ValueError(f"w must be >= 0, got {self.w}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")


@dataclass(frozen=True)
class GapJunction:
    """Bidirectional Ohmic coupling between neurons ``a`` and ``b``."""

    a: int
    b: int
    w_hat: float

    def __post_init__(self):
        object.__setattr__(self, "a", int(self.a))
        object.__setattr__(self, "b", int(self.b))
        object.__setattr__(self, "w_hat", _require_finite("w_hat", self.w_hat))
        if self.a < 0 or self.b < 0:
            raise ValueError(f"junction indices must be >= 0, got ({self.a}, {self.b})")
        if self.a == self.b:
            raise ValueError(f"gap junction endpoints must differ, got a == b == {self.a}")
        if self.w_hat < 0:
            raise ValueError(f"w_hat must be >= 0, got {self.w_hat}")


_NEURON_FIELDS = ("cm", "g_leak", "v_leak")
_CHEM_FIELDS = ("src", "dst", "w", "gamma", "mu", "e_rev")
_GAP_FIELDS = ("a", "b", "w_hat")
_INDEX_FIELDS = ("src", "dst", "a", "b")
# (document list name, item fields, item dataclass) for the three item lists
_GROUPS = (
    ("neurons", _NEURON_FIELDS, NeuronParams),
    ("chemical_synapses", _CHEM_FIELDS, ChemicalSynapse),
    ("gap_junctions", _GAP_FIELDS, GapJunction),
)
_ARRAYS = ("_cm", "_g", "_vleak", "_src", "_dst", "_w", "_gamma", "_mu", "_erev",
           "_ga", "_gb", "_gw")
_ARRAY_OF = dict(zip(_NEURON_FIELDS + _CHEM_FIELDS + _GAP_FIELDS, _ARRAYS))
_ACT = ("_asrc", "_agamma", "_amu", "_aw", "_aerev", "_adst")


def _column(values, field: str) -> np.ndarray:
    if field not in _INDEX_FIELDS:
        return np.array(values, dtype=float)
    try:
        return np.array(values, dtype=np.intp)
    except OverflowError:  # beyond intp: clamp; the range checks still reject it
        big = np.iinfo(np.intp).max
        return np.array([min(max(int(v), -1), big) for v in values], dtype=np.intp)


def _reject_first(bad: np.ndarray, group: int, cols) -> None:
    """Raise the error of the first flagged item, worded by its dataclass."""
    if bad.any():
        name, _, item = _GROUPS[group]
        k = int(np.argmax(bad))
        try:
            item(*(c[k].item() for c in cols))
        except ValueError as exc:
            raise ValueError(f"{name}[{k}]: {exc}") from None


class LtcNetwork:
    """Immutable network: neurons, synapses, junctions and output split.

    Output neurons are the last ``n_output`` indices.  Flat parameter
    arrays are the source of truth.  ``LtcNetwork.from_arrays`` validates
    them (finiteness, signs, index ranges, the feed-forward output rule);
    the tuple constructor ``LtcNetwork(neurons, chem, gaps, n_output)``
    converts its dataclass items and calls the same validator.  The
    ``neurons``, ``chem`` and ``gaps`` tuples are views: the tuples given
    to the constructor, or built on first access for array-built networks.
    Equality compares the arrays and ``n_output``.
    """

    def __init__(self, neurons, chem=(), gaps=(), n_output=0):
        views = (tuple(neurons), tuple(chem), tuple(gaps))
        self._store({f: [getattr(x, f) for x in items]
                     for items, (_, fields, _) in zip(views, _GROUPS) for f in fields},
                    n_output)
        self._cache.update(enumerate(views))

    @classmethod
    def from_arrays(cls, cm, g_leak, v_leak, src=(), dst=(), w=(), gamma=(), mu=(),
                    e_rev=(), a=(), b=(), w_hat=(), n_output=0) -> LtcNetwork:
        """Validate flat per-neuron, per-synapse and per-junction columns."""
        net = cls.__new__(cls)
        net._store(dict(cm=cm, g_leak=g_leak, v_leak=v_leak, src=src, dst=dst, w=w,
                        gamma=gamma, mu=mu, e_rev=e_rev, a=a, b=b, w_hat=w_hat),
                   n_output)
        return net

    def _store(self, cols, n_output):
        arrays = []
        for name, fields, _ in _GROUPS:
            group = [_column(cols[f], f) for f in fields]
            if any(c.ndim != 1 or c.shape != group[0].shape for c in group):
                raise ValueError(f"{name} columns must be 1-D and of equal length")
            arrays += group
        cm, g, vleak, src, dst, w, gamma, mu, erev, ga, gb, gw = arrays
        ok = np.isfinite
        _reject_first(~(ok(cm) & ok(g) & ok(vleak) & (cm > 0) & (g >= 0)), 0, arrays[0:3])
        _reject_first(~(ok(w) & ok(gamma) & ok(mu) & ok(erev) & (src >= 0) & (dst >= 0)
                        & (w >= 0) & (gamma > 0)), 1, arrays[3:9])
        _reject_first(~(ok(gw) & (ga >= 0) & (gb >= 0) & (ga != gb) & (gw >= 0)), 2,
                      arrays[9:12])
        size = cm.shape[0]
        n_output = int(n_output)
        if not 0 <= n_output <= size:
            raise ValueError(f"n_output must be between 0 and {size}, got {n_output}")
        n_hidden = size - n_output
        edges = (
            ("chemical_synapses", src, dst, src >= n_hidden,
             "source {} is an output neuron; outputs must not project to any neuron"),
            ("gap_junctions", ga, gb, (ga >= n_hidden) | (gb >= n_hidden),
             "endpoint touches an output neuron; "
             "gap junctions are bidirectional and must stay hidden-hidden"),
        )
        for path, first, second, touches, why in edges:
            out = (first >= size) | (second >= size)
            if (out | touches).any():
                k = int(np.argmax(out | touches))
                if out[k]:
                    raise ValueError(f"{path}[{k}]: index out of range for {size} neurons")
                raise TopologyError(f"{path}[{k}]: " + why.format(first[k]))
        for arr in arrays:
            arr.flags.writeable = False
        # A block (what realize_as_ltc builds): no junctions, and sources
        # 0..R-1 in order each sending one synapse to every neuron in order,
        # all of a source's synapses sharing (w, gamma, mu) bit for bit.  Its
        # activation columns (_a*) hold one (R, 1) row per source, which
        # broadcasts against e_rev as an (R, size) grid; otherwise they are
        # the synapse columns themselves.
        rows = src.size // size if size and not gw.size and src.size % size == 0 else 0
        grid = [c.reshape(rows, size) for c in (src, dst, w, gamma, mu)] if rows else ()
        block = rows > 0 and bool(
            (grid[0] == np.arange(rows)[:, None]).all() and (grid[1] == np.arange(size)).all()
            and all((c.view(np.int64) == c[:, :1].view(np.int64)).all() for c in grid[2:]))
        act = ((grid[0][:, :1], grid[3][:, :1], grid[4][:, :1], grid[2][:, :1],
                erev.reshape(rows, size), slice(None)) if block
               else (src, gamma, mu, w, erev, dst))
        # Attributes are set with object.__setattr__ (never through __dict__)
        # and in the same order for every network, which keeps CPython's
        # attribute reads on their fast path (measurably so in
        # network_derivative); values derived on first use go into _cache.
        # Gap endpoints are concatenated a-side first, then b-side, so that a
        # single bincount sums in the order of neuron_derivative's two passes;
        # _gw2 is None without junctions, and then _inflow skips the gap sum.
        for name, value in (*zip(_ARRAYS, arrays), ("n_output", n_output), ("size", size),
                            ("_gself", np.concatenate([ga, gb])),
                            ("_gother", np.concatenate([gb, ga])), ("_cache", {}),
                            ("_gw2", np.concatenate([gw, gw]) if gw.size else None),
                            ("_block", block), *zip(_ACT, act)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"LtcNetwork is immutable; cannot set {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if not isinstance(other, LtcNetwork):
            return NotImplemented
        return self.n_output == other.n_output and all(
            np.array_equal(getattr(self, k), getattr(other, k)) for k in _ARRAYS
        )

    def __hash__(self):
        return hash((self.size, self.n_chem, self.n_gaps, self.n_output))

    def __repr__(self):
        return (f"LtcNetwork(neurons={self.neurons!r}, chem={self.chem!r}, "
                f"gaps={self.gaps!r}, n_output={self.n_output!r})")

    def _items(self, group: int) -> tuple:
        """Tuple view of one item list, built on first use."""
        if group not in self._cache:
            _, fields, item = _GROUPS[group]
            cols = (getattr(self, _ARRAY_OF[f]).tolist() for f in fields)
            self._cache[group] = tuple(map(item, *cols))
        return self._cache[group]

    neurons = property(lambda self: self._items(0))
    chem = property(lambda self: self._items(1))
    gaps = property(lambda self: self._items(2))

    @property
    def _tau_range(self) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form per-neuron (tau_min, tau_max): cm over the conductance
        load at full (sigma=1) and at zero (sigma=0) gating, computed once."""
        if "tau" not in self._cache:
            with np.errstate(divide="ignore", over="ignore"):
                self._cache["tau"] = (
                    self._cm / _conductance_loads(self, np.ones(self._aw.shape)),
                    self._cm / _conductance_loads(self, np.zeros(self._aw.shape)))
        return self._cache["tau"]

    @property
    def n_hidden(self) -> int:
        return self.size - self.n_output

    @property
    def n_chem(self) -> int:
        return self._w.shape[0]

    @property
    def n_gaps(self) -> int:
        return self._gw.shape[0]


def validate_state(u, net: LtcNetwork) -> np.ndarray:
    """Coerce ``u`` to a float vector and check length and finiteness."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.ndim != 1 or u.shape[0] != net.size:
        raise DimensionMismatchError(
            f"state has shape {u.shape}, network has {net.size} neurons"
        )
    if u.size and not np.isfinite(u).all():
        raise ValueError("state contains non-finite entries")
    return u


def sigmoid_activation(v_pre: float, gamma: float, mu: float) -> float:
    """Synaptic gating 1 / (1 + exp(-gamma * (v_pre + mu)))."""
    return float(expit(gamma * (v_pre + mu)))


def chemical_current(syn: ChemicalSynapse, v_pre: float, v_post: float) -> float:
    """Current injected into ``syn.dst`` for the given pre/post potentials."""
    sig = sigmoid_activation(v_pre, syn.gamma, syn.mu)
    return syn.w * sig * (syn.e_rev - v_post)


def gap_current(gj: GapJunction, v_self: float, v_other: float) -> float:
    """Current into the endpoint held at ``v_self``; antisymmetric on swap."""
    return gj.w_hat * (v_other - v_self)


def neuron_derivative(i: int, state, net: LtcNetwork) -> float:
    """dv_i/dt from leak, incoming chemical and touching gap currents.

    Accumulation order (chemical sum, then gap a-side pass, then b-side
    pass) matches the vectorized ``network_derivative`` exactly.
    """
    u = np.asarray(state, dtype=float)
    if not 0 <= i < net.size:
        raise IndexError(f"neuron index {i} out of range for {net.size} neurons")
    chem = 0.0
    for syn in net.chem:
        if syn.dst == i:
            chem += chemical_current(syn, u[syn.src], u[i])
    gap = 0.0
    for gj in net.gaps:
        if gj.a == i:
            gap += gap_current(gj, u[gj.a], u[gj.b])
    for gj in net.gaps:
        if gj.b == i:
            gap += gap_current(gj, u[gj.b], u[gj.a])
    p = net.neurons[i]
    return (p.g_leak * (p.v_leak - u[i]) + chem + gap) / p.cm


def _chem_activations(net: LtcNetwork, u: np.ndarray) -> np.ndarray:
    """Sigmoid activations at ``u`` (one state, or one per row): one per
    synapse, or one (R, 1) row per source of a block.  ``take`` beats fancy
    indexing on rows; ``u[src]`` is faster for one state's few sources."""
    src = net._asrc
    return expit(net._agamma * ((u[src] if u.ndim == 1 else u.take(src, axis=1)) + net._amu))


def _inflow(net: LtcNetwork, base, chem: np.ndarray, gap) -> np.ndarray:
    """Per-neuron ``base`` + chemical terms summed over ``dst`` + gap terms
    summed over the gap endpoints (a-side, then b-side), in that order.

    This is the one accumulation behind the derivative, the semi-implicit
    step and the conductance loads, so all of them sum in the order of the
    per-neuron loop.  A 2-D ``chem`` (one row per state) is summed row by
    row in the same order through the offset indices ``dst + size * row``.

    A block's terms come as an (R, size) grid, each neuron's column summed
    in source order from +0.0 (a reduction over a leading axis runs row by
    row, never pairwise), or as (R, 1) terms that every neuron shares,
    summed once per state by ``accumulate``, which is sequential too.

    ``gap`` None (no junctions) skips the gap sum bit for bit: bincount sums
    start at +0.0, so ``base + chem_in`` is never -0.0 and + 0.0 is a no-op.
    """
    size = net.size
    if net._block:
        if chem.shape[-1] == 1:  # 0.0 + turns an all -0.0 sum into bincount's +0.0
            return base + (0.0 + np.add.accumulate(chem, axis=-2)[..., -1, :])
        return base + np.add.reduce(chem, axis=0, initial=0.0)
    if chem.ndim == 1:
        chem_in = np.bincount(net._dst, weights=chem, minlength=size)
    else:
        rows = chem.shape[0]
        dst = (net._dst + size * np.arange(rows)[:, None]).ravel()
        chem_in = np.bincount(dst, weights=chem.ravel(),
                              minlength=rows * size).reshape(rows, size)
    s = base + chem_in
    return s if gap is None else s + np.bincount(net._gself, weights=gap, minlength=size)


def _conductance_loads(net: LtcNetwork, sig: np.ndarray) -> np.ndarray:
    """Per-neuron g_leak + sum(w * sig) + sum(w_hat) for given activations.

    Shared by the effective time-constant, the trajectory monitor and the
    interval bounds of ``verify.tau_bounds`` so the membership inequality
    holds exactly in floating point (one accumulation order for all).
    """
    return _inflow(net, net._g, net._aw * sig, net._gw2)


def network_derivative(state, net: LtcNetwork) -> np.ndarray:
    """All-neuron derivative; componentwise equal to neuron_derivative.

    A huge state may raise numpy's overflow warning: an ``np.errstate`` per
    call would cost ~0.5 us of a ~4 us call, so the solver sets one per run."""
    u = np.asarray(state, dtype=float)
    if u.ndim != 1 or u.shape[0] != net.size:
        raise DimensionMismatchError(
            f"state has shape {u.shape}, network has {net.size} neurons"
        )
    wsig = net._aw * _chem_activations(net, u)
    gap = None if net._gw2 is None else net._gw2 * (u[net._gother] - u[net._gself])
    return _inflow(net, net._g * (net._vleak - u),
                   wsig * (net._aerev - u[net._adst]), gap) / net._cm


def _scalar_steps(net: LtcNetwork):
    """``network_derivative`` and the solver's semi-implicit step of a
    non-block network, as loops over lists of Python floats.

    Each does the same IEEE operations in the same order as the array form:
    one ``_sigmoid`` per synapse, each neuron's terms summed in synapse order
    from +0.0 as ``_inflow``'s bincount does, then its junction a-sides and
    b-sides, added only where the network has junctions.  For a few terms
    this beats numpy's fixed cost per call; the lists are built per run.
    """
    size, sigmoid = net.size, _sigmoid
    cm, g, vleak = net._cm.tolist(), net._g.tolist(), net._vleak.tolist()
    syn = list(zip(*(a.tolist() for a in (net._src, net._dst, net._w, net._gamma,
                                          net._mu, net._erev))))
    gaps = list(zip(net._gself.tolist(), net._gother.tolist(),
                    [] if net._gw2 is None else net._gw2.tolist()))
    gvleak = [a * b for a, b in zip(g, vleak)]
    gap_load = [0.0] * size
    for i, _, w in gaps:
        gap_load[i] += w

    def derivative(u):
        acc = [0.0] * size
        for s, d, w, gamma, mu, e in syn:
            acc[d] += w * sigmoid(gamma * (u[s] + mu)) * (e - u[d])
        if not gaps:
            return [(a * (b - x) + c) / m for a, b, m, x, c in zip(g, vleak, cm, u, acc)]
        gap = [0.0] * size
        for i, j, w in gaps:
            gap[i] += w * (u[j] - u[i])
        return [(a * (b - x) + c + q) / m
                for a, b, m, x, c, q in zip(g, vleak, cm, u, acc, gap)]

    def semi_implicit(u, dt):
        num, den = [0.0] * size, [0.0] * size
        for s, d, w, gamma, mu, e in syn:
            wsig = w * sigmoid(gamma * (u[s] + mu))
            num[d] += wsig * e
            den[d] += wsig
        if not gaps:
            return [(x + dt * ((a + n) / m)) / (1.0 + dt * ((b + d) / m))
                    for a, b, m, x, n, d in zip(gvleak, g, cm, u, num, den)]
        gap = [0.0] * size
        for i, j, w in gaps:
            gap[i] += w * u[j]
        return [(x + dt * ((a + n + q) / m)) / (1.0 + dt * ((b + d + r) / m))
                for a, b, m, x, n, d, q, r in zip(gvleak, g, cm, u, num, den, gap, gap_load)]

    return derivative, semi_implicit


def effective_time_constant(i: int, state, net: LtcNetwork) -> float:
    """State-dependent time constant cm / (g_leak + sum w*sigma + sum w_hat).

    Equals cm/g_leak for an isolated neuron; gap junctions contribute their
    conductance linearly.  Always lies in the interval computed by
    ``verify.tau_bounds`` because the activations stay within [0, 1].
    """
    if not 0 <= i < net.size:
        raise IndexError(f"neuron index {i} out of range for {net.size} neurons")
    u = np.asarray(state, dtype=float)
    # gamma * (v + mu) may overflow to +-inf, whose sigmoid is exactly 1 or 0
    with np.errstate(divide="ignore", over="ignore"):
        loads = _conductance_loads(net, _chem_activations(net, u))
        return float(net._cm[i] / loads[i])
