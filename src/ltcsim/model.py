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

Every parameter rule (finite values, cm > 0, g_leak >= 0, w >= 0, ...) is
stated once, in the table ``_GROUPS``, which checks items and columns alike.
"""

from __future__ import annotations

import math
import operator
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
# Sigmoid work (values plus 32 a call) done with math.exp before importing
# scipy.special: that import costs about 0.24 s with numpy loaded and math.exp
# about 110 ns a value, so it pays after 0.24 s / 110 ns = 2.2e6, about 2**21,
# units.  `approximate` with 256 features and 1,024 samples spends about
# 771,000.  numpy's exp differs in the last bit.
_LIBM_BUDGET = 2**21
_libm_spent = 0


_CHUNK = 8192  # values per map of math.exp: the Python floats held at once


def _expit_libm(x, out=None) -> np.ndarray:
    """``scipy.special.expit`` bit for bit via the C library's exp of -x, capped
    at ``_EXP_MAX``; 0.0 where -x is above it.  It is worked in place in ``out``
    (new if None; ``x`` itself overwrites the input, else ``x`` is never written),
    beside which a call holds one bool mask and at most ``_CHUNK`` Python floats."""
    x = np.asarray(x, dtype=float)
    under = x < -_EXP_MAX  # taken first: writing out may overwrite x
    e = np.negative(x, out=np.empty(x.shape) if out is None else out)  # keeps 0-d an array
    np.minimum(e, _EXP_MAX, out=e)
    flat = e.reshape(-1) if e.flags.c_contiguous else e.flat  # e.flat: any layout of out
    for i in range(0, e.size, _CHUNK):
        flat[i:i + _CHUNK] = np.fromiter(map(math.exp, flat[i:i + _CHUNK].tolist()), float)
    e += 1.0
    np.divide(1.0, e, out=e)
    np.copyto(e, 0.0, where=under)
    return e


def expit(x, out=None):
    """Logistic sigmoid: ``_expit_libm`` within budget, then scipy's, bound here;
    ``out`` as for a ufunc (``expit(x, out=x)`` works in place)."""
    global expit, _libm_spent
    _libm_spent += np.size(x) + 32
    if _libm_spent <= _LIBM_BUDGET:
        return _expit_libm(x, out)
    from scipy.special import expit
    return expit(x, out=out)


_MAX = float(np.finfo(float).max)  # the largest double


def _finite(*fields) -> tuple:
    """Rules that each of ``fields`` is finite: ``abs(x) <= max`` is False on
    inf and NaN and, unlike ``x - x == 0``, raises no numpy warning on them."""
    return tuple((lambda d, f=f: abs(d[f]) <= _MAX, f"{f} must be finite, got {{{f}!r}}")
                 for f in fields)


# The parameter rules of a network, each stated here and nowhere else.  Per
# item group: its document list name, its fields with their types, and its
# rules as (test, message) pairs in the order an item is checked.  A test
# takes the group's fields as a dict of Python numbers (one item) or of numpy
# columns (the whole group); a message is worded from one item's dict by
# format_map.  Together the rules keep every tau_i inside
# [cm/(g_leak + sum w + sum w_hat), cm/(g_leak + sum w_hat)].
_GROUPS = (
    ("neurons", dict(cm=float, g_leak=float, v_leak=float), (
        *_finite("cm", "g_leak", "v_leak"),
        (lambda d: d["cm"] > 0.0, "cm must be > 0, got {cm}"),
        (lambda d: d["g_leak"] >= 0.0, "g_leak must be >= 0, got {g_leak}"))),
    ("chemical_synapses", dict(src=int, dst=int, w=float, gamma=float, mu=float, e_rev=float), (
        *_finite("w", "gamma", "mu", "e_rev"),
        (lambda d: (d["src"] >= 0) & (d["dst"] >= 0),
         "synapse indices must be >= 0, got ({src}, {dst})"),
        (lambda d: d["w"] >= 0.0, "w must be >= 0, got {w}"),
        (lambda d: d["gamma"] > 0.0, "gamma must be > 0, got {gamma}"))),
    ("gap_junctions", dict(a=int, b=int, w_hat=float), (
        *_finite("w_hat"),
        (lambda d: (d["a"] >= 0) & (d["b"] >= 0),
         "junction indices must be >= 0, got ({a}, {b})"),
        (lambda d: d["a"] != d["b"], "gap junction endpoints must differ, got a == b == {a}"),
        (lambda d: d["w_hat"] >= 0.0, "w_hat must be >= 0, got {w_hat}"))),
)


def _check(rules, d, prefix="") -> None:
    """Raise ValueError with ``prefix`` and the message of the first rule ``d`` breaks."""
    for test, message in rules:
        if not test(d):
            raise ValueError(prefix + message.format_map(d))


def _number(value, kind, name):
    """``value`` as ``kind``, float or int: an int from a float only if whole."""
    if isinstance(value, (str, bytes, bool, np.bool_)):  # float("1.0") is 1.0, True is 1
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                         f"got {value!r}")
    if kind is int and type(value) is not int and not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value}")  # int() would truncate
    return kind(value)


def _count(value, name) -> int:
    """``operator.index(value)``, whose TypeError is prefixed with ``name``."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise TypeError(f"{name}: {exc}") from None


class _Item:
    """Base of the item dataclasses, whose ``_group`` is their ``_GROUPS`` entry."""

    def __post_init__(self):
        _, types, rules = self._group
        d = {}  # not self.__dict__, which would cost every item a dict
        for f, kind in types.items():
            d[f] = value = getattr(self, f)
            if type(value) is not kind:  # else kind(value) is value itself
                d[f] = value = _number(value, kind, f)
                object.__setattr__(self, f, value)
        _check(rules, d)


@dataclass(frozen=True)
class NeuronParams(_Item):
    """Membrane parameters of one neuron.

    ``g_leak == 0`` is admitted so that leakless gap-only networks (used by
    the conservation check) are constructible; negative values are rejected.
    """

    cm: float
    g_leak: float
    v_leak: float

    _group = _GROUPS[0]


@dataclass(frozen=True)
class ChemicalSynapse(_Item):
    """Sigmoid-gated synapse from neuron ``src`` into neuron ``dst``.

    Autapses (src == dst) are permitted.
    """

    src: int
    dst: int
    w: float
    gamma: float
    mu: float
    e_rev: float

    _group = _GROUPS[1]


@dataclass(frozen=True)
class GapJunction(_Item):
    """Bidirectional Ohmic coupling between neurons ``a`` and ``b``."""

    a: int
    b: int
    w_hat: float

    _group = _GROUPS[2]


_ITEM_TYPES = (NeuronParams, ChemicalSynapse, GapJunction)  # in _GROUPS order
_ARRAYS = ("_cm", "_g", "_vleak", "_src", "_dst", "_w", "_gamma", "_mu", "_erev",
           "_ga", "_gb", "_gw")
_ARRAY_OF = dict(zip((f for _, types, _ in _GROUPS for f in types), _ARRAYS))


def _column(values, kind, name, f) -> np.ndarray:
    """Column ``f`` of group ``name``: floats, or indices, where a float
    must be a whole number (1.0 is 1, 0.7 is refused); never strings or bools."""
    given = np.asarray(values)
    if given.size and given.dtype.kind in "USb":  # raise at the first string or bool given
        for k, value in enumerate(np.asarray(values, object).ravel()):
            _number(value, kind, f"{name}[{k}]: {f}")
    if kind is float:
        return np.array(given, dtype=float, order="C")  # a block's grid summed row by row
    if given.dtype.kind == "f":
        bad = ~np.isfinite(given) | (np.trunc(given) != given)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"{name}[{k}]: {f} must be an integer, got {given.flat[k]}")
        values = given.tolist()  # numpy would cast a float beyond intp to its minimum
    try:
        return np.array(values, dtype=np.intp)
    except OverflowError:  # beyond intp: Python ints, which the index checks reject
        return np.array([int(v) for v in values], dtype=object)


def _per_synapse(*arrays) -> list:
    """An item group's arrays as columns of one value per item: a block's broadcast
    to its e_rev grid, the last array, and flattened (synapse r * size + j)."""
    return [np.broadcast_to(a, arrays[-1].shape).ravel() for a in arrays]


class LtcNetwork:
    """Immutable network: neurons, synapses, junctions and output split.

    Output neurons are the last ``n_output`` indices.  Parameter arrays,
    each value held once, are the source of truth: columns, or a block's
    rows and grid (see ``_store``).  ``LtcNetwork.from_arrays`` validates
    them (the rules of ``_GROUPS`` over whole columns, index ranges, the
    feed-forward output rule); the tuple constructor
    ``LtcNetwork(neurons, chem, gaps, n_output)`` converts its items and
    calls the same validator, which skips the rules for a group of item
    dataclasses: they checked them when they were made.  The ``neurons``,
    ``chem`` and ``gaps`` tuples are views: the tuples given to the
    constructor, or built on first access for array-built networks.
    Equality compares the arrays and ``n_output``.
    """

    def __init__(self, neurons, chem=(), gaps=(), n_output=0):
        views = (tuple(neurons), tuple(chem), tuple(gaps))
        checked = {g for g, items in enumerate(views)
                   if all(type(x) is _ITEM_TYPES[g] for x in items)}
        self._store({f: [getattr(x, f) for x in items]
                     for items, (_, fields, _) in zip(views, _GROUPS) for f in fields},
                    n_output, checked)
        self._cache.update(enumerate(views))

    @classmethod
    def from_arrays(cls, cm, g_leak, v_leak, src=(), dst=(), w=(), gamma=(), mu=(),
                    e_rev=(), a=(), b=(), w_hat=(), n_output=0) -> LtcNetwork:
        """Validate flat per-neuron, per-synapse and per-junction columns, each
        copied, never kept.  A block omits ``src`` and ``dst`` and gives ``w``,
        ``gamma`` and ``mu`` per source and ``e_rev`` as an (R, size) grid:
        synapse r * size + j runs from source r to neuron j with e_rev[r, j]."""
        net = cls.__new__(cls)
        net._store(dict(cm=cm, g_leak=g_leak, v_leak=v_leak, src=src, dst=dst, w=w,
                        gamma=gamma, mu=mu, e_rev=e_rev, a=a, b=b, w_hat=w_hat),
                   n_output)
        return net

    def _store(self, cols, n_output, checked=()):
        groups = []
        for name, types, rules in _GROUPS:
            group = [_column(cols[f], kind, name, f) for f, kind in types.items()]
            if group[-1].ndim == 2 and name == "chemical_synapses":  # one e_rev row a source
                src, dst, w, gamma, mu, grid = group
                rows, size = grid.shape[0], groups[0][0].shape[0]
                if src.size or dst.size or grid.shape[1] != size or any(
                        c.shape != (rows,) for c in (w, gamma, mu)):
                    raise ValueError(f"{name}: a block takes no src or dst, one w, gamma and "
                                     "mu per e_rev row and one e_rev value per neuron")
                if rows and not size:  # sources, though the empty grid names no synapse
                    raise ValueError(f"{name}[0]: index out of range for 0 neurons")
                group = [np.arange(rows)[:, None], np.arange(size),
                         *(c[:, None] for c in (w, gamma, mu)), grid]
            elif any(c.ndim != 1 or c.shape != group[0].shape for c in group):
                raise ValueError(f"{name} columns must be 1-D and of equal length")
            groups.append(group)
        (cm, g, vleak), syn, (ga, gb, gw) = groups
        size = cm.shape[0]
        # A block: no junctions, and sources 0..R-1 in order each sending one synapse
        # to every neuron in order, all of a source's synapses sharing (w, gamma, mu)
        # bit for bit.  Given so or laid out by columns, it is held as (R, 1) rows of
        # src, w, gamma and mu, dst 0..size-1 and a C-contiguous (R, size) e_rev grid.
        rows = len(syn[0]) // size if size and syn[5].ndim == 1 and not gw.size else 0
        grid = [c.reshape(rows, size) for c in syn] if rows * size == len(syn[0]) > 0 else ()
        if grid and (grid[0] == np.arange(rows)[:, None]).all() and (
                grid[1] == np.arange(size)).all() and all(
                (c.view(np.int64) == c[:, :1].view(np.int64)).all() for c in grid[2:5]):
            groups[1] = syn = [np.arange(rows)[:, None], np.arange(size),
                               *(c[:, :1].copy() for c in grid[2:5]), grid[5]]
        elif syn[5].ndim == 2 and (gw.size or not syn[5].size):  # then no block
            groups[1] = syn = _per_synapse(*syn)
        for i, ((name, types, rules), group) in enumerate(zip(_GROUPS, groups)):
            if group[0].size and i not in checked:  # an empty group breaks no rule
                group = dict(zip(types, group))  # each rule over whole (broadcast) columns
                ok = np.logical_and.reduce(np.broadcast_arrays(*(t(group) for t, _ in rules)))
                if not ok.all():  # the first bad item, worded by the same rules
                    k = int(np.argmin(ok))
                    _check(rules, {f: np.broadcast_to(c, ok.shape).item(k)
                                   for f, c in group.items()}, f"{name}[{k}]: ")
        n_output = _number(n_output, int, "n_output")
        if not 0 <= n_output <= size:
            raise ValueError(f"n_output must be between 0 and {size}, got {n_output}")
        n_hidden = size - n_output
        edges = (
            ("chemical_synapses", *np.broadcast_arrays(syn[0], syn[1]), syn[0] >= n_hidden,
             "source {} is an output neuron; outputs must not project to any neuron"),
            ("gap_junctions", ga, gb, (ga >= n_hidden) | (gb >= n_hidden),
             "endpoint touches an output neuron; "
             "gap junctions are bidirectional and must stay hidden-hidden"),
        )
        for path, first, second, touches, why in edges:
            out = (first >= size) | (second >= size)
            if (out | touches).any():
                k = int(np.argmax(out | touches))
                if out.flat[k]:
                    raise ValueError(f"{path}[{k}]: index out of range for {size} neurons")
                raise TopologyError(f"{path}[{k}]: " + why.format(first.flat[k]))
        arrays = [cm, g, vleak, *syn, ga, gb, gw]
        for arr in arrays:
            arr.flags.writeable = False
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
                            ("_block", syn[5].ndim == 2)):
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
            cols = _per_synapse(*(getattr(self, _ARRAY_OF[f]) for f in _GROUPS[group][1]))
            self._cache[group] = tuple(map(_ITEM_TYPES[group], *(c.tolist() for c in cols)))
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
                    self._cm / _conductance_loads(self, np.ones(self._w.shape)),
                    self._cm / _conductance_loads(self, np.zeros(self._w.shape)))
        return self._cache["tau"]

    @property
    def n_hidden(self) -> int:
        return self.size - self.n_output

    @property
    def n_chem(self) -> int:
        return self._erev.size

    @property
    def n_gaps(self) -> int:
        return self._gw.shape[0]


def _state(state, net: LtcNetwork) -> np.ndarray:
    """``state`` as floats, refused unless it is a vector of one per neuron."""
    u = np.asarray(state, dtype=float)
    if u.ndim != 1 or u.shape[0] != net.size:
        raise DimensionMismatchError(f"state has shape {u.shape}, "
                                     f"network has {net.size} neurons")
    return u


def validate_state(u, net: LtcNetwork) -> np.ndarray:
    """Coerce ``u`` to a float vector and check length and finiteness."""
    u = _state(np.atleast_1d(np.asarray(u, dtype=float)), net)
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
    if not 0 <= i < net.size:
        raise IndexError(f"neuron index {i} out of range for {net.size} neurons")
    u = _state(state, net)
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
    """Sigmoid activations at the state ``u``: one per synapse, or one (R, 1)
    row per source of a block."""
    return expit(net._gamma * (u[net._src] + net._mu))


def _inflow(net: LtcNetwork, base, chem: np.ndarray, gap) -> np.ndarray:
    """Per-neuron ``base`` + chemical terms summed over ``dst`` + gap terms
    summed over the gap endpoints (a-side, then b-side), in that order.

    This is the one accumulation behind the derivative, the semi-implicit
    step and the conductance loads, so all of them sum in the order of the
    per-neuron loop.

    A block's terms come as an (R, size) grid, each neuron's column summed
    in source order from +0.0 (a reduction over a leading axis runs row by
    row, never pairwise), or as (R, 1) terms that every neuron shares,
    summed once by ``accumulate``, which is sequential too.

    ``gap`` None (no junctions) skips the gap sum bit for bit: bincount sums
    start at +0.0, so ``base + chem_in`` is never -0.0 and + 0.0 is a no-op.
    """
    size = net.size
    if net._block:
        if chem.shape[-1] == 1:  # 0.0 + turns an all -0.0 sum into bincount's +0.0
            return base + (0.0 + np.add.accumulate(chem)[-1])
        return base + np.add.reduce(chem, axis=0, initial=0.0)
    s = base + np.bincount(net._dst, weights=chem, minlength=size)
    return s if gap is None else s + np.bincount(net._gself, weights=gap, minlength=size)


def _conductance_loads(net: LtcNetwork, sig: np.ndarray) -> np.ndarray:
    """Per-neuron g_leak + sum(w * sig) + sum(w_hat) for given activations: one
    accumulation order for the effective time constant and the interval bounds
    of ``verify.tau_bounds``, so that membership holds in floating point too."""
    return _inflow(net, net._g, net._w * sig, net._gw2)


def network_derivative(state, net: LtcNetwork) -> np.ndarray:
    """All-neuron derivative; componentwise equal to neuron_derivative.

    A huge state may raise numpy's overflow warning: an ``np.errstate`` per
    call would cost ~0.5 us of a ~4 us call, so the solver sets one per run."""
    u = _state(state, net)
    wsig = net._w * _chem_activations(net, u)
    gap = None if net._gw2 is None else net._gw2 * (u[net._gother] - u[net._gself])
    return _inflow(net, net._g * (net._vleak - u),
                   wsig * (net._erev - u[net._dst]), gap) / net._cm


def effective_time_constant(i: int, state, net: LtcNetwork) -> float:
    """State-dependent time constant cm / (g_leak + sum w*sigma + sum w_hat).

    Equals cm/g_leak for an isolated neuron; gap junctions contribute their
    conductance linearly.  Always lies in the interval computed by
    ``verify.tau_bounds`` because the activations stay within [0, 1].
    """
    if not 0 <= i < net.size:
        raise IndexError(f"neuron index {i} out of range for {net.size} neurons")
    u = _state(state, net)
    # gamma * (v + mu) may overflow to +-inf, whose sigmoid is exactly 1 or 0
    with np.errstate(divide="ignore", over="ignore"):
        loads = _conductance_loads(net, _chem_activations(net, u))
        return float(net._cm[i] / loads[i])
