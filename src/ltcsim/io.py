"""Network document (JSON) and trajectory CSV formats.

The network document is a JSON object with keys ``neurons`` (columns cm,
g_leak, v_leak), ``chemical_synapses`` (columns src, dst, w, gamma, mu,
e_rev), ``gap_junctions`` (columns a, b, w_hat) and ``n_output``; output
neurons are the LAST n_output indices.  Each group is an object of equal
length JSON lists, one column a line.  A block's synapses (``LtcNetwork._block``)
are w, gamma, mu (one value per source) and e_rev (one row per source, one
value per neuron): synapse r * size + j is source r to neuron j.  The network
holds a block in that form, so the reader and the writer pass it as it is.
Lists of objects, one per item, are still read.  Parse failures name the
offending key or item index; a key given twice is an error.

Trajectory CSV: header ``t,v0,v1,...``, one row per recorded time, every
value serialized with 17 significant digits so read-back is bit-exact.
"""

from __future__ import annotations

import json
import os
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import DimensionMismatchError, FormatError, TopologyError
from .model import _ARRAY_OF, _GROUPS, LtcNetwork
from .solver import Trajectory

__all__ = [
    "serialize_network",
    "parse_network",
    "trajectory_to_csv",
    "trajectory_from_csv",
    "write_network",
    "read_network",
    "write_trajectory",
    "read_trajectory",
]

_TOP_KEYS = ("neurons", "chemical_synapses", "gap_junctions", "n_output")


_ITEMS = 4096  # list items per piece of a streamed network document
_BLOCK = ("w", "gamma", "mu", "e_rev")  # the columns of a block's synapses
_KIND = {f: kind for _, types, _ in _GROUPS for f, kind in types.items()}  # int or float


def _list(values):
    """One JSON list's items, by Python's repr (as the JSON encoder), in pieces of
    up to ``_ITEMS`` values; a 2-D ``values`` as its rows' lists, one a line."""
    if values.ndim == 2:
        for r, row in enumerate(values):
            yield from chain([f'{"," if r else ""}\n      ['], _list(row), ["]"])
        return
    for s in range(0, len(values), _ITEMS):
        yield ("," if s else "") + ",".join(map(repr, values[s:s + _ITEMS].tolist()))


def _network_pieces(net: LtcNetwork):
    """The network document, each group an object of columns and each column
    one JSON list on one line; a block's synapses as the ``_BLOCK`` lists."""
    yield "{\n"
    for name, fields, _ in _GROUPS:
        cols = [(f, getattr(net, _ARRAY_OF[f])) for f in fields]
        if name == "chemical_synapses" and net._block:  # w, gamma, mu once per source
            cols = [(f, c.ravel()) for f, c in cols[2:5]] + cols[5:]
        yield f'  "{name}": {{'
        for k, (f, values) in enumerate(cols):
            yield f'{"," if k else ""}\n    "{f}": ['
            yield from _list(values)
            yield "]"
        yield "\n  },\n"
    yield f'  "n_output": {net.n_output!r}\n}}\n'


def serialize_network(net: LtcNetwork) -> str:
    return "".join(_network_pieces(net))


def _check_keys(item, required, path):
    if not isinstance(item, dict):
        raise FormatError(f"{path} must be an object, got {type(item).__name__}")
    missing = [k for k in required if k not in item]
    if missing:
        raise FormatError(f"{path}: missing key {missing[0]!r}")
    extra = [k for k in item if k not in required]
    if extra:
        raise FormatError(f"{path}: unknown key {extra[0]!r}")


def _typed(v, path, kind):
    """Raise at ``path`` unless ``v`` is a JSON integer (int ``kind``) or number in float range."""
    if isinstance(v, bool) or not isinstance(v, int if kind is int else (int, float)):
        what = "an integer" if kind is int else "a number"
        raise FormatError(f"{path}: expected {what}, got {v!r}")
    try:
        kind(v)
    except OverflowError:
        raise FormatError(f"{path}: number out of float range") from None


def _columns(items, group, path, size) -> dict:
    """Columns of ``_GROUPS[group]``, keyed by field: an object of columns (for
    the synapses of ``size`` neurons, maybe a block), or a list of JSON objects,
    read as columns once every item has exactly the group's keys (else the first
    item with other keys is named), so checked as the column layout, in its order."""
    fields = _GROUPS[group][1]
    if items is None:
        items = []
    if isinstance(items, dict):
        if "e_rev" in fields and items.keys() == set(_BLOCK):
            return _read_block(items, path, size)
        return _column_object(items, fields, path)
    if not isinstance(items, list):
        raise FormatError(f"{path} must be a list or an object of columns")
    try:
        if set(map(type, items)) <= {dict} and set(map(len, items)) <= {len(fields)}:
            cols = {f: list(map(itemgetter(f), items)) for f in fields}
            return _column_object(cols, fields, path)
    except KeyError:
        pass
    for k, item in enumerate(items):  # some item's keys are wrong: name the first
        _check_keys(item, fields, f"{path}[{k}]")


def _column_object(group: dict, fields, path, step=1) -> dict:
    """Columns of an object of columns, each one JSON list whose element
    types are checked once for the whole list; if that fails, the first bad
    element raises the item layout's error, as item ``k * step`` for element
    k.  Lengths, values and indices are left to ``LtcNetwork.from_arrays``."""
    _check_keys(group, fields, path)
    cols = {}
    for f in fields:
        col = group[f]
        if not isinstance(col, list):
            raise FormatError(f"{path}.{f} must be a list, got {type(col).__name__}")
        kind = _KIND[f]
        try:
            if set(map(type, col)) <= ({int} if kind is int else {int, float}):
                cols[f] = col if kind is int else np.array(col, dtype=float)
                continue
        except OverflowError:
            pass
        for k, v in enumerate(col):
            _typed(v, f"{path}[{k * step}].{f}", kind)
    return cols


def _read_block(group: dict, path, size) -> dict:
    """A block layout's w, gamma and mu (one per source) and e_rev grid (one
    row per source), checked here and passed to ``from_arrays`` as they are."""
    if size is None:  # ragged neuron columns, which from_arrays names first
        return {}
    rows = group["e_rev"]
    cols = _column_object({f: group[f] for f in _BLOCK[:3]}, _BLOCK[:3], path, size)
    if not isinstance(rows, list) or set(map(len, cols.values())) != {len(rows)}:
        raise FormatError(f"{path}: w, gamma, mu and e_rev must be lists of one entry per source")
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != size:
            raise FormatError(f"{path}.e_rev[{r}] must be a list of {size} values, "
                              "one per neuron")
    e_rev = _column_object({"e_rev": list(chain.from_iterable(rows))}, ("e_rev",), path)
    return dict(cols, e_rev=e_rev["e_rev"].reshape(len(rows), size))


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict, refusing a key given twice (``json`` keeps
    the last value)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise FormatError(f"duplicate key {key!r}")
    return obj


def parse_network(text: str) -> LtcNetwork:
    """Parse and validate a network document; topology rules included."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # e.g. an integer beyond the digit limit
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("top level must be a JSON object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise FormatError(f"unknown top-level key {key!r}")
    for key in ("neurons", "n_output"):
        if key not in doc:
            raise FormatError(f"missing top-level key {key!r}")
    if isinstance(doc["n_output"], bool) or not isinstance(doc["n_output"], int):
        raise FormatError(f"n_output: expected an integer, got {doc['n_output']!r}")
    if not isinstance(doc["neurons"], (list, dict)):
        raise FormatError("neurons must be a list or an object of columns")
    cols = {}
    for group, (name, _, _) in enumerate(_GROUPS):
        sizes = set(map(len, cols.values()))  # the neuron count, to a block's rows
        cols.update(_columns(doc.get(name), group, name,
                             sizes.pop() if len(sizes) == 1 else None))
    try:
        return LtcNetwork.from_arrays(**cols, n_output=doc["n_output"])
    except (ValueError, TopologyError) as exc:
        raise FormatError(str(exc)) from exc


def _reals(parts, kind=float) -> list:
    """``kind`` of each string in ``parts``, refusing a ``_`` in any of them:
    ``float`` and ``int`` read digit-group underscores ("1_0" is 10), which
    no file or flag of ltcsim means."""
    if "_" in "".join(parts):
        bad = next(p for p in parts if "_" in p)
        raise ValueError(f"could not convert string to {kind.__name__}: {bad!r}")
    return list(map(kind, parts))


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _csv_text(header, rows: np.ndarray) -> str:
    """CSV with every value at 17 significant digits, bit-exact on read-back:
    ``%.17g`` writes what ``_fmt`` does, one ``%`` a row."""
    row = ",".join(["%.17g"] * len(header))
    lines = [",".join(header), *(row % tuple(r) for r in rows.tolist())]
    return "\n".join(lines) + "\n"


def trajectory_to_csv(traj: Trajectory) -> str:
    header = ["t", *(f"v{i}" for i in range(traj.states.shape[1]))]
    return _csv_text(header, np.column_stack([traj.times, traj.states]))


def trajectory_from_csv(text: str) -> Trajectory:
    # blank lines are skipped, but errors name a line by its place in the file
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise FormatError("empty trajectory file")
    header = lines[0][1].split(",")
    if header[0] != "t" or any(
        h != f"v{i}" for i, h in enumerate(header[1:])
    ):
        raise FormatError(f"bad trajectory header {lines[0][1]!r}")
    n_cols = len(header)
    times = []
    states = []
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != n_cols:
            raise FormatError(
                f"line {lineno}: expected {n_cols} columns, got {len(parts)}"
            )
        try:
            row = _reals(parts)
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        times.append(row[0])
        states.append(row[1:])
    try:
        return Trajectory(
            np.array(times), np.array(states).reshape(len(times), n_cols - 1)
        )
    except (ValueError, DimensionMismatchError) as exc:
        raise FormatError(str(exc)) from exc


def _read_text(path, kind: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {kind} file {path}: {exc}") from exc


def _write_text(path, pieces, kind: str) -> None:
    """Write the str ``pieces`` one after another with ``open(path, "w")``."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise FormatError(f"cannot write {kind} file {path}: {exc}") from exc


def _check_writable(path, kind: str) -> None:
    """Raise ``_write_text``'s error if ``path`` is empty, a directory or in
    a missing directory; then opening fails before any file is made."""
    if path is not None and (not path or os.path.isdir(path)
                             or not os.path.isdir(os.path.dirname(path) or ".")):
        _write_text(path, (), kind)


def write_network(net: LtcNetwork, path) -> None:
    _write_text(path, _network_pieces(net), "network")


def read_network(path) -> LtcNetwork:
    return parse_network(_read_text(path, "network"))


def write_trajectory(traj: Trajectory, path) -> None:
    _write_text(path, [trajectory_to_csv(traj)], "trajectory")


def read_trajectory(path) -> Trajectory:
    return trajectory_from_csv(_read_text(path, "trajectory"))
