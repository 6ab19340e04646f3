"""Network document (JSON) and trajectory CSV formats.

The network document is a JSON object with keys ``neurons`` (columns cm,
g_leak, v_leak), ``chemical_synapses`` (columns src, dst, w, gamma, mu,
e_rev), ``gap_junctions`` (columns a, b, w_hat) and ``n_output``; output
neurons are the LAST n_output indices.  Each group is an object of equal
length JSON lists, one per column, and is written with one column per
line.  A group may also be a list of objects, one per item ({cm, g_leak,
v_leak} and so on): that layout is still read.  Parse failures name the
offending key or item index; a key given twice is an error.

Trajectory CSV: header ``t,v0,v1,...``, one row per recorded time, every
value serialized with 17 significant digits so read-back is bit-exact.
"""

from __future__ import annotations

import json
import os
import stat
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import DimensionMismatchError, FormatError, TopologyError
from .model import _ARRAY_OF, _GROUPS, _INDEX_FIELDS, LtcNetwork
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


def _network_pieces(net: LtcNetwork):
    """The network document, each group an object of columns and each column
    one JSON list on one line (Python's float and int repr is what the JSON
    encoder writes), in pieces of up to ``_ITEMS`` values, each converting
    only its own slice."""
    yield "{\n"
    for name, fields, _ in _GROUPS:
        yield f'  "{name}": {{'
        for k, f in enumerate(fields):
            values = getattr(net, _ARRAY_OF[f])
            yield f'{"," if k else ""}\n    "{f}": ['
            for s in range(0, len(values), _ITEMS):
                yield ("," if s else "") + ",".join(map(repr, values[s:s + _ITEMS].tolist()))
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


def _number(item, key, path):
    v = item[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise FormatError(f"{path}.{key}: expected a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise FormatError(f"{path}.{key}: number out of float range") from None


def _integer(item, key, path):
    v = item[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise FormatError(f"{path}.{key}: expected an integer, got {v!r}")
    return v


def _check_item(item, fields, kind, path):
    """Keys, value types and parameter rules of one list item."""
    _check_keys(item, fields, path)
    try:
        kind(*(_integer(item, f, path) if f in _INDEX_FIELDS else _number(item, f, path)
               for f in fields))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _columns(items, fields, kind, path) -> dict:
    """Columns of one group, keyed by field: an object of columns, or a list
    of JSON objects.

    Key sets and value types are checked for the whole group at once.  If
    that fails, the per-item checks run in document order and the first
    bad item raises the error, named by its index.
    """
    if items is None:
        items = []
    if isinstance(items, dict):
        return _column_object(items, fields, path)
    if not isinstance(items, list):
        raise FormatError(f"{path} must be a list or an object of columns")
    try:
        if set(map(type, items)) <= {dict} and set(map(len, items)) <= {len(fields)}:
            cols = [list(map(itemgetter(f), items)) for f in fields]
            if all(set(map(type, col)) <= ({int} if f in _INDEX_FIELDS else {int, float})
                   for f, col in zip(fields, cols)):
                return {f: col if f in _INDEX_FIELDS else np.array(col, dtype=float)
                        for f, col in zip(fields, cols)}
    except (KeyError, OverflowError):
        pass
    # Every way the whole-list pass can fail is a key, type or range error
    # that one of the per-item checks raises.
    for k, item in enumerate(items):
        _check_item(item, fields, kind, f"{path}[{k}]")


def _column_object(group: dict, fields, path) -> dict:
    """Columns of an object of columns, each one JSON list whose element
    types are checked once for the whole list; if that fails, the first bad
    element raises the item layout's error.  Lengths, values and indices
    are left to ``LtcNetwork.from_arrays``."""
    _check_keys(group, fields, path)
    cols = {}
    for f in fields:
        col = group[f]
        if not isinstance(col, list):
            raise FormatError(f"{path}.{f} must be a list, got {type(col).__name__}")
        index = f in _INDEX_FIELDS
        try:
            if set(map(type, col)) <= ({int} if index else {int, float}):
                cols[f] = col if index else np.array(col, dtype=float)
                continue
        except OverflowError:
            pass
        for k, v in enumerate(col):
            (_integer if index else _number)({f: v}, f, f"{path}[{k}]")
    return cols


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
    for name, fields, kind in _GROUPS:
        cols.update(_columns(doc.get(name), fields, kind, name))
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
    """CSV with every value at 17 significant digits, bit-exact on read-back."""
    lines = [",".join(header), *(",".join(map(_fmt, row)) for row in rows.tolist())]
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


def _differs(path, pieces):
    """None, with the mtime set to now, if ``path`` is a regular file holding
    exactly the UTF-8 bytes of ``pieces``; else the text taken from them so
    far.  The type is checked before an ``r+b`` open (so no FIFO or device
    is opened) and on the open file, then the bytes piece by piece."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return ""
        fh = open(path, "r+b")
    except OSError:  # then "w" is tried, and reports what it cannot do
        return ""
    with fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            return ""
        done = 0
        for piece in chain(pieces, [""]):  # the "" piece checks for EOF
            data = piece.encode("utf-8")
            if fh.read(len(data) or 1) != data:
                fh.seek(0)  # the bytes before this piece matched: read them back
                return fh.read(done).decode("utf-8") + piece
            done += len(data)
        os.utime(fh.fileno())
        return None


def _write_text(path, pieces, kind: str) -> None:
    """Write the str ``pieces`` unless the file holds their bytes already
    (truncating would free its blocks: slow); no piece is made twice."""
    pieces = iter(pieces)
    try:
        head = _differs(path, pieces)
        if head is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(chain([head], pieces))
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
