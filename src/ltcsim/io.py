"""Network document (JSON) and trajectory CSV formats.

The network document is a JSON object with keys ``neurons`` (ordered list
of {cm, g_leak, v_leak}), ``chemical_synapses`` (list of {src, dst, w,
gamma, mu, e_rev}), ``gap_junctions`` (list of {a, b, w_hat}) and
``n_output``; output neurons are the LAST n_output indices.  Parse
failures name the offending key or list index.

Trajectory CSV: header ``t,v0,v1,...``, one row per recorded time, every
value serialized with 17 significant digits so read-back is bit-exact.
"""

from __future__ import annotations

import json
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


def _json_list(name: str, fields, cols) -> str:
    """``"name": [...]`` laid out exactly as ``json.dumps(indent=2)`` does;
    Python's float and int repr is what the JSON encoder writes."""
    if not cols[0]:
        return f'  "{name}": []'
    item = "    {\n" + ",\n".join(f'      "{f}": %r' for f in fields) + "\n    }"
    return f'  "{name}": [\n' + ",\n".join(map(item.__mod__, zip(*cols))) + "\n  ]"


def serialize_network(net: LtcNetwork) -> str:
    parts = [
        _json_list(name, fields, [getattr(net, _ARRAY_OF[f]).tolist() for f in fields])
        for name, fields, _ in _GROUPS
    ]
    parts.append(f'  "n_output": {net.n_output!r}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


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
    """Columns of a list of JSON objects, keyed by field.

    Key sets and value types are checked for the whole list at once.  If
    that fails, the per-item checks run in document order and the first
    bad item raises the error, named by its index.
    """
    if items is None:
        items = []
    if not isinstance(items, list):
        raise FormatError(f"{path} must be a list")
    try:
        if set(map(type, items)) <= {dict} and set(map(len, items)) <= {len(fields)}:
            cols = list(zip(*map(itemgetter(*fields), items))) or [()] * len(fields)
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


def parse_network(text: str) -> LtcNetwork:
    """Parse and validate a network document; topology rules included."""
    try:
        doc = json.loads(text)
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
    if not isinstance(doc["neurons"], list):
        raise FormatError("neurons must be a list")
    cols = {}
    for name, fields, kind in _GROUPS:
        cols.update(_columns(doc.get(name), fields, kind, name))
    try:
        return LtcNetwork.from_arrays(**cols, n_output=doc["n_output"])
    except (ValueError, TopologyError) as exc:
        raise FormatError(str(exc)) from exc


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
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty trajectory file")
    header = lines[0].split(",")
    if header[0] != "t" or any(
        h != f"v{i}" for i, h in enumerate(header[1:])
    ):
        raise FormatError(f"bad trajectory header {lines[0]!r}")
    n_cols = len(header)
    times = []
    states = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != n_cols:
            raise FormatError(
                f"line {lineno}: expected {n_cols} columns, got {len(parts)}"
            )
        try:
            row = [float(p) for p in parts]
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
    except OSError as exc:
        raise FormatError(f"cannot read {kind} file {path}: {exc}") from exc


def _write_text(path, text: str, kind: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {kind} file {path}: {exc}") from exc


def write_network(net: LtcNetwork, path) -> None:
    _write_text(path, serialize_network(net), "network")


def read_network(path) -> LtcNetwork:
    return parse_network(_read_text(path, "network"))


def write_trajectory(traj: Trajectory, path) -> None:
    _write_text(path, trajectory_to_csv(traj), "trajectory")


def read_trajectory(path) -> Trajectory:
    return trajectory_from_csv(_read_text(path, "trajectory"))
