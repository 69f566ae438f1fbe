"""JSON interchange for operators and channels, plus strict input-file schemas.

Operator shape: {"dim_row": n, "dim_col": m, "entries": [[re, im], ...]} with
entries flattened row-major.  Channel shape: {"kind": ..., "d_in": ...,
"d_out": ..., <payload>}, where a symmetric lift's payload is its
measure-and-prepare base.  Readers are strict: unknown or missing fields are
rejected with the offending field path."""

from __future__ import annotations

import contextlib
import itertools
import json

import numpy as np

from .channels import ChoiChannel, KrausChannel, MeasurePrepareChannel, SymmetricLift
from .operators import DiscretePOVM, OperatorError, as_matrix

__all__ = [
    "SchemaError",
    "operator_to_json",
    "operator_from_json",
    "channel_to_json",
    "channel_from_json",
    "operators_field",
    "dumps_report",
    "load_json_file",
    "io_roundtrip",
]


class SchemaError(ValueError):
    """Input JSON violates the expected schema; message carries the field path."""


def _expect_keys(obj, required, optional=(), path="$"):
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object, got {type(obj).__name__}")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}.{key}: missing required field")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}: unknown field")


def _list_field(obj, key, path="$") -> list:
    """obj[key], which must be a JSON list."""
    value = obj[key]
    if not isinstance(value, list):
        raise SchemaError(f"{path}.{key}: expected a list, got {type(value).__name__}")
    return value


def _positive_ints(obj, keys, path="$"):
    """Reject obj[k] for k in `keys` unless each is a positive integer."""
    if not all(type(obj[k]) is int and obj[k] >= 1 for k in keys):  # JSON true/false are not sizes
        raise SchemaError(f"{path}.{'/'.join(keys)}: need positive integers")


def _number_field(value, path="$") -> float:
    """A JSON number as a float; JSON true and false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{path}: number too large for a float") from None


def operators_field(obj, key, path="$") -> list:
    """The operators listed at obj[key], element i read at `{path}.{key}[i]`.  They are
    parsed only: whether they are states or effects is the decider's check."""
    return [operator_from_json(m, f"{path}.{key}[{i}]")
            for i, m in enumerate(_list_field(obj, key, path))]


def operator_to_json(matrix) -> dict:
    m = as_matrix(matrix)
    return {
        "dim_row": int(m.shape[0]),
        "dim_col": int(m.shape[1]),
        # a real matrix gains imaginary parts +0.0, as its `imag` reads
        "entries": np.ascontiguousarray(m, complex).view(float).reshape(-1, 2).tolist(),
    }


def operator_from_json(obj, path="$") -> np.ndarray:
    _expect_keys(obj, ("dim_row", "dim_col", "entries"), path=path)
    _positive_ints(obj, ("dim_row", "dim_col"), path)
    rows, cols = obj["dim_row"], obj["dim_col"]
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise SchemaError(
            f"{path}.entries: expected {rows * cols} [re, im] pairs, got "
            f"{len(entries) if isinstance(entries, list) else type(entries).__name__}")
    flat = None  # the whole list at once, if it holds only [re, im] lists of ints and floats
    if (set(map(type, entries)) == {list} and set(map(len, entries)) == {2}
            and {float, int}.issuperset(map(type, itertools.chain.from_iterable(entries)))):
        with contextlib.suppress(OverflowError):  # an int past the float range
            flat = np.array(entries, float).view(complex)
    if flat is None:  # the loop reads other numbers, and names the first bad entry
        flat = np.empty(rows * cols, dtype=complex)
        for i, pair in enumerate(entries):
            if (not isinstance(pair, list)) or len(pair) != 2:
                raise SchemaError(f"{path}.entries[{i}]: expected an [re, im] pair")
            at = f"{path}.entries[{i}]"
            flat[i] = complex(_number_field(pair[0], at), _number_field(pair[1], at))
    try:
        return as_matrix(flat.reshape(rows, cols))
    except OperatorError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def channel_to_json(channel) -> dict:
    kind = getattr(channel, "kind", None)
    if kind == "kraus":
        payload = {"kraus_ops": [operator_to_json(k) for k in channel.kraus_ops]}
    elif kind == "choi":
        payload = {"matrix": operator_to_json(channel.matrix)}
    elif kind == "measure_prepare":
        payload = {
            "povm": [operator_to_json(g) for g in channel.povm.effects],
            "states": [operator_to_json(s) for s in channel.states],
            "labels": list(channel.povm.labels),
        }
    elif kind == "symmetric_lift":
        payload = {"base": channel_to_json(channel.base)}
    else:
        raise SchemaError(f"cannot serialize channel of kind {kind!r}")
    return {"kind": kind, "d_in": channel.d_in, "d_out": channel.d_out, **payload}


_CHANNEL_PAYLOAD = {"kraus": ("kraus_ops",), "choi": ("matrix",),
                    "measure_prepare": ("povm", "states"), "symmetric_lift": ("base",)}


def channel_from_json(obj, path="$", kinds=tuple(_CHANNEL_PAYLOAD)):
    """The channel a document of one of `kinds` describes.  A symmetric lift's
    base is read as a measure_prepare document only, so however deep a
    document nests, the reader recurses at most once."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    kind = obj.get("kind")
    if kind not in kinds:
        raise SchemaError(f"{path}.kind: expected {' | '.join(map(repr, kinds))}, got {kind!r}")
    _expect_keys(obj, ("kind", "d_in", "d_out") + _CHANNEL_PAYLOAD[kind],
                 optional=("labels",) if kind == "measure_prepare" else (), path=path)
    _positive_ints(obj, ("d_in", "d_out"), path)
    if kind == "kraus":
        ch = KrausChannel(operators_field(obj, "kraus_ops", path=path))
    elif kind == "choi":
        ch = ChoiChannel(operator_from_json(obj["matrix"], f"{path}.matrix"),
                         obj["d_in"], obj["d_out"])
    elif kind == "measure_prepare":
        effects = operators_field(obj, "povm", path=path)
        states = operators_field(obj, "states", path=path)
        labels = tuple(_list_field(obj, "labels", path)) if "labels" in obj else None
        try:
            ch = MeasurePrepareChannel(DiscretePOVM(tuple(effects), labels), states)
        except (OperatorError, ValueError) as exc:
            raise SchemaError(f"{path}: {exc}") from exc
    else:
        base = channel_from_json(obj["base"], f"{path}.base", ("measure_prepare",))
        try:
            ch = SymmetricLift(base)
        except ValueError as exc:  # a non-square base, or a lifted state that is no density
            raise SchemaError(f"{path}.base: {exc}") from exc
    if (ch.d_in, ch.d_out) != (obj["d_in"], obj["d_out"]):
        raise SchemaError(
            f"{path}.d_in/d_out: declared ({obj['d_in']}, {obj['d_out']}) but payload "
            f"implies ({ch.d_in}, {ch.d_out})")
    return ch


def dumps_report(report: dict) -> str:
    """Deterministic JSON: sorted keys, full double precision floats.

    Byte for byte `json.dumps(report, sort_keys=True, indent=2,
    allow_nan=False) + "\\n"`, including its `ValueError` on NaN or infinity
    and `TypeError` on values JSON cannot hold.  With `indent` the stdlib
    falls back to its pure-Python encoder, so this one is specialised: each
    list of `[re, im]` float pairs (the operator entries, nearly all of a
    report) is formatted by one `%` over a template of fixed layout, and
    `float.__repr__` runs once per distinct value of the report, since a
    Hermitian operator holds each off-diagonal real part twice and a report
    often writes one operator in several places."""
    return _encode(report, 0, {}) + "\n"


_ascii = json.encoder.encode_basestring_ascii
_INF = float("inf")
_FLOAT_TYPES = frozenset({float, np.float64})
_NON_FINITE = frozenset({"nan", "inf", "-inf"})


def _float(x) -> str:
    if x != x or x == _INF or x == -_INF:
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


def _key(key) -> str:
    """A dict key as json converts it, before quoting."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float(key)
    if key is True or key is False or key is None:
        return _encode(key, 0, {})
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _pair_list(items, depth: int, table: dict) -> str | None:
    """`items` at indent level `depth` if it is a list of finite [re, im]
    float pairs, else None (the general path then encodes it, or raises).

    `table`, the report's, maps each value formatted so far to its repr and
    gains the finite values of `items` it lacks.  It is keyed by value, where
    0.0 == -0.0 although their reprs differ, so zeros are formatted one by one."""
    if set(map(type, items)) != {list} or set(map(len, items)) != {2}:
        return None
    values = list(itertools.chain.from_iterable(items))
    # ints and bools would share table entries with equal floats
    if not _FLOAT_TYPES.issuperset(map(type, values)):
        return None
    new = set(values).difference(table)
    reprs = list(map(float.__repr__, new))
    if not _NON_FINITE.isdisjoint(reprs):
        return None
    table.update(zip(new, reprs))
    reprs = tuple([table[x] if x else float.__repr__(x) for x in values])
    outer = "\n" + "  " * depth
    inner = outer + "  "
    number = inner + "  "
    pair = "[" + number + "%s," + number + "%s" + inner + "]"
    return "[" + inner + ("," + inner).join([pair] * len(items)) % reprs + outer + "]"


def _encode(o, depth: int, table: dict) -> str:
    """`o` as json.dumps(sort_keys=True, indent=2) writes it at indent level `depth`."""
    if isinstance(o, str):
        return _ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        text = _pair_list(o, depth, table)
        if text is None:
            inner = "\n" + "  " * (depth + 1)
            text = "[" + inner + ("," + inner).join([_encode(v, depth + 1, table) for v in o])
            text += "\n" + "  " * depth + "]"
        return text
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = "\n" + "  " * (depth + 1)
        return ("{" + inner + ("," + inner).join(
            [_ascii(_key(k)) + ": " + _encode(v, depth + 1, table) for k, v in sorted(o.items())])
            + "\n" + "  " * depth + "}")
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def load_json_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:  # the stdlib decoder recurses once per nesting level
            raise SchemaError(f"$: {path} nests JSON too deeply to read") from None


def io_roundtrip(path):
    """The channel (a document with a `kind`) or operator read from `path`; raises a
    `SchemaError` unless writing it, reading that back and writing again repeats it."""
    raw = load_json_file(path)
    if isinstance(raw, dict) and "kind" in raw:
        read, write = channel_from_json, channel_to_json
    else:
        read, write = operator_from_json, operator_to_json
    parsed = read(raw)
    text = json.dumps(write(parsed), sort_keys=True)
    if json.dumps(write(read(json.loads(text))), sort_keys=True) != text:
        raise SchemaError("$: serialization roundtrip is not stable")
    return parsed
