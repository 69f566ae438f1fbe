"""JSON interchange for operators and channels, plus strict input-file schemas.

Operator shape: {"dim_row": n, "dim_col": m, "entries": [[re, im], ...]} with
entries flattened row-major.  Channel shape: {"kind": ..., "d_in": ...,
"d_out": ..., <payload>}.  Readers are strict: unknown or missing fields are
rejected with the offending field path."""

from __future__ import annotations

import itertools
import json

import numpy as np

from .channels import ChoiChannel, KrausChannel, MeasurePrepareChannel
from .operators import DiscretePOVM, OperatorError, as_complex_matrix

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


def operators_field(obj, key, validate=None, path="$") -> list:
    """The operators listed at obj[key], element i read at `{path}.{key}[i]`.  `validate`,
    if given, maps each one (`as_density`, `as_effect`), and an `OperatorError` it
    raises becomes a `SchemaError` at `{path}.{key}`."""
    mats = [operator_from_json(m, f"{path}.{key}[{i}]")
            for i, m in enumerate(_list_field(obj, key, path))]
    if validate is None:
        return mats
    try:
        return [validate(m) for m in mats]
    except OperatorError as exc:
        raise SchemaError(f"{path}.{key}: {exc}") from exc


def operator_to_json(matrix) -> dict:
    m = as_complex_matrix(matrix)
    return {
        "dim_row": int(m.shape[0]),
        "dim_col": int(m.shape[1]),
        "entries": np.stack([m.real, m.imag], -1).reshape(-1, 2).tolist(),
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
    flat = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(entries):
        if (not isinstance(pair, list)) or len(pair) != 2:
            raise SchemaError(f"{path}.entries[{i}]: expected an [re, im] pair")
        at = f"{path}.entries[{i}]"
        flat[i] = complex(_number_field(pair[0], at), _number_field(pair[1], at))
    try:
        return as_complex_matrix(flat.reshape(rows, cols))
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
    else:
        raise SchemaError(f"cannot serialize channel of kind {kind!r}")
    return {"kind": kind, "d_in": channel.d_in, "d_out": channel.d_out, **payload}


def channel_from_json(obj, path="$"):
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    kind = obj.get("kind")
    payload = {"kraus": ("kraus_ops",), "choi": ("matrix",), "measure_prepare": ("povm", "states")}
    if kind not in payload:
        raise SchemaError(f"{path}.kind: unknown channel kind {kind!r}")
    _expect_keys(obj, ("kind", "d_in", "d_out") + payload[kind],
                 optional=("labels",) if kind == "measure_prepare" else (), path=path)
    _positive_ints(obj, ("d_in", "d_out"), path)
    if kind == "kraus":
        ch = KrausChannel(operators_field(obj, "kraus_ops", path=path))
    elif kind == "choi":
        ch = ChoiChannel(operator_from_json(obj["matrix"], f"{path}.matrix"),
                         obj["d_in"], obj["d_out"])
    else:
        effects = operators_field(obj, "povm", path=path)
        states = operators_field(obj, "states", path=path)
        labels = tuple(_list_field(obj, "labels", path)) if "labels" in obj else None
        try:
            ch = MeasurePrepareChannel(DiscretePOVM(tuple(effects), labels), states)
        except (OperatorError, ValueError) as exc:
            raise SchemaError(f"{path}: {exc}") from exc
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
    `float.__repr__` runs once per distinct value of the list, since the
    swap-symmetric, Hermitian broadcaster states repeat most of theirs."""
    return _encode(report, 0) + "\n"


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
        return _encode(key, 0)
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _pair_list(items, depth: int) -> str | None:
    """`items` at indent level `depth` if it is a list of finite [re, im]
    float pairs, else None (the general path then encodes it, or raises).

    Each distinct value is formatted once.  The table is keyed by value, where
    0.0 == -0.0 although their reprs differ, so zeros are formatted one by one."""
    if set(map(type, items)) != {list} or set(map(len, items)) != {2}:
        return None
    values = list(itertools.chain.from_iterable(items))
    # ints and bools would share table entries with equal floats
    if not _FLOAT_TYPES.issuperset(map(type, values)):
        return None
    distinct = dict.fromkeys(values)
    table = dict(zip(distinct, map(float.__repr__, distinct)))
    if not _NON_FINITE.isdisjoint(table.values()):
        return None
    reprs = tuple([table[x] if x else float.__repr__(x) for x in values])
    outer = "\n" + "  " * depth
    inner = outer + "  "
    number = inner + "  "
    pair = "[" + number + "%s," + number + "%s" + inner + "]"
    return "[" + inner + ("," + inner).join([pair] * len(items)) % reprs + outer + "]"


def _encode(o, depth: int) -> str:
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
        text = _pair_list(o, depth)
        if text is None:
            inner = "\n" + "  " * (depth + 1)
            text = "[" + inner + ("," + inner).join([_encode(v, depth + 1) for v in o])
            text += "\n" + "  " * depth + "]"
        return text
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = "\n" + "  " * (depth + 1)
        return ("{" + inner + ("," + inner).join(
            [_ascii(_key(k)) + ": " + _encode(v, depth + 1) for k, v in sorted(o.items())])
            + "\n" + "  " * depth + "}")
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def load_json_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_known(obj):
    """Parse a JSON object of any supported shape into library objects."""
    if isinstance(obj, dict) and "kind" in obj:
        return channel_from_json(obj), "channel"
    if isinstance(obj, dict) and "dim_row" in obj:
        return operator_from_json(obj), "operator"
    if isinstance(obj, dict) and "states" in obj and "dim_row" not in obj:
        _expect_keys(obj, ("states",), path="$")
        return operators_field(obj, "states"), "state_set"
    if isinstance(obj, dict) and "effects" in obj:
        _expect_keys(obj, ("effects",), optional=("picture", "channel", "epsilon"), path="$")
        return obj, "effect_set"
    raise SchemaError("$: unrecognized document shape")


def io_roundtrip(path):
    """Parse, re-serialize, and re-parse a file; returns the parsed object and
    raises if the roundtrip is not stable to full double precision."""
    raw = load_json_file(path)
    parsed, shape = _parse_known(raw)
    if shape == "channel":
        second = channel_from_json(json.loads(json.dumps(channel_to_json(parsed))))
        probes = [channel_to_json(parsed), channel_to_json(second)]
    elif shape == "operator":
        second = operator_from_json(json.loads(json.dumps(operator_to_json(parsed))))
        if not np.array_equal(parsed, second):
            raise SchemaError("$: operator roundtrip is not byte-stable")
        probes = [operator_to_json(parsed), operator_to_json(second)]
    else:
        probes = [raw, json.loads(json.dumps(raw))]
    if json.dumps(probes[0], sort_keys=True) != json.dumps(probes[1], sort_keys=True):
        raise SchemaError("$: serialization roundtrip is not stable")
    return parsed
