import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from families import random_density

from broadcastlab.channels import MeasurePrepareChannel
from broadcastlab.operators import DiscretePOVM
from broadcastlab.serialization import (
    SchemaError,
    channel_from_json,
    channel_to_json,
    dumps_report,
    io_roundtrip,
    operator_from_json,
    operator_to_json,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_operator_roundtrip_sigma_x():
    doc = operator_to_json(SX)
    assert doc == {"dim_row": 2, "dim_col": 2,
                   "entries": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}
    np.testing.assert_array_equal(operator_from_json(doc), SX)


def test_operator_roundtrip_full_precision():
    rng = np.random.default_rng(80)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    wire = json.loads(json.dumps(operator_to_json(m)))
    np.testing.assert_array_equal(operator_from_json(wire), m)


def test_operator_schema_errors_carry_paths():
    with pytest.raises(SchemaError, match=r"\$\.entries"):
        operator_from_json({"dim_row": 2, "dim_col": 2, "entries": [[0.0, 0.0]]})
    with pytest.raises(SchemaError, match=r"\$\.extra"):
        operator_from_json({"dim_row": 1, "dim_col": 1, "entries": [[1.0, 0.0]],
                            "extra": 1})
    with pytest.raises(SchemaError, match=r"\$\.dim_col"):
        operator_from_json({"dim_row": 1, "entries": [[1.0, 0.0]]})
    with pytest.raises(SchemaError, match=r"entries\[1\]"):
        operator_from_json({"dim_row": 1, "dim_col": 2,
                            "entries": [[1.0, 0.0], ["x", 0.0]]})


def test_channel_roundtrip_measure_prepare_action_agreement():
    rng = np.random.default_rng(81)
    projs = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    ch = MeasurePrepareChannel(DiscretePOVM(tuple(projs)), [random_density(2, rng)
                                                            for _ in projs])
    wire = json.loads(json.dumps(channel_to_json(ch)))
    back = channel_from_json(wire)
    for _ in range(10):
        rho = random_density(2, rng)
        np.testing.assert_allclose(back.apply_schrodinger(rho),
                                   ch.apply_schrodinger(rho), atol=1e-15)


def test_channel_schema_rejects_unknown_kind_and_mismatched_dims():
    with pytest.raises(SchemaError, match="kind"):
        channel_from_json({"kind": "mystery", "d_in": 2, "d_out": 2})
    doc = channel_to_json(MeasurePrepareChannel(
        DiscretePOVM((np.eye(2),)), [np.eye(2) / 2]))
    doc["d_out"] = 3
    with pytest.raises(SchemaError, match="d_in/d_out"):
        channel_from_json(doc)


def test_invalid_state_rejected_naming_invariant(tmp_path):
    bad = {"states": [operator_to_json(np.diag([1.0, 0.5]))]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    from broadcastlab.cli import main
    code = main(["check-states", "--input", str(path)])
    assert code == 2


def test_io_roundtrip_operator_file(tmp_path):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(operator_to_json(SX)))
    got = io_roundtrip(str(path))
    np.testing.assert_array_equal(got, SX)


def test_io_roundtrip_channel_file(tmp_path):
    ch = MeasurePrepareChannel(DiscretePOVM((np.eye(2),)), [np.eye(2) / 2])
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(channel_to_json(ch)))
    got = io_roundtrip(str(path))
    np.testing.assert_allclose(got.apply_schrodinger(np.eye(2) / 2),
                               ch.apply_schrodinger(np.eye(2) / 2), atol=1e-15)


def test_io_roundtrip_rejects_malformed(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"weird": 1}))
    with pytest.raises(SchemaError):
        io_roundtrip(str(path))


def test_operator_to_json_matches_elementwise_floats():
    m = np.array([[-0.0, 5e-324 - 1e308j, 3], [1e308 + 0.5j, -7, -0.0 - 0.0j]], dtype=complex)
    expected = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    entries = operator_to_json(m)["entries"]
    assert json.dumps(entries) == json.dumps(expected)
    assert all(type(v) is float for pair in entries for v in pair)
    ints = operator_to_json(np.arange(6).reshape(2, 3))["entries"]
    assert json.dumps(ints) == json.dumps([[float(k), 0.0] for k in range(6)])


# Any value json.load can return: NaN and the infinities included, since the
# reader accepts those literals, and integers beyond the float range.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                   max_size=4),
    max_leaves=12,
)
_DIM = st.integers(0, 3) | _JSON
# documents shaped like an operator, so that most draws reach the entries
_OPERATOR_LIKE = st.fixed_dictionaries(
    {"dim_row": _DIM, "dim_col": _DIM,
     "entries": st.lists(st.lists(st.integers() | st.floats() | _JSON, min_size=2, max_size=2)
                         | _JSON, max_size=9) | _JSON},
    optional={"extra": _JSON},
)


@settings(max_examples=150, deadline=None)
@given(_JSON | _OPERATOR_LIKE)
@example({"dim_row": 1, "dim_col": 1, "entries": [[10 ** 400, 0]]})
@example({"dim_row": 1, "dim_col": 2, "entries": [[0.5, 0], [0, -(10 ** 400)]]})
@example({"dim_row": 1, "dim_col": 1, "entries": [[float("nan"), 0]]})
@example({"dim_row": True, "dim_col": True, "entries": [[1, 0]]})
def test_operator_from_json_returns_finite_matrix_or_schema_error(doc):
    try:
        m = operator_from_json(doc)
    except SchemaError:
        return
    assert m.shape == (doc["dim_row"], doc["dim_col"])
    assert np.all(np.isfinite(m))


def _assert_encodes_like_json(obj):
    """dumps_report gives json.dumps's bytes, or raises json's error with its message."""
    try:
        want = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            dumps_report(obj)
        assert str(got.value) == str(exc)
        return
    assert dumps_report(obj) == want


_NUMBER = st.floats() | st.integers() | st.booleans()
# lists of [re, im] pairs, the shape of operator entries; NaN, the infinities,
# ints and bools among the floats send a list to the general path
_PAIRS = (st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                            min_size=2, max_size=2), max_size=5)
          | st.lists(st.lists(_NUMBER, min_size=2, max_size=2), max_size=5)
          | st.lists(st.lists(_NUMBER, max_size=3), max_size=3))
_KEY = st.text(max_size=6) | st.integers() | st.floats() | st.booleans() | st.none()
_REPORT = st.recursive(
    st.none() | _NUMBER | st.text(max_size=6) | _PAIRS,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=5)
                   | st.dictionaries(_KEY, inner, max_size=3)),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(_REPORT)
def test_dumps_report_matches_json_dumps(report):
    _assert_encodes_like_json(report)


@pytest.mark.parametrize("report", [
    {"x": -0.0, "tiny": 5e-324, "big": 1e308, "neg": -1e308},
    {"np": np.float64(0.1), "np_pairs": [[np.float64(1 / 3), np.float64(-0.0)]]},
    {"entries": [[0.5, 1], [2.0, -0.25]]},
    {"entries": [[0.5, True], [False, -0.25]]},
    {"entries": [[0.5, None], [1.0, 2.0]]},
    {"entries": [(0.5, 1.5), [1.0, 2.0]], "t": (1, [2.0, 3.0])},
    {"\u00e9t\u00e9": ["\u03c8\u2080", "\ud83d\ude00", "tab\t"], "": {}, "e": [], "n": None},
    {1: "int key", 2.5: "float key", True: "bool key", None: "null key"},
    {"b": {"a": [{}, [], [[]], [[1.0, 2.0]]]}, "a": 0},
    [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0]]],
    "top-level string",
    7,
])
def test_dumps_report_explicit_cases(report):
    _assert_encodes_like_json(report)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
@pytest.mark.parametrize("where", ["value", "pair", "key"])
def test_dumps_report_rejects_non_finite_floats(bad, where):
    report = {"value": {"x": bad}, "pair": {"entries": [[0.5, 0.0], [0.25, bad]]},
              "key": {bad: 1}}[where]
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        dumps_report(report)
    _assert_encodes_like_json(report)


@pytest.mark.parametrize("report", [
    {"x": [np.int64(3)]}, {"x": {1, 2}}, {"x": 1j}, {"entries": [[0.5, np.int64(1)]]},
    {(1, 2): 0},
])
def test_dumps_report_rejects_what_json_cannot_hold(report):
    with pytest.raises(TypeError):
        dumps_report(report)
    _assert_encodes_like_json(report)
