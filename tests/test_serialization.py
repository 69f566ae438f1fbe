import json

import numpy as np
import pytest

from families import random_density

from broadcastlab.channels import MeasurePrepareChannel
from broadcastlab.operators import DiscretePOVM
from broadcastlab.serialization import (
    SchemaError,
    channel_from_json,
    channel_to_json,
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
