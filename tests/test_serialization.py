import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from families import random_density, random_eb_channel, random_unitary

from broadcastlab.channels import (
    KrausChannel,
    MeasurePrepareChannel,
    SymmetricLift,
    choi_transform,
    symmetric_lift,
)
from broadcastlab.cli import main
from broadcastlab.operators import DiscretePOVM, as_density, op_norm
from broadcastlab.serialization import (
    SchemaError,
    channel_from_json,
    channel_to_json,
    dumps_report,
    io_roundtrip,
    operator_from_json,
    operator_to_json,
    operators_field,
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


def test_operator_lists_name_the_failing_element(tmp_path):
    good, bad = operator_to_json(np.eye(1)), {"dim_row": 1, "dim_col": 1, "entries": [["x", 0]]}
    with pytest.raises(SchemaError, match=r"^\$\.channel\.kraus_ops\[1\]\.entries\[0\]: "):
        channel_from_json({"kind": "kraus", "d_in": 1, "d_out": 1, "kraus_ops": [good, bad]},
                          "$.channel")
    for key in ("povm", "states"):
        doc = {"kind": "measure_prepare", "d_in": 1, "d_out": 1, "povm": [good], "states": [good]}
        doc[key] = [good, good, bad]
        with pytest.raises(SchemaError, match=rf"^\$\.{key}\[2\]\.entries\[0\]: "):
            channel_from_json(doc)
    with pytest.raises(SchemaError, match=r"^\$\.states: density operator has eigenvalue"):
        operators_field({"states": [good, operator_to_json(-np.eye(1))]}, "states", as_density)
    path = tmp_path / "states.json"
    path.write_text(json.dumps({"states": [good, bad]}))
    with pytest.raises(SchemaError, match=r"^\$\.states\[1\]\.entries\[0\]: "):
        io_roundtrip(str(path))


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


_EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310)


@st.composite
def _repeating_pairs(draw):
    """Pairs from a pool of a few magnitudes with both signs, signed zeros and
    subnormals, as Python or numpy floats: most values repeat, as in the
    entries of a projector."""
    magnitudes = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                               | st.floats(-1e-307, 1e-307), min_size=1, max_size=3))
    pool = st.sampled_from(sorted({*magnitudes, *(-x for x in magnitudes)}) + list(_EDGE_VALUES))
    value = pool | pool.map(np.float64)
    return draw(st.lists(st.lists(value, min_size=2, max_size=2), max_size=64))


@settings(max_examples=300, deadline=None)
@given(_repeating_pairs())
def test_dumps_report_matches_json_dumps_on_repeating_pairs(pairs):
    _assert_encodes_like_json({"entries": pairs, "nested": [{"entries": pairs}]})


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
    # pair lists whose values repeat, each formatted once
    {"entries": [[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, -0.0], [0.5, -0.0]]},
    {"entries": [[-0.0, 0.0], [0.0, -0.0]], "first": [[-0.0, 1.0], [1.0, 0.0]]},
    {"entries": [[0.1, -0.1], [-0.1, 0.1], [1e-310, -1e-310], [-1e-310, 1e-310]]},
    {"entries": [[1 / 3, 1 / 3] for _ in range(500)]},
    {"entries": [[0.5, np.float64(0.5)], [np.float64(-0.0), 0.0], [np.float64(0.1), -0.1]]},
    {"entries": [[0.5, 1.0], [1, 0.5]], "bools": [[1.0, 0.0], [True, False]]},
])
def test_dumps_report_explicit_cases(report):
    _assert_encodes_like_json(report)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
@pytest.mark.parametrize("where", ["value", "pair", "pair-twice", "key"])
def test_dumps_report_rejects_non_finite_floats(bad, where):
    report = {"value": {"x": bad}, "pair": {"entries": [[0.5, 0.0], [0.25, bad]]},
              "pair-twice": {"entries": [[bad, 0.5], [0.5, np.float64(bad)], [bad, bad]]},
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


_ENTRY = (st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e-307, 1e-307)
          | st.sampled_from(_EDGE_VALUES))


@st.composite
def _matrices(draw):
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    parts = [np.array(draw(st.lists(_ENTRY, min_size=shape[0] * shape[1],
                                    max_size=shape[0] * shape[1]))).reshape(shape)
             for _ in range(2)]
    m = np.empty(shape, dtype=complex)
    m.real, m.imag = parts  # keeps signed zeros that re + 1j * im would lose
    return m


@settings(max_examples=200, deadline=None)
@given(_matrices())
@example(np.array([[-0.0 - 0.0j, 5e-324 - 0.0j], [-5e-324 + 0.0j, 1e308 - 1e-310j]]))
def test_operator_json_roundtrip_is_bit_exact(m):
    back = operator_from_json(json.loads(dumps_report(operator_to_json(m))))
    assert back.shape == m.shape
    assert back.tobytes() == m.tobytes()


def _kraus_channel(d_in, d_out, n_ops, rng):
    """Kraus operators cut from the first d_in columns of a random unitary."""
    u = random_unitary(d_out * n_ops, rng)[:, :d_in]
    return KrausChannel([u[k * d_out:(k + 1) * d_out] for k in range(n_ops)])


def _channel_arrays(ch):
    if ch.kind == "kraus":
        return list(ch.kraus_ops)
    if ch.kind == "choi":
        return [ch.matrix]
    return [*ch.povm.effects, *ch.states]


@pytest.mark.parametrize("build", [
    lambda rng: _kraus_channel(2, 3, 3, rng),
    lambda rng: choi_transform(_kraus_channel(3, 2, 2, rng)),
    lambda rng: random_eb_channel(3, rng, "generic"),
    lambda rng: random_eb_channel(4, rng, "pinching"),
    lambda rng: symmetric_lift(random_eb_channel(3, rng, "generic")),
], ids=["kraus", "choi", "measure-prepare", "pinching", "symmetric-lift"])
def test_channel_json_roundtrip_through_dumps_report(build):
    ch = build(np.random.default_rng(90))
    back = channel_from_json(json.loads(dumps_report(channel_to_json(ch))))
    assert type(back) is type(ch)
    assert (back.d_in, back.d_out) == (ch.d_in, ch.d_out)
    if ch.kind not in ("kraus", "choi"):
        assert back.povm.labels == ch.povm.labels
    want, got = _channel_arrays(ch), _channel_arrays(back)
    assert len(got) == len(want)
    for a, b in zip(want, got):
        np.testing.assert_array_equal(b, a)


def test_symmetric_lift_json_is_its_base():
    base = random_eb_channel(3, np.random.default_rng(91), "pinching")
    doc = channel_to_json(symmetric_lift(base))
    assert doc == {"kind": "symmetric_lift", "d_in": 3, "d_out": 9,
                   "base": channel_to_json(base)}
    back = channel_from_json(json.loads(dumps_report(doc)))
    assert isinstance(back, SymmetricLift) and back.base.kind == "measure_prepare"
    for got, want in zip(back.base.states, base.states):
        assert got.tobytes() == want.tobytes()


def test_symmetric_lift_reads_a_base_near_the_trace_tolerance():
    """The base state reads alone; so does the lift holding it, whose state's
    trace defect is twice the base's and beyond the base's tolerance."""
    base = {"kind": "measure_prepare", "d_in": 2, "d_out": 2,
            "povm": [operator_to_json(np.eye(2))],
            "states": [operator_to_json(np.diag([0.5, 0.5 + 0.8e-10]))]}
    channel_from_json(base)
    lift = channel_from_json({"kind": "symmetric_lift", "d_in": 2, "d_out": 4, "base": base})
    assert isinstance(lift, SymmetricLift)
    assert np.trace(lift.states[0]).real == pytest.approx(1.0 + 1.6e-10, abs=1e-20)


def test_symmetric_lift_reader_does_not_recurse_into_its_base():
    doc = channel_to_json(MeasurePrepareChannel(DiscretePOVM((np.eye(2),)), [np.eye(2) / 2]))
    for _ in range(10_000):
        doc = {"kind": "symmetric_lift", "d_in": 2, "d_out": 4, "base": doc}
    with pytest.raises(SchemaError, match=r"^\$\.base\.kind: expected 'measure_prepare', "
                                          r"got 'symmetric_lift'$"):
        channel_from_json(doc)


def _valid_channel_docs():
    pinch = MeasurePrepareChannel(DiscretePOVM((np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))),
                                  [np.eye(2) / 2, np.diag([1.0, 0.0])])
    kraus = KrausChannel([np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]])])
    one = MeasurePrepareChannel(DiscretePOVM((np.eye(1),)), [np.eye(1)])
    return [channel_to_json(ch) for ch in (kraus, choi_transform(kraus), pinch,
                                           symmetric_lift(pinch), one, symmetric_lift(one))]


_VALID_CHANNELS = _valid_channel_docs()
_KINDS = ("kraus", "choi", "measure_prepare", "symmetric_lift")
_NEAR_VALUE = (st.booleans() | st.integers(-1, 5) | st.sampled_from(_KINDS)
               | st.lists(st.sampled_from([operator_to_json(np.eye(1)), operator_to_json(SX)]),
                          max_size=2) | _JSON)


@st.composite
def _near_miss_channels(draw):
    """A valid channel document of one of the four kinds with up to three edits:
    a field (of the document or of a base it holds) replaced by a value of the
    wrong kind or type, a field deleted or added, or the document lifted again."""
    doc = json.loads(json.dumps(draw(st.sampled_from(_VALID_CHANNELS))))
    for _ in range(draw(st.integers(0, 3))):
        target = doc
        while isinstance(target.get("base"), dict) and draw(st.booleans()):
            target = target["base"]
        key = draw(st.sampled_from(sorted(target) + ["extra"]))
        edit = draw(st.sampled_from(["replace", "delete", "lift"]))
        if edit == "replace":
            target[key] = draw(_NEAR_VALUE)
        elif edit == "delete":
            target.pop(key, None)
        else:
            doc = {"kind": "symmetric_lift", "d_in": doc.get("d_in"),
                   "d_out": draw(st.sampled_from([doc.get("d_out"), 4])), "base": doc}
    return doc


def _mostly(valid, near):
    """Draws from `valid` three times in four, else from `near`."""
    return st.integers(0, 3).flatmap(lambda k: near if k == 0 else valid)


@settings(max_examples=200, deadline=None)
@given(_mostly(_near_miss_channels(), _JSON),
       _mostly(st.sampled_from([_VALID_CHANNELS[2]["povm"], [operator_to_json(np.eye(4) / 4)]]),
               _NEAR_VALUE),
       _mostly(st.floats(), _JSON))
@example({"kind": [1], "d_in": 2, "d_out": 2}, [], 0.1)
@example(_VALID_CHANNELS[3], _VALID_CHANNELS[2]["povm"], 0.1)
@example(_VALID_CHANNELS[5], [operator_to_json(np.eye(1))], 0.5)
def test_channel_readers_end_in_a_documented_exit_code(channel, effects, epsilon):
    with tempfile.TemporaryDirectory() as tmp:
        for subcommand, doc in (("fixpoints", {"channel": channel}),
                                ("approx-check", {"effects": effects, "channel": channel,
                                                  "epsilon": epsilon}),
                                ("fixpoints", channel)):
            path = os.path.join(tmp, "doc.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            code = main([subcommand, "--input", path, "--output", os.path.join(tmp, "r.json")])
            assert code in (0, 2, 3, 4)


def _ops(*mats):
    return [operator_to_json(m) for m in mats]


_K0, _K1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
_PLUS = np.full((2, 2), 0.5)
_VALID_INPUTS = {
    "check-states": [{"states": _ops(_K0, np.eye(2) / 2)}, {"states": _ops(_K0, _PLUS)},
                     {"states": _ops(np.eye(1))}, {"states": _ops(np.eye(3) / 3)}],
    "check-meas": [{"effects": _ops(_K0), "picture": "heisenberg"},
                   {"effects": _ops(_K0, _PLUS), "picture": "schrodinger"},
                   {"effects": _ops(np.eye(1))}],
    "pvm-embed": [{"labels": ["a", "b"], "projections": _ops(_K0, _K1), "subsets": [["a"]]},
                  {"labels": [0, 1, 2], "projections": _ops(*map(np.diag, np.eye(3))),
                   "subsets": [[0, 1], [1, 2]]},
                  {"labels": [7], "projections": _ops(np.eye(1)), "subsets": [[7], []]}],
}


@st.composite
def _near_miss_inputs(draw, subcommand):
    """A valid input document of `subcommand` with up to three edits: a field,
    or an item of a list field, replaced by a value of the wrong kind or type,
    deleted, or added."""
    doc = json.loads(json.dumps(draw(st.sampled_from(_VALID_INPUTS[subcommand]))))
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(doc) + ["extra"]))
        edit = draw(st.sampled_from(["replace", "delete", "item"]))
        if edit == "replace":
            doc[key] = draw(_NEAR_VALUE | st.just(_VALID_CHANNELS[2]["povm"]))
        elif edit == "delete":
            doc.pop(key, None)
        elif isinstance(doc.get(key), list) and doc[key]:
            items = doc[key]
            k = draw(st.integers(0, len(items) - 1))
            items[k] = draw(_NEAR_VALUE | _OPERATOR_LIKE | st.sampled_from(items))
    return doc


def _exit_code(subcommand, doc, *extra):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return main([subcommand, "--input", path, "--output", os.path.join(tmp, "r.json"),
                     *extra])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_VALID_INPUTS)).flatmap(
    lambda sub: st.tuples(st.just(sub), _mostly(_near_miss_inputs(sub), _JSON))))
@example(("check-states", {"states": [operator_to_json(np.eye(2) / 2)] * 3}))
@example(("check-meas", {"effects": _ops(_K0), "picture": ["heisenberg"]}))
@example(("pvm-embed", {"labels": [1, 1.0], "projections": _ops(_K0, _K1), "subsets": [[1]]}))
def test_operator_readers_end_in_a_documented_exit_code(case):
    """Arbitrary JSON and near-miss documents for the three subcommands that
    read operator lists: every run ends in a verdict or a documented error."""
    subcommand, doc = case
    assert _exit_code(subcommand, doc, *(["--budget", "20"] if subcommand == "check-meas"
                                         else [])) in (0, 2, 3, 4)


def _pvm_near_miss(defect, eta):
    """A qubit PVM {p0, p1} in a rotated basis, moved by eta off being
    idempotent, orthogonal or complete; with the exact SVD-form verdict of
    the three checks of `pvm_embed` at tol = 1e-10."""
    u = random_unitary(2, np.random.default_rng(17))
    p0, p1 = u @ _K0 @ u.conj().T, u @ _K1 @ u.conj().T
    if defect == "idempotent":    # (1 - eta) p0 and p1 + eta p0: each eta (1 - eta) off
        p0, p1 = (1 - eta) * p0, p1 + eta * p0
    elif defect == "orthogonal":  # p1 turned by eta towards p0
        c, s = np.cos(eta), np.sin(eta)
        v = u @ np.array([s, c])
        p1 = np.outer(v, v.conj())
    else:                         # p1 shrunk by eta: the sum misses eta p1
        p1 = (1 - eta) * p1
    p0, p1 = 0.5 * (p0 + p0.conj().T), 0.5 * (p1 + p1.conj().T)
    ok = (max(op_norm(p @ p - p) for p in (p0, p1)) <= 1e-10
          and op_norm(p0 @ p1) <= 1e-10 and op_norm(p0 + p1 - np.eye(2)) <= 1e-10)
    return {"labels": [0, 1], "projections": _ops(p0, p1), "subsets": [[0]]}, ok


@pytest.mark.parametrize("defect", ["idempotent", "orthogonal", "complete"])
@pytest.mark.parametrize("factor", [0.5, 0.9, 0.999, 1.001, 1.1, 1.3, 2.0])
def test_pvm_embed_near_misses_follow_the_svd_verdict(defect, factor):
    """Defects from half to twice the tolerance: below tol / sqrt(2) and above
    tol * sqrt(2) the Frobenius bounds decide, between them the SVD does; the
    input is refused (exit 2) exactly when the SVD form refuses it. An
    accepted input can still fail the embedding's own 1e-12 fixed-point gate
    (exit 4)."""
    doc, ok = _pvm_near_miss(defect, factor * 1e-10)
    if factor in (0.5, 2.0):
        assert ok == (factor < 1)
    assert _exit_code("pvm-embed", doc) in ((0, 4) if ok else (2,))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["idempotent", "orthogonal", "complete"]), st.floats(0.0, 3e-10))
def test_pvm_embed_near_miss_fuzz_follows_the_svd_verdict(defect, eta):
    doc, ok = _pvm_near_miss(defect, eta)
    assert _exit_code("pvm-embed", doc) in ((0, 4) if ok else (2,))
