import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "report_drift", Path(__file__).resolve().parent.parent / "tools" / "report_drift.py")
report_drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_drift)

_REPORT = {"result": {"moduli": [0.5, 0.25], "mass": {"10": 0.1}, "label": "x", "count": 3},
           "config": {"seed": 5}}


def _trees(tmp_path, edit):
    """Two trees holding reports/r.json: `_REPORT`, and `_REPORT` after `edit`."""
    trees = []
    for side, doc in (("a", _REPORT), ("b", edit(json.loads(json.dumps(_REPORT))))):
        if doc is not None:
            (tmp_path / side / "reports").mkdir(parents=True)
            (tmp_path / side / "reports" / "r.json").write_text(json.dumps(doc))
        else:
            (tmp_path / side).mkdir()
        trees.append(str(tmp_path / side))
    return trees


def _moved(doc):
    doc["result"]["moduli"][1] = 0.25 * (1 + 2 ** -52)
    return doc


def test_identical_trees_pass(tmp_path, capsys):
    assert report_drift.main(_trees(tmp_path, lambda doc: doc)) == 0
    assert "1 of 1 files byte-identical" in capsys.readouterr().out


@pytest.mark.parametrize("rtol, code", [(0.0, 1), (1e-16, 1), (1e-15, 0)])
def test_float_drift_is_measured_against_rtol(tmp_path, capsys, rtol, code):
    assert report_drift.main(_trees(tmp_path, _moved) + ["--rtol", repr(rtol)]) == code
    out = capsys.readouterr().out
    assert "$.result.moduli[]  abs 5.551e-17  rel 2.220e-16" in out
    assert "mass" not in out


@pytest.mark.parametrize("edit", [
    lambda doc: doc["result"].update(label="y") or doc,
    lambda doc: doc["result"].update(count=3.0) or doc,
    lambda doc: doc["result"]["moduli"].append(0.1) or doc,
    lambda doc: doc["config"].pop("seed") and doc,
    lambda doc: None,
])
def test_any_other_difference_fails_at_every_rtol(tmp_path, edit):
    assert report_drift.main(_trees(tmp_path, edit) + ["--rtol", "1.0"]) == 1


def _rounding_level_trees(tmp_path):
    """Two trees whose only difference is a rounding-level float, 1e-15 against
    1.5e-15: absolute deviation 5e-16, relative deviation 1/3."""
    trees = []
    for side, value in (("a", 1e-15), ("b", 1.5e-15)):
        doc = json.loads(json.dumps(_REPORT))
        doc["result"]["mass"]["10"] = value
        (tmp_path / side / "reports").mkdir(parents=True)
        (tmp_path / side / "reports" / "r.json").write_text(json.dumps(doc))
        trees.append(str(tmp_path / side))
    return trees


@pytest.mark.parametrize("bounds, code", [
    ([], 1),                                     # the default: byte-identical only
    (["--atol", "1e-15"], 0),                    # within atol only
    (["--rtol", "0.5"], 0),                      # within rtol only
    (["--atol", "1e-16", "--rtol", "0.1"], 1),   # beyond both
])
def test_float_drift_passes_within_either_bound(tmp_path, capsys, bounds, code):
    assert report_drift.main(_rounding_level_trees(tmp_path) + bounds) == code
    out = capsys.readouterr().out
    assert "$.result.mass.10  abs 5.000e-16  rel 3.333e-01" in out
    assert ("beyond bounds" in out) == (code == 1)


def test_atol_does_not_excuse_a_large_move(tmp_path):
    """A value of order one that moves by 5.6e-17 passes atol 1e-15; one that
    moves by 5e-4 fails it together with an rtol below its relative deviation."""
    (tmp_path / "ulp").mkdir()
    assert report_drift.main(_trees(tmp_path / "ulp", _moved) + ["--atol", "1e-15"]) == 0
    (tmp_path / "big").mkdir()
    trees = _trees(tmp_path / "big",
                   lambda doc: doc["result"]["moduli"].__setitem__(0, 0.5005) or doc)
    assert report_drift.main(trees + ["--atol", "1e-15", "--rtol", "1e-4"]) == 1


@pytest.mark.parametrize("a, b", [('{"x": 0.0}', '{"x": -0.0}'), ('{"x": 1.0}', '{"x":1.0}')])
def test_files_equal_as_values_but_not_as_bytes_fail(tmp_path, capsys, a, b):
    for side, text in (("a", a), ("b", b)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "r.json").write_text(text)
    assert report_drift.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "  differs  bytes only" in capsys.readouterr().out
