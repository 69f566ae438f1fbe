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
