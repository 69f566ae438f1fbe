import json

import numpy as np
import pytest

from broadcastlab.cli import main
from broadcastlab.serialization import operator_to_json


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def commuting_states_file(tmp_path):
    return _write(tmp_path, "commuting.json", {
        "states": [operator_to_json(np.diag([0.5, 0.5])),
                   operator_to_json(np.diag([1 / 3, 2 / 3]))]})


@pytest.fixture
def noncommuting_states_file(tmp_path):
    plus = np.array([[0.5, 0.5], [0.5, 0.5]])
    return _write(tmp_path, "noncommuting.json", {
        "states": [operator_to_json(np.diag([1.0, 0.0])), operator_to_json(plus)]})


def test_check_states_non_confirming(commuting_states_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["check-states", "--input", commuting_states_file,
                 "--output", str(out), "--seed", "3"]) == 0
    report = json.loads(out.read_text())
    assert report["result"]["verdict"] == "non_confirming"
    assert report["result"]["witness"]["kind"] == "measure_prepare"
    assert report["seed"] == 3
    assert report["config"]["tol"] == 1e-9  # default materialized
    assert all(r <= 1e-9 for r in report["result"]["residuals"])


def test_check_states_confirming_reports_commutator(noncommuting_states_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["check-states", "--input", noncommuting_states_file,
                 "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["result"]["verdict"] == "confirming"
    assert report["result"]["commutator_norm"] == pytest.approx(0.5, abs=1e-12)
    assert report["result"]["witness"] is None


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check-states", "--input", str(path)]) == 2
    assert not (tmp_path / "report.json").exists()


def test_missing_file_exits_2(tmp_path):
    assert main(["check-states", "--input", str(tmp_path / "nope.json")]) == 2


def test_unknown_field_rejected(tmp_path):
    path = _write(tmp_path, "extra.json", {
        "states": [operator_to_json(np.eye(2) / 2)], "surprise": True})
    assert main(["check-states", "--input", str(path)]) == 2


def test_dimension_cap_exits_3(tmp_path, monkeypatch):
    monkeypatch.setenv("BROADCASTLAB_CAP", "4")
    path = _write(tmp_path, "big.json", {
        "effects": [operator_to_json(np.eye(3))]})
    assert main(["check-meas", "--input", str(path)]) == 3


def test_check_meas_feasible(tmp_path):
    path = _write(tmp_path, "pvm.json", {
        "effects": [operator_to_json(np.diag([1.0, 0.0])),
                    operator_to_json(np.diag([0.0, 1.0]))]})
    out = tmp_path / "report.json"
    assert main(["check-meas", "--input", str(path), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["result"]["verdict"] == "feasible"
    assert report["result"]["witness"] is not None
    assert "residuals" in report["result"]


def test_check_meas_stalled_still_exits_0(tmp_path):
    plus = np.array([[0.5, 0.5], [0.5, 0.5]])
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    path = _write(tmp_path, "zx.json", {
        "effects": [operator_to_json(np.diag([1.0, 0.0])),
                    operator_to_json(np.diag([0.0, 1.0])),
                    operator_to_json(plus), operator_to_json(minus)]})
    out = tmp_path / "report.json"
    assert main(["check-meas", "--input", str(path), "--output", str(out),
                 "--budget", "3000"]) == 0
    report = json.loads(out.read_text())
    assert report["result"]["verdict"] == "infeasible_stalled"
    assert any("PPT exact" in n for n in report["result"]["notes"])


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_check_meas_nonpositive_budget_exits_2(tmp_path, budget):
    path = _write(tmp_path, "pvm.json", {
        "effects": [operator_to_json(np.diag([1.0, 0.0])),
                    operator_to_json(np.diag([0.0, 1.0]))]})
    assert main(["check-meas", "--input", path, "--budget", budget]) == 2


@pytest.mark.parametrize("doc", [
    7,
    {"labels": 5, "projections": [], "subsets": []},
    {"labels": ["x"], "projections": 5, "subsets": [["x"]]},
    {"labels": ["x"], "projections": [operator_to_json(np.eye(1))], "subsets": [1]},
    {"labels": [], "projections": [], "subsets": [["a"]]},
    {"labels": [], "projections": [], "subsets": [[]]},
])
def test_pvm_embed_malformed_document_exits_2(tmp_path, doc):
    assert main(["pvm-embed", "--input", _write(tmp_path, "embed.json", doc)]) == 2


_PINCH_2 = [operator_to_json(np.diag([1.0, 0.0])), operator_to_json(np.diag([0.0, 1.0]))]


@pytest.mark.parametrize("subcommand, doc", [
    ("check-states", {"states": 7}),
    ("check-meas", {"effects": 3}),
    ("fixpoints", {"channel": {"kind": "kraus", "d_in": 2, "d_out": 2, "kraus_ops": 5}}),
    ("fixpoints", {"channel": {"kind": "measure_prepare", "d_in": 2, "d_out": 2,
                               "povm": 5, "states": _PINCH_2}}),
    ("fixpoints", {"channel": {"kind": "measure_prepare", "d_in": 2, "d_out": 2,
                               "povm": _PINCH_2, "states": _PINCH_2, "labels": 5}}),
    ("fixpoints", {"channel": {"kind": "choi", "d_in": "2", "d_out": 2,
                               "matrix": operator_to_json(np.eye(4) / 2)}}),
    ("approx-check", {"effects": _PINCH_2, "epsilon": [1],
                      "channel": {"kind": "measure_prepare", "d_in": 2, "d_out": 2,
                                  "povm": _PINCH_2, "states": _PINCH_2}}),
    # JSON true as a size, and integers too large for a float
    ("check-states", {"states": [{"dim_row": True, "dim_col": True, "entries": [[1, 0]]}]}),
    ("fixpoints", {"channel": {"kind": "choi", "d_in": True, "d_out": True,
                               "matrix": operator_to_json(np.eye(1))}}),
    ("check-states", {"states": [{"dim_row": 1, "dim_col": 1, "entries": [[10 ** 400, 0]]}]}),
    ("approx-check", {"effects": _PINCH_2, "epsilon": 10 ** 400,
                      "channel": {"kind": "measure_prepare", "d_in": 2, "d_out": 2,
                                  "povm": _PINCH_2, "states": _PINCH_2}}),
    # a field of the other effects document is an unknown field
    ("check-meas", {"effects": _PINCH_2, "channel": "anything", "epsilon": 5}),
    ("approx-check", {"effects": _PINCH_2, "epsilon": 0.1, "picture": "heisenberg",
                      "channel": {"kind": "measure_prepare", "d_in": 2, "d_out": 2,
                                  "povm": _PINCH_2, "states": _PINCH_2}}),
])
def test_field_of_wrong_json_type_exits_2(tmp_path, subcommand, doc):
    assert main([subcommand, "--input", _write(tmp_path, "doc.json", doc)]) == 2


@pytest.mark.parametrize("subcommand", ["cv-q", "cv-shift"])
def test_cv_level_cap_exits_2(subcommand, capsys):
    assert main([subcommand, "--levels", "65"]) == 2
    assert "exceed the cap 64" in capsys.readouterr().err


def test_pvm_embed_subcommand(tmp_path):
    projs = [np.diag([1.0 if i == k else 0.0 for i in range(3)]) for k in range(3)]
    path = _write(tmp_path, "embed.json", {
        "labels": ["x", "y", "z"],
        "projections": [operator_to_json(p) for p in projs],
        "subsets": [["x", "y"], ["y", "z"]]})
    out = tmp_path / "report.json"
    assert main(["pvm-embed", "--input", str(path), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["result"]["residuals"][0] <= 1e-12
    assert report["result"]["index_sets"] == [[1, 3], [2, 3]]


def test_approx_check_subcommand(tmp_path):
    pinch = {
        "kind": "measure_prepare", "d_in": 2, "d_out": 2,
        "povm": [operator_to_json(np.diag([1.0, 0.0])),
                 operator_to_json(np.diag([0.0, 1.0]))],
        "states": [operator_to_json(np.diag([1.0, 0.0])),
                   operator_to_json(np.diag([0.0, 1.0]))],
    }
    plus = np.array([[0.5, 0.5], [0.5, 0.5]])
    path = _write(tmp_path, "approx.json", {
        "effects": [operator_to_json(plus)], "channel": pinch, "epsilon": 0.1})
    out = tmp_path / "report.json"
    assert main(["approx-check", "--input", str(path), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["result"]["verdict"] == "fail"
    assert report["result"]["residuals"][0] == pytest.approx(0.5, abs=1e-12)


def test_fixpoints_subcommand(tmp_path):
    pinch = {
        "kind": "measure_prepare", "d_in": 2, "d_out": 2,
        "povm": [operator_to_json(np.diag([1.0, 0.0])),
                 operator_to_json(np.diag([0.0, 1.0]))],
        "states": [operator_to_json(np.diag([1.0, 0.0])),
                   operator_to_json(np.diag([0.0, 1.0]))],
    }
    path = _write(tmp_path, "fix.json", {"channel": pinch})
    out = tmp_path / "report.json"
    assert main(["fixpoints", "--input", str(path), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["result"]["basis_dimension"] == 2
    assert len(report["result"]["atoms"]) == 2


def test_cv_shift_subcommand(tmp_path):
    out = tmp_path / "report.json"
    csv_path = tmp_path / "rows.csv"
    assert main(["cv-shift", "--levels", "16", "--output", str(out),
                 "--csv", str(csv_path)]) == 0
    report = json.loads(out.read_text())
    assert report["result"]["fixed_space_dimension"] == 0
    assert csv_path.read_text().startswith("parameter,residual")


def test_cv_position_subcommand(tmp_path):
    out = tmp_path / "report.json"
    assert main(["cv-position", "--levels", "12", "--bins", "3",
                 "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["result"]["sweep_rows"]) == 1
    assert report["result"]["sweep_rows"][0]["parameter"] == 3


def test_reports_are_deterministic(commuting_states_file, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["check-states", "--input", commuting_states_file, "--seed", "11"]
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    # byte-identical apart from the output path recorded in the config
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    r1["config"]["output"] = r2["config"]["output"] = None
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_report_embeds_effective_configuration(commuting_states_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["check-states", "--input", commuting_states_file,
                 "--output", str(out), "--tol", "1e-8"]) == 0
    report = json.loads(out.read_text())
    config = report["config"]
    for key in ("subcommand", "tol", "seed", "budget", "levels", "bins",
                "dimension_cap", "version"):
        assert key in config
    assert config["tol"] == 1e-8


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("subcommand", ["check-meas", "cv-q"])
def test_tol_not_finite_and_positive_exits_2(tmp_path, capsys, subcommand, tol):
    out = tmp_path / "report.json"
    argv = [subcommand, "--tol", tol, "--output", str(out), "--budget", "50"]
    if subcommand == "check-meas":
        argv += ["--input", _write(tmp_path, "pvm.json", {"effects": _PINCH_2})]
    else:
        argv += ["--levels", "4"]
    assert main(argv) == 2
    assert "--tol must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_memory_error_exits_3(tmp_path, capsys, monkeypatch):
    import broadcastlab.cli as cli

    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._RUNNERS, "check-meas", exhausted)
    path = _write(tmp_path, "pvm.json", {"effects": _PINCH_2})
    assert main(["check-meas", "--input", path]) == 3
    assert "resource limit" in capsys.readouterr().err


def test_memory_error_in_witness_extraction_exits_3(tmp_path, capsys, monkeypatch):
    import broadcastlab.contextuality as contextuality

    def exhausted(choi, tol=1e-12):
        raise MemoryError

    monkeypatch.setattr(contextuality, "choi_to_kraus", exhausted)
    path = _write(tmp_path, "pvm.json", {"effects": _PINCH_2})
    assert main(["check-meas", "--input", path, "--output", str(tmp_path / "r.json")]) == 3
    assert "resource limit" in capsys.readouterr().err


_ONE = operator_to_json(np.eye(1))


@pytest.mark.parametrize("subcommand, doc, where", [
    ("check-states", {"states": [{"dim_row": 1, "dim_col": 1, "entries": [[True, False]]}]},
     "$.states[0].entries[0]"),
    ("approx-check", {"effects": _PINCH_2, "epsilon": True,
                      "channel": {"kind": "measure_prepare", "d_in": 2, "d_out": 2,
                                  "povm": _PINCH_2, "states": _PINCH_2}}, "$.epsilon"),
    ("fixpoints", {"channel": {"kind": "kraus", "d_in": 1.0, "d_out": 1, "kraus_ops": [_ONE]}},
     "$.channel.d_in/d_out"),
    ("fixpoints", {"channel": {"kind": "kraus", "d_in": 1, "d_out": True, "kraus_ops": [_ONE]}},
     "$.channel.d_in/d_out"),
    ("approx-check", {"effects": [_ONE], "epsilon": 0.1,
                      "channel": {"kind": "measure_prepare", "d_in": 2, "d_out": True,
                                  "povm": [operator_to_json(np.eye(2))], "states": [_ONE]}},
     "$.channel.d_in/d_out"),
])
def test_booleans_and_floats_are_not_numbers_or_sizes(tmp_path, capsys, subcommand, doc, where):
    assert main([subcommand, "--input", _write(tmp_path, "doc.json", doc)]) == 2
    assert where in capsys.readouterr().err


def test_unencodable_report_exits_4_without_output(tmp_path, capsys, monkeypatch):
    import broadcastlab.cli as cli

    monkeypatch.setitem(cli._RUNNERS, "cv-position",
                        lambda args: {"residuals": [0.5, float("nan")]})
    out = tmp_path / "report.json"
    assert main(["cv-position", "--output", str(out)]) == 4
    assert "numerical failure: report cannot be encoded" in capsys.readouterr().err
    assert not out.exists()


def test_pvm_embed_report_independent_of_hash_seed(tmp_path):
    """String labels live in sets, whose order follows the per-process string
    hash; the report must not depend on it (three-label atoms and a five-label
    subset make the summation order visible in the last bits)."""
    import os
    import subprocess
    import sys

    import broadcastlab

    rng = np.random.default_rng(0)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    q, _ = np.linalg.qr(g)
    path = _write(tmp_path, "embed.json", {
        "labels": list("abcdefgh"),
        "projections": [operator_to_json(np.outer(q[:, i], q[:, i].conj()))
                        for i in range(8)],
        "subsets": [list("abcde"), list("defg")]})
    src = os.path.dirname(os.path.dirname(broadcastlab.__file__))
    reports = set()
    for hash_seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "broadcastlab.cli", "pvm-embed",
                               "--input", path], env=env, capture_output=True, check=True)
        reports.add(proc.stdout)
    assert len(reports) == 1


def test_cli_import_loads_no_scipy():
    """numpy is the only runtime dependency; scipy would double the start-up time."""
    import os
    import subprocess
    import sys

    import broadcastlab

    src = os.path.dirname(os.path.dirname(broadcastlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, broadcastlab.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_parser_reuse_keeps_default_configuration(tmp_path):
    pinch = {
        "kind": "measure_prepare", "d_in": 2, "d_out": 2,
        "povm": _PINCH_2,
        "states": [operator_to_json(np.diag([1.0, 0.0])),
                   operator_to_json(np.diag([0.0, 1.0]))],
    }
    fix_path = _write(tmp_path, "fix.json", {"channel": pinch})
    meas_path = _write(tmp_path, "pvm.json", {"effects": _PINCH_2})
    out = tmp_path / "report.json"

    def fixpoints_config():
        assert main(["fixpoints", "--input", fix_path, "--output", str(out)]) == 0
        return json.loads(out.read_text())["config"]

    fresh = fixpoints_config()
    assert main(["check-meas", "--input", meas_path, "--budget", "5", "--tol", "1e-3",
                 "--seed", "4", "--output", str(tmp_path / "meas.json")]) == 0
    again = fixpoints_config()
    assert again == fresh
    assert (again["budget"], again["seed"], again["tol"]) == (20000, 0, 1e-9)
