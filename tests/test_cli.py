import json
import logging

import numpy as np
import pytest

from families import random_commuting_states, rotated_mub_effects

from broadcastlab.channels import SymmetricLift, choi_transform
from broadcastlab.cli import main
from broadcastlab.operators import partial_trace, trace_norm
from broadcastlab.serialization import channel_from_json, operator_to_json


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


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
def test_check_meas_commuting_set_decided_by_pinching(tmp_path, picture):
    """A commuting set ends feasible before any Dykstra cycle, with the
    pinching onto a common eigenbasis as its measure-and-prepare witness."""
    u = np.linalg.qr(np.arange(16.0).reshape(4, 4) + np.eye(4))[0]
    effects = [u @ np.diag(ev) @ u.T for ev in ((0.75, 0.5, 0.25, 0.0), (0.1, 0.1, 0.8, 0.8))]
    path = _write(tmp_path, "commuting.json", {
        "effects": [operator_to_json(e) for e in effects], "picture": picture})
    out = tmp_path / "report.json"
    assert main(["check-meas", "--input", path, "--output", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["verdict"] == "feasible"
    assert result["cycles"] == 0
    assert result["witness"]["kind"] == "measure_prepare"
    assert result["residuals"] == [result["verification"]["max_residual"]]
    assert result["verification"]["max_residual"] <= 1e-7
    assert sorted(result["final_residuals"]) == ["affine", "ppt", "psd"]
    assert len(result["notes"]) == 2 and "pinching" in result["notes"][1]
    witness = channel_from_json(result["witness"])
    for e in effects:
        assert np.abs(witness.apply_heisenberg(e) - e).max() <= 1e-7


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
_PINCH_CHANNEL = {"kind": "measure_prepare", "d_in": 2, "d_out": 2,
                  "povm": _PINCH_2, "states": _PINCH_2}


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


@pytest.mark.parametrize("subcommand", ["cv-q", "cv-shift", "cv-position"])
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
@pytest.mark.parametrize("subcommand", ["check-meas", "fixpoints"])
def test_tol_not_finite_and_positive_exits_2(tmp_path, capsys, subcommand, tol):
    out = tmp_path / "report.json"
    argv = [subcommand, "--tol", tol, "--output", str(out)]
    if subcommand == "check-meas":
        argv += ["--input", _write(tmp_path, "pvm.json", {"effects": _PINCH_2}), "--budget", "50"]
    else:
        argv += ["--input", _write(tmp_path, "fix.json", {"channel": _PINCH_CHANNEL})]
    assert main(argv) == 2
    assert "--tol must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["approx-check", "cv-q", "cv-shift", "cv-position"])
def test_tol_refused_where_no_tolerance_is_read(tmp_path, capsys, subcommand):
    out = tmp_path / "report.json"
    argv = [subcommand, "--tol", "1e-3", "--output", str(out)]
    if subcommand == "approx-check":
        argv += ["--input", _write(tmp_path, "approx.json", {
            "effects": _PINCH_2, "epsilon": 0.1, "channel": _PINCH_CHANNEL})]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert not out.exists()


# the options each subcommand reads; the others are refused and recorded as null
_READ = {
    "fixpoints": {"input", "output", "tol", "seed"},
    "check-states": {"input", "output", "tol", "seed"},
    "check-meas": {"input", "output", "tol", "budget"},
    "pvm-embed": {"input", "output", "tol"},
    "approx-check": {"input", "output"},
    "cv-q": {"output", "levels", "seed", "csv"},
    "cv-shift": {"output", "levels", "seed", "csv"},
    "cv-position": {"output", "levels", "bins", "seed", "csv"},
}
# (subcommand, option) for each of seed, budget, levels, bins, csv it does not read
_UNREAD = [(sub, opt) for sub, read in _READ.items()
           for opt in ("seed", "budget", "levels", "bins", "csv") if opt not in read]
# a small valid input document for each subcommand that takes --input
_MINIMAL_INPUTS = {
    "fixpoints": {"channel": _PINCH_CHANNEL},
    "check-states": {"states": [operator_to_json(np.diag([0.5, 0.5]))]},
    "check-meas": {"effects": _PINCH_2},
    "pvm-embed": {"labels": [0, 1], "subsets": [[0]], "projections": _PINCH_2},
    "approx-check": {"effects": _PINCH_2, "epsilon": 0.1, "channel": _PINCH_CHANNEL},
}


def test_settable_values_are_the_options_each_subcommand_reads():
    from broadcastlab.cli import SUBCOMMANDS

    assert {sub: set(options) for sub, (_, options) in SUBCOMMANDS.items()} == _READ
    assert sum(map(len, _READ.values())) == 30
    assert len(_UNREAD) == 27


@pytest.mark.parametrize("subcommand, option", _UNREAD)
def test_option_a_subcommand_does_not_read_is_refused(tmp_path, capsys, subcommand, option):
    out, rows = tmp_path / "report.json", tmp_path / "rows.csv"
    value = {"seed": "4", "budget": "5", "levels": "4", "bins": "2", "csv": str(rows)}[option]
    argv = [subcommand, f"--{option}", value, "--output", str(out)]
    if subcommand in _MINIMAL_INPUTS:
        argv += ["--input", _write(tmp_path, "doc.json", _MINIMAL_INPUTS[subcommand])]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{option}" in capsys.readouterr().err
    assert not out.exists() and not rows.exists()


def test_config_tol_is_null_where_no_tolerance_is_read(tmp_path):
    """Every config field of an option the subcommand does not read is null,
    every other one holds the value in effect, and the top-level seed is the
    config's."""
    for subcommand, read in _READ.items():
        out = tmp_path / f"{subcommand}.json"
        argv = [subcommand, "--output", str(out)]
        if subcommand in _MINIMAL_INPUTS:
            argv += ["--input", _write(tmp_path, "doc.json", _MINIMAL_INPUTS[subcommand])]
        if "levels" in read:
            argv += ["--levels", "4"]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        config = report["config"]
        for option in ("input", "output", "tol", "seed", "budget", "levels", "bins"):
            assert (config[option] is None) == (option not in read), (subcommand, option)
        assert report["seed"] == config["seed"]
        assert "csv" not in config


def test_memory_error_exits_3(tmp_path, capsys, monkeypatch):
    import broadcastlab.cli as cli

    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli.SUBCOMMANDS, "check-meas",
                        (exhausted, cli.SUBCOMMANDS["check-meas"][1]))
    path = _write(tmp_path, "pvm.json", {"effects": _PINCH_2})
    assert main(["check-meas", "--input", path]) == 3
    assert "resource limit" in capsys.readouterr().err


def test_memory_error_in_witness_extraction_exits_3(tmp_path, capsys, monkeypatch):
    """A MemoryError raised while `check-meas` builds the pinching witness of a
    commuting set is a resource limit, not a fall-through to the loop."""
    import broadcastlab.contextuality as contextuality

    def exhausted(family, tol=1e-9, seed=0):
        raise MemoryError

    monkeypatch.setattr(contextuality, "simultaneous_diagonalize", exhausted)
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

    monkeypatch.setitem(cli.SUBCOMMANDS, "cv-position",
                        (lambda args: {"residuals": [0.5, float("nan")]},
                         cli.SUBCOMMANDS["cv-position"][1]))
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
                 "--output", str(tmp_path / "meas.json")]) == 0
    again = fixpoints_config()
    assert again == fresh
    assert (again["budget"], again["seed"], again["tol"]) == (None, 0, 1e-9)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_check_states_broadcaster_rebuilds_as_lift_of_witness(tmp_path, d):
    states = random_commuting_states(d, 4, np.random.default_rng(130 + d))
    path = _write(tmp_path, "states.json", {"states": [operator_to_json(s) for s in states]})
    out = tmp_path / "report.json"
    assert main(["check-states", "--input", path, "--output", str(out), "--seed", "5"]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["verdict"] == "non_confirming"
    broadcaster = channel_from_json(result["broadcaster"], "$.result.broadcaster")
    witness = channel_from_json(result["witness"], "$.result.witness")
    assert isinstance(broadcaster, SymmetricLift)
    assert (broadcaster.d_in, broadcaster.d_out) == (d, d * d)
    assert len(broadcaster.states) == len(witness.states)
    for pair, s in zip(broadcaster.states, witness.states):
        assert pair.tobytes() == np.kron(s, s).tobytes()
    for rho in states:
        out_state = broadcaster.apply_schrodinger(rho)
        for side in (1, 2):
            assert trace_norm(partial_trace(out_state, (d, d), side=side) - rho) <= 1e-10


def _lift(base, **fields):
    return {"kind": "symmetric_lift", "d_in": 2, "d_out": 4, "base": base, **fields}


@pytest.mark.parametrize("channel, where", [
    (_lift({"kind": "kraus", "d_in": 2, "d_out": 2, "kraus_ops": [operator_to_json(np.eye(2))]}),
     "$.channel.base.kind"),
    (_lift({"kind": "measure_prepare", "d_in": 2, "d_out": 1,
            "povm": [operator_to_json(np.eye(2))], "states": [_ONE]}),
     "$.channel.base: symmetric lift needs a square"),
    (_lift(_lift(_PINCH_CHANNEL)), "$.channel.base.kind"),
    (_lift(_PINCH_CHANNEL, d_out=2), "$.channel.d_in/d_out"),
    (_lift({**_PINCH_CHANNEL, "d_out": 3}), "$.channel.base.d_in/d_out"),
    ({"kind": "symmetric_lift", "d_in": 2, "d_out": 4}, "$.channel.base: missing"),
    (_lift(_PINCH_CHANNEL, extra=1), "$.channel.extra: unknown field"),
    (_lift({**_PINCH_CHANNEL, "extra": 1}), "$.channel.base.extra: unknown field"),
    (_lift([_PINCH_CHANNEL]), "$.channel.base: expected an object"),
], ids=["kraus-base", "non-square-base", "lift-base", "wrong-d_out", "wrong-base-d_out",
        "missing-base", "extra-field", "extra-base-field", "list-base"])
def test_malformed_symmetric_lift_exits_2_naming_its_path(tmp_path, capsys, channel, where):
    assert main(["fixpoints", "--input", _write(tmp_path, "doc.json", {"channel": channel})]) == 2
    assert where in capsys.readouterr().err


def test_deeply_nested_lift_exits_2(tmp_path, capsys):
    depth = 10_000
    head = '{"kind": "symmetric_lift", "d_in": 2, "d_out": 4, "base": '
    path = tmp_path / "deep.json"
    path.write_text('{"channel": ' + head * depth + json.dumps(_PINCH_CHANNEL)
                    + "}" * (depth + 1))
    assert main(["fixpoints", "--input", str(path)]) == 2
    assert "too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["fixpoints", "approx-check"])
def test_symmetric_lift_channel_exits_2(tmp_path, capsys, subcommand):
    doc = {"channel": _lift(_PINCH_CHANNEL)}
    if subcommand == "approx-check":
        doc.update(effects=_PINCH_2, epsilon=0.1)
    assert main([subcommand, "--input", _write(tmp_path, "doc.json", doc)]) == 2
    assert "error: invalid input" in capsys.readouterr().err


def test_readme_command_lines_parse():
    """Every `broadcastlab ...` line of the README's command block parses, and
    together they cover every subcommand."""
    from pathlib import Path

    from broadcastlab.cli import SUBCOMMANDS, _build_parser

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split()[1:] for line in block.splitlines() if line.startswith("broadcastlab ")]
    for argv in lines:
        assert _build_parser().parse_args(argv).subcommand == argv[0]
    assert {argv[0] for argv in lines} == set(SUBCOMMANDS)


def test_reports_do_not_depend_on_the_log_level(tmp_path, caplog):
    """Every subcommand writes the same bytes with the `broadcastlab` loggers at
    DEBUG as at the default level: the checks decide the same way at every
    level, and only the log records differ."""
    rng = np.random.default_rng(31)
    skew = 1e-16 * np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    states = [operator_to_json(s + skew) for s in random_commuting_states(3, 3, rng)]
    noisy_pvm = [operator_to_json(np.diag([1.0 + 5e-4, 0.0])),
                 operator_to_json(np.diag([0.0, 1.0]))]
    runs = [
        ("check-states", {"states": states}),
        ("check-meas", {"effects": [operator_to_json(e) for e in rotated_mub_effects(2, rng)]},
         "--budget", "200"),
        ("check-meas", {"effects": [operator_to_json(np.diag([0.9, 0.2])),
                                    operator_to_json(np.diag([0.3, 0.6]))]}),
        ("pvm-embed", {"labels": [0, 1], "projections": noisy_pvm, "subsets": [[0]]},
         "--tol", "0.001"),
        ("fixpoints", {"channel": _PINCH_CHANNEL}),
        ("approx-check", {"effects": _PINCH_2, "epsilon": 0.1, "channel": _PINCH_CHANNEL}),
        ("cv-shift", None, "--levels", "8"),
    ]

    def reports(level):
        out = []
        with caplog.at_level(level, logger="broadcastlab"):
            for k, (subcommand, doc, *extra) in enumerate(runs):
                path = tmp_path / f"{k}-report.json"  # the config records this path
                given = [] if doc is None else ["--input", _write(tmp_path, f"{k}.json", doc)]
                assert main([subcommand, *given, "--output", str(path), *extra]) == 0
                out.append(path.read_bytes())
        return out

    assert reports(logging.WARNING) == reports(logging.DEBUG)
    messages = [r.getMessage() for r in caplog.records]
    assert any("absorbed residual at most" in m for m in messages)
    assert any(m.startswith("dykstra cycle 100") for m in messages)


def test_each_input_operator_is_spectrally_checked_once(tmp_path, monkeypatch):
    """One `check-states`, one `check-meas` and one `approx-check` call each
    hand every input operator to `np.linalg.eigvalsh` exactly once, as a matrix
    or as a slice of a stack: the reader parses, and only the decider checks."""
    states = [np.diag([0.7, 0.3]), np.diag([0.4, 0.6])]
    pvm = [np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 1.0])]
    effects = [np.diag([0.25, 0.75]), np.diag([0.9, 0.1])]
    runs = [("check-states", {"states": list(map(operator_to_json, states))}, states),
            ("check-meas", {"effects": list(map(operator_to_json, pvm))}, pvm),
            ("approx-check", {"effects": list(map(operator_to_json, effects)),
                              "channel": _PINCH_CHANNEL, "epsilon": 0.1}, effects)]
    eigvalsh = np.linalg.eigvalsh
    for subcommand, doc, operators in runs:
        path = _write(tmp_path, f"{subcommand}.json", doc)
        seen = []

        def recording_eigvalsh(a, *args, **kwargs):
            seen.append(np.array(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        assert main([subcommand, "--input", path, "--output", str(tmp_path / "r.json")]) == 0
        monkeypatch.undo()
        for m in operators:
            calls = [a for a in seen
                     if any(np.array_equal(x, m) for x in (a if a.ndim == 3 else [a]))]
            assert len(calls) == 1, (subcommand, m)


@pytest.mark.parametrize("subcommand, doc, message", [
    ("check-states", {"states": [operator_to_json(np.diag([1.5, -0.5]))]},
     "density operator has eigenvalue"),
    ("check-meas", {"effects": [operator_to_json(np.diag([1.5, 0.0]))]}, "effect spectrum"),
    ("approx-check", {"effects": [operator_to_json(np.diag([1.5, 0.0]))],
                      "channel": _PINCH_CHANNEL, "epsilon": 0.1}, "effect spectrum"),
])
def test_operator_failing_its_deciders_check_exits_2(tmp_path, capsys, subcommand, doc,
                                                      message):
    """A well-formed document whose operator fails the decider's check is invalid
    input, reported with the decider's message."""
    assert main([subcommand, "--input", _write(tmp_path, "doc.json", doc)]) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid input: {message}")


def test_approx_check_refuses_effects_of_the_wrong_shape_for_a_choi_channel(tmp_path, capsys):
    channel = {"kind": "choi", "d_in": 2, "d_out": 2,
               "matrix": operator_to_json(choi_transform(channel_from_json(_PINCH_CHANNEL))
                                          .matrix)}
    doc = {"effects": [operator_to_json(np.eye(3) / 2)], "channel": channel, "epsilon": 0.1}
    assert main(["approx-check", "--input", _write(tmp_path, "doc.json", doc)]) == 2
    assert "does not match d_out=2" in capsys.readouterr().err
