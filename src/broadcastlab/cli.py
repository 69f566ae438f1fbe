"""Batch experiment runner: load operator/channel JSON, dispatch the deciders
and CV sweeps, emit deterministic JSON reports (and CSV for sweeps).

Exit codes: 0 completed analysis (any verdict), 2 parse/schema failure, an
operator that fails its decider's check or an invalid option value, 3
dimension cap or memory exhausted, 4 internal numerical failure."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .config import DimensionCapError, dimension_cap
from .contextuality import (
    ApproxCheckResult,
    approx_check,
    check_states,
    decide_measurements,
    pvm_embed,
)
from .cvmodels import (
    FockTruncation,
    position_embedding_sweep,
    qchannel_build,
    qchannel_element,
    qchannel_element_quadrature,
    qchannel_fixed_analysis,
    shift_channel_study,
    sweep_rows_to_csv,
)
from .fixedpoint import FixedPointError, fixedpoint_report
from .operators import OperatorError
from .serialization import (
    SchemaError,
    _expect_keys,
    _number_field,
    channel_from_json,
    channel_to_json,
    dumps_report,
    load_json_file,
    operator_to_json,
    operators_field,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_NUMERICAL = 4


def _load_operators(path, key, required, optional=()):
    doc = load_json_file(path)
    _expect_keys(doc, required, optional)
    return operators_field(doc, key), doc


def _run_check_states(args) -> dict:
    states, _ = _load_operators(args.input, "states", ("states",))
    verdict = check_states(states, tol=args.tol, seed=args.seed)
    residuals = [r for r in (verdict.max_fix_residual, verdict.max_marginal_residual)
                 if r is not None]
    return {
        "verdict": verdict.verdict,
        "witness": channel_to_json(verdict.witness) if verdict.witness else None,
        "broadcaster": channel_to_json(verdict.broadcaster) if verdict.broadcaster else None,
        "commutator_norm": verdict.commutator_norm,
        "confirming_pair": list(verdict.confirming_pair) if verdict.confirming_pair else None,
        "residuals": residuals,
        "notes": list(verdict.notes),
    }


def _run_check_meas(args) -> dict:
    effects, doc = _load_operators(args.input, "effects", ("effects",), ("picture",))
    picture = doc.get("picture", "heisenberg")
    verdict = decide_measurements(effects, picture=picture, budget=args.budget, tol=args.tol)
    return {
        "verdict": verdict.status,
        "witness": (channel_to_json(verdict.witness_channel)
                    if verdict.witness_channel is not None else None),
        "residuals": list(verdict.residual_history),
        "final_residuals": verdict.final_residuals,
        "cycles": verdict.cycles,
        "verification": verdict.verification,
        "notes": list(verdict.notes),
    }


def _run_pvm_embed(args) -> dict:
    doc = load_json_file(args.input)
    _expect_keys(doc, ("labels", "projections", "subsets"))

    def label_list(x):
        return isinstance(x, list) and all(isinstance(v, (str, int, float)) for v in x)

    if not label_list(doc["labels"]):
        raise SchemaError("$.labels: expected a list of strings or numbers")
    if not (isinstance(doc["subsets"], list) and all(map(label_list, doc["subsets"]))):
        raise SchemaError("$.subsets: expected a list of label lists")
    embedding = pvm_embed(doc["labels"], operators_field(doc, "projections"),
                          [set(s) for s in doc["subsets"]], tol=args.tol)
    return {
        "verdict": "embedded",
        "witness": channel_to_json(embedding.channel),
        "atoms": [
            {"pattern": v, "labels": sorted(map(str, labs)),
             "effect": operator_to_json(e), "state": operator_to_json(s)}
            for (v, labs), e, s in zip(embedding.atom_sets, embedding.atom_effects,
                                       embedding.states)
        ],
        "index_sets": [sorted(s) for s in embedding.index_sets],
        "residuals": [embedding.max_fix_residual],
        "notes": [],
    }


def _run_approx_check(args) -> dict:
    effects, doc = _load_operators(args.input, "effects", ("effects", "channel", "epsilon"))
    epsilon = _number_field(doc["epsilon"], "$.epsilon")
    channel = channel_from_json(doc["channel"], "$.channel")
    result: ApproxCheckResult = approx_check(effects, channel, epsilon)
    return {
        "verdict": "pass" if result.passed else "fail",
        "witness": None,
        "epsilon": result.epsilon,
        "residuals": list(result.deviations),
        "notes": [],
    }


def _run_fixpoints(args) -> dict:
    doc = load_json_file(args.input)
    _expect_keys(doc, ("channel",))
    channel = channel_from_json(doc["channel"], "$.channel")
    return fixedpoint_report(channel, tol=args.tol, seed=args.seed)


def _run_cv_q(args) -> dict:
    trunc = FockTruncation(args.levels)
    channel = qchannel_build(trunc)
    report = qchannel_fixed_analysis(channel, window=max(2, args.levels // 3),
                                     seed=args.seed)
    probes = []
    worst = 0.0
    for m in range(min(6, args.levels)):
        for j in range(min(6, args.levels)):
            closed = qchannel_element(m, m, j, j)
            quad = qchannel_element_quadrature(m, m, j, j)
            worst = max(worst, abs(closed - quad))
            probes.append({"indices": [m, m, j, j], "closed_form": closed,
                           "quadrature": quad})
    report["quadrature_probe_max_deviation"] = worst
    report["quadrature_probes"] = probes
    shape = report["window_shape_distance_by_terms"]
    report["sweep_rows"] = [
        {"parameter": int(k), "residual": v,
         "window_distance": shape[k], "trace_defect": report["trace_defect_bound"]}
        for k, v in sorted(report["window_distance_by_terms"].items(),
                           key=lambda kv: int(kv[0]))
    ]
    return report


def _run_cv_shift(args) -> dict:
    trunc = FockTruncation(args.levels)
    report = shift_channel_study(trunc, seed=args.seed)
    report["sweep_rows"] = [
        {"parameter": int(k), "residual": max(vals),
         "window_distance": max(vals), "trace_defect": report["trace_defect_bound"]}
        for k, vals in sorted(((int(k), v) for k, v in report["window_mass"].items()))
    ]
    return report


def _run_cv_position(args) -> dict:
    trunc = FockTruncation(args.levels)
    bins = args.bins if isinstance(args.bins, tuple) else (args.bins,)
    rows = position_embedding_sweep(bins, trunc, seed=args.seed)
    return {
        "levels": args.levels,
        "seed": args.seed,
        "sweep_rows": rows,
        "residuals": [row["residual"] for row in rows],
        "notes": ["residual column is the commuting-projection repair distance"],
    }


# The one declaration of the subcommands: name -> (runner, {option: default}).
# The parser offers each subcommand exactly the options its runner reads, and
# `--input`, where present, is required.
SUBCOMMANDS = {
    "fixpoints": (_run_fixpoints, {"input": None, "output": None, "tol": 1e-9, "seed": 0}),
    "check-states": (_run_check_states,
                     {"input": None, "output": None, "tol": 1e-9, "seed": 0}),
    "check-meas": (_run_check_meas,
                   {"input": None, "output": None, "tol": 1e-7, "budget": 20000}),
    "pvm-embed": (_run_pvm_embed, {"input": None, "output": None, "tol": 1e-10}),
    "approx-check": (_run_approx_check, {"input": None, "output": None}),
    "cv-q": (_run_cv_q, {"output": None, "levels": 24, "seed": 0, "csv": None}),
    "cv-shift": (_run_cv_shift, {"output": None, "levels": 24, "seed": 0, "csv": None}),
    "cv-position": (_run_cv_position, {"output": None, "levels": 24, "bins": (2, 4, 8, 16),
                                       "seed": 0, "csv": None}),
}

# type and help of each option, in the order a report's config lists them
_OPTIONS = {
    "input": (str, "input JSON file"),
    "output": (str, "report path (default stdout)"),
    "tol": (float, "tolerance"),
    "seed": (int, "seed for randomized routines"),
    "budget": (int, "iteration budget"),
    "levels": (int, "Fock truncation levels"),
    "bins": (int, "position bins (default: sweep 2,4,8,16)"),
    "csv": (str, "also write sweep rows as CSV"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; `parse_args` returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="broadcastlab",
        description="Entanglement-breaking fixed points, broadcasting algebras, "
                    "and contextuality deciders.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        for option, default in options.items():
            kind, help_text = _OPTIONS[option]
            p.add_argument(f"--{option}", type=kind, default=default,
                           required=option == "input", help=help_text)
    return parser


def _config_dict(args) -> dict:
    # null for each option the subcommand does not read; the CSV path is not recorded
    return {
        "subcommand": args.subcommand,
        **{option: getattr(args, option, None) for option in _OPTIONS if option != "csv"},
        "dimension_cap": dimension_cap(),
        "version": __version__,
    }


def run(args) -> dict:
    runner, _ = SUBCOMMANDS[args.subcommand]
    result = runner(args)
    config = _config_dict(args)
    return {"config": config, "seed": config["seed"], "result": result}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        print(f"error: invalid input: --tol must be finite and positive, got {tol!r}",
              file=sys.stderr)
        return EXIT_PARSE
    try:
        report = run(args)
    except (SchemaError, json.JSONDecodeError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: input could not be parsed: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DimensionCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError as exc:
        print(f"error: resource limit: out of memory ({exc or 'allocation failed'})",
              file=sys.stderr)
        return EXIT_CAP
    except (OperatorError, ValueError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (FixedPointError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    try:
        payload = dumps_report(report)
    except ValueError as exc:  # NaN or infinity in a result
        print(f"error: numerical failure: report cannot be encoded: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    csv_path = getattr(args, "csv", None)
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(sweep_rows_to_csv(report["result"]["sweep_rows"]))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
