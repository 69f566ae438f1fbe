"""Batch experiment runner: load operator/channel JSON, dispatch the deciders
and CV sweeps, emit deterministic JSON reports (and CSV for sweeps).

Exit codes: 0 completed analysis (any verdict), 2 parse/schema failure or an
invalid option value, 3 dimension cap or memory exhausted, 4 internal
numerical failure."""

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
    FeasibilityProblem,
    approx_check,
    check_measurements_feasibility,
    check_states,
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
from .operators import OperatorError, as_density, as_effect
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

# --tol default of each subcommand, recorded in the report's config
_DEFAULT_TOL = {
    "fixpoints": 1e-9,
    "check-states": 1e-9,
    "check-meas": 1e-7,
    "pvm-embed": 1e-10,
    "approx-check": 1e-10,
    "cv-q": 1e-8,
    "cv-shift": 1e-9,
    "cv-position": 1e-10,
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

    def add(name, needs_input):
        p = sub.add_parser(name)
        if needs_input:
            p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--output", default=None, help="report path (default stdout)")
        p.add_argument("--tol", type=float, default=_DEFAULT_TOL[name], help="tolerance")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized routines")
        p.add_argument("--budget", type=int, default=20000, help="iteration budget")
        p.add_argument("--levels", type=int, default=24, help="Fock truncation levels")
        p.add_argument("--bins", type=int, default=None,
                       help="position bins (default: sweep 2,4,8,16)")
        p.add_argument("--csv", default=None, help="also write sweep rows as CSV")
        return p

    for name in ("fixpoints", "check-states", "check-meas", "pvm-embed", "approx-check"):
        add(name, needs_input=True)
    for name in ("cv-q", "cv-shift", "cv-position"):
        add(name, needs_input=False)
    return parser


def _config_dict(args) -> dict:
    return {
        "subcommand": args.subcommand,
        "input": getattr(args, "input", None),
        "output": args.output,
        "tol": args.tol,
        "seed": args.seed,
        "budget": args.budget,
        "levels": args.levels,
        "bins": args.bins,
        "dimension_cap": dimension_cap(),
        "version": __version__,
    }


def _load_operators(path, key, validate, required, optional=()):
    doc = load_json_file(path)
    _expect_keys(doc, required, optional)
    return operators_field(doc, key, validate), doc


def _run_check_states(args) -> dict:
    states, _ = _load_operators(args.input, "states", as_density, ("states",))
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
    effects, doc = _load_operators(args.input, "effects", as_effect, ("effects",), ("picture",))
    picture = doc.get("picture", "heisenberg")
    problem = FeasibilityProblem(effects, picture=picture, budget=args.budget, tol=args.tol)
    verdict = check_measurements_feasibility(problem)
    witness = None
    if verdict.witness_channel is not None:
        witness = channel_to_json(verdict.witness_channel)
    elif verdict.witness_choi is not None:
        witness = {"kind": "choi", "d_in": problem.dim, "d_out": problem.dim,
                   "matrix": operator_to_json(verdict.witness_choi)}
    return {
        "verdict": verdict.status,
        "witness": witness,
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
    effects, doc = _load_operators(args.input, "effects", as_effect,
                                   ("effects", "channel", "epsilon"))
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
    bins_list = [args.bins] if args.bins is not None else [2, 4, 8, 16]
    args.bins = bins_list if len(bins_list) > 1 else bins_list[0]
    rows = position_embedding_sweep(bins_list, trunc, seed=args.seed)
    return {
        "levels": args.levels,
        "seed": args.seed,
        "sweep_rows": rows,
        "residuals": [row["residual"] for row in rows],
        "notes": ["residual column is the commuting-projection repair distance"],
    }


_RUNNERS = {
    "check-states": _run_check_states,
    "check-meas": _run_check_meas,
    "pvm-embed": _run_pvm_embed,
    "approx-check": _run_approx_check,
    "fixpoints": _run_fixpoints,
    "cv-q": _run_cv_q,
    "cv-shift": _run_cv_shift,
    "cv-position": _run_cv_position,
}


def run(args) -> dict:
    result = _RUNNERS[args.subcommand](args)
    return {"config": _config_dict(args), "seed": args.seed, "result": result}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if not (math.isfinite(args.tol) and args.tol > 0):
        print(f"error: invalid input: --tol must be finite and positive, got {args.tol!r}",
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
    if args.csv and "sweep_rows" in report.get("result", {}):
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(sweep_rows_to_csv(report["result"]["sweep_rows"]))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
