"""Write every input document and report of the benchmark workloads to a directory.

    python3 tools/dump_reports.py OUTDIR --seed 5

For each of cv-fock, dykstra and small-batch this builds the seeded calls of
`perfbench/workloads.py` (the warm-up calls and one pass), runs each through
`broadcastlab.cli.main` from this checkout's `src/`, and leaves
`OUTDIR/<workload>/inputs/<label>.json` and `OUTDIR/<workload>/reports/<label>.json`.
Every path handed to the CLI is relative to `OUTDIR/<workload>`, so the
`config.input` and `config.output` fields of the reports do not depend on where
OUTDIR is.  Run it in two checkouts at the same seed and compare with
`diff -r`: a change that keeps behaviour leaves no difference.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cv-fock", "dykstra", "small-batch")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def dump(workload: str, seed: int, outdir: Path, cli, workloads) -> list[str]:
    """Write the inputs and reports of one workload; returns the calls that failed."""
    warmup, calls = workloads.build(workload, seed)
    home = outdir / workload
    (home / "inputs").mkdir(parents=True, exist_ok=True)
    (home / "reports").mkdir(parents=True, exist_ok=True)
    labels = [call.label for call in warmup + calls]
    if len(set(labels)) != len(labels):
        raise SystemExit(f"{workload}: call labels repeat, reports would overwrite each other")
    failures = []
    cwd = os.getcwd()
    os.chdir(home)
    try:
        for call in warmup + calls:
            argv = list(call.argv)
            if call.doc is not None:
                Path("inputs", f"{call.label}.json").write_text(json.dumps(call.doc),
                                                                encoding="utf-8")
                argv += ["--input", f"inputs/{call.label}.json"]
            argv += ["--output", f"reports/{call.label}.json"]
            code = cli.main(argv)
            if code != 0:
                failures.append(f"{workload}/{call.label}: exit code {code}")
    finally:
        os.chdir(cwd)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", help="directory to write <workload>/inputs and reports into")
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    args = parser.parse_args(argv)
    # the benchmark pins BLAS to one thread; so does this, before numpy loads
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.dont_write_bytecode = True  # leave no cache files under perfbench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from broadcastlab import cli
    import workloads

    outdir = Path(args.outdir).resolve()
    failures = []
    for workload in WORKLOADS:
        failures += dump(workload, args.seed, outdir, cli, workloads)
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
