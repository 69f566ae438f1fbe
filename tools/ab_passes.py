"""Time two trees of this package against each other, alternating whole passes
of one benchmark workload in one process.

    python3 tools/ab_passes.py TREE_A TREE_B --workload W --passes N --seed S

TREE_A and TREE_B are each a checkout directory or a git ref of this
repository; a ref is unpacked with `git archive` into a temporary directory.
The two `src/broadcastlab` copies are imported under distinct package names,
and the calls that `perfbench/workloads.py` of this checkout builds for W and S
run as whole passes, N per side, alternately: pair i runs A then B when i is
even and B then A when it is odd.  One untimed warm-up pass per side comes
first.  Every report is checked with the workload's `check_report`.

Printed: each subcommand's median call time per side, the median pass time per
side, the p50 call per side (the median over passes of each pass's median call
time) with its ratio B/A, the pass ratio B/A (the median of the N pair ratios)
and how many pairs each side won.  Exit status 1 if a call failed or a report failed its check.

Both sides share one process, so they see the same machine state within a
pair; separate benchmark runs of the two trees can land in different speed
modes of the machine.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _tree(spec: str, tmp: Path, name: str) -> Path:
    """The directory of a checkout, or of a git ref unpacked under `tmp`."""
    path = Path(spec)
    if path.is_dir():
        return path.resolve()
    out = tmp / name
    out.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", spec],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(out)], input=archive, check=True)
    return out


def _load_cli(tree: Path, name: str):
    """`broadcastlab.cli` of `tree`, imported as `<name>.cli`."""
    pkg = tree / "src" / "broadcastlab"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def _argvs(calls, workdir: Path, side: str) -> list:
    """The argument list of each call, its input document written under `workdir`."""
    argvs = []
    for k, call in enumerate(calls):
        argv = list(call.argv)
        if call.doc is not None:
            path = workdir / f"input-{k}.json"
            path.write_text(json.dumps(call.doc), encoding="utf-8")
            argv += ["--input", str(path)]
        argvs.append(argv + ["--output", str(workdir / f"report-{side}-{k}.json")])
    return argvs


def _run_pass(cli, calls, argvs, check_report) -> tuple[list, list]:
    """(seconds per call, failures) of one pass."""
    times, failures = [], []
    for call, argv in zip(calls, argvs):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed call, as in perfbench/run.py
            code = f"raised {exc!r}"
        times.append(time.perf_counter() - t0)
        if code != 0:
            failures.append(f"{call.label}: " + (code if isinstance(code, str)
                                                 else f"exit code {code}"))
            continue
        problem = check_report(call, json.loads(Path(argv[-1]).read_text(encoding="utf-8")))
        if problem:
            failures.append(f"{call.label}: {problem}")
    return times, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree_a")
    ap.add_argument("tree_b")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    warmup, calls = workloads.build(args.workload, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sides = {}
        for side, spec in (("A", args.tree_a), ("B", args.tree_b)):
            cli = _load_cli(_tree(spec, tmp, side), f"broadcastlab_{side.lower()}")
            sides[side] = (cli, _argvs(warmup + calls, tmp, side))
        failures = []
        for side, (cli, argvs) in sides.items():
            failures += _run_pass(cli, warmup, argvs[:len(warmup)], workloads.check_report)[1]
        call_times = {"A": [], "B": []}
        for i in range(args.passes):
            for side in ("AB" if i % 2 == 0 else "BA"):
                cli, argvs = sides[side]
                times, fails = _run_pass(cli, calls, argvs[len(warmup):], workloads.check_report)
                call_times[side].append(times)
                failures += [f"{side} pass {i}: {f}" for f in fails]

    print(f"workload {args.workload}, seed {args.seed}, {args.passes} passes per side, "
          f"A = {args.tree_a}, B = {args.tree_b}")
    for cmd in sorted({c.subcommand for c in calls}):
        medians = [statistics.median(t[k] for t in call_times[side]
                                     for k, c in enumerate(calls) if c.subcommand == cmd)
                   for side in "AB"]
        print(f"  {cmd:14s} median call  A {medians[0] * 1e3:9.3f} ms  "
              f"B {medians[1] * 1e3:9.3f} ms  B/A {medians[1] / medians[0]:.3f}")
    pass_a, pass_b = ([sum(t) for t in call_times[side]] for side in "AB")
    print(f"  pass median  A {statistics.median(pass_a) * 1e3:.3f} ms  "
          f"B {statistics.median(pass_b) * 1e3:.3f} ms")
    p50_a, p50_b = (statistics.median(map(statistics.median, call_times[side])) for side in "AB")
    print(f"  p50 call  A {p50_a * 1e3:.3f} ms  B {p50_b * 1e3:.3f} ms  B/A {p50_b / p50_a:.3f}")
    print(f"  pass ratio B/A {statistics.median(b / a for a, b in zip(pass_a, pass_b)):.3f}")
    print(f"  passes won  A {sum(a < b for a, b in zip(pass_a, pass_b))}  "
          f"B {sum(b < a for a, b in zip(pass_a, pass_b))}  of {args.passes}")
    for failure in failures:
        print(f"  failed: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    for var in THREAD_VARS:  # one BLAS thread, as in perfbench/run.py, before numpy loads
        os.environ[var] = "1"
    sys.exit(main())
