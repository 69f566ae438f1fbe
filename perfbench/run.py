"""broadcastlab benchmark: drives `broadcastlab.cli.main(argv)` in-process on
seeded, generated inputs and times each call from outside.

    python3 perfbench/run.py --workload cv-fock --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs
one untraced reference pass, then wraps the package's public functions
(`spans.py`) and prints the per-layer metrics and the tracing overhead.  Every
report is checked outside the timed region.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  A full
record (environment, input hash, per-call times, failures) is written under
`perfbench/out/results/`, and the spans of a traced run under `perfbench/out/spans/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# BLAS and OpenMP pools are pinned to one thread before numpy loads, so the
# program is single-threaded and nothing inside it contends
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# set-up probes per run: one before each timed pass, the rest after the last,
# so they sample the machine at different moments of the run
SETUP_PROBES = 5
MIN_PASSES = 2
# stop starting passes once one more would end past this many seconds of the run
HARD_LIMIT_S = 150.0
PROBE_TIMEOUT_S = 60.0

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "call_p50_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# set-up: import, generate inputs, warm up


@dataclass
class Session:
    cli: object
    calls: list
    argvs: list
    input_hash: str
    warmup_failures: list
    first_hashes: dict = field(default_factory=dict)


def _argv(call, workdir: Path, doc_path: Path | None) -> list[str]:
    argv = list(call.argv)
    if doc_path is not None:
        argv += ["--input", str(doc_path)]
    return argv + ["--output", str(workdir / "reports" / f"{call.label}.json")]


def set_up(workload: str, seed: int, workdir: Path) -> Session:
    """Everything between process start and the first timed call."""
    from broadcastlab import cli
    import workloads

    warmup, calls = workloads.build(workload, seed)
    (workdir / "inputs").mkdir(parents=True, exist_ok=True)
    (workdir / "reports").mkdir(parents=True, exist_ok=True)
    argvs = []
    for call in warmup + calls:
        path = None
        if call.doc is not None:
            path = workdir / "inputs" / f"{call.label}.json"
            path.write_text(json.dumps(call.doc), encoding="utf-8")
        argvs.append(_argv(call, workdir, path))
    session = Session(cli=cli, calls=calls, argvs=argvs[len(warmup):],
                      input_hash=workloads.inputs_hash(warmup + calls), warmup_failures=[])
    for call, argv in zip(warmup, argvs[:len(warmup)]):
        _, problem, _ = _invoke(cli, call, argv)
        if problem:
            session.warmup_failures.append(f"{call.label}: {problem}")
    return session


def _invoke(cli, call, argv):
    """Time one call; check its report afterwards. Returns (seconds, problem, report)."""
    import workloads

    report_path = Path(argv[-1])  # the --output value
    report_path.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed call, not a failed run
        return time.perf_counter() - t0, f"raised {exc!r}", None
    elapsed = time.perf_counter() - t0
    if code != 0:
        return elapsed, f"exit code {code}", None
    try:
        raw = report_path.read_bytes()
        report = json.loads(raw)
    except (OSError, ValueError) as exc:
        return elapsed, f"unreadable report: {exc!r}", None
    problem = workloads.check_report(call, report)
    return elapsed, problem, (raw, report)


@dataclass
class PassResult:
    times: list
    failures: list
    cycles: dict


def run_pass(session: Session, recorder=None) -> PassResult:
    times, failures, cycles = [], [], {}
    for k, (call, argv) in enumerate(zip(session.calls, session.argvs)):
        if recorder is not None:
            recorder.call = k
        elapsed, problem, out = _invoke(session.cli, call, argv)
        times.append(elapsed)
        if out is not None:
            raw, report = out
            digest = hashlib.sha256(raw).hexdigest()
            first = session.first_hashes.setdefault(k, digest)
            if problem is None and digest != first:
                problem = "report differs from the first pass"
            result = report.get("result", {})
            if isinstance(result, dict) and "cycles" in result:
                cycles[k] = result["cycles"]
        if problem:
            failures.append(f"{call.label}: {problem}")
    return PassResult(times, failures, cycles)


def measure_passes(runner, seconds: float, min_passes: int, t_process: float,
                   between=None) -> list:
    """Repeat whole passes: at least `min_passes`, then while one more fits in
    `seconds` of pass time.  `between()`, if given, runs before each pass and
    its time is not counted."""
    results = []
    measured = 0.0
    while True:
        if between is not None:
            between()
        t = time.perf_counter()
        results.append(runner())
        last = time.perf_counter() - t
        measured += last
        if time.perf_counter() - t_process + last > HARD_LIMIT_S:
            break
        if len(results) >= min_passes and measured + last > seconds:
            break
    return results


# ---------------------------------------------------------------------------
# set-up time, measured in fresh processes


def setup_probe(workload: str, seed: int) -> int:
    workdir = OUT / f"probe-{os.getpid()}"
    try:
        session = set_up(workload, seed, workdir)
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("failed" if session.warmup_failures else f"ready {ready!r}")
    return 0


class SetupProbes:
    """Seconds from spawning a fresh interpreter to its first possible timed
    call.  The probe stamps that moment on the system-wide monotonic clock, so
    its exit and clean-up are not counted."""

    def __init__(self, workload: str, seed: int, count: int):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", workload, "--seed", str(seed)]
        self.left = count
        self.samples, self.failures = [], []

    def one(self):
        if self.left <= 0:
            return
        self.left -= 1
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            out = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.failures.append(f"setup probe: no result within {PROBE_TIMEOUT_S} s")
            return
        word, _, stamp = out.stdout.strip().partition(" ")
        if out.returncode != 0 or word != "ready":
            self.failures.append(f"setup probe: {word or 'no output'} (exit {out.returncode})")
            return
        self.samples.append(float(stamp) - t0)

    def rest(self):
        while self.left > 0:
            self.one()


# ---------------------------------------------------------------------------
# environment


def environment(inherited: dict) -> dict:
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {k: v for k, v in os.environ.items()
                        if k.endswith("_NUM_THREADS") or k in THREAD_VARS},
        "threads_env_inherited": inherited,
        "blas_threads_set": int(BLAS_THREADS),
    }
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        deps = {}
    for lib in ("blas", "lapack"):
        # the build's own directories say nothing about the library, leave them out
        info = deps.get(lib) or {}
        env[lib] = {k: v for k, v in info.items() if k in ("name", "version", "openblas configuration")}
    env["git_commit"], env["git_dirty"] = _git_state()
    return env


def _git_state():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                 "--untracked-files=no"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if head.returncode != 0:
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


# ---------------------------------------------------------------------------
# metrics


def end_to_end(session: Session, passes: list, setup_samples: list) -> tuple[dict, dict]:
    """(metrics named in BENCHMARK.json, further figures printed beside them)."""
    from stats import hd_median, median, percentile

    metrics = {
        "setup_s": median(setup_samples) if setup_samples else 0.0,  # 0.0: every probe failed
        "wall_s": median([sum(p.times) for p in passes]),
        "call_p50_s": median([hd_median(p.times) for p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extras = {}
    per_pass = len(session.calls)
    p90 = [percentile(p.times, 90) for p in passes]
    if all(v is not None for v in p90):
        extras["call_p90_s"] = (median(p90), "s", f"{per_pass} calls per pass")
    by_cmd: dict[str, list] = {}
    for p in passes:
        for call, t in zip(session.calls, p.times):
            by_cmd.setdefault(call.subcommand, []).append(t)
    for cmd, ts in sorted(by_cmd.items()):
        extras[f"cmd.{cmd}_s"] = (median(ts), "s", f"{len(ts)} calls")
    # one Dykstra cycle, untraced: the stalled searches' call time over their cycles
    by_dim: dict[int, list] = {}
    for p in passes:
        for k, cycles in p.cycles.items():
            call = session.calls[k]
            if call.expect.get("verdict") == "infeasible_stalled" and cycles:
                dim = int(call.doc["effects"][0]["dim_row"])
                by_dim.setdefault(dim, []).append(1e3 * p.times[k] / cycles)
    for dim, vals in sorted(by_dim.items()):
        extras[f"check-meas.cycle_ms.d{dim}"] = (median(vals), "ms", f"{len(vals)} searches")
    return metrics, extras


def per_layer(traces: list, reference: PassResult, traced: list) -> tuple[dict, list]:
    """Median over traced passes of each layer metric, the tracing overhead,
    and the exact counts that did not repeat."""
    import spans
    from stats import median

    per_pass = [spans.layer_metrics(t) for t in traces]
    metrics = {name: median([m[name] for m in per_pass]) for name in spans.LAYER_METRICS}
    mismatched = [f"count {name} varies across passes: {[m[name] for m in per_pass]}"
                  for name in spans.EXACT_COUNTS if len({m[name] for m in per_pass}) > 1]
    ref_wall = sum(reference.times)
    traced_wall = median([sum(p.times) for p in traced])
    metrics["trace.spans"] = median([len(t.spans) for t in traces])
    metrics["trace.overhead_s"] = traced_wall - ref_wall
    metrics["trace.overhead_frac"] = (traced_wall - ref_wall) / ref_wall
    # the difference of two passes carries the machine's pass-to-pass noise;
    # spans times the calibrated cost of one span does not
    metrics["trace.span_cost_ns"] = median([spans.span_cost_ns() for _ in range(5)])
    metrics["trace.overhead_est_s"] = metrics["trace.spans"] * metrics["trace.span_cost_ns"] * 1e-9
    return metrics, mismatched


def layer_units() -> dict:
    import spans

    units = {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}
    units.update({"trace.spans": "count", "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
                  "trace.span_cost_ns": "ns", "trace.overhead_est_s": "s"})
    return units


# ---------------------------------------------------------------------------


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workload_names, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    t_process = time.perf_counter()
    inherited = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    import workloads  # loads numpy, so only once the pools are pinned

    args = parse_args(argv, workloads.WORKLOADS)
    if not (SRC / "broadcastlab" / "cli.py").is_file():
        print(f"error: no broadcastlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, workdir, inherited, t_process)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path, inherited: dict, t_process: float) -> int:
    session = set_up(args.workload, args.seed, workdir)
    failures = list(session.warmup_failures)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "input_hash": session.input_hash,
              "calls_per_pass": len(session.calls)}

    if args.trace == 0:
        probes = SetupProbes(args.workload, args.seed, SETUP_PROBES)
        passes = measure_passes(lambda: run_pass(session), args.seconds, MIN_PASSES, t_process,
                                between=probes.one)
        probes.rest()
        failures += probes.failures
        metrics, extras = end_to_end(session, passes, probes.samples)
        units = E2E_UNITS
        record["setup_samples_s"] = probes.samples
    else:
        import spans

        reference = run_pass(session)
        recorder = spans.Recorder()
        tracer = spans.Tracer(recorder)
        traces = []

        def traced_pass():
            result = run_pass(session, recorder)
            traces.append(recorder.take())
            return result

        tracer.install()
        try:
            t_left = args.seconds - sum(reference.times)
            traced = measure_passes(traced_pass, t_left, MIN_PASSES, t_process)
        finally:
            tracer.uninstall()
        passes = [reference] + traced
        metrics, mismatched = per_layer(traces, reference, traced)
        failures += mismatched
        extras = {}
        units = layer_units()
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        (spans_dir / f"{tag}.json").write_text(
            json.dumps([t.to_json() for t in traces]), encoding="utf-8")

    for p in passes:
        failures += p.failures
    attempted = sum(len(p.times) for p in passes)
    failed = min(attempted, len(failures))
    extras["fail_frac"] = (failed / attempted, "ratio", f"{failed} of {attempted} calls")
    extras["passes"] = (len(passes), "count", "")

    record.update({
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "extras": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in extras.items()},
        "failures": failures,
        "pass_wall_s": [sum(p.times) for p in passes],
        "call_times_s": {c.label: [p.times[k] for p in passes] for k, c in enumerate(session.calls)},
        "environment": environment(inherited),
    })
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {units[name]}")
    for name, (value, unit, note) in extras.items():
        print(f"{name:44s} {value:14.6g} {unit}  {note}")
    for problem in failures:
        print(f"FAILED {problem}")
    env = record["environment"]
    print(f"inputs sha256 {session.input_hash}")
    print(f"environment nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas'].get('name')} threads={BLAS_THREADS} "
          f"commit={env['git_commit']} dirty={env['git_dirty']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
