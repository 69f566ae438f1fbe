"""Fold the run records under perfbench/out/results/ into one BENCH_<n>.json.

    python3 perfbench/collect.py --out perfbench/BENCH_0.json

For every workload and metric it keeps the values of all runs, their median
and quartiles; untraced runs give the end-to-end metrics and the printed
extras, traced runs the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(values: list) -> dict:
    out = {"n": len(values), "median": statistics.median(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3,
                   spread=(q3 - q1) / out["median"] if out["median"] else None)
    return out


def collect(records: list) -> dict:
    bench = {"workloads": {}}
    for rec in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        wl = bench["workloads"].setdefault(rec["workload"], {
            "calls_per_pass": rec["calls_per_pass"], "runs": [],
            "end_to_end": {}, "extras": {}, "per_layer": {}})
        wl["runs"].append({"seed": rec["seed"], "trace": rec["trace"], "seconds": rec["seconds"],
                           "input_hash": rec["input_hash"], "failures": rec["failures"],
                           "pass_wall_s": rec["pass_wall_s"]})
        section = "per_layer" if rec["trace"] else "end_to_end"
        for group, items in ((section, rec["metrics"]), ("extras", rec["extras"])):
            for name, m in items.items():
                slot = wl[group].setdefault(name, {"unit": m["unit"], "values": []})
                slot["values"].append(m["value"])
        bench.setdefault("environment", rec["environment"])
    for wl in bench["workloads"].values():
        for group in ("end_to_end", "extras", "per_layer"):
            for name, slot in wl[group].items():
                wl[group][name] = {"unit": slot["unit"], **summarize(slot["values"])}
    return bench


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--results", default=str(HERE / "out" / "results"))
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    records = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted(Path(args.results).glob("*.json"))]
    if not records:
        raise SystemExit(f"no run records under {args.results}")
    Path(args.out).write_text(json.dumps(collect(records), indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
