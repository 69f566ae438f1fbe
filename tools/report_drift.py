"""Measure how far the float values of two report trees drift apart.

    python3 tools/report_drift.py A B [--rtol R]

A and B are directories written by `tools/dump_reports.py` (or any two trees
of JSON files).  Files are paired by their path relative to A and B.  For each
pair that is not byte-identical, every float field that moved is printed with
its largest absolute deviation |a - b| and largest relative deviation
|a - b| / max(|a|, |b|) over the file; a field is the JSON path with list
indices written as `[]`, so the entries of one list share a line.  Any other
difference (a file present on one side only, a key, a length, a string, an
integer, a bool, or a float on one side only) is printed and exits 1, and so
does a relative deviation above R (default 0: only byte-identical floats
pass).  Exit 0 means every float is within R and nothing else differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def walk(a, b, path: str, drift: dict, other: list) -> None:
    """Record float deviations of a against b in `drift`, other differences in `other`."""
    if type(a) is float and type(b) is float:
        if a != b:
            dev = abs(a - b)
            worst = drift.setdefault(path, [0.0, 0.0])
            worst[0] = max(worst[0], dev)
            worst[1] = max(worst[1], dev / max(abs(a), abs(b)))
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                other.append(f"{path}.{key}: only in {'A' if key in a else 'B'}")
            else:
                walk(a[key], b[key], f"{path}.{key}", drift, other)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            other.append(f"{path}: length {len(a)} != {len(b)}")
        else:
            for x, y in zip(a, b):
                walk(x, y, f"{path}[]", drift, other)
    elif type(a) is not type(b) or a != b:
        other.append(f"{path}: {a!r} != {b!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="first report tree")
    parser.add_argument("b", type=Path, help="second report tree")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative float deviation accepted (default 0)")
    args = parser.parse_args(argv)
    names = sorted({p.relative_to(root).as_posix()
                    for root in (args.a, args.b) for p in root.rglob("*.json")})
    failed = False
    identical = 0
    for name in names:
        fa, fb = args.a / name, args.b / name
        if not (fa.is_file() and fb.is_file()):
            print(f"{name}: only in {'A' if fa.is_file() else 'B'}")
            failed = True
            continue
        if fa.read_bytes() == fb.read_bytes():
            identical += 1
            continue
        drift, other = {}, []
        walk(json.loads(fa.read_text(encoding="utf-8")),
             json.loads(fb.read_text(encoding="utf-8")), "$", drift, other)
        print(name)
        for line in other:
            print(f"  differs  {line}")
        for field, (dev, rel) in drift.items():
            print(f"  float    {field}  abs {dev:.3e}  rel {rel:.3e}")
        failed = failed or bool(other) or any(rel > args.rtol for _, rel in drift.values())
    print(f"{identical} of {len(names)} files byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
