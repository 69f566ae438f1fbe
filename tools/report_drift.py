"""Measure how far the float values of two report trees drift apart.

    python3 tools/report_drift.py A B [--rtol R] [--atol T]

A and B are directories written by `tools/dump_reports.py` (or any two trees
of JSON files).  Files are paired by their path relative to A and B.  For each
pair that is not byte-identical, every float field that moved is printed with
its largest absolute deviation |a - b| and largest relative deviation
|a - b| / max(|a|, |b|) over the file; a field is the JSON path with list
indices written as `[]`, so the entries of one list share a line.  Any other
difference (a file present on one side only, a key, a length, a string, an
integer, a bool, a float on one side only, or a file whose bytes differ
although none of its values does, say -0.0 against 0.0) is printed and
exits 1, and so does a float that moved by more than both bounds: a float
passes if its absolute deviation is at most T or its relative deviation at
most R (both default 0: only byte-identical floats pass).  The absolute
bound is for rounding-level quantities, such as a residual near 1e-15, whose
relative drift is O(1).  Exit 0 means every float is within its bounds and
nothing else differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def walk(a, b, path: str, drift: dict, other: list, bounds=(0.0, 0.0)) -> None:
    """Record float deviations of a against b in `drift`, other differences in `other`.

    `drift[path]` is [largest absolute deviation, largest relative deviation,
    whether some float moved beyond both of `bounds` = (rtol, atol)]."""
    if type(a) is float and type(b) is float:
        if a != b:
            dev = abs(a - b)
            rel = dev / max(abs(a), abs(b))
            worst = drift.setdefault(path, [0.0, 0.0, False])
            worst[0] = max(worst[0], dev)
            worst[1] = max(worst[1], rel)
            worst[2] = worst[2] or (rel > bounds[0] and dev > bounds[1])
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                other.append(f"{path}.{key}: only in {'A' if key in a else 'B'}")
            else:
                walk(a[key], b[key], f"{path}.{key}", drift, other, bounds)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            other.append(f"{path}: length {len(a)} != {len(b)}")
        else:
            for x, y in zip(a, b):
                walk(x, y, f"{path}[]", drift, other, bounds)
    elif type(a) is not type(b) or a != b:
        other.append(f"{path}: {a!r} != {b!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="first report tree")
    parser.add_argument("b", type=Path, help="second report tree")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative float deviation accepted (default 0)")
    parser.add_argument("--atol", type=float, default=0.0,
                        help="largest absolute float deviation accepted (default 0)")
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
             json.loads(fb.read_text(encoding="utf-8")), "$", drift, other,
             (args.rtol, args.atol))
        if not (drift or other):  # say -0.0 against 0.0, or other spacing
            other.append("bytes only")
        print(name)
        for line in other:
            print(f"  differs  {line}")
        for field, (dev, rel, beyond) in drift.items():
            print(f"  float    {field}  abs {dev:.3e}  rel {rel:.3e}"
                  + ("  beyond bounds" if beyond else ""))
        failed = failed or bool(other) or any(beyond for _, _, beyond in drift.values())
    print(f"{identical} of {len(names)} files byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
