#!/usr/bin/env python3
"""Rebuild every built-in code family, verify it against its canonical
rotation, and write one JSON report per family to an output directory.

Usage: python scripts/reproduce_families.py [outdir]

Exits 1 when some family is not preserved by its rotation.
"""

import json
import pathlib
import sys
import time

from diagsynth.families import build_family
from diagsynth.report import build_report

RUNS = [
    ("steane", []),
    ("four22", []),
    ("pqrm", [2]),
    ("pqrm", [3]),
    ("two_l", [2]),
    ("two_l", [3]),
    ("two_l", [4]),
    ("two_l", [5]),
    ("two_l", [6]),
    ("tri2", [2]),
    ("tri2", [3]),
    ("qrm", [2, 4]),
    ("qrm", [1, 3]),
]


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    outdir = pathlib.Path(args[0] if args else "out")
    outdir.mkdir(parents=True, exist_ok=True)
    failed = []
    for name, params in RUNS:
        tag = "_".join([name] + [str(p) for p in params])
        t0 = time.perf_counter()
        fb = build_family(name, params)
        rep = build_report(fb.code, fb.gate, include_oracle=fb.code.n <= 16)
        path = outdir / f"{tag}.json"
        path.write_text(json.dumps(rep, indent=2, sort_keys=True) + "\n")
        status = "preserved" if rep.get("preserved") else "NOT preserved"
        if not rep.get("preserved"):
            failed.append(tag)
        lvl = rep.get("logical", {}).get("level", "-")
        print(
            f"{tag:12s} [[{fb.code.n},{fb.code.k}]] {status}, logical level {lvl} "
            f"({time.perf_counter() - t0:.2f}s) -> {path}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
