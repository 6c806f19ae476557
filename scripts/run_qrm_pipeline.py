#!/usr/bin/env python3
"""Run the Reed-Muller growth pipeline end to end and print the certified
summary: [[4,2,2]] -> [[64,2,2]] -> [[64,21,2]] -> [[64,15,4]] for the
default (1, 2), and qrm(r, m) -> qrm(r+1, m+h) in general.

Usage: python scripts/run_qrm_pipeline.py [r m] [--out FILE]

Exit codes: 0 certified (the final code is preserved and induces the
family's form, ``family_form``), 1 a check failed, 2 the certificate was
refused by the enumeration budget.
"""

import argparse
import json
import sys
import time

from diagsynth.csscode import code_to_json
from diagsynth.errors import BudgetExceeded
from diagsynth.families import qrm_pipeline, qrm_pipeline_certificate
from diagsynth.gencoeff import is_preserved


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("r", nargs="?", type=int, default=1)
    ap.add_argument("m", nargs="?", type=int, default=2)
    ap.add_argument("--out", help="write the final code JSON here")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    res = qrm_pipeline(args.r, args.m)
    print(
        f"pipeline ({args.r},{args.m}): {res.concat_count} concatenations, "
        f"{res.removal_count} removals, {res.addition_count} additions "
        f"({time.perf_counter() - t0:.1f}s)"
    )
    for tag in ("remove_z", "add_x"):
        inter = res.intermediate(tag)
        pres = is_preserved(inter, res.gate)
        print(f"  checkpoint before {tag}: [[{inter.n},{inter.k}]] preserved={pres.preserved}")
    final = res.final
    pres = is_preserved(final, res.gate)
    d_x, d_z = final.distances()
    print(f"final [[{final.n},{final.k}]]: preserved={pres.preserved}, d_x={d_x}, d_z={d_z}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(code_to_json(final), fh, indent=2, sort_keys=True)

    t0 = time.perf_counter()
    try:
        cert = qrm_pipeline_certificate(res)
    except BudgetExceeded as exc:
        print(f"error: certificate refused: {exc} (required_log2={exc.required_log2})",
              file=sys.stderr)
        return 2
    print(f"certificate ({time.perf_counter() - t0:.1f}s):")
    print(json.dumps(cert, indent=2, default=str))
    ok = (
        pres.preserved
        and cert["family_form"]
        and cert["coefficients_match_prediction"]
        and cert["syndrome_pairs_zero"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
