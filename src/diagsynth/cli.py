"""Command-line front end.

Exit codes: 0 success (verify: preserved), 2 bad parameters or parse or
budget errors, 3 not preserved, 5 inadmissible step under --strict.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from . import families, gf2, synth
from .csscode import code_from_json, code_to_json
from .errors import DiagSynthError, InadmissibleStep
from .gates import gate_from_json, gate_to_json, lift
from .gf2 import BitVec
from .report import build_report


def _dump(obj: Any) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _load_json(path: str) -> Any:
    with open(path) as fh:
        return json.load(fh)


def _write_json(path: str, obj: Any) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_family(args: argparse.Namespace) -> int:
    params = [int(p) for p in args.params]
    if args.name == "qrm_pipeline":
        res = families.qrm_pipeline(*params, budget=args.budget)
        if args.out:
            _write_json(args.out, code_to_json(res.final))
        if args.gate_out:
            _write_json(args.gate_out, gate_to_json(res.gate))
        _dump(
            {
                "family": "qrm_pipeline",
                "params": params,
                "final": {"n": res.final.n, "k": res.final.k},
                "concats": res.concat_count,
                "removals": res.removal_count,
                "additions": res.addition_count,
            }
        )
        return 0
    build = families.build_family(args.name, params)
    if args.out:
        _write_json(args.out, code_to_json(build.code))
    if args.gate_out:
        _write_json(args.gate_out, gate_to_json(build.gate))
    _dump(
        {
            "family": build.spec.name,
            "params": list(build.spec.parameters),
            "n": build.code.n,
            "k": build.code.k,
            "expected_d": build.spec.expected_d,
            "gate": build.spec.gate_description,
            "logical": build.spec.logical_description,
        }
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    code = code_from_json(_load_json(args.code))
    gate = gate_from_json(_load_json(args.gate))
    rep = build_report(
        code,
        gate,
        w_max=args.wmax,
        budget=args.budget,
        include_row=not args.no_row,
    )
    _dump(rep)
    return 0 if rep["preserved"] else 3


def cmd_report(args: argparse.Namespace) -> int:
    code = code_from_json(_load_json(args.code))
    gate = gate_from_json(_load_json(args.gate)) if args.gate else None
    rep = build_report(
        code,
        gate,
        w_max=args.wmax,
        budget=args.budget,
        include_oracle=args.oracle,
    )
    _dump(rep)
    return 0


def cmd_concat(args: argparse.Namespace) -> int:
    code = code_from_json(_load_json(args.code))
    new_code = synth.concatenate(code)
    _write_json(args.out, code_to_json(new_code))
    out: dict[str, Any] = {"op": "concat", "n": new_code.n, "k": new_code.k}
    if args.gate:
        gate = gate_from_json(_load_json(args.gate))
        lifted = lift(gate, args.lift)
        out["lift"] = args.lift
        if args.gate_out:
            _write_json(args.gate_out, gate_to_json(lifted))
    _dump(out)
    return 0


def cmd_remove_z(args: argparse.Namespace) -> int:
    code = code_from_json(_load_json(args.code))
    gate = gate_from_json(_load_json(args.gate)) if args.gate else None
    res = synth.remove_z(code, gate, BitVec.from_string(args.w0), budget=args.budget)
    _write_json(args.out, code_to_json(res.code))
    _dump(
        {
            "op": "remove_z",
            "w0": args.w0,
            "gamma0": res.gamma0.to01(),
            "admissible": res.admissible,
            "n": res.code.n,
            "k": res.code.k,
        }
    )
    if args.strict and res.admissible is False:
        return 5
    return 0


def cmd_add_x(args: argparse.Namespace) -> int:
    code = code_from_json(_load_json(args.code))
    gate = gate_from_json(_load_json(args.gate)) if args.gate else None
    res = synth.add_x(code, gate, BitVec.from_string(args.x0), budget=args.budget)
    _write_json(args.out, code_to_json(res.code))
    out = {
        "op": "add_x",
        "x0": args.x0,
        "mu0": res.mu0.to01(),
        "admissible": res.admissible,
        "n": res.code.n,
        "k": res.code.k,
    }
    if res.witness:
        out["witness"] = {
            "gamma": res.witness[0].to01(),
            "value": res.witness[1].serialize(),
        }
    _dump(out)
    if args.strict and res.admissible is False:
        return 5
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    code = code_from_json(_load_json(args.code))
    gate = gate_from_json(_load_json(args.gate)) if args.gate else None
    script = _load_json(args.script)
    try:
        result = synth.run_pipeline(
            code, gate, script, strict=args.strict, budget=args.budget
        )
    except InadmissibleStep as exc:
        _dump({"error": str(exc), "step": exc.step.to_json() if exc.step else None})
        return 5
    out: dict[str, Any] = {
        "steps": [s.to_json() for s in result.steps],
        "final": {"n": result.code.n, "k": result.code.k},
    }
    if args.out:
        _write_json(args.out, code_to_json(result.code))
    if args.oracle and result.gate is not None and result.code.n <= 24:
        from .oracle import crosscheck

        chk = crosscheck(result.code, result.gate, budget=args.budget)
        out["oracle"] = {
            "verdicts_agree": chk.verdicts_agree,
            "max_row_deviation": chk.max_row_deviation,
        }
    _dump(out)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import crosscheck

    code = code_from_json(_load_json(args.code))
    gate = gate_from_json(_load_json(args.gate))
    chk = crosscheck(code, gate, tol=args.tol, budget=args.budget)
    _dump(
        {
            "preserved_exact": chk.preserved_exact,
            "unitary_numeric": chk.unitary_numeric,
            "verdicts_agree": chk.verdicts_agree,
            "max_row_deviation": chk.max_row_deviation,
            "max_offdiag": chk.max_offdiag,
            "tol": chk.tol,
        }
    )
    return 0 if chk.ok else 3


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=int, default=gf2.DEFAULT_BUDGET,
                   help="enumeration budget in vectors (default 2^26)")
    p.add_argument("--wmax", type=int, default=6,
                   help="distances up to this are always exact")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diagsynth",
        description="Exact synthesis and verification of CSS codes under diagonal gates",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="build a named code family")
    p.add_argument("name")
    p.add_argument("params", nargs="*")
    p.add_argument("--out", help="write code JSON here")
    p.add_argument("--gate-out", dest="gate_out", help="write the canonical gate JSON here")
    _add_common(p)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("verify", help="decide whether a gate preserves a code")
    p.add_argument("--code", required=True)
    p.add_argument("--gate", required=True)
    p.add_argument("--no-row", action="store_true", help="omit the coefficient row")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="full report: distances, preservation, logical gate")
    p.add_argument("--code", required=True)
    p.add_argument("--gate")
    p.add_argument("--oracle", action="store_true", help="append the float crosscheck")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("concat", help="concatenate a code (optionally lifting its gate)")
    p.add_argument("--code", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gate")
    p.add_argument("--gate-out", dest="gate_out")
    p.add_argument("--lift", default="next_level_rotation")
    _add_common(p)
    p.set_defaults(func=cmd_concat)

    p = sub.add_parser("remove-z", help="remove a Z-stabilizer via its new X-logical")
    p.add_argument("--code", required=True)
    p.add_argument("--gate")
    p.add_argument("--w0", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strict", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_remove_z)

    p = sub.add_parser("add-x", help="add an X-stabilizer")
    p.add_argument("--code", required=True)
    p.add_argument("--gate")
    p.add_argument("--x0", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strict", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_add_x)

    p = sub.add_parser("pipeline", help="run a JSON script of operations")
    p.add_argument("--code", required=True)
    p.add_argument("--gate")
    p.add_argument("--script", required=True)
    p.add_argument("--out")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--oracle", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("oracle", help="float statevector crosscheck")
    p.add_argument("--code", required=True)
    p.add_argument("--gate", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (DiagSynthError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
