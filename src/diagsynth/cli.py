"""Command-line front end.

``concat``, ``remove-z`` and ``add-x`` run one-step scripts through
``synth.run_pipeline``, the executor of ``pipeline``, and print the step.

Exit codes: 0 success (verify: preserved), 2 bad parameters or parse or
budget errors, 3 not preserved, 5 inadmissible step under --strict.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Any

from . import families, gf2, oracle, synth
from .csscode import CssCode, code_from_json, code_to_json
from .errors import BudgetExceeded, DiagSynthError, InadmissibleStep
from .gates import DiagonalGate, gate_from_json, gate_to_json
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


def _write_outputs(
    args: argparse.Namespace, code: CssCode, gate: DiagonalGate | None
) -> None:
    if args.out:
        _write_json(args.out, code_to_json(code))
    if getattr(args, "gate_out", None) and gate is not None:
        _write_json(args.gate_out, gate_to_json(gate))


def _load_inputs(args: argparse.Namespace) -> tuple[CssCode, DiagonalGate | None]:
    """The --code and, when given, the --gate of a command."""
    code = code_from_json(_load_json(args.code))
    gate = gate_from_json(_load_json(args.gate)) if args.gate else None
    return code, gate


def cmd_family(args: argparse.Namespace) -> int:
    params = [int(p) for p in args.params]
    if args.name == "qrm_pipeline":
        if len(params) != 2:
            raise ValueError("family qrm_pipeline takes 2 parameter(s)")
        res = families.qrm_pipeline(*params, budget=args.budget)
        code, gate = res.final, res.gate
        out = {
            "family": "qrm_pipeline",
            "params": params,
            "final": {"n": code.n, "k": code.k},
            "concats": res.concat_count,
            "removals": res.removal_count,
            "additions": res.addition_count,
        }
    else:
        build = families.build_family(args.name, params, args.budget)
        code, gate = build.code, build.gate
        out = {
            "family": build.spec.name,
            "params": list(build.spec.parameters),
            "n": code.n,
            "k": code.k,
            "expected_d": build.spec.expected_d,
            "gate": build.spec.gate_description,
            "logical": build.spec.logical_description,
        }
    _write_outputs(args, code, gate)
    _dump(out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    code, gate = _load_inputs(args)
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
    code, gate = _load_inputs(args)
    rep = build_report(
        code,
        gate,
        w_max=args.wmax,
        budget=args.budget,
        include_oracle=args.oracle,
    )
    _dump(rep)
    return 0


def _run_step(args: argparse.Namespace, entry: dict) -> int:
    """Run one step as a one-step pipeline script and print its record."""
    code, gate = _load_inputs(args)
    result = synth.run_pipeline(code, gate, [entry], budget=args.budget)
    step = result.steps[0]
    _write_outputs(args, result.code, result.gate)
    out = {**step.params, "op": step.kind, **step.detail, **step.after}
    if step.kind != "concat":
        out["admissible"] = step.admissible
    _dump(out)
    return 5 if getattr(args, "strict", False) and step.admissible is False else 0


def cmd_concat(args: argparse.Namespace) -> int:
    entry = {"op": "concat"}
    # --lift and --gate-out ask for a lift, which the step refuses without --gate
    if args.gate or args.lift is not None or args.gate_out:
        entry["lift"] = "next_level_rotation" if args.lift is None else args.lift
    return _run_step(args, entry)


def cmd_remove_z(args: argparse.Namespace) -> int:
    return _run_step(args, {"op": "remove_z", "w0": args.w0})


def cmd_add_x(args: argparse.Namespace) -> int:
    return _run_step(args, {"op": "add_x", "x0": args.x0})


def cmd_pipeline(args: argparse.Namespace) -> int:
    code, gate = _load_inputs(args)
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
    _write_outputs(args, result.code, result.gate)
    if args.oracle and result.gate is not None and result.code.n <= oracle.MAX_N:
        try:
            chk = oracle.crosscheck(result.code, result.gate, budget=args.budget)
        except BudgetExceeded as exc:
            out["oracle"] = {"available": False, "reason": str(exc)}
        else:
            out["oracle"] = {
                "verdicts_agree": chk.verdicts_agree,
                "max_row_deviation": chk.max_row_deviation,
            }
    _dump(out)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    code, gate = _load_inputs(args)
    chk = oracle.crosscheck(code, gate, tol=args.tol, budget=args.budget)
    _dump(asdict(chk))
    return 0 if chk.ok else 3


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=int, default=gf2.DEFAULT_BUDGET,
                   help="enumeration budget in vectors (default 2^26)")


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
    p.add_argument("--wmax", type=int, default=6, help="distances up to this are always exact")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="full report: distances, preservation, logical gate")
    p.add_argument("--code", required=True)
    p.add_argument("--gate")
    p.add_argument("--oracle", action="store_true", help="append the float crosscheck")
    p.add_argument("--wmax", type=int, default=6, help="distances up to this are always exact")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("concat", help="concatenate a code (optionally lifting its gate)")
    p.add_argument("--code", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gate")
    p.add_argument("--gate-out", dest="gate_out")
    p.add_argument("--lift", help="lift policy (default next_level_rotation; needs --gate)")
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
