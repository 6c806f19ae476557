"""Assembly of the deterministic JSON reports emitted by the CLI."""

from __future__ import annotations

from typing import Any

from . import gencoeff, gf2, hierarchy, oracle
from .csscode import CssCode, code_to_json
from .errors import BudgetExceeded
from .gates import DiagonalGate, gate_to_json


def code_summary(code: CssCode, w_max: int, budget: int) -> dict[str, Any]:
    out: dict[str, Any] = {"n": code.n, "k": code.k}
    if code.k > 0:
        d_x, d_z = code.distances(w_max, budget)
        out["d_x"] = {"value": d_x.value, "exact": d_x.exact}
        out["d_z"] = {"value": d_z.value, "exact": d_z.exact}
    return out


def logical_summary(code: CssCode, gate: DiagonalGate, budget: int) -> dict[str, Any]:
    try:
        diag = gencoeff.induced_logical(code, gate, budget=budget)
    except BudgetExceeded as exc:
        return {"available": False, "reason": str(exc)}
    poly = hierarchy.phase_polynomial(list(diag.exps), diag.k, diag.level)
    out: dict[str, Any] = {
        "available": True,
        "level": hierarchy.level(poly),
        "description": hierarchy.describe(poly),
    }
    if diag.k <= hierarchy.BASIS_CHANGE_MAX_K:
        m = hierarchy.identify(list(diag.exps), diag.k, diag.level)
        if m.matched:
            out["template"] = m.template
            out["global_phase_exp"] = m.global_phase_exp
            out["pauli_z_mask"] = m.pauli_z_mask.to01() if m.pauli_z_mask else None
            out["basis_change"] = list(m.basis_change) if m.basis_change else None
    return out


def build_report(
    code: CssCode,
    gate: DiagonalGate | None,
    w_max: int = 6,
    budget: int = gf2.DEFAULT_BUDGET,
    include_row: bool = True,
    include_oracle: bool = False,
    tol: float = oracle.DEFAULT_TOL,
) -> dict[str, Any]:
    # the verdict comes first, so that a refusal does not wait for the
    # distance search; the code summary still leads the report.  The
    # verdict's trivial row, when it has one, is the only row computed:
    # without it, trivial_row refuses at the same budget.
    rep: dict[str, Any] = {}
    pres: gencoeff.PreservationResult | None = None
    if gate is not None:
        rep["gate"] = gate_to_json(gate)
        pres = gencoeff.is_preserved(code, gate, budget=budget)
        rep["preserved"] = pres.preserved
        rep["preservation_method"] = pres.method
        if pres.norm is not None:
            rep["norm"] = pres.norm.serialize()
            rep["norm_pretty"] = pres.norm.pretty()
        rep["certificate"] = "exact-full"
    rep = {"code": code_summary(code, w_max, budget), "code_json": code_to_json(code), **rep}
    if gate is None:
        return rep
    row = pres.row
    if include_row:
        if row is not None:
            rep["trivial_row"] = row.to_json()
            rep["trivial_row_exactness"] = row.exactness
        else:
            rep["trivial_row"] = None
    if rep.get("preserved"):
        rep["logical"] = logical_summary(code, gate, budget)
    if include_oracle and code.n <= oracle.MAX_N:
        if row is None:
            # no trivial row (past the row cap or the budget): crosscheck
            # raises what it always raised
            chk = oracle.crosscheck(code, gate, tol=tol, budget=budget)
        else:
            chk = oracle.compare_with_engine(code, gate, pres, row, tol)
        rep["oracle"] = {
            "verdicts_agree": chk.verdicts_agree,
            "max_row_deviation": chk.max_row_deviation,
            "max_offdiag": chk.max_offdiag,
            "tol": chk.tol,
        }
    return rep
