"""The three code transformations and the pipeline executor.

Concatenation doubles the qubits (pairing qubit i with i+n) and is always
admissible for any gate whose doubled diagonal restricts correctly on the
pairs.  Removing a Z-stabilizer adjoins a new X-logical w0 and splits every
coefficient in two; adding an X-stabilizer halves the logicals and reshapes
the coefficient table.  Either may break preservation, so both return the
new code together with an exact admissibility verdict, decided at every
k (None only when no gate is given or the check is skipped).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from . import gencoeff, gf2
from .csscode import CssCode
from .cyclo import Cyclo
from .errors import BudgetExceeded, InadmissibleStep, OddComponent
from .gates import DiagonalGate, gate_from_json, lift, _as_zrot
from .gf2 import BitMat, BitVec


def concatenate(code: CssCode) -> CssCode:
    """The doubled code: X-stabilizers repeat each word on both halves,
    Z-stabilizers are the pairs summing into the old Z-stabilizer code, and
    the character vector repeats.  Logical count is unchanged; X-distance
    doubles and Z-distance cannot drop."""
    n = code.n
    x_rows = [r.concat(r) for r in code.x_stab]
    z_rows = [BitVec.unit(n, i).concat(BitVec.unit(n, i)) for i in range(n)]
    z_rows += [BitVec.zeros(n).concat(r) for r in code.z_stab]
    y2 = code.y.concat(code.y)
    return CssCode(2 * n, BitMat(2 * n, x_rows), BitMat(2 * n, z_rows), y2)


@dataclass
class RemovalResult:
    code: CssCode
    gamma0: BitVec
    admissible: bool | None  # None when no gate is given or check="skip"
    new_row_norm: Cyclo | None = None


def _split_z_stab(code: CssCode, w0: BitVec) -> tuple[BitMat, BitVec]:
    """Shrink the Z-stabilizer basis to the part pairing trivially with the
    new X-logical w0, returning it with the removed stabilizer gamma0."""
    try:
        return gf2.restrict_to_hyperplane(code.z_stab, w0)
    except ValueError:
        raise ValueError("w0 lies in C1: no Z-stabilizer pairs with it") from None


def remove_z(
    code: CssCode,
    gate: DiagonalGate | None,
    w0: BitVec,
    check: str = "auto",
    budget: int = gf2.DEFAULT_BUDGET,
) -> RemovalResult:
    """Remove the Z-stabilizer paired with the new X-logical w0.

    The new code always comes back; ``admissible`` reports whether the gate
    still preserves it, from ``gencoeff.is_preserved`` on the new code (the
    row norm, kept as ``new_row_norm``, or the low-degree test).  ``check``
    is "auto" or "full" (the same exact check) or "skip".
    """
    if w0.n != code.n:
        raise ValueError("w0 must have length n")
    new_z, gamma0 = _split_z_stab(code, w0)
    new_code = CssCode(code.n, code.x_stab, new_z, code.y)
    assert new_code.k == code.k + 1
    if gate is None or check == "skip":
        return RemovalResult(new_code, gamma0, None)
    pres = gencoeff.is_preserved(new_code, gate, budget)
    return RemovalResult(new_code, gamma0, pres.preserved, pres.norm)


def add_z(code: CssCode, gamma0: BitVec) -> CssCode:
    """Inverse of remove_z: adjoin gamma0 as a Z-stabilizer, grouping the
    split coefficients back together."""
    if code.c1perp_reducer.contains(gamma0):
        raise ValueError("gamma0 is already a Z-stabilizer")
    if not code.c2perp_reducer.contains(gamma0):
        raise ValueError("gamma0 must commute with the X-stabilizers")
    rows = list(code.z_stab.rows) + [gamma0]
    return CssCode(code.n, code.x_stab, BitMat(code.n, rows), code.y)


@dataclass
class AdditionResult:
    code: CssCode
    mu0: BitVec
    admissible: bool | None  # None when no gate is given or check="skip"
    witness: tuple[BitVec, Cyclo] | None = None  # nonzero coefficient blocking it


def add_x(
    code: CssCode,
    gate: DiagonalGate | None,
    x0: BitVec,
    check: str = "auto",
    budget: int = gf2.DEFAULT_BUDGET,
) -> AdditionResult:
    """Adjoin the X-logical x0 as a new X-stabilizer.

    Admissible exactly when every trivial-syndrome coefficient on a logical
    that pairs with x0 vanishes (half the row); the first nonzero value is
    reported as a witness.  The displaced Z-logical mu0 becomes a syndrome
    representative of the new code.

    Above the row cap the low-degree test on the new code comes first.  A
    new coset joins two old ones, x_beta + C2 and x_beta + x0 + C2, so the
    new code is preserved iff the input is and its induced diagonal
    zeta^E(beta) is invariant under the shift by x0; on a preserved input
    that holds iff the half row, E's transform on the gamma that pair with
    x0, vanishes.  So a preserved new code is admissible with no witness,
    and otherwise the half row decides: "auto" and "full" agree at every k.
    """
    if x0.n != code.n:
        raise ValueError("x0 must have length n")
    if not code.c1_reducer.contains(x0) or code.c2_reducer.contains(x0):
        raise ValueError("x0 must lie in C1 but not in C2")
    mu0 = None
    for row in code.frame.z_logical_basis:
        if row.dot(x0):
            mu0 = row
            break
    assert mu0 is not None, "pairing is nondegenerate"
    new_x = BitMat(code.n, list(code.x_stab.rows) + [x0])
    new_code = CssCode(code.n, new_x, code.z_stab, code.y)
    assert new_code.k == code.k - 1
    if gate is None or check == "skip":
        return AdditionResult(new_code, mu0, None)
    if 1 << code.k > gencoeff._ROW_CAP:
        try:
            if gencoeff._low_degree(new_code, gate, budget):
                return AdditionResult(new_code, mu0, True)
        except BudgetExceeded:
            pass  # the half row may still fit
    # the logicals that pair with x0, in frame order
    basis = code.frame.z_logical_basis.row_ints()
    gammas = [
        BitVec(code.n, g)
        for g in gf2.span_ints(basis, budget)
        if (g & x0.bits).bit_count() & 1
    ]
    row = gencoeff.syndrome_row(code, gate, BitVec.zeros(code.n), gammas, budget)
    nonzero = row.ints.any(axis=1)
    if not nonzero.any():
        return AdditionResult(new_code, mu0, True)
    i = int(nonzero.argmax())
    witness = (gammas[i], Cyclo(gate.level, row.ints[i].tolist(), row.denom))
    return AdditionResult(new_code, mu0, False, witness)


def remove_x(code: CssCode, x0: BitVec) -> CssCode:
    """Inverse of add_x: drop x0 from the X-stabilizer group, keeping the
    deterministic index-two subgroup that avoids it."""
    red = code.c2_reducer
    if not red.contains(x0) or not x0:
        raise ValueError("x0 must be a nonzero X-stabilizer")
    rows = list(code.x_stab.row_ints())
    # positions of basis rows entering x0's expansion
    combo = []
    rem = x0.bits
    for i, (row, p) in enumerate(zip(red.rows, red.pivots)):
        if (rem >> p) & 1:
            combo.append(i)
            rem ^= row
    assert rem == 0
    j_star = combo[0]
    new_rows = []
    for i, row in enumerate(rows):
        if i == j_star:
            continue
        new_rows.append(row ^ rows[j_star] if i in combo else row)
    return CssCode(
        code.n,
        BitMat(code.n, [BitVec(code.n, r) for r in new_rows]),
        code.z_stab,
        code.y,
    )


def half_support_remove_z(
    code: CssCode,
    gate: DiagonalGate,
    budget: int = gf2.DEFAULT_BUDGET,
) -> RemovalResult:
    """The canonical removal after concatenation: adjoin the new X-logical
    supported on the whole first half.  With the half-angle transversal
    rotation this split is always admissible and raises the induced logical
    one level."""
    if code.n % 2:
        raise ValueError("expected a concatenated (even-length) code")
    n = code.n // 2
    rot = _as_zrot(gate)
    if rot is None or rot[0] != code.n:
        raise ValueError("expected a transversal rotation on the doubled code")
    w0 = BitVec.ones(n).concat(BitVec.zeros(n))
    if code.c1_reducer.contains(w0):
        raise ValueError("the half-support word is already an X-logical or stabilizer")
    return remove_z(code, gate, w0, budget=budget)


# ----------------------------------------------------------------------
# computation/storage switching


@dataclass(frozen=True)
class DfsSwitch:
    y_balanced: BitVec
    x_positions: BitVec


def dfs_switch(code: CssCode) -> DfsSwitch:
    """Sign-balanced character vector for coherent-noise storage.

    Vertices are the qubits supporting some X-stabilizer; edges are
    weight-2 Z-stabilizers.  Each connected component must have even size;
    the balanced vector supports the lower-indexed half of every component
    (ties broken by sorted qubit index).  Flipping the qubits where it
    differs from the stored character vector switches between computation
    and storage."""
    n = code.n
    verts = set()
    for r in code.x_stab:
        verts.update(r.support())
    verts = sorted(verts)
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    red = code.c1perp_reducer
    for i_idx, i in enumerate(verts):
        for j in verts[i_idx + 1 :]:
            if red.contains_int((1 << i) | (1 << j)):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    comps: dict[int, list[int]] = {}
    for v in verts:
        comps.setdefault(find(v), []).append(v)
    bits = 0
    for comp in comps.values():
        comp.sort()
        if len(comp) % 2:
            raise OddComponent(f"component {comp} has odd size")
        for q in comp[: len(comp) // 2]:
            bits |= 1 << q
    y2 = BitVec(n, bits)
    return DfsSwitch(y2, y2 ^ code.y)


# ----------------------------------------------------------------------
# pipelines


@dataclass
class SynthStep:
    kind: str
    params: dict
    before: dict
    after: dict
    admissible: bool | None = None
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "before": self.before,
            "after": self.after,
            "admissible": self.admissible,
            "detail": self.detail,
        }


@dataclass
class PipelineResult:
    code: CssCode
    gate: DiagonalGate | None
    steps: list[SynthStep]


def _summary(code: CssCode) -> dict:
    return {"n": code.n, "k": code.k}


def run_pipeline(
    code: CssCode,
    gate: DiagonalGate | None,
    script: Sequence[dict],
    strict: bool = False,
    budget: int = gf2.DEFAULT_BUDGET,
) -> PipelineResult:
    """Execute a JSON script of operations.

    Ops: {"op": "concat", "lift": policy?}, {"op": "remove_z", "w0": bits},
    {"op": "add_x", "x0": bits}, {"op": "set_gate", "gate": {...}} and
    {"op": "verify"}.  With strict=True an inadmissible step raises."""
    steps: list[SynthStep] = []
    for entry in script:
        op = entry["op"]
        before = _summary(code)
        if op == "concat":
            policy = entry.get("lift")
            code = concatenate(code)
            detail = {}
            if policy:
                if gate is None:
                    raise ValueError("concat lift requested but no gate loaded")
                gate = lift(gate, policy)
                detail["lift"] = policy
            steps.append(SynthStep("concat", dict(entry), before, _summary(code), True, detail))
        elif op == "remove_z":
            w0 = BitVec.from_string(entry["w0"])
            res = remove_z(code, gate, w0, check=entry.get("check", "auto"), budget=budget)
            code = res.code
            steps.append(
                SynthStep(
                    "remove_z",
                    {"w0": entry["w0"]},
                    before,
                    _summary(code),
                    res.admissible,
                    {"gamma0": res.gamma0.to01()},
                )
            )
        elif op == "add_x":
            x0 = BitVec.from_string(entry["x0"])
            res = add_x(code, gate, x0, check=entry.get("check", "auto"), budget=budget)
            code = res.code
            detail = {"mu0": res.mu0.to01()}
            if res.witness is not None:
                detail["witness"] = {
                    "gamma": res.witness[0].to01(),
                    "value": res.witness[1].serialize(),
                }
            steps.append(
                SynthStep("add_x", {"x0": entry["x0"]}, before, _summary(code), res.admissible, detail)
            )
        elif op == "set_gate":
            gate = gate_from_json(entry["gate"])
            steps.append(SynthStep("set_gate", dict(entry), before, _summary(code), True))
        elif op == "verify":
            if gate is None:
                raise ValueError("verify step requires a gate")
            pres = gencoeff.is_preserved(code, gate, budget=budget)
            steps.append(
                SynthStep(
                    "verify",
                    {},
                    before,
                    _summary(code),
                    pres.preserved,
                    {
                        "method": pres.method,
                        "norm": pres.norm.serialize() if pres.norm is not None else None,
                    },
                )
            )
        else:
            raise ValueError(f"unknown pipeline op {op!r}")
        if strict and steps[-1].admissible is False:
            raise InadmissibleStep(
                f"step {len(steps)} ({op}) is inadmissible", step=steps[-1]
            )
    return PipelineResult(code, gate, steps)
