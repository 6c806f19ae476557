"""The three code transformations and the pipeline executor.

Concatenation doubles the qubits (pairing qubit i with i+n) and is always
admissible for any gate whose doubled diagonal restricts correctly on the
pairs.  Removing a Z-stabilizer adjoins a new X-logical w0 and splits every
coefficient in two; adding an X-stabilizer halves the logicals and reshapes
the coefficient table.  Either may break preservation, so both return the
new code together with an exact admissibility verdict, decided at every
k by one rule: whether the gate preserves the new code (``_verdict``;
None only when no gate is given or the check is skipped).  One walk of
low-degree points settles it (``gencoeff._low_degree``, which walks only
the points a step adds when the input is memoized as preserved): the step
is admissible iff no point fails, and an inadmissible step names the
first failing point as its witness, two words of one coset of the new
code where the gate differs.

Each step updates its code instead of rebuilding it: it writes the new
canonical bases itself (``gf2.insert_reduced`` or
``gf2.restrict_to_hyperplane``) and builds the code with the unvalidated
step constructor ``CssCode._grown``, passing the parent's own basis for
the side it leaves unchanged, so that side's cached structures carry over.
Each step's docstring proves its bases canonical.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from . import gencoeff, gf2
from .csscode import CssCode
from .errors import BudgetExceeded, InadmissibleStep, OddComponent
from .gates import DiagonalGate, entry_exponent, gate_from_json, lift, _as_zrot
from .gf2 import BitMat, BitVec


def concatenate(code: CssCode) -> CssCode:
    """The doubled code: X-stabilizers repeat each word on both halves,
    Z-stabilizers are the pairs summing into the old Z-stabilizer code, and
    the character vector repeats.  Logical count is unchanged; X-distance
    doubles and Z-distance cannot drop.

    The rows are canonical as written.  X row r | r << n keeps r's pivot
    and gains bits only above n.  Z row i is 1<<i | (e_i ^ row_i) << n,
    row_i the old Z row with pivot i (else 0): e_i ^ row_i has no bit at
    an old Z pivot, so the row has none at a pivot n + p of the rows
    r << n that follow."""
    n, m = code.n, 2 * code.n
    pivot_rows = {r & -r: r for r in code.z_stab.row_ints()}
    x_rows = [r | r << n for r in code.x_stab.row_ints()]
    z_rows = [1 << i | (1 << i ^ pivot_rows.get(1 << i, 0)) << n for i in range(n)]
    z_rows += [r << n for r in code.z_stab.row_ints()]

    def mat(rows: list[int]) -> BitMat:
        return BitMat(m, [BitVec(m, r) for r in rows])

    y2 = BitVec(m, code.y.bits | code.y.bits << n)
    return CssCode._grown(code, mat(x_rows), mat(z_rows), y2)


# two words of one coset of the new code, u ^ v in C2, where the gate's
# exponents differ
Witness = tuple[BitVec, BitVec]


@dataclass
class RemovalResult:
    code: CssCode
    gamma0: BitVec
    admissible: bool | None  # None when no gate is given or check="skip"
    witness: Witness | None = None


def _verdict(
    code: CssCode,
    new_code: CssCode,
    gate: DiagonalGate | None,
    check: str,
    budget: int,
    word: BitVec,
    added: bool = False,
) -> tuple[bool | None, Witness | None]:
    """Whether the gate preserves the code a step produces from ``code``,
    with the witness.  The step removes the Z-stabilizer paired with
    ``word``, or, if ``added``, adds ``word`` as an X-stabilizer.  One
    low-degree walk decides (``gencoeff._low_degree``); past the budget
    ``is_preserved`` does, with no witness.  ``check`` is "auto" or "skip"; the verdict is None
    when it is "skip" or no gate is given."""
    # a step's check comes from user scripts
    if check not in ("auto", "skip"):
        raise ValueError(f'check must be "auto" or "skip", got {check!r}')
    if gate is None or check == "skip":
        return None, None
    try:
        point = gencoeff._low_degree(new_code, gate, budget, (code, word, added))
    except BudgetExceeded:
        return gencoeff.is_preserved(new_code, gate, budget).preserved, None
    return point is None, point


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
    still preserves it, and ``witness`` where it fails (``_verdict``).
    Its Z basis is ``gf2.restrict_to_hyperplane``'s of the canonical Z
    rows, which is canonical; the X basis stays, so C2-perp and the C2
    reducer carry over.
    """
    if w0.n != code.n:
        raise ValueError("w0 must have length n")
    new_z, gamma0 = _split_z_stab(code, w0)
    new_code = CssCode._grown(code, code.x_stab, new_z, code.y)
    return RemovalResult(
        new_code, gamma0, *_verdict(code, new_code, gate, check, budget, w0)
    )


@dataclass
class AdditionResult:
    code: CssCode
    mu0: BitVec
    admissible: bool | None  # None when no gate is given or check="skip"
    witness: Witness | None = None


def add_x(
    code: CssCode,
    gate: DiagonalGate | None,
    x0: BitVec,
    check: str = "auto",
    budget: int = gf2.DEFAULT_BUDGET,
) -> AdditionResult:
    """Adjoin the X-logical x0 as a new X-stabilizer.

    Admissible exactly when the gate preserves the new code, and
    ``witness`` names where it fails (``_verdict``).  The displaced
    Z-logical mu0 becomes a syndrome representative of the new code.

    A new coset joins two old ones, x_beta + C2 and x_beta + x0 + C2, so
    an admissible addition needs a preserved input; only on one does the
    paper's half-row criterion (the induced diagonal's transform vanishes
    on the gamma that pair with x0) give the same verdict.

    The new X basis is the canonical rows with x0 reduced mod C2 inserted
    (``gf2.insert_reduced``).  The Z basis stays, so C1 carries over.
    The canonical Z-logical basis (C2-perp mod C1-perp), which the next
    addition reads, becomes its part orthogonal to x0, canonical from
    ``gf2.restrict_to_hyperplane`` (C1-perp is orthogonal to x0, so the
    quotient restricts with C2-perp).  No step reads the new code's
    C2-perp, so it is derived only if something asks for it.
    """
    if x0.n != code.n:
        raise ValueError("x0 must have length n")
    # C1 = (C1-perp)-perp: x0 lies in C1 iff it pairs evenly with every Z row
    r0 = code.c2_reducer.reduce_int(x0.bits)
    if any((x0.bits & z).bit_count() & 1 for z in code.z_stab.row_ints()) or not r0:
        raise ValueError("x0 must lie in C1 but not in C2")
    # x0 lies in C1 less C2, so some row of the canonical Z-logical basis
    # pairs with it
    mu0 = next(row for row in code._z_logicals if row.dot(x0))
    new_code = CssCode._grown(
        code, gf2.insert_reduced(code.x_stab, r0), code.z_stab, code.y,
        _z_logicals=gf2.restrict_to_hyperplane(code._z_logicals, x0)[0],
    )
    return AdditionResult(
        new_code, mu0, *_verdict(code, new_code, gate, check, budget, x0, True)
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
    if not any((w0.bits & z).bit_count() & 1 for z in code.z_stab.row_ints()):
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
    verts = sorted({q for r in code.x_stab for q in r.support()})
    # an edge {i, j} means e_i = e_j mod C1perp, an equivalence: the
    # components are the classes of the reduced unit vectors
    red = gf2.Reducer(code.z_stab)
    comps: dict[int, list[int]] = {}
    for v in verts:
        comps.setdefault(red.reduce_int(1 << v), []).append(v)
    bits = 0
    for comp in comps.values():
        if len(comp) % 2:
            raise OddComponent(f"component {comp} has odd size")
        for q in comp[: len(comp) // 2]:
            bits |= 1 << q
    y2 = BitVec(code.n, bits)
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
        return asdict(self)


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
    script: list[dict],
    strict: bool = False,
    budget: int = gf2.DEFAULT_BUDGET,
) -> PipelineResult:
    """Execute a JSON script of operations.

    Ops: {"op": "concat", "lift": policy?}, {"op": "remove_z", "w0": bits},
    {"op": "add_x", "x0": bits}, {"op": "set_gate", "gate": {...}} and
    {"op": "verify"}.  With strict=True an inadmissible step raises."""
    if not isinstance(script, list):
        raise ValueError("pipeline script: expected a list of steps")
    steps: list[SynthStep] = []
    for i, entry in enumerate(script, 1):
        if not isinstance(entry, dict) or not isinstance(entry.get("op"), str):
            raise ValueError(f"pipeline step {i}: expected an object with a string 'op'")
        op = entry["op"]
        key = {"remove_z": "w0", "add_x": "x0", "set_gate": "gate"}.get(op)
        if key is not None and key not in entry:
            raise ValueError(f"pipeline step {i} ({op}): missing key {key!r}")
        before = _summary(code)
        if op == "concat":
            policy = entry.get("lift")
            code = concatenate(code)
            detail = {}
            if policy is not None:
                if gate is None:
                    raise ValueError("concat lift requested but no gate loaded")
                gate = lift(gate, policy)
                detail["lift"] = policy
            steps.append(SynthStep("concat", dict(entry), before, _summary(code), True, detail))
        elif op in ("remove_z", "add_x"):
            removal = op == "remove_z"
            word = BitVec.from_string(entry[key])
            res = (remove_z if removal else add_x)(
                code, gate, word, check=entry.get("check", "auto"), budget=budget
            )
            code = res.code
            detail = {"gamma0": res.gamma0.to01()} if removal else {"mu0": res.mu0.to01()}
            if res.witness is not None:
                u, v = res.witness
                exps = [entry_exponent(gate, u), entry_exponent(gate, v)]
                detail["witness"] = {"u": u.to01(), "v": v.to01(), "exponents": exps}
            steps.append(SynthStep(op, {key: entry[key]}, before, _summary(code), res.admissible, detail))
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
