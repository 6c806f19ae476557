"""Constructors and pipelines for the built-in code families.

Each family carries its canonical transversal rotation; ``FAMILIES`` maps
CLI names to builders.  Every family grown from a smaller code emits a
script in the op vocabulary of ``diagsynth pipeline`` and runs it through
``synth.run_pipeline``, the one place that applies an operation and
records its step.  The [[2^l, l, 2]] chain and the triorthogonal family
repeat concatenation (lifting the rotation to the half angle) followed by
the half-support Z-stabilizer removal.  The quantum Reed-Muller pipeline
rebuilds the next family member from the previous one by concatenating,
retargeting the physical rotation one level up, removing the
Z-stabilizers that grow the X-logical code to the next Reed-Muller space,
and adding the X-stabilizers that complete the smaller one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from . import gencoeff, gf2, synth
from .csscode import CssCode
from .cyclo import Cyclo
from .gates import DiagonalGate, transversal_zrot
from .gf2 import BitMat, BitVec
from .hierarchy import rotation_name


@dataclass(frozen=True)
class FamilySpec:
    name: str
    parameters: tuple[int, ...]
    expected_n: int
    expected_k: int
    expected_d: int
    gate_description: str
    logical_description: str


@dataclass
class FamilyBuild:
    spec: FamilySpec
    code: CssCode
    gate: DiagonalGate


# ----------------------------------------------------------------------
# Reed-Muller machinery


@lru_cache(maxsize=None)
def rm_generator(r: int, m: int) -> BitMat:
    """Canonical generator matrix of the Reed-Muller code RM(r, m) via the
    (u, u + v) recursion; dim = sum_{i<=r} C(m, i)."""
    if not 0 <= r <= m:
        raise ValueError("need 0 <= r <= m")
    n = 1 << m
    if m == 0:
        return BitMat(1, [BitVec(1, 1)])
    if r == 0:
        return BitMat(n, [BitVec.ones(n)])
    if r == m:
        mat, _ = gf2.rref(BitMat.identity(n))
        return mat
    upper = rm_generator(r, m - 1)
    lower = rm_generator(r - 1, m - 1)
    rows = [u.concat(u) for u in upper]
    rows += [BitVec.zeros(n >> 1).concat(v) for v in lower]
    mat, _ = gf2.rref(BitMat(n, rows))
    assert mat.num_rows == sum(comb(m, i) for i in range(r + 1))
    return mat


def shortened_rm(r: int, m: int) -> BitMat:
    """RM(r, m) shortened at coordinate 0: keep words vanishing there,
    delete the coordinate, and list the survivors in descending point
    order (qubit q holds old coordinate 2^m - 1 - q), which reproduces the
    textbook Hamming layout at (r, m) = (1, 3)."""
    base = rm_generator(r, m)
    red = gf2.Reducer(base)
    kept: list[int] = []
    # at most one RREF row has a 1 in position 0 (its pivot); drop it
    for row in red.rows:
        if row & 1:
            continue
        kept.append(row >> 1)
    n = (1 << m) - 1
    reversed_rows = []
    for row in kept:
        rev = 0
        for q in range(n):
            if (row >> q) & 1:
                rev |= 1 << (n - 1 - q)
        reversed_rows.append(rev)
    mat, _ = gf2.rref(BitMat(n, [BitVec(n, x) for x in reversed_rows]))
    return mat


def qrm_code(r: int, m: int) -> CssCode:
    """The Reed-Muller CSS code with X-stabilizers RM(r-1, m) and
    Z-stabilizers RM(m-r-1, m), trivial character vector."""
    if not 1 <= r < m:
        raise ValueError("need 1 <= r < m")
    x_stab = rm_generator(r - 1, m)
    z_stab = rm_generator(m - r - 1, m)
    code = CssCode(1 << m, x_stab, z_stab)
    assert code.k == comb(m, r)
    return code


def qrm_gate(r: int, m: int) -> DiagonalGate:
    """The transversal rotation preserving qrm_code(r, m); requires r | m."""
    if m % r:
        raise ValueError("the canonical rotation needs r | m")
    return transversal_zrot(1 << m, m // r)


# ----------------------------------------------------------------------
# named small families


def steane_code() -> CssCode:
    h = BitMat.from_strings(["1111000", "1100110", "1010101"])
    return CssCode(7, h, h)


def four22_code() -> CssCode:
    rep = BitMat.from_strings(["1111"])
    return CssCode(4, rep, rep)


def _half_support_growth(
    code: CssCode, gate: DiagonalGate, times: int, budget: int
) -> synth.PipelineResult:
    """Concatenate with the half-angle rotation lift, then remove the
    Z-stabilizer paired with the word on the whole first half, ``times``
    times over.  Every step must be admissible."""
    script = []
    for i in range(times):
        n = code.n << i
        script += [
            {"op": "concat", "lift": "next_level_rotation"},
            {"op": "remove_z", "w0": "1" * n + "0" * n},
        ]
    return synth.run_pipeline(code, gate, script, strict=True, budget=budget)


def family_2l_l_2(l: int, budget: int = gf2.DEFAULT_BUDGET) -> FamilyBuild:
    """The [[2^l, l, 2]] chain built by repeated concatenation (with the
    half-angle rotation lift) and the canonical half-support removal.
    Every removal is admissible and raises the logical level by one."""
    if not 2 <= l <= 6:
        raise ValueError("supported range is 2 <= l <= 6")
    res = _half_support_growth(four22_code(), transversal_zrot(4, 2), l - 2, budget)
    spec = FamilySpec(
        "two_l", (l,), 1 << l, l, 2,
        f"transversal_zrot({1 << l},{l})",
        f"C^({l - 1})Z up to logical Pauli Z",
    )
    return FamilyBuild(spec, res.code, res.gate)


def expected_2l_row(l: int) -> list[Cyclo]:
    """((2^(l-1)-1)/2^(l-1), then -1/2^(l-1) repeated)."""
    lead = Cyclo.dyadic((1 << (l - 1)) - 1, l - 1)
    rest = Cyclo.dyadic(-1, l - 1)
    return [lead] + [rest] * ((1 << l) - 1)


def punctured_qrm(l: int) -> CssCode:
    """The [[2^(l+1)-1, 1, 3]] member: X-stabilizers from the shortened
    first-order Reed-Muller code, Z-stabilizers from the shortened
    order-(l-1) one."""
    if l < 2:
        raise ValueError("need l >= 2")
    m = l + 1
    x_stab = shortened_rm(1, m)
    z_stab = shortened_rm(l - 1, m)
    code = CssCode((1 << m) - 1, x_stab, z_stab)
    assert code.k == 1
    return code


def triorthogonal_2(l: int, budget: int = gf2.DEFAULT_BUDGET) -> FamilyBuild:
    """The [[2^(l+2)-2, 2, 2]] code: concatenate the punctured member and
    apply the canonical half-support removal with the half-angle rotation."""
    base = punctured_qrm(l)
    res = _half_support_growth(base, transversal_zrot(base.n, l), 1, budget)
    spec = FamilySpec(
        "tri2", (l,), (1 << (l + 2)) - 2, 2, 2,
        f"transversal_zrot({(1 << (l + 2)) - 2},{l + 1})",
        f"({rotation_name(l + 1, False)} dagger) pair",
    )
    return FamilyBuild(spec, res.code, res.gate)


# ----------------------------------------------------------------------
# the QRM growth pipeline


@dataclass
class QrmPipelineResult:
    start: CssCode
    pre_removal: CssCode  # after the concatenations
    pre_addition: CssCode  # after the removals
    final: CssCode
    gate: DiagonalGate
    steps: list[synth.SynthStep]
    concat_count: int
    removal_count: int
    addition_count: int

    def intermediate(self, kind: str) -> CssCode | None:
        """Last code state before the first step of the given kind."""
        return {"remove_z": self.pre_removal, "add_x": self.pre_addition}.get(kind)


def qrm_pipeline(r: int, m: int, budget: int = gf2.DEFAULT_BUDGET) -> QrmPipelineResult:
    """Grow qrm_code(r, m) into qrm_code(r+1, m+h) with h = r + m/r + 1.

    Concatenate h times, retarget the rotation one level up, remove the
    Z-stabilizers that extend the X-logical code to RM(r+1, m+h), then add
    the X-stabilizers that complete RM(r, m+h).  Every removal and addition
    step carries its exact admissibility verdict, and the final code is
    checked against the direct construction.
    """
    if m % r:
        raise ValueError("need r | m")
    h = r + m // r + 1
    start = qrm_code(r, m)
    grown = synth.run_pipeline(start, None, [{"op": "concat"}] * h, budget=budget)
    pre = grown.code
    gate = transversal_zrot(pre.n, m // r + 1)

    # complement bases keep each candidate independent of the growing space
    w0_list = gf2.quotient_basis(rm_generator(r + 1, m + h), pre.c1)
    removed = synth.run_pipeline(
        pre, gate, [{"op": "remove_z", "w0": w0.to01()} for w0 in w0_list], budget=budget
    )
    inter = removed.code
    x0_list = gf2.quotient_basis(rm_generator(r, m + h), inter.x_stab)
    added = synth.run_pipeline(
        inter, gate, [{"op": "add_x", "x0": x0.to01()} for x0 in x0_list], budget=budget
    )
    code = added.code

    direct = qrm_code(r + 1, m + h)
    assert code.x_stab == direct.x_stab and code.z_stab == direct.z_stab, (
        "pipeline result differs from the direct construction"
    )
    return QrmPipelineResult(
        start, pre, inter, code, gate,
        grown.steps + removed.steps + added.steps,
        h, len(removed.steps), len(added.steps),
    )


def qrm_pipeline_certificate(
    result: QrmPipelineResult,
    n_gamma: int = 100,
    n_syndrome_pairs: int = 100,
    seed: int = 0,
    budget: int = gf2.DEFAULT_BUDGET,
) -> dict:
    """Exact-full preservation certificate for the pipeline's final code.

    Derives the induced logical diagonal from codeword sums, checks that it
    is a product of fully-controlled-Z factors on logical triples (up to
    global phase and Pauli-Z), and checks the whole coefficient table
    against it (``gencoeff.whole_table_check``, which reads it coset by
    coset from the span table, with no transform).  ``sampled_gamma_count``
    (the k unit logicals and the seed's distinct draws of n_gamma) and
    ``syndrome_pair_count`` give the size of the former spot check, now a
    subset of what is checked.
    """
    import random

    from .hierarchy import level as poly_level, phase_polynomial

    code, gate = result.final, result.gate
    k = code.k
    exps = gencoeff.logical_diagonal_exponents(code, gate, budget=budget)
    poly = phase_polynomial(exps, k, gate.level)
    half = 1 << (gate.level - 1)
    cubic = [mask for mask, c in poly.coeffs if mask.bit_count() == 3 and c == half]
    bad = [
        (mask, c)
        for mask, c in poly.coeffs
        if mask.bit_count() not in (0, 1, 3)
        or (mask.bit_count() == 1 and c not in (0, half))
        or (mask.bit_count() == 3 and c != half)
    ]
    rng = random.Random(seed)
    draws = {rng.randrange(1, 1 << k) for _ in range(n_gamma)}
    trivial, null = gencoeff.whole_table_check(code, gate, exps, budget=budget)
    return {
        "logical_level": poly_level(poly),
        "ccz_factor_count": len(cubic),
        "ccz_product_form": not bad,
        "unexpected_monomials": bad,
        "sampled_gamma_count": len(draws | {1 << i for i in range(k)}),
        "coefficients_match_prediction": trivial,
        "syndrome_pairs_zero": null,
        "syndrome_pair_count": n_syndrome_pairs,
        "exactness": "exact-full",
    }


# ----------------------------------------------------------------------
# registry


def _build_steane() -> FamilyBuild:
    spec = FamilySpec("steane", (), 7, 1, 3, "transversal_zrot(7,2)", "P dagger")
    return FamilyBuild(spec, steane_code(), transversal_zrot(7, 2))


def _build_four22() -> FamilyBuild:
    spec = FamilySpec("four22", (), 4, 2, 2, "transversal_zrot(4,2)", "CZ up to logical Pauli Z")
    return FamilyBuild(spec, four22_code(), transversal_zrot(4, 2))


def _build_pqrm(l: int) -> FamilyBuild:
    code = punctured_qrm(l)
    spec = FamilySpec(
        "pqrm", (l,), code.n, 1, 3,
        f"transversal_zrot({code.n},{l})",
        f"{rotation_name(l, False)} dagger",
    )
    return FamilyBuild(spec, code, transversal_zrot(code.n, l))


def _build_qrm(r: int, m: int) -> FamilyBuild:
    code = qrm_code(r, m)
    d = 1 << min(r, m - r)
    gate = qrm_gate(r, m)
    spec = FamilySpec(
        "qrm", (r, m), code.n, comb(m, r), d,
        f"transversal_zrot({code.n},{m // r})",
        "level m/r diagonal",
    )
    return FamilyBuild(spec, code, gate)


FAMILIES = {
    "steane": (_build_steane, 0),
    "four22": (_build_four22, 0),
    "two_l": (family_2l_l_2, 1),
    "tri2": (triorthogonal_2, 1),
    "pqrm": (_build_pqrm, 1),
    "qrm": (_build_qrm, 2),
}


def build_family(name: str, params: list[int]) -> FamilyBuild:
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; known: {sorted(FAMILIES)}")
    builder, arity = FAMILIES[name]
    if len(params) != arity:
        raise ValueError(f"family {name} takes {arity} parameter(s)")
    return builder(*params)
