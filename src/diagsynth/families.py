"""Constructors and pipelines for the built-in code families.

Each family carries its canonical transversal rotation; ``FAMILIES`` maps
CLI names to builders.  The quantum Reed-Muller pipeline rebuilds the next
family member from the previous one by concatenating, retargeting the
physical rotation one level up, removing the Z-stabilizers that grow the
X-logical code to the next Reed-Muller space, and adding the X-stabilizers
that complete the smaller one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    steps: list[synth.SynthStep] = field(default_factory=list)


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


def family_2l_l_2(l: int, budget: int = gf2.DEFAULT_BUDGET) -> FamilyBuild:
    """The [[2^l, l, 2]] chain built by repeated concatenation (with the
    half-angle rotation lift) and the canonical half-support removal.
    Every removal is admissible and raises the logical level by one."""
    if not 2 <= l <= 6:
        raise ValueError("supported range is 2 <= l <= 6")
    code = four22_code()
    gate: DiagonalGate = transversal_zrot(4, 2)
    steps: list[synth.SynthStep] = []
    for step_l in range(3, l + 1):
        code = synth.concatenate(code)
        gate = transversal_zrot(code.n, step_l)
        res = synth.half_support_remove_z(code, gate, budget=budget)
        assert res.admissible, f"half-support removal failed at level {step_l}"
        code = res.code
    spec = FamilySpec(
        "two_l", (l,), 1 << l, l, 2,
        f"transversal_zrot({1 << l},{l})",
        f"C^({l - 1})Z up to logical Pauli Z",
    )
    return FamilyBuild(spec, code, gate, steps)


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
    code = synth.concatenate(base)
    gate = transversal_zrot(code.n, l + 1)
    res = synth.half_support_remove_z(code, gate, budget=budget)
    assert res.admissible
    code = res.code
    spec = FamilySpec(
        "tri2", (l,), (1 << (l + 2)) - 2, 2, 2,
        f"transversal_zrot({(1 << (l + 2)) - 2},{l + 1})",
        f"({rotation_name(l + 1, False)} dagger) pair",
    )
    return FamilyBuild(spec, code, gate, [])


# ----------------------------------------------------------------------
# the QRM growth pipeline


@dataclass
class QrmPipelineResult:
    start: CssCode
    final: CssCode
    gate: DiagonalGate
    steps: list[synth.SynthStep]
    concat_count: int
    removal_count: int
    addition_count: int

    def intermediate(self, kind: str) -> CssCode | None:
        """Last code state before the first step of the given kind."""
        return self._intermediates.get(kind)

    _intermediates: dict = field(default_factory=dict)


def qrm_pipeline(r: int, m: int, budget: int = gf2.DEFAULT_BUDGET) -> QrmPipelineResult:
    """Grow qrm_code(r, m) into qrm_code(r+1, m+h) with h = r + m/r + 1.

    Concatenate h times, retarget the rotation one level up, remove the
    Z-stabilizers that extend the X-logical code to RM(r+1, m+h), then add
    the X-stabilizers that complete RM(r, m+h).  Individual removals are
    returned flagged but unchecked when the logical count is large; the
    final code is verified exactly against the direct construction.
    """
    if m % r:
        raise ValueError("need r | m")
    h = r + m // r + 1
    code = qrm_code(r, m)
    start = code
    gate: DiagonalGate = qrm_gate(r, m)
    steps: list[synth.SynthStep] = []
    intermediates: dict[str, CssCode] = {}
    for _ in range(h):
        before = {"n": code.n, "k": code.k}
        code = synth.concatenate(code)
        steps.append(
            synth.SynthStep("concat", {}, before, {"n": code.n, "k": code.k}, True)
        )
    gate = transversal_zrot(code.n, m // r + 1)
    intermediates["remove_z"] = code

    # complement bases keep each candidate independent of the growing space
    target_c1 = rm_generator(r + 1, m + h)
    w0_list = list(gf2.quotient_basis(target_c1, code.c1))
    for w0 in w0_list:
        before = {"n": code.n, "k": code.k}
        res = synth.remove_z(code, gate, w0, check="auto", budget=budget)
        code = res.code
        steps.append(
            synth.SynthStep(
                "remove_z",
                {"w0": w0.to01()},
                before,
                {"n": code.n, "k": code.k},
                res.admissible,
                {"gamma0": res.gamma0.to01()},
            )
        )
    removal_count = len(w0_list)
    intermediates["add_x"] = code

    target_c2 = rm_generator(r, m + h)
    x0_list = list(gf2.quotient_basis(target_c2, code.x_stab))
    for x0 in x0_list:
        before = {"n": code.n, "k": code.k}
        res = synth.add_x(code, gate, x0, check="auto", budget=budget)
        code = res.code
        steps.append(
            synth.SynthStep(
                "add_x",
                {"x0": x0.to01()},
                before,
                {"n": code.n, "k": code.k},
                res.admissible,
                {"mu0": res.mu0.to01()},
            )
        )
    addition_count = len(x0_list)

    direct = qrm_code(r + 1, m + h)
    assert code.x_stab == direct.x_stab and code.z_stab == direct.z_stab, (
        "pipeline result differs from the direct construction"
    )
    result = QrmPipelineResult(
        start, code, gate, steps, h, removal_count, addition_count
    )
    result._intermediates = intermediates
    return result


def qrm_pipeline_certificate(
    result: QrmPipelineResult,
    n_gamma: int = 100,
    n_syndrome_pairs: int = 100,
    seed: int = 0,
    budget: int = gf2.DEFAULT_BUDGET,
) -> dict:
    """Exact-sampled preservation certificate for the pipeline's final code.

    Derives the induced logical diagonal from codeword sums, checks that it
    is a product of fully-controlled-Z factors on logical triples (up to
    global phase and Pauli-Z), and compares sampled trivial-row
    coefficients against the inverse-Hadamard prediction of that product;
    sampled nontrivial-syndrome coefficients must vanish exactly.
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
    ccz_product_form = not bad
    rng = random.Random(seed)
    alphas = [1 << i for i in range(k)]
    alphas += sorted({rng.randrange(1, 1 << k) for _ in range(n_gamma)})
    alphas = list(dict.fromkeys(alphas))
    predicted = gencoeff.coefficients_from_diagonal(exps, gate.level, k, alphas)
    gammas = [code.z_logical(a) for a in alphas]
    row = gencoeff.trivial_row(code, gate, gammas=gammas, budget=budget)
    coeff_match = all(
        row.entries[g] == p for g, p in zip(gammas, predicted)
    )
    cert = gencoeff.sampled_certificate(
        code, gate, 0, n_syndrome_pairs, seed=seed + 1, budget=budget
    )
    return {
        "logical_level": poly_level(poly),
        "ccz_factor_count": len(cubic),
        "ccz_product_form": ccz_product_form,
        "unexpected_monomials": bad,
        "sampled_gamma_count": len(alphas),
        "coefficients_match_prediction": coeff_match,
        "syndrome_pairs_zero": cert["syndrome_pairs_zero"],
        "syndrome_pair_count": cert["syndrome_pair_count"],
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
