"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every numeric claim is exact (ring equality) unless a
float tolerance is stated explicitly.
"""

import time

from hypothesis import HealthCheck, assume, given, settings
import hypothesis.strategies as st

from diagsynth import gencoeff
from diagsynth.cyclo import ONE, Cyclo, cos_pi_over, minus_i_sin_pi_over
from diagsynth.families import (
    expected_2l_row,
    family_2l_l_2,
    four22_code,
    punctured_qrm,
    qrm_code,
    qrm_pipeline,
    qrm_pipeline_certificate,
    steane_code,
    triorthogonal_2,
)
from diagsynth.gates import (
    block_gate,
    elementary_ckz,
    entry_exponent_int,
    lift,
    pauli_coeff,
    qfd_gate,
    transversal_zrot,
)
from diagsynth.gf2 import BitVec
from diagsynth.hierarchy import (
    identify,
    level,
    level_recursive,
    phase_polynomial,
    template_tensor_rotation,
    match,
)
from diagsynth.oracle import crosscheck
from diagsynth.synth import concatenate, dfs_switch, remove_z, half_support_remove_z

from conftest import assert_point_witness, block_gates, codes_with_gates, x_side, z_side


def row_matches_up_to_phase(values, target):
    """Exact equality of two unit-norm rows up to one overall root of
    unity: the overlap <target|values> must be a root of unity omega with
    values = omega * target entrywise."""
    lvl = max([v.level for v in values] + [t.level for t in target])
    overlap = Cyclo.zero()
    for v, t in zip(values, target):
        overlap = overlap + v * t.conj()
    k = overlap.promote(lvl).as_root_of_unity()
    if k is None:
        return False
    omega = Cyclo.root_of_unity(lvl, k)
    return all(v == omega * t for v, t in zip(values, target))


def isin(lvl):
    return -minus_i_sin_pi_over(lvl)


def _report(num, text, t0):
    print(f"ACCEPTANCE {num} PASS: {text} ({time.perf_counter() - t0:.2f}s)")


def test_criterion_1_steane_chain():
    t0 = time.perf_counter()
    code, gate = steane_code(), transversal_zrot(7, 2)
    res = gencoeff.is_preserved(code, gate)
    assert res.preserved and res.norm == ONE
    row = gencoeff.trivial_row(code, gate)
    target = [cos_pi_over(2), isin(2)]
    assert row_matches_up_to_phase(row.values(), target)
    diag = gencoeff.induced_logical(code, gate)
    m = identify(list(diag.exps), 1, diag.level)
    assert m.matched and m.template == "P'"
    assert level(phase_polynomial(list(diag.exps), 1, diag.level)) == 2
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _report(1, "[[7,1,3]] preserved; row (cos pi/4, i sin pi/4); logical P' at level 2", t0)


def test_criterion_2_concatenation_invariance():
    t0 = time.perf_counter()

    def identity_qfd(n):
        return qfd_gate(n, 2, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    cases = [
        (steane_code(), transversal_zrot(7, 2), "next_level_rotation"),
        (steane_code(), transversal_zrot(7, 2), "identity_tensor"),
        (steane_code(), identity_qfd(7), "qfd_tensor"),
        (four22_code(), transversal_zrot(4, 2), "next_level_rotation"),
        (four22_code(), transversal_zrot(4, 2), "identity_tensor"),
        (four22_code(), identity_qfd(4), "qfd_tensor"),
    ]
    checked = 0
    for code, gate, policy in cases:
        lifted = lift(gate, policy)
        big = concatenate(code)
        zeros = BitVec.zeros(code.n)
        for mu in code.syndrome_reps():
            for a in range(1 << code.k):
                gamma = code.z_logical(a)
                small_val = gencoeff.coefficient(code, gate, mu, gamma)
                big_val = gencoeff.coefficient(
                    big, lifted, mu.concat(zeros), gamma.concat(zeros)
                )
                lvl = max(small_val.level, big_val.level)
                assert small_val.promote(lvl) == big_val.promote(lvl)
                checked += 1
    dt = time.perf_counter() - t0
    assert dt < 10.0
    _report(2, f"tables identical across concatenation for all 3 lifts ({checked} entries)", t0)


def test_criterion_3_triorthogonal_target():
    t0 = time.perf_counter()
    code = concatenate(steane_code())
    assert (code.n, code.k) == (14, 1)
    gate = transversal_zrot(14, 3)
    res = half_support_remove_z(code, gate)
    assert res.admissible
    code2 = res.code
    assert (code2.n, code2.k) == (14, 2)
    g1 = BitVec.ones(7).concat(BitVec.zeros(7))
    g0 = BitVec.ones(14)
    zero = BitVec.zeros(14)
    vals = [gencoeff.coefficient(code2, gate, zero, g) for g in (zero, g1, g0, g1 ^ g0)]
    c8, s8 = cos_pi_over(3), isin(3)
    target = [c8 * c8, s8 * c8, s8 * s8, s8 * c8]
    assert row_matches_up_to_phase(vals, target)
    diag = gencoeff.induced_logical(code2, gate)
    poly = phase_polynomial(list(diag.exps), 2, diag.level)
    assert level(poly) == 3
    tpl, name = template_tensor_rotation(2, 3, True)
    m = match(list(diag.exps), 2, diag.level, tpl, name, allow_basis_change=True)
    assert m.matched
    _, d_z = code2.distances()
    assert d_z.value == 2 and d_z.exact
    dt = time.perf_counter() - t0
    assert dt < 5.0
    _report(3, "[[14,2,2]] row (cos^2, isc, -sin^2, isc); logical (T')x(T') at level 3; d_z=2", t0)


def test_criterion_4_table_rows():
    t0 = time.perf_counter()
    for l in range(2, 7):
        fb = family_2l_l_2(l)
        assert (fb.code.n, fb.code.k) == (1 << l, l)
        row = gencoeff.trivial_row(fb.code, fb.gate)
        assert row_matches_up_to_phase(row.values(), expected_2l_row(l))
        diag = gencoeff.induced_logical(fb.code, fb.gate)
        assert level(phase_polynomial(list(diag.exps), l, diag.level)) == l
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(4, "[[2^l,l,2]] rows match the splitting table for l=2..6 with logical level l", t0)


def test_criterion_5_30_2_2():
    t0 = time.perf_counter()
    fb = triorthogonal_2(3)
    assert (fb.code.n, fb.code.k) == (30, 2)
    assert gencoeff.is_preserved(fb.code, fb.gate).preserved
    diag = gencoeff.induced_logical(fb.code, fb.gate)
    poly = phase_polynomial(list(diag.exps), 2, diag.level)
    assert level(poly) == 4
    tpl, name = template_tensor_rotation(2, 4, True)
    m = match(list(diag.exps), 2, diag.level, tpl, name, allow_basis_change=True)
    assert m.matched
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(5, "[[30,2,2]] preserved by zrot(30,4); logical (sqrtT')x(sqrtT') at level 4", t0)


def test_criterion_6_qrm_pipeline_flagship():
    t0 = time.perf_counter()
    res = qrm_pipeline(1, 2)
    assert (res.start.n, res.start.k) == (4, 2)
    assert (res.concat_count, res.removal_count, res.addition_count) == (4, 19, 6)
    pre_removal = res.intermediate("remove_z")
    assert (pre_removal.n, pre_removal.k) == (64, 2)
    inter = res.intermediate("add_x")
    assert (inter.n, inter.k) == (64, 21)
    assert (res.final.n, res.final.k) == (64, 15)
    assert res.final.x_stab == qrm_code(2, 6).x_stab
    assert res.final.z_stab == qrm_code(2, 6).z_stab

    # the retargeted rotation preserves every checkpoint (exact verdicts)
    assert gencoeff.is_preserved(pre_removal, res.gate).preserved
    assert gencoeff.is_preserved(inter, res.gate).preserved
    assert gencoeff.is_preserved(res.final, res.gate).preserved

    _, d_z_inter = inter.distances(w_max=4)
    assert d_z_inter.value == 2 and d_z_inter.exact
    _, d_z = res.final.distances(w_max=4)
    assert d_z.value == 4 and d_z.exact

    cert = qrm_pipeline_certificate(res, n_gamma=100, n_syndrome_pairs=100)
    assert cert["logical_level"] == 3
    assert cert["ccz_factor_count"] == 15
    assert cert["ccz_product_form"]
    assert cert["sampled_gamma_count"] >= 15 + 100
    assert cert["coefficients_match_prediction"]
    assert cert["syndrome_pairs_zero"] and cert["syndrome_pair_count"] == 100
    assert cert["exactness"] == "exact-full"

    # full exact verification of the in-reach family members
    q24 = qrm_code(2, 4)
    r24 = gencoeff.is_preserved(q24, transversal_zrot(16, 2))
    assert r24.preserved and r24.norm == ONE
    fb32 = family_2l_l_2(5)
    r32 = gencoeff.is_preserved(fb32.code, fb32.gate)
    assert r32.preserved and r32.norm == ONE

    dt = time.perf_counter() - t0
    assert dt < 600.0
    _report(
        6,
        "[[4,2,2]]->[[64,2,2]]->[[64,21,2]]->[[64,15,4]]; 4/19/6 steps; d_z=4; "
        "15 CCZ factors; all 2^22 coefficients certified exactly (2^15 trivial, the rest null)",
        t0,
    )


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    cz = elementary_ckz(1, 0)
    cp = elementary_ckz(1, 1)
    c8 = concatenate(four22_code())
    c83 = half_support_remove_z(c8, transversal_zrot(8, 3)).code
    c14 = concatenate(steane_code())
    c1422 = half_support_remove_z(c14, transversal_zrot(14, 3)).code
    fb16 = family_2l_l_2(4)
    pairs = [
        (four22_code(), transversal_zrot(4, 2)),
        (four22_code(), block_gate(4, [((0, 1), cz), ((2, 3), cz)])),
        (four22_code(), transversal_zrot(4, 3)),  # not preserved
        (steane_code(), transversal_zrot(7, 2)),
        (c8, transversal_zrot(8, 3)),
        (c8, block_gate(8, [((2 * i, 2 * i + 1), cp) for i in range(4)])),
        (c83, transversal_zrot(8, 3)),
        (c14, transversal_zrot(14, 3)),
        (c14, lift(transversal_zrot(7, 2), "identity_tensor")),
        (c1422, transversal_zrot(14, 3)),
        (punctured_qrm(3), transversal_zrot(15, 3)),
        (fb16.code, fb16.gate),
        (qrm_code(2, 4), transversal_zrot(16, 2)),
    ]
    for code, gate in pairs:
        assert code.n <= 16
        chk = crosscheck(code, gate, tol=1e-9)
        assert chk.verdicts_agree, (code, gate)
        assert chk.max_row_deviation < 1e-9
        assert chk.max_offdiag < 1e-9
    dt = time.perf_counter() - t0
    assert dt < 120.0
    _report(7, f"float oracle agrees with the exact engine on {len(pairs)} code/gate pairs", t0)


# ----------------------------------------------------------------------
# criterion 8: randomized property suites, >= 1000 cases each


@given(codes_with_gates(max_n=7, min_k=1), st.integers(0, (1 << 7) - 1))
@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def _split_identity_suite(cg, w0_bits):
    code, gate = cg
    w0 = BitVec(code.n, w0_bits & ((1 << code.n) - 1))
    assume(not code.c1_reducer.contains(w0))
    res = remove_z(code, None, w0, check="skip")
    mu = code.syndrome_reps()[-1]
    gamma = code.z_logical((1 << code.k) - 1)
    a_old = gencoeff.coefficient(code, gate, mu, gamma)
    a1 = gencoeff.coefficient(res.code, gate, mu, gamma)
    a2 = gencoeff.coefficient(res.code, gate, mu, gamma ^ res.gamma0)
    assert a_old == a1 + a2


def test_criterion_8_split_identity():
    t0 = time.perf_counter()
    _split_identity_suite()
    _report(8, "split identity A = A' + A'' on 1000 random cases, exact", t0)


@given(codes_with_gates(max_n=7))
@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def _side_agreement_suite(cg):
    code, gate = cg
    mu = code.syndrome_reps()[-1]
    gamma = code.z_logical((1 << code.k) - 1)
    s = mu.bits ^ gamma.bits
    assert x_side(code, gate, s, 1 << 26) == z_side(
        code, gate, s, 1 << 26
    )


def test_criterion_8_side_agreement():
    t0 = time.perf_counter()
    _side_agreement_suite()
    _report(8, "both coefficient formulas agree on 1000 random cases, exact", t0)


@st.composite
def _exponent_tables(draw):
    k = draw(st.integers(1, 4))
    lvl = draw(st.integers(1, 4))
    exps = [draw(st.integers(0, (1 << lvl) - 1)) for _ in range(1 << k)]
    return exps, k, lvl


@given(_exponent_tables())
@settings(max_examples=1000, deadline=None)
def _level_formula_suite(table):
    exps, k, lvl = table
    assert level(phase_polynomial(exps, k, lvl)) == level_recursive(exps, k, lvl)


def test_criterion_8_level_formula():
    t0 = time.perf_counter()
    _level_formula_suite()
    _report(8, "closed level formula matches the twisting recursion, 1000 cases k<=4", t0)


@given(st.integers(2, 5).flatmap(lambda n: block_gates(n)))
@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def _pauli_roundtrip_suite(g):
    n = g.n
    for u in range(1 << n):
        acc = Cyclo.zero()
        for v in range(1 << n):
            f = pauli_coeff(g, BitVec(n, v))
            if f.is_zero():
                continue
            acc = acc - f if (u & v).bit_count() & 1 else acc + f
        assert acc == Cyclo.root_of_unity(g.level, entry_exponent_int(g, u))


def test_criterion_8_pauli_entry_roundtrip():
    t0 = time.perf_counter()
    _pauli_roundtrip_suite()
    _report(8, "Pauli expansion reconstructs every diagonal entry, 1000 random gates", t0)


def test_criterion_8_dfs_switch_deterministic():
    t0 = time.perf_counter()
    code = concatenate(steane_code())
    sw = dfs_switch(code)
    expected = BitVec.ones(7).concat(BitVec.zeros(7))
    assert sw.y_balanced == expected
    assert sw.x_positions == expected
    _report(8, "[[14,1,3]] storage switch flips exactly the first seven qubits", t0)


def test_criterion_9_negative_controls():
    t0 = time.perf_counter()
    res = gencoeff.is_preserved(four22_code(), transversal_zrot(4, 3))
    assert not res.preserved
    assert res.norm == Cyclo.dyadic(3, 2)

    code = half_support_remove_z(concatenate(steane_code()), transversal_zrot(14, 3)).code
    from diagsynth.synth import add_x

    x0 = BitVec.ones(7).concat(BitVec.zeros(7))
    add_res = add_x(code, transversal_zrot(14, 3), x0)
    assert add_res.admissible is False
    assert_point_witness(add_res.code, transversal_zrot(14, 3), add_res.witness)
    _report(9, "[[4,2,2]]+T has norm 3/4; [[14,2,2]] addition rejected with a coset witness", t0)
