"""Code transformations: concatenation, removals, additions, switching."""

import random
import time

import pytest
from hypothesis import HealthCheck, assume, given, settings
import hypothesis.strategies as st

from diagsynth import gencoeff, gf2
from diagsynth.csscode import CssCode
from diagsynth.cyclo import ONE
from diagsynth.errors import InadmissibleStep, OddComponent
from diagsynth.families import four22_code, qrm_pipeline, steane_code
from diagsynth.gates import (
    gate_to_json,
    lift,
    qfd_gate,
    transversal_zrot,
)
from diagsynth.gf2 import BitMat, BitVec
from diagsynth.synth import (
    add_x,
    add_z,
    concatenate,
    dfs_switch,
    remove_x,
    remove_z,
    run_pipeline,
)

from conftest import assert_point_witness, codes_with_gates, css_codes


def add_x_reference(code, gate, x0):
    """The paper's half-row criterion for adding x0, one coefficient at a
    time: the first nonzero trivial-row coefficient on a logical that pairs
    with x0, in frame order.  Its verdict is the new code's own only on a
    preserved input."""
    for a in range(1 << code.k):
        gamma = code.z_logical(a)
        if gamma.dot(x0):
            val = gencoeff.coefficient(code, gate, BitVec.zeros(code.n), gamma)
            if not val.is_zero():
                return False, (gamma, val)
    return True, None


def dfs_reference(code):
    """dfs_switch's balanced vector from pairwise queries: qubits i and j
    supporting X-stabilizers are joined when e_i + e_j is one of the listed
    Z-stabilizers, and each component gives its lower half."""
    verts = sorted({q for r in code.x_stab for q in r.support()})
    z_words = set(gf2.span_ints(code.z_stab.row_ints()))
    seen, bits = set(), 0
    for v in verts:
        if v in seen:
            continue
        comp, todo = {v}, [v]
        while todo:
            i = todo.pop()
            for j in verts:
                if j not in comp and (1 << i | 1 << j) in z_words:
                    comp.add(j)
                    todo.append(j)
        seen |= comp
        comp = sorted(comp)
        if len(comp) % 2:
            raise OddComponent(f"component {comp} has odd size")
        for q in comp[: len(comp) // 2]:
            bits |= 1 << q
    return BitVec(code.n, bits)


def identity_qfd(n, level=2):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    return qfd_gate(n, level, rows)


class TestConcatenate:
    def test_steane_to_14(self):
        c = concatenate(steane_code())
        assert (c.n, c.k) == (14, 1)
        d_x, d_z = c.distances()
        assert d_x.value == 6 and d_z.value == 3

    def test_422_to_8(self):
        c = concatenate(four22_code())
        assert (c.n, c.k) == (8, 2)

    def test_four_times_to_64(self):
        c = four22_code()
        for _ in range(4):
            c = concatenate(c)
        assert (c.n, c.k) == (64, 2)

    @given(css_codes(max_n=6, min_k=1))
    @settings(max_examples=100, deadline=None)
    def test_structure(self, code):
        c = concatenate(code)
        assert c.n == 2 * code.n and c.k == code.k
        # every duplicated word stabilizes; pairs land in the Z-dual
        for r in code.x_stab:
            assert c.c2_reducer.contains(r.concat(r))
        for i in range(code.n):
            e = BitVec.unit(code.n, i)
            assert c.c1perp_reducer.contains(e.concat(e))


class TestTheorem1Invariance:
    def _assert_tables_match(self, code, gate, policy):
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
                lvl = max(small_val.level, big_val.level, lifted.level)
                assert small_val.promote(lvl) == big_val.promote(lvl), (
                    policy,
                    mu.to01(),
                    gamma.to01(),
                )

    def test_steane_all_policies(self):
        code = steane_code()
        self._assert_tables_match(code, transversal_zrot(7, 2), "next_level_rotation")
        self._assert_tables_match(code, transversal_zrot(7, 2), "identity_tensor")
        self._assert_tables_match(code, identity_qfd(7), "qfd_tensor")

    def test_422_all_policies(self):
        code = four22_code()
        self._assert_tables_match(code, transversal_zrot(4, 2), "next_level_rotation")
        self._assert_tables_match(code, transversal_zrot(4, 2), "identity_tensor")
        self._assert_tables_match(code, identity_qfd(4), "qfd_tensor")

    @given(css_codes(max_n=7, min_k=1), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_random_codes_zrot(self, code, l):
        gate = transversal_zrot(code.n, l)
        self._assert_tables_match(code, gate, "next_level_rotation")


class TestRemoveZ:
    def test_steane_chain(self):
        code = concatenate(steane_code())
        gate = transversal_zrot(14, 3)
        w0 = BitVec.ones(7).concat(BitVec.zeros(7))
        res = remove_z(code, gate, w0)
        assert res.admissible and res.code.k == 2
        _, d_z = res.code.distances()
        assert d_z.value == 2

    def test_422_chain(self):
        code = concatenate(four22_code())
        gate = transversal_zrot(8, 3)
        res = remove_z(code, gate, BitVec.ones(4).concat(BitVec.zeros(4)))
        assert res.admissible and (res.code.n, res.code.k) == (8, 3)

    def test_steane_bad_removal_flagged(self):
        res = remove_z(
            steane_code(), transversal_zrot(7, 2), BitVec.from_string("1000000")
        )
        assert res.admissible is False
        assert res.code.k == 2  # returned anyway

    def test_w0_in_c1_rejected(self):
        with pytest.raises(ValueError):
            remove_z(four22_code(), None, BitVec.from_string("1100"))

    def test_removal_then_add_z_restores(self):
        code = steane_code()
        res = remove_z(code, None, BitVec.from_string("1000000"), check="skip")
        assert add_z(res.code, res.gamma0) == code


class TestSplitIdentity:
    @given(codes_with_gates(max_n=7, min_k=1), st.integers(0, (1 << 7) - 1))
    @settings(max_examples=300, deadline=None)
    def test_split_identity(self, cg, w0_bits):
        code, gate = cg
        w0 = BitVec(code.n, w0_bits & ((1 << code.n) - 1))
        assume(not code.c1_reducer.contains(w0))
        res = remove_z(code, None, w0, check="skip")
        new_code = res.code
        gamma0 = res.gamma0
        mu = code.syndrome_reps()[-1]
        gamma = code.z_logical((1 << code.k) - 1)
        a_old = gencoeff.coefficient(code, gate, mu, gamma)
        a_new1 = gencoeff.coefficient(new_code, gate, mu, gamma)
        a_new2 = gencoeff.coefficient(new_code, gate, mu, gamma ^ gamma0)
        assert a_old == a_new1 + a_new2

    @given(codes_with_gates(max_n=6, min_k=1), st.integers(0, (1 << 6) - 1))
    @settings(max_examples=500, deadline=None)
    def test_split_formulas_with_s_values(self, cg, w0_bits):
        code, gate = cg
        w0 = BitVec(code.n, w0_bits & ((1 << code.n) - 1))
        assume(not code.c1_reducer.contains(w0))
        res = remove_z(code, None, w0, check="skip")
        gamma = code.z_logical((1 << code.k) - 1)
        svals = gencoeff.split_values(code, gate, w0, gammas=[gamma])
        a_old = gencoeff.coefficient(code, gate, BitVec.zeros(code.n), gamma)
        a1 = gencoeff.coefficient(res.code, gate, BitVec.zeros(code.n), gamma)
        a2 = gencoeff.coefficient(
            res.code, gate, BitVec.zeros(code.n), gamma ^ res.gamma0
        )
        s = svals[gamma]
        assert a1 == (a_old + s).scaled(1)
        assert a2 == (a_old - s).scaled(1)


class TestAddX:
    def test_inadmissible_on_1422(self):
        code = concatenate(steane_code())
        gate = transversal_zrot(14, 3)
        code = remove_z(code, gate, BitVec.ones(7).concat(BitVec.zeros(7))).code
        x0 = BitVec.ones(7).concat(BitVec.zeros(7))
        res = add_x(code, gate, x0)
        assert res.admissible is False
        # the input is preserved, so the paper's half-row criterion agrees
        assert add_x_reference(code, gate, x0)[0] is False
        assert_point_witness(res.code, gate, res.witness)

    def test_x0_validation(self):
        code = four22_code()
        with pytest.raises(ValueError):
            add_x(code, None, BitVec.from_string("1111"))  # already a stabilizer
        with pytest.raises(ValueError):
            add_x(code, None, BitVec.from_string("1000"))  # not in C1

    def test_add_then_remove_round_trip(self):
        # removing x0 picks a deterministic index-2 subgroup avoiding it;
        # re-adding x0 reproduces the enlarged group exactly
        code = four22_code()
        x0 = BitVec.from_string("1100")
        added = add_x(code, None, x0, check="skip").code
        assert added.k == 1
        removed = remove_x(added, x0)
        assert removed.k == code.k
        assert not removed.c2_reducer.contains(x0)
        readded = add_x(removed, None, x0, check="skip").code
        assert readded == added

    @given(codes_with_gates(max_n=6, min_k=1))
    @settings(max_examples=300, deadline=None)
    def test_reshaping_rule(self, cg):
        code, gate = cg
        x0 = None
        for a in range(1, 1 << code.dim_c1):
            cand_bits = 0
            for j in range(code.dim_c1):
                if (a >> j) & 1:
                    cand_bits ^= code.c1.rows[j].bits
            cand = BitVec(code.n, cand_bits)
            if cand and not code.c2_reducer.contains(cand):
                x0 = cand
                break
        assume(x0 is not None)
        res = add_x(code, None, x0, check="skip")
        new_code, mu0 = res.code, res.mu0
        # old-syndrome entries are unchanged; shifted entries pick up mu0
        gamma_new = new_code.z_logical((1 << new_code.k) - 1)
        a_same = gencoeff.coefficient(new_code, gate, BitVec.zeros(code.n), gamma_new)
        assert a_same == gencoeff.coefficient(code, gate, BitVec.zeros(code.n), gamma_new)
        a_shift = gencoeff.coefficient(new_code, gate, mu0, gamma_new)
        assert a_shift == gencoeff.coefficient(code, gate, BitVec.zeros(code.n), gamma_new ^ mu0)
        # the checked addition is the new code's verdict; the reference
        # reads the half row one coefficient at a time
        checked = add_x(code, gate, x0)
        admissible, _ = add_x_reference(code, gate, x0)
        if gencoeff.is_preserved(code, gate).preserved:
            assert checked.admissible == admissible
        if checked.admissible:
            assert checked.witness is None
        else:
            assert_point_witness(checked.code, gate, checked.witness)


def _thirteen_logicals(y_bits):
    """An [[40,13]] code, one past the row cap: C2 is spanned by x, all
    ones on qubits 0..7, and C1 adds x1, all ones on qubits 8..15, and 12
    seeded words on qubits 16..39.  Transversal T preserves it when y is
    zero on qubits 0..7 (a flip of x changes the weight by 8, adding 16 to
    the exponent), and so it does with x1 adjoined to C2."""
    rng = random.Random(13)
    n = 40
    x, x1 = BitVec(n, 0xFF), BitVec(n, 0xFF00)
    c1 = [x, x1] + [BitVec(n, rng.getrandbits(24) << 16) for _ in range(12)]
    code = CssCode(n, BitMat(n, [x]), gf2.dual_basis(BitMat(n, c1)), BitVec(n, y_bits))
    assert (code.k, code.dim_c1) == (13, 14)
    return code, x1, c1[2]


class TestAddXPastRowCap:
    @pytest.mark.parametrize("y_bits", [0, 1])
    @pytest.mark.parametrize("which", ["x1", "random"])
    def test_matches_half_row(self, monkeypatch, y_bits, which):
        code, x1, word = _thirteen_logicals(y_bits)
        x0 = x1 if which == "x1" else word
        gate = transversal_zrot(40, 3)
        assert gencoeff.is_preserved(code, gate).preserved == (y_bits == 0)
        above = add_x(code, gate, x0)
        assert above.admissible == gencoeff.is_preserved(above.code, gate).preserved
        assert above.admissible == (y_bits == 0 and which == "x1")
        # on the preserved input the half row vanishes iff the step is
        # admissible (the paper's criterion)
        gammas = [code.z_logical(a) for a in range(1 << code.k)]
        half = gencoeff.trivial_row(code, gate, [g for g in gammas if g.dot(x0)])
        nonzero = [g for g, v in half.entries.items() if not v.is_zero()]
        if y_bits == 0:
            assert above.admissible == (not nonzero)
        if not above.admissible:
            assert_point_witness(above.code, gate, above.witness)
        # the new code's verdict and witness are the same on the other side
        # of the row cap
        for cap in (1 << 11, 1 << 13):
            monkeypatch.setattr(gencoeff, "_ROW_CAP", cap)
            moved = add_x(code, gate, x0)
            assert (moved.admissible, moved.witness) == (above.admissible, above.witness)

    def test_past_the_logical_span_budget(self):
        # qrm_pipeline(1, 3)'s [[256,36]] before its additions, with x0 the
        # XOR of three X-logicals: the witness needs no list of the 2^36
        # Z-logicals (past the default budget), only the new code's verdict
        pipe = qrm_pipeline(1, 3)
        code, gate = pipe.pre_addition, pipe.gate
        assert (code.n, code.k) == (256, 36)
        x0 = BitVec(code.n, 0)
        for row in code.frame.x_logical_basis.rows[:3]:
            x0 ^= row
        t0 = time.perf_counter()
        res = add_x(code, gate, x0)
        assert time.perf_counter() - t0 < 1.0
        assert res.admissible is False
        assert_point_witness(res.code, gate, res.witness)


class TestAdmissibilityNorm:
    def test_inadmissible_deficit_equals_leakage(self):
        # after a bad removal, the missing trivial-row norm shows up as
        # weight on the other syndromes (numeric, to 1e-9)
        code, gate = steane_code(), transversal_zrot(7, 2)
        res = remove_z(code, gate, BitVec.from_string("1000000"))
        assert res.admissible is False
        deficit = 1.0 - gencoeff.is_preserved(res.code, gate).norm.to_complex().real
        leakage = 0.0
        for mu in res.code.syndrome_reps()[1:]:
            row = gencoeff.syndrome_row(res.code, gate, mu)
            leakage += sum(abs(v.to_complex()) ** 2 for v in row.values())
        assert deficit == pytest.approx(leakage, abs=1e-9)

    @given(codes_with_gates(max_n=6, min_k=1), st.integers(0, 63))
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    def test_flag_matches_direct_preservation(self, cg, w0_bits):
        code, gate = cg
        assume(gencoeff.is_preserved(code, gate).preserved)
        w0 = BitVec(code.n, w0_bits & ((1 << code.n) - 1))
        assume(not code.c1_reducer.contains(w0))
        res = remove_z(code, gate, w0)
        direct = gencoeff.is_preserved(res.code, gate)
        assert res.admissible == direct.preserved
        # below the row cap the new code's trivial-row norm decides
        assert direct.method == "coefficient-norm"
        assert res.admissible == (direct.norm == ONE)

    @given(codes_with_gates(max_n=6, min_k=1), st.integers(1, 63))
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    def test_addition_flag_matches_direct_preservation(self, cg, mask):
        # rotation, block and quadratic-form gates, on any input
        code, gate = cg
        x0 = BitVec(code.n, 0)
        for j, row in enumerate(code.c1.rows):
            if (mask >> j) & 1:
                x0 ^= row
        assume(not code.c2_reducer.contains(x0))
        res = add_x(code, gate, x0)
        assert res.admissible == gencoeff.is_preserved(res.code, gate).preserved

    def test_addition_flag_needs_a_preserved_input(self):
        # the smallest case found where the half-row criterion fails: the
        # input is not preserved, its half row vanishes, and the new code is
        # not preserved either; the verdict is the new code's, and so is the
        # witness
        code = CssCode(
            8,
            BitMat.from_strings(["11010000", "00001110", "00000001"]),
            BitMat.from_strings(["10010110", "01010110", "00100000", "00001100"]),
            BitVec.from_string("10011010"),
        )
        gate = transversal_zrot(8, 3)
        pres = gencoeff.is_preserved(code, gate)
        assert code.k == 1 and not pres.preserved
        assert pres.norm.serialize() == "2^-5 * [10,7,0,-7] @ 3"
        x0 = BitVec.from_string("00010010")
        assert add_x_reference(code, gate, x0) == (True, None)
        res = add_x(code, gate, x0)
        assert res.admissible is False
        assert_point_witness(res.code, gate, res.witness)
        assert not gencoeff.is_preserved(res.code, gate).preserved

    @given(codes_with_gates(max_n=6, min_k=1), st.integers(0, 63), st.booleans())
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    def test_preserved_step_needs_a_preserved_input(self, cg, bits, addition):
        # the new code's cosets are unions of the input's (an addition) or
        # include them (a removal), so an admissible step has a preserved input
        code, gate = cg
        res = _drawn_step(code, gate, bits, addition)
        assert res.admissible == gencoeff.is_preserved(res.code, gate).preserved
        if res.admissible:
            assert gencoeff.is_preserved(code, gate).preserved


def _drawn_step(code, gate, bits, addition):
    """The addition of the C1 word that picks the rows of ``code.c1`` named
    by ``bits``, or the removal of the word ``bits``; draws that name no
    step are rejected."""
    if addition:
        word = BitVec(code.n, 0)
        for j, row in enumerate(code.c1.rows):
            if (bits >> j) & 1:
                word ^= row
        assume(not code.c2_reducer.contains(word))
        return add_x(code, gate, word)
    word = BitVec(code.n, bits & ((1 << code.n) - 1))
    assume(not code.c1_reducer.contains(word))
    return remove_z(code, gate, word)


class TestPointWitness:
    @given(codes_with_gates(min_k=1), st.integers(0, 255), st.booleans())
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    def test_every_inadmissible_step_has_a_witness(self, cg, bits, addition):
        # both steps, on preserved and non-preserved inputs: an inadmissible
        # step names two words of one coset of the new code where the gate
        # differs, re-checked by direct gate evaluation
        code, gate = cg
        res = _drawn_step(code, gate, bits, addition)
        assert res.admissible == gencoeff.is_preserved(res.code, gate).preserved
        if res.admissible:
            assert res.witness is None
            return
        assert_point_witness(res.code, gate, res.witness)
        # negative control: u moved off the coset by a bit outside C2
        n, (u, v) = code.n, res.witness
        outside = [q for q in range(n) if not res.code.c2_reducer.contains(BitVec.unit(n, q))]
        if outside:
            with pytest.raises(AssertionError):
                assert_point_witness(res.code, gate, (u ^ BitVec.unit(n, outside[0]), v))

    def test_no_refusal_after_the_verdict(self):
        # Steane with T less a Z-stabilizer: the [[7,2]] code's trivial row
        # fits a budget of 8 on its Z side (2^2 words), the certificate's 15
        # points do not, so the step answers without a witness
        code, gate = steane_code(), transversal_zrot(7, 2)
        w0 = BitVec.from_string("1000000")
        res = remove_z(code, gate, w0, budget=8)
        assert res.admissible is False and res.witness is None
        full = remove_z(code, gate, w0, budget=16)
        assert full.admissible is False
        assert_point_witness(full.code, gate, full.witness)


class TestDfsSwitch:
    def test_14_1_3(self):
        code = concatenate(steane_code())
        sw = dfs_switch(code)
        expected = BitVec.ones(7).concat(BitVec.zeros(7))
        assert sw.y_balanced == expected
        assert sw.x_positions == expected

    def test_8_2_2(self):
        code = concatenate(four22_code())
        sw = dfs_switch(code)
        # one supported qubit in each pair {i, i+4}
        for i in range(4):
            pair = sw.y_balanced.bit(i) + sw.y_balanced.bit(i + 4)
            assert pair == 1

    def test_odd_component(self):
        # no weight-2 Z-stabilizers: the three vertices stay isolated
        code = CssCode(3, BitMat.from_strings(["111"]), BitMat.empty(3))
        with pytest.raises(OddComponent):
            dfs_switch(code)

    @given(css_codes(max_n=6), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_pairwise_components(self, code, doubled):
        if doubled:
            # concatenation adds the weight-2 pairs that make even components
            code = concatenate(code)
        try:
            want = dfs_reference(code)
        except OddComponent as exc:
            with pytest.raises(OddComponent) as got:
                dfs_switch(code)
            assert str(got.value) == str(exc)
            return
        sw = dfs_switch(code)
        assert sw.y_balanced == want
        assert sw.x_positions == want ^ code.y


class TestPipeline:
    def test_steane_script(self):
        code = steane_code()
        gate = transversal_zrot(7, 2)
        script = [
            {"op": "concat", "lift": "next_level_rotation"},
            {"op": "remove_z", "w0": "1" * 7 + "0" * 7},
            {"op": "verify"},
        ]
        res = run_pipeline(code, gate, script)
        assert (res.code.n, res.code.k) == (14, 2)
        assert all(s.admissible for s in res.steps)

    def test_empty_script_is_identity(self):
        code = steane_code()
        res = run_pipeline(code, None, [])
        assert res.code == code and res.steps == []

    def test_strict_raises(self):
        script = [{"op": "remove_z", "w0": "1000000"}]
        with pytest.raises(InadmissibleStep):
            run_pipeline(steane_code(), transversal_zrot(7, 2), script, strict=True)

    def test_empty_lift_is_an_error(self):
        # only a missing or null lift keeps the gate as it is
        with pytest.raises(ValueError, match="unknown lift policy ''"):
            run_pipeline(steane_code(), transversal_zrot(7, 2), [{"op": "concat", "lift": ""}])
        res = run_pipeline(steane_code(), transversal_zrot(7, 2), [{"op": "concat", "lift": None}])
        assert gate_to_json(res.gate) == {"kind": "transversal_zrot", "n": 7, "l": 2}

    def test_step_json(self):
        script = [{"op": "concat", "lift": "next_level_rotation"}]
        step = run_pipeline(steane_code(), transversal_zrot(7, 2), script).steps[0]
        assert step.to_json() == {
            "kind": "concat",
            "params": {"op": "concat", "lift": "next_level_rotation"},
            "before": {"n": 7, "k": 1},
            "after": {"n": 14, "k": 1},
            "admissible": True,
            "detail": {"lift": "next_level_rotation"},
        }

    def test_set_gate_step(self):
        code = four22_code()
        script = [
            {"op": "concat"},
            {"op": "set_gate", "gate": {"kind": "transversal_zrot", "n": 8, "l": 3}},
            {"op": "verify"},
        ]
        res = run_pipeline(code, transversal_zrot(4, 2), script)
        assert res.steps[-1].admissible
        assert gate_to_json(res.gate)["l"] == 3
