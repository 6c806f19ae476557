"""Code transformations: concatenation, removals, additions, switching."""

import random
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
import hypothesis.strategies as st

from diagsynth import gencoeff, gf2
from diagsynth.csscode import CssCode
from diagsynth.cyclo import ONE
from diagsynth.errors import BudgetExceeded, InadmissibleStep, OddComponent
from diagsynth.families import (
    family_2l_l_2,
    four22_code,
    qrm_code,
    qrm_pipeline,
    steane_code,
    triorthogonal_2,
)
from diagsynth.gates import (
    LocalDiag,
    block_gate,
    gate_to_json,
    lift,
    qfd_gate,
    transversal_zrot,
)
from diagsynth.gf2 import BitMat, BitVec
from diagsynth.synth import (
    add_x,
    concatenate,
    dfs_switch,
    half_support_remove_z,
    remove_z,
    run_pipeline,
)

from conftest import (
    assert_point_witness,
    c1_reducer,
    c1perp_reducer,
    codes_with_gates,
    css_codes,
)


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
            assert c1perp_reducer(c).contains(e.concat(e))


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

    def test_c1_membership_reads_the_z_rows(self):
        # w0 lies in C1 iff it pairs evenly with every Z row, so neither
        # call derives C1; the half-support word of qrm(2,4) lies in C1
        gate = transversal_zrot(16, 2)
        code = qrm_code(2, 4)
        gencoeff.split_values(code, gate, BitVec.unit(16, 0))
        assert "c1" not in vars(code)
        code = qrm_code(2, 4)
        with pytest.raises(ValueError, match="already an X-logical or stabilizer"):
            half_support_remove_z(code, gate)
        assert "c1" not in vars(code)


class TestSplitIdentity:
    @given(codes_with_gates(max_n=7, min_k=1), st.integers(0, (1 << 7) - 1))
    @settings(max_examples=300, deadline=None)
    def test_split_identity(self, cg, w0_bits):
        code, gate = cg
        w0 = BitVec(code.n, w0_bits & ((1 << code.n) - 1))
        assume(not c1_reducer(code).contains(w0))
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
        assume(not c1_reducer(code).contains(w0))
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
        assume(not c1_reducer(code).contains(w0))
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
    assume(not c1_reducer(code).contains(word))
    return remove_z(code, gate, word)


def _rotation_forms(n, l):
    """transversal_zrot(n, l) for even n, then the same rotation as a
    product of two-qubit blocks, and, up to a global phase, as a quadratic
    form whose off-diagonal entries 2^l leave u R u^T unchanged."""
    top = 1 << (l + 1)
    pair = LocalDiag(2, l + 1, tuple((2 * w - 2) % top for w in (0, 1, 1, 2)))
    rows = [[2 if i == j else (1 << l) * (i ^ j == 1) for j in range(n)] for i in range(n)]
    return [
        transversal_zrot(n, l),
        block_gate(n, [((q, q + 1), pair) for q in range(0, n, 2)]),
        qfd_gate(n, l + 1, rows),
    ]


def assert_carried_complement(code):
    """The X-stabilizer rows of a step-built code and the complement of C2
    the step carried to it are dim C1 independent rows of C1."""
    rows = code.x_stab.row_ints() + code._caches["complement"]
    assert len(rows) == code.dim_c1
    assert all(c1_reducer(code).contains_int(r) for r in rows)
    assert gf2.Reducer(BitMat(code.n, [BitVec(code.n, r) for r in rows])).dim == code.dim_c1


def _steane_step(code, addition):
    """add_x of Steane's X-logical, or remove_z of the word 1000000."""
    if addition:
        return add_x, code.frame.x_logical_basis.rows[0]
    return remove_z, BitVec.from_string("1000000")


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

    @pytest.mark.parametrize("addition", [False, True])
    def test_both_refusals_match_is_preserved(self, addition):
        # at a budget of 2 the new code's certificate and its trivial row
        # are both refused: the step raises is_preserved's refusal
        code, gate = steane_code(), transversal_zrot(7, 2)
        step, word = _steane_step(code, addition)
        new = step(code, gate, word, check="skip").code
        with pytest.raises(BudgetExceeded) as want:
            gencoeff.is_preserved(new, gate, 2)
        with pytest.raises(BudgetExceeded) as got:
            step(code, gate, word, budget=2)
        assert str(got.value) == str(want.value)
        assert got.value.required_log2 == want.value.required_log2

    def test_one_certificate_walk_per_step(self, monkeypatch):
        # qrm_pipeline(1,2)'s 25 removals and additions: the first removal
        # follows the concatenations, so it walks the full certificate on
        # its new code; each later step walks exactly the points of weight
        # below D that hold its new row, and no step asks is_preserved
        calls, walked = [], []
        low_degree, walk, weight_classes = gencoeff._low_degree, gencoeff._walk, gf2._weight_classes

        def counted_low_degree(code, gate, budget, step=None):
            calls.append(code)
            return low_degree(code, gate, budget, step)

        def counted_walk(*args):
            walked.append([args[-1], 0])  # the weights, then the points
            return walk(*args)

        def counted(blocks):
            for block in blocks:
                walked[-1][1] += len(block)
                yield block

        def counted_points(*args):
            return map(counted, weight_classes(*args))

        def refuse(*args, **kwargs):
            raise AssertionError("a step asked is_preserved")

        monkeypatch.setattr(gencoeff, "_low_degree", counted_low_degree)
        monkeypatch.setattr(gencoeff, "_walk", counted_walk)
        monkeypatch.setattr(gf2, "_weight_classes", counted_points)
        monkeypatch.setattr(gencoeff, "is_preserved", refuse)
        res = qrm_pipeline(1, 2)
        stepped = [s for s in res.steps if s.kind in ("remove_z", "add_x")]
        assert len(stepped) == len(calls) == len(walked) == 25
        assert all(s.admissible for s in stepped)
        top, m = gencoeff.low_degree_bound(res.gate), res.pre_removal.dim_c2
        # the full certificate walks weights 1..D, a step 1..D - 1 or 0..D - 1
        full = [c for c, (weights, _) in zip(calls, walked) if weights == range(1, top + 1)]
        assert [{"n": c.n, "k": c.k} for c in full] == [stepped[0].after]
        assert full[0] is calls[0]
        want = [gencoeff._point_count(m + stepped[0].after["k"], range(1, top + 1))]
        for s in stepped[1:]:
            k = s.before["k"]
            if s.kind == "remove_z":
                want.append(gencoeff._point_count(m + k, range(1, top)))
            else:
                want.append(gencoeff._point_count(k - 1, range(top)))
        assert [points for _, points in walked] == want
        # the final code was certified on its carried complement
        assert "frame" not in vars(res.final)

    def test_steps_leave_the_verdict_in_the_memo(self, monkeypatch):
        # the final step's certificate walk already decided the final code
        res = qrm_pipeline(1, 2)

        def refuse(*args, **kwargs):
            raise AssertionError("the verdict was decided again")

        monkeypatch.setattr(gencoeff, "_low_degree", refuse)
        monkeypatch.setattr(gencoeff, "is_preserved", refuse)
        assert gencoeff.induced_logical(res.final, res.gate).k == 15

    @pytest.mark.parametrize("addition", [False, True])
    def test_gate_size_is_checked(self, addition):
        code = steane_code()
        step, word = _steane_step(code, addition)
        with pytest.raises(ValueError, match="gate on 8 qubits vs code on 7"):
            step(code, transversal_zrot(8, 2), word)


class TestStepRoute:
    """A step from a code memoized as preserved walks only the points of
    weight below D that hold its new row (``synth._verdict``)."""

    @given(
        codes_with_gates(max_n=7),
        st.booleans(),
        st.lists(st.tuples(st.booleans(), st.integers(0, 127)), min_size=1, max_size=4),
    )
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_step_verdict_matches_is_preserved(self, cg, strip, draws):
        # rotation, block and quadratic-form gates on chains of steps: a
        # code without X-stabilizers has one word per coset, so every gate
        # preserves it; a parent that is not preserved (the negative
        # control) takes the full route and carries no complement
        code, gate = cg
        if strip:
            code = CssCode(code.n, BitMat.empty(code.n), code.z_stab, code.y)
        for addition, bits in draws:
            if addition:
                word = BitVec(code.n, 0)
                for j, row in enumerate(code.c1.rows):
                    if bits >> j & 1:
                        word ^= row
                if code.c2_reducer.contains(word):
                    continue
            else:
                word = BitVec(code.n, bits & ((1 << code.n) - 1))
                if c1_reducer(code).contains(word):
                    continue
            parent = gencoeff.is_preserved(code, gate).preserved
            res = (add_x if addition else remove_z)(code, gate, word)
            assert ("complement" in res.code._caches) == parent
            if parent:
                assert_carried_complement(res.code)
            assert res.admissible == gencoeff.is_preserved(res.code, gate).preserved
            if res.admissible:
                assert res.witness is None
            else:
                assert_point_witness(res.code, gate, res.witness)
            code = res.code

    def test_qrm_parents(self):
        # random steps from preserved Reed-Muller codes: the codes of
        # qrm_pipeline(1,2) under its rotation, and qrm(1,3), qrm(1,4) and
        # qrm(2,4) under rotations l = 1..3 in three forms
        rng = random.Random(5)
        res = qrm_pipeline(1, 2)
        for code in (res.pre_addition, res.final):
            assert_carried_complement(code)
        # the final code (k = 15) is decided on its carried complement
        assert gencoeff.is_preserved(res.final, res.gate).method == "low-degree"
        assert "frame" not in vars(res.final)
        parents = [(c, res.gate) for c in (res.pre_removal, res.pre_addition, res.final)]
        for r, m in [(1, 3), (1, 4), (2, 4)]:
            for l in (1, 2, 3):
                parents += [(qrm_code(r, m), g) for g in _rotation_forms(1 << m, l)]
        kinds = set()
        for code, gate in parents:
            if not gencoeff.is_preserved(code, gate).preserved:
                continue
            for _ in range(10):
                if rng.random() < 0.5:
                    word = code.x_word(rng.randrange(1, 1 << code.k))
                    step = add_x(code, gate, word ^ rng.choice(code.x_stab.rows))
                else:
                    word = BitVec(code.n, rng.getrandbits(code.n))
                    if c1_reducer(code).contains(word):
                        continue
                    step = remove_z(code, gate, word)
                assert_carried_complement(step.code)
                assert step.admissible == gencoeff.is_preserved(step.code, gate).preserved
                if not step.admissible:
                    assert_point_witness(step.code, gate, step.witness)
                kinds.add((type(gate).__name__, gate.weight_affine is None, step.admissible))
        # each form has admissible and inadmissible steps
        assert len(kinds) == 6

    @given(codes_with_gates(min_k=1), st.booleans(), st.integers(0, 255), st.booleans())
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    def test_step_points_within_the_certificate(self, cg, strip, bits, addition):
        # a step from a preserved parent never counts more points than the
        # full certificate on its new code, so when the step is over the
        # budget the full certificate is too
        code, gate = cg
        if strip:
            code = CssCode(code.n, BitMat.empty(code.n), code.z_stab, code.y)
        assume(gencoeff.is_preserved(code, gate).preserved)
        counted, point_count = [], gencoeff._point_count

        def counting(dim, weights):
            counted.append(point_count(dim, weights))
            return counted[-1]

        with mock.patch.object(gencoeff, "_point_count", counting):
            res = _drawn_step(code, gate, bits, addition)
        assert "complement" in res.code._caches and len(counted) == 1
        top = gencoeff.low_degree_bound(gate)
        assert counted[0] <= point_count(res.code.dim_c1, range(1, top + 1))

    def test_corrupted_gate_is_refused(self):
        # qrm(1,3) is memoized as preserved under T; a T with one qubit's
        # exponent flipped has no memo there, takes the full route, and the
        # step is inadmissible with a witness
        code, gate = qrm_code(1, 3), transversal_zrot(8, 3)
        assert gencoeff.is_preserved(code, gate).preserved
        blocks = [((q,), LocalDiag(1, 3, (0, 3 if q == 0 else 1))) for q in range(8)]
        bad = block_gate(8, blocks)
        for addition in (False, True):
            if addition:
                res = add_x(code, bad, code.frame.x_logical_basis.rows[0])
            else:
                res = remove_z(code, bad, BitVec.from_string("00101011"))
            assert "complement" not in res.code._caches
            assert res.admissible is False
            assert not gencoeff.is_preserved(res.code, bad).preserved
            assert_point_witness(res.code, bad, res.witness)

    def test_walking_to_d_minus_two_is_wrong(self):
        # D = 3 for T on qrm(1,3): the removal of 00101011 passes on every
        # point of weight 1, and its first failing point has weight 2
        code, gate = qrm_code(1, 3), transversal_zrot(8, 3)
        assert gencoeff.is_preserved(code, gate).preserved
        top = gencoeff.low_degree_bound(gate)
        w0 = BitVec.from_string("00101011")
        res = remove_z(code, gate, w0)
        assert top == 3 and res.admissible is False
        assert_point_witness(res.code, gate, res.witness)
        u0 = code.y.bits ^ w0.bits
        walk = (gate, 8, code.x_stab.row_ints(), code.frame.x_logical_basis.row_ints(), u0, u0)
        assert gencoeff._walk(*walk, range(1, top - 1)) is None
        assert gencoeff._walk(*walk, range(1, top)) == res.witness

    def test_step_points_fit_where_the_certificate_does_not(self):
        # the new code's certificate has 25 points, the step walks 10: at a
        # budget of 10 the step still answers with a witness
        code, gate = qrm_code(1, 3), transversal_zrot(8, 3)
        assert gencoeff.is_preserved(code, gate).preserved
        res = remove_z(code, gate, BitVec.from_string("00101011"), budget=10)
        assert res.admissible is False
        assert_point_witness(res.code, gate, res.witness)
        with pytest.raises(BudgetExceeded, match="25 points"):
            gencoeff._low_degree(res.code, gate, 10)

    @pytest.mark.parametrize("addition", [False, True])
    def test_gate_size_is_checked_on_the_step_route(self, addition):
        # Steane is memoized under the S rotation on 7 qubits, whose memo
        # key the 8-qubit rotation shares
        code = steane_code()
        assert gencoeff.is_preserved(code, transversal_zrot(7, 2)).preserved
        step, word = _steane_step(code, addition)
        with pytest.raises(ValueError, match="gate on 8 qubits vs code on 7"):
            step(code, transversal_zrot(8, 2), word)


def assert_step_built(code):
    """A step-built code equals the code that the validating constructor
    builds from its bases: bases, k, every structure the step carried to
    it (compared before any is computed), and the frame."""
    direct = CssCode(code.n, code.x_stab, code.z_stab, code.y)
    assert (code.x_stab, code.z_stab, code.y) == (direct.x_stab, direct.z_stab, direct.y)
    assert code.k == direct.c1.num_rows - direct.x_stab.num_rows
    carried = dict(vars(code))
    for name in ("c1", "c2perp", "_z_logicals"):
        if name in carried:
            assert carried[name] == getattr(direct, name)
    if "c2_reducer" in carried:
        got, want = carried["c2_reducer"], direct.c2_reducer
        assert (got.rows, got.pivots) == (want.rows, want.pivots)
    if "complement" in code._caches:
        assert_carried_complement(code)
    return direct


def _grown_families():
    """Preserved seeds with their gates: qrm(1,3) under T, two_l 3, tri2 2."""
    return [
        (qrm_code(1, 3), transversal_zrot(8, 3)),
        *((fb.code, fb.gate) for fb in (family_2l_l_2(3), triorthogonal_2(2))),
    ]


def _combination(basis, bits):
    """The sum of the rows of basis that the bits of bits select."""
    word = BitVec(basis.n, 0)
    for j, row in enumerate(basis.rows):
        if bits >> j & 1:
            word ^= row
    return word


class TestStepConstructor:
    """Growth steps build their code from bases they already know
    (``CssCode._grown``) and carry the parent's structures they leave
    unchanged."""

    @given(
        st.one_of(
            st.tuples(css_codes(max_n=6), st.integers(1, 3)),
            st.tuples(st.integers(0, 2), st.just(0)),
        ),
        st.lists(
            st.tuples(
                st.sampled_from(["concat", "remove_z", "add_x"]),
                st.integers(0, 1 << 16),
                st.booleans(),
            ),
            min_size=1, max_size=5,
        ),
    )
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_step_built_code_is_the_direct_code(self, seed, steps):
        # chains of the three steps on random codes under a rotation and
        # on the grown families; a drawn flag builds the frame before a
        # step, and with it C1, C2-perp and the Z-logicals, which the next
        # step may carry
        if isinstance(seed[0], CssCode):
            code, gate = seed[0], transversal_zrot(seed[0].n, seed[1])
        else:
            code, gate = _grown_families()[seed[0]]
        for op, bits, touch in steps:
            direct = CssCode(code.n, code.x_stab, code.z_stab, code.y)
            if touch:
                assert code.frame == direct.frame
                code.c2_reducer
            if op == "concat":
                if code.n > 16:
                    continue
                code, gate = concatenate(code), lift(gate, "next_level_rotation")
            elif op == "remove_z":
                word = BitVec(code.n, random.Random(bits).getrandbits(code.n))
                if c1_reducer(direct).contains(word):
                    continue
                code = remove_z(code, gate, word).code
            else:
                word = _combination(direct.c1, bits)
                if direct.c2_reducer.contains(word):
                    continue
                code = add_x(code, gate, word).code
            assert_step_built(code)
        direct = assert_step_built(code)
        assert code.frame == direct.frame

    def test_each_step_carries_the_side_it_leaves(self):
        # with every structure of the parent built, a concatenation carries
        # none, a removal the X side and an addition the Z side and its
        # restricted Z-logicals; no check runs, so nothing else is read
        code = qrm_code(2, 4)
        code.frame
        for name in CssCode._X_SIDE + CssCode._Z_SIDE:
            getattr(code, name)
        base = {"n", "x_stab", "z_stab", "y", "_caches"}

        def carried(child, side):
            assert all(vars(child)[name] is vars(code)[name] for name in side)
            return set(vars(child)) - base

        assert carried(concatenate(code), ()) == set()
        units = (BitVec.unit(code.n, q) for q in range(code.n))
        w0 = next(w for w in units if not c1_reducer(code).contains(w))
        assert carried(remove_z(code, None, w0).code, CssCode._X_SIDE) == set(CssCode._X_SIDE)
        added = add_x(code, None, code.x_word(1)).code
        assert carried(added, CssCode._Z_SIDE) == {*CssCode._Z_SIDE, "_z_logicals"}
        # C2-perp is derived when read, and it is the direct code's
        direct = CssCode(added.n, added.x_stab, added.z_stab, added.y)
        assert added._z_logicals == direct._z_logicals
        assert added.c2perp == direct.c2perp

    def test_addition_child_derives_c2perp_when_read(self):
        # qrm_pipeline(1,2)'s checked additions, replayed: neither the step
        # nor its verdict reads the child's C2-perp, and reading it gives
        # the direct code's
        res = qrm_pipeline(1, 2)
        code = res.pre_addition
        for step in res.steps[-res.addition_count:]:
            added = add_x(code, res.gate, BitVec.from_string(step.params["x0"]))
            assert added.admissible and "c2perp" not in vars(added.code)
            code = added.code
            direct = CssCode(code.n, code.x_stab, code.z_stab, code.y)
            assert code.c2perp == direct.c2perp
        assert code == res.final

    def test_pipeline_builds_two_codes_and_one_frame(self, monkeypatch):
        # qrm_pipeline(1,2): the validating constructor builds the start and
        # the direct code, and only the first removal's full certificate
        # builds a frame; every step's code equals the direct construction
        inits, frames, built = [], [], []
        init, frame, grown = CssCode.__init__, CssCode.frame, CssCode._grown.__func__

        def counted_init(self, *args):
            inits.append(self)
            init(self, *args)

        def counted_frame(self):
            frames.append(self)
            return frame.func(self)

        def counted_grown(cls, *args, **kwargs):
            built.append(grown(cls, *args, **kwargs))
            return built[-1]

        prop = type(frame)(counted_frame)
        prop.__set_name__(CssCode, "frame")
        monkeypatch.setattr(CssCode, "__init__", counted_init)
        monkeypatch.setattr(CssCode, "frame", prop)
        monkeypatch.setattr(CssCode, "_grown", classmethod(counted_grown))
        res = qrm_pipeline(1, 2)
        assert len(inits) == 2 and len(frames) == 1
        assert inits[0] is res.start and frames[0] is built[res.concat_count]
        assert len(built) == len(res.steps)
        for code in built:
            assert_step_built(code)
        # the checkpoints' distances, read from their own logical bases
        for code in (res.pre_removal, res.pre_addition):
            direct = CssCode(code.n, code.x_stab, code.z_stab, code.y)
            assert code.distances(4) == direct.distances(4)


class TestAdditionWitness:
    def test_witness_from_the_carried_complement(self):
        # qrm(1,3) under the S rotation less the Z-stabilizer paired with
        # 11011011: the admissible removal carries its complement, and the
        # inadmissible addition of 10001110 walks it less the row x0
        # replaces.  The frame-based walk of earlier versions named
        # (11001100, 01000010) instead; both are valid witnesses
        code, gate = qrm_code(1, 3), transversal_zrot(8, 2)
        assert gencoeff.is_preserved(code, gate).preserved
        removed = remove_z(code, gate, BitVec.from_string("11011011"))
        assert removed.admissible and "complement" in removed.code._caches
        res = add_x(removed.code, gate, BitVec.from_string("10001110"))
        assert res.admissible is False
        assert not gencoeff.is_preserved(res.code, gate).preserved
        assert res.mu0 == BitVec.from_string("00001001")
        assert [w.to01() for w in res.witness] == ["01010101", "11011011"]
        assert_point_witness(res.code, gate, res.witness)

    def test_frame_parent_keeps_the_paired_row(self):
        # from a parent without a carried complement the replaced row is
        # the frame's X-logical that mu0 pairs with
        code = qrm_code(2, 4)
        for a in range(1, 1 << code.k):
            x0 = code.x_word(a)
            j = gencoeff._replaced_row(code, x0)
            mu0 = next(row for row in code.frame.z_logical_basis if row.dot(x0))
            assert code.frame.z_logical_basis.rows[j] == mu0


class TestDfsSwitch:
    @pytest.mark.parametrize(
        "seed",
        [steane_code, four22_code, lambda: qrm_code(1, 3), lambda: qrm_code(2, 4)],
        ids=["steane", "four22", "qrm13", "qrm24"],
    )
    def test_storage_words_have_one_weight(self, seed):
        # the stored code sits in a decoherence-free subspace: every word of
        # C1 + y_balanced of a concatenation has weight n/2, while C1 + y
        # has several weights
        code = concatenate(seed())
        words = gf2.span_ints(code.c1.row_ints())
        balanced = dfs_switch(code).y_balanced.bits
        assert {(w ^ balanced).bit_count() for w in words} == {code.n // 2}
        assert len({(w ^ code.y.bits).bit_count() for w in words}) > 1

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
