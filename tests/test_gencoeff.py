"""Generator-coefficient engine: values, preservation, splits, logicals."""

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from diagsynth import gencoeff, report
from diagsynth.csscode import CssCode
from diagsynth.cyclo import ONE, Cyclo, cos_pi_over, minus_i_sin_pi_over
from diagsynth.errors import BudgetExceeded, NotPreserved
from diagsynth.families import four22_code, qrm_code, qrm_gate, steane_code
from diagsynth.gates import (
    LocalDiag,
    block_gate,
    elementary_ckz,
    qfd_gate,
    transversal_zrot,
)
from diagsynth.gencoeff import (
    coefficient,
    induced_logical,
    is_preserved,
    split_values,
    syndrome_row,
    trivial_row,
)
from diagsynth.gf2 import BitMat, BitVec

from conftest import codes_with_gates, x_side, z_side


def isin(level):
    return -minus_i_sin_pi_over(level)


class TestPaperValues:
    def test_steane_phase_rotation_row(self):
        row = trivial_row(steane_code(), transversal_zrot(7, 2))
        vals = row.values()
        assert vals[0] == cos_pi_over(2)
        assert vals[1] == isin(2)
        assert row.exactness == "exact-full"

    def test_422_rotation_row(self):
        row = trivial_row(four22_code(), transversal_zrot(4, 2))
        h = Cyclo.dyadic(1, 1)
        assert row.values() == [h, -h, -h, -h]

    def test_422_czcz_row(self):
        cz = elementary_ckz(1, 0)
        g = block_gate(4, [((0, 1), cz), ((2, 3), cz)])
        code = four22_code()
        zero = BitVec.zeros(4)
        g1, g2 = BitVec.from_string("0011"), BitVec.from_string("0110")
        h = Cyclo.dyadic(1, 1)
        vals = [coefficient(code, g, zero, x) for x in (zero, g1, g2, g1 ^ g2)]
        assert vals == [h, -h, h, h]

    def test_422_doubled_cp_blocks_match(self):
        # the doubled code with adjacent controlled-phase blocks restricts
        # on duplicated words to the two controlled-Z blocks, so the whole
        # table transfers: same values at ([mu,0], [gamma,0])
        from diagsynth.synth import concatenate

        cz = elementary_ckz(1, 0)
        cp = elementary_ckz(1, 1)
        small = four22_code()
        g_small = block_gate(4, [((0, 1), cz), ((2, 3), cz)])
        big = concatenate(small)
        g_big = block_gate(8, [((2 * i, 2 * i + 1), cp) for i in range(4)])
        zeros = BitVec.zeros(4)
        h = Cyclo.dyadic(1, 1)
        expected = [h, -h, h, h]
        g1, g2 = BitVec.from_string("0011"), BitVec.from_string("0110")
        for gamma, want in zip([zeros, g1, g2, g1 ^ g2], expected):
            small_val = coefficient(small, g_small, zeros, gamma)
            big_val = coefficient(big, g_big, zeros.concat(zeros), gamma.concat(zeros))
            assert small_val == want
            assert big_val == want

    def test_identity_gate_trivial_row(self):
        code = four22_code()
        row = trivial_row(code, block_gate(4, []))
        vals = row.values()
        assert vals[0] == ONE and all(v.is_zero() for v in vals[1:])

    def test_steane_preserved(self):
        res = is_preserved(steane_code(), transversal_zrot(7, 2))
        assert res.preserved and res.norm == ONE

    def test_422_transversal_t_not_preserved(self):
        res = is_preserved(four22_code(), transversal_zrot(4, 3))
        assert not res.preserved
        assert res.norm == Cyclo.dyadic(3, 2)

    def test_steane_induced_logical_is_p_dagger(self):
        diag = induced_logical(steane_code(), transversal_zrot(7, 2))
        assert diag.exps == (1, 7) and diag.level == 3

    def test_gamma_must_be_logical(self):
        code = four22_code()
        with pytest.raises(ValueError):
            coefficient(
                code,
                transversal_zrot(4, 2),
                BitVec.zeros(4),
                BitVec.from_string("1000"),
            )


class TestSplitValues:
    def test_concatenated_half_support(self):
        from diagsynth.synth import concatenate

        code = concatenate(steane_code())
        gate = transversal_zrot(14, 3)
        w0 = BitVec.ones(7).concat(BitVec.zeros(7))
        svals = split_values(code, gate, w0)
        gammas = list(svals)
        assert svals[gammas[0]] == ONE  # gamma = 0
        assert all(svals[g].is_zero() for g in gammas[1:])

    def test_concatenated_422(self):
        from diagsynth.synth import concatenate

        code = concatenate(four22_code())
        gate = transversal_zrot(8, 3)
        w0 = BitVec.ones(4).concat(BitVec.zeros(4))
        svals = split_values(code, gate, w0)
        vals = list(svals.values())
        assert vals[0] == ONE and all(v.is_zero() for v in vals[1:])

    def test_w0_in_c1_rejected(self):
        code = four22_code()
        with pytest.raises(ValueError):
            split_values(code, transversal_zrot(4, 2), BitVec.from_string("1100"))

    def test_dual_route_matches_direct(self):
        # a tight budget refuses the split code's X side (2^5 words) but
        # leaves its stabilizer side (2^2 words) affordable; both budgets
        # must give the same values
        code, gate = steane_code(), transversal_zrot(7, 2)
        w0 = BitVec.from_string("1000000")
        gammas = [code.z_logical(a) for a in range(2)]
        direct = split_values(code, gate, w0, gammas=gammas)
        dual = split_values(code, gate, w0, gammas=gammas, budget=8)
        assert direct == dual


class TestSideAgreement:
    @given(codes_with_gates(max_n=7))
    @settings(max_examples=300, deadline=None)
    def test_sides_agree(self, cg):
        code, gate = cg
        mu = code.syndrome_reps()[-1]
        gamma = code.z_logical((1 << code.k) - 1)
        s = mu.bits ^ gamma.bits
        ax = x_side(code, gate, s, 1 << 26)
        az = z_side(code, gate, s, 1 << 26)
        assert ax == az

    def test_sides_agree_exhaustive_steane(self):
        code, gate = steane_code(), transversal_zrot(7, 2)
        for mu in code.syndrome_reps():
            for a in range(1 << code.k):
                s = mu.bits ^ code.z_logical(a).bits
                assert x_side(code, gate, s, 1 << 26) == z_side(
                    code, gate, s, 1 << 26
                )


class TestPreservationEquivalence:
    @given(codes_with_gates(max_n=7, min_k=1))
    @settings(max_examples=300, deadline=None)
    def test_norm_one_iff_nontrivial_rows_vanish(self, cg):
        code, gate = cg
        res = is_preserved(code, gate)
        leaks = []
        for mu in code.syndrome_reps()[1:]:
            row = syndrome_row(code, gate, mu)
            leaks.extend(row.values())
        all_zero = all(v.is_zero() for v in leaks)
        assert res.preserved == all_zero

    @given(codes_with_gates(max_n=6, min_k=1))
    @settings(max_examples=300, deadline=None)
    def test_kraus_completeness_numeric(self, cg):
        code, gate = cg
        total = 0.0
        for mu in code.syndrome_reps():
            for v in syndrome_row(code, gate, mu).values():
                total += abs(v.to_complex()) ** 2
        assert total == pytest.approx(1.0, abs=1e-9)


def inverse_hadamard(exps, level, k):
    """Reference: A(g(alpha)) = 2^-k sum_beta (-1)^(alpha.beta)
    zeta^exps[beta], one Python sum per alpha."""
    out = []
    for alpha in range(1 << k):
        counts = [0] * (1 << level)
        for beta, e in enumerate(exps):
            counts[e] += -1 if (alpha & beta).bit_count() & 1 else 1
        out.append(Cyclo.from_root_counts(level, counts, k))
    return out


class TestDiagonalRoutes:
    @given(codes_with_gates(max_n=6, min_k=1))
    @settings(max_examples=200, deadline=None)
    def test_codeword_route_matches_row_route(self, cg):
        # the row and its verdict come from the Z side here; the logical
        # is read from the gate at the logical words
        code, gate = cg
        assume(code.dim_c1 > code.dim_c1perp)
        row = trivial_row(code, gate)
        if row.norm() != ONE:
            with pytest.raises(NotPreserved):
                induced_logical(code, gate)
            return
        exps = induced_logical(code, gate).exps
        assert row.values() == inverse_hadamard(exps, gate.level, code.k)

    @given(codes_with_gates(max_n=6, min_k=1))
    @settings(max_examples=200, deadline=None)
    def test_inverse_hadamard_recovers_row(self, cg):
        code, gate = cg
        res = is_preserved(code, gate)
        assume(res.preserved)
        exps = induced_logical(code, gate).exps
        assert trivial_row(code, gate).values() == inverse_hadamard(exps, gate.level, code.k)

    def test_not_preserved_raises(self):
        # norm route: [[4,2,2]] + T, and a coset {00, 11} holding zeta^0 and
        # zeta^2, which cancel in the only channel of its table
        pair = CssCode(2, BitMat.from_strings(["11"]), BitMat.empty(2))
        cancelling = block_gate(2, [((0, 1), LocalDiag(2, 2, (0, 0, 0, 2)))])
        for code, gate in [(four22_code(), transversal_zrot(4, 3)), (pair, cancelling)]:
            assert is_preserved(code, gate).method == "coefficient-norm"
            with pytest.raises(NotPreserved, match="not preserved"):
                induced_logical(code, gate)
        # low-degree route: [[64,15,4]] with the rotation one level up
        code, gate = qrm_code(2, 6), transversal_zrot(64, 4)
        with pytest.raises(NotPreserved):
            induced_logical(code, gate)
        assert is_preserved(code, gate).method == "low-degree"

    def test_logical_diagonal_budget(self):
        # the verdict is memoized, so only the 2^k read meets the budget
        code, gate = four22_code(), transversal_zrot(4, 2)
        assert is_preserved(code, gate).preserved
        with pytest.raises(BudgetExceeded, match="2\\^2 logical diagonal") as exc:
            induced_logical(code, gate, budget=3)
        assert exc.value.required_log2 == 2
        assert induced_logical(code, gate, budget=4) == induced_logical(code, gate)


class TestVerdictMemo:
    def test_weight_affine_gates_share_an_entry(self, monkeypatch):
        # exp(-i pi/2 Z) on every qubit and the form 2I have one diagonal
        code = four22_code()
        rot = transversal_zrot(4, 1)
        form = qfd_gate(4, 2, [[2 if i == j else 0 for j in range(4)] for i in range(4)])
        assert rot.weight_affine == form.weight_affine
        assert is_preserved(code, rot).preserved
        assert code._caches["verdicts"] == {rot.weight_affine: True}
        want = induced_logical(code, rot)

        def refuse(*args):
            raise AssertionError("the memo should answer")

        monkeypatch.setattr(gencoeff, "is_preserved", refuse)
        assert induced_logical(code, form) == want

    def test_other_gate_is_decided(self):
        code = four22_code()
        assert induced_logical(code, transversal_zrot(4, 2)).exps
        with pytest.raises(NotPreserved):
            induced_logical(code, transversal_zrot(4, 3))
        assert code._caches["verdicts"] == {
            transversal_zrot(4, 2).weight_affine: True,
            transversal_zrot(4, 3).weight_affine: False,
        }

    def test_results_follow_the_budget(self):
        # [[8,3,2]] with T: 2^4 words on either side for the norm, 14 points
        # of weight <= 3 for the low-degree test
        code, gate = qrm_code(1, 3), qrm_gate(1, 3)
        for budget, method in [(1 << 26, "coefficient-norm"), (14, "low-degree")] * 2:
            res = is_preserved(code, gate, budget)
            assert res.preserved and res.method == method
            if method == "low-degree":
                assert res.norm is res.row is None and (res.degree, res.points) == (3, 14)
            else:
                assert res.norm == ONE and res.row is not None


class TestBeyondWordSize:
    def test_python_paths_past_64_qubits(self):
        # past one 64-bit word the split code's table, read by split_values,
        # and the removed code's table must agree with the small-code
        # identities
        n = 66
        rep = BitMat.from_strings(["1" * n])
        code = CssCode(n, rep, rep)
        gate = transversal_zrot(n, 2)
        zero = BitVec.zeros(n)
        gamma = code.z_logical(1)
        w0 = BitVec.unit(n, 0)
        svals = split_values(code, gate, w0, gammas=[gamma])
        from diagsynth.synth import remove_z

        res = remove_z(code, None, w0, check="skip")
        a_old = coefficient(code, gate, zero, gamma)
        a1 = coefficient(res.code, gate, zero, gamma)
        a2 = coefficient(res.code, gate, zero, gamma ^ res.gamma0)
        assert a_old == a1 + a2
        assert a1 == (a_old + svals[gamma]).scaled(1)


class TestBudget:
    def test_budget_error_reports_dimension(self):
        code = four22_code()
        with pytest.raises(BudgetExceeded) as exc:
            coefficient(
                code,
                transversal_zrot(4, 2),
                BitVec.zeros(4),
                BitVec.zeros(4),
                budget=1,
            )
        assert exc.value.required_log2 is not None

    @given(codes_with_gates(max_n=8))
    @settings(max_examples=100, deadline=None)
    def test_all_gammas_in_frame_order(self, cg):
        code, _ = cg
        assert gencoeff._all_gammas(code) == [code.z_logical(a) for a in range(1 << code.k)]

    def test_row_cap_refusal(self):
        # 13 logicals: one past the row cap
        n = 13
        code = CssCode(n, BitMat.empty(n), BitMat.empty(n))
        with pytest.raises(BudgetExceeded, match="full row has 2\\^13 entries") as exc:
            gencoeff._all_gammas(code)
        assert exc.value.required_log2 == 13

    def test_sampled_row_mode(self):
        code, gate = four22_code(), transversal_zrot(4, 2)
        gammas = [code.z_logical(1)]
        row = trivial_row(code, gate, gammas=gammas)
        assert row.exactness == "exact-sampled"
        assert list(row.entries) == gammas


class TestLowDegreeCertificate:
    def test_certificate_on_preserved_code(self):
        code, gate = steane_code(), transversal_zrot(7, 2)
        assert gencoeff._low_degree(code, gate, 1 << 26) is None
        assert is_preserved(code, gate).preserved

    def test_certificate_flags_nonpreserved(self):
        code, gate = four22_code(), transversal_zrot(4, 3)
        assert gencoeff._low_degree(code, gate, 1 << 26) is not None
        assert not is_preserved(code, gate).preserved

    def test_degree_bound_is_needed(self, monkeypatch):
        # an [[8,2]] code with T: F vanishes on every point of weight <= 2
        # of its three basis rows and not on their sum, at weight D = 3
        code = CssCode(
            8,
            BitMat.from_strings(["00110101"]),
            BitMat.from_strings(["10000010", "01000010", "00110010", "00001010", "00000111"]),
            BitVec.from_string("01100011"),
        )
        gate = transversal_zrot(8, 3)
        assert gencoeff.low_degree_bound(gate) == 3 == code.dim_c1
        monkeypatch.setattr(gencoeff, "low_degree_bound", lambda g: 2)
        assert gencoeff._low_degree(code, gate, 1 << 26) is None
        assert not is_preserved(code, gate).preserved

    def test_degree_bounds(self):
        # L - v2(slope) for weight-affine gates, the highest block level
        # for block products, L for a general quadratic form
        assert gencoeff.low_degree_bound(transversal_zrot(8, 3)) == 3
        assert gencoeff.low_degree_bound(transversal_zrot(8, 1)) == 1
        assert gencoeff.low_degree_bound(qfd_gate(3, 4, [[4, 0, 0], [0, 4, 0], [0, 0, 4]])) == 2
        assert gencoeff.low_degree_bound(qfd_gate(2, 3, [[0, 0], [0, 0]])) == 0
        assert gencoeff.low_degree_bound(qfd_gate(2, 3, [[1, 2], [2, 0]])) == 3
        ccz_s = block_gate(5, [((0, 1, 2), elementary_ckz(2, 0)), ((3,), elementary_ckz(0, 1))])
        assert gencoeff.low_degree_bound(ccz_s) == 3
        assert gencoeff.low_degree_bound(block_gate(4, [])) == 0

    def test_verdict_records_degree_and_points(self):
        # [[64,20]] with its rotation: D = 2 over dim C1 = 42, 42 + 861 points
        code = qrm_code(3, 6)
        pres = is_preserved(code, transversal_zrot(64, 2))
        assert (code.dim_c1, pres.method) == (42, "low-degree")
        assert (pres.degree, pres.points) == (2, 903)
        norm = is_preserved(steane_code(), transversal_zrot(7, 2))
        assert norm.method == "coefficient-norm" and norm.degree is norm.points is None

    @pytest.mark.parametrize("r, m", [(3, 6), (2, 8), (4, 8), (3, 9)])
    def test_large_qrm_codes(self, r, m):
        # every route before the low-degree test refused these codes
        code = qrm_code(r, m)
        pres = is_preserved(code, qrm_gate(r, m))
        assert pres.preserved and pres.method == "low-degree" and pres.norm is None
        assert not is_preserved(code, transversal_zrot(code.n, m // r + 1)).preserved

    def test_logical_past_the_budget(self):
        # [[256,28]] is certified preserved; its 2^28 logical words are not
        # read at the default budget of 2^26
        code, gate = qrm_code(2, 8), qrm_gate(2, 8)
        assert report.logical_summary(code, gate, 1 << 26) == {
            "available": False,
            "reason": "2^28 logical diagonal",
        }
