"""Built-in code families and the Reed-Muller growth pipeline."""

from math import comb

import pytest

from diagsynth import gf2
from diagsynth.cyclo import Cyclo
from diagsynth.families import (
    build_family,
    expected_2l_row,
    family_2l_l_2,
    four22_code,
    punctured_qrm,
    qrm_code,
    qrm_gate,
    qrm_pipeline,
    rm_generator,
    shortened_rm,
    steane_code,
    triorthogonal_2,
)
from diagsynth.gates import transversal_zrot
from diagsynth.gencoeff import induced_logical, is_preserved, trivial_row
from diagsynth.gf2 import BitVec
from diagsynth.hierarchy import identify, level, phase_polynomial


class TestReedMuller:
    def test_rm_0_2_is_repetition(self):
        assert rm_generator(0, 2).rows == (BitVec.ones(4),)

    def test_rm_1_3_even_weight(self):
        m = rm_generator(1, 3)
        assert m.num_rows == 4
        assert all(r.weight() % 2 == 0 for r in m)

    def test_rm_duality(self):
        # RM(r, m) dual is RM(m - r - 1, m)
        for r, m in [(1, 3), (2, 4), (1, 4), (2, 5), (2, 6), (1, 6)]:
            assert gf2.dual_basis(rm_generator(r, m)) == rm_generator(m - r - 1, m)

    def test_dims(self):
        for m in range(1, 7):
            for r in range(m + 1):
                assert rm_generator(r, m).num_rows == sum(
                    comb(m, i) for i in range(r + 1)
                )

    def test_nesting(self):
        for m in range(2, 7):
            for r in range(m):
                red = gf2.Reducer(rm_generator(r + 1, m))
                for row in rm_generator(r, m):
                    assert red.contains(row)


class TestQrmCodes:
    def test_qrm_1_2_is_422(self):
        assert qrm_code(1, 2) == four22_code()

    def test_qrm_2_4_parameters(self):
        code = qrm_code(2, 4)
        assert (code.n, code.k) == (16, 6)
        d_x, d_z = code.distances()
        assert d_x.value == 4 and d_z.value == 4

    def test_qrm_2_4_preserved_level_2(self):
        code = qrm_code(2, 4)
        gate = qrm_gate(2, 4)
        assert gate == transversal_zrot(16, 2)
        res = is_preserved(code, gate)
        assert res.preserved
        diag = induced_logical(code, gate)
        assert level(phase_polynomial(list(diag.exps), code.k, diag.level)) == 2

    def test_qrm_2_6_parameters(self):
        code = qrm_code(2, 6)
        assert (code.n, code.k) == (64, 15)

    def test_qrm_3_6_parameters(self):
        code = qrm_code(3, 6)
        assert (code.n, code.k) == (64, comb(6, 3))

    def test_range_check(self):
        with pytest.raises(ValueError):
            qrm_code(0, 3)
        with pytest.raises(ValueError):
            qrm_code(3, 3)


class TestPunctured:
    def test_pqrm_2_equals_steane(self):
        code = punctured_qrm(2)
        st = steane_code()
        assert code.x_stab == st.x_stab and code.z_stab == st.z_stab

    def test_pqrm_3_is_15_1_3(self):
        code = punctured_qrm(3)
        assert (code.n, code.k) == (15, 1)
        _, d_z = code.distances()
        assert d_z.value == 3
        assert is_preserved(code, transversal_zrot(15, 3)).preserved

    def test_shortened_dims(self):
        assert shortened_rm(1, 4).num_rows == 4
        assert shortened_rm(2, 4).num_rows == 10


class TestTwoLFamily:
    @pytest.mark.parametrize("l", [2, 3, 4, 5])
    def test_rows_match_table(self, l):
        fb = family_2l_l_2(l)
        assert (fb.code.n, fb.code.k) == (1 << l, l)
        row = trivial_row(fb.code, fb.gate)
        assert row.values() == expected_2l_row(l)

    def test_l3_values(self):
        fb = family_2l_l_2(3)
        row = trivial_row(fb.code, fb.gate)
        vals = row.values()
        assert vals[0] == Cyclo.dyadic(3, 2)
        assert all(v == Cyclo.dyadic(-1, 2) for v in vals[1:])

    def test_distance_2(self):
        fb = family_2l_l_2(4)
        _, d_z = fb.code.distances()
        assert d_z.value == 2

    def test_l3_logical_is_complemented_ccz(self):
        # the induced diagonal flips only the all-zeros logical state: the
        # fully controlled phase with controls on 0, at level 3
        fb = family_2l_l_2(3)
        diag = induced_logical(fb.code, fb.gate)
        half = 1 << (diag.level - 1)
        assert diag.exps[0] == half
        assert all(e == 0 for e in diag.exps[1:])
        assert level(phase_polynomial(list(diag.exps), 3, diag.level)) == 3

    def test_l2_logical_is_cz_up_to_pauli(self):
        # at two logicals the complemented form is plain CZ times Pauli-Z
        fb = family_2l_l_2(2)
        diag = induced_logical(fb.code, fb.gate)
        m = identify(list(diag.exps), 2, diag.level)
        assert m.matched and m.template == "CZ"
        assert m.pauli_z_mask == BitVec(2, 0b11)


class TestTriorthogonal:
    def test_tri2_2_is_14_2_2(self):
        fb = triorthogonal_2(2)
        assert (fb.code.n, fb.code.k) == (14, 2)
        diag = induced_logical(fb.code, fb.gate)
        m = identify(list(diag.exps), 2, diag.level)
        assert m.matched and m.template == "(T')^tensor2"

    def test_tri2_3_is_30_2_2(self):
        fb = triorthogonal_2(3)
        assert (fb.code.n, fb.code.k) == (30, 2)
        assert is_preserved(fb.code, fb.gate).preserved

    def test_level_ladder_through_5(self):
        # each canonical removal raises the induced level by exactly one
        for l in (2, 3, 4):
            fb = triorthogonal_2(l)
            diag = induced_logical(fb.code, fb.gate)
            assert level(phase_polynomial(list(diag.exps), 2, diag.level)) == l + 1


class TestRegistry:
    def test_known_families(self):
        assert build_family("steane", []).code == steane_code()
        assert build_family("two_l", [3]).code.n == 8
        assert build_family("qrm", [2, 4]).code.n == 16
        with pytest.raises(ValueError):
            build_family("nope", [])
        with pytest.raises(ValueError):
            build_family("two_l", [])


class TestQrmPipelineSmall:
    def test_intermediate_realizes_15_ccz_factors(self):
        # the 21-logical checkpoint carries one triple-phase factor per
        # variable pair, visible in the monomial logical frame: CCZ on
        # (x_i, x_j, x_i*x_j) for every i < j
        import numpy as np

        res = qrm_pipeline(1, 2)
        inter = res.intermediate("add_x")
        assert (inter.n, inter.k) == (64, 21)
        # evaluation vectors of the monomials over the 64 points
        def monomial(support):
            bits = 0
            for p in range(64):
                if all((p >> j) & 1 for j in support):
                    bits |= 1 << p
            return BitVec(64, bits)

        singles = [monomial([j]) for j in range(6)]
        import itertools

        pair_list = list(itertools.combinations(range(6), 2))
        pairs = [monomial(list(pq)) for pq in pair_list]
        basis = singles + pairs
        red1 = gf2.Reducer(rm_generator(1, 6))
        for v in singles:
            assert red1.contains(v)
        for v in basis:
            assert inter.c1_reducer.contains(v)
            assert not inter.c2_reducer.contains(v)
        span = gf2.span_words([v.bits for v in basis], 64)[:, 0]
        allones = np.uint64((1 << 64) - 1)
        w0 = np.bitwise_count(span).astype(np.int64)
        w1 = np.bitwise_count(span ^ allones).astype(np.int64)
        e0 = (2 * w0 - 64) % 16
        e1 = (2 * w1 - 64) % 16
        assert bool(np.all(e0 == e1))  # two-term sums collapse to one root
        poly = phase_polynomial(e0.tolist(), 21, 4)
        # pure product of triple phases: one CCZ per perfect matching of
        # the six variables, acting on the three quadratic logicals
        pair_idx = {pq: 6 + t for t, pq in enumerate(pair_list)}
        expected = set()
        for p1 in [(0, j) for j in range(1, 6)]:
            rest = [v for v in range(6) if v not in p1]
            for q in range(1, 4):
                p2 = (rest[0], rest[q])
                p3 = tuple(v for v in rest[1:] if v != rest[q])
                expected.add(
                    (1 << pair_idx[p1]) | (1 << pair_idx[p2]) | (1 << pair_idx[p3])
                )
        assert len(expected) == 15
        assert dict(poly.coeffs) == {m: 8 for m in expected}
        assert level(poly) == 3

    def test_counts_and_final_code(self):
        res = qrm_pipeline(1, 2)
        assert res.concat_count == 4
        assert res.removal_count == 19
        assert res.addition_count == 6
        assert (res.final.n, res.final.k) == (64, 15)
        assert res.final == qrm_code(2, 6) or (
            res.final.x_stab == qrm_code(2, 6).x_stab
            and res.final.z_stab == qrm_code(2, 6).z_stab
        )
        inter = res.intermediate("add_x")
        assert (inter.n, inter.k) == (64, 21)
        assert [s.kind for s in res.steps] == (
            ["concat"] * 4 + ["remove_z"] * 19 + ["add_x"] * 6
        )
        # every step is checked: the row norm while k <= 12, the low-degree
        # test above it
        assert [s.admissible for s in res.steps] == [True] * 29
        for prev, step in zip(res.steps, res.steps[1:]):
            assert step.before == prev.after
        assert res.steps[0].before == {"n": 4, "k": 2}
        assert res.steps[-1].after == {"n": 64, "k": 15}
        assert all("gamma0" in s.detail for s in res.steps if s.kind == "remove_z")
        assert all("mu0" in s.detail for s in res.steps if s.kind == "add_x")

    def test_next_step_past_64_qubits(self):
        # [[8,3,2]] -> [[256,28,8]]: every step is checked exactly at n = 256
        res = qrm_pipeline(1, 3)
        assert (res.concat_count, res.removal_count, res.addition_count) == (5, 33, 8)
        assert [s.admissible for s in res.steps] == [True] * 46
        assert res.final == qrm_code(2, 8)

    def test_count_formulas(self):
        r, m = 1, 2
        h = r + m // r + 1
        assert comb(m + h, r + 1) + comb(m + h, r) - comb(m, r) == 19
        assert comb(m + h, r) == 6
