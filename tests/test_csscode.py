"""CSS code model: construction, frames, distances, encoding, JSON."""

import pytest
from hypothesis import given, settings

from diagsynth.csscode import (
    CssCode,
    code_from_json,
    code_to_json,
    encode_basis_state,
)
from diagsynth.errors import CommutationViolation
from diagsynth.families import four22_code, steane_code
from diagsynth.gf2 import BitMat, BitVec

from conftest import css_codes

STEANE_H = ["1111000", "1100110", "1010101"]


class TestConstruction:
    def test_steane(self):
        code = steane_code()
        assert (code.n, code.k) == (7, 1)
        assert code.dim_c2 == 3 and code.dim_c1 == 4

    def test_422(self):
        code = four22_code()
        assert (code.n, code.k) == (4, 2)

    def test_commutation_violation(self):
        with pytest.raises(CommutationViolation):
            CssCode(4, BitMat.from_strings(["1100"]), BitMat.from_strings(["1000"]))

    @given(css_codes())
    @settings(max_examples=300)
    def test_derived_structure(self, code):
        # C1-perp inside C2-perp and the dimension gap is k
        red = code.c2perp_reducer
        for z in code.z_stab:
            assert red.contains(z)
        assert code.c2perp.num_rows - code.dim_c1perp == code.k
        # frame pairing is the identity by construction
        f = code.frame
        for i in range(code.k):
            for j in range(code.k):
                assert f.x_logical_basis.rows[i].dot(f.z_logical_basis.rows[j]) == (
                    1 if i == j else 0
                )
        # logical representatives live in the right quotients
        for r in f.z_logical_basis:
            assert red.contains(r) and not code.c1perp_reducer.contains(r)
        for r in f.x_logical_basis:
            assert code.c1_reducer.contains(r) and not code.c2_reducer.contains(r)


class TestDistances:
    def test_steane(self):
        d_x, d_z = steane_code().distances()
        assert (d_x.value, d_x.exact) == (3, True)
        assert (d_z.value, d_z.exact) == (3, True)

    def test_zero_logicals_rejected(self):
        rep = BitMat.from_strings(["11"])
        code = CssCode(2, rep, rep)
        assert code.k == 0
        with pytest.raises(ValueError):
            code.distances()


class TestEncoding:
    def test_422_plus_state(self):
        code = four22_code()
        st = encode_basis_state(code, BitVec.zeros(2))
        assert sorted(w.to01() for w in st.amps) == ["0000", "1111"]

    def test_422_character_shift(self):
        code = CssCode(
            4,
            BitMat.from_strings(["1111"]),
            BitMat.from_strings(["1111"]),
            BitVec.from_string("0011"),
        )
        st = encode_basis_state(code, BitVec.zeros(2))
        assert sorted(w.to01() for w in st.amps) == ["0011", "1100"]

    def test_steane_superposition_orthonormal(self):
        code = steane_code()
        s0 = encode_basis_state(code, BitVec.zeros(1))
        s1 = encode_basis_state(code, BitVec.ones(1))
        assert len(s0.amps) == len(s1.amps) == 8
        assert s0.inner(s0) == pytest.approx(1.0, abs=1e-12)
        assert abs(s0.inner(s1)) < 1e-12

    @given(css_codes(max_n=6, min_k=1))
    @settings(max_examples=100, deadline=None)
    def test_orthonormal_family(self, code):
        states = [
            encode_basis_state(code, BitVec(code.k, a)) for a in range(1 << code.k)
        ]
        for a, sa in enumerate(states):
            for b, sb in enumerate(states):
                want = 1.0 if a == b else 0.0
                assert sa.inner(sb) == pytest.approx(want, abs=1e-12)

    def test_orthonormal_at_n16(self):
        from diagsynth.families import qrm_code

        code = qrm_code(2, 4)
        states = [
            encode_basis_state(code, BitVec(code.k, a)) for a in range(1 << code.k)
        ]
        for a, sa in enumerate(states):
            assert sa.inner(sa) == pytest.approx(1.0, abs=1e-12)
            for sb in states[a + 1 :]:
                assert abs(sa.inner(sb)) < 1e-12

    def test_x_character_vector_signs(self):
        code = steane_code()
        r = BitVec.from_string("1001011")  # a row of C2: flips no signs
        st = encode_basis_state(code, BitVec.zeros(1), r=r)
        # signs (-1)^(x.r) with x, r both in the self-dual-ish row space
        for w, amp in st.amps.items():
            assert amp.demoted().coeffs[0] in (-1, 1)


class TestJson:
    def test_round_trip(self):
        for code in (steane_code(), four22_code()):
            assert code_from_json(code_to_json(code)) == code

    @given(css_codes())
    @settings(max_examples=200)
    def test_round_trip_random(self, code):
        j = code_to_json(code)
        back = code_from_json(j)
        assert back == code
        assert code_to_json(back) == j
