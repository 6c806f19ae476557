"""CSS code model: construction, frames, distances, encoding, JSON."""

from functools import lru_cache

import pytest
from hypothesis import example, given, settings

from diagsynth import gf2
from diagsynth.csscode import (
    CssCode,
    code_from_json,
    code_to_json,
    encode_basis_state,
)
from diagsynth.errors import CommutationViolation
from diagsynth.families import (
    build_family,
    family_2l_l_2,
    four22_code,
    punctured_qrm,
    qrm_code,
    qrm_pipeline,
    steane_code,
    triorthogonal_2,
)
from diagsynth.gf2 import BitMat, BitVec
from diagsynth.synth import concatenate

from conftest import FAMILY_PARAMS, c1_reducer, c1perp_reducer, c2perp_reducer, css_codes

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
        red = c2perp_reducer(code)
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
            assert red.contains(r) and not c1perp_reducer(code).contains(r)
        for r in f.x_logical_basis:
            assert c1_reducer(code).contains(r) and not code.c2_reducer.contains(r)


def frame_x_reference(code):
    """The frame's X-logical rows as the invert-and-recombine construction
    built them: invert the pairing matrix P of the raw quotient basis X,
    then add up the rows of X that each row of P^-1 names."""
    z_ints = code._z_logicals.row_ints()
    x_ints = gf2.quotient_basis(code.c1, code.x_stab).row_ints()
    k = len(z_ints)
    pairing = [
        sum(((x & z).bit_count() & 1) << j for j, z in enumerate(z_ints)) for x in x_ints
    ]
    aug = [pairing[i] | (1 << (k + i)) for i in range(k)]
    reduced, pivots = gf2._rref_ints(aug)
    assert list(pivots) == list(range(k)), "pairing is singular"
    inv = [reduced[i] >> k for i in range(k)]
    x_rows = []
    for i in range(k):
        acc = 0
        for j in range(k):
            if (inv[i] >> j) & 1:
                acc ^= x_ints[j]
        x_rows.append(acc)
    return x_rows


@lru_cache(maxsize=None)
def _pipeline12():
    return qrm_pipeline(1, 2)


FRAME_CODES = {
    "steane": steane_code,
    "four22": four22_code,
    "qrm13": lambda: qrm_code(1, 3),
    "qrm24": lambda: qrm_code(2, 4),
    "pqrm3": lambda: punctured_qrm(3),
    "two_l3": lambda: family_2l_l_2(3).code,
    "tri2_2": lambda: triorthogonal_2(2).code,
    "concat_qrm13": lambda: concatenate(qrm_code(1, 3)),
    "pipeline12_pre_removal": lambda: _pipeline12().pre_removal,
    "pipeline12_pre_addition": lambda: _pipeline12().pre_addition,
    "pipeline12_final": lambda: _pipeline12().final,
}


class TestFrame:
    """The frame's X side comes from one tagged elimination; it must equal
    the invert-and-recombine construction row for row."""

    @given(css_codes())
    @example(CssCode(2, BitMat.from_strings(["11"]), BitMat.from_strings(["11"])))
    @settings(max_examples=300, deadline=None)
    def test_matches_invert_and_recombine(self, code):
        frame = code.frame
        assert frame.z_logical_basis == code._z_logicals
        assert frame.x_logical_basis.row_ints() == frame_x_reference(code)
        assert frame.x_logical_basis.n == code.n and frame.k == code.k

    @pytest.mark.parametrize("name", FRAME_CODES)
    def test_family_codes(self, name):
        code = FRAME_CODES[name]()
        assert code.frame.x_logical_basis.row_ints() == frame_x_reference(code)


class TestDistances:
    def test_steane(self):
        d_x, d_z = steane_code().distances()
        assert (d_x.value, d_x.exact) == (3, True)
        assert (d_z.value, d_z.exact) == (3, True)

    def test_reads_the_codes_own_bases(self, monkeypatch):
        # a fresh code derives C1, C2-perp, its Z-logical quotient and its
        # frame once each; a code whose frame is built has them all and
        # derives nothing
        fresh, framed = qrm_code(2, 6), qrm_code(2, 6)
        framed.frame
        calls = []
        for name in ("dual_basis", "quotient_basis"):
            plain = getattr(gf2, name)
            monkeypatch.setattr(gf2, name, lambda *a, name=name, plain=plain: calls.append(name) or plain(*a))
        d = fresh.distances(4)
        assert sorted(calls) == ["dual_basis"] * 2 + ["quotient_basis"]
        assert {"c1", "c2perp", "_z_logicals", "frame"} <= set(vars(fresh))
        calls.clear()
        assert framed.distances(4) == d and calls == []
        assert d[1] == gf2.WeightResult(4, True)

    @given(css_codes(min_k=1))
    @settings(max_examples=200, deadline=None)
    def test_dz_reads_any_x_logical_basis(self, code):
        # the frame's X-logicals and the canonical basis of C1 mod C2 mark
        # the same words of C2-perp as odd
        assert code.distances(4)[1] == gf2.min_weight_excluding(
            code.c2perp, gf2.quotient_basis(code.c1, code.x_stab), 4
        )

    @pytest.mark.parametrize(
        "name, params", [(name, p) for name, ps in FAMILY_PARAMS.items() for p in ps]
    )
    def test_dz_of_the_families(self, name, params):
        code = build_family(name, params).code
        assert code.distances()[1] == gf2.min_weight_excluding(
            code.c2perp, gf2.quotient_basis(code.c1, code.x_stab)
        )

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
