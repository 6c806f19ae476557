"""Phase polynomials, hierarchy levels, template matching."""

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from diagsynth.gf2 import BitVec
from diagsynth.hierarchy import (
    GateMatch,
    _apply_basis_change,
    _invertible_matrices,
    describe,
    identify,
    level,
    level_recursive,
    match,
    phase_polynomial,
    template_ckz,
    template_tensor_rotation,
)


@st.composite
def exponent_tables(draw, max_k: int = 4, max_level: int = 4):
    k = draw(st.integers(1, max_k))
    lvl = draw(st.integers(1, max_level))
    exps = [draw(st.integers(0, (1 << lvl) - 1)) for _ in range(1 << k)]
    return exps, k, lvl


class TestAnf:
    def test_t_gate(self):
        p = phase_polynomial([0, 1], 1, 3)
        assert p.coeff_dict() == {1: 1}

    def test_cz(self):
        p = phase_polynomial([0, 0, 0, 1], 2, 1)
        assert p.coeff_dict() == {3: 1}

    def test_mixed_diagonal(self):
        # diag(e^{i pi/4}, e^{-i pi/4}, 1, 1) at level 3
        p = phase_polynomial([1, 7, 0, 0], 2, 3)
        assert p.coeff_dict() == {0: 1, 1: 6, 2: 7, 3: 2}

    @given(exponent_tables())
    @settings(max_examples=1000, deadline=None)
    def test_reconstruction_round_trip(self, table):
        exps, k, lvl = table
        p = phase_polynomial(exps, k, lvl)
        assert p.exponents() == exps


class TestLevel:
    def test_named_gates(self):
        assert level(phase_polynomial([0, 1], 1, 3)) == 3  # T
        assert level(phase_polynomial([0, 0, 0, 1], 2, 1)) == 2  # CZ
        e = [0] * 8
        e[7] = 1
        assert level(phase_polynomial(e, 3, 1)) == 3  # CCZ
        assert level(phase_polynomial([0, 1], 1, 1)) == 1  # Z
        assert level(phase_polynomial([3, 3], 1, 2)) == 0  # global phase

    @given(exponent_tables())
    @settings(max_examples=300, deadline=None)
    def test_closed_formula_matches_recursion(self, table):
        exps, k, lvl = table
        assert level(phase_polynomial(exps, k, lvl)) == level_recursive(exps, k, lvl)

    def test_level_invariant_under_promotion(self):
        p = phase_polynomial([0, 0, 0, 1], 2, 1)
        assert level(p.promoted(3)) == level(p)


class TestMatch:
    def test_cz_up_to_pauli(self):
        # diag(-1, 1, 1, 1) = -(CZ)(Z x Z)
        tpl, name = template_ckz(2, 0)
        m = match([1, 0, 0, 0], 2, 1, tpl, name)
        assert m.matched and m.pauli_z_mask == BitVec(2, 0b11)
        assert m.global_phase_exp == 1

    def test_tt_dagger_with_basis_change(self):
        tpl, name = template_tensor_rotation(2, 3, True)
        m = match([1, 7, 0, 0], 2, 3, tpl, name, allow_basis_change=True)
        assert m.matched and m.basis_change is not None
        assert m.global_phase_exp == 1

    def test_unmatched(self):
        tpl, name = template_ckz(2, 0)
        assert not match([0, 0, 0, 0], 2, 1, tpl, name).matched

    def test_basis_change_refused_above_cap(self):
        # GL(5, 2) has about 10^7 matrices: the search must refuse, not run
        tpl, name = template_ckz(5, 0)
        exps = [1] + [0] * 31  # no template match, so a search would be exhaustive
        with pytest.raises(ValueError, match="k <= 4"):
            match(exps, 5, 1, tpl, name, allow_basis_change=True)
        with pytest.raises(ValueError, match="k <= 4"):
            identify(exps, 5, 1, allow_basis_change=True)

    def test_identity_first_in_enumeration(self):
        first = next(iter(_invertible_matrices(3)))
        assert first == (1, 2, 4)

    def test_match_transformation_reproduces_input(self):
        # self-verifying postcondition, checked here independently
        tpl, name = template_tensor_rotation(2, 3, True)
        exps = [1, 7, 0, 0]
        m = match(exps, 2, 3, tpl, name, allow_basis_change=True)
        t_exps = tpl.promoted(3).exponents() if tpl.level < 3 else tpl.exponents()
        rows = m.basis_change or (1, 2)
        mod = 8
        for b in range(4):
            z = 4 * ((b & m.pauli_z_mask.bits).bit_count() & 1)
            got = (t_exps[_apply_basis_change(b, rows)] + m.global_phase_exp + z) % mod
            assert got == exps[b]

    @given(exponent_tables(max_k=3, max_level=3))
    @settings(max_examples=300, deadline=None)
    def test_level_invariant_under_match_group(self, table):
        # phase and relabeling never change the level; a Pauli-Z factor can
        # only lift a pure phase (level 0) to level 1
        exps, k, lvl = table
        base = level(phase_polynomial(exps, k, lvl))
        mod = 1 << lvl
        half = mod >> 1
        rows = tuple(reversed([1 << i for i in range(k)]))
        relabeled = [
            (exps[_apply_basis_change(b, rows)] + 3) % mod for b in range(1 << k)
        ]
        assert level(phase_polynomial(relabeled, k, lvl)) == base
        with_pauli = [
            (e + half * (b & 1)) % mod for b, e in enumerate(relabeled)
        ]
        got = level(phase_polynomial(with_pauli, k, lvl))
        if base >= 2:
            assert got == base
        else:
            assert got <= 1


class TestIdentify:
    def test_p_dagger(self):
        m = identify([1, 7], 1, 3)
        assert m.template == "P'" and m.pauli_z_mask == BitVec(1, 0)

    def test_ccz(self):
        e = [0] * 8
        e[7] = 1
        m = identify(e, 3, 1)
        assert m.template == "CCZ"

    def test_prefers_plain_over_masked(self):
        # exps of P' itself must not come back as P + mask
        m = identify([0, 6], 1, 3)
        assert m.template == "P'" and m.pauli_z_mask == BitVec(1, 0)

    def test_unidentified_reports_unmatched(self):
        m = identify([0, 1, 2, 3], 2, 3)
        assert isinstance(m, GateMatch)


class TestDescribe:
    def test_describe_p_dagger_phase(self):
        p = phase_polynomial([1, 7], 1, 3)
        s = describe(p)
        assert "e^(i*pi*1/4)" in s and "Z^(1/2)[0]'" in s

    def test_describe_identity(self):
        assert describe(phase_polynomial([0, 0], 1, 2)) == "identity"

    def test_describe_ckz_factors(self):
        e = [0] * 8
        e[7] = 1
        assert describe(phase_polynomial(e, 3, 1)) == "CCZ[0,1,2]"
