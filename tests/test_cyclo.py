"""Exact dyadic cyclotomic arithmetic."""

import cmath

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from diagsynth.cyclo import (
    ONE,
    Cyclo,
    cos_pi_over,
    minus_i_sin_pi_over,
    sqrt2,
)


@st.composite
def cyclos(draw, max_level: int = 5, max_coeff: int = 9, max_denom: int = 4):
    level = draw(st.integers(1, max_level))
    coeffs = [
        draw(st.integers(-max_coeff, max_coeff)) for _ in range(1 << (level - 1))
    ]
    e = draw(st.integers(0, max_denom))
    return Cyclo(level, coeffs, e)


class TestBasics:
    def test_i_squared(self):
        i = Cyclo.root_of_unity(2, 1)
        assert i * i == Cyclo.integer(-1)

    def test_mul_identity(self):
        x = Cyclo(3, [3, -1, 0, 2], 2)
        assert x * ONE == x

    def test_sqrt2_from_cosines(self):
        c = cos_pi_over(2)
        s = c + c
        assert s == sqrt2()
        assert abs(s.to_complex() - 1.41421356237309) < 1e-12

    def test_conj(self):
        i = Cyclo.root_of_unity(2, 1)
        assert i.conj() == Cyclo.root_of_unity(2, -1)
        assert ONE.conj() == ONE

    def test_abs_sq_examples(self):
        assert cos_pi_over(2).abs_sq() == Cyclo.dyadic(1, 1)
        c3, s3 = cos_pi_over(3), minus_i_sin_pi_over(3)
        assert (c3 + s3).abs_sq() == ONE
        assert c3.abs_sq() + s3.abs_sq() == ONE

    def test_as_root_of_unity(self):
        assert ONE.as_root_of_unity() == 0
        assert Cyclo.root_of_unity(3, 1).as_root_of_unity() == 1
        assert Cyclo.dyadic(1, 1).as_root_of_unity() is None
        assert Cyclo.integer(-1).as_root_of_unity() == 1  # at level 1

    def test_promote(self):
        i = Cyclo.root_of_unity(2, 1)
        p = i.promote(3)
        assert p.level == 3 and p.as_root_of_unity() == 2
        assert p == i
        assert Cyclo.integer(-1).promote(3) == Cyclo.root_of_unity(3, 4)
        c = cos_pi_over(2)
        assert abs(c.promote(4).to_complex() - c.to_complex()) < 1e-15
        with pytest.raises(ValueError):
            p.demoted().promote(1)

    def test_promote_then_demote_is_identity(self):
        x = Cyclo(3, [1, 2, 0, -1], 1)
        assert x.promote(5).demoted() == x

    def test_serialization_round_trip(self):
        for x in [ONE, sqrt2(), Cyclo(4, [1, -3, 0, 0, 2, 0, 0, 7], 3)]:
            assert Cyclo.parse(x.serialize()) == x

    def test_pretty(self):
        assert Cyclo.dyadic(3, 2).pretty() == "3/4"
        assert Cyclo.integer(5).pretty() == "5"
        assert Cyclo.root_of_unity(3, 1).pretty() == "zeta_8^1"

    def test_from_root_counts(self):
        # 2 copies of zeta_8 plus one of zeta_8^5 = zeta_8
        counts = [0] * 8
        counts[1] = 2
        counts[5] = 1
        assert Cyclo.from_root_counts(3, counts) == Cyclo.root_of_unity(3, 1)

    def test_level_cap(self):
        with pytest.raises(ValueError):
            Cyclo(9, [0] * 256)


class TestRingAxioms:
    @given(cyclos(), cyclos(), cyclos())
    @settings(max_examples=1000, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Cyclo.zero() == a
        assert a * ONE == a
        assert (a - a).is_zero()

    @given(cyclos())
    @settings(max_examples=1000, deadline=None)
    def test_float_agreement(self, a):
        half = 1 << (a.level - 1)
        direct = sum(
            c * cmath.exp(1j * cmath.pi * j / half) for j, c in enumerate(a.coeffs)
        ) / (1 << a.denom_exp)
        assert abs(a.to_complex() - direct) < 1e-12

    @given(cyclos())
    @settings(max_examples=500, deadline=None)
    def test_conj_involution_and_abs_sq_real(self, a):
        assert a.conj().conj() == a
        sq = a.abs_sq()
        assert sq == sq.conj()
        assert sq.to_complex().imag == pytest.approx(0.0, abs=1e-9)
        assert abs(sq.to_complex().real - abs(a.to_complex()) ** 2) < 1e-9

    @given(cyclos(), st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_promote_preserves_arithmetic(self, a, up):
        lvl = min(a.level + up, 8)
        p = a.promote(lvl)
        assert p == a
        assert p + p == a + a
        assert p * p == a * a
