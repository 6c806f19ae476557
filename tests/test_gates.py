"""Diagonal gate model: entries, Pauli expansion, lifts, JSON."""

import cmath

import random

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from diagsynth.cyclo import ONE, Cyclo, cos_pi_over, minus_i_sin_pi_over
from diagsynth.gates import (
    BlockProductGate,
    LocalDiag,
    block_gate,
    d_entry,
    elementary_ckz,
    entry_exponent,
    entry_exponent_int,
    gate_from_json,
    gate_to_json,
    lift,
    pauli_coeff,
    qfd_gate,
    span_exponents,
    transversal_zrot,
    weight_affine_form,
)
from diagsynth.gf2 import BitVec

from conftest import block_gates, full_words, qfd_gates, seeded_gates


class TestConstructors:
    def test_zrot_1_1_is_minus_i_i(self):
        g = transversal_zrot(1, 1)
        assert d_entry(g, BitVec(1, 0)) == Cyclo.root_of_unity(2, -1)
        assert d_entry(g, BitVec(1, 1)) == Cyclo.root_of_unity(2, 1)

    def test_zrot_7_2_global_phase(self):
        g = transversal_zrot(7, 2)
        # entry at 0 is e^{-7 i pi / 4}; transversal phase-gate entries
        # match after factoring it out
        d0 = d_entry(g, BitVec(7, 0))
        assert d0 == Cyclo.root_of_unity(3, -7)
        for u in range(128):
            w = u.bit_count()
            expect = (-7 + 2 * w) % 16
            assert entry_exponent_int(g, u) == expect % 8 or True
            assert entry_exponent_int(g, u) == (2 * w - 7) % 8

    def test_zrot_14_3_is_transversal_t_up_to_phase(self):
        g = transversal_zrot(14, 3)
        d0 = d_entry(g, BitVec(14, 0))
        assert d0 == Cyclo.root_of_unity(4, -14)
        for u in (0, 1, 0b11, 0b111):
            k = entry_exponent_int(g, u)
            assert (k - entry_exponent_int(g, 0)) % 16 == (2 * u.bit_count()) % 16

    def test_elementary_cz(self):
        cz = elementary_ckz(1, 0)
        assert cz.exps == (0, 0, 0, 1) and cz.level == 1

    def test_elementary_t(self):
        t = elementary_ckz(0, 2)
        assert t.exps == (0, 1) and t.level == 3

    def test_elementary_ccz(self):
        ccz = elementary_ckz(2, 0)
        assert ccz.b == 3 and ccz.exps[-1] == 1 and ccz.level == 1

    def test_block_cap(self):
        with pytest.raises(ValueError):
            elementary_ckz(3, 0)

    def test_level_cap(self):
        with pytest.raises(ValueError):
            transversal_zrot(2, 8)


class TestEntries:
    def test_qfd_pp(self):
        g = qfd_gate(2, 2, [[1, 0], [0, 1]])
        assert entry_exponent(g, BitVec.from_string("11")) == 2
        assert d_entry(g, BitVec.from_string("11")) == Cyclo.integer(-1)

    def test_entry_deterministic(self):
        g = transversal_zrot(5, 2)
        u = BitVec.from_string("10110")
        assert entry_exponent(g, u) == entry_exponent(g, u)

    def test_qfd_cz_representation(self):
        g = qfd_gate(2, 2, [[0, 1], [1, 0]])
        entries = [d_entry(g, BitVec(2, u)) for u in range(4)]
        assert entries == [ONE, ONE, ONE, Cyclo.integer(-1)]


class TestPauliCoeff:
    def test_cz_block(self):
        g = block_gate(2, [((0, 1), elementary_ckz(1, 0))])
        f = [pauli_coeff(g, BitVec(2, v)) for v in range(4)]
        h = Cyclo.dyadic(1, 1)
        assert f == [h, h, h, -h]

    def test_single_rotation_gate_form(self):
        # the level-j phase gate on one qubit expands as
        # x(c I + s Z) with x the half-angle phase
        for j in (1, 2, 3):
            g = block_gate(1, [((0,), elementary_ckz(0, j))])
            x = Cyclo.root_of_unity(j + 2, 1)  # half-angle phase
            c = cos_pi_over(j + 1)
            s = minus_i_sin_pi_over(j + 1)
            assert pauli_coeff(g, BitVec(1, 0)) == x * c
            assert pauli_coeff(g, BitVec(1, 1)) == x * s

    def test_identity_gate(self):
        g = block_gate(2, [])
        assert pauli_coeff(g, BitVec(2, 0)) == ONE
        assert pauli_coeff(g, BitVec(2, 1)).is_zero()

    @given(st.integers(2, 6).flatmap(lambda n: block_gates(n)))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_and_parseval(self, g):
        n = g.n
        lvl = g.level
        # reconstruct every diagonal entry from the expansion
        for u in range(1 << n):
            acc = Cyclo.zero()
            for v in range(1 << n):
                f = pauli_coeff(g, BitVec(n, v))
                if f.is_zero():
                    continue
                acc = acc - f if (u & v).bit_count() & 1 else acc + f
            assert acc == Cyclo.root_of_unity(lvl, entry_exponent_int(g, u))
        total = Cyclo.zero()
        for v in range(1 << n):
            total = total + pauli_coeff(g, BitVec(n, v)).abs_sq()
        assert total == ONE

    @given(st.integers(2, 5).flatmap(lambda n: qfd_gates(n)))
    @settings(max_examples=100, deadline=None)
    def test_qfd_parseval(self, g):
        total = Cyclo.zero()
        for v in range(1 << g.n):
            total = total + pauli_coeff(g, BitVec(g.n, v)).abs_sq()
        assert total == ONE


class TestLift:
    def test_next_level_on_steane_rotation(self):
        g = transversal_zrot(7, 2)
        lifted = lift(g, "next_level_rotation")
        assert lifted == transversal_zrot(14, 3)

    def test_identity_tensor_moves_blocks_up(self):
        g = transversal_zrot(7, 2)
        lifted = lift(g, "identity_tensor")
        assert isinstance(lifted, BlockProductGate) and lifted.n == 14
        covered = {q for qubits, _ in lifted.blocks for q in qubits}
        assert covered == set(range(7, 14))

    def test_policy_mismatch(self):
        with pytest.raises(ValueError):
            lift(qfd_gate(2, 2, [[1, 0], [0, 1]]), "next_level_rotation")
        with pytest.raises(ValueError):
            lift(transversal_zrot(2, 2), "qfd_tensor")

    @given(st.integers(1, 5), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_zrot_lifts_restrict_correctly(self, n, l):
        g = transversal_zrot(n, l)
        for policy in ("identity_tensor", "next_level_rotation"):
            lifted = lift(g, policy)
            shift = lifted.level - g.level
            for u in range(1 << n):
                uu = u | (u << n)
                assert (
                    entry_exponent_int(g, u) << shift
                ) % (1 << lifted.level) == entry_exponent_int(lifted, uu)

    @given(st.integers(1, 4).flatmap(lambda n: qfd_gates(n)))
    @settings(max_examples=60, deadline=None)
    def test_qfd_lift_restricts_correctly(self, g):
        lifted = lift(g, "qfd_tensor")
        for u in range(1 << g.n):
            uu = u | (u << g.n)
            assert (entry_exponent_int(g, u) << 1) % (
                1 << lifted.level
            ) == entry_exponent_int(lifted, uu)


class TestAffineForm:
    def test_zrot_affine(self):
        off, slope, lvl = weight_affine_form(transversal_zrot(4, 2))
        assert (off, slope, lvl) == (4, 2, 3)

    def test_block_mixture_not_affine(self):
        g = block_gate(2, [((0, 1), elementary_ckz(1, 0))])
        assert weight_affine_form(g) is None

    def test_uniform_qfd_affine(self):
        g = qfd_gate(3, 2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert weight_affine_form(g) == (0, 1, 2)


def span_element(basis, j):
    """The span element c_j: the basis rows named by the bits of j."""
    c = 0
    for i, b in enumerate(basis):
        if (j >> i) & 1:
            c ^= b
    return c


def check_span_exponents(gate, basis, y, positions):
    got = span_exponents(gate, basis, y)
    assert got.dtype == np.uint8 and got.shape == (1 << len(basis),)
    for j in positions:
        assert int(got[j]) == entry_exponent_int(gate, y ^ span_element(basis, j)), j


class TestSpanExponents:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_entry_exponent(self, data):
        # every element of spans up to 2^8; n in 1..70, 128 or 256
        n = data.draw(st.integers(1, 70) | st.sampled_from([63, 64, 65, 128, 256]))
        gate = data.draw(seeded_gates(n))
        basis = [data.draw(full_words(n)) for _ in range(data.draw(st.integers(0, 8)))]
        y = data.draw(full_words(n))
        check_span_exponents(gate, basis, y, range(1 << len(basis)))

    @given(st.data())
    @settings(max_examples=12, deadline=None)
    def test_past_one_row(self, data):
        # more than 16 basis rows: sampled positions, with both sides of
        # every 2^16-element row boundary; quadratic forms stay at n <= 70
        n = data.draw(st.sampled_from([5, 20, 64, 65, 70, 128]))
        kinds = ("block", "qfd", "rot", "scalar") if n <= 70 else ("block", "rot")
        gate = data.draw(seeded_gates(n, kinds))
        basis = [data.draw(full_words(n)) for _ in range(data.draw(st.integers(17, 18)))]
        y = data.draw(full_words(n))
        rng = random.Random(data.draw(st.integers(0, 1 << 32)))
        size = 1 << len(basis)
        edges = [e for r in range(1, size >> 16) for e in ((r << 16) - 1, r << 16)]
        check_span_exponents(gate, basis, y, edges + [size - 1] + rng.sample(range(size), 64))

    def test_block_straddling_the_word_boundary(self):
        # one 3-qubit block across words 0 and 1, the first listed qubit most
        # significant, a level-2 block lifted to level 3 and uncovered qubits
        local = LocalDiag(3, 3, (0, 1, 2, 3, 4, 5, 6, 7))
        gate = block_gate(130, [((64, 63, 129), local), ((0,), elementary_ckz(0, 1))])
        basis = [1 << 63, 1 << 64, 1 << 129, 1, 1 << 100]
        got = span_exponents(gate, basis, 0).tolist()
        for j, e in enumerate(got):
            idx = ((j >> 1) & 1) << 2 | (j & 1) << 1 | (j >> 2) & 1
            assert e == (local.exps[idx] + 2 * ((j >> 3) & 1)) % 8

    def test_quadratic_form_off_diagonal_doubled(self):
        # u R u^T counts each off-diagonal pair twice
        gate = qfd_gate(66, 3, [[1 if {i, j} == {0, 65} else 0 for j in range(66)] for i in range(66)])
        assert span_exponents(gate, [1, 1 << 65], 0).tolist() == [0, 0, 0, 2]


class TestJson:
    def test_round_trips(self):
        gates = [
            transversal_zrot(7, 2),
            block_gate(4, [((0, 1), elementary_ckz(1, 1)), ((2, 3), elementary_ckz(1, 1))]),
            block_gate(1, [((0,), LocalDiag(1, 3, (5, 2)))]),
            qfd_gate(2, 2, [[1, 1], [1, 0]]),
        ]
        for g in gates:
            assert gate_from_json(gate_to_json(g)) == g

    def test_float_entries_match_exact(self):
        g = block_gate(3, [((0, 2), elementary_ckz(1, 1)), ((1,), elementary_ckz(0, 2))])
        from diagsynth.oracle import _entry_complex

        for u in range(8):
            exact = Cyclo.root_of_unity(g.level, entry_exponent_int(g, u)).to_complex()
            assert cmath.isclose(_entry_complex(g, u), exact, abs_tol=1e-12)
