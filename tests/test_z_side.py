"""Differential tests of the Z-side kernel on Pauli factor tables.

Every gate that is not a transversal rotation reads its Z-side coefficient,
the sum over z in C1perp + shift of (-1)^(z.y) f(z), from
``gates.pauli_factors``: one table per block of a block product, one dense
spectrum for a quadratic form.  The reference is the per-word walk over
``pauli_coeff`` kept in this file, and values are compared as ring
elements.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from diagsynth import gencoeff, gf2
from diagsynth.csscode import CssCode
from diagsynth.cyclo import LEVEL_CAP, ONE, Cyclo
from diagsynth.errors import BudgetExceeded
from diagsynth.gates import (
    BLOCK_CAP,
    LocalDiag,
    block_gate,
    pauli_coeff,
    qfd_gate,
    span_exponents,
)
from diagsynth.gf2 import BitMat, BitVec

from conftest import x_side, z_side


def ref_z_walk(code, gate, shift):
    """The Z side one word at a time: the sum over z in C1perp + shift of
    (-1)^(z.y) pauli_coeff(gate, z)."""
    acc = Cyclo.zero()
    for c in gf2.span_ints(code.z_stab.row_ints()):
        z = c ^ shift
        f = pauli_coeff(gate, BitVec(code.n, z))
        if f.is_zero():
            continue
        if (z & code.y.bits).bit_count() & 1:
            acc = acc - f
        else:
            acc = acc + f
    return acc


def z_code(n, rows, y):
    """A code with no X-stabilizers and the Z-stabilizers spanned by rows."""
    z_stab, _ = gf2.rref(BitMat(n, [BitVec(n, r) for r in rows]))
    return CssCode(n, BitMat.empty(n), z_stab, BitVec(n, y))


@st.composite
def block_cases(draw):
    """A block product of 1..BLOCK_CAP-qubit blocks with mixed levels and
    a share of qubits left uncovered, on n in 8..20, 60..70 or 128, with a
    Z-stabilizer group of dimension 0..6 and a shift.  Most stabilizer
    words and shifts avoid the uncovered qubits, so that most values are
    nonzero.  From n = 60 up, covered qubits + dim falls on both sides of
    62, where the kernel leaves int64 for Python integers.  At n = 128 the
    levels stay at 4 or below, because the reference multiplies one ring
    element per block."""
    n = draw(st.integers(8, 20) | st.integers(60, 70) | st.just(128))
    rng = random.Random(draw(st.integers(0, 1 << 64)))
    max_level = LEVEL_CAP if n <= 70 else 4
    uncovered = rng.choice([0.0, 0.05, 0.3])
    qubits = rng.sample(range(n), n)
    blocks, covered = [], 0
    while qubits:
        b = rng.randint(1, BLOCK_CAP)
        qs, qubits = qubits[:b], qubits[b:]
        if rng.random() < uncovered:
            continue
        level = rng.randint(1, max_level)
        exps = tuple(rng.randrange(1 << level) for _ in range(1 << len(qs)))
        blocks.append((qs, LocalDiag(len(qs), level, exps)))
        for q in qs:
            covered |= 1 << q

    def word():
        w = rng.getrandbits(n)
        return w & covered if rng.random() < 0.9 else w

    code = z_code(n, [word() for _ in range(draw(st.integers(0, 6)))], rng.getrandbits(n))
    return code, block_gate(n, blocks), word()


@st.composite
def form_cases(draw):
    """A general quadratic form or a form c*I on n <= 20 qubits at levels
    1..LEVEL_CAP, with a Z-stabilizer group and a shift.  The dense
    spectrum stays at 2^22 entries or fewer (levels <= 3 past 14 qubits),
    and past 14 qubits the group has dimension <= 2, since the reference
    expands the form over 2^n inputs for each word."""
    n = draw(st.integers(1, 20))
    rng = random.Random(draw(st.integers(0, 1 << 64)))
    level = rng.randint(1, LEVEL_CAP if n <= 14 else 3)
    mod = 1 << level
    if draw(st.booleans()):
        c = rng.randrange(mod)
        rows = [[c if i == j else 0 for j in range(n)] for i in range(n)]
    else:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randrange(mod)
    dim = draw(st.integers(0, 5 if n <= 14 else 2))
    code = z_code(n, [rng.getrandbits(n) for _ in range(dim)], rng.getrandbits(n))
    return code, qfd_gate(n, level, rows), rng.getrandbits(n)


class TestAgainstWordWalk:
    @given(block_cases())
    @settings(max_examples=150, deadline=None)
    def test_block_products(self, case):
        code, gate, shift = case
        assert z_side(code, gate, shift, 1 << 26) == ref_z_walk(code, gate, shift)

    @given(form_cases())
    @settings(max_examples=60, deadline=None)
    def test_quadratic_forms(self, case):
        code, gate, shift = case
        assert z_side(code, gate, shift, 1 << 26) == ref_z_walk(code, gate, shift)

    @pytest.mark.parametrize("n, dim", [(62, 0), (63, 0), (60, 2), (60, 3), (64, 1), (128, 4)])
    def test_integer_width_boundary(self, n, dim):
        # every qubit covered: two random blocks on qubits 0..5, identity
        # blocks on the rest, so the integer numerators reach about 2^n and
        # overflow int64 from n = 63 on.  Covered qubits + dim is 62 in the
        # first and third case and past it in the others
        rng = random.Random(n + dim)
        blocks = [
            ((0, 1, 2), LocalDiag(3, 3, tuple(rng.randrange(8) for _ in range(8)))),
            ((3, 4, 5), LocalDiag(3, 2, tuple(rng.randrange(4) for _ in range(8)))),
        ]
        blocks += [((q, q + 1), LocalDiag(2, 1, (0, 0, 0, 0))) for q in range(6, n - 1, 2)]
        if n % 2:
            blocks.append(((n - 1,), LocalDiag(1, 1, (0, 0))))
        gate = block_gate(n, blocks)
        # stabilizers on qubits 0..5, with distinct lowest bits
        rows = [rng.getrandbits(6) >> (i + 1) << (i + 1) | 1 << i for i in range(dim)]
        code = z_code(n, rows, rng.getrandbits(n))
        assert code.dim_c1perp == dim
        values = []
        for shift in range(8):
            values.append(ref_z_walk(code, gate, shift))
            assert z_side(code, gate, shift, 1 << 26) == values[-1]
        assert any(not v.is_zero() for v in values)

    def test_identity_gate(self):
        # no factors: f(z) is 1 at z = 0 and 0 elsewhere
        code = z_code(6, [0b110000, 0b000011], 0b101010)
        gate = block_gate(6, [])
        assert z_side(code, gate, 0b110011, 1 << 26) == ONE
        assert z_side(code, gate, 0b000100, 1 << 26).is_zero()


class TestSpectrumBudget:
    def test_refusal_falls_through_to_x_side(self):
        # a level-3 form on 10 qubits with dim C1 = 8 > dim C1perp = 2, so
        # the Z side is tried first; its dense spectrum is channels x 2^10
        rng = random.Random(10)
        n = 10
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randrange(8)
        gate = qfd_gate(n, 3, rows)
        c1 = BitMat(n, [BitVec.unit(n, q) for q in range(8)])
        code = CssCode(n, BitMat(n, c1.rows[:6]), gf2.dual_basis(c1), BitVec(n, 0b1011001110))
        assert (code.dim_c1, code.dim_c1perp) == (8, 2)
        cube = span_exponents(gate, [1 << q for q in range(n)], 0)
        size = len({int(e) % 4 for e in cube}) << n
        s = code.z_logical(3).bits
        want = x_side(code, gate, s, 1 << 26)
        # refused before the spectrum is built, answered at its size, and
        # refused again once it is kept on the gate
        for budget in (size - 1, size, size - 1):
            if budget < size:
                with pytest.raises(BudgetExceeded) as exc:
                    z_side(code, gate, s, budget)
                assert exc.value.required_log2 == (size - 1).bit_length()
            else:
                assert z_side(code, gate, s, budget) == want
            # the X side (2^8 words) answers whenever the Z side refuses
            assert gencoeff._coefficient_int(code, gate, s, budget) == want
        # below 2^8 both sides refuse, and the X side's refusal is raised
        with pytest.raises(BudgetExceeded) as exc:
            gencoeff._coefficient_int(code, gate, s, 1 << 7)
        assert exc.value.required_log2 == 8
