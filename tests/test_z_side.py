"""Differential tests of the Z-side kernel.

Every gate that is not a transversal rotation reads its Z-side coefficient,
the sum over z in C1perp + shift of (-1)^(z.y) f(z), from
``gates.pauli_factors``: one table per block of a block product, one dense
spectrum for a quadratic form.  The references are the per-word walk over
``pauli_coeff`` kept in this file, compared as ring elements, and a
one-shift-at-a-time copy of the row kernel, compared as integer arrays.
"""

import random
from functools import lru_cache

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from diagsynth import gencoeff, gf2, synth
from diagsynth.csscode import CssCode
from diagsynth.cyclo import LEVEL_CAP, ONE, Cyclo
from diagsynth.errors import BudgetExceeded
from diagsynth.gates import (
    BLOCK_CAP,
    BlockProductGate,
    LocalDiag,
    _block_pauli_table,
    block_gate,
    pauli_coeff,
    pauli_factors,
    qfd_gate,
    span_exponents,
    transversal_zrot,
)
from diagsynth.gf2 import BitMat, BitVec

from conftest import assert_point_witness, random_code, x_side, z_side


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


# ----------------------------------------------------------------------
# the row kernel against one shift at a time


@lru_cache(maxsize=None)
def ref_rot_powers(local, n):
    f0, f1 = _block_pauli_table(local)
    p0, p1 = [ONE], [ONE]
    for _ in range(n):
        p0.append(p0[-1] * f0)
        p1.append(p1[-1] * f1)
    return p0, p1


def ref_z_shift(code, gate, shift, budget):
    """One shift's Z side as integer coefficients and their denominator:
    for a rotation, a signed weight enumerator times ring powers (minimal
    denominator); otherwise the factor tables over the words of
    C1perp + shift (denominator: the factors' qubit count)."""
    basis = code.z_stab.row_ints()
    dim, n, y = len(basis), code.n, code.y.bits
    if gate.weight_affine is not None and isinstance(gate, BlockProductGate):
        if 1 << dim > budget:
            raise BudgetExceeded("walk", required_log2=dim)
        counts = [0] * (n + 1)
        for c in gf2.span_ints(basis):
            counts[(c ^ shift).bit_count()] += -1 if (c & y).bit_count() & 1 else 1
        p0, p1 = ref_rot_powers(gate.blocks[0][1], n)
        acc = Cyclo.zero()
        for w, c in enumerate(counts):
            if c:
                acc = acc + p0[n - w] * p1[w] * c
        if (shift & y).bit_count() & 1:
            acc = -acc
        return list(acc.promote(gate.level).coeffs), acc.denom_exp
    if 1 << dim > min(budget, gencoeff._PY_SPAN_CAP):
        raise BudgetExceeded("walk", required_log2=dim)
    factors = pauli_factors(gate, budget)
    words, parity = gencoeff._c1perp_words(code)
    covered = sum(1 << q for f in factors for q in f.qubits)
    z = words ^ gf2.int_words(shift, n)
    keep = ~(z & gf2.int_words(((1 << n) - 1) ^ covered, n)).any(axis=1)
    bits = gf2.word_bits(z[keep], n)
    odd = parity[keep] ^ bool((shift & y).bit_count() & 1)
    width = sum(len(f.qubits) for f in factors)
    acc = np.zeros((len(bits), 1 << (gate.level - 1)), dtype=object)
    acc[:, 0] = 1
    for f in factors:
        idx = bits[:, list(f.qubits)] @ (1 << np.arange(len(f.qubits)))
        acc = gencoeff._ring_times(acc, f.table[idx].astype(object), f.channels)
    return (acc[~odd].sum(axis=0) - acc[odd].sum(axis=0)).tolist(), width


def ref_z_rows(code, gate, svals, budget):
    """The shifts one at a time, stacked on the largest denominator: int64
    while it is at most 62, Python integers above."""
    parts = [ref_z_shift(code, gate, s, budget) for s in svals]
    denom = max((d for _, d in parts), default=0)
    rows = [[x << (denom - d) for x in v] for v, d in parts]
    dtype = np.int64 if denom <= 62 else object
    return np.array(rows, dtype=dtype).reshape(len(rows), 1 << (gate.level - 1)), denom


def assert_rows_equal(code, gate, svals, budget=1 << 26):
    ints, denom = gencoeff._sum_z_rows(code, gate, svals, budget)
    want, want_denom = ref_z_rows(code, gate, svals, budget)
    assert (denom, ints.dtype, ints.shape) == (want_denom, want.dtype, want.shape)
    assert ints.tolist() == want.tolist()
    return ints, denom


@st.composite
def rot_cases(draw):
    """A uniform one-qubit block on every qubit (a transversal rotation,
    or any pair of exponents, equal ones giving f1 = 0 and zero rows off
    C1perp), on n in 2..20, 60..70 or 128, with a Z-stabilizer group of
    dimension 0..6 and a shift.  At n = 128 the levels stay at 4 or below,
    because the reference multiplies ring elements."""
    n = draw(st.integers(2, 20) | st.integers(60, 70) | st.just(128))
    rng = random.Random(draw(st.integers(0, 1 << 64)))
    top = LEVEL_CAP if n <= 70 else 4
    if rng.random() < 0.5:
        gate = transversal_zrot(n, rng.randint(1, top - 1))
    else:
        level = rng.randint(1, top)
        a = rng.randrange(1 << level)
        b = a if rng.random() < 0.3 else rng.randrange(1 << level)
        gate = block_gate(n, [((q,), LocalDiag(1, level, (a, b))) for q in range(n)])
    rows = [rng.getrandbits(n) for _ in range(draw(st.integers(0, 6)))]
    return z_code(n, rows, rng.getrandbits(n)), gate, rng.getrandbits(n)


def more_shifts(code, shift, seed):
    """shift, then 0..7 more: random words, words of C1perp and shift moved
    by a C1perp word."""
    rng = random.Random(seed)
    span = gf2.span_ints(code.z_stab.row_ints())
    out = [shift]
    for _ in range(rng.randint(0, 7)):
        pick = rng.random()
        if pick < 0.4:
            out.append(rng.getrandbits(code.n))
        else:
            out.append(rng.choice(span) ^ (shift if pick < 0.7 else 0))
    return out


class TestRowsAgainstShifts:
    @given(block_cases() | form_cases() | rot_cases(), st.integers(0, 1 << 64))
    @settings(max_examples=200, deadline=None)
    def test_random_rows(self, case, seed):
        code, gate, shift = case
        assert_rows_equal(code, gate, more_shifts(code, shift, seed))

    @pytest.mark.parametrize("gate", [transversal_zrot(10, 2), block_gate(10, [])])
    def test_empty_row(self, gate):
        # no shifts: an empty int64 row over 2^0, with no refusal even when
        # one shift's walk would be refused
        code = z_code(10, [0b11, 0b1100], 0b101)
        for budget in (1 << 26, 1):
            ints, denom = gencoeff._sum_z_rows(code, gate, [], budget)
            assert (ints.shape, ints.dtype, denom) == ((0, 1 << (gate.level - 1)), np.int64, 0)

    def test_zero_rows(self):
        # f1 = 0: f(z) vanishes off z = 0, so every shift outside C1perp
        # gives a zero row; over a rotation the denominator is then 0, over
        # factor tables the qubit count
        n = 12
        code = z_code(n, [0b111, 0b111000], 0b1011)
        shifts = [0b1, 0b10000, 0b100000000001]
        flat = block_gate(n, [((q,), LocalDiag(1, 3, (5, 5))) for q in range(n)])
        ints, denom = assert_rows_equal(code, flat, shifts)
        assert denom == 0 and not ints.any()
        # the same entries as one block product that is not weight-affine
        split = block_gate(n, [((0, 1), LocalDiag(2, 3, (2, 2, 2, 2)))]
                           + [((q,), LocalDiag(1, 3, (5, 5))) for q in range(2, n)])
        ints, denom = assert_rows_equal(code, split, shifts)
        assert denom == n and not ints.any()

    def test_uncovered_labels(self):
        # qubits 8..11 uncovered: shifts with bits there give zero rows
        n = 12
        rng = random.Random(5)
        blocks = [((q, q + 1), LocalDiag(2, 3, tuple(rng.randrange(8) for _ in range(4))))
                  for q in range(0, 8, 2)]
        code = z_code(n, [0b1111, 0b110000, 0b11000001], 0b110011)
        shifts = [0, 0b1, 0b10000000, 0b100000000, 0b111100000101]
        ints, _ = assert_rows_equal(code, block_gate(n, blocks), shifts)
        assert ints[:3].any() and not ints[3:].any()

    @pytest.mark.parametrize("n, dim", [(60, 2), (60, 3), (65, 2), (128, 4)])
    def test_integer_width_edge(self, n, dim):
        # every qubit covered, as in test_integer_width_boundary: covered
        # qubits + dim is 62 in the first case and past it in the others,
        # where the products run on Python integers; the rows leave int64
        # once the denominator passes 62
        rng = random.Random(n * dim)
        blocks = [((0, 1, 2), LocalDiag(3, 3, tuple(rng.randrange(8) for _ in range(8))))]
        blocks += [((q, q + 1), LocalDiag(2, 1, (0, 0, 0, 0))) for q in range(3, n - 1, 2)]
        if n % 2 == 0:
            blocks.append(((n - 1,), LocalDiag(1, 1, (0, 0))))
        rows = [rng.getrandbits(3) >> (i + 1) << (i + 1) | 1 << i for i in range(dim)]
        code = z_code(n, rows, rng.getrandbits(n))
        ints, denom = assert_rows_equal(code, block_gate(n, blocks), list(range(8)))
        assert ints.dtype == (np.int64 if n <= 62 else object) and ints.any()
        rot = transversal_zrot(n, 3)
        ints, denom = assert_rows_equal(code, rot, [rng.getrandbits(n) for _ in range(6)])
        assert ints.dtype == (np.int64 if denom <= 62 else object)

    def test_refusals(self):
        # the budget and the walk cap price one shift, whatever the row's
        # length, and refuse with its size
        n = 20
        rng = random.Random(20)
        code = z_code(n, [1 << q for q in range(17)], 0)
        gates = [transversal_zrot(n, 2), block_gate(n, [((0, 1), LocalDiag(2, 2, (0, 1, 2, 3)))])]
        for gate in gates:
            for budget in (1 << 16, 1 << 26):
                shifts = [rng.getrandbits(n) for _ in range(3)]
                if gate.weight_affine is not None and budget > 1 << 17:
                    assert_rows_equal(code, gate, shifts, budget)
                    continue
                with pytest.raises(BudgetExceeded) as want:
                    ref_z_rows(code, gate, shifts, budget)
                with pytest.raises(BudgetExceeded) as got:
                    gencoeff._sum_z_rows(code, gate, shifts, budget)
                assert got.value.required_log2 == want.value.required_log2 == 17


def test_add_x_half_row_past_the_row_cap():
    # [[22,16]] with dim C1 = 18 > dim C1perp = 4: the half row of 2^15
    # logicals is one Z-side row read, and the new code is not preserved
    code = random_code(random.Random(0), 22, 16, 18)
    gate = transversal_zrot(22, 2)
    assert (code.k, code.dim_c1, code.dim_c1perp) == (16, 18, 4)
    x0 = code.frame.x_logical_basis.rows[0]
    logicals = gf2.span_ints(code.frame.z_logical_basis.row_ints())
    pairing = [g for g in logicals if (g & x0.bits).bit_count() & 1]
    picks = random.Random(1).sample(range(len(pairing)), 64)
    sample = [pairing[i] for i in picks]
    want, want_denom = assert_rows_equal(code, gate, sample)
    # the whole half row (2^15 shifts, through the word arrays) holds the
    # same values, over its own denominator
    full, denom = gencoeff._sum_z_rows(code, gate, pairing, 1 << 26)
    for i, row in zip(picks, want.tolist()):
        assert Cyclo(gate.level, full[i].tolist(), denom) == Cyclo(gate.level, row, want_denom)
    res = synth.add_x(code, gate, x0)
    assert res.admissible is False
    assert_point_witness(res.code, gate, res.witness)
