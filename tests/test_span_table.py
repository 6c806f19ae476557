"""Differential tests of the C1-span table kernel.

Every gate reads each X-side coefficient and the removal norm from one
enumeration of C1, held as ceil(n/64) uint64 words per element, and the
induced logical from the gate at the 2^k logical words.  Weight-affine
gates (transversal rotations and quadratic forms c*I) and the rest (block
products, general quadratic forms) are drawn by separate strategies, and
the coefficient, logical and removal checks take both.  Each test here recomputes the same quantity with a
plain Python sum over ``entry_exponent_int`` written in the test, and
where it is affordable with the Z-side walk.  From n = 60 up the two sides cannot both be enumerated,
since dim C1 + dim C1perp = n; there the Z side is checked against its own
defining sum, written in the test.
"""

import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from diagsynth import gencoeff, gf2
from diagsynth.csscode import CssCode
from diagsynth.cyclo import LEVEL_CAP, Cyclo
from diagsynth.errors import BudgetExceeded, NotPreserved
from diagsynth.families import four22_code, qrm_code, qrm_gate, rm_generator, steane_code
from diagsynth.gates import (
    BlockProductGate,
    LocalDiag,
    block_gate,
    channel_spectrum,
    elementary_ckz,
    entry_exponent_int,
    pauli_coeff,
    qfd_gate,
    residue_channels,
    span_exponents,
    transversal_zrot,
)
from diagsynth.gf2 import BitMat, BitVec
from diagsynth.synth import concatenate, remove_z

from conftest import (
    assert_point_witness,
    full_words,
    seeded_gates,
    table_coefficient,
    x_side,
    z_side,
)


@st.composite
def codes_with_c1_dim(draw, n, dim, words=None):
    """A code on n qubits whose C1 is spanned by ``dim`` random words, with
    a random C2 inside it and a nonzero character vector."""
    if words is None:
        words = st.integers(1, (1 << n) - 1)
    rows = [draw(words) for _ in range(dim)]
    c1, _ = gf2.rref(BitMat(n, [BitVec(n, r) for r in rows]))
    x_rows = []
    for _ in range(draw(st.integers(0, c1.num_rows))):
        mask = draw(st.integers(0, (1 << c1.num_rows) - 1))
        acc = 0
        for j, row in enumerate(c1.row_ints()):
            if (mask >> j) & 1:
                acc ^= row
        x_rows.append(BitVec(n, acc))
    x_stab, _ = gf2.rref(BitMat(n, x_rows))
    y = BitVec(n, draw(words))
    return CssCode(n, x_stab, gf2.dual_basis(c1), y)


@st.composite
def affine_gates(draw, n):
    """A transversal rotation (levels 1..LEVEL_CAP-1) or a c*I form."""
    if draw(st.booleans()):
        return transversal_zrot(n, draw(st.integers(1, LEVEL_CAP - 1)))
    level = draw(st.integers(1, LEVEL_CAP))
    c = draw(st.integers(0, (1 << level) - 1))
    return qfd_gate(n, level, [[c if i == j else 0 for j in range(n)] for i in range(n)])


@st.composite
def wide_cases(draw, max_dim=9):
    """n in 8..64 with 63 and 64 drawn often; C1 small enough to walk."""
    n = draw(st.sampled_from([63, 64]) | st.integers(8, 64))
    code = draw(codes_with_c1_dim(n, draw(st.integers(1, max_dim))))
    return code, draw(affine_gates(n))


@st.composite
def past_word_cases(draw, max_dim=9):
    """n in 60..70 with 64 and 65 drawn often, sometimes 128 or 256; c*I
    forms, whose reference walk is quadratic in n, stay at n <= 70."""
    n = draw(
        st.sampled_from([64, 65])
        | st.integers(60, 70)
        | st.sampled_from([64, 65])
        | st.sampled_from([128, 256])
    )
    code = draw(codes_with_c1_dim(n, draw(st.integers(1, max_dim)), full_words(n)))
    gate = draw(affine_gates(n)) if n <= 70 else transversal_zrot(
        n, draw(st.integers(1, LEVEL_CAP - 1))
    )
    return code, gate


@st.composite
def generic_cases(draw, max_dim=9):
    """n in 1..70 with 63, 64 and 65 drawn often, sometimes 128; a block
    product or a general quadratic form, which stays at n <= 70."""
    n = draw(st.sampled_from([63, 64, 65]) | st.integers(2, 70) | st.just(128))
    code = draw(codes_with_c1_dim(n, draw(st.integers(1, max_dim)), full_words(n)))
    gate = draw(seeded_gates(n, ("block", "qfd") if n <= 70 else ("block",)))
    return code, gate


def ref_x_sum(code, gate, sign_mask, shift=None):
    """2^-dim sum over c in C1 of (-1)^(c.sign) zeta^e(shift ^ c), shift = y."""
    shift = code.y.bits if shift is None else shift
    counts = [0] * (1 << gate.level)
    for c in gf2.span_ints(code.c1.row_ints()):
        k = entry_exponent_int(gate, shift ^ c)
        counts[k] += -1 if (c & sign_mask).bit_count() & 1 else 1
    return Cyclo.from_root_counts(gate.level, counts, code.dim_c1)


def ref_scan(code, gate):
    """Per-beta codeword scan: (ok, exps, witness), with witness (beta,
    entry) at the first entry that is not a root of unity."""
    exps = []
    c2 = gf2.span_ints(code.x_stab.row_ints())
    for beta in range(1 << code.k):
        base = code.x_word(beta).bits ^ code.y.bits
        counts = [0] * (1 << gate.level)
        for x in c2:
            counts[entry_exponent_int(gate, base ^ x)] += 1
        val = Cyclo.from_root_counts(gate.level, counts, code.dim_c2)
        root = val.promote(gate.level).as_root_of_unity()
        if root is None:
            return False, None, (beta, val)
        exps.append(root)
    return True, exps, None


def logical_against_scan(code, gate):
    """induced_logical against ref_scan: the scan's exponents when the code
    is preserved, NotPreserved when it is not.  Returns the scan."""
    scan = ref_scan(code, gate)
    ok, exps, _ = scan
    if ok:
        assert list(gencoeff.induced_logical(code, gate, 1 << 26).exps) == exps
    else:
        with pytest.raises(NotPreserved):
            gencoeff.induced_logical(code, gate, 1 << 26)
    return scan


def cosets_constant(code, gate):
    """The full-table verdict: every coset x_beta + C2 + y constant, read
    from the whole span table as (2^k, 2^dim C2) rows."""
    rows = gencoeff._SpanTable(code, gate).exps.reshape(1 << code.k, 1 << code.dim_c2)
    return bool((rows == rows[:, :1]).all())


def ref_z_sum(code, gate, shift):
    """sum over z in C1perp + shift of (-1)^(z.y) f(z), over Python ints.  A
    transversal rotation's Pauli coefficient depends on the weight only, so
    each weight's value is computed once, at its first word."""
    by_weight = {}
    acc = Cyclo.zero()
    for c in gf2.span_ints(code.z_stab.row_ints()):
        z = c ^ shift
        w = z.bit_count()
        if w not in by_weight:
            by_weight[w] = pauli_coeff(gate, BitVec(code.n, z))
        acc = acc - by_weight[w] if (z & code.y.bits).bit_count() & 1 else acc + by_weight[w]
    return acc


def random_sign(draw, code):
    """mu ^ gamma with a nonzero syndrome representative mu (when any)."""
    reps = code.syndrome_reps()
    mu = reps[draw(st.integers(1, len(reps) - 1))] if len(reps) > 1 else reps[0]
    gamma = code.z_logical(draw(st.integers(0, (1 << code.k) - 1)))
    return mu.bits ^ gamma.bits


class TestCoefficients:
    @given(wide_cases() | generic_cases(), st.data())
    @settings(max_examples=270, deadline=None)
    def test_table_matches_reference_sum(self, case, data):
        code, gate = case
        s = random_sign(data.draw, code)
        want = ref_x_sum(code, gate, s)
        assert x_side(code, gate, s, 1 << 26) == want
        fresh = gencoeff._SpanTable(code, gate)
        assert table_coefficient(fresh, s) == want

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_table_matches_z_side(self, data):
        # the Z side walks 2^(n - dim C1) words, so C1 is nearly full here;
        # past transversal rotations the walk stops at 2^16 words, and a
        # quadratic form's dense spectrum stays at 2^22 entries or fewer
        n = data.draw(st.integers(8, 18))
        code = data.draw(codes_with_c1_dim(n, data.draw(st.integers(n - 8, n))))
        gate = data.draw(affine_gates(n) | seeded_gates(n, ("block", "qfd")))
        rotation = isinstance(gate, BlockProductGate) and gate.weight_affine
        assume(rotation or code.dim_c1perp <= 16)
        assume(gate.weight_affine or isinstance(gate, BlockProductGate) or n + gate.level <= 23)
        s = random_sign(data.draw, code)
        assert x_side(code, gate, s, 1 << 26) == z_side(
            code, gate, s, 1 << 26
        )

    @given(wide_cases(max_dim=7))
    @settings(max_examples=60, deadline=None)
    def test_trivial_row_and_certificate(self, case):
        code, gate = case
        assume(code.k <= 5)
        row = gencoeff.trivial_row(code, gate)
        for g, v in row.entries.items():
            assert v == ref_x_sum(code, gate, g.bits)
        assert (gencoeff._low_degree(code, gate, 1 << 26) is None) == ref_scan(code, gate)[0]


class TestPastOneWord:
    @given(past_word_cases(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_table_matches_reference_sum(self, case, data):
        code, gate = case
        s = random_sign(data.draw, code)
        want = ref_x_sum(code, gate, s)
        assert x_side(code, gate, s, 1 << 26) == want
        fresh = gencoeff._SpanTable(code, gate)
        assert table_coefficient(fresh, s) == want

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_z_side_matches_reference_sum(self, data):
        # 2^12..2^13 words take the numpy weight enumerator
        n = data.draw(st.sampled_from([64, 65]) | st.integers(60, 70) | st.just(128))
        z_rows = [data.draw(full_words(n)) for _ in range(data.draw(st.integers(12, 13)))]
        z_stab, _ = gf2.rref(BitMat(n, [BitVec(n, r) for r in z_rows]))
        y = BitVec(n, data.draw(full_words(n)))
        code = CssCode(n, BitMat.empty(n), z_stab, y)
        gate = transversal_zrot(n, data.draw(st.integers(1, LEVEL_CAP - 1)))
        shift = data.draw(full_words(n))
        assert z_side(code, gate, shift, 1 << 26) == ref_z_sum(
            code, gate, shift
        )

    @given(past_word_cases())
    @settings(max_examples=80, deadline=None)
    def test_scan_matches_reference(self, case):
        logical_against_scan(*case)

    @given(st.data())
    @settings(max_examples=6, deadline=None)
    def test_exponents_past_one_row(self, data):
        # more than 16 basis rows: the table is built in several rows of
        # 2^16 words each
        n = data.draw(st.sampled_from([65, 130, 256]))
        basis = [data.draw(full_words(n)) for _ in range(data.draw(st.integers(17, 18)))]
        y = data.draw(full_words(n))
        gate = block_gate(n, [((q,), LocalDiag(1, 4, (3, 8))) for q in range(n)])
        off, slope, _ = gate.weight_affine
        want = [(off + slope * (y ^ c).bit_count()) % 16 for c in gf2.span_ints(basis)]
        assert span_exponents(gate, basis, y).tolist() == want

    @pytest.mark.parametrize("n", [65, 256])
    def test_padded_422_t_witness(self, n):
        # [[4,2,2]] on qubits 0..3, every other qubit fixed by a Z-stabilizer
        z_rows = [BitVec.from_support(n, range(4))]
        z_rows += [BitVec.unit(n, q) for q in range(4, n)]
        code = CssCode(n, BitMat(n, z_rows[:1]), BitMat(n, z_rows))
        gate = transversal_zrot(n, 3)
        ok, exps, witness = logical_against_scan(code, gate)
        assert not ok and exps is None
        assert witness[1].abs_sq() != Cyclo.one()

    @given(past_word_cases(max_dim=7), st.data())
    @settings(max_examples=30, deadline=None)
    def test_removal_norm_equals_split_identity(self, case, data):
        code, gate = case
        assume(code.k <= 5 and code.dim_c1perp > 0)
        w0 = BitVec(code.n, data.draw(full_words(code.n)))
        assume(not code.c1_reducer.contains(w0))
        res = remove_z(code, gate, w0)
        norm = Cyclo.zero()
        for a_idx in range(1 << code.k):
            g = code.z_logical(a_idx).bits
            a = ref_x_sum(code, gate, g)
            s = ref_x_sum(code, gate, g, shift=w0.bits ^ code.y.bits)
            if (w0.bits & g).bit_count() & 1:
                s = -s
            norm = norm + (a + s).scaled(1).abs_sq() + (a - s).scaled(1).abs_sq()
        assert gencoeff.is_preserved(res.code, gate).norm == norm

    def test_wide_removal_reads_the_span_table(self):
        # [[256,3]] after five concatenations: the removal check must come
        # from the new code's table, not from a per-entry Python walk
        code = qrm_code(1, 3)
        for _ in range(5):
            code = concatenate(code)
        w0 = gf2.quotient_basis(rm_generator(2, 8), code.c1).rows[0]
        res = remove_z(code, transversal_zrot(256, 4), w0)
        assert (res.code.n, res.code.k) == (256, 4)
        assert res.admissible is True
        assert res.code._caches.get("span_table")


class TestScan:
    @given(wide_cases() | generic_cases())
    @settings(max_examples=270, deadline=None)
    def test_scan_matches_reference(self, case):
        logical_against_scan(*case)

    def test_422_t_negative_control_witness(self):
        ok, exps, witness = logical_against_scan(four22_code(), transversal_zrot(4, 3))
        assert not ok and exps is None
        assert witness[1].abs_sq() != Cyclo.one()


# small codes, each preserved by its rotation, and every qubit of each
# carries an X-stabilizer
SMALL_PRESERVED = (
    (steane_code(), transversal_zrot(7, 2)),
    (four22_code(), transversal_zrot(4, 2)),
    (qrm_code(1, 3), qrm_gate(1, 3)),
    (qrm_code(2, 4), qrm_gate(2, 4)),
)


@st.composite
def embedded_cases(draw):
    """(code, gate, corrupted): a code of SMALL_PRESERVED placed on random
    qubits of n = 63, 64, 65, 128 or its own length.  Every other qubit is
    fixed by a one-qubit Z-stabilizer, with a random character bit and
    sometimes a random one-qubit block.  A corrupted gate raises one
    support qubit's rotation a level: that adds 2 mod 2^(L+1) to the
    exponent whenever the qubit flips, which it does inside a coset, so
    the code is not preserved."""
    small, small_gate = draw(st.sampled_from(SMALL_PRESERVED))
    n = draw(st.sampled_from([small.n, 63, 64, 65, 128]))
    rng = random.Random(draw(st.integers(0, 1 << 64)))
    pos = rng.sample(range(n), small.n)
    rest = sorted(set(range(n)) - set(pos))

    def place(row):
        return BitVec(n, sum(1 << p for q, p in enumerate(pos) if row >> q & 1))

    x_stab = BitMat(n, [place(r) for r in small.x_stab.row_ints()])
    z_rows = [place(r) for r in small.z_stab.row_ints()] + [BitVec.unit(n, q) for q in rest]
    y = BitVec.from_support(n, [q for q in rest if rng.random() < 0.5])
    local = small_gate.blocks[0][1]
    blocks = [((p,), local) for p in pos]
    corrupted = draw(st.booleans())
    if corrupted:
        blocks[0] = ((pos[0],), LocalDiag(1, local.level + 1, (-1, 1)))
    for q in rest:
        if rng.random() < 0.5:
            lvl = rng.randint(1, LEVEL_CAP)
            exps = (rng.randrange(1 << lvl), rng.randrange(1 << lvl))
            blocks.append(((q,), LocalDiag(1, lvl, exps)))
    return CssCode(n, x_stab, BitMat(n, z_rows), y), block_gate(n, blocks), corrupted


class TestLowDegree:
    @given(wide_cases() | generic_cases() | past_word_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_scan_and_norm(self, case):
        code, gate = case
        point = gencoeff._low_degree(code, gate, 1 << 26)
        verdict = point is None
        assert verdict == cosets_constant(code, gate)
        if point is not None:
            assert_point_witness(code, gate, point)
        if code.k <= 6:
            assert verdict == (gencoeff.trivial_row(code, gate).norm() == Cyclo.one())

    @given(embedded_cases())
    @settings(max_examples=60, deadline=None)
    def test_embedded_codes_and_corrupted_gates(self, case):
        code, gate, corrupted = case
        verdict = gencoeff._low_degree(code, gate, 1 << 26) is None
        assert verdict is not corrupted
        assert verdict == cosets_constant(code, gate)
        assert verdict == (gencoeff.trivial_row(code, gate).norm() == Cyclo.one())


class TestRemovalNorm:
    @given(wide_cases(max_dim=7) | generic_cases(max_dim=7), st.data())
    @settings(max_examples=90, deadline=None)
    def test_norm_equals_split_identity(self, case, data):
        code, gate = case
        assume(code.k <= 5 and code.dim_c1perp > 0)
        w0 = BitVec(code.n, data.draw(st.integers(1, (1 << code.n) - 1)))
        assume(not code.c1_reducer.contains(w0))
        res = remove_z(code, gate, w0)
        # split identity: each old coefficient a and its split value s give
        # the two new coefficients (a + s)/2 and (a - s)/2
        norm = Cyclo.zero()
        for a_idx in range(1 << code.k):
            g = code.z_logical(a_idx).bits
            a = ref_x_sum(code, gate, g)
            s = ref_x_sum(code, gate, g, shift=w0.bits ^ code.y.bits)
            if (w0.bits & g).bit_count() & 1:
                s = -s
            norm = norm + (a + s).scaled(1).abs_sq() + (a - s).scaled(1).abs_sq()
        assert gencoeff.is_preserved(res.code, gate).norm == norm
        assert res.admissible == (norm == Cyclo.one())


class TestGenericGates:
    @pytest.mark.parametrize("n", [4, 66])
    def test_block_gate_negative_control_witness(self, n):
        # [[4,2,2]] on qubits n-4..n-1, every other qubit fixed by a
        # Z-stabilizer; CS on its middle qubits (63 and 64 at n = 66, across
        # the words' boundary) and, at n = 66, a CZ on two fixed qubits
        q = list(range(n - 4, n))
        z_rows = [BitVec.from_support(n, q)] + [BitVec.unit(n, i) for i in range(n - 4)]
        code = CssCode(n, BitMat(n, z_rows[:1]), BitMat(n, z_rows))
        blocks = [((q[1], q[2]), elementary_ckz(1, 1))]
        if n > 4:
            blocks.append(((60, 61), elementary_ckz(1, 0)))
        gate = block_gate(n, blocks)
        ok, exps, witness = logical_against_scan(code, gate)
        assert not ok and exps is None
        assert witness[1].abs_sq() != Cyclo.one()

    def test_block_gate_removal_reads_the_span_table(self):
        # the removal check reads the new code's table, as for rotations
        n = 65
        z_rows = [BitVec.from_support(n, range(4))] + [BitVec.unit(n, q) for q in range(4, n)]
        code = CssCode(n, BitMat(n, z_rows[:1]), BitMat(n, z_rows))
        gate = block_gate(n, [((0, 1, 2), elementary_ckz(2, 0)), ((63, 64), elementary_ckz(1, 1))])
        res = remove_z(code, gate, BitVec.unit(n, 64))
        assert res.code.k == 3 and res.admissible is not None
        assert res.code._caches.get("span_table")

    def test_qfd_removal_past_the_dense_expansion(self):
        # a general quadratic form on 24 qubits with dim C1 = dim C1perp = 12:
        # the new and the split code have dim C1 = 13 > dim C1perp, and their
        # Z side, which would expand the form over 2^24 inputs, gives way
        # to the span table
        rng = random.Random(24)
        n = 24
        c1 = BitMat.empty(n)
        while c1.num_rows < 12:
            c1, _ = gf2.rref(BitMat(n, c1.rows + (BitVec(n, rng.getrandbits(n)),)))
        code = CssCode(n, BitMat(n, c1.rows[:10]), gf2.dual_basis(c1), BitVec(n, rng.getrandbits(n)))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randrange(8)
        gate = qfd_gate(n, 3, rows)
        w0 = BitVec(n, rng.getrandbits(n))
        assert (code.dim_c1, code.dim_c1perp, code.k) == (12, 12, 2)
        assert not code.c1_reducer.contains(w0)
        res = remove_z(code, gate, w0)
        svals = gencoeff.split_values(code, gate, w0)
        assert res.code.dim_c1 == 13
        norm = Cyclo.zero()
        for a_idx in range(1 << code.k):
            g = code.z_logical(a_idx)
            a = ref_x_sum(code, gate, g.bits)
            s = ref_x_sum(code, gate, g.bits, shift=w0.bits ^ code.y.bits)
            if (w0.bits & g.bits).bit_count() & 1:
                s = -s
            assert svals[g] == s
            norm = norm + (a + s).scaled(1).abs_sq() + (a - s).scaled(1).abs_sq()
        assert gencoeff.is_preserved(res.code, gate).norm == norm

    def test_x_side_past_the_python_walk_cap(self):
        # 2^17 X-side words for a block product with uncovered qubits,
        # checked against the Z side (2^3 words)
        n = 20
        c1 = [BitVec.unit(n, q) for q in range(17)]
        code = CssCode(n, BitMat(n, c1[:15]), gf2.dual_basis(BitMat(n, c1)), BitVec(n, 0b1011))
        local = LocalDiag(3, 3, (0, 1, 3, 5, 7, 2, 6, 4))
        gate = block_gate(n, [((16, 2, 9), local), ((5,), elementary_ckz(0, 1))])
        assert code.dim_c1 == 17
        s = code.z_logical(3).bits
        assert x_side(code, gate, s, 1 << 17) == z_side(
            code, gate, s, 1 << 17
        )


def old_reader(code, gate):
    """The span table's per-entry read as it was before whole rows: t by a
    Python loop over the basis, then one column of the transform, or the
    direct signed sum when the transform does not fit the budget."""
    basis = code.x_stab.row_ints() + code.frame.x_logical_basis.row_ints()
    dim, level = len(basis), gate.level
    half = 1 << (level - 1)
    exps = span_exponents(gate, basis, code.y.bits)
    channels = residue_channels(exps, level)
    wht = channel_spectrum(exps, channels, level, np.int64)

    def read(s, budget=1 << 26):
        t = 0
        for i, b in enumerate(basis):
            t |= ((b & s).bit_count() & 1) << i
        if len(channels) << dim <= budget:
            coeffs = [0] * half
            for j, col in zip(channels, wht[:, t].tolist()):
                coeffs[j] = col
        else:
            odd = np.zeros(1, dtype=bool)
            for i in range(dim):
                odd = np.concatenate([odd, odd ^ bool((t >> i) & 1)])
            counts = np.bincount(exps[~odd], minlength=2 * half)
            counts -= np.bincount(exps[odd], minlength=2 * half)
            coeffs = (counts[:half] - counts[half:]).tolist()
        return Cyclo(level, coeffs, dim)

    return read


def old_norm(values):
    """The row norm as it was summed before: one abs_sq and one add per
    entry."""
    acc = Cyclo.zero()
    for v in values:
        acc = acc + v.abs_sq()
    return acc


@st.composite
def row_cases(draw):
    """n in 2..8 or one of 63, 64, 65 and 128, with every row short enough
    to list.  At n <= 8 either side may come first; above it C1 is small,
    so the X side does."""
    n = draw(st.integers(2, 8) | st.sampled_from([63, 64, 65, 128]))
    code = draw(codes_with_c1_dim(n, draw(st.integers(1, min(n, 8))), full_words(n)))
    assume(code.k <= 6)
    kinds = ("block", "qfd") if n <= 70 else ("block",)
    return code, draw(affine_gates(n) | seeded_gates(n, kinds))


class TestRowReads:
    @given(row_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_row_matches_per_entry_reads(self, case, data):
        code, gate = case
        reps = code.syndrome_reps()
        mu = reps[data.draw(st.integers(0, len(reps) - 1))]
        # a budget that only just admits the cheaper side
        budget = data.draw(st.sampled_from([1 << 26, 1 << max(code.dim_c1, code.dim_c1perp)]))
        read = old_reader(code, gate)
        gammas = [code.z_logical(a) for a in range(1 << code.k)]
        want = [read(mu.bits ^ g.bits) for g in gammas]
        row = gencoeff.syndrome_row(code, gate, mu, budget=budget)
        assert list(row.entries) == gammas
        assert row.values() == want
        assert row.to_json() == [
            {"gamma": g.to01(), "value": v.serialize()} for g, v in zip(gammas, want)
        ]
        assert row.norm() == old_norm(want)
        # the table alone, read twice
        svals = [mu.bits ^ g.bits for g in gammas]
        fresh = gencoeff._SpanTable(code, gate)
        direct = fresh.row(svals)
        assert [read(s, budget=1) for s in svals] == want
        assert [Cyclo(gate.level, r, fresh.dim) for r in direct.tolist()] == want
        assert fresh.row(svals).tolist() == direct.tolist()

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_z_side_row_past_one_word(self, data):
        # dim C1perp <= 10 puts the Z side first; the rows of a rotation
        # come back over different denominators and share the largest
        n = data.draw(st.sampled_from([63, 64, 65, 128]))
        z_rows = [data.draw(full_words(n)) for _ in range(data.draw(st.integers(1, 10)))]
        z_stab, _ = gf2.rref(BitMat(n, [BitVec(n, r) for r in z_rows]))
        code = CssCode(n, BitMat.empty(n), z_stab, BitVec(n, data.draw(full_words(n))))
        gate = transversal_zrot(n, data.draw(st.integers(1, LEVEL_CAP - 1)))
        gammas = [BitVec(n, data.draw(full_words(n))) for _ in range(data.draw(st.integers(1, 6)))]
        gammas += [BitVec.zeros(n), gammas[0]]  # a repeat counts once, as in a dict
        row = gencoeff.trivial_row(code, gate, gammas=gammas)
        want = [ref_z_sum(code, gate, g.bits) for g in dict.fromkeys(gammas)]
        assert row.values() == want
        assert row.norm() == old_norm(want)
        # the split values subtract two such rows
        w0 = BitVec(n, data.draw(full_words(n)))
        assume(not code.c1_reducer.contains(w0))
        new_z, gamma0 = gf2.restrict_to_hyperplane(code.z_stab, w0)
        split = CssCode(n, code.x_stab, new_z, code.y)
        assert gencoeff.split_values(code, gate, w0, gammas=gammas) == {
            g: ref_z_sum(split, gate, g.bits) - ref_z_sum(split, gate, g.bits ^ gamma0.bits)
            for g in gammas
        }

    @given(row_cases(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_split_values_match_per_entry_reads(self, case, data):
        code, gate = case
        w0 = BitVec(code.n, data.draw(full_words(code.n)))
        assume(not code.c1_reducer.contains(w0))
        new_z, gamma0 = gf2.restrict_to_hyperplane(code.z_stab, w0)
        read = old_reader(CssCode(code.n, code.x_stab, new_z, code.y), gate)
        gammas = [code.z_logical(a) for a in range(1 << code.k)]
        want = {g: read(g.bits) - read(g.bits ^ gamma0.bits) for g in gammas}
        assert gencoeff.split_values(code, gate, w0) == want


@st.composite
def table_cases(draw):
    """A random code on 2..10, 65 or 128 qubits with a gate of any kind at
    levels up to LEVEL_CAP, or a code of SMALL_PRESERVED placed among up to
    128 qubits with its gate, sometimes corrupted."""
    if draw(st.booleans()):
        code, gate, _ = draw(embedded_cases())
        return code, gate
    n = draw(st.integers(2, 10) | st.sampled_from([65, 128]))
    code = draw(codes_with_c1_dim(n, draw(st.integers(1, min(n, 8))), full_words(n)))
    kinds = ("block", "qfd", "rot", "scalar") if n <= 70 else ("block", "rot", "scalar")
    return code, draw(seeded_gates(n, kinds))


class TestFactoredReads:
    """The coset-by-coset reads against the channels x 2^dim C1 transform."""

    @given(table_cases(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_row_over_several_syndromes(self, case, data):
        code, gate = case
        reps = code.syndrome_reps()
        picks = st.tuples(st.integers(0, len(reps) - 1), st.integers(0, (1 << code.k) - 1))
        pairs = data.draw(st.lists(picks, min_size=1, max_size=12))
        svals = [reps[i].bits ^ code.z_logical(a).bits for i, a in pairs]
        read = old_reader(code, gate)
        table = gencoeff._SpanTable(code, gate)
        got = [Cyclo(gate.level, r, table.dim) for r in table.row(svals).tolist()]
        assert got == [read(s) for s in svals]

    @given(st.sampled_from([2, 65, 128]), st.integers(1, LEVEL_CAP), st.data())
    @settings(max_examples=60, deadline=None)
    def test_cancelling_channel_in_one_coset(self, n, level, data):
        # a two-qubit block puts zeta^j and zeta^(j + 2^(L-1)) on the coset
        # {00, 11} of beta = 0: they cancel in the channel of zeta^j
        half, mod = 1 << (level - 1), 1 << level
        q = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rest = [i for i in range(n) if i not in q]
        j = data.draw(st.integers(0, half - 1))
        mid = data.draw(st.tuples(st.integers(0, mod - 1), st.integers(0, mod - 1)))
        gate = block_gate(n, [(tuple(q), LocalDiag(2, level, (j, *mid, j + half)))])
        y = BitVec.from_support(n, [i for i in rest if data.draw(st.booleans())])
        code = CssCode(
            n, BitMat(n, [BitVec.from_support(n, q)]), BitMat(n, [BitVec.unit(n, i) for i in rest]), y
        )
        # that coset is not constant, and its cancelling sum drops the norm
        with pytest.raises(NotPreserved):
            gencoeff.induced_logical(code, gate)
        read = old_reader(code, gate)
        svals = [mu.bits ^ code.z_logical(a).bits for mu in code.syndrome_reps() for a in (0, 1)]
        table = gencoeff._SpanTable(code, gate)
        got = [Cyclo(level, r, table.dim) for r in table.row(svals).tolist()]
        assert got == [read(s) for s in svals]

    @pytest.mark.parametrize("m", [5, 17])
    def test_row_past_one_counting_step(self, m):
        # 2^18 table entries, counted in 2^16 steps: several cosets to a
        # step (m = 5), or several steps to a coset (m = 17), where a step's
        # signs carry the parity of its offset
        n = 20
        c1 = [BitVec.unit(n, q) for q in range(18)]
        code = CssCode(n, BitMat(n, c1[:m]), gf2.dual_basis(BitMat(n, c1)), BitVec(n, 0b1011 << 16))
        gate = block_gate(
            n, [((0, 16, 17), LocalDiag(3, 4, (0, 3, 5, 8, 9, 12, 15, 1))), ((4, 9), elementary_ckz(1, 2))]
        )
        rng = random.Random(m)
        svals = [rng.getrandbits(n) for _ in range(6)] + [0, 1 << 16, (1 << 16) | 1, 1 << 4]
        read = old_reader(code, gate)
        table = gencoeff._SpanTable(code, gate)
        assert len(table.channels) > 1
        got = [Cyclo(gate.level, r, table.dim) for r in table.row(svals).tolist()]
        assert got == [read(s) for s in svals]


class TestGramFold:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_fold_matches_abs_sq_sum(self, data):
        # rows whose absolute values sum to 2^denom, the most a coefficient
        # allows; from denom 31 with two rows or more the fold leaves int64
        level = data.draw(st.integers(1, LEVEL_CAP))
        half = 1 << (level - 1)
        denom = data.draw(st.integers(20, 70) | st.sampled_from([31, 32]))
        rng = random.Random(data.draw(st.integers(0, 1 << 32)))
        rows = []
        for _ in range(data.draw(st.integers(1, 12))):
            cuts = sorted(rng.randrange(1 << denom) for _ in range(half - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [1 << denom])]
            rows.append([p if rng.random() < 0.5 else -p for p in parts])
        ints = np.array(rows, dtype=np.int64 if denom <= 62 else object)
        code = four22_code()
        gammas = [BitVec(code.n, i) for i in range(len(rows))]
        row = gencoeff.GenCoeffRow(
            code, BitVec.zeros(code.n), gammas, ints, denom, level, "exact-sampled"
        )
        want = old_norm(Cyclo(level, r, denom) for r in rows)
        assert row.norm() == want
        assert row.values() == [Cyclo(level, r, denom) for r in rows]


class TestBudgets:
    def test_syndrome_reps_refuses_small_budget(self):
        code = steane_code()
        with pytest.raises(BudgetExceeded) as exc:
            code.syndrome_reps(budget=4)
        assert exc.value.required_log2 == 3
        assert len(code.syndrome_reps(budget=8)) == 8

    def test_certificate_refuses_past_budget(self):
        # Steane with its rotation: D = 2 over dim C1 = 4, 4 + 6 = 10 points
        code, gate = steane_code(), transversal_zrot(7, 2)
        with pytest.raises(BudgetExceeded, match="10 points of weight <= 2") as exc:
            gencoeff._low_degree(code, gate, 9)
        assert exc.value.required_log2 == 4
        assert gencoeff._low_degree(code, gate, 10) is None

    def test_gate_forms_are_cached(self):
        gate = transversal_zrot(64, 3)
        assert gate.weight_affine is gate.weight_affine
        assert "level" in vars(gate)
