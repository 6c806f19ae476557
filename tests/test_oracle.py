"""Float statevector oracle vs the exact engine."""

import cmath
import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from diagsynth import families, gates, gencoeff, gf2, oracle
from diagsynth.csscode import CssCode
from diagsynth.errors import BudgetExceeded
from diagsynth.families import four22_code, steane_code
from diagsynth.gates import BlockProductGate, LocalDiag, block_gate, transversal_zrot
from diagsynth.gf2 import BitMat, BitVec
from diagsynth.oracle import compare_block_with_row, crosscheck, logical_block
from diagsynth.report import build_report
from diagsynth.synth import concatenate, half_support_remove_z

from conftest import codes_with_gates, random_code, seeded_gates


class TestLogicalBlock:
    def test_steane_phase_rotation(self):
        blk = logical_block(steane_code(), transversal_zrot(7, 2))
        assert abs(blk.matrix[0, 0] - cmath.exp(1j * cmath.pi / 4)) < 1e-12
        assert abs(blk.matrix[1, 1] - cmath.exp(-1j * cmath.pi / 4)) < 1e-12
        off = blk.matrix.copy()
        np.fill_diagonal(off, 0)
        assert np.abs(off).max() < 1e-15

    def test_identity_gate(self):
        blk = logical_block(four22_code(), block_gate(4, []))
        assert np.abs(blk.matrix - np.eye(4)).max() < 1e-15

    def test_transversal_t_breaks_unitarity(self):
        blk = logical_block(four22_code(), transversal_zrot(4, 3))
        gram = blk.matrix.conj().T @ blk.matrix
        assert np.abs(gram - np.eye(4)).max() > 1e-3


class TestCrosscheck:
    def test_steane(self):
        chk = crosscheck(steane_code(), transversal_zrot(7, 2))
        assert chk.ok and chk.preserved_exact
        assert chk.max_row_deviation < 1e-9

    def test_14_2_2_t_rotation(self):
        code = half_support_remove_z(
            concatenate(steane_code()), transversal_zrot(14, 3)
        ).code
        chk = crosscheck(code, transversal_zrot(14, 3), tol=1e-12)
        assert chk.verdicts_agree and chk.preserved_exact
        assert chk.max_row_deviation < 1e-12

    def test_negative_verdict_agreement(self):
        chk = crosscheck(four22_code(), transversal_zrot(4, 3))
        assert chk.verdicts_agree and not chk.preserved_exact

    def test_corrupted_character_vector_detected(self):
        # exact row computed on the true code, numeric block on a code with
        # a corrupted character vector: the comparison must blow up
        code = steane_code()
        gate = transversal_zrot(7, 2)
        row = gencoeff.trivial_row(code, gate)
        bad = CssCode(7, code.x_stab, code.z_stab, BitVec.from_string("1000000"))
        blk = logical_block(bad, gate)
        dev, _ = compare_block_with_row(blk, row)
        assert dev > 1e-3

    @given(codes_with_gates(max_n=7, min_k=1))
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_random_pairs_agree(self, cg):
        code, gate = cg
        chk = crosscheck(code, gate)
        assert chk.verdicts_agree
        if chk.preserved_exact:
            assert chk.max_row_deviation < 1e-9
            assert chk.max_offdiag < 1e-9

    def test_engine_refuses_before_the_float_block(self, monkeypatch):
        # k = 13 and no X-stabilizers: 2k + m = 26 passes the block's size
        # guard, but the full row (2^13 entries) is past the row cap, so the
        # 8192 x 8192 block must never be built
        n = 14
        code = CssCode(n, BitMat.empty(n), BitMat(n, [BitVec.ones(n)]))

        def fail(*args):
            raise AssertionError("float block built")

        monkeypatch.setattr(oracle, "logical_block", fail)
        with pytest.raises(BudgetExceeded) as exc:
            crosscheck(code, transversal_zrot(n, 2))
        assert exc.value.required_log2 == 13

    def test_report_computes_one_row(self, monkeypatch):
        # the report's verdict, row and crosscheck share one trivial row
        calls = []
        real = gencoeff.trivial_row

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        code, gate = steane_code(), transversal_zrot(7, 2)
        want = crosscheck(code, gate)
        monkeypatch.setattr(gencoeff, "trivial_row", counting)
        rep = build_report(code, gate, include_oracle=True)
        assert len(calls) == 1
        assert rep["oracle"] == {
            "verdicts_agree": want.verdicts_agree,
            "max_row_deviation": want.max_row_deviation,
            "max_offdiag": want.max_offdiag,
            "tol": want.tol,
        }


# ----------------------------------------------------------------------
# the array evaluator against one codeword and one set at a time


def ref_entry(gate, u):
    """One diagonal entry: a product of block exponentials, or the
    exponential of u R u^T summed over the support."""
    if isinstance(gate, BlockProductGate):
        total = 1 + 0j
        for qubits, local in gate.blocks:
            idx = 0
            for q in qubits:
                idx = (idx << 1) | ((u >> q) & 1)
            total *= cmath.exp(1j * cmath.pi * local.exps[idx] / (1 << (local.level - 1)))
        return total
    support = [i for i in range(gate.n) if (u >> i) & 1]
    acc = 0
    for a, i in enumerate(support):
        acc += gate.rows[i][i]
        for j in support[a + 1 :]:
            acc += 2 * gate.rows[i][j]
    return cmath.exp(1j * cmath.pi * acc / (1 << (gate.level - 1)))


def ref_block(code, gate):
    """M[beta, alpha] = 2^-m times the sum of the entries over the
    intersection of the codeword sets of alpha and beta."""
    k, m = code.k, code.dim_c2
    span = gf2.span_ints(code.x_stab.row_ints())
    supports = [{code.x_word(a).bits ^ code.y.bits ^ x for x in span} for a in range(1 << k)]
    mat = np.zeros((1 << k, 1 << k), dtype=complex)
    for alpha in range(1 << k):
        amps = {w: ref_entry(gate, w) for w in supports[alpha]}
        for beta in range(1 << k):
            overlap = supports[beta] & supports[alpha]
            if overlap:
                mat[beta, alpha] = 2.0 ** -m * sum(amps[w] for w in overlap)
    return mat


def ref_compare(matrix, row):
    """The diagonal's largest distance from the row's Hadamard transform,
    one sign at a time, and the largest off-diagonal modulus."""
    values = [v.to_complex() for v in row.values()]
    max_diag = 0.0
    for beta in range(len(values)):
        pred = 0j
        for alpha, v in enumerate(values):
            pred += -v if (alpha & beta).bit_count() & 1 else v
        max_diag = max(max_diag, abs(matrix[beta, beta] - pred))
    off = matrix.copy()
    np.fill_diagonal(off, 0)
    return max_diag, float(np.abs(off).max())


def assert_matches_reference(code, gate):
    block = logical_block(code, gate)
    want = ref_block(code, gate)
    assert block.matrix.shape == want.shape
    assert np.abs(block.matrix - want).max() <= 1e-12
    # off-diagonal entries are exact zeros wherever the sets are disjoint (a
    # diagonal sum may cancel to an exact zero in one order and not another)
    off = ~np.eye(len(want), dtype=bool)
    assert ((block.matrix == 0) == (want == 0))[off].all()
    row = gencoeff.trivial_row(code, gate)
    got, ref = compare_block_with_row(block, row), ref_compare(want, row)
    assert abs(got[0] - ref[0]) <= 1e-12 and abs(got[1] - ref[1]) <= 1e-12
    return got


def corrupt(gate, rng):
    """The gate with its first block's exponents redrawn at level 3."""
    (qubits, local), *rest = gate.blocks
    exps = tuple(rng.randrange(8) for _ in range(1 << local.b))
    return BlockProductGate(gate.n, ((qubits, LocalDiag(local.b, 3, exps)), *rest))


class TestAgainstReference:
    @pytest.mark.parametrize(
        "name, params",
        [("steane", []), ("four22", []), ("pqrm", [3]), ("two_l", [3]),
         ("qrm", [1, 3]), ("qrm", [2, 4]), ("tri2", [2])],
    )
    def test_families_and_corruptions(self, name, params):
        fb = families.build_family(name, params)
        dev, off = assert_matches_reference(fb.code, fb.gate)
        assert dev < 1e-9 and off == 0.0
        bad = corrupt(fb.gate, random.Random(name))
        assert not gencoeff.is_preserved(fb.code, bad).preserved
        assert_matches_reference(fb.code, bad)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_codes(self, data):
        # block products with mixed block levels, general quadratic forms,
        # forms c*I and rotations, levels up to LEVEL_CAP, k = 0 included
        n = data.draw(st.integers(2, 16))
        rng = random.Random(data.draw(st.integers(0, 1 << 64)))
        dim_c1 = rng.randint(0, min(n - 1, 10))
        code = random_code(rng, n, rng.randint(0, min(dim_c1, 5)), dim_c1)
        assert_matches_reference(code, data.draw(seeded_gates(n)))

    def test_k_zero(self):
        code = random_code(random.Random(3), 9, 0, 4)
        assert code.k == 0
        _, off = assert_matches_reference(code, transversal_zrot(9, 3))
        assert off == 0.0

    def test_sets_past_one_chunk(self):
        # 2^15 codewords per set: each set is summed over two chunks
        rng = random.Random(11)
        code = random_code(rng, 18, 1, 16)
        assert code.dim_c2 == 15
        blocks = [((0, 5), gates.elementary_ckz(1, 2)), ((3,), LocalDiag(1, 3, (1, 6))),
                  ((7, 9, 12), gates.elementary_ckz(2, 1))]
        for gate in (transversal_zrot(18, 3), block_gate(18, blocks)):
            assert_matches_reference(code, gate)

    def test_independent_of_the_engine(self, monkeypatch):
        # the block needs none of the engine's word kernels, Pauli tables or
        # span tables, wherever they are bound
        def fail(*args, **kwargs):
            raise AssertionError("engine kernel called")

        for name in ("_word_exponents", "span_exponents", "pauli_factors"):
            monkeypatch.setattr(gates, name, fail)
            monkeypatch.setattr(gencoeff, name, fail)
            assert not hasattr(oracle, name)
        monkeypatch.setattr(gencoeff, "_span_table", fail)
        rng = random.Random(7)
        code = random_code(rng, 10, 3, 6)
        rows = [[0] * 10 for _ in range(10)]
        for i in range(10):
            for j in range(i, 10):
                rows[i][j] = rows[j][i] = rng.randrange(8)
        for gate in (transversal_zrot(10, 2), gates.qfd_gate(10, 3, rows),
                     block_gate(10, [((0, 4), gates.elementary_ckz(1, 2))])):
            assert logical_block(code, gate).matrix.shape == (8, 8)
        assert abs(logical_block(steane_code(), transversal_zrot(7, 2)).matrix[0, 0]
                   - cmath.exp(1j * cmath.pi / 4)) < 1e-12
