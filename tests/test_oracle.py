"""Float statevector oracle vs the exact engine."""

import cmath

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from diagsynth import gencoeff, oracle
from diagsynth.csscode import CssCode
from diagsynth.errors import BudgetExceeded
from diagsynth.families import four22_code, steane_code
from diagsynth.gates import block_gate, transversal_zrot
from diagsynth.gf2 import BitMat, BitVec
from diagsynth.oracle import compare_block_with_row, crosscheck, logical_block
from diagsynth.report import build_report
from diagsynth.synth import concatenate, half_support_remove_z

from conftest import codes_with_gates


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
