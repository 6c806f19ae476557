"""Floating-point statevector cross-verifier.

Everything here is computed from first principles in complex doubles:
encoded states are built from the encoding map, gate entries from complex
exponentials of the block (or quadratic-form) data, and the logical block
from inner products.  The amplitudes on every codeword are one float
array, read in chunks: each input's phase comes from the blocks' exponent
tables or from u R u^T, not from the engine's word kernels.  Agreement
with the exact engine is the package's end-to-end sanity check, so this
module still avoids the exact ring and the coset machinery.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import gencoeff, gf2
from .csscode import CssCode
from .errors import BudgetExceeded
from .gates import BlockProductGate, DiagonalGate

DEFAULT_TOL = 1e-9
MAX_N = 24  # the statevector oracle's largest code
_CHUNK = 1 << 14  # codewords per amplitude pass


def entry_amplitudes(gate: DiagonalGate, us: np.ndarray) -> np.ndarray:
    """The gate's diagonal entries at the inputs us (an int64 array of
    n-bit words, n <= 63) as complex doubles."""
    raw = np.ascontiguousarray(us, dtype="<i8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(raw, axis=1, count=gate.n, bitorder="little")
    L = gate.level
    if isinstance(gate, BlockProductGate):
        phase = np.zeros(len(bits), dtype=np.int64)
        for qubits, local in gate.blocks:
            # the first listed qubit is the block index's top bit
            idx = np.zeros(len(bits), dtype=np.intp)
            for q in qubits:
                idx = (idx << 1) | bits[:, q]
            phase += np.array(local.exps, dtype=np.int64)[idx] << (L - local.level)
    else:
        u = bits.astype(np.int64)
        phase = ((u @ np.array(gate.rows, dtype=np.int64)) * u).sum(axis=1)
    roots = np.array([cmath.exp(1j * cmath.pi * e / (1 << (L - 1))) for e in range(1 << L)])
    return roots[phase & ((1 << L) - 1)]


@dataclass
class LogicalBlock:
    """Matrix of the gate restricted to the codespace: M[beta, alpha] =
    <enc(beta)| U |enc(alpha)>."""

    k: int
    matrix: np.ndarray


def _check_block_size(code: CssCode, gate: DiagonalGate) -> None:
    if gate.n != code.n:
        raise ValueError("gate and code sizes differ")
    if code.n > MAX_N:
        raise BudgetExceeded(f"statevector oracle supports n <= {MAX_N}", required_log2=code.n)
    k, m = code.k, code.dim_c2
    if 2 * k + m > 26:
        raise BudgetExceeded("logical block too large", required_log2=2 * k + m)


def logical_block(code: CssCode, gate: DiagonalGate) -> LogicalBlock:
    """The block from the codeword sets S_alpha = x_alpha ^ y ^ C2, each
    summed in chunks of whole sets (or of one set).  Two cosets of C2 are
    equal or disjoint, so S_alpha meets S_beta exactly when the two sets
    have the same least word, and then M[beta, alpha] is S_alpha's sum."""
    _check_block_size(code, gate)
    k, m = code.k, code.dim_c2
    span = np.array(gf2.span_ints(code.x_stab.row_ints()), dtype=np.int64)
    logical = gf2.span_ints(code.frame.x_logical_basis.row_ints())
    bases = np.array(logical, dtype=np.int64) ^ code.y.bits
    sums = np.zeros(1 << k, dtype=complex)
    least = bases.copy()
    step = min(_CHUNK, len(span) << k)
    width = min(len(span), step)
    rows = step // width
    for o in range(0, len(span) << k, step):
        a, x = o >> m, o & (len(span) - 1)
        us = bases[a : a + rows, None] ^ span[x : x + width]
        amps = entry_amplitudes(gate, us.reshape(-1))
        sums[a : a + rows] += amps.reshape(rows, width).sum(axis=1)
        np.minimum(least[a : a + rows], us.min(axis=1), out=least[a : a + rows])
    mat = np.zeros((1 << k, 1 << k), dtype=complex)
    sets: dict[int, list[int]] = {}
    for alpha, word in enumerate(least.tolist()):
        sets.setdefault(word, []).append(alpha)
    for alphas in sets.values():
        for alpha in alphas:
            mat[alphas, alpha] = sums[alpha] * 2.0 ** -m
    return LogicalBlock(k, mat)


@dataclass
class CrosscheckReport:
    preserved_exact: bool
    unitary_numeric: bool
    verdicts_agree: bool
    max_row_deviation: float
    max_offdiag: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.verdicts_agree and (
            not self.preserved_exact or self.max_row_deviation <= self.tol
        )


def compare_block_with_row(
    block: LogicalBlock, row: gencoeff.GenCoeffRow
) -> tuple[float, float]:
    """(max |diag - Hadamard(row)|, max |offdiag|) against an exact-full
    trivial row; the prediction is one product with the +-1 Hadamard
    matrix, summed row by row."""
    values = np.array([v.to_complex() for v in row.values()])
    assert len(values) == 1 << block.k
    labels = np.arange(len(values))
    hadamard = np.where(np.bitwise_count(labels[:, None] & labels) & 1, -1.0, 1.0)
    max_diag = float(np.abs(np.diagonal(block.matrix) - (hadamard * values).sum(axis=1)).max())
    off = block.matrix.copy()
    np.fill_diagonal(off, 0)
    return max_diag, float(np.abs(off).max())


def compare_with_engine(
    code: CssCode,
    gate: DiagonalGate,
    pres: gencoeff.PreservationResult,
    tol: float = DEFAULT_TOL,
    budget: int = gf2.DEFAULT_BUDGET,
) -> CrosscheckReport:
    """Build the float half, the logical block and whether it is unitary
    within tol, and compare it with the engine's verdict and exact-full
    trivial row (``pres.row``).  A verdict without a row (past
    the row cap or the budget) had its row refused, and asking again raises
    that refusal; the block's own size check comes first."""
    _check_block_size(code, gate)
    row = pres.row or gencoeff.trivial_row(code, gate, budget=budget)
    block = logical_block(code, gate)
    gram = block.matrix.conj().T @ block.matrix
    unitary = bool(np.abs(gram - np.eye(1 << block.k)).max() <= tol)
    max_diag, max_off = compare_block_with_row(block, row)
    return CrosscheckReport(
        preserved_exact=pres.preserved,
        unitary_numeric=unitary,
        verdicts_agree=pres.preserved == unitary,
        max_row_deviation=max_diag,
        max_offdiag=max_off,
        tol=tol,
    )


def crosscheck(
    code: CssCode,
    gate: DiagonalGate,
    tol: float = DEFAULT_TOL,
    budget: int = gf2.DEFAULT_BUDGET,
) -> CrosscheckReport:
    """Compare the exact engine against the float oracle: the preservation
    verdicts must agree and the induced diagonal must match entrywise.
    The engine answers (or refuses) before the float block is built."""
    _check_block_size(code, gate)
    pres = gencoeff.is_preserved(code, gate, budget=budget)
    return compare_with_engine(code, gate, pres, tol, budget)
