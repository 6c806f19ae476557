"""Floating-point statevector cross-verifier.

Everything here is computed from first principles in complex doubles:
encoded states are built from the encoding map, gate entries from complex
exponentials of the block (or quadratic-form) data, and the logical block
from inner products.  Agreement with the exact engine is the package's
end-to-end sanity check, so this module deliberately avoids the exact ring
and the coset machinery.
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


def _entry_complex(gate: DiagonalGate, u: int) -> complex:
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


@dataclass
class LogicalBlock:
    """Matrix of the gate restricted to the codespace: M[beta, alpha] =
    <enc(beta)| U |enc(alpha)>."""

    k: int
    matrix: np.ndarray


def _check_block_size(code: CssCode, gate: DiagonalGate) -> None:
    if gate.n != code.n:
        raise ValueError("gate and code sizes differ")
    if code.n > 24:
        raise BudgetExceeded("statevector oracle supports n <= 24", required_log2=code.n)
    k, m = code.k, code.dim_c2
    if 2 * k + m > 26:
        raise BudgetExceeded("logical block too large", required_log2=2 * k + m)


def logical_block(code: CssCode, gate: DiagonalGate) -> LogicalBlock:
    _check_block_size(code, gate)
    k, m = code.k, code.dim_c2
    span = gf2.span_ints(code.x_stab.row_ints())
    norm = 2.0 ** (-m)
    supports = []
    for alpha in range(1 << k):
        base = code.x_word(alpha).bits ^ code.y.bits
        supports.append({base ^ x for x in span})
    mat = np.zeros((1 << k, 1 << k), dtype=complex)
    for alpha in range(1 << k):
        amps = {w: _entry_complex(gate, w) for w in supports[alpha]}
        for beta in range(1 << k):
            overlap = supports[beta] & supports[alpha]
            if overlap:
                mat[beta, alpha] = norm * sum(amps[w] for w in overlap)
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
    trivial row."""
    k = block.k
    values = [v.to_complex() for v in row.values()]
    assert len(values) == 1 << k
    max_diag = 0.0
    for beta in range(1 << k):
        pred = 0j
        for alpha, v in enumerate(values):
            pred += -v if (alpha & beta).bit_count() & 1 else v
        max_diag = max(max_diag, abs(block.matrix[beta, beta] - pred))
    off = block.matrix.copy()
    np.fill_diagonal(off, 0)
    return max_diag, float(np.abs(off).max())


def float_block(
    code: CssCode, gate: DiagonalGate, tol: float = DEFAULT_TOL
) -> tuple[LogicalBlock, bool]:
    """The float half of the crosscheck: the logical block and whether it
    is unitary within tol."""
    block = logical_block(code, gate)
    m = block.matrix
    gram = m.conj().T @ m
    return block, bool(np.abs(gram - np.eye(1 << block.k)).max() <= tol)


def compare_with_engine(
    code: CssCode,
    gate: DiagonalGate,
    pres: gencoeff.PreservationResult,
    row: gencoeff.GenCoeffRow,
    tol: float = DEFAULT_TOL,
) -> CrosscheckReport:
    """Build the float half and compare it with the engine's verdict and
    exact-full trivial row."""
    block, unitary = float_block(code, gate, tol)
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
    row = pres.row or gencoeff.trivial_row(code, gate, budget=budget)
    return compare_with_engine(code, gate, pres, row, tol)
