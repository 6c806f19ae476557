"""Shared hypothesis strategies and fixtures."""

from __future__ import annotations

import random

import hypothesis.strategies as st

from diagsynth import gencoeff, gf2
from diagsynth.csscode import CssCode
from diagsynth.cyclo import LEVEL_CAP, Cyclo
from diagsynth.gates import (
    BLOCK_CAP,
    BlockProductGate,
    LocalDiag,
    QfdGate,
    block_gate,
    qfd_gate,
    transversal_zrot,
)
from diagsynth.gf2 import BitMat, BitVec


def full_words(n: int) -> st.SearchStrategy[int]:
    """Nonzero n-bit words with every bit equally likely.  Hypothesis' own
    wide integers favour small values, which would leave the bits above
    qubit 63 mostly clear."""
    return st.integers(0, 1 << 64).map(lambda seed: random.Random(seed).getrandbits(n) or 1)


def x_side(code, gate, s, budget):
    """One X-side coefficient, read as a one-entry row, as a ring element."""
    ints, denom = gencoeff._sum_x_side(code, gate, [s], budget)
    return Cyclo(gate.level, ints[0].tolist(), denom)


def z_side(code, gate, shift, budget):
    """One Z-side coefficient as a ring element."""
    vec, denom = gencoeff._sum_z_side(code, gate, shift, budget)
    return Cyclo(gate.level, vec.tolist(), denom)


def table_coefficient(table, s):
    """One coefficient read from a span table's row."""
    return Cyclo(table.level, table.row([s])[0].tolist(), table.dim)


@st.composite
def bitvecs(draw, n: int | None = None, max_n: int = 10):
    if n is None:
        n = draw(st.integers(1, max_n))
    bits = draw(st.integers(0, (1 << n) - 1))
    return BitVec(n, bits)


@st.composite
def bitmats(draw, n: int | None = None, max_n: int = 10, max_rows: int = 6):
    if n is None:
        n = draw(st.integers(1, max_n))
    rows = draw(st.lists(bitvecs(n=n), max_size=max_rows))
    return BitMat(n, rows)


@st.composite
def css_codes(draw, max_n: int = 8, min_k: int = 0):
    """Random valid CSS code: pick Z-stabilizers, then X-stabilizers as a
    subspace of the dual, then a random character vector."""
    n = draw(st.integers(2, max_n))
    z_raw = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n - 1 - min_k))
    z_mat, _ = gf2.rref(BitMat(n, [BitVec(n, r) for r in z_raw if r]))
    c1 = gf2.dual_basis(z_mat)
    dim1 = c1.num_rows
    max_x = max(0, dim1 - min_k)
    n_combos = draw(st.integers(0, max_x))
    x_rows = []
    for _ in range(n_combos):
        mask = draw(st.integers(1, (1 << dim1) - 1)) if dim1 else 0
        acc = 0
        for j in range(dim1):
            if (mask >> j) & 1:
                acc ^= c1.rows[j].bits
        if acc:
            x_rows.append(BitVec(n, acc))
    x_mat, _ = gf2.rref(BitMat(n, x_rows))
    while x_mat.num_rows > max_x:
        x_mat = BitMat(n, x_mat.rows[:-1])
    y = draw(bitvecs(n=n))
    return CssCode(n, x_mat, z_mat, y)


@st.composite
def local_diags(draw, max_b: int = 2, max_level: int = 3):
    b = draw(st.integers(1, max_b))
    level = draw(st.integers(1, max_level))
    exps = tuple(
        draw(st.integers(0, (1 << level) - 1)) for _ in range(1 << b)
    )
    return LocalDiag(b, level, exps)


@st.composite
def block_gates(draw, n: int, max_level: int = 3):
    """Random block-product gate on n qubits (some qubits may be identity)."""
    order = draw(st.permutations(list(range(n))))
    blocks = []
    i = 0
    while i < len(order):
        if draw(st.booleans()) and i + 1 < len(order) and draw(st.booleans()):
            qubits = (order[i], order[i + 1])
            i += 2
        else:
            qubits = (order[i],)
            i += 1
        if draw(st.integers(0, 3)) == 0:
            continue  # leave these qubits as identity
        level = draw(st.integers(1, max_level))
        exps = tuple(
            draw(st.integers(0, (1 << level) - 1)) for _ in range(1 << len(qubits))
        )
        blocks.append((qubits, LocalDiag(len(qubits), level, exps)))
    return BlockProductGate(n, tuple(blocks))


@st.composite
def qfd_gates(draw, n: int, max_level: int = 3):
    level = draw(st.integers(1, max_level))
    mod = 1 << level
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = draw(st.integers(0, mod - 1))
            rows[i][j] = v
            rows[j][i] = v
    return QfdGate(n, level, tuple(tuple(r) for r in rows))


@st.composite
def diagonal_gates(draw, n: int, max_level: int = 3):
    which = draw(st.integers(0, 2 if n <= 8 else 1))
    if which == 0:
        return transversal_zrot(n, draw(st.integers(1, max_level)))
    if which == 1:
        return draw(block_gates(n, max_level))
    return draw(qfd_gates(n, max_level))


@st.composite
def codes_with_gates(draw, max_n: int = 8, min_k: int = 0):
    code = draw(css_codes(max_n=max_n, min_k=min_k))
    gate = draw(diagonal_gates(code.n))
    return code, gate


@st.composite
def seeded_gates(draw, n: int, kinds=("block", "qfd", "rot", "scalar")):
    """A gate of one of four kinds, built from one drawn seed so that wide
    gates cost few draws: a block product of 1..BLOCK_CAP-qubit blocks with
    some qubits left uncovered (past 64 qubits a block always straddles
    qubits 63 and 64), a general quadratic form, a transversal rotation or
    a quadratic form c*I.  Levels reach LEVEL_CAP."""
    kind = draw(st.sampled_from(kinds))
    rng = random.Random(draw(st.integers(0, 1 << 64)))
    if kind == "rot":
        return transversal_zrot(n, rng.randint(1, LEVEL_CAP - 1))
    level = rng.randint(1, LEVEL_CAP)
    mod = 1 << level
    if kind == "scalar":
        c = rng.randrange(mod)
        return qfd_gate(n, level, [[c if i == j else 0 for j in range(n)] for i in range(n)])
    if kind == "qfd":
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randrange(mod)
        return qfd_gate(n, level, rows)
    qubits = rng.sample(range(n), n)
    groups = []
    if n > 64:
        qubits.remove(63)
        qubits.remove(64)
        groups.append([63, 64] + qubits[: rng.randint(0, BLOCK_CAP - 2)])
        qubits = qubits[len(groups[0]) - 2 :]
        rng.shuffle(groups[0])
    while qubits:
        b = rng.randint(1, BLOCK_CAP)
        if rng.random() < 0.75:
            groups.append(qubits[:b])
        qubits = qubits[b:]
    blocks = []
    for qs in groups:
        lvl = rng.randint(1, level)
        exps = tuple(rng.randrange(1 << lvl) for _ in range(1 << len(qs)))
        blocks.append((qs, LocalDiag(len(qs), lvl, exps)))
    return block_gate(n, blocks)
