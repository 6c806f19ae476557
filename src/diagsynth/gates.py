"""Exact diagonal physical gates.

Two shapes cover every construction in scope: tensor products of local
diagonal blocks on disjoint qubits (uncovered qubits act as identity), and
quadratic-form gates whose diagonal entry at u is xi^(u R u^T) for a
symmetric matrix R over Z_{2^L} with xi the 2^L-th root of unity.

Entries are never floats: a gate exposes its diagonal through integer
exponents of a root of unity at the gate's level, and its Pauli expansion
through exact ring elements.  Global phases are part of the gate; the
transversal rotation constructor uses exp(-i pi/2^l Z) per qubit, so no
"up to phase" normalization is ever applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence, Union

import numpy as np

from . import gf2
from .cyclo import LEVEL_CAP, Cyclo
from .errors import BudgetExceeded, LengthMismatch
from .gf2 import BitVec

BLOCK_CAP = 3
DENSE_PAULI_CAP = 20  # a quadratic form's Pauli expansion is dense over 2^n labels


@dataclass(frozen=True)
class LocalDiag:
    """Diagonal on b qubits: entry u is zeta_{2^level}^exps[u].

    Entry index convention: for a block placed on qubits (q0, q1, ...) the
    index of the assignment (u_{q0}, u_{q1}, ...) is u_{q0} 2^(b-1) +
    u_{q1} 2^(b-2) + ..., i.e. the first listed qubit is the most
    significant bit (standard Kronecker order).
    """

    b: int
    level: int
    exps: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.b <= BLOCK_CAP:
            raise ValueError(f"block size must be in 1..{BLOCK_CAP}")
        if not 1 <= self.level <= LEVEL_CAP:
            raise ValueError(f"level must be in 1..{LEVEL_CAP}")
        if len(self.exps) != 1 << self.b:
            raise ValueError("need 2^b exponents")
        mod = 1 << self.level
        object.__setattr__(self, "exps", tuple(e % mod for e in self.exps))

    def dagger(self) -> "LocalDiag":
        return LocalDiag(self.b, self.level, tuple(-e for e in self.exps))


def elementary_ckz(controls: int, root: int, dagger: bool = False) -> LocalDiag:
    """The gate with i controls and phase e^(i pi / 2^root) on |1...1>."""
    if controls < 0 or root < 0:
        raise ValueError("controls and root must be >= 0")
    b = controls + 1
    if b > BLOCK_CAP:
        raise ValueError(f"block size {b} exceeds cap {BLOCK_CAP}")
    level = root + 1
    if level > LEVEL_CAP:
        raise ValueError(f"level {level} exceeds cap {LEVEL_CAP}")
    exps = [0] * (1 << b)
    exps[-1] = -1 if dagger else 1
    return LocalDiag(b, level, tuple(exps))


@dataclass(frozen=True)
class BlockProductGate:
    """Tensor product of local diagonal blocks on disjoint qubit sets.

    ``level`` and ``weight_affine`` (see weight_affine_form) are derived
    once, at construction; the Pauli factor tables (see pauli_factors) on
    their first use."""

    n: int
    blocks: tuple[tuple[tuple[int, ...], LocalDiag], ...]
    level: int = field(init=False, repr=False, compare=False)
    weight_affine: tuple[int, int, int] | None = field(init=False, repr=False, compare=False)
    _pauli_factors: tuple["PauliFactor", ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        seen: set[int] = set()
        for qubits, local in self.blocks:
            if len(qubits) != local.b:
                raise ValueError("qubit list does not match block size")
            for q in qubits:
                if not 0 <= q < self.n:
                    raise ValueError(f"qubit {q} out of range")
                if q in seen:
                    raise ValueError(f"qubit {q} covered twice")
                seen.add(q)
        level = max([1] + [local.level for _, local in self.blocks])
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "weight_affine", self._weight_affine())

    def _weight_affine(self) -> tuple[int, int, int] | None:
        # a full cover by identical one-qubit blocks
        if len(self.blocks) != self.n:
            return None
        first = self.blocks[0][1]
        if first.b != 1:
            return None
        for _, local in self.blocks:
            if local != first:
                return None
        L = self.level
        a0 = first.exps[0] << (L - first.level)
        a1 = first.exps[1] << (L - first.level)
        return (self.n * a0) % (1 << L), (a1 - a0) % (1 << L), L


@dataclass(frozen=True)
class QfdGate:
    """Quadratic-form diagonal gate: entry at u is xi_level^(u R u^T)."""

    n: int
    level: int
    rows: tuple[tuple[int, ...], ...]
    weight_affine: tuple[int, int, int] | None = field(init=False, repr=False, compare=False)
    _pauli_factors: tuple["PauliFactor", ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not 1 <= self.level <= LEVEL_CAP:
            raise ValueError(f"level must be in 1..{LEVEL_CAP}")
        if len(self.rows) != self.n or any(len(r) != self.n for r in self.rows):
            raise ValueError("R must be n x n")
        mod = 1 << self.level
        reduced = tuple(tuple(v % mod for v in r) for r in self.rows)
        for i in range(self.n):
            for j in range(self.n):
                if reduced[i][j] != reduced[j][i]:
                    raise ValueError("R must be symmetric")
        object.__setattr__(self, "rows", reduced)
        object.__setattr__(self, "weight_affine", self._weight_affine())

    def _weight_affine(self) -> tuple[int, int, int] | None:
        # R = c*I
        diag = self.rows[0][0] if self.n else 0
        for i in range(self.n):
            for j in range(self.n):
                if i == j:
                    if self.rows[i][i] != diag:
                        return None
                elif self.rows[i][j] != 0:
                    return None
        return 0, diag % (1 << self.level), self.level


DiagonalGate = Union[BlockProductGate, QfdGate]


def transversal_zrot(n: int, l: int) -> BlockProductGate:
    """exp(-i pi/2^l Z) applied to every qubit, exact global phase included."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= l <= LEVEL_CAP - 1:
        raise ValueError(f"rotation index must be in 1..{LEVEL_CAP - 1}")
    local = LocalDiag(1, l + 1, (-1, 1))
    return BlockProductGate(n, tuple(((q,), local) for q in range(n)))


def block_gate(n: int, blocks: Sequence[tuple[Sequence[int], LocalDiag]]) -> BlockProductGate:
    return BlockProductGate(n, tuple((tuple(q), local) for q, local in blocks))


def qfd_gate(n: int, level: int, rows: Sequence[Sequence[int]]) -> QfdGate:
    return QfdGate(n, level, tuple(tuple(r) for r in rows))


# ----------------------------------------------------------------------
# diagonal entries


def entry_exponent_int(gate: DiagonalGate, u: int) -> int:
    """Exponent k with entry(u) = zeta_{2^gate.level}^k."""
    L = gate.level
    mod = 1 << L
    if isinstance(gate, BlockProductGate):
        total = 0
        for qubits, local in gate.blocks:
            idx = 0
            for q in qubits:
                idx = (idx << 1) | ((u >> q) & 1)
            total += local.exps[idx] << (L - local.level)
        return total % mod
    acc = 0
    support = [i for i in range(gate.n) if (u >> i) & 1]
    for a, i in enumerate(support):
        acc += gate.rows[i][i]
        for j in support[a + 1 :]:
            acc += 2 * gate.rows[i][j]
    return acc % mod


def _word_exponents(gate: DiagonalGate) -> Callable[[np.ndarray], np.ndarray]:
    """The gate's exponent as a function of a (rows, ceil(n/64)) uint64
    word array, returning uint8.  Sums are taken in uint8 and so wrap mod
    256, a multiple of 2^level."""
    n, mask = gate.n, (1 << gate.level) - 1
    if gate.weight_affine is not None:
        off, slope, _ = gate.weight_affine
        lut = np.array([(off + slope * w) & mask for w in range(n + 1)], dtype=np.uint8)
        return lambda words: lut[gf2.word_weights(words)]
    if isinstance(gate, BlockProductGate):
        tables = [
            np.array([e << (gate.level - local.level) for e in local.exps], dtype=np.uint8)
            for _, local in gate.blocks
        ]

        def block_exps(words: np.ndarray) -> np.ndarray:
            bits = gf2.word_bits(words, n)
            total = np.zeros(len(bits), dtype=np.uint8)
            for (qubits, _), table in zip(gate.blocks, tables):
                idx = bits[:, qubits[0]]
                for q in qubits[1:]:
                    idx = (idx << 1) | bits[:, q]
                total += table[idx]
            return total & mask

        return block_exps
    # u R through BLAS in slices of 2^12 rows; float32 is exact, since each
    # sum is at most 255 n < 2^24 (n < 65,794: no larger n x n form fits
    # in memory)
    rows = np.array(gate.rows, dtype=np.float32)

    def form_exps(words: np.ndarray) -> np.ndarray:
        bits = gf2.word_bits(words, n)
        out = np.empty(len(bits), dtype=np.uint8)
        for lo in range(0, len(bits), 1 << 12):
            b = bits[lo : lo + (1 << 12)]
            ur = (b.astype(np.float32) @ rows).astype(np.int64)
            out[lo : lo + len(b)] = (ur * b).sum(axis=1) & mask
        return out

    return form_exps


def span_exponents(gate: DiagonalGate, basis: Sequence[int], y: int) -> np.ndarray:
    """The gate's exponent at y ^ c_j for every element c_j of the span of
    ``basis``, in binary order (c_j combines the basis rows named by the
    bits of j), as uint8.  The span is built in rows of at most 2^16
    elements to bound the memory."""
    n = gate.n
    exps = _word_exponents(gate)
    cut = min(len(basis), 16)
    low = gf2.span_words(basis[:cut], n) ^ gf2.int_words(y, n)
    high = gf2.span_words(basis[cut:], n)
    out = np.empty((len(high), len(low)), dtype=np.uint8)
    for row, word in zip(out, high):
        row[:] = exps(low ^ word)
    return out.reshape(-1)


def residue_channels(exps: np.ndarray, level: int) -> list[int]:
    """The residues j < 2^(L-1) with j or j + 2^(L-1) among the exponents
    (each below 2^L): the signed channels of zeta^j that they fill.
    Counted in steps of 2^16 exponents, as ``span_exponents`` builds them."""
    half = 1 << (level - 1)
    counts = np.zeros(2 * half, dtype=np.intp)
    for o in range(0, len(exps), 1 << 16):
        counts += np.bincount(exps[o : o + (1 << 16)], minlength=2 * half)
    return np.flatnonzero(counts[:half] + counts[half:]).tolist()


def channel_spectrum(
    exps: np.ndarray, channels: Sequence[int], level: int, dtype
) -> np.ndarray:
    """(len(channels), len(exps)) array: row c is the Walsh-Hadamard
    transform of the signed channel of zeta^j, j = channels[c], so its
    column t is sum_u (-1)^(u.t) ([exps[u] = j] - [exps[u] = j + 2^(L-1)]).
    The Pauli factor tables are these."""
    half = 1 << (level - 1)
    out = np.empty((len(channels), len(exps)), dtype=dtype)
    for row, j in zip(out, channels):
        row[:] = exps == j
        row -= exps == j + half
    gf2.wht_rows(out)
    return out


def entry_exponent(gate: DiagonalGate, u: BitVec) -> int:
    if u.n != gate.n:
        raise LengthMismatch(f"length {u.n} vs gate on {gate.n}")
    return entry_exponent_int(gate, u.bits)


def d_entry(gate: DiagonalGate, u: BitVec) -> Cyclo:
    return Cyclo.root_of_unity(gate.level, entry_exponent(gate, u))


def weight_affine_form(gate: DiagonalGate) -> tuple[int, int, int] | None:
    """If every entry exponent is offset + slope*weight(u) mod 2^L, return
    (offset, slope, level); else None.

    Holds for any full cover by identical single-qubit blocks (transversal
    rotations) and for quadratic forms c*I.  Computed once, when the gate
    is built.
    """
    return gate.weight_affine


# ----------------------------------------------------------------------
# Pauli expansion


@lru_cache(maxsize=None)
def _block_pauli_table(local: LocalDiag) -> tuple[Cyclo, ...]:
    """2^b-point Hadamard transform of the block diagonal, exact."""
    size = 1 << local.b
    mod = 1 << local.level
    out = []
    for v in range(size):
        counts = [0] * mod
        for u in range(size):
            k = local.exps[u]
            if (u & v).bit_count() & 1:
                k = (k + (mod >> 1)) % mod  # sign flip as half-turn
            counts[k] += 1
        out.append(Cyclo.from_root_counts(local.level, counts, local.b))
    return tuple(out)


def pauli_coeff(gate: DiagonalGate, v: BitVec) -> Cyclo:
    """Coefficient of the Z-type Pauli labeled v in the gate's expansion:
    2^-n sum_u (-1)^(u.v) entry(u)."""
    if v.n != gate.n:
        raise LengthMismatch(f"length {v.n} vs gate on {gate.n}")
    if isinstance(gate, BlockProductGate):
        covered = 0
        for qubits, _ in gate.blocks:
            for q in qubits:
                covered |= 1 << q
        if v.bits & ~covered:
            return Cyclo.zero()
        acc = Cyclo.one()
        for qubits, local in gate.blocks:
            idx = 0
            for q in qubits:
                idx = (idx << 1) | v.bit(q)
            acc = acc * _block_pauli_table(local)[idx]
        return acc
    if gate.n > DENSE_PAULI_CAP:
        raise ValueError(f"dense Pauli expansion limited to n <= {DENSE_PAULI_CAP}")
    # the 2^n cube is the span of the unit vectors, in binary order
    mod = 1 << gate.level
    exps = span_exponents(gate, [1 << q for q in range(gate.n)], 0).astype(np.intp)
    odd = np.bitwise_count(np.arange(1 << gate.n, dtype=np.uint64) & np.uint64(v.bits)) & 1
    counts = np.bincount((exps + odd * (mod >> 1)) % mod, minlength=mod)
    return Cyclo.from_root_counts(gate.level, counts.tolist(), gate.n)


@dataclass(frozen=True)
class PauliFactor:
    """One tensor factor of a gate's Pauli expansion, on b qubits.

    Bit i of a label index is the label's bit on ``qubits[i]``.  Row v of
    ``table`` (shape (2^b, len(channels))) holds the integer coefficients,
    on zeta^j for j in ``channels``, of

        sum_u (-1)^(u.v) zeta^(e(u))

    over the factor's 2^b inputs u, with zeta at the gate's level L; every
    other coefficient j < 2^(L-1) is zero.  Divided by 2^b it is the
    factor's Pauli coefficient.  Each entry is at most 2^b in absolute
    value, and the absolute values of a row sum to at most 2^b.
    """

    qubits: tuple[int, ...]
    channels: tuple[int, ...]
    table: np.ndarray


def pauli_factors(
    gate: DiagonalGate, budget: int = gf2.DEFAULT_BUDGET
) -> tuple[PauliFactor, ...]:
    """The gate's Pauli expansion as a product of factor tables:
    f(v) = prod_F 2^-b_F table_F[v restricted to F], and f(v) = 0 when v
    has a set bit on a qubit no factor covers.

    A block product has one factor per block.  A quadratic form is one
    factor on all n qubits, its dense spectrum of channels x 2^n integers:
    refused past DENSE_PAULI_CAP qubits, and when that size exceeds the
    budget.  Built on the first call and kept on the gate.
    """
    factors = gate._pauli_factors
    if isinstance(gate, BlockProductGate):
        if factors is None:
            built = []
            for qubits, local in gate.blocks:
                # the first listed qubit is the block index's top bit
                exps = np.array(local.exps) << (gate.level - local.level)
                channels = residue_channels(exps, gate.level)
                table = channel_spectrum(exps, channels, gate.level, np.int32).T
                built.append(PauliFactor(tuple(reversed(qubits)), tuple(channels), table))
            factors = tuple(built)
            object.__setattr__(gate, "_pauli_factors", factors)
        return factors
    n = gate.n
    if n > DENSE_PAULI_CAP:
        raise BudgetExceeded(f"2^{n} dense Pauli expansion", required_log2=n)
    if factors is None:
        cube = span_exponents(gate, [1 << q for q in range(n)], 0)
        channels = residue_channels(cube, gate.level)
    else:
        channels = factors[0].channels
    size = len(channels) << n
    if size > budget:
        raise BudgetExceeded(
            f"{len(channels)} x 2^{n} dense Pauli spectrum",
            required_log2=(size - 1).bit_length(),
        )
    if factors is None:
        # |entry| <= 2^n <= 2^DENSE_PAULI_CAP fits int32
        table = channel_spectrum(cube, channels, gate.level, np.int32).T
        factors = (PauliFactor(tuple(range(n)), tuple(channels), table),)
        object.__setattr__(gate, "_pauli_factors", factors)
    return factors


# ----------------------------------------------------------------------
# lifts to the doubled system

LIFT_POLICIES = ("identity_tensor", "next_level_rotation", "qfd_tensor")


def lift(gate: DiagonalGate, policy: str) -> DiagonalGate:
    """Extend a gate on n qubits to 2n qubits with entry([u,u]) = entry(u).

    identity_tensor moves every block to the second half; the other two
    raise the level: next_level_rotation maps a transversal rotation to the
    half-angle rotation on 2n qubits, qfd_tensor maps R to I2 (x) R one
    level up.
    """
    if policy == "identity_tensor":
        if not isinstance(gate, BlockProductGate):
            raise ValueError("identity_tensor requires a block-product gate")
        shifted = tuple(
            (tuple(q + gate.n for q in qubits), local) for qubits, local in gate.blocks
        )
        return BlockProductGate(2 * gate.n, shifted)
    if policy == "next_level_rotation":
        rot = _as_zrot(gate)
        if rot is None:
            raise ValueError("next_level_rotation requires a transversal rotation")
        n, l = rot
        return transversal_zrot(2 * n, l + 1)
    if policy == "qfd_tensor":
        if not isinstance(gate, QfdGate):
            raise ValueError("qfd_tensor requires a quadratic-form gate")
        n = gate.n
        zero = [0] * n
        rows = [list(gate.rows[i]) + zero for i in range(n)]
        rows += [zero + list(gate.rows[i]) for i in range(n)]
        return QfdGate(2 * n, gate.level + 1, tuple(tuple(r) for r in rows))
    raise ValueError(f"unknown lift policy {policy!r}")


def _as_zrot(gate: DiagonalGate) -> tuple[int, int] | None:
    """Recognize the output of transversal_zrot, returning (n, l)."""
    if not isinstance(gate, BlockProductGate):
        return None
    if len(gate.blocks) != gate.n:
        return None
    for _, local in gate.blocks:
        if local.b != 1:
            return None
        l = local.level - 1
        if local.exps != ((-1) % (1 << local.level), 1):
            return None
    first = gate.blocks[0][1]
    if any(local != first for _, local in gate.blocks):
        return None
    return gate.n, first.level - 1


# ----------------------------------------------------------------------
# JSON wire format


def gate_to_json(gate: DiagonalGate) -> dict:
    rot = _as_zrot(gate)
    if rot is not None:
        return {"kind": "transversal_zrot", "n": rot[0], "l": rot[1]}
    if isinstance(gate, BlockProductGate):
        blocks = []
        for qubits, local in gate.blocks:
            nz = [(i, e) for i, e in enumerate(local.exps) if e]
            if len(nz) == 1 and nz[0][0] == (1 << local.b) - 1 and nz[0][1] in (1, (1 << local.level) - 1):
                blocks.append(
                    {
                        "qubits": list(qubits),
                        "gate": {
                            "type": "CkZ",
                            "controls": local.b - 1,
                            "root": local.level - 1,
                            "dagger": nz[0][1] != 1,
                        },
                    }
                )
            else:
                blocks.append(
                    {
                        "qubits": list(qubits),
                        "gate": {"type": "diag", "level": local.level, "exps": list(local.exps)},
                    }
                )
        return {"kind": "blocks", "n": gate.n, "blocks": blocks}
    return {"kind": "qfd", "n": gate.n, "l": gate.level, "R": [list(r) for r in gate.rows]}


def gate_from_json(d: dict) -> DiagonalGate:
    kind = d["kind"]
    if kind == "transversal_zrot":
        return transversal_zrot(int(d["n"]), int(d["l"]))
    if kind == "blocks":
        blocks = []
        for b in d["blocks"]:
            g = b["gate"]
            if g["type"] == "CkZ":
                local = elementary_ckz(int(g["controls"]), int(g["root"]), bool(g.get("dagger", False)))
            elif g["type"] == "diag":
                exps = [int(x) for x in g["exps"]]
                size = len(exps)
                bsz = size.bit_length() - 1
                local = LocalDiag(bsz, int(g["level"]), tuple(exps))
            else:
                raise ValueError(f"unknown local gate type {g['type']!r}")
            blocks.append((tuple(int(q) for q in b["qubits"]), local))
        return BlockProductGate(int(d["n"]), tuple(blocks))
    if kind == "qfd":
        return qfd_gate(int(d["n"]), int(d["l"]), d["R"])
    raise ValueError(f"unknown gate kind {kind!r}")
