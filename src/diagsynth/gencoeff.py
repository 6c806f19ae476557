"""Exact generator-coefficient engine.

For a code with Z-stabilizer signs fixed by the character vector y and a
diagonal gate with entries d_u and Pauli expansion f(v), the coefficient
attached to X-syndrome mu and Z-logical gamma is the signed coset sum

    A(mu, gamma) = sum_{z in C1perp + mu + gamma} (-1)^(z.y) f(z)
                 = |C1|^-1 sum_{u in C1 + y} (-1)^((mu^gamma).(y^u)) d_u.

Both forms are implemented; the engine enumerates whichever side is
smaller.  Every gate gets one table per code at every n: C1 is enumerated
once as ceil(n/64) uint64 words per element, with the X-stabilizer rows as
the low basis bits and the X-logical rows above them, into the exponent
array e_j of the gate at y ^ c_j (``gates.span_exponents``).  Row beta of
that array reshaped to (2^k, 2^dim C2) is the coset x_beta + C2 + y, and
with t(s)_i = b_i . s every coefficient is

    A(s) = 2^-dim C1 sum_j (-1)^(j . t(s)) zeta^(e_j).

That sum is read coset by coset.  Split t(s) = sigma | alpha << dim C2:
the sign's syndrome part sigma acts within each coset row and its logical
part alpha across the rows, so a row of coefficients is one signed sum
per residue channel and coset for each sigma it touches, then one
transform over the k logical bits, gathered at alpha.
The Z side is the independent check, one array pass over a row's shifts
s: a signed weight enumerator for transversal rotations, and for other
gates a walk over the words of C1perp + s (C1perp is listed once per
code) that reads f(z) from the gate's Pauli factor tables
(``gates.pauli_factors``, apart from the X-side table) and multiplies
them in Z[zeta] on integer arrays.

Rows are integer arrays first: both sides hand back the coefficient
vectors on zeta^0..zeta^(2^(L-1)-1) over one power-of-two denominator, a
row's norm folds their Gram matrix into one ring element, and an entry
becomes an exact ring element only when it is read.

Preservation (``is_preserved``) is the trivial row's norm while the row
fits the row cap and the budget, and otherwise the low-degree test
(``_low_degree``), which also decides each growth step: from a preserved
input it walks only the points the step's new row adds, and leaves the
new code a complement of C2 in C1 that later walks read (``_complement``).
On a preserved code every coset is constant, so the induced logical is
read at the words y ^ x_beta, beta of weight <= D (``induced_logical``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import comb
from typing import Sequence

import numpy as np

from . import gf2, hierarchy
from .csscode import CssCode, LogicalFrame
from .cyclo import ONE, Cyclo
from .errors import BudgetExceeded, LengthMismatch, NotPreserved
from .gates import (
    BlockProductGate,
    DiagonalGate,
    pauli_factors,
    residue_channels,
    span_exponents,
    _rot_table,
    _word_exponents,
)
from .gf2 import BitVec

# generic Z-side walks past this many words are refused: each holds a
# row of 2^(L-1) integers per factor product
_PY_SPAN_CAP = 1 << 16
_ROW_CAP = 1 << 12  # above this, is_preserved asks the low-degree test


# ----------------------------------------------------------------------
# the C1-span table


class _SpanTable:
    """One diagonal gate over the C1 span of one code.

    ``exps[j]`` is the gate's exponent at y ^ c_j, where c_j combines the
    basis rows named by the bits of j: first the m = dim C2 X-stabilizer
    rows, then the k X-logical rows, so the entries with j >> m = beta form
    the coset x_beta + C2 + y.  Residues j and j + 2^(L-1) form the signed
    channel of zeta^j.  The Walsh-Hadamard transform over C1 factorizes
    along that order, H_dim = H_k (x) H_m, so every coefficient is read
    coset by coset: signed channel sums over each coset (``coset_sums``),
    then a transform over the k logical bits (``row``).
    """

    def __init__(self, code: CssCode, gate: DiagonalGate):
        self.level = gate.level
        self.n = code.n
        basis = code.x_stab.row_ints() + code.frame.x_logical_basis.row_ints()
        self.t_map = gf2.parity_map(basis, code.n)
        self.dim = len(basis)
        self.m = code.dim_c2
        self.exps = span_exponents(gate, basis, code.y.bits)

    @cached_property
    def channels(self) -> list[int]:
        """The residue channels the exponents fill, counted when a row is
        first read."""
        return residue_channels(self.exps, self.level)

    def coset_sums(self, sigma: int, channels: Sequence[int]) -> np.ndarray:
        """(len(channels), 2^k) int64 array whose entry [c, beta] is
        sum_j (-1)^(sigma . j) ([e_j = i] - [e_j = i + 2^(L-1)]) over the
        coset x_beta + C2 + y (j >> m = beta), i = channels[c].

        Counted in steps of at most 2^16 entries, as ``span_exponents``
        builds the table: each entry's bin is 2c + (its residue is past
        2^(L-1)), flipped by its sign; residues of other channels fall in a
        last pair of bins that is dropped.
        """
        half, m = 1 << (self.level - 1), self.m
        ch = np.asarray(channels, dtype=np.intp)
        bins = 2 * len(ch) + 2
        lut = np.full(2 * half, bins - 2, dtype=np.intp)
        lut[ch] = 2 * np.arange(len(ch))
        lut[ch + half] = lut[ch] + 1
        size = len(self.exps)
        step = min(size, 1 << 16)
        width = min(1 << m, step)
        rows = step // width
        low = np.bitwise_count(np.arange(width) & sigma) & 1
        offsets = np.arange(0, rows * bins, bins)[:, None]
        out = np.zeros((len(ch), size >> m), dtype=np.int64)
        for o in range(0, size, step):
            idx = lut[self.exps[o : o + step].reshape(rows, width)]
            if sigma:
                # entry i of a step is j = o | i, and sigma < 2^m
                idx ^= low ^ ((o & sigma).bit_count() & 1)
            idx += offsets
            cnt = np.bincount(idx.reshape(-1), minlength=rows * bins)
            cnt = cnt.reshape(rows, -1, 2)[:, :-1]
            out[:, o >> m : (o >> m) + rows] += (cnt[..., 0] - cnt[..., 1]).T
        return out

    def row(self, svals: Sequence[int]) -> np.ndarray:
        """(N, 2^(L-1)) int64 array whose row r holds the coefficients on
        zeta^0..zeta^(2^(L-1)-1) of 2^dim A(s) for s = svals[r], that is
        of sum_{c in C1} (-1)^(c.s) d_(y ^ c).

        With t(s)_i = b_i . s split as sigma | alpha << m, that sum is the
        transform over beta of (-1)^(alpha . beta) of the coset sums for
        sigma, at alpha.  The channels go in groups of at most 2^m, so each
        group's sums hold at most 2^dim entries.
        """
        t = gf2.apply_parity_map(self.t_map, gf2.int_rows(svals, self.n))
        sig, alpha = t & ((1 << self.m) - 1), t >> self.m
        out = np.zeros((len(svals), 1 << (self.level - 1)), dtype=np.int64)
        channels = self.channels
        for sigma in set(sig.tolist()):
            pick = np.flatnonzero(sig == sigma)
            for c in range(0, len(channels), 1 << self.m):
                group = channels[c : c + (1 << self.m)]
                sums = self.coset_sums(sigma, group)
                gf2.wht_rows(sums)
                out[np.ix_(pick, group)] = sums[:, alpha[pick]].T
        return out


def _span_table(code: CssCode, gate: DiagonalGate) -> _SpanTable:
    """The code's table for the gate.  Weight-affine gates share one table
    per form, so the lookup never hashes a gate's blocks on that route."""
    cache = code._caches.setdefault("span_table", {})
    key = gate.weight_affine or gate
    table = cache.get(key)
    if table is None:
        table = cache[key] = _SpanTable(code, gate)
    return table


# ----------------------------------------------------------------------
# coset-sum kernels


def _sum_x_side(
    code: CssCode, gate: DiagonalGate, svals: Sequence[int], budget: int
) -> tuple[np.ndarray, int]:
    """|C1|^-1 sum_{c in C1} (-1)^(c.s) d_(y ^ c) for every s in svals, as
    one span-table row over the denominator 2^dim C1."""
    dim = code.dim_c1
    if 1 << dim > budget:
        raise BudgetExceeded(f"2^{dim} coset enumeration", required_log2=dim)
    return _span_table(code, gate).row(svals), dim


def _c1perp_words(code: CssCode) -> tuple[np.ndarray, np.ndarray]:
    """C1perp as a word array in binary order, with each word's parity
    against y; listed once per code."""
    cache = code._caches
    if "c1perp_words" not in cache:
        words = gf2.span_words(code.z_stab.row_ints(), code.n)
        parity = gf2.word_weights(words & gf2.int_words(code.y.bits, code.n)) & 1
        cache["c1perp_words"] = words, parity.astype(bool)
    return cache["c1perp_words"]


def _ring_times(acc: np.ndarray, rows: np.ndarray, channels: Sequence[int]) -> np.ndarray:
    """Row-wise product in Z[zeta] of the (N, 2^(L-1)) coefficient array
    acc with rows (N, len(channels)) that hold the coefficients on
    zeta^channels: a negacyclic convolution, since zeta^(2^(L-1)) = -1."""
    half = acc.shape[1]
    out = np.zeros_like(acc)
    for col, j in zip(rows.T, channels):
        prod = acc * col[:, None]
        out[:, j:] += prod[:, : half - j]
        out[:, :j] -= prod[:, half - j :]
    return out


def _sum_z_rows(
    code: CssCode, gate: DiagonalGate, svals: Sequence[int], budget: int
) -> tuple[np.ndarray, int]:
    """sum_{z in C1perp + s} (-1)^(z.y) f(z) for every s in svals: the
    integer coefficients on zeta^0.. over 2^denom as (N, 2^(L-1)) rows,
    and denom.  A coefficient over 2^d has absolute values summing to at
    most 2^d (it is 2^-dim C1 times a sum of 2^dim C1 signed roots of
    unity), so int64 holds the rows while d <= 62.  The budget prices one
    shift.  For rotations denom is the rows' largest minimal denominator
    (0 if all are zero); otherwise the factors' qubit count.
    """
    half = 1 << (gate.level - 1)
    if not svals:
        return np.zeros((0, half), dtype=np.int64), 0
    basis, n, y = code.z_stab.row_ints(), code.n, code.y.bits
    dim = len(basis)
    shifts = gf2.int_rows(svals, n)
    flip = (gf2.word_weights(shifts & gf2.int_words(y, n)) & 1).astype(bool)
    if gate.weight_affine is not None and isinstance(gate, BlockProductGate):
        counts = gf2.signed_weight_counts(basis, svals, y, n, budget)
        counts[flip] *= -1
        table, top = _rot_table(gate.blocks[0][1], n)
        # row sums of |.|: table <= 2^top (n half-sums of two roots), counts <= 2^dim
        dtype = np.int64 if top + dim <= 62 else object
        sums = counts.astype(dtype) @ table.astype(dtype)
        # the rows' common power of two is the lowest bit of any entry
        low = int(np.bitwise_or.reduce(sums, axis=None))
        denom = max(0, top + 1 - (low & -low).bit_length()) if low else 0
        sums >>= top - denom
        return sums.astype(np.int64 if denom <= 62 else object, copy=False), denom
    if 1 << dim > min(budget, _PY_SPAN_CAP):
        raise BudgetExceeded(f"2^{dim} Z-side walk", required_log2=dim)
    factors = pauli_factors(gate, budget)
    words, parity = _c1perp_words(code)
    covered = sum(1 << q for f in factors for q in f.qubits)
    outside = gf2.int_words(((1 << n) - 1) ^ covered, n)
    # Bound: a factor row's absolute values sum to at most 2^b, and that
    # is submultiplicative in Z[zeta], so every integer below is at most
    # 2^(width + dim) in absolute value: int64 while width + dim <= 62
    width = sum(len(f.qubits) for f in factors)
    dtype = np.int64 if width + dim <= 62 else object
    out = np.empty((len(svals), half), dtype=dtype)
    per = max(1, (1 << 16) >> dim)
    for o in range(0, len(svals), per):
        z = (shifts[o : o + per, None] ^ words).reshape(-1, words.shape[1])
        bits = gf2.word_bits(z, n)
        acc = np.zeros((len(z), half), dtype=dtype)
        acc[:, 0] = 1
        for f in factors:
            idx = bits[:, list(f.qubits)] @ (1 << np.arange(len(f.qubits)))
            acc = _ring_times(acc, f.table[idx].astype(dtype), f.channels)
        # (-1)^(z.y), and f = 0 on a label with a bit on no factor
        sign = np.where((flip[o : o + per, None] ^ parity).reshape(-1), -1, 1)
        sign[(z & outside).any(axis=1)] = 0
        out[o : o + per] = (acc * sign[:, None]).reshape(-1, len(words), half).sum(axis=1)
    return out.astype(np.int64 if width <= 62 else object, copy=False), width


def _row_ints(
    code: CssCode, gate: DiagonalGate, svals: Sequence[int], budget: int
) -> tuple[np.ndarray, int]:
    """The coefficients A at every s = mu ^ gamma in svals as an
    (N, 2^(L-1)) integer array over one denominator 2^denom, returned with
    denom; the cheaper side first."""
    if not svals:
        return np.zeros((0, 1 << (gate.level - 1)), dtype=np.int64), 0
    last_exc: BudgetExceeded | None = None
    for side in "xz" if code.dim_c1 <= code.dim_c1perp else "zx":
        try:
            if side == "x":
                return _sum_x_side(code, gate, svals, budget)
            return _sum_z_rows(code, gate, svals, budget)
        except BudgetExceeded as exc:
            last_exc = exc
    assert last_exc is not None
    raise last_exc


def _coefficient_int(
    code: CssCode, gate: DiagonalGate, s: int, budget: int
) -> Cyclo:
    """A for mu ^ gamma = s: the one-entry row."""
    ints, denom = _row_ints(code, gate, [s], budget)
    return Cyclo(gate.level, ints[0].tolist(), denom)


# ----------------------------------------------------------------------
# public coefficient API


@dataclass(eq=False)
class GenCoeffRow:
    """Trivial-syndrome (or fixed-syndrome) coefficient row, integers
    first.

    Row i of ``ints`` holds the coefficients on zeta^0..zeta^(2^(L-1)-1)
    of 2^denom A(mu ^ gammas[i]), mu the syndrome representative it was
    read at, L = ``level``.  ``entries``, ``values()`` and ``to_json()``
    build the ring elements when first read; ``norm()`` builds one.
    """

    gammas: list[BitVec]
    ints: np.ndarray = field(repr=False)
    denom: int
    level: int
    exactness: str  # "exact-full" | "exact-sampled"

    @cached_property
    def entries(self) -> dict[BitVec, Cyclo]:
        return {
            g: Cyclo(self.level, v, self.denom)
            for g, v in zip(self.gammas, self.ints.tolist())
        }

    def values(self) -> list[Cyclo]:
        return list(self.entries.values())

    def norm(self) -> Cyclo:
        """sum_gamma |A(gamma)|^2 as one ring element.

        With a_g the integer rows, the sum is 2^-2denom sum_{i,j} G[i,j]
        zeta^(i-j) for the Gram matrix G = ints^T ints; zeta^(i-j) is
        -zeta^(i-j+2^(L-1)) when i < j, since zeta^(2^(L-1)) = -1.  Only the
        columns that hold a nonzero entry take part.
        """
        # Bound: each row's absolute values sum to at most 2^denom (see
        # _sum_z_rows), so the absolute values of G, and every partial sum
        # of the product, sum to at most N 2^(2 denom): int64 holds them
        # while 2 denom + ceil(log2 N) <= 62.  The fold runs on Python ints.
        log_rows = (len(self.ints) - 1).bit_length()
        dtype = np.int64 if 2 * self.denom + log_rows <= 62 else object
        cols = np.flatnonzero(self.ints.any(axis=0)).tolist()
        sub = self.ints[:, cols].astype(dtype, copy=False)
        half = self.ints.shape[1]
        out = [0] * half
        for i, gram_row in zip(cols, (sub.T @ sub).tolist()):
            for j, g in zip(cols, gram_row):
                if i >= j:
                    out[i - j] += g
                else:
                    out[i - j + half] -= g
        return Cyclo(self.level, out, 2 * self.denom)

    def to_json(self) -> list[dict]:
        return [
            {"gamma": g.to01(), "value": v.serialize()}
            for g, v in self.entries.items()
        ]


def _check_gate(code: CssCode, gate: DiagonalGate) -> None:
    if gate.n != code.n:
        raise ValueError(f"gate on {gate.n} qubits vs code on {code.n}")


def _check_gammas(code: CssCode, gammas: Sequence[BitVec] | None) -> None:
    """Refuse a gamma of the wrong length, then one outside C2-perp, the
    words that pair evenly with every X row.  The length comes first: with
    no X rows no pairing would notice it."""
    x_rows = code.x_stab.row_ints()
    for g in gammas or ():
        if g.n != code.n:
            raise LengthMismatch(f"length {g.n} vs {code.n}")
        if any((g.bits & x).bit_count() & 1 for x in x_rows):
            raise ValueError(f"gamma {g.to01()} is not in C2-perp")


def _all_gammas(code: CssCode) -> list[BitVec]:
    """Every Z-logical in frame order, refused above the row cap."""
    if 1 << code.k > _ROW_CAP:
        raise BudgetExceeded(
            f"full row has 2^{code.k} entries; pass an explicit gamma subset",
            required_log2=code.k,
        )
    # the frame's Z side in binary order: bit a of the index selects row a
    return [BitVec(code.n, g) for g in gf2.span_ints(code._z_logicals.row_ints())]


def coefficient(
    code: CssCode,
    gate: DiagonalGate,
    mu: BitVec,
    gamma: BitVec,
    budget: int = gf2.DEFAULT_BUDGET,
) -> Cyclo:
    """Exact coefficient for syndrome representative mu and Z-logical
    representative gamma (gamma must lie in C2-perp)."""
    _check_gate(code, gate)
    if mu.n != code.n or gamma.n != code.n:
        raise ValueError("mu and gamma must have length n")
    if any((gamma.bits & x).bit_count() & 1 for x in code.x_stab.row_ints()):
        raise ValueError("gamma is not a Z-logical representative (not in C2-perp)")
    return _coefficient_int(code, gate, mu.bits ^ gamma.bits, budget)


def trivial_row(
    code: CssCode,
    gate: DiagonalGate,
    gammas: Sequence[BitVec] | None = None,
    budget: int = gf2.DEFAULT_BUDGET,
) -> GenCoeffRow:
    """All coefficients for the trivial syndrome, or a sampled subset when
    an explicit gamma list is supplied."""
    return syndrome_row(code, gate, BitVec.zeros(code.n), gammas, budget)


def syndrome_row(
    code: CssCode,
    gate: DiagonalGate,
    mu: BitVec,
    gammas: Sequence[BitVec] | None = None,
    budget: int = gf2.DEFAULT_BUDGET,
) -> GenCoeffRow:
    """Like trivial_row but for an arbitrary syndrome representative."""
    _check_gate(code, gate)
    if mu.n != code.n:
        raise ValueError("mu must have length n")
    _check_gammas(code, gammas)
    exactness = "exact-full" if gammas is None else "exact-sampled"
    gammas = list(dict.fromkeys(_all_gammas(code) if gammas is None else gammas))
    ints, denom = _row_ints(code, gate, [mu.bits ^ g.bits for g in gammas], budget)
    return GenCoeffRow(gammas, ints, denom, gate.level, exactness)


# ----------------------------------------------------------------------
# preservation


@dataclass(frozen=True)
class PreservationResult:
    preserved: bool
    norm: Cyclo | None  # exact trivial-row norm when computed
    method: str  # "coefficient-norm" | "low-degree"
    # the exact-full trivial row behind a coefficient-norm verdict
    row: GenCoeffRow | None = field(default=None, repr=False, compare=False)
    # behind a low-degree verdict: D (``low_degree_bound``) and the
    # certificate's point count (``_point_count``); a rejection may stop
    # at the first point that fails
    degree: int | None = None
    points: int | None = None


def low_degree_bound(gate: DiagonalGate) -> int:
    """D of ``_low_degree``: L - v2(slope) for a weight-affine gate, the
    highest block level for a block product, L for other quadratic forms."""
    if gate.weight_affine is not None:
        _, slope, level = gate.weight_affine
        return level - hierarchy._v2(slope, level)
    if isinstance(gate, BlockProductGate):
        polys = (hierarchy.phase_polynomial(d.exps, d.b, d.level) for _, d in gate.blocks)
        return max(map(hierarchy.level, polys), default=0)
    return gate.level


def _point_count(dim: int, weights: range) -> int:
    """sum_{s in weights} C(dim, s): the points that ``_walk`` evaluates
    over dim rows."""
    return sum(comb(dim, s) for s in weights)


def _check_points(dim: int, weights: range, budget: int, what: str) -> None:
    """Refuse more points (``_point_count``) than the budget."""
    points = _point_count(dim, weights)
    if points > budget:
        raise BudgetExceeded(
            f"{what}: {points} points of weight <= {weights.stop - 1}",
            required_log2=(points - 1).bit_length(),
        )


def _walk(
    gate: DiagonalGate, n: int, head: list[int], logical: list[int],
    u0: int, v0: int, weights: range,
) -> tuple[BitVec, BitVec] | None:
    """The first point where the gate's exponents at u = u0 ^ c and
    v = v0 ^ c' differ, as (u, v), else None.  c runs over the XORs of the
    s-subsets of the rows head + logical, s in ``weights``, and c' keeps
    the ``logical`` rows of c: each of them carries a copy of itself above
    the word.  The classes come from one enumerator
    (``gf2._weight_classes``), in the order it lists them."""
    words = gf2._num_words(n)
    rows = head + [b | b << 64 * words for b in logical]
    exps = _word_exponents(gate)
    u0, v0 = gf2.int_words(u0, n), gf2.int_words(v0, n)
    classes = gf2._weight_classes(rows, [], 64 * words + n)
    for blocks in itertools.islice(classes, weights.start, weights.stop):
        for block in blocks:
            u, v = block[:, :words] ^ u0, block[:, words:] ^ v0
            fails = exps(u) != exps(v)
            if fails.any():
                i = int(fails.argmax())
                return tuple(
                    BitVec(n, int.from_bytes(w[i].astype("<u8").tobytes(), "little"))
                    for w in (u, v)
                )
    return None


def _complement(code: CssCode) -> list[int]:
    """The rows of a complement of C2 in C1 that the walks read: the one a
    growth step carried to the code, else the frame's X-logicals."""
    rows = code._caches.get("complement")
    return code.frame.x_logical_basis.row_ints() if rows is None else rows


def _replaced_row(code: CssCode, x0: BitVec) -> int:
    """Index of the first row of ``_complement(code)`` in the expansion of
    x0 (in C1, not in C2) modulo C2: x0 may replace that row in a basis of
    C1.  Each reduced row carries its index as a tag above bit n, so one
    elimination of the rows and one reduction of x0 leave x0's expansion
    in the tag bits.  On the frame's X-logicals the expansion's bits are
    x0's pairings with the frame's Z-logicals, so the row is the one that
    mu0 pairs with."""
    n, red = code.n, code.c2_reducer
    tagged = (red.reduce_int(r) | 1 << (n + i) for i, r in enumerate(_complement(code)))
    rows, pivots = gf2._rref_ints(tagged)
    x = red.reduce_int(x0.bits)
    for row, p in zip(rows, pivots):
        if x >> p & 1:
            x ^= row
    tags = x >> n
    return (tags & -tags).bit_length() - 1


def _low_degree(
    code: CssCode,
    gate: DiagonalGate,
    budget: int,
    step: tuple[CssCode, BitVec, bool] | None = None,
) -> tuple[BitVec, BitVec] | None:
    """Exact preservation test on the span points of weight at most D:
    None when the code is preserved, else the first point that fails.

    With C1 words y ^ sum_i a_i b_i over a basis of C1 (X-stabilizer rows,
    then the rows of a complement of C2, ``_complement``) and e(a) the
    gate's exponent mod 2^L, the code is preserved iff e is constant on
    every coset x_beta + C2 + y, that is iff F(a) = e(a) - e(a') vanishes,
    where a' keeps only the complement's bits of a.  Any complement of C2
    in C1 serves.

    Degree: in a monomial c u_S of the gate's phase polynomial put
    u_q = (1 - s_q)/2 with s_q = +-prod_{i : b_iq = 1} (1 - 2 a_i).  Then
    c u_S = c 2^-|S| sum_{R in S} (-1)^|R| prod_{q in R} s_q, whose
    coefficient on a_U is c 2^(|U| - |S|) times an integer and vanishes
    mod 2^L once |U| > |S| + L - 1 - v2(c), the monomial's level in
    ``hierarchy.level``.  So F has degree at most D (``low_degree_bound``;
    u R u^T has the monomials R_ii u_i and 2 R_ij u_i u_j, of level <= L).

    Moebius step: F = sum_U f_U a_U over Z/2^L with
    f_U = sum_{T in U} (-1)^(|U| - |T|) F(1_T), so if F vanishes on the
    points of weight <= D, so does every f_U with |U| <= D, the degree
    bound removes the rest, and F vanishes everywhere.

    The points are the XORs of s-subsets of the basis rows, s = 1..D
    (``_walk``).  A failing point is returned as the words u = y ^ c and
    v = y ^ c' of one coset, c' the complement part of c: u ^ v lies in C2
    and the gate's exponents at u and v differ.

    ``step = (parent, word, added)`` names ``code`` as the parent less the
    Z-stabilizer paired with ``word``, or, if ``added``, with ``word``
    added as an X-stabilizer.  From a parent memoized as preserved
    F = b H, b the new row's coordinate, since F vanishes at b = 0 (the
    parent's F); H has degree at most D - 1, so its points of weight at
    most D - 1 decide.  A removal walks u = y ^ w0 ^ c, v = y ^ w0 ^ c'
    over the parent's basis rows at weights 1..D - 1.  An addition walks
    u = y ^ x0 ^ c, v = y ^ c over L' (the parent's complement less the
    row that x0 replaces, ``_replaced_row``) at weights 0..D - 1: e is
    already constant on the parent's cosets, so H does not depend on the
    stabilizer rows.  The code keeps its complement (the parent's plus
    w0, or L') for later walks.  A step has no more points than the full
    certificate: sum_{s<D} C(d, s) <= sum_{s<=D} C(d + 1, s) for a
    removal, sum_{s<D} C(k - 1, s) <= sum_{1<=s<=D} C(dim C1, s) for an
    addition.  The verdict goes into the code's memo (``_record_verdict``);
    refused when the walk's point count exceeds the budget.
    """
    _check_gate(code, gate)
    top, y = low_degree_bound(gate), code.y.bits
    # full certificate: its complement may build the frame, so it is read past the budget
    head, logical, u0, v0, weights = code.x_stab.row_ints(), None, y, y, range(1, top + 1)
    if step is not None and _recorded_verdict(step[0], gate):
        parent, word, added = step
        u0 = v0 = y ^ word.bits
        if not added:
            head, logical, weights = parent.x_stab.row_ints(), _complement(parent), range(1, top)
        else:
            head, logical, v0, weights = [], list(_complement(parent)), y, range(top)
            del logical[_replaced_row(parent, word)]
    dim = code.dim_c1 if logical is None else len(head) + len(logical)
    _check_points(dim, weights, budget, "low-degree certificate")
    if logical is None:
        point = _walk(gate, code.n, head, _complement(code), u0, v0, weights)
    else:
        point = _walk(gate, code.n, head, logical, u0, v0, weights)
        code._caches["complement"] = logical if added else logical + [word.bits]
    _record_verdict(code, gate, point is None)
    return point


def _record_verdict(code: CssCode, gate: DiagonalGate, preserved: bool) -> None:
    """Memoize an exact verdict under the span table's key."""
    code._caches.setdefault("verdicts", {})[gate.weight_affine or gate] = preserved


def _recorded_verdict(code: CssCode, gate: DiagonalGate) -> bool | None:
    """The memoized verdict, None if none was recorded."""
    return code._caches.get("verdicts", {}).get(gate.weight_affine or gate)


def is_preserved(
    code: CssCode,
    gate: DiagonalGate,
    budget: int = gf2.DEFAULT_BUDGET,
) -> PreservationResult:
    """Exact preservation decision.

    Codes whose full trivial row fits the row cap and the budget get its
    norm (preserved iff it equals one), and the result carries the row it
    summed, so callers need not compute it again.  Every other code is
    decided by the low-degree test (``_low_degree``), which is equivalent;
    the result then records its degree bound D and its point count.
    The verdict, exact at any budget and on either route, is memoized per
    code under the span table's key; the result is computed on every call.
    """
    _check_gate(code, gate)
    res: PreservationResult | None = None
    norm_exc: BudgetExceeded | None = None
    if 1 << code.k <= _ROW_CAP:
        try:
            row = trivial_row(code, gate, budget=budget)
            norm = row.norm()
            res = PreservationResult(norm == ONE, norm, "coefficient-norm", row=row)
        except BudgetExceeded as exc:
            norm_exc = exc
    if res is None:
        try:
            preserved = _low_degree(code, gate, budget) is None
        except BudgetExceeded as exc:
            raise norm_exc or exc
        top = low_degree_bound(gate)
        res = PreservationResult(
            preserved, None, "low-degree", degree=top,
            points=_point_count(code.dim_c1, range(1, top + 1)),
        )
    _record_verdict(code, gate, res.preserved)
    return res


# ----------------------------------------------------------------------
# induced logical diagonal


@dataclass(frozen=True)
class LogicalDiagonal:
    """The trivial-syndrome logical operator in the code's logical frame:
    entry beta is zeta_{2^level}^E(beta), E = ``poly``."""

    k: int
    level: int
    poly: hierarchy.PhasePolynomial
    frame: LogicalFrame

    @cached_property
    def exps(self) -> tuple[int, ...]:
        """E at every beta, built when read."""
        return tuple(self.poly.exponents())


def induced_logical(
    code: CssCode,
    gate: DiagonalGate,
    budget: int = gf2.DEFAULT_BUDGET,
) -> LogicalDiagonal:
    """The logical diagonal induced on a preserved code, in its frame.

    The gate is constant on every coset x_beta + C2 + y of a preserved
    code, so E(beta) is its exponent at y ^ x_beta.  By the degree proof of
    ``_low_degree`` E has degree at most D (both read ``low_degree_bound``),
    so the beta of weight <= D fix its ANF.  The verdict is the memo that
    ``is_preserved`` or ``_low_degree`` left, else ``is_preserved``'s; more
    points than the budget are refused.
    """
    _check_gate(code, gate)
    preserved = _recorded_verdict(code, gate)
    if preserved is None:
        preserved = is_preserved(code, gate, budget).preserved
    if not preserved:
        raise NotPreserved("code is not preserved")
    k, top, words = code.k, low_degree_bound(gate), gf2._num_words(code.n)
    _check_points(k, range(top + 1), budget, "induced logical")
    rows = enumerate(code.frame.x_logical_basis.row_ints())
    tagged = [b | 1 << (64 * words + i) for i, b in rows]
    classes = gf2._weight_classes(tagged, [], 64 * words + k)
    pts = np.concatenate([b for c in itertools.islice(classes, top + 1) for b in c])
    exps = _word_exponents(gate)(pts[:, :words] ^ gf2.int_words(code.y.bits, code.n))
    poly = hierarchy.low_degree_phase_polynomial(pts[:, words:], exps, k, gate.level)
    return LogicalDiagonal(k, gate.level, poly, code.frame)


# ----------------------------------------------------------------------
# split quantities


def split_values(
    code: CssCode,
    gate: DiagonalGate,
    w0: BitVec,
    gammas: Sequence[BitVec] | None = None,
    budget: int = gf2.DEFAULT_BUDGET,
) -> dict[BitVec, Cyclo]:
    """The per-logical split quantities attached to a new X-logical w0:

        s(gamma) = |C1|^-1 sum_{u in C1 + w0} (-1)^(gamma.u) d(u ^ y).

    Splitting a coefficient A into the two coefficients of the code with w0
    adjoined gives (A + s)/2 and (A - s)/2, so each value is read as the
    difference of those two coefficients on the split code (one dimension
    more of C1), from its span table or its Z side.
    """
    _check_gate(code, gate)
    if w0.n != code.n:
        raise ValueError("w0 must have length n")
    # C1 = (C1-perp)-perp: w0 lies in C1 iff it pairs evenly with every Z row
    if not any((w0.bits & z).bit_count() & 1 for z in code.z_stab.row_ints()):
        raise ValueError("w0 lies in C1: removal would not create a new logical")
    _check_gammas(code, gammas)
    if gammas is None:
        gammas = _all_gammas(code)
    new_z, gamma0 = gf2.restrict_to_hyperplane(code.z_stab, w0)
    split_code = CssCode._grown(code, code.x_stab, new_z, code.y)
    svals = [g.bits for g in gammas]
    ints, denom = _row_ints(
        split_code, gate, svals + [s ^ gamma0.bits for s in svals], budget
    )
    # s is itself 2^-dim C1 times a signed sum of 2^dim C1 roots of unity,
    # so the difference stays within the rows' bound (see _sum_z_rows)
    diff = ints[: len(svals)] - ints[len(svals) :]
    return {g: Cyclo(gate.level, v, denom) for g, v in zip(gammas, diff.tolist())}
