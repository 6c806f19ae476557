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
array e_j of the gate at y ^ c_j (``gates.span_exponents``).  Reshaped to
(2^k, 2^dim C2) that array is the induced-diagonal scan, and with
t(s)_i = b_i . s every coefficient is

    A(s) = 2^-dim C1 sum_j (-1)^(j . t(s)) zeta^(e_j).

That sum is read coset by coset.  Split t(s) = sigma | alpha << dim C2:
the sign's syndrome part sigma acts within each coset row and its logical
part alpha across the rows, so a row of coefficients is one signed sum
per residue channel and coset for each sigma it touches, then one
transform over the k logical bits, gathered at alpha.  The whole table is
decided on the cosets themselves (``whole_table_check``).
The Z side is the independent check: a signed weight
enumerator for transversal rotations, and for every other gate a walk over
C1perp, held as a word array once per code, that reads f(z) from the
gate's Pauli factor tables (``gates.pauli_factors``, built once per gate
and apart from the X-side table) and multiplies them in Z[zeta] on integer
arrays.

Rows are integer arrays first: both sides hand back the coefficient
vectors on zeta^0..zeta^(2^(L-1)-1) over one power-of-two denominator, a
row's norm folds their Gram matrix into one ring element, and an entry
becomes an exact ring element only when it is read.

Preservation is the trivial row's norm while the row fits the row cap and
the budget, and otherwise the low-degree test (``_low_degree``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb
from typing import Sequence

import numpy as np

from . import gf2, hierarchy
from .csscode import CssCode, LogicalFrame
from .cyclo import ONE, Cyclo
from .errors import BudgetExceeded, NotPreserved
from .gates import (
    BlockProductGate,
    DiagonalGate,
    pauli_factors,
    residue_channels,
    span_exponents,
    weight_affine_form,
    _block_pauli_table,
    _word_exponents,
)
from .gf2 import BitVec

# generic Z-side walks past this many words are refused: each holds a
# row of 2^(L-1) integers per factor product
_PY_SPAN_CAP = 1 << 16
_ROW_CAP = 1 << 12  # above this, preservation comes from the low-degree test


# ----------------------------------------------------------------------
# cached powers


@lru_cache(maxsize=None)
def _rot_powers(local, n: int) -> tuple[tuple[Cyclo, ...], tuple[Cyclo, ...]]:
    """Powers of the two single-qubit Pauli coefficients of a uniform
    rotation block, cached per block."""
    table = _block_pauli_table(local)
    f0, f1 = table[0], table[1]
    p0 = [ONE]
    p1 = [ONE]
    for _ in range(n):
        p0.append(p0[-1] * f0)
        p1.append(p1[-1] * f1)
    return tuple(p0), tuple(p1)


# ----------------------------------------------------------------------
# the C1-span table


class _SpanTable:
    """One diagonal gate over the C1 span of one code.

    ``exps[j]`` is the gate's exponent at y ^ c_j, where c_j combines the
    basis rows named by the bits of j: first the m = dim C2 X-stabilizer
    rows, then the k X-logical rows, so ``cosets[beta]`` is the coset
    x_beta + C2 + y.  Residues j and j + 2^(L-1) form the signed channel of
    zeta^j.  The Walsh-Hadamard transform over C1 factorizes along that
    order, H_dim = H_k (x) H_m, so every coefficient is read coset by
    coset: signed channel sums over each coset (``coset_sums``), then a
    transform over the k logical bits (``row``).
    """

    def __init__(self, code: CssCode, gate: DiagonalGate):
        self.level = gate.level
        self.n = code.n
        basis = code.x_stab.row_ints() + code.frame.x_logical_basis.row_ints()
        self.t_map = gf2.parity_map(basis, code.n)
        self.dim = len(basis)
        self.m = code.dim_c2
        self.exps = span_exponents(gate, basis, code.y.bits)
        self.cosets = self.exps.reshape(-1, 1 << self.m)

    @cached_property
    def channels(self) -> list[int]:
        """The residue channels the exponents fill, counted when a row is
        first read."""
        return residue_channels(self.exps, self.level)

    def coset_sums(self, sigma: int, channels: Sequence[int]) -> np.ndarray:
        """(len(channels), 2^k) int64 array whose entry [c, beta] is
        sum_j (-1)^(sigma . j) ([e_j = i] - [e_j = i + 2^(L-1)]) over the
        coset row j of ``cosets[beta]``, i = channels[c].

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


def _sum_z_side(
    code: CssCode, gate: DiagonalGate, shift: int, budget: int
) -> tuple[np.ndarray, int]:
    """sum_{z in C1perp + shift} (-1)^(z.y) f(z), exact, as its integer
    coefficients on zeta^0..zeta^(2^(L-1)-1) and their denominator
    exponent.

    Transversal rotations sum their per-weight Pauli coefficients against
    the signed weight enumerator.  Every other gate reads f from its Pauli
    factor tables (``gates.pauli_factors``): the words of C1perp + shift
    gather each factor's rows by their bits, the rows multiply in Z[zeta]
    on integer arrays, and the signed sum is one integer vector.
    """
    basis = code.z_stab.row_ints()
    dim = len(basis)
    n, y = code.n, code.y.bits
    affine = weight_affine_form(gate)
    if affine is not None and isinstance(gate, BlockProductGate):
        counts_w = gf2.signed_weight_counts(basis, shift, y, n, budget)
        p0, p1 = _rot_powers(gate.blocks[0][1], n)
        acc = Cyclo.zero()
        for w, c in enumerate(counts_w):
            if c:
                acc = acc + p0[n - w] * p1[w] * c
        if (shift & y).bit_count() & 1:
            acc = -acc
        return np.array(acc.promote(gate.level).coeffs, dtype=object), acc.denom_exp
    if 1 << dim > min(budget, _PY_SPAN_CAP):
        raise BudgetExceeded(f"2^{dim} Z-side walk", required_log2=dim)
    factors = pauli_factors(gate, budget)
    words, parity = _c1perp_words(code)
    covered = sum(1 << q for f in factors for q in f.qubits)
    z = words ^ gf2.int_words(shift, n)
    # a label with a set bit on an uncovered qubit has f = 0
    keep = ~(z & gf2.int_words(((1 << n) - 1) ^ covered, n)).any(axis=1)
    bits = gf2.word_bits(z[keep], n)
    odd = parity[keep] ^ bool((shift & y).bit_count() & 1)
    # Bound: a factor row is a sum of 2^b signed powers of zeta, so its
    # absolute values sum to at most 2^b.  That sum is submultiplicative
    # under the product in Z[zeta], so a word's product row sums to at most
    # 2^width.  Every integer formed below, in _ring_times or over the
    # words, is a signed sum of terms of at most 2^dim such products, so
    # its absolute value is at most 2^(width + dim): int64 holds it while
    # width + dim <= 62
    width = sum(len(f.qubits) for f in factors)
    dtype = np.int64 if width + dim <= 62 else object
    acc = np.zeros((len(bits), 1 << (gate.level - 1)), dtype=dtype)
    acc[:, 0] = 1
    for f in factors:
        idx = bits[:, list(f.qubits)] @ (1 << np.arange(len(f.qubits)))
        acc = _ring_times(acc, f.table[idx].astype(dtype), f.channels)
    return acc[~odd].sum(axis=0) - acc[odd].sum(axis=0), width


def _sum_z_rows(
    code: CssCode, gate: DiagonalGate, svals: Sequence[int], budget: int
) -> tuple[np.ndarray, int]:
    """The Z side for every s in svals, on the largest of their
    denominators.  A coefficient over 2^d has absolute values summing to at
    most 2^d (it is 2^-dim C1 times a signed sum of 2^dim C1 roots of unity,
    and the power basis represents it uniquely), so int64 holds the rows
    while d <= 62."""
    parts = [_sum_z_side(code, gate, s, budget) for s in svals]
    denom = max((d for _, d in parts), default=0)
    rows = [[x << (denom - d) for x in v.tolist()] for v, d in parts]
    dtype = np.int64 if denom <= 62 else object
    return np.array(rows, dtype=dtype).reshape(len(rows), 1 << (gate.level - 1)), denom


def _side_order(code: CssCode) -> list[str]:
    return ["x", "z"] if code.dim_c1 <= code.dim_c1perp else ["z", "x"]


def _row_ints(
    code: CssCode, gate: DiagonalGate, svals: Sequence[int], budget: int
) -> tuple[np.ndarray, int]:
    """The coefficients A at every s = mu ^ gamma in svals as an
    (N, 2^(L-1)) integer array over one denominator 2^denom, returned with
    denom; the cheaper side first."""
    if not svals:
        return np.zeros((0, 1 << (gate.level - 1)), dtype=np.int64), 0
    last_exc: BudgetExceeded | None = None
    for side in _side_order(code):
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
    of 2^denom A(mu ^ gammas[i]), L = ``level``.  ``entries``, ``values()``
    and ``to_json()`` build the ring elements when first read; ``norm()``
    builds one.
    """

    code: CssCode
    mu: BitVec
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


def _all_gammas(code: CssCode) -> list[BitVec]:
    """Every Z-logical in frame order, refused above the row cap."""
    if 1 << code.k > _ROW_CAP:
        raise BudgetExceeded(
            f"full row has 2^{code.k} entries; pass an explicit gamma subset",
            required_log2=code.k,
        )
    # binary order is frame order: bit a of the index selects basis row a
    basis = code.frame.z_logical_basis.row_ints()
    return [BitVec(code.n, g) for g in gf2.span_ints(basis)]


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
    if not code.c2perp_reducer.contains(gamma):
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
    _check_gate(code, gate)
    for g in gammas or ():
        if not code.c2perp_reducer.contains(g):
            raise ValueError(f"gamma {g.to01()} is not in C2-perp")
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
    if gammas is None:
        gammas = _all_gammas(code)
        exactness = "exact-full"
    else:
        exactness = "exact-sampled"
    gammas = list(dict.fromkeys(gammas))
    ints, denom = _row_ints(code, gate, [mu.bits ^ g.bits for g in gammas], budget)
    return GenCoeffRow(code, mu, gammas, ints, denom, gate.level, exactness)


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


def _point_count(dim: int, top: int) -> int:
    """sum_{s = 1..D} C(dim C1, s): the span points that ``_low_degree``
    evaluates, those of weight 1..D over the dim C1 basis rows."""
    return sum(comb(dim, s) for s in range(1, top + 1))


def _low_degree(code: CssCode, gate: DiagonalGate, budget: int) -> bool:
    """Exact preservation test on the span points of weight at most D.

    With C1 words y ^ sum_i a_i b_i over the span table's basis
    (X-stabilizer rows, then X-logical rows) and e(a) the gate's exponent
    mod 2^L, the code is preserved iff e is constant on every coset
    x_beta + C2 + y, that is iff F(a) = e(a) - e(a') vanishes, where a'
    keeps only the logical bits of a.

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
    (``gf2._weight_class``); each logical row carries a copy of itself
    above the word, so a point holds the word and its logical part.
    Refused when sum_{s <= D} C(dim C1, s) exceeds the budget.
    """
    dim, top = code.dim_c1, low_degree_bound(gate)
    points = _point_count(dim, top)
    if points > budget:
        raise BudgetExceeded(
            f"low-degree certificate: {points} points of weight <= {top}",
            required_log2=(points - 1).bit_length(),
        )
    words = gf2._num_words(code.n)
    rows = code.x_stab.row_ints()
    rows += [b | b << 64 * words for b in code.frame.x_logical_basis.row_ints()]
    exps, y = _word_exponents(gate), gf2.int_words(code.y.bits, code.n)
    for s in range(1, min(top, dim) + 1):
        for block in gf2._weight_class(rows, [], s, 64 * words + code.n):
            if (exps(block[:, :words] ^ y) != exps(block[:, words:] ^ y)).any():
                return False
    return True


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
    """
    _check_gate(code, gate)
    norm_exc: BudgetExceeded | None = None
    if 1 << code.k <= _ROW_CAP:
        try:
            row = trivial_row(code, gate, budget=budget)
            norm = row.norm()
            return PreservationResult(norm == ONE, norm, "coefficient-norm", row=row)
        except BudgetExceeded as exc:
            norm_exc = exc
    try:
        preserved = _low_degree(code, gate, budget)
    except BudgetExceeded as exc:
        raise norm_exc or exc
    top = low_degree_bound(gate)
    return PreservationResult(
        preserved, None, "low-degree", degree=top, points=_point_count(code.dim_c1, top)
    )


# ----------------------------------------------------------------------
# induced logical diagonal


@dataclass(frozen=True)
class LogicalDiagonal:
    """Diagonal of the trivial-syndrome logical operator in the code's
    logical frame: entry at beta is zeta_{2^level}^exps[beta]."""

    k: int
    level: int
    exps: tuple[int, ...]
    frame: LogicalFrame


def _codeword_diagonal(
    code: CssCode, gate: DiagonalGate, budget: int
) -> tuple[bool, list[int] | None, tuple[int, Cyclo] | None]:
    """Induced-diagonal scan via codeword sums:
    entry(beta) = 2^-m sum_{x in C2} d(beta.Gx ^ x ^ y).

    A mean of 2^m roots of unity has modulus one only when all its terms
    are equal (triangle inequality), so the span table decides each row by
    comparing it with its first column.
    Returns (all_unimodular, exponents at gate level or None, witness).
    """
    k, m = code.k, code.dim_c2
    if k + m > 26 or (1 << (k + m)) > budget * 4:
        raise BudgetExceeded(
            f"2^{k + m} codeword scan", required_log2=k + m
        )
    rows = _span_table(code, gate).cosets
    first = rows[:, 0]
    uneven = np.flatnonzero((rows != first[:, None]).any(axis=1))
    if not uneven.size:
        return True, first.tolist(), None
    beta = int(uneven[0])
    counts = np.bincount(rows[beta], minlength=1 << gate.level).tolist()
    return False, None, (beta, Cyclo.from_root_counts(gate.level, counts, m))


def logical_diagonal_exponents(
    code: CssCode, gate: DiagonalGate, budget: int = gf2.DEFAULT_BUDGET
) -> list[int]:
    """Exponents (at the gate's level) of the induced logical diagonal,
    computed from codeword sums.  Raises NotPreserved when the diagonal is
    not unitary."""
    ok, exps, witness = _codeword_diagonal(code, gate, budget)
    if not ok:
        raise NotPreserved(f"code is not preserved; witness entry {witness}")
    assert exps is not None
    return exps


def induced_logical(
    code: CssCode,
    gate: DiagonalGate,
    budget: int = gf2.DEFAULT_BUDGET,
) -> LogicalDiagonal:
    """The logical diagonal induced on a preserved code, with exact
    root-of-unity entries in the code's logical frame."""
    _check_gate(code, gate)
    exps = logical_diagonal_exponents(code, gate, budget)
    return LogicalDiagonal(code.k, gate.level, tuple(exps), code.frame)


def whole_table_check(
    code: CssCode,
    gate: DiagonalGate,
    exps: Sequence[int],
    budget: int = gf2.DEFAULT_BUDGET,
) -> tuple[bool, bool]:
    """(trivial, null) for the whole coefficient table against the diagonal
    zeta^exps[beta], decided exactly on the span table's cosets.

    Column t = sigma | alpha << m (m = dim C2) of the transform over C1
    holds 2^dim C1 A(s) for the s of X-syndrome sigma that pair with the
    X-logicals as alpha, so t(g(alpha)) = alpha << m.  The basis order
    makes that transform H_k (x) H_m: column t is the transform over beta
    (H_k, at alpha) of each coset's signed sum sum_j (-1)^(sigma . j)
    zeta^(e_j) (H_m, at sigma), and H_k and H_m are invertible.

    null: every column with sigma != 0 is zero.  By H_k, that holds iff
    every coset's H_m transform vanishes off sigma = 0, and by H_m iff
    every coset row is constant, which holds iff the code is preserved.

    trivial: every A(g(alpha)) equals 2^-k sum_beta (-1)^(alpha.beta)
    zeta^exps[beta].  By H_k, that holds iff every coset sums to
    2^m zeta^exps[beta], and a sum of 2^m roots of unity has modulus 2^m
    only when all its terms are equal (triangle inequality), so iff every
    exponent of coset beta is exps[beta].  Refused when the table
    (2^dim C1) does not fit the budget.
    """
    _check_gate(code, gate)
    k, dim = code.k, code.dim_c1
    if len(exps) != 1 << k:
        raise ValueError(f"need 2^{k} diagonal exponents, got {len(exps)}")
    if 1 << dim > budget:
        raise BudgetExceeded(f"2^{dim} coset enumeration", required_log2=dim)
    rows = _span_table(code, gate).cosets
    diag = np.asarray(exps, dtype=np.int64)
    return bool((rows == diag[:, None]).all()), bool((rows == rows[:, :1]).all())


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
    if code.c1_reducer.contains(w0):
        raise ValueError("w0 lies in C1: removal would not create a new logical")
    if gammas is None:
        gammas = _all_gammas(code)
    new_z, gamma0 = gf2.restrict_to_hyperplane(code.z_stab, w0)
    split_code = CssCode(code.n, code.x_stab, new_z, code.y)
    svals = [g.bits for g in gammas]
    ints, denom = _row_ints(
        split_code, gate, svals + [s ^ gamma0.bits for s in svals], budget
    )
    # s is itself 2^-dim C1 times a signed sum of 2^dim C1 roots of unity,
    # so the difference stays within the rows' bound (see _sum_z_rows)
    diff = ints[: len(svals)] - ints[len(svals) :]
    return {g: Cyclo(gate.level, v, denom) for g, v in zip(gammas, diff.tolist())}
