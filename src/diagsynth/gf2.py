"""GF(2) linear algebra on packed-integer bit vectors.

A length-n binary vector is stored as a Python int with bit q holding
qubit q, so qubit 0 is the lowest bit.  In string form qubit 0 is the
leftmost character: ``BitVec.from_string("0110")`` has support {1, 2}.
Python ints give free wide XOR and popcount; enumeration-heavy kernels
hold a span as numpy uint64 words, ceil(n/64) per element, at every n.
The distance search is one Brouwer-Zimmermann enumeration on such arrays
at every n: rounds raise a lower bound until the lightest word meets it.
A canonical basis is the reduced echelon form with each pivot at its row's
lowest bit; duals, hyperplane restrictions and reductions read their
canonical output off that structure rather than eliminating again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, LengthMismatch

DEFAULT_BUDGET = 1 << 26
_NUMPY_SPAN_MIN = 1 << 12  # below this a plain Python loop is cheaper


class BitVec:
    """Immutable binary vector of fixed length n."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise ValueError("negative length")
        if bits < 0 or bits >> n:
            raise ValueError(f"bits out of range for length {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("BitVec is immutable")

    @classmethod
    def zeros(cls, n: int) -> "BitVec":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BitVec":
        return cls(n, (1 << n) - 1)

    @classmethod
    def unit(cls, n: int, q: int) -> "BitVec":
        return cls(n, 1 << q)

    @classmethod
    def from_string(cls, s: str) -> "BitVec":
        if set(s) - {"0", "1"}:
            raise ValueError(f"not a bitstring: {s!r}")
        bits = 0
        for q, ch in enumerate(s):
            if ch == "1":
                bits |= 1 << q
        return cls(len(s), bits)

    @classmethod
    def from_bits(cls, seq: Iterable[int]) -> "BitVec":
        bits = 0
        n = 0
        for q, b in enumerate(seq):
            if b & 1:
                bits |= 1 << q
            n = q + 1
        return cls(n, bits)

    @classmethod
    def from_support(cls, n: int, support: Iterable[int]) -> "BitVec":
        bits = 0
        for q in support:
            bits |= 1 << q
        return cls(n, bits)

    def _check(self, other: "BitVec") -> None:
        if self.n != other.n:
            raise LengthMismatch(f"length {self.n} vs {other.n}")

    def __xor__(self, other: "BitVec") -> "BitVec":
        self._check(other)
        return BitVec(self.n, self.bits ^ other.bits)

    def __and__(self, other: "BitVec") -> "BitVec":
        self._check(other)
        return BitVec(self.n, self.bits & other.bits)

    def dot(self, other: "BitVec") -> int:
        """Inner product mod 2."""
        self._check(other)
        return (self.bits & other.bits).bit_count() & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def bit(self, q: int) -> int:
        return (self.bits >> q) & 1

    __getitem__ = bit

    def support(self) -> tuple[int, ...]:
        return tuple(q for q in range(self.n) if (self.bits >> q) & 1)

    def concat(self, other: "BitVec") -> "BitVec":
        """[self, other]: self occupies qubits 0..n-1, other the rest."""
        return BitVec(self.n + other.n, self.bits | (other.bits << self.n))

    def to01(self) -> str:
        return "".join("1" if (self.bits >> q) & 1 else "0" for q in range(self.n))

    def __len__(self) -> int:
        return self.n

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVec) and self.n == other.n and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"BitVec('{self.to01()}')"


class BitMat:
    """Immutable ordered list of equal-length rows, used as a code basis."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Sequence[BitVec] = ()):
        rows = tuple(rows)
        if n <= 0 and rows:
            n = rows[0].n
        if n <= 0:
            raise ValueError("matrix needs a positive length")
        for r in rows:
            if r.n != n:
                raise LengthMismatch(f"row length {r.n} vs {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("BitMat is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[BitVec], n: int | None = None) -> "BitMat":
        if n is None:
            if not rows:
                raise ValueError("cannot infer length from empty rows")
            n = rows[0].n
        return cls(n, rows)

    @classmethod
    def from_strings(cls, strings: Sequence[str], n: int | None = None) -> "BitMat":
        rows = [BitVec.from_string(s) for s in strings]
        return cls.from_rows(rows, n)

    @classmethod
    def empty(cls, n: int) -> "BitMat":
        return cls(n, ())

    @classmethod
    def identity(cls, n: int) -> "BitMat":
        return cls(n, [BitVec.unit(n, q) for q in range(n)])

    def row_ints(self) -> list[int]:
        return [r.bits for r in self.rows]

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[BitVec]:
        return iter(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, BitMat) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"BitMat({[r.to01() for r in self.rows]})"


def _lsb(x: int) -> int:
    return (x & -x).bit_length() - 1


def _rref_ints(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form over GF(2).  Returns (rows, pivots), both
    sorted by ascending pivot column."""
    pivrows: dict[int, int] = {}
    for r in rows:
        cur = r
        while cur:
            p = (cur & -cur).bit_length() - 1
            if p in pivrows:
                cur ^= pivrows[p]
            else:
                pivrows[p] = cur
                break
    pivots = sorted(pivrows)
    # Back-eliminate from the highest pivot down.  Rows above p are already
    # reduced and have no bits below their own pivot, so adding one clears
    # exactly its pivot bit in row p: only the set bits of p's row in the
    # higher pivot columns need a visit.
    above = 0
    for p in reversed(pivots):
        row = pivrows[p]
        hits = row & above
        while hits:
            low = hits & -hits
            row ^= pivrows[low.bit_length() - 1]
            hits ^= low
        pivrows[p] = row
        above |= 1 << p
    return [pivrows[p] for p in pivots], pivots


def _rref_top_ints(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """``_rref_ints`` with each pivot at its row's highest bit: no other row
    has that bit.  Returns (rows, pivots) sorted by ascending pivot."""
    pivrows: dict[int, int] = {}
    for r in rows:
        cur = r
        while cur:
            p = cur.bit_length() - 1
            if p in pivrows:
                cur ^= pivrows[p]
            else:
                pivrows[p] = cur
                break
    pivots = sorted(pivrows)
    # Mirror image of _rref_ints: rows below p are reduced and have no bits
    # above their own pivot, so each clears exactly its pivot bit in row p.
    below = 0
    for p in pivots:
        row = pivrows[p]
        hits = row & below
        while hits:
            low = hits & -hits
            row ^= pivrows[low.bit_length() - 1]
            hits ^= low
        pivrows[p] = row
        below |= 1 << p
    return [pivrows[p] for p in pivots], pivots


def rref(m: BitMat) -> tuple[BitMat, tuple[int, ...]]:
    """Canonicalize m: independent rows, ascending pivots, idempotent."""
    rows, pivots = _rref_ints(m.row_ints())
    return BitMat(m.n, [BitVec(m.n, r) for r in rows]), tuple(pivots)


def rank(m: BitMat) -> int:
    return len(rref(m)[1])


class Reducer:
    """Canonical-form reducer against a fixed RREF basis.

    Pivot bit p is set only in row p, and adding row p changes no other
    pivot bit, so reducing x adds row p once for each pivot bit p of x:
    the cost is the number of those bits, not the number of rows."""

    __slots__ = ("n", "rows", "pivots", "_mask", "_at")

    def __init__(self, m: BitMat):
        rows, pivots = _rref_ints(m.row_ints())
        self.n = m.n
        self.rows = rows
        self.pivots = tuple(pivots)
        self._mask = sum(1 << p for p in pivots)
        self._at = dict(zip(pivots, rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce_int(self, x: int) -> int:
        hits = x & self._mask
        while hits:
            low = hits & -hits
            x ^= self._at[low.bit_length() - 1]
            hits ^= low
        return x

    def reduce(self, v: BitVec) -> BitVec:
        if v.n != self.n:
            raise LengthMismatch(f"length {v.n} vs {self.n}")
        return BitVec(self.n, self.reduce_int(v.bits))

    def contains_int(self, x: int) -> bool:
        return self.reduce_int(x) == 0

    def contains(self, v: BitVec) -> bool:
        if v.n != self.n:
            raise LengthMismatch(f"length {v.n} vs {self.n}")
        return self.contains_int(v.bits)


def contains(space: BitMat, v: BitVec) -> bool:
    """True iff v lies in the row space of ``space``."""
    return Reducer(space).contains(v)


def _free_columns(rows: Sequence[int], pivots: Sequence[int], n: int) -> list[int]:
    """v_f = 1<<f | sum{1<<p : row p has bit f} for each non-pivot column
    f, ascending, from a reduced echelon form (either end) of m: v_f is
    orthogonal to every row p, which meets it in f and p or in neither."""
    cols = [1 << f for f in range(n)]
    for row, p in zip(rows, pivots):
        bits = row ^ (1 << p)
        while bits:
            low = bits & -bits
            cols[low.bit_length() - 1] |= 1 << p
            bits ^= low
    for p in pivots:
        cols[p] = 0
    return [v for v in cols if v]


def dual_basis(m: BitMat) -> BitMat:
    """Canonical basis of the orthogonal complement {v : m v^T = 0}.

    With m's rows in top-bit form (pivot p is the highest bit of row p and
    in no other row), row p has bit f only for f < p, so v_f's lowest bit
    is f and its other bits sit at pivots of m, never at another free
    column: the v_f, ascending, are already the canonical basis.  From the
    canonical (lowest-bit) form of m instead, v_f's top bit is f and only
    the n - r rows v_f need elimination.  Elimination runs on the smaller
    side: m's rows when m has at most n/2 of them, else the complement's."""
    n = m.n
    ints = m.row_ints()
    if 2 * len(ints) <= n:
        rows, pivots = _rref_top_ints(ints)
        dual_rows = _free_columns(rows, pivots, n)
    else:
        rows, pivots = _rref_ints(ints)
        dual_rows, _ = _rref_ints(_free_columns(rows, pivots, n))
    return BitMat(n, [BitVec(n, r) for r in dual_rows])


def quotient_basis(sup: BitMat, sub: BitMat) -> BitMat:
    """Canonical complement basis of rowspace(sup) modulo rowspace(sub).

    Every returned row is already in canonical coset form (reduced against
    sub), and any GF(2) combination of the rows stays canonical.
    """
    red = Reducer(sub)
    sup_red = Reducer(sup)
    for r in sub.row_ints():
        if not sup_red.contains_int(r):
            raise ValueError("sub is not contained in sup")
    reduced = [red.reduce_int(r) for r in sup_red.rows]
    rows, _ = _rref_ints([r for r in reduced if r])
    return BitMat(sup.n, [BitVec(sup.n, r) for r in rows])


def coset_reps(sup: BitMat, sub: BitMat, budget: int = DEFAULT_BUDGET) -> list[BitVec]:
    """One canonical representative per coset of rowspace(sub) in
    rowspace(sup), ordered by binary counting over the complement basis.
    The representative is the reduction of the coset against sub's RREF;
    the first entry is always 0."""
    comp = quotient_basis(sup, sub)
    k = comp.num_rows
    if 1 << k > budget:
        raise BudgetExceeded(f"2^{k} coset representatives", required_log2=k)
    ints = comp.row_ints()
    reps = [0]
    for i in range(1, 1 << k):
        prev = reps[i ^ (1 << _lsb(i))]
        reps.append(prev ^ ints[_lsb(i)])
    return [BitVec(sup.n, r) for r in reps]


def span_ints(basis: Sequence[int], budget: int = DEFAULT_BUDGET) -> list[int]:
    """All 2^m elements of the span, Gray-free binary order."""
    m = len(basis)
    if 1 << m > budget:
        raise BudgetExceeded(f"2^{m} span enumeration", required_log2=m)
    out = [0]
    for b in basis:
        out.extend([x ^ b for x in out])
    return out


def _num_words(n: int) -> int:
    return max(1, -(-n // 64))


def int_words(x: int, n: int) -> np.ndarray:
    """A length-n vector as ceil(n/64) uint64 words, qubits 0..63 first."""
    return np.array(
        [(x >> (64 * i)) & 0xFFFF_FFFF_FFFF_FFFF for i in range(_num_words(n))],
        dtype=np.uint64,
    )


def int_rows(xs: Sequence[int], n: int) -> np.ndarray:
    """Length-n vectors as a (len(xs), ceil(n/64)) uint64 array: row r
    holds xs[r] in words, qubits 0..63 first."""
    out = np.empty((len(xs), _num_words(n)), dtype=np.uint64)
    for i, col in enumerate(out.T):
        col[:] = [(x >> (64 * i)) & 0xFFFF_FFFF_FFFF_FFFF for x in xs]
    return out


def word_weights(words: np.ndarray) -> np.ndarray:
    """Hamming weight of every row of a (rows, words) uint64 array."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.intp)


def word_bits(words: np.ndarray, n: int) -> np.ndarray:
    """(rows, n) uint8 array whose column q is qubit q of each word row."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, count=n, bitorder="little")


def parity_map(basis: Sequence[int], n: int) -> np.ndarray:
    """The linear map s -> t with t_i = basis[i] . s as byte lookups: a
    (8 ceil(n/64), 256) array whose entry [p, v] is t of the byte v placed
    on qubits 8p..8p+7.  Read it with ``apply_parity_map``."""
    w = _num_words(n)
    bits = word_bits(int_rows(basis, n), 64 * w).astype(np.intp)
    unit = (bits << np.arange(len(basis), dtype=np.intp)[:, None]).sum(axis=0)
    cols = unit.reshape(8 * w, 8)  # t of each single qubit, by byte
    table = np.zeros((8 * w, 256), dtype=np.intp)
    for j in range(8):
        table[:, 1 << j : 2 << j] = table[:, : 1 << j] ^ cols[:, j : j + 1]
    return table


def apply_parity_map(table: np.ndarray, words: np.ndarray) -> np.ndarray:
    """t for every row of a (rows, ceil(n/64)) word array: the XOR of the
    lookups of its bytes."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.bitwise_xor.reduce(table[np.arange(table.shape[0]), raw], axis=1)


def wht_rows(a: np.ndarray) -> None:
    """In-place Walsh-Hadamard transform of every row of a (C, 2^d) array:
    a[:, t] <- sum_j (-1)^(j . t) a[:, j]."""
    h = 1
    while h < a.shape[1]:
        v = a.reshape(a.shape[0], -1, 2, h)
        lo = v[:, :, 0].copy()
        v[:, :, 0] += v[:, :, 1]
        np.subtract(lo, v[:, :, 1], out=v[:, :, 1])
        h <<= 1


def span_words(basis: Sequence[int], n: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Span as a (2^m, ceil(n/64)) uint64 array in binary order: row j
    combines the basis rows named by the bits of j, and column i holds
    qubits 64i..64i+63.  Stored column-major, so each word column is one
    contiguous array."""
    m = len(basis)
    if 1 << m > budget:
        raise BudgetExceeded(f"2^{m} span enumeration", required_log2=m)
    arr = np.zeros((1 << m, _num_words(n)), dtype=np.uint64, order="F")
    size = 1
    for b in basis:
        arr[size : 2 * size] = arr[:size] ^ int_words(b, n)
        size *= 2
    return arr


def signed_weight_counts(
    basis: Sequence[int],
    weight_shifts: Sequence[int],
    sign_mask: int,
    n: int,
    budget: int = DEFAULT_BUDGET,
) -> np.ndarray:
    """Signed weight enumerators of shifted copies of one span.

    Row r of the (len(weight_shifts), n + 1) int64 result is W[w] = sum
    over span elements c of (-1)^{parity(c & sign_mask)} restricted to
    weight(c ^ weight_shifts[r]) == w.  Exact integers.  The span is built
    in rows of at most 2^16 elements, and each row meets the shifts in
    blocks of at most 2^16 words, to bound the memory.  Fewer than
    _NUMPY_SPAN_MIN (shift, element) pairs are counted in Python.  Refused
    when the span (2^m elements) exceeds the budget.
    """
    m = len(basis)
    if 1 << m > budget:
        raise BudgetExceeded(f"2^{m} coset enumeration", required_log2=m)
    if len(weight_shifts) << m < _NUMPY_SPAN_MIN:
        counts = np.zeros((len(weight_shifts), n + 1), dtype=np.int64)
        span = span_ints(basis, budget)
        for row, shift in zip(counts, weight_shifts):
            for c in span:
                row[(c ^ shift).bit_count()] += -1 if (c & sign_mask).bit_count() & 1 else 1
        return counts
    low = span_words(basis[:16], n)
    shifts, mask = int_rows(weight_shifts, n), int_words(sign_mask, n)
    per, bins = max(1, (1 << 16) >> min(m, 16)), 2 * (n + 1)
    counts = np.zeros((len(shifts), bins), dtype=np.int64)
    for word in span_words(basis[16:], n):
        span = low ^ word
        odd = word_weights(span & mask) & 1
        for o in range(0, len(shifts), per):
            block = shifts[o : o + per, None] ^ span
            # bin 2w + odd among the 2(n + 1) bins of the block row's shift
            idx = 2 * np.bitwise_count(block).sum(axis=2, dtype=np.intp) + odd
            idx += np.arange(0, len(block) * bins, bins)[:, None]
            cnt = np.bincount(idx.reshape(-1), minlength=len(block) * bins)
            counts[o : o + per] += cnt.reshape(-1, bins)
    return counts[:, 0::2] - counts[:, 1::2]


def restrict_to_hyperplane(m: BitMat, w0: BitVec) -> tuple[BitMat, BitVec]:
    """Intersect the row space with the hyperplane orthogonal to w0.

    Returns the shrunk canonical basis together with the removed direction,
    reduced to its canonical representative modulo the shrunk basis.
    Raises when every row is already orthogonal to w0.

    On canonical rows, let H be the hot rows (odd pairing with w0) and h
    the top hot pivot.  A combination's lowest bit is its lowest pivot, and
    a combination in the hyperplane holds an even number of hot rows, so
    the hyperplane keeps every pivot but h.  Its canonical basis is the
    other rows with row_h added to each hot one, in pivot order; row_h has
    no bit at any kept pivot, so it is its own reduction."""
    if w0.n != m.n:
        raise LengthMismatch(f"length {w0.n} vs {m.n}")
    rows, _ = _rref_ints(m.row_ints())
    w = w0.bits
    hot = [(r & w).bit_count() & 1 for r in rows]
    if not any(hot):
        raise ValueError("row space is already orthogonal to w0")
    h = max(i for i, odd in enumerate(hot) if odd)
    top = rows[h]
    new_rows = [r ^ top if odd else r for r, odd in zip(rows, hot)]
    del new_rows[h]
    return BitMat(m.n, [BitVec(m.n, r) for r in new_rows]), BitVec(m.n, top)


def invert_matrix(rows: Sequence[int], k: int) -> list[int]:
    """Inverse of an invertible k x k GF(2) matrix given as row ints."""
    if len(rows) != k:
        raise ValueError("matrix must be square")
    aug = [rows[i] | (1 << (k + i)) for i in range(k)]
    reduced, pivots = _rref_ints(aug)
    if list(pivots) != list(range(k)):
        raise ValueError("matrix is singular")
    return [reduced[i] >> k for i in range(k)]


@dataclass(frozen=True)
class WeightResult:
    """Either an exact minimum weight or a lower bound (``exact=False``
    means the true minimum is >= value)."""

    value: int
    exact: bool = True

    def __str__(self) -> str:
        return str(self.value) if self.exact else f">={self.value}"


def _information_sets(rows: Sequence[int], n: int) -> list[tuple[list[int], int]]:
    """Generators (gen, r) of span(rows), each the identity on r pivot
    columns no other entry uses and with gen[r:] zero there.  Used columns
    are shifted above bit n, so the row reduction pivots on unused ones."""
    sets, free = [], (1 << n) - 1
    while True:
        moved, pivots = _rref_ints([g & free | (g & ~free) << n for g in rows])
        r = sum(p < n for p in pivots)
        if not r:
            return sets
        sets.append(([x & free | x >> n for x in moved], r))
        free ^= sum(1 << p for p in pivots[:r])


def _weight_class(head: list[int], tail: list[int], s: int, bits: int) -> Iterator[np.ndarray]:
    """XORs of each s-subset of ``head`` with each subset of ``tail``, as
    word arrays of at most 2^16 rows.  A block adds an (s - q)-subset prefix
    and a Gray-code step in tail[c:] to a table of the q-subsets of head
    times span(tail[:c]); ordered by falling first index, the table's
    subsets past head row a are its first comb(r - a, q) << c rows."""
    r, c = len(head), min(len(tail), 16)
    table = span_words(tail[:c], bits)
    q = 0
    while q < s and comb(r, q + 1) << c <= 1 << 16:
        q += 1
        table = np.concatenate([
            int_words(head[i], bits) ^ table[: comb(r - 1 - i, q - 1) << c]
            for i in range(r - 1, -1, -1)
        ])
    for prefix in itertools.combinations(range(r - q), s - q):
        part = table[: comb(r - 1 - prefix[-1], q) << c] if prefix else table
        base = 0
        for i in prefix:
            base ^= head[i]
        for i in range(1 << (len(tail) - c)):
            if i:
                base ^= tail[c + (i & -i).bit_length() - 1]
            yield part ^ int_words(base, bits)


def min_weight_excluding(
    big: BitMat,
    small: BitMat,
    w_max: int = 6,
    budget: int = DEFAULT_BUDGET,
) -> WeightResult:
    """Minimum Hamming weight over rowspace(big) \\ rowspace(small).

    Brouwer-Zimmermann enumeration (Grassl, "Searching for linear codes
    with large minimum distance", 2006): big, of dimension K, gets
    generators systematic on disjoint column sets, set j of rank r_j.
    Round t lists, on each set with t >= K - r_j, the words of weight
    t - (K - r_j) on its pivot columns; every word not yet listed then
    weighs at least ``sum_j max(0, t + 1 - (K - r_j))``, and the search
    stops, exact, once the lightest word outside small meets that bound.
    Words carry their parities against dual(small) modulo dual(big), which
    all vanish iff the word lies in small.  A round whose entering bound is
    at most ``w_max`` always runs; a later one runs if it fits ``budget``
    with the words listed so far.  If not, the first set is listed to
    weight K (the whole span) when 2^K fits the budget; else the entering
    bound, above w_max, comes back with ``exact=False``.
    """
    if w_max < 1:
        raise ValueError("w_max must be >= 1")
    red_big = Reducer(big)
    if not all(red_big.contains_int(r) for r in small.row_ints()):
        raise ValueError("small is not contained in big")
    checks = quotient_basis(dual_basis(small), dual_basis(big)).row_ints()
    if not checks:
        raise ValueError("empty difference: big and small span the same space")
    n, dim = big.n, red_big.dim
    shift = 64 * _num_words(n)  # a word's parities against checks sit above it
    sets = [
        ([g | sum(((g & h).bit_count() & 1) << i for i, h in enumerate(checks)) << shift
          for g in gen], r)
        for gen, r in _information_sets(red_big.rows, n)
    ]
    best, bound, spent = n + 1, 0, 0
    for t in itertools.count():
        steps = [(gen, r, t - dim + r) for gen, r in sets if t >= dim - r]
        words = sum(comb(r, s) << (dim - r) for _, r, s in steps)
        if bound > w_max and spent + words > budget:
            if 1 << dim > budget:
                return WeightResult(bound, False)
            # list the whole span on the first set, whatever it costs
            sets, steps, budget = sets[:1], steps[:1], float("inf")
        spent += words
        for gen, r, s in steps:
            for block in _weight_class(gen[:r], gen[r:], s, shift + len(checks)):
                outside = block[:, shift // 64:].any(axis=1)
                best = int(word_weights(block[outside, : shift // 64]).min(initial=best))
            bound += 1
            if best <= bound or s == r:  # s == r: this set listed all of big
                return WeightResult(best, True)
