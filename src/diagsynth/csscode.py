"""CSS code data model: stabilizer bases, character vector, logical frame,
distances and the encoding map.

A code is the tuple (n, x_stab, z_stab, y): x_stab spans the classical code
C2 whose words label X-stabilizers, z_stab spans C1-perp whose words label
Z-stabilizers, and the character vector y (a coset of C1) fixes the signs
of the Z-stabilizers as (-1)^(z.y).  Signs of X-stabilizers are irrelevant
for diagonal gates and are taken positive throughout; the encoding map
still accepts an explicit X-character vector for completeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from . import gf2
from .cyclo import Cyclo
from .errors import BudgetExceeded, CommutationViolation, LengthMismatch
from .gf2 import BitMat, BitVec, Reducer, WeightResult


@dataclass(frozen=True)
class LogicalFrame:
    """Deterministic bases for the logical quotients.

    ``z_logical_basis`` rows generate the Z-logical quotient (C2-perp mod
    C1-perp); ``x_logical_basis`` rows generate the X-logical quotient
    (C1 mod C2) and are normalized so that the GF(2) pairing matrix
    x_basis . z_basis^T is the identity.  The row order fixes the logical
    qubit labels used everywhere else.
    """

    z_logical_basis: BitMat
    x_logical_basis: BitMat

    @property
    def k(self) -> int:
        return self.z_logical_basis.num_rows


class CssCode:
    """Validated CSS code with canonical stabilizer bases."""

    def __init__(self, n: int, x_stab: BitMat, z_stab: BitMat, y: BitVec | None = None):
        if x_stab.n != n or z_stab.n != n:
            raise LengthMismatch("stabilizer rows must have length n")
        z_ints = z_stab.row_ints()
        for x in x_stab:
            for z in z_ints:
                if (x.bits & z).bit_count() & 1:
                    raise CommutationViolation(
                        f"X row {x.to01()} anticommutes with Z row {BitVec(n, z).to01()}"
                    )
        self.n = n
        self.x_stab, self.x_pivots = gf2.rref(x_stab)
        self.z_stab, self.z_pivots = gf2.rref(z_stab)
        if y is None:
            y = BitVec.zeros(n)
        if y.n != n:
            raise LengthMismatch("character vector must have length n")
        # The literal representative matters: stabilizer signs only see y
        # modulo C1, but the encoding map sees it modulo C2 and the
        # coefficient tables of nontrivial syndromes see it exactly, so the
        # stored vector is never re-canonicalized.
        self.y = y
        if self.k < 0:
            raise CommutationViolation("dim C2 exceeds dim C1")
        self._caches: dict = {}

    # ------------------------------------------------------------------
    # derived structure

    @cached_property
    def c1(self) -> BitMat:
        """Basis of C1 = dual of the Z-stabilizer code."""
        return gf2.dual_basis(self.z_stab)

    @cached_property
    def c2perp(self) -> BitMat:
        """Basis of C2-perp = dual of the X-stabilizer code."""
        return gf2.dual_basis(self.x_stab)

    @cached_property
    def c1_reducer(self) -> Reducer:
        return Reducer(self.c1)

    @cached_property
    def c2_reducer(self) -> Reducer:
        return Reducer(self.x_stab)

    @cached_property
    def c1perp_reducer(self) -> Reducer:
        return Reducer(self.z_stab)

    @cached_property
    def c2perp_reducer(self) -> Reducer:
        return Reducer(self.c2perp)

    @property
    def dim_c1(self) -> int:
        return self.c1.num_rows

    @property
    def dim_c2(self) -> int:
        return self.x_stab.num_rows

    @property
    def dim_c1perp(self) -> int:
        return self.z_stab.num_rows

    @property
    def k(self) -> int:
        return self.dim_c1 - self.dim_c2

    @cached_property
    def frame(self) -> LogicalFrame:
        z_basis = gf2.quotient_basis(self.c2perp, self.z_stab)
        x_raw = gf2.quotient_basis(self.c1, self.x_stab)
        k = z_basis.num_rows
        assert x_raw.num_rows == k, "logical quotients disagree"
        if k == 0:
            return LogicalFrame(z_basis, x_raw)
        z_ints, x_ints = z_basis.row_ints(), x_raw.row_ints()

        def pairing(xs: list[int]) -> list[int]:
            return [
                sum(((x & z).bit_count() & 1) << j for j, z in enumerate(z_ints))
                for x in xs
            ]

        inv = gf2.invert_matrix(pairing(x_ints), k)  # raises if degenerate
        x_rows = []
        for i in range(k):
            acc = 0
            for j in range(k):
                if (inv[i] >> j) & 1:
                    acc ^= x_ints[j]
            x_rows.append(acc)
        assert pairing(x_rows) == [1 << i for i in range(k)]
        return LogicalFrame(z_basis, BitMat(self.n, [BitVec(self.n, r) for r in x_rows]))

    def z_logical(self, alpha: int) -> BitVec:
        """Representative of the Z-logical labeled by the bits of alpha."""
        return self._combine(self.frame.z_logical_basis, alpha)

    def x_word(self, beta: int) -> BitVec:
        """The C1 word encoding logical computational-basis label beta."""
        return self._combine(self.frame.x_logical_basis, beta)

    def _combine(self, basis: BitMat, label: int) -> BitVec:
        # the sum of the basis rows that the bits of label select
        acc = 0
        rows = basis.rows
        while label:
            acc ^= rows[(label & -label).bit_length() - 1].bits
            label &= label - 1
        return BitVec(self.n, acc)

    def syndrome_reps(self, budget: int = gf2.DEFAULT_BUDGET) -> list[BitVec]:
        """Canonical representatives of the X-syndrome quotient, one per
        X-stabilizer pattern (2^dim C2 of them, refused above budget)."""
        if 1 << self.dim_c2 > budget:
            raise BudgetExceeded(
                f"2^{self.dim_c2} coset representatives", required_log2=self.dim_c2
            )
        if "syndromes" not in self._caches:
            self._caches["syndromes"] = gf2.coset_reps(
                BitMat.identity(self.n), self.c2perp, budget=budget
            )
        return self._caches["syndromes"]

    # ------------------------------------------------------------------

    def distances(
        self, w_max: int = 6, budget: int = gf2.DEFAULT_BUDGET
    ) -> tuple[WeightResult, WeightResult]:
        """(X-distance over C1 minus C2, Z-distance over C2-perp minus
        C1-perp).  Distances up to ``w_max`` are exact; a larger one is
        exact if ``budget`` words settle it or hold the span, else bounded.
        A search stops once the lightest word meets its bound rounded up
        to the power of two that divides every weight of the space, so
        Reed-Muller-type codes settle in fewer words; a bounded answer is
        the unrounded bound (``gf2.min_weight_excluding``)."""
        if self.k == 0:
            raise ValueError("code has no logical qubits")
        d_x = gf2.min_weight_excluding(self.c1, self.x_stab, w_max, budget)
        d_z = gf2.min_weight_excluding(self.c2perp, self.z_stab, w_max, budget)
        return d_x, d_z

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CssCode)
            and self.n == other.n
            and self.x_stab == other.x_stab
            and self.z_stab == other.z_stab
            and self.y == other.y
        )

    def __hash__(self) -> int:
        return hash((self.n, self.x_stab, self.z_stab, self.y))

    def __repr__(self) -> str:
        return f"CssCode(n={self.n}, k={self.k}, |x_stab|={self.dim_c2}, |z_stab|={self.dim_c1perp})"


# ----------------------------------------------------------------------
# encoding map


@dataclass(frozen=True)
class SparseState:
    """Sparse statevector 2^(-half_denom_exp/2) * sum amps[w] |w>.

    Amplitudes are exact ring elements; the square-root normalization is
    carried separately as a half-integer denominator exponent.
    """

    n: int
    half_denom_exp: int
    amps: Mapping[BitVec, Cyclo]

    def amplitude(self, word: BitVec) -> complex:
        a = self.amps.get(word)
        if a is None:
            return 0j
        return a.to_complex() * 2.0 ** (-self.half_denom_exp / 2.0)

    def inner(self, other: "SparseState") -> complex:
        """<self|other> in floating point."""
        total = 0j
        small, big = (self.amps, other.amps) if len(self.amps) <= len(other.amps) else (other.amps, self.amps)
        for w in small:
            if w in big:
                total += self.amplitude(w).conjugate() * other.amplitude(w)
        return total


def encode_basis_state(
    code: CssCode, alpha: BitVec, r: BitVec | None = None
) -> SparseState:
    """Logical computational-basis state |alpha> encoded into the codespace.

    Support is the coset alpha.Gx + C2 + y; with X-character vector r the
    amplitude of the word from x in C2 carries sign (-1)^(x.r).
    """
    if alpha.n != code.k:
        raise LengthMismatch(f"alpha must have length k={code.k}")
    if r is not None and r.n != code.n:
        raise LengthMismatch("r must have length n")
    base = code.x_word(alpha.bits).bits ^ code.y.bits
    r_bits = r.bits if r is not None else 0
    dim = code.dim_c2
    if dim > 24:
        raise BudgetExceeded(f"2^{dim} codeword support", required_log2=dim)
    amps: dict[BitVec, Cyclo] = {}
    for x in gf2.span_ints(code.x_stab.row_ints()):
        sign = -1 if (x & r_bits).bit_count() & 1 else 1
        amps[BitVec(code.n, base ^ x)] = Cyclo.integer(sign)
    return SparseState(code.n, dim, amps)


# ----------------------------------------------------------------------
# JSON wire format


def code_to_json(code: CssCode) -> dict:
    return {
        "n": code.n,
        "x_stabilizers": [r.to01() for r in code.x_stab],
        "z_stabilizers": [r.to01() for r in code.z_stab],
        "y": code.y.to01(),
    }


def code_from_json(d: dict) -> CssCode:
    n = int(d["n"])
    x = BitMat.from_strings(d.get("x_stabilizers", []), n) if d.get("x_stabilizers") else BitMat.empty(n)
    z = BitMat.from_strings(d.get("z_stabilizers", []), n) if d.get("z_stabilizers") else BitMat.empty(n)
    y = BitVec.from_string(d["y"]) if d.get("y") else BitVec.zeros(n)
    return CssCode(n, x, z, y)
