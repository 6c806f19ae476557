"""Exact arithmetic in Z[zeta] with power-of-two denominators.

``zeta`` at level L is the primitive 2^L-th root of unity e^{i*pi/2^(L-1)},
with minimal polynomial x^(2^(L-1)) + 1.  A value is stored as

    2^(-denom_exp) * sum_j coeffs[j] * zeta^j,    0 <= j < 2^(L-1),

with arbitrary-precision integer coefficients.  The stored form is unique:
the denominator exponent is minimal and the level is demoted as far as the
coefficient pattern allows, so equality and hashing are structural.  Every
phase, Pauli coefficient and coset sum in this package lives in this ring.
"""

from __future__ import annotations

import cmath
import re
from typing import Sequence

LEVEL_CAP = 8

_SERIAL_RE = re.compile(
    r"^\s*2\^-(?P<e>\d+)\s*\*\s*\[(?P<coeffs>[-0-9,\s]*)\]\s*@\s*(?P<level>\d+)\s*$"
)


class Cyclo:
    """Element of Z[zeta_{2^L}] divided by a power of two.

    The stored denominator exponent is always minimal.  By default the
    level is demoted to the smallest subring containing the value; promote
    keeps the requested level so re-embeddings survive.  Equality compares
    values across levels; hashing uses the fully demoted form.
    """

    __slots__ = ("level", "coeffs", "denom_exp")

    def __init__(
        self,
        level: int,
        coeffs: Sequence[int],
        denom_exp: int = 0,
        *,
        min_level: bool = True,
    ):
        if level < 1 or level > LEVEL_CAP:
            raise ValueError(f"level must be in 1..{LEVEL_CAP}")
        if denom_exp < 0:
            raise ValueError("denominator exponent must be >= 0")
        half = 1 << (level - 1)
        if len(coeffs) != half:
            raise ValueError(f"level {level} needs {half} coefficients")
        c = [int(x) for x in coeffs]
        # minimal denominator
        while denom_exp > 0 and all(x % 2 == 0 for x in c):
            c = [x // 2 for x in c]
            denom_exp -= 1
        if all(x == 0 for x in c):
            denom_exp = 0
        if min_level:
            # drop to the subring while odd-index coefficients vanish
            while level > 1 and all(c[j] == 0 for j in range(1, len(c), 2)):
                c = c[::2]
                level -= 1
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coeffs", tuple(c))
        object.__setattr__(self, "denom_exp", denom_exp)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclo is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> "Cyclo":
        return cls(1, [0])

    @classmethod
    def one(cls) -> "Cyclo":
        return cls(1, [1])

    @classmethod
    def integer(cls, v: int) -> "Cyclo":
        return cls(1, [v])

    @classmethod
    def dyadic(cls, num: int, denom_exp: int) -> "Cyclo":
        """num / 2^denom_exp."""
        return cls(1, [num], denom_exp)

    @classmethod
    def root_of_unity(cls, level: int, k: int) -> "Cyclo":
        """zeta_{2^level}^k."""
        half = 1 << (level - 1)
        k %= 2 * half
        coeffs = [0] * half
        if k < half:
            coeffs[k] = 1
        else:
            coeffs[k - half] = -1
        return cls(level, coeffs)

    @classmethod
    def from_root_counts(
        cls, level: int, counts: Sequence[int], denom_exp: int = 0
    ) -> "Cyclo":
        """2^(-denom_exp) * sum_k counts[k] * zeta^k with k in Z_{2^level}."""
        half = 1 << (level - 1)
        if len(counts) != 2 * half:
            raise ValueError(f"level {level} needs {2 * half} exponent counts")
        coeffs = [counts[j] - counts[j + half] for j in range(half)]
        return cls(level, coeffs, denom_exp)

    # ------------------------------------------------------------------
    # ring structure

    def _aligned(self, other: "Cyclo") -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        level = max(self.level, other.level)
        return level, self.promote(level).coeffs, other.promote(level).coeffs

    def promote(self, level: int) -> "Cyclo":
        """Re-embed into the level-``level`` ring (value preserving)."""
        if level < self.level:
            raise ValueError(f"cannot promote level {self.level} down to {level}")
        if level == self.level:
            return self
        stride = 1 << (level - self.level)
        half = 1 << (level - 1)
        coeffs = [0] * half
        for j, c in enumerate(self.coeffs):
            coeffs[j * stride] = c
        return Cyclo(level, coeffs, self.denom_exp, min_level=False)

    def demoted(self) -> "Cyclo":
        """Fully canonical form (minimal level)."""
        return Cyclo(self.level, self.coeffs, self.denom_exp)

    def __add__(self, other: "Cyclo") -> "Cyclo":
        if not isinstance(other, Cyclo):
            return NotImplemented
        level, a, b = self._aligned(other)
        ea, eb = self.denom_exp, other.denom_exp
        e = max(ea, eb)
        sa, sb = 1 << (e - ea), 1 << (e - eb)
        return Cyclo(level, [x * sa + y * sb for x, y in zip(a, b)], e)

    def __neg__(self) -> "Cyclo":
        return Cyclo(self.level, [-c for c in self.coeffs], self.denom_exp)

    def __sub__(self, other: "Cyclo") -> "Cyclo":
        return self + (-other)

    def __mul__(self, other) -> "Cyclo":
        if isinstance(other, int):
            return Cyclo(self.level, [c * other for c in self.coeffs], self.denom_exp)
        if not isinstance(other, Cyclo):
            return NotImplemented
        level, a, b = self._aligned(other)
        half = 1 << (level - 1)
        out = [0] * half
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if not y:
                    continue
                k = i + j
                if k >= half:
                    out[k - half] -= x * y
                else:
                    out[k] += x * y
        return Cyclo(level, out, self.denom_exp + other.denom_exp)

    __rmul__ = __mul__

    def scaled(self, extra_denom_exp: int) -> "Cyclo":
        """Multiply by 2^(-extra_denom_exp)."""
        return Cyclo(self.level, self.coeffs, self.denom_exp + extra_denom_exp)

    def conj(self) -> "Cyclo":
        half = 1 << (self.level - 1)
        out = [0] * half
        out[0] = self.coeffs[0]
        for j in range(1, half):
            out[half - j] = -self.coeffs[j]
        return Cyclo(self.level, out, self.denom_exp)

    def abs_sq(self) -> "Cyclo":
        return self * self.conj()

    # ------------------------------------------------------------------
    # queries

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_root_of_unity(self) -> int | None:
        """Return k with self == zeta_{2^level}^k exactly, else None.

        The exponent refers to this value's own (minimal) level; rescale by
        2^(L'-L) to express it at a higher level L'.
        """
        if self.denom_exp != 0:
            return None
        nz = [(j, c) for j, c in enumerate(self.coeffs) if c]
        if len(nz) != 1 or abs(nz[0][1]) != 1:
            return None
        j, c = nz[0]
        return j if c == 1 else j + (1 << (self.level - 1))

    def to_complex(self) -> complex:
        half = 1 << (self.level - 1)
        total = 0j
        for j, c in enumerate(self.coeffs):
            if c:
                total += float(c) * cmath.exp(1j * cmath.pi * j / half)
        return total / float(1 << self.denom_exp)

    # ------------------------------------------------------------------
    # serialization: "2^-e * [c0,c1,...] @ L"

    def serialize(self) -> str:
        return f"2^-{self.denom_exp} * [{','.join(str(c) for c in self.coeffs)}] @ {self.level}"

    @classmethod
    def parse(cls, s: str) -> "Cyclo":
        m = _SERIAL_RE.match(s)
        if not m:
            raise ValueError(f"not a serialized ring element: {s!r}")
        coeffs = [int(x) for x in m.group("coeffs").split(",")] if m.group("coeffs").strip() else []
        return cls(int(m.group("level")), coeffs, int(m.group("e")))

    def pretty(self) -> str:
        """Readable form for reports: dyadic rationals render as fractions,
        pure roots as zeta powers, everything else as the serialized form."""
        d = self.demoted()
        if d.level == 1:
            num = d.coeffs[0]
            if d.denom_exp == 0:
                return str(num)
            return f"{num}/{1 << d.denom_exp}"
        k = d.as_root_of_unity()
        if k is not None:
            return f"zeta_{2 << (d.level - 1)}^{k}"
        return d.serialize()

    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cyclo):
            return NotImplemented
        if self.denom_exp != other.denom_exp:
            return False
        if self.level == other.level:
            return self.coeffs == other.coeffs
        level = max(self.level, other.level)
        return self.promote(level).coeffs == other.promote(level).coeffs

    def __hash__(self) -> int:
        d = self.demoted()
        return hash((d.level, d.coeffs, d.denom_exp))

    def __repr__(self) -> str:
        return f"Cyclo({self.serialize()!r})"


ZERO = Cyclo.zero()
ONE = Cyclo.one()


def sqrt2() -> Cyclo:
    """The exact square root of 2, zeta_8 - zeta_8^3."""
    return Cyclo(3, [0, 1, 0, -1])


def cos_pi_over(level: int) -> Cyclo:
    """cos(pi / 2^level) = (zeta + zeta^-1)/2 at the level that houses it."""
    z = Cyclo.root_of_unity(level + 1, 1)
    zinv = Cyclo.root_of_unity(level + 1, -1)
    return (z + zinv).scaled(1)


def minus_i_sin_pi_over(level: int) -> Cyclo:
    """-i sin(pi / 2^level) = (zeta^-1 - zeta)/2."""
    z = Cyclo.root_of_unity(level + 1, 1)
    zinv = Cyclo.root_of_unity(level + 1, -1)
    return (zinv - z).scaled(1)
