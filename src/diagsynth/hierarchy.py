"""Classification of diagonal gates on k qubits.

A diagonal with root-of-unity entries zeta^(E(beta)) is summarized by the
algebraic normal form of its exponent function over Z_{2^L}:

    E(beta) = sum_S c_S prod_{i in S} beta_i  (mod 2^L).

The hierarchy level follows from monomial degree and the 2-adic valuation
of its coefficient: a monomial on |S| variables with coefficient c sits at
level |S| + L - 1 - v2(c).  The closed formula is cross-validated against
the first-principles recursion (repeated twisting by X) in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BudgetExceeded
from .gf2 import BitVec

# the pruned basis-change search in ``match`` still has an |GL(k,2)| worst
# case on near-misses: with this cap lifted, ``identify`` on the k = 6
# logical of ``qrm 2 4``, which no template matches, takes about 2 s
# (GL(5,2) alone has 9,999,360 matrices)
BASIS_CHANGE_MAX_K = 4


@dataclass(frozen=True)
class PhasePolynomial:
    """Exponent function in algebraic normal form.

    ``coeffs`` maps a monomial (bitmask over the k variables) to its
    nonzero coefficient mod 2^level; the empty monomial is the global
    phase.
    """

    k: int
    level: int
    coeffs: tuple[tuple[int, int], ...]  # sorted (mask, coeff) pairs

    @classmethod
    def from_dict(cls, k: int, level: int, coeffs: dict[int, int]) -> "PhasePolynomial":
        mod = 1 << level
        cleaned = {m: c % mod for m, c in coeffs.items() if c % mod}
        return cls(k, level, tuple(sorted(cleaned.items())))

    def promoted(self, level: int) -> "PhasePolynomial":
        if level < self.level:
            raise ValueError("cannot lower the level of a phase polynomial")
        shift = level - self.level
        return PhasePolynomial.from_dict(
            self.k, level, {m: c << shift for m, c in self.coeffs}
        )

    def evaluate(self, beta: int) -> int:
        mod = 1 << self.level
        total = 0
        for mask, c in self.coeffs:
            if mask & ~beta:
                continue
            total += c
        return total % mod

    def exponents(self) -> list[int]:
        return [self.evaluate(b) for b in range(1 << self.k)]


def phase_polynomial(exps: Sequence[int], k: int, level: int) -> PhasePolynomial:
    """Unique ANF of an exponent table, by finite differences over the
    subset lattice; reconstructing the table from the result is exact."""
    if len(exps) != 1 << k:
        raise ValueError("need 2^k exponents")
    mod = 1 << level
    arr = np.asarray(exps, dtype=np.int64) % mod
    view = arr.reshape([2] * k)
    for i in range(k):
        hi = view.take(1, axis=i) - view.take(0, axis=i)
        idx = [slice(None)] * k
        idx[i] = 1
        view[tuple(idx)] = hi % mod
    a = arr.tolist()
    return PhasePolynomial.from_dict(k, level, {m: c for m, c in enumerate(a) if c})


def low_degree_phase_polynomial(
    masks: np.ndarray, exps: np.ndarray, k: int, level: int
) -> PhasePolynomial:
    """ANF of an exponent function from its values on a down-set: row j of
    the uint64 word array ``masks`` names a subset U of the k variables
    (variable i is bit i % 64 of word i // 64) and exps[j] is the function
    at 1_U, and every U minus one variable is a row too.  The finite
    differences of ``phase_polynomial`` run axis by axis over the rows,
    g[U] -= g[U \\ {i}], each U \\ {i} found by a search in the rows sorted
    as byte strings, so any k fits.  On the subsets of weight at most D
    this is the ANF of the full table when the function has degree at
    most D, since the coefficient on U reads only the subsets of U."""
    mod = 1 << level
    g = np.asarray(exps, dtype=np.int64) % mod
    masks = np.ascontiguousarray(masks, dtype=np.uint64)
    if k:
        key = f"V{8 * masks.shape[1]}"
        order = np.argsort(masks.view(key).ravel())
        keys = masks.view(key).ravel()[order]
    for i in range(k):
        word, bit = i >> 6, np.uint64(1 << (i & 63))
        has = np.flatnonzero(masks[:, word] & bit)
        below = masks[has]
        below[:, word] ^= bit
        g[has] = (g[has] - g[order[np.searchsorted(keys, below.view(key).ravel())]]) % mod
    nz = np.flatnonzero(g)
    coeffs = {
        sum(w << 64 * j for j, w in enumerate(row)): c
        for row, c in zip(masks[nz].tolist(), g[nz].tolist())
    }
    return PhasePolynomial.from_dict(k, level, coeffs)


def _v2(x: int, level: int) -> int:
    if x % (1 << level) == 0:
        return level
    return (x & -x).bit_length() - 1


def level(p: PhasePolynomial) -> int:
    """Hierarchy level of the diagonal, 0 for a pure global phase."""
    best = 0
    for mask, c in p.coeffs:
        if mask == 0:
            continue
        deg = mask.bit_count()
        best = max(best, deg + p.level - 1 - _v2(c, p.level))
    return best


def level_recursive(exps: Sequence[int], k: int, lvl: int) -> int:
    """First-principles level via repeated twisting: the diagonal sits one
    level above the maximum over i of diag(E(b ^ e_i) - E(b)).  Exponential
    in the level; used as ground truth in tests."""
    mod = 1 << lvl
    e = [x % mod for x in exps]
    if all(x == e[0] for x in e):
        return 0
    worst = 0
    for i in range(k):
        bit = 1 << i
        d = [(e[b ^ bit] - e[b]) % mod for b in range(len(e))]
        worst = max(worst, level_recursive(d, k, lvl))
    return 1 + worst


# ----------------------------------------------------------------------
# matching against named diagonals


@dataclass(frozen=True)
class GateMatch:
    matched: bool
    template: str = ""
    global_phase_exp: int = 0  # exponent of zeta_{2^level}
    level: int = 0
    pauli_z_mask: BitVec | None = None
    basis_change: tuple[int, ...] | None = None  # row ints; beta -> beta M


def _apply_basis_change(beta: int, rows: tuple[int, ...]) -> int:
    out = 0
    b = beta
    while b:
        j = (b & -b).bit_length() - 1
        out ^= rows[j]
        b &= b - 1
    return out


def match(
    exps: Sequence[int],
    k: int,
    lvl: int,
    template: PhasePolynomial,
    template_name: str,
    allow_pauli_z: bool = True,
    allow_basis_change: bool = False,
) -> GateMatch:
    """Match a diagonal against a template up to global phase, optional
    logical Pauli-Z factors, and optional invertible relabeling of the
    variables.

    A depth-first search fixes the rows of the basis change M one at a
    time, in lexicographic order (the identity is the least invertible
    matrix, so it comes first; without basis change row i is ``1 << i``).
    Fixing row i decides the Pauli-Z bit i and checks the 2^i new inputs
    ``b | 1 << i`` at once, and a row in the span of the earlier rows is
    skipped, so every returned transformation reproduces the input exactly
    and the first match in that order wins."""
    if template.k != k:
        return GateMatch(False)
    if allow_basis_change and k > BASIS_CHANGE_MAX_K:
        gl_order = math.prod((1 << k) - (1 << i) for i in range(k))
        raise BudgetExceeded(
            f"GL({k},2) basis-change search (searched for k <= {BASIS_CHANGE_MAX_K})",
            required_log2=(gl_order - 1).bit_length(),
        )
    mod = 1 << lvl
    half = mod >> 1
    tpl = template.promoted(lvl) if template.level < lvl else template
    if tpl.level != lvl:
        return GateMatch(False)
    t = tpl.exponents()
    e = [x % mod for x in exps]
    c = (e[0] - t[0]) % mod
    rows: list[int] = []
    img = [0]  # img[b] = b M for every b spanned by the rows fixed so far

    def search(mask: int) -> int | None:
        i = len(rows)
        if i == k:
            return mask
        bit = 1 << i
        prefix = set(img)
        for row in range(1, 1 << k) if allow_basis_change else (bit,):
            if row in prefix:
                continue
            d = (e[bit] - t[row] - c) % mod
            if d == 0:
                m = mask
            elif d == half and allow_pauli_z:
                m = mask | bit
            else:
                continue
            new = [x ^ row for x in img]
            if all(
                (t[new[b]] + c + half * (((b | bit) & m).bit_count() & 1)) % mod == e[b | bit]
                for b in range(bit)
            ):
                rows.append(row)
                img.extend(new)
                found = search(m)
                if found is not None:
                    return found
                rows.pop()
                del img[bit:]
        return None

    mask = search(0)
    if mask is None:
        return GateMatch(False)
    identity = [1 << i for i in range(k)]
    return GateMatch(
        True, template_name, c, lvl, BitVec(k, mask),
        tuple(rows) if rows != identity else None,
    )


# ----------------------------------------------------------------------
# named templates


def rotation_name(j: int, dagger: bool) -> str:
    base = {1: "Z", 2: "P", 3: "T", 4: "sqrtT"}.get(j, f"Z^(1/{1 << (j - 1)})")
    return base + ("'" if dagger else "")


def template_tensor_rotation(k: int, j: int, dagger: bool) -> tuple[PhasePolynomial, str]:
    """(Z^(1/2^(j-1)))^(x k), optionally daggered: linear monomials with
    coefficient +-2^(L-j) at level L = j."""
    lvl = j
    coeff = (-1 if dagger else 1) % (1 << lvl)
    coeffs = {1 << i: coeff for i in range(k)}
    name = rotation_name(j, dagger)
    label = name if k == 1 else f"({name})^tensor{k}"
    return PhasePolynomial.from_dict(k, lvl, coeffs), label


def template_ckz(k: int, root_j: int = 0, dagger: bool = False) -> tuple[PhasePolynomial, str]:
    """The fully controlled phase on all k variables: C^(k-1)Z^(1/2^root_j)."""
    lvl = root_j + 1
    coeff = (-1 if dagger else 1) % (1 << lvl)
    top = (1 << k) - 1
    name = ("C" * (k - 1)) + ("Z" if root_j == 0 else rotation_name(root_j + 1, False))
    if k > 3:
        name = f"C^({k - 1})" + ("Z" if root_j == 0 else rotation_name(root_j + 1, False))
    return PhasePolynomial.from_dict(k, lvl, {top: coeff}), name + ("'" if dagger else "")


def standard_templates(k: int) -> list[tuple[PhasePolynomial, str]]:
    """Deterministic template ordering used by reports."""
    out: list[tuple[PhasePolynomial, str]] = [
        (PhasePolynomial.from_dict(k, 1, {}), "identity")
    ]
    for j in range(1, 7):
        for dagger in (False, True):
            out.append(template_tensor_rotation(k, j, dagger))
    if k >= 2:
        for j in range(0, 6):
            for dagger in (False, True):
                out.append(template_ckz(k, j, dagger))
    return out


def identify(exps: Sequence[int], k: int, lvl: int) -> GateMatch:
    """Try the standard templates, preferring the most structured match:
    plain, then with Pauli-Z factors, then with a basis change, then both.
    Basis change is searched for 2 <= k <= BASIS_CHANGE_MAX_K only."""
    own_level = level(phase_polynomial(exps, k, lvl))
    for allow_pz, allow_bc in ((False, False), (True, False), (False, True), (True, True)):
        if allow_bc and not 2 <= k <= BASIS_CHANGE_MAX_K:
            continue
        for tpl, name in standard_templates(k):
            # the searched transformations preserve level (above level 1),
            # so mismatched templates cannot succeed
            tpl_level = level(tpl)
            if own_level >= 2 and tpl_level != own_level:
                continue
            if own_level <= 1 and tpl_level >= 2:
                continue
            m = match(exps, k, lvl, tpl, name, allow_pz, allow_bc)
            if m.matched:
                return m
    return GateMatch(False)


def describe(p: PhasePolynomial) -> str:
    """Textual product form: phase, controlled-phase factors, Pauli mask."""
    parts = []
    const = dict(p.coeffs).get(0, 0)
    if const:
        parts.append(f"e^(i*pi*{const}/{1 << (p.level - 1)})")
    zmask = []
    for mask, c in p.coeffs:
        if mask == 0:
            continue
        deg = mask.bit_count()
        qubits = [i for i in range(p.k) if (mask >> i) & 1]
        v = _v2(c, p.level)
        j = p.level - 1 - v
        if deg == 1 and j == 0:
            zmask.extend(qubits)
            continue
        rem = 1 << (p.level - v)
        odd = (c >> v) % rem
        signed = odd if odd <= rem // 2 else odd - rem
        gate = ("C" * (deg - 1)) + (f"Z^(1/{1 << j})" if j else "Z")
        factor = f"{gate}[{','.join(map(str, qubits))}]"
        if signed == -1:
            factor += "'"
        elif signed != 1:
            factor += f"^{signed}"
        parts.append(factor)
    if zmask:
        parts.append(f"Z[{','.join(map(str, sorted(zmask)))}]")
    return " * ".join(parts) if parts else "identity"
