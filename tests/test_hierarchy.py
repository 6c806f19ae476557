"""Phase polynomials, hierarchy levels, template matching."""

import functools

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from diagsynth import gencoeff
from diagsynth.errors import BudgetExceeded
from diagsynth.families import build_family
from diagsynth.gf2 import BitVec
from diagsynth.hierarchy import (
    GateMatch,
    _apply_basis_change,
    describe,
    identify,
    level,
    level_recursive,
    match,
    phase_polynomial,
    standard_templates,
    template_ckz,
    template_tensor_rotation,
)


@st.composite
def exponent_tables(draw, max_k: int = 4, max_level: int = 4):
    k = draw(st.integers(1, max_k))
    lvl = draw(st.integers(1, max_level))
    exps = [draw(st.integers(0, (1 << lvl) - 1)) for _ in range(1 << k)]
    return exps, k, lvl


def _rank(rows, k):
    work = list(rows)
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, len(work)) if (work[i] >> col) & 1), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(len(work)):
            if i != r and (work[i] >> col) & 1:
                work[i] ^= work[r]
        r += 1
    return r


@functools.cache
def _reference_invertible_matrices(k):
    """Every invertible k x k GF(2) matrix as row ints, identity first,
    then lexicographic by rows, each tested by a full rank computation."""
    return tuple(_enumerate_invertible(k))


def _enumerate_invertible(k):
    identity = tuple(1 << i for i in range(k))
    yield identity

    def extend(rows):
        if len(rows) == k:
            if rows != identity:
                yield rows
            return
        for v in range(1, 1 << k):
            cand = rows + (v,)
            if _rank(cand, k) == len(cand):
                yield from extend(cand)

    yield from extend(())


def reference_match(exps, k, lvl, template, template_name, allow_pauli_z, allow_basis_change):
    """Enumerate-then-verify matching: build the relabeled template table
    for every candidate matrix, then compare it with the input entry by
    entry."""
    if template.k != k:
        return GateMatch(False)
    mod = 1 << lvl
    half = mod >> 1
    tpl = template.promoted(lvl) if template.level < lvl else template
    if tpl.level != lvl:
        return GateMatch(False)
    t_exps = tpl.exponents()
    e = [x % mod for x in exps]
    candidates = _reference_invertible_matrices(k) if allow_basis_change else [
        tuple(1 << i for i in range(k))
    ]
    for rows in candidates:
        perm = [t_exps[_apply_basis_change(b, rows)] for b in range(1 << k)]
        c = (e[0] - perm[0]) % mod
        mask = 0
        ok = True
        for i in range(k):
            d = (e[1 << i] - perm[1 << i] - c) % mod
            if d == 0:
                continue
            if d == half and allow_pauli_z:
                mask |= 1 << i
            else:
                ok = False
                break
        if not ok:
            continue
        for b in range(1 << k):
            z = half * ((b & mask).bit_count() & 1)
            if (perm[b] + c + z) % mod != e[b]:
                ok = False
                break
        if ok:
            return GateMatch(
                True,
                template_name,
                c,
                lvl,
                BitVec(k, mask),
                rows if rows != tuple(1 << i for i in range(k)) else None,
            )
    return GateMatch(False)


@st.composite
def match_cases(draw):
    """A diagonal built from a standard template under a random basis
    change, Pauli-Z mask and phase, sometimes with one entry corrupted or
    replaced by a random table, and a second template to match it against."""
    k = draw(st.integers(1, 4))
    templates = standard_templates(k)
    tpl, _ = draw(st.sampled_from(templates))
    lvl = draw(st.integers(max(tpl.level, 1), 6))
    mod = 1 << lvl
    t = (tpl.promoted(lvl) if tpl.level < lvl else tpl).exponents()
    rows = tuple(draw(st.lists(st.integers(1, (1 << k) - 1), min_size=k, max_size=k)))
    if _rank(rows, k) < k:
        rows = tuple(1 << i for i in range(k))
    mask = draw(st.integers(0, (1 << k) - 1))
    c = draw(st.integers(0, mod - 1))
    exps = [
        (t[_apply_basis_change(b, rows)] + c + (mod >> 1) * ((b & mask).bit_count() & 1)) % mod
        for b in range(1 << k)
    ]
    corrupt = draw(st.sampled_from(["none", "entry", "random"]))
    if corrupt == "entry":
        b = draw(st.integers(0, (1 << k) - 1))
        exps[b] = (exps[b] + draw(st.integers(1, mod - 1))) % mod
    elif corrupt == "random":
        exps = draw(st.lists(st.integers(0, mod - 1), min_size=1 << k, max_size=1 << k))
    return exps, k, lvl, [tpl, draw(st.sampled_from(templates))[0]]


class TestAnf:
    def test_t_gate(self):
        p = phase_polynomial([0, 1], 1, 3)
        assert p.coeff_dict() == {1: 1}

    def test_cz(self):
        p = phase_polynomial([0, 0, 0, 1], 2, 1)
        assert p.coeff_dict() == {3: 1}

    def test_mixed_diagonal(self):
        # diag(e^{i pi/4}, e^{-i pi/4}, 1, 1) at level 3
        p = phase_polynomial([1, 7, 0, 0], 2, 3)
        assert p.coeff_dict() == {0: 1, 1: 6, 2: 7, 3: 2}

    @given(exponent_tables())
    @settings(max_examples=1000, deadline=None)
    def test_reconstruction_round_trip(self, table):
        exps, k, lvl = table
        p = phase_polynomial(exps, k, lvl)
        assert p.exponents() == exps


class TestLevel:
    def test_named_gates(self):
        assert level(phase_polynomial([0, 1], 1, 3)) == 3  # T
        assert level(phase_polynomial([0, 0, 0, 1], 2, 1)) == 2  # CZ
        e = [0] * 8
        e[7] = 1
        assert level(phase_polynomial(e, 3, 1)) == 3  # CCZ
        assert level(phase_polynomial([0, 1], 1, 1)) == 1  # Z
        assert level(phase_polynomial([3, 3], 1, 2)) == 0  # global phase

    @given(exponent_tables())
    @settings(max_examples=300, deadline=None)
    def test_closed_formula_matches_recursion(self, table):
        exps, k, lvl = table
        assert level(phase_polynomial(exps, k, lvl)) == level_recursive(exps, k, lvl)

    def test_level_invariant_under_promotion(self):
        p = phase_polynomial([0, 0, 0, 1], 2, 1)
        assert level(p.promoted(3)) == level(p)


class TestMatch:
    def test_cz_up_to_pauli(self):
        # diag(-1, 1, 1, 1) = -(CZ)(Z x Z)
        tpl, name = template_ckz(2, 0)
        m = match([1, 0, 0, 0], 2, 1, tpl, name)
        assert m.matched and m.pauli_z_mask == BitVec(2, 0b11)
        assert m.global_phase_exp == 1

    def test_tt_dagger_with_basis_change(self):
        tpl, name = template_tensor_rotation(2, 3, True)
        m = match([1, 7, 0, 0], 2, 3, tpl, name, allow_basis_change=True)
        assert m.matched and m.basis_change is not None
        assert m.global_phase_exp == 1

    def test_unmatched(self):
        tpl, name = template_ckz(2, 0)
        assert not match([0, 0, 0, 0], 2, 1, tpl, name).matched

    def test_basis_change_refused_above_cap(self):
        # GL(5, 2) has 9,999,360 matrices: the search must refuse, not run
        tpl, name = template_ckz(5, 0)
        exps = [1] + [0] * 31  # no template match, so a search would be exhaustive
        with pytest.raises(BudgetExceeded, match="k <= 4") as exc:
            match(exps, 5, 1, tpl, name, allow_basis_change=True)
        assert exc.value.required_log2 == 24
        with pytest.raises(BudgetExceeded, match="k <= 4") as exc:
            identify(exps, 5, 1, allow_basis_change=True)
        assert exc.value.required_log2 == 24

    def test_identity_first_in_enumeration(self):
        # CCZ is symmetric, so a relabeling by a non-identity matrix also
        # reproduces it; the identity must still be the one reported
        tpl, name = template_ckz(3, 0)
        exps = tpl.exponents()
        swap = (2, 1, 4)
        assert [exps[_apply_basis_change(b, swap)] for b in range(8)] == exps
        m = match(exps, 3, 1, tpl, name, allow_basis_change=True)
        assert m.matched and m.basis_change is None

    @given(match_cases())
    @settings(max_examples=100, deadline=None)
    def test_search_equals_enumeration(self, case):
        exps, k, lvl, templates = case
        for tpl in templates:
            for allow_pz in (False, True):
                for allow_bc in (False, True):
                    args = (exps, k, lvl, tpl, "tpl", allow_pz, allow_bc)
                    assert match(*args) == reference_match(*args)

    def test_match_transformation_reproduces_input(self):
        # self-verifying postcondition, checked here independently
        tpl, name = template_tensor_rotation(2, 3, True)
        exps = [1, 7, 0, 0]
        m = match(exps, 2, 3, tpl, name, allow_basis_change=True)
        t_exps = tpl.promoted(3).exponents() if tpl.level < 3 else tpl.exponents()
        rows = m.basis_change or (1, 2)
        mod = 8
        for b in range(4):
            z = 4 * ((b & m.pauli_z_mask.bits).bit_count() & 1)
            got = (t_exps[_apply_basis_change(b, rows)] + m.global_phase_exp + z) % mod
            assert got == exps[b]

    @given(exponent_tables(max_k=3, max_level=3))
    @settings(max_examples=300, deadline=None)
    def test_level_invariant_under_match_group(self, table):
        # phase and relabeling never change the level; a Pauli-Z factor can
        # only lift a pure phase (level 0) to level 1
        exps, k, lvl = table
        base = level(phase_polynomial(exps, k, lvl))
        mod = 1 << lvl
        half = mod >> 1
        rows = tuple(reversed([1 << i for i in range(k)]))
        relabeled = [
            (exps[_apply_basis_change(b, rows)] + 3) % mod for b in range(1 << k)
        ]
        assert level(phase_polynomial(relabeled, k, lvl)) == base
        with_pauli = [
            (e + half * (b & 1)) % mod for b, e in enumerate(relabeled)
        ]
        got = level(phase_polynomial(with_pauli, k, lvl))
        if base >= 2:
            assert got == base
        else:
            assert got <= 1


class TestIdentify:
    def test_p_dagger(self):
        m = identify([1, 7], 1, 3)
        assert m.template == "P'" and m.pauli_z_mask == BitVec(1, 0)

    def test_ccz(self):
        e = [0] * 8
        e[7] = 1
        m = identify(e, 3, 1)
        assert m.template == "CCZ"

    def test_prefers_plain_over_masked(self):
        # exps of P' itself must not come back as P + mask
        m = identify([0, 6], 1, 3)
        assert m.template == "P'" and m.pauli_z_mask == BitVec(1, 0)

    def test_unidentified_reports_unmatched(self):
        m = identify([0, 1, 2, 3], 2, 3)
        assert isinstance(m, GateMatch)

    def test_two_l_4_logical_unmatched(self):
        # no template matches this k = 4 logical under any relabeling
        fb = build_family("two_l", [4])
        diag = gencoeff.induced_logical(fb.code, fb.gate)
        assert diag.k == 4
        assert identify(list(diag.exps), diag.k, diag.level) == GateMatch(False)


class TestDescribe:
    def test_describe_p_dagger_phase(self):
        p = phase_polynomial([1, 7], 1, 3)
        s = describe(p)
        assert "e^(i*pi*1/4)" in s and "Z^(1/2)[0]'" in s

    def test_describe_identity(self):
        assert describe(phase_polynomial([0, 0], 1, 2)) == "identity"

    def test_describe_ckz_factors(self):
        e = [0] * 8
        e[7] = 1
        assert describe(phase_polynomial(e, 3, 1)) == "CCZ[0,1,2]"
