"""GF(2) core: row reduction, duals, cosets, minimum weight."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from diagsynth.errors import LengthMismatch
from diagsynth.gf2 import (
    BitMat,
    BitVec,
    Reducer,
    WeightResult,
    _rref_ints,
    apply_parity_map,
    coset_reps,
    contains,
    dual_basis,
    int_rows,
    min_weight_excluding,
    parity_map,
    quotient_basis,
    restrict_to_hyperplane,
    rref,
    signed_weight_counts,
    span_ints,
    span_words,
)

from conftest import bitmats, full_words

STEANE_H = ["1111000", "1100110", "1010101"]


class TestBitVec:
    def test_string_round_trip(self):
        v = BitVec.from_string("0110")
        assert v.support() == (1, 2)
        assert v.to01() == "0110"
        assert v.weight() == 2

    def test_xor_and_dot(self):
        a = BitVec.from_string("110")
        b = BitVec.from_string("011")
        assert (a ^ b).to01() == "101"
        assert a.dot(b) == 1
        assert a.dot(a) == 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            BitVec.from_string("01") ^ BitVec.from_string("011")

    def test_concat_orders_first_block_low(self):
        v = BitVec.from_string("10").concat(BitVec.from_string("01"))
        assert v.to01() == "1001"


class TestRref:
    def test_forced_example(self):
        r, piv = rref(BitMat.from_strings(["110", "011"]))
        assert [x.to01() for x in r.rows] == ["101", "011"]
        assert piv == (0, 1)

    def test_duplicate_rows_collapse(self):
        r, piv = rref(BitMat.from_strings(["111", "111"]))
        assert [x.to01() for x in r.rows] == ["111"]
        assert piv == (0,)

    def test_steane_rows(self):
        r, piv = rref(BitMat.from_strings(STEANE_H))
        assert r.num_rows == 3
        assert piv == (0, 1, 2)

    @given(bitmats(max_n=8))
    def test_idempotent_and_same_span(self, m):
        r, piv = rref(m)
        r2, piv2 = rref(r)
        assert r == r2 and piv == piv2
        red = Reducer(r)
        for row in m:
            assert red.contains(row)
        assert len(piv) == len(r.rows)
        assert list(piv) == sorted(piv)

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_quadratic_back_elimination(self, data):
        n = data.draw(st.sampled_from([8, 64, 65, 130, 256]) | st.integers(1, 256))
        rows = data.draw(st.lists(full_words(n) | st.integers(0, (1 << n) - 1), max_size=min(n, 40)))
        want = _rref_reference(rows)
        assert _rref_ints(rows) == want
        # an already-reduced matrix, also reversed and combined row by row
        assert _rref_ints(want[0]) == want
        mixed = [r ^ want[0][0] for r in reversed(want[0][1:])] + want[0][:1]
        assert _rref_ints(mixed) == want

    def test_dense_upper_triangle_at_256(self):
        # every row starts at its own pivot and covers all columns above it,
        # so every back-elimination step has work to do
        rows = [((1 << 256) - 1) ^ ((1 << p) - 1) for p in range(0, 256, 3)]
        assert _rref_ints(rows) == _rref_reference(rows)


def _rref_reference(rows):
    """The quadratic back-elimination: for each pivot p from the top, clear
    column p in every lower-pivot row."""
    pivrows = {}
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
    for p in reversed(pivots):
        for q in pivots:
            if q < p and (pivrows[q] >> p) & 1:
                pivrows[q] ^= pivrows[p]
    return [pivrows[p] for p in pivots], pivots


class TestDual:
    def test_repetition_n2_self_dual(self):
        d = dual_basis(BitMat.from_strings(["11"]))
        assert [x.to01() for x in d.rows] == ["11"]

    def test_repetition_n4_parity(self):
        d = dual_basis(BitMat.from_strings(["1111"]))
        assert d.num_rows == 3
        assert all(r.weight() % 2 == 0 for r in d.rows)

    def test_steane_dual_contains_row_space(self):
        h = BitMat.from_strings(STEANE_H)
        d = dual_basis(h)
        assert d.num_rows == 4
        for a in d.rows:
            for b in h.rows:
                assert a.dot(b) == 0
        red = Reducer(d)
        for b in h.rows:
            assert red.contains(b)

    @given(bitmats(max_n=10))
    def test_rank_nullity(self, m):
        r, piv = rref(m)
        d = dual_basis(m)
        assert len(piv) + d.num_rows == m.n

    @given(bitmats(max_n=8))
    def test_double_dual_same_span(self, m):
        r, _ = rref(m)
        dd, _ = rref(dual_basis(dual_basis(m)))
        assert dd == r


def _dual_reference(rows, n):
    """Complement basis by the quadratic route: v_f for each free column
    of the canonical form, then a full row reduction of the v_f."""
    canon, pivots = _rref_reference(rows)
    out = []
    for f in range(n):
        if f in pivots:
            continue
        v = 1 << f
        for row, p in zip(canon, pivots):
            if (row >> f) & 1:
                v |= 1 << p
        out.append(v)
    return _rref_reference(out)[0]


def _reduce_reference(canon, pivots, x):
    """Reduction by a pass over every row in pivot order."""
    for row, p in zip(canon, pivots):
        if (x >> p) & 1:
            x ^= row
    return x


def _restrict_reference(rows, w):
    """Hyperplane restriction by the generic route: clear the lowest hot
    row from the other hot rows, row-reduce what is left, then reduce the
    lowest hot row against it."""
    canon, _ = _rref_reference(rows)
    hot = [i for i, r in enumerate(canon) if (r & w).bit_count() & 1]
    if not hot:
        raise ValueError("row space is already orthogonal to w0")
    pivot = canon[hot[0]]
    rest = [r ^ pivot if i in hot else r for i, r in enumerate(canon) if i != hot[0]]
    new, new_pivots = _rref_reference(rest)
    return new, _reduce_reference(new, new_pivots, pivot)


DIFF_SIZES = list(range(1, 9)) + [63, 64, 65, 128, 256]


@st.composite
def ranked_rows(draw):
    """(n, canonical rows, input rows): a canonical basis of a drawn rank
    (0, full, n/2 +- 1 where the dual switches sides, or any), with random
    bits above each pivot at the free columns, at a drawn density; the
    input is the canonical basis itself, or the same span unreduced
    (triangular mixing, shuffled, with dependent and zero rows added)."""
    n = draw(st.sampled_from(DIFF_SIZES))
    r = draw(st.sampled_from([0, n, n // 2 - 1, n // 2, n // 2 + 1]) | st.integers(0, n))
    r = min(max(r, 0), n)
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    pivots = sorted(rng.sample(range(n), r))
    free = ((1 << n) - 1) ^ sum(1 << p for p in pivots)
    sparsity = draw(st.integers(0, 3))
    canon = []
    for p in pivots:
        bits = rng.getrandbits(n)
        for _ in range(sparsity):
            bits &= rng.getrandbits(n)
        canon.append(1 << p | bits & free & ~((2 << p) - 1))
    if draw(st.booleans()):
        return n, canon, list(canon)
    rows = [
        row ^ sum_rows(canon[i + 1 :], rng.getrandbits(r)) for i, row in enumerate(canon)
    ]
    rows += [sum_rows(canon, rng.getrandbits(r)) for _ in range(rng.randint(0, 3))]
    rows += [0] * rng.randint(0, 1)
    rng.shuffle(rows)
    return n, canon, rows


class TestStructuredKernels:
    """dual_basis, Reducer and restrict_to_hyperplane build their output
    from the structure of a reduced echelon form; each must match the
    generic elimination it replaced, bit for bit."""

    @given(ranked_rows())
    @settings(max_examples=150, deadline=None)
    def test_dual_basis_matches_elimination(self, case):
        n, canon, rows = case
        got = dual_basis(BitMat(n, [BitVec(n, r) for r in rows])).row_ints()
        assert got == _dual_reference(rows, n)
        assert len(got) == n - len(canon)

    @given(ranked_rows(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_reducer_matches_row_pass(self, case, data):
        n, canon, rows = case
        red = Reducer(BitMat(n, [BitVec(n, r) for r in rows]))
        pivots = _rref_reference(rows)[1]
        assert red.rows == canon and list(red.pivots) == pivots
        xs = data.draw(st.lists(full_words(n) | st.integers(0, (1 << n) - 1), max_size=8))
        for x in xs:
            assert red.reduce_int(x) == _reduce_reference(canon, pivots, x)
            inside = x ^ _reduce_reference(canon, pivots, x)
            assert red.reduce_int(inside) == 0

    @given(ranked_rows(), st.sampled_from(["first", "last", "every", "random"]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_restrict_matches_elimination(self, case, hits, data):
        n, canon, rows = case
        if not canon:
            return
        # pivot p_i is set only in canonical row i, so the sum of the pivot
        # bits of H pairs oddly with exactly the rows in H; adding a dual
        # word keeps every pairing
        r = len(canon)
        mask = {"first": 1, "last": 1 << (r - 1), "every": (1 << r) - 1}.get(hits)
        if mask is None:
            mask = data.draw(st.integers(1, (1 << r) - 1))
        pivots = [(row & -row).bit_length() - 1 for row in canon]
        dual = _dual_reference(canon, n)
        w = sum(1 << pivots[i] for i in range(r) if mask >> i & 1)
        w ^= sum_rows(dual, data.draw(st.integers(0, (1 << len(dual)) - 1)))
        new, removed = restrict_to_hyperplane(
            BitMat(n, [BitVec(n, x) for x in rows]), BitVec(n, w)
        )
        want_rows, want_removed = _restrict_reference(rows, w)
        assert new.row_ints() == want_rows and removed.bits == want_removed
        assert (removed.bits & w).bit_count() & 1
        assert Reducer(new).reduce(removed) == removed
        assert all((x & w).bit_count() % 2 == 0 for x in new.row_ints())

    @given(ranked_rows(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_restrict_refuses_orthogonal_w0(self, case, data):
        n, canon, rows = case
        dual = _dual_reference(canon, n)
        w = sum_rows(dual, data.draw(st.integers(0, (1 << len(dual)) - 1)))
        with pytest.raises(ValueError, match="already orthogonal"):
            restrict_to_hyperplane(BitMat(n, [BitVec(n, x) for x in rows]), BitVec(n, w))


class TestContains:
    def test_examples(self):
        assert contains(BitMat.from_strings(["11"]), BitVec.from_string("11"))
        assert not contains(BitMat.from_strings(["11"]), BitVec.from_string("01"))

    def test_422_logical(self):
        c2perp = dual_basis(BitMat.from_strings(["1111"]))
        assert contains(c2perp, BitVec.from_string("0110"))


class TestCosetReps:
    def test_trivial_sub(self):
        reps = coset_reps(BitMat.from_strings(["11"]), BitMat.empty(2))
        assert [r.to01() for r in reps] == ["00", "11"]

    def test_full_mod_repetition(self):
        reps = coset_reps(BitMat.identity(2), BitMat.from_strings(["11"]))
        assert reps[0] == BitVec.zeros(2)
        # the nonzero coset is {01, 10}; reducing either against the
        # repetition basis (pivot on qubit 0) leaves 01
        assert [r.to01() for r in reps] == ["00", "01"]

    def test_422_logicals(self):
        sup = dual_basis(BitMat.from_strings(["1111"]))
        sub = BitMat.from_strings(["1111"])
        reps = coset_reps(sup, sub)
        assert len(reps) == 4
        strs = {r.to01() for r in reps}
        assert {"0011", "0110"} <= strs

    @given(bitmats(max_n=8, max_rows=8))
    @settings(max_examples=200)
    def test_reps_cover_quotient_exactly_once(self, sup):
        sup_c, _ = rref(sup)
        if sup_c.num_rows == 0:
            return
        sub = BitMat(sup.n, sup_c.rows[: sup_c.num_rows // 2])
        reps = coset_reps(sup_c, sub)
        red = Reducer(sub)
        # pairwise incongruent
        canon = {red.reduce(r).to01() for r in reps}
        assert len(canon) == len(reps)
        # cover: every span element reduces to one of the reps
        sup_red = Reducer(sup_c)
        for v in span_ints(sup_red.rows):
            assert red.reduce_int(v) in {r.bits for r in reps}


class TestQuotientBasis:
    def test_not_contained_raises(self):
        with pytest.raises(ValueError):
            quotient_basis(BitMat.from_strings(["10"]), BitMat.from_strings(["01"]))


class TestMinWeight:
    def test_422_dz(self):
        sup = dual_basis(BitMat.from_strings(["1111"]))
        sub = BitMat.from_strings(["1111"])
        assert min_weight_excluding(sup, sub) == WeightResult(2, True)

    def test_steane_dz(self):
        h = BitMat.from_strings(STEANE_H)
        assert min_weight_excluding(dual_basis(h), h) == WeightResult(3, True)

    def test_empty_difference(self):
        m = BitMat.from_strings(["11"])
        with pytest.raises(ValueError, match="empty difference"):
            min_weight_excluding(m, m)

    def test_bounded_mode_flag(self):
        # a tiny budget leaves only the rounds that w_max guarantees
        big = BitMat.identity(10)
        small = BitMat.from_strings(["1111111111"])
        res = min_weight_excluding(big, small, w_max=1, budget=4)
        assert res == WeightResult(1, True)
        # parity code minus the repetition code has minimum weight 2: the
        # round that w_max=1 guarantees already lifts the bound to 2
        par = dual_basis(BitMat.from_strings(["1111111111"]))
        rep = BitMat.from_strings(["1111111111"])
        res2 = min_weight_excluding(par, rep, w_max=1, budget=4)
        assert res2 == WeightResult(2, True)
        res3 = min_weight_excluding(par, rep, w_max=3, budget=4)
        assert res3 == WeightResult(2, True)
        # first-order Reed-Muller minus the repetition code has minimum
        # weight 8; the budget stops the search after the rounds w_max=1
        # guarantees, so only the lower bound comes back
        from diagsynth.families import rm_generator

        res4 = min_weight_excluding(rm_generator(1, 4), BitMat.from_strings(["1" * 16]),
                                    w_max=1, budget=2)
        assert res4 == WeightResult(2, False)

    @given(bitmats(n=8, max_rows=8), st.integers(0, 3))
    @settings(max_examples=150)
    def test_exact_matches_bruteforce(self, big, cut):
        big_c, _ = rref(big)
        if big_c.num_rows < 2:
            return
        small = BitMat(8, big_c.rows[: min(cut, big_c.num_rows - 1)])
        res = min_weight_excluding(big_c, small)
        red = Reducer(small)
        brute = min(
            v.bit_count()
            for v in span_ints(big_c.row_ints())
            if not red.contains_int(v)
        )
        assert res == WeightResult(brute, True)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_bruteforce_around_word_size(self, data):
        # n <= 20, and 60..70 where one word turns into two; an exact
        # result is the minimum, a bound lies above w_max and below it
        n = data.draw(st.sampled_from([64, 65]) | st.integers(1, 20) | st.integers(60, 70))
        dim = data.draw(st.integers(1, 14))
        rows = data.draw(st.lists(full_words(n), min_size=dim, max_size=dim))
        big, _ = rref(BitMat(n, [BitVec(n, r) for r in rows]))
        combos = data.draw(st.lists(st.integers(0, (1 << big.num_rows) - 1),
                                    max_size=big.num_rows - 1))
        small = BitMat(n, [
            BitVec(n, sum_rows(big.row_ints(), mask)) for mask in combos
        ])
        w_max = data.draw(st.integers(1, 6))
        budget = data.draw(st.sampled_from([1, 4, 64, 1 << 10, 1 << 26]))
        res = min_weight_excluding(big, small, w_max, budget)
        red = Reducer(small)
        brute = min(
            v.bit_count() for v in span_ints(big.row_ints()) if not red.contains_int(v)
        )
        if res.exact:
            assert res.value == brute
        else:
            assert w_max < res.value <= brute

    def test_rank_deficient_set_wider_than_a_block(self):
        # columns 18..47 all copy message bit 0, so each is an information
        # set of rank 1 whose 17 other rows span 2^17 words, more than one
        # block; the bound reaches the minimum 31 only through them
        n = 48
        rows = [1 | (((1 << 30) - 1) << 18)] + [1 << i for i in range(1, 18)]
        big = BitMat(n, [BitVec(n, r) for r in rows])
        small = BitMat(n, [BitVec(n, r) for r in rows[1:]])
        assert min_weight_excluding(big, small) == WeightResult(31, True)


@pytest.mark.parametrize("r, d, s", [(1, 0, 1), (6, 0, 3), (5, 3, 2), (1, 17, 0), (2, 18, 2)])
def test_weight_class_lists_each_word_once(r, d, s):
    # every XOR of an s-subset of head with a subset of tail, once; past
    # 16 tail rows the blocks step through the rest in Gray-code order
    import itertools
    import random

    from diagsynth.gf2 import _weight_class, int_words

    rng = random.Random(r * 100 + d)
    bits = 70
    head = [rng.getrandbits(bits) for _ in range(r)]
    tail = [rng.getrandbits(bits) for _ in range(d)]
    got = np.concatenate(list(_weight_class(head, tail, s, bits)))
    want = np.concatenate([
        span_words(tail, bits) ^ int_words(sum_rows(head, sum(1 << i for i in combo)), bits)
        for combo in itertools.combinations(range(r), s)
    ])
    assert all(len(block) <= 1 << 16 for block in _weight_class(head, tail, s, bits))
    assert np.array_equal(got[np.lexsort(got.T)], want[np.lexsort(want.T)])


def sum_rows(rows: list[int], mask: int) -> int:
    out = 0
    for i, r in enumerate(rows):
        if (mask >> i) & 1:
            out ^= r
    return out


class TestQrmDistances:
    """Quantum Reed-Muller codes have d_X = 2^(m-r) and d_Z = 2^r."""

    @pytest.mark.parametrize("r, m", [(1, 7), (6, 7), (1, 8), (7, 8)])
    def test_both_sides_exact(self, r, m):
        from diagsynth.families import qrm_code

        d_x, d_z = qrm_code(r, m).distances()
        assert d_x == WeightResult(1 << (m - r), True)
        assert d_z == WeightResult(1 << r, True)

    def test_qrm_2_8_z_side(self):
        from diagsynth.families import qrm_code

        code = qrm_code(2, 8)
        assert min_weight_excluding(code.c2perp, code.z_stab) == WeightResult(4, True)

    def test_128_qubits_under_a_small_budget(self):
        # [[128,21]] used to hang in a C(128, w) search; a 2^20 budget
        # settles d_Z and leaves d_X (32) as a lower bound
        from diagsynth.families import qrm_code

        d_x, d_z = qrm_code(2, 7).distances(budget=1 << 20)
        assert d_z == WeightResult(4, True)
        assert not d_x.exact and 7 <= d_x.value <= 32


class TestSignedWeightCounts:
    @given(
        st.integers(2, 16),
        st.lists(st.integers(1, 1 << 16), max_size=8),
        st.integers(0, 1 << 16),
        st.integers(0, 1 << 16),
    )
    @settings(max_examples=150)
    def test_matches_direct_enumeration(self, n, basis, shift, sign):
        mask = (1 << n) - 1
        basis = [b & mask for b in basis if b & mask]
        basis = list(dict.fromkeys(basis))
        shift &= mask
        sign &= mask
        counts = signed_weight_counts(basis, shift, sign, n)
        direct = [0] * (n + 1)
        for c in span_ints(basis):
            w = (c ^ shift).bit_count()
            direct[w] += -1 if (c & sign).bit_count() & 1 else 1
        assert counts == direct

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_word_arrays_match_direct_enumeration(self, data):
        # 2^12..2^17 elements take the numpy route, past 2^16 in several rows;
        # n up to 130 spans up to three words
        n = data.draw(st.sampled_from([63, 64, 65, 128, 129, 130]) | st.integers(2, 130))
        m = data.draw(st.integers(12, 17))
        basis = [data.draw(full_words(n)) for _ in range(m)]
        shift = data.draw(full_words(n))
        sign = data.draw(full_words(n))
        direct = [0] * (n + 1)
        for c in span_ints(basis):
            direct[(c ^ shift).bit_count()] += -1 if (c & sign).bit_count() & 1 else 1
        assert signed_weight_counts(basis, shift, sign, n) == direct


class TestSpanWords:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_reassemble_span_ints(self, data):
        n = data.draw(st.sampled_from([64, 65, 128, 256]) | st.integers(1, 256))
        basis = data.draw(st.lists(full_words(n), max_size=9))
        words = span_words(basis, n)
        assert words.shape == (1 << len(basis), -(-n // 64))
        for row, want in zip(words.tolist(), span_ints(basis)):
            assert sum(w << (64 * i) for i, w in enumerate(row)) == want
        if n <= 64:
            assert span_words(basis, n)[:, 0].tolist() == span_ints(basis)

    def test_budget_guard(self):
        from diagsynth.errors import BudgetExceeded

        with pytest.raises(BudgetExceeded) as exc:
            span_words([1, 2, 4], 256, budget=4)
        assert exc.value.required_log2 == 3

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_parity_map_matches_dot_products(self, data):
        n = data.draw(st.sampled_from([63, 64, 65, 128, 256]) | st.integers(1, 256))
        basis = data.draw(st.lists(full_words(n), max_size=30))
        svals = data.draw(st.lists(full_words(n) | st.just(0), max_size=8))
        got = apply_parity_map(parity_map(basis, n), int_rows(svals, n))
        want = [
            sum(((b & s).bit_count() & 1) << i for i, b in enumerate(basis))
            for s in svals
        ]
        assert got.tolist() == want


def test_exact_mode_at_dimension_12():
    # full-enumeration mode against brute force at the documented bound
    import random

    rng = random.Random(7)
    n = 14
    rows = [BitVec(n, rng.getrandbits(n) | 1) for _ in range(12)]
    big, _ = rref(BitMat(n, rows))
    small = BitMat(n, big.rows[:2])
    res = min_weight_excluding(big, small)
    red = Reducer(small)
    brute = min(
        v.bit_count()
        for v in span_ints(big.row_ints())
        if not red.contains_int(v)
    )
    assert res == WeightResult(brute, True)


def test_bounded_search_finds_weight_exactly():
    # second-order Reed-Muller words of weight 4 under a tiny budget
    from diagsynth.families import rm_generator

    rm24 = rm_generator(2, 4)
    rep = BitMat.from_strings(["1" * 16])
    res = min_weight_excluding(rm24, rep, w_max=6, budget=2)
    assert res == WeightResult(4, True)
    # the first-order code (min weight 8): the rounds w_max=6 guarantees
    # lift the bound past 8, so the minimum comes back exact
    rm14 = rm_generator(1, 4)
    res2 = min_weight_excluding(rm14, rep, w_max=6, budget=2)
    assert res2 == WeightResult(8, True)
