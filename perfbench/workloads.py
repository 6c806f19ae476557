"""The three workloads: seeded inputs, the timed pass, and its checks.

Each workload has a ``setup(seed, wrong_expected)`` that builds the inputs
and expected values, and a ``run_pass(inputs, rec)`` that makes the
library calls through ``Recorder.run``.  A job is one public library call,
the unit a command-line user waits for.  Jobs are tagged ``grow`` (code
construction and growth), ``certify`` (the verdict the workload exists
for) or ``check`` (further verdicts on intermediate codes).

Library functions are always looked up through their module at call time
(``gencoeff.is_preserved``, never a name imported from it), so a tracer
that rebinds module attributes sees every call.

``wrong_expected`` corrupts one expected value on purpose; the self-test
uses it to prove that the checks can fail.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from diagsynth import families, gencoeff, gf2, report, synth
from diagsynth import gates as dgates
from diagsynth.csscode import CssCode
from diagsynth.cyclo import ONE
from diagsynth.gates import LocalDiag
from diagsynth.gf2 import BitMat, BitVec


class Abort(Exception):
    """A job the rest of the pass depends on raised."""


@dataclass
class Job:
    name: str
    kind: str
    seconds: float
    problems: list[str]


@dataclass
class Recorder:
    jobs: list[Job] = field(default_factory=list)
    # seconds spent outside the library so far (speed samples), which a
    # job's time leaves out
    paused: Callable[[], float] = lambda: 0.0

    def run(self, name, kind, fn, check=None, fatal=True):
        """Time one library call, then check its result outside the timing."""
        t0, p0 = time.perf_counter(), self.paused()
        try:
            result = fn()
        except Exception as exc:
            dt = time.perf_counter() - t0 - (self.paused() - p0)
            self.jobs.append(Job(name, kind, dt, [f"raised {type(exc).__name__}: {exc}"]))
            if fatal:
                raise Abort(name) from exc
            return None
        dt = time.perf_counter() - t0 - (self.paused() - p0)
        problems: list[str] = []
        if check is not None:
            try:
                check(result, problems)
            except Exception as exc:  # a malformed result is a wrong result
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        self.jobs.append(Job(name, kind, dt, problems))
        return result


def expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _check_preserved(norm_one: bool = False):
    def check(res, problems):
        expect(problems, "preserved", res.preserved, True)
        if norm_one:
            expect(problems, "trivial-row norm is one", res.norm == ONE, True)
    return check


def _permuted(code: CssCode, perm: list[int]) -> CssCode:
    """The same code with qubit q moved to position perm[q]."""
    def move(row: int) -> int:
        out = 0
        for q, p in enumerate(perm):
            out |= ((row >> q) & 1) << p
        return out

    def mat(m: BitMat) -> BitMat:
        return BitMat(code.n, [BitVec(code.n, move(r)) for r in m.row_ints()])

    return CssCode(code.n, mat(code.x_stab), mat(code.z_stab), BitVec(code.n, move(code.y.bits)))


# ----------------------------------------------------------------------
# flagship: acceptance criterion 6, the [[4,2,2]] -> [[64,15,4]] pipeline


def setup_flagship(seed: int, wrong_expected: bool = False) -> dict:
    fb32 = families.family_2l_l_2(5)
    # The certificate samples the 15 unit logicals plus 100 draws, with
    # replacement, from random.Random(seed).  Criterion 6's ">= 115" holds
    # at its seed 0, where all draws are distinct; other seeds repeat a
    # draw now and then (seed 1 certifies 113), so the exact count is
    # recomputed for the seed.
    rng = random.Random(seed)
    draws = {rng.randrange(1, 1 << 15) for _ in range(100)}
    return {
        "seed": seed,
        "sampled_gammas": len(draws | {1 << i for i in range(15)}),
        "q24": families.qrm_code(2, 4),
        "q24_gate": dgates.transversal_zrot(16, 2),
        "fb32": fb32,
        "ccz_factors": 16 if wrong_expected else 15,
        "planned": 9,
    }


def pass_flagship(inp: dict, rec: Recorder) -> None:
    def check_pipeline(res, problems):
        expect(problems, "start", (res.start.n, res.start.k), (4, 2))
        expect(problems, "steps", (res.concat_count, res.removal_count, res.addition_count), (4, 19, 6))
        pre, inter = res.intermediate("remove_z"), res.intermediate("add_x")
        expect(problems, "before removals", (pre.n, pre.k), (64, 2))
        expect(problems, "before additions", (inter.n, inter.k), (64, 21))
        expect(problems, "final", (res.final.n, res.final.k), (64, 15))
        direct = families.qrm_code(2, 6)
        expect(problems, "final equals qrm(2,6)",
               (res.final.x_stab == direct.x_stab, res.final.z_stab == direct.z_stab), (True, True))

    def check_dz(want):
        def check(dists, problems):
            d_z = dists[1]
            expect(problems, "d_z", (d_z.value, d_z.exact), (want, True))
        return check

    def check_certificate(cert, problems):
        expect(problems, "logical level", cert["logical_level"], 3)
        expect(problems, "CCZ factors", cert["ccz_factor_count"], inp["ccz_factors"])
        expect(problems, "CCZ product form", cert["ccz_product_form"], True)
        expect(problems, "sampled logicals", cert["sampled_gamma_count"], inp["sampled_gammas"])
        expect(problems, "coefficients match", cert["coefficients_match_prediction"], True)
        expect(problems, "syndrome pairs zero", cert["syndrome_pairs_zero"], True)
        expect(problems, "syndrome pairs", cert["syndrome_pair_count"], 100)

    res = rec.run("qrm_pipeline(1,2)", "grow", lambda: families.qrm_pipeline(1, 2), check_pipeline)
    inter = res.intermediate("add_x")
    for label, code in (
        ("[[64,2]]", res.intermediate("remove_z")), ("[[64,21]]", inter), ("[[64,15]]", res.final)
    ):
        rec.run(f"is_preserved {label}", "check",
                lambda: gencoeff.is_preserved(code, res.gate), _check_preserved())
    rec.run("distances [[64,21]]", "check", lambda: inter.distances(w_max=4), check_dz(2))
    rec.run("distances [[64,15]]", "check", lambda: res.final.distances(w_max=4), check_dz(4))
    rec.run("qrm_pipeline_certificate", "certify",
            lambda: families.qrm_pipeline_certificate(res, 100, 100, seed=inp["seed"]),
            check_certificate)
    rec.run("is_preserved qrm(2,4)", "check",
            lambda: gencoeff.is_preserved(inp["q24"], inp["q24_gate"]), _check_preserved(True))
    fb32 = inp["fb32"]
    rec.run("is_preserved [[32,5,2]]", "check",
            lambda: gencoeff.is_preserved(fb32.code, fb32.gate), _check_preserved(True))


# ----------------------------------------------------------------------
# wide: n > 64, the prefix of qrm_pipeline(1, 3) and a [[128,7]] check

WIDE_CONCATS = 5
WIDE_REMOVALS = 5


def setup_wide(seed: int, wrong_expected: bool = False) -> dict:
    rng = random.Random(seed)
    base = families.qrm_code(1, 3)
    grown = base
    for _ in range(WIDE_CONCATS):
        grown = synth.concatenate(grown)
    # Removal candidates: a seeded full-rank combination of the complement
    # basis of the concatenated C1 inside RM(2, 8), the space the pipeline
    # grows toward.  Every such removal keeps the code preserved, because
    # the codes between C2 and RM(2, 8) inherit preservation from qrm(2, 8).
    comp = gf2.quotient_basis(families.rm_generator(2, 8), grown.c1).row_ints()
    w0s: list[int] = []
    pivots: dict[int, int] = {}
    while len(w0s) < WIDE_REMOVALS:
        mask = rng.getrandbits(len(comp))
        red = mask
        for bit in sorted(pivots, reverse=True):
            if red >> bit & 1:
                red ^= pivots[bit]
        if not red:
            continue
        pivots[red.bit_length() - 1] = red
        w0 = 0
        for j, row in enumerate(comp):
            if mask >> j & 1:
                w0 ^= row
        w0s.append(w0)
    q7 = families.qrm_code(1, 7)
    return {
        "base": base,
        "gate": dgates.transversal_zrot(256, 4),
        "w0s": [BitVec(256, w) for w in w0s],
        "q7": _permuted(q7, rng.sample(range(q7.n), q7.n)),
        "q7_gate": dgates.transversal_zrot(128, 7),
        "first_k": 4 if wrong_expected else 3,
        "planned": WIDE_CONCATS + WIDE_REMOVALS + 1,
    }


def pass_wide(inp: dict, rec: Recorder) -> None:
    code = inp["base"]
    for _ in range(WIDE_CONCATS):
        want = (code.n * 2, code.k)
        code = rec.run(
            f"concatenate -> n={want[0]}", "grow", lambda: synth.concatenate(code),
            lambda c, problems, want=want: expect(problems, "[[n,k]]", (c.n, c.k), want),
        )
    gate = inp["gate"]
    k = inp["first_k"]
    for w0 in inp["w0s"]:
        k += 1

        def check(res, problems, k=k):
            expect(problems, "admissible", res.admissible, True)
            expect(problems, "k", res.code.k, k)

        res = rec.run(f"remove_z -> k={k}", "grow",
                      lambda: synth.remove_z(code, gate, w0, check="auto"), check)
        code = res.code
    rec.run("is_preserved [[128,7]]", "certify",
            lambda: gencoeff.is_preserved(inp["q7"], inp["q7_gate"]), _check_preserved(True))


# ----------------------------------------------------------------------
# reports: many short report jobs, as `diagsynth report --oracle` runs them

# scripts/reproduce_families.py's list, with the logical level and the
# template the report identifies (None: no standard template matches)
FAMILY_RUNS = (
    ("steane", (), 2, "P'"),
    ("four22", (), 2, "CZ"),
    ("pqrm", (2,), 2, "P'"),
    ("pqrm", (3,), 3, "T'"),
    ("two_l", (2,), 2, "CZ"),
    ("two_l", (3,), 3, None),
    ("two_l", (4,), 4, None),
    ("two_l", (5,), 5, None),
    ("two_l", (6,), 6, None),
    ("tri2", (2,), 3, "(T')^tensor2"),
    ("tri2", (3,), 4, "(sqrtT')^tensor2"),
    ("qrm", (2, 4), 2, None),
    ("qrm", (1, 3), 3, None),
)

# Random strata: (gate kind, n, k, dim C1, jobs).  Dimensions are fixed per
# stratum so that a job's cost depends little on the seed.  dim C1 > n/2
# sends the coefficient walk to the Z side, where a quadratic-form gate's
# Pauli coefficients are dense sums over 2^n; dim C1 <= n/2 stays on the
# X side.  Block gates use 2- and 3-qubit blocks; transversal rotations
# are the contrast that the weight-affine fast path handles.
RANDOM_STRATA = (
    ("qfd", 8, 2, 5, 8),
    ("qfd", 9, 2, 6, 8),
    ("qfd", 9, 3, 6, 4),
    ("qfd", 10, 2, 4, 8),
    ("qfd", 12, 3, 6, 8),
    ("block", 12, 2, 6, 12),
    ("block", 12, 3, 8, 12),
    ("block", 10, 2, 4, 12),
    ("rot", 12, 2, 7, 8),
    ("rot", 10, 3, 5, 8),
)
ORACLE_MAX_N = 16


def random_code(rng: random.Random, n: int, k: int, dim_c1: int) -> CssCode:
    """Random CSS code with the given n, k and dim C1 and a nonzero
    character vector: C1 is a random subspace, C2 a random subspace of C1."""
    while True:
        c1, _ = gf2.rref(BitMat(n, [BitVec(n, rng.getrandbits(n)) for _ in range(dim_c1)]))
        if c1.num_rows != dim_c1:
            continue
        rows = c1.row_ints()
        combos = []
        for _ in range(dim_c1 - k):
            acc, mask = 0, rng.getrandbits(dim_c1)
            for j, row in enumerate(rows):
                if mask >> j & 1:
                    acc ^= row
            combos.append(BitVec(n, acc))
        c2, _ = gf2.rref(BitMat(n, combos))
        if c2.num_rows != dim_c1 - k:
            continue
        y = BitVec(n, rng.randrange(1, 1 << n))
        return CssCode(n, c2, gf2.dual_basis(c1), y)


def random_gate(rng: random.Random, kind: str, n: int):
    if kind == "rot":
        return dgates.transversal_zrot(n, rng.randint(1, 3))
    if kind == "qfd":
        level = rng.randint(2, 3)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randrange(1 << level)
        return dgates.qfd_gate(n, level, rows)
    qubits = rng.sample(range(n), n)
    blocks = []
    while qubits:
        b = min(rng.choice((2, 3)), len(qubits))
        level = rng.randint(1, 3)
        exps = tuple(rng.randrange(1 << level) for _ in range(1 << b))
        blocks.append((qubits[:b], LocalDiag(b, level, exps)))
        qubits = qubits[b:]
    return dgates.block_gate(n, blocks)


def setup_reports(seed: int, wrong_expected: bool = False, reduced: bool = False) -> dict:
    rng = random.Random(seed)
    runs = [list(r) for r in FAMILY_RUNS]
    strata = RANDOM_STRATA
    if reduced:
        runs = runs[:5]
        strata = [(kind, n, k, d, 1) for kind, n, k, d, _ in strata[::3]]
    if wrong_expected:
        runs[0][2] += 1
    randoms = []
    for kind, n, k, dim_c1, count in strata:
        for _ in range(count):
            randoms.append((f"{kind} n={n} k={k}", random_code(rng, n, k, dim_c1),
                            random_gate(rng, kind, n)))
    return {"runs": runs, "randoms": randoms, "planned": 2 * len(runs) + len(randoms)}


def _check_oracle(rep, problems, code):
    if code.n <= ORACLE_MAX_N:
        oracle = rep.get("oracle")
        expect(problems, "oracle verdicts agree", oracle and oracle["verdicts_agree"], True)
        if oracle and rep.get("preserved"):
            expect(problems, "oracle row deviation within tol",
                   oracle["max_row_deviation"] <= oracle["tol"], True)


def pass_reports(inp: dict, rec: Recorder) -> None:
    for name, params, want_level, want_template in inp["runs"]:
        tag = " ".join([name, *map(str, params)])

        def check_build(fb, problems):
            expect(problems, "[[n,k]] matches the spec",
                   (fb.code.n, fb.code.k), (fb.spec.expected_n, fb.spec.expected_k))

        fb = rec.run(f"family {tag}", "grow",
                     lambda: families.build_family(name, list(params)), check_build, fatal=False)
        if fb is None:
            continue

        def check_report(rep, problems, fb=fb, want_level=want_level, want_template=want_template):
            expect(problems, "code", (rep["code"]["n"], rep["code"]["k"]), (fb.code.n, fb.code.k))
            expect(problems, "preserved", rep.get("preserved"), True)
            logical = rep.get("logical", {})
            expect(problems, "logical level", logical.get("level"), want_level)
            expect(problems, "template", logical.get("template"), want_template)
            d = rep["code"]
            expect(problems, "distance", (min(d["d_x"]["value"], d["d_z"]["value"]),
                                          d["d_x"]["exact"] and d["d_z"]["exact"]),
                   (fb.spec.expected_d, True))
            _check_oracle(rep, problems, fb.code)

        rec.run(f"report {tag}", "certify",
                lambda: report.build_report(fb.code, fb.gate, include_oracle=fb.code.n <= ORACLE_MAX_N),
                check_report, fatal=False)
    for label, code, gate in inp["randoms"]:
        def check_random(rep, problems, code=code):
            expect(problems, "code", (rep["code"]["n"], rep["code"]["k"]), (code.n, code.k))
            expect(problems, "has a verdict", rep.get("preserved") in (True, False), True)
            _check_oracle(rep, problems, code)

        rec.run(f"report {label}", "certify",
                lambda: report.build_report(code, gate, include_oracle=code.n <= ORACLE_MAX_N),
                check_random, fatal=False)


WORKLOADS = {
    "flagship": (setup_flagship, pass_flagship),
    "reports": (setup_reports, pass_reports),
    "wide": (setup_wide, pass_wide),
}

# The speed.py loop whose factor rescales each workload's pass: flagship
# spends most of its time in the numpy weight kernels (n <= 64), the others
# in pure-Python code.
SPEED_LOOP = {"flagship": "numpy", "reports": "python", "wide": "python"}
