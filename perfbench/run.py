#!/usr/bin/env python3
"""diagsynth benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload flagship|reports|wide --seed N \\
        --seconds S --trace 0|1

Run from the root of a diagsynth checkout; the library is imported from
``src/``.  Every measured pass runs in a fresh interpreter (``child.py``)
with one BLAS/OpenMP thread, so each pass pays the cold caches a
command-line user pays.  The gated times are at the machine's reference
speed (``speed.py``): a measured process samples the machine's speed while
it runs, and its raw time is rescaled by that.  The raw times are printed
and recorded too.  The run first times a few set-up-only processes,
then runs passes one after another (a closed loop with one client) until
the next pass would end after ``--seconds``; there is always at least one
pass, and with ``--trace 1`` at least one untraced and one traced pass.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it list every
metric by name with its unit.  A result file with the machine, versions
and all per-pass data goes to ``perfbench/results/``.  The exit code is 0
only if every job ran and every check passed.

``--reduced`` (reports only) runs a small pass; ``--wrong-expected``
corrupts one expected value so that checks must fail.  Both exist for
``selftest.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("flagship", "reports", "wide")
SETUP_SAMPLES = 5  # set-up-only processes per run, after one untimed warm-up
RUN_LIMIT_S = 170.0  # a run must end within 180 s
TAIL_BEYOND = 10  # the tail percentile leaves this many jobs beyond it

# Gated end-to-end metrics (BENCHMARK.json), then figures that are printed
# and recorded but not gated: raw times, which carry the machine's speed
# swings, and stage sums and single-job latencies, which vary by more than
# any allowed bound on a small shared machine.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)
REPORTED = (
    ("raw_setup_s", "s"),
    ("raw_wall_s", "s"),
    ("grow_s", "s"),
    ("certify_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
)


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, mode: str, timeout: float) -> tuple[dict, float]:
    """Spawn one measured process; return its record and its raw set-up
    time, without the speed samples."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
    ]
    if args.reduced:
        cmd.append("--reduced")
    if args.wrong_expected:
        cmd.append("--wrong-expected")
    t_spawn = time.monotonic()
    with subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        try:
            out, err = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise ChildFailed(f"{mode} process exceeded {timeout:.0f} s")
    if proc.returncode != 0 or not out.strip():
        raise ChildFailed(f"{mode} process exited {proc.returncode}: {err.strip()[-2000:]}")
    record = json.loads(out.strip().splitlines()[-1])
    return record, record["t_ready"] - t_spawn - record["setup_paused_s"]


def job_stats(jobs: list) -> dict:
    """Per-pass job statistics: median latency and the tail latency, the
    highest percentile with at least TAIL_BEYOND jobs beyond it.  A pass
    with fewer than 2 * TAIL_BEYOND jobs has no such percentile above the
    median, so its tail is its slowest job."""
    secs = sorted(j[2] for j in jobs)
    n = len(secs)
    if n >= 2 * TAIL_BEYOND:
        rank = n - TAIL_BEYOND  # 1-based rank of the tail job
        tail, pct = secs[rank - 1], 100.0 * rank / n
    else:
        tail, pct = secs[-1], 100.0
    return {
        "jobs": n,
        "p50": statistics.median(secs),
        "tail": tail,
        "tail_percentile": pct,
        "tail_beyond": TAIL_BEYOND if n >= 2 * TAIL_BEYOND else 0,
        "max": secs[-1],
        "max_share": secs[-1] / sum(secs) if sum(secs) else 0.0,
        "grow": sum(j[2] for j in jobs if j[1] == "grow"),
        "certify": sum(j[2] for j in jobs if j[1] == "certify"),
    }


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown (git unavailable)"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "diagsynth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": rev,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def measure(args) -> dict:
    start = time.monotonic()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    failures: list[str] = []
    setups: list[tuple[float, float]] = []  # (raw, at reference speed)
    numpy_version = None
    for i in range(SETUP_SAMPLES + 1):
        record, setup_s = run_child(args, "setup", remaining())
        numpy_version = record["numpy"]
        if i:  # the first process only warms the bytecode and file caches
            setups.append((setup_s, setup_s * record["setup_factor"]))

    modes = ("pass", "traced") if args.trace else ("pass",)
    passes: list[dict] = []
    attempted = failed = 0
    t_measure = time.monotonic()
    longest = 0.0
    while True:
        mode = modes[len(passes) % len(modes)]
        t0 = time.monotonic()
        try:
            record, setup_s = run_child(args, mode, remaining())
        except ChildFailed as exc:
            failures.append(str(exc))
            attempted += 1
            failed += 1
            break
        longest = max(longest, time.monotonic() - t0)
        record["mode"] = mode
        record["setup_s"] = setup_s
        setups.append((setup_s, setup_s * record["setup_factor"]))
        passes.append(record)
        bad = [j for j in record["jobs"] if j[3]]
        missing = record["planned"] - len(record["jobs"])
        attempted += record["planned"]
        failed += len(bad) + missing
        failures += [f"{j[0]}: {'; '.join(j[3])}" for j in bad]
        if missing:
            failures.append(f"{missing} job(s) not run after an earlier job raised")
        elapsed = time.monotonic() - t_measure
        done = len(passes) >= len(modes)
        if done and (elapsed + longest > args.seconds or longest > remaining()):
            break
    return {
        "setups": setups,
        "passes": passes,
        "attempted": max(attempted, 1),
        "failed": failed,
        "failures": failures,
        "numpy": numpy_version,
        "measured_s": time.monotonic() - t_measure,
    }


def end_to_end(m: dict) -> dict:
    plain = [p for p in m["passes"] if p["mode"] == "pass"]
    stats = [job_stats(p["jobs"]) for p in plain]
    med = statistics.median
    return {
        "setup_s": med(ref for _, ref in m["setups"]),
        "wall_s": med(p["wall_s"] * p["pass_factor"] for p in plain),
        "raw_setup_s": med(raw for raw, _ in m["setups"]),
        "raw_wall_s": med(p["wall_s"] for p in plain),
        "grow_s": med(s["grow"] for s in stats),
        "certify_s": med(s["certify"] for s in stats),
        "job_p50_s": med(s["p50"] for s in stats),
        "job_tail_s": med(s["tail"] for s in stats),
        "peak_rss_mb": med(p["rss_mb"] for p in plain),
    }, stats


def per_layer(m: dict) -> tuple[dict, list]:
    traced = [p for p in m["passes"] if p["mode"] == "traced"]
    plain = [p for p in m["passes"] if p["mode"] == "pass"]
    names = traced[0]["layers"]
    out = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(p["wall_s"] for p in plain)
    return out, sorted(set().union(*(p["absent"] for p in traced)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true")
    ap.add_argument("--wrong-expected", action="store_true")
    ap.add_argument("--out", type=Path, default=HERE / "results")
    args = ap.parse_args(argv)
    if args.reduced and args.workload != "reports":
        ap.error("--reduced applies to the reports workload only")
    if not (ROOT / "src" / "diagsynth" / "__init__.py").is_file():
        print(f"error: no diagsynth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        m = measure(args)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not any(p["mode"] == "pass" for p in m["passes"]) or (
        args.trace and not any(p["mode"] == "traced" for p in m["passes"])
    ):
        print("error: no complete pass; " + "; ".join(m["failures"]), file=sys.stderr)
        return 1

    e2e, stats = end_to_end(m)
    absent: list[str] = []
    if args.trace:
        layers, absent = per_layer(m)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    fail_frac = m["failed"] / m["attempted"]
    first = stats[0]

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(m['passes'])} pass(es) in {m['measured_s']:.1f} s, "
          f"{len(m['setups'])} set-up samples")
    print(f"jobs per pass {first['jobs']}; job_tail_s is p{first['tail_percentile']:.1f} "
          f"with {first['tail_beyond']} jobs beyond it"
          + ("" if first["jobs"] >= 2 * TAIL_BEYOND else " (fewer than 20 jobs: the slowest job)")
          + f"; largest job {first['max']:.3f} s = {100 * first['max_share']:.1f}% of job time")
    for name, unit in END_TO_END:
        print(f"  {name:<12} {e2e[name]:.6g} {unit}")
    for name, unit in REPORTED:
        print(f"  {name:<12} {e2e[name]:.6g} {unit}  (not gated)")
    print(f"  {'fail_frac':<12} {fail_frac:.6g} ({m['failed']} of {m['attempted']} jobs)")
    if args.trace:
        for name, spec in metrics.items():
            mark = "  (absent)" if name in absent else ""
            print(f"  {name:<40} {spec['value']:.6g} {spec['unit']}{mark}")
        selfs = sum(v for k, v in layers.items() if k.endswith("self_s"))
        print(f"  accounting: module self times + trace.untraced_s = "
              f"{selfs + layers['trace.untraced_s']:.6f} s vs trace.wall_s {layers['trace.wall_s']:.6f} s")
    for f in m["failures"]:
        print(f"FAILED {f}")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine_info(), "numpy": m["numpy"]},
        "end_to_end": e2e,
        "fail_frac": fail_frac,
        "per_pass_job_stats": stats,
        "setups_raw_and_ref_s": m["setups"],
        "passes": m["passes"],
        "absent": absent,
        "failures": m["failures"],
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"result file: {path}")
    ok = m["failed"] == 0
    print(json.dumps({
        "correct": ok, "attempted": m["attempted"], "failed": m["failed"], "metrics": metrics,
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
