#!/usr/bin/env python3
"""Self-test of the benchmark harness; run from the repository root:

    python3 perfbench/selftest.py

1. A reduced reports run must pass its checks and print every end-to-end
   metric by name with its unit, matching BENCHMARK.json.
   Every untraced pass must carry speed samples and a positive factor.
2. The traced reduced run must print every per-layer metric with its
   unit, and the module self times plus trace.untraced_s must add up to
   the traced pass time.
3. A run fed a wrong expected value must report failed jobs, a nonzero
   fail_frac and a nonzero exit code.
4. The tracer must report a library function that no longer exists as
   absent instead of crashing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import END_TO_END  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def run(outdir: str, *extra: str) -> tuple[int, list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "reports", "--reduced",
           "--seed", "0", "--seconds", "1", "--out", outdir, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1]) if lines else {}


def printed_with_unit(lines: list[str], name: str, unit: str) -> bool:
    pattern = re.compile(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\b")
    return any(pattern.match(line) for line in lines)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END),
          "BENCHMARK.json end_to_end matches run.py")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER),
          "BENCHMARK.json per_layer matches tracer.py")

    with tempfile.TemporaryDirectory(dir=HERE) as outdir:
        code, lines, result = run(outdir, "--trace", "0")
        check(code == 0 and result.get("correct") is True and result.get("failed") == 0,
              "reduced reports run passes its checks")
        check(set(result.get("metrics", {})) == {n for n, _ in END_TO_END},
              "result carries exactly the end-to-end metrics")
        for name, unit in END_TO_END:
            check(printed_with_unit(lines, name, unit), f"printed {name} in {unit}")
        record = json.loads((Path(outdir) / "reports_seed0_trace0.json").read_text())
        check(all(p["speed_samples"] >= 1 and p["pass_factor"] > 0 for p in record["passes"]),
              "every untraced pass carries speed samples and a factor")

        code, lines, result = run(outdir, "--trace", "1")
        check(code == 0 and result.get("correct") is True, "traced reduced run passes")
        metrics = result.get("metrics", {})
        check(set(metrics) == {n for n, _, _ in PER_LAYER},
              "traced result carries exactly the per-layer metrics")
        missing = [n for n, u, _ in PER_LAYER if not printed_with_unit(lines, n, u)]
        check(not missing, f"every per-layer metric printed with its unit {missing or ''}")
        if metrics:
            selfs = sum(v["value"] for k, v in metrics.items() if k.endswith("self_s"))
            total = selfs + metrics["trace.untraced_s"]["value"]
            wall = metrics["trace.wall_s"]["value"]
            check(abs(total - wall) <= 1e-6 * max(wall, 1.0),
                  f"self times + untraced = traced wall ({total:.6f} vs {wall:.6f} s)")
            check(metrics["report.build_report.calls"]["value"] > 0, "report calls were traced")

        code, lines, result = run(outdir, "--trace", "0", "--wrong-expected")
        frac = [line for line in lines if line.strip().startswith("fail_frac")]
        check(code != 0 and result.get("correct") is False and result.get("failed", 0) >= 1,
              "a wrong expected value fails the run")
        check(bool(frac) and float(frac[0].split()[1]) > 0, "fail_frac rises above 0")

    import diagsynth.gf2
    from tracer import Tracer

    del diagsynth.gf2.span_array  # as if a later version removed it
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    diagsynth.gf2.span_ints([1, 2, 4])
    metrics, absent = tracer.metrics(1.0)
    check("gf2.span_array.calls" in absent and "gf2.span_ints.calls" not in absent,
          "a removed function is reported absent")
    check(metrics["gf2.span_ints.calls"] == 1 and metrics["gf2.span_elems"] == 8,
          "a present function is still counted")

    print("selftest:", "PASS" if not FAILURES else f"{len(FAILURES)} failure(s)")
    return 0 if not FAILURES else 1


if __name__ == "__main__":
    sys.exit(main())
