"""One measured process: set up a workload and, unless only the set-up is
being timed, run one pass of it and print a JSON record on stdout.

    python3 perfbench/child.py --workload W --seed N --mode setup|pass|traced

``t_ready`` is ``time.monotonic()`` when the inputs are ready; the parent
subtracts its own monotonic time at spawn to get the set-up time, which
therefore includes interpreter start and the imports.

Machine-speed samples (``speed.py``) run from the start of set-up to the
end of an untraced pass; a traced pass runs without them, so that they do
not enter the span accounting.  The record gives the seconds the samples
took (left out of every time) and, for set-up and pass, the reference
seconds per raw second.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import speed


def main() -> int:
    sampler = speed.Sampler()
    sampler.start()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    ap.add_argument("--reduced", action="store_true")
    ap.add_argument("--wrong-expected", action="store_true")
    args = ap.parse_args()

    import numpy

    import workloads
    from tracer import Tracer

    tracer = Tracer()
    if args.mode == "traced":
        tracer.install()
    setup, run_pass = workloads.WORKLOADS[args.workload]
    kwargs = {"reduced": True} if args.reduced else {}
    inputs = setup(args.seed, args.wrong_expected, **kwargs)
    t_ready = time.monotonic()
    setup_spent = sampler.spent_s()
    # Warm samples at the end of set-up; the first sample, taken cold at
    # process start, only warms the loops and is left out of the factors.
    sampler.burst(speed.READY_SAMPLES)
    pass_first = sampler.count() - speed.READY_SAMPLES
    record = {
        "t_ready": t_ready,
        "numpy": numpy.__version__,
        "setup_paused_s": setup_spent,
        "setup_factor": sampler.factor("python", 1),
    }
    if args.mode != "pass":
        sampler.stop()
    if args.mode != "setup":
        rec = workloads.Recorder(paused=sampler.spent_s)
        tracer.enabled = args.mode == "traced"
        t0, p0 = time.perf_counter(), sampler.spent_s()
        try:
            run_pass(inputs, rec)
        except workloads.Abort:
            pass
        wall = time.perf_counter() - t0 - (sampler.spent_s() - p0)
        tracer.enabled = False
        record.update(
            wall_s=wall,
            planned=inputs["planned"],
            jobs=[[j.name, j.kind, j.seconds, j.problems] for j in rec.jobs],
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if args.mode == "pass":
            sampler.stop()
            factors = {name: sampler.factor(name, pass_first) for name in speed.LOOPS}
            record.update(
                pass_factor=factors[workloads.SPEED_LOOP[args.workload]],
                pass_factors=factors,
                speed_samples=sampler.count() - pass_first,
            )
        else:
            metrics, absent = tracer.metrics(wall)
            record.update(layers=metrics, absent=absent)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
