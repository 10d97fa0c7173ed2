"""Run one workload's passes in this process and print the raw samples.

    python3 perfbench/measure.py --workload NAME --seed N --seconds S --trace 0|1

Started by ``run.py`` as a process of its own, so its peak RSS and its
reaped pool workers belong to the workload alone.  Passes run until
``--seconds`` have elapsed (at least one).  With ``--trace 1`` the
untraced passes get half the time, then one traced pass follows; its
spans are written under ``perfbench/out``.  The last stdout line is a
JSON object of samples for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time

import tracing
import workloads


def _cpu_s() -> float:
    """CPU seconds of this process plus every reaped child (pool workers)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(cells, expected, seed: int, tracer=None) -> dict:
    """Run every cell once; wall and CPU seconds, and failures with reasons."""
    gc.collect()
    failures = []
    outcomes = []
    cpu0, t0 = _cpu_s(), time.perf_counter()
    for i, cell in enumerate(cells):
        if tracer is not None:
            tracer.cell = i
        outcomes.append(workloads.run_cell(cell, seed))
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    for cell, outcome, ref in zip(cells, outcomes, expected):
        why = workloads.cell_failure(outcome, ref)
        if why is not None:
            failures.append(f"{cell.label}: {why}")
    return {"wall_s": wall, "cpu_s": cpu, "attempted": len(cells), "failures": failures,
            "outcomes": outcomes}


def run_passes(cells, expected, seed: int, seconds: float) -> list[dict]:
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(cells, expected, seed))
    return passes


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans-out", default=None, help="gzip file for the traced run's spans")
    args = p.parse_args(argv)

    workloads.import_nesthilb()
    cells = workloads.WORKLOADS[args.workload]
    expected = workloads.load_reference()[args.workload]
    if [r["cell"] for r in expected] != [c.label for c in cells]:
        raise SystemExit(f"reference.json does not list the cells of {args.workload}")

    budget = args.seconds / 2 if args.trace else args.seconds
    passes = run_passes(cells, expected, args.seed, budget)
    out = {
        "wall_s": [q["wall_s"] for q in passes],
        "cpu_s": [q["cpu_s"] for q in passes],
        "attempted": sum(q["attempted"] for q in passes),
        "failures": [f for q in passes for f in q["failures"]],
    }
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = run_pass(cells, expected, args.seed, tracer)
        out["attempted"] += traced["attempted"]
        out["failures"] += traced["failures"]
        layers = tracing.layer_metrics(tracer)
        layers["trace.overhead_s"] = traced["wall_s"] - statistics.median(out["wall_s"])
        out["layers"] = layers
        out["traced_wall_s"] = traced["wall_s"]
        out["spans"] = len(tracer.start)
        if args.spans_out:
            tracer.write(args.spans_out)
    else:
        me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        out["peak_rss_mib"] = (me + kids) / 1024  # ru_maxrss is in KiB on Linux
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
