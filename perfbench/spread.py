"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--against perfbench/out/spread-....json]

For every workload and end-to-end metric it prints the median of the
runs, the quartiles and the spread, which is (q3 - q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``.  A spread is ``ok``
below a third of the metric's bound in ``BENCHMARK.json``, ``wide`` up
to the bound and ``TOO WIDE`` beyond it (``setup_s`` is only shown).
``--against`` compares each median with an earlier file's: a median worse
by more than the bound is marked ``WORSE``.  Seeds run in the outer loop
and workloads in the inner one, so drift in machine load reaches every
workload alike.  With ``--runs 1`` this is one command that prints every
end-to-end metric of every workload.  Results go to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import OUT, quartiles
from workloads import ROOT


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--against", default=None, help="earlier spread file to compare medians with")
    args = p.parse_args(argv)
    names = args.workloads.split(",")

    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in names}
    counts = {w: [0, 0] for w in names}  # attempted, failed
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in names:
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            t0 = time.monotonic()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            counts[w][0] += res["attempted"]
            counts[w][1] += res["failed"]
            for name, m in res["metrics"].items():
                values[w][name].append(m["value"])
            print(f"seed {seed} {w}: {time.monotonic() - t0:.1f} s, "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)

    before = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            before = json.load(fh)["values"]
    print(f"\n{'workload':<13} {'metric':<13} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in names:
        attempted, failed = counts[w]
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            q1, med, q3 = quartiles(values[w][name])
            sp = (q3 - q1) / med
            verdict = "ok" if sp <= bound / 3 else "wide" if sp <= bound else "TOO WIDE"
            if name == "setup_s":
                verdict = "(not gated)"
            if before is not None:
                old = statistics.median(before[w][name])
                change = (med - old) / old
                verdict += f"  vs earlier {change:+.3f}" + ("  WORSE" if change > bound else "")
            print(f"{w:<13} {name:<13} {med:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                  f"{sp:>7.3f} {bound:>6}  {verdict}  [{m['unit']}]")
        print(f"{w:<13} {'fail_ratio':<13} {failed / attempted:>10g}   "
              f"({failed} of {attempted} cells failed)")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"spread-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps({"args": vars(args), "values": values, "counts": counts}, indent=1))
    print(f"\nwrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
