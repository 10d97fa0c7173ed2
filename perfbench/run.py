"""The nesthilb benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it times set-up in
fresh interpreters, then runs the workload's passes in a process of its
own (``measure.py``) and reports the end-to-end metrics.  With
``--trace 1`` the same process also runs one traced pass and the
per-layer metrics are reported instead.  Every cell's answers are
checked against ``reference.json``; a wrong or failing cell counts in
``failed``.

Human-readable lines (metrics with units, pass count and quartiles,
fail ratio, top layers by self time, run metadata) come first; the last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``.  A
record of the run, and the spans of a traced run, go to
``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import HERE, ROOT, SRC, WORKLOADS

OUT = HERE / "out"
DEADLINE_S = 170  # the whole run, set-up included, ends well within 180 s
SETUP_PROBES = 9  # after one unmeasured probe that fills the bytecode cache


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _run_child(cmd: list[str], timeout: float) -> str:
    """Run ``cmd`` in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited with {proc.returncode}")
    return out


def setup_seconds(workload: str, deadline: float) -> list[float]:
    """Set-up time of fresh interpreters, one sample per probe."""
    cells = WORKLOADS[workload]
    mode = "api" if cells[0].theorem5 is not None else "cli"
    pairs = sorted({(c.surface_selector(), c.bundle) for c in cells})
    cmd = [sys.executable, "-I", str(HERE / "setup_probe.py"), str(SRC), mode]
    cmd += [x for pair in pairs for x in pair]
    samples = []
    for i in range(SETUP_PROBES + 1):
        out = _run_child(cmd, deadline - time.monotonic())
        if i:
            samples.append(float(out.strip().splitlines()[-1]))
    return samples


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    """Non-blank lines of ``src/nesthilb`` (the code-size figure the roadmap tracks)."""
    return sum(
        1
        for path in sorted((SRC / "nesthilb").glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def metadata() -> dict:
    return {
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "src_nonblank_lines": src_lines(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "nesthilb" / "__init__.py").is_file():
        print(f"error: no nesthilb sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    meta = metadata()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setup = [] if args.trace else setup_seconds(args.workload, deadline)
    cmd = [
        sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--spans-out", str(OUT / f"{stem}.spans.tsv.gz")]
    raw = json.loads(_run_child(cmd, deadline - time.monotonic()).strip().splitlines()[-1])
    meta["loadavg_end"] = list(os.getloadavg())

    attempted, failed = raw["attempted"], len(raw["failures"])
    walls, cpus = raw["wall_s"], raw["cpu_s"]
    lines = [
        f"workload {args.workload}  seed {args.seed}  passes {len(walls)}  "
        f"cells attempted {attempted}  failed {failed}  fail_ratio {failed / attempted:g}",
    ]
    lines += [f"  FAILED {f}" for f in raw["failures"]]
    if args.trace:
        metrics = {name: (raw["layers"][name], unit) for name, unit in declared.items()}
        lines.append(
            f"traced pass {raw['traced_wall_s']:.4f} s vs untraced median "
            f"{statistics.median(walls):.4f} s over {len(walls)} passes, {raw['spans']} spans"
        )
        selfs = sorted(
            ((v, k[: -len(".self_s")]) for k, v in raw["layers"].items() if k.endswith(".self_s")),
            reverse=True,
        )
        lines.append("top layers by self time: " + ", ".join(f"{k} {v:.4f} s" for v, k in selfs))
        lines += [f"  {name:<28} {v:.6g} {u}" for name, (v, u) in metrics.items()]
    else:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": raw["peak_rss_mib"],
        }
        metrics = {name: (values[name], unit) for name, unit in declared.items()}
        for name, samples in (("wall_s", walls), ("cpu_s", cpus), ("setup_s", setup)):
            q1, q2, q3 = quartiles(samples)
            lines.append(
                f"  {name:<13} {q2:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(samples)})"
            )
        lines.append(f"  {'peak_rss_mib':<13} {raw['peak_rss_mib']:.1f} MiB")
    lines.append("meta " + json.dumps(meta))
    print("\n".join(lines))

    record = {"args": vars(args), "meta": meta, "raw": raw, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
