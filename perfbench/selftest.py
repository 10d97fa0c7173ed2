"""Self-checks of the benchmark: the correctness gate and the traced run.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's own test run.  It takes
about a minute, most of it one traced pass of every workload.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest

import measure
import tracing
import workloads

workloads.import_nesthilb()
REFERENCE = workloads.load_reference()
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _pass(name: str, seed: int = 0, tracer=None, reference=REFERENCE) -> dict:
    return measure.run_pass(workloads.WORKLOADS[name], reference[name], seed, tracer)


def _entries(result: dict) -> list:
    return [o.entries for o in result["outcomes"]]


@pytest.fixture(scope="module")
def traced() -> dict:
    """One traced pass of every workload: name -> (tracer, pass result)."""
    runs = {}
    for name in workloads.WORKLOADS:
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            runs[name] = (tracer, _pass(name, seed=3, tracer=tracer))
    return runs


def test_reference_lists_every_cell_of_every_workload():
    assert sorted(REFERENCE) == sorted(workloads.WORKLOADS)
    for name, cells in workloads.WORKLOADS.items():
        assert [r["cell"] for r in REFERENCE[name]] == [c.label for c in cells]
        assert all(r["exit"] == 0 and r["entries"] for r in REFERENCE[name])


def test_benchmark_json_names_match_what_the_harness_reports(traced):
    tracer, _ = traced["small-sweep"]
    reported = set(tracing.layer_metrics(tracer)) | {"trace.overhead_s"}
    assert reported == {m["name"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_reference_entry_raises_fail_ratio():
    assert _pass("small-sweep")["failures"] == []
    bad = copy.deepcopy(REFERENCE)
    bad["small-sweep"][4]["entries"][2][3] = "12345"
    result = _pass("small-sweep", reference=bad)
    assert len(result["failures"]) / result["attempted"] > 0
    assert result["failures"][0].startswith(workloads.WORKLOADS["small-sweep"][4].label)


def test_different_seeds_give_identical_entries():
    first, second = _pass("small-sweep", seed=1), _pass("small-sweep", seed=2)
    assert first["failures"] == second["failures"] == []
    assert _entries(first) == _entries(second)


def test_traced_cells_return_the_untraced_entries(traced):
    for name, (_, result) in traced.items():
        assert result["failures"] == [], name  # reference.json was captured untraced
    assert _entries(traced["small-sweep"][1]) == _entries(_pass("small-sweep", seed=3))


def test_every_wrapper_fires_on_its_named_workload(traced):
    silent = [
        f"{module}.{attr} on {workload}"
        for module, attr, workload in tracing.SITES
        if traced[workload][0].counts[f"{module}.{attr}"] == 0
    ]
    assert silent == []


def test_wrappers_are_removed_after_the_traced_run(traced):
    integrate = sys.modules["nesthilb.integrate"]
    charalg = sys.modules["nesthilb.charalg"]
    assert integrate.euler_value is charalg.euler_value
    assert "traced" not in charalg.USeries.__mul__.__name__


def test_layer_accounting(traced):
    for name, (tracer, _) in traced.items():
        m = tracing.layer_metrics(tracer)
        assert m["sampling.useful_ratio"] == 1.0, name
        assert m["integrate.points"] == 3 * m["integrate.calls"], name
        # self times of all layers add up to the time of the outermost spans
        roots = sum(
            tracer.end[i] - tracer.start[i]
            for i in range(len(tracer.start))
            if tracer.parent[i] < 0
        )
        selfs = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
        assert selfs == pytest.approx(roots, rel=1e-6), name
        assert all(tracer.end[i] >= tracer.start[i] for i in range(len(tracer.start)))


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        workloads.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    cmd = SPEC["command"] + ["--workload", "small-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
