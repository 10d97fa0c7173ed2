"""Rules on the package source itself."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import nesthilb

SRC = Path(nesthilb.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_no_assert_statements():
    # assert vanishes under python -O; runtime checks raise typed errors
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_configuration_enumeration():
    # every check runs on local terms; these stay defined only as the tests'
    # oracle and because the benchmark trace binds them
    oracle = {"enumerate_configs", "_tangent_character", "_factor_character"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in oracle
    ]
    assert found == []


def test_no_dataclasses_import():
    # importing dataclasses loads inspect, ast, dis and tokenize, and each
    # decorated class execs generated code: most of the package's import time
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert found == []


@pytest.mark.parametrize("module", ["nesthilb", "nesthilb.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    # a fresh isolated interpreter, compared before and after the import so
    # that what site preloads does not count
    probe = (
        f"import sys; before = set(sys.modules); sys.path.insert(0, {str(SRC.parent)!r}); "
        f"import {module}; print(sys.modules['nesthilb'].__file__); "
        "print(sorted(set(sys.modules) - before))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert Path(out[0]).resolve().parent == SRC
    added = set(ast.literal_eval(out[1]))
    assert module in added
    assert added & {"dataclasses", "inspect"} == set()
    # json is loaded by the CLI, for its reports, and not by the package,
    # whose only JSON is a surface descriptor (parsed where it is read)
    assert ("json" in added) == (module == "nesthilb.cli")


def test_descriptor_parses_after_a_bare_package_import():
    # surface_from_json imports json itself, so it works after `import
    # nesthilb` alone; the descriptor is the README's
    descriptor = {"name": "custom-plane", "fixed_points": [
        {"w1": [1, 0], "w2": [0, 1], "bundles": {"L": [0, 0]}},
        {"w1": [-1, 1], "w2": [-1, 0], "bundles": {"L": [-1, 0]}},
        {"w1": [0, -1], "w2": [1, -1], "bundles": {"L": [0, -1]}},
    ]}
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import nesthilb; "
        f"S = nesthilb.toric.surface_from_json({json.dumps(descriptor)!r}); "
        "print(S.name, len(S.charts), [lab for lab, _ in S.named_bundles])"
    )
    out = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert out == ["custom-plane 3 ['L']"]


def test_no_package_attribute_shadows_a_module():
    # a name re-exported on the package would hide the submodule of that
    # name from `import nesthilb.x as m`; a bare import loads no check code
    probe = (
        f"import sys, types; sys.path.insert(0, {str(SRC.parent)!r}); import nesthilb; "
        "print(sorted(m for m in ('nesthilb.integrate', 'nesthilb.verify', 'nesthilb.cli') "
        "if m in sys.modules)); "
        "import nesthilb.integrate as m; print(isinstance(m, types.ModuleType))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert out == ["[]", "True"]


def test_gkm_check_runs_only_where_surfaces_and_bundles_are_made():
    # a bundle is checked once, when it is made; a check per integrate or
    # intersect call would repeat it on every use
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [
            (f"{cls.name}.{node.name}", node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
        ]
        found += [
            f"{path.name}:"
            + next((name for name, d in defs if d.lineno <= node.lineno <= d.end_lineno), "<module>")
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_check_edges"
        ]
    assert sorted(found) == [
        "toric.py:EquivariantLineBundle.__init__",
        "toric.py:surface_from_json",
    ]


def test_benchmark_trace_sites_exist():
    # the traced benchmark patches each (module[:Class], attribute) in
    # perfbench/tracing.py SITES and dies with KeyError on a missing one
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    sites = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "SITES"
    )
    assert sites
    missing = []
    for module, attr, _workload in sites:
        name, _, cls = module.partition(":")
        owner = importlib.import_module(name)
        if cls:
            owner = getattr(owner, cls)
        if attr not in owner.__dict__:
            missing.append(f"{module}.{attr}")
    assert missing == []


# bound in perfbench/tracing.py SITES, but no longer reached by any workload:
# the configuration oracle and its chart substitution
KNOWN_SILENT_SITES = {
    "nesthilb.fixedchar.enumerate_configs on fixed-points",
    "nesthilb.integrate.enumerate_configs on product-pair",
    "nesthilb.integrate._tangent_character on fixed-points",
    "nesthilb.integrate.substitute_chart on fixed-points",
}


def test_silent_trace_sites_are_the_known_ones(monkeypatch):
    # one traced pass per benchmark workload; a site that stops firing on
    # its named workload reports nothing, so the set of silent ones may
    # only shrink
    monkeypatch.syspath_prepend(str(PERFBENCH))
    measure, tracing, workloads = map(importlib.import_module, ("measure", "tracing", "workloads"))
    workloads.import_nesthilb()
    reference = workloads.load_reference()
    silent = set()
    for name, cells in workloads.WORKLOADS.items():
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            result = measure.run_pass(cells, reference[name], 3, tracer)
        assert result["failures"] == [], name
        silent |= {
            f"{module}.{attr} on {workload}"
            for module, attr, workload in tracing.SITES
            if workload == name and tracer.counts[f"{module}.{attr}"] == 0
        }
    assert silent == KNOWN_SILENT_SITES
