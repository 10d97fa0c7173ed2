"""Rules on the package source itself."""

import ast
import importlib
from pathlib import Path

import nesthilb

SRC = Path(nesthilb.__file__).resolve().parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
