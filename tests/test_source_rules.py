"""Rules on the package source itself."""

import ast
from pathlib import Path

import nesthilb

SRC = Path(nesthilb.__file__).resolve().parent


def test_no_assert_statements():
    # assert vanishes under python -O; runtime checks raise typed errors
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
