"""The benchmark's workloads, how one cell runs, and the correctness gate.

A *cell* is one check invocation; a *pass* runs every cell of a workload
once, one after another, in this process.  CLI cells call
``nesthilb.cli.main`` in-process with ``--output json`` so their entries
can be compared; the API cell calls ``nesthilb.verify.theorem5_check``.
Every call goes through the module attribute, so trace wrappers installed
on the module are seen.

Each cell's ``(check, n1, n2, lhs, rhs)`` entries and exit code are
compared with ``reference.json``.  The answers do not depend on the seed
(it only picks specialization points), so one reference serves every
seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"


def import_nesthilb():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "nesthilb" / "__init__.py").is_file():
        raise ImportError(f"no nesthilb sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nesthilb
    import nesthilb.cli

    if Path(nesthilb.__file__).resolve().parent != SRC / "nesthilb":
        raise ImportError(f"nesthilb imported from {nesthilb.__file__}, not {SRC}")
    return nesthilb


@dataclass(frozen=True)
class Cell:
    """One check invocation.

    CLI cells pass ``args`` after ``--surface``/``--bundle``; the API cell
    (``theorem5`` set) calls ``theorem5_check(S, M, n1, n2, workers=1)``.
    """

    surface: str
    bundle: str
    args: tuple[str, ...] = ()
    theorem5: tuple[int, int] | None = None

    @property
    def label(self) -> str:
        if self.theorem5 is not None:
            return f"api theorem5_check {self.surface} {self.bundle} {self.theorem5}"
        return " ".join(("cli", self.surface, self.bundle) + self.args)

    def surface_selector(self) -> str:
        """Selector with descriptor paths made absolute against the checkout."""
        if self.surface.startswith("file:"):
            return "file:" + str(ROOT / self.surface[len("file:"):])
        return self.surface


def _cli(surface: str, bundle: str, flags: str) -> Cell:
    return Cell(surface, bundle, tuple(flags.split()))


_SWEEP = "--check all --nmax 1 --workers 1"

WORKLOADS: dict[str, tuple[Cell, ...]] = {
    "nested-table": (
        _cli("p2", "0,0,1", "--check theorem7 --nmax 4 --workers 1"),
        _cli("p1xp1", "0,0,1,1", "--check theorem7 --nmax 4 --workers 1"),
    ),
    "product-pair": (Cell("p1xp1", "0,0,1,0", theorem5=(3, 3)),),
    "fixed-points": (_cli("p1xp1", "O", "--check case3 --nmax 7"),),
    "small-sweep": (
        _cli("p2", "O", _SWEEP),
        _cli("p2", "0,0,1", _SWEEP),
        _cli("p2", "0,0,-1", _SWEEP),
        _cli("p1xp1", "O", _SWEEP),
        _cli("p1xp1", "0,0,1,0", _SWEEP),
        _cli("p1xp1", "0,0,1,1", _SWEEP),
        _cli("fa:2", "O", _SWEEP),
        _cli("fa:3", "0,0,1,0", _SWEEP),
        _cli("file:perfbench/data/custom-plane.json", "L", _SWEEP),
    ),
}


@dataclass
class Outcome:
    exit: int | None
    entries: list[list] | None
    error: str | None = None


def run_cell(cell: Cell, seed: int) -> Outcome:
    """Run one cell; exceptions become an outcome with ``error`` set."""
    try:
        if cell.theorem5 is not None:
            return _run_api(cell, seed)
        return _run_cli(cell, seed)
    except Exception as exc:  # a raising cell is a failed cell, not a crash
        return Outcome(None, None, f"{type(exc).__name__}: {exc}")


def _run_cli(cell: Cell, seed: int) -> Outcome:
    cli = sys.modules["nesthilb.cli"]
    argv = [
        "--surface", cell.surface_selector(), "--bundle", cell.bundle,
        *cell.args, "--output", "json", "--seed", str(seed),
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0 and not out.getvalue():
        return Outcome(code, None, err.getvalue().strip())
    doc = json.loads(out.getvalue())
    entries = [
        [check["name"], e["n1"], e["n2"], e["lhs"], e["rhs"]]
        for check in doc["checks"]
        for e in check["entries"]
    ]
    return Outcome(code, entries)


def _run_api(cell: Cell, seed: int) -> Outcome:
    toric = sys.modules["nesthilb.toric"]
    verify = sys.modules["nesthilb.verify"]
    S = getattr(toric, f"surface_{cell.surface}")()
    M = toric.line_bundle(S, [int(c) for c in cell.bundle.split(",")])
    n1, n2 = cell.theorem5
    report = verify.theorem5_check(S, M, n1, n2, seed=seed, workers=1)
    entries = [["theorem5", a, b, str(lhs), str(rhs)] for a, b, lhs, rhs in report.entries]
    return Outcome(0 if report.passed else 1, entries)


def load_reference() -> dict[str, list[dict]]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def cell_failure(outcome: Outcome, expected: dict) -> str | None:
    """Why the cell failed against its reference record, or None if it passed."""
    if outcome.error is not None:
        return outcome.error
    if outcome.exit != 0:
        return f"exit code {outcome.exit}"
    if outcome.exit != expected["exit"]:
        return f"exit code {outcome.exit}, reference {expected['exit']}"
    if outcome.entries != expected["entries"]:
        return f"entries {outcome.entries} differ from reference {expected['entries']}"
    return None
