#!/usr/bin/env python3
"""Run the tier-1 tests against a fixed catalogue of source mutants.

Usage: python3 scripts/mutants.py

Each mutant is one exact text edit ``(file, old, new, why)``.  It is
applied to a fresh copy of the repository under the system temp dir, and
the tier-1 command runs there with ``-x`` and without
``tests/test_source_rules.py`` (whose rules on the source text would kill
some mutants for the wrong reason).  A mutant is killed when a test fails
and survives when every test passes.  The unmutated copy runs first and
must pass, so that no mutant counts as killed by a failure it did not
cause.

Exit status: 0 when every mutant is killed; 1 when one survives, or the
unmutated copy fails; 2, before anything runs, when some ``old`` text
does not occur exactly once in its file, so the catalogue tracks the code,
or when arguments are given (it takes none).
Stdlib only; each mutant takes from a few seconds to one tier-1 run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, old, new, why)
CATALOGUE = [
    ("src/nesthilb/charalg.py",
     "v = a * x + b * y + twist",
     "v = a * x + b * y",
     "chern_useries drops the line bundle's twist"),
    ("src/nesthilb/charalg.py",
     "top = min(top + 1, cutoff)",
     "top = min(top + 1, cutoff - 1)",
     "chern_useries caps the running product one degree short of the cutoff"),
    ("src/nesthilb/charalg.py",
     "e[k] -= v * e[k - 1]",
     "e[k] += v * e[k - 1]",
     "chern_useries divides by (1 - u w') for a negative multiplicity"),
    ("src/nesthilb/integrate.py",
     "_NPOINTS = 3",
     "_NPOINTS = 1",
     "integrate certifies a sum from one specialization point"),
    ("src/nesthilb/integrate.py",
     "if k1[0] + k2[0] > n1",
     "if k1[0] + k2[0] >= n1",
     "_times drops every product term at the outer size n1"),
    ("src/nesthilb/integrate.py",
     "series = grid.get(key + degrees)",
     "series = grid.get(key)",
     "_read ignores the v-degrees that an entry reads"),
    ("src/nesthilb/integrate.py",
     "if (r := tuple(map(sub, rest, local))) in before",
     "if (r := tuple(map(sub, rest, local))) in before or True",
     "_witness accepts a local term whose remainder no earlier chart product holds"),
    ("src/nesthilb/toric.py",
     "_PAIRING_NPOINTS = 2",
     "_PAIRING_NPOINTS = 1",
     "intersect certifies a pairing from one specialization point"),
    ("src/nesthilb/sampling.py",
     "for v in values[1:])",
     "for v in values[1:2])",
     "certified_value compares only the first two of its points"),
    ("src/nesthilb/verify.py",
     "if value.denominator != 1:",
     "if value.denominator < 0:",
     "zprod_table's integrality refusal is switched off"),
    ("src/nesthilb/fixedchar.py",
     "(-1, one, two)",
     "(-1, two, one)",
     "the nested tangent subtracts em(Z2, Z1) in place of em(Z1, Z2)"),
    ("src/nesthilb/fixedchar.py",
     "col2.get(i, 0) - j - 1)",
     "col2.get(i, 0) - j)",
     "em_char's leg exponent for a box of Z1 is off by one"),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_source_rules.py"]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")


def stale_entries() -> list[str]:
    """Catalogue entries whose ``old`` text does not occur exactly once."""
    return [
        f"{file}: {old!r} occurs {n} times"
        for file, old, _, _ in CATALOGUE
        if (n := (ROOT / file).read_text(encoding="utf-8").count(old)) != 1
    ]


def run_tier1(edit: tuple[str, str, str] | None) -> int:
    """The tier-1 exit code in a fresh copy of the repository, with
    ``edit`` (file, old, new) applied, or unmutated when it is None."""
    with tempfile.TemporaryDirectory(prefix="nesthilb-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        if edit is not None:
            file, old, new = edit
            path = copy / file
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(TIER1, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, check=False)
        return done.returncode


def main() -> int:
    if sys.argv[1:]:
        print(__doc__)
        return 2
    stale = stale_entries()
    if stale:
        print("stale catalogue:", *stale, sep="\n  ")
        return 2
    start = time.perf_counter()
    if run_tier1(None) != 0:
        print("the unmutated copy fails tier-1; no mutant can be judged")
        return 1
    print(f"unmutated copy passes ({time.perf_counter() - start:.1f} s)")
    survived = 0
    for file, old, new, why in CATALOGUE:
        start = time.perf_counter()
        code = run_tier1((file, old, new))
        survived += code == 0
        verdict = "SURVIVED" if code == 0 else f"killed (exit {code})"
        print(f"{verdict:<16} {time.perf_counter() - start:5.1f} s  {file}: {why}")
    print(f"{len(CATALOGUE) - survived} killed, {survived} survived of {len(CATALOGUE)}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
