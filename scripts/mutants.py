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
     "reads[key] = tangent.signed_rank() - tops",
     "reads[key] = tangent.signed_rank()",
     "_grading's reads drop the top factors' ranks: entries read u^vdim"),
    ("src/nesthilb/integrate.py",
     "f.bundle is None and (grading.top",
     "(grading.top",
     "_nonzero_terms drops terms of twisted factors, such as case2's taut(K) top factor"),
    ("src/nesthilb/integrate.py",
     '(grading.top or f.kind == "top")',
     "True",
     "_nonzero_terms treats every factor as top, so drops terms of an untwisted total factor"),
    ("src/nesthilb/integrate.py",
     "c *= top_chern_value(char, X, Y, twist)",
     "pass",
     "the series path skips the top factors' top Chern values"),
    ("src/nesthilb/integrate.py",
     "if 0 in vals[:len(tangent)]:",
     "if False:",
     "the fused top-degree read skips the pole check on tangent weights"),
    ("src/nesthilb/integrate.py",
     "if 0 in vals[:len(tangent)]:",
     "if 0 in vals[len(tangent):]:",
     "the fused top-degree read checks the factor weights for a pole, not the tangent weights"),
    ("src/nesthilb/integrate.py",
     "a * X + b * Y + twists[j] for a, b, j in factor]",
     "a * X + b * Y for a, b, j in factor]",
     "the fused top-degree read drops the factor twist"),
    ("src/nesthilb/integrate.py",
     "(den if m > 0 else num).extend([tangent.setdefault(w, len(tangent))] * abs(m))\n"
     "            for j, c in enumerate(cs):\n"
     "                for (a, b), m in c.terms.items():\n"
     "                    fnum.extend([factor.setdefault((a, b, j), len(factor))] * m)",
     "(den if m > 0 else num).extend([tangent.setdefault(w, len(tangent))])\n"
     "            for j, c in enumerate(cs):\n"
     "                for (a, b), m in c.terms.items():\n"
     "                    fnum.extend([factor.setdefault((a, b, j), len(factor))])",
     "the weight table's index lists drop the multiplicity: each weight counts once per term"),
    ("src/nesthilb/integrate.py",
     'hilb_tangent_char(Z1) if f.klass == "tangent"',
     'em_char(Z1, Z2) if f.klass == "tangent"',
     "_local_factor reads the tangent class of Z1 as the extension class em(Z1, Z2)"),
    ("src/nesthilb/integrate.py",
     "else Z1  # taut",
     "else Z1 + Z2  # taut",
     "_local_factor reads taut of Z1 as Z1 + Z2, the tautological class of both factors"),
    ("src/nesthilb/integrate.py",
     "if any(m < 0 for m in chars[j].terms.values()):",
     "if False:",
     "integrate refuses a virtual top factor only at the first draw, without naming it"),
    ("src/nesthilb/integrate.py",
     "if tangent.zero_multiplicity():",
     "if False:",
     "integrate leaves a zero tangent weight to the evaluation, after a point is drawn"),
    ("src/nesthilb/toric.py",
     "_PAIRING_NPOINTS = 2",
     "_PAIRING_NPOINTS = 1",
     "intersect certifies a pairing from one specialization point"),
    ("src/nesthilb/sampling.py",
     "for v in values[1:])",
     "for v in values[1:2])",
     "certified_value compares only the first two of its points"),
    ("src/nesthilb/verify.py",
     "value, rhs[(n1, n2)])",
     "value, value)",
     "theorem7 reports its lhs as the rhs"),
    ("src/nesthilb/verify.py",
     "(n1, n2, lhs.value, rhs.value)",
     "(n1, n2, lhs.value, lhs.value)",
     "theorem5 reports the nested value as the rhs"),
    ("src/nesthilb/verify.py",
     "(n, 0, lhs.values[(n, 0)], (-1) ** n * rhs.values[(n, 0)])",
     "(n, 0, lhs.values[(n, 0)], lhs.values[(n, 0)])",
     "case2 reports the nested value as the rhs"),
    ("src/nesthilb/verify.py",
     "t.signed_rank() == sum(key) and not t.zero_multiplicity()",
     "t.signed_rank() == sum(key)",
     "case3's local check ignores the zero-weight multiplicity"),
    ("src/nesthilb/verify.py",
     "for x, fine in zip(local[p], fs) if fine]",
     "for x, fine in zip(local[p], fs)]",
     "case3 counts failing configurations against all pairs, so its message reads 0 of N"),
    ("src/nesthilb/verify.py",
     "for k in ((n, n), key)",
     "for k in (key,)",
     "case3 skips the (n, n) local pairs"),
    ("src/nesthilb/verify.py",
     "return all(lhs == rhs for _, _, lhs, rhs in self.entries)",
     "return True",
     "CheckReport.passed holds whatever its entries say"),
    ("src/nesthilb/cli.py",
     "return 0 if all(r.passed or r.informational for r in reports) else 1",
     "return 0",
     "cli.run exits 0 whatever the reports say"),
    ("src/nesthilb/verify.py",
     "if value.denominator != 1:",
     "if value.denominator < 0:",
     "zprod_table's integrality refusal is switched off"),
    ("src/nesthilb/fixedchar.py",
     "_add_em(out, -1, Z1, Z2)",
     "_add_em(out, -1, Z2, Z1)",
     "the nested tangent subtracts em(Z2, Z1) in place of em(Z1, Z2)"),
    ("src/nesthilb/fixedchar.py",
     "in hilb_tangent_char(Z2).terms.items()",
     "in hilb_tangent_char(Z1).terms.items()",
     "the nested tangent reads Z1's Hilbert tangent twice, in place of T(Z1) + T(Z2)"),
    ("src/nesthilb/partitions.py",
     "sum(p > i for p in mu.parts)",
     "sum(p >= i for p in mu.parts)",
     "box_char's column lengths are off by one: column i carries the length of column i - 1"),
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
