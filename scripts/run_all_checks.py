#!/usr/bin/env python3
"""Run every check suite on both built-in surfaces with the standard
bundle choices and print the reports.

Usage: python3 scripts/run_all_checks.py [nmax] [seed]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nesthilb.cli import main


def run(nmax, seed):
    failures = 0
    for surface, bundles in [
        ("p2", ["O", "0,0,1", "0,0,-1"]),
        ("p1xp1", ["O", "0,0,1,0", "0,0,1,1"]),
    ]:
        for bundle in bundles:
            print(f"=== surface={surface} bundle={bundle} ===")
            code = main(
                ["--surface", surface, "--bundle", bundle, "--check", "all",
                 "--nmax", str(nmax), "--seed", str(seed)]
            )
            failures += code != 0
    return failures


if __name__ == "__main__":
    nmax = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    sys.exit(1 if run(nmax, seed) else 0)
