#!/usr/bin/env python3
"""Recompute the product-side generating series tables that are pinned
as regression goldens in tests/test_verify.py.

Usage: python3 scripts/zprod_goldens.py [nmax]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nesthilb.toric import surface_p1xp1, surface_p2
from nesthilb.verify import zprod_table


def run(nmax):
    for S in (surface_p2(), surface_p1xp1()):
        for label in ("O", "K"):
            table = zprod_table(S, S.bundle(label), nmax)
            print(f"({S.name!r}, {label!r}): {{")
            for key, value in table.values.items():
                print(f"    {key}: {value},")
            print("},")


if __name__ == "__main__":
    run(int(sys.argv[1]) if len(sys.argv) > 1 else 2)
