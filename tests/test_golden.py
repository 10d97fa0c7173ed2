"""The CLI's JSON reports, byte for byte, against reports captured before
the refactors that must leave them unchanged.

Most goldens are the output of ``--check all --nmax 2 --seed 7 --output
json`` for one surface and bundle; the ``*_case3_7`` ones are ``--check
case3 --nmax 7``, whose ``configs_evaluated`` counts every fixed point of
the nested Hilbert schemes up to n = 7; ``p1xp1_0_0_1_0_all_4`` is
``--check all --nmax 4``, where theorem5's product side and zprod drop
most local pairs as identically zero.  Regenerate one only for a change
that is meant to alter the reports, and say so.
"""

from pathlib import Path

import pytest

from nesthilb.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CUSTOM = ROOT / "perfbench" / "data" / "custom-plane.json"

CELLS = [
    ("p2", "O", "all", 2, "p2_O"),
    ("p2", "0,0,1", "all", 2, "p2_0_0_1"),
    ("p1xp1", "O", "all", 2, "p1xp1_O"),
    ("p1xp1", "0,0,1,1", "all", 2, "p1xp1_0_0_1_1"),
    ("fa:0", "O", "all", 2, "fa-0_O"),
    ("fa:1", "O", "all", 2, "fa-1_O"),
    ("fa:2", "O", "all", 2, "fa-2_O"),
    ("fa:3", "O", "all", 2, "fa-3_O"),
    (f"file:{CUSTOM}", "L", "all", 2, "custom-plane_L"),
    ("p2", "O", "case3", 7, "p2_case3_7"),
    ("p1xp1", "O", "case3", 7, "p1xp1_case3_7"),
    ("p1xp1", "0,0,1,0", "all", 4, "p1xp1_0_0_1_0_all_4"),
]


@pytest.mark.parametrize("surface,bundle,check,nmax,golden", CELLS, ids=[c[4] for c in CELLS])
def test_json_report_is_byte_identical(surface, bundle, check, nmax, golden, tmp_path):
    out = tmp_path / "report.json"
    code = main(["--surface", surface, "--bundle", bundle, "--check", check, "--nmax", str(nmax),
                 "--seed", "7", "--output", "json", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"{golden}.json").read_bytes()
