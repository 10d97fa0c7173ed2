"""The CLI's JSON reports, byte for byte, against reports captured before
the refactors that must leave them unchanged.

Each golden is the output of ``--check all --nmax 2 --seed 7 --output
json`` for one surface and bundle.  Regenerate one only for a change that
is meant to alter the reports, and say so.
"""

from pathlib import Path

import pytest

from nesthilb.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CUSTOM = ROOT / "perfbench" / "data" / "custom-plane.json"

CELLS = [
    ("p2", "O", "p2_O"),
    ("p2", "0,0,1", "p2_0_0_1"),
    ("p1xp1", "O", "p1xp1_O"),
    ("p1xp1", "0,0,1,1", "p1xp1_0_0_1_1"),
    ("fa:0", "O", "fa-0_O"),
    ("fa:1", "O", "fa-1_O"),
    ("fa:2", "O", "fa-2_O"),
    ("fa:3", "O", "fa-3_O"),
    (f"file:{CUSTOM}", "L", "custom-plane_L"),
]


@pytest.mark.parametrize("surface,bundle,golden", CELLS, ids=[c[2] for c in CELLS])
def test_json_report_is_byte_identical(surface, bundle, golden, tmp_path):
    out = tmp_path / "report.json"
    code = main(["--surface", surface, "--bundle", bundle, "--check", "all", "--nmax", "2",
                 "--seed", "7", "--output", "json", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"{golden}.json").read_bytes()
