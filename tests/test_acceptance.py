"""Acceptance suite.

Runs every acceptance criterion at its stated (zero, exact) tolerance
and prints one pass/fail line per criterion.  Run with `pytest -s
tests/test_acceptance.py -v` to see the lines as they appear.
"""

import json

import pytest

from nesthilb.charalg import Character
from nesthilb.cli import main as cli_main
from nesthilb.fixedchar import (
    em_char,
    enumerate_configs,
    hilb_tangent_char,
    nested_tangent_char,
)
from nesthilb.integrate import (
    IntegrandSpec,
    _tangent_character,
    integrate_hilb,
    total_chern_em,
    total_chern_tangent,
)
from nesthilb.partitions import box_char, partitions_of
from nesthilb.toric import (
    canonical_bundle,
    intersect,
    line_bundle,
    surface_p1xp1,
    surface_p2,
)
from nesthilb.verify import case2_check, theorem5_check, theorem7_check


def _surfaces_and_bundles():
    S2 = surface_p2()
    Q = surface_p1xp1()
    return [
        (S2, [S2.bundle("O"), line_bundle(S2, [0, 0, 1]), line_bundle(S2, [0, 0, -1])]),
        (Q, [Q.bundle("O"), line_bundle(Q, [0, 0, 1, 0]), line_bundle(Q, [0, 0, 1, 1])]),
    ]


def _report(criterion, ok):
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


class TestAcceptance:
    def test_1_generating_function_tables(self):
        """Localization tables equal product-formula tables for n1 <= 3."""
        ok = True
        for S, bundles in _surfaces_and_bundles():
            for M in bundles:
                report = theorem7_check(S, M, 3)
                ok = ok and report.passed
        # spot values for the plane with the trivial twist
        S = surface_p2()
        r = theorem7_check(S, S.bundle("O"), 2)
        entries = {(n1, n2): lhs for n1, n2, lhs, _ in r.entries}
        ok = ok and entries[(1, 0)] == -9
        ok = ok and entries[(1, 1)] == 3
        ok = ok and entries[(2, 0)] == 36
        _report("1 (closed-formula reproduction)", ok)

    def test_2_nested_vs_product(self):
        """Nested integral equals product integral with top Chern factor."""
        ok = True
        for S, bundles in _surfaces_and_bundles():
            for M in bundles:
                for n1 in range(3):
                    for n2 in range(n1 + 1):
                        ok = ok and theorem5_check(S, M, n1, n2).passed
        _report("2 (nested vs product identity)", ok)

    def test_3_hilbert_scheme_reduction(self):
        """Dual-path equality through the tautological canonical twist."""
        ok = True
        for S, bundles in _surfaces_and_bundles():
            for M in bundles[:2]:
                report = case2_check(S, M, 3)
                ok = ok and report.passed and len(report.entries) == 4
        _report("3 (inner-empty reduction)", ok)

    def test_4_property_suite(self):
        ok = True
        # (a) + (b): dimension and isolatedness over all configs, n1 <= 4
        for S in (surface_p2(), surface_p1xp1()):
            for n1 in range(5):
                for n2 in range(n1 + 1):
                    for cfg in enumerate_configs(S, n1, n2):
                        tangent = _tangent_character(S, cfg, "nested")
                        ok = ok and tangent.signed_rank() == n1 + n2
                        ok = ok and tangent.zero_multiplicity() == 0
        # (c): diagonal reduction, all partitions of n <= 6
        for n in range(7):
            for mu in partitions_of(n):
                Z = box_char(mu)
                ok = ok and nested_tangent_char(Z, Z) == hilb_tangent_char(Z)
        # (d): virtual rank of the extension class, sizes up to 5
        for n1 in range(6):
            for n2 in range(6):
                for mu1 in partitions_of(n1):
                    for mu2 in partitions_of(n2):
                        v = em_char(box_char(mu1), box_char(mu2))
                        ok = ok and v.signed_rank() == n1 + n2
        _report("4 (property suite)", ok)

    def test_5_calibration(self):
        spec = IntegrandSpec("product", (total_chern_tangent(),))
        ok = integrate_hilb(surface_p2(), 1, spec).value == 3
        ok = ok and integrate_hilb(surface_p1xp1(), 1, spec).value == 4
        K2 = canonical_bundle(surface_p2())
        KQ = canonical_bundle(surface_p1xp1())
        ok = ok and intersect(surface_p2(), K2, K2) == 9
        ok = ok and intersect(surface_p1xp1(), KQ, KQ) == 8
        _report("5 (sign-convention calibration)", ok)

    def test_6_worker_determinism(self, tmp_path):
        outputs = []
        for w in ("1", "4", "8"):
            path = tmp_path / f"w{w}.json"
            code = cli_main(
                ["--surface", "p1xp1", "--check", "all", "--nmax", "1",
                 "--seed", "17", "--workers", w, "--output", "json",
                 "--out", str(path)]
            )
            outputs.append((code, path.read_bytes()))
        ok = all(code == 0 for code, _ in outputs)
        ok = ok and outputs[0][1] == outputs[1][1] == outputs[2][1]
        _report("6 (worker-count determinism)", ok)
