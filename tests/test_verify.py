import sys
from fractions import Fraction

import pytest

import nesthilb.verify
from nesthilb.charalg import LocalCharacter
from nesthilb.cli import main
from nesthilb.errors import InconsistentTangent, NestHilbError
from nesthilb.toric import (
    canonical_bundle,
    line_bundle,
    surface_hirzebruch,
    surface_p1xp1,
    surface_p2,
)
from nesthilb.verify import (
    case2_check,
    case3_check,
    theorem5_check,
    theorem7_check,
    theorem7_lhs,
    theorem7_rhs,
    zprod_table,
)


def expand_by_hand_plane_trivial(nmax):
    """Independent expansion of (1-q1)^9 (1-q1 q2)^-3 (1-q1^2 q2)^9 ...
    for the plane with the trivial twist, done termwise with plain
    binomials."""
    from math import comb

    coeffs = {}
    # (1 - q1)^9, (1 - q1^2 q2)^9, (1 - q1^3 q2^2)^9 and the inverse
    # cubes of (1 - (q1 q2)^n); total q1-degree <= nmax <= 3
    series = {(0, 0): Fraction(1)}

    def mul(mon, coeff_fn, kmax):
        nonlocal series
        fac = {}
        for k in range(kmax + 1):
            fac[(mon[0] * k, mon[1] * k)] = coeff_fn(k)
        out = {}
        for (a1, a2), c1 in series.items():
            for (b1, b2), c2 in fac.items():
                if a1 + b1 <= nmax:
                    key = (a1 + b1, a2 + b2)
                    out[key] = out.get(key, 0) + c1 * c2
        series = out

    for n in range(1, nmax + 1):
        mul((n, n - 1), lambda k: comb(9, k) * (-1) ** k, nmax)
        mul((n, n), lambda k: comb(k + 2, 2), nmax)  # (1-x)^-3
    return series


class TestProductFormulaSide:
    def test_plane_trivial_exponents_and_spot_values(self):
        S = surface_p2()
        rhs = theorem7_rhs(S, S.bundle("O"), 2)
        assert rhs.entries[(0, 0)] == 1
        assert rhs.entries[(1, 0)] == -9
        assert rhs.entries[(1, 1)] == 3
        assert rhs.entries[(2, 0)] == 36

    def test_plane_matches_hand_expansion(self):
        S = surface_p2()
        rhs = theorem7_rhs(S, S.bundle("O"), 3)
        byhand = expand_by_hand_plane_trivial(3)
        for key, value in rhs.entries.items():
            assert value == byhand.get(key, 0), key

    def test_quadric_trivial(self):
        S = surface_p1xp1()
        rhs = theorem7_rhs(S, S.bundle("O"), 1)
        # A = 8, B = -4
        assert rhs.entries[(1, 0)] == -8
        assert rhs.entries[(1, 1)] == 4

    def test_non_integral_pairing_is_an_engine_error(self, monkeypatch):
        monkeypatch.setattr(nesthilb.verify, "intersect", lambda *a, **k: Fraction(1, 2))
        S = surface_p2()
        with pytest.raises(NestHilbError, match=r"A=1/2.* on p2"):
            theorem7_rhs(S, S.bundle("O"), 1)

    def test_empty_product(self):
        S = surface_p1xp1()
        M = line_bundle(S, [0, 0, 1, 1])
        assert theorem7_rhs(S, M, 0).entries == {(0, 0): Fraction(1)}


class TestGeneratingFunctionMatch:
    def test_plane_small(self):
        S = surface_p2()
        for M in (S.bundle("O"), line_bundle(S, [0, 0, 1])):
            report = theorem7_check(S, M, 2)
            assert report.passed, report.entries

    def test_quadric_small(self):
        S = surface_p1xp1()
        for M in (S.bundle("O"), line_bundle(S, [0, 0, 1, 0])):
            report = theorem7_check(S, M, 2)
            assert report.passed, report.entries


class TestReachOfTheVertexProduct:
    @pytest.mark.parametrize(
        "make,coeffs", [(surface_p2, [0, 0, 1]), (surface_p1xp1, [0, 0, 1, 1])]
    )
    def test_theorem7_nmax_6_matches_closed_form(self, make, coeffs):
        S = make()
        M = line_bundle(S, coeffs)
        lhs = theorem7_lhs(S, M, 6)
        assert lhs.entries == theorem7_rhs(S, M, 6).entries
        assert len(lhs.entries) == 28


class TestNestedVsProduct:
    def test_trivial_case(self):
        r = theorem5_check(surface_p2(), surface_p2().bundle("O"), 0, 0)
        assert r.entries[0][2] == 1 and r.entries[0][3] == 1

    def test_plane_10(self):
        r = theorem5_check(surface_p2(), surface_p2().bundle("O"), 1, 0)
        assert r.passed
        assert r.entries[0][2] == 9

    def test_plane_twisted_11(self):
        S = surface_p2()
        r = theorem5_check(S, line_bundle(S, [0, 0, 1]), 1, 1)
        assert r.passed

    def test_informational_flag(self):
        # the identity is stated for Fano surfaces, and F_2 is not Fano
        S = surface_hirzebruch(2)
        r = theorem5_check(S, S.bundle("O"), 1, 0)
        assert r.informational and r.passed

    def test_workers_keyword_validated(self):
        S = surface_p2()
        with pytest.raises(ValueError, match="workers"):
            theorem5_check(S, S.bundle("O"), 1, 0, workers=0)


class TestHilbertSchemeReduction:
    def test_n0_both_sides_one(self):
        r = case2_check(surface_p2(), surface_p2().bundle("O"), 0)
        assert r.entries[0][2] == 1 and r.entries[0][3] == 1

    def test_plane_n1(self):
        r = case2_check(surface_p2(), surface_p2().bundle("O"), 1)
        assert r.passed
        assert r.entries[0][2] == 9

    def test_quadric_n1(self):
        r = case2_check(surface_p1xp1(), surface_p1xp1().bundle("O"), 1)
        assert r.passed
        assert r.entries[0][2] == 8

    def test_twisted(self):
        S = surface_p1xp1()
        r = case2_check(S, line_bundle(S, [0, 0, 1, 1]), 2)
        assert r.passed


class TestDimensionConsistency:
    def test_small_n(self):
        r = case3_check(surface_p2(), 2)
        assert r.passed
        assert r.entries == tuple((n + 1, n, 2 * n + 1, 2 * n + 1) for n in range(3))
        assert r.configs_evaluated == 3 + 12 + 39

    def test_failure_names_the_configuration(self, monkeypatch, capsys):
        # the package attribute nesthilb.integrate is the function
        integrate_module = sys.modules["nesthilb.integrate"]
        real = integrate_module._local_tangent

        def one_weight_short(Z1, Z2, mode):
            tangent = real(Z1, Z2, mode)
            if Z1.signed_rank() == 2:  # every local pair whose outer partition has size 2
                tangent = tangent + LocalCharacter.one()
            return tangent

        monkeypatch.setattr(integrate_module, "_local_tangent", one_weight_short)
        with pytest.raises(InconsistentTangent) as err:
            case3_check(surface_p2(), 1)
        message = str(err.value)
        assert "case3 on p2 at (2, 1): 6 of 12 configurations fail" in message
        assert "[[2]/[1], []/[], []/[]]" in message
        assert "signed rank 4 (expected 3)" in message
        assert "zero-weight multiplicity 1" in message
        assert main(["--surface", "p2", "--check", "case3", "--nmax", "1"]) == 3
        assert message in capsys.readouterr().err


# engine-computed goldens: integral, specialization-constant values
# frozen after review (no closed-form oracle exists for this series)
ZPROD_GOLDEN = {
    ("p2", "O"): {
        (0, 0): 1, (1, 0): 9, (1, 1): 3,
        (2, 0): 36, (2, 1): 36, (2, 2): 9,
    },
    ("p1xp1", "O"): {
        (0, 0): 1, (1, 0): 8, (1, 1): 4,
        (2, 0): 28, (2, 1): 40, (2, 2): 14,
    },
    ("p2", "K"): {
        (0, 0): 1, (1, 0): 0, (1, 1): 3,
        (2, 0): 0, (2, 1): 0, (2, 2): 9,
    },
}


class TestProductSeriesGoldens:
    def test_frozen_values(self):
        for (sname, blabel), expected in ZPROD_GOLDEN.items():
            S = surface_p2() if sname == "p2" else surface_p1xp1()
            M = S.bundle(blabel)
            table = zprod_table(S, M, 2)
            assert {k: int(v) for k, v in table.entries.items()} == expected

    def test_integrality_enforced(self):
        table = zprod_table(surface_p2(), canonical_bundle(surface_p2()), 1)
        assert all(v.denominator == 1 for v in table.entries.values())
