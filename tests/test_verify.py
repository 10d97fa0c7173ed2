import ast
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nesthilb.integrate as integrate_module
import nesthilb.verify
from nesthilb.charalg import Character
from nesthilb.cli import main, run_checks
from nesthilb.errors import InconsistentTangent, InvalidNesting, NestHilbError
from nesthilb.toric import (
    EquivariantLineBundle,
    canonical_bundle,
    intersect,
    line_bundle,
    surface_hirzebruch,
    surface_p1xp1,
    surface_p2,
)
from nesthilb.verify import (
    _eta_product,
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


def brute_eta_product(factors, nmax):
    """prod (1 - q1^m1 q2^m2)^E by repeated series products: E times by
    (1 - x) for E >= 0, -E times by the geometric series of 1/(1 - x)."""
    series = {(0, 0): 1}
    for (m1, m2), expo in factors:
        steps = range(nmax // max(m1, m2) + 1)
        one = {(0, 0): 1, (m1, m2): -1} if expo >= 0 else {(k * m1, k * m2): 1 for k in steps}
        for _ in range(abs(expo)):
            out = {}
            for (a, b), c in series.items():
                for (da, db), d in one.items():
                    if a + da <= nmax and b + db <= nmax:
                        out[(a + da, b + db)] = out.get((a + da, b + db), 0) + c * d
            series = out
    return {key: c for key, c in series.items() if c}


class TestEtaProduct:
    @given(
        st.lists(
            st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(-6, 6))
            .filter(lambda f: f[0] != (0, 0)),
            max_size=5,
        ),
        st.integers(0, 8),
    )
    @settings(max_examples=150, deadline=None)
    @example([((1, 0), 0), ((1, 1), -6), ((2, 1), 6)], 8)
    @example([((1, 0), 9), ((1, 1), -3)], 3)
    def test_matches_brute_force_series_products(self, factors, nmax):
        fast = {key: c for key, c in _eta_product(factors, nmax).items() if c}
        assert fast == brute_eta_product(factors, nmax)

    @pytest.mark.parametrize("A,B", [(9, -3), (8, -4), (0, 0), (-6, 6), (3, -6)])
    def test_theorem7_factors(self, A, B):
        nmax = 6
        factors = [(m, e) for n in range(1, nmax + 1) for m, e in (((n, n - 1), A), ((n, n), B))]
        expected = brute_eta_product(factors, nmax)
        assert {key: c for key, c in _eta_product(factors, nmax).items() if c} == expected


class TestProductFormulaSide:
    def test_plane_trivial_exponents_and_spot_values(self):
        S = surface_p2()
        rhs = theorem7_rhs(S, S.bundle("O"), 2)
        assert rhs[(0, 0)] == 1
        assert rhs[(1, 0)] == -9
        assert rhs[(1, 1)] == 3
        assert rhs[(2, 0)] == 36

    def test_plane_matches_hand_expansion(self):
        S = surface_p2()
        rhs = theorem7_rhs(S, S.bundle("O"), 3)
        byhand = expand_by_hand_plane_trivial(3)
        for key, value in rhs.items():
            assert value == byhand.get(key, 0), key

    def test_quadric_trivial(self):
        S = surface_p1xp1()
        rhs = theorem7_rhs(S, S.bundle("O"), 1)
        # A = 8, B = -4
        assert rhs[(1, 0)] == -8
        assert rhs[(1, 1)] == 4

    def test_non_integral_pairing_is_an_engine_error(self, monkeypatch):
        # K^2 = 1/2, K.M = M^2 = 0: a constant would cancel in A = K^2 - K.M
        pairings = iter([Fraction(1, 2), Fraction(0), Fraction(0)])
        monkeypatch.setattr(nesthilb.verify, "intersect", lambda *a, **k: next(pairings))
        S = surface_p2()
        with pytest.raises(NestHilbError, match=r"A=1/2.* on p2"):
            theorem7_rhs(S, S.bundle("O"), 1)

    def test_empty_product(self):
        S = surface_p1xp1()
        M = line_bundle(S, [0, 0, 1, 1])
        assert theorem7_rhs(S, M, 0) == {(0, 0): Fraction(1)}

    def test_bundle_from_another_surface_rejected(self):
        S = surface_p2()
        M = line_bundle(surface_p1xp1(), [0, 0, 1, 0])
        match = r"bundle 'O\(0,0,1,0\)' was made on surface 'p1xp1', but is used on surface 'p2'"
        with pytest.raises(ValueError, match=match):
            theorem7_rhs(S, M, 2)
        with pytest.raises(ValueError, match=match):
            theorem7_check(S, M, 2)

    @pytest.mark.parametrize("make", [surface_p2, surface_p1xp1, lambda: surface_hirzebruch(2)],
                             ids=["p2", "p1xp1", "fa:2"])
    def test_exponents_are_bilinear_in_intersection_numbers(self, make):
        # A = <K, K-M> and B + e = <K-M, M>, with K - M built weight by weight
        S = make()
        K = canonical_bundle(S)
        KK = intersect(S, K, K)
        for coeffs in product((-1, 0, 1), repeat=len(S.rays)):
            M = line_bundle(S, list(coeffs))
            KmM = EquivariantLineBundle("K-M", tuple(k - m for k, m in zip(K.weights, M.weights)), S)
            KM, MM = intersect(S, K, M), intersect(S, M, M)
            assert intersect(S, K, KmM) == KK - KM, coeffs
            assert intersect(S, KmM, M) == KM - MM, coeffs


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
        assert lhs.values == theorem7_rhs(S, M, 6)
        assert len(lhs.values) == 28

    @pytest.mark.parametrize(
        "make,coeffs", [(surface_p2, [0, 0, 1]), (surface_p1xp1, [0, 0, 1, 1])]
    )
    def test_theorem7_check_passes_at_nmax_8(self, make, coeffs):
        # the top-degree read keeps nmax-8 tables to a fraction of a second
        S = make()
        report = theorem7_check(S, line_bundle(S, coeffs), 8)
        assert report.passed
        assert len(report.entries) == 45

    @pytest.mark.parametrize(
        "make,coeffs", [(surface_p2, [0, 0, 1]), (surface_p1xp1, [0, 0, 1, 0])]
    )
    def test_theorem5_check_passes_at_5_5(self, make, coeffs):
        # the product side reads its top Chern factor at its rank, one
        # value per local term, so (5, 5) takes a fraction of a second
        S = make()
        report = theorem5_check(S, line_bundle(S, coeffs), 5, 5)
        assert report.passed and not report.informational
        assert [(n1, n2) for n1, n2, _, _ in report.entries] == [(5, 5)]


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
    # one call reports every n <= nmax; configs_evaluated sums the entries

    def test_n0_both_sides_one(self):
        r = case2_check(surface_p2(), surface_p2().bundle("O"), 0)
        assert r.entries == ((0, 0, 1, 1),)
        assert r.configs_evaluated == 2

    def test_plane_n1(self):
        r = case2_check(surface_p2(), surface_p2().bundle("O"), 1)
        assert r.passed
        assert [(n1, n2, lhs) for n1, n2, lhs, _ in r.entries] == [(0, 0, 1), (1, 0, 9)]
        assert r.configs_evaluated == 2 + 6

    def test_quadric_n1(self):
        r = case2_check(surface_p1xp1(), surface_p1xp1().bundle("O"), 1)
        assert r.passed
        assert [(n1, n2, lhs) for n1, n2, lhs, _ in r.entries] == [(0, 0, 1), (1, 0, 8)]

    def test_twisted(self):
        # the values of the per-entry sweep, one integrate call per n and side
        S = surface_p1xp1()
        r = case2_check(S, line_bundle(S, [0, 0, 1, 1]), 2)
        assert r.passed
        assert r.entries == ((0, 0, 1, 1), (1, 0, 12, 12), (2, 0, 66, 66))
        assert r.configs_evaluated == 2 + 8 + 28

    def test_cli_sweep_is_two_integrate_calls(self, monkeypatch):
        # verify's own binding serves the nested side; integrate_hilb looks
        # up the integrate module's
        calls = []
        real = integrate_module.integrate

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return real(*args, **kwargs)

        monkeypatch.setattr(nesthilb.verify, "integrate", counted)
        monkeypatch.setattr(integrate_module, "integrate", counted)
        S = surface_p2()
        (report,) = run_checks(S, S.bundle("O"), "case2", 3, seed=0)
        assert calls == [(3, 0), (3, 0)]
        assert [e[:2] for e in report.entries] == [(n, 0) for n in range(4)]


class TestDimensionConsistency:
    def test_small_n(self):
        r = case3_check(surface_p2(), 2)
        assert r.passed
        assert r.entries == tuple((n + 1, n, 2 * n + 1, 2 * n + 1) for n in range(3))
        assert r.configs_evaluated == 3 + 12 + 39

    def test_failure_names_the_configuration(self, monkeypatch, capsys):
        real = integrate_module._local_tangent

        def one_weight_short(Z1, Z2, mode):
            tangent = real(Z1, Z2, mode)
            if Z1.signed_rank() == 2:  # every local pair whose outer partition has size 2
                tangent = tangent + Character.monomial(0, 0)
            return tangent

        monkeypatch.setattr(integrate_module, "_local_tangent", one_weight_short)
        with pytest.raises(InconsistentTangent) as err:
            case3_check(surface_p2(), 1)
        message = str(err.value)
        assert "case3 on p2 at (2, 1): 6 of 12 configurations fail" in message
        assert "local pair [2]/[1] of sizes (2, 1)" in message
        assert "signed rank 4 (expected 3)" in message
        assert "zero-weight multiplicity 1" in message
        assert main(["--surface", "p2", "--check", "case3", "--nmax", "1"]) == 3
        assert message in capsys.readouterr().err

    def test_a_pair_no_configuration_holds_is_not_checked(self, monkeypatch):
        # every (n+1, n) configuration is pairs of sizes (b+1, b) and (c, c),
        # so the local pairs of sizes (2, 0) are not built and fail no entry
        real = integrate_module._local_tangent
        hit = []

        def zero_weight_at_2_0(Z1, Z2, mode):
            tangent = real(Z1, Z2, mode)
            if (Z1.signed_rank(), Z2.signed_rank()) == (2, 0):
                hit.append(Z1)
                tangent = tangent + Character.monomial(0, 0)
            return tangent

        monkeypatch.setattr(integrate_module, "_local_tangent", zero_weight_at_2_0)
        report = case3_check(surface_p2(), 3)
        assert hit == []
        assert report.passed
        assert report.configs_evaluated == 3 + 12 + 39 + 105


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
    ("p1xp1", "K"): {
        (0, 0): 1, (1, 0): 0, (1, 1): 4,
        (2, 0): 0, (2, 1): 0, (2, 2): 14,
    },
}


class TestProductSeriesGoldens:
    def test_frozen_values(self):
        for (sname, blabel), expected in ZPROD_GOLDEN.items():
            S = surface_p2() if sname == "p2" else surface_p1xp1()
            M = S.bundle(blabel)
            table = zprod_table(S, M, 2)
            assert {k: int(v) for k, v in table.values.items()} == expected

    def test_regeneration_script_prints_the_goldens(self):
        script = Path(__file__).resolve().parent.parent / "scripts" / "zprod_goldens.py"
        done = subprocess.run([sys.executable, str(script), "2"],
                              capture_output=True, text=True, check=True)
        assert ast.literal_eval("{" + done.stdout + "}") == ZPROD_GOLDEN

    def test_integrality_enforced(self):
        table = zprod_table(surface_p2(), canonical_bundle(surface_p2()), 1)
        assert all(v.denominator == 1 for v in table.values.values())

    def test_non_integral_value_is_refused(self, monkeypatch, capsys):
        real = nesthilb.verify.integrate

        def halved(*args, **kwargs):
            res = real(*args, **kwargs)
            return res._replace(values={**res.values, (1, 1): Fraction(1, 2)})

        monkeypatch.setattr(nesthilb.verify, "integrate", halved)
        S = surface_p2()
        message = "non-integral zprod 1/2 on p2 at (1, 1)"
        with pytest.raises(NestHilbError) as err:
            zprod_table(S, canonical_bundle(S), 1)
        assert str(err.value) == message
        assert main(["--surface", "p2", "--check", "zprod", "--nmax", "1"]) == 3
        assert message in capsys.readouterr().err


class TestInvalidSizes:
    # the checks and theorem7's closed form refuse a negative size with
    # the one typed error
    @pytest.mark.parametrize("call", [
        lambda S, M: theorem7_check(S, M, -1),
        lambda S, M: theorem7_rhs(S, M, -1),
        lambda S, M: case2_check(S, M, -1),
        lambda S, M: case3_check(S, -1),
        lambda S, M: zprod_table(S, M, -1),
    ], ids=["theorem7", "theorem7_rhs", "case2", "case3", "zprod"])
    def test_refused(self, call):
        S = surface_p2()
        with pytest.raises(InvalidNesting):
            call(S, S.bundle("O"))
