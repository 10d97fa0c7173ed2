from fractions import Fraction

import pytest

from nesthilb.errors import NonConstantSum
from nesthilb.integrate import (
    IntegrandSpec,
    chern_index_em,
    integrate,
    integrate_hilb,
    top_chern_em,
    total_chern_em,
    total_chern_em_rev,
    total_chern_tangent,
    total_chern_twisted_tangent,
)
from nesthilb.toric import canonical_bundle, line_bundle, surface_p1xp1, surface_p2

NESTED_EO = IntegrandSpec("nested", (total_chern_em(),))


class TestBaseCases:
    def test_empty_moduli(self):
        for mode in ("nested", "product"):
            spec = IntegrandSpec(mode, (total_chern_em(),))
            assert integrate(surface_p2(), 0, 0, spec).value == 1

    def test_hilb_zero(self):
        spec = IntegrandSpec("hilb", (total_chern_tangent(),))
        assert integrate_hilb(surface_p2(), 0, spec).value == 1


class TestSpecValidation:
    def test_integrate_hilb_rejects_nested_spec(self):
        with pytest.raises(ValueError, match="nested"):
            integrate_hilb(surface_p2(), 1, NESTED_EO)


class TestEulerNumberCalibration:
    def test_plane(self):
        spec = IntegrandSpec("hilb", (total_chern_tangent(),))
        assert integrate_hilb(surface_p2(), 1, spec).value == 3

    def test_quadric(self):
        spec = IntegrandSpec("hilb", (total_chern_tangent(),))
        assert integrate_hilb(surface_p1xp1(), 1, spec).value == 4

    def test_twisted_tangent_untwisted_agrees(self):
        S = surface_p2()
        O = S.bundle("O")
        spec = IntegrandSpec("hilb", (total_chern_twisted_tangent(O, slot=1),))
        assert integrate_hilb(S, 1, spec).value == 3


class TestGeneratingFunctionSpotValues:
    def test_plane_10(self):
        assert integrate(surface_p2(), 1, 0, NESTED_EO).value == 9

    def test_plane_11(self):
        assert integrate(surface_p2(), 1, 1, NESTED_EO).value == 3

    def test_plane_20(self):
        assert integrate(surface_p2(), 2, 0, NESTED_EO).value == 36

    def test_quadric_11(self):
        assert integrate(surface_p1xp1(), 1, 1, NESTED_EO).value == 4


class TestDeterminismAndConstancy:
    def test_same_seed_same_specializations(self):
        a = integrate(surface_p2(), 2, 1, NESTED_EO, seed=7)
        b = integrate(surface_p2(), 2, 1, NESTED_EO, seed=7)
        assert a == b

    def test_different_seeds_same_value(self):
        a = integrate(surface_p2(), 2, 1, NESTED_EO, seed=1)
        b = integrate(surface_p2(), 2, 1, NESTED_EO, seed=2)
        assert a.value == b.value
        assert a.specializations != b.specializations

    def test_three_specializations_recorded(self):
        r = integrate(surface_p2(), 1, 1, NESTED_EO)
        assert len(r.specializations) == 3

    def test_integrality(self):
        for n1, n2 in [(1, 0), (1, 1), (2, 1), (2, 2)]:
            v = integrate(surface_p2(), n1, n2, NESTED_EO).value
            assert v.denominator == 1


class TestVanishingAboveTopDegree:
    @pytest.mark.parametrize("n1,n2", [(1, 0), (1, 1), (2, 1)])
    def test_both_surfaces(self, n1, n2):
        for S in (surface_p2(), surface_p1xp1()):
            M = canonical_bundle(S)
            for j in (1, 2):
                spec = IntegrandSpec(
                    "product",
                    (chern_index_em(n1 + n2 + j, M), chern_index_em(n1 + n2 - j)),
                )
                assert integrate(S, n1, n2, spec).value == 0


class TestTopChernFactor:
    def test_top_chern_equals_index_at_rank(self):
        S = surface_p2()
        a = integrate(
            S, 1, 1, IntegrandSpec("product", (total_chern_em(), top_chern_em()))
        )
        b = integrate(
            S, 1, 1, IntegrandSpec("product", (total_chern_em(), chern_index_em(2)))
        )
        assert a.value == b.value


class TestRoleExchange:
    def test_product_series_symmetric_under_conjugated_swap(self):
        S = surface_p2()
        a = integrate(
            S, 2, 1, IntegrandSpec("product", (total_chern_em(), total_chern_em()))
        ).value
        b = integrate(
            S, 1, 2,
            IntegrandSpec("product", (total_chern_em_rev(), total_chern_em_rev())),
        ).value
        assert a == b


class TestNonConstantDetection:
    def test_inconsistent_bundle_data_is_loud(self):
        # permuting the fixed-point weights of O(1) yields equivariant
        # data that belongs to no line bundle; the sum must depend on
        # the specialization and fail loudly
        S = surface_p2()
        L = line_bundle(S, [0, 0, 1])
        broken = type(L)(
            label="broken", weights=(L.weights[1], L.weights[0], L.weights[2])
        )
        spec = IntegrandSpec("nested", (total_chern_em(broken),))
        with pytest.raises(NonConstantSum, match=r"p2 \(1, 0, nested\) entry \(1, 0\): -?\d"):
            integrate(S, 1, 0, spec)
