import re
from fractions import Fraction
from itertools import product

import pytest

import nesthilb.integrate as integrate_module
from nesthilb import toric
from nesthilb.charalg import Weight
from nesthilb.errors import NonConstantSum
from nesthilb.integrate import (
    Factor,
    IntegrandSpec,
    _grading,
    _local_terms,
    integrate,
    integrate_hilb,
    top_chern_em,
    top_chern_taut,
    total_chern_em,
    total_chern_tangent,
)
from nesthilb.toric import (
    EquivariantLineBundle,
    FixedPointChart,
    ToricSurfaceDescriptor,
    canonical_bundle,
    intersect,
    line_bundle,
    surface_hirzebruch,
    surface_p1xp1,
    surface_p2,
    trivial_bundle,
)
from nesthilb.verify import theorem5_check

NESTED_EO = IntegrandSpec("nested", (total_chern_em(),))


def _permuted(L: EquivariantLineBundle) -> EquivariantLineBundle:
    """L's first two fixed-point weights swapped: data of no line bundle."""
    return EquivariantLineBundle("broken", (L.weights[1], L.weights[0], *L.weights[2:]), L.surface)


class TestBaseCases:
    def test_empty_moduli(self):
        for mode in ("nested", "product"):
            spec = IntegrandSpec(mode, (total_chern_em(),))
            assert integrate(surface_p2(), 0, 0, spec).value == 1

    def test_hilb_zero(self):
        spec = IntegrandSpec("product", (total_chern_tangent(),))
        assert integrate_hilb(surface_p2(), 0, spec).value == 1


class TestSpecValidation:
    def test_integrate_hilb_rejects_nested_spec(self):
        with pytest.raises(ValueError, match="nested"):
            integrate_hilb(surface_p2(), 1, NESTED_EO)

    def test_hilb_mode_is_gone(self):
        # the single Hilbert scheme is product mode at n2 = 0
        with pytest.raises(ValueError, match="unknown mode 'hilb'"):
            IntegrandSpec("hilb")

    @pytest.mark.parametrize(
        "kind,klass,bundle,match",
        [
            ("bottom", "em", None, "kind"),
            ("index", "em", None, "kind"),  # c_k: no check integrates one
            ("total", "chern", None, "class"),
            ("total", "em_rev", None, "class"),  # em(Z2, Z1): no check integrates one
            ("top", "em_rev", None, "class"),
            ("total", "Tangent", None, "class"),  # classes are matched exactly
            ("Top", "em", None, "kind"),
            # a degree where the twist goes: it would fail only at the first chart
            ("total", "em", 3, "twist"),
            ("top", "taut", "K", "twist"),
            ("top", "tangent", 7, "twist"),
            ("total", "taut", (1, 0), "twist"),  # a weight, not a bundle
        ],
    )
    def test_factor_rejects_what_it_would_misread(self, kind, klass, bundle, match):
        with pytest.raises(ValueError, match=match):
            Factor(kind, klass, bundle)

    def test_factor_accepts_the_constructors(self):
        K = canonical_bundle(surface_p2())
        assert total_chern_tangent() == Factor("total", "tangent")
        assert total_chern_tangent(K) == Factor("total", "tangent", K)
        assert top_chern_taut(K) == Factor("top", "taut", K)

    def test_no_factor_takes_a_slot(self):
        # taut and tangent are classes of Z1, the first Hilbert factor
        K = canonical_bundle(surface_p2())
        with pytest.raises(TypeError, match="slot"):
            Factor("total", "tangent", slot=1)
        with pytest.raises(TypeError, match="slot"):
            total_chern_tangent(slot=1)
        with pytest.raises(TypeError, match="slot"):
            top_chern_taut(K, slot=1)


class TestEulerNumberCalibration:
    def test_plane(self):
        spec = IntegrandSpec("product", (total_chern_tangent(),))
        assert integrate_hilb(surface_p2(), 1, spec).value == 3

    def test_quadric(self):
        spec = IntegrandSpec("product", (total_chern_tangent(),))
        assert integrate_hilb(surface_p1xp1(), 1, spec).value == 4

    def test_twisted_tangent_untwisted_agrees(self):
        S = surface_p2()
        O = S.bundle("O")
        spec = IntegrandSpec("product", (total_chern_tangent(O),))
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
    # c(E_M) read above its rank n1 + n2 on the u series: vdim 2(n1 + n2)
    # less the rank n1 of a taut top factor, with n2 positive
    @pytest.mark.parametrize("n1,n2", [(0, 1), (1, 1), (2, 1), (2, 2)])
    def test_both_surfaces(self, n1, n2):
        for S in (surface_p2(), surface_p1xp1()):
            K = canonical_bundle(S)
            spec = IntegrandSpec("product", (total_chern_em(K), top_chern_taut(K)))
            assert integrate(S, n1, n2, spec).value == 0


class TestTopChernFactor:
    def test_top_chern_equals_index_at_rank(self):
        # on the nested scheme E_M has rank vdim, so c(E_M) read at u^vdim,
        # the top-degree read, is its Chern class at index the rank
        S = surface_p2()
        for M in (None, canonical_bundle(S)):
            top = integrate(S, 2, 2, IntegrandSpec("nested", (top_chern_em(M),)))
            index = integrate(S, 2, 2, IntegrandSpec("nested", (total_chern_em(M),)))
            assert top.values == index.values


class TestDegreesFromLocalTerms:
    # the dimension formulas that the grading reads off the local ranks
    def test_nested(self):
        spec = IntegrandSpec("nested", (top_chern_em(), total_chern_em()))
        reads = _grading(spec, _local_terms(spec, 3, 2)).reads
        assert list(reads) == [(a, b) for a in range(4) for b in range(min(a, 2) + 1)]
        # k = vdim n1 + n2 less the top factor's rank n1 + n2
        assert all(k == (a + b) - (a + b) for (a, b), k in reads.items())

    def test_product(self):
        K = canonical_bundle(surface_p2())
        factors = (top_chern_em(), Factor("top", "taut", K), Factor("top", "tangent"))
        spec = IntegrandSpec("product", factors)
        reads = _grading(spec, _local_terms(spec, 2, 3)).reads
        assert list(reads) == [(a, b) for a in range(3) for b in range(4)]
        for (a, b), k in reads.items():
            # vdim 2(n1 + n2) less the top factors' ranks a + b, a and 2a
            assert k == 2 * (a + b) - (a + b + a + 2 * a)


class TestEffectiveFactors:
    # every factor class is an honest representation at every fixed point:
    # one term of multiplicity +1 per box its arm/leg sum runs over
    FACTORS = (
        (Factor("total", "em"), lambda a, b: a + b),
        (Factor("total", "taut"), lambda a, b: a),
        (Factor("total", "tangent"), lambda a, b: 2 * a),
    )

    @pytest.mark.parametrize("mode,nmax,pairs", [("product", 6, 900), ("nested", 8, 862)])
    def test_positive_multiplicities_and_rank_by_box_count(self, mode, nmax, pairs):
        factors, boxes = zip(*self.FACTORS)
        local = _local_terms(IntegrandSpec(mode, factors), nmax, nmax)
        assert sum(map(len, local.values())) == pairs
        for (a, b), terms in local.items():
            for _, chars in terms:
                for char, f, count in zip(chars, factors, boxes):
                    assert all(m > 0 for m in char.terms.values()), (mode, a, b, f)
                    assert char.signed_rank() == count(a, b), (mode, a, b, f)


def _refused_message(M: EquivariantLineBundle, S: ToricSurfaceDescriptor) -> str:
    return re.escape(f"bundle {M.label!r} was made on surface {M.surface.name!r}, "
                     f"but is used on surface {S.name!r}")


class TestBundleFromAnotherSurface:
    # a bundle belongs to the surface it was made on; unchecked, a p2 bundle
    # on p1xp1 runs out of weights (IndexError) and a p1xp1 bundle on p2
    # gives a non-constant sum
    @pytest.mark.parametrize(
        "S,M",
        [
            (surface_p1xp1(), line_bundle(surface_p2(), [0, 0, 1])),
            (surface_p2(), line_bundle(surface_p1xp1(), [0, 0, 1, 0])),
        ],
        ids=["p2-bundle-on-p1xp1", "p1xp1-bundle-on-p2"],
    )
    def test_rejected_with_both_counts(self, S, M):
        spec = IntegrandSpec("nested", (total_chern_em(M),))
        with pytest.raises(ValueError, match=_refused_message(M, S)):
            integrate(S, 1, 0, spec)

    # weights that break a surface's GKM conditions make no bundle on it:
    # F_2's O(0,1,0,0) claimed on p1xp1 (unchecked, a non-constant sum) and
    # p2's O(0,0,1) with two weights swapped; the bundle is refused where it
    # is built, so neither call gets to see it
    @pytest.mark.parametrize(
        "S,make",
        [
            (surface_p1xp1(), lambda S: EquivariantLineBundle(
                "broken", line_bundle(surface_hirzebruch(2), [0, 1, 0, 0]).weights, S)),
            (surface_p2(), lambda S: _permuted(line_bundle(S, [0, 0, 1]))),
        ],
        ids=["f2-bundle-on-p1xp1", "permuted-weights-on-p2"],
    )
    @pytest.mark.parametrize("call", ["integrate", "intersect"])
    def test_rejected_by_the_gkm_conditions(self, S, make, call):
        match = "^" + re.escape(f"surface {S.name!r}: fixed_points[") + r"\d+\]: bundle 'broken' weights"
        with pytest.raises(ValueError, match=match):
            M = make(S)
            if call == "integrate":
                integrate(S, 2, 1, IntegrandSpec("nested", (total_chern_em(M),)))
            else:
                intersect(S, M, M)

    # every bundle with coefficients in {-1, 0, 1} is accepted on its own
    # surface and refused on the three others by both calls.  Weights do not
    # decide it: F_2's O(0,0,1,0) has the weights of p1xp1's O(0,0,1,0),
    # and unchecked it integrates as that bundle (70 at (2, 1))
    def test_every_bundle_belongs_to_its_surface(self):
        surfaces = [surface_p2(), surface_p1xp1(), surface_hirzebruch(2), surface_hirzebruch(3)]
        for own in surfaces:
            for coeffs in product((-1, 0, 1), repeat=len(own.rays)):
                M = line_bundle(own, list(coeffs))
                spec = IntegrandSpec("nested", (total_chern_em(M),))
                for S in surfaces:
                    if S is own:
                        integrate(S, 1, 0, spec)
                        intersect(S, M, M)
                        continue
                    with pytest.raises(ValueError, match=_refused_message(M, S)):
                        integrate(S, 1, 0, spec)
                    with pytest.raises(ValueError, match=_refused_message(M, S)):
                        intersect(S, M, trivial_bundle(S))

    def test_built_bundles_are_not_checked_again(self, monkeypatch):
        # the GKM check runs when S and M are made, never per call
        S = surface_p1xp1()
        M = line_bundle(S, [0, 0, 1, 0])
        runs = []
        check_edges = toric._check_edges
        monkeypatch.setattr(toric, "_check_edges", lambda *a: runs.append(a) or check_edges(*a))
        integrate(S, 2, 1, IntegrandSpec("nested", (total_chern_em(M),)))
        intersect(S, M, M)
        theorem5_check(S, M, 1, 1)
        assert runs == []
        line_bundle(S, [0, 0, 1, 0])
        assert len(runs) == 1


class TestNoSubstitution:
    # Z_p is evaluated at each chart's projected point; only the oracle
    # substitutes local terms at a chart
    @pytest.mark.parametrize(
        "n1,n2,spec",
        [
            (2, 1, IntegrandSpec("nested", (total_chern_em(),))),
            (2, 1, IntegrandSpec("product", (
                total_chern_em(line_bundle(surface_p1xp1(), [0, 0, 1, 0])),
                top_chern_taut(canonical_bundle(surface_p1xp1())),
            ))),
        ],
        ids=["nested", "product-twisted"],
    )
    def test_integrate_never_substitutes(self, n1, n2, spec, monkeypatch):
        S = surface_p1xp1()
        expected = integrate(S, n1, n2, spec)

        def refuse(*args):
            raise RuntimeError("integrate substituted a local term")

        monkeypatch.setattr(integrate_module, "substitute_chart", refuse)
        res = integrate(S, n1, n2, spec)
        assert (res.values, res.config_counts) == (expected.values, expected.config_counts)


class TestNonConstantDetection:
    def test_inconsistent_surface_data_is_loud(self):
        # a third chart whose weights are no edge to the other two fixed
        # points belongs to no toric surface; the sum must depend on the
        # specialization and fail loudly, naming its entry
        charts = surface_p2().charts[:2] + (FixedPointChart(Weight(2, 1), Weight(1, 3)),)
        S = ToricSurfaceDescriptor("bad", charts)
        spec = IntegrandSpec("nested", (total_chern_em(),))
        with pytest.raises(NonConstantSum, match=r"bad \(1, 0, nested\) entry \(1, 0\): -?\d"):
            integrate(S, 1, 0, spec)
