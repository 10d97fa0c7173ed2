"""The integer vertex product against an independent Fraction slow path.

The slow path expands prod (1 + u*w(x, y))^m by multiplying or dividing
by (1 + u*w(x, y)) one factor at a time over the rationals.  The engine's
integer Chern series runs the same product, so it is also checked against
Newton's identities on power sums, which share no step with it.  The slow
path takes the Euler class as a product of Fraction powers, reads top
degrees off the signed ranks of the characters, and sums the
localization formula over every global configuration of
``enumerate_configs`` at rational points.
It shares only the character formulas with the engine, which multiplies
one local factor per fixed point instead.  case3's class counts are
checked the same way, against the classes of every enumerated
configuration's tangent.  The top-degree read of all-total effective
integrands is checked against the series path of the same integrand
times c_0 = 1, and the rank read of an effective top factor against the
same local terms with that factor on its v series.

The character formulas, which the engine reads off arm and leg lengths,
are checked against the Koszul formulas: ring products of box characters,
their duals and the Koszul factor (1 - t1)(1 - t2) / (t1 t2).
"""

from collections import Counter
from fractions import Fraction
from functools import partial, reduce
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nesthilb.integrate as integrate_module
from nesthilb.charalg import Character, Weight, chern_useries
from nesthilb.errors import InconsistentTangent
from nesthilb.fixedchar import (
    FixedConfig,
    em_char,
    enumerate_configs,
    hilb_tangent_char,
    nested_tangent_char,
)
from nesthilb.integrate import (
    IntegrandSpec,
    _at_chart,
    _chart_grid,
    _evaluate,
    _factor_character,
    _grading,
    _local_terms,
    _read,
    _tangent_character,
    _times,
    _twist,
    chern_index_em,
    integrate,
    tangent_classes,
    top_chern_em,
    top_chern_taut,
    total_chern_em,
    total_chern_em_rev,
    total_chern_tangent,
    total_chern_twisted_tangent,
)
from nesthilb.partitions import Partition, box_char, nested_pairs, partitions_of
from nesthilb.toric import (
    canonical_bundle,
    line_bundle,
    surface_from_json,
    surface_hirzebruch,
    surface_p1xp1,
    surface_p2,
)
from nesthilb.verify import case3_check

# x/y is far from every ratio -b/a of small weights, so no weight vanishes
RATIONAL_POINT = (Fraction(7919, 13), Fraction(104729, 17))


def reference_chern(
    c: Character, x: Fraction, y: Fraction, cutoff: int, twist: Fraction = Fraction(0)
) -> list[Fraction]:
    """Coefficients of prod (1 + u*(w(x, y) + twist))^m up to u^cutoff."""
    out = [Fraction(1)] + [Fraction(0)] * cutoff
    for (a, b), m in c.terms.items():
        v = a * x + b * y + twist
        for _ in range(abs(m)):
            if m > 0:  # times (1 + u v)
                out = [out[0]] + [out[k] + v * out[k - 1] for k in range(1, cutoff + 1)]
            else:  # divided by (1 + u v)
                quotient = [out[0]]
                for k in range(1, cutoff + 1):
                    quotient.append(out[k] - v * quotient[k - 1])
                out = quotient
    return out


def newton_chern(c: Character, x: int, y: int, cutoff: int, twist: int = 0) -> list[int]:
    """The same coefficients e_k from the power sums p_k = sum m * w'^k,
    w' = w(x, y) + twist, by Newton's identities
    k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) p_i; each division is exact."""
    p = [0] * (cutoff + 1)
    for (a, b), m in c.terms.items():
        v = a * x + b * y + twist
        for k in range(1, cutoff + 1):
            p[k] += m * v**k
    e = [1] + [0] * cutoff
    for k in range(1, cutoff + 1):
        total = sum((-1) ** (i - 1) * e[k - i] * p[i] for i in range(1, k + 1))
        assert total % k == 0, (k, total)
        e[k] = total // k
    return e


def reference_euler(c: Character, x: Fraction, y: Fraction) -> Fraction:
    result = Fraction(1)
    for (a, b), m in c.terms.items():
        result *= (a * x + b * y) ** m
    return result


def reference_summand(tangent, factors, x, y) -> Fraction:
    """u^vdim coefficient of the factor product over the Euler class;
    factors are (character, kept degree or None) pairs."""
    vdim = tangent.signed_rank()
    series = [Fraction(1)] + [Fraction(0)] * vdim
    for char, degree in factors:
        s = reference_chern(char, x, y, vdim)
        if degree is not None:
            s = [c if k == degree else Fraction(0) for k, c in enumerate(s)]
        series = [sum(series[i] * s[k - i] for i in range(k + 1)) for k in range(vdim + 1)]
    return series[vdim] / reference_euler(tangent, x, y)


def reference_degrees(chars, spec):
    """(character, kept degree or None) per factor, without the
    integrator's degree bookkeeping: "top" keeps the signed rank of its
    character."""
    return [
        (char, {"total": None, "top": char.signed_rank(), "index": f.k}[f.kind])
        for char, f in zip(chars, spec.factors)
    ]


def enum_mode(spec):
    return "nested" if spec.mode == "nested" else "product"


def reference_terms(S, n1, n2, spec):
    """(tangent, factors) per configuration."""
    nested = spec.mode == "nested"
    for cfg in enumerate_configs(S, n1, n2, enum_mode(spec)):
        tangent = _tangent_character(S, cfg, "nested" if nested else "hilbprod")
        chars = [_factor_character(S, cfg, f) for f in spec.factors]
        yield tangent, reference_degrees(chars, spec)


def reference_integrate(S, n1, n2, spec, x, y) -> Fraction:
    return sum(
        (reference_summand(t, fs, x, y) for t, fs in reference_terms(S, n1, n2, spec)),
        Fraction(0),
    )


def global_chars():
    return st.dictionaries(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        st.integers(-3, 3),
        max_size=6,
    ).map(Character)


class TestChernSeriesAgainstReference:
    @given(global_chars(), st.integers(1, 200), st.integers(1, 200), st.integers(0, 9))
    @settings(max_examples=200, deadline=None)
    @example(Character({(1, 0): 2, (0, 1): -1}), 3, 5, 6)
    @example(Character({(1, -1): -3, (2, 1): 1}), 7, 2, 8)
    def test_matches_direct_expansion(self, c, x, y, cutoff):
        fast = chern_useries(c, x, y, cutoff).coeffs
        assert fast == reference_chern(c, Fraction(x), Fraction(y), cutoff)
        assert all(type(e) is int for e in fast)

    @given(
        global_chars(),
        st.integers(-200, 200),
        st.integers(-200, 200),
        st.integers(-60, 60).filter(bool),
        st.integers(0, 12),
    )
    @settings(max_examples=200, deadline=None)
    @example(Character({(1, 0): 2, (0, 1): -1}), 3, 5, 4, 12)
    @example(Character({(1, -1): -3, (2, 1): 1}), 7, 2, -9, 0)
    @example(Character({(1, 1): -2, (1, 0): 3}), -4, 1, 3, 12)
    def test_twisted_series_matches_both_oracles(self, c, x, y, twist, cutoff):
        # negative multiplicities included; a twisted weight may vanish
        fast = chern_useries(c, x, y, cutoff, twist).coeffs
        assert fast == newton_chern(c, x, y, cutoff, twist)
        assert fast == reference_chern(c, Fraction(x), Fraction(y), cutoff, Fraction(twist))
        assert all(type(e) is int for e in fast)


def bar(c: Character) -> Character:
    """The dual character: invert both torus variables, (a, b) -> (-a, -b)."""
    return Character({(-a, -b): v for (a, b), v in c.terms.items()})


# (1 - t1)(1 - t2) / (t1 t2), the two-variable Koszul factor
KOSZUL = Character({(-1, -1): 1, (0, -1): -1, (-1, 0): -1, (0, 0): 1})
INV_T1T2 = Character.monomial(-1, -1)


def koszul_em(Z1: Character, Z2: Character) -> Character:
    return Z2 + bar(Z1) * INV_T1T2 - bar(Z1) * Z2 * KOSZUL


def koszul_hilb_tangent(Z: Character) -> Character:
    return Z + bar(Z) * INV_T1T2 - bar(Z) * Z * KOSZUL


def koszul_nested_tangent(Z1: Character, Z2: Character) -> Character:
    return (
        Z1
        + bar(Z2) * INV_T1T2
        + (bar(Z1) * Z2 - bar(Z1) * Z1 - bar(Z2) * Z2) * KOSZUL
    )


def partitions(nmax: int = 8):
    return st.integers(0, nmax).flatmap(lambda n: st.sampled_from(partitions_of(n)))


def nested_partition_pairs(nmax: int = 8):
    """(outer, inner) with inner boxwise inside outer."""
    def inside(outer):
        inner = [mu for n in range(outer.size + 1) for mu in partitions_of(n) if outer.contains(mu)]
        return st.tuples(st.just(outer), st.sampled_from(inner))

    return partitions(nmax).flatmap(inside)


class TestArmLegAgainstKoszul:
    @given(partitions(), partitions())
    @settings(max_examples=300, deadline=None)
    @example(Partition(()), Partition((3, 1)))
    @example(Partition((2, 2, 1)), Partition(()))
    @example(Partition((4, 1, 1)), Partition((2, 2, 2)))
    def test_em_char_on_independent_pairs(self, lam, mu):
        Z1, Z2 = box_char(lam), box_char(mu)
        assert em_char(Z1, Z2) == koszul_em(Z1, Z2)

    @given(partitions())
    @settings(max_examples=100, deadline=None)
    @example(Partition(()))
    def test_hilb_tangent_char(self, lam):
        Z = box_char(lam)
        assert hilb_tangent_char(Z) == koszul_hilb_tangent(Z)

    @given(nested_partition_pairs())
    @settings(max_examples=300, deadline=None)
    @example((Partition((2,)), Partition((1,))))
    @example((Partition((3, 2, 1)), Partition((2, 1))))
    def test_nested_tangent_char_on_nested_pairs(self, pair):
        Z1, Z2 = box_char(pair[0]), box_char(pair[1])
        assert nested_tangent_char(Z1, Z2) == koszul_nested_tangent(Z1, Z2)

    def test_nested_tangent_char_on_every_case3_nmax_7_pair(self):
        # case3 --nmax 7 builds the local tangent of (a, b) <= (8, 7), b <= a
        pairs = [pr for a in range(9) for b in range(min(a, 7) + 1) for pr in nested_pairs(a, b)]
        assert len(pairs) == 840
        for pr in pairs:
            Z1, Z2 = map(box_char, pr)
            assert nested_tangent_char(Z1, Z2) == koszul_nested_tangent(Z1, Z2), pr

    def test_em_and_hilb_tangent_on_every_pair_up_to_size_6(self):
        chars = [box_char(mu) for n in range(7) for mu in partitions_of(n)]
        for Z1 in chars:
            assert hilb_tangent_char(Z1) == koszul_hilb_tangent(Z1), Z1
            for Z2 in chars:
                assert em_char(Z1, Z2) == koszul_em(Z1, Z2), (Z1, Z2)


def _entry_cases():
    """One call per entry (n1, n2), each read at its own bound."""
    S2, Q = surface_p2(), surface_p1xp1()
    out = []
    for S, coeffs in ((S2, [0, 0, 1]), (Q, [0, 0, 1, 1])):
        M = line_bundle(S, coeffs)
        K = canonical_bundle(S)
        specs = {
            "nested-total": IntegrandSpec("nested", (total_chern_em(M),)),
            "nested-index": IntegrandSpec("nested", (total_chern_em(), chern_index_em(1, M))),
            "product-total-top": IntegrandSpec("product", (total_chern_em(M), top_chern_em())),
            "product-index": IntegrandSpec("product", (total_chern_em(), chern_index_em(2, M))),
            # the single Hilbert scheme: product mode at n2 = 0
            "hilb-tangent": IntegrandSpec("product", (total_chern_tangent(),)),
            "hilb-taut-top": IntegrandSpec("product", (total_chern_em(M), top_chern_taut(K))),
        }
        for label, spec in specs.items():
            hilb = label.startswith("hilb")
            keys = [(1, 0), (2, 0)] if hilb else [(1, 0), (1, 1), (2, 1), (2, 2)]
            for n1, n2 in keys:
                out.append(pytest.param(S, n1, n2, spec, id=f"{S.name}-{label}-{n1}{n2}"))
    return out


@pytest.mark.parametrize("S,n1,n2,spec", _entry_cases())
def test_integrate_matches_rational_slow_path(S, n1, n2, spec):
    assert integrate(S, n1, n2, spec).value == reference_integrate(S, n1, n2, spec, *RATIONAL_POINT)


# the custom-surface example of the README
README_DESCRIPTOR = (
    (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    .split("```json\n", 1)[1].split("```", 1)[0]
)


SURFACES_AND_BUNDLES = (
    (surface_p2(), line_bundle(surface_p2(), [0, 0, 1])),
    (surface_p1xp1(), line_bundle(surface_p1xp1(), [0, 0, 1, 1])),
    (surface_hirzebruch(2), line_bundle(surface_hirzebruch(2), [0, 0, 1, 0])),
    (surface_from_json(README_DESCRIPTOR), surface_from_json(README_DESCRIPTOR).bundle("L")),
)


def _table_cases():
    """One call at (2, 2), or (2, 0) for the single Hilbert scheme, read at every entry."""
    out = []
    for S, M in SURFACES_AND_BUNDLES:
        K = canonical_bundle(S)
        specs = {
            "nested-total": IntegrandSpec("nested", (total_chern_em(M),)),
            "nested-index": IntegrandSpec("nested", (total_chern_em(), chern_index_em(1, M))),
            "product-total-top": IntegrandSpec("product", (total_chern_em(M), top_chern_em())),
            "product-index": IntegrandSpec(
                "product", (total_chern_em_rev(), chern_index_em(2, M))
            ),
            "product-tangent-taut": IntegrandSpec(
                "product", (total_chern_twisted_tangent(M, slot=2), top_chern_taut(K, slot=2))
            ),
            "hilb-tangent": IntegrandSpec("product", (total_chern_tangent(),)),
            "hilb-taut-top": IntegrandSpec("product", (total_chern_em(M), top_chern_taut(K))),
        }
        for label, spec in specs.items():
            n2 = 0 if label.startswith("hilb") else 2
            out.append(pytest.param(S, n2, spec, id=f"{S.name}-{label}"))
    return out


@pytest.mark.parametrize("S,n2,spec", _table_cases())
def test_every_entry_of_one_call_matches_rational_slow_path(S, n2, spec):
    res = integrate(S, 2, n2, spec)
    keys = [(a, b) for a in range(3) for b in range(n2 + 1) if spec.mode != "nested" or b <= a]
    assert sorted(res.values) == sorted(res.config_counts) == keys
    for a, b in keys:
        assert res.values[(a, b)] == reference_integrate(S, a, b, spec, *RATIONAL_POINT)
        assert res.config_counts[(a, b)] == len(list(enumerate_configs(S, a, b, enum_mode(spec))))


@pytest.mark.parametrize("mode", ["nested", "product"])
def test_rational_point_and_scaled_integer_point_give_the_same_summand(mode):
    x, y = RATIONAL_POINT  # (a/b, c/d) -> (a*d, c*b)
    X, Y = x.numerator * y.denominator, y.numerator * x.denominator
    S = surface_p1xp1()
    M = line_bundle(S, [0, 0, 1, 0])
    factors = (total_chern_em(M),) if mode == "nested" else (total_chern_em(M), top_chern_em())
    spec = IntegrandSpec(mode, factors)
    local = _local_terms(spec, 2, 1)
    grading = _grading(spec, local)
    i, chart = 1, S.charts[1]
    assert any(_twist(f, i) != Weight(0, 0) for f in spec.factors)
    assert sum(map(len, local.values())) > len(grading.reads)
    for key, terms in local.items():
        for term in terms:
            # the slow side substitutes the local term at the chart; the
            # engine evaluates it at the chart's projected point
            tangent = _at_chart(term[0], chart, Weight(0, 0))
            chars = [_at_chart(c, chart, _twist(f, i)) for c, f in zip(term[1], spec.factors)]
            fs = reference_degrees(chars, spec)
            slow = reference_summand(tangent, fs, x, y)
            assert slow == reference_summand(tangent, fs, Fraction(X), Fraction(Y))
            den, grid = _chart_grid({key: [term]}, S, i, X, Y, spec, grading)
            assert Fraction(_read(grid, key, grading), den) == slow


# every all-total spec whose factors are effective and fill vdim, with its
# sizes: these are read at top degree
TOP_DEGREE_SPECS = {
    # theorem7's spec is also theorem5's nested side
    "theorem7": lambda M: (IntegrandSpec("nested", (total_chern_em(M),)), 3, 3),
    "case2-nested": lambda M: (IntegrandSpec("nested", (total_chern_em(M),)), 3, 0),
    "zprod": lambda M: (IntegrandSpec("product", (total_chern_em(), total_chern_em(M))), 3, 3),
    "nested-em_rev": lambda M: (IntegrandSpec("nested", (total_chern_em_rev(M),)), 3, 3),
    "product-em-em_rev": lambda M: (
        IntegrandSpec("product", (total_chern_em(M), total_chern_em_rev())), 3, 3
    ),
    "hilb-tangent": lambda M: (IntegrandSpec("product", (total_chern_tangent(),)), 3, 0),
    "product-tangents": lambda M: (
        IntegrandSpec("product", (total_chern_tangent(1), total_chern_twisted_tangent(M, 2))), 3, 3
    ),
}


def with_unit_index(spec):
    """``spec`` times c_0 = 1: the same integrand, but an index factor
    sends it down the u/v series path."""
    return IntegrandSpec(spec.mode, spec.factors + (chern_index_em(0),))


def is_top(spec, n1, n2):
    return _grading(spec, _local_terms(spec, n1, n2)).top


class TestTopDegreeRead:
    @pytest.mark.parametrize("label", TOP_DEGREE_SPECS)
    @pytest.mark.parametrize(
        "S,M", SURFACES_AND_BUNDLES, ids=[S.name for S, _ in SURFACES_AND_BUNDLES]
    )
    def test_matches_the_series_path(self, S, M, label):
        spec, n1, n2 = TOP_DEGREE_SPECS[label](M)
        series = with_unit_index(spec)
        assert is_top(spec, n1, n2) and not is_top(series, n1, n2)
        fast, slow = integrate(S, n1, n2, spec), integrate(S, n1, n2, series)
        assert fast.values == slow.values
        assert fast.config_counts == slow.config_counts

    def test_vanishing_factor_weight_is_a_zero_not_a_pole(self):
        # at (1, 4) chart 1 of p2 projects to (X, Y) = (3, -1) and M's
        # twist there is 1, so the weight (-1, -2) of the local em class
        # at sizes (2, 0) gives -3 + 2 + 1 = 0; no tangent weight vanishes
        S, M = SURFACES_AND_BUNDLES[0]
        spec, _, _ = TOP_DEGREE_SPECS["theorem7"](M)
        x, y = 1, 4
        local = _local_terms(spec, 2, 2)
        weights = {
            a * chart.w1.value(x, y) + b * chart.w2.value(x, y) + _twist(f, i).value(x, y)
            for i, chart in enumerate(S.charts)
            for terms in local.values()
            for _, chars in terms
            for char, f in zip(chars, spec.factors)
            for a, b in char.terms
        }
        assert 0 in weights
        series = with_unit_index(spec)
        series_local = _local_terms(series, 2, 2)
        fast = _evaluate(local, S, x, y, spec, _grading(spec, local))
        slow = _evaluate(series_local, S, x, y, series, _grading(series, series_local))
        assert fast == slow == integrate(S, 2, 2, spec).values

    @pytest.mark.parametrize(
        "spec,top",
        [
            (TOP_DEGREE_SPECS["theorem7"](None)[0], True),  # and theorem5's nested side
            (TOP_DEGREE_SPECS["zprod"](None)[0], True),
            (IntegrandSpec("product", (total_chern_em(), top_chern_em())), False),
            (IntegrandSpec("nested", (total_chern_em(), chern_index_em(1))), False),
            (IntegrandSpec("product", (total_chern_em(), top_chern_taut(None))), False),
            # ranks 2(n1 + n2) overshoot vdim n1 + n2
            (IntegrandSpec("nested", (total_chern_em(), total_chern_em())), False),
            # no factor: rank 0 falls short of vdim
            (IntegrandSpec("nested"), False),
        ],
        ids=["theorem7", "zprod", "top", "index", "taut-top", "overshoot", "empty"],
    )
    def test_decision(self, spec, top):
        assert is_top(spec, 3, 2) is top
        assert is_top(spec, 3, 0) is top  # case2's nested side, the single Hilbert scheme
        if not top:
            S = surface_p2()
            for (a, b), value in integrate(S, 2, 1, spec).values.items():
                assert value == reference_integrate(S, a, b, spec, *RATIONAL_POINT)

    def test_decision_needs_effective_factors(self, monkeypatch):
        # the nested scheme's virtual tangent as the factor: all total and
        # of rank vdim, but with negative multiplicities, so its Chern
        # series runs past its rank and a top read would count
        # configurations instead
        def virtual_tangent(Z1, Z2, f):
            return nested_tangent_char(Z1, Z2)

        monkeypatch.setattr(integrate_module, "_local_factor", virtual_tangent)
        S, spec = surface_p2(), IntegrandSpec("nested", (total_chern_em(),))
        local = _local_terms(spec, 3, 1)
        assert any(m < 0 for terms in local.values() for _, (c,) in terms for m in c.terms.values())
        assert not is_top(spec, 3, 1)
        res = integrate(S, 3, 1, spec)
        assert res.values != {key: Fraction(n) for key, n in res.config_counts.items()}
        for (a, b), value in res.values.items():
            assert value == reference_integrate(S, a, b, spec, *RATIONAL_POINT)


# every spec with an effective top factor, with its sizes: the top factor
# is read at its rank, the other factors keep their series
AT_RANK_SPECS = {
    # theorem5's product side
    "product-total-top": lambda M, K: (
        IntegrandSpec("product", (total_chern_em(M), top_chern_em())), 2, 2
    ),
    # case2's Hilbert side
    "hilb-taut-top": lambda M, K: (
        IntegrandSpec("product", (total_chern_em(M), top_chern_taut(K))), 3, 0
    ),
    "product-tangent-taut": lambda M, K: (
        IntegrandSpec(
            "product", (total_chern_twisted_tangent(M, slot=2), top_chern_taut(K, slot=2))
        ),
        2,
        2,
    ),
    "nested-top": lambda M, K: (IntegrandSpec("nested", (top_chern_em(M),)), 2, 2),
}


def on_the_v_series(grading):
    """``grading`` with the per-factor rank read cleared: every top factor
    expands its Chern series in its own variable."""
    return grading._replace(at_rank=(False,) * len(grading.at_rank))


class TestTopFactorAtRank:
    @pytest.mark.parametrize("label", AT_RANK_SPECS)
    @pytest.mark.parametrize(
        "S,M", SURFACES_AND_BUNDLES, ids=[S.name for S, _ in SURFACES_AND_BUNDLES]
    )
    def test_matches_the_v_series_and_the_oracle(self, S, M, label):
        spec, n1, n2 = AT_RANK_SPECS[label](M, canonical_bundle(S))
        local = _local_terms(spec, n1, n2)
        grading = _grading(spec, local)
        assert grading.at_rank == tuple(f.kind == "top" for f in spec.factors)
        assert not grading.top
        res = integrate(S, n1, n2, spec)
        for x, y in res.specializations:
            fast = _evaluate(local, S, x, y, spec, grading)
            assert fast == _evaluate(local, S, x, y, spec, on_the_v_series(grading))
            assert fast == res.values
        for (a, b), value in res.values.items():
            assert value == reference_integrate(S, a, b, spec, *RATIONAL_POINT)

    @pytest.mark.parametrize("label,n1,n2", [("product-total-top", 3, 3), ("hilb-taut-top", 4, 0)])
    @pytest.mark.parametrize(
        "S,M", SURFACES_AND_BUNDLES, ids=[S.name for S, _ in SURFACES_AND_BUNDLES]
    )
    def test_chart_product_holds_only_the_read_v_degrees(self, S, M, label, n1, n2):
        # theorem5's and case2's product sides: the top factor's local ranks
        # add up over the charts to its entry's rank, so every key of the
        # chart product is (a, b) plus the v-degrees that entry reads, and
        # the product needs no cut in v; keys with b > a may drop out, as
        # the untwisted em's top Chern value is 0 unless Z2 lies in Z1
        spec, _, _ = AT_RANK_SPECS[label](M, canonical_bundle(S))
        local = _local_terms(spec, n1, n2)
        grading = _grading(spec, local)
        assert grading.at_rank == (False, True)
        assert all(degrees for degrees, _ in grading.reads.values())
        x, y = integrate(S, n1, n2, spec).specializations[0]  # pole-free
        grids = [_chart_grid(local, S, i, x, y, spec, grading)[1] for i in range(len(S.charts))]
        product = reduce(partial(_times, n1=n1, n2=n2, ucut=grading.ucut), grids)
        read = {key + degrees for key, (degrees, _) in grading.reads.items()}
        assert {key for key in read if key[1] <= key[0]} <= set(product) <= read

    def test_vanishing_top_weight_is_a_zero_not_a_pole(self):
        # at (1, 4) chart 1 of p2 projects to (X, Y) = (3, -1) and M's
        # twist there is 1, so the weight (-1, -2) of the local em class
        # at sizes (2, 0) gives -3 + 2 + 1 = 0; no tangent weight vanishes
        S, M = SURFACES_AND_BUNDLES[0]
        spec, n1, n2 = AT_RANK_SPECS["nested-top"](M, None)
        x, y, i = 1, 4, 1
        X, Y = S.charts[i].w1.value(x, y), S.charts[i].w2.value(x, y)
        twist = _twist(spec.factors[0], i).value(x, y)
        local = _local_terms(spec, n1, n2)
        [(key, term)] = [
            (key, term)
            for key, terms in local.items()
            for term in terms
            if any(a * X + b * Y + twist == 0 for a, b in term[1][0].terms)
        ]
        assert key == (2, 0)
        grading = _grading(spec, local)
        assert grading.at_rank == (True,)
        for g in (grading, on_the_v_series(grading)):
            _, grid = _chart_grid({key: [term]}, S, i, x, y, spec, g)
            assert _read(grid, key, g) == 0
        fast = _evaluate(local, S, x, y, spec, grading)
        assert fast == _evaluate(local, S, x, y, spec, on_the_v_series(grading))
        assert fast == integrate(S, n1, n2, spec).values

    @pytest.mark.parametrize(
        "spec,at_rank",
        [
            (IntegrandSpec("product", (total_chern_em(), top_chern_em())), (False, True)),
            (IntegrandSpec("product", (total_chern_em(), top_chern_taut(None))), (False, True)),
            (IntegrandSpec("nested", (top_chern_em(),)), (True,)),
            (
                IntegrandSpec("product", (chern_index_em(2), total_chern_em_rev(), top_chern_em())),
                (False, False, True),
            ),
            (IntegrandSpec("nested", (total_chern_em(), chern_index_em(1))), (False, False)),
            # read at top degree as a whole, so no factor is at rank
            (TOP_DEGREE_SPECS["theorem7"](None)[0], (False,)),
        ],
        ids=["em", "taut", "nested-em", "index-total-top", "index", "all-total"],
    )
    def test_decision(self, spec, at_rank):
        for n1, n2 in ((3, 2), (3, 0)):
            assert _grading(spec, _local_terms(spec, n1, n2)).at_rank == at_rank

    def test_virtual_top_factor_keeps_the_v_series(self, monkeypatch):
        # the nested scheme's virtual tangent as a top factor: its Chern
        # series runs past its rank, so reading one value at the rank
        # would drop the terms of the other degrees
        def virtual_tangent(Z1, Z2, f):
            return nested_tangent_char(Z1, Z2)

        monkeypatch.setattr(integrate_module, "_local_factor", virtual_tangent)
        S, spec = surface_p2(), IntegrandSpec("nested", (top_chern_em(),))
        local = _local_terms(spec, 3, 1)
        assert any(m < 0 for terms in local.values() for _, (c,) in terms for m in c.terms.values())
        assert _grading(spec, local).at_rank == (False,)
        for (a, b), value in integrate(S, 3, 1, spec).values.items():
            assert value == reference_integrate(S, a, b, spec, *RATIONAL_POINT)


def oracle_classes(S, n):
    """(signed rank, zero-weight multiplicity) of every (n+1, n) configuration's tangent."""
    return Counter(
        (t.signed_rank(), t.zero_multiplicity())
        for t in (_tangent_character(S, cfg, "nested") for cfg in enumerate_configs(S, n + 1, n))
    )


def show(pairs):
    return ", ".join(f"{list(o.parts)}/{list(i.parts)}" for o, i in pairs)


def _defect(outer, inner, extra):
    """A local tangent with ``extra`` added at the one local pair (outer, inner)."""
    chars = (box_char(Partition(outer)), box_char(Partition(inner)))
    real = integrate_module._local_tangent

    def tangent(Z1, Z2, mode):
        t = real(Z1, Z2, mode)
        return t + extra if (Z1, Z2) == chars else t

    return tangent


DEFECTS = {
    "none": None,
    # a zero weight at unchanged signed rank
    "zero-weight": lambda: _defect((2,), (1,), Character({(0, 0): 1, (1, 1): -1})),
    # (1, 1) pairs repeat across charts, so sums reach several times the
    # largest local rank; a cap without the chart count would drop them
    "rank-offset": lambda: _defect((1,), (1,), Character.monomial(1, 0, 100)),
}


@pytest.mark.parametrize("defect", DEFECTS)
@pytest.mark.parametrize(
    "S",
    [surface_p2(), surface_p1xp1(), surface_hirzebruch(2), surface_from_json(README_DESCRIPTOR)],
    ids=lambda S: S.name,
)
def test_case3_class_counts_match_the_oracle(S, defect, monkeypatch):
    if DEFECTS[defect]:
        monkeypatch.setattr(integrate_module, "_local_tangent", DEFECTS[defect]())
    classes, witness = tangent_classes(S, 4, 3)
    first_failure = None
    configs = 0
    for n in range(4):
        oracle = oracle_classes(S, n)
        counts = classes[(n + 1, n)]
        assert counts == dict(oracle)
        configs += sum(counts.values())
        assert sum(counts.values()) == len(list(enumerate_configs(S, n + 1, n)))
        for cls in counts:  # every class has a witness of that class
            pairs = witness((n + 1, n), cls)
            tangent = _tangent_character(S, FixedConfig(tuple(pairs), n + 1, n), "nested")
            assert len(pairs) == len(S.charts)
            assert (tangent.signed_rank(), tangent.zero_multiplicity()) == cls
        failing = sum(k for cls, k in oracle.items() if cls != (2 * n + 1, 0))
        if failing and first_failure is None:
            first_failure = (n, failing, sum(oracle.values()))
    if defect == "none":
        assert first_failure is None
        report = case3_check(S, 3)
        assert report.passed
        assert report.configs_evaluated == configs
        return
    n, failing, total = first_failure
    with pytest.raises(InconsistentTangent) as err:
        case3_check(S, 3)
    message = str(err.value)
    assert f"case3 on {S.name} at ({n + 1}, {n}): {failing} of {total} configurations" in message
    named = message.split("partition pairs [", 1)[1].split("] give", 1)[0]
    cfg = next(c for c in enumerate_configs(S, n + 1, n) if show(c.assignment) == named)
    tangent = _tangent_character(S, cfg, "nested")
    assert (tangent.signed_rank(), tangent.zero_multiplicity()) != (2 * n + 1, 0)
    assert f"signed rank {tangent.signed_rank()} (expected {2 * n + 1})" in message
    assert f"zero-weight multiplicity {tangent.zero_multiplicity()}" in message


@pytest.mark.parametrize(
    "S,total,per_entry",
    [
        (surface_p2(), 9738, None),
        (surface_p1xp1(), 34776, [4, 20, 76, 236, 656, 1664, 3960, 8920, 19240]),
    ],
    ids=["p2", "p1xp1"],
)
def test_case3_nmax_8_golden(S, total, per_entry):
    # the counts of the enumerating case3, which walked every configuration
    report = case3_check(S, 8)
    assert report.passed
    assert report.configs_evaluated == total
    if per_entry:
        classes, _ = tangent_classes(S, 9, 8)
        assert [classes[(n + 1, n)][(2 * n + 1, 0)] for n in range(9)] == per_entry
