"""The integer vertex product against an independent Fraction slow path.

The slow path expands prod (1 + u*w(x, y))^m by multiplying or dividing
by (1 + u*w(x, y)) one factor at a time over the rationals, takes the
Euler class as a product of Fraction powers, reads top degrees off the
signed ranks of the characters, and sums the localization formula over
every global configuration of ``enumerate_configs`` at rational points.
It shares only the character formulas with the engine, which multiplies
one local factor per fixed point instead.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nesthilb.charalg import GlobalCharacter, Weight, chern_useries
from nesthilb.fixedchar import enumerate_configs
from nesthilb.integrate import (
    IntegrandSpec,
    _chart_grid,
    _chart_terms,
    _factor_character,
    _grading,
    _read,
    _tangent_character,
    chern_index_em,
    integrate,
    top_chern_em,
    top_chern_taut,
    total_chern_em,
    total_chern_em_rev,
    total_chern_tangent,
    total_chern_twisted_tangent,
)
from nesthilb.toric import (
    canonical_bundle,
    line_bundle,
    surface_from_json,
    surface_hirzebruch,
    surface_p1xp1,
    surface_p2,
)

# x/y is far from every ratio -b/a of small weights, so no weight vanishes
RATIONAL_POINT = (Fraction(7919, 13), Fraction(104729, 17))


def reference_chern(c: GlobalCharacter, x: Fraction, y: Fraction, cutoff: int) -> list[Fraction]:
    """Coefficients of prod (1 + u*w(x, y))^m up to u^cutoff."""
    out = [Fraction(1)] + [Fraction(0)] * cutoff
    for w, m in c.terms.items():
        v = w.a * x + w.b * y
        for _ in range(abs(m)):
            if m > 0:  # times (1 + u v)
                out = [out[0]] + [out[k] + v * out[k - 1] for k in range(1, cutoff + 1)]
            else:  # divided by (1 + u v)
                quotient = [out[0]]
                for k in range(1, cutoff + 1):
                    quotient.append(out[k] - v * quotient[k - 1])
                out = quotient
    return out


def reference_euler(c: GlobalCharacter, x: Fraction, y: Fraction) -> Fraction:
    result = Fraction(1)
    for w, m in c.terms.items():
        result *= (w.a * x + w.b * y) ** m
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
        st.builds(Weight, st.integers(-4, 4), st.integers(-4, 4)),
        st.integers(-3, 3),
        max_size=6,
    ).map(GlobalCharacter)


class TestChernSeriesAgainstReference:
    @given(global_chars(), st.integers(1, 200), st.integers(1, 200), st.integers(0, 9))
    @settings(max_examples=200, deadline=None)
    @example(GlobalCharacter({Weight(1, 0): 2, Weight(0, 1): -1}), 3, 5, 6)
    @example(GlobalCharacter({Weight(1, -1): -3, Weight(2, 1): 1}), 7, 2, 8)
    def test_matches_direct_expansion(self, c, x, y, cutoff):
        fast = chern_useries(c, x, y, cutoff).coeffs
        assert fast == reference_chern(c, Fraction(x), Fraction(y), cutoff)
        assert all(type(e) is int for e in fast)


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
            "hilb-tangent": IntegrandSpec("hilb", (total_chern_tangent(),)),
            "hilb-taut-top": IntegrandSpec("hilb", (total_chern_em(M), top_chern_taut(K, slot=1))),
        }
        for label, spec in specs.items():
            keys = [(1, 0), (2, 0)] if spec.mode == "hilb" else [(1, 0), (1, 1), (2, 1), (2, 2)]
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


def _table_cases():
    """One call at (2, 2), or (2, 0) in hilb mode, read at every entry."""
    out = []
    for S, M in (
        (surface_p2(), line_bundle(surface_p2(), [0, 0, 1])),
        (surface_p1xp1(), line_bundle(surface_p1xp1(), [0, 0, 1, 1])),
        (surface_hirzebruch(2), line_bundle(surface_hirzebruch(2), [0, 0, 1, 0])),
        (surface_from_json(README_DESCRIPTOR), surface_from_json(README_DESCRIPTOR).bundle("L")),
    ):
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
            "hilb-tangent": IntegrandSpec("hilb", (total_chern_tangent(),)),
            "hilb-taut-top": IntegrandSpec("hilb", (total_chern_em(M), top_chern_taut(K, slot=1))),
        }
        for label, spec in specs.items():
            out.append(pytest.param(S, spec, id=f"{S.name}-{label}"))
    return out


@pytest.mark.parametrize("S,spec", _table_cases())
def test_every_entry_of_one_call_matches_rational_slow_path(S, spec):
    n2 = 0 if spec.mode == "hilb" else 2
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
    grading = _grading(spec, 2, 1)
    chart = _chart_terms(S, spec, grading.reads)[1]
    assert sum(map(len, chart.values())) > len(grading.reads)
    for key, terms in chart.items():
        for term in terms:
            tangent, chars = term
            fs = reference_degrees(chars, spec)
            slow = reference_summand(tangent, fs, x, y)
            assert slow == reference_summand(tangent, fs, Fraction(X), Fraction(Y))
            den, grid = _chart_grid({key: [term]}, X, Y, spec, grading)
            assert Fraction(_read(grid, key, grading), den) == slow
