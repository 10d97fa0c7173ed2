from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nesthilb.charalg import (
    Character,
    USeries,
    Weight,
    chern_useries,
    euler_value,
    substitute_chart,
    top_chern_value,
)
from nesthilb.errors import (
    DependentChartWeights,
    NestHilbError,
    SpecializationPole,
    ZeroWeightInTangent,
)
from nesthilb.fixedchar import nested_tangent_char
from nesthilb.partitions import Partition, box_char
from nesthilb.verify import _binomial

t1 = Character.monomial(1, 0)
t2 = Character.monomial(0, 1)
one = Character.monomial(0, 0)


def local_chars():
    return st.dictionaries(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.integers(-4, 4),
        max_size=6,
    ).map(Character)


def weights():
    return st.builds(Weight, st.integers(-3, 3), st.integers(-3, 3))


def chart_weights():
    """Two linearly independent chart weights."""
    return st.tuples(weights(), weights()).filter(
        lambda ws: ws[0].a * ws[1].b != ws[0].b * ws[1].a
    )


class TestLocalCharacter:
    def test_cancellation(self):
        assert (one + t1) + (-t1) == one

    def test_additive_identity(self):
        p = one + t1 + t2
        assert p + Character() == p

    def test_doubling(self):
        assert one + one == Character({(0, 0): 2})

    def test_product_of_variables(self):
        assert t1 * t2 == Character.monomial(1, 1)

    def test_product_expansion(self):
        assert (one - t1) * (one - t2) == Character(
            {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1}
        )

    @given(local_chars(), local_chars(), local_chars())
    @settings(max_examples=50)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    def test_no_stored_zeros(self):
        p = Character({(0, 0): 0, (1, 0): 2})
        assert (0, 0) not in p.terms


class TestSubstituteChart:
    def test_standard_chart(self):
        c = substitute_chart(t1, Weight(1, 0), Weight(0, 1))
        assert c.terms == {(1, 0): 1}

    def test_skew_chart(self):
        c = substitute_chart(t1 * Character.monomial(0, -1), Weight(1, 0), Weight(1, -1))
        assert c.terms == {(0, 1): 1}

    def test_constant_term_goes_to_zero_weight(self):
        c = substitute_chart(one + t1, Weight(1, 0), Weight(0, 1))
        assert c.terms == {(0, 0): 1, (1, 0): 1}

    def test_parallel_weights_rejected(self):
        with pytest.raises(DependentChartWeights):
            substitute_chart(t1, Weight(1, 1), Weight(2, 2))

    @given(local_chars(), local_chars())
    @settings(max_examples=50)
    def test_additive(self, p, q):
        w1, w2 = Weight(1, 0), Weight(1, -1)
        lhs = substitute_chart(p + q, w1, w2)
        rhs = substitute_chart(p, w1, w2) + substitute_chart(q, w1, w2)
        assert lhs == rhs

    @given(local_chars())
    def test_signed_rank_preserved(self, p):
        c = substitute_chart(p, Weight(2, 1), Weight(1, 1))
        assert c.signed_rank() == p.signed_rank()

    @given(local_chars(), local_chars(), chart_weights())
    @settings(max_examples=50)
    def test_multiplicative(self, p, q, ws):
        # a twist after substitution is a product with a substituted monomial
        lhs = substitute_chart(p * q, *ws)
        assert lhs == substitute_chart(p, *ws) * substitute_chart(q, *ws)

    @given(local_chars(), chart_weights(), weights(), st.integers(-50, 50),
           st.integers(-50, 50), st.integers(0, 6))
    @settings(max_examples=100)
    def test_chern_at_projected_point(self, p, ws, m, x, y, k):
        # a local character at (w1(x, y), w2(x, y)) is its substitution at
        # (x, y), and a twist by the monomial of m is the integer m(x, y)
        w1, w2 = ws
        X, Y = w1.value(x, y), w2.value(x, y)
        lhs = chern_useries(p, X, Y, k).coeffs
        assert lhs == chern_useries(substitute_chart(p, w1, w2), x, y, k).coeffs
        twisted = substitute_chart(p, w1, w2) * Character.monomial(*m)
        lhs = chern_useries(p, X, Y, k, m.value(x, y)).coeffs
        assert lhs == chern_useries(twisted, x, y, k).coeffs

    @given(local_chars().filter(lambda p: not p.zero_multiplicity()), chart_weights(),
           st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=100)
    def test_euler_at_projected_point(self, p, ws, x, y):
        w1, w2 = ws
        try:
            lhs = euler_value(p, w1.value(x, y), w2.value(x, y))
        except SpecializationPole:
            assume(False)
        assert lhs == euler_value(substitute_chart(p, w1, w2), x, y)


class TestEulerValue:
    def test_effective_rank_two(self):
        c = Character({(1, 0): 1, (0, 1): 1})
        assert euler_value(c, 1, 1) == 1

    def test_negative_multiplicity_divides(self):
        c = Character({(1, 0): 1, (0, 1): -1})
        assert euler_value(c, 2, 3) == Fraction(2, 3)

    def test_zero_weight_is_structural(self):
        c = Character({(0, 0): 1, (1, 0): 1})
        with pytest.raises(ZeroWeightInTangent):
            euler_value(c, 1, 2)

    def test_vanishing_weight_is_a_pole(self):
        c = Character({(1, -1): 1})
        with pytest.raises(SpecializationPole):
            euler_value(c, 5, 5)

    def test_rational_point_rejected(self):
        c = Character({(1, 0): 1})
        with pytest.raises(TypeError, match="pair of ints"):
            euler_value(c, Fraction(1, 2), 3)
        with pytest.raises(TypeError, match="pair of ints"):
            euler_value(c, 1, Fraction(3))


class TestChernSeries:
    def test_empty_character(self):
        s = chern_useries(Character(), 1, 2, 3)
        assert s.coeffs == USeries.one(3).coeffs

    def test_single_line(self):
        c = Character({(1, 0): 1})
        s = chern_useries(c, 2, 5, 2)
        assert s.coeffs == [1, 2, 0]

    def test_negative_line_geometric_series(self):
        c = Character({(1, 0): -1})
        s = chern_useries(c, 1, 1, 2)
        assert s.coeffs == [1, -1, 1]

    def test_sum_of_characters_multiplies_series(self):
        x, y = 21, 10
        a = Character({(1, 0): 2, (1, 1): -1})
        b = Character({(0, 1): 1, (2, -1): 3})
        lhs = chern_useries(a + b, x, y, 4)
        rhs = chern_useries(a, x, y, 4) * chern_useries(b, x, y, 4)
        assert lhs.coeffs == rhs.coeffs

    def test_euler_is_top_chern_for_effective_characters(self):
        x, y = 77, 6
        c = Character({(1, 0): 2, (0, 1): 1, (1, 2): 1})
        r = c.signed_rank()
        s = chern_useries(c, x, y, r)
        assert s.coeffs[r] == euler_value(c, x, y)

    @given(
        st.dictionaries(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(1, 3), max_size=5
        ).map(Character),
        st.integers(-9, 9),
        st.integers(-9, 9),
        st.integers(-9, 9),
    )
    @settings(max_examples=200, deadline=None)
    def test_top_chern_value_is_the_top_coefficient(self, c, x, y, twist):
        # for an effective c the series stops at the rank; a vanishing
        # twisted weight is a zero there, not a pole
        r = c.signed_rank()
        top = top_chern_value(c, x, y, twist)
        assert chern_useries(c, x, y, r + 2, twist).coeffs[r:] == [top, 0, 0]

    @pytest.mark.parametrize("x,y", [(2, 5), (1, -1)], ids=["no-vanishing", "vanishing"])
    def test_top_chern_value_of_a_virtual_character_is_refused(self, x, y):
        # the nested tangent at ((2, 1), (1)) is virtual: a negative power
        # is a float, and at (1, -1) its negative weight (-1, -1) vanishes,
        # so 0 ** -m would divide by zero
        c = nested_tangent_char(box_char(Partition((2, 1))), box_char(Partition((1,))))
        negative = {w: m for w, m in c.terms.items() if m < 0}
        assert (-1, -1) in negative
        assert any(a * x + b * y == 0 for a, b in negative) is (y == -1)
        with pytest.raises(NestHilbError, match="virtual character") as err:
            top_chern_value(c, x, y)
        for w, m in negative.items():
            assert f"{w}: {m}" in str(err.value)

    @given(
        st.dictionaries(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(1, 3), max_size=5
        ).map(Character),
        st.integers(-9, 9),
        st.integers(-9, 9),
        st.integers(-9, 9),
    )
    @settings(max_examples=100, deadline=None)
    def test_effective_series_is_zero_above_its_rank(self, c, x, y, twist):
        # at every cutoff from the rank on, the series is the one at the
        # rank padded with zeros, the degree-rank coefficient included
        r = c.signed_rank()
        at_rank = chern_useries(c, x, y, r, twist).coeffs
        assert at_rank[r] == top_chern_value(c, x, y, twist)
        for cutoff in range(r, r + 4):
            assert chern_useries(c, x, y, cutoff, twist).coeffs == at_rank + [0] * (cutoff - r)

    @pytest.mark.parametrize("c", [Character(), Character({(1, 0): 2})], ids=["empty", "rank-2"])
    def test_negative_cutoff_is_refused(self, c):
        with pytest.raises(ValueError, match=r"^u-series cutoff must be >= 0, got -1$"):
            chern_useries(c, 2, 5, -1)

    def test_rational_point_rejected(self):
        # a Fraction point would give Fraction coefficients in an int series
        c = Character({(1, 0): 1})
        with pytest.raises(TypeError, match="pair of ints"):
            chern_useries(c, Fraction(3, 2), 5, 2)
        with pytest.raises(TypeError, match="pair of ints"):
            chern_useries(c, Fraction(3), 5, 2)

    @pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(3), 1.0], ids=["half", "three", "float"])
    def test_top_chern_value_rational_point_rejected(self, x):
        # refused as a point, not as a virtual character
        c = Character({(1, 0): 1})
        with pytest.raises(TypeError, match="pair of ints"):
            top_chern_value(c, x, 1)
        with pytest.raises(TypeError, match="pair of ints"):
            top_chern_value(c, 1, x)


class TestUSeries:
    def test_truncated_multiplication(self):
        a = USeries([1, 2, 3])
        b = USeries([1, -1, 0])
        assert (a * b).coeffs == [1, 1, 1]

    def test_different_lengths_are_refused(self):
        # the cutoff is the length less one: two cutoffs cannot be multiplied
        with pytest.raises(ValueError, match=r"^length mismatch: 3 vs 2 coefficients$"):
            USeries([1, 2, 3]) * USeries.one(1)


class TestBinomial:
    @pytest.mark.parametrize(
        "m,k,expected",
        [(5, 2, 10), (3, 0, 1), (3, 4, 0), (-1, 3, -1), (-2, 3, -4), (-3, 2, 6)],
    )
    def test_values(self, m, k, expected):
        assert _binomial(m, k) == expected
