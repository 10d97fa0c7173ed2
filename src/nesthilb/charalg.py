"""Exact character algebra.

Laurent polynomials in the two local torus variables t1, t2 with integer
multiplicities, signed weight multisets in the global character lattice,
and truncated series in an auxiliary variable u used to extract graded
Chern classes.  Everything is exact: integer multiplicities locally,
``fractions.Fraction`` after specialization.  No floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, NamedTuple

from .errors import DependentChartWeights, SpecializationPole, ZeroWeightInTangent

Rational = Fraction


class Weight(NamedTuple):
    """A character a*s1 + b*s2 of the global 2-torus."""

    a: int
    b: int

    def __add__(self, other):
        return Weight(self.a + other.a, self.b + other.b)

    def __neg__(self):
        return Weight(-self.a, -self.b)

    def __sub__(self, other):
        return Weight(self.a - other.a, self.b - other.b)

    def scale(self, k: int) -> "Weight":
        return Weight(k * self.a, k * self.b)

    def value(self, x: Rational, y: Rational) -> Rational:
        return self.a * x + self.b * y


ZERO_WEIGHT = Weight(0, 0)


def _pruned(terms: Mapping) -> dict:
    return {k: v for k, v in terms.items() if v != 0}


class LocalCharacter:
    """Sparse Laurent polynomial in t1, t2 with integer coefficients.

    Keys of ``terms`` are exponent pairs (a, b); values are nonzero
    integers.  Instances are immutable in use; all operations return new
    characters in canonical (zero-pruned) form.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        self.terms = _pruned(terms or {})

    @staticmethod
    def monomial(a: int, b: int, coeff: int = 1) -> "LocalCharacter":
        return LocalCharacter({(a, b): coeff})

    @staticmethod
    def zero() -> "LocalCharacter":
        return LocalCharacter()

    @staticmethod
    def one() -> "LocalCharacter":
        return LocalCharacter({(0, 0): 1})

    def __eq__(self, other):
        return isinstance(other, LocalCharacter) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "LocalCharacter") -> "LocalCharacter":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return LocalCharacter(out)

    def __neg__(self) -> "LocalCharacter":
        return LocalCharacter({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "LocalCharacter") -> "LocalCharacter":
        return self + (-other)

    def __mul__(self, other: "LocalCharacter") -> "LocalCharacter":
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), v1 in self.terms.items():
            for (a2, b2), v2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0) + v1 * v2
        return LocalCharacter(out)

    def bar(self) -> "LocalCharacter":
        """Invert both torus variables: (a, b) -> (-a, -b)."""
        return LocalCharacter({(-a, -b): v for (a, b), v in self.terms.items()})

    def signed_rank(self) -> int:
        """Value at t1 = t2 = 1."""
        return sum(self.terms.values())

    def __repr__(self):
        if not self.terms:
            return "LocalCharacter(0)"
        bits = [f"{v}*t1^{a}*t2^{b}" for (a, b), v in sorted(self.terms.items())]
        return "LocalCharacter(" + " + ".join(bits) + ")"


class GlobalCharacter:
    """Signed multiset of global weights: a K-theory class at a fixed point."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Weight, int] | None = None):
        self.terms = _pruned(terms or {})

    def __eq__(self, other):
        return isinstance(other, GlobalCharacter) and self.terms == other.terms

    def __add__(self, other: "GlobalCharacter") -> "GlobalCharacter":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return GlobalCharacter(out)

    def translate(self, w: Weight) -> "GlobalCharacter":
        """Tensor by the line with character w: shift every weight by w."""
        return GlobalCharacter({k + w: v for k, v in self.terms.items()})

    def signed_rank(self) -> int:
        return sum(self.terms.values())

    def zero_multiplicity(self) -> int:
        return self.terms.get(ZERO_WEIGHT, 0)

    def __repr__(self):
        return f"GlobalCharacter({dict(sorted(self.terms.items()))})"


def substitute_chart(p: LocalCharacter, w1: Weight, w2: Weight) -> GlobalCharacter:
    """Send the local exponent pair (a, b) to the global weight a*w1 + b*w2."""
    if w1.a * w2.b - w1.b * w2.a == 0:
        raise DependentChartWeights(f"parallel chart weights {w1}, {w2}")
    out: dict[Weight, int] = {}
    for (a, b), v in p.terms.items():
        w = w1.scale(a) + w2.scale(b)
        out[w] = out.get(w, 0) + v
    return GlobalCharacter(out)


def euler_value(c: GlobalCharacter, x: Rational, y: Rational) -> Rational:
    """Equivariant Euler class of c at s1 = x, s2 = y.

    Product of weight values with multiplicities as exponents; negative
    multiplicities land in the denominator.
    """
    if c.zero_multiplicity() != 0:
        raise ZeroWeightInTangent("zero weight with nonzero multiplicity")
    result = Fraction(1)
    for w, m in c.terms.items():
        v = w.value(x, y)
        if v == 0:
            raise SpecializationPole(f"weight {w} vanishes at ({x}, {y})")
        result *= Fraction(v) ** m
    return result


def _binomial(m: int, k: int) -> int:
    """Generalized binomial coefficient C(m, k) for any integer m, k >= 0."""
    if m >= 0:
        return comb(m, k)
    return (-1) ** k * comb(k - m - 1, k)


class USeries:
    """Truncated series in the auxiliary grading variable u, exact coefficients."""

    __slots__ = ("coeffs", "cutoff")

    def __init__(self, coeffs: Iterable[Rational], cutoff: int):
        cs = list(coeffs)
        if len(cs) != cutoff + 1:
            raise ValueError(f"{len(cs)} coefficients for cutoff {cutoff}")
        self.coeffs = [Fraction(c) for c in cs]
        self.cutoff = cutoff

    @staticmethod
    def one(cutoff: int) -> "USeries":
        return USeries([Fraction(1)] + [Fraction(0)] * cutoff, cutoff)

    def __eq__(self, other):
        return (
            isinstance(other, USeries)
            and self.cutoff == other.cutoff
            and self.coeffs == other.coeffs
        )

    def __mul__(self, other: "USeries") -> "USeries":
        if self.cutoff != other.cutoff:
            raise ValueError(f"cutoff mismatch: {self.cutoff} vs {other.cutoff}")
        n = self.cutoff
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(0, n - i + 1):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return USeries(out, n)

    def coefficient(self, k: int) -> Rational:
        return self.coeffs[k]

    def keep_only(self, k: int) -> "USeries":
        """Zero every coefficient except degree k (degree-selection factor)."""
        out = [Fraction(0)] * (self.cutoff + 1)
        if 0 <= k <= self.cutoff:
            out[k] = self.coeffs[k]
        return USeries(out, self.cutoff)

    def __repr__(self):
        return f"USeries({self.coeffs})"


def chern_useries(c: GlobalCharacter, x: Rational, y: Rational, cutoff: int) -> USeries:
    """Total equivariant Chern class of c at (x, y), graded by u.

    Returns the truncated product over weights w of (1 + u*w(x,y))^mult;
    the u^k coefficient is the k-th Chern class of c at the
    specialization.  Negative multiplicities expand by the binomial
    series, which is exact at any truncation order.
    """
    result = USeries.one(cutoff)
    for w, m in c.terms.items():
        v = w.value(x, y)
        factor = [Fraction(_binomial(m, k)) * Fraction(v) ** k for k in range(cutoff + 1)]
        result = result * USeries(factor, cutoff)
    return result
