"""Exact character algebra.

One character ring serves both tori.  A ``Character`` is a Laurent
polynomial with integer multiplicities in two torus variables, keyed by
exponent pairs (a, b).  At a chart the local variables t1, t2 are the
chart's characters w1, w2 of the global torus, so ``substitute_chart`` is
the ring map t1 -> s^w1, t2 -> s^w2 and its image is a ``Character`` of
the same type, read as the signed multiset of global weights a*s1 + b*s2.
A character therefore evaluates at (x, y) in whichever torus it lives in:
a local one at the projected point (w1(x, y), w2(x, y)) gives what its
substitution gives at (x, y), and a twist by a line bundle enters a Chern
series as the integer value of its weight there.  Truncated series in an
auxiliary variable u extract graded Chern classes.  Everything is exact:
specialization is at integer points; exact because every summand is
homogeneous of degree 0 in (s1, s2).  Only the Euler class is a
``fractions.Fraction``.  No floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Iterable, Mapping, NamedTuple

from .errors import DependentChartWeights, SpecializationPole, VirtualCharacter, ZeroWeightInTangent


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

    def value(self, x: int, y: int) -> int:
        return self.a * x + self.b * y


class Slotted:
    """Equality, hash and a dataclass-style repr over ``__slots__``; immutable by convention."""

    __slots__ = ()
    _unshown = ()  # fields the repr leaves out

    def _fields(self):
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        shown = (f"{f}={getattr(self, f)!r}" for f in self.__slots__ if f not in self._unshown)
        return f"{type(self).__qualname__}({', '.join(shown)})"


class Character:
    """Sparse Laurent polynomial in two torus variables with integer
    coefficients: a K-theory class of the 2-torus, local or global.

    Keys of ``terms`` are exponent pairs (a, b), the weight a*s1 + b*s2;
    values are nonzero multiplicities.  Instances are immutable in use;
    all operations return new characters in canonical (zero-pruned) form.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    @staticmethod
    def monomial(a: int, b: int, coeff: int = 1) -> "Character":
        return Character({(a, b): coeff})

    def __eq__(self, other):
        return isinstance(other, Character) and self.terms == other.terms

    def __add__(self, other: "Character") -> "Character":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return Character(out)

    def __neg__(self) -> "Character":
        return Character({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "Character") -> "Character":
        return self + (-other)

    def __mul__(self, other: "Character") -> "Character":
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), v1 in self.terms.items():
            for (a2, b2), v2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0) + v1 * v2
        return Character(out)

    def signed_rank(self) -> int:
        """Value at t1 = t2 = 1."""
        return sum(self.terms.values())

    def zero_multiplicity(self) -> int:
        """Multiplicity of the trivial character (0, 0)."""
        return self.terms.get((0, 0), 0)

    def __repr__(self):
        if not self.terms:
            return "Character(0)"
        bits = [f"{v}*t1^{a}*t2^{b}" for (a, b), v in sorted(self.terms.items())]
        return "Character(" + " + ".join(bits) + ")"


def substitute_chart(p: Character, w1: Weight, w2: Weight) -> Character:
    """The ring map t1 -> s^w1, t2 -> s^w2 of a chart with independent
    weights w1, w2: the exponent pair (a, b) goes to a*w1 + b*w2.  The map
    is injective, so no two terms merge."""
    (a1, b1), (a2, b2) = w1, w2
    if a1 * b2 - b1 * a2 == 0:
        raise DependentChartWeights(f"parallel chart weights {w1}, {w2}")
    return Character({(a * a1 + b * a2, a * b1 + b * b2): v for (a, b), v in p.terms.items()})


def _require_int_point(x, y) -> None:
    # A Fraction point, even an integral one, would turn the int series
    # coefficients into Fractions that no caller expects: refuse it here.
    if type(x) is not int or type(y) is not int:
        raise TypeError(f"specialization point must be a pair of ints, got ({x!r}, {y!r})")


def euler_value(c: Character, x: int, y: int) -> Fraction:
    """Equivariant Euler class of c at the integer point s1 = x, s2 = y.

    Product of weight values with multiplicities as exponents; negative
    multiplicities land in the denominator.
    """
    _require_int_point(x, y)
    if c.zero_multiplicity() != 0:
        raise ZeroWeightInTangent("zero weight with nonzero multiplicity")
    num = den = 1
    for (a, b), m in c.terms.items():
        v = a * x + b * y
        if v == 0:
            raise SpecializationPole(f"weight ({a}, {b}) vanishes at ({x}, {y})")
        if m > 0:
            num *= v**m
        else:
            den *= v**-m
    return Fraction(num, den)


class USeries:
    """Truncated series in the grading variable u: integer coefficients of u^0 .. u^cutoff."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs = list(coeffs)

    @staticmethod
    def one(cutoff: int) -> "USeries":
        return USeries([1] + [0] * cutoff)

    def __mul__(self, other: "USeries") -> "USeries":
        n, bs = len(self.coeffs), other.coeffs
        if len(bs) != n:
            raise ValueError(f"length mismatch: {n} vs {len(bs)} coefficients")
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a:
                for j in range(n - i):
                    out[i + j] += a * bs[j]
        return USeries(out)

    def __repr__(self):
        return f"USeries({self.coeffs})"


def chern_useries(c: Character, x: int, y: int, cutoff: int, twist: int = 0) -> USeries:
    """Total equivariant Chern class of c ⊗ L at the integer point (x, y),
    graded by u, where ``twist`` is the value of L's weight at (x, y).

    Returns the product over weights w of (1 + u*w')^mult with
    w' = w(x,y) + twist, truncated at u^cutoff; the u^k coefficient is the
    k-th Chern class of c ⊗ L at the specialization.  It is a running
    product: a positive multiplicity multiplies by (1 + u*w') up to the
    highest degree reached so far, so an effective c stops at its rank; a
    negative one divides by (1 + u*w') as a power series up to the cutoff.
    Integer sums and products only, with no integer division.
    """
    _require_int_point(x, y)
    if cutoff < 0:
        raise ValueError(f"u-series cutoff must be >= 0, got {cutoff}")
    e = [1] + [0] * cutoff
    top = 0  # the highest degree reached so far
    for (a, b), m in c.terms.items():
        v = a * x + b * y + twist
        for _ in range(abs(m)):
            if m > 0:  # times (1 + u v)
                top = min(top + 1, cutoff)
                for k in range(top, 0, -1):
                    e[k] += v * e[k - 1]
            else:  # divided by (1 + u v)
                top = cutoff
                for k in range(1, cutoff + 1):
                    e[k] -= v * e[k - 1]
    return USeries(e)


def top_chern_value(c: Character, x: int, y: int, twist: int = 0) -> int:
    """The u^rank coefficient of ``chern_useries`` for an effective c: the
    product of w'^mult; a vanishing w' = w(x, y) + twist gives 0, no pole.
    A virtual c has no such value and raises ``VirtualCharacter``."""
    _require_int_point(x, y)
    try:
        value = prod((a * x + b * y + twist) ** m for (a, b), m in c.terms.items())
    except ZeroDivisionError:  # 0 ** m with m < 0
        value = None
    if type(value) is not int:  # v ** m with m < 0 is a float
        negative = {w: m for w, m in c.terms.items() if m < 0}
        raise VirtualCharacter(f"top Chern value of a virtual character: multiplicities {negative}")
    return value
