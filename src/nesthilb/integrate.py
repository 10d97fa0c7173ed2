"""The localization integrator.

An invariant is a sum over fixed-point configurations of

    [u^vdim coefficient of the product of factor Chern series]
    / (equivariant Euler class of the tangent character).

Tangent and factor classes are sums over the fixed points p, so each
summand is a product of local terms and a whole table is one product

    Z = prod_p Z_p,   Z_p = sum over local partition pairs of sizes (a, b)
                            of q1^a q2^b c(E_p) / e(T_p),

whose q1^n1 q2^n2 coefficient is the (n1, n2) entry.  Z_p is one flat grid
of u-series keyed by the sizes (a, b), and products cut it at the sizes and
in u.  "Total" factors are graded by u.  An effective Chern series stops at
its rank, so a "top" factor (theorem5's product side, case2's Hilbert side)
is one value per local term, its top Chern value, and each entry reads u at
vdim less its top factors' ranks: every rank is linear in the sizes.  If
all factors are total and effective and their ranks add up to vdim
(theorem7, zprod, the nested sides), each local term is read at its top
degree: flattened once per call (``_top_terms``), it is one integer
fraction of products of weight values.  Before any draw, on either read,
``integrate`` refuses a tangent holding (0, 0) and a virtual top factor.
A factor read at its top degree with no bundle is 0 at every chart and
point on a local term whose character holds the weight (0, 0), so such
terms are dropped before evaluation (``_nonzero_terms``).  The untwisted
em factor of theorem5's product side and of zprod holds it unless Z2 lies
in Z1 (Carlsson-Okounkov), so only those pairs are evaluated there;
configuration counts still count every pair.
Nothing here sums over configurations: that sum (``enumerate_configs``,
``_tangent_character``, ``_factor_character``) is the tests' brute-force
oracle and the only user of ``substitute_chart``, kept in the package
because the benchmark trace (``perfbench/tracing.py`` ``SITES``) binds all
of it but ``_factor_character``.

Z is evaluated exactly at several seeded random integer points, which
must agree.  That is exact because every summand is homogeneous of
degree 0 in (s1, s2).  Z_p sees its chart only through the chart weights,
so it is evaluated from the local terms at the projected point
(w1(x, y), w2(x, y)).  Each chart's factor is integral over one common
denominator, so each entry costs one Fraction.

Factors and specs are checked when made, immutable by convention.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from itertools import repeat
from math import lcm, prod
from operator import add
from typing import NamedTuple

from .charalg import Character, Slotted, USeries, Weight, chern_useries, euler_value
from .charalg import top_chern_value
from .charalg import substitute_chart  # the oracle's only, and bound for the benchmark trace
from .errors import InvalidNesting, SpecializationPole, VirtualCharacter, ZeroWeightInTangent
from .fixedchar import (  # enumerate_configs: never called, bound for the benchmark trace
    FixedConfig,
    em_char,
    enumerate_configs,
    hilb_tangent_char,
    local_pair_chars,
    nested_tangent_char,
)
from .sampling import Point, certified_value, make_rng, random_point
from .toric import EquivariantLineBundle, FixedPointChart, ToricSurfaceDescriptor

_NPOINTS = 3  # specialization points that must agree


class Factor(Slotted):
    """One multiplicative piece of an integrand.

    kind: "total" (whole Chern series) or "top" (top Chern class only, of
    an effective class: its value at the rank).
    klass: which K-class the factor is built from: em, the extension class
    of (Z1, Z2), or taut or tangent, classes of Z1 alone.
    """

    __slots__ = ("kind", "klass", "bundle")

    def __init__(self, kind: str, klass: str, bundle: EquivariantLineBundle | None = None):
        self.kind, self.klass, self.bundle = kind, klass, bundle
        if self.kind not in ("total", "top"):
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if self.klass not in ("em", "taut", "tangent"):
            raise ValueError(f"unknown factor class {self.klass!r}")
        if self.bundle is not None and not isinstance(self.bundle, EquivariantLineBundle):
            raise ValueError(f"a factor's twist is a line bundle, got {self.bundle!r}")


def total_chern_em(bundle: EquivariantLineBundle | None = None) -> Factor:
    return Factor("total", "em", bundle)


def top_chern_em(bundle: EquivariantLineBundle | None = None) -> Factor:
    return Factor("top", "em", bundle)


def total_chern_tangent(bundle: EquivariantLineBundle | None = None) -> Factor:
    return Factor("total", "tangent", bundle)


def top_chern_taut(bundle: EquivariantLineBundle) -> Factor:
    return Factor("top", "taut", bundle)


class IntegrandSpec(Slotted):
    """mode: "nested" (the nested scheme S^[n1,n2]) or "product" (S^[n1] x
    S^[n2]).  The single Hilbert scheme S^[n] is product mode at n2 = 0
    (see ``integrate_hilb``)."""

    __slots__ = ("mode", "factors")

    def __init__(self, mode: str, factors: tuple[Factor, ...] = ()):
        self.mode, self.factors = mode, factors
        if self.mode not in ("nested", "product"):
            raise ValueError(f"unknown mode {self.mode!r}")


class InvariantResult(NamedTuple):
    """Every entry (a, b) <= (n1, n2) of one localization table (b <= a
    in nested mode) and its configuration count."""

    values: dict[tuple[int, int], Fraction]
    config_counts: dict[tuple[int, int], int]
    specializations: tuple[Point, ...]
    n1: int
    n2: int

    @property
    def value(self) -> Fraction:
        return self.values[(self.n1, self.n2)]

    @property
    def config_count(self) -> int:
        return self.config_counts[(self.n1, self.n2)]


def _local_tangent(Z1: Character, Z2: Character, mode: str) -> Character:
    if mode == "nested":
        return nested_tangent_char(Z1, Z2)
    return hilb_tangent_char(Z1) + hilb_tangent_char(Z2)


def _local_factor(Z1: Character, Z2: Character, f: Factor) -> Character:
    if f.klass == "em":
        return em_char(Z1, Z2)
    return hilb_tangent_char(Z1) if f.klass == "tangent" else Z1  # taut


# by local sizes (a, b): per local pair, the local tangent and factor characters
_Terms = dict[tuple[int, int], list[tuple[Character, tuple[Character, ...]]]]


def _local_terms(spec: IntegrandSpec, n1: int, n2: int) -> _Terms:
    """The local terms of every local pair of sizes (a, b) <= (n1, n2),
    b <= a in nested mode, built once per pair."""
    keys = (
        (a, b) for a in range(n1 + 1) for b in range(n2 + 1) if spec.mode == "product" or b <= a
    )
    return {
        key: [
            (_local_tangent(Z1, Z2, spec.mode), tuple(_local_factor(Z1, Z2, f) for f in spec.factors))
            for _, Z1, Z2 in local_pair_chars(*key, spec.mode)
        ]
        for key in keys
    }


class _Grading(NamedTuple):
    """Which coefficient of the vertex product each table entry reads.

    Total factors are graded by u; a top factor is read at its rank.  So
    entry (a, b) reads u^k, k = vdim(a, b) less the ranks of its top
    factors; a negative k reads 0.
    """

    reads: dict[tuple[int, int], int]  # by entry, in order: its k
    n1: int
    n2: int
    ucut: int
    top: bool  # every entry reads one integer: u^vdim at top degree


def _grading(spec: IntegrandSpec, local: _Terms) -> _Grading:
    """The reads of every entry of ``local``'s table.

    vdim is the signed rank of the tangent and a top factor's degree the
    signed rank of its character.  Every rank is linear in the sizes, so
    a local pair of sizes (a, b) has the rank of entry (a, b): both are
    read off the first local pair of each key.  The table is read at top
    degree if all factors are total and effective and their ranks add up
    to vdim.
    """
    if all(f.kind == "total" for f in spec.factors) and all(
        m > 0 for ts in local.values() for _, chars in ts for c in chars for m in c.terms.values()
    ) and all(
        sum(char.signed_rank() for char in terms[0][1]) == terms[0][0].signed_rank()
        for terms in local.values()
    ):
        return _Grading(dict.fromkeys(local, 0), *max(local), 0, True)
    reads = {}
    for key, terms in local.items():
        tangent, chars = terms[0]
        tops = sum(char.signed_rank() for char, f in zip(chars, spec.factors) if f.kind == "top")
        reads[key] = tangent.signed_rank() - tops
    return _Grading(reads, *max(local), max(0, *reads.values()), False)  # largest key: (n1, n2)


def _nonzero_terms(spec: IntegrandSpec, local: _Terms, grading: _Grading) -> _Terms:
    """``local`` without the terms that are 0 at every chart and point, or
    ``local`` itself when no factor can make one.  A factor read at its
    top degree (the whole table at top degree, or a top factor) has the
    product of its weights as its value; with no bundle its twist is 0,
    so a local character that holds the weight (0, 0) makes it 0."""
    zero = [
        j for j, f in enumerate(spec.factors)
        if f.bundle is None and (grading.top or f.kind == "top")
    ]
    if not zero:
        return local
    nonzero = {
        key: [term for term in terms if not any(term[1][j].zero_multiplicity() for j in zero)]
        for key, terms in local.items()
    }
    return {key: terms for key, terms in nonzero.items() if terms}


def _at_chart(char: Character, chart: FixedPointChart, twist: Weight) -> Character:
    """The oracle's copy of a local term at ``chart``, twisted by ``twist``."""
    return substitute_chart(char, chart.w1, chart.w2) * Character.monomial(*twist)


def _twist(f: Factor, i: int) -> Weight:
    """Substituted characters live in the convention dual to the stored
    bundle weights (the tangent of the surface comes out as -w1, -w2), so
    a twist by M shifts factor f at chart i by the dual of M's weight."""
    return Weight(0, 0) if f.bundle is None else -f.bundle.weights[i]


# The brute-force oracle of the tests, never called here: the characters of
# one global configuration, summed over the charts from the same local terms.
def _tangent_character(S: ToricSurfaceDescriptor, cfg: FixedConfig, mode: str) -> Character:
    pairs = zip(S.charts, cfg.outer_chars(), cfg.inner_chars())
    return sum(
        (_at_chart(_local_tangent(Z1, Z2, mode), chart, Weight(0, 0)) for chart, Z1, Z2 in pairs),
        Character(),
    )


def _factor_character(S: ToricSurfaceDescriptor, cfg: FixedConfig, f: Factor) -> Character:
    pairs = enumerate(zip(S.charts, cfg.outer_chars(), cfg.inner_chars()))
    return sum(
        (_at_chart(_local_factor(Z1, Z2, f), chart, _twist(f, i)) for i, (chart, Z1, Z2) in pairs),
        Character(),
    )


def _top_terms(local: _Terms) -> dict:
    """``local`` flattened once per call for a top-degree read: per term, tangent
    weights (a, b, m) and factor weights (a, b, m, j), j the factor (its twist)."""
    return {key: [(tuple((a, b, m) for (a, b), m in t.terms.items()),
                   tuple((a, b, m, j) for j, c in enumerate(cs) for (a, b), m in c.terms.items()))
                  for t, cs in ts] for key, ts in local.items()}


# a grid maps local or global sizes (a, b) to their u-series coefficients [u^0 .. u^ucut]
_Grid = dict[tuple[int, int], list[int]]


def _chart_grid(
    local: _Terms | dict,
    S: ToricSurfaceDescriptor,
    i: int,
    x: int,
    y: int,
    spec: IntegrandSpec,
    grading: _Grading,
) -> tuple[int, _Grid]:
    """Chart i's factor Z_p at (x, y) as an integer grid and its denominator,
    from the terms that ``_nonzero_terms`` keeps at the projected point (X, Y).
    At top degree (``_top_terms``) each is one integer fraction, its factors'
    top Chern values over its tangent Euler value, summed over their lcm; any
    vanishing tangent weight is a pole.  Otherwise each is its top factors'
    top Chern values (the term skipped where 0) times its total factors'
    Chern series, over its tangent Euler value, over one common denominator."""
    ucut = grading.ucut
    X, Y = S.charts[i].w1.value(x, y), S.charts[i].w2.value(x, y)
    twists = [_twist(f, i).value(x, y) for f in spec.factors]
    if grading.top:
        fracs: dict = {key: [] for key in local}
        for key, ts in local.items():
            for tangent, factors in ts:
                num, den = prod((a * X + b * Y + twists[j]) ** m for a, b, m, j in factors), 1
                for a, b, m in tangent:
                    v = a * X + b * Y
                    if v == 0:
                        raise SpecializationPole(f"weight ({a}, {b}) vanishes at ({X}, {Y})")
                    if m > 0:
                        den *= v**m
                    else:
                        num *= v**-m
                fracs[key].append((num, den))
        den = lcm(*(d for fs in fracs.values() for _, d in fs))
        return den, {key: [sum(n * (den // d) for n, d in fs)] for key, fs in fracs.items()}
    eulers = {key: [euler_value(t, X, Y) for t, _ in ts] for key, ts in local.items()}
    den = lcm(*(e.numerator for es in eulers.values() for e in es))
    grid: _Grid = {}
    for key, ts in local.items():
        for (_, chars), e in zip(ts, eulers[key]):
            u, c = USeries.one(ucut), den // e.numerator * e.denominator
            for char, f, twist in zip(chars, spec.factors, twists):
                if f.kind == "total":
                    u = u * chern_useries(char, X, Y, ucut, twist)
                else:
                    c *= top_chern_value(char, X, Y, twist)
            if c:
                acc = grid.setdefault(key, [0] * (ucut + 1))
                for k, uk in enumerate(u.coeffs):
                    acc[k] += c * uk
    return den, grid


def _times(g: _Grid, h: _Grid, n1: int, n2: int, ucut: int) -> _Grid:
    """Product of two grids, truncated at (n1, n2) and at ucut in u."""
    out: _Grid = {}
    for k1, p in g.items():
        for k2, q in h.items():
            if k1[0] + k2[0] > n1 or k1[1] + k2[1] > n2:
                continue
            r = out.setdefault(tuple(map(add, k1, k2)), [0] * (ucut + 1))
            for i, c in enumerate(p):
                if c:
                    for j in range(ucut + 1 - i):
                        r[i + j] += c * q[j]
    return out


def _vertex_product(terms: _Terms | dict, S: ToricSurfaceDescriptor, x: int, y: int,
                    spec: IntegrandSpec, grading: _Grading) -> dict[tuple[int, int], Fraction]:
    """Every entry of Z = prod_p Z_p at (x, y), from ``terms`` as ``_chart_grid`` takes them."""
    charts = range(len(S.charts))
    dens, grids = zip(*(_chart_grid(terms, S, i, x, y, spec, grading) for i in charts))
    product = reduce(partial(_times, n1=grading.n1, n2=grading.n2, ucut=grading.ucut), grids)
    return {key: Fraction(_read(product, key, grading), prod(dens)) for key in grading.reads}


def _read(grid: _Grid, key: tuple[int, int], grading: _Grading) -> int:
    """The coefficient that entry ``key`` reads from ``grid``."""
    k = grading.reads[key]
    series = grid.get(key)
    return series[k] if series and k >= 0 else 0


def _config_counts(local: _Terms, nfixed: int, grading: _Grading) -> dict[tuple[int, int], int]:
    """Configurations per entry: the vertex product with unit weights."""
    units = repeat({key: [len(ts)] for key, ts in local.items()}, nfixed)
    product = reduce(partial(_times, n1=grading.n1, n2=grading.n2, ucut=0), units)
    return {key: product[key][0] for key in grading.reads}


def integrate(
    S: ToricSurfaceDescriptor, n1: int, n2: int, spec: IntegrandSpec, seed: int = 0
) -> InvariantResult:
    """Localize the integrand over the moduli of every size (a, b) <=
    (n1, n2), b <= a in nested mode, and return the exact common values of
    all specialization evaluations."""
    if n1 < 0 or n2 < 0 or (spec.mode == "nested" and n1 < n2):
        raise InvalidNesting(f"invalid sizes ({n1}, {n2}) for mode {spec.mode!r}")
    S.check_bundles(*(f.bundle for f in spec.factors))
    local = _local_terms(spec, n1, n2)
    where = f"{S.name} ({n1}, {n2}, {spec.mode})"
    tops = [(j, f.klass) for j, f in enumerate(spec.factors) if f.kind == "top"]
    for key, ts in local.items():  # before any draw, for both evaluation paths
        for tangent, chars in ts:
            if tangent.zero_multiplicity():
                raise ZeroWeightInTangent(f"zero tangent weight on {where} at local sizes {key}")
            for j, klass in tops:
                if any(m < 0 for m in chars[j].terms.values()):
                    raise VirtualCharacter(f"top Chern value of a virtual character on {where}: "
                                           f"factor {j} ({klass}) at local sizes {key}")
    grading = _grading(spec, local)
    terms = _nonzero_terms(spec, local, grading)
    terms = _top_terms(terms) if grading.top else terms
    rng = make_rng(seed)
    values, points = certified_value(
        lambda x, y: _vertex_product(terms, S, x, y, spec, grading),
        lambda: random_point(rng),
        _NPOINTS,
        where,
    )
    return InvariantResult(
        values=values,
        config_counts=_config_counts(local, len(S.charts), grading),
        specializations=points,
        n1=n1,
        n2=n2,
    )


def integrate_hilb(
    S: ToricSurfaceDescriptor, n: int, spec: IntegrandSpec, seed: int = 0
) -> InvariantResult:
    """Localization over the single Hilbert scheme S^[n] = S^[n] x S^[0]:
    a product spec at (n, 0), so taut and tangent factors, classes of Z1,
    live on S^[n]."""
    if spec.mode != "product":
        raise ValueError(f"integrate_hilb needs a 'product' spec, got mode {spec.mode!r}")
    return integrate(S, n, 0, spec, seed=seed)
