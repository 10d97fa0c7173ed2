"""The localization integrator.

An invariant is a sum over fixed-point configurations of

    [u^vdim coefficient of the product of factor Chern series]
    / (equivariant Euler class of the tangent character).

Tangent and factor classes are sums over the fixed points p, so each
summand is a product of local terms and a whole table is one product

    Z = prod_p Z_p,   Z_p = sum over local partition pairs of sizes (a, b)
                            of q1^a q2^b c(E_p) / e(T_p),

whose q1^n1 q2^n2 coefficient is the (n1, n2) entry.  "Total" factors are
graded by u; each "top" or "index" factor by a variable of its own, so
that its kept degree is selected globally.  The configuration sum stays
(``enumerate_configs``, ``_tangent_character``, ``_factor_character``) as
the brute-force oracle of the tests.

Z is evaluated exactly at several seeded random integer points, which
must agree.  That is exact because every summand is homogeneous of
degree 0 in (s1, s2).  Each chart's factor is integral over one common
denominator, so each entry costs one Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from math import lcm, prod
from operator import add, gt
from typing import Iterable, NamedTuple

from .charalg import (
    GlobalCharacter,
    LocalCharacter,
    Rational,
    USeries,
    Weight,
    chern_useries,
    euler_value,
    substitute_chart,
)
from .errors import InvalidNesting
from .fixedchar import (  # enumerate_configs is the tests' oracle, not called here
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


@dataclass(frozen=True)
class Factor:
    """One multiplicative piece of an integrand.

    kind: "total" (whole Chern series), "top" (top Chern class only) or
    "index" (single Chern class c_k).
    klass: which K-class the factor is built from.
    slot: 1 or 2 for classes living on a single Hilbert factor.
    """

    kind: str
    klass: str  # em | em_rev | taut | tangent
    bundle: EquivariantLineBundle | None = None
    k: int | None = None
    slot: int | None = None


def total_chern_em(bundle: EquivariantLineBundle | None = None) -> Factor:
    return Factor("total", "em", bundle)


def top_chern_em(bundle: EquivariantLineBundle | None = None) -> Factor:
    return Factor("top", "em", bundle)


def chern_index_em(k: int, bundle: EquivariantLineBundle | None = None) -> Factor:
    return Factor("index", "em", bundle, k=k)


def total_chern_em_rev(bundle: EquivariantLineBundle | None = None) -> Factor:
    return Factor("total", "em_rev", bundle)


def total_chern_tangent(slot: int = 1) -> Factor:
    return Factor("total", "tangent", slot=slot)


def total_chern_twisted_tangent(bundle: EquivariantLineBundle, slot: int) -> Factor:
    return Factor("total", "tangent", bundle, slot=slot)


def top_chern_taut(bundle: EquivariantLineBundle, slot: int = 1) -> Factor:
    return Factor("top", "taut", bundle, slot=slot)


@dataclass(frozen=True)
class IntegrandSpec:
    """mode: "nested", "product" or "hilb" (single Hilbert scheme, slot 1)."""

    mode: str
    factors: tuple[Factor, ...] = ()

    def __post_init__(self):
        if self.mode not in ("nested", "product", "hilb"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class InvariantResult:
    """Every entry (a, b) <= (n1, n2) of one localization table (b <= a
    in nested mode) and its configuration count."""

    values: dict[tuple[int, int], Rational]
    config_counts: dict[tuple[int, int], int]
    specializations: tuple[Point, ...]
    mode: str
    n1: int
    n2: int

    @property
    def value(self) -> Rational:
        return self.values[(self.n1, self.n2)]

    @property
    def config_count(self) -> int:
        return self.config_counts[(self.n1, self.n2)]


def _vdim(mode: str, n1: int, n2: int) -> int:
    if mode == "nested":
        return n1 + n2
    return 2 * (n1 + n2)  # product of smooth Hilbert schemes; hilb has n2 = 0


def _factor_rank(f: Factor, n1: int, n2: int) -> int:
    if f.klass in ("em", "em_rev"):
        return n1 + n2
    n = n1 if f.slot == 1 else n2
    if f.klass == "taut":
        return n
    return 2 * n  # tangent


class _Grading(NamedTuple):
    """Which coefficient of the vertex product each table entry reads.

    Total factors are graded by u; each top or index factor by its own
    variable v_j, kept up to caps[j].  Entry (a, b) reads v^degrees u^k
    with k = vdim(a, b) - sum(degrees); a negative degree or k reads 0.
    """

    reads: dict[tuple[int, int], tuple[tuple[int, ...], int]]  # by entry, in order
    n1: int
    n2: int
    ucut: int
    caps: tuple[int, ...]


def _grading(spec: IntegrandSpec, n1: int, n2: int) -> _Grading:
    entries = (
        (a, b)
        for a in range(n1 + 1)
        for b in range(n2 + 1)
        if spec.mode != "nested" or b <= a
    )
    reads = {}
    for a, b in entries:
        degrees = tuple(
            _factor_rank(f, a, b) if f.kind == "top" else f.k
            for f in spec.factors
            if f.kind != "total"
        )
        reads[(a, b)] = (degrees, _vdim(spec.mode, a, b) - sum(degrees))
    caps = tuple(max(0, *ds) for ds in zip(*(d for d, _ in reads.values())))
    ucut = max(0, *(k for _, k in reads.values()))
    return _Grading(reads, n1, n2, ucut, caps)


def _local_tangent(Z1: LocalCharacter, Z2: LocalCharacter, mode: str) -> LocalCharacter:
    if mode == "nested":
        return nested_tangent_char(Z1, Z2)
    return hilb_tangent_char(Z1) + hilb_tangent_char(Z2)


def _local_factor(Z1: LocalCharacter, Z2: LocalCharacter, f: Factor) -> LocalCharacter:
    if f.klass == "em":
        return em_char(Z1, Z2)
    if f.klass == "em_rev":
        return em_char(Z2, Z1)
    Z = Z1 if f.slot == 1 else Z2
    if f.klass == "tangent":
        return hilb_tangent_char(Z)
    if f.klass == "taut":
        return Z
    raise ValueError(f"unknown factor class {f.klass!r}")


def _at_chart(
    char: LocalCharacter, chart: FixedPointChart, shift: Weight | None
) -> GlobalCharacter:
    g = substitute_chart(char, chart.w1, chart.w2)
    return g if shift is None else g.translate(shift)


def _shift(f: Factor, i: int) -> Weight | None:
    """Substituted characters live in the convention dual to the stored
    bundle weights (the tangent of the surface comes out as -w1, -w2), so
    a twist by M shifts factor f at chart i by the dual of M's weight."""
    return None if f.bundle is None else -f.bundle.weights[i]


# The brute-force oracle of the tests: the characters of one global
# configuration, summed over the charts from the same local terms.
def _tangent_character(S: ToricSurfaceDescriptor, cfg: FixedConfig, mode: str) -> GlobalCharacter:
    pairs = zip(S.charts, cfg.outer_chars(), cfg.inner_chars())
    return sum(
        (_at_chart(_local_tangent(Z1, Z2, mode), chart, None) for chart, Z1, Z2 in pairs),
        GlobalCharacter(),
    )


def _factor_character(S: ToricSurfaceDescriptor, cfg: FixedConfig, f: Factor) -> GlobalCharacter:
    pairs = enumerate(zip(S.charts, cfg.outer_chars(), cfg.inner_chars()))
    return sum(
        (_at_chart(_local_factor(Z1, Z2, f), chart, _shift(f, i)) for i, (chart, Z1, Z2) in pairs),
        GlobalCharacter(),
    )


# per local pair: the tangent character and the characters of the factors
_VertexTerm = tuple[GlobalCharacter, tuple[GlobalCharacter, ...]]
# one chart's vertex terms, by local sizes (a, b)
_ChartTerms = dict[tuple[int, int], list[_VertexTerm]]


def _chart_terms(
    S: ToricSurfaceDescriptor, spec: IntegrandSpec, keys: Iterable[tuple[int, int]]
) -> list[_ChartTerms]:
    """The vertex terms of every chart, by local sizes (a, b).

    Local characters are built once per local pair and substituted at
    every chart.
    """
    pair_mode = "nested" if spec.mode == "nested" else "product"
    local = {
        key: [
            (_local_tangent(Z1, Z2, spec.mode), [_local_factor(Z1, Z2, f) for f in spec.factors])
            for Z1, Z2 in local_pair_chars(*key, pair_mode)
        ]
        for key in keys
    }
    charts = []
    for i, chart in enumerate(S.charts):
        shifts = [_shift(f, i) for f in spec.factors]
        charts.append({
            key: [
                (
                    _at_chart(t, chart, None),
                    tuple(_at_chart(c, chart, shift) for c, shift in zip(chars, shifts)),
                )
                for t, chars in terms
            ]
            for key, terms in local.items()
        })
    return charts


# a grid maps local or global sizes (a, b) to a series in (v_1.., u):
# {v exponents: [u^0 .. u^ucut coefficients]}
_Grid = dict[tuple[int, int], dict[tuple[int, ...], list[int]]]


def _chart_grid(
    terms: _ChartTerms,
    x: int,
    y: int,
    spec: IntegrandSpec,
    grading: _Grading,
) -> tuple[int, _Grid]:
    """One chart's factor Z_p at (x, y) as an integer grid and its
    denominator: each vertex term is its factor Chern series divided by
    its tangent Euler value, all over one common denominator."""
    ucut = grading.ucut
    eulers = {key: [euler_value(t, x, y) for t, _ in ts] for key, ts in terms.items()}
    den = lcm(*(e.numerator for es in eulers.values() for e in es))
    grid: _Grid = {}
    for key, ts in terms.items():
        series: dict[tuple[int, ...], list[int]] = {}
        for (_, chars), e in zip(ts, eulers[key]):
            u = USeries.one(ucut)
            parts = [((), den // e.numerator * e.denominator)]
            caps = iter(grading.caps)
            for char, f in zip(chars, spec.factors):
                if f.kind == "total":
                    u = u * chern_useries(char, x, y, ucut)
                else:
                    cs = chern_useries(char, x, y, next(caps)).coeffs
                    parts = [(d + (j,), c * cj) for d, c in parts for j, cj in enumerate(cs) if cj]
            for d, c in parts:
                acc = series.setdefault(d, [0] * (ucut + 1))
                for k, uk in enumerate(u.coeffs):
                    acc[k] += c * uk
        grid[key] = series
    return den, grid


def _times(g: _Grid, h: _Grid, n1: int, n2: int, ucut: int, caps: tuple[int, ...]) -> _Grid:
    """Product of two grids, truncated at (n1, n2), at caps in v and at ucut in u."""
    out: _Grid = {}
    for (a1, b1), s in g.items():
        for (a2, b2), t in h.items():
            if a1 + a2 > n1 or b1 + b2 > n2:
                continue
            acc = out.setdefault((a1 + a2, b1 + b2), {})
            for d1, p in s.items():
                for d2, q in t.items():
                    d = tuple(map(add, d1, d2))
                    if any(map(gt, d, caps)):
                        continue
                    r = acc.setdefault(d, [0] * (ucut + 1))
                    for i, c in enumerate(p):
                        if c:
                            for j in range(ucut + 1 - i):
                                r[i + j] += c * q[j]
    return out


def _evaluate(
    charts: list[_ChartTerms], x: int, y: int, spec: IntegrandSpec, grading: _Grading
) -> dict[tuple[int, int], Rational]:
    """Every entry of the vertex product Z = prod_p Z_p at (x, y)."""
    dens, grids = zip(*(_chart_grid(terms, x, y, spec, grading) for terms in charts))
    times = partial(_times, n1=grading.n1, n2=grading.n2, ucut=grading.ucut, caps=grading.caps)
    product = reduce(times, grids)
    return {key: Fraction(_read(product, key, grading), prod(dens)) for key in grading.reads}


def _read(grid: _Grid, key: tuple[int, int], grading: _Grading) -> int:
    """The coefficient that entry ``key`` reads from ``grid``."""
    degrees, k = grading.reads[key]
    series = grid[key].get(degrees)
    return series[k] if series and k >= 0 else 0


def _config_counts(charts: list[_ChartTerms], grading: _Grading) -> dict[tuple[int, int], int]:
    """Configurations per entry: the vertex product with unit weights."""
    units = ({key: {(): [len(ts)]} for key, ts in terms.items()} for terms in charts)
    product = reduce(partial(_times, n1=grading.n1, n2=grading.n2, ucut=0, caps=()), units)
    return {key: product[key][()][0] for key in grading.reads}


def integrate(
    S: ToricSurfaceDescriptor, n1: int, n2: int, spec: IntegrandSpec, seed: int = 0
) -> InvariantResult:
    """Localize the integrand over the moduli of every size (a, b) <=
    (n1, n2), b <= a in nested mode, and return the exact common values of
    all specialization evaluations."""
    if n1 < 0 or n2 < 0 or (spec.mode == "nested" and n1 < n2):
        raise InvalidNesting(f"invalid sizes ({n1}, {n2}) for mode {spec.mode!r}")
    grading = _grading(spec, n1, n2)
    charts = _chart_terms(S, spec, grading.reads)
    rng = make_rng(seed)
    values, points = certified_value(
        lambda x, y: _evaluate(charts, x, y, spec, grading),
        lambda: random_point(rng),
        _NPOINTS,
        f"{S.name} ({n1}, {n2}, {spec.mode})",
    )
    return InvariantResult(
        values=values,
        config_counts=_config_counts(charts, grading),
        specializations=points,
        mode=spec.mode,
        n1=n1,
        n2=n2,
    )


def integrate_hilb(
    S: ToricSurfaceDescriptor, n: int, spec: IntegrandSpec, seed: int = 0
) -> InvariantResult:
    """Localization over the single Hilbert scheme of n points (slot 1)."""
    if spec.mode != "hilb":
        raise ValueError(f"integrate_hilb needs a 'hilb' spec, got mode {spec.mode!r}")
    return integrate(S, n, 0, spec, seed=seed)
