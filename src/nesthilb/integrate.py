"""The localization integrator.

An invariant is a sum over fixed-point configurations of

    [u^vdim coefficient of the product of factor Chern series]
    / (equivariant Euler class of the tangent character).

Tangent and factor classes are sums over the fixed points p, so each
summand is a product of local terms and a whole table is one product

    Z = prod_p Z_p,   Z_p = sum over local partition pairs of sizes (a, b)
                            of q1^a q2^b c(E_p) / e(T_p),

whose q1^n1 q2^n2 coefficient is the (n1, n2) entry.  "Total" factors are
graded by u; each "top" or "index" factor by a variable v_j of its own, so
that its kept degree is selected globally.  Z_p is one flat grid of u-series
keyed by (a, b, v-degrees), and products cut it at the sizes and in u only:
v-degrees only add.  An effective Chern series stops at its rank.  So an
effective top factor (theorem5's product side, case2's Hilbert side) is read
at its rank: one value per local term, its top Chern value; only index and
virtual top factors expand a series in their variable.  If all factors are
total and effective and their ranks add up to vdim (theorem7, zprod, the
nested sides), each local term is read at its top degree, as one integer.
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
from itertools import accumulate, repeat
from math import lcm, prod
from operator import add, sub
from typing import Callable, NamedTuple

from .charalg import Character, Slotted, USeries, Weight, chern_useries, euler_value
from .charalg import top_chern_value
from .charalg import substitute_chart  # the oracle's only, and bound for the benchmark trace
from .errors import InvalidNesting
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

    kind: "total" (whole Chern series), "top" (top Chern class only) or
    "index" (single Chern class c_k, k >= 0).
    klass: which K-class the factor is built from (em, em_rev, taut, tangent).
    slot: 1 or 2 for classes living on a single Hilbert factor (taut,
    tangent).
    """

    __slots__ = ("kind", "klass", "bundle", "k", "slot")

    def __init__(self, kind: str, klass: str, bundle: EquivariantLineBundle | None = None,
                 k: int | None = None, slot: int | None = None):
        self.kind, self.klass, self.bundle, self.k, self.slot = kind, klass, bundle, k, slot
        if self.kind not in ("total", "top", "index"):
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if self.klass not in ("em", "em_rev", "taut", "tangent"):
            raise ValueError(f"unknown factor class {self.klass!r}")
        if self.klass in ("taut", "tangent") and self.slot not in (1, 2):
            raise ValueError(f"a {self.klass} factor needs slot 1 or 2, got {self.slot!r}")
        if self.kind == "index" and (type(self.k) is not int or self.k < 0):
            raise ValueError(f"an index factor needs an int k >= 0, got {self.k!r}")
        if self.kind != "index" and self.k is not None:
            raise ValueError(f"a {self.kind} factor takes no k, got {self.k!r}")
        if self.klass in ("em", "em_rev") and self.slot is not None:
            raise ValueError(f"an {self.klass} factor takes no slot, got {self.slot!r}")


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


class IntegrandSpec(Slotted):
    """mode: "nested" (the nested scheme S^[n1,n2]) or "product" (S^[n1] x
    S^[n2]).  The single Hilbert scheme S^[n] is product mode at n2 = 0,
    where slot-2 factors see S^[0] (see ``integrate_hilb``)."""

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
    if f.klass == "em_rev":
        return em_char(Z2, Z1)
    Z = Z1 if f.slot == 1 else Z2
    return hilb_tangent_char(Z) if f.klass == "tangent" else Z  # taut


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

    Total factors are graded by u; each top or index factor by its own
    variable v_j, its local series cut at caps[j].  Entry (a, b) reads
    v^degrees u^k, k = vdim(a, b) - sum(degrees); a negative k reads 0.
    A factor flagged in at_rank adds only its rank to v_j per local term.
    """

    reads: dict[tuple[int, int], tuple[tuple[int, ...], int]]  # by entry, in order
    n1: int
    n2: int
    ucut: int
    caps: tuple[int, ...]
    top: bool  # every entry reads one integer: u^vdim at top degree
    at_rank: tuple[bool, ...]  # per factor: an effective top factor, read at its rank


def _grading(spec: IntegrandSpec, local: _Terms) -> _Grading:
    """The reads of every entry of ``local``'s table.

    vdim is the signed rank of the tangent and a top factor's degree the
    signed rank of its character.  Every rank is linear in the sizes, so
    a local pair of sizes (a, b) has the rank of entry (a, b): both are
    read off the first local pair of each key.  The table is read at top
    degree if all factors are total and effective and their ranks add up
    to vdim.  A top factor whose local characters are all effective is
    read at its rank on every local term, whatever the other factors are:
    its series stops there, and entries read the sum of those ranks.
    """
    effective = [
        all(m > 0 for ts in local.values() for _, chars in ts for m in chars[j].terms.values())
        for j in range(len(spec.factors))
    ]
    at_rank = tuple(f.kind == "top" and e for f, e in zip(spec.factors, effective))
    if all(f.kind == "total" for f in spec.factors) and all(effective) and all(
        sum(char.signed_rank() for char in terms[0][1]) == terms[0][0].signed_rank()
        for terms in local.values()
    ):
        return _Grading(dict.fromkeys(local, ((), 0)), *max(local), 0, (), True, at_rank)
    reads = {}
    for key, terms in local.items():
        tangent, chars = terms[0]
        degrees = tuple(
            char.signed_rank() if f.kind == "top" else f.k
            for char, f in zip(chars, spec.factors)
            if f.kind != "total"
        )
        reads[key] = (degrees, tangent.signed_rank() - sum(degrees))
    caps = tuple(max(0, *ds) for ds in zip(*(d for d, _ in reads.values())))
    ucut = max(0, *(k for _, k in reads.values()))
    return _Grading(reads, *max(local), ucut, caps, False, at_rank)  # largest key: (n1, n2)


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


# a grid maps local or global sizes and v exponents (a, b, v_1, ..) to
# the coefficients [u^0 .. u^ucut] of that monomial's u-series
_Grid = dict[tuple[int, ...], list[int]]


def _chart_grid(
    local: _Terms,
    S: ToricSurfaceDescriptor,
    i: int,
    x: int,
    y: int,
    spec: IntegrandSpec,
    grading: _Grading,
) -> tuple[int, _Grid]:
    """Chart i's factor Z_p at (x, y) as an integer grid and its
    denominator: each local term at the projected point (X, Y) is its
    factor Chern series (an at_rank factor's top Chern value, at v-degree
    its rank), or at top degree their top Chern values, divided by its
    tangent Euler value, all over one common denominator."""
    ucut = grading.ucut
    X, Y = S.charts[i].w1.value(x, y), S.charts[i].w2.value(x, y)
    twists = [_twist(f, i).value(x, y) for f in spec.factors]
    eulers = {key: [euler_value(t, X, Y) for t, _ in ts] for key, ts in local.items()}
    den = lcm(*(e.numerator for es in eulers.values() for e in es))
    if grading.top:
        return den, {key: [sum(
            den // e.numerator * e.denominator
            * prod(top_chern_value(c, X, Y, t) for c, t in zip(chars, twists))
            for (_, chars), e in zip(ts, eulers[key])
        )] for key, ts in local.items()}
    grid: _Grid = {}
    for key, ts in local.items():
        for (_, chars), e in zip(ts, eulers[key]):
            u = USeries.one(ucut)
            parts = [(key, den // e.numerator * e.denominator)]
            caps = iter(grading.caps)
            for char, f, twist, at_rank in zip(chars, spec.factors, twists, grading.at_rank):
                if f.kind == "total":
                    u = u * chern_useries(char, X, Y, ucut, twist)
                elif at_rank:
                    c_top = top_chern_value(char, X, Y, twist)
                    parts = [(d + (char.signed_rank(),), c * c_top) for d, c in parts if c_top]
                else:
                    cs = chern_useries(char, X, Y, next(caps), twist).coeffs
                    parts = [(d + (j,), c * cj) for d, c in parts for j, cj in enumerate(cs) if cj]
            for d, c in parts:
                acc = grid.setdefault(d, [0] * (ucut + 1))
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


def _evaluate(
    local: _Terms, S: ToricSurfaceDescriptor, x: int, y: int, spec: IntegrandSpec, grading: _Grading
) -> dict[tuple[int, int], Fraction]:
    """Every entry of the vertex product Z = prod_p Z_p at (x, y)."""
    charts = range(len(S.charts))
    dens, grids = zip(*(_chart_grid(local, S, i, x, y, spec, grading) for i in charts))
    times = partial(_times, n1=grading.n1, n2=grading.n2, ucut=grading.ucut)
    product = reduce(times, grids)
    return {key: Fraction(_read(product, key, grading), prod(dens)) for key in grading.reads}


def _read(grid: _Grid, key: tuple[int, int], grading: _Grading) -> int:
    """The coefficient that entry ``key`` reads from ``grid``."""
    degrees, k = grading.reads[key]
    series = grid.get(key + degrees)
    return series[k] if series and k >= 0 else 0


def _config_counts(local: _Terms, nfixed: int, grading: _Grading) -> dict[tuple[int, int], int]:
    """Configurations per entry: the vertex product with unit weights."""
    units = repeat({key: [len(ts)] for key, ts in local.items()}, nfixed)
    product = reduce(partial(_times, n1=grading.n1, n2=grading.n2, ucut=0), units)
    return {key: product[key][0] for key in grading.reads}


def _witness(products: list[_Grid], witnesses: dict, key: tuple[int, int], cls: tuple) -> list:
    """A configuration of sizes ``key`` and tangent class ``cls``, one pair
    per chart, rebuilt by backtracking through the chart products."""
    rest, pairs = key + cls, []
    for before in reversed(products[:-1]):
        rest, pair = next(
            (r, pair) for local, pair in witnesses.items()
            if (r := tuple(map(sub, rest, local))) in before
        )
        pairs.append(pair)
    return [witnesses[rest], *reversed(pairs)]


def tangent_classes(S: ToricSurfaceDescriptor, n1: int, n2: int) -> tuple[dict, Callable]:
    """Nested configurations of sizes (a, b) <= (n1, n2) counted by the
    class (signed rank, zero-weight multiplicity) of their tangent, with
    no enumeration: ``{(a, b): {class: count}}``, and ``witness(key,
    cls)``, which names one configuration of a class as its partition
    pairs per chart.

    A configuration's tangent is the sum of its local tangents, so its
    class is the sum of their classes.  Chart weights are linearly
    independent (``FixedPointChart`` checks it at load), so only the
    local exponent (0, 0) substitutes to the zero weight.
    """
    if n2 < 0 or n1 < n2:
        raise InvalidNesting(f"invalid sizes ({n1}, {n2}) for mode 'nested'")
    local: _Grid = {}  # by (a, b, signed rank, zero multiplicity)
    witnesses: dict = {}
    for key in ((a, b) for a in range(n1 + 1) for b in range(min(a, n2) + 1)):
        for pair, Z1, Z2 in local_pair_chars(*key, "nested"):
            t = _local_tangent(Z1, Z2, "nested")
            flat = (*key, t.signed_rank(), t.zero_multiplicity())
            local.setdefault(flat, [0])[0] += 1
            witnesses.setdefault(flat, pair)
    times = partial(_times, n1=n1, n2=n2, ucut=0)
    products = list(accumulate(repeat(local, len(S.charts)), times))  # over charts 0..k
    counts: dict = {}
    for (a, b, *cls), (c,) in products[-1].items():
        counts.setdefault((a, b), {})[tuple(cls)] = c
    return counts, partial(_witness, products, witnesses)


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
    grading = _grading(spec, local)
    rng = make_rng(seed)
    values, points = certified_value(
        lambda x, y: _evaluate(local, S, x, y, spec, grading),
        lambda: random_point(rng),
        _NPOINTS,
        f"{S.name} ({n1}, {n2}, {spec.mode})",
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
    a product spec at (n, 0), so slot-1 factors live on S^[n]."""
    if spec.mode != "product":
        raise ValueError(f"integrate_hilb needs a 'product' spec, got mode {spec.mode!r}")
    return integrate(S, n, 0, spec, seed=seed)
