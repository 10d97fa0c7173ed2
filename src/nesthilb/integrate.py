"""The localization integrator.

For each fixed-point configuration we assemble the (specialization
independent) global characters of the virtual tangent space and of every
integrand factor; each invariant is then the sum over configurations of

    [u^vdim coefficient of the product of factor Chern series]
    / (equivariant Euler class of the tangent character)

evaluated exactly at several seeded random specializations.  The
evaluations must agree exactly; their common value is the invariant.

The specializations are integer points; exact because every summand is
homogeneous of degree 0 in (s1, s2): numerator and Euler class both have
degree vdim.  Each configuration costs one Fraction division.

The u-grading restores cohomological degree: "total Chern class"
integrands keep their whole series, "top Chern" and "Chern index"
factors keep a single graded piece, and the u^vdim coefficient of the
product is exactly the degree-matched integrand.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction

from .charalg import (
    GlobalCharacter,
    Rational,
    USeries,
    chern_useries,
    euler_value,
    substitute_chart,
)
from .fixedchar import (
    FixedConfig,
    em_char,
    enumerate_configs,
    hilb_tangent_char,
    nested_tangent_char,
)
from .sampling import Point, certified_value, make_rng, random_point
from .toric import EquivariantLineBundle, ToricSurfaceDescriptor


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
    value: Rational
    specializations: tuple[Point, ...]
    config_count: int
    mode: str
    n1: int
    n2: int


def _vdim(mode: str, n1: int, n2: int) -> int:
    if mode == "nested":
        return n1 + n2
    return 2 * (n1 + n2)  # product of smooth Hilbert schemes; hilb has n2 = 0


def _tangent_character(S: ToricSurfaceDescriptor, cfg: FixedConfig, mode: str) -> GlobalCharacter:
    total = GlobalCharacter()
    Z1s, Z2s = cfg.outer_chars(), cfg.inner_chars()
    for chart, Z1, Z2 in zip(S.charts, Z1s, Z2s):
        if mode == "nested":
            local = nested_tangent_char(Z1, Z2)
        else:
            local = hilb_tangent_char(Z1) + hilb_tangent_char(Z2)
        total = total + substitute_chart(local, chart.w1, chart.w2)
    return total


def _factor_rank(f: Factor, n1: int, n2: int) -> int:
    if f.klass in ("em", "em_rev"):
        return n1 + n2
    n = n1 if f.slot == 1 else n2
    if f.klass == "taut":
        return n
    return 2 * n  # tangent


def _factor_character(S: ToricSurfaceDescriptor, cfg: FixedConfig, f: Factor) -> GlobalCharacter:
    total = GlobalCharacter()
    Z1s, Z2s = cfg.outer_chars(), cfg.inner_chars()
    for i, chart in enumerate(S.charts):
        Z1, Z2 = Z1s[i], Z2s[i]
        if f.klass == "em":
            local = em_char(Z1, Z2)
        elif f.klass == "em_rev":
            local = em_char(Z2, Z1)
        elif f.klass == "tangent":
            local = hilb_tangent_char(Z1 if f.slot == 1 else Z2)
        elif f.klass == "taut":
            local = Z1 if f.slot == 1 else Z2
        else:
            raise ValueError(f"unknown factor class {f.klass!r}")
        piece = substitute_chart(local, chart.w1, chart.w2)
        if f.bundle is not None:
            # Substituted characters live in the convention dual to the
            # stored bundle weights (the tangent of the surface comes out
            # as -w1, -w2), so a twist by M shifts by the dual weight.
            piece = piece.translate(-f.bundle.weights[i])
        total = total + piece
    return total


@dataclass(frozen=True)
class _PreparedConfig:
    """Specialization-independent data of one configuration."""

    tangent: GlobalCharacter
    factor_chars: tuple[GlobalCharacter, ...]
    factor_degrees: tuple[int | None, ...]  # None = keep whole series


def _prepare(
    S: ToricSurfaceDescriptor, n1: int, n2: int, spec: IntegrandSpec
) -> list[_PreparedConfig]:
    enum_mode = "nested" if spec.mode == "nested" else "product"
    tangent_mode = "nested" if spec.mode == "nested" else "hilbprod"
    prepared = []
    for cfg in enumerate_configs(S, n1, n2, enum_mode):
        tangent = _tangent_character(S, cfg, tangent_mode)
        chars = []
        degrees: list[int | None] = []
        for f in spec.factors:
            chars.append(_factor_character(S, cfg, f))
            if f.kind == "total":
                degrees.append(None)
            elif f.kind == "top":
                degrees.append(_factor_rank(f, n1, n2))
            else:
                degrees.append(f.k)
        prepared.append(_PreparedConfig(tangent, tuple(chars), tuple(degrees)))
    return prepared


def _eval_chunk(args) -> Rational:
    chunk, x, y, vdim = args
    total = Fraction(0)
    for pc in chunk:
        denom = euler_value(pc.tangent, x, y)
        series = USeries.one(vdim)
        for char, deg in zip(pc.factor_chars, pc.factor_degrees):
            s = chern_useries(char, x, y, vdim)
            if deg is not None:
                s = s.keep_only(deg)
            series = series * s
        total += series.coefficient(vdim) / denom
    return total


def _chunks(items: list, n: int) -> list[list]:
    n = max(1, min(n, len(items))) if items else 1
    size, extra = divmod(len(items), n)
    out, start = [], 0
    for i in range(n):
        end = start + size + (1 if i < extra else 0)
        out.append(items[start:end])
        start = end
    return out


def _evaluate_point(prepared, x, y, vdim, workers, pool) -> Rational:
    if workers <= 1 or pool is None or len(prepared) < 2:
        return _eval_chunk((prepared, x, y, vdim))
    chunks = _chunks(prepared, workers)
    args = [(c, x, y, vdim) for c in chunks]
    partials = list(pool.map(_eval_chunk, args))
    total = Fraction(0)
    for p in partials:  # fixed chunk order: schedule-independent result
        total += p
    return total


def integrate(
    S: ToricSurfaceDescriptor,
    n1: int,
    n2: int,
    spec: IntegrandSpec,
    seed: int = 0,
    workers: int = 1,
    npoints: int = 3,
) -> InvariantResult:
    """Localize the integrand over the (n1, n2) moduli and return the
    exact common value of all specialization evaluations."""
    vdim = _vdim(spec.mode, n1, n2)
    prepared = _prepare(S, n1, n2, spec)
    rng = make_rng(seed)
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        value, points = certified_value(
            lambda x, y: _evaluate_point(prepared, x, y, vdim, workers, pool),
            lambda: random_point(rng),
            npoints,
            f"{S.name} ({n1}, {n2}, {spec.mode})",
        )
    return InvariantResult(
        value=value,
        specializations=points,
        config_count=len(prepared),
        mode=spec.mode,
        n1=n1,
        n2=n2,
    )


def integrate_hilb(
    S: ToricSurfaceDescriptor,
    n: int,
    spec: IntegrandSpec,
    seed: int = 0,
    workers: int = 1,
    npoints: int = 3,
) -> InvariantResult:
    """Localization over the single Hilbert scheme of n points (slot 1)."""
    if spec.mode != "hilb":
        raise ValueError(f"integrate_hilb needs a 'hilb' spec, got mode {spec.mode!r}")
    return integrate(S, n, 0, spec, seed=seed, workers=workers, npoints=npoints)
